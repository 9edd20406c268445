//! Measurement helpers shared by the workloads: quantiles, digests,
//! memory, the metric list a run reports, and the benchmark's own spans.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use sttlock_obs::{
    Collector, Fanout, FieldValue, MetricsCollector, SpanData, SpanGuard, TraceCollector,
};

/// Nearest-rank quantile of an ascending slice (`q` in `0..=1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f`, appending its wall time in seconds to `times`.
pub fn timed<T>(times: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    times.push(secs(t));
    out
}

/// FNV-1a over a sequence of byte strings, each terminated by a newline:
/// a stable fingerprint of a workload's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn line(&mut self, text: &str) {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process so far (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run plus its operation accounting.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Workload facts for the result file (digests, parameters).
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_owned(), value.to_string()));
    }

    /// Counts one checked operation; a wrong output is reported on
    /// stderr and counted as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }
}

/// One pass over a workload's fixed work.
pub struct Pass {
    pub wall_s: f64,
    /// Latency of each request in the pass, milliseconds. Empty on the
    /// batch workloads, where the pass itself is the one request: quantiles
    /// over their operations would land on a different operation class
    /// from run to run (one grid cell is over 80 % of the busy time).
    pub request_ms: Vec<f64>,
}

/// The end-to-end metrics every workload reports with tracing off.
///
/// Each timing is the best of the run's passes (min-of-N): interference
/// on a shared box only ever slows a pass down, so the best pass is the
/// steadiest estimate. A `harden-serve` pass holds 1000 requests, so each
/// pass's p99 has ten samples beyond it. `prove-attack` hands over one
/// pass built from each of its operations' best times.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub passes: Vec<Pass>,
}

impl EndToEnd {
    pub fn report(self, report: &mut Report) {
        let walls: Vec<f64> = self.passes.iter().map(|p| p.wall_s).collect();
        let (mut per_s, mut p50, mut p99) = (0.0f64, f64::INFINITY, f64::INFINITY);
        for pass in self.passes {
            let mut requests = pass.request_ms;
            if requests.is_empty() {
                requests.push(pass.wall_s * 1e3);
            }
            requests.sort_by(f64::total_cmp);
            per_s = per_s.max(requests.len() as f64 / pass.wall_s);
            p50 = p50.min(quantile(&requests, 0.50));
            p99 = p99.min(quantile(&requests, 0.99));
        }
        report.metric("setup_s", median(&self.setup_s), "s");
        report.metric(
            "batch_wall_s",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report.metric("req_per_s", per_s, "1/s");
        report.metric("req_p50_ms", p50, "ms");
        report.metric("req_p99_ms", p99, "ms");
        report.fact("setups_s", spaced(&self.setup_s));
        report.fact("pass_walls_s", spaced(&walls));
    }
}

pub fn spaced(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x:.4}")).collect();
    v.join(" ")
}

/// Opens one of the benchmark's own spans around a call into a layer.
/// A no-op unless a collector is installed (the traced run).
pub fn span(name: &'static str, op: u64) -> SpanGuard {
    if !sttlock_obs::enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::start(name, vec![("op", FieldValue::U64(op))])
}

/// [`span`] with one extra field (the selection algorithm, a verdict).
pub fn span_with(name: &'static str, op: u64, key: &'static str, value: &str) -> SpanGuard {
    if !sttlock_obs::enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard::start(
        name,
        vec![
            ("op", FieldValue::U64(op)),
            (key, FieldValue::Str(value.to_owned())),
        ],
    )
}

/// The traced run's sinks: a span trace plus counters, installed as the
/// process-global collector until [`Tracer::finish`].
pub struct Tracer {
    pub trace: Arc<TraceCollector>,
    pub metrics: Arc<MetricsCollector>,
}

impl Tracer {
    pub fn install() -> Tracer {
        let trace = TraceCollector::new();
        let metrics = MetricsCollector::new();
        sttlock_obs::install(Fanout::new(vec![
            trace.clone() as Arc<dyn Collector>,
            metrics.clone() as Arc<dyn Collector>,
        ]));
        Tracer { trace, metrics }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter_value(name)
    }

    /// Current values of [`PROGRAM_COUNTERS`].
    pub fn snapshot(&self) -> Vec<u64> {
        PROGRAM_COUNTERS.iter().map(|c| self.counter(c)).collect()
    }

    /// Uninstalls the collector, writes the JSONL trace to `path` and
    /// returns the per-layer self times of the benchmark's spans.
    pub fn finish(self, path: &std::path::Path) -> LayerTimes {
        sttlock_obs::uninstall();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, self.trace.to_jsonl()) {
            eprintln!("perfbench: could not write trace {}: {e}", path.display());
        }
        LayerTimes::from_spans(&self.trace.spans())
    }
}

/// Self time per benchmark span name (plus `name/field` for spans that
/// carry an algorithm or verdict), in microseconds.
#[derive(Debug, Default)]
pub struct LayerTimes {
    total_us: BTreeMap<String, u64>,
    max_us: BTreeMap<String, u64>,
}

impl LayerTimes {
    /// A span's self time is its duration minus the part of it covered
    /// by the benchmark's own child spans; the program's internal spans
    /// belong to the layer that opened them and are not subtracted.
    fn from_spans(spans: &[SpanData]) -> LayerTimes {
        let ours: Vec<&SpanData> = spans
            .iter()
            .filter(|s| s.name.starts_with("bench."))
            .collect();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &ours {
            if let Some(p) = s.parent {
                children
                    .entry(p)
                    .or_default()
                    .push((s.start_us, s.start_us + s.duration_us));
            }
        }
        let mut out = LayerTimes::default();
        for s in ours {
            let (start, end) = (s.start_us, s.start_us + s.duration_us);
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            let self_us = s.duration_us.saturating_sub(covered);
            let mut keys = vec![s.name.to_owned()];
            for (k, v) in &s.fields {
                if *k != "op" {
                    keys.push(format!("{}/{}", s.name, v));
                }
            }
            for key in keys {
                *out.total_us.entry(key.clone()).or_default() += self_us;
                let m = out.max_us.entry(key).or_default();
                *m = (*m).max(s.duration_us);
            }
        }
        out
    }

    /// Total self time under `key`, milliseconds.
    pub fn total_ms(&self, key: &str) -> f64 {
        self.total_us.get(key).copied().unwrap_or(0) as f64 / 1e3
    }

    /// Longest single span under `key`, milliseconds.
    pub fn max_ms(&self, key: &str) -> f64 {
        self.max_us.get(key).copied().unwrap_or(0) as f64 / 1e3
    }
}

/// The program's own work counters, read through the installed
/// `MetricsCollector`.
pub const PROGRAM_COUNTERS: [&str; 4] = [
    "sta.node_reevals",
    "sta.invalidations",
    "sta.early_terminations",
    "exec.steps",
];

/// Values of the per-layer metrics a traced run reports. Every workload
/// reports the full list; a layer the workload does not exercise reads 0.
#[derive(Debug, Default)]
pub struct PerLayer {
    pub counters: BTreeMap<&'static str, f64>,
}

impl PerLayer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_default() += value;
    }

    /// Sets [`PROGRAM_COUNTERS`] to their growth since `before`.
    pub fn program_counters(&mut self, tracer: &Tracer, before: &[u64]) {
        for ((name, now), then) in PROGRAM_COUNTERS.iter().zip(tracer.snapshot()).zip(before) {
            self.set(name, (now - then) as f64);
        }
    }

    /// Emits every per-layer metric, in a fixed order, with its unit.
    pub fn report(&self, times: &LayerTimes, report: &mut Report) {
        let timed: [(&'static str, &str); 14] = [
            ("netlist.parse_ms", "bench.netlist.parse"),
            ("netlist.view_ms", "bench.netlist.view"),
            ("benchgen.generate_ms", "bench.benchgen.generate"),
            ("sim.activity_ms", "bench.sim.activity"),
            ("sta.analyze_ms", "bench.sta.analyze"),
            ("core.select_indep_ms", "bench.core.select/independent"),
            ("core.select_dep_ms", "bench.core.select/dependent"),
            ("core.select_para_ms", "bench.core.select/parametric-aware"),
            ("core.replace_ms", "bench.core.replace"),
            ("power.analyze_ms", "bench.power.analyze"),
            ("attack.estimate_ms", "bench.attack.estimate"),
            ("attack.sat_ms", "bench.attack.sat"),
            ("sat.equiv_proved_ms", "bench.sat.equiv/proved"),
            ("sat.equiv_refuted_ms", "bench.sat.equiv/refuted"),
        ];
        for (name, key) in timed {
            report.metric(name, times.total_ms(key), "ms");
        }
        report.metric(
            "core.select_para_max_ms",
            times.max_ms("bench.core.select/parametric-aware"),
            "ms",
        );
        report.metric(
            "attack.verify_ms",
            times.total_ms("bench.attack.verify"),
            "ms",
        );
        let counted: [(&'static str, &'static str); 16] = [
            ("sta.node_reevals", "count"),
            ("sta.invalidations", "count"),
            ("sta.early_terminations", "count"),
            ("exec.steps", "count"),
            ("core.stt_luts", "count"),
            ("attack.dips", "count"),
            ("sat.conflicts", "count"),
            ("sat.propagations", "count"),
            ("campaign.cell_busy_s", "s"),
            ("campaign.sched_slack_s", "s"),
            ("serve.hit_p50_ms", "ms"),
            ("serve.miss_p50_ms", "ms"),
            ("serve.hit_ratio", "ratio"),
            ("serve.rejected", "count"),
            ("store.appends", "count"),
            ("obs.overhead_pct", "%"),
        ];
        for (name, unit) in counted {
            report.metric(name, self.counters.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
