//! `table-grid`: the paper's Table I/II grid — 12 profiles × {indep,
//! dep, para} — run cold through `sttlock_campaign::execute` with a
//! journal and `jobs = nproc`. Parametric selection and incremental STA
//! do nearly all the work; the s38584 parametric cell alone is most of
//! the wall time.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_benchgen::profiles;
use sttlock_campaign::{
    circuit_seed, execute, CampaignSpec, CircuitSpec, FlowMetrics, RunRecord, RunStatus,
};
use sttlock_core::{Flow, SelectionAlgorithm};
use sttlock_netlist::Netlist;
use sttlock_techlib::Library;

use crate::measure::{secs, span, timed, Digest, EndToEnd, Pass, PerLayer, Report, Tracer};
use crate::{replay, Args};

/// The grid's campaign seed. The grid is one fixed input: with the
/// campaign seed free, the s38584 parametric cell alone ranges from
/// 5.8 s to 34.5 s, which no bound could resolve a change against.
const GRID_SEED: u64 = crate::TABLE_SEED;

/// Digest of the 36 records at `GRID_SEED`, with `wall_ms` and
/// `flow.selection_ms` zeroed (identical at `jobs` 1 and 2).
const GRID_DIGEST: &str = "4b3a30bdf20e95e4";

/// Set-ups timed before the grid and again after it; the median of all
/// of them is `setup_s`.
const SETUPS_PER_ROUND: usize = 5;

struct Setup {
    spec: CampaignSpec,
    /// Gate count of each generated circuit, in profile order.
    gates: Vec<usize>,
}

/// Generates every Table I circuit (the gate counts the records are
/// checked against) and prepares a cold campaign spec with a fresh
/// journal. The circuits are returned for the traced replay; the untraced
/// run drops them so they do not count towards `peak_rss_mb`.
fn setup(work: &Path, run: usize) -> (Setup, Vec<Arc<Netlist>>) {
    let circuits: Vec<Arc<Netlist>> = profiles::ALL
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let _s = span("bench.benchgen.generate", i as u64);
            let mut rng = StdRng::seed_from_u64(circuit_seed(GRID_SEED, p.name));
            Arc::new(p.generate(&mut rng))
        })
        .collect();
    let dir = work.join(format!("grid-{run}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark work directory is writable");
    let spec = CampaignSpec {
        circuits: profiles::ALL
            .iter()
            .map(|p| CircuitSpec::Profile(p.name.to_owned()))
            .collect(),
        algorithms: SelectionAlgorithm::ALL.to_vec(),
        seeds: vec![GRID_SEED],
        timeout: Duration::from_secs(600),
        jobs: crate::nproc(),
        cache_dir: None,
        journal: Some(dir.join("journal.log")),
        ..CampaignSpec::default()
    };
    let gates = circuits.iter().map(|c| c.gate_count()).collect();
    (Setup { spec, gates }, circuits)
}

/// Line of a record with its clock-dependent fields zeroed.
fn stable_line(r: &RunRecord) -> String {
    let mut r = r.clone();
    r.wall_ms = 0;
    if let Some(f) = &mut r.flow {
        f.selection_ms = 0.0;
    }
    r.to_json().to_string()
}

struct Batch {
    wall_s: f64,
    records: Vec<RunRecord>,
    digest: String,
}

fn run_batch(setup: &Setup, report: &mut Report) -> Batch {
    let t = Instant::now();
    let result = execute(&setup.spec);
    let wall_s = secs(t);
    let mut digest = Digest::new();
    for r in &result.records {
        digest.line(&stable_line(r));
        let gates = profiles::ALL
            .iter()
            .position(|p| p.name == r.circuit)
            .map(|i| setup.gates[i]);
        report.check(
            r.status.is_ok() && r.flow.is_some() && gates == Some(r.gates) && !r.cached,
            || format!("grid cell {} {} is {:?}", r.circuit, r.algorithm, r.status),
        );
    }
    Batch {
        wall_s,
        records: result.records,
        digest: digest.hex(),
    }
}

pub fn run(args: &Args, work: &Path, report: &mut Report) {
    report.fact("grid_seed", GRID_SEED);
    report.fact("cells", profiles::ALL.len() * SelectionAlgorithm::ALL.len());
    report.fact("jobs", crate::nproc());
    // The grid's fixed work is one cold campaign; repeat it while the run
    // has time left, each pass with a fresh journal. Set-ups are timed in
    // rounds before every pass and once after the last, so that their
    // median spans the whole run.
    let mut setup_s = Vec::new();
    let mut journals = 0;
    let mut setup_round = || {
        let mut fresh = None;
        for _ in 0..SETUPS_PER_ROUND {
            fresh = Some(timed(&mut setup_s, || setup(work, journals).0));
            journals += 1;
        }
        fresh.expect("a round sets up at least once")
    };
    let run_start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    loop {
        let fresh = setup_round();
        batches.push(run_batch(&fresh, report));
        if args.trace || secs(run_start) >= args.seconds {
            break;
        }
    }
    if !args.trace {
        setup_round();
    }
    let first = &batches[0];
    report.fact("digest", &first.digest);
    for b in &batches {
        report.check(b.digest == GRID_DIGEST, || {
            format!(
                "grid digest {} differs from the recorded {GRID_DIGEST}",
                b.digest
            )
        });
    }

    if !args.trace {
        EndToEnd {
            setup_s,
            passes: batches
                .iter()
                .map(|b| Pass {
                    wall_s: b.wall_s,
                    request_ms: Vec::new(),
                })
                .collect(),
        }
        .report(report);
        return;
    }

    // Traced run: the same grid again under the collector (counters and
    // tracing cost), then a serial replay of every cell through the
    // layers' public functions.
    let untraced = first.wall_s;
    let busy_s: f64 = first.records.iter().map(|r| r.wall_ms as f64 / 1e3).sum();
    let longest_s = first.records.iter().map(|r| r.wall_ms).max().unwrap_or(0) as f64 / 1e3;
    let tracer = Tracer::install();
    let (traced_setup, circuits) = setup(work, journals);
    let before = tracer.snapshot();
    let traced = run_batch(&traced_setup, report);
    report.check(traced.digest == first.digest, || {
        "traced grid digest differs".to_owned()
    });
    let mut layer = PerLayer::default();
    layer.program_counters(&tracer, &before);
    layer.set(
        "obs.overhead_pct",
        (traced.wall_s - untraced) / untraced * 100.0,
    );
    layer.set("campaign.cell_busy_s", busy_s);
    layer.set("campaign.sched_slack_s", first.wall_s - longest_s);

    let flow = Flow::new(Library::predictive_90nm());
    let mut digest = Digest::new();
    let mut op = 0u64;
    for (p, base) in profiles::ALL.iter().zip(&circuits) {
        for algorithm in SelectionAlgorithm::ALL {
            op += 1;
            let _cell = span("bench.cell", op);
            let record = match replay::flow(&flow, base, algorithm, GRID_SEED, op) {
                Ok(out) => {
                    layer.add("core.stt_luts", out.stt_count as f64);
                    replayed_record(p.name, base.gate_count(), algorithm, &out)
                }
                Err(e) => RunRecord::failure(
                    p.name,
                    &algorithm.to_string(),
                    GRID_SEED,
                    "none",
                    RunStatus::Failed(e),
                ),
            };
            digest.line(&stable_line(&record));
        }
    }
    let digest = digest.hex();
    report.fact("replay_digest", &digest);
    report.check(digest == first.digest, || {
        format!("replay digest {digest} differs from {}", first.digest)
    });
    let times = tracer.finish(&crate::trace_path(work, args));
    layer.report(&times, report);
}

/// The record the campaign writes for a fault-free, attack-free cell.
fn replayed_record(
    circuit: &str,
    gates: usize,
    algorithm: SelectionAlgorithm,
    out: &replay::Replayed,
) -> RunRecord {
    let mut r = RunRecord::failure(
        circuit,
        &algorithm.to_string(),
        GRID_SEED,
        "none",
        RunStatus::Ok,
    );
    r.gates = gates;
    r.flow = Some(FlowMetrics {
        perf_pct: out.perf_pct,
        power_pct: out.power_pct,
        leakage_pct: out.leakage_pct,
        area_pct: out.area_pct,
        stt_count: out.stt_count,
        selection_ms: 0.0,
        n_indep_log10: out.security.n_indep.log10(),
        n_dep_log10: out.security.n_dep.log10(),
        n_bf_log10: out.security.n_bf.log10(),
    });
    r
}
