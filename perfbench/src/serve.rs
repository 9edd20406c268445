//! `harden-serve`: an in-process `sttlock_serve::Server` under a closed
//! loop. Two clients post the s5378a bench text to `/v1/harden`, each
//! sending its next request only after the previous reply. The algorithm
//! alternates indep/dep; three requests in four carry a never-seen seed
//! (cold: parse, flow, cache append) and one in four repeats a key warmed
//! during set-up (a cache hit). Selection is light here: parse, view,
//! activity, STA, power and the security estimate carry the time.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_benchgen::profiles;
use sttlock_campaign::circuit_seed;
use sttlock_campaign::json::Json;
use sttlock_core::{Flow, SelectionAlgorithm};
use sttlock_netlist::bench_format;
use sttlock_serve::{client, ServeConfig, Server};
use sttlock_techlib::Library;

use crate::measure::{median, secs, span, Digest, EndToEnd, Pass, PerLayer, Report, Tracer};
use crate::{replay, Args};

/// Requests per batch: enough that p99 has ten samples beyond it.
const BATCH: usize = 1000;
/// Batches an untraced run makes at least, however short `--seconds` is.
/// The reported tail is the best batch's p99; a burst of interference on
/// a shared box inflates a whole batch's p99, so the run needs enough
/// batches for one to fall between bursts.
const MIN_BATCHES: usize = 4;
/// Keys warmed during set-up; hits repeat one of them.
const WARM_KEYS: usize = 8;
/// Cold responses re-derived in process with `Flow::run` after a run.
const SAMPLE: usize = 8;
/// Times the server set-up is repeated; its median is `setup_s`.
const SETUPS: usize = 5;
const PROFILE: &str = "s5378a";
const TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Hit(usize),
}

#[derive(Clone, Copy)]
struct Request {
    algorithm: SelectionAlgorithm,
    seed: u64,
    class: Class,
}

struct Reply {
    ms: f64,
    status: u16,
    body: String,
}

struct Fixture {
    server: Server,
    /// The bench text as a JSON string literal, escaped once.
    bench_json: String,
    bench: String,
    /// Cold response of each warm key, as its [`canonical`] string.
    warm: Vec<(Request, String)>,
}

fn keys(seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A2_E0C1);
    (0..WARM_KEYS)
        .map(|i| Request {
            algorithm: alternate(i),
            seed: json_seed(&mut rng),
            class: Class::Hit(i),
        })
        .collect()
}

/// A request seed. The service reads JSON numbers as `f64`, so seeds
/// stay below 2^53 to arrive exactly as sent.
fn json_seed(rng: &mut StdRng) -> u64 {
    rng.gen::<u64>() >> 11
}

fn alternate(i: usize) -> SelectionAlgorithm {
    if i.is_multiple_of(2) {
        SelectionAlgorithm::Independent
    } else {
        SelectionAlgorithm::Dependent
    }
}

fn body(bench_json: &str, r: &Request) -> String {
    let alg = match r.algorithm {
        SelectionAlgorithm::Independent => "indep",
        _ => "dep",
    };
    format!(
        "{{\"bench\":{bench_json},\"algorithm\":\"{alg}\",\"seed\":{}}}",
        r.seed
    )
}

fn post(addr: &str, bench_json: &str, r: &Request) -> Reply {
    let t = Instant::now();
    let resp = client::request(
        addr,
        "POST",
        "/v1/harden",
        Some(&body(bench_json, r)),
        TIMEOUT,
    );
    let ms = secs(t) * 1e3;
    match resp {
        Ok(resp) => Reply {
            ms,
            status: resp.status,
            body: resp.body_text(),
        },
        Err(e) => Reply {
            ms,
            status: 0,
            body: e.to_string(),
        },
    }
}

/// Generates the circuit, starts a server over a fresh cache and warms
/// the hit keys.
fn setup(seed: u64, cache: PathBuf, report: &mut Report) -> Fixture {
    let profile = profiles::by_name(PROFILE).expect("s5378a is a Table I profile");
    let bench = {
        let _s = span("bench.benchgen.generate", 0);
        let mut rng = StdRng::seed_from_u64(circuit_seed(crate::TABLE_SEED, PROFILE));
        bench_format::write(&profile.generate(&mut rng))
    };
    let bench_json = Json::Str(bench.clone()).to_string();
    let _ = std::fs::remove_dir_all(&cache);
    let server = Server::start(ServeConfig {
        workers: crate::nproc(),
        cache_dir: Some(cache),
        install_obs: false,
        ..ServeConfig::default()
    })
    .expect("server binds an ephemeral localhost port");
    let addr = server.addr().to_string();
    let mut warm = Vec::new();
    for k in keys(seed) {
        let reply = post(&addr, &bench_json, &k);
        let parsed = Json::parse(&reply.body)
            .ok()
            .filter(|_| reply.status == 200);
        report.check(parsed.is_some(), || {
            format!("warm-up request answered {}", reply.status)
        });
        warm.push((k, canonical(parsed.unwrap_or(Json::Null))));
    }
    Fixture {
        server,
        bench_json,
        bench,
        warm,
    }
}

/// One batch's requests: alternating algorithms, two hits in every eight.
fn plan(rng: &mut StdRng, seen: &mut HashSet<u64>, warm: &[Request]) -> Vec<Request> {
    (0..BATCH)
        .map(|j| {
            let algorithm = alternate(j);
            if j % 8 == 3 || j % 8 == 6 {
                let same: Vec<usize> = (0..warm.len())
                    .filter(|&k| warm[k].algorithm == algorithm)
                    .collect();
                let k = same[rng.gen_range(0..same.len())];
                return warm[k];
            }
            let seed = loop {
                let s = json_seed(rng);
                if seen.insert(s) {
                    break s;
                }
            };
            Request {
                algorithm,
                seed,
                class: Class::Cold,
            }
        })
        .collect()
}

/// Runs the batch closed-loop on `nproc` client threads.
fn drive(fx: &Fixture, plan: &[Request]) -> (f64, Vec<Reply>) {
    let addr = fx.server.addr().to_string();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Reply>>> = Mutex::new((0..plan.len()).map(|_| None).collect());
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..crate::nproc() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= plan.len() {
                    break;
                }
                let reply = post(&addr, &fx.bench_json, &plan[i]);
                slots.lock().expect("no client panics holding the slots")[i] = Some(reply);
            });
        }
    });
    let wall = secs(t);
    let replies = slots
        .into_inner()
        .expect("clients joined")
        .into_iter()
        .map(|r| r.expect("every planned request was sent"))
        .collect();
    (wall, replies)
}

/// A harden response without its clock-dependent fields.
fn canonical(mut v: Json) -> String {
    if let Json::Obj(m) = &mut v {
        m.remove("cached");
        m.remove("wall_ms");
        if let Some(Json::Obj(metrics)) = m.get_mut("metrics") {
            metrics.remove("selection_ms");
        }
    }
    v.to_string()
}

/// The canonical response the handler builds from a flow's outputs.
fn expected(r: &Request, gates: usize, out: &replay::Replayed) -> String {
    let bitstream = out
        .bitstream
        .iter()
        .map(|(id, table)| {
            Json::obj([
                ("lut", Json::from(out.hybrid.node_name(*id))),
                ("inputs", Json::from(table.inputs())),
                ("mask", Json::from(format!("{:#x}", table.bits()).as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("algorithm", Json::from(r.algorithm.to_string().as_str())),
        ("seed", Json::from(r.seed)),
        ("gates", Json::from(gates)),
        ("stt_count", Json::from(out.stt_count)),
        (
            "metrics",
            Json::obj([
                ("perf_pct", Json::from(out.perf_pct)),
                ("power_pct", Json::from(out.power_pct)),
                ("leakage_pct", Json::from(out.leakage_pct)),
                ("area_pct", Json::from(out.area_pct)),
            ]),
        ),
        (
            "security",
            Json::obj([
                ("n_indep_log10", Json::from(out.security.n_indep.log10())),
                ("n_dep_log10", Json::from(out.security.n_dep.log10())),
                ("n_bf_log10", Json::from(out.security.n_bf.log10())),
            ]),
        ),
        ("bitstream", Json::Arr(bitstream)),
    ])
    .to_string()
}

/// Checks every reply; returns the digest of the cold responses in plan
/// order and the latencies split into (hit, cold).
fn check(
    fx: &Fixture,
    plan: &[Request],
    replies: &[Reply],
    layer: &mut PerLayer,
    report: &mut Report,
) -> (String, Vec<f64>, Vec<f64>) {
    let mut digest = Digest::new();
    let (mut hit_ms, mut cold_ms) = (Vec::new(), Vec::new());
    for (r, reply) in plan.iter().zip(replies) {
        if reply.status == 429 || reply.status == 504 {
            layer.add("serve.rejected", 1.0);
        }
        let parsed = Json::parse(&reply.body)
            .ok()
            .filter(|_| reply.status == 200);
        let cached = parsed
            .as_ref()
            .and_then(|v| v.get("cached"))
            .and_then(Json::as_bool);
        match (r.class, parsed) {
            (Class::Cold, Some(v)) => {
                cold_ms.push(reply.ms);
                report.check(cached == Some(false), || {
                    format!("cold seed {} was served from cache", r.seed)
                });
                digest.line(&canonical(v));
            }
            (Class::Hit(k), Some(v)) => {
                hit_ms.push(reply.ms);
                let same = canonical(v) == fx.warm[k].1;
                report.check(cached == Some(true) && same, || {
                    format!("hit on warm key {k} differs from its cold response")
                });
            }
            (_, None) => report.check(false, || {
                format!("request answered {}: {}", reply.status, reply.body)
            }),
        }
    }
    (digest.hex(), hit_ms, cold_ms)
}

/// Re-derives a fixed sample of cold responses with `Flow::run`.
fn sample_check(fx: &Fixture, plan: &[Request], replies: &[Reply], report: &mut Report) {
    let netlist =
        bench_format::parse(&fx.bench, "sample").expect("the generated bench text parses");
    let flow = Flow::new(Library::predictive_90nm());
    let cold: Vec<usize> = (0..plan.len())
        .filter(|&i| plan[i].class == Class::Cold)
        .collect();
    for n in 0..SAMPLE {
        let i = cold[n * cold.len() / SAMPLE];
        let r = &plan[i];
        let want = flow
            .run(&netlist, r.algorithm, r.seed)
            .map(|o| expected(r, netlist.gate_count(), &replay::Replayed::from_outcome(o)));
        let got = Json::parse(&replies[i].body).map(canonical);
        report.check(want.is_ok() && want.ok() == got.ok(), || {
            format!("cold seed {} differs from Flow::run", r.seed)
        });
    }
}

fn shutdown(fx: Fixture) {
    let _ = fx.server.shutdown();
}

pub fn run(args: &Args, work: &Path, report: &mut Report) {
    report.fact("circuit", PROFILE);
    report.fact("batch_requests", BATCH);
    report.fact("clients", crate::nproc());
    report.fact("server_workers", crate::nproc());
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for i in 0..SETUPS {
        if let Some(old) = fixture.take() {
            shutdown(old);
        }
        let t = Instant::now();
        fixture = Some(setup(args.seed, work.join(format!("cache-{i}")), report));
        setup_s.push(secs(t));
    }
    let fx = fixture.expect("at least one set-up");
    let warm_keys: Vec<Request> = fx.warm.iter().map(|w| w.0).collect();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC01D_5EED);
    let mut seen: HashSet<u64> = warm_keys.iter().map(|k| k.seed).collect();

    let mut layer = PerLayer::default();
    let run_start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let (mut hit_ms, mut cold_ms) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<Request>, String)> = None;
    let wanted = if args.trace { 1 } else { MIN_BATCHES };
    while passes.len() < wanted || (!args.trace && secs(run_start) < args.seconds) {
        let batch = plan(&mut rng, &mut seen, &warm_keys);
        let (wall, replies) = drive(&fx, &batch);
        let (digest, hits, colds) = check(&fx, &batch, &replies, &mut layer, report);
        passes.push(Pass {
            wall_s: wall,
            request_ms: replies.iter().map(|r| r.ms).collect(),
        });
        hit_ms.extend(hits);
        cold_ms.extend(colds);
        if first.is_none() {
            sample_check(&fx, &batch, &replies, report);
            first = Some((batch, digest));
        }
    }
    shutdown(fx);
    let (batch, digest) = first.expect("at least one batch");
    report.fact("digest", &digest);

    if !args.trace {
        EndToEnd { setup_s, passes }.report(report);
        return;
    }

    // Traced run: the same batch against a fresh server under the
    // collector, then a serial replay of its cold requests through the
    // layers' public functions.
    let untraced = passes[0].wall_s;
    let hits = hit_ms.len();
    layer.set(
        "serve.hit_ratio",
        hits as f64 / (hits + cold_ms.len()) as f64,
    );
    layer.set("serve.hit_p50_ms", median(&hit_ms));
    layer.set("serve.miss_p50_ms", median(&cold_ms));
    let tracer = Tracer::install();
    let fx = setup(args.seed, work.join("cache-traced"), report);
    let appends_before = tracer.counter("store.appends");
    let (wall, replies) = drive(&fx, &batch);
    let appends = tracer.counter("store.appends") - appends_before;
    let (traced_digest, _, _) = check(&fx, &batch, &replies, &mut PerLayer::default(), report);
    report.check(traced_digest == digest, || {
        "traced batch digest differs".to_owned()
    });
    let bench = fx.bench.clone();
    shutdown(fx);
    layer.set("store.appends", appends as f64);
    layer.set("obs.overhead_pct", (wall - untraced) / untraced * 100.0);

    let flow = Flow::new(Library::predictive_90nm());
    let before = tracer.snapshot();
    let mut replay_digest = Digest::new();
    for (op, r) in batch
        .iter()
        .enumerate()
        .filter(|(_, r)| r.class == Class::Cold)
    {
        let op = op as u64;
        let _req = span("bench.request", op);
        let base = {
            let _s = span("bench.netlist.parse", op);
            Arc::new(
                bench_format::parse(&bench, "request").expect("the generated bench text parses"),
            )
        };
        match replay::flow(&flow, &base, r.algorithm, r.seed, op) {
            Ok(out) => {
                layer.add("core.stt_luts", out.stt_count as f64);
                replay_digest.line(&expected(r, base.gate_count(), &out));
            }
            Err(e) => replay_digest.line(&e),
        }
    }
    layer.program_counters(&tracer, &before);
    let replay_digest = replay_digest.hex();
    report.fact("replay_digest", &replay_digest);
    report.check(replay_digest == digest, || {
        format!("replay digest {replay_digest} differs from {digest}")
    });
    let times = tracer.finish(&crate::trace_path(work, args));
    layer.report(&times, report);
}
