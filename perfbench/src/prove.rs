//! `prove-attack`: the SAT layer. Set-up generates and hardens the seven
//! Table I profiles up to s1488 with all three algorithms (21 designs).
//! The timed phase then runs one operation at a time: a proof that each
//! hybrid equals its golden circuit, a refutation of each design with one
//! observable LUT bit flipped, and an oracle-guided SAT attack on each
//! foundry view. Equivalence beyond s1488 does not finish today, so only
//! the designs that finish are here.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sttlock_attack::sat_attack::{self, SatAttackConfig};
use sttlock_benchgen::profiles;
use sttlock_campaign::circuit_seed;
use sttlock_core::{Flow, SelectionAlgorithm};
use sttlock_netlist::{Netlist, TruthTable};
use sttlock_sat::equiv::{check_equivalence, EquivResult};
use sttlock_sim::Simulator;
use sttlock_techlib::Library;

use crate::measure::{
    secs, spaced, span, span_with, timed, EndToEnd, Pass, PerLayer, Report, Tracer,
};
use crate::replay::{self, Replayed};
use crate::Args;

/// The largest profile whose equivalence proof finishes.
const MAX_GATES: usize = 657;
/// Passes an untraced run makes at least, however short `--seconds` is:
/// each operation's reported time is its fastest across the passes, so
/// every operation needs a few chances to run between bursts of
/// interference.
const MIN_PASSES: usize = 6;
/// Set-ups timed in each round; the median of all of them is `setup_s`.
const SETUPS_PER_ROUND: usize = 3;
/// Random frames (64 patterns each) that must expose a flipped bit.
const OBSERVE_FRAMES: usize = 8;
/// Random frames a recovered key is verified on.
const VERIFY_FRAMES: usize = 16;

struct Design {
    name: String,
    golden: Netlist,
    hybrid: Netlist,
    foundry: Netlist,
    /// The hybrid with one LUT bit flipped, observable at the outputs.
    flipped: Option<Netlist>,
}

fn random_frame(rng: &mut StdRng, n_in: usize, n_state: usize) -> (Vec<u64>, Vec<u64>) {
    (
        (0..n_in).map(|_| rng.gen()).collect(),
        (0..n_state).map(|_| rng.gen()).collect(),
    )
}

/// Whether `a` and `b` disagree on the frame (`inputs`, `state`).
fn differ(a: &Netlist, b: &Netlist, inputs: &[u64], state: &[u64]) -> Result<bool, String> {
    let mut sa = Simulator::new(a).map_err(|e| e.to_string())?;
    let mut sb = Simulator::new(b).map_err(|e| e.to_string())?;
    sa.eval_frame(inputs, state).map_err(|e| e.to_string())?;
    sb.eval_frame(inputs, state).map_err(|e| e.to_string())?;
    Ok(sa.observation() != sb.observation())
}

/// The first of a seeded sequence of single-bit LUT flips that random
/// simulation shows to be observable.
fn observable_flip(
    golden: &Netlist,
    hybrid: &Netlist,
    bitstream: &[(sttlock_netlist::NodeId, TruthTable)],
    rng: &mut StdRng,
) -> Option<Netlist> {
    let n_state = Simulator::new(golden).ok()?.dff_ids().len();
    for _ in 0..64 {
        let (id, table) = bitstream[rng.gen_range(0..bitstream.len())];
        let bit = rng.gen_range(0..table.rows());
        let mut flipped = hybrid.clone();
        flipped.program(&[(
            id,
            TruthTable::new(table.inputs(), table.bits() ^ (1 << bit)),
        )]);
        for _ in 0..OBSERVE_FRAMES {
            let (inputs, state) = random_frame(rng, golden.inputs().len(), n_state);
            if differ(golden, &flipped, &inputs, &state) == Ok(true) {
                return Some(flipped);
            }
        }
    }
    None
}

/// Hardens one design with `Flow::run_shared` and picks its observable
/// flip. A traced set-up hardens through the flow replay instead, which
/// makes the same layer calls and so attributes the time to layers; the
/// traced run checks that both give the same designs.
fn harden(
    flow: &Flow,
    name: &str,
    golden: &Arc<Netlist>,
    algorithm: SelectionAlgorithm,
    op: usize,
    seed: u64,
    traced: bool,
) -> Result<Design, String> {
    let out = if traced {
        replay::flow(flow, golden, algorithm, crate::TABLE_SEED, op as u64)?
    } else {
        flow.run_shared(golden, algorithm, crate::TABLE_SEED)
            .map(Replayed::from_outcome)
            .map_err(|e| e.to_string())?
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF11B_B175 ^ op as u64);
    Ok(Design {
        name: name.to_owned(),
        flipped: observable_flip(golden, &out.hybrid, &out.bitstream, &mut rng),
        foundry: out.hybrid.redact().0,
        golden: Netlist::clone(golden),
        hybrid: out.hybrid,
    })
}

/// Generates the profiles up to s1488 and hardens each with every
/// algorithm.
fn setup(seed: u64, traced: bool, report: &mut Report) -> Vec<Design> {
    let flow = Flow::new(Library::predictive_90nm());
    let mut designs = Vec::new();
    let mut op = 0;
    for (i, p) in profiles::up_to(MAX_GATES).iter().enumerate() {
        let golden = {
            let _s = span("bench.benchgen.generate", i as u64);
            Arc::new(p.generate(&mut StdRng::seed_from_u64(circuit_seed(
                crate::TABLE_SEED,
                p.name,
            ))))
        };
        for algorithm in SelectionAlgorithm::ALL {
            let name = format!("{}/{}", p.name, algorithm);
            match harden(&flow, &name, &golden, algorithm, op, seed, traced) {
                Ok(d) => designs.push(d),
                Err(e) => report.check(false, || format!("hardening {name} failed: {e}")),
            }
            op += 1;
        }
    }
    designs
}

/// Per-batch totals.
#[derive(Default)]
struct Batch {
    wall_s: f64,
    /// Wall time of each operation, in order: per design its proof, its
    /// refutation, and its attack with the key verification.
    op_s: Vec<f64>,
    stt_luts: usize,
    dips: u64,
    conflicts: u64,
    propagations: u64,
}

/// Proves, refutes and attacks one design, checking every output; `op`
/// numbers its spans and seeds its key verification.
fn prove_design(d: &Design, op: u64, seed: u64, b: &mut Batch, report: &mut Report) {
    b.stt_luts += d.hybrid.lut_count();
    let t = Instant::now();
    let proof = {
        let _s = span_with("bench.sat.equiv", op, "verdict", "proved");
        check_equivalence(&d.golden, &d.hybrid)
    };
    b.op_s.push(secs(t));
    report.check(proof == Ok(EquivResult::Equivalent), || {
        format!("{}: proof gave {proof:?}", d.name)
    });

    if let Some(flipped) = &d.flipped {
        let t = Instant::now();
        let refutation = {
            let _s = span_with("bench.sat.equiv", op, "verdict", "refuted");
            check_equivalence(&d.golden, flipped)
        };
        b.op_s.push(secs(t));
        let witnessed = match &refutation {
            Ok(EquivResult::Different { inputs, state }) => {
                let word = |b: &bool| if *b { u64::MAX } else { 0 };
                let inputs: Vec<u64> = inputs.iter().map(word).collect();
                let state: Vec<u64> = state.iter().map(word).collect();
                differ(&d.golden, flipped, &inputs, &state) == Ok(true)
            }
            _ => false,
        };
        report.check(witnessed, || {
            format!("{}: refutation gave {refutation:?}", d.name)
        });
    }

    let t = Instant::now();
    let attack = {
        let _s = span("bench.attack.sat", op);
        sat_attack::run(&d.foundry, &d.hybrid, &SatAttackConfig::default())
    };
    let verified = match &attack {
        Ok(out) => {
            b.dips += out.dips as u64;
            b.conflicts += out.solver_stats.conflicts;
            b.propagations += out.solver_stats.propagations;
            out.bitstream.as_ref().is_some_and(|key| {
                let _s = span("bench.attack.verify", op);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x7E21_F1E5 ^ op);
                sat_attack::verify_bitstream(&d.foundry, &d.hybrid, key, VERIFY_FRAMES, &mut rng)
                    == Ok(0)
            })
        }
        Err(_) => false,
    };
    b.op_s.push(secs(t));
    report.check(verified, || {
        format!(
            "{}: attack key not recovered: {:?}",
            d.name,
            attack.as_ref().err()
        )
    });
}

/// One pass: every design's operations, one at a time.
fn run_batch(designs: &[Design], seed: u64, report: &mut Report) -> Batch {
    let mut b = Batch::default();
    let start = Instant::now();
    for (op, d) in designs.iter().enumerate() {
        prove_design(d, op as u64, seed, &mut b, report);
    }
    b.wall_s = secs(start);
    b
}

pub fn run(args: &Args, work: &Path, report: &mut Report) {
    // Set-ups are timed in rounds before every pass and once after the
    // last, so that their median spans the whole run.
    let mut setup_s = Vec::new();
    let mut setup_round = |report: &mut Report| {
        let mut designs = Vec::new();
        for _ in 0..SETUPS_PER_ROUND {
            designs = timed(&mut setup_s, || setup(args.seed, false, report));
        }
        designs
    };
    let run_start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    let mut designs = setup_round(report);
    loop {
        batches.push(run_batch(&designs, args.seed, report));
        if args.trace || (batches.len() >= MIN_PASSES && secs(run_start) >= args.seconds) {
            break;
        }
        designs = setup_round(report);
    }
    if !args.trace {
        setup_round(report);
    }
    report.fact("designs", designs.len());
    report.fact(
        "refutations",
        designs.iter().filter(|d| d.flipped.is_some()).count(),
    );

    if !args.trace {
        // Every pass runs the same operations on the same inputs, one at a
        // time. The fixed work's wall time is the sum of each operation's
        // fastest time across the passes: interference on a shared box
        // only ever slows an operation down, and it comes in bursts longer
        // than most operations (24 ms to 0.5 s) but shorter than a run.
        let fastest: f64 = (0..batches[0].op_s.len())
            .map(|i| {
                batches
                    .iter()
                    .map(|b| b.op_s[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        report.fact("ops_per_pass", batches[0].op_s.len());
        report.fact(
            "full_pass_walls_s",
            spaced(&batches.iter().map(|b| b.wall_s).collect::<Vec<_>>()),
        );
        EndToEnd {
            setup_s,
            passes: vec![Pass {
                wall_s: fastest,
                request_ms: Vec::new(),
            }],
        }
        .report(report);
        return;
    }

    let untraced = batches[0].wall_s;
    let tracer = Tracer::install();
    let traced_designs = setup(args.seed, true, report);
    report.check(
        traced_designs.len() == designs.len()
            && traced_designs
                .iter()
                .zip(designs.iter())
                .all(|(r, d)| r.hybrid == d.hybrid && r.flipped == d.flipped),
        || "the replayed set-up hardened differently from Flow::run_shared".to_owned(),
    );
    let traced = run_batch(&traced_designs, args.seed, report);
    let mut layer = PerLayer::default();
    layer.program_counters(&tracer, &[0; 4]);
    layer.set("core.stt_luts", traced.stt_luts as f64);
    layer.set("attack.dips", traced.dips as f64);
    layer.set("sat.conflicts", traced.conflicts as f64);
    layer.set("sat.propagations", traced.propagations as f64);
    layer.set(
        "obs.overhead_pct",
        (traced.wall_s - untraced) / untraced * 100.0,
    );
    let times = tracer.finish(&crate::trace_path(work, args));
    layer.report(&times, report);
}
