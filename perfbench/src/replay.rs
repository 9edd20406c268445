//! The traced replay: one harden flow re-run through each layer's public
//! functions, in the order `Flow::run_budgeted` calls them, with one of
//! the benchmark's spans around every call. Its outputs must match the
//! untraced run byte for byte, which pins the replay to the real flow.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sttlock_attack::estimate::{security_estimate, SecurityEstimate};
use sttlock_core::{select, Flow, FlowOutcome, SelectionAlgorithm};
use sttlock_exec::Budget;
use sttlock_netlist::{CircuitView, Netlist, NodeId, TruthTable};
use sttlock_power::{analyze_area, analyze_power, OverheadReport};
use sttlock_sim::activity::estimate_activity_with;
use sttlock_sta::{analyze, analyze_with, performance_degradation_pct};

use crate::measure::{span, span_with};

/// What one replayed flow produced: the fields of a `FlowReport` that do
/// not depend on the clock, and the bitstream.
pub struct Replayed {
    pub hybrid: Netlist,
    pub bitstream: Vec<(NodeId, TruthTable)>,
    pub perf_pct: f64,
    pub power_pct: f64,
    pub leakage_pct: f64,
    pub area_pct: f64,
    pub stt_count: usize,
    pub security: SecurityEstimate,
}

impl Replayed {
    /// The same fields from a real `Flow::run`.
    pub fn from_outcome(o: FlowOutcome) -> Replayed {
        Replayed {
            perf_pct: o.report.performance_degradation_pct,
            power_pct: o.report.power_overhead_pct,
            leakage_pct: o.report.leakage_overhead_pct,
            area_pct: o.report.area_overhead_pct,
            stt_count: o.report.stt_count,
            security: o.report.security,
            bitstream: o.bitstream,
            hybrid: o.hybrid,
        }
    }
}

/// Replays `flow.run_budgeted(base, algorithm, seed, unbounded)`.
pub fn flow(
    flow: &Flow,
    base: &Arc<Netlist>,
    algorithm: SelectionAlgorithm,
    seed: u64,
    op: u64,
) -> Result<Replayed, String> {
    let lib = flow.library();
    let netlist: &Netlist = base;
    let mut rng = StdRng::seed_from_u64(seed);
    let view = {
        let _s = span("bench.netlist.view", op);
        CircuitView::new(netlist)
    };
    let base_timing = {
        let _s = span("bench.sta.analyze", op);
        analyze_with(&view, lib)
    };
    let mut activity_rng = StdRng::seed_from_u64(seed ^ 0x5EED_AC71);
    let activity = {
        let _s = span("bench.sim.activity", op);
        estimate_activity_with(&view, flow.activity_cycles, &mut activity_rng)
            .map_err(|e| format!("activity: {e}"))?
    };
    let (base_power, base_area) = {
        let _s = span("bench.power.analyze", op);
        (
            analyze_power(netlist, lib, &activity),
            analyze_area(netlist, lib),
        )
    };
    let selection = {
        let _s = span_with("bench.core.select", op, "algorithm", &algorithm.to_string());
        select::run_with_view_budgeted(
            &view,
            lib,
            algorithm,
            &flow.selection,
            &mut rng,
            &base_timing,
            &Budget::unbounded(),
        )
        .map_err(|e| format!("selection: {e}"))?
    };
    if selection.gates.is_empty() {
        return Err("selection produced no replaceable gate".to_owned());
    }
    let (replaced, hybrid) = {
        let _s = span("bench.core.replace", op);
        let replaced = sttlock_core::replace::apply_overlay(base.clone(), &selection);
        let hybrid = replaced.overlay.materialize();
        (replaced, hybrid)
    };
    let hybrid_timing = {
        let _s = span("bench.sta.analyze", op);
        analyze(&hybrid, lib)
    };
    let overhead = {
        let _s = span("bench.power.analyze", op);
        let hybrid_power = analyze_power(&hybrid, lib, &activity);
        let hybrid_area = analyze_area(&hybrid, lib);
        OverheadReport::between(&base_power, base_area, &hybrid_power, hybrid_area)
    };
    let security = {
        let _s = span("bench.attack.estimate", op);
        security_estimate(&hybrid)
    };
    Ok(Replayed {
        perf_pct: performance_degradation_pct(&base_timing, &hybrid_timing),
        power_pct: overhead.power_pct,
        leakage_pct: overhead.leakage_pct,
        area_pct: overhead.area_pct,
        stt_count: hybrid.lut_count(),
        security,
        bitstream: replaced.bitstream,
        hybrid,
    })
}
