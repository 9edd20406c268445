//! Static (probabilistic) signal analysis.
//!
//! A fast, simulation-free estimate of per-net signal probabilities and
//! switching activities under the independence assumption: every primary
//! input is 1 with probability 0.5 and temporally uncorrelated. Flip-flop
//! state probabilities are solved by fixpoint iteration.
//!
//! The estimate feeds the power model when a full simulation is too
//! expensive, and cross-checks the dynamic estimate of
//! [`activity`](crate::activity) in tests.

use sttlock_netlist::{CircuitView, GateKind, Netlist, Node, NodeId};

/// Static per-net probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityReport {
    /// Probability that the net is 1 (indexed by [`NodeId::index`]).
    pub p_one: Vec<f64>,
    /// Fixpoint iterations performed.
    pub iterations: usize,
    /// Whether the sequential fixpoint reached the convergence
    /// threshold. `false` means the iteration budget ran out first and
    /// the state probabilities are a truncated estimate — previously
    /// this was silent; consumers that need trustworthy numbers (the
    /// power cross-checks) assert it.
    pub converged: bool,
}

impl ProbabilityReport {
    /// Signal probability of one net.
    pub fn of(&self, id: NodeId) -> f64 {
        self.p_one[id.index()]
    }

    /// Temporal-independence activity estimate for one net:
    /// `α = 2·p·(1−p)`.
    pub fn activity(&self, id: NodeId) -> f64 {
        let p = self.of(id);
        2.0 * p * (1.0 - p)
    }
}

/// Maximum fixpoint iterations for sequential probability propagation.
const MAX_ITERATIONS: usize = 64;
/// Convergence threshold on the largest state-probability change.
const EPSILON: f64 = 1e-6;

/// Computes static signal probabilities for every net.
///
/// Redacted LUTs are treated as 0.5 (unknown content, balanced table) —
/// the static engine is the one analysis that legitimately runs on the
/// foundry view.
pub fn signal_probabilities(netlist: &Netlist) -> ProbabilityReport {
    let view = CircuitView::new(netlist);
    let order = view.topo_order();
    let n = netlist.len();
    let mut p = vec![0.5f64; n];
    // Initialize non-combinational nodes.
    for (id, node) in netlist.iter() {
        match node {
            Node::Input => p[id.index()] = 0.5,
            Node::Const(v) => p[id.index()] = if *v { 1.0 } else { 0.0 },
            Node::Dff { .. } => p[id.index()] = 0.5,
            _ => {}
        }
    }

    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;
        for &id in order {
            p[id.index()] = eval_probability(netlist, &p, id);
        }
        // Update flip-flop state probabilities from their D inputs.
        let mut delta = 0.0f64;
        for (id, node) in netlist.iter() {
            if let Node::Dff { d } = node {
                let next = p[d.index()];
                delta = delta.max((next - p[id.index()]).abs());
                p[id.index()] = next;
            }
        }
        if delta < EPSILON {
            converged = true;
            break;
        }
    }
    ProbabilityReport {
        p_one: p,
        iterations,
        converged,
    }
}

fn eval_probability(netlist: &Netlist, p: &[f64], id: NodeId) -> f64 {
    match netlist.node(id) {
        Node::Gate { kind, fanin } => {
            let ps: Vec<f64> = fanin.iter().map(|f| p[f.index()]).collect();
            eval_gate_probability(*kind, &ps)
        }
        Node::Lut { fanin, config } => match config {
            None => 0.5,
            Some(table) => {
                // Sum over rows with output 1 of the row probability.
                let ps: Vec<f64> = fanin.iter().map(|f| p[f.index()]).collect();
                let mut total = 0.0;
                for row in 0..table.rows() {
                    if !table.eval(row) {
                        continue;
                    }
                    let mut rp = 1.0;
                    for (i, &pi) in ps.iter().enumerate() {
                        rp *= if (row >> i) & 1 == 1 { pi } else { 1.0 - pi };
                    }
                    total += rp;
                }
                total
            }
        },
        _ => p[id.index()],
    }
}

fn eval_gate_probability(kind: GateKind, ps: &[f64]) -> f64 {
    use GateKind::*;
    match kind {
        Buf => ps[0],
        Not => 1.0 - ps[0],
        And => ps.iter().product(),
        Nand => 1.0 - ps.iter().product::<f64>(),
        Or => 1.0 - ps.iter().map(|q| 1.0 - q).product::<f64>(),
        Nor => ps.iter().map(|q| 1.0 - q).product(),
        Xor => ps.iter().fold(0.0, |a, &b| a * (1.0 - b) + b * (1.0 - a)),
        Xnor => 1.0 - ps.iter().fold(0.0, |a, &b| a * (1.0 - b) + b * (1.0 - a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sttlock_netlist::{NetlistBuilder, TruthTable};

    #[test]
    fn gate_probabilities_match_theory() {
        assert!((eval_gate_probability(GateKind::And, &[0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((eval_gate_probability(GateKind::Or, &[0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!((eval_gate_probability(GateKind::Xor, &[0.5, 0.5]) - 0.5).abs() < 1e-12);
        assert!((eval_gate_probability(GateKind::Nand, &[0.25, 0.5]) - 0.875).abs() < 1e-12);
        assert!((eval_gate_probability(GateKind::Not, &[0.3]) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn combinational_propagation() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.gate("g1", GateKind::And, &["a", "c"]); // 0.25
        b.gate("g2", GateKind::Nor, &["g1", "a"]); // (1-0.25)(1-0.5) dependent — indep approx 0.375
        b.output("g2");
        let n = b.finish().unwrap();
        let rep = signal_probabilities(&n);
        assert!((rep.of(n.find("g1").unwrap()) - 0.25).abs() < 1e-9);
        assert!((rep.of(n.find("g2").unwrap()) - 0.375).abs() < 1e-9);
    }

    #[test]
    fn constants_are_exact() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.constant("one", true);
        b.gate("g", GateKind::And, &["a", "one"]);
        b.output("g");
        let n = b.finish().unwrap();
        let rep = signal_probabilities(&n);
        assert!((rep.of(n.find("one").unwrap()) - 1.0).abs() < 1e-12);
        assert!((rep.of(n.find("g").unwrap()) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sequential_fixpoint_converges() {
        // state' = state AND en: state probability decays to 0.
        let mut b = NetlistBuilder::new("m");
        b.input("en");
        b.gate("next", GateKind::And, &["state", "en"]);
        b.dff("state", "next");
        b.output("state");
        let n = b.finish().unwrap();
        let rep = signal_probabilities(&n);
        assert!(rep.of(n.find("state").unwrap()) < 1e-3);
        assert!(rep.iterations <= MAX_ITERATIONS);
        assert!(rep.converged, "decaying fixpoint must converge");
    }

    #[test]
    fn combinational_netlists_converge_immediately() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.gate("y", GateKind::Not, &["a"]);
        b.output("y");
        let n = b.finish().unwrap();
        let rep = signal_probabilities(&n);
        assert!(rep.converged);
        assert_eq!(rep.iterations, 1);
    }

    #[test]
    fn programmed_lut_uses_its_table() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.lut(
            "y",
            &["a", "c"],
            Some(TruthTable::from_gate(GateKind::Nor, 2)),
        );
        b.output("y");
        let n = b.finish().unwrap();
        let rep = signal_probabilities(&n);
        assert!((rep.of(n.find("y").unwrap()) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn redacted_lut_is_half() {
        let mut b = NetlistBuilder::new("m");
        b.input("a");
        b.input("c");
        b.lut("y", &["a", "c"], None);
        b.output("y");
        let n = b.finish().unwrap();
        let rep = signal_probabilities(&n);
        assert!((rep.of(n.find("y").unwrap()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn activity_is_2p1p() {
        let rep = ProbabilityReport {
            p_one: vec![0.25],
            iterations: 1,
            converged: true,
        };
        assert!((rep.activity(NodeId::from_index(0)) - 0.375).abs() < 1e-12);
    }
}
