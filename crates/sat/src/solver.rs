use crate::lit::{Lit, Var};

/// Outcome of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (retrieve it with
    /// [`Solver::value`]).
    Sat,
    /// No satisfying assignment exists (under the given assumptions).
    Unsat,
}

/// Running counters, useful for attack-effort reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learnt_clauses: u64,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
}

const VAR_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;
const LUBY_UNIT: u64 = 64;
/// Search-loop iterations between two polls of a
/// [`Solver::solve_until`] stop callback.
const STOP_POLL_STEPS: u32 = 1024;

/// A CDCL SAT solver: two-literal watching, VSIDS, first-UIP learning,
/// Luby restarts, phase saving, incremental solving under assumptions.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// `watches[l.index()]` lists clauses currently watching literal `l`;
    /// they are inspected when `l` becomes false.
    watches: Vec<Vec<u32>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: OrderHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    model: Vec<Option<bool>>,
    ok: bool,
    stats: SolverStats,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem plus learnt clauses currently stored.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Solver counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assign.len());
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.model.push(None);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    fn value_lit(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|b| b ^ l.is_neg())
    }

    /// The model value of `v` after a [`SatResult::Sat`] answer.
    ///
    /// Returns `None` before the first satisfiable solve or for variables
    /// created *after* it. Within one solve the answer is total: the
    /// search only reports [`SatResult::Sat`] once the branching heap is
    /// exhausted, i.e. every variable that existed at solve time —
    /// including variables in no clause — carries `Some` value (the
    /// `sat_models_are_total` regression test pins this invariant, which
    /// DIP extraction in `sttlock-attack` relies on).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model[v.index()]
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is already in an unsatisfiable state
    /// (adding to a dead solver is permitted and ignored).
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        // Simplify: dedupe, drop false literals, detect tautology/satisfied.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "unallocated variable {l}"
            );
            match self.value_lit(l) {
                Some(true) => return true, // satisfied at level 0
                Some(false) => continue,   // false at level 0: drop literal
                None => {}
            }
            if c.contains(&!l) {
                return true; // tautology
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach(c);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>) -> u32 {
        let cref = self.clauses.len() as u32;
        self.watches[lits[0].index()].push(cref);
        self.watches[lits[1].index()].push(cref);
        self.clauses.push(Clause { lits });
        cref
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert!(self.value_lit(l).is_none());
        let v = l.var();
        self.assign[v.index()] = Some(!l.is_neg());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Unit propagation; returns a conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p; // literals equal to `false_lit` just became false
            let mut i = 0;
            'clauses: while i < self.watches[false_lit.index()].len() {
                let cref = self.watches[false_lit.index()][i];
                let ci = cref as usize;
                // Normalize: watched false literal at position 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], false_lit);
                let first = self.clauses[ci].lits[0];
                if self.value_lit(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.value_lit(cand) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[false_lit.index()].swap_remove(i);
                        self.watches[cand.index()].push(cref);
                        continue 'clauses;
                    }
                }
                // No replacement: clause is unit or conflicting.
                if self.value_lit(first) == Some(false) {
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > ACTIVITY_RESCALE {
            for a in self.activity.iter_mut() {
                *a *= 1.0 / ACTIVITY_RESCALE;
            }
            self.var_inc *= 1.0 / ACTIVITY_RESCALE;
        }
        self.heap.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var::from_index(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = conflict;
        let mut index = self.trail.len();

        loop {
            let ci = cref as usize;
            let start = usize::from(p.is_some()); // skip the asserting literal slot
            for k in start..self.clauses[ci].lits.len() {
                let q = self.clauses[ci].lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Pick the next seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            cref =
                self.reason[pl.var().index()].expect("non-decision implied literal has a reason");
            p = Some(pl);
            // Slot 0 of a reason clause is the implied literal itself; the
            // `start` offset above skips it next iteration.
            debug_assert_eq!(self.clauses[cref as usize].lits[0], pl);
        }
        learnt[0] = !p.expect("conflict at decision level > 0 yields a UIP");

        // Backjump level: second-highest level in the learnt clause.
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = k;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, backjump)
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for k in (lim..self.trail.len()).rev() {
            let v = self.trail[k].var();
            self.phase[v.index()] = self.assign[v.index()].unwrap_or(false);
            self.assign[v.index()] = None;
            self.reason[v.index()] = None;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v.index()].is_none() {
                return Some(Lit::new(v, !self.phase[v.index()]));
            }
        }
        None
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumptions. The solver remains usable
    /// afterwards: more clauses and queries may follow (incremental use).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_until(assumptions, &mut || false)
            .expect("a search that is never stopped runs to an answer")
    }

    /// [`Solver::solve_with`] that polls `stop` every 1024 iterations
    /// of the search loop (each a conflict or a decision) and gives up
    /// with `None` once it returns `true`. The search backtracks to
    /// level 0 and keeps its learnt clauses, so the solver stays
    /// usable; a later query starts over. Until `stop` fires, the
    /// search is step for step that of `solve_with`.
    pub fn solve_until(
        &mut self,
        assumptions: &[Lit],
        stop: &mut dyn FnMut() -> bool,
    ) -> Option<SatResult> {
        if !self.ok {
            return Some(SatResult::Unsat);
        }
        let mut conflicts_until_restart = luby(self.stats.restarts + 1) * LUBY_UNIT;
        let mut steps_until_poll = STOP_POLL_STEPS;
        loop {
            steps_until_poll -= 1;
            if steps_until_poll == 0 {
                if stop() {
                    self.cancel_until(0);
                    return None;
                }
                steps_until_poll = STOP_POLL_STEPS;
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.cancel_until(0);
                    return Some(SatResult::Unsat);
                }
                if (self.decision_level() as usize) <= assumptions.len() {
                    // Conflict inside the assumption prefix: unsat under
                    // these assumptions (the formula itself may be sat).
                    self.cancel_until(0);
                    return Some(SatResult::Unsat);
                }
                let (learnt, backjump) = self.analyze(conflict);
                self.cancel_until(backjump);
                // Backjumping may remove assumption decisions; the decide
                // branch below re-applies them (levels stay aligned
                // because lower assumption levels survive the backjump).
                if learnt.len() == 1 {
                    // Learnt clauses are consequences of the formula alone
                    // (assumptions surface as literals, not resolutions),
                    // so a unit learnt clause is a global fact.
                    debug_assert_eq!(backjump, 0);
                    match self.value_lit(learnt[0]) {
                        Some(false) => {
                            self.ok = false;
                            return Some(SatResult::Unsat);
                        }
                        Some(true) => {}
                        None => self.enqueue(learnt[0], None),
                    }
                } else {
                    self.stats.learnt_clauses += 1;
                    let cref = self.attach(learnt);
                    let l0 = self.clauses[cref as usize].lits[0];
                    debug_assert!(self.value_lit(l0).is_none());
                    self.enqueue(l0, Some(cref));
                }
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                self.var_inc /= VAR_DECAY;
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    conflicts_until_restart = luby(self.stats.restarts + 1) * LUBY_UNIT;
                    self.cancel_until((assumptions.len() as u32).min(self.decision_level()));
                }
                let dl = self.decision_level() as usize;
                let next = if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value_lit(a) {
                        Some(true) => {
                            // Already implied: open an empty level so the
                            // assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return Some(SatResult::Unsat);
                        }
                        None => Some(a),
                    }
                } else {
                    self.stats.decisions += 1;
                    self.pick_branch()
                };
                match next {
                    None => {
                        // Fully assigned: record the model.
                        self.model.clone_from(&self.assign);
                        self.cancel_until(0);
                        return Some(SatResult::Sat);
                    }
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing i.
    let mut k = 1u32;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    while (1u64 << (k - 1)) - 1 != i && i != (1u64 << k) - 1 {
        i -= (1u64 << (k - 1)) - 1;
        k = 1;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
    }
    1u64 << (k - 1)
}

/// Max-heap over variables keyed by activity, with index positions for
/// in-place bumping (MiniSat's order heap).
#[derive(Debug, Clone, Default)]
struct OrderHeap {
    heap: Vec<Var>,
    pos: Vec<i32>,
}

impl OrderHeap {
    fn ensure(&mut self, v: Var) {
        if self.pos.len() <= v.index() {
            self.pos.resize(v.index() + 1, -1);
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        self.ensure(v);
        if self.pos[v.index()] >= 0 {
            return;
        }
        self.pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top.index()] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        self.ensure(v);
        let p = self.pos[v.index()];
        if p >= 0 {
            self.sift_up(p as usize, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a as i32;
        self.pos[self.heap[b].index()] = b as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, i: usize, neg: bool) -> Lit {
        while s.num_vars() <= i {
            s.new_var();
        }
        Lit::new(Var::from_index(i), neg)
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a.var()), Some(false));
        assert_eq!(s.value(b.var()), Some(true));
    }

    #[test]
    fn sat_models_are_total() {
        // DIP extraction in the SAT attack widens model values straight
        // into oracle stimulus, so a Sat answer must assign *every*
        // variable — even ones that appear in no clause.
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        let _unconstrained = lit(&mut s, 2, false);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(), SatResult::Sat);
        for i in 0..s.num_vars() {
            assert!(
                s.value(Var::from_index(i)).is_some(),
                "variable {i} left unassigned in a Sat model"
            );
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        s.add_clause(&[a]);
        assert!(!s.add_clause(&[!a]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_requires_search() {
        // x1 ^ x2 ^ ... ^ x10 = 1 encoded clause-wise pairwise with
        // auxiliary variables; satisfiable.
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..10).map(|i| lit(&mut s, i, false)).collect();
        let mut acc = xs[0];
        for (k, &x) in xs.iter().enumerate().skip(1) {
            let o = lit(&mut s, 10 + k, false);
            // o = acc XOR x
            s.add_clause(&[!acc, !x, !o]);
            s.add_clause(&[acc, x, !o]);
            s.add_clause(&[acc, !x, o]);
            s.add_clause(&[!acc, x, o]);
            acc = o;
        }
        s.add_clause(&[acc]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Verify the model satisfies the parity constraint.
        let parity = xs
            .iter()
            .map(|l| s.value(l.var()).unwrap())
            .fold(false, |a, b| a ^ b);
        assert!(parity);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p = |s: &mut Solver, i: usize, j: usize| lit(s, i * 2 + j, false);
        for i in 0..3 {
            let a = p(&mut s, i, 0);
            let b = p(&mut s, i, 1);
            s.add_clause(&[a, b]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    let a = p(&mut s, i1, j);
                    let b = p(&mut s, i2, j);
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    /// `holes + 1` pigeons into `holes` holes: unsatisfiable, and hard
    /// enough at 6 holes that the search runs well past one poll.
    fn pigeonhole(holes: usize) -> Solver {
        let mut s = Solver::new();
        let p = |s: &mut Solver, i: usize, j: usize| lit(s, i * holes + j, false);
        for i in 0..=holes {
            let row: Vec<Lit> = (0..holes).map(|j| p(&mut s, i, j)).collect();
            s.add_clause(&row);
        }
        for j in 0..holes {
            for i1 in 0..=holes {
                for i2 in (i1 + 1)..=holes {
                    let a = p(&mut s, i1, j);
                    let b = p(&mut s, i2, j);
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        s
    }

    #[test]
    fn a_stopped_search_gives_up_and_leaves_the_solver_usable() {
        let mut s = pigeonhole(6);
        let mut polls = 0;
        let stopped = s.solve_until(&[], &mut || {
            polls += 1;
            true
        });
        assert_eq!(stopped, None);
        assert_eq!(polls, 1, "the first poll stops the search");
        assert!(s.stats().conflicts + s.stats().decisions >= 1023);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn an_unstopped_search_is_step_for_step_solve_with() {
        let mut plain = pigeonhole(6);
        let mut polled = pigeonhole(6);
        let mut polls = 0u64;
        let answer = polled.solve_until(&[], &mut || {
            polls += 1;
            false
        });
        assert_eq!(answer, Some(plain.solve_with(&[])));
        assert_eq!(polled.stats(), plain.stats());
        assert!(polls >= 1, "the search ran past one poll");
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve_with(&[!a, !b]), SatResult::Unsat);
        // The formula itself is still satisfiable afterwards.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with(&[!a]), SatResult::Sat);
        assert_eq!(s.value(b.var()), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[!b]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        assert!(s.add_clause(&[a, a, b])); // deduped
        assert!(s.add_clause(&[a, !a])); // tautology: dropped
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        s.solve();
        assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
    }

    #[test]
    fn random_3sat_models_verify() {
        // Deterministic pseudo-random 3-SAT near ratio 3.5 (satisfiable
        // with high probability); verify returned models against the
        // clauses by direct evaluation.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..5 {
            let nvars = 30;
            let nclauses = 105;
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            let mut cls: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = Var::from_index((next() % nvars as u64) as usize);
                    let l = Lit::new(v, next() % 2 == 0);
                    if !c.contains(&l) && !c.contains(&!l) {
                        c.push(l);
                    }
                }
                s.add_clause(&c);
                cls.push(c);
            }
            if s.solve() == SatResult::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(!l.is_neg())),
                        "round {round}: model violates clause"
                    );
                }
            }
        }
    }
}
