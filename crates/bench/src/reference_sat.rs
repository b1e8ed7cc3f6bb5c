//! The pre-refactor CDCL core, vendored verbatim as a frozen reference.
//!
//! This is the `Vec<Clause>`-based solver exactly as it stood before the
//! flat-arena/blocking-literal/brancher restructuring, kept here for two
//! jobs:
//!
//! * the differential proptests in `tests/sat_differential.rs` pin the new
//!   core's verdicts, assertion-level behaviour, and core soundness
//!   against it over random assert/push/pop/solve tapes;
//! * the `sat_bench` binary races both cores on the same corpus so
//!   `BENCH_sat.json` records the throughput trajectory relative to a
//!   fixed baseline rather than to whatever the current core happens to
//!   be.
//!
//! Do not "fix" or modernise this module — its value is that it does not
//! change. (Known quirks ride along deliberately, e.g. the `reduce_db`
//! activity wipe the live solver fixed.)
//! first-UIP clause learning, and geometric restarts.
//!
//! This is the propositional core under both the bit-blaster (`bv`)
//! and the lazy-SMT skeleton enumeration in `arith::lazy`. It is
//! incremental three ways:
//!
//! * **assert-solve-assert** — clauses may be added between `solve` calls
//!   (theory lemmas, blocking clauses);
//! * **assumptions** — [`SatSolver::solve_with_assumptions`] solves under a
//!   set of literals enqueued as pseudo-decisions. Because learned clauses
//!   are derived by resolution over *stored* clauses only, every clause
//!   learned under assumptions is a consequence of the clause database
//!   alone and stays valid for all later calls — this is what lets a
//!   solving session retain learned clauses, saved phases, and variable
//!   activities across `check()` calls with changing assertion sets;
//! * **push/pop assertion levels** — [`SatSolver::push`] marks the clause
//!   arena and the root trail; [`SatSolver::pop`] removes every clause
//!   (original *and* learned) added since the mark, undoes root-level
//!   assignments made since, and restores the unsat latch. Clauses below
//!   the mark — including clauses learned before the push — are retained.

use staub_solver::Budget;

/// A propositional variable (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// A positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// A negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal with an explicit sign (`true` = positive).
    pub fn new(v: Var, sign: bool) -> Lit {
        if sign {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is a positive literal.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The opposite literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Truth value of a variable or literal during search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Result of a propositional solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatSolverResult {
    /// A satisfying assignment was found (read it with [`SatSolver::value`]).
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The budget ran out.
    Unknown,
}

/// Branching/restart configuration — this is where the `Zed`/`Cove` solver
/// profiles diverge.
#[derive(Debug, Clone)]
pub struct SatConfig {
    /// Multiplicative VSIDS decay applied after each conflict.
    pub var_decay: f64,
    /// Conflicts before the first restart.
    pub restart_base: u64,
    /// Geometric restart multiplier.
    pub restart_factor: f64,
    /// Default polarity for decisions (phase saving overrides after flips).
    pub default_polarity: bool,
}

impl Default for SatConfig {
    fn default() -> SatConfig {
        SatConfig {
            var_decay: 0.95,
            restart_base: 100,
            restart_factor: 1.5,
            default_polarity: false,
        }
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    /// Learned clauses are eligible for deletion during DB reduction.
    learned: bool,
    /// Bumped when the clause participates in conflict analysis.
    activity: f64,
}

/// Watermarks taken by [`SatSolver::push`] and unwound by
/// [`SatSolver::pop`].
#[derive(Debug, Clone, Copy)]
struct PushLevel {
    /// Clause-arena length at push time; pop truncates back to it.
    clause_mark: usize,
    /// Root-trail length at push time; pop unassigns everything after it.
    trail_mark: usize,
    /// The unsat latch at push time; pop restores it (an empty clause
    /// derived *inside* the level dies with the level).
    saved_unsat: bool,
}

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use staub_bench::reference_sat::{Lit, SatConfig, SatSolver, SatSolverResult};
/// use staub_solver::Budget;
///
/// let mut solver = SatSolver::new(SatConfig::default());
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// solver.add_clause(&[Lit::neg(a)]);
/// assert_eq!(solver.solve(&Budget::unlimited()), SatSolverResult::Sat);
/// assert_eq!(solver.value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct SatSolver {
    config: SatConfig,
    clauses: Vec<Clause>,
    /// Watch lists indexed by literal: clauses watching that literal.
    watches: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    /// Saved phase per variable.
    phase: Vec<bool>,
    level: Vec<u32>,
    /// Reason clause index for propagated literals (`u32::MAX` = decision).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    clause_activity_inc: f64,
    /// Conflicts until the next learned-clause DB reduction.
    reduce_countdown: u64,
    /// `true` once an empty clause has been derived.
    unsat: bool,
    /// Decisions made (exposed in stats).
    pub decisions: u64,
    /// Conflicts seen (exposed in stats).
    pub conflicts: u64,
    /// Unit propagations performed (trail literals processed; exposed in
    /// stats).
    pub propagations: u64,
    /// Restarts performed (exposed in stats).
    pub restarts: u64,
    /// Indexed max-heap over variable activities (MiniSat-style order).
    order: VarOrder,
    /// Reusable scratch buffer for conflict analysis.
    seen: Vec<bool>,
    /// Open assertion levels ([`SatSolver::push`] / [`SatSolver::pop`]).
    levels: Vec<PushLevel>,
    /// Subset of the last call's assumptions responsible for its `Unsat`
    /// answer ([`SatSolver::assumption_core`]).
    assumption_core: Vec<Lit>,
}

/// An indexed binary max-heap of variables keyed by external activities.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `NOT_IN_HEAP`.
    pos: Vec<u32>,
}

const NOT_IN_HEAP: u32 = u32::MAX;

impl VarOrder {
    fn new_var(&mut self) {
        self.pos.push(NOT_IN_HEAP);
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != NOT_IN_HEAP
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    /// Restores heap order after `v`'s activity increased.
    fn bumped(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v as usize] as usize, act);
        }
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap nonempty");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[largest] as usize]
            {
                largest = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[largest] as usize]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }
}

const REASON_DECISION: u32 = u32::MAX;

impl SatSolver {
    /// Creates an empty solver.
    pub fn new(config: SatConfig) -> SatSolver {
        SatSolver {
            config,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            activity_inc: 1.0,
            clause_activity_inc: 1.0,
            reduce_countdown: 2048,
            unsat: false,
            decisions: 0,
            conflicts: 0,
            propagations: 0,
            restarts: 0,
            order: VarOrder::default(),
            seen: Vec::new(),
            levels: Vec::new(),
            assumption_core: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.phase.push(self.config.default_polarity);
        self.level.push(0);
        self.reason.push(REASON_DECISION);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.order.new_var();
        self.order.insert(v.0, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of stored clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Opens an assertion level: clauses added from now on (and anything
    /// learned from them) are removed again by the matching [`pop`].
    ///
    /// Variable activities and saved phases are *not* part of the level —
    /// they survive pops, which is what makes a re-check after a pop warm
    /// rather than cold.
    ///
    /// [`pop`]: SatSolver::pop
    pub fn push(&mut self) {
        self.backtrack_to(0);
        self.levels.push(PushLevel {
            clause_mark: self.clauses.len(),
            trail_mark: self.trail.len(),
            saved_unsat: self.unsat,
        });
    }

    /// Closes the innermost assertion level, removing every clause added
    /// since the matching [`push`] (original and learned alike — a clause
    /// learned inside the level may depend on level-local clauses, so
    /// deleting it is the sound over-approximation), undoing root-level
    /// assignments made since, and restoring the unsat latch. Returns
    /// `false` when no level is open.
    ///
    /// Soundness of retention: clauses *below* the mark were derived
    /// without reference to anything the pop removes (clause indices only
    /// grow, and DB reduction is suspended while levels are open), so the
    /// remaining database is exactly what the solver would hold had the
    /// level never been opened — plus better activities and phases.
    ///
    /// [`push`]: SatSolver::push
    pub fn pop(&mut self) -> bool {
        let Some(lvl) = self.levels.pop() else {
            return false;
        };
        self.backtrack_to(0);
        // Undo root assignments made since the push. Entries below the
        // mark keep their reasons: those reason clauses predate the push
        // (indices below the clause mark) and therefore survive.
        for lit in self.trail.drain(lvl.trail_mark..) {
            let v = lit.var().0 as usize;
            self.assign[v] = LBool::Undef;
            self.level[v] = 0;
            self.reason[v] = REASON_DECISION;
            self.order.insert(v as u32, &self.activity);
        }
        self.prop_head = self.trail.len();
        self.clauses.truncate(lvl.clause_mark);
        let cap = lvl.clause_mark as u32;
        for w in &mut self.watches {
            w.retain(|&ci| ci < cap);
        }
        self.unsat = lvl.saved_unsat;
        true
    }

    /// Number of open assertion levels.
    pub fn assertion_level(&self) -> usize {
        self.levels.len()
    }

    fn lit_value(&self, lit: Lit) -> LBool {
        match self.assign[lit.var().0 as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(lit.is_pos()),
            LBool::False => LBool::from_bool(!lit.is_pos()),
        }
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at the root level.
    ///
    /// The solver backtracks to the root level first, so this may be called
    /// between `solve` invocations (blocking clauses, theory lemmas).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        self.backtrack_to(0);
        // Simplify: drop false lits, detect satisfied/duplicate.
        let mut simplified: Vec<Lit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            debug_assert!(
                (lit.var().0 as usize) < self.num_vars(),
                "undeclared variable in clause"
            );
            match self.lit_value(lit) {
                LBool::True => return true, // already satisfied at root
                LBool::False => continue,
                LBool::Undef => {
                    if simplified.contains(&lit.negated()) {
                        return true; // tautology
                    }
                    if !simplified.contains(&lit) {
                        simplified.push(lit);
                    }
                }
            }
        }
        match simplified.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(simplified[0], REASON_DECISION);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[simplified[0].index()].push(idx);
                self.watches[simplified[1].index()].push(idx);
                self.clauses.push(Clause {
                    lits: simplified,
                    learned: false,
                    activity: 0.0,
                });
                true
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var().0 as usize;
        self.assign[v] = LBool::from_bool(lit.is_pos());
        self.phase[v] = lit.is_pos();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        // Field-level value reader so a clause can stay mutably borrowed.
        fn val(assign: &[LBool], lit: Lit) -> LBool {
            match assign[lit.var().0 as usize] {
                LBool::Undef => LBool::Undef,
                LBool::True => LBool::from_bool(lit.is_pos()),
                LBool::False => LBool::from_bool(!lit.is_pos()),
            }
        }
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            let false_lit = lit.negated();
            // Clauses watching `false_lit` must find a new watch or
            // propagate. In-place two-pointer compaction: `j` tracks how
            // many watchers stay in this list.
            let mut watchers = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut conflict = None;
            let mut j = 0usize;
            let mut i = 0usize;
            while i < watchers.len() {
                let ci = watchers[i];
                i += 1;
                let clause = &mut self.clauses[ci as usize];
                // Normalize: watched lits are positions 0 and 1.
                if clause.lits[0] == false_lit {
                    clause.lits.swap(0, 1);
                }
                debug_assert_eq!(clause.lits[1], false_lit);
                let first = clause.lits[0];
                if val(&self.assign, first) == LBool::True {
                    watchers[j] = ci;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut found = false;
                for k in 2..clause.lits.len() {
                    if val(&self.assign, clause.lits[k]) != LBool::False {
                        clause.lits.swap(1, k);
                        let new_watch = clause.lits[1];
                        self.watches[new_watch.index()].push(ci);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                watchers[j] = ci;
                j += 1;
                if val(&self.assign, first) == LBool::False {
                    conflict = Some(ci);
                    // Keep remaining watchers.
                    while i < watchers.len() {
                        watchers[j] = watchers[i];
                        j += 1;
                        i += 1;
                    }
                    break;
                }
                self.enqueue(first, ci);
            }
            watchers.truncate(j);
            self.watches[false_lit.index()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn backtrack_to(&mut self, level: usize) {
        if self.trail_lim.len() <= level {
            return;
        }
        let target = self.trail_lim[level];
        for lit in self.trail.drain(target..) {
            let v = lit.var().0 as usize;
            self.assign[v] = LBool::Undef;
            self.reason[v] = REASON_DECISION;
            self.order.insert(v as u32, &self.activity);
        }
        self.trail_lim.truncate(level);
        self.prop_head = self.trail.len();
    }

    fn bump_activity(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.activity_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
        self.order.bumped(v.0, &self.activity);
    }

    /// First-UIP conflict analysis. Returns (learned clause, backtrack level).
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, usize) {
        let current_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut seen = std::mem::take(&mut self.seen);
        let mut touched: Vec<u32> = Vec::with_capacity(32);
        let mut counter = 0usize;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let mut uip = None;

        loop {
            let clause = &mut self.clauses[clause_idx as usize];
            if clause.learned {
                clause.activity += self.clause_activity_inc;
                if clause.activity > 1e100 {
                    for c in &mut self.clauses {
                        c.activity *= 1e-100;
                    }
                    self.clause_activity_inc *= 1e-100;
                }
            }
            let clause = &self.clauses[clause_idx as usize];
            let skip_first = usize::from(uip.is_some());
            let lits: Vec<Lit> = clause.lits[skip_first..].to_vec();
            for lit in lits {
                let v = lit.var();
                if seen[v.0 as usize] || self.level[v.0 as usize] == 0 {
                    continue;
                }
                seen[v.0 as usize] = true;
                touched.push(v.0);
                self.bump_activity(v);
                if self.level[v.0 as usize] == current_level {
                    counter += 1;
                } else {
                    learned.push(lit);
                }
            }
            // Walk the trail backwards to the next seen literal at this level.
            loop {
                trail_pos -= 1;
                let lit = self.trail[trail_pos];
                if seen[lit.var().0 as usize] {
                    uip = Some(lit);
                    break;
                }
            }
            let lit = uip.expect("UIP found on trail");
            counter -= 1;
            if counter == 0 {
                learned[0] = lit.negated();
                break;
            }
            seen[lit.var().0 as usize] = false;
            clause_idx = self.reason[lit.var().0 as usize];
            debug_assert_ne!(clause_idx, REASON_DECISION, "non-UIP literal has a reason");
        }

        // Minimize, then compute the backtrack level over what remains.
        {
            let seen_ref = &seen;
            let this: &Self = self;
            let mut keep = Vec::with_capacity(learned.len());
            keep.push(learned[0]);
            for &lit in &learned[1..] {
                let reason = this.reason[lit.var().0 as usize];
                let redundant = reason != REASON_DECISION
                    && this.clauses[reason as usize].lits[1..].iter().all(|l| {
                        seen_ref[l.var().0 as usize] || this.level[l.var().0 as usize] == 0
                    });
                if !redundant {
                    keep.push(lit);
                }
            }
            learned = keep;
        }
        // Backtrack level = max level among non-UIP learned literals.
        let backtrack = learned[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize] as usize)
            .max()
            .unwrap_or(0);
        // Put a literal of the backtrack level in position 1 (watch invariant).
        if learned.len() > 1 {
            let pos = learned[1..]
                .iter()
                .position(|l| self.level[l.var().0 as usize] as usize == backtrack)
                .expect("some literal at backtrack level")
                + 1;
            learned.swap(1, pos);
        }
        for v in touched {
            seen[v as usize] = false;
        }
        self.seen = seen;
        (learned, backtrack)
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): given an
    /// assumption `a` whose negation the database (plus the already
    /// established assumptions) forces, walks the implication graph
    /// backwards from `¬a` and collects the pseudo-decisions — i.e. the
    /// earlier assumptions — it rests on. The returned set, together with
    /// `a` itself, is an unsatisfiable core over the assumption literals.
    ///
    /// Root-level (level 0) literals are assumption-independent facts and
    /// are skipped; in the assumption-establishment phase every decision at
    /// level ≥ 1 is an assumption, so `REASON_DECISION` at a positive level
    /// identifies core members exactly.
    fn analyze_final(&mut self, a: Lit) -> Vec<Lit> {
        let mut core = vec![a];
        let Some(&root) = self.trail_lim.first() else {
            // `¬a` is a root-level fact: unsat from `a` alone.
            return core;
        };
        let mut seen = std::mem::take(&mut self.seen);
        let mut touched: Vec<u32> = Vec::with_capacity(16);
        seen[a.var().0 as usize] = true;
        touched.push(a.var().0);
        for i in (root..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().0 as usize;
            if !seen[v] {
                continue;
            }
            let reason = self.reason[v];
            if reason == REASON_DECISION {
                if self.level[v] > 0 && lit != a {
                    core.push(lit);
                }
            } else {
                for &l in &self.clauses[reason as usize].lits {
                    let lv = l.var().0 as usize;
                    if self.level[lv] > 0 && !seen[lv] {
                        seen[lv] = true;
                        touched.push(lv as u32);
                    }
                }
            }
        }
        for v in touched {
            seen[v as usize] = false;
        }
        self.seen = seen;
        core
    }

    fn decide(&mut self) -> Option<Lit> {
        // Pop assigned entries until an unassigned variable surfaces.
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v as usize] == LBool::Undef {
                return Some(Lit::new(Var(v), self.phase[v as usize]));
            }
        }
        None
    }

    /// Deletes the less active half of the learned clauses, keeping binary
    /// clauses and clauses currently acting as propagation reasons. Watches
    /// and reason indices are rebuilt around the compacted arena.
    fn reduce_db(&mut self) {
        // Median activity over deletable learned clauses.
        let mut acts: Vec<f64> = self
            .clauses
            .iter()
            .filter(|c| c.learned && c.lits.len() > 2)
            .map(|c| c.activity)
            .collect();
        if acts.len() < 64 {
            return;
        }
        acts.sort_by(|a, b| a.partial_cmp(b).expect("activities are finite"));
        let threshold = acts[acts.len() / 2];
        // Clauses serving as reasons must survive.
        let mut is_reason = vec![false; self.clauses.len()];
        for &lit in &self.trail {
            let r = self.reason[lit.var().0 as usize];
            if r != REASON_DECISION {
                is_reason[r as usize] = true;
            }
        }
        let mut remap: Vec<u32> = vec![u32::MAX; self.clauses.len()];
        let mut kept: Vec<Clause> = Vec::with_capacity(self.clauses.len());
        for (i, clause) in self.clauses.drain(..).enumerate() {
            let delete = clause.learned
                && clause.lits.len() > 2
                && clause.activity <= threshold
                && !is_reason[i];
            if !delete {
                remap[i] = kept.len() as u32;
                kept.push(clause);
            }
        }
        self.clauses = kept;
        // Rebuild watches from scratch.
        for w in &mut self.watches {
            w.clear();
        }
        for (i, clause) in self.clauses.iter().enumerate() {
            self.watches[clause.lits[0].index()].push(i as u32);
            self.watches[clause.lits[1].index()].push(i as u32);
        }
        // Remap reasons.
        for r in &mut self.reason {
            if *r != REASON_DECISION {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, u32::MAX, "reason clause survived reduction");
            }
        }
        self.clause_activity_inc = 1.0;
        for c in &mut self.clauses {
            c.activity = 0.0;
        }
    }

    /// Runs the CDCL loop until an answer or budget exhaustion.
    pub fn solve(&mut self, budget: &Budget) -> SatSolverResult {
        self.solve_with_assumptions(&[], budget)
    }

    /// Runs the CDCL loop under `assumptions`, each enqueued as a
    /// pseudo-decision on its own decision level before ordinary VSIDS
    /// decisions begin.
    ///
    /// `Unsat` here means *unsatisfiable under the assumptions*: the
    /// solver does not latch its global unsat flag unless it derived a
    /// conflict at decision level zero (which is assumption-independent).
    /// Everything learned during the call was derived by resolution over
    /// stored clauses only — assumptions enter as decisions, never as
    /// resolvents — so the learned clauses remain valid for every later
    /// call, with or without the same assumptions. That property is the
    /// backbone of the incremental sessions: assertion roots are passed
    /// as assumptions, and the whole learned-clause database carries over
    /// across checks, widenings, and pops.
    pub fn solve_with_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: &Budget,
    ) -> SatSolverResult {
        self.assumption_core.clear();
        if self.unsat {
            return SatSolverResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatSolverResult::Unsat;
        }
        let mut restart_limit = self.config.restart_base as f64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return SatSolverResult::Unsat;
                }
                let (learned, backtrack) = self.analyze(conflict);
                self.backtrack_to(backtrack);
                if learned.len() == 1 {
                    self.enqueue(learned[0], REASON_DECISION);
                } else {
                    let idx = self.clauses.len() as u32;
                    self.watches[learned[0].index()].push(idx);
                    self.watches[learned[1].index()].push(idx);
                    let unit = learned[0];
                    self.clauses.push(Clause {
                        lits: learned,
                        learned: true,
                        activity: self.clause_activity_inc,
                    });
                    self.enqueue(unit, idx);
                }
                self.activity_inc /= self.config.var_decay;
                self.clause_activity_inc /= 0.999;
                if budget.consume(1 + self.clauses.len() as u64 / 1024) {
                    return SatSolverResult::Unknown;
                }
                self.reduce_countdown = self.reduce_countdown.saturating_sub(1);
                if conflicts_since_restart as f64 >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit *= self.config.restart_factor;
                    self.restarts += 1;
                    self.backtrack_to(0);
                    if self.reduce_countdown == 0 {
                        self.reduce_countdown = 2048;
                        // DB reduction compacts the arena and remaps
                        // clause indices, which would invalidate the
                        // push-level watermarks; suspend it while
                        // assertion levels are open.
                        if self.levels.is_empty() {
                            self.reduce_db();
                        }
                    }
                }
            } else if self.trail_lim.len() < assumptions.len() {
                // Establish (or re-establish, after a backtrack past it)
                // the next assumption as a pseudo-decision.
                let a = assumptions[self.trail_lim.len()];
                match self.lit_value(a) {
                    // Already implied: open a dummy level so decision
                    // level `k` always corresponds to assumption `k`.
                    LBool::True => self.trail_lim.push(self.trail.len()),
                    LBool::False => {
                        // The database (plus earlier assumptions) forces
                        // the negation: unsat under the assumptions, but
                        // not globally — leave the latch alone. Extract
                        // the responsible assumption subset before the
                        // implication graph is unwound.
                        self.assumption_core = self.analyze_final(a);
                        self.backtrack_to(0);
                        return SatSolverResult::Unsat;
                    }
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, REASON_DECISION);
                    }
                }
            } else {
                match self.decide() {
                    None => return SatSolverResult::Sat,
                    Some(lit) => {
                        self.decisions += 1;
                        if budget.consume(1) {
                            return SatSolverResult::Unknown;
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, REASON_DECISION);
                    }
                }
            }
        }
    }

    /// The value of `v` in the current assignment (meaningful after a `Sat`
    /// answer; `None` if unassigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v.0 as usize] {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// The subset of the last [`solve_with_assumptions`] call's assumption
    /// literals responsible for its `Unsat` answer.
    ///
    /// Empty when the last answer was not `Unsat`, or when the clause set
    /// is unsatisfiable *independent* of the assumptions (the global unsat
    /// latch) — an empty core therefore means "no assumption to blame".
    /// The core is not guaranteed minimal, but it never names an
    /// assumption the refutation did not touch.
    ///
    /// [`solve_with_assumptions`]: SatSolver::solve_with_assumptions
    pub fn assumption_core(&self) -> &[Lit] {
        &self.assumption_core
    }
}
