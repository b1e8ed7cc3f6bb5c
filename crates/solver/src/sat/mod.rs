//! A CDCL SAT solver with two-watched-literal propagation (with blocking
//! literals), VSIDS branching, first-UIP clause learning, geometric
//! restarts, and clause-database inprocessing.
//!
//! This is the propositional core under both the bit-blaster ([`crate::bv`])
//! and the lazy-SMT skeleton enumeration in `arith::lazy`, and therefore
//! the throughput floor under every bounded lane the scheduler races. The
//! hot-path layout follows the MiniSat lineage:
//!
//! * clauses live inline in a flat `u32` arena (`arena::ClauseArena`) —
//!   no per-clause allocation, and a clause visit is one slice index;
//! * watch lists hold `(clause, blocking literal)` pairs, so the common
//!   "clause already satisfied" visit never touches clause memory;
//! * the decision heuristic is a standalone backtrackable module
//!   (`brancher::Brancher`);
//! * between restarts an inprocessing pass (`inprocess`) removes
//!   subsumed clauses and strengthens clauses by self-subsuming
//!   resolution, under the caller's step budget.
//!
//! It is incremental three ways:
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

mod arena;
mod brancher;
mod inprocess;

use arena::{ClauseArena, ClauseRef};
use brancher::Brancher;

use crate::budget::Budget;

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

    /// The raw code stored in the clause arena.
    fn code(self) -> u32 {
        self.0
    }

    /// Rebuilds a literal from its arena code.
    fn from_code(code: u32) -> Lit {
        Lit(code)
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
    /// Restarts between inprocessing passes; `0` disables inprocessing.
    pub inprocess_interval: u32,
    /// Conflicts between learned-clause DB reductions.
    pub reduce_base: u64,
}

impl Default for SatConfig {
    fn default() -> SatConfig {
        SatConfig {
            var_decay: 0.95,
            restart_base: 100,
            restart_factor: 1.5,
            default_polarity: false,
            inprocess_interval: 4,
            reduce_base: 2048,
        }
    }
}

/// A watch-list entry: the watching clause plus a *blocking literal* —
/// some other literal of the clause. If the blocker is true the clause is
/// satisfied and the visit ends without loading the clause body, which is
/// the overwhelmingly common case on long watch lists.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Watermarks taken by [`SatSolver::push`] and unwound by
/// [`SatSolver::pop`].
#[derive(Debug, Clone, Copy)]
struct PushLevel {
    /// Arena length (in words) at push time; pop truncates back to it.
    clause_mark: u32,
    /// Root-trail length at push time; pop unassigns everything after it.
    trail_mark: usize,
    /// The unsat latch at push time; pop restores it (an empty clause
    /// derived *inside* the level dies with the level).
    saved_unsat: bool,
}

const REASON_NONE: ClauseRef = ClauseRef::NONE;

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use staub_solver::sat::{Lit, SatConfig, SatSolver, SatSolverResult};
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
    /// Flat clause storage.
    arena: ClauseArena,
    /// Live clause refs, ascending by arena offset (creation order).
    refs: Vec<ClauseRef>,
    /// Watch lists indexed by literal.
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    /// Reason clause for propagated literals (`REASON_NONE` = decision).
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    /// VSIDS + phase saving, as its own backtrackable module.
    brancher: Brancher,
    clause_activity_inc: f64,
    /// Conflicts until the next learned-clause DB reduction.
    reduce_countdown: u64,
    /// Restarts since the last inprocessing pass.
    restarts_since_inprocess: u32,
    /// Conflict count at the last inprocessing pass (throttle).
    conflicts_at_inprocess: u64,
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
    /// Clauses removed by inprocessing subsumption (exposed in stats).
    pub subsumed: u64,
    /// Clauses strengthened by self-subsuming resolution (exposed in
    /// stats).
    pub strengthened: u64,
    /// Reusable scratch buffer for conflict analysis.
    seen: Vec<bool>,
    /// Open assertion levels ([`SatSolver::push`] / [`SatSolver::pop`]).
    levels: Vec<PushLevel>,
    /// Subset of the last call's assumptions responsible for its `Unsat`
    /// answer ([`SatSolver::assumption_core`]).
    assumption_core: Vec<Lit>,
    /// Scratch: the learned clause under construction (reused across
    /// conflicts so the analyze loop allocates nothing once warm).
    learned_buf: Vec<Lit>,
    /// Scratch: variables whose `seen` bit must be cleared.
    touched_buf: Vec<u32>,
    /// Scratch: minimized learned clause.
    minimize_buf: Vec<Lit>,
    /// Scratch: raw literal codes for arena allocation of learned clauses.
    code_buf: Vec<u32>,
    /// Watch lists that may hold watchers for clauses above the outermost
    /// open level's clause mark — the only lists a pop must repair.
    dirty_flags: Vec<bool>,
    dirty_lits: Vec<u32>,
    /// `levels.first().clause_mark`, or `u32::MAX` when no level is open
    /// (so the hot-path dirty check is a single always-false compare).
    outer_clause_mark: u32,
    /// Times an analyze scratch buffer had to grow (debug builds only;
    /// asserts the conflict path is allocation-free once warm).
    #[cfg(debug_assertions)]
    analyze_buffer_growths: u64,
}

/// Field-level literal value reader, usable while the arena is borrowed.
fn val(assign: &[LBool], lit: Lit) -> LBool {
    match assign[lit.var().0 as usize] {
        LBool::Undef => LBool::Undef,
        LBool::True => LBool::from_bool(lit.is_pos()),
        LBool::False => LBool::from_bool(!lit.is_pos()),
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new(config: SatConfig) -> SatSolver {
        let reduce_countdown = config.reduce_base;
        let brancher = Brancher::new(config.var_decay, config.default_polarity);
        SatSolver {
            config,
            arena: ClauseArena::new(),
            refs: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            brancher,
            clause_activity_inc: 1.0,
            reduce_countdown,
            restarts_since_inprocess: 0,
            conflicts_at_inprocess: 0,
            unsat: false,
            decisions: 0,
            conflicts: 0,
            propagations: 0,
            restarts: 0,
            subsumed: 0,
            strengthened: 0,
            seen: Vec::new(),
            levels: Vec::new(),
            assumption_core: Vec::new(),
            learned_buf: Vec::new(),
            touched_buf: Vec::new(),
            minimize_buf: Vec::new(),
            code_buf: Vec::new(),
            dirty_flags: Vec::new(),
            dirty_lits: Vec::new(),
            outer_clause_mark: u32::MAX,
            #[cfg(debug_assertions)]
            analyze_buffer_growths: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(REASON_NONE);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.dirty_flags.push(false);
        self.dirty_flags.push(false);
        self.seen.push(false);
        self.brancher.new_var();
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of stored clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.refs.len()
    }

    /// Bytes of backing store held by the flat clause arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Times an analyze scratch buffer grew (debug builds only): once the
    /// buffers are warm this must stop increasing — the conflict path
    /// performs no heap allocation.
    #[cfg(debug_assertions)]
    pub fn analyze_buffer_growths(&self) -> u64 {
        self.analyze_buffer_growths
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
        let clause_mark = self.arena.len_words();
        if self.levels.is_empty() {
            self.outer_clause_mark = clause_mark;
        }
        self.levels.push(PushLevel {
            clause_mark,
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
    /// without reference to anything the pop removes (arena offsets only
    /// grow, DB reduction/compaction is suspended while levels are open,
    /// and inprocessing only derives *backward* in arena order), so the
    /// remaining database is exactly what the solver would hold had the
    /// level never been opened — plus better activities and phases.
    ///
    /// Cost: only watch lists that ever *received* a watcher for a clause
    /// above the outermost open mark are scanned (tracked in a dirty set
    /// at watch-insertion time), so a pop scales with the level's own
    /// watch traffic, not with the whole watch database.
    ///
    /// [`push`]: SatSolver::push
    pub fn pop(&mut self) -> bool {
        let Some(lvl) = self.levels.pop() else {
            return false;
        };
        self.backtrack_to(0);
        // Undo root assignments made since the push. Entries below the
        // mark keep their reasons: those reason clauses predate the push
        // (offsets below the clause mark) and therefore survive.
        for lit in self.trail.drain(lvl.trail_mark..) {
            let v = lit.var().0 as usize;
            self.assign[v] = LBool::Undef;
            self.level[v] = 0;
            self.reason[v] = REASON_NONE;
            self.brancher.reinsert(v as u32);
        }
        self.prop_head = self.trail.len();
        let cap = lvl.clause_mark;
        self.arena.truncate(cap);
        let keep = self.refs.partition_point(|r| r.0 < cap);
        self.refs.truncate(keep);
        self.outer_clause_mark = self.levels.first().map_or(u32::MAX, |l| l.clause_mark);
        // Repair exactly the dirty watch lists; lists that only ever saw
        // below-mark clauses are untouched. A list still holding refs
        // above the *new* outermost mark stays dirty for the next pop.
        let dirty = std::mem::take(&mut self.dirty_lits);
        for &idx in &dirty {
            let list = &mut self.watches[idx as usize];
            list.retain(|w| w.cref.0 < cap);
            let still = self.outer_clause_mark != u32::MAX
                && list.iter().any(|w| w.cref.0 >= self.outer_clause_mark);
            self.dirty_flags[idx as usize] = still;
            if still {
                self.dirty_lits.push(idx);
            }
        }
        self.unsat = lvl.saved_unsat;
        true
    }

    /// Number of open assertion levels.
    pub fn assertion_level(&self) -> usize {
        self.levels.len()
    }

    fn lit_value(&self, lit: Lit) -> LBool {
        val(&self.assign, lit)
    }

    /// Appends a watcher, recording the list as dirty when the clause sits
    /// above the outermost open level's mark (one compare when no level is
    /// open: `outer_clause_mark` is `u32::MAX`).
    fn push_watch(&mut self, on: Lit, w: Watcher) {
        if w.cref.0 >= self.outer_clause_mark && !self.dirty_flags[on.index()] {
            self.dirty_flags[on.index()] = true;
            self.dirty_lits.push(on.index() as u32);
        }
        self.watches[on.index()].push(w);
    }

    /// Installs watches for positions 0 and 1, each blocking on the other.
    fn attach_clause(&mut self, cref: ClauseRef) {
        let lits = self.arena.lits(cref);
        let (l0, l1) = (Lit::from_code(lits[0]), Lit::from_code(lits[1]));
        self.push_watch(l0, Watcher { cref, blocker: l1 });
        self.push_watch(l1, Watcher { cref, blocker: l0 });
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
                self.enqueue(simplified[0], REASON_NONE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                let codes: Vec<u32> = simplified.iter().map(|l| l.code()).collect();
                let cref = self.arena.alloc(&codes, false);
                self.refs.push(cref);
                self.attach_clause(cref);
                true
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let v = lit.var();
        self.assign[v.0 as usize] = LBool::from_bool(lit.is_pos());
        self.brancher.set_phase(v, lit.is_pos());
        self.level[v.0 as usize] = self.trail_lim.len() as u32;
        self.reason[v.0 as usize] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns a conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        /// What a (non-blocked) clause visit concluded.
        enum Visit {
            /// First watched literal is true: keep, re-block on it.
            Satisfied(Lit),
            /// Watch moved to this literal; drop from the current list.
            Moved(Lit, Lit),
            /// No replacement: unit or conflicting on `first`.
            Stuck(Lit),
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
                let w = watchers[i];
                i += 1;
                // Blocking literal: the clause is satisfied — done without
                // touching clause memory.
                if val(&self.assign, w.blocker) == LBool::True {
                    watchers[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                let visit = {
                    let assign = &self.assign;
                    let lits = self.arena.lits_mut(cref);
                    // Normalize: watched lits are positions 0 and 1.
                    if lits[0] == false_lit.code() {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit.code());
                    let first = Lit::from_code(lits[0]);
                    if first != w.blocker && val(assign, first) == LBool::True {
                        Visit::Satisfied(first)
                    } else {
                        // Look for a new literal to watch.
                        let mut moved = None;
                        for k in 2..lits.len() {
                            if val(assign, Lit::from_code(lits[k])) != LBool::False {
                                lits.swap(1, k);
                                moved = Some(Lit::from_code(lits[1]));
                                break;
                            }
                        }
                        match moved {
                            Some(new_watch) => Visit::Moved(new_watch, first),
                            None => Visit::Stuck(first),
                        }
                    }
                };
                match visit {
                    Visit::Satisfied(first) => {
                        watchers[j] = Watcher {
                            cref,
                            blocker: first,
                        };
                        j += 1;
                    }
                    Visit::Moved(new_watch, first) => {
                        self.push_watch(
                            new_watch,
                            Watcher {
                                cref,
                                blocker: first,
                            },
                        );
                    }
                    Visit::Stuck(first) => {
                        // Clause is unit or conflicting.
                        watchers[j] = Watcher {
                            cref,
                            blocker: first,
                        };
                        j += 1;
                        if val(&self.assign, first) == LBool::False {
                            conflict = Some(cref);
                            // Keep remaining watchers.
                            while i < watchers.len() {
                                watchers[j] = watchers[i];
                                j += 1;
                                i += 1;
                            }
                            break;
                        }
                        self.enqueue(first, cref);
                    }
                }
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
            self.reason[v] = REASON_NONE;
            self.brancher.reinsert(v as u32);
        }
        self.trail_lim.truncate(level);
        self.prop_head = self.trail.len();
    }

    /// Bumps a learned clause's activity, rescaling all clause activities
    /// on overflow (MiniSat-style: activities keep their relative order —
    /// they are never zeroed).
    fn bump_clause(&mut self, cref: ClauseRef) {
        self.arena
            .bump_activity(cref, self.clause_activity_inc as f32);
        if self.arena.activity(cref) > 1e20 {
            for i in 0..self.refs.len() {
                let r = self.refs[i];
                self.arena.scale_activity(r, 1e-20);
            }
            self.clause_activity_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Fills `self.learned_buf` with the
    /// learned clause (UIP first, a backtrack-level literal second) and
    /// returns the backtrack level.
    ///
    /// The whole loop runs on reused scratch buffers and arena slices —
    /// no allocation happens on this path once the buffers are warm (the
    /// debug counter [`SatSolver::analyze_buffer_growths`] pins this).
    fn analyze(&mut self, conflict: ClauseRef) -> usize {
        #[cfg(debug_assertions)]
        let caps = (
            self.learned_buf.capacity(),
            self.touched_buf.capacity(),
            self.minimize_buf.capacity(),
        );
        let current_level = self.trail_lim.len() as u32;
        self.learned_buf.clear();
        self.learned_buf.push(Lit::from_code(0)); // placeholder for the UIP
        self.touched_buf.clear();
        let mut seen = std::mem::take(&mut self.seen);
        let mut counter = 0usize;
        let mut cref = conflict;
        let mut trail_pos = self.trail.len();
        let mut uip = None;

        loop {
            if self.arena.is_learned(cref) {
                self.bump_clause(cref);
            }
            let skip_first = usize::from(uip.is_some());
            let n = self.arena.len(cref);
            for k in skip_first..n {
                // Re-borrowing the arena per literal keeps the brancher
                // bump legal without copying the clause body out.
                let lit = Lit::from_code(self.arena.lits(cref)[k]);
                let v = lit.var();
                if seen[v.0 as usize] || self.level[v.0 as usize] == 0 {
                    continue;
                }
                seen[v.0 as usize] = true;
                self.touched_buf.push(v.0);
                self.brancher.bump(v);
                if self.level[v.0 as usize] == current_level {
                    counter += 1;
                } else {
                    self.learned_buf.push(lit);
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
                self.learned_buf[0] = lit.negated();
                break;
            }
            seen[lit.var().0 as usize] = false;
            cref = self.reason[lit.var().0 as usize];
            debug_assert_ne!(cref, REASON_NONE, "non-UIP literal has a reason");
        }

        // Minimize into the second scratch buffer, then swap.
        self.minimize_buf.clear();
        self.minimize_buf.push(self.learned_buf[0]);
        for idx in 1..self.learned_buf.len() {
            let lit = self.learned_buf[idx];
            let reason = self.reason[lit.var().0 as usize];
            let redundant = reason != REASON_NONE
                && self.arena.lits(reason)[1..].iter().all(|&code| {
                    let l = Lit::from_code(code);
                    seen[l.var().0 as usize] || self.level[l.var().0 as usize] == 0
                });
            if !redundant {
                self.minimize_buf.push(lit);
            }
        }
        std::mem::swap(&mut self.learned_buf, &mut self.minimize_buf);
        // Backtrack level = max level among non-UIP learned literals.
        let backtrack = self.learned_buf[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize] as usize)
            .max()
            .unwrap_or(0);
        // Put a literal of the backtrack level in position 1 (watch invariant).
        if self.learned_buf.len() > 1 {
            let pos = self.learned_buf[1..]
                .iter()
                .position(|l| self.level[l.var().0 as usize] as usize == backtrack)
                .expect("some literal at backtrack level")
                + 1;
            self.learned_buf.swap(1, pos);
        }
        for &v in &self.touched_buf {
            seen[v as usize] = false;
        }
        self.seen = seen;
        #[cfg(debug_assertions)]
        {
            if (
                self.learned_buf.capacity(),
                self.touched_buf.capacity(),
                self.minimize_buf.capacity(),
            ) != caps
            {
                self.analyze_buffer_growths += 1;
            }
        }
        backtrack
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
    /// level ≥ 1 is an assumption, so `REASON_NONE` at a positive level
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
            if reason == REASON_NONE {
                if self.level[v] > 0 && lit != a {
                    core.push(lit);
                }
            } else {
                for &code in self.arena.lits(reason) {
                    let lv = Lit::from_code(code).var().0 as usize;
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

    /// Rebuilds every watch list from the live clause set, normalizing
    /// watch positions against the current root assignment. Clauses that
    /// became unit are enqueued; a clause with no non-false literal sets
    /// the unsat latch. Used after any pass that deletes or strengthens
    /// clauses (reduction, inprocessing, compaction).
    fn rebuild_watches(&mut self) {
        debug_assert!(self.trail_lim.is_empty());
        for w in &mut self.watches {
            w.clear();
        }
        for idx in std::mem::take(&mut self.dirty_lits) {
            self.dirty_flags[idx as usize] = false;
        }
        for i in 0..self.refs.len() {
            let cref = self.refs[i];
            // Move up to two non-false literals into watch positions. A
            // strengthening pass may have shifted a root-false literal
            // into position 0/1, which would silently lose propagations.
            let nonfalse = {
                let assign = &self.assign;
                let lits = self.arena.lits_mut(cref);
                let mut found = 0usize;
                for k in 0..lits.len() {
                    if val(assign, Lit::from_code(lits[k])) != LBool::False {
                        lits.swap(found, k);
                        found += 1;
                        if found == 2 {
                            break;
                        }
                    }
                }
                found
            };
            self.attach_clause(cref);
            match nonfalse {
                // All literals false at root: empty clause.
                0 => self.unsat = true,
                // Exactly one non-false literal: unit under the root
                // trail (or already satisfied by that very literal).
                1 => {
                    let first = Lit::from_code(self.arena.lits(cref)[0]);
                    if val(&self.assign, first) == LBool::Undef {
                        self.enqueue(first, cref);
                    }
                }
                _ => {}
            }
        }
    }

    /// Deletes the lower half (by activity rank) of the long learned
    /// clauses. Binary clauses and clauses currently acting as propagation
    /// reasons always survive.
    ///
    /// Activities are **not** reset afterwards — they keep their relative
    /// order and are only rescaled on overflow ([`Self::bump_clause`]), so
    /// a clause that keeps participating in conflicts keeps outranking
    /// idle ones across consecutive reductions. Deleting by sorted rank
    /// (strictly the lower half) also means a uniform-activity database
    /// loses exactly half, never everything.
    fn reduce_db(&mut self) {
        debug_assert!(self.levels.is_empty());
        // Clauses serving as reasons must survive.
        let mut reason_refs: Vec<u32> = self
            .trail
            .iter()
            .filter_map(|l| {
                let r = self.reason[l.var().0 as usize];
                (r != REASON_NONE).then_some(r.0)
            })
            .collect();
        reason_refs.sort_unstable();
        let mut deletable: Vec<ClauseRef> = self
            .refs
            .iter()
            .copied()
            .filter(|&c| {
                self.arena.is_learned(c)
                    && self.arena.len(c) > 2
                    && reason_refs.binary_search(&c.0).is_err()
            })
            .collect();
        if deletable.len() < 64 {
            return;
        }
        deletable.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .expect("activities are finite")
        });
        for &c in &deletable[..deletable.len() / 2] {
            self.arena.delete(c);
        }
        self.finish_deletions();
    }

    /// Prunes tombstoned refs, compacts the arena when enough garbage
    /// accumulated (only with no open levels — offsets must not move under
    /// a watermark), and rebuilds the watch lists.
    fn finish_deletions(&mut self) {
        self.refs.retain(|&r| !self.arena.is_deleted(r));
        if self.levels.is_empty() {
            let live = self.arena.live_words(&self.refs);
            let total = self.arena.len_words();
            if total > 1024 && live < total - total / 4 {
                let map = self.arena.compact(&self.refs);
                for (i, r) in self.refs.iter_mut().enumerate() {
                    debug_assert_eq!(map[i].0, r.0);
                    r.0 = map[i].1;
                }
                for r in &mut self.reason {
                    if *r != REASON_NONE {
                        let at = map
                            .binary_search_by_key(&r.0, |p| p.0)
                            .expect("reason clause survived compaction");
                        r.0 = map[at].1;
                    }
                }
            }
        }
        self.rebuild_watches();
        if self.propagate().is_some() {
            self.unsat = true;
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
                let backtrack = self.analyze(conflict);
                self.backtrack_to(backtrack);
                #[cfg(debug_assertions)]
                let code_cap = self.code_buf.capacity();
                if self.learned_buf.len() == 1 {
                    let unit = self.learned_buf[0];
                    self.enqueue(unit, REASON_NONE);
                } else {
                    let unit = self.learned_buf[0];
                    // Copy codes through the reusable scratch so attaching
                    // a learned clause allocates nothing once warm.
                    self.code_buf.clear();
                    let (lb, cb) = (&self.learned_buf, &mut self.code_buf);
                    cb.extend(lb.iter().map(|l| l.code()));
                    let cref = self.arena.alloc(&self.code_buf, true);
                    self.arena
                        .set_activity(cref, self.clause_activity_inc as f32);
                    self.refs.push(cref);
                    self.attach_clause(cref);
                    self.enqueue(unit, cref);
                }
                #[cfg(debug_assertions)]
                if self.code_buf.capacity() != code_cap {
                    self.analyze_buffer_growths += 1;
                }
                self.brancher.on_conflict();
                self.clause_activity_inc /= 0.999;
                if budget.consume(1 + self.refs.len() as u64 / 1024) {
                    return SatSolverResult::Unknown;
                }
                self.reduce_countdown = self.reduce_countdown.saturating_sub(1);
                if conflicts_since_restart as f64 >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit *= self.config.restart_factor;
                    self.restarts += 1;
                    self.backtrack_to(0);
                    if self.reduce_countdown == 0 {
                        self.reduce_countdown = self.config.reduce_base;
                        // DB reduction compacts the arena and remaps
                        // clause refs, which would invalidate the
                        // push-level watermarks; suspend it while
                        // assertion levels are open.
                        if self.levels.is_empty() {
                            self.reduce_db();
                        }
                    }
                    self.restarts_since_inprocess += 1;
                    if self.config.inprocess_interval > 0
                        && self.restarts_since_inprocess >= self.config.inprocess_interval
                        && self.conflicts - self.conflicts_at_inprocess >= 512
                    {
                        self.restarts_since_inprocess = 0;
                        self.conflicts_at_inprocess = self.conflicts;
                        self.inprocess(budget);
                    }
                    if self.unsat {
                        return SatSolverResult::Unsat;
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
                        self.enqueue(a, REASON_NONE);
                    }
                }
            } else {
                match self.brancher.next_decision(&self.assign) {
                    None => return SatSolverResult::Sat,
                    Some(lit) => {
                        self.decisions += 1;
                        if budget.consume(1) {
                            return SatSolverResult::Unknown;
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, REASON_NONE);
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

    /// Test-only: the literals of every live clause, in creation order.
    #[cfg(test)]
    fn clause_dump(&self) -> Vec<Vec<Lit>> {
        self.refs
            .iter()
            .map(|&c| {
                self.arena
                    .lits(c)
                    .iter()
                    .map(|&x| Lit::from_code(x))
                    .collect()
            })
            .collect()
    }

    /// Test-only: injects a learned clause with a given activity, exactly
    /// as if it had been learned (attached, refs-listed, eligible for
    /// reduction).
    #[cfg(test)]
    fn inject_learned_for_test(&mut self, lits: &[Lit], activity: f32) {
        let codes: Vec<u32> = lits.iter().map(|l| l.code()).collect();
        let cref = self.arena.alloc(&codes, true);
        self.arena.set_activity(cref, activity);
        self.refs.push(cref);
        self.attach_clause(cref);
    }

    /// Test-only: forces a DB reduction.
    #[cfg(test)]
    fn force_reduce_for_test(&mut self) {
        self.reduce_db();
    }

    /// Test-only: forces an inprocessing pass.
    #[cfg(test)]
    fn force_inprocess_for_test(&mut self) {
        self.backtrack_to(0);
        self.inprocess(&Budget::unlimited());
    }
}

#[cfg(test)]
mod tests;
