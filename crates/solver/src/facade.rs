//! The top-level [`Solver`]: sort-based engine dispatch and solver profiles.

use std::time::{Duration, Instant};

use staub_smtlib::{Script, Sort};

use crate::arith::icp::{solve_nonlinear, IcpConfig, SearchOrder, SplitStrategy};
use crate::arith::lazy::solve_lazy_linear;
use crate::arith::linear::{solve_linear_case_split, solve_linear_script};
use crate::budget::Budget;
use crate::bv::solve_bv;
use crate::fp::solve_fp;
use crate::result::{SatResult, SolverStats, UnknownReason};
use crate::sat::SatConfig;

/// Heuristic profile of the solver — the reproduction's stand-ins for the
/// paper's two measured solvers.
///
/// `Zed` (the Z3 column) and `Cove` (the CVC5 column) run the same engines
/// with different branching, restart, and box-splitting heuristics, so they
/// disagree about which instances are easy — just as distinct production
/// solvers do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverProfile {
    /// Conservative VSIDS decay, slow restarts, widest-first splitting.
    #[default]
    Zed,
    /// Aggressive decay, fast restarts, round-robin splitting, larger
    /// enumeration buckets.
    Cove,
}

impl SolverProfile {
    /// The SAT-core configuration of this profile.
    pub fn sat_config(self) -> SatConfig {
        match self {
            SolverProfile::Zed => SatConfig {
                var_decay: 0.80,
                restart_base: 64,
                restart_factor: 1.2,
                default_polarity: false,
                ..SatConfig::default()
            },
            SolverProfile::Cove => SatConfig {
                var_decay: 0.75,
                restart_base: 50,
                restart_factor: 1.4,
                default_polarity: false,
                ..SatConfig::default()
            },
        }
    }

    /// The nonlinear-engine configuration of this profile.
    pub fn icp_config(self) -> IcpConfig {
        match self {
            SolverProfile::Zed => IcpConfig {
                split: SplitStrategy::Widest,
                order: SearchOrder::DepthFirst,
                enumerate_cap: 32,
                min_width_log2: 16,
                initial_bound_log2: 4,
                enlargement_rounds: 10,
            },
            SolverProfile::Cove => IcpConfig {
                split: SplitStrategy::RoundRobin,
                order: SearchOrder::DepthFirst,
                enumerate_cap: 64,
                min_width_log2: 12,
                initial_bound_log2: 3,
                enlargement_rounds: 12,
            },
        }
    }

    /// Display name used in evaluation tables.
    pub fn name(self) -> &'static str {
        match self {
            SolverProfile::Zed => "Zed",
            SolverProfile::Cove => "Cove",
        }
    }
}

impl std::fmt::Display for SolverProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a solve call produced.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The satisfiability verdict (with model when `sat`).
    pub result: SatResult,
    /// Work counters.
    pub stats: SolverStats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// The SMT solver facade: dispatches a script to the engine for its logic.
///
/// # Examples
///
/// ```
/// use staub_smtlib::Script;
/// use staub_solver::{Solver, SolverProfile};
/// use std::time::Duration;
///
/// let script = Script::parse("\
/// (declare-fun x () Int)
/// (assert (= (+ x 3) 10))")?;
/// let solver = Solver::new(SolverProfile::Cove).with_timeout(Duration::from_secs(2));
/// let outcome = solver.solve(&script);
/// assert!(outcome.result.is_sat());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    profile: SolverProfile,
    timeout: Duration,
    steps: u64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new(SolverProfile::Zed)
    }
}

impl Solver {
    /// Creates a solver with the given profile and default budget
    /// (1 second / 4M steps).
    pub fn new(profile: SolverProfile) -> Solver {
        Solver {
            profile,
            timeout: Duration::from_secs(1),
            steps: 4_000_000,
        }
    }

    /// Sets the wall-clock timeout per `solve` call.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Solver {
        self.timeout = timeout;
        self
    }

    /// Sets the deterministic step budget per `solve` call.
    #[must_use]
    pub fn with_steps(mut self, steps: u64) -> Solver {
        self.steps = steps;
        self
    }

    /// The profile this solver runs.
    pub fn profile(&self) -> SolverProfile {
        self.profile
    }

    /// The configured timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Solves with a fresh budget from the configured limits.
    pub fn solve(&self, script: &Script) -> SolveOutcome {
        let budget = Budget::new(self.timeout, self.steps);
        self.solve_with_budget(script, &budget)
    }

    /// Solves under an externally managed budget (portfolio use).
    pub fn solve_with_budget(&self, script: &Script, budget: &Budget) -> SolveOutcome {
        let start = Instant::now();
        let mut stats = SolverStats::default();
        let result = self.dispatch(script, budget, &mut stats);
        SolveOutcome {
            result,
            stats,
            elapsed: start.elapsed(),
        }
    }

    fn dispatch(&self, script: &Script, budget: &Budget, stats: &mut SolverStats) -> SatResult {
        let store = script.store();
        let used = SortsUsed::of(script);
        match (used.int, used.real, used.bv, used.fp) {
            (false, false, false, false) => {
                // Pure boolean: the bit-blaster degenerates to Tseitin + SAT.
                let (r, s) = solve_bv(script, self.profile.sat_config(), budget);
                stats.merge(&s);
                r
            }
            (false, false, true, false) => {
                let (r, s) = solve_bv(script, self.profile.sat_config(), budget);
                stats.merge(&s);
                r
            }
            (true, false, false, false) | (false, true, false, false) => {
                let is_int = used.int;
                // Complete linear engines first (pure conjunctions, then
                // bounded DNF case-splitting); interval search is the
                // nonlinear fallback.
                match solve_linear_script(store, script.assertions(), is_int, budget, stats)
                    .or_else(|| {
                        solve_linear_case_split(store, script.assertions(), is_int, budget, stats)
                    })
                    .or_else(|| {
                        solve_lazy_linear(
                            store,
                            script.assertions(),
                            is_int,
                            self.profile.sat_config(),
                            budget,
                            stats,
                        )
                    }) {
                    Some(r) => r,
                    None => solve_nonlinear(
                        store,
                        script.assertions(),
                        is_int,
                        &self.profile.icp_config(),
                        budget,
                        stats,
                    ),
                }
            }
            (false, false, false, true) => {
                solve_fp(script, &self.profile.icp_config(), budget, stats)
            }
            _ => SatResult::Unknown(UnknownReason::Incomplete),
        }
    }
}

/// `true` when `script` uses only `Bool` and `(_ BitVec w)` sorts — exactly
/// the scripts [`Solver`] hands to the eager bit-blaster, and therefore the
/// scripts a [`crate::BvSession`] can check incrementally. Pure-boolean
/// scripts (no bitvectors at all) are bit-blastable too.
pub fn is_bit_blastable(script: &Script) -> bool {
    let used = SortsUsed::of(script);
    !(used.int || used.real || used.fp)
}

/// The theory sorts a script uses.
#[derive(Default)]
struct SortsUsed {
    int: bool,
    real: bool,
    bv: bool,
    fp: bool,
}

impl SortsUsed {
    /// The sorts of the declared symbols and of every term the assertions
    /// reach: constants can introduce sorts without declared variables.
    fn of(script: &Script) -> SortsUsed {
        let store = script.store();
        let mut used = SortsUsed::default();
        let mut note = |sort: Sort| match sort {
            Sort::Int => used.int = true,
            Sort::Real => used.real = true,
            Sort::BitVec(_) => used.bv = true,
            Sort::Float(..) => used.fp = true,
            Sort::Bool | Sort::RoundingMode => {}
        };
        for sym in store.symbols() {
            note(store.symbol_sort(sym));
        }
        let mut stack: Vec<_> = script.assertions().to_vec();
        let mut seen = vec![false; store.len()];
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            note(store.sort(t));
            stack.extend(store.term(t).args().iter().copied());
        }
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staub_smtlib::{evaluate, Value};

    fn solve(src: &str, profile: SolverProfile) -> SatResult {
        let script = Script::parse(src).unwrap();
        let solver = Solver::new(profile)
            .with_timeout(Duration::from_secs(10))
            .with_steps(2_000_000);
        let outcome = solver.solve(&script);
        if let SatResult::Sat(m) = &outcome.result {
            for &a in script.assertions() {
                assert_eq!(
                    evaluate(script.store(), a, m).unwrap(),
                    Value::Bool(true),
                    "model check for {src}"
                );
            }
        }
        outcome.result
    }

    #[test]
    fn dispatches_boolean() {
        for p in [SolverProfile::Zed, SolverProfile::Cove] {
            let r = solve(
                "(declare-fun p () Bool)(declare-fun q () Bool)(assert (xor p q))",
                p,
            );
            assert!(r.is_sat());
        }
    }

    #[test]
    fn dispatches_bitvectors() {
        let r = solve(
            "(declare-fun x () (_ BitVec 12))(assert (= (bvmul x x) (_ bv49 12)))",
            SolverProfile::Zed,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn dispatches_linear_integer() {
        let r = solve(
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (= (+ x y) 10))(assert (= (- x y) 4))",
            SolverProfile::Cove,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn dispatches_nonlinear_integer() {
        let r = solve(
            "(declare-fun x () Int)(assert (= (* x x) 169))",
            SolverProfile::Zed,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn dispatches_real() {
        let r = solve(
            "(declare-fun x () Real)(assert (< (* 2.0 x) 1.0))(assert (> x 0.25))",
            SolverProfile::Zed,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn dispatches_float() {
        let r = solve(
            "(declare-fun x () (_ FloatingPoint 8 24))
             (assert (fp.eq (fp.add RNE x x) (fp #b0 #b10000000 #b00000000000000000000000)))",
            SolverProfile::Zed,
        );
        assert!(r.is_sat()); // x = 1.0
    }

    #[test]
    fn mixed_sorts_are_unknown() {
        let r = solve(
            "(declare-fun x () Int)(declare-fun b () (_ BitVec 4))
             (assert (> x 0))(assert (= b (_ bv1 4)))",
            SolverProfile::Zed,
        );
        assert!(r.is_unknown());
    }

    #[test]
    fn timeout_respected() {
        let script = Script::parse(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
             (assert (= (+ (* x x x) (+ (* y y y) (* z z z))) 114))",
        )
        .unwrap();
        let solver = Solver::new(SolverProfile::Zed)
            .with_timeout(Duration::from_millis(50))
            .with_steps(u64::MAX);
        let start = Instant::now();
        let outcome = solver.solve(&script);
        assert!(outcome.result.is_unknown());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn profiles_solve_same_problems() {
        let src = "(declare-fun x () Int)(assert (= (* x x) 400))";
        assert!(solve(src, SolverProfile::Zed).is_sat());
        assert!(solve(src, SolverProfile::Cove).is_sat());
    }

    #[test]
    fn stats_populated() {
        let script =
            Script::parse("(declare-fun x () (_ BitVec 8))(assert (= (bvmul x x) (_ bv49 8)))")
                .unwrap();
        let outcome = Solver::new(SolverProfile::Zed).solve(&script);
        assert!(outcome.stats.clauses > 0);
        assert!(outcome.elapsed > Duration::ZERO);
    }
}
