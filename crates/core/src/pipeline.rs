//! STAUB's bounded attempt (paper Fig. 3): infer → transform → solve →
//! lift and verify.
//!
//! [`bounded_attempt`] is the one bounded attempt of the crate: every
//! bounded lane of [`crate::sched`] and [`crate::portfolio::measure`] run
//! it. In debug builds it lints the translation and the bounded model
//! before the next stage runs ([`crate::check`]). [`Staub`] and
//! [`StaubConfig`] hold the analysis stages on their own and the
//! configuration of the sequential measurement.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use staub_lint::LintReport;
use staub_smtlib::{Model, Script};
use staub_solver::{Budget, BvSession, SatResult, Solver, SolverProfile, SolverStats};

use crate::absint::{self, InferredBounds};
use crate::check;
use crate::correspond::SortLimits;
use crate::transform::{transform, transform_with_widths, TransformError, Transformed, WidthMap};
use crate::verify::{lift_and_verify_report, VerifyReport};

/// How the translation width is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidthChoice {
    /// Abstract-interpretation-based inference (§4.2) — the paper's STAUB
    /// configuration.
    Inferred,
    /// A constraint-independent fixed width — the paper's 8-/16-bit
    /// ablation baselines.
    Fixed(u32),
}

/// Which lane (and at which width) produced a verdict: the winning lane
/// of a [`crate::BatchReport`], as batch JSONL, serve replies and
/// `staub stats` report it. Labels follow the scheduler's lane naming
/// (`staub/x2/zed`, `baseline/cove`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Stable label of the producing lane.
    pub label: String,
    /// Width multiplier relative to the base width (`1` = base, doubled
    /// per escalation/refinement; `0` for the original/unbounded path,
    /// which has no width).
    pub multiplier: u32,
    /// Deterministic solver steps consumed producing the verdict.
    pub steps: u64,
}

/// Configuration of [`Staub`]: the width strategy and limits its
/// translation uses, and the solver profile and budgets
/// [`crate::portfolio::measure`] runs both legs under.
#[derive(Debug, Clone)]
pub struct StaubConfig {
    /// Width selection strategy.
    pub width_choice: WidthChoice,
    /// Target-sort limits (max widths, two-regime cap).
    pub limits: SortLimits,
    /// Solver profile used for both the bounded and the original constraint.
    pub profile: SolverProfile,
    /// Wall-clock timeout per solver call.
    pub timeout: Duration,
    /// Deterministic step budget per solver call.
    pub steps: u64,
}

impl Default for StaubConfig {
    fn default() -> StaubConfig {
        StaubConfig {
            width_choice: WidthChoice::Inferred,
            limits: SortLimits::default(),
            profile: SolverProfile::Zed,
            timeout: Duration::from_secs(1),
            steps: 4_000_000,
        }
    }
}

/// Error from a solve. Transformation failures are *not* errors — the
/// bounded lanes are then simply not applicable; this type only covers
/// misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaubError {
    /// The script contains no assertions.
    EmptyScript,
}

impl fmt::Display for StaubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaubError::EmptyScript => f.write_str("script has no assertions"),
        }
    }
}

impl Error for StaubError {}

/// A STAUB configuration and its analysis stages on their own: bound
/// inference and the bounded translation (what `staub --emit` prints and
/// `staub lint` certifies). [`crate::portfolio::measure`] runs both legs
/// under it. Solving goes through the scheduler ([`crate::run_one_with`],
/// or a warm [`crate::Session`]).
///
/// ```
/// use staub_core::Staub;
/// use staub_smtlib::Script;
///
/// let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))")?;
/// let bounded = Staub::default().transform(&script)?;
/// assert!(bounded.bv_width.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Staub {
    config: StaubConfig,
}

impl Staub {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: StaubConfig) -> Staub {
        Staub { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &StaubConfig {
        &self.config
    }

    /// Runs bound inference only.
    pub fn infer(&self, script: &Script) -> absint::InferredBounds {
        absint::infer(script)
    }

    /// Runs inference and transformation only (no solving).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError`] when no bounded counterpart exists within
    /// the configured limits.
    pub fn transform(&self, script: &Script) -> Result<Transformed, TransformError> {
        let bounds = absint::infer(script);
        transform(
            script,
            &bounds,
            self.config.width_choice,
            &self.config.limits,
        )
    }
}

/// The bounded constraint one [`bounded_attempt`] solves.
pub(crate) enum Translation<'p, 'a> {
    /// Translate now: at `width` over `bounds`, with per-variable requests
    /// layered over it.
    At {
        /// The inference the translation selects sorts from.
        bounds: &'a InferredBounds,
        /// The (base) width choice.
        width: WidthChoice,
        /// Per-variable width requests (empty for none).
        widths: &'a WidthMap,
        /// Target-sort limits.
        limits: &'a SortLimits,
    },
    /// A translation made earlier (the scheduler's planned base transform)
    /// and the time it took, which stands as this attempt's `t_trans`.
    Planned(&'p Result<Transformed, TransformError>, Duration),
}

/// What one [`bounded_attempt`] produced.
pub(crate) struct BoundedAttempt<'p> {
    /// The bounded constraint; `None` when there is no bounded counterpart
    /// at this width. Borrowed when the translation was planned.
    pub transformed: Option<Cow<'p, Transformed>>,
    /// Solve result of the bounded constraint; `None` when there is no
    /// bounded counterpart to solve.
    pub result: Option<SatResult>,
    /// The lifted model, iff it verified exactly against the original.
    pub model: Option<Model>,
    /// What verification found, whenever a bounded model was verified.
    pub report: Option<VerifyReport>,
    /// Translation time (inference excluded: callers that inferred add it).
    pub t_trans: Duration,
    /// Bounded solving time.
    pub t_post: Duration,
    /// Lift and verification time.
    pub t_check: Duration,
    /// Solver-internal counters from the bounded solve.
    pub stats: SolverStats,
}

/// One bounded attempt (paper Fig. 3): translate, solve under the caller's
/// `budget`, then lift the bounded model and verify it exactly against the
/// original `script`. The solve runs on the warm `engine` when one is given
/// and the bounded constraint is pure boolean/bitvector, and on a fresh
/// `profile` solver otherwise.
///
/// # Panics
///
/// In debug builds, when the `staub-lint` certifying checker finds an
/// error in the translation (before it is solved) or in the bounded model
/// (before it is lifted): an invariant violation is a bug, and debug
/// builds fail loudly. Release builds compile both checks out.
pub(crate) fn bounded_attempt<'p>(
    script: &Script,
    translation: Translation<'p, '_>,
    engine: Option<&mut BvSession>,
    profile: SolverProfile,
    budget: &Budget,
) -> BoundedAttempt<'p> {
    let t0 = Instant::now();
    let (transformed, t_trans) = match translation {
        Translation::Planned(planned, t) => (planned.as_ref().ok().map(Cow::Borrowed), t),
        Translation::At {
            bounds,
            width,
            widths,
            limits,
        } => {
            let tf = transform_with_widths(script, bounds, width, limits, widths);
            (tf.ok().map(Cow::Owned), t0.elapsed())
        }
    };
    let mut attempt = BoundedAttempt {
        transformed,
        result: None,
        model: None,
        report: None,
        t_trans,
        t_post: Duration::ZERO,
        t_check: Duration::ZERO,
        stats: SolverStats::default(),
    };
    let Some(tf) = attempt.transformed.as_deref() else {
        return attempt;
    };
    debug_gate("transform", || check::check_transformed(script, tf));
    let t1 = Instant::now();
    let (result, stats) = match engine {
        Some(e) if staub_solver::is_bit_blastable(&tf.script) => e.check(&tf.script, budget),
        _ => {
            let outcome = Solver::new(profile).solve_with_budget(&tf.script, budget);
            (outcome.result, outcome.stats)
        }
    };
    attempt.t_post = t1.elapsed();
    attempt.stats = stats;
    if let SatResult::Sat(bounded_model) = &result {
        debug_gate("solve", || check::check_model(&tf.script, bounded_model));
        let t2 = Instant::now();
        let (model, report) = lift_and_verify_report(script, tf, bounded_model);
        attempt.t_check = t2.elapsed();
        attempt.model = model;
        attempt.report = Some(report);
    }
    attempt.result = Some(result);
    attempt
}

/// Lints `stage_name`'s output in debug builds; release builds skip the
/// lint entirely.
///
/// # Panics
///
/// On an error-severity finding.
fn debug_gate(stage_name: &str, lint: impl FnOnce() -> LintReport) {
    if cfg!(debug_assertions) {
        let report = lint();
        assert!(
            report.is_clean(),
            "staub-lint: `{stage_name}` output violates pipeline invariants:\n{report}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "staub-lint: `transform` output violates pipeline invariants")]
    fn debug_builds_gate_a_broken_translation() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let mut planned = Staub::default().transform(&script);
        planned.as_mut().unwrap().var_map.clear();
        let budget = Budget::new(Duration::from_secs(5), 1_000_000);
        let translation = Translation::Planned(&planned, Duration::ZERO);
        bounded_attempt(&script, translation, None, SolverProfile::Zed, &budget);
    }
}
