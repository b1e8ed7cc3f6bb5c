//! The end-to-end STAUB pipeline: infer → transform → solve → verify,
//! with fallback to the original constraint.
//!
//! [`bounded_attempt`] is the one bounded attempt of the crate (paper
//! Fig. 3: translate, solve, lift and verify). The sequential pipeline,
//! [`crate::portfolio::measure`] and every bounded lane of
//! [`crate::sched`] run it; only the pipeline attaches its stage metrics
//! and lint gates.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use staub_lint::LintReport;
use staub_smtlib::{Model, Script};
use staub_solver::{Budget, BvSession, SatResult, Solver, SolverProfile, SolverStats};

use crate::absint::{self, InferredBounds};
use crate::check::{self, CheckLevel};
use crate::correspond::SortLimits;
use crate::metrics::Metrics;
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

/// Which path produced the final answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// The transformed bounded constraint (verified).
    Bounded,
    /// The original unbounded constraint (fallback / baseline win).
    Original,
}

/// Which lane (and at which width) produced a verdict.
///
/// Attached to every [`StaubOutcome`] so batch JSONL and `staub stats`
/// report the producing lane directly instead of inferring it from log
/// order. Labels follow the scheduler's lane naming
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

impl Provenance {
    /// Provenance of a verified bounded answer at `multiplier` × base width.
    pub fn bounded(profile: SolverProfile, multiplier: u32, steps: u64) -> Provenance {
        Provenance {
            label: format!("staub/x{multiplier}/{}", profile.name().to_lowercase()),
            multiplier,
            steps,
        }
    }

    /// Provenance of an answer from the original (unbounded) constraint.
    pub fn original(profile: SolverProfile, steps: u64) -> Provenance {
        Provenance {
            label: format!("baseline/{}", profile.name().to_lowercase()),
            multiplier: 0,
            steps,
        }
    }

    /// Provenance of a no-answer outcome (no lane produced a verdict).
    pub fn none(steps: u64) -> Provenance {
        Provenance {
            label: "none".to_string(),
            multiplier: 0,
            steps,
        }
    }
}

/// Final result of a STAUB run.
#[derive(Debug, Clone)]
pub enum StaubOutcome {
    /// Satisfiable; the model satisfies the *original* constraint (when
    /// `via` is [`Via::Bounded`] it was verified by exact evaluation).
    Sat {
        /// A model of the original constraint.
        model: Model,
        /// Which path found it.
        via: Via,
        /// Which lane/width produced it.
        provenance: Provenance,
    },
    /// Unsatisfiable — proven on the original constraint (§4.4 case 1: an
    /// uncertified bounded `unsat` is never trusted). The scheduler's
    /// complete lane is the one exception to case 1: for pure-LIA scripts
    /// it may promote a bounded `unsat` at a certified a-priori width
    /// whose `L4xx` certificate lints clean (see `crate::absint::certify`).
    Unsat {
        /// Which lane produced the proof (an original-path lane, or a
        /// certified complete lane).
        provenance: Provenance,
    },
    /// Neither path answered within budget.
    Unknown {
        /// Steps burned before giving up.
        provenance: Provenance,
    },
}

impl StaubOutcome {
    /// The producing lane, whatever the verdict.
    pub fn provenance(&self) -> &Provenance {
        match self {
            StaubOutcome::Sat { provenance, .. }
            | StaubOutcome::Unsat { provenance }
            | StaubOutcome::Unknown { provenance } => provenance,
        }
    }

    /// `sat` / `unsat` / `unknown`.
    pub fn verdict_name(&self) -> &'static str {
        match self {
            StaubOutcome::Sat { .. } => "sat",
            StaubOutcome::Unsat { .. } => "unsat",
            StaubOutcome::Unknown { .. } => "unknown",
        }
    }
}

/// Configuration of the STAUB pipeline.
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
    /// When to run the `staub-lint` certifying checker between pipeline
    /// stages (see [`CheckLevel`]).
    pub check: CheckLevel,
}

impl Default for StaubConfig {
    fn default() -> StaubConfig {
        StaubConfig {
            width_choice: WidthChoice::Inferred,
            limits: SortLimits::default(),
            profile: SolverProfile::Zed,
            timeout: Duration::from_secs(1),
            steps: 4_000_000,
            check: CheckLevel::default(),
        }
    }
}

/// Error from a STAUB run. Transformation failures are *not* errors — the
/// pipeline silently reverts to the original constraint; this type only
/// covers misuse.
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

/// The STAUB pipeline configuration and stage plumbing.
///
/// One-shot solving goes through the incremental [`crate::Session`]
/// (`Session::run`, `Session::try_bounded`), which owns a `Staub` and
/// carries solver state across checks:
///
/// ```
/// use staub_core::{Session, StaubOutcome, Via};
/// use staub_smtlib::Script;
///
/// let script = Script::parse("\
/// (declare-fun x () Int)
/// (assert (= (* x x) 49))")?;
/// match Session::default().run(&script)? {
///     StaubOutcome::Sat { via, .. } => assert_eq!(via, Via::Bounded),
///     other => panic!("expected sat, got {other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Staub {
    config: StaubConfig,
    /// Observability registry; disabled by default so un-instrumented runs
    /// pay a single branch per stage.
    metrics: Arc<Metrics>,
}

impl Default for Staub {
    fn default() -> Staub {
        Staub::new(StaubConfig::default())
    }
}

impl Staub {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: StaubConfig) -> Staub {
        Staub {
            config,
            metrics: Arc::new(Metrics::disabled()),
        }
    }

    /// Attaches a metrics registry: subsequent runs record per-stage spans
    /// (`stage.absint`, `stage.transform`, `stage.solve`, `stage.verify`,
    /// `stage.lint`, `stage.original_solve`) and solver counters
    /// (`solver.bounded.*`, `solver.original.*`).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Staub {
        self.metrics = metrics;
        self
    }

    /// The attached metrics registry (disabled unless set).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
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

    /// The bounded path: infer, then one [`bounded_attempt`] at the
    /// configured width under this pipeline's stage metrics and lint
    /// gates, on the warm `engine` when one is given. Returns the lifted
    /// model iff the bounded constraint was sat and the model verified
    /// exactly against the original.
    pub(crate) fn try_bounded_with(
        &self,
        script: &Script,
        budget: &Budget,
        engine: Option<&mut BvSession>,
    ) -> Option<Model> {
        if budget.exhausted() {
            return None;
        }
        self.metrics.incr("pipeline.bounded_attempts", 1);
        let bounds = self.metrics.time("stage.absint", || absint::infer(script));
        let translation = Translation::At {
            bounds: &bounds,
            width: self.config.width_choice,
            widths: None,
            limits: &self.config.limits,
        };
        bounded_attempt(
            script,
            translation,
            engine,
            self.config.profile,
            budget,
            Some(self),
        )
        .model
    }

    /// The full pipeline with an optional warm solver engine (see
    /// [`Staub::try_bounded_with`]).
    pub(crate) fn run_with(
        &self,
        script: &Script,
        engine: Option<&mut BvSession>,
    ) -> Result<StaubOutcome, StaubError> {
        if script.assertions().is_empty() {
            return Err(StaubError::EmptyScript);
        }
        let budget = Budget::new(self.config.timeout, self.config.steps);
        if let Some(model) = self.try_bounded_with(script, &budget, engine) {
            return Ok(StaubOutcome::Sat {
                model,
                via: Via::Bounded,
                provenance: Provenance::bounded(self.config.profile, 1, budget.steps_used()),
            });
        }
        let bounded_steps = budget.steps_used();
        let solver = Solver::new(self.config.profile);
        let original_budget = Budget::new(self.config.timeout, self.config.steps);
        let outcome = self.metrics.time("stage.original_solve", || {
            solver.solve_with_budget(script, &original_budget)
        });
        self.metrics
            .record_solver("solver.original", &outcome.stats);
        let steps = original_budget.steps_used();
        Ok(match outcome.result {
            SatResult::Sat(model) => StaubOutcome::Sat {
                model,
                via: Via::Original,
                provenance: Provenance::original(self.config.profile, steps),
            },
            SatResult::Unsat => StaubOutcome::Unsat {
                provenance: Provenance::original(self.config.profile, steps),
            },
            SatResult::Unknown(_) => StaubOutcome::Unknown {
                provenance: Provenance::none(bounded_steps + steps),
            },
        })
    }
}

/// The bounded constraint one [`bounded_attempt`] solves.
pub(crate) enum Translation<'p, 'a> {
    /// Translate now: at `width` over `bounds`, with optional per-variable
    /// requests layered over it.
    At {
        /// The inference the translation selects sorts from.
        bounds: &'a InferredBounds,
        /// The (base) width choice.
        width: WidthChoice,
        /// Per-variable width requests, if any.
        widths: Option<&'a WidthMap>,
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
    /// Solve result of the bounded constraint; `None` when nothing was
    /// solved (no bounded counterpart, or a pipeline lint gate stopped the
    /// attempt before solving).
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
/// `profile` solver otherwise. With a `pipeline`, each stage is timed into
/// its `stage.*` metrics, solver counters go to `solver.bounded.*`, and
/// under [`StaubConfig::check`] the translation and the bounded model are
/// linted before the next stage runs.
pub(crate) fn bounded_attempt<'p>(
    script: &Script,
    translation: Translation<'p, '_>,
    engine: Option<&mut BvSession>,
    profile: SolverProfile,
    budget: &Budget,
    pipeline: Option<&Staub>,
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
            let tf = stage(pipeline, "stage.transform", || match widths {
                Some(widths) => transform_with_widths(script, bounds, width, limits, widths),
                None => transform(script, bounds, width, limits),
            });
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
    if !gate(pipeline, "transform", || {
        check::check_transformed(script, tf)
    }) {
        return attempt;
    }
    let t1 = Instant::now();
    let (result, stats) = stage(pipeline, "stage.solve", || match engine {
        Some(e) if staub_solver::is_bit_blastable(&tf.script) => e.check(&tf.script, budget),
        _ => {
            let outcome = Solver::new(profile).solve_with_budget(&tf.script, budget);
            (outcome.result, outcome.stats)
        }
    });
    attempt.t_post = t1.elapsed();
    if let Some(staub) = pipeline {
        staub.metrics.record_solver("solver.bounded", &stats);
    }
    attempt.stats = stats;
    if let SatResult::Sat(bounded_model) = &result {
        if gate(pipeline, "solve", || {
            check::check_model(&tf.script, bounded_model)
        }) {
            let t2 = Instant::now();
            let (model, report) = stage(pipeline, "stage.verify", || {
                lift_and_verify_report(script, tf, bounded_model)
            });
            attempt.t_check = t2.elapsed();
            if let Some(staub) = pipeline {
                let event = if model.is_some() {
                    "pipeline.verified"
                } else {
                    "pipeline.verify_failed"
                };
                staub.metrics.incr(event, 1);
            }
            attempt.model = model;
            attempt.report = Some(report);
        }
    }
    attempt.result = Some(result);
    attempt
}

/// Runs `f`, timed as `name` in the pipeline's metrics when there is one.
fn stage<T>(pipeline: Option<&Staub>, name: &str, f: impl FnOnce() -> T) -> T {
    match pipeline {
        Some(staub) => staub.metrics.time(name, f),
        None => f(),
    }
}

/// Whether the attempt may go on past `stage_name`: always, unless a
/// pipeline with active checks finds the `lint` report unclean.
///
/// # Panics
///
/// Under [`CheckLevel::Debug`], panics on error-severity findings —
/// invariant violations are pipeline bugs and debug builds fail loudly.
fn gate(pipeline: Option<&Staub>, stage_name: &str, lint: impl FnOnce() -> LintReport) -> bool {
    let Some(staub) = pipeline.filter(|s| s.config.check.active()) else {
        return true;
    };
    let report = staub.metrics.time("stage.lint", lint);
    if report.is_clean() {
        return true;
    }
    if staub.config.check == CheckLevel::Debug {
        panic!("staub-lint: `{stage_name}` output violates pipeline invariants:\n{report}");
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> StaubOutcome {
        let script = Script::parse(src).unwrap();
        let staub = Staub::new(StaubConfig {
            timeout: Duration::from_secs(5),
            ..Default::default()
        });
        staub.run_with(&script, None).unwrap()
    }

    #[test]
    fn sat_via_bounded_path() {
        let outcome = run(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
             (assert (= (+ (* x x x) (* y y y) (* z z z)) 855))",
        );
        match outcome {
            StaubOutcome::Sat { via, model, .. } => {
                assert_eq!(via, Via::Bounded);
                assert_eq!(model.len(), 3);
            }
            other => panic!("expected bounded sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_via_original() {
        let outcome = run("(declare-fun x () Int)
             (assert (>= x 0))(assert (<= x 3))(assert (= (* x x) 7))");
        assert!(matches!(outcome, StaubOutcome::Unsat { .. }));
    }

    #[test]
    fn linear_real_falls_back_gracefully() {
        // Strict real inequalities often verify (dyadic witness) or revert.
        let outcome = run("(declare-fun r () Real)(assert (> r 1.5))(assert (< r 2.5))");
        assert!(matches!(outcome, StaubOutcome::Sat { .. }));
    }

    #[test]
    fn empty_script_is_error() {
        let script = Script::parse("(declare-fun x () Int)").unwrap();
        assert_eq!(
            Staub::default().run_with(&script, None).unwrap_err(),
            StaubError::EmptyScript
        );
    }

    #[test]
    fn fixed_width_configuration() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let staub = Staub::new(StaubConfig {
            width_choice: WidthChoice::Fixed(16),
            timeout: Duration::from_secs(5),
            ..Default::default()
        });
        match staub.run_with(&script, None).unwrap() {
            StaubOutcome::Sat { via, .. } => assert_eq!(via, Via::Bounded),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn insufficient_fixed_width_reverts() {
        // Width 4 cannot represent 49: transformation fails, original path
        // answers.
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let staub = Staub::new(StaubConfig {
            width_choice: WidthChoice::Fixed(4),
            timeout: Duration::from_secs(5),
            ..Default::default()
        });
        match staub.run_with(&script, None).unwrap() {
            StaubOutcome::Sat { via, .. } => assert_eq!(via, Via::Original),
            other => panic!("expected sat via original, got {other:?}"),
        }
    }

    #[test]
    fn metrics_record_stage_spans_and_counters() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let metrics = Arc::new(Metrics::new());
        let staub = Staub::new(StaubConfig {
            timeout: Duration::from_secs(5),
            ..Default::default()
        })
        .with_metrics(Arc::clone(&metrics));
        staub.run_with(&script, None).unwrap();
        let snap = metrics.snapshot();
        for stage in ["stage.absint", "stage.transform", "stage.solve"] {
            assert!(snap.histograms.contains_key(stage), "missing {stage}");
        }
        assert_eq!(snap.counters.get("pipeline.verified"), Some(&1));
        assert!(
            snap.counters
                .keys()
                .any(|k| k.starts_with("solver.bounded.")),
            "bounded solver counters recorded"
        );
    }

    #[test]
    fn default_pipeline_records_nothing() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let staub = Staub::default();
        staub.run_with(&script, None).unwrap();
        assert!(staub.metrics().snapshot().is_empty());
    }

    #[test]
    fn bounded_unsat_never_trusted() {
        // x^2 = 2^40: the inferred width fits the constant; the bounded
        // constraint is sat (x = 2^20 fits in 42 bits), but pick a narrow
        // fixed width where the *guarded* bounded constraint is unsat and
        // confirm the pipeline still answers sat via the original.
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 256))").unwrap();
        let staub = Staub::new(StaubConfig {
            // Width 6: 256 does not fit signed 6 bits → transform error →
            // fallback; and with width 10 the guards allow x=16. Use 6.
            width_choice: WidthChoice::Fixed(6),
            timeout: Duration::from_secs(5),
            ..Default::default()
        });
        match staub.run_with(&script, None).unwrap() {
            StaubOutcome::Sat { via, .. } => assert_eq!(via, Via::Original),
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
