//! Incremental solving sessions: the unified entrypoint of the pipeline.
//!
//! A [`Session`] owns the STAUB pipeline configuration *and* a persistent
//! solver engine ([`BvSession`]) that survives across `check()` calls.
//! Where a one-shot pipeline run spawns a fresh solver per call, a session
//! carries forward:
//!
//! * the bit-blaster's **variable map** (symbol name × bit → SAT variable)
//!   and **structural gate cache**, so re-encoding an unchanged or widened
//!   constraint reuses the existing circuit instead of rebuilding it;
//! * the SAT core's **learned clauses**, **saved phases**, and
//!   **variable activities** — all valid forever because the session only
//!   accumulates satisfiable-standalone Tseitin definitions at level 0 and
//!   passes assertion roots as per-check *assumptions*;
//! * the simplex tableau across added rows (for the arithmetic lanes of
//!   future checks that share structure).
//!
//! Every check is one bounded attempt at the configured width, then the
//! original constraint; a session never widens. Widening is the batch
//! scheduler's job ([`crate::sched`]): its warm escalation ladder and its
//! refine lane share one engine across rungs the same way a session shares
//! one across checks.
//!
//! # Incremental scripting
//!
//! Sessions also expose SMT-LIB-style assertion levels:
//!
//! ```
//! use staub_core::{Session, StaubOutcome};
//!
//! let mut session = Session::default();
//! session.assert_text("(declare-fun x () Int)(assert (>= x 0))(assert (<= x 10))")?;
//! session.assert_text("(assert (= (* x x) 49))")?;
//! assert_eq!(session.check()?.verdict_name(), "sat");
//! session.push();
//! session.assert_text("(assert (>= x 8))")?;
//! assert_eq!(session.check()?.verdict_name(), "unsat");
//! session.pop();
//! assert_eq!(session.check()?.verdict_name(), "sat");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use staub_smtlib::{Model, ParseError, Script};
use staub_solver::{Budget, BvSession};

use crate::metrics::Metrics;
use crate::pipeline::{Staub, StaubConfig, StaubError, StaubOutcome};

/// An incremental solving session: pipeline configuration, assertion
/// stack, and a warm solver engine shared by every check.
///
/// This is the intended public entrypoint for solving.
pub struct Session {
    staub: Staub,
    engine: BvSession,
    /// Assertion frames; `frames[0]` is the base level and is never popped.
    /// Each frame holds SMT-LIB source fragments in assertion order.
    frames: Vec<Vec<String>>,
    /// Parse cache for the current combined source.
    cached: Option<(String, Script)>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new(StaubConfig::default())
    }
}

impl Session {
    /// Creates a session with the given pipeline configuration.
    pub fn new(config: StaubConfig) -> Session {
        let engine = BvSession::new(config.profile.sat_config());
        Session {
            staub: Staub::new(config),
            engine,
            frames: vec![Vec::new()],
            cached: None,
        }
    }

    /// Attaches a metrics registry (see `Staub::with_metrics`).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Session {
        self.staub = self.staub.with_metrics(metrics);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &StaubConfig {
        self.staub.config()
    }

    /// The attached metrics registry (disabled unless set).
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.staub.metrics()
    }

    /// The persistent solver engine (checks performed, gate-cache hits —
    /// useful for warm-start diagnostics).
    pub fn engine(&self) -> &BvSession {
        &self.engine
    }

    // -- assertion stack ---------------------------------------------------

    /// Opens a new assertion level (SMT-LIB `(push 1)`).
    pub fn push(&mut self) {
        self.frames.push(Vec::new());
    }

    /// Discards the top assertion level (SMT-LIB `(pop 1)`). Returns
    /// `false` when only the base level remains (nothing to pop).
    pub fn pop(&mut self) -> bool {
        if self.frames.len() == 1 {
            return false;
        }
        self.frames.pop();
        self.cached = None;
        true
    }

    /// The current assertion level (0 = base).
    pub fn assertion_level(&self) -> usize {
        self.frames.len() - 1
    }

    /// The parsed combination of the current assertion stack. Parses on
    /// demand (cached while the stack is unchanged); `None` when nothing
    /// has been asserted. Models returned by [`Session::check`] are keyed
    /// by this script's symbol store.
    pub fn script(&mut self) -> Option<&Script> {
        if self.frames.iter().all(Vec::is_empty) {
            return None;
        }
        self.ensure_parsed();
        self.cached.as_ref().map(|(_, script)| script)
    }

    /// Adds SMT-LIB source (declarations and/or assertions) to the current
    /// assertion level. The *combined* script is validated eagerly; on
    /// error the fragment is not retained.
    ///
    /// # Errors
    ///
    /// Returns the parse error of the combined script.
    pub fn assert_text(&mut self, src: &str) -> Result<(), ParseError> {
        let frame = self.frames.last_mut().expect("base frame always exists");
        frame.push(src.to_string());
        let combined = combine(&self.frames);
        match Script::parse(&combined) {
            Ok(script) => {
                self.cached = Some((combined, script));
                Ok(())
            }
            Err(err) => {
                self.frames
                    .last_mut()
                    .expect("base frame always exists")
                    .pop();
                Err(err)
            }
        }
    }

    /// Parses the combined assertion stack (from cache when unchanged).
    fn ensure_parsed(&mut self) {
        let combined = combine(&self.frames);
        if self
            .cached
            .as_ref()
            .is_none_or(|(cached_src, _)| *cached_src != combined)
        {
            // Every fragment was validated on entry as part of a combined
            // parse, and popping frames only removes suffixes, so the
            // remaining source is a previously-validated state.
            let script = Script::parse(&combined).expect("validated assertion stack parses");
            self.cached = Some((combined, script));
        }
    }

    // -- checks ------------------------------------------------------------

    /// Checks the current assertion stack at the configured base width,
    /// warm-starting from all previous checks.
    ///
    /// # Errors
    ///
    /// Returns [`StaubError::EmptyScript`] when no assertions are active.
    pub fn check(&mut self) -> Result<StaubOutcome, StaubError> {
        self.ensure_parsed();
        let (_, script) = self.cached.as_ref().expect("ensure_parsed populated cache");
        self.staub.run_with(script, Some(&mut self.engine))
    }

    // -- one-shot entrypoints ----------------------------------------------

    /// Runs the full pipeline on `script` (bounded path, then the original
    /// constraint), warm-starting the bounded solve from previous calls.
    /// The session's assertion stack is not consulted.
    ///
    /// # Errors
    ///
    /// Returns [`StaubError::EmptyScript`] for scripts without assertions.
    pub fn run(&mut self, script: &Script) -> Result<StaubOutcome, StaubError> {
        self.staub.run_with(script, Some(&mut self.engine))
    }

    /// Attempts the bounded path only on `script`: transform, warm solve,
    /// verify. Returns `Some(model)` iff a bounded constraint is
    /// satisfiable *and* its model verifies against the original.
    pub fn try_bounded(&mut self, script: &Script, budget: &Budget) -> Option<Model> {
        self.staub
            .try_bounded_with(script, budget, Some(&mut self.engine))
    }
}

/// Concatenates the assertion frames into one SMT-LIB source.
fn combine(frames: &[Vec<String>]) -> String {
    let mut out = String::new();
    for frame in frames {
        for fragment in frame {
            out.push_str(fragment);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn config() -> StaubConfig {
        StaubConfig {
            timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }

    #[test]
    fn push_pop_and_reassert() {
        let mut session = Session::new(config());
        session
            .assert_text("(declare-fun x () Int)(assert (>= x 0))(assert (<= x 10))")
            .unwrap();
        session.assert_text("(assert (= (* x x) 49))").unwrap();
        assert!(matches!(session.check().unwrap(), StaubOutcome::Sat { .. }));
        session.push();
        session.assert_text("(assert (>= x 8))").unwrap();
        assert!(matches!(
            session.check().unwrap(),
            StaubOutcome::Unsat { .. }
        ));
        assert!(session.pop());
        assert!(matches!(session.check().unwrap(), StaubOutcome::Sat { .. }));
        // Pop-then-re-assert: a *different* constraint on the same symbol.
        session.push();
        session.assert_text("(assert (= x 7))").unwrap();
        match session.check().unwrap() {
            StaubOutcome::Sat { model, .. } => assert_eq!(model.len(), 1),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn pop_below_base_is_refused() {
        let mut session = Session::default();
        assert_eq!(session.assertion_level(), 0);
        assert!(!session.pop());
        session.push();
        assert_eq!(session.assertion_level(), 1);
        assert!(session.pop());
        assert!(!session.pop());
    }

    #[test]
    fn parse_error_does_not_corrupt_stack() {
        let mut session = Session::default();
        session.assert_text("(declare-fun x () Int)").unwrap();
        assert!(session.assert_text("(assert (= x").is_err());
        // The bad fragment was dropped: a valid follow-up still works.
        session.assert_text("(assert (= x 3))").unwrap();
        assert!(matches!(session.check().unwrap(), StaubOutcome::Sat { .. }));
    }

    #[test]
    fn empty_stack_check_is_error() {
        let mut session = Session::default();
        assert_eq!(session.check().unwrap_err(), StaubError::EmptyScript);
        session.assert_text("(declare-fun x () Int)").unwrap();
        assert_eq!(session.check().unwrap_err(), StaubError::EmptyScript);
    }

    #[test]
    fn warm_checks_agree_with_cold_pipeline() {
        let sources = [
            "(declare-fun x () Int)(assert (= (* x x) 49))",
            "(declare-fun x () Int)(assert (>= x 0))(assert (<= x 3))(assert (= (* x x) 7))",
            "(declare-fun x () Int)(assert (= (* x x) 121))",
        ];
        let mut session = Session::new(config());
        let staub = Staub::new(config());
        for src in sources {
            let script = Script::parse(src).unwrap();
            let warm = session.run(&script).unwrap();
            let cold = staub.run_with(&script, None).unwrap();
            assert_eq!(warm.verdict_name(), cold.verdict_name(), "{src}");
        }
        assert_eq!(session.engine().checks(), 3);
    }
}
