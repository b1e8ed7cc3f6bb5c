//! Incremental solving sessions: an SMT-LIB assertion stack and a warm
//! bit-blasting engine on top of the scheduler.
//!
//! Every [`Session`] check runs the scheduler ([`crate::sched`]), exactly
//! as [`crate::run_one_with`] does, with one difference: the first
//! profile's bounded lanes — the escalation ladder or the refine lane —
//! solve on the session's persistent [`BvSession`] instead of a fresh one.
//! Across checks that engine carries forward
//!
//! * the bit-blaster's **variable map** (symbol name × bit → SAT variable)
//!   and **structural gate cache**, so re-encoding an unchanged or widened
//!   constraint reuses the existing circuit instead of rebuilding it;
//! * the SAT core's **learned clauses**, **saved phases**, and
//!   **variable activities** — all valid forever because the engine only
//!   accumulates satisfiable-standalone Tseitin definitions at level 0 and
//!   passes assertion roots as per-check *assumptions*.
//!
//! The baseline and difference-logic lanes, and a lone single-rung
//! bounded lane, solve on fresh solvers as they do for any other request.
//!
//! # Incremental scripting
//!
//! Sessions expose SMT-LIB-style assertion levels:
//!
//! ```
//! use staub_core::Session;
//!
//! let mut session = Session::default();
//! session.assert_text("(declare-fun x () Int)(assert (>= x 0))(assert (<= x 10))")?;
//! session.assert_text("(assert (= (* x x) 49))")?;
//! assert_eq!(session.check()?.verdict.name(), "sat");
//! session.push();
//! session.assert_text("(assert (>= x 8))")?;
//! assert_eq!(session.check()?.verdict.name(), "unsat");
//! session.pop();
//! assert_eq!(session.check()?.verdict.name(), "sat");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use staub_smtlib::{ParseError, Script};
use staub_solver::BvSession;

use crate::metrics::Metrics;
use crate::pipeline::StaubError;
use crate::sched::{run_one_on, BatchConfig, BatchReport, RunOptions};

/// An incremental solving session: scheduler configuration, assertion
/// stack, and a warm solver engine shared by every check.
pub struct Session {
    config: BatchConfig,
    options: RunOptions,
    engine: BvSession,
    /// Assertion frames; `frames[0]` is the base level and is never popped.
    /// Each frame holds SMT-LIB source fragments in assertion order.
    frames: Vec<Vec<String>>,
    /// Parse cache for the current combined source.
    cached: Option<(String, Script)>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new(BatchConfig::default())
    }
}

impl Session {
    /// Creates a session whose checks run the scheduler under `config`;
    /// its warm engine serves the first of `config.profiles`.
    pub fn new(config: BatchConfig) -> Session {
        let profile = config.profiles.first().copied().unwrap_or_default();
        Session {
            engine: BvSession::new(profile.sat_config()),
            config,
            options: RunOptions::default(),
            frames: vec![Vec::new()],
            cached: None,
        }
    }

    /// Attaches a metrics registry: every check records the scheduler's
    /// `sched.*` and `solver.<lane>.*` metrics into it.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Session {
        self.options.metrics = Some(metrics);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
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

    /// Checks the current assertion stack, warm-starting from all previous
    /// checks.
    ///
    /// # Errors
    ///
    /// Returns [`StaubError::EmptyScript`] when no assertions are active.
    pub fn check(&mut self) -> Result<BatchReport, StaubError> {
        self.ensure_parsed();
        let (_, script) = self.cached.as_ref().expect("ensure_parsed populated cache");
        solve(script, &self.config, &self.options, &mut self.engine)
    }

    /// Solves `script` on the warm engine; the session's assertion stack
    /// is not consulted.
    ///
    /// # Errors
    ///
    /// Returns [`StaubError::EmptyScript`] for scripts without assertions.
    pub fn run(&mut self, script: &Script) -> Result<BatchReport, StaubError> {
        solve(script, &self.config, &self.options, &mut self.engine)
    }
}

/// One scheduler run of `script` whose first ladder solves on `engine`.
fn solve(
    script: &Script,
    config: &BatchConfig,
    options: &RunOptions,
    engine: &mut BvSession,
) -> Result<BatchReport, StaubError> {
    if script.assertions().is_empty() {
        return Err(StaubError::EmptyScript);
    }
    Ok(run_one_on("session", script, config, options, Some(engine)))
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
    use crate::sched::{BatchVerdict, WidenPolicy};
    use std::time::Duration;

    fn config() -> BatchConfig {
        BatchConfig {
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
        assert_eq!(session.check().unwrap().verdict.name(), "sat");
        session.push();
        session.assert_text("(assert (>= x 8))").unwrap();
        assert_eq!(session.check().unwrap().verdict.name(), "unsat");
        assert!(session.pop());
        assert_eq!(session.check().unwrap().verdict.name(), "sat");
        // Pop-then-re-assert: a *different* constraint on the same symbol.
        session.push();
        session.assert_text("(assert (= x 7))").unwrap();
        match session.check().unwrap().verdict {
            BatchVerdict::Sat(model) => assert_eq!(model.len(), 1),
            other => panic!("expected sat, got {}", other.name()),
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
        assert_eq!(session.check().unwrap().verdict.name(), "sat");
    }

    #[test]
    fn empty_stack_check_is_error() {
        let mut session = Session::default();
        assert_eq!(session.check().unwrap_err(), StaubError::EmptyScript);
        session.assert_text("(declare-fun x () Int)").unwrap();
        assert_eq!(session.check().unwrap_err(), StaubError::EmptyScript);
    }

    #[test]
    fn warm_engine_serves_the_bounded_lanes_across_checks() {
        // Without a baseline lane the escalation ladder or the refine lane
        // always runs, so every check reaches the session's engine under
        // either policy; the verdicts are a fresh session's.
        let sources = [
            "(declare-fun x () Int)(assert (= (* x x) 49))",
            "(declare-fun x () Int)(assert (>= x 0))(assert (<= x 3))(assert (= (* x x) 7))",
            "(declare-fun x () Int)(assert (= (* x x) 121))",
            "(declare-fun y () Int)(declare-fun z () Int)
             (assert (>= y 0))(assert (>= z 0))(assert (= (- (* y y) (* z z)) 89))",
        ];
        for widen in [
            BatchConfig::default().widen,
            WidenPolicy::PerVariable { depth: 3 },
        ] {
            let bounded = BatchConfig {
                include_baseline: false,
                widen,
                ..config()
            };
            let mut session = Session::new(bounded.clone());
            let mut checks = session.engine().checks();
            for src in sources {
                let script = Script::parse(src).unwrap();
                let warm = session.run(&script).unwrap();
                let fresh = Session::new(bounded.clone()).run(&script).unwrap();
                assert_eq!(warm.verdict.name(), fresh.verdict.name(), "{src}");
                let now = session.engine().checks();
                assert!(now > checks, "{:?}: engine idle on {src}", bounded.widen);
                checks = now;
            }
        }
    }
}
