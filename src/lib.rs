//! STAUB — SMT Theory Arbitrage in Rust.
//!
//! Umbrella crate re-exporting the whole workspace. Start with
//! [`core::run_one_with`] — the portfolio scheduler every solve goes
//! through — or [`core::Session`], the same scheduler behind an SMT-LIB
//! assertion stack with a warm solver engine; or see the crate-level docs
//! of each member:
//!
//! * [`numeric`] — exact arithmetic (bigints, rationals, bitvectors, floats).
//! * [`smtlib`] — SMT-LIB v2 parsing, terms, and printing.
//! * [`solver`] — the from-scratch SMT solver (SAT core, bit-blasting,
//!   simplex, interval propagation).
//! * [`core`] — theory arbitrage: bound inference, transformation,
//!   verification, portfolio.
//! * [`lint`] — the certifying checker re-validating pipeline invariants.
//! * [`slot`] — compiler-optimization-style simplification of bounded
//!   constraints.
//! * [`termination`] — the termination-proving client analysis.
//! * [`benchgen`] — seeded benchmark-suite generators.
//! * [`service`] — `staub serve`: the solver-as-a-service daemon with the
//!   canonical-constraint answer cache, plus client/loadgen drivers.
//!
//! # Quickstart
//!
//! ```
//! use staub::core::{BatchVerdict, Session};
//! use staub::smtlib::Script;
//!
//! let src = "\
//! (declare-fun x () Int)
//! (assert (= (* x x) 49))
//! (check-sat)";
//! let script = Script::parse(src)?;
//! let mut session = Session::default();
//! let report = session.run(&script)?;
//! assert!(matches!(report.verdict, BatchVerdict::Sat(_)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Repeated checks through the same [`core::Session`] warm-start from
//! earlier ones; see its docs for the incremental
//! `push`/`pop`/`assert_text`/`check` surface.

#![forbid(unsafe_code)]

pub use staub_benchgen as benchgen;
pub use staub_core as core;
pub use staub_lint as lint;
pub use staub_numeric as numeric;
pub use staub_service as service;
pub use staub_slot as slot;
pub use staub_smtlib as smtlib;
pub use staub_solver as solver;
pub use staub_termination as termination;
