//! STAUB — SMT Theory Arbitrage from Unbounded to Bounded constraints.
//!
//! This crate is the paper's primary contribution: it converts constraints
//! over the *unbounded* theories of integers and reals into constraints over
//! the *bounded* theories of bitvectors and floating point, solves the cheap
//! bounded constraint, and verifies the model against the original. The
//! pipeline (paper Fig. 3):
//!
//! 1. **Sort selection** ([`correspond`]) — Int ↦ bitvector kind,
//!    Real ↦ floating-point kind, with the function mapping ℳ.
//! 2. **Bound inference** ([`absint`]) — abstract interpretation whose
//!    abstract domain is bit widths (integers) or (magnitude, precision)
//!    pairs (reals); the Fig. 5 abstract semantics, evaluated as a single
//!    memoized DAG traversal (linear in constraint size, §6.1).
//! 3. **Translation** ([`transform`]) — syntax-directed rewrite inserting
//!    overflow guards (`bvsmulo` and friends, §4.3).
//! 4. **Verification** ([`verify`]) — a `sat` model of the bounded
//!    constraint is mapped back through φ⁻¹ and the original constraint is
//!    evaluated exactly; failures (overflow/rounding semantic differences)
//!    revert to the original constraint (§4.4).
//!
//! Every bounded solve is one attempt (translate, solve, lift and verify)
//! at one width. [`sched`] races those attempts against the baseline
//! solver, so no constraint is ever slowed down (§5.1): it analyzes each
//! constraint once and fans it into baseline + escalating STAUB width
//! lanes on a work-stealing pool with cooperative cancellation, and its
//! warm escalation ladder and refine lane are the only places STAUB
//! widens and retries. [`portfolio`] measures both legs sequentially for
//! the paper's tables. [`bvreduce`] implements the
//! paper's §6.4 suggestion of applying the same scheme to *already-bounded*
//! constraints (bitvector width reduction). [`check`] re-certifies each
//! stage's output with the `staub-lint` checker (see
//! [`StaubConfig::check`]). [`metrics`] threads per-stage spans and
//! solver counters through all of it (`staub stats`, batch JSONL `stats`
//! blocks).
//!
//! # Quickstart
//!
//! [`Session`] is the sequential entrypoint: it carries warm solver state
//! (variable maps, learned clauses, phases, activities) across checks, so
//! related queries amortize each other's work. The portfolio race is
//! [`run_one_with`] (one constraint) or [`run_batch_with`] (a batch).
//!
//! ```
//! use staub_core::{Session, StaubOutcome};
//! use staub_smtlib::Script;
//!
//! let script = Script::parse("\
//! (declare-fun x () Int)
//! (assert (= (* x x) 49))
//! (check-sat)")?;
//! let outcome = Session::default().run(&script)?;
//! assert!(matches!(outcome, StaubOutcome::Sat { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod absint;
pub mod bvreduce;
pub mod check;
pub mod correspond;
pub mod metrics;
pub mod portfolio;
pub mod sched;
pub mod transform;
pub mod verify;

mod pipeline;
mod session;

pub use absint::{
    certify, classify_fragment, difference_logic, BoundCertificate, CoeffLedger, DlEdge, DlSystem,
    FragmentClass,
};
pub use check::CheckLevel;
pub use metrics::{Metrics, MetricsSnapshot};
pub use pipeline::{Provenance, Staub, StaubConfig, StaubError, StaubOutcome, Via, WidthChoice};
pub use portfolio::{PortfolioReport, Winner};
pub use sched::{
    complete_width, run_batch_with, run_one_with, BatchConfig, BatchItem, BatchReport,
    BatchVerdict, LaneKind, LaneOutcome, LaneSpec, LaneVerdict, RefineRung, RunOptions,
};
pub use session::Session;
pub use transform::{TransformError, Transformed, WidthMap};
pub use verify::VerifyReport;
