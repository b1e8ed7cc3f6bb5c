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
//! lanes (plus the complete and difference-logic lanes where they apply)
//! on a work-stealing pool with cooperative cancellation; its one
//! bounded-lane runner, under a [`WidenPolicy`], is the only place STAUB
//! widens and retries. Every solving entry point goes through it; [`portfolio`]
//! measures both legs sequentially for the paper's tables. [`bvreduce`] implements the
//! paper's §6.4 suggestion of applying the same scheme to *already-bounded*
//! constraints (bitvector width reduction). [`check`] re-certifies each
//! stage's output with the `staub-lint` checker (in debug builds, on every
//! bounded attempt). [`metrics`] threads per-lane spans and solver
//! counters through all of it (`staub stats`, batch JSONL `stats`
//! blocks).
//!
//! # Quickstart
//!
//! [`run_one_with`] solves one constraint and [`run_batch_with`] a batch.
//! A [`Session`] adds an SMT-LIB assertion stack and a warm bit-blasting
//! engine (variable maps, learned clauses, phases, activities) that its
//! checks share, so related queries amortize each other's work.
//!
//! ```
//! use staub_core::{run_one_with, BatchConfig, BatchVerdict, RunOptions};
//! use staub_smtlib::Script;
//!
//! let script = Script::parse("\
//! (declare-fun x () Int)
//! (assert (= (* x x) 49))
//! (check-sat)")?;
//! let report = run_one_with("square", &script, &BatchConfig::default(), &RunOptions::default());
//! assert!(matches!(report.verdict, BatchVerdict::Sat(_)));
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
pub use metrics::{Metrics, MetricsSnapshot};
pub use pipeline::{Provenance, Staub, StaubConfig, StaubError, WidthChoice};
pub use portfolio::{PortfolioReport, Winner};
pub use sched::{
    run_batch_with, run_one_with, BatchConfig, BatchItem, BatchReport, BatchVerdict, LaneKind,
    LaneOutcome, LaneSpec, LaneVerdict, RefineRung, RunOptions, WidenPolicy,
};
pub use session::Session;
pub use transform::{TransformError, Transformed, WidthMap};
pub use verify::VerifyReport;
