//! `staub-lint`: a certifying checker for STAUB's pipeline invariants.
//!
//! Each stage of the STAUB pipeline — parse, infer, transform, solve,
//! verify — maintains invariants the later stages rely on. This crate
//! re-validates those invariants from the stage *outputs alone*, without
//! trusting the code that produced them, and reports violations as
//! structured [`Finding`]s with stable codes:
//!
//! | Pass | Codes | Invariant |
//! |------|-------|-----------|
//! | [`fn@resort`] | `L001`–`L003` | every cached sort re-derives from the operator typing rules; interning is bottom-up |
//! | [`boundedness`] | `L101`–`L103` | no unbounded sort survives ℳ; every bitvector arithmetic application is overflow-guarded; constants fit their width |
//! | [`fn@correspondence`] | `L201`–`L204` | φ⁻¹ covers the original symbols; sort pairs correspond; widths are monotone over the inference |
//! | [`model_shape`] | `L301`–`L302` | a candidate model assigns every free symbol a value of its declared sort |
//! | [`bound_certificate`] | `L401`–`L405` | an a-priori bound certificate re-derives from the original script: fragment class, coefficient ledger, certified width, and per-variable coverage all cross-check |
//! | [`dl_certificate`] | `L501`–`L504` | a difference-logic unsat's negative cycle re-derives from the original script: fragment membership, per-edge entailment, cyclic chaining, and a negative bound sum all cross-check |
//!
//! The passes are pure functions over `staub-smtlib` data, so they can run
//! between pipeline stages (see the `check` knob in `staub-core`), from the
//! `staub lint` CLI subcommand, or standalone in tests.

#![forbid(unsafe_code)]

pub mod bounded;
pub mod bounds;
pub mod correspondence;
pub mod dl;
pub mod model;
pub mod report;
pub mod resort;

pub use bounded::boundedness;
pub use bounds::{bound_certificate, BoundClaim};
pub use correspondence::{correspondence, Correspondence};
pub use dl::{dl_certificate, DlClaim, DlCycleEdge};
pub use model::model_shape;
pub use report::{Finding, LintCode, LintReport, Severity};
pub use resort::resort;
