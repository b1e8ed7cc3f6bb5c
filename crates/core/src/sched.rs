//! Multi-lane batch portfolio scheduler.
//!
//! The paper races STAUB against the baseline solver on two cores (§4.4,
//! §5.1). This module runs that race for a *batch* of constraints. Each
//! constraint is analyzed once — bound inference, the base-width
//! transform, the bound certificate and difference-logic detection — and
//! fanned out into K lanes: the baseline solver plus STAUB at the base
//! (inferred or fixed) width and at escalated 2×/4× widths, optionally
//! under several solver profiles, executed on a fixed pool of
//! work-stealing worker threads. Every bounded lane runs the crate's one
//! bounded attempt (translate, solve, lift and verify); the analysis
//! hands the base rung its planned transform. The first *sound* lane
//! answer decides the constraint and cancels its sibling lanes through a
//! shared [`CancelFlag`] carried by every lane [`Budget`]. Engines see it
//! at their next budget step, and the bit-blaster at its next gate, so a
//! losing lane stops within microseconds rather than at a wall-clock
//! timeout.
//!
//! Soundness mirrors the paper's §4.4 case analysis:
//!
//! * a baseline verdict (`sat` or `unsat` on the *original* constraint) is
//!   always sound;
//! * a bounded `sat` is sound only after [`crate::verify::lift_and_verify`]
//!   re-evaluates the model against the original constraint exactly;
//! * a bounded `unsat` from an ordinary STAUB lane is **never** sound — the
//!   width may simply have been too small. That case is what the escalated
//!   lanes are for (UppSAT-style precision ladders / Bromberger-style bound
//!   escalation). The one exception is the [`LaneKind::Complete`] lane: for
//!   pure-LIA constraints a Bromberger-style a-priori bound (see
//!   [`absint::certify`]) makes the bounded encoding equisatisfiable, so
//!   its bounded `unsat` is promoted to a trusted `unsat` — but *only*
//!   after the `L4xx` certificate lints re-derive and confirm the bound
//!   from the original script.
//!
//! Instead of the blind 2×/4× escalation fan-out, [`BatchConfig::refine`]
//! plans a single [`LaneKind::Refine`] lane per profile: a
//! counterexample-guided loop that starts at the base width and, on each
//! inconclusive rung, widens only the variables the failure evidence names
//! — the unsat core's overflow guards on a bounded `unsat`, the failed
//! assertions' and saturated variables on an unverified bounded `sat`
//! (UppSAT-style refinement with Bromberger-style per-variable budgets).
//! These two — the warm escalation ladder, in which a profile's bounded
//! lanes run in ascending width on one shared engine, and the refine lane
//! — are the only places STAUB widens and retries.
//! Every rung is recorded as a [`RefineRung`] in the lane outcome and the
//! JSONL report, so a refined verdict's provenance names exactly which
//! variables earned their extra bits. When the evidence names nothing the
//! loop falls back to globally doubling every variable, so it is never
//! weaker than the blind ladder; the depth cap bounds it.
//!
//! Every lane runs under its own wall-clock deadline *and* deterministic
//! step budget, with at most one bounded retry on step exhaustion, so a
//! batch degrades gracefully instead of hanging. Workers are scoped
//! threads: when [`run_batch_with`] returns, every lane has been joined —
//! no thread outlives the batch.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use staub_smtlib::{Model, Script, SymbolId, Value};
use staub_solver::{
    stn::ORIGIN, Budget, BvSession, CancelFlag, DlWeight, SatResult, Solver, SolverProfile,
    SolverStats, Stn, StnStatus, UnknownReason,
};

use crate::absint::{self, BoundCertificate, DlSystem, InferredBounds};
use crate::correspond::SortLimits;
use crate::metrics::Metrics;
use crate::pipeline::{bounded_attempt, Provenance, Translation, WidthChoice};
use crate::portfolio::{PortfolioReport, Winner};
use crate::transform::{transform, TransformError, Transformed, WidthMap};
use crate::verify::{saturated_vars, verify_model};

// ---------------------------------------------------------------------------
// Configuration and lane taxonomy
// ---------------------------------------------------------------------------

/// Configuration of a batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Per-lane wall-clock deadline.
    pub timeout: Duration,
    /// Per-lane deterministic step budget (the primary limit — tests and
    /// differential runs rely on steps, not wall-clock, for determinism).
    pub steps: u64,
    /// Base width selection for the primary STAUB lane.
    pub width_choice: WidthChoice,
    /// Width multipliers for escalated STAUB lanes (e.g. `[2, 4]`). An
    /// escalation is skipped when the base width cannot be resolved or the
    /// escalated width exceeds [`SortLimits::max_bv_width`].
    pub escalations: Vec<u32>,
    /// Solver profiles to fan lanes out under (usually one; both for the
    /// paper's Zed ∩ Cove experiments).
    pub profiles: Vec<SolverProfile>,
    /// Whether to run a baseline lane on the original constraint.
    pub include_baseline: bool,
    /// Cancel sibling lanes as soon as a sound answer lands. Disable for
    /// measurement runs that need every lane's full timing (the bench
    /// harness does this so Table 2/3 metrics stay undistorted).
    pub cancel_losers: bool,
    /// One bounded retry with a fresh step budget when a lane exhausts its
    /// steps without an answer (graceful degradation, not a hang: the
    /// retry budget is the same size and is itself cancellable).
    pub retry: bool,
    /// Target-sort limits for the STAUB lanes.
    pub limits: SortLimits,
    /// Replace the blind escalation lanes with one counterexample-guided
    /// [`LaneKind::Refine`] lane per profile (baseline and complete lanes
    /// are planned as usual). See the module docs.
    pub refine: bool,
    /// Maximum refinement rungs after the base attempt (only read when
    /// `refine` is set).
    pub refine_depth: u32,
    /// Plan a complete difference-logic STN lane, first in plan order, when
    /// the detector recognizes the constraint as a conjunction of
    /// `x - y ▷◁ c` atoms. Both its verdicts are trusted: `sat` models are
    /// re-verified exactly as always, and `unsat` is backed by a
    /// negative-cycle certificate the `L5xx` lints re-check.
    pub dl: bool,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            threads: 0,
            timeout: Duration::from_secs(1),
            steps: 4_000_000,
            width_choice: WidthChoice::Inferred,
            escalations: vec![2, 4],
            profiles: vec![SolverProfile::Zed],
            include_baseline: true,
            cancel_losers: true,
            retry: false,
            limits: SortLimits::default(),
            refine: false,
            refine_depth: 5,
            dl: true,
        }
    }
}

impl BatchConfig {
    fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
        }
    }
}

/// What a lane does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneKind {
    /// The baseline solver on the original constraint.
    Baseline,
    /// The STAUB pipeline at a concrete width choice. `escalation` is the
    /// multiplier relative to the base lane (`1` for the base itself).
    Staub {
        /// The width this lane transforms at.
        width: WidthChoice,
        /// Escalation multiplier (for labelling and winner reporting).
        escalation: u32,
    },
    /// The STAUB pipeline at a *certified* width (pure LIA only): a
    /// bounded `unsat` here is promoted to a trusted `unsat` when the
    /// bound certificate lints clean (`L4xx`). Planned only when
    /// [`absint::certify`] yields a certified width within the limits.
    Complete {
        /// The certified sufficient width the lane transforms at.
        width: u32,
    },
    /// The incremental STN decision procedure on a difference-logic
    /// constraint — complete for the fragment, so both verdicts are
    /// trusted (a `sat` model is still re-verified exactly; an `unsat` is
    /// promoted only after its negative cycle passes the `L5xx` lints).
    /// Planned first (cheapest lane) and never escalated. See
    /// [`absint::difference_logic`].
    DiffLogic,
    /// Counterexample-guided per-variable width refinement: start at
    /// `width`, and on each inconclusive rung widen only the variables the
    /// unsat core or verification failure names, up to `depth` rungs.
    /// Falls back to globally doubling when the evidence names nothing.
    Refine {
        /// Base width selection for the first rung.
        width: WidthChoice,
        /// Maximum refinement rungs after the base attempt.
        depth: u32,
    },
}

/// One unit of work: a strategy applied to one constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSpec {
    /// What the lane does.
    pub kind: LaneKind,
    /// The solver profile it runs under.
    pub profile: SolverProfile,
}

impl LaneSpec {
    /// Stable human-readable label, used in JSONL reports:
    /// `baseline/zed`, `staub/x1/zed`, `staub/x2/cove`, `complete/zed`,
    /// `refine/zed`, …
    pub fn label(&self) -> String {
        let profile = self.profile.name().to_lowercase();
        match &self.kind {
            LaneKind::Baseline => format!("baseline/{profile}"),
            LaneKind::Staub { escalation, .. } => format!("staub/x{escalation}/{profile}"),
            LaneKind::Complete { .. } => format!("complete/{profile}"),
            LaneKind::DiffLogic => format!("dl/{profile}"),
            LaneKind::Refine { .. } => format!("refine/{profile}"),
        }
    }

    /// Whether this is a STAUB (bounded-path) lane. Complete and refine
    /// lanes are: they run the same transform/solve/verify pipeline, just
    /// at a certified width or with a per-variable width map — so they
    /// join warm escalation ladders.
    pub fn is_staub(&self) -> bool {
        matches!(
            self.kind,
            LaneKind::Staub { .. } | LaneKind::Complete { .. } | LaneKind::Refine { .. }
        )
    }
}

/// How a lane ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneVerdict {
    /// Bounded `sat` whose lifted model verified exactly (sound).
    SatVerified,
    /// Baseline `sat` on the original constraint (sound).
    Sat,
    /// `unsat` proven on the original constraint (baseline lane), or a
    /// bounded `unsat` at a certified width whose certificate linted
    /// clean (complete lane) — both sound.
    Unsat,
    /// Bounded `unsat` at an uncertified width — not sound; the width may
    /// be too small (§4.4).
    BoundedUnsat,
    /// No answer within budget, or a bounded model that failed
    /// verification.
    Unknown,
    /// The lane observed the sibling [`CancelFlag`] and stopped early.
    Cancelled,
    /// The constraint has no bounded counterpart at this lane's width.
    NotApplicable,
}

impl LaneVerdict {
    /// A verdict that may decide the constraint.
    pub fn is_sound(self) -> bool {
        matches!(
            self,
            LaneVerdict::SatVerified | LaneVerdict::Sat | LaneVerdict::Unsat
        )
    }

    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LaneVerdict::SatVerified => "sat-verified",
            LaneVerdict::Sat => "sat",
            LaneVerdict::Unsat => "unsat",
            LaneVerdict::BoundedUnsat => "bounded-unsat",
            LaneVerdict::Unknown => "unknown",
            LaneVerdict::Cancelled => "cancelled",
            LaneVerdict::NotApplicable => "not-applicable",
        }
    }
}

/// One rung of a [`LaneKind::Refine`] lane: what the bounded attempt at
/// the current width map concluded, and which variables that evidence
/// widened for the next rung.
#[derive(Debug, Clone)]
pub struct RefineRung {
    /// Rung index (0 = the base-width attempt).
    pub depth: u32,
    /// Variables this rung's evidence widened for the *next* rung (empty
    /// on the final rung, or when no widening was possible).
    pub widened: Vec<String>,
    /// Node width of this rung's encoding (bitvector width, or `eb + sb`
    /// for real constraints).
    pub max_width: u32,
    /// Total variable-bit footprint of this rung's encoding (the sum of
    /// per-variable declared widths) — the quantity refinement minimises.
    pub total_bits: u64,
    /// Deterministic steps this rung consumed.
    pub steps: u64,
    /// How the rung's bounded attempt ended (`sat-verified`,
    /// `bounded-unsat`, `unverified-sat`, `unknown`, `cancelled`,
    /// `not-applicable`).
    pub verdict: &'static str,
}

/// Full record of one lane's execution.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// The lane that ran.
    pub spec: LaneSpec,
    /// How it ended.
    pub verdict: LaneVerdict,
    /// The model, for sound `sat` verdicts (verified for STAUB lanes).
    pub model: Option<Model>,
    /// Wall-clock time the lane spent.
    pub elapsed: Duration,
    /// Deterministic steps consumed (across the retry, if any).
    pub steps_used: u64,
    /// Whether the bounded retry ran.
    pub retried: bool,
    /// Time from the sibling cancellation request to this lane actually
    /// stopping (only set when the lane was cancelled).
    pub cancel_latency: Option<Duration>,
    /// Transformation time (STAUB lanes; zero for baseline).
    pub t_trans: Duration,
    /// Solving time.
    pub t_post: Duration,
    /// Verification time (STAUB lanes; zero for baseline).
    pub t_check: Duration,
    /// Solver-internal counters accumulated across the lane's attempts
    /// (both the initial run and the retry, if any).
    pub stats: SolverStats,
    /// Rung-by-rung provenance of a [`LaneKind::Refine`] lane (empty for
    /// every other lane kind).
    pub rungs: Vec<RefineRung>,
}

impl LaneOutcome {
    fn skipped(spec: &LaneSpec, cancel: &CancelFlag) -> LaneOutcome {
        LaneOutcome {
            spec: spec.clone(),
            verdict: LaneVerdict::Cancelled,
            model: None,
            elapsed: Duration::ZERO,
            steps_used: 0,
            retried: false,
            cancel_latency: cancel.latency(),
            t_trans: Duration::ZERO,
            t_post: Duration::ZERO,
            t_check: Duration::ZERO,
            stats: SolverStats::default(),
            rungs: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Batch items and reports
// ---------------------------------------------------------------------------

/// One constraint submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Display name (file path or benchmark name).
    pub name: String,
    /// The constraint.
    pub script: Script,
}

/// Verdict of the whole portfolio for one constraint.
#[derive(Debug, Clone)]
pub enum BatchVerdict {
    /// Satisfiable; the model satisfies the *original* constraint.
    Sat(Model),
    /// Proven unsatisfiable on the original constraint.
    Unsat,
    /// No sound lane answer.
    Unknown,
}

impl BatchVerdict {
    /// `sat` / `unsat` / `unknown`.
    pub fn name(&self) -> &'static str {
        match self {
            BatchVerdict::Sat(_) => "sat",
            BatchVerdict::Unsat => "unsat",
            BatchVerdict::Unknown => "unknown",
        }
    }
}

/// Per-constraint report: winner, verdict, and every lane's record.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The constraint's name.
    pub name: String,
    /// Portfolio verdict (from the winning lane).
    pub verdict: BatchVerdict,
    /// Index into `lanes` of the winning lane, if any lane was sound.
    pub winner: Option<usize>,
    /// Every lane's outcome, in plan order.
    pub lanes: Vec<LaneOutcome>,
    /// Wall-clock time from submission until the last lane finished.
    pub wall: Duration,
    /// Wall-clock time from submission until the first sound answer.
    pub time_to_answer: Option<Duration>,
    /// The constraint's arithmetic fragment (`lia`/`lra`/`mixed`/
    /// `ineligible`), from [`absint::certify`].
    pub fragment: &'static str,
    /// For `unknown` verdicts, why: `"budget"` when a complete lane
    /// (certified-width or difference-logic) was planned — the fragment is
    /// decidable within limits, the budget just ran out;
    /// `"linear-non-dl"` when the constraint is linear but neither
    /// complete lane was eligible (certificate too wide, atoms not
    /// difference-shaped); `"ineligible-fragment"` when the constraint is
    /// not even linear. `None` for decided constraints.
    pub unknown_reason: Option<&'static str>,
}

impl BatchReport {
    /// The winning lane's outcome.
    pub fn winner_lane(&self) -> Option<&LaneOutcome> {
        self.winner.map(|i| &self.lanes[i])
    }

    /// Provenance of the verdict: the winning lane's label, width
    /// multiplier (0 for baseline/original lanes), and deterministic
    /// steps. `None` when no lane answered.
    pub fn provenance(&self) -> Option<Provenance> {
        self.winner_lane().map(|l| Provenance {
            label: l.spec.label(),
            multiplier: match l.spec.kind {
                LaneKind::Baseline | LaneKind::DiffLogic => 0,
                LaneKind::Staub { escalation, .. } => escalation,
                LaneKind::Complete { .. } | LaneKind::Refine { .. } => 1,
            },
            steps: l.steps_used,
        })
    }

    /// The first baseline lane, if one ran.
    pub fn baseline_lane(&self) -> Option<&LaneOutcome> {
        self.lanes
            .iter()
            .find(|l| l.spec.kind == LaneKind::Baseline)
    }

    /// The STAUB lane whose timings stand in for the paper's single
    /// bounded leg: the winner when it is a STAUB lane, else the first
    /// verified STAUB lane, else the base STAUB lane.
    fn representative_staub(&self) -> Option<&LaneOutcome> {
        if let Some(w) = self.winner_lane() {
            if w.spec.is_staub() {
                return Some(w);
            }
        }
        self.lanes
            .iter()
            .find(|l| l.spec.is_staub() && l.verdict == LaneVerdict::SatVerified)
            .or_else(|| self.lanes.iter().find(|l| l.spec.is_staub()))
    }

    /// Projects this report onto the sequential [`PortfolioReport`] shape,
    /// so aggregation (`speedup`, `tractability_improvement`, Tables 2–3)
    /// works unchanged on scheduler output.
    pub fn to_portfolio(&self) -> PortfolioReport {
        let baseline = self.baseline_lane();
        let baseline_result = match baseline {
            Some(l) => match (l.verdict, &l.model) {
                (LaneVerdict::Sat, Some(m)) => SatResult::Sat(m.clone()),
                (LaneVerdict::Unsat, _) => SatResult::Unsat,
                _ => SatResult::Unknown(UnknownReason::BudgetExhausted),
            },
            None => SatResult::Unknown(UnknownReason::Incomplete),
        };
        let t_pre = baseline.map_or(Duration::ZERO, |l| l.elapsed);
        let staub = self.representative_staub();
        let verified = staub.is_some_and(|l| l.verdict == LaneVerdict::SatVerified);
        let bounded_result = staub.and_then(|l| match (l.verdict, &l.model) {
            (LaneVerdict::SatVerified, Some(m)) => Some(SatResult::Sat(m.clone())),
            (LaneVerdict::BoundedUnsat, _) => Some(SatResult::Unsat),
            // A complete lane's promoted unsat (sound, certificate-backed).
            (LaneVerdict::Unsat, _) => Some(SatResult::Unsat),
            (LaneVerdict::NotApplicable, _) => None,
            _ => Some(SatResult::Unknown(UnknownReason::BudgetExhausted)),
        });
        let winner = match self.winner_lane() {
            Some(l) if l.spec.is_staub() => Winner::Staub,
            Some(_) => Winner::Baseline,
            None => Winner::Neither,
        };
        PortfolioReport {
            baseline_result,
            t_pre,
            t_trans: staub.map_or(Duration::ZERO, |l| l.t_trans),
            t_post: staub.map_or(Duration::ZERO, |l| l.t_post),
            t_check: staub.map_or(Duration::ZERO, |l| l.t_check),
            verified,
            bounded_result,
            winner,
        }
    }

    /// The observability block alone: stage durations plus every lane's
    /// solver-internal counters (field set mirrors `SolverStats`), as a
    /// JSON object. Embedded in [`BatchReport::to_jsonl`] under `"stats"`
    /// and reused verbatim by `staub serve` solve replies.
    pub fn stats_json(&self) -> String {
        let portfolio = self.to_portfolio();
        let mut out = String::with_capacity(128);
        out.push_str(&format!(
            "{{\"stages\":{{\"pre_ms\":{:.3},\"trans_ms\":{:.3},\
             \"post_ms\":{:.3},\"check_ms\":{:.3}}},\"lanes\":[",
            portfolio.t_pre.as_secs_f64() * 1e3,
            portfolio.t_trans.as_secs_f64() * 1e3,
            portfolio.t_post.as_secs_f64() * 1e3,
            portfolio.t_check.as_secs_f64() * 1e3,
        ));
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_json_str(&mut out, "label", &lane.spec.label());
            for (field, value) in lane.stats.fields() {
                out.push_str(&format!(",\"{field}\":{value}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// One JSON line per constraint (the `staub batch` output format). The
    /// top-level timing fields mirror [`PortfolioReport`]; `lanes` adds the
    /// per-lane records including cancellation latency.
    pub fn to_jsonl(&self) -> String {
        let portfolio = self.to_portfolio();
        let mut out = String::with_capacity(256);
        out.push('{');
        push_json_str(&mut out, "name", &self.name);
        out.push(',');
        push_json_str(&mut out, "verdict", self.verdict.name());
        out.push(',');
        match self.winner_lane() {
            Some(l) => push_json_str(&mut out, "winner", &l.spec.label()),
            None => out.push_str("\"winner\":null"),
        }
        out.push(',');
        match self.provenance() {
            Some(p) => {
                out.push_str("\"provenance\":{");
                push_json_str(&mut out, "label", &p.label);
                out.push_str(&format!(
                    ",\"multiplier\":{},\"steps\":{}}}",
                    p.multiplier, p.steps
                ));
            }
            None => out.push_str("\"provenance\":null"),
        }
        out.push(',');
        push_json_str(&mut out, "fragment", self.fragment);
        out.push(',');
        match self.unknown_reason {
            Some(r) => push_json_str(&mut out, "unknown_reason", r),
            None => out.push_str("\"unknown_reason\":null"),
        }
        out.push(',');
        out.push_str(&format!(
            "\"wall_ms\":{:.3},\"time_to_answer_ms\":{},",
            self.wall.as_secs_f64() * 1e3,
            self.time_to_answer.map_or_else(
                || "null".to_string(),
                |d| format!("{:.3}", d.as_secs_f64() * 1e3)
            ),
        ));
        out.push_str(&format!(
            "\"t_pre_ms\":{:.3},\"t_trans_ms\":{:.3},\"t_post_ms\":{:.3},\"t_check_ms\":{:.3},\
             \"verified\":{},\"speedup\":{:.3},",
            portfolio.t_pre.as_secs_f64() * 1e3,
            portfolio.t_trans.as_secs_f64() * 1e3,
            portfolio.t_post.as_secs_f64() * 1e3,
            portfolio.t_check.as_secs_f64() * 1e3,
            portfolio.verified,
            portfolio.speedup(),
        ));
        out.push_str("\"stats\":");
        out.push_str(&self.stats_json());
        out.push(',');
        out.push_str("\"lanes\":[");
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_json_str(&mut out, "label", &lane.spec.label());
            out.push(',');
            push_json_str(&mut out, "verdict", lane.verdict.name());
            out.push_str(&format!(
                ",\"ms\":{:.3},\"steps\":{},\"retried\":{},\"cancel_latency_ms\":{}",
                lane.elapsed.as_secs_f64() * 1e3,
                lane.steps_used,
                lane.retried,
                lane.cancel_latency.map_or_else(
                    || "null".to_string(),
                    |d| format!("{:.3}", d.as_secs_f64() * 1e3)
                ),
            ));
            out.push_str(",\"rungs\":[");
            for (j, rung) in lane.rungs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"depth\":{},\"widened\":[", rung.depth));
                for (k, name) in rung.widened.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, name);
                }
                out.push_str(&format!(
                    "],\"max_width\":{},\"total_bits\":{},\"steps\":{},",
                    rung.max_width, rung.total_bits, rung.steps
                ));
                push_json_str(&mut out, "verdict", rung.verdict);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Appends `"key":"value"`, both escaped by [`push_json_string`].
fn push_json_str(out: &mut String, key: &str, value: &str) {
    push_json_string(out, key);
    out.push(':');
    push_json_string(out, value);
}

/// Appends `value` as a JSON string literal. Every string in a report line
/// goes through here, so a quoted SMT-LIB symbol holding a quote,
/// backslash or control character still yields valid JSON.
fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Analysis and lane planning
// ---------------------------------------------------------------------------

/// One constraint's analysis, made once when its lanes are planned: bound
/// inference, the transform at the base width, the bound certificate and
/// difference-logic detection. Planning, every lane, complete-lane
/// promotion and the report's fragment and unknown reason all read it.
/// Only the `L4xx`/`L5xx` lints re-derive anything from the script: that
/// independence is what makes a promoted `unsat` sound.
struct Analysis {
    bounds: InferredBounds,
    /// Inference time, counted into every bounded lane's `t_trans`.
    t_infer: Duration,
    /// The width choice `base` was translated at.
    choice: WidthChoice,
    /// The transform at the base width, which the base rung solves.
    base: Result<Transformed, TransformError>,
    t_base: Duration,
    certificate: BoundCertificate,
    /// The difference-logic system, when the lane is enabled and the
    /// detector matches.
    dl: Option<DlSystem>,
    t_dl: Duration,
}

impl Analysis {
    fn of(script: &Script, config: &BatchConfig) -> Analysis {
        let t0 = Instant::now();
        let bounds = absint::infer(script);
        let t_infer = t0.elapsed();
        let t1 = Instant::now();
        let base = transform(script, &bounds, config.width_choice, &config.limits);
        let t_base = t1.elapsed();
        let certificate = absint::certify(script);
        let t2 = Instant::now();
        let dl = if config.dl {
            absint::difference_logic(script)
        } else {
            None
        };
        Analysis {
            bounds,
            t_infer,
            choice: config.width_choice,
            base,
            t_base,
            certificate,
            dl,
            t_dl: t2.elapsed(),
        }
    }

    /// The width the base rung translates at (bitvector width, or
    /// floating-point significand width for real constraints).
    fn base_width(&self) -> Option<u32> {
        let tf = self.base.as_ref().ok()?;
        tf.bv_width.or(tf.fp_format.map(|(_, sb)| sb))
    }

    /// What a bounded rung at `width` (with per-variable `widths`) solves:
    /// the planned base transform when that is what it asks for, otherwise
    /// a fresh translation over the planned bounds.
    fn translation<'s: 'w, 'w>(
        &'s self,
        width: WidthChoice,
        widths: Option<&'w WidthMap>,
        limits: &'w SortLimits,
    ) -> Translation<'s, 'w> {
        if width == self.choice && widths.is_none_or(WidthMap::is_empty) {
            Translation::Planned(&self.base, self.t_base)
        } else {
            Translation::At {
                bounds: &self.bounds,
                width,
                widths,
                limits,
            }
        }
    }
}

/// The complete-lane width a bound certificate allows: the script must be
/// pure LIA and its certified width must fit the bitvector limit. Public
/// so other surfaces (the CLI's unknown-reason report) apply the *same*
/// eligibility test the planner does — a certificate wider than the lane
/// limit is not lane-eligible.
pub fn complete_width(certificate: &BoundCertificate, limits: &SortLimits) -> Option<u32> {
    certificate
        .certified_width
        .filter(|&w| w <= limits.max_bv_width)
}

/// Plans the lane fan-out for one constraint: per profile, an optional
/// baseline lane, the base STAUB lane, deduplicated escalated lanes
/// within the width limits, and — for pure-LIA constraints whose certified
/// width fits — a complete lane whose bounded `unsat` can be promoted.
/// Under [`BatchConfig::refine`] the base-plus-escalations fan-out is
/// replaced by a single counterexample-guided refine lane per profile.
pub fn plan_lanes(script: &Script, config: &BatchConfig) -> Vec<LaneSpec> {
    plan(&Analysis::of(script, config), config)
}

fn plan(analysis: &Analysis, config: &BatchConfig) -> Vec<LaneSpec> {
    let mut lanes = Vec::new();
    let certified = complete_width(&analysis.certificate, &config.limits);
    // First in plan order: the difference-logic lane is the cheapest
    // complete procedure, so when the fragment matches it should decide
    // the constraint before any bounded lane finishes transforming. One
    // lane total — the STN has no profile-dependent heuristics.
    if analysis.dl.is_some() {
        if let Some(&profile) = config.profiles.first() {
            lanes.push(LaneSpec {
                kind: LaneKind::DiffLogic,
                profile,
            });
        }
    }
    for &profile in &config.profiles {
        if config.include_baseline {
            lanes.push(LaneSpec {
                kind: LaneKind::Baseline,
                profile,
            });
        }
        if config.refine {
            lanes.push(LaneSpec {
                kind: LaneKind::Refine {
                    width: config.width_choice,
                    depth: config.refine_depth,
                },
                profile,
            });
        } else {
            lanes.push(LaneSpec {
                kind: LaneKind::Staub {
                    width: config.width_choice,
                    escalation: 1,
                },
                profile,
            });
            if let Some(w0) = analysis.base_width() {
                let mut seen = vec![w0];
                for &m in &config.escalations {
                    let w = w0.saturating_mul(m);
                    if m > 1 && w <= config.limits.max_bv_width && !seen.contains(&w) {
                        seen.push(w);
                        lanes.push(LaneSpec {
                            kind: LaneKind::Staub {
                                width: WidthChoice::Fixed(w),
                                escalation: m,
                            },
                            profile,
                        });
                    }
                }
            }
        }
        // Last in plan order: the complete lane is usually the widest, so
        // warm ladders reach it after the cheaper uncertified rungs.
        if let Some(w) = certified {
            lanes.push(LaneSpec {
                kind: LaneKind::Complete { width: w },
                profile,
            });
        }
    }
    lanes
}

// ---------------------------------------------------------------------------
// Lane execution
// ---------------------------------------------------------------------------

fn out_of_steps(result: &SatResult, budget: &Budget) -> bool {
    matches!(result, SatResult::Unknown(UnknownReason::BudgetExhausted)) && !budget.is_cancelled()
}

/// Decides whether a complete lane's bounded `unsat` at `used_width` may
/// be promoted to a trusted `unsat`: the planned certificate must pass
/// every `L4xx` lint, which re-derive fragment class, ledger, certified
/// width and per-variable coverage from the original script and check
/// `used_width ≥` certified width. This runs unconditionally (not just
/// under `StaubConfig::check`): the promotion is a soundness claim, so it
/// is never taken on an unchecked certificate.
fn certificate_promotes(script: &Script, cert: &BoundCertificate, used_width: u32) -> bool {
    match cert.certified_width {
        Some(c) if used_width >= c => {
            crate::check::check_certificate(script, cert, Some(used_width)).is_clean()
        }
        _ => false,
    }
}

/// Executes the difference-logic lane: assert every normalized edge of the
/// planned system into a fresh incremental STN under the lane budget, and
/// either read a model off the feasible potential (re-verified exactly, as
/// every STAUB `sat` is) or promote the extracted negative cycle to a
/// trusted `unsat`. The promotion mirrors [`certificate_promotes`]: it is
/// a soundness claim, so the independent `L5xx` lints re-check the cycle
/// unconditionally — not just under `StaubConfig::check`.
fn run_dl_lane(cell: &Cell<'_>, spec: &LaneSpec, config: &BatchConfig) -> LaneOutcome {
    let (script, cancel) = (cell.script, &cell.cancel);
    let start = Instant::now();
    let sys = cell
        .analysis
        .dl
        .as_ref()
        .expect("the DL lane is planned only for a detected system");

    let budget = Budget::with_cancel(config.timeout, config.steps, cancel.clone());
    let t1 = Instant::now();
    let mut stn = Stn::new();
    let mut node_of: HashMap<SymbolId, u32> = HashMap::new();
    for &sym in &sys.vars {
        node_of.insert(sym, stn.add_node());
    }
    let node = |end: &Option<SymbolId>| end.map_or(ORIGIN, |s| node_of[&s]);
    let mut status = StnStatus::Feasible;
    for e in &sys.edges {
        // `x - y ≤ c` is the STN edge `y → x` weighted `c`.
        status = stn.assert_edge(
            node(&e.y),
            node(&e.x),
            DlWeight::new(e.bound.clone(), e.strict),
            &budget,
        );
        if status != StnStatus::Feasible {
            break;
        }
    }
    let t_post = t1.elapsed();
    let stats = SolverStats {
        propagations: stn.relaxations(),
        ..SolverStats::default()
    };

    let t2 = Instant::now();
    let (verdict, model) = match status {
        StnStatus::Feasible => {
            let vals = stn.solution();
            let origin = vals[ORIGIN as usize].clone();
            let mut model = Model::new();
            let mut integral = true;
            for &sym in &sys.vars {
                let v = &vals[node_of[&sym] as usize] - &origin;
                if sys.is_int {
                    if v.is_integer() {
                        model.insert(sym, Value::Int(v.numer().clone()));
                    } else {
                        integral = false;
                        break;
                    }
                } else {
                    model.insert(sym, Value::Real(v));
                }
            }
            if integral && verify_model(script, &model) {
                (LaneVerdict::SatVerified, Some(model))
            } else {
                (LaneVerdict::Unknown, None)
            }
        }
        StnStatus::Infeasible => {
            // STN edges were asserted 1:1 in detector order, so cycle
            // indices index straight into the normalized edge list.
            let cycle: Vec<absint::DlEdge> = stn
                .cycle()
                .iter()
                .map(|&i| sys.edges[i as usize].clone())
                .collect();
            if crate::check::check_dl_certificate(script, &cycle).is_clean() {
                (LaneVerdict::Unsat, None)
            } else {
                (LaneVerdict::Unknown, None)
            }
        }
        StnStatus::Exhausted if cancel.is_cancelled() => (LaneVerdict::Cancelled, None),
        StnStatus::Exhausted => (LaneVerdict::Unknown, None),
    };
    let t_check = t2.elapsed();

    LaneOutcome {
        spec: spec.clone(),
        cancel_latency: (verdict == LaneVerdict::Cancelled)
            .then(|| cancel.latency())
            .flatten(),
        verdict,
        model,
        elapsed: start.elapsed(),
        steps_used: budget.steps_used(),
        retried: false,
        t_trans: cell.analysis.t_dl,
        t_post,
        t_check,
        stats,
        rungs: Vec::new(),
    }
}

/// Executes one lane to completion (or cancellation). Bounded lanes solve
/// on `engine` when one is given (a ladder's shared engine) and on a fresh
/// solver otherwise; a refine lane always owns its engine, because its
/// width map must drive the blast.
fn run_lane(
    cell: &Cell<'_>,
    spec: &LaneSpec,
    config: &BatchConfig,
    mut engine: Option<&mut BvSession>,
    metrics: &Metrics,
) -> LaneOutcome {
    let (script, cancel) = (cell.script, &cell.cancel);
    let start = Instant::now();
    let mut retried = false;
    let mut steps_used = 0u64;
    let mut stats = SolverStats::default();
    match &spec.kind {
        LaneKind::Baseline => {
            let solver = Solver::new(spec.profile);
            let mut budget = Budget::with_cancel(config.timeout, config.steps, cancel.clone());
            let mut outcome = solver.solve_with_budget(script, &budget);
            steps_used += budget.steps_used();
            stats.merge(&outcome.stats);
            if config.retry && out_of_steps(&outcome.result, &budget) {
                retried = true;
                budget = Budget::with_cancel(config.timeout, config.steps, cancel.clone());
                outcome = solver.solve_with_budget(script, &budget);
                steps_used += budget.steps_used();
                stats.merge(&outcome.stats);
            }
            let (verdict, model) = match outcome.result {
                SatResult::Sat(m) => (LaneVerdict::Sat, Some(m)),
                SatResult::Unsat => (LaneVerdict::Unsat, None),
                SatResult::Unknown(_) if cancel.is_cancelled() => (LaneVerdict::Cancelled, None),
                SatResult::Unknown(_) => (LaneVerdict::Unknown, None),
            };
            let elapsed = start.elapsed();
            LaneOutcome {
                spec: spec.clone(),
                cancel_latency: (verdict == LaneVerdict::Cancelled)
                    .then(|| cancel.latency())
                    .flatten(),
                verdict,
                model,
                elapsed,
                steps_used,
                retried,
                t_trans: Duration::ZERO,
                t_post: elapsed,
                t_check: Duration::ZERO,
                stats,
                rungs: Vec::new(),
            }
        }
        LaneKind::Refine { width, depth } => {
            run_refine_lane(cell, spec, *width, *depth, config, metrics)
        }
        LaneKind::DiffLogic => run_dl_lane(cell, spec, config),
        kind @ (LaneKind::Staub { .. } | LaneKind::Complete { .. }) => {
            // A complete lane is the same bounded attempt pinned to the
            // certified width; only its unsat handling differs below.
            let (width, promote_at) = match kind {
                LaneKind::Staub { width, .. } => (*width, None),
                LaneKind::Complete { width } => (WidthChoice::Fixed(*width), Some(*width)),
                LaneKind::Baseline | LaneKind::DiffLogic | LaneKind::Refine { .. } => {
                    unreachable!("handled above")
                }
            };
            let analysis = &cell.analysis;
            let mut attempt_under = |budget: &Budget| {
                let translation = analysis.translation(width, None, &config.limits);
                bounded_attempt(
                    script,
                    translation,
                    engine.as_deref_mut(),
                    spec.profile,
                    budget,
                    None,
                )
            };
            let mut budget = Budget::with_cancel(config.timeout, config.steps, cancel.clone());
            let mut attempt = attempt_under(&budget);
            steps_used += budget.steps_used();
            stats.merge(&attempt.stats);
            let needs_retry = attempt
                .result
                .as_ref()
                .is_some_and(|r| out_of_steps(r, &budget));
            if config.retry && needs_retry {
                retried = true;
                budget = Budget::with_cancel(config.timeout, config.steps, cancel.clone());
                attempt = attempt_under(&budget);
                steps_used += budget.steps_used();
                stats.merge(&attempt.stats);
            }
            let verdict = match (&attempt.result, &attempt.model) {
                (_, Some(_)) => LaneVerdict::SatVerified,
                (None, _) => LaneVerdict::NotApplicable,
                // A bounded unsat is promoted to a trusted unsat only on a
                // complete lane whose certificate survives the independent
                // L4xx re-derivation at the width actually used.
                (Some(SatResult::Unsat), _) => match promote_at {
                    Some(w) if certificate_promotes(script, &analysis.certificate, w) => {
                        LaneVerdict::Unsat
                    }
                    _ => LaneVerdict::BoundedUnsat,
                },
                (Some(SatResult::Unknown(_)), _) if cancel.is_cancelled() => LaneVerdict::Cancelled,
                // An unverified bounded `sat` is as inconclusive as a
                // timeout (§4.4 case 2: semantics loss).
                _ => LaneVerdict::Unknown,
            };
            LaneOutcome {
                spec: spec.clone(),
                cancel_latency: (verdict == LaneVerdict::Cancelled)
                    .then(|| cancel.latency())
                    .flatten(),
                verdict,
                model: attempt.model,
                elapsed: start.elapsed(),
                steps_used,
                retried,
                t_trans: analysis.t_infer + attempt.t_trans,
                t_post: attempt.t_post,
                t_check: attempt.t_check,
                stats,
                rungs: Vec::new(),
            }
        }
    }
}

/// Variables a bounded-unsat core implicates: the free variables of the
/// core's assertions, preferring overflow guards (indices below
/// `guard_count` — a guard in the core means the width, not the
/// constraint, forced the conflict). Variable names survive the transform
/// unchanged, so these are original-script names.
fn core_suspects(tf: &Transformed, core: &[usize]) -> Vec<String> {
    let guards: Vec<usize> = core
        .iter()
        .copied()
        .filter(|&i| i < tf.guard_count)
        .collect();
    let chosen = if guards.is_empty() { core } else { &guards[..] };
    let store = tf.script.store();
    let assertions = tf.script.assertions();
    let mut out: Vec<String> = Vec::new();
    for &i in chosen {
        let Some(&root) = assertions.get(i) else {
            continue;
        };
        for sym in store.free_vars(root) {
            let name = store.symbol_name(sym).to_string();
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

/// Doubles the suspects' widths in `widths` (clamped to `max`), returning
/// the variables that actually grew. Prefers suspects still below the
/// current node width — those are the cheap wins; the encoding's node
/// width only grows when every suspect already sits at it. When the
/// suspect list is empty (no usable evidence), every variable is fair
/// game, degrading to the blind global doubling the ladder would do.
fn widen_suspects(
    tf: &Transformed,
    suspects: &[String],
    widths: &mut WidthMap,
    max: u32,
) -> Vec<String> {
    let node = tf.bv_width.unwrap_or(0);
    let implicated = |name: &str| suspects.is_empty() || suspects.iter().any(|s| s == name);
    let mut targets: Vec<(&str, u32)> = tf
        .var_widths
        .iter()
        .filter(|(n, w)| implicated(n) && *w < node)
        .map(|(n, w)| (n.as_str(), *w))
        .collect();
    if targets.is_empty() {
        targets = tf
            .var_widths
            .iter()
            .filter(|(n, _)| implicated(n))
            .map(|(n, w)| (n.as_str(), *w))
            .collect();
    }
    let mut widened = Vec::new();
    for (name, current) in targets {
        let next = current.saturating_mul(2).min(max);
        if next > current {
            widths.widen(name, next);
            widened.push(name.to_string());
        }
    }
    widened
}

/// Executes a [`LaneKind::Refine`] lane: a warm per-variable refinement
/// ladder. Each rung is one bounded attempt with the accumulated
/// [`WidthMap`] (rung 0 solves the planned base transform), solved through
/// a persistent [`BvSession`] (so widened rungs reuse the low-bit encoding
/// and learned clauses), and on an inconclusive verdict widens only the
/// implicated variables:
///
/// * bounded `unsat` → the unsat core's assertions (overflow guards
///   first); a core-free unsat widens everything (global fallback);
/// * bounded `sat` that fails verification → the failed assertions' free
///   variables plus the saturated variables of the bounded model.
///
/// The loop stops at a sound verdict, on cancellation, when widening makes
/// no progress (every implicated variable is at `max_bv_width`), when the
/// same guard-free unsat core survives a doubling of its own variables
/// (width-independent conflict — further rungs would refute it again), or
/// at the depth cap. Rung-by-rung provenance is recorded in
/// [`LaneOutcome::rungs`] and the `refine.*` metrics.
fn run_refine_lane(
    cell: &Cell<'_>,
    spec: &LaneSpec,
    base: WidthChoice,
    depth_cap: u32,
    config: &BatchConfig,
    metrics: &Metrics,
) -> LaneOutcome {
    let (script, analysis, cancel) = (cell.script, &cell.analysis, &cell.cancel);
    let start = Instant::now();
    let mut engine = BvSession::new(spec.profile.sat_config());
    let mut widths = WidthMap::new();
    let mut choice = base;
    let mut rungs: Vec<RefineRung> = Vec::new();
    let mut verdict = LaneVerdict::Unknown;
    let mut model: Option<Model> = None;
    let mut steps_used = 0u64;
    let mut stats = SolverStats::default();
    let mut t_trans = analysis.t_infer;
    let mut t_post = Duration::ZERO;
    let mut t_check = Duration::ZERO;
    let mut last_widths: Vec<(String, u32)> = Vec::new();
    // Variable set of the previous rung's guard-free unsat core, if any.
    // A guard-free core that survives a doubling of its own variables is
    // width-independent evidence: constants always fit the node width, so
    // one doubling clears any domain-boundary artifact the core's
    // variables could have.
    let mut prev_guard_free: Option<Vec<String>> = None;
    for depth in 0..=depth_cap {
        if cancel.is_cancelled() {
            verdict = LaneVerdict::Cancelled;
            break;
        }
        let budget = Budget::with_cancel(config.timeout, config.steps, cancel.clone());
        let translation = analysis.translation(choice, Some(&widths), &config.limits);
        let attempt = bounded_attempt(
            script,
            translation,
            Some(&mut engine),
            spec.profile,
            &budget,
            None,
        );
        t_trans += attempt.t_trans;
        let Some(tf) = attempt.transformed.as_deref() else {
            // A narrow fixed base can fail outright (e.g. a constant too
            // wide for it). Retrying at double the base is the
            // global-doubling fallback; an inferred base already picked
            // the widest usable width, so there is nothing to retry.
            match choice {
                WidthChoice::Fixed(w) if w.saturating_mul(2) <= config.limits.max_bv_width => {
                    choice = WidthChoice::Fixed(w.saturating_mul(2));
                    continue;
                }
                _ => {
                    verdict = LaneVerdict::NotApplicable;
                    break;
                }
            }
        };
        let node_width = tf
            .bv_width
            .or(tf.fp_format.map(|(eb, sb)| eb + sb))
            .unwrap_or(0);
        let total_bits: u64 = tf.var_widths.iter().map(|&(_, w)| u64::from(w)).sum();
        last_widths.clone_from(&tf.var_widths);
        t_post += attempt.t_post;
        t_check += attempt.t_check;
        let rung_steps = budget.steps_used();
        steps_used += rung_steps;
        stats.merge(&attempt.stats);
        let mut rung = RefineRung {
            depth,
            widened: Vec::new(),
            max_width: node_width,
            total_bits,
            steps: rung_steps,
            verdict: "unknown",
        };
        match &attempt.result {
            Some(SatResult::Sat(bounded_model)) => {
                if let Some(m) = attempt.model {
                    rung.verdict = "sat-verified";
                    rungs.push(rung);
                    verdict = LaneVerdict::SatVerified;
                    model = Some(m);
                    break;
                }
                // An unverified bounded sat: the model lies about the
                // original constraint, so some variable's bounded value is
                // an artifact of its width.
                rung.verdict = "unverified-sat";
                let mut suspects = attempt.report.map(|r| r.suspect_vars).unwrap_or_default();
                for name in saturated_vars(tf, bounded_model) {
                    if !suspects.contains(&name) {
                        suspects.push(name);
                    }
                }
                rung.widened =
                    widen_suspects(tf, &suspects, &mut widths, config.limits.max_bv_width);
                let stuck = rung.widened.is_empty();
                rungs.push(rung);
                verdict = LaneVerdict::Unknown;
                if stuck {
                    break;
                }
            }
            Some(SatResult::Unsat) => {
                rung.verdict = "bounded-unsat";
                verdict = LaneVerdict::BoundedUnsat;
                let core: &[usize] = if staub_solver::is_bit_blastable(&tf.script) {
                    engine.last_unsat_core()
                } else {
                    &[]
                };
                let guard_free = !core.is_empty() && core.iter().all(|&i| i >= tf.guard_count);
                let suspects = core_suspects(tf, core);
                if guard_free {
                    let mut vars = suspects.clone();
                    vars.sort_unstable();
                    if prev_guard_free.as_ref() == Some(&vars) {
                        // The same guard-free conflict survived widening
                        // its own variables: the width bound is not what
                        // refutes it, so climbing further cannot help.
                        rungs.push(rung);
                        break;
                    }
                    prev_guard_free = Some(vars);
                } else {
                    prev_guard_free = None;
                }
                rung.widened =
                    widen_suspects(tf, &suspects, &mut widths, config.limits.max_bv_width);
                let stuck = rung.widened.is_empty();
                rungs.push(rung);
                if stuck {
                    break;
                }
            }
            _ => {
                if cancel.is_cancelled() {
                    rung.verdict = "cancelled";
                    verdict = LaneVerdict::Cancelled;
                } else {
                    rung.verdict = "unknown";
                    verdict = LaneVerdict::Unknown;
                }
                rungs.push(rung);
                break;
            }
        }
    }
    if metrics.is_enabled() && !rungs.is_empty() {
        metrics.incr("sched.refine_rungs", rungs.len() as u64);
        metrics.incr(
            &format!("refine.depth.{}", rungs.len().saturating_sub(1)),
            1,
        );
        for (_, w) in &last_widths {
            metrics.incr(&format!("refine.width.{w}"), 1);
        }
    }
    LaneOutcome {
        spec: spec.clone(),
        cancel_latency: (verdict == LaneVerdict::Cancelled)
            .then(|| cancel.latency())
            .flatten(),
        verdict,
        model,
        elapsed: start.elapsed(),
        steps_used,
        retried: false,
        t_trans,
        t_post,
        t_check,
        stats,
        rungs,
    }
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

/// One unit of scheduling: a *group* of lane indices of one cell. Most
/// groups are singletons (independently racing lanes); a profile's
/// bounded lanes form one warm escalation ladder when there are several.
#[derive(Debug, Clone, Copy)]
struct Job {
    cell: usize,
    group: usize,
}

struct CellState {
    outcomes: Vec<Option<LaneOutcome>>,
    winner: Option<usize>,
    time_to_answer: Option<Duration>,
    remaining: usize,
    finished_at: Option<Instant>,
}

/// Per-constraint shared state: analysis, lane plan, sibling cancel flag,
/// results.
struct Cell<'a> {
    name: &'a str,
    script: &'a Script,
    analysis: Analysis,
    specs: Vec<LaneSpec>,
    /// Lane indices grouped into schedulable jobs (see [`Job`]).
    groups: Vec<Vec<usize>>,
    cancel: CancelFlag,
    started: Instant,
    state: Mutex<CellState>,
}

/// Groups a cell's lanes into schedulable jobs. Baseline and DL lanes get
/// singleton groups and race; each profile's bounded lanes (plan order =
/// ascending width) form one ladder group.
fn plan_groups(specs: &[LaneSpec]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut ladder_of_profile: Vec<(SolverProfile, usize)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if !spec.is_staub() {
            groups.push(vec![i]);
            continue;
        }
        match ladder_of_profile.iter().find(|(p, _)| *p == spec.profile) {
            Some(&(_, g)) => groups[g].push(i),
            None => {
                groups.push(vec![i]);
                ladder_of_profile.push((spec.profile, groups.len() - 1));
            }
        }
    }
    groups
}

/// Options for the canonical scheduler entrypoints ([`run_batch_with`],
/// [`run_one_with`]).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Metrics registry recording `sched.*` / `solver.*` events; `None`
    /// disables observation (zero overhead beyond one branch per event).
    pub metrics: Option<Arc<Metrics>>,
}

/// Runs every constraint through its lane fan-out on a fixed worker pool
/// and returns one report per constraint, in input order.
///
/// With `options.metrics` attached, records per-lane events
/// (`sched.lane_started` / `sched.lane_skipped` / `sched.lane_cancelled` /
/// `sched.lane_won`), cancel latency and lane wall-clock histograms,
/// per-label win counters (`sched.wins.<label>`), deterministic steps,
/// per-label solver counters (`solver.<label>.<field>`), and ladder
/// events (`sched.ladder_jobs` / `sched.warm_rungs`).
pub fn run_batch_with(
    items: &[BatchItem],
    config: &BatchConfig,
    options: &RunOptions,
) -> Vec<BatchReport> {
    let cells = items.iter().map(|item| (item.name.as_str(), &item.script));
    run_cells(cells, config, options)
}

/// [`run_batch_with`] for a single constraint: plan, run, report — the
/// entry point the `staub serve` request path uses, so long-running
/// servers accumulate the same `sched.*` / `solver.*` counters batch runs
/// report.
pub fn run_one_with(
    name: &str,
    script: &Script,
    config: &BatchConfig,
    options: &RunOptions,
) -> BatchReport {
    run_cells(std::iter::once((name, script)), config, options)
        .pop()
        .expect("one item in, one report out")
}

fn run_cells<'a>(
    items: impl Iterator<Item = (&'a str, &'a Script)>,
    config: &BatchConfig,
    options: &RunOptions,
) -> Vec<BatchReport> {
    let disabled;
    let metrics: &Metrics = match &options.metrics {
        Some(m) => m,
        None => {
            disabled = Metrics::disabled();
            &disabled
        }
    };
    let workers = config.worker_count().max(1);
    metrics.gauge_set("sched.workers", workers as i64);
    let cells: Vec<Cell<'_>> = items
        .map(|(name, script)| {
            let analysis = Analysis::of(script, config);
            let specs = plan(&analysis, config);
            let lanes = specs.len();
            let groups = plan_groups(&specs);
            Cell {
                name,
                script,
                analysis,
                specs,
                groups,
                cancel: CancelFlag::new(),
                started: Instant::now(),
                state: Mutex::new(CellState {
                    outcomes: vec![None; lanes],
                    winner: None,
                    time_to_answer: None,
                    remaining: lanes,
                    finished_at: None,
                }),
            }
        })
        .collect();
    metrics.incr("sched.constraints", cells.len() as u64);

    // Seed the per-worker deques round-robin by job, so a constraint's
    // sibling jobs start on distinct workers and race for the first sound
    // answer. Workers drain their own deque front-first and steal from the
    // back of others'; no job is ever enqueued after this point, so an
    // empty sweep over every deque is a sound termination condition.
    let queues: Vec<Mutex<VecDeque<Job>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let mut next = 0usize;
    for (ci, cell) in cells.iter().enumerate() {
        for gi in 0..cell.groups.len() {
            queues[next % workers]
                .lock()
                .expect("queue lock")
                .push_back(Job {
                    cell: ci,
                    group: gi,
                });
            next += 1;
        }
    }

    std::thread::scope(|scope| {
        for wid in 0..workers {
            let queues = &queues;
            let cells = &cells;
            scope.spawn(move || worker_loop(wid, queues, cells, config, metrics));
        }
    });

    cells
        .into_iter()
        .map(|cell| {
            let state = cell.state.into_inner().expect("no worker panicked");
            let lanes: Vec<LaneOutcome> = state
                .outcomes
                .into_iter()
                .map(|o| o.expect("every lane ran"))
                .collect();
            let verdict = match state.winner {
                Some(i) => match (&lanes[i].verdict, &lanes[i].model) {
                    (LaneVerdict::Unsat, _) => BatchVerdict::Unsat,
                    (_, Some(m)) => BatchVerdict::Sat(m.clone()),
                    _ => BatchVerdict::Unknown,
                },
                None => BatchVerdict::Unknown,
            };
            let fragment = cell.analysis.certificate.fragment.name();
            let unknown_reason = match verdict {
                BatchVerdict::Unknown => {
                    // Was the constraint within a complete lane's reach? If
                    // so, only the budget stood between it and a verdict.
                    // Otherwise, distinguish "linear but no complete lane
                    // fit" from "not linear at all".
                    let eligible = cell
                        .specs
                        .iter()
                        .any(|s| matches!(s.kind, LaneKind::Complete { .. } | LaneKind::DiffLogic));
                    Some(if eligible {
                        "budget"
                    } else if fragment != "ineligible" {
                        "linear-non-dl"
                    } else {
                        "ineligible-fragment"
                    })
                }
                _ => None,
            };
            BatchReport {
                name: cell.name.to_string(),
                verdict,
                winner: state.winner,
                lanes,
                wall: state
                    .finished_at
                    .map_or(Duration::ZERO, |t| t.duration_since(cell.started)),
                time_to_answer: state.time_to_answer,
                fragment,
                unknown_reason,
            }
        })
        .collect()
}

fn worker_loop(
    wid: usize,
    queues: &[Mutex<VecDeque<Job>>],
    cells: &[Cell<'_>],
    config: &BatchConfig,
    metrics: &Metrics,
) {
    loop {
        let job = next_job(wid, queues);
        let Some(job) = job else { return };
        execute_job(job, cells, config, metrics);
    }
}

fn next_job(wid: usize, queues: &[Mutex<VecDeque<Job>>]) -> Option<Job> {
    if let Some(job) = queues[wid].lock().expect("queue lock").pop_front() {
        return Some(job);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (wid + offset) % n;
        if let Some(job) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some(job);
        }
    }
    None
}

fn execute_job(job: Job, cells: &[Cell<'_>], config: &BatchConfig, metrics: &Metrics) {
    let cell = &cells[job.cell];
    let group = &cell.groups[job.group];
    if group.len() == 1 {
        // A lone lane solves on a fresh solver.
        let lane = group[0];
        let spec = &cell.specs[lane];
        let outcome = if config.cancel_losers && cell.cancel.is_cancelled() {
            metrics.incr("sched.lane_skipped", 1);
            LaneOutcome::skipped(spec, &cell.cancel)
        } else {
            metrics.incr("sched.lane_started", 1);
            run_lane(cell, spec, config, None, metrics)
        };
        submit(cell, lane, outcome, config, metrics);
        return;
    }
    // An escalation ladder: this profile's bounded lanes run sequentially
    // (ascending width, plan order) on one warm engine, so each rung
    // re-uses the previous rung's low-bit encoding, learned clauses,
    // phases, and activities. The ladder stops at the first sound rung.
    metrics.incr("sched.ladder_jobs", 1);
    let mut engine = BvSession::new(cell.specs[group[0]].profile.sat_config());
    let mut answered = false;
    for &lane in group {
        let spec = &cell.specs[lane];
        let decided = answered || (config.cancel_losers && cell.cancel.is_cancelled());
        let outcome = if decided {
            metrics.incr("sched.lane_skipped", 1);
            LaneOutcome::skipped(spec, &cell.cancel)
        } else {
            metrics.incr("sched.lane_started", 1);
            metrics.incr("sched.warm_rungs", 1);
            run_lane(cell, spec, config, Some(&mut engine), metrics)
        };
        if outcome.verdict.is_sound() {
            answered = true;
        }
        submit(cell, lane, outcome, config, metrics);
    }
}

/// Records a finished lane into its cell: metrics, winner bookkeeping,
/// sibling cancellation.
fn submit(
    cell: &Cell<'_>,
    lane: usize,
    outcome: LaneOutcome,
    config: &BatchConfig,
    metrics: &Metrics,
) {
    let spec = &cell.specs[lane];
    if metrics.is_enabled() {
        metrics.observe("sched.lane_elapsed", outcome.elapsed);
        metrics.incr("sched.lane_steps", outcome.steps_used);
        if outcome.verdict == LaneVerdict::Cancelled {
            metrics.incr("sched.lane_cancelled", 1);
            if let Some(latency) = outcome.cancel_latency {
                metrics.observe("sched.cancel_latency", latency);
            }
        }
        metrics.record_solver(&format!("solver.{}", spec.label()), &outcome.stats);
    }
    let sound = outcome.verdict.is_sound();
    let mut state = cell.state.lock().expect("cell lock");
    state.outcomes[lane] = Some(outcome);
    state.remaining -= 1;
    if state.remaining == 0 {
        state.finished_at = Some(Instant::now());
    }
    if sound && state.winner.is_none() {
        state.winner = Some(lane);
        state.time_to_answer = Some(cell.started.elapsed());
        metrics.incr("sched.lane_won", 1);
        metrics.incr(&format!("sched.wins.{}", spec.label()), 1);
        if config.cancel_losers {
            cell.cancel.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BatchConfig {
        BatchConfig {
            threads: 2,
            timeout: Duration::from_secs(30),
            steps: 400_000,
            ..Default::default()
        }
    }

    fn item(name: &str, src: &str) -> BatchItem {
        BatchItem {
            name: name.to_string(),
            script: Script::parse(src).unwrap(),
        }
    }

    #[test]
    fn batch_solves_mixed_verdicts() {
        let items = [
            item("sq49", "(declare-fun x () Int)(assert (= (* x x) 49))"),
            item(
                "unsat7",
                "(declare-fun x () Int)(assert (>= x 0))(assert (<= x 3))(assert (= (* x x) 7))",
            ),
        ];
        let reports = run_batch_with(&items, &quick_config(), &RunOptions::default());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].verdict.name(), "sat");
        assert_eq!(reports[1].verdict.name(), "unsat");
        for r in &reports {
            assert!(r.winner.is_some(), "{}: some lane answers", r.name);
            assert_eq!(
                r.lanes.len(),
                plan_lanes(&items[0].script, &quick_config()).len()
            );
        }
    }

    #[test]
    fn warm_ladder_escalates() {
        // x² − y² = 239 (prime): the only non-negative witness is
        // x = 120, y = 119, whose squares overflow 9-bit signed guards —
        // bounded-unsat at the base width, verified sat at the ×2 rung.
        let src = "(declare-fun x () Int)(declare-fun y () Int)
            (assert (>= x 0))(assert (>= y 0))
            (assert (= (- (* x x) (* y y)) 239))";
        let items = [item("prime-diff", src)];
        let config = BatchConfig {
            threads: 1,
            width_choice: WidthChoice::Fixed(9),
            include_baseline: false,
            cancel_losers: false,
            ..quick_config()
        };
        let metrics = Arc::new(Metrics::new());
        let warm = run_batch_with(
            &items,
            &config,
            &RunOptions {
                metrics: Some(Arc::clone(&metrics)),
            },
        );
        assert_eq!(warm[0].verdict.name(), "sat");
        let p = warm[0].provenance().expect("warm run has a winner");
        assert!(p.multiplier > 1, "escalated rung answers: {p:?}");
        assert!(p.steps > 0);
        // The ladder stops at the first sound rung; the ×4 rung is skipped.
        assert_eq!(
            warm[0].lanes.last().unwrap().verdict,
            LaneVerdict::Cancelled
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["sched.ladder_jobs"], 1);
        assert_eq!(snap.counters["sched.warm_rungs"], 2);
    }

    #[test]
    fn base_rung_reports_the_planned_transform_time() {
        // The base rung solves the planned transform instead of redoing
        // it, and reports the planned inference and translation time as
        // its own `t_trans`; so does the refine lane's rung 0.
        let items = [item(
            "sq49",
            "(declare-fun x () Int)(assert (= (* x x) 49))",
        )];
        for refine in [false, true] {
            let config = BatchConfig {
                threads: 1,
                include_baseline: false,
                cancel_losers: false,
                refine,
                ..quick_config()
            };
            let report = &run_batch_with(&items, &config, &RunOptions::default())[0];
            let base = &report.lanes[0];
            assert!(base.spec.is_staub(), "{}", base.spec.label());
            assert_eq!(base.verdict, LaneVerdict::SatVerified);
            assert!(base.t_trans > Duration::ZERO, "{}", base.spec.label());
        }
    }

    #[test]
    fn refine_plan_replaces_escalations() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let config = BatchConfig {
            refine: true,
            ..quick_config()
        };
        let lanes = plan_lanes(&script, &config);
        // baseline + one refine lane; no x1/x2/x4 fan-out.
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].kind, LaneKind::Baseline);
        assert!(matches!(lanes[1].kind, LaneKind::Refine { depth: 5, .. }));
        assert_eq!(lanes[1].label(), "refine/zed");
        assert!(lanes[1].is_staub());
    }

    #[test]
    fn refine_lane_agrees_with_blind_ladder() {
        // x² − y² = 239 (prime): witness x = 120, y = 119 overflows 9-bit
        // signed guards, so the base rung is bounded-unsat with the guards
        // in the core — refinement must widen and then verify the witness.
        let src = "(declare-fun x () Int)(declare-fun y () Int)
            (assert (>= x 0))(assert (>= y 0))
            (assert (= (- (* x x) (* y y)) 239))";
        let items = [item("prime-diff", src)];
        let blind_config = BatchConfig {
            threads: 1,
            width_choice: WidthChoice::Fixed(9),
            include_baseline: false,
            cancel_losers: false,
            ..quick_config()
        };
        let refine_config = BatchConfig {
            refine: true,
            ..blind_config.clone()
        };
        let blind = run_batch_with(&items, &blind_config, &RunOptions::default());
        let metrics = Arc::new(Metrics::new());
        let refined = run_batch_with(
            &items,
            &refine_config,
            &RunOptions {
                metrics: Some(Arc::clone(&metrics)),
            },
        );
        assert_eq!(refined[0].verdict.name(), "sat");
        assert_eq!(blind[0].verdict.name(), refined[0].verdict.name());
        let p = refined[0].provenance().expect("refine lane answers");
        assert_eq!(p.label, "refine/zed");
        let lane = refined[0].winner_lane().unwrap();
        assert!(lane.rungs.len() >= 2, "needs at least one widening rung");
        // Rung provenance: the first rung is bounded-unsat and names the
        // widened variables; the last rung verified.
        assert_eq!(lane.rungs[0].verdict, "bounded-unsat");
        assert!(!lane.rungs[0].widened.is_empty());
        assert_eq!(lane.rungs.last().unwrap().verdict, "sat-verified");
        // Per-rung widths are monotone and capped.
        for pair in lane.rungs.windows(2) {
            assert!(pair[1].total_bits > pair[0].total_bits, "{:?}", lane.rungs);
        }
        for rung in &lane.rungs {
            assert!(rung.max_width <= refine_config.limits.max_bv_width);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["sched.refine_rungs"], lane.rungs.len() as u64);
        assert!(snap.counters.keys().any(|k| k.starts_with("refine.depth.")));
        assert!(snap.counters.keys().any(|k| k.starts_with("refine.width.")));
        // JSONL carries the rung records.
        let jsonl = refined[0].to_jsonl();
        assert!(jsonl.contains("\"rungs\":[{\"depth\":0,"), "{jsonl}");
        assert!(jsonl.contains("\"verdict\":\"sat-verified\""), "{jsonl}");
    }

    #[test]
    fn refine_depth_cap_bounds_the_loop() {
        // x² = 7 has no integer solution: every rung is bounded-unsat, so
        // the loop must stop at the depth cap (or earlier, at the width
        // cap) without a sound verdict — never hanging, never lying.
        let items = [item("sq7", "(declare-fun x () Int)(assert (= (* x x) 7))")];
        let config = BatchConfig {
            threads: 1,
            width_choice: WidthChoice::Fixed(4),
            include_baseline: false,
            cancel_losers: false,
            refine: true,
            refine_depth: 2,
            ..quick_config()
        };
        let report = &run_batch_with(&items, &config, &RunOptions::default())[0];
        let lane = report
            .lanes
            .iter()
            .find(|l| matches!(l.spec.kind, LaneKind::Refine { .. }))
            .expect("refine lane planned");
        assert!(lane.rungs.len() <= 3, "depth 2 = at most 3 rungs");
        assert!(!lane.verdict.is_sound(), "bounded unsat is never trusted");
        // Progress: every non-final rung strictly grew some variable.
        for pair in lane.rungs.windows(2) {
            assert!(pair[1].total_bits > pair[0].total_bits);
        }
    }

    #[test]
    fn refine_stops_on_width_independent_conflict() {
        // w0 + w1 = 9 with both boxed into [0, 3] is unsat at every
        // width, and the conflict never touches an overflow guard. Once a
        // widening of the core's own variables fails to change the
        // conflict, the loop must stop — well short of the depth cap —
        // instead of doubling all the way to the width ceiling.
        let items = [item(
            "boxed-sum",
            "(declare-fun w0 () Int)(declare-fun w1 () Int)
             (assert (= (+ w0 w1) 9))
             (assert (>= w0 0))(assert (<= w0 3))
             (assert (>= w1 0))(assert (<= w1 3))",
        )];
        let config = BatchConfig {
            threads: 1,
            width_choice: WidthChoice::Fixed(8),
            include_baseline: false,
            cancel_losers: false,
            refine: true,
            ..quick_config()
        };
        let report = &run_batch_with(&items, &config, &RunOptions::default())[0];
        // Pure LIA: the certified complete lane soundly proves the unsat
        // the refine lane can only bound — the portfolio still answers.
        assert_eq!(report.verdict.name(), "unsat");
        let lane = report
            .lanes
            .iter()
            .find(|l| matches!(l.spec.kind, LaneKind::Refine { .. }))
            .expect("refine lane planned");
        assert_eq!(lane.verdict, LaneVerdict::BoundedUnsat);
        assert!(
            lane.rungs.len() <= 2,
            "width-independent conflict stops after one retry: {:?}",
            lane.rungs
        );
        assert!(lane.rungs.iter().all(|r| r.verdict == "bounded-unsat"));
        // The final rung records the stop: nothing was widened there.
        assert!(lane.rungs.last().unwrap().widened.is_empty());
    }

    #[test]
    fn complete_lane_promotes_certified_linear_unsat() {
        // 2x + 2y = 7: even ≠ odd, unsat at every width — and pure LIA, so
        // the certified width makes the bounded encoding equisatisfiable.
        // With no baseline and no escalations, the complete lane is the
        // only possible source of a sound unsat.
        let items = [item(
            "parity",
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (= (+ (* 2 x) (* 2 y)) 7))",
        )];
        let config = BatchConfig {
            include_baseline: false,
            escalations: Vec::new(),
            cancel_losers: false,
            ..quick_config()
        };
        let specs = plan_lanes(&items[0].script, &config);
        assert!(
            specs
                .iter()
                .any(|s| matches!(s.kind, LaneKind::Complete { .. })),
            "pure LIA plans a complete lane: {specs:?}"
        );
        let report = &run_batch_with(&items, &config, &RunOptions::default())[0];
        assert_eq!(report.verdict.name(), "unsat");
        assert_eq!(report.fragment, "lia");
        assert_eq!(report.unknown_reason, None);
        let p = report.provenance().expect("complete lane answers");
        assert!(p.label.starts_with("complete/"), "{p:?}");
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains("\"fragment\":\"lia\""), "{jsonl}");
        assert!(jsonl.contains("\"unknown_reason\":null"), "{jsonl}");
    }

    #[test]
    fn nonlinear_scripts_plan_no_complete_lane() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let specs = plan_lanes(&script, &quick_config());
        assert!(
            specs
                .iter()
                .all(|s| !matches!(s.kind, LaneKind::Complete { .. })),
            "nonlinear must not get a complete lane: {specs:?}"
        );
    }

    #[test]
    fn unknown_reason_distinguishes_budget_from_fragment() {
        // A starvation budget: no lane can answer either constraint, but
        // the linear one was a complete-lane candidate (budget) while the
        // nonlinear one never was (ineligible fragment). The linear item
        // is a Bézout equation — satisfiable, but finding a witness needs
        // search the 1-step budget forbids (a propagation-only unsat would
        // resolve before the budget is ever consulted).
        let items = [
            item(
                "linear",
                "(declare-fun x () Int)(declare-fun y () Int)
                 (assert (= (+ (* 997 x) (* 991 y)) 1))",
            ),
            item("nonlinear", "(declare-fun x () Int)(assert (= (* x x) 7))"),
        ];
        let config = BatchConfig {
            steps: 1,
            include_baseline: false,
            escalations: Vec::new(),
            cancel_losers: false,
            ..quick_config()
        };
        let reports = run_batch_with(&items, &config, &RunOptions::default());
        assert_eq!(reports[0].verdict.name(), "unknown");
        assert_eq!(reports[0].unknown_reason, Some("budget"));
        assert_eq!(reports[1].verdict.name(), "unknown");
        assert_eq!(reports[1].unknown_reason, Some("ineligible-fragment"));
        assert!(reports[1]
            .to_jsonl()
            .contains("\"unknown_reason\":\"ineligible-fragment\""));
    }

    #[test]
    fn complete_lane_agrees_with_baseline_on_sat() {
        // A satisfiable linear system: the complete lane must never turn
        // sat into unsat — its bounded box contains a witness by
        // construction.
        let items = [item(
            "feasible",
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (>= (+ x y) 10))(assert (<= (- x y) 3))",
        )];
        let config = BatchConfig {
            include_baseline: false,
            escalations: Vec::new(),
            cancel_losers: false,
            ..quick_config()
        };
        let report = &run_batch_with(&items, &config, &RunOptions::default())[0];
        assert_eq!(report.verdict.name(), "sat");
        // Every complete lane that ran either verified a model or stayed
        // inconclusive — never a (promoted) unsat.
        for lane in &report.lanes {
            if matches!(lane.spec.kind, LaneKind::Complete { .. }) {
                assert_ne!(lane.verdict, LaneVerdict::Unsat, "{}", lane.spec.label());
            }
        }
    }

    #[test]
    fn sat_winners_carry_verified_models() {
        let items = [item(
            "sq121",
            "(declare-fun x () Int)(assert (= (* x x) 121))",
        )];
        let report = &run_batch_with(&items, &quick_config(), &RunOptions::default())[0];
        match &report.verdict {
            BatchVerdict::Sat(model) => {
                for &a in items[0].script.assertions() {
                    assert_eq!(
                        staub_smtlib::evaluate(items[0].script.store(), a, model).unwrap(),
                        staub_smtlib::Value::Bool(true)
                    );
                }
            }
            other => panic!("expected sat, got {}", other.name()),
        }
    }

    #[test]
    fn lane_plan_includes_escalations_and_dedups() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let config = quick_config();
        let lanes = plan_lanes(&script, &config);
        // baseline + x1 + x2 + x4 under one profile.
        assert_eq!(lanes.len(), 4);
        assert_eq!(lanes[0].kind, LaneKind::Baseline);
        let labels: Vec<String> = lanes.iter().map(LaneSpec::label).collect();
        assert_eq!(labels[1], "staub/x1/zed");
        assert!(labels.contains(&"staub/x2/zed".to_string()));
        // Escalations beyond max_bv_width are dropped.
        let narrow = BatchConfig {
            limits: SortLimits {
                max_bv_width: 10,
                ..SortLimits::default()
            },
            ..config
        };
        let lanes = plan_lanes(&script, &narrow);
        assert!(
            lanes
                .iter()
                .all(|l| !matches!(l.kind, LaneKind::Staub { escalation, .. } if escalation == 4)),
            "4x escalation exceeds the 10-bit cap"
        );
    }

    #[test]
    fn both_profiles_double_the_lanes() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let config = BatchConfig {
            profiles: vec![SolverProfile::Zed, SolverProfile::Cove],
            ..quick_config()
        };
        let lanes = plan_lanes(&script, &config);
        let zed = lanes
            .iter()
            .filter(|l| l.profile == SolverProfile::Zed)
            .count();
        let cove = lanes
            .iter()
            .filter(|l| l.profile == SolverProfile::Cove)
            .count();
        assert_eq!(zed, cove);
        assert_eq!(lanes.len(), zed * 2);
    }

    #[test]
    fn jsonl_is_well_formed_and_escaped() {
        let items = [item(
            "weird\"name\\with\ttabs",
            "(declare-fun x () Int)(assert (= (* x x) 49))",
        )];
        let line = run_batch_with(&items, &quick_config(), &RunOptions::default())[0].to_jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\\\"name\\\\with\\t"));
        assert!(line.contains("\"verdict\":\"sat\""));
        assert!(line.contains("\"lanes\":["));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn jsonl_contains_stats_block() {
        let items = [item("s", "(declare-fun x () Int)(assert (= (* x x) 49))")];
        let config = BatchConfig {
            cancel_losers: false,
            ..quick_config()
        };
        let line = run_batch_with(&items, &config, &RunOptions::default())[0].to_jsonl();
        assert!(line.contains("\"stats\":{\"stages\":{\"pre_ms\":"));
        assert!(line.contains("\"trans_ms\":"));
        // Every lane record in the stats block carries the full counter set.
        for field in ["decisions", "propagations", "bb_nodes", "fp_moves"] {
            assert!(line.contains(&format!("\"{field}\":")), "missing {field}");
        }
        // Without cancellation some lane did real solver work.
        let reports = run_batch_with(&items, &config, &RunOptions::default());
        assert!(reports[0]
            .lanes
            .iter()
            .any(|l| l.stats != SolverStats::default()));
    }

    #[test]
    fn observed_batch_records_lane_events() {
        let metrics = Arc::new(Metrics::new());
        let items = [item("s", "(declare-fun x () Int)(assert (= (* x x) 49))")];
        run_batch_with(
            &items,
            &quick_config(),
            &RunOptions {
                metrics: Some(Arc::clone(&metrics)),
            },
        );
        let snap = metrics.snapshot();
        assert!(snap.counters["sched.lane_started"] >= 1);
        assert_eq!(snap.counters["sched.lane_won"], 1);
        assert!(snap.counters.keys().any(|k| k.starts_with("sched.wins.")));
        assert!(snap.histograms.contains_key("sched.lane_elapsed"));
        assert_eq!(snap.gauges["sched.workers"], 2);
    }

    #[test]
    fn to_portfolio_maps_winner_and_timings() {
        let items = [item(
            "sq64",
            "(declare-fun x () Int)(assert (= (* x x) 64))",
        )];
        let config = BatchConfig {
            cancel_losers: false,
            ..quick_config()
        };
        let report = &run_batch_with(&items, &config, &RunOptions::default())[0];
        let p = report.to_portfolio();
        assert!(p.verified, "bounded path verifies x^2 = 64");
        assert!(p.t_trans > Duration::ZERO);
        assert!(p.speedup() >= 1.0);
        // Without cancellation the baseline lane finished on its own.
        assert!(report.baseline_lane().unwrap().verdict.is_sound());
    }

    #[test]
    fn single_thread_pool_still_completes() {
        let items = [
            item("a", "(declare-fun x () Int)(assert (= (* x x) 49))"),
            item("b", "(declare-fun p () Bool)(assert p)"),
        ];
        let config = BatchConfig {
            threads: 1,
            ..quick_config()
        };
        let reports = run_batch_with(&items, &config, &RunOptions::default());
        assert!(reports.iter().all(|r| r.winner.is_some()));
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(run_batch_with(&[], &BatchConfig::default(), &RunOptions::default()).is_empty());
    }

    const DL_SAT: &str = "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
        (assert (<= (- x y) 3))(assert (<= (- y z) (- 1)))(assert (<= (- z x) (- 1)))";
    const DL_UNSAT: &str = "(declare-fun x () Int)(declare-fun y () Int)
        (assert (<= (- x y) 1))(assert (< (- y x) (- 1)))";

    #[test]
    fn dl_lane_is_planned_first_and_only_for_dl_scripts() {
        let config = quick_config();
        let dl = Script::parse(DL_SAT).unwrap();
        let lanes = plan_lanes(&dl, &config);
        assert_eq!(lanes[0].kind, LaneKind::DiffLogic);
        assert_eq!(lanes[0].label(), "dl/zed");
        assert!(!lanes[0].is_staub(), "never joins escalation ladders");
        assert_eq!(
            lanes
                .iter()
                .filter(|l| l.kind == LaneKind::DiffLogic)
                .count(),
            1,
            "one DL lane even with several profiles"
        );

        let non_dl = Script::parse("(declare-fun x () Int)(assert (>= (+ x x) 4))").unwrap();
        assert!(
            !plan_lanes(&non_dl, &config)
                .iter()
                .any(|l| l.kind == LaneKind::DiffLogic),
            "coefficient 2 is not difference logic"
        );
        assert!(
            !plan_lanes(
                &dl,
                &BatchConfig {
                    dl: false,
                    ..quick_config()
                }
            )
            .iter()
            .any(|l| l.kind == LaneKind::DiffLogic),
            "config.dl = false suppresses the lane"
        );
    }

    #[test]
    fn dl_lane_decides_both_verdicts_with_trusted_provenance() {
        let config = BatchConfig {
            include_baseline: false,
            escalations: Vec::new(),
            cancel_losers: false,
            ..quick_config()
        };
        let items = [item("dl-sat", DL_SAT), item("dl-unsat", DL_UNSAT)];
        let reports = run_batch_with(&items, &config, &RunOptions::default());
        assert_eq!(reports[0].verdict.name(), "sat");
        assert_eq!(reports[1].verdict.name(), "unsat");
        for r in &reports {
            let p = r.provenance().expect("DL lane answers");
            assert_eq!(p.label, "dl/zed");
            assert_eq!(p.multiplier, 0, "no width, no escalation");
            let lane = r.winner_lane().unwrap();
            assert!(lane.rungs.is_empty(), "never escalates");
        }
        match &reports[0].verdict {
            BatchVerdict::Sat(m) => {
                assert!(crate::verify::verify_model(&items[0].script, m));
            }
            v => panic!("expected sat, got {}", v.name()),
        }
    }

    #[test]
    fn unknown_reason_distinguishes_linear_from_nonlinear() {
        // Zero budget forces unknowns; fragments then pick the reason.
        let config = BatchConfig {
            steps: 1,
            timeout: Duration::from_millis(1),
            include_baseline: false,
            escalations: Vec::new(),
            dl: false,
            ..quick_config()
        };
        // Linear but not DL (coefficient 2), certificate too wide for no
        // complete lane? — keep it simple: shrink the width limit so the
        // complete lane is not planned either.
        let tight = BatchConfig {
            limits: SortLimits {
                max_bv_width: 2,
                ..SortLimits::default()
            },
            ..config.clone()
        };
        let linear = [item(
            "linear",
            "(declare-fun x () Int)(assert (>= (+ x x) 4))",
        )];
        let r = run_batch_with(&linear, &tight, &RunOptions::default());
        assert_eq!(r[0].verdict.name(), "unknown");
        assert_eq!(r[0].unknown_reason, Some("linear-non-dl"));

        let nonlinear = [item("nl", "(declare-fun x () Int)(assert (= (* x x) 49))")];
        let r = run_batch_with(&nonlinear, &tight, &RunOptions::default());
        assert_eq!(r[0].verdict.name(), "unknown");
        assert_eq!(r[0].unknown_reason, Some("ineligible-fragment"));
    }
}
