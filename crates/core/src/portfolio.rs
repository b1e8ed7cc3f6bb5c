//! Portfolio measurement (paper §4.4 / §5.1).
//!
//! The paper's methodology runs STAUB and the baseline solver on two cores
//! and takes the first sound answer, so no constraint is ever slowed down.
//! The race itself is the batch scheduler's ([`crate::sched`]). This
//! module holds its report shape, [`PortfolioReport`], and [`measure`]: a
//! *sequential* run of both paths that records every timing component
//! (`T_pre`, `T_trans`, `T_post`, `T_check`) and derives the
//! portfolio-effective time. The evaluation harness uses it because
//! racing threads perturb each other's timings.

use std::time::{Duration, Instant};

use staub_smtlib::Script;
#[cfg(test)]
use staub_solver::UnknownReason;
use staub_solver::{Budget, SatResult, Solver};

use crate::absint;
use crate::pipeline::{bounded_attempt, Staub, Translation};

/// Which path won the portfolio race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Winner {
    /// The baseline solver on the original constraint.
    Baseline,
    /// The STAUB pipeline (verified bounded answer).
    Staub,
    /// Neither answered (both timed out / unknown).
    Neither,
}

/// Full measurement record for one constraint (one row of the paper's
/// Fig. 7 scatter plots; aggregated into Tables 2–3).
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Baseline result on the original constraint.
    pub baseline_result: SatResult,
    /// Baseline solving time `T_pre`.
    pub t_pre: Duration,
    /// Transformation time `T_trans` (inference + translation).
    pub t_trans: Duration,
    /// Bounded solving time `T_post` (zero when transformation failed).
    pub t_post: Duration,
    /// Verification time `T_check`.
    pub t_check: Duration,
    /// Did the bounded path produce a *verified* sat answer?
    pub verified: bool,
    /// Result of the bounded path before verification (diagnostics).
    pub bounded_result: Option<SatResult>,
    /// Who supplies the portfolio answer.
    pub winner: Winner,
}

impl PortfolioReport {
    /// Total STAUB-path time: `T_trans + T_post + T_check`.
    pub fn t_staub(&self) -> Duration {
        self.t_trans + self.t_post + self.t_check
    }

    /// The portfolio-effective final time: with both paths running on their
    /// own core, the user waits for the earlier sound answer.
    pub fn t_final(&self) -> Duration {
        if self.verified {
            self.t_pre.min(self.t_staub())
        } else {
            self.t_pre
        }
    }

    /// Finite ceiling for [`speedup`](PortfolioReport::speedup). Aggregation
    /// takes logarithms (geometric means), so an "infinite" speedup from a
    /// zero `t_final` must be reported as a large finite value instead of
    /// `f64::INFINITY`.
    pub const SPEEDUP_CAP: f64 = 1e6;

    /// The speedup ratio `α = T_pre / T_final` (1.0 when STAUB offers no
    /// improvement), clamped to [`Self::SPEEDUP_CAP`]. A zero `t_final`
    /// against a nonzero `t_pre` reports the cap — not 1.0, which would
    /// hide the largest wins from the aggregates.
    pub fn speedup(&self) -> f64 {
        let t_final = self.t_final().as_secs_f64();
        let t_pre = self.t_pre.as_secs_f64();
        if t_final == 0.0 {
            if t_pre == 0.0 {
                1.0
            } else {
                Self::SPEEDUP_CAP
            }
        } else {
            (t_pre / t_final).min(Self::SPEEDUP_CAP)
        }
    }

    /// A *tractability improvement*: the baseline had no answer but STAUB
    /// produced a verified one (§5.1).
    pub fn tractability_improvement(&self) -> bool {
        self.baseline_result.is_unknown() && self.verified
    }
}

/// Sequentially measures both portfolio legs with separate budgets.
pub fn measure(staub: &Staub, script: &Script) -> PortfolioReport {
    let config = staub.config();

    // Leg 1: inference, then the one bounded attempt every bounded lane of
    // the batch scheduler (`crate::sched`) runs, on a fresh solver — so the
    // sequential and scheduled paths measure identical code.
    let budget = Budget::new(config.timeout, config.steps);
    let t0 = Instant::now();
    let bounds = absint::infer(script);
    let t_infer = t0.elapsed();
    let translation = Translation::At {
        bounds: &bounds,
        width: config.width_choice,
        widths: None,
        limits: &config.limits,
    };
    let attempt = bounded_attempt(script, translation, None, config.profile, &budget, None);
    let (t_trans, t_post, t_check) = (t_infer + attempt.t_trans, attempt.t_post, attempt.t_check);
    let verified = attempt.model.is_some();
    let bounded_result = attempt.result;

    // Leg 2: baseline on the original constraint.
    let solver = Solver::new(config.profile)
        .with_timeout(config.timeout)
        .with_steps(config.steps);
    let t3 = Instant::now();
    let baseline = solver.solve(script);
    let t_pre = t3.elapsed();

    let winner = if verified && (baseline.result.is_unknown() || t_trans + t_post + t_check < t_pre)
    {
        Winner::Staub
    } else if baseline.result.is_unknown() {
        Winner::Neither
    } else {
        Winner::Baseline
    };
    PortfolioReport {
        baseline_result: baseline.result,
        t_pre,
        t_trans,
        t_post,
        t_check,
        verified,
        bounded_result,
        winner,
    }
}

/// Convenience used in tests: classify a report against ground truth.
pub fn consistent_with(report: &PortfolioReport, expected_sat: Option<bool>) -> bool {
    match expected_sat {
        Some(true) => !report.baseline_result.is_unsat(),
        Some(false) => !report.baseline_result.is_sat() && !report.verified,
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StaubConfig;

    fn staub() -> Staub {
        Staub::new(StaubConfig {
            timeout: Duration::from_secs(5),
            ..Default::default()
        })
    }

    #[test]
    fn measure_reports_all_timings() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 49))").unwrap();
        let report = measure(&staub(), &script);
        assert!(report.verified, "square constraint verifies");
        assert!(report.t_trans > Duration::ZERO);
        assert!(report.t_post > Duration::ZERO);
        assert!(report.speedup() >= 1.0, "portfolio never slows down");
        assert!(consistent_with(&report, Some(true)));
    }

    #[test]
    fn unsat_constraint_reverts() {
        let script = Script::parse(
            "(declare-fun x () Int)
             (assert (>= x 0))(assert (<= x 3))(assert (= (* x x) 7))",
        )
        .unwrap();
        let report = measure(&staub(), &script);
        assert!(!report.verified, "no model exists to verify");
        assert!(report.baseline_result.is_unsat());
        assert_eq!(report.winner, Winner::Baseline);
        assert!((report.speedup() - 1.0).abs() < 1e-9);
        assert!(consistent_with(&report, Some(false)));
    }

    #[test]
    fn tractability_improvement_detected() {
        // A sum-of-cubes instance hard for the unbounded baseline under a
        // small budget, but easy after translation.
        let script = Script::parse(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
             (assert (= (+ (* x x x) (+ (* y y y) (* z z z))) 1729))",
        )
        .unwrap();
        let tight = Staub::new(StaubConfig {
            timeout: Duration::from_millis(400),
            steps: 60_000,
            ..Default::default()
        });
        let report = measure(&tight, &script);
        if report.baseline_result.is_unknown() && report.verified {
            assert!(report.tractability_improvement());
            assert_eq!(report.winner, Winner::Staub);
        }
        // (If the host is fast enough that the baseline solves it, the
        // assertion above is vacuous — the report must still be coherent.)
        assert!(consistent_with(&report, Some(true)));
    }

    #[test]
    fn speedup_formula() {
        let report = PortfolioReport {
            baseline_result: SatResult::Unknown(UnknownReason::BudgetExhausted),
            t_pre: Duration::from_millis(300),
            t_trans: Duration::from_millis(1),
            t_post: Duration::from_millis(2),
            t_check: Duration::from_millis(0),
            verified: true,
            bounded_result: None,
            winner: Winner::Staub,
        };
        assert!(report.speedup() > 90.0);
        assert!(report.tractability_improvement());
        let no_improvement = PortfolioReport {
            verified: false,
            ..report
        };
        assert!((no_improvement.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_zero_final_is_capped_not_one() {
        let report = PortfolioReport {
            baseline_result: SatResult::Unknown(UnknownReason::BudgetExhausted),
            t_pre: Duration::from_millis(300),
            t_trans: Duration::ZERO,
            t_post: Duration::ZERO,
            t_check: Duration::ZERO,
            verified: true,
            bounded_result: None,
            winner: Winner::Staub,
        };
        // Zero `t_final` against a nonzero baseline: the cap, not 1.0 —
        // and finite, so geometric means over a suite stay well-defined.
        assert_eq!(report.speedup(), PortfolioReport::SPEEDUP_CAP);
        assert!(report.speedup().is_finite());
        // Both legs zero: a degenerate instant constraint, speedup 1.
        let idle = PortfolioReport {
            t_pre: Duration::ZERO,
            ..report
        };
        assert!((idle.speedup() - 1.0).abs() < 1e-9);
    }
}
