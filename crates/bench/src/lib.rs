//! Shared evaluation harness: suite execution, measurement, aggregation,
//! and table rendering for every figure and table in the paper.
//!
//! The binaries in `src/bin/` regenerate the paper's artifacts:
//!
//! | binary   | artifact |
//! |----------|----------|
//! | `tables` | Table 1 (theory summary; static) |
//! | `fig2`   | Fig. 2a/2b — fixed-width performance & semantics loss |
//! | `table2` | Table 2 — tractability improvements |
//! | `table3` | Table 3 — geometric-mean speedups incl. ablations & SLOT |
//! | `fig7`   | Fig. 7 — per-constraint scatter data (CSV) |
//! | `fig8`   | Fig. 8 — termination client analysis |
//!
//! Scale is controlled by environment variables so the same binaries serve
//! smoke runs and full reproductions:
//!
//! * `STAUB_EVAL_SCALE` — suite-size multiplier (default 1.0),
//! * `STAUB_EVAL_TIMEOUT_MS` — per-constraint solver timeout (default 1000).

#![forbid(unsafe_code)]

pub mod reference_sat;

use std::time::Duration;

use staub_benchgen::{generate, Benchmark, SuiteKind};
use std::sync::Arc;

use staub_core::{
    portfolio, run_batch_with, BatchConfig, BatchItem, Metrics, MetricsSnapshot, RunOptions, Staub,
    StaubConfig, WidthChoice,
};
use staub_slot::Slot;
use staub_solver::{SatResult, Solver, SolverProfile};

/// Ceiling for the deterministic step budget: far beyond any budget a real
/// run exhausts, but small enough that downstream scaling (lane escalation
/// factors, retry doublings) cannot overflow a `u64`.
pub const MAX_STEPS: u64 = 1 << 40;

/// Deterministic step budget for a wall-clock timeout, ~4k steps/ms.
///
/// Saturates instead of wrapping: a huge `STAUB_EVAL_TIMEOUT_MS` (anything
/// above `u64::MAX / 4_000`) used to overflow `timeout_ms * 4_000` in
/// release builds, wrapping to an arbitrary — possibly tiny — budget and
/// silently gutting every lane's work limit. The result is clamped to
/// `[100_000, MAX_STEPS]`.
pub fn steps_for_timeout(timeout_ms: u64) -> u64 {
    timeout_ms.saturating_mul(4_000).clamp(100_000, MAX_STEPS)
}

/// Evaluation scale knobs.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Per-constraint wall-clock timeout.
    pub timeout: Duration,
    /// Deterministic step budget (scales with the timeout).
    pub steps: u64,
    /// Benchmark counts per suite (NIA, LIA, NRA, LRA).
    pub counts: [usize; 4],
    /// RNG seed for suite generation.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig::from_env()
    }
}

impl EvalConfig {
    /// Reads scale knobs from the environment (see crate docs).
    pub fn from_env() -> EvalConfig {
        let scale: f64 = std::env::var("STAUB_EVAL_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let timeout_ms: u64 = std::env::var("STAUB_EVAL_TIMEOUT_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1000);
        // Proportions loosely follow the SMT-LIB suite sizes
        // (NIA 25k : LIA 13k : NRA 12k : LRA 1.7k).
        let base = [64usize, 36, 28, 12];
        let counts = base.map(|n| ((n as f64 * scale).round() as usize).max(4));
        EvalConfig {
            timeout: Duration::from_millis(timeout_ms),
            steps: steps_for_timeout(timeout_ms),
            counts,
            seed: 0x57a0b,
        }
    }

    /// The count for a suite.
    pub fn count(&self, kind: SuiteKind) -> usize {
        match kind {
            SuiteKind::QfNia => self.counts[0],
            SuiteKind::QfLia => self.counts[1],
            SuiteKind::QfNra => self.counts[2],
            SuiteKind::QfLra => self.counts[3],
        }
    }

    /// STAUB configuration for a given profile and width choice.
    pub fn staub(&self, profile: SolverProfile, width: WidthChoice) -> Staub {
        Staub::new(StaubConfig {
            width_choice: width,
            profile,
            timeout: self.timeout,
            steps: self.steps,
            ..Default::default()
        })
    }

    /// A baseline solver for a profile.
    pub fn solver(&self, profile: SolverProfile) -> Solver {
        Solver::new(profile)
            .with_timeout(self.timeout)
            .with_steps(self.steps)
    }

    /// Scheduler configuration matching the measurement methodology: the
    /// exact lane pair `measure` runs (baseline + base STAUB lane, no
    /// escalations), with cancellation disabled so every lane reports its
    /// full timing — the scheduler parallelises across *constraints* only,
    /// keeping Table 2/3 metrics undistorted.
    pub fn batch(&self, profile: SolverProfile, width: WidthChoice) -> BatchConfig {
        BatchConfig {
            timeout: self.timeout,
            steps: self.steps,
            width_choice: width,
            escalations: Vec::new(),
            profiles: vec![profile],
            cancel_losers: false,
            retry: false,
            ..BatchConfig::default()
        }
    }
}

/// Measurement of one constraint under one configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Generator family.
    pub family: &'static str,
    /// The portfolio report (timings, verification, winner).
    pub report: portfolio::PortfolioReport,
}

/// Runs a whole suite through the batch portfolio scheduler (see
/// [`EvalConfig::batch`]) for one profile and width choice. Reports come
/// back projected onto [`portfolio::PortfolioReport`], so aggregation is
/// identical to the sequential path; [`run_suite_sequential`] retains the
/// original one-constraint-at-a-time loop for differential testing.
pub fn run_suite(
    kind: SuiteKind,
    profile: SolverProfile,
    width: WidthChoice,
    config: &EvalConfig,
) -> Vec<Measurement> {
    let benchmarks = generate(kind, config.count(kind), config.seed);
    let items: Vec<BatchItem> = benchmarks
        .iter()
        .map(|b| BatchItem {
            name: b.name.clone(),
            script: b.script.clone(),
        })
        .collect();
    let reports = run_batch_with(
        &items,
        &config.batch(profile, width),
        &RunOptions::default(),
    );
    benchmarks
        .into_iter()
        .zip(reports)
        .map(|(b, r)| Measurement {
            name: b.name,
            family: b.family,
            report: r.to_portfolio(),
        })
        .collect()
}

/// [`run_suite`] with observability: routes the suite through
/// [`run_batch_with`] so stage spans, lane events, and solver counters
/// are collected, and returns the metrics snapshot alongside the
/// measurements. Callers attach the snapshot to their reports with
/// [`MetricsSnapshot::to_json`] (CI uploads it as an artifact).
pub fn run_suite_observed(
    kind: SuiteKind,
    profile: SolverProfile,
    width: WidthChoice,
    config: &EvalConfig,
) -> (Vec<Measurement>, MetricsSnapshot) {
    let metrics = Arc::new(Metrics::new());
    let benchmarks = generate(kind, config.count(kind), config.seed);
    let items: Vec<BatchItem> = benchmarks
        .iter()
        .map(|b| BatchItem {
            name: b.name.clone(),
            script: b.script.clone(),
        })
        .collect();
    let options = RunOptions {
        metrics: Some(Arc::clone(&metrics)),
    };
    let reports = run_batch_with(&items, &config.batch(profile, width), &options);
    let measurements = benchmarks
        .into_iter()
        .zip(reports)
        .map(|(b, r)| Measurement {
            name: b.name,
            family: b.family,
            report: r.to_portfolio(),
        })
        .collect();
    (measurements, metrics.snapshot())
}

/// The sequential [`portfolio::measure`] loop the scheduler replaced —
/// kept as the reference implementation the differential tests compare
/// scheduler verdicts against.
pub fn run_suite_sequential(
    kind: SuiteKind,
    profile: SolverProfile,
    width: WidthChoice,
    config: &EvalConfig,
) -> Vec<Measurement> {
    let staub = config.staub(profile, width);
    generate(kind, config.count(kind), config.seed)
        .into_iter()
        .map(|b| Measurement {
            name: b.name,
            family: b.family,
            report: portfolio::measure(&staub, &b.script),
        })
        .collect()
}

/// Generates the suite itself (for custom loops).
pub fn suite(kind: SuiteKind, config: &EvalConfig) -> Vec<Benchmark> {
    generate(kind, config.count(kind), config.seed)
}

/// Measures the STAUB→SLOT chain on one constraint: transformation, SLOT
/// optimization, bounded solve, verification — against the same baseline.
pub fn measure_with_slot(
    staub: &Staub,
    script: &staub_smtlib::Script,
) -> portfolio::PortfolioReport {
    use staub_core::verify::lift_and_verify;
    use std::time::Instant;
    let config = staub.config();
    let t0 = Instant::now();
    let transformed = staub.transform(script);
    let (t_trans, t_post, t_check, verified, bounded_result) = match transformed {
        Ok(mut tf) => {
            // SLOT runs as part of the translation leg.
            let _ = Slot::standard().optimize(&mut tf.script);
            let t_trans = t0.elapsed();
            let solver = Solver::new(config.profile)
                .with_timeout(config.timeout)
                .with_steps(config.steps);
            let t1 = Instant::now();
            let outcome = solver.solve(&tf.script);
            let t_post = t1.elapsed();
            let t2 = Instant::now();
            let verified = match &outcome.result {
                SatResult::Sat(m) => lift_and_verify(script, &tf, m).is_some(),
                _ => false,
            };
            (
                t_trans,
                t_post,
                t2.elapsed(),
                verified,
                Some(outcome.result),
            )
        }
        Err(_) => (t0.elapsed(), Duration::ZERO, Duration::ZERO, false, None),
    };
    let solver = Solver::new(config.profile)
        .with_timeout(config.timeout)
        .with_steps(config.steps);
    let t3 = Instant::now();
    let baseline = solver.solve(script);
    let t_pre = t3.elapsed();
    let winner = if verified && (baseline.result.is_unknown() || t_trans + t_post + t_check < t_pre)
    {
        portfolio::Winner::Staub
    } else if baseline.result.is_unknown() {
        portfolio::Winner::Neither
    } else {
        portfolio::Winner::Baseline
    };
    portfolio::PortfolioReport {
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

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Geometric mean of a nonempty slice of positive ratios; 1.0 when empty.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-9).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

/// The paper's `T_pre` interval buckets, expressed as fractions of the
/// timeout (the paper uses [0, 300], [1, 300], [60, 300], [180, 300] s at a
/// 300 s timeout).
pub const TPRE_BUCKETS: [(&str, f64); 4] = [
    ("0-T", 0.0),
    ("T/300-T", 1.0 / 300.0),
    ("T/5-T", 0.2),
    ("3T/5-T", 0.6),
];

/// Aggregated row: verified cases, verified speedup, overall speedup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupRow {
    /// Constraints in the bucket.
    pub count: usize,
    /// Verified cases within the bucket.
    pub verified: usize,
    /// Geometric-mean speedup over verified cases.
    pub verified_speedup: f64,
    /// Geometric-mean speedup over the whole bucket.
    pub overall_speedup: f64,
}

/// Aggregates portfolio reports into a speedup row, keeping only
/// constraints whose `T_pre` is at least `min_fraction` of the timeout.
pub fn aggregate(
    reports: &[portfolio::PortfolioReport],
    timeout: Duration,
    min_fraction: f64,
) -> SpeedupRow {
    let threshold = timeout.mul_f64(min_fraction);
    let bucket: Vec<&portfolio::PortfolioReport> =
        reports.iter().filter(|r| r.t_pre >= threshold).collect();
    let verified: Vec<&&portfolio::PortfolioReport> =
        bucket.iter().filter(|r| r.verified).collect();
    SpeedupRow {
        count: bucket.len(),
        verified: verified.len(),
        verified_speedup: geometric_mean(
            &verified.iter().map(|r| r.speedup()).collect::<Vec<f64>>(),
        ),
        overall_speedup: geometric_mean(&bucket.iter().map(|r| r.speedup()).collect::<Vec<f64>>()),
    }
}

/// Counts tractability improvements in a set of reports.
pub fn tractability_improvements(reports: &[portfolio::PortfolioReport]) -> usize {
    reports
        .iter()
        .filter(|r| r.tractability_improvement())
        .count()
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders rows of equal length as an aligned plain-text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<String>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Both solver profiles, in the paper's column order.
pub fn profiles() -> [SolverProfile; 2] {
    [SolverProfile::Zed, SolverProfile::Cove]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_cases() {
        assert!((geometric_mean(&[]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn steps_budget_saturates_instead_of_wrapping() {
        assert_eq!(steps_for_timeout(0), 100_000);
        assert_eq!(steps_for_timeout(10), 100_000);
        assert_eq!(steps_for_timeout(1_000), 4_000_000);
        // Anything past u64::MAX / 4_000 used to wrap; now it saturates and
        // clamps to the ceiling.
        assert_eq!(steps_for_timeout(u64::MAX / 4_000 + 1), MAX_STEPS);
        assert_eq!(steps_for_timeout(u64::MAX), MAX_STEPS);
        // Monotone in the timeout.
        assert!(steps_for_timeout(50) <= steps_for_timeout(5_000));
        assert!(steps_for_timeout(5_000) <= steps_for_timeout(u64::MAX));
    }

    #[test]
    fn run_suite_observed_attaches_stats() {
        let config = EvalConfig {
            timeout: Duration::from_millis(60),
            steps: 60_000,
            counts: [4, 4, 4, 4],
            seed: 3,
        };
        let (ms, snapshot) = run_suite_observed(
            SuiteKind::QfLia,
            SolverProfile::Zed,
            WidthChoice::Inferred,
            &config,
        );
        assert_eq!(ms.len(), 4);
        assert!(!snapshot.is_empty(), "observed run must record metrics");
        let json = snapshot.to_json();
        assert!(json.starts_with("{\"counters\":"), "got: {json}");
        assert!(json.contains("sched.lane_started"), "got: {json}");
    }

    #[test]
    fn eval_config_scales() {
        let c = EvalConfig::from_env();
        assert!(c.count(SuiteKind::QfNia) >= 4);
        assert!(c.count(SuiteKind::QfNia) > c.count(SuiteKind::QfLra));
    }

    #[test]
    fn run_suite_smoke() {
        let config = EvalConfig {
            timeout: Duration::from_millis(60),
            steps: 60_000,
            counts: [6, 6, 4, 4],
            seed: 1,
        };
        let measurements = run_suite(
            SuiteKind::QfLia,
            SolverProfile::Zed,
            WidthChoice::Inferred,
            &config,
        );
        assert_eq!(measurements.len(), 6);
        for m in &measurements {
            assert!(m.report.speedup() >= 1.0, "{} slowed down", m.name);
        }
    }

    #[test]
    fn aggregate_buckets() {
        let config = EvalConfig {
            timeout: Duration::from_millis(60),
            steps: 60_000,
            counts: [6, 6, 4, 4],
            seed: 2,
        };
        let ms = run_suite(
            SuiteKind::QfNia,
            SolverProfile::Zed,
            WidthChoice::Inferred,
            &config,
        );
        let reports: Vec<_> = ms.iter().map(|m| m.report.clone()).collect();
        let all = aggregate(&reports, config.timeout, 0.0);
        let hard = aggregate(&reports, config.timeout, 0.6);
        assert_eq!(all.count, 6);
        assert!(hard.count <= all.count);
        assert!(all.overall_speedup >= 1.0);
    }
}
