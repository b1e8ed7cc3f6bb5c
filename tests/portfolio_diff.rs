//! Differential tests for the batch portfolio scheduler: on every benchgen
//! corpus instance, the scheduler's verdict must equal the sequential
//! [`portfolio::measure`] path's, and every `Sat` winner must pass the
//! `staub-lint` model-shape checks plus exact evaluation.
//!
//! Determinism: both paths run under identical deterministic *step* budgets
//! with a wall-clock deadline far too large to trip, so verdicts do not
//! depend on host speed or CI load.

use std::time::Duration;

use staub::benchgen::{generate, SuiteKind};
use staub::core::{
    portfolio, run_batch_with, BatchConfig, BatchItem, BatchVerdict, LaneVerdict, PortfolioReport,
    RunOptions, Staub, StaubConfig, WidenPolicy,
};
use staub::smtlib::{evaluate, Value};

const STEPS: u64 = 300_000;
const TIMEOUT: Duration = Duration::from_secs(30);
const SEED: u64 = 0xD1FF;
const COUNT: usize = 12;

fn sequential_tool() -> Staub {
    Staub::new(StaubConfig {
        timeout: TIMEOUT,
        steps: STEPS,
        ..Default::default()
    })
}

/// A scheduler configuration whose lane fan-out is exactly the pair of
/// legs `measure` runs — baseline plus STAUB at the inferred width, no
/// escalations, no cancellation — so the two paths are step-for-step
/// comparable.
fn mirror_config() -> BatchConfig {
    BatchConfig {
        threads: 3,
        timeout: TIMEOUT,
        steps: STEPS,
        widen: WidenPolicy::Global(Vec::new()),
        cancel_losers: false,
        ..BatchConfig::default()
    }
}

/// The portfolio verdict implied by a sequential measurement.
fn sequential_verdict(report: &PortfolioReport) -> &'static str {
    if report.verified || report.baseline_result.is_sat() {
        "sat"
    } else if report.baseline_result.is_unsat() {
        "unsat"
    } else {
        "unknown"
    }
}

fn corpus(kind: SuiteKind) -> (Vec<staub::benchgen::Benchmark>, Vec<BatchItem>) {
    let benchmarks = generate(kind, COUNT, SEED);
    let items = benchmarks
        .iter()
        .map(|b| BatchItem {
            name: b.name.clone(),
            script: b.script.clone(),
        })
        .collect();
    (benchmarks, items)
}

/// Scheduler and sequential verdicts agree on the full corpus, and both
/// are consistent with ground truth where the generator knows it.
#[test]
fn scheduler_agrees_with_sequential_measure() {
    let tool = sequential_tool();
    let config = mirror_config();
    for kind in SuiteKind::all() {
        let (benchmarks, items) = corpus(kind);
        let reports = run_batch_with(&items, &config, &RunOptions::default());
        assert_eq!(reports.len(), benchmarks.len());
        for (b, batch) in benchmarks.iter().zip(&reports) {
            let sequential = portfolio::measure(&tool, &b.script);
            assert_eq!(
                sequential_verdict(&sequential),
                batch.verdict.name(),
                "{}: scheduler and sequential paths diverge",
                b.name
            );
            match (&batch.verdict, b.expected) {
                (BatchVerdict::Sat(_), Some(expected)) => {
                    assert!(expected, "{}: sat but ground truth is unsat", b.name);
                }
                (BatchVerdict::Unsat, Some(expected)) => {
                    assert!(!expected, "{}: unsat but ground truth is sat", b.name);
                }
                _ => {}
            }
        }
    }
}

/// Every `Sat` winner's model passes `staub-lint`'s shape checks and
/// exactly satisfies the *original* constraint.
#[test]
fn scheduler_sat_winners_pass_lint_and_evaluation() {
    let config = mirror_config();
    for kind in SuiteKind::all() {
        let (benchmarks, items) = corpus(kind);
        for (b, report) in
            benchmarks
                .iter()
                .zip(run_batch_with(&items, &config, &RunOptions::default()))
        {
            let BatchVerdict::Sat(model) = &report.verdict else {
                continue;
            };
            let lint = staub::lint::model_shape(&b.script, model);
            assert!(lint.is_clean(), "{}: model shape findings:\n{lint}", b.name);
            for &a in b.script.assertions() {
                assert_eq!(
                    evaluate(b.script.store(), a, model).unwrap(),
                    Value::Bool(true),
                    "{}: winner model fails exact evaluation",
                    b.name
                );
            }
        }
    }
}

/// Structural invariants of a no-cancellation run: every planned lane
/// reports a real outcome (nothing skipped, nothing cancelled), and every
/// decided constraint has a sound winner lane.
#[test]
fn all_lanes_complete_without_cancellation() {
    let config = mirror_config();
    let (_, items) = corpus(SuiteKind::QfNia);
    for report in run_batch_with(&items, &config, &RunOptions::default()) {
        assert!(
            !report.lanes.is_empty(),
            "{}: no lanes planned",
            report.name
        );
        for lane in &report.lanes {
            assert_ne!(
                lane.verdict,
                LaneVerdict::Cancelled,
                "{}: lane {} cancelled despite cancel_losers=false",
                report.name,
                lane.spec.label()
            );
            assert!(lane.cancel_latency.is_none());
        }
        if let Some(winner) = report.winner_lane() {
            assert!(
                winner.verdict.is_sound(),
                "{}: winner {} is not a sound verdict",
                report.name,
                winner.spec.label()
            );
        }
    }
}
