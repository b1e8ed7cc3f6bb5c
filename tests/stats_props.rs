//! Integration properties for the observability layer and the front-end
//! depth guard: deep nests round-trip below the cap and fail with a
//! structured error above it, every batch JSONL record carries a
//! well-formed `stats` block, and solver work counters are monotone in
//! the step budget.

use std::time::Duration;

use proptest::prelude::*;
use staub::benchgen::{generate, SuiteKind};
use staub::core::{run_batch_with, BatchConfig, BatchItem, RunOptions, WidthChoice};
use staub::service::json::{self, Json};
use staub::smtlib::{ParseErrorKind, Script};
use staub::solver::{SatResult, Solver, SolverProfile, SolverStats};

/// `(assert (not (not ... p)))` nested `depth` deep, as source text.
fn nested_nots(depth: usize) -> String {
    let mut s = String::from("(set-logic QF_LIA)(declare-fun p () Bool)(assert ");
    s.push_str(&"(not ".repeat(depth));
    s.push('p');
    s.push_str(&")".repeat(depth));
    s.push_str(")(check-sat)");
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The depth cap is a sharp boundary: nests below it parse, print,
    /// and re-parse to a fixed point; pushing the same shape past the cap
    /// yields `MaxDepthExceeded` — a structured error, not a crash.
    #[test]
    fn depth_guard_is_a_sharp_boundary(depth in 1usize..120) {
        let cap = 128;
        let script = Script::parse_with_max_depth(&nested_nots(depth), cap).unwrap();
        let printed = script.to_string();
        let reparsed = Script::parse_with_max_depth(&printed, cap).unwrap();
        prop_assert_eq!(reparsed.to_string(), printed);

        let err = Script::parse_with_max_depth(&nested_nots(cap + depth), cap).unwrap_err();
        prop_assert_eq!(err.kind(), ParseErrorKind::MaxDepthExceeded);
    }
}

/// Every JSONL record the scheduler emits is one valid JSON object (the
/// service's parser rejects raw control characters inside strings) with a
/// `stats` object holding the stage spans and one entry per lane carrying
/// all twelve solver counters. Besides LIA constraints, the inputs include
/// a refine lane whose widened variables include a quoted symbol holding a
/// tab, which the rung records must escape.
#[test]
fn batch_jsonl_stats_block_is_well_formed() {
    let items: Vec<BatchItem> = generate(SuiteKind::QfLia, 4, 0xa11)
        .into_iter()
        .map(|b| BatchItem {
            name: b.name,
            script: b.script,
        })
        .collect();
    let config = BatchConfig {
        threads: 2,
        timeout: Duration::from_millis(500),
        steps: 200_000,
        cancel_losers: false,
        ..BatchConfig::default()
    };
    let mut reports = run_batch_with(&items, &config, &RunOptions::default());
    // y² − a² = 239 overflows the 9-bit base guards, so the refine lane's
    // base rung is bounded-unsat and widens both variables.
    let tabbed = [BatchItem {
        name: "tabbed".to_string(),
        script: Script::parse(
            "(declare-fun y () Int)(declare-fun |a\tb| () Int)
             (assert (>= y 0))(assert (>= |a\tb| 0))
             (assert (= (- (* y y) (* |a\tb| |a\tb|)) 239))",
        )
        .unwrap(),
    }];
    let refine = BatchConfig {
        threads: 1,
        timeout: Duration::from_secs(30),
        width_choice: WidthChoice::Fixed(9),
        include_baseline: false,
        refine: true,
        ..config
    };
    let refined = run_batch_with(&tabbed, &refine, &RunOptions::default());
    assert!(
        refined[0]
            .lanes
            .iter()
            .flat_map(|l| &l.rungs)
            .any(|r| r.widened.iter().any(|n| n.contains('\t'))),
        "the refine lane widens the tabbed symbol: {}",
        refined[0].to_jsonl()
    );
    reports.extend(refined);
    assert_eq!(reports.len(), 5);
    for report in &reports {
        let line = report.to_jsonl();
        let record = json::parse(&line).unwrap_or_else(|e| panic!("invalid JSON ({e}): {line}"));
        assert_eq!(
            record.get("name").and_then(Json::as_str),
            Some(report.name.as_str())
        );
        assert!(
            line.contains("\"stats\":{\"stages\":{\"pre_ms\":"),
            "missing stats block: {line}"
        );
        assert!(record.get("lanes").is_some(), "missing lanes array: {line}");
        for (name, _) in SolverStats::default().fields() {
            assert!(
                line.contains(&format!("\"{name}\":")),
                "missing counter {name}: {line}"
            );
        }
    }
}

/// The solver's work counters are monotone in the deterministic step
/// budget: a run with a larger budget performs a superset of the work of
/// a smaller-budget run on the same input (the engines are deterministic,
/// so the smaller run is a prefix of the larger one).
#[test]
fn solver_counters_are_monotone_in_step_budget() {
    let benchmarks = generate(SuiteKind::QfNia, 6, 0xbeef);
    let mut compared = 0;
    for b in &benchmarks {
        let small = Solver::new(SolverProfile::Zed)
            .with_timeout(Duration::from_secs(60))
            .with_steps(5_000)
            .solve(&b.script);
        let large = Solver::new(SolverProfile::Zed)
            .with_timeout(Duration::from_secs(60))
            .with_steps(50_000)
            .solve(&b.script);
        assert!(
            small.stats.le(&large.stats),
            "{}: counters regressed when the budget grew:\n  small: {}\n  large: {}",
            b.name,
            small.stats,
            large.stats
        );
        if matches!(small.result, SatResult::Unknown(_)) {
            compared += 1;
        }
    }
    // The suite must include at least one instance the small budget could
    // not finish, or the property is vacuous (equal stats on both sides).
    assert!(compared > 0, "every instance finished within 5k steps");
}
