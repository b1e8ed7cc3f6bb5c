//! Differential battery for counterexample-guided per-variable width
//! refinement: on randomly generated instances, the refine lane, the
//! blind escalation ladder, and an independent sequential [`Session`]
//! reference must never contradict each other, must respect the
//! generator's ground truth, and every `sat` must ship a model that
//! exactly evaluates the *original* unbounded constraint to true.
//!
//! A second property pins the loop's shape: refinement terminates within
//! its depth cap, per-rung width demand grows strictly, per-variable
//! widths never exceed `max_bv_width`, and every widened name is a real
//! script variable.

use std::time::Duration;

use proptest::prelude::*;
use staub::benchgen::{generate, generate_skewed, Benchmark, SuiteKind};
use staub::core::{
    run_one_with, BatchConfig, BatchReport, BatchVerdict, LaneKind, RunOptions, Session,
    StaubConfig, WidthChoice,
};
use staub::smtlib::{evaluate, Value};

/// Modest deterministic budget: plenty for the planted instances, while
/// letting the hard tail resolve to `unknown` instead of hanging a case.
const STEPS: u64 = 300_000;

fn batch_config(refine: bool) -> BatchConfig {
    BatchConfig {
        threads: 1,
        timeout: Duration::from_secs(60),
        steps: STEPS,
        width_choice: WidthChoice::Fixed(9),
        escalations: if refine { Vec::new() } else { vec![2, 4] },
        include_baseline: false,
        cancel_losers: true,
        retry: false,
        refine,
        ..BatchConfig::default()
    }
}

/// A small mixed corpus per case: generated NIA/LIA draws plus the
/// skewed-width family the refinement loop targets.
fn corpus(seed: u64) -> Vec<Benchmark> {
    let mut items = Vec::new();
    items.extend(generate(SuiteKind::QfNia, 2, seed));
    items.extend(generate(SuiteKind::QfLia, 2, seed));
    items.extend(generate_skewed(2, seed));
    items
}

/// `sat` against `unsat` between two sound verdicts is the only possible
/// disagreement; everything involving `unknown` is mere incompleteness.
fn contradicts(a: &str, b: &str) -> bool {
    matches!((a, b), ("sat", "unsat") | ("unsat", "sat"))
}

fn check_model_exact(bench: &Benchmark, report: &BatchReport) -> Result<(), TestCaseError> {
    if let BatchVerdict::Sat(model) = &report.verdict {
        for &a in bench.script.assertions() {
            prop_assert_eq!(
                evaluate(bench.script.store(), a, model).expect("model is total"),
                Value::Bool(true),
                "{}: sat model must satisfy the original assertion",
                bench.name
            );
        }
    }
    Ok(())
}

fn check_ground_truth(bench: &Benchmark, verdict: &str, leg: &str) -> Result<(), TestCaseError> {
    if let Some(expected) = bench.expected {
        let lie = (expected && verdict == "unsat") || (!expected && verdict == "sat");
        prop_assert!(
            !lie,
            "{} ({leg}): verdict {verdict} contradicts planted ground truth",
            bench.name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn refine_blind_and_reference_agree(seed in 0u64..10_000) {
        let mut sound_seen = 0usize;
        for bench in corpus(seed) {
            let refined =
                run_one_with(&bench.name, &bench.script, &batch_config(true), &RunOptions::default());
            let blind =
                run_one_with(&bench.name, &bench.script, &batch_config(false), &RunOptions::default());
            // Independent reference: the sequential incremental pipeline
            // under its own (inferred) width strategy.
            let reference = Session::new(StaubConfig {
                timeout: Duration::from_secs(60),
                steps: STEPS,
                ..StaubConfig::default()
            })
            .run(&bench.script)
            .map(|o| o.verdict_name())
            .unwrap_or("unknown");

            let r = refined.verdict.name();
            let b = blind.verdict.name();
            prop_assert!(!contradicts(r, b), "{}: refine={r} blind={b}", bench.name);
            prop_assert!(!contradicts(r, reference), "{}: refine={r} ref={reference}", bench.name);
            prop_assert!(!contradicts(b, reference), "{}: blind={b} ref={reference}", bench.name);
            check_ground_truth(&bench, r, "refine")?;
            check_ground_truth(&bench, b, "blind")?;
            check_ground_truth(&bench, reference, "reference")?;
            check_model_exact(&bench, &refined)?;
            check_model_exact(&bench, &blind)?;
            if r != "unknown" {
                sound_seen += 1;
            }
        }
        // The battery must actually decide things, or agreement is vacuous.
        prop_assert!(sound_seen > 0, "no sound verdict in the whole corpus (seed {seed})");
    }

    #[test]
    fn refinement_terminates_with_strict_progress(seed in 0u64..10_000) {
        let config = batch_config(true);
        for bench in corpus(seed) {
            let report =
                run_one_with(&bench.name, &bench.script, &config, &RunOptions::default());
            let Some(lane) = report
                .lanes
                .iter()
                .find(|l| matches!(l.spec.kind, LaneKind::Refine { .. }))
            else {
                continue;
            };
            prop_assert!(
                lane.rungs.len() as u32 <= config.refine_depth + 1,
                "{}: {} rungs exceed depth cap {}",
                bench.name, lane.rungs.len(), config.refine_depth
            );
            let names: Vec<&str> = bench
                .script
                .store()
                .symbols()
                .map(|s| bench.script.store().symbol_name(s))
                .collect();
            for rung in &lane.rungs {
                prop_assert!(
                    rung.max_width <= config.limits.max_bv_width,
                    "{}: rung width {} over the cap", bench.name, rung.max_width
                );
                for widened in &rung.widened {
                    prop_assert!(
                        names.contains(&widened.as_str()),
                        "{}: widened unknown variable {widened}", bench.name
                    );
                }
            }
            for pair in lane.rungs.windows(2) {
                prop_assert!(
                    pair[1].total_bits > pair[0].total_bits,
                    "{}: non-monotone rungs {:?}", bench.name, lane.rungs
                );
            }
        }
    }
}
