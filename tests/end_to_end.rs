//! Cross-crate integration tests: the full STAUB pipeline over generated
//! suites, checked for soundness against ground truth and exact model
//! evaluation.

use std::time::Duration;

use staub::benchgen::{generate, SuiteKind};
use staub::core::{
    portfolio, run_one_with, BatchConfig, BatchVerdict, LaneVerdict, RunOptions, Session, Staub,
    StaubConfig, WidenPolicy, WidthChoice,
};
use staub::smtlib::{evaluate, Script, Value};
use staub::solver::SolverProfile;

fn config(profile: SolverProfile) -> StaubConfig {
    StaubConfig {
        width_choice: WidthChoice::Inferred,
        profile,
        timeout: Duration::from_millis(500),
        steps: 800_000,
        ..Default::default()
    }
}

fn staub(profile: SolverProfile) -> Staub {
    Staub::new(config(profile))
}

fn batch(profile: SolverProfile) -> BatchConfig {
    BatchConfig {
        width_choice: WidthChoice::Inferred,
        profiles: vec![profile],
        timeout: Duration::from_millis(500),
        steps: 800_000,
        ..Default::default()
    }
}

/// Every `Sat` outcome carries a model that exactly satisfies the original
/// script; every `Unsat` agrees with ground truth.
#[test]
fn pipeline_is_sound_on_all_suites() {
    for kind in SuiteKind::all() {
        for profile in [SolverProfile::Zed, SolverProfile::Cove] {
            // One warm session per (suite, profile): later constraints
            // warm-start from earlier ones, and soundness must survive it.
            let mut session = Session::new(batch(profile));
            for b in generate(kind, 18, 0xE2E) {
                match session.run(&b.script).expect("non-empty script").verdict {
                    BatchVerdict::Sat(model) => {
                        assert_ne!(
                            b.expected,
                            Some(false),
                            "{}: sat but expected unsat",
                            b.name
                        );
                        for &a in b.script.assertions() {
                            assert_eq!(
                                evaluate(b.script.store(), a, &model).unwrap(),
                                Value::Bool(true),
                                "{}: model fails under {profile}",
                                b.name
                            );
                        }
                    }
                    BatchVerdict::Unsat => {
                        assert_ne!(b.expected, Some(true), "{}: unsat but expected sat", b.name);
                    }
                    BatchVerdict::Unknown => {}
                }
            }
        }
    }
}

/// The portfolio never slows a constraint down (§5.1): `t_final <= t_pre`.
#[test]
fn portfolio_never_slows_down() {
    let tool = staub(SolverProfile::Zed);
    for kind in [SuiteKind::QfNia, SuiteKind::QfLia] {
        for b in generate(kind, 12, 0xBEEF) {
            let report = portfolio::measure(&tool, &b.script);
            assert!(
                report.t_final() <= report.t_pre + Duration::from_millis(1),
                "{}: portfolio regressed ({:?} > {:?})",
                b.name,
                report.t_final(),
                report.t_pre
            );
            assert!(report.speedup() >= 1.0 - 1e-9);
        }
    }
}

/// The motivating example end to end: inferred width 12, verified model.
#[test]
fn motivating_example_via_bounded_path() {
    let script = staub::benchgen::sum_of_cubes(855);
    let transformed = Staub::default().transform(&script).expect("transformable");
    assert_eq!(transformed.bv_width, Some(12), "the paper's Fig. 1b width");
    let cfg = BatchConfig {
        timeout: Duration::from_secs(10),
        steps: u64::MAX,
        ..Default::default()
    };
    match Session::new(cfg).run(&script).expect("non-empty").verdict {
        BatchVerdict::Sat(model) => {
            let cubes: i64 = ["x", "y", "z"]
                .iter()
                .map(|n| {
                    let sym = script.store().symbol(n).unwrap();
                    model.get(sym).unwrap().as_int().unwrap().to_i64().unwrap()
                })
                .map(|v| v.pow(3))
                .sum();
            assert_eq!(cubes, 855);
        }
        other => panic!("expected sat, got {}", other.name()),
    }
}

/// The emit path: transformed scripts are valid SMT-LIB that any compliant
/// consumer (here: our own parser + solver) handles identically.
#[test]
fn emitted_constraints_round_trip_through_text() {
    let tool = staub(SolverProfile::Zed);
    for b in generate(SuiteKind::QfNia, 12, 0xCAFE) {
        let Ok(transformed) = tool.transform(&b.script) else {
            continue;
        };
        let text = transformed.script.to_string();
        let reparsed = Script::parse(&text)
            .unwrap_or_else(|e| panic!("{}: emitted text unparsable: {e}", b.name));
        let solver = staub::solver::Solver::new(SolverProfile::Zed)
            .with_timeout(Duration::from_millis(500))
            .with_steps(500_000);
        let direct = solver.solve(&transformed.script).result;
        let via_text = solver.solve(&reparsed).result;
        // Timeouts may differ run to run; definite answers must agree.
        if !direct.is_unknown() && !via_text.is_unknown() {
            assert_eq!(direct.is_sat(), via_text.is_sat(), "{}", b.name);
        }
    }
}

/// Width ablation invariant: a fixed width that is too narrow for the
/// constants reverts cleanly (error, not wrong answer).
#[test]
fn narrow_fixed_widths_revert_cleanly() {
    let mut session = Session::new(BatchConfig {
        width_choice: WidthChoice::Fixed(6),
        timeout: Duration::from_millis(500),
        ..Default::default()
    });
    for b in generate(SuiteKind::QfNia, 12, 7) {
        // Either transformation fails (constants too wide) or the pipeline
        // still returns a sound answer via verification/fallback.
        match session.run(&b.script).expect("non-empty").verdict {
            BatchVerdict::Sat(model) => {
                for &a in b.script.assertions() {
                    assert_eq!(
                        evaluate(b.script.store(), a, &model).unwrap(),
                        Value::Bool(true),
                        "{}",
                        b.name
                    );
                }
            }
            BatchVerdict::Unsat => assert_ne!(b.expected, Some(true), "{}", b.name),
            BatchVerdict::Unknown => {}
        }
    }
}

/// Width escalation in the scheduler (UppSAT-style precision ladder): when
/// the inferred width is insufficient — the base lane comes back bounded
/// `unsat`, which is never trusted (§4.4) — the 2× escalation lane finds a
/// verified model and the scheduler reports it as winner.
#[test]
fn escalation_lane_wins_when_inferred_width_is_insufficient() {
    // Integer division keeps the inferred width at the size of the
    // *constants*: in `(div x K) = T`, x at the inferred width is too small
    // to reach quotient T, so the base lane is bounded-unsat while the 2×
    // lane admits the witnesses.
    for (src, quotient, divisor) in [
        (
            "(declare-fun x () Int)(assert (= (div x 5) 11))",
            11i64,
            5i64,
        ),
        ("(declare-fun x () Int)(assert (= (div x 7) 13))", 13, 7),
    ] {
        let script = Script::parse(src).unwrap();
        let config = BatchConfig {
            threads: 2,
            include_baseline: false,
            widen: WidenPolicy::Global(vec![2]),
            // Both lanes run to completion, so lane verdicts (and the
            // winner: the only sound lane) are deterministic.
            cancel_losers: false,
            timeout: Duration::from_secs(30),
            steps: 400_000,
            ..BatchConfig::default()
        };
        let report = run_one_with("escalation", &script, &config, &RunOptions::default());
        assert_eq!(report.lanes.len(), 2, "{src}: base + x2 lanes");
        let base = &report.lanes[0];
        assert_eq!(
            base.verdict,
            LaneVerdict::BoundedUnsat,
            "{src}: inferred width must be insufficient for this test to bite"
        );
        let winner = report.winner_lane().expect("escalated lane answers");
        assert_eq!(winner.spec.label(), "staub/x2/zed", "{src}");
        assert_eq!(winner.verdict, LaneVerdict::SatVerified, "{src}");
        match &report.verdict {
            BatchVerdict::Sat(model) => {
                let sym = script.store().symbol("x").unwrap();
                let x = model.get(sym).unwrap().as_int().unwrap().to_i64().unwrap();
                assert_eq!(x.div_euclid(divisor), quotient, "{src}: x = {x}");
            }
            other => panic!("{src}: expected sat, got {other:?}"),
        }
    }
}

/// SLOT after STAUB preserves the bounded constraint's satisfiability.
#[test]
fn slot_chain_preserves_bounded_satisfiability() {
    let tool = staub(SolverProfile::Zed);
    let solver = staub::solver::Solver::new(SolverProfile::Zed)
        .with_timeout(Duration::from_secs(1))
        .with_steps(1_000_000);
    for b in generate(SuiteKind::QfLia, 16, 0x510) {
        let Ok(transformed) = tool.transform(&b.script) else {
            continue;
        };
        let mut optimized = transformed.script.clone();
        staub::slot::Slot::standard().optimize(&mut optimized);
        let before = solver.solve(&transformed.script).result;
        let after = solver.solve(&optimized).result;
        if !before.is_unknown() && !after.is_unknown() {
            assert_eq!(before.is_sat(), after.is_sat(), "{}", b.name);
        }
    }
}
