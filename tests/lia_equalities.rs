//! Integer equalities in the LIA baseline: the linear engine eliminates
//! them exactly (a unimodular change of variables) before any simplex
//! runs, so systems of equations over unbounded integers are decided, not
//! left to branch-and-bound's depth cap.
//!
//! * (a) planted systems — random equations through a planted integer
//!   point — are `sat`, with a model that satisfies every assertion by
//!   exact evaluation;
//! * (b) boxed systems — equations, inequalities and disequalities over at
//!   most four variables in `[-3, 3]` — get the verdict enumeration of the
//!   box gives, never `unknown`;
//! * (c) directed cases: two equations that pass the gcd test one by one
//!   but have no common integer solution; an equation next to an
//!   inequality and a disequality over its free parameter; a fixed
//!   variable substituted into an inequality; benchgen's planted systems,
//!   among them one the bit-blasted lanes used to be left with.
//!
//! Every check runs the baseline [`Solver`] (or the scheduler at the
//! benchmark's settings) under a fixed step budget; the wall-clock timeout
//! never binds.

use std::time::Duration;

use proptest::prelude::*;
use staub::benchgen::{generate, SuiteKind};
use staub::core::{run_one_with, BatchConfig, BatchVerdict, LaneVerdict, RunOptions};
use staub::smtlib::{evaluate, Model, Script, Value};
use staub::solver::{SatResult, Solver, SolverProfile};

/// The benchmark's per-lane step budget.
const STEPS: u64 = 250_000;
const TIMEOUT: Duration = Duration::from_secs(600);

/// An SMT-LIB integer literal (negative ones as `(- n)`).
fn int(v: i64) -> String {
    if v < 0 {
        format!("(- {})", v.unsigned_abs())
    } else {
        v.to_string()
    }
}

/// `Σ cᵢ·xᵢ` over `x0, x1, …`.
fn linear(coeffs: &[i64]) -> String {
    let terms: Vec<String> = coeffs
        .iter()
        .enumerate()
        .map(|(i, &c)| format!("(* {} x{i})", int(c)))
        .collect();
    if terms.len() == 1 {
        terms[0].clone()
    } else {
        format!("(+ {})", terms.join(" "))
    }
}

fn script(vars: usize, asserts: &[String]) -> Script {
    let mut src = String::from("(set-logic QF_LIA)\n");
    for i in 0..vars {
        src.push_str(&format!("(declare-fun x{i} () Int)\n"));
    }
    for a in asserts {
        src.push_str(&format!("(assert {a})\n"));
    }
    Script::parse(&src).expect("generated text parses")
}

fn satisfies(script: &Script, model: &Model) -> bool {
    script
        .assertions()
        .iter()
        .all(|&a| matches!(evaluate(script.store(), a, model), Ok(Value::Bool(true))))
}

/// The baseline's answer; a `sat` must come with a model that satisfies
/// every assertion exactly.
fn solve(script: &Script) -> Result<SatResult, String> {
    let outcome = Solver::new(SolverProfile::Zed)
        .with_timeout(TIMEOUT)
        .with_steps(STEPS)
        .solve(script);
    match &outcome.result {
        SatResult::Sat(model) if !satisfies(script, model) => {
            Err(format!("model {model:?} violates\n{script}"))
        }
        _ => Ok(outcome.result),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) `cᵢ·x = cᵢ·p` for random rows `cᵢ` and a planted point `p`.
    #[test]
    fn planted_systems_are_sat_with_exact_models(
        vars in 1usize..7,
        rows in 1usize..8,
        coeffs in collection::vec(-9i64..=9, 42..43),
        point in collection::vec(-60i64..=60, 6..7),
    ) {
        let asserts: Vec<String> = coeffs
            .chunks(6)
            .take(rows)
            .map(|row| {
                let row = &row[..vars];
                let rhs: i64 = row.iter().zip(&point).map(|(c, p)| c * p).sum();
                format!("(= {} {})", linear(row), int(rhs))
            })
            .collect();
        let s = script(vars, &asserts);
        let result = solve(&s).map_err(TestCaseError::fail)?;
        prop_assert!(result.is_sat(), "{:?} on\n{}", result, s);
    }

    /// (b) Random rows over a box small enough to enumerate: each row is
    /// an equation (two in three), an inequality or a disequality. With
    /// `plant`, every row holds at `point`; otherwise the constants are
    /// random and most systems are unsat.
    #[test]
    fn boxed_systems_match_enumeration(
        vars in 1usize..5,
        rows in collection::vec((0u8..6, collection::vec(-4i64..=4, 4..5), -12i64..=12), 1..5),
        point in collection::vec(-3i64..=3, 4..5),
        plant in any::<bool>(),
    ) {
        let mut asserts: Vec<String> =
            (0..vars).map(|i| format!("(<= (- 3) x{i} 3)")).collect();
        // Each row as `(relation, coefficients, constant)`: `c·x ⋈ k`.
        let mut system = Vec::new();
        for (kind, coeffs, k) in &rows {
            let coeffs = &coeffs[..vars];
            let at_point: i64 = coeffs.iter().zip(&point).map(|(c, p)| c * p).sum();
            let (rel, k) = match kind {
                0..=3 => ("=", if plant { at_point } else { *k }),
                4 => ("<=", if plant { at_point + k.abs() } else { *k }),
                _ => ("distinct", if plant { at_point + 1 + k.abs() } else { *k }),
            };
            asserts.push(format!("({rel} {} {})", linear(coeffs), int(k)));
            system.push((rel, coeffs.to_vec(), k));
        }
        let holds = |x: &[i64]| {
            system.iter().all(|(rel, coeffs, k)| {
                let lhs: i64 = coeffs.iter().zip(x).map(|(c, v)| c * v).sum();
                match *rel {
                    "=" => lhs == *k,
                    "<=" => lhs <= *k,
                    _ => lhs != *k,
                }
            })
        };
        let expected = (0..7u32.pow(vars as u32)).any(|mut code| {
            let x: Vec<i64> = (0..vars)
                .map(|_| {
                    let v = i64::from(code % 7) - 3;
                    code /= 7;
                    v
                })
                .collect();
            holds(&x)
        });
        prop_assert!(!plant || expected, "a planted system holds at its point");
        let s = script(vars, &asserts);
        let result = solve(&s).map_err(TestCaseError::fail)?;
        prop_assert!(!matches!(result, SatResult::Unknown(_)), "{:?} on\n{}", result, s);
        prop_assert_eq!(result.is_sat(), expected, "on\n{}", s);
    }
}

fn verdict(asserts: &[&str], vars: usize) -> SatResult {
    let asserts: Vec<String> = asserts.iter().map(ToString::to_string).collect();
    solve(&script(vars, &asserts)).unwrap()
}

#[test]
fn rows_that_pass_the_gcd_test_alone_can_conflict() {
    // x + 2y = 1 and x - 2y = 2: each row has coprime coefficients, but
    // together they force 2x = 3.
    let r = verdict(&["(= (+ x0 (* 2 x1)) 1)", "(= (- x0 (* 2 x1)) 2)"], 2);
    assert!(r.is_unsat(), "{r:?}");
}

#[test]
fn inequalities_and_disequalities_constrain_the_free_parameter() {
    // 2x + 3y = 7 is x = 2 + 3t, y = 1 - 2t: with x, y >= 0 only t = 0.
    let base = ["(= (+ (* 2 x0) (* 3 x1)) 7)", "(>= x0 0)", "(>= x1 0)"];
    let r = verdict(&base, 2);
    assert!(r.is_sat(), "{r:?}");
    let r = verdict(&[&base[..], &["(distinct x0 2)"]].concat(), 2);
    assert!(r.is_unsat(), "t = 0 is excluded: {r:?}");
    // With y <= -1 and x < 10 instead, t is 1 or 2; x != 5 excludes t = 1,
    // which leaves only x = 8, y = -3.
    let r = verdict(
        &[base[0], "(<= x1 (- 1))", "(distinct x0 5)", "(< x0 10)"],
        2,
    );
    assert!(r.is_sat(), "{r:?}");
    let r = verdict(
        &[base[0], "(<= x1 (- 1))", "(distinct x0 5)", "(< x0 8)"],
        2,
    );
    assert!(r.is_unsat(), "{r:?}");
}

#[test]
fn a_fixed_variable_is_substituted_into_the_other_atoms() {
    // x = 5 leaves x + y <= 3 as y <= -2, against y >= -1.
    let r = verdict(&["(= x0 5)", "(<= (+ x0 x1) 3)", "(>= x1 (- 1))"], 2);
    assert!(r.is_unsat(), "{r:?}");
    let r = verdict(&["(= x0 5)", "(<= (+ x0 x1) 3)", "(>= x1 (- 2))"], 2);
    assert!(r.is_sat(), "{r:?}");
}

/// Seed 1's `lia/system/1308` of the benchmark's `fragments` corpus:
/// branch-and-bound alone reached its depth cap on it, and no bounded lane
/// decided it within 250,000 steps either.
const SYSTEM_1308: &str = "\
(set-logic QF_LIA)
(declare-fun v0 () Int)
(declare-fun v1 () Int)
(declare-fun v2 () Int)
(declare-fun v3 () Int)
(assert (= (+ (* 5 v0) (* (- 5) v1) (* (- 5) v2) (* (- 2) v3)) (- 359)))
(assert (= (+ (* 3 v0) (* (- 3) v1) (* 3 v2) (* 4 v3)) 109))
(assert (= (+ (* (- 1) v1) (* (- 1) v2) (* 5 v3)) 122))
(check-sat)
";

#[test]
fn the_baseline_decides_a_system_in_admission() {
    let script = Script::parse(SYSTEM_1308).unwrap();
    // The benchmark's in-process settings.
    let config = BatchConfig {
        threads: 2,
        steps: STEPS,
        timeout: Duration::from_secs(60),
        ..BatchConfig::default()
    };
    let report = run_one_with("lia/system/1308", &script, &config, &RunOptions::default());
    match &report.verdict {
        BatchVerdict::Sat(model) => assert!(satisfies(&script, model)),
        other => panic!("expected sat, got {other:?}"),
    }
    let winner = report.provenance().expect("decided");
    assert_eq!(winner.label, "baseline/zed");
    for lane in report.lanes.iter().filter(|l| l.spec.is_staub()) {
        assert_eq!(
            lane.verdict,
            LaneVerdict::Cancelled,
            "{}",
            lane.spec.label()
        );
        assert_eq!(lane.steps_used, 0, "{}", lane.spec.label());
    }
}

#[test]
fn every_planted_system_of_the_fragments_corpus_is_decided() {
    let mut systems = 0;
    for b in generate(SuiteKind::QfLia, 5_000, 1) {
        if b.family != "system" {
            continue;
        }
        systems += 1;
        let script = Script::parse(&b.script.to_string()).unwrap();
        let r = solve(&script).unwrap();
        assert!(r.is_sat(), "{}: {r:?}", b.name);
    }
    assert_eq!(systems, 1_250);
}
