//! Differential property tests for incremental [`Session`]s: a warm
//! session driven through a random `assert`/`push`/`pop`/`check` tape must
//! return the same verdict at every `check` as from-scratch solving of the
//! combined assertion stack — including after pop-then-re-assert, where a
//! stale learned clause or saved phase would be easiest to smuggle in.
//!
//! `Sat` models are additionally required to be lint-clean (the
//! `staub-lint` model-shape checks) and to satisfy the active assertions
//! under exact evaluation.
//!
//! The warm bit-blasting engine is also driven through checks cancelled
//! part-way through encoding, at a deterministic poll count: every later
//! check must still answer like a fresh engine.

use proptest::prelude::*;
use staub::core::{BatchConfig, BatchVerdict, Session, StaubError};
use staub::smtlib::{evaluate, Script, Value};
use staub::solver::sat::SatConfig;
use staub::solver::{Budget, BvSession, CancelFlag, SatResult};
use std::time::Duration;

/// One step of the incremental-scripting tape.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Assert the fragment-pool entry with this index (mod pool size).
    Assert(usize),
    Push,
    Pop,
    Check,
}

/// Base declarations shared by every LIA/NIA tape.
const INT_DECLS: &str = "(declare-fun v0 () Int)(declare-fun v1 () Int)";

/// Assertion fragments over `v0`/`v1`. Mixing linear and nonlinear atoms
/// exercises both the bounded (bit-blasted) path and the arithmetic
/// fallback; the squares force translation widths past the constants.
const INT_POOL: &[&str] = &[
    "(assert (<= v0 9))",
    "(assert (>= v0 (- 9)))",
    "(assert (<= v1 9))",
    "(assert (>= v1 (- 9)))",
    "(assert (= (+ v0 v1) 7))",
    "(assert (> v1 v0))",
    "(assert (= (* v0 v0) 49))",
    "(assert (= (* v1 v1) 16))",
    "(assert (= (- v0 v1) 11))",
    "(assert (< (+ v0 (* 2 v1)) 5))",
];

/// Base declarations for the bitvector tapes.
const BV_DECLS: &str = "(declare-fun a () (_ BitVec 8))(declare-fun b () (_ BitVec 8))";

/// Assertion fragments over 8-bit `a`/`b`: already-bounded constraints
/// take the direct solving path, so these tapes pin down warm-start
/// soundness of the engine itself (no translation in the way).
const BV_POOL: &[&str] = &[
    "(assert (bvule a #x40))",
    "(assert (bvult #x02 a))",
    "(assert (= (bvadd a b) #x10))",
    "(assert (= (bvmul a #x03) #x15))",
    "(assert (bvsle b #x20))",
    "(assert (= (bvsub a b) #x05))",
    "(assert (bvult b a))",
    "(assert (= (bvand a #x0f) #x07))",
];

fn step_strategy(pool_len: usize) -> impl Strategy<Value = Step> {
    // Repeated arms bias the tape toward asserts and checks (the shim's
    // `prop_oneof!` draws arms uniformly — it has no weighted form).
    prop_oneof![
        (0..pool_len).prop_map(Step::Assert),
        (0..pool_len).prop_map(Step::Assert),
        Just(Step::Push),
        Just(Step::Pop),
        (0..pool_len).prop_map(Step::Assert),
        Just(Step::Check),
        (0..pool_len).prop_map(Step::Assert),
        Just(Step::Check),
    ]
}

fn config() -> BatchConfig {
    BatchConfig {
        timeout: Duration::from_secs(5),
        steps: 1_000_000,
        ..Default::default()
    }
}

/// Replays `steps` against one warm session and a mirrored frame stack;
/// every `Check` is compared against a cold from-scratch run.
fn run_tape(decls: &str, pool: &[&str], steps: &[Step]) -> Result<(), TestCaseError> {
    let mut session = Session::new(config());
    session.assert_text(decls).expect("declarations parse");
    // The mirror reproduces `Session`'s combined source byte for byte
    // (fragment + newline), so the cold script's symbol store has the
    // same layout as the one the session's models are keyed by.
    let mut frames: Vec<Vec<&str>> = vec![vec![decls]];
    let mut checks = 0u32;

    // Every tape ends with an assert + check, so no run is vacuous.
    for step in steps.iter().chain([&Step::Assert(0), &Step::Check]) {
        match *step {
            Step::Assert(i) => {
                let fragment = pool[i % pool.len()];
                session.assert_text(fragment).expect("pool fragment parses");
                frames.last_mut().expect("base frame").push(fragment);
            }
            Step::Push => {
                session.push();
                frames.push(Vec::new());
            }
            Step::Pop => {
                let popped = session.pop();
                prop_assert_eq!(popped, frames.len() > 1, "pop refusal disagrees");
                if popped {
                    frames.pop();
                }
            }
            Step::Check => {
                let mut combined = String::new();
                for fragment in frames.iter().flatten() {
                    combined.push_str(fragment);
                    combined.push('\n');
                }
                if !combined.contains("(assert") {
                    prop_assert_eq!(
                        session.check().unwrap_err(),
                        StaubError::EmptyScript,
                        "empty stack must refuse the check"
                    );
                    continue;
                }
                checks += 1;
                let script = Script::parse(&combined).expect("mirror parses");
                let warm = session.check().expect("non-empty stack");
                // A second check with nothing asserted in between must
                // agree: the warm re-check path reuses learned clauses,
                // saved phases, and (post-inprocessing) a strengthened
                // clause database, none of which may flip the verdict.
                let rewarm = session.check().expect("non-empty stack");
                prop_assert_eq!(
                    warm.verdict.name(),
                    rewarm.verdict.name(),
                    "warm re-check diverges from itself after {} checks on:\n{}",
                    checks,
                    combined
                );
                let cold = Session::new(config()).run(&script).expect("non-empty");
                prop_assert_eq!(
                    warm.verdict.name(),
                    cold.verdict.name(),
                    "warm/cold divergence after {} checks on:\n{}",
                    checks,
                    combined
                );
                if let BatchVerdict::Sat(model) = &warm.verdict {
                    let lint = staub::lint::model_shape(&script, model);
                    prop_assert!(lint.is_clean(), "model shape findings:\n{lint}");
                    for &a in script.assertions() {
                        prop_assert_eq!(
                            evaluate(script.store(), a, model).unwrap(),
                            Value::Bool(true),
                            "warm model fails exact evaluation on:\n{}",
                            combined
                        );
                    }
                }
            }
        }
    }
    prop_assert!(checks > 0, "final forced assert+check did not run");
    Ok(())
}

/// The bitvector script asserting the `BV_POOL` entries `picks`.
fn bv_script(picks: &[usize]) -> Script {
    let mut src = BV_DECLS.to_string();
    for &i in picks {
        src.push_str(BV_POOL[i % BV_POOL.len()]);
    }
    Script::parse(&src).expect("pool script parses")
}

/// Checks `picks` on `engine` with a fresh budget: the verdict must match
/// a fresh engine's, and a model must pass exact evaluation.
fn check_like_fresh(engine: &mut BvSession, picks: &[usize]) -> Result<(), TestCaseError> {
    let script = bv_script(picks);
    let (warm, _) = engine.check(&script, &Budget::unlimited());
    let (cold, _) = BvSession::new(SatConfig::default()).check(&script, &Budget::unlimited());
    prop_assert_eq!(
        (warm.is_sat(), warm.is_unsat()),
        (cold.is_sat(), cold.is_unsat()),
        "warm engine diverges from a fresh one on {:?}",
        picks
    );
    if let SatResult::Sat(model) = &warm {
        for &a in script.assertions() {
            prop_assert_eq!(
                evaluate(script.store(), a, model).unwrap(),
                Value::Bool(true),
                "warm model fails exact evaluation on {:?}",
                picks
            );
        }
    }
    Ok(())
}

/// Checks `picks` on `engine` under a budget whose cancel flag the
/// encoder trips after `trip` polls. Returns whether it tripped; if so,
/// the answer must be `unknown`.
fn check_cancelled_at(
    engine: &mut BvSession,
    picks: &[usize],
    trip: u64,
) -> Result<bool, TestCaseError> {
    let flag = CancelFlag::new();
    let budget = Budget::with_cancel(Duration::from_secs(3600), u64::MAX, flag.clone());
    engine.cancel_after_polls(trip);
    let (result, stats) = engine.check(&bv_script(picks), &budget);
    if flag.is_cancelled() {
        prop_assert!(
            matches!(result, SatResult::Unknown(_)),
            "cancelled check answered {:?}",
            result
        );
        prop_assert_eq!(stats.decisions, 0, "SAT ran after cancellation");
    }
    Ok(flag.is_cancelled())
}

/// Directed: a check cancelled 20 polls into encoding a multiplier
/// answers `unknown`; re-checking the same script reuses the gates that
/// were completed before the trip and answers like a fresh engine.
#[test]
fn bv_engine_reuses_gates_of_a_cancelled_encode() {
    let picks = [3, 1, 0];
    let mut engine = BvSession::new(SatConfig::default());
    assert!(check_cancelled_at(&mut engine, &picks, 20).unwrap());
    let hits = engine.gate_cache_hits();
    check_like_fresh(&mut engine, &picks).unwrap();
    assert!(
        engine.gate_cache_hits() > hits,
        "the re-check rebuilt every gate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A warm engine whose check was cancelled part-way through its
    /// bit-blast must answer the same script, and then arbitrary others,
    /// exactly like a fresh engine.
    #[test]
    fn bv_engine_cancelled_mid_encode_agrees_with_fresh(
        aborted in proptest::collection::vec(0..BV_POOL.len(), 1..6),
        trip in 0u64..400,
        later in proptest::collection::vec(
            proptest::collection::vec(0..BV_POOL.len(), 1..6),
            1..5,
        ),
    ) {
        let mut engine = BvSession::new(SatConfig::default());
        check_cancelled_at(&mut engine, &aborted, trip)?;
        check_like_fresh(&mut engine, &aborted)?;
        for picks in &later {
            check_like_fresh(&mut engine, picks)?;
        }
    }

    #[test]
    fn lia_sessions_agree_with_from_scratch(
        steps in proptest::collection::vec(step_strategy(INT_POOL.len()), 1..14),
    ) {
        run_tape(INT_DECLS, INT_POOL, &steps)?;
    }

    #[test]
    fn bv_sessions_agree_with_from_scratch(
        steps in proptest::collection::vec(step_strategy(BV_POOL.len()), 1..14),
    ) {
        run_tape(BV_DECLS, BV_POOL, &steps)?;
    }
}

/// The directed pop-then-re-assert scenario from the issue, outside the
/// generator so it cannot rotate out of the corpus: assert, contradict
/// under a push, pop, then re-assert a *different* constraint on the same
/// symbols — the warm engine must forget the popped contradiction.
#[test]
fn pop_then_reassert_matches_cold() {
    let mut session = Session::new(config());
    session.assert_text(INT_DECLS).unwrap();
    session.assert_text("(assert (>= v0 0))").unwrap();
    session.assert_text("(assert (<= v0 10))").unwrap();
    session.assert_text("(assert (= (* v0 v0) 49))").unwrap();
    assert_eq!(session.check().unwrap().verdict.name(), "sat");
    session.push();
    session.assert_text("(assert (>= v0 8))").unwrap();
    assert_eq!(session.check().unwrap().verdict.name(), "unsat");
    assert!(session.pop());
    session.push();
    session.assert_text("(assert (<= v0 7))").unwrap();
    match session.check().unwrap().verdict {
        BatchVerdict::Sat(model) => {
            let script = session.script().expect("non-empty stack").clone();
            let v0 = script.store().symbol("v0").unwrap();
            let x = model.get(v0).unwrap().as_int().unwrap().to_i64().unwrap();
            assert_eq!(x, 7, "only witness in [0, 7] with x^2 = 49");
        }
        other => panic!("expected sat, got {}", other.name()),
    }
}
