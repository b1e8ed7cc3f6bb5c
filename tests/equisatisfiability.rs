//! Property tests of the core arbitrage invariants, against a brute-force
//! oracle on randomly generated small integer constraints.
//!
//! The deep properties (paper §3.1/§4.4):
//!
//! 1. **Underapproximation** — a verified bounded model IS a model of the
//!    original (checked structurally by `lift_and_verify`, re-checked here
//!    against brute force).
//! 2. **No wrong `unsat`** — the pipeline never reports `unsat` for a
//!    constraint the oracle can satisfy.
//! 3. **Guard soundness** — models of the guarded bounded constraint never
//!    rely on wraparound: lifting always verifies when all operations stay
//!    representable.

use proptest::prelude::*;
use staub::core::{BatchConfig, BatchVerdict, Session, Staub, StaubConfig, WidthChoice};
use staub::numeric::BigInt;
use staub::smtlib::{evaluate, Model, Script, Sort, TermId, Value};
use std::time::Duration;

/// A tiny random integer-constraint AST we can both emit and brute-force.
#[derive(Debug, Clone)]
enum SmallExpr {
    Var(usize),
    Const(i64),
    Add(Box<SmallExpr>, Box<SmallExpr>),
    Sub(Box<SmallExpr>, Box<SmallExpr>),
    Mul(Box<SmallExpr>, Box<SmallExpr>),
}

impl SmallExpr {
    fn emit(&self, script: &mut Script, vars: &[staub::smtlib::SymbolId]) -> TermId {
        match self {
            SmallExpr::Var(i) => script.store_mut().var(vars[*i]),
            SmallExpr::Const(c) => script.store_mut().int(BigInt::from(*c)),
            SmallExpr::Add(a, b) => {
                let ta = a.emit(script, vars);
                let tb = b.emit(script, vars);
                script.store_mut().add(&[ta, tb]).expect("int add")
            }
            SmallExpr::Sub(a, b) => {
                let ta = a.emit(script, vars);
                let tb = b.emit(script, vars);
                script.store_mut().sub(ta, tb).expect("int sub")
            }
            SmallExpr::Mul(a, b) => {
                let ta = a.emit(script, vars);
                let tb = b.emit(script, vars);
                script.store_mut().mul(&[ta, tb]).expect("int mul")
            }
        }
    }
}

fn small_expr(depth: u32) -> impl Strategy<Value = SmallExpr> {
    let leaf = prop_oneof![
        (0usize..2).prop_map(SmallExpr::Var),
        (-8i64..=8).prop_map(SmallExpr::Const),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SmallExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SmallExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| SmallExpr::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

/// Builds `(assert (cmp lhs rhs))` over two integer variables.
fn build_script(lhs: &SmallExpr, rhs: &SmallExpr, cmp: u8) -> Script {
    let mut script = Script::new();
    let vars = vec![
        script.declare("v0", Sort::Int).expect("fresh"),
        script.declare("v1", Sort::Int).expect("fresh"),
    ];
    let tl = lhs.emit(&mut script, &vars);
    let tr = rhs.emit(&mut script, &vars);
    let s = script.store_mut();
    let atom = match cmp % 3 {
        0 => s.eq(tl, tr).expect("eq"),
        1 => s.le(tl, tr).expect("le"),
        _ => s.gt(tl, tr).expect("gt"),
    };
    script.assert(atom);
    // Keep the oracle domain small.
    let lo = script.store_mut().int(BigInt::from(-6));
    let hi = script.store_mut().int(BigInt::from(6));
    for &v in &vars {
        let t = script.store_mut().var(v);
        let ge = script.store_mut().ge(t, lo).expect("ge");
        let le = script.store_mut().le(t, hi).expect("le");
        script.assert(ge);
        script.assert(le);
    }
    script
}

/// Brute-force oracle over the bounded domain.
fn oracle(script: &Script) -> bool {
    let v0 = script.store().symbol("v0").unwrap();
    let v1 = script.store().symbol("v1").unwrap();
    for a in -6i64..=6 {
        for b in -6i64..=6 {
            let mut m = Model::new();
            m.insert(v0, Value::Int(BigInt::from(a)));
            m.insert(v1, Value::Int(BigInt::from(b)));
            if script
                .assertions()
                .iter()
                .all(|&t| evaluate(script.store(), t, &m) == Ok(Value::Bool(true)))
            {
                return true;
            }
        }
    }
    false
}

fn tool_config() -> StaubConfig {
    StaubConfig {
        width_choice: WidthChoice::Inferred,
        timeout: Duration::from_secs(2),
        steps: 2_000_000,
        ..Default::default()
    }
}

fn tool() -> Staub {
    Staub::new(tool_config())
}

fn session_config() -> BatchConfig {
    BatchConfig {
        width_choice: WidthChoice::Inferred,
        timeout: Duration::from_secs(2),
        steps: 2_000_000,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_agrees_with_brute_force(
        lhs in small_expr(2),
        rhs in small_expr(2),
        cmp in any::<u8>(),
    ) {
        let script = build_script(&lhs, &rhs, cmp);
        let truth = oracle(&script);
        match Session::new(session_config()).run(&script).expect("non-empty").verdict {
            BatchVerdict::Sat(model) => {
                prop_assert!(truth, "pipeline sat, oracle unsat:\n{script}");
                for &a in script.assertions() {
                    prop_assert_eq!(
                        evaluate(script.store(), a, &model).unwrap(),
                        Value::Bool(true)
                    );
                }
            }
            BatchVerdict::Unsat => {
                prop_assert!(!truth, "pipeline unsat, oracle sat:\n{script}");
            }
            BatchVerdict::Unknown => {} // budget; sound either way
        }
    }

    #[test]
    fn bounded_models_always_verify(
        lhs in small_expr(2),
        rhs in small_expr(2),
        cmp in any::<u8>(),
    ) {
        // If the guarded bounded constraint is sat, lifting must verify:
        // the guards forbid every wraparound the translation could exploit.
        let script = build_script(&lhs, &rhs, cmp);
        let staub = tool();
        let Ok(transformed) = staub.transform(&script) else { return Ok(()) };
        let solver = staub::solver::Solver::new(staub::solver::SolverProfile::Zed)
            .with_timeout(Duration::from_secs(2))
            .with_steps(2_000_000);
        if let staub::solver::SatResult::Sat(bounded_model) =
            solver.solve(&transformed.script).result
        {
            let lifted =
                staub::core::verify::lift_and_verify(&script, &transformed, &bounded_model);
            prop_assert!(
                lifted.is_some(),
                "guarded bounded model failed verification:\n{}\n=>\n{}",
                script,
                transformed.script
            );
        }
    }

    #[test]
    fn inference_covers_intermediates_within_assumption(
        lhs in small_expr(2),
        rhs in small_expr(2),
    ) {
        // Theorem 4.5 instantiated: for assignments within the assumption
        // width x, every intermediate value fits in the root width [S].
        let script = build_script(&lhs, &rhs, 0);
        let bounds = tool().infer(&script);
        let x_range = 1i64 << (bounds.assumption_width.min(16) - 1);
        let half = |w: u32| BigInt::one().shl_bits(w.min(62) as usize - 1);
        let cap = half(bounds.root_width.min(63));
        for a in [-x_range, -1, 0, 1, x_range - 1] {
            for b in [-x_range, 0, x_range - 1] {
                for e in [&lhs, &rhs] {
                    let v = eval_exact(e, &[a, b]);
                    prop_assert!(
                        v.abs() < cap || v == -half(bounds.root_width.min(63)),
                        "intermediate {v} exceeds [S]={} at x={}",
                        bounds.root_width,
                        bounds.assumption_width
                    );
                }
            }
        }
    }
}

/// Exact (non-wrapping) evaluation for the inference-soundness check.
fn eval_exact(e: &SmallExpr, env: &[i64]) -> BigInt {
    match e {
        SmallExpr::Var(i) => BigInt::from(env[*i]),
        SmallExpr::Const(c) => BigInt::from(*c),
        SmallExpr::Add(a, b) => &eval_exact(a, env) + &eval_exact(b, env),
        SmallExpr::Sub(a, b) => &eval_exact(a, env) - &eval_exact(b, env),
        SmallExpr::Mul(a, b) => &eval_exact(a, env) * &eval_exact(b, env),
    }
}
