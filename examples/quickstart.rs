//! Quickstart: inspect STAUB's translation of an SMT-LIB constraint, then
//! solve it with the portfolio scheduler.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use staub::core::{BatchVerdict, Session, Staub};
use staub::smtlib::Script;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = "\
(set-logic QF_NIA)
(declare-fun x () Int)
(declare-fun y () Int)
(assert (= (+ (* x x) (* y y)) 6724))
(assert (> x 0))
(assert (> y x))
(check-sat)";
    println!("Input constraint:\n{src}\n");

    let script = Script::parse(src)?;
    let staub = Staub::default();

    // Inspect the inferred bounds and the transformed constraint.
    let bounds = staub.infer(&script);
    println!(
        "Inferred bounds: assumption width x = {}, root width [S] = {}",
        bounds.assumption_width, bounds.root_width
    );
    let transformed = staub.transform(&script)?;
    println!(
        "Translated to {}-bit bitvectors with {} overflow guards:\n{}",
        transformed.bv_width.expect("integer constraint"),
        transformed.guard_count,
        transformed.script
    );

    // Race the baseline against the bounded lanes in a session — repeated
    // checks would warm-start from this one.
    let mut session = Session::default();
    let report = session.run(&script)?;
    let lane = report
        .winner_lane()
        .map_or_else(|| "none".to_string(), |l| l.spec.label());
    match report.verdict {
        BatchVerdict::Sat(model) => {
            println!("sat (lane {lane})");
            println!("model:\n{}", model.to_smtlib(script.store()));
        }
        verdict => println!("{} (lane {lane})", verdict.name()),
    }
    Ok(())
}
