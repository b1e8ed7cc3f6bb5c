//! Counterexample-guided refinement vs the blind escalation ladder: the
//! CI acceptance gate behind `BatchConfig::refine`.
//!
//! The corpus is escalation-heavy NIA plus the skewed-width family:
//!
//! * **prime-diff** — `y² − z² = p` for odd primes whose witnesses
//!   overflow the 9-bit base guards, so the base rung is bounded-`unsat`
//!   and both strategies must widen before the witness fits;
//! * **skewed** — [`staub_benchgen::generate_skewed`]: the same hot pair
//!   among narrow `[0, 3]` distractors. The blind ladder re-encodes every
//!   variable at the doubled width; refinement should widen only the
//!   variables the unsat core names;
//! * **real-square** — exactly-representable NRA witnesses, decided at
//!   the base rung, pinning verdict agreement outside the integer path.
//!
//! Both legs run one worker with early-stop. A third, *sequential*
//! reference leg runs each constraint through a fresh
//! [`Session`] (bounded path, then the original
//! constraint) as an independent soundness anchor.
//!
//! Output: `BENCH_refine.json` (path overridable as `argv[1]`) with
//! per-constraint verdicts, steps, rung counts, and final variable-bit
//! footprints, plus the gate bits CI greps for:
//!
//! * `verdicts_identical` — refine and blind agree on every constraint,
//!   and neither contradicts the sequential reference where both are
//!   sound;
//! * `rungs_ok` — refinement runs no more widening rungs than the blind
//!   ladder runs lanes;
//! * `steps_ok` — refinement's total deterministic steps stay within 25%
//!   of the blind ladder's (circuits sit at the node width either way, so
//!   steps are search noise; the bound guards against blow-up);
//! * `skewed_bits_ok` — on the skewed family, refinement's final encoding
//!   uses strictly fewer total variable bits than the blind ladder's.
//!
//! Exits nonzero when any gate fails.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use staub_benchgen::generate_skewed;
use staub_core::{
    run_batch_with, BatchConfig, BatchItem, BatchReport, LaneKind, LaneVerdict, RunOptions,
    Session, StaubConfig, WidthChoice,
};
use staub_smtlib::Script;

/// Odd primes for `y² − z² = p`: witnesses `((p+1)/2, (p−1)/2)` whose
/// squares need 13–16 bits — past the 9-bit base, within one doubling.
const PRIME_DIFFS: &[i64] = &[89, 127, 151, 199, 239, 251];

/// `(numerator, denominator, square)` with the root exactly representable
/// in binary, so the lifted model verifies at the base rung.
const REAL_SQUARES: &[(&str, &str)] = &[("2.25", "1.5"), ("0.0625", "0.25")];

fn corpus() -> Vec<BatchItem> {
    let mut items: Vec<BatchItem> = PRIME_DIFFS
        .iter()
        .map(|&p| {
            let src = format!(
                "(declare-fun y () Int)(declare-fun z () Int)\
                 (assert (>= y 0))(assert (>= z 0))\
                 (assert (= (- (* y y) (* z z)) {p}))"
            );
            BatchItem {
                name: format!("nia/prime_diff_{p}"),
                script: Script::parse(&src).expect("corpus source parses"),
            }
        })
        .collect();
    items.extend(generate_skewed(8, 0x5EED).into_iter().map(|b| BatchItem {
        name: b.name,
        script: b.script,
    }));
    items.extend(REAL_SQUARES.iter().map(|&(sq, _root)| {
        let src = format!("(declare-fun r () Real)(assert (= (* r r) {sq}))");
        BatchItem {
            name: format!("nra/square_{sq}"),
            script: Script::parse(&src).expect("corpus source parses"),
        }
    }));
    items
}

/// One worker and early-stop in both legs: the only difference is *what*
/// gets widened between rungs — everything (blind) or the variables the
/// counterexample names (refine).
fn config(refine: bool) -> BatchConfig {
    BatchConfig {
        threads: 1,
        timeout: Duration::from_secs(30),
        steps: 2_000_000,
        width_choice: WidthChoice::Fixed(9),
        escalations: if refine { Vec::new() } else { vec![2, 4] },
        include_baseline: false,
        cancel_losers: true,
        retry: false,
        refine,
        ..BatchConfig::default()
    }
}

struct Leg {
    reports: Vec<BatchReport>,
    wall: Duration,
}

fn run_leg(items: &[BatchItem], refine: bool) -> Leg {
    let start = Instant::now();
    let reports = run_batch_with(items, &config(refine), &RunOptions::default());
    Leg {
        reports,
        wall: start.elapsed(),
    }
}

/// The sequential reference: a fresh warm session per constraint, full
/// pipeline (bounded path, then the original constraint).
fn reference_verdicts(items: &[BatchItem]) -> Vec<&'static str> {
    items
        .iter()
        .map(|item| {
            let mut session = Session::new(StaubConfig {
                timeout: Duration::from_secs(30),
                steps: 2_000_000,
                ..StaubConfig::default()
            });
            match session.run(&item.script) {
                Ok(outcome) => match outcome.verdict_name() {
                    "sat" => "sat",
                    "unsat" => "unsat",
                    _ => "unknown",
                },
                Err(_) => "unknown",
            }
        })
        .collect()
}

fn steps_of(report: &BatchReport) -> u64 {
    report.lanes.iter().map(|l| l.steps_used).sum()
}

/// Rungs the refine strategy ran (bounded attempts), or lanes the blind
/// ladder actually executed (skipped lanes consumed nothing).
fn attempts_of(report: &BatchReport) -> usize {
    let rungs: usize = report.lanes.iter().map(|l| l.rungs.len()).sum();
    if rungs > 0 {
        return rungs;
    }
    report
        .lanes
        .iter()
        .filter(|l| l.verdict != LaneVerdict::Cancelled || l.steps_used > 0)
        .count()
}

/// Final total variable-bit footprint of the strategy's deciding
/// encoding: the last rung's `total_bits` (refine), or the winning blind
/// lane's width × variable count. Undecided reports are charged the
/// widest encoding the strategy actually built. The rungless estimate is
/// Int-centric (Real variables count their base-width approximation), the
/// same on both legs.
fn final_bits(report: &BatchReport, item: &BatchItem, base_width: u32) -> u64 {
    let nvars = item.script.store().symbols().count() as u64;
    let lane_mult = |l: &staub_core::LaneOutcome| match l.spec.kind {
        LaneKind::Staub { escalation, .. } => u64::from(escalation.max(1)),
        _ => 1,
    };
    if let Some(winner) = report.winner_lane() {
        if let Some(rung) = winner.rungs.last() {
            return rung.total_bits;
        }
        return u64::from(base_width) * lane_mult(winner) * nvars;
    }
    if let Some(bits) = report
        .lanes
        .iter()
        .flat_map(|l| l.rungs.last())
        .map(|r| r.total_bits)
        .max()
    {
        return bits;
    }
    let widest = report
        .lanes
        .iter()
        .filter(|l| l.steps_used > 0 || l.verdict != LaneVerdict::Cancelled)
        .map(lane_mult)
        .max()
        .unwrap_or(1);
    u64::from(base_width) * widest * nvars
}

/// `sat` vs `unsat` between two sound verdicts is a soundness violation;
/// anything involving `unknown` is not.
fn contradicts(a: &str, b: &str) -> bool {
    matches!((a, b), ("sat", "unsat") | ("unsat", "sat"))
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_refine.json".to_string());
    let items = corpus();
    let blind = run_leg(&items, false);
    let refined = run_leg(&items, true);
    let reference = reference_verdicts(&items);

    let mut rows = Vec::new();
    let mut verdicts_identical = true;
    let (mut refine_steps, mut blind_steps) = (0u64, 0u64);
    let (mut refine_attempts, mut blind_attempts) = (0usize, 0usize);
    let (mut skewed_bits_refine, mut skewed_bits_blind) = (0u64, 0u64);
    for ((r, b), (item, reference)) in refined
        .reports
        .iter()
        .zip(&blind.reports)
        .zip(items.iter().zip(&reference))
    {
        let (rs, bs) = (steps_of(r), steps_of(b));
        refine_steps += rs;
        blind_steps += bs;
        let (ra, ba) = (attempts_of(r), attempts_of(b));
        refine_attempts += ra;
        blind_attempts += ba;
        let (rbits, bbits) = (final_bits(r, item, 9), final_bits(b, item, 9));
        if item.name.starts_with("skewed/") {
            skewed_bits_refine += rbits;
            skewed_bits_blind += bbits;
        }
        if r.verdict.name() != b.verdict.name()
            || contradicts(r.verdict.name(), reference)
            || contradicts(b.verdict.name(), reference)
        {
            verdicts_identical = false;
        }
        rows.push(format!(
            concat!(
                "    {{\"name\":\"{}\",\"verdict_refine\":\"{}\",\"verdict_blind\":\"{}\",",
                "\"verdict_reference\":\"{}\",",
                "\"rungs_refine\":{},\"lanes_blind\":{},",
                "\"steps_refine\":{},\"steps_blind\":{},",
                "\"bits_refine\":{},\"bits_blind\":{}}}"
            ),
            item.name,
            r.verdict.name(),
            b.verdict.name(),
            reference,
            ra,
            ba,
            rs,
            bs,
            rbits,
            bbits,
        ));
    }

    let rungs_ok = refine_attempts <= blind_attempts;
    // Steps are a no-blow-up guard, not the headline: the arithmetic
    // circuits sit at the node width on both legs, so step counts differ
    // only by CDCL search noise (±10% per instance in both directions).
    // The per-variable win shows up in the bit footprint; refinement just
    // must not pay for it in steps. Deterministic (one worker, fixed
    // seeds), so the bound is exactly reproducible.
    let steps_ok = refine_steps <= blind_steps + blind_steps / 4;
    let skewed_bits_ok = skewed_bits_refine < skewed_bits_blind;

    let json = format!(
        "{{\n  \"corpus\": [\n{}\n  ],\n  \"totals\": {{\
         \"steps_refine\":{refine_steps},\"steps_blind\":{blind_steps},\
         \"attempts_refine\":{refine_attempts},\"attempts_blind\":{blind_attempts},\
         \"skewed_bits_refine\":{skewed_bits_refine},\"skewed_bits_blind\":{skewed_bits_blind},\
         \"wall_us_refine\":{},\"wall_us_blind\":{}}},\n  \
         \"verdicts_identical\": {verdicts_identical},\n  \
         \"rungs_ok\": {rungs_ok},\n  \
         \"steps_ok\": {steps_ok},\n  \
         \"skewed_bits_ok\": {skewed_bits_ok}\n}}\n",
        rows.join(",\n"),
        refined.wall.as_micros(),
        blind.wall.as_micros(),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "refine {refine_steps} steps / {refine_attempts} attempts vs \
         blind {blind_steps} steps / {blind_attempts} lanes"
    );
    println!(
        "skewed bits {skewed_bits_refine} vs {skewed_bits_blind} | verdicts identical: \
         {verdicts_identical}"
    );
    if !verdicts_identical || !rungs_ok || !steps_ok || !skewed_bits_ok {
        eprintln!(
            "FAIL: refinement must agree with the blind ladder, run no more \
             attempts, stay within the step envelope, and (skewed) encode \
             strictly fewer bits"
        );
        return ExitCode::FAILURE;
    }
    println!("PASS (report: {out_path})");
    ExitCode::SUCCESS
}
