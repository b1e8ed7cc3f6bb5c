//! The difference-logic STN lane vs the portfolio without it: the CI
//! acceptance gate behind `BatchConfig::dl`.
//!
//! The corpus is [`staub_benchgen::generate_dl`]: scheduling-shaped
//! chains, windows, bound rings, and strict orderings, roughly half unsat
//! via planted negative cycles — every instance inside the fragment the
//! STN decides completely, with exact ground truth from the generator.
//!
//! Both legs run one worker with early-stop; the only difference is
//! whether the complete difference-logic lane is planned (first) or the
//! portfolio falls back to its bounded lanes and the unbounded baseline.
//!
//! Output: `BENCH_dl.json` (path overridable as `argv[1]`) with
//! per-constraint verdicts, steps, and the STN leg's winning lane, plus
//! the gate bits CI greps for:
//!
//! * `verdicts_ok` — the STN leg decides *every* instance and matches the
//!   planted ground truth; the no-STN leg never contradicts it;
//! * `dl_wins_ok` — every STN-leg winner is the `dl/…` lane at trust
//!   multiplier 0 (both verdicts certified, nothing escalated);
//! * `steps_ok` — the STN leg spends strictly fewer total deterministic
//!   steps than the portfolio without it.
//!
//! Exits nonzero when any gate fails.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use staub_benchgen::generate_dl;
use staub_core::{run_batch_with, BatchConfig, BatchItem, BatchReport, RunOptions};

struct Leg {
    reports: Vec<BatchReport>,
    wall: Duration,
}

/// One worker and early-stop in both legs: the only difference is whether
/// the complete STN lane exists.
fn config(dl: bool) -> BatchConfig {
    BatchConfig {
        threads: 1,
        timeout: Duration::from_secs(30),
        steps: 2_000_000,
        cancel_losers: true,
        retry: false,
        dl,
        ..BatchConfig::default()
    }
}

fn run_leg(items: &[BatchItem], dl: bool) -> Leg {
    let start = Instant::now();
    let reports = run_batch_with(items, &config(dl), &RunOptions::default());
    Leg {
        reports,
        wall: start.elapsed(),
    }
}

fn steps_of(report: &BatchReport) -> u64 {
    report.lanes.iter().map(|l| l.steps_used).sum()
}

/// `sat` vs `unsat` between two sound verdicts is a soundness violation;
/// anything involving `unknown` is not.
fn contradicts(a: &str, b: &str) -> bool {
    matches!((a, b), ("sat", "unsat") | ("unsat", "sat"))
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dl.json".to_string());
    let suite = generate_dl(24, 0xD1FF);
    let items: Vec<BatchItem> = suite
        .iter()
        .map(|b| BatchItem {
            name: b.name.clone(),
            script: b.script.clone(),
        })
        .collect();
    let stn = run_leg(&items, true);
    let nostn = run_leg(&items, false);

    let mut rows = Vec::new();
    let mut verdicts_ok = true;
    let mut dl_wins_ok = true;
    let (mut stn_steps, mut nostn_steps) = (0u64, 0u64);
    for ((s, n), b) in stn.reports.iter().zip(&nostn.reports).zip(&suite) {
        let expected = if b.expected == Some(true) {
            "sat"
        } else {
            "unsat"
        };
        let (ss, ns) = (steps_of(s), steps_of(n));
        stn_steps += ss;
        nostn_steps += ns;
        // The STN leg must *decide* (the lane is complete for this
        // corpus) and agree with the planted truth; the fallback leg may
        // time out but must never contradict it.
        if s.verdict.name() != expected || contradicts(n.verdict.name(), expected) {
            verdicts_ok = false;
        }
        let winner = s.provenance();
        let winner_label = winner.as_ref().map(|p| p.label.clone()).unwrap_or_default();
        if !winner.is_some_and(|p| p.label.starts_with("dl/") && p.multiplier == 0) {
            dl_wins_ok = false;
        }
        rows.push(format!(
            concat!(
                "    {{\"name\":\"{}\",\"expected\":\"{}\",",
                "\"verdict_stn\":\"{}\",\"verdict_nostn\":\"{}\",",
                "\"winner_stn\":\"{}\",\"steps_stn\":{},\"steps_nostn\":{}}}"
            ),
            b.name,
            expected,
            s.verdict.name(),
            n.verdict.name(),
            winner_label,
            ss,
            ns,
        ));
    }

    // The STN assigns potentials in O(edges · relaxations) with no
    // search; any portfolio lane pays at least a SAT solve. Strict,
    // deterministic (one worker, fixed seeds), so exactly reproducible.
    let steps_ok = stn_steps < nostn_steps;

    let json = format!(
        "{{\n  \"corpus\": [\n{}\n  ],\n  \"totals\": {{\
         \"steps_stn\":{stn_steps},\"steps_nostn\":{nostn_steps},\
         \"wall_us_stn\":{},\"wall_us_nostn\":{}}},\n  \
         \"verdicts_ok\": {verdicts_ok},\n  \
         \"dl_wins_ok\": {dl_wins_ok},\n  \
         \"steps_ok\": {steps_ok}\n}}\n",
        rows.join(",\n"),
        stn.wall.as_micros(),
        nostn.wall.as_micros(),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "stn {stn_steps} steps vs portfolio {nostn_steps} steps | \
         verdicts ok: {verdicts_ok} | dl wins: {dl_wins_ok}"
    );
    if !verdicts_ok || !dl_wins_ok || !steps_ok {
        eprintln!(
            "FAIL: the STN lane must decide the whole DL corpus with \
             trusted dl/ provenance and strictly fewer steps than the \
             portfolio without it"
        );
        return ExitCode::FAILURE;
    }
    println!("PASS (report: {out_path})");
    ExitCode::SUCCESS
}
