//! Warm vs cold escalation ladders: the CI smoke benchmark behind the
//! incremental-session acceptance gate.
//!
//! The corpus is escalation-heavy by construction — nested-division
//! instances `(= (div (div x D1) D2) Q)` whose witnesses (`x ≈ D1·D2·Q`)
//! overflow the width inferred from the constants, so the base STAUB lane
//! comes back bounded-`unsat` (never trusted, §4.4) and the scheduler
//! must climb the ladder. Both legs run the identical ladder shape with
//! identical early-stop:
//!
//! * **warm** — [`RunOptions`] `warm: true`: each constraint's rungs run
//!   sequentially through one [`Session`](staub_core::Session), re-using
//!   the previous rung's low-bit encoding, learned clauses, phases, and
//!   activities;
//! * **cold** — `warm: false`: every rung gets a fresh solver.
//!
//! Output: `warm_vs_cold.json` (path overridable as `argv[1]`) with
//! per-constraint steps and wall-clock for both legs plus the two gate
//! bits CI greps for: `verdicts_identical` (warm and cold agree on every
//! constraint) and `reduction_ok` (warm saves ≥ 20% in steps or wall).
//! Exits nonzero when either gate fails.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use staub_core::{run_batch_with, BatchConfig, BatchItem, BatchReport, RunOptions};
use staub_smtlib::Script;

/// The acceptance threshold: warm must save at least this fraction.
const REDUCTION_FLOOR: f64 = 0.20;

/// `(D1, D2, Q)` triples for `(= (div (div x D1) D2) Q)`; witnesses live
/// near `D1·D2·Q` — three constant-widths past the inferred width, so the
/// ladder climbs through x2 into x4 before the witness fits.
const DIV_CORPUS: &[(i64, i64, i64)] = &[
    (7, 9, 13),
    (5, 11, 17),
    (3, 13, 23),
    (9, 7, 15),
    (11, 5, 19),
    (13, 3, 29),
    (4, 9, 27),
    (6, 7, 21),
    (10, 3, 33),
    (8, 5, 25),
    (12, 5, 17),
    (5, 9, 31),
];

fn corpus() -> Vec<BatchItem> {
    DIV_CORPUS
        .iter()
        .map(|&(d1, d2, q)| {
            let src = format!("(declare-fun x () Int)(assert (= (div (div x {d1}) {d2}) {q}))");
            BatchItem {
                name: format!("div2_x_{d1}_{d2}_eq_{q}"),
                script: Script::parse(&src).expect("corpus source parses"),
            }
        })
        .collect()
}

/// One worker and `cancel_losers` in *both* legs: rungs run sequentially
/// in ascending-width plan order and stop at the first sound answer, so
/// the only difference between the legs is engine reuse.
fn config() -> BatchConfig {
    BatchConfig {
        threads: 1,
        timeout: Duration::from_secs(30),
        steps: 2_000_000,
        escalations: vec![2, 4],
        include_baseline: false,
        cancel_losers: true,
        retry: false,
        ..BatchConfig::default()
    }
}

struct Leg {
    reports: Vec<BatchReport>,
    wall: Duration,
}

fn run_leg(items: &[BatchItem], warm: bool) -> Leg {
    let options = RunOptions {
        warm,
        ..RunOptions::default()
    };
    let start = Instant::now();
    let reports = run_batch_with(items, &config(), &options);
    Leg {
        reports,
        wall: start.elapsed(),
    }
}

fn steps_of(report: &BatchReport) -> u64 {
    report.lanes.iter().map(|l| l.steps_used).sum()
}

/// Per-constraint wall: the sum of lane runtimes (`BatchReport::wall`
/// measures from *batch* submission, which under one worker accumulates
/// the whole queue ahead of the constraint).
fn lane_wall_of(report: &BatchReport) -> Duration {
    report.lanes.iter().map(|l| l.elapsed).sum()
}

fn reduction(cold: f64, warm: f64) -> f64 {
    if cold <= 0.0 {
        return 0.0;
    }
    (cold - warm) / cold
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "warm_vs_cold.json".to_string());
    let items = corpus();
    let cold = run_leg(&items, false);
    let warm = run_leg(&items, true);

    let mut rows = Vec::new();
    let mut verdicts_identical = true;
    let (mut warm_steps, mut cold_steps) = (0u64, 0u64);
    for (w, c) in warm.reports.iter().zip(&cold.reports) {
        let (ws, cs) = (steps_of(w), steps_of(c));
        warm_steps += ws;
        cold_steps += cs;
        if w.verdict.name() != c.verdict.name() {
            verdicts_identical = false;
        }
        let lane = |r: &BatchReport| {
            r.provenance()
                .map_or_else(|| "null".into(), |p| format!("\"{}\"", p.label))
        };
        rows.push(format!(
            concat!(
                "    {{\"name\":\"{}\",\"verdict_warm\":\"{}\",\"verdict_cold\":\"{}\",",
                "\"lane_warm\":{},\"lane_cold\":{},",
                "\"steps_warm\":{},\"steps_cold\":{},",
                "\"wall_us_warm\":{},\"wall_us_cold\":{}}}"
            ),
            w.name,
            w.verdict.name(),
            c.verdict.name(),
            lane(w),
            lane(c),
            ws,
            cs,
            lane_wall_of(w).as_micros(),
            lane_wall_of(c).as_micros(),
        ));
    }

    let steps_reduction = reduction(cold_steps as f64, warm_steps as f64);
    let wall_reduction = reduction(cold.wall.as_secs_f64(), warm.wall.as_secs_f64());
    let reduction_ok = steps_reduction >= REDUCTION_FLOOR || wall_reduction >= REDUCTION_FLOOR;

    let json = format!(
        "{{\n  \"corpus\": [\n{}\n  ],\n  \"totals\": {{\"steps_warm\":{},\"steps_cold\":{},\
         \"wall_us_warm\":{},\"wall_us_cold\":{},\
         \"steps_reduction\":{:.4},\"wall_reduction\":{:.4}}},\n  \
         \"reduction_floor\": {REDUCTION_FLOOR},\n  \
         \"verdicts_identical\": {verdicts_identical},\n  \
         \"reduction_ok\": {reduction_ok}\n}}\n",
        rows.join(",\n"),
        warm_steps,
        cold_steps,
        warm.wall.as_micros(),
        cold.wall.as_micros(),
        steps_reduction,
        wall_reduction,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "warm {warm_steps} steps / {:?} vs cold {cold_steps} steps / {:?}",
        warm.wall, cold.wall
    );
    println!(
        "steps reduction {:.1}% | wall reduction {:.1}% | verdicts identical: {verdicts_identical}",
        100.0 * steps_reduction,
        100.0 * wall_reduction,
    );
    if !verdicts_identical || !reduction_ok {
        eprintln!("FAIL: warm escalation must agree with cold and save >= 20%");
        return ExitCode::FAILURE;
    }
    println!("PASS (report: {out_path})");
    ExitCode::SUCCESS
}
