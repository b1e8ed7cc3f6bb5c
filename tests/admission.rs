//! Staged admission: with first-answer cancellation on, the scheduler runs
//! each constraint's difference-logic lane and then its baseline on the
//! calling thread under a step slice of [`ADMISSION_STEPS`] before any
//! fan-out. A slice that returns with budget to spare is final; one that
//! ran out is thrown away and its lane re-run at its full budget beside
//! the bounded lanes.
//!
//! On a fixed-seed corpus from the LIA, LRA, difference-logic, linear, NIA
//! and skewed families this pins that admission changes the cost of a
//! solve, never its answer:
//!
//! * (a) every verdict equals the verdict of the full fan-out
//!   (`cancel_losers: false`), and repeats on a second run;
//! * (b) every lane finalized in admission has the verdict and step count
//!   of the same lane in the full fan-out;
//! * (c) a constraint whose baseline runs past the slice is still decided
//!   by a bounded lane, with the full-budget baseline cancelled mid-run;
//! * (d) a constraint decided in admission lists its bounded lanes as
//!   cancelled, with no steps, no time and no stop latency;
//!
//! and that the difference-logic lane, run first, decides every
//! difference-logic constraint.
//!
//! Budgets are deterministic steps; the wall-clock timeout never binds.

use std::sync::OnceLock;
use std::time::Duration;

use staub::benchgen::{
    generate, generate_dl, generate_linear, generate_skewed, Benchmark, SuiteKind,
};
use staub::core::sched::ADMISSION_STEPS;
use staub::core::{
    run_batch_with, run_one_with, BatchConfig, BatchItem, BatchReport, BatchVerdict, LaneKind,
    LaneOutcome, LaneVerdict, RunOptions,
};

const SEED: u64 = 0xAD317;
const PER_FAMILY: usize = 6;
const STEPS: u64 = 100_000;
const TIMEOUT: Duration = Duration::from_secs(600);

fn corpus() -> Vec<BatchItem> {
    let mut suite: Vec<Benchmark> = Vec::new();
    for kind in [SuiteKind::QfLia, SuiteKind::QfLra, SuiteKind::QfNia] {
        suite.extend(generate(kind, PER_FAMILY, SEED));
    }
    suite.extend(generate_dl(PER_FAMILY, SEED));
    suite.extend(generate_linear(PER_FAMILY, SEED, 6));
    suite.extend(generate_skewed(PER_FAMILY, SEED));
    suite
        .into_iter()
        .map(|b| BatchItem {
            name: b.name,
            script: b.script,
        })
        .collect()
}

fn config(cancel_losers: bool) -> BatchConfig {
    BatchConfig {
        threads: 2,
        timeout: TIMEOUT,
        steps: STEPS,
        cancel_losers,
        ..BatchConfig::default()
    }
}

fn racing(lane: &LaneOutcome) -> bool {
    matches!(lane.spec.kind, LaneKind::Baseline | LaneKind::DiffLogic)
}

/// A racing lane that ended on its own within the slice: only an
/// admission run can, since a lane is re-run only after its slice ran out.
fn finalized_in_admission(lane: &LaneOutcome) -> bool {
    racing(lane) && lane.verdict != LaneVerdict::Cancelled && lane.steps_used <= ADMISSION_STEPS
}

/// The winner decided in admission: a racing lane within the slice.
fn decided_in_admission(report: &BatchReport) -> bool {
    report
        .winner_lane()
        .is_some_and(|w| racing(w) && w.steps_used < ADMISSION_STEPS)
}

/// Runs the corpus one constraint at a time, as `staub serve` does.
fn run_each(items: &[BatchItem], config: &BatchConfig) -> Vec<BatchReport> {
    items
        .iter()
        .map(|item| run_one_with(&item.name, &item.script, config, &RunOptions::default()))
        .collect()
}

/// The corpus run once as a full fan-out and twice with admission: one
/// constraint at a time, then as one batch.
struct Runs {
    full: Vec<BatchReport>,
    first: Vec<BatchReport>,
    second: Vec<BatchReport>,
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let items = corpus();
        Runs {
            full: run_batch_with(&items, &config(false), &RunOptions::default()),
            first: run_each(&items, &config(true)),
            second: run_batch_with(&items, &config(true), &RunOptions::default()),
        }
    })
}

#[test]
fn verdicts_match_the_full_fan_out_and_repeat() {
    let runs = runs();
    let mut admitted = 0;
    for ((full, first), second) in runs.full.iter().zip(&runs.first).zip(&runs.second) {
        let name = &full.name;
        // (a) Same verdict as the full fan-out, and again on a second run.
        assert_eq!(first.verdict.name(), full.verdict.name(), "{name}");
        assert_eq!(second.verdict.name(), first.verdict.name(), "{name}");
        if decided_in_admission(first) {
            admitted += 1;
            // Admission has no race: the same lane decides every run.
            assert_eq!(
                second.provenance().map(|p| p.label),
                first.provenance().map(|p| p.label),
                "{name}"
            );
        }
    }
    // Most of the corpus is decided in admission; the rest exercises the
    // fan-out.
    assert!(admitted >= runs.first.len() / 2, "{admitted}");
    assert!(admitted < runs.first.len(), "{admitted}");
}

#[test]
fn lanes_finalized_in_admission_match_their_full_budget_twins() {
    let runs = runs();
    let mut admitted = 0;
    for (full, first) in runs.full.iter().zip(&runs.first) {
        // (b) A lane admission finalized is the full-budget lane.
        for (lane, twin) in first.lanes.iter().zip(&full.lanes) {
            assert_eq!(lane.spec, twin.spec, "{}", full.name);
            if finalized_in_admission(lane) {
                admitted += 1;
                assert_eq!(
                    (lane.verdict, lane.steps_used),
                    (twin.verdict, twin.steps_used),
                    "{}: {}",
                    full.name,
                    lane.spec.label()
                );
            }
        }
    }
    assert!(admitted >= runs.first.len() / 2, "{admitted}");
}

#[test]
fn constraints_decided_in_admission_never_start_their_bounded_lanes() {
    let runs = runs();
    for report in runs.first.iter().filter(|r| decided_in_admission(r)) {
        let name = &report.name;
        // (d) Skipped before they started: no steps, time or stop latency.
        for lane in report.lanes.iter().filter(|l| l.spec.is_staub()) {
            assert_eq!(lane.verdict, LaneVerdict::Cancelled, "{name}");
            assert_eq!(lane.steps_used, 0, "{name}: {}", lane.spec.label());
            assert_eq!(lane.elapsed, Duration::ZERO, "{name}");
            assert_eq!(lane.cancel_latency, None, "{name}: {}", lane.spec.label());
        }
        let line = report.to_jsonl();
        assert!(
            line.contains(
                "\"verdict\":\"cancelled\",\"ms\":0.000,\"steps\":0,\"cancel_latency_ms\":null"
            ),
            "{line}"
        );
    }
}

#[test]
fn difference_logic_lane_decides_every_dl_constraint() {
    let items: Vec<BatchItem> = generate_dl(2 * PER_FAMILY, SEED)
        .into_iter()
        .map(|b| BatchItem {
            name: b.name,
            script: b.script,
        })
        .collect();
    for report in run_each(&items, &config(true)) {
        let p = report.provenance().expect("the STN decides its fragment");
        assert_eq!(p.label, "dl/zed", "{}", report.name);
        assert!(decided_in_admission(&report), "{}", report.name);
        let baseline = report.baseline_lane().expect("baseline planned");
        assert_eq!(baseline.verdict, LaneVerdict::Cancelled, "{}", report.name);
        assert_eq!(baseline.steps_used, 0, "{}", report.name);
    }
}

#[test]
fn baseline_past_the_slice_races_the_bounded_lanes() {
    // nia/quadsys/0002 of seed 10: the bounded ladder verifies a model in
    // well under 60k steps, while the baseline is still searching after
    // 200k (the hard/easy instance of tests/sched_props.rs).
    let bench = generate(SuiteKind::QfNia, 24, 10)
        .into_iter()
        .find(|b| b.name == "nia/quadsys/0002")
        .expect("the suite has the instance");
    let config = BatchConfig {
        steps: 40_000_000,
        ..config(true)
    };
    let report = run_one_with(&bench.name, &bench.script, &config, &RunOptions::default());
    assert!(matches!(report.verdict, BatchVerdict::Sat(_)));
    let winner = report.winner_lane().expect("sat has a winner");
    assert!(winner.spec.is_staub(), "{}", winner.spec.label());
    // (c) The baseline's slice ran out, so it ran again at its full
    // budget, beside the ladder, until the ladder's answer stopped it.
    let baseline = report.baseline_lane().expect("baseline planned");
    assert_eq!(baseline.verdict, LaneVerdict::Cancelled);
    assert!(baseline.cancel_latency.is_some());
    assert!(
        baseline.steps_used > ADMISSION_STEPS,
        "{}",
        baseline.steps_used
    );
    assert!(baseline.steps_used < config.steps);
}
