//! Lane ledger: every library solving entry point keeps its verdicts,
//! provenance and deterministic step counts, lane by lane.
//!
//! A fixed-seed corpus with a few constraints from every benchgen family
//! (NIA, LIA, NRA, LRA, skewed, difference logic, and the linear family,
//! whose parity and interval instances are certified LIA) runs through
//!
//! * the scheduler under the default lane plan (baseline, the warm
//!   `staub/xN` escalation ladder, and the DL and complete lanes where
//!   they apply),
//! * the scheduler under the refine plan, and
//! * `Session::run` on a fresh session per constraint,
//!
//! each once at the inferred width and once at a fixed 9-bit base, which
//! is too narrow for many constants and witnesses and so exercises the
//! escalation rungs, the refine lane's widening and the fallback to the
//! original constraint.
//!
//! Both scheduler runs use one worker, a wall-clock timeout that never
//! binds and `cancel_losers: false`, so every planned lane runs and every
//! figure below is a deterministic step count. The rendered ledger must
//! equal `tests/lane_ledger.txt` byte for byte. Widened variable names in
//! refine rungs are sorted.
//!
//! To regenerate the ledger after an intended behaviour change, run
//!
//! ```text
//! STAUB_REGEN_LEDGER=1 cargo test --test lane_ledger
//! ```
//!
//! and review the diff of `tests/lane_ledger.txt` like any other change.

use std::fmt::Write as _;
use std::time::Duration;

use staub::benchgen::{generate, generate_dl, generate_linear, generate_skewed, SuiteKind};
use staub::core::{
    run_batch_with, BatchConfig, BatchItem, BatchReport, RunOptions, Session, StaubConfig,
    WidthChoice,
};

const SEED: u64 = 0x1ED6E5;
const STEPS: u64 = 100_000;
/// Far above what [`STEPS`] takes: the step budget ends every lane.
const TIMEOUT: Duration = Duration::from_secs(600);
const LEDGER: &str = "tests/lane_ledger.txt";

fn corpus() -> Vec<BatchItem> {
    let mut suite = Vec::new();
    for kind in SuiteKind::all() {
        suite.extend(generate(kind, 3, SEED));
    }
    suite.extend(generate_skewed(3, SEED));
    suite.extend(generate_dl(3, SEED));
    // All four linear subfamilies: parity and interval (certified LIA),
    // the LRA gap and mixed Int+Real.
    suite.extend(generate_linear(4, SEED, 6));
    suite
        .into_iter()
        .map(|b| BatchItem {
            name: b.name,
            script: b.script,
        })
        .collect()
}

/// The two base widths every plan runs at, with their ledger tags.
const WIDTHS: [(&str, WidthChoice); 2] =
    [("", WidthChoice::Inferred), ("-w9", WidthChoice::Fixed(9))];

fn batch_config(refine: bool, width_choice: WidthChoice) -> BatchConfig {
    BatchConfig {
        threads: 1,
        timeout: TIMEOUT,
        steps: STEPS,
        width_choice,
        cancel_losers: false,
        refine,
        ..BatchConfig::default()
    }
}

fn render_report(out: &mut String, plan: &str, report: &BatchReport) {
    let provenance = report.provenance().map_or_else(
        || "none".to_string(),
        |p| format!("{} x{} {}", p.label, p.multiplier, p.steps),
    );
    let _ = writeln!(
        out,
        "{plan} {} => {} via {provenance} [{}{}]",
        report.name,
        report.verdict.name(),
        report.fragment,
        report
            .unknown_reason
            .map_or_else(String::new, |r| format!(", {r}")),
    );
    for lane in &report.lanes {
        let _ = write!(
            out,
            "  {} {} {}",
            lane.spec.label(),
            lane.verdict.name(),
            lane.steps_used
        );
        for rung in &lane.rungs {
            let mut widened = rung.widened.clone();
            widened.sort();
            let _ = write!(
                out,
                " | r{} {} {} w{} b{} [{}]",
                rung.depth,
                rung.verdict,
                rung.steps,
                rung.max_width,
                rung.total_bits,
                widened.join(",")
            );
        }
        out.push('\n');
    }
}

fn render() -> String {
    let items = corpus();
    let mut out = String::new();
    for (tag, width) in WIDTHS {
        for (plan, refine) in [("ladder", false), ("refine", true)] {
            let config = batch_config(refine, width);
            for report in run_batch_with(&items, &config, &RunOptions::default()) {
                render_report(&mut out, &format!("{plan}{tag}"), &report);
            }
        }
        for item in &items {
            let mut session = Session::new(StaubConfig {
                width_choice: width,
                timeout: TIMEOUT,
                steps: STEPS,
                ..StaubConfig::default()
            });
            let outcome = session.run(&item.script).expect("corpus scripts assert");
            let p = outcome.provenance();
            let _ = writeln!(
                out,
                "session{tag} {} => {} via {} x{} {}",
                item.name,
                outcome.verdict_name(),
                p.label,
                p.multiplier,
                p.steps
            );
        }
    }
    out
}

#[test]
fn lanes_reproduce_the_committed_ledger() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(LEDGER);
    let rendered = render();
    if std::env::var_os("STAUB_REGEN_LEDGER").is_some() {
        let header = "# Lane ledger for tests/lane_ledger.rs. Regenerate with\n\
                      #   STAUB_REGEN_LEDGER=1 cargo test --test lane_ledger\n";
        std::fs::write(&path, format!("{header}{rendered}")).expect("ledger is writable");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("committed ledger exists");
    let expected: Vec<&str> = committed.lines().filter(|l| !l.starts_with('#')).collect();
    let actual: Vec<&str> = rendered.lines().collect();
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(want, got, "ledger line {} differs", i + 1);
    }
    assert_eq!(expected.len(), actual.len(), "ledger length differs");
}
