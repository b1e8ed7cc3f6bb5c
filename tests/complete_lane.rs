//! Differential tests for the certified complete lane: on the unsat-biased
//! linear corpus, a scheduler run whose *only* possible source of unsat is
//! a promoted complete lane must agree with the sequential unbounded
//! baseline path wherever both decide, and every promoted unsat must carry
//! `complete/…` provenance backed by a certificate that lints clean.
//!
//! The property test closes the loop on certificate staleness: taking a
//! certified script's `BoundCertificate` and re-checking it against a
//! variant whose coefficient grew past the certified ledger must trip the
//! independent `L4xx` re-derivation (the lint never trusts the claimed
//! ledger — it recomputes its own from the script it is handed).

use std::time::Duration;

use proptest::prelude::*;
use staub::benchgen::generate_linear;
use staub::core::{
    check, run_batch_with, BatchConfig, BatchItem, BatchVerdict, RunOptions, WidenPolicy,
};
use staub::lint::LintCode;
use staub::smtlib::Script;

const STEPS: u64 = 400_000;
const TIMEOUT: Duration = Duration::from_secs(30);

/// No baseline, no escalations: `Unsat` can only come from a promoted
/// complete lane, `Sat` only from a lift-verified bounded model.
fn complete_only_config() -> BatchConfig {
    BatchConfig {
        threads: 2,
        timeout: TIMEOUT,
        steps: STEPS,
        widen: WidenPolicy::Global(Vec::new()),
        include_baseline: false,
        cancel_losers: false,
        // These tests pin *complete-lane* (certified-width) behaviour;
        // some generated families are difference-logic-shaped and would
        // otherwise be decided by the DL lane instead.
        dl: false,
        ..BatchConfig::default()
    }
}

/// The sequential-unbounded reference: a baseline lane on the original
/// constraint (plus the usual STAUB lanes, which cannot produce unsound
/// verdicts either way).
fn reference_config() -> BatchConfig {
    BatchConfig {
        include_baseline: true,
        ..complete_only_config()
    }
}

fn items(suite: &[staub::benchgen::Benchmark]) -> Vec<BatchItem> {
    suite
        .iter()
        .map(|b| BatchItem {
            name: b.name.clone(),
            script: b.script.clone(),
        })
        .collect()
}

/// Wherever both the complete-lane-only run and the unbounded reference
/// run decide, they agree — and both agree with ground truth everywhere.
#[test]
fn complete_lane_verdicts_match_sequential_unbounded() {
    let suite = generate_linear(24, 0x51E7, 6);
    let batch = items(&suite);
    let complete = run_batch_with(&batch, &complete_only_config(), &RunOptions::default());
    let reference = run_batch_with(&batch, &reference_config(), &RunOptions::default());
    for ((b, c), r) in suite.iter().zip(&complete).zip(&reference) {
        let expected = b.expected.expect("linear corpus has exact ground truth");
        for (path, report) in [("complete-only", c), ("reference", r)] {
            match &report.verdict {
                BatchVerdict::Sat(_) => {
                    assert!(expected, "{} ({path}): sat but ground truth unsat", b.name);
                }
                BatchVerdict::Unsat => {
                    assert!(!expected, "{} ({path}): unsat but ground truth sat", b.name);
                }
                _ => {}
            }
        }
        let decided = |v: &BatchVerdict| matches!(v, BatchVerdict::Sat(_) | BatchVerdict::Unsat);
        if decided(&c.verdict) && decided(&r.verdict) {
            assert_eq!(
                c.verdict.name(),
                r.verdict.name(),
                "{}: complete lane diverges from the unbounded path",
                b.name
            );
        }
    }
}

/// Pure-LIA unsat instances are exactly the population the complete lane
/// exists for: each must resolve to trusted `Unsat` with `complete/…`
/// provenance and a certificate that passes the L4xx lints at the width
/// the lane actually used.
#[test]
fn lia_unsat_instances_promote_with_complete_provenance() {
    let suite = generate_linear(24, 0xB0DE, 5);
    let batch = items(&suite);
    let reports = run_batch_with(&batch, &complete_only_config(), &RunOptions::default());
    let mut promoted = 0;
    for (b, report) in suite.iter().zip(&reports) {
        let pure_lia = matches!(b.family, "parity" | "interval");
        if !(pure_lia && b.expected == Some(false)) {
            continue;
        }
        assert_eq!(
            report.verdict.name(),
            "unsat",
            "{}: certified-unsat instance did not promote",
            b.name
        );
        assert_eq!(report.fragment, "lia", "{}", b.name);
        let p = report.provenance().expect("unsat has a winning lane");
        assert!(
            p.label.starts_with("complete/"),
            "{}: unsat provenance {p:?} is not a complete lane",
            b.name
        );
        let cert = staub::core::certify(&b.script);
        let width = cert.certified_width.expect("pure LIA certifies");
        let lint = check::check_certificate(&b.script, &cert, Some(width));
        assert!(
            lint.is_clean(),
            "{}: certificate lints dirty:\n{lint}",
            b.name
        );
        promoted += 1;
    }
    assert!(promoted >= 5, "corpus too thin: only {promoted} promotions");
}

/// Non-LIA instances never yield unsat from the complete-only run — the
/// lane is planned solely for the certified pure-LIA fragment.
#[test]
fn non_lia_instances_never_promote() {
    let suite = generate_linear(24, 0xFA11, 5);
    let batch = items(&suite);
    let reports = run_batch_with(&batch, &complete_only_config(), &RunOptions::default());
    for (b, report) in suite.iter().zip(&reports) {
        if matches!(b.family, "gap" | "mixed") {
            assert_ne!(
                report.verdict.name(),
                "unsat",
                "{}: uncertified fragment produced a trusted unsat",
                b.name
            );
        }
    }
}

/// A parity script parameterized by seed, with one coefficient scale knob.
fn parity_script(a: i64, b: i64, rhs: i64) -> Script {
    Script::parse(&format!(
        "(declare-fun x () Int)(declare-fun y () Int)
         (assert (= (+ (* {a} x) (* {b} y)) {rhs}))
         (check-sat)"
    ))
    .expect("parity script parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Growing one coefficient past the certified ledger invalidates the
    /// stale certificate: the L4xx re-derivation sees larger entry bits
    /// than the claim and reports a ledger escape.
    #[test]
    fn coefficient_above_ledger_rejects_stale_certificate(seed in 0u64..10_000) {
        let a = 2 + (seed % 13) as i64 * 2;
        let b = 2 + (seed / 13 % 11) as i64 * 2;
        let rhs = (seed % 29) as i64 * 2 + 1;
        let script = parity_script(a, b, rhs);
        let cert = staub::core::certify(&script);
        let width = cert.certified_width.expect("pure LIA certifies");
        prop_assert!(check::check_certificate(&script, &cert, Some(width)).is_clean());

        // Same shape, but one coefficient's bit-length now exceeds the
        // ledger's max_entry_bits (still even, so still genuinely unsat —
        // the certificate is stale, not the verdict).
        let grown = a << (cert.ledger.max_entry_bits + 1);
        let perturbed = parity_script(grown, b, rhs);
        let report = check::check_certificate(&perturbed, &cert, Some(width));
        prop_assert!(!report.is_clean(), "stale certificate passed:\n{report}");
        prop_assert!(
            report.has(LintCode::LedgerEscape),
            "expected L402 ledger escape:\n{report}"
        );
    }
}
