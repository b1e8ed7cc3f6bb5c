//! Between-stage certification: runs `staub-lint`'s passes over pipeline
//! stage outputs.
//!
//! The pipeline trusts nothing it can re-check cheaply. In debug builds,
//! every bounded attempt re-certifies its translation (resort,
//! boundedness, correspondence, bound certificate) before solving it, and
//! shape-checks every bounded model before `verify` evaluates it; an
//! error-severity finding panics. The scheduler's trusted-`unsat`
//! promotions re-check their certificates in every build
//! ([`check_certificate`], [`check_dl_certificate`]).

use staub_lint::{
    bound_certificate, boundedness, correspondence, dl_certificate, model_shape, resort,
    BoundClaim, Correspondence, DlClaim, DlCycleEdge, LintReport,
};
use staub_smtlib::{Model, Script};

use crate::absint::{BoundCertificate, DlEdge};
use crate::transform::Transformed;

/// Certifies a completed transformation: re-sorts the bounded store, checks
/// boundedness of the bounded script, and checks the correspondence against
/// the original script.
pub fn check_transformed(original: &Script, t: &Transformed) -> LintReport {
    let mut report = resort(t.script.store());
    report.merge(boundedness(&t.script));
    report.merge(correspondence(&Correspondence {
        original,
        bounded: &t.script,
        var_map: &t.var_map,
        bv_width: t.bv_width,
        fp_format: t.fp_format,
        int_assumption_width: t.bv_width.map(|_| t.bounds.assumption_width),
        real_assumption: t.fp_format.and_then(|_| {
            t.bounds
                .assumption_real
                .precision
                .map(|p| (t.bounds.assumption_real.magnitude, p))
        }),
    }));
    report.merge(check_certificate(original, &t.certificate, None));
    report
}

/// Certifies a bound certificate against the original script via the
/// independent `L4xx` re-derivation in `staub-lint`. `used_width` is
/// supplied when validating an unsat promotion — the lint then also
/// requires the check to have run at or above the certified width.
pub fn check_certificate(
    original: &Script,
    certificate: &BoundCertificate,
    used_width: Option<u32>,
) -> LintReport {
    bound_certificate(&BoundClaim {
        original,
        fragment: certificate.fragment.name(),
        num_vars: certificate.ledger.num_vars,
        num_atoms: certificate.ledger.num_atoms,
        max_entry_bits: certificate.ledger.max_entry_bits,
        max_atom_terms: certificate.ledger.max_atom_terms,
        certified_width: certificate.certified_width,
        var_bounds: &certificate.var_bounds,
        used_width,
    })
}

/// Certifies a satisfying assignment against the script it claims to
/// satisfy.
pub fn check_model(script: &Script, model: &Model) -> LintReport {
    model_shape(script, model)
}

/// Certifies a difference-logic unsat explanation: the negative cycle the
/// STN lane extracted is flattened to variable *names* and cross-checked
/// against the original script via the independent `L5xx` re-derivation
/// in `staub-lint` (fragment membership, per-edge entailment, chaining,
/// and the negative bound sum).
pub fn check_dl_certificate(original: &Script, cycle: &[DlEdge]) -> LintReport {
    let store = original.store();
    let name = |sym: &Option<staub_smtlib::SymbolId>| sym.map(|s| store.symbol_name(s).to_string());
    let cycle: Vec<DlCycleEdge> = cycle
        .iter()
        .map(|e| DlCycleEdge {
            x: name(&e.x),
            y: name(&e.y),
            bound: e.bound.clone(),
            strict: e.strict,
        })
        .collect();
    dl_certificate(&DlClaim {
        original,
        cycle: &cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Staub;
    use staub_lint::LintCode;

    fn transformed(src: &str) -> (Script, Transformed) {
        let script = Script::parse(src).unwrap();
        let t = Staub::default().transform(&script).unwrap();
        (script, t)
    }

    #[test]
    fn integer_transform_certifies_clean() {
        let (original, t) = transformed(
            "(set-logic QF_NIA)(declare-fun x () Int)(declare-fun y () Int)
             (assert (= (+ (* x y) (div x y)) 12))",
        );
        let report = check_transformed(&original, &t);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn real_transform_certifies_clean() {
        let (original, t) = transformed(
            "(set-logic QF_NRA)(declare-fun a () Real)(declare-fun b () Real)
             (assert (= (* a b) 6.25))(assert (> a 0.5))",
        );
        let report = check_transformed(&original, &t);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn dropped_guard_is_caught() {
        let (original, mut t) =
            transformed("(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 49))");
        // Strip the transformer's guard assertions, keeping only formulas
        // that are not overflow guards.
        let kept: Vec<_> = t
            .script
            .assertions()
            .iter()
            .copied()
            .filter(|&a| {
                let store = t.script.store();
                let term = store.term(a);
                !matches!(term.op(), staub_smtlib::Op::Not)
            })
            .collect();
        assert!(kept.len() < t.script.assertions().len(), "guards present");
        t.script.set_assertions(kept);
        let report = check_transformed(&original, &t);
        assert!(report.has(LintCode::MissingGuard), "{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn removed_phi_entry_is_caught() {
        let (original, mut t) =
            transformed("(set-logic QF_NIA)(declare-fun x () Int)(assert (= (* x x) 49))");
        t.var_map.clear();
        let report = check_transformed(&original, &t);
        assert!(report.has(LintCode::PhiIncomplete), "{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn linear_certificate_checks_live() {
        let (original, t) = transformed(
            "(set-logic QF_LIA)(declare-fun x () Int)(declare-fun y () Int)
             (assert (>= (+ (* 3 x) y) 7))(assert (<= x 2))",
        );
        assert!(
            t.certificate.certified_width.is_some(),
            "pure LIA certifies"
        );
        let report = check_transformed(&original, &t);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn stale_certificate_is_caught() {
        let (original, mut t) =
            transformed("(set-logic QF_LIA)(declare-fun x () Int)(assert (>= (* 3 x) 7))");
        // Understate the ledger, as if a coefficient escaped the analysis.
        t.certificate.ledger.max_entry_bits -= 1;
        let report = check_transformed(&original, &t);
        assert!(report.has(LintCode::LedgerEscape), "{report}");
        assert!(!report.is_clean());
    }
}
