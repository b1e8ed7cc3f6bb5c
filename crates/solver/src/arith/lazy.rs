//! Lazy SMT (offline DPLL(T)) for linear arithmetic with rich boolean
//! structure.
//!
//! The boolean skeleton of the formula is Tseitin-encoded over *atom
//! variables*; the CDCL core enumerates boolean models, each of which
//! induces a conjunction of (possibly negated) linear atoms that the
//! simplex/branch-and-bound engine checks. Theory conflicts are returned to
//! the SAT solver as blocking clauses over the atom variables.
//!
//! This is the classic lazy architecture production solvers use; here it
//! backs formulas whose boolean structure exceeds the DNF case-splitting
//! cap in [`crate::arith::linear`].

use std::collections::HashMap;

use staub_smtlib::{Op, Sort, SymbolId, TermId, TermStore, Value};

use crate::arith::linear::{extract_atoms, solve_conjunction, ConjunctionResult, LinAtom};
use crate::budget::Budget;
use crate::result::{SatResult, SolverStats, UnknownReason};
use crate::sat::{Lit, SatConfig, SatSolver, SatSolverResult};

/// Solves assertions whose leaves are linear atoms or free booleans.
/// Returns `None` when some leaf is nonlinear (caller falls back to ICP).
pub fn solve_lazy_linear(
    store: &TermStore,
    assertions: &[TermId],
    is_int: bool,
    config: SatConfig,
    budget: &Budget,
    stats: &mut SolverStats,
) -> Option<SatResult> {
    let mut enc = Skeleton {
        store,
        sat: SatSolver::new(config),
        tru: None,
        atom_of_term: HashMap::new(),
        atoms: Vec::new(),
        bool_vars: HashMap::new(),
        memo: HashMap::new(),
    };
    // Constant-true literal.
    let t = enc.sat.new_var();
    enc.sat.add_clause(&[Lit::pos(t)]);
    enc.tru = Some(Lit::pos(t));
    for &a in assertions {
        let lit = enc.encode(a)?;
        enc.sat.add_clause(&[lit]);
    }
    let mut vars: Vec<SymbolId> = Vec::new();
    for &a in assertions {
        for v in store.vars_of(a) {
            if store.symbol_sort(v).is_numeric() && !vars.contains(&v) {
                vars.push(v);
            }
        }
    }

    let result = loop {
        match enc.sat.solve(budget) {
            SatSolverResult::Unsat => break SatResult::Unsat,
            SatSolverResult::Unknown => break SatResult::Unknown(UnknownReason::BudgetExhausted),
            SatSolverResult::Sat => {}
        }
        stats.theory_checks += 1;
        // The induced conjunction of theory literals.
        let mut conjunction: Vec<LinAtom> = Vec::new();
        let mut blocking: Vec<Lit> = Vec::new();
        for (i, (atom, var)) in enc.atoms.iter().enumerate() {
            let value = enc.sat.value(*var).expect("full SAT model");
            let _ = i;
            if value {
                conjunction.push(atom.clone());
                blocking.push(Lit::neg(*var));
            } else {
                conjunction.push(atom.negated());
                blocking.push(Lit::pos(*var));
            }
        }
        match solve_conjunction(&conjunction, &vars, is_int, budget, stats) {
            ConjunctionResult::Sat(mut model) => {
                // Free booleans from the skeleton model.
                for (&sym, &var) in &enc.bool_vars {
                    model.insert(sym, Value::Bool(enc.sat.value(var).unwrap_or(false)));
                }
                break SatResult::Sat(model);
            }
            ConjunctionResult::Unknown(reason) => break SatResult::Unknown(reason),
            ConjunctionResult::Unsat => {
                // Block this boolean model (over atom variables only).
                if blocking.is_empty() || !enc.sat.add_clause(&blocking) {
                    break SatResult::Unsat;
                }
            }
        }
        if budget.exhausted() {
            break SatResult::Unknown(UnknownReason::BudgetExhausted);
        }
    };
    stats.decisions += enc.sat.decisions;
    stats.conflicts += enc.sat.conflicts;
    stats.propagations += enc.sat.propagations;
    stats.restarts += enc.sat.restarts;
    stats.subsumed += enc.sat.subsumed;
    stats.strengthened += enc.sat.strengthened;
    stats.clauses += enc.sat.num_clauses() as u64;
    Some(result)
}

struct Skeleton<'a> {
    store: &'a TermStore,
    sat: SatSolver,
    tru: Option<Lit>,
    /// Theory-atom term → index into `atoms`.
    atom_of_term: HashMap<TermId, usize>,
    /// `(atom, sat var)` pairs, in creation order.
    atoms: Vec<(LinAtom, crate::sat::Var)>,
    bool_vars: HashMap<SymbolId, crate::sat::Var>,
    memo: HashMap<TermId, Lit>,
}

impl<'a> Skeleton<'a> {
    fn tru(&self) -> Lit {
        self.tru.expect("constant-true literal initialized")
    }

    fn gate_and(&mut self, inputs: &[Lit]) -> Lit {
        if inputs.is_empty() {
            return self.tru();
        }
        if inputs.len() == 1 {
            return inputs[0];
        }
        let g = Lit::pos(self.sat.new_var());
        let mut long = vec![g];
        for &l in inputs {
            self.sat.add_clause(&[g.negated(), l]);
            long.push(l.negated());
        }
        self.sat.add_clause(&long);
        g
    }

    fn gate_or(&mut self, inputs: &[Lit]) -> Lit {
        let negs: Vec<Lit> = inputs.iter().map(|l| l.negated()).collect();
        self.gate_and(&negs).negated()
    }

    fn gate_xor2(&mut self, a: Lit, b: Lit) -> Lit {
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_clause(&[g.negated(), a, b]);
        self.sat
            .add_clause(&[g.negated(), a.negated(), b.negated()]);
        self.sat.add_clause(&[g, a.negated(), b]);
        self.sat.add_clause(&[g, a, b.negated()]);
        g
    }

    fn gate_ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_clause(&[c.negated(), t.negated(), g]);
        self.sat.add_clause(&[c.negated(), t, g.negated()]);
        self.sat.add_clause(&[c, e.negated(), g]);
        self.sat.add_clause(&[c, e, g.negated()]);
        g
    }

    fn encode(&mut self, id: TermId) -> Option<Lit> {
        if let Some(&l) = self.memo.get(&id) {
            return Some(l);
        }
        let term = self.store.term(id).clone();
        let lit = match term.op() {
            Op::True => self.tru(),
            Op::False => self.tru().negated(),
            Op::Var(sym) => {
                let var = *self
                    .bool_vars
                    .entry(*sym)
                    .or_insert_with(|| self.sat.new_var());
                Lit::pos(var)
            }
            Op::Not => self.encode(term.args()[0])?.negated(),
            Op::And => {
                let lits = self.encode_all(term.args())?;
                self.gate_and(&lits)
            }
            Op::Or => {
                let lits = self.encode_all(term.args())?;
                self.gate_or(&lits)
            }
            Op::Xor => {
                let lits = self.encode_all(term.args())?;
                lits.into_iter().reduce(|a, b| self.gate_xor2(a, b))?
            }
            Op::Implies => {
                let lits = self.encode_all(term.args())?;
                let mut acc = *lits.last()?;
                for &l in lits[..lits.len() - 1].iter().rev() {
                    acc = self.gate_or(&[l.negated(), acc]);
                }
                acc
            }
            Op::Ite
                if self.store.sort(id) == Sort::Bool
                    && self.store.sort(term.args()[1]) == Sort::Bool =>
            {
                let c = self.encode(term.args()[0])?;
                let t = self.encode(term.args()[1])?;
                let e = self.encode(term.args()[2])?;
                self.gate_ite(c, t, e)
            }
            Op::Eq if self.store.sort(term.args()[0]) == Sort::Bool => {
                let lits = self.encode_all(term.args())?;
                let pairwise: Vec<Lit> = lits
                    .windows(2)
                    .map(|w| self.gate_xor2(w[0], w[1]).negated())
                    .collect();
                self.gate_and(&pairwise)
            }
            // Theory leaf: must be exactly one linear atom.
            _ => {
                let atoms = extract_atoms(self.store, id)?;
                if atoms.len() != 1 {
                    return None; // chains under negation are not literals
                }
                let idx = match self.atom_of_term.get(&id) {
                    Some(&i) => i,
                    None => {
                        let var = self.sat.new_var();
                        self.atoms
                            .push((atoms.into_iter().next().expect("one atom"), var));
                        let i = self.atoms.len() - 1;
                        self.atom_of_term.insert(id, i);
                        i
                    }
                };
                Lit::pos(self.atoms[idx].1)
            }
        };
        self.memo.insert(id, lit);
        Some(lit)
    }

    fn encode_all(&mut self, args: &[TermId]) -> Option<Vec<Lit>> {
        args.iter().map(|&a| self.encode(a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staub_smtlib::{evaluate, Script};
    use std::time::Duration;

    fn solve(src: &str, is_int: bool) -> Option<SatResult> {
        let script = Script::parse(src).unwrap();
        let mut stats = SolverStats::default();
        let r = solve_lazy_linear(
            script.store(),
            script.assertions(),
            is_int,
            SatConfig::default(),
            &Budget::new(Duration::from_secs(5), 2_000_000),
            &mut stats,
        )?;
        if let SatResult::Sat(m) = &r {
            for &a in script.assertions() {
                assert_eq!(
                    evaluate(script.store(), a, m).unwrap(),
                    Value::Bool(true),
                    "model check for {src}"
                );
            }
        }
        Some(r)
    }

    #[test]
    fn disjunctive_sat() {
        let r = solve(
            "(declare-fun x () Int)
             (assert (or (= x 3) (= x 5)))
             (assert (> x 4))",
            true,
        )
        .unwrap();
        assert!(r.is_sat());
    }

    #[test]
    fn disjunctive_unsat_over_unbounded_ints() {
        let r = solve(
            "(declare-fun x () Int)
             (assert (or (< x 0) (> x 10)))
             (assert (>= x 0))
             (assert (<= x 10))",
            true,
        )
        .unwrap();
        assert!(r.is_unsat());
    }

    #[test]
    fn deep_boolean_structure() {
        // 8 disjunctions: DNF would need 2^8 branches; the skeleton loop
        // handles it with blocking clauses.
        let mut clauses = String::new();
        for i in 0..8 {
            clauses.push_str(&format!(
                "(assert (or (= x {}) (= x {})))",
                2 * i,
                2 * i + 1
            ));
        }
        let src = format!("(declare-fun x () Int){clauses}(assert (> x 100))");
        let r = solve(&src, true).unwrap();
        assert!(r.is_unsat(), "x cannot be both small and > 100");
    }

    #[test]
    fn free_booleans_in_model() {
        let r = solve(
            "(declare-fun x () Int)(declare-fun p () Bool)
             (assert (or p (> x 5)))
             (assert (=> p (< x 0)))
             (assert (= x 2))",
            true,
        )
        .unwrap();
        assert!(
            r.is_unsat(),
            "p forces x < 0; ¬p forces x > 5; x = 2 blocks both"
        );
    }

    #[test]
    fn xor_and_iff_structure() {
        // x = 1 forces y <= 0 via the xor, but the iff forces y = 1: unsat.
        let r = solve(
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (xor (> x 0) (> y 0)))
             (assert (= (= x 1) (= y 1)))
             (assert (= x 1))",
            true,
        )
        .unwrap();
        assert!(r.is_unsat());
        // Relaxing the pin makes it satisfiable (e.g. x = 2, y = 0).
        let r2 = solve(
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (xor (> x 0) (> y 0)))
             (assert (= (= x 1) (= y 1)))
             (assert (> x 1))",
            true,
        )
        .unwrap();
        assert!(r2.is_sat());
    }

    #[test]
    fn nonlinear_leaves_decline() {
        assert!(solve(
            "(declare-fun x () Int)(assert (or (= (* x x) 4) (> x 0)))",
            true
        )
        .is_none());
    }

    #[test]
    fn real_sort_lazy() {
        let r = solve(
            "(declare-fun a () Real)
             (assert (or (< a 1.5) (> a 2.5)))
             (assert (> a 2.0))",
            false,
        )
        .unwrap();
        assert!(r.is_sat());
    }
}
