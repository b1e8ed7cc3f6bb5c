//! Linear-arithmetic atoms: extraction from terms and conjunction solving.
//!
//! [`solve_conjunction`] decides a conjunction of atoms, and every linear
//! engine calls it: plain conjunctions ([`solve_linear_script`]), the DNF
//! case split ([`solve_linear_case_split`]) and the theory checks of the
//! lazy DPLL(T) loop ([`crate::arith::lazy`]).
//!
//! * Over the reals it runs the simplex, splitting disequalities.
//! * Over the integers it first eliminates the equalities exactly: a
//!   unimodular change of variables `x = U·y` built from extended-Euclid
//!   column operations (as in a Hermite normal form, or the equality step
//!   of Pugh's Omega test) fixes a prefix of `y`, or refutes the system
//!   when a pivot does not divide its row's constant. The remaining
//!   inequalities and disequalities are rewritten over the free columns
//!   of `y` and go to branch-and-bound on the simplex relaxation; the
//!   model is `U·y`. A pure system of equations needs no simplex at all,
//!   and a conjunction without an integer equality goes straight to
//!   branch-and-bound. One budget step is charged per column operation.
//! * Branch-and-bound stops at a depth cap and then answers
//!   `unknown` with [`UnknownReason::Incomplete`];
//!   [`UnknownReason::BudgetExhausted`] means the budget ran out.

use std::collections::BTreeMap;

use staub_numeric::{BigInt, BigRational};
use staub_smtlib::{Model, Op, Sort, SymbolId, TermId, TermStore, Value};

use crate::arith::simplex::{DeltaRat, Feasibility, Simplex};
use crate::budget::Budget;
use crate::result::{SatResult, SolverStats, UnknownReason};

/// A linear expression `Σ cᵢ·xᵢ + k`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Coefficients per variable (no zero entries).
    pub coeffs: BTreeMap<SymbolId, BigRational>,
    /// Constant term.
    pub constant: BigRational,
}

impl LinExpr {
    fn constant_of(k: BigRational) -> LinExpr {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: k,
        }
    }

    fn var(v: SymbolId) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v, BigRational::one());
        LinExpr {
            coeffs,
            constant: BigRational::zero(),
        }
    }

    fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.constant = &out.constant + &other.constant;
        for (v, c) in &other.coeffs {
            let entry = out.coeffs.entry(*v).or_insert_with(BigRational::zero);
            *entry = &*entry + c;
        }
        out.coeffs.retain(|_, c| !c.is_zero());
        out
    }

    fn scale(&self, k: &BigRational) -> LinExpr {
        if k.is_zero() {
            return LinExpr::default();
        }
        LinExpr {
            coeffs: self.coeffs.iter().map(|(v, c)| (*v, c * k)).collect(),
            constant: &self.constant * k,
        }
    }

    fn neg(&self) -> LinExpr {
        self.scale(&-BigRational::one())
    }

    /// The constant value, if the expression has no variables.
    pub fn as_constant(&self) -> Option<&BigRational> {
        if self.coeffs.is_empty() {
            Some(&self.constant)
        } else {
            None
        }
    }
}

/// Relation of a linear atom `expr ⋈ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr <= 0`.
    Le,
    /// `expr < 0`.
    Lt,
    /// `expr = 0`.
    Eq,
    /// `expr != 0`.
    Ne,
}

/// A linear atom: `expr ⋈ 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinAtom {
    /// The linear form.
    pub expr: LinExpr,
    /// The relation against zero.
    pub rel: Rel,
}

impl LinAtom {
    /// The atom's negation (`<=` ↔ `>` i.e. negated-and-flipped, `=` ↔ `≠`).
    #[must_use]
    pub fn negated(&self) -> LinAtom {
        match self.rel {
            // ¬(e <= 0) is e > 0 is -e < 0.
            Rel::Le => LinAtom {
                expr: self.expr.neg(),
                rel: Rel::Lt,
            },
            // ¬(e < 0) is e >= 0 is -e <= 0.
            Rel::Lt => LinAtom {
                expr: self.expr.neg(),
                rel: Rel::Le,
            },
            Rel::Eq => LinAtom {
                expr: self.expr.clone(),
                rel: Rel::Ne,
            },
            Rel::Ne => LinAtom {
                expr: self.expr.clone(),
                rel: Rel::Eq,
            },
        }
    }
}

/// Linearizes a numeric term; `None` if it is nonlinear (variable products,
/// division, `ite`, `abs`, ...).
pub fn linearize(store: &TermStore, id: TermId) -> Option<LinExpr> {
    let term = store.term(id);
    let args = term.args();
    match term.op() {
        Op::IntConst(c) => Some(LinExpr::constant_of(BigRational::from_int(c.clone()))),
        Op::RealConst(c) => Some(LinExpr::constant_of(c.clone())),
        Op::Var(v) => Some(LinExpr::var(*v)),
        Op::Neg => Some(linearize(store, args[0])?.neg()),
        Op::Add => {
            let mut acc = linearize(store, args[0])?;
            for &a in &args[1..] {
                acc = acc.add(&linearize(store, a)?);
            }
            Some(acc)
        }
        Op::Sub => {
            let mut acc = linearize(store, args[0])?;
            for &a in &args[1..] {
                acc = acc.add(&linearize(store, a)?.neg());
            }
            Some(acc)
        }
        Op::Mul => {
            // Linear only if at most one factor has variables.
            let parts: Option<Vec<LinExpr>> = args.iter().map(|&a| linearize(store, a)).collect();
            let parts = parts?;
            let mut scalar = BigRational::one();
            let mut var_part: Option<LinExpr> = None;
            for p in parts {
                match p.as_constant() {
                    Some(k) => scalar = &scalar * k,
                    None => {
                        if var_part.is_some() {
                            return None; // product of two variable parts
                        }
                        var_part = Some(p);
                    }
                }
            }
            Some(match var_part {
                Some(p) => p.scale(&scalar),
                None => LinExpr::constant_of(scalar),
            })
        }
        Op::RealDiv => {
            // Linear only when dividing by a nonzero constant.
            let mut acc = linearize(store, args[0])?;
            for &a in &args[1..] {
                let d = linearize(store, a)?;
                let k = d.as_constant()?;
                if k.is_zero() {
                    return None;
                }
                acc = acc.scale(&k.recip());
            }
            Some(acc)
        }
        _ => None,
    }
}

/// Extracts the linear atoms of a boolean term (a comparison chain yields
/// one atom per adjacent pair). `None` if any operand is nonlinear.
pub fn extract_atoms(store: &TermStore, id: TermId) -> Option<Vec<LinAtom>> {
    let term = store.term(id);
    let args = term.args();
    let pairwise = |rel_fn: &dyn Fn(LinExpr) -> LinAtom| -> Option<Vec<LinAtom>> {
        let exprs: Option<Vec<LinExpr>> = args.iter().map(|&a| linearize(store, a)).collect();
        let exprs = exprs?;
        Some(
            exprs
                .windows(2)
                .map(|w| rel_fn(w[0].add(&w[1].neg())))
                .collect(),
        )
    };
    match term.op() {
        // a <= b  ==>  a - b <= 0
        Op::Le => pairwise(&|e| LinAtom {
            expr: e,
            rel: Rel::Le,
        }),
        Op::Lt => pairwise(&|e| LinAtom {
            expr: e,
            rel: Rel::Lt,
        }),
        // a >= b  ==>  b - a <= 0
        Op::Ge => pairwise(&|e| LinAtom {
            expr: e.neg(),
            rel: Rel::Le,
        }),
        Op::Gt => pairwise(&|e| LinAtom {
            expr: e.neg(),
            rel: Rel::Lt,
        }),
        Op::Eq if store.sort(args[0]).is_numeric() => pairwise(&|e| LinAtom {
            expr: e,
            rel: Rel::Eq,
        }),
        Op::Distinct if store.sort(args[0]).is_numeric() => {
            // All-pairs disequalities (n-ary distinct).
            let exprs: Option<Vec<LinExpr>> = args.iter().map(|&a| linearize(store, a)).collect();
            let exprs = exprs?;
            let mut atoms = Vec::new();
            for i in 0..exprs.len() {
                for j in i + 1..exprs.len() {
                    atoms.push(LinAtom {
                        expr: exprs[i].add(&exprs[j].neg()),
                        rel: Rel::Ne,
                    });
                }
            }
            Some(atoms)
        }
        _ => None,
    }
}

/// Result of solving a conjunction of linear atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConjunctionResult {
    /// Satisfiable with the given variable assignment.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Undecided: the budget ran out ([`UnknownReason::BudgetExhausted`])
    /// or branch-and-bound reached its depth cap
    /// ([`UnknownReason::Incomplete`]).
    Unknown(UnknownReason),
}

/// Solves a conjunction of linear atoms over `Int` or `Real` variables.
///
/// Over the integers, equalities are first eliminated exactly (see the
/// module docs); disequalities are handled by case-splitting and
/// integrality by branch-and-bound on the simplex relaxation.
pub fn solve_conjunction(
    atoms: &[LinAtom],
    vars: &[SymbolId],
    is_int: bool,
    budget: &Budget,
    stats: &mut SolverStats,
) -> ConjunctionResult {
    let column: BTreeMap<SymbolId, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let rows: Vec<ColAtom> = atoms.iter().map(|a| ColAtom::over(a, &column)).collect();
    let found = if is_int && rows.iter().any(ColAtom::is_equality) {
        eliminate_and_search(&rows, vars.len(), budget, stats)
    } else {
        // Branch on the variables in symbol order.
        let order: Vec<usize> = column.values().copied().collect();
        search(&rows, vars.len(), &order, is_int, budget, stats)
    };
    stats.theory_checks += 1;
    match found {
        Ok(values) => {
            let mut model = Model::new();
            for (&sym, value) in vars.iter().zip(values) {
                model.insert(
                    sym,
                    if is_int {
                        debug_assert!(value.is_integer());
                        Value::Int(value.floor())
                    } else {
                        Value::Real(value)
                    },
                );
            }
            stats.model_checks += 1;
            ConjunctionResult::Sat(model)
        }
        Err(NoPoint::Unsat) => ConjunctionResult::Unsat,
        Err(NoPoint::Unknown(reason)) => ConjunctionResult::Unknown(reason),
    }
}

/// A linear atom over the columns of one conjunction: `Σ c·col + k ⋈ 0`.
#[derive(Debug, Clone)]
struct ColAtom {
    terms: Vec<(usize, BigRational)>,
    constant: BigRational,
    rel: Rel,
}

impl ColAtom {
    fn over(atom: &LinAtom, column: &BTreeMap<SymbolId, usize>) -> ColAtom {
        ColAtom {
            terms: atom
                .expr
                .coeffs
                .iter()
                .map(|(v, c)| (column[v], c.clone()))
                .collect(),
            constant: atom.expr.constant.clone(),
            rel: atom.rel,
        }
    }

    /// An equality with at least one variable.
    fn is_equality(&self) -> bool {
        self.rel == Rel::Eq && !self.terms.is_empty()
    }

    /// `self.expr < 0`, or `-self.expr < 0` when `negate`.
    fn strict(&self, negate: bool) -> ColAtom {
        let sign = |c: &BigRational| if negate { -c } else { c.clone() };
        ColAtom {
            terms: self.terms.iter().map(|(v, c)| (*v, sign(c))).collect(),
            constant: sign(&self.constant),
            rel: Rel::Lt,
        }
    }
}

/// Why a search returned no point.
#[derive(Debug)]
enum NoPoint {
    Unsat,
    Unknown(UnknownReason),
}

/// A point of a conjunction: the value of every column.
type Search = Result<Vec<BigRational>, NoPoint>;

/// Simplex plus branch-and-bound over `columns` structural columns,
/// branching on non-integral columns in `order`.
fn search(
    rows: &[ColAtom],
    columns: usize,
    order: &[usize],
    is_int: bool,
    budget: &Budget,
    stats: &mut SolverStats,
) -> Search {
    let mut simplex = Simplex::new();
    for _ in 0..columns {
        simplex.add_var();
    }
    let mut disequalities: Vec<&ColAtom> = Vec::new();
    for row in rows {
        match row.rel {
            Rel::Ne => disequalities.push(row),
            _ => {
                if !assert_atom(&mut simplex, row) {
                    return Err(NoPoint::Unsat);
                }
            }
        }
    }
    let mut values = solve_rec(simplex, order, &disequalities, is_int, budget, stats, 0)?;
    values.truncate(columns);
    Ok(values)
}

/// Integer equalities eliminated by a unimodular change of variables
/// `x = U·y`.
///
/// `U` starts as the identity. Row by row, extended-Euclid column
/// operations — swap two columns, or add an integer multiple of one column
/// to another — leave the row one nonzero entry among the columns not yet
/// fixed, as in a Hermite normal form; applied to `U` as well, they keep
/// `a·x = (a·U)·y` for every row `a`. That entry's column is then fixed to
/// the exact quotient of the row's constant (with the fixed prefix
/// substituted) by the entry. The columns no equality fixes stay free.
/// Each column operation has determinant ±1, so `U` is unimodular and
/// `y ↦ U·y` is a bijection of ℤⁿ: the equalities hold at an integer `x`
/// exactly when `x = U·y` for an integer `y` with the fixed prefix.
struct Substitution {
    /// `U`; row `i` writes `x_i` over `y`.
    u: Vec<Vec<BigInt>>,
    /// `y_0 … y_{r-1}`, fixed by the equalities; `y_r …` are free.
    fixed: Vec<BigInt>,
}

/// An integer equality `a·x + k = 0` over dense columns.
struct IntRow {
    coeffs: Vec<BigInt>,
    constant: BigInt,
}

impl IntRow {
    /// Scales an equality to coprime integer coefficients, without steps.
    /// `Err(Unsat)` when the gcd of the coefficients does not divide the
    /// constant (or a ground equality is false): no integer point, though
    /// the rational relaxation may be feasible.
    fn normalized(row: &ColAtom, columns: usize) -> Result<IntRow, NoPoint> {
        let lcm = |a: &BigInt, b: &BigInt| -> BigInt { &(a / &a.gcd(b)) * b };
        let denom = row
            .terms
            .iter()
            .map(|(_, c)| c)
            .chain(std::iter::once(&row.constant))
            .fold(BigInt::one(), |acc, c| lcm(&acc, c.denom()));
        let scale = BigRational::from_int(denom);
        let integer = |c: &BigRational| (c * &scale).floor();
        let mut coeffs = vec![BigInt::zero(); columns];
        let mut g = BigInt::zero();
        for (col, c) in &row.terms {
            coeffs[*col] = integer(c);
            g = g.gcd(&coeffs[*col]);
        }
        let constant = integer(&row.constant);
        if g.is_zero() {
            return if constant.is_zero() {
                Ok(IntRow { coeffs, constant })
            } else {
                Err(NoPoint::Unsat)
            };
        }
        if !(&constant % &g).is_zero() {
            return Err(NoPoint::Unsat);
        }
        Ok(IntRow {
            coeffs: coeffs.iter().map(|c| c / &g).collect(),
            constant: &constant / &g,
        })
    }
}

impl Substitution {
    /// Solves `rows` (after [`IntRow::normalized`]) over `columns` integer
    /// columns, charging one budget step per column operation.
    fn solve(mut rows: Vec<IntRow>, columns: usize, budget: &Budget) -> Result<Self, NoPoint> {
        let mut sub = Substitution {
            u: (0..columns)
                .map(|i| {
                    (0..columns)
                        .map(|j| BigInt::from(u8::from(i == j)))
                        .collect()
                })
                .collect(),
            fixed: Vec::new(),
        };
        for i in 0..rows.len() {
            let r = sub.fixed.len();
            // Euclid over the free columns: move the smallest entry to
            // column `r`, reduce the others by it, until only it is left.
            loop {
                let row = &rows[i].coeffs;
                let Some(p) = (r..columns)
                    .filter(|&j| !row[j].is_zero())
                    .min_by_key(|&j| row[j].abs())
                else {
                    break;
                };
                if p != r {
                    charge(budget)?;
                    sub.swap_columns(&mut rows[i..], p, r);
                }
                let mut reduced = true;
                for j in r + 1..columns {
                    if rows[i].coeffs[j].is_zero() {
                        continue;
                    }
                    let q = -(&rows[i].coeffs[j] / &rows[i].coeffs[r]);
                    charge(budget)?;
                    sub.add_column(&mut rows[i..], j, r, &q);
                    reduced &= rows[i].coeffs[j].is_zero();
                }
                if reduced {
                    break;
                }
            }
            // The row is now `t·y_r + c = 0`, the fixed prefix substituted.
            let row = &rows[i];
            let c = sub
                .fixed
                .iter()
                .zip(&row.coeffs)
                .fold(row.constant.clone(), |acc, (y, t)| &acc + &(t * y));
            match row.coeffs.get(r).filter(|t| !t.is_zero()) {
                Some(t) => {
                    let (y, rem) = (-c).div_rem_trunc(t);
                    if !rem.is_zero() {
                        return Err(NoPoint::Unsat);
                    }
                    sub.fixed.push(y);
                }
                None if c.is_zero() => {}
                None => return Err(NoPoint::Unsat),
            }
        }
        Ok(sub)
    }

    fn swap_columns(&mut self, rows: &mut [IntRow], a: usize, b: usize) {
        for row in rows {
            row.coeffs.swap(a, b);
        }
        for row in &mut self.u {
            row.swap(a, b);
        }
    }

    /// Column `dst` += `q` · column `src`.
    fn add_column(&mut self, rows: &mut [IntRow], dst: usize, src: usize, q: &BigInt) {
        let add = |row: &mut Vec<BigInt>| {
            if !row[src].is_zero() {
                row[dst] = &row[dst] + &(q * &row[src]);
            }
        };
        for row in rows {
            add(&mut row.coeffs);
        }
        self.u.iter_mut().for_each(add);
    }

    /// `row` over `x`, rewritten over the free columns `y_r …` (renumbered
    /// from 0), with the fixed prefix folded into the constant.
    fn rewrite(&self, row: &ColAtom) -> ColAtom {
        let r = self.fixed.len();
        let mut constant = row.constant.clone();
        let mut terms = Vec::new();
        for j in 0..self.u.len() {
            let c = row
                .terms
                .iter()
                .filter(|(i, _)| !self.u[*i][j].is_zero())
                .fold(BigRational::zero(), |acc, (i, c)| {
                    &acc + &(c * &BigRational::from_int(self.u[*i][j].clone()))
                });
            if c.is_zero() {
                continue;
            }
            match self.fixed.get(j) {
                Some(y) => constant = &constant + &(&c * &BigRational::from_int(y.clone())),
                None => terms.push((j - r, c)),
            }
        }
        ColAtom {
            terms,
            constant,
            rel: row.rel,
        }
    }

    /// `x = U·y` for the free values `free`.
    fn point(&self, free: &[BigRational]) -> Vec<BigRational> {
        let y: Vec<BigRational> = self
            .fixed
            .iter()
            .map(|v| BigRational::from_int(v.clone()))
            .chain(free.iter().cloned())
            .collect();
        self.u
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&y)
                    .filter(|(u, _)| !u.is_zero())
                    .fold(BigRational::zero(), |acc, (u, y)| {
                        &acc + &(&BigRational::from_int(u.clone()) * y)
                    })
            })
            .collect()
    }
}

/// One budget step; `Err` once the budget is exhausted.
fn charge(budget: &Budget) -> Result<(), NoPoint> {
    if budget.consume(1) {
        Err(NoPoint::Unknown(UnknownReason::BudgetExhausted))
    } else {
        Ok(())
    }
}

/// Integer conjunctions with equalities: eliminate them exactly, then
/// search the free columns for the remaining atoms. With no atom left (a
/// pure equality system) the free columns are 0 and no simplex runs.
fn eliminate_and_search(
    rows: &[ColAtom],
    columns: usize,
    budget: &Budget,
    stats: &mut SolverStats,
) -> Search {
    let mut equalities = Vec::new();
    let mut rest = Vec::new();
    for row in rows {
        if row.rel == Rel::Eq {
            equalities.push(IntRow::normalized(row, columns)?);
        } else {
            rest.push(row);
        }
    }
    let sub = Substitution::solve(equalities, columns, budget)?;
    let free = columns - sub.fixed.len();
    let values = if rest.is_empty() {
        vec![BigRational::zero(); free]
    } else {
        let rewritten: Vec<ColAtom> = rest.iter().map(|row| sub.rewrite(row)).collect();
        let order: Vec<usize> = (0..free).collect();
        search(&rewritten, free, &order, true, budget, stats)?
    };
    Ok(sub.point(&values))
}

fn assert_atom(simplex: &mut Simplex, atom: &ColAtom) -> bool {
    // expr rel 0  becomes  Σ c x rel -k  on a slack row.
    let rhs = -atom.constant.clone();
    if atom.terms.is_empty() {
        // Ground atom.
        let lhs = BigRational::zero();
        return match atom.rel {
            Rel::Le => lhs <= rhs,
            Rel::Lt => lhs < rhs,
            Rel::Eq => lhs == rhs,
            Rel::Ne => lhs != rhs,
        };
    }
    let slack = if atom.terms.len() == 1 && atom.terms[0].1 == BigRational::one() {
        atom.terms[0].0
    } else {
        simplex.add_row(&atom.terms)
    };
    match atom.rel {
        Rel::Le => simplex.assert_upper(slack, DeltaRat::rational(rhs)),
        Rel::Lt => simplex.assert_upper(slack, DeltaRat::minus_delta(rhs)),
        Rel::Eq => {
            simplex.assert_lower(slack, DeltaRat::rational(rhs.clone()))
                && simplex.assert_upper(slack, DeltaRat::rational(rhs))
        }
        Rel::Ne => unreachable!("disequalities handled by splitting"),
    }
}

/// Branch-and-bound stops this deep and answers
/// `Unknown(`[`UnknownReason::Incomplete`]`)`.
const MAX_DEPTH: u32 = 64;

fn solve_rec(
    mut simplex: Simplex,
    order: &[usize],
    disequalities: &[&ColAtom],
    is_int: bool,
    budget: &Budget,
    stats: &mut SolverStats,
    depth: u32,
) -> Search {
    if budget.exhausted() {
        return Err(NoPoint::Unknown(UnknownReason::BudgetExhausted));
    }
    if depth > MAX_DEPTH {
        return Err(NoPoint::Unknown(UnknownReason::Incomplete));
    }
    stats.bb_nodes += 1;
    let feasibility = simplex.check(budget);
    stats.pivots += simplex.pivots;
    match feasibility {
        Feasibility::Infeasible => return Err(NoPoint::Unsat),
        Feasibility::Unknown => return Err(NoPoint::Unknown(UnknownReason::BudgetExhausted)),
        Feasibility::Feasible => {}
    }
    let values = simplex.concrete_values();
    // Branch-and-bound: force integrality of structural variables.
    if is_int {
        if let Some(&idx) = order.iter().find(|&&idx| !values[idx].is_integer()) {
            let floor = values[idx].floor();
            // Branch x <= floor(v).
            let mut left = simplex.clone();
            left.pivots = 0;
            if left.assert_upper(
                idx,
                DeltaRat::rational(BigRational::from_int(floor.clone())),
            ) {
                match solve_rec(left, order, disequalities, is_int, budget, stats, depth + 1) {
                    Err(NoPoint::Unsat) => {}
                    other => return other,
                }
            }
            // Branch x >= floor(v) + 1.
            let mut right = simplex;
            right.pivots = 0;
            let ceil = &floor + &BigInt::one();
            if right.assert_lower(idx, DeltaRat::rational(BigRational::from_int(ceil))) {
                return solve_rec(
                    right,
                    order,
                    disequalities,
                    is_int,
                    budget,
                    stats,
                    depth + 1,
                );
            }
            return Err(NoPoint::Unsat);
        }
    }
    // Check disequalities at the candidate point.
    for (i, atom) in disequalities.iter().enumerate() {
        let lhs = atom
            .terms
            .iter()
            .fold(atom.constant.clone(), |acc, (v, c)| {
                &acc + &(c * &values[*v])
            });
        if !lhs.is_zero() {
            continue;
        }
        // Violated: split into expr < 0 and expr > 0.
        let mut remaining: Vec<&ColAtom> = disequalities[..i].to_vec();
        remaining.extend_from_slice(&disequalities[i + 1..]);
        for negate in [false, true] {
            let mut branch = simplex.clone();
            branch.pivots = 0;
            if assert_atom(&mut branch, &atom.strict(negate)) {
                match solve_rec(branch, order, &remaining, is_int, budget, stats, depth + 1) {
                    Err(NoPoint::Unsat) => {}
                    other => return other,
                }
            }
        }
        return Err(NoPoint::Unsat);
    }
    // All constraints hold at this point.
    Ok(values)
}

/// Convenience wrapper used by the facade for pure conjunctions of linear
/// literals (each assertion must itself be a linear atom, possibly negated).
pub fn solve_linear_script(
    store: &TermStore,
    assertions: &[TermId],
    is_int: bool,
    budget: &Budget,
    stats: &mut SolverStats,
) -> Option<SatResult> {
    let mut atoms: Vec<LinAtom> = Vec::new();
    let mut vars: Vec<SymbolId> = Vec::new();
    for &a in assertions {
        let collected = collect_conjunct_atoms(store, a)?;
        atoms.extend(collected);
        for v in store.vars_of(a) {
            if store.symbol_sort(v).is_numeric() && !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    Some(
        match solve_conjunction(&atoms, &vars, is_int, budget, stats) {
            ConjunctionResult::Sat(mut model) => {
                // Bind boolean variables (none participate in linear atoms).
                for &a in assertions {
                    for v in store.vars_of(a) {
                        if store.symbol_sort(v) == Sort::Bool && model.get(v).is_none() {
                            model.insert(v, Value::Bool(true));
                        }
                    }
                }
                SatResult::Sat(model)
            }
            ConjunctionResult::Unsat => SatResult::Unsat,
            ConjunctionResult::Unknown(reason) => SatResult::Unknown(reason),
        },
    )
}

/// DNF expansion limit for [`solve_linear_case_split`].
const MAX_BRANCHES: usize = 24;

/// Handles boolean structure over linear atoms by disjunctive-normal-form
/// case splitting: the formula is expanded into a bounded number of
/// conjunctions of atoms, each decided by simplex/branch-and-bound. This is
/// what lets the *complete* linear engine (rather than budgeted interval
/// search) refute disjunctive queries like ranking-certificate validations
/// over unbounded integers.
///
/// Returns `None` when the formula is nonlinear or expands too far.
pub fn solve_linear_case_split(
    store: &TermStore,
    assertions: &[TermId],
    is_int: bool,
    budget: &Budget,
    stats: &mut SolverStats,
) -> Option<SatResult> {
    let mut branches: Vec<Vec<LinAtom>> = vec![Vec::new()];
    let mut vars: Vec<SymbolId> = Vec::new();
    for &a in assertions {
        let alternatives = dnf(store, a)?;
        if alternatives.is_empty() {
            return Some(SatResult::Unsat); // assertion is `false`
        }
        let mut next = Vec::new();
        for branch in &branches {
            for alt in &alternatives {
                let mut merged = branch.clone();
                merged.extend(alt.iter().cloned());
                next.push(merged);
                if next.len() > MAX_BRANCHES {
                    return None;
                }
            }
        }
        branches = next;
        for v in store.vars_of(a) {
            if store.symbol_sort(v).is_numeric() && !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    // An exhausted budget outranks a depth cap as the reason for `unknown`.
    let mut unknown: Option<UnknownReason> = None;
    for branch in branches {
        match solve_conjunction(&branch, &vars, is_int, budget, stats) {
            ConjunctionResult::Sat(mut model) => {
                for &a in assertions {
                    for v in store.vars_of(a) {
                        if store.symbol_sort(v) == Sort::Bool && model.get(v).is_none() {
                            model.insert(v, Value::Bool(true));
                        }
                    }
                }
                return Some(SatResult::Sat(model));
            }
            ConjunctionResult::Unsat => {}
            ConjunctionResult::Unknown(reason) => {
                if unknown != Some(UnknownReason::BudgetExhausted) {
                    unknown = Some(reason);
                }
            }
        }
    }
    Some(unknown.map_or(SatResult::Unsat, SatResult::Unknown))
}

/// Disjunctive normal form of one boolean term over linear atoms: a list of
/// alternative conjunctions. `None` for nonlinear leaves or unsupported
/// structure; an empty list means `false`.
fn dnf(store: &TermStore, id: TermId) -> Option<Vec<Vec<LinAtom>>> {
    let term = store.term(id);
    match term.op() {
        Op::True => Some(vec![Vec::new()]),
        Op::False => Some(Vec::new()),
        Op::And => {
            let mut acc: Vec<Vec<LinAtom>> = vec![Vec::new()];
            for &c in term.args() {
                let child = dnf(store, c)?;
                let mut next = Vec::new();
                for a in &acc {
                    for b in &child {
                        let mut merged = a.clone();
                        merged.extend(b.iter().cloned());
                        next.push(merged);
                        if next.len() > MAX_BRANCHES {
                            return None;
                        }
                    }
                }
                acc = next;
            }
            Some(acc)
        }
        Op::Or => {
            let mut acc = Vec::new();
            for &c in term.args() {
                acc.extend(dnf(store, c)?);
                if acc.len() > MAX_BRANCHES {
                    return None;
                }
            }
            Some(acc)
        }
        Op::Not => {
            let inner = extract_atoms(store, term.args()[0])?;
            // ¬(a1 ∧ ... ∧ an) = ¬a1 ∨ ... ∨ ¬an.
            Some(inner.iter().map(|a| vec![a.negated()]).collect())
        }
        Op::Implies if term.args().len() == 2 => {
            // a => b  is  ¬a ∨ b.
            let nots = extract_atoms(store, term.args()[0])?;
            let mut acc: Vec<Vec<LinAtom>> = nots.iter().map(|a| vec![a.negated()]).collect();
            acc.extend(dnf(store, term.args()[1])?);
            (acc.len() <= MAX_BRANCHES).then_some(acc)
        }
        _ => extract_atoms(store, id).map(|atoms| vec![atoms]),
    }
}

/// Flattens top-level `and`/`not` structure into linear atoms; `None` if
/// any leaf is not a linear atom (caller falls back to the lazy loop / ICP).
fn collect_conjunct_atoms(store: &TermStore, id: TermId) -> Option<Vec<LinAtom>> {
    let term = store.term(id);
    match term.op() {
        Op::And => {
            let mut out = Vec::new();
            for &c in term.args() {
                out.extend(collect_conjunct_atoms(store, c)?);
            }
            Some(out)
        }
        Op::Not => {
            let inner = extract_atoms(store, term.args()[0])?;
            // ¬(a1 ∧ a2 ∧ ...) is only a conjunction if there's one atom.
            if inner.len() == 1 {
                Some(vec![inner[0].negated()])
            } else {
                None
            }
        }
        Op::True => Some(Vec::new()),
        _ => extract_atoms(store, id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staub_smtlib::{evaluate, Script};

    fn solve(src: &str, is_int: bool) -> SatResult {
        let script = Script::parse(src).unwrap();
        let mut stats = SolverStats::default();
        let r = solve_linear_script(
            script.store(),
            script.assertions(),
            is_int,
            &Budget::unlimited(),
            &mut stats,
        )
        .expect("script is linear");
        if let SatResult::Sat(m) = &r {
            for &a in script.assertions() {
                assert_eq!(
                    evaluate(script.store(), a, m).unwrap(),
                    Value::Bool(true),
                    "model check for {src}"
                );
            }
        }
        r
    }

    #[test]
    fn linearize_basics() {
        let script = Script::parse(
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (= (+ (* 2 x) (* 3 y) 1) 0))",
        )
        .unwrap();
        let eq = script.store().term(script.assertions()[0]);
        let lhs = eq.args()[0];
        let e = linearize(script.store(), lhs).unwrap();
        assert_eq!(e.coeffs.len(), 2);
        assert_eq!(e.constant, BigRational::one());
    }

    #[test]
    fn nonlinear_detected() {
        let script = Script::parse("(declare-fun x () Int)(assert (= (* x x) 4))").unwrap();
        let eq = script.store().term(script.assertions()[0]);
        assert!(linearize(script.store(), eq.args()[0]).is_none());
        assert!(extract_atoms(script.store(), script.assertions()[0]).is_none());
    }

    #[test]
    fn real_system_sat() {
        let r = solve(
            "(declare-fun x () Real)(declare-fun y () Real)
             (assert (<= (+ x y) 2.0))
             (assert (>= x 0.5))
             (assert (>= y 0.5))",
            false,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn real_system_unsat() {
        let r = solve(
            "(declare-fun x () Real)
             (assert (< x 1.0))
             (assert (> x 1.0))",
            false,
        );
        assert!(r.is_unsat());
    }

    #[test]
    fn strict_real_feasibility() {
        let r = solve(
            "(declare-fun x () Real)
             (assert (> x 0.0)) (assert (< x 1.0))",
            false,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn integer_branch_and_bound() {
        // 2x + 2y = 5 has real but no integer solutions.
        let r = solve(
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (= (+ (* 2 x) (* 2 y)) 5))",
            true,
        );
        assert!(r.is_unsat());
        let r2 = solve(
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (= (+ (* 2 x) (* 3 y)) 5))
             (assert (>= x 0)) (assert (>= y 0))",
            true,
        );
        assert!(r2.is_sat());
    }

    #[test]
    fn paper_figure4_constraint() {
        // a >= 15, a - b < 0 (Fig. 4): satisfiable, e.g. a=15, b=16.
        let r = solve(
            "(declare-fun a () Int)(declare-fun b () Int)
             (assert (>= a 15))
             (assert (< (- a b) 0))",
            true,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn disequality_splitting() {
        let r = solve(
            "(declare-fun x () Int)
             (assert (>= x 0)) (assert (<= x 1))
             (assert (not (= x 0))) (assert (not (= x 1)))",
            true,
        );
        assert!(r.is_unsat());
        let r2 = solve(
            "(declare-fun x () Int)
             (assert (>= x 0)) (assert (<= x 2))
             (assert (not (= x 0))) (assert (not (= x 2)))",
            true,
        );
        assert!(r2.is_sat());
    }

    #[test]
    fn disequality_split_over_a_pivoted_variable() {
        // t >= 4 pivots t into the basis before 3t != 12 splits; the split
        // row must follow t to the witness t = 5.
        let r = solve(
            "(declare-fun t () Int)
             (assert (<= (* (- 2) t) (- 8)))
             (assert (< (* 3 t) 17))
             (assert (distinct (* 3 t) 12))",
            true,
        );
        assert!(r.is_sat(), "{r:?}");
    }

    #[test]
    fn depth_cap_with_budget_left_is_incomplete() {
        // 3x - 3y = 1 as two inequalities: no integer point, and no
        // equality to eliminate, so branch-and-bound descends to its cap.
        let src = "(declare-fun x () Int)(declare-fun y () Int)
             (assert (<= (- (* 3 x) (* 3 y)) 1))
             (assert (>= (- (* 3 x) (* 3 y)) 1))";
        let script = Script::parse(src).unwrap();
        let (store, assertions) = (script.store(), script.assertions());
        let budget = Budget::new(std::time::Duration::from_secs(600), 250_000);
        let mut stats = SolverStats::default();
        let r = solve_linear_script(store, assertions, true, &budget, &mut stats);
        assert_eq!(r, Some(SatResult::Unknown(UnknownReason::Incomplete)));
        assert!(budget.steps_left() > 0);
        assert!(stats.bb_nodes > u64::from(MAX_DEPTH));
        let budget = Budget::new(std::time::Duration::from_secs(600), 250_000);
        let r = solve_linear_case_split(store, assertions, true, &budget, &mut stats);
        assert_eq!(r, Some(SatResult::Unknown(UnknownReason::Incomplete)));
        // A budget that runs out first says so.
        let budget = Budget::new(std::time::Duration::from_secs(600), 20);
        let r = solve_linear_script(store, assertions, true, &budget, &mut stats);
        assert_eq!(r, Some(SatResult::Unknown(UnknownReason::BudgetExhausted)));
    }

    #[test]
    fn equalities_are_eliminated_before_any_simplex() {
        // A pure equality system: four column operations, no simplex.
        let script = Script::parse(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
             (assert (= (+ x (* 2 y) (* 3 z)) 7))
             (assert (= (- y z) 2))",
        )
        .unwrap();
        let solve_with = |steps: u64| {
            let budget = Budget::new(std::time::Duration::from_secs(600), steps);
            let mut stats = SolverStats::default();
            let (store, assertions) = (script.store(), script.assertions());
            let r = solve_linear_script(store, assertions, true, &budget, &mut stats).unwrap();
            (r, budget.steps_used(), stats)
        };
        let (r, steps, stats) = solve_with(250_000);
        let SatResult::Sat(model) = r else {
            panic!("expected sat, got {r:?}");
        };
        for &a in script.assertions() {
            assert_eq!(
                evaluate(script.store(), a, &model).unwrap(),
                Value::Bool(true)
            );
        }
        assert_eq!((stats.pivots, stats.bb_nodes), (0, 0));
        assert_eq!(steps, 4);
        // The column operations are charged to the budget.
        let (r, _, _) = solve_with(4);
        assert_eq!(r, SatResult::Unknown(UnknownReason::BudgetExhausted));
        assert!(solve_with(5).0.is_sat());
    }

    #[test]
    fn equality_chains() {
        let r = solve(
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)
             (assert (= x y z))
             (assert (= (+ x y z) 9))",
            true,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn division_by_constant_is_linear() {
        let r = solve(
            "(declare-fun x () Real)
             (assert (= (/ x 2.0) 3.5))",
            false,
        );
        assert!(r.is_sat());
    }

    #[test]
    fn unbounded_integer_problems() {
        let r = solve(
            "(declare-fun x () Int)(declare-fun y () Int)
             (assert (= (- (* 3 x) (* 2 y)) 1))",
            true,
        );
        assert!(r.is_sat(), "3x - 2y = 1 solvable, e.g. x=1, y=1");
    }

    #[test]
    fn ground_atoms() {
        assert!(solve("(assert (< 1 2))", true).is_sat());
        assert!(solve("(assert (< 2 1))", true).is_unsat());
    }
}
