//! Bit-blasting: QF_BV (plus boolean structure) to CNF.
//!
//! Every bitvector operation is compiled into a boolean circuit over the
//! CDCL solver's variables via Tseitin encoding. This is the same eager
//! approach production solvers use for QF_BV and is the reason the bounded
//! side of STAUB's arbitrage is fast: after translation, a nonlinear integer
//! constraint becomes a (decidable, finite) circuit-SAT problem.

use std::collections::HashMap;

use staub_numeric::{BigInt, BitVecValue};
use staub_smtlib::{Model, Op, Script, Sort, SymbolId, TermId, TermStore, Value};

use crate::budget::Budget;
use crate::result::{SatResult, SolverStats, UnknownReason};
use crate::sat::{Lit, SatConfig, SatSolver, SatSolverResult};

/// Bit-blasts and solves a script whose sorts are only `Bool` and
/// `(_ BitVec w)`.
///
/// The encoder polls `budget`'s cancellation flag at every gate; once it
/// trips, encoding stops and the answer is `Unknown(BudgetExhausted)`
/// without running SAT.
///
/// # Panics
///
/// Panics if the script contains non-bitvector, non-boolean sorts; callers
/// dispatch on sorts first (see [`crate::Solver`]).
pub fn solve_bv(script: &Script, config: SatConfig, budget: &Budget) -> (SatResult, SolverStats) {
    let mut core = BlastCore::new(config, false);
    let mut blaster = Blaster::attach(script.store(), &mut core, budget);
    for &assertion in script.assertions() {
        let lit = blaster.encode_bool(assertion);
        if blaster.cancelled {
            break;
        }
        blaster.core.sat.add_clause(&[lit]);
    }
    let outcome = if blaster.poll_cancel() {
        SatSolverResult::Unknown
    } else {
        blaster.core.sat.solve(budget)
    };
    let result = match outcome {
        SatSolverResult::Sat => SatResult::Sat(blaster.extract_model(script.store())),
        SatSolverResult::Unsat => SatResult::Unsat,
        SatSolverResult::Unknown => SatResult::Unknown(UnknownReason::BudgetExhausted),
    };
    let stats = SolverStats {
        decisions: core.sat.decisions,
        conflicts: core.sat.conflicts,
        propagations: core.sat.propagations,
        restarts: core.sat.restarts,
        subsumed: core.sat.subsumed,
        strengthened: core.sat.strengthened,
        clauses: core.sat.num_clauses() as u64,
        ..Default::default()
    };
    (result, stats)
}

/// Bits of a bitvector, least-significant first.
type Bits = Vec<Lit>;

/// Structural identity of a Tseitin gate over already-encoded literals.
///
/// Commutative gates store their inputs sorted so permuted operand orders
/// hit the same entry; keys are only built in persistent (session) mode.
#[derive(PartialEq, Eq, Hash)]
enum GateKey {
    And(Vec<Lit>),
    Xor2(Lit, Lit),
    Ite(Lit, Lit, Lit),
    Maj(Lit, Lit, Lit),
    Xor3(Lit, Lit, Lit),
}

fn sort2(a: Lit, b: Lit) -> (Lit, Lit) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn sort3(a: Lit, b: Lit, c: Lit) -> (Lit, Lit, Lit) {
    let mut v = [a, b, c];
    v.sort_unstable();
    (v[0], v[1], v[2])
}

/// Bit-blaster state that outlives a single script: the CDCL solver (with
/// its learned clauses, variable activities, and saved phases), the
/// constant-true literal, variable encodings keyed by *symbol name* (a
/// widened script has a fresh `TermStore`, so `TermId`/`SymbolId` keys
/// cannot carry over — names can), and a structural gate cache that returns
/// the same output literal for the same circuit over the same inputs.
///
/// Soundness of accumulation: every clause added through the blaster in
/// persistent mode is a Tseitin *definition* — it constrains a fresh
/// auxiliary variable and is satisfiable on its own — so definitions pile
/// up at assertion level zero forever without affecting the
/// satisfiability of later checks. Assertion roots are passed to the SAT
/// core as assumptions, never asserted as unit clauses, which is what
/// makes the learned-clause database valid across checks (see
/// [`SatSolver::solve_with_assumptions`]).
///
/// The same argument covers a check cancelled part-way through encoding:
/// the cancellation poll sits before a gate is built, each gate's
/// definition is emitted whole, and no root of the aborted check reaches
/// SAT. So the core only ever holds complete definitions, and the gate
/// cache only ever maps to them.
pub(crate) struct BlastCore {
    pub(crate) sat: SatSolver,
    /// A literal constrained to be true (constants are this or its negation).
    tru: Lit,
    /// `true` in session mode: enables the gate cache and name-keyed
    /// variable reuse. One-shot solving leaves both off so the cold path's
    /// encoding (and clause counts) are exactly what they always were.
    persist: bool,
    gate_cache: HashMap<GateKey, Lit>,
    named_bits: HashMap<String, Bits>,
    named_bools: HashMap<String, Lit>,
    /// Gate-cache hits observed (session diagnostics).
    cache_hits: u64,
    /// Test hook: cancel the budget's flag after this many more
    /// cancellation polls (see [`BvSession::cancel_after_polls`]).
    cancel_countdown: Option<u64>,
}

impl BlastCore {
    fn new(config: SatConfig, persist: bool) -> BlastCore {
        let mut sat = SatSolver::new(config);
        let t = sat.new_var();
        let tru = Lit::pos(t);
        sat.add_clause(&[tru]);
        BlastCore {
            sat,
            tru,
            persist,
            gate_cache: HashMap::new(),
            named_bits: HashMap::new(),
            named_bools: HashMap::new(),
            cache_hits: 0,
            cancel_countdown: None,
        }
    }

    /// The low `width` bits of the named bitvector variable, allocating
    /// only the extension bits beyond what earlier checks encoded.
    ///
    /// This is the widening-reuse contract: going from `w` to `2w` keeps
    /// the low `w` SAT variables (two's-complement low bits agree across
    /// widths for every value representable at `w`), so saved phases and
    /// variable activities from the narrow check seed the wide one; going
    /// back down (after a pop) just slices the low bits.
    fn named_bv_bits(&mut self, name: &str, width: usize) -> Bits {
        let have = self.named_bits.get(name).map_or(0, Vec::len);
        if have < width {
            let mut bits = self.named_bits.remove(name).unwrap_or_default();
            while bits.len() < width {
                bits.push(Lit::pos(self.sat.new_var()));
            }
            self.named_bits.insert(name.to_string(), bits);
        }
        self.named_bits[name][..width].to_vec()
    }

    fn named_bool(&mut self, name: &str) -> Lit {
        if let Some(&l) = self.named_bools.get(name) {
            return l;
        }
        let l = Lit::pos(self.sat.new_var());
        self.named_bools.insert(name.to_string(), l);
        l
    }
}

pub(crate) struct Blaster<'a> {
    store: &'a TermStore,
    pub(crate) core: &'a mut BlastCore,
    budget: &'a Budget,
    /// Set once the budget's cancellation flag has been seen, and never
    /// cleared. From then on no gate is built or looked up, and encoders
    /// return placeholder literals that must never reach the SAT core.
    cancelled: bool,
    bool_memo: HashMap<TermId, Lit>,
    bv_memo: HashMap<TermId, Bits>,
    var_bits: HashMap<SymbolId, Bits>,
    var_bools: HashMap<SymbolId, Lit>,
    /// Sign-extended double-width products, shared between `bvmul` and
    /// `bvsmulo` (STAUB's guards always reference the same operand terms,
    /// so this halves the dominant multiplier circuits).
    wide_mul: HashMap<(TermId, TermId), Bits>,
    /// Sign-extended (w+1)-bit sums/differences shared between
    /// `bvadd`/`bvsaddo` and `bvsub`/`bvssubo`.
    wide_addsub: HashMap<(TermId, TermId, bool), Bits>,
}

impl<'a> Blaster<'a> {
    /// Attaches a per-script blaster (term-id memo tables are scoped to
    /// `store`) to persistent core state. Encoding polls `budget` for
    /// cancellation.
    pub(crate) fn attach(
        store: &'a TermStore,
        core: &'a mut BlastCore,
        budget: &'a Budget,
    ) -> Blaster<'a> {
        Blaster {
            store,
            core,
            budget,
            cancelled: false,
            bool_memo: HashMap::new(),
            bv_memo: HashMap::new(),
            var_bits: HashMap::new(),
            var_bools: HashMap::new(),
            wide_mul: HashMap::new(),
            wide_addsub: HashMap::new(),
        }
    }

    fn fls(&self) -> Lit {
        self.core.tru.negated()
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.core.sat.new_var())
    }

    /// Whether the budget has been cancelled: one atomic load until the
    /// flag is seen, then sticky.
    fn poll_cancel(&mut self) -> bool {
        if !self.cancelled {
            match self.core.cancel_countdown {
                Some(0) => {
                    self.core.cancel_countdown = None;
                    if let Some(flag) = self.budget.cancel_flag() {
                        flag.cancel();
                    }
                }
                Some(n) => self.core.cancel_countdown = Some(n - 1),
                None => {}
            }
            self.cancelled = self.budget.is_cancelled();
        }
        self.cancelled
    }

    /// Looks up `key` in the session gate cache, building (and caching)
    /// the gate on a miss; builds unconditionally in one-shot mode.
    ///
    /// Every gate with a definition passes through here, so this is where
    /// cancellation is polled. The poll comes before the lookup and the
    /// build, so a cancelled encode neither emits half a definition nor
    /// caches a gate over placeholder inputs.
    fn gate_cached(
        &mut self,
        key: impl FnOnce() -> GateKey,
        build: impl FnOnce(&mut Self) -> Lit,
    ) -> Lit {
        if self.poll_cancel() {
            return self.core.tru;
        }
        if !self.core.persist {
            return build(self);
        }
        let key = key();
        if let Some(&g) = self.core.gate_cache.get(&key) {
            self.core.cache_hits += 1;
            return g;
        }
        let g = build(self);
        self.core.gate_cache.insert(key, g);
        g
    }

    // --- gate library -------------------------------------------------------

    fn gate_and(&mut self, inputs: &[Lit]) -> Lit {
        if inputs.is_empty() {
            return self.core.tru;
        }
        if inputs.len() == 1 {
            return inputs[0];
        }
        if inputs.contains(&self.fls()) {
            return self.fls();
        }
        self.gate_cached(
            || {
                let mut k = inputs.to_vec();
                k.sort_unstable();
                GateKey::And(k)
            },
            |s| {
                let g = s.fresh();
                let mut long = vec![g];
                for &l in inputs {
                    s.core.sat.add_clause(&[g.negated(), l]);
                    long.push(l.negated());
                }
                s.core.sat.add_clause(&long);
                g
            },
        )
    }

    fn gate_or(&mut self, inputs: &[Lit]) -> Lit {
        let neg: Vec<Lit> = inputs.iter().map(|l| l.negated()).collect();
        self.gate_and(&neg).negated()
    }

    fn gate_xor2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.core.tru {
            return b.negated();
        }
        if a == self.fls() {
            return b;
        }
        if b == self.core.tru {
            return a.negated();
        }
        if b == self.fls() {
            return a;
        }
        let (ka, kb) = sort2(a, b);
        self.gate_cached(
            || GateKey::Xor2(ka, kb),
            |s| {
                let g = s.fresh();
                s.core.sat.add_clause(&[g.negated(), a, b]);
                s.core
                    .sat
                    .add_clause(&[g.negated(), a.negated(), b.negated()]);
                s.core.sat.add_clause(&[g, a.negated(), b]);
                s.core.sat.add_clause(&[g, a, b.negated()]);
                g
            },
        )
    }

    fn gate_iff(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate_xor2(a, b).negated()
    }

    fn gate_ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if c == self.core.tru {
            return t;
        }
        if c == self.fls() {
            return e;
        }
        if t == e {
            return t;
        }
        self.gate_cached(
            || GateKey::Ite(c, t, e),
            |s| {
                let g = s.fresh();
                s.core.sat.add_clause(&[c.negated(), t.negated(), g]);
                s.core.sat.add_clause(&[c.negated(), t, g.negated()]);
                s.core.sat.add_clause(&[c, e.negated(), g]);
                s.core.sat.add_clause(&[c, e, g.negated()]);
                g
            },
        )
    }

    /// Majority-of-three (full-adder carry), encoded directly with six
    /// clauses and one auxiliary variable (constant inputs short-circuit).
    fn gate_maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        // Constant folding keeps circuits small at word edges.
        if a == self.core.tru {
            return self.gate_or(&[b, c]);
        }
        if a == self.fls() {
            return self.gate_and(&[b, c]);
        }
        if b == self.core.tru {
            return self.gate_or(&[a, c]);
        }
        if b == self.fls() {
            return self.gate_and(&[a, c]);
        }
        if c == self.core.tru {
            return self.gate_or(&[a, b]);
        }
        if c == self.fls() {
            return self.gate_and(&[a, b]);
        }
        let (ka, kb, kc) = sort3(a, b, c);
        self.gate_cached(
            || GateKey::Maj(ka, kb, kc),
            |s| {
                let m = s.fresh();
                s.core.sat.add_clause(&[a.negated(), b.negated(), m]);
                s.core.sat.add_clause(&[a.negated(), c.negated(), m]);
                s.core.sat.add_clause(&[b.negated(), c.negated(), m]);
                s.core.sat.add_clause(&[a, b, m.negated()]);
                s.core.sat.add_clause(&[a, c, m.negated()]);
                s.core.sat.add_clause(&[b, c, m.negated()]);
                m
            },
        )
    }

    /// Ternary xor (full-adder sum), encoded directly with eight clauses
    /// and one auxiliary variable (constant inputs short-circuit).
    fn gate_xor3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        if a == self.core.tru
            || a == self.fls()
            || b == self.core.tru
            || b == self.fls()
            || c == self.core.tru
            || c == self.fls()
        {
            let ab = self.gate_xor2(a, b);
            return self.gate_xor2(ab, c);
        }
        let (ka, kb, kc) = sort3(a, b, c);
        self.gate_cached(
            || GateKey::Xor3(ka, kb, kc),
            |bl| {
                let s = bl.fresh();
                bl.core
                    .sat
                    .add_clause(&[a.negated(), b.negated(), c.negated(), s]);
                bl.core
                    .sat
                    .add_clause(&[a.negated(), b.negated(), c, s.negated()]);
                bl.core
                    .sat
                    .add_clause(&[a.negated(), b, c.negated(), s.negated()]);
                bl.core.sat.add_clause(&[a.negated(), b, c, s]);
                bl.core
                    .sat
                    .add_clause(&[a, b.negated(), c.negated(), s.negated()]);
                bl.core.sat.add_clause(&[a, b.negated(), c, s]);
                bl.core.sat.add_clause(&[a, b, c.negated(), s]);
                bl.core.sat.add_clause(&[a, b, c, s.negated()]);
                s
            },
        )
    }

    // --- word-level circuits -------------------------------------------------

    fn const_bits(&self, v: &BitVecValue) -> Bits {
        (0..v.width())
            .map(|i| if v.bit(i) { self.core.tru } else { self.fls() })
            .collect()
    }

    fn adder(&mut self, a: &Bits, b: &Bits, carry_in: Lit) -> (Bits, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        let mut carry = carry_in;
        for i in 0..a.len() {
            out.push(self.gate_xor3(a[i], b[i], carry));
            carry = self.gate_maj(a[i], b[i], carry);
        }
        (out, carry)
    }

    fn negate(&mut self, a: &Bits) -> Bits {
        let inv: Bits = a.iter().map(|l| l.negated()).collect();
        let zero = vec![self.fls(); a.len()];
        self.adder(&inv, &zero, self.core.tru).0
    }

    fn subtract(&mut self, a: &Bits, b: &Bits) -> (Bits, Lit) {
        // a - b = a + ~b + 1; returned carry is the *not-borrow*.
        let invb: Bits = b.iter().map(|l| l.negated()).collect();
        self.adder(a, &invb, self.core.tru)
    }

    /// Wallace-style multiplier: partial products are reduced with 3:2
    /// carry-save compressors and a single final ripple adder. Much better
    /// CDCL propagation structure than chained ripple adders.
    fn multiply(&mut self, a: &Bits, b: &Bits, out_width: usize) -> Bits {
        let mut rows: Vec<Bits> = Vec::new();
        for (i, &ai) in a.iter().enumerate() {
            if i >= out_width {
                break;
            }
            if ai == self.fls() {
                continue;
            }
            let mut pp = vec![self.fls(); out_width];
            for (j, &bj) in b.iter().enumerate() {
                if i + j < out_width {
                    pp[i + j] = self.gate_and(&[ai, bj]);
                }
            }
            rows.push(pp);
        }
        while rows.len() > 2 {
            let r1 = rows.remove(0);
            let r2 = rows.remove(0);
            let r3 = rows.remove(0);
            let mut sum = Vec::with_capacity(out_width);
            let mut carry = vec![self.fls(); out_width];
            for j in 0..out_width {
                sum.push(self.gate_xor3(r1[j], r2[j], r3[j]));
                if j + 1 < out_width {
                    carry[j + 1] = self.gate_maj(r1[j], r2[j], r3[j]);
                }
            }
            rows.push(sum);
            rows.push(carry);
        }
        match rows.len() {
            0 => vec![self.fls(); out_width],
            1 => rows.pop().expect("one row"),
            _ => {
                let r2 = rows.pop().expect("two rows");
                let r1 = rows.pop().expect("two rows");
                self.adder(&r1, &r2, self.fls()).0
            }
        }
    }

    fn sign_extend_bits(&self, a: &Bits, new_width: usize) -> Bits {
        let mut out = a.clone();
        let sign = *a.last().expect("nonempty bitvector");
        out.resize(new_width, sign);
        out
    }

    fn zero_extend_bits(&self, a: &Bits, new_width: usize) -> Bits {
        let mut out = a.clone();
        out.resize(new_width, self.fls());
        out
    }

    fn equal(&mut self, a: &Bits, b: &Bits) -> Lit {
        let pairs: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| self.gate_iff(x, y))
            .collect();
        self.gate_and(&pairs)
    }

    fn ult(&mut self, a: &Bits, b: &Bits) -> Lit {
        // a < b unsigned  <=>  borrow out of a - b  <=>  !carry.
        let (_, carry) = self.subtract(a, b);
        carry.negated()
    }

    fn slt(&mut self, a: &Bits, b: &Bits) -> Lit {
        // Flip sign bits, compare unsigned.
        let mut af = a.clone();
        let mut bf = b.clone();
        let n = af.len();
        af[n - 1] = af[n - 1].negated();
        bf[n - 1] = bf[n - 1].negated();
        self.ult(&af, &bf)
    }

    fn is_zero(&mut self, a: &Bits) -> Lit {
        let negs: Vec<Lit> = a.iter().map(|l| l.negated()).collect();
        self.gate_and(&negs)
    }

    fn mux_bits(&mut self, c: Lit, t: &Bits, e: &Bits) -> Bits {
        t.iter()
            .zip(e)
            .map(|(&x, &y)| self.gate_ite(c, x, y))
            .collect()
    }

    /// Restoring unsigned division: returns (quotient, remainder) with
    /// SMT-LIB division-by-zero semantics applied by the caller.
    fn udivrem(&mut self, a: &Bits, b: &Bits) -> (Bits, Bits) {
        let w = a.len();
        let mut rem = vec![self.fls(); w];
        let mut quot = vec![self.fls(); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i], dropping the shifted-out MSB (it is
            // always zero here because rem < b fits in w bits).
            let mut shifted = Vec::with_capacity(w);
            shifted.push(a[i]);
            shifted.extend_from_slice(&rem[..w - 1]);
            rem = shifted;
            let (diff, carry) = self.subtract(&rem, b);
            let ge = carry; // no borrow => rem >= b
            rem = self.mux_bits(ge, &diff, &rem);
            quot[i] = ge;
        }
        (quot, rem)
    }

    fn abs_bits(&mut self, a: &Bits) -> Bits {
        let sign = *a.last().expect("nonempty");
        let neg = self.negate(a);
        self.mux_bits(sign, &neg, a)
    }

    fn shift(&mut self, a: &Bits, amount: &Bits, op: &Op) -> Bits {
        let w = a.len();
        // Default result when the amount >= w.
        let sign = *a.last().expect("nonempty");
        let overflow_bits: Bits = match op {
            Op::BvAshr => vec![sign; w],
            _ => vec![self.fls(); w],
        };
        let mut result = overflow_bits.clone();
        // One mux layer per feasible shift amount; O(w^2) gates.
        for s in 0..w {
            let sv = BitVecValue::new(BigInt::from(s as i64), w as u32);
            let s_bits = self.const_bits(&sv);
            let is_s = self.equal(amount, &s_bits);
            let shifted: Bits = match op {
                Op::BvShl => {
                    let mut v = vec![self.fls(); s];
                    v.extend_from_slice(&a[..w - s]);
                    v
                }
                Op::BvLshr => {
                    let mut v = a[s..].to_vec();
                    v.resize(w, self.fls());
                    v
                }
                Op::BvAshr => {
                    let mut v = a[s..].to_vec();
                    v.resize(w, sign);
                    v
                }
                other => unreachable!("shift called with {other:?}"),
            };
            result = self.mux_bits(is_s, &shifted, &result);
        }
        result
    }

    /// The sign-extended `2w`-bit product of two `w`-bit terms, cached per
    /// operand pair.
    fn wide_product(&mut self, a_id: TermId, b_id: TermId) -> Bits {
        if let Some(p) = self.wide_mul.get(&(a_id, b_id)) {
            return p.clone();
        }
        let a = self.encode_bv(a_id);
        let b = self.encode_bv(b_id);
        let w = a.len();
        let ax = self.sign_extend_bits(&a, 2 * w);
        let bx = self.sign_extend_bits(&b, 2 * w);
        let p = self.multiply(&ax, &bx, 2 * w);
        self.wide_mul.insert((a_id, b_id), p.clone());
        // Multiplication is commutative; share the mirrored pair too.
        self.wide_mul.insert((b_id, a_id), p.clone());
        p
    }

    /// The sign-extended `(w+1)`-bit sum (`sub = false`) or difference
    /// (`sub = true`), cached per operand pair.
    fn wide_addsub_bits(&mut self, a_id: TermId, b_id: TermId, sub: bool) -> Bits {
        if let Some(s) = self.wide_addsub.get(&(a_id, b_id, sub)) {
            return s.clone();
        }
        let a = self.encode_bv(a_id);
        let b = self.encode_bv(b_id);
        let w = a.len();
        let ax = self.sign_extend_bits(&a, w + 1);
        let bx = self.sign_extend_bits(&b, w + 1);
        let s = if sub {
            self.subtract(&ax, &bx).0
        } else {
            self.adder(&ax, &bx, self.fls()).0
        };
        self.wide_addsub.insert((a_id, b_id, sub), s.clone());
        s
    }

    // --- term encoding -------------------------------------------------------

    pub(crate) fn encode_bool(&mut self, id: TermId) -> Lit {
        if self.poll_cancel() {
            return self.core.tru;
        }
        if let Some(&lit) = self.bool_memo.get(&id) {
            return lit;
        }
        let term = self.store.term(id).clone();
        let lit = self.encode_bool_uncached(&term);
        self.bool_memo.insert(id, lit);
        lit
    }

    fn encode_bool_uncached(&mut self, term: &staub_smtlib::Term) -> Lit {
        let args = term.args();
        match term.op() {
            Op::True => self.core.tru,
            Op::False => self.fls(),
            Op::Var(sym) => {
                let sym = *sym;
                if let Some(&l) = self.var_bools.get(&sym) {
                    return l;
                }
                let l = if self.core.persist {
                    let name = self.store.symbol_name(sym).to_string();
                    self.core.named_bool(&name)
                } else {
                    self.fresh()
                };
                self.var_bools.insert(sym, l);
                l
            }
            Op::Not => {
                let a = self.encode_bool(args[0]);
                a.negated()
            }
            Op::And => {
                let lits: Vec<Lit> = args.iter().map(|&a| self.encode_bool(a)).collect();
                self.gate_and(&lits)
            }
            Op::Or => {
                let lits: Vec<Lit> = args.iter().map(|&a| self.encode_bool(a)).collect();
                self.gate_or(&lits)
            }
            Op::Xor => {
                let lits: Vec<Lit> = args.iter().map(|&a| self.encode_bool(a)).collect();
                lits.into_iter()
                    .reduce(|a, b| self.gate_xor2(a, b))
                    .expect("xor has arguments")
            }
            Op::Implies => {
                let lits: Vec<Lit> = args.iter().map(|&a| self.encode_bool(a)).collect();
                // Right-associative: a => b => c == a => (b => c).
                let mut acc = *lits.last().expect("implies has arguments");
                for &l in lits[..lits.len() - 1].iter().rev() {
                    acc = self.gate_or(&[l.negated(), acc]);
                }
                acc
            }
            Op::Ite => {
                let c = self.encode_bool(args[0]);
                let t = self.encode_bool(args[1]);
                let e = self.encode_bool(args[2]);
                self.gate_ite(c, t, e)
            }
            Op::Eq => {
                let pairwise: Vec<Lit> = args
                    .windows(2)
                    .map(|w| self.encode_eq_pair(w[0], w[1]))
                    .collect();
                self.gate_and(&pairwise)
            }
            Op::Distinct => {
                let mut constraints = Vec::new();
                for i in 0..args.len() {
                    for j in i + 1..args.len() {
                        let eq = self.encode_eq_pair(args[i], args[j]);
                        constraints.push(eq.negated());
                    }
                }
                self.gate_and(&constraints)
            }
            Op::BvSlt => self.encode_cmp(args, Blaster::slt),
            Op::BvSle => self.encode_cmp(args, |s, a, b| s.slt(b, a).negated()),
            Op::BvSgt => self.encode_cmp(args, |s, a, b| s.slt(b, a)),
            Op::BvSge => self.encode_cmp(args, |s, a, b| s.slt(a, b).negated()),
            Op::BvUlt => self.encode_cmp(args, Blaster::ult),
            Op::BvUle => self.encode_cmp(args, |s, a, b| s.ult(b, a).negated()),
            Op::BvSaddo => {
                let sum = self.wide_addsub_bits(args[0], args[1], false);
                let w = sum.len() - 1;
                self.gate_xor2(sum[w], sum[w - 1])
            }
            Op::BvSsubo => {
                let diff = self.wide_addsub_bits(args[0], args[1], true);
                let w = diff.len() - 1;
                self.gate_xor2(diff[w], diff[w - 1])
            }
            Op::BvSmulo => {
                let p = self.wide_product(args[0], args[1]);
                let w = p.len() / 2;
                // Overflow unless bits [w-1 .. 2w-1] are all equal to p[w-1].
                let mut diffs = Vec::new();
                for i in w..2 * w {
                    diffs.push(self.gate_xor2(p[i], p[w - 1]));
                }
                self.gate_or(&diffs)
            }
            Op::BvSdivo => {
                let (a, b) = self.encode_pair(args);
                let min = self.int_min_pattern(&a);
                let minus_one: Vec<Lit> = vec![self.core.tru; b.len()];
                let b_is_m1 = self.equal(&b, &minus_one);
                self.gate_and(&[min, b_is_m1])
            }
            Op::BvNego => {
                let a = self.encode_bv(args[0]);
                self.int_min_pattern(&a)
            }
            other => panic!("bit-blaster cannot encode boolean op {other:?}"),
        }
    }

    fn int_min_pattern(&mut self, a: &Bits) -> Lit {
        // 1000...0 (two's-complement minimum).
        let mut lits: Vec<Lit> = a[..a.len() - 1].iter().map(|l| l.negated()).collect();
        lits.push(a[a.len() - 1]);
        self.gate_and(&lits)
    }

    fn encode_pair(&mut self, args: &[TermId]) -> (Bits, Bits) {
        (self.encode_bv(args[0]), self.encode_bv(args[1]))
    }

    fn encode_cmp(&mut self, args: &[TermId], f: impl Fn(&mut Self, &Bits, &Bits) -> Lit) -> Lit {
        let (a, b) = self.encode_pair(args);
        f(self, &a, &b)
    }

    fn encode_eq_pair(&mut self, a: TermId, b: TermId) -> Lit {
        match self.store.sort(a) {
            Sort::Bool => {
                let la = self.encode_bool(a);
                let lb = self.encode_bool(b);
                self.gate_iff(la, lb)
            }
            Sort::BitVec(_) => {
                let ba = self.encode_bv(a);
                let bb = self.encode_bv(b);
                self.equal(&ba, &bb)
            }
            other => panic!("bit-blaster cannot compare sort {other}"),
        }
    }

    pub(crate) fn encode_bv(&mut self, id: TermId) -> Bits {
        let width = match self.store.sort(id) {
            Sort::BitVec(w) => w as usize,
            s => panic!("expected bitvector sort, got {s}"),
        };
        if self.poll_cancel() {
            // Placeholder bits of the right width keep callers' indexing
            // in bounds on the way out.
            return vec![self.core.tru; width];
        }
        if let Some(bits) = self.bv_memo.get(&id) {
            return bits.clone();
        }
        let term = self.store.term(id).clone();
        let bits = self.encode_bv_uncached(&term);
        debug_assert_eq!(bits.len(), width);
        self.bv_memo.insert(id, bits.clone());
        bits
    }

    fn encode_bv_uncached(&mut self, term: &staub_smtlib::Term) -> Bits {
        let args = term.args();
        match term.op() {
            Op::BvConst(v) => self.const_bits(v),
            Op::Var(sym) => {
                let sym = *sym;
                if let Some(bits) = self.var_bits.get(&sym) {
                    return bits.clone();
                }
                let Sort::BitVec(w) = self.store.symbol_sort(sym) else {
                    panic!("bitvector variable expected");
                };
                let bits: Bits = if self.core.persist {
                    let name = self.store.symbol_name(sym).to_string();
                    self.core.named_bv_bits(&name, w as usize)
                } else {
                    (0..w).map(|_| self.fresh()).collect()
                };
                self.var_bits.insert(sym, bits.clone());
                bits
            }
            Op::BvAdd => {
                let sum = self.wide_addsub_bits(args[0], args[1], false);
                sum[..sum.len() - 1].to_vec()
            }
            Op::BvSub => {
                let diff = self.wide_addsub_bits(args[0], args[1], true);
                diff[..diff.len() - 1].to_vec()
            }
            Op::BvMul => {
                let p = self.wide_product(args[0], args[1]);
                p[..p.len() / 2].to_vec()
            }
            Op::BvNeg => {
                let a = self.encode_bv(args[0]);
                self.negate(&a)
            }
            Op::BvNot => self
                .encode_bv(args[0])
                .iter()
                .map(|l| l.negated())
                .collect(),
            Op::BvAnd => self.bitwise(args, |s, x, y| s.gate_and(&[x, y])),
            Op::BvOr => self.bitwise(args, |s, x, y| s.gate_or(&[x, y])),
            Op::BvXor => self.bitwise(args, Blaster::gate_xor2),
            Op::BvShl | Op::BvLshr | Op::BvAshr => {
                let (a, amount) = self.encode_pair(args);
                let op = term.op().clone();
                self.shift(&a, &amount, &op)
            }
            Op::BvUdiv => {
                let (a, b) = self.encode_pair(args);
                let (q, _) = self.udivrem(&a, &b);
                let bz = self.is_zero(&b);
                let ones = vec![self.core.tru; a.len()];
                self.mux_bits(bz, &ones, &q)
            }
            Op::BvUrem => {
                let (a, b) = self.encode_pair(args);
                let (_, r) = self.udivrem(&a, &b);
                let bz = self.is_zero(&b);
                self.mux_bits(bz, &a, &r)
            }
            Op::BvSdiv => {
                let (a, b) = self.encode_pair(args);
                let w = a.len();
                let abs_a = self.abs_bits(&a);
                let abs_b = self.abs_bits(&b);
                let (q, _) = self.udivrem(&abs_a, &abs_b);
                let sign = self.gate_xor2(a[w - 1], b[w - 1]);
                let negq = self.negate(&q);
                let signed_q = self.mux_bits(sign, &negq, &q);
                // Division by zero: -1 if a >= 0, +1 otherwise.
                let bz = self.is_zero(&b);
                let ones = vec![self.core.tru; w];
                let mut one = vec![self.fls(); w];
                one[0] = self.core.tru;
                let dz = self.mux_bits(a[w - 1], &one, &ones);
                self.mux_bits(bz, &dz, &signed_q)
            }
            Op::BvSrem => {
                let (a, b) = self.encode_pair(args);
                let w = a.len();
                let abs_a = self.abs_bits(&a);
                let abs_b = self.abs_bits(&b);
                let (_, r) = self.udivrem(&abs_a, &abs_b);
                let negr = self.negate(&r);
                let signed_r = self.mux_bits(a[w - 1], &negr, &r);
                let bz = self.is_zero(&b);
                self.mux_bits(bz, &a, &signed_r)
            }
            Op::BvSignExtend(n) => {
                let a = self.encode_bv(args[0]);
                let w = a.len() + *n as usize;
                self.sign_extend_bits(&a, w)
            }
            Op::BvZeroExtend(n) => {
                let a = self.encode_bv(args[0]);
                let w = a.len() + *n as usize;
                self.zero_extend_bits(&a, w)
            }
            Op::BvExtract(hi, lo) => {
                let a = self.encode_bv(args[0]);
                a[*lo as usize..=*hi as usize].to_vec()
            }
            Op::Ite => {
                let c = self.encode_bool(args[0]);
                let t = self.encode_bv(args[1]);
                let e = self.encode_bv(args[2]);
                self.mux_bits(c, &t, &e)
            }
            other => panic!("bit-blaster cannot encode bitvector op {other:?}"),
        }
    }

    fn bitwise(&mut self, args: &[TermId], f: impl Fn(&mut Self, Lit, Lit) -> Lit) -> Bits {
        let (a, b) = self.encode_pair(args);
        a.iter().zip(&b).map(|(&x, &y)| f(self, x, y)).collect()
    }

    /// Reads the SAT model back into SMT values for every declared symbol
    /// that was encoded (unconstrained symbols default to zero/false).
    pub(crate) fn extract_model(&self, store: &TermStore) -> Model {
        let mut model = Model::new();
        for sym in store.symbols() {
            match store.symbol_sort(sym) {
                Sort::Bool => {
                    let value = self
                        .var_bools
                        .get(&sym)
                        .and_then(|l| self.lit_model_value(*l))
                        .unwrap_or(false);
                    model.insert(sym, Value::Bool(value));
                }
                Sort::BitVec(w) => {
                    let mut acc = BigInt::zero();
                    if let Some(bits) = self.var_bits.get(&sym) {
                        for (i, &bit) in bits.iter().enumerate() {
                            if self.lit_model_value(bit).unwrap_or(false) {
                                acc = &acc + &BigInt::one().shl_bits(i);
                            }
                        }
                    }
                    model.insert(sym, Value::BitVec(BitVecValue::new(acc, w)));
                }
                _ => {}
            }
        }
        model
    }

    fn lit_model_value(&self, lit: Lit) -> Option<bool> {
        self.core.sat.value(lit.var()).map(|v| v == lit.is_pos())
    }
}

/// An incremental bit-blasting session over QF_BV (+ boolean) scripts.
///
/// A session keeps one [`BlastCore`] alive across [`BvSession::check`]
/// calls: the CDCL solver with its learned clauses, saved phases, and
/// variable activities; every Tseitin gate definition ever emitted; and
/// per-symbol-name variable encodings. Each check re-encodes the given
/// script against that state — identical sub-circuits hit the gate cache
/// and produce the *same literals* as before, so conflict clauses learned
/// about them in earlier checks prune the new search directly — and passes
/// the assertion roots to the SAT core as assumptions.
///
/// The payoff is warm-started escalation: checking a script at bitvector
/// width `w` and then re-checking the same constraint widened to `2w`
/// reuses the low-`w` variable bits (only the extension bits are new),
/// the shared low-bit circuitry, the learned clauses over it, and the
/// saved phases of the narrow solution.
///
/// Unlike [`solve_bv`], a check that returns `Unsat` means *unsatisfiable
/// under this script's assertions* — the session stays usable for
/// different (e.g. wider) scripts afterwards.
pub struct BvSession {
    core: BlastCore,
    checks: u64,
    last_core: Vec<usize>,
}

impl BvSession {
    /// Creates an empty session.
    pub fn new(config: SatConfig) -> BvSession {
        BvSession {
            core: BlastCore::new(config, true),
            checks: 0,
            last_core: Vec::new(),
        }
    }

    /// Encodes and solves `script` against the session's accumulated
    /// state.
    ///
    /// Counter stats (`decisions`/`conflicts`/`propagations`/`restarts`)
    /// are the delta attributable to this check; `clauses` is the total
    /// database size after it.
    ///
    /// # Panics
    ///
    /// Panics if the script contains non-bitvector, non-boolean sorts,
    /// like [`solve_bv`].
    pub fn check(&mut self, script: &Script, budget: &Budget) -> (SatResult, SolverStats) {
        let (d0, c0, p0, r0) = (
            self.core.sat.decisions,
            self.core.sat.conflicts,
            self.core.sat.propagations,
            self.core.sat.restarts,
        );
        let (s0, st0) = (self.core.sat.subsumed, self.core.sat.strengthened);
        let mut blaster = Blaster::attach(script.store(), &mut self.core, budget);
        let roots: Vec<Lit> = script
            .assertions()
            .iter()
            .map(|&a| blaster.encode_bool(a))
            .collect();
        self.last_core.clear();
        // A cancelled encode's roots may be placeholders: they never reach
        // SAT, and the definitions it did emit are complete (see
        // [`BlastCore`]), so the session stays sound for later checks.
        let outcome = if blaster.poll_cancel() {
            SatSolverResult::Unknown
        } else {
            blaster.core.sat.solve_with_assumptions(&roots, budget)
        };
        let result = match outcome {
            SatSolverResult::Sat => SatResult::Sat(blaster.extract_model(script.store())),
            SatSolverResult::Unsat => {
                // Map the assumption core back to assertion indices. A
                // root literal shared by several assertions (gate-cache
                // hit on identical terms) blames each of them — the
                // over-approximation is sound for refinement purposes.
                let core = blaster.core.sat.assumption_core();
                self.last_core = roots
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| core.contains(r))
                    .map(|(i, _)| i)
                    .collect();
                SatResult::Unsat
            }
            SatSolverResult::Unknown => SatResult::Unknown(UnknownReason::BudgetExhausted),
        };
        self.core.cancel_countdown = None;
        self.checks += 1;
        let stats = SolverStats {
            decisions: self.core.sat.decisions - d0,
            conflicts: self.core.sat.conflicts - c0,
            propagations: self.core.sat.propagations - p0,
            restarts: self.core.sat.restarts - r0,
            subsumed: self.core.sat.subsumed - s0,
            strengthened: self.core.sat.strengthened - st0,
            clauses: self.core.sat.num_clauses() as u64,
            ..Default::default()
        };
        (result, stats)
    }

    /// Number of checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Test hook for deterministic cancellation: during the next
    /// [`BvSession::check`], the encoder cancels the budget's
    /// [`crate::CancelFlag`] (if it has one) after `polls` cancellation
    /// polls. Polls happen at every gate and on entry to every term
    /// encoding, so this trips a check part-way through its bit-blast at a
    /// reproducible point. The hook disarms when that check returns.
    #[doc(hidden)]
    pub fn cancel_after_polls(&mut self, polls: u64) {
        self.core.cancel_countdown = Some(polls);
    }

    /// Cumulative structural gate-cache hits across all checks.
    pub fn gate_cache_hits(&self) -> u64 {
        self.core.cache_hits
    }

    /// Indices (into the checked script's assertion list) of the
    /// assertions whose roots appear in the SAT core of the last
    /// [`BvSession::check`] that answered `Unsat`.
    ///
    /// Empty after any other answer, and empty when the session's clause
    /// database became unsatisfiable independent of the assertion roots —
    /// so an empty slice after `Unsat` means "no assertion to blame".
    pub fn last_unsat_core(&self) -> &[usize] {
        &self.last_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staub_smtlib::evaluate;

    fn solve_src(src: &str) -> (SatResult, SolverStats) {
        let script = Script::parse(src).unwrap();
        solve_bv(&script, SatConfig::default(), &Budget::unlimited())
    }

    /// Solve and, if sat, exactly verify the model against all assertions.
    fn solve_checked(src: &str) -> SatResult {
        let script = Script::parse(src).unwrap();
        let (result, _) = solve_bv(&script, SatConfig::default(), &Budget::unlimited());
        if let SatResult::Sat(model) = &result {
            for &a in script.assertions() {
                let v = evaluate(script.store(), a, model).unwrap();
                assert_eq!(v, Value::Bool(true), "model check failed for {src}");
            }
        }
        result
    }

    #[test]
    fn square_equation() {
        let r = solve_checked("(declare-fun x () (_ BitVec 8))(assert (= (bvmul x x) (_ bv49 8)))");
        assert!(r.is_sat());
    }

    #[test]
    fn motivating_example_width_12() {
        // x^3 + y^3 + z^3 = 855 with no-overflow guards: sat (7,8,0).
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 12))
             (declare-fun y () (_ BitVec 12))
             (declare-fun z () (_ BitVec 12))
             (assert (not (bvsmulo x x)))
             (assert (not (bvsmulo (bvmul x x) x)))
             (assert (not (bvsmulo y y)))
             (assert (not (bvsmulo (bvmul y y) y)))
             (assert (not (bvsmulo z z)))
             (assert (not (bvsmulo (bvmul z z) z)))
             (assert (not (bvsaddo (bvmul (bvmul x x) x) (bvmul (bvmul y y) y))))
             (assert (not (bvsaddo (bvadd (bvmul (bvmul x x) x) (bvmul (bvmul y y) y)) (bvmul (bvmul z z) z))))
             (assert (= (bvadd (bvadd (bvmul (bvmul x x) x) (bvmul (bvmul y y) y)) (bvmul (bvmul z z) z)) (_ bv855 12)))",
        );
        assert!(r.is_sat());
    }

    #[test]
    fn unsat_parity() {
        // x + x is even; cannot equal 7.
        let r = solve_src("(declare-fun x () (_ BitVec 8))(assert (= (bvadd x x) (_ bv7 8)))");
        assert!(r.0.is_unsat());
    }

    #[test]
    fn overflow_semantics_wraparound() {
        // In 8 bits, 16*16 = 0: sat without guards...
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (assert (= x (_ bv16 8)))
             (assert (= (bvmul x x) (_ bv0 8)))",
        );
        assert!(r.is_sat());
        // ...but unsat when the overflow guard is asserted.
        let r2 = solve_src(
            "(declare-fun x () (_ BitVec 8))
             (assert (= x (_ bv16 8)))
             (assert (not (bvsmulo x x)))",
        );
        assert!(r2.0.is_unsat());
    }

    #[test]
    fn signed_comparison() {
        // -1 <s 0 but -1 >u 0.
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (assert (bvslt x (_ bv0 8)))
             (assert (bvult (_ bv0 8) x))",
        );
        assert!(r.is_sat());
        let r2 = solve_src(
            "(declare-fun x () (_ BitVec 8))
             (assert (bvslt x (_ bv0 8)))
             (assert (bvult x (_ bv0 8)))",
        );
        assert!(r2.0.is_unsat(), "nothing is unsigned-less-than zero");
    }

    #[test]
    fn division_circuit() {
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (assert (= (bvudiv x (_ bv3 8)) (_ bv5 8)))
             (assert (= (bvurem x (_ bv3 8)) (_ bv2 8)))",
        );
        // x = 17.
        assert!(r.is_sat());
    }

    #[test]
    fn signed_division_circuit() {
        // -7 sdiv 2 = -3.
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (assert (= x (bvneg (_ bv7 8))))
             (assert (= (bvsdiv x (_ bv2 8)) (bvneg (_ bv3 8))))
             (assert (= (bvsrem x (_ bv2 8)) (bvneg (_ bv1 8))))",
        );
        assert!(r.is_sat());
    }

    #[test]
    fn division_by_zero_semantics() {
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 4))
             (assert (= (bvudiv x (_ bv0 4)) (_ bv15 4)))
             (assert (= (bvurem x (_ bv0 4)) x))",
        );
        assert!(r.is_sat());
    }

    #[test]
    fn shifts() {
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (assert (= (bvshl (_ bv1 8) x) (_ bv32 8)))",
        );
        assert!(r.is_sat()); // x = 5
        let r2 = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (assert (= x (bvneg (_ bv16 8))))
             (assert (= (bvashr x (_ bv2 8)) (bvneg (_ bv4 8))))",
        );
        assert!(r2.is_sat());
    }

    #[test]
    fn bitwise_and_extract() {
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (assert (= (bvand x (_ bv15 8)) (_ bv9 8)))
             (assert (= ((_ extract 7 4) x) (_ bv3 4)))",
        );
        assert!(r.is_sat()); // x = 0x39
    }

    #[test]
    fn extensions() {
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 4))
             (assert (bvslt x (_ bv0 4)))
             (assert (= ((_ sign_extend 4) x) (bvneg (_ bv3 8))))",
        );
        assert!(r.is_sat());
        let r2 = solve_src(
            "(declare-fun x () (_ BitVec 4))
             (assert (bvslt x (_ bv0 4)))
             (assert (bvslt ((_ zero_extend 4) x) (_ bv0 8)))",
        );
        assert!(r2.0.is_unsat(), "zero-extension is non-negative");
    }

    #[test]
    fn boolean_structure_with_bv() {
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (declare-fun p () Bool)
             (assert (ite p (= x (_ bv3 8)) (= x (_ bv5 8))))
             (assert (=> p (bvult x (_ bv2 8))))",
        );
        // p forces x=3 and x<2: contradiction, so p must be false, x=5.
        assert!(r.is_sat());
    }

    #[test]
    fn ite_on_bitvectors() {
        let r = solve_checked(
            "(declare-fun x () (_ BitVec 8))
             (declare-fun p () Bool)
             (assert (= (ite p (_ bv3 8) (_ bv5 8)) x))
             (assert (not p))",
        );
        assert!(r.is_sat());
    }

    #[test]
    fn distinct_bitvectors() {
        let r = solve_src(
            "(declare-fun x () (_ BitVec 1))
             (declare-fun y () (_ BitVec 1))
             (declare-fun z () (_ BitVec 1))
             (assert (distinct x y z))",
        );
        assert!(r.0.is_unsat(), "three distinct 1-bit values cannot exist");
    }

    #[test]
    fn overflow_predicates_agree_with_value_semantics() {
        // The circuit's bvsmulo and the exact value semantics must agree: a
        // model of (bvsmulo a b) evaluates to true under BitVecValue, and
        // the model-check in solve_checked enforces that.
        let src = "(declare-fun a () (_ BitVec 4))
             (declare-fun b () (_ BitVec 4))
             (assert (bvsmulo a b))
             (assert (bvsle a (_ bv3 4)))
             (assert (bvsge a (_ bv2 4)))";
        assert!(solve_checked(src).is_sat());
        // And its negation also produces exact-checkable models.
        let src2 = "(declare-fun a () (_ BitVec 4))
             (declare-fun b () (_ BitVec 4))
             (assert (not (bvsmulo a b)))
             (assert (bvsge a (_ bv2 4)))
             (assert (bvsge b (_ bv2 4)))";
        assert!(solve_checked(src2).is_sat());
    }

    #[test]
    fn session_agrees_with_oneshot() {
        let sources = [
            "(declare-fun x () (_ BitVec 8))(assert (= (bvmul x x) (_ bv49 8)))",
            "(declare-fun x () (_ BitVec 8))(assert (= (bvadd x x) (_ bv7 8)))",
            "(declare-fun p () Bool)(declare-fun x () (_ BitVec 4))\
             (assert (ite p (= x (_ bv3 4)) (bvult x (_ bv2 4))))",
        ];
        let mut session = BvSession::new(SatConfig::default());
        for src in sources {
            let script = Script::parse(src).unwrap();
            let (cold, _) = solve_bv(&script, SatConfig::default(), &Budget::unlimited());
            let (warm, _) = session.check(&script, &Budget::unlimited());
            assert_eq!(cold.is_sat(), warm.is_sat(), "verdict mismatch on {src}");
            assert_eq!(
                cold.is_unsat(),
                warm.is_unsat(),
                "verdict mismatch on {src}"
            );
            if let SatResult::Sat(model) = &warm {
                for &a in script.assertions() {
                    let v = evaluate(script.store(), a, model).unwrap();
                    assert_eq!(v, Value::Bool(true), "session model check failed for {src}");
                }
            }
        }
    }

    #[test]
    fn session_unsat_does_not_poison_later_checks() {
        let mut session = BvSession::new(SatConfig::default());
        let unsat =
            Script::parse("(declare-fun x () (_ BitVec 8))(assert (= (bvadd x x) (_ bv7 8)))")
                .unwrap();
        let (r1, _) = session.check(&unsat, &Budget::unlimited());
        assert!(r1.is_unsat());
        // The same constraint minus the parity trap is satisfiable, and the
        // session must not have latched the earlier unsat verdict.
        let sat =
            Script::parse("(declare-fun x () (_ BitVec 8))(assert (= (bvadd x x) (_ bv8 8)))")
                .unwrap();
        let (r2, _) = session.check(&sat, &Budget::unlimited());
        assert!(r2.is_sat(), "session stayed unsat after an unsat check");
    }

    #[test]
    fn session_unsat_core_names_guilty_assertions() {
        // Assertions 1 and 3 clash (x = 3 vs x + x = 7, unsat by parity
        // already, but the equality makes the clash local); assertion 2
        // constrains an unrelated variable and must stay out of the core.
        let mut session = BvSession::new(SatConfig::default());
        let script = Script::parse(
            "(declare-fun x () (_ BitVec 8))
             (declare-fun y () (_ BitVec 8))
             (assert (= x (_ bv3 8)))
             (assert (bvult y (_ bv100 8)))
             (assert (= (bvadd x x) (_ bv7 8)))",
        )
        .unwrap();
        let (r, _) = session.check(&script, &Budget::unlimited());
        assert!(r.is_unsat());
        let core = session.last_unsat_core().to_vec();
        assert!(
            !core.is_empty(),
            "unsat under assumptions must yield a core"
        );
        assert!(!core.contains(&1), "unrelated assertion entered the core");
        assert!(core.contains(&2), "the parity clash is in every refutation");
        // A sat check clears the core.
        let sat =
            Script::parse("(declare-fun x () (_ BitVec 8))(assert (= (bvadd x x) (_ bv8 8)))")
                .unwrap();
        let (r2, _) = session.check(&sat, &Budget::unlimited());
        assert!(r2.is_sat());
        assert!(session.last_unsat_core().is_empty());
    }

    #[test]
    fn session_recheck_hits_gate_cache_and_allocates_nothing() {
        let src = "(declare-fun x () (_ BitVec 8))(assert (= (bvmul x x) (_ bv49 8)))";
        let script = Script::parse(src).unwrap();
        let mut session = BvSession::new(SatConfig::default());
        let (r1, _) = session.check(&script, &Budget::unlimited());
        assert!(r1.is_sat());
        let vars_after_first = session.core.sat.num_vars();
        let hits_after_first = session.gate_cache_hits();
        // A second check of the identical script (even via a fresh parse,
        // so all TermIds differ) must find every gate and variable in the
        // persistent core.
        let reparsed = Script::parse(src).unwrap();
        let (r2, _) = session.check(&reparsed, &Budget::unlimited());
        assert!(r2.is_sat());
        assert_eq!(
            session.core.sat.num_vars(),
            vars_after_first,
            "identical re-check allocated fresh SAT variables"
        );
        assert!(
            session.gate_cache_hits() > hits_after_first,
            "identical re-check missed the gate cache"
        );
    }

    #[test]
    fn session_widening_reuses_low_bits() {
        // The same square equation at widths 8 and 16. The 16-bit script
        // is a fresh parse with fresh TermIds and SymbolIds; reuse must
        // key on the symbol *name*.
        let narrow =
            Script::parse("(declare-fun x () (_ BitVec 8))(assert (= (bvmul x x) (_ bv49 8)))")
                .unwrap();
        let wide =
            Script::parse("(declare-fun x () (_ BitVec 16))(assert (= (bvmul x x) (_ bv49 16)))")
                .unwrap();
        let mut session = BvSession::new(SatConfig::default());
        let (r1, _) = session.check(&narrow, &Budget::unlimited());
        assert!(r1.is_sat());
        let hits_after_narrow = session.gate_cache_hits();
        let (r2, _) = session.check(&wide, &Budget::unlimited());
        assert!(r2.is_sat(), "widened square equation must stay sat");
        assert!(
            session.gate_cache_hits() > hits_after_narrow,
            "widening re-blasted the shared low-bit circuitry"
        );
        if let SatResult::Sat(model) = &r2 {
            for &a in wide.assertions() {
                let v = evaluate(wide.store(), a, model).unwrap();
                assert_eq!(v, Value::Bool(true), "widened model check failed");
            }
        }
        // Narrowing back down (the pop-then-re-assert path) also works:
        // the low 8 bits are sliced out of the 16-bit encoding.
        let (r3, _) = session.check(&narrow, &Budget::unlimited());
        assert!(r3.is_sat());
    }

    fn cancelled_budget() -> Budget {
        let flag = crate::CancelFlag::new();
        flag.cancel();
        Budget::with_cancel(std::time::Duration::from_secs(3600), u64::MAX, flag)
    }

    /// Sum of cubes at 10 bits: several multipliers, so cancellation has
    /// many gates to land between.
    const CUBES: &str = "(declare-fun x () (_ BitVec 10))
         (declare-fun y () (_ BitVec 10))
         (assert (not (bvsmulo x x)))
         (assert (not (bvsmulo (bvmul x x) x)))
         (assert (not (bvsmulo y y)))
         (assert (not (bvsmulo (bvmul y y) y)))
         (assert (= (bvadd (bvmul (bvmul x x) x) (bvmul (bvmul y y) y)) (_ bv35 10)))";

    #[test]
    fn cancelled_budget_answers_unknown_without_sat() {
        let script = Script::parse(CUBES).unwrap();
        let (r, stats) = solve_bv(&script, SatConfig::default(), &cancelled_budget());
        assert!(matches!(
            r,
            SatResult::Unknown(UnknownReason::BudgetExhausted)
        ));
        assert_eq!((stats.decisions, stats.conflicts), (0, 0), "SAT ran");
        let mut session = BvSession::new(SatConfig::default());
        let (r, stats) = session.check(&script, &cancelled_budget());
        assert!(matches!(
            r,
            SatResult::Unknown(UnknownReason::BudgetExhausted)
        ));
        assert_eq!((stats.decisions, stats.conflicts), (0, 0), "SAT ran");
        assert!(session.last_unsat_core().is_empty());
    }

    /// A session whose check was cancelled part-way through the bit-blast
    /// keeps answering exactly like a fresh one: the same script again,
    /// a widened one, and an unsat one. Trip points sweep from the first
    /// poll to past the end of the encoding.
    #[test]
    fn session_cancelled_mid_encode_stays_sound() {
        let cubes = Script::parse(CUBES).unwrap();
        let wide = Script::parse(&CUBES.replace("10)", "20)")).unwrap();
        let parity =
            Script::parse("(declare-fun x () (_ BitVec 10))(assert (= (bvadd x x) (_ bv7 10)))")
                .unwrap();
        let later = [&cubes, &wide, &parity, &cubes];
        let fresh: Vec<SatResult> = later
            .iter()
            .map(|s| {
                BvSession::new(SatConfig::default())
                    .check(s, &Budget::unlimited())
                    .0
            })
            .collect();
        let (mut aborted, mut finished) = (0, 0);
        let mut trip = 0u64;
        while trip < 200_000 {
            let mut session = BvSession::new(SatConfig::default());
            session.cancel_after_polls(trip);
            let flag = crate::CancelFlag::new();
            let budget =
                Budget::with_cancel(std::time::Duration::from_secs(3600), u64::MAX, flag.clone());
            let (r, _) = session.check(&cubes, &budget);
            if flag.is_cancelled() {
                aborted += 1;
                assert!(matches!(r, SatResult::Unknown(_)), "trip {trip}: {r:?}");
            } else {
                finished += 1;
                assert!(r.is_sat(), "trip {trip}: {r:?}");
            }
            for (script, cold) in later.iter().zip(&fresh) {
                let (warm, _) = session.check(script, &Budget::unlimited());
                assert_eq!(
                    (warm.is_sat(), warm.is_unsat()),
                    (cold.is_sat(), cold.is_unsat()),
                    "trip {trip}: verdict differs from a fresh session"
                );
                if let SatResult::Sat(model) = &warm {
                    for &a in script.assertions() {
                        let v = evaluate(script.store(), a, model).unwrap();
                        assert_eq!(v, Value::Bool(true), "trip {trip}: bad model");
                    }
                }
            }
            trip = trip * 2 + 1;
        }
        assert!(
            aborted > 5 && finished > 0,
            "{aborted} aborted, {finished} finished"
        );
    }

    #[test]
    fn nego_only_int_min() {
        let r = solve_src(
            "(declare-fun x () (_ BitVec 8))
             (assert (bvnego x))
             (assert (not (= x (bvneg (_ bv128 8)))))",
        );
        // INT_MIN = -128; bvneg(128) = -128 in 8 bits, so x must equal it: unsat.
        assert!(r.0.is_unsat());
    }
}
