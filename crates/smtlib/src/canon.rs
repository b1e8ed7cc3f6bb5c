//! Canonical forms and fingerprints for constraint scripts.
//!
//! The answer cache in `staub-service` must recognise a constraint it has
//! already solved even when the client reordered commutative arguments,
//! renamed every symbol, or shuffled the assertion list. This module maps a
//! [`Script`] to a *canonical form* that is invariant under exactly those
//! transformations. It normalizes the assertions once into a flat node
//! table, then runs four passes over flat arrays:
//!
//! 0. **Normalization** — one post-order walk from the assertion roots
//!    gives every reachable term a node: its tag string (operator name,
//!    literal value, or a variable's sort) and the tag's hash, computed
//!    once; its children as `u32` indices into one shared array; and
//!    whether those children commute. Equivalent spellings meet here. The
//!    parser reads the literal `(- 20)` as unary minus applied to `20` and
//!    `(/ 321.0 16.0)` as a division, where programmatic builders intern
//!    the constant directly, so both fold to the literal they denote and a
//!    print/parse round trip cannot disturb the key. `(>= a b)` and
//!    `(> a b)` flip to `(<= b a)` and `(< b a)`, and a binary strict Int
//!    comparison with a literal tightens to the non-strict form, the bumped
//!    literal becoming a leaf node of its own (`(< x 5)` is `(<= x 4)`).
//!    Nodes are hash-consed by content, with commutative children sorted,
//!    so the table holds each normalized subterm exactly once. A lookup
//!    compares tag text and children: no hash value decides identity.
//! 1. **Refinement** — each round computes name-blind bottom-up *shape*
//!    hashes from the variables' current colours (initially their sorts),
//!    then top-down *context* hashes (the multiset of "where does this node
//!    sit" contributions from its parents, commutative arguments sharing
//!    one slot), and mixes each variable's context into its colour. This is
//!    Weisfeiler–Leman colour refinement: it separates variables whose
//!    subtrees tie but whose surroundings differ, which a single bottom-up
//!    pass cannot, and without which the numbering below would fall back
//!    to argument position, which renaming can permute. It stops once a
//!    round splits no class of variables, or after [`MAX_ROUNDS`] rounds.
//! 2. **Numbering** — variables get canonical indices `v0, v1, …` by first
//!    occurrence in a traversal that visits assertions and commutative
//!    arguments in refined shape order, breaking ties by position.
//! 3. **Renamed hash** — structural hashes of the renamed DAG. They order
//!    commutative arguments and assertions for serialization, which
//!    reconciles ties that pass 2 broke differently.
//! 4. **Serialization** — one row `tag(child,…);` per node in post-order,
//!    children named by row number, then `|` and the assertions' rows:
//!    `(< x 5)` is `v0:Int();i4();<=(0,1);|2`. The table is linear in the
//!    DAG size, where a printed term could be exponential in it. It is the
//!    [`Canonical::key`]; [`Canonical::fingerprint`] is its FNV-1a-128 hash.
//!
//! **Hashing.** Passes 1 and 3 mix whole 128-bit words (a tag hash, a colour
//! or canonical index, child hashes) with a multiply-xorshift step; the
//! children of a commutative node and the contributions to a context
//! combine as an order-free sum of mixed words. These hashes only order
//! nodes. They are not stable across builds, and neither are keys.
//!
//! **Guarantees.** The key spells out the renamed, normalized DAG, so equal
//! keys imply the two scripts are the same constraint up to renaming,
//! argument and assertion order, and the normalizations above: a cache
//! that compares full keys never conflates distinct constraints. The
//! converse does not quite hold. Variables the refinement cannot separate
//! (symmetric ones, or a long chain that would need more than
//! [`MAX_ROUNDS`] rounds) fall back to a positional tie-break, which at
//! worst costs a cache hit, never an answer.
//!
//! Traversals are iterative (explicit stacks), so inputs at the parser's
//! nesting-depth cap do not threaten the thread stack here.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::fmt::Write as _;
use std::hash::BuildHasher;

use staub_numeric::{BigInt, BigRational};

use crate::op::Op;
use crate::script::Script;
use crate::sort::Sort;
use crate::term::{SymbolId, Term, TermId, TermStore};

/// Refinement rounds after which numbering falls back to the positional
/// tie-break. The benchgen corpora stabilise well within it; a chain of
/// `n` variables would otherwise take about `n / 2` rounds.
const MAX_ROUNDS: usize = 16;

/// "No node" in the `u32` index arrays.
const NONE: u32 = u32::MAX;

/// Odd multiplier for [`mix`] (the golden ratio's fractional bits, made
/// odd).
const MUL: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;

/// Context contribution of being asserted.
const ROOT: u128 = mix(0, 1);

/// Domain separator of context hashes.
const CTX: u128 = mix(0, 2);

/// Domain separator of commutative children.
const COMM: u128 = mix(0, 3);

/// Mixes one 128-bit word into a hash: multiply by an odd constant, then
/// fold the high half into the low half.
const fn mix(h: u128, w: u128) -> u128 {
    let x = (h ^ w).wrapping_mul(MUL);
    x ^ (x >> 64)
}

/// Hashes a tag's bytes sixteen at a time.
fn hash_bytes(bytes: &[u8]) -> u128 {
    bytes
        .chunks(16)
        .fold(mix(0, bytes.len() as u128), |h, chunk| {
            let mut word = [0u8; 16];
            word[..chunk.len()].copy_from_slice(chunk);
            mix(h, u128::from_le_bytes(word))
        })
}

/// 128-bit FNV-1a of the key: the fingerprint. Collisions are guarded by
/// full key comparison, so it only needs to be well-distributed.
fn fnv1a(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u128::from(b)).wrapping_mul(PRIME))
}

/// Appends `n` in decimal.
fn push_num(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Whether permuting the operator's arguments preserves meaning.
///
/// `Eq`/`Distinct` are n-ary "all equal" / "pairwise distinct" predicates
/// and `Xor` is an associative-commutative fold, so all three qualify
/// alongside the obvious arithmetic and bitwise cases. `Sub`, divisions,
/// shifts, comparisons, and the rounding-mode-carrying FP operations stay
/// positional.
fn is_commutative(op: &Op) -> bool {
    matches!(
        op,
        Op::And
            | Op::Or
            | Op::Xor
            | Op::Eq
            | Op::Distinct
            | Op::Add
            | Op::Mul
            | Op::BvAdd
            | Op::BvMul
            | Op::BvAnd
            | Op::BvOr
            | Op::BvXor
            | Op::FpEq
    )
}

/// The value of a numeric literal node: borrowed from the store, or
/// computed by folding.
enum Lit<'s> {
    Int(Cow<'s, BigInt>),
    Real(Cow<'s, BigRational>),
}

/// One node of the normalized table.
struct Node {
    /// Byte range of the tag in [`Table::text`]; a variable's tag is `:`
    /// and its sort, and its row prefixes `v` and its canonical index.
    tag: (usize, usize),
    /// Range of the children in [`Table::kids`].
    kids: (usize, usize),
    /// Whether the children commute.
    comm: bool,
    /// The symbol of a variable node.
    var: Option<SymbolId>,
}

/// The normalized node table. Nodes are in post-order, so children always
/// precede their parents.
struct Table<'s> {
    store: &'s TermStore,
    nodes: Vec<Node>,
    tag_hash: Vec<u128>,
    /// Literal value per node, for folding and tightening.
    lit: Vec<Option<Lit<'s>>>,
    /// All tags, back to back.
    text: String,
    /// All children lists, back to back.
    kids: Vec<u32>,
    /// Open-addressed index of the non-variable nodes by content.
    slots: Vec<u32>,
    /// Per-call random key of slot positions, so that input crafted to
    /// collide in [`mix`] cannot pile nodes onto one probe sequence.
    seed: u128,
}

impl<'s> Table<'s> {
    /// Normalizes every term reachable from `roots` in one post-order walk;
    /// returns the table and the roots' nodes.
    fn build(store: &'s TermStore, roots: &[TermId]) -> (Table<'s>, Vec<u32>) {
        // At most one node per term plus one tightened literal per term,
        // so the index stays at most half full.
        let slots = (4 * store.len() + 2).next_power_of_two();
        let mut table = Table {
            store,
            nodes: Vec::new(),
            tag_hash: Vec::new(),
            lit: Vec::new(),
            text: String::new(),
            kids: Vec::new(),
            slots: vec![NONE; slots],
            seed: u128::from(RandomState::new().hash_one(())),
        };
        let mut node_of = vec![NONE; store.len()];
        let mut walk: Vec<(TermId, bool)> = roots.iter().map(|&r| (r, false)).collect();
        while let Some((id, expanded)) = walk.pop() {
            if node_of[id.index()] != NONE {
                continue;
            }
            if expanded {
                node_of[id.index()] = table.add(store.term(id), &node_of);
            } else {
                walk.push((id, true));
                let args = store.term(id).args().iter();
                walk.extend(
                    args.filter(|a| node_of[a.index()] == NONE)
                        .map(|&a| (a, false)),
                );
            }
        }
        let roots = roots.iter().map(|r| node_of[r.index()]).collect();
        (table, roots)
    }

    /// Adds the normalized node of `term`, whose arguments all have nodes.
    fn add(&mut self, term: &'s Term, node_of: &[u32]) -> u32 {
        let kid = |k: usize| node_of[term.args()[k].index()] as usize;
        let folded = match term.op() {
            Op::IntConst(v) => Some(Lit::Int(Cow::Borrowed(v))),
            Op::RealConst(v) => Some(Lit::Real(Cow::Borrowed(v))),
            Op::Neg => match &self.lit[kid(0)] {
                Some(Lit::Int(v)) => Some(Lit::Int(Cow::Owned(-v.as_ref()))),
                Some(Lit::Real(v)) => Some(Lit::Real(Cow::Owned(-v.as_ref()))),
                None => None,
            },
            // Division by zero has no literal value and stays unfolded.
            Op::RealDiv if term.args().len() == 2 => match (&self.lit[kid(0)], &self.lit[kid(1)]) {
                (Some(Lit::Real(a)), Some(Lit::Real(b))) if !b.is_zero() => {
                    Some(Lit::Real(Cow::Owned(a.as_ref() / b.as_ref())))
                }
                _ => None,
            },
            Op::Le | Op::Lt | Op::Ge | Op::Gt => return self.comparison(term, node_of),
            _ => None,
        };
        if let Some(lit) = folded {
            return self.literal(lit);
        }
        let (text0, kids0) = (self.text.len(), self.kids.len());
        let mut var = None;
        match term.op() {
            Op::Var(sym) => {
                var = Some(*sym);
                write!(self.text, ":{}", self.store.symbol_sort(*sym))
            }
            Op::BvConst(v) => write!(self.text, "b{v}"),
            Op::FpConst(v) => write!(self.text, "f{}:{}:{v}", v.eb(), v.sb()),
            Op::RmConst(m) => write!(self.text, "m{m:?}"),
            op => {
                self.text.push_str(&op.smtlib_name());
                Ok(())
            }
        }
        .expect("writing to a String cannot fail");
        self.kids
            .extend(term.args().iter().map(|a| node_of[a.index()]));
        self.intern(text0, kids0, is_commutative(term.op()), var)
    }

    /// Adds a literal leaf (`i-20`, `r321/16`), keeping its value.
    fn literal(&mut self, lit: Lit<'s>) -> u32 {
        let text0 = self.text.len();
        match &lit {
            Lit::Int(v) => write!(self.text, "i{v}"),
            Lit::Real(v) => write!(self.text, "r{v}"),
        }
        .expect("writing to a String cannot fail");
        let node = self.intern(text0, self.kids.len(), false, None);
        self.lit[node as usize].get_or_insert(lit);
        node
    }

    /// Adds a comparison in normalized form: `>=`/`>` flip to `<=`/`<`,
    /// and a binary strict Int comparison with a literal tightens to `<=`
    /// over the bumped literal — `(< t c)` ⇔ `(<= t c-1)` and `(< c t)` ⇔
    /// `(<= c+1 t)` over ℤ (with two literals, the right one moves).
    fn comparison(&mut self, term: &Term, node_of: &[u32]) -> u32 {
        let kids0 = self.kids.len();
        self.kids
            .extend(term.args().iter().map(|a| node_of[a.index()]));
        if matches!(term.op(), Op::Ge | Op::Gt) {
            self.kids[kids0..].reverse();
        }
        let mut strict = matches!(term.op(), Op::Lt | Op::Gt);
        let ints = term.args().iter().all(|&a| self.store.sort(a) == Sort::Int);
        if strict && ints && term.args().len() == 2 {
            let lit = |k: usize| &self.lit[self.kids[kids0 + k] as usize];
            let bumped = match (lit(0), lit(1)) {
                (_, Some(Lit::Int(c))) => Some((1, c.as_ref() - &BigInt::one())),
                (Some(Lit::Int(c)), _) => Some((0, c.as_ref() + &BigInt::one())),
                _ => None,
            };
            if let Some((k, c)) = bumped {
                self.kids[kids0 + k] = self.literal(Lit::Int(Cow::Owned(c)));
                strict = false;
            }
        }
        let text0 = self.text.len();
        self.text.push_str(if strict { "<" } else { "<=" });
        self.intern(text0, kids0, false, None)
    }

    /// Finishes the node with tag `text[text0..]` and children
    /// `kids[kids0..]`: returns the node with the same content if there is
    /// one, else appends it. Variables are never merged (the store holds
    /// one term per symbol).
    fn intern(&mut self, text0: usize, kids0: usize, comm: bool, var: Option<SymbolId>) -> u32 {
        if comm {
            self.kids[kids0..].sort_unstable();
        }
        let tag_hash = hash_bytes(&self.text.as_bytes()[text0..]);
        let mask = self.slots.len() - 1;
        let content = self.kids[kids0..]
            .iter()
            .fold(tag_hash, |h, &k| mix(h, u128::from(k)));
        let mut slot = mix(content, self.seed) as usize & mask;
        while var.is_none() && self.slots[slot] != NONE {
            let other = self.slots[slot] as usize;
            let node = &self.nodes[other];
            if self.tag_hash[other] == tag_hash
                && self.text[node.tag.0..node.tag.1] == self.text[text0..]
                && self.kids[node.kids.0..node.kids.1] == self.kids[kids0..]
            {
                self.text.truncate(text0);
                self.kids.truncate(kids0);
                return other as u32;
            }
            slot = (slot + 1) & mask;
        }
        let id = u32::try_from(self.nodes.len()).expect("node count fits u32");
        if var.is_none() {
            self.slots[slot] = id;
        }
        self.nodes.push(Node {
            tag: (text0, self.text.len()),
            kids: (kids0, self.kids.len()),
            comm,
            var,
        });
        self.tag_hash.push(tag_hash);
        self.lit.push(None);
        id
    }

    /// Hashes every node bottom-up from its tag hash and its children's
    /// hashes; `var_word(i)` is the extra word of variable node `i`.
    fn hash_up(&self, out: &mut [u128], var_word: impl Fn(usize) -> u128) {
        for (i, node) in self.nodes.iter().enumerate() {
            let kids = &self.kids[node.kids.0..node.kids.1];
            let h = if node.var.is_some() {
                mix(self.tag_hash[i], var_word(i))
            } else if node.comm {
                let sum = kids
                    .iter()
                    .fold(0u128, |s, &k| s.wrapping_add(mix(COMM, out[k as usize])));
                mix(mix(self.tag_hash[i], kids.len() as u128), sum)
            } else {
                kids.iter()
                    .fold(self.tag_hash[i], |h, &k| mix(h, out[k as usize]))
            };
            out[i] = h;
        }
    }
}

/// A script's canonical form: a stable fingerprint, the full canonical key
/// it abbreviates, and the symbol numbering needed to translate models
/// between α-equivalent scripts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonical {
    /// 128-bit hash of [`Canonical::key`] — the cache index.
    pub fingerprint: u128,
    /// Serialised canonical DAG. Equal keys ⇒ the scripts are equivalent
    /// up to symbol renaming, commutative-argument order, and assertion
    /// order; compare keys on fingerprint collision before trusting a
    /// cached answer. Keys are only comparable between scripts
    /// canonicalized by the same build.
    pub key: String,
    /// `vars[k]` is the symbol this script binds to canonical index `k`.
    vars: Vec<SymbolId>,
}

impl Canonical {
    /// The symbols in canonical order: `vars()[k]` is this script's name
    /// for canonical variable `k`.
    pub fn vars(&self) -> &[SymbolId] {
        &self.vars
    }

    /// The canonical index of a symbol, if it occurs in the assertions.
    pub fn var_index(&self, sym: SymbolId) -> Option<usize> {
        self.vars.iter().position(|&s| s == sym)
    }

    /// The fingerprint as fixed-width hex (for logs and JSON).
    pub fn fingerprint_hex(&self) -> String {
        format!("{:032x}", self.fingerprint)
    }
}

/// Computes the canonical form of a script's assertion set.
///
/// Declarations that no assertion mentions do not contribute: they cannot
/// affect the verdict, and ignoring them widens the cache's reach.
pub fn canonicalize(script: &Script) -> Canonical {
    canonical_form(script).0
}

/// [`canonicalize`], plus the number of refinement rounds it ran.
fn canonical_form(script: &Script) -> (Canonical, usize) {
    let (mut table, mut roots) = Table::build(script.store(), script.assertions());
    // Hash-consing made node identity content identity, so this drops
    // exactly the assertions whose rows would repeat.
    roots.sort_unstable();
    roots.dedup();
    let n = table.nodes.len();

    // Pass 1: colour refinement. Mixing the old colour into the new one
    // makes every round refine the variable partition, so a round that
    // does not add a class has reached the fixpoint.
    let mut colour = vec![0u128; n];
    let mut shape = vec![0u128; n];
    let mut ctx_sum = vec![0u128; n];
    let mut classes: Vec<u128> = Vec::new();
    let mut count_classes = |colour: &[u128]| {
        classes.clear();
        classes.extend(
            table
                .nodes
                .iter()
                .zip(colour)
                .filter(|(node, _)| node.var.is_some())
                .map(|(_, &c)| c),
        );
        classes.sort_unstable();
        classes.dedup();
        classes.len()
    };
    let mut class_count = count_classes(&colour);
    let mut rounds = 0;
    while rounds < MAX_ROUNDS {
        rounds += 1;
        table.hash_up(&mut shape, |i| colour[i]);
        ctx_sum.fill(0);
        for &r in &roots {
            ctx_sum[r as usize] = ctx_sum[r as usize].wrapping_add(ROOT);
        }
        for (i, node) in table.nodes.iter().enumerate().rev() {
            let ctx = mix(CTX, ctx_sum[i]);
            if node.var.is_some() {
                colour[i] = mix(colour[i], ctx);
            }
            let base = mix(ctx, shape[i]);
            for (slot, &k) in table.kids[node.kids.0..node.kids.1].iter().enumerate() {
                let at = if node.comm { COMM } else { slot as u128 };
                ctx_sum[k as usize] = ctx_sum[k as usize].wrapping_add(mix(base, at));
            }
        }
        let next = count_classes(&colour);
        if next == class_count {
            break;
        }
        class_count = next;
    }

    // Pass 2: number the variables by first occurrence, visiting roots and
    // commutative children in (shape, node) order. Sorting a commutative
    // node's children in place is safe: every later pass either ignores
    // their order or sorts them again.
    roots.sort_unstable_by_key(|&r| (shape[r as usize], r));
    let mut num = vec![NONE; n];
    let mut seen = vec![false; n];
    let mut vars = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    for &root in &roots {
        stack.push(root);
        while let Some(i) = stack.pop() {
            let i = i as usize;
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            let node = &table.nodes[i];
            if let Some(sym) = node.var {
                num[i] = u32::try_from(vars.len()).expect("variable count fits u32");
                vars.push(sym);
            }
            let kids = &mut table.kids[node.kids.0..node.kids.1];
            if node.comm {
                kids.sort_unstable_by_key(|&k| (shape[k as usize], k));
            }
            stack.extend(kids.iter().rev());
        }
    }

    // Pass 3: hashes of the renamed DAG, into the shape buffer.
    table.hash_up(&mut shape, |i| u128::from(num[i]));
    let chash = shape;

    // Pass 4: serialize, one row per node in post-order.
    roots.sort_unstable_by_key(|&r| (chash[r as usize], r));
    let mut row = vec![NONE; n];
    let mut rows = 0u32;
    let mut key = String::with_capacity(table.text.len() + 8 * n);
    let mut walk: Vec<(u32, bool)> = Vec::new();
    for &root in &roots {
        walk.push((root, false));
        while let Some((i, expanded)) = walk.pop() {
            let iu = i as usize;
            if row[iu] != NONE {
                continue;
            }
            let node = &table.nodes[iu];
            let kids = &mut table.kids[node.kids.0..node.kids.1];
            if !expanded {
                if node.comm {
                    kids.sort_unstable_by_key(|&k| (chash[k as usize], k));
                }
                walk.push((i, true));
                walk.extend(kids.iter().rev().map(|&k| (k, false)));
                continue;
            }
            if node.var.is_some() {
                key.push('v');
                push_num(&mut key, num[iu]);
            }
            key.push_str(&table.text[node.tag.0..node.tag.1]);
            key.push('(');
            for (j, &k) in kids.iter().enumerate() {
                if j > 0 {
                    key.push(',');
                }
                push_num(&mut key, row[k as usize]);
            }
            key.push_str(");");
            row[iu] = rows;
            rows += 1;
        }
    }
    key.push('|');
    for (j, &r) in roots.iter().enumerate() {
        if j > 0 {
            key.push(',');
        }
        push_num(&mut key, row[r as usize]);
    }

    let canonical = Canonical {
        fingerprint: fnv1a(key.as_bytes()),
        key,
        vars,
    };
    (canonical, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(src: &str) -> Canonical {
        canonicalize(&Script::parse(src).unwrap())
    }

    #[test]
    fn identical_scripts_agree() {
        let a = canon("(declare-fun x () Int)(assert (= (* x x) 49))");
        let b = canon("(declare-fun x () Int)(assert (= (* x x) 49))");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn commutative_reordering_is_invisible() {
        let a = canon("(declare-fun x () Int)(declare-fun y () Int)(assert (= (+ x y 3) 10))");
        let b = canon("(declare-fun x () Int)(declare-fun y () Int)(assert (= 10 (+ 3 y x)))");
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn alpha_renaming_is_invisible() {
        let a = canon(
            "(declare-fun x () Int)(declare-fun y () Int)\
             (assert (> x 0))(assert (< y x))",
        );
        let b = canon(
            "(declare-fun top () Int)(declare-fun low () Int)\
             (assert (> top 0))(assert (< low top))",
        );
        assert_eq!(a.key, b.key);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn assertion_order_is_invisible() {
        let a = canon("(declare-fun x () Int)(assert (> x 0))(assert (< x 9))");
        let b = canon("(declare-fun x () Int)(assert (< x 9))(assert (> x 0))");
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn distinct_constraints_differ() {
        let a = canon("(declare-fun x () Int)(assert (= (* x x) 49))");
        let b = canon("(declare-fun x () Int)(assert (= (* x x) 50))");
        assert_ne!(a.key, b.key);
        // Non-commutative argument order matters.
        let c = canon("(declare-fun x () Int)(assert (< x 9))");
        let d = canon("(declare-fun x () Int)(assert (< 9 x))");
        assert_ne!(c.key, d.key);
    }

    #[test]
    fn var_numbering_translates_models() {
        let a = canon("(declare-fun p () Int)(declare-fun q () Int)(assert (< p q))");
        let b = canon("(declare-fun u () Int)(declare-fun w () Int)(assert (< u w))");
        assert_eq!(a.key, b.key);
        assert_eq!(a.vars().len(), 2);
        // Same canonical index on both sides names the corresponding
        // symbol: a model translated index-wise stays meaningful.
        let sa =
            Script::parse("(declare-fun p () Int)(declare-fun q () Int)(assert (< p q))").unwrap();
        let names_a: Vec<&str> = a
            .vars()
            .iter()
            .map(|&s| sa.store().symbol_name(s))
            .collect();
        assert_eq!(names_a.len(), 2);
        assert_ne!(names_a[0], names_a[1]);
    }

    #[test]
    fn context_distinguishes_tied_variables() {
        // `x` and `y` have identical subtree shapes (both bare Int
        // variables under a commutative `+`), but only one of them is
        // additionally bounded below zero — the refinement must separate
        // them by context so renaming plus argument reversal cannot
        // permute the canonical numbering.
        let a = canon(
            "(declare-fun x () Int)(declare-fun y () Int)\
             (assert (= (+ x y) 0))(assert (< x 0))",
        );
        let b = canon(
            "(declare-fun q () Int)(declare-fun p () Int)\
             (assert (= (+ q p) 0))(assert (< p 0))",
        );
        assert_eq!(a.key, b.key);
        // Swapping which addend carries the bound is the same constraint
        // up to renaming `x ↔ y`.
        let c = canon(
            "(declare-fun x () Int)(declare-fun y () Int)\
             (assert (= (+ x y) 0))(assert (< y 0))",
        );
        assert_eq!(a.key, c.key);
    }

    #[test]
    fn unused_declarations_do_not_contribute() {
        let a = canon("(declare-fun x () Int)(assert (> x 0))");
        let b = canon("(declare-fun x () Int)(declare-fun ghost () Real)(assert (> x 0))");
        assert_eq!(a.key, b.key);
    }

    #[test]
    fn shared_subterms_serialise_once() {
        // (x*x) appears twice in the DAG but once in the table.
        let c = canon("(declare-fun x () Int)(assert (= (+ (* x x) (* x x)) 8))");
        assert_eq!(c.key.matches("*(").count(), 1);
    }

    #[test]
    fn comparison_direction_is_invisible() {
        // `(>= c t)` is the same constraint as `(<= t c)`; both spell the
        // difference-logic edge `x - y <= 3`.
        let a = canon(
            "(declare-fun x () Int)(declare-fun y () Int)\
             (assert (<= (- x y) 3))",
        );
        let b = canon(
            "(declare-fun x () Int)(declare-fun y () Int)\
             (assert (>= 3 (- x y)))",
        );
        assert_eq!(a.key, b.key);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn strict_int_comparisons_tighten_to_nonstrict() {
        // Over Int, `(< x 5)` is `(<= x 4)` — one cache entry, not two.
        let a = canon("(declare-fun x () Int)(assert (< x 5))");
        let b = canon("(declare-fun x () Int)(assert (<= x 4))");
        assert_eq!(a.key, b.key);
        // And on the other side: `(< 4 x)` is `(<= 5 x)`.
        let c = canon("(declare-fun x () Int)(assert (< 4 x))");
        let d = canon("(declare-fun x () Int)(assert (<= 5 x))");
        assert_eq!(c.key, d.key);
        // `(> x 4)` flips to `(< 4 x)` and then tightens the same way.
        let e = canon("(declare-fun x () Int)(assert (> x 4))");
        assert_eq!(c.key, e.key);
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn real_strictness_is_preserved() {
        // No integrality to exploit over Real: strict stays strict.
        let a = canon("(declare-fun r () Real)(assert (< r 1.0))");
        let b = canon("(declare-fun r () Real)(assert (<= r 1.0))");
        let c = canon("(declare-fun r () Real)(assert (<= r 0.0))");
        assert_ne!(a.key, b.key);
        assert_ne!(a.key, c.key);
    }

    #[test]
    fn repeated_assertions_share_one_root() {
        let decls = "(declare-fun x () Int)(declare-fun y () Int)";
        let once = canon(&format!("{decls}(assert (= (+ x (* 2 y)) 7))"));
        // The same assertion again, arguments reversed, then the whole
        // script renamed: still one root, and the same key.
        let twice = canon(&format!(
            "{decls}(assert (= (+ x (* 2 y)) 7))(assert (= 7 (+ (* 2 y) x)))"
        ));
        let renamed = canon(
            "(declare-fun p () Int)(declare-fun q () Int)\
             (assert (= 7 (+ (* 2 q) p)))(assert (= (+ p (* 2 q)) 7))",
        );
        assert_eq!(once.key, twice.key);
        assert_eq!(once.key, renamed.key);
        assert_eq!(once.fingerprint, renamed.fingerprint);
        let roots = |c: &Canonical| c.key.rsplit('|').next().unwrap().split(',').count();
        assert_eq!(roots(&twice), 1);
        // Distinct assertions keep distinct root entries.
        let distinct = canon(&format!(
            "{decls}(assert (= (+ x (* 2 y)) 7))(assert (= (+ y (* 2 x)) 7))"
        ));
        assert_eq!(roots(&distinct), 2);
        assert_ne!(once.key, distinct.key);
    }

    #[test]
    fn literal_spellings_share_one_row() {
        // `(< x 5)` tightens to a literal 4 that also occurs directly.
        let c =
            canon("(declare-fun x () Int)(declare-fun y () Int)(assert (< x 5))(assert (= y 4))");
        assert_eq!(c.key.matches("i4()").count(), 1);
        // A folded `(- 20)` and a builder's literal -20 side by side.
        let mut script = Script::new();
        let x = script.declare("x", Sort::Int).unwrap();
        let store = script.store_mut();
        let xv = store.var(x);
        let direct = store.int_i64(-20);
        let twenty = store.int_i64(20);
        let folded = store.app(Op::Neg, &[twenty]).unwrap();
        let a = store.le(xv, direct).unwrap();
        let b = store.le(folded, xv).unwrap();
        script.assert(a);
        script.assert(b);
        let c = canonicalize(&script);
        assert_eq!(c.key.matches("i-20()").count(), 1, "{}", c.key);
        assert!(!c.key.contains("i20()"), "{}", c.key);
    }

    #[test]
    fn refinement_stops_at_the_round_cap() {
        // A `<` chain of 2,000 variables: each round separates one more
        // link from either end, so without the cap refinement would run
        // about a thousand rounds.
        let n = 2000;
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("(declare-fun x{i} () Int)"));
        }
        for i in 1..n {
            src.push_str(&format!("(assert (< x{} x{i}))", i - 1));
        }
        let (c, rounds) = canonical_form(&Script::parse(&src).unwrap());
        assert_eq!(rounds, MAX_ROUNDS);
        assert_eq!(c.vars().len(), n);
        // A small constraint reaches its fixpoint well before the cap.
        let small = "(declare-fun x () Int)(declare-fun y () Int)\
                     (assert (= (+ x y) 0))(assert (< x 0))";
        let (_, rounds) = canonical_form(&Script::parse(small).unwrap());
        assert!(rounds < MAX_ROUNDS, "{rounds} rounds");
    }

    #[test]
    fn deep_nesting_does_not_recurse() {
        // A 1500-deep left nest canonicalises without stack overflow.
        let mut src = String::from("(declare-fun x () Int)(assert (< ");
        src.push_str(&"(+ 1 ".repeat(1500));
        src.push('x');
        src.push_str(&")".repeat(1500));
        src.push_str(" 10))");
        let c = canon(&src);
        assert!(!c.key.is_empty());
    }
}
