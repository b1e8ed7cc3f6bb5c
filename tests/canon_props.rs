//! Property tests for constraint canonicalization (the `staub serve`
//! answer-cache key): the canonical fingerprint and key must be invariant
//! under consistent symbol renaming, commutative argument reordering,
//! assertion reordering, and the spellings canonicalization normalizes
//! (flipped comparisons, strict Int comparisons tightened against a
//! literal, composite literal spellings) — and must *change* whenever the
//! constraint actually changes (probed by perturbing a constant). A
//! full-key comparison guards the one remaining failure mode (a 128-bit
//! hash collision), so key equality, not just fingerprint equality, is the
//! property checked here.

use proptest::collection::vec;
use proptest::prelude::*;
use staub::smtlib::{canonicalize, Canonical, Script};

/// A tiny arithmetic expression AST, rendered to SMT-LIB text over Int or
/// over Real, in an original spelling and in equivalent respellings.
#[derive(Clone, Debug)]
enum Expr {
    /// One of [`VARS`] variables of the rendering sort, by index.
    Var(u8),
    /// A literal: the integer `n` over Int, `n / DENOMS[d]` over Real.
    Const(i8, u8),
    /// n-ary commutative `+`.
    Add(Vec<Expr>),
    /// n-ary commutative `*`.
    Mul(Vec<Expr>),
    /// Binary non-commutative `-`.
    Sub(Box<Expr>, Box<Expr>),
    /// One of the script's shared subterms, by index. It renders the same
    /// wherever it occurs, so the parser shares one term between
    /// assertions, and within one when it occurs twice.
    Shared(u8),
}

const VARS: usize = 5;

/// Real literal denominators: each gives a terminating decimal.
const DENOMS: [i64; 4] = [1, 2, 4, 5];

fn expr_strategy(shared: bool) -> BoxedStrategy<Expr> {
    let leaf = if shared {
        prop_oneof![
            (0..VARS as u8).prop_map(Expr::Var),
            (any::<i8>(), 0..4u8).prop_map(|(n, d)| Expr::Const(n, d)),
            (0..2u8).prop_map(Expr::Shared),
        ]
        .boxed()
    } else {
        prop_oneof![
            (0..VARS as u8).prop_map(Expr::Var),
            (any::<i8>(), 0..4u8).prop_map(|(n, d)| Expr::Const(n, d)),
        ]
        .boxed()
    };
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            vec(inner.clone(), 2..4).prop_map(Expr::Add),
            vec(inner.clone(), 2..4).prop_map(Expr::Mul),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
        ]
    })
}

/// One comparison between two expressions. `Eq` is commutative (sides may
/// swap); the orderings are not, but each has a mirrored spelling.
#[derive(Clone, Copy, Debug)]
enum Cmp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One assertion: over Real when the flag is set, else over Int.
type Atom = (bool, Expr, Cmp, Expr);

/// A generated constraint: the shared subterms and the assertions.
#[derive(Clone, Debug)]
struct Case {
    shared: Vec<Expr>,
    atoms: Vec<Atom>,
}

/// Which equivalences a rendering applies.
#[derive(Clone, Copy, Debug, Default)]
struct Spelling {
    /// Give every variable a fresh, unrelated name.
    rename: bool,
    /// Reverse every commutative argument list, `=` included.
    reverse: bool,
    /// Spell comparisons the other way round (`(< a b)` as `(> b a)`), and
    /// tighten a strict Int comparison with a literal (`(< x 5)` as
    /// `(<= x 4)`, `(< 4 x)` as `(<= 5 x)`).
    mirror: bool,
    /// Spell Real literals as decimals (`0.75`) instead of fractions
    /// (`(/ 3.0 4.0)`).
    decimals: bool,
    /// Rotate the assertion list left by this much.
    rotate: usize,
}

fn name(real: bool, i: u8, sp: &Spelling) -> String {
    match (real, sp.rename) {
        (false, false) => format!("a{i}"),
        (true, false) => format!("b{i}"),
        (false, true) => format!("zz{}", VARS - usize::from(i)),
        (true, true) => format!("yy{}", VARS - usize::from(i)),
    }
}

fn literal(real: bool, n: i64, d: u8, sp: &Spelling) -> String {
    let body = match (real, sp.decimals) {
        (false, _) => n.abs().to_string(),
        (true, false) if DENOMS[d as usize] == 1 => format!("{}.0", n.abs()),
        (true, false) => format!("(/ {}.0 {}.0)", n.abs(), DENOMS[d as usize]),
        (true, true) => {
            let hundredths = n.abs() * (100 / DENOMS[d as usize]);
            format!("{}.{:02}", hundredths / 100, hundredths % 100)
        }
    };
    if n < 0 {
        format!("(- {body})")
    } else {
        body
    }
}

fn render(expr: &Expr, case: &Case, real: bool, sp: &Spelling) -> String {
    match expr {
        Expr::Var(i) => name(real, *i, sp),
        Expr::Const(n, d) => literal(real, i64::from(*n), *d, sp),
        Expr::Add(args) | Expr::Mul(args) => {
            let op = if matches!(expr, Expr::Add(_)) {
                "+"
            } else {
                "*"
            };
            let mut parts: Vec<String> = args.iter().map(|a| render(a, case, real, sp)).collect();
            if sp.reverse {
                parts.reverse();
            }
            format!("({op} {})", parts.join(" "))
        }
        Expr::Sub(a, b) => format!(
            "(- {} {})",
            render(a, case, real, sp),
            render(b, case, real, sp)
        ),
        Expr::Shared(k) => render(&case.shared[usize::from(*k)], case, real, sp),
    }
}

/// The integer an Int-sorted expression denotes when it is a literal.
fn int_const(expr: &Expr, case: &Case) -> Option<i64> {
    match expr {
        Expr::Const(n, _) => Some(i64::from(*n)),
        Expr::Shared(k) => int_const(&case.shared[usize::from(*k)], case),
        _ => None,
    }
}

fn render_atom(atom: &Atom, case: &Case, sp: &Spelling) -> String {
    let (real, lhs, cmp, rhs) = atom;
    let (a, b) = (render(lhs, case, *real, sp), render(rhs, case, *real, sp));
    if !sp.mirror {
        let op = match cmp {
            Cmp::Eq if sp.reverse => return format!("(= {b} {a})"),
            Cmp::Eq => "=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        };
        return format!("({op} {a} {b})");
    }
    // `(> a b)` is `(< b a)`: mirror the strict orderings to one form,
    // `(< s t)` with `small` and `big` the expressions spelled `s` and `t`.
    let (small, big, s, t) = match cmp {
        Cmp::Eq if sp.reverse => return format!("(= {b} {a})"),
        Cmp::Eq => return format!("(= {a} {b})"),
        Cmp::Le => return format!("(>= {b} {a})"),
        Cmp::Ge => return format!("(<= {b} {a})"),
        Cmp::Lt => (lhs, rhs, a, b),
        Cmp::Gt => (rhs, lhs, b, a),
    };
    if !real {
        // `(< s c)` is `(<= s c-1)`; with a literal only on the left,
        // `(< c t)` is `(<= c+1 t)`.
        if let Some(c) = int_const(big, case) {
            return format!("(<= {s} {})", literal(false, c - 1, 0, sp));
        }
        if let Some(c) = int_const(small, case) {
            return format!("(<= {} {t})", literal(false, c + 1, 0, sp));
        }
    }
    if matches!(cmp, Cmp::Lt) {
        format!("(> {t} {s})")
    } else {
        format!("(< {s} {t})")
    }
}

/// Builds a full script: declarations for every variable of both sorts
/// (used or not), then the assertions rotated by `sp.rotate`, then
/// `(check-sat)`.
fn script_text(case: &Case, sp: &Spelling) -> String {
    let mut out = String::new();
    for i in 0..VARS as u8 {
        out.push_str(&format!("(declare-fun {} () Int)", name(false, i, sp)));
        out.push_str(&format!("(declare-fun {} () Real)", name(true, i, sp)));
    }
    let n = case.atoms.len();
    for k in 0..n {
        let atom = &case.atoms[(k + sp.rotate) % n];
        out.push_str(&format!("(assert {})", render_atom(atom, case, sp)));
    }
    out.push_str("(check-sat)");
    out
}

fn canon_of(text: &str) -> Canonical {
    let script = Script::parse(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    canonicalize(&script)
}

fn cmp_strategy() -> BoxedStrategy<Cmp> {
    prop_oneof![
        Just(Cmp::Eq),
        Just(Cmp::Lt),
        Just(Cmp::Le),
        Just(Cmp::Gt),
        Just(Cmp::Ge),
    ]
    .boxed()
}

/// A comparison side: often a bare literal, so that tightening applies.
fn side_strategy() -> BoxedStrategy<Expr> {
    prop_oneof![
        expr_strategy(true),
        (any::<i8>(), 0..4u8).prop_map(|(n, d)| Expr::Const(n, d)),
    ]
    .boxed()
}

fn case_strategy() -> BoxedStrategy<Case> {
    (
        vec(expr_strategy(false), 2..3),
        vec(
            (
                any::<bool>(),
                side_strategy(),
                cmp_strategy(),
                side_strategy(),
            ),
            1..5,
        ),
    )
        .prop_map(|(shared, atoms)| Case { shared, atoms })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every equivalence at once — renaming every symbol, reversing every
    /// commutative argument list, mirroring and tightening comparisons,
    /// respelling Real literals, and rotating the assertion order — must
    /// not change the fingerprint or the full canonical key.
    #[test]
    fn canonical_key_invariant_under_equivalence(case in case_strategy(), rotate in 0usize..4) {
        let a = canon_of(&script_text(&case, &Spelling::default()));
        let all = Spelling { rename: true, reverse: true, mirror: true, decimals: true, rotate };
        let b = canon_of(&script_text(&case, &all));
        prop_assert_eq!(a.fingerprint, b.fingerprint);
        prop_assert_eq!(&a.key, &b.key);
        prop_assert_eq!(a.fingerprint_hex(), b.fingerprint_hex());
    }

    /// Each equivalence applied alone must also be invisible (the combined
    /// test above could in principle pass by two bugs cancelling out).
    #[test]
    fn each_equivalence_alone_is_invisible(case in case_strategy()) {
        let base = canon_of(&script_text(&case, &Spelling::default()));
        for sp in [
            Spelling { rename: true, ..Spelling::default() },
            Spelling { reverse: true, ..Spelling::default() },
            Spelling { mirror: true, ..Spelling::default() },
            Spelling { decimals: true, ..Spelling::default() },
            Spelling { rotate: 1, ..Spelling::default() },
        ] {
            let other = canon_of(&script_text(&case, &sp));
            prop_assert_eq!(&base.key, &other.key, "{:?}", sp);
        }
    }

    /// Perturbing the constraint (strengthening it with one extra bound on
    /// one variable) must change the canonical key: distinct constraints
    /// may only ever collide by *fingerprint* accident, and the full key —
    /// what the cache compares on hit — must still tell them apart.
    #[test]
    fn distinct_constraints_get_distinct_keys(
        case in case_strategy(),
        var in 0..VARS as u8,
        bound in 0i64..1000,
    ) {
        let sp = Spelling::default();
        let base_text = script_text(&case, &sp);
        let a = canon_of(&base_text);

        let extra = format!("(assert (< {} {bound}))(check-sat)", name(false, var, &sp));
        let b = canon_of(&base_text.replace("(check-sat)", &extra));
        prop_assert_ne!(&a.key, &b.key);
    }

    /// Swapping the operands of a *non*-commutative comparison is a
    /// different constraint and must produce a different key. Every
    /// variable is anchored by an assertion with its own distinct constant
    /// so no renaming can permute them — without the anchors, `(< a1 a3)`
    /// swapped would be α-equivalent to itself and *should* share a key.
    /// Operand pairs that are equal modulo commutative reordering (probed
    /// by canonicalizing each side on its own) are skipped for the same
    /// reason.
    #[test]
    fn non_commutative_swap_changes_the_key(lhs in expr_strategy(false), rhs in expr_strategy(false)) {
        let case = Case { shared: Vec::new(), atoms: Vec::new() };
        let sp = Spelling::default();
        let l = render(&lhs, &case, false, &sp);
        let r = render(&rhs, &case, false, &sp);
        let mut decls = String::new();
        for i in 0..VARS as u8 {
            let n = name(false, i, &sp);
            decls.push_str(&format!("(declare-fun {n} () Int)"));
            decls.push_str(&format!("(assert (< {n} {}))", 1000 + u32::from(i)));
        }
        let cl = canon_of(&format!("{decls}(assert (= {l} 424242))(check-sat)"));
        let cr = canon_of(&format!("{decls}(assert (= {r} 424242))(check-sat)"));
        prop_assume!(cl.key != cr.key);
        let a = canon_of(&format!("{decls}(assert (< {l} {r}))(check-sat)"));
        let b = canon_of(&format!("{decls}(assert (< {r} {l}))(check-sat)"));
        prop_assert_ne!(&a.key, &b.key);
    }
}

/// The benchgen corpora round-trip through printing: the canonical key of
/// a generated script equals the canonical key of its re-parsed printout
/// (printing/parsing must not disturb canonicalization), and distinct
/// instances within a suite get distinct keys.
#[test]
fn benchgen_corpora_canonicalize_stably() {
    use staub::benchgen::{generate, SuiteKind};
    use std::collections::HashMap;

    for kind in SuiteKind::all() {
        let mut seen: HashMap<String, (String, String)> = HashMap::new();
        for b in generate(kind, 16, 0xCA11) {
            let text = b.script.to_string();
            let direct = canonicalize(&b.script);
            let reparsed = canon_of(&text);
            assert_eq!(
                direct.key, reparsed.key,
                "{}: print/parse round trip disturbed the canonical key",
                b.name
            );
            // The generator occasionally emits the same script twice;
            // those duplicates *must* share a key. Only a collision
            // between textually distinct scripts is a bug.
            if let Some((previous, prev_text)) =
                seen.insert(direct.key.clone(), (b.name.clone(), text.clone()))
            {
                assert_eq!(
                    prev_text, text,
                    "{}: canonical key collides with distinct script {previous}",
                    b.name
                );
            }
        }
    }
}

/// An S-expression of printed SMT-LIB text.
enum Sexp {
    Atom(String),
    List(Vec<Sexp>),
}

fn parse_sexps(text: &str) -> Vec<Sexp> {
    let mut stack: Vec<Vec<Sexp>> = vec![Vec::new()];
    let mut atom = String::new();
    for c in text.chars() {
        if c == '(' || c == ')' || c.is_whitespace() {
            if !atom.is_empty() {
                let done = std::mem::take(&mut atom);
                stack.last_mut().unwrap().push(Sexp::Atom(done));
            }
            if c == '(' {
                stack.push(Vec::new());
            } else if c == ')' {
                let list = stack.pop().unwrap();
                stack.last_mut().unwrap().push(Sexp::List(list));
            }
        } else {
            atom.push(c);
        }
    }
    assert_eq!(stack.len(), 1, "unbalanced parentheses");
    stack.pop().unwrap()
}

fn print_sexp(sexp: &Sexp, out: &mut String) {
    match sexp {
        Sexp::Atom(a) => out.push_str(a),
        Sexp::List(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                print_sexp(item, out);
            }
            out.push(')');
        }
    }
}

/// Renames every declared symbol and reverses every commutative argument
/// list, in place.
fn respell_sexp(sexp: &mut Sexp, names: &std::collections::HashSet<String>) {
    match sexp {
        Sexp::Atom(a) => {
            if names.contains(a.as_str()) {
                *a = format!("renamed_{a}");
            }
        }
        Sexp::List(items) => {
            let commutative = matches!(
                items.first(),
                Some(Sexp::Atom(h)) if ["+", "*", "=", "and", "or", "xor", "distinct"].contains(&h.as_str())
            );
            if commutative {
                items[1..].reverse();
            }
            for item in items {
                respell_sexp(item, names);
            }
        }
    }
}

/// `text` renamed, with commutative arguments reversed and the assertions
/// rotated left by one.
fn respell(text: &str) -> String {
    let mut commands = parse_sexps(text);
    let head = |s: &Sexp| match s {
        Sexp::List(items) => match items.first() {
            Some(Sexp::Atom(h)) => h.clone(),
            _ => String::new(),
        },
        Sexp::Atom(_) => String::new(),
    };
    let names = commands
        .iter()
        .filter(|c| head(c) == "declare-fun" || head(c) == "declare-const")
        .filter_map(|c| match c {
            Sexp::List(items) => match &items[1] {
                Sexp::Atom(name) => Some(name.clone()),
                Sexp::List(_) => None,
            },
            Sexp::Atom(_) => None,
        })
        .collect();
    for c in &mut commands {
        respell_sexp(c, &names);
    }
    let asserts: Vec<usize> = (0..commands.len())
        .filter(|&i| head(&commands[i]) == "assert")
        .collect();
    let mut order: Vec<usize> = (0..commands.len()).collect();
    for (k, &slot) in asserts.iter().enumerate() {
        order[slot] = asserts[(k + 1) % asserts.len()];
    }
    let mut out = String::new();
    for i in order {
        print_sexp(&commands[i], &mut out);
        out.push('\n');
    }
    out
}

/// `text` with the first numeral of the first assertion that has one
/// increased by one (`77` to `78`, `3.0` to `4.0`).
fn perturb(text: &str) -> Option<String> {
    let start = text.find("(assert ")?;
    let bytes = text.as_bytes();
    let at = (start..text.len())
        .find(|&i| bytes[i].is_ascii_digit() && matches!(bytes[i - 1], b' ' | b'('))?;
    let end = (at..text.len())
        .find(|&i| !bytes[i].is_ascii_digit())
        .unwrap_or(text.len());
    let value: u64 = text[at..end].parse().ok()?;
    Some(format!("{}{}{}", &text[..at], value + 1, &text[end..]))
}

/// Every benchgen family keeps its key and fingerprint under renaming,
/// commutative argument reversal and assertion rotation, and changes its
/// key when one constant changes.
#[test]
fn benchgen_families_canonicalize_invariantly() {
    use staub::benchgen::{
        generate, generate_dl, generate_linear, generate_skewed, Benchmark, SuiteKind,
    };

    let seed = 0x1D3A;
    let families: Vec<(&str, Vec<Benchmark>)> = vec![
        ("LIA", generate(SuiteKind::QfLia, 24, seed)),
        ("LRA", generate(SuiteKind::QfLra, 24, seed)),
        ("DL", generate_dl(24, seed)),
        ("linear", generate_linear(24, seed, 64)),
        ("NIA", generate(SuiteKind::QfNia, 24, seed)),
        ("NRA", generate(SuiteKind::QfNra, 24, seed)),
        ("skewed", generate_skewed(24, seed)),
    ];
    for (family, benchmarks) in families {
        for b in benchmarks {
            let text = b.script.to_string();
            let original = canon_of(&text);
            let spelled = respell(&text);
            assert_ne!(
                spelled, text,
                "{family} {}: respelling changed nothing",
                b.name
            );
            let respelled = canon_of(&spelled);
            assert_eq!(
                original.key, respelled.key,
                "{family} {}: respelling changed the key\n{text}\n{spelled}",
                b.name
            );
            assert_eq!(original.fingerprint, respelled.fingerprint);
            let changed = perturb(&text).expect("every family has a numeral");
            assert_ne!(
                original.key,
                canon_of(&changed).key,
                "{family} {}: a changed constant kept the key\n{changed}",
                b.name
            );
        }
    }
}
