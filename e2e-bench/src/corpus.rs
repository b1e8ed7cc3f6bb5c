//! Workload inputs. Every constraint is benchgen output printed to SMT-LIB
//! text and parsed back before use, so the in-process and serve paths see
//! the bytes a user would submit — never the generator's in-memory script,
//! whose term store can make the solver behave very differently.

use std::collections::HashSet;

use staub_benchgen::{
    generate, generate_dl, generate_linear, generate_skewed, Benchmark, SuiteKind,
};
use staub_smtlib::{canonicalize, Command, Script};

/// Coefficient magnitude of the linear family in the fragment corpora.
const LINEAR_COEFF: i64 = 64;

/// XORed into the seed for the `serve-unique` stream, so its constraints
/// differ from the `fragments` and `serve-repeat` ones under the same seed.
const UNIQUE_STREAM: u64 = 0x756e_6971_7565;

/// One constraint as submitted.
#[derive(Debug, Clone)]
pub struct Item {
    /// The generator's name for the constraint.
    pub name: String,
    /// SMT-LIB text.
    pub text: String,
    /// Ground truth, when the generator knows it.
    pub expected: Option<bool>,
    /// Index of the distinct constraint this text spells: its own index,
    /// except for the α-renamed spellings of `serve-repeat`.
    pub base: usize,
}

/// Prints each benchmark; a text that does not parse back fails its
/// request.
fn to_items(benchmarks: Vec<Benchmark>) -> Vec<Item> {
    benchmarks
        .into_iter()
        .map(|b| Item {
            text: b.script.to_string(),
            name: b.name,
            expected: b.expected,
            base: 0,
        })
        .collect()
}

/// Numbers items by position.
fn numbered(items: impl IntoIterator<Item = Item>) -> Vec<Item> {
    items
        .into_iter()
        .enumerate()
        .map(|(base, item)| Item { base, ..item })
        .collect()
}

/// Merges families so that every prefix holds them in proportion to their
/// sizes; a run that stops part-way still sees the whole mix.
fn interleave(families: Vec<Vec<Item>>) -> Vec<Item> {
    let mut keyed: Vec<(f64, usize, Item)> = Vec::new();
    for (f, family) in families.into_iter().enumerate() {
        let n = family.len() as f64;
        for (k, item) in family.into_iter().enumerate() {
            keyed.push(((k as f64 + 0.5) / n, f, item));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    numbered(keyed.into_iter().map(|(_, _, item)| item))
}

/// Generator seed of the paper's evaluation suites (`EvalConfig`).
const PAPER_SEED: u64 = 0x57a0b;

/// The paper's evaluation suites in their SMT-LIB proportions (NIA 64,
/// LIA 36, NRA 28, LRA 12) plus 24 skewed-width constraints, each count
/// multiplied by `scale`, in an order drawn from `seed`.
///
/// The constraints themselves come from the paper's fixed generator seed:
/// a few hard NIA and NRA constraints take most of a pass, and which ones
/// are hard changes so much between generator seeds that a pass over a
/// fresh draw varies by a third.
pub fn paper_mix(seed: u64, scale: f64) -> Vec<Item> {
    let n = |base: usize| ((base as f64 * scale).round() as usize).max(1);
    let mut items = Vec::new();
    for (kind, count) in [
        (SuiteKind::QfNia, 64),
        (SuiteKind::QfLia, 36),
        (SuiteKind::QfNra, 28),
        (SuiteKind::QfLra, 12),
    ] {
        items.extend(to_items(generate(kind, n(count), PAPER_SEED)));
    }
    items.extend(to_items(generate_skewed(n(24), PAPER_SEED)));
    Rng::new(seed).shuffle(&mut items);
    numbered(items)
}

/// The four linear fragments, `per_family` constraints each: LIA, LRA,
/// difference logic, and the unsat-biased linear family.
pub fn fragments(seed: u64, per_family: usize) -> Vec<Item> {
    interleave(vec![
        to_items(generate(SuiteKind::QfLia, per_family, seed)),
        to_items(generate(SuiteKind::QfLra, per_family, seed)),
        to_items(generate_dl(per_family, seed)),
        to_items(generate_linear(per_family, seed, LINEAR_COEFF)),
    ])
}

/// Fragments from a seed stream of their own, with canonical duplicates
/// (the same constraint up to renaming and order) removed, so that every
/// one misses a cache that has not seen it.
pub fn unique_fragments(seed: u64, per_family: usize) -> Result<Vec<Item>, String> {
    let mut seen = HashSet::new();
    let mut distinct = Vec::new();
    for item in fragments(seed ^ UNIQUE_STREAM, per_family) {
        let script = Script::parse(&item.text).map_err(|e| format!("{}: {e}", item.name))?;
        if seen.insert(canonicalize(&script).fingerprint) {
            distinct.push(item);
        }
    }
    Ok(numbered(distinct))
}

/// `text` with every declared symbol renamed and its assertions rotated
/// left by `k`: the same constraint up to α-renaming and assertion order,
/// which the serve cache must treat as one entry.
///
/// # Errors
///
/// When the respelled text does not parse or does not canonicalize to the
/// original's fingerprint.
pub fn respell(text: &str, k: usize) -> Result<String, String> {
    let script = Script::parse(text).map_err(|e| e.to_string())?;
    let store = script.store();
    let names: HashSet<&str> = script
        .commands()
        .iter()
        .filter_map(|c| match c {
            Command::Declare(sym) => Some(store.symbol_name(*sym)),
            _ => None,
        })
        .collect();
    // The printer writes one command per line.
    let lines: Vec<&str> = text.lines().collect();
    let first = lines.iter().position(|l| l.starts_with("(assert "));
    let mut ordered: Vec<&str> = lines.clone();
    if let Some(first) = first {
        let count = lines[first..]
            .iter()
            .take_while(|l| l.starts_with("(assert "))
            .count();
        ordered[first..first + count].rotate_left(k % count);
    }
    let mut out = String::with_capacity(text.len() + 64);
    for line in ordered {
        let mut token = String::new();
        for c in line.chars().chain(std::iter::once('\n')) {
            if c.is_whitespace() || c == '(' || c == ')' {
                out.push_str(&token);
                if names.contains(token.as_str()) {
                    out.push_str(&format!("_a{k}"));
                }
                token.clear();
                out.push(c);
            } else {
                token.push(c);
            }
        }
    }
    let respelled = Script::parse(&out).map_err(|e| format!("respelling {k}: {e}"))?;
    if canonicalize(&respelled).fingerprint != canonicalize(&script).fingerprint {
        return Err(format!("respelling {k} changed the canonical fingerprint"));
    }
    Ok(out)
}

/// SplitMix64: a small seeded generator for request orders.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_repeat_under_one_seed_and_differ_across_seeds() {
        let a = fragments(5, 8);
        let b = fragments(5, 8);
        let c = fragments(6, 8);
        assert_eq!(a.len(), 32);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text));
    }

    #[test]
    fn interleave_keeps_proportions_in_every_prefix() {
        let mix = fragments(1, 10);
        let dl_in_first_half = mix[..mix.len() / 2]
            .iter()
            .filter(|i| i.name.starts_with("dl"))
            .count();
        assert_eq!(dl_in_first_half, 5);
        assert!(mix.iter().enumerate().all(|(i, item)| item.base == i));
    }

    #[test]
    fn paper_mix_orders_one_suite_by_seed() {
        let a = paper_mix(1, 0.25);
        let b = paper_mix(2, 0.25);
        assert_eq!(a.len(), 16 + 9 + 7 + 3 + 6);
        let names = |v: &[Item]| {
            let mut n: Vec<String> = v.iter().map(|i| i.name.clone()).collect();
            n.sort();
            n
        };
        assert_eq!(names(&a), names(&b));
        assert!(a.iter().zip(&b).any(|(x, y)| x.name != y.name));
    }

    #[test]
    fn respellings_rename_rotate_and_keep_the_fingerprint() {
        for item in fragments(3, 4) {
            let spelled = respell(&item.text, 1).unwrap();
            assert_ne!(spelled, item.text);
            assert!(spelled.contains("_a1"));
        }
    }

    #[test]
    fn unique_fragments_have_distinct_fingerprints() {
        let items = unique_fragments(2, 40).unwrap();
        let prints: HashSet<u128> = items
            .iter()
            .map(|i| canonicalize(&Script::parse(&i.text).unwrap()).fingerprint)
            .collect();
        assert_eq!(prints.len(), items.len());
    }
}
