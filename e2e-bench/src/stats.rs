//! Order statistics over raw samples.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of percentile `p` (0..=100) among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `p`% of the samples at or below it.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether percentile `p` of `n` samples has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, so that it says something about
/// the tail (p99 needs `n >= 1000`, p90 needs `n >= 100`).
pub fn has_tail(n: usize, p: u32) -> bool {
    n > 0 && n - rank(n, p) >= MIN_TAIL_SAMPLES
}

/// Sorts a copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (the mean of the middle two for even counts).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no values");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the convention run-to-run spreads
/// are judged by.
///
/// # Panics
///
/// With fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(v.len() >= 2, "quartiles need two values");
    let m = v.len() + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        // Ranks round up: the p50 of four samples is the second.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50), 2.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn p99_only_from_a_thousand_samples() {
        assert!(!has_tail(999, 99));
        assert!(has_tail(1000, 99));
        assert!(!has_tail(99, 90));
        assert!(has_tail(100, 90));
        assert!(has_tail(20, 50));
        assert!(!has_tail(0, 50));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
