//! Percentiles with explicit sample counts.
//!
//! A tail percentile is only reported when enough samples lie beyond it
//! to pin it down: at least [`MIN_BEYOND`] samples strictly above the
//! nearest rank. A p99 therefore needs at least 1,000 samples and a p95
//! at least 200.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of an ascending-sorted slice,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pct> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Nearest rank, 1-based: the smallest rank whose share reaches q.
    // The epsilon keeps exact products (0.99 * 1000) from rounding up.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(Pct {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// The smallest sample count for which [`percentile`] reports `q`.
pub fn min_samples(q: f64) -> usize {
    let mut n = MIN_BEYOND + 1;
    while percentile_rank_beyond(n, q) < MIN_BEYOND {
        n += 1;
    }
    n
}

fn percentile_rank_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    n - rank
}

/// Sort samples ascending (total order; the benchmark never records NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Arithmetic mean, `None` for an empty set.
pub fn mean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        None
    } else {
        Some(v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Median of a small set (setup repetitions), upper middle for even sizes.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    s[s.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let p = percentile(&ramp(1000), 0.99).expect("1000 samples carry a p99");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.n, 1000);
        assert_eq!(p.beyond, 10);
        assert!(
            percentile(&ramp(999), 0.99).is_none(),
            "999 samples leave 9 beyond p99"
        );
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn p95_and_p50_sample_floors() {
        assert_eq!(min_samples(0.95), 200);
        assert!(percentile(&ramp(199), 0.95).is_none());
        let p = percentile(&ramp(200), 0.95).unwrap();
        assert_eq!((p.value, p.beyond), (190.0, 10));
        assert_eq!(min_samples(0.5), 20);
        let p = percentile(&ramp(21), 0.5).unwrap();
        assert_eq!((p.value, p.n, p.beyond), (11.0, 21, 10));
    }

    #[test]
    fn empty_and_tiny_sets_report_nothing() {
        assert!(percentile(&[], 0.5).is_none());
        assert!(percentile(&[1.0; 5], 0.5).is_none());
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sorting_is_ascending() {
        assert_eq!(sorted(vec![3.0, -1.0, 2.5]), vec![-1.0, 2.5, 3.0]);
    }
}
