//! Exact order statistics over the benchmark's own sample vectors.
//!
//! Kept here, not borrowed from `hj_metrics`: the library's histogram code
//! is an instrument this benchmark is the outside reference for.

/// The ceil-rank `q`-quantile of an ascending-sorted sample set
/// (`q` in `[0, 1]`); 0.0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Sorts `samples` ascending and returns them (NaN-free by construction:
/// every sample is a measured duration).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The median of an unsorted sample set; 0.0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// The arithmetic mean; 0.0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Percentiles a tail may be reported at, highest first, each with the
/// share of samples beyond it in parts per thousand (integers, so the
/// ten-sample rule is not at the mercy of `100.0 - 99.9`).
const TAIL_LADDER: [(f64, usize); 5] =
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];

/// Fewest samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// of the `n` samples beyond it; falls back to the median (50.0) when even
/// p75 does not.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&(_, beyond_per_mille)| n * beyond_per_mille >= MIN_BEYOND * 1000)
        .map_or(50.0, |(percentile, _)| percentile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_the_ceil_rank_element() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.2), 1.0);
        assert_eq!(quantile(&s, 0.21), 2.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 7.0, 8.0]), 8.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
    }
}
