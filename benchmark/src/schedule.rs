//! Open-loop arrival schedules, fixed by the seed before a window starts.

use coupled_hashjoin::datagen::SmallRng;

/// Arrival offsets (ns from window start, ascending) of one sender issuing
/// `rate_per_s` requests per second for `window_s` seconds.
///
/// The arrivals are a Poisson process conditioned on its count: exactly
/// `round(rate × window)` arrivals at independent uniform times.  Every
/// seed therefore offers the same load; only the arrival pattern (bursts
/// and gaps) differs.
pub fn arrivals(seed: u64, sender: usize, rate_per_s: f64, window_s: f64) -> Vec<u64> {
    let mut rng =
        SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(sender as u64 + 1));
    let count = (rate_per_s * window_s).round() as usize;
    let window_ns = window_s * 1e9;
    let mut offsets: Vec<u64> = (0..count)
        .map(|_| (rng.random_unit() * window_ns) as u64)
        .collect();
    offsets.sort_unstable();
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed_and_sender() {
        let a = arrivals(42, 0, 125.0, 2.0);
        assert_eq!(a, arrivals(42, 0, 125.0, 2.0));
        assert_ne!(a, arrivals(43, 0, 125.0, 2.0));
        assert_ne!(a, arrivals(42, 1, 125.0, 2.0));
    }

    #[test]
    fn schedule_offers_exactly_the_stated_load_inside_the_window() {
        let a = arrivals(7, 1, 125.0, 2.0);
        assert_eq!(a.len(), 250);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
        // Independent arrivals bunch: some gap is far from the mean 8 ms.
        let widest = a.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(widest > 16_000_000, "widest gap {widest} ns");
    }
}
