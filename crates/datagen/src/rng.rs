//! A small, dependency-free pseudo-random number generator.
//!
//! The experiments only need *deterministic, seedable, well-mixed* draws —
//! not cryptographic quality — so this is a plain xorshift64* generator
//! seeded through SplitMix64 (the standard recipe for turning an arbitrary
//! 64-bit seed into a full-period initial state).  It replaces the external
//! `rand` crate so the workspace builds with no third-party dependencies.

/// A seedable xorshift64* generator.
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed; equal seeds yield equal
    /// streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 scrambles the seed so that small or zero seeds still
        // produce a well-mixed non-zero initial state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SmallRng { state: z | 1 }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform index in `0..bound`; `bound` must be non-zero.
    pub fn random_index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "random_index requires a non-zero bound");
        // Multiply-shift bounded draw (Lemire); the bias for 64-bit bounds is
        // negligible at experiment scale.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// A uniform `u32` in `0..bound`; `bound` must be non-zero.
    pub fn random_u32_below(&mut self, bound: u32) -> u32 {
        self.random_index(bound as usize) as u32
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn random_unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle of `slice`.
    pub(crate) fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.random_index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = SmallRng::seed_from_u64(0);
        let draws: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn bounded_draws_stay_in_range_and_cover_it() {
        let mut r = SmallRng::seed_from_u64(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.random_index(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn unit_draws_are_distributed_over_the_interval() {
        let mut r = SmallRng::seed_from_u64(1);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.random_unit()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let v = r.random_unit();
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn shuffle_permutes_without_loss() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<u32>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }
}
