//! Hash functions and bucket/partition mapping.
//!
//! The paper uses MurmurHash 2.0 as its hash function (Section 5.1), chosen
//! for its low collision rate and low computational overhead, and radix
//! partitioning over the low-order bits of the integer hash values for PHJ
//! (Section 3.1).

/// MurmurHash 2.0 of a 32-bit key (the variant the paper and Blanas et al.
/// use for 4-byte join keys).
///
/// The implementation follows Austin Appleby's reference `MurmurHash2`
/// specialised to a 4-byte input.
#[inline]
pub(crate) fn murmur2(key: u32, seed: u32) -> u32 {
    const M: u32 = 0x5bd1_e995;
    const R: u32 = 24;

    let mut h: u32 = seed ^ 4; // length = 4 bytes
    let mut k: u32 = key;
    k = k.wrapping_mul(M);
    k ^= k >> R;
    k = k.wrapping_mul(M);
    h = h.wrapping_mul(M);
    h ^= k;

    // Finalisation mix.
    h ^= h >> 13;
    h = h.wrapping_mul(M);
    h ^= h >> 15;
    h
}

/// Default hash-table seed used across the library.
pub(crate) const DEFAULT_SEED: u32 = 0x9747_b28c;

/// Hashes a key with the default seed.
#[inline]
pub fn hash_key(key: u32) -> u32 {
    murmur2(key, DEFAULT_SEED)
}

/// Radix partition number of a hash value for a given partitioning pass.
///
/// The radix join splits relations by `bits_per_pass` low-order hash bits per
/// pass: pass 0 uses bits `[0, bits)`, pass 1 bits `[bits, 2*bits)`, and so
/// on — exactly the multi-pass scheme of Boncz et al. adopted by the paper.
#[inline]
pub(crate) fn radix_partition_of(hash: u32, bits_per_pass: u32, pass: u32) -> usize {
    let shift = bits_per_pass * pass;
    ((hash >> shift) & ((1u32 << bits_per_pass) - 1)) as usize
}

/// The number of partitions produced by one pass of `bits` bits.
#[inline]
pub(crate) fn partitions_per_pass(bits: u32) -> usize {
    1usize << bits
}

/// `x % n` for a fixed `n`, without a division: Lemire, Kaser and Kurz's
/// "fastmod" (*Faster Remainder by Direct Computation*, 2019).  The 64-bit
/// constant `⌈2^64 / n⌉` is computed once; each remainder is then one
/// multiply and one multiply-high, exact for every 32-bit `x` and `n`.
/// Bucket counts that are not powers of two (shards, spill partitions) are
/// picked per tuple with it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FastMod {
    /// `⌈2^64 / n⌉`, which wraps to 0 for `n == 1` (every remainder is 0).
    multiplier: u64,
    n: u32,
}

impl FastMod {
    /// The map `x ↦ x % n`; `n` must be at least 1.
    pub(crate) fn new(n: u32) -> Self {
        assert!(n > 0, "a remainder by zero");
        FastMod {
            multiplier: (u64::MAX / u64::from(n)).wrapping_add(1),
            n,
        }
    }

    /// `x % n`.
    #[inline]
    pub(crate) fn rem(self, x: u32) -> u32 {
        let fraction = self.multiplier.wrapping_mul(u64::from(x));
        ((u128::from(fraction) * u128::from(self.n)) >> 64) as u32
    }
}

impl From<u32> for FastMod {
    fn from(n: u32) -> Self {
        FastMod::new(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn murmur2_is_deterministic_and_seed_sensitive() {
        assert_eq!(murmur2(12345, 1), murmur2(12345, 1));
        assert_ne!(murmur2(12345, 1), murmur2(12345, 2));
        assert_ne!(murmur2(12345, 1), murmur2(12346, 1));
    }

    #[test]
    fn murmur2_spreads_sequential_keys() {
        // Sequential keys must not collapse onto few buckets — the property
        // the paper relies on for uniform bucket occupancy.
        let buckets = 1 << 10;
        let mut seen = HashSet::new();
        for k in 0..10_000u32 {
            seen.insert(hash_key(k) as usize % buckets);
        }
        assert!(
            seen.len() > buckets * 9 / 10,
            "only {} buckets hit",
            seen.len()
        );
    }

    #[test]
    fn radix_partitions_cover_all_values_and_compose() {
        let bits = 4;
        for k in 0..1000u32 {
            let h = hash_key(k);
            let p0 = radix_partition_of(h, bits, 0);
            let p1 = radix_partition_of(h, bits, 1);
            assert!(p0 < partitions_per_pass(bits));
            assert!(p1 < partitions_per_pass(bits));
            // Two passes look at disjoint bit ranges.
            assert_eq!(p0, (h & 0xF) as usize);
            assert_eq!(p1, ((h >> 4) & 0xF) as usize);
        }
    }

    #[test]
    fn fastmod_is_the_remainder_for_every_small_divisor() {
        // Interpreted runs (the Miri CI job) check fewer seeded values.
        let seeded = if cfg!(miri) { 1 << 12 } else { 1 << 20 };
        let mut rng = datagen::SmallRng::seed_from_u64(0xFA57_FA57);
        let values: Vec<u32> = (0..seeded).map(|_| rng.next_u64() as u32).collect();
        // Each divisor gets the edge cases and its own 1/1024 of the values.
        for (n, share) in (1..=1024u32).zip(values.chunks(seeded / 1024)) {
            let map = FastMod::new(n);
            let edges = [0, 1, n - 1, n, n + 1, u32::MAX];
            for &x in edges.iter().chain(share) {
                assert_eq!(map.rem(x), x % n, "{x} % {n}");
            }
        }
        // Every seeded value, against a few divisors of every shape.
        for n in [3, 7, 16, 1000, 1 << 25, u32::MAX - 1, u32::MAX] {
            let map = FastMod::new(n);
            assert!(values.iter().all(|&x| map.rem(x) == x % n), "% {n}");
        }
    }

    #[test]
    fn hash_distribution_is_roughly_uniform() {
        let buckets = 256;
        let mut counts = vec![0u32; buckets];
        let n = 256 * 1000;
        for k in 0..n as u32 {
            counts[hash_key(k) as usize % buckets] += 1;
        }
        let expected = (n / buckets) as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.25,
                "bucket count {c} deviates {dev:.2} from {expected}"
            );
        }
    }
}
