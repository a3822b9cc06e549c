//! Last-level cache models.
//!
//! The coupled architecture shares a 4 MB L2 cache between the CPU and the
//! GPU (Table 1), which is the source of the cache-reuse benefit the paper
//! attributes to shared hash tables and fine-grained steps (Figure 10 and
//! Table 3).  Two models are provided:
//!
//! * [`AnalyticCache`] — a closed-form steady-state hit-rate estimate used by
//!   the fast timing path (random accesses over a working set `W` with cache
//!   capacity `C` hit with probability ≈ `min(1, C/W)`).
//! * [`CacheSim`] — an exact set-associative LRU simulator used when an
//!   experiment needs miss *counts* (Table 3) rather than just elapsed time.

/// Hit/miss counters of a cache model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Closed-form steady-state model of a shared last-level cache.
///
/// For uniformly random accesses into a working set of `w` bytes, the
/// probability that the touched line is resident in a cache of `c` bytes is
/// approximately `min(1, c/w)`.  This is the same simplification the
/// calibration-based cost models the paper builds on (Manegold et al.) use
/// for the "random access within a region" pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticCache {
    capacity_bytes: f64,
}

impl AnalyticCache {
    /// Creates a model of a cache with the given capacity.
    pub fn new(capacity_bytes: usize) -> Self {
        AnalyticCache {
            capacity_bytes: capacity_bytes as f64,
        }
    }

    /// Estimated hit rate for random accesses over `working_set_bytes`.
    pub fn hit_rate(&self, working_set_bytes: f64) -> f64 {
        if working_set_bytes <= 0.0 {
            1.0
        } else {
            (self.capacity_bytes / working_set_bytes).min(1.0)
        }
    }
}

/// An exact set-associative, write-allocate, LRU cache simulator.
///
/// Used to produce the L2 miss counts of Table 3 (fine vs. coarse step
/// definition) and the cache-miss comparison of shared vs. separate hash
/// tables (Section 5.4).
#[derive(Debug, Clone)]
pub struct CacheSim {
    line_bytes: u64,
    num_sets: u64,
    ways: usize,
    /// `sets[set][way]` holds a line tag; `u64::MAX` marks an empty way.
    /// Ways are kept in LRU order: index 0 is the most recently used.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheSim {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity and
    /// `line_bytes` cache lines.
    ///
    /// # Panics
    /// Panics if the geometry does not divide evenly or any parameter is 0.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && line_bytes > 0);
        assert!(
            capacity_bytes.is_multiple_of(ways * line_bytes),
            "capacity must be a multiple of ways * line size"
        );
        let num_sets = (capacity_bytes / (ways * line_bytes)) as u64;
        CacheSim {
            line_bytes: line_bytes as u64,
            num_sets,
            ways,
            sets: vec![Vec::with_capacity(ways); num_sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// The 4 MB shared L2 of the A8-3870K (16-way, 64-byte lines).
    pub fn a8_3870k_l2() -> Self {
        CacheSim::new(4 * 1024 * 1024, 16, 64)
    }

    /// Accesses one byte address; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set_idx = (line % self.num_sets) as usize;
        let tag = line / self.num_sets;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.insert(0, t);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and resets counters.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_hit_rate_bounds() {
        let c = AnalyticCache::new(4 * 1024 * 1024);
        assert_eq!(c.hit_rate(0.0), 1.0);
        assert_eq!(c.hit_rate(1024.0), 1.0);
        assert!((c.hit_rate(8.0 * 1024.0 * 1024.0) - 0.5).abs() < 1e-9);
        assert!(c.hit_rate(1e12) < 1e-4);
    }

    #[test]
    fn sim_small_working_set_hits_after_warmup() {
        let mut sim = CacheSim::new(64 * 1024, 8, 64);
        // Working set of 32 KB fits entirely.
        for round in 0..4 {
            for addr in (0..32 * 1024u64).step_by(64) {
                let hit = sim.access(addr);
                if round > 0 {
                    assert!(hit, "resident line must hit on later rounds");
                }
            }
        }
        let stats = sim.stats();
        assert!(stats.hits as f64 > 0.7 * stats.accesses() as f64);
    }

    #[test]
    fn sim_streaming_over_large_set_mostly_misses() {
        let mut sim = CacheSim::new(64 * 1024, 8, 64);
        for addr in (0..16 * 1024 * 1024u64).step_by(64) {
            sim.access(addr);
        }
        let stats = sim.stats();
        assert!(stats.misses as f64 > 0.99 * stats.accesses() as f64);
    }

    #[test]
    fn sim_lru_evicts_least_recently_used() {
        // 2 sets * 2 ways * 16B lines = 64B cache.
        let mut sim = CacheSim::new(64, 2, 16);
        // All these addresses map to set 0 (line % 2 == 0).
        let a = 0u64; // line 0
        let b = 64u64; // line 4
        let c = 128u64; // line 8
        assert!(!sim.access(a));
        assert!(!sim.access(b));
        assert!(sim.access(a)); // a is MRU now
        assert!(!sim.access(c)); // evicts b (LRU)
        assert!(sim.access(a));
        assert!(!sim.access(b)); // b was evicted
    }

    #[test]
    #[should_panic]
    fn sim_rejects_bad_geometry() {
        let _ = CacheSim::new(1000, 3, 64);
    }
}
