//! Spill-path configuration and the per-request spill report.

use std::path::PathBuf;

/// Knobs of the dynamic hybrid hash join's spill path.
///
/// The defaults are tuned for "just works" degradation: enough fanout that
/// one eviction frees a useful fraction of the grant, a recursion cap that
/// terminates even on pathological (single-key) skew, and a frame size
/// that keeps per-session working memory bounded and off the budget's books.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillConfig {
    /// Partition fanout of each hybrid-hash pass (≥ 2).
    pub partitions: usize,
    /// How many recursive re-partitioning passes an oversized partition may
    /// take before the executor falls back to a grant-bounded block
    /// nested-loop join (0 = fall back immediately).
    pub max_recursion_depth: u32,
    /// Tuples per staged frame: spilled partitions buffer at most this many
    /// tuples in memory before flushing a frame to their run file.
    pub frame_tuples: usize,
    /// Directory to spill under (the OS temp dir when `None`).
    pub spill_dir: Option<PathBuf>,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            partitions: 16,
            max_recursion_depth: 4,
            frame_tuples: 8 * 1024,
            spill_dir: None,
        }
    }
}

impl SpillConfig {
    /// Sets the partition fanout.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// Sets the recursion-depth cap.
    pub fn max_recursion_depth(mut self, depth: u32) -> Self {
        self.max_recursion_depth = depth;
        self
    }

    /// Sets the staged-frame size in tuples.
    pub fn frame_tuples(mut self, tuples: usize) -> Self {
        self.frame_tuples = tuples;
        self
    }

    /// Spills under `dir` instead of the OS temp dir.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Validates the knobs; returns a human-readable reason on failure.
    ///
    /// # Errors
    /// A description of the first degenerate knob found.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions < 2 {
            return Err(format!(
                "spill fanout of {} partitions cannot make progress (need at least 2)",
                self.partitions
            ));
        }
        if u32::try_from(self.partitions).is_err() {
            return Err(format!(
                "spill fanout of {} partitions does not fit in 32 bits",
                self.partitions
            ));
        }
        if self.frame_tuples == 0 {
            return Err("spill frame size must be at least one tuple".to_string());
        }
        Ok(())
    }
}

/// What the spill path did for one request — attached to the outcome so
/// operators can see *how* a larger-than-memory join degraded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpillReport {
    /// Bytes written to run files (build + staged probe tuples).
    pub bytes_spilled: u64,
    /// Bytes read back from run files for joining or re-partitioning.
    pub bytes_restored: u64,
    /// Partitions evicted to disk, across all recursion levels.
    pub partitions_spilled: u64,
    /// Partitions processed in total, across all recursion levels.
    pub partitions_total: u64,
    /// Deepest recursive re-partitioning pass taken (0 = no recursion).
    pub recursion_depth: u32,
    /// Partition pairs that hit the recursion cap and were joined by the
    /// block nested-loop fallback.
    pub fallback_joins: u64,
    /// Memory-grant denials observed (each one triggered an eviction or a
    /// staging decision).
    pub grant_denials: u64,
    /// Bytes evicted in response to the broker's reclaim pressure signal
    /// (fair-share enforcement), a subset of
    /// [`bytes_spilled`](Self::bytes_spilled).
    pub reclaimed_bytes: u64,
    /// Wall-clock seconds spent inside the spill path (partitioning,
    /// run-file I/O and recursive joins; not the in-core fast path).
    pub spill_wall_secs: f64,
}

impl SpillReport {
    /// Folds another report (e.g. a recursive pass) into this one.
    pub fn merge(&mut self, other: &SpillReport) {
        self.bytes_spilled += other.bytes_spilled;
        self.bytes_restored += other.bytes_restored;
        self.partitions_spilled += other.partitions_spilled;
        self.partitions_total += other.partitions_total;
        self.recursion_depth = self.recursion_depth.max(other.recursion_depth);
        self.fallback_joins += other.fallback_joins;
        self.grant_denials += other.grant_denials;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.spill_wall_secs += other.spill_wall_secs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(SpillConfig::default().validate().is_ok());
    }

    #[test]
    fn degenerate_knobs_are_rejected_with_reasons() {
        let e = SpillConfig::default().partitions(1).validate().unwrap_err();
        assert!(e.contains("at least 2"), "{e}");
        if let Some(too_many) = (u32::MAX as usize).checked_add(1) {
            let e = SpillConfig::default()
                .partitions(too_many)
                .validate()
                .unwrap_err();
            assert!(e.contains("32 bits"), "{e}");
        }
        assert!(SpillConfig::default().frame_tuples(0).validate().is_err());
    }

    #[test]
    fn reports_merge_additively_with_max_depth() {
        let mut a = SpillReport {
            bytes_spilled: 10,
            recursion_depth: 1,
            ..SpillReport::default()
        };
        let b = SpillReport {
            bytes_spilled: 5,
            bytes_restored: 7,
            recursion_depth: 3,
            fallback_joins: 1,
            spill_wall_secs: 0.25,
            ..SpillReport::default()
        };
        a.merge(&b);
        assert_eq!(a.bytes_spilled, 15);
        assert_eq!(a.bytes_restored, 7);
        assert_eq!(a.recursion_depth, 3);
        assert_eq!(a.fallback_joins, 1);
        assert!(a.spill_wall_secs > 0.2);
    }
}
