//! Execution-model helpers: wavefront divergence and latch contention.
//!
//! These utilities sit between the raw device model ([`crate::device`]) and
//! the join algorithms: they answer "how much does an irregular workload cost
//! on a lock-step SIMD device?" and "how expensive is a latched counter under
//! a given access distribution?" — the two OpenCL-specific effects the paper
//! calls out in Section 3.3 and measures in Figures 11 and 20.

use crate::device::DeviceSpec;
use crate::SimTime;

/// Computes the SIMD divergence factor of a per-item work distribution when
/// executed in wavefronts of `wavefront` items: the ratio of lock-step cost
/// (each wavefront costs `width × max(work)`) to useful work.
///
/// A factor of 1.0 means no divergence; higher values mean idle SIMD lanes.
/// The grouping optimisation of Section 3.3 works precisely by reordering
/// items so this factor approaches 1.
pub fn divergence_factor(work: &[u32], wavefront: usize) -> f64 {
    if work.is_empty() || wavefront <= 1 {
        return 1.0;
    }
    let total: f64 = work.iter().map(|&w| w as f64).sum();
    if total <= 0.0 {
        return 1.0;
    }
    let mut lockstep = 0.0;
    for chunk in work.chunks(wavefront) {
        let max = chunk.iter().copied().max().unwrap_or(0) as f64;
        lockstep += max * wavefront as f64;
    }
    (lockstep / total).max(1.0)
}

/// Parameters of the latch micro-benchmark of Figure 20 (Appendix A):
/// an array of `array_len` integers receives `total_increments` atomic
/// increments from `threads` concurrent work items; a fraction
/// `skew_fraction` of the increments is concentrated on a small hot set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicWorkload {
    /// Number of integers in the shared array (`N` in the paper, 1..16M).
    pub array_len: u64,
    /// Total number of increments performed (`X` = 16M in the paper).
    pub total_increments: u64,
    /// Number of concurrent work items (`K`: 256 on the CPU, 8192 on the
    /// GPU in the paper).
    pub threads: u64,
    /// Fraction of increments that target duplicated (hot) keys; 0.0 for the
    /// uniform dataset, 0.10 for low-skew, 0.25 for high-skew.
    pub skew_fraction: f64,
}

impl AtomicWorkload {
    /// The paper's configuration for a given array length, device-side thread
    /// count and skew.
    pub fn paper(array_len: u64, threads: u64, skew_fraction: f64) -> Self {
        AtomicWorkload {
            array_len: array_len.max(1),
            total_increments: 16 * 1024 * 1024,
            threads,
            skew_fraction: skew_fraction.clamp(0.0, 1.0),
        }
    }
}

/// Analytic model of latched atomic increments over a shared array.
///
/// Two effects compete as the array grows (exactly the trend of Figure 20):
///
/// * **Contention** — with few distinct targets, many threads serialise on
///   the same latch, so small arrays are slow.
/// * **Locality** — once the array exceeds the cache, every access pays a
///   memory miss, so very large arrays get slower again; skewed access keeps
///   a hot set resident and is therefore slightly *faster* than uniform
///   beyond that point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatchModel {
    /// Capacity of the cache the array competes for, in bytes.
    pub cache_bytes: f64,
    /// Bytes per array element (4-byte integers in the paper).
    pub element_bytes: f64,
}

impl LatchModel {
    /// Model over the A8-3870K's 4 MB shared cache with 4-byte integers.
    pub fn a8_3870k() -> Self {
        LatchModel {
            cache_bytes: 4.0 * 1024.0 * 1024.0,
            element_bytes: 4.0,
        }
    }

    /// Size of the hot set targeted by skewed accesses (a small constant
    /// fraction of the array, at least one element).
    fn hot_set_len(&self, workload: &AtomicWorkload) -> f64 {
        (workload.array_len as f64 / 128.0).max(1.0)
    }

    /// Probability that an access hits the cache.
    pub fn hit_rate(&self, workload: &AtomicWorkload) -> f64 {
        let uniform_bytes = workload.array_len as f64 * self.element_bytes;
        let hot_bytes = self.hot_set_len(workload) * self.element_bytes;
        let uniform_hit = (self.cache_bytes / uniform_bytes.max(1.0)).min(1.0);
        let hot_hit = (self.cache_bytes / hot_bytes.max(1.0)).min(1.0);
        workload.skew_fraction * hot_hit + (1.0 - workload.skew_fraction) * uniform_hit
    }

    /// Average number of threads contending for the same latch.
    pub(crate) fn contention(&self, workload: &AtomicWorkload) -> f64 {
        let uniform_targets = workload.array_len as f64;
        let hot_targets = self.hot_set_len(workload);
        let threads = workload.threads as f64;
        let uniform_contention = (threads / uniform_targets).max(1.0);
        let hot_contention = (threads / hot_targets).max(1.0);
        workload.skew_fraction * hot_contention
            + (1.0 - workload.skew_fraction) * uniform_contention
    }

    /// Total elapsed time of the micro-benchmark on `device`.
    pub fn locking_time(&self, device: &DeviceSpec, workload: &AtomicWorkload) -> SimTime {
        let n = workload.total_increments as f64;
        let hit = self.hit_rate(workload);
        let mem_unit = hit * device.random_hit_ns + (1.0 - hit) * device.random_miss_ns;
        let contention = self.contention(workload);
        // Contended atomics serialise: they degrade from the distributed
        // (parallel) cost towards the serialising cost as contention grows.
        let span = (device.serial_atomic_ns - device.parallel_atomic_ns).max(0.0);
        let saturation = 1.0 - 1.0 / contention; // 0 when uncontended, -> 1 under heavy contention
        let atomic_unit = device.parallel_atomic_ns + span * saturation;
        // A handful of instructions per increment (index computation, load,
        // add, store under the latch).
        let instr_unit = 12.0 / device.instr_throughput_per_ns();
        SimTime::from_ns(n * (atomic_unit + mem_unit + instr_unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    #[test]
    fn divergence_factor_uniform_is_one() {
        let work = vec![5u32; 256];
        assert!((divergence_factor(&work, 64) - 1.0).abs() < 1e-12);
        assert_eq!(divergence_factor(&[], 64), 1.0);
        assert_eq!(divergence_factor(&work, 1), 1.0);
    }

    #[test]
    fn divergence_factor_detects_skew() {
        let mut work = vec![1u32; 64];
        work[0] = 64;
        let f = divergence_factor(&work, 64);
        assert!(
            f > 30.0,
            "one hot lane should dominate the wavefront, got {f}"
        );
    }

    #[test]
    fn divergence_factor_improves_after_sorting() {
        // Alternating light/heavy items diverge badly; grouping (sorting)
        // them recovers most of the loss — the basis of the paper's grouping
        // optimisation.
        let mixed: Vec<u32> = (0..1024).map(|i| if i % 2 == 0 { 1 } else { 32 }).collect();
        let mut grouped = mixed.clone();
        grouped.sort_unstable();
        let f_mixed = divergence_factor(&mixed, 64);
        let f_grouped = divergence_factor(&grouped, 64);
        assert!(f_grouped < f_mixed);
    }

    #[test]
    fn latch_contention_drops_with_array_size() {
        let model = LatchModel::a8_3870k();
        let gpu = DeviceSpec::a8_3870k_gpu();
        let small = model.locking_time(&gpu, &AtomicWorkload::paper(4, 8192, 0.0));
        let medium = model.locking_time(&gpu, &AtomicWorkload::paper(64 * 1024, 8192, 0.0));
        assert!(
            small > medium,
            "tiny arrays must suffer latch contention: {small} <= {medium}"
        );
    }

    #[test]
    fn latch_time_rises_again_beyond_cache() {
        let model = LatchModel::a8_3870k();
        let cpu = DeviceSpec::a8_3870k_cpu();
        // 256K integers (1 MB) fit in the 4 MB cache; 16M integers (64 MB) do not.
        let in_cache = model.locking_time(&cpu, &AtomicWorkload::paper(256 * 1024, 256, 0.0));
        let beyond = model.locking_time(&cpu, &AtomicWorkload::paper(16 * 1024 * 1024, 256, 0.0));
        assert!(beyond > in_cache);
    }

    #[test]
    fn skew_is_faster_than_uniform_beyond_cache() {
        // "The execution time of running on the high-skew data is slightly
        // lower than that on the uniform data" once the array exceeds the
        // cache (Appendix A).
        let model = LatchModel::a8_3870k();
        let cpu = DeviceSpec::a8_3870k_cpu();
        let n = 16 * 1024 * 1024;
        let uniform = model.locking_time(&cpu, &AtomicWorkload::paper(n, 256, 0.0));
        let skewed = model.locking_time(&cpu, &AtomicWorkload::paper(n, 256, 0.25));
        assert!(skewed < uniform);
    }

    #[test]
    fn hit_rate_and_contention_bounds() {
        let model = LatchModel::a8_3870k();
        let w = AtomicWorkload::paper(1, 8192, 0.0);
        assert!(model.hit_rate(&w) >= 0.999);
        assert!(model.contention(&w) >= 8000.0);
        let w = AtomicWorkload::paper(1 << 30, 8192, 0.0);
        assert!(model.hit_rate(&w) < 0.01);
        assert!((model.contention(&w) - 1.0).abs() < 1e-6);
    }
}
