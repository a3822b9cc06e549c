//! Kernel cost profiles: what a data-parallel step *did*, so a
//! [`Device`](crate::device::Device) can decide how long it *took*.
//!
//! Step kernels in the join crate perform the real work (hashing, bucket
//! walks, inserts) on the host and record their per-item effort into a
//! [`CostRecorder`].  The recorder also tracks per-item work units grouped
//! into wavefronts so the executor can charge the SIMD divergence penalty the
//! paper discusses in Section 3.3 ("Workload divergence").

use crate::SimTime;

/// Aggregated cost profile of one kernel launch (one step of a step series
/// executed over some portion of the input).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepCost {
    /// Number of input items processed.
    pub items: u64,
    /// Total dynamic instructions across all items.
    pub instructions: f64,
    /// Random (non-streaming) global-memory reads.
    pub random_reads: f64,
    /// Random global-memory writes.
    pub random_writes: f64,
    /// Bytes read with a streaming/sequential pattern.
    pub seq_read_bytes: f64,
    /// Bytes written with a streaming/sequential pattern.
    pub seq_write_bytes: f64,
    /// Serialising global atomics (all requesters target one address, e.g.
    /// the basic allocator's global pointer).
    pub serial_atomics: f64,
    /// Distributed global atomics (spread over many addresses, e.g.
    /// per-bucket latches).
    pub parallel_atomics: f64,
    /// Atomics on work-group local memory.
    pub local_atomics: f64,
    /// Sum of the per-item work units recorded via [`CostRecorder::work`].
    pub total_work: f64,
    /// Sum over wavefronts of the maximum work unit in that wavefront,
    /// multiplied by the wavefront width — i.e. the lock-step cost.
    pub lockstep_work: f64,
}

impl StepCost {
    /// An empty cost profile.
    pub(crate) fn zero() -> Self {
        Self::default()
    }

    /// The divergence factor: lock-step cost over useful work (≥ 1).
    ///
    /// Returns 1.0 when no per-item work was recorded (a perfectly regular
    /// kernel).
    pub fn divergence_factor(&self) -> f64 {
        if self.total_work <= 0.0 || self.lockstep_work <= 0.0 {
            1.0
        } else {
            (self.lockstep_work / self.total_work).max(1.0)
        }
    }

    /// Component-wise sum of two cost profiles.
    pub fn merge(&mut self, other: &StepCost) {
        self.items += other.items;
        self.instructions += other.instructions;
        self.random_reads += other.random_reads;
        self.random_writes += other.random_writes;
        self.seq_read_bytes += other.seq_read_bytes;
        self.seq_write_bytes += other.seq_write_bytes;
        self.serial_atomics += other.serial_atomics;
        self.parallel_atomics += other.parallel_atomics;
        self.local_atomics += other.local_atomics;
        self.total_work += other.total_work;
        self.lockstep_work += other.lockstep_work;
    }

    /// Scales every component by `factor` (used by the cost model to
    /// extrapolate a profiled sample to a full relation).
    pub fn scaled(&self, factor: f64) -> StepCost {
        StepCost {
            items: (self.items as f64 * factor).round() as u64,
            instructions: self.instructions * factor,
            random_reads: self.random_reads * factor,
            random_writes: self.random_writes * factor,
            seq_read_bytes: self.seq_read_bytes * factor,
            seq_write_bytes: self.seq_write_bytes * factor,
            serial_atomics: self.serial_atomics * factor,
            parallel_atomics: self.parallel_atomics * factor,
            local_atomics: self.local_atomics * factor,
            total_work: self.total_work * factor,
            lockstep_work: self.lockstep_work * factor,
        }
    }
}

/// Streaming builder for a [`StepCost`].
///
/// A kernel creates one recorder per launch, calls [`CostRecorder::item`]
/// once per work item, and the fine-grained recording methods as it performs
/// memory accesses and atomics.  Per-item work units passed to
/// [`CostRecorder::work`] are grouped into wavefronts of the device's width
/// to measure lock-step (divergence) overhead.
///
/// A kernel may also record a whole run of items at once
/// ([`CostRecorder::items`], [`CostRecorder::work_each`], or one total
/// passed to the fine-grained methods).  When every recorded quantity is an integer, as the join
/// kernels' are, each running sum stays an exact integer (below 2^53), so
/// the result is bit-identical to recording the same items one by one in
/// any grouping.
#[derive(Debug, Clone)]
pub struct CostRecorder {
    wavefront: usize,
    cost: StepCost,
    wave_fill: usize,
    wave_max: u32,
}

impl CostRecorder {
    /// Creates a recorder for a device whose wavefront width is `wavefront`
    /// (use 1 for the CPU).
    pub fn new(wavefront: usize) -> Self {
        CostRecorder {
            wavefront: wavefront.max(1),
            cost: StepCost::zero(),
            wave_fill: 0,
            wave_max: 0,
        }
    }

    /// Records one work item that executes `instructions` instructions.
    #[inline]
    pub fn item(&mut self, instructions: f64) {
        self.cost.items += 1;
        self.cost.instructions += instructions;
    }

    /// Records `n` work items that execute `instructions` instructions each.
    #[inline]
    pub fn items(&mut self, n: usize, instructions: f64) {
        self.cost.items += n as u64;
        self.cost.instructions += n as f64 * instructions;
    }

    /// Adds extra instructions to the current kernel (e.g. per-node work in
    /// a list traversal).
    #[inline]
    pub fn instructions(&mut self, n: f64) {
        self.cost.instructions += n;
    }

    /// Records `n` random global reads.
    #[inline]
    pub fn random_read(&mut self, n: f64) {
        self.cost.random_reads += n;
    }

    /// Records `n` random global writes.
    #[inline]
    pub fn random_write(&mut self, n: f64) {
        self.cost.random_writes += n;
    }

    /// Records `bytes` of streaming reads.
    #[inline]
    pub fn seq_read(&mut self, bytes: f64) {
        self.cost.seq_read_bytes += bytes;
    }

    /// Records `bytes` of streaming writes.
    #[inline]
    pub fn seq_write(&mut self, bytes: f64) {
        self.cost.seq_write_bytes += bytes;
    }

    /// Records `n` serialising global atomics.
    #[inline]
    pub fn serial_atomic(&mut self, n: f64) {
        self.cost.serial_atomics += n;
    }

    /// Records `n` distributed global atomics.
    #[inline]
    pub fn parallel_atomic(&mut self, n: f64) {
        self.cost.parallel_atomics += n;
    }

    /// Records `n` local-memory atomics.
    #[inline]
    pub fn local_atomic(&mut self, n: f64) {
        self.cost.local_atomics += n;
    }

    /// Records the work units of the current item for divergence accounting.
    ///
    /// Items are grouped into wavefronts in arrival order; a wavefront costs
    /// `wavefront_width × max(work in the wavefront)` on a lock-step SIMD
    /// device.
    #[inline]
    pub fn work(&mut self, units: u32) {
        self.cost.total_work += units as f64;
        self.wave_max = self.wave_max.max(units);
        self.wave_fill += 1;
        if self.wave_fill == self.wavefront {
            self.flush_wave();
        }
    }

    /// Records the work units of a run of items, in order: the same as one
    /// [`CostRecorder::work`] call per item, with the sums kept in integers
    /// until the run ends.
    pub fn work_each(&mut self, units: impl IntoIterator<Item = u32>) {
        let (mut total, mut lockstep) = (0u64, 0u64);
        let (mut fill, mut max) = (self.wave_fill, self.wave_max);
        for u in units {
            total += u64::from(u);
            max = max.max(u);
            fill += 1;
            if fill == self.wavefront {
                lockstep += u64::from(max) * self.wavefront as u64;
                fill = 0;
                max = 0;
            }
        }
        self.cost.total_work += total as f64;
        self.cost.lockstep_work += lockstep as f64;
        self.wave_fill = fill;
        self.wave_max = max;
    }

    fn flush_wave(&mut self) {
        if self.wave_fill > 0 {
            self.cost.lockstep_work += self.wave_max as f64 * self.wavefront as f64;
            self.wave_fill = 0;
            self.wave_max = 0;
        }
    }

    /// The cost accumulated so far, with the current partial wavefront
    /// flushed as if the kernel ended here.  The recorder itself keeps
    /// recording (and keeps packing the open wavefront), so successive
    /// snapshots let an observer compute incremental costs — the adaptive
    /// tuner's telemetry — without splitting the kernel into many small
    /// launches whose partial wavefronts would inflate the lock-step cost.
    pub fn snapshot(&self) -> StepCost {
        let mut copy = self.clone();
        copy.flush_wave();
        copy.cost
    }

    /// Finalises the recorder into a [`StepCost`].
    pub fn finish(mut self) -> StepCost {
        self.flush_wave();
        self.cost
    }
}

/// Memory-system context for a kernel: how likely its random accesses are to
/// hit the (shared) last-level cache.
///
/// The join executor derives the hit rate either analytically from working
/// set vs. cache capacity ([`crate::cache::AnalyticCache`]) or from an exact
/// cache simulation ([`crate::cache::CacheSim`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemContext {
    /// Probability that a random access hits the last-level cache.
    pub random_hit_rate: f64,
}

impl MemContext {
    /// A context where every random access misses the cache.
    pub fn uncached() -> Self {
        MemContext {
            random_hit_rate: 0.0,
        }
    }

    /// A context with the given hit rate (clamped to `[0, 1]`).
    pub fn with_hit_rate(rate: f64) -> Self {
        MemContext {
            random_hit_rate: rate.clamp(0.0, 1.0),
        }
    }
}

impl Default for MemContext {
    fn default() -> Self {
        MemContext::uncached()
    }
}

/// The decomposed elapsed time of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelTime {
    /// Pure computation (Eq. 3 of the paper).
    pub compute: SimTime,
    /// Memory stalls (random accesses and streaming).
    pub memory: SimTime,
    /// Latch/atomic overhead.
    pub atomic: SimTime,
    /// The part of `compute + memory` attributable to SIMD divergence
    /// (already included in those terms; reported separately for analysis).
    pub divergence_overhead: SimTime,
}

impl KernelTime {
    /// Total elapsed time of the kernel.
    pub fn total(&self) -> SimTime {
        self.compute + self.memory + self.atomic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_all_components() {
        let mut rec = CostRecorder::new(1);
        for _ in 0..10 {
            rec.item(5.0);
            rec.random_read(2.0);
            rec.random_write(1.0);
            rec.seq_read(8.0);
            rec.seq_write(4.0);
            rec.serial_atomic(1.0);
            rec.parallel_atomic(2.0);
            rec.local_atomic(3.0);
        }
        let c = rec.finish();
        assert_eq!(c.items, 10);
        assert_eq!(c.instructions, 50.0);
        assert_eq!(c.random_reads, 20.0);
        assert_eq!(c.random_writes, 10.0);
        assert_eq!(c.seq_read_bytes, 80.0);
        assert_eq!(c.seq_write_bytes, 40.0);
        assert_eq!(c.serial_atomics, 10.0);
        assert_eq!(c.parallel_atomics, 20.0);
        assert_eq!(c.local_atomics, 30.0);
    }

    #[test]
    fn uniform_work_has_no_divergence() {
        let mut rec = CostRecorder::new(64);
        for _ in 0..6400 {
            rec.item(1.0);
            rec.work(3);
        }
        let c = rec.finish();
        assert!((c.divergence_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_work_has_divergence_above_one() {
        let mut rec = CostRecorder::new(64);
        for i in 0..6400u32 {
            rec.item(1.0);
            rec.work(if i % 64 == 0 { 100 } else { 1 });
        }
        let c = rec.finish();
        assert!(c.divergence_factor() > 5.0);
    }

    #[test]
    fn partial_last_wavefront_is_flushed() {
        let mut rec = CostRecorder::new(64);
        for _ in 0..10 {
            rec.item(1.0);
            rec.work(2);
        }
        let c = rec.finish();
        // One partial wavefront of 10 items, max work 2.
        assert_eq!(c.total_work, 20.0);
        assert_eq!(c.lockstep_work, 2.0 * 64.0);
    }

    #[test]
    fn bulk_recording_matches_item_by_item_recording() {
        for wavefront in [1, 4, 64] {
            for lead in [0usize, 1, 3, 63, 64, 65] {
                for n in [0usize, 1, 2, 63, 64, 130] {
                    let mut one_by_one = CostRecorder::new(wavefront);
                    let mut bulk = CostRecorder::new(wavefront);
                    for rec in [&mut one_by_one, &mut bulk] {
                        for i in 0..lead {
                            rec.item(3.0);
                            rec.work(i as u32 % 5 + 1);
                        }
                    }
                    for _ in 0..n {
                        one_by_one.item(180.0);
                        one_by_one.work(2);
                    }
                    bulk.items(n, 180.0);
                    bulk.work_each(std::iter::repeat_n(2, n / 2));
                    bulk.work_each(std::iter::repeat_n(2, n - n / 2));
                    assert_eq!(
                        one_by_one.snapshot(),
                        bulk.snapshot(),
                        "wavefront {wavefront}, lead {lead}, n {n}"
                    );
                    one_by_one.work(7);
                    bulk.work(7);
                    assert_eq!(one_by_one.finish(), bulk.finish());
                }
            }
        }
    }

    #[test]
    fn wavefront_of_one_never_diverges() {
        let mut rec = CostRecorder::new(1);
        for i in 0..100u32 {
            rec.item(1.0);
            rec.work(i % 17 + 1);
        }
        let c = rec.finish();
        assert!((c.divergence_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_and_scale_are_consistent() {
        let mut rec = CostRecorder::new(1);
        for _ in 0..100 {
            rec.item(2.0);
            rec.random_read(1.0);
        }
        let c = rec.finish();
        let mut doubled = c.clone();
        doubled.merge(&c);
        let scaled = c.scaled(2.0);
        assert_eq!(doubled.instructions, scaled.instructions);
        assert_eq!(doubled.random_reads, scaled.random_reads);
        assert_eq!(doubled.items, scaled.items);
    }

    #[test]
    fn kernel_time_totals() {
        let kt = KernelTime {
            compute: SimTime::from_ns(10.0),
            memory: SimTime::from_ns(5.0),
            atomic: SimTime::from_ns(2.0),
            divergence_overhead: SimTime::from_ns(1.0),
        };
        assert_eq!(kt.total().as_ns(), 17.0);
    }

    #[test]
    fn mem_context_clamps() {
        assert_eq!(MemContext::with_hit_rate(2.0).random_hit_rate, 1.0);
        assert_eq!(MemContext::with_hit_rate(-1.0).random_hit_rate, 0.0);
    }
}
