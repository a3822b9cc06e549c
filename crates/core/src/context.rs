//! Execution context shared by all phase runners: devices, allocator,
//! cache model and run-wide counters.

use crate::error::JoinError;
use crate::pipeline::{SharedWorkerPool, WorkerPool};
use apu_sim::SystemSpec;
use apu_sim::{
    AnalyticCache, CacheSim, CacheStats, CostRecorder, Device, DeviceKind, MemContext, SimTime,
};
use mem_alloc::{AllocStats, AllocatorKind, KernelAllocator};

/// Work groups the CPU device runs concurrently (one per core).
pub(crate) const CPU_WORK_GROUPS: usize = 4;
/// Work groups the GPU device runs concurrently.
pub(crate) const GPU_WORK_GROUPS: usize = 64;

/// Run-wide counters accumulated across all phases of one join execution.
#[derive(Debug, Clone, Default)]
pub struct ExecCounters {
    /// Number of result pairs produced.
    pub matches: u64,
    /// Tuples that crossed between devices because consecutive steps used
    /// different workload ratios (the intermediate results of PL).
    pub intermediate_tuples: u64,
    /// Bytes moved over PCI-e (discrete topology only).
    pub pcie_bytes: u64,
    /// Number of PCI-e transfers.
    pub pcie_transfers: u64,
    /// Total latch/atomic overhead charged by the device model.
    pub lock_overhead: SimTime,
    /// Total SIMD divergence overhead charged by the device model.
    pub divergence_overhead: SimTime,
    /// Allocator activity.
    pub alloc: AllocStats,
    /// Last-level-cache counters, present when cache profiling was enabled.
    pub cache: Option<CacheStats>,
    /// Random accesses charged by the analytic cache model.
    pub analytic_accesses: f64,
    /// Estimated misses under the analytic cache model
    /// (`accesses × (1 − hit rate)` per step).
    pub analytic_misses: f64,
}

/// Mutable state threaded through every phase of one join execution.
pub struct ExecContext<'a> {
    /// The system (devices + topology) the join runs on.
    pub sys: &'a SystemSpec,
    cpu: Device,
    gpu: Device,
    cpu_cache: AnalyticCache,
    gpu_cache: AnalyticCache,
    /// The software allocator serving key/rid nodes, partition buffers and
    /// result output.
    pub allocator: Box<dyn KernelAllocator>,
    /// Exact cache simulator, enabled only when miss counts are required.
    pub cache_sim: Option<CacheSim>,
    /// Run-wide counters.
    pub counters: ExecCounters,
    /// Morsel size (tuples) the step pipeline decomposes phases into; the
    /// engine sets it from the request, defaulting to
    /// `crate::pipeline::DEFAULT_MORSEL_TUPLES`.
    pub morsel_tuples: usize,
    /// The engine's persistent worker pool, when this context was created
    /// by a [`JoinEngine`](crate::engine::JoinEngine); native execution
    /// submits its morsels here instead of spawning threads per step, and
    /// the spill path routes its chunks on it.  Lazily spawned: a simulator
    /// join that does not spill never costs a thread.
    workers: Option<&'a SharedWorkerPool>,
    /// The adaptive runtime tuner, when the request asked for
    /// [`Tuning::Adaptive`](crate::engine::Tuning): `crate::phase::run_step`
    /// feeds it per-morsel lane timings and takes its re-planned ratios;
    /// the native backend feeds it wall-clock telemetry.  `None` (the
    /// default) runs the offline plan unchanged.
    pub tuner: Option<hj_adaptive::RatioTuner>,
}

impl<'a> ExecContext<'a> {
    /// Creates a context for one join run.
    ///
    /// `arena_bytes` sizes the allocator arena; `profile_cache` enables the
    /// exact L2 simulator (slower, used for Table 3).
    pub fn new(
        sys: &'a SystemSpec,
        allocator: AllocatorKind,
        arena_bytes: usize,
        profile_cache: bool,
    ) -> Self {
        let work_groups = CPU_WORK_GROUPS + GPU_WORK_GROUPS;
        ExecContext::with_allocator(
            sys,
            allocator.build(arena_bytes, work_groups),
            profile_cache,
        )
    }

    /// Creates a context around an *existing* allocator, so a long-lived
    /// [`JoinEngine`](crate::engine::JoinEngine) can reuse one arena across
    /// many requests instead of re-allocating it per join.
    pub fn with_allocator(
        sys: &'a SystemSpec,
        allocator: Box<dyn KernelAllocator>,
        profile_cache: bool,
    ) -> Self {
        ExecContext {
            sys,
            cpu: sys.device(DeviceKind::Cpu),
            gpu: sys.device(DeviceKind::Gpu),
            cpu_cache: AnalyticCache::new(sys.cache_bytes_for(DeviceKind::Cpu)),
            gpu_cache: AnalyticCache::new(sys.cache_bytes_for(DeviceKind::Gpu)),
            allocator,
            cache_sim: if profile_cache {
                Some(CacheSim::a8_3870k_l2())
            } else {
                None
            },
            counters: ExecCounters::default(),
            morsel_tuples: crate::pipeline::DEFAULT_MORSEL_TUPLES,
            workers: None,
            tuner: None,
        }
    }

    /// Sets the morsel size (tuples) the step pipeline uses; zero is treated
    /// as one tuple per morsel.
    pub fn with_morsel_tuples(mut self, morsel_tuples: usize) -> Self {
        self.morsel_tuples = morsel_tuples.max(1);
        self
    }

    /// Attaches the engine's persistent worker pool, shared by every
    /// session: backends executing under this context submit their morsel
    /// tasks there instead of spawning threads of their own.
    pub(crate) fn with_worker_pool(mut self, pool: &'a SharedWorkerPool) -> Self {
        self.workers = Some(pool);
        self
    }

    /// The engine-owned worker pool, when one is attached — spawning its
    /// workers on first access (backends that never call this never cost a
    /// thread).
    pub fn worker_pool(&self) -> Option<&'a WorkerPool> {
        self.workers.map(SharedWorkerPool::get)
    }

    /// Attaches an adaptive runtime tuner; the step pipeline will feed it
    /// telemetry and execute its re-planned ratios.
    pub(crate) fn with_tuner(mut self, tuner: hj_adaptive::RatioTuner) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Detaches the tuner (used by the engine to harvest the adaptation
    /// report after execution).
    pub(crate) fn take_tuner(&mut self) -> Option<hj_adaptive::RatioTuner> {
        self.tuner.take()
    }

    /// Tears the context down, handing the allocator (and its arena) back to
    /// the owner for reuse.
    pub(crate) fn into_allocator(self) -> Box<dyn KernelAllocator> {
        self.allocator
    }

    /// The [`JoinError::ArenaExhausted`] describing a failed allocation of
    /// `requested` bytes that `phase` made against this context's arena.
    pub(crate) fn arena_error(&self, phase: &'static str, requested: usize) -> JoinError {
        JoinError::ArenaExhausted {
            requested,
            capacity: self.allocator.capacity(),
            used: self.allocator.used(),
            phase,
        }
    }

    /// The device of the given kind.
    pub fn device(&self, kind: DeviceKind) -> &Device {
        match kind {
            DeviceKind::Cpu => &self.cpu,
            DeviceKind::Gpu => &self.gpu,
        }
    }

    /// A cost recorder configured with the device's wavefront width.
    pub(crate) fn recorder_for(&self, kind: DeviceKind) -> CostRecorder {
        CostRecorder::new(self.device(kind).wavefront_size())
    }

    /// The memory context a kernel with the given random-access working set
    /// sees on the given device.
    pub(crate) fn mem_ctx(&self, kind: DeviceKind, working_set_bytes: f64) -> MemContext {
        let cache = match kind {
            DeviceKind::Cpu => &self.cpu_cache,
            DeviceKind::Gpu => &self.gpu_cache,
        };
        MemContext::with_hit_rate(cache.hit_rate(working_set_bytes))
    }

    /// Snapshot of the allocator counters (used to attribute allocator
    /// atomics to the kernel that caused them).
    pub(crate) fn alloc_snapshot(&self) -> AllocStats {
        self.allocator.stats()
    }

    /// Finalises run-wide counters that are derived from other state
    /// (allocator totals, cache statistics).
    pub(crate) fn finalize_counters(&mut self) {
        self.counters.alloc = self.allocator.stats();
        self.counters.cache = self.cache_sim.as_ref().map(|c| c.stats());
    }
}

/// The allocator work-group id for item `offset_in_range` of a kernel of
/// `range_len` items running on `kind`.
///
/// CPU work groups are 0..[`CPU_WORK_GROUPS`]; GPU work groups follow.
/// Items are assigned contiguously, as a real work-group decomposition
/// would.
#[inline]
pub(crate) fn group_for(kind: DeviceKind, offset_in_range: usize, range_len: usize) -> usize {
    let (base, n) = match kind {
        DeviceKind::Cpu => (0, CPU_WORK_GROUPS),
        DeviceKind::Gpu => (CPU_WORK_GROUPS, GPU_WORK_GROUPS),
    };
    if range_len == 0 {
        return base;
    }
    base + (offset_in_range * n / range_len).min(n - 1)
}

/// Sizes the allocator arena for a join of `build_tuples` ⨝ `probe_tuples`:
/// key and rid nodes for every build tuple, partition copies of both
/// relations (PHJ), result pairs for every probe tuple, plus block-allocation
/// slack.
pub fn arena_bytes_for(build_tuples: usize, probe_tuples: usize) -> usize {
    let nodes =
        build_tuples * (crate::hashtable::KEY_NODE_BYTES + crate::hashtable::RID_NODE_BYTES);
    let partitions = (build_tuples + probe_tuples) * 8 * 2;
    let results = probe_tuples * 8 * 2;
    let slack = 4 << 20;
    // Merge re-inserts into a fresh table in the worst (separate-table) case.
    nodes * 2 + partitions + results + slack
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::SystemSpec;

    #[test]
    fn devices_and_recorders_match_kind() {
        let sys = SystemSpec::coupled_a8_3870k();
        let ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        assert_eq!(ctx.device(DeviceKind::Cpu).kind(), DeviceKind::Cpu);
        assert_eq!(ctx.device(DeviceKind::Gpu).wavefront_size(), 64);
    }

    #[test]
    fn mem_ctx_reflects_working_set() {
        let sys = SystemSpec::coupled_a8_3870k();
        let ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let small = ctx.mem_ctx(DeviceKind::Cpu, 64.0 * 1024.0);
        let huge = ctx.mem_ctx(DeviceKind::Cpu, 1e9);
        assert!(small.random_hit_rate > 0.9);
        assert!(huge.random_hit_rate < 0.01);
    }

    #[test]
    fn group_assignment_is_contiguous_and_in_range() {
        let g0 = group_for(DeviceKind::Cpu, 0, 1000);
        let g_last = group_for(DeviceKind::Cpu, 999, 1000);
        assert_eq!(g0, 0);
        assert_eq!(g_last, CPU_WORK_GROUPS - 1);
        let gpu0 = group_for(DeviceKind::Gpu, 0, 10);
        assert!(gpu0 >= CPU_WORK_GROUPS);
        assert!(group_for(DeviceKind::Gpu, 9, 10) < CPU_WORK_GROUPS + GPU_WORK_GROUPS);
        // Degenerate empty range still returns a valid group.
        assert_eq!(group_for(DeviceKind::Cpu, 0, 0), 0);
    }

    #[test]
    fn cache_profiling_is_optional() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut off = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        assert!(off.cache_sim.is_none());
        off.finalize_counters();
        assert!(off.counters.cache.is_none());

        let mut on = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, true);
        let sim = on.cache_sim.as_mut().unwrap();
        sim.access(0x1234);
        sim.access(0x1234);
        on.finalize_counters();
        let stats = on.counters.cache.unwrap();
        assert_eq!(stats.accesses(), 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn arena_sizing_covers_node_requirements() {
        let bytes = arena_bytes_for(1000, 2000);
        // At minimum: key+rid nodes for every build tuple.
        assert!(bytes > 1000 * 20);
    }
}
