//! Compute-device descriptions and the device timing model.
//!
//! OpenCL abstracts both the CPU and the GPU of the APU as *compute devices*
//! made of compute units (CUs) that execute work groups, whose work items run
//! in SIMD wavefronts.  [`DeviceSpec`] captures the parameters of that model
//! that the paper's cost model needs (Table 1 and Table 2 of the paper), plus
//! calibrated memory-access and atomic-operation costs.
//!
//! [`Device::kernel_time`] turns a [`StepCost`]
//! (instructions, memory accesses, atomics, divergence) into simulated
//! elapsed time, mirroring Eq. 2/3 of the paper: computation + memory stalls,
//! with SIMD-divergence and latch terms added on top.

use crate::cost::{KernelTime, MemContext, StepCost};
use crate::SimTime;

/// Whether a device is the CPU or the GPU side of the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The multi-core CPU device.
    Cpu,
    /// The integrated (or discrete) GPU device.
    Gpu,
}

impl DeviceKind {
    /// Short label used in experiment output ("CPU" / "GPU").
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::Cpu => "CPU",
            DeviceKind::Gpu => "GPU",
        }
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of one compute device.
///
/// Structural parameters (cores, frequency, wavefront width, local memory)
/// come from Table 1 of the paper; the memory-access, atomic and IPC
/// parameters are calibration constants chosen so that the per-step unit
/// costs produced by the simulator reproduce the shape of Figure 4
/// (hash-computation steps ≥15× faster on the GPU, pointer-chasing steps at
/// rough parity).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name, e.g. `"A8-3870K CPU"`.
    pub name: String,
    /// CPU or GPU.
    pub kind: DeviceKind,
    /// Number of compute units (CPU cores, or GPU SIMD engines).
    pub compute_units: usize,
    /// SIMD lanes (processing elements) per compute unit.
    pub lanes_per_cu: usize,
    /// Work items executed in lock-step; 64 on AMD GPUs (a *wavefront*),
    /// 1 on the CPU.
    pub wavefront_size: usize,
    /// Core clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Sustained instructions per cycle per lane for OpenCL-style kernels.
    pub ipc_per_lane: f64,
    /// Effective device-aggregate cost of one random access that misses the
    /// last-level cache (latency divided by the memory-level parallelism the
    /// device can sustain), in nanoseconds.
    pub random_miss_ns: f64,
    /// Effective device-aggregate cost of one random access that hits the
    /// shared cache, in nanoseconds.
    pub random_hit_ns: f64,
    /// Sustained sequential/streaming bandwidth in GB/s (equivalently
    /// bytes per nanosecond).
    pub seq_bandwidth_gbps: f64,
    /// Cost of one *serialising* atomic operation — all requesters target the
    /// same address (e.g. the global pointer of the basic memory allocator) —
    /// in nanoseconds.  These cannot be overlapped.
    pub serial_atomic_ns: f64,
    /// Effective aggregate cost of one *distributed* atomic operation —
    /// requests spread over many addresses (e.g. per-bucket latches) — in
    /// nanoseconds.
    pub parallel_atomic_ns: f64,
    /// Effective aggregate cost of one atomic on work-group local memory, in
    /// nanoseconds.
    pub local_atomic_ns: f64,
    /// Local (work-group shared) memory per compute unit, in bytes.
    pub local_mem_bytes: usize,
    /// Whether the device has a branch predictor (CPUs do, the APU GPU does
    /// not); devices without one pay the full divergence penalty.
    pub has_branch_prediction: bool,
}

impl DeviceSpec {
    /// The CPU side of the AMD A8-3870K APU used in the paper:
    /// 4 cores at 3.0 GHz (Table 1).
    pub fn a8_3870k_cpu() -> Self {
        DeviceSpec {
            name: "A8-3870K CPU".to_string(),
            kind: DeviceKind::Cpu,
            compute_units: 4,
            lanes_per_cu: 1,
            wavefront_size: 1,
            frequency_ghz: 3.0,
            ipc_per_lane: 0.75,
            random_miss_ns: 3.6,
            random_hit_ns: 1.0,
            seq_bandwidth_gbps: 18.0,
            serial_atomic_ns: 15.0,
            parallel_atomic_ns: 3.0,
            local_atomic_ns: 1.0,
            local_mem_bytes: 32 * 1024,
            has_branch_prediction: true,
        }
    }

    /// The GPU side of the AMD A8-3870K APU used in the paper:
    /// 400 cores (5 SIMD engines × 80 lanes) at 0.6 GHz (Table 1).
    pub fn a8_3870k_gpu() -> Self {
        DeviceSpec {
            name: "A8-3870K GPU".to_string(),
            kind: DeviceKind::Gpu,
            compute_units: 5,
            lanes_per_cu: 80,
            wavefront_size: 64,
            frequency_ghz: 0.6,
            ipc_per_lane: 0.9,
            random_miss_ns: 6.8,
            random_hit_ns: 1.4,
            seq_bandwidth_gbps: 22.0,
            serial_atomic_ns: 40.0,
            parallel_atomic_ns: 3.5,
            local_atomic_ns: 0.3,
            local_mem_bytes: 32 * 1024,
            has_branch_prediction: false,
        }
    }

    /// The discrete AMD Radeon HD 7970 listed for reference in Table 1:
    /// 2048 cores at 0.9 GHz with its own GDDR5 memory.
    pub fn radeon_hd7970() -> Self {
        DeviceSpec {
            name: "Radeon HD 7970".to_string(),
            kind: DeviceKind::Gpu,
            compute_units: 32,
            lanes_per_cu: 64,
            wavefront_size: 64,
            frequency_ghz: 0.925,
            ipc_per_lane: 0.9,
            random_miss_ns: 1.2,
            random_hit_ns: 0.5,
            seq_bandwidth_gbps: 264.0,
            serial_atomic_ns: 25.0,
            parallel_atomic_ns: 1.0,
            local_atomic_ns: 0.2,
            local_mem_bytes: 32 * 1024,
            has_branch_prediction: false,
        }
    }

    /// Peak aggregate instruction throughput in instructions per nanosecond
    /// (`compute_units × lanes × frequency × IPC`), the denominator of Eq. 3.
    pub fn instr_throughput_per_ns(&self) -> f64 {
        self.compute_units as f64
            * self.lanes_per_cu as f64
            * self.frequency_ghz
            * self.ipc_per_lane
    }

    /// Total number of hardware lanes.
    pub fn total_lanes(&self) -> usize {
        self.compute_units * self.lanes_per_cu
    }
}

/// A compute device: a [`DeviceSpec`] plus the timing model that converts a
/// kernel's [`StepCost`] into simulated elapsed time.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    spec: DeviceSpec,
}

impl Device {
    /// Wraps a specification.
    pub fn new(spec: DeviceSpec) -> Self {
        Device { spec }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// CPU or GPU.
    pub fn kind(&self) -> DeviceKind {
        self.spec.kind
    }

    /// The wavefront width a kernel on this device should use when recording
    /// per-item work for divergence accounting.
    pub fn wavefront_size(&self) -> usize {
        self.spec.wavefront_size
    }

    /// Simulated elapsed time of a data-parallel kernel with the given cost
    /// profile on this device.
    ///
    /// This instantiates the per-step term of the paper's cost model
    /// (Eq. 2): `C + M` (computation plus memory stalls), extended with the
    /// divergence and atomic/latch terms that the paper handles through
    /// separate design tradeoffs (Sections 3.3 and 5.4).
    pub fn kernel_time(&self, cost: &StepCost, mem: &MemContext) -> KernelTime {
        let spec = &self.spec;

        // Eq. 3: computation time = instructions / peak throughput.
        let mut compute_ns = cost.instructions / spec.instr_throughput_per_ns();

        // Memory stalls: random accesses pay the calibrated hit/miss unit
        // cost; streaming accesses are bandwidth-bound.
        let hit = mem.random_hit_rate.clamp(0.0, 1.0);
        let random_unit = hit * spec.random_hit_ns + (1.0 - hit) * spec.random_miss_ns;
        let random_accesses = cost.random_reads + cost.random_writes;
        let mut random_ns = random_accesses * random_unit;
        let seq_bytes = cost.seq_read_bytes + cost.seq_write_bytes;
        let stream_ns = seq_bytes / spec.seq_bandwidth_gbps;

        // Workload divergence: on a SIMD device a wavefront runs as long as
        // its slowest work item, so latency-bound work is inflated by the
        // measured max/mean factor.  Devices with a branch predictor and
        // wavefront width 1 (the CPU) are unaffected.
        let divergence = if spec.wavefront_size > 1 {
            cost.divergence_factor().max(1.0)
        } else {
            1.0
        };
        let base_latency_ns = compute_ns + random_ns;
        compute_ns *= divergence;
        random_ns *= divergence;
        let divergence_overhead_ns = (compute_ns + random_ns) - base_latency_ns;

        // Latches and the software memory allocator (Section 3.3): global
        // serialising atomics cannot overlap; distributed and local-memory
        // atomics are costed at their aggregate effective rate.
        let atomic_ns = cost.serial_atomics * spec.serial_atomic_ns
            + cost.parallel_atomics * spec.parallel_atomic_ns
            + cost.local_atomics * spec.local_atomic_ns;

        KernelTime {
            compute: SimTime::from_ns(compute_ns),
            memory: SimTime::from_ns(random_ns + stream_ns),
            atomic: SimTime::from_ns(atomic_ns),
            divergence_overhead: SimTime::from_ns(divergence_overhead_ns.max(0.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostRecorder;

    fn pure_compute_cost(items: u64, instr_per_item: f64, wavefront: usize) -> StepCost {
        let mut rec = CostRecorder::new(wavefront);
        for _ in 0..items {
            rec.item(instr_per_item);
        }
        rec.finish()
    }

    #[test]
    fn table1_shapes() {
        let cpu = DeviceSpec::a8_3870k_cpu();
        let gpu = DeviceSpec::a8_3870k_gpu();
        let hd = DeviceSpec::radeon_hd7970();
        assert_eq!(cpu.compute_units, 4);
        assert_eq!(gpu.total_lanes(), 400);
        assert_eq!(hd.total_lanes(), 2048);
        assert_eq!(cpu.local_mem_bytes, 32 * 1024);
        assert!(cpu.frequency_ghz > gpu.frequency_ghz);
    }

    #[test]
    fn gpu_dominates_compute_bound_kernels() {
        // Hash-value computation (b1/p1/n1) is compute bound; the paper
        // reports a >15x GPU advantage (Section 5.2, Figure 4).
        let cpu = Device::new(DeviceSpec::a8_3870k_cpu());
        let gpu = Device::new(DeviceSpec::a8_3870k_gpu());
        let mem = MemContext::uncached();
        let t_cpu = cpu
            .kernel_time(&pure_compute_cost(1_000_000, 200.0, 1), &mem)
            .total()
            .as_ns();
        let t_gpu = gpu
            .kernel_time(&pure_compute_cost(1_000_000, 200.0, 64), &mem)
            .total()
            .as_ns();
        let speedup = t_cpu / t_gpu;
        assert!(
            speedup > 10.0,
            "expected a large GPU speedup, got {speedup:.1}x"
        );
    }

    #[test]
    fn memory_bound_kernels_are_close_between_devices() {
        // Pointer chasing (b3/p3) is random-access bound; the paper reports
        // near-parity between CPU and GPU on those steps.
        let cpu = Device::new(DeviceSpec::a8_3870k_cpu());
        let gpu = Device::new(DeviceSpec::a8_3870k_gpu());
        let mem = MemContext::uncached();
        let cost_cpu = {
            let mut rec = CostRecorder::new(1);
            for _ in 0..1_000_000u64 {
                rec.item(25.0);
                rec.random_read(1.0);
            }
            rec.finish()
        };
        let cost_gpu = {
            let mut rec = CostRecorder::new(64);
            for _ in 0..1_000_000u64 {
                rec.item(25.0);
                rec.random_read(1.0);
            }
            rec.finish()
        };
        let t_cpu = cpu.kernel_time(&cost_cpu, &mem).total().as_ns();
        let t_gpu = gpu.kernel_time(&cost_gpu, &mem).total().as_ns();
        let ratio = t_cpu / t_gpu;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "memory-bound steps should be close across devices, got ratio {ratio:.2}"
        );
    }

    #[test]
    fn cache_hits_are_cheaper_than_misses() {
        let cpu = Device::new(DeviceSpec::a8_3870k_cpu());
        let mut rec = CostRecorder::new(1);
        for _ in 0..1000u64 {
            rec.item(1.0);
            rec.random_read(1.0);
        }
        let cost = rec.finish();
        let hot = cpu
            .kernel_time(&cost, &MemContext::with_hit_rate(1.0))
            .total();
        let cold = cpu.kernel_time(&cost, &MemContext::uncached()).total();
        assert!(hot < cold);
    }

    #[test]
    fn serial_atomics_do_not_scale_with_parallelism() {
        let gpu = Device::new(DeviceSpec::a8_3870k_gpu());
        let mut rec = CostRecorder::new(64);
        for _ in 0..10_000u64 {
            rec.item(1.0);
            rec.serial_atomic(1.0);
        }
        let serial = gpu.kernel_time(&rec.finish(), &MemContext::uncached());
        let mut rec = CostRecorder::new(64);
        for _ in 0..10_000u64 {
            rec.item(1.0);
            rec.local_atomic(1.0);
        }
        let local = gpu.kernel_time(&rec.finish(), &MemContext::uncached());
        assert!(serial.atomic > local.atomic * 10.0);
    }

    #[test]
    fn divergence_penalises_simd_devices_only() {
        let make_cost = |wavefront: usize| {
            let mut rec = CostRecorder::new(wavefront);
            for i in 0..64_000u64 {
                rec.item(10.0);
                // One in 64 items does 64x the work: a classic divergent
                // wavefront.
                rec.work(if i % 64 == 0 { 64 } else { 1 });
            }
            rec.finish()
        };
        let gpu = Device::new(DeviceSpec::a8_3870k_gpu());
        let cpu = Device::new(DeviceSpec::a8_3870k_cpu());
        let gpu_time = gpu.kernel_time(&make_cost(64), &MemContext::uncached());
        let cpu_time = cpu.kernel_time(&make_cost(1), &MemContext::uncached());
        assert!(gpu_time.divergence_overhead > SimTime::ZERO);
        assert_eq!(cpu_time.divergence_overhead, SimTime::ZERO);
    }

    #[test]
    fn throughput_formula() {
        let gpu = DeviceSpec::a8_3870k_gpu();
        let expected = 5.0 * 80.0 * 0.6 * gpu.ipc_per_lane;
        assert!((gpu.instr_throughput_per_ns() - expected).abs() < 1e-9);
    }
}
