//! System topologies: the coupled APU versus the emulated discrete system.
//!
//! A [`SystemSpec`] bundles a CPU device, a GPU device and a [`Topology`]:
//!
//! * [`Topology::Coupled`] — both devices share main memory and the
//!   last-level cache; data lives in the *zero-copy buffer* (512 MB on the
//!   A8-3870K) and no transfers are needed.
//! * [`Topology::Discrete`] — the GPU has its own memory and cache, and every
//!   movement of data between devices pays the PCI-e delay of
//!   [`PcieSpec`].  This mirrors the paper's
//!   emulation-based methodology (Section 5.1).

use crate::device::{Device, DeviceKind, DeviceSpec};
use crate::pcie::PcieSpec;
use crate::SimTime;

/// How the CPU and GPU are connected.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Single chip: shared memory controller, shared last-level cache,
    /// zero-copy buffer accessible by both devices.
    Coupled {
        /// Shared last-level cache capacity in bytes (4 MB on the A8-3870K).
        shared_cache_bytes: usize,
        /// Zero-copy buffer capacity in bytes (512 MB on the A8-3870K).
        zero_copy_bytes: usize,
    },
    /// Discrete accelerator behind a PCI-e bus, with separate caches.
    Discrete {
        /// The PCI-e link model.
        pcie: PcieSpec,
        /// CPU last-level cache capacity in bytes.
        cpu_cache_bytes: usize,
        /// GPU last-level cache capacity in bytes.
        gpu_cache_bytes: usize,
    },
}

/// A complete CPU + GPU system description.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// The CPU device.
    pub cpu: DeviceSpec,
    /// The GPU device.
    pub gpu: DeviceSpec,
    /// How the devices are connected.
    pub topology: Topology,
}

impl SystemSpec {
    /// The coupled AMD A8-3870K APU of the paper (Table 1): 4 CPU cores,
    /// 400 GPU cores, 4 MB shared cache, 512 MB zero-copy buffer.
    pub fn coupled_a8_3870k() -> Self {
        SystemSpec {
            cpu: DeviceSpec::a8_3870k_cpu(),
            gpu: DeviceSpec::a8_3870k_gpu(),
            topology: Topology::Coupled {
                shared_cache_bytes: 4 * 1024 * 1024,
                zero_copy_bytes: 512 * 1024 * 1024,
            },
        }
    }

    /// The discrete architecture the paper emulates: the *same* CPU and GPU
    /// devices, but connected by a PCI-e bus with 0.015 ms latency and
    /// 3 GB/s bandwidth (Section 5.1).  As in the paper's emulation, the
    /// devices keep their cache sizes.
    pub fn discrete_emulated() -> Self {
        SystemSpec {
            cpu: DeviceSpec::a8_3870k_cpu(),
            gpu: DeviceSpec::a8_3870k_gpu(),
            topology: Topology::Discrete {
                pcie: PcieSpec::paper_default(),
                cpu_cache_bytes: 4 * 1024 * 1024,
                gpu_cache_bytes: 4 * 1024 * 1024,
            },
        }
    }

    /// True when the topology is discrete (PCI-e attached).
    pub fn is_discrete(&self) -> bool {
        matches!(self.topology, Topology::Discrete { .. })
    }

    /// The [`Device`] of the given kind.
    pub fn device(&self, kind: DeviceKind) -> Device {
        match kind {
            DeviceKind::Cpu => Device::new(self.cpu.clone()),
            DeviceKind::Gpu => Device::new(self.gpu.clone()),
        }
    }

    /// The last-level cache capacity visible to `kind`, in bytes.
    ///
    /// On the coupled topology both devices see the shared cache; on the
    /// discrete topology each sees its own.
    pub fn cache_bytes_for(&self, kind: DeviceKind) -> usize {
        match &self.topology {
            Topology::Coupled {
                shared_cache_bytes, ..
            } => *shared_cache_bytes,
            Topology::Discrete {
                cpu_cache_bytes,
                gpu_cache_bytes,
                ..
            } => match kind {
                DeviceKind::Cpu => *cpu_cache_bytes,
                DeviceKind::Gpu => *gpu_cache_bytes,
            },
        }
    }

    /// The zero-copy buffer capacity, if the topology has one.
    pub fn zero_copy_bytes(&self) -> Option<usize> {
        match &self.topology {
            Topology::Coupled {
                zero_copy_bytes, ..
            } => Some(*zero_copy_bytes),
            Topology::Discrete { .. } => None,
        }
    }

    /// The time to move `bytes` bytes between the devices.
    ///
    /// Zero on the coupled topology (the whole point of the APU); one PCI-e
    /// transfer on the discrete topology.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        match &self.topology {
            Topology::Coupled { .. } => SimTime::ZERO,
            Topology::Discrete { pcie, .. } => pcie.transfer_time(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_preset_matches_table1() {
        let sys = SystemSpec::coupled_a8_3870k();
        assert!(!sys.is_discrete());
        assert_eq!(sys.zero_copy_bytes(), Some(512 * 1024 * 1024));
        assert_eq!(sys.cache_bytes_for(DeviceKind::Cpu), 4 * 1024 * 1024);
        assert_eq!(
            sys.cache_bytes_for(DeviceKind::Cpu),
            sys.cache_bytes_for(DeviceKind::Gpu)
        );
        assert_eq!(sys.transfer_time(1 << 20), SimTime::ZERO);
    }

    #[test]
    fn discrete_preset_pays_for_transfers() {
        let sys = SystemSpec::discrete_emulated();
        assert!(sys.is_discrete());
        assert_eq!(sys.zero_copy_bytes(), None);
        let t = sys.transfer_time(3_000_000_000);
        // 3 GB over 3 GB/s = 1 s plus latency.
        assert!(t.as_secs() > 1.0 && t.as_secs() < 1.01);
    }

    #[test]
    fn devices_are_constructed_with_matching_kind() {
        let sys = SystemSpec::coupled_a8_3870k();
        assert_eq!(sys.device(DeviceKind::Cpu).kind(), DeviceKind::Cpu);
        assert_eq!(sys.device(DeviceKind::Gpu).kind(), DeviceKind::Gpu);
        assert_eq!(sys.device(DeviceKind::Gpu).wavefront_size(), 64);
    }

    #[test]
    fn hd7970_is_much_faster_than_apu_gpu() {
        let apu = DeviceSpec::a8_3870k_gpu();
        let hd = DeviceSpec::radeon_hd7970();
        assert!(hd.instr_throughput_per_ns() > 4.0 * apu.instr_throughput_per_ns());
    }
}
