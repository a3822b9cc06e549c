//! Join configuration: algorithm, co-processing scheme and design-tradeoff
//! knobs.

use mem_alloc::AllocatorKind;

/// Which hash-join algorithm to run (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The simple hash join (SHJ): build then probe, no partitioning.
    Simple,
    /// The partitioned (radix) hash join (PHJ): radix-partition both inputs,
    /// then SHJ each partition pair.
    Partitioned {
        /// Radix bits per pass; 0 selects a size-appropriate default.
        radix_bits: u32,
        /// Number of partitioning passes (the paper tunes this to the memory
        /// hierarchy; one pass is the common case for 16 M tuples).
        passes: u32,
    },
}

impl Algorithm {
    /// PHJ with automatically chosen radix bits and a single pass.
    pub fn partitioned_auto() -> Self {
        Algorithm::Partitioned {
            radix_bits: 0,
            passes: 1,
        }
    }

    /// Short label ("SHJ" / "PHJ").
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Simple => "SHJ",
            Algorithm::Partitioned { .. } => "PHJ",
        }
    }
}

/// Shared or separate hash tables between the CPU and the GPU (Section 3.3,
/// Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashTableMode {
    /// One latched table shared by both devices (best on the coupled
    /// architecture).
    Shared,
    /// One private table per device, merged after the build phase.
    Separate,
}

/// Fine-grained (per-tuple steps) or coarse-grained (one partition pair per
/// step) step definition — the PHJ-PL vs PHJ-PL' comparison of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepGranularity {
    /// Per-tuple steps (Algorithms 1 and 2).
    Fine,
    /// One SHJ over a whole partition pair is a single step, processed by one
    /// device with its own private hash table.
    Coarse,
}

/// The co-processing scheme assigning step workloads to the CPU and the GPU
/// (Section 3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// Everything on the CPU.
    CpuOnly,
    /// Everything on the GPU.
    GpuOnly,
    /// Off-loading: each step runs entirely on one device.
    Offload {
        /// Per-step CPU placement for a partition pass (`n1..n3`).
        partition_on_cpu: [bool; 3],
        /// Per-step CPU placement for the build phase (`b1..b4`).
        build_on_cpu: [bool; 4],
        /// Per-step CPU placement for the probe phase (`p1..p4`).
        probe_on_cpu: [bool; 4],
    },
    /// Data dividing: one CPU ratio per phase.
    DataDividing {
        /// CPU share of each partition pass.
        partition_ratio: f64,
        /// CPU share of the build phase.
        build_ratio: f64,
        /// CPU share of the probe phase.
        probe_ratio: f64,
    },
    /// Pipelined (fine-grained) co-processing: one CPU ratio per step.
    Pipelined {
        /// Ratios for `n1..n3`.
        partition: [f64; 3],
        /// Ratios for `b1..b4`.
        build: [f64; 4],
        /// Ratios for `p1..p4`.
        probe: [f64; 4],
    },
    /// The coarse-grained dynamic chunk scheduler of Appendix A
    /// ("BasicUnit"): chunks of tuples are dispatched to whichever device
    /// becomes idle first.
    BasicUnit {
        /// Chunk size in tuples.
        chunk_tuples: usize,
    },
}

impl Scheme {
    /// Off-loading where every step goes to the GPU — what OL degenerates to
    /// on the APU, since every step is at least as fast there (Section 5.2).
    pub fn offload_gpu() -> Self {
        Scheme::Offload {
            partition_on_cpu: [false; 3],
            build_on_cpu: [false; 4],
            probe_on_cpu: [false; 4],
        }
    }

    /// The DD ratios the paper reports for the coupled architecture
    /// (partition 11 %, build 26 %, probe 41 %).
    pub fn data_dividing_paper() -> Self {
        Scheme::DataDividing {
            partition_ratio: 0.11,
            build_ratio: 0.26,
            probe_ratio: 0.41,
        }
    }

    /// Per-step ratios approximating Figures 5 and 6 (hash steps fully on the
    /// GPU, pointer-chasing steps split close to evenly).  The cost-model
    /// optimiser in the `costmodel` crate produces workload-specific values;
    /// this preset is a reasonable paper-shaped default.
    pub fn pipelined_paper() -> Self {
        Scheme::Pipelined {
            partition: [0.04, 0.35, 0.35],
            build: [0.0, 0.05, 0.55, 0.40],
            probe: [0.0, 0.10, 0.55, 0.45],
        }
    }

    /// The BasicUnit scheduler with the chunk size used in the appendix.
    pub fn basic_unit_default() -> Self {
        Scheme::BasicUnit {
            chunk_tuples: 256 * 1024,
        }
    }

    /// True when both devices may receive work under this scheme.
    pub fn uses_both_devices(&self) -> bool {
        match self {
            Scheme::CpuOnly | Scheme::GpuOnly => false,
            Scheme::Offload {
                partition_on_cpu,
                build_on_cpu,
                probe_on_cpu,
            } => {
                let any_cpu = partition_on_cpu
                    .iter()
                    .chain(build_on_cpu)
                    .chain(probe_on_cpu)
                    .any(|&c| c);
                let any_gpu = partition_on_cpu
                    .iter()
                    .chain(build_on_cpu)
                    .chain(probe_on_cpu)
                    .any(|&c| !c);
                any_cpu && any_gpu
            }
            Scheme::DataDividing {
                partition_ratio,
                build_ratio,
                probe_ratio,
            } => [partition_ratio, build_ratio, probe_ratio]
                .iter()
                .any(|&&r| r > 0.0 && r < 1.0),
            Scheme::Pipelined { .. } => true,
            Scheme::BasicUnit { .. } => true,
        }
    }

    /// Short label used in experiment output ("CPU-only", "DD", "OL", "PL",
    /// "BasicUnit").
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::CpuOnly => "CPU-only",
            Scheme::GpuOnly => "GPU-only",
            Scheme::Offload { .. } => "OL",
            Scheme::DataDividing { .. } => "DD",
            Scheme::Pipelined { .. } => "PL",
            Scheme::BasicUnit { .. } => "BasicUnit",
        }
    }
}

/// Full configuration of one join execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinConfig {
    /// SHJ or PHJ.
    pub algorithm: Algorithm,
    /// Co-processing scheme.
    pub scheme: Scheme,
    /// Shared or separate hash tables.
    pub hash_table: HashTableMode,
    /// Software memory allocator design.
    pub allocator: AllocatorKind,
    /// Enable grouping-based divergence reduction.
    pub grouping: bool,
    /// Fine or coarse step definition (PHJ only).
    pub granularity: StepGranularity,
    /// Materialise result pairs (for correctness checks) rather than only
    /// counting them.
    pub collect_results: bool,
    /// Enable the exact L2 cache simulator (slower; used for miss counts).
    pub profile_cache: bool,
    /// Morsel size in tuples the step pipeline decomposes each phase into
    /// (default `crate::pipeline::DEFAULT_MORSEL_TUPLES`); must be
    /// non-zero.
    pub morsel_tuples: usize,
}

impl JoinConfig {
    /// A simple hash join with the given scheme and tuned defaults
    /// (shared table, optimised allocator, grouping on).
    pub fn shj(scheme: Scheme) -> Self {
        JoinConfig {
            algorithm: Algorithm::Simple,
            scheme,
            hash_table: HashTableMode::Shared,
            allocator: AllocatorKind::tuned(),
            grouping: true,
            granularity: StepGranularity::Fine,
            collect_results: false,
            profile_cache: false,
            morsel_tuples: crate::pipeline::DEFAULT_MORSEL_TUPLES,
        }
    }

    /// A partitioned hash join with the given scheme and tuned defaults.
    pub fn phj(scheme: Scheme) -> Self {
        JoinConfig {
            algorithm: Algorithm::partitioned_auto(),
            ..JoinConfig::shj(scheme)
        }
    }

    /// Sets the hash-table mode.
    pub fn with_hash_table(mut self, mode: HashTableMode) -> Self {
        self.hash_table = mode;
        self
    }

    /// Sets the allocator.
    pub fn with_allocator(mut self, alloc: AllocatorKind) -> Self {
        self.allocator = alloc;
        self
    }

    /// Enables or disables grouping.
    pub fn with_grouping(mut self, grouping: bool) -> Self {
        self.grouping = grouping;
        self
    }

    /// Sets the step granularity.
    pub fn with_granularity(mut self, granularity: StepGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Enables result materialisation.
    pub fn with_collect_results(mut self, collect: bool) -> Self {
        self.collect_results = collect;
        self
    }

    /// Sets the morsel size (tuples) of the step pipeline.
    pub fn with_morsel_tuples(mut self, morsel_tuples: usize) -> Self {
        self.morsel_tuples = morsel_tuples;
        self
    }

    /// A descriptive label like "PHJ-PL" or "SHJ-DD", matching the paper's
    /// variant naming.
    pub fn label(&self) -> String {
        match self.scheme {
            Scheme::CpuOnly | Scheme::GpuOnly | Scheme::BasicUnit { .. } => {
                format!("{} ({})", self.scheme.label(), self.algorithm.label())
            }
            _ => format!("{}-{}", self.algorithm.label(), self.scheme.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_variant_names() {
        assert_eq!(
            JoinConfig::shj(Scheme::data_dividing_paper()).label(),
            "SHJ-DD"
        );
        assert_eq!(JoinConfig::phj(Scheme::pipelined_paper()).label(), "PHJ-PL");
        assert_eq!(JoinConfig::phj(Scheme::offload_gpu()).label(), "PHJ-OL");
        assert_eq!(JoinConfig::shj(Scheme::CpuOnly).label(), "CPU-only (SHJ)");
        assert_eq!(Algorithm::Simple.label(), "SHJ");
    }

    #[test]
    fn uses_both_devices_classification() {
        assert!(!Scheme::CpuOnly.uses_both_devices());
        assert!(!Scheme::GpuOnly.uses_both_devices());
        assert!(!Scheme::offload_gpu().uses_both_devices());
        assert!(Scheme::data_dividing_paper().uses_both_devices());
        assert!(Scheme::pipelined_paper().uses_both_devices());
        assert!(Scheme::basic_unit_default().uses_both_devices());
        let mixed_ol = Scheme::Offload {
            partition_on_cpu: [false; 3],
            build_on_cpu: [true, false, true, false],
            probe_on_cpu: [false; 4],
        };
        assert!(mixed_ol.uses_both_devices());
    }

    #[test]
    fn builders_apply_knobs() {
        let cfg = JoinConfig::shj(Scheme::GpuOnly)
            .with_hash_table(HashTableMode::Separate)
            .with_allocator(AllocatorKind::Basic)
            .with_grouping(false)
            .with_collect_results(true)
            .with_granularity(StepGranularity::Coarse);
        assert_eq!(cfg.hash_table, HashTableMode::Separate);
        assert_eq!(cfg.allocator, AllocatorKind::Basic);
        assert!(!cfg.grouping);
        assert!(cfg.collect_results);
        assert_eq!(cfg.granularity, StepGranularity::Coarse);
    }

    #[test]
    fn paper_presets_have_expected_shape() {
        if let Scheme::DataDividing {
            partition_ratio,
            build_ratio,
            probe_ratio,
        } = Scheme::data_dividing_paper()
        {
            assert!(partition_ratio < build_ratio && build_ratio < probe_ratio);
        } else {
            panic!("wrong variant");
        }
        if let Scheme::Pipelined { build, .. } = Scheme::pipelined_paper() {
            // The hash step b1 goes entirely to the GPU.
            assert_eq!(build[0], 0.0);
        } else {
            panic!("wrong variant");
        }
    }
}
