//! Fine-grained step definitions and per-step instruction estimates.
//!
//! Algorithms 1 and 2 of the paper decompose the hash join into per-tuple
//! steps:
//!
//! * partition pass: `n1` compute partition number, `n2` visit the partition
//!   header, `n3` insert the `<key, rid>` pair into the partition;
//! * build: `b1` compute hash bucket number, `b2` visit the bucket header,
//!   `b3` visit the key list (creating a key node if necessary), `b4` insert
//!   the record id into the rid list;
//! * probe: `p1` compute hash bucket number, `p2` visit the bucket header,
//!   `p3` visit the key list, `p4` visit the matching build tuples and emit
//!   output tuples.
//!
//! Each step is data parallel over tuples and separated from the next by a
//! data dependency; a *step series* (build, probe, or one partition pass) is
//! the unit over which the co-processing schemes assign workload ratios.
//!
//! The instruction estimates in `instr` play the role of the AMD profiler
//! counts the paper feeds into its cost model (`#I^i_XPU` in Table 2); they
//! are per-tuple (or per-node for list traversals) and deliberately include
//! the OpenCL work-item dispatch overhead, which is why the hash steps cost
//! far more than a bare Murmur evaluation.

/// Identifier of one fine-grained step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepId {
    /// Partition: compute partition number.
    N1,
    /// Partition: visit the partition header.
    N2,
    /// Partition: insert the `<key, rid>` pair into the partition.
    N3,
    /// Build: compute hash bucket number.
    B1,
    /// Build: visit the hash bucket header.
    B2,
    /// Build: visit the key list, creating a key node if necessary.
    B3,
    /// Build: insert the record id into the rid list.
    B4,
    /// Probe: compute hash bucket number.
    P1,
    /// Probe: visit the hash bucket header.
    P2,
    /// Probe: visit the key list.
    P3,
    /// Probe: visit matching build tuples and produce output tuples.
    P4,
}

impl StepId {
    /// The steps of one partition pass, in order.
    pub const PARTITION: [StepId; 3] = [StepId::N1, StepId::N2, StepId::N3];
    /// The steps of the build phase, in order.
    pub const BUILD: [StepId; 4] = [StepId::B1, StepId::B2, StepId::B3, StepId::B4];
    /// The steps of the probe phase, in order.
    pub const PROBE: [StepId; 4] = [StepId::P1, StepId::P2, StepId::P3, StepId::P4];
    /// Every step of PHJ in execution order (one partition pass shown).
    pub const ALL: [StepId; 11] = [
        StepId::N1,
        StepId::N2,
        StepId::N3,
        StepId::B1,
        StepId::B2,
        StepId::B3,
        StepId::B4,
        StepId::P1,
        StepId::P2,
        StepId::P3,
        StepId::P4,
    ];

    /// Lower-case label ("n1", "b3", ...), matching Figure 4's x axis.
    pub fn label(self) -> &'static str {
        match self {
            StepId::N1 => "n1",
            StepId::N2 => "n2",
            StepId::N3 => "n3",
            StepId::B1 => "b1",
            StepId::B2 => "b2",
            StepId::B3 => "b3",
            StepId::B4 => "b4",
            StepId::P1 => "p1",
            StepId::P2 => "p2",
            StepId::P3 => "p3",
            StepId::P4 => "p4",
        }
    }

    /// True for the hash-value computation steps (`n1`, `b1`, `p1`), which
    /// the GPU accelerates by more than 15x in the paper.
    pub fn is_hash_step(self) -> bool {
        matches!(self, StepId::N1 | StepId::B1 | StepId::P1)
    }

    /// The step series this step belongs to and its zero-based index within
    /// the series — the coordinates the adaptive tuner addresses telemetry
    /// and re-planned ratios by.
    pub(crate) fn series_index(self) -> (crate::pipeline::StepSeries, usize) {
        use crate::pipeline::StepSeries;
        match self {
            StepId::N1 => (StepSeries::Partition, 0),
            StepId::N2 => (StepSeries::Partition, 1),
            StepId::N3 => (StepSeries::Partition, 2),
            StepId::B1 => (StepSeries::Build, 0),
            StepId::B2 => (StepSeries::Build, 1),
            StepId::B3 => (StepSeries::Build, 2),
            StepId::B4 => (StepSeries::Build, 3),
            StepId::P1 => (StepSeries::Probe, 0),
            StepId::P2 => (StepSeries::Probe, 1),
            StepId::P3 => (StepSeries::Probe, 2),
            StepId::P4 => (StepSeries::Probe, 3),
        }
    }
}

impl std::fmt::Display for StepId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-tuple (or per-node) dynamic-instruction estimates for each step,
/// standing in for the AMD CodeXL / APP Profiler measurements the paper uses
/// to instantiate its cost model (Section 4.2).
pub(crate) mod instr {
    /// Hash-value computation steps (`n1`, `b1`, `p1`): MurmurHash 2.0,
    /// bucket masking and the OpenCL work-item overhead.
    pub(crate) const HASH: f64 = 180.0;
    /// Visiting a bucket or partition header (`n2`, `b2`, `p2`).
    pub(crate) const VISIT_HEADER: f64 = 24.0;
    /// Walking one node of a key list (`b3`, `p3`), per node visited.
    pub(crate) const KEY_NODE_VISIT: f64 = 28.0;
    /// Creating and linking a new key node (`b3` when the key is new).
    pub(crate) const KEY_NODE_CREATE: f64 = 40.0;
    /// Inserting a record id into a rid list (`b4`).
    pub(crate) const RID_INSERT: f64 = 30.0;
    /// Visiting one matching rid node and emitting an output pair (`p4`).
    pub(crate) const OUTPUT_MATCH: f64 = 26.0;
    /// Scattering one `<key, rid>` pair into its partition (`n3`).
    pub(crate) const PARTITION_INSERT: f64 = 42.0;
    /// Reordering overhead per tuple of the grouping-based divergence
    /// optimisation (Section 3.3), charged when grouping is enabled.
    pub(crate) const GROUPING_PER_TUPLE: f64 = 14.0;
    /// Per-tuple cost of the merge step that separate hash tables require:
    /// the destination bucket is recomputed (a hash evaluation) and the
    /// `<key, rid>` pair is re-inserted into the destination table.
    pub(crate) const MERGE_PER_TUPLE: f64 = 230.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_series_have_expected_lengths() {
        assert_eq!(StepId::PARTITION.len(), 3);
        assert_eq!(StepId::BUILD.len(), 4);
        assert_eq!(StepId::PROBE.len(), 4);
        assert_eq!(StepId::ALL.len(), 11);
    }

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(StepId::N1.label(), "n1");
        assert_eq!(StepId::B3.label(), "b3");
        assert_eq!(StepId::P4.label(), "p4");
        assert_eq!(format!("{}", StepId::B2), "b2");
    }

    #[test]
    fn hash_steps_are_flagged() {
        assert!(StepId::N1.is_hash_step());
        assert!(StepId::B1.is_hash_step());
        assert!(StepId::P1.is_hash_step());
        assert!(!StepId::B2.is_hash_step());
        assert!(!StepId::P3.is_hash_step());
    }

    #[test]
    fn hash_step_is_most_expensive_per_tuple() {
        // The premise of off-loading hash computation to the GPU: it is the
        // instruction-heaviest step.
        const { assert!(instr::HASH > instr::KEY_NODE_CREATE) };
        const { assert!(instr::HASH > instr::PARTITION_INSERT) };
    }
}
