//! The outcome of one join execution, and a reference join used to verify
//! correctness.

use crate::context::ExecCounters;
use crate::phase::PhaseExecution;
use apu_sim::{PhaseBreakdown, SimTime};
use datagen::Relation;
use std::collections::HashMap;

/// The per-phase CPU share that the BasicUnit chunk scheduler ended up
/// choosing (Figures 17 and 18 of the appendix).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BasicUnitRatios {
    /// CPU share of the partition phase.
    pub partition: f64,
    /// CPU share of the build phase.
    pub build: f64,
    /// CPU share of the probe phase.
    pub probe: f64,
}

/// Everything a join execution produces: the result (or its cardinality),
/// the per-phase simulated time breakdown, per-step execution records and
/// run-wide counters.
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    /// Number of `(build rid, probe rid)` result pairs.
    pub matches: u64,
    /// Materialised result pairs, when requested via
    /// [`JoinConfig::collect_results`](crate::config::JoinConfig).
    pub pairs: Option<Vec<(u32, u32)>>,
    /// Simulated elapsed time per phase (the stacked bars of Figures 3, 15
    /// and 19).
    pub breakdown: PhaseBreakdown,
    /// Per-phase execution records (per-step costs, ratios, pipeline delays).
    pub phases: Vec<PhaseExecution>,
    /// Run-wide counters (latch overhead, cache statistics, allocator
    /// activity, PCI-e traffic, intermediate results).
    pub counters: ExecCounters,
    /// Observed per-phase CPU shares when the BasicUnit scheduler was used.
    pub basic_unit_ratios: Option<BasicUnitRatios>,
    /// How the runtime tuner adapted the workload ratios, when the request
    /// ran with [`Tuning::Adaptive`](crate::engine::Tuning): re-plan and
    /// sample counts, and initial vs converged ratios per step series.
    pub adaptive: Option<hj_adaptive::AdaptiveReport>,
    /// What the disk-spill path did, when the request took it (requested
    /// via [`JoinRequestBuilder::spill`](crate::engine::JoinRequestBuilder::spill)):
    /// bytes spilled/restored, partitions evicted, recursion depth and
    /// spill wall-clock.  `None` when the request ran the plain in-core
    /// fast path; `Some` whenever the spill executor ran — check
    /// [`bytes_spilled`](hj_spill::SpillReport::bytes_spilled) to tell
    /// whether any bytes actually hit disk (pressure can subside before
    /// anything spills).
    pub spill: Option<hj_spill::SpillReport>,
    /// The per-join flight recorder: an EXPLAIN-ANALYZE-style tree of
    /// phase/step spans plus spill/cache/admission/re-plan events,
    /// assembled **after** execution so traced and untraced runs produce
    /// byte-identical join results.  `Some` only when the request opted in
    /// via [`JoinRequestBuilder::trace`](crate::engine::JoinRequestBuilder::trace).
    pub trace: Option<hj_metrics::JoinTrace>,
    /// Wall-clock nanoseconds the request waited for a session: the
    /// serving layer takes it off the time it measured around the
    /// submission, so admission learns service time, not waiting.
    pub(crate) queue_wait_ns: u64,
}

impl JoinOutcome {
    /// Total simulated elapsed time.
    pub fn total_time(&self) -> SimTime {
        self.breakdown.total()
    }
}

/// Reference equi-join result cardinality computed with a plain hash map;
/// used by tests and examples to verify every scheme produces the same
/// number of matches.
pub fn reference_match_count(build: &Relation, probe: &Relation) -> u64 {
    let mut counts: HashMap<u32, u64> = HashMap::with_capacity(build.len());
    for &k in build.keys() {
        *counts.entry(k).or_insert(0) += 1;
    }
    probe
        .keys()
        .iter()
        .map(|k| counts.get(k).copied().unwrap_or(0))
        .sum()
}

/// Reference equi-join result pairs `(build rid, probe rid)`, sorted, for
/// exact comparison against materialised results.
///
/// A sort-merge join over `(key, rid)`: it shares no code (and no hashing)
/// with the hash tables it is the oracle for.
pub fn reference_pairs(build: &Relation, probe: &Relation) -> Vec<(u32, u32)> {
    let by_key = |relation: &Relation| {
        let mut tuples: Vec<(u32, u32)> = relation.iter().map(|(rid, key)| (key, rid)).collect();
        tuples.sort_unstable();
        tuples
    };
    let (b, p) = (by_key(build), by_key(probe));
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < b.len() && j < p.len() {
        match b[i].0.cmp(&p[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let key = b[i].0;
                let b_end = i + b[i..].iter().take_while(|t| t.0 == key).count();
                let p_end = j + p[j..].iter().take_while(|t| t.0 == key).count();
                for &(_, brid) in &b[i..b_end] {
                    out.extend(p[j..p_end].iter().map(|&(_, prid)| (brid, prid)));
                }
                (i, j) = (b_end, p_end);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::Phase;

    #[test]
    fn reference_join_counts_duplicates() {
        let build = Relation::from_columns(vec![0, 1, 2], vec![5, 5, 7]);
        let probe = Relation::from_columns(vec![10, 11, 12], vec![5, 7, 9]);
        assert_eq!(reference_match_count(&build, &probe), 3);
        let pairs = reference_pairs(&build, &probe);
        assert_eq!(pairs, vec![(0, 10), (1, 10), (2, 11)]);
    }

    #[test]
    fn outcome_total_is_breakdown_total() {
        let mut o = JoinOutcome::default();
        o.breakdown.add(Phase::Build, SimTime::from_ms(3.0));
        o.breakdown.add(Phase::Probe, SimTime::from_ms(7.0));
        assert_eq!(o.total_time().as_ms(), 10.0);
    }
}
