//! The probe phase: steps `p1..p4` of Algorithm 1, split between devices.
//!
//! The probe never changes the table, so one host pass
//! (`HashTable::probe_tuples`, see [`crate::phase`]) resolves every
//! tuple up front: its bucket and the bucket's count, the matching key node
//! and the key nodes visited to find it, and the key's rid count (kept on
//! the host in the key node).  The steps then replay from those arrays:
//!
//! * `p1` reads nothing per tuple;
//! * `p2` reads the bucket (for the exact cache simulator); grouping
//!   orders the tuples by the bucket counts;
//! * `p3` reads the key nodes visited;
//! * `p4` reads the key node and its rid count: one output allocation per
//!   match.  When pairs are collected it also walks the key's rid list, so
//!   pair order is probe order, then rid-list order.

use crate::context::ExecContext;
use crate::divergence::{grouping_order, DEFAULT_GROUPS};
use crate::error::JoinError;
use crate::hashtable::{HashTable, KEY_NODE_BYTES, NIL, RID_NODE_BYTES};
use crate::phase::{run_step, PhaseExecution};
use crate::schedule::Ratios;
use crate::steps::{instr, StepId};
use apu_sim::Phase;
use datagen::Relation;

/// The output of the probe phase.
#[derive(Debug, Clone, Default)]
pub struct ProbeOutput {
    /// Number of `(build rid, probe rid)` result pairs produced.
    pub matches: u64,
    /// The materialised result pairs, when collection was requested.
    pub pairs: Option<Vec<(u32, u32)>>,
}

/// Runs the probe phase of `probe_rel` against `table` with per-step CPU
/// ratios `ratios` (length 4: `p1..p4`).
///
/// When `collect_pairs` is set the `(build rid, probe rid)` pairs are
/// materialised (useful for correctness checks); otherwise only the count is
/// kept, matching the paper's implementation which "simply outputs the
/// matching rid pair".
///
/// # Errors
/// Returns [`JoinError::ArenaExhausted`] when the result arena runs out of
/// space.
///
/// # Panics
/// Panics if `ratios.len() != 4` (an internal invariant of the executor).
pub fn run_probe_phase(
    ctx: &mut ExecContext<'_>,
    probe_rel: &Relation,
    table: &HashTable,
    ratios: &Ratios,
    grouping: bool,
    collect_pairs: bool,
) -> Result<(ProbeOutput, PhaseExecution), JoinError> {
    assert_eq!(ratios.len(), 4, "probe phase has 4 steps (p1..p4)");
    let n = probe_rel.len();
    let mut steps = Vec::with_capacity(4);
    let mut oom: Option<usize> = None;
    let mut matches: u64 = 0;
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    if collect_pairs {
        pairs.reserve(n);
    }

    // The host pass: every tuple's bucket, key node and rid count, found
    // once for p1..p4 to replay.
    let probed = table.probe_tuples(probe_rel.keys());

    // p1: compute hash bucket number.
    steps.push(run_step(
        ctx,
        StepId::P1,
        n,
        ratios.get(0),
        0.0,
        |_, lane, rec| {
            let items = lane.items.len();
            rec.items(items, instr::HASH);
            rec.seq_read(4.0 * items as f64);
            rec.seq_write(4.0 * items as f64);
        },
    ));

    // p2: visit the hash bucket header.
    let bucket_ws = table.bucket_array_bytes() as f64;
    steps.push(run_step(
        ctx,
        StepId::P2,
        n,
        ratios.get(1),
        bucket_ws,
        |ctx, lane, rec| {
            if let Some(sim) = ctx.cache_sim.as_mut() {
                for i in lane.items.clone() {
                    sim.access(table.bucket_addr(probed.bucket[i] as usize));
                }
            }
            let items = lane.items.len();
            rec.items(items, instr::VISIT_HEADER);
            rec.random_read(items as f64);
        },
    ));

    // Optional grouping by expected probe work (the bucket occupancy read in
    // p2), exactly as Section 3.3 describes.
    let order: Vec<u32> = if grouping {
        grouping_order(&probed.bucket_count, DEFAULT_GROUPS)
    } else {
        (0..n as u32).collect()
    };

    // p3: visit the key list.
    let key_ws = bucket_ws + (table.key_node_count() * KEY_NODE_BYTES) as f64;
    steps.push(run_step(
        ctx,
        StepId::P3,
        n,
        ratios.get(2),
        key_ws,
        |ctx, lane, rec| {
            let mut visited = 0u64;
            let mut cache_sim = ctx.cache_sim.as_mut();
            rec.work_each(lane.items.clone().map(|pos| {
                let nodes = probed.visited[order[pos] as usize];
                if let Some(sim) = cache_sim.as_deref_mut() {
                    // A known fidelity bug, replayed as it was: the table's
                    // first key nodes, not the chain's.  Fixing it moves
                    // Table 3's profiled misses, so it is a change of its
                    // own (see ROADMAP.md).
                    for v in 0..nodes {
                        sim.access(table.key_node_addr(v));
                    }
                }
                let nodes = nodes.max(1);
                visited += u64::from(nodes);
                nodes
            }));
            let items = lane.items.len();
            rec.items(items, 0.0);
            rec.instructions(visited as f64 * instr::KEY_NODE_VISIT);
            if grouping {
                rec.instructions(items as f64 * instr::GROUPING_PER_TUPLE);
                rec.seq_read(4.0 * items as f64);
                rec.seq_write(4.0 * items as f64);
            }
            rec.random_read(visited as f64);
        },
    ));

    // p4: visit the matching build tuples, compare keys and produce output.
    let out_ws =
        (table.key_node_count() * KEY_NODE_BYTES + table.rid_node_count() * RID_NODE_BYTES) as f64;
    steps.push(run_step(
        ctx,
        StepId::P4,
        n,
        ratios.get(3),
        out_ws,
        |ctx, lane, rec| {
            if oom.is_some() {
                return;
            }
            // Each work group's output allocations, one per result pair, in
            // one go; a run that does not fit ends the lane at the tuple
            // whose output failed, which still counts as visited.  That
            // tuple's `partial` rids got their allocation before it failed.
            let rids_at = |pos: usize| probed.rids[order[pos] as usize] as usize;
            let (mut end, mut failed, mut partial) = (lane.items.end, false, 0);
            for (group, run) in lane.group_runs() {
                let wanted = run.clone().map(rids_at).sum();
                let got = ctx.allocator.alloc_many(group, 8, wanted);
                if got < wanted {
                    oom = Some(8);
                    partial = got;
                    let short = |&pos: &usize| match partial.checked_sub(rids_at(pos)) {
                        Some(rest) => {
                            partial = rest;
                            false
                        }
                        None => true,
                    };
                    end = run.clone().find(short).unwrap_or(run.end);
                    failed = true;
                    break;
                }
            }
            let (mut matched, mut outputs) = (0usize, 0u64);
            let mut cache_sim = ctx.cache_sim.as_mut();
            rec.work_each((lane.items.start..end).map(|pos| {
                let i = order[pos] as usize;
                let node = probed.key_node[i];
                if node == NIL {
                    return 1;
                }
                let rids = probed.rids[i];
                if let Some(sim) = cache_sim.as_deref_mut() {
                    // A known fidelity bug, replayed as it was: the key
                    // node's index taken as a rid node's, once per rid (see
                    // ROADMAP.md).
                    for _ in 0..rids {
                        sim.access(table.rid_node_addr(node));
                    }
                }
                if collect_pairs {
                    let probe_rid = probe_rel.rid(i);
                    pairs.extend(table.rids_of(node).map(|build_rid| (build_rid, probe_rid)));
                }
                matched += 1;
                outputs += u64::from(rids);
                rids.max(1)
            }));
            if let Some(sim) = cache_sim.filter(|_| failed) {
                // The failed tuple's rids that got an allocation were read.
                let node = probed.key_node[order[end] as usize];
                for _ in 0..partial {
                    sim.access(table.rid_node_addr(node));
                }
            }
            let items = end - lane.items.start + usize::from(failed);
            matches += outputs;
            rec.items(items, instr::VISIT_HEADER);
            rec.instructions(outputs as f64 * instr::OUTPUT_MATCH);
            // Visiting the rid nodes plus the matching build tuple.
            rec.random_read((outputs + matched as u64) as f64);
            rec.seq_write(8.0 * outputs as f64);
        },
    ));

    if let Some(requested) = oom {
        return Err(ctx.arena_error("probe", requested));
    }
    let output = ProbeOutput {
        matches,
        pairs: if collect_pairs { Some(pairs) } else { None },
    };
    ctx.counters.matches += output.matches;
    let recorded = crate::phase::recorded_ratios(ctx, &steps, ratios);
    Ok((
        output,
        PhaseExecution::from_steps(Phase::Probe, recorded, steps, n),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{run_build_phase, BuildTarget};
    use crate::context::arena_bytes_for;
    use apu_sim::SystemSpec;
    use datagen::DataGenConfig;
    use mem_alloc::AllocatorKind;
    use std::collections::HashMap;

    /// Reference join result computed with a plain hash map.
    fn reference_matches(build: &Relation, probe: &Relation) -> u64 {
        let mut map: HashMap<u32, u64> = HashMap::new();
        for &k in build.keys() {
            *map.entry(k).or_insert(0) += 1;
        }
        probe
            .keys()
            .iter()
            .map(|k| map.get(k).copied().unwrap_or(0))
            .sum()
    }

    fn build_table<'a>(sys: &'a SystemSpec, rel: &Relation) -> (HashTable, ExecContext<'a>) {
        let mut ctx = ExecContext::new(
            sys,
            AllocatorKind::tuned(),
            arena_bytes_for(rel.len(), rel.len() * 2),
            false,
        );
        let mut table = HashTable::for_build_size(rel.len());
        run_build_phase(
            &mut ctx,
            rel,
            BuildTarget::Shared(&mut table),
            &Ratios::uniform(0.5, 4),
            false,
        )
        .unwrap();
        (table, ctx)
    }

    #[test]
    fn probe_counts_match_reference_join() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (build, probe) = datagen::generate_pair(&DataGenConfig::small(2000, 4000));
        let (table, mut ctx) = build_table(&sys, &build);
        let (out, phase) = run_probe_phase(
            &mut ctx,
            &probe,
            &table,
            &Ratios::uniform(0.4, 4),
            false,
            false,
        )
        .unwrap();
        assert_eq!(out.matches, reference_matches(&build, &probe));
        assert_eq!(phase.steps.len(), 4);
        assert!(out.pairs.is_none());
    }

    #[test]
    fn collected_pairs_are_real_matches() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (build, probe) = datagen::generate_pair(&DataGenConfig::small(500, 1000));
        let (table, mut ctx) = build_table(&sys, &build);
        let (out, _) =
            run_probe_phase(&mut ctx, &probe, &table, &Ratios::gpu_only(4), false, true).unwrap();
        let pairs = out.pairs.unwrap();
        assert_eq!(pairs.len() as u64, out.matches);
        let build_keys: HashMap<u32, u32> = build.iter().collect();
        let probe_keys: HashMap<u32, u32> = probe.iter().collect();
        for (brid, prid) in pairs.iter().take(200) {
            assert_eq!(
                build_keys[brid], probe_keys[prid],
                "joined pair keys must be equal"
            );
        }
    }

    #[test]
    fn selective_probe_produces_fewer_matches() {
        let sys = SystemSpec::coupled_a8_3870k();
        let low = DataGenConfig::small(1000, 2000).with_selectivity(0.125);
        let (build, probe) = datagen::generate_pair(&low);
        let (table, mut ctx) = build_table(&sys, &build);
        let (out, _) = run_probe_phase(
            &mut ctx,
            &probe,
            &table,
            &Ratios::uniform(0.5, 4),
            false,
            false,
        )
        .unwrap();
        assert_eq!(out.matches, reference_matches(&build, &probe));
        assert!(out.matches < 2000 / 4);
    }

    #[test]
    fn grouping_preserves_the_result() {
        let sys = SystemSpec::coupled_a8_3870k();
        let cfg = DataGenConfig::small(2000, 3000)
            .with_distribution(datagen::KeyDistribution::high_skew());
        let (build, probe) = datagen::generate_pair(&cfg);
        let (table, mut ctx) = build_table(&sys, &build);
        let (plain, _) = run_probe_phase(
            &mut ctx,
            &probe,
            &table,
            &Ratios::uniform(0.5, 4),
            false,
            false,
        )
        .unwrap();
        let (grouped, _) = run_probe_phase(
            &mut ctx,
            &probe,
            &table,
            &Ratios::uniform(0.5, 4),
            true,
            false,
        )
        .unwrap();
        assert_eq!(plain.matches, grouped.matches);
    }

    #[test]
    fn probe_ratio_splits_items() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (build, probe) = datagen::generate_pair(&DataGenConfig::small(100, 1000));
        let (table, mut ctx) = build_table(&sys, &build);
        let (_, phase) = run_probe_phase(
            &mut ctx,
            &probe,
            &table,
            &Ratios::uniform(0.3, 4),
            false,
            false,
        )
        .unwrap();
        for step in &phase.steps {
            assert_eq!(step.cpu_items, 300);
            assert_eq!(step.gpu_items, 700);
        }
    }
}
