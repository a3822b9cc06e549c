//! The radix-partitioning pass: steps `n1..n3` of Algorithm 2.
//!
//! Like the build and probe phases, a pass does its host work — hashing,
//! counting and scattering every tuple — once, then replays each step's
//! accounting (see [`crate::phase`]).

use crate::context::ExecContext;
use crate::error::JoinError;
use crate::hash::{hash_key, partitions_per_pass, radix_partition_of};
use crate::phase::{run_step, PhaseExecution};
use crate::schedule::Ratios;
use crate::steps::{instr, StepId};
use apu_sim::Phase;
use datagen::Relation;

/// Runs one radix-partitioning pass over `rel`, splitting tuples into
/// `2^bits` partitions by the hash bits of pass `pass`, with per-step CPU
/// ratios `ratios` (length 3: `n1..n3`).
///
/// Returns the partitions and the execution record of the pass.
///
/// # Errors
/// Returns [`JoinError::ArenaExhausted`] when the partition arena runs out
/// of space.
///
/// # Panics
/// Panics if `ratios.len() != 3` or `bits` is outside `1..=16` — internal
/// invariants upheld by the executor and request validation.
pub fn run_partition_pass(
    ctx: &mut ExecContext<'_>,
    rel: &Relation,
    bits: u32,
    pass: u32,
    ratios: &Ratios,
) -> Result<(Vec<Relation>, PhaseExecution), JoinError> {
    assert_eq!(ratios.len(), 3, "a partition pass has 3 steps (n1..n3)");
    assert!(bits > 0 && bits <= 16, "radix bits must be in 1..=16");
    let n = rel.len();
    let num_partitions = partitions_per_pass(bits);
    let mut steps = Vec::with_capacity(3);
    let mut oom: Option<usize> = None;

    // The host pass: every tuple's partition (n1), the partition sizes (n2)
    // and the scatter (n3), done once for the steps to replay.
    let part_no: Vec<u32> = rel
        .keys()
        .iter()
        .map(|&key| radix_partition_of(hash_key(key), bits, pass) as u32)
        .collect();
    let mut histogram = vec![0u32; num_partitions];
    for &p in &part_no {
        histogram[p as usize] += 1;
    }
    let mut partitions: Vec<Relation> = histogram
        .iter()
        .map(|&c| Relation::with_capacity(c as usize))
        .collect();
    for (i, &p) in part_no.iter().enumerate() {
        partitions[p as usize].push(rel.rid(i), rel.key(i));
    }

    // n1: compute partition number.
    steps.push(run_step(
        ctx,
        StepId::N1,
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

    // n2: visit the partition header (histogram of partition sizes).
    let header_ws = (num_partitions * 8) as f64;
    steps.push(run_step(
        ctx,
        StepId::N2,
        n,
        ratios.get(1),
        header_ws,
        |_, lane, rec| {
            let items = lane.items.len();
            rec.items(items, instr::VISIT_HEADER);
            rec.random_read(items as f64);
            rec.random_write(items as f64);
            // The partition headers are shared between the devices.
            rec.parallel_atomic(items as f64);
        },
    ));

    // n3: insert the <key, rid> pair into its partition.  Each insertion
    // claims space from the software allocator (the "output buffer for a
    // partition" allocation of Section 3.3), replayed a work group's run at
    // a time.
    // The scatter working set: each partition's active output block.
    let scatter_ws = (num_partitions * 2048) as f64;
    steps.push(run_step(
        ctx,
        StepId::N3,
        n,
        ratios.get(2),
        scatter_ws,
        |ctx, lane, rec| {
            if oom.is_some() {
                return;
            }
            let mut items = 0;
            for (group, run) in lane.group_runs() {
                let got = ctx.allocator.alloc_many(group, 8, run.len());
                items += got;
                if got < run.len() {
                    oom = Some(8);
                    break;
                }
            }
            rec.items(items, instr::PARTITION_INSERT);
            rec.random_write(items as f64);
            rec.seq_write(8.0 * items as f64);
            rec.work_each(std::iter::repeat_n(1, items));
        },
    ));

    if let Some(requested) = oom {
        return Err(ctx.arena_error("partition", requested));
    }
    let recorded = crate::phase::recorded_ratios(ctx, &steps, ratios);
    Ok((
        partitions,
        PhaseExecution::from_steps(Phase::Partition, recorded, steps, n),
    ))
}

/// Chooses the number of radix bits for one pass so that an average
/// partition pair (build + probe + hash table) fits comfortably in the
/// shared cache — the paper tunes this to the memory hierarchy.
pub(crate) fn default_radix_bits(build_tuples: usize, cache_bytes: usize) -> u32 {
    // Bytes a partition pair occupies per build tuple: tuple (8) + probe
    // share (8, assuming |S| ≈ |R| per partition) + hash-table nodes (28).
    let per_tuple = 44usize;
    let target_tuples = (cache_bytes / 2).max(1) / per_tuple;
    let mut bits = 0u32;
    while bits < 12 && (build_tuples >> bits) > target_tuples.max(1) {
        bits += 1;
    }
    bits.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::arena_bytes_for;
    use apu_sim::SystemSpec;
    use datagen::DataGenConfig;
    use mem_alloc::AllocatorKind;

    fn ctx_for(sys: &SystemSpec, n: usize) -> ExecContext<'_> {
        ExecContext::new(sys, AllocatorKind::tuned(), arena_bytes_for(n, n), false)
    }

    #[test]
    fn partitions_preserve_the_multiset_of_tuples() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (rel, _) = datagen::generate_pair(&DataGenConfig::small(5000, 10));
        let mut ctx = ctx_for(&sys, 5000);
        let (parts, phase) =
            run_partition_pass(&mut ctx, &rel, 4, 0, &Ratios::uniform(0.3, 3)).unwrap();
        assert_eq!(parts.len(), 16);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, rel.len());
        assert_eq!(phase.steps.len(), 3);

        // Every (rid, key) pair must survive partitioning exactly once.
        let mut original: Vec<(u32, u32)> = rel.iter().collect();
        let mut scattered: Vec<(u32, u32)> = parts.iter().flat_map(|p| p.iter()).collect();
        original.sort_unstable();
        scattered.sort_unstable();
        assert_eq!(original, scattered);
    }

    #[test]
    fn same_key_lands_in_the_same_partition() {
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = Relation::from_keys(vec![7; 100]);
        let mut ctx = ctx_for(&sys, 100);
        let (parts, _) =
            run_partition_pass(&mut ctx, &rel, 3, 0, &Ratios::uniform(0.5, 3)).unwrap();
        let non_empty: Vec<_> = parts.iter().filter(|p| !p.is_empty()).collect();
        assert_eq!(non_empty.len(), 1);
        assert_eq!(non_empty[0].len(), 100);
    }

    #[test]
    fn build_and_probe_of_matching_keys_agree_on_partition() {
        // The join relies on matching keys from R and S landing in the same
        // partition index.
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(2000, 2000));
        let mut ctx = ctx_for(&sys, 4000);
        let (pr, _) = run_partition_pass(&mut ctx, &r, 4, 0, &Ratios::uniform(0.5, 3)).unwrap();
        let (ps, _) = run_partition_pass(&mut ctx, &s, 4, 0, &Ratios::uniform(0.5, 3)).unwrap();
        use std::collections::HashMap;
        let mut key_part: HashMap<u32, usize> = HashMap::new();
        for (idx, p) in pr.iter().enumerate() {
            for &k in p.keys() {
                key_part.insert(k, idx);
            }
        }
        for (idx, p) in ps.iter().enumerate() {
            for &k in p.keys() {
                if let Some(&bidx) = key_part.get(&k) {
                    assert_eq!(bidx, idx, "key {k} split across partitions");
                }
            }
        }
    }

    #[test]
    fn second_pass_uses_different_bits() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (rel, _) = datagen::generate_pair(&DataGenConfig::small(4000, 10));
        let mut ctx = ctx_for(&sys, 8000);
        let (pass0, _) =
            run_partition_pass(&mut ctx, &rel, 4, 0, &Ratios::uniform(0.5, 3)).unwrap();
        // Re-partition the first non-empty partition with pass 1; tuples must
        // spread again rather than all landing in one place.
        let sub = pass0
            .iter()
            .find(|p| p.len() > 32)
            .expect("a sizeable partition");
        let (pass1, _) = run_partition_pass(&mut ctx, sub, 4, 1, &Ratios::uniform(0.5, 3)).unwrap();
        let non_empty = pass1.iter().filter(|p| !p.is_empty()).count();
        assert!(non_empty > 1, "second pass failed to spread tuples");
    }

    #[test]
    fn default_radix_bits_scale_with_input() {
        let cache = 4 * 1024 * 1024;
        assert!(default_radix_bits(1 << 14, cache) <= 2);
        let big = default_radix_bits(16 * 1024 * 1024, cache);
        assert!(big >= 6, "16M tuples need many partitions, got {big} bits");
        assert!(default_radix_bits(100, cache) >= 1);
    }

    #[test]
    #[should_panic]
    fn zero_bits_is_rejected() {
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = Relation::from_keys(vec![1, 2, 3]);
        let mut ctx = ctx_for(&sys, 3);
        let _ = run_partition_pass(&mut ctx, &rel, 0, 0, &Ratios::uniform(0.5, 3));
    }
}
