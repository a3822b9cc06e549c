//! Coarse-grained step definition (PHJ-PL', Section 3.3 / Table 3).
//!
//! After partitioning, the further join processing of a partition pair
//! `<R_i, S_i>` is performed by one thread: the whole per-pair SHJ is a
//! *single* step and a partition pair is one input item.  Those per-pair
//! joins use separate (private) hash tables, which loses the cache-reuse
//! opportunities of the fine-grained variants — the paper measures more L2
//! misses and a higher miss ratio (Table 3).

use crate::context::ExecContext;
use crate::error::JoinError;
use crate::hash::hash_key;
use crate::hashtable::HashTable;
use crate::steps::instr;
use apu_sim::{DeviceKind, SimTime};
use datagen::Relation;

/// Result of joining all partition pairs with the coarse step definition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct CoarseJoinResult {
    /// Result pairs produced.
    pub matches: u64,
    /// Simulated time attributable to building the per-pair tables.
    pub build_time: SimTime,
    /// Simulated time attributable to probing them.
    pub probe_time: SimTime,
    /// Elapsed time of the coarse step (pairs run on both devices
    /// concurrently; this is the max of the device clocks).
    pub elapsed: SimTime,
    /// Pairs processed by the CPU.
    pub cpu_pairs: usize,
    /// Pairs processed by the GPU.
    pub gpu_pairs: usize,
}

/// Joins every partition pair with one coarse step per pair, greedily
/// dispatching pairs to whichever device becomes idle first.
///
/// `collect` appends materialised result pairs to `pairs_out` when provided.
///
/// # Errors
/// Returns [`JoinError::ArenaExhausted`] when the arena runs out of space.
pub(crate) fn run_coarse_pair_joins(
    ctx: &mut ExecContext<'_>,
    parts_r: &[Relation],
    parts_s: &[Relation],
    pairs_out: Option<&mut Vec<(u32, u32)>>,
) -> Result<CoarseJoinResult, JoinError> {
    assert_eq!(parts_r.len(), parts_s.len(), "partition counts must match");
    let mut result = CoarseJoinResult::default();
    let mut clocks = apu_sim::DeviceClocks::new();
    let mut collected = pairs_out;

    for (r_part, s_part) in parts_r.iter().zip(parts_s.iter()) {
        if r_part.is_empty() && s_part.is_empty() {
            continue;
        }
        let device = clocks.idlest();
        let (matches, build_t, probe_t) =
            join_one_pair(ctx, r_part, s_part, device, collected.as_deref_mut())?;
        result.matches += matches;
        result.build_time += build_t;
        result.probe_time += probe_t;
        clocks.advance(device, build_t + probe_t);
        match device {
            DeviceKind::Cpu => result.cpu_pairs += 1,
            DeviceKind::Gpu => result.gpu_pairs += 1,
        }
    }
    result.elapsed = clocks.elapsed();
    ctx.counters.matches += result.matches;
    Ok(result)
}

/// Joins one partition pair entirely on `device` as a single coarse step.
fn join_one_pair(
    ctx: &mut ExecContext<'_>,
    r_part: &Relation,
    s_part: &Relation,
    device: DeviceKind,
    mut pairs_out: Option<&mut Vec<(u32, u32)>>,
) -> Result<(u64, SimTime, SimTime), JoinError> {
    let mut table = HashTable::for_build_size(r_part.len());
    // The per-pair table is private to one thread; several pairs are in
    // flight concurrently on the device, so they compete for the cache.
    let concurrency = match device {
        DeviceKind::Cpu => crate::context::CPU_WORK_GROUPS,
        DeviceKind::Gpu => crate::context::GPU_WORK_GROUPS,
    } as f64;
    let table_bytes = (r_part.len() * 28 + table.bucket_array_bytes()) as f64;
    let mem = ctx.mem_ctx(device, table_bytes * concurrency);

    // Build the pair's private table, accumulating one aggregate cost.
    let mut build_rec = ctx.recorder_for(device);
    let alloc_before = ctx.alloc_snapshot();
    for i in 0..r_part.len() {
        let idx = table.bucket_index(hash_key(r_part.key(i)));
        table.visit_bucket_for_build(idx);
        let Ok((kn, created, visited)) =
            table.find_or_create_key(idx, r_part.key(i), ctx.allocator.as_mut(), 0)
        else {
            return Err(ctx.arena_error("coarse join", crate::hashtable::KEY_NODE_BYTES));
        };
        if table
            .insert_rid(kn, r_part.rid(i), ctx.allocator.as_mut(), 0)
            .is_err()
        {
            return Err(ctx.arena_error("coarse join", crate::hashtable::RID_NODE_BYTES));
        }
        build_rec.item(instr::HASH + instr::VISIT_HEADER + instr::RID_INSERT);
        build_rec.instructions(visited as f64 * instr::KEY_NODE_VISIT);
        if created {
            build_rec.instructions(instr::KEY_NODE_CREATE);
        }
        build_rec.random_read(1.0 + visited as f64);
        build_rec.random_write(2.0);
        build_rec.work(visited.max(1));
    }
    let delta = ctx.alloc_snapshot().delta_since(&alloc_before);
    build_rec.serial_atomic(delta.global_atomics as f64);
    build_rec.local_atomic(delta.local_atomics as f64);
    let build_cost = build_rec.finish();

    // Probe the pair.
    let mut probe_rec = ctx.recorder_for(device);
    let alloc_before = ctx.alloc_snapshot();
    let mut matches = 0u64;
    for i in 0..s_part.len() {
        let idx = table.bucket_index(hash_key(s_part.key(i)));
        let (found, visited) = table.find_key(idx, s_part.key(i));
        probe_rec.item(instr::HASH + instr::VISIT_HEADER);
        probe_rec.instructions(visited.max(1) as f64 * instr::KEY_NODE_VISIT);
        probe_rec.random_read(1.0 + visited as f64);
        let mut local = 0u32;
        if let Some(kn) = found {
            for build_rid in table.rids_of(kn) {
                local += 1;
                if ctx.allocator.alloc(0, 8).is_none() {
                    return Err(ctx.arena_error("coarse join", 8));
                }
                if let Some(out) = pairs_out.as_deref_mut() {
                    out.push((build_rid, s_part.rid(i)));
                }
            }
        }
        matches += local as u64;
        probe_rec.instructions(local as f64 * instr::OUTPUT_MATCH);
        probe_rec.random_read(local as f64);
        probe_rec.seq_write(8.0 * local as f64);
        probe_rec.work((visited + local).max(1));
    }
    let delta = ctx.alloc_snapshot().delta_since(&alloc_before);
    probe_rec.serial_atomic(delta.global_atomics as f64);
    probe_rec.local_atomic(delta.local_atomics as f64);
    let probe_cost = probe_rec.finish();

    let dev = ctx.device(device);
    let build_kt = dev.kernel_time(&build_cost, &mem);
    let probe_kt = dev.kernel_time(&probe_cost, &mem);
    ctx.counters.lock_overhead += build_kt.atomic + probe_kt.atomic;
    ctx.counters.divergence_overhead += build_kt.divergence_overhead + probe_kt.divergence_overhead;
    let accesses = build_cost.random_reads
        + build_cost.random_writes
        + probe_cost.random_reads
        + probe_cost.random_writes;
    ctx.counters.analytic_accesses += accesses;
    ctx.counters.analytic_misses += accesses * (1.0 - mem.random_hit_rate);

    Ok((matches, build_kt.total(), probe_kt.total()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::arena_bytes_for;
    use crate::partition::run_partition_pass;
    use crate::schedule::Ratios;
    use apu_sim::SystemSpec;
    use datagen::DataGenConfig;
    use mem_alloc::AllocatorKind;

    fn partitioned_pair(n: usize, bits: u32) -> (Vec<Relation>, Vec<Relation>, u64) {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(n, n * 2));
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(n, n * 2),
            false,
        );
        let (pr, _) = run_partition_pass(&mut ctx, &r, bits, 0, &Ratios::uniform(0.5, 3)).unwrap();
        let (ps, _) = run_partition_pass(&mut ctx, &s, bits, 0, &Ratios::uniform(0.5, 3)).unwrap();
        let expected = crate::result::reference_match_count(&r, &s);
        (pr, ps, expected)
    }

    #[test]
    fn coarse_join_matches_reference() {
        let (pr, ps, expected) = partitioned_pair(3000, 4);
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(3000, 6000),
            false,
        );
        let result = run_coarse_pair_joins(&mut ctx, &pr, &ps, None).unwrap();
        assert_eq!(result.matches, expected);
        assert!(result.elapsed > SimTime::ZERO);
        assert!(result.cpu_pairs + result.gpu_pairs > 0);
    }

    #[test]
    fn coarse_join_uses_both_devices() {
        let (pr, ps, _) = partitioned_pair(4000, 4);
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(4000, 8000),
            false,
        );
        let result = run_coarse_pair_joins(&mut ctx, &pr, &ps, None).unwrap();
        assert!(result.cpu_pairs > 0);
        assert!(result.gpu_pairs > 0);
    }

    #[test]
    fn coarse_join_collects_pairs_when_asked() {
        let (pr, ps, expected) = partitioned_pair(500, 3);
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(500, 1000),
            false,
        );
        let mut pairs = Vec::new();
        let result = run_coarse_pair_joins(&mut ctx, &pr, &ps, Some(&mut pairs)).unwrap();
        assert_eq!(pairs.len() as u64, result.matches);
        assert_eq!(result.matches, expected);
    }

    #[test]
    fn coarse_misses_exceed_fine_grained_misses() {
        // The essence of Table 3: the coarse definition suffers more cache
        // misses per access because concurrent private tables compete for the
        // shared cache.
        let (pr, ps, _) = partitioned_pair(20_000, 3);
        let sys = SystemSpec::coupled_a8_3870k();

        let mut coarse_ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(20_000, 40_000),
            false,
        );
        run_coarse_pair_joins(&mut coarse_ctx, &pr, &ps, None).unwrap();
        let coarse_ratio =
            coarse_ctx.counters.analytic_misses / coarse_ctx.counters.analytic_accesses.max(1.0);

        // Fine-grained: join each pair through the shared-table phase runners.
        let mut fine_ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(20_000, 40_000),
            false,
        );
        for (r, s) in pr.iter().zip(ps.iter()) {
            if r.is_empty() && s.is_empty() {
                continue;
            }
            let mut table = HashTable::for_build_size(r.len());
            crate::build::run_build_phase(
                &mut fine_ctx,
                r,
                crate::build::BuildTarget::Shared(&mut table),
                &Ratios::uniform(0.3, 4),
                false,
            )
            .unwrap();
            crate::probe::run_probe_phase(
                &mut fine_ctx,
                s,
                &table,
                &Ratios::uniform(0.4, 4),
                false,
                false,
            )
            .unwrap();
        }
        let fine_ratio =
            fine_ctx.counters.analytic_misses / fine_ctx.counters.analytic_accesses.max(1.0);
        assert!(
            coarse_ratio > fine_ratio,
            "coarse miss ratio {coarse_ratio:.3} should exceed fine {fine_ratio:.3}"
        );
    }
}
