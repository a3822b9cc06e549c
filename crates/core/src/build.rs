//! The build phase: steps `b1..b4` of Algorithm 1, split between devices.
//!
//! The phase first does the table work of all four steps in a host pass
//! (see [`crate::phase`]): it hashes every tuple to its bucket and counts
//! it there (`b1`, `b2`, `HashTable::count_tuples`), orders the tuples
//! for grouping by their bucket's final count, then inserts them in that
//! order — key node found or created, rid prepended
//! (`HashTable::insert_tuples`, `b3` and `b4` fused: one walk per tuple).
//! The steps then replay from flat per-tuple arrays:
//!
//! * `b1` reads nothing per tuple;
//! * `b2` reads each tuple's bucket (for the exact cache simulator);
//! * `b3` reads, per place in the order, the key nodes visited, whether the
//!   node was created (one key-node allocation each) and the node itself
//!   (cache simulator);
//! * `b4` makes one rid-node allocation per tuple and reads the key node
//!   (cache simulator).  Its allocations are replayed in `b4`'s own lanes,
//!   after all of `b3`'s: block fetches per work group show in
//!   `serial_atomics`.

use crate::context::ExecContext;
use crate::divergence::{grouping_order, DEFAULT_GROUPS};
use crate::error::JoinError;
use crate::hash::hash_key;
use crate::hashtable::{HashTable, Inserted, KEY_NODE_BYTES, RID_NODE_BYTES};
use crate::phase::{run_step, PhaseExecution};
use crate::schedule::Ratios;
use crate::steps::{instr, StepId};
use apu_sim::Phase;
use datagen::Relation;
use std::ops::Range;

/// Where the build phase inserts tuples: one shared hash table latched
/// between the devices, or one private table per device (which later
/// requires a merge step) — the design tradeoff of Figure 10.
pub enum BuildTarget<'t> {
    /// A single hash table shared by CPU and GPU.
    Shared(&'t mut HashTable),
    /// Private tables; the CPU portion of the input goes into `cpu`, the GPU
    /// portion into `gpu`.
    Separate {
        /// Table receiving the CPU portion.
        cpu: &'t mut HashTable,
        /// Table receiving the GPU portion.
        gpu: &'t mut HashTable,
    },
}

impl BuildTarget<'_> {
    fn is_separate(&self) -> bool {
        matches!(self, BuildTarget::Separate { .. })
    }

    /// Each table with the tuples `0..n` it receives: all of them when
    /// shared, the CPU's `0..cut` and the GPU's `cut..n` when separate.
    fn shares(&mut self, n: usize, cut: usize) -> Vec<(&mut HashTable, Range<usize>)> {
        match self {
            BuildTarget::Shared(t) => vec![(&mut **t, 0..n)],
            BuildTarget::Separate { cpu, gpu } => vec![(&mut **cpu, 0..cut), (&mut **gpu, cut..n)],
        }
    }

    /// The table receiving tuple `i`.
    fn table_of(&self, i: usize, cut: usize) -> &HashTable {
        match self {
            BuildTarget::Shared(t) => t,
            BuildTarget::Separate { cpu, gpu } => {
                if i < cut {
                    cpu
                } else {
                    gpu
                }
            }
        }
    }

    fn bucket_array_bytes(&self) -> usize {
        match self {
            BuildTarget::Shared(t) => t.bucket_array_bytes(),
            BuildTarget::Separate { cpu, gpu } => {
                cpu.bucket_array_bytes() + gpu.bucket_array_bytes()
            }
        }
    }
}

/// Runs the build phase over `rel` with per-step CPU ratios `ratios`
/// (length 4: `b1..b4`).
///
/// With [`BuildTarget::Separate`] the ratios must be uniform (the same tuple
/// must stay on one device for the whole phase, otherwise table ownership
/// would be ambiguous); the executor enforces this by construction.
///
/// # Errors
/// Returns [`JoinError::ArenaExhausted`] when the allocator arena runs out
/// of space (the engine sizes it via [`crate::context::arena_bytes_for`]).
///
/// # Panics
/// Panics if `ratios.len() != 4` or if separate tables are combined with
/// non-uniform ratios — both are internal invariants upheld by the executor.
pub fn run_build_phase(
    ctx: &mut ExecContext<'_>,
    rel: &Relation,
    mut target: BuildTarget<'_>,
    ratios: &Ratios,
    grouping: bool,
) -> Result<PhaseExecution, JoinError> {
    assert_eq!(ratios.len(), 4, "build phase has 4 steps (b1..b4)");
    assert!(
        !target.is_separate() || ratios.is_uniform(),
        "separate hash tables require a uniform (data-dividing) ratio"
    );
    let n = rel.len();
    let separate = target.is_separate();
    // Separate tables pin every tuple to one device for the whole phase
    // (table ownership is positional); the adaptive tuner must not shift
    // ratios mid-phase here, so it is stashed for the duration.  It still
    // adapts every shared-table phase of the same run.
    let stashed_tuner = if separate { ctx.tuner.take() } else { None };
    let bucket_bytes = target.bucket_array_bytes() as f64;
    let mut steps = Vec::with_capacity(4);
    // Bytes of the first allocation that failed, if any; checked after each
    // step so exhaustion aborts the phase instead of panicking mid-kernel.
    let mut oom: Option<usize> = None;

    // The device split of the *phase*, used to pick the table in separate
    // mode (constant across steps because ratios are uniform there).
    let phase_cut = ((n as f64) * ratios.get(0)).round() as usize;

    // The host pass: each table's share of the tuples, hashed (b1) and
    // counted into its buckets (b2).
    let mut bucket = vec![0u32; n];
    for (table, range) in target.shares(n, phase_cut) {
        for i in range.clone() {
            bucket[i] = table.bucket_index(hash_key(rel.key(i))) as u32;
        }
        table.count_tuples(&bucket[range]);
    }

    // Optional grouping: order tuples by the final occupancy of their
    // bucket so wavefronts see similar key-list lengths in b3/b4.
    let order: Vec<u32> = if grouping {
        let mut work = vec![0u32; n];
        for (table, range) in target.shares(n, phase_cut) {
            table.counts_of(&bucket[range.clone()], &mut work[range]);
        }
        grouping_order(&work, DEFAULT_GROUPS)
    } else {
        (0..n as u32).collect()
    };

    // ... and each tuple inserted, in `order` (b3 and b4).
    let mut inserted = Inserted::new(n);
    for (table, range) in target.shares(n, phase_cut) {
        table.insert_tuples(
            rel.keys(),
            rel.rids(),
            &bucket,
            &order,
            range,
            &mut inserted,
        );
    }
    let target = &target;

    // b1: compute hash bucket number.
    steps.push(run_step(
        ctx,
        StepId::B1,
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

    // b2: visit the hash bucket header (and claim a slot).
    steps.push(run_step(
        ctx,
        StepId::B2,
        n,
        ratios.get(1),
        bucket_bytes,
        |ctx, lane, rec| {
            if let Some(sim) = ctx.cache_sim.as_mut() {
                for i in lane.items.clone() {
                    let table = target.table_of(i, phase_cut);
                    sim.access(table.bucket_addr(bucket[i] as usize));
                }
            }
            let items = lane.items.len();
            rec.items(items, instr::VISIT_HEADER);
            rec.random_read(items as f64);
            rec.random_write(items as f64);
            if !separate {
                // The shared table's bucket counter is a latch between devices.
                rec.parallel_atomic(items as f64);
            }
        },
    ));

    // b3: visit the key list, creating a key node if necessary.
    let key_ws = bucket_bytes + (n * KEY_NODE_BYTES) as f64;
    steps.push(run_step(
        ctx,
        StepId::B3,
        n,
        ratios.get(2),
        key_ws,
        |ctx, lane, rec| {
            if oom.is_some() {
                return;
            }
            // Each work group's key-node allocations in one go; a run that
            // does not fit ends the lane at the insert whose node failed.
            let mut end = lane.items.end;
            for (group, run) in lane.group_runs() {
                let created = &inserted.created[run.clone()];
                let wanted = created.iter().filter(|&&c| c).count();
                let got = ctx.allocator.alloc_many(group, KEY_NODE_BYTES, wanted);
                if got < wanted {
                    oom = Some(KEY_NODE_BYTES);
                    let failed = created.iter().enumerate().filter(|(_, &c)| c).nth(got);
                    end = run.start + failed.map_or(0, |(k, _)| k);
                    break;
                }
            }
            let (mut visited, mut created) = (0u64, 0usize);
            let mut cache_sim = ctx.cache_sim.as_mut();
            rec.work_each((lane.items.start..end).map(|pos| {
                let nodes = inserted.visited[pos];
                if let Some(sim) = cache_sim.as_deref_mut() {
                    // A known fidelity bug, replayed as it was: these count
                    // back from the tuple's own node instead of following
                    // its walk.  Fixing it moves Table 3's profiled misses,
                    // so it is a change of its own (see ROADMAP.md).
                    let table = target.table_of(order[pos] as usize, phase_cut);
                    let node = inserted.key_node[pos];
                    for v in 0..nodes {
                        sim.access(table.key_node_addr(node.saturating_sub(v)));
                    }
                }
                visited += u64::from(nodes);
                created += usize::from(inserted.created[pos]);
                nodes.max(1)
            }));
            let items = end - lane.items.start;
            rec.items(items, 0.0);
            rec.instructions(visited as f64 * instr::KEY_NODE_VISIT);
            rec.instructions(created as f64 * instr::KEY_NODE_CREATE);
            rec.random_write(created as f64);
            if grouping {
                rec.instructions(items as f64 * instr::GROUPING_PER_TUPLE);
                rec.seq_read(4.0 * items as f64);
                rec.seq_write(4.0 * items as f64);
            }
            rec.random_read(visited as f64);
            if !separate {
                rec.parallel_atomic(items as f64);
            }
        },
    ));

    // b4: insert the record id into the rid list.
    let rid_ws = (n * (KEY_NODE_BYTES + RID_NODE_BYTES)) as f64;
    steps.push(run_step(
        ctx,
        StepId::B4,
        n,
        ratios.get(3),
        rid_ws,
        |ctx, lane, rec| {
            if oom.is_some() {
                return;
            }
            let mut end = lane.items.end;
            for (group, run) in lane.group_runs() {
                let got = ctx.allocator.alloc_many(group, RID_NODE_BYTES, run.len());
                if got < run.len() {
                    oom = Some(RID_NODE_BYTES);
                    end = run.start + got;
                    break;
                }
            }
            if let Some(sim) = ctx.cache_sim.as_mut() {
                let done = lane.items.start..end;
                for (&i, &node) in order[done.clone()].iter().zip(&inserted.key_node[done]) {
                    let table = target.table_of(i as usize, phase_cut);
                    sim.access(table.key_node_addr(node));
                }
            }
            let items = end - lane.items.start;
            rec.items(items, instr::RID_INSERT);
            rec.random_write(items as f64);
            rec.work_each(std::iter::repeat_n(1, items));
            if !separate {
                rec.parallel_atomic(items as f64);
            }
        },
    ));

    // Record what actually ran: under adaptive tuning the per-step ratios
    // may have shifted mid-phase.
    let recorded = crate::phase::recorded_ratios(ctx, &steps, ratios);
    if let Some(tuner) = stashed_tuner {
        ctx.tuner = Some(tuner);
    }
    if let Some(requested) = oom {
        return Err(ctx.arena_error("build", requested));
    }
    Ok(PhaseExecution::from_steps(Phase::Build, recorded, steps, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::arena_bytes_for;
    use apu_sim::{DeviceKind, SystemSpec};
    use datagen::DataGenConfig;
    use mem_alloc::AllocatorKind;

    fn small_relation(n: usize) -> Relation {
        let (r, _) = datagen::generate_pair(&DataGenConfig::small(n, n));
        r
    }

    #[test]
    fn shared_build_inserts_every_tuple() {
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = small_relation(4096);
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(4096, 4096),
            false,
        );
        let mut table = HashTable::for_build_size(rel.len());
        let phase = run_build_phase(
            &mut ctx,
            &rel,
            BuildTarget::Shared(&mut table),
            &Ratios::uniform(0.3, 4),
            false,
        )
        .unwrap();
        assert_eq!(table.tuple_count(), 4096);
        assert_eq!(table.rid_node_count(), 4096);
        assert_eq!(phase.steps.len(), 4);
        assert!(phase.elapsed() > apu_sim::SimTime::ZERO);
    }

    #[test]
    fn separate_build_splits_tuples_between_tables() {
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = small_relation(1000);
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(1000, 1000),
            false,
        );
        let mut cpu = HashTable::for_build_size(rel.len());
        let mut gpu = HashTable::for_build_size(rel.len());
        run_build_phase(
            &mut ctx,
            &rel,
            BuildTarget::Separate {
                cpu: &mut cpu,
                gpu: &mut gpu,
            },
            &Ratios::uniform(0.25, 4),
            false,
        )
        .unwrap();
        assert_eq!(cpu.tuple_count(), 250);
        assert_eq!(gpu.tuple_count(), 750);
        assert_eq!(cpu.tuple_count() + gpu.tuple_count(), 1000);
    }

    #[test]
    #[should_panic]
    fn separate_tables_reject_pipelined_ratios() {
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = small_relation(100);
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(100, 100),
            false,
        );
        let mut cpu = HashTable::for_build_size(100);
        let mut gpu = HashTable::for_build_size(100);
        let _ = run_build_phase(
            &mut ctx,
            &rel,
            BuildTarget::Separate {
                cpu: &mut cpu,
                gpu: &mut gpu,
            },
            &Ratios::new(vec![0.0, 0.5, 0.5, 0.5]),
            false,
        );
    }

    #[test]
    fn gpu_only_build_runs_everything_on_gpu() {
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = small_relation(512);
        let mut ctx = ExecContext::new(
            &sys,
            AllocatorKind::tuned(),
            arena_bytes_for(512, 512),
            false,
        );
        let mut table = HashTable::for_build_size(rel.len());
        let phase = run_build_phase(
            &mut ctx,
            &rel,
            BuildTarget::Shared(&mut table),
            &Ratios::gpu_only(4),
            false,
        )
        .unwrap();
        for step in &phase.steps {
            assert_eq!(step.cpu_items, 0);
            assert_eq!(step.gpu_items, 512);
        }
        assert_eq!(table.tuple_count(), 512);
    }

    #[test]
    fn grouping_does_not_change_table_contents() {
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = small_relation(2048);
        let build = |grouping: bool| {
            let mut ctx = ExecContext::new(
                &sys,
                AllocatorKind::tuned(),
                arena_bytes_for(2048, 2048),
                false,
            );
            let mut table = HashTable::for_build_size(rel.len());
            run_build_phase(
                &mut ctx,
                &rel,
                BuildTarget::Shared(&mut table),
                &Ratios::uniform(0.5, 4),
                grouping,
            )
            .unwrap();
            (
                table.tuple_count(),
                table.key_node_count(),
                table.rid_node_count(),
            )
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn hash_step_is_much_faster_on_gpu() {
        // The per-step unit costs that motivate fine-grained co-processing
        // (Figure 4): b1 on the GPU should be many times cheaper than on the
        // CPU.
        let sys = SystemSpec::coupled_a8_3870k();
        let rel = small_relation(8192);
        let run = |ratios: Ratios| {
            let mut ctx = ExecContext::new(
                &sys,
                AllocatorKind::tuned(),
                arena_bytes_for(8192, 8192),
                false,
            );
            let mut table = HashTable::for_build_size(rel.len());
            run_build_phase(
                &mut ctx,
                &rel,
                BuildTarget::Shared(&mut table),
                &ratios,
                false,
            )
            .unwrap()
        };
        let cpu_phase = run(Ratios::cpu_only(4));
        let gpu_phase = run(Ratios::gpu_only(4));
        let cpu_unit = cpu_phase.steps[0].unit_cost(DeviceKind::Cpu).unwrap();
        let gpu_unit = gpu_phase.steps[0].unit_cost(DeviceKind::Gpu).unwrap();
        assert!(
            cpu_unit.as_ns() > 8.0 * gpu_unit.as_ns(),
            "b1: CPU {} vs GPU {}",
            cpu_unit,
            gpu_unit
        );
    }
}
