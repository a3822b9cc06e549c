//! The join execution skeleton: turns a [`JoinConfig`] into a
//! [`JoinOutcome`] on a caller-provided [`ExecContext`].
//!
//! This is where the co-processing schemes, the hash-table mode, the
//! discrete-architecture transfer/merge accounting and the two algorithms
//! (SHJ / PHJ) come together, mirroring Section 3 of the paper.  The
//! functions here are *fallible* and allocate only from the context's
//! arena, so a long-lived [`JoinEngine`](crate::engine::JoinEngine) can run
//! many requests over one reusable arena and reject, rather than crash on,
//! a request that outgrows it.

use crate::build::{run_build_phase, BuildTarget};
use crate::coarse::run_coarse_pair_joins;
use crate::config::{Algorithm, HashTableMode, JoinConfig, Scheme, StepGranularity};
use crate::context::ExecContext;
use crate::error::JoinError;
use crate::hashtable::HashTable;
use crate::partition::{default_radix_bits, run_partition_pass};
use crate::phase::PhaseExecution;
use crate::probe::run_probe_phase;
use crate::result::{BasicUnitRatios, JoinOutcome};
use crate::schedule::Ratios;
use crate::scheme::{basic_unit, RatioPlan};
use crate::steps::instr;
use apu_sim::{DeviceKind, Phase, SimTime, SystemSpec};
use datagen::Relation;

/// Runs one hash join of `build ⨝ probe` as configured by `cfg`, using the
/// devices and arena of `ctx`.
///
/// The relations are processed for real (the outcome's match count can be
/// checked against [`crate::result::reference_match_count`]); elapsed times
/// are simulated by the device model of `apu-sim`.  Run-wide counters
/// accumulate into `ctx.counters`; the engine copies them into the outcome
/// after finalisation.
///
/// # Errors
/// Returns [`JoinError::ArenaExhausted`] when the context's arena cannot
/// hold the join's working state.
pub fn execute_join(
    ctx: &mut ExecContext<'_>,
    build: &Relation,
    probe: &Relation,
    cfg: &JoinConfig,
) -> Result<JoinOutcome, JoinError> {
    let mut outcome = JoinOutcome::default();

    match (&cfg.scheme, cfg.algorithm) {
        (Scheme::BasicUnit { chunk_tuples }, _) => {
            run_basic_unit(ctx, build, probe, cfg, *chunk_tuples, &mut outcome)?;
        }
        (_, Algorithm::Simple) => {
            let plan = ratio_plan(cfg)?;
            join_pair(ctx, build, probe, cfg, &plan, &mut outcome, true)?;
        }
        (_, Algorithm::Partitioned { .. }) => {
            let plan = ratio_plan(cfg)?;
            run_partitioned(ctx, build, probe, cfg, &plan, &mut outcome)?;
        }
    }

    Ok(outcome)
}

/// The per-phase ratio plan of a ratio-based scheme, or a typed
/// [`JoinError::InvalidScheme`] rejection when the scheme has none — a bad
/// scheme/algorithm combination is a rejected request, not a crash.
fn ratio_plan(cfg: &JoinConfig) -> Result<RatioPlan, JoinError> {
    RatioPlan::from_scheme(&cfg.scheme).ok_or(JoinError::InvalidScheme {
        scheme: cfg.scheme.label(),
        algorithm: cfg.algorithm.label(),
    })
}

/// Whether this run must keep per-device hash tables.
fn use_separate_tables(sys: &SystemSpec, cfg: &JoinConfig, plan: &RatioPlan) -> bool {
    if cfg.hash_table == HashTableMode::Separate {
        return true;
    }
    // A hash table cannot be shared across the PCI-e bus: when both devices
    // build on the discrete topology, separate tables (and a merge) are
    // forced, as in the paper's discrete baseline.
    let share = plan.build_cpu_share();
    sys.is_discrete() && share > 0.0 && share < 1.0
}

fn add_transfer(ctx: &mut ExecContext<'_>, outcome: &mut JoinOutcome, bytes: u64) {
    if bytes == 0 || !ctx.sys.is_discrete() {
        return;
    }
    let t = ctx.sys.transfer_time(bytes);
    outcome.breakdown.add(Phase::DataTransfer, t);
    ctx.counters.pcie_bytes += bytes;
    ctx.counters.pcie_transfers += 1;
}

pub(crate) fn record_phase(
    ctx: &mut ExecContext<'_>,
    outcome: &mut JoinOutcome,
    phase: PhaseExecution,
) {
    outcome.breakdown.add(phase.phase, phase.elapsed());
    ctx.counters.intermediate_tuples += phase.intermediate_tuples;
    outcome.phases.push(phase);
}

/// Merges `src` into `dst`, charging the merge to the CPU (the paper's merge
/// step after a data-dividing build with separate hash tables).
fn merge_tables(
    ctx: &mut ExecContext<'_>,
    outcome: &mut JoinOutcome,
    dst: &mut HashTable,
    src: &HashTable,
) -> Result<(), JoinError> {
    if src.tuple_count() == 0 {
        return Ok(());
    }
    let before = ctx.alloc_snapshot();
    let Ok(stats) = dst.merge_from(src, ctx.allocator.as_mut(), 0) else {
        return Err(ctx.arena_error("merge", crate::hashtable::KEY_NODE_BYTES));
    };
    let delta = ctx.alloc_snapshot().delta_since(&before);
    let mut rec = ctx.recorder_for(DeviceKind::Cpu);
    let moved = stats.rids_moved as usize;
    rec.items(moved, instr::MERGE_PER_TUPLE);
    rec.random_read(2.0 * moved as f64);
    rec.random_write(2.0 * moved as f64);
    rec.serial_atomic(delta.global_atomics as f64);
    rec.local_atomic(delta.local_atomics as f64);
    let cost = rec.finish();
    let mem = ctx.mem_ctx(DeviceKind::Cpu, dst.total_bytes() as f64);
    let kt = ctx.device(DeviceKind::Cpu).kernel_time(&cost, &mem);
    ctx.counters.lock_overhead += kt.atomic;
    outcome.breakdown.add(Phase::Merge, kt.total());
    Ok(())
}

/// Builds and probes one `(build, probe)` relation pair.
///
/// `top_level_io` controls whether discrete-topology input/result transfers
/// are charged here (true for SHJ on whole relations; false for the per-pair
/// joins of PHJ, whose inputs were already shipped for partitioning).
#[allow(clippy::too_many_arguments)]
fn join_pair(
    ctx: &mut ExecContext<'_>,
    build_rel: &Relation,
    probe_rel: &Relation,
    cfg: &JoinConfig,
    plan: &RatioPlan,
    outcome: &mut JoinOutcome,
    top_level_io: bool,
) -> Result<(), JoinError> {
    let n_r = build_rel.len();
    let separate = use_separate_tables(ctx.sys, cfg, plan);

    if top_level_io {
        let gpu_share = 1.0 - plan.build_cpu_share();
        add_transfer(ctx, outcome, (gpu_share * (n_r * 8) as f64) as u64);
    }

    // ---- build phase ----
    let table = if separate {
        // Tuples must stay on one device for the whole phase: collapse any
        // pipelined ratios to their average (data dividing).
        let build_ratios = if plan.build.is_uniform() {
            plan.build.clone()
        } else {
            Ratios::uniform(plan.build_cpu_share(), 4)
        };
        let mut cpu_t = HashTable::for_build_size(n_r);
        let mut gpu_t = HashTable::for_build_size(n_r).with_base_addr(0x8000_0000);
        let phase = run_build_phase(
            ctx,
            build_rel,
            BuildTarget::Separate {
                cpu: &mut cpu_t,
                gpu: &mut gpu_t,
            },
            &build_ratios,
            cfg.grouping,
        )?;
        record_phase(ctx, outcome, phase);
        if top_level_io {
            // The GPU's partial hash table travels back for merging.
            add_transfer(ctx, outcome, gpu_t.total_bytes() as u64);
        }
        if cpu_t.tuple_count() == 0 {
            gpu_t
        } else {
            merge_tables(ctx, outcome, &mut cpu_t, &gpu_t)?;
            cpu_t
        }
    } else {
        let mut t = HashTable::for_build_size(n_r);
        let phase = run_build_phase(
            ctx,
            build_rel,
            BuildTarget::Shared(&mut t),
            &plan.build,
            cfg.grouping,
        )?;
        if top_level_io {
            // Pipelined intermediate results would cross the bus on the
            // discrete topology (the inefficiency of PL there, Section 5.2).
            add_transfer(ctx, outcome, phase.intermediate_tuples * 8);
        }
        record_phase(ctx, outcome, phase);
        t
    };

    // ---- probe phase ----
    if top_level_io {
        let gpu_share = 1.0 - plan.probe_cpu_share();
        add_transfer(
            ctx,
            outcome,
            (gpu_share * (probe_rel.len() * 8) as f64) as u64,
        );
    }
    let (out, phase) = run_probe_phase(
        ctx,
        probe_rel,
        &table,
        &plan.probe,
        cfg.grouping,
        cfg.collect_results,
    )?;
    if top_level_io {
        add_transfer(ctx, outcome, phase.intermediate_tuples * 8);
        let gpu_share = 1.0 - plan.probe_cpu_share();
        add_transfer(ctx, outcome, (gpu_share * (out.matches * 8) as f64) as u64);
    }
    outcome.matches += out.matches;
    if let Some(p) = out.pairs {
        outcome.pairs.get_or_insert_with(Vec::new).extend(p);
    }
    record_phase(ctx, outcome, phase);
    Ok(())
}

/// Radix-partitions `rel` over `passes` (at least one) passes of `bits`
/// bits each; an empty partition fans out without running a pass.  Pass 0
/// reads `rel` where it lies.  With an `outcome`, each pass's phase and its
/// discrete-topology transfer are charged to it; without one (a build for
/// the table cache) they are not recorded.
pub(crate) fn partition_relation(
    ctx: &mut ExecContext<'_>,
    rel: &Relation,
    bits: u32,
    passes: u32,
    plan: &RatioPlan,
    mut outcome: Option<&mut JoinOutcome>,
) -> Result<Vec<Relation>, JoinError> {
    let fanout = 1usize << bits;
    let mut parts = Vec::new();
    for pass in 0..passes {
        let inputs = if pass == 0 {
            std::slice::from_ref(rel)
        } else {
            &parts[..]
        };
        let mut next = Vec::with_capacity(inputs.len() * fanout);
        for p in inputs {
            if p.is_empty() {
                next.extend((0..fanout).map(|_| Relation::new()));
                continue;
            }
            let (ps, phase) = run_partition_pass(ctx, p, bits, pass, &plan.partition)?;
            if let Some(outcome) = outcome.as_deref_mut() {
                add_transfer(ctx, outcome, phase.intermediate_tuples * 8);
                record_phase(ctx, outcome, phase);
            }
            next.extend(ps);
        }
        parts = next;
    }
    Ok(parts)
}

fn run_partitioned(
    ctx: &mut ExecContext<'_>,
    build_rel: &Relation,
    probe_rel: &Relation,
    cfg: &JoinConfig,
    plan: &RatioPlan,
    outcome: &mut JoinOutcome,
) -> Result<(), JoinError> {
    let (bits, passes) = match cfg.algorithm {
        Algorithm::Partitioned { radix_bits, passes } => (radix_bits, passes.max(1)),
        Algorithm::Simple => unreachable!("run_partitioned requires Algorithm::Partitioned"),
    };
    let bits = if bits == 0 {
        default_radix_bits(build_rel.len(), ctx.sys.cache_bytes_for(DeviceKind::Cpu))
    } else {
        bits
    };

    // Discrete topology: ship the GPU's share of both inputs once, before
    // partitioning starts.
    let gpu_share = 1.0 - plan.partition_cpu_share();
    add_transfer(
        ctx,
        outcome,
        (gpu_share * ((build_rel.len() + probe_rel.len()) * 8) as f64) as u64,
    );

    let parts_r = partition_relation(ctx, build_rel, bits, passes, plan, Some(outcome))?;
    let parts_s = partition_relation(ctx, probe_rel, bits, passes, plan, Some(outcome))?;

    match cfg.granularity {
        StepGranularity::Coarse => {
            let mut collected = cfg.collect_results.then(Vec::new);
            let result = run_coarse_pair_joins(ctx, &parts_r, &parts_s, collected.as_mut())?;
            outcome.matches += result.matches;
            if let Some(p) = collected {
                outcome.pairs.get_or_insert_with(Vec::new).extend(p);
            }
            // Attribute the elapsed time of the coarse step proportionally to
            // its build/probe busy components.
            let busy = result.build_time + result.probe_time;
            let (build_share, probe_share) = if busy.is_zero() {
                (0.5, 0.5)
            } else {
                (
                    result.build_time.as_ns() / busy.as_ns(),
                    result.probe_time.as_ns() / busy.as_ns(),
                )
            };
            outcome
                .breakdown
                .add(Phase::Build, result.elapsed * build_share);
            outcome
                .breakdown
                .add(Phase::Probe, result.elapsed * probe_share);
        }
        StepGranularity::Fine => {
            for (r_p, s_p) in parts_r.iter().zip(parts_s.iter()) {
                if r_p.is_empty() && s_p.is_empty() {
                    continue;
                }
                join_pair(ctx, r_p, s_p, cfg, plan, outcome, false)?;
            }
            // Result pairs travel back once for the whole join.
            let gpu_share = 1.0 - plan.probe_cpu_share();
            add_transfer(
                ctx,
                outcome,
                (gpu_share * (outcome.matches * 8) as f64) as u64,
            );
        }
    }
    Ok(())
}

fn run_basic_unit(
    ctx: &mut ExecContext<'_>,
    build_rel: &Relation,
    probe_rel: &Relation,
    cfg: &JoinConfig,
    chunk: usize,
    outcome: &mut JoinOutcome,
) -> Result<(), JoinError> {
    let mut ratios = BasicUnitRatios::default();

    // Optional partition phase (PHJ under BasicUnit), one pass.
    let partitioned = if let Algorithm::Partitioned { radix_bits, .. } = cfg.algorithm {
        let bits = if radix_bits == 0 {
            default_radix_bits(build_rel.len(), ctx.sys.cache_bytes_for(DeviceKind::Cpu))
        } else {
            radix_bits
        };
        let fanout = 1usize << bits;
        let mut partition_cpu_items = 0usize;
        let mut partition_items = 0usize;
        let mut partition_elapsed = SimTime::ZERO;
        let mut split =
            |ctx: &mut ExecContext<'_>, rel: &Relation| -> Result<Vec<Relation>, JoinError> {
                let mut acc: Vec<Relation> = (0..fanout).map(|_| Relation::new()).collect();
                let sched = basic_unit::run_chunks(ctx, rel.len(), chunk, |ctx, range, device| {
                    let sub = rel.slice(range);
                    let r = match device {
                        DeviceKind::Cpu => Ratios::cpu_only(3),
                        DeviceKind::Gpu => Ratios::gpu_only(3),
                    };
                    let (ps, phase) = run_partition_pass(ctx, &sub, bits, 0, &r)?;
                    for (i, p) in ps.iter().enumerate() {
                        acc[i].extend_from(p);
                    }
                    Ok(phase.elapsed())
                })?;
                partition_cpu_items += sched.cpu_items;
                partition_items += sched.cpu_items + sched.gpu_items;
                partition_elapsed += sched.elapsed;
                Ok(acc)
            };
        let parts_r = split(ctx, build_rel)?;
        let parts_s = split(ctx, probe_rel)?;
        outcome.breakdown.add(Phase::Partition, partition_elapsed);
        ratios.partition = if partition_items == 0 {
            0.0
        } else {
            partition_cpu_items as f64 / partition_items as f64
        };
        Some((parts_r, parts_s))
    } else {
        None
    };

    match partitioned {
        None => {
            // SHJ: chunk the build, then chunk the probe, over a shared table.
            let mut table = HashTable::for_build_size(build_rel.len());
            let sched =
                basic_unit::run_chunks(ctx, build_rel.len(), chunk, |ctx, range, device| {
                    let sub = build_rel.slice(range);
                    let r = match device {
                        DeviceKind::Cpu => Ratios::cpu_only(4),
                        DeviceKind::Gpu => Ratios::gpu_only(4),
                    };
                    Ok(run_build_phase(
                        ctx,
                        &sub,
                        BuildTarget::Shared(&mut table),
                        &r,
                        cfg.grouping,
                    )?
                    .elapsed())
                })?;
            outcome.breakdown.add(Phase::Build, sched.elapsed);
            ratios.build = sched.cpu_ratio();

            let mut matches = 0u64;
            let mut all_pairs: Vec<(u32, u32)> = Vec::new();
            let sched =
                basic_unit::run_chunks(ctx, probe_rel.len(), chunk, |ctx, range, device| {
                    let sub = probe_rel.slice(range);
                    let r = match device {
                        DeviceKind::Cpu => Ratios::cpu_only(4),
                        DeviceKind::Gpu => Ratios::gpu_only(4),
                    };
                    let (out, phase) =
                        run_probe_phase(ctx, &sub, &table, &r, cfg.grouping, cfg.collect_results)?;
                    matches += out.matches;
                    if let Some(p) = out.pairs {
                        all_pairs.extend(p);
                    }
                    Ok(phase.elapsed())
                })?;
            outcome.breakdown.add(Phase::Probe, sched.elapsed);
            ratios.probe = sched.cpu_ratio();
            outcome.matches += matches;
            if cfg.collect_results {
                outcome.pairs.get_or_insert_with(Vec::new).extend(all_pairs);
            }
        }
        Some((parts_r, parts_s)) => {
            // PHJ: each partition pair is one scheduling unit, dispatched to
            // whichever device's event clock is behind.
            let mut clocks = apu_sim::DeviceClocks::new();
            let mut cpu_tuples = 0usize;
            let mut total_tuples = 0usize;
            let mut build_busy = SimTime::ZERO;
            let mut probe_busy = SimTime::ZERO;
            for (r_p, s_p) in parts_r.iter().zip(parts_s.iter()) {
                if r_p.is_empty() && s_p.is_empty() {
                    continue;
                }
                let device = clocks.idlest();
                let (build_r, probe_r) = match device {
                    DeviceKind::Cpu => (Ratios::cpu_only(4), Ratios::cpu_only(4)),
                    DeviceKind::Gpu => (Ratios::gpu_only(4), Ratios::gpu_only(4)),
                };
                let mut table = HashTable::for_build_size(r_p.len());
                let bp = run_build_phase(
                    ctx,
                    r_p,
                    BuildTarget::Shared(&mut table),
                    &build_r,
                    cfg.grouping,
                )?;
                let (out, pp) = run_probe_phase(
                    ctx,
                    s_p,
                    &table,
                    &probe_r,
                    cfg.grouping,
                    cfg.collect_results,
                )?;
                outcome.matches += out.matches;
                if let Some(p) = out.pairs {
                    outcome.pairs.get_or_insert_with(Vec::new).extend(p);
                }
                let pair_time = bp.elapsed()
                    + pp.elapsed()
                    + SimTime::from_ns(basic_unit::CHUNK_DISPATCH_OVERHEAD_NS);
                build_busy += bp.elapsed();
                probe_busy += pp.elapsed();
                clocks.advance(device, pair_time);
                if device == DeviceKind::Cpu {
                    cpu_tuples += r_p.len() + s_p.len();
                }
                total_tuples += r_p.len() + s_p.len();
            }
            let elapsed = clocks.elapsed();
            let busy = build_busy + probe_busy;
            let (bs, ps) = if busy.is_zero() {
                (0.5, 0.5)
            } else {
                (
                    build_busy.as_ns() / busy.as_ns(),
                    probe_busy.as_ns() / busy.as_ns(),
                )
            };
            outcome.breakdown.add(Phase::Build, elapsed * bs);
            outcome.breakdown.add(Phase::Probe, elapsed * ps);
            let r = if total_tuples == 0 {
                0.0
            } else {
                cpu_tuples as f64 / total_tuples as f64
            };
            ratios.build = r;
            ratios.probe = r;
        }
    }

    outcome.basic_unit_ratios = Some(ratios);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, JoinEngine, JoinRequest};
    use crate::result::reference_match_count;
    use datagen::DataGenConfig;

    /// Engine-backed equivalent of the old one-shot entry point.
    fn run(sys: &SystemSpec, r: &Relation, s: &Relation, cfg: &JoinConfig) -> JoinOutcome {
        let config = EngineConfig::for_tuples(r.len(), s.len()).with_allocator(cfg.allocator);
        let mut engine = JoinEngine::for_system(sys.clone(), config).unwrap();
        let request = JoinRequest::from_config(cfg.clone()).unwrap();
        engine.execute(&request, r, s).unwrap()
    }

    fn data(n: usize) -> (Relation, Relation, u64) {
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(n, n * 2));
        let expected = reference_match_count(&r, &s);
        (r, s, expected)
    }

    #[test]
    fn every_scheme_produces_the_same_match_count_shj() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s, expected) = data(3000);
        for scheme in [
            Scheme::CpuOnly,
            Scheme::GpuOnly,
            Scheme::offload_gpu(),
            Scheme::data_dividing_paper(),
            Scheme::pipelined_paper(),
            Scheme::basic_unit_default(),
        ] {
            let cfg = JoinConfig::shj(scheme.clone());
            let out = run(&sys, &r, &s, &cfg);
            assert_eq!(out.matches, expected, "scheme {:?}", scheme.label());
            assert!(out.total_time() > SimTime::ZERO);
        }
    }

    #[test]
    fn every_scheme_produces_the_same_match_count_phj() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s, expected) = data(3000);
        for scheme in [
            Scheme::CpuOnly,
            Scheme::GpuOnly,
            Scheme::data_dividing_paper(),
            Scheme::pipelined_paper(),
            Scheme::basic_unit_default(),
        ] {
            let cfg = JoinConfig::phj(scheme.clone());
            let out = run(&sys, &r, &s, &cfg);
            assert_eq!(out.matches, expected, "scheme {:?}", scheme.label());
            assert!(out.breakdown.get(Phase::Partition) > SimTime::ZERO);
        }
    }

    #[test]
    fn collected_pairs_match_reference_pairs() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s, _) = data(800);
        let cfg = JoinConfig::phj(Scheme::pipelined_paper()).with_collect_results(true);
        let out = run(&sys, &r, &s, &cfg);
        let mut got = out.pairs.unwrap();
        got.sort_unstable();
        assert_eq!(got, crate::result::reference_pairs(&r, &s));
    }

    #[test]
    fn separate_tables_add_a_merge_phase() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s, expected) = data(2000);
        let shared = run(
            &sys,
            &r,
            &s,
            &JoinConfig::shj(Scheme::data_dividing_paper()),
        );
        let separate = run(
            &sys,
            &r,
            &s,
            &JoinConfig::shj(Scheme::data_dividing_paper())
                .with_hash_table(HashTableMode::Separate),
        );
        assert_eq!(shared.matches, expected);
        assert_eq!(separate.matches, expected);
        assert_eq!(shared.breakdown.get(Phase::Merge), SimTime::ZERO);
        assert!(separate.breakdown.get(Phase::Merge) > SimTime::ZERO);
        assert!(separate.total_time() > shared.total_time());
    }

    #[test]
    fn discrete_topology_charges_transfers() {
        let coupled = SystemSpec::coupled_a8_3870k();
        let discrete = SystemSpec::discrete_emulated();
        let (r, s, expected) = data(4000);
        let cfg = JoinConfig::shj(Scheme::data_dividing_paper());
        let on_coupled = run(&coupled, &r, &s, &cfg);
        let on_discrete = run(&discrete, &r, &s, &cfg);
        assert_eq!(on_coupled.matches, expected);
        assert_eq!(on_discrete.matches, expected);
        assert_eq!(on_coupled.breakdown.get(Phase::DataTransfer), SimTime::ZERO);
        assert!(on_discrete.breakdown.get(Phase::DataTransfer) > SimTime::ZERO);
        assert!(on_discrete.counters.pcie_bytes > 0);
        assert!(on_discrete.total_time() > on_coupled.total_time());
    }

    #[test]
    fn gpu_only_offload_needs_no_merge_even_on_discrete() {
        // "OL has only the data transfer overhead because OL is essentially
        // GPU-only" (Section 5.2).
        let discrete = SystemSpec::discrete_emulated();
        let (r, s, expected) = data(2000);
        let out = run(&discrete, &r, &s, &JoinConfig::shj(Scheme::offload_gpu()));
        assert_eq!(out.matches, expected);
        assert_eq!(out.breakdown.get(Phase::Merge), SimTime::ZERO);
        assert!(out.breakdown.get(Phase::DataTransfer) > SimTime::ZERO);
    }

    #[test]
    fn pipelined_beats_single_device_execution() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(40_000, 40_000));
        let cpu = run(&sys, &r, &s, &JoinConfig::shj(Scheme::CpuOnly));
        let gpu = run(&sys, &r, &s, &JoinConfig::shj(Scheme::GpuOnly));
        let pl = run(&sys, &r, &s, &JoinConfig::shj(Scheme::pipelined_paper()));
        assert!(
            pl.total_time() < cpu.total_time(),
            "PL {} should beat CPU-only {}",
            pl.total_time(),
            cpu.total_time()
        );
        assert!(
            pl.total_time() < gpu.total_time(),
            "PL {} should beat GPU-only {}",
            pl.total_time(),
            gpu.total_time()
        );
    }

    #[test]
    fn coarse_granularity_is_slower_than_fine() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s, expected) = data(20_000);
        let fine = run(&sys, &r, &s, &JoinConfig::phj(Scheme::pipelined_paper()));
        let coarse = run(
            &sys,
            &r,
            &s,
            &JoinConfig::phj(Scheme::pipelined_paper()).with_granularity(StepGranularity::Coarse),
        );
        assert_eq!(fine.matches, expected);
        assert_eq!(coarse.matches, expected);
        assert!(coarse.total_time() > fine.total_time());
    }

    #[test]
    fn basic_unit_reports_observed_ratios() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s, expected) = data(10_000);
        let cfg = JoinConfig::shj(Scheme::BasicUnit { chunk_tuples: 1024 });
        let out = run(&sys, &r, &s, &cfg);
        assert_eq!(out.matches, expected);
        let ratios = out.basic_unit_ratios.unwrap();
        assert!(ratios.build > 0.0 && ratios.build < 1.0);
        assert!(ratios.probe > 0.0 && ratios.probe < 1.0);
    }

    #[test]
    fn basic_allocator_is_slower_than_block_allocator() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s, _) = data(20_000);
        let ours = run(
            &sys,
            &r,
            &s,
            &JoinConfig::phj(Scheme::data_dividing_paper()),
        );
        let basic = run(
            &sys,
            &r,
            &s,
            &JoinConfig::phj(Scheme::data_dividing_paper())
                .with_allocator(mem_alloc::AllocatorKind::Basic),
        );
        assert!(basic.total_time() > ours.total_time());
        assert!(basic.counters.lock_overhead > ours.counters.lock_overhead);
    }

    #[test]
    fn schemes_without_a_ratio_plan_are_typed_rejections() {
        let cfg = JoinConfig::shj(Scheme::basic_unit_default());
        let err = ratio_plan(&cfg).unwrap_err();
        assert_eq!(
            err,
            JoinError::InvalidScheme {
                scheme: "BasicUnit",
                algorithm: "SHJ",
            }
        );
        assert!(ratio_plan(&JoinConfig::phj(Scheme::pipelined_paper())).is_ok());
    }
}
