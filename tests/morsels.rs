//! Property-style equivalence tests of the morsel-driven step pipeline.
//!
//! The morsel refactor must not change *what* a join computes, only how its
//! work is scheduled: outcomes of the morsel path (many small morsels per
//! step) must be byte-identical to the old monolithic phase path (one
//! morsel spanning the whole relation) for every scheme × algorithm
//! combination, and the composed pipeline timing must stay monotone in
//! every per-step time.
//!
//! Inputs come from the workspace's own deterministic generator
//! ([`datagen::SmallRng`]); every run replays the same cases.

use coupled_hashjoin::hj_core::{compose_pipeline, Ratios};
use coupled_hashjoin::prelude::*;
use datagen::{Relation, SmallRng};

/// A relation with up to `max` tuples over a small key domain (forcing
/// duplicates and hash collisions).
fn random_relation(rng: &mut SmallRng, max: usize) -> Relation {
    let n = 1 + rng.random_index(max);
    Relation::from_keys((0..n).map(|_| rng.random_u32_below(700)).collect())
}

/// Runs `cfg` through a fresh engine with the given morsel size, collecting
/// result pairs so equivalence checks see the full output, not just counts.
fn run_with_morsels(
    sys: &SystemSpec,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    morsel_tuples: usize,
) -> JoinOutcome {
    let config = EngineConfig::for_tuples(r.len(), s.len());
    let engine = JoinEngine::for_system(sys.clone(), config).unwrap();
    let request = JoinRequest::from_config(
        cfg.clone()
            .with_collect_results(true)
            .with_morsel_tuples(morsel_tuples),
    )
    .unwrap();
    engine.submit(&request, r, s).unwrap()
}

#[test]
fn morsel_path_is_byte_identical_to_the_monolithic_path() {
    let sys = SystemSpec::coupled_a8_3870k();
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let schemes = [
        Scheme::offload_gpu(),
        Scheme::data_dividing_paper(),
        Scheme::pipelined_paper(),
    ];
    for case in 0..12 {
        let r = random_relation(&mut rng, 1500);
        let s = random_relation(&mut rng, 3000);
        let expected = reference_match_count(&r, &s);
        let scheme = &schemes[case % schemes.len()];
        for cfg in [
            JoinConfig::shj(scheme.clone()),
            JoinConfig::phj(scheme.clone()),
        ] {
            // Monolithic: one morsel spans the whole relation (the old
            // phase-at-a-time behaviour).  Morselised: a few hundred tuples
            // per morsel, so every step runs as many tasks.
            let monolithic = run_with_morsels(&sys, &r, &s, &cfg, usize::MAX >> 1);
            let morselised = run_with_morsels(&sys, &r, &s, &cfg, 256);
            assert_eq!(monolithic.matches, expected, "{} case {case}", cfg.label());
            assert_eq!(
                morselised.matches,
                expected,
                "{} case {case} (morselised)",
                cfg.label()
            );
            // Byte-identical output: same pairs in the same order, without
            // any sorting — the morsel path must visit tuples in the same
            // global order as the monolithic pass.
            assert_eq!(
                monolithic.pairs,
                morselised.pairs,
                "{} case {case}: morsel path changed the materialised result",
                cfg.label()
            );
        }
    }
}

#[test]
fn morsel_size_one_still_matches() {
    // The degenerate extreme: every tuple is its own morsel.
    let sys = SystemSpec::coupled_a8_3870k();
    let mut rng = SmallRng::seed_from_u64(0xDEAD);
    let r = random_relation(&mut rng, 300);
    let s = random_relation(&mut rng, 600);
    let cfg = JoinConfig::shj(Scheme::pipelined_paper());
    let whole = run_with_morsels(&sys, &r, &s, &cfg, usize::MAX >> 1);
    let single = run_with_morsels(&sys, &r, &s, &cfg, 1);
    assert_eq!(whole.matches, single.matches);
    assert_eq!(whole.pairs, single.pairs);
}

/// The native kernel's pair order is part of its contract: probe order,
/// then build order within a key — from `submit`, from `submit_cached`, and
/// (within each spill partition) from a spill-enabled request, whatever the
/// worker count — also when spilled pairs are re-partitioned from their run
/// files.
#[test]
fn native_pair_order_is_pinned_across_submit_cached_and_spill() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let r = random_relation(&mut rng, 3000);
    let s = random_relation(&mut rng, 5000);
    let mut expected = Vec::new();
    for (prid, probe_key) in s.iter() {
        for (brid, build_key) in r.iter() {
            if build_key == probe_key {
                expected.push((brid, prid));
            }
        }
    }
    let mut expected_sorted = expected.clone();
    expected_sorted.sort_unstable();

    let in_memory = JoinRequest::builder()
        .collect_results(true)
        .morsel_tuples(1024)
        .build()
        .unwrap();
    let spilling = JoinRequest::builder()
        .collect_results(true)
        .morsel_tuples(1024)
        .spill(SpillConfig::default())
        .build()
        .unwrap();
    // Memory budgets as fractions of the input's bytes: half spills some
    // partitions; a 64th fits no partition pair, so spilled pairs are
    // re-partitioned from their run files.
    let budgets = [2, 64];
    let mut spilled_at_one_worker: [Option<Vec<(u32, u32)>>; 2] = [None, None];
    for workers in [1, 2, 3] {
        let engines = budgets.map(|divisor| {
            JoinEngine::native(
                EngineConfig::for_tuples(r.len(), s.len())
                    .worker_threads(workers)
                    .memory_budget((r.bytes() + s.bytes()) / divisor),
            )
            .unwrap()
        });
        let engine = &engines[0];
        let plain = engine.submit(&in_memory, &r, &s).unwrap();
        assert_eq!(plain.pairs.as_ref(), Some(&expected), "{workers} workers");

        let table = engine.register_table("pinned", r.clone());
        for pass in ["miss", "hit"] {
            let cached = engine.submit_cached(&in_memory, &table, &s).unwrap();
            assert_eq!(
                cached.pairs.as_ref(),
                Some(&expected),
                "{workers} workers, cache {pass}"
            );
        }

        // Spilling joins partition pair by partition pair, so pairs arrive
        // grouped by partition; inside a group the order is the kernel's,
        // which keeps every probe tuple's matches in build order.
        for ((divisor, engine), reference) in
            budgets.iter().zip(&engines).zip(&mut spilled_at_one_worker)
        {
            let budget = format!("1/{divisor} budget");
            let spilled = engine.submit(&spilling, &r, &s).unwrap();
            let report = spilled.spill.expect("a spilling join reports");
            assert!(report.bytes_spilled > 0, "{budget}");
            if *divisor == 64 {
                assert!(report.recursion_depth >= 1, "{budget}: {report:?}");
            }
            let pairs = spilled.pairs.expect("pairs were requested");
            let mut last_build_rid = std::collections::HashMap::new();
            for &(brid, prid) in &pairs {
                if let Some(previous) = last_build_rid.insert(prid, brid) {
                    assert!(
                        previous < brid,
                        "{budget}: probe rid {prid}: {previous} before {brid}"
                    );
                }
            }
            let mut sorted = pairs.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, expected_sorted, "{workers} workers, {budget}");
            let reference = reference.get_or_insert_with(|| pairs.clone());
            assert_eq!(
                &pairs, reference,
                "{workers} workers changed the spilled pair order at {budget}"
            );
        }
    }
}

#[test]
fn compose_pipeline_elapsed_is_monotone_in_every_step_time() {
    let mut rng = SmallRng::seed_from_u64(0x7131);
    for case in 0..40 {
        let steps = 2 + rng.random_index(4);
        let cpu: Vec<SimTime> = (0..steps)
            .map(|_| SimTime::from_ns(rng.random_index(1000) as f64))
            .collect();
        let gpu: Vec<SimTime> = (0..steps)
            .map(|_| SimTime::from_ns(rng.random_index(1000) as f64))
            .collect();
        let ratios = Ratios::new(
            (0..steps)
                .map(|_| rng.random_index(101) as f64 / 100.0)
                .collect(),
        );
        let base = compose_pipeline(&cpu, &gpu, &ratios).elapsed;
        for i in 0..steps {
            let bump = SimTime::from_ns(1.0 + rng.random_index(500) as f64);
            let mut cpu_up = cpu.clone();
            cpu_up[i] += bump;
            let with_cpu = compose_pipeline(&cpu_up, &gpu, &ratios).elapsed;
            assert!(
                with_cpu.as_ns() >= base.as_ns() - 1e-9,
                "case {case}: raising cpu[{i}] lowered elapsed {base} -> {with_cpu}"
            );
            let mut gpu_up = gpu.clone();
            gpu_up[i] += bump;
            let with_gpu = compose_pipeline(&cpu, &gpu_up, &ratios).elapsed;
            assert!(
                with_gpu.as_ns() >= base.as_ns() - 1e-9,
                "case {case}: raising gpu[{i}] lowered elapsed {base} -> {with_gpu}"
            );
        }
    }
}
