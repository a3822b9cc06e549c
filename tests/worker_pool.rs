//! Integration coverage of the engine's persistent worker pool: execution
//! parallelism (workers) is decoupled from admission concurrency
//! (sessions), results stay byte-identical at any worker count, and the
//! pool's threads are engine-scoped (joined at drop, shared by all
//! sessions — never one pool per session).

use coupled_hashjoin::prelude::*;
use datagen::{Relation, SmallRng};
use hj_core::engine::NATIVE_MIN_CHUNK_TUPLES;
use hj_core::{arena_bytes_for, reference_pairs, ExecContext};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A relation of `min..=max` tuples over a small key domain (duplicates
/// and hash collisions included).
fn random_relation(rng: &mut SmallRng, min: usize, max: usize) -> Relation {
    let n = min + rng.random_index(max - min + 1);
    Relation::from_keys((0..n).map(|_| rng.random_u32_below(500)).collect())
}

/// Pool tasks the engine's workers have run so far.
fn pool_tasks(engine: &JoinEngine) -> u64 {
    engine.stats().per_worker_tasks.iter().sum()
}

#[test]
fn more_clients_than_workers_complete_correctly() {
    // 8 sessions admitted concurrently, but only 2 execution workers: every
    // join's morsels interleave in one pool and every outcome must still be
    // exact.
    const CLIENTS: usize = 8;
    const JOINS_PER_CLIENT: usize = 3;
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(4_000, 8_000));
    let expected = reference_match_count(&r, &s);
    let engine = Arc::new(
        JoinEngine::new(
            Box::new(NativeCpu::new()),
            EngineConfig::for_tuples(4_000, 8_000)
                .sessions(CLIENTS)
                .worker_threads(2),
        )
        .unwrap(),
    );
    // Several morsels a side, so every join fans out over the pool.
    let request = JoinRequest::builder()
        .morsel_tuples(NATIVE_MIN_CHUNK_TUPLES)
        .build()
        .unwrap();

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            let request = request.clone();
            let (r, s) = (&r, &s);
            scope.spawn(move || {
                for _ in 0..JOINS_PER_CLIENT {
                    let out = engine.submit(&request, r, s).expect("submission failed");
                    assert_eq!(out.matches, expected);
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.requests_served, (CLIENTS * JOINS_PER_CLIENT) as u64);
    assert_eq!(stats.requests_failed, 0);
    assert_eq!(stats.worker_threads, 2);
    assert_eq!(stats.per_worker_tasks.len(), 2);
    assert!(
        pool_tasks(&engine) > 0,
        "all execution must have gone through the shared pool"
    );
}

#[test]
fn one_morsel_phases_run_on_the_calling_thread() {
    const MORSEL: usize = NATIVE_MIN_CHUNK_TUPLES;
    let engine = JoinEngine::new(
        Box::new(NativeCpu::new()),
        EngineConfig::for_tuples(2 * MORSEL, 2 * MORSEL).worker_threads(2),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .morsel_tuples(MORSEL)
        .collect_results(true)
        .build()
        .unwrap();
    let one = Relation::from_keys((0..MORSEL as u32).collect());
    let two = Relation::from_keys((0..2 * MORSEL as u32).collect());
    let join = |build: &Relation, probe: &Relation| {
        let before = pool_tasks(&engine);
        let out = engine.submit(&request, build, probe).unwrap();
        assert_eq!(out.matches, reference_match_count(build, probe));
        (pool_tasks(&engine) - before, out.pairs)
    };
    let (inline_tasks, inline_pairs) = join(&one, &one);
    assert_eq!(inline_tasks, 0, "each side fits one morsel");
    let (empty_tasks, _) = join(&Relation::new(), &one);
    assert_eq!(empty_tasks, 0, "an empty side fits one morsel");
    // A two-morsel build fans out (scatter and folds); the probe stays.
    let (fanned_tasks, fanned_pairs) = join(&two, &one);
    assert!(fanned_tasks > 0, "a two-morsel build runs on the pool");
    assert_eq!(fanned_pairs, inline_pairs, "placement changed the pairs");
}

#[test]
fn single_worker_engine_passes_the_byte_identity_suite() {
    // The SHJ/PHJ × OL/DD/PL sweep of tests/morsels.rs at `worker_threads(1)`,
    // on both interpretations of the task stream:
    //
    // * the simulator path (the byte-identity suite proper) still computes
    //   identical output through a single-worker engine;
    // * the native path — which genuinely schedules on the pool — produces
    //   byte-identical pairs at 1 vs 4 workers for every sweep input, with
    //   build sides of more than one morsel so each build really runs as
    //   pool tasks.
    let sys = SystemSpec::coupled_a8_3870k();
    let mut rng = SmallRng::seed_from_u64(0xB00B5);
    let schemes = [
        Scheme::offload_gpu(),
        Scheme::data_dividing_paper(),
        Scheme::pipelined_paper(),
    ];
    for case in 0..6 {
        let r = random_relation(&mut rng, NATIVE_MIN_CHUNK_TUPLES + 1, 2048);
        let s = random_relation(&mut rng, 1, 2400);
        let expected = reference_match_count(&r, &s);
        let scheme = &schemes[case % schemes.len()];
        for cfg in [
            JoinConfig::shj(scheme.clone()),
            JoinConfig::phj(scheme.clone()),
        ] {
            let request = JoinRequest::from_config(
                cfg.clone()
                    .with_collect_results(true)
                    .with_morsel_tuples(256),
            )
            .unwrap();
            let run_sim = |workers: usize| {
                let engine = JoinEngine::for_system(
                    sys.clone(),
                    EngineConfig::for_tuples(r.len(), s.len()).worker_threads(workers),
                )
                .unwrap();
                engine.submit(&request, &r, &s).unwrap()
            };
            let single = run_sim(1);
            let multi = run_sim(4);
            assert_eq!(single.matches, expected, "{} case {case}", cfg.label());
            assert_eq!(
                single.pairs,
                multi.pairs,
                "{} case {case}: worker count changed the simulated result",
                cfg.label()
            );

            let run_native = |workers: usize| {
                let engine = JoinEngine::new(
                    Box::new(NativeCpu::new()),
                    EngineConfig::for_tuples(r.len(), s.len()).worker_threads(workers),
                )
                .unwrap();
                let out = engine.submit(&request, &r, &s).unwrap();
                assert!(
                    pool_tasks(&engine) > 0,
                    "native execution must actually schedule on the pool"
                );
                out
            };
            let native_single = run_native(1);
            let native_multi = run_native(4);
            assert_eq!(
                native_single.matches,
                expected,
                "{} case {case} (native)",
                cfg.label()
            );
            assert_eq!(
                native_single.pairs,
                native_multi.pairs,
                "{} case {case}: native pool result differs across worker counts",
                cfg.label()
            );
        }
    }
}

#[test]
fn native_pairs_are_byte_identical_across_worker_counts() {
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let r = random_relation(&mut rng, NATIVE_MIN_CHUNK_TUPLES + 1, 3000);
    let s = random_relation(&mut rng, NATIVE_MIN_CHUNK_TUPLES + 1, 6000);
    let request = JoinRequest::builder()
        .morsel_tuples(NATIVE_MIN_CHUNK_TUPLES)
        .collect_results(true)
        .build()
        .unwrap();
    let run = |workers: usize| {
        let engine = JoinEngine::new(
            Box::new(NativeCpu::new()),
            EngineConfig::for_tuples(r.len(), s.len()).worker_threads(workers),
        )
        .unwrap();
        engine.submit(&request, &r, &s).unwrap()
    };
    let single = run(1);
    let multi = run(5);
    assert_eq!(single.matches, reference_match_count(&r, &s));
    assert_eq!(single.matches, multi.matches);
    assert_eq!(
        single.pairs, multi.pairs,
        "native morsel fold must stay in morsel order at any worker count"
    );
}

#[test]
fn native_backend_without_an_engine_runs_on_the_calling_thread() {
    // An `ExecContext` with no worker pool: every phase of the native
    // backend runs on the calling thread, morsel after morsel, and must
    // answer exactly what the engine's pool answers.
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let r = random_relation(&mut rng, 4 * NATIVE_MIN_CHUNK_TUPLES, 5000);
    let s = random_relation(&mut rng, 4 * NATIVE_MIN_CHUNK_TUPLES, 9000);
    let mut expected_pairs = reference_pairs(&r, &s);
    expected_pairs.sort_unstable();
    let engine = JoinEngine::native(EngineConfig::for_tuples(r.len(), s.len())).unwrap();
    let backend = NativeCpu::new();
    for algorithm in [Algorithm::Simple, Algorithm::partitioned_auto()] {
        for collect in [false, true] {
            let request = JoinRequest::builder()
                .algorithm(algorithm)
                .morsel_tuples(NATIVE_MIN_CHUNK_TUPLES)
                .collect_results(collect)
                .build()
                .unwrap();
            let mut ctx = ExecContext::new(
                backend.system(),
                AllocatorKind::tuned(),
                arena_bytes_for(r.len(), s.len()),
                false,
            );
            let alone = backend.execute(&mut ctx, &r, &s, &request).unwrap();
            let pooled = engine.submit(&request, &r, &s).unwrap();
            let label = format!("{} collect={collect}", algorithm.label());
            assert_eq!(alone.matches, expected_pairs.len() as u64, "{label}");
            assert_eq!(alone.matches, pooled.matches, "{label}");
            assert_eq!(alone.pairs, pooled.pairs, "{label}");
            if let Some(mut pairs) = alone.pairs {
                pairs.sort_unstable();
                assert_eq!(pairs, expected_pairs, "{label}");
            } else {
                assert!(!collect, "{label}: a collecting join returned no pairs");
            }
        }
    }
}

#[test]
fn engine_drop_joins_all_pool_workers() {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(1_000, 2_000));
    let engine = JoinEngine::new(
        Box::new(NativeCpu::new()),
        EngineConfig::for_tuples(1_000, 2_000).worker_threads(3),
    )
    .unwrap();
    let request = JoinRequest::builder().build().unwrap();
    engine.submit(&request, &r, &s).unwrap(); // the pool has really run
    let gauge = engine.worker_pool().live_worker_gauge();
    assert_eq!(gauge.load(Ordering::Acquire), 3);
    drop(engine);
    assert_eq!(
        gauge.load(Ordering::Acquire),
        0,
        "engine drop must join every worker thread (no leaked threads)"
    );
}

#[test]
fn sessions_share_one_pool_not_one_pool_per_session() {
    // Whatever the session count, the engine spawns exactly
    // `worker_threads` execution threads — the per-session
    // `NativeCpu::new()` oversubscription is gone.
    for sessions in [1usize, 4, 8] {
        let engine = JoinEngine::new(
            Box::new(NativeCpu::new()),
            EngineConfig::for_tuples(64, 64)
                .sessions(sessions)
                .worker_threads(2),
        )
        .unwrap();
        assert_eq!(engine.worker_pool().live_workers(), 2);
        assert_eq!(engine.stats().worker_threads, 2);
    }
}
