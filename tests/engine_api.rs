//! Integration tests of the engine/session API: arena reuse across
//! requests, admission and error paths, builder validation at the facade
//! level and backend behaviour.

use coupled_hashjoin::prelude::*;
use datagen::Relation;

fn workload(n_build: usize, n_probe: usize) -> (Relation, Relation, u64) {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(n_build, n_probe));
    let expected = reference_match_count(&r, &s);
    (r, s, expected)
}

#[test]
fn engine_reuses_its_arena_across_consecutive_requests() {
    let (r, s, expected) = workload(4000, 8000);
    let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(4000, 8000)).unwrap();

    let phj = JoinRequest::builder()
        .algorithm(Algorithm::partitioned_auto())
        .scheme(Scheme::pipelined_paper())
        .build()
        .unwrap();
    let shj = JoinRequest::builder()
        .scheme(Scheme::data_dividing_paper())
        .build()
        .unwrap();

    let first = engine.execute(&phj, &r, &s).unwrap();
    let second = engine.execute(&shj, &r, &s).unwrap();
    let third = engine.execute(&phj, &r, &s).unwrap();

    assert_eq!(first.matches, expected);
    assert_eq!(second.matches, expected);
    assert_eq!(third.matches, first.matches);
    assert_eq!(
        third.total_time(),
        first.total_time(),
        "repeat runs are deterministic"
    );

    let stats = engine.stats();
    assert_eq!(stats.requests_served, 3);
    assert_eq!(
        stats.arenas_created, 1,
        "no second arena creation across requests"
    );
}

#[test]
fn oversized_inputs_are_rejected_and_the_engine_recovers() {
    let (r, s, expected) = workload(2000, 4000);
    let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(100, 100)).unwrap();
    let request = JoinRequest::builder().build().unwrap();

    match engine.execute(&request, &r, &s) {
        Err(JoinError::OversizedInput {
            build_tuples,
            probe_tuples,
            required_bytes,
            arena_bytes,
        }) => {
            assert_eq!(build_tuples, 2000);
            assert_eq!(probe_tuples, 4000);
            assert!(required_bytes > arena_bytes);
        }
        other => panic!("expected OversizedInput, got {other:?}"),
    }

    // A right-sized engine accepts the same request and produces the result.
    let mut big = JoinEngine::coupled(EngineConfig::for_tuples(2000, 4000)).unwrap();
    assert_eq!(big.execute(&request, &r, &s).unwrap().matches, expected);
}

#[test]
fn undersized_arena_returns_err_instead_of_panicking() {
    // A fully duplicate key space makes the result quadratic — far beyond
    // what the sizing heuristic provisions — so the arena runs dry mid-probe.
    let r = Relation::from_keys(vec![42; 1024]);
    let s = Relation::from_keys(vec![42; 4096]);
    let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(1024, 4096)).unwrap();
    let request = JoinRequest::builder().build().unwrap();

    let err = engine.execute(&request, &r, &s).unwrap_err();
    match &err {
        JoinError::ArenaExhausted {
            requested,
            capacity,
            used,
            phase,
        } => {
            // The diagnosable failure the spill subsystem keys off: which
            // phase asked, for how much, and what was actually left.
            assert_eq!(*phase, "probe", "the quadratic result space dies probing");
            assert!(*requested > 0);
            assert!(
                used + requested > *capacity,
                "{used} used + {requested} requested must not fit {capacity}"
            );
        }
        other => panic!("expected ArenaExhausted, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("probe") && msg.contains("available"),
        "operator-facing message names the phase and the headroom: {msg}"
    );
    assert_eq!(engine.stats().requests_failed, 1);

    // The engine stays alive and serves the next request.
    let (ok_r, ok_s, expected) = workload(500, 1000);
    assert_eq!(
        engine.execute(&request, &ok_r, &ok_s).unwrap().matches,
        expected
    );
}

#[test]
fn builder_validation_rejects_bad_requests_at_build_time() {
    for bad_ratio in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
        let err = JoinRequest::builder()
            .scheme(Scheme::DataDividing {
                partition_ratio: 0.1,
                build_ratio: bad_ratio,
                probe_ratio: 0.4,
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                JoinError::InvalidRatio {
                    series: "build",
                    ..
                }
            ),
            "ratio {bad_ratio}: {err}"
        );
    }

    assert!(matches!(
        JoinRequest::builder()
            .scheme(Scheme::BasicUnit { chunk_tuples: 0 })
            .build(),
        Err(JoinError::InvalidChunkSize)
    ));
    assert!(matches!(
        JoinRequest::builder()
            .algorithm(Algorithm::Partitioned {
                radix_bits: 32,
                passes: 1
            })
            .build(),
        Err(JoinError::InvalidRadixBits { radix_bits: 32 })
    ));
    assert!(matches!(
        JoinRequest::builder().out_of_core(0).build(),
        Err(JoinError::InvalidChunkSize)
    ));

    // Errors are printable for operators.
    let err = JoinRequest::builder().out_of_core(0).build().unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
fn native_backend_agrees_with_the_simulator_backends() {
    let (r, s, expected) = workload(5000, 10_000);
    let request = JoinRequest::builder()
        .scheme(Scheme::pipelined_paper())
        .collect_results(true)
        .build()
        .unwrap();

    let mut native = JoinEngine::native(EngineConfig::for_tuples(5000, 10_000)).unwrap();
    let mut sim = JoinEngine::coupled(EngineConfig::for_tuples(5000, 10_000)).unwrap();

    let native_out = native.execute(&request, &r, &s).unwrap();
    let sim_out = sim.execute(&request, &r, &s).unwrap();

    assert_eq!(native_out.matches, expected);
    assert_eq!(native_out.matches, sim_out.matches);
    // Native times are measured, not simulated, but they exist and are
    // reported through the same breakdown.
    assert!(native_out.total_time() > SimTime::ZERO);
    let mut native_pairs = native_out.pairs.unwrap();
    let mut sim_pairs = sim_out.pairs.unwrap();
    native_pairs.sort_unstable();
    sim_pairs.sort_unstable();
    assert_eq!(native_pairs, sim_pairs);
}

#[test]
fn engine_serves_heterogeneous_requests_back_to_back() {
    // One engine, many different request shapes — the serving-path shape the
    // API redesign exists for.
    let (r, s, expected) = workload(3000, 6000);
    let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(3000, 6000)).unwrap();
    let requests = vec![
        JoinRequest::builder()
            .scheme(Scheme::CpuOnly)
            .build()
            .unwrap(),
        JoinRequest::builder()
            .algorithm(Algorithm::partitioned_auto())
            .scheme(Scheme::pipelined_paper())
            .granularity(StepGranularity::Coarse)
            .build()
            .unwrap(),
        JoinRequest::builder()
            .scheme(Scheme::data_dividing_paper())
            .hash_table(HashTableMode::Separate)
            .build()
            .unwrap(),
        JoinRequest::builder()
            .scheme(Scheme::basic_unit_default())
            .grouping(false)
            .build()
            .unwrap(),
    ];
    for request in &requests {
        assert_eq!(engine.execute(request, &r, &s).unwrap().matches, expected);
    }
    assert_eq!(engine.stats().requests_served, requests.len() as u64);
    assert_eq!(engine.stats().arenas_created, 1);
}
