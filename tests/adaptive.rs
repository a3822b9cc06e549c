//! Integration suite of the adaptive runtime tuner (`hj_core::adaptive`).
//!
//! Two properties anchor the subsystem:
//!
//! 1. **Result identity** — adaptivity only moves work between the devices;
//!    it never changes which tuples are processed or in what order.
//!    Adaptive runs must therefore be byte-identical (same pairs, same
//!    morsel-order fold) to static runs for every scheme × algorithm
//!    combination, on the simulators, on the out-of-core chunked path and
//!    on the native backend down to `worker_threads(1)`.
//! 2. **Recovery** — from a deliberately mis-calibrated plan (hash steps
//!    pinned to the CPU, prior claiming the CPU is the fast device), the
//!    tuner must converge toward the oracle placement and claw back most of
//!    the simulated-time gap.

use coupled_hashjoin::hj_core::adaptive::{AdaptiveConfig, SeriesKind};
use coupled_hashjoin::hj_core::Tuning;
use coupled_hashjoin::prelude::*;
use datagen::Relation;

fn workload(build: usize, probe: usize) -> (Relation, Relation, u64) {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(build, probe));
    let expected = reference_match_count(&r, &s);
    (r, s, expected)
}

/// Runs `cfg` once statically and once adaptively through fresh engines on
/// `sys`, returning both outcomes (results collected, small morsels so the
/// tuner gets many re-plan points).
fn static_vs_adaptive(
    sys: &SystemSpec,
    r: &Relation,
    s: &Relation,
    cfg: &JoinConfig,
    tuning: Tuning,
) -> (JoinOutcome, JoinOutcome) {
    let run = |tuning: Option<Tuning>| {
        let engine =
            JoinEngine::for_system(sys.clone(), EngineConfig::for_tuples(r.len(), s.len()))
                .unwrap();
        let mut builder = JoinRequest::builder()
            .algorithm(cfg.algorithm)
            .scheme(cfg.scheme.clone())
            .hash_table(cfg.hash_table)
            .granularity(cfg.granularity)
            .collect_results(true)
            .morsel_tuples(256);
        if let Some(tuning) = tuning {
            builder = builder.tuning(tuning);
        }
        let request = builder.build().unwrap();
        engine.submit(&request, r, s).unwrap()
    };
    (run(None), run(Some(tuning)))
}

#[test]
fn adaptive_runs_are_result_identical_to_static_runs() {
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s, expected) = workload(1500, 3000);
    let schemes = [
        Scheme::offload_gpu(),
        Scheme::data_dividing_paper(),
        Scheme::pipelined_paper(),
    ];
    for scheme in &schemes {
        for cfg in [
            JoinConfig::shj(scheme.clone()),
            JoinConfig::phj(scheme.clone()),
        ] {
            let (static_out, adaptive_out) =
                static_vs_adaptive(&sys, &r, &s, &cfg, Tuning::adaptive());
            assert_eq!(static_out.matches, expected, "{}", cfg.label());
            assert_eq!(adaptive_out.matches, expected, "{} adaptive", cfg.label());
            // Byte-identical materialised output, unsorted: adaptivity must
            // not even reorder the morsel-order fold.
            assert_eq!(
                static_out.pairs,
                adaptive_out.pairs,
                "{}: adaptive run changed the join result",
                cfg.label()
            );
            // Single-device placements (here: the all-GPU offload preset)
            // are directives, not estimates — they stay static and carry
            // no report; genuinely hybrid schemes adapt.
            assert_eq!(
                adaptive_out.adaptive.is_some(),
                cfg.scheme.uses_both_devices(),
                "{}",
                cfg.label()
            );
            assert!(static_out.adaptive.is_none(), "{}", cfg.label());
        }
    }
}

#[test]
fn adaptive_is_identical_on_separate_tables_and_coarse_granularity() {
    // Separate hash tables stash the tuner (tuple→table ownership is
    // positional); coarse granularity bypasses the step pipeline.  Both
    // must still produce identical results with adaptivity requested.
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s, expected) = workload(1200, 2400);
    for cfg in [
        JoinConfig::shj(Scheme::data_dividing_paper()).with_hash_table(HashTableMode::Separate),
        JoinConfig::phj(Scheme::pipelined_paper()).with_granularity(StepGranularity::Coarse),
    ] {
        let (static_out, adaptive_out) = static_vs_adaptive(&sys, &r, &s, &cfg, Tuning::adaptive());
        assert_eq!(static_out.matches, expected, "{}", cfg.label());
        assert_eq!(adaptive_out.matches, expected, "{} adaptive", cfg.label());
        assert_eq!(static_out.pairs, adaptive_out.pairs, "{}", cfg.label());
    }
}

#[test]
fn adaptive_is_identical_on_the_out_of_core_chunked_path() {
    let mut sys = SystemSpec::coupled_a8_3870k();
    // A tiny zero-copy buffer forces the chunked spill path.
    sys.topology = Topology::Coupled {
        shared_cache_bytes: 4 * 1024 * 1024,
        zero_copy_bytes: 32 * 1024,
    };
    let (r, s, expected) = workload(5000, 10_000);
    let run = |tuning: Option<Tuning>| {
        let engine =
            JoinEngine::for_system(sys.clone(), EngineConfig::for_tuples(r.len(), s.len()))
                .unwrap();
        let mut builder = JoinRequest::builder()
            .scheme(Scheme::pipelined_paper())
            .collect_results(true)
            .morsel_tuples(256)
            .out_of_core(2048);
        if let Some(tuning) = tuning {
            builder = builder.tuning(tuning);
        }
        let request = builder.build().unwrap();
        engine.submit(&request, &r, &s).unwrap()
    };
    let static_out = run(None);
    let adaptive_out = run(Some(Tuning::adaptive()));
    assert_eq!(static_out.matches, expected);
    assert_eq!(adaptive_out.matches, expected);
    assert_eq!(static_out.pairs, adaptive_out.pairs);
    assert!(adaptive_out.breakdown.get(Phase::DataCopy) > SimTime::ZERO);
    // The tuner observed every chunk of the spill path.
    let report = adaptive_out.adaptive.unwrap();
    assert!(report.samples > 0);
}

#[test]
fn adaptive_is_identical_on_the_native_backend_across_worker_counts() {
    let (r, s, expected) = workload(3000, 6000);
    for workers in [1, 4] {
        let engine = JoinEngine::new(
            Box::new(NativeCpu::new()),
            EngineConfig::for_tuples(r.len(), s.len()).worker_threads(workers),
        )
        .unwrap();
        let static_request = JoinRequest::builder()
            .collect_results(true)
            .build()
            .unwrap();
        let adaptive_request = JoinRequest::builder()
            .collect_results(true)
            .tuning(Tuning::adaptive())
            .build()
            .unwrap();
        let static_out = engine.submit(&static_request, &r, &s).unwrap();
        let adaptive_out = engine.submit(&adaptive_request, &r, &s).unwrap();
        assert_eq!(static_out.matches, expected, "workers {workers}");
        assert_eq!(adaptive_out.matches, expected, "workers {workers}");
        assert_eq!(static_out.pairs, adaptive_out.pairs, "workers {workers}");
        // Native runs feed wall-clock telemetry (no CPU/GPU lanes to
        // re-plan, so replans stay 0 but samples flow).
        let report = adaptive_out.adaptive.unwrap();
        assert!(report.samples > 0, "workers {workers}");
        assert!(report.series(SeriesKind::Probe).wall_ns_per_tuple.is_some());
        let stats = engine.stats();
        assert_eq!(stats.adaptive_requests, 1);
    }
}

#[test]
fn adaptive_recovers_most_of_a_bad_prior_on_the_simulator() {
    // The acceptance scenario: the offline model calibrated exactly wrong
    // (CPU and GPU unit costs swapped) on a Zipf-skewed probe stream.  The
    // "oracle" is what a truthful calibration tunes; "bad" is what the
    // swapped calibration tunes, with the swapped costs also seeding the
    // tuner's prior — so the controller starts out *agreeing* with the lie.
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s) = datagen::generate_pair(
        &DataGenConfig::small(16_384, 65_536).with_distribution(KeyDistribution::zipf(1.1)),
    );
    let expected = reference_match_count(&r, &s);
    let good_costs = calibrate_from_relations(&sys, &r, &s, Algorithm::Simple);
    let bad_costs = good_costs.swapped_devices();
    let tune = |costs: &costmodel::JoinUnitCosts| {
        tune_scheme(
            &JoinCostModel::new(costs.clone()),
            r.len(),
            s.len(),
            Algorithm::Simple,
            0.02,
        )
        .pipelined
        .clone()
    };
    let oracle_scheme = tune(&good_costs);
    let bad_scheme = tune(&bad_costs);

    let run = |scheme: Scheme, tuning: Option<Tuning>| {
        let engine =
            JoinEngine::for_system(sys.clone(), EngineConfig::for_tuples(r.len(), s.len()))
                .unwrap();
        // Grouping off for all three legs: its work-sorted reorder makes
        // per-tuple cost non-stationary along a step, which no scalar
        // online estimate can track — the recovery comparison is about
        // adaptivity, not that interaction (the identity suites above
        // cover grouping-enabled runs).
        let mut builder = JoinRequest::builder()
            .scheme(scheme)
            .grouping(false)
            .morsel_tuples(256);
        if let Some(tuning) = tuning {
            builder = builder.tuning(tuning);
        }
        let out = engine.submit(&builder.build().unwrap(), &r, &s).unwrap();
        assert_eq!(out.matches, expected);
        out
    };
    let static_bad = run(bad_scheme.clone(), None);
    let static_oracle = run(oracle_scheme, None);
    let adaptive_bad = run(
        bad_scheme,
        Some(Tuning::Adaptive(
            AdaptiveConfig::default()
                .with_prior(bad_costs.adaptive_prior())
                .with_replan_every_morsels(1),
        )),
    );

    let report = adaptive_bad.adaptive.as_ref().unwrap();
    assert!(report.replans > 0, "the tuner must have re-planned");
    // The hash step b1 started CPU-pinned and must have converged toward
    // the GPU despite the lying prior.
    let build = report.series(SeriesKind::Build);
    assert!(build.initial[0] > 0.9, "bad plan pins b1 to the CPU");
    assert!(
        build.converged[0] < 0.5,
        "b1 stayed on the CPU: {:?}",
        build.converged
    );
    assert!(build.confidence > 0.5, "confidence {}", build.confidence);

    let t_bad = static_bad.total_time().as_secs();
    let t_oracle = static_oracle.total_time().as_secs();
    let t_adaptive = adaptive_bad.total_time().as_secs();
    assert!(
        t_adaptive < t_bad / 1.15,
        "adaptive ({t_adaptive:.6}s) must beat the bad static plan \
         ({t_bad:.6}s) by at least 1.15x"
    );
    assert!(
        t_adaptive < t_oracle / 0.9,
        "adaptive ({t_adaptive:.6}s) must reach at least 0.9x of the \
         oracle plan ({t_oracle:.6}s)"
    );
}

#[test]
fn engine_level_default_tuning_applies_and_requests_can_override_it() {
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s, expected) = workload(2000, 4000);
    let engine = JoinEngine::for_system(
        sys,
        EngineConfig::for_tuples(r.len(), s.len()).with_tuning(Tuning::adaptive()),
    )
    .unwrap();
    // No per-request policy: the engine default (adaptive) applies.
    let default_request = JoinRequest::builder().build().unwrap();
    let out = engine.submit(&default_request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    let replans = out
        .adaptive
        .expect("the engine default is adaptive")
        .replans;
    // A request choosing static overrides the engine default.
    let static_request = JoinRequest::builder()
        .tuning(Tuning::Static)
        .build()
        .unwrap();
    let out = engine.submit(&static_request, &r, &s).unwrap();
    assert!(out.adaptive.is_none());
    // BasicUnit has no ratio plan to adapt — silently static.
    let basic = JoinRequest::builder()
        .scheme(Scheme::basic_unit_default())
        .tuning(Tuning::adaptive())
        .build()
        .unwrap();
    let out = engine.submit(&basic, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    assert!(out.adaptive.is_none());

    let stats = engine.stats();
    assert_eq!(stats.adaptive_requests, 1);
    assert_eq!(stats.replans, replans, "only the adaptive request re-plans");
}

#[test]
fn explicit_single_device_schemes_stay_single_device_under_adaptive_tuning() {
    // "CPU-only" must mean CPU-only even on an adaptive engine: without
    // this, the exploration share would probe the GPU and the re-planner
    // could migrate the whole join off the device the user pinned it to.
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s, expected) = workload(2000, 4000);
    let engine = JoinEngine::for_system(
        sys,
        EngineConfig::for_tuples(r.len(), s.len()).with_tuning(Tuning::adaptive()),
    )
    .unwrap();
    for scheme in [Scheme::CpuOnly, Scheme::GpuOnly, Scheme::offload_gpu()] {
        let request = JoinRequest::builder()
            .scheme(scheme.clone())
            .morsel_tuples(256)
            .build()
            .unwrap();
        let out = engine.submit(&request, &r, &s).unwrap();
        assert_eq!(out.matches, expected, "{}", scheme.label());
        assert!(
            out.adaptive.is_none(),
            "{} is a placement directive and must not adapt",
            scheme.label()
        );
        // Every step really ran on the pinned device.
        for phase in &out.phases {
            for step in &phase.steps {
                match scheme {
                    Scheme::CpuOnly => assert_eq!(step.gpu_items, 0),
                    _ => assert_eq!(step.cpu_items, 0),
                }
            }
        }
    }
    assert_eq!(engine.stats().adaptive_requests, 0);
}

#[test]
fn discrete_topology_requests_stay_static_under_adaptive_tuning() {
    // On the PCI-e topology, shared-vs-separate table selection and
    // transfer accounting are derived from the static plan; runtime ratio
    // drift would put one shared hash table on both sides of the bus, so
    // the engine keeps discrete requests static.
    let (r, s, expected) = workload(2000, 4000);
    let engine = JoinEngine::discrete(
        EngineConfig::for_tuples(r.len(), s.len()).with_tuning(Tuning::adaptive()),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .scheme(Scheme::pipelined_paper())
        .collect_results(true)
        .morsel_tuples(256)
        .tuning(Tuning::adaptive())
        .build()
        .unwrap();
    let adaptive_out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(adaptive_out.matches, expected);
    assert!(
        adaptive_out.adaptive.is_none(),
        "discrete runs must not adapt"
    );
    // Identical to a plain static run, transfers included.
    let static_req = JoinRequest::builder()
        .scheme(Scheme::pipelined_paper())
        .collect_results(true)
        .morsel_tuples(256)
        .tuning(Tuning::Static)
        .build()
        .unwrap();
    let static_out = engine.submit(&static_req, &r, &s).unwrap();
    assert_eq!(static_out.pairs, adaptive_out.pairs);
    assert_eq!(static_out.total_time(), adaptive_out.total_time());
    assert!(adaptive_out.counters.pcie_bytes > 0);
    assert_eq!(engine.stats().adaptive_requests, 0);
}

#[test]
fn degenerate_adaptive_knobs_are_rejected() {
    let err = JoinRequest::builder()
        .tuning(Tuning::Adaptive(
            AdaptiveConfig::default().with_ewma_alpha(0.0),
        ))
        .build()
        .unwrap_err();
    assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");

    let err = JoinEngine::coupled(
        EngineConfig::for_tuples(64, 64)
            .with_tuning(Tuning::Adaptive(AdaptiveConfig::default().with_delta(0.0))),
    )
    .unwrap_err();
    assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
}
