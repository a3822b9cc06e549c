//! Cross-crate integration tests: every configuration of the join engine
//! must produce exactly the reference join result.

use coupled_hashjoin::prelude::*;
use datagen::DataGenConfig;

mod common;
use common::run;

fn workload(n_build: usize, n_probe: usize) -> (datagen::Relation, datagen::Relation, u64) {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(n_build, n_probe));
    let expected = reference_match_count(&r, &s);
    (r, s, expected)
}

fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::CpuOnly,
        Scheme::GpuOnly,
        Scheme::offload_gpu(),
        Scheme::data_dividing_paper(),
        Scheme::pipelined_paper(),
        Scheme::basic_unit_default(),
    ]
}

#[test]
fn every_scheme_algorithm_and_table_mode_agrees_with_the_reference() {
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s, expected) = workload(4000, 8000);
    for scheme in all_schemes() {
        for algorithm in [Algorithm::Simple, Algorithm::partitioned_auto()] {
            for table in [HashTableMode::Shared, HashTableMode::Separate] {
                let cfg = JoinConfig {
                    algorithm,
                    ..JoinConfig::shj(scheme.clone())
                }
                .with_hash_table(table);
                let out = run(&sys, &r, &s, &cfg);
                assert_eq!(
                    out.matches,
                    expected,
                    "scheme {} algorithm {:?} table {:?}",
                    scheme.label(),
                    algorithm,
                    table
                );
            }
        }
    }
}

#[test]
fn discrete_and_coupled_topologies_compute_the_same_result() {
    let (r, s, expected) = workload(3000, 6000);
    for sys in [
        SystemSpec::coupled_a8_3870k(),
        SystemSpec::discrete_emulated(),
    ] {
        for scheme in [
            Scheme::data_dividing_paper(),
            Scheme::offload_gpu(),
            Scheme::pipelined_paper(),
        ] {
            let out = run(&sys, &r, &s, &JoinConfig::phj(scheme));
            assert_eq!(out.matches, expected);
        }
    }
}

#[test]
fn allocator_choice_and_grouping_do_not_change_results() {
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s) = datagen::generate_pair(
        &DataGenConfig::small(3000, 6000).with_distribution(KeyDistribution::high_skew()),
    );
    let expected = reference_match_count(&r, &s);
    for allocator in [
        AllocatorKind::Basic,
        AllocatorKind::tuned(),
        AllocatorKind::Block { block_size: 64 },
    ] {
        for grouping in [false, true] {
            let cfg = JoinConfig::phj(Scheme::pipelined_paper())
                .with_allocator(allocator)
                .with_grouping(grouping);
            assert_eq!(run(&sys, &r, &s, &cfg).matches, expected);
        }
    }
}

#[test]
fn materialised_pairs_equal_the_reference_pairs_for_every_scheme() {
    let sys = SystemSpec::coupled_a8_3870k();
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(600, 1200).with_selectivity(0.5));
    let expected = coupled_hashjoin::hj_core::reference_pairs(&r, &s);
    for scheme in all_schemes() {
        let cfg = JoinConfig::phj(scheme.clone()).with_collect_results(true);
        let mut got = run(&sys, &r, &s, &cfg).pairs.expect("pairs requested");
        got.sort_unstable();
        assert_eq!(got, expected, "scheme {}", scheme.label());
    }
}

#[test]
fn coarse_granularity_and_out_of_core_agree_with_in_core_results() {
    let mut sys = SystemSpec::coupled_a8_3870k();
    let (r, s, expected) = workload(5000, 10_000);

    let coarse =
        JoinConfig::phj(Scheme::pipelined_paper()).with_granularity(StepGranularity::Coarse);
    assert_eq!(run(&sys, &r, &s, &coarse).matches, expected);

    // Force the out-of-core path with a tiny buffer.
    sys.topology = Topology::Coupled {
        shared_cache_bytes: 4 * 1024 * 1024,
        zero_copy_bytes: 32 * 1024,
    };
    let cfg = JoinConfig::shj(Scheme::pipelined_paper());
    let request = JoinRequest::from_config(cfg.clone())
        .and_then(|req| req.with_out_of_core(2048))
        .unwrap();
    let mut engine =
        JoinEngine::for_system(sys.clone(), EngineConfig::for_tuples(r.len(), s.len())).unwrap();
    let out = engine.execute(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    assert!(out.breakdown.get(Phase::DataCopy) > SimTime::ZERO);
}

#[test]
fn selectivity_and_skew_sweeps_stay_correct() {
    let sys = SystemSpec::coupled_a8_3870k();
    for selectivity in [0.0, 0.125, 0.5, 1.0] {
        for dist in [
            KeyDistribution::Uniform,
            KeyDistribution::low_skew(),
            KeyDistribution::high_skew(),
        ] {
            let (r, s) = datagen::generate_pair(
                &DataGenConfig::small(2000, 4000)
                    .with_selectivity(selectivity)
                    .with_distribution(dist),
            );
            let expected = reference_match_count(&r, &s);
            let out = run(&sys, &r, &s, &JoinConfig::phj(Scheme::pipelined_paper()));
            assert_eq!(out.matches, expected);
        }
    }
}

#[test]
fn empty_and_degenerate_inputs_are_handled() {
    let sys = SystemSpec::coupled_a8_3870k();
    let empty = datagen::Relation::new();
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(100, 100));

    let cfg = JoinConfig::shj(Scheme::pipelined_paper());
    assert_eq!(run(&sys, &empty, &s, &cfg).matches, 0);
    assert_eq!(run(&sys, &r, &empty, &cfg).matches, 0);

    // A single-tuple build relation probed by everything.
    let one = datagen::Relation::from_keys(vec![42]);
    let many = datagen::Relation::from_keys(vec![42; 1000]);
    assert_eq!(run(&sys, &one, &many, &cfg).matches, 1000);
}

/// A collecting join answers with a pair list even when it has no pair to
/// put in it: the native backend returns what the coupled simulator does
/// for empty and non-matching sides, in memory, through the table cache and
/// when spilling.
#[test]
fn native_and_simulated_joins_answer_alike_on_empty_and_unmatched_sides() {
    let empty = Relation::new();
    let three = Relation::from_keys(vec![1, 2, 3]);
    let others = Relation::from_keys(vec![4, 5]);
    let cases = [
        ("empty build", &empty, &three),
        ("empty probe", &three, &empty),
        ("both empty", &empty, &empty),
        ("no match", &three, &others),
    ];
    let plain = JoinRequest::builder()
        .collect_results(true)
        .build()
        .unwrap();
    // A one-byte budget spills every non-empty join, and with no recursion
    // allowed each spilled pair goes to the block fallback, which runs no
    // pair join at all when one of its sides is empty.
    let spilling = JoinRequest::builder()
        .collect_results(true)
        .spill(SpillConfig::default().max_recursion_depth(0))
        .build()
        .unwrap();
    let budget = EngineConfig::for_tuples(8, 8).memory_budget(1);
    let answers = |engine: &JoinEngine, spill_engine: &JoinEngine| -> Vec<_> {
        let mut answers = Vec::new();
        for (case, build, probe) in cases {
            let table = engine.register_table(case, build.clone());
            let spilled = spill_engine.submit(&spilling, build, probe).unwrap();
            let nonempty = !build.is_empty() || !probe.is_empty();
            assert_eq!(spilled.spill.is_some(), nonempty, "{case}");
            let outcomes = [
                ("in memory", engine.submit(&plain, build, probe).unwrap()),
                (
                    "cached",
                    engine.submit_cached(&plain, &table, probe).unwrap(),
                ),
                ("spilling", spilled),
            ];
            for (path, out) in outcomes {
                assert_eq!(out.matches, 0, "{case} {path}");
                answers.push((case, path, out.pairs));
            }
        }
        answers
    };
    let simulated = answers(
        &JoinEngine::coupled(EngineConfig::for_tuples(8, 8)).unwrap(),
        &JoinEngine::coupled(budget.clone()).unwrap(),
    );
    let native = answers(
        &JoinEngine::native(EngineConfig::for_tuples(8, 8)).unwrap(),
        &JoinEngine::native(budget).unwrap(),
    );
    assert_eq!(native, simulated);
    for (case, path, pairs) in simulated {
        assert_eq!(pairs, Some(Vec::new()), "{case} {path}");
    }
}

/// One native engine alternates count-only and collecting joins, so the
/// shards of count-only tables (directories without rid runs) feed
/// collecting builds and the reverse: on the calling thread (one morsel),
/// on the pool (many morsels) and through the spill path at a quarter
/// budget.  Every collecting answer is the pair list a fresh engine returns,
/// in the same order; every count is the oracle's; nothing stays granted or
/// on disk.
#[test]
fn native_buffers_move_between_count_only_and_collecting_joins() {
    const BUILD: usize = 16 * 1024;
    const PROBE: usize = 32 * 1024;
    let sizes = DataGenConfig::small(BUILD, PROBE);
    let (uniform_r, uniform_s) = datagen::generate_pair(&sizes);
    let skewed = KeyDistribution::Skewed {
        duplicate_fraction: 0.9,
    };
    let (dup_r, dup_s) = datagen::generate_pair(&sizes.clone().with_distribution(skewed));
    let (one_r, one_s) = (
        Relation::from_keys(vec![7; 2_000]),
        Relation::from_keys(vec![7; 300]),
    );
    let empty = Relation::new();
    let inputs = [
        ("uniform", &uniform_r, &uniform_s),
        ("90% duplicates", &dup_r, &dup_s),
        ("all one key", &one_r, &one_s),
        ("empty build", &empty, &uniform_s),
    ];
    let config = EngineConfig::for_tuples(BUILD, PROBE)
        .worker_threads(2)
        .memory_budget((uniform_r.bytes() + uniform_s.bytes()) / 4);
    let request = |placement: &str, collect: bool| {
        let builder = JoinRequest::builder().collect_results(collect);
        let builder = match placement {
            "one morsel" => builder.morsel_tuples(1 << 20),
            "many morsels" => builder.morsel_tuples(1024),
            _ => builder.spill(SpillConfig::default()),
        };
        builder.build().unwrap()
    };
    let engine = JoinEngine::native(config.clone()).unwrap();
    let mut spilled = 0;
    for (case, build, probe) in inputs {
        let expected = reference_match_count(build, probe);
        let oracle = hj_core::reference_pairs(build, probe);
        for placement in ["one morsel", "many morsels", "spill"] {
            let fresh = JoinEngine::native(config.clone()).unwrap();
            let fresh = fresh.submit(&request(placement, true), build, probe);
            let fresh = fresh
                .unwrap()
                .pairs
                .expect("a collecting join returns pairs");
            let mut sorted = fresh.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, oracle, "{case}, {placement}");
            // Every build after the first runs in the buffers of a table
            // built in the other mode.
            for collect in [false, true, false, true] {
                let out = engine.submit(&request(placement, collect), build, probe);
                let out = out.unwrap();
                let at = format!("{case}, {placement}, collect {collect}");
                assert_eq!(out.matches, expected, "{at}");
                assert_eq!(out.pairs.as_ref(), collect.then_some(&fresh), "{at}");
                spilled += usize::from(out.spill.is_some_and(|r| r.bytes_spilled > 0));
            }
        }
    }
    assert!(spilled > 0, "a quarter budget spills the larger inputs");
    assert_eq!(engine.memory_broker().granted(), 0);
    let dir = engine.spill_dir().expect("spilling happened");
    let mut files = std::fs::read_dir(dir).unwrap();
    assert!(files.next().is_none(), "no run file outlives its join");
}
