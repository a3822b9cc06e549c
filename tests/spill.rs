//! Integration tests of the memory governor + disk-spill subsystem: broker
//! contention, spill-vs-in-memory byte identity across schemes and
//! backends, recursion-cap fallback correctness, unwind hygiene, the
//! zero-headroom multi-tenant scenario, and a quarter-budget join that
//! must not collapse (counts; in release builds also its slowdown).

use coupled_hashjoin::prelude::*;
use datagen::Relation;
use hj_core::spill::MemoryGrant;
use hj_core::{reference_pairs, ExecContext, NativeCpu};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn workload(n_build: usize, n_probe: usize) -> (Relation, Relation, u64) {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(n_build, n_probe));
    let expected = reference_match_count(&r, &s);
    (r, s, expected)
}

fn sorted_pairs(outcome: &JoinOutcome) -> Vec<(u32, u32)> {
    let mut pairs = outcome.pairs.clone().expect("pairs were requested");
    pairs.sort_unstable();
    pairs
}

// ---------------------------------------------------------------------------
// MemoryBroker under concurrency
// ---------------------------------------------------------------------------

#[test]
fn broker_contention_grants_and_reclaims_sum_exactly_to_the_budget() {
    const THREADS: usize = 4;
    const BUDGET: usize = 4096;
    const STEP: usize = 64;
    let broker = MemoryBroker::new(BUDGET);
    let start = Arc::new(Barrier::new(THREADS));
    let filled = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let broker = broker.clone();
                let start = Arc::clone(&start);
                let filled = Arc::clone(&filled);
                scope.spawn(move || {
                    let grant = broker.session();
                    start.wait();
                    // Greedy fill: everyone grows until denied.
                    let mut denials = 0u64;
                    while grant.try_grow(STEP).is_ok() {}
                    denials += 1;
                    filled.wait();
                    // The budget is exactly exhausted across all sessions.
                    assert_eq!(broker.granted(), BUDGET);
                    assert!(grant.try_grow(STEP).is_err());
                    filled.wait();
                    // Session 0 reclaims everything it holds; the others
                    // race to re-fill the hole — still never past budget.
                    if i == 0 {
                        let held = grant.granted();
                        grant.shrink(held);
                    }
                    filled.wait();
                    while grant.try_grow(STEP).is_ok() {}
                    denials += 1;
                    filled.wait();
                    assert_eq!(broker.granted(), BUDGET);
                    (grant, denials)
                })
            })
            .collect();
        let grants: Vec<(MemoryGrant, u64)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(broker.sessions(), THREADS);
        let held: usize = grants.iter().map(|(g, _)| g.granted()).sum();
        assert_eq!(held, BUDGET, "per-session grants must sum to the budget");
        drop(grants);
    });
    assert_eq!(broker.granted(), 0, "dropped grants release every byte");
    assert_eq!(broker.sessions(), 0);
}

#[test]
fn broker_pressure_moves_bytes_between_sessions() {
    let broker = MemoryBroker::new(1024);
    let fat = broker.session();
    assert!(fat.try_grow(1024).is_ok());
    let thin = broker.session();
    assert!(thin.try_grow(512).is_err());
    // fat is over its fair share (512) while thin starves.
    let surplus = fat.reclaim_request();
    assert_eq!(surplus, 512);
    fat.shrink(surplus);
    assert!(thin.try_grow(512).is_ok());
    assert_eq!(fat.reclaim_request(), 0);
    assert_eq!(broker.granted(), 1024);
}

// ---------------------------------------------------------------------------
// Byte identity: spilling must not change the join result
// ---------------------------------------------------------------------------

/// SHJ/PHJ x OL/DD/PL: a join forced to spill (tiny arena *and* tiny
/// budget) produces exactly the pairs of the unconstrained in-memory run.
#[test]
fn spilled_joins_are_byte_identical_for_every_scheme() {
    let (r, s, expected) = workload(12_000, 24_000);
    let unconstrained = JoinEngine::coupled(EngineConfig::for_tuples(12_000, 24_000)).unwrap();
    let constrained =
        JoinEngine::coupled(EngineConfig::for_tuples(1_500, 3_000).memory_budget(48 * 1024))
            .unwrap();

    let schemes: [(&str, Scheme); 3] = [
        ("OL", Scheme::offload_gpu()),
        ("DD", Scheme::data_dividing_paper()),
        ("PL", Scheme::pipelined_paper()),
    ];
    let algorithms = [Algorithm::Simple, Algorithm::partitioned_auto()];
    for (label, scheme) in &schemes {
        for algorithm in algorithms {
            let base_request = JoinRequest::builder()
                .algorithm(algorithm)
                .scheme(scheme.clone())
                .collect_results(true)
                .build()
                .unwrap();
            let spill_request = JoinRequest::builder()
                .algorithm(algorithm)
                .scheme(scheme.clone())
                .collect_results(true)
                .spill(SpillConfig::default())
                .build()
                .unwrap();

            let base = unconstrained.submit(&base_request, &r, &s).unwrap();
            let spilled = constrained.submit(&spill_request, &r, &s).unwrap();

            let tag = format!("{label}/{}", algorithm.label());
            assert_eq!(base.matches, expected, "{tag}");
            assert_eq!(spilled.matches, expected, "{tag}");
            assert_eq!(sorted_pairs(&base), sorted_pairs(&spilled), "{tag}");
            assert!(base.spill.is_none(), "{tag}: in-memory run must not spill");
            let report = spilled.spill.expect("spill-enabled run reports");
            assert!(
                report.bytes_spilled > 0,
                "{tag}: the tiny budget must spill"
            );
        }
    }
    assert_eq!(constrained.memory_broker().granted(), 0);
    let dir = constrained
        .spill_dir()
        .expect("spill directory was created");
    assert!(
        std::fs::read_dir(dir).unwrap().next().is_none(),
        "no run files survive the requests"
    );
}

#[test]
fn native_backend_spill_is_byte_identical_even_when_oversized_for_the_arena() {
    let (r, s, expected) = workload(20_000, 40_000);
    let unconstrained = JoinEngine::native(EngineConfig::for_tuples(20_000, 40_000)).unwrap();
    // The inputs do not even pass this engine's admission control — only
    // the spill path can serve them.
    let constrained =
        JoinEngine::native(EngineConfig::for_tuples(2_000, 4_000).memory_budget(128 * 1024))
            .unwrap();
    let base_request = JoinRequest::builder()
        .collect_results(true)
        .build()
        .unwrap();
    let spill_request = JoinRequest::builder()
        .collect_results(true)
        .spill(SpillConfig::default())
        .build()
        .unwrap();

    // Without spill the request is rejected outright.
    assert!(matches!(
        constrained.submit(&base_request, &r, &s),
        Err(JoinError::OversizedInput { .. })
    ));

    let base = unconstrained.submit(&base_request, &r, &s).unwrap();
    let spilled = constrained.submit(&spill_request, &r, &s).unwrap();
    assert_eq!(base.matches, expected);
    assert_eq!(spilled.matches, expected);
    assert_eq!(sorted_pairs(&base), sorted_pairs(&spilled));
    let report = spilled.spill.unwrap();
    assert!(report.bytes_spilled > 0);
    assert_eq!(constrained.memory_broker().granted(), 0);
}

/// Every phase of a spilling join runs on every worker, including those
/// over inputs smaller than a morsel.  On two workers, with one of four
/// partitions spilled: routing scatters each frame of either side as one
/// task (the probe side's tasks also probe the resident table); the
/// resident table's build is cut into one share per worker (2 scatter
/// tasks, 2 folds); and the spilled pair, restored, costs at least 8 pool
/// tasks (2 scatter, 2 folds, 4 or more probe) — where one morsel per
/// phase would make 4 and 3.
#[test]
fn partition_pairs_fan_out_over_the_worker_pool() {
    const PAIRS: usize = 4;
    let (r, s, expected) = workload(PAIRS * 16 * 1024, PAIRS * 32 * 1024);
    // Room for three of the four build partitions, and then for the
    // fourth pair's restore.
    let engine = JoinEngine::native(
        EngineConfig::for_tuples(r.len(), s.len())
            .worker_threads(2)
            .memory_budget(r.bytes() * 7 / 8),
    )
    .unwrap();
    let spill = SpillConfig::default().partitions(PAIRS);
    let request = JoinRequest::builder().spill(spill.clone()).build().unwrap();
    let tasks = || engine.stats().per_worker_tasks.iter().sum::<u64>();
    let before = tasks();
    let out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    let report = out.spill.expect("a budget under the build side spills");
    assert_eq!(report.partitions_spilled, 1, "{report:?}");
    assert_eq!(report.recursion_depth, 0, "every pair is joined once");
    assert_eq!(report.partitions_total, PAIRS as u64);
    let routing =
        (r.len().div_ceil(spill.frame_tuples) + s.len().div_ceil(spill.frame_tuples)) as u64;
    let joins = (tasks() - before).saturating_sub(routing);
    assert!(
        joins >= 4 + 8 * report.partitions_spilled,
        "{joins} pool tasks for the resident table and {} spilled pairs",
        report.partitions_spilled
    );
}

/// Budgets of an eighth, a quarter and a half of the input, on the native
/// backend and the coupled simulator, counting and collecting: every join
/// equals the oracle, and spills what the budget forces — the build side
/// beyond the budget and the matching share of the probe side, that is
/// `max(0, 1 − budget / build bytes)` of the input — to within one
/// partition per side and the frame headers, and nothing when the build
/// side fits.  Nothing stays granted or on disk afterwards.
#[test]
fn every_budget_spills_what_it_forces_and_joins_like_the_oracle() {
    const PARTITIONS: usize = 16;
    /// Frame header bytes (count and checksum).
    const FRAME_HEADER: u64 = 12;
    let (r, s, expected) = workload(16 * 1024, 32 * 1024);
    let oracle = reference_pairs(&r, &s);
    let input = (r.bytes() + s.bytes()) as f64;
    type EngineFor = fn(EngineConfig) -> Result<JoinEngine, JoinError>;
    let engines: [(&str, EngineFor); 2] = [
        ("native", JoinEngine::native),
        ("coupled", JoinEngine::coupled),
    ];
    for (backend, engine_for) in engines {
        for divisor in [8, 4, 2] {
            let budget = (r.bytes() + s.bytes()) / divisor;
            let engine = engine_for(
                EngineConfig::for_tuples(r.len(), s.len())
                    .worker_threads(2)
                    .memory_budget(budget),
            )
            .unwrap();
            for collect in [false, true] {
                let row = format!("{backend}, input/{divisor}, collect {collect}");
                let request = JoinRequest::builder()
                    .collect_results(collect)
                    .spill(SpillConfig::default().partitions(PARTITIONS))
                    .build()
                    .unwrap();
                let out = engine.submit(&request, &r, &s).unwrap();
                assert_eq!(out.matches, expected, "{row}");
                if collect {
                    assert_eq!(sorted_pairs(&out), oracle, "{row}");
                }
                let report = out.spill.expect("every budget is under the input");
                let forced = (1.0 - budget as f64 / r.bytes() as f64).max(0.0) * input;
                // At most three frames per run here: what a partition held
                // when evicted, one flush of its staging and the remainder.
                let headers = (2 * 3 * FRAME_HEADER * report.partitions_spilled) as f64;
                let slack = input / PARTITIONS as f64 + headers;
                let spilled = report.bytes_spilled as f64;
                assert!(
                    (spilled - forced).abs() <= slack,
                    "{row}: {spilled} B spilled where the budget forces {forced} B"
                );
                if forced == 0.0 {
                    assert_eq!(report.bytes_spilled, 0, "{row}");
                }
                assert_eq!(report.recursion_depth, 0, "{row}: {report:?}");
                assert_eq!(engine.memory_broker().granted(), 0, "{row}");
                if let Some(dir) = engine.spill_dir() {
                    assert!(std::fs::read_dir(dir).unwrap().next().is_none(), "{row}");
                }
            }
        }
    }
}

/// Routing is chunked by the spill config and the pool's width, never by
/// the request's morsel: a one-tuple morsel and one larger than the input
/// spill exactly what the default morsel does — re-partitioned pairs
/// included — and hand every granted byte back.
#[test]
fn spill_routing_does_not_depend_on_the_morsel() {
    let (r, s, expected) = workload(48_000, 96_000);
    let engine = JoinEngine::native(
        EngineConfig::for_tuples(2_000, 4_000)
            .worker_threads(2)
            .memory_budget((r.bytes() + s.bytes()) / 64),
    )
    .unwrap();
    let report_at = |morsel: Option<usize>| {
        let mut request = JoinRequest::builder().spill(SpillConfig::default().frame_tuples(1024));
        if let Some(morsel) = morsel {
            request = request.morsel_tuples(morsel);
        }
        let out = engine.submit(&request.build().unwrap(), &r, &s).unwrap();
        assert_eq!(out.matches, expected, "morsel {morsel:?}");
        assert_eq!(engine.memory_broker().granted(), 0, "morsel {morsel:?}");
        SpillReport {
            spill_wall_secs: 0.0,
            ..out.spill.expect("a 1/64 budget spills")
        }
    };
    let default = report_at(None);
    assert_eq!(
        default.recursion_depth, 1,
        "spilled pairs are re-partitioned"
    );
    assert!(
        default.partitions_spilled < default.partitions_total,
        "{default:?}"
    );
    for morsel in [1, r.len() + s.len() + 1] {
        assert_eq!(report_at(Some(morsel)), default, "morsel {morsel}");
    }
}

/// A spilling simulator join routes on the worker pool, yet what spills,
/// what is restored and the simulated time — spill I/O included — are the
/// same at every pool width: routing books one frame at a time in input
/// order, and the resident table is probed one frame at a time.
#[test]
fn simulated_spill_values_are_pinned_at_every_pool_width() {
    let (r, s, expected) = workload(24_000, 48_000);
    for width in [1, 2, 3] {
        let engine = JoinEngine::coupled(
            EngineConfig::for_tuples(1_000, 2_000)
                .worker_threads(width)
                .memory_budget((r.bytes() + s.bytes()) / 4),
        )
        .unwrap();
        let request = JoinRequest::builder()
            .spill(SpillConfig::default().frame_tuples(1024))
            .build()
            .unwrap();
        let out = engine.submit(&request, &r, &s).unwrap();
        assert_eq!(out.matches, expected);
        let report = SpillReport {
            spill_wall_secs: 0.0,
            ..out.spill.unwrap()
        };
        let pinned = SpillReport {
            bytes_spilled: 464_404,
            bytes_restored: 464_404,
            partitions_spilled: 24,
            partitions_total: 272,
            recursion_depth: 1,
            fallback_joins: 0,
            grant_denials: 24,
            reclaimed_bytes: 0,
            spill_wall_secs: 0.0,
        };
        assert_eq!(report, pinned, "width {width}");
        assert_eq!(
            out.breakdown.get(Phase::SpillIo).as_ns(),
            51_600.444_444_444_445,
            "width {width}"
        );
        assert_eq!(
            out.total_time().as_ns(),
            1_004_739.104_117_102_7,
            "width {width}"
        );
    }
}

#[test]
fn spill_enabled_requests_stay_in_memory_when_nothing_presses() {
    // Plenty of arena and budget: the fast path runs, no report is
    // attached, and no spill directory is ever created.
    let (r, s, expected) = workload(4_000, 8_000);
    let engine =
        JoinEngine::coupled(EngineConfig::for_tuples(8_000, 16_000).memory_budget(64 << 20))
            .unwrap();
    let request = JoinRequest::builder()
        .spill(SpillConfig::default())
        .build()
        .unwrap();
    let out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    assert!(out.spill.is_none(), "fast path must not fabricate a report");
    assert!(
        engine.spill_dir().is_none(),
        "no directory without spilling"
    );
    assert_eq!(engine.stats().spilled_requests, 0);
}

#[test]
fn arena_exhaustion_mid_join_falls_through_to_the_spill_path() {
    // Same pathological workload as the engine_api hard-failure test: a
    // fully duplicate key space blows the arena's result-space heuristic.
    // With spill enabled the request now completes.
    let r = Relation::from_keys(vec![42; 1024]);
    let s = Relation::from_keys(vec![42; 4096]);
    let expected = reference_match_count(&r, &s);
    let engine = JoinEngine::coupled(EngineConfig::for_tuples(1024, 4096)).unwrap();

    let plain = JoinRequest::builder().build().unwrap();
    assert!(matches!(
        engine.submit(&plain, &r, &s),
        Err(JoinError::ArenaExhausted { .. })
    ));

    let spilling = JoinRequest::builder()
        .spill(SpillConfig::default().partitions(4).max_recursion_depth(1))
        .build()
        .unwrap();
    let out = engine.submit(&spilling, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    assert!(out.spill.is_some());
}

// ---------------------------------------------------------------------------
// Recursion cap and nested-loop fallback
// ---------------------------------------------------------------------------

#[test]
fn recursion_cap_falls_back_to_block_nested_loop_and_stays_correct() {
    // Distinct keys split at every depth, but a budget this small keeps
    // every pair too large to restore: the executor must ride the recursion
    // to the cap and still finish correctly via the block nested-loop
    // fallback.
    let (r, s, expected) = workload(32_000, 32_000);
    let engine =
        JoinEngine::coupled(EngineConfig::for_tuples(1_000, 2_000).memory_budget(16 * 1024))
            .unwrap();
    let request = JoinRequest::builder()
        .collect_results(true)
        .spill(SpillConfig::default().partitions(4).max_recursion_depth(1))
        .build()
        .unwrap();
    let out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    assert_eq!(sorted_pairs(&out), reference_pairs(&r, &s));
    let report = out.spill.unwrap();
    assert_eq!(report.recursion_depth, 1, "{report:?}");
    assert!(
        report.fallback_joins > 0,
        "past the cap only the fallback is left"
    );
    assert_eq!(engine.memory_broker().granted(), 0);
    assert_eq!(engine.stats().spill_fallback_joins, report.fallback_joins);
}

/// A partition that no partitioning can shrink goes straight to the
/// fallback: a 4 MiB build side of one key, under a budget that forces it
/// to spill, is written once and joined at depth 0 — not re-partitioned up
/// to the recursion cap, rewriting it at every level.
#[test]
fn a_single_key_build_side_is_written_once_and_joined_by_the_fallback() {
    const BUILD: usize = 512 * 1024;
    const KEY: u32 = 7;
    let r = Relation::from_keys(vec![KEY; BUILD]);
    let s = Relation::from_keys(
        (0..16 * 1024u32)
            .map(|i| if i % 1024 == 0 { KEY } else { 1_000 + i })
            .collect(),
    );
    let expected = reference_match_count(&r, &s);
    assert_eq!(expected, 16 * BUILD as u64);
    let input_bytes = (r.bytes() + s.bytes()) as u64;
    let engine = JoinEngine::native(
        EngineConfig::for_tuples(r.len(), s.len())
            .worker_threads(2)
            .memory_budget(1 << 20),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .spill(SpillConfig::default())
        .build()
        .unwrap();
    let out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    let report = out.spill.expect("a 4 MiB build side spills under 1 MiB");
    assert_eq!(report.recursion_depth, 0, "{report:?}");
    assert_eq!(report.fallback_joins, 1, "{report:?}");
    assert!(
        report.bytes_spilled <= input_bytes,
        "{} B spilled for {input_bytes} B of input",
        report.bytes_spilled
    );
    assert_eq!(engine.memory_broker().granted(), 0);
    let dir = engine.spill_dir().expect("the join spilled");
    assert!(std::fs::read_dir(dir).unwrap().next().is_none());
}

#[test]
fn depth_zero_cap_goes_straight_to_fallback() {
    let (r, s, expected) = workload(6_000, 6_000);
    let engine =
        JoinEngine::coupled(EngineConfig::for_tuples(1_000, 1_000).memory_budget(8 * 1024))
            .unwrap();
    let request = JoinRequest::builder()
        .spill(SpillConfig::default().partitions(4).max_recursion_depth(0))
        .build()
        .unwrap();
    let out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    let report = out.spill.unwrap();
    assert_eq!(report.recursion_depth, 0);
    assert!(report.fallback_joins > 0);
}

// ---------------------------------------------------------------------------
// Unwind hygiene: a panicking spill run leaks neither grant nor files
// ---------------------------------------------------------------------------

/// Panics on the `panic_at`-th execute call (pair joins included), then
/// succeeds forever after.
struct PanicOnNth {
    sys: apu_sim::SystemSpec,
    calls: AtomicUsize,
    panic_at: usize,
}

impl hj_core::ExecBackend for PanicOnNth {
    fn name(&self) -> &'static str {
        "panic-on-nth"
    }
    fn system(&self) -> &apu_sim::SystemSpec {
        &self.sys
    }
    fn execute(
        &self,
        _ctx: &mut ExecContext<'_>,
        _build: &Relation,
        _probe: &Relation,
        _request: &hj_core::JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.panic_at {
            panic!("injected pair-join panic");
        }
        Ok(JoinOutcome::default())
    }
}

#[test]
fn panicked_spilling_join_releases_its_grant_and_temp_files() {
    let (r, s, _) = workload(8_000, 8_000);
    // Budget far below the footprint: the spill path engages immediately
    // and evicts partitions to disk before the first pair join panics.
    let engine = JoinEngine::new(
        Box::new(PanicOnNth {
            sys: apu_sim::SystemSpec::coupled_a8_3870k(),
            calls: AtomicUsize::new(0),
            panic_at: 0,
        }),
        EngineConfig::for_tuples(8_000, 8_000).memory_budget(16 * 1024),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .spill(SpillConfig::default().partitions(4))
        .build()
        .unwrap();

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = engine.submit(&request, &r, &s);
    }));
    assert!(unwound.is_err(), "the pair-join panic must propagate");

    assert_eq!(
        engine.memory_broker().granted(),
        0,
        "the unwound session's grant must be released"
    );
    assert_eq!(engine.memory_broker().sessions(), 0);
    let dir = engine
        .spill_dir()
        .expect("the request spilled before panicking");
    assert!(
        std::fs::read_dir(dir).unwrap().next().is_none(),
        "every run file of the unwound request must be deleted"
    );

    // The engine keeps serving (the backend succeeds from now on).
    let (ok_r, ok_s, _) = workload(64, 64);
    let plain = JoinRequest::builder().build().unwrap();
    assert!(engine.submit(&plain, &ok_r, &ok_s).is_ok());
    assert_eq!(engine.stats().requests_failed, 1);
}

/// The spill path evicts the largest resident partition.  One hot key
/// holds half the build side, and the budget is one tuple short of the
/// build side: the first denial comes on the last build frame, and
/// evicting the hot partition frees enough that nothing else spills.  A smallest-
/// first victim would also stop after one eviction, but would spill a
/// few kilobytes instead of the hot partition.
#[test]
fn a_native_spill_evicts_the_hot_partition_first() {
    const BUILD: u32 = 32 * 1024;
    const HOT_KEY: u32 = 7;
    let hot_tuples = BUILD as usize / 2;
    let build_keys = (0..BUILD)
        .map(|i| if i % 2 == 0 { HOT_KEY } else { 1_000_000 + i })
        .collect();
    let probe_keys = (0..2 * BUILD)
        .map(|i| {
            if i % 1024 == 0 {
                HOT_KEY
            } else {
                1_000_000 + i % BUILD
            }
        })
        .collect();
    let r = Relation::from_keys(build_keys);
    let s = Relation::from_keys(probe_keys);
    let expected = reference_match_count(&r, &s);
    let engine = JoinEngine::native(
        EngineConfig::for_tuples(r.len(), s.len())
            .worker_threads(2)
            .memory_budget(r.bytes() - datagen::TUPLE_BYTES),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .spill(SpillConfig::default())
        .build()
        .unwrap();
    let out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    let report = out.spill.expect("a budget under the input spills");
    assert_eq!(report.partitions_spilled, 1, "{report:?}");
    assert!(
        report.bytes_spilled >= (hot_tuples * datagen::TUPLE_BYTES) as u64,
        "the hot partition holds {hot_tuples} build tuples, yet only {} B spilled",
        report.bytes_spilled
    );
    assert_eq!(report.recursion_depth, 0, "{report:?}");
    assert_eq!(engine.memory_broker().granted(), 0);
}

// ---------------------------------------------------------------------------
// Zero headroom: concurrent sessions under one starved budget
// ---------------------------------------------------------------------------

#[test]
fn zero_headroom_concurrent_sessions_all_complete_with_accounted_reports() {
    const CLIENTS: usize = 4;
    let (r, s, expected) = workload(10_000, 10_000);
    // Each request's resident footprint (~160 KB) dwarfs its fair share of
    // the 96 KB budget: every session must degrade to disk, none may fail.
    let engine = Arc::new(
        JoinEngine::coupled(
            EngineConfig::for_tuples(2_000, 2_000)
                .sessions(CLIENTS)
                .memory_budget(96 * 1024),
        )
        .unwrap(),
    );
    let request = JoinRequest::builder()
        .spill(SpillConfig::default())
        .build()
        .unwrap();

    let go = Arc::new(Barrier::new(CLIENTS));
    let reports: Vec<SpillReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let request = request.clone();
                let go = Arc::clone(&go);
                let (r, s) = (&r, &s);
                scope.spawn(move || {
                    go.wait();
                    let out = engine
                        .submit(&request, r, s)
                        .expect("zero headroom must degrade, not fail");
                    assert_eq!(out.matches, expected);
                    out.spill.expect("every session must report its spilling")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = engine.stats();
    let spilled_bytes: u64 = reports.iter().map(|p| p.bytes_spilled).sum();
    assert!(spilled_bytes > 0, "a starved budget must spill bytes");
    assert_eq!(
        stats.spill_bytes_written, spilled_bytes,
        "every spilled byte must be accounted in the engine stats"
    );
    assert_eq!(
        stats.spill_bytes_restored,
        reports.iter().map(|p| p.bytes_restored).sum::<u64>()
    );
    assert_eq!(
        stats.spill_partitions,
        reports.iter().map(|p| p.partitions_spilled).sum::<u64>()
    );
    assert_eq!(
        stats.spilled_requests,
        reports.iter().filter(|p| p.bytes_spilled > 0).count() as u64
    );

    assert_eq!(engine.memory_broker().granted(), 0, "all grants released");
    let dir = engine.spill_dir().expect("spilling happened");
    assert!(
        std::fs::read_dir(dir).unwrap().next().is_none(),
        "no leaked temp files after the burst"
    );
    let dir = dir.to_path_buf();
    drop(reports);
    drop(request);
    drop(Arc::try_unwrap(engine).expect("all clients joined"));
    assert!(!dir.exists(), "engine drop removes the spill directory");
}

// ---------------------------------------------------------------------------
// A quarter budget degrades a join, it does not collapse it
// ---------------------------------------------------------------------------

/// 256 Ki ⨝ 512 Ki uniform keys on the native backend, and an engine whose
/// memory budget is a quarter of that input.
struct QuarterBudget {
    r: Relation,
    s: Relation,
    expected: u64,
    input_bytes: usize,
    engine: JoinEngine,
    request: JoinRequest,
}

impl QuarterBudget {
    fn new() -> Self {
        let (r, s, expected) = workload(256 * 1024, 512 * 1024);
        let input_bytes = r.bytes() + s.bytes();
        let engine = JoinEngine::native(
            EngineConfig::for_tuples(r.len(), s.len()).memory_budget(input_bytes / 4),
        )
        .unwrap();
        let request = JoinRequest::builder()
            .scheme(Scheme::pipelined_paper())
            .spill(SpillConfig::default())
            .build()
            .unwrap();
        QuarterBudget {
            r,
            s,
            expected,
            input_bytes,
            engine,
            request,
        }
    }

    /// One spilling join, checked against the oracle.
    fn submit(&self) -> SpillReport {
        let out = self.engine.submit(&self.request, &self.r, &self.s).unwrap();
        assert_eq!(out.matches, self.expected);
        out.spill
            .expect("a quarter budget must take the spill path")
    }

    /// Nothing granted and no run file left once the joins are done.
    fn assert_clean(&self) {
        assert_eq!(self.engine.memory_broker().granted(), 0);
        let dir = self.engine.spill_dir().expect("the joins spilled");
        assert!(std::fs::read_dir(dir).unwrap().next().is_none());
    }
}

/// What a collapse would show as counts: uniform keys under a quarter
/// budget partition once (recursion depth 0), never fall back to the block
/// nested loop, and write at most 0.3 of their input to disk — the budget
/// holds three quarters of the build side, so only a quarter of each side
/// (one partition in sixteen, plus frame headers) should spill.
#[test]
fn quarter_budget_spill_stays_at_depth_zero_and_writes_less_than_its_input() {
    let case = QuarterBudget::new();
    let report = case.submit();
    assert!(report.bytes_spilled > 0, "{report:?}");
    assert_eq!(report.recursion_depth, 0, "{report:?}");
    assert_eq!(report.fallback_joins, 0, "{report:?}");
    assert!(
        report.bytes_spilled as f64 <= 0.3 * case.input_bytes as f64,
        "{} B spilled for {} B of input",
        report.bytes_spilled,
        case.input_bytes
    );
    case.assert_clean();
}

/// A quarter-budget spilling join runs within 25× of the same join in
/// memory (release builds only: a timing bound, far wider than its
/// spread — 2.2–3.9× over fourteen runs of this suite on a 2-vCPU host,
/// where routing both sides before joining read 3.5–4.0× in the same
/// session).  One warm-up each, then the medians of five interleaved runs.
#[cfg(not(debug_assertions))]
#[test]
fn quarter_budget_spill_runs_within_25x_of_in_memory() {
    use std::time::Instant;
    const MAX_SLOWDOWN: f64 = 25.0;
    const RUNS: usize = 5;
    let case = QuarterBudget::new();
    let in_memory =
        JoinEngine::native(EngineConfig::for_tuples(case.r.len(), case.s.len())).unwrap();
    let plain = JoinRequest::builder()
        .scheme(Scheme::pipelined_paper())
        .build()
        .unwrap();
    let resident = || {
        let out = in_memory.submit(&plain, &case.r, &case.s).unwrap();
        assert_eq!(out.matches, case.expected);
        assert!(out.spill.is_none());
    };
    resident();
    case.submit();
    let (mut memory_secs, mut spill_secs) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        let start = Instant::now();
        resident();
        memory_secs.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        case.submit();
        spill_secs.push(start.elapsed().as_secs_f64());
    }
    let slowdown = exact_quantile(&mut spill_secs, 0.5).unwrap()
        / exact_quantile(&mut memory_secs, 0.5).unwrap();
    assert!(
        slowdown <= MAX_SLOWDOWN,
        "spilling at a quarter budget is {slowdown:.2}x in-memory, above {MAX_SLOWDOWN}x"
    );
    case.assert_clean();
}

// ---------------------------------------------------------------------------
// File-backed tables drive a larger-than-budget build side
// ---------------------------------------------------------------------------

#[test]
fn file_backed_build_side_streams_through_the_spill_path() {
    // Generate both sides straight to disk (deterministic from seeds),
    // stream them back, and join under a budget far below the build size.
    let dir = std::env::temp_dir().join(format!("hj-spill-tablefile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let build_spec = datagen::FileTableSpec::new(30_000, 11).batch_tuples(4_096);
    let probe_spec = datagen::FileTableSpec::new(30_000, 12).batch_tuples(4_096);
    let build_path = dir.join("build.hjtb");
    let probe_path = dir.join("probe.hjtb");
    datagen::generate_build_table(&build_path, &build_spec).unwrap();
    datagen::generate_probe_table(&probe_path, &probe_spec, &build_spec).unwrap();

    let r = datagen::TableFileReader::open(&build_path)
        .unwrap()
        .read_all()
        .unwrap();
    let s = datagen::TableFileReader::open(&probe_path)
        .unwrap()
        .read_all()
        .unwrap();
    // Every probe key is drawn from the build universe: known cardinality.
    let expected = s.len() as u64;
    assert_eq!(reference_match_count(&r, &s), expected);

    let engine = JoinEngine::new(
        Box::new(NativeCpu::new()),
        EngineConfig::for_tuples(4_000, 4_000).memory_budget(64 * 1024),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .spill(SpillConfig::default())
        .build()
        .unwrap();
    let out = engine.submit(&request, &r, &s).unwrap();
    assert_eq!(out.matches, expected);
    assert!(out.spill.unwrap().bytes_spilled > 0);

    std::fs::remove_dir_all(&dir).unwrap();
}
