//! Whole-engine lock-discipline audit: drives the real subsystems —
//! session admission, the native worker pool and execution gate, the
//! hash-table cache's single-flight builds, the spill broker — under the
//! `lock-order` instrumentation and asserts the acquisition graph stays
//! free of order cycles, condvar-discipline violations and leaked guards.
//!
//! Run with `cargo test --features lock-order --test lock_discipline`.
//! These tests only *read* the global violation registry
//! ([`hj_analysis::lockorder::violations`]), so they can run concurrently
//! with each other without draining one another's evidence.

#![cfg(feature = "lock-order")]

use coupled_hashjoin::prelude::*;
use datagen::Relation;
use hj_analysis::lockorder;

fn workload(n_build: usize, n_probe: usize) -> (Relation, Relation, u64) {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(n_build, n_probe));
    let expected = reference_match_count(&r, &s);
    (r, s, expected)
}

fn assert_no_violations(context: &str) {
    let violations = lockorder::violations();
    assert!(
        violations.is_empty(),
        "{context}: lock-order violations recorded:\n{:#?}",
        violations
    );
}

/// Concurrent native submits (worker pool, exec gate, session pool)
/// interleaved with `stats()` snapshots and table registrations — the
/// interleaving that once nested the engine's former stats lock over
/// `engine.registry` inside `stats()`.
#[test]
fn concurrent_native_submits_and_stats_snapshots_stay_clean() {
    assert!(lockorder::enabled());
    let engine = JoinEngine::native(
        EngineConfig::for_tuples(4_096, 8_192)
            .sessions(3)
            .worker_threads(4),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .algorithm(Algorithm::Simple)
        .scheme(Scheme::pipelined_paper())
        .build()
        .unwrap();
    let (r, s, expected) = workload(4_096, 8_192);

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (engine, request, r, s) = (&engine, &request, &r, &s);
            scope.spawn(move || {
                for _ in 0..4 {
                    let outcome = engine.submit(request, r, s).unwrap();
                    assert_eq!(outcome.matches, expected);
                }
            });
        }
        // Snapshots and registrations race the submits: `stats()` locks
        // the registry, `register_table` locks registry + cache.
        scope.spawn(|| {
            for i in 0..8 {
                let _ = engine.stats();
                let handle = engine.register_table(&format!("t{i}"), r.clone());
                assert_eq!(handle.version(), 1);
            }
        });
    });

    assert_no_violations("native submits + stats/registry traffic");
}

/// Cached joins: single-flight misses from several threads, hits, and a
/// re-registration that invalidates under the registry lock (the
/// `engine.registry` → `cache.inner` edge) while probes still run.
#[test]
fn cached_single_flight_and_invalidation_stay_clean() {
    let engine = JoinEngine::coupled(
        EngineConfig::for_tuples(4_096, 8_192)
            .sessions(3)
            .memory_budget(64 << 20),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .algorithm(Algorithm::Simple)
        .scheme(Scheme::pipelined_paper())
        .build()
        .unwrap();
    let (r, s, expected) = workload(4_096, 8_192);
    let handle = engine.register_table("orders", r.clone());

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (engine, request, handle, s) = (&engine, &request, &handle, &s);
            scope.spawn(move || {
                for _ in 0..3 {
                    let outcome = engine.submit_cached(request, handle, s).unwrap();
                    assert_eq!(outcome.matches, expected);
                }
            });
        }
    });
    // Version bump: invalidation walks the cache while holding the
    // registry lock; stale-handle probes stay correct.
    let bumped = engine.register_table("orders", r.clone());
    assert_eq!(bumped.version(), 2);
    let outcome = engine.submit_cached(&request, &handle, &s).unwrap();
    assert_eq!(outcome.matches, expected);
    assert!(engine.stats().cache.hits > 0);

    assert_no_violations("cached single-flight + invalidation");
}

/// Spilling joins under a tight memory budget: the broker's grant/reclaim
/// traffic (`spill.broker_state`) and the spill manager's file accounting
/// (`spill.live_files`) interleave with session-pool locking.
#[test]
fn spilling_joins_under_budget_pressure_stay_clean() {
    let engine = JoinEngine::coupled(
        EngineConfig::for_tuples(1_500, 3_000)
            .sessions(2)
            .memory_budget(48 * 1024),
    )
    .unwrap();
    let request = JoinRequest::builder()
        .algorithm(Algorithm::partitioned_auto())
        .scheme(Scheme::pipelined_paper())
        .spill(SpillConfig::default())
        .build()
        .unwrap();
    // A workload far larger than the engine's arena (sized for 1.5 K/3 K
    // tuples) under a tiny broker budget: the joins must spill.
    let (r, s, expected) = workload(12_000, 24_000);

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (engine, request, r, s) = (&engine, &request, &r, &s);
            scope.spawn(move || {
                let outcome = engine.submit(request, r, s).unwrap();
                assert_eq!(outcome.matches, expected);
            });
        }
    });
    assert!(engine.stats().spilled_requests > 0);

    assert_no_violations("spill under budget pressure");
}
