//! Integration tests of the table registry and build-side hash-table
//! cache: cached-vs-uncached byte identity across schemes and backends,
//! version-bump invalidation, single-flight cold misses, LRU eviction
//! under a shared memory budget with concurrent spill joins, and the
//! panicking-builder regression.

use coupled_hashjoin::prelude::*;
use datagen::Relation;
use hj_core::{CacheParams, CachedTable, ExecContext};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

fn workload(n_build: usize, n_probe: usize) -> (Relation, Relation, u64) {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(n_build, n_probe));
    let expected = reference_match_count(&r, &s);
    (r, s, expected)
}

// ---------------------------------------------------------------------------
// Byte identity: the cached probe-only path returns exactly what the
// build-every-time path returns, for every algorithm x scheme, on both the
// coupled simulator and the native backend.
// ---------------------------------------------------------------------------

fn assert_cached_identity(engine: &JoinEngine, backend: &str) {
    let (r, s, expected) = workload(4_000, 8_000);
    let table = engine.register_table("identity", r.clone());
    let schemes: [(&str, Scheme); 3] = [
        ("OL", Scheme::offload_gpu()),
        ("DD", Scheme::data_dividing_paper()),
        ("PL", Scheme::pipelined_paper()),
    ];
    let algorithms = [Algorithm::Simple, Algorithm::partitioned_auto()];
    for (label, scheme) in &schemes {
        for algorithm in algorithms {
            let request = JoinRequest::builder()
                .algorithm(algorithm)
                .scheme(scheme.clone())
                .collect_results(true)
                .build()
                .unwrap();
            let tag = format!("{backend}/{label}/{}", algorithm.label());
            let uncached = engine.submit(&request, &r, &s).unwrap();
            let cached = engine.submit_cached(&request, &table, &s).unwrap();
            assert_eq!(uncached.matches, expected, "{tag}");
            assert_eq!(cached.matches, expected, "{tag}");
            assert_eq!(
                cached.pairs, uncached.pairs,
                "{tag}: cached pairs must be byte-identical, order included"
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.registered_tables, 1, "{backend}");
    assert!(
        stats.cache.misses >= 1 && stats.cache.hits >= 1,
        "{backend}: repeat submissions must hit the cache, got {:?}",
        stats.cache
    );
    assert_eq!(
        stats.cache.misses + stats.cache.hits,
        6,
        "{backend}: every cached submission is a hit or a miss, got {:?}",
        stats.cache
    );
    assert!(
        stats.cache.build_ns_saved > 0,
        "{backend}: hits must bank the skipped build time"
    );
}

#[test]
fn cached_joins_are_byte_identical_on_the_coupled_simulator() {
    let engine = JoinEngine::coupled(EngineConfig::for_tuples(4_000, 8_000)).unwrap();
    assert_cached_identity(&engine, "coupled-sim");
}

#[test]
fn cached_joins_are_byte_identical_on_the_native_backend() {
    let engine = JoinEngine::native(EngineConfig::for_tuples(4_000, 8_000)).unwrap();
    assert_cached_identity(&engine, "native-cpu");
}

// ---------------------------------------------------------------------------
// Versioning
// ---------------------------------------------------------------------------

#[test]
fn reregistering_a_table_bumps_the_version_and_invalidates_the_cache() {
    let (r, s, expected) = workload(2_000, 4_000);
    let engine = JoinEngine::native(EngineConfig::for_tuples(2_000, 4_000)).unwrap();
    let request = JoinRequest::builder().build().unwrap();

    let v1 = engine.register_table("dim", r.clone());
    assert_eq!(v1.version(), 1);
    assert_eq!(
        engine.submit_cached(&request, &v1, &s).unwrap().matches,
        expected
    );
    assert_eq!(
        engine.submit_cached(&request, &v1, &s).unwrap().matches,
        expected
    );
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));

    // New contents under the same name: the version bumps, cached tables
    // of the old version are dropped, and the next request rebuilds.
    let mut updated = Relation::new();
    for (rid, key) in r.iter() {
        updated.push(rid, key.wrapping_add(1));
    }
    let v2 = engine.register_table("dim", updated.clone());
    assert_eq!(v2.version(), 2);
    assert_eq!(engine.table("dim").unwrap().version(), 2);

    let fresh = engine.submit_cached(&request, &v2, &s).unwrap();
    assert_eq!(fresh.matches, reference_match_count(&updated, &s));
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 2, "{stats:?}");
    assert!(stats.invalidations >= 1, "{stats:?}");
}

#[test]
fn oversized_probes_are_rejected_on_the_cached_path() {
    let (r, _, _) = workload(1_000, 1_000);
    let (_, huge, _) = workload(16, 8_000);
    let engine = JoinEngine::native(EngineConfig::for_tuples(1_000, 2_000)).unwrap();
    let table = engine.register_table("dim", r);
    let request = JoinRequest::builder().build().unwrap();
    assert!(matches!(
        engine.submit_cached(&request, &table, &huge),
        Err(JoinError::OversizedInput { .. })
    ));
}

// ---------------------------------------------------------------------------
// Single flight
// ---------------------------------------------------------------------------

#[test]
fn concurrent_cold_requests_build_once() {
    const CLIENTS: usize = 4;
    let (r, s, expected) = workload(32_000, 16_000);
    let engine = Arc::new(
        JoinEngine::native(EngineConfig::for_tuples(32_000, 16_000).sessions(CLIENTS)).unwrap(),
    );
    let table = engine.register_table("hot", r);
    let request = JoinRequest::builder().build().unwrap();

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            let table = table.clone();
            let request = request.clone();
            let s = s.clone();
            scope.spawn(move || {
                let out = engine.submit_cached(&request, &table, &s).unwrap();
                assert_eq!(out.matches, expected);
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "N concurrent cold requests must produce exactly one build: {stats:?}"
    );
    assert_eq!(stats.hits as usize, CLIENTS - 1, "{stats:?}");
    assert_eq!(
        stats.build_latency.count(),
        1,
        "one build, one latency sample: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Eviction under a shared budget, racing spill joins
// ---------------------------------------------------------------------------

/// Several hot tables that cannot all fit the budget, probed concurrently
/// with spill-enabled joins drawing on the *same* memory broker: no
/// deadlock, every result correct, the cache evicts under pressure, and
/// dropping the engine returns every cached byte to the broker.
#[test]
fn cache_eviction_coexists_with_spill_joins_on_one_budget() {
    const TABLES: usize = 3;
    const ROUNDS: usize = 4;
    let request = JoinRequest::builder().build().unwrap();

    // Three distinct build tables of one shape.
    let mut builds = Vec::new();
    let mut probes = Vec::new();
    let mut expected = Vec::new();
    for i in 0..TABLES {
        let (r, s) =
            datagen::generate_pair(&DataGenConfig::small(8_000, 16_000).with_seed(7 + i as u64));
        expected.push(reference_match_count(&r, &s));
        builds.push(r);
        probes.push(s);
    }

    // The budget follows the table layout instead of hard-coding it: measure
    // one cached table on an unbudgeted engine, then allow 1.7x that — one
    // table fits, two never do, so round-robin probing must evict.
    let one_table = {
        let engine = JoinEngine::native(EngineConfig::for_tuples(8_000, 16_000)).unwrap();
        let table = engine.register_table("sizing", builds[0].clone());
        engine.submit_cached(&request, &table, &probes[0]).unwrap();
        engine.cache_stats().bytes
    };
    assert!(one_table > 0);
    let budget = one_table * 17 / 10;
    let engine = Arc::new(
        JoinEngine::native(
            EngineConfig::for_tuples(8_000, 16_000)
                .memory_budget(budget)
                .sessions(4),
        )
        .unwrap(),
    );
    let tables: Vec<TableHandle> = builds
        .into_iter()
        .enumerate()
        .map(|(i, r)| engine.register_table(&format!("t{i}"), r))
        .collect();
    let spill_request = JoinRequest::builder()
        .collect_results(true)
        .spill(SpillConfig::default())
        .build()
        .unwrap();
    let (spill_r, spill_s, spill_expected) = workload(6_000, 12_000);

    std::thread::scope(|scope| {
        // Cache-path clients, one per table, interleaving evictions.
        for t in 0..TABLES {
            let engine = Arc::clone(&engine);
            let table = tables[t].clone();
            let probe = probes[t].clone();
            let request = request.clone();
            let want = expected[t];
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let out = engine.submit_cached(&request, &table, &probe).unwrap();
                    assert_eq!(out.matches, want, "table t{t}");
                }
            });
        }
        // Spill clients competing for the same broker budget.
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let request = spill_request.clone();
            let (r, s) = (spill_r.clone(), spill_s.clone());
            scope.spawn(move || {
                for _ in 0..2 {
                    let out = engine.submit(&request, &r, &s).unwrap();
                    assert_eq!(out.matches, spill_expected);
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert!(
        stats.evictions > 0,
        "three {one_table} B tables under a {budget} B budget must evict: {stats:?}"
    );
    assert!(
        stats.bytes <= budget,
        "cached bytes may never exceed the budget: {stats:?}"
    );

    // Every cached byte is accounted back to the broker on engine drop.
    let broker = engine.memory_broker().clone();
    drop(tables);
    drop(engine);
    assert_eq!(broker.granted(), 0, "engine drop must release every byte");
    assert_eq!(broker.sessions(), 0);
}

// ---------------------------------------------------------------------------
// Panicking builder (regression)
// ---------------------------------------------------------------------------

/// Delegates everything to a real [`NativeCpu`], but while `armed` panics on
/// the first cached build after parking until the test releases it; notes
/// the footprint every completed cached build reports.
#[derive(Default)]
struct PanickyBuild {
    inner: NativeCpu,
    armed: AtomicBool,
    entered: Arc<(Mutex<bool>, Condvar)>,
    release: Arc<(Mutex<bool>, Condvar)>,
    /// `(build tuples, reported bytes)` per cached build, in build order.
    built: Arc<Mutex<Vec<(usize, usize)>>>,
}

impl PanickyBuild {
    fn signal(pair: &Arc<(Mutex<bool>, Condvar)>) {
        *pair.0.lock().unwrap() = true;
        pair.1.notify_all();
    }

    fn wait(pair: &Arc<(Mutex<bool>, Condvar)>) {
        let mut flag = pair.0.lock().unwrap();
        while !*flag {
            flag = pair.1.wait(flag).unwrap();
        }
    }
}

impl ExecBackend for PanickyBuild {
    fn name(&self) -> &'static str {
        "panicky-build"
    }

    fn system(&self) -> &apu_sim::SystemSpec {
        self.inner.system()
    }

    fn execute(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        self.inner.execute(ctx, build, probe, request)
    }

    fn cache_params(&self, request: &JoinRequest, build_tuples: usize) -> Option<CacheParams> {
        self.inner.cache_params(request, build_tuples)
    }

    fn build_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        request: &JoinRequest,
    ) -> Result<CachedTable, JoinError> {
        if self.armed.swap(false, Ordering::SeqCst) {
            PanickyBuild::signal(&self.entered);
            PanickyBuild::wait(&self.release);
            panic!("injected cached-build panic");
        }
        let table = self.inner.build_cached(ctx, build, request)?;
        self.built
            .lock()
            .unwrap()
            .push((table.build_tuples(), table.bytes()));
        Ok(table)
    }

    fn probe_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        cached: &CachedTable,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        self.inner.probe_cached(ctx, cached, probe, request)
    }
}

#[test]
fn a_panicked_build_does_not_wedge_single_flight_waiters() {
    let (r, s, expected) = workload(2_000, 4_000);
    let entered = Arc::new((Mutex::new(false), Condvar::new()));
    let release = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = Arc::new(
        JoinEngine::new(
            Box::new(PanickyBuild {
                armed: AtomicBool::new(true),
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
                ..PanickyBuild::default()
            }),
            EngineConfig::for_tuples(2_000, 4_000).sessions(4),
        )
        .unwrap(),
    );
    let table = engine.register_table("flaky", r);
    let request = JoinRequest::builder().build().unwrap();

    std::thread::scope(|scope| {
        // The builder: first cached build parks, then panics on release.
        let builder = {
            let engine = Arc::clone(&engine);
            let (table, request, s) = (table.clone(), request.clone(), s.clone());
            scope.spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = engine.submit_cached(&request, &table, &s);
                }))
            })
        };
        PanickyBuild::wait(&entered);

        // Two waiters pile onto the in-flight build.
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let (table, request, s) = (table.clone(), request.clone(), s.clone());
                scope.spawn(move || engine.submit_cached(&request, &table, &s))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        PanickyBuild::signal(&release);

        assert!(
            builder.join().unwrap().is_err(),
            "the injected panic must propagate to the builder"
        );
        for waiter in waiters {
            match waiter.join().unwrap() {
                Err(JoinError::CacheBuildFailed { table }) => assert_eq!(table, "flaky"),
                other => panic!("waiters must get the typed build failure, got {other:?}"),
            }
        }
    });

    // The failed slot is cleared: the next request rebuilds and succeeds.
    let out = engine.submit_cached(&request, &table, &s).unwrap();
    assert_eq!(out.matches, expected);
    let stats = engine.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "only the successful rebuild counts: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Exact accounting
// ---------------------------------------------------------------------------

/// The broker is charged what the resident tables say they occupy — no
/// estimate in between — and a native table occupies a bounded number of
/// bytes per build tuple.
#[test]
fn cache_bytes_are_the_sum_of_the_resident_tables_reported_bytes() {
    let built = Arc::new(Mutex::new(Vec::new()));
    let engine = JoinEngine::new(
        Box::new(PanickyBuild {
            armed: AtomicBool::new(false),
            built: Arc::clone(&built),
            ..PanickyBuild::default()
        }),
        EngineConfig::for_tuples(20_000, 4_000),
    )
    .unwrap();
    let request = JoinRequest::builder().build().unwrap();
    let (_, probe, _) = workload(1_000, 4_000);

    // Distinct keys, long duplicate runs, and a table of a single tuple.
    let shapes = [
        datagen::generate_pair(&DataGenConfig::small(20_000, 1)).0,
        Relation::from_keys((0..12_000).map(|i| i % 97).collect()),
        Relation::from_keys(vec![42]),
    ];
    let mut handles = Vec::new();
    for (i, build) in shapes.iter().enumerate() {
        let handle = engine.register_table(&format!("shape{i}"), build.clone());
        engine.submit_cached(&request, &handle, &probe).unwrap();
        handles.push(handle);
    }
    let reported = built.lock().unwrap().clone();
    assert_eq!(reported.len(), shapes.len());
    let stats = engine.cache_stats();
    assert_eq!(stats.entries, shapes.len());
    assert_eq!(
        stats.bytes,
        reported.iter().map(|&(_, bytes)| bytes).sum::<usize>(),
        "{stats:?} vs {reported:?}"
    );
    // 4 B of rid per tuple plus 12 B directory slots at a load factor
    // between 0.35 and 0.7 (one power-of-two rounding).
    for &(tuples, bytes) in &reported[..2] {
        assert!(
            bytes >= 4 * tuples && bytes < 40 * tuples,
            "{bytes} B for {tuples} tuples"
        );
    }

    // Re-registration drops exactly that table's bytes.
    let _v2 = engine.register_table("shape0", shapes[2].clone());
    assert_eq!(
        engine.cache_stats().bytes,
        reported[1].1 + reported[2].1,
        "{reported:?}"
    );
}
