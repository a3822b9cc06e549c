//! Observability integration tests: the flight recorder never perturbs
//! join results, concurrent traced joins stay correct, the metrics
//! registry snapshot reconciles with `EngineStats`, and the registry
//! matches the documented metric catalogue.

use coupled_hashjoin::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn test_pair(n: usize) -> (Relation, Relation) {
    datagen::generate_pair(&DataGenConfig::small(n, 2 * n))
}

fn request(trace: bool) -> JoinRequest {
    JoinRequest::builder()
        .algorithm(Algorithm::partitioned_auto())
        .scheme(Scheme::pipelined_paper())
        .collect_results(true)
        .trace(trace)
        .build()
        .unwrap()
}

/// The tentpole identity: a traced run returns byte-identical matches and
/// pairs to an untraced run of the same request, on both backends.
#[test]
fn traced_and_untraced_joins_are_byte_identical() {
    let (r, s) = test_pair(3_000);
    for native in [false, true] {
        let config = EngineConfig::for_tuples(3_000, 6_000);
        let engine = if native {
            JoinEngine::native(config).unwrap()
        } else {
            JoinEngine::coupled(config).unwrap()
        };
        let plain = engine.submit(&request(false), &r, &s).unwrap();
        assert!(plain.trace.is_none(), "untraced outcomes carry no trace");
        let traced = engine.submit(&request(true), &r, &s).unwrap();
        assert_eq!(traced.matches, plain.matches, "native={native}");
        assert_eq!(
            traced.pairs, plain.pairs,
            "tracing must not change the pair set (native={native})"
        );
        let trace = traced.trace.expect("opt-in must produce a trace");
        assert!(!trace.spans.is_empty());
        assert_eq!(trace.spans[0].label, "join");
        // Every event references a span of this trace (or the admission
        // pseudo-span 0).
        for event in &trace.events {
            assert!(
                event.span <= trace.spans.len() as u64,
                "event references unknown span {}",
                event.span
            );
        }
        let rendered = trace.render();
        assert!(rendered.contains("join"), "{rendered}");
    }
}

/// Concurrent traced joins on four sessions all complete correctly, each
/// with its own flight recorder.
#[test]
fn trace_ring_never_blocks_concurrent_joins() {
    let (r, s) = test_pair(1_000);
    let expected = reference_match_count(&r, &s);
    let engine = std::sync::Arc::new(
        JoinEngine::coupled(EngineConfig::for_tuples(1_024, 2_048).sessions(4)).unwrap(),
    );
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let engine = std::sync::Arc::clone(&engine);
            let (r, s) = (r.clone(), s.clone());
            std::thread::spawn(move || {
                let mut matches = Vec::new();
                for _ in 0..4 {
                    let out = engine.submit(&request(true), &r, &s).unwrap();
                    let trace = out.trace.expect("opt-in must produce a trace");
                    assert_eq!(trace.spans[0].label, "join");
                    matches.push(out.matches);
                }
                matches
            })
        })
        .collect();
    for handle in threads {
        for matches in handle.join().unwrap() {
            assert_eq!(matches, expected);
        }
    }
    assert_eq!(engine.stats().requests_served, 16);
}

/// The value of the unlabelled family `name` in a bare registry snapshot.
fn sample(engine: &JoinEngine, name: &str) -> u64 {
    let registry = coupled_hashjoin::hj_core::JoinEngine::metrics_registry(engine);
    let sample = registry
        .snapshot()
        .into_iter()
        .find(|sample| sample.name == name)
        .unwrap_or_else(|| panic!("{name} not registered"));
    match sample.value {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
        MetricValue::Histogram(_) => panic!("{name} is a histogram"),
    }
}

/// The in-process metrics snapshot and `EngineStats` read the same
/// atoms, so the counters and gauges agree exactly, and every session
/// acquisition is one queue-wait sample — over inline and cached
/// submissions alike.
#[test]
fn metrics_snapshot_reconciles_with_engine_stats() {
    let (r, s) = test_pair(1_000);
    let engine = JoinEngine::coupled(EngineConfig::for_tuples(1_024, 2_048).sessions(2)).unwrap();
    let table = engine.register_table("r", r.clone());
    let inline = engine.submit(&request(false), &r, &s).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..3 {
                    engine.submit(&request(false), &r, &s).unwrap();
                    let cached = engine.submit_cached(&request(false), &table, &s).unwrap();
                    assert_eq!(cached.pairs, inline.pairs);
                }
            });
        }
    });
    let stats = engine.stats();
    let counter = |name: &str| sample(&engine, name);
    assert_eq!(counter("hj_engine_requests_served_total"), 13);
    assert_eq!(
        counter("hj_engine_requests_served_total"),
        stats.requests_served
    );
    assert_eq!(
        counter("hj_engine_arenas_created_total"),
        stats.arenas_created
    );
    assert_eq!(
        counter("hj_adaptive_requests_total"),
        stats.adaptive_requests
    );
    assert_eq!(counter("hj_cache_hits_total"), stats.cache.hits);
    assert_eq!((stats.cache.misses, stats.cache.hits), (1, 5));
    assert_eq!(counter("hj_engine_in_flight"), stats.in_flight as u64);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(
        counter("hj_engine_peak_in_flight"),
        stats.peak_in_flight as u64
    );
    assert!((1..=2).contains(&stats.peak_in_flight), "{stats:?}");
    assert_eq!(stats.queue_wait.count(), 13);
}

/// Gauges are set where their value changes, so a bare registry snapshot
/// — no `render_metrics`, no `sample_now`, no sampler thread — already
/// reads the cache's residency and the engine's in-flight count.
#[test]
fn cache_and_in_flight_gauges_need_no_sync() {
    let (r, s) = test_pair(1_000);
    let engine = JoinEngine::native(
        EngineConfig::for_tuples(1_024, 2_048).sample_interval(std::time::Duration::ZERO),
    )
    .unwrap();
    let table = engine.register_table("r", r.clone());
    engine.submit_cached(&request(false), &table, &s).unwrap();
    let cache = engine.cache_stats();
    assert!(cache.bytes > 0 && cache.entries == 1, "{cache:?}");
    assert_eq!(
        sample(&engine, "hj_cache_resident_bytes"),
        cache.bytes as u64
    );
    assert_eq!(sample(&engine, "hj_cache_entries"), cache.entries as u64);
    assert_eq!(sample(&engine, "hj_engine_in_flight"), 0);
    assert_eq!(sample(&engine, "hj_engine_peak_in_flight"), 1);

    // Re-registration drops the cached table: the gauges follow at once.
    let _v2 = engine.register_table("r", r);
    assert_eq!(sample(&engine, "hj_cache_resident_bytes"), 0);
    assert_eq!(sample(&engine, "hj_cache_entries"), 0);
}

/// The worker pool counts in the registry's own atoms, so a bare
/// registry snapshot reads each worker's tasks, steals, busy and park
/// time as `stats()` does.
#[test]
fn pool_counters_need_no_sync() {
    let (r, s) = test_pair(200 * 1024);
    let engine = JoinEngine::native(
        EngineConfig::for_tuples(200 * 1024, 400 * 1024).sample_interval(std::time::Duration::ZERO),
    )
    .unwrap();
    for _ in 0..3 {
        engine.submit(&request(false), &r, &s).unwrap();
    }
    let per_worker = |snapshot: &[MetricSample], name: &str| -> Vec<u64> {
        let mut values: Vec<(usize, u64)> = snapshot
            .iter()
            .filter(|sample| sample.name == name)
            .map(|sample| {
                let (_, worker) = sample.labels.iter().find(|(k, _)| *k == "worker").unwrap();
                match sample.value {
                    MetricValue::Counter(v) => (worker.parse().unwrap(), v),
                    ref other => panic!("{name} is not a counter: {other:?}"),
                }
            })
            .collect();
        values.sort_unstable();
        values.into_iter().map(|(_, v)| v).collect()
    };
    // A worker woken as the last job finished may still book park time,
    // so read until two `stats()` calls around the snapshot agree.
    let (stats, snapshot) = loop {
        let before = engine.stats();
        let snapshot = engine.metrics_registry().snapshot();
        let after = engine.stats();
        if before.per_worker_park_ns == after.per_worker_park_ns {
            break (after, snapshot);
        }
    };
    assert!(
        stats.per_worker_tasks.iter().sum::<u64>() > 0,
        "the joins must reach the pool: {stats:?}"
    );
    assert_eq!(
        per_worker(&snapshot, "hj_pipeline_tasks_total"),
        stats.per_worker_tasks
    );
    assert_eq!(
        per_worker(&snapshot, "hj_pipeline_steals_total"),
        stats.per_worker_steals
    );
    assert_eq!(
        per_worker(&snapshot, "hj_pipeline_worker_busy_ns"),
        stats.per_worker_busy_ns
    );
    assert_eq!(
        per_worker(&snapshot, "hj_pipeline_worker_park_ns"),
        stats.per_worker_park_ns
    );
}

/// A spilling join records its spill counters both on the outcome report
/// and in the registry, and its trace carries the spill events.
#[test]
fn spill_metrics_and_trace_events_flow_through() {
    let (r, s) = test_pair(1_000);
    let engine =
        JoinEngine::coupled(EngineConfig::for_tuples(1_000, 2_000).memory_budget(16 * 1024))
            .unwrap();
    let req = JoinRequest::builder()
        .collect_results(false)
        .spill(SpillConfig::default().partitions(4).max_recursion_depth(2))
        .trace(true)
        .build()
        .unwrap();
    let outcome = engine.submit(&req, &r, &s).unwrap();
    assert_eq!(outcome.matches, reference_match_count(&r, &s));
    let report = outcome.spill.as_ref().expect("spill path must engage");
    let registry = coupled_hashjoin::hj_core::JoinEngine::metrics_registry(&engine);
    let sample = registry
        .snapshot()
        .into_iter()
        .find(|sample| sample.name == "hj_spill_bytes_spilled_total")
        .unwrap();
    assert_eq!(
        sample.value,
        MetricValue::Counter(report.bytes_spilled),
        "registry spill counter must mirror the outcome report"
    );
    if report.bytes_spilled > 0 {
        let trace = outcome.trace.as_ref().unwrap();
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.kind == TraceEventKind::Spill && e.label == "bytes-spilled"),
            "spilling traced joins must carry spill events"
        );
    }
}

/// The `hj_*` families of `docs/OBSERVABILITY.md`'s "Metric catalogue"
/// tables, each with its documented type: the first two cells of every
/// table row.
fn catalogue_families() -> BTreeMap<String, String> {
    include_str!("../docs/OBSERVABILITY.md")
        .split("\n## ")
        .find(|section| section.starts_with("Metric catalogue"))
        .expect("the doc has a metric catalogue")
        .lines()
        .filter(|line| line.starts_with("| `hj_"))
        .map(|line| {
            let mut cells = line.split('|').skip(1).map(str::trim);
            let name = cells.next().unwrap().trim_matches('`').to_string();
            let kind = cells.next().expect("a type column").to_string();
            (name, kind)
        })
        .collect()
}

/// Every family a served native engine registers is documented in the
/// metric catalogue under the type it is registered as, every documented
/// family is registered, and every `_total` family is a counter.
#[test]
fn metric_catalogue_matches_the_registry() {
    let (r, s) = test_pair(2_000);
    let engine = Arc::new(JoinEngine::native(EngineConfig::for_tuples(2_000, 4_000)).unwrap());
    let server = JoinServer::start(
        Arc::clone(&engine),
        ServerConfig::default().http_addr("127.0.0.1:0"),
    )
    .unwrap();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    let out = client
        .join(RequestBuilder::new(r.clone(), s.clone()).build())
        .unwrap();
    assert_eq!(out.matches, reference_match_count(&r, &s));

    let registered: BTreeMap<String, String> = engine
        .metrics_registry()
        .snapshot()
        .iter()
        .filter(|sample| sample.name.starts_with("hj_"))
        .map(|sample| {
            let kind = match sample.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            (sample.name.to_string(), kind.to_string())
        })
        .collect();
    let documented = catalogue_families();
    let undocumented: Vec<_> = registered
        .keys()
        .filter(|name| !documented.contains_key(*name))
        .collect();
    let unregistered: Vec<_> = documented
        .keys()
        .filter(|name| !registered.contains_key(*name))
        .collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from the catalogue: {undocumented:?}"
    );
    assert!(
        unregistered.is_empty(),
        "in the catalogue but never registered: {unregistered:?}"
    );
    let mistyped: Vec<_> = registered
        .iter()
        .filter(|(name, kind)| documented[*name] != **kind)
        .map(|(name, kind)| format!("{name}: registered {kind}, documented {}", documented[name]))
        .collect();
    assert!(
        mistyped.is_empty(),
        "catalogue types disagree: {mistyped:?}"
    );
    let misnamed: Vec<_> = registered
        .iter()
        .filter(|(name, kind)| name.ends_with("_total") && *kind != "counter")
        .collect();
    assert!(
        misnamed.is_empty(),
        "families named `_total` must be counters: {misnamed:?}"
    );
}
