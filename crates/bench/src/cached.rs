//! Build-side hash-table cache: rebuild-per-request vs probe-only (`BENCH_cached`).
//!
//! Serving traffic joins the same base table over and over; the engine's
//! table registry ([`JoinEngine::register_table`] + `submit_cached`) builds
//! the hash table once and serves every later request from a probe-only
//! pipeline.  This runner measures what that is worth on a build-dominated
//! workload (build 16× the probe):
//!
//! 1. **cold** — every request re-ships and re-builds the build side
//!    (`submit`, the pre-registry behaviour);
//! 2. **hot** — the table is registered once, requests are probe-only
//!    (`submit_cached` after the first build);
//! 3. **wire** — the same comparison across `WIRE_CLIENTS` concurrent TCP
//!    clients of one [`JoinServer`]: inline requests (build shipped and
//!    rebuilt per request) vs `table_ref` requests against a table
//!    registered over the wire.
//!
//! Cold and hot batches are interleaved and the per-path median is
//! reported, the same noise discipline as [`crate::throughput`].  The
//! runner also asserts — unconditionally, not behind a gate — that every
//! cached byte charged to the engine's [`MemoryBroker`] is returned when
//! the engine drops: a leak here would silently shrink the budget of every
//! later spill join.
//!
//! It emits `BENCH_cached.json` in the working directory so successive PRs
//! can track the trajectory.
//!
//! CI gating knobs (environment):
//!
//! * `HJ_CACHED_MIN_SPEEDUP="3"` — fail (exit 1) when hot (probe-only)
//!   joins/sec is less than this multiple of cold (rebuild-per-request)
//!   joins/sec.  The committed headline fell from 56× to ~13× when the
//!   native kernel became a flat table (PR 12): the cold path this ratio
//!   divides by went from 21 to ~235 joins/s, while the hot path itself
//!   got faster (1 191 → ~3 000 joins/s) and smaller (52 → 28 B per build
//!   tuple).  The ratio prices the *build*, so a cheaper build lowers it;
//!   the gate stays at 3×.
//!
//! [`JoinEngine::register_table`]: hj_core::engine::JoinEngine::register_table
//! [`MemoryBroker`]: hj_core::spill::MemoryBroker

use crate::common::{banner, env_ratio_floor, ExpContext};
use hj_core::server::{JoinClient, RefRequestBuilder, RequestBuilder};
use hj_core::{EngineConfig, JoinEngine, JoinRequest, JoinServer, NativeCpu, Scheme, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pooled sessions of the engine under test.
const SESSIONS: usize = 4;

/// Joins per measured batch, per path.
const JOINS_PER_BATCH: usize = 16;

/// Measured batches per path (interleaved cold/hot; the median batch is
/// reported).
const BATCHES: usize = 5;

/// Unmeasured joins before the measured batches (warms the arenas and the
/// worker pool; the hot warmup also takes the one cache miss).
const WARMUP_JOINS: usize = 2;

/// Concurrent TCP clients of the wire phase.
const WIRE_CLIENTS: usize = 4;

/// Requests per wire client, per path.
const WIRE_JOINS_PER_CLIENT: usize = 12;

/// Per-read client timeout; hitting it is a hard failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// One measured path.
struct Point {
    path: &'static str,
    joins: usize,
    elapsed_secs: f64,
    joins_per_sec: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    hj_metrics::exact_quantile(samples, 0.5).expect("non-empty batch samples")
}

/// `cached`: rebuild-per-request vs register-once probe-only joins, in
/// process and across concurrent TCP clients.
pub fn cached(ctx: &mut ExpContext) {
    banner("BENCH_cached: build-side hash-table cache, cold rebuilds vs probe-only hot path");

    // Build-dominated workload: the build side is 16x the probe, so the
    // hot path (which skips the build entirely) has real headroom to show.
    let (r, s) = ctx.relations(
        8 * 1024 * 1024,
        512 * 1024,
        datagen::KeyDistribution::Uniform,
        1.0,
    );
    let request = JoinRequest::builder()
        .scheme(Scheme::pipelined_paper())
        .build()
        .expect("valid cached-bench request");

    let engine = Arc::new(
        JoinEngine::new(
            Box::new(NativeCpu::new()),
            EngineConfig::for_tuples(r.len(), s.len()).sessions(SESSIONS),
        )
        .expect("valid engine config"),
    );
    println!(
        "workload: {} (build) x {} (probe) tuples, {} joins per batch (median of {}), \
         {} sessions",
        r.len(),
        s.len(),
        JOINS_PER_BATCH,
        BATCHES,
        SESSIONS
    );

    // Warm both paths: the cold warmup spins up the worker pool and the
    // arenas, the hot warmup registers the table and takes the single
    // cache-miss build so the measured hot batches are pure hits.
    for _ in 0..WARMUP_JOINS {
        engine
            .submit(&request, &r, &s)
            .expect("cold warmup submission failed");
    }
    let table = engine.register_table("bench_build", r.clone());
    let cold_reference = engine
        .submit_cached(&request, &table, &s)
        .expect("hot warmup submission failed");

    // Interleave cold and hot batches so slow host periods hit both paths
    // alike; compare medians.
    let mut cold_elapsed = Vec::with_capacity(BATCHES);
    let mut hot_elapsed = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..JOINS_PER_BATCH {
            let out = engine
                .submit(&request, &r, &s)
                .expect("cold submission failed");
            assert_eq!(out.matches, cold_reference.matches);
        }
        cold_elapsed.push(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for _ in 0..JOINS_PER_BATCH {
            let out = engine
                .submit_cached(&request, &table, &s)
                .expect("hot submission failed");
            assert_eq!(out.matches, cold_reference.matches);
        }
        hot_elapsed.push(start.elapsed().as_secs_f64());
    }

    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 1, "measured hot batches must be pure hits");
    assert!(cache.bytes > 0, "a resident cached table must be charged");

    let mut points = vec![
        point("cold", JOINS_PER_BATCH, median(&mut cold_elapsed)),
        point("hot", JOINS_PER_BATCH, median(&mut hot_elapsed)),
    ];
    let speedup = points[1].joins_per_sec / points[0].joins_per_sec.max(1e-9);
    println!(
        "{:>16} {:>8} {:>12} {:>14}",
        "path", "joins", "elapsed(s)", "joins/sec"
    );
    for p in &points {
        println!(
            "{:>16} {:>8} {:>12.3} {:>14.1}",
            p.path, p.joins, p.elapsed_secs, p.joins_per_sec
        );
    }
    println!(
        "hot vs cold: {speedup:.2}x | cache: {} hits / {} misses, {} resident bytes, \
         {:.1} ms of builds skipped",
        cache.hits,
        cache.misses,
        cache.bytes,
        cache.build_ns_saved as f64 / 1e6,
    );

    // Wire phase: the same table served hot to concurrent TCP clients.
    let (wire_inline, wire_ref) = wire_phase(&engine, &r, &s);
    let wire_speedup = wire_ref.joins_per_sec / wire_inline.joins_per_sec.max(1e-9);
    for p in [&wire_inline, &wire_ref] {
        println!(
            "{:>16} {:>8} {:>12.3} {:>14.1}",
            p.path, p.joins, p.elapsed_secs, p.joins_per_sec
        );
    }
    println!("table_ref vs inline over TCP ({WIRE_CLIENTS} clients): {wire_speedup:.2}x");
    points.push(wire_inline);
    points.push(wire_ref);

    let registry_metrics = crate::common::registry_json(engine.metrics_registry());
    let json = render_json(
        r.len(),
        s.len(),
        speedup,
        wire_speedup,
        &cache,
        &points,
        &registry_metrics,
    );
    let path = "BENCH_cached.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{},{},{:.6},{:.1}",
                p.path, p.joins, p.elapsed_secs, p.joins_per_sec
            )
        })
        .collect();
    ctx.write_csv("cached.csv", "path,joins,elapsed_s,joins_per_sec", &rows);

    // Unconditional leak check: dropping the engine must return every byte
    // the cache charged to the shared broker — a leak here would shrink
    // the budget of every later spill join on a long-lived process.
    let broker = engine.memory_broker().clone();
    drop(table);
    drop(engine);
    assert_eq!(
        broker.granted(),
        0,
        "cached bytes must return to the memory broker when the engine drops"
    );
    println!("engine dropped: 0 bytes still granted (cache fully released)");

    // CI gate: the probe-only hot path must actually pay for itself.
    if let Some(floor) = env_ratio_floor("HJ_CACHED_MIN_SPEEDUP") {
        if speedup < floor {
            eprintln!(
                "FAIL: hot (probe-only) joins/sec is {speedup:.2}x cold \
                 (HJ_CACHED_MIN_SPEEDUP={floor}) — the cache is not paying for itself"
            );
            std::process::exit(1);
        }
        println!("gate: {speedup:.2}x >= {floor} (HJ_CACHED_MIN_SPEEDUP) — ok");
    }
}

fn point(path: &'static str, joins: usize, elapsed_secs: f64) -> Point {
    Point {
        path,
        joins,
        elapsed_secs,
        joins_per_sec: joins as f64 / elapsed_secs.max(1e-9),
    }
}

/// Serves the engine over TCP and measures inline vs `table_ref` requests
/// from [`WIRE_CLIENTS`] concurrent clients (count-only, closed loop).
fn wire_phase(
    engine: &Arc<JoinEngine>,
    r: &datagen::Relation,
    s: &datagen::Relation,
) -> (Point, Point) {
    let server = JoinServer::start(Arc::clone(engine), ServerConfig::default())
        .expect("cached-bench server start");
    let addr = server.local_addr();

    let mut registrar =
        JoinClient::connect_timeout(addr, CLIENT_TIMEOUT).expect("registrar connect");
    let ack = registrar
        .register_table("wire_build", r.clone())
        .expect("wire table registration");
    assert_eq!(ack.tuples as usize, r.len());
    // Take the one wire-table cache miss outside the measured window.
    registrar
        .join_ref(RefRequestBuilder::new("wire_build", s.clone()).build())
        .expect("wire warmup join");

    let run = |table_ref: bool| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..WIRE_CLIENTS {
                scope.spawn(move || {
                    let mut client = JoinClient::connect_timeout(addr, CLIENT_TIMEOUT)
                        .expect("wire client connect");
                    for _ in 0..WIRE_JOINS_PER_CLIENT {
                        let outcome = if table_ref {
                            client.join_ref(RefRequestBuilder::new("wire_build", s.clone()).build())
                        } else {
                            client.join(RequestBuilder::new(r.clone(), s.clone()).build())
                        };
                        outcome.expect("wire join failed");
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    };

    let joins = WIRE_CLIENTS * WIRE_JOINS_PER_CLIENT;
    let inline = point("wire_inline", joins, run(false));
    let by_ref = point("wire_table_ref", joins, run(true));

    let stats = server.stats();
    assert!(
        stats.ref_requests >= (joins + 1) as u64,
        "every table_ref request must be counted"
    );
    (inline, by_ref)
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    build_tuples: usize,
    probe_tuples: usize,
    speedup: f64,
    wire_speedup: f64,
    cache: &hj_core::CacheStats,
    points: &[Point],
    registry_metrics: &str,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"hash-table-cache\",\n");
    out.push_str("  \"backend\": \"native-cpu\",\n");
    out.push_str(&format!("  \"sessions\": {SESSIONS},\n"));
    out.push_str(&format!("  \"build_tuples\": {build_tuples},\n"));
    out.push_str(&format!("  \"probe_tuples\": {probe_tuples},\n"));
    out.push_str(&format!("  \"joins_per_batch\": {JOINS_PER_BATCH},\n"));
    out.push_str(&format!("  \"batches\": {BATCHES},\n"));
    out.push_str(&format!("  \"wire_clients\": {WIRE_CLIENTS},\n"));
    out.push_str(&format!("  \"hot_vs_cold_speedup\": {speedup:.3},\n"));
    out.push_str(&format!(
        "  \"wire_ref_vs_inline_speedup\": {wire_speedup:.3},\n"
    ));
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"resident_bytes\": {}, \
         \"build_ms_saved\": {:.3}}},\n",
        cache.hits,
        cache.misses,
        cache.bytes,
        cache.build_ns_saved as f64 / 1e6,
    ));
    out.push_str(&format!("  \"metrics\": {registry_metrics},\n"));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"joins\": {}, \"elapsed_secs\": {:.6}, \
             \"joins_per_sec\": {:.1}}}{}\n",
            p.path,
            p.joins,
            p.elapsed_secs,
            p.joins_per_sec,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_valid_enough_to_diff() {
        let cache = hj_core::CacheStats {
            hits: 80,
            misses: 1,
            bytes: 123_456,
            ..Default::default()
        };
        let points = vec![
            point("cold", 16, 2.0),
            point("hot", 16, 0.25),
            point("wire_inline", 48, 3.0),
            point("wire_table_ref", 48, 1.0),
        ];
        let metrics = "{\n    \"hj_cache_hits_total\": 80\n  }";
        let json = render_json(1_000_000, 62_500, 8.0, 3.0, &cache, &points, metrics);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"path\"").count(), 4);
        assert!(json.contains("\"hot_vs_cold_speedup\": 8.000"));
        assert!(json.contains("\"misses\": 1"));
        assert!(json.contains("\"metrics\": {\n    \"hj_cache_hits_total\": 80\n  },"));
        // Exactly three trailing commas between the four result rows.
        assert_eq!(json.matches("},\n").count(), 5); // 3 rows + cache + metrics
    }

    #[test]
    fn medians_pick_the_middle_batch() {
        let mut samples = [3.0, 1.0, 2.0, 9.0, 0.5];
        assert_eq!(median(&mut samples), 2.0);
    }
}
