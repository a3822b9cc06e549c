//! Engine throughput under concurrent multi-client load (`BENCH_throughput`).
//!
//! Unlike the paper-reproduction experiments, this runner measures the
//! *system* quality the ROADMAP pushes toward: joins per second of one
//! shared [`JoinEngine`] (native backend, `sessions` pooled arenas, one
//! persistent engine-wide worker pool) as the number of concurrent client
//! threads grows.  It emits `BENCH_throughput.json` in the working
//! directory so successive PRs can track the trajectory.
//!
//! Every client count runs against an identically-configured engine — the
//! pool defaults to one worker per hardware thread, so a single client
//! still uses the whole machine and extra clients only add admission
//! concurrency.
//!
//! CI gating knobs (environment):
//!
//! * `HJ_THROUGHPUT_CLIENTS="1,8"` — comma-separated client counts to
//!   measure (default `1,4,8`);
//! * `HJ_MIN_SCALING="0.9"` — fail (exit 1) when the highest-client
//!   joins/sec falls below this fraction of the lowest-client joins/sec.

use crate::common::{banner, ExpContext};
use hj_core::{EngineConfig, JoinEngine, JoinRequest, NativeCpu, Scheme};
use std::sync::Arc;
use std::time::Instant;

/// Sessions the shared engine pools (and the largest client count tried).
pub const SESSIONS: usize = 8;

/// Joins in one measured batch, in total, split evenly among the clients.
///
/// Constant *total* work per batch — not constant work per client — so
/// every load point's batch runs for the same wall-clock ballpark and
/// integrates the same amount of scheduler/frequency noise; otherwise the
/// 1-client point (the scaling gate's denominator) is measured over a
/// window several times shorter than the 8-client point and its estimate
/// rides whatever burst it happens to land on.
const JOINS_PER_BATCH: usize = 128;

/// Unmeasured joins run before each load point (warms the arenas, the page
/// tables and the parked worker pool so the measurement starts steady).
const WARMUP_JOINS: usize = 4;

/// Measured batches per load point (interleaved round-robin across the
/// points); the median batch is reported.
const BATCHES: usize = 7;

/// Client counts to measure: `HJ_THROUGHPUT_CLIENTS` (comma-separated), or
/// 1/4/[`SESSIONS`].
///
/// A malformed value is a hard error: this knob drives a CI regression
/// gate, and a typo that silently fell back to defaults (or dropped the
/// high-client point) would neutralise the gate with exit code 0.
fn client_counts() -> Vec<usize> {
    let Ok(raw) = std::env::var("HJ_THROUGHPUT_CLIENTS") else {
        return vec![1, 4, SESSIONS];
    };
    let counts: Vec<usize> = raw
        .split(',')
        .map(|part| {
            let clients: usize = part.trim().parse().unwrap_or_else(|_| {
                panic!("HJ_THROUGHPUT_CLIENTS: {part:?} is not a client count (in {raw:?})")
            });
            assert!(
                (1..=SESSIONS).contains(&clients),
                "HJ_THROUGHPUT_CLIENTS: {clients} is outside 1..={SESSIONS} (the session pool)"
            );
            clients
        })
        .collect();
    assert!(
        !counts.is_empty(),
        "HJ_THROUGHPUT_CLIENTS is set but names no client counts"
    );
    counts
}

/// The scaling floor from `HJ_MIN_SCALING`, when set; malformed values are
/// a hard error for the same reason as [`client_counts`].
fn min_scaling() -> Option<f64> {
    crate::common::env_ratio_floor("HJ_MIN_SCALING")
}

/// One measured load point.
struct Point {
    clients: usize,
    joins: usize,
    elapsed_secs: f64,
    joins_per_sec: f64,
    peak_in_flight: usize,
}

/// `throughput`: joins/sec of one shared native engine at 1, 4 and
/// [`SESSIONS`] concurrent clients.
pub fn throughput(ctx: &mut ExpContext) {
    banner("BENCH_throughput: concurrent clients against one shared NativeCpu engine");
    let (r, s) = ctx.relations(
        1024 * 1024,
        2 * 1024 * 1024,
        datagen::KeyDistribution::Uniform,
        1.0,
    );
    let request = JoinRequest::builder()
        .scheme(Scheme::pipelined_paper())
        .build()
        .expect("valid throughput request");

    println!(
        "workload: {} x {} tuples, {} joins per batch (median of {}), {} sessions",
        r.len(),
        s.len(),
        JOINS_PER_BATCH,
        BATCHES,
        SESSIONS
    );
    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>14}",
        "clients", "joins", "elapsed(s)", "joins/sec", "peak in-flight"
    );

    // One identically-configured engine per load point: the persistent
    // pool (one worker per hardware thread by default) serves every
    // session, so no per-client thread budgeting is needed — a single
    // client still uses every core, and more clients only deepen the
    // admission concurrency.
    let counts = client_counts();
    let engines: Vec<Arc<JoinEngine>> = counts
        .iter()
        .map(|_| {
            let engine = Arc::new(
                JoinEngine::new(
                    Box::new(NativeCpu::new()),
                    EngineConfig::for_tuples(r.len(), s.len()).sessions(SESSIONS),
                )
                .expect("valid engine config"),
            );
            for _ in 0..WARMUP_JOINS {
                engine
                    .submit(&request, &r, &s)
                    .expect("warmup submission failed");
            }
            engine
        })
        .collect();

    // Batches are interleaved round-robin across the load points (batch 0
    // of every point, then batch 1 of every point, …) so slow host periods
    // — the dominant noise on shared machines — hit all points alike
    // instead of skewing whichever point happened to run through them.
    // The per-point median then compares like with like.
    let mut batch_elapsed: Vec<Vec<f64>> = vec![Vec::with_capacity(BATCHES); counts.len()];
    for _ in 0..BATCHES {
        for (slot, &clients) in counts.iter().enumerate() {
            let engine = &engines[slot];
            let per_client = JOINS_PER_BATCH.div_ceil(clients);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    let engine = Arc::clone(engine);
                    let request = request.clone();
                    let (r, s) = (&r, &s);
                    scope.spawn(move || {
                        for _ in 0..per_client {
                            engine
                                .submit(&request, r, s)
                                .expect("throughput submission failed");
                        }
                    });
                }
            });
            batch_elapsed[slot].push(start.elapsed().as_secs_f64());
        }
    }

    let mut points = Vec::new();
    let mut worker_threads = 0usize;
    for (slot, &clients) in counts.iter().enumerate() {
        let per_client = JOINS_PER_BATCH.div_ceil(clients);
        let joins = clients * per_client;
        let median_elapsed = hj_metrics::exact_quantile(&mut batch_elapsed[slot], 0.5)
            .expect("BATCHES > 0 elapsed samples");
        let stats = engines[slot].stats();
        assert_eq!(
            stats.requests_served,
            (BATCHES * joins + WARMUP_JOINS) as u64
        );
        // Report the pool size the engines actually ran with, not a
        // re-derivation of the default.
        worker_threads = stats.worker_threads;
        let point = Point {
            clients,
            joins,
            elapsed_secs: median_elapsed,
            joins_per_sec: joins as f64 / median_elapsed.max(1e-9),
            peak_in_flight: stats.peak_in_flight,
        };
        println!(
            "{:>8} {:>8} {:>12.3} {:>14.1} {:>14}",
            point.clients,
            point.joins,
            point.elapsed_secs,
            point.joins_per_sec,
            point.peak_in_flight
        );
        points.push(point);
    }

    // Snapshot the highest-load engine: its counters cover the deepest
    // concurrency this run exercised.
    let registry_metrics = crate::common::registry_json(
        engines
            .last()
            .expect("at least one load point")
            .metrics_registry(),
    );
    let json = render_json(r.len(), s.len(), worker_threads, &points, &registry_metrics);
    let path = "BENCH_throughput.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{},{},{:.6},{:.1},{}",
                p.clients, p.joins, p.elapsed_secs, p.joins_per_sec, p.peak_in_flight
            )
        })
        .collect();
    ctx.write_csv(
        "throughput.csv",
        "clients,joins,elapsed_s,joins_per_sec,peak_in_flight",
        &rows,
    );

    // CI gate: multi-client throughput must not collapse below the
    // single-client baseline (within the configured tolerance).
    if let Some(floor) = min_scaling() {
        let low = points
            .iter()
            .min_by_key(|p| p.clients)
            .expect("at least one load point");
        let high = points
            .iter()
            .max_by_key(|p| p.clients)
            .expect("at least one load point");
        // A floor without two distinct client counts cannot gate anything;
        // refuse instead of silently passing.
        assert!(
            high.clients > low.clients,
            "HJ_MIN_SCALING is set but the measured client counts ({:?}) contain no \
             low/high pair to compare — fix HJ_THROUGHPUT_CLIENTS",
            points.iter().map(|p| p.clients).collect::<Vec<_>>()
        );
        let ratio = high.joins_per_sec / low.joins_per_sec.max(1e-9);
        println!(
            "scaling: {} clients at {:.1} joins/sec vs {} client(s) at {:.1} joins/sec \
             (ratio {ratio:.3}, floor {floor})",
            high.clients, high.joins_per_sec, low.clients, low.joins_per_sec
        );
        if ratio < floor {
            eprintln!(
                "FAIL: {}-client throughput is {ratio:.3}x the {}-client baseline \
                 (HJ_MIN_SCALING={floor}) — multi-client throughput collapsed",
                high.clients, low.clients
            );
            std::process::exit(1);
        }
    }
}

fn render_json(
    build_tuples: usize,
    probe_tuples: usize,
    worker_threads: usize,
    points: &[Point],
    registry_metrics: &str,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"engine-throughput\",\n");
    out.push_str("  \"backend\": \"native-cpu\",\n");
    out.push_str(&format!("  \"sessions\": {SESSIONS},\n"));
    out.push_str(&format!("  \"worker_threads\": {worker_threads},\n"));
    out.push_str(&format!("  \"build_tuples\": {build_tuples},\n"));
    out.push_str(&format!("  \"probe_tuples\": {probe_tuples},\n"));
    out.push_str(&format!("  \"joins_per_batch\": {JOINS_PER_BATCH},\n"));
    out.push_str(&format!("  \"batches\": {BATCHES},\n"));
    out.push_str(&format!("  \"metrics\": {registry_metrics},\n"));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"joins\": {}, \"elapsed_secs\": {:.6}, \
             \"joins_per_sec\": {:.1}, \"peak_in_flight\": {}}}{}\n",
            p.clients,
            p.joins,
            p.elapsed_secs,
            p.joins_per_sec,
            p.peak_in_flight,
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
        let points = vec![
            Point {
                clients: 1,
                joins: 16,
                elapsed_secs: 0.5,
                joins_per_sec: 32.0,
                peak_in_flight: 1,
            },
            Point {
                clients: 4,
                joins: 64,
                elapsed_secs: 1.0,
                joins_per_sec: 64.0,
                peak_in_flight: 4,
            },
        ];
        let metrics = "{\n    \"hj_engine_requests_served_total\": 80\n  }";
        let json = render_json(1000, 2000, 4, &points, metrics);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"clients\"").count(), 2);
        assert!(json.contains("\"sessions\": 8"));
        assert!(json.contains("\"worker_threads\": 4"));
        assert!(json.contains("\"metrics\": {\n    \"hj_engine_requests_served_total\": 80\n  },"));
        // One comma between the two result rows, one after the metrics blob.
        assert_eq!(json.matches("},\n").count(), 2);
    }

    #[test]
    fn client_counts_env_parsing_is_robust() {
        // No env manipulation here (tests run in parallel); exercise the
        // default path shape instead.
        let counts = client_counts();
        assert!(!counts.is_empty());
        assert!(counts.iter().all(|&c| (1..=SESSIONS).contains(&c)));
    }
}
