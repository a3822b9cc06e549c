//! Serve: expose a shared [`JoinEngine`] over TCP with SLO-aware admission
//! control, then print what the server saw.
//!
//! ```text
//! cargo run --release --example serve            # binds 127.0.0.1:7644
//! HJ_SERVE_ADDR=0.0.0.0:9000 cargo run --release --example serve
//! HJ_SERVE_HTTP_ADDR=127.0.0.1:9641 cargo run --release --example serve
//! ```
//!
//! The HTTP exposition listener (default `127.0.0.1:7641`) serves
//! `GET /metrics`, `GET /health` and `GET /debug/slowlog` — try
//! `curl localhost:7641/metrics` while the demo runs.
//!
//! Run `cargo run --release --example client` from another terminal to
//! drive it.  Press Ctrl-C to stop (or it exits on its own after five
//! minutes so an unattended demo cannot linger).

use coupled_hashjoin::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let addr = std::env::var("HJ_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7644".to_string());
    let http_addr =
        std::env::var("HJ_SERVE_HTTP_ADDR").unwrap_or_else(|_| "127.0.0.1:7641".to_string());
    let tuples = 64 * 1024;

    // One engine, four pooled sessions: the server multiplexes every
    // connection onto this pool, one engine submission per request.
    let engine = Arc::new(
        JoinEngine::native(EngineConfig::for_tuples(tuples, 2 * tuples).sessions(4))
            .expect("engine config"),
    );

    // The admission policy: each client gets 50 requests/sec (burst 10);
    // once the estimated queue wait passes 200 ms, new work is shed with a
    // typed `Overloaded` reply and a retry hint instead of being queued
    // into a timeout.  Requests carrying a deadline the estimator says is
    // unmeetable are shed immediately, before they waste a session.
    let slo = SloConfig::default().quota(50.0, 10.0).queue_budget_ms(200);

    let server = JoinServer::start(
        Arc::clone(&engine),
        ServerConfig::default()
            .addr(&addr)
            .http_addr(&http_addr)
            .slo(slo),
    )
    .expect("server start");
    println!(
        "serving joins on {} (build <= {} tuples, probe <= {} tuples)",
        server.local_addr(),
        tuples,
        2 * tuples
    );
    if let Some(http) = server.http_local_addr() {
        println!("metrics/health/slowlog on http://{http}");
    }

    // A real deployment would park here until a signal arrives; for the
    // example we poll stats for a bounded demo window.
    for _ in 0..60 {
        std::thread::sleep(Duration::from_secs(5));
        let stats = server.stats();
        if stats.requests_received > 0 || stats.tables_registered > 0 {
            let cache = engine.cache_stats();
            println!(
                "served {} | shed {} (deadline {}, quota {}, queue {}, saturated {}) | \
                 p99 {:.2} ms | tables {} | cache {} hits / {} misses \
                 ({:.1} ms of builds skipped)",
                stats.requests_served,
                stats.requests_shed,
                stats.shed_deadline,
                stats.shed_quota,
                stats.shed_queue_budget,
                stats.shed_saturated,
                stats.request_latency.quantile_ms(0.99).unwrap_or(0.0),
                stats.tables_registered,
                cache.hits,
                cache.misses,
                cache.build_ns_saved as f64 / 1e6,
            );
        }
    }

    // Graceful: drains in-flight requests, refuses new connections, joins
    // every handler thread. (Dropping the server does the same.)
    println!("demo window over; shutting down");
    let mut server = server;
    server.shutdown();
}
