//! Open-loop tail latency of the TCP serving layer (`BENCH_serving`).
//!
//! Closed-loop harnesses (like [`crate::throughput`]) hide overload: a
//! slow reply delays the *next* request, so the measured latency flattens
//! exactly when a production system would be melting down.  This runner
//! does it the honest way — it first measures the closed-loop saturation
//! rate of one [`JoinServer`], then replays Poisson arrival schedules at
//! 0.5×, 0.9× and 1.2× of that rate where arrivals do **not** wait for
//! completions, and reports p50/p99/p99.9 latency measured from each
//! request's *scheduled* arrival time (so queueing counts against the
//! server, per the open-loop convention).
//!
//! At 1.2× the offered load exceeds what the engine can serve; the
//! admission controller's queue-time budget must convert the overflow
//! into typed `Overloaded` replies.  The runner hard-fails (exit 1) if
//! any request times out or dies on an untyped error, in any phase —
//! overload must surface as a shed, never as a hang.
//!
//! It emits `BENCH_serving.json` in the working directory so successive
//! PRs can track the trajectory.
//!
//! CI gating knobs (environment):
//!
//! * `HJ_SERVING_MAX_P99_MS="250"` — fail (exit 1) when the p99 of any
//!   *sub-saturation* phase (multiplier < 1) exceeds this many ms;
//! * `HJ_SERVING_REQUIRE_SHED=1` — fail when the overload phase
//!   (multiplier > 1) shed nothing, i.e. admission control never kicked
//!   in despite 1.2× offered load;
//! * `HJ_TRACE_MAX_OVERHEAD_PCT="5"` — fail when the closed-loop traced
//!   phase (every request opts into the flight recorder) runs more than
//!   this many percent slower than the identical untraced phase.  The
//!   traced phase must also add zero sheds — observability is not
//!   allowed to push the server into admission control.
//! * `HJ_SAMPLER_MAX_OVERHEAD_PCT="2"` — fail when the scrape-under-load
//!   phase (sampler thread on + `/metrics` and `/health` hammered over
//!   HTTP for the whole closed loop) runs more than this many percent
//!   slower than the identical phase with the sampler disabled and no
//!   scraping.

use crate::common::{banner, ExpContext};
use datagen::{Relation, SmallRng};
use hj_analysis::sync::Mutex;
use hj_core::metrics::LatencyHistogram;
use hj_core::server::{JoinClient, RequestBuilder, SloConfig, WireRequest};
use hj_core::{EngineConfig, JoinEngine, JoinServer, NativeCpu, ServerConfig};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pooled sessions of the engine under test (also the closed-loop client
/// count used to find saturation).
const SESSIONS: usize = 4;

/// Queue-time budget handed to admission control: once the estimated wait
/// crosses this, new arrivals are shed instead of queued.
const QUEUE_BUDGET_MS: u32 = 100;

/// Requests per closed-loop client when measuring saturation.
const SATURATION_REQS_PER_CLIENT: usize = 48;

/// Offered-load multipliers of the open-loop phases, in run order.
const MULTIPLIERS: [f64; 3] = [0.5, 0.9, 1.2];

/// Wall-clock each open-loop phase aims to cover.
const PHASE_SECS: f64 = 2.0;

/// Requests per phase are clamped to this range so a very fast (or very
/// slow) host still measures something meaningful in bounded time.
const PHASE_REQS: (usize, usize) = (200, 1500);

/// Sender threads draining the arrival queue; bounds client-side
/// concurrency, while latency is still charged from the scheduled arrival.
const SENDERS: usize = 16;

/// Per-read client timeout — generous, because hitting it at all is a
/// hard failure (overload must shed, not hang).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Requests per client, per side, of the paired trace-overhead phase.
const TRACE_REQS_PER_CLIENT: usize = 16;

/// Requests per client, per side, of the paired sampler-overhead phase.
const SAMPLER_REQS_PER_CLIENT: usize = 16;

/// Sampler cadence of the sampled side of the sampler-overhead phase —
/// deliberately brisker than the engine default so the phase actually
/// exercises the snapshot path several times.
const SAMPLER_PHASE_INTERVAL: Duration = Duration::from_millis(50);

/// Pause between `/metrics` + `/health` scrape pairs on the sampled
/// side.  50 scrapes/sec is orders of magnitude hotter than any real
/// collector (Prometheus defaults to one per 15 s) while keeping the
/// scraper from degenerating into a busy-loop that measures CPU
/// contention instead of exposition cost.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(20);

/// Outcome counters plus the latency histogram of one phase (or one
/// sender's share of it).
#[derive(Default)]
struct Tally {
    served: u64,
    shed: u64,
    timeouts: u64,
    errors: u64,
    latency: LatencyHistogram,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.served += other.served;
        self.shed += other.shed;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
    }
}

/// One measured open-loop phase.
struct Phase {
    multiplier: f64,
    target_rps: f64,
    requests: usize,
    elapsed_secs: f64,
    tally: Tally,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        self.tally.latency.quantile_ms(q).unwrap_or(0.0)
    }
}

fn request_for(build: &Relation, probe: &Relation) -> WireRequest {
    RequestBuilder::new(build.clone(), probe.clone()).build()
}

/// Sends one request, charging latency from `scheduled`; reconnects the
/// client after an I/O failure so one bad exchange cannot poison the rest
/// of the phase.
fn send_one(
    client: &mut JoinClient,
    addr: SocketAddr,
    request: WireRequest,
    scheduled: Instant,
    tally: &mut Tally,
) {
    use hj_core::server::ClientError;
    match client.join(request) {
        Ok(_) => {
            tally.served += 1;
            tally.latency.record(scheduled.elapsed().as_nanos() as u64);
        }
        Err(err) if err.is_overloaded() => tally.shed += 1,
        Err(ClientError::Io(io)) => {
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                tally.timeouts += 1;
            } else {
                tally.errors += 1;
            }
            if let Ok(fresh) = JoinClient::connect_timeout(addr, CLIENT_TIMEOUT) {
                *client = fresh;
            }
        }
        Err(_) => tally.errors += 1,
    }
}

/// One `GET` against the server's HTTP exposition listener; true when a
/// complete `200` response came back.  Failures are tolerated (the server
/// may be mid-shutdown when the scrape loop winds down) — callers count
/// successes.
fn scrape_ok(addr: SocketAddr, target: &str) -> bool {
    use std::io::{Read, Write};
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    if stream.set_read_timeout(Some(CLIENT_TIMEOUT)).is_err() {
        return false;
    }
    if stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .is_err()
    {
        return false;
    }
    let mut body = String::new();
    stream.read_to_string(&mut body).is_ok() && body.starts_with("HTTP/1.1 200")
}

/// Closed-loop saturation: [`SESSIONS`] clients back to back, each its own
/// connection.  This also warms the admission controller's service-time
/// estimate with real measurements before any open-loop phase runs.
fn measure_saturation(addr: SocketAddr, build: &Relation, probe: &Relation) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SESSIONS {
            scope.spawn(|| {
                let mut client = JoinClient::connect_timeout(addr, CLIENT_TIMEOUT)
                    .expect("saturation client connect");
                for _ in 0..SATURATION_REQS_PER_CLIENT {
                    client
                        .join(request_for(build, probe))
                        .expect("saturation request failed");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (SESSIONS * SATURATION_REQS_PER_CLIENT) as f64 / elapsed.max(1e-9)
}

/// Replays a Poisson arrival schedule at `target_rps` against `addr`.
fn run_phase(
    addr: SocketAddr,
    build: &Relation,
    probe: &Relation,
    multiplier: f64,
    target_rps: f64,
    rng: &mut SmallRng,
) -> Phase {
    let requests = ((target_rps * PHASE_SECS) as usize).clamp(PHASE_REQS.0, PHASE_REQS.1);
    // Exponential inter-arrival gaps, drawn up front so the dispatch loop
    // below only sleeps and sends.
    let mut offsets = Vec::with_capacity(requests);
    let mut t = 0.0f64;
    for _ in 0..requests {
        // -ln(1-U)/λ; 1-U avoids ln(0).
        t += -(1.0 - rng.random_unit()).ln() / target_rps;
        offsets.push(t);
    }

    let (tx, rx) = mpsc::channel::<Instant>();
    let rx = Arc::new(Mutex::new("bench.serving_rx", rx));
    let start = Instant::now();
    let tally = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                let rx = Arc::clone(&rx);
                scope.spawn(move || {
                    let mut client = JoinClient::connect_timeout(addr, CLIENT_TIMEOUT)
                        .expect("phase client connect");
                    let mut tally = Tally::default();
                    loop {
                        // Holding the lock while blocked on `recv` is fine:
                        // it releases the moment a job (or the hangup)
                        // arrives, so the queue drains one job at a time.
                        let job = { rx.lock().recv() };
                        let Ok(scheduled) = job else { break };
                        send_one(
                            &mut client,
                            addr,
                            request_for(build, probe),
                            scheduled,
                            &mut tally,
                        );
                    }
                    tally
                })
            })
            .collect();

        // Open-loop dispatch: sleep to each scheduled arrival and enqueue
        // it regardless of how far behind the senders are.
        for &offset in &offsets {
            let scheduled = start + Duration::from_secs_f64(offset);
            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            tx.send(scheduled).expect("senders alive while dispatching");
        }
        drop(tx); // hang up: senders drain the queue and exit

        let mut total = Tally::default();
        for sender in senders {
            total.absorb(&sender.join().expect("sender thread panicked"));
        }
        total
    });

    Phase {
        multiplier,
        target_rps,
        requests,
        elapsed_secs: start.elapsed().as_secs_f64(),
        tally,
    }
}

/// `serving`: open-loop tail latency of the TCP serving layer at
/// 0.5×/0.9×/1.2× of measured saturation.
pub fn serving(ctx: &mut ExpContext) {
    banner("BENCH_serving: open-loop tail latency of the TCP serving layer");
    let (build, probe) = ctx.relations(
        256 * 1024,
        512 * 1024,
        datagen::KeyDistribution::Uniform,
        1.0,
    );
    let engine = Arc::new(
        JoinEngine::new(
            Box::new(NativeCpu::new()),
            // A deep engine queue lets Poisson bursts wait their turn; the
            // admission controller's *time* budget (not a fixed depth) is
            // what sheds sustained overload.
            EngineConfig::for_tuples(build.len(), probe.len())
                .sessions(SESSIONS)
                .queue_depth(256),
        )
        .expect("valid serving engine config"),
    );
    let server = JoinServer::start(
        Arc::clone(&engine),
        ServerConfig::default().slo(SloConfig::default().queue_budget_ms(QUEUE_BUDGET_MS)),
    )
    .expect("serving bench server start");
    let addr = server.local_addr();

    let sat_rps = measure_saturation(addr, &build, &probe);
    println!(
        "workload: {} x {} tuples, {} sessions, queue budget {} ms",
        build.len(),
        probe.len(),
        SESSIONS,
        QUEUE_BUDGET_MS
    );
    println!("closed-loop saturation: {sat_rps:.1} requests/sec");
    println!(
        "{:>6} {:>10} {:>6} {:>7} {:>6} {:>9} {:>9} {:>9}",
        "load", "target/s", "sent", "served", "shed", "p50(ms)", "p99(ms)", "p999(ms)"
    );

    let mut rng = SmallRng::seed_from_u64(0x5e41);
    let mut phases = Vec::new();
    for multiplier in MULTIPLIERS {
        let phase = run_phase(
            addr,
            &build,
            &probe,
            multiplier,
            multiplier * sat_rps,
            &mut rng,
        );
        println!(
            "{:>5.1}x {:>10.1} {:>6} {:>7} {:>6} {:>9.2} {:>9.2} {:>9.2}",
            phase.multiplier,
            phase.target_rps,
            phase.requests,
            phase.tally.served,
            phase.tally.shed,
            phase.p(0.50),
            phase.p(0.99),
            phase.p(0.999),
        );
        phases.push(phase);
        // Let the backlog drain so one phase's queue does not leak into
        // the next phase's latency.
        std::thread::sleep(Duration::from_millis(200));
    }

    // --- trace overhead phase: the same closed-loop stream, untraced vs
    // traced.  The flight recorder is assembled from data the join already
    // produced, so opting every request in must cost ≈ nothing and must
    // never tip the server into shedding.
    let shed_before = server.stats().requests_shed;
    let run_traced = |trace: bool| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..SESSIONS {
                scope.spawn(|| {
                    let mut client = JoinClient::connect_timeout(addr, CLIENT_TIMEOUT)
                        .expect("trace-phase client connect");
                    for _ in 0..TRACE_REQS_PER_CLIENT {
                        let request = RequestBuilder::new(build.clone(), probe.clone())
                            .trace(trace)
                            .build();
                        let outcome = client.join(request).expect("trace-phase request");
                        assert_eq!(outcome.trace.is_some(), trace, "flight recorder is opt-in");
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    };
    // Interleaved rounds, best-of per side: a slow host period cannot
    // charge all its noise to one mode.
    let mut untraced_secs = f64::MAX;
    let mut traced_secs = f64::MAX;
    for _ in 0..2 {
        untraced_secs = untraced_secs.min(run_traced(false));
        traced_secs = traced_secs.min(run_traced(true));
    }
    let trace_overhead_pct = (traced_secs / untraced_secs.max(1e-9) - 1.0) * 100.0;
    let added_sheds = server.stats().requests_shed - shed_before;
    println!(
        "trace overhead: untraced {untraced_secs:.3}s vs traced {traced_secs:.3}s \
         ({trace_overhead_pct:+.2}%), {added_sheds} sheds added"
    );
    assert_eq!(
        added_sheds, 0,
        "the closed-loop trace phase must never push the server into shedding"
    );

    // --- sampler overhead phase: the same closed-loop stream on a fresh
    // engine+server pair per side — sampler off and unscraped vs sampler
    // on with `/metrics` + `/health` hammered over HTTP throughout.  The
    // sampler snapshots relaxed atomics off the hot path, so continuous
    // profiling must cost ≈ nothing.
    let run_sampled = |sampled: bool| -> f64 {
        let config = EngineConfig::for_tuples(build.len(), probe.len())
            .sessions(SESSIONS)
            .queue_depth(256)
            .sample_interval(if sampled {
                SAMPLER_PHASE_INTERVAL
            } else {
                Duration::ZERO
            });
        let engine = JoinEngine::new(Box::new(NativeCpu::new()), config)
            .expect("valid sampler-phase engine config");
        let server_config = if sampled {
            ServerConfig::default().http_addr("127.0.0.1:0")
        } else {
            ServerConfig::default()
        };
        let server =
            JoinServer::start(Arc::new(engine), server_config).expect("sampler-phase server");
        let addr = server.local_addr();
        let http_addr = server.http_local_addr();
        let stop = std::sync::atomic::AtomicBool::new(false);

        let elapsed = std::thread::scope(|scope| {
            if let Some(http_addr) = http_addr {
                let stop = &stop;
                scope.spawn(move || {
                    let mut good = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        for target in ["/metrics", "/health"] {
                            if scrape_ok(http_addr, target) {
                                good += 1;
                            }
                        }
                        std::thread::sleep(SCRAPE_INTERVAL);
                    }
                    assert!(good > 0, "the scrape loop must land at least one scrape");
                });
            }
            let start = Instant::now();
            std::thread::scope(|inner| {
                for _ in 0..SESSIONS {
                    inner.spawn(|| {
                        let mut client = JoinClient::connect_timeout(addr, CLIENT_TIMEOUT)
                            .expect("sampler-phase client connect");
                        for _ in 0..SAMPLER_REQS_PER_CLIENT {
                            client
                                .join(request_for(&build, &probe))
                                .expect("sampler-phase request");
                        }
                    });
                }
            });
            let elapsed = start.elapsed().as_secs_f64();
            stop.store(true, std::sync::atomic::Ordering::Release);
            elapsed
        });
        drop(server); // graceful shutdown before the next side starts
        elapsed
    };
    let mut unsampled_secs = f64::MAX;
    let mut sampled_secs = f64::MAX;
    for _ in 0..2 {
        unsampled_secs = unsampled_secs.min(run_sampled(false));
        sampled_secs = sampled_secs.min(run_sampled(true));
    }
    let sampler_overhead_pct = (sampled_secs / unsampled_secs.max(1e-9) - 1.0) * 100.0;
    println!(
        "sampler overhead: unsampled {unsampled_secs:.3}s vs sampled+scraped \
         {sampled_secs:.3}s ({sampler_overhead_pct:+.2}%)"
    );

    let stats = server.stats();
    println!(
        "server: {} served, {} shed (deadline {}, quota {}, queue {}, saturated {}), \
         {} failed, {} protocol errors",
        stats.requests_served,
        stats.requests_shed,
        stats.shed_deadline,
        stats.shed_quota,
        stats.shed_queue_budget,
        stats.shed_saturated,
        stats.requests_failed,
        stats.protocol_errors
    );

    let registry_metrics = crate::common::registry_json(engine.metrics_registry());
    let json = render_json(
        build.len(),
        probe.len(),
        sat_rps,
        trace_overhead_pct,
        sampler_overhead_pct,
        &phases,
        &registry_metrics,
    );
    let path = "BENCH_serving.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let rows: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "{},{:.1},{},{},{},{},{},{:.3},{:.3},{:.3}",
                p.multiplier,
                p.target_rps,
                p.requests,
                p.tally.served,
                p.tally.shed,
                p.tally.timeouts,
                p.tally.errors,
                p.p(0.50),
                p.p(0.99),
                p.p(0.999),
            )
        })
        .collect();
    ctx.write_csv(
        "serving.csv",
        "multiplier,target_rps,requests,served,shed,timeouts,errors,p50_ms,p99_ms,p999_ms",
        &rows,
    );

    // Unconditional correctness gates: every request in every phase got a
    // typed answer — served or shed — never a timeout or an untyped error,
    // and nothing fell through the accounting.
    for p in &phases {
        if p.tally.timeouts > 0 || p.tally.errors > 0 {
            eprintln!(
                "FAIL: {:.1}x phase had {} timeouts and {} untyped errors — overload must \
                 surface as typed Overloaded replies",
                p.multiplier, p.tally.timeouts, p.tally.errors
            );
            std::process::exit(1);
        }
        let answered = p.tally.served + p.tally.shed;
        if answered != p.requests as u64 {
            eprintln!(
                "FAIL: {:.1}x phase sent {} requests but accounted for {answered}",
                p.multiplier, p.requests
            );
            std::process::exit(1);
        }
    }

    // Optional CI gates.
    if let Some(ceiling) = crate::common::env_ratio_floor("HJ_SERVING_MAX_P99_MS") {
        for p in phases.iter().filter(|p| p.multiplier < 1.0) {
            let p99 = p.p(0.99);
            println!(
                "gate: {:.1}x p99 {p99:.2} ms vs ceiling {ceiling} ms",
                p.multiplier
            );
            if p99 > ceiling {
                eprintln!(
                    "FAIL: p99 at {:.1}x load is {p99:.2} ms, above HJ_SERVING_MAX_P99_MS={ceiling}",
                    p.multiplier
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(cap) = crate::common::env_ratio_floor("HJ_TRACE_MAX_OVERHEAD_PCT") {
        println!("gate: trace overhead {trace_overhead_pct:+.2}% vs cap {cap}%");
        if trace_overhead_pct > cap {
            eprintln!(
                "FAIL: traced joins are {trace_overhead_pct:.2}% slower than untraced \
                 (HJ_TRACE_MAX_OVERHEAD_PCT={cap})"
            );
            std::process::exit(1);
        }
    }
    if let Some(cap) = crate::common::env_ratio_floor("HJ_SAMPLER_MAX_OVERHEAD_PCT") {
        println!("gate: sampler overhead {sampler_overhead_pct:+.2}% vs cap {cap}%");
        if sampler_overhead_pct > cap {
            eprintln!(
                "FAIL: the sampled+scraped closed loop is {sampler_overhead_pct:.2}% slower \
                 than the unsampled one (HJ_SAMPLER_MAX_OVERHEAD_PCT={cap})"
            );
            std::process::exit(1);
        }
    }
    if std::env::var("HJ_SERVING_REQUIRE_SHED").is_ok_and(|v| v == "1") {
        let overload_shed: u64 = phases
            .iter()
            .filter(|p| p.multiplier > 1.0)
            .map(|p| p.tally.shed)
            .sum();
        if overload_shed == 0 {
            eprintln!(
                "FAIL: the overload phase shed nothing — admission control never engaged \
                 despite {}x offered load",
                MULTIPLIERS[MULTIPLIERS.len() - 1]
            );
            std::process::exit(1);
        }
        println!("gate: overload phase shed {overload_shed} requests (> 0)");
    }
}

fn render_json(
    build_tuples: usize,
    probe_tuples: usize,
    sat_rps: f64,
    trace_overhead_pct: f64,
    sampler_overhead_pct: f64,
    phases: &[Phase],
    registry_metrics: &str,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"serving-tail-latency\",\n");
    out.push_str("  \"backend\": \"native-cpu\",\n");
    out.push_str(&format!("  \"sessions\": {SESSIONS},\n"));
    out.push_str(&format!("  \"queue_budget_ms\": {QUEUE_BUDGET_MS},\n"));
    out.push_str(&format!("  \"build_tuples\": {build_tuples},\n"));
    out.push_str(&format!("  \"probe_tuples\": {probe_tuples},\n"));
    out.push_str(&format!("  \"saturation_rps\": {sat_rps:.1},\n"));
    out.push_str(&format!(
        "  \"trace_overhead_pct\": {trace_overhead_pct:.2},\n"
    ));
    out.push_str(&format!(
        "  \"sampler_overhead_pct\": {sampler_overhead_pct:.2},\n"
    ));
    out.push_str(&format!("  \"metrics\": {registry_metrics},\n"));
    out.push_str("  \"phases\": [\n");
    for (i, p) in phases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"multiplier\": {}, \"target_rps\": {:.1}, \"requests\": {}, \
             \"served\": {}, \"shed\": {}, \"timeouts\": {}, \"errors\": {}, \
             \"elapsed_secs\": {:.3}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}}}{}\n",
            p.multiplier,
            p.target_rps,
            p.requests,
            p.tally.served,
            p.tally.shed,
            p.tally.timeouts,
            p.tally.errors,
            p.elapsed_secs,
            p.p(0.50),
            p.p(0.99),
            p.p(0.999),
            if i + 1 < phases.len() { "," } else { "" }
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
        let mut warm = Tally {
            served: 10,
            ..Tally::default()
        };
        warm.latency.record(1_000_000);
        let phases = vec![
            Phase {
                multiplier: 0.5,
                target_rps: 100.0,
                requests: 10,
                elapsed_secs: 0.1,
                tally: warm,
            },
            Phase {
                multiplier: 1.2,
                target_rps: 240.0,
                requests: 12,
                elapsed_secs: 0.1,
                tally: Tally::default(),
            },
        ];
        let json = render_json(1000, 2000, 200.0, 1.25, 0.75, &phases, "{\n  }");
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"multiplier\"").count(), 2);
        assert!(json.contains("\"saturation_rps\": 200.0"));
        assert!(json.contains("\"trace_overhead_pct\": 1.25"));
        assert!(json.contains("\"sampler_overhead_pct\": 0.75"));
        assert!(json.contains("\"metrics\": {\n  },"));
        // One comma between the two phase rows, one after the metrics blob.
        assert_eq!(json.matches("},\n").count(), 2);
    }

    #[test]
    fn tallies_merge_across_senders() {
        let mut a = Tally {
            served: 3,
            ..Tally::default()
        };
        a.latency.record(500);
        let mut b = Tally {
            shed: 2,
            timeouts: 1,
            ..Tally::default()
        };
        b.latency.record(1500);
        a.absorb(&b);
        assert_eq!(a.served, 3);
        assert_eq!(a.shed, 2);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.latency.count(), 2);
    }

    #[test]
    fn phase_sizes_stay_bounded() {
        for rps in [1.0, 50.0, 1e6] {
            let n = ((rps * PHASE_SECS) as usize).clamp(PHASE_REQS.0, PHASE_REQS.1);
            assert!((PHASE_REQS.0..=PHASE_REQS.1).contains(&n));
        }
    }
}
