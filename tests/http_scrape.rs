//! HTTP exposition integration tests (run in release mode by CI):
//! concurrent scrapes under live join traffic, malformed-request
//! robustness, health-state flips under induced overload, and the
//! always-on slow-join log.

use coupled_hashjoin::hj_core::{ExecContext, JoinOutcome};
use coupled_hashjoin::prelude::*;
use datagen::Relation;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn test_pair(n: usize) -> (Relation, Relation) {
    datagen::generate_pair(&DataGenConfig::small(n, 2 * n))
}

fn http_config() -> ServerConfig {
    ServerConfig::default().http_addr("127.0.0.1:0")
}

/// One parsed HTTP/1.1 response: status code, headers, body.
struct HttpReply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpReply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request (raw bytes) and reads to EOF — the server closes
/// after every response — then parses status line, headers and body.
fn http_raw(addr: SocketAddr, request: &[u8]) -> HttpReply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).expect("response must be UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response must have a blank line after the head");
    let mut lines = head.lines();
    let status_line = lines.next().expect("response must have a status line");
    let mut parts = status_line.splitn(3, ' ');
    assert_eq!(parts.next(), Some("HTTP/1.1"), "{status_line}");
    let status: u16 = parts.next().unwrap().parse().unwrap();
    let headers: Vec<(String, String)> = lines
        .map(|line| {
            let (k, v) = line.split_once(':').expect("malformed header line");
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect();
    let reply = HttpReply {
        status,
        headers,
        body: body.to_string(),
    };
    let advertised: usize = reply
        .header("Content-Length")
        .expect("every response carries Content-Length")
        .parse()
        .unwrap();
    assert_eq!(advertised, reply.body.len(), "Content-Length must match");
    assert_eq!(reply.header("Connection"), Some("close"));
    reply
}

fn http_get(addr: SocketAddr, target: &str) -> HttpReply {
    http_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
    )
}

/// The value of an un-labelled (or exactly-spelled) sample in a
/// Prometheus text body.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Concurrent scrapes under live traffic
// ---------------------------------------------------------------------------

/// 4 scrape threads hammer `/metrics` + `/health` while 8 clients run
/// joins over the frame protocol, on both a simulator and the native
/// backend.  Every response parses, and monotone counters never decrease
/// across consecutive scrapes observed by one thread.
#[test]
fn concurrent_scrapes_parse_and_counters_are_monotone() {
    let (r, s) = test_pair(400);
    for native in [false, true] {
        // Every client's join waits for a session rather than being shed.
        let config = EngineConfig::for_tuples(1_024, 2_048)
            .sessions(2)
            .queue_depth(8);
        let engine = if native {
            JoinEngine::native(config).unwrap()
        } else {
            JoinEngine::coupled(config).unwrap()
        };
        let server = JoinServer::start(Arc::new(engine), http_config()).unwrap();
        let frame_addr = server.local_addr();
        let http_addr = server.http_local_addr().expect("http listener configured");

        let clients: Vec<_> = (0..8)
            .map(|_| {
                let (r, s) = (r.clone(), s.clone());
                std::thread::spawn(move || {
                    let mut client = JoinClient::connect(frame_addr).unwrap();
                    for _ in 0..6 {
                        client
                            .join(RequestBuilder::new(r.clone(), s.clone()).build())
                            .unwrap();
                    }
                })
            })
            .collect();
        let scrapers: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut last_served = 0.0f64;
                    let mut last_scrapes = 0.0f64;
                    for _ in 0..15 {
                        let metrics = http_get(http_addr, "/metrics");
                        assert_eq!(metrics.status, 200);
                        assert_eq!(
                            metrics.header("Content-Type"),
                            Some("text/plain; version=0.0.4; charset=utf-8")
                        );
                        let served = sample(&metrics.body, "hj_engine_requests_served_total");
                        let scrapes =
                            sample(&metrics.body, "hj_http_requests_total{path=\"/metrics\"}");
                        assert!(served >= last_served, "{served} < {last_served}");
                        assert!(scrapes >= last_scrapes, "{scrapes} < {last_scrapes}");
                        last_served = served;
                        last_scrapes = scrapes;

                        let health = http_get(http_addr, "/health");
                        assert!(
                            health.status == 200 || health.status == 503,
                            "{}",
                            health.status
                        );
                        assert_eq!(health.header("Content-Type"), Some("application/json"));
                        assert!(health.body.contains("\"state\":"), "{}", health.body);
                    }
                })
            })
            .collect();
        for handle in clients {
            handle.join().unwrap();
        }
        for handle in scrapers {
            handle.join().unwrap();
        }

        // The final snapshot reconciles with the engine and the scrape
        // counters saw all 4*15 /metrics requests.
        let final_metrics = http_get(http_addr, "/metrics");
        assert_eq!(
            sample(&final_metrics.body, "hj_engine_requests_served_total"),
            48.0,
            "native={native}"
        );
        assert!(
            sample(
                &final_metrics.body,
                "hj_http_requests_total{path=\"/metrics\"}"
            ) >= 60.0
        );
        assert!(server.stats().http_requests >= 4 * 15 * 2);
    }
}

// ---------------------------------------------------------------------------
// Malformed requests: clean 4xx + close, never a panic or a hang
// ---------------------------------------------------------------------------

#[test]
fn malformed_http_requests_get_clean_4xx_and_close() {
    let server = JoinServer::start(
        Arc::new(JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap()),
        http_config(),
    )
    .unwrap();
    let addr = server.http_local_addr().unwrap();

    // Unsupported method.
    let reply = http_raw(addr, b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(reply.status, 405);
    // Oversized request line.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(2_000));
    assert_eq!(http_raw(addr, long.as_bytes()).status, 414);
    // Path traversal.
    let reply = http_raw(addr, b"GET /debug/../secret HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(reply.status, 400);
    // Not HTTP at all.
    assert_eq!(http_raw(addr, b"xyzzy\r\n\r\n").status, 400);
    // Unknown route.
    assert_eq!(
        http_raw(addr, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n").status,
        404
    );

    // The server survives and still serves a valid scrape.
    let reply = http_get(addr, "/metrics");
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("hj_engine_requests_served_total"));
    let stats = server.stats();
    assert!(stats.http_bad_requests >= 5, "{}", stats.http_bad_requests);
}

// ---------------------------------------------------------------------------
// Server counts: exact over a scripted session
// ---------------------------------------------------------------------------

/// Every server count lands exactly once per event, over both listeners:
/// two inline joins, a table join, a join on an unknown table, a garbage
/// frame on a second connection, one valid and one unknown scrape.  Under
/// `--features lock-order` the acquisition graph stays clean too.
#[test]
fn server_counts_are_exact_over_a_scripted_session() {
    let (r, s) = test_pair(400);
    let server = JoinServer::start(
        Arc::new(JoinEngine::native(EngineConfig::for_tuples(512, 1_024)).unwrap()),
        http_config(),
    )
    .unwrap();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    for _ in 0..2 {
        client
            .join(RequestBuilder::new(r.clone(), s.clone()).build())
            .unwrap();
    }
    client.register_table("dim", r.clone()).unwrap();
    client
        .join_ref(RefRequestBuilder::new("dim", s.clone()).build())
        .unwrap();
    match client.join_ref(RefRequestBuilder::new("missing", s).build()) {
        Err(ClientError::Server { .. }) => {}
        other => panic!("expected a typed failure, got {other:?}"),
    }

    let mut garbage = TcpStream::connect(server.local_addr()).unwrap();
    garbage
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    garbage
        .write_all(b"this is not a frame header, not even close")
        .unwrap();
    // The typed error frame, then the close: an EOF, or a reset when the
    // server closed with garbage still unread.
    let _ = garbage.read_to_end(&mut Vec::new());

    let http = server.http_local_addr().unwrap();
    assert_eq!(http_get(http, "/metrics").status, 200);
    assert_eq!(http_get(http, "/nope").status, 404);

    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 2, "{stats:?}");
    assert_eq!(stats.connections_refused, 0, "{stats:?}");
    assert_eq!(stats.requests_served, 3, "{stats:?}");
    assert_eq!(stats.requests_failed, 1, "{stats:?}");
    assert_eq!(stats.protocol_errors, 1, "{stats:?}");
    assert_eq!(stats.request_latency.count(), 3, "{stats:?}");
    assert_eq!(stats.http_requests, 1, "{stats:?}");
    assert_eq!(stats.http_bad_requests, 1, "{stats:?}");
    drop(client);
    drop(server);
    let violations = hj_analysis::lockorder::violations();
    assert!(violations.is_empty(), "{violations:#?}");
}

// ---------------------------------------------------------------------------
// Health flips under induced overload, with hysteresis
// ---------------------------------------------------------------------------

/// A backend whose executions block while the shared gate is closed —
/// unlike the serving tests' one-shot gate, this one re-closes.
struct ReGate {
    sys: SystemSpec,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl ReGate {
    fn pair() -> (Arc<(Mutex<bool>, Condvar)>, JoinEngine) {
        let gate = Arc::new((Mutex::new(true), Condvar::new()));
        let engine = JoinEngine::new(
            Box::new(ReGate {
                sys: SystemSpec::coupled_a8_3870k(),
                gate: Arc::clone(&gate),
            }),
            EngineConfig::for_tuples(1_024, 2_048)
                .sessions(1)
                .queue_depth(0)
                .sample_interval(Duration::ZERO), // sampled manually
        )
        .unwrap();
        (gate, engine)
    }

    fn set(gate: &Arc<(Mutex<bool>, Condvar)>, open: bool) {
        *gate.0.lock().unwrap() = open;
        gate.1.notify_all();
    }
}

impl ExecBackend for ReGate {
    fn name(&self) -> &'static str {
        "regate-sim"
    }

    fn system(&self) -> &SystemSpec {
        &self.sys
    }

    fn execute(
        &self,
        _ctx: &mut ExecContext<'_>,
        _build: &Relation,
        _probe: &Relation,
        _request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        let (lock, cond) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cond.wait(open).unwrap();
        }
        Ok(JoinOutcome::default())
    }
}

/// One sampling window: optionally `sheds` saturated rejections (holding
/// the single session hostage behind the gate), then `joins` successful
/// submissions, then one deterministic sample.
fn run_window(
    engine: &Arc<JoinEngine>,
    gate: &Arc<(Mutex<bool>, Condvar)>,
    r: &Relation,
    s: &Relation,
    joins: usize,
    sheds: usize,
) {
    let request = JoinRequest::builder().build().unwrap();
    if sheds > 0 {
        ReGate::set(gate, false);
        let holder = {
            let engine = Arc::clone(engine);
            let (r, s) = (r.clone(), s.clone());
            std::thread::spawn(move || {
                let request = JoinRequest::builder().build().unwrap();
                engine.submit(&request, &r, &s)
            })
        };
        while engine.load().in_flight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..sheds {
            match engine.submit(&request, r, s) {
                Err(JoinError::Saturated { .. }) => {}
                other => panic!("expected Saturated, got {other:?}"),
            }
        }
        ReGate::set(gate, true);
        holder.join().unwrap().unwrap();
    }
    for _ in 0..joins {
        engine.submit(&request, r, s).unwrap();
    }
    engine.sample_now();
}

#[test]
fn health_degrades_under_overload_and_recovers_with_hysteresis() {
    let (r, s) = test_pair(200);
    let (gate, engine) = ReGate::pair();
    let engine = Arc::new(engine);
    let server = JoinServer::start(Arc::clone(&engine), http_config()).unwrap();
    let addr = server.http_local_addr().unwrap();

    // Baseline point + one clean window: healthy.
    engine.sample_now();
    run_window(&engine, &gate, &r, &s, 40, 0);
    let report = engine.health();
    assert_eq!(report.state, HealthState::Healthy, "{report:?}");
    let reply = http_get(addr, "/health");
    assert_eq!(reply.status, 200);
    assert!(
        reply.body.contains("\"state\":\"healthy\""),
        "{}",
        reply.body
    );

    // One bad window (shed ratio ~0.09: above degraded, below saturated)
    // must NOT flip the state yet — hysteresis needs two in a row.
    run_window(&engine, &gate, &r, &s, 50, 5);
    assert_eq!(engine.health().state, HealthState::Healthy);

    // The second consecutive bad window degrades, with a stated reason.
    run_window(&engine, &gate, &r, &s, 50, 5);
    let report = engine.health();
    match &report.state {
        HealthState::Degraded { reasons } => {
            assert!(!reasons.is_empty());
            assert!(reasons.iter().any(|reason| reason.contains("shed")));
        }
        other => panic!("expected Degraded, got {other:?}"),
    }
    // Degraded still serves: 200, state spelled out in the JSON.
    let reply = http_get(addr, "/health");
    assert_eq!(reply.status, 200);
    assert!(
        reply.body.contains("\"state\":\"degraded\""),
        "{}",
        reply.body
    );

    // Dominant shedding (2 windows of ratio ~0.9) saturates: 503.
    run_window(&engine, &gate, &r, &s, 0, 10);
    run_window(&engine, &gate, &r, &s, 0, 10);
    let report = engine.health();
    assert_eq!(report.state, HealthState::Saturated, "{report:?}");
    assert!(!report.is_serving());
    let reply = http_get(addr, "/health");
    assert_eq!(reply.status, 503);
    assert!(
        reply.body.contains("\"state\":\"saturated\""),
        "{}",
        reply.body
    );

    // Recovery is slower than degradation: two clean windows are not
    // enough, the third flips back to healthy.
    run_window(&engine, &gate, &r, &s, 40, 0);
    run_window(&engine, &gate, &r, &s, 40, 0);
    assert_ne!(engine.health().state, HealthState::Healthy);
    run_window(&engine, &gate, &r, &s, 40, 0);
    assert_eq!(engine.health().state, HealthState::Healthy);
    assert_eq!(http_get(addr, "/health").status, 200);
}

// ---------------------------------------------------------------------------
// Slow-join log: always on, even with tracing off
// ---------------------------------------------------------------------------

#[test]
fn slow_joins_are_logged_with_a_full_trace_despite_trace_off() {
    let (r, s) = test_pair(800);
    let engine = Arc::new(
        JoinEngine::coupled(
            EngineConfig::for_tuples(1_024, 2_048)
                // Every join is "slow" against a 1 ns threshold.
                .slow_join_threshold(Duration::from_nanos(1)),
        )
        .unwrap(),
    );
    let server = JoinServer::start(Arc::clone(&engine), http_config()).unwrap();

    let request = JoinRequest::builder().build().unwrap();
    let outcome = engine.submit(&request, &r, &s).unwrap();
    assert!(
        outcome.trace.is_none(),
        "an untraced request must not grow a trace just because it was slow"
    );

    let records = engine.slow_log().snapshot();
    assert_eq!(records.len(), 1);
    let record = &records[0];
    assert!(!record.traced);
    assert!(record.wall_ns >= record.threshold_ns);
    assert!(!record.trace.spans.is_empty(), "retroactive trace retained");
    let rendered = record.trace.render();
    assert!(rendered.contains("join"), "{rendered}");

    // The slow join is visible over HTTP with its rendered trace, and
    // counted in the metrics.
    let addr = server.http_local_addr().unwrap();
    let reply = http_get(addr, "/debug/slowlog");
    assert_eq!(reply.status, 200);
    assert!(
        reply.body.contains("slow joins: 1 retained"),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("join"), "{}", reply.body);
    let metrics = http_get(addr, "/metrics");
    assert_eq!(sample(&metrics.body, "hj_engine_slow_joins_total"), 1.0);

    // A generous threshold logs nothing.
    let quiet = JoinEngine::coupled(
        EngineConfig::for_tuples(1_024, 2_048).slow_join_threshold(Duration::from_secs(3_600)),
    )
    .unwrap();
    quiet.submit(&request, &r, &s).unwrap();
    assert!(quiet.slow_log().is_empty());
}
