//! Serving-layer integration tests (run in release mode by CI): wire
//! results byte-identical to in-process submission, protocol robustness
//! against malformed frames, typed overload shedding (queue budget
//! included), p99 below saturation (release builds), small count-only
//! traffic on the direct path and graceful shutdown.

use coupled_hashjoin::hj_core::server::{
    read_frame, write_frame, FrameType, WireChunk, WireDone, WireErrorCode, WireFailure,
    WireResponse, WireTrace, DEFAULT_MAX_PAYLOAD_BYTES, HEADER_BYTES, RETAINED_FRAME_BYTES,
    VERSION,
};
use coupled_hashjoin::hj_core::{reference_pairs, ExecContext, JoinOutcome};
use coupled_hashjoin::prelude::*;
use datagen::Relation;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn test_pair(n: usize) -> (Relation, Relation) {
    datagen::generate_pair(&DataGenConfig::small(n, 2 * n))
}

fn start_server(engine: JoinEngine, config: ServerConfig) -> JoinServer {
    JoinServer::start(Arc::new(engine), config).unwrap()
}

/// The tentpole identity: for every algorithm x scheme on both a simulator
/// and the native backend, the pair set served over the wire is
/// byte-identical to what an in-process `submit` returns.
#[test]
fn wire_pairs_are_byte_identical_to_in_process_submit() {
    let (r, s) = test_pair(3_000);
    let combos = [
        (
            WireAlgorithm::Shj,
            Scheme::offload_gpu(),
            WireScheme::Offload,
        ),
        (
            WireAlgorithm::Shj,
            Scheme::data_dividing_paper(),
            WireScheme::DataDividing,
        ),
        (
            WireAlgorithm::Shj,
            Scheme::pipelined_paper(),
            WireScheme::Pipelined,
        ),
        (
            WireAlgorithm::Phj,
            Scheme::offload_gpu(),
            WireScheme::Offload,
        ),
        (
            WireAlgorithm::Phj,
            Scheme::data_dividing_paper(),
            WireScheme::DataDividing,
        ),
        (
            WireAlgorithm::Phj,
            Scheme::pipelined_paper(),
            WireScheme::Pipelined,
        ),
    ];
    for native in [false, true] {
        let config = EngineConfig::for_tuples(3_000, 6_000).sessions(2);
        let engine = if native {
            JoinEngine::native(config).unwrap()
        } else {
            JoinEngine::coupled(config).unwrap()
        };
        let engine = Arc::new(engine);
        let server = JoinServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
        let mut client = JoinClient::connect(server.local_addr()).unwrap();
        for (wire_alg, scheme, wire_scheme) in &combos {
            let algorithm = match wire_alg {
                WireAlgorithm::Shj => Algorithm::Simple,
                WireAlgorithm::Phj => Algorithm::partitioned_auto(),
            };
            let request = JoinRequest::builder()
                .algorithm(algorithm)
                .scheme(scheme.clone())
                .collect_results(true)
                .build()
                .unwrap();
            let local = engine.submit(&request, &r, &s).unwrap();
            let remote = client
                .join(
                    RequestBuilder::new(r.clone(), s.clone())
                        .algorithm(*wire_alg)
                        .scheme(*wire_scheme)
                        .collect_pairs(true)
                        .build(),
                )
                .unwrap();
            assert_eq!(
                remote.matches, local.matches,
                "{wire_alg:?}/{wire_scheme:?}"
            );
            assert_eq!(
                remote.pairs,
                local.pairs.unwrap(),
                "wire pairs diverged for {wire_alg:?}/{wire_scheme:?} (native={native})"
            );
        }
    }
}

/// Count-only requests stream no chunks but agree with the reference.
#[test]
fn count_only_requests_round_trip() {
    let (r, s) = test_pair(2_000);
    let expected = reference_match_count(&r, &s);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(2_000, 4_000)).unwrap(),
        ServerConfig::default(),
    );
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    let outcome = client
        .join(
            RequestBuilder::new(r, s)
                .algorithm(WireAlgorithm::Phj)
                .build(),
        )
        .unwrap();
    assert_eq!(outcome.matches, expected);
    assert!(outcome.pairs.is_empty());
}

/// Large collected results are streamed in bounded chunks and reassembled.
#[test]
fn pair_streaming_chunks_and_reassembles() {
    let (r, s) = test_pair(4_000);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(4_000, 8_000)).unwrap(),
        ServerConfig {
            chunk_pairs: 128, // force many chunks
            ..ServerConfig::default()
        },
    );
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    let outcome = client
        .join(
            RequestBuilder::new(r.clone(), s.clone())
                .collect_pairs(true)
                .build(),
        )
        .unwrap();
    assert_eq!(outcome.pairs.len() as u64, outcome.matches);
    assert!(
        outcome.matches as usize > 128,
        "the workload must actually span multiple chunks"
    );
    let mut reference = reference_pairs(&r, &s);
    let mut got = outcome.pairs.clone();
    reference.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, reference);
}

/// A connection reuses its read and reply buffers (and the client its send
/// and receive buffers) from one message to the next.  A long frame's bytes
/// must never show in a later, shorter answer, and a buffer released after
/// a frame over the retention cap must come back working.
#[test]
fn reused_buffers_never_leak_a_previous_frame() {
    let (large_r, large_s) = test_pair(4_000);
    let (small_r, small_s) = test_pair(300);
    // 8 B a tuple over 3n tuples: a request frame above the retention cap.
    let huge_n = RETAINED_FRAME_BYTES / 24 + 1;
    let (huge_r, huge_s) = test_pair(huge_n);
    let server = start_server(
        JoinEngine::native(EngineConfig::for_tuples(huge_n, 2 * huge_n)).unwrap(),
        ServerConfig {
            chunk_pairs: 128,
            ..ServerConfig::default()
        },
    );
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    let sorted = |mut pairs: Vec<(u32, u32)>| {
        pairs.sort_unstable();
        pairs
    };
    let collect = |client: &mut JoinClient, r: &Relation, s: &Relation| {
        let request = RequestBuilder::new(r.clone(), s.clone())
            .collect_pairs(true)
            .build();
        sorted(client.join(request).unwrap().pairs)
    };

    let count_only = |client: &mut JoinClient, r: &Relation, s: &Relation| {
        let outcome = client
            .join(RequestBuilder::new(r.clone(), s.clone()).build())
            .unwrap();
        assert!(outcome.pairs.is_empty());
        outcome.matches
    };

    let large = sorted(reference_pairs(&large_r, &large_s));
    assert!(large.len() > 128, "the large reply spans many chunks");
    assert_eq!(collect(&mut client, &large_r, &large_s), large);
    assert_eq!(
        count_only(&mut client, &small_r, &small_s),
        reference_pairs(&small_r, &small_s).len() as u64
    );
    assert_eq!(
        collect(&mut client, &huge_r, &huge_s),
        sorted(reference_pairs(&huge_r, &huge_s))
    );
    assert_eq!(collect(&mut client, &large_r, &large_s), large);
}

/// Reads through to `inner`, keeping a copy of every byte read.
struct Recorded<'a> {
    inner: &'a mut TcpStream,
    bytes: Vec<u8>,
}

impl Read for Recorded<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// Encoding replies into a reused buffer changes how they are written, not
/// what: the bytes of a traced, many-chunk collecting reply equal
/// `write_frame` over a separately encoded head, chunks, `Done` and
/// `Trace`.
#[test]
fn reply_bytes_equal_separately_written_frames() {
    assert_eq!(VERSION, 2, "the wire format did not change");
    let (r, s) = test_pair(2_000);
    let engine = Arc::new(JoinEngine::native(EngineConfig::for_tuples(2_000, 4_000)).unwrap());
    let chunk_pairs = 100;
    let server = JoinServer::start(
        Arc::clone(&engine),
        ServerConfig {
            chunk_pairs,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let request = RequestBuilder::new(r.clone(), s.clone())
        .collect_pairs(true)
        .trace(true)
        .build();
    let id = request.id;
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameType::Request, &request.encode()).unwrap();
    stream.write_all(&frame).unwrap();
    // Closing our side makes the server close the connection after the
    // reply, so reading to the end reads the whole reply and nothing else.
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = Recorded {
        inner: &mut stream,
        bytes: Vec::new(),
    };
    let mut trace = None;
    while let Some((frame_type, payload)) =
        read_frame(&mut reply, DEFAULT_MAX_PAYLOAD_BYTES).unwrap()
    {
        if frame_type == FrameType::Trace {
            trace = Some(WireTrace::decode(&payload).unwrap().trace);
        }
    }
    // Timings differ from run to run, so the trace is the one sent back.
    let trace = trace.expect("a traced reply ends with a Trace frame");

    let local = engine
        .submit(
            &JoinRequest::builder()
                .collect_results(true)
                .build()
                .unwrap(),
            &r,
            &s,
        )
        .unwrap();
    let pairs = local.pairs.unwrap();
    let chunks = pairs.len().div_ceil(chunk_pairs) as u32;
    assert!(chunks > 3, "the reply spans many chunks");
    let mut expected = Vec::new();
    let head = WireResponse {
        id,
        matches: local.matches,
        pair_count: pairs.len() as u64,
        chunks,
    };
    write_frame(&mut expected, FrameType::Response, &head.encode()).unwrap();
    for (seq, slice) in pairs.chunks(chunk_pairs).enumerate() {
        let chunk = WireChunk {
            id,
            seq: seq as u32,
            pairs: slice.to_vec(),
        };
        write_frame(&mut expected, FrameType::Chunk, &chunk.encode()).unwrap();
    }
    write_frame(
        &mut expected,
        FrameType::Done,
        &WireDone { id, chunks }.encode(),
    )
    .unwrap();
    write_frame(
        &mut expected,
        FrameType::Trace,
        &WireTrace { id, trace }.encode(),
    )
    .unwrap();
    assert_eq!(reply.bytes.len(), expected.len());
    assert!(reply.bytes == expected, "the reply's bytes changed");
}

// ---------------------------------------------------------------------------
// Protocol robustness: malformed bytes get a typed error and a clean close,
// never a panic or a hang.
// ---------------------------------------------------------------------------

/// Reads frames until the peer closes, returning the last error frame seen.
fn read_error_then_eof(stream: &mut TcpStream) -> Option<WireFailure> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut last = None;
    while let Ok(Some((frame_type, payload))) = read_frame(stream, 1 << 20) {
        if frame_type == FrameType::Error {
            last = Some(WireFailure::decode(&payload).unwrap());
        }
    }
    last
}

#[test]
fn garbage_bytes_get_a_typed_error_and_a_close() {
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
        ServerConfig::default(),
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // More than a full header's worth of bytes, none of them our magic.
    stream
        .write_all(b"GET /join HTTP/1.1\r\nHost: example\r\n\r\n")
        .unwrap();
    let failure = read_error_then_eof(&mut stream).expect("expected a typed protocol error");
    assert_eq!(failure.code, WireErrorCode::Protocol);
    assert_eq!(failure.id, 0);
    // The server survives and serves the next, well-behaved client.
    let (r, s) = test_pair(200);
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    assert!(client.join(RequestBuilder::new(r, s).build()).is_ok());
    assert_eq!(server.stats().protocol_errors, 1);
}

#[test]
fn torn_frame_is_rejected_cleanly() {
    let (r, s) = test_pair(200);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
        ServerConfig::default(),
    );
    let request = RequestBuilder::new(r, s).build();
    let mut bytes = Vec::new();
    write_frame(&mut bytes, FrameType::Request, &request.encode()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Send the header plus half the payload, then hang up mid-frame.
    stream.write_all(&bytes[..HEADER_BYTES + 40]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let failure = read_error_then_eof(&mut stream).expect("expected a typed protocol error");
    assert_eq!(failure.code, WireErrorCode::Protocol);
    assert!(failure.message.contains("torn"), "{}", failure.message);
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 256)).unwrap(),
        ServerConfig {
            max_frame_bytes: 4 * 1024,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A syntactically valid header claiming a 3 GiB payload.
    let mut header = Vec::new();
    write_frame(&mut header, FrameType::Request, b"x").unwrap();
    header.truncate(HEADER_BYTES);
    header[8..12].copy_from_slice(&(3u32 << 30).to_le_bytes());
    stream.write_all(&header).unwrap();
    let failure = read_error_then_eof(&mut stream).expect("expected a typed protocol error");
    assert_eq!(failure.code, WireErrorCode::Protocol);
    assert!(failure.message.contains("oversized"), "{}", failure.message);
}

#[test]
fn corrupt_checksum_is_rejected_with_a_typed_error() {
    let (r, s) = test_pair(200);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
        ServerConfig::default(),
    );
    let request = RequestBuilder::new(r, s).build();
    let mut bytes = Vec::new();
    write_frame(&mut bytes, FrameType::Request, &request.encode()).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff; // flip one payload bit past the checksum
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&bytes).unwrap();
    let failure = read_error_then_eof(&mut stream).expect("expected a typed protocol error");
    assert_eq!(failure.code, WireErrorCode::Protocol);
    assert!(failure.message.contains("checksum"), "{}", failure.message);
    assert_eq!(server.engine().load().in_flight, 0);
}

/// A peer from before the checksum change (protocol version 1, FNV-1a in
/// the checksum field) is told so: the version is checked before the
/// checksum, so its frames are never reported as corrupt.
#[test]
fn a_version_1_peer_gets_a_typed_version_error_not_corrupt() {
    let (r, s) = test_pair(200);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
        ServerConfig::default(),
    );
    let request = RequestBuilder::new(r.clone(), s.clone()).build();
    let mut bytes = Vec::new();
    write_frame(&mut bytes, FrameType::Request, &request.encode()).unwrap();
    bytes[4] = 1;
    bytes[12..20].copy_from_slice(&0xcbf2_9ce4_8422_2325u64.to_le_bytes());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&bytes).unwrap();
    let failure = read_error_then_eof(&mut stream).expect("expected a typed protocol error");
    assert_eq!(failure.code, WireErrorCode::Protocol);
    assert!(
        failure.message.contains("peer speaks v1"),
        "{}",
        failure.message
    );
    assert!(!failure.message.contains("checksum"), "{}", failure.message);
    assert_eq!(server.engine().load().in_flight, 0);
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    assert!(client.join(RequestBuilder::new(r, s).build()).is_ok());
}

#[test]
fn trailing_garbage_in_a_request_is_rejected() {
    let (r, s) = test_pair(200);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
        ServerConfig::default(),
    );
    let request = RequestBuilder::new(r, s).build();
    let mut payload = request.encode();
    payload.extend_from_slice(&[0xde, 0xad]);
    let mut bytes = Vec::new();
    write_frame(&mut bytes, FrameType::Request, &payload).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&bytes).unwrap();
    let failure = read_error_then_eof(&mut stream).expect("expected a typed protocol error");
    assert_eq!(failure.code, WireErrorCode::Protocol);
    assert!(failure.message.contains("trailing"), "{}", failure.message);
}

// ---------------------------------------------------------------------------
// Overload: typed sheds, never hangs or unexplained closes.
// ---------------------------------------------------------------------------

/// A backend whose executions block until the shared gate opens.
struct GatedSim {
    sys: SystemSpec,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedSim {
    fn pair(sessions: usize, queue_depth: usize) -> (Arc<(Mutex<bool>, Condvar)>, JoinEngine) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let engine = JoinEngine::new(
            Box::new(GatedSim {
                sys: SystemSpec::coupled_a8_3870k(),
                gate: Arc::clone(&gate),
            }),
            EngineConfig::for_tuples(1_024, 2_048)
                .sessions(sessions)
                .queue_depth(queue_depth),
        )
        .unwrap();
        (gate, engine)
    }

    fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }
}

/// Opens a [`GatedSim`] gate when dropped.
struct OpenOnDrop(Arc<(Mutex<bool>, Condvar)>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        GatedSim::open(&self.0);
    }
}

impl ExecBackend for GatedSim {
    fn name(&self) -> &'static str {
        "gated-sim"
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

#[test]
fn engine_saturation_is_a_typed_overloaded_reply() {
    let (gate, engine) = GatedSim::pair(1, 0);
    let server = start_server(engine, ServerConfig::default());
    let (r, s) = test_pair(200);

    // Occupy the single session through one connection...
    let addr = server.local_addr();
    let (r2, s2) = (r.clone(), s.clone());
    let holder = std::thread::spawn(move || {
        let mut client = JoinClient::connect(addr).unwrap();
        client.join(RequestBuilder::new(r2, s2).build())
    });
    while server.engine().load().in_flight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // ...then overload from another: the reply must be a typed shed with a
    // retry hint and the engine load snapshot, not a hang or a timeout.
    let mut client = JoinClient::connect_timeout(addr, Duration::from_secs(30)).unwrap();
    match client.join(RequestBuilder::new(r.clone(), s.clone()).build()) {
        Err(ClientError::Overloaded {
            reason,
            retry_after_ms,
            in_flight,
            ..
        }) => {
            assert_eq!(reason, ShedReason::Saturated);
            assert!(retry_after_ms >= 1);
            assert_eq!(in_flight, 1);
        }
        other => panic!("expected a typed Overloaded, got {other:?}"),
    }
    assert_eq!(server.stats().shed_saturated, 1);

    GatedSim::open(&gate);
    assert!(holder.join().unwrap().is_ok());
    // Drained: the same client is served on the same connection.
    assert!(client.join(RequestBuilder::new(r, s).build()).is_ok());
}

#[test]
fn quota_exhaustion_sheds_with_retry_after() {
    let (r, s) = test_pair(200);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
        ServerConfig::default().slo(SloConfig::default().quota(2.0, 1.0)),
    );
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    // Burst of 1: the first request is served...
    assert!(client
        .join(RequestBuilder::new(r.clone(), s.clone()).build())
        .is_ok());
    // ...and an immediate second is shed with Quota + a retry hint.
    match client.join(RequestBuilder::new(r.clone(), s.clone()).build()) {
        Err(ClientError::Overloaded {
            reason: ShedReason::Quota,
            retry_after_ms,
            ..
        }) => assert!((1..=1_000).contains(&retry_after_ms), "{retry_after_ms}"),
        other => panic!("expected a quota shed, got {other:?}"),
    }
    // A different connection (different client key) is unaffected.
    let mut other = JoinClient::connect(server.local_addr()).unwrap();
    assert!(other.join(RequestBuilder::new(r, s).build()).is_ok());
    let stats = server.stats();
    assert_eq!(stats.shed_quota, 1);
    assert_eq!(stats.requests_served, 2);
}

#[test]
fn unmeetable_deadlines_are_shed_not_timed_out() {
    let (r, s) = test_pair(2_000);
    // Seed the estimator with an absurd prior: 1 ms per tuple means any
    // millisecond-scale deadline on a 6000-tuple request is hopeless.
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(2_000, 4_000)).unwrap(),
        ServerConfig::default().slo(SloConfig::default().prior_ns_per_tuple(1e6)),
    );
    let mut client =
        JoinClient::connect_timeout(server.local_addr(), Duration::from_secs(30)).unwrap();
    match client.join(
        RequestBuilder::new(r.clone(), s.clone())
            .deadline_ms(5)
            .build(),
    ) {
        Err(ClientError::Overloaded {
            reason: ShedReason::Deadline,
            retry_after_ms,
            ..
        }) => assert!(retry_after_ms >= 1),
        other => panic!("expected a deadline shed, got {other:?}"),
    }
    // The same request without a deadline is served (and its measured
    // service time replaces the lying prior).
    assert!(client.join(RequestBuilder::new(r, s).build()).is_ok());
    assert_eq!(server.stats().shed_deadline, 1);
}

/// Sends `CLIENTS` requests, one per connection, while a gate holds every
/// session of a 2-session engine, against a 10 ms queue budget and a prior
/// of 10 µs per tuple: each 600-tuple request is charged 6 ms, so the
/// estimated wait (backlog / 2 sessions) crosses the budget after the
/// fourth admission and every later arrival must be shed with
/// `QueueBudget` — no engine queue fills, and no client waits for a
/// timeout.  Returns the served and shed counts after the gate opens.
fn queue_budget_burst(trace: bool) -> (u64, u64) {
    const CLIENTS: usize = 8;
    const SESSIONS: usize = 2;
    // Admitted while backlog / SESSIONS <= budget: 0, 6, 12, 18 ms.
    const ADMITTED: usize = 4;
    let (gate, engine) = GatedSim::pair(SESSIONS, CLIENTS);
    let server = start_server(
        engine,
        ServerConfig::default().slo(
            SloConfig::default()
                .prior_ns_per_tuple(1e4)
                .queue_budget_ms(10),
        ),
    );
    // Dropped before the server: a failed assertion must not leave the
    // server's shutdown waiting on sessions the gate still holds.
    let _open_on_exit = OpenOnDrop(Arc::clone(&gate));
    let addr = server.local_addr();
    let (r, s) = test_pair(200);

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (r, s) = (r.clone(), s.clone());
            std::thread::spawn(move || {
                let mut client =
                    JoinClient::connect_timeout(addr, Duration::from_secs(30)).unwrap();
                client.join(RequestBuilder::new(r, s).trace(trace).build())
            })
        })
        .collect();

    // Every request is decided while the gate is closed: shed, or holding
    // a session, or waiting in the engine queue.
    let decided = || {
        let load = server.engine().load();
        server.stats().requests_shed as usize + load.in_flight + load.queued
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while decided() < CLIENTS {
        assert!(
            Instant::now() < deadline,
            "only {} of {CLIENTS} requests were decided",
            decided()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let load = server.engine().load();
    assert_eq!(
        (load.in_flight, load.queued),
        (SESSIONS, ADMITTED - SESSIONS)
    );

    GatedSim::open(&gate);
    let (mut served, mut shed) = (0u64, 0u64);
    for handle in clients {
        match handle.join().unwrap() {
            Ok(outcome) => {
                assert_eq!(outcome.trace.is_some(), trace, "the trace is opt-in");
                served += 1;
            }
            Err(ClientError::Overloaded {
                reason: ShedReason::QueueBudget,
                retry_after_ms,
                ..
            }) => {
                assert!(retry_after_ms >= 1);
                shed += 1;
            }
            Err(other) => panic!("expected a reply or a queue-budget shed, got {other:?}"),
        }
    }
    assert_eq!(
        served + shed,
        CLIENTS as u64,
        "every request is accounted for"
    );
    assert_eq!(served, ADMITTED as u64);

    let stats = server.stats();
    assert_eq!(stats.requests_served, served, "{stats:?}");
    assert_eq!(stats.shed_queue_budget, shed, "{stats:?}");
    assert_eq!(stats.requests_shed, shed, "no other shed reason: {stats:?}");
    assert_eq!(stats.requests_failed, 0, "{stats:?}");
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    let metrics = server.engine().render_metrics();
    let row = format!("hj_server_sheds_total{{reason=\"queue-budget\"}} {shed}\n");
    assert!(metrics.contains(&row), "missing {row:?} in:\n{metrics}");
    assert_eq!(server.engine().load().in_flight, 0);
    (served, shed)
}

/// Overload past the queue budget is shed over the wire, typed and
/// accounted, never a client timeout; a traced burst sheds exactly what
/// an untraced one does.
#[test]
fn queue_budget_overload_is_shed_over_the_wire() {
    let untraced = queue_budget_burst(false);
    assert!(untraced.1 >= 1, "the burst must cross the queue budget");
    assert_eq!(
        queue_budget_burst(true),
        untraced,
        "tracing must add no sheds"
    );
}

/// Paced requests well below saturation keep their p99 latency, charged
/// from each request's due time, under 500 ms (release builds only: a
/// timing bound far wider than its spread — 1.3–10.6 ms over seven runs
/// on a 2-vCPU host).  Two clients each send an 8 Ki ⨝ 16 Ki join every
/// 5 ms to a 4-session native engine.
#[cfg(not(debug_assertions))]
#[test]
fn paced_requests_below_saturation_keep_p99_under_500_ms() {
    const MAX_P99_MS: f64 = 500.0;
    const CLIENTS: usize = 2;
    const REQUESTS: u32 = 50;
    const INTERVAL: Duration = Duration::from_millis(5);
    let (r, s) = test_pair(8 * 1024);
    let server = start_server(
        JoinEngine::native(
            EngineConfig::for_tuples(r.len(), s.len())
                .sessions(4)
                .queue_depth(256),
        )
        .unwrap(),
        ServerConfig::default().slo(SloConfig::default().queue_budget_ms(100)),
    );
    let addr = server.local_addr();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client =
                        JoinClient::connect_timeout(addr, Duration::from_secs(30)).unwrap();
                    let start = Instant::now();
                    (0..REQUESTS)
                        .map(|i| {
                            let due = start + INTERVAL * i;
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            client
                                .join(RequestBuilder::new(r.clone(), s.clone()).build())
                                .unwrap();
                            due.elapsed().as_secs_f64() * 1e3
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().unwrap())
            .collect()
    });
    assert_eq!(
        server.stats().requests_served,
        CLIENTS as u64 * u64::from(REQUESTS)
    );
    let p99 = exact_quantile(&mut latencies_ms, 0.99).unwrap();
    assert!(
        p99 <= MAX_P99_MS,
        "p99 {p99:.2} ms below saturation, above {MAX_P99_MS} ms"
    );
}

// ---------------------------------------------------------------------------
// Small count-only traffic
// ---------------------------------------------------------------------------

/// Many clients sending small count-only joins: every request takes the
/// direct submission path, the server's batch counters stay at zero, and
/// shutdown leaves no handler behind.
#[test]
fn small_count_only_requests_from_many_clients_take_the_direct_path() {
    let (r, s) = test_pair(400);
    let expected = reference_match_count(&r, &s);
    // Every client's join waits for a session rather than being shed.
    let engine = Arc::new(
        JoinEngine::coupled(
            EngineConfig::for_tuples(1_024, 2_048)
                .sessions(2)
                .queue_depth(6),
        )
        .unwrap(),
    );
    let mut server = JoinServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let (r, s) = (r.clone(), s.clone());
            std::thread::spawn(move || {
                let mut client = JoinClient::connect(addr).unwrap();
                let mut matches = Vec::new();
                for _ in 0..4 {
                    let out = client
                        .join(RequestBuilder::new(r.clone(), s.clone()).build())
                        .unwrap();
                    matches.push(out.matches);
                }
                matches
            })
        })
        .collect();
    for handle in clients {
        for matches in handle.join().unwrap() {
            assert_eq!(matches, expected);
        }
    }

    let stats = server.stats();
    assert_eq!(stats.requests_served, 24);
    assert_eq!(engine.stats().requests_served, 24);
    assert_eq!(stats.batches_dispatched, 0);
    assert_eq!(stats.batched_requests, 0);
    server.shutdown();
    assert_eq!(server.stats().live_handlers, 0);
}

// ---------------------------------------------------------------------------
// Table registry & hash-table cache over the wire
// ---------------------------------------------------------------------------

/// A registered table served by reference returns exactly the same pair
/// set as the same relations shipped inline, and repeat references hit the
/// engine's hash-table cache.
#[test]
fn table_ref_requests_match_inline_requests_and_hit_the_cache() {
    let (r, s) = test_pair(2_000);
    let engine =
        Arc::new(JoinEngine::native(EngineConfig::for_tuples(2_000, 4_000).sessions(2)).unwrap());
    let server = JoinServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();

    let ack = client.register_table("dim", r.clone()).unwrap();
    assert_eq!(ack.version, 1);
    assert_eq!(ack.tuples, r.len() as u64);

    let inline = client
        .join(
            RequestBuilder::new(r.clone(), s.clone())
                .collect_pairs(true)
                .build(),
        )
        .unwrap();
    let by_ref = client
        .join_ref(
            RefRequestBuilder::new("dim", s.clone())
                .collect_pairs(true)
                .build(),
        )
        .unwrap();
    assert_eq!(by_ref.matches, inline.matches);
    assert_eq!(
        by_ref.pairs, inline.pairs,
        "table_ref pairs must be byte-identical to the inline reply"
    );

    // A second reference probes the cached table without rebuilding.
    let again = client
        .join_ref(RefRequestBuilder::new("dim", s.clone()).build())
        .unwrap();
    assert_eq!(again.matches, inline.matches);
    let engine_stats = engine.stats();
    assert_eq!(engine_stats.registered_tables, 1);
    assert_eq!(engine_stats.cache.misses, 1);
    assert!(engine_stats.cache.hits >= 1, "{:?}", engine_stats.cache);

    // Re-registering the same name bumps the registry version.
    let ack = client.register_table("dim", r).unwrap();
    assert_eq!(ack.version, 2);

    let stats = server.stats();
    assert_eq!(stats.tables_registered, 2);
    assert_eq!(stats.ref_requests, 2);
}

/// Referencing a name the registry does not hold is a typed
/// `UnknownTable` failure, and the connection stays usable.
#[test]
fn unknown_table_is_a_typed_error_and_the_connection_survives() {
    let (r, s) = test_pair(400);
    let server = start_server(
        JoinEngine::native(EngineConfig::for_tuples(512, 1_024)).unwrap(),
        ServerConfig::default(),
    );
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    match client.join_ref(RefRequestBuilder::new("missing", s.clone()).build()) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, WireErrorCode::UnknownTable);
            assert!(message.contains("missing"), "{message}");
        }
        other => panic!("expected an UnknownTable failure, got {other:?}"),
    }
    // Same connection: register, then the reference succeeds.
    client.register_table("missing", r.clone()).unwrap();
    let outcome = client
        .join_ref(RefRequestBuilder::new("missing", s.clone()).build())
        .unwrap();
    assert_eq!(outcome.matches, reference_match_count(&r, &s));
    assert_eq!(server.stats().requests_failed, 1);
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

#[test]
fn shutdown_drains_in_flight_rejects_new_and_joins_all_threads() {
    let (gate, engine) = GatedSim::pair(1, 0);
    let mut server = start_server(engine, ServerConfig::default());
    let addr = server.local_addr();
    let (r, s) = test_pair(200);

    // One request in flight, held by the gate.
    let holder = std::thread::spawn(move || {
        let mut client = JoinClient::connect(addr).unwrap();
        client.join(RequestBuilder::new(r, s).build())
    });
    while server.engine().load().in_flight == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shut down concurrently; open the gate a moment later so shutdown is
    // observably draining (not just winning a race).
    let gate_opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        GatedSim::open(&gate);
    });
    server.shutdown();
    gate_opener.join().unwrap();

    // The in-flight request completed with a full reply.
    assert!(
        holder.join().unwrap().is_ok(),
        "shutdown must drain the in-flight request, not sever it"
    );
    // Every handler thread is gone.
    assert_eq!(server.stats().live_handlers, 0);
    // New connections are refused outright.
    let refused = JoinClient::connect(addr)
        .and_then(|mut c| {
            let (r2, s2) = test_pair(64);
            c.join(RequestBuilder::new(r2, s2).build())
        })
        .is_err();
    assert!(refused, "a shut-down server must not serve new connections");
    // Idempotent.
    server.shutdown();
}

#[test]
fn dropping_the_server_shuts_it_down() {
    let (r, s) = test_pair(200);
    let addr;
    {
        let server = start_server(
            JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
            ServerConfig::default(),
        );
        addr = server.local_addr();
        let mut client = JoinClient::connect(addr).unwrap();
        assert!(client
            .join(RequestBuilder::new(r.clone(), s.clone()).build())
            .is_ok());
    } // drop
    let refused = JoinClient::connect(addr)
        .and_then(|mut c| c.join(RequestBuilder::new(r, s).build()))
        .is_err();
    assert!(refused);
}

/// Requests served while a shutdown drains still produce correct replies
/// on an already-open connection.
#[test]
fn idle_connections_are_woken_and_closed_by_shutdown() {
    let mut server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(256, 512)).unwrap(),
        ServerConfig::default(),
    );
    let (r, s) = test_pair(200);
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    assert!(client
        .join(RequestBuilder::new(r.clone(), s.clone()).build())
        .is_ok());
    // The connection now idles in the server's read loop; shutdown must
    // not hang on it.
    server.shutdown();
    assert_eq!(server.stats().live_handlers, 0);
    // The closed connection surfaces as an error on the next use.
    assert!(client.join(RequestBuilder::new(r, s).build()).is_err());
}

// ---------------------------------------------------------------------------
// Observability over the wire: metrics exposition and per-join traces
// ---------------------------------------------------------------------------

/// `JoinClient::metrics` returns a Prometheus snapshot whose counters
/// reconcile exactly with `EngineStats` — both read the same registry
/// atomics — and includes the serving-layer families.
#[test]
fn wire_metrics_reconcile_with_engine_stats() {
    let (r, s) = test_pair(1_000);
    let engine =
        Arc::new(JoinEngine::coupled(EngineConfig::for_tuples(1_024, 2_048).sessions(2)).unwrap());
    let server = JoinServer::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        client
            .join(RequestBuilder::new(r.clone(), s.clone()).build())
            .unwrap();
    }

    let text = client.metrics().unwrap();
    let stats = engine.stats();
    let sample = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(sample("hj_engine_requests_served_total"), 3);
    assert_eq!(
        sample("hj_engine_requests_served_total"),
        stats.requests_served
    );
    assert_eq!(
        sample("hj_engine_arenas_created_total"),
        stats.arenas_created
    );
    // The serving layer registers its families into the same registry.
    assert!(
        text.contains("hj_server_frames_total{type=\"request\"}"),
        "server frame counters must ride the engine snapshot:\n{text}"
    );
    assert!(text.contains("hj_server_sheds_total{reason=\"deadline\"}"));
    // Histogram families render in exposition format.
    assert!(text.contains("hj_engine_queue_wait_ns_count"));
}

/// A traced wire join returns the same matches/pairs as an untraced one,
/// plus a non-empty flight recorder that renders; untraced requests never
/// see a Trace frame.
#[test]
fn traced_wire_joins_are_byte_identical_and_carry_a_trace() {
    let (r, s) = test_pair(1_500);
    let server = start_server(
        JoinEngine::coupled(EngineConfig::for_tuples(1_536, 3_072)).unwrap(),
        ServerConfig::default(),
    );
    let mut client = JoinClient::connect(server.local_addr()).unwrap();

    let plain = client
        .join(
            RequestBuilder::new(r.clone(), s.clone())
                .algorithm(WireAlgorithm::Phj)
                .collect_pairs(true)
                .build(),
        )
        .unwrap();
    assert!(plain.trace.is_none(), "untraced requests carry no trace");

    let traced = client
        .join(
            RequestBuilder::new(r.clone(), s.clone())
                .algorithm(WireAlgorithm::Phj)
                .collect_pairs(true)
                .trace(true)
                .build(),
        )
        .unwrap();
    assert_eq!(traced.matches, plain.matches);
    assert_eq!(
        traced.pairs, plain.pairs,
        "tracing must not change the join result"
    );
    let trace = traced.trace.expect("traced request must return a trace");
    assert!(!trace.spans.is_empty());
    let rendered = trace.render();
    assert!(rendered.contains("join"), "{rendered}");

    // Traced table-ref requests work the same way.
    client.register_table("dim", r.clone()).unwrap();
    let by_ref = client
        .join_ref(RefRequestBuilder::new("dim", s.clone()).trace(true).build())
        .unwrap();
    assert_eq!(by_ref.matches, plain.matches);
    assert!(by_ref.trace.is_some());
}
