//! The TCP front-end of the serving layer: accepting socket, connection
//! handlers, SLO-aware admission and graceful shutdown.
//!
//! The protocol/admission/client half lives a layer below in the
//! `hj-server` crate (re-exported as [`crate::server`]); this module owns
//! everything that needs the [`JoinEngine`]:
//!
//! * [`JoinServer::start`] binds a listener and serves each connection on
//!   its own thread, decoding [`WireRequest`]s into engine submissions and
//!   streaming collected pair sets back in bounded
//!   [`ServerConfig::chunk_pairs`] chunks;
//! * every request passes the [`AdmissionController`] first — per-client
//!   token buckets, the queue-time budget and deadline shedding — and a
//!   shed request is answered with a typed `Overloaded` frame carrying a
//!   retry hint and the engine load snapshot, never a timeout;
//! * a client may `Register` a named build table once and then send
//!   `TableRef` requests carrying only the probe side: the server resolves
//!   the name in the engine's table registry and submits on the probe-only
//!   hot path of the hash-table cache, so the build cost is paid once per
//!   table version instead of per request;
//! * the connection handler also answers two observability frames: a
//!   `Metrics` request returns the engine's metrics registry rendered as
//!   Prometheus text (never admission-controlled — observability keeps
//!   working exactly when joins are shed), and a request with the trace
//!   flag set gets its per-join flight recorder streamed as a `Trace`
//!   frame after `Done`;
//! * [`JoinServer::shutdown`] (also run on drop) stops accepting, lets
//!   every in-flight request finish, wakes idle connections and joins all
//!   threads — no request is abandoned mid-reply and no thread leaks.
//!
//! ```no_run
//! use hj_core::engine::{EngineConfig, JoinEngine};
//! use hj_core::{JoinServer, ServerConfig};
//! use hj_core::server::{JoinClient, RequestBuilder, WireAlgorithm};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(
//!     JoinEngine::native(EngineConfig::for_tuples(1 << 16, 1 << 17).sessions(4)).unwrap(),
//! );
//! let server = JoinServer::start(engine, ServerConfig::default()).unwrap();
//!
//! let (build, probe) = datagen::generate_pair(&datagen::DataGenConfig::small(4_096, 8_192));
//! let mut client = JoinClient::connect(server.local_addr()).unwrap();
//! let request = RequestBuilder::new(build, probe)
//!     .algorithm(WireAlgorithm::Phj)
//!     .collect_pairs(true)
//!     .deadline_ms(2_000)
//!     .build();
//! let outcome = client.join(request).unwrap();
//! println!("{} matches over the wire", outcome.matches);
//! ```

use crate::config::{Algorithm, Scheme};
use crate::engine::{JoinEngine, JoinRequest};
use crate::error::JoinError;
use crate::result::JoinOutcome;
use hj_analysis::sync::Mutex;
use hj_metrics::{AtomicHistogram, Counter, LatencyHistogram};
use hj_server::admission::{Admission, AdmissionController, SloConfig};
use hj_server::frame::{
    append_frame, read_frame_into, release_oversized, FrameType, WireError,
    DEFAULT_MAX_PAYLOAD_BYTES,
};
use hj_server::message::{
    ShedReason, WireChunk, WireDone, WireErrorCode, WireFailure, WireMetricsReply,
    WireMetricsRequest, WireOverloaded, WireRefRequest, WireRegister, WireRegistered, WireRequest,
    WireResponse, WireTrace,
};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and policy knobs of one [`JoinServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; the default `127.0.0.1:0` picks a free loopback port
    /// (read it back with [`JoinServer::local_addr`]).
    pub addr: String,
    /// Service-level objectives the admission controller enforces.
    pub slo: SloConfig,
    /// Ceiling on a single frame payload in either direction.
    pub max_frame_bytes: usize,
    /// Pairs per streamed chunk frame of a collected result.
    pub chunk_pairs: usize,
    /// Bind address of the HTTP observability listener (`GET /metrics`,
    /// `GET /health`, `GET /debug/slowlog`); `None` (the default) serves no
    /// HTTP.  Use `127.0.0.1:0` for a free loopback port and read it back
    /// with [`JoinServer::http_local_addr`].
    pub http_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            slo: SloConfig::default(),
            max_frame_bytes: DEFAULT_MAX_PAYLOAD_BYTES,
            chunk_pairs: 64 * 1024,
            http_addr: None,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the SLO / quota policy.
    pub fn slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }

    /// Enables the HTTP observability listener on `addr`.
    pub fn http_addr(mut self, addr: impl Into<String>) -> Self {
        self.http_addr = Some(addr.into());
        self
    }

    fn validate(&self) -> Result<(), JoinError> {
        if self.chunk_pairs == 0 {
            return Err(JoinError::InvalidConfig(
                "chunk_pairs must be at least 1".to_string(),
            ));
        }
        self.slo
            .validate()
            .map_err(|reason| JoinError::InvalidConfig(format!("invalid SLO config: {reason}")))
    }
}

/// Point-in-time counters of one [`JoinServer`] ([`JoinServer::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Connections refused because the server was shutting down.
    pub connections_refused: u64,
    /// Well-formed request frames received (inline and table-referencing).
    pub requests_received: u64,
    /// Table registrations acknowledged (re-registrations included).
    pub tables_registered: u64,
    /// Table-referencing requests among those received.
    pub ref_requests: u64,
    /// Requests served to a complete reply.
    pub requests_served: u64,
    /// Requests answered with a typed error frame.
    pub requests_failed: u64,
    /// Requests shed with an `Overloaded` frame, by any reason.
    pub requests_shed: u64,
    /// Sheds attributed to an unmeetable deadline.
    pub shed_deadline: u64,
    /// Sheds attributed to an exhausted per-client quota.
    pub shed_quota: u64,
    /// Sheds attributed to the server's queue-time budget.
    pub shed_queue_budget: u64,
    /// Sheds attributed to engine saturation (pool + admission queue full).
    pub shed_saturated: u64,
    /// Cross-client batches dispatched: always 0, since every request is
    /// submitted on its own.  Kept for readers of this counter.
    pub batches_dispatched: u64,
    /// Requests that rode inside cross-client batches: always 0, like
    /// [`batches_dispatched`](Self::batches_dispatched).
    pub batched_requests: u64,
    /// Connections dropped after a wire-protocol violation.
    pub protocol_errors: u64,
    /// Wall-clock from request-frame arrival to the last reply byte
    /// handed to the socket, for served requests.
    pub request_latency: LatencyHistogram,
    /// Connection handler threads currently alive (0 after shutdown).
    pub live_handlers: usize,
    /// HTTP requests served through the observability route table (any
    /// status, including a 503 `/health`).
    pub http_requests: u64,
    /// HTTP requests answered with a 4xx (bad verb, malformed or oversized
    /// request line, unknown or traversal path).
    pub http_bad_requests: u64,
}

/// Index into [`WireMetrics::frames`] for `Request` frames.
const FRAME_REQUEST: usize = 0;
/// Index into [`WireMetrics::frames`] for `Register` frames.
const FRAME_REGISTER: usize = 1;
/// Index into [`WireMetrics::frames`] for `TableRef` frames.
const FRAME_TABLE_REF: usize = 2;
/// Index into [`WireMetrics::frames`] for `Metrics` frames.
const FRAME_METRICS: usize = 3;

/// Serving-layer counters registered into the *engine's* metrics registry,
/// so one `Metrics` request (or [`JoinEngine::render_metrics`]) exposes the
/// engine and the serving layer in a single snapshot.  [`JoinServer::stats`]
/// reads its frame and shed counts from these same atoms.
struct WireMetrics {
    /// Sheds by [`ShedReason`], indexed by the reason's wire tag.
    sheds: [Arc<Counter>; 4],
    /// Well-formed client frames by type, indexed by the `FRAME_*` consts.
    frames: [Arc<Counter>; 4],
    /// HTTP scrapes served with a 200, by route, indexed like
    /// [`HTTP_ROUTES`].
    http: [Arc<Counter>; 3],
}

impl WireMetrics {
    fn register(registry: &hj_metrics::MetricsRegistry) -> Self {
        let shed = |reason: ShedReason| {
            registry.counter_with(
                "hj_server_sheds_total",
                &[("reason", reason.label().to_string())],
                "Requests shed by the serving layer, by shed reason",
            )
        };
        let frame = |kind: &str| {
            registry.counter_with(
                "hj_server_frames_total",
                &[("type", kind.to_string())],
                "Well-formed client frames received, by frame type",
            )
        };
        let http = |path: &str| {
            registry.counter_with(
                "hj_http_requests_total",
                &[("path", path.to_string())],
                "HTTP scrapes served with a 200, by route",
            )
        };
        WireMetrics {
            sheds: [
                shed(ShedReason::Deadline),
                shed(ShedReason::Quota),
                shed(ShedReason::QueueBudget),
                shed(ShedReason::Saturated),
            ],
            frames: [
                frame("request"),
                frame("register"),
                frame("table-ref"),
                frame("metrics"),
            ],
            http: [http("/metrics"), http("/health"), http("/debug/slowlog")],
        }
    }
}

struct ServerShared {
    engine: Arc<JoinEngine>,
    config: ServerConfig,
    admission: AdmissionController,
    started: Instant,
    /// `shutting_down` and `live_handlers` use `SeqCst` deliberately: they
    /// are control-flow flags on cold paths (accept loop, shutdown),
    /// where the strongest ordering costs
    /// nothing measurable and removes any reasoning burden.  The hot
    /// request path touches none of them.
    shutting_down: AtomicBool,
    live_handlers: AtomicUsize,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Per-connection stream clones, keyed by client id, used to wake idle
    /// read loops during shutdown.  Handlers deregister their entry on
    /// exit — that drop is also what delivers EOF to a peer the handler is
    /// done with, and it keeps the table from growing with connection
    /// churn.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    wire_metrics: WireMetrics,
    // The server's own counts: atoms no registry lists, read back by
    // `JoinServer::stats` like the registered atoms in `wire_metrics`.
    connections_accepted: Counter,
    connections_refused: Counter,
    requests_served: Counter,
    requests_failed: Counter,
    protocol_errors: Counter,
    request_latency: AtomicHistogram,
    http_requests: Counter,
    http_bad_requests: Counter,
}

impl ServerShared {
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// A running TCP join server (see the module docs).
pub struct JoinServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    listener_thread: Option<JoinHandle<()>>,
    /// The HTTP observability listener, when [`ServerConfig::http_addr`]
    /// enabled one.
    http_addr: Option<SocketAddr>,
    http_listener_thread: Option<JoinHandle<()>>,
    done: bool,
}

impl std::fmt::Debug for JoinServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinServer")
            .field("addr", &self.addr)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl JoinServer {
    /// Binds [`ServerConfig::addr`] and starts serving `engine` — the
    /// accept loop and one handler thread per connection all run in the background until
    /// [`shutdown`](Self::shutdown) (or drop).
    ///
    /// # Errors
    /// [`JoinError::InvalidConfig`] for invalid knobs or a bind failure.
    pub fn start(engine: Arc<JoinEngine>, config: ServerConfig) -> Result<JoinServer, JoinError> {
        config.validate()?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| JoinError::InvalidConfig(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener.local_addr().map_err(|e| {
            JoinError::InvalidConfig(format!("cannot resolve the bound address: {e}"))
        })?;
        let admission = AdmissionController::new(config.slo.clone(), engine.config().sessions)
            .map_err(|reason| JoinError::InvalidConfig(format!("invalid SLO config: {reason}")))?;
        let wire_metrics = WireMetrics::register(engine.metrics_registry());
        let shared = Arc::new(ServerShared {
            engine,
            config,
            admission,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            live_handlers: AtomicUsize::new(0),
            handlers: Mutex::new("serve.handlers", Vec::new()),
            conns: Mutex::new("serve.conns", Vec::new()),
            wire_metrics,
            connections_accepted: Counter::default(),
            connections_refused: Counter::default(),
            requests_served: Counter::default(),
            requests_failed: Counter::default(),
            protocol_errors: Counter::default(),
            request_latency: AtomicHistogram::default(),
            http_requests: Counter::default(),
            http_bad_requests: Counter::default(),
        });

        let listener_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hj-serve-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))
                .expect("spawn accept loop")
        };

        let (http_addr, http_listener_thread) = match &shared.config.http_addr {
            Some(bind) => {
                let http_listener = TcpListener::bind(bind).map_err(|e| {
                    JoinError::InvalidConfig(format!("cannot bind HTTP listener {bind}: {e}"))
                })?;
                let http_addr = http_listener.local_addr().map_err(|e| {
                    JoinError::InvalidConfig(format!("cannot resolve the HTTP address: {e}"))
                })?;
                let thread = {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name("hj-serve-http".to_string())
                        .spawn(move || http_accept_loop(&shared, http_listener))
                        .expect("spawn HTTP accept loop")
                };
                (Some(http_addr), Some(thread))
            }
            None => (None, None),
        };

        Ok(JoinServer {
            shared,
            addr,
            listener_thread: Some(listener_thread),
            http_addr,
            http_listener_thread,
            done: false,
        })
    }

    /// The address the server actually bound (resolves the `:0` port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address of the HTTP observability listener, when
    /// [`ServerConfig::http_addr`] enabled one.
    pub fn http_local_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        let wire = &self.shared.wire_metrics;
        let frames = wire.frames.each_ref().map(|counter| counter.get());
        let sheds = wire.sheds.each_ref().map(|counter| counter.get());
        let shared = &self.shared;
        ServerStats {
            connections_accepted: shared.connections_accepted.get(),
            connections_refused: shared.connections_refused.get(),
            requests_received: frames[FRAME_REQUEST] + frames[FRAME_TABLE_REF],
            tables_registered: frames[FRAME_REGISTER],
            ref_requests: frames[FRAME_TABLE_REF],
            requests_served: shared.requests_served.get(),
            requests_failed: shared.requests_failed.get(),
            requests_shed: sheds.iter().sum(),
            shed_deadline: sheds[ShedReason::Deadline as usize],
            shed_quota: sheds[ShedReason::Quota as usize],
            shed_queue_budget: sheds[ShedReason::QueueBudget as usize],
            shed_saturated: sheds[ShedReason::Saturated as usize],
            batches_dispatched: 0,
            batched_requests: 0,
            protocol_errors: shared.protocol_errors.get(),
            request_latency: shared.request_latency.snapshot(),
            live_handlers: shared.live_handlers.load(Ordering::SeqCst),
            http_requests: shared.http_requests.get(),
            http_bad_requests: shared.http_bad_requests.get(),
        }
    }

    /// The engine behind the server.
    pub fn engine(&self) -> &Arc<JoinEngine> {
        &self.shared.engine
    }

    /// Stops the server gracefully: no new connections are accepted,
    /// every in-flight request runs to a complete reply, idle connections
    /// are woken and closed, and every thread — accept loops and
    /// handlers — is joined before this returns.  Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);

        // Wake the accept loops with a throwaway connection each so they
        // observe the flag, then retire them — from here on the OS refuses
        // new connections outright (the listeners are closed).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.listener_thread.take() {
            let _ = handle.join();
        }
        if let Some(http_addr) = self.http_addr {
            let _ = TcpStream::connect(http_addr);
        }
        if let Some(handle) = self.http_listener_thread.take() {
            let _ = handle.join();
        }

        // Wake handlers parked in read_frame: shutting down the read side
        // delivers a clean EOF *between* frames, so a handler busy with a
        // request finishes writing its reply first and exits on the next
        // read.  In-flight work drains; idle connections close.
        for (_, stream) in self.shared.conns.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handlers: Vec<_> = self.shared.handlers.lock().drain(..).collect();
        for handle in handlers {
            let _ = handle.join();
        }
    }
}

impl Drop for JoinServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<ServerShared>, listener: TcpListener) {
    let mut next_client = 0u64;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The shutdown self-connect lands here too; real late arrivals
            // are refused by the close below and counted.
            shared.connections_refused.inc();
            drop(stream);
            break;
        }
        next_client += 1;
        let client_id = next_client;
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().push((client_id, clone));
        }
        shared.connections_accepted.inc();
        shared.live_handlers.fetch_add(1, Ordering::SeqCst);
        let handler_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("hj-serve-conn-{client_id}"))
            .spawn(move || {
                handle_connection(&handler_shared, stream, client_id);
                // Deregister (and thereby drop) the shutdown clone: with
                // both descriptors gone the peer sees EOF now, not at
                // server shutdown.
                handler_shared
                    .conns
                    .lock()
                    .retain(|(id, _)| *id != client_id);
                handler_shared.live_handlers.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn connection handler");
        shared.handlers.lock().push(handle);
    }
}

/// One client connection and the reply buffer it reuses for every frame
/// it sends, as long as the connection lives.
struct Connection {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl Connection {
    /// Sends a one-frame reply.
    fn send(
        &mut self,
        frame_type: FrameType,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WireError> {
        append_frame(&mut self.reply, frame_type, encode);
        self.write_reply()
    }

    /// Writes the frames the reply buffer holds in one call and empties
    /// the buffer, keeping its capacity.
    fn write_reply(&mut self) -> Result<(), WireError> {
        let written = self.stream.write_all(&self.reply);
        self.reply.clear();
        Ok(written?)
    }
}

/// Serves one connection's frames in order.  Every request frame is read
/// into one buffer and every reply encoded into another, both kept across
/// requests, so after warm-up a request allocates, zero-fills and faults
/// in no payload-sized buffer; either one left larger than
/// [`RETAINED_FRAME_BYTES`](hj_server::frame::RETAINED_FRAME_BYTES) by a
/// message is released after it.
fn handle_connection(shared: &Arc<ServerShared>, stream: TcpStream, client_id: u64) {
    let mut conn = Connection {
        stream,
        reply: Vec::new(),
    };
    let mut payload = Vec::new();
    loop {
        let frame = read_frame_into(
            &mut conn.stream,
            shared.config.max_frame_bytes,
            &mut payload,
        );
        let served = serve_frame(shared, &mut conn, client_id, frame, &payload);
        release_oversized(&mut payload);
        release_oversized(&mut conn.reply);
        if !served {
            return;
        }
    }
}

/// Answers one frame read by [`handle_connection`]; `false` ends the
/// connection (clean close, vanished peer or protocol violation).
fn serve_frame(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    client_id: u64,
    frame: Result<Option<FrameType>, WireError>,
    payload: &[u8],
) -> bool {
    let frame_type = match frame {
        Ok(Some(frame_type)) => frame_type,
        // A clean close between frames, or a peer that vanished or timed out.
        Ok(None) | Err(WireError::Io(_)) => return false,
        Err(err) => {
            close_on_protocol_error(shared, conn, &err);
            return false;
        }
    };
    let arrived = Instant::now();
    let replied = match frame_type {
        FrameType::Request => WireRequest::decode(payload)
            .map(|wire| handle_request(shared, conn, client_id, wire, arrived)),
        FrameType::Register => {
            WireRegister::decode(payload).map(|wire| handle_register(shared, conn, wire))
        }
        FrameType::TableRef => WireRefRequest::decode(payload)
            .map(|wire| handle_ref_request(shared, conn, client_id, wire, arrived)),
        FrameType::Metrics => {
            WireMetricsRequest::decode(payload).map(|wire| handle_metrics(shared, conn, wire))
        }
        other => Err(WireError::Protocol {
            detail: format!(
                "clients may only send Request, Register, TableRef or Metrics \
                 frames, got {other:?}"
            ),
        }),
    };
    match replied {
        // A failed reply write means the peer is gone mid-reply.
        Ok(written) => written.is_ok(),
        Err(err) => {
            close_on_protocol_error(shared, conn, &err);
            false
        }
    }
}

/// Reports a protocol violation best-effort (the peer may already be gone)
/// and lets the caller close the connection.
fn close_on_protocol_error(shared: &Arc<ServerShared>, conn: &mut Connection, err: &WireError) {
    shared.protocol_errors.inc();
    let failure = WireFailure {
        id: 0,
        code: WireErrorCode::Protocol,
        message: err.to_string(),
    };
    let _ = conn.send(FrameType::Error, |out| failure.encode_into(out));
}

// ---------------------------------------------------------------------------
// HTTP observability listener
// ---------------------------------------------------------------------------

/// High bit marking HTTP connection ids in `ServerShared::conns`, so they
/// can never collide with frame-protocol client ids.
const HTTP_CLIENT_BIT: u64 = 1 << 63;

/// Ceiling on an HTTP request line; anything longer gets a 414.
const HTTP_MAX_REQUEST_LINE: usize = 1024;

/// Ceiling on a whole request head; a head that never terminates inside
/// this many bytes is malformed (400) — a scraper cannot balloon memory.
const HTTP_MAX_HEAD_BYTES: usize = 8 * 1024;

/// One route handler of the observability listener: shared state in, a
/// complete response out.
type HttpHandler = fn(&Arc<ServerShared>) -> HttpResponse;

/// Builds one dispatch-table entry.  The `endpoint-path-literal` hj-lint
/// rule enforces that every call site passes a `&'static str` *literal* —
/// computed route paths never reach the table.
fn http_route(path: &'static str, handler: HttpHandler) -> (&'static str, HttpHandler) {
    (path, handler)
}

/// The observability listener's single dispatch table.
fn http_routes() -> [(&'static str, HttpHandler); 3] {
    [
        http_route("/metrics", http_metrics),
        http_route("/health", http_health),
        http_route("/debug/slowlog", http_slowlog),
    ]
}

/// One response of the observability listener, always `Connection: close`.
struct HttpResponse {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
}

impl HttpResponse {
    fn text(status: u16, reason: &'static str, body: String) -> HttpResponse {
        HttpResponse {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }
}

/// `GET /metrics`: the engine's whole registry (serving-layer families
/// included) as Prometheus exposition text, scrapable by stock Prometheus.
fn http_metrics(shared: &Arc<ServerShared>) -> HttpResponse {
    HttpResponse {
        status: 200,
        reason: "OK",
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        body: shared.engine.render_metrics(),
    }
}

/// `GET /health`: the latest [`hj_metrics::HealthReport`] as JSON — 200
/// while `Healthy`/`Degraded` (still serving), 503 once `Saturated`.
fn http_health(shared: &Arc<ServerShared>) -> HttpResponse {
    let report = shared.engine.health();
    let (status, reason) = if report.is_serving() {
        (200, "OK")
    } else {
        (503, "Service Unavailable")
    };
    HttpResponse {
        status,
        reason,
        content_type: "application/json",
        body: report.render_json(),
    }
}

/// `GET /debug/slowlog`: the slow-join log as a text dump, one header per
/// record followed by its rendered flight-recorder trace.
fn http_slowlog(shared: &Arc<ServerShared>) -> HttpResponse {
    HttpResponse::text(200, "OK", shared.engine.slow_log().render())
}

/// Accepts HTTP scrape connections, mirroring the frame server's accept
/// loop: handler threads register in `shared.handlers`, stream clones in
/// `shared.conns` (under [`HTTP_CLIENT_BIT`] ids), and shutdown wakes the
/// loop with a self-connect after flipping the flag.
fn http_accept_loop(shared: &Arc<ServerShared>, listener: TcpListener) {
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        if shared.shutting_down.load(Ordering::SeqCst) {
            shared.connections_refused.inc();
            drop(stream);
            break;
        }
        next_conn += 1;
        let conn_id = HTTP_CLIENT_BIT | next_conn;
        // Bound how long a silent scraper can pin its handler thread.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().push((conn_id, clone));
        }
        shared.live_handlers.fetch_add(1, Ordering::SeqCst);
        let handler_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("hj-serve-http-{next_conn}"))
            .spawn(move || {
                handle_http_connection(&handler_shared, stream);
                handler_shared.conns.lock().retain(|(id, _)| *id != conn_id);
                handler_shared.live_handlers.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn HTTP connection handler");
        shared.handlers.lock().push(handle);
    }
}

/// What reading a request head yielded.
enum HeadRead {
    /// A complete head (request line + headers), lossily decoded.
    Head(String),
    /// The head never terminated within [`HTTP_MAX_HEAD_BYTES`].
    TooLarge,
    /// The peer vanished (or timed out) before completing a head.
    Gone,
}

/// Reads one request head (through the blank line), bounded by
/// [`HTTP_MAX_HEAD_BYTES`].
fn read_http_head(stream: &mut TcpStream) -> HeadRead {
    use std::io::Read;
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        // Accept a bare-LF blank line too: hand-rolled probes send it.
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            return HeadRead::Head(String::from_utf8_lossy(&buf).into_owned());
        }
        if buf.len() > HTTP_MAX_HEAD_BYTES {
            return HeadRead::TooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return HeadRead::Gone,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

/// Validates the request line and extracts the path.  `Err` carries the
/// 4xx to answer with: bad verb → 405, oversized line → 414, traversal or
/// anything malformed → 400.
fn parse_http_request(head: &str) -> Result<&str, HttpResponse> {
    let line = head.lines().next().unwrap_or("");
    if line.len() > HTTP_MAX_REQUEST_LINE {
        return Err(HttpResponse::text(
            414,
            "URI Too Long",
            "request line too long\n".to_string(),
        ));
    }
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpResponse::text(
            400,
            "Bad Request",
            "malformed request line\n".to_string(),
        ));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpResponse::text(
            400,
            "Bad Request",
            "malformed request line\n".to_string(),
        ));
    }
    if method != "GET" {
        return Err(HttpResponse::text(
            405,
            "Method Not Allowed",
            format!("method {method} not allowed; only GET is served\n"),
        ));
    }
    let path = target.split('?').next().unwrap_or(target);
    if path.split('/').any(|segment| segment == "..") {
        return Err(HttpResponse::text(
            400,
            "Bad Request",
            "path traversal is not a thing here\n".to_string(),
        ));
    }
    Ok(path)
}

/// Serves exactly one request per connection (`Connection: close`): read
/// the head, dispatch through [`http_routes`], write the response.
/// Malformed input gets a clean 4xx and a close — never a panic or hang.
fn handle_http_connection(shared: &Arc<ServerShared>, mut stream: TcpStream) {
    let response = match read_http_head(&mut stream) {
        HeadRead::Gone => return,
        HeadRead::TooLarge => {
            HttpResponse::text(400, "Bad Request", "request head too large\n".to_string())
        }
        HeadRead::Head(head) => match parse_http_request(&head) {
            Err(response) => response,
            Ok(path) => {
                let routes = http_routes();
                match routes.iter().position(|(route, _)| *route == path) {
                    Some(i) => {
                        let response = (routes[i].1)(shared);
                        shared.wire_metrics.http[i].inc();
                        response
                    }
                    None => {
                        HttpResponse::text(404, "Not Found", format!("no such route: {path}\n"))
                    }
                }
            }
        },
    };
    if (400..500).contains(&response.status) {
        shared.http_bad_requests.inc();
    } else {
        shared.http_requests.inc();
    }
    write_http_response(&mut stream, &response);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Writes one complete HTTP/1.1 response, best-effort (the peer may have
/// gone away; errors only end this connection).
fn write_http_response(stream: &mut TcpStream, response: &HttpResponse) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len()
    );
    let mut w = BufWriter::new(stream);
    let _ = w.write_all(head.as_bytes());
    let _ = w.write_all(response.body.as_bytes());
    let _ = w.flush();
}

/// Serves one decoded inline request end to end.  `Err` means the
/// *connection* is dead (a reply write failed); request-level failures are
/// replied to and return `Ok`.
fn handle_request(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    client_id: u64,
    wire: WireRequest,
    arrived: Instant,
) -> Result<(), WireError> {
    shared.wire_metrics.frames[FRAME_REQUEST].inc();
    let frame = JoinFrame {
        id: wire.id,
        tuples: wire.build.len() + wire.probe.len(),
        deadline_ms: wire.deadline_ms,
        priority: wire.priority,
        collect_pairs: wire.collect_pairs,
        request: engine_request(wire.algorithm, wire.scheme, wire.collect_pairs, wire.trace),
    };
    serve_join(
        shared,
        conn,
        client_id,
        frame,
        arrived,
        |engine, request| engine.submit(request, &wire.build, &wire.probe),
    )
}

/// Serves one table registration.  Registration ships data but runs no
/// join, so it bypasses SLO admission; the reply is a `Registered`
/// acknowledgement carrying the registry version the engine assigned.
fn handle_register(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    register: WireRegister,
) -> Result<(), WireError> {
    let handle = shared
        .engine
        .register_table(&register.name, register.tuples);
    shared.wire_metrics.frames[FRAME_REGISTER].inc();
    let ack = WireRegistered {
        id: register.id,
        version: handle.version(),
        tuples: handle.tuples().len() as u64,
    };
    conn.send(FrameType::Registered, |out| ack.encode_into(out))
}

/// Serves one metrics snapshot.  Observability deliberately bypasses
/// admission control: the snapshot must stay readable exactly when the
/// server is saturated and shedding join traffic.
fn handle_metrics(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    request: WireMetricsRequest,
) -> Result<(), WireError> {
    shared.wire_metrics.frames[FRAME_METRICS].inc();
    let reply = WireMetricsReply {
        id: request.id,
        text: shared.engine.render_metrics(),
    };
    conn.send(FrameType::MetricsReply, |out| reply.encode_into(out))
}

/// Serves one table-referencing request end to end, like
/// [`handle_request`] but resolving the build side in the engine's table
/// registry and submitting on the cached, probe-only path.
fn handle_ref_request(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    client_id: u64,
    wire: WireRefRequest,
    arrived: Instant,
) -> Result<(), WireError> {
    shared.wire_metrics.frames[FRAME_TABLE_REF].inc();
    let Some(table) = shared.engine.table(&wire.table) else {
        shared.requests_failed.inc();
        let failure = WireFailure {
            id: wire.id,
            code: WireErrorCode::UnknownTable,
            message: format!("no registered table named '{}'", wire.table),
        };
        return conn.send(FrameType::Error, |out| failure.encode_into(out));
    };
    // On the hot path only the probe side is new work, so the admission
    // estimate sees the probe cardinality; the one-off cold build is
    // absorbed by the service-time EWMA like any slow first request.
    let frame = JoinFrame {
        id: wire.id,
        tuples: wire.probe.len(),
        deadline_ms: wire.deadline_ms,
        priority: wire.priority,
        collect_pairs: wire.collect_pairs,
        request: engine_request(wire.algorithm, wire.scheme, wire.collect_pairs, wire.trace),
    };
    serve_join(
        shared,
        conn,
        client_id,
        frame,
        arrived,
        |engine, request| engine.submit_cached(request, &table, &wire.probe),
    )
}

/// What the shared serving path reads from a join frame, inline or
/// table-referencing.
struct JoinFrame {
    id: u64,
    /// Tuples the admission estimate is charged for.
    tuples: usize,
    deadline_ms: u32,
    priority: u8,
    collect_pairs: bool,
    /// The engine request the frame's tags map to.
    request: Result<JoinRequest, JoinError>,
}

/// The serving path every join frame shares: SLO admission, the engine
/// request, a guarded submission, the admission verdict and the reply.
fn serve_join(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    client_id: u64,
    frame: JoinFrame,
    arrived: Instant,
    submit: impl FnOnce(&JoinEngine, &JoinRequest) -> Result<JoinOutcome, JoinError>,
) -> Result<(), WireError> {
    let now_ns = shared.now_ns();
    let ticket = match shared.admission.admit(
        client_id,
        frame.tuples,
        frame.deadline_ms,
        frame.priority,
        now_ns,
    ) {
        Admission::Admit(ticket) => ticket,
        Admission::Shed {
            reason,
            retry_after_ms,
        } => {
            return write_overloaded(shared, conn, frame.id, reason, retry_after_ms);
        }
    };
    let request = match frame.request {
        Ok(request) => request,
        Err(err) => {
            shared.admission.abandon(ticket);
            return write_failure(shared, conn, frame.id, &err);
        }
    };
    let started = Instant::now();
    let result = submit_guarded(|| submit(&shared.engine, &request));
    match &result {
        // The backlog already prices the wait for a session (it divides by
        // the session count), so the estimator learns service time only.
        Ok(outcome) => {
            let elapsed_ns = started.elapsed().as_nanos() as u64;
            let service_ns = elapsed_ns.saturating_sub(outcome.queue_wait_ns);
            shared.admission.complete(ticket, service_ns);
        }
        Err(_) => shared.admission.abandon(ticket),
    }
    finish_request(shared, conn, frame.id, frame.collect_pairs, result, arrived)
}

/// Runs one submission, downgrading an engine panic to a typed error so a
/// poisoned request cannot kill its connection handler.
fn submit_guarded(
    submit: impl FnOnce() -> Result<JoinOutcome, JoinError>,
) -> Result<JoinOutcome, JoinError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(submit)).unwrap_or_else(|_| {
        Err(JoinError::InvalidConfig(
            "the engine panicked while executing this request".to_string(),
        ))
    })
}

/// Writes the reply for a settled submission: the full response stream on
/// success, an `Overloaded` frame for engine saturation, a typed error
/// frame otherwise.
fn finish_request(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    id: u64,
    sent_pairs: bool,
    result: Result<JoinOutcome, JoinError>,
    arrived: Instant,
) -> Result<(), WireError> {
    match result {
        Ok(outcome) => {
            // Count before the reply hits the socket: once the client can
            // observe its response, a stats snapshot must already include
            // the request (latency therefore measures arrival → settled,
            // excluding reply serialisation).
            shared.requests_served.inc();
            shared
                .request_latency
                .record(arrived.elapsed().as_nanos() as u64);
            write_outcome(shared, conn, id, sent_pairs, &outcome)?;
            Ok(())
        }
        Err(JoinError::Saturated { .. }) => write_overloaded(
            shared,
            conn,
            id,
            ShedReason::Saturated,
            shared.admission.estimated_wait_ms(),
        ),
        Err(err) => write_failure(shared, conn, id, &err),
    }
}

/// Maps wire tags onto an engine request.  The tags are versioned protocol
/// surface; the presets they select can evolve with the engine.
fn engine_request(
    algorithm: hj_server::message::WireAlgorithm,
    scheme: hj_server::message::WireScheme,
    collect_pairs: bool,
    trace: bool,
) -> Result<JoinRequest, JoinError> {
    use hj_server::message::{WireAlgorithm, WireScheme};
    let algorithm = match algorithm {
        WireAlgorithm::Shj => Algorithm::Simple,
        WireAlgorithm::Phj => Algorithm::partitioned_auto(),
    };
    let scheme = match scheme {
        WireScheme::CpuOnly => Scheme::CpuOnly,
        WireScheme::GpuOnly => Scheme::GpuOnly,
        WireScheme::Offload => Scheme::offload_gpu(),
        WireScheme::DataDividing => Scheme::data_dividing_paper(),
        WireScheme::Pipelined => Scheme::pipelined_paper(),
    };
    JoinRequest::builder()
        .algorithm(algorithm)
        .scheme(scheme)
        .collect_results(collect_pairs)
        .trace(trace)
        .build()
}

/// Streams a successful reply through the connection's reply buffer: one
/// write per chunk frame, the head riding with the first chunk and `Done`
/// (and `Trace`) with the last, so the buffer never holds more than one
/// chunk's pairs.
fn write_outcome(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    id: u64,
    sent_pairs: bool,
    outcome: &JoinOutcome,
) -> Result<(), WireError> {
    let pairs: &[(u32, u32)] = if sent_pairs {
        outcome.pairs.as_deref().unwrap_or(&[])
    } else {
        &[]
    };
    let chunk_pairs = shared.config.chunk_pairs;
    let chunks = pairs.len().div_ceil(chunk_pairs) as u32;
    let head = WireResponse {
        id,
        matches: outcome.matches,
        pair_count: pairs.len() as u64,
        chunks,
    };
    append_frame(&mut conn.reply, FrameType::Response, |out| {
        head.encode_into(out)
    });
    for (seq, slice) in pairs.chunks(chunk_pairs).enumerate() {
        let seq = seq as u32;
        append_frame(&mut conn.reply, FrameType::Chunk, |out| {
            WireChunk::encode_pairs_into(id, seq, slice, out)
        });
        if seq + 1 < chunks {
            conn.write_reply()?;
        }
    }
    append_frame(&mut conn.reply, FrameType::Done, |out| {
        WireDone { id, chunks }.encode_into(out)
    });
    // The flight recorder rides *after* `Done`, so a client that never
    // asked for a trace never has to know the frame exists.
    if let Some(trace) = &outcome.trace {
        let wire = WireTrace {
            id,
            trace: trace.clone(),
        };
        append_frame(&mut conn.reply, FrameType::Trace, |out| {
            wire.encode_into(out)
        });
    }
    conn.write_reply()
}

fn write_overloaded(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    id: u64,
    reason: ShedReason,
    retry_after_ms: u32,
) -> Result<(), WireError> {
    shared.wire_metrics.sheds[reason as usize].inc();
    let load = shared.engine.load();
    let notice = WireOverloaded {
        id,
        reason,
        retry_after_ms,
        in_flight: load.in_flight as u32,
        queued: load.queued as u32,
    };
    conn.send(FrameType::Overloaded, |out| notice.encode_into(out))
}

fn write_failure(
    shared: &Arc<ServerShared>,
    conn: &mut Connection,
    id: u64,
    err: &JoinError,
) -> Result<(), WireError> {
    shared.requests_failed.inc();
    let code = match err {
        JoinError::OversizedInput { .. } => WireErrorCode::Oversized,
        JoinError::ArenaExhausted { .. }
        | JoinError::Spill(_)
        | JoinError::CacheBuildFailed { .. } => WireErrorCode::Execution,
        JoinError::InvalidConfig(reason) if reason.contains("panicked") => WireErrorCode::Internal,
        _ => WireErrorCode::InvalidRequest,
    };
    let failure = WireFailure {
        id,
        code,
        message: err.to_string(),
    };
    conn.send(FrameType::Error, |out| failure.encode_into(out))
}
