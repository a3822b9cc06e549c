//! The two workloads over TCP: `wire_closed` (service capacity) and
//! `wire_open` (independent arrivals at a fixed rate).

use crate::load::{closed_loop, open_loop, PassLog, Recorder, MAX_CLIENTS};
use crate::metrics::Report;
use crate::probe::{self, EngineCounters};
use crate::stats::{median, quantile, sorted};
use crate::{ms_since, schedule, Workload};
use coupled_hashjoin::datagen::{generate_pair, DataGenConfig, Relation};
use coupled_hashjoin::hj_core::server::{
    read_frame, write_frame, AdmissionController, FrameType, JoinClient, RequestBuilder, SloConfig,
    WireChunk, WireDone, WireRequest, WireResponse, DEFAULT_MAX_PAYLOAD_BYTES, HEADER_BYTES,
};
use coupled_hashjoin::hj_core::{
    reference_pairs, EngineConfig, JoinEngine, JoinRequest, JoinServer, NativeCpu, ServerConfig,
    ServerStats,
};
use coupled_hashjoin::prelude::Phase;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const BUILD_TUPLES: usize = 8 * 1024;
const PROBE_TUPLES: usize = 16 * 1024;

/// Offered load of `wire_open`, requests per second over all senders.
/// Absolute, not relative to a measured saturation, so a parent commit and
/// a change face the same load.
const OPEN_RATE_PER_S: f64 = 250.0;

/// Latency limit of `wire_open`, from a request's due time.
const SLO_MS: f64 = 25.0;

const WARMUP_OPS: usize = 8;

pub struct Wire {
    server: JoinServer,
    addr: SocketAddr,
    build: Relation,
    probe: Relation,
    expected_pairs: Vec<(u32, u32)>,
    open: bool,
    seed: u64,
    passes: u64,
    counters: (EngineCounters, EngineCounters),
    served: (ServerStats, ServerStats),
}

impl Wire {
    pub fn setup(name: &str, seed: u64, report: &mut Report) -> Wire {
        let started = Instant::now();
        let (build, probe) =
            generate_pair(&DataGenConfig::small(BUILD_TUPLES, PROBE_TUPLES).with_seed(seed));
        report.set_n("datagen.generate_ms", ms_since(started), 1);
        let expected_pairs = reference_pairs(&build, &probe);

        let started = Instant::now();
        let engine = JoinEngine::new(
            Box::new(NativeCpu::new()),
            EngineConfig::for_tuples(build.len(), probe.len()).sessions(2),
        )
        .expect("valid engine config");
        report.set_n("engine.new_ms", ms_since(started), 1);
        let started = Instant::now();
        let server = JoinServer::start(Arc::new(engine), ServerConfig::default())
            .expect("server binds a loopback port");
        report.set_n("serve.start_ms", ms_since(started), 1);
        let addr = server.local_addr();

        let started = Instant::now();
        let mut client = JoinClient::connect(addr).expect("loopback connect");
        report.set_n("serve.connect_us", ms_since(started) * 1e3, 1);
        let workload = Wire {
            server,
            addr,
            build,
            probe,
            expected_pairs,
            open: name == "wire_open",
            seed,
            passes: 0,
            counters: Default::default(),
            served: Default::default(),
        };
        // The first reply is checked pair by pair; later ones by count.
        match client.join(workload.request()) {
            Ok(mut outcome) => {
                outcome.pairs.sort_unstable();
                if outcome.pairs != workload.expected_pairs {
                    report
                        .invalid
                        .push("first reply's pair list differs from the oracle's".into());
                }
            }
            Err(error) => report
                .invalid
                .push(format!("warm-up request failed: {error}")),
        }
        for _ in 1..WARMUP_OPS {
            if !workload.op(&mut client, None) {
                report.invalid.push("a warm-up request failed".into());
            }
        }
        workload
    }

    /// The relation clone and `RequestBuilder::build` every request pays.
    fn request(&self) -> WireRequest {
        RequestBuilder::new(self.build.clone(), self.probe.clone())
            .collect_pairs(true)
            .build()
    }

    fn op(&self, client: &mut JoinClient, rec: Option<&mut Recorder>) -> bool {
        let prepared = Instant::now();
        let request = self.request();
        let start = Instant::now();
        let result = client.join(request);
        let end = Instant::now();
        if let Some(rec) = rec {
            rec.span("client.build_request", prepared, start, None);
            rec.span("client.join", start, end, None);
        }
        let expected = self.expected_pairs.len();
        matches!(result, Ok(o) if o.matches == expected as u64 && o.pairs.len() == expected)
    }
}

impl Workload for Wire {
    fn run(&mut self, seconds: f64, traced: bool) -> PassLog {
        let clients: Vec<JoinClient> = (0..MAX_CLIENTS)
            .map(|_| JoinClient::connect(self.addr).expect("loopback connect"))
            .collect();
        self.passes += 1;
        let before = (
            EngineCounters::read(self.server.engine()),
            self.server.stats(),
        );
        let op = |client: &mut JoinClient, rec: &mut Recorder| self.op(client, Some(rec));
        let (log, _) = if self.open {
            // Fixed by the seed before the window starts; each pass of a
            // run gets its own arrival pattern.
            let schedules: Vec<Vec<u64>> = (0..MAX_CLIENTS)
                .map(|sender| {
                    schedule::arrivals(
                        self.seed.wrapping_add(self.passes << 32),
                        sender,
                        OPEN_RATE_PER_S / MAX_CLIENTS as f64,
                        seconds,
                    )
                })
                .collect();
            open_loop(clients, &schedules, seconds, traced, op)
        } else {
            closed_loop(clients, seconds, traced, op)
        };
        let after = (
            EngineCounters::read(self.server.engine()),
            self.server.stats(),
        );
        self.counters = (before.0, after.0);
        self.served = (before.1, after.1);
        log
    }

    fn end_to_end(&self, window: &PassLog, report: &mut Report) {
        if !self.open {
            return;
        }
        let within = window.latency_ms.iter().filter(|&&ms| ms <= SLO_MS).count();
        report.set_n(
            "within_slo_pct",
            within as f64 * 100.0 / window.attempted.max(1) as f64,
            window.attempted,
        );
        // A generator that ran late for reasons of its own measured itself,
        // not the server.
        let late_p99 = quantile(&sorted(window.late_ms.clone()), 0.99);
        let received = self.served.1.requests_received - self.served.0.requests_received;
        if late_p99 > SLO_MS && received < window.attempted {
            report.invalid.push(format!(
                "generator ran {late_p99:.1} ms late at p99 and the server saw {received} of {} requests",
                window.attempted
            ));
        }
    }

    fn layers(&mut self, traced: &PassLog, report: &mut Report) {
        let roundtrips: Vec<f64> = traced
            .spans
            .iter()
            .filter(|span| span.name == "client.join")
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect();
        let joins = roundtrips.len() as u64;
        let roundtrip_p50 = median(&roundtrips);
        report.set_n("serve.roundtrip_ms_p50", roundtrip_p50, joins);
        probe::engine_layers(self.server.engine(), &self.counters, joins, report);
        probe::dispatch_layer(self.server.engine(), report);

        let (before, after) = &self.served;
        let delta = |field: fn(&ServerStats) -> u64| (field(after) - field(before)) as f64;
        report.set("admission.shed_deadline", delta(|s| s.shed_deadline));
        report.set("admission.shed_quota", delta(|s| s.shed_quota));
        report.set(
            "admission.shed_queue_budget",
            delta(|s| s.shed_queue_budget),
        );
        report.set("admission.shed_saturated", delta(|s| s.shed_saturated));
        report.set("admission.batches", delta(|s| s.batches_dispatched));
        report.set("admission.batched_requests", delta(|s| s.batched_requests));

        self.in_process_twin(roundtrip_p50, report);
        self.codec(report);
        admission_cost(report);
    }
}

impl Wire {
    /// The identical request submitted in-process on the server's own
    /// engine: what the join costs without the wire, and where its time
    /// goes.
    fn in_process_twin(&self, roundtrip_p50: f64, report: &mut Report) {
        const SUBMITS: usize = 101;
        let request = JoinRequest::builder()
            .collect_results(true)
            .build()
            .expect("valid join request");
        let (mut wall, mut build, mut probe) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SUBMITS {
            let started = Instant::now();
            let outcome = self
                .server
                .engine()
                .submit(&request, &self.build, &self.probe)
                .expect("in-process twin of the wire request");
            wall.push(ms_since(started));
            build.push(outcome.breakdown.get(Phase::Build).as_ms());
            probe.push(outcome.breakdown.get(Phase::Probe).as_ms());
            assert_eq!(outcome.matches, self.expected_pairs.len() as u64);
        }
        let n = SUBMITS as u64;
        let mean = crate::stats::mean;
        report.set_n("engine.submit_ms_mean", mean(&wall), n);
        report.set_n("kernel.build_ms", mean(&build), n);
        report.set_n("kernel.probe_ms", mean(&probe), n);
        report.set_n(
            "engine.unattributed_ms",
            mean(&wall) - mean(&build) - mean(&probe),
            n,
        );
        report.set_n(
            "kernel.build_ns_per_tuple",
            mean(&build) * 1e6 / self.build.len() as f64,
            n,
        );
        report.set_n(
            "kernel.probe_ns_per_tuple",
            mean(&probe) * 1e6 / self.probe.len() as f64,
            n,
        );
        report.set_n("serve.wire_overhead_ms", roundtrip_p50 - median(&wall), n);
    }

    /// Encode, decode and framing of this workload's own request and
    /// reply, to and from memory.
    fn codec(&self, report: &mut Report) {
        const CODEC_CALLS: usize = 51;
        let request = self.request();
        let request_bytes = request.encode();
        let chunk = WireChunk {
            id: 1,
            seq: 0,
            pairs: self.expected_pairs.clone(),
        };
        let chunk_bytes = chunk.encode();
        let mut framed = Vec::with_capacity(HEADER_BYTES + chunk_bytes.len());
        write_frame(&mut framed, FrameType::Chunk, &chunk_bytes).expect("frame to memory");

        probe::median_us(report, "message.request_encode_us", CODEC_CALLS, || {
            request.encode().len()
        });
        probe::median_us(report, "message.request_decode_us", CODEC_CALLS, || {
            WireRequest::decode(&request_bytes)
                .expect("own encoding")
                .build
                .len()
        });
        probe::median_us(report, "message.chunk_encode_us", CODEC_CALLS, || {
            chunk.encode().len()
        });
        probe::median_us(report, "message.chunk_decode_us", CODEC_CALLS, || {
            WireChunk::decode(&chunk_bytes)
                .expect("own encoding")
                .pairs
                .len()
        });
        probe::median_us(report, "frame.write_us", CODEC_CALLS, || {
            let mut sink = Vec::with_capacity(framed.len());
            write_frame(&mut sink, FrameType::Chunk, &chunk_bytes).expect("frame to memory");
            sink.len()
        });
        probe::median_us(report, "frame.read_us", CODEC_CALLS, || {
            let frame = read_frame(&mut framed.as_slice(), DEFAULT_MAX_PAYLOAD_BYTES);
            frame.expect("own frame").expect("one frame").1.len()
        });

        let pairs = self.expected_pairs.len() as u64;
        let head = WireResponse {
            id: 1,
            matches: pairs,
            pair_count: pairs,
            chunks: 1,
        };
        let done = WireDone { id: 1, chunks: 1 };
        report.set(
            "wire.request_bytes",
            (HEADER_BYTES + request_bytes.len()) as f64,
        );
        report.set(
            "wire.reply_bytes",
            (3 * HEADER_BYTES + head.encode().len() + chunk_bytes.len() + done.encode().len())
                as f64,
        );
    }
}

/// Admit-then-complete on a private controller with the server's default
/// policy: the admission layer's own cost per request.
fn admission_cost(report: &mut Report) {
    use coupled_hashjoin::hj_core::server::Admission;
    const CALLS: u64 = 20_000;
    let controller = AdmissionController::new(SloConfig::default(), 2).expect("default SLO config");
    let started = Instant::now();
    for call in 0..CALLS {
        match controller.admit(call % 2, BUILD_TUPLES + PROBE_TUPLES, 0, 0, call * 1_000) {
            Admission::Admit(ticket) => controller.complete(ticket, 3_000_000),
            Admission::Shed { .. } => unreachable!("the default policy sheds nothing"),
        }
    }
    let ns = started.elapsed().as_nanos() as f64 / CALLS as f64;
    report.set_n("admission.admit_complete_ns", ns, CALLS);
}
