//! engine-top: a `top`-like live view of a running join server, built
//! entirely on the exported metrics — no shared memory with the server.
//!
//! ```text
//! # terminal 1
//! cargo run --release --example serve
//! # terminal 2
//! cargo run --release --example engine_top
//! cargo run --release --example engine_top -- --http   # scrape GET /metrics
//! HJ_TOP_ADDR=host:port HJ_TOP_TICKS=20 cargo run --release --example engine_top
//! HJ_TOP_HTTP_ADDR=host:port cargo run --release --example engine_top -- --http
//! ```
//!
//! By default the dashboard reads the wire metrics frame over the join
//! protocol; with `--http` it polls the server's HTTP exposition
//! endpoint (`GET /metrics`, default `127.0.0.1:7641`) instead — the
//! same Prometheus text either way.  If no server is listening, the
//! example starts one in-process and drives it with a background
//! workload so the dashboard always has something to show.

use coupled_hashjoin::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Parse the Prometheus text format into `name{labels} -> value`,
/// skipping `# HELP`/`# TYPE` comments and non-numeric samples.
fn parse_samples(text: &str) -> HashMap<String, f64> {
    let mut samples = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(value) = value.parse::<f64>() {
                samples.insert(key.to_string(), value);
            }
        }
    }
    samples
}

fn metric(samples: &HashMap<String, f64>, key: &str) -> f64 {
    samples.get(key).copied().unwrap_or(0.0)
}

/// Where the dashboard reads its samples from: the join protocol's
/// metrics frame, or the HTTP exposition endpoint.
enum Source {
    Frame(JoinClient),
    Http(String),
}

impl Source {
    fn fetch(&mut self) -> String {
        match self {
            Source::Frame(client) => client.metrics().expect("metrics frame"),
            Source::Http(addr) => http_metrics(addr).expect("GET /metrics"),
        }
    }
}

/// One `GET /metrics` scrape: the Prometheus text body, or an error
/// string describing what went wrong.
fn http_metrics(addr: &str) -> Result<String, String> {
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: engine-top\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    if !text.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "unexpected status: {}",
            text.lines().next().unwrap_or("<empty>")
        ));
    }
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .ok_or_else(|| "no body".to_string())
}

fn main() {
    let http_mode = std::env::args().any(|arg| arg == "--http");
    let addr = std::env::var("HJ_TOP_ADDR").unwrap_or_else(|_| "127.0.0.1:7644".to_string());
    let http_addr =
        std::env::var("HJ_TOP_HTTP_ADDR").unwrap_or_else(|_| "127.0.0.1:7641".to_string());
    let ticks: usize = std::env::var("HJ_TOP_TICKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);

    // Try the configured address first; fall back to an in-process server
    // with a demo workload so the example is self-contained.
    let mut demo = None;
    let mut source = if http_mode {
        match http_metrics(&http_addr) {
            Ok(_) => Source::Http(http_addr),
            Err(_) => {
                let (server, stop, worker) = start_demo_server();
                let local = server
                    .http_local_addr()
                    .expect("demo server exposes HTTP")
                    .to_string();
                println!("no server on {http_addr}; started one in-process with a demo workload\n");
                demo = Some((server, stop, worker));
                Source::Http(local)
            }
        }
    } else {
        match JoinClient::connect(&addr) {
            Ok(client) => Source::Frame(client),
            Err(_) => {
                let (server, stop, worker) = start_demo_server();
                let client = JoinClient::connect(server.local_addr().to_string())
                    .expect("connect to in-process server");
                println!("no server on {addr}; started one in-process with a demo workload\n");
                demo = Some((server, stop, worker));
                Source::Frame(client)
            }
        }
    };

    let mut last: Option<HashMap<String, f64>> = None;
    for tick in 0..ticks {
        let samples = parse_samples(&source.fetch());
        let served = metric(&samples, "hj_engine_requests_served_total");
        let rate = last
            .as_ref()
            .map(|prev| served - metric(prev, "hj_engine_requests_served_total"))
            .unwrap_or(0.0);
        println!(
            "[{tick:>3}] served {served:>8} (+{rate:>5}/s) | in-flight {:>3} (peak {:>3}) | \
             replans {:>4} | spilled {:>10}B | cache {:>6} hits",
            metric(&samples, "hj_engine_in_flight"),
            metric(&samples, "hj_engine_peak_in_flight"),
            metric(&samples, "hj_adaptive_replans_total"),
            metric(&samples, "hj_spill_bytes_spilled_total"),
            metric(&samples, "hj_cache_hits_total"),
        );
        let sheds: f64 = samples
            .iter()
            .filter(|(k, _)| k.starts_with("hj_server_sheds_total"))
            .map(|(_, v)| v)
            .sum();
        if sheds > 0.0 {
            println!("      sheds: {sheds} (see hj_server_sheds_total{{reason=..}})");
        }
        last = Some(samples);
        std::thread::sleep(Duration::from_secs(1));
    }

    if let Some((mut server, stop, worker)) = demo {
        stop.store(true, Ordering::Relaxed);
        worker.join().expect("demo workload");
        server.shutdown();
    }
}

/// Start a server plus one background client thread pushing joins
/// through it until told to stop.
fn start_demo_server() -> (JoinServer, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let tuples = 16 * 1024;
    let engine = Arc::new(
        JoinEngine::native(EngineConfig::for_tuples(tuples, 2 * tuples).sessions(2))
            .expect("engine config"),
    );
    let server = JoinServer::start(
        engine,
        ServerConfig::default()
            .addr("127.0.0.1:0")
            .http_addr("127.0.0.1:0"),
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    // Demo-only workload thread; main() stops and joins it before exit.
    // hj-lint: allow(raw-spawn)
    let worker = std::thread::spawn(move || {
        let (build, probe) = datagen::generate_pair(&DataGenConfig::small(tuples, 2 * tuples));
        let mut client = JoinClient::connect(&addr).expect("workload connect");
        while !stop_flag.load(Ordering::Relaxed) {
            client
                .join(RequestBuilder::new(build.clone(), probe.clone()).build())
                .ok();
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    (server, stop, worker)
}
