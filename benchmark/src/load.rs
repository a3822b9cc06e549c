//! Load generation: closed and open loops over at most [`MAX_CLIENTS`]
//! threads, with the per-operation samples and spans they record.

use crate::spans::Span;
use std::time::{Duration, Instant};

/// This host has two cores; more generator threads would compete with the
/// system under test.
pub const MAX_CLIENTS: usize = 2;

/// One client's span recorder.  Disabled outside the traced pass, so the
/// timed window pays for nothing but its latency samples.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    client: u64,
    ops: u64,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(origin: Instant, enabled: bool, client: usize) -> Self {
        Recorder {
            origin,
            enabled,
            client: client as u64,
            ops: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn begin_op(&mut self) {
        self.ops += 1;
    }

    fn op_id(&self) -> u64 {
        (self.client << 32) | self.ops
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a measured span of the current operation; returns its index
    /// for use as a parent.  A no-op (returning 0) while disabled.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op_id: self.op_id(),
        });
        self.spans.len() - 1
    }

    /// Records children of `parent` from durations the call returned, laid
    /// end to end from the parent's start; returns the first child's index.
    pub fn children(&mut self, parent: usize, parts: &[(&'static str, u64)]) -> usize {
        let first = self.spans.len();
        if !self.enabled {
            return first;
        }
        let mut at = self.spans[parent].start_ns;
        for &(name, duration_ns) in parts {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + duration_ns,
                parent: Some(parent),
                op_id: self.op_id(),
            });
            at += duration_ns;
        }
        first
    }
}

/// What one pass (timed window or traced pass) observed from outside.
#[derive(Default)]
pub struct PassLog {
    /// Wall-clock from the first operation's start to the last one's end.
    pub elapsed_s: f64,
    pub attempted: u64,
    /// Operations that errored, were shed, or returned a wrong result.
    pub failed: u64,
    /// Latency of each successful operation, from its due time.
    pub latency_ms: Vec<f64>,
    /// Open loop only: how long after its due time each request was sent.
    pub late_ms: Vec<f64>,
    /// Traced pass only.
    pub spans: Vec<Span>,
}

impl PassLog {
    fn absorb(&mut self, mut other: ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.append(&mut other.latency_ms);
        self.late_ms.append(&mut other.late_ms);
        let base = self.spans.len();
        self.spans
            .extend(other.recorder.spans.into_iter().map(|mut span| {
                span.parent = span.parent.map(|p| p + base);
                span
            }));
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

struct ClientLog {
    attempted: u64,
    failed: u64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    recorder: Recorder,
}

impl ClientLog {
    fn new(origin: Instant, traced: bool, client: usize) -> Self {
        ClientLog {
            attempted: 0,
            failed: 0,
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
            recorder: Recorder::new(origin, traced, client),
        }
    }

    /// Runs one operation due at `due` and books its outcome.
    fn run_op<C>(
        &mut self,
        due: Instant,
        client: &mut C,
        op: &(impl Fn(&mut C, &mut Recorder) -> bool + Sync),
    ) {
        self.attempted += 1;
        self.recorder.begin_op();
        if op(client, &mut self.recorder) {
            self.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
        }
    }
}

/// Runs `clients` (one thread each, joined before returning) and merges
/// what they logged; returns the clients too, for whatever they
/// accumulated.
fn drive<C: Send>(
    clients: Vec<C>,
    traced: bool,
    body: impl Fn(usize, &mut C, &mut ClientLog, Instant) + Sync,
) -> (PassLog, Vec<C>) {
    assert!(
        (1..=MAX_CLIENTS).contains(&clients.len()),
        "load is generated by 1..={MAX_CLIENTS} threads"
    );
    let origin = Instant::now();
    let body = &body;
    let finished: Vec<(ClientLog, C)> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(index, mut client)| {
                scope.spawn(move || {
                    let mut log = ClientLog::new(origin, traced, index);
                    body(index, &mut client, &mut log, origin);
                    (log, client)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut pass = PassLog {
        elapsed_s: origin.elapsed().as_secs_f64(),
        ..PassLog::default()
    };
    let mut clients = Vec::new();
    for (log, client) in finished {
        pass.absorb(log);
        clients.push(client);
    }
    (pass, clients)
}

/// Closed loop: each client issues its next operation as soon as the
/// previous one completed, until `seconds` have passed; the operation in
/// flight at that moment completes and counts.
pub fn closed_loop<C: Send>(
    clients: Vec<C>,
    seconds: f64,
    traced: bool,
    op: impl Fn(&mut C, &mut Recorder) -> bool + Sync,
) -> (PassLog, Vec<C>) {
    let window = Duration::from_secs_f64(seconds);
    drive(clients, traced, |_, client, log, origin| {
        let mut first = true;
        loop {
            let now = Instant::now();
            // Always one operation, however short the window.
            if !first && now.duration_since(origin) >= window {
                break;
            }
            first = false;
            log.run_op(now, client, &op);
        }
    })
}

/// Open loop: client `i` sends at the offsets of `schedules[i]` (ns from
/// the start) whether or not earlier replies are slow, charges latency
/// from each due time, stops issuing once `seconds` have passed and lets
/// the request in flight drain.
pub fn open_loop<C: Send>(
    clients: Vec<C>,
    schedules: &[Vec<u64>],
    seconds: f64,
    traced: bool,
    op: impl Fn(&mut C, &mut Recorder) -> bool + Sync,
) -> (PassLog, Vec<C>) {
    assert_eq!(clients.len(), schedules.len(), "one schedule per sender");
    let window = Duration::from_secs_f64(seconds);
    drive(clients, traced, |index, client, log, origin| {
        for &offset_ns in &schedules[index] {
            if Duration::from_nanos(offset_ns) >= window {
                break;
            }
            let due = origin + Duration::from_nanos(offset_ns);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            if sent.duration_since(origin) >= window {
                break;
            }
            log.late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            log.run_op(due, client, &op);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_counts_failures_and_merges_spans_with_rebased_parents() {
        let (pass, clients) = closed_loop(vec![0u32, 0u32], 0.05, true, |count, rec| {
            *count += 1;
            let start = Instant::now();
            std::thread::sleep(Duration::from_millis(2));
            let root = rec.span("root", start, Instant::now(), None);
            rec.children(root, &[("a", 500_000), ("b", 250_000)]);
            *count % 2 == 1
        });
        assert_eq!(pass.attempted, u64::from(clients[0] + clients[1]));
        assert_eq!(pass.completed(), pass.latency_ms.len() as u64);
        assert!(pass.failed >= 2 && pass.completed() >= 2);
        assert_eq!(pass.spans.len() as u64, pass.attempted * 3);
        for (i, span) in pass.spans.iter().enumerate() {
            match span.name {
                "root" => assert_eq!(span.parent, None),
                _ => {
                    let parent = &pass.spans[span.parent.unwrap()];
                    assert!(parent.name == "root" && span.parent.unwrap() < i);
                    assert_eq!(parent.op_id, span.op_id);
                }
            }
        }
        let own = crate::spans::self_times_ns(&pass.spans);
        let (n, mean_ms, self_ms) = crate::spans::summarize(&pass.spans, &own, "root");
        assert_eq!(n, pass.attempted);
        assert!((mean_ms - self_ms - 0.75).abs() < 1e-9);
    }

    #[test]
    fn open_loop_charges_latency_from_the_due_time() {
        // Two requests due together on one sender: the second waits for the
        // first, and that wait is part of its latency and its lateness.
        let schedule = vec![vec![0, 0, 5_000_000_000]];
        let (pass, _) = open_loop(vec![()], &schedule, 0.2, false, |_, _| {
            std::thread::sleep(Duration::from_millis(20));
            true
        });
        assert_eq!(
            pass.attempted, 2,
            "the arrival past the window is never sent"
        );
        assert!(pass.latency_ms[0] >= 20.0 && pass.latency_ms[1] >= 40.0);
        assert!(pass.late_ms[1] >= 20.0);
        assert!(pass.spans.is_empty());
    }
}
