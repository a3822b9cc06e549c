//! Structured tracing: the per-join flight-recorder tree ([`JoinTrace`])
//! returned to callers that opt in, and the bounded slow-join log
//! ([`SlowLog`]) that keeps the same tree for joins past the engine's slow
//! threshold.  A trace is assembled after its join from data the join
//! produced anyway, so it loses nothing and costs nothing on the join
//! path.

use hj_analysis::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// What kind of thing a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened (`label` names it; `value` is the parent span, 0 for
    /// roots).
    SpanStart,
    /// A span closed (`value` is its duration in ns).
    SpanEnd,
    /// A join phase finished (`label` is the phase, `value` its simulated
    /// nanoseconds).
    Phase,
    /// A pipeline step finished (`label` is the step, `value` its
    /// simulated nanoseconds).
    Step,
    /// A spill-path decision (`label` says what, `value` is bytes).
    Spill,
    /// A hash-table-cache lookup (`label` is hit/miss/evict, `value` is
    /// detail such as saved build ns).
    Cache,
    /// An admission verdict (`label` is admitted/shed reason, `value` is
    /// detail such as estimated queue ns).
    Admission,
    /// An adaptive re-plan (`label` is the series, `value` the re-plan
    /// count so far).
    Replan,
    /// A free-form marker.
    Mark,
}

impl TraceEventKind {
    /// All kinds, in wire-code order.
    pub const ALL: [TraceEventKind; 9] = [
        TraceEventKind::SpanStart,
        TraceEventKind::SpanEnd,
        TraceEventKind::Phase,
        TraceEventKind::Step,
        TraceEventKind::Spill,
        TraceEventKind::Cache,
        TraceEventKind::Admission,
        TraceEventKind::Replan,
        TraceEventKind::Mark,
    ];

    /// A stable lower-case name (used in renders and docs).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::SpanStart => "span-start",
            TraceEventKind::SpanEnd => "span-end",
            TraceEventKind::Phase => "phase",
            TraceEventKind::Step => "step",
            TraceEventKind::Spill => "spill",
            TraceEventKind::Cache => "cache",
            TraceEventKind::Admission => "admission",
            TraceEventKind::Replan => "replan",
            TraceEventKind::Mark => "mark",
        }
    }

    /// The wire tag of this kind.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The kind for a wire tag, `None` for unknown tags.
    pub fn from_code(code: u8) -> Option<Self> {
        TraceEventKind::ALL.get(code as usize).copied()
    }
}

/// One timed span of a [`JoinTrace`] tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// This span's ID (unique within the trace).
    pub id: u64,
    /// The parent span's ID; 0 for the root.
    pub parent: u64,
    /// What the span covers ("join", "build", "probe", ...).
    pub label: String,
    /// Start, in ns since the engine was created.
    pub start_ns: u64,
    /// The span's duration in ns (simulated time for phase spans, wall
    /// clock for the root).
    pub duration_ns: u64,
}

/// One recorded event of a [`JoinTrace`]: which span, when, what, and one
/// numeric detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// The span the event belongs to.
    pub span: u64,
    /// When, in ns on the trace's timescale.
    pub at_ns: u64,
    /// What kind of event.
    pub kind: TraceEventKind,
    /// The event label (phase/step/decision name).
    pub label: String,
    /// One numeric detail; meaning depends on `kind`.
    pub value: u64,
}

/// The per-join flight recorder: an EXPLAIN-ANALYZE-style tree of spans
/// (phases, steps) plus the typed events the join emitted, returned in
/// the engine's `JoinOutcome::trace` when the request opted in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinTrace {
    /// The root span's ID.
    pub root: u64,
    /// All spans, root first.
    pub spans: Vec<TraceSpan>,
    /// Events in emission order.
    pub events: Vec<FlightEvent>,
}

impl JoinTrace {
    /// Appends a span and returns its ID (IDs are trace-local, starting
    /// at 1).
    pub fn push_span(
        &mut self,
        parent: u64,
        label: impl Into<String>,
        start_ns: u64,
        duration_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        if parent == 0 && self.root == 0 {
            self.root = id;
        }
        self.spans.push(TraceSpan {
            id,
            parent,
            label: label.into(),
            start_ns,
            duration_ns,
        });
        id
    }

    /// Appends an event under `span`.
    pub fn push_event(
        &mut self,
        span: u64,
        at_ns: u64,
        kind: TraceEventKind,
        label: impl Into<String>,
        value: u64,
    ) {
        self.events.push(FlightEvent {
            span,
            at_ns,
            kind,
            label: label.into(),
            value,
        });
    }

    /// Renders the trace as an indented tree: spans with millisecond
    /// durations, each followed by its events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            out.push_str("(empty trace)\n");
        } else {
            self.render_span(self.root, 0, &mut out);
        }
        out
    }

    fn render_span(&self, id: u64, depth: usize, out: &mut String) {
        let Some(span) = self.spans.iter().find(|s| s.id == id) else {
            return;
        };
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} ({:.3} ms)\n",
            span.label,
            span.duration_ns as f64 / 1e6
        ));
        for event in self.events.iter().filter(|e| e.span == id) {
            out.push_str(&format!(
                "{indent}  · {} {} = {}\n",
                event.kind.name(),
                event.label,
                event.value
            ));
        }
        let mut children: Vec<&TraceSpan> = self.spans.iter().filter(|s| s.parent == id).collect();
        children.sort_by_key(|s| (s.start_ns, s.id));
        for child in children {
            self.render_span(child.id, depth + 1, out);
        }
    }
}

/// One retained slow join: when it finished, how slow it was, and the
/// flight-recorder trace that was assembled retroactively even when the
/// request itself opted out of tracing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowJoinRecord {
    /// When the join finished, in ns since the engine was created.
    pub at_ns: u64,
    /// The join's wall-clock duration in ns.
    pub wall_ns: u64,
    /// The threshold it exceeded, in ns.
    pub threshold_ns: u64,
    /// The session the join ran on.
    pub session_id: u64,
    /// Matches the join produced.
    pub matches: u64,
    /// Whether the caller had asked for a trace anyway (`trace(true)`).
    pub traced: bool,
    /// The full flight-recorder tree for the slow join.
    pub trace: JoinTrace,
}

/// A bounded, drop-oldest ring of [`SlowJoinRecord`]s (lock class
/// `slowlog.ring`).  The engine pushes into it from `finish_join` only
/// when a join breached the slow threshold, so the lock is cold in the
/// healthy case.
#[derive(Debug)]
pub struct SlowLog {
    ring: Mutex<VecDeque<SlowJoinRecord>>,
    capacity: usize,
    recorded: AtomicU64,
}

impl SlowLog {
    /// A slow-log holding at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SlowLog {
            ring: Mutex::new("slowlog.ring", VecDeque::with_capacity(capacity)),
            capacity,
            recorded: AtomicU64::new(0),
        }
    }

    /// Appends one record, dropping the oldest when the ring is full.
    pub fn push(&self, record: SlowJoinRecord) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no slow join has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slow joins recorded since creation (including ones since dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// A copy of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<SlowJoinRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Renders the retained records as the `/debug/slowlog` text dump:
    /// one header line per record followed by its rendered trace.
    pub fn render(&self) -> String {
        let records = self.snapshot();
        let mut out = format!(
            "slow joins: {} retained ({} recorded, capacity {})\n",
            records.len(),
            self.recorded(),
            self.capacity
        );
        for (i, r) in records.iter().enumerate() {
            out.push_str(&format!(
                "\n#{} at={}ns wall={:.3}ms threshold={:.3}ms session={} matches={} traced={}\n",
                i + 1,
                r.at_ns,
                r.wall_ns as f64 / 1e6,
                r.threshold_ns as f64 / 1e6,
                r.session_id,
                r.matches,
                r.traced
            ));
            out.push_str(&r.trace.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for kind in TraceEventKind::ALL {
            assert_eq!(TraceEventKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(TraceEventKind::from_code(200), None);
    }

    #[test]
    fn join_trace_renders_a_tree() {
        let mut trace = JoinTrace::default();
        let root = trace.push_span(0, "join", 0, 10_000_000);
        let build = trace.push_span(root, "build", 0, 4_000_000);
        let _probe = trace.push_span(root, "probe", 4_000_000, 6_000_000);
        trace.push_event(build, 100, TraceEventKind::Replan, "build", 2);
        let text = trace.render();
        assert!(text.starts_with("join (10.000 ms)\n"));
        assert!(text.contains("  build (4.000 ms)\n"));
        assert!(text.contains("  probe (6.000 ms)\n"));
        assert!(text.contains("· replan build = 2"));
        // probe is rendered after build (start order).
        assert!(text.find("build").unwrap() < text.find("probe").unwrap());
    }

    #[test]
    fn slow_log_is_bounded_and_drop_oldest() {
        let log = SlowLog::new(2);
        for i in 0..4u64 {
            let mut trace = JoinTrace::default();
            trace.push_span(0, "join", 0, i * 1_000_000);
            log.push(SlowJoinRecord {
                at_ns: i,
                wall_ns: i * 1_000_000,
                threshold_ns: 100,
                session_id: i,
                matches: i,
                traced: false,
                trace,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.recorded(), 4);
        let sessions: Vec<u64> = log.snapshot().iter().map(|r| r.session_id).collect();
        assert_eq!(sessions, vec![2, 3], "oldest records are dropped");
    }

    #[test]
    fn slow_log_capacity_is_clamped() {
        assert_eq!(SlowLog::new(0).capacity(), 1);
    }

    #[test]
    fn slow_log_render_includes_headers_and_traces() {
        let log = SlowLog::new(4);
        assert!(log.render().starts_with("slow joins: 0 retained"));
        let mut trace = JoinTrace::default();
        let root = trace.push_span(0, "join", 0, 7_000_000);
        trace.push_span(root, "probe", 0, 5_000_000);
        log.push(SlowJoinRecord {
            at_ns: 42,
            wall_ns: 7_000_000,
            threshold_ns: 5_000_000,
            session_id: 9,
            matches: 123,
            traced: false,
            trace,
        });
        let text = log.render();
        assert!(text.contains(
            "#1 at=42ns wall=7.000ms threshold=5.000ms session=9 matches=123 traced=false"
        ));
        assert!(text.contains("join (7.000 ms)\n"));
        assert!(text.contains("  probe (5.000 ms)\n"));
    }
}
