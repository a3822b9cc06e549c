//! The engine-wide metrics registry: counters, gauges and log2 histograms
//! registered once under static names, updated via atomics on hot paths,
//! and rendered as a Prometheus text-format snapshot for wire exposition.
//!
//! Registration takes the registry lock (class `metrics.registry`); updates
//! never do — callers keep the returned [`Counter`]/[`Gauge`]/
//! [`AtomicHistogram`] handle and touch only its atomics.  Snapshot and
//! render also take the lock, but only to walk the entry list; the values
//! themselves are relaxed atomic loads, so a snapshot never stalls a join.
//!
//! Metric names must be `'static` string literals at every call site — the
//! `metrics-name-literal` hj-lint rule enforces this so the name catalogue
//! in `docs/OBSERVABILITY.md` stays greppable.
//
// The registry itself necessarily forwards `name` variables between its
// own registration methods:
// hj-lint: allow-file(metrics-name-literal)

use crate::histogram::{LatencyHistogram, HISTOGRAM_BUCKETS};
use hj_analysis::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter; cloned handles share one value.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge; cloned handles share one value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if it is larger (monotonic high-water mark).
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log2 latency histogram: the atomic twin of
/// [`LatencyHistogram`], recorded into concurrently and snapshotted into
/// the plain type for rendering.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicHistogram {
    /// Records one duration, same bucketing as
    /// [`LatencyHistogram::record`].
    pub fn record(&self, ns: u64) {
        let bucket = (64 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A plain-data snapshot of the current bucket counters.
    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram::from_buckets(std::array::from_fn(|i| {
            self.buckets[i].load(Ordering::Relaxed)
        }))
    }
}

/// The value of one registered metric, captured by
/// [`MetricsRegistry::snapshot`].
// Snapshots hold a handful of samples on a cold path; boxing the
// histogram buckets would cost an allocation per sample for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A [`Counter`] reading.
    Counter(u64),
    /// A [`Gauge`] reading.
    Gauge(u64),
    /// An [`AtomicHistogram`] reading.
    Histogram(LatencyHistogram),
}

/// One metric in a [`MetricsRegistry::snapshot`]: name, labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// The registered metric name (a static literal at the register site).
    pub name: &'static str,
    /// `(key, value)` label pairs, possibly empty.
    pub labels: Vec<(&'static str, String)>,
    /// One-line help text from the register site.
    pub help: &'static str,
    /// The captured value.
    pub value: MetricValue,
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
    help: &'static str,
    handle: Handle,
}

/// The registry: a locked list of registered metrics whose values live in
/// shared atomics.  Register once, update lock-free, snapshot on demand.
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.entries.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            entries: Mutex::new("metrics.registry", Vec::new()),
        }
    }

    fn register(
        &self,
        name: &'static str,
        labels: &[(&'static str, String)],
        help: &'static str,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut entries = self.entries.lock();
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            let handle = match &e.handle {
                Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
                Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
                Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
            };
            let fresh = make();
            assert!(
                handle.kind() == fresh.kind(),
                "metric {name} re-registered as a {} but already is a {}",
                fresh.kind(),
                handle.kind()
            );
            return handle;
        }
        let handle = make();
        let shared = match &handle {
            Handle::Counter(c) => Handle::Counter(Arc::clone(c)),
            Handle::Gauge(g) => Handle::Gauge(Arc::clone(g)),
            Handle::Histogram(h) => Handle::Histogram(Arc::clone(h)),
        };
        entries.push(Entry {
            name,
            labels: labels.to_vec(),
            help,
            handle: shared,
        });
        handle
    }

    /// Registers (or re-attaches to) an unlabelled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// Registers (or re-attaches to) a labelled counter.
    pub fn counter_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, String)],
        help: &'static str,
    ) -> Arc<Counter> {
        match self.register(name, labels, help, || {
            Handle::Counter(Arc::new(Counter::default()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Registers (or re-attaches to) an unlabelled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or re-attaches to) a labelled gauge.
    pub(crate) fn gauge_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, String)],
        help: &'static str,
    ) -> Arc<Gauge> {
        match self.register(name, labels, help, || {
            Handle::Gauge(Arc::new(Gauge::default()))
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Registers (or re-attaches to) an unlabelled histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<AtomicHistogram> {
        self.histogram_with(name, &[], help)
    }

    /// Registers (or re-attaches to) a labelled histogram.
    pub(crate) fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, String)],
        help: &'static str,
    ) -> Arc<AtomicHistogram> {
        match self.register(name, labels, help, || {
            Handle::Histogram(Arc::new(AtomicHistogram::default()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("register checked the kind"),
        }
    }

    /// Plain-data readings of every registered metric, in registration
    /// order.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let entries = self.entries.lock();
        entries
            .iter()
            .map(|e| MetricSample {
                name: e.name,
                labels: e.labels.clone(),
                help: e.help,
                value: match &e.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format: `# HELP` / `# TYPE` headers once per name, then one sample
    /// line per label set (histograms expand to `_bucket`/`_sum`/`_count`
    /// families via [`LatencyHistogram::render`]).
    pub fn render_prometheus(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        let mut last_name = "";
        for sample in &snapshot {
            if sample.name != last_name {
                let kind = match &sample.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", sample.name, sample.help));
                out.push_str(&format!("# TYPE {} {kind}\n", sample.name));
                last_name = sample.name;
            }
            let label_refs: Vec<(&str, &str)> = sample
                .labels
                .iter()
                .map(|(k, v)| (*k, v.as_str()))
                .collect();
            match &sample.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let braces = if label_refs.is_empty() {
                        String::new()
                    } else {
                        let inner: Vec<String> = label_refs
                            .iter()
                            .map(|(k, v)| {
                                format!("{k}=\"{}\"", crate::histogram::escape_label_value(v))
                            })
                            .collect();
                        format!("{{{}}}", inner.join(","))
                    };
                    out.push_str(&format!("{}{braces} {v}\n", sample.name));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&h.render(sample.name, &label_refs));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hj_test_total", "a test counter");
        let b = reg.counter("hj_test_total", "a test counter");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().len(), 1);
        match &reg.snapshot()[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 4),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn labels_distinguish_series() {
        let reg = MetricsRegistry::new();
        let w0 = reg.counter_with(
            "hj_worker_tasks_total",
            &[("worker", "0".to_string())],
            "per-worker tasks",
        );
        let w1 = reg.counter_with(
            "hj_worker_tasks_total",
            &[("worker", "1".to_string())],
            "per-worker tasks",
        );
        w0.add(2);
        w1.add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].value, MetricValue::Counter(2));
        assert_eq!(snap[1].value, MetricValue::Counter(5));
        let text = reg.render_prometheus();
        assert!(text.contains("hj_worker_tasks_total{worker=\"0\"} 2\n"));
        assert!(text.contains("hj_worker_tasks_total{worker=\"1\"} 5\n"));
        // One HELP/TYPE header for the shared name.
        assert_eq!(text.matches("# TYPE hj_worker_tasks_total").count(), 1);
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        let c = reg.counter_with(
            "hj_test_total",
            &[("table", "a\\b\"c\nd".to_string())],
            "counter with a hostile label value",
        );
        c.inc();
        let text = reg.render_prometheus();
        // Backslash -> \\, quote -> \", newline -> the two characters \n.
        assert!(
            text.contains("hj_test_total{table=\"a\\\\b\\\"c\\nd\"} 1\n"),
            "unescaped exposition: {text:?}"
        );
        // No raw newline may survive inside a sample line: every line must
        // end in a value, i.e. parse as `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line shape");
            assert!(value.parse::<f64>().is_ok(), "broken line {line:?}");
        }
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("hj_test_total", "a counter");
        let _g = reg.gauge("hj_test_total", "now a gauge");
    }

    #[test]
    fn gauges_set_and_raise() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("hj_test_gauge", "a gauge");
        g.set(7);
        g.raise(3); // lower: no-op
        assert_eq!(g.get(), 7);
        g.raise(11);
        assert_eq!(g.get(), 11);
        assert!(reg.render_prometheus().contains("hj_test_gauge 11\n"));
    }

    #[test]
    fn histograms_snapshot_to_plain_data() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("hj_test_ns", "a histogram");
        h.record(1_000);
        h.record(2_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert!(snap.quantile_ns(1.0).unwrap() >= 2_000_000);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE hj_test_ns histogram"));
        assert!(text.contains("hj_test_ns_count 2\n"));
    }

    #[test]
    fn concurrent_updates_never_lock() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let c = reg.counter("hj_test_total", "contended counter");
        let h = reg.histogram("hj_test_ns", "contended histogram");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4_000);
        assert_eq!(h.snapshot().count(), 4_000);
    }
}
