//! Health assessment: a typed verdict derived from windowed rates, with
//! hysteresis so the reported state does not flap on a single noisy window.
//!
//! The engine's sampler hands one registry snapshot per sample to
//! [`HealthMonitor::sample`].  The monitor keeps only the previous
//! snapshot: the window between the two yields one [`HealthObservation`]
//! (every monotonic counter family is summed across its label sets at each
//! end and the delta divided by the wall-clock span; families that are not
//! registered read zero).  The monitor classifies the observation as
//! `Healthy`/`Degraded`/`Saturated` and only *transitions* after several
//! consecutive windows agree — degrading needs two worse windows in a row,
//! recovering needs three better ones.  The `/health` HTTP endpoint renders
//! the latest [`HealthReport`] as JSON and maps `Saturated` to 503.

use crate::histogram::LatencyHistogram;
use crate::registry::{MetricSample, MetricValue};
use hj_analysis::sync::Mutex;

/// The engine's assessed health state.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthState {
    /// Every tracked signal is within budget.
    Healthy,
    /// The engine is serving, but one or more signals are over budget.
    Degraded {
        /// Human-readable over-budget signals, one per breach.
        reasons: Vec<String>,
    },
    /// The engine is shedding a dominant fraction of its traffic.
    Saturated,
}

impl HealthState {
    /// Severity rank: 0 healthy, 1 degraded, 2 saturated.
    pub fn level(&self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded { .. } => 1,
            HealthState::Saturated => 2,
        }
    }

    /// A stable lower-case name (used in JSON and metrics).
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded { .. } => "degraded",
            HealthState::Saturated => "saturated",
        }
    }

    /// The reasons behind a degraded verdict (empty otherwise).
    pub fn reasons(&self) -> &[String] {
        match self {
            HealthState::Degraded { reasons } => reasons,
            _ => &[],
        }
    }
}

/// One window's worth of signals, as the sampler derived them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthObservation {
    /// When the window closed (monotonic ns on the engine's timescale).
    pub at_ns: u64,
    /// Joins completed per second over the window.
    pub joins_per_sec: f64,
    /// Shed fraction of the window's admission decisions (0..1).
    pub shed_ratio: f64,
    /// Upper bound on the window's queue-wait p99, `None` when no
    /// acquisition waited in the window.
    pub queue_wait_p99_ns: Option<u64>,
    /// Bytes evicted under broker reclaim pressure per second.
    pub reclaim_bytes_per_sec: f64,
    /// Busy fraction of the worker pool (0..1), `None` while the pool is
    /// unspawned or reported no wall time.
    pub worker_utilization: Option<f64>,
}

/// One timestamped snapshot of a metrics registry.
struct TimePoint {
    /// When the snapshot was taken, in monotonic nanoseconds on the
    /// engine's trace timescale.
    at_ns: u64,
    /// The registry's samples at that instant, in registration order.
    samples: Vec<MetricSample>,
}

/// Sums one counter/gauge family across all its label sets in a snapshot
/// (0 when the family is not registered).
fn family_total(samples: &[MetricSample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(_) => 0,
        })
        .sum()
}

/// Merges one histogram family across all its label sets in a snapshot
/// (empty when the family is not registered).
fn family_histogram(samples: &[MetricSample], name: &str) -> LatencyHistogram {
    let mut merged = LatencyHistogram::new();
    for sample in samples.iter().filter(|s| s.name == name) {
        if let MetricValue::Histogram(h) = &sample.value {
            merged.merge(h);
        }
    }
    merged
}

impl HealthObservation {
    /// Derives the window's signals from two snapshots of one registry,
    /// `None` when the pair spans no time (or is reversed).  Rates are
    /// deltas of monotonic families over the wall-clock span; the shed
    /// ratio and worker utilization are delta over delta within the
    /// window, and the queue-wait p99 reads the bucket-wise delta of
    /// `hj_engine_queue_wait_ns` (windowed, not lifetime).
    fn between(first: &TimePoint, last: &TimePoint) -> Option<HealthObservation> {
        if last.at_ns <= first.at_ns {
            return None;
        }
        let span_secs = (last.at_ns - first.at_ns) as f64 / 1e9;
        let delta = |name: &str| {
            family_total(&last.samples, name).saturating_sub(family_total(&first.samples, name))
        };
        let joins = delta("hj_engine_requests_served_total");
        let sheds = delta("hj_engine_rejected_saturated_total") + delta("hj_server_sheds_total");
        let busy = delta("hj_pipeline_worker_busy_ns");
        let park = delta("hj_pipeline_worker_park_ns");
        let queue_wait = family_histogram(&last.samples, "hj_engine_queue_wait_ns")
            .delta_since(&family_histogram(&first.samples, "hj_engine_queue_wait_ns"));
        Some(HealthObservation {
            at_ns: last.at_ns,
            joins_per_sec: joins as f64 / span_secs,
            shed_ratio: if joins + sheds > 0 {
                sheds as f64 / (joins + sheds) as f64
            } else {
                0.0
            },
            queue_wait_p99_ns: queue_wait.quantile_ns(0.99),
            reclaim_bytes_per_sec: delta("hj_spill_reclaimed_bytes_total") as f64 / span_secs,
            worker_utilization: (busy + park > 0).then(|| busy as f64 / (busy + park) as f64),
        })
    }
}

/// Queue-wait p99 budget (50 ms); a window above it is a degradation
/// reason.
const QUEUE_WAIT_P99_BUDGET_NS: u64 = 50_000_000;
/// Shed ratio at which a window counts as degraded.
const SHED_RATIO_DEGRADED: f64 = 0.02;
/// Shed ratio at which a window counts as saturated.
const SHED_RATIO_SATURATED: f64 = 0.50;
/// Reclaim pressure (bytes/sec) at which a window counts as degraded.
const RECLAIM_BYTES_PER_SEC_DEGRADED: f64 = 64.0 * 1024.0 * 1024.0;
/// Worker utilization at which a window counts as degraded (the pool has
/// no headroom left).
const UTILIZATION_DEGRADED: f64 = 0.98;
/// Consecutive worse windows required before the state worsens.
const DEGRADE_AFTER: usize = 2;
/// Consecutive better windows required before the state improves
/// (recovery is deliberately slower than degradation).
const RECOVER_AFTER: usize = 3;

/// The monitor's verdict on one observation, plus the inputs it judged.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The assessed state after hysteresis.
    pub state: HealthState,
    /// When the judged window closed (0 before the first observation).
    pub at_ns: u64,
    /// The signals the verdict was derived from.
    pub observation: HealthObservation,
}

impl Default for HealthReport {
    fn default() -> Self {
        HealthReport {
            state: HealthState::Healthy,
            at_ns: 0,
            observation: HealthObservation::default(),
        }
    }
}

impl HealthReport {
    /// Whether a load balancer should keep routing traffic here
    /// (`Saturated` is the only "stop" verdict; `Degraded` still serves).
    pub fn is_serving(&self) -> bool {
        self.state.level() < 2
    }

    /// Renders the report as a compact JSON object — the `/health`
    /// endpoint's body.
    pub fn render_json(&self) -> String {
        let obs = &self.observation;
        let reasons: Vec<String> = self
            .state
            .reasons()
            .iter()
            .map(|r| format!("\"{}\"", escape_json(r)))
            .collect();
        let fmt_opt = |v: Option<f64>| match v {
            Some(v) => format!("{v:.4}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"state\":\"{}\",\"reasons\":[{}],\"at_ns\":{},\
             \"joins_per_sec\":{:.3},\"shed_ratio\":{:.4},\
             \"queue_wait_p99_ms\":{},\"reclaim_bytes_per_sec\":{:.0},\
             \"worker_utilization\":{}}}",
            self.state.name(),
            reasons.join(","),
            self.at_ns,
            obs.joins_per_sec,
            obs.shed_ratio,
            fmt_opt(obs.queue_wait_p99_ns.map(|ns| ns as f64 / 1e6)),
            obs.reclaim_bytes_per_sec,
            fmt_opt(obs.worker_utilization),
        )
    }
}

/// Escapes a string for embedding inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Classification state behind the `health.state` lock.
struct MonitorInner {
    current: HealthState,
    /// The level raw assessments have been pushing towards.
    pending_level: u8,
    /// How many consecutive raw assessments agreed on `pending_level`.
    pending_streak: usize,
    last: HealthReport,
    /// The snapshot the next window starts from.
    previous: Option<TimePoint>,
}

/// Classifies observations into a [`HealthState`] with hysteresis (lock
/// class `health.state`, which also guards the previous snapshot).
pub struct HealthMonitor {
    inner: Mutex<MonitorInner>,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("state", &self.inner.lock().current)
            .finish()
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new()
    }
}

impl HealthMonitor {
    /// A monitor starting `Healthy`.
    pub fn new() -> Self {
        HealthMonitor {
            inner: Mutex::new(
                "health.state",
                MonitorInner {
                    current: HealthState::Healthy,
                    pending_level: 0,
                    pending_streak: 0,
                    last: HealthReport::default(),
                    previous: None,
                },
            ),
        }
    }

    /// Judges the window from the previous snapshot to `samples`, taken at
    /// `at_ns`, and keeps `samples` as the next window's start.  `None` for
    /// the first snapshot and for one that spans no time after the previous.
    pub fn sample(&self, at_ns: u64, samples: Vec<MetricSample>) -> Option<HealthReport> {
        let mut inner = self.inner.lock();
        let previous = inner.previous.replace(TimePoint { at_ns, samples })?;
        let latest = inner.previous.as_ref().expect("just stored");
        let obs = HealthObservation::between(&previous, latest)?;
        Some(inner.observe(obs))
    }

    /// The most recent report (a default `Healthy` one before the first
    /// observation).
    pub fn report(&self) -> HealthReport {
        self.inner.lock().last.clone()
    }
}

/// Classifies one observation without hysteresis: the raw severity level
/// and the reasons behind it.
fn assess(obs: &HealthObservation) -> (u8, Vec<String>) {
    if obs.shed_ratio >= SHED_RATIO_SATURATED {
        return (
            2,
            vec![format!(
                "shed ratio {:.2} at or over the saturation threshold {:.2}",
                obs.shed_ratio, SHED_RATIO_SATURATED
            )],
        );
    }
    let mut reasons = Vec::new();
    if obs.shed_ratio >= SHED_RATIO_DEGRADED {
        reasons.push(format!(
            "shed ratio {:.3} over budget {:.3}",
            obs.shed_ratio, SHED_RATIO_DEGRADED
        ));
    }
    if let Some(p99) = obs.queue_wait_p99_ns {
        if p99 > QUEUE_WAIT_P99_BUDGET_NS {
            reasons.push(format!(
                "queue-wait p99 {:.1} ms over budget {:.1} ms",
                p99 as f64 / 1e6,
                QUEUE_WAIT_P99_BUDGET_NS as f64 / 1e6
            ));
        }
    }
    if obs.reclaim_bytes_per_sec >= RECLAIM_BYTES_PER_SEC_DEGRADED {
        reasons.push(format!(
            "broker reclaim pressure {:.0} B/s over budget {:.0} B/s",
            obs.reclaim_bytes_per_sec, RECLAIM_BYTES_PER_SEC_DEGRADED
        ));
    }
    if let Some(util) = obs.worker_utilization {
        if util >= UTILIZATION_DEGRADED {
            reasons.push(format!(
                "worker utilization {:.2} leaves no headroom (budget {:.2})",
                util, UTILIZATION_DEGRADED
            ));
        }
    }
    if reasons.is_empty() {
        (0, reasons)
    } else {
        (1, reasons)
    }
}

impl MonitorInner {
    /// Feeds one observation through the hysteresis machine and returns
    /// the (possibly transitioned) report.
    fn observe(&mut self, obs: HealthObservation) -> HealthReport {
        let (raw_level, reasons) = assess(&obs);
        let current_level = self.current.level();
        if raw_level == current_level {
            // Agreement cancels any pending transition; a degraded state
            // keeps its reasons fresh.
            self.pending_streak = 0;
            if raw_level == 1 {
                self.current = HealthState::Degraded { reasons };
            }
        } else {
            if self.pending_level == raw_level {
                self.pending_streak += 1;
            } else {
                self.pending_level = raw_level;
                self.pending_streak = 1;
            }
            let needed = if raw_level > current_level {
                DEGRADE_AFTER
            } else {
                RECOVER_AFTER
            };
            if self.pending_streak >= needed {
                self.current = match raw_level {
                    0 => HealthState::Healthy,
                    1 => HealthState::Degraded { reasons },
                    _ => HealthState::Saturated,
                };
                self.pending_streak = 0;
            }
        }
        let report = HealthReport {
            state: self.current.clone(),
            at_ns: obs.at_ns,
            observation: obs,
        };
        self.last = report.clone();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    /// Feeds one observation straight into the hysteresis machine.
    fn observe(monitor: &HealthMonitor, obs: HealthObservation) -> HealthReport {
        monitor.inner.lock().observe(obs)
    }

    fn shedding(ratio: f64) -> HealthObservation {
        HealthObservation {
            shed_ratio: ratio,
            ..HealthObservation::default()
        }
    }

    #[test]
    fn one_bad_window_does_not_degrade() {
        let monitor = HealthMonitor::new();
        let report = observe(&monitor, shedding(0.10));
        assert_eq!(report.state, HealthState::Healthy, "hysteresis holds");
        // A good window in between resets the streak.
        observe(&monitor, shedding(0.0));
        observe(&monitor, shedding(0.10));
        assert_eq!(monitor.report().state.level(), 0);
    }

    #[test]
    fn consecutive_bad_windows_degrade_and_recovery_is_slower() {
        let monitor = HealthMonitor::new();
        observe(&monitor, shedding(0.10));
        let report = observe(&monitor, shedding(0.10));
        assert_eq!(report.state.level(), 1, "2 bad windows degrade");
        assert!(!report.state.reasons().is_empty());
        // Two good windows are not enough to recover (recover_after = 3)...
        observe(&monitor, shedding(0.0));
        assert_eq!(observe(&monitor, shedding(0.0)).state.level(), 1);
        // ...the third flips back.
        assert_eq!(observe(&monitor, shedding(0.0)).state, HealthState::Healthy);
    }

    #[test]
    fn dominant_shedding_saturates() {
        let monitor = HealthMonitor::new();
        observe(&monitor, shedding(0.9));
        let report = observe(&monitor, shedding(0.9));
        assert_eq!(report.state, HealthState::Saturated);
        assert!(!report.is_serving());
    }

    #[test]
    fn queue_wait_reclaim_and_utilization_are_reasons() {
        let obs = HealthObservation {
            queue_wait_p99_ns: Some(200_000_000),
            reclaim_bytes_per_sec: 1e9,
            worker_utilization: Some(1.0),
            ..HealthObservation::default()
        };
        let (level, reasons) = assess(&obs);
        assert_eq!(level, 1);
        assert_eq!(reasons.len(), 3, "{reasons:?}");
        assert!(reasons[0].contains("queue-wait p99"));
        assert!(reasons[1].contains("reclaim"));
        assert!(reasons[2].contains("utilization"));
    }

    #[test]
    fn flapping_assessments_never_transition() {
        let monitor = HealthMonitor::new();
        for _ in 0..8 {
            observe(&monitor, shedding(0.10));
            observe(&monitor, shedding(0.0));
        }
        assert_eq!(monitor.report().state, HealthState::Healthy);
    }

    #[test]
    fn report_renders_valid_enough_json() {
        let monitor = HealthMonitor::new();
        let json = monitor.report().render_json();
        assert!(json.starts_with("{\"state\":\"healthy\""));
        assert!(json.contains("\"reasons\":[]"));
        assert!(json.contains("\"queue_wait_p99_ms\":null"));
        observe(&monitor, shedding(0.10));
        let degraded = observe(&monitor, shedding(0.10));
        let json = degraded.render_json();
        assert!(json.contains("\"state\":\"degraded\""));
        assert!(json.contains("\"reasons\":[\"shed ratio"));
        // Hostile reason content stays inside its string literal.
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn samples_need_a_previous_snapshot_and_nonzero_span() {
        let monitor = HealthMonitor::new();
        assert!(monitor.sample(5, Vec::new()).is_none(), "no window yet");
        assert!(monitor.sample(5, Vec::new()).is_none(), "zero span");
        assert!(monitor.sample(6, Vec::new()).is_some());
    }

    #[test]
    fn windows_diff_counters_across_label_sets() {
        let reg = MetricsRegistry::new();
        let served = reg.counter("hj_engine_requests_served_total", "served");
        let shed_a = reg.counter_with(
            "hj_server_sheds_total",
            &[("reason", "quota".to_string())],
            "sheds",
        );
        let shed_b = reg.counter_with(
            "hj_server_sheds_total",
            &[("reason", "deadline".to_string())],
            "sheds",
        );
        let reclaimed = reg.counter("hj_spill_reclaimed_bytes_total", "reclaimed");
        let monitor = HealthMonitor::new();
        served.add(10);
        monitor.sample(0, reg.snapshot());
        served.add(20); // 20 joins over the window
        shed_a.add(3);
        shed_b.add(2); // 5 sheds over the window
        reclaimed.add(4_000);
        let report = monitor
            .sample(2_000_000_000, reg.snapshot()) // 2 s window
            .expect("two snapshots, 2 s apart");
        let obs = report.observation;
        assert_eq!(obs.at_ns, 2_000_000_000);
        assert!((obs.joins_per_sec - 10.0).abs() < 1e-9);
        assert!((obs.shed_ratio - 5.0 / 25.0).abs() < 1e-9);
        assert!((obs.reclaim_bytes_per_sec - 2_000.0).abs() < 1e-9);
        assert_eq!(obs.worker_utilization, None, "no busy/park gauges");
        assert_eq!(obs.queue_wait_p99_ns, None, "no queue-wait histogram");
    }

    #[test]
    fn utilization_and_queue_wait_are_windowed() {
        let reg = MetricsRegistry::new();
        let busy = reg.gauge_with(
            "hj_pipeline_worker_busy_ns",
            &[("worker", "0".to_string())],
            "busy",
        );
        let park = reg.gauge_with(
            "hj_pipeline_worker_park_ns",
            &[("worker", "0".to_string())],
            "park",
        );
        let wait = reg.histogram("hj_engine_queue_wait_ns", "queue wait");
        wait.record(1 << 30);
        let monitor = HealthMonitor::new();
        busy.set(1_000);
        park.set(3_000);
        monitor.sample(0, reg.snapshot());
        busy.set(4_000); // +3000 busy
        park.set(4_000); // +1000 parked
        wait.record(100); // only this lands inside the window
        let obs = monitor
            .sample(1_000_000_000, reg.snapshot())
            .expect("report")
            .observation;
        assert_eq!(obs.worker_utilization, Some(0.75));
        let p99 = obs.queue_wait_p99_ns.expect("one windowed wait");
        assert!(p99 < 1 << 20, "lifetime sample excluded: {p99}");
    }
}
