//! Shared observability primitives for the join engine.
//!
//! Three pieces, each dependency-free and cheap enough to sit on hot
//! paths:
//!
//! * [`LatencyHistogram`] — the log2-bucket duration histogram every layer
//!   records latencies into (plus [`exact_quantile`] for exact sample-set
//!   percentiles in the bench harness);
//! * [`MetricsRegistry`] — counters, gauges and histograms registered once
//!   under static names, updated via relaxed atomics, rendered as a
//!   Prometheus text snapshot for wire exposition;
//! * [`TraceBuffer`] / [`JoinTrace`] — structured tracing: typed events in
//!   a bounded drop-oldest ring, and the per-join flight-recorder tree
//!   returned to callers that opt in.  The `trace-off` cargo feature
//!   compiles the ring's `push` to a no-op.
//! * [`TimeSeriesRing`] — bounded drop-oldest ring of timestamped registry
//!   snapshots pushed by the engine's sampler thread, with windowed rate
//!   derivation ([`WindowRates`]);
//! * [`HealthMonitor`] — classifies windowed rates into a typed
//!   [`HealthReport`] (`Healthy | Degraded | Saturated`) with hysteresis;
//! * [`SlowLog`] — bounded ring of joins that breached the engine's slow
//!   threshold, each retaining its full flight-recorder trace.

#![warn(missing_docs)]

mod health;
mod histogram;
mod registry;
mod timeseries;
mod trace;

pub use health::{HealthMonitor, HealthObservation, HealthReport, HealthState};
pub use histogram::{exact_quantile, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use registry::{AtomicHistogram, Counter, Gauge, MetricSample, MetricValue, MetricsRegistry};
pub use timeseries::{family_histogram, family_total, TimePoint, TimeSeriesRing, WindowRates};
pub use trace::{
    FlightEvent, JoinTrace, SlowJoinRecord, SlowLog, TraceBuffer, TraceEvent, TraceEventKind,
    TraceSpan,
};
