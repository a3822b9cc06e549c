//! Shared observability primitives for the join engine.
//!
//! Five pieces, each dependency-free and cheap enough to sit on hot
//! paths:
//!
//! * [`LatencyHistogram`] — the log2-bucket duration histogram every layer
//!   records latencies into (plus [`exact_quantile`] for exact sample-set
//!   percentiles in the bench harness);
//! * [`MetricsRegistry`] — counters, gauges and histograms registered once
//!   under static names, updated via relaxed atomics, rendered as a
//!   Prometheus text snapshot for wire exposition;
//! * [`JoinTrace`] — the per-join flight-recorder tree of spans and typed
//!   events, returned to callers that opt in;
//! * [`HealthMonitor`] — derives windowed rates from the two latest
//!   registry snapshots of the engine's sampler thread and classifies them
//!   into a typed [`HealthReport`] (`Healthy | Degraded | Saturated`) with
//!   hysteresis;
//! * [`SlowLog`] — bounded ring of joins that breached the engine's slow
//!   threshold, each retaining its full flight-recorder trace.

#![warn(missing_docs)]

mod health;
mod histogram;
mod registry;
mod trace;

pub use health::{HealthMonitor, HealthObservation, HealthReport, HealthState};
pub use histogram::{exact_quantile, LatencyHistogram};
pub use registry::{AtomicHistogram, Counter, Gauge, MetricSample, MetricValue, MetricsRegistry};
pub use trace::{FlightEvent, JoinTrace, SlowJoinRecord, SlowLog, TraceEventKind, TraceSpan};
