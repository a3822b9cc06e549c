//! Protocol, admission-control and client half of the network serving
//! layer.
//!
//! This crate sits *below* the engine (it depends only on `datagen` and
//! the adaptive estimator) and holds everything the TCP front-end in
//! `hj_core::serve` and remote clients share:
//!
//! * [`frame`] — the length-prefixed, checksummed binary frame layer
//!   ([`write_frame`] / [`read_frame`], and [`append_frame`] /
//!   [`read_frame_into`] over reused buffers; the checksum is XXH64, see
//!   the module's docs), with typed [`WireError`]s for
//!   torn, oversized, corrupt or foreign-protocol streams;
//! * [`message`] — the typed messages frames carry: [`WireRequest`],
//!   [`WireResponse`], streamed [`WireChunk`]s, the positive [`WireDone`]
//!   marker, typed [`WireFailure`]s, the [`WireOverloaded`] shed notice,
//!   and the table-registry trio [`WireRegister`] / [`WireRegistered`] /
//!   [`WireRefRequest`] that lets clients ship a build table once and
//!   join against it by name, plus the observability frames: the
//!   [`WireMetricsRequest`] / [`WireMetricsReply`] pair carrying a
//!   Prometheus-text snapshot of the engine's metrics registry, and
//!   [`WireTrace`], the per-join flight recorder a traced request's reply
//!   ends with;
//! * [`admission`] — the SLO-aware [`AdmissionController`]: per-client
//!   token-bucket quotas, an EWMA service-time estimate, a queue-time
//!   budget and deadline-based shedding, all on a caller-supplied clock
//!   so every decision is deterministic under test;
//! * [`client`] — the blocking [`JoinClient`] plus [`RequestBuilder`] and
//!   [`RefRequestBuilder`].
//!
//! The engine-facing half — the accepting socket, connection handlers
//! and graceful shutdown — lives in
//! `hj_core::serve`, which maps [`WireRequest`]s onto engine submissions.

pub mod admission;
pub mod client;
pub mod frame;
pub mod message;

pub use admission::{Admission, AdmissionController, SloConfig, Ticket};
pub use client::{ClientError, ClientOutcome, JoinClient, RefRequestBuilder, RequestBuilder};
pub use frame::{
    append_frame, read_frame, read_frame_into, release_oversized, write_frame, FrameType,
    WireError, DEFAULT_MAX_PAYLOAD_BYTES, HEADER_BYTES, MAGIC, RETAINED_FRAME_BYTES, VERSION,
};
pub use message::{
    ShedReason, WireAlgorithm, WireChunk, WireDone, WireErrorCode, WireFailure, WireMetricsReply,
    WireMetricsRequest, WireOverloaded, WireRefRequest, WireRegister, WireRegistered, WireRequest,
    WireResponse, WireScheme, WireTrace,
};
