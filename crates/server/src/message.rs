//! Typed messages carried in wire frames: join requests, responses,
//! streamed pair chunks, shed notices and errors.
//!
//! The wire model deliberately does **not** reuse the engine's `Scheme` /
//! `Algorithm` types: the protocol names compact, versioned tags
//! ([`WireAlgorithm`], [`WireScheme`]) and the serving layer maps them onto
//! whatever the engine currently supports — the wire format can stay
//! stable while the engine evolves underneath it.

use crate::frame::{PayloadReader, PayloadWriter, WireError};
use datagen::Relation;
use hj_metrics::{FlightEvent, JoinTrace, TraceEventKind, TraceSpan};

/// Ceiling on the relation cardinalities one request frame may carry (the
/// per-column count fields are `u32`, but a hostile count close to
/// `u32::MAX` must be rejected before the column allocation, consistently
/// with the frame-level payload ceiling).
pub(crate) const MAX_WIRE_TUPLES: usize = 256 * 1024 * 1024;

/// Ceiling on a registered table name in bytes — names are registry keys,
/// not payload, so a kilobyte is already generous.
pub(crate) const MAX_TABLE_NAME_BYTES: usize = 1024;

fn check_table_name(name: &str) -> Result<(), WireError> {
    if name.is_empty() {
        return Err(WireError::Protocol {
            detail: "table name must not be empty".to_string(),
        });
    }
    if name.len() > MAX_TABLE_NAME_BYTES {
        return Err(WireError::Protocol {
            detail: format!(
                "table name of {} B exceeds the {MAX_TABLE_NAME_BYTES} B limit",
                name.len()
            ),
        });
    }
    Ok(())
}

/// Runs an appending encoder on a fresh buffer: every `encode` below is
/// this over its type's `encode_into`, so each message has one encoder.
fn encoded(encode_into: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out);
    out
}

fn decode_trace_flag(r: &mut PayloadReader<'_>) -> Result<bool, WireError> {
    match r.get_u8("trace flag")? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WireError::Protocol {
            detail: format!("trace flag must be 0 or 1, got {other}"),
        }),
    }
}

/// The join algorithm, as a wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireAlgorithm {
    /// Simple hash join.
    Shj = 0,
    /// Radix-partitioned hash join (auto radix bits, one pass).
    Phj = 1,
}

impl WireAlgorithm {
    fn from_u8(raw: u8) -> Result<Self, WireError> {
        match raw {
            0 => Ok(WireAlgorithm::Shj),
            1 => Ok(WireAlgorithm::Phj),
            _ => Err(WireError::Protocol {
                detail: format!("unknown algorithm tag {raw}"),
            }),
        }
    }
}

/// The co-processing scheme, as a wire tag (paper presets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireScheme {
    /// Everything on the CPU.
    CpuOnly = 0,
    /// Everything on the GPU.
    GpuOnly = 1,
    /// Off-loading (the paper's OL preset).
    Offload = 2,
    /// Data dividing (the paper's DD ratios).
    DataDividing = 3,
    /// Pipelined fine-grained co-processing (the paper's PL ratios).
    Pipelined = 4,
}

impl WireScheme {
    fn from_u8(raw: u8) -> Result<Self, WireError> {
        match raw {
            0 => Ok(WireScheme::CpuOnly),
            1 => Ok(WireScheme::GpuOnly),
            2 => Ok(WireScheme::Offload),
            3 => Ok(WireScheme::DataDividing),
            4 => Ok(WireScheme::Pipelined),
            _ => Err(WireError::Protocol {
                detail: format!("unknown scheme tag {raw}"),
            }),
        }
    }
}

/// One decoded join request.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed on every frame of the reply.
    pub id: u64,
    /// Join algorithm tag.
    pub algorithm: WireAlgorithm,
    /// Co-processing scheme tag.
    pub scheme: WireScheme,
    /// Materialise and stream the pair set (otherwise only the match count
    /// is returned).
    pub collect_pairs: bool,
    /// Scheduling priority (higher = more important; see the admission
    /// controller for the exact semantics).
    pub priority: u8,
    /// Ask the server to record a per-join flight recorder and stream it as
    /// a [`FrameType::Trace`](crate::frame::FrameType::Trace) frame after
    /// [`WireDone`].  The join result itself is byte-identical either way.
    pub trace: bool,
    /// Completion deadline in milliseconds from arrival; `0` means none.
    /// A request whose *estimated* completion would bust the deadline is
    /// shed with [`WireOverloaded`] instead of being queued to fail.
    pub deadline_ms: u32,
    /// Build-side relation.
    pub build: Relation,
    /// Probe-side relation.
    pub probe: Relation,
}

impl WireRequest {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the request to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(32 + 8 * (self.build.len() + self.probe.len()));
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u8(self.algorithm as u8);
        w.put_u8(self.scheme as u8);
        w.put_u8(self.collect_pairs as u8);
        w.put_u8(self.priority);
        w.put_u8(self.trace as u8);
        w.put_u32(self.deadline_ms);
        w.put_u32(self.build.len() as u32);
        w.put_u32(self.probe.len() as u32);
        w.put_u32_slice(self.build.keys());
        w.put_u32_slice(self.build.rids());
        w.put_u32_slice(self.probe.keys());
        w.put_u32_slice(self.probe.rids());
    }

    /// Decodes a request payload, rejecting malformed tags, impossible
    /// cardinalities and trailing garbage.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on any structural problem.
    pub fn decode(payload: &[u8]) -> Result<WireRequest, WireError> {
        let mut r = PayloadReader::new(payload);
        let id = r.get_u64("request id")?;
        let algorithm = WireAlgorithm::from_u8(r.get_u8("algorithm tag")?)?;
        let scheme = WireScheme::from_u8(r.get_u8("scheme tag")?)?;
        let collect_pairs = match r.get_u8("collect flag")? {
            0 => false,
            1 => true,
            other => {
                return Err(WireError::Protocol {
                    detail: format!("collect flag must be 0 or 1, got {other}"),
                })
            }
        };
        let priority = r.get_u8("priority")?;
        let trace = decode_trace_flag(&mut r)?;
        let deadline_ms = r.get_u32("deadline")?;
        let build_len = r.get_u32("build cardinality")? as usize;
        let probe_len = r.get_u32("probe cardinality")? as usize;
        if build_len > MAX_WIRE_TUPLES || probe_len > MAX_WIRE_TUPLES {
            return Err(WireError::Protocol {
                detail: format!(
                    "request claims {build_len} x {probe_len} tuples, above the \
                     {MAX_WIRE_TUPLES}-tuple wire limit"
                ),
            });
        }
        let build_keys = r.get_u32_vec(build_len, "build keys")?;
        let build_rids = r.get_u32_vec(build_len, "build rids")?;
        let probe_keys = r.get_u32_vec(probe_len, "probe keys")?;
        let probe_rids = r.get_u32_vec(probe_len, "probe rids")?;
        r.expect_exhausted("request")?;
        Ok(WireRequest {
            id,
            algorithm,
            scheme,
            collect_pairs,
            priority,
            trace,
            deadline_ms,
            build: Relation::from_columns(build_rids, build_keys),
            probe: Relation::from_columns(probe_rids, probe_keys),
        })
    }
}

/// One decoded table-registration request: ship a named build-side
/// relation once, then reference it from [`WireRefRequest`]s.
/// Re-registering an existing name replaces its tuples and bumps the
/// registry version (cached hash tables of the old version are dropped).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRegister {
    /// Client-chosen correlation id, echoed on the acknowledgement.
    pub id: u64,
    /// Registry name (non-empty, at most `MAX_TABLE_NAME_BYTES` bytes).
    pub name: String,
    /// The build-side relation to register.
    pub tuples: Relation,
}

impl WireRegister {
    /// Encodes the registration into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the registration to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(24 + self.name.len() + 8 * self.tuples.len());
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_str(&self.name);
        w.put_u32(self.tuples.len() as u32);
        w.put_u32_slice(self.tuples.keys());
        w.put_u32_slice(self.tuples.rids());
    }

    /// Decodes a registration payload.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on a malformed name, an impossible
    /// cardinality or trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<WireRegister, WireError> {
        let mut r = PayloadReader::new(payload);
        let id = r.get_u64("register id")?;
        let name = r.get_str("table name")?;
        check_table_name(&name)?;
        let len = r.get_u32("table cardinality")? as usize;
        if len > MAX_WIRE_TUPLES {
            return Err(WireError::Protocol {
                detail: format!(
                    "registration claims {len} tuples, above the \
                     {MAX_WIRE_TUPLES}-tuple wire limit"
                ),
            });
        }
        let keys = r.get_u32_vec(len, "table keys")?;
        let rids = r.get_u32_vec(len, "table rids")?;
        r.expect_exhausted("register")?;
        Ok(WireRegister {
            id,
            name,
            tuples: Relation::from_columns(rids, keys),
        })
    }
}

/// Acknowledgement of a [`WireRegister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRegistered {
    /// Echo of the registration id.
    pub id: u64,
    /// Registry version of the name after this registration (1 for a new
    /// name, incremented on every replacement).
    pub version: u64,
    /// Tuple count the server holds under the name.
    pub tuples: u64,
}

impl WireRegistered {
    /// Encodes the acknowledgement.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the acknowledgement to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(24);
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u64(self.version);
        w.put_u64(self.tuples);
    }

    /// Decodes the acknowledgement.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireRegistered, WireError> {
        let mut r = PayloadReader::new(payload);
        let out = WireRegistered {
            id: r.get_u64("registered id")?,
            version: r.get_u64("registered version")?,
            tuples: r.get_u64("registered tuple count")?,
        };
        r.expect_exhausted("registered")?;
        Ok(out)
    }
}

/// One decoded table-referencing join request: the build side names a
/// registered table, only the probe relation travels inline.  The reply
/// stream is identical to a [`WireRequest`]'s.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRefRequest {
    /// Client-chosen correlation id, echoed on every frame of the reply.
    pub id: u64,
    /// Join algorithm tag.
    pub algorithm: WireAlgorithm,
    /// Co-processing scheme tag.
    pub scheme: WireScheme,
    /// Materialise and stream the pair set (otherwise only the match count
    /// is returned).
    pub collect_pairs: bool,
    /// Scheduling priority (see [`WireRequest::priority`]).
    pub priority: u8,
    /// Request a flight-recorder trace (see [`WireRequest::trace`]).
    pub trace: bool,
    /// Completion deadline in milliseconds from arrival; `0` means none.
    pub deadline_ms: u32,
    /// Name of the registered build-side table.
    pub table: String,
    /// Probe-side relation.
    pub probe: Relation,
}

impl WireRefRequest {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the request to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(32 + self.table.len() + 8 * self.probe.len());
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u8(self.algorithm as u8);
        w.put_u8(self.scheme as u8);
        w.put_u8(self.collect_pairs as u8);
        w.put_u8(self.priority);
        w.put_u8(self.trace as u8);
        w.put_u32(self.deadline_ms);
        w.put_str(&self.table);
        w.put_u32(self.probe.len() as u32);
        w.put_u32_slice(self.probe.keys());
        w.put_u32_slice(self.probe.rids());
    }

    /// Decodes a table-referencing request payload.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on any structural problem.
    pub fn decode(payload: &[u8]) -> Result<WireRefRequest, WireError> {
        let mut r = PayloadReader::new(payload);
        let id = r.get_u64("ref-request id")?;
        let algorithm = WireAlgorithm::from_u8(r.get_u8("algorithm tag")?)?;
        let scheme = WireScheme::from_u8(r.get_u8("scheme tag")?)?;
        let collect_pairs = match r.get_u8("collect flag")? {
            0 => false,
            1 => true,
            other => {
                return Err(WireError::Protocol {
                    detail: format!("collect flag must be 0 or 1, got {other}"),
                })
            }
        };
        let priority = r.get_u8("priority")?;
        let trace = decode_trace_flag(&mut r)?;
        let deadline_ms = r.get_u32("deadline")?;
        let table = r.get_str("table name")?;
        check_table_name(&table)?;
        let probe_len = r.get_u32("probe cardinality")? as usize;
        if probe_len > MAX_WIRE_TUPLES {
            return Err(WireError::Protocol {
                detail: format!(
                    "ref-request claims {probe_len} probe tuples, above the \
                     {MAX_WIRE_TUPLES}-tuple wire limit"
                ),
            });
        }
        let probe_keys = r.get_u32_vec(probe_len, "probe keys")?;
        let probe_rids = r.get_u32_vec(probe_len, "probe rids")?;
        r.expect_exhausted("ref-request")?;
        Ok(WireRefRequest {
            id,
            algorithm,
            scheme,
            collect_pairs,
            priority,
            trace,
            deadline_ms,
            table,
            probe: Relation::from_columns(probe_rids, probe_keys),
        })
    }
}

/// The scalar head of a successful reply; [`WireChunk`]s follow when pairs
/// were collected, closed by a [`WireDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Join match count.
    pub matches: u64,
    /// Total pairs that will be streamed (0 when pairs were not collected).
    pub pair_count: u64,
    /// Chunk frames that will follow.
    pub chunks: u32,
}

impl WireResponse {
    /// Encodes the response head.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the response head to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(28);
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u64(self.matches);
        w.put_u64(self.pair_count);
        w.put_u32(self.chunks);
    }

    /// Decodes a response head.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireResponse, WireError> {
        let mut r = PayloadReader::new(payload);
        let out = WireResponse {
            id: r.get_u64("response id")?,
            matches: r.get_u64("match count")?,
            pair_count: r.get_u64("pair count")?,
            chunks: r.get_u32("chunk count")?,
        };
        r.expect_exhausted("response")?;
        Ok(out)
    }
}

/// One bounded slice of a collected pair set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireChunk {
    /// Echo of the request id.
    pub id: u64,
    /// Zero-based chunk sequence number.
    pub seq: u32,
    /// `(build_rid, probe_rid)` pairs of this slice.
    pub pairs: Vec<(u32, u32)>,
}

impl WireChunk {
    /// Encodes the chunk.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the chunk to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        WireChunk::encode_pairs_into(self.id, self.seq, &self.pairs, out);
    }

    /// Appends a chunk straight from a borrowed slice of the pair set, so
    /// a sender streaming one result as many chunks copies no pairs into
    /// a `WireChunk` first.
    pub fn encode_pairs_into(id: u64, seq: u32, pairs: &[(u32, u32)], out: &mut Vec<u8>) {
        out.reserve(16 + 8 * pairs.len());
        let mut w = PayloadWriter::appending(out);
        w.put_u64(id);
        w.put_u32(seq);
        w.put_u32(pairs.len() as u32);
        w.put_u32_pairs(pairs);
    }

    /// Decodes a chunk.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireChunk, WireError> {
        let mut pairs = Vec::new();
        let (id, seq) = WireChunk::decode_into(payload, &mut pairs)?;
        Ok(WireChunk { id, seq, pairs })
    }

    /// Decodes a chunk, appending its pairs to `out` and returning its
    /// `(id, seq)`, so a receiver reassembles a result without a
    /// `Vec` per chunk.  On error `out` is left as it was.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub(crate) fn decode_into(
        payload: &[u8],
        out: &mut Vec<(u32, u32)>,
    ) -> Result<(u64, u32), WireError> {
        let mut r = PayloadReader::new(payload);
        let id = r.get_u64("chunk id")?;
        let seq = r.get_u32("chunk seq")?;
        let count = r.get_u32("chunk pair count")? as usize;
        let kept = out.len();
        // Bounds-checked before anything is appended; only trailing bytes
        // are found after.
        r.get_u32_pairs_into(count, "chunk pairs", out)?;
        if let Err(err) = r.expect_exhausted("chunk") {
            out.truncate(kept);
            return Err(err);
        }
        Ok((id, seq))
    }
}

/// Positive end-of-reply marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireDone {
    /// Echo of the request id.
    pub id: u64,
    /// Chunks that were streamed; the client cross-checks this against what
    /// it received, so a torn stream cannot masquerade as a short result.
    pub chunks: u32,
}

impl WireDone {
    /// Encodes the marker.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the marker to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(12);
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u32(self.chunks);
    }

    /// Decodes the marker.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireDone, WireError> {
        let mut r = PayloadReader::new(payload);
        let out = WireDone {
            id: r.get_u64("done id")?,
            chunks: r.get_u32("done chunk count")?,
        };
        r.expect_exhausted("done")?;
        Ok(out)
    }
}

/// Why a request was shed rather than served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShedReason {
    /// Estimated completion (queue wait + service estimate) would bust the
    /// request's deadline.
    Deadline = 0,
    /// The client's token-bucket quota is exhausted.
    Quota = 1,
    /// The server's queue-time budget is exhausted (backlog too deep for
    /// any new work, deadline or not).
    QueueBudget = 2,
    /// The engine's session pool and admission queue were both full.
    Saturated = 3,
}

impl ShedReason {
    fn from_u8(raw: u8) -> Result<Self, WireError> {
        match raw {
            0 => Ok(ShedReason::Deadline),
            1 => Ok(ShedReason::Quota),
            2 => Ok(ShedReason::QueueBudget),
            3 => Ok(ShedReason::Saturated),
            _ => Err(WireError::Protocol {
                detail: format!("unknown shed reason {raw}"),
            }),
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::Deadline => "deadline",
            ShedReason::Quota => "quota",
            ShedReason::QueueBudget => "queue-budget",
            ShedReason::Saturated => "saturated",
        }
    }
}

/// A typed shed notice: the request was well-formed but not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOverloaded {
    /// Echo of the request id.
    pub id: u64,
    /// Why the request was shed.
    pub reason: ShedReason,
    /// Suggested earliest retry, in milliseconds.
    pub retry_after_ms: u32,
    /// Requests in flight on the engine when the shed decision was made.
    pub in_flight: u32,
    /// Requests queued for a session at that moment.
    pub queued: u32,
}

impl WireOverloaded {
    /// Encodes the notice.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the notice to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(24);
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u8(self.reason as u8);
        w.put_u32(self.retry_after_ms);
        w.put_u32(self.in_flight);
        w.put_u32(self.queued);
    }

    /// Decodes the notice.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireOverloaded, WireError> {
        let mut r = PayloadReader::new(payload);
        let out = WireOverloaded {
            id: r.get_u64("overloaded id")?,
            reason: ShedReason::from_u8(r.get_u8("shed reason")?)?,
            retry_after_ms: r.get_u32("retry-after")?,
            in_flight: r.get_u32("in-flight")?,
            queued: r.get_u32("queued")?,
        };
        r.expect_exhausted("overloaded")?;
        Ok(out)
    }
}

/// Coarse failure classes the server reports back over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireErrorCode {
    /// The request frame decoded but named an invalid configuration.
    InvalidRequest = 1,
    /// The inputs exceed what the engine admits.
    Oversized = 2,
    /// The join failed during execution (arena exhaustion, backend error).
    Execution = 3,
    /// The peer violated the frame protocol (reported best-effort before
    /// the connection closes).
    Protocol = 4,
    /// The server failed internally (e.g. a panicked backend).
    Internal = 5,
    /// A table-referencing request named a table the registry does not
    /// hold (never registered, or the server restarted since).
    UnknownTable = 6,
}

impl WireErrorCode {
    fn from_u8(raw: u8) -> Result<Self, WireError> {
        match raw {
            1 => Ok(WireErrorCode::InvalidRequest),
            2 => Ok(WireErrorCode::Oversized),
            3 => Ok(WireErrorCode::Execution),
            4 => Ok(WireErrorCode::Protocol),
            5 => Ok(WireErrorCode::Internal),
            6 => Ok(WireErrorCode::UnknownTable),
            _ => Err(WireError::Protocol {
                detail: format!("unknown error code {raw}"),
            }),
        }
    }
}

/// A typed failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFailure {
    /// Echo of the request id (`0` for connection-level protocol errors
    /// that have no decodable request).
    pub id: u64,
    /// Failure class.
    pub code: WireErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireFailure {
    /// Encodes the failure.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the failure to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(16 + self.message.len());
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u8(self.code as u8);
        w.put_str(&self.message);
    }

    /// Decodes the failure.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireFailure, WireError> {
        let mut r = PayloadReader::new(payload);
        let out = WireFailure {
            id: r.get_u64("error id")?,
            code: WireErrorCode::from_u8(r.get_u8("error code")?)?,
            message: r.get_str("error message")?,
        };
        r.expect_exhausted("error")?;
        Ok(out)
    }
}

/// A request for a snapshot of the server engine's metrics registry.
///
/// Never admission-controlled: observability must keep working exactly when
/// the server is saturated and sheds join traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMetricsRequest {
    /// Client-chosen correlation id, echoed on the reply.
    pub id: u64,
}

impl WireMetricsRequest {
    /// Encodes the request.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the request to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(8);
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
    }

    /// Decodes the request.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireMetricsRequest, WireError> {
        let mut r = PayloadReader::new(payload);
        let out = WireMetricsRequest {
            id: r.get_u64("metrics id")?,
        };
        r.expect_exhausted("metrics request")?;
        Ok(out)
    }
}

/// The metrics snapshot, rendered in Prometheus text exposition format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMetricsReply {
    /// Echo of the request id.
    pub id: u64,
    /// The rendered exposition text (`# HELP` / `# TYPE` / samples).
    pub text: String,
}

impl WireMetricsReply {
    /// Encodes the reply.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the reply to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(12 + self.text.len());
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_str(&self.text);
    }

    /// Decodes the reply.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation, invalid UTF-8 or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> Result<WireMetricsReply, WireError> {
        let mut r = PayloadReader::new(payload);
        let out = WireMetricsReply {
            id: r.get_u64("metrics reply id")?,
            text: r.get_str("metrics text")?,
        };
        r.expect_exhausted("metrics reply")?;
        Ok(out)
    }
}

/// The per-join flight recorder of a traced request, streamed after
/// [`WireDone`] so clients that did not ask for a trace never see the
/// frame.
///
/// Payload layout: id `u64`, root span `u64`, a reserved `u64` (written
/// as 0, read and ignored; it keeps the version-2 layout), span count
/// `u32` and the spans, event count `u32` and the events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTrace {
    /// Echo of the request id.
    pub id: u64,
    /// The recorded trace (span tree + typed events).
    pub trace: JoinTrace,
}

impl WireTrace {
    /// Encodes the trace.
    pub fn encode(&self) -> Vec<u8> {
        encoded(|out| self.encode_into(out))
    }

    /// Appends the trace to `out`, after the bytes it already holds.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let t = &self.trace;
        out.reserve(64 + 48 * (t.spans.len() + t.events.len()));
        let mut w = PayloadWriter::appending(out);
        w.put_u64(self.id);
        w.put_u64(t.root);
        w.put_u64(0); // reserved
        w.put_u32(t.spans.len() as u32);
        for span in &t.spans {
            w.put_u64(span.id);
            w.put_u64(span.parent);
            w.put_str(&span.label);
            w.put_u64(span.start_ns);
            w.put_u64(span.duration_ns);
        }
        w.put_u32(t.events.len() as u32);
        for event in &t.events {
            w.put_u64(event.span);
            w.put_u64(event.at_ns);
            w.put_u8(event.kind.code());
            w.put_str(&event.label);
            w.put_u64(event.value);
        }
    }

    /// Decodes a trace payload.
    ///
    /// # Errors
    /// [`WireError::Protocol`] on truncation, an unknown event-kind code,
    /// hostile counts or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<WireTrace, WireError> {
        let mut r = PayloadReader::new(payload);
        let id = r.get_u64("trace id")?;
        let mut trace = JoinTrace {
            root: r.get_u64("trace root")?,
            ..JoinTrace::default()
        };
        r.get_u64("trace reserved slot")?;
        let span_count = r.get_u32("trace span count")? as usize;
        // A span costs ≥ 36 encoded bytes, an event ≥ 29: a hostile count
        // cannot reserve more than the payload could physically carry.
        trace.spans.reserve(span_count.min(payload.len() / 36 + 1));
        for _ in 0..span_count {
            trace.spans.push(TraceSpan {
                id: r.get_u64("span id")?,
                parent: r.get_u64("span parent")?,
                label: r.get_str("span label")?,
                start_ns: r.get_u64("span start")?,
                duration_ns: r.get_u64("span duration")?,
            });
        }
        let event_count = r.get_u32("trace event count")? as usize;
        trace
            .events
            .reserve(event_count.min(payload.len() / 29 + 1));
        for _ in 0..event_count {
            let span = r.get_u64("event span")?;
            let at_ns = r.get_u64("event timestamp")?;
            let code = r.get_u8("event kind")?;
            let kind = TraceEventKind::from_code(code).ok_or_else(|| WireError::Protocol {
                detail: format!("unknown trace event kind {code}"),
            })?;
            let label = r.get_str("event label")?;
            let value = r.get_u64("event value")?;
            trace.events.push(FlightEvent {
                span,
                at_ns,
                kind,
                label,
                value,
            });
        }
        r.expect_exhausted("trace")?;
        Ok(WireTrace { id, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> WireRequest {
        WireRequest {
            id: 42,
            algorithm: WireAlgorithm::Phj,
            scheme: WireScheme::Pipelined,
            collect_pairs: true,
            priority: 7,
            trace: true,
            deadline_ms: 250,
            build: Relation::from_columns(vec![0, 1, 2], vec![10, 20, 30]),
            probe: Relation::from_columns(vec![5, 6], vec![20, 30]),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        assert_eq!(WireRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn request_rejects_bad_tags_and_trailing_bytes() {
        let req = sample_request();
        let mut bytes = req.encode();
        bytes[8] = 99; // algorithm tag
        assert!(WireRequest::decode(&bytes).is_err());
        let mut bytes = req.encode();
        bytes.push(0);
        let err = WireRequest::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn request_rejects_hostile_cardinalities() {
        let req = sample_request();
        let mut bytes = req.encode();
        // The build-count field sits after id(8) + five u8 tags + deadline(4).
        bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = WireRequest::decode(&bytes).unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
    }

    #[test]
    fn scalar_messages_round_trip() {
        let resp = WireResponse {
            id: 1,
            matches: 2,
            pair_count: 3,
            chunks: 4,
        };
        assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);

        let chunk = WireChunk {
            id: 1,
            seq: 0,
            pairs: vec![(1, 2), (3, 4)],
        };
        assert_eq!(WireChunk::decode(&chunk.encode()).unwrap(), chunk);

        let done = WireDone { id: 1, chunks: 9 };
        assert_eq!(WireDone::decode(&done.encode()).unwrap(), done);

        let over = WireOverloaded {
            id: 8,
            reason: ShedReason::Deadline,
            retry_after_ms: 40,
            in_flight: 4,
            queued: 2,
        };
        assert_eq!(WireOverloaded::decode(&over.encode()).unwrap(), over);

        let fail = WireFailure {
            id: 3,
            code: WireErrorCode::Execution,
            message: "arena exhausted".into(),
        };
        assert_eq!(WireFailure::decode(&fail.encode()).unwrap(), fail);
    }

    fn sample_register() -> WireRegister {
        WireRegister {
            id: 11,
            name: "dim_dates".to_string(),
            tuples: Relation::from_columns(vec![0, 1, 2], vec![10, 20, 30]),
        }
    }

    fn sample_ref_request() -> WireRefRequest {
        WireRefRequest {
            id: 12,
            algorithm: WireAlgorithm::Phj,
            scheme: WireScheme::DataDividing,
            collect_pairs: true,
            priority: 3,
            trace: false,
            deadline_ms: 100,
            table: "dim_dates".to_string(),
            probe: Relation::from_columns(vec![5, 6], vec![20, 30]),
        }
    }

    #[test]
    fn register_round_trips() {
        let reg = sample_register();
        assert_eq!(WireRegister::decode(&reg.encode()).unwrap(), reg);
        let ack = WireRegistered {
            id: 11,
            version: 3,
            tuples: 3,
        };
        assert_eq!(WireRegistered::decode(&ack.encode()).unwrap(), ack);
    }

    #[test]
    fn register_rejects_bad_names_and_cardinalities() {
        let mut reg = sample_register();
        reg.name = String::new();
        let err = WireRegister::decode(&reg.encode()).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");

        let mut reg = sample_register();
        reg.name = "n".repeat(MAX_TABLE_NAME_BYTES + 1);
        let err = WireRegister::decode(&reg.encode()).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");

        let reg = sample_register();
        let mut bytes = reg.encode();
        // The cardinality field sits after id(8) + name length prefix(4) +
        // name bytes.
        let count_at = 12 + reg.name.len();
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = WireRegister::decode(&bytes).unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
    }

    #[test]
    fn ref_request_round_trips() {
        let req = sample_ref_request();
        assert_eq!(WireRefRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn ref_request_rejects_bad_tags_and_trailing_bytes() {
        let req = sample_ref_request();
        let mut bytes = req.encode();
        bytes[8] = 99; // algorithm tag
        assert!(WireRefRequest::decode(&bytes).is_err());
        let mut bytes = req.encode();
        bytes.push(0);
        let err = WireRefRequest::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");

        let mut req = sample_ref_request();
        req.table = String::new();
        let err = WireRefRequest::decode(&req.encode()).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn unknown_table_code_round_trips() {
        let fail = WireFailure {
            id: 3,
            code: WireErrorCode::UnknownTable,
            message: "no table named 'dim_dates'".into(),
        };
        assert_eq!(WireFailure::decode(&fail.encode()).unwrap(), fail);
    }

    #[test]
    fn bad_trace_flag_is_rejected() {
        let req = sample_request();
        let mut bytes = req.encode();
        // The trace flag is the fifth u8 tag, right after priority.
        bytes[12] = 7;
        let err = WireRequest::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trace flag"), "{err}");
    }

    #[test]
    fn metrics_messages_round_trip() {
        let req = WireMetricsRequest { id: 77 };
        assert_eq!(WireMetricsRequest::decode(&req.encode()).unwrap(), req);
        let reply = WireMetricsReply {
            id: 77,
            text: "# HELP hj_engine_requests_served_total Requests\n".to_string(),
        };
        assert_eq!(WireMetricsReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn trace_messages_round_trip() {
        let mut trace = JoinTrace::default();
        let root = trace.push_span(0, "join", 0, 500);
        let build = trace.push_span(root, "build", 10, 200);
        trace.push_event(build, 42, TraceEventKind::Step, "b1", 123);
        trace.push_event(root, 499, TraceEventKind::Spill, "bytes-spilled", 0);
        let wire = WireTrace { id: 9, trace };
        let bytes = wire.encode();
        assert_eq!(WireTrace::decode(&bytes).unwrap(), wire);
        // The reserved slot after the root is written as 0 and ignored on
        // decode.
        assert_eq!(bytes[16..24], [0; 8]);
        let mut reserved = bytes.clone();
        reserved[16..24].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(WireTrace::decode(&reserved).unwrap(), wire);
    }

    #[test]
    fn trace_rejects_unknown_event_kind_and_trailing_bytes() {
        let mut trace = JoinTrace::default();
        let root = trace.push_span(0, "join", 0, 1);
        trace.push_event(root, 0, TraceEventKind::Mark, "m", 0);
        let wire = WireTrace { id: 1, trace };
        let mut bytes = wire.encode();
        // The event-kind byte sits after id(8) + root(8) + reserved(8) +
        // span count(4) + one span (8+8+4+4 name bytes+8+8) + event
        // count(4) + event span(8) + event timestamp(8).
        let kind_at = 28 + 40 + 4 + 16;
        bytes[kind_at] = 0xEE;
        let err = WireTrace::decode(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unknown trace event kind"),
            "{err}"
        );

        let mut bytes = wire.encode();
        bytes.push(0);
        let err = WireTrace::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn encode_into_appends_what_encode_returns() {
        let prefix = b"kept".to_vec();
        let appended = |encode_into: &dyn Fn(&mut Vec<u8>)| {
            let mut out = prefix.clone();
            encode_into(&mut out);
            assert_eq!(out[..prefix.len()], prefix[..]);
            out.split_off(prefix.len())
        };
        let req = sample_request();
        assert_eq!(appended(&|out| req.encode_into(out)), req.encode());
        let ref_req = sample_ref_request();
        assert_eq!(appended(&|out| ref_req.encode_into(out)), ref_req.encode());
        let reg = sample_register();
        assert_eq!(appended(&|out| reg.encode_into(out)), reg.encode());
        let chunk = WireChunk {
            id: 5,
            seq: 2,
            pairs: vec![(1, 2), (3, 4), (5, 6)],
        };
        assert_eq!(appended(&|out| chunk.encode_into(out)), chunk.encode());
        assert_eq!(
            appended(&|out| WireChunk::encode_pairs_into(5, 2, &chunk.pairs, out)),
            chunk.encode()
        );
    }

    #[test]
    fn chunk_decode_into_appends_and_rejects_trailing_bytes() {
        let chunk = WireChunk {
            id: 5,
            seq: 2,
            pairs: vec![(1, 2), (3, 4)],
        };
        let mut pairs = vec![(9, 9)];
        assert_eq!(
            WireChunk::decode_into(&chunk.encode(), &mut pairs).unwrap(),
            (5, 2)
        );
        assert_eq!(pairs, [(9, 9), (1, 2), (3, 4)]);

        let mut bytes = chunk.encode();
        bytes.push(0);
        let err = WireChunk::decode_into(&bytes, &mut pairs).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        let bytes = chunk.encode();
        let err = WireChunk::decode_into(&bytes[..bytes.len() - 1], &mut pairs).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        assert_eq!(
            pairs,
            [(9, 9), (1, 2), (3, 4)],
            "a bad chunk appends nothing"
        );
    }

    #[test]
    fn shed_reasons_have_labels() {
        for reason in [
            ShedReason::Deadline,
            ShedReason::Quota,
            ShedReason::QueueBudget,
            ShedReason::Saturated,
        ] {
            assert!(!reason.label().is_empty());
        }
    }
}
