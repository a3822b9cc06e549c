//! A blocking TCP client for the serving layer.
//!
//! One [`JoinClient`] owns one connection and issues requests
//! sequentially — the intended unit of client-side parallelism is one
//! client per thread, which is also what the open-loop bench harness
//! does.  The client cross-checks the streamed chunk frames against the
//! response head and the final `Done` marker, so a torn reply surfaces as
//! a typed [`ClientError`] rather than a silently short pair set.

use crate::frame::{
    append_frame, read_frame_into, release_oversized, FrameType, WireError,
    DEFAULT_MAX_PAYLOAD_BYTES,
};
use crate::message::{
    ShedReason, WireChunk, WireDone, WireErrorCode, WireFailure, WireMetricsReply,
    WireMetricsRequest, WireOverloaded, WireRefRequest, WireRegister, WireRegistered, WireRequest,
    WireResponse, WireTrace,
};
use datagen::Relation;
use hj_metrics::JoinTrace;
use std::fmt;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything a request can come back as, other than success.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (includes read timeouts).
    Io(std::io::Error),
    /// The server's reply violated the wire protocol.
    Protocol {
        /// What did not parse.
        detail: String,
    },
    /// The request was shed by admission control — well-formed, retry
    /// after the hinted backoff.
    Overloaded {
        /// Why the request was shed.
        reason: ShedReason,
        /// Suggested earliest retry, in milliseconds.
        retry_after_ms: u32,
        /// Engine requests in flight when the shed decision was made.
        in_flight: u32,
        /// Engine requests queued at that moment.
        queued: u32,
    },
    /// The server reported a typed failure for this request.
    Server {
        /// Failure class.
        code: WireErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            ClientError::Overloaded {
                reason,
                retry_after_ms,
                ..
            } => write!(
                f,
                "request shed ({}); retry after {retry_after_ms} ms",
                reason.label()
            ),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol {
                detail: other.to_string(),
            },
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True when the error is a shed notice (retryable by design).
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Overloaded { .. })
    }
}

/// The decoded outcome of one served join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Join match count.
    pub matches: u64,
    /// The streamed `(build_rid, probe_rid)` pairs, in server order; empty
    /// when the request did not ask for pairs.
    pub pairs: Vec<(u32, u32)>,
    /// The per-join flight recorder, when the request set the trace flag
    /// and the server streamed one after `Done`.
    pub trace: Option<JoinTrace>,
}

/// A blocking connection to a join server.
///
/// The client keeps one send buffer and one receive buffer for as long as
/// it lives.  Each request is encoded straight into the send buffer and
/// leaves in one write; each reply frame is read into the receive buffer,
/// and collected pairs are decoded from it straight into
/// [`ClientOutcome::pairs`].  Once the buffers have grown to the largest
/// request and reply frame, a steady stream of requests allocates nothing
/// payload-sized on the client apart from the returned pairs.  A buffer
/// that one large message grew past
/// [`RETAINED_FRAME_BYTES`](crate::frame::RETAINED_FRAME_BYTES) is
/// released after that message.
#[derive(Debug)]
pub struct JoinClient {
    stream: TcpStream,
    next_id: u64,
    send: Vec<u8>,
    recv: Vec<u8>,
}

impl JoinClient {
    /// Connects to `addr` with no read timeout.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<JoinClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(JoinClient {
            stream,
            next_id: 1,
            send: Vec::new(),
            recv: Vec::new(),
        })
    }

    /// Connects to `addr` and bounds every read by `timeout` — a server
    /// that stops mid-reply surfaces as [`ClientError::Io`] instead of a
    /// hang.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the connection cannot be established.
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> Result<JoinClient, ClientError> {
        let client = JoinClient::connect(addr)?;
        client.stream.set_read_timeout(Some(timeout))?;
        Ok(client)
    }

    /// Sends `request` and blocks for the full reply.  The request's `id`
    /// field is overwritten with a connection-unique id.
    ///
    /// # Errors
    /// See [`ClientError`]; [`ClientError::Overloaded`] is the typed shed
    /// notice.
    pub fn join(&mut self, mut request: WireRequest) -> Result<ClientOutcome, ClientError> {
        request.id = self.take_id();
        self.round_trip(
            FrameType::Request,
            |out| request.encode_into(out),
            |client| client.read_reply(request.id, request.trace),
        )
    }

    /// Fetches a snapshot of the server engine's metrics registry in
    /// Prometheus text exposition format.  Never admission-controlled:
    /// this works exactly when the server sheds join traffic.
    ///
    /// # Errors
    /// See [`ClientError`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let id = self.take_id();
        self.round_trip(
            FrameType::Metrics,
            |out| WireMetricsRequest { id }.encode_into(out),
            |client| match client.recv_frame()? {
                FrameType::MetricsReply => {
                    let reply = WireMetricsReply::decode(&client.recv)?;
                    check_id(reply.id, id)?;
                    Ok(reply.text)
                }
                FrameType::Error => Err(client.failure()),
                other => Err(ClientError::Protocol {
                    detail: format!("expected a MetricsReply, got {other:?}"),
                }),
            },
        )
    }

    /// Registers `tuples` under `name` in the server's table registry and
    /// blocks for the acknowledgement.  Registering an existing name
    /// replaces its tuples and bumps the returned version; subsequent
    /// [`join_ref`](Self::join_ref) requests against the name hit the
    /// server's hash-table cache after the first build.
    ///
    /// # Errors
    /// See [`ClientError`]; a malformed name surfaces as
    /// [`ClientError::Server`] with a Protocol/InvalidRequest code.
    pub fn register_table(
        &mut self,
        name: &str,
        tuples: Relation,
    ) -> Result<WireRegistered, ClientError> {
        let id = self.take_id();
        let register = WireRegister {
            id,
            name: name.to_string(),
            tuples,
        };
        self.round_trip(
            FrameType::Register,
            |out| register.encode_into(out),
            |client| match client.recv_frame()? {
                FrameType::Registered => {
                    let ack = WireRegistered::decode(&client.recv)?;
                    check_id(ack.id, id)?;
                    Ok(ack)
                }
                FrameType::Error => Err(client.failure()),
                other => Err(ClientError::Protocol {
                    detail: format!("expected a Registered acknowledgement, got {other:?}"),
                }),
            },
        )
    }

    /// Sends a table-referencing `request` (build side named, probe
    /// inline) and blocks for the full reply.  The request's `id` field is
    /// overwritten with a connection-unique id.
    ///
    /// # Errors
    /// See [`ClientError`]; an unregistered name surfaces as
    /// [`ClientError::Server`] with [`WireErrorCode::UnknownTable`].
    pub fn join_ref(&mut self, mut request: WireRefRequest) -> Result<ClientOutcome, ClientError> {
        request.id = self.take_id();
        self.round_trip(
            FrameType::TableRef,
            |out| request.encode_into(out),
            |client| client.read_reply(request.id, request.trace),
        )
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// One message: the request frame is encoded into the send buffer and
    /// written in one call, `reply` reads the answer through the receive
    /// buffer, and then either buffer left larger than the retention cap
    /// is released.
    fn round_trip<T>(
        &mut self,
        frame_type: FrameType,
        encode: impl FnOnce(&mut Vec<u8>),
        reply: impl FnOnce(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.send.clear();
        append_frame(&mut self.send, frame_type, encode);
        let result = match self.stream.write_all(&self.send) {
            Ok(()) => reply(self),
            Err(err) => Err(err.into()),
        };
        release_oversized(&mut self.send);
        release_oversized(&mut self.recv);
        result
    }

    fn read_reply(&mut self, id: u64, expect_trace: bool) -> Result<ClientOutcome, ClientError> {
        let head = match self.recv_frame()? {
            FrameType::Response => WireResponse::decode(&self.recv)?,
            FrameType::Overloaded => {
                let over = WireOverloaded::decode(&self.recv)?;
                check_id(over.id, id)?;
                return Err(ClientError::Overloaded {
                    reason: over.reason,
                    retry_after_ms: over.retry_after_ms,
                    in_flight: over.in_flight,
                    queued: over.queued,
                });
            }
            FrameType::Error => return Err(self.failure()),
            other => {
                return Err(ClientError::Protocol {
                    detail: format!("expected a reply head, got a {other:?} frame"),
                })
            }
        };
        check_id(head.id, id)?;

        let mut pairs = Vec::with_capacity(head.pair_count.min(1 << 24) as usize);
        let mut seen_chunks = 0u32;
        loop {
            match self.recv_frame()? {
                FrameType::Chunk => {
                    let (chunk_id, seq) = WireChunk::decode_into(&self.recv, &mut pairs)?;
                    check_id(chunk_id, id)?;
                    if seq != seen_chunks {
                        return Err(ClientError::Protocol {
                            detail: format!(
                                "chunk arrived out of order: seq {seq} after {seen_chunks} chunks"
                            ),
                        });
                    }
                    seen_chunks += 1;
                }
                FrameType::Done => {
                    let done = WireDone::decode(&self.recv)?;
                    check_id(done.id, id)?;
                    if done.chunks != seen_chunks || head.chunks != seen_chunks {
                        return Err(ClientError::Protocol {
                            detail: format!(
                                "chunk count mismatch: head promised {}, done says {}, \
                                 received {seen_chunks}",
                                head.chunks, done.chunks
                            ),
                        });
                    }
                    if pairs.len() as u64 != head.pair_count {
                        return Err(ClientError::Protocol {
                            detail: format!(
                                "pair count mismatch: head promised {}, received {}",
                                head.pair_count,
                                pairs.len()
                            ),
                        });
                    }
                    let trace = if expect_trace {
                        self.read_trace(id)?
                    } else {
                        None
                    };
                    return Ok(ClientOutcome {
                        matches: head.matches,
                        pairs,
                        trace,
                    });
                }
                FrameType::Error => return Err(self.failure()),
                other => {
                    return Err(ClientError::Protocol {
                        detail: format!("expected a chunk or done frame, got {other:?}"),
                    })
                }
            }
        }
    }

    /// Reads the `Trace` frame a traced request's reply ends with.
    fn read_trace(&mut self, id: u64) -> Result<Option<JoinTrace>, ClientError> {
        match self.recv_frame()? {
            FrameType::Trace => {
                let wire = WireTrace::decode(&self.recv)?;
                check_id(wire.id, id)?;
                Ok(Some(wire.trace))
            }
            other => Err(ClientError::Protocol {
                detail: format!("expected the trace frame of a traced reply, got {other:?}"),
            }),
        }
    }

    /// Reads the next reply frame into the receive buffer.
    fn recv_frame(&mut self) -> Result<FrameType, ClientError> {
        match read_frame_into(&mut self.stream, DEFAULT_MAX_PAYLOAD_BYTES, &mut self.recv)? {
            Some(frame_type) => Ok(frame_type),
            None => Err(ClientError::Protocol {
                detail: "server closed the connection mid-reply".into(),
            }),
        }
    }

    /// The server's typed failure in the `Error` frame just received.
    fn failure(&self) -> ClientError {
        match WireFailure::decode(&self.recv) {
            Ok(fail) => ClientError::Server {
                code: fail.code,
                message: fail.message,
            },
            Err(err) => err.into(),
        }
    }
}

fn check_id(got: u64, expected: u64) -> Result<(), ClientError> {
    if got != expected {
        return Err(ClientError::Protocol {
            detail: format!("reply for request {got} while waiting on {expected}"),
        });
    }
    Ok(())
}

/// A convenience builder for [`WireRequest`]s sent through [`JoinClient`].
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    request: WireRequest,
}

impl RequestBuilder {
    /// A request joining `build` against `probe` with the crate defaults
    /// (simple hash join, CPU only, count-only, no deadline).
    pub fn new(build: Relation, probe: Relation) -> Self {
        RequestBuilder {
            request: WireRequest {
                id: 0,
                algorithm: crate::message::WireAlgorithm::Shj,
                scheme: crate::message::WireScheme::CpuOnly,
                collect_pairs: false,
                priority: 0,
                trace: false,
                deadline_ms: 0,
                build,
                probe,
            },
        }
    }

    /// Sets the algorithm tag.
    pub fn algorithm(mut self, algorithm: crate::message::WireAlgorithm) -> Self {
        self.request.algorithm = algorithm;
        self
    }

    /// Sets the scheme tag.
    pub fn scheme(mut self, scheme: crate::message::WireScheme) -> Self {
        self.request.scheme = scheme;
        self
    }

    /// Requests the materialised pair set, streamed in chunks.
    pub fn collect_pairs(mut self, collect: bool) -> Self {
        self.request.collect_pairs = collect;
        self
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, priority: u8) -> Self {
        self.request.priority = priority;
        self
    }

    /// Sets the completion deadline in milliseconds (`0`: none).
    pub fn deadline_ms(mut self, ms: u32) -> Self {
        self.request.deadline_ms = ms;
        self
    }

    /// Asks the server for a per-join flight recorder, delivered on
    /// [`ClientOutcome::trace`].
    pub fn trace(mut self, trace: bool) -> Self {
        self.request.trace = trace;
        self
    }

    /// The finished request.
    pub fn build(self) -> WireRequest {
        self.request
    }
}

/// A convenience builder for [`WireRefRequest`]s sent through
/// [`JoinClient::join_ref`].
#[derive(Debug, Clone)]
pub struct RefRequestBuilder {
    request: WireRefRequest,
}

impl RefRequestBuilder {
    /// A request joining the registered table `table` against `probe` with
    /// the crate defaults (simple hash join, CPU only, count-only, no
    /// deadline).
    pub fn new(table: impl Into<String>, probe: Relation) -> Self {
        RefRequestBuilder {
            request: WireRefRequest {
                id: 0,
                algorithm: crate::message::WireAlgorithm::Shj,
                scheme: crate::message::WireScheme::CpuOnly,
                collect_pairs: false,
                priority: 0,
                trace: false,
                deadline_ms: 0,
                table: table.into(),
                probe,
            },
        }
    }

    /// Sets the algorithm tag.
    pub fn algorithm(mut self, algorithm: crate::message::WireAlgorithm) -> Self {
        self.request.algorithm = algorithm;
        self
    }

    /// Sets the scheme tag.
    pub fn scheme(mut self, scheme: crate::message::WireScheme) -> Self {
        self.request.scheme = scheme;
        self
    }

    /// Requests the materialised pair set, streamed in chunks.
    pub fn collect_pairs(mut self, collect: bool) -> Self {
        self.request.collect_pairs = collect;
        self
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, priority: u8) -> Self {
        self.request.priority = priority;
        self
    }

    /// Sets the completion deadline in milliseconds (`0`: none).
    pub fn deadline_ms(mut self, ms: u32) -> Self {
        self.request.deadline_ms = ms;
        self
    }

    /// Asks the server for a per-join flight recorder, delivered on
    /// [`ClientOutcome::trace`].
    pub fn trace(mut self, trace: bool) -> Self {
        self.request.trace = trace;
        self
    }

    /// The finished request.
    pub fn build(self) -> WireRefRequest {
        self.request
    }
}
