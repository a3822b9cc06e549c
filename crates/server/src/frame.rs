//! The length-prefixed, checksummed binary frame layer of the wire
//! protocol.
//!
//! Every message on a connection — in either direction — is one *frame*:
//!
//! ```text
//! [magic: "HJW\x01"] [version: u8] [frame_type: u8] [reserved: u16 LE]
//! [payload_len: u32 LE] [checksum: u64 LE] [payload: payload_len bytes]
//! ```
//!
//! The checksum is [`datagen::checksum64`] over the payload — XXH64 with
//! seed 0, the same function the spill run files and the table files
//! record — verified on every read: a torn write, a proxy mangling bytes or
//! a client speaking a different protocol surfaces as a typed [`WireError`]
//! instead of a silently wrong join result or a hung peer.  `payload_len`
//! is validated against a receiver-chosen ceiling *before* any allocation,
//! so a corrupted length cannot drive an OOM before the checksum even runs.
//!
//! Version 1 of the protocol recorded FNV-1a 64 in the same eight bytes: a
//! byte-at-a-time multiply chain that ran at ~0.85 GB/s, which made the
//! checksum of a 131 KB chunk frame (~155 µs each way) cost more than the
//! join it carried.  XXH64 reads 32 bytes per step into four independent
//! lanes and runs at ~13 GB/s on the same 2-vCPU host (10 µs for that
//! frame; `hjbench` reads ~9 µs for `frame.write_us`, copy included, and
//! ~10 µs for `frame.read_us` through [`read_frame`]'s fresh buffer,
//! allocation included).  The layout did
//! not change, only the meaning of the recorded value, so [`VERSION`] went
//! to 2 and a version 1 peer gets [`WireError::Version`] — checked before
//! the checksum is looked at — never [`WireError::Corrupt`].
//!
//! # Reused buffers
//!
//! [`read_frame_into`] and [`append_frame`] read and write frames through
//! a caller's `Vec<u8>`, which keeps its capacity from one frame to the
//! next: the payload is read into reserved capacity, never zero-filled,
//! and a frame is encoded in place behind a header patched afterwards.
//! The serving front-end keeps one read and one reply buffer per
//! connection, and [`JoinClient`] one send and one receive buffer, so once
//! they have grown to a workload's frames a request allocates, zero-fills
//! and faults in no payload-sized buffer.  Without that, glibc handed each
//! request's fresh ~200 KB buffers back to the kernel and faulted them in
//! again: ~500 k minor faults/s at ~5 300 `wire_closed` joins/s.  A buffer
//! one message left larger than [`RETAINED_FRAME_BYTES`] is released by
//! [`release_oversized`] after it, so a connection holds at most
//! 2 × [`RETAINED_FRAME_BYTES`] between messages.  [`read_frame`] is
//! [`read_frame_into`] over a fresh buffer, and every writer shares one
//! header routine, so the bytes on the wire do not depend on the path.
//!
//! [`JoinClient`]: crate::client::JoinClient

use datagen::checksum64;
use std::fmt;
use std::io::{self, Read, Write};

/// First bytes of every frame; the trailing `\x01` doubles as a protocol
/// generation marker, distinct from the version byte that follows.
pub const MAGIC: [u8; 4] = *b"HJW\x01";

/// Wire-protocol version this build speaks (2 since the frame checksum
/// became XXH64).
pub const VERSION: u8 = 2;

/// Bytes of the fixed frame header.
pub const HEADER_BYTES: usize = 4 + 1 + 1 + 2 + 4 + 8;

/// Default ceiling on a frame payload (64 MiB) — large enough for the
/// engine-sized relations the examples ship, small enough that a corrupt
/// length field cannot ask for gigabytes.
pub const DEFAULT_MAX_PAYLOAD_BYTES: usize = 64 * 1024 * 1024;

/// Capacity a reused frame buffer may keep between messages (1 MiB).  A
/// connection's read and reply buffers and a [`JoinClient`]'s send and
/// receive buffers keep their capacity from one message to the next, so a
/// steady stream of requests allocates nothing payload-sized; after a
/// message that grew one past this size, [`release_oversized`] frees it,
/// so one 64 MiB frame does not pin 64 MiB for the connection's life.
///
/// [`JoinClient`]: crate::client::JoinClient
pub const RETAINED_FRAME_BYTES: usize = 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: one join request (header + inline relations).
    Request = 1,
    /// Server → client: the scalar outcome of an admitted, completed join
    /// (match count, pair count, how many chunk frames follow).
    Response = 2,
    /// Server → client: one bounded slice of the collected pair set.
    Chunk = 3,
    /// Server → client: positive end-of-response marker (chunk count echo),
    /// so a torn stream can never be mistaken for a short result.
    Done = 4,
    /// Server → client: the request failed (typed code + message).
    Error = 5,
    /// Server → client: the request was *shed* — not admitted — with a
    /// retry hint.  Distinct from [`FrameType::Error`]: the request was
    /// well-formed and would have been served off-peak.
    Overloaded = 6,
    /// Client → server: register a named build-side table with the engine's
    /// table registry so later joins can reference it by name instead of
    /// re-shipping (and re-building) it per request.
    Register = 7,
    /// Server → client: acknowledgement of a [`FrameType::Register`] —
    /// echoes the name's registry version and tuple count.
    Registered = 8,
    /// Client → server: one join request whose build side is a registered
    /// table named by string; only the probe relation travels inline.  On
    /// the server this takes the probe-only hot path of the hash-table
    /// cache.
    TableRef = 9,
    /// Client → server: ask for a snapshot of the engine's metrics
    /// registry (no join involved; never admission-controlled).
    Metrics = 10,
    /// Server → client: the metrics snapshot, rendered in Prometheus text
    /// exposition format.
    MetricsReply = 11,
    /// Server → client: the per-join flight recorder of a traced request,
    /// sent *after* [`FrameType::Done`] so untraced readers are untouched.
    Trace = 12,
}

impl FrameType {
    fn from_u8(raw: u8) -> Option<FrameType> {
        Some(match raw {
            1 => FrameType::Request,
            2 => FrameType::Response,
            3 => FrameType::Chunk,
            4 => FrameType::Done,
            5 => FrameType::Error,
            6 => FrameType::Overloaded,
            7 => FrameType::Register,
            8 => FrameType::Registered,
            9 => FrameType::TableRef,
            10 => FrameType::Metrics,
            11 => FrameType::MetricsReply,
            12 => FrameType::Trace,
            _ => return None,
        })
    }
}

/// Why a frame (or a whole message) could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// An operating-system I/O failure (includes read timeouts).
    Io(io::Error),
    /// The peer does not speak this protocol, sent a malformed header, a
    /// structurally truncated frame, or an undecodable payload.
    Protocol {
        /// What did not parse.
        detail: String,
    },
    /// The frame parsed but its payload failed the checksum.
    Corrupt {
        /// What did not add up.
        detail: String,
    },
    /// The header claims a payload larger than the receiver accepts.
    Oversized {
        /// Claimed payload length in bytes.
        len: usize,
        /// The receiver's ceiling in bytes.
        max: usize,
    },
    /// The peer speaks a different protocol version.
    Version {
        /// The version byte the peer sent.
        got: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            WireError::Corrupt { detail } => write!(f, "corrupt frame: {detail}"),
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: payload of {len} B exceeds the {max} B limit"
                )
            }
            WireError::Version { got } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks v{got}, this build v{VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// The fixed header of a frame carrying `payload`: the one routine every
/// writer ([`write_frame`], [`append_frame`]) goes through.
fn frame_header(frame_type: FrameType, payload: &[u8]) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = frame_type as u8;
    // header[6..8] reserved, zero.
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[12..20].copy_from_slice(&checksum64(payload).to_le_bytes());
    header
}

/// Writes one frame (header + checksummed payload).  Does **not** flush:
/// a message is often several frames (`Response` + `Chunk`s + `Done`), so
/// the caller flushes its buffered writer once per message and propagates
/// that error.
///
/// # Errors
/// [`WireError::Io`] when the underlying write fails.
pub fn write_frame<W: Write>(
    w: &mut W,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<(), WireError> {
    w.write_all(&frame_header(frame_type, payload))?;
    w.write_all(payload)?;
    Ok(())
}

/// Appends one whole frame to `out`, whose existing bytes are kept: a
/// header is reserved, `encode` appends the payload after it, and the
/// length and checksum are patched in.  The bytes are those
/// [`write_frame`] would write for the same payload, and a buffer that
/// already has the capacity is not reallocated.
pub fn append_frame(out: &mut Vec<u8>, frame_type: FrameType, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_BYTES]);
    encode(out);
    let header = frame_header(frame_type, &out[start + HEADER_BYTES..]);
    out[start..start + HEADER_BYTES].copy_from_slice(&header);
}

/// Releases `buf` when a large frame left it holding more than
/// [`RETAINED_FRAME_BYTES`] of capacity; smaller buffers are kept for the
/// next message.
pub fn release_oversized(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_FRAME_BYTES {
        *buf = Vec::new();
    }
}

/// Reads one frame, verifying magic, version, type, length ceiling and
/// checksum.  Returns `Ok(None)` on a clean end of stream (the peer closed
/// between frames).  A wrapper over [`read_frame_into`] with a fresh
/// buffer.
///
/// # Errors
/// As [`read_frame_into`].
pub fn read_frame<R: Read>(
    r: &mut R,
    max_payload: usize,
) -> Result<Option<(FrameType, Vec<u8>)>, WireError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, max_payload, &mut payload)?.map(|frame_type| (frame_type, payload)))
}

/// Reads one frame into `payload`, replacing its contents, and returns its
/// type; `Ok(None)` on a clean end of stream (the peer closed between
/// frames).  The payload is read into reserved capacity, never
/// zero-filled first, so a buffer reused across frames costs no
/// allocation once it has grown to the largest frame.  The checks run in
/// order: magic, version, type, the length ceiling (before any
/// reservation), then the checksum.  After an error `payload` holds
/// unspecified bytes.
///
/// # Errors
/// * [`WireError::Protocol`] for bad magic, an unknown frame type, or a
///   stream that ends mid-header / mid-payload (a *torn* frame);
/// * [`WireError::Version`] for a version byte this build does not speak;
/// * [`WireError::Oversized`] when the header claims more than
///   `max_payload` bytes (checked before any allocation);
/// * [`WireError::Corrupt`] when the payload fails its checksum;
/// * [`WireError::Io`] for underlying read failures (including timeouts).
pub fn read_frame_into<R: Read>(
    r: &mut R,
    max_payload: usize,
    payload: &mut Vec<u8>,
) -> Result<Option<FrameType>, WireError> {
    payload.clear();
    let mut header = [0u8; HEADER_BYTES];
    match read_exact_or_eof(r, &mut header)? {
        Filled::Eof => return Ok(None),
        Filled::Partial(got) => {
            return Err(WireError::Protocol {
                detail: format!("stream ended after {got} of {HEADER_BYTES} header bytes"),
            })
        }
        Filled::Complete => {}
    }
    if header[0..4] != MAGIC {
        return Err(WireError::Protocol {
            detail: format!("bad magic {:02x?} (expected {:02x?})", &header[0..4], MAGIC),
        });
    }
    if header[4] != VERSION {
        return Err(WireError::Version { got: header[4] });
    }
    let Some(frame_type) = FrameType::from_u8(header[5]) else {
        return Err(WireError::Protocol {
            detail: format!("unknown frame type {}", header[5]),
        });
    };
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 header bytes")) as usize;
    if len > max_payload {
        return Err(WireError::Oversized {
            len,
            max: max_payload,
        });
    }
    let recorded = u64::from_le_bytes(header[12..20].try_into().expect("8 header bytes"));
    payload.reserve(len);
    r.by_ref().take(len as u64).read_to_end(payload)?;
    if payload.len() != len {
        return Err(WireError::Protocol {
            detail: format!("stream ended inside a {len} B payload (torn frame)"),
        });
    }
    let actual = checksum64(payload);
    if actual != recorded {
        return Err(WireError::Corrupt {
            detail: format!("payload checksum {actual:#018x} != recorded {recorded:#018x}"),
        });
    }
    Ok(Some(frame_type))
}

enum Filled {
    Complete,
    Eof,
    Partial(usize),
}

/// `read_exact`, but distinguishing "clean EOF before any byte" from "EOF
/// mid-buffer" — the former is a peer hanging up between frames, the latter
/// a torn frame.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<Filled> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial(filled)
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Filled::Complete)
}

// ---------------------------------------------------------------------------
// Little-endian payload cursors
// ---------------------------------------------------------------------------

/// Appends little-endian scalars to a caller's payload buffer, after the
/// bytes it already holds.
#[derive(Debug)]
pub(crate) struct PayloadWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> PayloadWriter<'a> {
    /// A writer appending to `buf`.
    pub(crate) fn appending(buf: &'a mut Vec<u8>) -> Self {
        PayloadWriter { buf }
    }

    /// Appends one byte.
    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little endian).
    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little endian).
    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` column without a length prefix (the caller encodes
    /// the count separately).
    pub(crate) fn put_u32_slice(&mut self, vs: &[u32]) {
        // Sized and written as whole 4-byte words: a block copy on a
        // little-endian host, not a capacity check per element.
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 4, 0);
        for (word, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            word.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends `(u32, u32)` pairs, each as two consecutive little-endian
    /// words, without a length prefix.
    pub(crate) fn put_u32_pairs(&mut self, pairs: &[(u32, u32)]) {
        let start = self.buf.len();
        self.buf.resize(start + pairs.len() * 8, 0);
        for (words, &(a, b)) in self.buf[start..].chunks_exact_mut(8).zip(pairs) {
            words[..4].copy_from_slice(&a.to_le_bytes());
            words[4..].copy_from_slice(&b.to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Reads little-endian scalars from a payload, bounds-checked: running off
/// the end is a typed [`WireError::Protocol`], never a panic.
#[derive(Debug)]
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A cursor over `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(WireError::Protocol {
                detail: format!(
                    "payload truncated reading {what}: need {n} B at offset {} of {}",
                    self.pos,
                    self.buf.len()
                ),
            }),
        }
    }

    /// Reads one byte.
    pub(crate) fn get_u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u32` (little endian).
    pub(crate) fn get_u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64` (little endian).
    pub(crate) fn get_u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `count` little-endian `u32`s.
    pub(crate) fn get_u32_vec(&mut self, count: usize, what: &str) -> Result<Vec<u32>, WireError> {
        let bytes = self.take(count.saturating_mul(4), what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Appends `count` pairs written by [`PayloadWriter::put_u32_pairs`] to
    /// `out`.  The bounds check comes first, so a hostile count fails
    /// before any allocation and appends nothing.
    pub(crate) fn get_u32_pairs_into(
        &mut self,
        count: usize,
        what: &str,
        out: &mut Vec<(u32, u32)>,
    ) -> Result<(), WireError> {
        let bytes = self.take(count.saturating_mul(8), what)?;
        out.extend(bytes.chunks_exact(8).map(|c| {
            (
                u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
            )
        }));
        Ok(())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub(crate) fn get_str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Protocol {
            detail: format!("{what} is not valid UTF-8"),
        })
    }

    /// True when every payload byte has been consumed — decoders check this
    /// so a frame with trailing garbage is rejected, not silently accepted.
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with a protocol error unless the payload was fully consumed.
    pub(crate) fn expect_exhausted(&self, what: &str) -> Result<(), WireError> {
        if self.exhausted() {
            Ok(())
        } else {
            Err(WireError::Protocol {
                detail: format!(
                    "{what} carries {} trailing bytes past its declared content",
                    self.buf.len() - self.pos
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"hello").unwrap();
        write_frame(&mut buf, FrameType::Done, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        let (t, p) = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(t, FrameType::Request);
        assert_eq!(p, b"hello");
        let (t, p) = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(t, FrameType::Done);
        assert!(p.is_empty());
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn bad_magic_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"x").unwrap();
        buf[0] ^= 0xff;
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"x").unwrap();
        buf[4] = 9;
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Version { got: 9 }), "{err}");
    }

    #[test]
    fn a_version_1_frame_is_a_version_error_before_its_checksum_is_read() {
        // What a version 1 writer produced: same layout, another function's
        // value in the checksum field.
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"abcdef").unwrap();
        buf[4] = 1;
        for byte in &mut buf[12..20] {
            *byte ^= 0xa5;
        }
        let err = read_frame(&mut io::Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Version { got: 1 }), "{err}");
        // The same bytes under this build's version are corrupt.
        buf[4] = VERSION;
        let err = read_frame(&mut io::Cursor::new(&buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn unknown_frame_type_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"x").unwrap();
        buf[5] = 200;
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
    }

    #[test]
    fn torn_header_and_torn_payload_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"payload").unwrap();
        // Mid-header cut.
        let err = read_frame(&mut io::Cursor::new(&buf[..HEADER_BYTES - 3]), 1024).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        // Mid-payload cut.
        let err = read_frame(&mut io::Cursor::new(&buf[..buf.len() - 2]), 1024).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"abc").unwrap();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert!(
            matches!(err, WireError::Oversized { len, max: 1024 } if len == u32::MAX as usize),
            "{err}"
        );
    }

    #[test]
    fn a_payload_of_exactly_max_payload_is_accepted_and_one_byte_more_is_not() {
        let payload = [7u8; 64];
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, &payload).unwrap();
        let (t, p) = read_frame(&mut io::Cursor::new(&buf), 64).unwrap().unwrap();
        assert_eq!((t, p.as_slice()), (FrameType::Request, &payload[..]));
        let err = read_frame(&mut io::Cursor::new(&buf), 63).unwrap_err();
        assert!(
            matches!(err, WireError::Oversized { len: 64, max: 63 }),
            "{err}"
        );
    }

    #[test]
    fn checksum_flip_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"abcdef").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn write_frame_leaves_the_flush_to_the_caller() {
        /// Counts flushes; bytes go to the inner buffer.
        struct Sink(Vec<u8>, usize);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.1 += 1;
                Ok(())
            }
        }
        let mut sink = Sink(Vec::new(), 0);
        write_frame(&mut sink, FrameType::Response, b"head").unwrap();
        write_frame(&mut sink, FrameType::Done, b"").unwrap();
        assert_eq!(sink.1, 0, "a message's frames share the caller's flush");
        let mut cursor = io::Cursor::new(sink.0);
        for expected in [FrameType::Response, FrameType::Done] {
            assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap().0, expected);
        }
    }

    #[test]
    fn a_reused_buffer_holds_exactly_the_new_payload() {
        let long = vec![0xabu8; 300];
        let mut stream = Vec::new();
        write_frame(&mut stream, FrameType::Request, &long).unwrap();
        write_frame(&mut stream, FrameType::Chunk, b"short").unwrap();
        write_frame(&mut stream, FrameType::Done, b"").unwrap();
        let mut cursor = io::Cursor::new(stream);
        let mut payload = Vec::new();
        let read = read_frame_into(&mut cursor, 1024, &mut payload).unwrap();
        assert_eq!(
            (read, payload.as_slice()),
            (Some(FrameType::Request), &long[..])
        );
        let read = read_frame_into(&mut cursor, 1024, &mut payload).unwrap();
        assert_eq!(
            (read, payload.as_slice()),
            (Some(FrameType::Chunk), &b"short"[..])
        );
        assert!(payload.capacity() >= long.len(), "the capacity is kept");
        let read = read_frame_into(&mut cursor, 1024, &mut payload).unwrap();
        assert_eq!((read, payload.len()), (Some(FrameType::Done), 0));
        assert_eq!(
            read_frame_into(&mut cursor, 1024, &mut payload).unwrap(),
            None
        );
    }

    #[test]
    fn a_used_buffer_still_gets_every_typed_error() {
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameType::Request, b"abcdef").unwrap();
        let used = || vec![0x5au8; 4096];

        let mut payload = used();
        let torn = &frame[..frame.len() - 2];
        let err = read_frame_into(&mut io::Cursor::new(torn), 1024, &mut payload).unwrap_err();
        assert!(
            matches!(&err, WireError::Protocol { detail } if detail.contains("torn")),
            "{err}"
        );

        let mut payload = used();
        let mut oversized = frame.clone();
        oversized[8..12].copy_from_slice(&2048u32.to_le_bytes());
        let err = read_frame_into(&mut io::Cursor::new(oversized), 1024, &mut payload).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::Oversized {
                    len: 2048,
                    max: 1024
                }
            ),
            "{err}"
        );

        let mut payload = used();
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let err = read_frame_into(&mut io::Cursor::new(corrupt), 1024, &mut payload).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn appended_frames_are_the_bytes_write_frame_writes() {
        let mut written = Vec::new();
        write_frame(&mut written, FrameType::Response, b"head").unwrap();
        write_frame(&mut written, FrameType::Chunk, &[7u8; 100]).unwrap();
        write_frame(&mut written, FrameType::Done, b"").unwrap();
        let mut appended = Vec::new();
        append_frame(&mut appended, FrameType::Response, |out| {
            out.extend_from_slice(b"head")
        });
        append_frame(&mut appended, FrameType::Chunk, |out| {
            PayloadWriter::appending(out).put_u32_slice(&[0x0707_0707; 25])
        });
        append_frame(&mut appended, FrameType::Done, |_| {});
        assert_eq!(appended, written);
    }

    #[test]
    fn only_buffers_over_the_retention_cap_are_released() {
        let mut kept = Vec::<u8>::with_capacity(RETAINED_FRAME_BYTES);
        release_oversized(&mut kept);
        assert_eq!(kept.capacity(), RETAINED_FRAME_BYTES);
        let mut released = Vec::<u8>::with_capacity(RETAINED_FRAME_BYTES + 1);
        release_oversized(&mut released);
        assert_eq!(released.capacity(), 0);
    }

    #[test]
    fn column_and_pair_codecs_round_trip() {
        let column: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x0101_0101)).collect();
        let pairs: Vec<(u32, u32)> = (0..333).map(|i| (i, u32::MAX - i)).collect();
        let mut bytes = Vec::new();
        let mut w = PayloadWriter::appending(&mut bytes);
        w.put_u8(9); // misalign what follows
        w.put_u32_slice(&column);
        w.put_u32_pairs(&pairs);
        w.put_u32_slice(&[]);
        assert_eq!(bytes.len(), 1 + 4 * column.len() + 8 * pairs.len());
        assert_eq!(bytes[1..5], column[0].to_le_bytes());
        assert_eq!(bytes[5..9], column[1].to_le_bytes());
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u8("tag").unwrap(), 9);
        assert_eq!(r.get_u32_vec(column.len(), "column").unwrap(), column);
        let mut got = vec![(7, 7)];
        r.get_u32_pairs_into(pairs.len(), "pairs", &mut got)
            .unwrap();
        assert_eq!(got[1..], pairs[..]);
        assert!(r.expect_exhausted("payload").is_ok());
        // A count the payload cannot carry fails before any allocation.
        let mut r = PayloadReader::new(&bytes);
        assert!(r.get_u32_pairs_into(usize::MAX, "pairs", &mut got).is_err());
        assert!(r.get_u32_vec(usize::MAX / 2, "column").is_err());
    }

    #[test]
    fn payload_reader_is_bounds_checked() {
        let mut bytes = Vec::new();
        let mut w = PayloadWriter::appending(&mut bytes);
        w.put_u32(7);
        w.put_str("hi");
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u32("seven").unwrap(), 7);
        assert_eq!(r.get_str("greeting").unwrap(), "hi");
        assert!(r.expect_exhausted("test payload").is_ok());
        let err = r.get_u64("past the end").unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Vec::new();
        let mut w = PayloadWriter::appending(&mut bytes);
        w.put_u8(1);
        w.put_u8(2);
        let mut r = PayloadReader::new(&bytes);
        r.get_u8("one").unwrap();
        let err = r.expect_exhausted("short message").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
