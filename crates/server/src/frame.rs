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
//! frame; `hjbench` reads 12 µs for `frame.write_us` and 15 µs for
//! `frame.read_us`, copy and allocation included).  The layout did
//! not change, only the meaning of the recorded value, so [`VERSION`] went
//! to 2 and a version 1 peer gets [`WireError::Version`] — checked before
//! the checksum is looked at — never [`WireError::Corrupt`].

use datagen::checksum64;
use std::fmt;
use std::io::{self, BufWriter, Read, Write};

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
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = frame_type as u8;
    // header[6..8] reserved, zero.
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[12..20].copy_from_slice(&checksum64(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Sends a one-frame message: header and payload leave through one buffer,
/// flushed once, and the flush error is the caller's to see (a dropped
/// `BufWriter` would swallow it).
///
/// # Errors
/// [`WireError::Io`] when the write or the flush fails.
pub fn send_frame<W: Write>(
    stream: W,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<(), WireError> {
    let mut w = BufWriter::new(stream);
    write_frame(&mut w, frame_type, payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying magic, version, type, length ceiling and
/// checksum.  Returns `Ok(None)` on a clean end of stream (the peer closed
/// between frames).
///
/// # Errors
/// * [`WireError::Protocol`] for bad magic, an unknown frame type, or a
///   stream that ends mid-header / mid-payload (a *torn* frame);
/// * [`WireError::Version`] for a version byte this build does not speak;
/// * [`WireError::Oversized`] when the header claims more than
///   `max_payload` bytes (checked before any allocation);
/// * [`WireError::Corrupt`] when the payload fails its checksum;
/// * [`WireError::Io`] for underlying read failures (including timeouts).
pub fn read_frame<R: Read>(
    r: &mut R,
    max_payload: usize,
) -> Result<Option<(FrameType, Vec<u8>)>, WireError> {
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
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        Filled::Complete => {}
        Filled::Eof | Filled::Partial(_) => {
            return Err(WireError::Protocol {
                detail: format!("stream ended inside a {len} B payload (torn frame)"),
            })
        }
    }
    let actual = checksum64(&payload);
    if actual != recorded {
        return Err(WireError::Corrupt {
            detail: format!("payload checksum {actual:#018x} != recorded {recorded:#018x}"),
        });
    }
    Ok(Some((frame_type, payload)))
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

/// Appends little-endian scalars to a payload buffer.
#[derive(Debug, Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload with `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        PayloadWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` column without a length prefix (the caller encodes
    /// the count separately).
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
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
    pub fn put_u32_pairs(&mut self, pairs: &[(u32, u32)]) {
        let start = self.buf.len();
        self.buf.resize(start + pairs.len() * 8, 0);
        for (words, &(a, b)) in self.buf[start..].chunks_exact_mut(8).zip(pairs) {
            words[..4].copy_from_slice(&a.to_le_bytes());
            words[4..].copy_from_slice(&b.to_le_bytes());
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads little-endian scalars from a payload, bounds-checked: running off
/// the end is a typed [`WireError::Protocol`], never a panic.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
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
    pub fn get_u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u32` (little endian).
    pub fn get_u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64` (little endian).
    pub fn get_u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `count` little-endian `u32`s.
    pub fn get_u32_vec(&mut self, count: usize, what: &str) -> Result<Vec<u32>, WireError> {
        let bytes = self.take(count.saturating_mul(4), what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads `count` pairs written by [`PayloadWriter::put_u32_pairs`].
    /// The bounds check comes first, so a hostile count fails before any
    /// allocation.
    pub fn get_u32_pairs(
        &mut self,
        count: usize,
        what: &str,
    ) -> Result<Vec<(u32, u32)>, WireError> {
        let bytes = self.take(count.saturating_mul(8), what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                (
                    u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                    u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
                )
            })
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.get_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Protocol {
            detail: format!("{what} is not valid UTF-8"),
        })
    }

    /// True when every payload byte has been consumed — decoders check this
    /// so a frame with trailing garbage is rejected, not silently accepted.
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with a protocol error unless the payload was fully consumed.
    pub fn expect_exhausted(&self, what: &str) -> Result<(), WireError> {
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
    fn checksum_flip_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Request, b"abcdef").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn send_frame_flushes_and_write_frame_does_not() {
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
        send_frame(&mut sink, FrameType::Error, b"oops").unwrap();
        assert_eq!(sink.1, 1);
        let mut cursor = io::Cursor::new(sink.0);
        for expected in [FrameType::Response, FrameType::Done, FrameType::Error] {
            assert_eq!(read_frame(&mut cursor, 64).unwrap().unwrap().0, expected);
        }
    }

    #[test]
    fn column_and_pair_codecs_round_trip() {
        let column: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x0101_0101)).collect();
        let pairs: Vec<(u32, u32)> = (0..333).map(|i| (i, u32::MAX - i)).collect();
        let mut w = PayloadWriter::default();
        w.put_u8(9); // misalign what follows
        w.put_u32_slice(&column);
        w.put_u32_pairs(&pairs);
        w.put_u32_slice(&[]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 4 * column.len() + 8 * pairs.len());
        assert_eq!(bytes[1..5], column[0].to_le_bytes());
        assert_eq!(bytes[5..9], column[1].to_le_bytes());
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u8("tag").unwrap(), 9);
        assert_eq!(r.get_u32_vec(column.len(), "column").unwrap(), column);
        assert_eq!(r.get_u32_pairs(pairs.len(), "pairs").unwrap(), pairs);
        assert!(r.expect_exhausted("payload").is_ok());
        // A count the payload cannot carry fails before any allocation.
        let mut r = PayloadReader::new(&bytes);
        assert!(r.get_u32_pairs(usize::MAX, "pairs").is_err());
        assert!(r.get_u32_vec(usize::MAX / 2, "column").is_err());
    }

    #[test]
    fn payload_reader_is_bounds_checked() {
        let mut w = PayloadWriter::default();
        w.put_u32(7);
        w.put_str("hi");
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.get_u32("seven").unwrap(), 7);
        assert_eq!(r.get_str("greeting").unwrap(), "hi");
        assert!(r.expect_exhausted("test payload").is_ok());
        let err = r.get_u64("past the end").unwrap_err();
        assert!(matches!(err, WireError::Protocol { .. }), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut w = PayloadWriter::default();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        r.get_u8("one").unwrap();
        let err = r.expect_exhausted("short message").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}
