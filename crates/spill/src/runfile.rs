//! Buffered, checksummed run files: the on-disk format of spilled
//! partitions.
//!
//! A run is a flat sequence of *frames*; each frame is one batch of
//! `<key, rid>` tuples:
//!
//! ```text
//! [tuple_count: u32 LE] [checksum: u64 LE] [keys: count × u32 LE] [rids: count × u32 LE]
//! ```
//!
//! The checksum is [`datagen::checksum64`] over the column payload (XXH64;
//! `hj-server`'s `frame` module records why and how fast), verified on
//! every read: a torn write, a filled-up disk or an operator truncating
//! temp files surfaces as a typed [`SpillError::CorruptFrame`] instead of a
//! silently wrong join result.  Frames are independent, so readers can
//! stream a run back one bounded batch at a time — the recursive
//! re-partitioning pass never holds a whole oversized run in memory.

use datagen::tablefile::{decode_frame, encode_frame};
use datagen::Relation;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;

/// Why a spill file could not be written or read back.
#[derive(Debug)]
pub enum SpillError {
    /// An operating-system I/O failure (open, write, flush, read).
    Io(io::Error),
    /// A frame failed its checksum or was structurally truncated.
    CorruptFrame {
        /// Zero-based index of the corrupt frame within its run.
        frame: usize,
        /// What did not add up.
        detail: String,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O error: {e}"),
            SpillError::CorruptFrame { frame, detail } => {
                write!(f, "corrupt spill frame {frame}: {detail}")
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            SpillError::CorruptFrame { .. } => None,
        }
    }
}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// Streams frames of `<key, rid>` tuples into a run file through a
/// buffered writer.
///
/// Created by [`SpillManager::create_run`](crate::SpillManager::create_run)
/// (wrapped in a [`PendingRun`](crate::PendingRun)); sealed into a readable
/// [`SpillRun`](crate::SpillRun) by [`PendingRun::seal`](crate::PendingRun::seal).
#[derive(Debug)]
pub(crate) struct RunWriter {
    writer: BufWriter<File>,
    tuples: u64,
    bytes: u64,
}

impl RunWriter {
    pub(crate) fn create(path: &Path) -> io::Result<Self> {
        Ok(RunWriter {
            writer: BufWriter::new(File::create(path)?),
            tuples: 0,
            bytes: 0,
        })
    }

    /// Appends one frame from raw key/rid columns of equal length.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the write fails.
    ///
    /// # Panics
    /// Panics if the columns have different lengths.
    pub(crate) fn push_columns(&mut self, keys: &[u32], rids: &[u32]) -> Result<(), SpillError> {
        self.bytes += encode_frame(&mut self.writer, keys, rids)?;
        self.tuples += keys.len() as u64;
        Ok(())
    }

    /// Tuples written so far.
    pub(crate) fn tuples(&self) -> u64 {
        self.tuples
    }

    /// File bytes written so far (headers + payload).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(crate) fn finish(mut self) -> io::Result<(u64, u64)> {
        self.writer.flush()?;
        Ok((self.tuples, self.bytes))
    }
}

/// Streams the frames of a run file back, verifying each checksum.
#[derive(Debug)]
pub struct RunReader {
    reader: BufReader<File>,
    frame: usize,
    /// File bytes not yet consumed — bounds what a frame header may claim,
    /// so a corrupted count cannot drive a huge allocation before the
    /// checksum even runs.
    remaining: u64,
    /// Tuples the sealed run recorded; a clean EOF before this many have
    /// been read means trailing frames were lost at a frame boundary —
    /// which per-frame checksums alone cannot see.
    expected_tuples: Option<u64>,
    read_tuples: u64,
}

impl RunReader {
    pub(crate) fn open(path: &Path, expected_tuples: Option<u64>) -> io::Result<Self> {
        let file = File::open(path)?;
        let remaining = file.metadata()?.len();
        Ok(RunReader {
            reader: BufReader::new(file),
            frame: 0,
            remaining,
            expected_tuples,
            read_tuples: 0,
        })
    }

    /// Reads the next frame into a [`Relation`], or `None` at end of run.
    ///
    /// # Errors
    /// [`SpillError::Io`] on read failure, [`SpillError::CorruptFrame`] on
    /// a checksum mismatch or truncation.
    pub fn next_frame(&mut self) -> Result<Option<Relation>, SpillError> {
        let mut rel = Relation::new();
        Ok(self.next_frame_into(&mut rel)?.map(|_| rel))
    }

    /// Appends the next frame's tuples to `dest`; returns how many, or
    /// `None` at end of run.  `dest` only ever gains verified frames.
    ///
    /// # Errors
    /// Those of [`next_frame`](Self::next_frame).
    pub fn next_frame_into(&mut self, dest: &mut Relation) -> Result<Option<usize>, SpillError> {
        match decode_frame(&mut self.reader, &mut self.remaining, dest) {
            Ok(Some(count)) => {
                self.frame += 1;
                self.read_tuples += count as u64;
                Ok(Some(count))
            }
            Ok(None) => {
                if let Some(expected) = self.expected_tuples {
                    if self.read_tuples != expected {
                        return Err(SpillError::CorruptFrame {
                            frame: self.frame,
                            detail: format!(
                                "run ended after {} of {expected} sealed tuples \
                                 (trailing frames lost at a frame boundary)",
                                self.read_tuples
                            ),
                        });
                    }
                }
                Ok(None)
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(SpillError::CorruptFrame {
                frame: self.frame,
                detail: e.to_string(),
            }),
            Err(e) => Err(SpillError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hj-spill-runfile-{}-{name}", std::process::id()))
    }

    #[test]
    fn frames_round_trip_byte_identically() {
        let path = temp_path("roundtrip");
        let a = Relation::from_columns(vec![1, 2, 3], vec![10, 20, 30]);
        let b = Relation::from_columns(vec![9], vec![90]);
        let mut writer = RunWriter::create(&path).unwrap();
        writer.push_columns(a.keys(), a.rids()).unwrap();
        writer.push_columns(&[], &[]).unwrap(); // empty frames are skipped
        writer.push_columns(b.keys(), b.rids()).unwrap();
        assert_eq!(writer.tuples(), 4);
        let (tuples, bytes) = writer.finish().unwrap();
        assert_eq!(tuples, 4);
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());

        let mut reader = RunReader::open(&path, Some(4)).unwrap();
        assert_eq!(reader.next_frame().unwrap().unwrap(), a);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b);
        assert!(reader.next_frame().unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let path = temp_path("corrupt");
        let mut writer = RunWriter::create(&path).unwrap();
        writer.push_columns(&[1, 2], &[3, 4]).unwrap();
        writer.finish().unwrap();
        // Flip one payload byte.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let mut reader = RunReader::open(&path, None).unwrap();
        let err = reader.next_frame().unwrap_err();
        assert!(
            matches!(err, SpillError::CorruptFrame { frame: 0, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let path = temp_path("truncate");
        let mut writer = RunWriter::create(&path).unwrap();
        writer.push_columns(&[1, 2, 3, 4], &[5, 6, 7, 8]).unwrap();
        writer.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let mut reader = RunReader::open(&path, None).unwrap();
        let err = reader.next_frame().unwrap_err();
        assert!(matches!(err, SpillError::CorruptFrame { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_boundary_truncation_is_detected_via_the_sealed_count() {
        let path = temp_path("boundary");
        let mut writer = RunWriter::create(&path).unwrap();
        writer.push_columns(&[1, 2], &[3, 4]).unwrap();
        writer.push_columns(&[5], &[6]).unwrap();
        writer.finish().unwrap();
        // Cut the file exactly at the second frame's boundary: every
        // remaining frame still checksums clean.
        let bytes = std::fs::read(&path).unwrap();
        let first_frame = 4 + 8 + 2 * 8;
        std::fs::write(&path, &bytes[..first_frame]).unwrap();

        // Without the sealed count the loss is invisible...
        let mut blind = RunReader::open(&path, None).unwrap();
        assert!(blind.next_frame().unwrap().is_some());
        assert!(blind.next_frame().unwrap().is_none());
        // ...with it, the reader refuses to call the run complete.
        let mut checked = RunReader::open(&path, Some(3)).unwrap();
        assert!(checked.next_frame().unwrap().is_some());
        let err = checked.next_frame().unwrap_err();
        assert!(matches!(err, SpillError::CorruptFrame { .. }), "{err}");
        assert!(err.to_string().contains("2 of 3"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn error_messages_are_actionable() {
        let e = SpillError::CorruptFrame {
            frame: 3,
            detail: "checksum 0x1 != recorded 0x2".into(),
        };
        assert!(e.to_string().contains("frame 3"));
        let io_err: SpillError = io::Error::other("disk full").into();
        assert!(io_err.to_string().contains("disk full"));
    }
}
