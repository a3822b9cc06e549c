//! File-backed tables: stream relations to and from disk in bounded
//! memory.
//!
//! The in-memory generators materialise whole relations, which defeats the
//! point when a test or benchmark wants a *build side larger than the
//! configured memory budget*.  This module writes `<key, rid>` tables to a
//! checksummed batch file and reads them back batch-wise, and it can
//! synthesise deterministic tables (seeded, reproducible batch-for-batch)
//! directly to disk without ever holding more than one batch in memory:
//!
//! * `TableFileWriter` / [`TableFileReader`] — the container: a small
//!   header (magic, version, tuple count) followed by frames of
//!   `[count][checksum][keys][rids]`, each independently verifiable.  The
//!   checksum is [`checksum64`] over the column payload (XXH64; see
//!   `hj-server`'s `frame` module for why) — version 1 files recorded
//!   FNV-1a there and are refused by version, not as corrupt;
//! * [`FileTableSpec`] + [`generate_build_table`] /
//!   [`generate_probe_table`] — streaming generators.  Build keys come
//!   from a seeded *bijective* mix of the tuple index (distinct by
//!   construction, like the in-memory generator's shuffled range);
//!   probe keys are drawn uniformly over a build spec's key universe with
//!   [`SmallRng`], so every probe tuple matches exactly one build key and
//!   the expected join cardinality is known without reading either file.

use crate::checksum::checksum64;
use crate::relation::Relation;
use crate::rng::SmallRng;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"HJTB";
/// Bumped to 2 when the frame checksum became [`checksum64`]: the layout
/// is unchanged, but a version 1 file's recorded values mean something else.
const VERSION: u32 = 2;
const HEADER_BYTES: u64 = 4 + 4 + 8;

fn invalid(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Encodes one `[count][checksum][keys][rids]` frame (the format shared by
/// table files and `hj-spill` run files); empty batches write nothing.
/// Returns the bytes appended.
///
/// # Errors
/// Propagates write failures.
///
/// # Panics
/// Panics if the columns have different lengths.
pub fn encode_frame<W: Write>(writer: &mut W, keys: &[u32], rids: &[u32]) -> io::Result<u64> {
    assert_eq!(keys.len(), rids.len(), "column length mismatch");
    if keys.is_empty() {
        return Ok(0);
    }
    // Both columns in one exact-size pass: on a little-endian host this is
    // two block copies.
    let words: Vec<[u8; 4]> = keys.iter().chain(rids).map(|v| v.to_le_bytes()).collect();
    let payload = words.as_flattened();
    writer.write_all(&(keys.len() as u32).to_le_bytes())?;
    writer.write_all(&checksum64(payload).to_le_bytes())?;
    writer.write_all(payload)?;
    Ok((4 + 8 + payload.len()) as u64)
}

/// Decodes the next frame of the shared format and appends its tuples to
/// `dest`, returning how many it held, or `None` at a clean end of stream.
/// `remaining` tracks the unconsumed file bytes: the untrusted count is
/// validated against it *before* sizing a buffer, so a corrupted header
/// surfaces as [`io::ErrorKind::InvalidData`] instead of a huge allocation.
/// `dest` is untouched unless the frame's checksum verified.
///
/// # Errors
/// Non-EOF read failures are propagated; truncation inside a frame and
/// checksum mismatches return [`io::ErrorKind::InvalidData`].
pub fn decode_frame<R: Read>(
    reader: &mut R,
    remaining: &mut u64,
    dest: &mut Relation,
) -> io::Result<Option<usize>> {
    let mut count_buf = [0u8; 4];
    match reader.read_exact(&mut count_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    *remaining = remaining.saturating_sub(4);
    let count = u32::from_le_bytes(count_buf) as usize;
    let needed = 8 + count as u64 * 8;
    if needed > *remaining {
        return Err(invalid(format!(
            "frame claims {count} tuples ({needed} B) but only {remaining} B remain"
        )));
    }
    let mut checksum_buf = [0u8; 8];
    let mut payload = vec![0u8; count * 8];
    let read = (|| -> io::Result<()> {
        reader.read_exact(&mut checksum_buf)?;
        reader.read_exact(&mut payload)?;
        Ok(())
    })();
    if let Err(e) = read {
        return Err(invalid(format!("truncated frame of {count} tuples: {e}")));
    }
    let expected = u64::from_le_bytes(checksum_buf);
    let actual = checksum64(&payload);
    if actual != expected {
        return Err(invalid(format!(
            "checksum {actual:#x} != recorded {expected:#x}"
        )));
    }
    *remaining -= needed;
    let (keys, rids) = payload.split_at(count * 4);
    dest.extend_columns(le_u32s(rids), le_u32s(keys));
    Ok(Some(count))
}

/// The `u32`s a little-endian column holds (an exact-size iterator, so a
/// `Vec` extends from it in one reservation).
fn le_u32s(column: &[u8]) -> impl ExactSizeIterator<Item = u32> + '_ {
    column
        .chunks_exact(4)
        .map(|word| u32::from_le_bytes(word.try_into().expect("4 bytes")))
}

/// Writes a `<key, rid>` table file batch by batch.
#[derive(Debug)]
pub(crate) struct TableFileWriter {
    writer: BufWriter<File>,
    tuples: u64,
}

impl TableFileWriter {
    /// Creates (truncating) a table file at `path`.
    ///
    /// # Errors
    /// Propagates file-creation and header-write failures.
    pub(crate) fn create(path: &Path) -> io::Result<Self> {
        let mut writer = BufWriter::new(File::create(path)?);
        writer.write_all(MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        // Tuple count: patched by `finish`.
        writer.write_all(&0u64.to_le_bytes())?;
        Ok(TableFileWriter { writer, tuples: 0 })
    }

    /// Appends one batch; empty batches are skipped.
    ///
    /// # Errors
    /// Propagates write failures.
    pub(crate) fn append(&mut self, batch: &Relation) -> io::Result<()> {
        encode_frame(&mut self.writer, batch.keys(), batch.rids())?;
        self.tuples += batch.len() as u64;
        Ok(())
    }

    /// Patches the header's tuple count, flushes, and returns the total
    /// tuples written.
    ///
    /// # Errors
    /// Propagates flush and seek failures.
    pub(crate) fn finish(mut self) -> io::Result<u64> {
        self.writer.flush()?;
        let file = self.writer.get_mut();
        file.seek(SeekFrom::Start(8))?;
        file.write_all(&self.tuples.to_le_bytes())?;
        file.flush()?;
        Ok(self.tuples)
    }
}

/// Reads a table file back, one checksum-verified batch at a time.
#[derive(Debug)]
pub struct TableFileReader {
    reader: BufReader<File>,
    tuples: u64,
    read: u64,
    batch_index: usize,
    /// File bytes not yet consumed — bounds what a batch header may claim,
    /// so a corrupted count cannot drive a huge allocation before the
    /// checksum even runs.
    remaining: u64,
}

impl TableFileReader {
    /// Opens `path`, validating magic and version.
    ///
    /// # Errors
    /// I/O failures, or [`io::ErrorKind::InvalidData`] for a foreign or
    /// newer-versioned file.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let remaining = file.metadata()?.len().saturating_sub(HEADER_BYTES);
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid(format!("not a table file (magic {magic:02x?})")));
        }
        let mut version = [0u8; 4];
        reader.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(invalid(format!(
                "table file version {version} (this reader understands {VERSION})"
            )));
        }
        let mut tuples = [0u8; 8];
        reader.read_exact(&mut tuples)?;
        Ok(TableFileReader {
            reader,
            tuples: u64::from_le_bytes(tuples),
            read: 0,
            batch_index: 0,
            remaining,
        })
    }

    /// Total tuples the file's header declares.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Appends the next batch's tuples to `dest`; returns how many, or
    /// `None` at the end of the table.
    fn next_batch_into(&mut self, dest: &mut Relation) -> io::Result<Option<usize>> {
        match decode_frame(&mut self.reader, &mut self.remaining, dest) {
            Ok(Some(count)) => {
                self.read += count as u64;
                self.batch_index += 1;
                Ok(Some(count))
            }
            Ok(None) => {
                if self.read != self.tuples {
                    return Err(invalid(format!(
                        "table file ended after {} of {} declared tuples",
                        self.read, self.tuples
                    )));
                }
                Ok(None)
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Err(invalid(format!("batch {}: {e}", self.batch_index)))
            }
            Err(e) => Err(e),
        }
    }

    /// Reads the remaining batches into one relation (for tables known to
    /// fit memory — tests and verification, not the streaming paths).
    ///
    /// # Errors
    /// I/O failures, or [`io::ErrorKind::InvalidData`] on checksum
    /// mismatch, truncation, or a header count that disagrees with the
    /// frames.
    pub fn read_all(&mut self) -> io::Result<Relation> {
        let mut rel = Relation::with_capacity((self.tuples - self.read) as usize);
        while self.next_batch_into(&mut rel)?.is_some() {}
        Ok(rel)
    }
}

/// A deterministic file-backed table: everything needed to regenerate it
/// (or reason about its key universe) without reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileTableSpec {
    /// Tuples in the table.
    pub tuples: u64,
    /// Seed for the key stream; equal specs produce byte-identical files.
    pub seed: u64,
    /// Tuples per written batch (the memory high-water mark of generation
    /// and of batch-wise readers).
    pub batch_tuples: usize,
}

impl FileTableSpec {
    /// A spec with the default 64 Ki-tuple batches.
    pub fn new(tuples: u64, seed: u64) -> Self {
        FileTableSpec {
            tuples,
            seed,
            batch_tuples: 64 * 1024,
        }
    }

    /// Overrides the batch size (floored at one tuple).
    pub fn batch_tuples(mut self, batch_tuples: usize) -> Self {
        self.batch_tuples = batch_tuples.max(1);
        self
    }

    /// The `index`-th build key of this spec's key universe.
    ///
    /// A seeded bijective mix of the index (xorshift-multiply rounds, each
    /// invertible), so distinct indices give distinct keys — the streaming
    /// equivalent of the in-memory generator's shuffled dense range.
    pub fn build_key(&self, index: u64) -> u32 {
        let mut x =
            (index as u32) ^ (self.seed as u32) ^ ((self.seed >> 32) as u32).rotate_left(16);
        x ^= x >> 16;
        x = x.wrapping_mul(0x7feb_352d);
        x ^= x >> 15;
        x = x.wrapping_mul(0x846c_a68b);
        x ^= x >> 16;
        x
    }
}

/// Streams a build-side table to `path`: `spec.tuples` tuples with dense
/// rids and distinct [`FileTableSpec::build_key`] keys, never holding more
/// than one batch in memory.
///
/// # Errors
/// Propagates writer I/O failures.
pub fn generate_build_table(path: &Path, spec: &FileTableSpec) -> io::Result<u64> {
    let mut writer = TableFileWriter::create(path)?;
    let mut batch = Relation::with_capacity(spec.batch_tuples);
    for i in 0..spec.tuples {
        batch.push(i as u32, spec.build_key(i));
        if batch.len() == spec.batch_tuples {
            writer.append(&batch)?;
            batch = Relation::with_capacity(spec.batch_tuples);
        }
    }
    writer.append(&batch)?;
    writer.finish()
}

/// Streams a probe-side table to `path`: `spec.tuples` tuples whose keys
/// are drawn uniformly (seeded by `spec.seed`) from `build`'s key
/// universe, so every probe tuple matches exactly one build tuple and the
/// expected join cardinality equals `spec.tuples`.
///
/// # Errors
/// Propagates writer I/O failures.
pub fn generate_probe_table(
    path: &Path,
    spec: &FileTableSpec,
    build: &FileTableSpec,
) -> io::Result<u64> {
    assert!(
        build.tuples > 0,
        "probe table needs a non-empty build universe"
    );
    let mut writer = TableFileWriter::create(path)?;
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut batch = Relation::with_capacity(spec.batch_tuples);
    for i in 0..spec.tuples {
        let rank = rng.random_index(build.tuples.min(u32::MAX as u64 + 1) as usize) as u64;
        batch.push(i as u32, build.build_key(rank));
        if batch.len() == spec.batch_tuples {
            writer.append(&batch)?;
            batch = Relation::with_capacity(spec.batch_tuples);
        }
    }
    writer.append(&batch)?;
    writer.finish()
}

/// Sanity check used by tests: header size is what the writer assumes.
const _: () = assert!(HEADER_BYTES == 16);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hj-tablefile-{}-{name}", std::process::id()))
    }

    #[test]
    fn write_read_round_trip() {
        let path = temp_path("roundtrip");
        let rel = Relation::from_columns((0..1000).collect(), (5000..6000).collect());
        let mut w = TableFileWriter::create(&path).unwrap();
        w.append(&rel.slice(0..400)).unwrap();
        w.append(&rel.slice(400..1000)).unwrap();
        assert_eq!(w.finish().unwrap(), 1000);

        let mut r = TableFileReader::open(&path).unwrap();
        assert_eq!(r.tuples(), 1000);
        assert_eq!(r.read_all().unwrap(), rel);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn generated_build_tables_are_deterministic_with_distinct_keys() {
        let spec = FileTableSpec::new(10_000, 42).batch_tuples(777);
        let p1 = temp_path("build-a");
        let p2 = temp_path("build-b");
        generate_build_table(&p1, &spec).unwrap();
        generate_build_table(&p2, &spec).unwrap();
        assert_eq!(
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p2).unwrap(),
            "equal specs must produce byte-identical files"
        );
        let rel = TableFileReader::open(&p1).unwrap().read_all().unwrap();
        assert_eq!(rel.len(), 10_000);
        let distinct: HashSet<u32> = rel.keys().iter().copied().collect();
        assert_eq!(distinct.len(), 10_000, "build keys must be distinct");
        // A different seed produces a different key universe.
        let other = FileTableSpec::new(10_000, 43);
        generate_build_table(&p2, &other).unwrap();
        assert_ne!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).unwrap();
        std::fs::remove_file(&p2).unwrap();
    }

    #[test]
    fn probe_keys_come_from_the_build_universe() {
        let build = FileTableSpec::new(512, 7);
        let probe = FileTableSpec::new(2_048, 8).batch_tuples(100);
        let bp = temp_path("probe-build");
        let pp = temp_path("probe-probe");
        generate_build_table(&bp, &build).unwrap();
        generate_probe_table(&pp, &probe, &build).unwrap();
        let build_rel = TableFileReader::open(&bp).unwrap().read_all().unwrap();
        let universe: HashSet<u32> = build_rel.keys().iter().copied().collect();
        let mut reader = TableFileReader::open(&pp).unwrap();
        let mut probe_rel = Relation::new();
        while let Some(count) = reader.next_batch_into(&mut probe_rel).unwrap() {
            assert!(count <= 100, "batches bound reader memory");
        }
        assert_eq!(probe_rel.len(), 2_048);
        assert!(probe_rel.keys().iter().all(|k| universe.contains(k)));
        std::fs::remove_file(&bp).unwrap();
        std::fs::remove_file(&pp).unwrap();
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let path = temp_path("corrupt");
        let spec = FileTableSpec::new(100, 1).batch_tuples(32);
        generate_build_table(&path, &spec).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = TableFileReader::open(&path)
            .unwrap()
            .read_all()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let clean = {
            bytes[last] ^= 0x01;
            bytes
        };
        std::fs::write(&path, &clean[..clean.len() - 40]).unwrap();
        let truncated = TableFileReader::open(&path).unwrap().read_all();
        assert!(truncated.is_err(), "truncation must surface as an error");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_count_claiming_one_tuple_more_than_remains_is_refused_up_front() {
        let path = temp_path("overclaim");
        let rel = Relation::from_columns((0..10).collect(), (100..110).collect());
        let mut w = TableFileWriter::create(&path).unwrap();
        w.append(&rel).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = HEADER_BYTES as usize;
        bytes[at..at + 4].copy_from_slice(&11u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TableFileReader::open(&path)
            .unwrap()
            .read_all()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "batch 0: frame claims 11 tuples (96 B) but only 88 B remain",
            "refused before a buffer is sized, not as a torn read"
        );
        std::fs::remove_file(&path).unwrap();

        // The bound is the caller's byte budget, not the stream: a whole
        // frame one tuple past what remains is refused too.
        let mut frame = Vec::new();
        let written = encode_frame(&mut frame, rel.keys(), rel.rids()).unwrap();
        let mut remaining = written - 8;
        let mut dest = Relation::new();
        let err = decode_frame(&mut frame.as_slice(), &mut remaining, &mut dest).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(dest.is_empty());
    }

    #[test]
    fn version_1_files_are_refused_by_version_not_as_corrupt() {
        let path = temp_path("version-1");
        generate_build_table(&path, &FileTableSpec::new(64, 3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let expected = "table file version 1 (this reader understands 2)";
        let err = TableFileReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frames_keep_their_layout_and_size() {
        let mut bytes = Vec::new();
        let written = encode_frame(&mut bytes, &[0x0403_0201, 7], &[0x0807_0605, 9]).unwrap();
        assert_eq!(written, 4 + 8 + 16);
        assert_eq!(bytes.len() as u64, written);
        assert_eq!(bytes[..4], 2u32.to_le_bytes());
        assert_eq!(bytes[4..12], checksum64(&bytes[12..]).to_le_bytes());
        assert_eq!(
            bytes[12..],
            [1, 2, 3, 4, 7, 0, 0, 0, 5, 6, 7, 8, 9, 0, 0, 0],
            "keys column, then rids column, little endian"
        );
        // Decoding appends to whatever the destination already holds.
        let mut dest = Relation::from_columns(vec![100], vec![200]);
        let mut remaining = written;
        let count = decode_frame(&mut bytes.as_slice(), &mut remaining, &mut dest).unwrap();
        assert_eq!(count, Some(2));
        assert_eq!(remaining, 0);
        assert_eq!(dest.keys(), &[200, 0x0403_0201, 7]);
        assert_eq!(dest.rids(), &[100, 0x0807_0605, 9]);
        // A frame that fails its checksum leaves the destination alone.
        *bytes.last_mut().unwrap() ^= 1;
        let mut remaining = written;
        let err = decode_frame(&mut bytes.as_slice(), &mut remaining, &mut dest).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(dest.len(), 3);
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a table").unwrap();
        let err = TableFileReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }
}
