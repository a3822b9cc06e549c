//! The spill manager: temp-dir lifecycle and byte accounting for run files.
//!
//! One [`SpillManager`] lives per engine.  It owns a unique temporary
//! directory, hands out `RunWriter`s for partitions being spilled, seals
//! them into readable [`SpillRun`]s, and accounts every byte that crosses
//! the disk boundary.  Cleanup is RAII at both granularities:
//!
//! * a [`SpillRun`] (or an unsealed writer abandoned by a panic unwind)
//!   deletes its file on drop, so a crashed join leaks nothing;
//! * the manager deletes the whole directory when the last handle drops,
//!   so an engine teardown leaves no `hj-spill-*` residue.

use crate::runfile::{RunReader, RunWriter, SpillError};
use datagen::Relation;
use hj_analysis::sync::Mutex;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
struct ManagerInner {
    dir: PathBuf,
    /// Relaxed everywhere: `fetch_add` is atomic regardless of ordering, so
    /// ids stay unique, and no thread infers other memory state from an id.
    next_file: AtomicU64,
    live_files: Mutex<usize>,
    /// Telemetry counters (never drive control flow): Relaxed loads may
    /// lag a concurrent writer by a moment, which a stats snapshot
    /// tolerates by definition.
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl Drop for ManagerInner {
    fn drop(&mut self) {
        // Best effort: every run holds an Arc to this inner, so by the time
        // we get here all run files are already unlinked.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Owns one engine's spill directory and accounts its run files.
///
/// Cloning shares the same directory and counters; the directory is removed
/// when the last clone (and the last [`SpillRun`]) drops.
#[derive(Clone)]
pub struct SpillManager {
    inner: Arc<ManagerInner>,
}

impl fmt::Debug for SpillManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpillManager")
            .field("dir", &self.inner.dir)
            .field("live_files", &self.live_files())
            .field("bytes_written", &self.bytes_written())
            .field("bytes_read", &self.bytes_read())
            .finish()
    }
}

impl SpillManager {
    /// Creates a manager with a fresh, uniquely named directory under
    /// `root` (the OS temp dir when `None`).
    ///
    /// # Errors
    /// Returns the underlying error when the directory cannot be created.
    pub fn create(root: Option<&Path>) -> io::Result<Self> {
        let root = root.map_or_else(std::env::temp_dir, Path::to_path_buf);
        let dir = root.join(format!(
            "hj-spill-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(SpillManager {
            inner: Arc::new(ManagerInner {
                dir,
                next_file: AtomicU64::new(0),
                live_files: Mutex::new("spill.live_files", 0),
                bytes_written: AtomicU64::new(0),
                bytes_read: AtomicU64::new(0),
            }),
        })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Opens a new run writer; `label` becomes part of the file name for
    /// operator-friendly `ls` output.
    ///
    /// # Errors
    /// Returns [`SpillError::Io`] when the file cannot be created.
    pub fn create_run(&self, label: &str) -> Result<PendingRun, SpillError> {
        let id = self.inner.next_file.fetch_add(1, Ordering::Relaxed);
        let safe: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = self.inner.dir.join(format!("run-{id:06}-{safe}.hjrun"));
        let writer = RunWriter::create(&path)?;
        *self.inner.live_files.lock() += 1;
        Ok(PendingRun {
            writer: Some(writer),
            path,
            inner: Arc::clone(&self.inner),
        })
    }

    /// Run files currently on disk (pending writers plus sealed runs).
    pub fn live_files(&self) -> usize {
        *self.inner.live_files.lock()
    }

    /// Total bytes written into run files.
    pub(crate) fn bytes_written(&self) -> u64 {
        self.inner.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes read back from run files.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.inner.bytes_read.load(Ordering::Relaxed)
    }
}

fn unlink(inner: &ManagerInner, path: &Path) {
    let _ = std::fs::remove_file(path);
    *inner.live_files.lock() -= 1;
}

/// A run file being written.  Seal it with [`PendingRun::seal`]; dropping
/// it unsealed (e.g. during a panic unwind) deletes the file.
#[derive(Debug)]
pub struct PendingRun {
    /// `Some` until sealed or dropped.
    writer: Option<RunWriter>,
    path: PathBuf,
    inner: Arc<ManagerInner>,
}

impl PendingRun {
    /// Appends one frame holding `relation`'s tuples.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the write fails.
    pub fn push(&mut self, relation: &Relation) -> Result<(), SpillError> {
        self.push_columns(relation.keys(), relation.rids())
    }

    /// Appends one frame from raw key/rid columns of equal length — no
    /// intermediate [`Relation`] for callers writing a sub-range.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the write fails.
    ///
    /// # Panics
    /// Panics if the columns have different lengths.
    pub fn push_columns(&mut self, keys: &[u32], rids: &[u32]) -> Result<(), SpillError> {
        self.writer
            .as_mut()
            .expect("pending run not yet sealed")
            .push_columns(keys, rids)
    }

    /// Tuples written so far.
    pub fn tuples(&self) -> u64 {
        self.writer.as_ref().map_or(0, RunWriter::tuples)
    }

    /// File bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.writer.as_ref().map_or(0, RunWriter::bytes)
    }

    /// Flushes and seals the run into a readable [`SpillRun`].
    ///
    /// # Errors
    /// [`SpillError::Io`] when the final flush fails.
    pub fn seal(mut self) -> Result<SpillRun, SpillError> {
        let writer = self.writer.take().expect("pending run sealed twice");
        let (tuples, bytes) = match writer.finish() {
            Ok(sealed) => sealed,
            Err(e) => {
                // A failed flush (disk full — the scenario spilling exists
                // for) must not orphan the file: Drop sees `writer == None`
                // and would skip the unlink.
                unlink(&self.inner, &self.path);
                return Err(e.into());
            }
        };
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        Ok(SpillRun {
            path: std::mem::take(&mut self.path),
            tuples,
            bytes,
            inner: Arc::clone(&self.inner),
        })
    }
}

impl Drop for PendingRun {
    fn drop(&mut self) {
        if self.writer.take().is_some() {
            // Never sealed: the file's content is garbage — remove it.
            unlink(&self.inner, &self.path);
        }
    }
}

/// A sealed, readable run file; deleted from disk on drop.
#[derive(Debug)]
pub struct SpillRun {
    path: PathBuf,
    tuples: u64,
    bytes: u64,
    inner: Arc<ManagerInner>,
}

impl SpillRun {
    /// Tuples in the run.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// File bytes of the run.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Opens a streaming, checksum-verifying reader over the run's frames.
    ///
    /// # Errors
    /// [`SpillError::Io`] when the file cannot be reopened.
    pub fn reader(&self) -> Result<RunReader, SpillError> {
        self.inner
            .bytes_read
            .fetch_add(self.bytes, Ordering::Relaxed);
        // The sealed tuple count lets the reader refuse a run whose
        // trailing frames were lost at a frame boundary — per-frame
        // checksums alone cannot see that.
        Ok(RunReader::open(&self.path, Some(self.tuples))?)
    }

    /// Reads the whole run back into one [`Relation`].
    ///
    /// # Errors
    /// Propagates reader I/O and corruption errors.
    pub fn read_all(&self) -> Result<Relation, SpillError> {
        let mut reader = self.reader()?;
        let mut rel = Relation::with_capacity(self.tuples as usize);
        while reader.next_frame_into(&mut rel)?.is_some() {}
        Ok(rel)
    }
}

impl Drop for SpillRun {
    fn drop(&mut self) {
        unlink(&self.inner, &self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_round_trip_and_account_bytes() {
        let mgr = SpillManager::create(None).unwrap();
        let rel = Relation::from_columns((0..100).collect(), (100..200).collect());
        let mut pending = mgr.create_run("part-3").unwrap();
        pending.push(&rel).unwrap();
        assert_eq!(mgr.live_files(), 1);
        let run = pending.seal().unwrap();
        assert_eq!(run.tuples(), 100);
        assert_eq!(mgr.bytes_written(), run.bytes());
        assert_eq!(run.read_all().unwrap(), rel);
        assert_eq!(mgr.bytes_read(), run.bytes());
        drop(run);
        assert_eq!(mgr.live_files(), 0);
        assert!(
            std::fs::read_dir(mgr.dir()).unwrap().next().is_none(),
            "sealed run must be unlinked on drop"
        );
    }

    #[test]
    fn sub_range_frames_read_back_as_one_relation() {
        let mgr = SpillManager::create(None).unwrap();
        let rel = Relation::from_columns((0..1000).collect(), (5000..6000).collect());
        let mut pending = mgr.create_run("framed").unwrap();
        for start in (0..rel.len()).step_by(300) {
            let end = (start + 300).min(rel.len());
            pending
                .push_columns(&rel.keys()[start..end], &rel.rids()[start..end])
                .unwrap();
        }
        assert_eq!(pending.tuples(), 1000);
        let run = pending.seal().unwrap();
        // Four frames of 12 header bytes each around the 8 000 payload bytes.
        assert_eq!(run.bytes(), 4 * 12 + 8 * 1000);
        assert_eq!(run.read_all().unwrap(), rel);
    }

    #[test]
    fn abandoned_writers_clean_up() {
        let mgr = SpillManager::create(None).unwrap();
        let mut pending = mgr.create_run("abandoned").unwrap();
        pending
            .push(&Relation::from_columns(vec![1], vec![2]))
            .unwrap();
        drop(pending); // unwound before seal
        assert_eq!(mgr.live_files(), 0);
        assert!(std::fs::read_dir(mgr.dir()).unwrap().next().is_none());
    }

    #[test]
    fn manager_drop_removes_the_directory() {
        let mgr = SpillManager::create(None).unwrap();
        let dir = mgr.dir().to_path_buf();
        let run = {
            let mut p = mgr.create_run("x").unwrap();
            p.push(&Relation::from_columns(vec![1], vec![2])).unwrap();
            p.seal().unwrap()
        };
        drop(mgr);
        // The run still holds the directory alive.
        assert!(dir.exists());
        drop(run);
        assert!(!dir.exists(), "last handle must remove the spill dir");
    }

    #[test]
    fn labels_are_sanitised_into_file_names() {
        let mgr = SpillManager::create(None).unwrap();
        let pending = mgr.create_run("depth 1/part 2").unwrap();
        let entries: Vec<String> = std::fs::read_dir(mgr.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].contains("depth_1_part_2"), "{entries:?}");
        drop(pending);
    }
}
