//! # hj-spill — memory governor and disk-spill subsystem
//!
//! The join engine's arena sizing and admission control reject any request
//! whose working state does not fit pre-provisioned memory.  That is the
//! right default for latency-sensitive serving, but it turns one whole
//! class of workloads — larger-than-memory joins, and memory-contended
//! multi-tenant bursts — into hard failures.  This crate provides the two
//! governance primitives that let the engine *degrade* instead (the
//! dynamic hybrid hash join built on them lives in `hj_core::spilljoin`):
//!
//! * [`MemoryBroker`] — an engine-wide byte budget carved into per-session
//!   grants.  Grants are handed out non-blockingly ([`MemoryGrant::try_grow`]
//!   never waits, so sessions cannot deadlock on each other); a denied
//!   session raises *pressure*, and sessions holding more than their fair
//!   share observe a reclaim request ([`MemoryGrant::reclaim_request`])
//!   telling them how many bytes to evict to disk.  Dropping a grant —
//!   normally or during a panic unwind — releases every byte it held.
//! * [`SpillManager`] — owns a per-engine temporary directory and
//!   byte-accounts every run file created in it.  `RunWriter` streams
//!   `<key, rid>` frames through a buffered writer with a per-frame
//!   checksum; [`SpillRun`] is the sealed, readable result whose `Drop`
//!   deletes the file (so an unwinding join leaks no temp files); the
//!   manager's `Drop` removes the whole directory.
//!
//! [`SpillConfig`] carries the executor's knobs (partition fanout,
//! recursion-depth cap, fallback block size) and [`SpillReport`] the
//! observability the engine surfaces per request (bytes spilled/restored,
//! partitions spilled, recursion depth, spill wall-clock).
//!
//! Everything here is deliberately independent of the execution layers: the
//! crate depends only on `datagen`'s [`Relation`](datagen::Relation)
//! container, so brokers and run files are testable (and reusable) without
//! an engine.

#![warn(missing_docs)]

pub mod broker;
pub mod config;
pub mod manager;
pub(crate) mod runfile;

pub use broker::{GrantDenied, MemoryBroker, MemoryGrant};
pub use config::{SpillConfig, SpillReport};
pub use manager::{PendingRun, SpillManager, SpillRun};
pub use runfile::{RunReader, SpillError};

// Locking goes through `hj_analysis::sync`, which recovers from poisoning
// centrally: a session that panicked mid-spill must not brick the broker
// or the manager for every other session (same policy as the engine's
// worker pool).  The old crate-local `lock_unpoisoned` helper is gone.
