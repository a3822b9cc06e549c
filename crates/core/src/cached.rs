//! The build-side hash-table cache: register-once tables, probe-only joins.
//!
//! Serving traffic joins the same base tables thousands of times; rebuilding
//! the build-side hash table per request wastes the dominant share of each
//! join.  This module provides the pieces the engine composes into its
//! table registry and cache:
//!
//! * [`TableHandle`] — a versioned, cheaply clonable reference to a
//!   registered build relation
//!   ([`JoinEngine::register_table`](crate::engine::JoinEngine::register_table)).
//! * [`CachedTable`] — an immutable, `Arc`-shared built hash table living on
//!   the ordinary heap, **outside** every per-session arena, probed
//!   concurrently by any number of sessions.
//! * `HashTableCache` (crate-internal) — the engine-wide map from
//!   `(table id, version, build-relevant parameters)` to built tables:
//!   **single-flight** builds (concurrent misses on one key wait for one
//!   builder instead of duplicating work), bytes charged to the spill
//!   subsystem's [`MemoryBroker`], and LRU eviction driven both by grant
//!   denial and by the broker's fair-share reclaim signal.
//!
//! A builder that fails — or panics — must not wedge its waiters: the slot
//! is marked failed, every waiter receives a typed
//! [`JoinError::CacheBuildFailed`], and the entry is discarded so the next
//! request rebuilds from scratch.  All locking goes through the engine's
//! poisoning-recovery helpers, so one panicked build cannot brick the cache.

use crate::build::{run_build_phase, BuildTarget};
use crate::config::{Algorithm, HashTableMode, StepGranularity};
use crate::context::ExecContext;
use crate::engine::JoinRequest;
use crate::error::JoinError;
use crate::executor::{partition_relation, record_phase};
use crate::hashtable::{HashTable, BUCKET_HEADER_BYTES};
use crate::native::NativeTable;
use crate::partition::default_radix_bits;
use crate::result::JoinOutcome;
use crate::scheme::RatioPlan;
use apu_sim::{DeviceKind, PhaseBreakdown};
use datagen::Relation;
use hj_analysis::sync::{Condvar, Mutex};
use hj_metrics::{AtomicHistogram, Counter, Gauge, LatencyHistogram};
use hj_spill::{MemoryBroker, MemoryGrant};
use std::collections::HashMap;
use std::sync::Arc;

/// A versioned reference to a relation registered with
/// [`JoinEngine::register_table`](crate::engine::JoinEngine::register_table).
///
/// The handle *owns* (shares) the registered tuples, so it stays valid — and
/// [`submit_cached`](crate::engine::JoinEngine::submit_cached) stays correct —
/// even after the name is re-registered; a stale handle simply joins against
/// the version of the data it was issued for.  Cached hash tables are keyed
/// by `(id, version)`, so re-registration can never serve stale builds to
/// holders of the *new* handle.
#[derive(Debug, Clone)]
#[must_use = "a handle that is dropped unused did not join anything"]
pub struct TableHandle {
    pub(crate) id: u64,
    pub(crate) version: u64,
    pub(crate) name: Arc<str>,
    pub(crate) tuples: Arc<Relation>,
}

impl TableHandle {
    /// The engine-unique table id (stable across re-registrations).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The registration version (1 for a fresh name, bumped on each
    /// re-registration of the same name).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The name the table was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registered build relation.
    pub fn tuples(&self) -> &Relation {
        &self.tuples
    }
}

/// The build-relevant parameters (beyond table identity) distinguishing
/// cached tables a backend builds for a request.
///
/// Returned by [`ExecBackend::cache_params`](crate::engine::ExecBackend::cache_params);
/// `None` from that method means "this backend/request combination cannot be
/// served from a cached table" and the engine falls back to a full
/// per-request build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Resolved radix partitioning `(bits, passes)`; `(0, 0)` for an
    /// unpartitioned (SHJ or native) build.
    pub partitioning: (u32, u32),
    /// Whether build-side software grouping reorders insertions (it changes
    /// rid-list order, hence the byte layout probes observe).
    pub grouping: bool,
}

/// The full cache key: which registered data, which build shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) table_id: u64,
    pub(crate) version: u64,
    pub(crate) backend: &'static str,
    pub(crate) params: CacheParams,
}

/// An immutable built hash table, shared across sessions by `Arc`.
///
/// Lives on the ordinary heap — **outside** every per-session arena — with
/// its bytes charged to the engine's [`MemoryBroker`] while cached.
#[derive(Debug)]
pub struct CachedTable {
    pub(crate) payload: CachedPayload,
    pub(crate) bytes: usize,
    /// Wall-clock nanoseconds the build took; accumulated into
    /// `build_ns_saved` on every cache hit.
    pub(crate) build_ns: u64,
    pub(crate) build_tuples: usize,
    /// What the build cost, by phase: simulated on the simulators, measured
    /// on the native backend.  The spill path charges it to its outcome; a
    /// cache hit is build-free.
    pub(crate) build_time: PhaseBreakdown,
}

impl CachedTable {
    /// Readies a freshly built table for the cache, which keeps it for as
    /// long as it likes (see `NativeTable::detach`); `bytes` then says what
    /// it holds.
    pub(crate) fn detach(mut self) -> Self {
        if let CachedPayload::Native(table) = &mut self.payload {
            table.detach();
            self.bytes = table.bytes();
        }
        self
    }

    /// Resident bytes of the built structure (the amount charged to the
    /// memory broker while the entry is cached).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Build-relation cardinality the table was built from.
    pub fn build_tuples(&self) -> usize {
        self.build_tuples
    }
}

/// What a backend actually stores for one cached build side.
#[derive(Debug)]
pub(crate) enum CachedPayload {
    /// Simulator backends: one chained [`HashTable`] per radix partition
    /// (a single table with `bits == 0` for SHJ).
    Sim {
        tables: Vec<HashTable>,
        bits: u32,
        passes: u32,
    },
    /// The native backend's flat table ([`crate::native`]).
    Native(NativeTable),
}

fn sim_tables_bytes(tables: &[HashTable]) -> usize {
    tables
        .iter()
        .map(HashTable::total_bytes)
        .sum::<usize>()
        .max(BUCKET_HEADER_BYTES)
}

// ---------------------------------------------------------------------------
// Simulator build/probe paths (shared by CoupledSim; DiscreteSim opts out)
// ---------------------------------------------------------------------------

/// Whether a simulator backend can serve `request` from a cached table, and
/// with which build-relevant parameters.
///
/// Declines whenever the uncached executor would do build-side work a shared
/// immutable payload cannot represent: BasicUnit chunk scheduling, the
/// coarse-grained PHJ (per-device private tables), separate per-device
/// tables, out-of-core chunking, spilling, exact cache profiling (which
/// wants the full pipeline observed), and any discrete (PCI-e) topology,
/// where shared-table selection and transfer accounting are derived from the
/// per-request plan.
pub(crate) fn sim_cache_params(
    sys: &apu_sim::SystemSpec,
    request: &JoinRequest,
    build_tuples: usize,
) -> Option<CacheParams> {
    if sys.is_discrete()
        || request.out_of_core_chunk().is_some()
        || request.spill_config().is_some()
    {
        return None;
    }
    let cfg = request.config();
    if cfg.profile_cache || cfg.hash_table == HashTableMode::Separate {
        return None;
    }
    if matches!(cfg.algorithm, Algorithm::Partitioned { .. })
        && cfg.granularity == StepGranularity::Coarse
    {
        return None;
    }
    RatioPlan::from_scheme(&cfg.scheme)?;
    Some(CacheParams {
        partitioning: sim_partitioning(request, build_tuples, sys),
        grouping: cfg.grouping,
    })
}

/// The partitioning a simulator build of `request` over `build_tuples`
/// tuples resolves to: `(0, 0)` for SHJ, resolved `(bits, passes)` for PHJ.
pub(crate) fn sim_partitioning(
    request: &JoinRequest,
    build_tuples: usize,
    sys: &apu_sim::SystemSpec,
) -> (u32, u32) {
    match request.config().algorithm {
        Algorithm::Simple => (0, 0),
        Algorithm::Partitioned { radix_bits, passes } => {
            let bits = if radix_bits == 0 {
                default_radix_bits(build_tuples, sys.cache_bytes_for(DeviceKind::Cpu))
            } else {
                radix_bits
            };
            (bits, passes.max(1))
        }
    }
}

/// Builds the cacheable payload for a simulator backend: the per-partition
/// chained hash tables of `build` under `request`'s scheme and algorithm.
pub(crate) fn sim_build_cached(
    ctx: &mut ExecContext<'_>,
    build: &Relation,
    request: &JoinRequest,
) -> Result<CachedTable, JoinError> {
    let cfg = request.config();
    let plan = RatioPlan::from_scheme(&cfg.scheme).ok_or(JoinError::InvalidScheme {
        scheme: cfg.scheme.label(),
        algorithm: cfg.algorithm.label(),
    })?;
    let (bits, passes) = sim_partitioning(request, build.len(), ctx.sys);
    let mut built = JoinOutcome::default();
    let parts = if bits == 0 {
        Vec::new()
    } else {
        partition_relation(ctx, build, bits, passes, &plan, Some(&mut built))?
    };
    let inputs = if bits == 0 {
        std::slice::from_ref(build)
    } else {
        &parts[..]
    };
    let mut tables = Vec::with_capacity(inputs.len());
    for part in inputs {
        let mut table = HashTable::for_build_size(part.len());
        let phase = run_build_phase(
            ctx,
            part,
            BuildTarget::Shared(&mut table),
            &plan.build,
            cfg.grouping,
        )?;
        record_phase(ctx, &mut built, phase);
        tables.push(table);
    }
    let bytes = sim_tables_bytes(&tables);
    Ok(CachedTable {
        payload: CachedPayload::Sim {
            tables,
            bits,
            passes,
        },
        bytes,
        build_ns: 0,
        build_tuples: build.len(),
        build_time: built.breakdown,
    })
}

/// Probes `probe` against a cached simulator payload: the probe-only hot
/// path (probe-side partitioning still runs per request; build phases are
/// skipped entirely).
pub(crate) fn sim_probe_cached(
    ctx: &mut ExecContext<'_>,
    cached: &CachedTable,
    probe: &Relation,
    request: &JoinRequest,
) -> Result<JoinOutcome, JoinError> {
    let cfg = request.config();
    let plan = RatioPlan::from_scheme(&cfg.scheme).ok_or(JoinError::InvalidScheme {
        scheme: cfg.scheme.label(),
        algorithm: cfg.algorithm.label(),
    })?;
    let CachedPayload::Sim {
        tables,
        bits,
        passes,
    } = &cached.payload
    else {
        return Err(JoinError::InvalidConfig(
            "cached table was built by a different backend kind".to_string(),
        ));
    };
    let mut outcome = JoinOutcome::default();
    if *bits == 0 {
        let (out, phase) = crate::probe::run_probe_phase(
            ctx,
            probe,
            &tables[0],
            &plan.probe,
            cfg.grouping,
            cfg.collect_results,
        )?;
        outcome.matches += out.matches;
        if let Some(pairs) = out.pairs {
            outcome.pairs.get_or_insert_with(Vec::new).extend(pairs);
        }
        record_phase(ctx, &mut outcome, phase);
        return Ok(outcome);
    }
    let parts = partition_relation(ctx, probe, *bits, *passes, &plan, Some(&mut outcome))?;
    // Single-thread shape check (partition fan-out arithmetic), not a
    // cross-thread invariant — a debug assert is the right strength.
    debug_assert_eq!(parts.len(), tables.len()); // hj-lint: allow(debug-assert-concurrency)
    for (s_p, table) in parts.iter().zip(tables.iter()) {
        if table.tuple_count() == 0 && s_p.is_empty() {
            continue;
        }
        let (out, phase) = crate::probe::run_probe_phase(
            ctx,
            s_p,
            table,
            &plan.probe,
            cfg.grouping,
            cfg.collect_results,
        )?;
        outcome.matches += out.matches;
        if let Some(pairs) = out.pairs {
            outcome.pairs.get_or_insert_with(Vec::new).extend(pairs);
        }
        record_phase(ctx, &mut outcome, phase);
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Point-in-time counters of the engine's hash-table cache
/// ([`EngineStats::cache`](crate::engine::EngineStats::cache)).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Requests served from an already-built cached table (including
    /// single-flight waiters that received the winner's build).
    pub hits: u64,
    /// Requests that initiated a cached build (single-flight: N concurrent
    /// misses on one key count one miss and N−1 hits).
    pub misses: u64,
    /// Entries evicted under memory pressure (grant denial or the broker's
    /// fair-share reclaim signal).
    pub evictions: u64,
    /// Entries dropped because their table was re-registered (version bump).
    pub invalidations: u64,
    /// Bytes currently charged to the memory broker for cached tables.
    pub bytes: usize,
    /// Built tables currently resident.
    pub entries: usize,
    /// Cumulative build nanoseconds that cache hits did **not** re-spend.
    pub build_ns_saved: u64,
    /// Latency distribution of the cached builds themselves (log2 ns
    /// buckets; one sample per miss that completed its build).
    pub build_latency: LatencyHistogram,
}

/// One slot of the cache map.
enum Slot {
    /// A builder is constructing this entry; `waiting` counts single-flight
    /// waiters parked on it.
    Building { waiting: usize },
    /// Built and probe-ready.
    Ready {
        table: Arc<CachedTable>,
        last_used: u64,
    },
    /// The builder failed or panicked; drains its waiters with a typed
    /// error, then the entry is removed so the next request rebuilds.
    Failed { waiting: usize },
}

struct CacheInner {
    entries: HashMap<CacheKey, Slot>,
    /// The cache's memory-broker session; created on first insert, dropped
    /// (releasing every byte) when the cache empties out — so an unused
    /// cache never skews the broker's fair shares for spilling sessions.
    grant: Option<MemoryGrant>,
    /// Monotonic use counter driving LRU ordering.
    tick: u64,
}

/// The cache's only counters: registered metric handles, so the engine's
/// wire-exposed registry and [`CacheStats`] read the same atoms.
/// Constructed by the engine from its registry ([`CacheMetrics::register`])
/// or detached for tests ([`CacheMetrics::unregistered`]).
pub(crate) struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
    build_ns_saved: Arc<Counter>,
    build_latency: Arc<AtomicHistogram>,
    /// Set under the `cache.inner` lock wherever the grant or the ready
    /// entries change ([`HashTableCache::publish_residency`]).
    resident_bytes: Arc<Gauge>,
    entries: Arc<Gauge>,
}

impl CacheMetrics {
    /// Registers the cache's metric families in `registry`.
    pub(crate) fn register(registry: &hj_metrics::MetricsRegistry) -> Self {
        CacheMetrics {
            hits: registry.counter(
                "hj_cache_hits_total",
                "Probe requests served from a cached hash table",
            ),
            misses: registry.counter(
                "hj_cache_misses_total",
                "Cache misses (= single-flight builds initiated)",
            ),
            evictions: registry.counter(
                "hj_cache_evictions_total",
                "Cached tables evicted (LRU) under broker pressure",
            ),
            invalidations: registry.counter(
                "hj_cache_invalidations_total",
                "Cached tables invalidated by table re-registration",
            ),
            build_ns_saved: registry.counter(
                "hj_cache_build_ns_saved_total",
                "Build nanoseconds cache hits avoided re-spending",
            ),
            build_latency: registry.histogram(
                "hj_cache_build_latency_ns",
                "Wall-clock latency of single-flight cache builds (ns)",
            ),
            resident_bytes: registry.gauge(
                "hj_cache_resident_bytes",
                "Bytes the cached hash tables currently keep resident",
            ),
            entries: registry.gauge("hj_cache_entries", "Hash tables currently cached"),
        }
    }

    /// Handles not attached to any registry (unit tests drive the cache
    /// without an engine).
    #[cfg(test)]
    pub(crate) fn unregistered() -> Self {
        CacheMetrics {
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
            invalidations: Arc::default(),
            build_ns_saved: Arc::default(),
            build_latency: Arc::default(),
            resident_bytes: Arc::default(),
            entries: Arc::default(),
        }
    }
}

/// The engine-wide cache of built hash tables.  See the
/// [module docs](self) for the single-flight and eviction protocol.
pub(crate) struct HashTableCache {
    broker: MemoryBroker,
    inner: Mutex<CacheInner>,
    built: Condvar,
    metrics: CacheMetrics,
}

/// Marks the in-flight build slot failed if the builder unwinds (or errors)
/// before disarming: waiters wake into a typed error instead of parking
/// forever, and the next request rebuilds.
#[must_use = "the guard must stay armed until the build has succeeded"]
struct BuildFailureGuard<'a> {
    cache: &'a HashTableCache,
    key: CacheKey,
    armed: bool,
}

impl Drop for BuildFailureGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.cache.inner.lock();
        match inner.entries.get(&self.key) {
            Some(Slot::Building { waiting }) => {
                if *waiting == 0 {
                    inner.entries.remove(&self.key);
                } else {
                    let waiting = *waiting;
                    inner
                        .entries
                        .insert(self.key.clone(), Slot::Failed { waiting });
                }
            }
            _ => return,
        }
        drop(inner);
        self.cache.built.notify_all();
    }
}

impl HashTableCache {
    pub(crate) fn new(broker: MemoryBroker, metrics: CacheMetrics) -> Self {
        HashTableCache {
            broker,
            inner: Mutex::new(
                "cache.inner",
                CacheInner {
                    entries: HashMap::new(),
                    grant: None,
                    tick: 0,
                },
            ),
            built: Condvar::new(),
            metrics,
        }
    }

    /// Returns the cached table for `key`, building it single-flight on a
    /// miss: concurrent misses on the same key park until the one builder
    /// finishes (or fails, which surfaces as
    /// [`JoinError::CacheBuildFailed`] to every waiter).
    pub(crate) fn get_or_build(
        &self,
        key: CacheKey,
        table_name: &str,
        build: impl FnOnce() -> Result<CachedTable, JoinError>,
    ) -> Result<Arc<CachedTable>, JoinError> {
        let mut inner = self.inner.lock();
        loop {
            match inner.entries.get_mut(&key) {
                Some(Slot::Ready { table, .. }) => {
                    let table = Arc::clone(table);
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(Slot::Ready { last_used, .. }) = inner.entries.get_mut(&key) {
                        *last_used = tick;
                    }
                    self.metrics.hits.inc();
                    self.metrics.build_ns_saved.add(table.build_ns);
                    self.service_reclaim(&mut inner);
                    return Ok(table);
                }
                Some(Slot::Building { waiting }) => {
                    *waiting += 1;
                    loop {
                        inner = self.built.wait(inner);
                        match inner.entries.get_mut(&key) {
                            Some(Slot::Building { .. }) => continue,
                            Some(Slot::Failed { waiting }) => {
                                *waiting -= 1;
                                if *waiting == 0 {
                                    inner.entries.remove(&key);
                                }
                                return Err(JoinError::CacheBuildFailed {
                                    table: table_name.to_string(),
                                });
                            }
                            // Ready (hit) or removed (rebuild race): re-enter
                            // the outer state machine.
                            _ => break,
                        }
                    }
                }
                Some(Slot::Failed { waiting }) => {
                    if *waiting == 0 {
                        // Fully drained: discard the tombstone and rebuild.
                        inner.entries.remove(&key);
                        continue;
                    }
                    return Err(JoinError::CacheBuildFailed {
                        table: table_name.to_string(),
                    });
                }
                None => {
                    inner
                        .entries
                        .insert(key.clone(), Slot::Building { waiting: 0 });
                    break;
                }
            }
        }
        drop(inner);

        // Build outside the lock; the guard turns an unwind (or error
        // return) into a drained Failed slot instead of a wedged cache.
        let mut guard = BuildFailureGuard {
            cache: self,
            key: key.clone(),
            armed: true,
        };
        let started = std::time::Instant::now();
        let mut table = build()?;
        table.build_ns = started.elapsed().as_nanos() as u64;
        guard.armed = false;

        let mut inner = self.inner.lock();
        self.metrics.misses.inc();
        self.metrics.build_latency.record(table.build_ns);
        let bytes = table.bytes;
        if inner.grant.is_none() {
            inner.grant = Some(self.broker.session());
        }
        let mut charged = false;
        loop {
            let grant = inner.grant.as_ref().expect("grant just ensured");
            match grant.try_grow(bytes) {
                Ok(()) => {
                    charged = true;
                    break;
                }
                Err(_) => {
                    if self.evict_lru(&mut inner).is_none() {
                        break;
                    }
                }
            }
        }
        let table = Arc::new(table);
        if charged {
            let tick = inner.tick + 1;
            inner.tick = tick;
            inner.entries.insert(
                key,
                Slot::Ready {
                    table: Arc::clone(&table),
                    last_used: tick,
                },
            );
            self.publish_residency(&inner);
        } else {
            // Even a fully drained cache cannot admit this table: serve the
            // request one-shot, uncached, and let waiters rebuild (they will
            // land here too — correctness over amortisation under a budget
            // this tight).
            inner.entries.remove(&key);
        }
        self.service_reclaim(&mut inner);
        self.release_grant_if_idle(&mut inner);
        drop(inner);
        self.built.notify_all();
        Ok(table)
    }

    /// Evicts the least-recently-used ready entry, returning its byte size.
    fn evict_lru(&self, inner: &mut CacheInner) -> Option<usize> {
        let victim = inner
            .entries
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready { last_used, .. } => Some((*last_used, k.clone())),
                _ => None,
            })
            .min_by_key(|(stamp, _)| *stamp)?
            .1;
        let Some(Slot::Ready { table, .. }) = inner.entries.remove(&victim) else {
            return None;
        };
        if let Some(grant) = &inner.grant {
            grant.shrink(table.bytes);
        }
        self.metrics.evictions.inc();
        self.publish_residency(inner);
        Some(table.bytes)
    }

    /// Honours the broker's fair-share reclaim signal: while another session
    /// is starved and this cache holds more than its share, shed LRU entries.
    fn service_reclaim(&self, inner: &mut CacheInner) {
        let want = match &inner.grant {
            Some(grant) => grant.reclaim_request(),
            None => return,
        };
        if want == 0 {
            return;
        }
        let mut freed = 0usize;
        while freed < want {
            match self.evict_lru(inner) {
                Some(bytes) => freed += bytes,
                None => break,
            }
        }
        self.release_grant_if_idle(inner);
    }

    /// Drops the broker session once nothing is cached or building, so an
    /// idle cache stops counting against the broker's fair shares.
    fn release_grant_if_idle(&self, inner: &mut CacheInner) {
        if inner.entries.is_empty() {
            if let Some(grant) = inner.grant.take() {
                // A cross-thread accounting invariant (the grant's byte count is
                // shared with the broker), so it must hold in release builds
                // too — a debug_assert here would let a production cache leak
                // broker budget silently.
                assert_eq!(grant.granted(), 0, "empty cache must hold zero bytes");
                drop(grant);
            }
        }
    }

    /// Drops every cached build of `table_id` (any version): called on
    /// re-registration, before the bumped version can be requested.
    pub(crate) fn invalidate_table(&self, table_id: u64) {
        let mut inner = self.inner.lock();
        let victims: Vec<CacheKey> = inner
            .entries
            .iter()
            .filter(|(k, slot)| k.table_id == table_id && matches!(slot, Slot::Ready { .. }))
            .map(|(k, _)| k.clone())
            .collect();
        for key in victims {
            if let Some(Slot::Ready { table, .. }) = inner.entries.remove(&key) {
                if let Some(grant) = &inner.grant {
                    grant.shrink(table.bytes);
                }
                self.metrics.invalidations.inc();
            }
        }
        self.publish_residency(&inner);
        self.release_grant_if_idle(&mut inner);
    }

    /// Sets the residency gauges from the state the caller holds the
    /// `cache.inner` lock on, after the grant or the ready entries changed.
    fn publish_residency(&self, inner: &CacheInner) {
        let bytes = inner.grant.as_ref().map_or(0, MemoryGrant::granted);
        let ready = inner
            .entries
            .values()
            .filter(|slot| matches!(slot, Slot::Ready { .. }))
            .count();
        self.metrics.resident_bytes.set(bytes as u64);
        self.metrics.entries.set(ready as u64);
    }

    /// A point-in-time stats snapshot, read from the metric atoms.
    pub(crate) fn stats(&self) -> CacheStats {
        let m = &self.metrics;
        CacheStats {
            hits: m.hits.get(),
            misses: m.misses.get(),
            evictions: m.evictions.get(),
            invalidations: m.invalidations.get(),
            bytes: m.resident_bytes.get() as usize,
            entries: m.entries.get() as usize,
            build_ns_saved: m.build_ns_saved.get(),
            build_latency: m.build_latency.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(table_id: u64, version: u64) -> CacheKey {
        CacheKey {
            table_id,
            version,
            backend: "test",
            params: CacheParams {
                partitioning: (0, 0),
                grouping: false,
            },
        }
    }

    fn table(bytes: usize) -> CachedTable {
        let scratch = crate::native::Scratch::default();
        let (empty, _) = crate::native::build(None, &Relation::new(), 1, &scratch, true);
        CachedTable {
            payload: CachedPayload::Native(empty),
            bytes,
            build_ns: 1_000,
            build_tuples: 0,
            build_time: PhaseBreakdown::default(),
        }
    }

    #[test]
    fn hit_after_miss_reuses_the_build() {
        let cache = HashTableCache::new(MemoryBroker::unlimited(), CacheMetrics::unregistered());
        let a = cache
            .get_or_build(key(1, 1), "t", || Ok(table(100)))
            .unwrap();
        let b = cache
            .get_or_build(key(1, 1), "t", || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.bytes, 100);
        assert_eq!(stats.build_ns_saved, a.build_ns);
    }

    #[test]
    fn lru_eviction_under_a_tight_budget() {
        let cache = HashTableCache::new(MemoryBroker::new(250), CacheMetrics::unregistered());
        cache
            .get_or_build(key(1, 1), "a", || Ok(table(100)))
            .unwrap();
        cache
            .get_or_build(key(2, 1), "b", || Ok(table(100)))
            .unwrap();
        // Touch table 1 so table 2 is the LRU victim.
        cache
            .get_or_build(key(1, 1), "a", || unreachable!())
            .unwrap();
        cache
            .get_or_build(key(3, 1), "c", || Ok(table(100)))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= 250);
        // Table 1 survived; table 2 was evicted.
        cache
            .get_or_build(key(1, 1), "a", || unreachable!())
            .unwrap();
        let mut rebuilt = false;
        cache
            .get_or_build(key(2, 1), "b", || {
                rebuilt = true;
                Ok(table(100))
            })
            .unwrap();
        assert!(rebuilt, "the evicted entry must rebuild");
    }

    #[test]
    fn oversized_table_is_served_uncached() {
        let cache = HashTableCache::new(MemoryBroker::new(50), CacheMetrics::unregistered());
        let t = cache
            .get_or_build(key(1, 1), "t", || Ok(table(100)))
            .unwrap();
        assert_eq!(t.bytes(), 100);
        let stats = cache.stats();
        assert_eq!(
            stats.entries, 0,
            "a table over the whole budget cannot cache"
        );
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn invalidation_releases_bytes_and_the_grant() {
        let broker = MemoryBroker::new(1 << 20);
        let cache = HashTableCache::new(broker.clone(), CacheMetrics::unregistered());
        cache
            .get_or_build(key(7, 1), "t", || Ok(table(512)))
            .unwrap();
        assert_eq!(broker.granted(), 512);
        cache.invalidate_table(7);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.bytes, 0);
        assert_eq!(
            broker.granted(),
            0,
            "idle cache must release its broker session"
        );
        assert_eq!(broker.sessions(), 0);
    }

    #[test]
    fn failed_build_surfaces_to_the_builder_and_clears_the_slot() {
        let cache = HashTableCache::new(MemoryBroker::unlimited(), CacheMetrics::unregistered());
        let err = cache
            .get_or_build(key(1, 1), "t", || {
                Err(JoinError::InvalidConfig("boom".to_string()))
            })
            .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
        // The slot is gone: the next request rebuilds.
        let t = cache
            .get_or_build(key(1, 1), "t", || Ok(table(10)))
            .unwrap();
        assert_eq!(t.bytes(), 10);
    }

    #[test]
    fn panicked_build_drains_waiters_with_a_typed_error() {
        let cache = Arc::new(HashTableCache::new(
            MemoryBroker::unlimited(),
            CacheMetrics::unregistered(),
        ));
        let entered = Arc::new(std::sync::Barrier::new(2));
        let entered_b = Arc::clone(&entered);
        let cache_b = Arc::clone(&cache);
        let builder = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache_b.get_or_build(key(1, 1), "t", || {
                    entered_b.wait();
                    // Give the waiter time to park on the Building slot.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("injected build panic");
                })
            }));
        });
        entered.wait();
        let err = cache
            .get_or_build(key(1, 1), "t", || unreachable!("single-flight"))
            .unwrap_err();
        assert!(
            matches!(err, JoinError::CacheBuildFailed { ref table } if table == "t"),
            "{err}"
        );
        builder.join().unwrap();
        // The tombstone drained; the next request rebuilds successfully.
        let t = cache
            .get_or_build(key(1, 1), "t", || Ok(table(10)))
            .unwrap();
        assert_eq!(t.bytes(), 10);
        let stats = cache.stats();
        assert_eq!(
            stats.misses, 1,
            "only the successful rebuild counts as a miss"
        );
    }

    #[test]
    fn single_flight_counts_one_miss() {
        let cache = Arc::new(HashTableCache::new(
            MemoryBroker::unlimited(),
            CacheMetrics::unregistered(),
        ));
        let gate = Arc::new(std::sync::Barrier::new(2));
        let gate_b = Arc::clone(&gate);
        let cache_b = Arc::clone(&cache);
        let builder = std::thread::spawn(move || {
            cache_b
                .get_or_build(key(1, 1), "t", || {
                    gate_b.wait();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Ok(table(64))
                })
                .unwrap()
        });
        gate.wait();
        let waited = cache
            .get_or_build(key(1, 1), "t", || unreachable!("single-flight"))
            .unwrap();
        let built = builder.join().unwrap();
        assert!(Arc::ptr_eq(&waited, &built));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.build_latency.count(), 1, "exactly one build ran");
    }
}
