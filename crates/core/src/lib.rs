//! # hj-core — fine-grained CPU-GPU co-processing for hash joins
//!
//! This crate is the primary contribution of the reproduction of
//! *"Revisiting Co-Processing for Hash Joins on the Coupled CPU-GPU
//! Architecture"* (He, Lu, He; VLDB 2013): hash joins decomposed into
//! per-tuple steps, co-processed across a CPU and a GPU that share memory
//! and cache — served through a long-lived, fallible [`JoinEngine`].
//!
//! ## Architecture: a four-layer stack
//!
//! Execution is organised as four layers, each consuming the one below:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ 1. Schemes       CPU-only / GPU-only / OL / DD / PL / BasicUnit    │
//! │                  ([`config::Scheme`], [`scheme`]) — per-step       │
//! │                  workload ratios ([`schedule::Ratios`])            │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ 2. Pipeline /    step series (`n1..n3`, `b1..b4`, `p1..p4`)        │
//! │    morsels       decomposed into ~64 K-tuple `Morsel`s; ratios     │
//! │                  split each morsel into CPU/GPU lanes              │
//! │                  ([`pipeline`], [`phase`], [`steps`])              │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ 3. Scheduler     one task stream, two interpretations: the         │
//! │                  persistent work-stealing [`pipeline::WorkerPool`] │
//! │                  (spawned once per engine, shared by all sessions) │
//! │                  drives real threads; `apu_sim::DeviceClocks`      │
//! │                  replays the same schedule on simulated clocks     │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ 4. Backends      [`CoupledSim`] / [`DiscreteSim`] (calibrated      │
//! │                  device model) and [`NativeCpu`] (measured         │
//! │                  wall-clock, [`native`]), pooled behind a          │
//! │                  concurrent [`JoinEngine`] ([`engine`])            │
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **The engine** ([`engine`]) — a [`JoinEngine`] is constructed once
//!   from an [`ExecBackend`] + [`EngineConfig`] and provisions a pool of
//!   arena-backed *sessions* (`EngineConfig::sessions(n)`).
//!   [`JoinEngine::submit`] takes `&self`: many threads share one engine,
//!   up to `n` requests run in flight, a bounded queue absorbs bursts and
//!   overload is rejected with the typed [`JoinError::Saturated`].
//! * **Algorithms** — the simple hash join (SHJ) and the radix-partitioned
//!   hash join (PHJ), built on the paper's bucket-header → key-list →
//!   rid-list hash table (`hashtable`) and MurmurHash 2.0 ([`hash`]).
//! * **The native kernel** ([`native`]) — [`NativeCpu`] joins through the
//!   same §3.1 idea laid out flat for host threads: per shard, a
//!   power-of-two open-addressed directory of `{key, start, len}` slots
//!   (indexed by the high bits of [`hash::hash_key`]) over one contiguous
//!   rid vector in which each key's duplicates are a single run in build
//!   order.  One build loop and one probe loop serve `submit`,
//!   `submit_cached`, spill partition pairs and the wire alike; the large
//!   buffers of a finished join are kept for the backend's next one.
//! * **Fine-grained steps** — `n1..n3`, `b1..b4`, `p1..p4` ([`steps`]), each
//!   a data-parallel kernel whose work can be split between the devices at a
//!   per-step workload ratio ([`schedule`]).
//! * **Design tradeoffs** — shared vs. separate hash tables, the basic vs.
//!   block software memory allocator, grouping-based divergence reduction
//!   ([`divergence`]), fine vs. coarse step granularity ([`coarse`]) and
//!   out-of-core execution beyond the zero-copy buffer (`outofcore`).
//!
//! ## Adaptive tuning
//!
//! The cost model that picks the per-step ratios is, by default, *offline*:
//! calibrated once, trusted for the whole join.  The adaptive runtime
//! subsystem ([`adaptive`], crate `hj-adaptive`, a layer *below* this crate
//! that it re-exports) closes the loop:
//!
//! * the step pipeline (`phase::run_step`) feeds per-morsel-block lane
//!   timings (virtual time from the simulator's device model) to an
//!   [`adaptive::RatioTuner`]; [`NativeCpu`] contributes per-morsel
//!   wall-clock telemetry only — real-thread execution has no CPU/GPU
//!   lanes for ratios to place, so native runs report but never re-plan;
//! * EWMA unit-cost estimators (seeded by an optional calibrated prior,
//!   overridden by evidence) feed a runtime re-solve of the paper's ratio
//!   optimisation, re-planning the remaining morsels at step boundaries
//!   and every K morsels;
//! * lanes the current plan starves get a small exploration share, so a
//!   mis-calibrated prior cannot lock the tuner out of measuring the
//!   faster device.
//!
//! Adaptivity only moves work between the devices — which tuples are
//! processed, and in what order, never changes — so adaptive and static
//! runs produce **identical join results**; only device placement (and
//! with it simulated/elapsed time) differs.
//!
//! **Migrating a static caller:** opt in per request or per engine —
//!
//! ```text
//! // per request:
//! let request = JoinRequest::builder()
//!     .scheme(&tuned)                       // the offline plan stays the seed
//!     .tuning(Tuning::Adaptive(
//!         AdaptiveConfig::default().with_prior(costs.adaptive_prior())))
//!     .build()?;
//! // or engine-wide:
//! let engine = JoinEngine::coupled(config.with_tuning(Tuning::adaptive()))?;
//! ```
//!
//! Nothing else changes: the same `submit` call returns the same results,
//! and the outcome's [`JoinOutcome::adaptive`](result::JoinOutcome) report
//! carries re-plan/sample counts plus initial vs converged ratios per step
//! series ([`EngineStats::adaptive_requests`] / [`EngineStats::replans`]
//! aggregate across requests).  Requests silently stay static (no tuner,
//! no report) when there is nothing sound to re-plan: schemes without a
//! ratio plan (BasicUnit), explicit single-device placements (CPU-only /
//! GPU-only / one-device off-loading — directives, not estimates) and the
//! discrete PCI-e topology (table-mode selection and transfer accounting
//! derive from the static plan).  A separate-hash-table *build phase*
//! additionally holds its planned ratios (tuple→table ownership is
//! positional) while the rest of that run keeps adapting.
//!
//! ## Memory budget & spilling
//!
//! Admission control and arena sizing reject what does not fit; the spill
//! subsystem (crate `hj-spill`, re-exported as [`spill`], plus the
//! `spilljoin` executor in this crate) makes those requests *degrade*
//! instead of fail when they opt in:
//!
//! * [`EngineConfig::memory_budget`] installs an engine-wide
//!   [`spill::MemoryBroker`]: one byte budget, fair-shared across every
//!   concurrently spilling session through non-blocking grants (denial,
//!   not waiting — sessions cannot deadlock on memory) with a polled
//!   reclaim-pressure signal for sessions above their share.
//! * [`JoinRequestBuilder::spill`](engine::JoinRequestBuilder::spill)
//!   opts a request into the dynamic hybrid hash join: build partitions
//!   start resident and are evicted to checksummed run files under
//!   pressure, probe tuples of spilled partitions are staged to disk,
//!   resident pairs re-enter the morsel pipeline via the ordinary backend
//!   entry point (the adaptive tuner keeps working), and spilled pairs
//!   are restored, recursively re-partitioned (streamed, depth-salted
//!   hash) or — past [`spill::SpillConfig::max_recursion_depth`] —
//!   finished by a grant-bounded block nested-loop join.
//! * The spill path engages on an input too big for the arena (admission
//!   would reject), on mid-flight [`JoinError::ArenaExhausted`] (which now
//!   names the phase that asked), or proactively when the resident
//!   footprint exceeds the session's fair share.  Results are
//!   byte-identical to the unconstrained in-memory run;
//!   [`JoinOutcome::spill`](result::JoinOutcome) carries the
//!   [`spill::SpillReport`] (bytes spilled/restored, partitions, recursion
//!   depth, wall-clock) and [`EngineStats`] aggregates the counters.
//!
//! **Migrating a caller that catches `ArenaExhausted`:** match the new
//! `phase` field (or `..`), and consider
//! `JoinRequest::builder().spill(SpillConfig::default())` so the request
//! completes by spilling instead of failing; `out_of_core(..)` and
//! `spill(..)` are mutually exclusive.
//!
//! ## Worker pool & sessions
//!
//! The engine separates two concurrency axes:
//!
//! * **Sessions** (`EngineConfig::sessions(n)`) bound *admission*
//!   concurrency: how many requests may be in flight at once, each
//!   borrowing one pooled arena.
//! * **Worker threads** (`EngineConfig::worker_threads(n)`, default: one
//!   per available hardware thread) bound *execution* parallelism: a
//!   single persistent [`pipeline::WorkerPool`] per engine — spawned once,
//!   lazily on the first native execution — runs the morsels of **every**
//!   session.  Concurrent joins interleave their morsels in the shared
//!   deques (work stealing balances them), so eight in-flight joins share
//!   the machine instead of spawning eight thread sets — and instead of
//!   respawning OS threads per step, which made aggregate throughput
//!   *fall* as clients rose.  The pool parks idle workers on a condition
//!   variable and joins them all when the engine drops.
//!
//! [`EngineStats::worker_threads`] and [`EngineStats::per_worker_tasks`]
//! report the pool's size and per-worker activity.
//!
//! ## Serving layer
//!
//! The network front-end (crate `hj-server`, re-exported as [`server`],
//! plus the TCP [`serve::JoinServer`] in this crate) turns a shared engine
//! into a network service with SLO-aware admission instead of blunt
//! saturation:
//!
//! * **Wire format** — every message is one length-prefixed frame with a
//!   64-bit payload checksum (XXH64, [`server::frame`] says why), its
//!   length validated before allocation:
//!
//!   | field | bytes | meaning |
//!   |---|---|---|
//!   | magic | 4 | `"HJW\x01"` |
//!   | version | 1 | protocol version (currently 2; 1 recorded FNV-1a) |
//!   | frame type | 1 | Request / Response / Chunk / Done / Error / Overloaded |
//!   | reserved | 2 | zero |
//!   | payload len | 4 | little-endian, checked against a ceiling first |
//!   | checksum | 8 | `datagen::checksum64` (XXH64) over the payload |
//!
//!   Torn, oversized, corrupt or foreign frames surface as typed
//!   [`server::WireError`]s and a best-effort error reply — never a panic
//!   or a hang.  A collected pair set streams back in bounded `Chunk`
//!   frames closed by a positive `Done` marker, so a torn stream cannot
//!   masquerade as a short result.
//! * **Deadlines & shedding** — a request may carry a deadline and a
//!   priority.  The [`server::AdmissionController`] estimates completion
//!   (queue backlog / engine parallelism + an EWMA ns-per-tuple service
//!   estimate) and *sheds* requests that would bust their deadline, break
//!   a per-client token-bucket quota, or exceed the server's queue-time
//!   budget — each answered with a typed `Overloaded` frame carrying the
//!   shed reason, a retry hint and the engine load snapshot.  Engine-level
//!   [`JoinError::Saturated`] (which now snapshots `in_flight`/`queued`)
//!   is translated the same way, so an overloaded server never times a
//!   client out.
//! * **Client** — the blocking [`server::JoinClient`]:
//!
//!   ```text
//!   let mut client = JoinClient::connect(server.local_addr())?;
//!   let outcome = client.join(
//!       RequestBuilder::new(build, probe)
//!           .algorithm(WireAlgorithm::Phj)
//!           .scheme(WireScheme::Pipelined)
//!           .collect_pairs(true)
//!           .deadline_ms(500)
//!           .build())?;
//!   // outcome.matches, outcome.pairs — byte-identical to in-process submit;
//!   // Err(ClientError::Overloaded { retry_after_ms, .. }) is the typed shed.
//!   ```
//!
//! [`EngineStats::queue_wait`] records how long every acquisition waited
//! for a session, as a log2 histogram with p50/p99 extraction — the
//! engine-side half of the serving layer's tail-latency accounting.  The
//! serving layer takes each served join's own wait off the time it
//! measured, so its admission estimate learns service time alone.
//!
//! ## Table registry & hash-table cache
//!
//! Every `submit` rebuilds the build-side hash table from scratch — the
//! right default for ad-hoc joins, pure waste when many requests share one
//! build relation.  The table registry ([`cached`]) removes the rebuild:
//!
//! * [`JoinEngine::register_table`] copies the tuples once into an
//!   engine-owned, version-stamped [`TableHandle`]; re-registering the
//!   same name bumps the version and invalidates every cached artefact of
//!   the old one.  [`JoinEngine::table`] looks handles up by name (the
//!   serving layer's `table_ref` requests resolve through it).
//! * [`JoinEngine::submit_cached`] joins a registered table against a
//!   per-request probe.  The built hash table is cached outside the
//!   session arenas, keyed by `(table, version, backend, build-relevant
//!   scheme parameters)` — a **hit skips the build phase entirely** and
//!   runs a probe-only pipeline (the adaptive tuner still observes the
//!   probe morsels); a miss builds under a single-flight guard, so N
//!   concurrent cold requests cost one build and N−1 waiters.  A builder
//!   that panics fails its waiters with the typed
//!   [`JoinError::CacheBuildFailed`] instead of wedging them.
//! * Cached bytes are charged to the engine's [`spill::MemoryBroker`] —
//!   cache residency, spill grants and arena sizing share one budget — and
//!   an LRU sweep releases cold entries under reclaim pressure.  Dropping
//!   the engine returns every cached byte; [`EngineStats::cache`]
//!   ([`CacheStats`]) reports hits, misses, evictions, invalidations,
//!   resident bytes and a log2 build-latency histogram.
//! * Results are **byte-identical** to the uncached `submit` for every
//!   algorithm × scheme combination; configurations the cache cannot
//!   serve (out-of-core, spill) fall back to the ordinary path inside
//!   `submit_cached` transparently.
//!
//! **Migrating a repeated-build caller:** nothing existing changes —
//! `submit` is untouched and per-request tables keep working.  Where the
//! build side repeats, opt in:
//!
//! ```text
//! let dim = engine.register_table("dim", build)?;     // copy once
//! let out = engine.submit_cached(&request, &dim, &probe)?;  // cold: builds + caches
//! let out = engine.submit_cached(&request, &dim, &probe)?;  // hot: probe-only
//! assert!(engine.cache_stats().hits >= 1);
//! ```
//!
//! ## Observability
//!
//! The engine is instrumented end to end (crate `hj-metrics`, re-exported
//! as [`metrics`]), with two surfaces that share one design rule: the
//! hot path only ever touches pre-registered atomics, never a lock it
//! could contend on.
//!
//! * **Metrics registry** — every engine owns a
//!   [`metrics::MetricsRegistry`] ([`JoinEngine::metrics_registry`])
//!   holding counters, gauges and log2 histograms registered once at
//!   construction and updated via relaxed atomics.  [`EngineStats`] is a
//!   snapshot view over the same atomics, so the wire-exposed numbers and
//!   the in-process stats reconcile exactly.
//!   [`JoinEngine::render_metrics`] renders the whole registry — engine,
//!   pipeline, spill, cache and serving-layer families alike — in
//!   Prometheus text exposition format, and the serving layer answers a
//!   `Metrics` frame ([`server::JoinClient::metrics`]) with the same text.
//! * **Flight recorder** — a request built with
//!   `JoinRequest::builder().trace(true)` gets an EXPLAIN-ANALYZE-style
//!   [`metrics::JoinTrace`] on [`JoinOutcome::trace`](result::JoinOutcome)
//!   (phase/step spans, spill/cache/re-plan events), assembled *after*
//!   execution so traced and untraced runs produce byte-identical join
//!   results.  Over the wire the trace streams as a `Trace` frame after
//!   `Done`.
//!
//! See `docs/OBSERVABILITY.md` for the full metric and event catalogue.
//!
//! ## Quick start
//!
//! ```
//! use hj_core::engine::{EngineConfig, JoinEngine, JoinRequest};
//! use hj_core::{Algorithm, Scheme};
//! use datagen::DataGenConfig;
//!
//! // Construct once: the engine provisions one reusable arena per session,
//! // each sized for the largest join it will admit.
//! let engine =
//!     JoinEngine::coupled(EngineConfig::for_tuples(16_384, 32_768).sessions(2)).unwrap();
//!
//! // Build requests with the typed builder; bad knobs fail at build().
//! let request = JoinRequest::builder()
//!     .algorithm(Algorithm::partitioned_auto())
//!     .scheme(Scheme::pipelined_paper())
//!     .build()
//!     .unwrap();
//!
//! let (build, probe) = datagen::generate_pair(&DataGenConfig::small(10_000, 20_000));
//! // submit() takes &self — share the engine across client threads freely.
//! let outcome = engine.submit(&request, &build, &probe).unwrap();
//! assert_eq!(outcome.matches, hj_core::reference_match_count(&build, &probe));
//! println!("PHJ-PL took {} (simulated)", outcome.total_time());
//!
//! // The session arenas are reused — no per-request allocation:
//! let again = engine.submit(&request, &build, &probe).unwrap();
//! assert_eq!(again.matches, outcome.matches);
//! assert_eq!(engine.stats().arenas_created, 2); // one per session, ever
//! ```
//!
//! ## Migrating `execute_join` callers to the morsel pipeline
//!
//! [`execute_join`] still takes `(ctx, build, probe, cfg)` and returns the
//! same `Result<JoinOutcome, JoinError>`, but since the morsel refactor it
//! no longer runs each phase as one monolithic pass: phases are decomposed
//! into [`pipeline::Morsel`]s of [`JoinConfig::morsel_tuples`] tuples
//! (default `pipeline::DEFAULT_MORSEL_TUPLES`), and the per-step ratios
//! split each morsel between the devices.  Match counts and collected
//! pairs are byte-identical to the old phase-at-a-time path; simulated
//! times can differ marginally because the CPU/GPU split is now rounded
//! per morsel rather than per phase.  Callers that need the old timing
//! behaviour exactly can set `morsel_tuples` larger than their relations
//! (one morsel per step).  A bad scheme/algorithm combination now surfaces
//! as [`JoinError::InvalidScheme`] instead of a panic.
//!

#![warn(missing_docs)]

pub use hj_adaptive as adaptive;
pub use hj_metrics as metrics;
pub use hj_server as server;
pub use hj_spill as spill;

pub mod build;
pub mod cached;
pub mod coarse;
pub mod config;
pub mod context;
pub mod divergence;
pub mod engine;
pub mod error;
pub mod executor;
pub mod hash;
pub(crate) mod hashtable;
pub mod native;
pub(crate) mod outofcore;
pub mod partition;
pub mod phase;
pub(crate) mod pipeline;
pub mod probe;
pub mod result;
pub mod schedule;
pub mod scheme;
pub(crate) mod serve;
pub(crate) mod spilljoin;
pub mod steps;

pub use build::{run_build_phase, BuildTarget};
pub use cached::{CacheParams, CacheStats, CachedTable, TableHandle};
pub use config::{Algorithm, HashTableMode, JoinConfig, Scheme, StepGranularity};
pub use context::{arena_bytes_for, ExecContext, ExecCounters};
pub use engine::{
    CoupledSim, DiscreteSim, EngineConfig, EngineLoad, EngineStats, ExecBackend, JoinEngine,
    JoinRequest, JoinRequestBuilder, NativeCpu, Tuning,
};
pub use error::JoinError;
pub use executor::execute_join;
pub use hashtable::HashTable;
pub use partition::run_partition_pass;
pub use phase::{PhaseExecution, StepExecution};
pub use pipeline::{Morsel, StepSeries, WorkerPool};
pub use probe::{run_probe_phase, ProbeOutput};
pub use result::{reference_match_count, reference_pairs, BasicUnitRatios, JoinOutcome};
pub use schedule::{compose_pipeline, PipelineTiming, Ratios};
pub use scheme::RatioPlan;
pub use serve::{JoinServer, ServerConfig, ServerStats};
pub use steps::StepId;

/// Asks the CPU to start loading the cache line that holds `items[index]`,
/// so a miss overlaps the work before its use.  A hint only: an index past
/// the end is harmless, and targets without a stable prefetch intrinsic (and
/// Miri) do nothing.  The native kernel and the simulator's hash table both
/// prefetch through this one helper.
#[inline]
pub(crate) fn prefetch<T>(items: &[T], index: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let at = items.as_ptr().wrapping_add(index);
        // SAFETY: a prefetch is a hint that accesses no memory as far as the
        // program can observe and never faults, whatever the address; SSE
        // is part of the x86-64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(at.cast()) };
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = (items, index);
}
