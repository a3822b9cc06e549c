//! The long-lived, concurrent join engine: a pool of arena-backed sessions,
//! typed requests, pluggable execution backends.
//!
//! The original reproduction exposed one-shot free functions that allocated
//! a fresh arena and context per call and panicked on exhaustion.  A system
//! serving many concurrent, heterogeneous join requests needs the opposite
//! shape — construct once, admit explicitly, fail cleanly, serve in
//! parallel:
//!
//! * [`JoinEngine`] is built once from an [`ExecBackend`] and an
//!   [`EngineConfig`]; it provisions one arena per configured session up
//!   front and reuses them for every request (see
//!   [`EngineStats::arenas_created`]).
//! * [`JoinEngine::submit`] takes `&self`: a shared engine admits up to
//!   [`EngineConfig::sessions`] in-flight requests from any number of
//!   client threads, queues up to [`EngineConfig::queue_depth`] more, and
//!   rejects further submissions with [`JoinError::Saturated`] — typed
//!   backpressure instead of unbounded queueing.
//! * [`JoinRequest`] is built with a validating builder
//!   ([`JoinRequest::builder`]): out-of-range ratios, zero chunk/morsel
//!   sizes and unsupported radix widths are rejected at `build()` time,
//!   before they reach the execution skeleton.
//! * Oversized inputs are rejected at admission, arena exhaustion
//!   mid-execution surfaces as an error, and the engine stays usable.
//! * [`ExecBackend`] abstracts how the join is placed and timed.
//!   [`CoupledSim`] and [`DiscreteSim`] replay the morsel task stream of
//!   `crate::pipeline` through the simulator's event clock; [`NativeCpu`]
//!   executes the same stream for real on work-stealing host threads and
//!   reports wall-clock times — the simulator and a production path share
//!   one task stream.
//!
//! ```
//! use hj_core::engine::{EngineConfig, JoinEngine, JoinRequest};
//! use hj_core::{Algorithm, Scheme};
//!
//! let (build, probe) = datagen::generate_pair(&datagen::DataGenConfig::small(4_096, 8_192));
//! let engine = JoinEngine::coupled(EngineConfig::for_tuples(8_192, 16_384).sessions(2)).unwrap();
//! let request = JoinRequest::builder()
//!     .algorithm(Algorithm::partitioned_auto())
//!     .scheme(Scheme::pipelined_paper())
//!     .build()
//!     .unwrap();
//! // `submit` takes `&self`: clone the work across threads at will.
//! let outcome = engine.submit(&request, &build, &probe).unwrap();
//! assert_eq!(outcome.matches, hj_core::reference_match_count(&build, &probe));
//! assert_eq!(engine.stats().arenas_created, 2); // one arena per session
//! ```

use crate::cached::{CacheKey, CacheParams, CacheStats, CachedTable, HashTableCache, TableHandle};
use crate::config::{Algorithm, HashTableMode, JoinConfig, Scheme, StepGranularity};
use crate::context::{arena_bytes_for, ExecContext};
use crate::error::JoinError;
// The native backend lives in its own module; the historical
// `hj_core::engine::NativeCpu` path keeps working.
pub use crate::native::{NativeCpu, NATIVE_MIN_CHUNK_TUPLES};
use crate::pipeline::{read_counters, SharedWorkerPool, WorkerCounters, WorkerPool};
use crate::result::JoinOutcome;
use crate::scheme::RatioPlan;
use apu_sim::SystemSpec;
use datagen::Relation;
use hj_adaptive::{AdaptiveConfig, RatioTuner};
use hj_analysis::sync::{Condvar, Mutex};
use hj_metrics::{
    AtomicHistogram, Counter, Gauge, HealthMonitor, HealthReport, JoinTrace, LatencyHistogram,
    MetricsRegistry, SlowJoinRecord, SlowLog, TraceEventKind,
};
use hj_spill::{MemoryBroker, SpillConfig, SpillManager};
use mem_alloc::{AllocatorKind, KernelAllocator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Tuning policy
// ---------------------------------------------------------------------------

/// Whether a request runs its offline ratio plan unchanged or closes the
/// loop with the adaptive runtime tuner (`hj_core::adaptive`).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Tuning {
    /// Execute the scheme's ratios exactly as planned (the default).
    #[default]
    Static,
    /// Collect per-morsel lane telemetry and re-plan the remaining work's
    /// ratios at step boundaries (and every
    /// [`AdaptiveConfig::replan_every_morsels`] morsels), seeded by the
    /// offline plan — see the `hj_core::adaptive` docs.
    ///
    /// Adaptivity never changes which tuples are processed or in what
    /// order, so adaptive and static runs produce identical join results;
    /// only the device placement (and with it the simulated time) differs.
    ///
    /// Requests stay static (no tuner, no report) when there is nothing
    /// sound to re-plan:
    /// * schemes without a ratio plan (BasicUnit);
    /// * explicit single-device schemes ([`Scheme::CpuOnly`],
    ///   [`Scheme::GpuOnly`], an off-loading placement that puts every step
    ///   on one device) — those are placement *directives*, and the
    ///   exploration share would silently turn them into hybrid runs;
    /// * the discrete (PCI-e) topology — shared-vs-separate table selection
    ///   and transfer accounting are derived from the static plan, and
    ///   runtime ratio drift would break those invariants (a shared hash
    ///   table cannot straddle the bus).
    Adaptive(AdaptiveConfig),
}

impl Tuning {
    /// The default adaptive policy (no prior; EWMA and cadence defaults).
    pub fn adaptive() -> Self {
        Tuning::Adaptive(AdaptiveConfig::default())
    }

    fn validate(&self) -> Result<(), JoinError> {
        match self {
            Tuning::Static => Ok(()),
            Tuning::Adaptive(config) => config.validate().map_err(JoinError::InvalidConfig),
        }
    }

    /// Builds the seeded tuner for a request, or `None` when tuning is
    /// static or the scheme is not adaptable (see [`Tuning::Adaptive`]).
    fn tuner_for(&self, scheme: &Scheme) -> Option<RatioTuner> {
        let Tuning::Adaptive(config) = self else {
            return None;
        };
        // An explicit single-device scheme is a placement directive, not an
        // estimate to improve on: re-planning (whose exploration share
        // probes the other device) would silently turn "CPU-only" into a
        // hybrid run.
        if !scheme.uses_both_devices() {
            return None;
        }
        let plan = RatioPlan::from_scheme(scheme)?;
        Some(RatioTuner::new(
            config.clone(),
            plan.partition.as_slice().to_vec(),
            plan.build.as_slice().to_vec(),
            plan.probe.as_slice().to_vec(),
        ))
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A validated join request: which algorithm, scheme and tradeoff knobs to
/// run with, and whether to take the out-of-core path.
///
/// Construct one with [`JoinRequest::builder`] (validating) or
/// [`JoinRequest::from_config`] (validating an existing [`JoinConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinRequest {
    config: JoinConfig,
    out_of_core: Option<usize>,
    tuning: Option<Tuning>,
    spill: Option<SpillConfig>,
    trace: bool,
}

impl JoinRequest {
    /// A builder with the tuned defaults of [`JoinConfig::shj`] and the
    /// paper's pipelined scheme.
    pub fn builder() -> JoinRequestBuilder {
        JoinRequestBuilder::default()
    }

    /// Validates an existing [`JoinConfig`] into a request.
    ///
    /// # Errors
    /// Returns the same validation errors as
    /// [`JoinRequestBuilder::build`].
    pub fn from_config(config: JoinConfig) -> Result<Self, JoinError> {
        validate_config(&config)?;
        Ok(JoinRequest {
            config,
            out_of_core: None,
            tuning: None,
            spill: None,
            trace: false,
        })
    }

    /// Enables the out-of-core path, streaming `chunk_tuples` tuples through
    /// the zero-copy buffer at a time.
    ///
    /// # Errors
    /// Returns [`JoinError::InvalidChunkSize`] for a zero chunk.
    pub fn with_out_of_core(mut self, chunk_tuples: usize) -> Result<Self, JoinError> {
        if chunk_tuples == 0 {
            return Err(JoinError::InvalidChunkSize);
        }
        self.out_of_core = Some(chunk_tuples);
        Ok(self)
    }

    /// The validated join configuration.
    pub fn config(&self) -> &JoinConfig {
        &self.config
    }

    /// The out-of-core chunk size, when the out-of-core path was requested.
    pub(crate) fn out_of_core_chunk(&self) -> Option<usize> {
        self.out_of_core
    }

    /// The request's tuning policy, when set explicitly; `None` defers to
    /// [`EngineConfig::tuning`].
    pub fn tuning(&self) -> Option<&Tuning> {
        self.tuning.as_ref()
    }

    /// The spill configuration, when the request opted into disk spilling.
    pub(crate) fn spill_config(&self) -> Option<&SpillConfig> {
        self.spill.as_ref()
    }

    /// Whether the request asked for the per-join flight recorder
    /// ([`JoinOutcome::trace`](crate::result::JoinOutcome::trace)).
    pub(crate) fn trace_enabled(&self) -> bool {
        self.trace
    }

    /// The request the spill path hands to the backend for each partition
    /// pair: same knobs, but no spill (a pair join must not spill again)
    /// and no out-of-core chunking (pairs are pre-sized to fit).
    fn inner_for_spill(&self) -> JoinRequest {
        JoinRequest {
            config: self.config.clone(),
            out_of_core: None,
            tuning: self.tuning.clone(),
            spill: None,
            // The outer request's recorder already covers the whole join;
            // per-pair traces would be assembled and thrown away.
            trace: false,
        }
    }

    /// Arena bytes this request needs on `sys` for the given input
    /// cardinalities — the engine's admission test.
    fn required_arena_bytes(
        &self,
        build_tuples: usize,
        probe_tuples: usize,
        sys: &SystemSpec,
    ) -> usize {
        if let Some(chunk) = self.out_of_core {
            if crate::outofcore::spills(sys, build_tuples, probe_tuples) {
                // Chunks stream through the arena one at a time; partition
                // pairs are re-checked against the arena during execution.
                return arena_bytes_for(chunk.min(build_tuples), chunk.min(probe_tuples));
            }
        }
        arena_bytes_for(build_tuples, probe_tuples)
    }
}

/// Builder for [`JoinRequest`]; every knob of [`JoinConfig`] plus the
/// out-of-core path, validated at [`build`](Self::build).
#[derive(Debug, Clone)]
pub struct JoinRequestBuilder {
    config: JoinConfig,
    out_of_core: Option<usize>,
    tuning: Option<Tuning>,
    spill: Option<SpillConfig>,
    trace: bool,
}

impl Default for JoinRequestBuilder {
    fn default() -> Self {
        JoinRequestBuilder {
            config: JoinConfig::shj(Scheme::pipelined_paper()),
            out_of_core: None,
            tuning: None,
            spill: None,
            trace: false,
        }
    }
}

impl JoinRequestBuilder {
    /// Sets the join algorithm (SHJ or PHJ).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the co-processing scheme.
    ///
    /// Accepts anything convertible into a [`Scheme`] — including the tuned
    /// plan produced by the cost model's `tune_scheme`, which converts to
    /// its best-predicted scheme.
    pub fn scheme(mut self, scheme: impl Into<Scheme>) -> Self {
        self.config.scheme = scheme.into();
        self
    }

    /// Shared or separate hash tables.
    pub fn hash_table(mut self, mode: HashTableMode) -> Self {
        self.config.hash_table = mode;
        self
    }

    /// Software allocator design for the engine arena.
    pub fn allocator(mut self, allocator: AllocatorKind) -> Self {
        self.config.allocator = allocator;
        self
    }

    /// Enables or disables grouping-based divergence reduction.
    pub fn grouping(mut self, grouping: bool) -> Self {
        self.config.grouping = grouping;
        self
    }

    /// Fine or coarse step definition (PHJ only).
    pub fn granularity(mut self, granularity: StepGranularity) -> Self {
        self.config.granularity = granularity;
        self
    }

    /// Materialise result pairs instead of only counting them.
    pub fn collect_results(mut self, collect: bool) -> Self {
        self.config.collect_results = collect;
        self
    }

    /// Enables the exact L2 cache simulator (slower).
    pub fn profile_cache(mut self, profile: bool) -> Self {
        self.config.profile_cache = profile;
        self
    }

    /// Takes the out-of-core path, streaming `chunk_tuples` tuples through
    /// the zero-copy buffer at a time.
    pub fn out_of_core(mut self, chunk_tuples: usize) -> Self {
        self.out_of_core = Some(chunk_tuples);
        self
    }

    /// Sets the morsel size (tuples) the step pipeline decomposes each
    /// phase into.
    pub fn morsel_tuples(mut self, morsel_tuples: usize) -> Self {
        self.config.morsel_tuples = morsel_tuples;
        self
    }

    /// Chooses the tuning policy: run the offline plan as-is
    /// ([`Tuning::Static`]) or close the loop with the adaptive runtime
    /// tuner ([`Tuning::Adaptive`]).  Unset, the request follows
    /// [`EngineConfig::tuning`].
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = Some(tuning);
        self
    }

    /// Opts the request into the disk-spill path: instead of failing with
    /// [`JoinError::OversizedInput`] or [`JoinError::ArenaExhausted`], the
    /// engine runs a dynamic hybrid hash join that evicts build partitions
    /// to checksummed run files under memory pressure (see
    /// `crate::spilljoin`).  Mutually exclusive with
    /// [`out_of_core`](Self::out_of_core).
    pub fn spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Opts the request into the per-join flight recorder: the outcome's
    /// [`trace`](crate::result::JoinOutcome::trace) carries an
    /// EXPLAIN-ANALYZE-style tree of phase/step timings plus
    /// spill/cache/re-plan events.  The trace is assembled **after**
    /// execution from data the join produces anyway, so a traced run's
    /// matches and pairs are byte-identical to an untraced one.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Validates and builds the request.
    ///
    /// # Errors
    /// * [`JoinError::InvalidRatio`] for a scheme ratio outside `[0, 1]`
    ///   (or non-finite);
    /// * [`JoinError::InvalidChunkSize`] for a zero BasicUnit or out-of-core
    ///   chunk;
    /// * [`JoinError::InvalidRadixBits`] for more than 16 radix bits;
    /// * [`JoinError::InvalidConfig`] for degenerate adaptive-tuning or
    ///   spill knobs, or for combining `out_of_core` with `spill`.
    pub fn build(self) -> Result<JoinRequest, JoinError> {
        validate_config(&self.config)?;
        if self.out_of_core == Some(0) {
            return Err(JoinError::InvalidChunkSize);
        }
        if let Some(tuning) = &self.tuning {
            tuning.validate()?;
        }
        if let Some(spill) = &self.spill {
            spill.validate().map_err(JoinError::InvalidConfig)?;
            if self.out_of_core.is_some() {
                return Err(JoinError::InvalidConfig(
                    "out_of_core streaming and spill(..) are mutually exclusive: \
                     pick zero-copy-buffer chunking or broker-governed spilling"
                        .to_string(),
                ));
            }
        }
        Ok(JoinRequest {
            config: self.config,
            out_of_core: self.out_of_core,
            tuning: self.tuning,
            spill: self.spill,
            trace: self.trace,
        })
    }
}

fn validate_ratio(series: &'static str, step: usize, value: f64) -> Result<(), JoinError> {
    if !value.is_finite() || !(0.0..=1.0).contains(&value) {
        return Err(JoinError::InvalidRatio {
            series,
            step,
            value,
        });
    }
    Ok(())
}

fn validate_config(config: &JoinConfig) -> Result<(), JoinError> {
    match &config.scheme {
        Scheme::CpuOnly | Scheme::GpuOnly | Scheme::Offload { .. } => {}
        Scheme::DataDividing {
            partition_ratio,
            build_ratio,
            probe_ratio,
        } => {
            validate_ratio("partition", 0, *partition_ratio)?;
            validate_ratio("build", 0, *build_ratio)?;
            validate_ratio("probe", 0, *probe_ratio)?;
        }
        Scheme::Pipelined {
            partition,
            build,
            probe,
        } => {
            for (series, ratios) in [
                ("partition", partition.as_slice()),
                ("build", build.as_slice()),
                ("probe", probe.as_slice()),
            ] {
                for (step, &value) in ratios.iter().enumerate() {
                    validate_ratio(series, step, value)?;
                }
            }
        }
        Scheme::BasicUnit { chunk_tuples } => {
            if *chunk_tuples == 0 {
                return Err(JoinError::InvalidChunkSize);
            }
        }
    }
    if let Algorithm::Partitioned { radix_bits, .. } = config.algorithm {
        if radix_bits > 16 {
            return Err(JoinError::InvalidRadixBits { radix_bits });
        }
    }
    if config.morsel_tuples == 0 {
        return Err(JoinError::InvalidConfig(
            "morsel size must be at least one tuple".to_string(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// How join phases are placed and timed.
///
/// The engine owns admission, the reusable arena pool and counter
/// finalisation; a backend only executes an admitted request against the
/// context it is handed.  Simulator backends account elapsed time with the
/// calibrated device model; [`NativeCpu`] measures real wall-clock time on
/// host threads.
///
/// Backends are `Send + Sync`: one backend instance serves every in-flight
/// session of a concurrent [`JoinEngine`], so it must not hold per-request
/// mutable state (all of that lives in the per-session [`ExecContext`]).
pub trait ExecBackend: Send + Sync {
    /// A short identifier ("coupled-sim", "discrete-sim", "native-cpu").
    fn name(&self) -> &'static str;

    /// The system specification the engine sizes contexts and admission
    /// against.
    fn system(&self) -> &SystemSpec;

    /// Executes one admitted request.
    ///
    /// # Errors
    /// Typically [`JoinError::ArenaExhausted`] when the context's arena is
    /// too small for the request's working state.
    fn execute(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError>;

    /// The build-relevant parameters (beyond table identity) distinguishing
    /// cached hash tables this backend would build for `request` over a
    /// build side of `build_tuples` tuples — or `None` when the request
    /// cannot be served from a cached table, in which case
    /// [`JoinEngine::submit_cached`] transparently falls back to a full
    /// per-request build.
    ///
    /// The default declines everything: a backend opts into the cache by
    /// implementing this together with [`build_cached`](Self::build_cached)
    /// and [`probe_cached`](Self::probe_cached).
    fn cache_params(&self, request: &JoinRequest, build_tuples: usize) -> Option<CacheParams> {
        let _ = (request, build_tuples);
        None
    }

    /// Builds the immutable, shareable build side of `request` for the
    /// hash-table cache.
    ///
    /// Only called for requests this backend accepted via
    /// [`cache_params`](Self::cache_params), with a transient context whose
    /// arena is **not** any session's (the built table outlives the request
    /// and is probed concurrently by other sessions).
    ///
    /// # Errors
    /// [`JoinError::InvalidConfig`] from the default implementation — a
    /// backend that never returns `Some` from `cache_params` is never asked
    /// to build.
    fn build_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        request: &JoinRequest,
    ) -> Result<CachedTable, JoinError> {
        let _ = (ctx, build, request);
        Err(JoinError::InvalidConfig(
            "this backend does not support cached hash tables".to_string(),
        ))
    }

    /// Probes `probe` against a previously built cached table — the
    /// probe-only hot path (build steps skipped entirely).
    ///
    /// Must produce results byte-identical to [`execute`](Self::execute)
    /// over the same inputs: the same matches, the same pairs in the same
    /// order.
    ///
    /// # Errors
    /// [`JoinError::InvalidConfig`] from the default implementation, and
    /// whatever the backend's probe pipeline raises otherwise.
    fn probe_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        cached: &CachedTable,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        let _ = (ctx, cached, probe, request);
        Err(JoinError::InvalidConfig(
            "this backend does not support cached hash tables".to_string(),
        ))
    }
}

fn simulate(
    ctx: &mut ExecContext<'_>,
    build: &Relation,
    probe: &Relation,
    request: &JoinRequest,
) -> Result<JoinOutcome, JoinError> {
    match request.out_of_core_chunk() {
        Some(chunk) => {
            crate::outofcore::execute_out_of_core(ctx, build, probe, request.config(), chunk)
        }
        None => crate::executor::execute_join(ctx, build, probe, request.config()),
    }
}

/// The coupled CPU-GPU architecture of the paper (shared cache and
/// zero-copy buffer, no PCI-e), timed by the calibrated simulator.
#[derive(Debug, Clone)]
pub struct CoupledSim {
    sys: SystemSpec,
}

impl CoupledSim {
    /// The paper's AMD A8-3870K APU.
    pub fn new() -> Self {
        CoupledSim::with_system(SystemSpec::coupled_a8_3870k())
    }

    /// A custom (typically coupled) system specification.
    pub(crate) fn with_system(sys: SystemSpec) -> Self {
        CoupledSim { sys }
    }
}

impl Default for CoupledSim {
    fn default() -> Self {
        CoupledSim::new()
    }
}

impl ExecBackend for CoupledSim {
    fn name(&self) -> &'static str {
        "coupled-sim"
    }

    fn system(&self) -> &SystemSpec {
        &self.sys
    }

    fn execute(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        simulate(ctx, build, probe, request)
    }

    fn cache_params(&self, request: &JoinRequest, build_tuples: usize) -> Option<CacheParams> {
        crate::cached::sim_cache_params(&self.sys, request, build_tuples)
    }

    fn build_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        request: &JoinRequest,
    ) -> Result<CachedTable, JoinError> {
        crate::cached::sim_build_cached(ctx, build, request)
    }

    fn probe_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        cached: &CachedTable,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        crate::cached::sim_probe_cached(ctx, cached, probe, request)
    }
}

/// The emulated discrete architecture (same devices plus a PCI-e transfer
/// delay), timed by the calibrated simulator.
#[derive(Debug, Clone)]
pub struct DiscreteSim {
    sys: SystemSpec,
}

impl DiscreteSim {
    /// The paper's emulated discrete baseline.
    pub fn new() -> Self {
        DiscreteSim::with_system(SystemSpec::discrete_emulated())
    }

    /// A custom (typically discrete) system specification.
    pub(crate) fn with_system(sys: SystemSpec) -> Self {
        DiscreteSim { sys }
    }
}

impl Default for DiscreteSim {
    fn default() -> Self {
        DiscreteSim::new()
    }
}

impl ExecBackend for DiscreteSim {
    fn name(&self) -> &'static str {
        "discrete-sim"
    }

    fn system(&self) -> &SystemSpec {
        &self.sys
    }

    fn execute(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        simulate(ctx, build, probe, request)
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Default interval between the background sampler's registry snapshots.
pub(crate) const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(200);

/// Default wall-clock threshold past which a join lands in the slow-log.
pub(crate) const DEFAULT_SLOW_JOIN_THRESHOLD: Duration = Duration::from_millis(100);

/// Capacity (records) of the engine's slow-join log (drop-oldest).
pub(crate) const DEFAULT_SLOWLOG_CAPACITY: usize = 64;

/// Sizing, allocator and concurrency policy of a [`JoinEngine`]'s session
/// pool.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Largest build relation (tuples) the engine admits.
    pub max_build_tuples: usize,
    /// Largest probe relation (tuples) the engine admits.
    pub max_probe_tuples: usize,
    /// Default software allocator managing each session arena (a request may
    /// switch designs, which rebuilds that session's arena once).
    pub allocator: AllocatorKind,
    /// Concurrent in-flight requests the engine serves: one arena-backed
    /// session each, provisioned at construction.
    pub sessions: usize,
    /// Submissions allowed to *wait* for a session beyond the in-flight
    /// limit; further submissions are rejected with
    /// [`JoinError::Saturated`].  `None` (the default) means "as many as
    /// `sessions`", resolved by `effective_queue_depth`,
    /// so [`sessions`](Self::sessions) and [`queue_depth`](Self::queue_depth)
    /// compose in either order.
    pub queue_depth: Option<usize>,
    /// Worker threads of the engine's persistent execution pool, spawned
    /// once (lazily, at the first native execution) and shared by **all**
    /// sessions (sessions bound admission concurrency; workers bound
    /// execution parallelism).  `None` (the default) means one worker per
    /// available hardware thread, resolved by
    /// `effective_worker_threads`.
    pub worker_threads: Option<usize>,
    /// Default tuning policy for requests that do not choose one explicitly
    /// ([`JoinRequestBuilder::tuning`] overrides per request).
    pub tuning: Tuning,
    /// Engine-wide byte budget for the *spill path's* resident state: the
    /// heap bytes spilling requests may keep in memory, governed by a
    /// fair-share [`MemoryBroker`] across all concurrent sessions.  `None`
    /// (the default) means unlimited — spilling still engages when the
    /// *arena* cannot hold a request, but never from budget pressure.
    ///
    /// Orthogonal to the arena: [`arena_bytes`](Self::arena_bytes) sizes
    /// the per-session kernel arenas (provisioned up front), while this
    /// budget caps the partition payload a spilling join keeps resident.
    pub memory_budget: Option<usize>,
    /// Interval between the background sampler's registry snapshots, each
    /// of which closes one health window ([`JoinEngine::health`]).
    /// `Duration::ZERO` disables the sampler thread entirely; sampling can
    /// still be driven explicitly via [`JoinEngine::sample_now`].
    pub sample_interval: Duration,
    /// Wall-clock threshold past which a completed join is retained in the
    /// slow-log ([`JoinEngine::slow_log`]) with its full flight-recorder
    /// trace, *even when the request was built with `trace(false)`*.
    /// `Duration::ZERO` disables slow-join retention.
    pub slow_join_threshold: Duration,
}

impl EngineConfig {
    /// An engine admitting joins up to `max_build_tuples` ⨝
    /// `max_probe_tuples`, with the paper's tuned block allocator, a single
    /// session and an admission queue of the same depth.
    pub fn for_tuples(max_build_tuples: usize, max_probe_tuples: usize) -> Self {
        EngineConfig {
            max_build_tuples,
            max_probe_tuples,
            allocator: AllocatorKind::tuned(),
            sessions: 1,
            queue_depth: None,
            worker_threads: None,
            tuning: Tuning::Static,
            memory_budget: None,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
            slow_join_threshold: DEFAULT_SLOW_JOIN_THRESHOLD,
        }
    }

    /// Sets the default allocator design.
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Provisions `sessions` concurrent arena-backed sessions.  The
    /// admission queue defaults to the same depth unless
    /// [`queue_depth`](Self::queue_depth) sets one explicitly (in either
    /// order).
    pub fn sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Bounds the admission queue: how many submissions may wait for a free
    /// session before [`JoinError::Saturated`] is returned.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = Some(queue_depth);
        self
    }

    /// The admission-queue depth the engine enforces: the explicit
    /// [`queue_depth`](Self::queue_depth), or `sessions` when unset.
    pub(crate) fn effective_queue_depth(&self) -> usize {
        self.queue_depth.unwrap_or(self.sessions)
    }

    /// Sizes the engine's persistent worker pool: `worker_threads` threads
    /// are spawned once (on first native use) and execute the morsels of
    /// every session.  Unset, the pool gets one worker per available
    /// hardware thread.
    pub fn worker_threads(mut self, worker_threads: usize) -> Self {
        self.worker_threads = Some(worker_threads);
        self
    }

    /// The worker count the engine's pool is spawned with: the explicit
    /// [`worker_threads`](Self::worker_threads), or one per available
    /// hardware thread when unset.
    pub(crate) fn effective_worker_threads(&self) -> usize {
        self.worker_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
    }

    /// Sets the engine-wide default tuning policy (requests may still
    /// choose their own via [`JoinRequestBuilder::tuning`]).
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Caps the resident bytes of all concurrently spilling requests at
    /// `bytes`, fair-shared by the engine's [`MemoryBroker`]; requests that
    /// opted into [`JoinRequestBuilder::spill`] degrade to disk instead of
    /// failing when their share runs out.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the background sampler's snapshot interval
    /// (`Duration::ZERO` disables the sampler thread).
    pub fn sample_interval(mut self, interval: Duration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Sets the slow-join retention threshold (`Duration::ZERO` disables
    /// the slow-log).
    pub fn slow_join_threshold(mut self, threshold: Duration) -> Self {
        self.slow_join_threshold = threshold;
        self
    }

    /// The arena capacity this configuration provisions *per session*.
    pub fn arena_bytes(&self) -> usize {
        arena_bytes_for(self.max_build_tuples, self.max_probe_tuples)
    }

    fn validate(&self) -> Result<(), JoinError> {
        if let AllocatorKind::Block { block_size } = self.allocator {
            if block_size == 0 {
                return Err(JoinError::InvalidConfig(
                    "block allocator needs a non-zero block size".to_string(),
                ));
            }
        }
        if self.sessions == 0 {
            return Err(JoinError::InvalidConfig(
                "an engine needs at least one session".to_string(),
            ));
        }
        if self.worker_threads == Some(0) {
            return Err(JoinError::InvalidConfig(
                "an engine needs at least one worker thread".to_string(),
            ));
        }
        if self.memory_budget == Some(0) {
            return Err(JoinError::InvalidConfig(
                "a zero memory budget cannot admit any resident bytes; \
                 omit it for an unlimited broker"
                    .to_string(),
            ));
        }
        self.tuning.validate()?;
        Ok(())
    }
}

/// Observability counters of one engine (a point-in-time snapshot taken by
/// [`JoinEngine::stats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// Requests executed to completion.
    pub requests_served: u64,
    /// Requests rejected at admission or failed during execution.
    pub requests_failed: u64,
    /// Submissions rejected because the session pool and admission queue
    /// were both full ([`JoinError::Saturated`]); also counted in
    /// [`requests_failed`](Self::requests_failed).
    pub rejected_saturated: u64,
    /// Arenas allocated over the engine's lifetime (`sessions` after
    /// construction; grows only when a request switches allocator design).
    pub arenas_created: u64,
    /// Capacity of each session arena in bytes.
    pub arena_capacity: usize,
    /// Sessions the pool was provisioned with.
    pub sessions: usize,
    /// Requests in flight at the moment of the snapshot.
    pub in_flight: usize,
    /// Most requests ever simultaneously in flight.
    pub peak_in_flight: usize,
    /// Worker threads of the engine's persistent execution pool (spawned
    /// once, shared by all sessions).
    pub worker_threads: usize,
    /// Morsel tasks each pool worker has executed over the engine's
    /// lifetime, indexed by worker (all zeros while the lazily-spawned
    /// pool has not executed anything yet).  A native phase of one morsel
    /// runs on the session thread and adds nothing here.
    pub per_worker_tasks: Vec<u64>,
    /// Morsel tasks each pool worker *stole* from another worker's deque,
    /// indexed by the stealing worker (a subset of
    /// [`per_worker_tasks`](Self::per_worker_tasks)).
    pub per_worker_steals: Vec<u64>,
    /// Wall-clock nanoseconds each pool worker spent executing tasks,
    /// indexed by worker (all zeros while the pool has not spawned).
    pub per_worker_busy_ns: Vec<u64>,
    /// Wall-clock nanoseconds each pool worker spent parked waiting for
    /// work, indexed by worker.
    pub per_worker_park_ns: Vec<u64>,
    /// Busy fraction of the worker pool over its lifetime —
    /// `busy / (busy + park)` — `None` while the pool reported no wall
    /// time.  The *windowed* equivalent lives in
    /// [`hj_metrics::HealthObservation::worker_utilization`].
    pub worker_utilization: Option<f64>,
    /// Joins that exceeded [`EngineConfig::slow_join_threshold`] and were
    /// retained in the slow-log.
    pub slow_joins: u64,
    /// Requests that ran with [`Tuning::Adaptive`] (and a tunable scheme).
    pub adaptive_requests: u64,
    /// Ratio re-plans the adaptive tuner performed across all requests.
    pub replans: u64,
    /// Requests that actually spilled bytes to disk (a spill-enabled
    /// request that stayed fully resident is not counted).
    pub spilled_requests: u64,
    /// Bytes written to spill run files across all requests.
    pub spill_bytes_written: u64,
    /// Bytes restored (read back) from spill run files across all requests.
    pub spill_bytes_restored: u64,
    /// Partitions evicted to disk across all requests and recursion levels.
    pub spill_partitions: u64,
    /// Partition pairs that hit the recursion cap and were joined by the
    /// block nested-loop fallback.
    pub spill_fallback_joins: u64,
    /// How long session acquisitions waited in the admission queue, across
    /// all sessions (log2 ns buckets; `quantile_ns(0.5)` /
    /// `quantile_ns(0.99)` give p50/p99 bounds).  A fast-path acquisition
    /// (free session available) records a near-zero wait, so the histogram
    /// count equals the successful acquisitions.
    pub queue_wait: LatencyHistogram,
    /// Tables currently registered with
    /// [`JoinEngine::register_table`] (re-registrations replace, they do
    /// not add).
    pub registered_tables: usize,
    /// Hash-table cache counters: hits, misses (= builds initiated),
    /// evictions, invalidations, resident bytes, build nanoseconds hits
    /// saved, and the cache-build latency histogram.
    pub cache: CacheStats,
    /// Completed joins per wall-clock second since engine construction.
    pub joins_per_sec: f64,
}

/// A cheap point-in-time load snapshot ([`JoinEngine::load`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineLoad {
    /// Requests currently holding a session.
    pub in_flight: usize,
    /// Submissions waiting in the admission queue.
    pub queued: usize,
    /// Sessions the engine was configured with.
    pub sessions: usize,
    /// Admission-queue capacity.
    pub queue_depth: usize,
}

/// One arena-backed execution slot of the pool.
struct Session {
    id: usize,
    /// `Some` except while this session's request is executing (the context
    /// borrows the allocator and hands it back afterwards).
    allocator: Option<Box<dyn KernelAllocator>>,
    allocator_kind: AllocatorKind,
}

/// The free-list of sessions plus the admission queue's bookkeeping.
///
/// A freed session is *handed off* to a queued waiter when one exists
/// (`handoff`), and only lands on the open `free` list otherwise — new
/// arrivals therefore cannot barge past queued submissions, which would
/// starve them under sustained load.  `waiting` counts queued waiters that
/// have not been assigned a hand-off yet; it is decremented by the
/// releaser at hand-off time, so admission accounting never transiently
/// over-counts.
struct SessionPool {
    free: Vec<Session>,
    handoff: std::collections::VecDeque<Session>,
    waiting: usize,
}

/// The engine's registered metric handles: every name is a static literal
/// (enforced by the `metrics-name-literal` hj-lint rule and catalogued in
/// `docs/OBSERVABILITY.md`), registered once at construction; hot paths
/// touch only the returned atomics.  Cloning clones the `Arc` handles, not
/// the metrics — the sampler thread holds a clone.
#[derive(Clone)]
struct EngineMetrics {
    requests_served: Arc<Counter>,
    requests_failed: Arc<Counter>,
    rejected_saturated: Arc<Counter>,
    arenas_created: Arc<Counter>,
    /// Set under the `engine.session_pool` lock whenever a session is
    /// taken or returned, like the peak beside it.
    in_flight: Arc<Gauge>,
    peak_in_flight: Arc<Gauge>,
    queue_wait: Arc<AtomicHistogram>,
    adaptive_requests: Arc<Counter>,
    replans: Arc<Counter>,
    spilled_requests: Arc<Counter>,
    spill_bytes_written: Arc<Counter>,
    spill_bytes_restored: Arc<Counter>,
    spill_partitions: Arc<Counter>,
    spill_fallback_joins: Arc<Counter>,
    spill_grant_denials: Arc<Counter>,
    spill_reclaimed_bytes: Arc<Counter>,
    spill_io_wall: Arc<AtomicHistogram>,
    /// The worker pool's own per-worker counters, which its workers bump.
    workers: WorkerCounters,
    /// Joins retained in the slow-log.
    slow_joins: Arc<Counter>,
    /// Snapshots the background sampler (or `sample_now`) has taken.
    samples: Arc<Counter>,
    /// The health monitor's assessed state (0 healthy / 1 degraded /
    /// 2 saturated), set on every sample.
    health_state: Arc<Gauge>,
}

impl EngineMetrics {
    fn register(registry: &MetricsRegistry, workers: usize) -> Self {
        EngineMetrics {
            requests_served: registry.counter(
                "hj_engine_requests_served_total",
                "Requests executed to completion",
            ),
            requests_failed: registry.counter(
                "hj_engine_requests_failed_total",
                "Requests rejected at admission or failed during execution",
            ),
            rejected_saturated: registry.counter(
                "hj_engine_rejected_saturated_total",
                "Submissions rejected because the session pool and admission queue were full",
            ),
            arenas_created: registry.counter(
                "hj_engine_arenas_created_total",
                "Arenas allocated over the engine's lifetime",
            ),
            in_flight: registry.gauge(
                "hj_engine_in_flight",
                "Requests currently holding a session",
            ),
            peak_in_flight: registry.gauge(
                "hj_engine_peak_in_flight",
                "Most requests ever simultaneously in flight",
            ),
            queue_wait: registry.histogram(
                "hj_engine_queue_wait_ns",
                "How long session acquisitions waited in the admission queue (ns)",
            ),
            adaptive_requests: registry.counter(
                "hj_adaptive_requests_total",
                "Requests that ran with adaptive tuning and a tunable scheme",
            ),
            replans: registry.counter(
                "hj_adaptive_replans_total",
                "Ratio re-plans the adaptive tuner performed",
            ),
            spilled_requests: registry.counter(
                "hj_spill_requests_total",
                "Requests that actually spilled bytes to disk",
            ),
            spill_bytes_written: registry.counter(
                "hj_spill_bytes_spilled_total",
                "Bytes written to spill run files",
            ),
            spill_bytes_restored: registry.counter(
                "hj_spill_bytes_restored_total",
                "Bytes read back from spill run files",
            ),
            spill_partitions: registry.counter(
                "hj_spill_partitions_spilled_total",
                "Partitions evicted to disk across all requests and recursion levels",
            ),
            spill_fallback_joins: registry.counter(
                "hj_spill_fallback_joins_total",
                "Partition pairs joined by the block nested-loop fallback",
            ),
            spill_grant_denials: registry.counter(
                "hj_spill_grant_denials_total",
                "Memory-grant denials the broker issued to spilling requests",
            ),
            spill_reclaimed_bytes: registry.counter(
                "hj_spill_reclaimed_bytes_total",
                "Bytes evicted in response to the broker's reclaim pressure signal",
            ),
            spill_io_wall: registry.histogram(
                "hj_spill_io_wall_ns",
                "Wall-clock time spent inside the spill path per spilling request (ns)",
            ),
            workers: WorkerCounters {
                tasks: (0..workers)
                    .map(|w| {
                        registry.counter_with(
                            "hj_pipeline_tasks_total",
                            &[("worker", w.to_string())],
                            "Morsel tasks this pool worker has executed",
                        )
                    })
                    .collect(),
                steals: (0..workers)
                    .map(|w| {
                        registry.counter_with(
                            "hj_pipeline_steals_total",
                            &[("worker", w.to_string())],
                            "Morsel tasks this pool worker stole from another worker's deque",
                        )
                    })
                    .collect(),
                busy_ns: (0..workers)
                    .map(|w| {
                        registry.counter_with(
                            "hj_pipeline_worker_busy_ns",
                            &[("worker", w.to_string())],
                            "Wall-clock nanoseconds this pool worker spent executing tasks",
                        )
                    })
                    .collect(),
                park_ns: (0..workers)
                    .map(|w| {
                        registry.counter_with(
                            "hj_pipeline_worker_park_ns",
                            &[("worker", w.to_string())],
                            "Wall-clock nanoseconds this pool worker spent parked waiting for work",
                        )
                    })
                    .collect(),
            },
            slow_joins: registry.counter(
                "hj_engine_slow_joins_total",
                "Joins that exceeded the slow-join threshold and were retained in the slow-log",
            ),
            samples: registry.counter(
                "hj_sampler_samples_total",
                "Registry snapshots the health sampler has taken",
            ),
            health_state: registry.gauge(
                "hj_health_state",
                "Assessed health state: 0 healthy, 1 degraded, 2 saturated",
            ),
        }
    }
}

/// Everything the background sampler needs, cloneable into its thread so
/// the thread never holds (and can never cycle with) the engine itself:
/// shared `Arc` handles on the registry, the health monitor and the
/// engine's metric handles, and the engine's start, which every engine
/// timestamp counts from.
#[derive(Clone)]
struct SamplerShared {
    registry: Arc<MetricsRegistry>,
    health: Arc<HealthMonitor>,
    metrics: EngineMetrics,
    started: Instant,
}

impl SamplerShared {
    /// Takes one sample: snapshots the registry and hands it to the health
    /// monitor, which judges the window since the previous sample, so the
    /// verdict reacts at sampler cadence.  Touches only atomics and the
    /// short observability locks — never the engine's session pool.
    fn sample_once(&self) {
        let at_ns = self.now_ns();
        let samples = self.registry.snapshot();
        self.metrics.samples.inc();
        if let Some(report) = self.health.sample(at_ns, samples) {
            self.metrics.health_state.set(report.state.level() as u64);
        }
    }

    /// Nanoseconds since the engine was created: the timescale of the
    /// health samples, the slow log and the flight recorder.
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// The sampler thread's loop: sample every `interval`, parked in between.
/// Shutdown is a flag + unpark (no extra lock class); spurious unparks
/// just re-check the deadline.
fn sampler_loop(shared: SamplerShared, stop: Arc<AtomicBool>, interval: Duration) {
    let mut next_deadline = Instant::now() + interval;
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();
        if now < next_deadline {
            std::thread::park_timeout(next_deadline - now);
            continue;
        }
        shared.sample_once();
        next_deadline = now + interval;
    }
}

/// The engine's handle on its sampler thread (absent when
/// [`EngineConfig::sample_interval`] is zero), joined on engine drop.
#[must_use = "dropping the handle without shutdown() leaks the sampler thread"]
struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SamplerHandle {
    fn disabled() -> Self {
        SamplerHandle {
            stop: Arc::new(AtomicBool::new(false)),
            thread: None,
        }
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// Where a submission's build side comes from: the request's own relation,
/// or a registered table served from the hash-table cache under `key`.
enum BuildSource<'a> {
    Inline(&'a Relation),
    Cached(&'a TableHandle, CacheKey),
}

/// A long-lived, concurrent join engine: one backend, a pool of
/// arena-backed sessions, many simultaneous requests.
///
/// [`submit`](Self::submit) takes `&self`, so one engine behind an
/// `Arc`/reference can serve many client threads: up to
/// [`EngineConfig::sessions`] requests run concurrently (each borrowing one
/// pooled arena), up to [`EngineConfig::queue_depth`] more wait their turn,
/// and anything beyond that is rejected with [`JoinError::Saturated`].  No
/// arena is ever created after construction unless a request switches
/// allocator design ([`EngineStats::arenas_created`]).
///
/// See the [module docs](self) for the full picture and an example.
pub struct JoinEngine {
    backend: Box<dyn ExecBackend>,
    config: EngineConfig,
    pool: Mutex<SessionPool>,
    session_freed: Condvar,
    /// The persistent execution pool: sized at construction, spawned once
    /// on first native use, shared by every session's backend execution,
    /// joined when the engine drops.  Simulator-only engines never spawn
    /// it.
    workers: SharedWorkerPool,
    /// The engine-wide spill-memory broker (budget from
    /// [`EngineConfig::memory_budget`], unlimited otherwise); every
    /// spilling request registers one fair-share session against it.
    broker: MemoryBroker,
    /// The engine-wide spill directory, created lazily on the first
    /// spilling request and removed (with any surviving run files) when
    /// the engine drops.
    spill_manager: std::sync::OnceLock<SpillManager>,
    /// Registered build tables by name ([`register_table`](Self::register_table)).
    registry: Mutex<HashMap<String, TableHandle>>,
    /// Id source for registered tables (ids are engine-unique and stable
    /// across re-registrations of a name).
    next_table_id: AtomicU64,
    /// Built hash tables shared across sessions, keyed by
    /// `(table id, version, build-relevant parameters)`; bytes charged to
    /// [`broker`](Self::broker), single-flight builds, LRU eviction.
    cache: HashTableCache,
    /// The engine-wide metrics registry: every subsystem registers its
    /// counters here once; [`render_metrics`](Self::render_metrics) (and
    /// the serving layer's `Metrics` frame) snapshot it.
    metrics_registry: Arc<MetricsRegistry>,
    /// Registered handles on the engine's own metric families (hot paths
    /// update these atomics; the registry lock is never taken per request).
    metrics: EngineMetrics,
    /// Joins that breached [`EngineConfig::slow_join_threshold`], each with
    /// its retroactively-assembled flight-recorder trace.
    slow_log: Arc<SlowLog>,
    /// Everything the sampler reads, kept on the engine too so
    /// [`sample_now`](Self::sample_now) can take deterministic samples,
    /// [`health`](Self::health) can read the monitor's latest report and
    /// joins are timed on the sampler's clock.
    sampler_shared: SamplerShared,
    /// The sampler thread, joined on drop.
    sampler: SamplerHandle,
    arena_capacity: usize,
}

impl std::fmt::Debug for JoinEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinEngine")
            .field("backend", &self.backend.name())
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Drop for JoinEngine {
    /// Stops and joins the sampler thread (the worker pool joins itself via
    /// its own `Drop`): an engine drop leaks no threads.
    fn drop(&mut self) {
        self.sampler.shutdown();
    }
}

impl JoinEngine {
    /// Builds an engine over `backend`, provisioning one arena per
    /// configured session up front.
    ///
    /// # Errors
    /// Returns [`JoinError::InvalidConfig`] for an invalid
    /// [`EngineConfig`] (zero sessions, degenerate allocator).
    pub fn new(backend: Box<dyn ExecBackend>, config: EngineConfig) -> Result<Self, JoinError> {
        config.validate()?;
        let capacity = config.arena_bytes();
        let work_groups = crate::context::CPU_WORK_GROUPS + crate::context::GPU_WORK_GROUPS;
        let free: Vec<Session> = (0..config.sessions)
            .map(|id| Session {
                id,
                allocator: Some(config.allocator.build(capacity, work_groups)),
                allocator_kind: config.allocator,
            })
            .collect();
        let broker = match config.memory_budget {
            Some(budget) => MemoryBroker::new(budget),
            None => MemoryBroker::unlimited(),
        };
        let metrics_registry = Arc::new(MetricsRegistry::new());
        let metrics = EngineMetrics::register(&metrics_registry, config.effective_worker_threads());
        // The arenas provisioned just above are lifetime allocations too.
        metrics.arenas_created.add(config.sessions as u64);
        let workers = SharedWorkerPool::new(metrics.workers.clone());
        let sampler_shared = SamplerShared {
            registry: Arc::clone(&metrics_registry),
            health: Arc::new(HealthMonitor::new()),
            metrics: metrics.clone(),
            started: Instant::now(),
        };
        let sampler = if config.sample_interval > Duration::ZERO {
            let stop = Arc::new(AtomicBool::new(false));
            let shared = sampler_shared.clone();
            let flag = Arc::clone(&stop);
            let interval = config.sample_interval;
            // The sampler is the engine's own background thread, joined
            // by the engine's Drop just like the worker pool's threads.
            // hj-lint: allow(raw-spawn)
            let thread = std::thread::Builder::new()
                .name("hj-sampler".to_string())
                .spawn(move || sampler_loop(shared, flag, interval))
                .expect("failed to spawn sampler thread");
            SamplerHandle {
                stop,
                thread: Some(thread),
            }
        } else {
            SamplerHandle::disabled()
        };
        Ok(JoinEngine {
            backend,
            pool: Mutex::new(
                "engine.session_pool",
                SessionPool {
                    free,
                    handoff: std::collections::VecDeque::new(),
                    waiting: 0,
                },
            ),
            session_freed: Condvar::new(),
            workers,
            cache: HashTableCache::new(
                broker.clone(),
                crate::cached::CacheMetrics::register(&metrics_registry),
            ),
            broker,
            spill_manager: std::sync::OnceLock::new(),
            registry: Mutex::new("engine.registry", HashMap::new()),
            next_table_id: AtomicU64::new(0),
            metrics_registry,
            metrics,
            slow_log: Arc::new(SlowLog::new(DEFAULT_SLOWLOG_CAPACITY)),
            sampler_shared,
            sampler,
            arena_capacity: capacity,
            config,
        })
    }

    /// An engine simulating the paper's coupled APU.
    pub fn coupled(config: EngineConfig) -> Result<Self, JoinError> {
        JoinEngine::new(Box::new(CoupledSim::new()), config)
    }

    /// An engine simulating the emulated discrete architecture.
    pub fn discrete(config: EngineConfig) -> Result<Self, JoinError> {
        JoinEngine::new(Box::new(DiscreteSim::new()), config)
    }

    /// An engine running joins natively on host threads.
    pub fn native(config: EngineConfig) -> Result<Self, JoinError> {
        JoinEngine::new(Box::new(NativeCpu::new()), config)
    }

    /// An engine simulating an arbitrary system, picking the coupled or
    /// discrete simulator backend by the system's topology.
    pub fn for_system(sys: SystemSpec, config: EngineConfig) -> Result<Self, JoinError> {
        let backend: Box<dyn ExecBackend> = if sys.is_discrete() {
            Box::new(DiscreteSim::with_system(sys))
        } else {
            Box::new(CoupledSim::with_system(sys))
        };
        JoinEngine::new(backend, config)
    }

    /// The system specification the engine executes against.
    pub fn system(&self) -> &SystemSpec {
        self.backend.system()
    }

    /// The backend's identifier.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The engine's sizing configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's persistent worker pool: sized at construction, shared
    /// by every session, joined (no leaked threads) when the engine drops.
    ///
    /// The pool is spawned lazily — on the first native execution, the
    /// first spilling join or the first call to this accessor — so a
    /// simulator engine that never spills never costs a thread.
    pub fn worker_pool(&self) -> &WorkerPool {
        self.workers.get()
    }

    /// The engine-wide spill-memory broker.  With no configured
    /// [`EngineConfig::memory_budget`] the broker is unlimited and only
    /// arena pressure can trigger spilling.
    pub fn memory_broker(&self) -> &MemoryBroker {
        &self.broker
    }

    /// The engine-wide metrics registry.  Layers above the engine (the
    /// serving layer, harnesses) register their own metric families here so
    /// one snapshot covers the whole process.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics_registry
    }

    /// The most recent health verdict — what the serving layer's
    /// `GET /health` endpoint renders.  Defaults to `Healthy` before the
    /// first sample.
    pub fn health(&self) -> HealthReport {
        self.sampler_shared.health.report()
    }

    /// The slow-join log: joins that exceeded
    /// [`EngineConfig::slow_join_threshold`], each retaining its full
    /// flight-recorder trace even when submitted with `trace(false)`.
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// Takes one sampler tick synchronously: snapshots the registry and
    /// feeds it to the health monitor — exactly what the
    /// background thread does each interval, but deterministic (tests drive
    /// this instead of sleeping).
    pub fn sample_now(&self) {
        self.sampler_shared.sample_once();
    }

    /// Renders every registered metric as a Prometheus text-format
    /// snapshot.  This is what the serving layer returns for a `Metrics`
    /// frame.
    pub fn render_metrics(&self) -> String {
        self.metrics_registry.render_prometheus()
    }

    /// The engine's spill directory, when any request has spilled yet.
    pub fn spill_dir(&self) -> Option<&std::path::Path> {
        self.spill_manager.get().map(SpillManager::dir)
    }

    /// The engine-wide spill manager, created on first use.  The first
    /// spilling request's [`SpillConfig::spill_dir`] decides the location
    /// for the engine's lifetime.
    fn spill_manager(&self, spill: &SpillConfig) -> Result<SpillManager, JoinError> {
        if let Some(manager) = self.spill_manager.get() {
            return Ok(manager.clone());
        }
        let created = SpillManager::create(spill.spill_dir.as_deref())
            .map_err(|e| JoinError::Spill(format!("cannot create spill directory: {e}")))?;
        // A concurrent first spill may have won the race; its manager is
        // kept and the loser's fresh (empty) directory is removed by drop.
        Ok(self.spill_manager.get_or_init(|| created).clone())
    }

    /// A point-in-time snapshot of the lifetime counters (served/failed
    /// requests, saturation rejections, arena creations, per-worker
    /// activity, joins per second).
    ///
    /// Robust against poisoning: a request that panicked mid-join (the
    /// panic is re-raised at its submitter) leaves the counters readable —
    /// one bad join cannot turn every later `stats()` call into a panic.
    pub fn stats(&self) -> EngineStats {
        let registered_tables = self.registry.lock().len();
        let elapsed = self.sampler_shared.started.elapsed().as_secs_f64();
        // Every count lives in an atom of the metrics registry, which the
        // wire exposition renders too, so `EngineStats` and a `Metrics`
        // frame always reconcile.
        let requests_served = self.metrics.requests_served.get();
        let counters = &self.metrics.workers;
        let busy = read_counters(&counters.busy_ns);
        let park = read_counters(&counters.park_ns);
        let total_busy: u64 = busy.iter().sum();
        let total_park: u64 = park.iter().sum();
        EngineStats {
            requests_served,
            requests_failed: self.metrics.requests_failed.get(),
            rejected_saturated: self.metrics.rejected_saturated.get(),
            arenas_created: self.metrics.arenas_created.get(),
            arena_capacity: self.arena_capacity,
            sessions: self.config.sessions,
            in_flight: self.metrics.in_flight.get() as usize,
            peak_in_flight: self.metrics.peak_in_flight.get() as usize,
            adaptive_requests: self.metrics.adaptive_requests.get(),
            replans: self.metrics.replans.get(),
            spilled_requests: self.metrics.spilled_requests.get(),
            spill_bytes_written: self.metrics.spill_bytes_written.get(),
            spill_bytes_restored: self.metrics.spill_bytes_restored.get(),
            spill_partitions: self.metrics.spill_partitions.get(),
            spill_fallback_joins: self.metrics.spill_fallback_joins.get(),
            queue_wait: self.metrics.queue_wait.snapshot(),
            registered_tables,
            cache: self.cache.stats(),
            worker_threads: self.workers.configured_workers(),
            per_worker_tasks: read_counters(&counters.tasks),
            per_worker_steals: read_counters(&counters.steals),
            per_worker_busy_ns: busy,
            per_worker_park_ns: park,
            worker_utilization: (total_busy + total_park > 0)
                .then(|| total_busy as f64 / (total_busy + total_park) as f64),
            slow_joins: self.metrics.slow_joins.get(),
            joins_per_sec: if elapsed > 0.0 {
                requests_served as f64 / elapsed
            } else {
                0.0
            },
        }
    }

    /// Builds a fresh arena of the engine's capacity with the given
    /// allocator design, counting it in [`EngineStats::arenas_created`] —
    /// the single provisioning path after construction (allocator switches
    /// and panic recovery).
    fn provision_arena(&self, kind: AllocatorKind) -> Box<dyn KernelAllocator> {
        let work_groups = crate::context::CPU_WORK_GROUPS + crate::context::GPU_WORK_GROUPS;
        self.metrics.arenas_created.inc();
        kind.build(self.arena_capacity, work_groups)
    }

    /// Requests holding a session, read from the pool the caller holds the
    /// `engine.session_pool` lock on: every session neither free nor handed
    /// to a waiter.
    fn in_flight(&self, pool: &SessionPool) -> usize {
        self.config.sessions - pool.free.len() - pool.handoff.len()
    }

    /// Sets the in-flight gauge and raises its peak, under the
    /// `engine.session_pool` lock of the acquisition or release that just
    /// changed the value.
    fn publish_in_flight(&self, pool: &SessionPool) {
        let in_flight = self.in_flight(pool) as u64;
        self.metrics.in_flight.set(in_flight);
        self.metrics.peak_in_flight.raise(in_flight);
    }

    /// Takes a session from the pool, waiting in the bounded admission
    /// queue when all sessions are busy.  Freed sessions are handed to
    /// queued waiters before new arrivals, so the queue cannot be starved.
    /// The wait is recorded in the queue-wait histogram and returned
    /// beside the session, in ns.
    fn acquire_session(&self) -> Result<(Session, u64), JoinError> {
        let started = Instant::now();
        let mut pool = self.pool.lock();
        // The free list only holds sessions no queued waiter was owed, so
        // taking from it never barges past the queue.
        let session = match pool.free.pop() {
            Some(session) => session,
            None if pool.waiting >= self.config.effective_queue_depth() => {
                let queued = pool.waiting;
                let in_flight = self.in_flight(&pool);
                drop(pool);
                self.metrics.rejected_saturated.inc();
                self.metrics.requests_failed.inc();
                return Err(JoinError::Saturated {
                    sessions: self.config.sessions,
                    queue_depth: self.config.effective_queue_depth(),
                    in_flight,
                    queued,
                });
            }
            None => {
                pool.waiting += 1;
                loop {
                    pool = self.session_freed.wait(pool);
                    // `waiting` was already decremented by the releaser that
                    // pushed this hand-off; an empty deque means the wake-up
                    // was spurious (or another waiter won the race) and we
                    // keep waiting.
                    if let Some(session) = pool.handoff.pop_front() {
                        break session;
                    }
                }
            }
        };
        self.publish_in_flight(&pool);
        drop(pool);
        let wait_ns = started.elapsed().as_nanos() as u64;
        self.metrics.queue_wait.record(wait_ns);
        Ok((session, wait_ns))
    }

    /// Harvests a served join's adaptive and spill reports into the
    /// metrics registry; then, when the request opted in or the join was
    /// slow, assembles the flight recorder into [`JoinOutcome::trace`] and
    /// the slow-log.
    ///
    /// Everything here reads data the join already produced; nothing about
    /// the join result changes, so traced and untraced runs stay
    /// byte-identical.
    fn finish_join(
        &self,
        session_id: usize,
        request: &JoinRequest,
        outcome: &mut JoinOutcome,
        start_ns: u64,
        cached_table: Option<&TableHandle>,
    ) {
        let end_ns = self.sampler_shared.now_ns();
        let wall_ns = end_ns.saturating_sub(start_ns);
        if let Some(report) = &outcome.adaptive {
            self.metrics.adaptive_requests.inc();
            self.metrics.replans.add(report.replans);
        }
        if let Some(report) = &outcome.spill {
            self.metrics.spill_bytes_written.add(report.bytes_spilled);
            self.metrics.spill_bytes_restored.add(report.bytes_restored);
            self.metrics.spill_partitions.add(report.partitions_spilled);
            self.metrics.spill_fallback_joins.add(report.fallback_joins);
            self.metrics.spill_grant_denials.add(report.grant_denials);
            self.metrics
                .spill_reclaimed_bytes
                .add(report.reclaimed_bytes);
            self.metrics
                .spill_io_wall
                .record((report.spill_wall_secs * 1e9) as u64);
            if report.bytes_spilled > 0 {
                self.metrics.spilled_requests.inc();
            }
        }
        // The slow-log retains the flight recorder retroactively: the trace
        // is assembled from data the join already produced, so a join that
        // breached the threshold gets a full trace even when the request
        // was built with `trace(false)`.  The outcome only carries a trace
        // when the caller opted in — traced and untraced runs stay
        // byte-identical.
        let threshold_ns = self.config.slow_join_threshold.as_nanos() as u64;
        let slow = threshold_ns > 0 && wall_ns >= threshold_ns;
        if slow || request.trace_enabled() {
            let mut trace = assemble_join_trace(outcome, start_ns, wall_ns);
            if let Some(table) = cached_table {
                trace.push_event(
                    trace.root,
                    end_ns,
                    TraceEventKind::Cache,
                    "probe-cached",
                    table.id,
                );
            }
            if slow {
                self.metrics.slow_joins.inc();
                self.slow_log.push(SlowJoinRecord {
                    at_ns: end_ns,
                    wall_ns,
                    threshold_ns,
                    session_id: session_id as u64,
                    matches: outcome.matches,
                    traced: request.trace_enabled(),
                    trace: trace.clone(),
                });
            }
            if request.trace_enabled() {
                outcome.trace = Some(trace);
            }
        }
    }

    /// Records one request's fate against the engine-wide counters, then
    /// returns its session to the pool — handing it to a queued waiter
    /// when one exists.
    fn release_session(&self, session: Session, served: bool) {
        if served {
            self.metrics.requests_served.inc();
        } else {
            self.metrics.requests_failed.inc();
        }
        let mut pool = self.pool.lock();
        let hand_off = pool.waiting > 0;
        if hand_off {
            pool.waiting -= 1;
            pool.handoff.push_back(session);
        } else {
            pool.free.push(session);
        }
        self.publish_in_flight(&pool);
        drop(pool);
        if hand_off {
            self.session_freed.notify_one();
        }
    }

    /// Runs a spill-enabled request: plain in-core execution on the fast
    /// path, degrading to the dynamic hybrid hash join
    /// ([`crate::spilljoin`]) when the arena cannot hold the request
    /// (at admission or mid-flight) or its resident footprint exceeds this
    /// session's fair share of the memory budget.
    fn execute_with_spill(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        request: &JoinRequest,
        spill: &SpillConfig,
        required_arena: usize,
    ) -> Result<JoinOutcome, JoinError> {
        // Register with the broker before deciding: fair shares reflect how
        // many spilling sessions are actually in flight, and the grant is
        // dropped (releasing every byte) on any exit — including unwinds.
        let grant = self.broker.session();
        let footprint = (build.len() + probe.len()) * datagen::TUPLE_BYTES;
        let oversized = required_arena > self.arena_capacity;
        if !oversized && footprint <= grant.fair_share() {
            // Fast path: run fully in core; only arena exhaustion falls
            // through to the spill path (other errors are real failures).
            match self.backend.execute(ctx, build, probe, request) {
                Err(JoinError::ArenaExhausted { .. }) => {
                    // The aborted attempt's arena state *and* counters are
                    // discarded: the spill path re-produces all of its work,
                    // so keeping them would double-count intermediate
                    // tuples, lock overhead and cache statistics.
                    ctx.allocator.reset();
                    ctx.counters = crate::context::ExecCounters::default();
                }
                other => return other,
            }
        }
        let manager = self.spill_manager(spill)?;
        let mut inner = request.inner_for_spill();
        let morsel = inner.config.morsel_tuples;
        let workers = self.workers.configured_workers();
        let backend = self.backend.as_ref();
        let mut pair_join = |ctx: &mut ExecContext<'_>, b: &Relation, p: &Relation| {
            // Partition pairs are mostly smaller than a morsel; cut each so
            // that every worker gets a share of its build (and probe).  The
            // simulators morselise by `ctx.morsel_tuples`, not the request.
            inner.config.morsel_tuples = morsel.min(b.len().div_ceil(workers)).max(1);
            backend.execute(ctx, b, p, &inner)
        };
        let (mut outcome, report) = crate::spilljoin::execute_spill_join(
            ctx,
            build,
            probe,
            spill,
            &grant,
            &manager,
            &mut pair_join,
        )?;
        // A collecting join answers with pairs even when no pair join ran.
        if request.config().collect_results && outcome.pairs.is_none() {
            outcome.pairs = Some(Vec::new());
        }
        outcome.spill = Some(report);
        Ok(outcome)
    }

    /// Submits one request to the session pool; safe to call from many
    /// threads concurrently on a shared engine.
    ///
    /// Up to [`EngineConfig::sessions`] requests execute in parallel, each
    /// over its own pooled arena; up to [`EngineConfig::queue_depth`] more
    /// wait for a session to free up.
    ///
    /// # Errors
    /// * [`JoinError::OversizedInput`] when the inputs need more arena than
    ///   a session owns (admission — nothing is executed);
    /// * [`JoinError::Saturated`] when the pool and the admission queue are
    ///   both full (counted in [`EngineStats::rejected_saturated`]);
    /// * [`JoinError::ArenaExhausted`] when the working state outgrows the
    ///   session arena mid-execution;
    /// * any backend-specific failure.
    ///
    /// After an error the engine remains usable; a session's arena is reset
    /// when its next request begins.
    pub fn submit(
        &self,
        request: &JoinRequest,
        build: &Relation,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        self.run(request, BuildSource::Inline(build), probe)
    }

    /// Registers (or replaces) a build table under `name`, returning a
    /// versioned [`TableHandle`] for [`submit_cached`](Self::submit_cached).
    ///
    /// Re-registering an existing name bumps the version and invalidates
    /// every cached hash table built from the previous data — in-flight
    /// probes of the old version finish safely on their shared copy, but no
    /// new request can observe it.  Handles are cheap to clone and share the
    /// registered tuples; a *stale* handle (issued before a re-registration)
    /// keeps joining against its own version's data.
    pub fn register_table(&self, name: &str, tuples: Relation) -> TableHandle {
        let mut registry = self.registry.lock();
        let handle = match registry.get(name) {
            Some(prev) => {
                self.cache.invalidate_table(prev.id);
                TableHandle {
                    id: prev.id,
                    version: prev.version + 1,
                    name: Arc::clone(&prev.name),
                    tuples: Arc::new(tuples),
                }
            }
            None => TableHandle {
                // Relaxed: the RMW is atomic under any ordering, so ids
                // stay unique; nothing reads other state through this id.
                id: self.next_table_id.fetch_add(1, Ordering::Relaxed) + 1,
                version: 1,
                name: Arc::from(name),
                tuples: Arc::new(tuples),
            },
        };
        registry.insert(name.to_string(), handle.clone());
        handle
    }

    /// The current handle of a registered table, or `None` for an unknown
    /// name.
    pub fn table(&self, name: &str) -> Option<TableHandle> {
        self.registry.lock().get(name).cloned()
    }

    /// A point-in-time snapshot of the hash-table cache counters (also
    /// embedded in [`stats`](Self::stats) as [`EngineStats::cache`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Submits a join of `probe` against a registered table, serving the
    /// build side from the engine's hash-table cache.
    ///
    /// On a cache hit the request takes the **probe-only pipeline path**:
    /// build steps are skipped entirely and the session probes the shared
    /// immutable table (the adaptive tuner still observes probe morsels).
    /// On a miss, exactly one request builds the table — in a transient
    /// context outside any session arena — while concurrent misses on the
    /// same key wait for it (single-flight).  Requests the backend cannot
    /// serve from a cache (see [`ExecBackend::cache_params`]) fall back to
    /// a plain [`submit`](Self::submit) with the handle's tuples:
    /// per-request tables keep working unchanged.
    ///
    /// Results are byte-identical to the equivalent
    /// [`submit`](Self::submit): same matches, same pairs in the same
    /// order.
    ///
    /// # Errors
    /// Those of [`submit`](Self::submit) (admission is sized to the
    /// probe-only footprint on the cached path), plus
    /// [`JoinError::CacheBuildFailed`] when the build this request waited
    /// on single-flight failed or panicked.
    pub fn submit_cached(
        &self,
        request: &JoinRequest,
        table: &TableHandle,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        let source = match self.backend.cache_params(request, table.tuples().len()) {
            Some(params) => BuildSource::Cached(
                table,
                CacheKey {
                    table_id: table.id,
                    version: table.version,
                    backend: self.backend.name(),
                    params,
                },
            ),
            None => BuildSource::Inline(table.tuples()),
        };
        self.run(request, source, probe)
    }

    /// The one route every submission takes: admission, a session, the
    /// backend call guarded against panics, counter finalisation and the
    /// request's fate.  Only the backend call depends on `source`.
    ///
    /// A panicking backend (or a panicked native worker) must not leak the
    /// session, or the pool would shrink and later submissions would hang
    /// or be rejected forever: the session's arena went down with the
    /// panicking context, so it is reprovisioned and the session returned
    /// before the unwind resumes at the caller.
    fn run(
        &self,
        request: &JoinRequest,
        source: BuildSource<'_>,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        // Admission: reject inputs no session arena can hold, before
        // queueing for (or occupying) a session.  A cached build side lives
        // outside every session arena, so only the probe's working state
        // must fit; a spill-enabled request is admitted anyway, since the
        // hybrid hash join sizes its partition pairs to the arena.
        let (build_tuples, cached_table, spills) = match &source {
            BuildSource::Inline(build) => (build.len(), None, request.spill_config().is_some()),
            BuildSource::Cached(table, _) => (0, Some(*table), false),
        };
        let required =
            request.required_arena_bytes(build_tuples, probe.len(), self.backend.system());
        if required > self.arena_capacity && !spills {
            self.metrics.requests_failed.inc();
            return Err(JoinError::OversizedInput {
                build_tuples,
                probe_tuples: probe.len(),
                required_bytes: required,
                arena_bytes: self.arena_capacity,
            });
        }

        let (mut session, queue_wait_ns) = self.acquire_session()?;
        // A request may choose the other allocator design (the Figure 12
        // comparison); that rebuilds this session's arena once and is
        // counted.
        if request.config().allocator != session.allocator_kind {
            session.allocator = Some(self.provision_arena(request.config().allocator));
            session.allocator_kind = request.config().allocator;
        }
        let mut allocator = session.allocator.take().expect("session allocator present");
        allocator.reset();
        // Adaptive tuning: the request's policy wins, the engine default
        // applies otherwise.  Non-adaptable schemes (BasicUnit,
        // single-device placements) and the discrete topology stay static
        // regardless: on a PCI-e system, shared-vs-separate table selection
        // and transfer accounting are derived from the static plan, and
        // runtime ratio drift would put one shared hash table on both sides
        // of the bus.
        let tuning = request.tuning().unwrap_or(&self.config.tuning);
        let tuner = if self.backend.system().is_discrete() {
            None
        } else {
            tuning.tuner_for(&request.config().scheme)
        };
        let start_ns = self.sampler_shared.now_ns();
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = ExecContext::with_allocator(
                self.backend.system(),
                allocator,
                request.config().profile_cache,
            )
            .with_morsel_tuples(request.config().morsel_tuples)
            .with_worker_pool(&self.workers);
            if let Some(tuner) = tuner {
                ctx = ctx.with_tuner(tuner);
            }
            let result = match source {
                BuildSource::Inline(build) => match request.spill_config() {
                    None => self.backend.execute(&mut ctx, build, probe, request),
                    Some(spill) => {
                        self.execute_with_spill(&mut ctx, build, probe, request, spill, required)
                    }
                },
                // A panicking builder unwinds through get_or_build's failure
                // guard (waiters drain with a typed error) and then through
                // the panic guard around this closure.
                BuildSource::Cached(table, key) => self
                    .cache
                    .get_or_build(key, table.name(), || self.build_for_cache(request, table))
                    .and_then(|cached| {
                        self.backend.probe_cached(&mut ctx, &cached, probe, request)
                    }),
            };
            let result = result.map(|mut outcome| {
                ctx.finalize_counters();
                outcome.counters = ctx.counters.clone();
                outcome.counters.matches = outcome.matches;
                outcome.adaptive = ctx.take_tuner().map(|tuner| tuner.report());
                outcome.queue_wait_ns = queue_wait_ns;
                outcome
            });
            (result, ctx.into_allocator())
        }));
        let mut executed = match executed {
            Ok((result, allocator)) => {
                session.allocator = Some(allocator);
                Ok(result)
            }
            Err(payload) => {
                session.allocator = Some(self.provision_arena(session.allocator_kind));
                Err(payload)
            }
        };
        let outcome = executed
            .as_mut()
            .ok()
            .and_then(|result| result.as_mut().ok());
        let served = outcome.is_some();
        if let Some(outcome) = outcome {
            self.finish_join(session.id, request, outcome, start_ns, cached_table);
        }
        self.release_session(session, served);
        executed.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Builds `table`'s shareable hash table for the cache in a transient
    /// arena sized for the build side alone: the built table is shared
    /// across sessions and must not live in (or exhaust) any session's
    /// arena.
    fn build_for_cache(
        &self,
        request: &JoinRequest,
        table: &TableHandle,
    ) -> Result<CachedTable, JoinError> {
        let arena = arena_bytes_for(table.tuples().len(), 0);
        let mut ctx = ExecContext::new(
            self.backend.system(),
            request.config().allocator,
            arena,
            false,
        )
        .with_morsel_tuples(request.config().morsel_tuples)
        .with_worker_pool(&self.workers);
        self.backend.build_cached(&mut ctx, table.tuples(), request)
    }

    /// A cheap point-in-time load snapshot — what a server needs to shape
    /// backpressure replies without paying for a full [`stats`](Self::stats)
    /// clone.
    pub fn load(&self) -> EngineLoad {
        let pool = self.pool.lock();
        EngineLoad {
            in_flight: self.in_flight(&pool),
            queued: pool.waiting,
            sessions: self.config.sessions,
            queue_depth: self.config.effective_queue_depth(),
        }
    }

    /// Executes one request on an exclusively owned engine — a convenience
    /// wrapper over [`submit`](Self::submit) for single-threaded callers.
    ///
    /// # Errors
    /// Exactly those of [`submit`](Self::submit).
    pub fn execute(
        &mut self,
        request: &JoinRequest,
        build: &Relation,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        self.submit(request, build, probe)
    }
}

/// Builds the flight-recorder tree from data the join already produced:
/// one root span over the measured wall clock, one child span per
/// non-empty phase of the breakdown (starts laid end-to-end — phases
/// overlap in the pipelined schemes, so durations are authoritative and
/// starts are for readability), per-step events where the pipeline
/// recorded step executions, and the adaptive/spill reports as typed
/// events.
fn assemble_join_trace(outcome: &JoinOutcome, start_ns: u64, wall_ns: u64) -> JoinTrace {
    let mut trace = JoinTrace::default();
    let root = trace.push_span(0, "join", start_ns, wall_ns);
    let mut cursor = start_ns;
    for (phase, time) in outcome.breakdown.iter() {
        let ns = time.as_ns() as u64;
        let span = trace.push_span(root, phase.label(), cursor, ns);
        cursor = cursor.saturating_add(ns);
        for exec in outcome.phases.iter().filter(|p| p.phase == phase) {
            for step in &exec.steps {
                let step_ns = step
                    .cpu_time
                    .total()
                    .as_ns()
                    .max(step.gpu_time.total().as_ns());
                trace.push_event(
                    span,
                    cursor,
                    TraceEventKind::Step,
                    step.step.label(),
                    step_ns as u64,
                );
            }
        }
    }
    if let Some(report) = &outcome.adaptive {
        trace.push_event(
            root,
            cursor,
            TraceEventKind::Replan,
            "replans",
            report.replans,
        );
        for series in &report.series {
            // The effective (converged) ratios the re-plan blocks ended on,
            // per-mille so they fit the integer event value.
            for (step, ratio) in series.converged.iter().enumerate() {
                trace.push_event(
                    root,
                    cursor,
                    TraceEventKind::Replan,
                    format!("{:?}-step{step}-ratio-permille", series.kind).to_lowercase(),
                    (ratio * 1000.0).round() as u64,
                );
            }
        }
    }
    if let Some(report) = &outcome.spill {
        for (label, value) in [
            ("bytes-spilled", report.bytes_spilled),
            ("bytes-restored", report.bytes_restored),
            ("partitions-spilled", report.partitions_spilled),
            ("fallback-joins", report.fallback_joins),
            ("grant-denials", report.grant_denials),
            ("reclaimed-bytes", report.reclaimed_bytes),
        ] {
            trace.push_event(root, cursor, TraceEventKind::Spill, label, value);
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::reference_match_count;
    use apu_sim::{Phase, SimTime};
    use datagen::DataGenConfig;

    fn small_pair(n: usize) -> (Relation, Relation) {
        datagen::generate_pair(&DataGenConfig::small(n, 2 * n))
    }

    #[test]
    fn engine_reuses_one_arena_across_requests() {
        let (r, s) = small_pair(2000);
        let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(4000, 8000)).unwrap();
        let request = JoinRequest::builder().build().unwrap();
        let a = engine.execute(&request, &r, &s).unwrap();
        let b = engine.execute(&request, &r, &s).unwrap();
        assert_eq!(a.matches, b.matches);
        let stats = engine.stats();
        assert_eq!(stats.requests_served, 2);
        assert_eq!(
            stats.arenas_created, 1,
            "second request must not re-create the arena"
        );
    }

    #[test]
    fn oversized_requests_are_rejected_at_admission() {
        let (r, s) = small_pair(5000);
        let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(64, 64)).unwrap();
        let request = JoinRequest::builder().build().unwrap();
        let err = engine.execute(&request, &r, &s).unwrap_err();
        assert!(matches!(err, JoinError::OversizedInput { .. }), "{err}");
        assert_eq!(engine.stats().requests_failed, 1);
        // The engine stays usable for right-sized requests.
        let (small_r, small_s) = small_pair(16);
        assert!(engine.execute(&request, &small_r, &small_s).is_ok());
    }

    #[test]
    fn queue_wait_histogram_counts_every_acquisition() {
        let (r, s) = small_pair(500);
        let engine = JoinEngine::coupled(EngineConfig::for_tuples(1000, 2000)).unwrap();
        let request = JoinRequest::builder().build().unwrap();
        for _ in 0..4 {
            engine.submit(&request, &r, &s).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.queue_wait.count(), 4);
        assert!(stats.queue_wait.quantile_ns(0.5).is_some());
    }

    #[test]
    fn load_snapshot_tracks_the_pool() {
        let engine = JoinEngine::coupled(
            EngineConfig::for_tuples(1000, 2000)
                .sessions(3)
                .queue_depth(5),
        )
        .unwrap();
        let load = engine.load();
        assert_eq!(load.in_flight, 0);
        assert_eq!(load.queued, 0);
        assert_eq!(load.sessions, 3);
        assert_eq!(load.queue_depth, 5);
    }

    #[test]
    fn builder_rejects_out_of_range_ratios() {
        let err = JoinRequest::builder()
            .scheme(Scheme::DataDividing {
                partition_ratio: 0.1,
                build_ratio: 1.5,
                probe_ratio: 0.4,
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                JoinError::InvalidRatio {
                    series: "build",
                    ..
                }
            ),
            "{err}"
        );

        let err = JoinRequest::builder()
            .scheme(Scheme::Pipelined {
                partition: [0.0, 0.5, 0.5],
                build: [0.0, 0.5, 0.5, 0.5],
                probe: [0.0, 0.5, f64::NAN, 0.5],
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                JoinError::InvalidRatio {
                    series: "probe",
                    step: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn builder_rejects_degenerate_chunks_and_radix_bits() {
        let err = JoinRequest::builder()
            .scheme(Scheme::BasicUnit { chunk_tuples: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, JoinError::InvalidChunkSize);

        let err = JoinRequest::builder()
            .algorithm(Algorithm::Partitioned {
                radix_bits: 24,
                passes: 1,
            })
            .build()
            .unwrap_err();
        assert_eq!(err, JoinError::InvalidRadixBits { radix_bits: 24 });

        let err = JoinRequest::builder().out_of_core(0).build().unwrap_err();
        assert_eq!(err, JoinError::InvalidChunkSize);
    }

    #[test]
    fn builder_applies_every_knob() {
        let request = JoinRequest::builder()
            .algorithm(Algorithm::partitioned_auto())
            .scheme(Scheme::data_dividing_paper())
            .hash_table(HashTableMode::Separate)
            .allocator(AllocatorKind::Basic)
            .grouping(false)
            .granularity(StepGranularity::Coarse)
            .collect_results(true)
            .profile_cache(true)
            .out_of_core(4096)
            .morsel_tuples(1024)
            .build()
            .unwrap();
        let cfg = request.config();
        assert_eq!(cfg.algorithm, Algorithm::partitioned_auto());
        assert_eq!(cfg.hash_table, HashTableMode::Separate);
        assert_eq!(cfg.allocator, AllocatorKind::Basic);
        assert!(!cfg.grouping);
        assert_eq!(cfg.granularity, StepGranularity::Coarse);
        assert!(cfg.collect_results);
        assert!(cfg.profile_cache);
        assert_eq!(cfg.morsel_tuples, 1024);
        assert_eq!(request.out_of_core_chunk(), Some(4096));
    }

    #[test]
    fn allocator_switch_rebuilds_the_arena_once() {
        let (r, s) = small_pair(1000);
        let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(2000, 4000)).unwrap();
        let tuned = JoinRequest::builder().build().unwrap();
        let basic = JoinRequest::builder()
            .allocator(AllocatorKind::Basic)
            .build()
            .unwrap();
        engine.execute(&tuned, &r, &s).unwrap();
        engine.execute(&basic, &r, &s).unwrap();
        engine.execute(&basic, &r, &s).unwrap();
        assert_eq!(engine.stats().arenas_created, 2);
    }

    #[test]
    fn native_backend_joins_correctly_with_measured_times() {
        let (r, s) = small_pair(3000);
        let expected = reference_match_count(&r, &s);
        let mut engine = JoinEngine::native(EngineConfig::for_tuples(3000, 6000)).unwrap();
        assert_eq!(engine.backend_name(), "native-cpu");
        let request = JoinRequest::builder()
            .collect_results(true)
            .build()
            .unwrap();
        let out = engine.execute(&request, &r, &s).unwrap();
        assert_eq!(out.matches, expected);
        let mut pairs = out.pairs.unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, crate::result::reference_pairs(&r, &s));
        assert!(out.breakdown.get(Phase::Build) > SimTime::ZERO);
        assert!(out.breakdown.get(Phase::Probe) > SimTime::ZERO);
    }

    #[test]
    fn native_backend_is_deterministic_across_worker_counts() {
        let (r, s) = small_pair(2000);
        let expected = reference_match_count(&r, &s);
        for workers in [1, 2, 7] {
            let mut engine = JoinEngine::new(
                Box::new(NativeCpu::new()),
                EngineConfig::for_tuples(2000, 4000).worker_threads(workers),
            )
            .unwrap();
            // Both sides span several morsels, so both phases use the pool.
            let request = JoinRequest::builder()
                .morsel_tuples(NATIVE_MIN_CHUNK_TUPLES)
                .build()
                .unwrap();
            assert_eq!(engine.execute(&request, &r, &s).unwrap().matches, expected);
            let stats = engine.stats();
            assert_eq!(stats.worker_threads, workers);
            assert_eq!(stats.per_worker_tasks.len(), workers);
            assert!(
                stats.per_worker_tasks.iter().sum::<u64>() > 0,
                "native execution must run on the engine's pool"
            );
        }
    }

    #[test]
    fn engine_drop_joins_every_pool_worker() {
        let engine =
            JoinEngine::native(EngineConfig::for_tuples(64, 64).worker_threads(3)).unwrap();
        let gauge = engine.worker_pool().live_worker_gauge();
        assert_eq!(engine.worker_pool().live_workers(), 3);
        drop(engine);
        assert_eq!(
            gauge.load(std::sync::atomic::Ordering::Acquire),
            0,
            "dropping the engine must join all pool workers"
        );
    }

    #[test]
    fn undersized_arena_fails_with_arena_exhausted_not_panic() {
        // Admission passes (the arena was provisioned for these sizes) but a
        // pathological workload — every probe tuple matching every build
        // tuple — needs far more result space than the sizing heuristic
        // provisions.  Execution must fail cleanly.
        let r = Relation::from_keys(vec![7; 1024]);
        let s = Relation::from_keys(vec![7; 4096]);
        let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(1024, 4096)).unwrap();
        let request = JoinRequest::builder().build().unwrap();
        let err = engine.execute(&request, &r, &s).unwrap_err();
        assert!(matches!(err, JoinError::ArenaExhausted { .. }), "{err}");
        // The engine recovers: a well-behaved request still succeeds.
        let (ok_r, ok_s) = small_pair(256);
        assert!(engine.execute(&request, &ok_r, &ok_s).is_ok());
    }

    #[test]
    fn for_system_picks_the_matching_simulator() {
        let coupled = JoinEngine::for_system(
            SystemSpec::coupled_a8_3870k(),
            EngineConfig::for_tuples(64, 64),
        )
        .unwrap();
        assert_eq!(coupled.backend_name(), "coupled-sim");
        let discrete = JoinEngine::for_system(
            SystemSpec::discrete_emulated(),
            EngineConfig::for_tuples(64, 64),
        )
        .unwrap();
        assert_eq!(discrete.backend_name(), "discrete-sim");
    }

    #[test]
    fn concurrent_submissions_share_the_session_pool() {
        let (r, s) = small_pair(2000);
        let engine = JoinEngine::coupled(EngineConfig::for_tuples(4000, 8000).sessions(4)).unwrap();
        let request = JoinRequest::builder().build().unwrap();
        let expected = reference_match_count(&r, &s);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let out = engine.submit(&request, &r, &s).unwrap();
                        assert_eq!(out.matches, expected);
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.requests_served, 24);
        assert_eq!(stats.requests_failed, 0);
        assert_eq!(
            stats.arenas_created, 4,
            "one arena per session, none created per request"
        );
        assert_eq!(stats.sessions, 4);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.peak_in_flight >= 1 && stats.peak_in_flight <= 4);
        assert!(stats.joins_per_sec > 0.0);
    }

    // Saturation / overload rejection is covered end to end by the
    // release-mode integration suite (tests/concurrency.rs), which holds
    // sessions busy with a gated backend — not duplicated here.

    /// The coupled simulator, except that its first `execute_panics`
    /// executions and its first `probe_panics` cached probes panic.
    #[derive(Default)]
    struct Flaky {
        sim: CoupledSim,
        execute_panics: std::sync::atomic::AtomicUsize,
        probe_panics: std::sync::atomic::AtomicUsize,
    }

    impl Flaky {
        fn boxed(execute_panics: usize, probe_panics: usize) -> Box<Flaky> {
            Box::new(Flaky {
                execute_panics: execute_panics.into(),
                probe_panics: probe_panics.into(),
                ..Flaky::default()
            })
        }
    }

    /// Takes one of `left`'s remaining panics, if any.
    fn take_panic(left: &std::sync::atomic::AtomicUsize) -> bool {
        use std::sync::atomic::Ordering;
        left.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    impl ExecBackend for Flaky {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn system(&self) -> &SystemSpec {
            self.sim.system()
        }
        fn execute(
            &self,
            ctx: &mut ExecContext<'_>,
            build: &Relation,
            probe: &Relation,
            request: &JoinRequest,
        ) -> Result<JoinOutcome, JoinError> {
            if take_panic(&self.execute_panics) {
                panic!("injected backend panic");
            }
            self.sim.execute(ctx, build, probe, request)
        }
        fn cache_params(&self, request: &JoinRequest, build_tuples: usize) -> Option<CacheParams> {
            self.sim.cache_params(request, build_tuples)
        }
        fn build_cached(
            &self,
            ctx: &mut ExecContext<'_>,
            build: &Relation,
            request: &JoinRequest,
        ) -> Result<CachedTable, JoinError> {
            self.sim.build_cached(ctx, build, request)
        }
        fn probe_cached(
            &self,
            ctx: &mut ExecContext<'_>,
            cached: &CachedTable,
            probe: &Relation,
            request: &JoinRequest,
        ) -> Result<JoinOutcome, JoinError> {
            if take_panic(&self.probe_panics) {
                panic!("injected probe panic");
            }
            self.sim.probe_cached(ctx, cached, probe, request)
        }
    }

    #[test]
    fn backend_panic_does_not_leak_the_session() {
        let engine = JoinEngine::new(
            Flaky::boxed(1, 0),
            EngineConfig::for_tuples(64, 64), // a single session
        )
        .unwrap();
        let (r, s) = small_pair(16);
        let request = JoinRequest::builder().build().unwrap();

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = engine.submit(&request, &r, &s);
        }));
        assert!(unwound.is_err(), "the backend panic must propagate");

        // The lone session went back to the pool with a fresh arena — the
        // engine must still serve instead of hanging or rejecting forever.
        assert!(engine.submit(&request, &r, &s).is_ok());
        let stats = engine.stats();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.requests_failed, 1);
        assert_eq!(stats.requests_served, 1);
        assert_eq!(
            stats.arenas_created, 2,
            "the panicked session's arena is reprovisioned once"
        );

        // The cached route recovers the same way: the table built and
        // cached, then the probe panicked.
        let engine = JoinEngine::new(Flaky::boxed(0, 1), EngineConfig::for_tuples(64, 64)).unwrap();
        let table = engine.register_table("r", r.clone());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = engine.submit_cached(&request, &table, &s);
        }));
        assert!(unwound.is_err(), "the probe panic must propagate");
        let stats = engine.stats();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.requests_failed, 1);
        assert_eq!(stats.arenas_created, 2, "one arena, reprovisioned once");
        let out = engine.submit_cached(&request, &table, &s).unwrap();
        assert_eq!(out.matches, reference_match_count(&r, &s));
        let stats = engine.stats();
        assert_eq!((stats.requests_served, stats.requests_failed), (1, 1));
        assert_eq!((stats.cache.misses, stats.cache.hits), (1, 1));
    }

    /// A join that passes admission and then runs out of arena counts
    /// one failure and hands its session back, like a panicking one
    /// (`backend_panic_does_not_leak_the_session`).
    #[test]
    fn an_arena_exhausted_join_counts_one_failure_and_frees_its_session() {
        let request = JoinRequest::builder().build().unwrap();
        // Admission passes, but every probe tuple matches every build tuple.
        let engine = JoinEngine::coupled(EngineConfig::for_tuples(1024, 4096)).unwrap();
        let r = Relation::from_keys(vec![7; 1024]);
        let s = Relation::from_keys(vec![7; 4096]);
        let err = engine.submit(&request, &r, &s).unwrap_err();
        assert!(matches!(err, JoinError::ArenaExhausted { .. }), "{err}");
        let stats = engine.stats();
        assert_eq!((stats.requests_failed, stats.requests_served), (1, 0));
        assert_eq!(stats.in_flight, 0);
        assert_eq!(engine.load().in_flight, 0);
    }

    #[test]
    fn stats_and_submit_stay_usable_after_a_panicked_join() {
        // Regression test for lock poisoning: before the recovery policy, a
        // panicking backend could leave the stats/pool mutexes poisoned and
        // every later `stats()`/`submit()` call panicked in `.expect(..)`.
        let engine = JoinEngine::new(
            Flaky::boxed(2, 0),
            EngineConfig::for_tuples(64, 64).sessions(2),
        )
        .unwrap();
        let (r, s) = small_pair(16);
        let request = JoinRequest::builder().build().unwrap();

        for round in 0..2 {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = engine.submit(&request, &r, &s);
            }));
            assert!(unwound.is_err(), "round {round}: the panic must propagate");
            // Neither observability nor admission may be bricked.
            let stats = engine.stats();
            assert_eq!(stats.requests_failed, round + 1);
            assert_eq!(stats.in_flight, 0);
        }
        assert!(engine.submit(&request, &r, &s).is_ok());
        assert_eq!(engine.stats().requests_served, 1);
    }

    #[test]
    fn queue_depth_and_sessions_compose_in_either_order() {
        let a = EngineConfig::for_tuples(64, 64).queue_depth(16).sessions(4);
        let b = EngineConfig::for_tuples(64, 64).sessions(4).queue_depth(16);
        assert_eq!(a.effective_queue_depth(), 16);
        assert_eq!(b.effective_queue_depth(), 16);
        // Unset queue depth follows the session count.
        assert_eq!(
            EngineConfig::for_tuples(64, 64)
                .sessions(4)
                .effective_queue_depth(),
            4
        );
    }

    #[test]
    fn zero_sessions_is_an_invalid_engine_config() {
        let err = JoinEngine::coupled(EngineConfig::for_tuples(64, 64).sessions(0)).unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_worker_threads_is_an_invalid_engine_config() {
        let err =
            JoinEngine::coupled(EngineConfig::for_tuples(64, 64).worker_threads(0)).unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_morsel_size_is_rejected_at_request_build() {
        let err = JoinRequest::builder().morsel_tuples(0).build().unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_block_size_is_an_invalid_engine_config() {
        let err = JoinEngine::coupled(
            EngineConfig::for_tuples(64, 64).with_allocator(AllocatorKind::Block { block_size: 0 }),
        )
        .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
    }
}
