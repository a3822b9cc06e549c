//! The dynamic hybrid hash join: graceful degradation for joins that do
//! not fit memory.
//!
//! The in-core executor treats arena exhaustion (and oversized inputs) as
//! hard rejections.  This module is the engine's escape hatch: a hybrid
//! hash join whose build partitions *start* memory-resident and are evicted
//! to disk only under actual pressure, in the spirit of the dynamic hybrid
//! hash joins surveyed by Jahangiri, Carey and Freytag — which keep only
//! *build* partitions resident and stream the probe side through them, so
//! that the only probe tuples written are those of spilled partitions:
//!
//! 1. **Route the build side.**  It streams through a depth-salted hash
//!    into [`SpillConfig::partitions`] partitions, one frame
//!    ([`SpillConfig::frame_tuples`]) per pool worker at a time — a run
//!    file being re-partitioned is read that many frames at a time.  Each
//!    such chunk is one job on the engine's worker pool: every worker
//!    scatters one frame of it with the native kernel's scatter loop and
//!    notes each partition's least and greatest key.  The scattered frames
//!    are then taken one by one in input order, so a partition's tuples
//!    keep the order of its input, and which partitions spill does not
//!    depend on the pool's width or the request's morsel.  Resident
//!    partitions accumulate in memory, byte-accounted against the
//!    session's [`MemoryGrant`] with one grow per frame; a denied grow (or
//!    the broker's fair-share reclaim signal, polled every frame) evicts
//!    the largest resident partition to a checksummed run file.
//! 2. **Build one table over every resident build partition**, once,
//!    through the backend's build-once/probe-many path
//!    ([`ExecBackend::build_cached`]) — count-only unless the request
//!    collects.
//! 3. **Stream the probe side through it**, chunk by chunk.  On the native
//!    backend a chunk is one pool job of one task per frame: each task
//!    routes its frame — tuples of spilled partitions to their buffers,
//!    resident keys compacted in input order — and then probes the
//!    compacted keys alone.  A simulator scatters the chunk the same way
//!    and probes each frame's resident tuples on the session thread
//!    ([`ExecBackend::probe_cached`]), a frame at a time so that its
//!    simulated time does not depend on the pool's width.  The session
//!    thread stages the spilled buffers to their partitions' probe runs in
//!    input order.  Resident pairs therefore come out in probe order across
//!    all resident partitions.  The resident grant is released when the
//!    stream ends.  A reclaim request that arrives while the stream runs is
//!    served then: the table cannot give back part of itself, and the
//!    stream's working state does not grow.
//! 4. **Join the spilled pairs.**  A spilled pair that fits the freed
//!    budget (and the arena) is restored and joined in core by the
//!    backend's `execute`.  One that does not is *re-partitioned* by this
//!    same pass at the next depth — streamed frame by frame, never holding
//!    the oversized run in memory — up to
//!    [`SpillConfig::max_recursion_depth`].  A grant-bounded block
//!    nested-loop join finishes a pair past the cap, and at once a pair that
//!    no partitioning can shrink: one whose build keys are all equal, or one
//!    that a re-partitioning pass left holding all of its input.
//!
//! A pass keeps per-partition pair joins instead of steps 2 and 3 when the
//! backend has no build-once path for the request — the discrete
//! simulator, whose cost model charges PCI-e transfers per request plan,
//! and any request the cache would also decline
//! ([`ExecBackend::cache_params`] returns `None`) — or when the resident
//! table would not fit the session's arena.  Its probe side is then routed
//! like the build side, its resident tuples booked against the grant beside
//! their build partition, and every resident pair is joined by the
//! backend's `execute` before the spilled ones; a resident pair too large
//! for the arena is re-partitioned in memory.
//!
//! The executor never *waits* for memory — denial always has a productive
//! fallback (evict, stage, recurse, block) — so concurrent sessions cannot
//! deadlock on the budget, and a zero-headroom broker degrades every
//! session to streaming instead of failing any of them.  Bounded working
//! state is deliberately kept off the broker's books; only resident
//! partition payload is granted.  That state is the scattered frames of the
//! chunk being routed (about `frame_tuples × workers × 8` bytes), one
//! staging frame per spilled partition, the fallback's blocks, and — from
//! its build to the end of the probe stream — the resident table.  The
//! engine keeps, from join to join ([`Scratch::relation`]), the relations a
//! pass routes the build side into and the one it copies the resident
//! partitions into for the table's build: each holds no more than the grant
//! it was booked against, and a join after the first faults in no fresh
//! pages for them.

use crate::cached::{CachedPayload, CachedTable};
use crate::context::{arena_bytes_for, ExecContext};
use crate::engine::{ExecBackend, JoinRequest};
use crate::error::JoinError;
use crate::hash::{hash_key, FastMod};
use crate::native::{route_probe, run_tasks, scatter, scatter_range, Scattered, Scratch};
use crate::pipeline::{morsel_ranges, WorkerPool};
use crate::result::JoinOutcome;
use apu_sim::{Phase, SimTime};
use datagen::{Relation, TUPLE_BYTES};
use hj_spill::{MemoryGrant, PendingRun, SpillConfig, SpillManager, SpillReport, SpillRun};
use std::ops::Range;
use std::time::Instant;

/// Largest build or probe block, in tuples, of the nested-loop fallback,
/// which halves a block until the pair fits the arena.
const FALLBACK_BLOCK_TUPLES: usize = 64 * 1024;

/// The backend calls of a spilling join: pair joins, and the resident
/// table's build and probes, all on the request the engine strips for
/// them.
pub(crate) struct SpillBackend<'a> {
    backend: &'a dyn ExecBackend,
    /// The outer request without spill, out-of-core chunking or trace.
    request: JoinRequest,
    /// The outer request's morsel.
    morsel: usize,
    /// The pool's width.
    workers: usize,
}

impl<'a> SpillBackend<'a> {
    pub(crate) fn new(backend: &'a dyn ExecBackend, request: JoinRequest, workers: usize) -> Self {
        let morsel = request.config().morsel_tuples;
        SpillBackend {
            backend,
            request,
            morsel,
            workers: workers.max(1),
        }
    }

    /// Cuts the morsel so that every worker gets a share of a `tuples`-tuple
    /// build: partitions are mostly smaller than a morsel.  The simulators
    /// morselise by `ctx.morsel_tuples`, not the request.
    fn share(&mut self, tuples: usize) -> &JoinRequest {
        let morsel = self.morsel.min(tuples.div_ceil(self.workers)).max(1);
        self.request.set_morsel_tuples(morsel);
        &self.request
    }

    fn pair(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        let backend = self.backend;
        backend.execute(ctx, build, probe, self.share(build.len()))
    }

    /// Whether the backend has a build-once path for this request.
    fn builds_tables(&self, build_tuples: usize) -> bool {
        self.backend
            .cache_params(&self.request, build_tuples)
            .is_some()
    }

    fn build(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
    ) -> Result<CachedTable, JoinError> {
        let backend = self.backend;
        backend.build_cached(ctx, build, self.share(build.len()))
    }

    fn probe(
        &self,
        ctx: &mut ExecContext<'_>,
        table: &CachedTable,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        self.backend.probe_cached(ctx, table, probe, &self.request)
    }

    fn collects(&self) -> bool {
        self.request.config().collect_results
    }
}

/// Runs `build ⨝ probe` under the session's memory grant, spilling build
/// partitions (and staging their probe tuples) to `manager`'s run files
/// whenever the broker denies memory or requests reclaim.
///
/// Returns the merged outcome plus the [`SpillReport`] describing how much
/// degradation actually happened (a fully-resident run reports zero bytes
/// spilled).  Spill I/O is additionally charged to the outcome's
/// [`Phase::SpillIo`] at the CPU's streaming bandwidth — its own phase, so
/// disk round trips are never conflated with [`Phase::DataCopy`]'s
/// PCIe/zero-copy transfer accounting.
///
/// # Errors
/// * [`JoinError::Spill`] on run-file I/O failures or corrupt frames;
/// * [`JoinError::ArenaExhausted`] only when even a single-tuple fallback
///   block cannot fit the context's arena (a mis-provisioned engine).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_spill_join(
    ctx: &mut ExecContext<'_>,
    build: &Relation,
    probe: &Relation,
    spill: &SpillConfig,
    grant: &MemoryGrant,
    manager: &SpillManager,
    scratch: &Scratch,
    joins: SpillBackend<'_>,
) -> Result<(JoinOutcome, SpillReport), JoinError> {
    let started = Instant::now();
    let mut pass = SpillPass {
        spill,
        grant,
        manager,
        report: SpillReport::default(),
        fanout: FastMod::new(spill.partitions as u32),
        pool: ctx.worker_pool(),
        scratch,
        joins,
    };
    let mut outcome = pass.hybrid_pass(ctx, Input::Mem(build), Input::Mem(probe), 0)?;
    let mut report = pass.report;
    report.spill_wall_secs = started.elapsed().as_secs_f64();
    // Charge the disk round trips like the out-of-core path charges its
    // buffer copies — streamed at the CPU's sequential bandwidth — but to
    // the dedicated spill-io phase, not DataCopy.
    let io_bytes = report.bytes_spilled + report.bytes_restored;
    if io_bytes > 0 {
        let bw = ctx.sys.cpu.seq_bandwidth_gbps; // bytes per nanosecond
        outcome
            .breakdown
            .add(Phase::SpillIo, SimTime::from_ns(io_bytes as f64 / bw));
    }
    Ok((outcome, report))
}

/// One partition of a hybrid pass.
enum Slot {
    /// Still memory-resident; payload bytes are granted.  `probe` stays
    /// empty unless the pass keeps pair joins.
    Resident { build: Relation, probe: Relation },
    /// Evicted: tuples stream to run files through bounded staging buffers.
    Spilled {
        build_run: PendingRun,
        probe_run: PendingRun,
        build_staged: Relation,
        probe_staged: Relation,
    },
}

impl Slot {
    fn empty() -> Self {
        Slot::Resident {
            build: Relation::new(),
            probe: Relation::new(),
        }
    }

    fn is_resident(&self) -> bool {
        matches!(self, Slot::Resident { .. })
    }

    fn resident_bytes(&self) -> usize {
        match self {
            Slot::Resident { build, probe } => build.bytes() + probe.bytes(),
            Slot::Spilled { .. } => 0,
        }
    }

    /// Where `side`'s routed tuples go: the resident relation, or the
    /// staging buffer of a spilled partition.
    fn destination(&mut self, side: Side) -> &mut Relation {
        match (self, side) {
            (Slot::Resident { build, .. }, Side::Build) => build,
            (Slot::Resident { probe, .. }, Side::Probe) => probe,
            (Slot::Spilled { build_staged, .. }, Side::Build) => build_staged,
            (Slot::Spilled { probe_staged, .. }, Side::Probe) => probe_staged,
        }
    }
}

/// Which side of the join a chunk belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Build,
    Probe,
}

/// The build tuples routed to one partition: how many, and their least
/// and greatest key.
#[derive(Clone, Copy)]
struct KeyRange {
    tuples: u64,
    min: u32,
    max: u32,
}

impl Default for KeyRange {
    fn default() -> Self {
        KeyRange {
            tuples: 0,
            min: u32::MAX,
            max: 0,
        }
    }
}

impl KeyRange {
    /// The range of one scattered bucket (taken on the pool task that
    /// scattered it).
    fn of(bucket: &Scattered) -> Self {
        let keys = bucket.keys.iter().copied();
        KeyRange {
            tuples: bucket.keys.len() as u64,
            min: keys.clone().min().unwrap_or(u32::MAX),
            max: keys.max().unwrap_or(0),
        }
    }

    fn add(&mut self, other: KeyRange) {
        self.tuples += other.tuples;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Whether no partitioning can shrink the partition: all of its keys
    /// are equal, or the re-partitioning pass that made it (`depth > 0`)
    /// left all of that pass's `input` build tuples in it.
    fn cannot_shrink(&self, input: u64, depth: u32) -> bool {
        self.tuples > 0 && (self.min == self.max || (depth > 0 && self.tuples == input))
    }
}

/// A pass input: borrowed memory at the top level, an owned run file when
/// recursing on a spilled pair.
enum Input<'a> {
    Mem(&'a Relation),
    Run(SpillRun),
}

impl Input<'_> {
    fn tuples(&self) -> u64 {
        match self {
            Input::Mem(rel) => rel.len() as u64,
            Input::Run(run) => run.tuples(),
        }
    }
}

/// The per-request spill machinery threaded through recursive passes.
struct SpillPass<'e> {
    spill: &'e SpillConfig,
    grant: &'e MemoryGrant,
    manager: &'e SpillManager,
    report: SpillReport,
    /// `% spill.partitions`, the fanout of every pass.
    fanout: FastMod,
    /// The pool chunks are scattered on; `None` (a context created outside
    /// an engine) scatters on the calling thread.
    pool: Option<&'e WorkerPool>,
    /// The chunk buffers, reused chunk after chunk and join after join.
    scratch: &'e Scratch,
    joins: SpillBackend<'e>,
}

/// The depth-salted partition hash.  Each recursion level must split a
/// partition its parent level could not — reusing the parent's hash would
/// map every tuple of a partition into one child forever — so the key is
/// perturbed by a per-depth odd constant before hashing.  The result is
/// also independent of the radix partitioning the in-core PHJ applies to
/// the pairs afterwards (different salt, different bit range).
///
/// 32-bit arithmetic throughout: the shifted hash is below 2^25, so the
/// remainder is the one 64-bit arithmetic would give
/// ([`SpillConfig::validate`] keeps the fanout within `u32`), and it is
/// taken without a division — a spill join builds its [`FastMod`] once.
fn spill_partition(key: u32, depth: u32, partitions: impl Into<FastMod>) -> usize {
    let salt = 0x9E37_79B9u32.wrapping_mul(depth.wrapping_add(1));
    partitions.into().rem(hash_key(key ^ salt) >> 7) as usize
}

impl SpillPass<'_> {
    /// One full hybrid hash pass over a build/probe input pair at `depth`.
    fn hybrid_pass(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build: Input<'_>,
        probe: Input<'_>,
        depth: u32,
    ) -> Result<JoinOutcome, JoinError> {
        self.report.recursion_depth = self.report.recursion_depth.max(depth);
        let fanout = self.spill.partitions;
        let build_tuples = build.tuples();
        let share = build_tuples as usize / fanout;
        let mut slots: Vec<Slot> = (0..fanout)
            .map(|_| Slot::Resident {
                build: self.scratch.relation(share),
                probe: Relation::new(),
            })
            .collect();
        let mut ranges = vec![KeyRange::default(); fanout];
        self.route_input(build, &mut slots, &mut ranges, depth, Side::Build)?;
        self.report.partitions_total += slots
            .iter()
            .zip(&ranges)
            .filter(|(slot, range)| !slot.is_resident() || range.tuples > 0)
            .count() as u64;
        let stuck: Vec<bool> = ranges
            .iter()
            .map(|range| range.cannot_shrink(build_tuples, depth))
            .collect();

        let mut outcome = JoinOutcome::default();
        let resident: usize = slots.iter().map(Slot::resident_bytes).sum();
        let resident = resident / TUPLE_BYTES;
        let fits_arena = arena_bytes_for(resident, 0) <= ctx.allocator.capacity();
        if fits_arena && self.joins.builds_tables(resident) {
            let (table, granted) = self.build_resident_table(ctx, &mut slots, &mut outcome)?;
            let streamed = self.stream_probe(ctx, probe, &mut slots, depth, table.as_ref());
            drop(table);
            // Released even on failure: the partitions are gone either way.
            self.grant.shrink(granted);
            merge_outcome(&mut outcome, streamed?);
        } else {
            self.route_input(probe, &mut slots, &mut [], depth, Side::Probe)?;
            self.join_resident_pairs(ctx, &mut slots, &stuck, depth, &mut outcome)?;
        }

        for (slot, stuck) in slots.into_iter().zip(stuck) {
            let Slot::Spilled {
                mut build_run,
                mut probe_run,
                build_staged,
                probe_staged,
            } = slot
            else {
                continue;
            };
            self.push_spilled(&mut build_run, &build_staged)?;
            self.push_spilled(&mut probe_run, &probe_staged)?;
            drop((build_staged, probe_staged));
            let build_run = build_run.seal().map_err(JoinError::from)?;
            let probe_run = probe_run.seal().map_err(JoinError::from)?;
            let pair = self.join_spilled(ctx, build_run, probe_run, depth, stuck)?;
            merge_outcome(&mut outcome, pair);
        }
        Ok(outcome)
    }

    /// Builds the table over every resident build partition (in partition
    /// order) and charges its build to `outcome`.  Returns the table —
    /// `None` when no build tuple stayed resident — and the resident bytes,
    /// which stay granted until the caller releases them; the partitions'
    /// relations go back to the scratch once copied, and so does the copy
    /// once built.
    fn build_resident_table(
        &mut self,
        ctx: &mut ExecContext<'_>,
        slots: &mut [Slot],
        outcome: &mut JoinOutcome,
    ) -> Result<(Option<CachedTable>, usize), JoinError> {
        let bytes: usize = slots.iter().map(Slot::resident_bytes).sum();
        let mut build = self.scratch.relation(bytes / TUPLE_BYTES);
        for slot in slots.iter_mut() {
            if let Slot::Resident { build: part, .. } = slot {
                build.extend_from(part);
                self.scratch.keep_relation(std::mem::take(part));
            }
        }
        if build.is_empty() {
            self.scratch.keep_relation(build);
            return Ok((None, 0));
        }
        ctx.allocator.reset();
        let built = self.joins.build(ctx, &build);
        self.scratch.keep_relation(build);
        match built {
            Ok(table) => {
                outcome.breakdown.merge(&table.build_time);
                Ok((Some(table), bytes))
            }
            Err(e) => {
                self.grant.shrink(bytes);
                Err(e)
            }
        }
    }

    /// Streams the probe side through the resident table (`None`: nothing
    /// stayed resident, so no resident probe tuple can match), one chunk at
    /// a time, staging the tuples of spilled partitions to their probe runs.
    fn stream_probe(
        &mut self,
        ctx: &mut ExecContext<'_>,
        probe: Input<'_>,
        slots: &mut [Slot],
        depth: u32,
        table: Option<&CachedTable>,
    ) -> Result<JoinOutcome, JoinError> {
        let partitions = slots.len();
        let fanout = self.fanout;
        let spilled: Vec<bool> = slots.iter().map(|slot| !slot.is_resident()).collect();
        let spilled_partition = |key: u32| {
            let partition = spill_partition(key, depth, fanout);
            spilled[partition].then_some(partition)
        };
        let collect = self.joins.collects();
        let mut outcome = JoinOutcome::default();
        self.for_each_chunk(probe, |pass, keys, rids, frames| {
            if let Some(CachedPayload::Native(native)) = table.map(|t| &t.payload) {
                let started = Instant::now();
                let routed = route_probe(
                    pass.pool,
                    native,
                    keys,
                    rids,
                    frames,
                    partitions,
                    spilled_partition,
                    collect,
                    pass.scratch,
                );
                let elapsed = SimTime::from_ns(started.elapsed().as_nanos() as f64);
                outcome.breakdown.add(Phase::Probe, elapsed);
                let mut buffers = Vec::with_capacity(routed.len());
                for frame in routed {
                    pass.stage(&frame.spilled, slots, Side::Probe)?;
                    outcome.matches += frame.matches;
                    if collect {
                        extend_pairs(&mut outcome.pairs, frame.pairs);
                    }
                    buffers.push(frame.spilled);
                }
                pass.scratch.keep_buffers(buffers);
                return Ok(());
            }
            // The simulators: the same routing, then each frame's resident
            // tuples probed on this thread.
            let mut scattered = scatter(
                pass.pool,
                keys,
                Some(rids),
                frames,
                partitions + 1,
                |key| spilled_partition(key).unwrap_or(partitions),
                pass.scratch,
            );
            for (buffers, _) in &mut scattered {
                pass.stage(&buffers[..partitions], slots, Side::Probe)?;
                let Some(table) = table else { continue };
                let kept = &mut buffers[partitions];
                let kept = Relation::from_columns(
                    std::mem::take(&mut kept.rids),
                    std::mem::take(&mut kept.keys),
                );
                if !kept.is_empty() {
                    merge_outcome(&mut outcome, pass.probe_table(ctx, table, &kept)?);
                }
            }
            pass.scratch.keep_scattered(scattered);
            Ok(())
        })?;
        Ok(outcome)
    }

    /// Probes one frame's resident tuples against a simulator's table in
    /// the session arena, which holds only this probe's output: like
    /// [`block_pair_join`](Self::block_pair_join), a probe that exhausts it
    /// is retried in halves.
    fn probe_table(
        &mut self,
        ctx: &mut ExecContext<'_>,
        table: &CachedTable,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        ctx.allocator.reset();
        let counters_before = ctx.counters.clone();
        match self.joins.probe(ctx, table, probe) {
            Err(JoinError::ArenaExhausted { .. }) if probe.len() > 1 => {
                ctx.counters = counters_before;
                let mid = probe.len() / 2;
                let mut outcome = JoinOutcome::default();
                for half in [probe.slice(0..mid), probe.slice(mid..probe.len())] {
                    merge_outcome(&mut outcome, self.probe_table(ctx, table, &half)?);
                }
                Ok(outcome)
            }
            other => other,
        }
    }

    /// Joins every resident pair with the backend's `execute`, releasing
    /// each pair's grant as it completes — freeing budget for the spilled
    /// pairs' restores.
    fn join_resident_pairs(
        &mut self,
        ctx: &mut ExecContext<'_>,
        slots: &mut [Slot],
        stuck: &[bool],
        depth: u32,
        outcome: &mut JoinOutcome,
    ) -> Result<(), JoinError> {
        for (slot, &stuck) in slots.iter_mut().zip(stuck) {
            let Slot::Resident { build, probe } = slot else {
                continue;
            };
            let (build, probe) = (std::mem::take(build), std::mem::take(probe));
            if build.is_empty() && probe.is_empty() {
                self.scratch.keep_relation(build);
                continue;
            }
            let bytes = build.bytes() + probe.bytes();
            // The pair's grant is held through join_in_memory on purpose:
            // when the pair recurses (too big for the arena), the parent
            // relations and the child partitions genuinely co-reside, so
            // the child pass must compete for budget against the parent's
            // live bytes — spilling children instead of silently running at
            // 2x budget.
            let result = self.join_in_memory(ctx, &build, &probe, depth, stuck);
            // Release the pair's grant even on failure: the relations are
            // dropped either way.
            self.grant.shrink(bytes);
            self.scratch.keep_relation(build);
            merge_outcome(outcome, result?);
        }
        Ok(())
    }

    /// Hands `input` to `route` one chunk at a time: one frame per pool
    /// worker, given as ranges of the chunk.  A run input is read back
    /// exactly once, each frame as it was written.
    fn for_each_chunk(
        &mut self,
        input: Input<'_>,
        mut route: impl FnMut(&mut Self, &[u32], &[u32], &[Range<usize>]) -> Result<(), JoinError>,
    ) -> Result<(), JoinError> {
        let frame = self.spill.frame_tuples;
        let width = self.pool.map_or(1, WorkerPool::workers);
        match input {
            Input::Mem(rel) => {
                for chunk in morsel_ranges(rel.len(), frame.saturating_mul(width)) {
                    let (keys, rids) = (&rel.keys()[chunk.clone()], &rel.rids()[chunk]);
                    let frames = morsel_ranges(keys.len(), frame);
                    route(self, keys, rids, &frames)?;
                }
            }
            Input::Run(run) => {
                self.report.bytes_restored += run.bytes();
                let mut reader = run.reader().map_err(JoinError::from)?;
                let mut chunk = Relation::new();
                let mut frames = Vec::with_capacity(width);
                while let Some(read) = reader
                    .next_frame_into(&mut chunk)
                    .map_err(JoinError::from)?
                {
                    frames.push(chunk.len() - read..chunk.len());
                    if frames.len() == width {
                        route(self, chunk.keys(), chunk.rids(), &frames)?;
                        chunk.clear();
                        frames.clear();
                    }
                }
                if !frames.is_empty() {
                    route(self, chunk.keys(), chunk.rids(), &frames)?;
                }
            }
        }
        Ok(())
    }

    /// Streams one input side into the partition slots, folding the build
    /// side's key ranges into `ranges` (the probe side passes none).
    fn route_input(
        &mut self,
        input: Input<'_>,
        slots: &mut [Slot],
        ranges: &mut [KeyRange],
        depth: u32,
        side: Side,
    ) -> Result<(), JoinError> {
        self.for_each_chunk(input, |pass, keys, rids, frames| {
            pass.route_chunk(keys, rids, frames, slots, ranges, depth, side)
        })
    }

    /// Routes one chunk: scatters each of its `frames` by partition, one
    /// pool task per frame, which also takes each build partition's key
    /// range; then routes the frames in input order.
    #[allow(clippy::too_many_arguments)]
    fn route_chunk(
        &mut self,
        keys: &[u32],
        rids: &[u32],
        frames: &[Range<usize>],
        slots: &mut [Slot],
        ranges: &mut [KeyRange],
        depth: u32,
        side: Side,
    ) -> Result<(), JoinError> {
        let (fanout, partitions, scratch) = (self.fanout, slots.len(), self.scratch);
        let scattered = run_tasks(self.pool, frames.len(), |task| {
            let range = frames[task].clone();
            let bucket_of = |key| spill_partition(key, depth, fanout);
            let buckets = scatter_range(keys, Some(rids), range, partitions, bucket_of, scratch);
            let ranges: Vec<KeyRange> = match side {
                Side::Build => buckets.iter().map(KeyRange::of).collect(),
                Side::Probe => Vec::new(),
            };
            (buckets, ranges)
        });
        let mut buffers = Vec::with_capacity(scattered.len());
        for (buckets, frame_ranges) in scattered {
            for (range, frame) in ranges.iter_mut().zip(frame_ranges) {
                range.add(frame);
            }
            self.route_frame(&buckets, slots, side)?;
            buffers.push(buckets);
        }
        self.scratch.keep_buffers(buffers);
        Ok(())
    }

    /// Routes one scattered frame: books its resident share against the
    /// grant (evicting victims on denial), appends, honours reclaim
    /// pressure.
    fn route_frame(
        &mut self,
        buckets: &[Scattered],
        slots: &mut [Slot],
        side: Side,
    ) -> Result<(), JoinError> {
        // Book the bytes landing in resident partitions before appending;
        // a denial evicts the largest resident partition and retries (the
        // eviction both frees budget and turns some of this frame's bytes
        // into staged-to-disk bytes).
        loop {
            let resident_bytes: usize = slots
                .iter()
                .zip(buckets)
                .filter(|(slot, _)| slot.is_resident())
                .map(|(_, bucket)| bucket.keys.len() * TUPLE_BYTES)
                .sum();
            if self.grant.try_grow(resident_bytes).is_ok() {
                break;
            }
            self.report.grant_denials += 1;
            if self.evict_victim(slots)?.is_none() {
                // Everything is already on disk; the frame is pure staging.
                break;
            }
        }

        self.stage(buckets, slots, side)?;

        // Fair-share reclaim: another session is starved and we hold more
        // than our share — evict until the broker is satisfied (or nothing
        // resident remains).
        loop {
            let want = self.grant.reclaim_request();
            if want == 0 {
                break;
            }
            match self.evict_victim(slots)? {
                Some(freed) => self.report.reclaimed_bytes += freed as u64,
                None => break,
            }
        }
        Ok(())
    }

    /// Appends one frame's buckets to their partitions — resident relation
    /// or staging buffer — and flushes staging buffers that reached a
    /// frame.
    fn stage(
        &mut self,
        buckets: &[Scattered],
        slots: &mut [Slot],
        side: Side,
    ) -> Result<(), JoinError> {
        let frame = self.spill.frame_tuples;
        for (slot, bucket) in slots.iter_mut().zip(buckets) {
            if bucket.keys.is_empty() {
                continue;
            }
            slot.destination(side)
                .extend_columns(bucket.rids.iter().copied(), bucket.keys.iter().copied());
            if let Slot::Spilled {
                build_run,
                probe_run,
                build_staged,
                probe_staged,
            } = slot
            {
                let (run, staged) = match side {
                    Side::Build => (build_run, build_staged),
                    Side::Probe => (probe_run, probe_staged),
                };
                if staged.len() >= frame {
                    self.report.bytes_spilled += push_frames(run, staged, frame)?;
                    staged.clear();
                }
            }
        }
        Ok(())
    }

    /// Evicts the largest resident partition to run files; returns the
    /// bytes it freed, or `None` when nothing is resident.
    fn evict_victim(&mut self, slots: &mut [Slot]) -> Result<Option<usize>, JoinError> {
        let Some(victim) = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_resident())
            .max_by_key(|&(i, s)| (s.resident_bytes(), usize::MAX - i))
            .map(|(i, _)| i)
        else {
            return Ok(None);
        };
        let Slot::Resident { build, probe } = std::mem::replace(&mut slots[victim], Slot::empty())
        else {
            unreachable!("victim was checked resident");
        };
        let freed = build.bytes() + probe.bytes();
        let mut build_run = self
            .manager
            .create_run(&format!("p{victim}-build"))
            .map_err(JoinError::from)?;
        let mut probe_run = self
            .manager
            .create_run(&format!("p{victim}-probe"))
            .map_err(JoinError::from)?;
        self.push_spilled(&mut build_run, &build)?;
        self.push_spilled(&mut probe_run, &probe)?;
        self.scratch.keep_relation(build);
        drop(probe);
        self.grant.shrink(freed);
        self.report.partitions_spilled += 1;
        slots[victim] = Slot::Spilled {
            build_run,
            probe_run,
            build_staged: Relation::new(),
            probe_staged: Relation::new(),
        };
        Ok(Some(freed))
    }

    /// Writes a relation into a run in frame-sized pieces (bounded reader
    /// memory later) and accounts the spilled bytes.
    fn push_spilled(&mut self, run: &mut PendingRun, rel: &Relation) -> Result<(), JoinError> {
        self.report.bytes_spilled += push_frames(run, rel, self.spill.frame_tuples)?;
        Ok(())
    }

    /// Joins an in-memory pair: in core when it fits the arena, recursing
    /// otherwise — or block-falling-back past the depth cap, or at once when
    /// the pair is `stuck` (no partitioning can shrink it).
    fn join_in_memory(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        depth: u32,
        stuck: bool,
    ) -> Result<JoinOutcome, JoinError> {
        if arena_bytes_for(build.len(), probe.len()) <= ctx.allocator.capacity() {
            return self.block_pair_join(ctx, build, probe);
        }
        if stuck || depth >= self.spill.max_recursion_depth {
            self.report.fallback_joins += 1;
            return self.fallback_blocks(ctx, build, probe);
        }
        self.hybrid_pass(ctx, Input::Mem(build), Input::Mem(probe), depth + 1)
    }

    /// Joins a spilled pair: restored in core when budget and arena allow,
    /// recursively re-partitioned otherwise, block nested-loop past the
    /// depth cap or when the pair is `stuck` (no partitioning can shrink
    /// it).
    fn join_spilled(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build_run: SpillRun,
        probe_run: SpillRun,
        depth: u32,
        stuck: bool,
    ) -> Result<JoinOutcome, JoinError> {
        if build_run.tuples() == 0 && probe_run.tuples() == 0 {
            return Ok(JoinOutcome::default());
        }
        let build_tuples = build_run.tuples() as usize;
        let probe_tuples = probe_run.tuples() as usize;
        let payload = (build_tuples + probe_tuples) * TUPLE_BYTES;
        let fits_arena = arena_bytes_for(build_tuples, probe_tuples) <= ctx.allocator.capacity();
        if fits_arena {
            if self.grant.try_grow(payload).is_ok() {
                // Restore and join in core.
                self.report.bytes_restored += build_run.bytes() + probe_run.bytes();
                let result = match (build_run.read_all(), probe_run.read_all()) {
                    (Ok(build), Ok(probe)) => self.block_pair_join(ctx, &build, &probe),
                    (Err(e), _) | (_, Err(e)) => Err(JoinError::from(e)),
                };
                self.grant.shrink(payload);
                return result;
            }
            self.report.grant_denials += 1;
        }
        if stuck || depth >= self.spill.max_recursion_depth {
            self.report.fallback_joins += 1;
            return self.fallback_runs(ctx, &build_run, &probe_run);
        }
        self.hybrid_pass(ctx, Input::Run(build_run), Input::Run(probe_run), depth + 1)
    }

    /// One in-core pair join with exhaustion-adaptive splitting: the
    /// static arena heuristic assumes ~one match per probe tuple, so a
    /// heavily duplicated key can exhaust the arena's *result* space even
    /// when the inputs fit.  On [`JoinError::ArenaExhausted`] the larger
    /// side is halved and both halves retried — blocks partition the pair,
    /// so every result pair is still produced exactly once, and a 1 x 1
    /// block (at most one match) terminates the recursion.
    fn block_pair_join(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        ctx.allocator.reset();
        let counters_before = ctx.counters.clone();
        match self.joins.pair(ctx, build, probe) {
            Err(JoinError::ArenaExhausted { .. }) if build.len() > 1 || probe.len() > 1 => {
                // Discard the failed attempt's counter deltas — the halves
                // re-produce its work — then retry split.
                ctx.counters = counters_before;
                let mut outcome = JoinOutcome::default();
                if build.len() >= probe.len() {
                    let mid = build.len() / 2;
                    for half in [build.slice(0..mid), build.slice(mid..build.len())] {
                        merge_outcome(&mut outcome, self.block_pair_join(ctx, &half, probe)?);
                    }
                } else {
                    let mid = probe.len() / 2;
                    for half in [probe.slice(0..mid), probe.slice(mid..probe.len())] {
                        merge_outcome(&mut outcome, self.block_pair_join(ctx, build, &half)?);
                    }
                }
                Ok(outcome)
            }
            other => other,
        }
    }

    /// Largest build/probe block sizes whose pair join fits the arena.
    fn fallback_block_sizes(
        &self,
        ctx: &ExecContext<'_>,
        build_tuples: usize,
        probe_tuples: usize,
    ) -> Result<(usize, usize), JoinError> {
        let capacity = ctx.allocator.capacity();
        let mut bb = FALLBACK_BLOCK_TUPLES.min(build_tuples).max(1);
        let mut pb = FALLBACK_BLOCK_TUPLES.min(probe_tuples).max(1);
        while arena_bytes_for(bb, pb) > capacity {
            if bb == 1 && pb == 1 {
                return Err(ctx.arena_error("spill fallback", arena_bytes_for(1, 1)));
            }
            if bb >= pb {
                bb = (bb / 2).max(1);
            } else {
                pb = (pb / 2).max(1);
            }
        }
        Ok((bb, pb))
    }

    /// Block nested-loop join over two in-memory relations whose pair does
    /// not fit the arena: every build block joins every probe block; blocks
    /// partition both inputs, so each result pair is produced exactly once.
    fn fallback_blocks(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
    ) -> Result<JoinOutcome, JoinError> {
        let (bb, pb) = self.fallback_block_sizes(ctx, build.len(), probe.len())?;
        let mut outcome = JoinOutcome::default();
        let mut b_start = 0;
        while b_start < build.len() {
            let b_end = (b_start + bb).min(build.len());
            let b_block = build.slice(b_start..b_end);
            let mut p_start = 0;
            while p_start < probe.len() {
                let p_end = (p_start + pb).min(probe.len());
                let p_block = probe.slice(p_start..p_end);
                merge_outcome(&mut outcome, self.block_pair_join(ctx, &b_block, &p_block)?);
                p_start = p_end;
            }
            b_start = b_end;
        }
        Ok(outcome)
    }

    /// Block nested-loop join streamed from run files: build blocks are
    /// accumulated frame-wise (bounded by the fallback block size), and the
    /// probe run is re-streamed once per build block.
    fn fallback_runs(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build_run: &SpillRun,
        probe_run: &SpillRun,
    ) -> Result<JoinOutcome, JoinError> {
        let (bb, pb) = self.fallback_block_sizes(
            ctx,
            build_run.tuples() as usize,
            probe_run.tuples() as usize,
        )?;
        let mut outcome = JoinOutcome::default();
        let mut build_reader = build_run.reader().map_err(JoinError::from)?;
        self.report.bytes_restored += build_run.bytes();
        let mut pending: Option<Relation> = None;
        loop {
            // Fill one build block from the frame stream.
            let mut block = Relation::new();
            loop {
                let frame = match pending.take() {
                    Some(f) => Some(f),
                    None => build_reader.next_frame().map_err(JoinError::from)?,
                };
                let Some(frame) = frame else { break };
                if !block.is_empty() && block.len() + frame.len() > bb {
                    pending = Some(frame);
                    break;
                }
                block.extend_from(&frame);
                if block.len() >= bb {
                    break;
                }
            }
            if block.is_empty() {
                break;
            }
            // Stream the probe run against this block.
            self.report.bytes_restored += probe_run.bytes();
            let mut probe_reader = probe_run.reader().map_err(JoinError::from)?;
            let mut probe_block = Relation::new();
            while probe_reader
                .next_frame_into(&mut probe_block)
                .map_err(JoinError::from)?
                .is_some()
            {
                if probe_block.len() >= pb {
                    merge_outcome(
                        &mut outcome,
                        self.block_pair_join(ctx, &block, &probe_block)?,
                    );
                    probe_block = Relation::new();
                }
            }
            if !probe_block.is_empty() {
                merge_outcome(
                    &mut outcome,
                    self.block_pair_join(ctx, &block, &probe_block)?,
                );
            }
        }
        Ok(outcome)
    }
}

/// Writes `rel` into `run` in `frame_tuples`-sized frames (every write
/// path shares this, so no frame ever exceeds the configured bound);
/// returns the file bytes appended.
fn push_frames(
    run: &mut PendingRun,
    rel: &Relation,
    frame_tuples: usize,
) -> Result<u64, JoinError> {
    let before = run.bytes();
    let frame = frame_tuples.max(1);
    let mut start = 0;
    while start < rel.len() {
        let end = (start + frame).min(rel.len());
        run.push_columns(&rel.keys()[start..end], &rel.rids()[start..end])
            .map_err(JoinError::from)?;
        start = end;
    }
    Ok(run.bytes() - before)
}

/// Merges a pair join's outcome into the pass outcome: match counts,
/// collected pairs and the time breakdown (per-step phase records are
/// dropped — a spilling join can run thousands of pair joins).
fn merge_outcome(into: &mut JoinOutcome, pair: JoinOutcome) {
    into.matches += pair.matches;
    if let Some(pairs) = pair.pairs {
        extend_pairs(&mut into.pairs, pairs);
    }
    into.breakdown.merge(&pair.breakdown);
}

/// Appends `pairs` to `into`, taking the `Vec` as it is while `into` holds
/// none yet.
fn extend_pairs(into: &mut Option<Vec<(u32, u32)>>, pairs: Vec<(u32, u32)>) {
    match into {
        Some(all) if !all.is_empty() => all.extend(pairs),
        all => *all = Some(pairs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_assigned_as_with_64_bit_arithmetic() {
        let wide = |key: u32, depth: u32, partitions: usize| {
            let salt = 0x9E37_79B9u32.wrapping_mul(depth.wrapping_add(1));
            (hash_key(key ^ salt) >> 7) as usize % partitions
        };
        let fanouts = [2, 3, 16, 17, 1000, 1 << 25, u32::MAX as usize];
        for key in (0..2000u32).chain([u32::MAX - 1, u32::MAX]) {
            for depth in 0..5 {
                for partitions in fanouts {
                    let narrow = spill_partition(key, depth, partitions as u32);
                    assert_eq!(
                        narrow,
                        wide(key, depth, partitions),
                        "{key} {depth} {partitions}"
                    );
                }
            }
        }
    }
}
