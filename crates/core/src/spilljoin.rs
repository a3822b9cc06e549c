//! The dynamic hybrid hash join: graceful degradation for joins that do
//! not fit memory.
//!
//! The in-core executor treats arena exhaustion (and oversized inputs) as
//! hard rejections.  This module is the engine's escape hatch: a hybrid
//! hash join whose build partitions *start* memory-resident and are evicted
//! to disk only under actual pressure, in the spirit of the dynamic hybrid
//! hash joins surveyed by Jahangiri, Carey and Freytag:
//!
//! 1. **Partition.**  Both inputs stream through a depth-salted hash into
//!    [`SpillConfig::partitions`] partitions, one frame
//!    ([`SpillConfig::frame_tuples`]) per pool worker at a time — a run
//!    file being re-partitioned is read that many frames at a time.  Each
//!    such chunk is one job on the engine's worker pool: every worker
//!    scatters one frame of it with the native kernel's scatter loop.  The
//!    scattered frames are then taken one by one in input order, so a
//!    partition's tuples keep the order of its input, and which partitions
//!    spill does not depend on the pool's width.  Resident partitions
//!    accumulate in memory, byte-accounted against the session's
//!    [`MemoryGrant`] with one grow per frame; a denied grow (or the
//!    broker's fair-share reclaim signal, polled every frame) evicts the
//!    largest resident partition to a checksummed run file mid-build.
//!    Probe tuples whose partition spilled are staged to that partition's
//!    probe run through a bounded buffer.
//! 2. **Join resident pairs.**  Every partition still in memory is joined
//!    by the caller-supplied pair join — the same backend entry point the
//!    engine uses for in-core requests, so resident pairs re-enter the
//!    morsel pipeline (and the adaptive tuner keeps observing them).
//!    Resident pairs are processed first and release their grant as they
//!    finish, freeing budget for the restores that follow.
//! 3. **Recurse on spilled pairs.**  A spilled pair that fits the freed
//!    budget (and the arena) is restored and joined in core.  One that
//!    does not is *re-partitioned* with the next depth's hash — streamed
//!    frame by frame, never holding the oversized run in memory — up to
//!    [`SpillConfig::max_recursion_depth`]; past the cap (single-key skew
//!    cannot be split by any hash) a grant-bounded block nested-loop join
//!    finishes the pair correctly.
//!
//! The executor never *waits* for memory — denial always has a productive
//! fallback (evict, stage, recurse, block) — so concurrent sessions cannot
//! deadlock on the budget, and a zero-headroom broker degrades every
//! session to streaming instead of failing any of them.  Bounded working
//! state (the scattered frames of the chunk being routed — about
//! `frame_tuples × workers × 8` bytes — staging frames, fallback blocks)
//! is deliberately kept off the broker's books; only resident partition
//! payload is granted.

use crate::context::{arena_bytes_for, ExecContext};
use crate::error::JoinError;
use crate::hash::{hash_key, FastMod};
use crate::native::{scatter, Scattered, Scratch};
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

/// The per-pair join the spill executor re-enters for every partition pair
/// that fits in memory: in the engine this is the backend's `execute` on a
/// stripped-down inner request, i.e. the full morsel pipeline.
pub(crate) type PairJoin<'a> =
    dyn FnMut(&mut ExecContext<'_>, &Relation, &Relation) -> Result<JoinOutcome, JoinError> + 'a;

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
pub(crate) fn execute_spill_join(
    ctx: &mut ExecContext<'_>,
    build: &Relation,
    probe: &Relation,
    spill: &SpillConfig,
    grant: &MemoryGrant,
    manager: &SpillManager,
    pair_join: &mut PairJoin<'_>,
) -> Result<(JoinOutcome, SpillReport), JoinError> {
    let started = Instant::now();
    let mut pass = SpillPass {
        spill,
        grant,
        manager,
        report: SpillReport::default(),
        fanout: FastMod::new(spill.partitions as u32),
        pool: ctx.worker_pool(),
        scratch: Scratch::default(),
    };
    let mut outcome = pass.hybrid_pass(ctx, Input::Mem(build), Input::Mem(probe), 0, pair_join)?;
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
    /// Still memory-resident; payload bytes are granted.
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

/// A pass input: borrowed memory at the top level, an owned run file when
/// recursing on a spilled pair.
enum Input<'a> {
    Mem(&'a Relation),
    Run(SpillRun),
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
    /// The chunk buffers, reused chunk after chunk.
    scratch: Scratch,
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
        pair_join: &mut PairJoin<'_>,
    ) -> Result<JoinOutcome, JoinError> {
        self.report.recursion_depth = self.report.recursion_depth.max(depth);
        let fanout = self.spill.partitions;
        let mut slots: Vec<Slot> = (0..fanout)
            .map(|_| Slot::Resident {
                build: Relation::new(),
                probe: Relation::new(),
            })
            .collect();

        self.route_input(build, &mut slots, depth, Side::Build)?;
        self.route_input(probe, &mut slots, depth, Side::Probe)?;

        self.report.partitions_total += slots
            .iter()
            .filter(|s| match s {
                Slot::Resident { build, probe } => !build.is_empty() || !probe.is_empty(),
                Slot::Spilled { .. } => true,
            })
            .count() as u64;

        // Resident pairs first: each one releases its grant as it
        // completes, freeing budget for the spilled pairs' restores.
        let mut outcome = JoinOutcome::default();
        let mut spilled: Vec<Slot> = Vec::new();
        for slot in slots {
            match slot {
                Slot::Resident { build, probe } => {
                    if build.is_empty() && probe.is_empty() {
                        continue;
                    }
                    let bytes = build.bytes() + probe.bytes();
                    // The pair's grant is held through join_in_memory on
                    // purpose: when the pair recurses (too big for the
                    // arena), the parent relations and the child partitions
                    // genuinely co-reside, so the child pass must compete
                    // for budget against the parent's live bytes — spilling
                    // children instead of silently running at 2x budget.
                    let result = self.join_in_memory(ctx, &build, &probe, depth, pair_join);
                    // Release the pair's grant even on failure: the
                    // relations are dropped either way.
                    self.grant.shrink(bytes);
                    merge_outcome(&mut outcome, result?);
                }
                spilled_slot => spilled.push(spilled_slot),
            }
        }
        for slot in spilled {
            let Slot::Spilled {
                mut build_run,
                mut probe_run,
                build_staged,
                probe_staged,
            } = slot
            else {
                unreachable!("resident slots were consumed above");
            };
            self.push_spilled(&mut build_run, &build_staged)?;
            self.push_spilled(&mut probe_run, &probe_staged)?;
            drop((build_staged, probe_staged));
            let build_run = build_run.seal().map_err(JoinError::from)?;
            let probe_run = probe_run.seal().map_err(JoinError::from)?;
            let pair = self.join_spilled(ctx, build_run, probe_run, depth, pair_join)?;
            merge_outcome(&mut outcome, pair);
        }
        Ok(outcome)
    }

    /// Streams one input side into the partition slots, one frame per pool
    /// worker at a time.
    fn route_input(
        &mut self,
        input: Input<'_>,
        slots: &mut [Slot],
        depth: u32,
        side: Side,
    ) -> Result<(), JoinError> {
        let frame = self.spill.frame_tuples;
        let width = self.pool.map_or(1, WorkerPool::workers);
        match input {
            Input::Mem(rel) => {
                for chunk in morsel_ranges(rel.len(), frame.saturating_mul(width)) {
                    let (keys, rids) = (&rel.keys()[chunk.clone()], &rel.rids()[chunk]);
                    let frames = morsel_ranges(keys.len(), frame);
                    self.route_chunk(keys, rids, &frames, slots, depth, side)?;
                }
            }
            Input::Run(run) => {
                // Re-partitioning a spilled run reads it back exactly once,
                // each frame routed as it was written.
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
                        self.route_chunk(chunk.keys(), chunk.rids(), &frames, slots, depth, side)?;
                        chunk.clear();
                        frames.clear();
                    }
                }
                if !frames.is_empty() {
                    self.route_chunk(chunk.keys(), chunk.rids(), &frames, slots, depth, side)?;
                }
            }
        }
        Ok(())
    }

    /// Routes one chunk: scatters each of its `frames` by partition, one
    /// pool task per frame, then routes the frames in input order.
    fn route_chunk(
        &mut self,
        keys: &[u32],
        rids: &[u32],
        frames: &[Range<usize>],
        slots: &mut [Slot],
        depth: u32,
        side: Side,
    ) -> Result<(), JoinError> {
        let fanout = self.fanout;
        let scattered = scatter(
            self.pool,
            keys,
            Some(rids),
            frames,
            slots.len(),
            |key| spill_partition(key, depth, fanout),
            &self.scratch,
        );
        for (buckets, _) in &scattered {
            self.route_frame(buckets, slots, side)?;
        }
        self.scratch.keep_scattered(scattered);
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

        for (slot, bucket) in slots.iter_mut().zip(buckets) {
            slot.destination(side)
                .extend_columns(bucket.rids.iter().copied(), bucket.keys.iter().copied());
        }

        // Flush staging buffers that reached a frame.
        let frame = self.spill.frame_tuples;
        for slot in slots.iter_mut() {
            if let Slot::Spilled {
                build_run,
                probe_run,
                build_staged,
                probe_staged,
            } = slot
            {
                if build_staged.len() >= frame {
                    Self::flush_staged(&mut self.report, build_run, build_staged, frame)?;
                }
                if probe_staged.len() >= frame {
                    Self::flush_staged(&mut self.report, probe_run, probe_staged, frame)?;
                }
            }
        }

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
        let Slot::Resident { build, probe } = std::mem::replace(
            &mut slots[victim],
            Slot::Resident {
                build: Relation::new(),
                probe: Relation::new(),
            },
        ) else {
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
        drop((build, probe));
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

    /// Flushes one staging buffer, frame-sliced: a buffer can exceed
    /// `frame_tuples` by one incoming frame, and writing it as one frame
    /// would let frame sizes compound with recursion depth.
    fn flush_staged(
        report: &mut SpillReport,
        run: &mut PendingRun,
        staged: &mut Relation,
        frame_tuples: usize,
    ) -> Result<(), JoinError> {
        report.bytes_spilled += push_frames(run, staged, frame_tuples)?;
        staged.clear();
        Ok(())
    }

    /// Joins an in-memory pair: in core when it fits the arena, recursing
    /// (or block-falling-back past the depth cap) otherwise.
    fn join_in_memory(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        depth: u32,
        pair_join: &mut PairJoin<'_>,
    ) -> Result<JoinOutcome, JoinError> {
        if arena_bytes_for(build.len(), probe.len()) <= ctx.allocator.capacity() {
            return self.block_pair_join(ctx, build, probe, pair_join);
        }
        if depth >= self.spill.max_recursion_depth {
            self.report.fallback_joins += 1;
            return self.fallback_blocks(ctx, build, probe, pair_join);
        }
        self.hybrid_pass(
            ctx,
            Input::Mem(build),
            Input::Mem(probe),
            depth + 1,
            pair_join,
        )
    }

    /// Joins a spilled pair: restored in core when budget and arena allow,
    /// recursively re-partitioned otherwise, block nested-loop past the
    /// depth cap.
    fn join_spilled(
        &mut self,
        ctx: &mut ExecContext<'_>,
        build_run: SpillRun,
        probe_run: SpillRun,
        depth: u32,
        pair_join: &mut PairJoin<'_>,
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
                    (Ok(build), Ok(probe)) => self.block_pair_join(ctx, &build, &probe, pair_join),
                    (Err(e), _) | (_, Err(e)) => Err(JoinError::from(e)),
                };
                self.grant.shrink(payload);
                return result;
            }
            self.report.grant_denials += 1;
        }
        if depth >= self.spill.max_recursion_depth {
            self.report.fallback_joins += 1;
            return self.fallback_runs(ctx, &build_run, &probe_run, pair_join);
        }
        self.hybrid_pass(
            ctx,
            Input::Run(build_run),
            Input::Run(probe_run),
            depth + 1,
            pair_join,
        )
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
        pair_join: &mut PairJoin<'_>,
    ) -> Result<JoinOutcome, JoinError> {
        ctx.allocator.reset();
        let counters_before = ctx.counters.clone();
        match pair_join(ctx, build, probe) {
            Err(JoinError::ArenaExhausted { .. }) if build.len() > 1 || probe.len() > 1 => {
                // Discard the failed attempt's counter deltas — the halves
                // re-produce its work — then retry split.
                ctx.counters = counters_before;
                let mut outcome = JoinOutcome::default();
                if build.len() >= probe.len() {
                    let mid = build.len() / 2;
                    for half in [build.slice(0..mid), build.slice(mid..build.len())] {
                        merge_outcome(
                            &mut outcome,
                            self.block_pair_join(ctx, &half, probe, pair_join)?,
                        );
                    }
                } else {
                    let mid = probe.len() / 2;
                    for half in [probe.slice(0..mid), probe.slice(mid..probe.len())] {
                        merge_outcome(
                            &mut outcome,
                            self.block_pair_join(ctx, build, &half, pair_join)?,
                        );
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
        pair_join: &mut PairJoin<'_>,
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
                merge_outcome(
                    &mut outcome,
                    self.block_pair_join(ctx, &b_block, &p_block, pair_join)?,
                );
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
        pair_join: &mut PairJoin<'_>,
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
                        self.block_pair_join(ctx, &block, &probe_block, pair_join)?,
                    );
                    probe_block = Relation::new();
                }
            }
            if !probe_block.is_empty() {
                merge_outcome(
                    &mut outcome,
                    self.block_pair_join(ctx, &block, &probe_block, pair_join)?,
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
    if let Some(p) = pair.pairs {
        into.pairs.get_or_insert_with(Vec::new).extend(p);
    }
    into.breakdown.merge(&pair.breakdown);
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
