//! The native (real-thread) backend and its join kernel: one flat hash
//! table, one scatter loop, one build loop, one probe loop.
//!
//! The paper's hash table (§3.1) is a flat bucket array over key lists and
//! rid lists, hashed with MurmurHash2, because pointer-light tables are what
//! make fine-grained co-processing pay.  `NativeTable` is that layout for
//! host threads.  A build run on the pool is split into one shard per
//! worker (a hash's shard is `hash % workers`); a build run on the calling
//! thread has one shard.  Each shard is
//!
//! * a power-of-two, open-addressed (linear-probe) **directory** of 64-byte
//!   buckets, each one cache line holding 8 keys and their 8 run lengths
//!   (the runs' starts sit in a parallel array that only a collecting
//!   probe reads), indexed by the *high* bits of the shared [`hash_key`]
//!   (the low end of the hash picks the shard, so the two choices stay
//!   independent), and
//! * one contiguous `Vec<u32>` of build **rids**, laid out CSR-style: all
//!   duplicates of a key are the single run `rids[start..start + len]`, in
//!   build order.
//!
//! The paper's build has four steps — b1 hash, b2 bucket header, b3 key
//! list, b4 rid list — and only the probe's output step reads the rid
//! lists.  A join that only counts its matches therefore builds a
//! **count-only** table: its scatter moves keys alone, and each shard's
//! build stops after the counting pass that fills the directory (b1–b3 and
//! the run lengths), with no run starts and no rids.  The count-only probe
//! reads only run lengths, so it needs nothing more.  A join that collects
//! pairs, and every table bound for the cache, builds the runs too.
//!
//! A lookup compares the key against a whole bucket at once (SSE2 on
//! x86-64) and moves to the next bucket only past a full one: at the
//! directory's load factor nearly every lookup reads one line and takes
//! one compare, with no data-dependent exit from a chain walk to
//! mispredict — in a directory of one key per slot, that exit rather than
//! memory latency bounds the probe.
//!
//! `scatter`, `build` and `probe` are the only native scatter, build and
//! probe loops in the crate: [`NativeCpu`]'s `execute`, `build_cached` and
//! `probe_cached` are thin callers of the last two, so an uncached join, a
//! cached probe and every partition pair of a spilling join run the same
//! code and emit the same pairs in the same order (probe order, then build
//! order within a key).  `scatter` is build's first stage and also routes
//! the spill path's chunks into partitions (`crate::spilljoin`).  The
//! large buffers a build needs are reused from join to join (`Scratch`), so
//! a join's speed does not depend on what the allocator did with the last
//! one's memory.
//!
//! Each of the three takes the pool it runs on as an `Option`: `None` runs
//! the same loop on the calling thread.  [`NativeCpu`] places a phase there
//! when its input fits one morsel — a pool job would cost a wake-up and
//! move the input to another core's cache for no parallelism — and on the
//! engine's pool otherwise.  A build on the calling thread also skips the
//! scatter, which exists only to feed parallel folds.

use crate::cached::{CacheParams, CachedPayload, CachedTable};
use crate::context::ExecContext;
use crate::engine::{ExecBackend, JoinRequest};
use crate::error::JoinError;
use crate::hash::{hash_key, FastMod};
use crate::pipeline::{morsel_ranges, WorkerPool};
use crate::result::JoinOutcome;
use apu_sim::{Phase, SimTime, SystemSpec};
use datagen::Relation;
use hj_adaptive::SeriesKind;
use hj_analysis::sync::{Condvar, Mutex};
use std::ops::Range;
use std::time::Instant;

/// Smallest chunk (tuples) the native backend schedules as one task, even
/// when the request asks for finer morsels.
pub const NATIVE_MIN_CHUNK_TUPLES: usize = 1024;

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

/// Directory slots per [`Bucket`]: as many `{key, len}` pairs as fill one
/// 64-byte cache line.
const LANES: usize = 8;

/// Eight directory slots in one cache line: distinct build keys and the
/// lengths of their runs in [`Shard::rids`] (the runs' starts are in
/// [`Shard::starts`], which only a collecting probe reads).
///
/// Lanes fill in order: `lens[lane] == 0` marks an empty lane (every stored
/// key has at least one rid), every empty lane comes after every occupied
/// one, and the bucket is full exactly when its last lane is occupied.  An
/// empty lane's key is 0, so a lookup of key 0 matches the first empty lane
/// when 0 is not stored: that lane's length of 0 reads as "absent", and it
/// is the lane an insert of 0 takes.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    keys: [u32; LANES],
    lens: [u32; LANES],
}

/// One shard of a [`NativeTable`]: the keys whose hash maps to it.
#[derive(Debug, Default)]
struct Shard {
    /// Open-addressed directory of buckets; the length is a power of two and
    /// fewer than all of its slots are occupied, so some bucket is not full.
    buckets: Vec<Bucket>,
    /// Each bucket's run starts in `rids`, lane by lane.
    starts: Vec<[u32; LANES]>,
    /// `32 - log2(buckets.len())`: the home bucket of a hash is its top bits.
    shift: u32,
    /// Build rids, one contiguous run per distinct key.
    rids: Vec<u32>,
}

/// Largest tuple count one shard holds: keeps `start + len` inside `u32` and
/// the directory inside 2^32 slots, so a slot number fits the `u32` memo of
/// [`Shard::fold`].
const MAX_SHARD_TUPLES: usize = (u32::MAX / 2) as usize;

/// Keys hashed ahead of being resolved.  A loop that only hashes is one the
/// compiler vectorises; build and probe also prefetch each key's home
/// bucket before resolving the group — the directory is larger than the
/// cache, and a group's misses overlap instead of being taken one after
/// another.  The build prefetches in a pass of its own over the group's
/// hashes: there it took `join_uniform`'s traced build from 11.6 to 8.2
/// ns/tuple and `join_dup_heavy`'s from 8.1 to 7.6, where prefetching from
/// inside the hashing loop left `join_dup_heavy` level (2 vCPUs).
const GROUP: usize = 32;

/// Directory buckets for `keys` distinct keys: at least 10/7 slots per key,
/// rounded up to a power of two, so a probe chain always ends in a bucket
/// that is not full.
fn directory_buckets(keys: usize) -> usize {
    (keys * 10).div_ceil(7).next_power_of_two().div_ceil(LANES)
}

/// Bit `lane` is set exactly when `keys[lane] == key`: two 4-lane SSE2
/// compares.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
fn eq_mask(keys: &[u32; LANES], key: u32) -> u32 {
    use std::arch::x86_64::{
        _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps, _mm_set1_epi32,
    };
    // SAFETY: the two unaligned 16-byte loads read lanes 0..4 and 4..8 of
    // `keys`, which is 32 bytes long; SSE2 is part of the x86-64 baseline.
    unsafe {
        let needle = _mm_set1_epi32(key as i32);
        let low = _mm_loadu_si128(keys.as_ptr().cast());
        let high = _mm_loadu_si128(keys.as_ptr().add(4).cast());
        let low = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(low, needle)));
        let high = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(high, needle)));
        (low | high << 4) as u32
    }
}

/// `eq_mask` one lane at a time: what other targets and Miri run.
#[cfg(any(test, not(all(target_arch = "x86_64", not(miri)))))]
#[inline]
fn eq_mask_scalar(keys: &[u32; LANES], key: u32) -> u32 {
    let lanes = keys.iter().enumerate();
    lanes.fold(0, |mask, (lane, &k)| mask | u32::from(k == key) << lane)
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
use eq_mask_scalar as eq_mask;

impl Shard {
    /// Empties the shard into `buckets` empty buckets and — when `collect` —
    /// as many run starts and `tuples` rids to be filled in, reusing its
    /// buffers; one that had none gets exactly what it needs.  A count-only
    /// shard leaves `starts` and `rids` empty, their capacity kept for the
    /// next collecting build.
    fn reset(&mut self, buckets: usize, tuples: usize, collect: bool) {
        self.buckets.clear();
        self.buckets.reserve_exact(buckets);
        self.buckets.resize(buckets, Bucket::default());
        self.shift = 32 - buckets.trailing_zeros();
        self.starts.clear();
        self.rids.clear();
        if collect {
            self.starts.reserve_exact(buckets);
            self.starts.resize(buckets, [0; LANES]);
            self.rids.reserve_exact(tuples);
            self.rids.resize(tuples, 0);
        }
    }

    /// The bucket where `hash`'s chain starts.  (The shift is taken in 64
    /// bits: a one-bucket directory shifts all 32 bits out.)
    #[inline]
    fn home(&self, hash: u32) -> usize {
        (u64::from(hash) >> self.shift) as usize
    }

    /// Asks the CPU to start loading `hash`'s home bucket.
    #[inline]
    fn prefetch(&self, hash: u32) {
        crate::prefetch(&self.buckets, self.home(hash));
    }

    /// `Ok` with the slot (`bucket * LANES + lane`) holding `key`, or `Err`
    /// with the first empty lane of the bucket where its chain ends — which
    /// is where an absent key 0 is `Ok`, since that lane's key is 0.
    #[inline]
    fn slot_of(&self, key: u32, hash: u32) -> Result<usize, usize> {
        let last = self.buckets.len() - 1;
        let mut at = self.home(hash);
        loop {
            let bucket = &self.buckets[at];
            let found = eq_mask(&bucket.keys, key);
            if found != 0 {
                return Ok(at * LANES + found.trailing_zeros() as usize);
            }
            if bucket.lens[LANES - 1] == 0 {
                let empty = eq_mask(&bucket.lens, 0);
                return Err(at * LANES + empty.trailing_zeros() as usize);
            }
            at = (at + 1) & last;
        }
    }

    /// The length of the run in `slot` (0 for an empty lane).
    #[inline]
    fn len(&self, slot: usize) -> u32 {
        self.buckets[slot / LANES].lens[slot % LANES]
    }

    /// The `len` rids of the run in `slot`.
    #[inline]
    fn rids(&self, slot: usize, len: u32) -> &[u32] {
        let start = self.starts[slot / LANES][slot % LANES];
        &self.rids[start as usize..][..len as usize]
    }

    /// Builds the shard from every `(keys, rids)` column pair destined for
    /// it, given in build order: count each key's duplicates into the
    /// directory, then — when `collect` — prefix-sum the counts into run
    /// starts and fill the runs.  A count-only fold returns after counting:
    /// it reads no rids (its columns' rid slices may be empty) and the shard
    /// holds no runs.
    fn fold<'a>(
        columns: impl DoubleEndedIterator<Item = (&'a [u32], &'a [u32])> + Clone,
        scratch: &Scratch,
        collect: bool,
    ) -> Shard {
        let tuples: usize = columns.clone().map(|(keys, _)| keys.len()).sum();
        assert!(
            tuples <= MAX_SHARD_TUPLES,
            "a native table shard holds at most {MAX_SHARD_TUPLES} tuples, got {tuples}"
        );
        // `homes` is each tuple's slot, remembered so that filling needs no
        // second walk of the probe chains; a count-only fold fills nothing.
        let (mut shard, mut homes) = {
            let mut kept = scratch.kept.lock();
            let homes = if collect { kept.homes.pop() } else { None };
            (
                kept.shards.pop().unwrap_or_default(),
                homes.unwrap_or_default(),
            )
        };
        shard.reset(directory_buckets(tuples), tuples, collect);
        homes.clear();
        homes.reserve(if collect { tuples } else { 0 });
        let mut hashes = [0u32; GROUP];
        for group in columns.clone().flat_map(|(keys, _)| keys.chunks(GROUP)) {
            for (hash, &key) in hashes.iter_mut().zip(group) {
                *hash = hash_key(key);
            }
            for &hash in &hashes[..group.len()] {
                shard.prefetch(hash);
            }
            for (&key, &hash) in group.iter().zip(&hashes) {
                // A key is written only into a new lane: rewriting it on
                // every duplicate would make the next lookup's vector load
                // of that bucket wait for the store.
                let slot = match shard.slot_of(key, hash) {
                    Ok(slot) => slot,
                    Err(slot) => {
                        shard.buckets[slot / LANES].keys[slot % LANES] = key;
                        slot
                    }
                };
                shard.buckets[slot / LANES].lens[slot % LANES] += 1;
                if collect {
                    homes.push(slot as u32);
                }
            }
        }
        if !collect {
            return shard;
        }
        let mut end = 0u32;
        for (bucket, starts) in shard.buckets.iter().zip(&mut shard.starts) {
            for (len, start) in bucket.lens.iter().zip(starts) {
                end += len;
                *start = end;
            }
        }
        // Each start is its run's end; walking the tuples backwards moves it
        // down to the run's start while the rids land in build order.
        let rids = columns.rev().flat_map(|(_, rids)| rids.iter().rev());
        for (&rid, &slot) in rids.zip(homes.iter().rev()) {
            let slot = slot as usize;
            let start = &mut shard.starts[slot / LANES][slot % LANES];
            *start -= 1;
            shard.rids[*start as usize] = rid;
        }
        scratch.kept.lock().homes.push(homes);
        shard
    }

    /// The build rids matching `key`, in build order (empty when absent).
    #[cfg(test)]
    fn run(&self, key: u32, hash: u32) -> &[u32] {
        let (Ok(slot) | Err(slot)) = self.slot_of(key, hash);
        self.rids(slot, self.len(slot))
    }

    fn bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + self.starts.capacity() * std::mem::size_of::<[u32; LANES]>()
            + self.rids.capacity() * std::mem::size_of::<u32>()
    }
}

/// The native backend's built hash table: immutable, `Sync`, probed
/// concurrently by any number of sessions when it lives in the cache.
#[derive(Debug)]
pub(crate) struct NativeTable {
    /// At least one.
    shards: Vec<Shard>,
    /// `% shards.len()`: picks a hash's shard.
    shard_of: FastMod,
    /// Whether the shards hold their rid runs: false for a count-only
    /// table, which only a counting probe may read.
    runs: bool,
}

impl NativeTable {
    /// The table's heap footprint — exactly what the hash-table cache
    /// charges the memory broker for it.
    pub(crate) fn bytes(&self) -> usize {
        self.shards.iter().map(Shard::bytes).sum()
    }

    /// Gives back whatever capacity reused buffers had in excess: a cached
    /// table stays resident, and is charged for what it holds.
    fn shrink_to_fit(&mut self) {
        for shard in &mut self.shards {
            shard.buckets.shrink_to_fit();
            shard.starts.shrink_to_fit();
            shard.rids.shrink_to_fit();
        }
    }

    /// The shard holding the keys that hash to `hash`.  Addressing follows
    /// the *build-time* fan-out, not the probing pool's width (they only
    /// differ for a cached table probed by another engine).
    #[inline]
    fn shard(&self, hash: u32) -> &Shard {
        &self.shards[self.shard_of.rem(hash) as usize]
    }
}

// ---------------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------------

/// Tuples and wall-clock nanoseconds of one morsel task — the telemetry the
/// adaptive tuner ingests on this backend.
type TaskWall = (usize, f64);

/// The tuples of one scatter task destined for one bucket, in input order
/// (`rids` stays empty when the scatter moved keys only).
#[derive(Debug, Default)]
pub(crate) struct Scattered {
    pub(crate) keys: Vec<u32>,
    pub(crate) rids: Vec<u32>,
}

/// The large buffers of finished joins, kept for the next join on the same
/// backend.
///
/// A build allocates a handful of buffers of megabytes that live for
/// milliseconds: the scatter buffers, each shard's slot memo and — unless
/// the table goes to the cache — the table itself.  Handed back to the
/// system allocator they are, depending on its trim state at that moment,
/// either kept mapped or unmapped and faulted in again page by page: the
/// same 256 Ki-tuple join took 5 ms with no page fault or 12 ms with 1 600,
/// in bursts of seconds.  Kept here, every join after a backend's first
/// allocates none of them.
///
/// What is retained is bounded by the engine's configuration: one set of
/// buffers per concurrently executing join (the [`ExecGate`] admits as many
/// as the pool has workers), each as large as the largest build side seen
/// needed.  Per tuple of the largest input the engine accepts, a collecting
/// build needs at most 50 bytes: 8 of scatter buffers, 4 of slot memo, 4 of
/// rids and up to 34 of directory (12 bytes per slot — 8 in its bucket's
/// line, 4 of run start — and at most 20/7 slots per tuple).  A count-only
/// build needs at most 27: 4 of key-only scatter buffers and up to 23 of
/// bucket lines, with no slot memo, run starts or rids; the buffers of
/// earlier collecting builds stay kept at their size.  (A spilling join
/// keeps one of its own for the chunks it routes, dropped with the join.)
#[derive(Debug)]
pub(crate) struct Scratch {
    kept: Mutex<Kept>,
}

#[derive(Debug, Default)]
struct Kept {
    /// One entry per build morsel: its buffer for each shard.
    scattered: Vec<Vec<Scattered>>,
    /// Slot memos of [`Shard::fold`].
    homes: Vec<Vec<u32>>,
    /// Shards of tables that were dropped after their probe.
    shards: Vec<Shard>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            kept: Mutex::new("native.scratch", Kept::default()),
        }
    }
}

impl Scratch {
    /// Takes over the buffers of a table nobody will probe again.
    fn recycle(&self, table: NativeTable) {
        self.kept.lock().shards.extend(table.shards);
    }

    /// Takes back the buffer sets [`scatter`] returned, once read.
    pub(crate) fn keep_scattered(&self, scattered: Vec<(Vec<Scattered>, f64)>) {
        let emptied = scattered.into_iter().map(|(buffers, _)| buffers);
        self.kept.lock().scattered.extend(emptied);
    }
}

/// Runs `tasks` tasks — on `pool`, or one after another on the calling
/// thread without one — and returns their results in task order.
fn run_tasks<T, F>(pool: Option<&WorkerPool>, tasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match pool {
        Some(pool) => pool.run(tasks, |_, index| task(index)),
        None => (0..tasks).map(task).collect(),
    }
}

/// The crate's one scatter loop: one task per range of `ranges` (see
/// [`run_tasks`]), each moving its tuples of `keys` — and of `rids`, when
/// given — into `buckets` buffers by `bucket_of(key)` (which must be below
/// `buckets`).  With `rids` `None` it moves keys only and every
/// [`Scattered::rids`] is left empty: what a count-only build needs.  Spill
/// routing always passes the rids.
///
/// Returns every task's buffers (one per bucket, each in input order) and
/// wall-clock nanoseconds, in task order, so concatenating one bucket's
/// buffers over the tasks lists its tuples in input order.  The buffers come
/// from `scratch`; hand them back with [`Scratch::keep_scattered`].  Generic
/// over the bucket function, so each caller's loop is compiled with it
/// inlined.
pub(crate) fn scatter<F>(
    pool: Option<&WorkerPool>,
    keys: &[u32],
    rids: Option<&[u32]>,
    ranges: &[Range<usize>],
    buckets: usize,
    bucket_of: F,
    scratch: &Scratch,
) -> Vec<(Vec<Scattered>, f64)>
where
    F: Fn(u32) -> usize + Sync,
{
    let task = |task: usize| {
        let task_start = Instant::now();
        let range = ranges[task].clone();
        let mut buffers = scratch.kept.lock().scattered.pop().unwrap_or_default();
        buffers.resize_with(buckets, Scattered::default);
        for buffer in &mut buffers {
            buffer.keys.clear();
            buffer.rids.clear();
        }
        match rids {
            Some(rids) => {
                for (&key, &rid) in keys[range.clone()].iter().zip(&rids[range]) {
                    let buffer = &mut buffers[bucket_of(key)];
                    buffer.keys.push(key);
                    buffer.rids.push(rid);
                }
            }
            None => {
                for &key in &keys[range] {
                    buffers[bucket_of(key)].keys.push(key);
                }
            }
        }
        (buffers, task_start.elapsed().as_nanos() as f64)
    };
    run_tasks(pool, ranges.len(), task)
}

/// Builds the table of `relation` out of `scratch`'s buffers where it has
/// any, and returns it with the build tasks' telemetry.
///
/// On `pool`: one shard per worker, in two latch-free stages, so the
/// relation is scanned once — work-stealing workers [`scatter`] each build
/// morsel into per-shard buffers, then each shard owner folds the buffers
/// destined for it ([`Shard::fold`]).  Without a pool the calling thread
/// folds the relation as it stands into a single shard.
///
/// `collect` says whether the table will serve a collecting probe: without
/// it the scatter moves keys only and every shard is count-only (a
/// directory of run lengths, no runs), which only a counting [`probe`] may
/// read.
pub(crate) fn build(
    pool: Option<&WorkerPool>,
    relation: &Relation,
    morsel: usize,
    scratch: &Scratch,
    collect: bool,
) -> (NativeTable, Vec<TaskWall>) {
    let Some(pool) = pool else {
        let started = Instant::now();
        let whole = std::iter::once((relation.keys(), relation.rids()));
        let shards = vec![Shard::fold(whole, scratch, collect)];
        let wall = (relation.len(), started.elapsed().as_nanos() as f64);
        let shard_of = FastMod::new(1);
        let table = NativeTable {
            shards,
            shard_of,
            runs: collect,
        };
        return (table, vec![wall]);
    };
    let shard_count = pool.workers();
    let shard_of = FastMod::new(u32::try_from(shard_count).expect("fewer than 2^32 workers"));
    let morsels = morsel_ranges(relation.len(), morsel);
    let scattered = scatter(
        Some(pool),
        relation.keys(),
        collect.then(|| relation.rids()),
        &morsels,
        shard_count,
        |key| shard_of.rem(hash_key(key)) as usize,
        scratch,
    );
    let shards = pool.run(shard_count, |_, shard| {
        let columns = scattered.iter().map(|(buffers, _)| {
            let buffer = &buffers[shard];
            (&buffer.keys[..], &buffer.rids[..])
        });
        Shard::fold(columns, scratch, collect)
    });
    let walls = morsels
        .iter()
        .zip(&scattered)
        .map(|(range, (_, ns))| (range.len(), *ns))
        .collect();
    scratch.keep_scattered(scattered);
    let table = NativeTable {
        shards,
        shard_of,
        runs: collect,
    };
    (table, walls)
}

/// What [`probe`] found.
pub(crate) struct Probed {
    matches: u64,
    /// `(build rid, probe rid)` in probe order, then build order within a
    /// key; `Some` exactly when collecting.
    pairs: Option<Vec<(u32, u32)>>,
    walls: Vec<TaskWall>,
}

/// Probes `relation` against `table`, one task per morsel (see
/// [`run_tasks`]); the per-morsel results are folded in morsel order, so
/// the outcome does not depend on placement, worker count or steal pattern.
///
/// # Panics
///
/// When collecting from a count-only table: the caller built the table for
/// a different request than it probes with.
pub(crate) fn probe(
    pool: Option<&WorkerPool>,
    table: &NativeTable,
    relation: &Relation,
    morsel: usize,
    collect: bool,
) -> Probed {
    assert!(
        table.runs || !collect,
        "a collecting probe needs a table built with its rid runs, not a count-only one"
    );
    let morsels = morsel_ranges(relation.len(), morsel);
    let results = run_tasks(pool, morsels.len(), |task| {
        let task_start = Instant::now();
        let range = morsels[task].clone();
        let keys = &relation.keys()[range.clone()];
        let rids = &relation.rids()[range];
        let mut matches = 0u64;
        let mut pairs = Vec::new();
        let mut hashes = [0u32; GROUP];
        let mut shards = [&table.shards[0]; GROUP];
        for (keys, rids) in keys.chunks(GROUP).zip(rids.chunks(GROUP)) {
            for ((hash, shard), &key) in hashes.iter_mut().zip(&mut shards).zip(keys) {
                *hash = hash_key(key);
                *shard = table.shard(*hash);
                shard.prefetch(*hash);
            }
            let hashed = hashes.iter().zip(&shards);
            for ((&key, &prid), (&hash, shard)) in keys.iter().zip(rids).zip(hashed) {
                let (Ok(slot) | Err(slot)) = shard.slot_of(key, hash);
                let len = shard.len(slot);
                matches += u64::from(len);
                if collect {
                    let run = shard.rids(slot, len);
                    pairs.extend(run.iter().map(|&brid| (brid, prid)));
                }
            }
        }
        (matches, pairs, task_start.elapsed().as_nanos() as f64)
    });
    let mut probed = Probed {
        matches: 0,
        pairs: collect.then(Vec::new),
        walls: Vec::with_capacity(results.len()),
    };
    for (range, (matches, pairs, ns)) in morsels.iter().zip(results) {
        probed.matches += matches;
        match &mut probed.pairs {
            Some(all) if all.is_empty() => *all = pairs,
            Some(all) => all.extend(pairs),
            None => {}
        }
        probed.walls.push((range.len(), ns));
    }
    probed
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

/// A production-shaped backend that runs the equi-join for real on host
/// threads and reports measured wall-clock times.
///
/// It consumes the same morsel task stream the simulator replays through
/// its event clock: the build and probe relations are decomposed into
/// morsels of [`JoinConfig::morsel_tuples`](crate::JoinConfig::morsel_tuples)
/// tuples.  A phase whose input spans more than one morsel is submitted to
/// the engine's persistent work-stealing [`WorkerPool`] (one pool shared by
/// every session, sized by
/// [`EngineConfig::worker_threads`](crate::EngineConfig::worker_threads)):
/// build morsels scatter into per-shard buffers, shard owners fold them
/// into this module's flat table (an open-addressed directory of 8-key
/// cache-line buckets over contiguous rid runs — the paper's §3.1 bucket /
/// key-list / rid-list layout without the pointers, and without latches),
/// and probe morsels scan the read-only shards.  A phase whose input fits
/// one morsel runs on the calling (session) thread instead — a one-shard
/// build, a one-task probe — and adds no task to the pool's counters.  Per-morsel results
/// are folded in morsel order, so the outcome is deterministic across
/// placements and worker counts.  The outcome's [`Phase::Build`] /
/// [`Phase::Probe`] entries carry *measured* elapsed time, so one reporting
/// pipeline serves simulated and native runs.
///
/// Scheme, hash-table mode and the out-of-core chunk are placement hints
/// for the simulator and are ignored here; `collect_results` and
/// `morsel_tuples` are honoured (a request that does not collect builds a
/// count-only table; the morsel is floored at [`NATIVE_MIN_CHUNK_TUPLES`]
/// to bound per-task allocation churn).
#[derive(Debug)]
pub struct NativeCpu {
    sys: SystemSpec,
    gate: ExecGate,
    scratch: Scratch,
}

impl Clone for NativeCpu {
    /// A fresh backend: **not** the execution gate or the kept buffers, so
    /// a clone handed to a second engine gates against that engine's own
    /// pool instead of sharing (and halving) the original's execution
    /// slots.
    fn clone(&self) -> Self {
        NativeCpu::new()
    }
}

/// Bounds how many native joins *execute* simultaneously (admission stays
/// with the engine's sessions): concurrent `execute` calls beyond the
/// pool's worker count wait here instead of interleaving yet another
/// working set into the cache.
///
/// Without the gate, `sessions` joins all make progress at once even when
/// the pool has fewer workers than sessions; their build/probe state is
/// co-resident and aggregate throughput *drops* as clients rise.  With it,
/// at most `workers` joins execute concurrently — enough to saturate every
/// pool worker with morsels — and the rest pipeline behind them.
///
/// Slots are granted in strict ticket (FIFO) order, matching the engine's
/// session hand-off discipline: a freshly arriving join cannot barge past
/// one that has been waiting, so no admitted join is starved of execution
/// under sustained load.
#[derive(Debug)]
struct ExecGate {
    state: Mutex<GateState>,
    freed: Condvar,
}

impl Default for ExecGate {
    fn default() -> Self {
        ExecGate {
            state: Mutex::new("engine.exec_gate", GateState::default()),
            freed: Condvar::new(),
        }
    }
}

#[derive(Debug, Default)]
struct GateState {
    executing: usize,
    next_ticket: u64,
    now_serving: u64,
}

impl ExecGate {
    /// Waits (FIFO) for one of `capacity` execution slots; the guard frees
    /// it.
    fn acquire(&self, capacity: usize) -> ExecSlot<'_> {
        let mut state = self.state.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while state.now_serving != ticket || state.executing >= capacity.max(1) {
            state = self.freed.wait(state);
        }
        state.now_serving += 1;
        state.executing += 1;
        drop(state);
        // The next ticket may already be eligible (capacity > 1).
        self.freed.notify_all();
        ExecSlot { gate: self }
    }
}

/// RAII slot of [`ExecGate`]: released on drop, panic or not.
#[must_use = "dropping the slot immediately frees the execution gate"]
struct ExecSlot<'a> {
    gate: &'a ExecGate,
}

impl Drop for ExecSlot<'_> {
    fn drop(&mut self) {
        self.gate.state.lock().executing -= 1;
        self.gate.freed.notify_all();
    }
}

impl NativeCpu {
    /// A native backend.  Inside a [`JoinEngine`](crate::JoinEngine) its
    /// multi-morsel phases run on the engine's shared [`WorkerPool`]
    /// (sized by
    /// [`EngineConfig::worker_threads`](crate::EngineConfig::worker_threads));
    /// on an [`ExecContext`] without a pool every phase runs on the calling
    /// thread.  The backend never spawns a thread of its own.
    pub fn new() -> Self {
        NativeCpu {
            // The native backend does not simulate; a nominal spec is kept
            // only so the engine can size contexts and admission uniformly.
            sys: SystemSpec::coupled_a8_3870k(),
            gate: ExecGate::default(),
            scratch: Scratch::default(),
        }
    }

    /// What every native execution starts with: the pool its multi-morsel
    /// phases go to (the context's, if it has one), one of the gate's
    /// execution slots, and the morsel size — floored, because each scatter
    /// task allocates a buffer per shard and tuple-sized morsels (legal for
    /// the simulator, where a morsel is an accounting range) would mean
    /// millions of allocations here.
    fn enter<'a>(
        &'a self,
        ctx: &ExecContext<'a>,
        request: &JoinRequest,
    ) -> (Placement<'a>, ExecSlot<'a>) {
        let pool = ctx.worker_pool();
        // Without a pool, joins run on their callers' threads one at a time.
        let slot = self.gate.acquire(pool.map_or(1, WorkerPool::workers));
        let morsel = request.config().morsel_tuples.max(NATIVE_MIN_CHUNK_TUPLES);
        (Placement { pool, morsel }, slot)
    }
}

/// Where a native execution's phases run.
#[derive(Clone, Copy)]
struct Placement<'a> {
    /// `None`: every phase runs on the calling thread.
    pool: Option<&'a WorkerPool>,
    morsel: usize,
}

impl<'a> Placement<'a> {
    /// The pool for a phase over `tuples` tuples: none — the calling thread
    /// — when there is no pool or they fit one morsel, since a pool job
    /// would cost a wake-up and move the input to another core's cache for
    /// no parallelism.
    fn pool_for(self, tuples: usize) -> Option<&'a WorkerPool> {
        self.pool.filter(|_| tuples > self.morsel)
    }
}

impl Default for NativeCpu {
    fn default() -> Self {
        NativeCpu::new()
    }
}

/// Feeds one phase's per-morsel wall times to the request's adaptive tuner
/// (if any) and books the phase's measured elapsed time.
fn record_phase(
    ctx: &mut ExecContext<'_>,
    outcome: &mut JoinOutcome,
    phase: Phase,
    started: Instant,
    walls: &[TaskWall],
) {
    let elapsed = started.elapsed();
    if let Some(tuner) = ctx.tuner.as_mut() {
        let series = match phase {
            Phase::Build => SeriesKind::Build,
            _ => SeriesKind::Probe,
        };
        for &(tuples, ns) in walls {
            tuner.observe_wall(series, tuples, ns);
        }
    }
    outcome
        .breakdown
        .add(phase, SimTime::from_ns(elapsed.as_nanos() as f64));
}

/// The probe phase shared by `execute` and `probe_cached`.
fn probe_phase(
    ctx: &mut ExecContext<'_>,
    outcome: &mut JoinOutcome,
    placement: Placement<'_>,
    table: &NativeTable,
    relation: &Relation,
    collect: bool,
) {
    let started = Instant::now();
    let pool = placement.pool_for(relation.len());
    let probed = probe(pool, table, relation, placement.morsel, collect);
    outcome.matches = probed.matches;
    outcome.pairs = probed.pairs;
    record_phase(ctx, outcome, Phase::Probe, started, &probed.walls);
}

impl ExecBackend for NativeCpu {
    fn name(&self) -> &'static str {
        "native-cpu"
    }

    fn system(&self) -> &SystemSpec {
        &self.sys
    }

    fn execute(
        &self,
        ctx: &mut ExecContext<'_>,
        build_side: &Relation,
        probe_side: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        let (placement, _slot) = self.enter(ctx, request);
        let mut outcome = JoinOutcome::default();
        let started = Instant::now();
        let pool = placement.pool_for(build_side.len());
        // Built and probed with the same flag: a join that only counts
        // builds a table that only counts.
        let collect = request.config().collect_results;
        let (table, walls) = build(pool, build_side, placement.morsel, &self.scratch, collect);
        record_phase(ctx, &mut outcome, Phase::Build, started, &walls);
        probe_phase(ctx, &mut outcome, placement, &table, probe_side, collect);
        self.scratch.recycle(table);
        Ok(outcome)
    }

    /// The native join ignores scheme, hash-table mode and grouping (they
    /// are simulator placement hints), so every in-core request maps to the
    /// same cached table.
    fn cache_params(&self, request: &JoinRequest, _build_tuples: usize) -> Option<CacheParams> {
        if request.out_of_core_chunk().is_some() || request.spill_config().is_some() {
            return None;
        }
        Some(CacheParams {
            partitioning: (0, 0),
            grouping: false,
        })
    }

    fn build_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        build_side: &Relation,
        request: &JoinRequest,
    ) -> Result<CachedTable, JoinError> {
        let (placement, _slot) = self.enter(ctx, request);
        let pool = placement.pool_for(build_side.len());
        // With its runs whatever this request collects: a cached table
        // serves every later request.
        let (mut table, _) = build(pool, build_side, placement.morsel, &self.scratch, true);
        table.shrink_to_fit();
        Ok(CachedTable {
            bytes: table.bytes(),
            payload: CachedPayload::Native(table),
            build_ns: 0,
            build_tuples: build_side.len(),
        })
    }

    fn probe_cached(
        &self,
        ctx: &mut ExecContext<'_>,
        cached: &CachedTable,
        probe_side: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        let CachedPayload::Native(table) = &cached.payload else {
            return Err(JoinError::InvalidConfig(
                "cached table was built by a different backend kind".to_string(),
            ));
        };
        let (placement, _slot) = self.enter(ctx, request);
        let mut outcome = JoinOutcome::default();
        let collect = request.config().collect_results;
        probe_phase(ctx, &mut outcome, placement, table, probe_side, collect);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{reference_match_count, reference_pairs};

    /// Pool widths every case runs at: 3 is a non-power-of-two shard count,
    /// 8 leaves most shards of a small input empty.
    const WIDTHS: [usize; 4] = [1, 2, 3, 8];

    /// `count` keys that land in shard 0 at every width in [`WIDTHS`] *and*
    /// whose home is the last bucket of any directory of up to 64 buckets,
    /// so their probe chains collide and wrap around the end of the
    /// directory.
    fn colliding_keys(count: usize) -> Vec<u32> {
        (0u32..)
            .filter(|&key| {
                let hash = hash_key(key);
                hash.is_multiple_of(24) && hash >> 26 == 63
            })
            .take(count)
            .collect()
    }

    /// Morsels far below the backend's floor, so that small inputs still
    /// span many tasks and duplicate runs straddle morsel borders.
    const MORSEL: usize = 7;

    /// Builds `build_side` through the kernel on `pool` (the calling thread
    /// without one) and checks the table's shape: shard and task counts, and
    /// whether the shards hold runs.
    fn kernel_table(
        pool: Option<&WorkerPool>,
        build_side: &Relation,
        scratch: &Scratch,
        collect: bool,
    ) -> NativeTable {
        let (table, walls) = build(pool, build_side, MORSEL, scratch, collect);
        let (shards, tasks) = pool.map_or((1, 1), |pool| {
            (pool.workers(), build_side.len().div_ceil(MORSEL))
        });
        assert_eq!((table.shards.len(), walls.len()), (shards, tasks));
        assert_eq!(table.runs, collect);
        if !collect {
            let runless = |shard: &Shard| shard.starts.is_empty() && shard.rids.is_empty();
            assert!(
                table.shards.iter().all(runless),
                "a count-only shard holds runs"
            );
        }
        table
    }

    /// Joins through the kernel on `pool` (the calling thread without one),
    /// collecting, and leaves the table's buffers in `scratch` as `execute`
    /// does.
    fn kernel_pairs(
        pool: Option<&WorkerPool>,
        build_side: &Relation,
        probe_side: &Relation,
        scratch: &Scratch,
    ) -> Vec<(u32, u32)> {
        let table = kernel_table(pool, build_side, scratch, true);
        let counted = probe(pool, &table, probe_side, MORSEL, false);
        let collected = probe(pool, &table, probe_side, MORSEL, true);
        assert!(counted.pairs.is_none());
        let pairs = collected.pairs.expect("a collecting probe returns pairs");
        assert_eq!(counted.matches, pairs.len() as u64);
        assert_eq!(collected.matches, pairs.len() as u64);
        scratch.recycle(table);
        pairs
    }

    /// The same join count-only: a table without runs, probed by counting.
    fn kernel_count(
        pool: Option<&WorkerPool>,
        build_side: &Relation,
        probe_side: &Relation,
        scratch: &Scratch,
    ) -> u64 {
        let table = kernel_table(pool, build_side, scratch, false);
        let counted = probe(pool, &table, probe_side, MORSEL, false);
        assert!(counted.pairs.is_none());
        scratch.recycle(table);
        counted.matches
    }

    /// Sorted pairs equal the sort-merge oracle's (which shares no code with
    /// `hash.rs` / `hashtable.rs`) on the calling thread (one shard), and
    /// the pool at every width returns those pairs in the same order; a
    /// count-only join counts the oracle's matches in every placement.  All
    /// placements and both modes share one scratch, so every join after the
    /// first runs in another join's used buffers — a collecting build in a
    /// count-only one's and the reverse.
    fn check(case: &str, build_side: &Relation, probe_side: &Relation) {
        let scratch = Scratch::default();
        let expected = reference_match_count(build_side, probe_side);
        let inline = kernel_pairs(None, build_side, probe_side, &scratch);
        let mut sorted = inline.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, reference_pairs(build_side, probe_side), "{case}");
        assert_eq!(inline.len() as u64, expected, "{case}");
        let counted = kernel_count(None, build_side, probe_side, &scratch);
        assert_eq!(
            counted, expected,
            "{case}: count-only on the calling thread"
        );
        for width in WIDTHS {
            let pool = WorkerPool::new(width);
            let counted = kernel_count(Some(&pool), build_side, probe_side, &scratch);
            assert_eq!(counted, expected, "{case}: count-only at width {width}");
            assert_eq!(
                kernel_pairs(Some(&pool), build_side, probe_side, &scratch),
                inline,
                "{case}: width {width} changed the pairs or their order"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a collecting probe needs a table built with its rid runs")]
    fn a_collecting_probe_of_a_count_only_table_panics() {
        let side = keys([1, 2, 2, 3]);
        let (table, _) = build(None, &side, MORSEL, &Scratch::default(), false);
        probe(None, &table, &side, MORSEL, true);
    }

    fn keys(keys: impl IntoIterator<Item = u32>) -> Relation {
        Relation::from_keys(keys.into_iter().collect())
    }

    #[test]
    fn degenerate_sides_join_like_the_oracle() {
        check("empty build", &keys([]), &keys([1, 2, 3]));
        check("empty probe", &keys([1, 2, 3]), &keys([]));
        check("both empty", &keys([]), &keys([]));
        check("single match", &keys([9]), &keys([9]));
        check("single miss", &keys([9]), &keys([10]));
        check(
            "extreme keys",
            &keys([0, u32::MAX, 0]),
            &keys([u32::MAX, 0, 1]),
        );
    }

    #[test]
    fn one_key_on_both_sides_is_a_cross_product() {
        let (build_side, probe_side) = (keys([7; 50]), keys([7; 20]));
        check("all one key", &build_side, &probe_side);
        let pool = WorkerPool::new(3);
        let pairs = kernel_pairs(Some(&pool), &build_side, &probe_side, &Scratch::default());
        assert_eq!(pairs.len(), 1000);
    }

    #[test]
    fn keys_sharing_a_shard_and_a_home_bucket_chain_and_wrap() {
        // 40 colliding keys fill five buckets of an 8-bucket directory, from
        // its last bucket around to its head; five more with the same home
        // are probed but never built, so their lookups walk the whole chain
        // to its end, the first lane of the first bucket that is not full.
        let colliding = colliding_keys(45);
        let (built, absent) = colliding.split_at(40);
        let build_side = keys(built.iter().copied());
        let whole = (build_side.keys(), build_side.rids());
        let shard = Shard::fold(std::iter::once(whole), &Scratch::default(), true);
        assert_eq!(shard.buckets.len(), 8);
        let filled = |bucket: &Bucket, len: u32| bucket.lens.iter().all(|&l| l == len);
        assert!(filled(&shard.buckets[7], 1) && shard.buckets[..4].iter().all(|b| filled(b, 1)));
        assert!(shard.buckets[4..7].iter().all(|b| filled(b, 0)));
        for (i, &key) in built.iter().enumerate() {
            let hash = hash_key(key);
            let bucket = (7 + i / LANES) % 8;
            assert_eq!(shard.slot_of(key, hash), Ok(bucket * LANES + i % LANES));
            assert_eq!(shard.run(key, hash), [build_side.rid(i)]);
        }
        for &key in absent {
            let hash = hash_key(key);
            assert_eq!(shard.slot_of(key, hash), Err(4 * LANES));
            assert!(shard.run(key, hash).is_empty());
        }

        // The same keys with duplicates, through the whole kernel.
        let duplicated = keys(built.iter().chain(&built[10..30]).copied());
        let probe_side = keys(colliding.iter().rev().chain(&colliding).copied());
        check("colliding keys", &duplicated, &probe_side);
    }

    #[test]
    fn duplicate_runs_straddle_morsel_borders() {
        // Runs of 5 equal keys against 7-tuple morsels, then the same keys
        // interleaved so every run is spread over all morsels.
        check(
            "runs of five",
            &keys((0..200).map(|i| i / 5)),
            &keys((0..90).map(|i| i / 2)),
        );
        check(
            "interleaved",
            &keys((0..200).map(|i| i % 13)),
            &keys((0..60).map(|i| i % 17)),
        );
    }

    #[test]
    fn lopsided_sides_join_like_the_oracle() {
        // Interpreted runs (the Miri CI job) get a shorter large side.
        let tuples = if cfg!(miri) { 300u32 } else { 3000 };
        let large = keys((0..tuples).map(|i| i.wrapping_mul(2_654_435_761) % (tuples / 2)));
        let small = keys((0..10).map(|i| i * 100));
        check("build >> probe", &large, &small);
        check("probe >> build", &small, &large);
    }

    #[test]
    fn runs_keep_build_order_and_footprint_is_what_is_allocated() {
        let build_side = Relation::from_columns(vec![10, 11, 12, 13, 14], vec![5, 6, 5, 5, 6]);
        let pool = WorkerPool::new(2);
        let (table, _) = build(Some(&pool), &build_side, 2, &Scratch::default(), true);
        let run = |key: u32| {
            let hash = hash_key(key);
            table.shard(hash).run(key, hash).to_vec()
        };
        assert_eq!(run(5), [10, 12, 13]);
        assert_eq!(run(6), [11, 14]);
        assert!(run(7).is_empty());
        let allocated: usize = table
            .shards
            .iter()
            .map(|shard| {
                shard.buckets.capacity() * 64
                    + shard.starts.capacity() * 32
                    + shard.rids.capacity() * 4
            })
            .sum();
        assert_eq!(table.bytes(), allocated);
        // One bucket is one cache line: 8 slots of 12 bytes with the starts.
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
    }

    #[test]
    fn a_finished_joins_buffers_serve_the_next_join() {
        let large = keys((0..500).map(|i| i % 60));
        let small = keys([3, 4, 3]);
        let pool = WorkerPool::new(2);
        let scratch = Scratch::default();
        let buffers = |table: &NativeTable| -> Vec<_> {
            let buckets = table.shards.iter().map(|shard| shard.buckets.as_ptr());
            let mut buffers: Vec<_> = buckets.collect();
            buffers.sort_unstable();
            buffers
        };
        let (first, _) = build(Some(&pool), &large, 100, &scratch, true);
        let first_buffers = buffers(&first);
        scratch.recycle(first);
        // A smaller join in the larger one's buffers: nothing of the old
        // table shows through, and nothing is allocated.
        let (second, _) = build(Some(&pool), &small, 100, &scratch, true);
        assert_eq!(buffers(&second), first_buffers);
        let mut pairs = probe(Some(&pool), &second, &large, 100, true)
            .pairs
            .unwrap();
        pairs.sort_unstable();
        assert_eq!(pairs, reference_pairs(&small, &large));
        // Five build morsels were in flight at most, and one or two folds.
        let kept = scratch.kept.lock();
        assert_eq!(kept.scattered.len(), 5);
        assert!((1..=2).contains(&kept.homes.len()));
        assert!(kept.shards.is_empty());
        drop(kept);
        // A table on its way to the cache keeps only what it holds.
        let mut cached = second;
        cached.shrink_to_fit();
        let held = cached.shards.iter();
        let held = held.map(|s| s.buckets.len() * 64 + s.starts.len() * 32 + s.rids.len() * 4);
        assert_eq!(cached.bytes(), held.sum::<usize>());
    }

    /// Each bucket's `(keys, rids)`, routed one tuple at a time.
    type Routed = Vec<(Vec<u32>, Vec<u32>)>;

    fn reference_route(rel: &Relation, buckets: usize, bucket_of: impl Fn(u32) -> usize) -> Routed {
        let mut routed = vec![(Vec::new(), Vec::new()); buckets];
        for (rid, key) in rel.iter() {
            let bucket = &mut routed[bucket_of(key)];
            bucket.0.push(key);
            bucket.1.push(rid);
        }
        routed
    }

    /// [`scatter`]'s buffers, each bucket's concatenated in task order.
    /// The same ranges scattered keys-only must route the same keys and
    /// leave every rid buffer empty — in buffers just used with rids.
    fn scatter_route(
        pool: Option<&WorkerPool>,
        rel: &Relation,
        ranges: &[Range<usize>],
        buckets: usize,
        bucket_of: impl Fn(u32) -> usize + Sync,
        scratch: &Scratch,
    ) -> Routed {
        let route = |rids: Option<&[u32]>| {
            let scattered = scatter(pool, rel.keys(), rids, ranges, buckets, &bucket_of, scratch);
            assert_eq!(scattered.len(), ranges.len());
            let mut routed = vec![(Vec::new(), Vec::new()); buckets];
            for (buffers, _) in &scattered {
                assert_eq!(buffers.len(), buckets);
                for (bucket, buffer) in routed.iter_mut().zip(buffers) {
                    bucket.0.extend(&buffer.keys);
                    bucket.1.extend(&buffer.rids);
                }
            }
            scratch.keep_scattered(scattered);
            routed
        };
        let routed = route(Some(rel.rids()));
        let keys_only = route(None);
        assert!(keys_only.iter().all(|(_, rids)| rids.is_empty()));
        let keys = |routed: &Routed| {
            routed
                .iter()
                .map(|(keys, _)| keys.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            keys(&keys_only),
            keys(&routed),
            "a keys-only scatter moved other keys"
        );
        routed
    }

    #[test]
    fn scatter_keeps_every_bucket_in_input_order_at_every_width() {
        const MORSEL: usize = 7;
        let pools: Vec<WorkerPool> = WIDTHS.iter().map(|&width| WorkerPool::new(width)).collect();
        // One scratch for everything: buffer sets move between bucket counts.
        let scratch = Scratch::default();
        let lengths = [0, 1, 2, 6, 7, 8, 15, 16, 17, 20, 21, 22, 300];
        for buckets in [2, 3, 16, 17] {
            let bucket_of = |key: u32| hash_key(key) as usize % buckets;
            for len in lengths {
                let mixed = keys((0..len as u32).map(|i| i.wrapping_mul(2_654_435_761) % 50));
                let one_key = keys(std::iter::repeat_n(9, len));
                for (case, rel) in [("mixed", &mixed), ("one key", &one_key)] {
                    let expected = reference_route(rel, buckets, bucket_of);
                    let filled = expected.iter().filter(|(k, _)| !k.is_empty()).count();
                    if case == "one key" {
                        assert_eq!(filled, usize::from(len > 0), "one bucket gets everything");
                    }
                    let whole = morsel_ranges(len, len.max(1));
                    let inline = scatter_route(None, rel, &whole, buckets, bucket_of, &scratch);
                    assert_eq!(inline, expected, "{case}: {len} tuples, {buckets} buckets");
                    for pool in &pools {
                        let width = pool.workers();
                        // Build's morsels, and the spill path's one share of
                        // a chunk per worker.
                        let morsels = morsel_ranges(len, MORSEL);
                        let shares = morsel_ranges(len, len.div_ceil(width));
                        for ranges in [morsels, shares] {
                            let routed = scatter_route(
                                Some(pool),
                                rel,
                                &ranges,
                                buckets,
                                bucket_of,
                                &scratch,
                            );
                            assert_eq!(
                                routed,
                                expected,
                                "{case}: {len} tuples, {buckets} buckets, width {width}, {} tasks",
                                ranges.len()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_directory_is_sized_by_load_factor_not_by_doubling() {
        assert_eq!((directory_buckets(5), directory_buckets(6)), (1, 2));
        for keys in [0, 1, 5, 6, 8, 1000, 131_072, 131_200, MAX_SHARD_TUPLES] {
            let buckets = directory_buckets(keys);
            let slots = buckets * LANES;
            assert!(buckets.is_power_of_two(), "{keys} keys");
            assert!(keys * 10 <= slots * 7, "{keys} keys in {slots} slots");
            assert!(
                buckets == 1 || slots * 7 < (keys + 1) * 20,
                "{keys} keys waste {slots} slots"
            );
        }
        // Every slot number fits the fold's `u32` memo.
        assert!(directory_buckets(MAX_SHARD_TUPLES) * LANES <= 1 << 32);
        // Half of 256 Ki distinct keys, give or take: one doubling less than
        // rounding 2n up, i.e. 24 + 4 bytes per tuple.
        assert_eq!(directory_buckets(131_200) * LANES, 262_144);
    }

    #[test]
    fn key_zero_and_the_largest_key_sit_beside_empty_lanes() {
        // Up to five keys get a one-bucket directory: every key shares it.
        let fold = |build_side: &Relation| {
            let whole = (build_side.keys(), build_side.rids());
            Shard::fold(std::iter::once(whole), &Scratch::default(), true)
        };
        let slot = |shard: &Shard, key: u32| shard.slot_of(key, hash_key(key));
        // A stored 0 precedes every empty lane, so it is the first match.
        let build_side = keys([5, u32::MAX, 0, 5, 0]);
        let shard = fold(&build_side);
        assert_eq!(shard.buckets.len(), 1);
        assert_eq!(shard.buckets[0].lens, [2, 1, 2, 0, 0, 0, 0, 0]);
        assert_eq!((slot(&shard, 0), slot(&shard, u32::MAX)), (Ok(2), Ok(1)));
        assert_eq!(shard.run(0, hash_key(0)), [2, 4]);
        assert_eq!(shard.run(u32::MAX, hash_key(u32::MAX)), [1]);
        // An absent 0 matches the first empty lane and reads as no rids; an
        // absent key of all ones matches nothing and ends in the same lane.
        let shard = fold(&keys([5, 6]));
        assert_eq!((slot(&shard, 0), slot(&shard, u32::MAX)), (Ok(2), Err(2)));
        assert!(shard.run(0, hash_key(0)).is_empty());
        assert!(shard.run(u32::MAX, hash_key(u32::MAX)).is_empty());

        // Each side below joined with both keys, against and as the build.
        let extremes = keys([0, u32::MAX, 0, 1, 5, u32::MAX - 1]);
        let cases = [
            ("0 and max present", keys([u32::MAX, 7, 0, 0, u32::MAX])),
            ("0 and max absent", keys([1, 2, 3, u32::MAX - 1])),
            ("0 alone", keys([0; 3])),
            ("max alone", keys([u32::MAX; 3])),
            ("0 built last", keys((0..200).rev())),
            ("max built last", keys((0..200).map(|i| u32::MAX - 199 + i))),
        ];
        for (case, build_side) in &cases {
            check(case, build_side, &extremes);
            check(case, &extremes, build_side);
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn sse2_and_scalar_masks_agree() {
        assert_eq!(eq_mask(&[0; LANES], 0), 0xff);
        assert_eq!(eq_mask(&[1, 0, 1, 0, 1, 0, 1, 0], 0), 0xaa);
        assert_eq!(eq_mask(&[u32::MAX; LANES], 0), 0);
        // Lanes drawn from a few values, so repeats and full and empty
        // masks are common.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mixed = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (mixed ^ (mixed >> 29)) as u32
        };
        for _ in 0..1 << 20 {
            let random = next();
            let pool = [0, u32::MAX, random, random ^ 1];
            let key = pool[next() as usize % 3];
            let lanes = [(); LANES].map(|_| pool[next() as usize % 4]);
            assert_eq!(
                eq_mask(&lanes, key),
                eq_mask_scalar(&lanes, key),
                "{lanes:?} {key}"
            );
        }
    }
}
