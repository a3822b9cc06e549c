//! The morsel/task layer between the co-processing schemes and the
//! execution backends.
//!
//! The paper's step series (`n1..n3`, `b1..b4`, `p1..p4`) are data-parallel
//! over tuples: nothing forces a whole relation through a step in one
//! monolithic pass.  Following the morsel-driven designs surveyed in
//! PAPERS.md, this module decomposes every step series into [`Morsel`]s —
//! contiguous tuple ranges of roughly [`DEFAULT_MORSEL_TUPLES`] tuples —
//! and a per-step workload ratio then splits each morsel's range into a CPU
//! lane and a GPU lane (`split_range`).
//!
//! One task stream, two interpretations:
//!
//! * the **simulator backends** replay the stream through the event clock
//!   ([`apu_sim::DeviceClocks`]) and the pipeline composition of Eqs. 1–5
//!   ([`crate::schedule::compose_pipeline`]) — see
//!   [`crate::phase::run_step`], which consumes the morsel stream;
//! * the **native backend** executes the same stream for real, submitting
//!   morsels to a persistent work-stealing [`WorkerPool`] shared by every
//!   session of the owning engine (a phase of a single morsel runs on the
//!   session's own thread instead).

use crate::steps::StepId;
use hj_analysis::sync::{Condvar, Mutex};
use hj_metrics::Counter;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default morsel size in tuples (~64 K, a few hundred KB of tuple data —
/// large enough to amortise dispatch, small enough to load-balance).
pub(crate) const DEFAULT_MORSEL_TUPLES: usize = 64 * 1024;

/// Which step series a morsel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepSeries {
    /// A radix-partition pass (`n1..n3`).
    Partition,
    /// The build phase (`b1..b4`).
    Build,
    /// The probe phase (`p1..p4`).
    Probe,
}

impl StepSeries {
    /// The steps of this series, in execution order.
    pub fn steps(self) -> &'static [StepId] {
        match self {
            StepSeries::Partition => &StepId::PARTITION,
            StepSeries::Build => &StepId::BUILD,
            StepSeries::Probe => &StepId::PROBE,
        }
    }

    /// The adaptive layer's name for this series (telemetry and re-planned
    /// ratios are addressed by [`hj_adaptive::SeriesKind`]).
    pub(crate) fn adaptive_kind(self) -> hj_adaptive::SeriesKind {
        match self {
            StepSeries::Partition => hj_adaptive::SeriesKind::Partition,
            StepSeries::Build => hj_adaptive::SeriesKind::Build,
            StepSeries::Probe => hj_adaptive::SeriesKind::Probe,
        }
    }
}

/// One schedulable unit of work: a contiguous tuple range of one step of a
/// step series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Morsel {
    /// The step series the morsel belongs to.
    pub step_series: StepSeries,
    /// The step within the series.
    pub step: StepId,
    /// The tuple range the morsel covers.
    pub range: Range<usize>,
}

/// The CPU and GPU lanes of one morsel under a per-step CPU ratio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lanes {
    /// Tuples processed by the CPU (a prefix of the morsel).
    pub cpu: Range<usize>,
    /// Tuples processed by the GPU (the remaining suffix).
    pub gpu: Range<usize>,
}

impl Morsel {
    /// Number of tuples in the morsel.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True when the morsel covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// Splits `range` into a CPU prefix of `round(len × r)` tuples and the GPU
/// suffix — the single cut rule behind the simulator's per-morsel lanes in
/// [`crate::phase::run_step`].
pub(crate) fn split_range(range: Range<usize>, r: f64) -> Lanes {
    let len = range.len();
    let cut = ((len as f64) * r.clamp(0.0, 1.0)).round() as usize;
    let cut = range.start + cut.min(len);
    Lanes {
        cpu: range.start..cut,
        gpu: cut..range.end,
    }
}

/// Splits `items` tuples into morsel ranges of at most `morsel_tuples`
/// tuples each (the last morsel may be shorter).  A zero `morsel_tuples` is
/// treated as one tuple.
pub(crate) fn morsel_ranges(items: usize, morsel_tuples: usize) -> Vec<Range<usize>> {
    let morsel = morsel_tuples.max(1);
    let mut ranges = Vec::with_capacity(items.div_ceil(morsel));
    let mut start = 0usize;
    while start < items {
        let end = (start + morsel).min(items);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

// ---------------------------------------------------------------------------
// Persistent work-stealing worker pool
// ---------------------------------------------------------------------------

// The former `lock_unpoisoned`/`wait_unpoisoned` helpers (one of three
// copies across the workspace) are gone: poison recovery is built into
// `hj_analysis::sync` — a panic anywhere in the engine is already
// propagated to the submitting caller (`catch_unwind` + `resume_unwind`),
// so poisoning carries no extra information, and treating it as fatal
// would let one bad join turn every later `stats()`/`submit()` call into
// a panic.

/// A lifetime-erased pointer to a task body `(worker, task_index)` that
/// lives on the submitting thread's stack.
///
/// A *raw* pointer rather than a boxed closure on purpose: an
/// [`Arc<JobCore>`] held by a worker can be freed *after* the submitting
/// frame has returned (the worker's refcount decrement races the
/// submitter), and a raw pointer — unlike a stored reference — carries no
/// validity invariant and no drop glue, so a late [`JobCore`] drop touches
/// nothing that belonged to the dead frame.  The pointee is only ever
/// *called* before the job's completion is signalled (see
/// [`CompletionGuard`]), while the submitting frame is provably alive.
type RawTaskFn = *const (dyn Fn(usize, usize) + Sync);

/// Shared state of one submitted job: a pointer to the stack-owned task
/// body plus completion tracking.  Workers hold an [`Arc`] per queued
/// task; the submitter waits on `done` until every task has finished.
struct JobCore {
    run: RawTaskFn,
    tasks: usize,
    progress: Mutex<JobProgress>,
    done: Condvar,
}

// SAFETY: `run` points at a `Sync` closure (shared calls from any thread
// are fine) owned by the submitting frame, which `WorkerPool::run` keeps
// alive until every queued task has completed (enforced by
// `CompletionGuard` even on unwind).  All other fields are `Send + Sync`.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

struct JobProgress {
    /// Tasks pushed to the deques so far (equals the job's `tasks` once
    /// submission finished; may stay short if submission itself unwound).
    queued: usize,
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl JobCore {
    /// Marks one task finished (recording the first panic payload, if any)
    /// and wakes the waiting submitter once every queued task is done.
    fn complete_one(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut progress = self.progress.lock();
        if progress.panic.is_none() {
            progress.panic = panic;
        }
        progress.completed += 1;
        if progress.completed == self.tasks || progress.completed == progress.queued {
            self.done.notify_all();
        }
    }

    /// Blocks until every task of the job has completed, then re-raises the
    /// first worker panic (if any) on the calling thread.
    ///
    /// Returning only after *all* tasks finished is what makes the
    /// pointer erasure in [`WorkerPool::run`] sound: no worker can still
    /// be inside the job's closure once `wait` returns.
    fn wait(&self) {
        let mut progress = self.progress.lock();
        while progress.completed < self.tasks {
            progress = self.done.wait(progress);
        }
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            std::panic::resume_unwind(payload);
        }
    }
}

/// Unwind insurance for the pointer erasure: blocks on drop until every
/// *queued* task of the job has completed.
///
/// On the normal path [`JobCore::wait`] has already drained the job and
/// this is free.  If task *submission* unwinds midway (allocation failure
/// while pushing), the guard still keeps the submitting frame — and with
/// it the pointee of [`JobCore::run`] — alive until the partially queued
/// tasks have finished on the workers.
#[must_use = "the guard must stay alive until every queued task completed"]
struct CompletionGuard<'a> {
    job: &'a JobCore,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut progress = self.job.progress.lock();
        // No further pushes can happen once the guard drops, so `queued`
        // is final here.
        while progress.completed < progress.queued {
            progress = self.job.done.wait(progress);
        }
    }
}

/// One schedulable unit in a worker deque.
struct PoolTask {
    job: Arc<JobCore>,
    index: usize,
}

/// One worker's deque plus a lock-free length hint, so stealers skip empty
/// victims without touching their lock.
struct WorkerDeque {
    len: AtomicUsize,
    deque: Mutex<VecDeque<PoolTask>>,
}

/// A pool's per-worker lifetime counters, each indexed by worker.  An
/// engine registers them as its `hj_pipeline_*` families, so the registry
/// reads the very atoms the workers bump; a standalone
/// [`WorkerPool::new`] keeps counters no registry lists.
#[derive(Clone)]
pub(crate) struct WorkerCounters {
    /// Tasks each worker executed.
    pub tasks: Vec<Arc<Counter>>,
    /// Tasks each worker took from *another* worker's deque.
    pub steals: Vec<Arc<Counter>>,
    /// Wall-clock nanoseconds each worker spent executing tasks.
    pub busy_ns: Vec<Arc<Counter>>,
    /// Wall-clock nanoseconds each worker spent parked waiting for work.
    pub park_ns: Vec<Arc<Counter>>,
}

impl WorkerCounters {
    fn unregistered(workers: usize) -> Self {
        let fresh = || (0..workers).map(|_| Arc::default()).collect();
        WorkerCounters {
            tasks: fresh(),
            steals: fresh(),
            busy_ns: fresh(),
            park_ns: fresh(),
        }
    }
}

/// The current value of each counter, in order.
pub(crate) fn read_counters(counters: &[Arc<Counter>]) -> Vec<u64> {
    counters.iter().map(|counter| counter.get()).collect()
}

/// State shared between the pool handle and its worker threads.
struct PoolShared {
    deques: Vec<WorkerDeque>,
    /// Tasks pushed but not yet popped, pool-wide — the parking predicate.
    pending: AtomicUsize,
    park: Mutex<()>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    counters: WorkerCounters,
    /// Workers currently alive; reaches zero only after every worker thread
    /// has exited its loop.
    live_workers: Arc<AtomicUsize>,
    /// Rotates the deque each job's first block lands on, so concurrent
    /// jobs spread over different workers instead of all piling onto
    /// worker 0.
    next_deque: AtomicUsize,
}

impl PoolShared {
    /// Pops the next task for `worker`: its own front, else a steal from
    /// the back of a victim's deque.  `None` when every deque is empty.
    fn pop(&self, worker: usize) -> Option<PoolTask> {
        let own = worker % self.deques.len();
        if let Some(task) = self.take(own, true) {
            return Some(task);
        }
        for offset in 1..self.deques.len() {
            let victim = (own + offset) % self.deques.len();
            if self.deques[victim].len.load(Ordering::Acquire) == 0 {
                continue;
            }
            if let Some(task) = self.take(victim, false) {
                self.counters.steals[own].inc();
                return Some(task);
            }
        }
        None
    }

    fn take(&self, queue: usize, front: bool) -> Option<PoolTask> {
        let slot = &self.deques[queue];
        let mut deque = slot.deque.lock();
        let task = if front {
            deque.pop_front()
        } else {
            deque.pop_back()
        };
        if task.is_some() {
            slot.len.fetch_sub(1, Ordering::Release);
            self.pending.fetch_sub(1, Ordering::Release);
        }
        task
    }
}

fn worker_loop(shared: Arc<PoolShared>, me: usize) {
    loop {
        if let Some(task) = shared.pop(me) {
            // Pass the wake-up on while work is left: for a job of several
            // tasks the submitter wakes a single worker (see `push_tasks`),
            // and every worker that finds more than it took wakes the next,
            // from its own CPU.
            if shared.pending.load(Ordering::Acquire) > 0 {
                drop(shared.park.lock());
                shared.work_ready.notify_one();
            }
            shared.counters.tasks[me].inc();
            let busy_started = Instant::now();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: the pointee is a Sync closure owned by the
                // submitting frame, which stays alive until this task's
                // `complete_one` below has been observed (JobCore::wait /
                // CompletionGuard) — the call happens strictly before that
                // signal.
                unsafe { (*task.job.run)(me, task.index) }
            }))
            .err();
            shared.counters.busy_ns[me].add(busy_started.elapsed().as_nanos() as u64);
            task.job.complete_one(panic);
            continue;
        }
        // Park until new work arrives.  The re-check happens under the park
        // lock: a submitter increments `pending` *before* taking the same
        // lock to notify, so the wake-up cannot be lost.
        let mut guard = shared.park.lock();
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                shared.live_workers.fetch_sub(1, Ordering::AcqRel);
                return;
            }
            if shared.pending.load(Ordering::Acquire) > 0 {
                break;
            }
            let park_started = Instant::now();
            guard = shared.work_ready.wait(guard);
            shared.counters.park_ns[me].add(park_started.elapsed().as_nanos() as u64);
        }
    }
}

/// A fixed set of long-lived worker threads fed by per-worker deques with
/// steal-from-back work stealing.
///
/// Workers are spawned **once** (at engine construction) and shared by
/// every session of the engine: concurrent joins interleave their morsels
/// in the same pool instead of each spawning its own threads per step —
/// the per-step `thread::scope` respawning that made aggregate throughput
/// *fall* as clients rose.  Idle workers park on a [`Condvar`] (no
/// spinning); for a job of several tasks they are woken one by one — the
/// submitter wakes the first, each woken worker the next while tasks are
/// left; submission pushes contiguous blocks of task indices onto the
/// deques (cache-friendly runs of neighbouring morsels), each worker pops
/// from the *front* of its own deque and, when empty, steals from the
/// *back* of a victim's.
///
/// [`run`](Self::run) is the submission harness: it enqueues one job of
/// `tasks` indices, waits for completion, and returns every task's result
/// in task order — parallel execution stays deterministic regardless of
/// worker count or steal pattern.  The pool's [`Drop`] joins every worker,
/// so no thread outlives the engine.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .field("live_workers", &self.live_workers())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least one), parked until work
    /// arrives, counting into counters no registry lists.
    pub fn new(workers: usize) -> Self {
        WorkerPool::with_counters(WorkerCounters::unregistered(workers.max(1)))
    }

    /// Spawns one worker per entry of `counters`, each counting into its
    /// own entry.
    fn with_counters(counters: WorkerCounters) -> Self {
        let workers = counters.tasks.len();
        let live_workers = Arc::new(AtomicUsize::new(workers));
        let shared = Arc::new(PoolShared {
            deques: (0..workers)
                .map(|_| WorkerDeque {
                    len: AtomicUsize::new(0),
                    deque: Mutex::new("pool.deque", VecDeque::new()),
                })
                .collect(),
            pending: AtomicUsize::new(0),
            park: Mutex::new("pool.park", ()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters,
            live_workers: Arc::clone(&live_workers),
            next_deque: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hj-worker-{me}"))
                    .spawn(move || worker_loop(shared, me))
                    .expect("failed to spawn worker-pool thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads the pool was provisioned with.
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// Workers currently alive (equals [`workers`](Self::workers) for the
    /// pool's whole lifetime; drops to zero during [`Drop`]).
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::Acquire)
    }

    /// An owned handle on the live-worker gauge that outlives the pool, so
    /// callers (and tests) can verify that dropping the pool joined every
    /// worker thread.
    pub fn live_worker_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.shared.live_workers)
    }

    /// Lifetime wall-clock nanoseconds each worker spent executing tasks,
    /// indexed by worker.
    pub fn busy_ns(&self) -> Vec<u64> {
        read_counters(&self.shared.counters.busy_ns)
    }

    /// Lifetime wall-clock nanoseconds each worker spent parked waiting
    /// for work, indexed by worker.  Busy + park does not sum to the
    /// pool's lifetime: the short pop/steal scans between the two are
    /// deliberately unattributed.
    pub fn park_ns(&self) -> Vec<u64> {
        read_counters(&self.shared.counters.park_ns)
    }

    /// Enqueues the job's `tasks` task indices: contiguous blocks per
    /// deque (rotated across jobs), then the wake-up.  `queued` in the
    /// job's progress tracks how many tasks are actually visible to
    /// workers, so an unwind mid-push leaves a consistent count for
    /// [`CompletionGuard`].
    fn push_tasks(&self, job: &Arc<JobCore>) {
        let tasks = job.tasks;
        let workers = self.workers();
        let per_worker = tasks.div_ceil(workers).max(1);
        // Relaxed: only a placement *hint* rotating which deque a job's
        // first block lands on — any interleaving of the counter is
        // equally correct, so no ordering is load-bearing here.
        let start = self.shared.next_deque.fetch_add(1, Ordering::Relaxed) % workers;
        let mut index = 0usize;
        let mut block = 0usize;
        while index < tasks {
            let end = (index + per_worker).min(tasks);
            let slot = &self.shared.deques[(start + block) % workers];
            let mut deque = slot.deque.lock();
            for i in index..end {
                deque.push_back(PoolTask {
                    job: Arc::clone(job),
                    index: i,
                });
            }
            // All counters move under the deque lock: a worker can only
            // see (and pop) these tasks after `pending` includes them, and
            // `queued` never under-counts what a worker might execute.
            job.progress.lock().queued = end;
            slot.len.fetch_add(end - index, Ordering::Release);
            self.shared
                .pending
                .fetch_add(end - index, Ordering::Release);
            drop(deque);
            index = end;
            block += 1;
        }
        // Serialise with parking workers (they re-check `pending` under
        // this lock before sleeping) so the notification cannot be lost.
        drop(self.shared.park.lock());
        if tasks == 1 {
            // Any worker will do, so all are offered the task and the first
            // to get a CPU takes it: on a busy host that is worth more than
            // the spare wake-ups cost (waking one instead measured -17 % on
            // small joins served over TCP).
            self.shared.work_ready.notify_all();
        } else {
            // One worker is woken here and the rest by each other (see
            // `worker_loop`).  Waking them all from this thread, which is
            // about to block in `JobCore::wait`, let the kernel place every
            // worker while this CPU still looked busy: two workers could
            // land on one CPU and stay there, phase after phase, with the
            // other CPU idle (measured: 6 ms of run-queue wait on a 5 ms
            // join, for seconds at a time).  A worker that wakes its peer
            // does so after the submitter has gone to sleep, and the peer
            // gets the idle CPU.  No wake-up is lost: a pending task always
            // has an awake worker — the one woken here, or one still
            // running, which re-checks `pending` under the park lock before
            // it sleeps.
            self.shared.work_ready.notify_one();
        }
    }

    /// Runs `tasks` tasks on the pool, calling `f(worker, task)` for each,
    /// and returns the results in task order.
    ///
    /// Blocks the calling thread until the job completes; concurrent `run`
    /// calls from different threads interleave their tasks in the shared
    /// deques.
    ///
    /// # Panics
    /// Re-raises the first panic from `f` after every task of the job has
    /// finished, and enforces (in every build profile) the invariant that
    /// all `tasks` results were delivered — a lost morsel is a hard error,
    /// never a silently dropped tuple range.
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        // One slot per task: every task writes only its own slot, so the
        // per-slot locks are never contended (no shared push bottleneck on
        // the execution hot path) and results need no sorting afterwards.
        let results: Vec<Mutex<Option<T>>> = (0..tasks)
            .map(|_| Mutex::new("pool.result_slot", None))
            .collect();
        {
            // The task body lives on *this* stack frame for the whole job.
            let body = |worker: usize, task: usize| {
                let value = f(worker, task);
                *results[task].lock() = Some(value);
            };
            // SAFETY of the lifetime-erasing cast: `JobCore` stores only a
            // raw pointer (no reference, no drop glue), and workers
            // dereference it strictly before signalling the task complete.
            // `job.wait()` — and, should anything unwind first, the
            // `CompletionGuard` below — keeps this frame (and with it
            // `body`, `f` and `results`) alive until every queued task has
            // completed, so no call can outlive the pointee.  A worker's
            // `Arc<JobCore>` may be freed after this frame is gone; by then
            // the core holds nothing that points into it except the inert
            // raw pointer.
            let erased: RawTaskFn = unsafe {
                std::mem::transmute::<*const (dyn Fn(usize, usize) + Sync + '_), RawTaskFn>(
                    &body as &(dyn Fn(usize, usize) + Sync),
                )
            };
            let job = Arc::new(JobCore {
                run: erased,
                tasks,
                progress: Mutex::new(
                    "pool.job_progress",
                    JobProgress {
                        queued: 0,
                        completed: 0,
                        panic: None,
                    },
                ),
                done: Condvar::new(),
            });
            let guard = CompletionGuard { job: &job };
            self.push_tasks(&job);
            job.wait();
            drop(guard); // all queued tasks completed — trivially satisfied
        }
        results
            .into_iter()
            .enumerate()
            .map(|(task, slot)| {
                // Hard invariant in every build profile: a task whose slot
                // is still empty was lost, and a dropped morsel would
                // silently lose tuples.
                slot.into_inner().unwrap_or_else(|| {
                    panic!("worker pool lost task {task} of {tasks}: no result delivered")
                })
            })
            .collect()
    }
}

/// A lazily-spawned [`WorkerPool`] of a fixed configured size.
///
/// The engine owns one of these per instance: a simulator engine that never
/// spills never touches it and therefore never spawns a thread, while the
/// first native execution (or spilling join) materialises the full pool
/// exactly once.  The workers are joined when the holder drops.
pub(crate) struct SharedWorkerPool {
    counters: WorkerCounters,
    cell: std::sync::OnceLock<WorkerPool>,
}

impl std::fmt::Debug for SharedWorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedWorkerPool")
            .field("size", &self.configured_workers())
            .field("spawned", &self.cell.get().is_some())
            .finish()
    }
}

impl SharedWorkerPool {
    /// A holder that will spawn one worker per entry of `counters` on
    /// first use, each counting into its own entry.
    pub(crate) fn new(counters: WorkerCounters) -> Self {
        SharedWorkerPool {
            counters,
            cell: std::sync::OnceLock::new(),
        }
    }

    /// The worker count the pool is (or will be) provisioned with.
    pub(crate) fn configured_workers(&self) -> usize {
        self.counters.tasks.len()
    }

    /// The pool, spawning its workers on the first call.
    pub(crate) fn get(&self) -> &WorkerPool {
        self.cell
            .get_or_init(|| WorkerPool::with_counters(self.counters.clone()))
    }
}

impl Drop for WorkerPool {
    /// Signals shutdown and joins every worker: an engine drop leaks no
    /// threads.  All jobs have necessarily completed (each `run` call holds
    /// a borrow of the pool until its job is done), so the deques are empty.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.park.lock());
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn morsel_ranges_cover_items_exactly_once() {
        let ranges = morsel_ranges(200_000, DEFAULT_MORSEL_TUPLES);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..65_536);
        assert_eq!(ranges.last().unwrap().end, 200_000);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 200_000);
        assert!(morsel_ranges(0, 64).is_empty());
        // Degenerate morsel size still terminates.
        assert_eq!(morsel_ranges(3, 0).len(), 3);
    }

    #[test]
    fn lanes_split_by_ratio_and_preserve_the_range() {
        let m = Morsel {
            step_series: StepSeries::Build,
            step: StepId::B1,
            range: 100..200,
        };
        assert_eq!(m.len(), 100);
        assert!(!m.is_empty());
        let lanes = split_range(m.range.clone(), 0.3);
        assert_eq!(lanes.cpu, 100..130);
        assert_eq!(lanes.gpu, 130..200);
        assert_eq!(split_range(m.range.clone(), 0.0).cpu.len(), 0);
        assert_eq!(split_range(m.range.clone(), 1.0).gpu.len(), 0);
        // Out-of-range ratios clamp instead of panicking.
        assert_eq!(split_range(m.range.clone(), 7.5).cpu, 100..200);
    }

    #[test]
    fn worker_pool_dispatches_every_task_exactly_once() {
        let pool = WorkerPool::new(7);
        assert_eq!(pool.workers(), 7);
        let seen: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let results = pool.run(1000, |_, task| {
            seen[task].fetch_add(1, Ordering::SeqCst);
            task * 2
        });
        assert!(seen.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        // Results come back in task order regardless of which worker ran what.
        assert_eq!(results.len(), 1000);
        assert!(results.iter().enumerate().all(|(i, &r)| r == i * 2));
        // Every executed task is accounted to exactly one worker counter.
        assert_eq!(
            read_counters(&pool.shared.counters.tasks)
                .iter()
                .sum::<u64>(),
            1000
        );
    }

    #[test]
    fn pool_workers_are_reused_across_jobs_not_respawned() {
        let pool = WorkerPool::new(3);
        for round in 0..10 {
            let results = pool.run(50, |_, task| task + round);
            assert_eq!(results.len(), 50);
        }
        // The same three threads served all ten jobs.
        assert_eq!(pool.live_workers(), 3);
        assert_eq!(
            read_counters(&pool.shared.counters.tasks)
                .iter()
                .sum::<u64>(),
            500
        );
    }

    #[test]
    fn idle_workers_steal_from_busy_ones() {
        // Deterministic rendezvous instead of a wall-clock sleep: one of the
        // two workers is pinned inside a gated job for the whole duration of
        // a second 64-task job.  That job's blocks land on *both* deques, so
        // the free worker can only finish it by stealing the pinned worker's
        // block from the back — the run would deadlock without stealing, and
        // no assertion depends on timing.
        const TASKS: usize = 64;
        let pool = WorkerPool::new(2);
        let gate = (Mutex::new("test.steal_gate", false), Condvar::new());
        let started = (Mutex::new("test.steal_started", false), Condvar::new());
        let pinned_worker = AtomicUsize::new(usize::MAX);
        let ran_by: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(usize::MAX)).collect();

        std::thread::scope(|scope| {
            let (pool, gate, started, pinned_worker) = (&pool, &gate, &started, &pinned_worker);
            scope.spawn(move || {
                pool.run(1, |worker, _| {
                    pinned_worker.store(worker, Ordering::SeqCst);
                    *started.0.lock() = true;
                    started.1.notify_all();
                    let mut open = gate.0.lock();
                    while !*open {
                        open = gate.1.wait(open);
                    }
                });
            });
            // Only submit the stealable job once a worker is provably pinned.
            let mut is_started = started.0.lock();
            while !*is_started {
                is_started = started.1.wait(is_started);
            }
            drop(is_started);

            pool.run(TASKS, |worker, task| {
                ran_by[task].store(worker, Ordering::SeqCst);
            });
            // The 64-task job completed while one worker was still pinned.
            *gate.0.lock() = true;
            gate.1.notify_all();
        });

        let pinned = pinned_worker.load(Ordering::SeqCst);
        let free = 1 - pinned;
        assert!(
            ran_by.iter().all(|w| w.load(Ordering::SeqCst) == free),
            "every task — including the block queued on the pinned worker's \
             deque — must have been run (stolen) by the free worker"
        );
    }

    #[test]
    fn a_job_of_several_tasks_wakes_every_worker() {
        // Each task waits until all of the job's tasks have started, so the
        // job only ends if the wake-up the submitter gives to one worker is
        // passed on until every worker runs (it would hang otherwise).
        // Workers are parked again between rounds.
        const WORKERS: usize = 5;
        let pool = WorkerPool::new(WORKERS);
        for _ in 0..20 {
            let arrived = (Mutex::new("test.wake_arrived", 0usize), Condvar::new());
            let workers = pool.run(WORKERS, |worker, _| {
                let mut count = arrived.0.lock();
                *count += 1;
                arrived.1.notify_all();
                while *count < WORKERS {
                    count = arrived.1.wait(count);
                }
                worker
            });
            let mut distinct = workers.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), WORKERS, "ran on workers {workers:?}");
        }
    }

    #[test]
    fn worker_pool_handles_more_workers_than_tasks() {
        let pool = WorkerPool::new(16);
        let results = pool.run(3, |_, task| task);
        assert_eq!(results, vec![0, 1, 2]);
        let empty: Vec<usize> = pool.run(0, |_, task| task);
        assert!(empty.is_empty());
    }

    #[test]
    fn concurrent_jobs_interleave_in_one_pool() {
        // Several submitter threads share the pool; each job's results stay
        // correct and in task order even though morsels from all jobs mix in
        // the same deques.
        let pool = WorkerPool::new(4);
        std::thread::scope(|scope| {
            for job in 0..6usize {
                let pool = &pool;
                scope.spawn(move || {
                    let results = pool.run(200, move |_, task| job * 1000 + task);
                    assert!(results
                        .iter()
                        .enumerate()
                        .all(|(i, &r)| r == job * 1000 + i));
                });
            }
        });
        assert_eq!(
            read_counters(&pool.shared.counters.tasks)
                .iter()
                .sum::<u64>(),
            1200
        );
    }

    #[test]
    fn dropping_the_pool_joins_every_worker() {
        let pool = WorkerPool::new(5);
        let gauge = pool.live_worker_gauge();
        assert_eq!(gauge.load(Ordering::Acquire), 5);
        pool.run(32, |_, task| task); // a pool that has actually worked
        drop(pool);
        assert_eq!(
            gauge.load(Ordering::Acquire),
            0,
            "drop must join every worker thread, not leak them"
        );
    }

    #[test]
    fn a_panicking_task_propagates_but_leaves_the_pool_usable() {
        let pool = WorkerPool::new(3);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(20, |_, task| {
                if task == 7 {
                    panic!("injected task panic");
                }
                task
            })
        }));
        assert!(unwound.is_err(), "the task panic must reach the submitter");
        // Every worker survived and the next job runs normally.
        assert_eq!(pool.live_workers(), 3);
        let results = pool.run(10, |_, task| task * 3);
        assert!(results.iter().enumerate().all(|(i, &r)| r == i * 3));
    }

    #[test]
    fn poisoned_locks_are_recovered_not_propagated() {
        // The facade (not a local helper) carries the recovery policy now:
        // a panic while holding an engine lock must not turn later
        // `stats()`/`submit()` calls into poison panics.
        let poisoned = std::sync::Arc::new(Mutex::new("test.poison", 7u32));
        let clone = std::sync::Arc::clone(&poisoned);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock();
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*poisoned.lock(), 7);
    }
}
