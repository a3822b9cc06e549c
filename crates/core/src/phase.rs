//! Generic machinery for running one step series split between the CPU and
//! the GPU, and the per-phase execution record.
//!
//! Since the morsel refactor, `run_step` is morsel-driven: it enumerates
//! the task stream defined by `crate::pipeline` (one
//! [`crate::pipeline::Morsel`]-sized range per `morsel_tuples` tuples, see
//! [`ExecContext::morsel_tuples`]; computed arithmetically rather than
//! materialised), splitting *each morsel's* range between the devices by
//! the step's workload ratio.
//! The per-morsel lane costs accumulate into one per-device cost profile per
//! step, which [`compose_pipeline`] then combines exactly as before — the
//! simulator replays the same task stream the native backend submits to the
//! engine's persistent [`crate::pipeline::WorkerPool`].
//!
//! **Host pass, then replay.**  The simulator does a phase's real work (the
//! hash-table walks and inserts, the partition scatter) for each tuple once,
//! in a host pass before its steps run, and records per tuple what the
//! work found (see [`crate::build`], [`crate::probe`],
//! [`crate::partition`]).  Each step then *replays* its accounting through
//! `run_step`, one [`Lane`] at a time: morsel by morsel, each morsel's
//! CPU lane before its GPU lane, the order in which the kernels always
//! visited items.  The accounting is everything a simulated value depends on:
//!
//! * the [`CostRecorder`] totals, recorded per lane in bulk — every
//!   quantity is an integer, so the sums are those of item-by-item
//!   recording bit for bit — and the per-item work units in item order
//!   (wavefront packing depends on it);
//! * the allocator requests, in item order, a work group's run at a time
//!   (`Lane::group_runs`); per-lane deltas of the allocator counters are
//!   charged to the lane's device;
//! * the exact cache simulator's addresses, item by item;
//! * under [`Tuning::Adaptive`](crate::engine::Tuning), the tuner's
//!   telemetry, taken from the replayed recorders between morsel blocks.
//!
//! A lane stops at the first request the arena cannot serve, as the
//! per-item kernel did, so a join that runs out of space fails at the same
//! request with the same arena fill.

use crate::context::{group_for, ExecContext};
use crate::pipeline::split_range;
use crate::schedule::{compose_pipeline, PipelineTiming, Ratios};
use crate::steps::StepId;
use apu_sim::{CostRecorder, DeviceKind, KernelTime, Phase, SimTime, StepCost};
use hj_adaptive::Lane as AdaptiveLane;
use std::ops::Range;

/// Execution record of one step: how many items each device processed, the
/// measured cost profiles and the resulting simulated kernel times.
#[derive(Debug, Clone)]
pub struct StepExecution {
    /// Which step this was.
    pub step: StepId,
    /// Items processed by the CPU.
    pub cpu_items: usize,
    /// Items processed by the GPU.
    pub gpu_items: usize,
    /// Morsels the step's tuple range was decomposed into.
    pub morsels: usize,
    /// Measured cost profile of the CPU portion.
    pub cpu_cost: StepCost,
    /// Measured cost profile of the GPU portion.
    pub gpu_cost: StepCost,
    /// Simulated time of the CPU portion.
    pub cpu_time: KernelTime,
    /// Simulated time of the GPU portion.
    pub gpu_time: KernelTime,
}

impl StepExecution {
    /// Per-tuple unit cost on one device (`None` when that device processed
    /// no items) — the quantity plotted in Figure 4.
    pub fn unit_cost(&self, kind: DeviceKind) -> Option<SimTime> {
        let (items, time) = match kind {
            DeviceKind::Cpu => (self.cpu_items, self.cpu_time.total()),
            DeviceKind::Gpu => (self.gpu_items, self.gpu_time.total()),
        };
        if items == 0 {
            None
        } else {
            Some(time / items as f64)
        }
    }
}

/// Execution record of one step series (one phase, or one partition pass).
#[derive(Debug, Clone)]
pub struct PhaseExecution {
    /// Which join phase this series belongs to.
    pub phase: Phase,
    /// The workload ratios used.
    pub ratios: Ratios,
    /// Per-step execution records.
    pub steps: Vec<StepExecution>,
    /// The composed pipeline timing (Eqs. 1–5).
    pub timing: PipelineTiming,
    /// Tuples that crossed devices between consecutive steps.
    pub intermediate_tuples: u64,
}

impl PhaseExecution {
    /// Builds the phase record from its per-step executions, composing the
    /// pipeline timing.
    pub(crate) fn from_steps(
        phase: Phase,
        ratios: Ratios,
        steps: Vec<StepExecution>,
        items: usize,
    ) -> Self {
        let cpu: Vec<SimTime> = steps.iter().map(|s| s.cpu_time.total()).collect();
        let gpu: Vec<SimTime> = steps.iter().map(|s| s.gpu_time.total()).collect();
        let timing = compose_pipeline(&cpu, &gpu, &ratios);
        let intermediate_tuples = (ratios.intermediate_fraction() * items as f64).round() as u64;
        PhaseExecution {
            phase,
            ratios,
            steps,
            timing,
            intermediate_tuples,
        }
    }

    /// Elapsed simulated time of the series.
    pub fn elapsed(&self) -> SimTime {
        self.timing.elapsed
    }

    /// Sum of a device's busy time across all steps.
    pub fn device_busy(&self, kind: DeviceKind) -> SimTime {
        match kind {
            DeviceKind::Cpu => self.timing.cpu_busy,
            DeviceKind::Gpu => self.timing.gpu_busy,
        }
    }
}

/// The per-step CPU ratios a series *actually* executed with, recovered
/// from the step records (`cpu_items / items` per step); steps that
/// processed nothing fall back to the planned ratio.
///
/// Under static tuning this equals the plan (up to per-morsel rounding);
/// under [`Tuning::Adaptive`](crate::engine::Tuning) the re-planner may
/// have shifted ratios mid-phase, and the pipeline-timing composition
/// should describe what ran, not what was planned.
pub(crate) fn effective_ratios(steps: &[StepExecution], planned: &Ratios) -> Ratios {
    Ratios::new(
        steps
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let total = s.cpu_items + s.gpu_items;
                if total == 0 {
                    planned.get(i)
                } else {
                    s.cpu_items as f64 / total as f64
                }
            })
            .collect(),
    )
}

/// The ratios a phase record should carry: the observed
/// [`effective_ratios`] when the context runs an adaptive tuner (the
/// re-planner may have shifted the plan mid-phase), the planned ratios
/// otherwise — shared by the build/probe/partition runners.
pub(crate) fn recorded_ratios(
    ctx: &ExecContext<'_>,
    steps: &[StepExecution],
    planned: &Ratios,
) -> Ratios {
    if ctx.tuner.is_some() {
        effective_ratios(steps, planned)
    } else {
        planned.clone()
    }
}

/// One device's slice of one morsel: the unit a step body replays at once.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The device running the slice.
    pub kind: DeviceKind,
    /// The slice's item positions, in increasing order.
    pub items: Range<usize>,
    /// Position of `items.start` within the items the device's work groups
    /// are spread over.
    offset: usize,
    /// Items the device's work groups are spread over.
    span: usize,
}

impl Lane {
    /// The allocator work group of item `pos` (one of [`Lane::items`]):
    /// each device's work groups take contiguous runs of its share.
    #[inline]
    pub fn group(&self, pos: usize) -> usize {
        group_for(self.kind, self.offset + (pos - self.items.start), self.span)
    }

    /// The lane's items split into runs that share one work group, in
    /// order, each with its group: a run's allocations can be replayed
    /// with one [`mem_alloc::KernelAllocator::alloc_many`].
    pub(crate) fn group_runs(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let mut start = self.items.start;
        std::iter::from_fn(move || {
            if start >= self.items.end {
                return None;
            }
            let group = self.group(start);
            // Groups never decrease along a lane: find where this one ends.
            let (mut lo, mut hi) = (start + 1, self.items.end);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.group(mid) == group {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let run = start..lo;
            start = lo;
            Some((group, run))
        })
    }
}

/// Runs one step over `items` items, splitting them between the devices by
/// `ratio`, and returns the execution record.
///
/// The step's tuple range is decomposed into morsels of
/// [`ExecContext::morsel_tuples`] tuples; `ratio` splits *each morsel* into
/// a CPU lane (prefix) and a GPU lane (suffix), so items are still visited
/// in globally increasing order — the real work is byte-identical to a
/// monolithic pass — while the device split is decided at morsel
/// granularity, as the scheduler dispatches it.
///
/// `body` is invoked once per [`Lane`] — morsel by morsel, each morsel's
/// CPU lane before its GPU lane — with `(ctx, lane, recorder)`, and records
/// the lane's cost.  Allocator activity during each lane is attributed to
/// its device automatically.
pub(crate) fn run_step<F>(
    ctx: &mut ExecContext<'_>,
    step: StepId,
    items: usize,
    ratio: f64,
    working_set_bytes: f64,
    mut body: F,
) -> StepExecution
where
    F: FnMut(&mut ExecContext<'_>, &Lane, &mut CostRecorder),
{
    if ctx.tuner.is_some() {
        return run_step_adaptive(ctx, step, items, working_set_bytes, body);
    }
    // Morsels are enumerated arithmetically (no materialised range list) so
    // a degenerate morsel size on a large relation does not allocate.
    let morsel = ctx.morsel_tuples.max(1);
    let morsels = items.div_ceil(morsel);
    let morsel_lanes = |m: usize| split_range(m * morsel..((m + 1) * morsel).min(items), ratio);
    let cpu_total: usize = (0..morsels).map(|m| morsel_lanes(m).cpu.len()).sum();
    let gpu_total = items - cpu_total;
    let totals = [cpu_total, gpu_total];

    let mut recorders = [
        ctx.recorder_for(DeviceKind::Cpu),
        ctx.recorder_for(DeviceKind::Gpu),
    ];
    // Running per-device offsets so work-group assignment spans the whole
    // device share, not just one morsel's lane.
    let mut offsets = [0usize; 2];

    for m in 0..morsels {
        let lanes = morsel_lanes(m);
        for (slot, kind, range) in [
            (0, DeviceKind::Cpu, lanes.cpu),
            (1, DeviceKind::Gpu, lanes.gpu),
        ] {
            if range.is_empty() {
                continue;
            }
            let lane = Lane {
                kind,
                offset: offsets[slot],
                span: totals[slot],
                items: range,
            };
            replay_lane(ctx, &lane, &mut recorders[slot], &mut body);
            offsets[slot] += lane.items.len();
        }
    }
    let [cpu_rec, gpu_rec] = recorders;
    let costs = [cpu_rec.finish(), gpu_rec.finish()];
    seal_step(ctx, step, morsels, totals, costs, working_set_bytes)
}

/// Runs `body` over one lane and charges the allocator atomics it caused
/// to the lane's device.
fn replay_lane<F>(ctx: &mut ExecContext<'_>, lane: &Lane, rec: &mut CostRecorder, body: &mut F)
where
    F: FnMut(&mut ExecContext<'_>, &Lane, &mut CostRecorder),
{
    let before = ctx.alloc_snapshot();
    body(ctx, lane, rec);
    let delta = ctx.alloc_snapshot().delta_since(&before);
    rec.serial_atomic(delta.global_atomics as f64);
    rec.local_atomic(delta.local_atomics as f64);
}

/// Shared tail of the static and adaptive step runners: turns the
/// finalised per-device cost profiles into kernel times, charges the
/// run-wide counters and builds the [`StepExecution`] record — one place,
/// so counter accounting cannot drift between the two paths.
fn seal_step(
    ctx: &mut ExecContext<'_>,
    step: StepId,
    morsels: usize,
    totals: [usize; 2],
    costs: [StepCost; 2],
    working_set_bytes: f64,
) -> StepExecution {
    let [cpu_cost, gpu_cost] = costs;
    let cpu_mem = ctx.mem_ctx(DeviceKind::Cpu, working_set_bytes);
    let gpu_mem = ctx.mem_ctx(DeviceKind::Gpu, working_set_bytes);
    let cpu_time = ctx.device(DeviceKind::Cpu).kernel_time(&cpu_cost, &cpu_mem);
    let gpu_time = ctx.device(DeviceKind::Gpu).kernel_time(&gpu_cost, &gpu_mem);

    ctx.counters.lock_overhead += cpu_time.atomic + gpu_time.atomic;
    ctx.counters.divergence_overhead += cpu_time.divergence_overhead + gpu_time.divergence_overhead;
    let cpu_accesses = cpu_cost.random_reads + cpu_cost.random_writes;
    let gpu_accesses = gpu_cost.random_reads + gpu_cost.random_writes;
    ctx.counters.analytic_accesses += cpu_accesses + gpu_accesses;
    ctx.counters.analytic_misses += cpu_accesses * (1.0 - cpu_mem.random_hit_rate)
        + gpu_accesses * (1.0 - gpu_mem.random_hit_rate);

    StepExecution {
        step,
        cpu_items: totals[0],
        gpu_items: totals[1],
        morsels,
        cpu_cost,
        gpu_cost,
        cpu_time,
        gpu_time,
    }
}

/// The adaptive variant of [`run_step`]: morsels are processed in blocks of
/// [`hj_adaptive::AdaptiveConfig::replan_every_morsels`] morsels, each
/// block's per-lane simulated times are fed to the context's
/// [`hj_adaptive::RatioTuner`] as telemetry, and every block takes its CPU
/// ratio from the tuner's *current* plan — so the remaining morsels of a
/// step are re-planned as evidence accumulates, and the next execution of
/// the same step kind (the next partition pass, partition pair or
/// out-of-core chunk) starts from the step-boundary re-plan.  The step's
/// planned ratio seeded the tuner (via the engine), so an untouched tuner
/// runs the offline plan unchanged.
///
/// Items are still visited in globally increasing order (each morsel's CPU
/// lane is its prefix), so the real work — and with it the join result —
/// is byte-identical to the static path regardless of what the tuner does;
/// only the simulated device placement changes.
fn run_step_adaptive<F>(
    ctx: &mut ExecContext<'_>,
    step: StepId,
    items: usize,
    working_set_bytes: f64,
    mut body: F,
) -> StepExecution
where
    F: FnMut(&mut ExecContext<'_>, &Lane, &mut CostRecorder),
{
    // Take the tuner out for the duration: `body` needs `&mut ctx` while
    // the tuner is consulted between blocks.
    let mut tuner = ctx.tuner.take().expect("adaptive path requires a tuner");
    let (series, step_idx) = step.series_index();
    let kind = series.adaptive_kind();
    let morsel = ctx.morsel_tuples.max(1);
    let morsels = items.div_ceil(morsel);
    let block = match tuner.replan_every_morsels() {
        0 => usize::MAX, // step-boundary re-planning only: one block
        k => k,
    };

    let cpu_mem = ctx.mem_ctx(DeviceKind::Cpu, working_set_bytes);
    let gpu_mem = ctx.mem_ctx(DeviceKind::Gpu, working_set_bytes);
    let mems = [cpu_mem, gpu_mem];

    // One recorder per device for the *whole* step, exactly as in the
    // static path: wavefronts pack continuously across blocks, so the
    // telemetry below (deltas of the cumulative kernel time) is free of
    // the per-launch partial-wavefront quantisation that would otherwise
    // inflate a shrinking lane's measured unit cost right before its
    // ratio converges to 0 or 1.
    let mut recorders = [
        ctx.recorder_for(DeviceKind::Cpu),
        ctx.recorder_for(DeviceKind::Gpu),
    ];
    let mut totals = [0usize; 2];
    // Running per-device offsets for work-group assignment, as in the
    // static path.  The device's final share is unknown while ratios move,
    // so groups are spread over the step's full item count (an upper
    // bound): consecutive tuples still land in the same group for long
    // runs, which is what the block allocator's amortisation needs —
    // per-lane assignment would smear a few tuples over every group and
    // pay a fresh block allocation each.
    let mut offsets = [0usize; 2];

    let mut m = 0usize;
    while m < morsels {
        let block_end = m.saturating_add(block).min(morsels);
        let r = tuner.ratio(kind, step_idx);
        let mut block_items = [0usize; 2];
        for mi in m..block_end {
            let lanes = split_range(mi * morsel..((mi + 1) * morsel).min(items), r);
            for (slot, lane_kind, range) in [
                (0, DeviceKind::Cpu, lanes.cpu),
                (1, DeviceKind::Gpu, lanes.gpu),
            ] {
                if range.is_empty() {
                    continue;
                }
                let lane = Lane {
                    kind: lane_kind,
                    offset: offsets[slot],
                    span: items,
                    items: range,
                };
                replay_lane(ctx, &lane, &mut recorders[slot], &mut body);
                block_items[slot] += lane.items.len();
                offsets[slot] += lane.items.len();
            }
        }
        // Telemetry: each device's *cumulative* virtual time and item count
        // for this step (the simulator's event clock is the ground truth on
        // sim backends).  Observing the running step average — rather than
        // the block's own delta — keeps the estimate anchored to the same
        // quantity offline calibration measures: per-tuple work can trend
        // along the step (grouping sorts tuples by work), and a
        // recency-weighted estimator fed raw block deltas would converge to
        // the tail's economics instead of the step's.  The cumulative view
        // also keeps tiny exploration lanes honest: their wavefronts pack
        // continuously in the step-wide recorder instead of being quantised
        // per block.
        for (slot, lane, lane_kind) in [
            (0, AdaptiveLane::Cpu, DeviceKind::Cpu),
            (1, AdaptiveLane::Gpu, DeviceKind::Gpu),
        ] {
            totals[slot] += block_items[slot];
            if block_items[slot] == 0 {
                continue;
            }
            let cumulative_ns = ctx
                .device(lane_kind)
                .kernel_time(&recorders[slot].snapshot(), &mems[slot])
                .total()
                .as_ns();
            if cumulative_ns > 0.0 {
                tuner.observe(kind, step_idx, lane, totals[slot], cumulative_ns);
            }
        }
        tuner.morsel_tick(kind, block_end - m);
        m = block_end;
    }
    let [cpu_rec, gpu_rec] = recorders;
    let costs = [cpu_rec.finish(), gpu_rec.finish()];
    // Step boundary: re-plan the series for its next execution (the next
    // pass, pair or chunk) even when the intra-step cadence never fired.
    tuner.step_boundary(kind);
    ctx.tuner = Some(tuner);

    seal_step(ctx, step, morsels, totals, costs, working_set_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::SystemSpec;
    use mem_alloc::AllocatorKind;

    #[test]
    fn split_range_respects_ratio_bounds() {
        assert_eq!(split_range(0..100, 0.0).cpu.len(), 0);
        assert_eq!(split_range(0..100, 1.0).cpu.len(), 100);
        assert_eq!(split_range(0..100, 0.25).cpu.len(), 25);
        assert_eq!(split_range(0..100, 2.0).cpu.len(), 100);
        let lanes = split_range(0..7, 0.5);
        assert_eq!(lanes.cpu.len() + lanes.gpu.len(), 7);
    }

    #[test]
    fn run_step_splits_and_times_both_devices() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let exec = run_step(&mut ctx, StepId::B1, 1000, 0.3, 0.0, |_, lane, rec| {
            rec.items(lane.items.len(), 100.0);
        });
        assert_eq!(exec.cpu_items, 300);
        assert_eq!(exec.gpu_items, 700);
        assert!(exec.cpu_time.total() > SimTime::ZERO);
        assert!(exec.gpu_time.total() > SimTime::ZERO);
        assert!(exec.unit_cost(DeviceKind::Cpu).is_some());
    }

    #[test]
    fn run_step_attributes_allocator_atomics_to_the_right_device() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::Basic, 1 << 20, false);
        // Only the GPU portion allocates.
        let exec = run_step(&mut ctx, StepId::B3, 100, 0.5, 0.0, |ctx, lane, rec| {
            rec.items(lane.items.len(), 10.0);
            if lane.kind == DeviceKind::Gpu {
                for pos in lane.items.clone() {
                    ctx.allocator.alloc(lane.group(pos), 8);
                }
            }
        });
        assert_eq!(exec.cpu_cost.serial_atomics, 0.0);
        assert!(exec.gpu_cost.serial_atomics >= 50.0);
    }

    #[test]
    fn group_runs_cover_the_lane_in_order() {
        for (kind, offset, span, items) in [
            (DeviceKind::Cpu, 0, 1000, 0..1000),
            (DeviceKind::Gpu, 70, 1000, 300..700),
            (DeviceKind::Gpu, 0, 10, 0..10),
            (DeviceKind::Cpu, 5, 7, 2..4),
        ] {
            let lane = Lane {
                kind,
                items: items.clone(),
                offset,
                span,
            };
            let mut next = items.start;
            for (group, run) in lane.group_runs() {
                assert_eq!(run.start, next);
                assert!(!run.is_empty());
                assert!(run.clone().all(|pos| lane.group(pos) == group));
                next = run.end;
            }
            assert_eq!(next, items.end);
        }
    }

    #[test]
    fn phase_execution_composes_steps() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let ratios = Ratios::new(vec![0.0, 1.0]);
        let s1 = run_step(
            &mut ctx,
            StepId::B1,
            500,
            ratios.get(0),
            0.0,
            |_, lane, rec| rec.items(lane.items.len(), 50.0),
        );
        let s2 = run_step(
            &mut ctx,
            StepId::B2,
            500,
            ratios.get(1),
            0.0,
            |_, lane, rec| rec.items(lane.items.len(), 50.0),
        );
        let phase = PhaseExecution::from_steps(Phase::Build, ratios, vec![s1, s2], 500);
        assert_eq!(phase.steps.len(), 2);
        assert_eq!(phase.intermediate_tuples, 500);
        assert!(phase.elapsed() >= phase.device_busy(DeviceKind::Cpu));
    }

    #[test]
    fn morsel_decomposition_preserves_order_and_counts() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx =
            ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false).with_morsel_tuples(128);
        let mut visited = Vec::new();
        let exec = run_step(&mut ctx, StepId::B1, 1000, 0.3, 0.0, |_, lane, rec| {
            visited.extend(lane.items.clone());
            rec.items(lane.items.len(), 10.0);
        });
        assert_eq!(exec.morsels, 8);
        assert_eq!(exec.cpu_items + exec.gpu_items, 1000);
        // Every item exactly once, in globally increasing order (each
        // morsel's CPU lane is its prefix), so the real work matches a
        // monolithic pass byte for byte.
        assert_eq!(visited.len(), 1000);
        assert!(visited.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_morsel_matches_the_monolithic_split() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let exec = run_step(&mut ctx, StepId::P1, 1000, 0.3, 0.0, |_, lane, rec| {
            rec.items(lane.items.len(), 1.0);
        });
        assert_eq!(exec.morsels, 1);
        let lanes = split_range(0..1000, 0.3);
        assert_eq!(exec.cpu_items, lanes.cpu.len());
        assert_eq!(exec.gpu_items, lanes.gpu.len());
    }

    #[test]
    fn unit_cost_is_none_for_idle_device() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let exec = run_step(&mut ctx, StepId::P1, 10, 1.0, 0.0, |_, lane, rec| {
            rec.items(lane.items.len(), 1.0);
        });
        assert!(exec.unit_cost(DeviceKind::Gpu).is_none());
        assert!(exec.unit_cost(DeviceKind::Cpu).is_some());
    }
}
