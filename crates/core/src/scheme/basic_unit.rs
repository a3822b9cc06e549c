//! The BasicUnit coarse-grained dynamic scheduler (Appendix A).
//!
//! BasicUnit splits the input into fixed-size chunks and dispatches each
//! chunk, in order, to whichever device becomes idle first; the chunk then
//! runs *all* steps of the phase on that device.  Compared with the paper's
//! fine-grained co-processing it has two deficiencies it demonstrates
//! experimentally (Figure 16): the CPU ends up executing non-CPU-friendly
//! steps (and vice versa), and per-chunk scheduling adds overhead.

use crate::context::ExecContext;
use crate::error::JoinError;
use apu_sim::{DeviceClocks, DeviceKind, SimTime};
use std::ops::Range;

/// Default dispatch overhead in nanoseconds (20 µs per chunk).
pub(crate) const CHUNK_DISPATCH_OVERHEAD_NS: f64 = 20_000.0;

/// Outcome of scheduling one phase with BasicUnit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ChunkSchedule {
    /// Elapsed time of the phase (`max` of the two device clocks).
    pub elapsed: SimTime,
    /// Total busy time of the CPU.
    pub cpu_busy: SimTime,
    /// Total busy time of the GPU.
    pub gpu_busy: SimTime,
    /// Tuples dispatched to the CPU.
    pub cpu_items: usize,
    /// Tuples dispatched to the GPU.
    pub gpu_items: usize,
    /// Number of chunks dispatched.
    pub chunks: usize,
}

impl ChunkSchedule {
    /// The fraction of tuples the CPU ended up processing — the quantity
    /// shown in Figures 17 and 18.
    pub(crate) fn cpu_ratio(&self) -> f64 {
        let total = self.cpu_items + self.gpu_items;
        if total == 0 {
            0.0
        } else {
            self.cpu_items as f64 / total as f64
        }
    }
}

/// Greedily schedules `items` tuples in chunks of `chunk` onto the device
/// that becomes idle first.
///
/// `run_chunk(ctx, range, device)` executes the whole phase for the chunk on
/// that device and returns its simulated elapsed time; its error (typically
/// arena exhaustion) aborts the schedule.
pub(crate) fn run_chunks<F>(
    ctx: &mut ExecContext<'_>,
    items: usize,
    chunk: usize,
    mut run_chunk: F,
) -> Result<ChunkSchedule, JoinError>
where
    F: FnMut(&mut ExecContext<'_>, Range<usize>, DeviceKind) -> Result<SimTime, JoinError>,
{
    let chunk = chunk.max(1);
    let mut schedule = ChunkSchedule::default();
    let mut clocks = DeviceClocks::new();
    let overhead = SimTime::from_ns(CHUNK_DISPATCH_OVERHEAD_NS);

    let mut start = 0usize;
    while start < items {
        let end = (start + chunk).min(items);
        let device = clocks.idlest();
        let time = run_chunk(ctx, start..end, device)? + overhead;
        clocks.advance(device, time);
        match device {
            DeviceKind::Cpu => {
                schedule.cpu_busy += time;
                schedule.cpu_items += end - start;
            }
            DeviceKind::Gpu => {
                schedule.gpu_busy += time;
                schedule.gpu_items += end - start;
            }
        }
        schedule.chunks += 1;
        start = end;
    }

    schedule.elapsed = clocks.elapsed();
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::SystemSpec;
    use mem_alloc::AllocatorKind;

    #[test]
    fn chunks_cover_all_items_exactly_once() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let mut seen = vec![false; 1000];
        let schedule = run_chunks(&mut ctx, 1000, 128, |_, range, _| {
            for i in range {
                assert!(!seen[i], "item {i} dispatched twice");
                seen[i] = true;
            }
            Ok(SimTime::from_us(10.0))
        })
        .unwrap();
        assert!(seen.iter().all(|&s| s));
        assert_eq!(schedule.cpu_items + schedule.gpu_items, 1000);
        assert_eq!(schedule.chunks, 8);
    }

    #[test]
    fn faster_device_receives_more_chunks() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        // GPU chunks finish 4x faster than CPU chunks.
        let schedule = run_chunks(&mut ctx, 64_000, 1000, |_, range, device| {
            let per_item = match device {
                DeviceKind::Cpu => 400.0,
                DeviceKind::Gpu => 100.0,
            };
            Ok(SimTime::from_ns(per_item * range.len() as f64))
        })
        .unwrap();
        assert!(
            schedule.gpu_items > 2 * schedule.cpu_items,
            "gpu={} cpu={}",
            schedule.gpu_items,
            schedule.cpu_items
        );
        let r = schedule.cpu_ratio();
        assert!(r > 0.05 && r < 0.45, "cpu ratio {r}");
        // The greedy schedule keeps both devices reasonably balanced.
        let diff = schedule
            .cpu_busy
            .max(schedule.gpu_busy)
            .saturating_sub(schedule.cpu_busy.min(schedule.gpu_busy));
        assert!(diff < schedule.elapsed * 0.2);
    }

    #[test]
    fn dispatch_overhead_is_charged_per_chunk() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let tiny_chunks = run_chunks(&mut ctx, 10_000, 100, |_, _, _| Ok(SimTime::ZERO)).unwrap();
        let big_chunks = run_chunks(&mut ctx, 10_000, 5_000, |_, _, _| Ok(SimTime::ZERO)).unwrap();
        assert!(tiny_chunks.elapsed > big_chunks.elapsed);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let sys = SystemSpec::coupled_a8_3870k();
        let mut ctx = ExecContext::new(&sys, AllocatorKind::tuned(), 1 << 20, false);
        let schedule = run_chunks(&mut ctx, 0, 128, |_, _, _| Ok(SimTime::from_secs(1.0))).unwrap();
        assert_eq!(schedule.chunks, 0);
        assert_eq!(schedule.elapsed, SimTime::ZERO);
        assert_eq!(schedule.cpu_ratio(), 0.0);
    }
}
