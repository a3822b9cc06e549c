//! Workload ratios and the pipelined-execution timing composition.
//!
//! A *ratio* `r_i ∈ [0, 1]` is the fraction of step `i`'s tuples processed by
//! the CPU (the rest goes to the GPU).  The three co-processing schemes of
//! the paper are all expressible as ratio vectors over a step series
//! (Section 3.2):
//!
//! * **OL** — every `r_i` is 0 or 1;
//! * **DD** — all `r_i` are equal;
//! * **PL** — arbitrary `r_i` per step.
//!
//! [`compose_pipeline`] combines per-device per-step times into the elapsed
//! time of the series (Eqs. 1, 2, 4 and 5 of the paper): each device's
//! total is the sum of its step times plus pipeline delays incurred when
//! consecutive steps use different ratios, and the series' elapsed time is
//! the maximum over the two devices.  It maps `SimTime` onto
//! [`hj_adaptive::solver::compose_steps`], the one copy of the composition,
//! which the cost model and the runtime ratio re-solver share.

use apu_sim::SimTime;
use hj_adaptive::solver::compose_steps;

/// Per-step CPU workload ratios for one step series.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratios(Vec<f64>);

impl Ratios {
    /// Creates a ratio vector, clamping every entry into `[0, 1]`.
    ///
    /// `f64::clamp` propagates NaN, which would poison the pipeline-timing
    /// composition (every comparison against a NaN ratio is false), so NaN
    /// entries are mapped to `0.0` (GPU-only, the conservative default).
    /// Request validation ([`crate::engine::JoinRequestBuilder::build`])
    /// still *rejects* non-finite ratios at the API boundary; this clamp is
    /// the last line of defence for internally constructed vectors.
    pub fn new(ratios: Vec<f64>) -> Self {
        Ratios(
            ratios
                .into_iter()
                .map(|r| if r.is_nan() { 0.0 } else { r.clamp(0.0, 1.0) })
                .collect(),
        )
    }

    /// A data-dividing vector: the same ratio for all `steps` steps.
    pub fn uniform(r: f64, steps: usize) -> Self {
        Ratios::new(vec![r; steps])
    }

    /// CPU-only execution of `steps` steps.
    pub fn cpu_only(steps: usize) -> Self {
        Ratios::uniform(1.0, steps)
    }

    /// GPU-only execution of `steps` steps.
    pub fn gpu_only(steps: usize) -> Self {
        Ratios::uniform(0.0, steps)
    }

    /// An off-loading vector: `true` entries run on the CPU, `false` on the
    /// GPU.
    pub fn offload(on_cpu: &[bool]) -> Self {
        Ratios::new(on_cpu.iter().map(|&c| if c { 1.0 } else { 0.0 }).collect())
    }

    /// The ratio of step `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no steps.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ratios as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// True when all ratios are equal (a DD schedule) within `1e-9`.
    pub(crate) fn is_uniform(&self) -> bool {
        self.0.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9)
    }

    /// Total fraction of tuples that change device between consecutive steps
    /// (`Σ |r_i − r_{i-1}|`); multiplied by the item count this is the amount
    /// of intermediate results the pipelined scheme materialises.
    pub(crate) fn intermediate_fraction(&self) -> f64 {
        self.0.windows(2).map(|w| (w[1] - w[0]).abs()).sum()
    }
}

impl From<Vec<f64>> for Ratios {
    fn from(v: Vec<f64>) -> Self {
        Ratios::new(v)
    }
}

/// The composed timing of one step series under pipelined co-processing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineTiming {
    /// CPU busy time (sum of its step times).
    pub cpu_busy: SimTime,
    /// GPU busy time (sum of its step times).
    pub gpu_busy: SimTime,
    /// Total pipeline delay charged to the CPU (Eq. 4).
    pub cpu_delay: SimTime,
    /// Total pipeline delay charged to the GPU (Eq. 5).
    pub gpu_delay: SimTime,
    /// Elapsed time of the series: `max(CPU total, GPU total)` (Eq. 1).
    pub elapsed: SimTime,
}

/// Composes per-device per-step times into the elapsed time of the series.
///
/// `cpu[i]` and `gpu[i]` are the times each device spends on its share of
/// step `i` (zero when its ratio gives it no tuples); `ratios[i]` is the CPU
/// share of step `i`.  Implements Eqs. 1, 2, 4, 5 of the paper through
/// [`compose_steps`].
///
/// # Panics
/// Panics if the three slices have different lengths.
pub fn compose_pipeline(cpu: &[SimTime], gpu: &[SimTime], ratios: &Ratios) -> PipelineTiming {
    assert_eq!(cpu.len(), gpu.len(), "per-device step counts differ");
    assert_eq!(
        cpu.len(),
        ratios.len(),
        "ratio count differs from step count"
    );
    let steps = cpu.iter().zip(gpu).zip(ratios.as_slice());
    let timing = compose_steps(steps.map(|((c, g), &r)| (c.as_ns(), g.as_ns(), r)));
    PipelineTiming {
        cpu_busy: SimTime::from_ns(timing.cpu_busy),
        gpu_busy: SimTime::from_ns(timing.gpu_busy),
        cpu_delay: SimTime::from_ns(timing.cpu_delay),
        gpu_delay: SimTime::from_ns(timing.gpu_delay),
        elapsed: SimTime::from_ns(timing.elapsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: f64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn ratios_constructors_and_queries() {
        let dd = Ratios::uniform(0.3, 4);
        assert!(dd.is_uniform());
        assert_eq!(dd.len(), 4);
        assert_eq!(dd.intermediate_fraction(), 0.0);

        let ol = Ratios::offload(&[false, true, true, false]);
        assert_eq!(ol.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
        assert!(!ol.is_uniform());
        assert!((ol.intermediate_fraction() - 2.0).abs() < 1e-12);

        assert_eq!(Ratios::cpu_only(3).as_slice(), &[1.0; 3]);
        assert_eq!(Ratios::gpu_only(3).as_slice(), &[0.0; 3]);
        assert!(Ratios::new(vec![]).is_empty());
    }

    #[test]
    fn ratios_are_clamped() {
        let r = Ratios::new(vec![-0.5, 1.5]);
        assert_eq!(r.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn nan_ratios_cannot_poison_the_timing() {
        let r = Ratios::new(vec![f64::NAN, 0.5, f64::NAN]);
        assert_eq!(r.as_slice(), &[0.0, 0.5, 0.0]);
        // A NaN-born ratio vector composes to finite times.
        let cpu = [t(10.0), t(20.0), t(30.0)];
        let gpu = [t(40.0), t(50.0), t(60.0)];
        let timing = compose_pipeline(&cpu, &gpu, &r);
        assert!(timing.elapsed.as_ns().is_finite());
        assert!(timing.elapsed >= t(150.0));
    }

    #[test]
    fn elapsed_is_max_of_device_totals() {
        let cpu = [t(10.0), t(10.0)];
        let gpu = [t(500.0), t(500.0)];
        let timing = compose_pipeline(&cpu, &gpu, &Ratios::uniform(0.1, 2));
        assert_eq!(timing.elapsed.as_ns(), 1000.0);
        assert_eq!(timing.cpu_busy.as_ns(), 20.0);
        assert_eq!(timing.gpu_busy.as_ns(), 1000.0);
        assert_eq!(timing.cpu_delay, SimTime::ZERO);
        assert_eq!(timing.gpu_delay, SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = compose_pipeline(&[t(1.0)], &[t(1.0), t(2.0)], &Ratios::uniform(0.5, 2));
    }
}
