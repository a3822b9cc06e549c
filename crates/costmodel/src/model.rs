//! The abstract cost model (Eqs. 1–5 of the paper).
//!
//! Given calibrated per-step unit costs, the model predicts the elapsed time
//! of a step series for any ratio vector: each device's per-step time is its
//! unit cost times its share of the tuples; pipeline delays are charged when
//! consecutive steps use different ratios; the series costs the slower of
//! the two devices.  Lock contention is intentionally not modelled
//! (Section 5.3), which is why measured times sit slightly above the
//! estimates.  The composition itself is the one copy in
//! `hj_adaptive::solver::compose_steps`.

use crate::params::{JoinUnitCosts, SeriesUnitCosts};
use apu_sim::SimTime;
use hj_core::adaptive::solver::compose_steps;
use hj_core::{RatioPlan, Ratios};

/// Cost model of one step series.
#[derive(Debug, Clone)]
pub struct SeriesCostModel {
    costs: SeriesUnitCosts,
}

impl SeriesCostModel {
    /// Wraps calibrated unit costs.
    pub fn new(costs: SeriesUnitCosts) -> Self {
        SeriesCostModel { costs }
    }

    /// The underlying unit costs.
    pub fn costs(&self) -> &SeriesUnitCosts {
        &self.costs
    }

    /// Number of steps in the series.
    pub(crate) fn num_steps(&self) -> usize {
        self.costs.len()
    }

    /// Estimated elapsed time of the series over `items` tuples with the
    /// given per-step CPU ratios (Eqs. 1–5).
    ///
    /// # Panics
    /// Panics if `ratios.len()` differs from the number of steps.
    pub fn estimate(&self, items: usize, ratios: &Ratios) -> SimTime {
        self.estimate_slice(items, ratios.as_slice())
    }

    /// [`Self::estimate`] over a plain ratio slice; it allocates nothing,
    /// so the ratio searches call it once per candidate.
    pub(crate) fn estimate_slice(&self, items: usize, ratios: &[f64]) -> SimTime {
        assert_eq!(ratios.len(), self.costs.len(), "ratio count mismatch");
        let x = items as f64;
        let steps = self.costs.cpu_ns.iter().zip(&self.costs.gpu_ns).zip(ratios);
        let timing = compose_steps(steps.map(|((&cpu_ns, &gpu_ns), &r)| {
            let cpu = SimTime::from_ns(cpu_ns * r * x);
            let gpu = SimTime::from_ns(gpu_ns * (1.0 - r) * x);
            (cpu.as_ns(), gpu.as_ns(), r)
        }));
        SimTime::from_ns(timing.elapsed)
    }
}

/// Cost model of a whole hash join (partition passes + build + probe).
#[derive(Debug, Clone)]
pub struct JoinCostModel {
    /// Model of one partition pass.
    pub partition: SeriesCostModel,
    /// Model of the build phase.
    pub build: SeriesCostModel,
    /// Model of the probe phase.
    pub probe: SeriesCostModel,
}

impl JoinCostModel {
    /// Builds the join model from calibrated unit costs.
    pub fn new(costs: JoinUnitCosts) -> Self {
        JoinCostModel {
            partition: SeriesCostModel::new(costs.partition),
            build: SeriesCostModel::new(costs.build),
            probe: SeriesCostModel::new(costs.probe),
        }
    }

    /// Estimated total elapsed time of a join of `build_tuples` ⨝
    /// `probe_tuples` under a ratio plan.
    ///
    /// `partition_passes` is 0 for SHJ; for PHJ each pass partitions both
    /// relations.
    pub(crate) fn estimate_total(
        &self,
        build_tuples: usize,
        probe_tuples: usize,
        partition_passes: u32,
        plan: &RatioPlan,
    ) -> SimTime {
        let mut total = SimTime::ZERO;
        for _ in 0..partition_passes {
            total += self.partition.estimate(build_tuples, &plan.partition);
            total += self.partition.estimate(probe_tuples, &plan.partition);
        }
        total += self.build.estimate(build_tuples, &plan.build);
        total += self.probe.estimate(probe_tuples, &plan.probe);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hj_core::StepId;

    fn build_series() -> SeriesCostModel {
        // Shapes from Figure 4: the hash step is ~15x faster on the GPU, the
        // pointer-chasing steps are roughly at parity.
        SeriesCostModel::new(SeriesUnitCosts::new(
            StepId::BUILD.to_vec(),
            vec![22.0, 5.0, 10.0, 6.0],
            vec![1.5, 4.0, 9.0, 5.0],
        ))
    }

    #[test]
    fn extremes_match_single_device_sums() {
        let m = build_series();
        let n = 1_000_000;
        let cpu = m.estimate(n, &Ratios::cpu_only(4));
        let gpu = m.estimate(n, &Ratios::gpu_only(4));
        assert!((cpu.as_ns() - (22.0 + 5.0 + 10.0 + 6.0) * n as f64).abs() < 1.0);
        assert!((gpu.as_ns() - (1.5 + 4.0 + 9.0 + 5.0) * n as f64).abs() < 1.0);
    }

    #[test]
    fn co_processing_beats_either_device_alone() {
        let m = build_series();
        let n = 1_000_000;
        let best_single = m
            .estimate(n, &Ratios::cpu_only(4))
            .min(m.estimate(n, &Ratios::gpu_only(4)));
        // Hash step on the GPU, the rest split roughly by relative speed.
        let pl = m.estimate(n, &Ratios::new(vec![0.0, 0.45, 0.5, 0.45]));
        assert!(pl < best_single, "PL {} vs best single {}", pl, best_single);
    }

    #[test]
    fn estimate_scales_linearly_with_items() {
        let m = build_series();
        let r = Ratios::uniform(0.3, 4);
        let t1 = m.estimate(100_000, &r);
        let t2 = m.estimate(200_000, &r);
        assert!((t2.as_ns() / t1.as_ns() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn join_model_includes_partition_passes() {
        let costs = JoinUnitCosts {
            partition: SeriesUnitCosts::new(
                StepId::PARTITION.to_vec(),
                vec![20.0, 4.0, 8.0],
                vec![1.5, 3.0, 7.0],
            ),
            build: SeriesUnitCosts::new(
                StepId::BUILD.to_vec(),
                vec![22.0, 5.0, 10.0, 6.0],
                vec![1.5, 4.0, 9.0, 5.0],
            ),
            probe: SeriesUnitCosts::new(
                StepId::PROBE.to_vec(),
                vec![22.0, 5.0, 10.0, 6.0],
                vec![1.5, 4.0, 9.0, 5.0],
            ),
        };
        let model = JoinCostModel::new(costs);
        let plan = RatioPlan::from_scheme(&hj_core::Scheme::data_dividing_paper()).unwrap();
        let shj = model.estimate_total(1_000_000, 1_000_000, 0, &plan);
        let phj = model.estimate_total(1_000_000, 1_000_000, 1, &plan);
        assert!(phj > shj);
    }

    #[test]
    #[should_panic]
    fn wrong_ratio_length_panics() {
        let m = build_series();
        let _ = m.estimate(10, &Ratios::uniform(0.5, 3));
    }
}
