//! Calibrated per-step unit costs (the model parameters of Table 2).

use hj_core::StepId;

/// Per-step, per-device unit costs (nanoseconds per input tuple) of one step
/// series, excluding latch/lock contention.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesUnitCosts {
    /// The steps of the series, in order.
    pub steps: Vec<StepId>,
    /// Unit cost of each step on the CPU, ns per tuple.
    pub cpu_ns: Vec<f64>,
    /// Unit cost of each step on the GPU, ns per tuple.
    pub gpu_ns: Vec<f64>,
}

impl SeriesUnitCosts {
    /// Creates a series cost table.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn new(steps: Vec<StepId>, cpu_ns: Vec<f64>, gpu_ns: Vec<f64>) -> Self {
        assert_eq!(steps.len(), cpu_ns.len());
        assert_eq!(steps.len(), gpu_ns.len());
        SeriesUnitCosts {
            steps,
            cpu_ns,
            gpu_ns,
        }
    }

    /// Number of steps in the series.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the series has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The GPU speedup of step `i` (CPU unit cost / GPU unit cost), the
    /// quantity the calibration tests check against Figure 4.
    #[cfg(test)]
    pub(crate) fn gpu_speedup(&self, i: usize) -> f64 {
        if self.gpu_ns[i] <= 0.0 {
            f64::INFINITY
        } else {
            self.cpu_ns[i] / self.gpu_ns[i]
        }
    }
}

/// Unit costs for all three step series of a hash join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinUnitCosts {
    /// One partition pass (`n1..n3`); empty for SHJ.
    pub partition: SeriesUnitCosts,
    /// The build phase (`b1..b4`).
    pub build: SeriesUnitCosts,
    /// The probe phase (`p1..p4`).
    pub probe: SeriesUnitCosts,
}

impl JoinUnitCosts {
    /// Renders the unit-cost table in the layout of Figure 4 (one row per
    /// step: CPU ns/tuple, GPU ns/tuple).
    pub fn figure4_rows(&self) -> Vec<(StepId, f64, f64)> {
        let mut rows = Vec::new();
        for series in [&self.partition, &self.build, &self.probe] {
            for i in 0..series.len() {
                rows.push((series.steps[i], series.cpu_ns[i], series.gpu_ns[i]));
            }
        }
        rows
    }

    /// Extracts these calibrated unit costs as a prior for the adaptive
    /// runtime tuner: seeding `AdaptiveConfig::with_prior` with this lets
    /// the very first re-plan solve every step, while execution telemetry
    /// progressively overrides the seed — the offline model proposes, the
    /// runtime disposes.
    pub fn adaptive_prior(&self) -> hj_core::adaptive::JoinPrior {
        let series = |costs: &SeriesUnitCosts| hj_core::adaptive::SeriesPrior {
            cpu_ns: costs.cpu_ns.clone(),
            gpu_ns: costs.gpu_ns.clone(),
        };
        hj_core::adaptive::JoinPrior {
            partition: series(&self.partition),
            build: series(&self.build),
            probe: series(&self.probe),
        }
    }

    /// A deliberately mis-calibrated copy with the CPU and GPU columns
    /// swapped — the worst-case wrong prior (it claims the slow device is
    /// the fast one for every step).  Used by the adaptive benchmark and
    /// tests to measure how much of the gap to an oracle-tuned run the
    /// runtime tuner recovers.
    pub fn swapped_devices(&self) -> JoinUnitCosts {
        let swap = |costs: &SeriesUnitCosts| {
            SeriesUnitCosts::new(
                costs.steps.clone(),
                costs.gpu_ns.clone(),
                costs.cpu_ns.clone(),
            )
        };
        JoinUnitCosts {
            partition: swap(&self.partition),
            build: swap(&self.build),
            probe: swap(&self.probe),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accessors() {
        let s = SeriesUnitCosts::new(
            vec![StepId::B1, StepId::B2],
            vec![20.0, 5.0],
            vec![1.5, 4.0],
        );
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!((s.gpu_speedup(0) - 20.0 / 1.5).abs() < 1e-9);
        assert!(s.gpu_speedup(1) < 2.0);
    }

    #[test]
    fn figure4_rows_cover_all_steps() {
        let costs = JoinUnitCosts {
            partition: SeriesUnitCosts::new(StepId::PARTITION.to_vec(), vec![1.0; 3], vec![1.0; 3]),
            build: SeriesUnitCosts::new(StepId::BUILD.to_vec(), vec![1.0; 4], vec![1.0; 4]),
            probe: SeriesUnitCosts::new(StepId::PROBE.to_vec(), vec![1.0; 4], vec![1.0; 4]),
        };
        assert_eq!(costs.figure4_rows().len(), 11);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = SeriesUnitCosts::new(vec![StepId::B1], vec![1.0, 2.0], vec![1.0]);
    }

    fn sample_costs() -> JoinUnitCosts {
        JoinUnitCosts {
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
                vec![23.0, 5.0, 9.0, 6.0],
                vec![1.4, 4.0, 8.5, 5.0],
            ),
        }
    }

    #[test]
    fn adaptive_prior_mirrors_the_unit_costs() {
        let costs = sample_costs();
        let prior = costs.adaptive_prior();
        assert_eq!(prior.build.cpu_ns, costs.build.cpu_ns);
        assert_eq!(prior.probe.gpu_ns, costs.probe.gpu_ns);
        assert_eq!(prior.partition.cpu_ns.len(), 3);
        // The prior validates against the tuner's shape requirements.
        assert!(hj_core::adaptive::AdaptiveConfig::default()
            .with_prior(prior)
            .validate()
            .is_ok());
    }

    #[test]
    fn swapped_devices_inverts_every_speedup() {
        let costs = sample_costs();
        let bad = costs.swapped_devices();
        assert_eq!(bad.build.cpu_ns, costs.build.gpu_ns);
        assert_eq!(bad.build.gpu_ns, costs.build.cpu_ns);
        // The hash step now (wrongly) looks CPU-friendly.
        assert!(bad.build.gpu_speedup(0) < 1.0);
        assert!(costs.build.gpu_speedup(0) > 1.0);
        // Swapping twice round-trips.
        assert_eq!(bad.swapped_devices(), costs);
    }
}
