//! # hj-adaptive — online cost-model feedback for per-step CPU/GPU ratios
//!
//! The offline cost model of the `costmodel` crate picks workload ratios
//! *once*, before execution.  A mis-calibrated prior or a skewed input then
//! wastes one device for the whole join.  This crate closes the loop: it
//! turns per-morsel, per-lane timing telemetry collected *during* execution
//! into exponentially-weighted unit-cost estimates
//! ([`estimator::EwmaEstimator`]), re-solves the paper's ratio optimisation
//! (Eqs. 1–5) against those estimates ([`solver`]), and a feedback
//! controller ([`tuner::RatioTuner`]) re-plans the remaining morsels'
//! ratios at step boundaries and, optionally, every K morsels.
//!
//! The crate is deliberately *below* `hj-core` in the dependency graph —
//! it knows nothing about relations, schemes or engines, only about step
//! series, lanes, tuples and nanoseconds — so `hj_core` can re-export it
//! (as `hj_core::adaptive`) and feed it from the step pipeline, and
//! `costmodel` can seed it with a calibrated prior ([`JoinPrior`]).
//!
//! ```
//! use hj_adaptive::{AdaptiveConfig, Lane, RatioTuner, SeriesKind};
//!
//! // Seed with the offline plan: build steps b1..b4 all on the CPU.
//! let mut tuner = RatioTuner::new(
//!     AdaptiveConfig::default(),
//!     vec![0.0; 3],
//!     vec![1.0; 4],
//!     vec![0.0; 4],
//! );
//! // Telemetry: the CPU needed 2200 ns for 100 tuples of b1...
//! tuner.observe(SeriesKind::Build, 0, Lane::Cpu, 100, 2200.0);
//! // ...so the next re-plan moves b1 work toward the (unsampled) GPU.
//! tuner.step_boundary(SeriesKind::Build);
//! assert!(tuner.ratio(SeriesKind::Build, 0) < 1.0);
//! ```

#![warn(missing_docs)]

pub mod estimator;
pub mod solver;
pub mod tuner;

pub use estimator::EwmaEstimator;
pub use tuner::{AdaptiveReport, RatioTuner, SeriesAdaptation};

/// Which step series an observation or ratio belongs to — the adaptive
/// layer's view of `hj_core`'s partition / build / probe series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeriesKind {
    /// A radix-partition pass (`n1..n3`).
    Partition,
    /// The build phase (`b1..b4`).
    Build,
    /// The probe phase (`p1..p4`).
    Probe,
}

impl SeriesKind {
    /// Every series, in execution order.
    pub const ALL: [SeriesKind; 3] = [SeriesKind::Partition, SeriesKind::Build, SeriesKind::Probe];

    /// Number of fine-grained steps in this series.
    pub fn steps(self) -> usize {
        match self {
            SeriesKind::Partition => 3,
            SeriesKind::Build | SeriesKind::Probe => 4,
        }
    }

    /// Short label ("partition", "build", "probe").
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Partition => "partition",
            SeriesKind::Build => "build",
            SeriesKind::Probe => "probe",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            SeriesKind::Partition => 0,
            SeriesKind::Build => 1,
            SeriesKind::Probe => 2,
        }
    }
}

/// Which device lane of a morsel an observation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// The CPU lane (the morsel prefix).
    Cpu,
    /// The GPU lane (the morsel suffix).
    Gpu,
}

/// Per-step, per-device unit-cost prior (ns per tuple) for one step series —
/// typically extracted from a calibrated offline cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPrior {
    /// Prior CPU unit cost of each step, ns per tuple.
    pub cpu_ns: Vec<f64>,
    /// Prior GPU unit cost of each step, ns per tuple.
    pub gpu_ns: Vec<f64>,
}

/// Unit-cost priors for all three step series of a hash join.
///
/// Seeds the tuner's estimators so the very first re-plan can already solve
/// every step; observations then *override* the prior through the EWMA (a
/// sampled lane trusts its measurements, not the seed), which is what lets
/// the tuner recover from a deliberately mis-calibrated prior.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPrior {
    /// Prior for one partition pass (`n1..n3`).
    pub partition: SeriesPrior,
    /// Prior for the build phase (`b1..b4`).
    pub build: SeriesPrior,
    /// Prior for the probe phase (`p1..p4`).
    pub probe: SeriesPrior,
}

impl JoinPrior {
    /// The prior of one series.
    pub fn series(&self, kind: SeriesKind) -> &SeriesPrior {
        match kind {
            SeriesKind::Partition => &self.partition,
            SeriesKind::Build => &self.build,
            SeriesKind::Probe => &self.probe,
        }
    }
}

/// Knobs of the feedback controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// EWMA weight of a new unit-cost sample, in `(0, 1]`.  Larger values
    /// react faster; smaller values smooth noisy telemetry harder.
    pub ewma_alpha: f64,
    /// Re-plan the remaining morsels of a step after every this many
    /// observed morsels; `0` re-plans at step boundaries only.
    pub replan_every_morsels: usize,
    /// Ratio granularity δ of the re-solver's coordinate refinement
    /// (default [`solver::PAPER_DELTA`], the paper's 0.02).
    pub delta: f64,
    /// Smallest workload share forced onto a lane that has produced no
    /// samples yet, so the controller can measure a device the current
    /// ratios would starve (escapes 0/1 ratios born from a bad prior).
    pub explore_share: f64,
    /// Optional calibrated unit-cost prior seeding the estimators.
    pub prior: Option<JoinPrior>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            ewma_alpha: 0.4,
            replan_every_morsels: 4,
            delta: solver::PAPER_DELTA,
            explore_share: 0.10,
            prior: None,
        }
    }
}

impl AdaptiveConfig {
    /// Sets the EWMA weight of a new sample.
    pub fn with_ewma_alpha(mut self, alpha: f64) -> Self {
        self.ewma_alpha = alpha;
        self
    }

    /// Sets the intra-step re-plan cadence (0 = step boundaries only).
    pub fn with_replan_every_morsels(mut self, morsels: usize) -> Self {
        self.replan_every_morsels = morsels;
        self
    }

    /// Sets the re-solver's ratio granularity δ.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Seeds the estimators with a calibrated unit-cost prior.
    pub fn with_prior(mut self, prior: JoinPrior) -> Self {
        self.prior = Some(prior);
        self
    }

    /// Validates the knobs.
    ///
    /// # Errors
    /// Returns a human-readable description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if !self.ewma_alpha.is_finite() || self.ewma_alpha <= 0.0 || self.ewma_alpha > 1.0 {
            return Err(format!(
                "adaptive ewma_alpha {} must be in (0, 1]",
                self.ewma_alpha
            ));
        }
        if !self.delta.is_finite() || self.delta <= 0.0 || self.delta > 0.5 {
            return Err(format!("adaptive delta {} must be in (0, 0.5]", self.delta));
        }
        if !self.explore_share.is_finite() || !(0.0..=0.5).contains(&self.explore_share) {
            return Err(format!(
                "adaptive explore_share {} must be in [0, 0.5]",
                self.explore_share
            ));
        }
        if let Some(prior) = &self.prior {
            for kind in SeriesKind::ALL {
                let series = prior.series(kind);
                if series.cpu_ns.len() != kind.steps() || series.gpu_ns.len() != kind.steps() {
                    return Err(format!(
                        "adaptive prior for the {} series must carry {} per-step costs",
                        kind.label(),
                        kind.steps()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_kinds_cover_the_eleven_steps() {
        let total: usize = SeriesKind::ALL.iter().map(|k| k.steps()).sum();
        assert_eq!(total, 11);
        assert_eq!(SeriesKind::Partition.label(), "partition");
        assert_eq!(SeriesKind::Probe.steps(), 4);
    }

    #[test]
    fn default_config_is_valid() {
        assert!(AdaptiveConfig::default().validate().is_ok());
    }

    #[test]
    fn degenerate_knobs_are_rejected() {
        assert!(AdaptiveConfig::default()
            .with_ewma_alpha(0.0)
            .validate()
            .is_err());
        assert!(AdaptiveConfig::default()
            .with_ewma_alpha(1.5)
            .validate()
            .is_err());
        assert!(AdaptiveConfig::default()
            .with_delta(0.0)
            .validate()
            .is_err());
        assert!(AdaptiveConfig {
            explore_share: 0.75,
            ..AdaptiveConfig::default()
        }
        .validate()
        .is_err());
        assert!(AdaptiveConfig::default()
            .with_ewma_alpha(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn mis_shaped_priors_are_rejected() {
        let prior = JoinPrior {
            partition: SeriesPrior {
                cpu_ns: vec![1.0; 3],
                gpu_ns: vec![1.0; 3],
            },
            build: SeriesPrior {
                cpu_ns: vec![1.0; 2], // wrong: b1..b4 needs 4
                gpu_ns: vec![1.0; 4],
            },
            probe: SeriesPrior {
                cpu_ns: vec![1.0; 4],
                gpu_ns: vec![1.0; 4],
            },
        };
        let err = AdaptiveConfig::default()
            .with_prior(prior)
            .validate()
            .unwrap_err();
        assert!(err.contains("build"), "{err}");
    }
}
