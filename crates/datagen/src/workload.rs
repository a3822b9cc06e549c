//! Named workload presets used across the experiment harness.
//!
//! Each paper experiment varies only one or two knobs of the default
//! workload (build size, skew, selectivity).  A [`Workload`] names the knobs
//! so experiment binaries and EXPERIMENTS.md rows line up one-to-one, and a
//! global `scale` divisor allows the whole suite to run quickly on modest
//! machines while preserving relative behaviour.

use crate::generator::KeyDistribution;

/// A fully-specified experiment workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Build relation cardinality at scale 1.
    pub build_tuples: usize,
    /// Probe relation cardinality at scale 1.
    pub probe_tuples: usize,
    /// Key distribution.
    pub distribution: KeyDistribution,
    /// Join selectivity.
    pub selectivity: f64,
    /// RNG seed.
    pub seed: u64,
    /// Divisor applied to both cardinalities; `scale = 1` is the paper's
    /// size, larger values shrink the workload proportionally.
    pub scale: usize,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            build_tuples: 16 * 1024 * 1024,
            probe_tuples: 16 * 1024 * 1024,
            distribution: KeyDistribution::Uniform,
            selectivity: 1.0,
            seed: 42,
            scale: 1,
        }
    }
}

impl Workload {
    /// Sets the scale divisor (clamped to at least 1).
    pub fn scaled(mut self, scale: usize) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Sets the selectivity.
    pub fn with_selectivity(mut self, s: f64) -> Self {
        self.selectivity = s;
        self
    }

    /// Sets the key distribution.
    pub fn with_distribution(mut self, d: KeyDistribution) -> Self {
        self.distribution = d;
        self
    }

    /// Effective build cardinality after scaling (at least 1).
    pub(crate) fn effective_build(&self) -> usize {
        (self.build_tuples / self.scale).max(1)
    }

    /// Effective probe cardinality after scaling (at least 1).
    pub(crate) fn effective_probe(&self) -> usize {
        (self.probe_tuples / self.scale).max(1)
    }

    /// A one-line description used in experiment output.
    pub fn describe(&self) -> String {
        format!(
            "|R|={} |S|={} dist={} sel={:.1}% scale=1/{}",
            self.effective_build(),
            self.effective_probe(),
            self.distribution.label(),
            self.selectivity * 100.0,
            self.scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_cardinalities() {
        let w = Workload::default().scaled(16);
        assert_eq!(w.effective_build(), 1024 * 1024);
        assert_eq!(w.effective_probe(), 1024 * 1024);
        // Scale never drops below one tuple.
        let tiny = Workload {
            build_tuples: 2,
            ..Workload::default()
        }
        .scaled(100);
        assert_eq!(tiny.effective_build(), 1);
    }

    #[test]
    fn describe_mentions_distribution() {
        let w = Workload::default()
            .with_distribution(KeyDistribution::high_skew())
            .scaled(8);
        assert!(w.describe().contains("high-skew"));
        assert!(w.describe().contains("1/8"));
    }

    #[test]
    fn builder_methods_apply() {
        let w = Workload::default()
            .with_selectivity(0.5)
            .with_distribution(KeyDistribution::low_skew());
        assert_eq!(w.selectivity, 0.5);
        assert_eq!(w.distribution, KeyDistribution::low_skew());
    }
}
