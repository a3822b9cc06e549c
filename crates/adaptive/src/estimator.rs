//! Exponentially-weighted unit-cost estimation.
//!
//! Each (step, lane) pair owns one [`EwmaEstimator`] tracking ns-per-tuple.
//! An estimator can be *seeded* with an offline prior — the seed makes the
//! estimate available before the first sample, but carries zero
//! [`confidence`](EwmaEstimator::confidence) and is progressively replaced
//! by real observations, so a wrong prior cannot survive contact with
//! telemetry.

/// EWMA estimate of one lane's unit cost (ns per tuple).
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaEstimator {
    alpha: f64,
    mean_ns: f64,
    samples: u64,
    seeded: bool,
}

impl EwmaEstimator {
    /// An empty estimator with the given EWMA weight for new samples
    /// (clamped into `(0, 1]`).
    pub fn new(alpha: f64) -> Self {
        EwmaEstimator {
            alpha: if alpha.is_finite() {
                alpha.clamp(f64::MIN_POSITIVE, 1.0)
            } else {
                1.0
            },
            mean_ns: 0.0,
            samples: 0,
            seeded: false,
        }
    }

    /// Seeds the estimate with a prior unit cost (ignored if non-positive
    /// or non-finite).  A seed never counts as a sample.
    pub fn seed(&mut self, prior_ns: f64) {
        if prior_ns.is_finite() && prior_ns > 0.0 && self.samples == 0 {
            self.mean_ns = prior_ns;
            self.seeded = true;
        }
    }

    /// Feeds one observation: `items` tuples took `total_ns` nanoseconds.
    /// Zero-item or non-finite observations are ignored.
    ///
    /// The first real sample *replaces* a seeded prior rather than blending
    /// with it: a wrong prior would otherwise keep the estimate biased for
    /// several samples, and — because the re-planner shrinks the lanes of
    /// devices it believes slow — biased lanes produce few samples, so the
    /// lie could sustain itself for a whole run.
    pub fn observe(&mut self, items: usize, total_ns: f64) {
        if items == 0 || !total_ns.is_finite() || total_ns < 0.0 {
            return;
        }
        let sample = total_ns / items as f64;
        if self.samples == 0 {
            self.mean_ns = sample;
        } else {
            self.mean_ns += self.alpha * (sample - self.mean_ns);
        }
        self.samples += 1;
    }

    /// The current unit-cost estimate, `None` while neither seeded nor
    /// sampled.
    pub fn estimate_ns(&self) -> Option<f64> {
        if self.samples > 0 || self.seeded {
            Some(self.mean_ns)
        } else {
            None
        }
    }

    /// Number of real observations folded in (seeds excluded).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// True once at least one real observation arrived.
    pub(crate) fn sampled(&self) -> bool {
        self.samples > 0
    }

    /// How much of the current estimate comes from real observations rather
    /// than the seed: `1 − (1 − α)^samples`, in `[0, 1)` — 0 for a purely
    /// seeded (or empty) estimator, approaching 1 as samples accumulate.
    pub fn confidence(&self) -> f64 {
        1.0 - (1.0 - self.alpha).powi(self.samples.min(i32::MAX as u64) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_replaces_the_empty_mean() {
        let mut e = EwmaEstimator::new(0.3);
        assert_eq!(e.estimate_ns(), None);
        e.observe(10, 50.0);
        assert_eq!(e.estimate_ns(), Some(5.0));
        assert_eq!(e.samples(), 1);
    }

    #[test]
    fn ewma_moves_toward_new_samples() {
        let mut e = EwmaEstimator::new(0.5);
        e.observe(1, 10.0);
        e.observe(1, 20.0);
        assert_eq!(e.estimate_ns(), Some(15.0));
        e.observe(1, 20.0);
        assert_eq!(e.estimate_ns(), Some(17.5));
    }

    #[test]
    fn seed_is_available_but_yields_to_the_first_sample() {
        let mut e = EwmaEstimator::new(0.4);
        e.seed(100.0);
        assert_eq!(e.estimate_ns(), Some(100.0));
        assert_eq!(e.confidence(), 0.0);
        assert!(!e.sampled());
        // The first real sample replaces the seed outright — a wrong prior
        // must not outlive contact with evidence.
        e.observe(1, 10.0);
        assert_eq!(e.estimate_ns(), Some(10.0));
        assert!(e.confidence() > 0.0);
        // Later samples blend as usual.
        e.observe(1, 20.0);
        assert_eq!(e.estimate_ns(), Some(14.0));
    }

    #[test]
    fn confidence_grows_with_samples() {
        let mut e = EwmaEstimator::new(0.4);
        let mut last = e.confidence();
        for _ in 0..8 {
            e.observe(1, 1.0);
            let c = e.confidence();
            assert!(c > last);
            last = c;
        }
        assert!(last > 0.9);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut e = EwmaEstimator::new(0.5);
        e.observe(0, 100.0);
        e.observe(10, f64::NAN);
        e.observe(10, -5.0);
        assert_eq!(e.estimate_ns(), None);
        e.seed(-3.0);
        e.seed(f64::INFINITY);
        assert_eq!(e.estimate_ns(), None);
    }
}
