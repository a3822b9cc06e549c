//! The feedback controller: telemetry in, re-planned ratios out.

use crate::estimator::EwmaEstimator;
use crate::solver::solve_ratios;
use crate::{AdaptiveConfig, Lane, SeriesKind};

/// Per-series controller state.
#[derive(Debug, Clone)]
struct SeriesState {
    initial: Vec<f64>,
    current: Vec<f64>,
    cpu: Vec<EwmaEstimator>,
    gpu: Vec<EwmaEstimator>,
    /// Wall-clock ns/tuple of native (real-thread) execution of this
    /// series; telemetry only, never re-planned against.
    wall: EwmaEstimator,
    morsels_since_replan: usize,
    /// New samples arrived since the last re-plan (a re-plan without fresh
    /// evidence would be a no-op and is skipped).
    dirty: bool,
}

/// Online controller closing the loop between execution telemetry and the
/// per-step workload ratios.
///
/// Seeded with the offline plan's ratios (and optionally a calibrated
/// unit-cost prior), it ingests per-morsel, per-lane timings via
/// [`observe`](Self::observe), and re-solves the remaining work's ratios
/// at step boundaries ([`step_boundary`](Self::step_boundary)) and every
/// [`AdaptiveConfig::replan_every_morsels`] morsels within a step
/// ([`morsel_tick`](Self::morsel_tick)).  Lanes the current ratios starve
/// are forced a small exploration share so a bad prior cannot lock the
/// controller out of ever measuring the faster device.
///
/// The tuner only ever chooses *ratios*; it never alters which tuples are
/// processed or in what order, so adaptive and static runs produce
/// identical join results by construction.
#[derive(Debug, Clone)]
pub struct RatioTuner {
    config: AdaptiveConfig,
    series: [SeriesState; 3],
    samples: u64,
    replans: u64,
}

/// How one series' ratios evolved over a run (part of [`AdaptiveReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesAdaptation {
    /// Which series.
    pub kind: SeriesKind,
    /// The ratios the run started with (the offline plan).
    pub initial: Vec<f64>,
    /// The ratios in effect when the run finished.
    pub converged: Vec<f64>,
    /// Mean estimator confidence over the series' (step, lane) pairs —
    /// how much of the final plan rests on real observations (0 = prior
    /// only, → 1 = fully measured).
    pub confidence: f64,
    /// Final per-step `(CPU, GPU)` unit-cost estimates, ns per tuple
    /// (`None` for lanes neither seeded nor sampled).
    pub unit_costs_ns: Vec<(Option<f64>, Option<f64>)>,
    /// Native wall-clock unit cost of this series, when the run executed
    /// on real threads (ns per tuple).
    pub wall_ns_per_tuple: Option<f64>,
}

/// Summary of one adaptive run, surfaced through the engine's
/// `JoinOutcome` and aggregated into its stats.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Re-plans performed (step boundaries + intra-step ticks that had
    /// fresh telemetry).
    pub replans: u64,
    /// Telemetry observations ingested across all series and lanes.
    pub samples: u64,
    /// Per-series initial vs converged ratios and confidence.
    pub series: Vec<SeriesAdaptation>,
}

impl AdaptiveReport {
    /// The adaptation record of one series.
    pub fn series(&self, kind: SeriesKind) -> &SeriesAdaptation {
        &self.series[kind.index()]
    }

    /// Largest absolute per-step ratio shift between the initial and the
    /// converged plan, across all series — 0 when nothing was re-planned.
    pub fn max_ratio_shift(&self) -> f64 {
        self.series
            .iter()
            .flat_map(|s| s.initial.iter().zip(&s.converged))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl RatioTuner {
    /// A controller seeded with the offline plan's per-series ratios.
    ///
    /// # Panics
    /// Panics when a ratio vector's length does not match its series' step
    /// count (3 for partition, 4 for build/probe) — an internal invariant
    /// of the callers, which derive the vectors from a validated scheme.
    pub fn new(
        config: AdaptiveConfig,
        partition: Vec<f64>,
        build: Vec<f64>,
        probe: Vec<f64>,
    ) -> Self {
        let make = |kind: SeriesKind, initial: Vec<f64>| {
            assert_eq!(
                initial.len(),
                kind.steps(),
                "{} series needs {} ratios",
                kind.label(),
                kind.steps()
            );
            let n = initial.len();
            let mut cpu: Vec<EwmaEstimator> = (0..n)
                .map(|_| EwmaEstimator::new(config.ewma_alpha))
                .collect();
            let mut gpu: Vec<EwmaEstimator> = (0..n)
                .map(|_| EwmaEstimator::new(config.ewma_alpha))
                .collect();
            if let Some(prior) = &config.prior {
                let series = prior.series(kind);
                for i in 0..n {
                    cpu[i].seed(series.cpu_ns[i]);
                    gpu[i].seed(series.gpu_ns[i]);
                }
            }
            SeriesState {
                current: initial.clone(),
                initial,
                cpu,
                gpu,
                wall: EwmaEstimator::new(config.ewma_alpha),
                morsels_since_replan: 0,
                dirty: false,
            }
        };
        RatioTuner {
            series: [
                make(SeriesKind::Partition, partition),
                make(SeriesKind::Build, build),
                make(SeriesKind::Probe, probe),
            ],
            samples: 0,
            replans: 0,
            config,
        }
    }

    /// The intra-step re-plan cadence in morsels (0 = boundaries only).
    pub fn replan_every_morsels(&self) -> usize {
        self.config.replan_every_morsels
    }

    /// The CPU ratio currently planned for one step.
    pub fn ratio(&self, kind: SeriesKind, step: usize) -> f64 {
        self.series[kind.index()].current[step]
    }

    /// The ratios currently planned for one series.
    pub fn ratios(&self, kind: SeriesKind) -> &[f64] {
        &self.series[kind.index()].current
    }

    /// Feeds one lane timing: `items` tuples of step `step` took `ns`
    /// nanoseconds on `lane`.  Empty lanes are ignored.
    pub fn observe(&mut self, kind: SeriesKind, step: usize, lane: Lane, items: usize, ns: f64) {
        if items == 0 {
            return;
        }
        let state = &mut self.series[kind.index()];
        let estimator = match lane {
            Lane::Cpu => &mut state.cpu[step],
            Lane::Gpu => &mut state.gpu[step],
        };
        let before = estimator.samples();
        estimator.observe(items, ns);
        if estimator.samples() > before {
            state.dirty = true;
            self.samples += 1;
        }
    }

    /// Feeds native wall-clock telemetry: `items` tuples of the series took
    /// `ns` nanoseconds on real threads.  Surfaced in the report; never
    /// re-planned against (native execution has no CPU/GPU lanes).
    pub fn observe_wall(&mut self, kind: SeriesKind, items: usize, ns: f64) {
        if items == 0 {
            return;
        }
        let state = &mut self.series[kind.index()];
        let before = state.wall.samples();
        state.wall.observe(items, ns);
        if state.wall.samples() > before {
            self.samples += 1;
        }
    }

    /// Accounts `morsels` processed morsels of one series and re-plans when
    /// the intra-step cadence is reached (and fresh telemetry arrived).
    /// Returns whether a re-plan happened.
    pub fn morsel_tick(&mut self, kind: SeriesKind, morsels: usize) -> bool {
        let every = self.config.replan_every_morsels;
        let state = &mut self.series[kind.index()];
        state.morsels_since_replan += morsels;
        if every == 0 || state.morsels_since_replan < every {
            return false;
        }
        self.replan(kind)
    }

    /// Re-plans one series at a step boundary (skipped without fresh
    /// telemetry).  Returns whether a re-plan happened.
    pub fn step_boundary(&mut self, kind: SeriesKind) -> bool {
        self.replan(kind)
    }

    /// Re-solves one series' ratios from the current estimates: solver over
    /// fully-estimated series, per-step balance where only single steps are
    /// known, and an exploration clamp granting unsampled lanes
    /// [`AdaptiveConfig::explore_share`] of their step so the controller
    /// can measure devices the current plan starves.
    fn replan(&mut self, kind: SeriesKind) -> bool {
        let explore = self.config.explore_share;
        let delta = self.config.delta;
        let state = &mut self.series[kind.index()];
        state.morsels_since_replan = 0;
        if !state.dirty {
            return false;
        }
        state.dirty = false;

        let n = state.current.len();
        let estimates: Vec<(Option<f64>, Option<f64>)> = (0..n)
            .map(|i| (state.cpu[i].estimate_ns(), state.gpu[i].estimate_ns()))
            .collect();
        let mut next = if estimates.iter().all(|(c, g)| c.is_some() && g.is_some()) {
            let cpu_ns: Vec<f64> = estimates.iter().map(|(c, _)| c.unwrap()).collect();
            let gpu_ns: Vec<f64> = estimates.iter().map(|(_, g)| g.unwrap()).collect();
            solve_ratios(&cpu_ns, &gpu_ns, delta)
        } else {
            // Partial knowledge: balance the steps whose both lanes are
            // estimated, keep the plan elsewhere.
            (0..n)
                .map(|i| match estimates[i] {
                    (Some(c), Some(g)) if c + g > 0.0 => g / (c + g),
                    _ => state.current[i],
                })
                .collect()
        };
        for (i, r) in next.iter_mut().enumerate() {
            if !state.cpu[i].sampled() {
                *r = r.max(explore);
            }
            if !state.gpu[i].sampled() {
                *r = r.min(1.0 - explore);
            }
            *r = r.clamp(0.0, 1.0);
        }
        state.current = next;
        self.replans += 1;
        true
    }

    /// The current per-step `(CPU, GPU)` unit-cost estimates of one series
    /// (ns per tuple; `None` while a lane is neither seeded nor sampled).
    pub(crate) fn estimates_ns(&self, kind: SeriesKind) -> Vec<(Option<f64>, Option<f64>)> {
        let state = &self.series[kind.index()];
        (0..state.current.len())
            .map(|i| (state.cpu[i].estimate_ns(), state.gpu[i].estimate_ns()))
            .collect()
    }

    /// Re-plans performed so far.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Telemetry observations ingested so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Summarises the run: initial vs converged ratios, confidence and
    /// native unit costs per series, plus the global counters.
    pub fn report(&self) -> AdaptiveReport {
        let series = SeriesKind::ALL
            .iter()
            .map(|&kind| {
                let state = &self.series[kind.index()];
                let estimators = state.cpu.iter().chain(&state.gpu);
                let confidence = estimators
                    .clone()
                    .map(EwmaEstimator::confidence)
                    .sum::<f64>()
                    / (2 * state.current.len()) as f64;
                SeriesAdaptation {
                    kind,
                    initial: state.initial.clone(),
                    converged: state.current.clone(),
                    confidence,
                    unit_costs_ns: self.estimates_ns(kind),
                    wall_ns_per_tuple: state.wall.estimate_ns(),
                }
            })
            .collect();
        AdaptiveReport {
            replans: self.replans,
            samples: self.samples,
            series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JoinPrior, SeriesPrior};

    fn tuner(config: AdaptiveConfig) -> RatioTuner {
        RatioTuner::new(config, vec![0.0; 3], vec![1.0; 4], vec![0.5; 4])
    }

    fn figure4_prior() -> JoinPrior {
        JoinPrior {
            partition: SeriesPrior {
                cpu_ns: vec![20.0, 4.0, 8.0],
                gpu_ns: vec![1.5, 3.0, 7.0],
            },
            build: SeriesPrior {
                cpu_ns: vec![22.0, 5.0, 10.0, 6.0],
                gpu_ns: vec![1.5, 4.0, 9.0, 5.0],
            },
            probe: SeriesPrior {
                cpu_ns: vec![23.0, 5.0, 9.0, 6.0],
                gpu_ns: vec![1.4, 4.0, 8.5, 5.0],
            },
        }
    }

    #[test]
    fn unsampled_tuner_keeps_the_static_plan() {
        let mut t = tuner(AdaptiveConfig::default());
        assert_eq!(t.ratios(SeriesKind::Build), &[1.0; 4]);
        // A boundary without telemetry must not re-plan (adaptive == static
        // until evidence arrives).
        assert!(!t.step_boundary(SeriesKind::Build));
        assert_eq!(t.replans(), 0);
        assert_eq!(t.ratio(SeriesKind::Build, 0), 1.0);
    }

    #[test]
    fn observation_plus_boundary_moves_work_toward_the_unsampled_device() {
        let mut t = tuner(AdaptiveConfig::default());
        // b1 measured slow on the CPU; the GPU is unsampled, so exploration
        // must grant it a share even though no GPU estimate exists.
        t.observe(SeriesKind::Build, 0, Lane::Cpu, 1000, 22_000.0);
        assert!(t.step_boundary(SeriesKind::Build));
        assert!(t.ratio(SeriesKind::Build, 0) <= 0.9);
        assert_eq!(t.replans(), 1);
        assert_eq!(t.samples(), 1);
    }

    #[test]
    fn fully_sampled_series_converges_to_the_solver_optimum() {
        let mut t = tuner(AdaptiveConfig {
            explore_share: 0.0,
            ..AdaptiveConfig::default()
        });
        // Feed the Figure-4 build costs on both lanes of every step.
        let cpu = [22.0, 5.0, 10.0, 6.0];
        let gpu = [1.5, 4.0, 9.0, 5.0];
        for step in 0..4 {
            t.observe(SeriesKind::Build, step, Lane::Cpu, 1000, cpu[step] * 1000.0);
            t.observe(SeriesKind::Build, step, Lane::Gpu, 1000, gpu[step] * 1000.0);
        }
        t.step_boundary(SeriesKind::Build);
        let expected = crate::solver::solve_ratios(&cpu, &gpu, 0.02);
        assert_eq!(t.ratios(SeriesKind::Build), expected.as_slice());
        // The hash step lands on the GPU.
        assert!(t.ratio(SeriesKind::Build, 0) <= 0.1);
    }

    #[test]
    fn bad_prior_is_overridden_by_observations() {
        // Prior with CPU and GPU deliberately swapped: it claims the hash
        // step is CPU-friendly.
        let good = figure4_prior();
        let bad = JoinPrior {
            partition: SeriesPrior {
                cpu_ns: good.partition.gpu_ns.clone(),
                gpu_ns: good.partition.cpu_ns.clone(),
            },
            build: SeriesPrior {
                cpu_ns: good.build.gpu_ns.clone(),
                gpu_ns: good.build.cpu_ns.clone(),
            },
            probe: SeriesPrior {
                cpu_ns: good.probe.gpu_ns.clone(),
                gpu_ns: good.probe.cpu_ns.clone(),
            },
        };
        let mut t = RatioTuner::new(
            AdaptiveConfig::default().with_prior(bad),
            vec![0.0; 3],
            vec![1.0; 4],
            vec![0.5; 4],
        );
        // True measurements arrive for every lane (several rounds so the
        // EWMA washes the seed out).
        for _ in 0..6 {
            for step in 0..4 {
                t.observe(
                    SeriesKind::Build,
                    step,
                    Lane::Cpu,
                    1000,
                    good.build.cpu_ns[step] * 1000.0,
                );
                t.observe(
                    SeriesKind::Build,
                    step,
                    Lane::Gpu,
                    1000,
                    good.build.gpu_ns[step] * 1000.0,
                );
            }
            t.step_boundary(SeriesKind::Build);
        }
        // Despite the inverted prior, b1 converged onto the GPU.
        assert!(
            t.ratio(SeriesKind::Build, 0) <= 0.1,
            "b1 ratio {} did not recover from the bad prior",
            t.ratio(SeriesKind::Build, 0)
        );
        let report = t.report();
        assert!(report.series(SeriesKind::Build).confidence > 0.8);
        assert!(report.max_ratio_shift() > 0.5);
    }

    #[test]
    fn morsel_tick_honours_the_cadence() {
        let mut t = tuner(AdaptiveConfig::default().with_replan_every_morsels(3));
        t.observe(SeriesKind::Probe, 0, Lane::Cpu, 10, 100.0);
        assert!(!t.morsel_tick(SeriesKind::Probe, 2));
        assert!(t.morsel_tick(SeriesKind::Probe, 1));
        // Cadence 0 disables intra-step re-planning entirely.
        let mut t0 = tuner(AdaptiveConfig::default().with_replan_every_morsels(0));
        t0.observe(SeriesKind::Probe, 0, Lane::Cpu, 10, 100.0);
        assert!(!t0.morsel_tick(SeriesKind::Probe, 1_000));
        assert!(t0.step_boundary(SeriesKind::Probe));
    }

    #[test]
    fn wall_telemetry_reaches_the_report_without_replanning() {
        let mut t = tuner(AdaptiveConfig::default());
        t.observe_wall(SeriesKind::Build, 1000, 5_000.0);
        t.observe_wall(SeriesKind::Build, 1000, 7_000.0);
        assert!(
            !t.step_boundary(SeriesKind::Build),
            "wall data never re-plans"
        );
        let report = t.report();
        assert_eq!(report.replans, 0);
        assert_eq!(report.samples, 2);
        let wall = report.series(SeriesKind::Build).wall_ns_per_tuple.unwrap();
        assert!(wall > 5.0 && wall < 7.0);
        assert_eq!(report.series(SeriesKind::Probe).wall_ns_per_tuple, None);
    }

    #[test]
    fn report_reflects_initial_and_converged_plans() {
        let mut t = tuner(AdaptiveConfig::default());
        t.observe(SeriesKind::Partition, 0, Lane::Cpu, 100, 2000.0);
        t.observe(SeriesKind::Partition, 0, Lane::Gpu, 100, 150.0);
        t.step_boundary(SeriesKind::Partition);
        let report = t.report();
        assert_eq!(report.series(SeriesKind::Partition).initial, vec![0.0; 3]);
        assert_ne!(
            report.series(SeriesKind::Partition).converged,
            report.series(SeriesKind::Partition).initial
        );
        assert_eq!(report.replans, 1);
        assert_eq!(report.series.len(), 3);
    }

    #[test]
    #[should_panic]
    fn mismatched_seed_lengths_panic() {
        let _ = RatioTuner::new(
            AdaptiveConfig::default(),
            vec![0.0; 2],
            vec![0.0; 4],
            vec![0.0; 4],
        );
    }
}
