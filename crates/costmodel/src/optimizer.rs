//! Choosing workload ratios with the cost model.
//!
//! The paper enumerates all ratio combinations at a step of δ = 0.02 and
//! keeps the best prediction (Section 3.2).  The PL optimiser here runs
//! [`search_ratios`] — a coarse full grid seeding per-step coordinate
//! descent at δ, the same search the runtime re-solver runs — on
//! [`SeriesCostModel::estimate`]; the DD scan walks the δ grid
//! [`ratio_levels`].  Both live in `hj_adaptive::solver`, the one copy of
//! the composition, the search and the grid.

use crate::model::{JoinCostModel, SeriesCostModel};
use apu_sim::SimTime;
use hj_core::adaptive::solver::{ratio_levels, search_ratios};
use hj_core::{Algorithm, RatioPlan, Ratios, Scheme};

pub use hj_core::adaptive::solver::PAPER_DELTA;

/// Chooses the best single (data-dividing) ratio for a series by scanning
/// [`ratio_levels`]`(delta)`: `r = 0, δ, 2δ, …, 1`.
pub fn optimize_dd_ratio(model: &SeriesCostModel, items: usize, delta: f64) -> (f64, SimTime) {
    let mut best = (0.0f64, SimTime::from_secs(f64::MAX / 1e9));
    let mut ratios = vec![0.0; model.num_steps()];
    for r in ratio_levels(delta) {
        ratios.fill(r);
        let t = model.estimate_slice(items, &ratios);
        if t < best.1 {
            best = (r, t);
        }
    }
    best
}

/// Chooses the best off-loading placement (each step entirely on one device)
/// by enumerating all `2^n` assignments.
pub(crate) fn optimize_offload(model: &SeriesCostModel, items: usize) -> (Vec<bool>, SimTime) {
    let n = model.num_steps();
    let mut best: (Vec<bool>, SimTime) = (vec![false; n], SimTime::from_secs(f64::MAX / 1e9));
    for mask in 0u32..(1 << n) {
        let on_cpu: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let t = model.estimate(items, &Ratios::offload(&on_cpu));
        if t < best.1 {
            best = (on_cpu, t);
        }
    }
    best
}

/// Chooses per-step ratios for pipelined co-processing.
///
/// A full grid at the coarse step `max(0.1, delta)` seeds per-step
/// coordinate descent at the fine `delta` (default [`PAPER_DELTA`]); the
/// result is the model-optimal ratio vector and its predicted time.
pub fn optimize_pl_ratios(model: &SeriesCostModel, items: usize, delta: f64) -> (Ratios, SimTime) {
    let coarse = ratio_levels(delta.max(0.1));
    let (ratios, time) = search_ratios(model.num_steps(), &coarse, delta, |ratios| {
        model.estimate_slice(items, ratios).as_ns()
    });
    (Ratios::new(ratios), SimTime::from_ns(time))
}

/// The plan produced by [`tune_scheme`]: the tuned PL, DD and OL schemes
/// with their predicted times.
///
/// The plan is consumed *directly* by the engine's request builder — it
/// converts into its best-predicted [`Scheme`], so
/// `JoinRequest::builder().scheme(&tuned)` runs the cost model's
/// recommendation without manual unpacking:
///
/// ```
/// use costmodel::{calibrate_quick, tune_scheme, JoinCostModel};
/// use hj_core::{Algorithm, EngineConfig, JoinEngine, JoinRequest};
/// use apu_sim::SystemSpec;
///
/// let sys = SystemSpec::coupled_a8_3870k();
/// let costs = calibrate_quick(&sys, 2_000, Algorithm::Simple);
/// let tuned = tune_scheme(&JoinCostModel::new(costs), 2_000, 4_000, Algorithm::Simple, 0.1);
/// let request = JoinRequest::builder().scheme(&tuned).build().unwrap();
/// # let (r, s) = datagen::generate_pair(&datagen::DataGenConfig::small(2_000, 4_000));
/// # let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(2_000, 4_000)).unwrap();
/// # assert!(engine.execute(&request, &r, &s).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct TunedScheme {
    /// The tuned pipelined scheme (per-step ratios for all three series).
    pub pipelined: Scheme,
    /// The tuned data-dividing scheme (one ratio per phase).
    pub data_dividing: Scheme,
    /// The tuned off-loading scheme.
    pub offload: Scheme,
    /// Predicted total time of the tuned PL scheme.
    pub predicted_pl: SimTime,
    /// Predicted total time of the tuned DD scheme.
    pub predicted_dd: SimTime,
    /// Predicted total time of the tuned OL scheme.
    pub predicted_ol: SimTime,
}

impl TunedScheme {
    /// The scheme with the smallest predicted total time.
    pub fn best(&self) -> &Scheme {
        let (mut scheme, mut time) = (&self.pipelined, self.predicted_pl);
        if self.predicted_dd < time {
            scheme = &self.data_dividing;
            time = self.predicted_dd;
        }
        if self.predicted_ol < time {
            scheme = &self.offload;
        }
        scheme
    }
}

impl From<&TunedScheme> for Scheme {
    fn from(tuned: &TunedScheme) -> Scheme {
        tuned.best().clone()
    }
}

impl From<TunedScheme> for Scheme {
    fn from(tuned: TunedScheme) -> Scheme {
        tuned.best().clone()
    }
}

/// Tunes PL, DD and OL ratio choices for a join of `build_tuples` ⨝
/// `probe_tuples` with the given calibrated model.
///
/// `algorithm` only determines whether partition passes are included in the
/// predicted totals.
pub fn tune_scheme(
    model: &JoinCostModel,
    build_tuples: usize,
    probe_tuples: usize,
    algorithm: Algorithm,
    delta: f64,
) -> TunedScheme {
    let passes = match algorithm {
        Algorithm::Simple => 0,
        Algorithm::Partitioned { passes, .. } => passes.max(1),
    };

    let (part_pl, _) = if passes > 0 {
        optimize_pl_ratios(&model.partition, build_tuples + probe_tuples, delta)
    } else {
        (Ratios::gpu_only(3), SimTime::ZERO)
    };
    let (build_pl, _) = optimize_pl_ratios(&model.build, build_tuples, delta);
    let (probe_pl, _) = optimize_pl_ratios(&model.probe, probe_tuples, delta);

    let (part_dd, _) = if passes > 0 {
        optimize_dd_ratio(&model.partition, build_tuples + probe_tuples, delta)
    } else {
        (0.0, SimTime::ZERO)
    };
    let (build_dd, _) = optimize_dd_ratio(&model.build, build_tuples, delta);
    let (probe_dd, _) = optimize_dd_ratio(&model.probe, probe_tuples, delta);

    let (part_ol, _) = optimize_offload(&model.partition, build_tuples + probe_tuples);
    let (build_ol, _) = optimize_offload(&model.build, build_tuples);
    let (probe_ol, _) = optimize_offload(&model.probe, probe_tuples);

    let pipelined = Scheme::Pipelined {
        partition: to_array3(part_pl.as_slice()),
        build: to_array4(build_pl.as_slice()),
        probe: to_array4(probe_pl.as_slice()),
    };
    let data_dividing = Scheme::DataDividing {
        partition_ratio: part_dd,
        build_ratio: build_dd,
        probe_ratio: probe_dd,
    };
    let offload = Scheme::Offload {
        partition_on_cpu: to_barray3(&part_ol),
        build_on_cpu: to_barray4(&build_ol),
        probe_on_cpu: to_barray4(&probe_ol),
    };

    let predict = |scheme: &Scheme| {
        let plan = RatioPlan::from_scheme(scheme).expect("ratio-based scheme");
        model.estimate_total(build_tuples, probe_tuples, passes, &plan)
    };
    let predicted_pl = predict(&pipelined);
    let predicted_dd = predict(&data_dividing);
    let predicted_ol = predict(&offload);

    TunedScheme {
        pipelined,
        data_dividing,
        offload,
        predicted_pl,
        predicted_dd,
        predicted_ol,
    }
}

fn to_array3(v: &[f64]) -> [f64; 3] {
    [v[0], v[1], v[2]]
}

fn to_array4(v: &[f64]) -> [f64; 4] {
    [v[0], v[1], v[2], v[3]]
}

fn to_barray3(v: &[bool]) -> [bool; 3] {
    [v[0], v[1], v[2]]
}

fn to_barray4(v: &[bool]) -> [bool; 4] {
    [v[0], v[1], v[2], v[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SeriesUnitCosts;
    use hj_core::StepId;

    fn figure4_build_model() -> SeriesCostModel {
        SeriesCostModel::new(SeriesUnitCosts::new(
            StepId::BUILD.to_vec(),
            vec![22.0, 5.0, 10.0, 6.0],
            vec![1.5, 4.0, 9.0, 5.0],
        ))
    }

    #[test]
    fn dd_ratio_lands_between_the_extremes() {
        let m = figure4_build_model();
        let (r, t) = optimize_dd_ratio(&m, 1_000_000, PAPER_DELTA);
        assert!(r > 0.0 && r < 0.6, "DD ratio {r}");
        assert!(t <= m.estimate(1_000_000, &Ratios::cpu_only(4)));
        assert!(t <= m.estimate(1_000_000, &Ratios::gpu_only(4)));
    }

    #[test]
    fn offload_puts_hash_step_on_gpu() {
        let m = figure4_build_model();
        let (placement, _) = optimize_offload(&m, 1_000_000);
        assert!(!placement[0], "b1 must be off-loaded to the GPU");
    }

    #[test]
    fn pl_beats_dd_and_ol_in_prediction() {
        let m = figure4_build_model();
        let n = 1_000_000;
        let (_, t_dd) = optimize_dd_ratio(&m, n, PAPER_DELTA);
        let (_, t_ol) = optimize_offload(&m, n);
        let (ratios, t_pl) = optimize_pl_ratios(&m, n, PAPER_DELTA);
        assert!(t_pl <= t_dd, "PL {} vs DD {}", t_pl, t_dd);
        assert!(t_pl <= t_ol, "PL {} vs OL {}", t_pl, t_ol);
        // The hash step should be (almost) entirely on the GPU.
        assert!(ratios.get(0) <= 0.1, "b1 ratio {}", ratios.get(0));
    }

    #[test]
    fn pl_grid_is_near_exhaustive_optimum_on_small_grid() {
        // With a coarse delta we can verify the optimiser against brute force.
        let m = figure4_build_model();
        let n = 100_000;
        let delta = 0.25;
        let levels = [0.0, 0.25, 0.5, 0.75, 1.0];
        let mut brute = SimTime::from_secs(1e18);
        for a in levels {
            for b in levels {
                for c in levels {
                    for d in levels {
                        let t = m.estimate(n, &Ratios::new(vec![a, b, c, d]));
                        brute = brute.min(t);
                    }
                }
            }
        }
        let (_, ours) = optimize_pl_ratios(&m, n, delta);
        assert!(ours.as_ns() <= brute.as_ns() * 1.001);
    }

    #[test]
    fn tune_scheme_produces_consistent_predictions() {
        let costs = crate::params::JoinUnitCosts {
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
        };
        let model = JoinCostModel::new(costs);
        let tuned = tune_scheme(
            &model,
            500_000,
            1_000_000,
            Algorithm::partitioned_auto(),
            0.05,
        );
        assert!(tuned.predicted_pl <= tuned.predicted_dd);
        assert!(tuned.predicted_pl <= tuned.predicted_ol);
        assert!(matches!(tuned.pipelined, Scheme::Pipelined { .. }));
        assert!(matches!(tuned.data_dividing, Scheme::DataDividing { .. }));
        assert!(matches!(tuned.offload, Scheme::Offload { .. }));
        // PL has the best prediction, so the plan converts into it.
        assert_eq!(tuned.best(), &tuned.pipelined);
        assert_eq!(Scheme::from(&tuned), tuned.pipelined);
    }
}
