//! # costmodel — the abstract cost model, calibration and ratio optimiser
//!
//! Section 4 of the paper develops a cost model that predicts the elapsed
//! time of a step series under pipelined co-processing from per-step
//! per-device unit costs, and uses it to choose the workload ratios of OL,
//! DD and PL.  This crate reproduces that machinery:
//!
//! * [`params`] — the calibrated per-step unit costs (the `#I^i_XPU` /
//!   memory-cost terms of Table 2);
//! * calibration ([`calibrate_quick`], [`calibrate_from_relations`]) —
//!   obtains those unit costs by profiling CPU-only and
//!   GPU-only executions on the simulator (standing in for AMD CodeXL and
//!   the memory-calibration micro-benchmarks of Manegold et al. / He et
//!   al.);
//! * [`model`] — Eqs. 1–5: computation + memory per step, pipeline delays,
//!   elapsed time as the max over the devices.  Lock contention is
//!   deliberately *not* modelled, exactly as in the paper (Section 5.3);
//! * [`optimizer`] — grid search over ratios at step δ (0.02 in the paper)
//!   with coordinate refinement, plus OL placement and DD ratio selection;
//! * Monte-Carlo evaluation ([`monte_carlo_series`], [`cdf_points`]) —
//!   random-ratio sampling used to evaluate how close the
//!   model-chosen ratios come to the best achievable (Figure 9).
//!
//! The composition (Eqs. 1, 2, 4, 5), the grid-plus-descent search and the
//! δ grid are written once, in `hj_adaptive::solver` (re-exported as
//! `hj_core::adaptive::solver`), and shared with the runtime ratio
//! re-solver; [`model`] and [`optimizer`] wrap them.

#![warn(missing_docs)]

pub(crate) mod calibration;
pub mod model;
pub(crate) mod montecarlo;
pub mod optimizer;
pub mod params;

pub use calibration::{calibrate_from_relations, calibrate_quick};
pub use model::{JoinCostModel, SeriesCostModel};
pub use montecarlo::{cdf_points, monte_carlo_series};
pub use optimizer::{optimize_dd_ratio, optimize_pl_ratios, tune_scheme, TunedScheme};
pub use params::{JoinUnitCosts, SeriesUnitCosts};
