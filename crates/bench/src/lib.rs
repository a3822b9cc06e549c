//! # hj-bench — experiment harness reproducing the paper's evaluation
//!
//! Every table and figure of the paper's evaluation section (and appendix)
//! has a corresponding experiment here; the `experiments` binary dispatches
//! them by name (`cargo run --release -p hj-bench --bin experiments -- fig13`)
//! and `-- all` runs the full suite.  Each experiment prints the same
//! rows/series the paper reports and writes a CSV next to it under
//! `results/`.
//!
//! Every number an experiment reports is simulated time or a count, so it
//! repeats exactly from run to run.  Wall-clock performance (joins/s,
//! spill, cache hits, open-loop tail latency over TCP) is measured by the
//! `hjbench` package under `benchmark/`, and the behaviour behind it
//! (concurrent sessions, typed sheds, spill hygiene, cache hits) is
//! asserted by the integration tests under `tests/`.
//!
//! | Experiment | Paper reference | Module |
//! |---|---|---|
//! | `table1` | Table 1 (hardware configuration) | [`unitcosts`] |
//! | `fig03` | Figure 3 (time breakdown, discrete vs coupled) | [`breakdown`] |
//! | `fig04` | Figure 4 (per-step unit costs) | [`unitcosts`] |
//! | `fig05`, `fig06` | Figures 5–6 (optimal PL ratios) | [`unitcosts`] |
//! | `fig07`, `fig08`, `fig09` | Figures 7–9 (cost-model accuracy) | [`model_eval`] |
//! | `fig10`–`fig12`, `table3` | Figures 10–12, Table 3 (design tradeoffs) | [`tradeoffs`] |
//! | `fig13`–`fig16`, `fig17_18` | Figures 13–18 (end-to-end comparison) | [`endtoend`] |
//! | `fig19` | Figure 19 (out-of-core joins) | [`breakdown`] |
//! | `fig20` | Figure 20 (latch micro-benchmark) | [`micro`] |
//! | `adaptive` | runtime tuner recovering from a bad prior (not in the paper) | [`adaptive`] |
//!
//! The global `HJ_SCALE` environment variable divides every cardinality
//! (default 32, i.e. 512 K instead of 16 M tuples) so the whole suite runs in
//! minutes on a laptop while preserving the relative behaviour; set
//! `HJ_SCALE=1` to reproduce at the paper's sizes.

#![warn(missing_docs)]

pub mod adaptive;
pub mod breakdown;
pub mod common;
pub mod endtoend;
pub mod micro;
pub mod model_eval;
pub mod tradeoffs;
pub mod unitcosts;

pub use common::{default_scale, ExpContext};

/// Name and entry point of one experiment.
pub struct Experiment {
    /// Identifier used on the command line (e.g. `fig13`).
    pub name: &'static str,
    /// What the experiment reproduces.
    pub description: &'static str,
    /// Entry point.
    pub run: fn(&mut common::ExpContext),
}

/// The full registry of experiments, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            description: "Table 1: hardware configuration of the coupled architecture",
            run: unitcosts::table1,
        },
        Experiment {
            name: "fig03",
            description: "Figure 3: time breakdown on discrete vs coupled architectures",
            run: breakdown::fig03,
        },
        Experiment {
            name: "fig04",
            description: "Figure 4: per-step unit costs on the CPU and the GPU (PHJ)",
            run: unitcosts::fig04,
        },
        Experiment {
            name: "fig05",
            description: "Figure 5: optimal workload ratios of SHJ-PL steps",
            run: unitcosts::fig05,
        },
        Experiment {
            name: "fig06",
            description: "Figure 6: optimal workload ratios of PHJ-PL steps",
            run: unitcosts::fig06,
        },
        Experiment {
            name: "fig07",
            description: "Figure 7: estimated vs measured time for SHJ-DD, ratio sweep",
            run: model_eval::fig07,
        },
        Experiment {
            name: "fig08",
            description: "Figure 8: estimated vs measured time for the PL special case",
            run: model_eval::fig08,
        },
        Experiment {
            name: "fig09",
            description: "Figure 9: Monte-Carlo CDF of ratio settings vs the cost-model choice",
            run: model_eval::fig09,
        },
        Experiment {
            name: "fig10",
            description: "Figure 10: shared vs separate hash tables (build phase of DD)",
            run: tradeoffs::fig10,
        },
        Experiment {
            name: "fig11",
            description: "Figure 11: elapsed time and lock overhead vs allocation block size",
            run: tradeoffs::fig11,
        },
        Experiment {
            name: "fig12",
            description: "Figure 12: basic vs optimised memory allocator",
            run: tradeoffs::fig12,
        },
        Experiment {
            name: "table3",
            description: "Table 3: fine-grained vs coarse-grained step definition",
            run: tradeoffs::table3,
        },
        Experiment {
            name: "fig13",
            description: "Figure 13: elapsed time vs build size (uniform data)",
            run: endtoend::fig13,
        },
        Experiment {
            name: "fig14",
            description: "Figure 14: elapsed time vs build size (high-skew data)",
            run: endtoend::fig14,
        },
        Experiment {
            name: "fig15",
            description: "Figure 15: PHJ time breakdown with join selectivity varied",
            run: breakdown::fig15,
        },
        Experiment {
            name: "fig16",
            description: "Figure 16: BasicUnit vs fine-grained co-processing",
            run: endtoend::fig16,
        },
        Experiment {
            name: "fig17_18",
            description: "Figures 17-18: per-phase CPU shares under BasicUnit",
            run: endtoend::fig17_18,
        },
        Experiment {
            name: "fig19",
            description: "Figure 19: joins larger than the zero-copy buffer",
            run: breakdown::fig19,
        },
        Experiment {
            name: "fig20",
            description: "Figure 20: latch micro-benchmark on the CPU and the GPU",
            run: micro::fig20,
        },
        Experiment {
            name: "adaptive",
            description: "BENCH_adaptive: runtime tuner recovery from a mis-calibrated prior",
            run: adaptive::adaptive,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let names: Vec<_> = registry().iter().map(|e| e.name).collect();
        for expected in [
            "table1", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
            "fig11", "fig12", "table3", "fig13", "fig14", "fig15", "fig16", "fig17_18", "fig19",
            "fig20", "adaptive",
        ] {
            assert!(names.contains(&expected), "missing experiment {expected}");
        }
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<_> = registry().iter().map(|e| e.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
