//! Co-processing schemes: translating a [`Scheme`]
//! into per-phase workload-ratio vectors, plus the chunk-based BasicUnit
//! scheduler of Appendix A.
//!
//! OL and DD are special cases of PL (Section 3.2): OL uses ratios that are
//! all 0 or 1, DD uses the same ratio for every step of a phase.  The
//! BasicUnit baseline is not ratio-based — it dispatches whole chunks of
//! tuples to whichever device becomes idle first — and lives in
//! [`basic_unit`].

pub mod basic_unit;

use crate::config::Scheme;
use crate::schedule::Ratios;

/// Per-phase ratio vectors for ratio-based schemes (everything except
/// BasicUnit).
#[derive(Debug, Clone, PartialEq)]
pub struct RatioPlan {
    /// Ratios for each partition pass (`n1..n3`).
    pub partition: Ratios,
    /// Ratios for the build phase (`b1..b4`).
    pub build: Ratios,
    /// Ratios for the probe phase (`p1..p4`).
    pub probe: Ratios,
}

impl RatioPlan {
    /// Builds the plan for a scheme, or `None` for [`Scheme::BasicUnit`]
    /// (which is not expressible as static ratios).
    pub fn from_scheme(scheme: &Scheme) -> Option<RatioPlan> {
        let plan = match scheme {
            Scheme::CpuOnly => RatioPlan {
                partition: Ratios::cpu_only(3),
                build: Ratios::cpu_only(4),
                probe: Ratios::cpu_only(4),
            },
            Scheme::GpuOnly => RatioPlan {
                partition: Ratios::gpu_only(3),
                build: Ratios::gpu_only(4),
                probe: Ratios::gpu_only(4),
            },
            Scheme::Offload {
                partition_on_cpu,
                build_on_cpu,
                probe_on_cpu,
            } => RatioPlan {
                partition: Ratios::offload(partition_on_cpu),
                build: Ratios::offload(build_on_cpu),
                probe: Ratios::offload(probe_on_cpu),
            },
            Scheme::DataDividing {
                partition_ratio,
                build_ratio,
                probe_ratio,
            } => RatioPlan {
                partition: Ratios::uniform(*partition_ratio, 3),
                build: Ratios::uniform(*build_ratio, 4),
                probe: Ratios::uniform(*probe_ratio, 4),
            },
            Scheme::Pipelined {
                partition,
                build,
                probe,
            } => RatioPlan {
                partition: Ratios::new(partition.to_vec()),
                build: Ratios::new(build.to_vec()),
                probe: Ratios::new(probe.to_vec()),
            },
            Scheme::BasicUnit { .. } => return None,
        };
        Some(plan)
    }

    /// The average CPU share of the build phase (used to size PCI-e
    /// transfers on the discrete topology).
    pub(crate) fn build_cpu_share(&self) -> f64 {
        average(self.build.as_slice())
    }

    /// The average CPU share of the probe phase.
    pub(crate) fn probe_cpu_share(&self) -> f64 {
        average(self.probe.as_slice())
    }

    /// The average CPU share of a partition pass.
    pub(crate) fn partition_cpu_share(&self) -> f64 {
        average(self.partition.as_slice())
    }
}

fn average(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_gpu_only_plans() {
        let cpu = RatioPlan::from_scheme(&Scheme::CpuOnly).unwrap();
        assert_eq!(cpu.build.as_slice(), &[1.0; 4]);
        assert_eq!(cpu.partition.as_slice(), &[1.0; 3]);
        let gpu = RatioPlan::from_scheme(&Scheme::GpuOnly).unwrap();
        assert_eq!(gpu.probe.as_slice(), &[0.0; 4]);
        assert_eq!(gpu.build_cpu_share(), 0.0);
    }

    #[test]
    fn dd_plan_is_uniform_per_phase() {
        let plan = RatioPlan::from_scheme(&Scheme::data_dividing_paper()).unwrap();
        assert!(plan.build.is_uniform());
        assert!(plan.probe.is_uniform());
        assert!((plan.build_cpu_share() - 0.26).abs() < 1e-12);
        assert!((plan.probe_cpu_share() - 0.41).abs() < 1e-12);
        assert!((plan.partition_cpu_share() - 0.11).abs() < 1e-12);
    }

    #[test]
    fn ol_plan_is_zero_one() {
        let plan = RatioPlan::from_scheme(&Scheme::offload_gpu()).unwrap();
        assert!(plan.build.as_slice().iter().all(|&r| r == 0.0));
        let mixed = Scheme::Offload {
            partition_on_cpu: [true, false, true],
            build_on_cpu: [false, true, false, true],
            probe_on_cpu: [false; 4],
        };
        let plan = RatioPlan::from_scheme(&mixed).unwrap();
        assert_eq!(plan.partition.as_slice(), &[1.0, 0.0, 1.0]);
        assert_eq!(plan.build.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
        assert!(!plan.build.is_uniform());
    }

    #[test]
    fn pl_plan_keeps_per_step_ratios() {
        let plan = RatioPlan::from_scheme(&Scheme::pipelined_paper()).unwrap();
        assert_eq!(plan.build.len(), 4);
        assert_eq!(plan.probe.len(), 4);
        assert_eq!(plan.partition.len(), 3);
        assert!(!plan.build.is_uniform());
    }

    #[test]
    fn basic_unit_has_no_static_plan() {
        assert!(RatioPlan::from_scheme(&Scheme::basic_unit_default()).is_none());
    }
}
