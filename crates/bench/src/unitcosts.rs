//! Experiments around per-step unit costs and optimal ratios:
//! Table 1, Figure 4, Figure 5 and Figure 6.

use crate::common::{banner, ExpContext};
use apu_sim::DeviceSpec;
use costmodel::{calibrate_from_relations, optimize_pl_ratios, JoinCostModel};
use hj_core::Algorithm;

/// Table 1: the hardware configuration of the devices under test.
pub(crate) fn table1(ctx: &mut ExpContext) {
    banner("Table 1: configuration of AMD Fusion A8-3870K (and Radeon HD 7970 for reference)");
    let specs = [
        DeviceSpec::a8_3870k_cpu(),
        DeviceSpec::a8_3870k_gpu(),
        DeviceSpec::radeon_hd7970(),
    ];
    println!(
        "{:<18} {:>8} {:>10} {:>12} {:>14} {:>12}",
        "device", "cores", "freq(GHz)", "wavefront", "local mem(KB)", "Ginstr/s"
    );
    let mut rows = Vec::new();
    for s in &specs {
        println!(
            "{:<18} {:>8} {:>10.2} {:>12} {:>14} {:>12.1}",
            s.name,
            s.total_lanes(),
            s.frequency_ghz,
            s.wavefront_size,
            s.local_mem_bytes / 1024,
            s.instr_throughput_per_ns()
        );
        rows.push(format!(
            "{},{},{},{},{},{:.1}",
            s.name,
            s.total_lanes(),
            s.frequency_ghz,
            s.wavefront_size,
            s.local_mem_bytes / 1024,
            s.instr_throughput_per_ns()
        ));
    }
    println!("zero-copy buffer: 512 MB (shared), cache: 4 MB (shared)");
    ctx.write_csv(
        "table1.csv",
        "device,cores,freq_ghz,wavefront,local_mem_kb,ginstr_per_s",
        &rows,
    );
}

/// Figure 4: unit costs (ns/tuple) of every PHJ step on the CPU and the GPU.
pub(crate) fn fig04(ctx: &mut ExpContext) {
    banner("Figure 4: unit costs for different steps on the CPU and the GPU (PHJ)");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let costs = calibrate_from_relations(&sys, &build, &probe, Algorithm::partitioned_auto());
    println!(
        "{:<6} {:>12} {:>12} {:>10}",
        "step", "CPU (ns)", "GPU (ns)", "speedup"
    );
    let mut rows = Vec::new();
    for (step, cpu, gpu) in costs.figure4_rows() {
        let speedup = if gpu > 0.0 { cpu / gpu } else { f64::NAN };
        println!(
            "{:<6} {:>12.2} {:>12.2} {:>9.1}x",
            step.label(),
            cpu,
            gpu,
            speedup
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.2}",
            step.label(),
            cpu,
            gpu,
            speedup
        ));
    }
    ctx.write_csv(
        "fig04.csv",
        "step,cpu_ns_per_tuple,gpu_ns_per_tuple,gpu_speedup",
        &rows,
    );
}

fn print_ratio_figure(
    ctx: &mut ExpContext,
    name: &str,
    title: &str,
    series: &[(&str, Vec<&str>, hj_core::Ratios)],
) {
    banner(title);
    let mut rows = Vec::new();
    for (phase, labels, ratios) in series {
        for (i, label) in labels.iter().enumerate() {
            let cpu = ratios.get(i) * 100.0;
            println!(
                "{phase:<10} {label:<4} CPU {cpu:>5.1}%   GPU {:>5.1}%",
                100.0 - cpu
            );
            rows.push(format!(
                "{phase},{label},{:.3},{:.3}",
                ratios.get(i),
                1.0 - ratios.get(i)
            ));
        }
    }
    ctx.write_csv(name, "phase,step,cpu_ratio,gpu_ratio", &rows);
}

/// Figure 5: cost-model-optimal workload ratios of the SHJ-PL steps.
pub(crate) fn fig05(ctx: &mut ExpContext) {
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let costs = calibrate_from_relations(&sys, &build, &probe, Algorithm::Simple);
    let model = JoinCostModel::new(costs);
    let (build_r, _) =
        optimize_pl_ratios(&model.build, build.len(), costmodel::optimizer::PAPER_DELTA);
    let (probe_r, _) =
        optimize_pl_ratios(&model.probe, probe.len(), costmodel::optimizer::PAPER_DELTA);
    print_ratio_figure(
        ctx,
        "fig05.csv",
        "Figure 5: optimal workload ratios of different steps for SHJ-PL",
        &[
            ("build", vec!["b1", "b2", "b3", "b4"], build_r),
            ("probe", vec!["p1", "p2", "p3", "p4"], probe_r),
        ],
    );
}

/// Figure 6: cost-model-optimal workload ratios of the PHJ-PL steps.
pub(crate) fn fig06(ctx: &mut ExpContext) {
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let costs = calibrate_from_relations(&sys, &build, &probe, Algorithm::partitioned_auto());
    let model = JoinCostModel::new(costs);
    let delta = costmodel::optimizer::PAPER_DELTA;
    let (part_r, _) = optimize_pl_ratios(&model.partition, build.len() + probe.len(), delta);
    let (build_r, _) = optimize_pl_ratios(&model.build, build.len(), delta);
    let (probe_r, _) = optimize_pl_ratios(&model.probe, probe.len(), delta);
    print_ratio_figure(
        ctx,
        "fig06.csv",
        "Figure 6: optimal workload ratios of different steps for PHJ-PL",
        &[
            ("partition", vec!["n1", "n2", "n3"], part_r),
            ("build", vec!["b1", "b2", "b3", "b4"], build_r),
            ("probe", vec!["p1", "p2", "p3", "p4"], probe_r),
        ],
    );
}
