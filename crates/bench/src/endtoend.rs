//! End-to-end comparisons: Figures 13, 14 (size sweeps on uniform and
//! high-skew data), Figure 16 (BasicUnit vs fine-grained co-processing) and
//! Figures 17–18 (observed BasicUnit ratios).

use crate::common::{banner, ExpContext, PAPER_TUPLES};
use costmodel::{calibrate_from_relations, tune_scheme, JoinCostModel};
use datagen::KeyDistribution;
use hj_core::{Algorithm, JoinConfig, Scheme};

/// The build-relation sizes of Figures 13/14, expressed at paper scale.
fn build_sizes() -> Vec<usize> {
    vec![
        64 * 1024,
        128 * 1024,
        256 * 1024,
        512 * 1024,
        1024 * 1024,
        2 * 1024 * 1024,
        4 * 1024 * 1024,
        6 * 1024 * 1024,
        8 * 1024 * 1024,
        10 * 1024 * 1024,
        12 * 1024 * 1024,
        14 * 1024 * 1024,
        16 * 1024 * 1024,
    ]
}

fn size_sweep(ctx: &mut ExpContext, distribution: KeyDistribution, csv_name: &str, title: &str) {
    banner(title);
    let sys = ctx.coupled();
    let variants = [
        ("CPU-only", Scheme::CpuOnly),
        ("DD", Scheme::data_dividing_paper()),
        ("OL", Scheme::offload_gpu()),
        ("PL", Scheme::pipelined_paper()),
    ];
    let mut rows = Vec::new();
    for (algo_label, phj) in [("SHJ", false), ("PHJ", true)] {
        println!("--- {algo_label} ---");
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>12}",
            "|R|", "CPU-only(s)", "DD(s)", "OL(s)", "PL(s)"
        );
        for &paper_build in &build_sizes() {
            let (build, probe) = ctx.relations(paper_build, PAPER_TUPLES, distribution, 1.0);
            let mut cells = Vec::new();
            for (_, scheme) in &variants {
                let cfg = if phj {
                    JoinConfig::phj(scheme.clone())
                } else {
                    JoinConfig::shj(scheme.clone())
                };
                let out = ctx.run_join(&sys, &cfg, &build, &probe);
                cells.push(out.total_time().as_secs());
            }
            println!(
                "{:>10} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
                format_size(paper_build),
                cells[0],
                cells[1],
                cells[2],
                cells[3]
            );
            rows.push(format!(
                "{algo_label},{paper_build},{:.6},{:.6},{:.6},{:.6}",
                cells[0], cells[1], cells[2], cells[3]
            ));
        }
    }
    ctx.write_csv(
        csv_name,
        "algorithm,build_tuples_paper_scale,cpu_only_s,dd_s,ol_s,pl_s",
        &rows,
    );
}

fn format_size(n: usize) -> String {
    if n >= 1024 * 1024 {
        format!("{}M", n / (1024 * 1024))
    } else {
        format!("{}K", n / 1024)
    }
}

/// Figure 13: elapsed time vs build-relation size on the uniform data set.
pub(crate) fn fig13(ctx: &mut ExpContext) {
    size_sweep(
        ctx,
        KeyDistribution::Uniform,
        "fig13.csv",
        "Figure 13: elapsed time comparison on the uniform data set (probe fixed at 16M)",
    );
}

/// Figure 14: elapsed time vs build-relation size on the high-skew data set.
pub(crate) fn fig14(ctx: &mut ExpContext) {
    size_sweep(
        ctx,
        KeyDistribution::high_skew(),
        "fig14.csv",
        "Figure 14: elapsed time comparison on the high-skew data set (probe fixed at 16M)",
    );
}

/// Figure 16: BasicUnit vs the fine-grained co-processing variants, plus the
/// paper's headline improvement percentages (PL vs CPU-only / GPU-only / DD).
pub(crate) fn fig16(ctx: &mut ExpContext) {
    banner("Figure 16: BasicUnit vs fine-grained co-processing (and headline improvements)");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();

    // Tune PL and DD ratios with the cost model, as the paper does.
    let shj_model = JoinCostModel::new(calibrate_from_relations(
        &sys,
        &build,
        &probe,
        Algorithm::Simple,
    ));
    let shj_tuned = tune_scheme(
        &shj_model,
        build.len(),
        probe.len(),
        Algorithm::Simple,
        0.02,
    );
    let phj_model = JoinCostModel::new(calibrate_from_relations(
        &sys,
        &build,
        &probe,
        Algorithm::partitioned_auto(),
    ));
    let phj_tuned = tune_scheme(
        &phj_model,
        build.len(),
        probe.len(),
        Algorithm::partitioned_auto(),
        0.02,
    );

    // Scale the BasicUnit chunk with the workload so the scheduler still
    // dispatches many chunks at reduced HJ_SCALE.
    let basic_unit = Scheme::BasicUnit {
        chunk_tuples: ctx.scaled(256 * 1024).max(1024),
    };
    let mut rows = Vec::new();
    let mut summary: Vec<(String, f64)> = Vec::new();
    for (algo, tuned, make) in [
        (
            "SHJ",
            &shj_tuned,
            JoinConfig::shj as fn(Scheme) -> JoinConfig,
        ),
        (
            "PHJ",
            &phj_tuned,
            JoinConfig::phj as fn(Scheme) -> JoinConfig,
        ),
    ] {
        let basic_unit = ctx.run_join(&sys, &make(basic_unit.clone()), &build, &probe);
        let dd = ctx.run_join(&sys, &make(tuned.data_dividing.clone()), &build, &probe);
        let pl = ctx.run_join(&sys, &make(tuned.pipelined.clone()), &build, &probe);
        let cpu = ctx.run_join(&sys, &make(Scheme::CpuOnly), &build, &probe);
        let gpu = ctx.run_join(&sys, &make(Scheme::GpuOnly), &build, &probe);
        println!(
            "{algo}: BasicUnit {:.3}s  DD {:.3}s  PL {:.3}s  (CPU-only {:.3}s, GPU-only {:.3}s)",
            basic_unit.total_time().as_secs(),
            dd.total_time().as_secs(),
            pl.total_time().as_secs(),
            cpu.total_time().as_secs(),
            gpu.total_time().as_secs()
        );
        let pct = |slow: f64, fast: f64| 100.0 * (1.0 - fast / slow);
        let vs_cpu = pct(cpu.total_time().as_secs(), pl.total_time().as_secs());
        let vs_gpu = pct(gpu.total_time().as_secs(), pl.total_time().as_secs());
        let vs_dd = pct(dd.total_time().as_secs(), pl.total_time().as_secs());
        let vs_basic = pct(basic_unit.total_time().as_secs(), pl.total_time().as_secs());
        println!(
            "  {algo}-PL improvement: {vs_cpu:.0}% over CPU-only, {vs_gpu:.0}% over GPU-only, {vs_dd:.0}% over DD, {vs_basic:.0}% over BasicUnit"
        );
        summary.push((format!("{algo} PL vs CPU-only"), vs_cpu));
        summary.push((format!("{algo} PL vs GPU-only"), vs_gpu));
        summary.push((format!("{algo} PL vs DD"), vs_dd));
        rows.push(format!(
            "{algo},{:.6},{:.6},{:.6},{:.6},{:.6},{vs_cpu:.1},{vs_gpu:.1},{vs_dd:.1},{vs_basic:.1}",
            basic_unit.total_time().as_secs(),
            dd.total_time().as_secs(),
            pl.total_time().as_secs(),
            cpu.total_time().as_secs(),
            gpu.total_time().as_secs()
        ));
    }
    println!("(paper headline: up to 53% over CPU-only, 35% over GPU-only, 28% over conventional co-processing)");
    ctx.write_csv(
        "fig16.csv",
        "algorithm,basicunit_s,dd_s,pl_s,cpu_only_s,gpu_only_s,pl_vs_cpu_pct,pl_vs_gpu_pct,pl_vs_dd_pct,pl_vs_basicunit_pct",
        &rows,
    );
}

/// Figures 17 and 18: the per-phase CPU shares that the BasicUnit scheduler
/// converges to for SHJ and PHJ.
pub(crate) fn fig17_18(ctx: &mut ExpContext) {
    banner("Figures 17-18: workload ratios of different steps under BasicUnit");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let scheme = Scheme::BasicUnit {
        chunk_tuples: ctx.scaled(256 * 1024).max(1024),
    };
    let mut rows = Vec::new();
    for (algo, cfg) in [
        ("SHJ", JoinConfig::shj(scheme.clone())),
        ("PHJ", JoinConfig::phj(scheme)),
    ] {
        let out = ctx.run_join(&sys, &cfg, &build, &probe);
        let ratios = out.basic_unit_ratios.expect("BasicUnit reports its ratios");
        if algo == "PHJ" {
            println!(
                "{algo}: partition CPU {:.0}% / GPU {:.0}%",
                ratios.partition * 100.0,
                (1.0 - ratios.partition) * 100.0
            );
        }
        println!(
            "{algo}: build CPU {:.0}% / GPU {:.0}%   probe CPU {:.0}% / GPU {:.0}%",
            ratios.build * 100.0,
            (1.0 - ratios.build) * 100.0,
            ratios.probe * 100.0,
            (1.0 - ratios.probe) * 100.0
        );
        rows.push(format!(
            "{algo},{:.4},{:.4},{:.4}",
            ratios.partition, ratios.build, ratios.probe
        ));
    }
    println!("(BasicUnit forces the same ratio on every step of a phase — the deficiency Figure 16 quantifies)");
    ctx.write_csv(
        "fig17_18.csv",
        "algorithm,partition_cpu,build_cpu,probe_cpu",
        &rows,
    );
}
