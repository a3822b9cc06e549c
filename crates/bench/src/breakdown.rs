//! Time-breakdown experiments: Figure 3 (discrete vs coupled), Figure 15
//! (join selectivity) and Figure 19 (out-of-core joins).

use crate::common::{banner, secs, ExpContext, PAPER_TUPLES};
use apu_sim::{Phase, SystemSpec, Topology};
use datagen::KeyDistribution;
use hj_core::{JoinConfig, JoinOutcome, Scheme};

fn breakdown_row(label: &str, arch: &str, out: &JoinOutcome) -> (String, String) {
    let printable = format!(
        "{:<10} {:<9} transfer {:>7} merge {:>7} partition {:>7} build {:>7} probe {:>7} | total {:>7}",
        label,
        arch,
        secs(out.breakdown.get(Phase::DataTransfer)),
        secs(out.breakdown.get(Phase::Merge)),
        secs(out.breakdown.get(Phase::Partition)),
        secs(out.breakdown.get(Phase::Build)),
        secs(out.breakdown.get(Phase::Probe)),
        secs(out.total_time()),
    );
    let csv = format!(
        "{label},{arch},{},{:.6}",
        out.breakdown.csv_row(),
        out.total_time().as_secs()
    );
    (printable, csv)
}

/// Figure 3: time breakdown of SHJ-DD / SHJ-OL / PHJ-DD / PHJ-OL on the
/// emulated discrete architecture and on the coupled architecture.
pub(crate) fn fig03(ctx: &mut ExpContext) {
    banner("Figure 3: time breakdown on discrete and coupled architectures");
    let (build, probe) = ctx.default_relations();
    // The workload ratios the paper reports for the discrete architecture.
    let dd_discrete = Scheme::DataDividing {
        partition_ratio: 0.11,
        build_ratio: 0.25,
        probe_ratio: 0.42,
    };
    let variants: Vec<(&str, JoinConfig)> = vec![
        ("SHJ-DD", JoinConfig::shj(dd_discrete.clone())),
        ("SHJ-OL", JoinConfig::shj(Scheme::offload_gpu())),
        ("PHJ-DD", JoinConfig::phj(dd_discrete)),
        ("PHJ-OL", JoinConfig::phj(Scheme::offload_gpu())),
    ];
    let mut rows = Vec::new();
    for (label, cfg) in &variants {
        for (arch, sys) in [("discrete", ctx.discrete()), ("coupled", ctx.coupled())] {
            let out = ctx.run_join(&sys, cfg, &build, &probe);
            let (line, csv) = breakdown_row(label, arch, &out);
            println!("{line}");
            rows.push(csv);
        }
    }
    let header = format!(
        "variant,architecture,{},total",
        apu_sim::PhaseBreakdown::csv_header()
    );
    ctx.write_csv("fig03.csv", &header, &rows);
    println!("(transfer and merge exist only on the discrete architecture, as in the paper)");
}

/// Figure 15: PHJ time breakdown with join selectivity 12.5 %, 50 % and
/// 100 % for DD, OL and PL.
pub(crate) fn fig15(ctx: &mut ExpContext) {
    banner("Figure 15: PHJ with join selectivity varied");
    let sys = ctx.coupled();
    let mut rows = Vec::new();
    for selectivity in [0.125, 0.5, 1.0] {
        let (build, probe) = ctx.relations(
            PAPER_TUPLES,
            PAPER_TUPLES,
            KeyDistribution::Uniform,
            selectivity,
        );
        for (label, scheme) in [
            ("DD", Scheme::data_dividing_paper()),
            ("OL", Scheme::offload_gpu()),
            ("PL", Scheme::pipelined_paper()),
        ] {
            let out = ctx.run_join(&sys, &JoinConfig::phj(scheme), &build, &probe);
            println!(
                "selectivity {:>5.1}% {:<3} partition {:>7} build {:>7} probe {:>7} | total {:>7} ({} matches)",
                selectivity * 100.0,
                label,
                secs(out.breakdown.get(Phase::Partition)),
                secs(out.breakdown.get(Phase::Build)),
                secs(out.breakdown.get(Phase::Probe)),
                secs(out.total_time()),
                out.matches,
            );
            rows.push(format!(
                "{selectivity},{label},{:.6},{:.6},{:.6},{:.6},{}",
                out.breakdown.get(Phase::Partition).as_secs(),
                out.breakdown.get(Phase::Build).as_secs(),
                out.breakdown.get(Phase::Probe).as_secs(),
                out.total_time().as_secs(),
                out.matches
            ));
        }
    }
    ctx.write_csv(
        "fig15.csv",
        "selectivity,scheme,partition_s,build_s,probe_s,total_s,matches",
        &rows,
    );
}

/// Figure 19: joins on data sets larger than the zero-copy buffer
/// (16 M – 128 M tuples per relation at paper scale), SHJ-PL vs PHJ-PL on
/// each partition pair.
pub(crate) fn fig19(ctx: &mut ExpContext) {
    banner("Figure 19: large data sets beyond the zero-copy buffer (|R| = |S|)");
    // Shrink the zero-copy buffer with the scale so the spill behaviour is
    // identical to the paper's at any HJ_SCALE.
    let mut sys: SystemSpec = ctx.coupled();
    let buffer = (512 * 1024 * 1024) / ctx.scale;
    sys.topology = Topology::Coupled {
        shared_cache_bytes: 4 * 1024 * 1024,
        zero_copy_bytes: buffer,
    };
    let chunk = ctx.scaled(PAPER_TUPLES);
    let mut rows = Vec::new();
    for paper_tuples in [16, 32, 64, 128] {
        let n = paper_tuples * 1024 * 1024;
        let (build, probe) = ctx.relations(n, n, KeyDistribution::Uniform, 1.0);
        for (label, cfg) in [
            ("SHJ-PL", JoinConfig::shj(Scheme::pipelined_paper())),
            ("PHJ-PL", JoinConfig::phj(Scheme::pipelined_paper())),
        ] {
            let out = ctx.run_out_of_core(&sys, &cfg, &build, &probe, chunk);
            let join_time = out.breakdown.get(Phase::Build)
                + out.breakdown.get(Phase::Probe)
                + out.breakdown.get(Phase::Merge);
            println!(
                "|R|=|S|={:>4}M {:<7} partition {:>8} join {:>8} copy {:>8} | total {:>8}",
                paper_tuples,
                label,
                secs(out.breakdown.get(Phase::Partition)),
                secs(join_time),
                secs(out.breakdown.get(Phase::DataCopy)),
                secs(out.total_time()),
            );
            rows.push(format!(
                "{paper_tuples},{label},{:.6},{:.6},{:.6},{:.6}",
                out.breakdown.get(Phase::Partition).as_secs(),
                join_time.as_secs(),
                out.breakdown.get(Phase::DataCopy).as_secs(),
                out.total_time().as_secs()
            ));
        }
    }
    ctx.write_csv(
        "fig19.csv",
        "tuples_millions_paper_scale,variant,partition_s,join_s,copy_s,total_s",
        &rows,
    );
}
