//! Cost-model accuracy experiments: Figures 7, 8 and 9.

use crate::common::{banner, ExpContext};
use apu_sim::Phase;
use costmodel::{
    calibrate_from_relations, cdf_points, monte_carlo_series, optimize_pl_ratios, JoinCostModel,
};
use hj_core::{Algorithm, JoinConfig, Ratios, Scheme};

/// Figure 7: estimated vs measured elapsed time of SHJ-DD while sweeping the
/// workload ratio of the build phase and of the probe phase.
pub(crate) fn fig07(ctx: &mut ExpContext) {
    banner("Figure 7: estimated and measured time for SHJ-DD with workload ratios varied");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let model = JoinCostModel::new(calibrate_from_relations(
        &sys,
        &build,
        &probe,
        Algorithm::Simple,
    ));

    let mut rows = Vec::new();
    println!(
        "{:<6} {:>6} {:>14} {:>14} {:>14} {:>14}",
        "ratio", "%", "est build(s)", "meas build(s)", "est probe(s)", "meas probe(s)"
    );
    for step in 0..=10 {
        let r = step as f64 / 10.0;
        let est_build = model.build.estimate(build.len(), &Ratios::uniform(r, 4));
        let est_probe = model.probe.estimate(probe.len(), &Ratios::uniform(r, 4));
        let cfg = JoinConfig::shj(Scheme::DataDividing {
            partition_ratio: r,
            build_ratio: r,
            probe_ratio: r,
        });
        let out = ctx.run_join(&sys, &cfg, &build, &probe);
        let meas_build = out.breakdown.get(Phase::Build);
        let meas_probe = out.breakdown.get(Phase::Probe);
        println!(
            "{:<6.2} {:>5.0}% {:>14.3} {:>14.3} {:>14.3} {:>14.3}",
            r,
            r * 100.0,
            est_build.as_secs(),
            meas_build.as_secs(),
            est_probe.as_secs(),
            meas_probe.as_secs()
        );
        rows.push(format!(
            "{r},{:.6},{:.6},{:.6},{:.6}",
            est_build.as_secs(),
            meas_build.as_secs(),
            est_probe.as_secs(),
            meas_probe.as_secs()
        ));
    }
    ctx.write_csv(
        "fig07.csv",
        "cpu_ratio,estimated_build_s,measured_build_s,estimated_probe_s,measured_probe_s",
        &rows,
    );
    println!(
        "(estimates sit slightly below measurements because the model ignores lock contention)"
    );
}

/// Figure 8: the PL special case — `b1`/`p1` entirely off-loaded to the GPU,
/// one common ratio `r` for every other step — estimated vs measured.
pub(crate) fn fig08(ctx: &mut ExpContext) {
    banner("Figure 8: estimated and measured time for the PL special case (hash steps on GPU)");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let model = JoinCostModel::new(calibrate_from_relations(
        &sys,
        &build,
        &probe,
        Algorithm::Simple,
    ));

    let mut rows = Vec::new();
    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>14}",
        "r", "est build(s)", "meas build(s)", "est probe(s)", "meas probe(s)"
    );
    for step in 0..=10 {
        let r = step as f64 / 10.0;
        let build_ratios = Ratios::new(vec![0.0, r, r, r]);
        let probe_ratios = Ratios::new(vec![0.0, r, r, r]);
        let est_build = model.build.estimate(build.len(), &build_ratios);
        let est_probe = model.probe.estimate(probe.len(), &probe_ratios);
        let cfg = JoinConfig::shj(Scheme::Pipelined {
            partition: [0.0, r, r],
            build: [0.0, r, r, r],
            probe: [0.0, r, r, r],
        });
        let out = ctx.run_join(&sys, &cfg, &build, &probe);
        println!(
            "{:<6.2} {:>14.3} {:>14.3} {:>14.3} {:>14.3}",
            r,
            est_build.as_secs(),
            out.breakdown.get(Phase::Build).as_secs(),
            est_probe.as_secs(),
            out.breakdown.get(Phase::Probe).as_secs()
        );
        rows.push(format!(
            "{r},{:.6},{:.6},{:.6},{:.6}",
            est_build.as_secs(),
            out.breakdown.get(Phase::Build).as_secs(),
            est_probe.as_secs(),
            out.breakdown.get(Phase::Probe).as_secs()
        ));
    }
    ctx.write_csv(
        "fig08.csv",
        "r,estimated_build_s,measured_build_s,estimated_probe_s,measured_probe_s",
        &rows,
    );
}

/// Figure 9: CDF of one thousand Monte-Carlo ratio settings versus the
/// cost-model-chosen setting, for the build phase of SHJ-PL and the probe
/// phase of PHJ-PL.
pub(crate) fn fig09(ctx: &mut ExpContext) {
    banner("Figure 9: Monte-Carlo CDF of random ratio settings vs the cost-model choice");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();

    let shj = JoinCostModel::new(calibrate_from_relations(
        &sys,
        &build,
        &probe,
        Algorithm::Simple,
    ));
    let phj = JoinCostModel::new(calibrate_from_relations(
        &sys,
        &build,
        &probe,
        Algorithm::partitioned_auto(),
    ));

    let mut rows = Vec::new();
    for (label, model, items) in [
        ("SHJ-PL build", &shj.build, build.len()),
        ("PHJ-PL probe", &phj.probe, probe.len()),
    ] {
        let samples = monte_carlo_series(model, items, 1000, 2013);
        let times: Vec<_> = samples.iter().map(|(_, t)| *t).collect();
        let (chosen_ratios, chosen) =
            optimize_pl_ratios(model, items, costmodel::optimizer::PAPER_DELTA);
        let beaten = times.iter().filter(|t| **t < chosen).count();
        let best = times
            .iter()
            .fold(chosen, |acc, t| if *t < acc { *t } else { acc });
        println!(
            "{label}: ours {:.3}s | best of 1000 runs {:.3}s | {:.1}% of random settings are slower | ratios {:?}",
            chosen.as_secs(),
            best.as_secs(),
            100.0 * (1.0 - beaten as f64 / times.len() as f64),
            chosen_ratios.as_slice(),
        );
        for (threshold, fraction) in cdf_points(&times, 25) {
            rows.push(format!(
                "{label},{threshold:.6},{fraction:.4},{:.6}",
                chosen.as_secs()
            ));
        }
    }
    ctx.write_csv("fig09.csv", "series,elapsed_s,cdf,ours_s", &rows);
}
