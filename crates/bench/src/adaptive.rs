//! Adaptive-tuner recovery benchmark (`BENCH_adaptive`).
//!
//! The scenario the adaptive subsystem exists for: the offline cost model
//! was calibrated wrong (here: CPU and GPU unit costs swapped — the worst
//! case, every step pinned to its *slow* device), and the probe stream is
//! Zipf-skewed, which a uniform calibration mispredicts anyway.  The
//! experiment measures three runs of the same join on the coupled
//! simulator's virtual clock:
//!
//! * **static-oracle** — tuned from a truthful calibration (the best the
//!   offline model can do);
//! * **static-bad** — tuned from the swapped calibration, run as-is;
//! * **adaptive-bad** — the same bad plan *and* the same bad prior, but
//!   with `Tuning::Adaptive`: the tuner must claw back the gap at runtime.
//!
//! A native-backend leg re-runs static vs adaptive on real threads and
//! asserts result identity (ratios are placement hints there; the tuner
//! only collects wall-clock telemetry).
//!
//! CI gating knobs (environment; a malformed value is a hard error):
//!
//! * `HJ_ADAPTIVE_MIN_VS_BAD` — fail (exit 1) when adaptive-bad throughput
//!   falls below this multiple of static-bad (CI sets 1.15);
//! * `HJ_ADAPTIVE_MIN_VS_ORACLE` — fail when adaptive-bad falls below this
//!   fraction of static-oracle (CI sets 0.9).

use crate::common::{banner, env_ratio_floor, ExpContext};
use costmodel::{calibrate_from_relations, tune_scheme, JoinCostModel};
use hj_core::adaptive::{AdaptiveConfig, SeriesKind};
use hj_core::{
    Algorithm, EngineConfig, JoinEngine, JoinOutcome, JoinRequest, NativeCpu, Scheme, Tuning,
};

/// Morsel size of the runs: small enough that every step yields dozens of
/// re-plan points at the default experiment scale.
const MORSEL_TUPLES: usize = 256;

struct SimLeg {
    label: &'static str,
    secs: f64,
    joins_per_sec: f64,
    replans: u64,
}

fn ratio_row(label: &str, ratios: &[f64]) -> String {
    let cells: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
    format!("{label:>10}: [{}]", cells.join(", "))
}

/// `adaptive`: runtime ratio re-planning recovering from a mis-calibrated
/// prior on a Zipf-skewed workload.
pub fn adaptive(ctx: &mut ExpContext) {
    banner("BENCH_adaptive: tuner recovery from a mis-calibrated cost model");
    let sys = ctx.coupled();
    let (r, s) = ctx.relations(
        512 * 1024,
        2 * 1024 * 1024,
        datagen::KeyDistribution::zipf(1.1),
        1.0,
    );
    println!(
        "workload: {} x {} tuples, zipf(1.1) probe skew, morsels of {} tuples",
        r.len(),
        s.len(),
        MORSEL_TUPLES
    );

    // Truthful calibration → the oracle plan; swapped calibration → the
    // bad plan and the bad prior that seeds the tuner.
    let good_costs = calibrate_from_relations(&sys, &r, &s, Algorithm::Simple);
    let bad_costs = good_costs.swapped_devices();
    let oracle = tune_scheme(
        &JoinCostModel::new(good_costs),
        r.len(),
        s.len(),
        Algorithm::Simple,
        0.02,
    );
    let bad = tune_scheme(
        &JoinCostModel::new(bad_costs.clone()),
        r.len(),
        s.len(),
        Algorithm::Simple,
        0.02,
    );
    let oracle_scheme = oracle.pipelined.clone();
    let bad_scheme = bad.pipelined.clone();

    let engine = JoinEngine::for_system(sys, EngineConfig::for_tuples(r.len(), s.len()))
        .expect("adaptive experiment engine");
    // Grouping is off for all three legs: its divergence-reducing reorder
    // sorts tuples by per-tuple work, which makes the work stream
    // non-stationary along a step — a scalar online estimate (and equally
    // the offline calibration average) then mispredicts whichever end of
    // the sorted order a device ends up with.  Isolating the tuner from
    // that interaction keeps the comparison about *adaptivity*.
    let run = |scheme: Scheme, tuning: Option<Tuning>| -> JoinOutcome {
        let mut builder = JoinRequest::builder()
            .scheme(scheme)
            .grouping(false)
            .morsel_tuples(MORSEL_TUPLES);
        if let Some(tuning) = tuning {
            builder = builder.tuning(tuning);
        }
        let request = builder.build().expect("valid adaptive experiment request");
        engine
            .submit(&request, &r, &s)
            .expect("adaptive experiment join")
    };

    let static_oracle = run(oracle_scheme.clone(), None);
    let static_bad = run(bad_scheme.clone(), None);
    let adaptive_bad = run(
        bad_scheme.clone(),
        Some(Tuning::Adaptive(
            AdaptiveConfig::default()
                .with_prior(bad_costs.adaptive_prior())
                .with_replan_every_morsels(1),
        )),
    );
    let reference = static_oracle.matches;
    assert_eq!(static_bad.matches, reference, "static runs must agree");
    assert_eq!(
        adaptive_bad.matches, reference,
        "adaptive run changed the join result"
    );

    let report = adaptive_bad
        .adaptive
        .clone()
        .expect("adaptive run must carry a report");
    let leg = |label: &'static str, out: &JoinOutcome, replans: u64| SimLeg {
        label,
        secs: out.total_time().as_secs(),
        joins_per_sec: 1.0 / out.total_time().as_secs().max(1e-12),
        replans,
    };
    let legs = [
        leg("static-oracle", &static_oracle, 0),
        leg("static-bad", &static_bad, 0),
        leg("adaptive-bad", &adaptive_bad, report.replans),
    ];
    println!(
        "{:>16} {:>12} {:>14} {:>9}",
        "run", "sim secs", "joins/sim-sec", "replans"
    );
    for leg in &legs {
        println!(
            "{:>16} {:>12.4} {:>14.2} {:>9}",
            leg.label, leg.secs, leg.joins_per_sec, leg.replans
        );
    }

    println!("\nprior vs converged ratios (adaptive-bad):");
    for kind in SeriesKind::ALL {
        let series = report.series(kind);
        if kind == SeriesKind::Partition {
            continue; // SHJ: no partition pass ran
        }
        println!("  {}", kind.label());
        println!("  {}", ratio_row("prior", &series.initial));
        println!("  {}", ratio_row("converged", &series.converged));
        println!("  confidence {:.2}", series.confidence);
    }

    // Native leg: result identity on real threads + wall-clock telemetry.
    let native = JoinEngine::new(
        Box::new(NativeCpu::new()),
        EngineConfig::for_tuples(r.len(), s.len()),
    )
    .expect("native adaptive engine");
    let native_run = |tuning: Option<Tuning>| {
        let mut builder = JoinRequest::builder().scheme(bad_scheme.clone());
        if let Some(tuning) = tuning {
            builder = builder.tuning(tuning);
        }
        native
            .submit(&builder.build().expect("native request"), &r, &s)
            .expect("native adaptive join")
    };
    let native_static = native_run(None);
    let native_adaptive = native_run(Some(Tuning::adaptive()));
    assert_eq!(native_static.matches, reference);
    assert_eq!(native_adaptive.matches, reference);
    let native_report = native_adaptive
        .adaptive
        .clone()
        .expect("native adaptive report");
    println!(
        "\nnative leg: {} matches on both paths, {} wall-clock samples, probe {} ns/tuple",
        reference,
        native_report.samples,
        native_report
            .series(SeriesKind::Probe)
            .wall_ns_per_tuple
            .map_or_else(|| "?".to_string(), |ns| format!("{ns:.1}")),
    );

    let vs_bad = legs[2].joins_per_sec / legs[1].joins_per_sec.max(1e-12);
    let vs_oracle = legs[2].joins_per_sec / legs[0].joins_per_sec.max(1e-12);
    println!(
        "\nadaptive-bad reaches {vs_bad:.3}x static-bad and {vs_oracle:.3}x static-oracle \
         ({} replans, max ratio shift {:.2})",
        report.replans,
        report.max_ratio_shift()
    );

    let json = render_json(
        r.len(),
        s.len(),
        &legs,
        vs_bad,
        vs_oracle,
        native_report.samples,
    );
    let path = "BENCH_adaptive.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let rows: Vec<String> = legs
        .iter()
        .map(|l| {
            format!(
                "{},{:.6},{:.2},{}",
                l.label, l.secs, l.joins_per_sec, l.replans
            )
        })
        .collect();
    ctx.write_csv(
        "adaptive.csv",
        "run,sim_secs,joins_per_sim_sec,replans",
        &rows,
    );

    // CI gates.
    let mut failed = false;
    if let Some(floor) = env_ratio_floor("HJ_ADAPTIVE_MIN_VS_BAD") {
        println!("gate: adaptive-bad vs static-bad ratio {vs_bad:.3} (floor {floor})");
        if vs_bad < floor {
            eprintln!(
                "FAIL: adaptive-from-bad-prior reached only {vs_bad:.3}x the static-bad \
                 throughput (HJ_ADAPTIVE_MIN_VS_BAD={floor})"
            );
            failed = true;
        }
    }
    if let Some(floor) = env_ratio_floor("HJ_ADAPTIVE_MIN_VS_ORACLE") {
        println!("gate: adaptive-bad vs static-oracle ratio {vs_oracle:.3} (floor {floor})");
        if vs_oracle < floor {
            eprintln!(
                "FAIL: adaptive-from-bad-prior reached only {vs_oracle:.3}x the oracle \
                 throughput (HJ_ADAPTIVE_MIN_VS_ORACLE={floor})"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn render_json(
    build_tuples: usize,
    probe_tuples: usize,
    legs: &[SimLeg],
    vs_bad: f64,
    vs_oracle: f64,
    native_samples: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"adaptive-tuner-recovery\",\n");
    out.push_str("  \"backend\": \"coupled-sim\",\n");
    out.push_str("  \"workload\": \"zipf-1.1\",\n");
    out.push_str(&format!("  \"build_tuples\": {build_tuples},\n"));
    out.push_str(&format!("  \"probe_tuples\": {probe_tuples},\n"));
    out.push_str(&format!("  \"morsel_tuples\": {MORSEL_TUPLES},\n"));
    out.push_str("  \"results\": [\n");
    for (i, leg) in legs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"run\": \"{}\", \"sim_secs\": {:.6}, \"joins_per_sim_sec\": {:.2}, \
             \"replans\": {}}}{}\n",
            leg.label,
            leg.secs,
            leg.joins_per_sec,
            leg.replans,
            if i + 1 < legs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"adaptive_vs_static_bad\": {vs_bad:.3},\n  \"adaptive_vs_static_oracle\": {vs_oracle:.3},\n"
    ));
    out.push_str(&format!("  \"native_wall_samples\": {native_samples}\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_all_three_legs_and_the_gate_ratios() {
        let legs = [
            SimLeg {
                label: "static-oracle",
                secs: 0.1,
                joins_per_sec: 10.0,
                replans: 0,
            },
            SimLeg {
                label: "static-bad",
                secs: 0.5,
                joins_per_sec: 2.0,
                replans: 0,
            },
            SimLeg {
                label: "adaptive-bad",
                secs: 0.12,
                joins_per_sec: 8.3,
                replans: 40,
            },
        ];
        let json = render_json(1000, 4000, &legs, 4.15, 0.83, 128);
        assert_eq!(json.matches("\"run\"").count(), 3);
        assert!(json.contains("\"adaptive_vs_static_bad\": 4.150"));
        assert!(json.contains("\"adaptive_vs_static_oracle\": 0.830"));
        assert!(json.contains("\"native_wall_samples\": 128"));
        assert!(json.trim_end().ends_with('}'));
    }
}
