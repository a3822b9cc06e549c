//! Design-tradeoff experiments: Figure 10 (shared vs separate hash tables),
//! Figure 11 (allocation block size), Figure 12 (basic vs optimised
//! allocator) and Table 3 (fine vs coarse step definition).

use crate::common::{banner, secs, ExpContext};
use apu_sim::Phase;
use hj_core::{HashTableMode, JoinConfig, Scheme, StepGranularity};
use mem_alloc::AllocatorKind;

/// Figure 10: elapsed time of the build phase of DD with separate and shared
/// hash tables (SHJ and PHJ).
pub(crate) fn fig10(ctx: &mut ExpContext) {
    banner("Figure 10: build phase of DD with separate and shared hash tables");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let mut rows = Vec::new();
    for (algo_label, cfg) in [
        (
            "Simple hash join",
            JoinConfig::shj(Scheme::data_dividing_paper()),
        ),
        (
            "Partitioned hash join",
            JoinConfig::phj(Scheme::data_dividing_paper()),
        ),
    ] {
        let mut per_mode = Vec::new();
        for mode in [HashTableMode::Separate, HashTableMode::Shared] {
            let out = ctx.run_join(&sys, &cfg.clone().with_hash_table(mode), &build, &probe);
            // The separate-table bar includes the merge it necessitates.
            let build_time = out.breakdown.get(Phase::Build) + out.breakdown.get(Phase::Merge);
            per_mode.push(build_time);
            rows.push(format!("{algo_label},{mode:?},{:.6}", build_time.as_secs()));
        }
        let gain = 100.0 * (1.0 - per_mode[1].as_secs() / per_mode[0].as_secs());
        println!(
            "{algo_label:<22} separate {:>8}  shared {:>8}  (shared wins by {gain:.0}%)",
            secs(per_mode[0]),
            secs(per_mode[1]),
        );
    }
    ctx.write_csv("fig10.csv", "algorithm,hash_table,build_phase_s", &rows);
}

/// Figure 11: total elapsed time and lock overhead of PHJ while sweeping the
/// allocation block size from 8 B to 32 KB, for DD, OL and PL.
pub(crate) fn fig11(ctx: &mut ExpContext) {
    banner("Figure 11: elapsed time (a) and lock overhead (b) vs allocation block size (PHJ)");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let schemes = [
        ("PHJ-DD", Scheme::data_dividing_paper()),
        ("PHJ-OL", Scheme::offload_gpu()),
        ("PHJ-PL", Scheme::pipelined_paper()),
    ];
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>10} {:>12} {:>14}",
        "block", "variant", "elapsed(s)", "lock ovh(s)"
    );
    let mut size = 8usize;
    while size <= 32 * 1024 {
        for (label, scheme) in &schemes {
            let cfg = JoinConfig::phj(scheme.clone())
                .with_allocator(AllocatorKind::Block { block_size: size });
            let out = ctx.run_join(&sys, &cfg, &build, &probe);
            println!(
                "{:<10} {:>10} {:>12.3} {:>14.3}",
                format!("{size}B"),
                label,
                out.total_time().as_secs(),
                out.counters.lock_overhead.as_secs()
            );
            rows.push(format!(
                "{size},{label},{:.6},{:.6}",
                out.total_time().as_secs(),
                out.counters.lock_overhead.as_secs()
            ));
        }
        size *= 2;
    }
    ctx.write_csv(
        "fig11.csv",
        "block_bytes,variant,elapsed_s,lock_overhead_s",
        &rows,
    );
    println!("(the paper's sweet spot is 2 KB; beyond that the curves flatten)");
}

/// Figure 12: hash-join performance with the basic and the optimised memory
/// allocator, for SHJ and PHJ under DD, OL and PL.
pub(crate) fn fig12(ctx: &mut ExpContext) {
    banner("Figure 12: basic vs optimised memory allocator");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let mut rows = Vec::new();
    type MakeConfig = fn(Scheme) -> JoinConfig;
    let algos: [(&str, MakeConfig); 2] = [("SHJ", JoinConfig::shj), ("PHJ", JoinConfig::phj)];
    let schemes = [
        ("DD", Scheme::data_dividing_paper()),
        ("OL", Scheme::offload_gpu()),
        ("PL", Scheme::pipelined_paper()),
    ];
    // Run all Basic-allocator variants first, then all tuned ones, so the
    // pooled engine rebuilds its arena once per allocator design instead of
    // on every alternation.
    let mut timed = |allocator: AllocatorKind| -> Vec<f64> {
        let mut times = Vec::new();
        for (_, make) in algos {
            for (_, scheme) in &schemes {
                let out = ctx.run_join(
                    &sys,
                    &make(scheme.clone()).with_allocator(allocator),
                    &build,
                    &probe,
                );
                times.push(out.total_time().as_secs());
            }
        }
        times
    };
    let basic_times = timed(AllocatorKind::Basic);
    let ours_times = timed(AllocatorKind::tuned());
    for (i, (algo, _)) in algos.iter().enumerate() {
        for (j, (label, _)) in schemes.iter().enumerate() {
            let (basic, ours) = (
                basic_times[i * schemes.len() + j],
                ours_times[i * schemes.len() + j],
            );
            let gain = 100.0 * (1.0 - ours / basic);
            println!(
                "{algo}-{label:<3} Basic {:>8.3}  Ours {:>8.3}  (improvement {gain:.0}%)",
                basic, ours
            );
            rows.push(format!("{algo},{label},{basic:.6},{ours:.6},{gain:.1}"));
        }
    }
    ctx.write_csv(
        "fig12.csv",
        "algorithm,scheme,basic_s,ours_s,improvement_pct",
        &rows,
    );
}

/// Table 3: fine-grained (PHJ-PL) vs coarse-grained (PHJ-PL') step
/// definition — L2 misses, miss ratio and elapsed time.
pub(crate) fn table3(ctx: &mut ExpContext) {
    banner("Table 3: fine-grained vs coarse-grained step definitions in PL");
    let sys = ctx.coupled();
    let (build, probe) = ctx.default_relations();
    let fine = ctx.run_join(
        &sys,
        &JoinConfig::phj(Scheme::pipelined_paper()),
        &build,
        &probe,
    );
    let coarse = ctx.run_join(
        &sys,
        &JoinConfig::phj(Scheme::pipelined_paper()).with_granularity(StepGranularity::Coarse),
        &build,
        &probe,
    );
    let mut rows = Vec::new();
    println!(
        "{:<10} {:>18} {:>16} {:>10}",
        "variant", "L2 misses (x1e6)", "miss ratio", "time (s)"
    );
    for (label, out) in [("PHJ-PL", &fine), ("PHJ-PL'", &coarse)] {
        let misses = out.counters.analytic_misses / 1e6;
        let ratio = out.counters.analytic_misses / out.counters.analytic_accesses.max(1.0);
        println!(
            "{:<10} {:>18.1} {:>15.1}% {:>10.3}",
            label,
            misses,
            ratio * 100.0,
            out.total_time().as_secs()
        );
        rows.push(format!(
            "{label},{misses:.2},{:.4},{:.6}",
            ratio,
            out.total_time().as_secs()
        ));
    }
    assert_eq!(
        fine.matches, coarse.matches,
        "both variants must agree on the result"
    );
    ctx.write_csv(
        "table3.csv",
        "variant,l2_misses_millions,miss_ratio,time_s",
        &rows,
    );
}
