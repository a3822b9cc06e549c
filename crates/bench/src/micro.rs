//! Figure 20: the latch micro-benchmark on the CPU and the GPU.

use crate::common::{banner, ExpContext};
use apu_sim::{AtomicWorkload, DeviceSpec, LatchModel};

/// Figure 20: locking time of 16 M atomic increments over an array of `N`
/// integers, for uniform / low-skew / high-skew access on the CPU (256
/// concurrent work items) and the GPU (8192 work items).
pub(crate) fn fig20(ctx: &mut ExpContext) {
    banner("Figure 20: latch micro-benchmark (16M increments over an N-integer array)");
    let model = LatchModel::a8_3870k();
    let devices = [
        ("CPU", DeviceSpec::a8_3870k_cpu(), 256u64),
        ("GPU", DeviceSpec::a8_3870k_gpu(), 8192u64),
    ];
    let skews = [("uniform", 0.0), ("low-skew", 0.10), ("high-skew", 0.25)];

    let mut rows = Vec::new();
    for (dev_label, spec, threads) in &devices {
        println!("--- {dev_label} (K = {threads} work items) ---");
        println!(
            "{:>12} {:>12} {:>12} {:>12}",
            "N", "uniform(s)", "low-skew(s)", "high-skew(s)"
        );
        let mut n = 1u64;
        while n <= 16 * 1024 * 1024 {
            let mut cells = Vec::new();
            for (_, skew) in &skews {
                let workload = AtomicWorkload::paper(n, *threads, *skew);
                cells.push(model.locking_time(spec, &workload).as_secs());
            }
            println!(
                "{:>12} {:>12.3} {:>12.3} {:>12.3}",
                n, cells[0], cells[1], cells[2]
            );
            rows.push(format!(
                "{dev_label},{n},{:.6},{:.6},{:.6}",
                cells[0], cells[1], cells[2]
            ));
            n *= 4;
        }
    }
    println!("(contention dominates small arrays; cache misses dominate beyond 1M integers = 4MB,");
    println!(" where skewed access becomes slightly cheaper than uniform — as in the paper)");
    ctx.write_csv(
        "fig20.csv",
        "device,array_len,uniform_s,low_skew_s,high_skew_s",
        &rows,
    );
}
