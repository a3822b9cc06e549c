//! The cost model's pipelined composition and ratio search, written once.
//!
//! The paper's cost model (Section 3.2) composes per-step device times
//! into the elapsed time of a step series under pipelined co-processing
//! (Eqs. 1, 2, 4, 5), then searches the per-step CPU ratios at a
//! granularity δ.  This module holds the one copy of each piece, on plain
//! `f64` nanoseconds so it can sit below `hj-core` in the dependency graph:
//!
//! * [`compose_steps`] — the composition.  `hj_core::compose_pipeline`
//!   wraps it in `SimTime` for simulated phases, `costmodel`'s estimates
//!   feed it step by step, and [`solve_ratios`] calls it per tuple.
//! * [`search_ratios`] — a full grid over coarse levels seeding per-step
//!   coordinate descent at δ.  `costmodel::optimizer::optimize_pl_ratios`
//!   runs it on 11 coarse levels, [`solve_ratios`] on 5.
//! * [`ratio_levels`] — every δ grid, `costmodel`'s DD scan included.
//!
//! [`solve_ratios`] is the runtime re-solver: elapsed time is linear in the
//! item count for fixed ratios, so it works per tuple, composing
//! `cpu_unit_ns[i] · r_i` against `gpu_unit_ns[i] · (1 − r_i)`.

/// The paper's ratio granularity δ (Section 3.2).
pub const PAPER_DELTA: f64 = 0.02;

/// The composed timing of one step series, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineNs {
    /// CPU busy time (sum of its step times).
    pub cpu_busy: f64,
    /// GPU busy time (sum of its step times).
    pub gpu_busy: f64,
    /// Total pipeline delay charged to the CPU (Eq. 4).
    pub cpu_delay: f64,
    /// Total pipeline delay charged to the GPU (Eq. 5).
    pub gpu_delay: f64,
    /// Elapsed time of the series: `max(CPU total, GPU total)` (Eq. 1).
    pub elapsed: f64,
}

/// Composes per-step device times into the elapsed time of a series under
/// pipelined co-processing (Eqs. 1, 2, 4, 5): each device's total is the
/// sum of its step times plus the pipeline delays charged when consecutive
/// steps shift work between the devices, and the series costs the slower
/// device.
///
/// Each item of `steps` is `(cpu_ns, gpu_ns, ratio)`: the time each device
/// spends on its share of the step (zero when the ratio gives it no
/// tuples) and the step's CPU share in `[0, 1]`.
pub fn compose_steps(steps: impl IntoIterator<Item = (f64, f64, f64)>) -> PipelineNs {
    let mut timing = PipelineNs::default();
    // Running totals of T^j_XPU including already-charged delays, as the
    // paper's Σ T^j terms require.
    let mut cpu_total = 0.0f64;
    let mut gpu_total = 0.0f64;
    // The GPU time and the ratio of the previous step.
    let mut prev: Option<(f64, f64)> = None;
    for (t_cpu, t_gpu, r_i) in steps {
        timing.cpu_busy += t_cpu;
        timing.gpu_busy += t_gpu;

        let mut d_cpu = 0.0;
        let mut d_gpu = 0.0;
        if let Some((t_gpu_prev, r_prev)) = prev {
            if r_i > r_prev + 1e-12 {
                // Case 1 (Eq. 4): the CPU takes on more work than in the
                // previous step, so it may stall waiting for GPU output of
                // step i-1.
                let frac = if (1.0 - r_prev) > 1e-12 {
                    (1.0 - r_i) / (1.0 - r_prev)
                } else {
                    0.0
                };
                let gpu_pipelined_end = (gpu_total - t_gpu_prev * frac).max(0.0);
                d_cpu = (gpu_pipelined_end - (cpu_total + t_cpu)).max(0.0);
            } else if r_i + 1e-12 < r_prev {
                // Case 2 (Eq. 5): the GPU takes on more work, so it may stall
                // waiting for CPU output of step i-1.
                let frac = if (1.0 - r_i) > 1e-12 {
                    (1.0 - r_prev) / (1.0 - r_i)
                } else {
                    0.0
                };
                let gpu_after_step = gpu_total + t_gpu;
                d_gpu = (cpu_total - (gpu_after_step - t_gpu * frac).max(0.0)).max(0.0);
            }
        }

        cpu_total += t_cpu + d_cpu;
        gpu_total += t_gpu + d_gpu;
        timing.cpu_delay += d_cpu;
        timing.gpu_delay += d_gpu;
        prev = Some((t_gpu, r_i));
    }
    timing.elapsed = cpu_total.max(gpu_total);
    timing
}

/// The ratio levels `0, δ, 2δ, …, 1`, built by accumulating `x += δ` (so
/// δ = 0.1 yields 0.30000000000000004, not 0.3) and closed with 1 when δ
/// does not divide it.
///
/// δ is clamped into `[1e-3, 0.5]`; a NaN δ means [`PAPER_DELTA`].
pub fn ratio_levels(delta: f64) -> Vec<f64> {
    let delta = if delta.is_nan() {
        PAPER_DELTA
    } else {
        delta.clamp(1e-3, 0.5)
    };
    let mut levels = Vec::new();
    let mut x = 0.0f64;
    while x < 1.0 + 1e-9 {
        levels.push(x.min(1.0));
        x += delta;
    }
    if (levels[levels.len() - 1] - 1.0).abs() > 1e-9 {
        levels.push(1.0);
    }
    levels
}

/// Chooses the per-step CPU ratios of a `steps`-step series minimising
/// `eval`, and returns them with their `eval` value.
///
/// A full grid over the `coarse` levels (step 0's level turning fastest)
/// seeds up to four rounds of per-step coordinate descent over
/// [`ratio_levels`]`(delta)`.  The paper enumerates the whole δ grid
/// instead — 51⁴ ≈ 6.8 M points for a 4-step series at δ = 0.02 — and
/// this reaches the same optima in a fraction of the evaluations.  A
/// candidate replaces the best only when it is strictly faster, so ties
/// keep the earlier one.
pub fn search_ratios(
    steps: usize,
    coarse: &[f64],
    delta: f64,
    mut eval: impl FnMut(&[f64]) -> f64,
) -> (Vec<f64>, f64) {
    let mut best = vec![0.0; steps];
    let mut best_time = f64::MAX;
    let mut odometer = vec![0usize; steps];
    let mut candidate = vec![0.0; steps];
    loop {
        for (r, &level) in candidate.iter_mut().zip(&odometer) {
            *r = coarse[level];
        }
        let t = eval(&candidate);
        if t < best_time {
            best_time = t;
            best.copy_from_slice(&candidate);
        }
        // Advance the odometer; the grid is done once every digit wraps.
        let Some(pos) = odometer.iter().position(|&level| level + 1 < coarse.len()) else {
            break;
        };
        odometer[pos] += 1;
        odometer[..pos].fill(0);
    }

    let levels = ratio_levels(delta);
    let mut trial = candidate;
    for _round in 0..4 {
        let mut improved = false;
        for step in 0..steps {
            trial.copy_from_slice(&best);
            let mut local = (best[step], best_time);
            for &level in &levels {
                trial[step] = level;
                let t = eval(&trial);
                if t < local.1 {
                    local = (level, t);
                }
            }
            if local.1 < best_time {
                best[step] = local.0;
                best_time = local.1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_time)
}

/// Chooses per-step CPU ratios minimising the per-tuple elapsed time of a
/// series with the given unit costs (ns per tuple): [`search_ratios`] from
/// a 5-level coarse grid, cheap enough to run at every re-plan point.
pub fn solve_ratios(cpu_ns: &[f64], gpu_ns: &[f64], delta: f64) -> Vec<f64> {
    assert_eq!(cpu_ns.len(), gpu_ns.len(), "per-device step counts differ");
    let coarse = [0.0, 0.25, 0.5, 0.75, 1.0];
    let (ratios, _) = search_ratios(cpu_ns.len(), &coarse, delta, |ratios| {
        per_tuple(cpu_ns, gpu_ns, ratios).elapsed
    });
    ratios
}

/// The per-tuple composition of unit costs under the given ratios.
fn per_tuple(cpu_ns: &[f64], gpu_ns: &[f64], ratios: &[f64]) -> PipelineNs {
    let steps = cpu_ns.iter().zip(gpu_ns).zip(ratios);
    compose_steps(steps.map(|((&c, &g), &r)| (c * r, g * (1.0 - r), r)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compose(cpu: &[f64], gpu: &[f64], ratios: &[f64]) -> PipelineNs {
        let steps = cpu.iter().zip(gpu).zip(ratios);
        compose_steps(steps.map(|((&c, &g), &r)| (c, g, r)))
    }

    #[test]
    fn single_device_series_is_a_plain_sum() {
        let timing = compose(&[100.0, 200.0, 50.0], &[0.0; 3], &[1.0; 3]);
        assert_eq!(timing.elapsed, 350.0);
        assert_eq!(timing.cpu_delay, 0.0);
        assert_eq!(timing.gpu_delay, 0.0);
    }

    #[test]
    fn equal_ratios_have_no_pipeline_delay() {
        let timing = compose(&[100.0, 120.0], &[90.0, 80.0], &[0.5, 0.5]);
        assert_eq!(timing.cpu_delay, 0.0);
        assert_eq!(timing.gpu_delay, 0.0);
        assert_eq!(timing.elapsed, 220.0);
    }

    #[test]
    fn cpu_stalls_when_it_needs_gpu_output() {
        // Step 1 runs entirely on the GPU and is slow; step 2 runs entirely
        // on the CPU.  Execution is pipelined at tuple granularity, so the
        // CPU consumes GPU output as it is produced and finishes (per Eq. 4)
        // together with the GPU's last tuple: the stall is the difference
        // between the GPU production time and the CPU's own work.
        let timing = compose(&[0.0, 300.0], &[1000.0, 0.0], &[0.0, 1.0]);
        assert!((timing.cpu_delay - 700.0).abs() < 1e-6);
        assert!((timing.elapsed - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn gpu_stalls_when_it_needs_cpu_output() {
        let timing = compose(&[1000.0, 0.0], &[0.0, 400.0], &[1.0, 0.0]);
        assert!((timing.gpu_delay - 600.0).abs() < 1e-6);
        assert!((timing.elapsed - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn partial_ratio_shift_stalls_less_than_full_shift() {
        // Shifting only part of the workload between devices should stall
        // less than handing the entire step over.
        let full = compose(&[0.0, 400.0], &[800.0, 0.0], &[0.0, 1.0]);
        let part = compose(&[0.0, 200.0], &[800.0, 200.0], &[0.0, 0.5]);
        assert!(part.cpu_delay <= full.cpu_delay);
    }

    #[test]
    fn empty_series_composes_and_solves_to_nothing() {
        assert_eq!(compose_steps([]), PipelineNs::default());
        assert!(solve_ratios(&[], &[], 0.02).is_empty());
    }

    #[test]
    fn ratio_levels_include_both_endpoints() {
        assert_eq!(ratio_levels(0.25), [0.0, 0.25, 0.5, 0.75, 1.0]);
        // δ = 0.3 does not divide 1, so 1 closes the grid.
        let v = ratio_levels(0.3);
        assert_eq!((v[0], v[v.len() - 1], v.len()), (0.0, 1.0, 5));
        // Accumulated, not multiplied: the fourth 0.1 level is 0.1 + 0.1 + 0.1.
        assert_eq!(ratio_levels(0.1)[3], 0.1 + 0.1 + 0.1);
        assert_eq!(ratio_levels(f64::NAN), ratio_levels(PAPER_DELTA));
    }

    #[test]
    fn solver_puts_a_gpu_friendly_step_on_the_gpu() {
        // Figure-4 shape: the hash step is ~15x faster on the GPU, the
        // pointer-chasing steps roughly at parity.
        let cpu = [22.0, 5.0, 10.0, 6.0];
        let gpu = [1.5, 4.0, 9.0, 5.0];
        let ratios = solve_ratios(&cpu, &gpu, 0.02);
        assert!(ratios[0] <= 0.1, "hash step ratio {:?}", ratios);
        let t = per_tuple(&cpu, &gpu, &ratios).elapsed;
        let cpu_only = per_tuple(&cpu, &gpu, &[1.0; 4]).elapsed;
        let gpu_only = per_tuple(&cpu, &gpu, &[0.0; 4]).elapsed;
        assert!(t <= cpu_only && t <= gpu_only);
    }

    #[test]
    fn solver_matches_brute_force_on_a_small_grid() {
        let cpu = [22.0, 5.0, 10.0, 6.0];
        let gpu = [1.5, 4.0, 9.0, 5.0];
        let levels = [0.0, 0.25, 0.5, 0.75, 1.0];
        let mut brute = f64::MAX;
        for a in levels {
            for b in levels {
                for c in levels {
                    for d in levels {
                        brute = brute.min(per_tuple(&cpu, &gpu, &[a, b, c, d]).elapsed);
                    }
                }
            }
        }
        let solved = per_tuple(&cpu, &gpu, &solve_ratios(&cpu, &gpu, 0.25)).elapsed;
        assert!(solved <= brute * 1.001, "solved {solved} vs brute {brute}");
    }

    #[test]
    fn balanced_costs_split_the_work_evenly_in_time() {
        // With identical unit costs the optimum is 20 ns/tuple (half the
        // 40 ns total on each device); many ratio vectors tie, so assert
        // the achieved time rather than one particular vector.
        let cpu = [10.0; 4];
        let gpu = [10.0; 4];
        let ratios = solve_ratios(&cpu, &gpu, 0.02);
        let t = per_tuple(&cpu, &gpu, &ratios).elapsed;
        assert!((t - 20.0).abs() < 0.5, "elapsed {t} with {ratios:?}");
    }
}
