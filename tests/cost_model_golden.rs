//! Bit-identity guard for the cost model's composition and ratio searches.
//!
//! Every tuned join runs with the ratios these functions choose, so a
//! change to how the Eqs. 1–5 composition, the coarse-grid-plus-descent
//! search or the δ level grid are written must leave every output
//! bit-identical.  This suite pins `f64::to_bits` of:
//!
//! * `tune_scheme` on a quick calibration of the coupled A8-3870K, for SHJ
//!   and PHJ at δ 0.02 and 0.1 — all three schemes' ratios and predicted
//!   times;
//! * `optimize_pl_ratios` and `optimize_dd_ratio` on the Figure-4 unit
//!   costs and on 16 seeded random 3- and 4-step series;
//! * the runtime re-solver `solve_ratios` on the same series;
//! * every `PipelineTiming` field of `compose_pipeline` on 16 seeded
//!   inputs with full and partial shifts between the devices.
//!
//! Each row pins one output's time and an XXH64 digest of all its values.
//! When a change moves a value on purpose, the failure message prints the
//! whole table in the form of [`GOLDEN`]; the change must say why.

use coupled_hashjoin::costmodel::optimizer::{optimize_dd_ratio, optimize_pl_ratios, PAPER_DELTA};
use coupled_hashjoin::costmodel::{calibrate_quick, SeriesCostModel, SeriesUnitCosts};
use coupled_hashjoin::datagen::{checksum64, SmallRng};
use coupled_hashjoin::hj_core::adaptive::solver::solve_ratios;
use coupled_hashjoin::hj_core::{compose_pipeline, Ratios, StepId};
use coupled_hashjoin::prelude::*;

/// `(label, time bits, digest of every pinned value)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("tune/shj/0.02/pl", 0x4179d9ddba5dd443, 0xde0444191dd048e3),
    ("tune/shj/0.02/dd", 0x417f4ee014ec71c7, 0xff146e047a7d048c),
    ("tune/shj/0.02/ol", 0x417f013904200000, 0xefb7eaf9f82abb24),
    ("tune/shj/0.1/pl", 0x4179f4b2a6cf9b60, 0x36c848093939c22c),
    ("tune/shj/0.1/dd", 0x417f4ee014ec71c8, 0x3bc25e465a0c9dcb),
    ("tune/shj/0.1/ol", 0x417f013904200000, 0xefb7eaf9f82abb24),
    ("tune/phj/0.02/pl", 0x4184d81e803f5af4, 0x67b5ad97ee85632d),
    ("tune/phj/0.02/dd", 0x418a72d898d94420, 0x214cb3fe153c095e),
    ("tune/phj/0.02/ol", 0x4189c96fc973b18a, 0xd328902c0747e3c9),
    ("tune/phj/0.1/pl", 0x4185122892ea059f, 0xc5571b6e76b4014a),
    ("tune/phj/0.1/dd", 0x418af00c33a2de63, 0x4e53592ee6b7095f),
    ("tune/phj/0.1/ol", 0x4189c96fc973b18a, 0xd328902c0747e3c9),
    ("pl/fig4/0.02", 0x4163af0ffffffffe, 0x2170a239b045a5ef),
    ("dd/fig4/0.02", 0x416a090a00000000, 0x772b88caf3488432),
    ("solve/fig4/0.02", 0x4163f84e00000000, 0xd1c9a064701789b0),
    ("pl/random0/0.02", 0x416a10c2bdb3dac0, 0xdbec5b1a46079534),
    ("dd/random0/0.02", 0x4170a071c5b96112, 0x9e4a4527227b4105),
    ("solve/random0/0.02", 0x4169c6e15a8e2a3c, 0xb64b093381ed2e0a),
    ("pl/random1/0.05", 0x41837e0f9fded836, 0xd8ed6224a02d2683),
    ("dd/random1/0.05", 0x4186d887c726c67c, 0xd580fc653f99455f),
    ("solve/random1/0.05", 0x41839740ed673b15, 0xa8245efa85ac964b),
    ("pl/random2/0.1", 0x41563764881b95b4, 0x0bf5721a8c3d0cc6),
    ("dd/random2/0.1", 0x41586768d9627acc, 0x08b82503b9da3977),
    ("solve/random2/0.1", 0x4156c3f2db2afd46, 0xe2f5cccc15a86aeb),
    ("pl/random3/0.25", 0x418f9d3168dffde2, 0x7c1cfa76a1821394),
    ("dd/random3/0.25", 0x41914c77cc02e560, 0x20d33afa1945802e),
    ("solve/random3/0.25", 0x418f9d3168dffde2, 0x7c1cfa76a1821394),
    ("pl/random4/0.5", 0x4186fea8d299d46d, 0x8f59bd96e1971c4d),
    ("dd/random4/0.5", 0x4188d548568e4e29, 0x12b3fe0137e36be5),
    ("solve/random4/0.5", 0x4186fea8d299d46d, 0x8f59bd96e1971c4d),
    ("pl/random5/0.02", 0x41703f23a259a370, 0xc5d9c3b4b2474076),
    ("dd/random5/0.02", 0x417395e796fc4347, 0x18964e2231578d71),
    ("solve/random5/0.02", 0x41703f23a259a370, 0x971f523001c6cfcf),
    ("pl/random6/0.05", 0x4193dd1f24709240, 0x1591db63f2e49ce3),
    ("dd/random6/0.05", 0x41978bc04bf97903, 0xb21ca084c2f9c0a0),
    ("solve/random6/0.05", 0x419455c4aa94b0c0, 0x8ded82261a05b00e),
    ("pl/random7/0.1", 0x41a00bd39fcff2f1, 0x7cfd48211abb51e1),
    ("dd/random7/0.1", 0x41a37e52a79c2899, 0xdeae000bf0a2bdc1),
    ("solve/random7/0.1", 0x41a03b2c397ae2b0, 0xc7bfddbd1ca7873e),
    ("pl/random8/0.25", 0x417211a1643b4974, 0x7c8c1e0518f89fd3),
    ("dd/random8/0.25", 0x417425c0b9d9f3ba, 0xaef112f78d751a90),
    ("solve/random8/0.25", 0x417211a1643b4974, 0x7c8c1e0518f89fd3),
    ("pl/random9/0.5", 0x4189307eac58d00a, 0x531909eaf881d8b2),
    ("dd/random9/0.5", 0x418f5aa29e2d12e6, 0xa0a8f544b85157b1),
    ("solve/random9/0.5", 0x4186803a38590e05, 0x5b43f9f3c8171463),
    ("pl/random10/0.02", 0x4174bd165da4b3ac, 0x62fb0381959a6267),
    ("dd/random10/0.02", 0x417871b3880a5db8, 0xfb45bbd3691ff108),
    (
        "solve/random10/0.02",
        0x41759c904802402c,
        0xbf2bf10b4381b4df,
    ),
    ("pl/random11/0.05", 0x41941ba1f0ca9405, 0x72fbcf180d4e106f),
    ("dd/random11/0.05", 0x41991dd564178c0d, 0x71c60a17da26fadb),
    (
        "solve/random11/0.05",
        0x41941ba1f0ca9405,
        0x72fbcf180d4e106f,
    ),
    ("pl/random12/0.1", 0x4170011821fc554d, 0x2b9d234099bae37c),
    ("dd/random12/0.1", 0x41727e5f4ef87c8d, 0xd945dcfc7c5ebc42),
    ("solve/random12/0.1", 0x4170011821fc554d, 0x2b9d234099bae37c),
    ("pl/random13/0.25", 0x4185d279ddbb7f3f, 0x8c57111b8d8d2aca),
    ("dd/random13/0.25", 0x4191d6da48a64481, 0x5a323de744e8beb8),
    (
        "solve/random13/0.25",
        0x4185d279ddbb7f3f,
        0x8c57111b8d8d2aca,
    ),
    ("pl/random14/0.5", 0x4180dcc76f2b06cf, 0xa70aacd84090eedf),
    ("dd/random14/0.5", 0x4181868f8bb22e13, 0xe662f8f44b052d28),
    ("solve/random14/0.5", 0x417f36d614bf32ff, 0xda5465ddaadba048),
    ("pl/random15/0.02", 0x4193545ee38bce1a, 0xb96d5aec5f3780e3),
    ("dd/random15/0.02", 0x41938bac8d8b557c, 0x41b1340d3e1e542e),
    (
        "solve/random15/0.02",
        0x41936d3e469d0560,
        0xefd535f71e384eaf,
    ),
    ("compose/0", 0x41a5219ab36a139c, 0x2e642cdfb4e02987),
    ("compose/1", 0x418b5066902b7e7d, 0x96c18675c7912e17),
    ("compose/2", 0x417b5cc207a6df84, 0x44f8cbfbdece88a0),
    ("compose/3", 0x418ff1f80c3b3530, 0x375bdad8c5fcf185),
    ("compose/4", 0x419f27cccc513579, 0x9f63f52694c22a77),
    ("compose/5", 0x4184312e092ff3fa, 0x0a90eb27e3e0d952),
    ("compose/6", 0x419532af9bc95aea, 0xc3ea050e8fb1b845),
    ("compose/7", 0x4195d06c774b225a, 0xaf72538dce2592a1),
    ("compose/8", 0x418ed564bc3f3664, 0x6bbd48c2ae33cfef),
    ("compose/9", 0x41a073f63351a6ff, 0x6a49c2575d78e905),
    ("compose/10", 0x4139c4efc6b8a617, 0xd4d2c54cb3d04f3c),
    ("compose/11", 0x418e95a363ace24e, 0xfacdc4058392b162),
    ("compose/12", 0x4191cdfc7e25fbe9, 0xab71c6e47b0b5603),
    ("compose/13", 0x416e701df756c240, 0xad8117a0f8075758),
    ("compose/14", 0x419b15eee0798b21, 0xfb16d2df704e9fa0),
    ("compose/15", 0x41a2a9aacd42a897, 0x70864fbba87e911f),
];

/// The δ of each random series, in turn: every granularity a caller of
/// the searches passes.
const DELTAS: [f64; 5] = [0.02, 0.05, 0.1, 0.25, 0.5];
const SERIES: usize = 16;

/// Accumulates the bits of every pinned value.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn all(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }

    fn finish(&self) -> u64 {
        checksum64(&self.0)
    }
}

/// One row: `time` and every value, `time` included.
fn row(label: String, time: f64, values: &[f64]) -> (String, u64, u64) {
    let mut digest = Digest::default();
    digest.f64(time);
    digest.all(values);
    (label, time.to_bits(), digest.finish())
}

fn flags(on_cpu: &[bool]) -> Vec<f64> {
    on_cpu.iter().map(|&c| if c { 1.0 } else { 0.0 }).collect()
}

/// One tuned scheme's ratios, flattened partition, build, probe.
fn scheme_values(scheme: &Scheme) -> Vec<f64> {
    match scheme {
        Scheme::Pipelined {
            partition,
            build,
            probe,
        } => [&partition[..], &build[..], &probe[..]].concat(),
        Scheme::DataDividing {
            partition_ratio,
            build_ratio,
            probe_ratio,
        } => vec![*partition_ratio, *build_ratio, *probe_ratio],
        Scheme::Offload {
            partition_on_cpu,
            build_on_cpu,
            probe_on_cpu,
        } => [
            flags(partition_on_cpu),
            flags(build_on_cpu),
            flags(probe_on_cpu),
        ]
        .concat(),
        other => panic!("tune_scheme produced {other:?}"),
    }
}

/// Random per-step unit costs (ns per tuple): the GPU from 20× faster to
/// 1.5× slower than the CPU, as calibrated steps range.
fn random_costs(rng: &mut SmallRng, steps: usize) -> (Vec<f64>, Vec<f64>) {
    let cpu: Vec<f64> = (0..steps).map(|_| 1.0 + 29.0 * rng.random_unit()).collect();
    let gpu = cpu
        .iter()
        .map(|c| c * (0.05 + 1.45 * rng.random_unit()))
        .collect();
    (cpu, gpu)
}

fn series_model(cpu: &[f64], gpu: &[f64]) -> SeriesCostModel {
    let steps = if cpu.len() == 3 {
        StepId::PARTITION.to_vec()
    } else {
        StepId::BUILD.to_vec()
    };
    SeriesCostModel::new(SeriesUnitCosts::new(steps, cpu.to_vec(), gpu.to_vec()))
}

fn actual() -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();

    let sys = SystemSpec::coupled_a8_3870k();
    for (alg_label, algorithm) in [
        ("shj", Algorithm::Simple),
        ("phj", Algorithm::partitioned_auto()),
    ] {
        let model = JoinCostModel::new(calibrate_quick(&sys, 16_384, algorithm));
        for delta in [PAPER_DELTA, 0.1] {
            let tuned = tune_scheme(&model, 1_000_000, 2_000_000, algorithm, delta);
            for (scheme_label, scheme, predicted) in [
                ("pl", &tuned.pipelined, tuned.predicted_pl),
                ("dd", &tuned.data_dividing, tuned.predicted_dd),
                ("ol", &tuned.offload, tuned.predicted_ol),
            ] {
                rows.push(row(
                    format!("tune/{alg_label}/{delta}/{scheme_label}"),
                    predicted.as_ns(),
                    &scheme_values(scheme),
                ));
            }
        }
    }

    // Figure 4's build series, then the seeded random ones.
    let mut series = vec![(
        "fig4".to_string(),
        vec![22.0, 5.0, 10.0, 6.0],
        vec![1.5, 4.0, 9.0, 5.0],
        1_000_000,
        PAPER_DELTA,
    )];
    let mut rng = SmallRng::seed_from_u64(0xC057);
    for i in 0..SERIES {
        let (cpu, gpu) = random_costs(&mut rng, 3 + i % 2);
        let items = 1_000 + rng.random_index(4_000_000);
        series.push((
            format!("random{i}"),
            cpu,
            gpu,
            items,
            DELTAS[i % DELTAS.len()],
        ));
    }
    for (label, cpu, gpu, items, delta) in &series {
        let model = series_model(cpu, gpu);
        let (ratios, time) = optimize_pl_ratios(&model, *items, *delta);
        rows.push(row(
            format!("pl/{label}/{delta}"),
            time.as_ns(),
            ratios.as_slice(),
        ));
        let (ratio, time) = optimize_dd_ratio(&model, *items, *delta);
        rows.push(row(format!("dd/{label}/{delta}"), time.as_ns(), &[ratio]));
        let solved = solve_ratios(cpu, gpu, *delta);
        let time = model.estimate(*items, &Ratios::new(solved.clone()));
        rows.push(row(format!("solve/{label}/{delta}"), time.as_ns(), &solved));
    }

    // Consecutive ratios that stay, shift part of the work or hand a whole
    // step to the other device, in both directions.
    let mut rng = SmallRng::seed_from_u64(0xE45);
    for i in 0..SERIES {
        let steps = 2 + rng.random_index(4);
        let (cpu_unit, gpu_unit) = random_costs(&mut rng, steps);
        let mut ratios: Vec<f64> = Vec::with_capacity(steps);
        for _ in 0..steps {
            let r = match rng.random_index(4) {
                0 => 0.0,
                1 => 1.0,
                2 => ratios.last().copied().unwrap_or(0.5),
                _ => rng.random_unit(),
            };
            ratios.push(r);
        }
        let items = (1_000 + rng.random_index(4_000_000)) as f64;
        let cpu: Vec<SimTime> = (0..steps)
            .map(|s| SimTime::from_ns(cpu_unit[s] * ratios[s] * items))
            .collect();
        let gpu: Vec<SimTime> = (0..steps)
            .map(|s| SimTime::from_ns(gpu_unit[s] * (1.0 - ratios[s]) * items))
            .collect();
        let t = compose_pipeline(&cpu, &gpu, &Ratios::new(ratios));
        rows.push(row(
            format!("compose/{i}"),
            t.elapsed.as_ns(),
            &[
                t.cpu_busy.as_ns(),
                t.gpu_busy.as_ns(),
                t.cpu_delay.as_ns(),
                t.gpu_delay.as_ns(),
            ],
        ));
    }
    rows
}

#[test]
fn cost_model_values_are_bit_identical_to_the_pinned_table() {
    let rows = actual();
    let matches = rows.len() == GOLDEN.len()
        && rows
            .iter()
            .zip(GOLDEN)
            .all(|((label, time, digest), &(g_label, g_time, g_digest))| {
                label == g_label && *time == g_time && *digest == g_digest
            });
    if !matches {
        let mut table = String::new();
        for ((label, time, digest), golden) in rows
            .iter()
            .zip(GOLDEN.iter().map(Some).chain(std::iter::repeat(None)))
        {
            let mark = match golden {
                Some(&(g_label, g_time, g_digest))
                    if g_label == label && g_time == *time && g_digest == *digest =>
                {
                    ""
                }
                _ => " // differs",
            };
            table.push_str(&format!(
                "    ({label:?}, {time:#018x}, {digest:#018x}),{mark}\n"
            ));
        }
        panic!(
            "cost-model values moved ({} rows pinned, {} produced); actual table:\n{table}",
            GOLDEN.len(),
            rows.len()
        );
    }
}
