//! Bit-identity guard for the simulators.
//!
//! Every reproduced figure comes from simulated times, so a change to how
//! the simulator does its host-side work (table walks, prefetching, the
//! order in which costs are recorded) must leave every simulated value
//! bit-identical.  This suite pins `f64::to_bits` of each join's total
//! time and phase breakdown, every step's per-device `StepCost` fields and
//! kernel times, and the run-wide `ExecCounters` (lock and divergence
//! overhead, analytic accesses and misses, allocator and cache counters),
//! folded into one XXH64 digest per join.
//!
//! It covers the eleven `sim_paper` requests on four seeds, plus one join
//! each with the exact cache simulator, the adaptive tuner, collected
//! pairs, a cached table, the out-of-core path, coarse steps, the
//! BasicUnit scheduler, skewed keys and a selective probe side, and a
//! profiled one-key join that runs out of space mid-probe and spills; and
//! where joins on too small an arena run out of space.
//!
//! When a change moves a value on purpose, the failure message prints the
//! whole table in the form of [`GOLDEN`]; the change must say why.

use coupled_hashjoin::datagen::checksum64;
use coupled_hashjoin::hj_core::{
    arena_bytes_for, execute_join, ExecContext, PhaseExecution, StepExecution,
};
use coupled_hashjoin::prelude::*;

/// Tuples per relation: small enough that the suite runs in seconds in a
/// debug build, and large enough that an SHJ step spans two default
/// morsels (64 Ki tuples).
const TUPLES: usize = 100_000;
const SEEDS: [u64; 4] = [1, 42, 9300, 0x5eed];

/// `(label, total_time bits, digest of every pinned value)`.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("shj_cpu_only/1", 0x416209cb95555556, 0xb209787363cb80f9),
    ("shj_gpu_only/1", 0x414861e3a45492de, 0x762ebc6389682274),
    ("shj_dd/1", 0x41493c617860e25a, 0x8f3f053763e9615e),
    ("shj_ol/1", 0x414861e3a45492de, 0x762ebc6389682274),
    ("shj_pl/1", 0x4141d3ad7fcd2bb6, 0x919d461ff6c9b4c8),
    ("phj_cpu_only/1", 0x416f7e5f91c71c72, 0x3a632829bcd74203),
    ("phj_gpu_only/1", 0x4153d768d1e65ad9, 0x241d864233450322),
    ("phj_dd/1", 0x41535e696a6ca24b, 0xc762940d19a618e5),
    ("phj_ol/1", 0x4153d768d1e65ad9, 0x241d864233450322),
    ("phj_pl/1", 0x414c3ecfc5da787c, 0xcb401ed736136c3c),
    ("discrete_phj_dd/1", 0x415cb463a17ca36d, 0x851060cc0281cd93),
    ("shj_cpu_only/42", 0x416209f951c71c72, 0x698cf8e5f1878c92),
    ("shj_gpu_only/42", 0x414862c64d0b5fa1, 0xb8315880315d7d08),
    ("shj_dd/42", 0x41493a6428fcac42, 0x8f3cd8fba3e7175d),
    ("shj_ol/42", 0x414862c64d0b5fa1, 0xb8315880315d7d08),
    ("shj_pl/42", 0x4141d37a32de04d4, 0x0242c8b4257c503a),
    ("phj_cpu_only/42", 0x416f7e61a0000000, 0xfd67a00748f5a2f6),
    ("phj_gpu_only/42", 0x4153d7a6b3f52282, 0x4756624c8813e8cf),
    ("phj_dd/42", 0x41535e3f61098d4c, 0xdb1c1de3164c15b6),
    ("phj_ol/42", 0x4153d7a6b3f52282, 0x4756624c8813e8cf),
    ("phj_pl/42", 0x414c3c42ec51f8ec, 0xfb0adb5b04406eb7),
    ("discrete_phj_dd/42", 0x415cb463a17ca36d, 0x2fd1f4b07ca9b2bc),
    ("shj_cpu_only/9300", 0x416209e7d8e38e39, 0xf5eb4589df69580a),
    ("shj_gpu_only/9300", 0x4148629e041ae2a0, 0x345b5b074eb4ab31),
    ("shj_dd/9300", 0x41493be1dec87af6, 0x4c18fb2b28280e42),
    ("shj_ol/9300", 0x4148629e041ae2a0, 0x345b5b074eb4ab31),
    ("shj_pl/9300", 0x4141d3adcef22aca, 0x3c2e2f748d6c2289),
    ("phj_cpu_only/9300", 0x416f7e67471c71c8, 0x8ba30ddc324d403a),
    ("phj_gpu_only/9300", 0x4153d80458dd5325, 0xc93a8f2a88c36993),
    ("phj_dd/9300", 0x41535dc19096391c, 0x335a707ab61c39a4),
    ("phj_ol/9300", 0x4153d80458dd5325, 0xc93a8f2a88c36993),
    ("phj_pl/9300", 0x414c3d38c6c4c515, 0xa45f01d5f6f81569),
    (
        "discrete_phj_dd/9300",
        0x415cb463a17ca36d,
        0x28d95c1f06ed55ff,
    ),
    ("shj_cpu_only/24301", 0x416209d9f8e38e39, 0xadf36cf06de23db0),
    ("shj_gpu_only/24301", 0x4148630cdd12430c, 0x93093a97e455b853),
    ("shj_dd/24301", 0x41493d8c17816151, 0xd0be7f45f2ebf322),
    ("shj_ol/24301", 0x4148630cdd12430c, 0x93093a97e455b853),
    ("shj_pl/24301", 0x4141d5994a9a5429, 0x878b782b8484f925),
    ("phj_cpu_only/24301", 0x416f7e9ec71c71c8, 0x00dcaf881e9cfd42),
    ("phj_gpu_only/24301", 0x4153d74fb1ac9a3a, 0x150a33418ab76434),
    ("phj_dd/24301", 0x41535d43ee7569a4, 0x8e122d75a4329948),
    ("phj_ol/24301", 0x4153d74fb1ac9a3a, 0x150a33418ab76434),
    ("phj_pl/24301", 0x414c3d833ac318ce, 0xbdced07d44d74750),
    (
        "discrete_phj_dd/24301",
        0x415cb463a17ca36d,
        0x5e0785c628ba8ecf,
    ),
    ("shj_pl_profiled", 0x4141d37a32de04d4, 0x90bf2978e2fe0ebb),
    ("phj_pl_profiled", 0x414c3c42ec51f8ec, 0x087500b6c144aec7),
    ("shj_pl_adaptive", 0x41435aae38e38e38, 0x15ebd485028ba857),
    ("phj_pl_adaptive", 0x414a8998a96efab6, 0x7535559d8f986eea),
    ("shj_pl_collect", 0x4141d3598fa122a5, 0x912ff3a5d7b80556),
    ("phj_dd_collect", 0x41535e3f61098d4c, 0xe9bc8ef95e8e43a5),
    ("shj_dd_separate", 0x415385eb0e38e38e, 0x305d8564566be39b),
    ("phj_pl_coarse", 0x415b934186d36e40, 0x30179282eeab5806),
    ("shj_basic_unit", 0x41621d8151c71c72, 0xce9888f8862e6504),
    ("shj_pl_basic_alloc", 0x41600927f54896ab, 0x292e29bd9d568322),
    ("shj_pl_cached_miss", 0x4129278d8e38e38e, 0x743cf19cf3275133),
    ("shj_pl_cached_hit", 0x4129278d8e38e38e, 0x743cf19cf3275133),
    ("phj_pl_cached_miss", 0x4136ab100df6b0e0, 0x83d2efd7048beb31),
    ("phj_pl_cached_hit", 0x4136ab100df6b0e0, 0x83d2efd7048beb31),
    ("shj_pl_out_of_core", 0x415006d6280d1737, 0x21bd251e24e3f658),
    ("skew_shj_pl", 0x4142aed7b358b2aa, 0x894acd2d13e49263),
    (
        "skew_shj_pl_profiled",
        0x4142aed7b358b2aa,
        0x498f3932cd37f450,
    ),
    (
        "skew_phj_ol_collect",
        0x415597000a579a7f,
        0xf7213864f824e02e,
    ),
    ("selective_shj_pl", 0x413fb6151a96ce30, 0x23ea0d20cd26860f),
    (
        "selective_shj_pl_profiled",
        0x413fb6151a96ce30,
        0x76ffc25b2041de63,
    ),
    (
        "selective_phj_ol_collect",
        0x41528a957869b743,
        0x79da40ac6946709a,
    ),
    (
        "one_key_shj_pl_profiled_spill",
        0x4163a4f8bab2f100,
        0xb62a1aaecd0b1015,
    ),
];

/// Accumulates the bits of every pinned value.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn time(&mut self, t: SimTime) {
        self.f64(t.as_ns());
    }

    fn step(&mut self, s: &StepExecution) {
        self.u64(s.cpu_items as u64);
        self.u64(s.gpu_items as u64);
        self.u64(s.morsels as u64);
        for cost in [&s.cpu_cost, &s.gpu_cost] {
            self.u64(cost.items);
            for v in [
                cost.instructions,
                cost.random_reads,
                cost.random_writes,
                cost.seq_read_bytes,
                cost.seq_write_bytes,
                cost.serial_atomics,
                cost.parallel_atomics,
                cost.local_atomics,
                cost.total_work,
                cost.lockstep_work,
            ] {
                self.f64(v);
            }
        }
        for kt in [&s.cpu_time, &s.gpu_time] {
            self.time(kt.compute);
            self.time(kt.memory);
            self.time(kt.atomic);
            self.time(kt.divergence_overhead);
        }
    }

    fn phase(&mut self, p: &PhaseExecution) {
        for r in p.ratios.as_slice() {
            self.f64(*r);
        }
        self.time(p.elapsed());
        self.time(p.device_busy(DeviceKind::Cpu));
        self.time(p.device_busy(DeviceKind::Gpu));
        self.u64(p.intermediate_tuples);
        for s in &p.steps {
            self.step(s);
        }
    }

    fn outcome(&mut self, o: &JoinOutcome) {
        self.u64(o.matches);
        self.time(o.total_time());
        for (_, t) in o.breakdown.iter() {
            self.time(t);
        }
        for p in &o.phases {
            self.phase(p);
        }
        let c = &o.counters;
        self.u64(c.matches);
        self.u64(c.intermediate_tuples);
        self.u64(c.pcie_bytes);
        self.u64(c.pcie_transfers);
        self.time(c.lock_overhead);
        self.time(c.divergence_overhead);
        self.f64(c.analytic_accesses);
        self.f64(c.analytic_misses);
        let a = &c.alloc;
        for v in [
            a.allocations,
            a.requested_bytes,
            a.global_atomics,
            a.local_atomics,
            a.blocks_fetched,
            a.failed,
        ] {
            self.u64(v);
        }
        if let Some(cache) = &c.cache {
            self.u64(cache.hits);
            self.u64(cache.misses);
        }
        if let Some(report) = &o.adaptive {
            self.u64(report.replans);
            self.u64(report.samples);
            for series in &report.series {
                for v in series.initial.iter().chain(&series.converged) {
                    self.f64(*v);
                }
                self.f64(series.confidence);
                for (cpu, gpu) in &series.unit_costs_ns {
                    self.f64(cpu.unwrap_or(-1.0));
                    self.f64(gpu.unwrap_or(-1.0));
                }
            }
        }
        if let Some(pairs) = &o.pairs {
            self.u64(pairs.len() as u64);
            let bytes: Vec<u8> = pairs
                .iter()
                .flat_map(|&(b, p)| b.to_le_bytes().into_iter().chain(p.to_le_bytes()))
                .collect();
            self.u64(checksum64(&bytes));
        }
    }

    fn finish(&self) -> u64 {
        checksum64(&self.0)
    }
}

fn request(algorithm: Algorithm, scheme: Scheme) -> JoinRequest {
    JoinRequest::builder()
        .algorithm(algorithm)
        .scheme(scheme)
        .build()
        .unwrap()
}

/// The eleven `sim_paper` joins, labelled, in the benchmark's order; the
/// last runs on the discrete system.
fn paper_requests() -> Vec<(String, bool, JoinRequest)> {
    let phj = Algorithm::partitioned_auto();
    let mut requests = Vec::new();
    for (algo_label, algorithm) in [("shj", Algorithm::Simple), ("phj", phj)] {
        for (scheme_label, scheme) in [
            ("cpu_only", Scheme::CpuOnly),
            ("gpu_only", Scheme::GpuOnly),
            ("dd", Scheme::data_dividing_paper()),
            ("ol", Scheme::offload_gpu()),
            ("pl", Scheme::pipelined_paper()),
        ] {
            let label = format!("{algo_label}_{scheme_label}");
            requests.push((label, false, request(algorithm, scheme)));
        }
    }
    let discrete = request(phj, Scheme::data_dividing_paper());
    requests.push(("discrete_phj_dd".to_string(), true, discrete));
    requests
}

fn engines(build: &Relation, probe: &Relation) -> (JoinEngine, JoinEngine) {
    let config = EngineConfig::for_tuples(build.len(), probe.len()).sessions(2);
    (
        JoinEngine::new(Box::new(CoupledSim::new()), config.clone()).unwrap(),
        JoinEngine::new(Box::new(DiscreteSim::new()), config).unwrap(),
    )
}

fn pinned(label: String, outcome: &JoinOutcome) -> (String, u64, u64) {
    let mut digest = Digest::default();
    digest.outcome(outcome);
    (
        label,
        outcome.total_time().as_ns().to_bits(),
        digest.finish(),
    )
}

/// Every pinned join, in [`GOLDEN`]'s order.
fn actual() -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();
    for seed in SEEDS {
        let (build, probe) =
            datagen::generate_pair(&DataGenConfig::small(TUPLES, TUPLES).with_seed(seed));
        let expected = reference_match_count(&build, &probe);
        let (coupled, discrete) = engines(&build, &probe);
        for (label, on_discrete, request) in paper_requests() {
            let engine = if on_discrete { &discrete } else { &coupled };
            let outcome = engine.submit(&request, &build, &probe).unwrap();
            assert_eq!(outcome.matches, expected, "{label} seed {seed}");
            rows.push(pinned(format!("{label}/{seed}"), &outcome));
        }
    }

    let (build, probe) = datagen::generate_pair(&DataGenConfig::small(TUPLES, TUPLES));
    let expected = reference_match_count(&build, &probe);
    let (coupled, _) = engines(&build, &probe);
    let builder = || {
        JoinRequest::builder()
            .algorithm(Algorithm::Simple)
            .scheme(Scheme::pipelined_paper())
    };
    let phj_builder = || {
        JoinRequest::builder()
            .algorithm(Algorithm::partitioned_auto())
            .scheme(Scheme::pipelined_paper())
    };
    let extras: Vec<(&str, JoinRequest)> = vec![
        (
            "shj_pl_profiled",
            builder().profile_cache(true).build().unwrap(),
        ),
        (
            "phj_pl_profiled",
            phj_builder().profile_cache(true).build().unwrap(),
        ),
        (
            "shj_pl_adaptive",
            builder()
                .tuning(Tuning::adaptive())
                .morsel_tuples(1024)
                .build()
                .unwrap(),
        ),
        (
            "phj_pl_adaptive",
            phj_builder()
                .tuning(Tuning::adaptive())
                .morsel_tuples(512)
                .build()
                .unwrap(),
        ),
        (
            "shj_pl_collect",
            builder()
                .collect_results(true)
                .morsel_tuples(1000)
                .build()
                .unwrap(),
        ),
        (
            "phj_dd_collect",
            phj_builder()
                .scheme(Scheme::data_dividing_paper())
                .collect_results(true)
                .build()
                .unwrap(),
        ),
        (
            "shj_dd_separate",
            builder()
                .scheme(Scheme::data_dividing_paper())
                .hash_table(HashTableMode::Separate)
                .build()
                .unwrap(),
        ),
        (
            "phj_pl_coarse",
            phj_builder()
                .granularity(StepGranularity::Coarse)
                .build()
                .unwrap(),
        ),
        (
            "shj_basic_unit",
            builder()
                .scheme(Scheme::basic_unit_default())
                .build()
                .unwrap(),
        ),
        (
            "shj_pl_basic_alloc",
            builder()
                .allocator(AllocatorKind::Basic)
                .morsel_tuples(2048)
                .build()
                .unwrap(),
        ),
    ];
    for (label, request) in extras {
        let outcome = coupled.submit(&request, &build, &probe).unwrap();
        assert_eq!(outcome.matches, expected, "{label}");
        rows.push(pinned(label.to_string(), &outcome));
    }

    for (label, algorithm) in [
        ("shj_pl_cached", Algorithm::Simple),
        ("phj_pl_cached", Algorithm::partitioned_auto()),
    ] {
        let table = coupled.register_table(label, build.clone());
        let request = JoinRequest::builder()
            .algorithm(algorithm)
            .scheme(Scheme::pipelined_paper())
            .collect_results(true)
            .build()
            .unwrap();
        // The first call builds and caches the table, the second is a hit.
        for round in ["miss", "hit"] {
            let outcome = coupled.submit_cached(&request, &table, &probe).unwrap();
            assert_eq!(outcome.matches, expected, "{label} {round}");
            rows.push(pinned(format!("{label}_{round}"), &outcome));
        }
    }

    // A zero-copy buffer far smaller than the inputs forces the chunked
    // out-of-core path.
    let mut small_buffer = SystemSpec::coupled_a8_3870k();
    small_buffer.topology = Topology::Coupled {
        shared_cache_bytes: 4 * 1024 * 1024,
        zero_copy_bytes: 256 * 1024,
    };
    let config = EngineConfig::for_tuples(build.len(), probe.len());
    let out_of_core = JoinEngine::for_system(small_buffer, config).unwrap();
    let request = builder().out_of_core(20_000).build().unwrap();
    let outcome = out_of_core.submit(&request, &build, &probe).unwrap();
    assert_eq!(outcome.matches, expected, "out of core");
    assert!(outcome.breakdown.get(Phase::DataCopy) > SimTime::ZERO);
    rows.push(pinned("shj_pl_out_of_core".to_string(), &outcome));

    // Skewed keys make long key lists and long rid lists; a selective
    // probe side makes probes of empty buckets and misses.
    let skewed = DataGenConfig::small(TUPLES, TUPLES)
        .with_distribution(KeyDistribution::high_skew())
        .with_seed(7);
    let selective = DataGenConfig::small(TUPLES, TUPLES)
        .with_selectivity(0.25)
        .with_seed(8);
    for (data, config) in [("skew", skewed), ("selective", selective)] {
        let (build, probe) = datagen::generate_pair(&config);
        let expected = reference_match_count(&build, &probe);
        let (coupled, _) = engines(&build, &probe);
        for (label, request) in [
            ("shj_pl", builder().build().unwrap()),
            (
                "shj_pl_profiled",
                builder().profile_cache(true).build().unwrap(),
            ),
            (
                "phj_ol_collect",
                phj_builder()
                    .scheme(Scheme::offload_gpu())
                    .collect_results(true)
                    .build()
                    .unwrap(),
            ),
        ] {
            let outcome = coupled.submit(&request, &build, &probe).unwrap();
            assert_eq!(outcome.matches, expected, "{data} {label}");
            rows.push(pinned(format!("{data}_{label}"), &outcome));
        }
    }

    // One key throughout: the result outgrows the arena mid-probe, so the
    // in-core attempt and the spill path's block joins fail part-way
    // through a tuple's rids and are retried, while the exact cache
    // simulator keeps what every attempt fed it.
    let build = Relation::from_keys(vec![42; 1024]);
    let probe = Relation::from_keys(vec![42; 4096]);
    let engine = JoinEngine::new(
        Box::new(CoupledSim::new()),
        EngineConfig::for_tuples(build.len(), probe.len()),
    )
    .unwrap();
    let request = builder()
        .profile_cache(true)
        .spill(SpillConfig::default().partitions(4).max_recursion_depth(1))
        .build()
        .unwrap();
    let outcome = engine.submit(&request, &build, &probe).unwrap();
    assert_eq!(outcome.matches, 1024 * 4096, "one-key spill");
    assert!(outcome.spill.is_some() && outcome.counters.cache.is_some());
    rows.push(pinned(
        "one_key_shj_pl_profiled_spill".to_string(),
        &outcome,
    ));
    rows
}

#[test]
fn simulated_values_are_bit_identical_to_the_pinned_table() {
    let rows = actual();
    let matches = rows.len() == GOLDEN.len()
        && rows.iter().zip(GOLDEN).all(
            |((label, total, digest), &(g_label, g_total, g_digest))| {
                label == g_label && *total == g_total && *digest == g_digest
            },
        );
    if !matches {
        let mut table = String::new();
        for ((label, total, digest), golden) in rows
            .iter()
            .zip(GOLDEN.iter().map(Some).chain(std::iter::repeat(None)))
        {
            let mark = match golden {
                Some(&(g_label, g_total, g_digest))
                    if g_label == label && g_total == *total && g_digest == *digest =>
                {
                    ""
                }
                _ => " // differs",
            };
            table.push_str(&format!(
                "    ({label:?}, {total:#018x}, {digest:#018x}),{mark}\n"
            ));
        }
        panic!(
            "simulated values moved ({} rows pinned, {} produced); actual table:\n{table}",
            GOLDEN.len(),
            rows.len()
        );
    }
}

/// Arena fractions at which the joins of [`ARENA_GOLDEN`] run out of
/// space in each phase that allocates (partition, build, merge, probe), or
/// just fit.
const ARENA_FRACTIONS: [f64; 6] = [0.01, 0.05, 0.08, 0.1, 0.12, 0.15];

/// `(join, arena fraction, outcome)` of joins on too small an arena: the
/// phase and request that failed and the arena's fill at that point, or
/// the total-time bits of a join that fit.
const ARENA_GOLDEN: &[(&str, &str)] = &[
    (
        "SHJ-PL block-2048B 0.01",
        "ArenaExhausted { requested: 12, capacity: 59543, used: 59392, phase: \"build\" }",
    ),
    (
        "SHJ-PL block-2048B 0.05",
        "ArenaExhausted { requested: 8, capacity: 297715, used: 296960, phase: \"build\" }",
    ),
    (
        "SHJ-PL block-2048B 0.08",
        "ArenaExhausted { requested: 8, capacity: 476344, used: 475136, phase: \"probe\" }",
    ),
    (
        "SHJ-PL block-2048B 0.1",
        "ArenaExhausted { requested: 8, capacity: 595430, used: 593920, phase: \"probe\" }",
    ),
    ("SHJ-PL block-2048B 0.12", "ok 0x411c32cebf0a0b5c"),
    ("SHJ-PL block-2048B 0.15", "ok 0x411c32cebf0a0b5c"),
    (
        "PHJ-PL block-2048B 0.01",
        "ArenaExhausted { requested: 8, capacity: 59543, used: 59392, phase: \"partition\" }",
    ),
    (
        "PHJ-PL block-2048B 0.05",
        "ArenaExhausted { requested: 8, capacity: 297715, used: 296960, phase: \"partition\" }",
    ),
    (
        "PHJ-PL block-2048B 0.08",
        "ArenaExhausted { requested: 8, capacity: 476344, used: 475136, phase: \"build\" }",
    ),
    (
        "PHJ-PL block-2048B 0.1",
        "ArenaExhausted { requested: 8, capacity: 595430, used: 593920, phase: \"build\" }",
    ),
    (
        "PHJ-PL block-2048B 0.12",
        "ArenaExhausted { requested: 12, capacity: 714516, used: 712704, phase: \"build\" }",
    ),
    (
        "PHJ-PL block-2048B 0.15",
        "ArenaExhausted { requested: 8, capacity: 893145, used: 892928, phase: \"probe\" }",
    ),
    (
        "SHJ-DD nogroup block-2048B 0.01",
        "ArenaExhausted { requested: 12, capacity: 59543, used: 59392, phase: \"build\" }",
    ),
    (
        "SHJ-DD nogroup block-2048B 0.05",
        "ArenaExhausted { requested: 12, capacity: 297715, used: 296960, phase: \"build\" }",
    ),
    (
        "SHJ-DD nogroup block-2048B 0.08",
        "ArenaExhausted { requested: 8, capacity: 476344, used: 475136, phase: \"build\" }",
    ),
    ("SHJ-DD nogroup block-2048B 0.1", "ok 0x4125478fde49e6d1"),
    ("SHJ-DD nogroup block-2048B 0.12", "ok 0x4125478fde49e6d1"),
    ("SHJ-DD nogroup block-2048B 0.15", "ok 0x4125478fde49e6d1"),
    (
        "SHJ-DD separate block-2048B 0.01",
        "ArenaExhausted { requested: 12, capacity: 59543, used: 59392, phase: \"build\" }",
    ),
    (
        "SHJ-DD separate block-2048B 0.05",
        "ArenaExhausted { requested: 12, capacity: 297715, used: 296960, phase: \"build\" }",
    ),
    (
        "SHJ-DD separate block-2048B 0.08",
        "ArenaExhausted { requested: 8, capacity: 476344, used: 475136, phase: \"build\" }",
    ),
    (
        "SHJ-DD separate block-2048B 0.1",
        "ArenaExhausted { requested: 12, capacity: 595430, used: 593920, phase: \"merge\" }",
    ),
    (
        "SHJ-DD separate block-2048B 0.12",
        "ArenaExhausted { requested: 12, capacity: 714516, used: 712704, phase: \"merge\" }",
    ),
    ("SHJ-DD separate block-2048B 0.15", "ok 0x412f522e71c71c72"),
    (
        "SHJ-PL basic 0.01",
        "ArenaExhausted { requested: 12, capacity: 59543, used: 59532, phase: \"build\" }",
    ),
    (
        "SHJ-PL basic 0.05",
        "ArenaExhausted { requested: 8, capacity: 297715, used: 297712, phase: \"build\" }",
    ),
    (
        "SHJ-PL basic 0.08",
        "ArenaExhausted { requested: 8, capacity: 476344, used: 476344, phase: \"probe\" }",
    ),
    ("SHJ-PL basic 0.1", "ok 0x4139a2a92c3e138a"),
    ("SHJ-PL basic 0.12", "ok 0x4139a2a92c3e138a"),
    ("SHJ-PL basic 0.15", "ok 0x4139a2a92c3e138a"),
    (
        "PHJ-PL basic 0.01",
        "ArenaExhausted { requested: 8, capacity: 59543, used: 59536, phase: \"partition\" }",
    ),
    (
        "PHJ-PL basic 0.05",
        "ArenaExhausted { requested: 8, capacity: 297715, used: 297712, phase: \"partition\" }",
    ),
    (
        "PHJ-PL basic 0.08",
        "ArenaExhausted { requested: 8, capacity: 476344, used: 476340, phase: \"build\" }",
    ),
    (
        "PHJ-PL basic 0.1",
        "ArenaExhausted { requested: 8, capacity: 595430, used: 595428, phase: \"probe\" }",
    ),
    (
        "PHJ-PL basic 0.12",
        "ArenaExhausted { requested: 12, capacity: 714516, used: 714516, phase: \"build\" }",
    ),
    ("PHJ-PL basic 0.15", "ok 0x4146c79fdfe73a08"),
    (
        "SHJ-DD nogroup basic 0.01",
        "ArenaExhausted { requested: 12, capacity: 59543, used: 59532, phase: \"build\" }",
    ),
    (
        "SHJ-DD nogroup basic 0.05",
        "ArenaExhausted { requested: 8, capacity: 297715, used: 297712, phase: \"build\" }",
    ),
    (
        "SHJ-DD nogroup basic 0.08",
        "ArenaExhausted { requested: 8, capacity: 476344, used: 476344, phase: \"probe\" }",
    ),
    ("SHJ-DD nogroup basic 0.1", "ok 0x41406eca2a41478a"),
    ("SHJ-DD nogroup basic 0.12", "ok 0x41406eca2a41478a"),
    ("SHJ-DD nogroup basic 0.15", "ok 0x41406eca2a41478a"),
    (
        "SHJ-DD separate basic 0.01",
        "ArenaExhausted { requested: 12, capacity: 59543, used: 59532, phase: \"build\" }",
    ),
    (
        "SHJ-DD separate basic 0.05",
        "ArenaExhausted { requested: 8, capacity: 297715, used: 297712, phase: \"build\" }",
    ),
    (
        "SHJ-DD separate basic 0.08",
        "ArenaExhausted { requested: 12, capacity: 476344, used: 476340, phase: \"merge\" }",
    ),
    (
        "SHJ-DD separate basic 0.1",
        "ArenaExhausted { requested: 12, capacity: 595430, used: 595420, phase: \"merge\" }",
    ),
    (
        "SHJ-DD separate basic 0.12",
        "ArenaExhausted { requested: 8, capacity: 714516, used: 714512, phase: \"probe\" }",
    ),
    ("SHJ-DD separate basic 0.15", "ok 0x4145547b1eede586"),
];

fn arena_outcomes() -> Vec<(String, String)> {
    let n = 20_000;
    let (build, probe) = datagen::generate_pair(&DataGenConfig::small(n, n).with_seed(3));
    let sys = SystemSpec::coupled_a8_3870k();
    let mut rows = Vec::new();
    for allocator in [AllocatorKind::tuned(), AllocatorKind::Basic] {
        for (variant, cfg) in [
            ("", JoinConfig::shj(Scheme::pipelined_paper())),
            ("", JoinConfig::phj(Scheme::pipelined_paper())),
            (
                " nogroup",
                JoinConfig::shj(Scheme::data_dividing_paper()).with_grouping(false),
            ),
            (
                " separate",
                JoinConfig::shj(Scheme::data_dividing_paper())
                    .with_hash_table(HashTableMode::Separate),
            ),
        ] {
            let cfg = cfg.with_allocator(allocator);
            for fraction in ARENA_FRACTIONS {
                let bytes = (arena_bytes_for(n, n) as f64 * fraction) as usize;
                let mut ctx =
                    ExecContext::new(&sys, allocator, bytes, false).with_morsel_tuples(3000);
                let outcome = match execute_join(&mut ctx, &build, &probe, &cfg) {
                    Ok(o) => format!("ok {:#018x}", o.total_time().as_ns().to_bits()),
                    Err(e) => format!("{e:?}"),
                };
                let join = format!("{}{variant} {} {fraction}", cfg.label(), allocator.label());
                rows.push((join, outcome));
            }
        }
    }
    rows
}

#[test]
fn arena_exhaustion_fails_at_the_pinned_request() {
    let rows = arena_outcomes();
    let pinned: Vec<(String, String)> = ARENA_GOLDEN
        .iter()
        .map(|&(join, outcome)| (join.to_string(), outcome.to_string()))
        .collect();
    if rows != pinned {
        let table: String = rows
            .iter()
            .map(|(join, outcome)| format!("    ({join:?}, {outcome:?}),\n"))
            .collect();
        panic!("arena exhaustion moved; actual table:\n{table}");
    }
}
