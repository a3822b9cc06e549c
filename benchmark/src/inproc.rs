//! The four in-process workloads on the native backend: `join_uniform`,
//! `join_dup_heavy`, `cached_probe` and `spill_quarter`.

use crate::load::{closed_loop, PassLog, Recorder};
use crate::metrics::Report;
use crate::probe::{self, EngineCounters};
use crate::spans::{self_times_ns, summarize};
use crate::{ms_since, out_dir, Workload};
use coupled_hashjoin::datagen::{generate_pair, DataGenConfig, KeyDistribution, Relation};
use coupled_hashjoin::hj_core::spill::{SpillConfig, SpillManager, SpillReport};
use coupled_hashjoin::hj_core::{
    reference_match_count, EngineConfig, JoinEngine, JoinOutcome, JoinRequest, NativeCpu,
    TableHandle,
};
use coupled_hashjoin::prelude::Phase;
use std::time::Instant;

const KI: usize = 1024;

/// Closed-loop operations run (and verified) in set-up before anything is
/// timed, so pools are spawned, arenas touched and caches filled.
const WARMUP_OPS: usize = 3;

struct Spec {
    build_tuples: usize,
    probe_tuples: usize,
    distribution: KeyDistribution,
    clients: usize,
    cached: bool,
    spill: bool,
}

fn spec(name: &str) -> Spec {
    let base = Spec {
        build_tuples: 256 * KI,
        probe_tuples: 512 * KI,
        distribution: KeyDistribution::Uniform,
        clients: 1,
        cached: false,
        spill: false,
    };
    match name {
        "join_uniform" => base,
        "join_dup_heavy" => Spec {
            distribution: KeyDistribution::Skewed {
                duplicate_fraction: 0.9,
            },
            ..base
        },
        "cached_probe" => Spec {
            probe_tuples: 64 * KI,
            clients: 2,
            cached: true,
            ..base
        },
        "spill_quarter" => Spec {
            spill: true,
            ..base
        },
        other => unreachable!("{other} is not an in-process workload"),
    }
}

pub struct InProc {
    engine: JoinEngine,
    request: JoinRequest,
    build: Relation,
    probe: Relation,
    /// `Some` for `cached_probe`: the build side comes from the cache.
    table: Option<TableHandle>,
    expected_matches: u64,
    clients: usize,
    spills: bool,
    /// Engine counters around, and spill reports summed over, the most
    /// recent pass.
    counters: (EngineCounters, EngineCounters),
    spilled: SpillReport,
}

impl InProc {
    pub fn setup(name: &str, seed: u64, report: &mut Report) -> InProc {
        let spec = spec(name);
        let started = Instant::now();
        let (build, probe) = generate_pair(
            &DataGenConfig::small(spec.build_tuples, spec.probe_tuples)
                .with_distribution(spec.distribution)
                .with_seed(seed),
        );
        report.set_n("datagen.generate_ms", ms_since(started), 1);
        let expected_matches = reference_match_count(&build, &probe);

        let mut config = EngineConfig::for_tuples(build.len(), probe.len()).sessions(2);
        let mut request = JoinRequest::builder();
        if spec.spill {
            config = config.memory_budget((build.bytes() + probe.bytes()) / 4);
            // Run files stay inside the benchmark's own directory.
            request = request.spill(SpillConfig::default().spill_dir(out_dir().join("spill")));
        }
        let started = Instant::now();
        let engine =
            JoinEngine::new(Box::new(NativeCpu::new()), config).expect("valid engine config");
        report.set_n("engine.new_ms", ms_since(started), 1);
        let request = request.build().expect("valid join request");

        let table = spec.cached.then(|| {
            let started = Instant::now();
            let table = engine.register_table("dim", build.clone());
            report.set_n("cached.register_ms", ms_since(started), 1);
            table
        });
        let workload = InProc {
            engine,
            request,
            build,
            probe,
            table,
            expected_matches,
            clients: spec.clients,
            spills: spec.spill,
            counters: Default::default(),
            spilled: SpillReport::default(),
        };
        for warmup in 0..WARMUP_OPS {
            let started = Instant::now();
            let outcome = workload.call();
            if warmup == 0 && spec.cached {
                report.set_n("cached.first_build_ms", ms_since(started), 1);
            }
            match outcome {
                Ok(outcome) if outcome.matches == expected_matches => {}
                Ok(outcome) => report.invalid.push(format!(
                    "first result has {} matches, the oracle {expected_matches}",
                    outcome.matches
                )),
                Err(error) => report.invalid.push(format!("warm-up join failed: {error}")),
            }
        }
        workload
    }

    /// The public call this workload measures.
    fn call(&self) -> Result<JoinOutcome, coupled_hashjoin::hj_core::JoinError> {
        match &self.table {
            Some(table) => self.engine.submit_cached(&self.request, table, &self.probe),
            None => self.engine.submit(&self.request, &self.build, &self.probe),
        }
    }

    fn root_span(&self) -> &'static str {
        if self.table.is_some() {
            "engine.submit_cached"
        } else {
            "engine.submit"
        }
    }

    /// One operation: the call, its spans, its check against the oracle.
    fn op(&self, spilled: &mut SpillReport, rec: &mut Recorder) -> bool {
        let start = Instant::now();
        let result = self.call();
        let end = Instant::now();
        let Ok(outcome) = result else { return false };
        if let Some(report) = &outcome.spill {
            spilled.merge(report);
        }
        if rec.enabled() {
            let root = rec.span(self.root_span(), start, end, None);
            let kernel = [
                ("kernel.build", phase_ns(&outcome, Phase::Build)),
                ("kernel.probe", phase_ns(&outcome, Phase::Probe)),
            ];
            // The spill path's wall-clock contains the partition-pair
            // joins, so the kernel spans nest inside it.
            let parent = match &outcome.spill {
                Some(report) => {
                    let wall_ns = (report.spill_wall_secs * 1e9) as u64;
                    rec.children(root, &[("spill.path", wall_ns)])
                }
                None => root,
            };
            rec.children(parent, &kernel);
        }
        outcome.matches == self.expected_matches
    }
}

fn phase_ns(outcome: &JoinOutcome, phase: Phase) -> u64 {
    outcome.breakdown.get(phase).as_ns() as u64
}

impl Workload for InProc {
    fn run(&mut self, seconds: f64, traced: bool) -> PassLog {
        let before = EngineCounters::read(&self.engine);
        let accumulators = vec![SpillReport::default(); self.clients];
        let (log, accumulators) = closed_loop(accumulators, seconds, traced, |spilled, rec| {
            self.op(spilled, rec)
        });
        self.counters = (before, EngineCounters::read(&self.engine));
        self.spilled = SpillReport::default();
        for report in &accumulators {
            self.spilled.merge(report);
        }
        log
    }

    fn end_to_end(&self, window: &PassLog, report: &mut Report) {
        if self.table.is_some() {
            let resident = self.engine.cache_stats().bytes as f64;
            report.set("cache_bytes_per_tuple", resident / self.build.len() as f64);
        }
        if self.spills {
            let input_bytes = (self.build.bytes() + self.probe.bytes()) as f64;
            report.set(
                "spill_bytes_per_input_byte",
                self.spilled.bytes_spilled as f64 / (window.completed() as f64 * input_bytes),
            );
        }
    }

    fn layers(&mut self, traced: &PassLog, report: &mut Report) {
        let own = self_times_ns(&traced.spans);
        let (joins, submit_ms, unattributed_ms) = summarize(&traced.spans, &own, self.root_span());
        let (_, build_ms, _) = summarize(&traced.spans, &own, "kernel.build");
        let (_, probe_ms, _) = summarize(&traced.spans, &own, "kernel.probe");
        let (_, _, spill_io_ms) = summarize(&traced.spans, &own, "spill.path");
        // One kernel span (and one spill span) per join, so their means are per join.
        report.set_n("engine.submit_ms_mean", submit_ms, joins);
        report.set_n("engine.unattributed_ms", unattributed_ms, joins);
        report.set_n("kernel.build_ms", build_ms, joins);
        report.set_n("kernel.probe_ms", probe_ms, joins);
        report.set_n(
            "kernel.build_ns_per_tuple",
            build_ms * 1e6 / self.build.len() as f64,
            joins,
        );
        report.set_n(
            "kernel.probe_ns_per_tuple",
            probe_ms * 1e6 / self.probe.len() as f64,
            joins,
        );
        probe::engine_layers(&self.engine, &self.counters, joins, report);
        probe::dispatch_layer(&self.engine, report);

        if self.table.is_some() {
            let (before, after) = &self.counters;
            let hits = (after.cache_hits - before.cache_hits) as f64;
            let misses = (after.cache_misses - before.cache_misses) as f64;
            report.set("cached.hit_ratio", hits / (hits + misses).max(1.0));
            let cache = self.engine.cache_stats();
            report.set("cached.resident_bytes", cache.bytes as f64);
            report.set("cached.evictions", cache.evictions as f64);
        }
        if self.spills {
            let per_join = |total: u64| total as f64 / joins.max(1) as f64;
            let spilled = &self.spilled;
            report.set_n("spill.io_ms", spill_io_ms, joins);
            report.set(
                "spill.bytes_spilled_per_join",
                per_join(spilled.bytes_spilled),
            );
            report.set(
                "spill.bytes_restored_per_join",
                per_join(spilled.bytes_restored),
            );
            report.set(
                "spill.partitions_per_join",
                per_join(spilled.partitions_spilled),
            );
            report.set(
                "spill.recursion_depth_max",
                f64::from(spilled.recursion_depth),
            );
            report.set("spill.fallback_joins", spilled.fallback_joins as f64);
            report.set("spill.grant_denials", spilled.grant_denials as f64);
            run_file_throughput(&self.probe.slice(0..64 * KI), report);
        }
    }

    fn finish(self: Box<Self>, report: &mut Report) {
        if !self.spills {
            return;
        }
        let live_files = self
            .engine
            .spill_dir()
            .and_then(|dir| std::fs::read_dir(dir).ok())
            .map_or(0, |entries| entries.count());
        let granted = self.engine.memory_broker().granted();
        report.set("spill.live_files_after", live_files as f64);
        report.set("spill.granted_bytes_after", granted as f64);
        if live_files != 0 || granted != 0 {
            report.invalid.push(format!(
                "spill leaked: {live_files} run files and {granted} granted bytes remain"
            ));
        }
    }
}

/// Times `relation` through `create_run → push → seal → read_all` on a
/// manager of its own, several times, and reports the median rates.
fn run_file_throughput(relation: &Relation, report: &mut Report) {
    const ROUNDS: usize = 9;
    let manager =
        SpillManager::create(Some(&out_dir().join("spill"))).expect("spill directory is writable");
    let megabytes = relation.bytes() as f64 / 1e6;
    let (mut write_rates, mut read_rates) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut pending = manager.create_run("bench").expect("run file opens");
        pending.push(relation).expect("run file accepts tuples");
        let run = pending.seal().expect("run file seals");
        write_rates.push(megabytes / started.elapsed().as_secs_f64());
        let started = Instant::now();
        let restored = run.read_all().expect("run file reads back");
        read_rates.push(megabytes / started.elapsed().as_secs_f64());
        assert_eq!(restored.len(), relation.len(), "run file lost tuples");
    }
    report.set_n(
        "spill.run_write_mb_per_s",
        crate::stats::median(&write_rates),
        ROUNDS as u64,
    );
    report.set_n(
        "spill.run_read_mb_per_s",
        crate::stats::median(&read_rates),
        ROUNDS as u64,
    );
}
