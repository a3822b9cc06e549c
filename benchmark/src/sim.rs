//! `sim_paper`: the paper's experiment grid on the simulated backends.
//!
//! One operation is one *round* of eleven joins.  Times named `sim.*_ms`
//! are simulated and must repeat exactly; the host-speed metrics are
//! wall-clock like everywhere else.

use crate::load::{closed_loop, PassLog, Recorder};
use crate::metrics::Report;
use crate::probe::{self, EngineCounters};
use crate::spans::{self_times_ns, summarize};
use crate::{ms_since, Workload};
use coupled_hashjoin::costmodel::{calibrate_from_relations, tune_scheme, JoinCostModel};
use coupled_hashjoin::datagen::{generate_pair, DataGenConfig, Relation};
use coupled_hashjoin::hj_core::{
    reference_match_count, Algorithm, CoupledSim, DiscreteSim, EngineConfig, JoinEngine,
    JoinRequest, Scheme,
};
use std::time::Instant;

/// The paper's default relation size divided by 32.
const TUPLES: usize = 512 * 1024;

/// The optimiser's ratio step, as in the paper.
const TUNE_DELTA: f64 = 0.02;

/// Joins per round: {SHJ, PHJ} × five schemes on the coupled simulator,
/// then PHJ-DD on the discrete one.
const JOINS_PER_ROUND: usize = 11;

const SIM_METRICS: [&str; JOINS_PER_ROUND] = [
    "sim.shj_cpu_only_ms",
    "sim.shj_gpu_only_ms",
    "sim.shj_dd_ms",
    "sim.shj_ol_ms",
    "sim.shj_pl_ms",
    "sim.phj_cpu_only_ms",
    "sim.phj_gpu_only_ms",
    "sim.phj_dd_ms",
    "sim.phj_ol_ms",
    "sim.phj_pl_ms",
    "sim.discrete_phj_dd_ms",
];

fn request(algorithm: Algorithm, scheme: Scheme) -> JoinRequest {
    JoinRequest::builder()
        .algorithm(algorithm)
        .scheme(scheme)
        .build()
        .expect("valid join request")
}

pub struct Sim {
    coupled: JoinEngine,
    discrete: JoinEngine,
    /// In [`SIM_METRICS`] order; the last runs on `discrete`.
    requests: Vec<JoinRequest>,
    build: Relation,
    probe: Relation,
    expected_matches: u64,
    /// Simulated ms of each join, from the first round; every later round
    /// must reproduce them bit for bit.
    simulated_ms: Vec<f64>,
    counters: (EngineCounters, EngineCounters),
}

impl Sim {
    pub fn setup(seed: u64, report: &mut Report) -> Sim {
        let started = Instant::now();
        let (build, probe) = generate_pair(&DataGenConfig::small(TUPLES, TUPLES).with_seed(seed));
        report.set_n("datagen.generate_ms", ms_since(started), 1);
        let expected_matches = reference_match_count(&build, &probe);

        let config = EngineConfig::for_tuples(build.len(), probe.len()).sessions(2);
        let started = Instant::now();
        let coupled = JoinEngine::new(Box::new(CoupledSim::new()), config.clone())
            .expect("valid engine config");
        let discrete =
            JoinEngine::new(Box::new(DiscreteSim::new()), config).expect("valid engine config");
        report.set_n("engine.new_ms", ms_since(started), 1);

        let phj = Algorithm::partitioned_auto();
        let mut requests = Vec::new();
        for algorithm in [Algorithm::Simple, phj] {
            for scheme in [
                Scheme::CpuOnly,
                Scheme::GpuOnly,
                Scheme::data_dividing_paper(),
                Scheme::offload_gpu(),
                Scheme::pipelined_paper(),
            ] {
                requests.push(request(algorithm, scheme));
            }
        }
        requests.push(request(phj, Scheme::data_dividing_paper()));

        let started = Instant::now();
        let costs = calibrate_from_relations(coupled.system(), &build, &probe, phj);
        report.set_n("costmodel.calibrate_ms", ms_since(started), 1);
        let started = Instant::now();
        let tuned = tune_scheme(
            &JoinCostModel::new(costs),
            build.len(),
            probe.len(),
            phj,
            TUNE_DELTA,
        );
        report.set_n("costmodel.tune_ms", ms_since(started), 1);
        match coupled.submit(&request(phj, tuned.pipelined), &build, &probe) {
            Ok(outcome) => report.set("sim.phj_pl_tuned_ms", outcome.total_time().as_ms()),
            Err(error) => report
                .invalid
                .push(format!("tuned PL join failed: {error}")),
        }

        let mut workload = Sim {
            coupled,
            discrete,
            requests,
            build,
            probe,
            expected_matches,
            simulated_ms: Vec::new(),
            counters: Default::default(),
        };
        // The first round is the warm-up, the oracle check, and the
        // reference every later round's simulated times are held to.
        match workload.round(None) {
            Some(simulated_ms) => workload.simulated_ms = simulated_ms,
            None => report
                .invalid
                .push("the joins of the first round disagree with the oracle".into()),
        }
        workload
    }

    /// Runs the eleven joins; `None` when one fails or miscounts, else
    /// their simulated times.
    fn round(&self, rec: Option<&mut Recorder>) -> Option<Vec<f64>> {
        let started = Instant::now();
        let mut calls = Vec::with_capacity(JOINS_PER_ROUND);
        let mut simulated_ms = Vec::with_capacity(JOINS_PER_ROUND);
        for (index, request) in self.requests.iter().enumerate() {
            let engine = if index + 1 == JOINS_PER_ROUND {
                &self.discrete
            } else {
                &self.coupled
            };
            let start = Instant::now();
            let outcome = engine.submit(request, &self.build, &self.probe).ok()?;
            calls.push((start, Instant::now()));
            if outcome.matches != self.expected_matches {
                return None;
            }
            simulated_ms.push(outcome.total_time().as_ms());
        }
        if let Some(rec) = rec {
            let root = rec.span("sim.round", started, Instant::now(), None);
            for (start, end) in calls {
                rec.span("engine.submit", start, end, Some(root));
            }
        }
        Some(simulated_ms)
    }

    fn gain_pct(&self, baseline: usize, pipelined: usize) -> f64 {
        let (base, pl) = (self.simulated_ms[baseline], self.simulated_ms[pipelined]);
        (base - pl) / base * 100.0
    }
}

impl Workload for Sim {
    fn joins_per_op(&self) -> u64 {
        JOINS_PER_ROUND as u64
    }

    fn run(&mut self, seconds: f64, traced: bool) -> PassLog {
        let before = EngineCounters::read(&self.coupled);
        let (log, _) = closed_loop(vec![()], seconds, traced, |_, rec| {
            self.round(Some(rec))
                .is_some_and(|simulated_ms| simulated_ms == self.simulated_ms)
        });
        self.counters = (before, EngineCounters::read(&self.coupled));
        log
    }

    fn layers(&mut self, traced: &PassLog, report: &mut Report) {
        if self.simulated_ms.len() == JOINS_PER_ROUND {
            for (name, &ms) in SIM_METRICS.iter().zip(&self.simulated_ms) {
                report.set(name, ms);
            }
            // "Up to": the better of SHJ (joins 0..5) and PHJ (5..10),
            // each ordered cpu-only, gpu-only, DD, OL, PL.
            let up_to = |baseline: usize| {
                self.gain_pct(baseline, 4)
                    .max(self.gain_pct(5 + baseline, 9))
            };
            report.set("sim.pl_gain_vs_cpu_only_pct", up_to(0));
            report.set("sim.pl_gain_vs_gpu_only_pct", up_to(1));
            report.set("sim.pl_gain_vs_dd_pct", up_to(2));
            report.notes.push(
                "the paper reports PL gains of up to 53 / 35 / 28 % over CPU-only / GPU-only / DD; \
                 the repository holds no other reference, so the model is otherwise unvalidated"
                    .into(),
            );
        }
        let own = self_times_ns(&traced.spans);
        let (joins, host_ms, _) = summarize(&traced.spans, &own, "engine.submit");
        report.set_n("sim.host_ms_per_join", host_ms, joins);
        probe::engine_layers(&self.coupled, &self.counters, joins, report);
    }
}
