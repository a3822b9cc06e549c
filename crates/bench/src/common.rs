//! Shared utilities of the experiment harness: scaling, workload caching,
//! CSV output and pretty-printing.

use apu_sim::SystemSpec;
use datagen::{DataGenConfig, KeyDistribution, Relation};
use hj_core::{arena_bytes_for, EngineConfig, JoinConfig, JoinEngine, JoinOutcome, JoinRequest};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// The paper's default cardinality (16 M tuples per relation).
pub(crate) const PAPER_TUPLES: usize = 16 * 1024 * 1024;

/// Reads the global scale divisor from `HJ_SCALE` (default 32).
///
/// Every cardinality in the experiments is divided by this factor; `1`
/// reproduces the paper's sizes, larger values shrink the workloads
/// proportionally so the whole suite finishes in minutes.
pub fn default_scale() -> usize {
    std::env::var("HJ_SCALE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(32)
}

/// Mutable state shared by all experiments of one invocation: the scale, the
/// output directory and a cache of generated relations (several experiments
/// reuse the default workload).
pub struct ExpContext {
    /// Scale divisor applied to all cardinalities.
    pub scale: usize,
    /// Directory receiving CSV output.
    pub out_dir: PathBuf,
    data_cache: HashMap<(usize, usize, u32, u32), (Relation, Relation)>,
    /// Long-lived engines keyed by system, reused (arena and all) across
    /// every run of an invocation; an engine is only rebuilt when a larger
    /// workload arrives.
    engines: Vec<(SystemSpec, JoinEngine)>,
}

impl ExpContext {
    /// Creates a context with the given scale, writing CSVs to `out_dir`.
    pub(crate) fn new(scale: usize, out_dir: impl Into<PathBuf>) -> Self {
        let out_dir = out_dir.into();
        let _ = fs::create_dir_all(&out_dir);
        ExpContext {
            scale: scale.max(1),
            out_dir,
            data_cache: HashMap::new(),
            engines: Vec::new(),
        }
    }

    /// A context using [`default_scale`] and the workspace `results/`
    /// directory.
    pub fn from_env() -> Self {
        ExpContext::new(default_scale(), "results")
    }

    /// The scaled equivalent of a paper-sized cardinality.
    pub(crate) fn scaled(&self, paper_tuples: usize) -> usize {
        (paper_tuples / self.scale).max(1)
    }

    /// The coupled APU system under test.
    pub(crate) fn coupled(&self) -> SystemSpec {
        SystemSpec::coupled_a8_3870k()
    }

    /// The emulated discrete system under test.
    pub(crate) fn discrete(&self) -> SystemSpec {
        SystemSpec::discrete_emulated()
    }

    /// Generates (and caches) a relation pair with the given *paper-scale*
    /// cardinalities, distribution and selectivity.
    pub(crate) fn relations(
        &mut self,
        paper_build: usize,
        paper_probe: usize,
        distribution: KeyDistribution,
        selectivity: f64,
    ) -> (Relation, Relation) {
        let build = self.scaled(paper_build);
        let probe = self.scaled(paper_probe);
        let key = (
            build,
            probe,
            (distribution.duplicate_fraction() * 1000.0) as u32,
            (selectivity * 1000.0) as u32,
        );
        self.data_cache
            .entry(key)
            .or_insert_with(|| {
                datagen::generate_pair(&DataGenConfig {
                    build_tuples: build,
                    probe_tuples: probe,
                    distribution,
                    selectivity,
                    seed: 42,
                })
            })
            .clone()
    }

    /// The paper's default workload (16 M ⨝ 16 M uniform, selectivity 1),
    /// scaled.
    pub(crate) fn default_relations(&mut self) -> (Relation, Relation) {
        self.relations(PAPER_TUPLES, PAPER_TUPLES, KeyDistribution::Uniform, 1.0)
    }

    /// Runs one join on `sys` through the pooled engine for that system.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a failed execution — an
    /// experiment harness has no meaningful recovery.
    pub(crate) fn run_join(
        &mut self,
        sys: &SystemSpec,
        cfg: &JoinConfig,
        build: &Relation,
        probe: &Relation,
    ) -> JoinOutcome {
        let request =
            JoinRequest::from_config(cfg.clone()).expect("valid experiment configuration");
        self.run_request(sys, &request, build, probe)
    }

    /// Runs one join on `sys` through the pooled engine, taking the
    /// out-of-core path with the given chunk size.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a failed execution.
    pub(crate) fn run_out_of_core(
        &mut self,
        sys: &SystemSpec,
        cfg: &JoinConfig,
        build: &Relation,
        probe: &Relation,
        chunk_tuples: usize,
    ) -> JoinOutcome {
        let request = JoinRequest::from_config(cfg.clone())
            .and_then(|r| r.with_out_of_core(chunk_tuples))
            .expect("valid experiment configuration");
        self.run_request(sys, &request, build, probe)
    }

    fn run_request(
        &mut self,
        sys: &SystemSpec,
        request: &JoinRequest,
        build: &Relation,
        probe: &Relation,
    ) -> JoinOutcome {
        let required = arena_bytes_for(build.len(), probe.len());
        let slot = self.engines.iter().position(|(s, _)| s == sys);
        let engine = match slot {
            Some(i) if self.engines[i].1.stats().arena_capacity >= required => {
                &mut self.engines[i].1
            }
            _ => {
                let config = EngineConfig::for_tuples(build.len(), probe.len())
                    .with_allocator(request.config().allocator);
                let engine = JoinEngine::for_system(sys.clone(), config)
                    .expect("experiment engine construction");
                match slot {
                    Some(i) => {
                        self.engines[i].1 = engine;
                        &mut self.engines[i].1
                    }
                    None => {
                        self.engines.push((sys.clone(), engine));
                        &mut self.engines.last_mut().expect("just pushed").1
                    }
                }
            }
        };
        engine
            .execute(request, build, probe)
            .expect("experiment join execution")
    }

    /// Writes `rows` as a CSV file named `name` (header first), returning
    /// the path.
    pub(crate) fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        let path = self.out_dir.join(name);
        let mut content = String::with_capacity(rows.len() * 32 + header.len() + 1);
        content.push_str(header);
        content.push('\n');
        for row in rows {
            content.push_str(row);
            content.push('\n');
        }
        if let Ok(mut f) = fs::File::create(&path) {
            let _ = f.write_all(content.as_bytes());
        }
        path
    }
}

/// Reads a CI gate floor from environment variable `name`: a finite,
/// non-negative ratio, or `None` when unset.
///
/// Malformed values are a hard error rather than a silent fallback: these
/// knobs drive CI regression gates, and a typo that quietly disabled one
/// would neutralise the gate with exit code 0.
pub(crate) fn env_ratio_floor(name: &str) -> Option<f64> {
    let raw = std::env::var(name).ok()?;
    let floor: f64 = raw
        .parse()
        .unwrap_or_else(|_| panic!("{name}: {raw:?} is not a number"));
    assert!(
        floor.is_finite() && floor >= 0.0,
        "{name}: {floor} must be a finite, non-negative ratio"
    );
    Some(floor)
}

/// Prints a section header for an experiment.
pub(crate) fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats seconds with three decimals, the precision the paper's plots use.
pub(crate) fn secs(t: apu_sim::SimTime) -> String {
    format!("{:.3}", t.as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_falls_back_to_default() {
        // Cannot reliably set env vars in parallel tests; just check the
        // default and the clamp path through a context.
        let ctx = ExpContext::new(0, std::env::temp_dir().join("hj-bench-test"));
        assert_eq!(ctx.scale, 1);
        assert!(default_scale() >= 1);
    }

    #[test]
    fn scaled_cardinalities_never_hit_zero() {
        let ctx = ExpContext::new(1_000_000, std::env::temp_dir().join("hj-bench-test"));
        assert_eq!(ctx.scaled(64), 1);
        assert_eq!(ctx.scaled(PAPER_TUPLES), 16);
    }

    #[test]
    fn relation_cache_returns_identical_data() {
        let mut ctx = ExpContext::new(4096, std::env::temp_dir().join("hj-bench-test"));
        let (r1, s1) = ctx.default_relations();
        let (r2, s2) = ctx.default_relations();
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
        assert_eq!(r1.len(), PAPER_TUPLES / 4096);
    }

    #[test]
    fn csv_is_written_with_header_and_rows() {
        let dir = std::env::temp_dir().join("hj-bench-test-csv");
        let ctx = ExpContext::new(64, &dir);
        let path = ctx.write_csv("probe.csv", "a,b", &["1,2".to_string(), "3,4".to_string()]);
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.starts_with("a,b\n"));
    }
}
