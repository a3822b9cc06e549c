//! What the benchmark reads off an engine from outside: counter snapshots
//! around a pass, and direct-call micro-measurements of single layers.

use crate::metrics::Report;
use crate::stats::median;
use coupled_hashjoin::hj_core::{JoinEngine, WorkerPool};
use std::time::Instant;

/// The engine counters a pass is bracketed with.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    pub tasks: u64,
    pub steals: u64,
    pub busy_ns: u64,
    pub park_ns: u64,
    pub requests_failed: u64,
    pub rejected_saturated: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub trace_dropped: u64,
}

impl EngineCounters {
    pub fn read(engine: &JoinEngine) -> Self {
        let stats = engine.stats();
        EngineCounters {
            tasks: stats.per_worker_tasks.iter().sum(),
            steals: stats.per_worker_steals.iter().sum(),
            busy_ns: stats.per_worker_busy_ns.iter().sum(),
            park_ns: stats.per_worker_park_ns.iter().sum(),
            requests_failed: stats.requests_failed,
            rejected_saturated: stats.rejected_saturated,
            cache_hits: stats.cache.hits,
            cache_misses: stats.cache.misses,
            trace_dropped: registry_value(
                &engine.render_metrics(),
                "hj_trace_events_dropped_total",
            ),
        }
    }
}

/// The value of the unlabelled sample `name` in Prometheus text; 0 when
/// the family is absent.
fn registry_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Per-layer metrics every workload takes the same way: engine counter
/// deltas over the traced pass (per join) and a registry render.
pub fn engine_layers(
    engine: &JoinEngine,
    (before, after): &(EngineCounters, EngineCounters),
    joins: u64,
    report: &mut Report,
) {
    let per_join = |delta: u64| delta as f64 / joins.max(1) as f64;
    let busy = (after.busy_ns - before.busy_ns) as f64;
    let park = (after.park_ns - before.park_ns) as f64;
    report.set(
        "pipeline.tasks_per_join",
        per_join(after.tasks - before.tasks),
    );
    report.set(
        "pipeline.steals_per_join",
        per_join(after.steals - before.steals),
    );
    report.set("pipeline.busy_share", busy / (busy + park).max(1.0));
    let stats = engine.stats();
    report.set("engine.peak_in_flight", stats.peak_in_flight as f64);
    report.set(
        "engine.rejected_saturated",
        (after.rejected_saturated - before.rejected_saturated) as f64,
    );
    report.set(
        "engine.requests_failed",
        (after.requests_failed - before.requests_failed) as f64,
    );
    report.set(
        "metrics.trace_dropped",
        (after.trace_dropped - before.trace_dropped) as f64,
    );

    median_us(report, "metrics.render_us", 21, || {
        engine.render_metrics().len()
    });
}

/// A 64-task no-op job on a private pool as wide as the engine's: what
/// handing a join's morsels to the workers costs by itself.
pub fn dispatch_layer(engine: &JoinEngine, report: &mut Report) {
    let pool = WorkerPool::new(engine.stats().worker_threads);
    median_us(report, "pipeline.dispatch_us", 201, || {
        pool.run(64, |_, task| task).len()
    });
}

/// Sets `name` to the median microseconds of `calls` calls of `f`.
pub fn median_us(report: &mut Report, name: &'static str, calls: usize, f: impl Fn() -> usize) {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.set_n(name, median(&samples), calls as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_value_reads_the_unlabelled_sample_only() {
        let text = "# HELP hj_x_total x\n# TYPE hj_x_total counter\nhj_x_total 7\n\
                    hj_x_total_more 9\nhj_y{worker=\"0\"} 3\n";
        assert_eq!(registry_value(text, "hj_x_total"), 7);
        assert_eq!(registry_value(text, "hj_y"), 0);
        assert_eq!(registry_value(text, "hj_absent"), 0);
    }
}
