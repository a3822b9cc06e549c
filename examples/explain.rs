//! Explain: run one traced join and print its flight recorder as an
//! EXPLAIN ANALYZE-style tree, followed by the engine's Prometheus
//! metrics snapshot.
//!
//! ```text
//! cargo run --release --example explain
//! HJ_EXPLAIN_TUPLES=1000000 cargo run --release --example explain
//! ```
//!
//! Tracing is opt-in per request: the same engine serves traced and
//! untraced joins side by side, and a traced join returns byte-identical
//! results — the recorder is assembled from data the join already
//! produced, never from extra work on the hot path.

use coupled_hashjoin::prelude::*;

fn main() {
    let tuples: usize = std::env::var("HJ_EXPLAIN_TUPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256 * 1024);

    let engine =
        JoinEngine::coupled(EngineConfig::for_tuples(tuples, 2 * tuples)).expect("engine config");
    let (build, probe) = datagen::generate_pair(&DataGenConfig::small(tuples, 2 * tuples));

    // `.trace(true)` is the only difference from a production request.
    let request = JoinRequest::builder()
        .algorithm(Algorithm::partitioned_auto())
        .scheme(Scheme::pipelined_paper())
        .trace(true)
        .build()
        .expect("valid request");

    let outcome = engine.submit(&request, &build, &probe).expect("join");
    assert_eq!(outcome.matches, reference_match_count(&build, &probe));

    let trace = outcome.trace.as_ref().expect("traced request");
    println!(
        "joined |R| = {} with |S| = {}: {} matches\n",
        build.len(),
        probe.len(),
        outcome.matches
    );
    println!("EXPLAIN ANALYZE");
    println!("{}", trace.render());

    println!("\n# Engine metrics after one traced join");
    print!("{}", engine.render_metrics());
}
