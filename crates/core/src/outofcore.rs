//! Joins on data sets larger than the zero-copy buffer (Appendix A,
//! Figure 19).
//!
//! The zero-copy buffer of the APU is limited (512 MB on the A8-3870K).  For
//! larger inputs the paper treats the zero-copy buffer as "main memory" and
//! the rest of system memory as "external memory": both relations are
//! partitioned chunk by chunk *through* the buffer, the intermediate
//! partitions are copied out to system memory, and each resulting partition
//! pair is then joined in the buffer with the in-core algorithms (SHJ-PL or
//! PHJ-PL).  The elapsed time decomposes into data-copy, partition and join
//! time, with the copy accounting for only a few percent.
//!
//! The out-of-core path is requested through
//! [`JoinRequest::builder().out_of_core(..)`](crate::engine::JoinRequestBuilder::out_of_core).

use crate::config::JoinConfig;
use crate::context::{arena_bytes_for, ExecContext};
use crate::error::JoinError;
use crate::executor::execute_join;
use crate::partition::run_partition_pass;
use crate::result::JoinOutcome;
use crate::scheme::RatioPlan;
use apu_sim::{Phase, SimTime, SystemSpec};
use datagen::Relation;

/// Approximate bytes of buffer needed per build tuple for an in-core join
/// (both inputs plus the hash table and result output).
pub(crate) const BYTES_PER_TUPLE_IN_CORE: usize = 48;

/// True when a join of these cardinalities exceeds `sys`' zero-copy buffer
/// and must spill through the out-of-core path.
pub(crate) fn spills(sys: &SystemSpec, build_tuples: usize, probe_tuples: usize) -> bool {
    let needed = (build_tuples + probe_tuples) * BYTES_PER_TUPLE_IN_CORE / 2;
    needed > sys.zero_copy_bytes().unwrap_or(usize::MAX)
}

/// Runs `build ⨝ probe` on the context's system, spilling through the
/// zero-copy buffer when the data set does not fit.
///
/// When the inputs (plus working state) fit in the buffer this is exactly
/// [`execute_join`]; otherwise both relations are partitioned chunk-wise
/// until a partition pair fits, and each pair is joined with the configured
/// in-core algorithm over the *same* reusable arena (reset between chunks
/// and pairs, as the real zero-copy buffer would be).  The extra copy
/// traffic is reported under [`Phase::DataCopy`].
///
/// # Errors
/// Returns [`JoinError::ArenaExhausted`] when a chunk or partition pair
/// outgrows the context's arena.
pub(crate) fn execute_out_of_core(
    ctx: &mut ExecContext<'_>,
    build: &Relation,
    probe: &Relation,
    cfg: &JoinConfig,
    chunk_tuples: usize,
) -> Result<JoinOutcome, JoinError> {
    if !spills(ctx.sys, build.len(), probe.len()) {
        return execute_join(ctx, build, probe, cfg);
    }

    let plan = RatioPlan::from_scheme(&cfg.scheme).unwrap_or_else(|| {
        RatioPlan::from_scheme(&crate::config::Scheme::data_dividing_paper()).unwrap()
    });
    let chunk_tuples = chunk_tuples.max(1);
    let buffer = ctx.sys.zero_copy_bytes().unwrap_or(usize::MAX);

    // Choose the number of out-of-core partitions so one partition pair fits
    // comfortably in the buffer.
    let mut bits = 1u32;
    while ((build.len() + probe.len()) >> bits) * BYTES_PER_TUPLE_IN_CORE > buffer && bits < 12 {
        bits += 1;
    }
    let fanout = 1usize << bits;

    let mut outcome = JoinOutcome::default();

    // Phase 1: stream both relations through the buffer in chunks,
    // partitioning each chunk and copying the partitions out.
    let mut parts_r: Vec<Relation> = (0..fanout).map(|_| Relation::new()).collect();
    let mut parts_s: Vec<Relation> = (0..fanout).map(|_| Relation::new()).collect();
    for (rel, parts) in [(build, &mut parts_r), (probe, &mut parts_s)] {
        let mut start = 0;
        while start < rel.len() {
            let end = (start + chunk_tuples).min(rel.len());
            let chunk = rel.slice(start..end);
            add_copy(&mut outcome, ctx.sys, chunk.bytes() as u64); // copy in
            let (ps, phase) = run_partition_pass(ctx, &chunk, bits, 0, &plan.partition)?;
            outcome.breakdown.add(Phase::Partition, phase.elapsed());
            let mut copied_out = 0u64;
            for (i, p) in ps.iter().enumerate() {
                copied_out += p.bytes() as u64;
                parts[i].extend_from(p);
            }
            add_copy(&mut outcome, ctx.sys, copied_out); // copy intermediate partitions out
                                                         // The zero-copy buffer (and its pre-allocated arena) is reused for
                                                         // the next chunk once its partitions have been copied out.
            ctx.allocator.reset();
            start = end;
        }
    }

    // Phase 2: join each partition pair in the buffer with the in-core
    // algorithm, copying the pair in and the results out.
    for (r_p, s_p) in parts_r.iter().zip(parts_s.iter()) {
        if r_p.is_empty() && s_p.is_empty() {
            continue;
        }
        let needed = arena_bytes_for(r_p.len(), s_p.len());
        if needed > ctx.allocator.capacity() {
            return Err(ctx.arena_error("out-of-core pair", needed));
        }
        ctx.allocator.reset();
        add_copy(&mut outcome, ctx.sys, (r_p.bytes() + s_p.bytes()) as u64);
        let pair_outcome = execute_join(ctx, r_p, s_p, cfg)?;
        outcome.matches += pair_outcome.matches;
        if let Some(p) = pair_outcome.pairs {
            outcome.pairs.get_or_insert_with(Vec::new).extend(p);
        }
        outcome.breakdown.merge(&pair_outcome.breakdown);
        add_copy(&mut outcome, ctx.sys, pair_outcome.matches * 8);
    }

    Ok(outcome)
}

/// Charges a copy between system memory and the zero-copy buffer at the
/// CPU's streaming bandwidth.
fn add_copy(outcome: &mut JoinOutcome, sys: &SystemSpec, bytes: u64) {
    if bytes == 0 {
        return;
    }
    let bw = sys.cpu.seq_bandwidth_gbps; // bytes per nanosecond
    outcome
        .breakdown
        .add(Phase::DataCopy, SimTime::from_ns(bytes as f64 / bw));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{JoinConfig, Scheme};
    use crate::engine::{EngineConfig, JoinEngine, JoinRequest};
    use crate::result::reference_match_count;
    use apu_sim::Topology;
    use datagen::DataGenConfig;

    /// A coupled system with an artificially tiny zero-copy buffer so the
    /// out-of-core path triggers at test scale.
    fn tiny_buffer_system(buffer_bytes: usize) -> SystemSpec {
        let mut sys = SystemSpec::coupled_a8_3870k();
        sys.topology = Topology::Coupled {
            shared_cache_bytes: 4 * 1024 * 1024,
            zero_copy_bytes: buffer_bytes,
        };
        sys
    }

    fn run(
        sys: &SystemSpec,
        r: &Relation,
        s: &Relation,
        cfg: &JoinConfig,
        chunk: usize,
    ) -> JoinOutcome {
        let request = JoinRequest::from_config(cfg.clone())
            .and_then(|req| req.with_out_of_core(chunk))
            .unwrap();
        let mut engine =
            JoinEngine::for_system(sys.clone(), EngineConfig::for_tuples(r.len(), s.len()))
                .unwrap();
        engine.execute(&request, r, s).unwrap()
    }

    #[test]
    fn in_core_data_uses_the_plain_path() {
        let sys = SystemSpec::coupled_a8_3870k();
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(1000, 1000));
        let cfg = JoinConfig::shj(Scheme::pipelined_paper());
        let out = run(&sys, &r, &s, &cfg, 16 * 1024 * 1024);
        assert_eq!(out.matches, reference_match_count(&r, &s));
        assert_eq!(out.breakdown.get(Phase::DataCopy), SimTime::ZERO);
    }

    #[test]
    fn out_of_core_join_is_correct_and_pays_copy_time() {
        let sys = tiny_buffer_system(64 * 1024);
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(20_000, 20_000));
        let cfg = JoinConfig::shj(Scheme::pipelined_paper());
        let out = run(&sys, &r, &s, &cfg, 4096);
        assert_eq!(out.matches, reference_match_count(&r, &s));
        assert!(out.breakdown.get(Phase::DataCopy) > SimTime::ZERO);
        assert!(out.breakdown.get(Phase::Partition) > SimTime::ZERO);
        // The copy time is a modest fraction of the total, as in Figure 19.
        let copy_share = out.breakdown.get(Phase::DataCopy).as_secs() / out.total_time().as_secs();
        assert!(copy_share < 0.25, "copy share {copy_share:.2}");
    }

    #[test]
    fn out_of_core_phj_matches_shj() {
        let sys = tiny_buffer_system(64 * 1024);
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(10_000, 10_000));
        let shj = run(
            &sys,
            &r,
            &s,
            &JoinConfig::shj(Scheme::pipelined_paper()),
            4096,
        );
        let phj = run(
            &sys,
            &r,
            &s,
            &JoinConfig::phj(Scheme::pipelined_paper()),
            4096,
        );
        assert_eq!(shj.matches, phj.matches);
    }
}
