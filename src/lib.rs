//! # coupled-hashjoin
//!
//! A reproduction of *"Revisiting Co-Processing for Hash Joins on the
//! Coupled CPU-GPU Architecture"* (Jiong He, Mian Lu, Bingsheng He;
//! VLDB 2013 / arXiv:1307.1955) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`apu_sim`] — the coupled / discrete CPU-GPU architecture simulator
//!   (devices, shared cache, zero-copy buffer, PCI-e, simulated clock);
//! * [`datagen`] — synthetic `<rid, key>` relations (uniform, skewed,
//!   selectivity-controlled);
//! * [`mem_alloc`] — the software dynamic memory allocators (basic bump
//!   pointer vs per-work-group blocks);
//! * [`hj_core`] — the paper's contribution as a four-layer stack: schemes
//!   (SHJ/PHJ × OL/DD/PL/BasicUnit) over a morsel-driven step pipeline
//!   ([`hj_core::Morsel`]), scheduled by a persistent work-stealing
//!   worker pool ([`hj_core::WorkerPool`], real threads spawned once per
//!   engine) or per-device event clocks (simulation), served by a
//!   concurrent multi-session [`JoinEngine`](hj_core::JoinEngine) with
//!   pluggable execution backends;
//! * [`costmodel`] — the abstract cost model, calibration, ratio optimiser
//!   and Monte-Carlo evaluation.
//!
//! ## Example
//!
//! ```
//! use coupled_hashjoin::prelude::*;
//!
//! // The engine is constructed once; each configured session owns a pooled
//! // arena, and `submit(&self, ..)` serves concurrent client threads.
//! let engine =
//!     JoinEngine::coupled(EngineConfig::for_tuples(8_192, 16_384).sessions(2)).unwrap();
//! let request = JoinRequest::builder()
//!     .algorithm(Algorithm::partitioned_auto())
//!     .scheme(Scheme::pipelined_paper())
//!     .build()
//!     .unwrap();
//!
//! let (build, probe) = datagen::generate_pair(&DataGenConfig::small(8_192, 16_384));
//! let outcome = engine.submit(&request, &build, &probe).unwrap();
//! assert_eq!(outcome.matches, reference_match_count(&build, &probe));
//! ```

#![warn(missing_docs)]

pub use apu_sim;
pub use costmodel;
pub use datagen;
pub use hj_core;
pub use mem_alloc;

/// The most commonly used types and functions, re-exported for convenience.
pub mod prelude {
    pub use apu_sim::{
        DeviceKind, DeviceSpec, Phase, PhaseBreakdown, SimTime, SystemSpec, Topology,
    };
    pub use costmodel::{calibrate_from_relations, tune_scheme, JoinCostModel, TunedScheme};
    pub use datagen::{DataGenConfig, KeyDistribution, Relation, Workload};
    pub use hj_core::adaptive::{AdaptiveConfig, AdaptiveReport};
    pub use hj_core::metrics::{
        exact_quantile, HealthReport, HealthState, JoinTrace, LatencyHistogram, MetricSample,
        MetricValue, MetricsRegistry, SlowLog, TraceEventKind,
    };
    pub use hj_core::server::{
        ClientError, JoinClient, RefRequestBuilder, RequestBuilder, ShedReason, SloConfig,
        WireAlgorithm, WireScheme,
    };
    pub use hj_core::spill::{MemoryBroker, SpillConfig, SpillReport};
    pub use hj_core::{
        reference_match_count, Algorithm, CacheStats, CoupledSim, DiscreteSim, EngineConfig,
        EngineLoad, EngineStats, ExecBackend, HashTableMode, JoinConfig, JoinEngine, JoinError,
        JoinOutcome, JoinRequest, JoinServer, Morsel, NativeCpu, Ratios, Scheme, ServerConfig,
        ServerStats, StepGranularity, TableHandle, Tuning, WorkerPool,
    };
    pub use mem_alloc::AllocatorKind;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_prelude_is_usable() {
        let (r, s) = datagen::generate_pair(&DataGenConfig::small(512, 1024));
        let mut engine = JoinEngine::coupled(EngineConfig::for_tuples(512, 1024)).unwrap();
        let request = JoinRequest::builder()
            .scheme(Scheme::pipelined_paper())
            .build()
            .unwrap();
        let out = engine.execute(&request, &r, &s).unwrap();
        assert_eq!(out.matches, reference_match_count(&r, &s));
    }
}
