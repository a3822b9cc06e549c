//! # apu-sim — coupled / discrete CPU-GPU architecture simulator
//!
//! This crate is the hardware substrate used by the hash-join reproduction of
//! *"Revisiting Co-Processing for Hash Joins on the Coupled CPU-GPU
//! Architecture"* (He, Lu, He; VLDB 2013).
//!
//! The paper runs on an AMD APU A8-3870K (a coupled CPU-GPU chip sharing the
//! last-level cache and main memory) and, for comparison, on an *emulated*
//! discrete architecture obtained by adding a PCI-e transfer delay.  Neither
//! an APU nor OpenCL is available in this environment, so the hardware is
//! simulated: kernels execute as ordinary Rust code over work items (the
//! joins produce real, verifiable results) while elapsed time is accounted by
//! a calibrated device model.
//!
//! The model follows the structure of the paper's cost model (Section 4):
//!
//! * **Computation** — instructions / (compute units × lanes × frequency ×
//!   IPC), see [`DeviceSpec`] and [`cost::KernelTime`].
//! * **Memory stalls** — calibrated per-access costs for random reads/writes
//!   (cache hit vs. miss) and bandwidth-limited sequential streams, see
//!   [`cost::MemContext`] and [`cache`].
//! * **Divergence** — SIMD wavefronts execute in lock-step, so a wavefront
//!   costs as much as its slowest work item, see [`executor`].
//! * **Atomics / latches** — serialising atomics (e.g. a global allocator
//!   pointer) versus distributed atomics (e.g. per-bucket latches).
//! * **PCI-e transfers** — only on the discrete topology, modelled exactly as
//!   the paper does: `latency + size / bandwidth` ([`pcie::PcieSpec`]).
//!
//! The crate deliberately knows nothing about hash joins; it provides
//! devices, topologies, a simulated clock, a cache model and kernel-cost
//! accounting that any data-parallel operator can use.

#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod cost;
pub mod device;
pub mod executor;
pub(crate) mod pcie;
pub mod topology;

pub use cache::{AnalyticCache, CacheSim, CacheStats};
pub use clock::{DeviceClocks, Phase, PhaseBreakdown, SimTime};
pub use cost::{CostRecorder, KernelTime, MemContext, StepCost};
pub use device::{Device, DeviceKind, DeviceSpec};
pub use executor::{divergence_factor, AtomicWorkload, LatchModel};
pub use pcie::PcieSpec;
pub use topology::{SystemSpec, Topology};
