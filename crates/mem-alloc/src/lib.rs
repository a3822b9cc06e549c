//! # mem-alloc — software dynamic memory allocators for data-parallel kernels
//!
//! OpenCL 1.2 kernels cannot call `malloc`, yet hash joins need dynamic
//! allocations for partition buffers, key-list nodes and the join result
//! (Section 3.3 of the paper).  The paper therefore builds a *software*
//! allocator over a pre-allocated array in the zero-copy buffer and compares
//! two designs:
//!
//! * [`BumpAllocator`] ("Basic") — a single global pointer advanced with an
//!   atomic add per request.  Correct, but every allocation serialises on one
//!   latch, which is disastrous for the GPU's thousands of work items.
//! * [`BlockAllocator`] ("Ours") — work item 0 of each work group grabs a
//!   whole *block* from the global pointer, and the group's work items then
//!   sub-allocate from that block through a local-memory pointer.  The block
//!   size is the tuning knob of Figure 11; the comparison against Basic is
//!   Figure 12.
//!
//! The allocators here hand out byte offsets into a simulated arena and count
//! every atomic they would have issued ([`AllocStats`]), so the device model
//! in `apu-sim` can charge the corresponding latch overhead.

#![warn(missing_docs)]

pub mod basic;
pub mod block;
pub mod stats;

pub use basic::BumpAllocator;
pub use block::BlockAllocator;
pub use stats::AllocStats;

/// Which allocator design a join run should use (Section 3.3 / Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocatorKind {
    /// The basic single-pointer allocator ("Basic" in Figure 12).
    Basic,
    /// The optimised per-work-group block allocator ("Ours" in Figure 12)
    /// with the given block size in bytes (2 KB is the paper's sweet spot).
    Block {
        /// Block size in bytes.
        block_size: usize,
    },
}

impl AllocatorKind {
    /// The paper's tuned default: block allocation with 2 KB blocks.
    pub fn tuned() -> Self {
        AllocatorKind::Block { block_size: 2048 }
    }

    /// Instantiates the allocator over an arena of `capacity` bytes shared by
    /// `work_groups` work groups.
    pub fn build(&self, capacity: usize, work_groups: usize) -> Box<dyn KernelAllocator> {
        match *self {
            AllocatorKind::Basic => Box::new(BumpAllocator::new(capacity)),
            AllocatorKind::Block { block_size } => {
                Box::new(BlockAllocator::new(capacity, block_size, work_groups))
            }
        }
    }

    /// A short label for experiment output.
    pub fn label(&self) -> String {
        match self {
            AllocatorKind::Basic => "basic".to_string(),
            AllocatorKind::Block { block_size } => format!("block-{block_size}B"),
        }
    }
}

/// A software allocator usable from simulated kernels.
///
/// `group` identifies the work group making the request, which matters only
/// for the block allocator (each group owns its current block).
///
/// Allocators are `Send` so an engine's session pool can hand arenas to
/// whichever thread submits a request; each arena is still owned by exactly
/// one in-flight request at a time, so no interior synchronisation is needed.
pub trait KernelAllocator: Send {
    /// Allocates `bytes` bytes on behalf of work group `group`; returns the
    /// byte offset into the arena, or `None` when the arena is exhausted.
    fn alloc(&mut self, group: usize, bytes: usize) -> Option<usize>;

    /// Makes up to `count` requests of `bytes` bytes each for work group
    /// `group`, one [`Self::alloc`] at a time, stopping after the first that
    /// fails; returns how many succeeded.
    fn alloc_many(&mut self, group: usize, bytes: usize, count: usize) -> usize {
        (0..count)
            .take_while(|_| self.alloc(group, bytes).is_some())
            .count()
    }

    /// Counters accumulated since construction or the last [`Self::reset`].
    fn stats(&self) -> AllocStats;

    /// Arena capacity in bytes.
    fn capacity(&self) -> usize;

    /// Bytes handed out (including block-allocation slack).
    fn used(&self) -> usize;

    /// Clears the arena and counters so the allocator can be reused.
    fn reset(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_matching_allocator() {
        let mut basic = AllocatorKind::Basic.build(1024, 4);
        let mut block = AllocatorKind::tuned().build(16 * 1024, 4);
        assert!(basic.alloc(0, 16).is_some());
        assert!(block.alloc(0, 16).is_some());
        assert_eq!(basic.capacity(), 1024);
        assert_eq!(block.capacity(), 16 * 1024);
    }

    #[test]
    fn labels_identify_kind_and_block_size() {
        assert_eq!(AllocatorKind::Basic.label(), "basic");
        assert_eq!(
            AllocatorKind::Block { block_size: 512 }.label(),
            "block-512B"
        );
        assert_eq!(
            AllocatorKind::tuned(),
            AllocatorKind::Block { block_size: 2048 }
        );
    }
}
