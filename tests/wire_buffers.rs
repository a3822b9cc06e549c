//! Served joins reuse their frame buffers: once a connection has carried
//! one request of a shape, the next one allocates no buffer of its size.
//!
//! A counting global allocator watches every thread of the process —
//! client, connection handler, engine and pool — while one client sends
//! 200 collecting 8 Ki ⨝ 16 Ki joins, alternating inline requests and
//! requests against a registered table.  No allocation or reallocation may
//! be larger than the result itself (8 B a pair): the returned pair list
//! is the one allocation a request needs at that size.  Before the frame
//! buffers were reused, every request made 4 such allocations (the
//! client's request encode, the server's frame read, the server's chunk
//! encode and the client's frame read); with reuse it makes 0.
//!
//! The file holds one test, so nothing else runs in the process while it
//! counts.

use coupled_hashjoin::datagen::{generate_pair, DataGenConfig};
use coupled_hashjoin::hj_core::reference_pairs;
use coupled_hashjoin::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocations at most this large are not counted.
static LIMIT: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Allocations and reallocations larger than `LIMIT`.
static LARGE: AtomicUsize = AtomicUsize::new(0);
/// The largest of them, in bytes.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size > LIMIT.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

/// The system allocator, counting what `note` counts.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn served_joins_allocate_nothing_larger_than_their_result_after_warm_up() {
    let (build, probe) = generate_pair(&DataGenConfig::small(8 * 1024, 16 * 1024));
    let expected = reference_pairs(&build, &probe).len();
    let engine =
        JoinEngine::native(EngineConfig::for_tuples(build.len(), probe.len()).sessions(2)).unwrap();
    let server = JoinServer::start(Arc::new(engine), ServerConfig::default()).unwrap();
    let mut client = JoinClient::connect(server.local_addr()).unwrap();
    client.register_table("build", build.clone()).unwrap();
    let mut join = |i: usize| {
        let outcome = if i.is_multiple_of(2) {
            let request = RequestBuilder::new(build.clone(), probe.clone())
                .collect_pairs(true)
                .build();
            client.join(request)
        } else {
            let request = RefRequestBuilder::new("build", probe.clone())
                .collect_pairs(true)
                .build();
            client.join_ref(request)
        };
        assert_eq!(outcome.unwrap().pairs.len(), expected);
    };

    for i in 0..20 {
        join(i);
    }
    let result_bytes = 8 * expected;
    // Every request frame is larger than the result, so each one counted
    // here would be a frame buffer allocated afresh.
    assert!(8 * probe.len() >= result_bytes);
    LIMIT.store(result_bytes, Ordering::SeqCst);
    for i in 0..200 {
        join(i);
    }
    LIMIT.store(usize::MAX, Ordering::SeqCst);
    assert_eq!(
        LARGE.load(Ordering::SeqCst),
        0,
        "200 served joins made allocations above the {result_bytes} B result, the largest {} B",
        LARGEST.load(Ordering::SeqCst)
    );
}
