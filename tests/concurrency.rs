//! Concurrency smoke test: many client threads submitting to one shared
//! [`JoinEngine`] (run in release mode by CI).
//!
//! Exercises the acceptance criteria of the concurrent engine: `submit`
//! takes `&self`, `sessions` requests are genuinely in flight at once, no
//! arena is created after construction, overload is rejected with the
//! typed `Saturated` error, and every concurrent outcome matches the
//! reference join.

use coupled_hashjoin::hj_core::{ExecContext, JoinOutcome};
use coupled_hashjoin::prelude::*;
use datagen::Relation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};

const SESSIONS: usize = 4;
const CLIENTS: usize = 8;
const JOINS_PER_CLIENT: usize = 4;

/// Wraps [`NativeCpu`] with a rendezvous: the first `SESSIONS` executions
/// block until all of them have started, which *proves* the engine holds
/// `SESSIONS` requests in flight simultaneously (each blocked execution
/// owns a distinct session).
struct RendezvousNative {
    inner: NativeCpu,
    barrier: Barrier,
    remaining: AtomicUsize,
}

impl ExecBackend for RendezvousNative {
    fn name(&self) -> &'static str {
        "rendezvous-native"
    }

    fn system(&self) -> &SystemSpec {
        self.inner.system()
    }

    fn execute(
        &self,
        ctx: &mut ExecContext<'_>,
        build: &Relation,
        probe: &Relation,
        request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        if self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            self.barrier.wait();
        }
        self.inner.execute(ctx, build, probe, request)
    }
}

#[test]
fn shared_engine_sustains_sessions_concurrent_in_flight_joins() {
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(4_000, 8_000));
    let expected = reference_match_count(&r, &s);
    let backend = RendezvousNative {
        inner: NativeCpu::new(),
        barrier: Barrier::new(SESSIONS),
        remaining: AtomicUsize::new(SESSIONS),
    };
    let engine = Arc::new(
        JoinEngine::new(
            Box::new(backend),
            EngineConfig::for_tuples(4_000, 8_000).sessions(SESSIONS),
        )
        .unwrap(),
    );
    let request = JoinRequest::builder()
        .scheme(Scheme::pipelined_paper())
        .build()
        .unwrap();

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let engine = Arc::clone(&engine);
            let request = request.clone();
            let (r, s) = (&r, &s);
            scope.spawn(move || {
                for _ in 0..JOINS_PER_CLIENT {
                    let out = engine.submit(&request, r, s).expect("submission failed");
                    assert_eq!(out.matches, expected);
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.requests_served, (CLIENTS * JOINS_PER_CLIENT) as u64);
    assert_eq!(stats.requests_failed, 0);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(
        stats.arenas_created, SESSIONS as u64,
        "arenas must be provisioned at construction only"
    );
    // The rendezvous in the backend guarantees the pool genuinely held
    // `SESSIONS` requests in flight at once.
    assert_eq!(
        stats.peak_in_flight, SESSIONS,
        "the engine never sustained `sessions` concurrent in-flight joins"
    );
    assert!(stats.joins_per_sec > 0.0);
}

/// A backend whose executions block until the shared gate opens, so the
/// test can hold every session busy deterministically.
struct GatedSim {
    sys: SystemSpec,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl ExecBackend for GatedSim {
    fn name(&self) -> &'static str {
        "gated-sim"
    }

    fn system(&self) -> &SystemSpec {
        &self.sys
    }

    fn execute(
        &self,
        _ctx: &mut ExecContext<'_>,
        _build: &Relation,
        _probe: &Relation,
        _request: &JoinRequest,
    ) -> Result<JoinOutcome, JoinError> {
        let (lock, cond) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cond.wait(open).unwrap();
        }
        Ok(JoinOutcome::default())
    }
}

#[test]
fn overload_beyond_sessions_and_queue_is_saturated() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = Arc::new(
        JoinEngine::new(
            Box::new(GatedSim {
                sys: SystemSpec::coupled_a8_3870k(),
                gate: Arc::clone(&gate),
            }),
            EngineConfig::for_tuples(256, 256)
                .sessions(2)
                .queue_depth(0),
        )
        .unwrap(),
    );
    let (r, s) = datagen::generate_pair(&DataGenConfig::small(128, 256));
    let request = JoinRequest::builder().build().unwrap();

    // Occupy both sessions with gated requests.
    let holders: Vec<_> = (0..2)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let request = request.clone();
            let (r, s) = (r.clone(), s.clone());
            std::thread::spawn(move || engine.submit(&request, &r, &s))
        })
        .collect();
    for _ in 0..5_000 {
        if engine.stats().in_flight == 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(engine.stats().in_flight, 2, "gated requests never started");

    // Both sessions busy, zero queue: rejection must be immediate + typed.
    match engine.submit(&request, &r, &s) {
        Err(JoinError::Saturated {
            sessions: 2,
            queue_depth: 0,
            in_flight: 2,
            queued: 0,
        }) => {}
        other => panic!("expected Saturated, got {other:?}"),
    }
    assert_eq!(engine.stats().rejected_saturated, 1);

    // Open the gate; the engine drains and stays usable.
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    for h in holders {
        assert!(h.join().unwrap().is_ok());
    }
    assert!(engine.submit(&request, &r, &s).is_ok());
    let stats = engine.stats();
    assert_eq!(stats.requests_served, 3);
    assert_eq!(stats.requests_failed, 1);
    assert_eq!(stats.in_flight, 0);
}
