//! SLO-aware admission control: token-bucket client quotas, EWMA
//! service-time estimation and deadline-based shedding.
//!
//! The engine's own backpressure is blunt by design — a full session pool
//! plus a full queue yields `Saturated`, regardless of who is asking or
//! how long the queue will take to drain.  The serving layer wants the
//! opposite: decide *at arrival* whether a request can plausibly meet its
//! deadline, and if not, shed it immediately with a typed retry hint —
//! a request that would time out anyway should cost the client one
//! round-trip, not a deadline's worth of queueing.
//!
//! Three independent checks, in order:
//!
//! 1. **Quota** — each client owns a token bucket
//!    ([`SloConfig::tokens_per_sec`] / [`SloConfig::burst_tokens`]); an
//!    empty bucket sheds with [`ShedReason::Quota`] and the time until the
//!    next token as the retry hint.  One greedy client cannot starve the
//!    rest.
//! 2. **Queue budget** — the controller tracks the estimated backlog
//!    (admitted-but-unfinished work, in ns).  When the backlog's expected
//!    wait exceeds [`SloConfig::queue_budget_ms`], new requests are shed
//!    with [`ShedReason::QueueBudget`] — unless their priority is
//!    `PRIORITY_BYPASS` (`u8::MAX`), which lets paying traffic ride
//!    through a backlog that drops best-effort work.
//! 3. **Deadline** — a request carrying a deadline (there is no implicit
//!    one) is shed with
//!    [`ShedReason::Deadline`] when `estimated wait + estimated service
//!    time > deadline`.  The service estimate is an EWMA of observed
//!    ns-per-tuple (the same estimator design the adaptive tuner uses),
//!    seedable with a prior that the first real sample replaces.
//!
//! The controller is purely computational: callers pass `now_ns` from any
//! monotonic clock, which keeps every decision deterministic and unit
//! testable without sleeping.

use crate::message::ShedReason;
use hj_adaptive::EwmaEstimator;
use hj_analysis::sync::Mutex;
use std::collections::HashMap;

/// EWMA weight of each new service-time sample.
const SERVICE_TIME_EWMA_ALPHA: f64 = 0.25;

/// The priority that bypasses the queue-budget shed (never the quota or
/// deadline sheds): only `u8::MAX` rides through a backlog.
pub(crate) const PRIORITY_BYPASS: u8 = u8::MAX;

/// Service-level objectives and quota knobs of one serving endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Token-bucket refill rate per client (requests per second).
    /// `f64::INFINITY` (the default) disables per-client quotas.
    pub tokens_per_sec: f64,
    /// Token-bucket capacity per client (burst allowance); at least 1.
    pub burst_tokens: f64,
    /// Backlog ceiling: when the estimated queue wait exceeds this many
    /// milliseconds, requests below `PRIORITY_BYPASS` are shed.  `0` (the
    /// default) means unlimited.
    pub queue_budget_ms: u32,
    /// Optional prior for the service-time estimate (ns per input tuple),
    /// replaced by the first real observation; `0` disables the seed.
    pub prior_ns_per_tuple: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            tokens_per_sec: f64::INFINITY,
            burst_tokens: 1.0,
            queue_budget_ms: 0,
            prior_ns_per_tuple: 0.0,
        }
    }
}

impl SloConfig {
    /// Sets the per-client quota: `tokens_per_sec` refill with a burst
    /// capacity of `burst_tokens`.
    pub fn quota(mut self, tokens_per_sec: f64, burst_tokens: f64) -> Self {
        self.tokens_per_sec = tokens_per_sec;
        self.burst_tokens = burst_tokens;
        self
    }

    /// Sets the backlog ceiling in milliseconds.
    pub fn queue_budget_ms(mut self, ms: u32) -> Self {
        self.queue_budget_ms = ms;
        self
    }

    /// Seeds the service-time estimator with `ns` per input tuple.
    pub fn prior_ns_per_tuple(mut self, ns: f64) -> Self {
        self.prior_ns_per_tuple = ns;
        self
    }

    /// Validates the knobs.
    ///
    /// # Errors
    /// A human-readable description of the first offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.tokens_per_sec.is_nan() || self.tokens_per_sec <= 0.0 {
            return Err("tokens_per_sec must be positive (use INFINITY for no quota)".into());
        }
        if !self.burst_tokens.is_finite() || self.burst_tokens < 1.0 {
            return Err("burst_tokens must be finite and at least 1".into());
        }
        if !self.prior_ns_per_tuple.is_finite() || self.prior_ns_per_tuple < 0.0 {
            return Err("prior_ns_per_tuple must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// The verdict on one arriving request.
#[derive(Debug)]
pub enum Admission {
    /// Serve it; pass the [`Ticket`] back on completion (or abandonment).
    Admit(Ticket),
    /// Shed it with a typed reason and a retry hint.
    Shed {
        /// Why the request was not admitted.
        reason: ShedReason,
        /// Suggested earliest retry, in milliseconds (at least 1).
        retry_after_ms: u32,
    },
}

/// Accounting stub of one admitted request: its backlog contribution and
/// input size, settled by [`AdmissionController::complete`] or
/// [`AdmissionController::abandon`].
#[derive(Debug)]
#[must_use = "settle tickets with complete() or abandon(), or the backlog estimate leaks"]
pub struct Ticket {
    est_service_ns: f64,
    tuples: usize,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    refilled_at_ns: u64,
}

#[derive(Debug)]
struct Inner {
    buckets: HashMap<u64, Bucket>,
    estimator: EwmaEstimator,
    backlog_ns: f64,
}

/// The SLO-aware admission controller (see the [module docs](self)).
///
/// Thread-safe: one controller serves every connection of a server.
#[derive(Debug)]
pub struct AdmissionController {
    config: SloConfig,
    /// Engine parallelism the backlog drains at (sessions); the expected
    /// wait for new work is `backlog / parallelism`.
    parallelism: usize,
    inner: Mutex<Inner>,
}

impl AdmissionController {
    /// A controller enforcing `config`, assuming the backlog drains
    /// `parallelism` requests at a time (the engine's session count).
    pub fn new(config: SloConfig, parallelism: usize) -> Result<Self, String> {
        config.validate()?;
        let mut estimator = EwmaEstimator::new(SERVICE_TIME_EWMA_ALPHA);
        if config.prior_ns_per_tuple > 0.0 {
            estimator.seed(config.prior_ns_per_tuple);
        }
        Ok(AdmissionController {
            config,
            parallelism: parallelism.max(1),
            inner: Mutex::new(
                "slo.admission",
                Inner {
                    buckets: HashMap::new(),
                    estimator,
                    backlog_ns: 0.0,
                },
            ),
        })
    }

    /// The configuration the controller enforces.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Decides one arriving request.
    ///
    /// * `client` — a stable per-client key (the serving layer uses one id
    ///   per connection);
    /// * `tuples` — input size (build + probe) driving the service-time
    ///   estimate;
    /// * `deadline_ms` — the request's deadline (`0` = none);
    /// * `priority` — `PRIORITY_BYPASS` rides through the queue budget;
    /// * `now_ns` — the caller's monotonic clock.
    pub fn admit(
        &self,
        client: u64,
        tuples: usize,
        deadline_ms: u32,
        priority: u8,
        now_ns: u64,
    ) -> Admission {
        let mut inner = self.inner.lock();

        // 1. Quota: refill this client's bucket to `now`, then take a token.
        if self.config.tokens_per_sec.is_finite() {
            let burst = self.config.burst_tokens;
            let rate = self.config.tokens_per_sec;
            let bucket = inner.buckets.entry(client).or_insert(Bucket {
                tokens: burst,
                refilled_at_ns: now_ns,
            });
            let elapsed = now_ns.saturating_sub(bucket.refilled_at_ns) as f64 / 1e9;
            bucket.tokens = (bucket.tokens + elapsed * rate).min(burst);
            bucket.refilled_at_ns = now_ns;
            if bucket.tokens < 1.0 {
                let wait_secs = (1.0 - bucket.tokens) / rate;
                let retry = ((wait_secs * 1e3).ceil() as u32).max(1);
                return Admission::Shed {
                    reason: ShedReason::Quota,
                    retry_after_ms: retry,
                };
            }
            bucket.tokens -= 1.0;
        }

        let est_wait_ns = inner.backlog_ns / self.parallelism as f64;
        let est_service_ns = inner
            .estimator
            .estimate_ns()
            .map(|unit| unit * tuples as f64)
            .unwrap_or(0.0);

        // 2. Queue budget: a backlog past the ceiling sheds everything below
        // the bypass priority, deadline or not.
        let budget_ns = self.config.queue_budget_ms as f64 * 1e6;
        if budget_ns > 0.0 && est_wait_ns > budget_ns && priority < PRIORITY_BYPASS {
            let retry = retry_after_ms(est_wait_ns - budget_ns);
            // The shed request keeps its token: quota pays for *service*,
            // not for being told to come back later.
            self.refund_token(&mut inner, client);
            return Admission::Shed {
                reason: ShedReason::QueueBudget,
                retry_after_ms: retry,
            };
        }

        // 3. Deadline: shed when the estimated completion busts it.
        if deadline_ms > 0 {
            let deadline_ns = deadline_ms as f64 * 1e6;
            let est_completion_ns = est_wait_ns + est_service_ns;
            if est_completion_ns > deadline_ns {
                let retry = retry_after_ms(est_completion_ns - deadline_ns);
                self.refund_token(&mut inner, client);
                return Admission::Shed {
                    reason: ShedReason::Deadline,
                    retry_after_ms: retry,
                };
            }
        }

        // Admitted: charge the service estimate to the backlog.  While the
        // estimator is empty (no prior, no samples) the charge is zero —
        // the very first requests are admitted on faith and their observed
        // times bootstrap the estimate.
        inner.backlog_ns += est_service_ns;
        Admission::Admit(Ticket {
            est_service_ns,
            tuples,
        })
    }

    /// Settles an admitted request: removes its backlog charge and feeds
    /// the measured service time into the estimator.
    pub fn complete(&self, ticket: Ticket, actual_service_ns: u64) {
        let mut inner = self.inner.lock();
        inner.backlog_ns = (inner.backlog_ns - ticket.est_service_ns).max(0.0);
        inner
            .estimator
            .observe(ticket.tuples, actual_service_ns as f64);
    }

    /// Settles an admitted request that was *not* served (shed downstream,
    /// connection died): removes its backlog charge without feeding the
    /// estimator.
    pub fn abandon(&self, ticket: Ticket) {
        let mut inner = self.inner.lock();
        inner.backlog_ns = (inner.backlog_ns - ticket.est_service_ns).max(0.0);
    }

    /// The estimated queue wait for a request arriving now, in
    /// milliseconds — the retry hint the serving layer attaches to
    /// engine-level `Saturated` rejections.
    pub fn estimated_wait_ms(&self) -> u32 {
        let inner = self.inner.lock();
        retry_after_ms(inner.backlog_ns / self.parallelism as f64)
    }

    fn refund_token(&self, inner: &mut Inner, client: u64) {
        if self.config.tokens_per_sec.is_finite() {
            if let Some(bucket) = inner.buckets.get_mut(&client) {
                bucket.tokens = (bucket.tokens + 1.0).min(self.config.burst_tokens);
            }
        }
    }
}

/// Converts a nanosecond overrun into a retry hint of at least 1 ms.
fn retry_after_ms(overrun_ns: f64) -> u32 {
    if overrun_ns <= 0.0 {
        return 1;
    }
    ((overrun_ns / 1e6).ceil()).min(u32::MAX as f64).max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn admit_ok(c: &AdmissionController, client: u64, tuples: usize, now: u64) -> Ticket {
        match c.admit(client, tuples, 0, 0, now) {
            Admission::Admit(t) => t,
            Admission::Shed { reason, .. } => panic!("unexpected shed: {}", reason.label()),
        }
    }

    #[test]
    fn unlimited_config_admits_everything() {
        let c = AdmissionController::new(SloConfig::default(), 2).unwrap();
        for i in 0..100 {
            let t = admit_ok(&c, i % 3, 1000, i * MS);
            c.complete(t, 5 * MS);
        }
        // The samples were learned: one more 5 ms request held open is
        // 2.5 ms of expected wait over 2 sessions.
        assert_eq!(c.estimated_wait_ms(), 1, "nothing is in flight");
        let held = admit_ok(&c, 0, 1000, 100 * MS);
        assert_eq!(c.estimated_wait_ms(), 3);
        c.abandon(held);
        assert_eq!(c.estimated_wait_ms(), 1);
    }

    #[test]
    fn token_bucket_sheds_and_refills() {
        let config = SloConfig::default().quota(10.0, 2.0); // 10/s, burst 2
        let c = AdmissionController::new(config, 1).unwrap();
        let t0 = 0;
        let _a = admit_ok(&c, 7, 10, t0);
        let _b = admit_ok(&c, 7, 10, t0);
        // Third immediate request: bucket empty.
        match c.admit(7, 10, 0, 0, t0) {
            Admission::Shed {
                reason: ShedReason::Quota,
                retry_after_ms,
            } => {
                // One token takes 100 ms at 10/s.
                assert!((90..=110).contains(&retry_after_ms), "{retry_after_ms}");
            }
            other => panic!("expected quota shed, got {other:?}"),
        }
        // Another client is unaffected.
        let _c = admit_ok(&c, 8, 10, t0);
        // After 150 ms one and a half tokens have refilled: one is spent,
        // and the half left is 50 ms short of the next.
        let _d = admit_ok(&c, 7, 10, t0 + 150 * MS);
        match c.admit(7, 10, 0, 0, t0 + 150 * MS) {
            Admission::Shed {
                reason: ShedReason::Quota,
                retry_after_ms,
            } => assert!((40..=60).contains(&retry_after_ms), "{retry_after_ms}"),
            other => panic!("expected quota shed, got {other:?}"),
        }
    }

    #[test]
    fn deadline_shed_uses_the_learned_estimate() {
        let config = SloConfig::default();
        let c = AdmissionController::new(config, 1).unwrap();
        // Bootstrap: first request admitted on faith, observed at 10 ms for
        // 1000 tuples -> 10_000 ns/tuple.
        let t = admit_ok(&c, 1, 1000, 0);
        c.complete(t, 10 * MS);

        // A 1000-tuple request with a 5 ms deadline cannot finish (service
        // estimate alone is 10 ms).
        match c.admit(1, 1000, 5, 0, MS) {
            Admission::Shed {
                reason: ShedReason::Deadline,
                retry_after_ms,
            } => {
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected deadline shed, got {other:?}"),
        }
        // The same request with a 50 ms deadline is fine.
        let t = admit_ok_deadline(&c, 1, 1000, 50, MS);
        c.complete(t, 10 * MS);
    }

    fn admit_ok_deadline(
        c: &AdmissionController,
        client: u64,
        tuples: usize,
        deadline_ms: u32,
        now: u64,
    ) -> Ticket {
        match c.admit(client, tuples, deadline_ms, 0, now) {
            Admission::Admit(t) => t,
            Admission::Shed { reason, .. } => panic!("unexpected shed: {}", reason.label()),
        }
    }

    #[test]
    fn backlog_grows_waits_and_drains() {
        let c = AdmissionController::new(SloConfig::default(), 2).unwrap();
        // Learn 1 ms per 100 tuples.
        let t = admit_ok(&c, 1, 100, 0);
        c.complete(t, MS);
        // Admit 8 requests of 100 tuples: backlog = 8 ms over 2 sessions ->
        // 4 ms expected wait.
        let tickets: Vec<Ticket> = (0..8).map(|i| admit_ok(&c, 1, 100, (i + 1) * MS)).collect();
        assert_eq!(c.estimated_wait_ms(), 4);
        // A 4 ms deadline cannot absorb a ~4 ms wait + 1 ms service.
        match c.admit(1, 100, 4, 0, 10 * MS) {
            Admission::Shed {
                reason: ShedReason::Deadline,
                ..
            } => {}
            other => panic!("expected deadline shed, got {other:?}"),
        }
        for t in tickets {
            c.complete(t, MS);
        }
        assert_eq!(c.estimated_wait_ms(), 1, "the retry hint's floor");
        // Drained: the same deadline is now achievable.
        let t = admit_ok_deadline(&c, 1, 100, 4, 20 * MS);
        c.abandon(t);
    }

    #[test]
    fn queue_budget_sheds_unless_priority_bypasses() {
        let config = SloConfig::default().queue_budget_ms(2);
        let c = AdmissionController::new(config, 1).unwrap();
        let t = admit_ok(&c, 1, 100, 0);
        c.complete(t, MS); // 10_000 ns/tuple
                           // 3 admitted x 1 ms = 3 ms backlog > 2 ms budget.
        let _held: Vec<Ticket> = (0..3).map(|_| admit_ok(&c, 1, 100, MS)).collect();
        assert_eq!(c.estimated_wait_ms(), 3);
        for priority in [0, PRIORITY_BYPASS - 1] {
            match c.admit(1, 100, 0, priority, MS) {
                Admission::Shed {
                    reason: ShedReason::QueueBudget,
                    retry_after_ms,
                } => {
                    assert!(retry_after_ms >= 1);
                }
                other => panic!("expected queue-budget shed, got {other:?}"),
            }
        }
        // Priority u8::MAX bypasses the budget.
        match c.admit(1, 100, 0, PRIORITY_BYPASS, MS) {
            Admission::Admit(t) => c.abandon(t),
            other => panic!("expected bypass admit, got {other:?}"),
        }
    }

    #[test]
    fn shed_requests_keep_their_token() {
        // Quota 1/s, burst 2; the first admit spends one token.  If
        // deadline sheds burned tokens too, the second shed below would
        // come back as a quota shed instead — so three consecutive
        // deadline sheds prove the refund.
        let config = SloConfig::default().quota(1.0, 2.0);
        let c = AdmissionController::new(config, 1).unwrap();
        let t = admit_ok_deadline(&c, 1, 100, 1_000_000, 0);
        c.complete(t, 100 * MS); // 1 ms/tuple -> a 1 ms deadline busts
        for _ in 0..3 {
            match c.admit(1, 100, 1, 0, MS) {
                Admission::Shed {
                    reason: ShedReason::Deadline,
                    ..
                } => {}
                other => panic!("expected deadline shed, got {other:?}"),
            }
        }
        // The remaining token is still there for a workable deadline.
        match c.admit(1, 100, 10_000, 0, MS) {
            Admission::Admit(t) => c.abandon(t),
            other => panic!("expected admit, got {other:?}"),
        }
        // ...and now the bucket really is empty.
        match c.admit(1, 100, 10_000, 0, MS) {
            Admission::Shed {
                reason: ShedReason::Quota,
                ..
            } => {}
            other => panic!("expected quota shed, got {other:?}"),
        }
    }

    #[test]
    fn prior_seeds_the_estimate_until_evidence_arrives() {
        let config = SloConfig::default().prior_ns_per_tuple(100.0);
        let c = AdmissionController::new(config, 1).unwrap();
        // 1000 tuples at 100 ns/tuple prior = 0.1 ms estimate; a 10 ms
        // deadline passes...
        let t = admit_ok_deadline(&c, 1, 1000, 10, 0);
        // ...but the measured truth (1 ms/tuple) replaces the prior:
        c.complete(t, 1000 * MS);
        match c.admit(1, 1000, 10, 0, MS) {
            Admission::Shed {
                reason: ShedReason::Deadline,
                ..
            } => {}
            other => panic!("a lying prior must not outlive evidence, got {other:?}"),
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(AdmissionController::new(SloConfig::default().quota(0.0, 1.0), 1).is_err());
        assert!(AdmissionController::new(SloConfig::default().quota(1.0, 0.5), 1).is_err());
        let bad = SloConfig {
            prior_ns_per_tuple: f64::NAN,
            ..SloConfig::default()
        };
        assert!(AdmissionController::new(bad, 1).is_err());
    }
}
