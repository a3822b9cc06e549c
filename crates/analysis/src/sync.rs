//! The instrumented synchronisation facade.
//!
//! Drop-in replacements for [`std::sync::Mutex`], [`std::sync::RwLock`]
//! and [`std::sync::Condvar`] with two differences:
//!
//! 1. **Poison recovery is built in.**  Acquisition returns the guard
//!    directly, never a `Result`: a thread that panicked while holding a
//!    lock has already had its panic propagated to whoever waits on it
//!    (the engine re-raises worker panics at the submitter), so poisoning
//!    carries no extra information here — and treating it as fatal would
//!    let one bad join turn every later `stats()`/`submit()` call into a
//!    panic.  This subsumes the `lock_unpoisoned`/`wait_unpoisoned`
//!    helpers that used to be copy-pasted across `hj-core`, `hj-spill`
//!    and `hj-server`.
//! 2. **Every lock carries a static class label.**  [`Mutex::new`] takes
//!    a `&'static str` class (e.g. `"pool.deque"`); the class set and its
//!    intended partial order are documented in `docs/INVARIANTS.md`.  In
//!    normal builds the label is inert.  Under the test-only feature
//!    `lock-order`, every acquisition is recorded against its class into
//!    a process-global acquisition graph and the [`crate::lockorder`]
//!    detector flags order cycles, condvar waits holding a second lock,
//!    and locks held at thread exit.
//!
//! The wrappers are thin: without `lock-order` each call compiles to the
//! `std` call plus an `unwrap_or_else(PoisonError::into_inner)` — no
//! allocation, no atomics, no global state.
// The facade is the one sanctioned home of the raw std primitives.
// hj-lint: allow-file(raw-sync)
// hj-lint: allow-file(lock-unwrap)

use crate::lockorder::Tracked;
use std::panic::Location;
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion primitive wrapping [`std::sync::Mutex`] with poison
/// recovery and (under `lock-order`) acquisition tracking.
pub struct Mutex<T: ?Sized> {
    class: &'static str,
    inner: std::sync::Mutex<T>,
}

/// RAII guard of a [`Mutex`]; the lock is released on drop.
#[must_use = "dropping the guard immediately releases the lock"]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    tracked: Tracked,
}

impl<T> Mutex<T> {
    /// A new mutex of the given lock class protecting `value`.
    ///
    /// The class is a static label shared by every lock of the same role
    /// (all worker deques are one class); it names the node this lock's
    /// acquisitions are recorded under in the lock-order graph.
    pub fn new(class: &'static str, value: T) -> Self {
        Mutex {
            class,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value (poison
    /// recovered).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available; recovers the inner
    /// data if a panicking thread poisoned it.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let site = Location::caller();
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            inner,
            tracked: Tracked::acquire(self.class, site),
        }
    }

    /// Mutable access through exclusive ownership — no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock's static class label.
    pub fn class(&self) -> &'static str {
        self.class
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Mutex");
        s.field("class", &self.class);
        match self.inner.try_lock() {
            Ok(guard) => s.field("data", &&*guard),
            Err(_) => s.field("data", &"<locked>"),
        };
        s.finish()
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable wrapping [`std::sync::Condvar`], waiting on the
/// facade's [`MutexGuard`] with poison recovery.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Releases `guard`'s mutex and blocks until notified; the mutex is
    /// reacquired (poison recovered) before returning.
    ///
    /// Under `lock-order`, entering a wait while holding any *other* lock
    /// is recorded as a violation: the wait is unbounded and every thread
    /// needing that second lock would stall behind it.
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let site = Location::caller();
        let MutexGuard { inner, tracked } = guard;
        let class = tracked.class();
        tracked.begin_wait(site);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            inner,
            tracked: Tracked::reacquired(class, site),
        }
    }

    /// Like [`wait`](Self::wait), but gives up after `timeout`; the
    /// returned flag reports whether the wait timed out.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let site = Location::caller();
        let MutexGuard { inner, tracked } = guard;
        let class = tracked.class();
        tracked.begin_wait(site);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        (
            MutexGuard {
                inner,
                tracked: Tracked::reacquired(class, site),
            },
            result.timed_out(),
        )
    }

    /// Wakes one thread blocked on this condvar.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every thread blocked on this condvar.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader-writer lock wrapping [`std::sync::RwLock`] with poison
/// recovery and (under `lock-order`) acquisition tracking.
///
/// Shared (`read`) and exclusive (`write`) acquisitions are recorded
/// against the same class: two reader-held classes cannot deadlock each
/// other, but read-then-write upgrades across classes can, so the
/// detector treats every acquisition as ordering-relevant.
pub struct RwLock<T: ?Sized> {
    class: &'static str,
    inner: std::sync::RwLock<T>,
}

/// RAII shared-read guard of an [`RwLock`].
#[must_use = "dropping the guard immediately releases the lock"]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    #[allow(dead_code)] // held for its Drop (pops the held-lock stack)
    tracked: Tracked,
}

/// RAII exclusive-write guard of an [`RwLock`].
#[must_use = "dropping the guard immediately releases the lock"]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    #[allow(dead_code)] // held for its Drop (pops the held-lock stack)
    tracked: Tracked,
}

impl<T> RwLock<T> {
    /// A new reader-writer lock of the given lock class protecting
    /// `value`.
    pub fn new(class: &'static str, value: T) -> Self {
        RwLock {
            class,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value (poison
    /// recovered).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access (poison recovered).
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let site = Location::caller();
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard {
            inner,
            tracked: Tracked::acquire(self.class, site),
        }
    }

    /// Acquires exclusive write access (poison recovered).
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let site = Location::caller();
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard {
            inner,
            tracked: Tracked::acquire(self.class, site),
        }
    }

    /// Mutable access through exclusive ownership — no locking needed.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// The lock's static class label.
    pub fn class(&self) -> &'static str {
        self.class
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("RwLock");
        s.field("class", &self.class);
        match self.inner.try_read() {
            Ok(guard) => s.field("data", &&*guard),
            Err(_) => s.field("data", &"<locked>"),
        };
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip_and_class() {
        let m = Mutex::new("test.roundtrip", 41u32);
        assert_eq!(m.class(), "test.roundtrip");
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn get_mut_bypasses_the_lock() {
        let mut m = Mutex::new("test.get_mut", vec![1, 2]);
        m.get_mut().push(3);
        assert_eq!(m.lock().len(), 3);
    }

    #[test]
    fn poisoned_mutex_recovers_with_data_intact() {
        let m = Arc::new(Mutex::new("test.poison", 7u32));
        let clone = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock();
            panic!("poison the facade mutex");
        })
        .join();
        // The panic poisoned the std mutex underneath; the facade shrugs
        // it off and the data is still there.
        assert_eq!(*m.lock(), 7);
        *m.lock() = 9;
        assert_eq!(*m.lock(), 9);
    }

    #[test]
    fn condvar_wait_wakes_on_notify() {
        let pair = Arc::new((Mutex::new("test.cv", false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock();
                while !*ready {
                    ready = cv.wait(ready);
                }
            })
        };
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        waiter.join().expect("waiter completed");
    }

    #[test]
    fn condvar_wait_timeout_reports_expiry() {
        let m = Mutex::new("test.cv_timeout", ());
        let cv = Condvar::new();
        let (guard, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out);
        drop(guard);
    }

    #[test]
    fn rwlock_readers_share_and_writer_excludes() {
        let l = Arc::new(RwLock::new("test.rw", 5u32));
        {
            let a = l.read();
            let b = l.read();
            assert_eq!((*a, *b), (5, 5));
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
        let clone = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = clone.write();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*l.read(), 6, "poisoned rwlock must recover");
    }
}
