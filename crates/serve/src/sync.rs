//! The synchronization seam of the serving engine.
//!
//! Everything the engine uses to order its threads lives here: the batch-order
//! [`FetchTicket`] (one atomic, published with Release, observed with Acquire), the
//! bounded spin-wait underneath it, and the poison-tolerant lock helpers the batcher
//! and the workers use instead of `expect` on every acquisition.
//!
//! Concentrating the ordering primitives in one file is deliberate: the
//! `atomics-barrier` rule in `crates/analyze/lints.toml` forbids `Ordering::Relaxed`
//! anywhere in this module, so a future edit cannot quietly weaken the ticket
//! protocol, and the deterministic schedule model-checker ([`crate::schedule`])
//! exercises the same ticket discipline this module implements for the OS-scheduled
//! engine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use radar_obs::Stopwatch;

/// Busy-wait iterations spent on [`std::hint::spin_loop`] before each wait falls
/// back to yielding the time slice. Ticket waits are usually satisfied within a few
/// microseconds (the preceding batch's fetch), so a short spin phase wins; on an
/// oversubscribed or single-core host the yield fallback keeps the waiting thread
/// from starving whoever holds the ticket.
const SPIN_LIMIT: u32 = 64;

/// How long a ticket or barrier wait may stall before the watchdog panics. A correct
/// protocol satisfies these waits in microseconds-to-milliseconds; a wait that is
/// still unsatisfied after this long means the ticket holder is gone (protocol bug),
/// and a loud panic with the ticket state beats a CI job that hangs until the runner
/// times it out.
const WATCHDOG: Duration = Duration::from_secs(30);

/// How many yield iterations pass between watchdog clock checks, so the common
/// (instantly-satisfied) wait never pays for a clock read.
const WATCHDOG_CHECK_EVERY: u64 = 1 << 10;

/// Spins on `ready` with bounded busy-waiting — `SPIN_LIMIT` pause-hinted spins, then
/// one `yield_now` per retry — and a watchdog: if the wait is still unsatisfied after
/// `deadline`, panics with `diag()`'s description of the stuck state.
pub(crate) fn spin_wait_watchdog(
    mut ready: impl FnMut() -> bool,
    deadline: Duration,
    diag: impl Fn() -> String,
) {
    let mut spins = 0u32;
    let mut yields = 0u64;
    let mut started: Option<Stopwatch> = None;
    while !ready() {
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
            spins += 1;
            continue;
        }
        std::thread::yield_now();
        yields += 1;
        if yields % WATCHDOG_CHECK_EVERY == 0 {
            let start = *started.get_or_insert_with(Stopwatch::start);
            if start.elapsed_duration() >= deadline {
                panic!(
                    "[serve] watchdog: wait unsatisfied after {deadline:?} — {}",
                    diag()
                );
            }
        }
    }
}

/// The serving engine's fetch ticket: the count of batches whose weight fetch (and
/// any in-path recovery) has completed. The worker holding batch `current()` is the
/// one allowed to fetch; everyone else waits. Publishing uses Release and every
/// observation uses Acquire, so the DRAM reads and recovery writes of batch `b`'s
/// fetch happen-before anything batch `b + 1` (or the batcher's barrier-gated
/// strike, scrub and rotation steps) does.
#[derive(Debug, Default)]
pub(crate) struct FetchTicket {
    fetched: AtomicUsize,
}

impl FetchTicket {
    /// A fresh ticket: batch 0 fetches first.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of batches that have completed their fetch (Acquire).
    pub(crate) fn current(&self) -> usize {
        self.fetched.load(Ordering::Acquire)
    }

    /// Publishes that every batch below `next` has fetched (Release). Called exactly
    /// once per batch, by the worker that held its ticket.
    pub(crate) fn publish(&self, next: usize) {
        self.fetched.store(next, Ordering::Release);
    }

    /// Waits until it is exactly `batch`'s turn to fetch.
    pub(crate) fn wait_for(&self, batch: usize) {
        spin_wait_watchdog(
            || self.current() == batch,
            WATCHDOG,
            || {
                format!(
                    "worker waiting for fetch ticket {batch}, ticket stuck at {}",
                    self.current()
                )
            },
        );
    }

    /// The fetch barrier: waits until every one of the `dispatched` batches has
    /// completed its fetch. The batcher calls this before it mounts a strike, sweeps
    /// or ticks the key rotation, so "the strike lands before batch `b`" and "the
    /// sweep runs between batches" are exact statements about which traffic saw which
    /// weight state — the property that makes attacked serving runs replay
    /// deterministically.
    pub(crate) fn wait_at_least(&self, dispatched: usize) {
        spin_wait_watchdog(
            || self.current() >= dispatched,
            WATCHDOG,
            || {
                format!(
                    "fetch barrier waiting for {dispatched} fetched batches, ticket stuck at {}",
                    self.current()
                )
            },
        );
    }
}

/// Read-acquires `lock`, continuing with the inner value if it is poisoned. A
/// poisoned lock means a sibling scoped thread panicked; the scope is already tearing
/// the run down and re-raises that panic at join, so compounding it with a second
/// panic from every waiter only buries the original diagnostic.
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-acquires `lock`, poison-tolerant (see [`read_lock`]).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Acquires `mutex`, poison-tolerant (see [`read_lock`]).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_orders_publish_and_wait() {
        let ticket = FetchTicket::new();
        assert_eq!(ticket.current(), 0);
        ticket.wait_for(0); // immediately satisfied
        ticket.publish(1);
        ticket.wait_for(1);
        ticket.wait_at_least(1);
        assert_eq!(ticket.current(), 1);
    }

    #[test]
    fn spin_wait_returns_once_ready() {
        let mut countdown = 200u32;
        spin_wait_watchdog(
            || {
                countdown = countdown.saturating_sub(1);
                countdown == 0
            },
            Duration::from_secs(5),
            || unreachable!("wait is satisfied long before the deadline"),
        );
        assert_eq!(countdown, 0);
    }

    #[test]
    fn watchdog_panics_with_the_diagnostic_instead_of_hanging() {
        let result = std::panic::catch_unwind(|| {
            spin_wait_watchdog(
                || false,
                Duration::from_millis(20),
                || "ticket stuck at 7, waiting for 9".to_string(),
            );
        });
        let err = result.expect_err("a never-satisfied wait must trip the watchdog");
        let message = err
            .downcast_ref::<String>()
            .expect("watchdog panics with a formatted message");
        assert!(message.contains("watchdog"), "got: {message}");
        assert!(message.contains("ticket stuck at 7"), "got: {message}");
    }

    #[test]
    fn poisoned_locks_yield_the_inner_value() {
        let shared = RwLock::new(5usize);
        let mutex = Mutex::new(7usize);
        // Poison both locks by panicking while holding them.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shared.write().unwrap();
            let _guard2 = mutex.lock().unwrap();
            panic!("poison");
        }));
        assert!(shared.is_poisoned());
        assert_eq!(*read_lock(&shared), 5);
        *write_lock(&shared) += 1;
        assert_eq!(*read_lock(&shared), 6);
        assert_eq!(*lock(&mutex), 7);
    }
}
