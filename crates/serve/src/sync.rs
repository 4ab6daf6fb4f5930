//! The poison-tolerant lock helper of the serving engine.
//!
//! The workers take the shared batch-dispatch receiver through [`lock`] instead of
//! an `expect` on every acquisition. The `atomics-barrier` rule in
//! `crates/analyze/lints.toml` still covers this file, so any synchronization
//! primitive added here later starts under the Acquire/Release discipline.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Acquires `mutex`, continuing with the inner value if it is poisoned. A poisoned
/// lock means a sibling scoped thread panicked; the scope is already tearing the run
/// down and re-raises that panic at join, so compounding it with a second panic from
/// every waiter only buries the original diagnostic.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_yield_the_inner_value() {
        let mutex = Mutex::new(7usize);
        // Poison the lock by panicking while holding it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("poison");
        }));
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 7);
    }
}
