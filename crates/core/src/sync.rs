//! Poison-tolerant lock acquisition for the session-shared state.
//!
//! Every `Mutex`/`RwLock` in this crate guards a *cache or registry*:
//! the memo table, the starts/alloc tables, the scratch pool, the
//! workload intern table, and the flow registries. None of them run
//! caller code while holding the guard, so a panic observed as poison
//! happened in an unrelated critical section (most likely an
//! allocation failure) and cannot have left the structure torn —
//! `HashMap`/`Vec` operations are unwind-safe at the value level, and
//! every cached value is validated on read (content fingerprints plus
//! a collision check) or is an immutable `Arc`.
//!
//! A long-lived daemon shares one [`Engine`](crate::Engine) session
//! across all requests; treating poison as fatal would turn one
//! panicking request into a permanent outage for every later request
//! that touches the same cache. Instead these helpers recover the
//! guard, count the event as `core.lock_poisoned`, and let the worst
//! case be a stale or missing cache entry — a recompute, never a wrong
//! answer.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering (and counting) a poisoned guard.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        crate::obs::lock_poisoned().incr();
        poisoned.into_inner()
    })
}

/// Waits on `changed` with `guard`'s lock, recovering (and counting) a
/// poisoned guard on wake-up.
pub(crate) fn wait_unpoisoned<'a, T>(
    changed: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    changed.wait(guard).unwrap_or_else(|poisoned| {
        crate::obs::lock_poisoned().incr();
        poisoned.into_inner()
    })
}

/// Read-locks `l`, recovering (and counting) a poisoned guard.
pub(crate) fn read_unpoisoned<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| {
        crate::obs::lock_poisoned().incr();
        poisoned.into_inner()
    })
}

/// Write-locks `l`, recovering (and counting) a poisoned guard.
pub(crate) fn write_unpoisoned<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| {
        crate::obs::lock_poisoned().incr();
        poisoned.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn poisoned_mutex_recovers_with_state_intact() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let clone = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), vec![1, 2, 3]);
        // And the lock keeps working afterwards.
        lock_unpoisoned(&m).push(4);
        assert_eq!(lock_unpoisoned(&m).len(), 4);
    }

    #[test]
    fn poisoned_rwlock_recovers_for_readers_and_writers() {
        let l = Arc::new(RwLock::new(7u32));
        let clone = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = clone.write().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(*read_unpoisoned(&l), 7);
        *write_unpoisoned(&l) = 8;
        assert_eq!(*read_unpoisoned(&l), 8);
    }
}
