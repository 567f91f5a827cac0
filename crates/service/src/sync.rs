//! Poison-recovering lock helpers.
//!
//! A panic while holding a `std::sync` lock poisons it, and every later
//! `.lock().unwrap()` then panics too — one bad request would wedge the
//! whole engine. All service-layer state guarded by these locks (cache
//! shards, the in-flight map, the connection gauge) stays structurally
//! consistent across unwinds (invariants are restored by RAII guards, not
//! by the lock), so the right response to poison is to take the data and
//! keep serving. The router uses the same helpers for its own state.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// `Mutex::lock` that recovers from poisoning.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `RwLock::read` that recovers from poisoning.
pub fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// `RwLock::write` that recovers from poisoning.
pub fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait` that recovers from poisoning.
pub fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait_timeout` that recovers from poisoning. The timeout flag
/// is dropped: callers re-check their predicate and their own deadline.
pub fn wait_timeout<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    condvar
        .wait_timeout(guard, timeout)
        .map(|(guard, _)| guard)
        .unwrap_or_else(|e| e.into_inner().0)
}
