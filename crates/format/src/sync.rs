//! Poison-recovering access to `std::sync` locks.
//!
//! A lock whose holder panicked is poisoned; these helpers take it as
//! is instead of propagating the panic, so one failed worker does not
//! wedge every other user of the lock.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock `m`, blocking until it is free.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take a shared read guard on `l`.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take the exclusive write guard on `l`.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Release `guard` and block on `cv` until notified, then relock.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicked_holder_leaves_the_lock_usable() {
        let m = Arc::new(Mutex::new(0));
        let l = Arc::new(RwLock::new(0));
        let (m2, l2) = (m.clone(), l.clone());
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            let _w = write(&l2);
            panic!("poison both locks");
        })
        .join();
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        *write(&l) += 2;
        assert_eq!((*lock(&m), *read(&l)), (1, 2));
    }
}
