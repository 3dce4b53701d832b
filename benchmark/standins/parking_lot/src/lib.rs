//! Stand-in for `parking_lot`: a `Mutex` whose `lock` returns the guard
//! directly. A poisoned std mutex is recovered, as `parking_lot` has no
//! poisoning.

use std::fmt;
use std::sync;

pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}
