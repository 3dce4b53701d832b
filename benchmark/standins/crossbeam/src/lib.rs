//! Stand-in for `crossbeam`: `channel::{bounded, unbounded}` (multi-producer,
//! multi-consumer, built on a mutex and two condition variables) and
//! `utils::CachePadded`.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // No user code runs under the lock, so it cannot be poisoned
            // half-updated.
            self.state.lock().unwrap_or_else(|p| p.into_inner())
        }

        fn is_full(&self, state: &State<T>) -> bool {
            self.capacity.is_some_and(|cap| state.queue.len() >= cap)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// A channel holding at most `capacity` messages; `send` blocks while
    /// it is full. Capacity 0 (a rendezvous channel in the published crate)
    /// is not used by this workspace and is treated as 1.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(capacity.max(1)))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    fn new_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if !self.0.is_full(&state) {
                    state.queue.push_back(value);
                    drop(state);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                state = self.0.not_full.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if self.0.is_full(&state) {
                return Err(TrySendError::Full(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.0.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.0.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.0.not_empty.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn every_message_reaches_exactly_one_receiver() {
            let (tx, rx) = bounded::<u32>(4);
            let total: u32 = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..3)
                    .map(|_| {
                        let rx = rx.clone();
                        scope.spawn(move || {
                            let mut sum = 0;
                            while let Ok(n) = rx.recv() {
                                sum += n;
                            }
                            sum
                        })
                    })
                    .collect();
                drop(rx);
                for i in 1..=100 {
                    tx.send(i).unwrap();
                }
                drop(tx);
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert_eq!(total, 5050);
        }

        #[test]
        fn full_and_disconnected_are_reported() {
            let (tx, rx) = bounded::<u8>(1);
            tx.try_send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.recv(), Ok(1));
            drop(rx);
            assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
            assert!(tx.send(4).is_err());
        }
    }
}

pub mod utils {
    use std::ops::{Deref, DerefMut};

    /// Aligns its content to 128 bytes so that neighbours in an array do
    /// not share a cache line (or an adjacent-line prefetch pair).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T>(T);

    impl<T> CachePadded<T> {
        pub const fn new(value: T) -> Self {
            CachePadded(value)
        }

        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded(value)
        }
    }
}
