//! A cross-thread inbox for an epoll loop: any thread pushes, the one loop
//! that owns the poller drains, and an eventfd pulls that loop out of
//! `epoll_wait` when it must.
//!
//! The eventfd write is **elided** whenever it would not change anything:
//! the consumer drains its inbox on every loop iteration, so a wake is only
//! load-bearing when it interrupts a blocking `epoll_wait`. A producer pays
//! the `write(2)` only if the consumer has published its intent to block
//! (`parked`, stored SeqCst before [`Inbox::wait`] re-checks the queue:
//! either the consumer sees the push and skips the blocking wait, or the
//! producer sees `parked` and the wake lands) *and* no other producer has
//! woken it since its last [`Inbox::drain`] (`notified`). At saturation this
//! collapses one syscall per item into at most one per batch. A forced
//! [`Inbox::wake`] (shutdown) bypasses the elision.
//!
//! The gateway's reactor shards take finished invocations this way, and the
//! multiplexed client's driver takes submitted requests.

use crate::poll::{Event, Interest, Poller};
use crate::sys::Waker;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Items pushed by any thread for the loop that registered the inbox.
pub struct Inbox<T> {
    queue: Mutex<Vec<T>>,
    waker: Waker,
    /// The consumer is inside (or committed to entering) a blocking wait.
    parked: AtomicBool,
    /// A wake has been issued and not yet consumed by `drain`.
    notified: AtomicBool,
}

impl<T> Inbox<T> {
    pub fn new() -> io::Result<Inbox<T>> {
        Ok(Inbox {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            parked: AtomicBool::new(false),
            notified: AtomicBool::new(false),
        })
    }

    /// A push cannot leave the queue half-updated, so a producer that
    /// panicked elsewhere while holding the lock does not wedge the loop.
    fn queue(&self) -> MutexGuard<'_, Vec<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register the inbox's eventfd in the consumer's `poller` under `token`.
    pub fn register(&self, poller: &Poller, token: u64) -> io::Result<()> {
        poller.add(self.waker.fd(), Interest::READ, token)
    }

    /// Queue `item`, waking the consumer only if it is parked and no one has
    /// woken it yet.
    pub fn push(&self, item: T) {
        self.queue().push(item);
        if self.parked.load(Ordering::SeqCst) && !self.notified.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// Wake the consumer whether or not it is parked.
    pub fn wake(&self) {
        self.notified.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// [`Poller::wait`] for the consumer: publish the intent to block, then
    /// re-check the queue, so a push that raced past an elided wake turns
    /// the wait into a poll instead of a sleep.
    pub fn wait(
        &self,
        poller: &mut Poller,
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> io::Result<usize> {
        self.parked.store(true, Ordering::SeqCst);
        let timeout = if self.queue().is_empty() { timeout } else { Some(Duration::ZERO) };
        let waited = poller.wait(timeout, events);
        self.parked.store(false, Ordering::SeqCst);
        waited
    }

    /// Move everything queued, in push order, to the end of `into`. The
    /// eventfd is reset first: a wake racing this drain survives to the next
    /// wait (the eventfd is level-triggered), and one whose item is already
    /// taken costs a spurious wake-up at most.
    pub fn drain(&self, into: &mut Vec<T>) {
        self.waker.drain();
        self.notified.store(false, Ordering::SeqCst);
        into.append(&mut self.queue());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    const TOKEN: u64 = 7;

    /// Whether the inbox's eventfd is readable right now.
    fn readable(poller: &mut Poller) -> bool {
        let mut events = Vec::new();
        poller.wait(Some(Duration::ZERO), &mut events).unwrap();
        events.iter().any(|e| e.token == TOKEN && e.readable())
    }

    #[test]
    fn an_elided_push_is_found_by_the_next_wait_and_a_wake_always_lands() {
        let inbox = Inbox::new().unwrap();
        let mut poller = Poller::new().unwrap();
        inbox.register(&poller, TOKEN).unwrap();
        inbox.push(1);
        inbox.push(2);
        assert!(!readable(&mut poller), "the consumer is not parked: the wake is elided");
        let started = Instant::now();
        inbox.wait(&mut poller, Some(Duration::from_secs(5)), &mut Vec::new()).unwrap();
        assert!(started.elapsed() < Duration::from_secs(1), "a wait over queued items must poll");
        inbox.wake();
        assert!(readable(&mut poller), "a forced wake is never elided");
        let mut got = Vec::new();
        inbox.drain(&mut got);
        assert_eq!(got, [1, 2]);
        assert!(!readable(&mut poller), "drain resets the eventfd");
        inbox.wake();
        assert!(readable(&mut poller), "a wake after a drain lands again");
    }

    #[test]
    fn no_push_is_lost_to_a_consumer_parked_without_a_timeout() {
        const PRODUCERS: u64 = 4;
        const PUSHES: u64 = 50_000;
        let inbox = Arc::new(Inbox::new().unwrap());
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || {
                let mut poller = Poller::new().unwrap();
                inbox.register(&poller, TOKEN).unwrap();
                let (mut events, mut batch) = (Vec::new(), Vec::new());
                let mut next = [0; PRODUCERS as usize];
                let mut left = PRODUCERS * PUSHES;
                while left > 0 {
                    events.clear();
                    inbox.wait(&mut poller, None, &mut events).unwrap();
                    inbox.drain(&mut batch);
                    for (producer, seq) in batch.drain(..) {
                        assert_eq!(seq, next[producer], "producer {producer} out of order");
                        next[producer] += 1;
                        left -= 1;
                    }
                    // A consumer slower than its producers: most pushes, the
                    // last ones included, land while it is not parked.
                    std::thread::sleep(Duration::from_micros(50));
                }
                done_tx.send(()).unwrap();
            })
        };
        let producers: Vec<_> = (0..PRODUCERS as usize)
            .map(|producer| {
                let inbox = Arc::clone(&inbox);
                std::thread::spawn(move || (0..PUSHES).for_each(|seq| inbox.push((producer, seq))))
            })
            .collect();
        producers.into_iter().for_each(|p| p.join().unwrap());
        let bound = Duration::from_secs(20);
        if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(bound) {
            inbox.wake(); // let the consumer finish before failing
            panic!("a push was stranded: the consumer slept {bound:?} on a non-empty inbox");
        }
        consumer.join().unwrap(); // re-raises an out-of-order panic
    }
}
