//! The event queue both executors of the lifecycle file their events in: the
//! simulator's finishes, crashes and timers ([`crate::engine`]), and the
//! wall-clock node's timers ([`crate::rt_backend`]).
//!
//! Events pop in `(at_us, seq)` order, `seq` being the order they were
//! filed in — exactly what one binary heap over every pending event would
//! pop. What makes it cheaper than that heap is where the events wait.
//!
//! **Lanes.** An expiry is filed [`Due::After`] its TTL, at `now + ttl`,
//! and the clock `now` it is filed under never runs back ([`EventQueue::push`]
//! asserts it). So the expiries filed with one TTL come due in the order they
//! were filed, at instants that never decrease: each TTL's events wait in a
//! FIFO lane (a `VecDeque`), already sorted by `(at_us, seq)`, and only the
//! front of each non-empty lane sits in the heap. The heap's top is then the
//! least of every lane's least and every other pending event — the least
//! pending event — and popping a lane's front puts the lane's next front in
//! its place. A fixed TTL is one lane, whatever the number of sandboxes
//! idling under it; learned TTLs are one lane per value the policy answers
//! (the hybrid histogram reads them off log-bucketed histograms, and held at
//! most 83 lanes at once on the small-scale Azure day). A lane that empties
//! is reclaimed: it leaves the delay index and its buffer is kept for the
//! next delay, so the live lanes never outnumber the pending events.
//! Expiries that outlived a reuse are still filed and popped — the lifecycle
//! finds nothing to do — so the count of events is what the one-heap queue
//! counted.
//!
//! **Compact keys.** Everything else — a finish, a crash, a prewarm, each
//! [`Due::At`] an instant of its own — goes straight into the heap. A heap
//! entry is a 16-byte key, `at_us` and one word holding `seq` above a slot
//! (a lane, or the side-table entry holding the event), so a sift moves 16
//! bytes whatever the event weighs.
//!
//! **Bit budget.** `seq` has [`SEQ_BITS`] = 40 bits and the slot 24, one of
//! which tells a lane from an event: 2⁴⁰ ≈ 1.1 × 10¹² events filed, and 2²³
//! lanes and 2²³ events in the heap at once. The paper-scale Azure day files
//! ≈ 1.8 × 10⁹ events (its arrivals never enter the queue) and holds at most
//! one finish per core (65 536) plus its faults and prewarms; both budgets
//! are asserted where they are spent.

use faasrail_stats::rng::mix64;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// When a filed event comes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    /// At this instant, µs.
    At(u64),
    /// This many µs after the instant it is filed at: the events filed with
    /// one delay wait in one lane.
    After(u64),
}

/// Bits of a key's second word that order events filed at one instant.
const SEQ_BITS: u32 = 40;
const SLOT_BITS: u32 = 64 - SEQ_BITS;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// The slot bit that names a lane; the bits below it are the lane's index,
/// or the side-table entry of an event filed [`Due::At`].
const LANE: u32 = 1 << (SLOT_BITS - 1);

/// A heap entry: ordered by `at_us`, then `seq` (slots never tie: `seq` is
/// unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at_us: u64,
    seq_slot: u64,
}

impl Key {
    fn new(at_us: u64, seq: u64, slot: u32) -> Self {
        Key { at_us, seq_slot: seq << SLOT_BITS | slot as u64 }
    }

    fn seq(self) -> u64 {
        self.seq_slot >> SLOT_BITS
    }

    fn slot(self) -> u32 {
        (self.seq_slot & SLOT_MASK) as u32
    }
}

/// The events filed with one delay, earliest first: `(at_us, seq, event)`.
struct Lane<T> {
    delay_us: u64,
    waiting: VecDeque<(u64, u64, T)>,
}

/// Hashes a lane's delay with [`mix64`] (the index is probed once per
/// expiry the last-used lane does not take).
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }
}

/// Pending events, popped in `(at_us, seq)` order (see the module doc).
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Key>>,
    /// The events filed [`Due::At`], by slot; `free` lists the slots whose
    /// event has popped.
    events: Vec<T>,
    free: Vec<u32>,
    lanes: Vec<Lane<T>>,
    /// The live lane of each delay; reclaimed lanes wait in `spare`.
    lane_of: HashMap<u64, u32, BuildHasherDefault<Mix>>,
    spare: Vec<u32>,
    /// The lane the last [`Due::After`] went to (a fixed TTL's every time).
    hot: usize,
    /// Events filed so far: the last one's `seq`.
    seq: u64,
    /// The latest instant an event was filed at.
    now_us: u64,
}

impl<T: Copy> EventQueue<T> {
    /// A queue whose heap holds `capacity` keys before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            events: Vec::with_capacity(capacity),
            free: Vec::new(),
            lanes: Vec::new(),
            lane_of: HashMap::default(),
            spare: Vec::new(),
            hot: 0,
            seq: 0,
            now_us: 0,
        }
    }

    /// How many events have been filed: the `seq` of the last one.
    pub fn filed(&self) -> u64 {
        self.seq
    }

    /// File `event` at the instant `now_us`, due `due`.
    ///
    /// # Panics
    /// If `now_us` is earlier than an instant an event was filed at before,
    /// if a [`Due::At`] instant is earlier than `now_us`, or past the bit
    /// budget (see the module doc).
    #[inline]
    pub fn push(&mut self, now_us: u64, due: Due, event: T) {
        assert!(
            now_us >= self.now_us,
            "filed at {now_us} µs, behind the clock at {} µs",
            self.now_us
        );
        self.now_us = now_us;
        self.seq += 1;
        assert!(self.seq < 1 << SEQ_BITS, "more than 2^{SEQ_BITS} events filed");
        match due {
            Due::At(at_us) => {
                assert!(at_us >= now_us, "due at {at_us} µs, filed at {now_us} µs");
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.events[slot as usize] = event;
                        slot
                    }
                    None => {
                        let slot = self.events.len() as u32;
                        assert!(slot < LANE, "more than 2^{} events in the heap", SLOT_BITS - 1);
                        self.events.push(event);
                        slot
                    }
                };
                self.heap.push(Reverse(Key::new(at_us, self.seq, slot)));
            }
            Due::After(delay_us) => {
                let at_us = now_us.saturating_add(delay_us);
                let l = self.lane(delay_us);
                let lane = &mut self.lanes[l];
                if lane.waiting.is_empty() {
                    self.heap.push(Reverse(Key::new(at_us, self.seq, LANE | l as u32)));
                }
                lane.waiting.push_back((at_us, self.seq, event));
            }
        }
    }

    /// The next event's `(at_us, seq)`.
    #[inline]
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse(key)| (key.at_us, key.seq()))
    }

    /// Remove the next event: its instant and itself.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let mut top = self.heap.peek_mut()?;
        let Reverse(key) = *top;
        let slot = key.slot();
        if slot & LANE == 0 {
            PeekMut::pop(top);
            self.free.push(slot);
            return Some((key.at_us, self.events[slot as usize]));
        }
        let l = (slot & !LANE) as usize;
        let lane = &mut self.lanes[l];
        let (at_us, _, event) = lane.waiting.pop_front().expect("a lane in the heap waits");
        match lane.waiting.front() {
            Some(&(next_us, seq, _)) => *top = Reverse(Key::new(next_us, seq, slot)),
            None => {
                PeekMut::pop(top);
                self.lane_of.remove(&lane.delay_us);
                self.spare.push(l as u32);
            }
        }
        Some((at_us, event))
    }

    /// The live lane of `delay_us`, opened (or a spare reused) if none.
    #[inline]
    fn lane(&mut self, delay_us: u64) -> usize {
        // A lane that is not waiting on anything has been reclaimed.
        if let Some(lane) = self.lanes.get(self.hot) {
            if lane.delay_us == delay_us && !lane.waiting.is_empty() {
                return self.hot;
            }
        }
        let l = match self.lane_of.get(&delay_us) {
            Some(&l) => l as usize,
            None => {
                let l = match self.spare.pop() {
                    Some(l) => l as usize,
                    None => {
                        let l = self.lanes.len();
                        assert!(l < LANE as usize, "more than 2^{} lanes", SLOT_BITS - 1);
                        self.lanes.push(Lane { delay_us, waiting: VecDeque::new() });
                        l
                    }
                };
                self.lanes[l].delay_us = delay_us;
                self.lane_of.insert(delay_us, l as u32);
                l
            }
        };
        self.hot = l;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasrail_stats::rng::{cases, Rng};

    /// Random interleavings of lane pushes (a few delays, repeated), heap
    /// pushes (any delay, zero, and instants a lane's events also fall due
    /// at), clock steps and pops pop exactly what one binary heap over
    /// every `(at_us, seq)` pops.
    #[test]
    fn the_queue_pops_what_one_heap_of_every_event_pops() {
        cases("the_queue_pops_what_one_heap_of_every_event_pops", 400, |rng| {
            let delays: Vec<u64> = (0..rng.range(1..5usize))
                .map(|_| [0, 1, 3, 1_000, 600_000_000][rng.range(0..5usize)])
                .collect();
            let mut queue = EventQueue::with_capacity(rng.range(0..4usize));
            let mut oracle = BinaryHeap::new();
            let (mut now_us, mut seq) = (rng.range(0..3u64), 0u64);
            let pop = |queue: &mut EventQueue<u64>, oracle: &mut BinaryHeap<_>| {
                let want = oracle.pop().map(|Reverse((at_us, _, id))| (at_us, id));
                assert_eq!(queue.pop(), want);
                let next = oracle.peek().map(|&Reverse((at_us, seq, _))| (at_us, seq));
                assert_eq!(queue.peek(), next);
            };
            for _ in 0..rng.range(0..300usize) {
                let due = match rng.below(12) {
                    0..=4 => Due::After(delays[rng.range(0..delays.len())]),
                    5 => Due::At(now_us),
                    6 => Due::At(now_us + delays[rng.range(0..delays.len())]),
                    7 => Due::At(now_us + rng.below(2_000)),
                    8 => {
                        now_us += [0, 1, 2, 500, 700_000_000][rng.range(0..5usize)];
                        continue;
                    }
                    _ => {
                        pop(&mut queue, &mut oracle);
                        continue;
                    }
                };
                seq += 1;
                let at_us = match due {
                    Due::At(at_us) => at_us,
                    Due::After(delay_us) => now_us + delay_us,
                };
                let id = rng.next_u64();
                queue.push(now_us, due, id);
                oracle.push(Reverse((at_us, seq, id)));
                assert_eq!(queue.filed(), seq);
            }
            while !oracle.is_empty() {
                pop(&mut queue, &mut oracle);
            }
            assert_eq!(queue.pop(), None);
        });
    }

    #[test]
    fn an_emptied_lane_is_reclaimed_for_the_next_delay() {
        let mut queue = EventQueue::with_capacity(0);
        for delay_us in 1..1_000 {
            queue.push(delay_us, Due::After(delay_us), delay_us);
            queue.push(delay_us, Due::After(delay_us), delay_us + 1);
            assert_eq!(queue.pop(), Some((2 * delay_us, delay_us)));
            assert_eq!(queue.pop(), Some((2 * delay_us, delay_us + 1)));
        }
        assert_eq!((queue.lanes.len(), queue.lane_of.len(), queue.spare.len()), (1, 0, 1));
        // Two live delays, each filed twice, alternating: two lanes.
        for (i, delay_us) in [5, 9, 5, 9].into_iter().enumerate() {
            queue.push(1_000, Due::After(delay_us), i as u64);
        }
        assert_eq!((queue.lanes.len(), queue.lane_of.len()), (2, 2));
        let popped: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(popped, [(1_005, 0), (1_005, 2), (1_009, 1), (1_009, 3)]);
    }

    #[test]
    fn a_key_orders_by_instant_then_filing_order_whatever_its_slot() {
        let early = Key::new(7, 1, LANE | 3);
        let late = Key::new(7, 2, 0);
        assert!(early < late && late < Key::new(8, 0, 0));
        assert_eq!((late.seq(), early.seq(), early.slot()), (2, 1, LANE | 3));
        let last = Key::new(u64::MAX, (1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1);
        assert_eq!((last.seq(), last.slot()), ((1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1));
    }

    #[test]
    #[should_panic(expected = "behind the clock")]
    fn an_event_filed_behind_the_clock_is_refused() {
        let mut queue = EventQueue::with_capacity(0);
        queue.push(10, Due::After(5), ());
        queue.push(9, Due::After(5), ());
    }

    #[test]
    #[should_panic(expected = "filed at 10")]
    fn an_instant_before_the_filing_one_is_refused() {
        let mut queue = EventQueue::with_capacity(0);
        queue.push(10, Due::At(9), ());
    }
}
