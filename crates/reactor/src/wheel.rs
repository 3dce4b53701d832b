//! A coarse timer wheel for per-connection deadlines.
//!
//! Tens of thousands of connections each carry an idle/read deadline; the
//! wheel answers "who is overdue?" in O(slots advanced), not O(connections).
//! Entries are *hints*, not authorities: the owner re-checks the real
//! deadline when an entry fires and re-arms if it moved — so refreshing a
//! deadline is free (no cancellation, no re-insert) and each connection
//! keeps at most one live entry. The owner advances it on a fixed tick of
//! one slot (16 ms) while anything is armed, rather than asking it when the
//! next entry is due.

use std::time::Instant;

const SLOT_MS: u64 = 16;
const SLOTS: usize = 256; // one rotation covers ~4s; longer deadlines re-queue

#[derive(Clone, Copy, Debug)]
struct Entry {
    token: u64,
    due_tick: u64,
}

/// A hashed timer wheel keyed by opaque `u64` tokens.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    /// Next tick to drain (inclusive).
    cursor_tick: u64,
    epoch: Instant,
    len: usize,
}

impl TimerWheel {
    pub fn new(epoch: Instant) -> TimerWheel {
        TimerWheel { slots: vec![Vec::new(); SLOTS], cursor_tick: 0, epoch, len: 0 }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let ms = at.saturating_duration_since(self.epoch).as_millis() as u64;
        ms / SLOT_MS
    }

    /// Number of armed entries (including stale ones not yet swept).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arm `token` to fire at `deadline`. Deadlines in the past fire on the
    /// next [`TimerWheel::advance`].
    pub fn insert(&mut self, token: u64, deadline: Instant) {
        let due_tick = self.tick_of(deadline).max(self.cursor_tick);
        let slot = (due_tick % SLOTS as u64) as usize;
        self.slots[slot].push(Entry { token, due_tick });
        self.len += 1;
    }

    /// Drain every entry due at or before `now` into `fired`; keep the rest.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<u64>) {
        let now_tick = self.tick_of(now);
        if self.len == 0 {
            self.cursor_tick = now_tick + 1;
            return;
        }
        // Visit each slot at most once per call even if the wheel lagged
        // several rotations behind.
        let span = (now_tick.saturating_sub(self.cursor_tick) + 1).min(SLOTS as u64);
        let mut keep: Vec<Entry> = Vec::new();
        for i in 0..span {
            let tick = self.cursor_tick + i;
            let slot = (tick % SLOTS as u64) as usize;
            if self.slots[slot].is_empty() {
                continue;
            }
            keep.clear();
            for e in self.slots[slot].drain(..) {
                if e.due_tick <= now_tick {
                    fired.push(e.token);
                    self.len -= 1;
                } else {
                    keep.push(e);
                }
            }
            self.slots[slot].append(&mut keep);
        }
        self.cursor_tick = now_tick + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fires_at_and_after_deadline_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(1, t0 + Duration::from_millis(100));
        wheel.insert(2, t0 + Duration::from_millis(500));
        let mut fired = Vec::new();

        wheel.advance(t0 + Duration::from_millis(50), &mut fired);
        assert!(fired.is_empty(), "nothing due yet");

        wheel.advance(t0 + Duration::from_millis(130), &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(wheel.len(), 1);

        fired.clear();
        wheel.advance(t0 + Duration::from_millis(600), &mut fired);
        assert_eq!(fired, vec![2]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(9, t0); // already due
        let mut fired = Vec::new();
        wheel.advance(t0 + Duration::from_millis(SLOT_MS), &mut fired);
        assert_eq!(fired, vec![9]);
    }

    #[test]
    fn deadlines_beyond_one_rotation_survive() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        let far = Duration::from_millis(SLOT_MS * SLOTS as u64 * 3 + 40);
        wheel.insert(7, t0 + far);
        let mut fired = Vec::new();
        // Sweep in coarse steps across several rotations; the entry must not
        // fire early even though its slot index is revisited.
        let mut now = t0;
        loop {
            let next = now + Duration::from_millis(SLOT_MS * 64);
            if next >= t0 + far - Duration::from_millis(SLOT_MS) {
                break;
            }
            now = next;
            wheel.advance(now, &mut fired);
            assert!(fired.is_empty(), "fired early at {:?}", now - t0);
        }
        wheel.advance(t0 + far + Duration::from_millis(SLOT_MS * 2), &mut fired);
        assert_eq!(fired, vec![7]);
    }
}
