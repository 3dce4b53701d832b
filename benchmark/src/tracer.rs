//! The benchmark's own span recorder.
//!
//! A traced run wraps each call into a product layer in a [`Span`]. Spans
//! are taken from outside the product (around public functions and around
//! the `Backend`s on either side of the wire), kept in memory, and only
//! written out when the run ends. With tracing off, [`Tracer::span`] is one
//! relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Crate the call went into.
    pub layer: &'static str,
    /// Spans of one replayed request share its trace id; 0 elsewhere.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans land in the shard of the thread that closes them, so threads do
/// not contend; the count only needs to exceed the threads a workload runs.
const SHARDS: usize = 32;

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_shard: AtomicUsize,
    shards: [Mutex<Vec<Span>>; SHARDS],
}

thread_local! {
    /// This thread's shard, assigned on first use.
    static SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closing (dropping) it records it.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    layer: &'static str,
    request: u64,
    start_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_shard: AtomicUsize::new(0),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    /// Spans are recorded only between `set_on(true)` and `set_on(false)`.
    // Relaxed: the flag publishes nothing; a span opened around the switch
    // is merely kept or not.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span, or returns `None` with tracing off.
    pub fn span(&self, layer: &'static str, name: &'static str) -> Option<SpanGuard<'_>> {
        self.request_span(layer, name, 0)
    }

    /// [`Tracer::span`] for one replayed request, keyed by its trace id.
    pub fn request_span(
        &self,
        layer: &'static str,
        name: &'static str,
        request: u64,
    ) -> Option<SpanGuard<'_>> {
        if !self.is_on() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with_borrow_mut(|open| {
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        Some(SpanGuard { tracer: self, id, parent, name, layer, request, start_ns: self.now_ns() })
    }

    /// Runs `f` inside a span (or bare, with tracing off).
    pub fn in_span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(layer, name);
        f()
    }

    /// Every span recorded so far, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = Vec::new();
        for shard in &self.shards {
            spans.append(&mut shard.lock().expect("span shard lock"));
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with_borrow_mut(|open| {
            // Guards drop innermost first, so this is the top of the stack.
            if let Some(at) = open.iter().rposition(|&id| id == self.id) {
                open.truncate(at);
            }
        });
        let shard = SHARD.get().unwrap_or_else(|| {
            let shard = self.tracer.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
            SHARD.set(Some(shard));
            shard
        });
        // Never panic in drop: a poisoned shard just loses this span.
        if let Ok(mut spans) = self.tracer.shards[shard].lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                layer: self.layer,
                request: self.request,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            let mut reach = span.start_ns;
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            for (start, end) in intervals {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let self_ns = self_times_ns(spans);
    let mut by_name = BTreeMap::new();
    for span in spans {
        *by_name.entry(span.name).or_insert(0) += self_ns[&span.id];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "s", layer: "test", request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps span 2 from 30 to 40: that stretch counts once.
            span(3, 1, 30, 60),
            // A grandchild shortens its parent, not its grandparent.
            span(4, 3, 35, 55),
            // Reaches past its parent's end: clipped to it.
            span(5, 1, 90, 120),
            span(6, 0, 200, 230),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[&1], 100 - (30 + 20 + 10));
        assert_eq!(self_ns[&2], 30);
        assert_eq!(self_ns[&3], 30 - 20);
        assert_eq!(self_ns[&4], 20);
        assert_eq!(self_ns[&5], 30);
        assert_eq!(self_ns[&6], 30);
    }

    #[test]
    fn nesting_sets_parents_and_off_records_nothing() {
        let tracer = Tracer::new();
        assert!(tracer.span("l", "ignored").is_none());
        tracer.set_on(true);
        {
            let _outer = tracer.span("l", "outer");
            tracer.in_span("l", "inner", || {
                let _leaf = tracer.request_span("l", "leaf", 9);
            });
            let _sibling = tracer.span("l", "sibling");
        }
        std::thread::scope(|scope| {
            scope.spawn(|| tracer.in_span("l", "other-thread", || ()));
        });
        tracer.set_on(false);
        let spans = tracer.take();
        let by_name = |name: &str| spans.iter().find(|s| s.name == name).expect(name);
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("leaf").parent, by_name("inner").id);
        assert_eq!(by_name("leaf").request, 9);
        assert_eq!(by_name("sibling").parent, outer.id);
        assert_eq!(by_name("other-thread").parent, 0);
        assert_eq!(spans.len(), 5);
        let total: u64 = self_times_ns(&spans).values().sum();
        assert_eq!(total, outer.duration_ns() + by_name("other-thread").duration_ns());
        assert!(tracer.take().is_empty());
    }
}
