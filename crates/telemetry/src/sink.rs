//! Pluggable event sinks.
//!
//! The replayer and simulator emit [`TelemetryEvent`]s through a
//! `&dyn EventSink`, so the observability cost is chosen by the caller:
//! [`NullSink`] for none, [`RingSink`] for bounded in-memory capture
//! (tests, live inspection), [`JsonlSink`] for a line-delimited JSON log on
//! disk. Sinks must be `Sync` — workers emit concurrently.
//!
//! [`JsonlSink`] writes the bytes of [`TelemetryEvent::write_jsonl`]. A
//! per-request line (`invocation`, `server_span`) is encoded straight into
//! the emitting thread's own block, one of eight buffers each under its own
//! mutex, so a logged request pays one uncontended lock and one encode; a
//! block that reaches 64 KiB goes to the writer whole. A run-level event
//! (`run_start`, `run_end`, `reassign`), `flush` and `Drop` first hand every
//! block to the writer and then write. So one thread's lines keep their
//! emit order, different threads' lines interleave a block at a time, and a
//! `run_start` emitted before the workers start and a `run_end` emitted after
//! they stop bracket the log. Every reader of the log is order-insensitive
//! (`merge_event_logs` sorts, `RunReport::from_events` tallies). A `SIGKILL`
//! loses at most one unwritten block per thread that emitted since the last
//! run-level event or flush. An autoflush sink (`serve --trace-out`) keeps
//! no blocks: each line is one write to its file, durable before `flush`.
//! The serde derive on [`TelemetryEvent`] pins the line format, so the log
//! reads back with `serde_json` and `parse_jsonl`.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::lock;
use crate::span::{TelemetryEvent, LINE_MAX};

/// A destination for telemetry events. `emit` is called from replay worker
/// threads on the hot path; implementations should be cheap and must never
/// panic (a broken sink must not kill a run).
pub trait EventSink: Send + Sync {
    fn emit(&self, event: &TelemetryEvent);

    /// Whether this sink observes events at all. Hot loops may skip
    /// constructing per-invocation events entirely when this is false —
    /// the only implementation that returns false is [`NullSink`].
    fn enabled(&self) -> bool {
        true
    }

    /// Flush any buffered state. Called once at the end of a run.
    fn flush(&self) {}
}

/// Discards every event. The zero-overhead default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &TelemetryEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Bounded in-memory buffer keeping the most recent events; older events
/// are evicted (and counted) once capacity is reached.
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<TelemetryEvent>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// `cap` must be non-zero.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "RingSink capacity must be non-zero");
        RingSink { cap, buf: Mutex::new(VecDeque::with_capacity(cap)), dropped: AtomicU64::new(0) }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        lock(&self.buf).iter().cloned().collect()
    }

    /// Events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    pub fn is_empty(&self) -> bool {
        lock(&self.buf).is_empty()
    }
}

impl EventSink for RingSink {
    fn emit(&self, event: &TelemetryEvent) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event.clone());
    }
}

/// How many blocks a [`JsonlSink`] keeps. A thread appends to block
/// `thread index % SHARDS`: threads that share one contend for its lock,
/// and their lines stay whole.
const SHARDS: usize = 8;

/// A block that reaches this many bytes goes to the writer, so the log
/// reaches its writer in writes of about this size.
const BLOCK_BYTES: usize = 64 * 1024;

/// This thread's block index, assigned round-robin the first time a thread
/// emits into any sink.
fn shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS);
    SHARD.with(|&shard| shard)
}

/// JSON-lines writer: one event per line, per-request lines gathered in
/// per-thread blocks (see the module doc). Write errors are counted, not
/// propagated — a full disk degrades the log, never the run.
pub struct JsonlSink<W: Write + Send> {
    blocks: [Block; SHARDS],
    inner: Mutex<Log<W>>,
    write_errors: AtomicU64,
    autoflush: bool,
}

/// One shard's unwritten lines, on a cache line of its own so two threads'
/// appends never share one.
#[repr(align(128))]
#[derive(Default)]
struct Block(Mutex<Lines>);

/// Lines waiting in a block: `buf[..len]`. Once used, `buf` reaches at
/// least [`LINE_MAX`] bytes past `len`, so a line is encoded straight into
/// it, with no buffer of its own to clear or copy.
#[derive(Default)]
struct Lines {
    buf: Vec<u8>,
    len: usize,
}

impl Lines {
    /// Append `event`'s line; false if it failed to encode.
    fn push(&mut self, event: &TelemetryEvent) -> bool {
        if self.buf.is_empty() {
            self.buf = vec![0; BLOCK_BYTES + LINE_MAX];
        }
        let room = (&mut self.buf[self.len..self.len + LINE_MAX]).try_into();
        if let Some(len) = event.encode_line(room.expect("a block keeps a line's room")) {
            self.len += len;
            return true;
        }
        // A line only the derive writes (an invocation carrying an error)
        // has no bound on its length: append it, then restore the room.
        self.buf.truncate(self.len);
        let ok = event.write_jsonl(&mut self.buf).is_ok();
        self.len = self.buf.len();
        self.buf.resize((self.len + LINE_MAX).max(BLOCK_BYTES + LINE_MAX), 0);
        ok
    }
}

/// The writer, and the buffer a run-level (or autoflushed) line is encoded
/// into, reused across events.
struct Log<W: Write> {
    line: Vec<u8>,
    out: W,
}

impl JsonlSink<File> {
    /// Create (truncating) an event log at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink<File>> {
        Ok(JsonlSink::new(File::create(path)?))
    }

    /// Create (truncating) an autoflushing event log at `path`. Use for
    /// long-lived server processes that may be killed rather than shut
    /// down: every line reaches the OS immediately, so the log survives
    /// `SIGKILL` at the cost of one `write(2)` per event.
    pub fn create_autoflush<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink<File>> {
        let mut sink = JsonlSink::new(File::create(path)?);
        sink.autoflush = true;
        Ok(sink)
    }
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(writer: W) -> Self {
        JsonlSink {
            blocks: Default::default(),
            inner: Mutex::new(Log { line: Vec::new(), out: writer }),
            write_errors: AtomicU64::new(0),
            autoflush: false,
        }
    }

    /// Serialization/IO failures swallowed so far: one per line that failed
    /// to encode or to write on its own, one per block that failed to write.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn failed(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Hand `block` to the writer whole and empty it; its lines are lost if
    /// the write fails.
    fn write_block(&self, block: &mut Lines) {
        if lock(&self.inner).out.write_all(&block.buf[..block.len]).is_err() {
            self.failed();
        }
        block.len = 0;
    }

    /// Hand every non-empty block to the writer, in shard order.
    fn drain(&self) {
        for block in &self.blocks {
            let mut block = lock(&block.0);
            if block.len > 0 {
                self.write_block(&mut block);
            }
        }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, event: &TelemetryEvent) {
        if !self.autoflush {
            if matches!(event, TelemetryEvent::Invocation(_) | TelemetryEvent::ServerSpan(_)) {
                let mut block = lock(&self.blocks[shard()].0);
                if !block.push(event) {
                    self.failed();
                }
                if block.len >= BLOCK_BYTES {
                    self.write_block(&mut block);
                }
                return;
            }
            self.drain();
        }
        let mut log = lock(&self.inner);
        let Log { line, out } = &mut *log;
        line.clear();
        let ok = event.write_jsonl(line).is_ok()
            && out.write_all(line).is_ok()
            && (!self.autoflush || out.flush().is_ok());
        if !ok {
            self.failed();
        }
    }

    fn flush(&self) {
        self.drain();
        if lock(&self.inner).out.flush().is_err() {
            self.failed();
        }
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{OutcomeClass, RunSummary};

    fn end(issued: u64) -> TelemetryEvent {
        TelemetryEvent::RunEnd(RunSummary {
            issued,
            completed: issued,
            errors: 0,
            aborted: false,
            wall_us: 1,
        })
    }

    #[test]
    fn ring_sink_keeps_most_recent_and_counts_evictions() {
        let sink = RingSink::with_capacity(3);
        assert!(sink.is_empty());
        for i in 0..5 {
            sink.emit(&end(i));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let kept: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e {
                TelemetryEvent::RunEnd(s) => s.issued,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, [2, 3, 4]);
    }

    #[test]
    fn jsonl_sink_writes_one_event_per_line() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&end(1));
        sink.emit(&end(2));
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
        let text = String::from_utf8(written(&sink)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let e: TelemetryEvent = serde_json::from_str(line).unwrap();
            assert!(matches!(e, TelemetryEvent::RunEnd(_)));
        }
    }

    /// The bytes a `JsonlSink<Vec<u8>>` has written, after a flush.
    fn written(sink: &JsonlSink<Vec<u8>>) -> Vec<u8> {
        // `JsonlSink` implements `Drop`, so the writer can't be moved out;
        // swap it for an empty one instead.
        sink.flush();
        std::mem::take(&mut lock(&sink.inner).out)
    }

    #[test]
    fn concurrent_emits_write_whole_lines_each_once() {
        const THREADS: u64 = 4;
        const EMITS: u64 = 10_000;
        let sink = JsonlSink::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let sink = &sink;
                scope.spawn(move || {
                    for i in 0..EMITS {
                        let seq = t * EMITS + i;
                        // Every fourth line carries an error, so the derive
                        // writes it, and one in a hundred a 32 KiB one.
                        let error = match seq % 100 {
                            0 => Some("x".repeat(32 * 1024)),
                            s if s % 4 == 0 => Some(format!("thread {t} \"{i}\"")),
                            _ => None,
                        };
                        sink.emit(&TelemetryEvent::Invocation(crate::span::InvocationSpan {
                            trace_id: seq + 1,
                            seq,
                            workload: t,
                            function_index: i as u32,
                            scheduled_ms: i,
                            target_us: i,
                            dispatched_us: i + 1,
                            picked_up_us: i + 2,
                            completed_us: i + 3,
                            service_ms: seq as f64 / 8.0,
                            outcome: if error.is_some() {
                                OutcomeClass::AppError
                            } else {
                                OutcomeClass::Ok
                            },
                            cold_start: seq.is_multiple_of(3),
                            error,
                        }));
                    }
                });
            }
        });
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
        let log = written(&sink);
        assert_eq!(log.iter().filter(|&&b| b == b'\n').count() as u64, THREADS * EMITS);
        let events = crate::report::parse_jsonl(&log[..]).unwrap();
        assert_eq!(events.len() as u64, THREADS * EMITS);
        let mut seen = vec![false; events.len()];
        for event in &events {
            let TelemetryEvent::Invocation(span) = event else { panic!("{event:?}") };
            assert!(!std::mem::replace(&mut seen[span.seq as usize], true), "seq {}", span.seq);
            assert_eq!(span.trace_id, span.seq + 1);
        }
    }

    #[test]
    fn jsonl_sink_counts_write_errors_instead_of_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }
        let sink = JsonlSink::new(Broken);
        // A run-level line is written at once; flush fails on its own.
        sink.emit(&end(1));
        sink.flush();
        assert!(sink.write_errors() >= 1);

        // A per-request line waits in its block: a full block counts one
        // failed write, not one per line, and so does a drained block.
        let before = sink.write_errors();
        let mut emitted = 0;
        while sink.write_errors() == before {
            sink.emit(&invocation(0, emitted));
            emitted += 1;
            assert!(emitted < 10_000, "a full block never reached the writer");
        }
        assert!(emitted as usize > BLOCK_BYTES / LINE_MAX, "{emitted} lines");
        assert_eq!(sink.write_errors(), before + 1);
        sink.emit(&invocation(0, emitted));
        assert_eq!(sink.write_errors(), before + 1, "the next line starts a new block");
        sink.flush();
        assert_eq!(sink.write_errors(), before + 3, "the drain's write and the flush failed");
    }

    #[test]
    fn autoflush_sink_lines_are_durable_before_flush_or_drop() {
        let path = std::env::temp_dir().join(format!(
            "faasrail-autoflush-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonlSink::create_autoflush(&path).unwrap();
        sink.emit(&end(1));
        sink.emit(&end(2));
        // No flush(), and the sink is still alive: the lines must already
        // be on disk (this is what keeps server logs parseable after
        // SIGKILL, where Drop never runs).
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text:?}");
        for line in lines {
            let _: TelemetryEvent = serde_json::from_str(line).unwrap();
        }
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }

    /// An error-free invocation line from thread `thread`.
    fn invocation(thread: u64, seq: u64) -> TelemetryEvent {
        TelemetryEvent::Invocation(crate::span::InvocationSpan {
            trace_id: seq + 1,
            seq,
            workload: thread,
            function_index: 0,
            scheduled_ms: seq,
            target_us: seq,
            dispatched_us: seq,
            picked_up_us: seq,
            completed_us: seq,
            service_ms: 0.0,
            outcome: OutcomeClass::Ok,
            cold_start: false,
            error: None,
        })
    }

    /// Twice as many threads as blocks emit at once while another thread
    /// emits run-level events, which drain every block mid-run: each line
    /// is whole and written once, each thread's lines keep its emit order,
    /// and `run_start` and `run_end` bracket the log.
    #[test]
    fn block_sink_keeps_each_threads_order_and_brackets_the_run() {
        const THREADS: u64 = 2 * SHARDS as u64;
        const EMITS: u64 = 3_000;
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&TelemetryEvent::RunStart(crate::span::RunInfo {
            requests: THREADS * EMITS,
            duration_minutes: 1,
            workers: THREADS,
            pacing: "unpaced".to_owned(),
            compression: 1.0,
        }));
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut reassigns = 0u64;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let sink = &sink;
                    scope.spawn(move || {
                        for i in 0..EMITS {
                            sink.emit(&invocation(t, t * EMITS + i));
                        }
                    })
                })
                .collect();
            let (sink, done) = (&sink, &done);
            let reassigner = scope.spawn(move || {
                let mut n = 0;
                while !done.load(Ordering::Relaxed) || n == 0 {
                    sink.emit(&TelemetryEvent::Reassign(crate::span::ReassignSpan {
                        at_us: n,
                        from_shard: 0,
                        to_shard: 1,
                        work: n + 1,
                        requests: 0,
                        reason: "crash".to_owned(),
                    }));
                    n += 1;
                    std::thread::yield_now();
                }
                n
            });
            for worker in workers {
                worker.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            reassigns = reassigner.join().unwrap();
        });
        sink.emit(&end(THREADS * EMITS));
        let log = written(&sink);
        assert_eq!(sink.write_errors(), 0);
        let events = crate::report::parse_jsonl(&log[..]).unwrap();
        assert_eq!(events.len() as u64, THREADS * EMITS + reassigns + 2);
        assert!(matches!(events.first(), Some(TelemetryEvent::RunStart(_))));
        assert!(matches!(events.last(), Some(TelemetryEvent::RunEnd(_))));
        let mut next = vec![0u64; THREADS as usize];
        for event in &events[1..events.len() - 1] {
            match event {
                TelemetryEvent::Invocation(span) => {
                    let t = span.workload as usize;
                    assert_eq!(
                        span.seq,
                        span.workload * EMITS + next[t],
                        "thread {t} out of order"
                    );
                    next[t] += 1;
                }
                TelemetryEvent::Reassign(_) => {}
                other => panic!("{other:?} inside the run"),
            }
        }
        assert!(next.iter().all(|&n| n == EMITS), "{next:?}");
    }

    #[test]
    fn lines_of_an_exited_thread_are_written_on_flush_and_on_drop() {
        let sink = JsonlSink::new(Vec::new());
        std::thread::scope(|scope| {
            scope.spawn(|| (0..10).for_each(|i| sink.emit(&invocation(1, i))));
        });
        assert_eq!(crate::report::parse_jsonl(&written(&sink)[..]).unwrap().len(), 10);

        let path = std::env::temp_dir().join(format!(
            "faasrail-exited-thread-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| (0..10).for_each(|i| sink.emit(&invocation(2, i))));
        });
        assert_eq!(std::fs::read(&path).unwrap(), b"", "the block waits for flush or drop");
        drop(sink);
        let text = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let events = crate::report::parse_jsonl(&text[..]).unwrap();
        assert_eq!(events, (0..10).map(|i| invocation(2, i)).collect::<Vec<_>>());
    }

    #[test]
    fn null_sink_is_sync_and_silent() {
        fn assert_sink<S: EventSink>(_s: &S) {}
        let s = NullSink;
        assert_sink(&s);
        s.emit(&TelemetryEvent::Invocation(crate::span::InvocationSpan {
            trace_id: 0,
            seq: 0,
            workload: 0,
            function_index: 0,
            scheduled_ms: 0,
            target_us: 0,
            dispatched_us: 0,
            picked_up_us: 0,
            completed_us: 0,
            service_ms: 0.0,
            outcome: OutcomeClass::Ok,
            cold_start: false,
            error: None,
        }));
        s.flush();
    }
}
