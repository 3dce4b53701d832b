//! Pluggable event sinks.
//!
//! The replayer and simulator emit [`TelemetryEvent`]s through a
//! `&dyn EventSink`, so the observability cost is chosen by the caller:
//! [`NullSink`] for none, [`RingSink`] for bounded in-memory capture
//! (tests, live inspection), [`JsonlSink`] for a buffered line-delimited
//! JSON log on disk. Sinks must be `Sync` — workers emit concurrently.
//!
//! [`JsonlSink`] takes its lock, encodes the line with
//! [`TelemetryEvent::write_jsonl`] into the sink's reused line buffer, and
//! appends it to a 64 KiB `BufWriter`. The serde derive on
//! [`TelemetryEvent`] pins the line format, so the log reads back with
//! `serde_json` and `parse_jsonl`.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock;
use crate::span::TelemetryEvent;

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

/// The capacity of [`JsonlSink`]'s `BufWriter`: without autoflush, the log
/// reaches its writer in writes of this size.
const JSONL_BUFFER_BYTES: usize = 64 * 1024;

/// Buffered JSON-lines writer: one event per line, flushed on demand and on
/// drop. Write errors are counted, not propagated — a full disk degrades
/// the log, never the run. Lines appear in the order their emitters took
/// the lock.
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<Log<W>>,
    write_errors: AtomicU64,
    autoflush: bool,
}

/// The line being encoded, reused across events, and where it goes.
struct Log<W: Write> {
    line: Vec<u8>,
    out: BufWriter<W>,
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
            inner: Mutex::new(Log {
                line: Vec::new(),
                out: BufWriter::with_capacity(JSONL_BUFFER_BYTES, writer),
            }),
            write_errors: AtomicU64::new(0),
            autoflush: false,
        }
    }

    /// Serialization/IO failures swallowed so far.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, event: &TelemetryEvent) {
        let mut log = lock(&self.inner);
        let Log { line, out } = &mut *log;
        line.clear();
        let ok = event.write_jsonl(line).is_ok()
            && out.write_all(line).is_ok()
            && (!self.autoflush || out.flush().is_ok());
        if !ok {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        if lock(&self.inner).out.flush().is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = lock(&self.inner).out.flush();
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
        let writer = std::mem::replace(&mut lock(&sink.inner).out, BufWriter::new(Vec::new()));
        writer.into_inner().unwrap()
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
        // BufWriter buffers the first small write; force IO with flush.
        sink.emit(&end(1));
        sink.flush();
        assert!(sink.write_errors() >= 1);
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
