//! Post-hoc run reports from JSONL event logs.
//!
//! [`RunReport::from_events`] folds a telemetry event stream back into the
//! quantities the paper's fidelity argument rests on: the outcome
//! partition (completed + per-class errors must equal issued), a latency
//! decomposition separating pacer lateness, queue wait, backend service
//! time, and client/network overhead, and the per-minute offered vs
//! achieved series. Reports render as JSON (machine) or Markdown (human);
//! both are NaN-free so they survive `serde_json` round-trips.

use std::io::BufRead;

use serde::{Deserialize, Serialize};

use faasrail_stats::LogHistogram;

use crate::join::{join_spans, SpanJoin};
use crate::span::{InvocationSpan, OutcomeClass, RunInfo, RunSummary, TelemetryEvent};

/// Histogram plus exact sum, so reports can show a true mean alongside
/// approximate quantiles.
struct StatAcc {
    hist: LogHistogram,
    sum_s: f64,
}

impl StatAcc {
    fn new(hist: LogHistogram) -> Self {
        StatAcc { hist, sum_s: 0.0 }
    }

    fn latency() -> Self {
        Self::new(LogHistogram::latency_seconds())
    }

    fn lateness() -> Self {
        Self::new(LogHistogram::lateness_seconds())
    }

    fn record(&mut self, x_s: f64) {
        self.hist.record(x_s);
        self.sum_s += x_s;
    }

    fn stat(&self) -> LatencyStat {
        let count = self.hist.total();
        if count == 0 {
            return LatencyStat::default();
        }
        LatencyStat {
            count,
            mean_ms: self.sum_s / count as f64 * 1e3,
            p50_ms: self.hist.quantile(0.50) * 1e3,
            p95_ms: self.hist.quantile(0.95) * 1e3,
            p99_ms: self.hist.quantile(0.99) * 1e3,
            p999_ms: self.hist.quantile(0.999) * 1e3,
            max_ms: self.hist.max() * 1e3,
        }
    }
}

/// Summary statistics for one latency component, in milliseconds. All
/// fields are `0.0` when `count == 0` (never NaN, so JSON stays lossless).
/// The field order is the `stages` schema of the committed `BENCH_*.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStat {
    pub count: u64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Absent from reports written before it existed.
    #[serde(default)]
    pub p999_ms: f64,
    pub max_ms: f64,
}

/// Where the time went: per-stage latency statistics. `lateness`,
/// `queue_wait`, and `response` cover every span; `service` and `overhead`
/// only successful ones, since failed invocations report no meaningful
/// service time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyDecomposition {
    /// Pacer lateness: actual minus scheduled dispatch.
    pub lateness: LatencyStat,
    /// Dispatch → worker pickup.
    pub queue_wait: LatencyStat,
    /// Backend-reported pure execution time (successful spans).
    pub service: LatencyStat,
    /// Pickup → completion time beyond service (successful spans).
    pub overhead: LatencyStat,
    /// Dispatch → completion.
    pub response: LatencyStat,
}

/// Cross-tier latency decomposition built from joined client+server
/// spans: where the time went *across the wire*, not just inside the
/// client. `lateness`, `client_queue`, and `response` come from the
/// client clock; `gateway` and `service` from the server clock; `net_out`
/// and `net_back` bridge the two using the estimated offset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CrossTierDecomposition {
    /// Pacer lateness: actual minus scheduled dispatch.
    pub lateness: LatencyStat,
    /// Dispatch → client worker pickup.
    pub client_queue: LatencyStat,
    /// Client worker pickup → gateway accept (outbound network + connect).
    pub net_out: LatencyStat,
    /// Gateway accept → handler start (connection queue + head read).
    pub gateway: LatencyStat,
    /// Handler start → handler end (backend execution).
    pub service: LatencyStat,
    /// Handler end → client completion (flush + return network path).
    pub net_back: LatencyStat,
    /// Client-observed end-to-end response of joined spans.
    pub response: LatencyStat,
}

/// Summary of a client↔server span join, embedded in [`RunReport`] when a
/// server log is supplied.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CrossTierReport {
    /// Client spans matched to a server span by trace id.
    pub joined: u64,
    /// Client spans with no server counterpart, total and by class.
    /// Sheds and never-connected transport errors are *expected* here:
    /// the gateway rejects shed connections before reading the request.
    pub orphaned: u64,
    pub orphaned_ok: u64,
    pub orphaned_app_errors: u64,
    pub orphaned_timeouts: u64,
    pub orphaned_transport: u64,
    pub orphaned_shed: u64,
    /// Server spans matched by no client span.
    pub server_unmatched: u64,
    /// Extra server attempts beyond one per joined trace (client retries).
    pub extra_attempts: u64,
    /// Estimated server−client clock offset, microseconds.
    pub clock_offset_us: f64,
    /// Error bound on the offset (median half-RTT), microseconds.
    pub clock_offset_error_us: f64,
    /// Exchanges the offset was estimated from.
    pub clock_offset_pairs: u64,
    pub decomposition: CrossTierDecomposition,
}

impl CrossTierReport {
    /// Fold a span join into report statistics.
    pub fn from_join(join: &SpanJoin) -> CrossTierReport {
        let mut lateness = StatAcc::lateness();
        let mut client_queue = StatAcc::latency();
        let mut net_out = StatAcc::latency();
        let mut gateway = StatAcc::latency();
        let mut service = StatAcc::latency();
        let mut net_back = StatAcc::latency();
        let mut response = StatAcc::latency();
        for j in &join.joined {
            lateness.record(j.stages.lateness_s);
            client_queue.record(j.stages.client_queue_s);
            net_out.record(j.stages.net_out_s);
            gateway.record(j.stages.gateway_s);
            service.record(j.stages.service_s);
            net_back.record(j.stages.net_back_s);
            response.record(j.stages.response_s);
        }
        let [ok, app, timeout, transport, shed] = join.orphans_by_class;
        CrossTierReport {
            joined: join.joined.len() as u64,
            orphaned: join.orphaned(),
            orphaned_ok: ok,
            orphaned_app_errors: app,
            orphaned_timeouts: timeout,
            orphaned_transport: transport,
            orphaned_shed: shed,
            server_unmatched: join.server_unmatched,
            extra_attempts: join.extra_attempts,
            clock_offset_us: join.offset.offset_us,
            clock_offset_error_us: join.offset.error_us,
            clock_offset_pairs: join.offset.pairs,
            decomposition: CrossTierDecomposition {
                lateness: lateness.stat(),
                client_queue: client_queue.stat(),
                net_out: net_out.stat(),
                gateway: gateway.stat(),
                service: service.stat(),
                net_back: net_back.stat(),
                response: response.stat(),
            },
        }
    }
}

/// A full run report reconstructed from a telemetry event stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Run configuration, if the log carried a `run_start` event.
    pub run: Option<RunInfo>,
    /// Final totals, if the log carried a `run_end` event.
    pub end: Option<RunSummary>,
    /// Invocation spans seen (the log's own count of issued requests).
    pub issued: u64,
    pub completed: u64,
    pub errors: u64,
    pub app_errors: u64,
    pub timeouts: u64,
    pub transport_errors: u64,
    pub shed: u64,
    pub cold_starts: u64,
    pub decomposition: LatencyDecomposition,
    /// Cross-tier join summary, present when a server trace log was
    /// merged in (`RunReport::with_server_events`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cross_tier: Option<CrossTierReport>,
    /// Spans per scheduled experiment minute (offered load).
    pub issued_per_minute: Vec<u64>,
    /// Successful spans per scheduled minute (achieved load).
    pub completed_per_minute: Vec<u64>,
    /// Failed spans per scheduled minute.
    pub errors_per_minute: Vec<u64>,
    /// Fleet reassignment grants seen in the event stream (0 for
    /// single-process runs).
    #[serde(default)]
    pub reassignments: u64,
    /// Build provenance of the binary that folded this report (git sha,
    /// crate version, compiler). `None` only for reports deserialized
    /// from logs predating the field.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub build: Option<crate::build::BuildInfo>,
}

/// Count one request scheduled `at_ms` into the experiment against its
/// minute, `at_ms / 60 000`, growing `series` to reach it: the one
/// definition of a request's minute, for every per-minute series.
pub fn tally_minute(series: &mut Vec<u64>, at_ms: u64) {
    let minute = (at_ms / 60_000) as usize;
    if series.len() <= minute {
        series.resize(minute + 1, 0);
    }
    series[minute] += 1;
}

impl RunReport {
    /// Fold an event stream into a report. Order-insensitive apart from
    /// `run_start`/`run_end`, where the last one seen wins.
    pub fn from_events<'a, I>(events: I) -> RunReport
    where
        I: IntoIterator<Item = &'a TelemetryEvent>,
    {
        let mut report =
            RunReport { build: Some(crate::build::BuildInfo::current()), ..RunReport::default() };
        let mut lateness = StatAcc::lateness();
        let mut queue_wait = StatAcc::latency();
        let mut service = StatAcc::latency();
        let mut overhead = StatAcc::latency();
        let mut response = StatAcc::latency();

        for event in events {
            match event {
                TelemetryEvent::RunStart(info) => report.run = Some(info.clone()),
                TelemetryEvent::RunEnd(summary) => report.end = Some(*summary),
                TelemetryEvent::Invocation(span) => {
                    report.tally(span);
                    lateness.record(span.lateness_s());
                    queue_wait.record(span.queue_wait_s());
                    response.record(span.response_s());
                    if span.outcome == OutcomeClass::Ok {
                        service.record(span.service_s());
                        overhead.record(span.overhead_s());
                    }
                }
                // Server spans live in server trace logs; the client-side
                // report ignores them (see `with_server_events` for the
                // cross-tier join).
                TelemetryEvent::ServerSpan(_) => {}
                TelemetryEvent::Reassign(_) => report.reassignments += 1,
            }
        }

        report.decomposition = LatencyDecomposition {
            lateness: lateness.stat(),
            queue_wait: queue_wait.stat(),
            service: service.stat(),
            overhead: overhead.stat(),
            response: response.stat(),
        };
        report
    }

    /// Build a report from a client event stream merged with a server
    /// trace log: the client-only report plus the cross-tier join. Also
    /// returns the join itself so callers can inspect individual traces
    /// (`--slowest`).
    pub fn with_server_events(
        client_events: &[TelemetryEvent],
        server_events: &[TelemetryEvent],
    ) -> (RunReport, SpanJoin) {
        let mut report = RunReport::from_events(client_events.iter());
        let join = join_spans(client_events, server_events);
        report.cross_tier = Some(CrossTierReport::from_join(&join));
        (report, join)
    }

    fn tally(&mut self, span: &InvocationSpan) {
        self.issued += 1;
        if span.cold_start {
            self.cold_starts += 1;
        }
        tally_minute(&mut self.issued_per_minute, span.scheduled_ms);
        match span.outcome {
            OutcomeClass::Ok => {
                self.completed += 1;
                tally_minute(&mut self.completed_per_minute, span.scheduled_ms);
                return;
            }
            OutcomeClass::AppError => self.app_errors += 1,
            OutcomeClass::Timeout => self.timeouts += 1,
            OutcomeClass::Transport => self.transport_errors += 1,
            OutcomeClass::Shed => self.shed += 1,
        }
        self.errors += 1;
        tally_minute(&mut self.errors_per_minute, span.scheduled_ms);
    }

    /// Render as a Markdown document.
    pub fn to_markdown(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# FaaSRail run report\n\n");

        if let Some(run) = &self.run {
            out.push_str("## Run\n\n");
            out.push_str(&format!(
                "- requests scheduled: {}\n- duration: {} min\n- workers: {}\n- pacing: {} (compression {}x)\n\n",
                run.requests, run.duration_minutes, run.workers, run.pacing, run.compression,
            ));
        }

        out.push_str("## Outcomes\n\n");
        out.push_str("| outcome | count | share |\n|---|---:|---:|\n");
        let share = |n: u64| {
            if self.issued == 0 {
                "-".to_string()
            } else {
                format!("{:.2}%", n as f64 / self.issued as f64 * 100.0)
            }
        };
        for (label, n) in [
            ("issued", self.issued),
            ("completed", self.completed),
            ("app errors", self.app_errors),
            ("timeouts", self.timeouts),
            ("transport errors", self.transport_errors),
            ("shed", self.shed),
            ("cold starts", self.cold_starts),
        ] {
            out.push_str(&format!("| {label} | {n} | {} |\n", share(n)));
        }
        out.push('\n');

        out.push_str("## Latency decomposition\n\n");
        out.push_str("| stage | count | mean | p50 | p95 | p99 | max |\n|---|---:|---:|---:|---:|---:|---:|\n");
        for (label, s) in [
            ("pacer lateness", self.decomposition.lateness),
            ("queue wait", self.decomposition.queue_wait),
            ("service", self.decomposition.service),
            ("network overhead", self.decomposition.overhead),
            ("response", self.decomposition.response),
        ] {
            out.push_str(&format!(
                "| {label} | {} | {:.2} ms | {:.2} ms | {:.2} ms | {:.2} ms | {:.2} ms |\n",
                s.count, s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms,
            ));
        }
        out.push('\n');

        if let Some(ct) = &self.cross_tier {
            out.push_str("## Cross-tier trace join\n\n");
            out.push_str(&format!(
                "- joined: {} · orphaned: {} (ok {}, app {}, timeout {}, transport {}, shed {}) · server-unmatched: {} · retry attempts: {}\n",
                ct.joined,
                ct.orphaned,
                ct.orphaned_ok,
                ct.orphaned_app_errors,
                ct.orphaned_timeouts,
                ct.orphaned_transport,
                ct.orphaned_shed,
                ct.server_unmatched,
                ct.extra_attempts,
            ));
            out.push_str(&format!(
                "- clock offset (server−client): {:.1} µs ± {:.1} µs over {} exchanges\n\n",
                ct.clock_offset_us, ct.clock_offset_error_us, ct.clock_offset_pairs,
            ));
            out.push_str("| stage | count | mean | p50 | p95 | p99 | max |\n|---|---:|---:|---:|---:|---:|---:|\n");
            for (label, s) in [
                ("pacer lateness", ct.decomposition.lateness),
                ("client queue", ct.decomposition.client_queue),
                ("network out", ct.decomposition.net_out),
                ("gateway queue", ct.decomposition.gateway),
                ("service", ct.decomposition.service),
                ("network back", ct.decomposition.net_back),
                ("response", ct.decomposition.response),
            ] {
                out.push_str(&format!(
                    "| {label} | {} | {:.2} ms | {:.2} ms | {:.2} ms | {:.2} ms | {:.2} ms |\n",
                    s.count, s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms,
                ));
            }
            out.push('\n');
        }

        out.push_str("## Per-minute offered vs achieved\n\n");
        out.push_str("| minute | offered | achieved | errors |\n|---:|---:|---:|---:|\n");
        let minutes = self
            .issued_per_minute
            .len()
            .max(self.completed_per_minute.len())
            .max(self.errors_per_minute.len());
        for m in 0..minutes {
            let get = |v: &Vec<u64>| v.get(m).copied().unwrap_or(0);
            out.push_str(&format!(
                "| {m} | {} | {} | {} |\n",
                get(&self.issued_per_minute),
                get(&self.completed_per_minute),
                get(&self.errors_per_minute),
            ));
        }

        if let Some(end) = &self.end {
            out.push_str(&format!(
                "\n## Totals (from run_end)\n\n- issued: {}\n- completed: {}\n- errors: {}\n- aborted: {}\n- wall time: {:.2} s\n",
                end.issued,
                end.completed,
                end.errors,
                end.aborted,
                end.wall_us as f64 / 1e6,
            ));
        }
        out
    }
}

/// Merge several event logs (one per fleet agent, or repeated `--events`
/// files) into a single coherent stream for [`RunReport::from_events`]:
///
/// * the `run_start` headers combine (requests and workers sum, duration
///   is the max, pacing/compression from the first log that has one);
/// * invocation spans are **deduplicated by trace id** — the first
///   occurrence wins; spans with `trace_id == 0` (untraced) are never
///   deduplicated — then **ordered by timestamp** (dispatch instant, with
///   trace id and sequence as tie-breakers), so overlapping or partially
///   overlapping agent logs fold into one schedule-ordered stream;
/// * server spans pass through, ordered by accept time;
/// * the `run_end` trailers combine (counts sum, `aborted` is sticky,
///   wall time is the max — the fleet run lasts as long as its slowest
///   agent).
///
/// Timestamps are taken as directly comparable: fleet agents start on one
/// synchronized epoch, so their run-relative clocks agree up to the skew
/// the coordinator already rebased out.
pub fn merge_event_logs<L: AsRef<[TelemetryEvent]>>(logs: &[L]) -> Vec<TelemetryEvent> {
    use std::collections::HashSet;

    let mut run: Option<RunInfo> = None;
    let mut end: Option<RunSummary> = None;
    let mut seen = HashSet::new();
    let mut spans: Vec<InvocationSpan> = Vec::new();
    let mut server_spans = Vec::new();
    let mut reassigns = Vec::new();
    for log in logs {
        for event in log.as_ref() {
            match event {
                TelemetryEvent::RunStart(info) => match &mut run {
                    None => run = Some(info.clone()),
                    Some(acc) => {
                        acc.requests += info.requests;
                        acc.workers += info.workers;
                        acc.duration_minutes = acc.duration_minutes.max(info.duration_minutes);
                    }
                },
                TelemetryEvent::RunEnd(summary) => match &mut end {
                    None => end = Some(*summary),
                    Some(acc) => {
                        acc.issued += summary.issued;
                        acc.completed += summary.completed;
                        acc.errors += summary.errors;
                        acc.aborted |= summary.aborted;
                        acc.wall_us = acc.wall_us.max(summary.wall_us);
                    }
                },
                TelemetryEvent::Invocation(span) => {
                    if span.trace_id == 0 || seen.insert(span.trace_id) {
                        spans.push(span.clone());
                    }
                }
                TelemetryEvent::ServerSpan(span) => server_spans.push(span.clone()),
                TelemetryEvent::Reassign(span) => reassigns.push(span.clone()),
            }
        }
    }
    spans.sort_by_key(|s| (s.dispatched_us, s.trace_id, s.seq));
    server_spans.sort_by_key(|s| (s.accepted_us, s.trace_id, s.seq));
    reassigns.sort_by_key(|r| (r.at_us, r.work, r.to_shard));

    let mut out = Vec::with_capacity(spans.len() + server_spans.len() + reassigns.len() + 2);
    out.extend(run.map(TelemetryEvent::RunStart));
    out.extend(spans.into_iter().map(TelemetryEvent::Invocation));
    out.extend(server_spans.into_iter().map(TelemetryEvent::ServerSpan));
    out.extend(reassigns.into_iter().map(TelemetryEvent::Reassign));
    out.extend(end.map(TelemetryEvent::RunEnd));
    out
}

/// The `n` slowest client spans by end-to-end response time, worst
/// first — the client-only counterpart of [`SpanJoin::slowest`] for runs
/// without a server trace log.
pub fn slowest_client_spans(events: &[TelemetryEvent], n: usize) -> Vec<&InvocationSpan> {
    let mut spans: Vec<&InvocationSpan> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Invocation(s) => Some(s),
            _ => None,
        })
        .collect();
    spans.sort_by(|a, b| {
        b.response_s().partial_cmp(&a.response_s()).unwrap_or(std::cmp::Ordering::Equal)
    });
    spans.truncate(n);
    spans
}

/// Parse a JSONL event log, skipping blank lines. Errors carry the
/// 1-based line number of the offending line.
pub fn parse_jsonl<R: BufRead>(reader: R) -> Result<Vec<TelemetryEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let event: TelemetryEvent =
            serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn span(seq: u64, minute: u64, outcome: OutcomeClass) -> TelemetryEvent {
        TelemetryEvent::Invocation(InvocationSpan {
            trace_id: crate::span::derive_trace_id(11, seq),
            seq,
            workload: 1,
            function_index: 0,
            scheduled_ms: minute * 60_000 + 10,
            target_us: 1_000,
            dispatched_us: 2_000,
            picked_up_us: 3_000,
            completed_us: 23_000,
            service_ms: 15.0,
            outcome,
            cold_start: seq == 0,
            error: (outcome != OutcomeClass::Ok).then(|| "boom".to_string()),
        })
    }

    #[test]
    fn report_partitions_outcomes_exactly() {
        let events = vec![
            span(0, 0, OutcomeClass::Ok),
            span(1, 0, OutcomeClass::Ok),
            span(2, 1, OutcomeClass::AppError),
            span(3, 1, OutcomeClass::Timeout),
            span(4, 2, OutcomeClass::Transport),
            span(5, 2, OutcomeClass::Shed),
        ];
        let r = RunReport::from_events(&events);
        assert_eq!(r.issued, 6);
        assert_eq!(r.completed, 2);
        assert_eq!(r.errors, 4);
        assert_eq!(r.completed + r.app_errors + r.timeouts + r.transport_errors + r.shed, r.issued);
        assert_eq!(r.cold_starts, 1);
        assert_eq!(r.issued_per_minute, [2, 2, 2]);
        assert_eq!(r.completed_per_minute, [2]);
        assert_eq!(r.errors_per_minute, [0, 2, 2]);
        // service/overhead only cover successful spans.
        assert_eq!(r.decomposition.service.count, 2);
        assert_eq!(r.decomposition.response.count, 6);
    }

    #[test]
    fn tally_minute_buckets_by_schedule() {
        let mut series = Vec::new();
        for at_ms in (0..90).map(|s| s * 1_000) {
            tally_minute(&mut series, at_ms); // 1/s → 60 in minute 0, 30 in minute 1
        }
        assert_eq!(series, [60, 30]);
        tally_minute(&mut series, 4 * 60_000 - 1);
        assert_eq!(series, [60, 30, 0, 1], "the series grows to the minute it counts");
    }

    #[test]
    fn empty_report_is_nan_free_json() {
        let r = RunReport::from_events(std::iter::empty());
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("null") || r.run.is_none(), "{json}");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.decomposition.response.mean_ms, 0.0);
    }

    #[test]
    fn stat_orders_tails_down_to_p999() {
        let mut acc = StatAcc::latency();
        for i in 1..=10_000 {
            acc.record(i as f64 * 1e-5);
        }
        let q = acc.stat();
        assert_eq!(q.count, 10_000);
        assert!(q.p50_ms <= q.p95_ms);
        assert!(q.p95_ms <= q.p99_ms);
        assert!(q.p99_ms <= q.p999_ms);
        assert!(q.p999_ms <= q.max_ms * 1.10, "p999 {} max {}", q.p999_ms, q.max_ms);
        assert!((q.mean_ms - 50.0).abs() < 1.0, "mean {}", q.mean_ms);
        assert!((q.max_ms - 100.0).abs() < 1e-9, "the max is exact: {}", q.max_ms);
    }

    #[test]
    fn decomposition_math_matches_span_helpers() {
        let events = vec![span(0, 0, OutcomeClass::Ok)];
        let r = RunReport::from_events(&events);
        // dispatched 2000µs vs target 1000µs → 1 ms late.
        assert!((r.decomposition.lateness.mean_ms - 1.0).abs() < 1e-9);
        // picked up 3000µs → 1 ms queue wait.
        assert!((r.decomposition.queue_wait.mean_ms - 1.0).abs() < 1e-9);
        // completed 23000µs, picked up 3000µs, service 15 ms → 5 ms overhead.
        assert!((r.decomposition.overhead.mean_ms - 5.0).abs() < 1e-9);
        // response = 21 ms.
        assert!((r.decomposition.response.mean_ms - 21.0).abs() < 1e-9);
    }

    #[test]
    fn jsonl_roundtrip_and_errors() {
        let events = vec![
            TelemetryEvent::RunStart(RunInfo {
                requests: 2,
                duration_minutes: 1,
                workers: 1,
                pacing: "unpaced".to_string(),
                compression: 1.0,
            }),
            span(0, 0, OutcomeClass::Ok),
            TelemetryEvent::RunEnd(RunSummary {
                issued: 1,
                completed: 1,
                errors: 0,
                aborted: false,
                wall_us: 42,
            }),
        ];
        let mut log = String::new();
        for e in &events {
            log.push_str(&serde_json::to_string(e).unwrap());
            log.push('\n');
        }
        log.push('\n'); // trailing blank line is fine
        let parsed = parse_jsonl(Cursor::new(log)).unwrap();
        assert_eq!(parsed, events);
        let r = RunReport::from_events(&parsed);
        assert!(r.run.is_some());
        assert_eq!(r.end.unwrap().issued, 1);

        let err = parse_jsonl(Cursor::new("{\"event\":\"run_end\"\n")).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    fn server_for(client: &TelemetryEvent) -> TelemetryEvent {
        let TelemetryEvent::Invocation(c) = client else { panic!("not a span") };
        TelemetryEvent::ServerSpan(crate::span::ServerSpan {
            trace_id: c.trace_id,
            seq: c.seq,
            worker: 0,
            accepted_us: c.picked_up_us + 100,
            dequeued_us: c.picked_up_us + 150,
            handler_start_us: c.picked_up_us + 200,
            handler_end_us: c.completed_us - 200,
            flushed_us: c.completed_us - 100,
            queue_depth: 1,
            service_ms: c.service_ms,
            outcome: c.outcome,
            fault: None,
            cold_start: false,
        })
    }

    #[test]
    fn cross_tier_report_counts_joins_and_orphans() {
        let client = vec![
            span(0, 0, OutcomeClass::Ok),
            span(1, 0, OutcomeClass::Ok),
            span(2, 0, OutcomeClass::Shed),
        ];
        // Server saw only the two non-shed spans.
        let server = vec![server_for(&client[0]), server_for(&client[1])];
        let (report, join) = RunReport::with_server_events(&client, &server);
        let ct = report.cross_tier.as_ref().unwrap();
        assert_eq!(ct.joined, 2);
        assert_eq!(ct.orphaned, 1);
        assert_eq!(ct.orphaned_shed, 1);
        assert_eq!(ct.server_unmatched, 0);
        assert_eq!(ct.decomposition.response.count, 2);
        assert_eq!(join.joined.len(), 2);
        // Report JSON roundtrips with the optional section present.
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        // And the markdown gains the join section.
        let md = report.to_markdown();
        assert!(md.contains("## Cross-tier trace join"), "{md}");
        assert!(md.contains("| gateway queue |"), "{md}");
    }

    #[test]
    fn client_only_report_omits_cross_tier_field() {
        let r = RunReport::from_events(&[span(0, 0, OutcomeClass::Ok)]);
        assert!(r.cross_tier.is_none());
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("cross_tier"), "{json}");
        assert!(!r.to_markdown().contains("Cross-tier"), "no join section without server log");
    }

    #[test]
    fn merge_event_logs_dedupes_and_orders() {
        let header = |requests| {
            TelemetryEvent::RunStart(RunInfo {
                requests,
                duration_minutes: 2,
                workers: 4,
                pacing: "unpaced".to_string(),
                compression: 1.0,
            })
        };
        let trailer = |issued, aborted, wall_us| {
            TelemetryEvent::RunEnd(RunSummary {
                issued,
                completed: issued,
                errors: 0,
                aborted,
                wall_us,
            })
        };
        // Agent logs overlap on seq 1 (retransmitted span, same trace id).
        let a = vec![
            header(2),
            span(0, 0, OutcomeClass::Ok),
            span(1, 0, OutcomeClass::Ok),
            trailer(2, false, 100),
        ];
        let b = vec![
            header(3),
            span(1, 0, OutcomeClass::Ok),
            span(2, 1, OutcomeClass::Timeout),
            trailer(2, true, 250),
        ];

        let merged = merge_event_logs(&[a.clone(), b.clone()]);
        let spans: Vec<&InvocationSpan> = merged
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Invocation(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 3, "duplicate trace id folded away");
        assert!(spans.windows(2).all(|w| w[0].dispatched_us <= w[1].dispatched_us));

        match merged.first() {
            Some(TelemetryEvent::RunStart(info)) => {
                assert_eq!(info.requests, 5);
                assert_eq!(info.workers, 8);
                assert_eq!(info.duration_minutes, 2);
            }
            other => panic!("merged log must open with run_start, got {other:?}"),
        }
        match merged.last() {
            Some(TelemetryEvent::RunEnd(end)) => {
                assert_eq!(end.issued, 4);
                assert!(end.aborted, "aborted is sticky across agents");
                assert_eq!(end.wall_us, 250, "fleet wall time is the slowest agent's");
            }
            other => panic!("merged log must close with run_end, got {other:?}"),
        }

        // Merge order cannot change the span set.
        let flipped = merge_event_logs(&[b, a]);
        let count = |events: &[TelemetryEvent]| {
            events.iter().filter(|e| matches!(e, TelemetryEvent::Invocation(_))).count()
        };
        assert_eq!(count(&merged), count(&flipped));

        // The merged stream feeds the normal report path.
        let r = RunReport::from_events(&merged);
        assert_eq!(r.issued, 3);
        assert_eq!(r.completed, 2);
        assert_eq!(r.timeouts, 1);
    }

    #[test]
    fn merge_event_logs_keeps_untraced_spans() {
        let mut s0 = span(0, 0, OutcomeClass::Ok);
        let mut s1 = span(1, 0, OutcomeClass::Ok);
        for s in [&mut s0, &mut s1] {
            if let TelemetryEvent::Invocation(inner) = s {
                inner.trace_id = 0;
            }
        }
        let merged = merge_event_logs(&[vec![s0], vec![s1]]);
        assert_eq!(merged.len(), 2, "zero trace ids never dedupe");
    }

    #[test]
    fn slowest_client_spans_orders_worst_first() {
        let mut events = vec![
            span(0, 0, OutcomeClass::Ok),
            span(1, 0, OutcomeClass::Ok),
            span(2, 0, OutcomeClass::Ok),
        ];
        if let TelemetryEvent::Invocation(s) = &mut events[1] {
            s.completed_us += 1_000_000;
        }
        let worst = slowest_client_spans(&events, 2);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].seq, 1);
        assert!(worst[0].response_s() >= worst[1].response_s());
    }

    #[test]
    fn markdown_has_all_sections() {
        let events = vec![span(0, 0, OutcomeClass::Ok), span(1, 1, OutcomeClass::Timeout)];
        let md = RunReport::from_events(&events).to_markdown();
        assert!(md.contains("## Outcomes"), "{md}");
        assert!(md.contains("## Latency decomposition"), "{md}");
        assert!(md.contains("## Per-minute offered vs achieved"), "{md}");
        assert!(md.contains("| pacer lateness |"), "{md}");
        assert!(md.contains("| 1 | 1 | 0 | 1 |"), "{md}");
    }
}
