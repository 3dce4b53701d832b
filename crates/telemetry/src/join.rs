//! Cross-tier span joining: merge a client event log and a server event
//! log by trace id into end-to-end traces.
//!
//! The client (`InvocationSpan`) and the gateway (`ServerSpan`) timestamp
//! on different clocks — run-relative and gateway-relative respectively —
//! so the join estimates the offset between them before decomposing each
//! trace. The estimator is the classic NTP midpoint argument: for a
//! request/response exchange, the midpoint of the server's residency must
//! coincide with the midpoint of the client's exchange interval up to
//! asymmetric network delay, so `offset ≈ mid(server) − mid(client)`. We
//! take the median over all single-attempt successful pairs (robust to
//! stragglers), and bound the residual error by the median half of the
//! client-observed exchange time not accounted for by the server
//! (half-RTT): the true offset cannot differ from the midpoint estimate
//! by more than the one-way network delay.
//!
//! Orphans are first-class: a client span with no matching server span is
//! not a join bug, it is a measurement — gateway sheds happen *before*
//! the request is read (no trace id ever reaches the server) and
//! transport errors may fail before a byte is written — so orphan counts
//! per outcome class are reported alongside the joined set, and a
//! loopback replay with zero sheds must join 100% of spans.

use serde::{Deserialize, Serialize};

use crate::span::{InvocationSpan, OutcomeClass, ServerSpan, TelemetryEvent};

/// Estimated client↔server clock offset.
///
/// Convention: `offset_us` is the value of the server clock minus the
/// value of the client clock at the same physical instant, so a server
/// timestamp converts to the client clock as `t_client = t_server −
/// offset_us`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClockOffset {
    /// Median midpoint offset, microseconds (server − client).
    pub offset_us: f64,
    /// Error bound on the offset: median half-RTT of the sampled
    /// exchanges, microseconds.
    pub error_us: f64,
    /// Exchanges sampled (single-attempt, both sides successful).
    pub pairs: u64,
}

/// Per-trace cross-tier stage decomposition, seconds. All stages are
/// non-negative; `net_out`/`net_back` are clamped at zero when the clock
/// offset error exceeds the true network time, so
/// `client_queue + net_out + gateway + service + net_back` can exceed
/// `response` by at most twice the offset error (and equals it exactly
/// when no clamp fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CrossTierStages {
    /// Pacer lateness: actual minus scheduled dispatch (client clock).
    pub lateness_s: f64,
    /// Dispatch → client worker pickup (client clock).
    pub client_queue_s: f64,
    /// Client worker pickup → gateway accept (cross-clock, offset-adjusted).
    pub net_out_s: f64,
    /// Gateway accept → handler start: connection queue wait plus request
    /// head read (server clock).
    pub gateway_s: f64,
    /// Handler start → handler end: backend execution (server clock).
    pub service_s: f64,
    /// Handler end → client completion: response flush plus return
    /// network path (cross-clock, offset-adjusted).
    pub net_back_s: f64,
    /// Client-observed end-to-end response (dispatch → completion).
    pub response_s: f64,
}

impl CrossTierStages {
    /// Decompose one joined pair under the given clock offset.
    fn compute(client: &InvocationSpan, server: &ServerSpan, offset: &ClockOffset) -> Self {
        // Server timestamps mapped onto the client clock.
        let accepted_client = server.accepted_us as f64 - offset.offset_us;
        let handler_end_client = server.handler_end_us as f64 - offset.offset_us;
        CrossTierStages {
            lateness_s: client.lateness_s(),
            client_queue_s: client.queue_wait_s(),
            net_out_s: ((accepted_client - client.picked_up_us as f64) / 1e6).max(0.0),
            gateway_s: server.queue_wait_s() + server.read_s(),
            service_s: server.handler_s(),
            net_back_s: ((client.completed_us as f64 - handler_end_client) / 1e6).max(0.0),
            response_s: client.response_s(),
        }
    }

    /// Sum of the five post-dispatch stages (everything but lateness),
    /// which telescopes to `response_s` up to clamped clock-offset error.
    pub fn stage_sum_s(&self) -> f64 {
        self.client_queue_s + self.net_out_s + self.gateway_s + self.service_s + self.net_back_s
    }
}

/// One end-to-end trace: a client span matched to its server span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinedSpan {
    pub client: InvocationSpan,
    pub server: ServerSpan,
    /// Server spans that carried this trace id (>1 means the client
    /// retried; `server` is the last attempt by handler-end time).
    pub attempts: u64,
    pub stages: CrossTierStages,
}

/// The result of joining a client log against a server log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanJoin {
    /// Successfully joined traces, in client dispatch order.
    pub joined: Vec<JoinedSpan>,
    /// Client spans with no matching server span, in client dispatch
    /// order (shed before the request was read, transport failures that
    /// never reached the gateway, or pre-tracing logs with zero ids).
    pub orphans: Vec<InvocationSpan>,
    /// Orphan counts indexed like [`OutcomeClass::ALL`]
    /// (`[ok, app_error, timeout, transport, shed]`).
    pub orphans_by_class: [u64; 5],
    /// Server spans whose trace id matched no client span (e.g. the
    /// abandoned earlier attempts of a client-side timeout, or another
    /// client sharing the gateway).
    pub server_unmatched: u64,
    /// Extra server spans beyond the first per joined trace (retries).
    pub extra_attempts: u64,
    /// The clock offset used for the cross-tier decomposition.
    pub offset: ClockOffset,
}

impl SpanJoin {
    /// Total orphaned client spans.
    pub fn orphaned(&self) -> u64 {
        self.orphans_by_class.iter().sum()
    }

    /// The `n` slowest joined traces by client end-to-end response time,
    /// worst first.
    pub fn slowest(&self, n: usize) -> Vec<&JoinedSpan> {
        let mut refs: Vec<&JoinedSpan> = self.joined.iter().collect();
        refs.sort_by(|a, b| {
            b.stages
                .response_s
                .partial_cmp(&a.stages.response_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        refs.truncate(n);
        refs
    }
}

fn class_index(c: OutcomeClass) -> usize {
    match c.error_index() {
        None => 0,
        Some(i) => i + 1,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Estimate the client↔server clock offset from matched pairs.
///
/// Only single-attempt pairs where both tiers report success are sampled:
/// retries and failures make the client exchange interval cover more than
/// one server residency, which breaks the midpoint argument.
fn estimate_offset(pairs: &[(&InvocationSpan, &ServerSpan, u64)]) -> ClockOffset {
    let mut offsets = Vec::new();
    let mut slacks = Vec::new();
    for (client, server, attempts) in pairs {
        if *attempts != 1
            || client.outcome != OutcomeClass::Ok
            || server.outcome != OutcomeClass::Ok
        {
            continue;
        }
        let client_mid = (client.picked_up_us as f64 + client.completed_us as f64) / 2.0;
        let server_mid = (server.accepted_us as f64 + server.flushed_us as f64) / 2.0;
        offsets.push(server_mid - client_mid);
        let client_width = client.completed_us.saturating_sub(client.picked_up_us) as f64;
        let server_width = server.flushed_us.saturating_sub(server.accepted_us) as f64;
        slacks.push(((client_width - server_width) / 2.0).max(0.0));
    }
    ClockOffset {
        pairs: offsets.len() as u64,
        offset_us: median(&mut offsets),
        error_us: median(&mut slacks),
    }
}

/// Estimate a local↔remote clock offset from explicit probe exchanges —
/// the same NTP midpoint argument as [`join_spans`], applied to protocol
/// pings instead of request spans. Each sample is a wall-clock triple
/// `(local_send_us, remote_us, local_recv_us)`: the remote peer's
/// timestamp should coincide with the midpoint of the local exchange
/// interval up to asymmetric network delay, so the offset (remote −
/// local) is the median of `remote − mid(send, recv)` and the residual
/// error is bounded by the median half round-trip. Used by the fleet
/// coordinator to measure agent↔coordinator skew before rebasing agent
/// span logs onto one fleet clock. Samples with `recv < send` (a clock
/// step mid-exchange) are discarded.
pub fn offset_from_probes(samples: &[(u64, u64, u64)]) -> ClockOffset {
    let mut offsets = Vec::new();
    let mut slacks = Vec::new();
    for &(send_us, remote_us, recv_us) in samples {
        if recv_us < send_us {
            continue;
        }
        let mid = (send_us as f64 + recv_us as f64) / 2.0;
        offsets.push(remote_us as f64 - mid);
        slacks.push((recv_us - send_us) as f64 / 2.0);
    }
    ClockOffset {
        pairs: offsets.len() as u64,
        offset_us: median(&mut offsets),
        error_us: median(&mut slacks),
    }
}

/// Join a client event stream against a server event stream by trace id.
///
/// Client spans joined to multiple server spans (retries) take the last
/// server attempt by handler-end time. Spans with `trace_id == 0` on
/// either side never match.
pub fn join_spans(client_events: &[TelemetryEvent], server_events: &[TelemetryEvent]) -> SpanJoin {
    use std::collections::HashMap;

    // trace id → server spans carrying it, in log order.
    let mut by_trace: HashMap<u64, Vec<&ServerSpan>> = HashMap::new();
    let mut server_total = 0u64;
    for event in server_events {
        if let TelemetryEvent::ServerSpan(s) = event {
            server_total += 1;
            if s.trace_id != 0 {
                by_trace.entry(s.trace_id).or_default().push(s);
            }
        }
    }

    let clients: Vec<&InvocationSpan> = client_events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Invocation(s) => Some(s),
            _ => None,
        })
        .collect();

    // First pass: match, pick the final attempt, estimate the offset.
    let mut matched: Vec<(&InvocationSpan, &ServerSpan, u64)> = Vec::new();
    let mut orphans: Vec<InvocationSpan> = Vec::new();
    let mut orphans_by_class = [0u64; 5];
    let mut matched_server = 0u64;
    for client in &clients {
        let candidates = (client.trace_id != 0).then(|| by_trace.get(&client.trace_id)).flatten();
        match candidates {
            Some(spans) => {
                let last = spans
                    .iter()
                    .max_by_key(|s| s.handler_end_us)
                    .expect("by_trace buckets are non-empty");
                matched_server += spans.len() as u64;
                matched.push((client, last, spans.len() as u64));
            }
            None => {
                orphans_by_class[class_index(client.outcome)] += 1;
                orphans.push((*client).clone());
            }
        }
    }
    let offset = estimate_offset(&matched);

    // Second pass: decompose under the estimated offset.
    let joined = matched
        .iter()
        .map(|(client, server, attempts)| JoinedSpan {
            client: (*client).clone(),
            server: (*server).clone(),
            attempts: *attempts,
            stages: CrossTierStages::compute(client, server, &offset),
        })
        .collect::<Vec<_>>();

    let extra_attempts: u64 = matched.iter().map(|(_, _, n)| n - 1).sum();
    SpanJoin {
        joined,
        orphans,
        orphans_by_class,
        server_unmatched: server_total - matched_server,
        extra_attempts,
        offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{derive_trace_id, ServerFault};

    /// Build a matched client/server pair with the given clock offset
    /// (server clock = client clock + offset) and symmetric one-way
    /// network delay. The client clock starts at 10 s so that the most
    /// negative offset a test injects still leaves the server's stamps
    /// positive: timestamps are µs since an epoch and cannot wrap.
    fn pair(
        seq: u64,
        offset_us: i64,
        net_us: u64,
        service_us: u64,
    ) -> (TelemetryEvent, TelemetryEvent) {
        let trace_id = derive_trace_id(99, seq);
        let dispatched = 10_000_000 + seq * 100_000;
        let picked_up = dispatched + 500;
        let accepted_client = picked_up + net_us; // client-clock instant
        let handler_start = accepted_client + 200;
        let handler_end = handler_start + service_us;
        let flushed = handler_end + 100;
        let completed = flushed + net_us;
        let to_server = |t: u64| (t as i64 + offset_us) as u64;
        let client = TelemetryEvent::Invocation(InvocationSpan {
            trace_id,
            seq,
            workload: 1,
            function_index: 0,
            scheduled_ms: 0,
            target_us: dispatched,
            dispatched_us: dispatched,
            picked_up_us: picked_up,
            completed_us: completed,
            service_ms: service_us as f64 / 1e3,
            outcome: OutcomeClass::Ok,
            cold_start: false,
            error: None,
        });
        let server = TelemetryEvent::ServerSpan(ServerSpan {
            trace_id,
            seq,
            worker: 0,
            accepted_us: to_server(accepted_client),
            dequeued_us: to_server(accepted_client + 50),
            handler_start_us: to_server(handler_start),
            handler_end_us: to_server(handler_end),
            flushed_us: to_server(flushed),
            queue_depth: 0,
            service_ms: service_us as f64 / 1e3,
            outcome: OutcomeClass::Ok,
            fault: None,
            cold_start: false,
        });
        (client, server)
    }

    fn logs(n: u64, offset_us: i64, net_us: u64) -> (Vec<TelemetryEvent>, Vec<TelemetryEvent>) {
        let mut client = Vec::new();
        let mut server = Vec::new();
        for seq in 0..n {
            let (c, s) = pair(seq, offset_us, net_us, 20_000);
            client.push(c);
            server.push(s);
        }
        (client, server)
    }

    #[test]
    fn probe_offset_recovers_injected_skew() {
        for injected in [-3_000_000i64, -47, 0, 512, 9_000_000] {
            // Symmetric exchanges with 400µs one-way delay plus one
            // outlier with a huge asymmetric delay the median must shrug
            // off, plus one backwards sample that must be discarded.
            let mut samples: Vec<(u64, u64, u64)> = (0..9u64)
                .map(|i| {
                    let send = 10_000_000 + i * 10_000;
                    let recv = send + 800;
                    let remote = ((send + 400) as i64 + injected) as u64;
                    (send, remote, recv)
                })
                .collect();
            samples.push((12_000_000, (12_500_000i64 + injected) as u64, 12_900_000));
            samples.push((5_000_000, 1, 4_000_000)); // recv < send: dropped
            let off = offset_from_probes(&samples);
            assert_eq!(off.pairs, 10);
            assert!(
                (off.offset_us - injected as f64).abs() <= off.error_us + 1e-6,
                "injected {injected}, estimated {} ± {}",
                off.offset_us,
                off.error_us
            );
            assert!(off.error_us <= 500.0, "median half-RTT bound: {}", off.error_us);
        }
        let empty = offset_from_probes(&[]);
        assert_eq!((empty.pairs, empty.offset_us, empty.error_us), (0, 0.0, 0.0));
    }

    #[test]
    fn clean_logs_join_completely() {
        let (client, server) = logs(20, 0, 300);
        let join = join_spans(&client, &server);
        assert_eq!(join.joined.len(), 20);
        assert_eq!(join.orphaned(), 0);
        assert_eq!(join.server_unmatched, 0);
        assert_eq!(join.extra_attempts, 0);
        assert_eq!(join.offset.pairs, 20);
    }

    #[test]
    fn offset_is_recovered_within_half_rtt() {
        for injected in [-5_000_000i64, -1_234, 0, 987, 3_000_000] {
            let (client, server) = logs(30, injected, 400);
            let join = join_spans(&client, &server);
            // Symmetric network: the midpoint estimator is exact up to
            // the bound it reports.
            assert!(
                (join.offset.offset_us - injected as f64).abs() <= join.offset.error_us + 1e-6,
                "injected {injected}, estimated {} ± {}",
                join.offset.offset_us,
                join.offset.error_us
            );
            // One-way delay 400µs + flush 100µs on one side → bound stays
            // small and sane.
            assert!(join.offset.error_us <= 500.0 + 1e-6);
        }
    }

    #[test]
    fn stages_are_nonnegative_and_sum_to_response_within_error() {
        for injected in [-2_000_000i64, 0, 2_000_000] {
            let (client, server) = logs(25, injected, 250);
            let join = join_spans(&client, &server);
            for j in &join.joined {
                let s = &j.stages;
                for (name, v) in [
                    ("lateness", s.lateness_s),
                    ("client_queue", s.client_queue_s),
                    ("net_out", s.net_out_s),
                    ("gateway", s.gateway_s),
                    ("service", s.service_s),
                    ("net_back", s.net_back_s),
                ] {
                    assert!(v >= 0.0, "{name} negative: {v}");
                }
                let err_s = 2.0 * join.offset.error_us / 1e6;
                assert!(
                    (s.stage_sum_s() - s.response_s).abs() <= err_s + 1e-9,
                    "sum {} vs response {} (err bound {err_s})",
                    s.stage_sum_s(),
                    s.response_s
                );
            }
        }
    }

    #[test]
    fn unmatched_client_spans_become_classified_orphans() {
        let (mut client, server) = logs(5, 0, 300);
        // A shed span (breaker fail-fast: never reached the gateway) and a
        // transport error (connect refused) with ids the server never saw.
        for (seq, outcome) in [(100u64, OutcomeClass::Shed), (101, OutcomeClass::Transport)] {
            client.push(TelemetryEvent::Invocation(InvocationSpan {
                trace_id: derive_trace_id(7, seq),
                seq,
                workload: 1,
                function_index: 0,
                scheduled_ms: 0,
                target_us: 0,
                dispatched_us: 0,
                picked_up_us: 10,
                completed_us: 20,
                service_ms: 0.0,
                outcome,
                cold_start: false,
                error: Some("down".into()),
            }));
        }
        let join = join_spans(&client, &server);
        assert_eq!(join.joined.len(), 5);
        assert_eq!(join.orphaned(), 2);
        assert_eq!(join.orphans_by_class, [0, 0, 0, 1, 1]);
        assert_eq!(join.orphans.len(), 2);
    }

    #[test]
    fn retries_take_the_last_server_attempt() {
        let (mut client, mut server) = logs(3, 0, 300);
        // Duplicate attempt for trace 0 with an *earlier* handler_end:
        // the join must keep the later (original) one.
        if let TelemetryEvent::ServerSpan(s0) = &server[0] {
            let mut early = s0.clone();
            early.accepted_us = 1;
            early.handler_start_us = 2;
            early.handler_end_us = 3;
            early.flushed_us = 4;
            early.outcome = OutcomeClass::Transport;
            early.fault = Some(ServerFault::Drop);
            server.push(TelemetryEvent::ServerSpan(early));
        } else {
            unreachable!()
        }
        // And an unmatched server span (another client's request).
        if let TelemetryEvent::ServerSpan(s0) = &server[1] {
            let mut foreign = s0.clone();
            foreign.trace_id = 0xF0F0;
            server.push(TelemetryEvent::ServerSpan(foreign));
        } else {
            unreachable!()
        }
        // Client log order should not matter for matching.
        client.reverse();
        let join = join_spans(&client, &server);
        assert_eq!(join.joined.len(), 3);
        assert_eq!(join.extra_attempts, 1);
        assert_eq!(join.server_unmatched, 1);
        let retried =
            join.joined.iter().find(|j| j.attempts == 2).expect("one trace has two attempts");
        assert_eq!(retried.server.outcome, OutcomeClass::Ok, "kept the later attempt");
    }

    #[test]
    fn zero_trace_ids_never_match() {
        let (mut client, mut server) = logs(2, 0, 300);
        for e in client.iter_mut().chain(server.iter_mut()) {
            match e {
                TelemetryEvent::Invocation(s) => s.trace_id = 0,
                TelemetryEvent::ServerSpan(s) => s.trace_id = 0,
                _ => {}
            }
        }
        let join = join_spans(&client, &server);
        assert!(join.joined.is_empty());
        assert_eq!(join.orphaned(), 2);
        assert_eq!(join.server_unmatched, 2);
    }

    #[test]
    fn slowest_orders_by_response_desc() {
        let (mut client, server) = logs(4, 0, 300);
        if let TelemetryEvent::Invocation(s) = &mut client[2] {
            s.completed_us += 5_000_000; // make seq 2 the worst trace
        }
        let join = join_spans(&client, &server);
        let worst = join.slowest(2);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].client.seq, 2);
        assert!(worst[0].stages.response_s >= worst[1].stages.response_s);
    }
}
