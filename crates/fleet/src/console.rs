//! The coordinator's embedded HTTP observability plane.
//!
//! A tiny blocking HTTP/1.1 server built on the gateway's framing
//! ([`faasrail_gateway::http`]) — no new dependencies, same keep-alive and
//! `Content-Length` semantics the rest of the stack speaks. It serves the
//! [`History`] store the coordinator's control loop publishes into:
//!
//! * `GET /state?since=N` — JSON [`StateView`]: windowed fleet samples
//!   newer than cursor `N`, latest per-agent lease states, the
//!   reassignment timeline, and the next cursor to poll with;
//! * `GET /metrics` — fleet-wide Prometheus 0.0.4 exposition (the merged
//!   cumulative snapshot via [`Snapshot::to_prometheus`]) plus per-agent
//!   label vectors — agent names are arbitrary strings, which is exactly
//!   why [`PromText`] escapes label values;
//! * `GET /healthz` — agent counts by lease state, mirroring the
//!   gateway's `/healthz` JSON shape so probes are uniform across tiers;
//! * `GET /dashboard` (and `/`) — a single self-contained HTML page
//!   (inline JS polling `/state`, canvas sparklines, per-agent table,
//!   reassignment log; no external assets).
//!
//! [`fetch_state`] + [`render_top`] are the client half: `faasrail fleet
//! top` polls `/state` over the same framing and renders an ANSI terminal
//! view of the identical data, so SSH-only operators see exactly what the
//! dashboard shows.

use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use faasrail_gateway::http;
use faasrail_telemetry::PromText;

use crate::history::{History, StateView, DEFAULT_HISTORY_CAPACITY};

/// The embedded dashboard page, compiled into the binary.
pub const DASHBOARD_HTML: &str = include_str!("dashboard.html");

/// A bound (but not yet serving) console listener plus its history store.
/// Bind before the run starts so `port 0` resolves early enough to print;
/// [`ConsoleServer::start`] spawns the accept loop.
pub struct ConsoleServer {
    listener: TcpListener,
    history: Arc<History>,
}

/// Handle to a running console; [`ConsoleHandle::stop`] joins the accept
/// loop. Per-connection handler threads are detached and exit on their
/// own read timeout once the listener is gone: `IDLE_TIMEOUT` between
/// requests, `HEAD_TIMEOUT` from a request's first byte.
pub struct ConsoleHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: JoinHandle<()>,
}

impl ConsoleHandle {
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        self.accept_loop.join().ok();
    }
}

impl ConsoleServer {
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<ConsoleServer> {
        Ok(ConsoleServer {
            listener: TcpListener::bind(addr)?,
            history: Arc::new(History::new(DEFAULT_HISTORY_CAPACITY)),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The store the coordinator publishes into and connections read from.
    pub fn history(&self) -> Arc<History> {
        Arc::clone(&self.history)
    }

    /// Spawn the accept loop. Connections are handled one thread each —
    /// this is an ops endpoint polled by a handful of humans and scrapers,
    /// not a data path.
    pub fn start(&self) -> io::Result<ConsoleHandle> {
        let listener = self.listener.try_clone()?;
        let addr = listener.local_addr()?;
        let history = Arc::clone(&self.history);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_loop = thread::spawn(move || loop {
            let accepted = listener.accept();
            if stop_accept.load(Ordering::Acquire) {
                return; // the stop's wake-up connection, or a straggler
            }
            match accepted {
                Ok((stream, _peer)) => {
                    let history = Arc::clone(&history);
                    thread::spawn(move || serve_connection(stream, &history));
                }
                // Out of descriptors, say: back off instead of spinning.
                Err(_) => thread::sleep(Duration::from_millis(25)),
            }
        });
        Ok(ConsoleHandle { addr, stop, accept_loop })
    }
}

/// How long a connection may sit between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a request may take to arrive from its first byte. Every console
/// client (`curl`, `fleet top`, the dashboard) sends its request head in one
/// write, so only a peer dribbling bytes to hold a thread runs into it.
const HEAD_TIMEOUT: Duration = Duration::from_secs(2);

fn serve_connection(stream: TcpStream, history: &History) {
    stream.set_nodelay(true).ok();
    let mut writer = &stream;
    let mut reader = BufReader::new(http::RequestClock::new(&stream, IDLE_TIMEOUT, HEAD_TIMEOUT));
    loop {
        let begun = !reader.buffer().is_empty();
        reader.get_mut().next_request(begun);
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) | Err(_) => return, // clean close, timeout, or garbage
        };
        let keep_alive = req.keep_alive;
        let (status, content_type, body) = respond(history, &req.method, &req.path);
        if http::write_response(&mut writer, status, content_type, body.as_bytes(), keep_alive)
            .is_err()
            || !keep_alive
        {
            return;
        }
    }
}

/// Pure request router: method + path (with query string) in, response out.
fn respond(history: &History, method: &str, raw_path: &str) -> (u16, &'static str, String) {
    let (path, query) = match raw_path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (raw_path, ""),
    };
    if method != "GET" {
        return (405, "application/json", "{\"error\":\"method not allowed\"}".into());
    }
    match path {
        "/state" => {
            let since = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("since="))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            let view = history.since(since);
            match serde_json::to_string(&view) {
                Ok(body) => (200, "application/json", body),
                Err(e) => (500, "application/json", format!("{{\"error\":\"{e}\"}}")),
            }
        }
        "/metrics" => (200, faasrail_telemetry::prometheus::CONTENT_TYPE, metrics_text(history)),
        "/healthz" => (200, "application/json", healthz_json(history)),
        "/" | "/dashboard" => (200, "text/html; charset=utf-8", DASHBOARD_HTML.to_string()),
        _ => (404, "application/json", "{\"error\":\"not found\"}".into()),
    }
}

/// Fleet-wide Prometheus exposition: merged cumulative counters and the
/// response histogram under `faasrail_fleet_…`, then per-agent label
/// vectors and lease-state gauges.
fn metrics_text(history: &History) -> String {
    let mut body = history.cumulative().to_prometheus("faasrail_fleet");
    let agents = history.agents();
    let counts = history.health_counts();
    let (reassignments, abort_reasons) = history.timeline();

    let mut p = PromText::new();
    p.gauge("faasrail_fleet_agents", "Agent slots known to the coordinator.", agents.len() as f64);
    p.gauge_vec(
        "faasrail_fleet_agents_by_state",
        "Agent slots by lease state.",
        "state",
        &[
            ("alive", counts.alive as f64),
            ("done", counts.done as f64),
            ("stalled", counts.stalled as f64),
            ("crashed", counts.crashed as f64),
            ("aborted", counts.aborted as f64),
            ("rejoined", counts.rejoined as f64),
        ],
    );
    let issued: Vec<(&str, u64)> = agents.iter().map(|a| (a.name.as_str(), a.issued)).collect();
    p.counter_vec(
        "faasrail_fleet_agent_issued_total",
        "Requests dispatched, per agent.",
        "agent",
        &issued,
    );
    let completed: Vec<(&str, u64)> =
        agents.iter().map(|a| (a.name.as_str(), a.completed)).collect();
    p.counter_vec(
        "faasrail_fleet_agent_completed_total",
        "Requests finished successfully, per agent.",
        "agent",
        &completed,
    );
    let errors: Vec<(&str, u64)> = agents.iter().map(|a| (a.name.as_str(), a.errors)).collect();
    p.counter_vec(
        "faasrail_fleet_agent_errors_total",
        "Requests finished unsuccessfully, per agent.",
        "agent",
        &errors,
    );
    let lag: Vec<(&str, f64)> = agents.iter().map(|a| (a.name.as_str(), a.lag_ms as f64)).collect();
    p.gauge_vec(
        "faasrail_fleet_agent_lag_ms",
        "Last reported pacing lag, per agent.",
        "agent",
        &lag,
    );
    let up: Vec<(&str, f64)> =
        agents.iter().map(|a| (a.name.as_str(), if a.is_live() { 1.0 } else { 0.0 })).collect();
    p.gauge_vec("faasrail_fleet_agent_up", "1 while the agent's lease is live.", "agent", &up);
    p.counter(
        "faasrail_fleet_reassignments_total",
        "Mid-run work reassignments issued.",
        reassignments.len() as u64,
    );
    p.counter(
        "faasrail_fleet_abort_reasons_total",
        "Distinct abort reasons recorded.",
        abort_reasons.len() as u64,
    );
    body.push_str(p.as_str());
    body
}

/// `/healthz` mirrors the gateway's shape: a flat JSON object leading with
/// `"status":"ok"`, followed by the tier's vital signs.
fn healthz_json(history: &History) -> String {
    let c = history.health_counts();
    let (reassignments, _) = history.timeline();
    format!(
        "{{\"status\":\"ok\",\"agents\":{{\"alive\":{},\"done\":{},\"stalled\":{},\
         \"crashed\":{},\"aborted\":{},\"rejoined\":{}}},\"samples\":{},\"reassignments\":{}}}",
        c.alive,
        c.done,
        c.stalled,
        c.crashed,
        c.aborted,
        c.rejoined,
        history.len(),
        reassignments.len(),
    )
}

/// Fetch one [`StateView`] from a console at `addr` (the client half of
/// `GET /state?since=N`, over the same HTTP framing the server uses).
pub fn fetch_state(addr: &str, since: u64) -> io::Result<StateView> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = stream.try_clone()?;
    http::write_request(
        &mut writer,
        "GET",
        &format!("/state?since={since}"),
        addr,
        "application/json",
        b"",
        false,
    )?;
    let mut reader = BufReader::new(stream);
    let resp = http::read_response(&mut reader)?;
    if resp.status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("console returned HTTP {}", resp.status),
        ));
    }
    serde_json::from_slice(&resp.body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad /state body: {e}")))
}

const SPARK_BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 {
        return values.iter().map(|_| SPARK_BARS[0]).collect();
    }
    values.iter().map(|v| SPARK_BARS[(((v / max) * 7.0).round() as usize).min(7)]).collect()
}

/// Render a [`StateView`] as a plain-text terminal dashboard — the same
/// data `/dashboard` shows, for `faasrail fleet top`. Returns text without
/// cursor-control sequences; the CLI prepends the clear-screen escape.
pub fn render_top(view: &StateView) -> String {
    let mut out = String::with_capacity(2048);
    let live = view.agents.iter().filter(|a| a.is_live()).count();
    let _ = writeln!(
        out,
        "faasrail fleet top — t={:.1}s · {} agents ({} live) · {} reassignments{}",
        view.now_ms as f64 / 1e3,
        view.agents.len(),
        live,
        view.reassignments.len(),
        if view.dropped { " · history gap" } else { "" },
    );
    if let Some(total) = &view.total {
        let _ = writeln!(out, "total   {}", total.summary());
    }
    if let Some(last) = view.samples.last() {
        let _ = writeln!(out, "window  {}", last.window.summary());
    }
    let recent: Vec<&crate::history::FleetSample> =
        view.samples.iter().rev().take(60).rev().collect();
    if !recent.is_empty() {
        let offered: Vec<f64> = recent.iter().map(|s| s.window.offered_rps).collect();
        let achieved: Vec<f64> = recent.iter().map(|s| s.window.achieved_rps).collect();
        let peak = offered.iter().cloned().fold(0.0_f64, f64::max);
        let _ = writeln!(out, "offered  {} (peak {peak:.1} rps)", sparkline(&offered));
        let _ = writeln!(out, "achieved {}", sparkline(&achieved));
    }
    let _ = writeln!(
        out,
        "\n{:<20} {:>5} {:<24} {:>9} {:>9} {:>7} {:>6} {:>7} {:>7} {:>6}",
        "AGENT", "SHARD", "STATE", "ISSUED", "DONE", "ERRORS", "SHED", "LAG", "MAXLAG", "GRANTS",
    );
    for a in &view.agents {
        let _ = writeln!(
            out,
            "{:<20} {:>5} {:<24} {:>9} {:>9} {:>7} {:>6} {:>7} {:>7} {:>6}",
            a.name,
            a.shard,
            a.status,
            a.issued,
            a.completed,
            a.errors,
            a.shed,
            a.lag_ms,
            a.max_lag_ms,
            a.granted,
        );
    }
    if !view.reassignments.is_empty() {
        let _ = writeln!(out, "\nreassignments:");
        for r in &view.reassignments {
            let _ = writeln!(
                out,
                "  +{:.1}s  shard {} → shard {}  work {}  {} req  ({})",
                r.at_us as f64 / 1e6,
                r.from_shard,
                r.to_shard,
                r.work,
                r.requests,
                r.reason,
            );
        }
    }
    if !view.abort_reasons.is_empty() {
        let _ = writeln!(out, "\nabort reasons:");
        for reason in &view.abort_reasons {
            let _ = writeln!(out, "  {reason}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::AgentState;
    use faasrail_telemetry::{ReassignSpan, Snapshot};
    use std::io::{Read, Write};

    fn seeded_history() -> History {
        let h = History::new(16);
        let mut cumulative = Snapshot::default();
        for i in 1..=5u64 {
            cumulative.issued += 10;
            cumulative.completed += 9;
            cumulative.errors[3] += 1;
            cumulative.response.record(0.020);
            h.publish(
                i * 100,
                &cumulative,
                vec![
                    AgentState {
                        name: "agent \"a\"".into(),
                        shard: 0,
                        status: "live".into(),
                        rejoined: false,
                        granted: 1,
                        lag_ms: 3,
                        max_lag_ms: 9,
                        issued: cumulative.issued / 2,
                        completed: cumulative.completed / 2,
                        errors: 0,
                        shed: 0,
                    },
                    AgentState {
                        name: "agent-b".into(),
                        shard: 1,
                        status: "crash".into(),
                        rejoined: false,
                        granted: 0,
                        lag_ms: 0,
                        max_lag_ms: 0,
                        issued: cumulative.issued / 2,
                        completed: cumulative.completed / 2,
                        errors: 1,
                        shed: 1,
                    },
                ],
            );
        }
        h.set_timeline(
            vec![ReassignSpan {
                at_us: 1_500_000,
                from_shard: 1,
                to_shard: 0,
                work: 1 << 32,
                requests: 42,
                reason: "crash".into(),
            }],
            vec!["shard 1: lost".into()],
        );
        h
    }

    #[test]
    fn a_peer_dribbling_a_request_is_cut_at_the_head_budget() {
        let server = ConsoleServer::bind("127.0.0.1:0").unwrap();
        let handle = server.start().unwrap();
        let mut peer = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let request = b"GET /healthz HTTP/1.1\r\n\r\n";
        // One byte every 250 ms: never idle for long, done only after 6 s.
        let mut dribble = peer.try_clone().unwrap();
        let started = std::time::Instant::now();
        let writer = thread::spawn(move || {
            for byte in request {
                if dribble.write_all(&[*byte]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(250));
            }
        });
        let mut answer = Vec::new();
        let _ = peer.read_to_end(&mut answer); // EOF, or a reset by the close
        let elapsed = started.elapsed();
        assert!(answer.is_empty(), "answered: {}", String::from_utf8_lossy(&answer));
        assert!(
            elapsed < HEAD_TIMEOUT + Duration::from_secs(1),
            "a dribbling peer held its thread for {elapsed:?}"
        );
        writer.join().unwrap();
        handle.stop();
    }

    #[test]
    fn router_serves_all_four_endpoints() {
        let h = seeded_history();
        let (status, ct, body) = respond(&h, "GET", "/state?since=0");
        assert_eq!((status, ct), (200, "application/json"));
        let view: StateView = serde_json::from_str(&body).unwrap();
        assert_eq!(view.samples.len(), 5);
        assert_eq!(view.agents.len(), 2);

        let (status, ct, body) = respond(&h, "GET", "/metrics");
        assert_eq!(status, 200);
        assert_eq!(ct, faasrail_telemetry::prometheus::CONTENT_TYPE);
        assert!(body.contains("faasrail_fleet_issued_total 50"), "{body}");
        // The quoted agent name must arrive escaped.
        assert!(body.contains("agent=\"agent \\\"a\\\"\""), "{body}");
        assert!(body.contains("faasrail_fleet_reassignments_total 1"), "{body}");

        let (status, _, body) = respond(&h, "GET", "/healthz");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"alive\":1"), "{body}");
        assert!(body.contains("\"crashed\":1"), "{body}");

        let (status, ct, body) = respond(&h, "GET", "/dashboard");
        assert_eq!((status, ct), (200, "text/html; charset=utf-8"));
        assert!(body.contains("<canvas"), "dashboard must be self-contained");
        assert!(!body.contains("http://") && !body.contains("https://"), "no external assets");

        assert_eq!(respond(&h, "GET", "/nope").0, 404);
        assert_eq!(respond(&h, "POST", "/state").0, 405);
    }

    #[test]
    fn state_cursor_pages_through_the_router() {
        let h = seeded_history();
        let (_, _, body) = respond(&h, "GET", "/state?since=3");
        let view: StateView = serde_json::from_str(&body).unwrap();
        assert_eq!(view.samples.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(view.next, 5);
    }

    #[test]
    fn render_top_shows_agents_and_timeline() {
        let h = seeded_history();
        let view = h.since(0);
        let text = render_top(&view);
        assert!(text.contains("agent \"a\""), "{text}");
        assert!(text.contains("agent-b"), "{text}");
        assert!(text.contains("crash"), "{text}");
        assert!(text.contains("offered"), "{text}");
        assert!(text.contains("shard 1 → shard 0"), "{text}");
        assert!(text.contains("2 agents (1 live)"), "{text}");
    }

    #[test]
    fn sparkline_scales_to_peak() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[0.0, 5.0, 10.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'), "{s}");
    }
}
