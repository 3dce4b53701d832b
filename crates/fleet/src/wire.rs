//! The fleet wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every frame is a 4-byte big-endian body length followed by one
//! serialized [`FleetMessage`]. JSON keeps the protocol debuggable with
//! `nc` and versionable by field addition (unknown fields are a decode
//! error only for the sender's own mistakes — serde ignores extras);
//! the length prefix keeps framing independent of the payload so a
//! partial read never resynchronizes mid-object.
//!
//! The conversation, coordinator-side view (protocol v2):
//!
//! ```text
//! agent → Hello                 (name, proto version, optional resume token)
//! coord → HelloAck              (proto version, resume token, lease window)
//! coord → Probe × N             (clock-offset sampling)
//! agent → ProbeReply × N
//! coord → Assign                (shard trace + pool + replay config)
//! agent → Ready
//! coord → Start                 (epoch, already rebased to agent clock)
//! agent → Progress × many       (Snapshot + per-work prefixes + pacing lag)
//! coord → Reassign × any        (a dead shard's remainder, mid-run)
//! agent → ReassignAck × any
//! coord → Finish                (all work accounted — report and exit)
//! agent → Done                  (final RunMetrics + optional event log)
//! ```
//!
//! Either side may send [`FleetMessage::Abort`] at any point. A version
//! mismatch in `Hello` is answered with a clean `Abort {reason}` instead
//! of a mid-run decode error. Agents treat coordinator EOF as a lost link
//! (they rejoin with their resume token); the coordinator treats agent EOF
//! before `Done` as a crashed shard and a missed lease deadline (no frame
//! for longer than `lease_ms`) as a stalled one.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use faasrail_core::RequestTrace;
use faasrail_loadgen::{Pacing, RunMetrics};
use faasrail_telemetry::{Snapshot, TelemetryEvent};
use faasrail_workloads::WorkloadPool;

/// Upper bound on one frame body. A shard assignment carries its request
/// trace inline, so frames are large by design — but a corrupt length
/// prefix must not trigger a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Fleet wire-protocol version. Bumped on incompatible changes; a
/// coordinator answers a mismatched [`FleetMessage::Hello`] with a clean
/// `Abort {reason}` naming both versions, so mixed deployments fail at
/// handshake instead of as a decode error mid-run.
///
/// v1: PR 5 static shards. v2: `HelloAck`, per-work progress prefixes,
/// `Reassign`/`ReassignAck`/`Finish` (elastic control plane).
pub const PROTOCOL_VERSION: u32 = 2;

/// One shard's complete marching orders. Self-contained on purpose: the
/// agent needs no local spec, pool, or trace files — everything it will
/// replay arrives in this message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Assignment {
    /// Shard index in `0..shards`, also the agent's identity in reports.
    pub shard: u32,
    /// Total shard count for this run.
    pub shards: u32,
    pub pacing: Pacing,
    /// Replay worker threads on the agent.
    pub workers: usize,
    /// Capture and return the full span log in `Done` (costs memory and
    /// one large frame; enables the merged cross-agent report).
    pub capture_events: bool,
    /// Progress snapshot cadence, milliseconds.
    pub progress_every_ms: u64,
    /// Gateway URL for over-the-wire replay; `None` replays in-process.
    pub target: Option<String>,
    /// The shard-filtered request trace (full `duration_minutes`, subset
    /// of requests).
    pub trace: RequestTrace,
    pub pool: WorkloadPool,
    /// Span-capture ring capacity the agent should provision. Reassigned
    /// work can grow an agent's span log well past its own assignment, so
    /// the coordinator sizes the ring for the whole offered schedule.
    /// `0` (and absent, for v1 senders) means "own assignment only".
    #[serde(default)]
    pub event_capacity: u64,
}

/// Cumulative contiguous-completion state of one work item (an agent's
/// original shard or a reassignment grant), shipped inside `Progress`.
///
/// `watermark` is the length of the *finished prefix* of the work's trace:
/// every request with index `< watermark` has a final outcome, counted in
/// the per-class fields below. Requests beyond the watermark may also have
/// finished (out of order) but are not counted here — on agent loss the
/// coordinator re-executes them with the remainder, trading (bounded)
/// double execution for exact accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkPrefix {
    /// Work id: the agent's shard index for its original assignment, or
    /// the grant id for reassigned work.
    pub work: u64,
    /// Finished-prefix length (requests with a final outcome, contiguous
    /// from the start of the work's trace).
    pub watermark: u64,
    /// Successes within the prefix.
    pub completed: u64,
    /// `[app_error, timeout, transport, shed]` within the prefix.
    pub errors: [u64; 4],
    /// Cold starts within the prefix.
    pub cold_starts: u64,
}

impl WorkPrefix {
    /// `completed + errors == watermark` must hold for a well-formed
    /// prefix (every request in the prefix has exactly one outcome).
    pub fn is_consistent(&self) -> bool {
        self.completed + self.errors.iter().sum::<u64>() == self.watermark
    }
}

/// One reassignment: part of a dead shard's remaining schedule, handed to
/// a survivor mid-run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grant {
    /// Unique work id for this grant (distinct from every shard index and
    /// every other grant in the run).
    pub id: u64,
    /// The shard that originally owned this work (for reports).
    pub origin_shard: u32,
    /// Trace time already elapsed fleet-wide when the grant was issued,
    /// milliseconds. The survivor replays the grant with
    /// [`faasrail_loadgen::ResumeSpec`] at this offset: overdue requests
    /// fire immediately and book their full deficit as lateness, future
    /// requests fire at their original schedule positions.
    pub elapsed_ms: u64,
    /// The remainder trace (original `at_ms` stamps, so every invocation
    /// stays in its original offered-minute bucket).
    pub trace: RequestTrace,
}

/// Every message that crosses the coordinator/agent link.
// One frame of this type lives at a time per link, so the size skew
// between `Done` and the control frames costs nothing in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "msg", rename_all = "snake_case")]
pub enum FleetMessage {
    /// Agent introduction, first frame on a fresh connection.
    Hello {
        name: String,
        /// Agent wall clock (unix micros) at send time.
        wall_us: u64,
        /// Agent's [`PROTOCOL_VERSION`]. A v1 agent doesn't send the
        /// field at all, so it decodes as 0 — normalize with
        /// [`effective_proto`] before comparing.
        #[serde(default)]
        proto: u32,
        /// Resume token from a previous `HelloAck`, present when this
        /// connection is a rejoin after a lost link. Idempotent: the
        /// coordinator re-admits the agent as fresh capacity regardless of
        /// how many times the same token reconnects.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        resume_token: Option<String>,
    },
    /// Coordinator's answer to `Hello`, first frame in the other
    /// direction. Carries the lease the agent must beat with `Progress`
    /// frames and the token it should present on rejoin.
    HelloAck {
        proto: u32,
        /// Opaque rejoin token, unique per admitted connection.
        token: String,
        /// Liveness lease: the coordinator declares the agent stalled
        /// after this many milliseconds without a frame.
        lease_ms: u64,
    },
    /// Clock-offset probe (coordinator → agent). `wall_us` is the
    /// coordinator's send instant, echoed back for matching.
    Probe {
        seq: u32,
        wall_us: u64,
    },
    /// Probe echo (agent → coordinator) with the agent's own clock.
    ProbeReply {
        seq: u32,
        wall_us: u64,
        agent_wall_us: u64,
    },
    Assign {
        assignment: Assignment,
    },
    /// Agent acknowledges the assignment and is armed to start.
    Ready {
        shard: u32,
        requests: u64,
    },
    /// Fire the replay when the *agent's* wall clock reaches this instant
    /// (the coordinator already applied the measured offset, so one epoch
    /// becomes one synchronized start across skewed machines).
    Start {
        at_agent_wall_us: u64,
    },
    /// Cumulative live counters; the coordinator windows them itself.
    Progress {
        shard: u32,
        snapshot: Snapshot,
        /// Contiguous-completion state of every work item this agent
        /// holds (its shard plus any grants) — the high-water marks the
        /// coordinator reshards from if this agent dies.
        #[serde(default, skip_serializing_if = "Vec::is_empty")]
        prefixes: Vec<WorkPrefix>,
        /// Most recent dispatch lateness across the agent's replays,
        /// milliseconds (backpressure signal).
        #[serde(default)]
        lag_ms: u64,
        /// Worst dispatch lateness seen so far, milliseconds.
        #[serde(default)]
        max_lag_ms: u64,
        /// True when every work item this agent holds has fully finished
        /// and it is waiting for more grants or `Finish`.
        #[serde(default)]
        idle: bool,
    },
    /// Reassign part of a dead shard's remainder to this agent (mid-run,
    /// coordinator → agent).
    Reassign {
        grant: Grant,
    },
    /// Agent accepted a grant and armed its replay.
    ReassignAck {
        shard: u32,
        /// The grant id being acknowledged.
        grant: u64,
        requests: u64,
    },
    /// All offered work is accounted for — agents report `Done` and exit.
    Finish,
    /// Final shard result. `run_start_wall_us` is the agent wall clock at
    /// its replay's t=0, so span timestamps (run-relative micros) can be
    /// rebased onto the fleet epoch.
    Done {
        shard: u32,
        run_start_wall_us: u64,
        metrics: RunMetrics,
        events: Vec<TelemetryEvent>,
    },
    /// Cooperative cancellation, either direction.
    Abort {
        reason: String,
    },
}

/// Normalize a wire-decoded protocol version: pre-versioning (v1) agents
/// send no `proto` field, which decodes as 0.
pub fn effective_proto(proto: u32) -> u32 {
    if proto == 0 {
        1
    } else {
        proto
    }
}

/// Serialize `msg` as one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, msg: &FleetMessage) -> io::Result<()> {
    let body = serde_json::to_vec(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e}")))?;
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds cap", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(&body)?;
    w.flush()
}

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly *between* frames; EOF mid-frame is an error (truncated data).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<FleetMessage>> {
    let mut len_buf = [0u8; 4];
    if !fill_or_eof(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let msg = serde_json::from_slice(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("decode: {e}")))?;
    Ok(Some(msg))
}

/// Fill `buf` completely, or report a clean EOF if the stream ended
/// before the first byte.
fn fill_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// How a link was lost; the coordinator's report keeps the three apart.
#[derive(Debug, Clone, PartialEq)]
pub enum Loss {
    /// Socket EOF or reset.
    Crash,
    /// Connected but silent past the lease, or a write that timed out.
    Stall,
    /// The peer sent `Abort` with this reason.
    Abort(String),
}

/// One timeout for both directions of a link: on the coordinator the
/// handshake timeout, then the lease; on the agent the lease `HelloAck`
/// advertised. A peer that is connected but not reading must fail a
/// send, not block it.
pub fn arm(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))
}

/// The loss an IO error on a link stands for: a timeout is a stall,
/// anything else a crash.
fn loss_of(e: &io::Error) -> Loss {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Loss::Stall,
        _ => Loss::Crash,
    }
}

/// Deliver one frame. A failed or timed-out write shuts the stream down,
/// so its reader sees the loss too, and is the [`Loss`] to report.
pub fn send(stream: &mut TcpStream, msg: &FleetMessage) -> Result<(), Loss> {
    write_frame(stream, msg).map_err(|e| {
        stream.shutdown(Shutdown::Both).ok();
        loss_of(&e)
    })
}

/// Hand each frame of one link, or the loss that ended it (EOF is a
/// crash, the armed read timeout a stall), to `forward` until it returns
/// `false`.
pub fn read_link(
    mut reader: BufReader<TcpStream>,
    mut forward: impl FnMut(Result<FleetMessage, Loss>) -> bool,
) {
    loop {
        let got = match read_frame(&mut reader) {
            Ok(Some(msg)) => Ok(msg),
            Ok(None) => Err(Loss::Crash),
            Err(e) => Err(loss_of(&e)),
        };
        if !forward(got) {
            return;
        }
    }
}

/// Current wall clock as unix microseconds — the fleet's shared timebase.
pub fn wall_clock_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let msgs = vec![
            FleetMessage::Hello {
                name: "agent-0".into(),
                wall_us: 123,
                proto: PROTOCOL_VERSION,
                resume_token: Some("tok-3".into()),
            },
            FleetMessage::HelloAck {
                proto: PROTOCOL_VERSION,
                token: "tok-3".into(),
                lease_ms: 5_000,
            },
            FleetMessage::Probe { seq: 7, wall_us: 456 },
            FleetMessage::ProbeReply { seq: 7, wall_us: 456, agent_wall_us: 789 },
            FleetMessage::Start { at_agent_wall_us: 1_000_000 },
            FleetMessage::Reassign {
                grant: Grant {
                    id: 9,
                    origin_shard: 2,
                    elapsed_ms: 61_000,
                    trace: faasrail_core::RequestTrace { duration_minutes: 3, requests: vec![] },
                },
            },
            FleetMessage::ReassignAck { shard: 1, grant: 9, requests: 0 },
            FleetMessage::Finish,
            FleetMessage::Abort { reason: "operator interrupt".into() },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for want in &msgs {
            let got = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(serde_json::to_string(&got).unwrap(), serde_json::to_string(want).unwrap());
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF after last frame");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &FleetMessage::Probe { seq: 0, wall_us: 1 }).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"garbage");
        let mut cursor = Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A v1 `Hello` has no `proto` field; it must decode as version 1
    /// (so the coordinator can answer with a clean version-mismatch
    /// abort), and a v1 `Progress` without prefixes must still parse.
    #[test]
    fn v1_frames_decode_with_defaults() {
        let hello: FleetMessage =
            serde_json::from_str(r#"{"msg":"hello","name":"old","wall_us":5}"#).unwrap();
        match hello {
            FleetMessage::Hello { proto, resume_token, .. } => {
                assert_eq!(effective_proto(proto), 1);
                assert_eq!(resume_token, None);
            }
            other => panic!("wrong message: {other:?}"),
        }
        let snap = serde_json::to_string(&Snapshot::default()).unwrap();
        let line = format!(r#"{{"msg":"progress","shard":0,"snapshot":{snap}}}"#);
        let progress: FleetMessage = serde_json::from_str(&line).expect("v1 progress parses");
        match progress {
            FleetMessage::Progress { prefixes, lag_ms, idle, .. } => {
                assert!(prefixes.is_empty());
                assert_eq!(lag_ms, 0);
                assert!(!idle);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn work_prefix_consistency() {
        let p = WorkPrefix {
            work: 3,
            watermark: 10,
            completed: 7,
            errors: [1, 1, 1, 0],
            cold_starts: 2,
        };
        assert!(p.is_consistent());
        let bad = WorkPrefix { watermark: 10, completed: 7, ..WorkPrefix::default() };
        assert!(!bad.is_consistent());
    }

    #[test]
    fn messages_are_tagged_snake_case_json() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &FleetMessage::Ready { shard: 1, requests: 42 }).unwrap();
        let json = std::str::from_utf8(&buf[4..]).unwrap();
        assert!(json.contains("\"msg\":\"ready\""), "{json}");
    }

    /// An agent that never recorded lateness (unpaced) or service times
    /// used to ship `min_seen: Infinity` inside its final metrics; JSON has
    /// no infinity, so the coordinator failed to parse the `Done` frame and
    /// booked a *completed* shard as lost. Empty histograms must round-trip.
    #[test]
    fn done_frame_with_empty_histograms_roundtrips() {
        let mut metrics = faasrail_loadgen::RunMetrics::new();
        metrics.issued = 10;
        metrics.completed = 10;
        metrics.response.record(0.25);
        // `service` and `lateness` stay empty on purpose.
        let msg =
            FleetMessage::Done { shard: 0, run_start_wall_us: 1, metrics, events: Vec::new() };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let mut cursor = Cursor::new(buf);
        let got = read_frame(&mut cursor).unwrap().expect("frame parses");
        match got {
            FleetMessage::Done { metrics: m, .. } => {
                assert_eq!(m.completed, 10);
                assert_eq!(m.service.total(), 0);
                assert_eq!(m.response.min(), 0.25);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }
}
