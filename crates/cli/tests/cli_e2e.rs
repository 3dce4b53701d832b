//! Drives the `faasrail` binary the way a user does: the offline pipeline and
//! a loopback serve → replay → report round trip (exit codes, parseable
//! outputs, exact accounting), every usage error the option tables define
//! (non-zero exit, the option and the command named, nothing written), and
//! `--help` against README's generated reference.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_faasrail");

/// A scratch directory removed on drop.
struct Dir(PathBuf);

impl Dir {
    fn new(name: &str) -> Dir {
        let dir = std::env::temp_dir().join(format!("faasrail-e2e-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Dir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_string()
    }

    fn entries(&self) -> Vec<String> {
        let names = fs::read_dir(&self.0).unwrap().map(|e| e.unwrap().file_name());
        names.map(|n| n.to_string_lossy().into_owned()).collect()
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Kills the child on drop, so a failed assertion leaves no server behind.
struct Kill(Child);

impl Drop for Kill {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Run `faasrail args…` in `cwd` to completion. A command that is still
/// running after ten seconds (a usage error that was not caught and started
/// a server or an hour-long replay instead) is killed and reported.
fn faasrail(cwd: &Path, args: &[&str]) -> Output {
    let child = Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .env_remove("FAASRAIL_SCALE")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning faasrail");
    let mut child = Kill(child);
    // Drained on their own threads: a child blocked on a full pipe never exits.
    let stdout = drain(child.0.stdout.take().expect("piped"));
    let stderr = drain(child.0.stderr.take().expect("piped"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "faasrail {args:?} still running after 10 s");
        std::thread::sleep(Duration::from_millis(5));
    };
    Output { status, stdout: stdout.join().unwrap(), stderr: stderr.join().unwrap() }
}

fn drain(mut pipe: impl Read + Send + 'static) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        pipe.read_to_end(&mut bytes).map(|_| bytes).unwrap_or_default()
    })
}

fn ok(cwd: &Path, args: &[&str]) -> (String, String) {
    let out = faasrail(cwd, args);
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(out.status.success(), "faasrail {args:?} failed: {stderr}");
    (stdout, stderr)
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn json<T: serde::Deserialize>(path: &str) -> T {
    let s = fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&s).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// trace.json, pool.json and a 300-request reqs.json (3 s of schedule).
fn fixtures(dir: &Dir) {
    ok(&dir.0, &["gen-trace", "--kind", "azure", "--seed", "7", "--out", "trace.json"]);
    ok(&dir.0, &["build-pool", "--out", "pool.json"]);
    let smirnov = ["smirnov", "--trace", "trace.json", "--pool", "pool.json"];
    let sized = ["--invocations", "300", "--rate", "100", "--seed", "7", "--out", "reqs.json"];
    ok(&dir.0, &[&smirnov[..], &sized[..]].concat());
}

#[test]
fn pipeline_then_loopback_replay_and_report() {
    use faasrail_core::{ExperimentSpec, RequestTrace};
    let dir = Dir::new("pipeline");
    fixtures(&dir);
    let trace: faasrail_trace::Trace = json(&dir.path("trace.json"));
    assert_eq!(trace.functions.len(), 2_000);
    let pool: faasrail_workloads::WorkloadPool = json(&dir.path("pool.json"));
    assert!(pool.len() > 2_000);
    let sampled: RequestTrace = json(&dir.path("reqs.json"));
    assert_eq!(sampled.len(), 300);

    let files = ["--trace", "trace.json", "--pool", "pool.json"];
    let (_, stderr) = ok(
        &dir.0,
        &[&["shrink", "--minutes", "5", "--max-rps", "5", "--out", "s.json"], &files[..]].concat(),
    );
    assert!(stderr.contains("wrote s.json"), "{stderr}");
    let spec: ExperimentSpec = json(&dir.path("s.json"));
    assert_eq!(spec.duration_minutes, 5);
    assert!(spec.peak_per_minute() <= 300, "5 rps caps a minute at 300");
    ok(&dir.0, &["requests", "--spec", "s.json", "--seed", "7", "--out", "spec-reqs.json"]);
    let expanded: RequestTrace = json(&dir.path("spec-reqs.json"));
    assert!(!expanded.is_empty() && expanded.duration_minutes == 5);

    let (stdout, _) =
        ok(&dir.0, &["simulate", "--requests", "spec-reqs.json", "--pool", "pool.json"]);
    assert!(stdout.starts_with("policy=fixed-ttl balancer=warm-first completions="), "{stdout}");
    let (stdout, _) =
        ok(&dir.0, &[&["evaluate", "--requests", "spec-reqs.json"], &files[..]].concat());
    assert_eq!(stdout.lines().count(), 7, "{stdout}");
    let (stdout, _) = ok(&dir.0, &["analyze", "--trace", "trace.json"]);
    assert!(stdout.starts_with("kind: Azure; functions: 2000;"), "{stdout}");
    let (stdout, _) = ok(
        &dir.0,
        &["compare", "--a", "spec-reqs.json", "--b", "reqs.json", "--pool", "pool.json"],
    );
    assert!(stdout.contains(&format!("requests: a={} b=300", expanded.len())), "{stdout}");
    ok(&dir.0, &["export", "--trace", "trace.json", "--out-dir", "csv"]);
    for name in ["invocations_per_function.csv", "function_durations.csv", "app_memory.csv"] {
        let csv = fs::read_to_string(dir.0.join("csv").join(name)).unwrap();
        assert!(csv.lines().count() > 1, "{name} has a header and rows");
    }

    // serve on an ephemeral port; its banner says which.
    let serve = Command::new(BIN)
        .args(["serve", "--backend", "noop", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning faasrail serve");
    let mut serve = Kill(serve);
    // Kept open until the server is killed: it must not lose its stderr.
    let mut serve_stderr = BufReader::new(serve.0.stderr.take().unwrap());
    let mut banner = String::new();
    serve_stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("serve: backend=noop at http://")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no address in the banner: {banner:?}"));

    let replay = ["replay", "--requests", "reqs.json", "--pool", "pool.json", "--target", addr];
    let outputs = ["--compression", "20", "--events", "spans.jsonl", "--metrics-out", "m.json"];
    let (stdout, _) = ok(&dir.0, &[&replay[..], &outputs[..]].concat());
    let m: faasrail_loadgen::RunMetrics = json(&dir.path("m.json"));
    assert_eq!(m.issued, 300);
    assert_eq!(m.completed + m.errors, m.issued, "every request accounted for once");
    assert!(
        stdout.starts_with(&format!("issued=300 completed={} errors={}", m.completed, m.errors))
    );
    drop(serve);
    drop(serve_stderr);

    let report = ["report", "--events", "spans.jsonl", "--metrics", "m.json"];
    let (stdout, stderr) = ok(&dir.0, &report);
    assert!(stderr.contains("agrees with m.json on every outcome counter"), "{stderr}");
    assert!(stdout.contains("300"), "{stdout}");
    ok(&dir.0, &[&report[..], &["--format", "json", "--out", "report.json"]].concat());
    let report: faasrail_telemetry::RunReport = json(&dir.path("report.json"));
    assert_eq!((report.issued, report.completed), (m.issued, m.completed));
}

/// `fleet coordinate --console 127.0.0.1:0` names the port it bound, and the
/// console answers there while the coordinator waits for its agent.
#[test]
fn coordinator_console_line_carries_the_bound_port() {
    let dir = Dir::new("console");
    fixtures(&dir);
    let coordinate = Command::new(BIN)
        .args(["fleet", "coordinate", "--requests", "reqs.json", "--pool", "pool.json"])
        .args(["--agents", "1", "--addr", "127.0.0.1:0", "--console", "127.0.0.1:0"])
        .current_dir(&dir.0)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning faasrail fleet coordinate");
    let mut coordinate = Kill(coordinate);
    // Kept open until the coordinator is killed: it must not lose its stderr.
    let mut stderr = BufReader::new(coordinate.0.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("fleet: ops console at http://")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("no address in the console line: {line:?}"));
    assert!(!addr.ends_with(":0"), "the line names the port bound, not the one asked for: {line}");

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: console\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    drop(coordinate);
    drop(stderr);
}

/// The concatenated `parts` must be refused before any work: non-zero exit,
/// `named` (the option or word at fault) and the command on stderr, nothing
/// written. `FIX/name` stands for a fixture file.
/// Run a command line that must be refused before any work, and return its
/// exit status.
fn refused(fix: &Dir, case: &str, parts: &[&[&str]], named: &str) -> Option<i32> {
    let cwd = Dir::new(case);
    let fixture = |a: &&str| a.strip_prefix("FIX/").map(|f| fix.path(f)).unwrap_or(a.to_string());
    let args: Vec<String> = parts.concat().iter().map(fixture).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = faasrail(&cwd.0, &args);
    let stderr = text(&out.stderr);
    assert!(!out.status.success(), "{case}: faasrail {args:?} must fail");
    assert!(stderr.starts_with("error: "), "{case}: {stderr}");
    assert!(stderr.contains(named), "{case}: stderr does not name {named}: {stderr}");
    let words = if ["fleet", "bench"].contains(&args[0]) { 2 } else { 1 };
    let command = format!("`faasrail {}", args[..words].join(" "));
    assert!(stderr.contains(&command) || args[0] == named, "{case}: no {command}` in: {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    assert!(out.stdout.is_empty(), "{case}: {}", text(&out.stdout));
    assert_eq!(cwd.entries(), Vec::<String>::new(), "{case}: nothing may be written");
    out.status.code()
}

const FILES: [&str; 4] = ["--requests", "FIX/reqs.json", "--pool", "FIX/pool.json"];
const REPLAY: [&str; 5] = ["replay", "--events", "spans.jsonl", "--metrics-out", "m.json"];
const SERVE: [&str; 7] =
    ["serve", "--backend", "noop", "--addr", "127.0.0.1:0", "--trace-out", "server.jsonl"];

#[test]
fn usage_errors_are_refused_before_any_work() {
    let fix = Dir::new("usage-fixtures");
    fixtures(&fix);
    malformed_fixtures(&fix);
    let refused = |case: &str, parts: &[&[&str]], named: &str| refused(&fix, case, parts, named);

    // One case per rule of the parser; a refused command line exits 2.
    let code =
        refused("unknown-option", &[&REPLAY, &FILES, &["--compresion", "10"]], "--compresion");
    assert_eq!(code, Some(2));
    let fixed = ["bench", "fixed", "--out", "bench.json"];
    refused("unknown-for-this-command", &[&fixed, &["--p99-ms", "20"]], "--p99-ms");
    refused("value-forgotten", &[&REPLAY, &FILES, &["--workers"]], "--workers");
    refused("flag-given-a-value", &[&SERVE, &["--reactor", "2"]], "--reactor");
    refused("missing-required", &[&["gen-trace", "--kind", "azure"]], "--out");
    refused("needs-reactor", &[&SERVE, &["--shards", "2"]], "--reactor");
    let mux_depth = ["--target", "127.0.0.1:1", "--mux-depth", "4"];
    refused("needs-mux", &[&REPLAY, &FILES, &mux_depth], "--mux");
    refused("needs-crash-node", &[&["simulate"], &FILES, &["--crash-at-ms", "5"]], "--crash-node");
    refused("needs-slow-node", &[&["simulate"], &FILES, &["--slow-factor", "3"]], "--slow-node");
    refused("needs-live-metrics", &[&REPLAY, &FILES, &["--window-s", "2"]], "--live-metrics");
    let server_events = ["--server-events", "FIX/reqs.json", "--prom-out", "m.prom"];
    refused("needs-events", &[&["replay"], &FILES, &server_events], "--events");
    refused("unknown-command", &[&["frobnicate", "--out", "x.json"]], "frobnicate");
    refused("stray-positional", &[&["analyze", "--trace", "FIX/trace.json", "stray"]], "stray");

    // Numbers the libraries assert on, or silently bend.
    refused("zero-workers", &[&REPLAY, &FILES, &["--workers", "0"]], "--workers");
    refused("zero-compression", &[&REPLAY, &FILES, &["--compression", "0"]], "--compression");
    refused("zero-conn-workers", &[&SERVE, &["--conn-workers", "0"]], "--conn-workers");
    let coordinate = ["fleet", "coordinate", "--report-out", "fleet.json", "--agents", "0"];
    refused("zero-agents", &[&coordinate, &FILES], "--agents");
    let both = ["--drop-frac", "0.7", "--error-frac", "0.7"];
    refused("fault-bands-overflow", &[&SERVE, &both], "--error-frac");
    refused("negative-fraction", &[&SERVE, &["--stall-frac", "-0.2"]], "--stall-frac");
    let smirnov = ["smirnov", "--trace", "FIX/trace.json", "--pool", "FIX/pool.json"];
    let smirnov = [&smirnov[..], &["--out", "reqs.json"]].concat();
    refused("zero-invocations", &[&smirnov, &["--invocations", "0"]], "--invocations");
    for rate in ["0", "inf", "nan"] {
        refused(&format!("rate-{rate}"), &[&smirnov, &["--rate", rate]], "--rate");
    }
    // A peak rate that is no finite number, or one whose 120 busiest
    // minutes would total past u64.
    let shrink = ["shrink", "--trace", "FIX/trace.json", "--pool", "FIX/pool.json"];
    let shrink = [&shrink[..], &["--out", "spec.json"]].concat();
    for rate in ["inf", "nan", "1e18"] {
        refused(&format!("shrink-rate-{rate}"), &[&shrink, &["--max-rps", rate]], "--max-rps");
    }
    // A mapping threshold the mapping asserts on (negative, NaN) or that is
    // no finite number, and an arrival model no later command could read.
    for threshold in ["-0.5", "nan", "inf"] {
        let case = format!("shrink-threshold-{threshold}");
        let code = refused(&case, &[&shrink, &["--threshold", threshold]], "--threshold");
        assert_eq!(code, Some(2), "{case}");
    }
    for iat in
        ["bursty:inf", "bursty:nan", "bursty:-1", "bursty:1e200", "bursty:1e-200", "gaussian"]
    {
        for (command, args) in [("shrink", &shrink), ("smirnov", &smirnov)] {
            let case = format!("{command}-iat-{iat}");
            assert_eq!(refused(&case, &[args, &["--iat", iat]], "--iat"), Some(2), "{case}");
        }
    }
    // Cluster, fault and jitter numbers the simulator's validate rules
    // refuse, before a request is read or a trace is built.
    let simulate = [&["simulate"][..], &FILES].concat();
    let lab = ["lab", "run", "--scale", "small", "--out", "lab.json"];
    let slow = |x| ["--slow-node", "0", "--slow-factor", x];
    let u64_max_ms = ["--crash-node", "0", "--crash-at-ms", "18446744073709551615"];
    let cases: [(&str, &[&str], &[&str], &str); 14] = [
        ("simulate-nodes-0", &simulate, &["--nodes", "0"], "--nodes"),
        ("simulate-cores-0", &simulate, &["--cores", "0"], "--cores"),
        ("simulate-jitter-inf", &simulate, &["--jitter", "inf"], "--jitter"),
        ("simulate-jitter-negative", &simulate, &["--jitter", "-1"], "--jitter"),
        ("simulate-slow-inf", &simulate, &slow("inf"), "--slow-factor"),
        ("simulate-slow-negative", &simulate, &slow("-2"), "--slow-factor"),
        ("simulate-slow-nan", &simulate, &slow("nan"), "--slow-factor"),
        ("simulate-crash-overflow", &simulate, &u64_max_ms, "--crash-at-ms"),
        ("lab-nodes-0", &lab, &["--nodes", "0"], "--nodes"),
        ("lab-cores-0", &lab, &["--cores", "0"], "--cores"),
        ("lab-memory-nan", &lab, &["--memory-mb", "nan"], "--memory-mb"),
        ("lab-memory-inf", &lab, &["--memory-mb", "inf"], "--memory-mb"),
        ("lab-jitter-inf", &lab, &["--jitter", "inf"], "--jitter"),
        ("lab-jitter-negative", &lab, &["--jitter", "-1"], "--jitter"),
    ];
    for (case, command, numbers, named) in cases {
        assert_eq!(refused(case, &[command, numbers], named), Some(2), "{case}");
    }

    // Files the option tables cannot check: refused before any output is
    // created, by the option that names them.
    let trace = ["smirnov", "--pool", "FIX/pool.json", "--out", "r.json", "--trace"];
    refused("trace-bad-duration", &[&trace, &["FIX/bad-trace.json"]], "bad duration -1 ms");
    refused("trace-empty", &[&trace, &["FIX/empty-trace.json"]], "no invocations");
    let stray = ["--requests", "FIX/stray-reqs.json", "--pool", "FIX/pool.json"];
    let named = "request 5 names workload 99999";
    refused(
        "stray-workload-evaluate",
        &[&["evaluate", "--trace", "FIX/trace.json"], &stray],
        named,
    );
    refused("stray-workload-replay", &[&REPLAY, &stray], named);
    refused("stray-workload-simulate", &[&["simulate"], &stray], named);
    let late = ["--trace", "FIX/late-trace.json"];
    let named = "minute series must have strictly ascending minutes below 1440";
    refused("trace-late-minute-evaluate", &[&["evaluate"], &late, &FILES], named);
    refused("trace-late-minute-export", &[&["export", "--out-dir", "csv"], &late], named);
    let bad = ["--trace", "FIX/bad-trace.json"];
    refused("trace-bad-duration-evaluate", &[&["evaluate"], &bad, &FILES], "bad duration -1 ms");
    refused(
        "trace-bad-duration-export",
        &[&["export", "--out-dir", "csv"], &bad],
        "bad duration -1 ms",
    );
    refused(
        "trace-empty-analyze",
        &[&["analyze", "--trace", "FIX/empty-trace.json"]],
        "no invocations",
    );
    let ragged = ["requests", "--spec", "FIX/ragged-spec.json", "--out", "r.json"];
    refused("spec-ragged", &[&ragged], "entry for function 0 has 3 minutes, spec has 2");
}

/// Malformed copies of the fixtures: a trace whose first function is invoked
/// at minute 2000 of a 1440-minute day, one with a negative duration, one
/// with no functions, a request trace whose sixth request names a workload
/// the pool lacks, and a two-minute spec with a three-minute entry.
fn malformed_fixtures(dir: &Dir) {
    use faasrail_core::{ExperimentSpec, IatModel, SpecEntry};
    use faasrail_workloads::WorkloadId;
    fn write<T: serde::Serialize>(dir: &Dir, name: &str, value: &T) {
        fs::write(dir.path(name), serde_json::to_string(value).unwrap()).unwrap();
    }
    let mut trace: faasrail_trace::Trace = json(&dir.path("trace.json"));
    let original = trace.functions[0].clone();
    trace.functions[0].minutes = serde_json::from_str(r#"{"entries":[[2000,7]]}"#).unwrap();
    write(dir, "late-trace.json", &trace);
    trace.functions[0] = original;
    trace.functions[0].avg_duration_ms = -1.0;
    write(dir, "bad-trace.json", &trace);
    trace.functions.clear();
    write(dir, "empty-trace.json", &trace);
    let mut reqs: faasrail_core::RequestTrace = json(&dir.path("reqs.json"));
    reqs.requests[5].workload = WorkloadId(99_999);
    write(dir, "stray-reqs.json", &reqs);
    let entry = SpecEntry {
        function_index: 0,
        workload: WorkloadId(0),
        alternates: vec![],
        trace_duration_ms: 10.0,
        per_minute: vec![1, 2, 3],
    };
    let spec = ExperimentSpec {
        duration_minutes: 2,
        target_max_rps: 1.0,
        iat: IatModel::Poisson,
        entries: vec![entry],
    };
    write(dir, "ragged-spec.json", &spec);
}

#[test]
fn help_is_the_readme_reference() {
    let cwd = Dir::new("help");
    let readme =
        fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md")).unwrap();
    let (overview, _) = ok(&cwd.0, &["--help"]);
    assert!(readme.contains(&overview), "README lacks the overview `faasrail --help` prints");
    let listed = overview.split("commands:\n").nth(1).expect("a commands section");
    let commands: Vec<&str> =
        listed.lines().map(|l| l.trim_start().split("  ").next().unwrap()).collect();
    assert_eq!(commands.len(), 21, "{commands:?}");
    for command in commands {
        let words: Vec<&str> = command.split(' ').chain(["--help"]).collect();
        let (help, _) = ok(&cwd.0, &words);
        assert!(help.starts_with(&format!("faasrail {command} — ")), "{help}");
        assert!(
            readme.contains(&format!("### `faasrail {command}`\n\n```text\n{help}```\n")),
            "README's section for `faasrail {command}` is not what its --help prints"
        );
    }
    // --help wins wherever it stands, and nothing else on the line is checked.
    let (help, _) = ok(&cwd.0, &["serve", "--no-such-option", "--help"]);
    let rows: Vec<&str> = help.lines().collect();
    let reactor = rows.iter().position(|l| l.starts_with("  --reactor ")).expect("--reactor row");
    assert!(rows[reactor + 1].starts_with("    --shards N "), "--shards nests under --reactor");
    // The four options no document listed before the tables.
    for (command, option) in [
        (&["fleet", "coordinate"][..], "--probes N"),
        (&["smirnov"], "--iat MODEL"),
        (&["simulate"], "--jitter SIGMA"),
        (&["calibrate"], "--out FILE"),
    ] {
        let (help, _) = ok(&cwd.0, &[command, &["--help"]].concat());
        assert!(help.contains(option), "{command:?}: {help}");
    }
    assert_eq!(cwd.entries(), Vec::<String>::new());
}
