#!/usr/bin/env bash
# The gateway's contract is defined once, in crates/gateway/src/core.rs, the
# client's policy once, in crates/gateway/src/client.rs, and the wire dialect
# once, in crates/reactor/src/http1.rs. Fail if a piece of any of them turns up
# again in a transport or in the blocking adapters. The blocking transport's
# syscall floor is held the same way: one `write_all` per message in http.rs,
# socket timeouts set in one place in pool.rs. The fleet is held the same way:
# what a fleet run decides lives in crates/fleet/src/control.rs, free of IO, and
# coordinator.rs is the sockets around it; what one agent's session decides lives
# in crates/fleet/src/session.rs, as free of IO, and agent.rs is its executor; the
# link's timeouts are armed in wire.rs for both ends. And the sandbox lifecycle: warm or
# cold, eviction, TTL and idle accounting live in crates/faas-sim/src/lifecycle.rs,
# which names no clock, lock or thread; engine.rs and rt_backend.rs execute it,
# filing their events and timers in one queue (crates/faas-sim/src/queue.rs,
# the only binary heap in the crate).
# And the paper's four properties: each statistic is stated once (stats/timeseries.rs,
# stats/summary.rs, core/evaluate.rs; core/tests/diff_mapping.rs keeps the replaced
# constructions as oracles) and the reproduction is one program over them.
# And what a run reports: the latency stages are folded once (telemetry/report.rs,
# which the bench harness calls), the progress line is formatted once
# (telemetry::WindowStats::summary), the lateness histogram is built once
# (LogHistogram::lateness_seconds), and a fleet books aborted work on one path.
# And the server front: one Gateway and one Handle over both engines (front.rs),
# the wake-elision protocol once (reactor/src/inbox.rs, under the reactor shards
# and the mux driver), and one read drain (ReadBuf::drain_from).
# Both engines admit every invocation through one bounded channel and run it
# in one Core::run_invoke, the delay band included.
# And every job once, nothing without a caller: a recorder shard is a Snapshot,
# a coordinator binds its console one way (with_console) and its `--live` line
# prints the window History published, LRU eviction is
# KeepAlivePolicy::pick_victim's provided body, and the public items only their
# own tests called stay deleted.
# And Spec mode's shrink stays sparse: shrink() bins every function straight
# into experiment minutes and scales only the non-zero cells, never a dense day,
# a per-Function series or the dense adapters over them; the lab's full-day
# schedule groups without building an aggregation; and largest-remainder
# apportionment is called from one place in the core (rate_scaling.rs).
# And one writer of event-log lines: TelemetryEvent::write_jsonl (span.rs) encodes
# each line JsonlSink writes, and fleet coordinate's --events log is written by
# the same encoder.
# And one definition per accounting fact: a request's minute is counted by
# telemetry::tally_minute, RunMetrics maps itself to and from a Snapshot, one
# midpoint estimator (telemetry::midpoint_offset) serves the span join and the
# fleet's clock probes, OutcomeClass alone knows a class's position and label,
# and faasrail_trace::Scale alone names the trace sizes; `replay --prom-out`
# writes the final RunMetrics' snapshot and needs no live recorder.
# And the gateway client keeps only the state it needs: retry jitter is a
# stateless draw keyed by the invocation (no shared RNG, no precomputed
# schedule), a half-open breaker sends one probe (no probe count, no
# fast-fail counter), the connect budget and pool capacity are constants, and
# outcomes are counted by the replayer alone.
# And a replay has one job source and one worker body: under every pacing a
# worker claims the next request from the trace through one cursor (no pacer
# thread, no channel, no spinning wait), and one function invokes, records and
# emits each request. A real-time wait is one timed sleep: nothing in loadgen
# yields its CPU, and one line sets a real-time worker's timer slack.
# And a simulation runs its engine on the caller's thread: the one thread the
# core and the simulator start is the arrival hand-off's helper
# (crates/faas-sim/src/handoff.rs), one scope per simulation.
# And Smirnov mode maps each request through one definition per step: a band's
# candidate is picked by mapping::first_min alone (no scan of its own in
# smirnov.rs), a CDF is searched by WeightedEcdf::inverse alone (no
# partition_point over `cum` outside crates/stats/src/ecdf.rs), and a band is
# found by its key in smirnov.rs's BandTable (no HashMap probe there).
# Then print what each file weighs (lines above its inline test module), and
# each crate and the workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

# A file's non-test lines: all of it above its inline test module. A
# `#[cfg(test)] mod name;` declaration (one line or two) names a test file of
# its own, so it is skipped and the reading goes on.
nontest() {
    awk '
        held && /^[[:space:]]*mod [A-Za-z0-9_]+;/ { held = 0; next }
        held { exit }
        /#\[cfg\(test\)\][[:space:]]*mod [A-Za-z0-9_]+;/ { next }
        /#\[cfg\(test\)\]/ { held = 1; next }
        { print }
    ' "$1"
}

fail=0
refuse() { # file, owner, patterns...
    local file=$1 owner=$2 pat
    shift 2
    for pat in "$@"; do
        if nontest "$file" | grep -nF -- "$pat"; then
            echo "error: $file: \`$pat\` belongs in $owner" >&2
            fail=1
        fi
    done
}

for transport in crates/gateway/src/server.rs crates/gateway/src/reactor_server.rs; do
    refuse "$transport" crates/gateway/src/core.rs \
        'Fault::' 'ServerSpan {' '"/healthz"' '"bad invocation request' 'queue_depth.fetch_add'
done
for transport in crates/gateway/src/pool.rs crates/gateway/src/mux.rs; do
    refuse "$transport" crates/gateway/src/client.rs \
        'InvocationResult::' 'serde_json::' 'breaker.' '"HTTP 429'
done
refuse crates/gateway/src/http.rs crates/reactor/src/http1.rs "split_once(':')" '"content-length"'
for file in crates/*/src/*.rs crates/*/src/*/*.rs; do
    refuse "$file" 'nowhere: half-open sends one probe, and nothing reads a fast-fail count' \
        'half_open_probes' 'fast_fails'
done
refuse crates/gateway/src/backoff.rs 'nowhere: RetryPolicy::delay(retry, invocation_key) is the schedule' \
    'fn schedule('
refuse crates/gateway/src/client.rs 'nowhere: jitter is a stateless draw (backoff::mix_fraction)' \
    'SplitMix64'
for file in crates/gateway/src/client.rs crates/gateway/src/mux.rs; do
    refuse "$file" 'constants (client::CONNECT_TIMEOUT, pool::POOL_CAPACITY), not settings' \
        'pool_capacity:' 'connect_timeout:'
done

times() { # count, file, why, patterns...: each on exactly that many non-test lines
    local want=$1 file=$2 why=$3 pat n
    shift 3
    for pat in "$@"; do
        n=$(nontest "$file" | grep -cF -- "$pat" || true)
        if [ "$n" -ne "$want" ]; then
            echo "error: $file: \`$pat\` on $n lines, expected $want: $why" >&2
            fail=1
        fi
    done
}
once() { times 1 "$@"; }

once crates/gateway/src/http.rs 'head and body leave in one write (write_message)' 'write_all('
once crates/gateway/src/pool.rs 'a socket is armed only where its timeout changes (Conn::arm)' \
    'set_read_timeout' 'set_write_timeout'

across() { # count, why, pattern, files...: on exactly that many non-test lines of them all
    local want=$1 why=$2 pat=$3 n
    shift 3
    n=$(for file in "$@"; do nontest "$file"; done | grep -cF -- "$pat" || true)
    if [ "$n" -ne "$want" ]; then
        echo "error: \`$pat\` on $n non-test lines, expected $want: $why" >&2
        fail=1
    fi
}
for file in crates/gateway/src/*.rs; do
    refuse "$file" 'crates/reactor/src/inbox.rs (Inbox)' 'parked' 'notified' 'Waker::new('
    refuse "$file" 'nowhere: every invocation is admitted, then run by Core::run_invoke' \
        'BufPool' 'preset_stamps' 'DispatchDelayed' 'Delayed {' 'Condvar'
done
across 1 'one server front (front.rs) spawns either engine' 'fn spawn(self)' crates/gateway/src/*.rs
across 1 'one handler stage (delay, backend, 200) for both engines' 'fn run_invoke' \
    crates/gateway/src/*.rs
# Each engine's admission queue is one bounded channel (mux.rs's one-slot
# rendezvous is a client's, not an admission queue).
for engine in crates/gateway/src/server.rs crates/gateway/src/reactor_server.rs; do
    once "$engine" 'its admission queue is one bounded channel behind Core::admit' 'sync_channel('
done
for gone in 'struct Mailbox' 'struct Submit' 'struct ReactorHandle' 'AnyHandle' 'macro_rules! server'; do
    if grep -rnF -- "$gone" crates tests examples; then
        echo "error: \`$gone\` is back: one Gateway, one Handle, one Inbox" >&2
        fail=1
    fi
done
# The fleet's own `struct Slot` (control.rs) is an agent slot, not a rendezvous.
if grep -rnF -- 'struct Slot' crates/gateway crates/reactor; then
    echo 'error: `struct Slot` is back: a mux exchange completes over a one-slot channel' >&2
    fail=1
fi

refuse crates/fleet/src/control.rs crates/fleet/src/coordinator.rs \
    'TcpStream' 'read_frame' 'write_frame' 'wall_clock_us' 'Instant' 'thread::' 'Mutex' 'Atomic'
refuse crates/fleet/src/coordinator.rs crates/fleet/src/control.rs \
    'plan_grants' 'prefix_metrics' 'remainder_after' '.lock()'
across 1 'the core is built in Coordinator::run and nowhere else' 'Control::new(' \
    crates/fleet/src/*.rs

refuse crates/fleet/src/session.rs crates/fleet/src/agent.rs \
    'TcpStream' 'read_frame' 'write_frame' 'wall_clock_us' 'Instant' 'thread::' 'sleep' 'Mutex' 'Atomic'
refuse crates/fleet/src/agent.rs crates/fleet/src/session.rs 'AtomicUsize' 'pump_done' 'Mutex<Vec'
once crates/fleet/src/agent.rs 'one work path, one core per session' 'replay_resumed(' 'Session::new('
times 2 crates/fleet/src/agent.rs 'connect retry and rejoin backoff; the rest waits on the channel' \
    'thread::sleep'
for end in crates/fleet/src/agent.rs crates/fleet/src/coordinator.rs; do
    refuse "$end" 'crates/fleet/src/wire.rs (arm)' 'set_read_timeout' 'set_write_timeout'
done

for gone in 'struct Counters' 'replay_until' 'with_percentile' 'bind_with_capacity' 'live_windows' \
    'wasserstein1_log10' 'fn autocorrelation' 'struct Pareto' 'struct Weibull' 'struct UniformRange' \
    'fn scale_volume' 'fn stage_metrics' 'fn epoll_modify' 'fn next_timeout' \
    'ExperimentSpec::merge'; do
    if grep -rnF -- "$gone" crates tests examples; then
        echo "error: \`$gone\` is back: each job is done once, and nothing stays without a caller" >&2
        fail=1
    fi
done
refuse crates/fleet/src/coordinator.rs 'Coordinator::with_console, the one way to bind a console' \
    'pub console:'
once crates/faas-sim/src/keepalive.rs 'LRU eviction is the provided pick_victim; GreedyDual overrides it' \
    'min_by_key(|(_, s)| s.last_used_ms)'

refuse crates/faas-sim/src/lifecycle.rs 'its executors (engine.rs, rt_backend.rs)' \
    'Instant' 'Mutex' 'thread::' 'sleep'
for executor in crates/faas-sim/src/engine.rs crates/faas-sim/src/rt_backend.rs; do
    refuse "$executor" crates/faas-sim/src/lifecycle.rs \
        'take_idle(' 'push_idle(' 'pick_victim(' 'HashMap'
done
for file in crates/faas-sim/src/*.rs; do
    [ "$file" = crates/faas-sim/src/queue.rs ] && continue
    refuse "$file" 'crates/faas-sim/src/queue.rs, the one event queue of both executors' 'BinaryHeap'
done
for file in crates/core/src/*.rs crates/faas-sim/src/*.rs; do
    [ "$file" = crates/faas-sim/src/handoff.rs ] && continue
    refuse "$file" 'crates/faas-sim/src/handoff.rs, the one arrival hand-off' \
        'thread::spawn' 'thread::scope'
done
once crates/faas-sim/src/handoff.rs 'one helper thread per simulation (feed)' \
    'thread::scope(' 'scope.spawn('
refuse crates/faas-sim/src/handoff.rs 'feed, whose scope joins the helper' 'thread::spawn'
for gone in 'WarmEntry' 'CacheState' 'fn admit'; do
    if grep -rnF -- "$gone" crates/faas-sim/src; then
        echo "error: crates/faas-sim/src: \`$gone\` is back: the wall-clock node has no cache model of its own" >&2
        fail=1
    fi
done

refuse crates/core/src/shrinkray.rs \
    'nowhere: the grouping walk bins entries (TimeScaling::minute_bins), rate_scaling::scale_cells scales them' \
    '.dense()' 'time_scaling.apply(' 'scale_request_rate(' 'Vec<Vec<u64>>'
refuse crates/core/src/spec.rs 'nowhere: nothing merges two specs (ExperimentSpec::merge is gone)' \
    'fn merge('
refuse crates/core/src/schedule.rs 'nowhere: from_trace_day reads no group series (aggregate::Grouping)' \
    'aggregate('
across 1 'one rate-scaling kernel apportions each column (rate_scaling::scale_cells)' \
    'apportion_in_place(' crates/core/src/*.rs

refuse crates/telemetry/src/sink.rs 'TelemetryEvent::write_jsonl' \
    'serde_json::to_writer'
across 1 'one event-line encoder (TelemetryEvent::write_jsonl)' 'fn write_jsonl' \
    crates/telemetry/src/*.rs
refuse crates/cli/src/fleet.rs 'TelemetryEvent::write_jsonl' 'serde_json::to_string(event)'

only_in() { # owner, pattern: on no non-test line of the product, tests/ or examples/ but the owner's
    local file
    for file in crates/*/src/*.rs crates/*/src/*/*.rs tests/*.rs tests/*/*.rs examples/*.rs; do
        [ "$file" = "$1" ] || refuse "$file" "$1" "$2"
    done
}
only_in crates/reactor/src/buf.rs 'fill_from('
only_in crates/stats/src/timeseries.rs 'abs()).sum::<f64>()'
only_in crates/stats/src/summary.rs 'as f64 / grand as f64'
only_in crates/core/src/evaluate.rs 'expect("mapped")'
only_in 'RequestTrace::duration_wecdf, which builds it from counts' '.map(|d| (d, 1.0))'
once crates/stats/src/timeseries.rs 'one load-shape MAE (load_shape_mae)' 'abs()).sum::<f64>()'
once crates/core/src/evaluate.rs 'one mapped-workload ECDF (mapped_wecdf)' 'expect("mapped")'
refuse crates/core/src/smirnov.rs 'crates/core/src/mapping.rs (first_min)' '.reduce(' 'min_by'
refuse crates/core/src/smirnov.rs 'nowhere: a band is found by its key in BandTable' 'HashMap'
across 1 'one band selection rule (mapping::first_min)' 'fn first_min' crates/core/src/*.rs
only_in crates/stats/src/ecdf.rs 'cum.partition_point('
only_in crates/stats/src/ecdf.rs 'cumulative().partition_point('
if [ "$(cat crates/bench/src/bin/*.rs | grep -c '^fn main')" -ne 1 ] || grep -q 'BINS=' scripts/reproduce.sh; then
    echo 'error: a figure is a row of figures::FIGURES under the one `fn main` of' \
        'crates/bench/src/bin, and reproduce.sh is a build and one `repro all`' >&2
    fail=1
fi

across 1 'one progress-line formatter (telemetry::WindowStats::summary)' 'offered {:.1} rps' \
    crates/telemetry/src/*.rs crates/fleet/src/*.rs
for file in crates/*/src/*.rs crates/*/src/*/*.rs tests/*.rs tests/*/*.rs examples/*.rs; do
    case $file in crates/stats/src/*) ;; *)
        refuse "$file" 'crates/stats/src/histogram.rs (LogHistogram::lateness_seconds)' \
            'LogHistogram::new(1e-6, 60.0' ;;
    esac
    refuse "$file" 'nowhere: one fold of the stages (RunReport), one path for aborted work' \
        'QuantileAcc' 'StageAcc' 'metrics_from_snapshot' 'cfg.reshard' 'raw_windows'
done

for file in crates/*/src/*.rs crates/*/src/*/*.rs; do
    refuse "$file" 'nowhere: tally_minute, RunMetrics::{snapshot,from_snapshot}, midpoint_offset, OutcomeClass::index' \
        'fn class_index' 'fn snapshot_of' 'fn per_minute_of' 'fn bump' 'fn estimate_offset' \
        'fn offset_from_probes'
done
only_in crates/trace/src/scale.rs '"paper" =>'
if nontest crates/cli/src/online.rs | grep -B3 -A1 -F 'Recorder::new(' | grep -F 'prom-out'; then
    echo 'error: crates/cli/src/online.rs: `--prom-out` writes RunMetrics::snapshot;' \
        'a Recorder is built for --live-metrics alone' >&2
    fail=1
fi

once crates/loadgen/src/replay.rs 'one worker body (serve) for paced and drained jobs' \
    'invoke_isolated(' 'TelemetryEvent::Invocation('
refuse crates/loadgen/src/replay.rs 'nowhere: every pacing claims from the trace' \
    'mpsc' '.recv(' 'spin_loop'
once crates/loadgen/src/replay.rs 'one job source for every pacing' 'fetch_add('
for file in crates/loadgen/src/*.rs; do
    refuse "$file" 'nowhere: a real-time wait sleeps (replay.rs::wait_until)' 'yield_now'
done
across 1 'one timer-slack setting (replay.rs::tighten_timer_slack)' 'PR_SET_TIMERSLACK' \
    crates/loadgen/src/*.rs

weigh() { # label, files...
    local label=$1 total=0 file lines
    shift
    for file in "$@"; do
        lines=$(nontest "$file" | wc -l)
        total=$((total + lines))
        printf '%6d %s\n' "$lines" "$file"
    done
    printf '%6d non-test lines, %s\n' "$total" "$label"
}
weigh_crates() { # one line per crate (the root package is `.`), then the workspace
    local dir files total=0 lines
    for dir in . crates/*; do
        files=$(find "$dir/src" -name '*.rs' | sort)
        lines=$(for file in $files; do nontest "$file"; done | wc -l)
        total=$((total + lines))
        printf '%6d %s\n' "$lines" "$dir"
    done
    printf '%6d non-test lines, workspace\n' "$total"
}
weigh 'gateway, reactor and the CLI front' crates/gateway/src/*.rs crates/reactor/src/*.rs \
    crates/cli/src/transport.rs
weigh fleet crates/fleet/src/*.rs
weigh faas-sim crates/faas-sim/src/*.rs
weigh 'bench (reproduction; harness/ apart)' crates/bench/src/*.rs crates/bench/src/bin/*.rs
weigh 'bench harness' crates/bench/src/harness/*.rs
weigh telemetry crates/telemetry/src/*.rs
weigh loadgen crates/loadgen/src/*.rs
weigh core crates/core/src/*.rs
weigh_crates
exit "$fail"
