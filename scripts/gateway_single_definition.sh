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
# which names no clock, lock or thread; engine.rs and rt_backend.rs execute it.
# And the paper's four properties: each statistic is stated once (stats/timeseries.rs,
# stats/summary.rs, core/evaluate.rs; core/tests/diff_mapping.rs keeps the replaced
# constructions as oracles) and the reproduction is one program over them.
# Then print what each file weighs (lines above its first `#[cfg(test)]`).
set -euo pipefail
cd "$(dirname "$0")/.."

nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

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
        'Fault::' 'ServerSpan {' '"/healthz"' '"bad invocation request'
done
for transport in crates/gateway/src/pool.rs crates/gateway/src/mux.rs; do
    refuse "$transport" crates/gateway/src/client.rs \
        'InvocationResult::' 'serde_json::' 'breaker.' '"HTTP 429'
done
refuse crates/gateway/src/http.rs crates/reactor/src/http1.rs "split_once(':')" '"content-length"'

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

refuse crates/fleet/src/control.rs crates/fleet/src/coordinator.rs \
    'TcpStream' 'read_frame' 'write_frame' 'wall_clock_us' 'Instant' 'thread::' 'Mutex' 'Atomic'
refuse crates/fleet/src/coordinator.rs crates/fleet/src/control.rs \
    'plan_grants' 'prefix_metrics' 'remainder_after' '.lock()'
n=$(for file in crates/fleet/src/*.rs; do nontest "$file"; done | grep -cF 'Control::new(' || true)
if [ "$n" -ne 1 ]; then
    echo "error: crates/fleet/src: \`Control::new(\` on $n non-test lines, expected 1:" \
        'the core is built in Coordinator::run and nowhere else' >&2
    fail=1
fi

refuse crates/fleet/src/session.rs crates/fleet/src/agent.rs \
    'TcpStream' 'read_frame' 'write_frame' 'wall_clock_us' 'Instant' 'thread::' 'sleep' 'Mutex' 'Atomic'
refuse crates/fleet/src/agent.rs crates/fleet/src/session.rs 'AtomicUsize' 'pump_done' 'Mutex<Vec'
once crates/fleet/src/agent.rs 'one work path, one core per session' 'replay_resumed(' 'Session::new('
times 2 crates/fleet/src/agent.rs 'connect retry and rejoin backoff; the rest waits on the channel' \
    'thread::sleep'
for end in crates/fleet/src/agent.rs crates/fleet/src/coordinator.rs; do
    refuse "$end" 'crates/fleet/src/wire.rs (arm)' 'set_read_timeout' 'set_write_timeout'
done

refuse crates/faas-sim/src/lifecycle.rs 'its executors (engine.rs, rt_backend.rs)' \
    'Instant' 'Mutex' 'thread::' 'sleep'
for executor in crates/faas-sim/src/engine.rs crates/faas-sim/src/rt_backend.rs; do
    refuse "$executor" crates/faas-sim/src/lifecycle.rs \
        'take_idle(' 'push_idle(' 'pick_victim(' 'HashMap'
done
for gone in 'WarmEntry' 'CacheState' 'fn admit'; do
    if grep -rnF -- "$gone" crates/faas-sim/src; then
        echo "error: crates/faas-sim/src: \`$gone\` is back: the wall-clock node has no cache model of its own" >&2
        fail=1
    fi
done

only_in() { # owner, pattern: on no non-test line of the product, tests/ or examples/ but the owner's
    local file
    for file in crates/*/src/*.rs crates/*/src/*/*.rs tests/*.rs tests/*/*.rs examples/*.rs; do
        [ "$file" = "$1" ] || refuse "$file" "$1" "$2"
    done
}
only_in crates/stats/src/timeseries.rs 'abs()).sum::<f64>()'
only_in crates/stats/src/summary.rs 'as f64 / grand as f64'
only_in crates/core/src/evaluate.rs 'expect("mapped")'
only_in 'RequestTrace::duration_wecdf, which builds it from counts' '.map(|d| (d, 1.0))'
once crates/stats/src/timeseries.rs 'one load-shape MAE (load_shape_mae)' 'abs()).sum::<f64>()'
once crates/core/src/evaluate.rs 'one mapped-workload ECDF (mapped_wecdf)' 'expect("mapped")'
if [ "$(cat crates/bench/src/bin/*.rs | grep -c '^fn main')" -ne 1 ] || grep -q 'BINS=' scripts/reproduce.sh; then
    echo 'error: a figure is a row of figures::FIGURES under the one `fn main` of' \
        'crates/bench/src/bin, and reproduce.sh is a build and one `repro all`' >&2
    fail=1
fi

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
weigh gateway crates/gateway/src/*.rs crates/reactor/src/http1.rs
weigh fleet crates/fleet/src/*.rs
weigh faas-sim crates/faas-sim/src/*.rs
weigh 'bench (reproduction; harness/ apart)' crates/bench/src/*.rs crates/bench/src/bin/*.rs
exit "$fail"
