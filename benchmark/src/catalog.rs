//! The names the benchmark speaks: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root must list
//! exactly these (a test checks it), and every run emits exactly these.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "shrink_spec_azure",
        why: "Spec mode on 20k skewed Azure functions: aggregate, map_functions and per-function series scaling dominate, per-request sampling is small",
    },
    WorkloadDef {
        name: "smirnov_huawei",
        why: "Smirnov mode on 200 hot Huawei functions, 500k samples: WeightedEcdf::inverse and per-request candidate lookup dominate, aggregation is negligible",
    },
    WorkloadDef {
        name: "replay_noop_reactor",
        why: "Closed-loop drain, 8 in flight (the traced run adds an open loop at 15k rps): mux client over loopback into the reactor gateway, noop handler, so codec and handoffs are all the cost",
    },
    WorkloadDef {
        name: "replay_noop_threaded",
        why: "Same load through the pooled client and the threaded gateway: the other transport, no reactor code in the path",
    },
    WorkloadDef {
        name: "replay_spec_inproc",
        why: "Spec-mode trace drained (the traced run first replays it bursty, time-compressed) into an in-process noop backend with a JSONL event log: loadgen and telemetry alone, no socket",
    },
    WorkloadDef {
        name: "sim_fat8",
        why: "Lab grid over a scaled Azure day on 8 nodes x 64 cores: arrival cursor, heap, sandbox lifecycle and metrics dominate, the balancer view is cheap",
    },
    WorkloadDef {
        name: "sim_wide256",
        why: "Same day, cores and memory on 256 nodes x 2 cores: only the node count differs, so the gap to sim_fat8 is the per-arrival node view and pick_node scan",
    },
];

/// What every untraced run reports. README.md says what each means on
/// each workload and how the bounds follow from baseline.json.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("items_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// What every traced run reports. A metric reads 0 on a workload that
/// never enters its layer.
pub const PER_LAYER: &[MetricDef] = &[
    // Isolated calls into one layer, the same in every traced run.
    lower("stats.wecdf_inverse_ns", "ns"),
    lower("stats.sampler_ns", "ns"),
    lower("stats.wecdf_build_ms", "ms"),
    lower("stats.ks_weighted_ms", "ms"),
    lower("stats.loghist_record_ns", "ns"),
    lower("core.arrival_next_ns", "ns"),
    lower("loadgen.unpaced_dispatch_ns", "ns"),
    lower("loadgen.invocation_json_encode_ns", "ns"),
    lower("loadgen.invocation_json_decode_ns", "ns"),
    lower("loadgen.shard_filter_ns_per_req", "ns"),
    lower("telemetry.ring_emit_ns", "ns"),
    lower("telemetry.jsonl_emit_ns", "ns"),
    lower("telemetry.recorder_record_ns", "ns"),
    lower("reactor.parse_request_ns", "ns"),
    lower("reactor.parse_response_ns", "ns"),
    lower("reactor.write_request_head_ns", "ns"),
    lower("reactor.write_response_head_ns", "ns"),
    lower("reactor.writebuf_stage_flush_ns", "ns"),
    lower("reactor.wheel_insert_ns", "ns"),
    lower("reactor.wheel_advance_ns_per_entry", "ns"),
    lower("reactor.waker_roundtrip_us", "us"),
    lower("gateway.http_read_request_ns", "ns"),
    lower("gateway.http_write_response_ns", "ns"),
    lower("gateway.invoke_rtt_p50_us.reactor", "us"),
    lower("gateway.invoke_rtt_p50_us.threaded", "us"),
    lower("gateway.stats_render_us", "us"),
    lower("faas-sim.pick_node_ns.n8", "ns"),
    lower("faas-sim.pick_node_ns.n256", "ns"),
    lower("fleet.frame_roundtrip_us.assign", "us"),
    lower("fleet.frame_roundtrip_ns.progress", "ns"),
    lower("fleet.plan_grants_us", "us"),
    // Read off the traced workload: span self times and counts.
    lower("trace.azure_generate_s", "s"),
    lower("trace.huawei_generate_s", "s"),
    lower("workloads.pool_build_ms", "ms"),
    lower("workloads.pool_json_roundtrip_ms", "ms"),
    lower("core.select_day_ms", "ms"),
    lower("core.aggregate_ms", "ms"),
    lower("core.map_functions_ms", "ms"),
    lower("core.time_scaling_ms", "ms"),
    lower("core.rate_scaling_ms", "ms"),
    lower("core.assemble_spec_ms", "ms"),
    lower("core.generate_requests_ms", "ms"),
    lower("core.spec_json_ms", "ms"),
    lower("core.evaluate_ms", "ms"),
    higher("core.phase_sum_frac", "frac"),
    lower("core.smirnov_ns_per_request", "ns"),
    higher("core.mapping_within_threshold_frac", "frac"),
    lower("core.schedule_model_build_ms", "ms"),
    lower("loadgen.since_due_p50_us", "us"),
    lower("loadgen.since_due_tail_us", "us"),
    higher("loadgen.since_due_tail_pct", "%"),
    higher("loadgen.since_due_samples", "count"),
    lower("loadgen.open_cpu_us_per_req", "us"),
    lower("loadgen.pacer_lateness_p50_us", "us"),
    lower("loadgen.lateness_p99_ms", "ms"),
    lower("loadgen.queue_wait_p50_us", "us"),
    lower("loadgen.queue_wait_p99_us", "us"),
    lower("loadgen.response_p99_ms", "ms"),
    lower("gateway.overhead_p50_us", "us"),
    lower("gateway.server_queue_p50_us", "us"),
    lower("gateway.server_read_p50_us", "us"),
    lower("gateway.server_handler_p50_us", "us"),
    lower("gateway.server_flush_p50_us", "us"),
    lower("gateway.overhead_unattributed_frac.reactor", "frac"),
    lower("gateway.overhead_unattributed_frac.threaded", "frac"),
    higher("gateway.requests_served", "count"),
    lower("gateway.shed", "count"),
    lower("faas-sim.ns_per_event.fat8", "ns"),
    lower("faas-sim.ns_per_event.wide256", "ns"),
    higher("faas-sim.events", "count"),
    higher("faas-sim.arrivals", "count"),
    lower("faas-sim.cold_start_rate", "frac"),
    lower("faas-sim.max_queue", "count"),
    lower("faas-sim.cursor_share", "frac"),
    lower("faas-sim.pick_node_gap_share", "frac"),
    lower("faas-sim.observed_overhead_frac", "frac"),
    higher("lab.parallel2_speedup", "ratio"),
    lower("tracing_overhead_frac", "frac"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's grammar: starts with a letter or digit, at most 64 of
    /// letters, digits, `_`, `.`, `-`.
    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&s.len())
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&s.len()) && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_follow_the_grammar_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{} {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn bounds_are_set_where_the_contract_wants_them() {
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let keys: Vec<&str> =
            json.as_object().expect("object").keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
            "exactly the contract's keys"
        );
        let names = |key: &str| -> Vec<String> {
            json[key]
                .as_array()
                .expect(key)
                .iter()
                .map(|entry| entry["name"].as_str().expect("name").to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        for (entry, w) in json["workloads"].as_array().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(entry["why"].as_str(), Some(w.why));
        }
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            for (entry, m) in json[key].as_array().unwrap().iter().zip(defs) {
                assert_eq!(entry["unit"].as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(entry["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(entry["bound"].as_f64(), m.bound, "{}", m.name);
            }
        }
        assert_eq!(json["paths"][0].as_str(), Some("benchmark"));
    }
}
