//! Tests over the whole of `COMMANDS`: the tables are well formed, every
//! default parses as what its command reads it as, and README's CLI
//! reference is their rendering.

use crate::args::{overview, Args, Command, Opt};
use crate::*;
use std::collections::BTreeSet;
use std::fmt::Write;

/// `cmd`'s command line with nothing optional on it: `x` for every
/// required option and positional, then `extra`.
fn minimal(cmd: &'static Command, extra: &[&str]) -> Args {
    let mut argv: Vec<String> = cmd.positionals.iter().map(|_| "x".to_string()).collect();
    for opt in cmd.opts.iter().filter(|o| o.required) {
        argv.extend([format!("--{}", opt.name), "x".to_string()]);
    }
    argv.extend(extra.iter().map(|s| s.to_string()));
    Args::parse(cmd, argv).unwrap_or_else(|e| panic!("{}: {e}", cmd.name))
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn tables_are_well_formed() {
    let names: BTreeSet<&str> = COMMANDS.iter().map(|c| c.name).collect();
    assert_eq!(names.len(), COMMANDS.len(), "a command is listed twice");
    for cmd in COMMANDS {
        let of = cmd.name;
        assert!((1..=2).contains(&cmd.name.split(' ').count()), "{of}: resolve() tries two words");
        assert!(!cmd.about.is_empty(), "{of}");
        let opts: BTreeSet<&str> = cmd.opts.iter().map(|o| o.name).collect();
        assert_eq!(opts.len(), cmd.opts.len(), "{of}: an option is listed twice");
        for o in cmd.opts {
            let Opt { name, .. } = o;
            assert!(!o.help.is_empty() && name != &"help", "{of} --{name}");
            if let Some(parent) = o.needs {
                assert!(opts.contains(parent), "{of} --{name} needs --{parent}, not in its table");
                assert_ne!(parent, *name, "{of} --{name}");
            }
            if o.value.is_none() {
                assert!(o.default.is_none() && !o.required && !o.repeat, "{of} --{name}: a flag");
            }
            assert!(!(o.required && o.default.is_some()), "{of} --{name}: required and defaulted");
        }
    }
}

/// The metavariables are a convention: `N` a count, `T` milliseconds, `X`
/// and `R` reals. A default that does not read as its metavariable would
/// fail at the command's first accessor call.
#[test]
fn every_default_reads_as_its_metavariable() {
    for cmd in COMMANDS {
        for o in cmd.opts {
            let (Some(metavar), Some(default)) = (o.value, o.default) else { continue };
            let ok = match metavar {
                "N" | "T" => default.parse::<u64>().is_ok(),
                "X" | "R" => default.parse::<f64>().is_ok_and(f64::is_finite),
                _ => true,
            };
            assert!(ok, "{} --{}: default {default} is not a {metavar}", cmd.name, o.name);
        }
    }
}

/// Each command's option reading, run against a command line with nothing
/// optional on it: every default parses as the type the command wants, and
/// means what the library's own default means.
#[test]
fn defaults_are_what_the_commands_read() {
    use faasrail_core::{MappingConfig, ShrinkRayConfig, TimeScaling};

    let cfg = offline::shrink_config(&minimal(&offline::SHRINK, &[])).unwrap();
    let want = ShrinkRayConfig::new(120, 20.0);
    assert_eq!((cfg.max_rps, cfg.time_scaling), (20.0, want.time_scaling), "120 min at 20 rps");
    assert_eq!(cfg.iat, want.iat);
    assert_eq!(cfg.mapping, MappingConfig { error_threshold: 0.10, ..MappingConfig::default() });
    let ranged = offline::shrink_config(&minimal(&offline::SHRINK, &["--minute-range", "600"]));
    let want = TimeScaling::MinuteRange { start: 600, experiment_minutes: 120 };
    assert_eq!(ranged.unwrap().time_scaling, want);

    let cfg = offline::smirnov_config(&minimal(&offline::SMIRNOV, &[])).unwrap();
    assert_eq!((cfg.num_invocations, cfg.rate_rps, cfg.seed), (120_408, 20.0, 42));

    let (cluster, options) = sim::simulate_config(&minimal(&sim::SIMULATE, &[])).unwrap();
    assert_eq!((cluster.nodes, cluster.cores_per_node), (4, 16));
    assert!(options.node_faults.is_empty() && options.service_jitter_sigma == 0.0);
    let faulty = ["--crash-node", "1", "--slow-node", "2"];
    let (_, options) = sim::simulate_config(&minimal(&sim::SIMULATE, &faulty)).unwrap();
    assert_eq!(options.node_faults[0].crash_at_ms, Some(0));
    assert_eq!(options.node_faults[1].slow_factor, 2.0);

    let lab = minimal(&sim::LAB_RUN, &[]);
    for (scale, cores, memory_mb) in [("small", 32, 65_536.0), ("paper", 8_192, 4_194_304.0)] {
        let cfg = sim::lab_config(&lab, scale).unwrap();
        assert_eq!(
            (cfg.policies.len(), cfg.balancers.len(), cfg.seeds.as_slice()),
            (2, 1, &[42][..])
        );
        assert_eq!((cfg.cluster.nodes, cfg.cluster.cores_per_node), (8, cores));
        assert_eq!((cfg.cluster.memory_mb_per_node, cfg.parallel), (memory_mb, 0));
    }
    assert_eq!(lab.str("bench-name"), "lab");

    let opts = online::replay_opts(&minimal(&online::REPLAY, &[])).unwrap();
    assert_eq!((opts.compression, opts.workers, opts.window_s), (1.0, 8, 5));
    assert_eq!((opts.client.timeout_ms, opts.client.attempts), (30_000, 4));
    assert_eq!(opts.client.breaker, faasrail_gateway::BreakerConfig::default());
    assert!(opts.client.mux.is_none());
    let muxed = minimal(&online::REPLAY, &["--target", "h:1", "--mux", "4"]);
    assert_eq!(online::replay_opts(&muxed).unwrap().client.mux, Some((4, 32)));

    let cfg = online::gateway_config(&minimal(&online::SERVE, &[])).unwrap();
    assert_eq!(cfg, faasrail_gateway::GatewayConfig::default());

    let cfg = fleet::fleet_config(&minimal(&fleet::COORDINATE, &[])).unwrap();
    assert_eq!(format!("{cfg:?}"), format!("{:?}", faasrail_fleet::FleetConfig::default()));
    let (cfg, client) = fleet::agent_config(&minimal(&fleet::AGENT, &[])).unwrap();
    assert_eq!(format!("{cfg:?}"), format!("{:?}", faasrail_fleet::AgentConfig::default()));
    assert_eq!((client.timeout_ms, client.attempts), (30_000, 4));

    for cmd in [&bench::SATURATE, &bench::FIXED] {
        let opts = bench::bench_opts(&minimal(cmd, &[])).unwrap();
        assert_eq!((opts.client.timeout_ms, opts.client.attempts), (1_000, 1));
    }
    let (criteria, search) = bench::search_config(&minimal(&bench::SATURATE, &[])).unwrap();
    assert_eq!(
        format!("{criteria:?}"),
        format!("{:?}", faasrail_bench::harness::AcceptCriteria::default())
    );
    assert_eq!(
        format!("{search:?}"),
        format!("{:?}", faasrail_bench::harness::SearchConfig::default())
    );
    assert_eq!(bench::fixed_rates(&minimal(&bench::FIXED, &[])).unwrap(), [200.0]);
    let two = minimal(&bench::FIXED, &["--rps", "200", "--rps", "500"]);
    assert_eq!(bench::fixed_rates(&two).unwrap(), [200.0, 500.0]);
    assert_eq!(minimal(&bench::SATURATE, &[]).str("name"), "gateway-saturate");
    assert_eq!(minimal(&bench::FIXED, &[]).str("name"), "gateway-fixed");
}

#[test]
fn out_of_range_numbers_are_usage_errors() {
    for (cmd, argv, named) in [
        (&online::REPLAY, &["--workers", "0"][..], "--workers"),
        (&online::REPLAY, &["--compression", "0"], "--compression"),
        (&online::REPLAY, &["--compression", "inf"], "--compression"),
    ] {
        let e = online::replay_opts(&minimal(cmd, argv)).err().expect("refused");
        assert!(e.contains(named) && e.contains("`faasrail replay`"), "{e}");
    }
    for (argv, named) in [
        (&["--conn-workers", "0"][..], "--conn-workers"),
        (&["--drop-frac", "-0.1"], "--drop-frac"),
        (&["--latency-frac", "1.5"], "--latency-frac"),
        (&["--drop-frac", "0.7", "--error-frac", "0.7"], "--error-frac"),
    ] {
        let e = online::gateway_config(&minimal(&online::SERVE, argv)).unwrap_err();
        assert!(e.contains(named) && e.contains("`faasrail serve`"), "{e}");
    }
    let split = ["--drop-frac", "0.25", "--error-frac", "0.25", "--stall-frac", "0.5"];
    assert!(online::gateway_config(&minimal(&online::SERVE, &split)).is_ok(), "bands may fill 1");
    for argv in [["--agents", "0"], ["--workers", "0"], ["--compression", "-1"]] {
        let e = fleet::fleet_config(&minimal(&fleet::COORDINATE, &argv)).unwrap_err();
        assert!(e.contains(argv[0]) && e.contains("`faasrail fleet coordinate`"), "{e}");
    }
    assert!(bench::bench_opts(&minimal(&bench::FIXED, &["--workers", "0"])).is_err());
}

/// The names the help rows offer are the names the commands accept.
#[test]
fn help_rows_list_what_parses() {
    let choices = |cmd: &Command, name: &str| -> Vec<&'static str> {
        let help = cmd.opts.iter().find(|o| o.name == name).expect("row").help;
        help.rsplit(' ').next().expect("choices come last").split('|').collect()
    };
    for name in choices(&sim::SIMULATE, "policy") {
        assert!(faasrail_faas_sim::PolicyKind::parse(name).is_ok(), "{name}");
    }
    for name in choices(&sim::SIMULATE, "balancer") {
        assert!(faasrail_faas_sim::BalancerKind::parse(name).is_ok(), "{name}");
    }
    assert_eq!(choices(&sim::SIMULATE, "policy").len(), faasrail_faas_sim::PolicyKind::ALL.len());
    assert_eq!(choices(&sim::SIMULATE, "balancer").len(), 4);
}

#[test]
fn parse_iat_all_forms() {
    use faasrail_core::IatModel;
    use offline::parse_iat;
    assert_eq!(parse_iat("poisson").unwrap(), IatModel::Poisson);
    assert_eq!(parse_iat("uniform").unwrap(), IatModel::UniformRandom);
    assert_eq!(parse_iat("equidistant").unwrap(), IatModel::Equidistant);
    assert_eq!(parse_iat("bursty").unwrap(), IatModel::Bursty { cv: 1.5 });
    assert_eq!(parse_iat("bursty:2.5").unwrap(), IatModel::Bursty { cv: 2.5 });
    assert!(parse_iat("bursty:-1").is_err());
    assert!(parse_iat("gaussian").is_err());
}

#[test]
fn resolve_finds_one_and_two_word_commands() {
    let found = |argv: &[&str]| {
        let argv = strings(argv);
        let (cmd, rest) = resolve(&argv).unwrap_or_else(|e| panic!("{e}"));
        (cmd.name, rest.to_vec())
    };
    assert_eq!(
        found(&["fleet", "coordinate", "--agents", "2"]),
        ("fleet coordinate", strings(&["--agents", "2"]))
    );
    assert_eq!(
        found(&["analyze", "stray"]),
        ("analyze", strings(&["stray"])),
        "parse() refuses it"
    );
    assert_eq!(found(&["bench", "diff", "a.json", "b.json"]).1.len(), 2);
}

#[test]
fn resolve_rejects_missing_and_unknown_commands() {
    let refused = |argv: &[&str]| resolve(&strings(argv)).err().expect("no such command");
    assert!(refused(&[]).contains("missing command"));
    assert!(refused(&["--minutes", "1"]).contains("--minutes"));
    assert!(refused(&["frobnicate"]).contains("`frobnicate`"));
    assert!(refused(&["fleet", "frobnicate"]).contains("`fleet frobnicate`"));
    assert!(refused(&["fleet", "--agents", "2"]).contains("`fleet`"));
}

#[test]
fn json_io_roundtrip() {
    let dir = std::env::temp_dir().join(format!("faasrail-cli-json-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    let path = path.to_str().unwrap();
    let value = vec![1u64, 2, 3];
    write_json(path, &value).unwrap();
    let back: Vec<u64> = read_json(path).unwrap();
    assert_eq!(value, back);
    assert!(read_json::<Vec<u64>>("/nonexistent/x.json").is_err());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shrink_refuses_a_minute_range_without_invocations() {
    use faasrail_trace::azure::AzureTraceConfig;
    use faasrail_workloads::{CostModel, WorkloadPool};
    let dir = std::env::temp_dir().join(format!("faasrail-cli-window-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let mut trace = faasrail_trace::azure::generate(&AzureTraceConfig::small(9));
    for f in &mut trace.functions {
        let early = f.minutes.entries().iter().copied().filter(|&(m, _)| m < 600);
        f.minutes = faasrail_trace::MinuteSeries::new(early.collect());
        f.daily.clear();
    }
    write_json(&path("trace.json"), &trace).unwrap();
    let pool = WorkloadPool::build_modelled(&CostModel::default_calibration());
    write_json(&path("pool.json"), &pool).unwrap();

    let line = [
        "--trace",
        &path("trace.json"),
        "--pool",
        &path("pool.json"),
        "--minutes",
        "30",
        "--minute-range",
        "600",
        "--out",
        &path("spec.json"),
    ];
    let args = Args::parse(&offline::SHRINK, line.map(String::from)).unwrap();
    let err = (offline::SHRINK.run)(&args).expect_err("main turns this into a non-zero exit");
    assert!(err.contains("no invocations in minute range [600, 630)"), "{err}");
    assert!(!dir.join("spec.json").exists(), "no spec is written");
    fs::remove_dir_all(&dir).unwrap();
}

/// README's `## CLI reference` block: the overview and every command's help.
fn reference(commands: &[&Command]) -> String {
    let mut out = format!("```text\n{}```\n", overview(commands));
    for c in commands {
        let _ = write!(out, "\n### `faasrail {}`\n\n```text\n{}```\n", c.name, c.help());
    }
    out
}

const BEGIN: &str = "<!-- cli-reference:begin (generated from crates/cli/src; `cargo test -p faasrail-cli` checks it) -->\n";
const END: &str = "<!-- cli-reference:end -->\n";

/// README's `## CLI reference` is `reference(&COMMANDS)`, byte for byte. On a mismatch the rendering is left in the temp directory, to be
/// pasted between the markers.
#[test]
fn readme_cli_reference_is_the_rendering() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = fs::read_to_string(path).expect("README.md at the workspace root");
    let begin =
        readme.find(BEGIN).expect("README has the cli-reference:begin marker") + BEGIN.len();
    let end = begin + readme[begin..].find(END).expect("README has the cli-reference:end marker");
    let rendered = reference(&COMMANDS);
    if readme[begin..end] != rendered {
        let fresh = std::env::temp_dir().join("faasrail-cli-reference.md");
        fs::write(&fresh, &rendered).unwrap();
        panic!("README's CLI reference is stale; the current rendering is in {}", fresh.display());
    }
    for cmd in COMMANDS {
        for o in cmd.opts {
            assert!(rendered.contains(&format!("--{}", o.name)), "{} --{}", cmd.name, o.name);
        }
    }
}
