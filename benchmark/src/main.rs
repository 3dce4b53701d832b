//! `faasrail-benchmark`: the repository's own performance gate.
//!
//! ```text
//! faasrail-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! faasrail-benchmark all [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--out <dir>]
//! faasrail-benchmark aa  [--sets <n>] [--passes <n>] [--seed <n>] [--seconds <s>] [--smoke] [--out <dir>]
//! faasrail-benchmark manifest
//! ```
//!
//! `run` is what `BENCHMARK.json`'s command invokes: one workload, one
//! process, the result as the last line of standard output. `all` and `aa`
//! run `run` as child processes. README.md has the rest.

mod catalog;
mod ledger;
mod measure;
mod orchestrate;
mod report;
mod tracer;
mod workloads;

use catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use orchestrate::Common;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunArgs;

/// How long one run measures, and what `BENCHMARK.json` tells the driver.
const RUN_SECONDS: u64 = 15;

const USAGE: &str = "usage: faasrail-benchmark <run|all|aa|manifest> [options]; see README.md";

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Options(Vec<(String, Option<String>)>);

impl Options {
    fn parse(args: &[String], flags: &[&str]) -> Result<Options, String> {
        let mut out = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name = arg.strip_prefix("--").ok_or_else(|| format!("unexpected `{arg}`"))?;
            let value = if flags.contains(&name) {
                None
            } else {
                Some(args.next().ok_or_else(|| format!("--{name} needs a value"))?.clone())
            };
            out.push((name.to_owned(), value));
        }
        Ok(Options(out))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, value)) => value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("--{name}: cannot read its value")),
        }
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !names.contains(&n.as_str())) {
            Some((unknown, _)) => Err(format!("unknown option --{unknown}")),
            None => Ok(()),
        }
    }

    /// `--seconds`, if given, checked.
    fn seconds(&self) -> Result<Option<f64>, String> {
        match self.value("seconds")? {
            Some(s) if !(s > 0.0 && s <= 600.0) => Err("--seconds must be in (0, 600]".to_owned()),
            seconds => Ok(seconds),
        }
    }

    fn common(&self, default_out: &str) -> Result<Common, String> {
        Ok(Common {
            seed: self.value("seed")?.unwrap_or(42),
            seconds: self.seconds()?.unwrap_or(RUN_SECONDS as f64),
            smoke: self.flag("smoke"),
            out: self.value("out")?.unwrap_or_else(|| PathBuf::from(default_out)),
        })
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = Options::parse(args, &["smoke"])?;
    opts.known(&["workload", "seed", "seconds", "trace", "smoke", "out"])?;
    let traced = match opts.value::<u8>("trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    let args = RunArgs {
        workload: opts.value("workload")?.ok_or("--workload is required")?,
        seed: opts.value("seed")?.ok_or("--seed is required")?,
        seconds: opts.seconds()?.ok_or("--seconds is required")?,
        traced,
        smoke: opts.flag("smoke"),
        out: opts.value("out")?,
    };
    if catalog::workload(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload `{}`; one of {names:?}", args.workload));
    }
    let record = workloads::run(&args)?;
    if let Some(dir) = &args.out {
        let path = orchestrate::record_path(dir, &args.workload, traced);
        let text = serde_json::to_string(&record).expect("record serializes");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for failure in &record.failures {
        eprintln!("FAILED: {failure}");
    }
    for (name, metric) in &record.result.metrics {
        println!("{name} {} {}", metric.value, metric.unit);
    }
    println!("{}", serde_json::to_string(&record.result).expect("result serializes"));
    Ok(record.result.correct)
}

fn metric_json(def: &MetricDef) -> String {
    let bound = def.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        def.name,
        def.unit,
        def.better.as_str()
    )
}

/// `BENCHMARK.json`, from the catalog.
fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.map(|part| format!("\"{part}\"")).join(", "),
        list(WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(PER_LAYER.iter().map(metric_json).collect()),
    )
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => run(rest),
        "all" => {
            let opts = Options::parse(rest, &["smoke", "trace"])?;
            opts.known(&["seed", "seconds", "trace", "smoke", "out"])?;
            orchestrate::all(&opts.common(".bench_out")?, opts.flag("trace"))
        }
        "aa" => {
            let opts = Options::parse(rest, &["smoke"])?;
            opts.known(&["sets", "passes", "seed", "seconds", "smoke", "out"])?;
            let sets = opts.value("sets")?.unwrap_or(2);
            let passes = opts.value("passes")?.unwrap_or(3);
            if sets == 0 || passes == 0 {
                return Err("--sets and --passes must be at least 1".to_owned());
            }
            orchestrate::aa(&opts.common(".bench_out")?, sets, passes)
        }
        "manifest" => {
            print!("{}", manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // A correctness check failed; the result line says which run.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("faasrail-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
