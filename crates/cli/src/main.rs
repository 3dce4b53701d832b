//! `faasrail` — the command-line interface to the shrink ray and the load
//! generator. `faasrail --help` lists the commands, `faasrail <command> --help`
//! a command's options; both print the tables in `COMMANDS` (see `args.rs`).

mod args;
mod bench;
mod fleet;
mod offline;
mod online;
mod sim;
#[cfg(test)]
mod table_tests;
mod transport;

use args::{Args, Command};
use faasrail_core::{check_trace, ExperimentSpec, RequestTrace};
use faasrail_trace::Trace;
use faasrail_workloads::WorkloadPool;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

/// Every command, in the order `--help` and README list them.
static COMMANDS: [&Command; 21] = [
    &offline::GEN_TRACE,
    &offline::BUILD_POOL,
    &offline::SHRINK,
    &offline::REQUESTS,
    &offline::SMIRNOV,
    &sim::SIMULATE,
    &online::REPLAY,
    &online::REPORT,
    &online::SERVE,
    &fleet::COORDINATE,
    &fleet::AGENT,
    &fleet::TOP,
    &sim::LAB_RUN,
    &bench::SATURATE,
    &bench::FIXED,
    &bench::DIFF,
    &offline::CALIBRATE,
    &offline::ANALYZE,
    &offline::COMPARE,
    &offline::EVALUATE,
    &offline::EXPORT,
];

/// Split `argv` into the command it names (two words before one, so `fleet
/// top` is not `fleet` with a stray `top`) and the words after it.
fn resolve(argv: &[String]) -> Result<(&'static Command, &[String]), String> {
    let first = argv.first().ok_or("missing command")?;
    if first.starts_with("--") {
        return Err(format!("expected a command, found option {first}"));
    }
    let second = argv.get(1).filter(|word| !word.starts_with("--"));
    let two_words = second.map(|second| format!("{first} {second}"));
    for (name, words) in [(two_words.as_deref(), 2), (Some(first.as_str()), 1)] {
        if let Some(cmd) = COMMANDS.iter().find(|c| Some(c.name) == name) {
            return Ok((cmd, &argv[words..]));
        }
    }
    Err(format!("unknown command `{}`", two_words.as_deref().unwrap_or(first)))
}

/// The exit status of a command line refused before any work: an unknown
/// command, a line its option table refuses, or a value [`Args::invalid`]
/// refuses. A command that fails while working exits 1.
const USAGE: u8 = 2;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--help") {
        print!("{}", args::overview(&COMMANDS));
        return ExitCode::SUCCESS;
    }
    let (cmd, rest) = match resolve(&argv) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("error: {e}\nrun `faasrail --help` for the list of commands");
            return ExitCode::from(USAGE);
        }
    };
    if rest.iter().any(|a| a == "--help") {
        print!("{}", cmd.help());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(cmd, rest.iter().cloned()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nrun `faasrail {} --help` for its options", cmd.name);
            return ExitCode::from(USAGE);
        }
    };
    match (cmd.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if args.refused() {
                ExitCode::from(USAGE)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn read_json<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let s = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&s).map_err(|e| format!("parsing {path}: {e}"))
}

/// The trace the file at `--{option}` holds, refused unless every mode can
/// read it: [`check_trace`] applies `validate`'s rules and wants at least
/// one invocation.
fn read_trace(args: &Args, option: &str) -> Result<Trace, String> {
    let path = args.str(option);
    let trace: Trace = read_json(path)?;
    check_trace(&trace).map_err(|e| args.invalid(option, path, e))?;
    Ok(trace)
}

/// The experiment spec the file at `--{option}` holds, refused unless
/// [`ExperimentSpec::validate`] accepts it.
fn read_spec(args: &Args, option: &str) -> Result<ExperimentSpec, String> {
    let path = args.str(option);
    let spec: ExperimentSpec = read_json(path)?;
    spec.validate().map_err(|e| args.invalid(option, path, e))?;
    Ok(spec)
}

/// The request trace the file at `--{option}` holds, checked against `pool`:
/// every consumer looks each request's workload up in the pool, so the first
/// request naming a workload the pool lacks refuses the file.
fn read_requests(args: &Args, option: &str, pool: &WorkloadPool) -> Result<RequestTrace, String> {
    let path = args.str(option);
    let reqs: RequestTrace = read_json(path)?;
    match reqs.requests.iter().enumerate().find(|(_, r)| pool.get(r.workload).is_none()) {
        Some((i, r)) => Err(args.invalid(
            option,
            path,
            format_args!("request {i} names workload {}, which the pool lacks", r.workload.0),
        )),
        None => Ok(reqs),
    }
}

fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), String> {
    let path = path.as_ref();
    fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    write_file(path, serde_json::to_string(value).map_err(|e| format!("serializing: {e}"))?)
}
