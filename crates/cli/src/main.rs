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
            return ExitCode::FAILURE;
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
            return ExitCode::FAILURE;
        }
    };
    match (cmd.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let s = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&s).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), String> {
    let path = path.as_ref();
    fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    write_file(path, serde_json::to_string(value).map_err(|e| format!("serializing: {e}"))?)
}
