//! The reproduction's one program: `repro <figure>`, `repro audit` (non-zero
//! exit on any failed claim) and `repro all <dir>`; see the crate's docs.

use faasrail_bench::figures::{audit, find, FIGURES};
use faasrail_bench::inputs::Inputs;
use faasrail_bench::Out;
use std::path::Path;
use std::process::ExitCode;

fn usage(error: &str) -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("error: {error}");
    eprintln!("usage: repro <figure> | repro audit | repro all <dir>");
    eprintln!("figures: {}", names.join(" "));
    eprintln!("environment: FAASRAIL_SCALE=small|paper (default small), FAASRAIL_SEED=<unsigned integer> (default 42)");
    ExitCode::from(2)
}

/// Print the audit's verdicts; failure is the exit status.
fn run_audit(inputs: &Inputs) -> ExitCode {
    let mut report = Out::default();
    let passed = audit(inputs, &mut report);
    print!("{}", report.text);
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every figure's CSV and the digest of their comment lines, into `dir`.
fn write_all(inputs: &Inputs, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut summary = String::new();
    for figure in &FIGURES {
        eprintln!("== {} ({:?} scale) ==", figure.name, inputs.scale);
        let out = figure.render(inputs);
        std::fs::write(dir.join(format!("{}.csv", figure.name)), &out.text)?;
        summary.push_str(&format!("== {}.csv ==\n", figure.name));
        for line in out.text.lines().filter_map(|l| l.strip_prefix('#')) {
            summary.push_str(&format!("  {}\n", line.trim()));
        }
    }
    std::fs::write(dir.join("SUMMARY.txt"), summary)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // Everything that came from outside is checked before a trace is built.
    let inputs = match Inputs::from_env() {
        Ok(inputs) => inputs,
        Err(e) => return usage(&e),
    };
    match args[..] {
        ["audit"] => run_audit(&inputs),
        ["all", dir] => match write_all(&inputs, Path::new(dir)) {
            Ok(()) => run_audit(&inputs),
            Err(e) => {
                eprintln!("error: writing under {dir}: {e}");
                ExitCode::FAILURE
            }
        },
        [name] => match find(name) {
            Some(figure) => {
                print!("{}", figure.render(&inputs).text);
                ExitCode::SUCCESS
            }
            None => usage(&format!("no figure named `{name}`")),
        },
        _ => usage("expected one figure name, `audit`, or `all <dir>`"),
    }
}
