//! `all` and `aa`: run workloads as child processes of this same binary,
//! so that each workload's peak RSS and CPU time are its own, and put the
//! results side by side.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::measure::Spread;
use crate::report::{ResultLine, RunRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub struct Common {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Runs one workload in a child process and returns its record.
fn run_child(
    common: &Common,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &common.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&common.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if common.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The child's last line is the contract's result; its record file says
    // the same and more. A child that exits non-zero after printing a
    // result failed a correctness check, which the record spells out.
    let line: ResultLine =
        stdout
            .lines()
            .last()
            .and_then(|last| serde_json::from_str(last).ok())
            .ok_or_else(|| format!("{workload} exited with {} and no result", output.status))?;
    let path = record_path(&common.out, workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let record: RunRecord =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if record.result != line {
        return Err(format!("{workload}: record file and result line disagree"));
    }
    Ok(record)
}

pub fn record_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("record.{workload}.{}.json", if traced { "layers" } else { "e2e" }))
}

fn print_record(record: &RunRecord, defs: &[MetricDef]) {
    println!(
        "{} seed={} passes={} setups={} digest={} {}",
        record.workload,
        record.seed,
        record.passes,
        record.setups,
        record.output_digest,
        if record.result.correct { "correct" } else { "INCORRECT" },
    );
    for def in defs {
        let value = record.result.metrics[def.name].value;
        // A layer the workload never entered reads 0; leave those out.
        if def.bound.is_some() || value != 0.0 {
            println!("  {:<44} {:>16.4} {}", def.name, value, def.unit);
        }
    }
    println!("  {:<44} {:>16} of {}", "failed", record.result.failed, record.result.attempted);
    for failure in &record.failures {
        println!("  FAILED: {failure}");
    }
}

#[derive(Serialize)]
struct AllResults {
    schema: String,
    seed: u64,
    seconds: f64,
    smoke: bool,
    records: Vec<RunRecord>,
}

/// Runs the seven workloads; with `traced`, each a second time for the
/// per-layer numbers. Returns whether every run was correct.
pub fn all(common: &Common, traced: bool) -> Result<bool, String> {
    std::fs::create_dir_all(&common.out).map_err(|e| format!("{}: {e}", common.out.display()))?;
    let mut records = Vec::new();
    for workload in &WORKLOADS {
        let record = run_child(common, workload.name, common.seed, false)?;
        print_record(&record, &END_TO_END);
        records.push(record);
        if traced {
            let record = run_child(common, workload.name, common.seed, true)?;
            print_record(&record, PER_LAYER);
            records.push(record);
        }
    }
    if traced {
        assemble_trace(&common.out)?;
    }
    let correct = records.iter().all(|r| r.result.correct);
    let results = AllResults {
        schema: "faasrail-benchmark-results/v1".to_owned(),
        seed: common.seed,
        seconds: common.seconds,
        smoke: common.smoke,
        records,
    };
    let path = common.out.join("results.json");
    let text = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

/// Joins the children's `trace.<workload>.json` files into one
/// `trace.json` and removes them.
fn assemble_trace(out: &Path) -> Result<(), String> {
    let mut joined = String::from("{\"schema\":\"faasrail-benchmark-traces/v1\",\"workloads\":[");
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let path = out.join(format!("trace.{}.json", workload.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if i > 0 {
            joined.push(',');
        }
        joined.push_str(text.trim());
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    joined.push_str("]}");
    let path = out.join("trace.json");
    std::fs::write(&path, joined).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One end-to-end metric on one workload across an A/A experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AaCell {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub bound: f64,
    /// Median, quartiles and spread of each set's runs.
    pub sets: Vec<Spread>,
    /// The same over all runs of all sets.
    pub pooled: Spread,
    /// Whether the sets' medians lie within the bound of each other; see
    /// [`medians_apart`].
    pub sets_agree: bool,
    /// Whether the pooled spread is within the bound (the contract's
    /// acceptance test) and within a third of it (the calibration target).
    pub spread_within_bound: bool,
    pub spread_within_third: bool,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AaReport {
    pub schema: String,
    pub sets: u64,
    pub passes: u64,
    pub seconds: f64,
    pub first_seed: u64,
    pub env: crate::report::Environment,
    pub cells: Vec<AaCell>,
}

/// How far apart the sets' medians are, as a share of the smallest. The
/// sets run the same code, so a set that reads better than another is as
/// much a disagreement as one that reads worse.
pub fn medians_apart(sets: &[Spread]) -> f64 {
    let medians = || sets.iter().map(|s| s.median);
    let (low, high) = (medians().fold(f64::INFINITY, f64::min), medians().fold(0.0, f64::max));
    (high - low) / low
}

fn aa_cell(workload: &str, def: &MetricDef, values_by_set: &[Vec<f64>]) -> AaCell {
    let bound = def.bound.expect("end-to-end metrics have bounds");
    let sets: Vec<Spread> = values_by_set.iter().map(|v| Spread::of(v)).collect();
    let pooled = Spread::of(&values_by_set.concat());
    let sets_agree = medians_apart(&sets) <= bound;
    AaCell {
        workload: workload.to_owned(),
        metric: def.name.to_owned(),
        unit: def.unit.to_owned(),
        bound,
        sets_agree,
        spread_within_bound: pooled.spread <= bound,
        spread_within_third: pooled.spread <= bound / 3.0,
        sets,
        pooled,
    }
}

/// Runs `sets` interleaved sets of the same binary, `passes` passes each
/// (pass `p` of every set uses seed `first + p`), and reports per metric
/// the per-set medians and quartiles and whether the sets agree within the
/// metric's bound. Returns whether they all do and every run was correct.
pub fn aa(common: &Common, sets: usize, passes: usize) -> Result<bool, String> {
    std::fs::create_dir_all(&common.out).map_err(|e| format!("{}: {e}", common.out.display()))?;
    // values[workload][metric][set] = one value per pass
    let mut values: BTreeMap<(usize, usize), Vec<Vec<f64>>> = BTreeMap::new();
    let mut all_correct = true;
    let mut env = None;
    for pass in 0..passes {
        for set in 0..sets {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let record = run_child(common, workload.name, common.seed + pass as u64, false)?;
                all_correct &= record.result.correct;
                for failure in &record.failures {
                    println!("{} FAILED: {failure}", workload.name);
                }
                for (d, def) in END_TO_END.iter().enumerate() {
                    values.entry((w, d)).or_insert_with(|| vec![Vec::new(); sets])[set]
                        .push(record.result.metrics[def.name].value);
                }
                env.get_or_insert(record.env);
            }
            println!("pass {} of {passes}, set {} of {sets} done", pass + 1, set + 1);
        }
    }
    let cells: Vec<AaCell> = values
        .iter()
        .map(|(&(w, d), by_set)| aa_cell(WORKLOADS[w].name, &END_TO_END[d], by_set))
        .collect();
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread", "bound"
    );
    for cell in &cells {
        let verdict = match (cell.sets_agree, cell.spread_within_third, cell.spread_within_bound) {
            (false, _, _) => "SETS DISAGREE",
            (true, true, _) => "ok",
            (true, false, true) => "ok, spread above bound/3",
            (true, false, false) => "SPREAD ABOVE BOUND",
        };
        println!(
            "{:<22} {:<16} {:>14.4} {:>14.4} {:>7.1}% {:>6.0}%  {verdict}",
            cell.workload,
            cell.metric,
            cell.sets[0].median,
            cell.sets.last().expect("at least one set").median,
            cell.pooled.spread * 100.0,
            cell.bound * 100.0,
        );
    }
    let agree = cells.iter().all(|c| c.sets_agree && c.spread_within_bound);
    let report = AaReport {
        schema: "faasrail-benchmark-aa/v1".to_owned(),
        sets: sets as u64,
        passes: passes as u64,
        seconds: common.seconds,
        first_seed: common.seed,
        env: env.ok_or("no runs were made")?,
        cells,
    };
    let path = common.out.join("aa.json");
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(agree && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_apart_is_symmetric_and_relative_to_the_smallest() {
        let set = |median: f64| Spread::of(&[median; 3]);
        assert!((medians_apart(&[set(10.0), set(11.0)]) - 0.1).abs() < 1e-12);
        assert!((medians_apart(&[set(11.0), set(10.0)]) - 0.1).abs() < 1e-12);
        assert!((medians_apart(&[set(10.0), set(12.0), set(11.0)]) - 0.2).abs() < 1e-12);
        assert_eq!(medians_apart(&[set(10.0)]), 0.0);
    }

    #[test]
    fn aa_cell_judges_agreement_and_spread_against_the_bound() {
        let def = END_TO_END.iter().find(|m| m.name == "items_per_s").expect("items_per_s");
        let bound = def.bound.unwrap();
        let steady = aa_cell("w", def, &[vec![100.0, 101.0, 99.0], vec![100.5, 99.5, 100.0]]);
        assert!(steady.sets_agree && steady.spread_within_third && steady.spread_within_bound);
        assert_eq!(steady.pooled.n, 6);
        // On the same code a set that is off by more than the bound
        // disagrees, whichever way it is off.
        let off = 100.0 * (1.0 + bound) + 1.0;
        for sets in [[vec![100.0; 3], vec![off; 3]], [vec![off; 3], vec![100.0; 3]]] {
            assert!(!aa_cell("w", def, &sets).sets_agree);
        }
    }
}
