//! Runs the built binary the way the driver and a developer do, at the
//! `--smoke` scale: all seven workloads end to end, untraced and traced.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faasrail-benchmark"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON")
}

fn names(manifest: &Value, key: &str) -> Vec<String> {
    manifest[key]
        .as_array()
        .expect(key)
        .iter()
        .map(|entry| entry["name"].as_str().expect("name").to_owned())
        .collect()
}

#[test]
fn all_runs_every_workload_and_emits_exactly_the_manifests_names() {
    let out = scratch("smoke-all");
    let status = binary()
        .args(["all", "--smoke", "--trace", "--seconds", "0.2", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("run the binary");
    assert!(status.success(), "`all --smoke --trace` failed: {status}");

    let manifest = manifest();
    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    let records = results["records"].as_array().expect("records");
    let workloads = names(&manifest, "workloads");
    assert_eq!(records.len(), 2 * workloads.len(), "one untraced and one traced run each");
    for (pair, workload) in records.chunks(2).zip(&workloads) {
        for (record, key) in pair.iter().zip(["end_to_end", "per_layer"]) {
            assert_eq!(record["workload"].as_str(), Some(workload.as_str()));
            assert_eq!(record["result"]["correct"], Value::Bool(true), "{workload} {key}");
            assert_eq!(record["result"]["failed"].as_u64(), Some(0), "{workload} {key}");
            assert!(record["result"]["attempted"].as_u64() >= Some(1));
            let metrics = record["result"]["metrics"].as_object().expect("metrics");
            let mut wanted = names(&manifest, key);
            wanted.sort();
            assert_eq!(metrics.keys().cloned().collect::<Vec<_>>(), wanted, "{workload} {key}");
            for (entry, name) in manifest[key].as_array().unwrap().iter().zip(names(&manifest, key))
            {
                assert_eq!(metrics[&name]["unit"], entry["unit"], "{workload} {name}");
            }
            if key == "end_to_end" {
                for (name, metric) in metrics {
                    assert!(
                        metric["value"].as_f64() > Some(0.0),
                        "{workload} {name} is not positive"
                    );
                }
            }
        }
        // The same seed gives the same outputs in both runs.
        assert_eq!(pair[0]["output_digest"], pair[1]["output_digest"], "{workload}");
    }

    let trace: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("trace.json")).unwrap()).unwrap();
    let traced: Vec<&str> = trace["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| {
            assert!(!w["spans"].as_array().expect("spans").is_empty());
            w["workload"].as_str().expect("workload")
        })
        .collect();
    assert_eq!(traced, workloads);
}

#[test]
fn run_prints_the_contracts_result_as_its_last_line() {
    let output = binary()
        .args(["run", "--workload", "smirnov_huawei", "--seed", "3", "--seconds", "0.1"])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("run the binary");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    let line: Value = serde_json::from_str(stdout.lines().last().expect("a last line")).unwrap();
    let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        line["metrics"]["setup_s"].as_object().unwrap().keys().collect::<Vec<_>>(),
        ["unit", "value"]
    );
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &["run", "--workload", "no_such_workload", "--seed", "1", "--seconds", "1", "--trace", "0"]
            [..],
        &["run", "--workload", "sim_fat8", "--seed", "1", "--seconds", "1"],
        &["run", "--workload", "sim_fat8", "--seed", "1", "--seconds", "0", "--trace", "0"],
        &["run", "--workload", "sim_fat8", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["frobnicate"],
        &[],
    ] {
        let output = binary().args(args).output().expect("run the binary");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn aa_compares_interleaved_sets_of_the_same_binary() {
    let out = scratch("smoke-aa");
    let status = binary()
        .args(["aa", "--smoke", "--sets", "2", "--passes", "1", "--seconds", "0.05", "--out"])
        .arg(&out)
        .status()
        .expect("run the binary");
    // Whether the sets agree is the box's business at this scale; the
    // report must be there and complete either way.
    assert!(matches!(status.code(), Some(0 | 1)), "{status}");
    let report: Value =
        serde_json::from_str(&std::fs::read_to_string(out.join("aa.json")).unwrap()).unwrap();
    let manifest = manifest();
    let cells = report["cells"].as_array().expect("cells");
    assert_eq!(
        cells.len(),
        names(&manifest, "workloads").len() * names(&manifest, "end_to_end").len()
    );
    for cell in cells {
        assert_eq!(cell["sets"].as_array().expect("sets").len(), 2);
        assert_eq!(cell["pooled"]["n"].as_u64(), Some(2));
    }
}
