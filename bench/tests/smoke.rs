//! A smoke run of every workload through the built binary, timed and
//! traced: quick-scale cases, one rep, every check and micro-kernel. The
//! last line of stdout must be the result object the benchmark contract
//! describes, naming exactly the metrics `BENCHMARK.json` lists.

use miopt_harness::Json;
use std::path::Path;
use std::process::Command;

fn names(manifest: &Json, list: &str) -> Vec<String> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .expect("a list in BENCHMARK.json")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn smoke_run_of_each_workload_prints_a_correct_result_line() {
    let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-smoke");
    for workload in names(&manifest, "workloads") {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(env!("CARGO_BIN_EXE_miopt-benchmark"))
                .args(["--workload", &workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--smoke", "--out"])
                .arg(&out)
                .output()
                .expect("the benchmark binary starts");
            let stdout = String::from_utf8(run.stdout).unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(run.status.success(), "{workload} trace {trace}: {stderr}");
            let line = stdout.lines().last().expect("a result line");
            let Json::Obj(result) = Json::parse(line).expect("the last line is JSON") else {
                panic!("the result is an object");
            };
            let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result[0].1, Json::Bool(true), "{workload}: {stderr}");
            assert!(result[1].1.as_u64().unwrap() >= 1);
            assert_eq!(result[2].1.as_u64(), Some(0));
            let Json::Obj(metrics) = &result[3].1 else {
                panic!("metrics is an object");
            };
            let printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(printed, names(&manifest, list), "{workload} trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{workload} {name}");
                // End-to-end metrics are never 0.
                assert!(trace == "1" || value > 0.0, "{workload} {name}");
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn a_bad_flag_exits_nonzero_without_a_result() {
    let run = Command::new(env!("CARGO_BIN_EXE_miopt-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}
