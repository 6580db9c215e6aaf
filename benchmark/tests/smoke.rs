//! Every workload for one second, untraced and traced: each run must be
//! correct and emit exactly the metrics `BENCHMARK.json` declares for its
//! mode, so the file and the binary cannot drift apart.

use std::path::Path;
use std::process::Command;

use bst_benchmark::json::Json;
use bst_benchmark::workload::Workload;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    let mut names: Vec<String> = spec
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn the_spec_names_the_binary_workloads_and_window() {
    let spec = spec();
    let mut workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    workloads.sort();
    assert_eq!(names(&spec, "workloads"), workloads);
    assert_eq!(
        spec.get("run_seconds").and_then(Json::as_f64),
        Some(bst_benchmark::DEFAULT_SECONDS)
    );
}

#[test]
fn every_workload_runs_clean_and_emits_the_declared_metrics() {
    let spec = spec();
    for workload in Workload::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_bst-benchmark"))
                .args(["--workload", workload.name(), "--seed", "7"])
                .args(["--seconds", "1", "--trace", trace])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{} --trace {trace}", workload.name());
            assert!(out.status.success(), "{what} failed:\n{stdout}");
            let result = Json::parse(stdout.lines().last().unwrap_or_default())
                .unwrap_or_else(|e| panic!("{what}: last line is not JSON: {e}"));
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{what}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{what}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
                "{what}"
            );
            let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
            let mut emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            emitted.sort();
            assert_eq!(emitted, names(&spec, list), "{what}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{what}: {name} = {m:?}");
            }
        }
    }
}
