//! Runs every workload at smoke scale, untraced and traced, and checks that
//! each run is correct and reports exactly the metrics `BENCHMARK.json`
//! declares, every one finite.
//!
//! The serve workloads start a release `staub` binary: build it first with
//! `cargo build --release --bin staub` at the repository root (the test
//! looks under `CARGO_TARGET_DIR`, else `target/`), or point `STAUB_BIN` at
//! one.

use std::path::PathBuf;
use std::process::Command;

use staub_service::json::{self, Json};

const WORKLOADS: [&str; 4] = ["paper-mix", "fragments", "serve-repeat", "serve-unique"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn staub_bin() -> PathBuf {
    if let Some(bin) = std::env::var_os("STAUB_BIN") {
        return bin.into();
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| repo_root().join("target"), PathBuf::from);
    let bin = target.join("release").join("staub");
    assert!(
        bin.exists(),
        "no staub binary at {}: run `cargo build --release --bin staub` at the \
         repository root, or set STAUB_BIN",
        bin.display()
    );
    bin
}

/// The metric names `BENCHMARK.json` lists under `key`, sorted.
fn declared(benchmark: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(metrics)) = benchmark.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    let mut names: Vec<String> = metrics
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn every_workload_is_correct_and_reports_every_declared_metric() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let benchmark = json::parse(&text).expect("BENCHMARK.json parses");
    let staub = staub_bin();
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e-smoke");
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .arg("--staub")
                .arg(&staub)
                .arg("--scratch")
                .arg(&scratch)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let context = format!(
                "{workload} --trace {trace}\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(output.status.success(), "{context}");
            let result = json::parse(stdout.lines().last().unwrap_or("")).expect("JSON result");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{context}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{context}"
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics: {context}");
            };
            let reported: Vec<String> = metrics.keys().cloned().collect();
            assert_eq!(reported, declared(&benchmark, key), "{context}");
            for (name, metric) in metrics {
                let value = match metric.get("value") {
                    Some(Json::Num(v)) => *v,
                    other => panic!("{name}: value {other:?}"),
                };
                assert!(value.is_finite(), "{name} = {value}: {context}");
            }
        }
    }
}
