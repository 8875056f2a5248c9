//! Tiny-size pass of every workload, untraced and traced: each run must pass
//! its own oracle and print every metric `BENCHMARK.json` names, with its unit.
//! (The oracle's rejection of tampered results is tested in `src/oracle.rs`.)
//!
//! Needs a release `qaoa-service`; it is built into this target directory when
//! missing.  Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.get_field(name)
        .unwrap_or_else(|| panic!("missing {name:?}"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    let Value::Array(items) = field(spec, list) else {
        panic!("{list} is not a list")
    };
    items
        .iter()
        .map(|m| {
            let text = |k| field(m, k).as_str().expect("string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn service_bin(target: &Path, repo: &Path) -> PathBuf {
    let bin = target.join("release").join("qaoa-service");
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "juliqaoa_service",
                "--bin",
                "qaoa-service",
            ])
            .env("CARGO_TARGET_DIR", target)
            .current_dir(repo)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building qaoa-service failed");
    }
    bin
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = here.parent().expect("perfbench sits in the repository");
    let spec: Value = serde_json::from_str(
        &std::fs::read_to_string(repo.join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("target directory");
    let service = service_bin(target, repo);
    let work = target.join("perfbench-selfcheck");
    std::fs::create_dir_all(&work).expect("work dir");

    let Value::Array(workloads) = field(&spec, "workloads") else {
        panic!("workloads")
    };
    for workload in workloads {
        let name = field(workload, "name").as_str().expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--tiny",
                ])
                .arg("--service-bin")
                .arg(&service)
                .arg("--work-dir")
                .arg(&work)
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last: Value = serde_json::from_str(stdout.lines().last().expect("output"))
                .expect("JSON last line");
            assert_eq!(
                field(&last, "correct"),
                &Value::Bool(true),
                "{name}: {stdout}"
            );
            assert_eq!(field(&last, "failed").as_u64(), Some(0));
            assert!(field(&last, "attempted").as_u64() >= Some(1));
            let metrics = field(&last, "metrics");
            let Value::Object(printed) = metrics else {
                panic!("metrics is not an object")
            };
            let wanted = declared(&spec, list);
            assert_eq!(
                printed.len(),
                wanted.len(),
                "{name} trace {trace}: {stdout}"
            );
            for (metric, unit) in wanted {
                let m = field(metrics, &metric);
                assert!(
                    field(m, "value").as_f64().is_some_and(f64::is_finite),
                    "{name}: {metric}"
                );
                assert_eq!(
                    field(m, "unit").as_str(),
                    Some(unit.as_str()),
                    "{name}: {metric}"
                );
            }
        }
    }
}
