//! Smoke test at tiny sizes: every workload, in both modes, prints every
//! metric `BENCHMARK.json` names, with the unit it declares (plus the
//! table-only `fail_frac` and `op_s_p90` lines), finishes
//! correct with no failed operation, and the traced runs keep
//! `unattributed_frac` under the benchmark's bound.

use std::process::Command;

use mpix::trace::Value;

/// The bound `main.rs` fixes as `UNATTRIBUTED_BOUND`.
const UNATTRIBUTED_BOUND: f64 = 0.10;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Run one tiny workload; returns stdout and the parsed result line.
fn run(workload: &str, trace: u8) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_mpixbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace={trace}: {stdout}");
    let last = stdout.lines().last().expect("a result line").to_string();
    let result = Value::parse(&last).expect("the last line is JSON");
    (stdout, result)
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let bench = benchmark();
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    // `strong-elastic` and `compile-cold` run by hand only (see
    // README.md); keep them working.
    let by_hand = ["strong-elastic", "compile-cold"];
    for w in workloads.iter().map(String::as_str).chain(by_hand) {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, result) = run(w, trace);
            let ctx = format!("{w} trace={trace}");
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{ctx}: {stdout}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{ctx}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{ctx}"
            );
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let expected = names(&bench, list);
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{ctx}: exactly the listed metrics"
            );
            for (name, unit) in &expected {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{ctx}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{ctx}: {name}"
                );
                let v = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{ctx}: {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{ctx}: end-to-end {name} must be nonzero");
                }
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .unwrap_or_else(|| panic!("{ctx}: no table line for {name}"));
                assert!(line.trim_end().ends_with(unit.as_str()), "{ctx}: {line}");
            }
            let extra: &[&str] = if trace == 0 {
                &["fail_frac", "op_s_p90"]
            } else {
                &["fail_frac"]
            };
            for name in extra {
                assert!(
                    stdout.lines().any(|l| l.trim_start().starts_with(name)),
                    "{ctx}: no table line for {name}"
                );
            }
            if trace == 1 {
                let u = metrics
                    .iter()
                    .find(|(k, _)| k == "unattributed_frac")
                    .and_then(|(_, m)| m.get("value").and_then(Value::as_f64))
                    .expect("unattributed_frac");
                assert!(
                    u <= UNATTRIBUTED_BOUND,
                    "{ctx}: unattributed_frac {u} exceeds {UNATTRIBUTED_BOUND}"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_mpixbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
