//! The ledger's own contract, at `--scale smoke`: every declared name is
//! well formed, in `BENCHMARK.json`, and emitted exactly once with a finite
//! value; the caps hold; every workload passes its correctness and validity
//! checks untraced and traced (the traced run includes the
//! unattributed-share gate).
//!
//! Run with `cargo test --release --offline --manifest-path ledger/Cargo.toml`.

use std::process::Command;

use serde::value::Value;

fn ledger(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("run the ledger binary");
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    }
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 output"),
    )
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no `{key}` in {value:?}")),
        other => panic!("not an object: {other:?}"),
    }
}

fn names_of(list: &Value) -> Vec<String> {
    match list {
        Value::Seq(items) => items
            .iter()
            .map(|item| match field(item, "name") {
                Value::Str(name) => name.clone(),
                other => panic!("name is not a string: {other:?}"),
            })
            .collect(),
        other => panic!("not a list: {other:?}"),
    }
}

fn manifest() -> (String, Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let value = serde_json::value_from_str(&text).expect("BENCHMARK.json parses");
    (text, value)
}

#[test]
fn names_match_the_manifest_and_the_caps_hold() {
    let (text, manifest) = manifest();
    let (ok, rendered) = ledger(&["manifest"]);
    assert!(ok);
    assert_eq!(
        rendered, text,
        "BENCHMARK.json must be `ledger manifest` verbatim"
    );

    let workloads = names_of(field(&manifest, "workloads"));
    let end_to_end = names_of(field(&manifest, "end_to_end"));
    let per_layer = names_of(field(&manifest, "per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|n| n == "setup_s"));

    let (ok, names) = ledger(&["names"]);
    assert!(ok);
    let mut seen = std::collections::HashSet::new();
    for line in names.lines() {
        let mut parts = line.split_whitespace();
        let (kind, name) = (parts.next().unwrap(), parts.next().unwrap());
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "malformed name `{name}`"
        );
        assert!(seen.insert(name.to_string()), "`{name}` is declared twice");
        let listed = match kind {
            "workload" => &workloads,
            "end_to_end" => &end_to_end,
            "per_layer" => &per_layer,
            other => panic!("unknown kind `{other}`"),
        };
        assert!(
            listed.iter().any(|n| n == name),
            "`{name}` is missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        seen.len(),
        workloads.len() + end_to_end.len() + per_layer.len()
    );
}

/// Runs one workload at smoke scale and checks its result line against the
/// manifest's metric list for that mode.
fn run_and_check(workload: &str, trace: &str, expected: &[String]) {
    let (ok, stdout) = ledger(&[
        "run",
        "--workload",
        workload,
        "--scale",
        "smoke",
        "--seconds",
        "0.6",
        "--seed",
        "7",
        "--trace",
        trace,
    ]);
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::value_from_str(last).expect("the last line is JSON");
    assert!(
        ok && field(&result, "correct") == &Value::Bool(true),
        "{workload} --trace {trace} failed its checks: {last}"
    );
    assert_eq!(field(&result, "failed"), &Value::U64(0));
    let Value::Map(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object");
    };
    let emitted: Vec<&String> = metrics.iter().map(|(name, _)| name).collect();
    assert_eq!(
        emitted,
        expected.iter().collect::<Vec<_>>(),
        "{workload} --trace {trace} must emit exactly the manifest's metrics, once each"
    );
    for (name, metric) in metrics {
        let value = match field(metric, "value") {
            Value::F64(v) => *v,
            Value::U64(v) => *v as f64,
            Value::I64(v) => *v as f64,
            other => panic!("{name} is not a number: {other:?}"),
        };
        assert!(value.is_finite(), "{name} = {value}");
        if trace == "0" {
            assert!(value > 0.0, "end-to-end metric {name} must never be 0");
        }
    }
}

#[test]
fn every_workload_passes_at_smoke_scale() {
    let (_, manifest) = manifest();
    let end_to_end = names_of(field(&manifest, "end_to_end"));
    let per_layer = names_of(field(&manifest, "per_layer"));
    for workload in names_of(field(&manifest, "workloads")) {
        run_and_check(&workload, "0", &end_to_end);
        run_and_check(&workload, "1", &per_layer);
    }
}
