//! Tiny-input run of every workload, untraced and traced: every metric
//! `BENCHMARK.json` names prints with its unit and a finite value, the
//! eight named end-to-end metrics print by name, and every check
//! passes.

use std::process::Command;

use serde::value::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn text_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny workload; returns (stdout, parsed last line).
fn run(workload: &str, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_tempriv-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.4",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("some output");
    let parsed: Value = serde_json::from_str(last).expect("last line is JSON");
    (stdout, parsed)
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    list(field(spec, key))
        .iter()
        .map(|m| {
            (
                text_of(field(m, "name")).to_string(),
                text_of(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn assert_metrics(workload: &str, parsed: &Value, wanted: &[(String, String)]) {
    assert_eq!(
        field(parsed, "correct"),
        &Value::Bool(true),
        "{workload}: {parsed:?}"
    );
    assert_eq!(field(parsed, "failed").as_u64(), Some(0));
    assert!(field(parsed, "attempted").as_u64().is_some_and(|n| n >= 1));
    let Value::Map(metrics) = field(parsed, "metrics") else {
        panic!("metrics is an object");
    };
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{workload}: exactly the named metrics"
    );
    for (name, unit) in wanted {
        let m = field(field(parsed, "metrics"), name);
        assert_eq!(text_of(field(m, "unit")), unit, "{workload} {name}");
        // A p99 over the tiny run's few samples is unresolved (null).
        if !name.ends_with("_p99") {
            let v = field(m, "value")
                .as_f64()
                .unwrap_or_else(|| panic!("{workload} {name} is a number"));
            assert!(v.is_finite(), "{workload} {name} = {v}");
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    for w in list(field(&spec, "workloads")) {
        let workload = text_of(field(w, "name"));
        let (text, parsed) = run(workload, false);
        assert_metrics(workload, &parsed, &end_to_end);
        for (name, _) in &end_to_end {
            let value = field(field(field(&parsed, "metrics"), name), "value").as_f64();
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: {name} is never zero"
            );
        }
        let mut named = vec!["setup_s", "peak_rss_mb", "failed_frac"];
        if workload == "serve_mixed" {
            named.extend([
                "serve_rps",
                "serve_p50_ms",
                "serve_p99_ms",
                "serve_cold_p50_ms",
            ]);
        } else {
            named.push("events_per_sec");
        }
        for name in named {
            assert!(
                text.lines().any(|l| l.starts_with(&format!("{name} "))),
                "{workload}: end-to-end metric {name} printed by name"
            );
        }
        assert!(
            !text.contains("FAIL "),
            "{workload}: a check failed:\n{text}"
        );

        let (text, parsed) = run(workload, true);
        assert_metrics(workload, &parsed, &per_layer);
        for (name, _) in &per_layer {
            assert!(
                text.lines().any(|l| l.starts_with(&format!("{name} "))),
                "{workload}: per-layer metric {name} in the traced output"
            );
        }
        assert!(
            text.contains("accounting"),
            "{workload}: span accounting printed"
        );
        assert!(
            !text.contains("FAIL "),
            "{workload}: a check failed:\n{text}"
        );
    }
}
