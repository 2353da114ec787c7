//! `BENCHMARK.json` and the benchmark's output agree with each other.

mod common;

use perfbench::{Workload, END_TO_END, PER_LAYER};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(json: &'a Value, key: &str) -> &'a [Value] {
    match json.get(key) {
        Some(Value::Seq(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(item: &'a Value, key: &str) -> &'a str {
    match item.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, unit)` of every metric declared under `key`.
fn declared(json: &Value, key: &str) -> Vec<(String, String)> {
    list(json, key)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let json = benchmark_json();
    let mut names: Vec<String> = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        names.extend(list(&json, key).iter().map(|m| text(m, "name").to_string()));
    }
    for name in &names {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "malformed name {name:?}"
        );
        assert_eq!(
            names.iter().filter(|n| *n == name).count(),
            1,
            "{name:?} is declared twice"
        );
    }
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(&json, key) {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name} has malformed unit {unit:?}"
            );
        }
    }
}

#[test]
fn declared_metrics_match_the_catalog() {
    let json = benchmark_json();
    let catalog = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), catalog(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), catalog(PER_LAYER));
    let workloads: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::LISTED.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Every workload completes a smoke-sized run, traced and untraced, and
/// its result line carries exactly the declared metrics with their
/// units.
#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let json = benchmark_json();
    for workload in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = common::smoke(workload, 1, trace);
            let line: Value =
                serde_json::from_str(&report.json_line()).expect("result line is JSON");
            let Some(Value::Map(metrics)) = line.get("metrics") else {
                panic!("no metrics object in {}", report.json_line());
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    number(m.get("value").expect("value"));
                    (name.clone(), text(m, "unit").to_string())
                })
                .collect();
            assert_eq!(
                printed,
                declared(&json, key),
                "{} trace={trace}",
                workload.name()
            );
            assert_eq!(
                line.get("correct"),
                Some(&Value::Bool(true)),
                "{:?}",
                report.notes
            );
            assert!(number(line.get("attempted").expect("attempted")) >= 1.0);
            assert_eq!(number(line.get("failed").expect("failed")), 0.0);
        }
    }
}
