//! `BENCHMARK.json` at the repository root describes this harness: its
//! workloads and metrics must be the ones `perf` runs and prints.

use ffd2d_perf::metrics::{END_TO_END, OVERHEAD_PCT, PER_LAYER};
use ffd2d_perf::workload::WORKLOADS;
use ffd2d_telemetry::json::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the harness");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn list(v: &Value, key: &str) -> Vec<Value> {
    match v.get(key) {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("string field")
}

#[test]
fn workloads_match() {
    let names: Vec<String> = list(&benchmark(), "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let listed = list(&benchmark(), "end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (v, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(text(v, "name"), m.name);
        assert_eq!(text(v, "unit"), m.unit);
        assert_eq!(text(v, "better"), m.better.as_str());
        assert_eq!(v.get("bound").and_then(Value::as_f64), Some(m.bound));
    }
}

#[test]
fn per_layer_metrics_match() {
    let listed: Vec<(String, String)> = list(&benchmark(), "per_layer")
        .iter()
        .map(|v| (text(v, "name").to_string(), text(v, "unit").to_string()))
        .collect();
    let ours: Vec<(String, String)> = PER_LAYER
        .iter()
        .chain([&OVERHEAD_PCT])
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, ours);
}
