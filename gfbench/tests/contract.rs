//! `BENCHMARK.json` at the repository root names the same workloads and
//! metrics, with the same units, as the benchmark reports.

use gfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn expected(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metrics_match_the_benchmark_file() {
    let json = benchmark_json();
    assert_eq!(
        names_and_units(json.get("end_to_end").unwrap()),
        expected(END_TO_END)
    );
    assert_eq!(
        names_and_units(json.get("per_layer").unwrap()),
        expected(PER_LAYER)
    );
}

#[test]
fn workloads_match_the_benchmark_file() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}
