//! `BENCHMARK.json` names match what the benchmark prints.

use perfbench::report::{EndToEnd, LAYER_METRICS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Every `"name": "…"` value of the JSON text, in order.
fn names(json: &str) -> Vec<String> {
    json.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest
                .trim_start()
                .strip_prefix(':')
                .expect("a colon after \"name\"")
                .trim_start()
                .strip_prefix('"')
                .expect("a string value");
            value[..value.find('"').expect("a closing quote")].to_string()
        })
        .collect()
}

/// The text of the array under `key`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let rest = &json[start..];
    &rest[..rest.find(']').expect("the array closes")]
}

/// The names listed under `key` (an array of objects).
fn section(json: &str, key: &str) -> Vec<String> {
    names(array(json, key))
}

/// The `"unit": "…"` values listed under `key`, in order.
fn units(json: &str, key: &str) -> Vec<String> {
    array(json, key)
        .split("\"unit\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("a unit string");
            value.to_string()
        })
        .collect()
}

#[test]
fn every_name_is_well_formed() {
    let json = benchmark_json();
    let all = names(&json);
    assert!(!all.is_empty());
    for name in &all {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name:?} does not match [A-Za-z0-9_.-]+"
        );
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}

#[test]
fn listed_metrics_are_the_reported_ones() {
    let json = benchmark_json();
    let reported: Vec<String> = EndToEnd::default()
        .metrics(0, 0, 0)
        .iter()
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(section(&json, "end_to_end"), reported);
    let reported_units: Vec<String> = EndToEnd::default()
        .metrics(0, 0, 0)
        .iter()
        .map(|m| m.unit.to_string())
        .collect();
    assert_eq!(units(&json, "end_to_end"), reported_units);
    let layers: Vec<String> = LAYER_METRICS
        .iter()
        .map(|(n, _, _)| n.to_string())
        .collect();
    assert_eq!(section(&json, "per_layer"), layers);
    let layer_units: Vec<String> = LAYER_METRICS
        .iter()
        .map(|(_, u, _)| u.to_string())
        .collect();
    assert_eq!(units(&json, "per_layer"), layer_units);
    assert_eq!(section(&json, "workloads"), perfbench::WORKLOADS);
}
