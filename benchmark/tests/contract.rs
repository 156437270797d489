//! BENCHMARK.json against the benchmark's own tables: a metric or workload
//! renamed on one side only would otherwise surface as a rejected run.

use serde::Deserialize;
use treaty_benchmark::{metrics, spec};

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

#[derive(Debug, Deserialize)]
struct Contract {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn contract() -> Contract {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bytes = std::fs::read(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_slice(&bytes).expect("BENCHMARK.json parses")
}

fn same(listed: &[Metric], table: &[metrics::Metric]) {
    let listed: Vec<_> = listed
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let table: Vec<_> = table
        .iter()
        .map(|m| (m.name, m.unit, m.better.word()))
        .collect();
    assert_eq!(listed, table);
}

#[test]
fn metrics_match_the_catalogue() {
    let c = contract();
    same(&c.end_to_end, metrics::END_TO_END);
    same(&c.per_layer, metrics::PER_LAYER);
    for m in &c.end_to_end {
        let bound = m.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(
        c.per_layer.iter().all(|m| m.bound.is_none()),
        "per-layer metrics have no bound"
    );
    assert!(c
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!(c.per_layer.len() <= 128 && c.end_to_end.len() <= 16);
}

#[test]
fn workloads_match_the_specs() {
    let c = contract();
    let listed: Vec<_> = c
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w.why.as_str()))
        .collect();
    let specs = spec::all();
    let ours: Vec<_> = specs.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(listed, ours);
    assert!(c
        .workloads
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
}

#[test]
fn command_stays_inside_the_benchmark_directory() {
    let c = contract();
    assert_eq!(c.paths, ["benchmark"]);
    assert_eq!(c.command, ["bash", "benchmark/run.sh"]);
    assert!((1..=60).contains(&c.run_seconds));
}
