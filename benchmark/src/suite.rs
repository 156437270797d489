//! The whole suite in one command, its machine-readable result file, and
//! the comparison of two such files that `selfcheck.sh` runs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::{Deserialize, Serialize};

use crate::metrics::{self, Metric, Values};
use crate::parent::{self, WorkloadResult};
use crate::spec;

pub fn print_values(table: &'static [Metric], values: &Values) {
    for (name, value) in values {
        let metric = metrics::find(table, name);
        println!(
            "  {:<44} {:>16.4} {:<8} ({} is better)",
            name,
            value,
            metric.unit,
            metric.better.word()
        );
    }
}

pub fn print_workload(res: &WorkloadResult) {
    println!(
        "{} seed {}: {} untraced run(s) + {} set-up(s) alone{}",
        res.spec.name,
        res.seed,
        res.runs.len(),
        res.setups.len(),
        if res.traced.is_some() {
            " + 1 traced"
        } else {
            ""
        }
    );
    print_values(metrics::END_TO_END, &res.end_to_end());
    print_values(metrics::END_TO_END_EXTRA, &res.end_to_end_extra());
    println!(
        "  transactions: {} failed of {} attempted over all runs",
        res.failed, res.attempted
    );
    if !res.runs.is_empty() {
        let per_run: Vec<String> = res
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{:.3}",
                    r.wall_marks_ns.last().copied().unwrap_or(0) as f64 / 1e9
                )
            })
            .collect();
        println!(
            "  wall_s: {:.3} (windowed minimum of the runs' {} s)",
            metrics::windowed_minimum_s(&res.runs),
            per_run.join(", ")
        );
    }
    if let Some(run) = res.runs.first() {
        println!(
            "  samples per run: {} latencies ({} beyond p95, {} beyond p99), {} keys read back, {} retries",
            run.exact.latency_samples,
            run.exact.latency_samples * 5 / 100,
            run.exact.latency_samples / 100,
            run.exact.readback_keys,
            run.exact.retries
        );
    }
    print_values(metrics::PER_LAYER, &res.per_layer());
    if let Some(t) = res.traced.as_ref().and_then(|r| r.traced.as_ref()) {
        println!(
            "  trace: {} events, {} committed transactions attributed, coverage {:.1} %",
            t.events,
            t.attr_txns,
            t.attr_coverage_bp as f64 / 100.0
        );
    }
    for flag in &res.flags {
        println!("  FLAG: {flag}");
    }
    for problem in &res.problems {
        println!("  FAILED CHECK: {problem}");
    }
    if let Some(site) = &res.stall_site {
        println!("  stall_site: {site}");
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Value {
    name: String,
    value: f64,
    unit: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WorkloadEntry {
    name: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    stall_site: Option<String>,
    end_to_end: Vec<Value>,
    end_to_end_extra: Vec<Value>,
    per_layer: Vec<Value>,
}

/// What `suite` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SuiteFile {
    seed: u64,
    untraced_runs: u64,
    workloads: Vec<WorkloadEntry>,
    /// The isolated probes, measured once.
    probes: Vec<Value>,
}

fn values_of(table: &'static [metrics::Metric], values: &Values) -> Vec<Value> {
    values
        .iter()
        .map(|(name, value)| Value {
            name: name.to_string(),
            value: *value,
            unit: metrics::find(table, name).unit.to_string(),
        })
        .collect()
}

/// Runs every workload (`runs` untraced + 1 traced each) and the probes,
/// prints every metric by name and writes the result file.
pub fn run(seed: u64, runs: usize, out: Option<PathBuf>) -> Result<ExitCode, String> {
    let mut file = SuiteFile {
        seed,
        untraced_runs: runs as u64,
        workloads: Vec::new(),
        probes: Vec::new(),
    };
    let mut all_correct = true;
    for spec in spec::all() {
        println!("# {}: {}", spec.name, spec.why);
        let res = parent::run_workload(&spec, seed, runs, std::time::Duration::ZERO, true);
        print_workload(&res);
        if let Some(t) = res.traced.as_ref().and_then(|r| r.traced.as_ref()) {
            println!("{}", t.phase_breakdown);
        }
        all_correct &= res.correct();
        file.workloads.push(WorkloadEntry {
            name: spec.name.to_string(),
            correct: res.correct(),
            attempted: res.attempted,
            failed: res.failed,
            stall_site: res.stall_site.clone(),
            end_to_end: values_of(metrics::END_TO_END, &res.end_to_end()),
            end_to_end_extra: values_of(metrics::END_TO_END_EXTRA, &res.end_to_end_extra()),
            per_layer: values_of(metrics::PER_LAYER, &res.per_layer()),
        });
    }
    println!("# probes (workload-independent)");
    match parent::run_probes() {
        Ok(values) => {
            print_values(metrics::PER_LAYER, &values);
            file.probes = values_of(metrics::PER_LAYER, &values);
        }
        Err(why) => {
            println!("  FAILED CHECK: {why}");
            all_correct = false;
        }
    }
    if let Some(path) = out {
        let json = serde_json::to_vec(&file).expect("result serializes");
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[derive(Debug, Deserialize)]
struct ContractMetric {
    name: String,
    #[allow(dead_code)]
    unit: String,
    better: String,
    #[serde(default)]
    bound: f64,
}

/// The parts of BENCHMARK.json `compare` needs; unknown keys are skipped.
#[derive(Debug, Deserialize)]
struct Contract {
    end_to_end: Vec<ContractMetric>,
}

fn read<T: for<'de> Deserialize<'de>>(path: &Path) -> Result<T, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-layer numbers that repeat to six digits but not to the last one. The
/// simulator's switch count includes its teardown, which depends on how the
/// OS schedules exiting threads (1-2 switches in 600 000); the data
/// directory is sized while replicas may still hold a temporary file; and
/// the `rpc.handle` total includes background handlers whose order follows
/// a `HashMap`'s per-process hash seed (microseconds in seconds) — the
/// `attr.*` shares project those same handler spans onto the critical path
/// and inherit the wobble (seen once in three suite pairs, in the seventh
/// digit).
const NEARLY_EXACT: &[&str] = &[
    "sim.switches_per_txn",
    "store.disk_bytes_per_user_byte",
    "net.rpc_handle_vt_us_per_txn",
];

/// Per-workload numbers on the wall clock. They move with the host, so
/// `compare` prints them and holds them to nothing.
const WALL_CLOCK: &[&str] = &["wall_txn_per_s", "obs.trace_overhead_wall_pct"];

/// Two suite results of the same commit and seed must agree: exactly on the
/// virtual clock and on every count, within BENCHMARK.json's bound on
/// `setup_s` and `rss_peak_mib` (the second result may not be *worse* than
/// the first by more than the bound, either way round).
pub fn compare(contract: &Path, a: &Path, b: &Path) -> Result<ExitCode, String> {
    let contract: Contract = read(contract)?;
    let (a, b): (SuiteFile, SuiteFile) = (read(a)?, read(b)?);
    if a.seed != b.seed {
        return Err(format!("seeds differ: {} and {}", a.seed, b.seed));
    }
    let mut bad = Vec::new();
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        if !wa.correct || !wb.correct {
            bad.push(format!("{}: a run was not correct", wa.name));
        }
        for (va, vb) in wa.end_to_end.iter().zip(&wb.end_to_end) {
            let rule = contract
                .end_to_end
                .iter()
                .find(|m| m.name == va.name)
                .ok_or(format!("{} is not in BENCHMARK.json", va.name))?;
            let exact = va.name.starts_with("vt_");
            let apart = (va.value - vb.value).abs() / va.value.abs().max(f64::MIN_POSITIVE);
            let verdict = if exact && va.value != vb.value {
                "differs, and the virtual clock may not"
            } else if apart > rule.bound {
                "differs by more than its bound"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>7.2} % (bound {:.0} %, {} is better) {verdict}",
                wa.name,
                va.name,
                va.value,
                vb.value,
                apart * 100.0,
                rule.bound * 100.0,
                rule.better
            );
            if verdict != "ok" {
                bad.push(format!(
                    "{} {}: {} vs {} {verdict}",
                    wa.name, va.name, va.value, vb.value
                ));
            }
        }
        for (va, vb) in wa.per_layer.iter().zip(&wb.per_layer) {
            let apart = (va.value - vb.value).abs() / va.value.abs().max(f64::MIN_POSITIVE);
            let allowed = if WALL_CLOCK.contains(&va.name.as_str()) {
                println!(
                    "{:<14} {:<16} {:>14.4} {:>14.4} {:>7.2} % (wall clock, not held to a bound)",
                    wa.name,
                    va.name,
                    va.value,
                    vb.value,
                    apart * 100.0
                );
                f64::INFINITY
            } else if NEARLY_EXACT.contains(&va.name.as_str()) || va.name.starts_with("attr.") {
                1e-4
            } else {
                0.0
            };
            if apart > allowed {
                bad.push(format!(
                    "{} {}: {} vs {} (may differ by {allowed})",
                    wa.name, va.name, va.value, vb.value
                ));
            }
        }
    }
    for line in &bad {
        println!("SELFCHECK FAILED: {line}");
    }
    Ok(if bad.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
