//! Hermetic two-clock benchmark for the Treaty reproduction. See README.md.
//!
//! ```text
//! treaty-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last stdout line is the driver's JSON result
//! treaty-benchmark suite [--seed <n>] [--out <file>]
//!     all four workloads and the probes; prints every metric by name
//! treaty-benchmark compare <BENCHMARK.json> <suite-a.json> <suite-b.json>
//!     fails if two suite results differ by more than the bounds allow
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use treaty_benchmark::metrics::{self, Metric, Values};
use treaty_benchmark::suite::{print_values, print_workload};
use treaty_benchmark::{parent, probes, reference, run, spec, suite};

/// Untraced runs per workload in the suite. They must agree exactly on the
/// virtual clock; the wall clock is their windowed minimum and `setup_s`
/// their smallest set-up.
const SUITE_RUNS: usize = 3;

struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            flags: HashMap::new(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.insert(name.to_string(), value);
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read `{v}`"))
            })
            .transpose()
    }

    fn need<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?.ok_or(format!("--{name} is required"))
    }

    fn workload(&self) -> Result<spec::Spec, String> {
        let name: String = self.need("workload")?;
        spec::by_name(&name).ok_or(format!(
            "unknown workload `{name}`; known: {}",
            spec::all()
                .iter()
                .map(|s| s.name)
                .collect::<Vec<_>>()
                .join(", ")
        ))
    }
}

/// Every metric of `table` as the result line wants it. What could not be
/// measured (a stalled run) reads 0, so the line still carries every name.
fn json_metrics(table: &'static [Metric], values: &Values) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            // `{:?}` prints every digit the f64 holds.
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The child's last stdout line, which `parent::run_child` waits for.
fn print_result(value: &impl serde::Serialize) {
    let json = serde_json::to_vec(value).expect("result serializes");
    println!(
        "{}{}",
        parent::RESULT_PREFIX,
        String::from_utf8(json).expect("JSON is UTF-8")
    );
}

/// One workload the way the driver calls it.
fn driver_mode(args: &Args) -> Result<ExitCode, String> {
    let spec = args.workload()?;
    let seed: u64 = args.need("seed")?;
    // Sizes are fixed by transaction count, which is what makes the virtual
    // clock exact: a run measures its whole window however long that takes.
    // `--seconds` is how long the call samples the set-up for `setup_s`
    // (README, "What the driver's contract changed").
    let seconds: f64 = args.need("seconds")?;
    let setup_sampling =
        Duration::try_from_secs_f64(seconds).map_err(|e| format!("--seconds: {e}"))?;
    let traced = match args.need::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };

    let (res, metrics_json) = if traced {
        let mut res = parent::run_workload(&spec, seed, 1, Duration::ZERO, true);
        let mut values = parent::run_probes().unwrap_or_else(|why| {
            res.problems.push(why);
            Values::new()
        });
        print_workload(&res);
        println!("  probes:");
        print_values(metrics::PER_LAYER, &values);
        values.extend(res.per_layer());
        (res, json_metrics(metrics::PER_LAYER, &values))
    } else {
        let res = parent::run_workload(&spec, seed, 1, setup_sampling, false);
        print_workload(&res);
        let values = res.end_to_end();
        (res, json_metrics(metrics::END_TO_END, &values))
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.correct(),
        res.attempted,
        res.failed,
        metrics_json
    );
    Ok(if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child_run(args: &Args) -> Result<ExitCode, String> {
    let spec = args.workload()?;
    // Before the set-up's clock starts, and next to it in time.
    let reference_s = reference::burst_s();
    let started = Instant::now();
    let mut out = run::run(
        &spec,
        args.need("seed")?,
        args.need::<PathBuf>("data-dir")?,
        match args.need::<String>("mode")?.as_str() {
            "untraced" => run::Mode::Untraced,
            "traced" => run::Mode::Traced,
            "setup" => run::Mode::SetupOnly,
            other => return Err(format!("--mode: unknown `{other}`")),
        },
        started,
    );
    out.reference_s = reference_s;
    print_result(&out);
    Ok(ExitCode::SUCCESS)
}

fn child_probes(args: &Args) -> Result<ExitCode, String> {
    print_result(&probes::run_all(&args.need::<PathBuf>("data-dir")?));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let outcome =
        Args::parse().and_then(|args| match args.positional.first().map(String::as_str) {
            None => driver_mode(&args),
            Some("suite") => suite::run(
                args.get("seed")?.unwrap_or(42),
                SUITE_RUNS,
                args.get("out")?,
            ),
            Some("compare") => match &args.positional[1..] {
                [contract, a, b] => suite::compare(contract.as_ref(), a.as_ref(), b.as_ref()),
                _ => Err("compare needs BENCHMARK.json and two suite files".into()),
            },
            Some("child-run") => child_run(&args),
            Some("child-probes") => child_probes(&args),
            Some(other) => Err(format!("unknown command `{other}`")),
        });
    outcome.unwrap_or_else(|why| {
        eprintln!("treaty-benchmark: {why}");
        ExitCode::from(2)
    })
}
