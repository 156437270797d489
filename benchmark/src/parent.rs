//! The parent process: one child process per run, pinned to one core, under
//! a stall guard; then the checks that need more than one run.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::metrics::{self, Values};
use crate::report::RunOutput;
use crate::spec::Spec;

/// A child whose progress lines stop for this long is killed and its
/// workload marked stalled.
const STALL_AFTER: Duration = Duration::from_secs(20);
/// Prefix of the child's last stdout line.
pub const RESULT_PREFIX: &str = "result ";

/// Where runs keep their data: inside the build directory, so inside the
/// checkout. `TREATY_BENCH_DATA_DIR` moves it (to a tmpfs, say).
fn data_root() -> PathBuf {
    if let Some(dir) = std::env::var_os("TREATY_BENCH_DATA_DIR") {
        return PathBuf::from(dir);
    }
    let exe = std::env::current_exe().expect("own path");
    exe.parent()
        .expect("binary sits in a directory")
        .join("bench-data")
}

/// `taskset -c <last allowed cpu>` when there is a `taskset` and more than
/// one CPU to choose from; the simulator runs one fiber at a time, so a
/// second core only adds cross-core wake-ups.
fn pin_prefix() -> Vec<String> {
    static PREFIX: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    PREFIX.get_or_init(find_pin_prefix).clone()
}

fn find_pin_prefix() -> Vec<String> {
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let list = s
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
                .trim()
                .to_string();
            let last = list
                .rsplit(',')
                .next()?
                .rsplit('-')
                .next()?
                .parse::<u32>()
                .ok()?;
            (list != last.to_string()).then_some(last)
        });
    let have_taskset = Command::new("taskset")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    match allowed {
        Some(cpu) if have_taskset => vec!["taskset".into(), "-c".into(), cpu.to_string()],
        _ => Vec::new(),
    }
}

/// The library that turns `fsync`/`fdatasync` into no-ops in the children
/// (`shims/nosync`), if it was built next to this binary.
fn nosync_library() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let lib = exe.parent()?.join("libnosync.so");
    lib.exists().then_some(lib)
}

/// How a child ended.
pub enum ChildEnd {
    /// Its result line, without the prefix.
    Result(String),
    /// Killed by the stall guard, or stopped by the `parking_lot`
    /// stand-in's own guard, which names the site.
    Stalled {
        site: Option<String>,
        backtrace: String,
    },
    Crashed(String),
}

/// The first frame of the stall guard's backtrace that lies in `crates/`:
/// the acquire that waited.
fn stall_site(stderr: &str) -> Option<String> {
    stderr
        .lines()
        .filter_map(|l| l.trim().strip_prefix("at "))
        .find_map(|at| at.find("crates/").map(|i| at[i..].to_string()))
}

enum Line {
    Progress,
    Result(String),
    Closed,
}

fn run_child(mode: &str, args: &[String], data_dir: &Path) -> ChildEnd {
    let _ = std::fs::remove_dir_all(data_dir);
    std::fs::create_dir_all(data_dir).expect("data directory");
    let exe = std::env::current_exe().expect("own path");
    let mut argv = pin_prefix();
    argv.push(exe.to_string_lossy().into_owned());
    argv.push(mode.to_string());
    argv.extend_from_slice(args);
    argv.extend([
        "--data-dir".to_string(),
        data_dir.to_string_lossy().into_owned(),
    ]);
    let mut command = Command::new(&argv[0]);
    match nosync_library() {
        Some(lib) => command.env("LD_PRELOAD", lib),
        None => {
            eprintln!("warning: libnosync.so is not built; the wall clock will include the disk's sync latency");
            &mut command
        }
    };
    let mut child = command
        .args(&argv[1..])
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("child process starts");

    let (tx, rx) = mpsc::channel();
    let stdout = child.stdout.take().expect("piped");
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let msg = match line.strip_prefix(RESULT_PREFIX) {
                Some(json) => Line::Result(json.to_string()),
                None => Line::Progress,
            };
            if tx.send(msg).is_err() {
                return;
            }
        }
        let _ = tx.send(Line::Closed);
    });
    let mut stderr = child.stderr.take().expect("piped");
    let err_reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });

    let mut result = None;
    let mut killed = false;
    let mut last_progress = Instant::now();
    loop {
        match rx.recv_timeout(Duration::from_millis(250)) {
            Ok(Line::Progress) => last_progress = Instant::now(),
            Ok(Line::Result(json)) => result = Some(json),
            Ok(Line::Closed) | Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if last_progress.elapsed() > STALL_AFTER {
                    let _ = child.kill();
                    killed = true;
                    break;
                }
            }
        }
    }
    let status = child.wait().expect("child is ours to wait for");
    drop(rx);
    let _ = reader.join();
    let stderr = err_reader.join().unwrap_or_default();
    let _ = std::fs::remove_dir_all(data_dir);

    let guard_fired = status.code() == Some(parking_lot::STALL_EXIT_CODE);
    match result {
        Some(json) if status.success() => ChildEnd::Result(json),
        _ if killed || guard_fired => ChildEnd::Stalled {
            site: stall_site(&stderr),
            backtrace: stderr,
        },
        _ => ChildEnd::Crashed(format!("{status}: {}", stderr.trim())),
    }
}

/// Everything the parent learns about one workload at one seed.
pub struct WorkloadResult {
    pub spec: Spec,
    pub seed: u64,
    /// Untraced runs that finished.
    pub runs: Vec<RunOutput>,
    pub traced: Option<RunOutput>,
    /// Runs that stopped when their set-up was done.
    pub setups: Vec<RunOutput>,
    pub stall_site: Option<String>,
    /// Why the result is not correct. Empty on a good run.
    pub problems: Vec<String>,
    /// Things worth a line that do not make the result wrong.
    pub flags: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn end_to_end(&self) -> Values {
        if self.runs.is_empty() {
            return Values::new();
        }
        metrics::end_to_end(&self.runs, &self.setups)
    }

    pub fn end_to_end_extra(&self) -> Values {
        if self.runs.is_empty() {
            return Values::new();
        }
        metrics::end_to_end_extra(&self.runs, &self.setups, self.failed, self.attempted)
    }

    /// Sources S, H and T; empty for what could not be measured.
    pub fn per_layer(&self) -> Values {
        let mut out = Values::new();
        if let Some(run) = self.runs.first() {
            out.push(("wall_txn_per_s", metrics::wall_txn_per_s(&self.runs)));
            out.extend(metrics::from_stats(run));
            if let Some(traced) = &self.traced {
                let base = metrics::windowed_minimum_s(&self.runs);
                out.extend(metrics::from_trace(traced, base));
            }
        }
        out
    }
}

impl WorkloadResult {
    /// One child process in `mode` (`untraced`, `setup` or `traced`).
    /// False when it stalled or crashed: the next run of the same workload
    /// would end the same way.
    fn run_one(&mut self, mode: &str) -> bool {
        let n = self.runs.len() + self.setups.len();
        let args = [
            "--workload".to_string(),
            self.spec.name.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--mode".to_string(),
            mode.to_string(),
        ];
        let dir = data_root().join(format!("{}-{}-{n}", self.spec.name, std::process::id()));
        // A set-up attempts no transaction; if it dies, no number of failed
        // transactions says so, the problem below does.
        let per_run = match mode {
            "setup" => 0,
            _ => self.spec.total_txns() as u64,
        };
        self.attempted += per_run;
        match run_child("child-run", &args, &dir) {
            ChildEnd::Result(json) => match serde_json::from_slice::<RunOutput>(json.as_bytes()) {
                Ok(run) => {
                    self.failed += run.exact.failed;
                    for failure in &run.exact.check_failures {
                        self.problems.push(format!("run {n}: {failure}"));
                    }
                    match mode {
                        "traced" => self.traced = Some(run),
                        "setup" => self.setups.push(run),
                        _ => self.runs.push(run),
                    }
                }
                Err(e) => {
                    self.failed += per_run;
                    self.problems
                        .push(format!("run {n}: unreadable result: {e}"));
                }
            },
            ChildEnd::Stalled { site, backtrace } => {
                // All-or-nothing: a wedge fails every transaction of its run,
                // wherever in the window it happened to hit.
                self.failed += per_run;
                self.problems.push(format!(
                    "run {n} stalled at {}",
                    site.as_deref()
                        .unwrap_or("an unknown site (no progress for 20 s)")
                ));
                eprintln!("--- stalled run's stderr ---\n{backtrace}\n---");
                self.stall_site = site.or(Some("unknown".into()));
                return false;
            }
            ChildEnd::Crashed(why) => {
                self.failed += per_run;
                self.problems.push(format!("run {n} crashed: {why}"));
                return false;
            }
        }
        true
    }

    /// Set-ups alone, one after the other, until `stretch` has passed.
    fn run_setups(&mut self, stretch: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < stretch {
            if !self.run_one("setup") {
                return false;
            }
        }
        true
    }
}

/// Runs `spec` without the hub `untraced` times, then, if asked, once with
/// the hub. Before and after the untraced runs it makes the set-up alone for
/// half of `setup_sampling` each: the host's speed changes every few
/// seconds, and the smallest of samples spread over the whole call comes
/// nearer the machine's floor than that of samples taken in one stretch.
pub fn run_workload(
    spec: &Spec,
    seed: u64,
    untraced: usize,
    setup_sampling: Duration,
    traced: bool,
) -> WorkloadResult {
    let mut res = WorkloadResult {
        spec: spec.clone(),
        seed,
        runs: Vec::new(),
        traced: None,
        setups: Vec::new(),
        stall_site: None,
        problems: Vec::new(),
        flags: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let _ = res.run_setups(setup_sampling / 2)
        && (0..untraced).all(|_| res.run_one("untraced"))
        && res.run_setups(setup_sampling / 2)
        && (!traced || res.run_one("traced"));
    cross_run_checks(&mut res);
    res
}

/// The checks that need more than one run: the virtual clock and every
/// count repeat exactly; the traced run saw the same transactions.
fn cross_run_checks(res: &mut WorkloadResult) {
    if let Some((first, rest)) = res.runs.split_first() {
        for (n, run) in rest.iter().enumerate() {
            if run.exact != first.exact {
                res.problems.push(format!(
                    "runs 0 and {} disagree on the virtual clock or a count: {:?} vs {:?}",
                    n + 1,
                    first.exact,
                    run.exact
                ));
            }
        }
        for (n, setup) in res.setups.iter().enumerate() {
            if setup.exact.vt_setup_ns != first.exact.vt_setup_ns {
                res.problems.push(format!(
                    "set-up {n} ended at virtual time {}, run 0's at {}",
                    setup.exact.vt_setup_ns, first.exact.vt_setup_ns
                ));
            }
        }
        if let Some(traced) = &res.traced {
            // The hub's own bookkeeping charges no virtual time, so even the
            // traced run must land on the same numbers.
            if traced.exact != first.exact {
                res.flags.push(
                    "the traced run's virtual-time results differ from the untraced runs'".into(),
                );
            }
        }
    }
    if let Some(t) = res.traced.as_ref().and_then(|r| r.traced.as_ref()) {
        if t.attr_coverage_bp < 9_500 {
            res.flags.push(format!(
                "attribution covers {:.1} % of measured latency (< 95 %): read the attr.* shares with care",
                t.attr_coverage_bp as f64 / 100.0
            ));
        }
        if t.dropped_events > 0 {
            res.flags.push(format!(
                "the trace ring dropped {} events",
                t.dropped_events
            ));
        }
    }
}

/// Runs the isolated probes in a child of their own.
pub fn run_probes() -> Result<Values, String> {
    let dir = data_root().join(format!("probes-{}", std::process::id()));
    match run_child("child-probes", &[], &dir) {
        ChildEnd::Result(json) => {
            let pairs: Vec<(String, f64)> = serde_json::from_slice(json.as_bytes())
                .map_err(|e| format!("unreadable probe result: {e}"))?;
            Ok(pairs
                .into_iter()
                .map(|(name, value)| (metrics::find(metrics::PER_LAYER, &name).name, value))
                .collect())
        }
        ChildEnd::Stalled { site, .. } => Err(format!(
            "probes stalled at {}",
            site.unwrap_or_else(|| "an unknown site".into())
        )),
        ChildEnd::Crashed(why) => Err(format!("probes crashed: {why}")),
    }
}
