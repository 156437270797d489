//! One run: boot a cluster inside the simulator, preload, drive the closed
//! loop, check every output. Everything here goes through the public API of
//! `crates/*`; no tracing is added inside the program.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use treaty_core::{Cluster, ClusterOptions, TreatyClient, TreatyError};
use treaty_sim::runtime::{self, join, spawn};
use treaty_sim::{Nanos, Sim};
use treaty_store::{EngineStats, EngineTxn as _, TxnMode};
use treaty_workload::ycsb::KEY_SPACE_END;
use treaty_workload::{YcsbGenerator, YcsbOpKind};

use crate::report::{Exact, Layers, RunOutput, WALL_SLICES};
use crate::spec::Spec;
use crate::trace;

/// A client gives up on a transaction after this many aborted attempts.
const MAX_ATTEMPTS: usize = 8;
/// Rows per preload transaction.
const PRELOAD_BATCH: usize = 512;
/// Keys per transaction of the final read-back.
const READBACK_BATCH: usize = 64;

/// How much of a run a child process makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up, window and read-back, without the trace hub.
    Untraced,
    /// The same with the hub installed for the window.
    Traced,
    /// Set-up alone: one more `setup_s` sample for the price of a set-up.
    SetupOnly,
}

/// One generated operation, with the value an update writes.
enum Op {
    Read(Vec<u8>),
    Update(Vec<u8>, Vec<u8>),
    Scan(Vec<u8>, usize),
}

/// Tells the parent process the run is alive (`parent::run_child` kills a
/// child that goes quiet). A parent that no longer reads is gone, and the
/// child ends with it instead of running on as an orphan.
pub fn progress(what: &str, n: usize) {
    let mut out = std::io::stdout().lock();
    if writeln!(out, "progress {what} {n}")
        .and_then(|()| out.flush())
        .is_err()
    {
        std::process::exit(3);
    }
}

/// Nearest-rank percentile of `sorted`; 0 when empty.
pub fn percentile(sorted: &[Nanos], pct: usize) -> Nanos {
    match sorted.len() {
        0 => 0,
        n => sorted[(n * pct).div_ceil(100).max(1) - 1],
    }
}

fn median_of(mut samples: Vec<Nanos>) -> Nanos {
    samples.sort_unstable();
    percentile(&samples, 50)
}

/// The transactions of client `c`: generated up front so that a retry
/// replays exactly the same operations and values.
fn plan_client(spec: &Spec, seed: u64, c: usize) -> Vec<Vec<Op>> {
    let mut gen = YcsbGenerator::new(spec.ycsb, seed ^ (c as u64 + 1));
    (0..spec.txns_per_client)
        .map(|_| {
            gen.next_txn()
                .into_iter()
                .map(|op| match op.kind {
                    YcsbOpKind::Read => Op::Read(op.key),
                    YcsbOpKind::Update | YcsbOpKind::Insert => {
                        let value = gen.next_value();
                        Op::Update(op.key, value)
                    }
                    YcsbOpKind::Scan { len } => Op::Scan(op.key, len as usize),
                })
                .collect()
        })
        .collect()
}

fn preload(cluster: &Cluster, spec: &Spec, seed: u64) {
    let endpoints = cluster.node_endpoints();
    let mut per_node: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); endpoints.len()];
    let mut seeder = YcsbGenerator::new(spec.ycsb, seed);
    for key in YcsbGenerator::all_keys(&spec.ycsb) {
        let owner = cluster.shard_map().owner(&key);
        let idx = endpoints
            .iter()
            .position(|e| *e == owner)
            .expect("owner is a node");
        per_node[idx].push((key, seeder.next_value()));
    }
    let mut batches = 0;
    for (idx, rows) in per_node.iter().enumerate() {
        let store = cluster.store(idx).expect("durable cluster").clone();
        for chunk in rows.chunks(PRELOAD_BATCH) {
            let mut txn = store.begin_mode(TxnMode::Pessimistic);
            for (k, v) in chunk {
                txn.put(k, v).expect("preload put");
            }
            txn.commit().expect("preload commit");
            batches += 1;
            progress("preload", batches);
        }
    }
    // Flushes and compactions the preload queued finish before the window,
    // so the window itself sees a quiescent LSM (README, "not measured").
    for idx in 0..endpoints.len() {
        let store = cluster.store(idx).expect("durable cluster");
        store.drain_maintenance().expect("preload maintenance");
        progress("drain", idx);
    }
}

fn engine_totals(cluster: &Cluster, nodes: usize) -> EngineStats {
    let mut sum = EngineStats::default();
    for idx in 0..nodes {
        let s = cluster.store(idx).expect("durable cluster").stats();
        sum.gets += s.gets;
        sum.scans += s.scans;
        sum.block_cache_hits += s.block_cache_hits;
        sum.block_cache_misses += s.block_cache_misses;
        sum.bloom_negatives += s.bloom_negatives;
        sum.bloom_false_positives += s.bloom_false_positives;
        sum.flushes += s.flushes;
        sum.compactions += s.compactions;
    }
    sum
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the client fibers share during the window.
struct Window {
    spec: Spec,
    wall_start: Instant,
    finished: AtomicUsize,
    state: Mutex<WindowState>,
}

#[derive(Default)]
struct WindowState {
    wall_marks_ns: Vec<u64>,
    latencies: Vec<Nanos>,
    committed: u64,
    failed: u64,
    retries: u64,
    get_vt: Vec<Nanos>,
    put_vt: Vec<Nanos>,
    scan_vt: Vec<Nanos>,
    commit_vt: Vec<Nanos>,
    /// Key → (committed transactions that wrote it, the last one's value).
    writers: HashMap<Vec<u8>, (u32, Vec<u8>)>,
    check_failures: Vec<String>,
}

impl WindowState {
    fn fail(&mut self, what: String) {
        // The first few say what is wrong; thousands more say nothing new.
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }
}

/// Per-call virtual timings of one attempt; kept only if it commits.
#[derive(Default)]
struct AttemptTimes {
    get: Vec<Nanos>,
    put: Vec<Nanos>,
    scan: Vec<Nanos>,
    commit: Nanos,
}

enum AttemptError {
    /// The transaction aborted (lock timeout, conflict, participant vote):
    /// what a real client retries.
    Aborted,
    Fatal(String),
}

impl From<TreatyError> for AttemptError {
    fn from(e: TreatyError) -> Self {
        match e {
            TreatyError::Aborted(..) => AttemptError::Aborted,
            other => AttemptError::Fatal(other.to_string()),
        }
    }
}

fn check_scan(
    start: &[u8],
    limit: usize,
    rows: &[(Vec<u8>, Vec<u8>)],
    value_size: usize,
) -> Result<(), String> {
    if rows.len() > limit {
        return Err(format!("scan returned {} rows, limit {limit}", rows.len()));
    }
    for (i, (k, v)) in rows.iter().enumerate() {
        if k.as_slice() < start || k.as_slice() >= KEY_SPACE_END {
            return Err("scan returned a key outside its bounds".into());
        }
        if i > 0 && rows[i - 1].0 >= *k {
            return Err("scan result is not strictly ascending".into());
        }
        if v.len() != value_size {
            return Err(format!("scan returned a value of {} bytes", v.len()));
        }
    }
    Ok(())
}

/// One attempt at one transaction. The `bench.*` spans are the harness's
/// own; they carry the transaction id as an argument rather than as the
/// span's scope, so the program's `client.*` spans stay the roots
/// `treaty_obs::attribute` anchors on.
fn attempt(
    client: &TreatyClient,
    coordinator: u32,
    ops: &[Op],
    value_size: usize,
    window: &Window,
) -> Result<AttemptTimes, AttemptError> {
    use treaty_sim::obs::span_with;
    let mut times = AttemptTimes::default();
    let mut txn = client.begin(coordinator);
    let id = [("txn", txn.gtx().seq)];
    for op in ops {
        let t = runtime::now();
        match op {
            Op::Read(key) => {
                let got = {
                    let _span = span_with("bench.get", &id);
                    txn.get(key)?
                };
                times.get.push(runtime::now() - t);
                // Every key is preloaded and every update keeps the size.
                if got.as_ref().map(Vec::len) != Some(value_size) {
                    window.state.lock().fail(format!(
                        "get returned {:?} bytes, expected {value_size}",
                        got.map(|v| v.len())
                    ));
                }
            }
            Op::Update(key, value) => {
                {
                    let _span = span_with("bench.put", &id);
                    txn.put(key, value)?;
                }
                times.put.push(runtime::now() - t);
            }
            Op::Scan(start, limit) => {
                let rows = {
                    let _span = span_with("bench.scan", &id);
                    txn.scan(start, KEY_SPACE_END, *limit)?
                };
                times.scan.push(runtime::now() - t);
                if let Err(what) = check_scan(start, *limit, &rows, value_size) {
                    window.state.lock().fail(what);
                }
            }
        }
    }
    let t = runtime::now();
    {
        let _span = span_with("bench.commit", &id);
        txn.commit()?;
    }
    times.commit = runtime::now() - t;
    Ok(times)
}

fn client_loop(cluster: &Cluster, window: &Window, c: usize, plans: Vec<Vec<Op>>) {
    runtime::set_tag("bench-client");
    let client = cluster.client();
    let coordinator = 1 + (c % window.spec.nodes) as u32;
    let total = window.spec.total_txns();
    for ops in plans {
        let first_attempt = runtime::now();
        let mut retries = 0;
        let outcome = loop {
            match attempt(
                &client,
                coordinator,
                &ops,
                window.spec.ycsb.value_size,
                window,
            ) {
                Err(AttemptError::Aborted) if retries + 1 < MAX_ATTEMPTS as u64 => retries += 1,
                other => break other,
            }
        };
        let latency = runtime::now() - first_attempt;
        let done = window.finished.fetch_add(1, Ordering::Relaxed) + 1;
        let mut st = window.state.lock();
        st.retries += retries;
        match outcome {
            Ok(times) => {
                st.committed += 1;
                st.latencies.push(latency);
                st.get_vt.extend(times.get);
                st.put_vt.extend(times.put);
                st.scan_vt.extend(times.scan);
                st.commit_vt.push(times.commit);
                for op in &ops {
                    if let Op::Update(key, value) = op {
                        let entry = st.writers.entry(key.clone()).or_default();
                        entry.0 += 1;
                        entry.1.clone_from(value);
                    }
                }
            }
            Err(AttemptError::Aborted) => {
                st.failed += 1;
                st.fail(format!("a transaction aborted {MAX_ATTEMPTS} times"));
            }
            Err(AttemptError::Fatal(why)) => {
                st.failed += 1;
                st.fail(format!("a transaction errored: {why}"));
            }
        }
        // Same transactions in every run of this seed, so slice k holds the
        // same work in every run.
        if done * WALL_SLICES / total > (done - 1) * WALL_SLICES / total {
            st.wall_marks_ns
                .push(window.wall_start.elapsed().as_nanos() as u64);
            drop(st);
            progress("window", done);
        }
    }
    client.disconnect();
}

/// Re-reads, in fresh transactions, every key that exactly one committed
/// transaction wrote, and expects that transaction's value.
fn read_back(cluster: &Cluster, st: &mut WindowState) -> u64 {
    let mut expected: Vec<(&Vec<u8>, &Vec<u8>)> = st
        .writers
        .iter()
        .filter(|(_, (count, _))| *count == 1)
        .map(|(k, (_, v))| (k, v))
        .collect();
    expected.sort();
    let client = cluster.client();
    let mut wrong = Vec::new();
    for (i, chunk) in expected.chunks(READBACK_BATCH).enumerate() {
        let mut txn = client.begin(1);
        for (key, value) in chunk {
            match txn.get(key) {
                Ok(Some(got)) if got == **value => {}
                Ok(_) => {
                    wrong.push("read-back found another value than the committed one".to_string())
                }
                Err(e) => wrong.push(format!("read-back get failed: {e}")),
            }
        }
        if let Err(e) = txn.commit() {
            wrong.push(format!("read-back commit failed: {e}"));
        }
        progress("readback", i);
    }
    client.disconnect();
    let checked = expected.len() as u64;
    for w in wrong {
        st.fail(w);
    }
    checked
}

fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `spec` once with its data under `data_dir`. `started` is the origin
/// of `setup_s`: when the process had read its arguments.
pub fn run(spec: &Spec, seed: u64, data_dir: PathBuf, mode: Mode, started: Instant) -> RunOutput {
    let result: Arc<Mutex<Option<RunOutput>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let spec2 = spec.clone();
    let report = Sim::new()
        .run(move || {
            *slot.lock() = Some(run_in_sim(spec2, seed, data_dir, mode, started));
        })
        .expect("simulation failed");
    let mut out = result.lock().take().expect("root fiber produced a result");
    out.layers.sim_switches = report.switches;
    out.rss_peak_kib = vm_hwm_kib();
    out
}

fn run_in_sim(
    spec: Spec,
    seed: u64,
    data_dir: PathBuf,
    mode: Mode,
    started: Instant,
) -> RunOutput {
    let mut options = ClusterOptions::new(spec.profile, data_dir.clone());
    options.nodes = spec.nodes;
    options.engine_config.memtable_bytes = spec.memtable_bytes;
    if let Some(bytes) = spec.block_cache_bytes {
        options.engine_config.block_cache_bytes = bytes;
    }
    let cluster = Cluster::start(options).expect("cluster boots");
    progress("boot", spec.nodes);
    preload(&cluster, &spec, seed);

    let plans: Vec<Vec<Vec<Op>>> = (0..spec.clients)
        .map(|c| plan_client(&spec, seed, c))
        .collect();
    let before = engine_totals(&cluster, spec.nodes);
    let sent_before = cluster.fabric().stats().sent;
    // Installed only now, so the ring buffer holds the window and nothing
    // of the preload.
    let obs = (mode == Mode::Traced).then(|| {
        let obs = treaty_obs::Obs::new(trace::EVENT_CAP);
        treaty_sim::obs::install(&obs);
        obs
    });

    let cluster = Arc::new(cluster);
    let window = Arc::new(Window {
        spec: spec.clone(),
        wall_start: Instant::now(),
        finished: AtomicUsize::new(0),
        state: Mutex::new(WindowState::default()),
    });
    let setup_s = started.elapsed().as_secs_f64();
    let vt_start = runtime::now();
    if mode == Mode::SetupOnly {
        let mut cluster = Arc::try_unwrap(cluster).expect("no client has started");
        cluster.shutdown();
        return RunOutput {
            workload: spec.name.to_string(),
            seed,
            exact: Exact {
                vt_setup_ns: vt_start,
                ..Exact::default()
            },
            setup_s,
            ..RunOutput::default()
        };
    }
    let fibers: Vec<_> = plans
        .into_iter()
        .enumerate()
        .map(|(c, plans)| {
            let (cluster, window) = (Arc::clone(&cluster), Arc::clone(&window));
            spawn(move || client_loop(&cluster, &window, c, plans))
        })
        .collect();
    for f in fibers {
        join(f);
    }
    let vt_window_ns = runtime::now() - vt_start;
    let traced_out = obs.map(|obs| {
        treaty_sim::obs::uninstall();
        trace::extract(&obs)
    });

    let after = engine_totals(&cluster, spec.nodes);
    let net_msgs = cluster.fabric().stats().sent - sent_before;
    let mut st = std::mem::take(&mut *window.state.lock());
    let readback_keys = read_back(&cluster, &mut st);
    // The read-back's own transactions commit through a coordinator too.
    let readback_txns = readback_keys.div_ceil(READBACK_BATCH as u64);
    let cluster_committed = cluster.totals().0 - readback_txns;
    if cluster_committed != st.committed {
        st.fail(format!(
            "harness counted {} commits, cluster.totals() says {cluster_committed}",
            st.committed
        ));
    }
    st.latencies.sort_unstable();
    st.commit_vt.sort_unstable();
    let key_len = YcsbGenerator::all_keys(&spec.ycsb)
        .next()
        .map_or(0, |k| k.len());
    let out = RunOutput {
        workload: spec.name.to_string(),
        seed,
        exact: Exact {
            attempted: spec.total_txns() as u64,
            committed: st.committed,
            failed: st.failed,
            retries: st.retries,
            cluster_committed,
            vt_setup_ns: vt_start,
            vt_window_ns,
            vt_mean_ns: st.latencies.iter().sum::<Nanos>() / st.latencies.len().max(1) as u64,
            vt_p50_ns: percentile(&st.latencies, 50),
            vt_p95_ns: percentile(&st.latencies, 95),
            vt_p99_ns: percentile(&st.latencies, 99),
            latency_samples: st.latencies.len() as u64,
            net_msgs,
            readback_keys,
            check_failures: std::mem::take(&mut st.check_failures),
        },
        layers: Layers {
            store_gets: after.gets - before.gets,
            store_scans: after.scans - before.scans,
            block_cache_hits: after.block_cache_hits - before.block_cache_hits,
            block_cache_misses: after.block_cache_misses - before.block_cache_misses,
            bloom_negatives: after.bloom_negatives - before.bloom_negatives,
            bloom_false_positives: after.bloom_false_positives - before.bloom_false_positives,
            flushes: after.flushes,
            compactions: after.compactions,
            disk_bytes: dir_bytes(&data_dir),
            user_bytes: spec.ycsb.keys * (key_len + spec.ycsb.value_size) as u64,
            // Known only once the simulation has ended; `run` fills it in.
            sim_switches: 0,
            get_vt_p50_ns: median_of(std::mem::take(&mut st.get_vt)),
            put_vt_p50_ns: median_of(std::mem::take(&mut st.put_vt)),
            scan_vt_p50_ns: median_of(std::mem::take(&mut st.scan_vt)),
            commit_vt_p50_ns: percentile(&st.commit_vt, 50),
            commit_vt_p99_ns: percentile(&st.commit_vt, 99),
        },
        traced: traced_out,
        setup_s,
        // The caller measured it before `started`.
        reference_s: 0.0,
        wall_marks_ns: std::mem::take(&mut st.wall_marks_ns),
        rss_peak_kib: 0,
    };
    let mut cluster = Arc::try_unwrap(cluster).expect("client fibers have ended");
    cluster.shutdown();
    out
}
