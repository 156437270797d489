//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction, and how each is computed from what the runs hand back.
//! `tests/contract.rs` holds BENCHMARK.json to this table.

use treaty_obs::Category;

use crate::reference;
use crate::report::{RunOutput, WALL_SLICES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees, as BENCHMARK.json lists it. Virtual
/// times carry their own units (`vt_us`, `vt_ns`): a virtual microsecond is
/// what the cost model charges, not a microsecond anyone waited. The wall
/// clock of the window is not here but at the head of [`PER_LAYER`].
pub const END_TO_END: &[Metric] = &[
    m("vt_txn_per_s", "txn/vt_s", Higher),
    m("vt_mean_us", "vt_us", Lower),
    m("vt_p95_us", "vt_us", Lower),
    m("setup_s", "s", Lower),
    m("rss_peak_mib", "MiB", Lower),
];

/// End-to-end numbers that are printed but cannot be in BENCHMARK.json
/// (README, "What the driver's contract changed"): the median sits on a
/// stabilization plateau and repeats exactly across seeds on `scan_dist`,
/// p99 has too few samples beyond it on the shortened `scan_dist`, and the
/// failed share is 0 on a healthy tree — it travels as `failed`/`attempted`.
pub const END_TO_END_EXTRA: &[Metric] = &[
    m("setup_raw_s", "s", Lower),
    m("reference_ms", "ms", Lower),
    m("vt_p50_us", "vt_us", Lower),
    m("vt_p99_us", "vt_us", Lower),
    m("txn_failed_share", "share", Lower),
];

/// Single layers. Sources: P isolated probe, S `stats()` accessors, H the
/// harness timing its own `DistTxn` calls, T the traced run.
pub const PER_LAYER: &[Metric] = &[
    // All layers at once, on the wall clock. Listed with the per-layer
    // metrics because those carry no bound: the host's speed drifts by more
    // than any bound the contract allows (README, "Why the wall clock is
    // not gated").
    m("wall_txn_per_s", "txn/s", Higher),
    // crypto (P)
    m("crypto.aead_seal_64_wall_ns", "ns", Lower),
    m("crypto.aead_seal_1k_wall_ns", "ns", Lower),
    m("crypto.aead_open_1k_wall_ns", "ns", Lower),
    m("crypto.sha256_4k_wall_ns", "ns", Lower),
    m("crypto.hmac_64_wall_ns", "ns", Lower),
    m("crypto.envelope_roundtrip_1k_wall_ns", "ns", Lower),
    // tee (P, T)
    m("tee.vault_store_load_1k_wall_ns", "ns", Lower),
    m("tee.world_switches_per_txn", "count", Lower),
    m("tee.epc_faults_per_txn", "count", Lower),
    // net (P, S, T)
    m("net.rpc_roundtrip_1k_wall_ns", "ns", Lower),
    m("net.rpc_roundtrip_1k_vt_ns", "vt_ns", Lower),
    m("net.msgs_per_txn", "count", Lower),
    m("net.rpc_handle_vt_us_per_txn", "vt_us", Lower),
    // counter (P)
    m("counter.stabilize_vt_us", "vt_us", Lower),
    m("counter.stabilize_wall_us", "us", Lower),
    // store (P)
    m("store.put_commit_wall_us", "us", Lower),
    m("store.put_commit_vt_us", "vt_us", Lower),
    m("store.get_mem_wall_ns", "ns", Lower),
    m("store.get_sst_hit_wall_ns", "ns", Lower),
    m("store.get_sst_miss_wall_ns", "ns", Lower),
    m("store.get_sst_miss_vt_ns", "vt_ns", Lower),
    m("store.scan20_wall_us", "us", Lower),
    m("store.scan20_vt_us", "vt_us", Lower),
    m("store.lock_cycle_wall_ns", "ns", Lower),
    m("store.wal_append_1k_wall_us", "us", Lower),
    // store (S)
    m("store.gets_per_txn", "count", Lower),
    m("store.scans_per_txn", "count", Lower),
    m("store.block_cache_hit_ratio", "ratio", Higher),
    m("store.bloom_fp_ratio", "ratio", Lower),
    m("store.flushes", "count", Lower),
    m("store.compactions", "count", Lower),
    m("store.disk_bytes_per_user_byte", "ratio", Lower),
    // store (T)
    m("store.get_vt_us_per_txn", "vt_us", Lower),
    m("store.scan_vt_us_per_txn", "vt_us", Lower),
    m("store.lock_wait_vt_us_per_txn", "vt_us", Lower),
    m("store.lock_acquires_per_txn", "count", Lower),
    m("store.lock_contended_per_txn", "count", Lower),
    // core (P, H, T)
    m("core.codec_roundtrip_wall_ns", "ns", Lower),
    m("core.get_vt_us_p50", "vt_us", Lower),
    m("core.put_vt_us_p50", "vt_us", Lower),
    m("core.scan_vt_us_p50", "vt_us", Lower),
    m("core.commit_vt_us_p50", "vt_us", Lower),
    m("core.commit_vt_us_p99", "vt_us", Lower),
    m("core.retries_per_txn", "count", Lower),
    m("core.2pc_prepare_vt_us_per_txn", "vt_us", Lower),
    m("core.participant_prepare_vt_us_per_txn", "vt_us", Lower),
    m("core.2pc_decide_vt_us_per_txn", "vt_us", Lower),
    m("core.clog_stabilize_vt_us_per_txn", "vt_us", Lower),
    // sim/sched (P, S)
    m("sim.fiber_switch_wall_ns", "ns", Lower),
    m("sim.switches_per_txn", "count", Lower),
    // workload (P)
    m("workload.gen_wall_ns_per_txn", "ns", Lower),
    // obs (T): shares of committed transactions' virtual critical path
    m("attr.lock_wait_share", "share", Lower),
    m("attr.clog_durability_share", "share", Lower),
    m("attr.network_share", "share", Lower),
    m("attr.store_read_share", "share", Lower),
    m("attr.store_write_share", "share", Lower),
    m("attr.tee_share", "share", Lower),
    m("attr.queueing_share", "share", Lower),
    m("attr.other_share", "share", Lower),
    m("obs.dropped_events", "count", Lower),
    m("obs.trace_overhead_wall_pct", "%", Lower),
];

/// `attr.*` names in `treaty_obs::Category::ALL` order.
const ATTR_NAMES: [&str; treaty_obs::attribution::CATEGORY_COUNT] = [
    "attr.lock_wait_share",
    "attr.clog_durability_share",
    "attr.network_share",
    "attr.store_read_share",
    "attr.store_write_share",
    "attr.tee_share",
    "attr.queueing_share",
    "attr.other_share",
];

pub type Values = Vec<(&'static str, f64)>;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Σ over the window's slices of the fastest run's time for that slice.
/// Every run does the same work in slice k, so the minimum strips what
/// the neighbours on the machine added and keeps what the program costs.
pub fn windowed_minimum_s(runs: &[RunOutput]) -> f64 {
    let slice_ns = |run: &RunOutput, k: usize| {
        let start = if k == 0 { 0 } else { run.wall_marks_ns[k - 1] };
        run.wall_marks_ns[k] - start
    };
    let complete = runs.iter().filter(|r| r.wall_marks_ns.len() == WALL_SLICES);
    let total: u64 = (0..WALL_SLICES)
        .map(|k| complete.clone().map(|r| slice_ns(r, k)).min().unwrap_or(0))
        .sum();
    total as f64 / 1e9
}

/// The smallest set-up of the call, as measured: noise only ever adds
/// time, so the smallest is the cleanest.
fn setup_raw_s(runs: &[RunOutput], setups: &[RunOutput]) -> f64 {
    runs.iter()
        .chain(setups)
        .map(|r| r.setup_s)
        .fold(f64::INFINITY, f64::min)
}

/// The core's typical speed over the call: the median of the reference
/// readings the runs took before their set-ups.
fn reference_s(runs: &[RunOutput], setups: &[RunOutput]) -> f64 {
    median(runs.iter().chain(setups).map(|r| r.reference_s).collect())
}

/// End-to-end metrics from the untraced runs of one workload and seed;
/// `setups` are further runs that made their set-up and nothing else.
pub fn end_to_end(runs: &[RunOutput], setups: &[RunOutput]) -> Values {
    let exact = &runs[0].exact;
    vec![
        (
            "vt_txn_per_s",
            ratio(exact.committed, exact.vt_window_ns) * 1e9,
        ),
        ("vt_mean_us", exact.vt_mean_ns as f64 / 1e3),
        ("vt_p95_us", exact.vt_p95_ns as f64 / 1e3),
        // What the smallest set-up would have taken had the core run the
        // reference loop in its nominal time.
        (
            "setup_s",
            setup_raw_s(runs, setups) * reference::NOMINAL_S / reference_s(runs, setups),
        ),
        (
            "rss_peak_mib",
            median(
                runs.iter()
                    .map(|r| r.rss_peak_kib as f64 / 1024.0)
                    .collect(),
            ),
        ),
    ]
}

/// What [`END_TO_END_EXTRA`] lists, for `failed` of `attempted`
/// transactions over all runs.
pub fn end_to_end_extra(
    runs: &[RunOutput],
    setups: &[RunOutput],
    failed: u64,
    attempted: u64,
) -> Values {
    let exact = &runs[0].exact;
    vec![
        ("setup_raw_s", setup_raw_s(runs, setups)),
        ("reference_ms", reference_s(runs, setups) * 1e3),
        ("vt_p50_us", exact.vt_p50_ns as f64 / 1e3),
        ("vt_p99_us", exact.vt_p99_ns as f64 / 1e3),
        ("txn_failed_share", ratio(failed, attempted)),
    ]
}

/// Committed transactions per second of `wall_s`, the windowed minimum of
/// the untraced runs.
pub fn wall_txn_per_s(runs: &[RunOutput]) -> f64 {
    runs[0].exact.committed as f64 / windowed_minimum_s(runs)
}

/// Sources S and H, from one untraced run.
pub fn from_stats(run: &RunOutput) -> Values {
    let (x, l) = (&run.exact, &run.layers);
    let per_txn = |n: u64| ratio(n, x.committed);
    let us = |ns: u64| ns as f64 / 1e3;
    vec![
        ("net.msgs_per_txn", per_txn(x.net_msgs)),
        ("store.gets_per_txn", per_txn(l.store_gets)),
        ("store.scans_per_txn", per_txn(l.store_scans)),
        (
            "store.block_cache_hit_ratio",
            ratio(
                l.block_cache_hits,
                l.block_cache_hits + l.block_cache_misses,
            ),
        ),
        (
            "store.bloom_fp_ratio",
            ratio(
                l.bloom_false_positives,
                l.bloom_false_positives + l.bloom_negatives,
            ),
        ),
        ("store.flushes", l.flushes as f64),
        ("store.compactions", l.compactions as f64),
        (
            "store.disk_bytes_per_user_byte",
            ratio(l.disk_bytes, l.user_bytes),
        ),
        ("core.get_vt_us_p50", us(l.get_vt_p50_ns)),
        ("core.put_vt_us_p50", us(l.put_vt_p50_ns)),
        ("core.scan_vt_us_p50", us(l.scan_vt_p50_ns)),
        ("core.commit_vt_us_p50", us(l.commit_vt_p50_ns)),
        ("core.commit_vt_us_p99", us(l.commit_vt_p99_ns)),
        ("core.retries_per_txn", per_txn(x.retries)),
        ("sim.switches_per_txn", per_txn(l.sim_switches)),
    ]
}

/// Source T. `untraced_wall_s` is the same work's wall time without the
/// hub, the base of the overhead percentage.
pub fn from_trace(run: &RunOutput, untraced_wall_s: f64) -> Values {
    let t = run.traced.as_ref().expect("a traced run");
    let committed = run.exact.committed;
    let per_txn = |n: u64| ratio(n, committed);
    let us_per_txn = |ns: u64| ratio(ns, committed) / 1e3;
    let mut out = vec![
        ("tee.world_switches_per_txn", per_txn(t.world_switches)),
        ("tee.epc_faults_per_txn", per_txn(t.epc_faults)),
        (
            "net.rpc_handle_vt_us_per_txn",
            us_per_txn(t.rpc_handle_vt_ns),
        ),
        ("store.get_vt_us_per_txn", us_per_txn(t.store_get_vt_ns)),
        ("store.scan_vt_us_per_txn", us_per_txn(t.store_scan_vt_ns)),
        (
            "store.lock_wait_vt_us_per_txn",
            us_per_txn(t.lock_wait_vt_ns),
        ),
        ("store.lock_acquires_per_txn", per_txn(t.lock_acquires)),
        ("store.lock_contended_per_txn", per_txn(t.lock_contended)),
        (
            "core.2pc_prepare_vt_us_per_txn",
            us_per_txn(t.prepare_vt_ns),
        ),
        (
            "core.participant_prepare_vt_us_per_txn",
            us_per_txn(t.participant_prepare_vt_ns),
        ),
        ("core.2pc_decide_vt_us_per_txn", us_per_txn(t.decide_vt_ns)),
        (
            "core.clog_stabilize_vt_us_per_txn",
            us_per_txn(t.clog_stabilize_vt_ns),
        ),
        ("obs.dropped_events", t.dropped_events as f64),
    ];
    let attributed: u64 = t.attr_ns.iter().sum();
    for (category, name) in Category::ALL.iter().zip(ATTR_NAMES) {
        out.push((name, ratio(t.attr_ns[category.index()], attributed)));
    }
    let traced_wall_s = windowed_minimum_s(std::slice::from_ref(run));
    out.push((
        "obs.trace_overhead_wall_pct",
        (traced_wall_s / untraced_wall_s - 1.0) * 100.0,
    ));
    out
}

pub fn find(table: &'static [Metric], name: &str) -> &'static Metric {
    table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}
