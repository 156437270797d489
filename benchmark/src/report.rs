//! What one run measures, as the child process hands it to its parent: one
//! JSON line on stdout (the `serde_json` stand-in reads and writes it).

use serde::{Deserialize, Serialize};

/// Number of equal slices of the measured window that get a wall-clock
/// stamp. Every run does the same work per slice, so slices compare
/// across runs (see `parent::windowed_minimum`).
pub const WALL_SLICES: usize = 16;

/// Everything on the virtual clock or counted: identical across runs of
/// the same workload and seed, which the parent asserts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Exact {
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Aborted attempts that were retried.
    pub retries: u64,
    /// `Cluster::totals().0` after the window; must equal `committed`.
    pub cluster_committed: u64,
    /// Virtual time at which the window opens: the set-up's virtual cost.
    pub vt_setup_ns: u64,
    /// Virtual length of the measured window.
    pub vt_window_ns: u64,
    /// Begin → commit-ack of committed transactions, first attempt to ack.
    pub vt_mean_ns: u64,
    pub vt_p50_ns: u64,
    pub vt_p95_ns: u64,
    pub vt_p99_ns: u64,
    pub latency_samples: u64,
    /// `FabricStats.sent` over the window.
    pub net_msgs: u64,
    /// Keys the final read-back checked (written by exactly one committed
    /// transaction).
    pub readback_keys: u64,
    /// Output checks that failed, in words. Empty on a correct run.
    pub check_failures: Vec<String>,
}

/// Layer counters read from public `stats()` accessors (source **S**) and
/// timings of the harness's own calls into `DistTxn` (source **H**).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Layers {
    pub store_gets: u64,
    pub store_scans: u64,
    pub block_cache_hits: u64,
    pub block_cache_misses: u64,
    pub bloom_negatives: u64,
    pub bloom_false_positives: u64,
    /// Whole run, set-up included: the four workloads are built to flush
    /// and compact only there.
    pub flushes: u64,
    pub compactions: u64,
    pub disk_bytes: u64,
    pub user_bytes: u64,
    /// `SimReport.switches`, whole simulation.
    pub sim_switches: u64,
    pub get_vt_p50_ns: u64,
    pub put_vt_p50_ns: u64,
    pub scan_vt_p50_ns: u64,
    pub commit_vt_p50_ns: u64,
    pub commit_vt_p99_ns: u64,
}

/// What the traced run adds (source **T**): sums over the spans and
/// counters the program already emits, inside the measured window.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Traced {
    pub events: u64,
    pub dropped_events: u64,
    pub world_switches: u64,
    pub epc_faults: u64,
    pub lock_acquires: u64,
    pub lock_contended: u64,
    pub rpc_handle_vt_ns: u64,
    pub store_get_vt_ns: u64,
    pub store_scan_vt_ns: u64,
    pub lock_wait_vt_ns: u64,
    pub prepare_vt_ns: u64,
    pub participant_prepare_vt_ns: u64,
    pub decide_vt_ns: u64,
    pub clog_stabilize_vt_ns: u64,
    /// Critical-path nanoseconds per `treaty_obs::Category`, report order.
    pub attr_ns: Vec<u64>,
    /// Attributed ÷ measured latency over committed transactions, in basis
    /// points; below 9500 the traced section is flagged.
    pub attr_coverage_bp: u64,
    pub attr_txns: u64,
    /// `treaty_obs::export::phase_breakdown` of the window, for the suite's
    /// printout.
    pub phase_breakdown: String,
}

/// One run of one workload in one process.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunOutput {
    pub workload: String,
    pub seed: u64,
    pub exact: Exact,
    pub layers: Layers,
    pub traced: Option<Traced>,
    /// Process start → first measured transaction.
    pub setup_s: f64,
    /// `reference::burst_s()` just before the set-up began.
    pub reference_s: f64,
    /// Wall nanoseconds from window start to the end of each of the
    /// [`WALL_SLICES`] slices.
    pub wall_marks_ns: Vec<u64>,
    /// `VmHWM` at exit.
    pub rss_peak_kib: u64,
}
