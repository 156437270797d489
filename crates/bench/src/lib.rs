//! Benchmark harnesses regenerating every table and figure of the Treaty
//! paper (§VIII). See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! All numbers are *virtual time* from the deterministic simulation; the
//! claims under reproduction are the ratios between system variants, not
//! absolute testbed throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use treaty_core::messages::ObsSnapshotReply;
use treaty_core::{Cluster, ClusterOptions, DistTxn};
use treaty_sched::block_on;
use treaty_sim::runtime::{self, join, spawn};
use treaty_sim::{BenchStats, CostModel, Histogram, Nanos, SecurityProfile, TeeMode, Transport};
use treaty_store::{EngineConfig, TxnMode};
use treaty_workload::ycsb::KEY_SPACE_END;
use treaty_workload::{
    KvTxn, PoissonArrivals, ScaleConfig, ScaleGenerator, SocialConfig, SocialGenerator, SocialTxn,
    TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbOp, YcsbOpKind,
};

/// Adapter: a distributed client transaction as a workload target.
pub struct DistKv<'a, 'b> {
    txn: &'a mut DistTxn<'b>,
    /// Ship every write as it is issued instead of letting it ride the
    /// next read or the commit (the unbatched ablation).
    eager: bool,
}

impl KvTxn for DistKv<'_, '_> {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.txn.get(key).map_err(|e| e.to_string())
    }
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.txn.put(key, value).map_err(|e| e.to_string())?;
        if self.eager {
            self.txn.flush().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
    fn scan(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, String> {
        self.txn.scan(start, end, limit).map_err(|e| e.to_string())
    }
}

/// Workload selection for the generic runners.
#[derive(Debug, Clone)]
pub enum Workload {
    /// YCSB with the given config.
    Ycsb(YcsbConfig),
    /// TPC-C with the given config.
    Tpcc(TpccConfig),
    /// Read-mostly social feed with the given config.
    Social(SocialConfig),
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// System variant.
    pub profile: SecurityProfile,
    /// Cluster size (3 for the distributed experiments, 1 for §VIII-D).
    pub nodes: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Transactions per client.
    pub txns_per_client: usize,
    /// Concurrency control.
    pub txn_mode: TxnMode,
    /// Workload.
    pub workload: Workload,
    /// Determinism seed.
    pub seed: u64,
    /// `false` = storage-less 2PC (§VIII-B).
    pub durable: bool,
    /// Trusted block cache on/off (the read-acceleration ablation knob;
    /// `false` runs with `block_cache_bytes = 0`).
    pub block_cache: bool,
    /// `true` delivers phase-2 decisions inline before the client ack
    /// (the `--sync-decisions` ablation of the pipelined commit path).
    pub sync_decisions: bool,
    /// `true` runs SSTable builds and compaction inline on the
    /// group-commit leader (the `--inline-maintenance` ablation).
    pub inline_maintenance: bool,
    /// `true` routes pure-read transactions through the lock-free
    /// snapshot-read path (`--read-snapshot`); `false` runs them through
    /// regular 2PC — the locking-read ablation. Only the snapshot-aware
    /// runner ([`run_snapshot_experiment`]) honours this.
    pub read_snapshot: bool,
}

impl RunConfig {
    /// Distributed YCSB (Fig. 5 axes).
    pub fn distributed_ycsb(profile: SecurityProfile, ycsb: YcsbConfig, clients: usize) -> Self {
        RunConfig {
            profile,
            nodes: 3,
            clients,
            txns_per_client: 20,
            txn_mode: TxnMode::Pessimistic,
            workload: Workload::Ycsb(ycsb),
            seed: 42,
            durable: true,
            block_cache: true,
            sync_decisions: false,
            inline_maintenance: false,
            read_snapshot: false,
        }
    }

    /// Distributed TPC-C (Fig. 3 axes).
    pub fn distributed_tpcc(profile: SecurityProfile, tpcc: TpccConfig, clients: usize) -> Self {
        RunConfig {
            workload: Workload::Tpcc(tpcc),
            ..Self::distributed_ycsb(profile, YcsbConfig::balanced(), clients)
        }
    }

    /// Single-node (Figs. 6 and 7 axes).
    pub fn single_node(
        profile: SecurityProfile,
        mode: TxnMode,
        workload: Workload,
        clients: usize,
    ) -> Self {
        RunConfig {
            profile,
            nodes: 1,
            clients,
            txns_per_client: 20,
            txn_mode: mode,
            workload,
            seed: 42,
            durable: true,
            block_cache: true,
            sync_decisions: false,
            inline_maintenance: false,
            read_snapshot: false,
        }
    }

    /// Storage-less 2PC (Fig. 4 axes).
    pub fn protocol_only(profile: SecurityProfile, clients: usize) -> Self {
        RunConfig {
            durable: false,
            txns_per_client: 10,
            ..Self::distributed_ycsb(profile, YcsbConfig::balanced(), clients)
        }
    }
}

/// Pre-loads initial rows directly into the owning stores (outside the
/// measured window), in batched transactions.
fn preload(cluster: &Cluster, rows: Vec<(Vec<u8>, Vec<u8>)>) {
    use treaty_store::EngineTxn as _;
    let map = cluster.shard_map().clone();
    let endpoints = cluster.node_endpoints();
    let mut per_node: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); endpoints.len()];
    for (k, v) in rows {
        let owner = map.owner(&k);
        let idx = endpoints
            .iter()
            .position(|e| *e == owner)
            .expect("owner exists");
        per_node[idx].push((k, v));
    }
    for (idx, rows) in per_node.into_iter().enumerate() {
        let store = match cluster.store(idx) {
            Some(s) => s.clone(),
            None => continue,
        };
        for chunk in rows.chunks(512) {
            let mut txn = store.begin_mode(TxnMode::Pessimistic);
            for (k, v) in chunk {
                txn.put(k, v).expect("preload put");
            }
            txn.commit().expect("preload commit");
        }
    }
}

/// Read-acceleration counters aggregated across the cluster's stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelReport {
    /// Point-read block fetches served from the trusted block cache.
    pub block_cache_hits: u64,
    /// Point-read block fetches that went to storage.
    pub block_cache_misses: u64,
    /// Lookups short-circuited by per-table Bloom filters.
    pub bloom_negatives: u64,
    /// Lookups the filters let through although the key was absent.
    pub bloom_false_positives: u64,
    /// Point lookups rejected by SSTable fence keys (key outside the
    /// table's `[min, max]` span) without touching a block.
    pub fence_gap_rejects: u64,
    /// Range scans served by the authenticated merge iterator.
    pub scans: u64,
}

impl AccelReport {
    /// Block-cache hit rate over all point-read block fetches.
    pub fn hit_rate(&self) -> f64 {
        let total = self.block_cache_hits + self.block_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.block_cache_hits as f64 / total as f64
        }
    }
}

/// Deterministic observability artifacts from a traced run.
///
/// Everything in here derives from the virtual clock and the per-`Sim`
/// trace sink, so two runs with the same [`RunConfig`] produce
/// byte-identical reports.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Chrome `trace_event` JSON — load in Perfetto or `chrome://tracing`.
    pub chrome_json: String,
    /// Virtual-time phase-breakdown table (the Fig. 4 decomposition).
    pub phase_breakdown: String,
    /// Rendered metrics-registry snapshot (counters, gauges, histograms).
    pub metrics: String,
}

impl TraceReport {
    /// Writes the Chrome trace to `path` and the breakdown/metrics text
    /// reports to sidecar files (`<path>.breakdown.txt`, `<path>.metrics.txt`).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, &self.chrome_json)?;
        let mut breakdown = path.as_os_str().to_owned();
        breakdown.push(".breakdown.txt");
        std::fs::write(&breakdown, &self.phase_breakdown)?;
        let mut metrics = path.as_os_str().to_owned();
        metrics.push(".metrics.txt");
        std::fs::write(&metrics, &self.metrics)
    }
}

/// Runs one closed-loop experiment and returns its stats.
///
/// # Panics
///
/// Panics if the cluster fails to boot or the simulation errors.
pub fn run_experiment(cfg: RunConfig) -> BenchStats {
    run_experiment_detailed(cfg).0
}

/// Like [`run_experiment`], additionally returning the read-acceleration
/// counters (block-cache hit rate, Bloom-filter effectiveness) summed over
/// the cluster's stores.
///
/// # Panics
///
/// Panics if the cluster fails to boot or the simulation errors.
pub fn run_experiment_detailed(cfg: RunConfig) -> (BenchStats, AccelReport) {
    let (stats, accel, _) = run_experiment_inner(cfg, false);
    (stats, accel)
}

/// Like [`run_experiment_detailed`], but with the deterministic tracing hub
/// installed for the whole run: additionally returns the Chrome trace,
/// phase breakdown and metrics snapshot.
///
/// # Panics
///
/// Panics if the cluster fails to boot or the simulation errors.
pub fn run_experiment_traced(cfg: RunConfig) -> (BenchStats, AccelReport, TraceReport) {
    let (stats, accel, trace) = run_experiment_inner(cfg, true);
    (stats, accel, trace.expect("tracing was enabled"))
}

fn run_experiment_inner(
    cfg: RunConfig,
    trace: bool,
) -> (BenchStats, AccelReport, Option<TraceReport>) {
    let label = cfg.profile.label().to_string();
    #[allow(clippy::type_complexity)]
    let out: Arc<Mutex<Option<(BenchStats, AccelReport, Option<TraceReport>)>>> =
        Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let dir = tempfile::tempdir().expect("bench tempdir");
    let path = dir.path().to_path_buf();

    block_on(move || {
        // Install the observability hub first, from the root fiber, so every
        // fiber the cluster spawns inherits it.
        let obs = if trace {
            let obs = treaty_obs::Obs::with_default_cap();
            treaty_sim::obs::install(&obs);
            Some(obs)
        } else {
            None
        };
        let mut options = ClusterOptions::new(cfg.profile, path);
        options.nodes = cfg.nodes;
        options.txn_mode = cfg.txn_mode;
        options.durable = cfg.durable;
        options.seed = cfg.seed;
        options.engine_config = EngineConfig::default();
        if !cfg.block_cache {
            options.engine_config.block_cache_bytes = 0;
        }
        options.sync_decisions = cfg.sync_decisions;
        options.engine_config.inline_maintenance = cfg.inline_maintenance;
        let cluster = Arc::new(Cluster::start(options).expect("cluster boots"));

        // Load phase (unmeasured).
        if cfg.durable {
            match &cfg.workload {
                Workload::Ycsb(ycsb) => {
                    let mut seeder = YcsbGenerator::new(*ycsb, cfg.seed);
                    let rows: Vec<_> = YcsbGenerator::all_keys(ycsb)
                        .map(|k| {
                            let v = seeder.next_value();
                            (k, v)
                        })
                        .collect();
                    preload(&cluster, rows);
                }
                Workload::Tpcc(tpcc) => {
                    preload(&cluster, TpccGenerator::initial_rows(tpcc));
                }
                Workload::Social(social) => {
                    let rows: Vec<_> = SocialGenerator::all_keys(social)
                        .map(|k| (k, vec![b'i'; social.value_size]))
                        .collect();
                    preload(&cluster, rows);
                }
            }
        }

        // Measured window.
        let t0 = runtime::now();
        let committed = Arc::new(AtomicU64::new(0));
        let aborted = Arc::new(AtomicU64::new(0));
        let hist = Arc::new(Mutex::new(Histogram::new()));
        let mut handles = Vec::new();
        for c in 0..cfg.clients {
            let cluster = Arc::clone(&cluster);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let hist = Arc::clone(&hist);
            let cfg = cfg.clone();
            handles.push(spawn(move || {
                runtime::set_tag("bench-client");
                let client = cluster.client();
                let coordinator = 1 + (c % cfg.nodes) as u32;
                let mut ycsb = match &cfg.workload {
                    Workload::Ycsb(y) => Some(YcsbGenerator::new(*y, cfg.seed ^ (c as u64 + 1))),
                    _ => None,
                };
                let mut tpcc = match &cfg.workload {
                    Workload::Tpcc(t) => Some(TpccGenerator::new(*t, cfg.seed ^ (c as u64 + 1))),
                    _ => None,
                };
                let mut social = match &cfg.workload {
                    Workload::Social(s) => {
                        Some(SocialGenerator::new(*s, cfg.seed ^ (c as u64 + 1)))
                    }
                    _ => None,
                };
                for _ in 0..cfg.txns_per_client {
                    let start = runtime::now();
                    let mut txn = client.begin(coordinator);
                    let body = {
                        let mut kv = DistKv {
                            txn: &mut txn,
                            eager: false,
                        };
                        match (&mut ycsb, &mut tpcc, &mut social) {
                            (Some(g), _, _) => g.run_txn(&mut kv),
                            (_, Some(g), _) => g.run_txn(&mut kv).map(|_| ()),
                            (_, _, Some(g)) => g.run_txn(&mut kv),
                            _ => unreachable!(),
                        }
                    };
                    let ok = body.is_ok() && txn.commit().is_ok();
                    let elapsed = runtime::now() - start;
                    if ok {
                        committed.fetch_add(1, Ordering::Relaxed);
                        hist.lock().record(elapsed);
                        treaty_sim::obs::hist_record("client.txn_latency_ns", elapsed);
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }
        let duration = runtime::now() - t0;
        let stats = BenchStats::from_histogram(
            label,
            cfg.clients,
            committed.load(Ordering::Relaxed),
            aborted.load(Ordering::Relaxed),
            duration.max(1),
            &mut hist.lock(),
        );
        let mut accel = AccelReport::default();
        for idx in 0..cfg.nodes {
            if let Some(store) = cluster.store(idx) {
                let es = store.stats();
                accel.block_cache_hits += es.block_cache_hits;
                accel.block_cache_misses += es.block_cache_misses;
                accel.bloom_negatives += es.bloom_negatives;
                accel.bloom_false_positives += es.bloom_false_positives;
                accel.fence_gap_rejects += es.fence_gap_rejects;
                accel.scans += es.scans;
            }
        }
        let trace_report = obs.as_ref().map(|obs| {
            absorb_cluster_stats(obs, &cluster, cfg.nodes);
            let events = obs.events();
            TraceReport {
                chrome_json: treaty_obs::export::chrome_trace_json(&events),
                phase_breakdown: treaty_obs::export::phase_breakdown(&events),
                metrics: obs.metrics().snapshot().render(),
            }
        });
        *out2.lock() = Some((stats, accel, trace_report));
    });

    let result = out.lock().take().expect("experiment produced stats");
    result
}

/// Mirrors the legacy per-subsystem counter structs ([`treaty_core`]'s
/// `NodeStats`, the engine's `EngineStats`, the fabric's `FabricStats`)
/// into the metrics registry, so one snapshot carries every counter the
/// stack exposes.
fn absorb_cluster_stats(obs: &Arc<treaty_obs::Obs>, cluster: &Cluster, nodes: usize) {
    let m = obs.metrics();
    let mut node_totals = (0u64, 0u64, 0u64, 0u64);
    let mut engine = treaty_store::EngineStats::default();
    for idx in 0..nodes {
        let ns = cluster.node(idx).stats();
        node_totals.0 += ns.committed;
        node_totals.1 += ns.aborted;
        node_totals.2 += ns.participant_ops;
        node_totals.3 += ns.decision_retries;
        if let Some(store) = cluster.store(idx) {
            let es = store.stats();
            engine.commits += es.commits;
            engine.aborts += es.aborts;
            engine.gets += es.gets;
            engine.flushes += es.flushes;
            engine.compactions += es.compactions;
            engine.files_deleted += es.files_deleted;
            engine.group_commits += es.group_commits;
            engine.grouped_txns += es.grouped_txns;
            engine.block_cache_hits += es.block_cache_hits;
            engine.block_cache_misses += es.block_cache_misses;
            engine.bloom_negatives += es.bloom_negatives;
            engine.bloom_false_positives += es.bloom_false_positives;
            engine.fence_gap_rejects += es.fence_gap_rejects;
            engine.scans += es.scans;
        }
    }
    m.gauge_set("core.nodes.committed", node_totals.0);
    m.gauge_set("core.nodes.aborted", node_totals.1);
    m.gauge_set("core.nodes.participant_ops", node_totals.2);
    m.gauge_set("core.nodes.decision_retries", node_totals.3);
    m.gauge_set("store.commits", engine.commits);
    m.gauge_set("store.aborts", engine.aborts);
    m.gauge_set("store.gets", engine.gets);
    m.gauge_set("store.flushes", engine.flushes);
    m.gauge_set("store.compactions", engine.compactions);
    m.gauge_set("store.files_deleted", engine.files_deleted);
    m.gauge_set("store.group_commits", engine.group_commits);
    m.gauge_set("store.grouped_txns", engine.grouped_txns);
    m.gauge_set("store.block_cache.hits", engine.block_cache_hits);
    m.gauge_set("store.block_cache.misses", engine.block_cache_misses);
    m.gauge_set("store.bloom.negatives", engine.bloom_negatives);
    m.gauge_set("store.bloom.false_positives", engine.bloom_false_positives);
    m.gauge_set("store.fence_gap_rejects", engine.fence_gap_rejects);
    m.gauge_set("store.scans", engine.scans);
    let fs = cluster.fabric().stats();
    m.gauge_set("fabric.sent", fs.sent);
    m.gauge_set("fabric.delivered", fs.delivered);
    m.gauge_set("fabric.dropped_adversary", fs.dropped_adversary);
    m.gauge_set("fabric.dropped_mtu", fs.dropped_mtu);
    m.gauge_set("fabric.dropped_unreachable", fs.dropped_unreachable);
    m.gauge_set("fabric.tampered", fs.tampered);
    m.gauge_set("fabric.duplicated", fs.duplicated);
    m.gauge_set("obs.dropped_events", obs.dropped());
}

// ---- snapshot reads: lock-free read-only transactions ------------------------

/// Outcome of a snapshot-aware run ([`run_snapshot_experiment`]): the
/// pure-read sub-population's latency stats plus the snapshot-path
/// counters, all drawn from the metrics registry.
#[derive(Debug, Clone)]
pub struct SnapshotReport {
    /// Latency stats over pure-read transactions only.
    pub readonly: BenchStats,
    /// Server-side lock-free snapshot reads served.
    pub snapshot_reads: u64,
    /// Server-side lock-free snapshot range scans served.
    pub snapshot_scans: u64,
    /// Snapshot reads rejected because the requested timestamp outran the
    /// shard's stable read timestamp.
    pub stale_rejects: u64,
    /// Snapshot reads rejected because a key overlapped an in-doubt
    /// prepared transaction.
    pub indoubt_rejects: u64,
    /// Client-side whole-transaction snapshot retries.
    pub client_retries: u64,
    /// Lock-table acquisitions during the measured window (excludes the
    /// preload phase). Zero when every transaction was a snapshot read.
    pub lock_acquires: u64,
}

/// Runs a closed-loop experiment that *classifies* transactions: pure-read
/// transactions take the lock-free snapshot path when
/// [`RunConfig::read_snapshot`] is set, or regular 2PC when it is not (the
/// locking-read ablation); mixed transactions always run 2PC. Returns the
/// overall stats plus the pure-read sub-population's stats and the
/// snapshot counters.
///
/// Both modes draw identical transaction streams from the same seed, so
/// the two variants read exactly the same keys in the same order — the
/// only difference is the read path.
///
/// # Panics
///
/// Panics if the cluster fails to boot or the simulation errors.
pub fn run_snapshot_experiment(cfg: RunConfig) -> (BenchStats, SnapshotReport) {
    let label = cfg.profile.label().to_string();
    let mode = if cfg.read_snapshot {
        "snapshot"
    } else {
        "locking"
    };
    #[allow(clippy::type_complexity)]
    let out: Arc<Mutex<Option<(BenchStats, SnapshotReport)>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let dir = tempfile::tempdir().expect("bench tempdir");
    let path = dir.path().to_path_buf();

    block_on(move || {
        // The counters live in the metrics registry, so the hub is always
        // installed for this runner.
        let obs = treaty_obs::Obs::with_default_cap();
        treaty_sim::obs::install(&obs);
        let mut options = ClusterOptions::new(cfg.profile, path);
        options.nodes = cfg.nodes;
        options.txn_mode = cfg.txn_mode;
        options.durable = cfg.durable;
        options.seed = cfg.seed;
        options.engine_config = EngineConfig::default();
        if !cfg.block_cache {
            options.engine_config.block_cache_bytes = 0;
        }
        options.sync_decisions = cfg.sync_decisions;
        options.engine_config.inline_maintenance = cfg.inline_maintenance;
        let cluster = Arc::new(Cluster::start(options).expect("cluster boots"));

        // Load phase (unmeasured).
        if cfg.durable {
            match &cfg.workload {
                Workload::Ycsb(ycsb) => {
                    let mut seeder = YcsbGenerator::new(*ycsb, cfg.seed);
                    let rows: Vec<_> = YcsbGenerator::all_keys(ycsb)
                        .map(|k| (k, seeder.next_value()))
                        .collect();
                    preload(&cluster, rows);
                }
                Workload::Tpcc(tpcc) => {
                    preload(&cluster, TpccGenerator::initial_rows(tpcc));
                }
                Workload::Social(social) => {
                    let rows: Vec<_> = SocialGenerator::all_keys(social)
                        .map(|k| (k, vec![b'i'; social.value_size]))
                        .collect();
                    preload(&cluster, rows);
                }
            }
        }
        // Preload commits acquire locks too; the report covers only the
        // measured window.
        let lock_baseline = obs.metrics().counter("store.lock_acquire");

        // Measured window.
        let t0 = runtime::now();
        let committed = Arc::new(AtomicU64::new(0));
        let aborted = Arc::new(AtomicU64::new(0));
        let ro_committed = Arc::new(AtomicU64::new(0));
        let ro_aborted = Arc::new(AtomicU64::new(0));
        let hist = Arc::new(Mutex::new(Histogram::new()));
        let ro_hist = Arc::new(Mutex::new(Histogram::new()));
        let mut handles = Vec::new();
        for c in 0..cfg.clients {
            let cluster = Arc::clone(&cluster);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let ro_committed = Arc::clone(&ro_committed);
            let ro_aborted = Arc::clone(&ro_aborted);
            let hist = Arc::clone(&hist);
            let ro_hist = Arc::clone(&ro_hist);
            let cfg = cfg.clone();
            handles.push(spawn(move || {
                runtime::set_tag("bench-client");
                let client = cluster.client();
                let coordinator = 1 + (c % cfg.nodes) as u32;
                let mut ycsb = match &cfg.workload {
                    Workload::Ycsb(y) => Some(YcsbGenerator::new(*y, cfg.seed ^ (c as u64 + 1))),
                    _ => None,
                };
                let mut tpcc = match &cfg.workload {
                    Workload::Tpcc(t) => Some(TpccGenerator::new(*t, cfg.seed ^ (c as u64 + 1))),
                    _ => None,
                };
                let mut social = match &cfg.workload {
                    Workload::Social(s) => {
                        Some(SocialGenerator::new(*s, cfg.seed ^ (c as u64 + 1)))
                    }
                    _ => None,
                };
                for _ in 0..cfg.txns_per_client {
                    // Classify the next transaction: `Some(ops)` = pure
                    // read (point gets and/or range scans), `None` = runs
                    // the regular mixed path below.
                    let read_set: Option<Vec<YcsbOp>> = match (&mut ycsb, &mut social) {
                        (Some(g), _) => {
                            let ops = g.next_txn();
                            if ops.iter().all(|op| {
                                matches!(op.kind, YcsbOpKind::Read | YcsbOpKind::Scan { .. })
                            }) {
                                Some(ops)
                            } else {
                                // Mixed: run it inline, drawing values in
                                // the same order as `run_txn` would.
                                let start = runtime::now();
                                let mut txn = client.begin(coordinator);
                                let mut body = Ok(());
                                for op in ops {
                                    let r = match op.kind {
                                        YcsbOpKind::Read => txn.get(&op.key).map(|_| ()),
                                        YcsbOpKind::Update | YcsbOpKind::Insert => {
                                            let v = g.next_value();
                                            txn.put(&op.key, &v)
                                        }
                                        YcsbOpKind::Scan { len } => txn
                                            .scan(&op.key, KEY_SPACE_END, len as usize)
                                            .map(|_| ()),
                                    };
                                    if r.is_err() {
                                        body = r;
                                        break;
                                    }
                                }
                                let ok = body.is_ok() && txn.commit().is_ok();
                                record_txn(&committed, &aborted, &hist, start, ok);
                                continue;
                            }
                        }
                        (_, Some(g)) => match g.next_txn() {
                            SocialTxn::LoadFeed { keys } => Some(
                                keys.into_iter()
                                    .map(|key| YcsbOp {
                                        key,
                                        kind: YcsbOpKind::Read,
                                    })
                                    .collect(),
                            ),
                            SocialTxn::Post { key, value } => {
                                let start = runtime::now();
                                let mut txn = client.begin(coordinator);
                                let ok = txn.put(&key, &value).is_ok() && txn.commit().is_ok();
                                record_txn(&committed, &aborted, &hist, start, ok);
                                continue;
                            }
                        },
                        _ => None,
                    };
                    let start = runtime::now();
                    let ok = match read_set {
                        Some(ops) if cfg.read_snapshot => snapshot_readonly_txn(&client, &ops),
                        Some(ops) => {
                            // Locking ablation: identical reads through 2PC.
                            let mut txn = client.begin(coordinator);
                            let mut body = Ok(());
                            for op in &ops {
                                let r = match op.kind {
                                    YcsbOpKind::Scan { len } => {
                                        txn.scan(&op.key, KEY_SPACE_END, len as usize).map(|_| ())
                                    }
                                    _ => txn.get(&op.key).map(|_| ()),
                                };
                                if let Err(e) = r {
                                    body = Err(e);
                                    break;
                                }
                            }
                            body.is_ok() && txn.commit().is_ok()
                        }
                        None => {
                            // TPC-C (no pure-read classification).
                            let mut txn = client.begin(coordinator);
                            let body = {
                                let mut kv = DistKv {
                                    txn: &mut txn,
                                    eager: false,
                                };
                                match &mut tpcc {
                                    Some(g) => g.run_txn(&mut kv).map(|_| ()),
                                    None => unreachable!(),
                                }
                            };
                            let ok = body.is_ok() && txn.commit().is_ok();
                            record_txn(&committed, &aborted, &hist, start, ok);
                            continue;
                        }
                    };
                    let elapsed = runtime::now() - start;
                    if ok {
                        committed.fetch_add(1, Ordering::Relaxed);
                        ro_committed.fetch_add(1, Ordering::Relaxed);
                        hist.lock().record(elapsed);
                        ro_hist.lock().record(elapsed);
                        treaty_sim::obs::hist_record("client.readonly_latency_ns", elapsed);
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                        ro_aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }
        let duration = runtime::now() - t0;
        let stats = BenchStats::from_histogram(
            format!("{label} ({mode})"),
            cfg.clients,
            committed.load(Ordering::Relaxed),
            aborted.load(Ordering::Relaxed),
            duration.max(1),
            &mut hist.lock(),
        );
        let readonly = BenchStats::from_histogram(
            format!("{label} readonly ({mode})"),
            cfg.clients,
            ro_committed.load(Ordering::Relaxed),
            ro_aborted.load(Ordering::Relaxed),
            duration.max(1),
            &mut ro_hist.lock(),
        );
        let m = obs.metrics();
        let report = SnapshotReport {
            readonly,
            snapshot_reads: m.counter("core.snapshot_reads"),
            snapshot_scans: m.counter("core.snapshot_scans"),
            stale_rejects: m.counter("core.snapshot_stale_reject"),
            indoubt_rejects: m.counter("core.snapshot_indoubt_reject"),
            client_retries: m.counter("client.snapshot_retries"),
            lock_acquires: m
                .counter("store.lock_acquire")
                .saturating_sub(lock_baseline),
        };
        *out2.lock() = Some((stats, report));
    });

    let result = out.lock().take().expect("experiment produced stats");
    result
}

/// Runs one pure-read transaction (point gets and range scans) on the
/// lock-free snapshot path, retrying with a fresh snapshot on
/// [`treaty_core::TreatyError::SnapshotRetry`] — the same policy as
/// `TreatyClient::snapshot_read`, but spanning gets *and* scans in one
/// consistent snapshot.
fn snapshot_readonly_txn(client: &treaty_core::TreatyClient, ops: &[YcsbOp]) -> bool {
    const ATTEMPTS: u32 = 8;
    for attempt in 0..ATTEMPTS {
        let outcome = (|| {
            let mut txn = client.begin_read_only()?;
            for op in ops {
                match op.kind {
                    YcsbOpKind::Scan { len } => {
                        txn.scan(&op.key, KEY_SPACE_END, len as usize)?;
                    }
                    _ => {
                        txn.get(&op.key)?;
                    }
                }
            }
            txn.finish()
        })();
        match outcome {
            Ok(()) => return true,
            Err(treaty_core::TreatyError::SnapshotRetry(_)) => {
                treaty_sim::obs::counter_add("client.snapshot_retries", 1);
                if treaty_sim::runtime::in_fiber() {
                    treaty_sim::runtime::sleep((u64::from(attempt) + 1) * treaty_sim::MILLIS / 4);
                }
            }
            Err(_) => return false,
        }
    }
    false
}

/// Shared bookkeeping for one finished transaction in the snapshot runner.
fn record_txn(
    committed: &AtomicU64,
    aborted: &AtomicU64,
    hist: &Mutex<Histogram>,
    start: Nanos,
    ok: bool,
) {
    let elapsed = runtime::now() - start;
    if ok {
        committed.fetch_add(1, Ordering::Relaxed);
        hist.lock().record(elapsed);
        treaty_sim::obs::hist_record("client.txn_latency_ns", elapsed);
    } else {
        aborted.fetch_add(1, Ordering::Relaxed);
    }
}

// ---- Fig. 8: network bandwidth -----------------------------------------------

/// The seven systems of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSystem {
    /// iPerf over kernel UDP.
    IperfUdp(TeeMode),
    /// iPerf over kernel TCP.
    IperfTcp(TeeMode),
    /// eRPC over DPDK, no security.
    Erpc(TeeMode),
    /// Treaty's full secure networking (eRPC + SCONE + secure messages).
    TreatyNetworking,
}

impl NetSystem {
    /// Paper legend label.
    pub fn label(&self) -> &'static str {
        match self {
            NetSystem::IperfUdp(TeeMode::Native) => "iPerf UDP",
            NetSystem::IperfUdp(TeeMode::Scone) => "iPerf UDP (Scone)",
            NetSystem::IperfTcp(TeeMode::Native) => "iPerf TCP",
            NetSystem::IperfTcp(TeeMode::Scone) => "iPerf TCP (Scone)",
            NetSystem::Erpc(TeeMode::Native) => "eRPC",
            NetSystem::Erpc(TeeMode::Scone) => "eRPC (Scone)",
            NetSystem::TreatyNetworking => "Treaty networking",
        }
    }

    /// All seven, in paper order.
    pub fn lineup() -> [NetSystem; 7] {
        [
            NetSystem::IperfUdp(TeeMode::Native),
            NetSystem::IperfUdp(TeeMode::Scone),
            NetSystem::IperfTcp(TeeMode::Native),
            NetSystem::IperfTcp(TeeMode::Scone),
            NetSystem::Erpc(TeeMode::Native),
            NetSystem::Erpc(TeeMode::Scone),
            NetSystem::TreatyNetworking,
        ]
    }

    fn params(&self) -> (Transport, TeeMode, treaty_crypto::WireCrypto) {
        use treaty_crypto::WireCrypto;
        match self {
            NetSystem::IperfUdp(t) => (Transport::KernelUdp, *t, WireCrypto::Plain),
            NetSystem::IperfTcp(t) => (Transport::KernelTcp, *t, WireCrypto::Plain),
            NetSystem::Erpc(t) => (Transport::Dpdk, *t, WireCrypto::Plain),
            NetSystem::TreatyNetworking => (Transport::Dpdk, TeeMode::Scone, WireCrypto::Full),
        }
    }
}

/// Streams `messages` one-way messages of `msg_bytes` and returns the
/// goodput in Gbit/s (0.0 when everything is dropped, as for UDP > MTU).
pub fn run_network(system: NetSystem, msg_bytes: usize, messages: u64) -> f64 {
    use treaty_crypto::{KeyHierarchy, MsgKind, TxMeta};
    use treaty_net::{EndpointConfig, Fabric, Rpc, RpcConfig};

    let (transport, tee, crypto) = system.params();
    let out = Arc::new(Mutex::new(0.0f64));
    let out2 = Arc::clone(&out);
    block_on(move || {
        let fabric = Fabric::new(CostModel::default(), 7);
        let key = KeyHierarchy::for_testing().network;
        let net_cfg = EndpointConfig {
            transport,
            tee,
            link_gbps: 40,
        };

        let received_bytes = Arc::new(AtomicU64::new(0));
        let received_msgs = Arc::new(AtomicU64::new(0));
        let last_arrival = Arc::new(AtomicU64::new(0));

        let server = Rpc::new(
            &fabric,
            1,
            RpcConfig {
                endpoint: net_cfg,
                crypto,
                key,
                cores: None,
                timeout: treaty_net::DEFAULT_RPC_TIMEOUT,
            },
        );
        {
            let received_bytes = Arc::clone(&received_bytes);
            let received_msgs = Arc::clone(&received_msgs);
            let last_arrival = Arc::clone(&last_arrival);
            server.register_handler(
                0x55,
                false,
                Arc::new(move |_, _, payload| {
                    received_bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
                    received_msgs.fetch_add(1, Ordering::Relaxed);
                    last_arrival.store(runtime::now(), Ordering::Relaxed);
                    None
                }),
            );
        }
        server.start();

        let client = Rpc::new(
            &fabric,
            2,
            RpcConfig {
                endpoint: net_cfg,
                crypto,
                key,
                cores: None,
                timeout: treaty_net::DEFAULT_RPC_TIMEOUT,
            },
        );

        let t0 = runtime::now();
        let payload = vec![0xA5u8; msg_bytes];
        for i in 0..messages {
            let meta = TxMeta {
                node_id: 2,
                tx_id: 1,
                op_id: i,
                kind: MsgKind::Data,
            };
            client.send_oneway(1, 0x55, &meta, &payload);
        }
        // Drain: wait until deliveries go quiet.
        let mut stable = 0;
        let mut last_seen = 0;
        while stable < 5 {
            runtime::sleep(treaty_sim::MILLIS);
            let seen = received_msgs.load(Ordering::Relaxed);
            if seen == messages {
                break;
            }
            if seen == last_seen {
                stable += 1;
            } else {
                stable = 0;
                last_seen = seen;
            }
        }
        let bytes = received_bytes.load(Ordering::Relaxed);
        let end = last_arrival.load(Ordering::Relaxed).max(t0 + 1);
        let duration = (end - t0) as f64;
        *out2.lock() = bytes as f64 * 8.0 / duration; // bits per ns == Gbit/s
    });
    let gbps = *out.lock();
    gbps
}

// ---- Table I: recovery -------------------------------------------------------

/// Builds a log of `entries` records of `entry_bytes` each, then measures
/// the virtual time to replay and verify it. Returns `(virtual_ns,
/// log_file_bytes)`.
pub fn run_recovery(profile: SecurityProfile, entries: usize, entry_bytes: usize) -> (Nanos, u64) {
    use treaty_store::env::Env;
    use treaty_store::log;

    let out = Arc::new(Mutex::new((0u64, 0u64)));
    let out2 = Arc::clone(&out);
    let dir = tempfile::tempdir().expect("tempdir");
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(profile, &path);
        let file = path.join("wal-recovery");
        let writer =
            log::LogWriter::open(Arc::clone(&env), "wal-recovery", &file, 0).expect("open");
        // Build phase (unmeasured): batched appends.
        let record = vec![0x42u8; entry_bytes];
        let batch: Vec<Vec<u8>> = (0..1000).map(|_| record.clone()).collect();
        let mut remaining = entries;
        while remaining > 0 {
            let n = remaining.min(1000);
            writer.append_batch(&batch[..n]).expect("append");
            remaining -= n;
        }
        let log_bytes = std::fs::metadata(&file).expect("meta").len();

        // Measured: replay + verification (what recovery does).
        let t0 = runtime::now();
        let replay = log::replay(&env, "wal-recovery", &file, 0).expect("replay");
        assert_eq!(replay.records.len(), entries);
        let elapsed = runtime::now() - t0;
        *out2.lock() = (elapsed, log_bytes);
    });
    let r = *out.lock();
    r
}

// ---- trace artifacts ---------------------------------------------------------

/// Parses the `--trace-out FILE` flag shared by the bench binaries.
pub fn trace_out_arg() -> Option<std::path::PathBuf> {
    std::env::args()
        .skip_while(|a| a != "--trace-out")
        .nth(1)
        .map(Into::into)
}

/// Runs `cfg` with the tracing hub installed and writes the Chrome trace
/// plus the breakdown/metrics sidecars to `path`, printing the text
/// reports. The run is deterministic: the same `cfg` always produces
/// byte-identical artifacts.
///
/// # Panics
///
/// Panics if the experiment fails or the artifacts cannot be written.
pub fn write_trace_artifact(path: &std::path::Path, cfg: RunConfig) {
    let (stats, _accel, trace) = run_experiment_traced(cfg);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("trace output directory");
        }
    }
    trace.write_to(path).expect("write trace artifacts");
    println!(
        "\ntrace: {} committed / {} aborted txns -> {}",
        stats.committed,
        stats.aborted,
        path.display()
    );
    println!("\n{}", trace.phase_breakdown);
    println!("{}", trace.metrics);
}

// ---- tail-latency attribution + treaty-top (DESIGN.md §14) -------------------

/// Width of one windowed time-series bucket in the attribution runner.
pub const SERIES_WINDOW: Nanos = 5 * treaty_sim::MILLIS;

/// Outcome of [`run_attribution_experiment`]: the critical-path
/// attribution report, the usual trace artifacts, the windowed time-series
/// rendering, one live `OBS_SNAPSHOT` reply per node (polled over the
/// fabric after the measured window), the rendered `treaty-top` dashboard,
/// and any flight-recorder dumps written along the way.
///
/// Everything except `flight_dumps` paths derives from the virtual clock,
/// so two runs with the same config are byte-identical.
#[derive(Debug, Clone)]
pub struct AttributionRun {
    /// Overall run stats.
    pub stats: BenchStats,
    /// Per-transaction critical-path attribution.
    pub report: treaty_obs::AttributionReport,
    /// Chrome trace + phase breakdown + metrics snapshot.
    pub trace: TraceReport,
    /// Rendered windowed time series (virtual-time buckets).
    pub series: String,
    /// One `OBS_SNAPSHOT` reply per node, in endpoint order.
    pub snapshots: Vec<ObsSnapshotReply>,
    /// Rendered `treaty-top` dashboard over `snapshots`.
    pub top: String,
    /// Committed transactions whose measured latency exceeded the SLO.
    pub slo_breaches: u64,
    /// Flight-recorder dump files under the flight directory, sorted.
    pub flight_dumps: Vec<std::path::PathBuf>,
}

/// Renders the `treaty-top` live-cluster dashboard from one round of
/// `OBS_SNAPSHOT` replies: MVCC frontier, queue depths, backpressure,
/// prepared-table occupancy and cache hit rate per node. Integer-only
/// (hit rate in hundredths of a percent), so the rendering is
/// deterministic.
pub fn treaty_top(snapshots: &[ObsSnapshotReply]) -> String {
    use std::fmt::Write as _;
    let now = snapshots.iter().map(|r| r.ts).max().unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "treaty-top — {} nodes @ {} ns (virtual)",
        snapshots.len(),
        now
    );
    let _ = writeln!(
        s,
        "{:>4} {:>12} {:>5} {:>5} {:>4} {:>8} {:>8} {:>7} {:>9} {:>8} {:>7}",
        "node",
        "stable_ts",
        "decq",
        "flush",
        "bp",
        "prepared",
        "commit",
        "abort",
        "part_ops",
        "retries",
        "cache%"
    );
    for r in snapshots {
        let fetches = r.block_cache_hits + r.block_cache_misses;
        let hit_bp = if fetches == 0 {
            0
        } else {
            r.block_cache_hits * 10_000 / fetches
        };
        let bp = match r.backpressure {
            0 => "ok",
            1 => "slow",
            _ => "stop",
        };
        let _ = writeln!(
            s,
            "{:>4} {:>12} {:>5} {:>5} {:>4} {:>8} {:>8} {:>7} {:>9} {:>8} {:>4}.{:02}",
            r.node,
            r.stable_ts,
            r.decision_queue_depth,
            r.flush_backlog,
            bp,
            r.prepared_txns,
            r.committed,
            r.aborted,
            r.participant_ops,
            r.decision_retries,
            hit_bp / 100,
            hit_bp % 100,
        );
    }
    s
}

/// Runs `cfg` with the full observability stack armed: tracing hub,
/// windowed time series, and (when `flight_dir` is given) the
/// flight recorder. Committed transactions slower than `slo_ns` trigger an
/// `slo.breach` flight dump; a `run.complete` checkpoint dump is always
/// written at the end of an armed run so the artifact exists even on a
/// clean run. After the measured window every node is polled live over
/// the fabric with `OBS_SNAPSHOT` and the replies rendered as
/// `treaty-top`.
///
/// # Panics
///
/// Panics if the cluster fails to boot, a node fails to answer the
/// introspection RPC, or the simulation errors.
pub fn run_attribution_experiment(
    cfg: RunConfig,
    slo_ns: Option<Nanos>,
    flight_dir: Option<std::path::PathBuf>,
) -> AttributionRun {
    let label = cfg.profile.label().to_string();
    let out: Arc<Mutex<Option<AttributionRun>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let dir = tempfile::tempdir().expect("bench tempdir");
    let path = dir.path().to_path_buf();

    block_on(move || {
        let obs = treaty_obs::Obs::with_default_cap();
        obs.metrics().enable_series(SERIES_WINDOW, 4096);
        if let Some(dir) = &flight_dir {
            std::fs::create_dir_all(dir).expect("flight directory");
            obs.configure_flight(dir, 512);
        }
        treaty_sim::obs::install(&obs);
        let mut options = ClusterOptions::new(cfg.profile, path);
        options.nodes = cfg.nodes;
        options.txn_mode = cfg.txn_mode;
        options.durable = cfg.durable;
        options.seed = cfg.seed;
        options.engine_config = EngineConfig::default();
        if !cfg.block_cache {
            options.engine_config.block_cache_bytes = 0;
        }
        options.sync_decisions = cfg.sync_decisions;
        options.engine_config.inline_maintenance = cfg.inline_maintenance;
        let cluster = Arc::new(Cluster::start(options).expect("cluster boots"));

        // Load phase (unmeasured).
        if cfg.durable {
            match &cfg.workload {
                Workload::Ycsb(ycsb) => {
                    let mut seeder = YcsbGenerator::new(*ycsb, cfg.seed);
                    let rows: Vec<_> = YcsbGenerator::all_keys(ycsb)
                        .map(|k| (k, seeder.next_value()))
                        .collect();
                    preload(&cluster, rows);
                }
                Workload::Tpcc(tpcc) => {
                    preload(&cluster, TpccGenerator::initial_rows(tpcc));
                }
                Workload::Social(social) => {
                    let rows: Vec<_> = SocialGenerator::all_keys(social)
                        .map(|k| (k, vec![b'i'; social.value_size]))
                        .collect();
                    preload(&cluster, rows);
                }
            }
        }

        // Measured window.
        let t0 = runtime::now();
        let committed = Arc::new(AtomicU64::new(0));
        let aborted = Arc::new(AtomicU64::new(0));
        let breaches = Arc::new(AtomicU64::new(0));
        let hist = Arc::new(Mutex::new(Histogram::new()));
        let mut handles = Vec::new();
        for c in 0..cfg.clients {
            let cluster = Arc::clone(&cluster);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let breaches = Arc::clone(&breaches);
            let hist = Arc::clone(&hist);
            let cfg = cfg.clone();
            handles.push(spawn(move || {
                runtime::set_tag("bench-client");
                let client = cluster.client();
                let coordinator = 1 + (c % cfg.nodes) as u32;
                let mut ycsb = match &cfg.workload {
                    Workload::Ycsb(y) => Some(YcsbGenerator::new(*y, cfg.seed ^ (c as u64 + 1))),
                    _ => None,
                };
                let mut tpcc = match &cfg.workload {
                    Workload::Tpcc(t) => Some(TpccGenerator::new(*t, cfg.seed ^ (c as u64 + 1))),
                    _ => None,
                };
                let mut social = match &cfg.workload {
                    Workload::Social(s) => {
                        Some(SocialGenerator::new(*s, cfg.seed ^ (c as u64 + 1)))
                    }
                    _ => None,
                };
                for _ in 0..cfg.txns_per_client {
                    let start = runtime::now();
                    let mut txn = client.begin(coordinator);
                    let body = {
                        let mut kv = DistKv {
                            txn: &mut txn,
                            eager: false,
                        };
                        match (&mut ycsb, &mut tpcc, &mut social) {
                            (Some(g), _, _) => g.run_txn(&mut kv),
                            (_, Some(g), _) => g.run_txn(&mut kv).map(|_| ()),
                            (_, _, Some(g)) => g.run_txn(&mut kv),
                            _ => unreachable!(),
                        }
                    };
                    let ok = body.is_ok() && txn.commit().is_ok();
                    let elapsed = runtime::now() - start;
                    if ok {
                        committed.fetch_add(1, Ordering::Relaxed);
                        hist.lock().record(elapsed);
                        treaty_sim::obs::hist_record("client.txn_latency_ns", elapsed);
                        if slo_ns.is_some_and(|slo| elapsed > slo) {
                            breaches.fetch_add(1, Ordering::Relaxed);
                            treaty_sim::obs::counter_add("client.slo_breaches", 1);
                            treaty_sim::obs::flight_dump(
                                "slo.breach",
                                "committed transaction exceeded the latency SLO",
                            );
                        }
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }
        let duration = runtime::now() - t0;

        // Live introspection: every node answers OBS_SNAPSHOT over the
        // fabric (this is the treaty-top poll, not a local peek).
        let client = cluster.client();
        let mut snapshots = Vec::new();
        for ep in cluster.node_endpoints() {
            snapshots.push(client.obs_snapshot(ep).expect("OBS_SNAPSHOT reply"));
        }

        // End-of-run checkpoint, so an armed recorder always leaves at
        // least one dump even when nothing breached.
        treaty_sim::obs::flight_dump("run.complete", "end-of-run checkpoint");

        let stats = BenchStats::from_histogram(
            label,
            cfg.clients,
            committed.load(Ordering::Relaxed),
            aborted.load(Ordering::Relaxed),
            duration.max(1),
            &mut hist.lock(),
        );
        absorb_cluster_stats(&obs, &cluster, cfg.nodes);
        let events = obs.events();
        let dropped = obs.dropped();
        let report = treaty_obs::attribute(&events, dropped);
        let trace = TraceReport {
            chrome_json: treaty_obs::chrome_trace_json_with_meta(&events, dropped),
            phase_breakdown: treaty_obs::export::phase_breakdown_with_drops(&events, dropped),
            metrics: obs.metrics().snapshot().render(),
        };
        let series = obs
            .metrics()
            .series_snapshot()
            .map(|s| s.render())
            .unwrap_or_default();
        let mut flight_dumps = Vec::new();
        if let Some(dir) = &flight_dir {
            if let Ok(rd) = std::fs::read_dir(dir) {
                flight_dumps.extend(rd.flatten().map(|e| e.path()));
            }
            flight_dumps.sort();
        }
        let top = treaty_top(&snapshots);
        *out2.lock() = Some(AttributionRun {
            stats,
            report,
            trace,
            series,
            snapshots,
            top,
            slo_breaches: breaches.load(Ordering::Relaxed),
            flight_dumps,
        });
    });

    let result = out
        .lock()
        .take()
        .expect("attribution run produced a report");
    result
}

// ---- open-loop scale harness (DESIGN.md §16, ROADMAP item 5) -----------------

/// One point of the open-loop scale sweep: a fixed offered rate against a
/// fixed cluster size, with deferred-write batching on or off.
#[derive(Debug, Clone)]
pub struct ScaleRunConfig {
    /// System variant.
    pub profile: SecurityProfile,
    /// Cluster size.
    pub nodes: usize,
    /// Offered arrival rate in transactions per second of virtual time.
    pub offered_tps: f64,
    /// Total transactions the arrival process injects.
    pub arrivals: usize,
    /// Deferred-write batching on the client; off ships every write as it
    /// is issued ([`DistTxn::flush`] after each).
    pub batching: bool,
    /// Multi-tenant zipfian workload shape.
    pub scale: ScaleConfig,
    /// Determinism seed.
    pub seed: u64,
}

impl ScaleRunConfig {
    /// A sweep point with the default workload shape.
    pub fn point(nodes: usize, offered_tps: f64, arrivals: usize, batching: bool) -> Self {
        ScaleRunConfig {
            profile: SecurityProfile::treaty_full(),
            nodes,
            offered_tps,
            arrivals,
            batching,
            scale: ScaleConfig::default(),
            seed: 42,
        }
    }
}

/// Measured outcome of one [`run_scale_experiment`] point.
///
/// Latencies are *open-loop*: measured from each transaction's intended
/// Poisson arrival time, so queueing delay under overload lands in p99
/// instead of silently throttling the offered rate.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Cluster size.
    pub nodes: usize,
    /// Whether deferred-write batching was on.
    pub batching: bool,
    /// Offered arrival rate (tps).
    pub offered_tps: f64,
    /// Achieved commit rate (tps) over the whole run including drain.
    pub achieved_tps: f64,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Open-loop median latency.
    pub p50_ns: Nanos,
    /// Open-loop 99th-percentile latency.
    pub p99_ns: Nanos,
    /// Open-loop mean latency.
    pub mean_ns: Nanos,
    /// Virtual duration from first arrival to last completion.
    pub duration_ns: Nanos,
    /// Fabric messages sent during the measured window — the wire cost the
    /// coalesced fan-out amortises.
    pub messages_sent: u64,
}

impl ScalePoint {
    /// Achieved/offered ratio; the saturation knee is the last sweep rate
    /// where this stays ≥ 0.9.
    pub fn saturation(&self) -> f64 {
        if self.offered_tps <= 0.0 {
            return 0.0;
        }
        self.achieved_tps / self.offered_tps
    }
}

/// Runs one open-loop scale point: a Poisson arrival process injects
/// `cfg.arrivals` transactions at `cfg.offered_tps` regardless of how fast
/// earlier ones complete; each transaction runs in its own fiber against a
/// round-robin coordinator. Latency is measured from the intended arrival
/// time (queueing included), which is what makes the harness open-loop.
///
/// Fully deterministic per config: arrivals, workload, and the simulated
/// cluster all derive from `cfg.seed`.
///
/// # Panics
///
/// Panics if the cluster fails to boot or the simulation errors.
pub fn run_scale_experiment(cfg: ScaleRunConfig) -> ScalePoint {
    let out: Arc<Mutex<Option<ScalePoint>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    let dir = tempfile::tempdir().expect("bench tempdir");
    let path = dir.path().to_path_buf();

    block_on(move || {
        let mut options = ClusterOptions::new(cfg.profile, path);
        options.nodes = cfg.nodes;
        options.txn_mode = TxnMode::Pessimistic;
        options.seed = cfg.seed;
        options.engine_config = EngineConfig::default();
        let cluster = Arc::new(Cluster::start(options).expect("cluster boots"));

        // Load phase (unmeasured): the hot head of every tenant's key
        // space, so zipfian reads hit existing rows.
        preload(&cluster, treaty_workload::scale::hot_rows(&cfg.scale, 64));

        let sent_baseline = cluster.fabric().stats().sent;
        let t0 = runtime::now();
        let committed = Arc::new(AtomicU64::new(0));
        let aborted = Arc::new(AtomicU64::new(0));
        let hist = Arc::new(Mutex::new(Histogram::new()));
        let mut arrivals = PoissonArrivals::new(cfg.offered_tps, cfg.seed ^ 0x5ca1e);
        let mut handles = Vec::new();
        let mut next = t0;
        for i in 0..cfg.arrivals {
            next += arrivals.next_gap();
            let now = runtime::now();
            if next > now {
                runtime::sleep(next - now);
            }
            let intended = next;
            let cluster = Arc::clone(&cluster);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let hist = Arc::clone(&hist);
            let cfg = cfg.clone();
            handles.push(spawn(move || {
                runtime::set_tag("scale-client");
                let client = cluster.client();
                let coordinator = 1 + (i % cfg.nodes) as u32;
                let mut gen = ScaleGenerator::new(cfg.scale.clone(), cfg.seed ^ (i as u64 + 1));
                let mut txn = client.begin(coordinator);
                let body = {
                    let mut kv = DistKv {
                        txn: &mut txn,
                        eager: !cfg.batching,
                    };
                    gen.run_txn(&mut kv)
                };
                let ok = body.is_ok() && txn.commit().is_ok();
                // Open-loop latency: completion minus *intended* arrival.
                let elapsed = runtime::now() - intended;
                if ok {
                    committed.fetch_add(1, Ordering::Relaxed);
                    hist.lock().record(elapsed);
                } else {
                    aborted.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            join(h);
        }
        let duration = (runtime::now() - t0).max(1);
        let committed = committed.load(Ordering::Relaxed);
        let messages_sent = cluster.fabric().stats().sent - sent_baseline;
        let mut hist = hist.lock();
        *out2.lock() = Some(ScalePoint {
            nodes: cfg.nodes,
            batching: cfg.batching,
            offered_tps: cfg.offered_tps,
            achieved_tps: committed as f64 * 1e9 / duration as f64,
            committed,
            aborted: aborted.load(Ordering::Relaxed),
            p50_ns: hist.quantile(0.50),
            p99_ns: hist.quantile(0.99),
            mean_ns: hist.mean(),
            duration_ns: duration,
            messages_sent,
        });
    });

    let result = out.lock().take().expect("scale run produced a point");
    result
}

// ---- reporting helpers ---------------------------------------------------------

/// Formats a slowdown factor like the paper's figures.
pub fn slowdown(baseline_tps: f64, tps: f64) -> f64 {
    if tps <= 0.0 {
        f64::INFINITY
    } else {
        baseline_tps / tps
    }
}

/// Prints the read-acceleration line shown under a stats row.
pub fn print_accel(a: &AccelReport) {
    println!(
        "      block cache {:>7} hits / {:>7} misses ({:>5.1}% hit rate)   bloom {:>7} filtered, {:>5} false positives, {:>5} fence-gap rejects   scans {:>6}",
        a.block_cache_hits,
        a.block_cache_misses,
        a.hit_rate() * 100.0,
        a.bloom_negatives,
        a.bloom_false_positives,
        a.fence_gap_rejects,
        a.scans,
    );
}

/// Prints one stats row.
pub fn print_row(stats: &BenchStats, baseline_tps: Option<f64>) {
    let tps = stats.tps();
    let slow = baseline_tps.map(|b| slowdown(b, tps));
    println!(
        "  {:<26} {:>10.0} tps  {:>8.2} ms mean  {:>8.2} ms p99  {:>6.1}% aborts{}",
        stats.label,
        tps,
        stats.mean_latency_ns as f64 / 1e6,
        stats.p99_latency_ns as f64 / 1e6,
        stats.abort_rate() * 100.0,
        match slow {
            Some(s) => format!("  {s:>5.2}x slower than baseline"),
            None => "  (baseline)".to_string(),
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_only_smoke() {
        let stats = run_experiment(RunConfig {
            clients: 4,
            txns_per_client: 3,
            ..RunConfig::protocol_only(SecurityProfile::rocksdb(), 4)
        });
        assert!(stats.committed > 0);
        assert!(stats.tps() > 0.0);
    }

    #[test]
    fn distributed_ycsb_smoke() {
        let mut ycsb = YcsbConfig::balanced();
        ycsb.keys = 200;
        let stats = run_experiment(RunConfig {
            clients: 4,
            txns_per_client: 3,
            ..RunConfig::distributed_ycsb(SecurityProfile::treaty_full(), ycsb, 4)
        });
        assert!(stats.committed > 0);
    }

    #[test]
    fn single_node_tpcc_smoke() {
        let stats = run_experiment(RunConfig {
            clients: 2,
            txns_per_client: 3,
            ..RunConfig::single_node(
                SecurityProfile::native_treaty(),
                TxnMode::Pessimistic,
                Workload::Tpcc(TpccConfig::tiny()),
                2,
            )
        });
        assert!(stats.committed > 0);
    }

    #[test]
    fn snapshot_runner_smoke() {
        let mut ycsb = YcsbConfig::read_heavy();
        ycsb.keys = 200;
        let mut cfg = RunConfig {
            clients: 4,
            txns_per_client: 4,
            ..RunConfig::distributed_ycsb(SecurityProfile::treaty_full(), ycsb, 4)
        };
        cfg.read_snapshot = true;
        let (stats, report) = run_snapshot_experiment(cfg);
        assert!(stats.committed > 0);
        // 80 %R x 10 ops leaves ~10 % pure-read transactions; with 16 txns
        // drawn the run should see at least one.
        assert!(
            report.readonly.committed + report.readonly.aborted > 0,
            "expected some pure-read transactions"
        );
        assert!(report.snapshot_reads > 0);
    }

    #[test]
    fn ycsb_e_locking_smoke() {
        let mut ycsb = YcsbConfig::ycsb_e();
        ycsb.keys = 150;
        let cfg = RunConfig {
            clients: 3,
            txns_per_client: 3,
            ..RunConfig::distributed_ycsb(SecurityProfile::treaty_full(), ycsb, 3)
        };
        let (stats, report) = run_snapshot_experiment(cfg);
        assert!(stats.committed > 0);
        // Locking mode: scans go through 2PC with next-key locks, never
        // the lock-free snapshot path.
        assert_eq!(report.snapshot_scans, 0);
        assert!(
            report.lock_acquires > 0,
            "locking-mode scans must take locks"
        );
    }

    #[test]
    fn ycsb_e_snapshot_smoke() {
        let mut ycsb = YcsbConfig::ycsb_e();
        ycsb.keys = 150;
        let mut cfg = RunConfig {
            clients: 3,
            txns_per_client: 3,
            ..RunConfig::distributed_ycsb(SecurityProfile::treaty_full(), ycsb, 3)
        };
        cfg.read_snapshot = true;
        let (stats, report) = run_snapshot_experiment(cfg);
        assert!(stats.committed > 0);
        // 95 % of YCSB-E transactions are pure scans; they must ride the
        // snapshot path and register server-side.
        assert!(
            report.readonly.committed > 0,
            "scan transactions must commit on the snapshot path"
        );
        assert!(
            report.snapshot_scans > 0,
            "server must serve snapshot scans"
        );
    }

    #[test]
    fn social_workload_smoke() {
        let mut cfg = RunConfig {
            clients: 3,
            txns_per_client: 4,
            ..RunConfig::distributed_ycsb(
                SecurityProfile::treaty_full(),
                YcsbConfig::read_heavy(),
                3,
            )
        };
        cfg.workload = Workload::Social(SocialConfig::feed());
        cfg.read_snapshot = true;
        let (stats, report) = run_snapshot_experiment(cfg);
        assert!(stats.committed > 0);
        assert!(report.readonly.committed > 0, "feed loads must commit");
    }

    #[test]
    fn attribution_runner_smoke() {
        let mut ycsb = YcsbConfig::balanced();
        ycsb.keys = 200;
        let cfg = RunConfig {
            clients: 4,
            txns_per_client: 3,
            ..RunConfig::distributed_ycsb(SecurityProfile::treaty_full(), ycsb, 4)
        };
        let dir = tempfile::tempdir().unwrap();
        // SLO of 1 ns: every commit breaches, exercising the dump path.
        let run = run_attribution_experiment(cfg, Some(1), Some(dir.path().to_path_buf()));
        assert!(run.stats.committed > 0);
        assert_eq!(
            run.report.txns.len() as u64,
            run.stats.committed,
            "one attribution per committed transaction"
        );
        assert!(
            run.report.min_coverage_bp() >= 9_500,
            "attribution must explain >= 95% of every committed txn \
             (min {} bp)",
            run.report.min_coverage_bp()
        );
        assert!(run.report.p99_dominant().is_some());
        assert_eq!(run.snapshots.len(), 3, "every node answers OBS_SNAPSHOT");
        let committed: u64 = run.snapshots.iter().map(|r| r.committed).sum();
        assert_eq!(
            committed, run.stats.committed,
            "live coordinator counts must add up to the run total"
        );
        assert_eq!(run.slo_breaches, run.stats.committed);
        assert!(
            !run.flight_dumps.is_empty(),
            "breaches + end-of-run checkpoint must leave dumps"
        );
        assert!(run.top.contains("treaty-top"));
        assert!(run.series.contains("window"), "series rendering present");
    }

    #[test]
    fn scale_runner_smoke_batching_cuts_messages() {
        let scale = ScaleConfig {
            tenants: 2,
            keys_per_tenant: 500,
            write_pct: 100,
            ..ScaleConfig::default()
        };
        let mut cfg = ScaleRunConfig::point(3, 5_000.0, 12, true);
        cfg.scale = scale;
        let batched = run_scale_experiment(cfg.clone());
        cfg.batching = false;
        let unbatched = run_scale_experiment(cfg);
        assert!(batched.committed > 0, "batched run commits");
        assert!(unbatched.committed > 0, "unbatched run commits");
        // Pure-write transactions: batching ships one coalesced payload per
        // shard instead of one round trip per op, so it must use strictly
        // fewer fabric messages for the same transaction stream.
        assert!(
            batched.messages_sent < unbatched.messages_sent,
            "batched {} vs unbatched {} messages",
            batched.messages_sent,
            unbatched.messages_sent
        );
    }

    #[test]
    fn scale_runner_is_deterministic() {
        let mut cfg = ScaleRunConfig::point(3, 5_000.0, 8, true);
        cfg.scale.keys_per_tenant = 200;
        let a = run_scale_experiment(cfg.clone());
        let b = run_scale_experiment(cfg);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.p50_ns, b.p50_ns);
        assert_eq!(a.p99_ns, b.p99_ns);
        assert_eq!(a.duration_ns, b.duration_ns);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    #[test]
    fn network_bench_udp_drops_large() {
        let g = run_network(NetSystem::IperfUdp(TeeMode::Native), 4096, 50);
        assert_eq!(g, 0.0, "UDP above MTU must deliver nothing");
        let g = run_network(NetSystem::IperfUdp(TeeMode::Native), 1024, 50);
        assert!(g > 0.0);
    }

    #[test]
    fn network_bench_scone_slower_than_native_tcp() {
        let native = run_network(NetSystem::IperfTcp(TeeMode::Native), 4096, 100);
        let scone = run_network(NetSystem::IperfTcp(TeeMode::Scone), 4096, 100);
        assert!(native > scone, "native {native} vs scone {scone}");
    }

    #[test]
    fn recovery_bench_encrypted_slower() {
        let (native, _) = run_recovery(SecurityProfile::rocksdb(), 2000, 100);
        let (enc, _) = run_recovery(SecurityProfile::treaty_full(), 2000, 100);
        assert!(enc > native, "encrypted recovery must cost more");
    }
}
