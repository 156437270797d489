//! The benchmark harness regenerating every table and figure of the Treaty
//! paper (§VIII). See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The evaluation is one template — *system variant × workload × load* —
//! so there is one driver: [`run`] boots a cluster from a [`RunConfig`],
//! preloads, drives the clients and folds everything into one [`Report`].
//! Three experiments boot no cluster and stand alone: [`run_network`]
//! (Fig. 8), [`run_recovery`] (Table I) and [`run_counter_ablation`]
//! (§IV-B). The `treaty-bench` binary is a table of presets over these.
//!
//! All numbers are *virtual time* from the deterministic simulation; the
//! claims under reproduction are the ratios between system variants, not
//! absolute testbed throughput.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use serde::Serialize;
use treaty_core::messages::ObsSnapshotReply;
use treaty_core::{Cluster, ClusterOptions, DistTxn, TreatyClient};
use treaty_obs::{AttributionReport, Counter, Gauge, Obs};
use treaty_sched::block_on;
use treaty_sim::runtime::{self, join, spawn};
use treaty_sim::{BenchStats, CostModel, Histogram, Nanos, SecurityProfile, TeeMode, Transport};
use treaty_store::TxnMode;
use treaty_workload::ycsb::KEY_SPACE_END;
use treaty_workload::{
    KvTxn, PoissonArrivals, ScaleConfig, ScaleGenerator, SocialConfig, SocialGenerator, SocialTxn,
    TpccConfig, TpccGenerator, YcsbConfig, YcsbGenerator, YcsbOpKind,
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

/// Workload selection for the driver.
#[derive(Debug, Clone)]
pub enum Workload {
    /// YCSB with the given config.
    Ycsb(YcsbConfig),
    /// TPC-C with the given config.
    Tpcc(TpccConfig),
    /// Read-mostly social feed with the given config.
    Social(SocialConfig),
    /// Multi-tenant zipfian hot keys with the given config (the open-loop
    /// scale sweep's workload).
    Scale(ScaleConfig),
}

/// One operation of a transaction drawn as a list, values included.
enum Op {
    Get(Vec<u8>),
    Put(Vec<u8>, Vec<u8>),
    Scan(Vec<u8>, usize),
}

/// One client's deterministic transaction stream.
enum TxnStream {
    Ycsb(YcsbGenerator),
    Tpcc(TpccGenerator),
    Social(SocialGenerator),
    Scale(ScaleGenerator),
}

impl Workload {
    /// The rows loaded before the measured window: the whole key space,
    /// except for [`Workload::Scale`], which loads the hot head of every
    /// tenant's key space so zipfian reads hit existing rows.
    fn preload_rows(&self, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self {
            Workload::Ycsb(ycsb) => {
                let mut seeder = YcsbGenerator::new(*ycsb, seed);
                YcsbGenerator::all_keys(ycsb)
                    .map(|k| (k, seeder.next_value()))
                    .collect()
            }
            Workload::Tpcc(tpcc) => TpccGenerator::initial_rows(tpcc),
            Workload::Social(social) => SocialGenerator::all_keys(social)
                .map(|k| (k, vec![b'i'; social.value_size]))
                .collect(),
            Workload::Scale(scale) => treaty_workload::scale::hot_rows(scale, 64),
        }
    }

    fn stream(&self, seed: u64) -> TxnStream {
        match self {
            Workload::Ycsb(c) => TxnStream::Ycsb(YcsbGenerator::new(*c, seed)),
            Workload::Tpcc(c) => TxnStream::Tpcc(TpccGenerator::new(*c, seed)),
            Workload::Social(c) => TxnStream::Social(SocialGenerator::new(*c, seed)),
            Workload::Scale(c) => TxnStream::Scale(ScaleGenerator::new(c.clone(), seed)),
        }
    }
}

impl TxnStream {
    /// Runs the next transaction to completion and returns `(committed,
    /// pure_read)`. A *pure-read* transaction (point gets and/or range
    /// scans only) takes the lock-free snapshot lane when
    /// [`RunConfig::read_snapshot`] is set and regular 2PC otherwise — the
    /// locking-read ablation; everything else always runs 2PC.
    ///
    /// YCSB and social transactions are drawn as an op list, values
    /// included, before anything runs: that is what lets them be
    /// classified, and it keeps a client's stream independent of where a
    /// transaction aborted, so the snapshot and locking variants of one
    /// seed read exactly the same keys in the same order. TPC-C and the
    /// scale workload interleave their draws with their reads and are
    /// never pure reads.
    fn next_txn(
        &mut self,
        client: &TreatyClient,
        coordinator: u32,
        cfg: &RunConfig,
    ) -> (bool, bool) {
        let two_phase = |body: &mut dyn FnMut(&mut DistKv) -> Result<(), String>| {
            let mut txn = client.begin(coordinator);
            let body_ok = body(&mut DistKv {
                txn: &mut txn,
                eager: cfg.eager_writes,
            })
            .is_ok();
            body_ok && txn.commit().is_ok()
        };
        let ops: Vec<Op> = match self {
            TxnStream::Tpcc(g) => return (two_phase(&mut |kv| g.run_txn(kv).map(|_| ())), false),
            TxnStream::Scale(g) => return (two_phase(&mut |kv| g.run_txn(kv)), false),
            TxnStream::Ycsb(g) => g
                .next_txn()
                .into_iter()
                .map(|op| match op.kind {
                    YcsbOpKind::Read => Op::Get(op.key),
                    YcsbOpKind::Update | YcsbOpKind::Insert => Op::Put(op.key, g.next_value()),
                    YcsbOpKind::Scan { len } => Op::Scan(op.key, len as usize),
                })
                .collect(),
            TxnStream::Social(g) => match g.next_txn() {
                SocialTxn::LoadFeed { keys } => keys.into_iter().map(Op::Get).collect(),
                SocialTxn::Post { key, value } => vec![Op::Put(key, value)],
            },
        };
        let pure_read = !ops.iter().any(|op| matches!(op, Op::Put(..)));
        let committed = if pure_read && cfg.read_snapshot {
            // Gets and scans in one consistent snapshot, lock-free.
            client
                .read_only(|txn| {
                    for op in &ops {
                        match op {
                            Op::Scan(start, limit) => {
                                drop(txn.scan(start, KEY_SPACE_END, *limit)?)
                            }
                            Op::Get(key) | Op::Put(key, _) => drop(txn.get(key)?),
                        }
                    }
                    Ok(())
                })
                .is_ok()
        } else {
            two_phase(&mut |kv| {
                for op in &ops {
                    match op {
                        Op::Get(key) => drop(kv.get(key)?),
                        Op::Put(key, value) => kv.put(key, value)?,
                        Op::Scan(start, limit) => drop(kv.scan(start, KEY_SPACE_END, *limit)?),
                    }
                }
                Ok(())
            })
        };
        (committed, pure_read)
    }
}

/// How transactions are offered to the cluster — the only thing that
/// differs between the closed and the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `clients` closed-loop clients, each running transactions back to
    /// back until it has committed `txns_per_client` of them (or failed
    /// that many in a row, at which point it gives up). The measured
    /// window ends when the first client has committed its quota (see
    /// [`Report::stats`]). The quota counts commits, not attempts: where
    /// an abort is much cheaper than a commit (OCC validation against a
    /// stabilized 5 ms commit), a client whose attempts all abort would
    /// otherwise close the window before the first commit lands.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Transactions each client has to commit.
        txns_per_client: usize,
    },
    /// A Poisson arrival process injects `arrivals` transactions at
    /// `offered_tps` regardless of how fast earlier ones complete; each
    /// runs once, in its own fiber, and its latency is measured from its
    /// *intended* arrival time, so queueing delay under overload lands in
    /// the percentiles instead of silently throttling the offered rate.
    Open {
        /// Offered arrival rate in transactions per second of virtual time.
        offered_tps: f64,
        /// Total transactions the arrival process injects.
        arrivals: usize,
    },
}

/// One experiment configuration.
#[derive(Clone)]
pub struct RunConfig {
    /// The cluster under test: system variant (`profile`), size (`nodes`:
    /// 3 for the distributed experiments, 1 for §VIII-D), concurrency
    /// control (`txn_mode`), `durable` (`false` = storage-less 2PC,
    /// §VIII-B), determinism `seed` and `engine_config`. The driver
    /// overwrites only `base_dir`, with a fresh temporary directory.
    pub cluster: ClusterOptions,
    /// Workload.
    pub workload: Workload,
    /// Closed-loop clients or open-loop arrivals.
    pub load: Load,
    /// `true` routes pure-read transactions through the lock-free
    /// snapshot-read path; `false` runs them through regular 2PC — the
    /// locking-read ablation.
    pub read_snapshot: bool,
    /// `true` ships every write as it is issued ([`DistTxn::flush`] after
    /// each) instead of deferring it to the next read or the commit — the
    /// unbatched ablation.
    pub eager_writes: bool,
}

impl RunConfig {
    /// `clients` closed-loop clients × `txns` transactions of `workload` on
    /// a default 3-node cluster of `profile` (the Fig. 3 and Fig. 5 axes).
    pub fn closed(
        profile: SecurityProfile,
        workload: Workload,
        clients: usize,
        txns: usize,
    ) -> Self {
        RunConfig {
            cluster: ClusterOptions::new(profile, PathBuf::new()),
            workload,
            load: Load::Closed {
                clients,
                txns_per_client: txns,
            },
            read_snapshot: false,
            eager_writes: false,
        }
    }

    /// Single-node (Figs. 6 and 7 axes).
    pub fn single_node(
        profile: SecurityProfile,
        mode: TxnMode,
        workload: Workload,
        clients: usize,
        txns: usize,
    ) -> Self {
        let mut cfg = Self::closed(profile, workload, clients, txns);
        cfg.cluster.nodes = 1;
        cfg.cluster.txn_mode = mode;
        cfg
    }

    /// Storage-less 2PC (Fig. 4 axes).
    pub fn protocol_only(profile: SecurityProfile, clients: usize, txns: usize) -> Self {
        let workload = Workload::Ycsb(YcsbConfig::balanced());
        let mut cfg = Self::closed(profile, workload, clients, txns);
        cfg.cluster.durable = false;
        cfg
    }

    /// One point of the open-loop scale sweep: `arrivals` Poisson arrivals
    /// at `offered_tps` against a `nodes`-node full-Treaty cluster, with
    /// deferred-write batching on or off.
    pub fn open_loop(
        nodes: usize,
        offered_tps: f64,
        arrivals: usize,
        batching: bool,
        scale: ScaleConfig,
    ) -> Self {
        let profile = SecurityProfile::treaty_full();
        let mut cfg = Self::closed(profile, Workload::Scale(scale), 0, 0);
        cfg.cluster.nodes = nodes;
        cfg.load = Load::Open {
            offered_tps,
            arrivals,
        };
        cfg.eager_writes = !batching;
        cfg
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

/// Outcomes and latencies of one transaction population inside the window.
#[derive(Default)]
struct Population {
    committed: u64,
    aborted: u64,
    hist: Histogram,
}

impl Population {
    fn record(&mut self, committed: bool, latency: Nanos) {
        if committed {
            self.committed += 1;
            self.hist.record(latency);
        } else {
            self.aborted += 1;
        }
    }

    fn stats(&mut self, label: String, clients: usize, duration: Nanos) -> BenchStats {
        BenchStats::from_histogram(
            label,
            clients,
            self.committed,
            self.aborted,
            duration,
            &mut self.hist,
        )
    }
}

/// What the client fibers fold their transactions into.
#[derive(Default)]
struct Tally {
    all: Population,
    readonly: Population,
    /// When the measured window ended; `None` while it is open.
    end: Option<Nanos>,
}

/// Everything one [`run`] measured. The observability hub is installed
/// for every run (spans charge no virtual time), so there is no separate
/// "traced" mode: the Chrome trace, the phase breakdown, the critical-path
/// attribution and the `treaty-top` dashboard are all functions of a
/// report.
///
/// Everything in here derives from the virtual clock, so two runs of the
/// same [`RunConfig`] produce equal reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Stats over every transaction that *completed inside the measured
    /// window*. Under [`Load::Closed`] the window ends when the first
    /// client has committed its quota — until then every client is still
    /// offering load, so one straggler waiting out a lock timeout cannot
    /// stretch the window over 95 idle clients. Under [`Load::Open`] it
    /// ends when the last arrival has completed, and latencies count from
    /// the intended arrival time.
    pub stats: BenchStats,
    /// The same, over pure-read transactions only.
    pub readonly: BenchStats,
    /// The metrics registry at the end of the run: every counter (less
    /// what the preload had already counted) and every gauge, including
    /// the per-subsystem stats of the nodes, stores and fabric. Whole-run,
    /// not window: `bench.committed` / `bench.aborted` count every
    /// finished transaction, stragglers included.
    pub counters: BTreeMap<String, u64>,
    /// Fabric messages sent between the end of the preload and the last
    /// client's exit — the wire cost the coalesced fan-out amortises.
    pub messages_sent: u64,
    /// One live `OBS_SNAPSHOT` reply per node, in endpoint order, polled
    /// over the fabric after the last client finished.
    pub snapshots: Vec<ObsSnapshotReply>,
    /// The run's observability hub: trace events and metrics registry.
    pub obs: Rc<Obs>,
}

/// The part of a [`Report`] a table prints and `--out` serializes.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// [`Report::stats`] (its `label` names the row).
    pub stats: BenchStats,
    /// [`Report::readonly`].
    pub readonly: BenchStats,
    /// [`Report::messages_sent`].
    pub messages_sent: u64,
    /// [`Report::counters`], in name order.
    pub counters: Vec<(String, u64)>,
}

impl Row {
    /// One registry counter of the run (0 if never touched).
    pub fn counter(&self, c: Counter) -> u64 {
        self.value(c.name())
    }

    /// One struct-owned count of the run, as its gauge (0 if never set).
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.value(g.name())
    }

    fn value(&self, name: &str) -> u64 {
        let found = self.counters.iter().find(|(k, _)| k == name);
        found.map_or(0, |(_, v)| *v)
    }
}

impl Report {
    /// One registry counter of the run (0 if never touched).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.name()).copied().unwrap_or(0)
    }

    /// The serializable summary of this report.
    pub fn row(&self) -> Row {
        Row {
            stats: self.stats.clone(),
            readonly: self.readonly.clone(),
            messages_sent: self.messages_sent,
            counters: self.counters.clone().into_iter().collect(),
        }
    }

    /// Chrome `trace_event` JSON — load in Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        treaty_obs::chrome_trace_json_with_meta(&self.obs.events(), self.obs.dropped())
    }

    /// Virtual-time phase-breakdown table (the Fig. 4 decomposition).
    pub fn phase_breakdown(&self) -> String {
        treaty_obs::export::phase_breakdown_with_drops(&self.obs.events(), self.obs.dropped())
    }

    /// Per-transaction critical-path attribution of every committed
    /// transaction of the run.
    pub fn attribution(&self) -> AttributionReport {
        treaty_obs::attribute(&self.obs.events(), self.obs.dropped())
    }

    /// Writes the Chrome trace to `path` and the text reports to sidecar
    /// files: `<path>.breakdown.txt`, `<path>.metrics.txt`,
    /// `<path>.attribution.json`, `<path>.top.txt`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace())?;
        for (suffix, body) in [
            (".breakdown.txt", self.phase_breakdown()),
            (".metrics.txt", self.obs.metrics().snapshot().render()),
            (".attribution.json", self.attribution().to_json()),
            (".top.txt", treaty_top(&self.snapshots)),
        ] {
            let mut sidecar = path.as_os_str().to_owned();
            sidecar.push(suffix);
            std::fs::write(&sidecar, body)?;
        }
        Ok(())
    }

    /// Arms the flight recorder on this run's hub and writes, under `dir`,
    /// one `slo.breach` dump per committed transaction whose measured
    /// latency exceeded `slo_ns`, then a `run.complete` checkpoint so the
    /// artifact exists even on a clean run. Returns the dump paths in
    /// write order; the breach count is the length less one.
    pub fn write_flight_dumps(&self, dir: &Path, slo_ns: Nanos) -> Vec<PathBuf> {
        self.obs.configure_flight(dir, 512);
        let mut dumps = Vec::new();
        for t in &self.attribution().txns {
            if t.measured_ns > slo_ns {
                // A transaction id carries its client's endpoint up top.
                dumps.extend(self.obs.flight_dump(
                    (t.txn >> 32) as u32,
                    t.window.1,
                    "slo.breach",
                    "committed transaction exceeded the latency SLO",
                ));
            }
        }
        let now = self.snapshots.iter().map(|r| r.ts).max().unwrap_or(0);
        dumps.extend(
            self.obs
                .flight_dump(0, now, "run.complete", "end-of-run checkpoint"),
        );
        dumps.into_iter().map(|d| d.path).collect()
    }
}

/// Runs one experiment: boots the cluster, preloads the workload's rows,
/// drives the configured load and folds everything into a [`Report`]. The
/// only function in this crate that boots a cluster.
///
/// Fully deterministic per config: arrivals, workload and the simulated
/// cluster all derive from `cfg.cluster.seed` (client `c` draws from
/// `seed ^ (c + 1)`, the preload from `seed`).
///
/// # Panics
///
/// Panics if the cluster fails to boot, a node fails to answer the
/// introspection RPC, or the simulation errors.
pub fn run(cfg: &RunConfig) -> Report {
    let cfg = Rc::new(cfg.clone());
    let dir = tempfile::tempdir().expect("bench tempdir");
    let mut options = cfg.cluster.clone();
    options.base_dir = dir.path().to_path_buf();

    block_on(move || {
        // Install the observability hub first, from the root fiber, so every
        // fiber the cluster spawns inherits it.
        let obs = Obs::with_default_cap();
        treaty_sim::obs::install(&obs);
        let (nodes, seed, durable) = (options.nodes, options.seed, options.durable);
        let label = options.profile.label().to_string();
        let cluster = Rc::new(Cluster::start(options).expect("cluster boots"));

        // Load phase (unmeasured). Preload commits count too (locks,
        // counter rounds); the report covers what came after.
        if durable {
            preload(&cluster, cfg.workload.preload_rows(seed));
        }
        let counted_before = obs.metrics().snapshot().counters;
        let sent_before = cluster.fabric().stats().sent;

        // Measured window.
        let t0 = runtime::now();
        let tally = Rc::new(RefCell::new(Tally::default()));
        let client_fiber = |idx: usize, quota: usize, arrival: Option<Nanos>| {
            let cluster = Rc::clone(&cluster);
            let tally = Rc::clone(&tally);
            let cfg = Rc::clone(&cfg);
            spawn(move || {
                runtime::set_tag("bench-client");
                let client = cluster.client();
                let coordinator = 1 + (idx % nodes) as u32;
                let mut stream = cfg.workload.stream(seed ^ (idx as u64 + 1));
                let (mut commits, mut failed_in_a_row) = (0, 0);
                while commits < quota && failed_in_a_row < quota {
                    if tally.borrow().end.is_some() {
                        return; // the window closed under this straggler
                    }
                    let start = arrival.unwrap_or_else(runtime::now);
                    let (committed, pure_read) = stream.next_txn(&client, coordinator, &cfg);
                    let now = runtime::now();
                    if committed {
                        (commits, failed_in_a_row) = (commits + 1, 0);
                        treaty_sim::obs::counter_add(Counter::BenchCommitted, 1);
                    } else {
                        failed_in_a_row += 1;
                        treaty_sim::obs::counter_add(Counter::BenchAborted, 1);
                    }
                    let mut tally = tally.borrow_mut();
                    if tally.end.is_some_and(|end| now > end) {
                        return;
                    }
                    tally.all.record(committed, now - start);
                    if pure_read {
                        tally.readonly.record(committed, now - start);
                    }
                }
                if arrival.is_none() && commits == quota {
                    // Closed loop: the first client to commit its quota
                    // ends the window for everyone.
                    tally.borrow_mut().end.get_or_insert(runtime::now());
                }
            })
        };
        let (population, handles): (usize, Vec<_>) = match cfg.load {
            Load::Closed {
                clients,
                txns_per_client,
            } => (
                clients,
                (0..clients)
                    .map(|c| client_fiber(c, txns_per_client, None))
                    .collect(),
            ),
            Load::Open {
                offered_tps,
                arrivals,
            } => {
                let mut gaps = PoissonArrivals::new(offered_tps, seed ^ 0x5ca1e);
                let mut next = t0;
                let fibers = (0..arrivals).map(|i| {
                    next += gaps.next_gap();
                    let now = runtime::now();
                    if next > now {
                        runtime::sleep(next - now);
                    }
                    client_fiber(i, 1, Some(next))
                });
                (arrivals, fibers.collect())
            }
        };
        for h in handles {
            join(h);
        }
        let mut tally = tally.take();
        let duration = (tally.end.unwrap_or_else(runtime::now) - t0).max(1);
        let messages_sent = cluster.fabric().stats().sent - sent_before;

        // Live introspection: every node answers OBS_SNAPSHOT over the
        // fabric (this is the treaty-top poll, not a local peek).
        let client = cluster.client();
        let snapshots = cluster
            .node_endpoints()
            .into_iter()
            .map(|ep| client.obs_snapshot(ep).expect("OBS_SNAPSHOT reply"))
            .collect();

        absorb_cluster_stats(&obs, &cluster, nodes);
        let end_of_run = obs.metrics().snapshot();
        let mut counters: BTreeMap<_, _> = end_of_run
            .gauges
            .iter()
            .map(|(g, v)| (g.to_string(), *v))
            .collect();
        for (c, v) in end_of_run.counters {
            let before = counted_before.get(&c).copied().unwrap_or(0);
            counters.insert(c.to_string(), v - before);
        }
        Report {
            stats: tally.all.stats(label.clone(), population, duration),
            readonly: tally
                .readonly
                .stats(format!("{label} (read-only)"), population, duration),
            counters,
            messages_sent,
            snapshots,
            obs,
        }
    })
}

/// Copies the counts the stats structs own ([`treaty_core`]'s `NodeStats`,
/// the engine's `EngineStats`, the fabric's `FabricStats`), summed over the
/// cluster, into the registry as its [`Gauge`]s, so one snapshot carries
/// every count the stack keeps. This is the only gauge write: the program
/// records each count in one owner only (`treaty_obs::metrics`).
fn absorb_cluster_stats(obs: &Obs, cluster: &Cluster, nodes: usize) {
    let mut totals: BTreeMap<Gauge, u64> = BTreeMap::new();
    let mut add = |g, v| *totals.entry(g).or_default() += v;
    for idx in 0..nodes {
        let ns = cluster.node(idx).stats();
        add(Gauge::CoreNodesCommitted, ns.committed);
        add(Gauge::CoreNodesAborted, ns.aborted);
        add(Gauge::CoreNodesParticipantOps, ns.participant_ops);
        add(Gauge::CoreNodesDecisionRetries, ns.decision_retries);
        add(
            Gauge::NetReplayGuardEntries,
            cluster.node(idx).rpc().guard_entries() as u64,
        );
        if let Some(store) = cluster.store(idx) {
            let es = store.stats();
            add(Gauge::StoreCommits, es.commits);
            add(Gauge::StoreAborts, es.aborts);
            add(Gauge::StoreGets, es.gets);
            add(Gauge::StoreFlushes, es.flushes);
            add(Gauge::StoreCompactions, es.compactions);
            add(Gauge::StoreFilesDeleted, es.files_deleted);
            add(Gauge::StoreGroupCommits, es.group_commits);
            add(Gauge::StoreGroupedTxns, es.grouped_txns);
            add(Gauge::StoreBlockCacheHits, es.block_cache_hits);
            add(Gauge::StoreBlockCacheMisses, es.block_cache_misses);
            add(Gauge::StoreBloomNegatives, es.bloom_negatives);
            add(Gauge::StoreBloomFalsePositives, es.bloom_false_positives);
            add(Gauge::StoreFenceGapRejects, es.fence_gap_rejects);
            add(Gauge::StoreScans, es.scans);
        }
    }
    let fs = cluster.fabric().stats();
    add(Gauge::FabricSent, fs.sent);
    add(Gauge::FabricDelivered, fs.delivered);
    add(Gauge::FabricDroppedAdversary, fs.dropped_adversary);
    add(Gauge::FabricDroppedMtu, fs.dropped_mtu);
    add(Gauge::FabricDroppedUnreachable, fs.dropped_unreachable);
    add(Gauge::FabricTampered, fs.tampered);
    add(Gauge::FabricDuplicated, fs.duplicated);
    add(Gauge::ObsDroppedEvents, obs.dropped());
    for (g, v) in totals {
        obs.metrics().gauge_set(g, v);
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

    fn params(&self) -> (Transport, TeeMode, treaty_crypto::Protection) {
        use treaty_crypto::Protection;
        match self {
            NetSystem::IperfUdp(t) => (Transport::KernelUdp, *t, Protection::Plain),
            NetSystem::IperfTcp(t) => (Transport::KernelTcp, *t, Protection::Plain),
            NetSystem::Erpc(t) => (Transport::Dpdk, *t, Protection::Plain),
            NetSystem::TreatyNetworking => (Transport::Dpdk, TeeMode::Scone, Protection::Full),
        }
    }
}

/// Streams `messages` one-way messages of `msg_bytes` and returns the
/// goodput in Gbit/s (0.0 when everything is dropped, as for UDP > MTU).
pub fn run_network(system: NetSystem, msg_bytes: usize, messages: u64) -> f64 {
    use treaty_crypto::{KeyHierarchy, TxMeta};
    use treaty_net::{EndpointConfig, Fabric, Rpc, RpcConfig};

    let (transport, tee, crypto) = system.params();
    block_on(move || {
        let fabric = Fabric::new(CostModel::default(), 7);
        let key = KeyHierarchy::for_testing().network;
        let rpc_config = RpcConfig {
            endpoint: EndpointConfig {
                transport,
                tee,
                link_gbps: 40,
            },
            crypto,
            key,
            cores: None,
            timeout: treaty_net::DEFAULT_RPC_TIMEOUT,
        };

        let received_bytes = Rc::new(Cell::new(0));
        let received_msgs = Rc::new(Cell::new(0));
        let last_arrival = Rc::new(Cell::new(0));

        let server = Rpc::new(&fabric, 1, rpc_config.clone());
        {
            let received_bytes = Rc::clone(&received_bytes);
            let received_msgs = Rc::clone(&received_msgs);
            let last_arrival = Rc::clone(&last_arrival);
            server.register_handler(
                0x55,
                false,
                Rc::new(move |_, _, payload: Vec<u8>| {
                    received_bytes.update(|n| n + payload.len() as u64);
                    received_msgs.update(|n| n + 1);
                    last_arrival.set(runtime::now());
                    None
                }),
            );
        }
        server.start();

        let client = Rpc::new(&fabric, 2, rpc_config);

        let t0 = runtime::now();
        let payload = vec![0xA5u8; msg_bytes];
        for i in 0..messages {
            let meta = TxMeta::new(2, 1, i);
            client.send_oneway(1, 0x55, &meta, &payload);
        }
        // Drain: wait until deliveries go quiet.
        let mut stable = 0;
        let mut last_seen = 0;
        while stable < 5 {
            runtime::sleep(treaty_sim::MILLIS);
            let seen = received_msgs.get();
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
        let bytes = received_bytes.get();
        let end = last_arrival.get().max(t0 + 1);
        bytes as f64 * 8.0 / (end - t0) as f64 // bits per ns == Gbit/s
    })
}

// ---- Table I: recovery -------------------------------------------------------

/// Builds a log of `entries` records of `entry_bytes` each, then measures
/// the virtual time to replay and verify it. Returns `(virtual_ns,
/// log_file_bytes)`.
pub fn run_recovery(profile: SecurityProfile, entries: usize, entry_bytes: usize) -> (Nanos, u64) {
    use treaty_store::env::Env;
    use treaty_store::log;

    let dir = tempfile::tempdir().expect("tempdir");
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(profile, &path);
        let file = path.join("wal-recovery");
        let writer = log::LogWriter::open(Rc::clone(&env), "wal-recovery", &file, 0).expect("open");
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
        let replay = log::replay(&env, "wal-recovery", &file).expect("replay");
        assert_eq!(replay.records.len(), entries);
        (runtime::now() - t0, log_bytes)
    })
}

// ---- §IV-B: the trusted counter choice ---------------------------------------

/// Why Treaty needs the asynchronous trusted counter service: the mean
/// virtual time of 50 sequential single-node commits under each of three
/// stabilization backends, as `(label, ns per commit)` — no rollback
/// protection (the `Treaty w/ Enc` variant), the ROTE-style distributed
/// counter group (the shipped design), and the SGX hardware monotonic
/// counter, which §IV-B rejects (up to 250 ms per increment per the paper;
/// ROTE measures ~60-250 ms).
pub fn run_counter_ablation() -> [(&'static str, Nanos); 3] {
    use treaty_counter::{CounterBackend, HwCounterBackend, NullBackend, RoteGroup, RoteReplica};
    use treaty_crypto::KeyHierarchy;
    use treaty_store::env::{EngineConfig, Env};
    use treaty_store::{EngineTxn as _, TreatyStore};

    #[derive(Clone, Copy)]
    enum Backend {
        None,
        Rote,
        Hardware,
    }
    let per_commit = |choice: Backend| {
        let dir = tempfile::tempdir().expect("tempdir");
        let path = dir.path().to_path_buf();
        block_on(move || {
            let fabric = treaty_net::Fabric::new(CostModel::default(), 3);
            let keys = KeyHierarchy::for_testing();
            let mut replicas = Vec::new();
            let backend: Rc<dyn CounterBackend> = match choice {
                Backend::None => NullBackend::new(),
                Backend::Hardware => HwCounterBackend::new(CostModel::default()),
                Backend::Rote => {
                    replicas.extend((1000..1003).map(|endpoint| {
                        RoteReplica::start(&fabric, endpoint, keys.counter, keys.sealing, &path)
                    }));
                    let round_floor = 2 * treaty_sim::MILLIS;
                    RoteGroup::connect(
                        &fabric,
                        1100,
                        keys.counter,
                        vec![1000, 1001, 1002],
                        round_floor,
                    )
                }
            };
            let env = Env::new(
                SecurityProfile::treaty_full(),
                CostModel::default(),
                None,
                keys,
                backend,
                path.join("node-0"),
                EngineConfig::default(),
            );
            let store = TreatyStore::open(env).expect("store opens");
            let txns = 50u64;
            let t0 = runtime::now();
            for i in 0..txns {
                let mut tx = store.begin_mode(TxnMode::Pessimistic);
                tx.put(format!("k{i}").as_bytes(), &[0u8; 500])
                    .expect("put");
                tx.commit().expect("commit");
            }
            (runtime::now() - t0) / txns
        })
    };
    [
        ("no rollback protection", Backend::None),
        ("ROTE-style service (the design)", Backend::Rote),
        ("SGX hardware counter (rejected)", Backend::Hardware),
    ]
    .map(|(label, choice)| (label, per_commit(choice)))
}

// ---- reporting helpers ---------------------------------------------------------

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
    // Right-aligned to the widths of the row format below.
    s.push_str(
        "node    stable_ts   fin flush   bp prepared   commit   abort  part_ops  retries  cache%\n",
    );
    for r in snapshots {
        let fetches = r.block_cache_hits + r.block_cache_misses;
        let hit_bp = (r.block_cache_hits * 10_000)
            .checked_div(fetches)
            .unwrap_or(0);
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
            r.finishes_inflight,
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

/// Prints the read-acceleration line shown under a stats row.
pub fn print_accel(row: &Row) {
    let hits = row.gauge(Gauge::StoreBlockCacheHits);
    let misses = row.gauge(Gauge::StoreBlockCacheMisses);
    println!(
        "      block cache {:>7} hits / {:>7} misses ({:>5.1}% hit rate)   bloom {:>7} filtered, {:>5} false positives, {:>5} fence-gap rejects   scans {:>6}",
        hits,
        misses,
        hits as f64 * 100.0 / ((hits + misses).max(1)) as f64,
        row.gauge(Gauge::StoreBloomNegatives),
        row.gauge(Gauge::StoreBloomFalsePositives),
        row.gauge(Gauge::StoreFenceGapRejects),
        row.gauge(Gauge::StoreScans),
    );
}

/// Prints one stats row. Against a baseline it prints the throughput
/// slowdown and, beside it, the mean-latency ratio: the two agree when
/// both windows are saturated and part when aborted attempts or cut
/// in-flight transactions take a different share of the two.
pub fn print_row(stats: &BenchStats, baseline: Option<&BenchStats>) {
    println!(
        "  {:<26} {:>10.0} tps  {:>8.2} ms mean  {:>8.2} ms p99  {:>6.1}% aborts{}",
        stats.label,
        stats.tps(),
        stats.mean_latency_ns as f64 / 1e6,
        stats.p99_latency_ns as f64 / 1e6,
        stats.abort_rate() * 100.0,
        match baseline {
            Some(b) => format!(
                "  {:>5.2}x slower than baseline ({:.2}x mean latency)",
                b.tps() / stats.tps(),
                stats.mean_latency_ns as f64 / b.mean_latency_ns.max(1) as f64,
            ),
            None => "  (baseline)".to_string(),
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ycsb(mut ycsb: YcsbConfig, keys: u64, clients: usize, txns: usize) -> RunConfig {
        ycsb.keys = keys;
        let profile = SecurityProfile::treaty_full();
        RunConfig::closed(profile, Workload::Ycsb(ycsb), clients, txns)
    }

    #[test]
    fn protocol_only_smoke() {
        let stats = run(&RunConfig::protocol_only(SecurityProfile::rocksdb(), 4, 3)).stats;
        assert!(stats.committed > 0);
        assert!(stats.tps() > 0.0);
    }

    #[test]
    fn distributed_ycsb_smoke() {
        let stats = run(&small_ycsb(YcsbConfig::balanced(), 200, 4, 3)).stats;
        assert!(stats.committed > 0);
    }

    #[test]
    fn single_node_tpcc_smoke() {
        let cfg = RunConfig::single_node(
            SecurityProfile::native_treaty(),
            TxnMode::Pessimistic,
            Workload::Tpcc(TpccConfig::tiny()),
            2,
            3,
        );
        assert!(run(&cfg).stats.committed > 0);
    }

    #[test]
    fn snapshot_lane_smoke() {
        let mut cfg = small_ycsb(YcsbConfig::read_heavy(), 200, 4, 4);
        cfg.read_snapshot = true;
        let report = run(&cfg);
        assert!(report.stats.committed > 0);
        // 80 %R x 10 ops leaves ~10 % pure-read transactions; with 16 txns
        // drawn the run should see at least one.
        assert!(
            report.readonly.committed + report.readonly.aborted > 0,
            "expected some pure-read transactions"
        );
        assert!(report.counter(Counter::CoreSnapshotReads) > 0);
    }

    #[test]
    fn ycsb_e_locking_smoke() {
        let report = run(&small_ycsb(YcsbConfig::ycsb_e(), 150, 3, 3));
        assert!(report.stats.committed > 0);
        // Locking mode: scans go through 2PC with next-key locks, never
        // the lock-free snapshot path.
        assert_eq!(report.counter(Counter::CoreSnapshotScans), 0);
        assert!(
            report.counter(Counter::StoreLockAcquire) > 0,
            "locking-mode scans must take locks"
        );
    }

    #[test]
    fn ycsb_e_snapshot_smoke() {
        let mut cfg = small_ycsb(YcsbConfig::ycsb_e(), 150, 3, 3);
        cfg.read_snapshot = true;
        let report = run(&cfg);
        assert!(report.stats.committed > 0);
        // 95 % of YCSB-E transactions are pure scans; they must ride the
        // snapshot path and register server-side.
        assert!(
            report.readonly.committed > 0,
            "scan transactions must commit on the snapshot path"
        );
        assert!(
            report.counter(Counter::CoreSnapshotScans) > 0,
            "server must serve snapshot scans"
        );
    }

    fn social(clients: usize, txns: usize) -> RunConfig {
        let workload = Workload::Social(SocialConfig::feed());
        let mut cfg = RunConfig::closed(SecurityProfile::treaty_full(), workload, clients, txns);
        cfg.read_snapshot = true;
        cfg
    }

    #[test]
    fn social_workload_smoke() {
        let report = run(&social(3, 4));
        assert!(report.stats.committed > 0);
        assert!(report.readonly.committed > 0, "feed loads must commit");
    }

    #[test]
    fn attribution_and_introspection_smoke() {
        let report = run(&small_ycsb(YcsbConfig::balanced(), 200, 4, 3));
        assert!(report.stats.committed > 0);
        let committed = report.counter(Counter::BenchCommitted);
        assert!(report.stats.committed <= committed);
        let attribution = report.attribution();
        assert_eq!(
            attribution.txns.len() as u64,
            committed,
            "one attribution per committed transaction"
        );
        assert!(
            attribution.min_coverage_bp() >= 9_500,
            "attribution must explain >= 95% of every committed txn \
             (min {} bp)",
            attribution.min_coverage_bp()
        );
        assert!(attribution.p99_dominant().is_some());
        assert_eq!(report.snapshots.len(), 3, "every node answers OBS_SNAPSHOT");
        assert_eq!(
            report.snapshots.iter().map(|r| r.committed).sum::<u64>(),
            committed,
            "live coordinator counts must add up to the run total"
        );
        // SLO of 1 ns: every commit breaches, exercising the dump path.
        let dir = tempfile::tempdir().unwrap();
        let dumps = report.write_flight_dumps(dir.path(), 1);
        assert_eq!(
            dumps.len() as u64,
            committed + 1,
            "one dump per breach plus the end-of-run checkpoint"
        );
        assert!(dumps.iter().all(|d| d.exists()));
        assert!(treaty_top(&report.snapshots).contains("treaty-top"));
        assert!(report.chrome_trace().contains("traceEvents"));
    }

    fn write_only_scale(batching: bool) -> RunConfig {
        let scale = ScaleConfig {
            tenants: 2,
            keys_per_tenant: 500,
            write_pct: 100,
            ..ScaleConfig::default()
        };
        RunConfig::open_loop(3, 5_000.0, 12, batching, scale)
    }

    #[test]
    fn open_loop_smoke_batching_cuts_messages() {
        let batched = run(&write_only_scale(true));
        let unbatched = run(&write_only_scale(false));
        assert!(batched.stats.committed > 0, "batched run commits");
        assert!(unbatched.stats.committed > 0, "unbatched run commits");
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
    fn run_is_deterministic() {
        let scale = ScaleConfig {
            keys_per_tenant: 200,
            ..ScaleConfig::default()
        };
        for cfg in [
            social(4, 6),
            RunConfig::open_loop(3, 5_000.0, 8, true, scale),
        ] {
            let row = |cfg| serde_json::to_vec(&run(cfg).row()).unwrap();
            let (a, b) = (row(&cfg), row(&cfg));
            assert!(
                a == b,
                "same config, different rows:\n{}\n{}",
                String::from_utf8_lossy(&a),
                String::from_utf8_lossy(&b)
            );
        }
    }

    #[test]
    fn closed_window_ends_with_the_first_finisher() {
        let report = run(&small_ycsb(YcsbConfig::write_heavy(), 50, 6, 4));
        let in_window = report.stats.committed + report.stats.aborted;
        let finished =
            report.counter(Counter::BenchCommitted) + report.counter(Counter::BenchAborted);
        assert!(
            (4..6 * 4).contains(&report.stats.committed),
            "the first finisher's four commits are inside, five stragglers' quotas are not"
        );
        // Nobody starts a transaction after the window closed, so at most
        // the five stragglers' in-flight ones finish outside it.
        assert!(in_window <= finished && finished - in_window <= 5);
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

    #[test]
    fn counter_ablation_orders_the_backends() {
        let [(_, none), (_, rote), (_, hw)] = run_counter_ablation();
        assert!(
            none < rote && rote < hw,
            "none {none} < rote {rote} < hw {hw}"
        );
    }
}
