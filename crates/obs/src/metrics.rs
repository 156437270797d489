//! The metrics registry: counters, gauges and virtual-time histograms
//! behind one deterministic snapshot API.
//!
//! Each count has one owner and is recorded there only. A stats struct
//! owns what the benchmark harness or the `OBS_SNAPSHOT` wire reads, and
//! is its own storage: `NodeStats` in the node, `EngineStats` in the
//! store's `Env`, the `BlockCache`'s hits and misses, `FabricStats` in the
//! fabric, and `SimReport`. Per-node state (the stable frontier, the flush
//! backlog, the finishes in flight) is `OBS_SNAPSHOT`'s alone: the registry
//! is one per `Sim`. The registry owns everything else: protocol events
//! (`core.*`, `client.*`, aborts by cause as `core.abort.*`), the RPC
//! layer's rejects and suppressed replays (`net.rpc_*`), enclave costs
//! (`tee.*`, EPC faults included), lock traffic (`store.lock_*`, lock
//! timeouts included) and the counter service's rounds (`counter.*`). A harness copies the structs in as
//! [`Gauge`]s at the end of a run.
//!
//! Every name is one `Variant => "layer.metric";` line of the `metrics!`
//! list below, and [`Counter`], [`Gauge`] and [`Hist`] are each their own
//! type. The registry keeps one slot per variant; a slot enters a snapshot
//! once touched. Each kind is declared in name order, so snapshots iterate
//! in name order — deterministic across runs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::{Histogram, Named, Nanos};

/// `ALL`, `name()`, `from_name()` and the literal lookup [`Named`] for each
/// kind, from the arm [`phases!`](crate::phases) declares `Phase` with.
macro_rules! metrics {
    ($($(#[$attr:meta])* pub enum $ty:ident { $($variant:ident => $name:literal;)* })*) => {
        $($crate::phases!(@catalogue "metric", $(#[$attr])* $ty { $($variant => $name;)* });)*
    };
}

metrics! {
    /// Every registry counter, in name order. A call site names a variant,
    /// so a misspelt one does not compile:
    ///
    /// ```compile_fail,E0599
    /// let _ = treaty_obs::Counter::StoreLockAquire;
    /// ```
    pub enum Counter {
        BenchAborted => "bench.aborted";
        BenchCommitted => "bench.committed";
        ClientBufferReadHits => "client.buffer_read_hits";
        ClientBufferedWrites => "client.buffered_writes";
        ClientShippedCommitWrites => "client.shipped_commit_writes";
        ClientSnapshotRetries => "client.snapshot_retries";
        CoreAbortAlreadyAborted => "core.abort.already_aborted";
        CoreAbortConflict => "core.abort.conflict";
        CoreAbortIntegrity => "core.abort.integrity";
        CoreAbortLockTimeout => "core.abort.lock_timeout";
        CoreAbortLogFailed => "core.abort.log_failed";
        CoreAbortMalformed => "core.abort.malformed";
        CoreAbortRolledBack => "core.abort.rolled_back";
        CoreAbortSliceLost => "core.abort.slice_lost";
        CoreAbortUnreachable => "core.abort.unreachable";
        CoreAbortUnsupported => "core.abort.unsupported";
        CoreAbortVotedNo => "core.abort.voted_no";
        CoreCommitPointAcks => "core.commit_point_acks";
        CoreDecisionUnstable => "core.decision_unstable";
        CoreObsSnapshotsServed => "core.obs_snapshots_served";
        CoreReadOnlyCommits => "core.read_only_commits";
        CoreRecoveryRedecided => "core.recovery_redecided";
        CoreRecoveryRedriveFailed => "core.recovery_redrive_failed";
        CoreRecoveryResolved => "core.recovery_resolved";
        CoreScanResumes => "core.scan_resumes";
        CoreSnapshotIndoubtReject => "core.snapshot_indoubt_reject";
        CoreSnapshotReads => "core.snapshot_reads";
        CoreSnapshotScans => "core.snapshot_scans";
        CoreSnapshotStaleReject => "core.snapshot_stale_reject";
        CoreSnapshotValidateFail => "core.snapshot_validate_fail";
        CounterRounds => "counter.rounds";
        CrashFired => "crash.fired";
        NetRpcRejected => "net.rpc_rejected";
        NetRpcReplaysSuppressed => "net.rpc_replays_suppressed";
        StoreBackpressureSlowdowns => "store.backpressure_slowdowns";
        StoreBackpressureStops => "store.backpressure_stops";
        StoreLockAcquire => "store.lock_acquire";
        StoreLockContended => "store.lock_contended";
        StoreLockReleasedAtCommitPoint => "store.lock_released_at_commit_point";
        StoreLockTimeouts => "store.lock_timeouts";
        StoreMaintenanceErrors => "store.maintenance_errors";
        TeeEpcFault => "tee.epc_fault";
        TeePagingNs => "tee.paging_ns";
        TeeWorldSwitch => "tee.world_switch";
    }

    /// The struct-owned counts a harness copies in at the end of a run,
    /// summed over the cluster, in name order.
    pub enum Gauge {
        CoreNodesAborted => "core.nodes.aborted";
        CoreNodesCommitted => "core.nodes.committed";
        CoreNodesDecisionRetries => "core.nodes.decision_retries";
        CoreNodesParticipantOps => "core.nodes.participant_ops";
        FabricDelivered => "fabric.delivered";
        FabricDroppedAdversary => "fabric.dropped_adversary";
        FabricDroppedMtu => "fabric.dropped_mtu";
        FabricDroppedUnreachable => "fabric.dropped_unreachable";
        FabricDuplicated => "fabric.duplicated";
        FabricSent => "fabric.sent";
        FabricTampered => "fabric.tampered";
        NetReplayGuardEntries => "net.replay_guard_entries";
        ObsDroppedEvents => "obs.dropped_events";
        StoreAborts => "store.aborts";
        StoreBlockCacheHits => "store.block_cache.hits";
        StoreBlockCacheMisses => "store.block_cache.misses";
        StoreBloomFalsePositives => "store.bloom.false_positives";
        StoreBloomNegatives => "store.bloom.negatives";
        StoreCommits => "store.commits";
        StoreCompactions => "store.compactions";
        StoreFenceGapRejects => "store.fence_gap_rejects";
        StoreFilesDeleted => "store.files_deleted";
        StoreFlushes => "store.flushes";
        StoreGets => "store.gets";
        StoreGroupCommits => "store.group_commits";
        StoreGroupedTxns => "store.grouped_txns";
        StoreScans => "store.scans";
    }

    /// Every virtual-time histogram, in name order.
    pub enum Hist {
        CounterExchangeNs => "counter.exchange_ns";
        CounterSlotWaitNs => "counter.slot_wait_ns";
        CounterWaitersPerRound => "counter.waiters_per_round";
    }
}

/// One slot per counter, gauge and histogram, indexed by variant; `None`
/// until touched. All methods take `&self`: a count is a `Cell`, and the
/// histograms a `RefCell` borrowed only for the length of one call.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [Cell<Option<u64>>; Counter::ALL.len()],
    gauges: [Cell<Option<u64>>; Gauge::ALL.len()],
    hists: RefCell<[Histogram; Hist::ALL.len()]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [const { Cell::new(None) }; Counter::ALL.len()],
            gauges: [const { Cell::new(None) }; Gauge::ALL.len()],
            hists: RefCell::default(),
        }
    }
}

impl MetricsRegistry {
    /// Adds `v` to counter `c`, creating it at zero. A gauge is not a
    /// counter:
    ///
    /// ```compile_fail,E0308
    /// treaty_obs::MetricsRegistry::default().counter_add(treaty_obs::Gauge::FabricSent, 1);
    /// ```
    pub fn counter_add(&self, c: Counter, v: u64) {
        let slot = &self.counters[c as usize];
        slot.set(Some(slot.get().unwrap_or(0).saturating_add(v)));
    }

    /// Current value of counter `c` (0 if never touched).
    pub fn counter(&self, c: impl Named<Counter>) -> u64 {
        self.counters[c.resolve() as usize].get().unwrap_or(0)
    }

    /// Sets gauge `g` to `v` (last write wins).
    pub fn gauge_set(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].set(Some(v));
    }

    /// Records one virtual-time sample into histogram `h`.
    pub fn hist_record(&self, h: Hist, v: Nanos) {
        self.hists.borrow_mut()[h as usize].record(v);
    }

    /// Deterministic point-in-time snapshot of every touched slot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        fn touched<K: Copy + Ord>(all: &[K], slots: &[Cell<Option<u64>>]) -> BTreeMap<K, u64> {
            all.iter()
                .zip(slots)
                .filter_map(|(&k, slot)| Some((k, slot.get()?)))
                .collect()
        }
        let hists = self.hists.borrow();
        let hists = Hist::ALL.into_iter().zip(hists.iter().cloned());
        MetricsSnapshot {
            counters: touched(&Counter::ALL, &self.counters),
            gauges: touched(&Gauge::ALL, &self.gauges),
            hists: hists.filter(|(_, h)| h.count() > 0).collect(),
        }
    }
}

/// Deterministic snapshot: each kind is declared in name order, so these
/// maps iterate in name order, and rendering the same state always
/// produces the same bytes.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<Counter, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<Gauge, u64>,
    /// Histograms, each a copy.
    pub hists: BTreeMap<Hist, Histogram>,
}

impl MetricsSnapshot {
    /// Renders a fixed-width text report (name order, byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {:<44} {v:>14}\n", k.name()));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {:<44} {v:>14}\n", k.name()));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms (virtual ns):\n");
            for (k, h) in &self.hists {
                out.push_str(&format!(
                    "  {:<44} n={} mean={} p50={} p99={} max={}\n",
                    k.name(),
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each kind's names, in declaration order.
    fn names() -> [Vec<&'static str>; 3] {
        [
            Counter::ALL.map(Counter::name).to_vec(),
            Gauge::ALL.map(Gauge::name).to_vec(),
            Hist::ALL.map(Hist::name).to_vec(),
        ]
    }

    #[test]
    fn names_are_unique_and_map_back_to_their_variant() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!(Counter::from_name(c.name()), Some(c));
            assert_eq!(Named::<Counter>::resolve(c.name()), c);
        }
        for (i, g) in Gauge::ALL.into_iter().enumerate() {
            assert_eq!(g as usize, i);
            assert_eq!(Gauge::from_name(g.name()), Some(g));
        }
        for (i, h) in Hist::ALL.into_iter().enumerate() {
            assert_eq!(h as usize, i);
            assert_eq!(Hist::from_name(h.name()), Some(h));
        }
        // Strictly ascending: unique within each kind, and a snapshot's
        // variant order is its name order.
        for kind in names() {
            for pair in kind.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "{} is not declared before {}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn no_name_is_in_two_kinds() {
        let mut all: Vec<_> = names().concat();
        let declared = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), declared, "a name is declared in two kinds");
    }

    /// The benchmark harness reads these four by name.
    #[test]
    fn the_names_the_benchmark_reads_resolve() {
        let r = MetricsRegistry::default();
        let read = [
            Counter::TeeWorldSwitch,
            Counter::TeeEpcFault,
            Counter::StoreLockAcquire,
            Counter::StoreLockContended,
        ];
        for (n, c) in (1..).zip(read) {
            r.counter_add(c, n);
        }
        let names = [
            "tee.world_switch",
            "tee.epc_fault",
            "store.lock_acquire",
            "store.lock_contended",
        ];
        for (n, name) in (1..).zip(names) {
            assert_eq!(r.counter(name), n, "{name}");
        }
    }

    #[test]
    #[should_panic(
        expected = "unknown metric \"store.lock_aquire\": declare it in treaty_obs::Counter"
    )]
    fn an_unknown_literal_fails_loudly() {
        let misspelt = "store.lock_aquire";
        MetricsRegistry::default().counter(misspelt);
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = MetricsRegistry::default();
        r.counter_add(Counter::StoreLockAcquire, 2);
        r.counter_add(Counter::StoreLockAcquire, 3);
        assert_eq!(r.counter(Counter::StoreLockAcquire), 5);
        assert_eq!(r.counter(Counter::StoreLockContended), 0);
        r.counter_add(Counter::TeePagingNs, u64::MAX);
        r.counter_add(Counter::TeePagingNs, 1);
        assert_eq!(r.counter(Counter::TeePagingNs), u64::MAX);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = MetricsRegistry::default();
        r.gauge_set(Gauge::FabricSent, 10);
        r.gauge_set(Gauge::FabricSent, 4);
        assert_eq!(r.snapshot().gauges[&Gauge::FabricSent], 4);
    }

    #[test]
    fn histogram_summary_is_exact_for_small_sets() {
        let r = MetricsRegistry::default();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            r.hist_record(Hist::CounterExchangeNs, v);
        }
        let s = &r.snapshot().hists[&Hist::CounterExchangeNs];
        assert_eq!(s.count(), 10);
        assert_eq!(s.sum(), 550);
        assert_eq!(s.min(), 10);
        assert_eq!(s.max(), 100);
        assert_eq!(s.mean(), 55);
        assert_eq!(s.quantile(0.50), 50);
        assert_eq!(s.quantile(0.99), 100);
    }

    /// Quantiles cover every sample, not an opening stretch: the second
    /// half of the run moves p99 although it starts past sample 65 536.
    #[test]
    fn histogram_quantiles_see_every_sample() {
        let r = MetricsRegistry::default();
        for _ in 0..65_536 {
            r.hist_record(Hist::CounterExchangeNs, 1_000);
        }
        for _ in 0..65_536 {
            r.hist_record(Hist::CounterExchangeNs, 9_000_000);
        }
        let s = &r.snapshot().hists[&Hist::CounterExchangeNs];
        let p99 = s.quantile(0.99);
        assert!(p99 >= 8_820_000, "p99 {p99} ignores the second half");
        assert_eq!(s.count(), 131_072);
        assert_eq!(s.sum(), 65_536 * 9_001_000);
        assert_eq!(s.min(), 1_000);
        assert_eq!(s.max(), 9_000_000);
    }

    #[test]
    fn snapshot_holds_touched_slots_in_name_order() {
        let r = MetricsRegistry::default();
        r.counter_add(Counter::TeeWorldSwitch, 1);
        r.counter_add(Counter::BenchAborted, 1);
        r.counter_add(Counter::CoreSnapshotReads, 0);
        let snap = r.snapshot();
        let keys: Vec<_> = snap.counters.keys().map(|c| c.name()).collect();
        assert_eq!(
            keys,
            ["bench.aborted", "core.snapshot_reads", "tee.world_switch"]
        );
        assert!(snap.gauges.is_empty() && snap.hists.is_empty());
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let r = MetricsRegistry::default();
            r.counter_add(Counter::StoreLockAcquire, 42);
            r.gauge_set(Gauge::CoreNodesCommitted, 7);
            r.hist_record(Hist::CounterSlotWaitNs, 10);
            r.hist_record(Hist::CounterSlotWaitNs, 30);
            r.snapshot().render()
        };
        assert_eq!(build(), build());
        assert_eq!(
            build(),
            format!(
                "counters:\n  {:<44} {:>14}\ngauges:\n  {:<44} {:>14}\n\
                 histograms (virtual ns):\n  {:<44} n=2 mean=20 p50=10 p99=30 max=30\n",
                "store.lock_acquire", 42, "core.nodes.committed", 7, "counter.slot_wait_ns"
            )
        );
    }
}
