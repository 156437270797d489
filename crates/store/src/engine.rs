//! [`TreatyStore`]: the per-node secure storage engine.
//!
//! Ties the MemTable, WAL, MANIFEST, SSTable levels, lock table and
//! transaction layer together, and implements crash recovery:
//! MANIFEST replay → SSTable hierarchy → live WAL replay (MemTable +
//! prepared transactions) with integrity and freshness verification at
//! every step (§VI).
//!
//! The commit path is pipelined: the group-commit leader only logs the
//! batch and *rotates* the MemTable/WAL generation under the commit lock;
//! each committer inserts its own versions after it; the expensive work —
//! SSTable builds and the compaction cascade — runs on a spawn-on-demand
//! maintenance daemon, with RocksDB-style slowdown/stop backpressure so
//! writers can outrun maintenance only by a bounded amount (and stall,
//! never error, at the hard cap). Outside the simulation runtime (plain
//! unit tests) there is no daemon, and the rotating leader drains the same
//! maintenance passes inline.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;
use std::path::PathBuf;
use std::rc::Rc;

use treaty_crypto::codec;
use treaty_crypto::codec::Record;
use treaty_sched::{FiberMutex, GroupCommit, WaitQueue};
use treaty_sim::crashpoint::CrashPoint;
use treaty_sim::obs::{Counter, Phase};
use treaty_sim::FiberCell;

use crate::env::Env;
use crate::locks::{LockTable, TxId};
use crate::log::{self, LogWriter};
use crate::memtable::{
    KeySpan, MemCursor, MemTable, RangeTombstone, SeqNum, UserKey, ValueEntry, VersionedEntry,
};
use crate::sstable::{self, SsTable, TableCursor};
use crate::txn::{GlobalTxId, Txn, TxnMode, WriteOp};
use crate::{Result, StoreError};

/// How long a lock request waits before it gives up: deadlock avoidance
/// by timeout.
pub(crate) const LOCK_TIMEOUT: treaty_sim::Nanos = 10 * treaty_sim::MILLIS;

/// Lock-table wait stripes: a release wakes the waiters of its key's
/// stripe only. The held keys are one ordered map; the paper's "big number
/// of shards" avoids lock bottlenecks between threads, and here one thread
/// runs the store.
pub(crate) const LOCK_SHARDS: usize = 1024;

/// A version's value as a read carries it: a MemTable entry whose value is
/// still sealed in host memory, or an SSTable's value, already opened with
/// its verified block (`None` = tombstone). The point descent and the merge
/// decide on keys and seqs, which the enclave holds, and open only what
/// they return.
enum Found {
    Mem(Rc<MemTable>, ValueEntry),
    Table(Option<Vec<u8>>),
}

impl Found {
    /// The value (`None` = tombstone). A MemTable value is decrypted and
    /// checked against its enclave-held digest here: the only place a read
    /// opens one. A table value is free.
    fn open(self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self {
            Found::Mem(mem, entry) => mem.open(key, &entry),
            Found::Table(value) => Ok(value),
        }
    }
}

/// Size ratio between consecutive levels of the SSTable hierarchy.
const LEVEL_SIZE_MULTIPLIER: u64 = 10;

/// MANIFEST edits: every change to the persistent-storage state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestEdit {
    /// A new WAL generation began.
    NewWal { gen: u64 },
    /// A WAL generation's effects are fully in SSTables; file deletable
    /// once this edit stabilizes.
    WalObsolete { gen: u64 },
    /// An SSTable joined a level.
    AddTable { level: usize, file_id: u64 },
    /// An SSTable left a level (compaction); file deletable once this edit
    /// stabilizes.
    RemoveTable { level: usize, file_id: u64 },
}

codec!(enum ManifestEdit {
    0 => NewWal { gen },
    1 => WalObsolete { gen },
    2 => AddTable { level, file_id },
    3 => RemoveTable { level, file_id },
});

impl Record for ManifestEdit {
    const MAGIC: u8 = 0x41;
}

/// WAL records.
///
/// `ranges` rides commits and prepares as `[start, end)` pairs — a range
/// delete is one record-sized entry no matter how many keys it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A committed transaction's writes.
    Commit {
        seq: SeqNum,
        writes: Vec<WriteOp>,
        ranges: Vec<(UserKey, UserKey)>,
    },
    /// A 2PC participant prepared this transaction (locks implied by the
    /// write set are re-acquired at recovery).
    Prepare {
        gtx: GlobalTxId,
        writes: Vec<WriteOp>,
        ranges: Vec<(UserKey, UserKey)>,
    },
    /// Decision for a previously prepared transaction.
    Decide {
        gtx: GlobalTxId,
        commit: bool,
        seq: SeqNum,
    },
}

codec!(enum WalRecord {
    0 => Commit { seq, writes, ranges },
    1 => Prepare { gtx, writes, ranges },
    2 => Decide { gtx, commit, seq },
});

impl Record for WalRecord {
    const MAGIC: u8 = 0x31;
}

pub(crate) struct PreparedState {
    pub writes: Vec<WriteOp>,
    /// Buffered range deletes (`[start, end)`), sequenced at decide time.
    pub ranges: Vec<(UserKey, UserKey)>,
    /// Every key this transaction holds locked: every key it locked, read
    /// locks included, until its commit point; from there to the decision
    /// its X keys alone, the write set plus the keys a pessimistic range
    /// delete locked (covered keys and the next-key gap bound). Recovery
    /// re-acquires only the write-set locks, so there this equals the
    /// write keys.
    pub lock_keys: Vec<UserKey>,
    pub lock_owner: TxId,
    /// A decision (commit or abort) is in flight for this transaction.
    /// The entry stays in the table — and its keys stay in-doubt for
    /// `overlaps` — until the decision's writes are applied, so snapshot
    /// validation can never pass in the window between "decided" and
    /// "visible" (that window includes WAL I/O and fiber yields).
    pub deciding: bool,
    /// The `Prepare` record is rollback-protected, so the participant may
    /// vouch for it. The entry exists from the moment the record is on
    /// disk — a rotation must re-log it — but it is listed by
    /// [`PreparedTable::ids`] and in doubt only once this is set.
    pub stable: bool,
}

/// The 2PC prepared-transaction table. One fiber runs at a time, so each
/// map sits in a `FiberCell`; both are ordered, so the span queries are
/// range reads and the listings come out sorted.
pub(crate) struct PreparedTable {
    txns: FiberCell<BTreeMap<GlobalTxId, PreparedState>>,
    /// In-doubt keys → how many prepared transactions write them, maintained
    /// on insert/remove so `overlaps` — called per key on the lock-free
    /// snapshot read and validate paths — is one lookup instead of a scan of
    /// every prepared write set, and a span query is one range read.
    key_index: FiberCell<BTreeMap<UserKey, usize>>,
    /// In-doubt range deletes `(owner, start, end)`. Prepared range
    /// deletes are rare, so a flat read-mostly list does; every snapshot
    /// read consults it (usually an empty-slice scan).
    ranges: FiberCell<Vec<(GlobalTxId, UserKey, UserKey)>>,
}

/// What a 2PC decision needs from the prepared entry it claims.
pub(crate) struct PreparedDecision {
    pub writes: Vec<WriteOp>,
    pub ranges: Vec<(UserKey, UserKey)>,
    pub lock_keys: Vec<UserKey>,
    pub lock_owner: TxId,
}

impl PreparedTable {
    pub fn new() -> Self {
        PreparedTable {
            txns: FiberCell::new(BTreeMap::new()),
            key_index: FiberCell::new(BTreeMap::new()),
            ranges: FiberCell::new(Vec::new()),
        }
    }

    /// Counts `writes`' keys into the in-doubt index. Runs *before* the
    /// entry is published so the index over-approximates: a key is never
    /// missing from it while its transaction is visible in the table.
    fn index_add(&self, writes: &[WriteOp]) {
        let mut index = self.key_index.borrow_mut();
        for w in writes {
            *index.entry(w.key.clone()).or_insert(0) += 1;
        }
    }

    /// Uncounts `writes`' keys; runs *after* the entry left the table.
    fn index_remove(&self, writes: &[WriteOp]) {
        let mut index = self.key_index.borrow_mut();
        for w in writes {
            if let Some(c) = index.get_mut(&w.key) {
                *c -= 1;
                if *c == 0 {
                    index.remove(&w.key);
                }
            }
        }
    }

    /// Puts `st`'s keys and ranges in doubt; runs before the entry shows
    /// as stable in the table (see [`PreparedTable::index_add`]).
    fn index_entry(&self, gtx: GlobalTxId, st: &PreparedState) {
        self.index_add(&st.writes);
        let mut ranges = self.ranges.borrow_mut();
        ranges.retain(|(g, _, _)| *g != gtx);
        for (s, e) in &st.ranges {
            ranges.push((gtx, s.clone(), e.clone()));
        }
    }

    /// Enters `st`. Only a stable entry is in doubt — indexed for
    /// `overlaps` and the span queries: a transaction whose vote is not out
    /// cannot have committed on any shard.
    pub fn insert(&self, gtx: GlobalTxId, st: PreparedState) {
        if st.stable {
            self.index_entry(gtx, &st);
        }
        if let Some(old) = self.txns.borrow_mut().insert(gtx, st) {
            if old.stable {
                self.index_remove(&old.writes);
            }
        }
    }

    pub fn remove(&self, gtx: &GlobalTxId) -> Option<PreparedState> {
        let st = self.txns.borrow_mut().remove(gtx);
        if let Some(st) = st.as_ref().filter(|st| st.stable) {
            self.index_remove(&st.writes);
            if !st.ranges.is_empty() {
                self.ranges.borrow_mut().retain(|(g, _, _)| g != gtx);
            }
        }
        st
    }

    /// Claims a prepared transaction for its 2PC decision: marks it
    /// `deciding` and returns a copy of its state, leaving the entry in
    /// the table (and its keys in-doubt) until the `Decide` is logged and
    /// its writes are in the MemTable; then [`PreparedTable::remove`] —
    /// the leader's for an abort, the decider's own for a commit.
    /// Returns `None` if the transaction is unknown or already claimed —
    /// decisions are idempotent, so callers treat that as "nothing to do".
    pub fn begin_decide(&self, gtx: &GlobalTxId) -> Option<PreparedDecision> {
        let mut txns = self.txns.borrow_mut();
        let st = txns.get_mut(gtx)?;
        if st.deciding {
            return None;
        }
        st.deciding = true;
        Some(PreparedDecision {
            writes: st.writes.clone(),
            ranges: st.ranges.clone(),
            lock_keys: st.lock_keys.clone(),
            lock_owner: st.lock_owner,
        })
    }

    /// Releases a claim after a failed decision attempt (WAL append
    /// error), so recovery can retry the decision later. `false` when the
    /// entry is gone: the `Decide` was logged and took effect after all.
    pub fn cancel_decide(&self, gtx: &GlobalTxId) -> bool {
        self.txns
            .borrow_mut()
            .get_mut(gtx)
            .map(|st| st.deciding = false)
            .is_some()
    }

    /// Marks `gtx`'s `Prepare` record rollback-protected: from here the
    /// entry is listed by [`PreparedTable::ids`] and its keys are in doubt.
    /// In place, so a rotation's re-log cannot miss it. `false` when an
    /// abort that raced the counter round has claimed or retired the entry.
    pub fn mark_stable(&self, gtx: &GlobalTxId) -> bool {
        let mut txns = self.txns.borrow_mut();
        let Some(st) = txns.get_mut(gtx).filter(|st| !st.deciding) else {
            return false;
        };
        self.index_entry(*gtx, st);
        st.stable = true;
        true
    }

    /// The commit point of `gtx` (`TxnEngine::release_prepared_reads`):
    /// drops the keys a stable, undeciding entry holds only in S mode, and
    /// keeps the rest as its `lock_keys` for the decision to release.
    pub fn release_reads(&self, gtx: &GlobalTxId, locks: &LockTable) {
        let mut txns = self.txns.borrow_mut();
        if let Some(st) = txns.get_mut(gtx).filter(|st| st.stable && !st.deciding) {
            st.lock_keys = locks.release_shared(st.lock_owner, std::mem::take(&mut st.lock_keys));
        }
    }

    /// Every transaction whose `Prepare` record is stable, sorted by id:
    /// recovery resolves them (sends, seq allocations) in this order.
    pub fn ids(&self) -> Vec<GlobalTxId> {
        let txns = self.txns.borrow();
        let stable = txns.iter().filter(|(_, st)| st.stable);
        stable.map(|(g, _)| *g).collect()
    }

    /// Every entry's writes, stable or not, sorted by id: a WAL rotation
    /// re-logs them in this order.
    pub fn snapshot_writes(&self) -> Vec<(GlobalTxId, Vec<WriteOp>, Vec<KeySpan>)> {
        self.txns
            .borrow()
            .iter()
            .map(|(g, st)| (*g, st.writes.clone(), st.ranges.clone()))
            .collect()
    }

    /// Whether any prepared (in-doubt) transaction writes `key` — one
    /// lookup against the maintained key index, plus a scan of the (rare)
    /// in-doubt range deletes.
    pub fn overlaps(&self, key: &[u8]) -> bool {
        if self.key_index.borrow().contains_key(key) {
            return true;
        }
        self.ranges
            .borrow()
            .iter()
            .any(|(_, s, e)| s.as_slice() <= key && key < e.as_slice())
    }

    /// Whether any prepared transaction writes a key inside `[start, end)`
    /// or holds a range delete intersecting it. Used by snapshot scans:
    /// a prepared *insert* into the span would be invisible to a per-key
    /// check over the scan's results, so the whole span must be vetted.
    pub fn overlaps_span(&self, start: &[u8], end: &[u8]) -> bool {
        if self
            .ranges
            .borrow()
            .iter()
            .any(|(_, s, e)| s.as_slice() < end && e.as_slice() > start)
        {
            return true;
        }
        span_bounds(start, end).is_some_and(|span| {
            self.key_index
                .borrow()
                .range::<[u8], _>(span)
                .next()
                .is_some()
        })
    }
}

/// `BTreeMap::range` bounds over borrowed keys.
type SpanBounds<'a> = (Bound<&'a [u8]>, Bound<&'a [u8]>);

/// `[start, end)` as `BTreeMap::range` bounds over borrowed keys; `None` for
/// an empty or inverted span (`range` panics on the latter).
fn span_bounds<'a>(start: &'a [u8], end: &'a [u8]) -> Option<SpanBounds<'a>> {
    (start < end).then_some((Bound::Included(start), Bound::Excluded(end)))
}

/// The node's **stable read timestamp** (§V, read-only transactions): the
/// highest sequence number such that *every* commit with seq ≤ it is both
/// applied to the read path and durability-protected (its WAL prepare
/// record stabilized before the participant ACKed, or its own commit
/// record stabilized against the trusted counter). Snapshot reads at or
/// below this frontier never see a torn or rollback-vulnerable state, and
/// never need the lock table.
///
/// Sequence numbers are dense (assigned only on commit paths), so the
/// frontier advances by closing contiguous gaps: out-of-order stabilizers
/// park in `pending` until the hole before them fills.
pub(crate) struct StableFrontier {
    state: FiberCell<FrontierState>,
}

struct FrontierState {
    frontier: u64,
    pending: BTreeSet<u64>,
}

impl StableFrontier {
    pub fn new(start: u64) -> Self {
        StableFrontier {
            state: FiberCell::new(FrontierState {
                frontier: start,
                pending: BTreeSet::new(),
            }),
        }
    }

    /// Marks `seq` applied-and-stable, advancing the contiguous frontier.
    pub fn record(&self, seq: u64) {
        let mut st = self.state.borrow_mut();
        let inner = &mut *st;
        if seq <= inner.frontier {
            return;
        }
        inner.pending.insert(seq);
        while inner.pending.remove(&(inner.frontier + 1)) {
            inner.frontier += 1;
        }
    }

    /// The current frontier.
    pub fn get(&self) -> u64 {
        self.state.borrow().frontier
    }
}

/// Engine statistics (monotonic counters), kept in the store's [`Env`]; the
/// block cache's two are copied in from its [`crate::BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted/rolled-back transactions.
    pub aborts: u64,
    /// Point reads served.
    pub gets: u64,
    /// MemTable flushes.
    pub flushes: u64,
    /// Compaction rounds run, whether they moved tables, merged them or
    /// both.
    pub compactions: u64,
    /// Tables compaction moved a level down with one MANIFEST edit,
    /// rewriting no byte.
    pub tables_moved: u64,
    /// Bytes of the tables compaction merges wrote: its write
    /// amplification, which moves do not add to.
    pub compaction_bytes_written: u64,
    /// Files deleted by stabilization-gated GC.
    pub files_deleted: u64,
    /// Group-commit batches written.
    pub group_commits: u64,
    /// Records (`Commit`, `Prepare`, `Decide`) carried per group-commit
    /// batch, cumulative.
    pub grouped_txns: u64,
    /// Point-read block fetches served from the trusted block cache.
    pub block_cache_hits: u64,
    /// Point-read block fetches that went to (untrusted) storage.
    pub block_cache_misses: u64,
    /// Lookups short-circuited by a per-table Bloom filter.
    pub bloom_negatives: u64,
    /// Lookups a Bloom filter let through although the key was absent.
    pub bloom_false_positives: u64,
    /// Lookups rejected by fence keys alone (no block read, no Bloom
    /// statement) — counted apart from false positives so the reported
    /// FPR reflects the filter, not the index.
    pub fence_gap_rejects: u64,
    /// Range scans served (locked and snapshot).
    pub scans: u64,
    /// MemTable seeks by span passes: one per MemTable a pass reached.
    pub memtable_seeks: u64,
}

/// A transaction's versions on their way into a MemTable: its sequence
/// number, point writes and range deletes (`[start, end)`).
pub(crate) type Versions = (SeqNum, Vec<WriteOp>, Vec<(UserKey, UserKey)>);

/// What logging a record does. The group-commit leader runs the
/// `PreparedTable` half under the commit lock, in the turn that wrote the
/// batch — where rotations run too, so a rotation sees a `Prepare` and its
/// entry together or not at all. Versions are inserted by their owner, once
/// the batch is durable and off the lock, into the MemTable that was live
/// at the append (see [`Insert`]).
pub(crate) enum Effect {
    /// `Commit`: the owner inserts the versions.
    Apply(Versions),
    /// `Prepare`: the leader enters the entry in the [`PreparedTable`].
    Prepare(GlobalTxId, PreparedState),
    /// `Decide`: a commit's owner inserts the versions, then removes the
    /// claimed entry — its keys stay in doubt until they are visible; an
    /// abort's entry is removed by the leader.
    Decide(GlobalTxId, Option<Versions>),
}

/// A request on the store's commit queue.
enum CommitReq {
    /// A WAL record and what logging it does.
    Log(Vec<u8>, Effect),
    /// A rotation, run before the batch is written: of this MemTable if it
    /// is still the live one (its budget was crossed), of whatever is live
    /// when `None` (a forced flush).
    Rotate(Option<Rc<MemTable>>),
}

/// What a carried request learns: a record, its counter, the WAL
/// generation it landed in and the insert it owes; a rotation (`None`),
/// whether it ran clean.
type Carried = Result<Option<Logged>>;

struct Logged {
    counter: u64,
    wal: Rc<LogWriter>,
    insert: Option<Insert>,
}

/// The versions a `Commit` or commit `Decide` owes once its batch is
/// durable, and the MemTable they go into. From the leader's hand-out until
/// it drops — after the insert, or on an unwind — the claim is counted in
/// `StoreInner::applies_in_flight`, which a rotation waits to see at zero:
/// a frozen MemTable never gains an entry.
struct Insert {
    inner: Rc<StoreInner>,
    mem: Rc<MemTable>,
    versions: Versions,
    /// A `Decide`'s claimed entry, removed once the versions are in.
    decided: Option<GlobalTxId>,
}

impl Insert {
    /// The leader's hand-out, under the commit lock: `mem` is live.
    fn new(
        inner: &Rc<StoreInner>,
        mem: &Rc<MemTable>,
        versions: Versions,
        decided: Option<GlobalTxId>,
    ) -> Self {
        inner.applies_in_flight.update(|n| n + 1);
        Insert {
            inner: Rc::clone(inner),
            mem: Rc::clone(mem),
            versions,
            decided,
        }
    }

    /// The owner's half, off the commit lock: the versions go in, the
    /// epoch moves, and only then does a `Decide`'s entry leave the table.
    fn apply(self) {
        apply_versions(&self.mem, &self.versions);
        // Only what reached the MemTable moves the epoch: a `Prepare`
        // bumping it would send every scan fence into its re-pass.
        self.inner.apply_epoch.update(|n| n + 1);
        if let Some(gtx) = &self.decided {
            self.inner.prepared.remove(gtx);
        }
    }
}

impl Drop for Insert {
    fn drop(&mut self) {
        let in_flight = self.inner.applies_in_flight.get() - 1;
        self.inner.applies_in_flight.set(in_flight);
        if in_flight == 0 {
            self.inner.applies_drained.notify_all();
        }
    }
}

/// Inserts a transaction's versions. Same-seq point writes win over the
/// transaction's own range deletes (tombstones shadow strictly-older seqs
/// only), so the order within one transaction is free.
fn apply_versions(mem: &MemTable, (seq, writes, ranges): &Versions) {
    for w in writes {
        match &w.value {
            Some(v) => mem.put(&w.key, *seq, v),
            None => mem.delete(&w.key, *seq),
        }
    }
    for (start, end) in ranges {
        mem.delete_range(start, end, *seq);
    }
}

/// A rotated-out MemTable awaiting its SSTable build, plus the WAL
/// generations it covers (retired once the L0 table is published).
#[derive(Clone)]
struct FlushWork {
    frozen: Rc<MemTable>,
    old_gens: Vec<u64>,
}

/// One [`TreatyStore::fenced_pass`] over a span.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FencedSpan {
    pub rows: Vec<(UserKey, Vec<u8>)>,
    pub present: Vec<UserKey>,
    pub bound: UserKey,
}

pub(crate) struct StoreInner {
    pub env: Rc<Env>,
    mem: FiberCell<Rc<MemTable>>,
    /// The SSTable hierarchy, published copy-on-write: readers snapshot the
    /// `Rc` (one refcount bump per read), structural writers (flush
    /// builds, compaction — serialized by the maintenance lock) build a
    /// new vector and swap it in. Readers that raced a compaction keep the old snapshot,
    /// whose tables stay alive (and on disk, GC being stabilization-gated)
    /// until the last reference drops.
    levels: FiberCell<Rc<Vec<Vec<Rc<SsTable>>>>>,
    wal: FiberCell<Rc<LogWriter>>,
    wal_gen: Cell<u64>,
    manifest: Rc<LogWriter>,
    pub seq: Cell<u64>,
    next_file_id: Cell<u64>,
    pub next_txid: Cell<u64>,
    pub locks: LockTable,
    pub prepared: PreparedTable,
    /// The stable read timestamp served to lock-free snapshot readers.
    pub frontier: StableFrontier,
    /// Snapshot reads below this seq are refused: a compaction keeps only
    /// the newest version of each key, so an older snapshot could quietly
    /// miss the version it should see. Raised to the newest seq a
    /// compaction merged *before* its outputs are published.
    snapshot_floor: Cell<u64>,
    /// The commit lock — whoever holds it owns the live WAL, the MemTable
    /// swap and the `PreparedTable`'s membership — and the requests queued
    /// for its next holder.
    commits: GroupCommit<CommitReq, Carried>,
    /// [`Insert`]s handed out by a group-commit leader and not yet dropped.
    applies_in_flight: Cell<u64>,
    /// Woken when `applies_in_flight` falls to zero.
    applies_drained: WaitQueue,
    /// (manifest counter that must stabilize, path) — deferred deletions.
    pending_gc: FiberCell<Vec<(u64, PathBuf)>>,
    /// WAL generations whose contents are still only in the MemTable.
    live_wal_gens: FiberCell<Vec<u64>>,
    /// MemTables rotated out of the write path but not yet built into L0
    /// tables, newest first — still part of the read path.
    frozen: FiberCell<Vec<Rc<MemTable>>>,
    /// Flush builds queued for the maintenance daemon (FIFO). Entries are
    /// popped only after the build succeeds, so a failed build retries.
    flush_backlog: FiberCell<VecDeque<FlushWork>>,
    /// Serializes flush builds and compactions between the maintenance
    /// daemon and synchronous drains (forced flush, shutdown, tests).
    maintenance_lock: FiberMutex,
    /// Guards the spawn-on-demand maintenance daemon (one at a time).
    maintenance_running: Cell<bool>,
    /// Guards the background MANIFEST-stabilization fiber (one at a time).
    gc_stabilizing: Cell<bool>,
    /// Pessimistic scans currently holding next-key locks. Inserts only pay
    /// the successor-lookup gap lock while this is non-zero, so workloads
    /// that never scan keep their point-write fast path.
    pub(crate) active_scans: Cell<u64>,
    /// Bumped whenever a transaction's versions became present in the
    /// MemTable — after the insert, before the writer releases its locks.
    /// A pessimistic scan that reads the same value before its pass and
    /// after its last lock grant knows no version slipped in between.
    apply_epoch: Cell<u64>,
}

/// The per-node Treaty storage engine. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct TreatyStore {
    pub(crate) inner: Rc<StoreInner>,
}

impl std::fmt::Debug for TreatyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreatyStore")
            .field("dir", &self.inner.env.dir)
            .finish_non_exhaustive()
    }
}

fn wal_name(gen: u64) -> String {
    format!("wal-{gen:06}")
}

impl TreatyStore {
    /// Opens the store in `env.dir`: a fresh store is the recovery of an
    /// absent MANIFEST, with the same files, edits and charges.
    ///
    /// # Errors
    ///
    /// Returns integrity/rollback errors if the persistent state fails
    /// verification, and I/O errors if the directory is unusable.
    pub fn open(env: Rc<Env>) -> Result<Self> {
        std::fs::create_dir_all(&env.dir)?;
        Self::recover(env)
    }

    /// The environment this store runs in.
    pub fn env(&self) -> &Rc<Env> {
        &self.inner.env
    }

    /// Begins a transaction under `mode`'s concurrency control.
    pub fn begin_mode(&self, mode: TxnMode) -> Txn {
        Txn::new(self.clone(), mode)
    }

    /// Reads the latest committed value of `key` outside any transaction.
    ///
    /// # Errors
    ///
    /// Propagates integrity violations from storage verification.
    pub fn get_committed(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.read(key, SeqNum::MAX)?.1)
    }

    /// The counts behind [`TreatyStore::stats`], kept in the [`Env`]. The
    /// guard must drop before the fiber yields.
    pub(crate) fn count(&self) -> treaty_sim::cell::FiberRefMut<'_, EngineStats> {
        self.inner.env.stats.borrow_mut()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let env = &self.inner.env;
        let (block_cache_hits, block_cache_misses) = env
            .block_cache
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()));
        EngineStats {
            block_cache_hits,
            block_cache_misses,
            ..*env.stats.borrow()
        }
    }

    /// File ids of every SSTable currently published in the hierarchy
    /// (test introspection for cache-invalidation coverage).
    pub fn live_file_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .level_tables()
            .iter()
            .flatten()
            .map(|t| t.meta().file_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The published SSTable hierarchy: each level's tables in the order
    /// reads visit them (test introspection for the level invariants).
    pub fn level_tables(&self) -> Rc<Vec<Vec<Rc<SsTable>>>> {
        Rc::clone(&*self.inner.levels.borrow())
    }

    /// Number of keys currently held in the 2PC lock table, across all
    /// stripes. The snapshot-read fault cell asserts this returns to zero
    /// after a crash mid read-only transaction: the lock-free path has no
    /// locks to leak.
    pub fn locked_keys(&self) -> usize {
        self.inner.locks.locked_keys()
    }

    /// Memtables sealed and waiting for the flush daemon — the write-path
    /// backlog the OBS_SNAPSHOT introspection RPC reports live.
    pub fn flush_backlog_len(&self) -> usize {
        self.inner.flush_backlog.borrow().len()
    }

    /// Current commit-backpressure level without paying the stall:
    /// 0 = clear, 1 = past the slowdown trigger, 2 = past the stop
    /// trigger, as `commit_backpressure` reads the pressure.
    pub fn backpressure_level(&self) -> u8 {
        let cfg = &self.inner.env.config;
        let pressure = self.pressure();
        if pressure >= cfg.l0_stop_trigger {
            2
        } else if pressure >= cfg.l0_slowdown_trigger {
            1
        } else {
            0
        }
    }

    /// Write pressure: the flush backlog plus the L0 file count.
    fn pressure(&self) -> usize {
        self.inner.flush_backlog.borrow().len() + self.inner.levels.borrow()[0].len()
    }

    // ---- read path ---------------------------------------------------------

    /// The one point descent: the newest version of `key` visible at
    /// `snapshot` and its seq, or `None` if no source holds one. A range
    /// delete is a version of every key it covers, so a covering tombstone
    /// newer than the point version reads as a delete at its own seq —
    /// what OCC validation must see change. Pin order: the live MemTable
    /// is looked up before the frozen list is cloned, and the levels are
    /// cloned after both.
    fn newest(&self, key: &[u8], snapshot: SeqNum) -> Result<Option<(SeqNum, Found)>> {
        // Bind the Rc first: as an `if let` scrutinee temporary the borrow
        // would live across the charging lookup, which panics.
        let mem = self.inner.mem.borrow().clone();
        if let Some((seq, entry)) = mem.newest(key, snapshot) {
            return Ok(Some((seq, Found::Mem(mem, entry))));
        }
        // Frozen MemTables awaiting their background build, newest first.
        // Snapshot the list (Rc clones) before reading: a lookup charges
        // virtual time, and borrows must not be held across a yield.
        let frozen: Vec<Rc<MemTable>> = self.inner.frozen.borrow().clone();
        for m in frozen {
            if let Some((seq, entry)) = m.newest(key, snapshot) {
                return Ok(Some((seq, Found::Mem(m, entry))));
            }
        }
        // One refcount bump, not a deep copy of the level vectors.
        let levels = Rc::clone(&*self.inner.levels.borrow());
        // `shadow` carries the newest covering range tombstone seen so far
        // down the descent. L0's tables overlap, so each is probed and the
        // newest version wins; below L0 the first table covering the key
        // decides its level. The first level that answers ends the descent.
        let mut shadow: SeqNum = 0;
        let mut best: Option<(SeqNum, Option<Vec<u8>>)> = None;
        for (depth, level) in levels.iter().enumerate() {
            for t in level {
                if depth > 0 && !t.covers(key) {
                    continue;
                }
                if let Some(s) = t.covering_tombstone_seq(key, snapshot) {
                    shadow = shadow.max(s);
                }
                if let Some((s, v)) = t.newest(key, snapshot)? {
                    if best.as_ref().is_none_or(|(bs, _)| s > *bs) {
                        best = Some((s, v));
                    }
                }
                if depth > 0 {
                    break;
                }
            }
            if best.is_some() || shadow > 0 {
                break;
            }
        }
        // A tombstone shadows every strictly older point version; a
        // same-seq point write beats its own transaction's range delete.
        Ok(match best {
            Some((s, v)) if s >= shadow => Some((s, Found::Table(v))),
            _ => (shadow > 0).then_some((shadow, Found::Table(None))),
        })
    }

    /// Reads `key` at `snapshot`: the newest version's seq (0 if the key
    /// has none) and its value (`None` if absent or deleted).
    pub(crate) fn read(&self, key: &[u8], snapshot: SeqNum) -> Result<(SeqNum, Option<Vec<u8>>)> {
        let _span = treaty_sim::obs::span(Phase::StoreGet);
        self.count().gets += 1;
        Ok(match self.newest(key, snapshot)? {
            None => (0, None),
            Some((seq, found)) => (seq, found.open(key)?),
        })
    }

    /// The newest committed sequence for `key` (0 if the key has never been
    /// written) — the version OCC validation compares against. No value is
    /// read.
    pub(crate) fn latest_seq(&self, key: &[u8]) -> Result<SeqNum> {
        Ok(self.newest(key, SeqNum::MAX)?.map_or(0, |(seq, _)| seq))
    }

    // ---- snapshot reads (lock-free MVCC, read-only transactions) -----------

    /// The node's stable read timestamp: the highest version every commit
    /// at or below which is applied and durability-protected. Snapshot
    /// reads at this timestamp are consistent without any locking.
    pub fn stable_ts(&self) -> SeqNum {
        self.inner.frontier.get()
    }

    /// Lock-free snapshot read of `key` at version `ts`: serves from the
    /// MemTable backlog and the copy-on-write level snapshots, verifying
    /// block integrity exactly like locked reads — but never touching the
    /// lock table.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotStale`] when `ts` runs ahead of this node's
    /// stable timestamp or has fallen below the snapshot floor (the caller
    /// refreshes and retries);
    /// [`StoreError::SnapshotInDoubt`] when an undecided prepared
    /// transaction writes `key` (its commit may already be visible on
    /// another shard, so reading around it could tear a transaction);
    /// plus the usual integrity errors from storage verification.
    pub fn snapshot_get(&self, key: &[u8], ts: SeqNum) -> Result<Option<Vec<u8>>> {
        self.check_snapshot_ts(ts)?;
        if self.inner.prepared.overlaps(key) {
            return Err(StoreError::SnapshotInDoubt);
        }
        let value = self.read(key, ts)?.1;
        self.check_snapshot_ts(ts)?;
        Ok(value)
    }

    /// Whether a snapshot at `ts` can be served: not ahead of the stable
    /// frontier, not below the snapshot floor. Snapshot reads ask before
    /// *and* after the read: the level list is pinned mid-read, a
    /// compaction may publish in between, and it raises the floor before
    /// it publishes — so the second check sees it.
    fn check_snapshot_ts(&self, ts: SeqNum) -> Result<()> {
        let stable = self.inner.frontier.get();
        if ts > stable || ts < self.inner.snapshot_floor.get() {
            return Err(StoreError::SnapshotStale { stable });
        }
        Ok(())
    }

    /// Validates that a snapshot read of `key` at `ts` is still the latest
    /// word on that key: no newer committed version landed and no prepared
    /// transaction is about to write it. Multi-shard read-only
    /// transactions run this once per shard at the end; a `false` means
    /// the snapshot may span a commit (torn read) and must retry.
    ///
    /// # Errors
    ///
    /// Propagates integrity violations from the version lookup.
    pub fn snapshot_validate(&self, key: &[u8], ts: SeqNum) -> Result<bool> {
        if self.inner.prepared.overlaps(key) {
            return Ok(false);
        }
        Ok(self.latest_seq(key)? <= ts)
    }

    /// Whether a snapshot scan of `[start, end)` at `ts` is still current:
    /// no key in the span has any newer version (point write, point delete
    /// or range tombstone), and no undecided prepare touches the span. The
    /// span analogue of [`TreatyStore::snapshot_validate`] — per-key
    /// validation cannot catch a key *inserted* into a scanned span after
    /// the snapshot (a phantom), so multi-shard snapshot scans validate
    /// the span itself.
    ///
    /// # Errors
    ///
    /// Integrity violations from the span walk.
    pub fn snapshot_validate_span(&self, start: &[u8], end: &[u8], ts: SeqNum) -> Result<bool> {
        if self.inner.prepared.overlaps_span(start, end) {
            return Ok(false);
        }
        let mut max_seq: SeqNum = 0;
        let tomb_seq = self.merge_scan(
            start,
            Some(end),
            SeqNum::MAX,
            |_key, seq, _value, shadow| {
                max_seq = max_seq.max(seq.max(shadow));
                Ok(max_seq <= ts) // the first newer version already decides
            },
        )?;
        // A range tombstone over a currently-empty part of the span is a
        // change too (it deleted what the snapshot saw) but surfaces no
        // per-key shadow above — hence the merge's own tombstone seq.
        Ok(max_seq.max(tomb_seq) <= ts)
    }

    // ---- authenticated range scans (merge iterator, §V-B) ------------------

    /// Scans `[start, end)` at `snapshot`, returning up to `limit` visible
    /// key/value pairs in key order (`limit == 0` = unbounded). The merge
    /// runs over the active MemTable, the frozen backlog and the COW level
    /// snapshot through verified cursors: fence-key continuity makes a
    /// spliced, truncated or reordered block range a
    /// [`StoreError::Integrity`], and range tombstones from every source
    /// shadow the strictly-older versions they cover.
    ///
    /// # Errors
    ///
    /// Integrity violations from block verification or cursor continuity
    /// checks.
    pub fn scan(
        &self,
        start: &[u8],
        end: &[u8],
        snapshot: SeqNum,
        limit: usize,
    ) -> Result<Vec<(UserKey, Vec<u8>)>> {
        let mut out = Vec::new();
        self.merge_scan(start, Some(end), snapshot, |key, seq, value, shadow| {
            // Same-seq point writes beat their transaction's range delete.
            if seq >= shadow {
                if let Some(v) = value.open(&key)? {
                    out.push((key, v));
                }
            }
            Ok(limit == 0 || out.len() < limit)
        })?;
        Ok(out)
    }

    /// Lock-free snapshot scan of `[start, end)` at version `ts` — the
    /// range analogue of [`TreatyStore::snapshot_get`]. The whole span is
    /// vetted against in-doubt prepares (a prepared *insert* into the span
    /// would be invisible to any per-result check), before and after the
    /// merge so a decision racing the scan cannot tear it.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotStale`] when `ts` runs ahead of the stable
    /// frontier or has fallen below the snapshot floor;
    /// [`StoreError::SnapshotInDoubt`] when an undecided prepare
    /// touches the span; plus integrity errors from verification.
    pub fn snapshot_scan(
        &self,
        start: &[u8],
        end: &[u8],
        ts: SeqNum,
        limit: usize,
    ) -> Result<Vec<(UserKey, Vec<u8>)>> {
        self.check_snapshot_ts(ts)?;
        if self.inner.prepared.overlaps_span(start, end) {
            return Err(StoreError::SnapshotInDoubt);
        }
        let out = self.scan(start, end, ts, limit)?;
        if self.inner.prepared.overlaps_span(start, end) {
            return Err(StoreError::SnapshotInDoubt);
        }
        self.check_snapshot_ts(ts)?;
        Ok(out)
    }

    /// The smallest user key `>= from` present in any source — live,
    /// deleted or shadowed versions all count, because next-key locking
    /// fences gaps on key *presence*, not visibility. `None` means the
    /// store ends before `from` (callers lock the EOF sentinel instead).
    ///
    /// # Errors
    ///
    /// Integrity violations from block verification.
    pub fn successor_key(&self, from: &[u8]) -> Result<Option<UserKey>> {
        let mut found = None;
        self.merge_scan(from, None, SeqNum::MAX, |key, _seq, _value, _shadow| {
            found = Some(key);
            Ok(false)
        })?;
        Ok(found)
    }

    /// The store's apply epoch (see `StoreInner::apply_epoch`).
    pub(crate) fn apply_epoch(&self) -> u64 {
        self.inner.apply_epoch.get()
    }

    /// Everything a span fence over `[start, end)` needs, from one merge
    /// pass: the visible rows (up to `limit`, `0` = unbounded), every key
    /// *present* up to the last row returned — visible, point-deleted or
    /// tombstone-shadowed alike — and the gap bound: the first key present
    /// past them (past `end` when the span was not cut short by `limit`),
    /// or the EOF sentinel when the store ends first. Locking `present`
    /// plus `bound` fences exactly what `rows` claims (S for a scan, X for
    /// a range delete).
    ///
    /// # Errors
    ///
    /// Integrity violations from block verification.
    pub(crate) fn fenced_pass(&self, start: &[u8], end: &[u8], limit: usize) -> Result<FencedSpan> {
        let mut span = FencedSpan {
            rows: Vec::new(),
            present: Vec::new(),
            bound: crate::locks::EOF_SENTINEL.to_vec(),
        };
        let mut full = false;
        self.merge_scan(start, None, SeqNum::MAX, |key, seq, value, shadow| {
            if full || key.as_slice() >= end {
                span.bound = key;
                return Ok(false);
            }
            span.present.push(key.clone());
            // Same-seq point writes beat their transaction's range delete.
            if seq >= shadow {
                if let Some(v) = value.open(&key)? {
                    span.rows.push((key, v));
                    full = limit > 0 && span.rows.len() == limit;
                }
            }
            Ok(true)
        })?;
        Ok(span)
    }

    /// Blocks until every record written to the live WAL so far is
    /// rollback-protected: what a transaction read from this store can
    /// then no longer be rolled back under it (a record still being
    /// written has applied nothing yet). Free on an idle WAL.
    pub(crate) fn stabilize_wal_tail(&self) -> Result<()> {
        let wal = self.inner.wal.borrow().clone();
        let last = wal.written_counter();
        if last <= wal.stable_counter() {
            return Ok(());
        }
        stabilize_traced(&wal, last)
    }

    /// The authenticated merge under every span read: pins the active
    /// MemTable, the frozen backlog and the COW level snapshot, gives one
    /// verified cursor to each source overlapping `[start, end)` — none
    /// reads until the lazy [`merge_newest`] reaches it — and runs the
    /// merge over them with the range tombstones in the span. `visit` gets
    /// each value sealed and opens those it returns. Returns the newest of
    /// those tombstones' seqs (0 = none).
    fn merge_scan<F>(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        snapshot: SeqNum,
        visit: F,
    ) -> Result<SeqNum>
    where
        F: FnMut(UserKey, SeqNum, Found, SeqNum) -> Result<bool>,
    {
        let _span = treaty_sim::obs::span(Phase::StoreScan);
        self.count().scans += 1;
        // Pin a consistent view: Rc bumps, no copies. Tables retired by a
        // racing compaction stay alive (and on disk — GC is
        // stabilization-gated) until these references drop.
        let mem = self.inner.mem.borrow().clone();
        let frozen: Vec<Rc<MemTable>> = self.inner.frozen.borrow().clone();
        let levels = Rc::clone(&*self.inner.levels.borrow());

        // Range tombstones intersecting the span, from every source. Seqs
        // are global, so one flat set shadows correctly across levels.
        let in_span = |rt: &RangeTombstone| {
            rt.seq <= snapshot
                && rt.end.as_slice() > start
                && end.map(|e| rt.start.as_slice() < e).unwrap_or(true)
        };
        let mut tombs: Vec<RangeTombstone> = Vec::new();
        tombs.extend(mem.range_tombstones().into_iter().filter(in_span));
        for m in &frozen {
            tombs.extend(m.range_tombstones().into_iter().filter(in_span));
        }

        let mut sources: Vec<ScanSource> = Vec::new();
        sources.push(ScanSource::Mem(mem.range_cursor(start, end)));
        for m in &frozen {
            sources.push(ScanSource::Mem(m.range_cursor(start, end)));
        }
        for t in levels.iter().flatten() {
            let overlaps = t.meta().max_key.as_slice() >= start
                && end.map(|e| t.meta().min_key.as_slice() < e).unwrap_or(true);
            if !overlaps {
                continue;
            }
            tombs.extend(
                t.meta()
                    .range_tombstones
                    .iter()
                    .filter(|rt| in_span(rt))
                    .cloned(),
            );
            sources.push(ScanSource::Table(t.range_cursor(start, true)));
        }
        merge_newest(&mut sources, &tombs, end, snapshot, visit)?;
        Ok(tombs.iter().map(|rt| rt.seq).max().unwrap_or(0))
    }

    // ---- commit path (group commit, §VII-B) --------------------------------

    /// Durably commits a write set: WAL append (group-batched across
    /// concurrent committers), MemTable apply, flush/compaction when due.
    /// Returns `(seq, wal_counter, wal)`; the caller decides when to
    /// stabilize — against the *same* WAL generation the record landed in
    /// (a rotation may have happened since).
    pub(crate) fn commit_writes(
        &self,
        seq: SeqNum,
        writes: &[WriteOp],
        ranges: &[(UserKey, UserKey)],
    ) -> Result<(SeqNum, u64, Rc<LogWriter>)> {
        let rec = WalRecord::Commit {
            seq,
            writes: writes.to_vec(),
            ranges: ranges.to_vec(),
        };
        let versions = (seq, writes.to_vec(), ranges.to_vec());
        self.commit_backpressure();
        let (counter, wal) = self.group_commit(&rec, Effect::Apply(versions))?;
        // The commit is in the WAL and the MemTable but not yet acked to
        // the caller — recovery must replay it from the log alone.
        treaty_sim::crashpoint::hit(CrashPoint::StoreCommitLogged);
        self.count().commits += 1;
        Ok((seq, counter, wal))
    }

    /// The one way onto the live WAL: queues `rec`, and whichever queued
    /// fiber gets the commit lock first writes the whole queue in one
    /// append and runs the [`Effect`]s' table halves. Back from the queue,
    /// the caller inserts its own versions, and rotates the MemTable if its
    /// insert filled it. Returns the record's counter and the WAL
    /// generation it landed in (for stabilization). An `Err` after the
    /// append may be that rotation's, with the record logged and its
    /// effect run.
    pub(crate) fn group_commit(
        &self,
        rec: &WalRecord,
        effect: Effect,
    ) -> Result<(u64, Rc<LogWriter>)> {
        treaty_sim::runtime::set_tag("e:group_commit");
        let _span = treaty_sim::obs::span(Phase::StoreCommit);
        let Logged {
            counter,
            wal,
            insert,
        } = self
            .carry(CommitReq::Log(rec.to_bytes(), effect))?
            .ok_or_else(|| log::leader_lost("wal"))?;
        if let Some(insert) = insert {
            let mem = Rc::clone(&insert.mem);
            insert.apply();
            // The leader that carries the rotation re-checks `live`: every
            // owner finishing over the budget before it runs asks too.
            let live = Rc::ptr_eq(&self.inner.mem.borrow(), &mem);
            if live && mem.approx_bytes() >= self.inner.env.config.memtable_bytes {
                self.carry(CommitReq::Rotate(Some(mem)))?;
            }
        }
        Ok((counter, wal))
    }

    /// Queues `req` on the commit lock and returns what its leader — the
    /// caller or an earlier queued fiber — carried back.
    fn carry(&self, req: CommitReq) -> Carried {
        self.inner
            .commits
            .submit(req, |batch| self.lead(batch))
            .unwrap_or_else(|| Err(log::leader_lost("wal")))
    }

    /// The leader body, under the commit lock. A due rotation runs first:
    /// every insert it waits for was handed out by an earlier leader, to an
    /// owner that has passed the lock since. Then the generation is chosen
    /// — a rotation swaps the writer, so the queue cannot be the writer's
    /// own — and the records are written with one append.
    fn lead(&self, batch: Vec<CommitReq>) -> Vec<Carried> {
        let due = {
            let live = self.inner.mem.borrow();
            batch.iter().any(|req| match req {
                CommitReq::Rotate(full) => full.as_ref().is_none_or(|m| Rc::ptr_eq(m, &live)),
                CommitReq::Log(..) => false,
            })
        };
        let rotation = if due { self.flush_locked() } else { Ok(()) };
        let wal = self.inner.wal.borrow().clone();
        let mem = self.inner.mem.borrow().clone();
        // Borrow the records straight out of the queue entries — the WAL
        // writer only needs slices, so no payload is copied for batching.
        let payloads: Vec<&[u8]> = batch
            .iter()
            .filter_map(|req| match req {
                CommitReq::Log(record, _) => Some(record.as_slice()),
                CommitReq::Rotate(_) => None,
            })
            .collect();
        let append = if payloads.is_empty() {
            Ok((0, 0))
        } else {
            let mut s = self.count();
            s.group_commits += 1;
            s.grouped_txns += payloads.len() as u64;
            drop(s);
            wal.append_batch(&payloads)
        };
        let mut logged = 0;
        batch
            .into_iter()
            .map(|req| {
                let CommitReq::Log(_, effect) = req else {
                    return rotation.clone().map(|()| None);
                };
                let (first, _last) = append.clone()?;
                let counter = first + logged;
                logged += 1;
                let owed =
                    |versions, decided| Some(Insert::new(&self.inner, &mem, versions, decided));
                let insert = match effect {
                    Effect::Apply(versions) => owed(versions, None),
                    Effect::Prepare(gtx, state) => {
                        self.inner.prepared.insert(gtx, state);
                        None
                    }
                    Effect::Decide(gtx, Some(versions)) => owed(versions, Some(gtx)),
                    Effect::Decide(gtx, None) => {
                        self.inner.prepared.remove(&gtx);
                        None
                    }
                };
                Ok(Some(Logged {
                    counter,
                    wal: Rc::clone(&wal),
                    insert,
                }))
            })
            .collect()
    }

    // ---- flush & compaction -------------------------------------------------

    /// Forces a MemTable flush and runs queued maintenance to completion,
    /// so data is on disk when this returns (tests, shutdown, explicit
    /// checkpoints).
    ///
    /// # Errors
    ///
    /// Propagates I/O and integrity errors.
    pub fn flush(&self) -> Result<()> {
        self.carry(CommitReq::Rotate(None))?;
        self.drain_maintenance()
    }

    /// Rotation + dispatch, from a leader body; only the cheap rotation
    /// happens under the commit lock. The build queues for the
    /// maintenance daemon — or, outside the runtime, where there is no
    /// daemon, the queue drains right here.
    fn flush_locked(&self) -> Result<()> {
        let Some(work) = self.rotate_locked()? else {
            return Ok(());
        };
        self.inner.flush_backlog.borrow_mut().push_back(work);
        if !treaty_sim::runtime::in_fiber() {
            return self.drain_maintenance();
        }
        self.ensure_maintenance();
        Ok(())
    }

    /// The rotation half of a flush: swaps in a fresh MemTable, parks the
    /// frozen one on the read-path list, begins a new WAL generation and
    /// re-logs undecided prepared transactions. Returns `None` when there
    /// is nothing to flush.
    fn rotate_locked(&self) -> Result<Option<FlushWork>> {
        treaty_sim::runtime::set_tag("e:flush-rotate");
        let _span = treaty_sim::obs::span(Phase::StoreFlushRotate);
        // The commit lock stops new inserts being handed out; the ones
        // already out finish first, so the MemTable frozen here never gains
        // an entry and no `Decide` still owes its entry's removal.
        while self.inner.applies_in_flight.get() > 0 {
            self.inner.applies_drained.wait();
        }
        // Swap in a fresh MemTable + WAL generation first so concurrent
        // readers keep working against the frozen one.
        let frozen = {
            let mut mem = self.inner.mem.borrow_mut();
            let frozen = Rc::clone(&mem);
            *mem = Rc::new(MemTable::new(Rc::clone(&self.inner.env)));
            frozen
        };
        if frozen.is_empty() {
            return Ok(None);
        }
        // The frozen MemTable stays on the read path (newest first) until
        // `build_flush` publishes its L0 table.
        self.inner.frozen.borrow_mut().insert(0, Rc::clone(&frozen));
        // Swap generations in a short borrow; all I/O happens after it
        // ends (a borrow held across a virtual-time charge panics there).
        let (old_gens, new_gen) = {
            let mut gens = self.inner.live_wal_gens.borrow_mut();
            let old = gens.clone();
            let new_gen = self.inner.wal_gen.replace(self.inner.wal_gen.get() + 1) + 1;
            *gens = vec![new_gen];
            (old, new_gen)
        };
        let wal = Rc::new(LogWriter::open(
            Rc::clone(&self.inner.env),
            wal_name(new_gen),
            &self.inner.env.dir.join(wal_name(new_gen)),
            0,
        )?);
        // Every transaction with a `Prepare` on the live WAL and no `Decide`
        // must survive the old generations' deletion: re-log them into the
        // new one before it is published. The table holds exactly those —
        // the leader enters a `Prepare`'s entry and removes an abort's under
        // the commit lock this runs under, in the turn that logged the
        // record, and a commit `Decide`'s owner removes its entry before its
        // insert stops counting, which the wait above outlasts — so a
        // rotation never sees a `Prepare` without its entry or an entry
        // already decided, and a `Decide` lands in a generation that holds
        // its `Prepare` (recovery re-logs too) and backs the MemTable it
        // applied to.
        relog_prepared(&self.inner.prepared, &wal)?;
        // A generation takes commits only once the edit that lists it is
        // stable: a MANIFEST cut back to its stable prefix must still name
        // every WAL holding an acknowledged write.
        let listed = self.manifest_append(&ManifestEdit::NewWal { gen: new_gen })?;
        self.inner.manifest.stabilize(listed)?;
        *self.inner.wal.borrow_mut() = wal;
        Ok(Some(FlushWork { frozen, old_gens }))
    }

    /// The build half of a flush: writes the frozen MemTable as an L0
    /// table, publishes it, and retires the WAL generations it covers.
    /// Runs under the maintenance lock only — never the commit lock — so
    /// group commit proceeds while the SSTable is built. A crash before
    /// the `WalObsolete` edits leaves the old generations live in the
    /// MANIFEST; recovery replays them (re-applied seqs are idempotent).
    fn build_flush(&self, work: &FlushWork) -> Result<()> {
        treaty_sim::runtime::set_tag("e:flush");
        let _span = treaty_sim::obs::span(Phase::StoreFlush);
        let entries = work.frozen.freeze_entries()?;
        let tombstones = work.frozen.range_tombstones();
        let file_id = self
            .inner
            .next_file_id
            .replace(self.inner.next_file_id.get() + 1);
        let path = self.inner.env.dir.join(sstable::file_name(file_id));
        sstable::build(&self.inner.env, &path, file_id, &entries, &tombstones)?;
        let table = Rc::new(SsTable::open(Rc::clone(&self.inner.env), &path)?);
        {
            let mut levels = self.inner.levels.borrow_mut();
            let mut next = (**levels).clone();
            next[0].insert(0, table);
            *levels = Rc::new(next);
        }
        // The L0 table is visible: drop the frozen MemTable from the read
        // path. Its buffers are reclaimed when the last reference goes
        // (possibly a racing reader's snapshot — MemTable frees on drop).
        self.inner
            .frozen
            .borrow_mut()
            .retain(|m| !Rc::ptr_eq(m, &work.frozen));
        self.manifest_append(&ManifestEdit::AddTable { level: 0, file_id })?;
        self.count().flushes += 1;

        // The old WAL generations are now fully covered by SSTables.
        let mut obsolete_counter = 0;
        for gen in &work.old_gens {
            obsolete_counter = self.manifest_append(&ManifestEdit::WalObsolete { gen: *gen })?;
        }
        {
            let mut gc = self.inner.pending_gc.borrow_mut();
            for gen in &work.old_gens {
                gc.push((obsolete_counter, self.inner.env.dir.join(wal_name(*gen))));
            }
        }
        Ok(())
    }

    // ---- background maintenance --------------------------------------------

    /// Spawns the maintenance daemon if it is not already running.
    fn ensure_maintenance(&self) {
        if self.inner.maintenance_running.replace(true) {
            return;
        }
        let me = self.clone();
        treaty_sim::runtime::spawn_daemon(move || {
            treaty_sim::runtime::set_tag("store-maint");
            // Maintenance is not attributable to whichever transaction
            // happened to trigger the rotation.
            let _txn = treaty_sim::obs::txn_scope(0);
            me.run_maintenance();
        });
    }

    /// Daemon body: runs maintenance passes until no work remains, with
    /// the same claim/re-check dance as the GC stabilizer so work can
    /// never be stranded between an idle check and the flag reset.
    fn run_maintenance(&self) {
        loop {
            match self.maintenance_pass() {
                Ok(true) => {}
                Ok(false) => {
                    self.inner.maintenance_running.set(false);
                    if !self.maintenance_due() {
                        return;
                    }
                    // Work raced the idle transition; try to re-claim it.
                    if self.inner.maintenance_running.replace(true) {
                        return; // a newer daemon owns it
                    }
                }
                Err(_) => {
                    // Leave the work queued: the next commit re-arms the
                    // daemon and retries. Surfaced as a metric only (the
                    // error text is not trace-safe).
                    treaty_sim::obs::counter_add(Counter::StoreMaintenanceErrors, 1);
                    self.inner.maintenance_running.set(false);
                    return;
                }
            }
        }
    }

    /// Anything for the daemon to do?
    fn maintenance_due(&self) -> bool {
        !self.inner.flush_backlog.borrow().is_empty() || self.compaction_due()
    }

    /// Whether any level is over budget.
    fn compaction_due(&self) -> bool {
        (0..6).any(|level| self.over_budget(level))
    }

    /// The one budget rule: L0 by its file count, level `n` ≥ 1 by its
    /// bytes against `l1_bytes × LEVEL_SIZE_MULTIPLIER^(n−1)`. A cheap
    /// check: table sizes are captured once at open, so no metadata
    /// syscall lands on the commit or maintenance path.
    fn over_budget(&self, level: usize) -> bool {
        let cfg = &self.inner.env.config;
        let levels = self.inner.levels.borrow();
        if level == 0 {
            return levels[0].len() >= cfg.l0_compaction_trigger;
        }
        let max = cfg.l1_bytes as u64 * LEVEL_SIZE_MULTIPLIER.pow(level as u32 - 1);
        levels[level].iter().map(|t| t.disk_bytes()).sum::<u64>() > max
    }

    /// Runs one unit of maintenance — one flush build, or one compaction
    /// round — and returns whether it did anything.
    fn maintenance_pass(&self) -> Result<bool> {
        let _guard = self.inner.maintenance_lock.lock();
        let work = self.inner.flush_backlog.borrow().front().cloned();
        if let Some(work) = work {
            // Rotated but unbuilt: the covered WAL generations are still
            // live in the MANIFEST, so a crash here loses nothing.
            treaty_sim::crashpoint::hit(CrashPoint::StoreBgFlushStart);
            self.build_flush(&work)?;
            self.inner.flush_backlog.borrow_mut().pop_front();
            self.gc();
            return Ok(true);
        }
        if self.compaction_due() {
            treaty_sim::crashpoint::hit(CrashPoint::StoreBgCompactStart);
            self.maybe_compact()?;
            self.gc();
            return Ok(true);
        }
        Ok(false)
    }

    /// Synchronously runs queued maintenance to completion (forced
    /// flushes, shutdown, tests).
    ///
    /// # Errors
    ///
    /// Propagates I/O and integrity errors from builds and compactions.
    pub fn drain_maintenance(&self) -> Result<()> {
        while self.maintenance_pass()? {}
        Ok(())
    }

    /// RocksDB-style write backpressure, paid before a committer joins the
    /// group-commit queue: one bounded stall at the soft trigger, and a
    /// stall loop — never an error — at the hard cap until the maintenance
    /// daemon catches up. Pressure is the flush backlog plus the L0 file
    /// count. Paid by commits only: stalling a `Prepare` or a `Decide`
    /// would lengthen a lock hold, not slow a writer down. Outside the
    /// runtime every rotation drains its own backlog, so there is none.
    fn commit_backpressure(&self) {
        if !treaty_sim::runtime::in_fiber() {
            return;
        }
        let cfg = &self.inner.env.config;
        let stall = cfg.backpressure_stall.max(1);
        let mut slowed = false;
        loop {
            let pressure = self.pressure();
            if pressure >= cfg.l0_stop_trigger {
                treaty_sim::obs::counter_add(Counter::StoreBackpressureStops, 1);
                self.ensure_maintenance();
                treaty_sim::runtime::sleep(stall);
                continue;
            }
            if pressure >= cfg.l0_slowdown_trigger && !slowed {
                slowed = true;
                treaty_sim::obs::counter_add(Counter::StoreBackpressureSlowdowns, 1);
                self.ensure_maintenance();
                treaty_sim::runtime::sleep(stall);
                continue; // re-check: pressure may have crossed the hard cap
            }
            return;
        }
    }

    fn manifest_append(&self, edit: &ManifestEdit) -> Result<u64> {
        self.inner.manifest.append(&edit.to_bytes())
    }

    fn maybe_compact(&self) -> Result<()> {
        // L0 -> L1 until L0 is back under its file count.
        while self.over_budget(0) {
            self.compact_level(0)?;
        }
        // Cascade size-based compactions down the hierarchy.
        for level in 1..6 {
            if self.over_budget(level) {
                self.compact_level(level)?;
            }
        }
        Ok(())
    }

    /// Compacts `level` into `level + 1`. The inputs are every table of
    /// `level` and each table of `level + 1` whose span overlaps one of
    /// them ([`SsTable::overlaps`]); they fall into groups of transitively
    /// overlapping spans, and each group compacts on its own. A group that
    /// is one table of `level` *moves*: one `AddTable` edit re-levels it,
    /// and not a byte is read or rewritten, nor is the table released,
    /// collected or evicted from the block cache. Every other group merges
    /// into new tables of `level + 1`, keeping only the newest version of
    /// each key (older versions are consumed by the merge; tombstones
    /// survive until the bottom level). Nothing moves into the bottom
    /// level: only a merge discards tombstones there.
    fn compact_level(&self, level: usize) -> Result<()> {
        treaty_sim::runtime::set_tag("e:compact");
        let _span = treaty_sim::obs::span_with(Phase::StoreCompact, &[("level", level as u64)]);
        // Snapshot the inputs but leave them published: a merge does real
        // (virtual-time-charged) I/O, and concurrent readers must keep
        // seeing the pre-compaction state until the atomic publish swap.
        let (upper, inputs) = {
            let levels = self.inner.levels.borrow();
            let upper = levels[level].clone();
            let lower = levels[level + 1]
                .iter()
                .filter(|l| upper.iter().any(|u| u.overlaps(l)))
                .cloned();
            let inputs: Vec<Rc<SsTable>> = upper.iter().cloned().chain(lower).collect();
            (upper, inputs)
        };
        if upper.is_empty() {
            return Ok(());
        }
        let bottom = level + 1 >= 5;
        let (mut moved, mut merged, mut outputs) = (Vec::new(), Vec::new(), Vec::new());
        for group in overlap_groups(&inputs) {
            // A table of `level + 1` is an input only if it overlaps a
            // table of `level`, so a group of one is a table of `level`.
            if group.len() == 1 && !bottom {
                moved.extend(group);
            } else {
                outputs.extend(self.merge_tables(&group, bottom)?);
                merged.extend(group);
            }
        }

        // Publish: a moved table's one edit re-levels it (replay keeps the
        // level an id was last added at); merge outputs go into level+1
        // and the merged inputs are retired.
        for t in &moved {
            self.manifest_append(&ManifestEdit::AddTable {
                level: level + 1,
                file_id: t.meta().file_id,
            })?;
        }
        let mut last_counter = 0;
        for t in &outputs {
            last_counter = self.manifest_append(&ManifestEdit::AddTable {
                level: level + 1,
                file_id: t.meta().file_id,
            })?;
        }
        let is_upper = |t: &Rc<SsTable>| upper.iter().any(|u| Rc::ptr_eq(u, t));
        for t in &merged {
            last_counter = self.manifest_append(&ManifestEdit::RemoveTable {
                level: if is_upper(t) { level } else { level + 1 },
                file_id: t.meta().file_id,
            })?;
        }
        // Older versions of the merged keys are gone once the outputs are
        // visible: raise the snapshot floor first (see `check_snapshot_ts`).
        // A move drops no version and leaves the floor where it is.
        let merged_seq = merged.iter().map(|t| t.meta().max_seq).max().unwrap_or(0);
        self.inner
            .snapshot_floor
            .set(self.inner.snapshot_floor.get().max(merged_seq));
        {
            let mut levels = self.inner.levels.borrow_mut();
            let mut next = (**levels).clone();
            next[level].retain(|t| !is_upper(t));
            next[level + 1].retain(|t| !merged.iter().any(|m| Rc::ptr_eq(m, t)));
            next[level + 1].extend(outputs.iter().chain(&moved).cloned());
            next[level + 1].sort_by(|a, b| a.meta().min_key.cmp(&b.meta().min_key));
            *levels = Rc::new(next);
        }
        {
            let mut gc = self.inner.pending_gc.borrow_mut();
            for t in &merged {
                t.release();
                // Retired tables' blocks must stop occupying the trusted
                // cache (and its EPC budget) immediately.
                if let Some(cache) = &self.inner.env.block_cache {
                    cache.invalidate_file(t.meta().file_id);
                }
                gc.push((last_counter, t.path().to_path_buf()));
            }
        }
        let mut s = self.count();
        s.compactions += 1;
        s.tables_moved += moved.len() as u64;
        s.compaction_bytes_written += outputs.iter().map(|t| t.disk_bytes()).sum::<u64>();
        Ok(())
    }

    /// Merges one group of overlapping tables into new tables, keeping
    /// the newest version of each key. `inputs` are in precedence order:
    /// newest first.
    fn merge_tables(&self, inputs: &[Rc<SsTable>], bottom: bool) -> Result<Vec<Rc<SsTable>>> {
        // Every input is already sorted (user key asc, seq desc), so the
        // shared k-way merge streams them through the same verified cursors
        // a scan uses — fence continuity included; inputs come back from
        // untrusted storage too — with no materialized map and no output
        // sort: the footprint is one block per input, not the level. The
        // cursors bypass the block cache.
        let mut sources = Vec::new();
        for t in inputs {
            sources.push(ScanSource::Table(t.range_cursor(b"", false)));
        }
        // Range tombstones from every input ride the outputs (partitioned
        // below) until the bottom level, where they — and the versions
        // they shadow — are garbage-collected for good.
        let mut tombs: Vec<RangeTombstone> = inputs
            .iter()
            .flat_map(|t| t.meta().range_tombstones.clone())
            .collect();
        tombs.sort_by(|a, b| (&a.start, &a.end, a.seq).cmp(&(&b.start, &b.end, b.seq)));
        tombs.dedup();

        // Write output tables, splitting at the size target. A size-full
        // chunk is *parked* until the next key fixes its partition bound:
        // each output carries only the tombstone fragments inside its
        // partition of the key space, so output key ranges (which widen
        // over tombstones) stay non-overlapping — the invariant deeper
        // levels' first-covering-table reads rely on.
        let mut outputs = Vec::new();
        let mut chunk: Vec<VersionedEntry> = Vec::new();
        let mut chunk_bytes = 0usize;
        // Partition start of the accumulating chunk (`None` = unbounded:
        // the first output also owns everything left of its first key).
        let mut chunk_lo: Option<UserKey> = None;
        let mut parked: Option<(Vec<VersionedEntry>, Option<UserKey>)> = None;
        let target = self.inner.env.config.sstable_bytes;
        let live_tombs: Vec<RangeTombstone> = if bottom { Vec::new() } else { tombs.clone() };
        // The merge keeps the newest version of each key; the earliest
        // cursor — the newer level — wins seq ties.
        merge_newest(
            &mut sources,
            &tombs,
            None,
            SeqNum::MAX,
            |key, seq, value, shadow| {
                let value = value.open(&key)?; // a table value: already open
                if let Some((entries, lo)) = parked.take() {
                    // This key opens a new partition; the parked chunk's span
                    // ends right before it.
                    let frag = tomb_fragments(&live_tombs, lo.as_deref(), Some(&key));
                    outputs.push(self.write_table(&entries, &frag)?);
                    chunk_lo = Some(key.clone());
                }
                if bottom && (value.is_none() || shadow > seq) {
                    return Ok(true); // (range-)deleted at the bottom level: drop it
                }
                chunk_bytes += key.len() + value.as_ref().map(|v| v.len()).unwrap_or(0) + 17;
                chunk.push((key, seq, value));
                if chunk_bytes >= target {
                    parked = Some((std::mem::take(&mut chunk), chunk_lo.take()));
                    chunk_bytes = 0;
                }
                Ok(true)
            },
        )?;
        if let Some((entries, lo)) = parked.take() {
            // The merge ended with a chunk parked: it is the last output
            // unless the open chunk reopened after it.
            let hi = chunk.first().map(|e| e.0.clone());
            let frag = tomb_fragments(&live_tombs, lo.as_deref(), hi.as_deref());
            outputs.push(self.write_table(&entries, &frag)?);
        }
        if !chunk.is_empty() {
            let frag = tomb_fragments(&live_tombs, chunk_lo.as_deref(), None);
            outputs.push(self.write_table(&chunk, &frag)?);
        } else if outputs.is_empty() && !live_tombs.is_empty() {
            // Every point version was consumed but undischarged tombstones
            // must survive to shadow deeper levels: a tombstone-only table.
            outputs.push(self.write_table(&[], &live_tombs)?);
        }

        Ok(outputs)
    }

    fn write_table(
        &self,
        entries: &[VersionedEntry],
        range_tombstones: &[RangeTombstone],
    ) -> Result<Rc<SsTable>> {
        let file_id = self
            .inner
            .next_file_id
            .replace(self.inner.next_file_id.get() + 1);
        let path = self.inner.env.dir.join(sstable::file_name(file_id));
        sstable::build(&self.inner.env, &path, file_id, entries, range_tombstones)?;
        Ok(Rc::new(SsTable::open(Rc::clone(&self.inner.env), &path)?))
    }

    /// Deletes retired files whose MANIFEST edits have stabilized (§VI:
    /// "the garbage collector only deletes SSTable files when the newly
    /// compacted ones refer to stabilized entries in MANIFEST").
    ///
    /// Stabilization itself runs on a background fiber so the commit path
    /// never waits a counter round just to garbage-collect; files whose
    /// edits are not yet rollback-protected simply survive one more cycle.
    pub fn gc(&self) {
        let stable = {
            let manifest = Rc::clone(&self.inner.manifest);
            if self.inner.env.profile.stabilization {
                let last = manifest.written_counter();
                let stable = manifest.stable_counter();
                if last > stable {
                    if treaty_sim::runtime::in_fiber() {
                        if !self.inner.gc_stabilizing.replace(true) {
                            let me = self.clone();
                            treaty_sim::runtime::spawn_daemon(move || {
                                treaty_sim::runtime::set_tag("gc-stabilizer");
                                let _ = manifest.stabilize(last);
                                me.inner.gc_stabilizing.set(false);
                                me.gc();
                            });
                        }
                        stable
                    } else {
                        // Outside the runtime (plain tests): synchronous,
                        // and instant because charges are no-ops there.
                        let _ = manifest.stabilize(last);
                        manifest.stable_counter()
                    }
                } else {
                    stable
                }
            } else {
                u64::MAX
            }
        };
        let mut gc = self.inner.pending_gc.borrow_mut();
        let mut kept = Vec::new();
        for (counter, path) in gc.drain(..) {
            if counter <= stable {
                let _ = std::fs::remove_file(&path);
                self.count().files_deleted += 1;
            } else {
                kept.push((counter, path));
            }
        }
        *gc = kept;
    }

    // ---- recovery ------------------------------------------------------------

    /// MANIFEST → SSTable hierarchy → live WALs (MemTable + prepared
    /// transactions), each log recovered and held to its counter. A
    /// missing MANIFEST is an empty one: a fresh store if nothing was ever
    /// stabilized under it, a rollback otherwise.
    fn recover(env: Rc<Env>) -> Result<Self> {
        let (manifest, edits) =
            LogWriter::resume(Rc::clone(&env), "manifest", &env.dir.join("MANIFEST"))?;

        let mut table_levels: BTreeMap<u64, usize> = BTreeMap::new();
        let mut live_gens: Vec<u64> = Vec::new();
        let mut max_gen = 0;
        for (_, payload) in &edits {
            let edit = ManifestEdit::from_bytes(payload)
                .map_err(|e| StoreError::Integrity(format!("manifest edit: {e}")))?;
            match edit {
                ManifestEdit::NewWal { gen } => {
                    live_gens.push(gen);
                    max_gen = max_gen.max(gen);
                }
                ManifestEdit::WalObsolete { gen } => live_gens.retain(|g| *g != gen),
                ManifestEdit::AddTable { level, file_id } => {
                    table_levels.insert(file_id, level);
                }
                ManifestEdit::RemoveTable { file_id, .. } => {
                    table_levels.remove(&file_id);
                }
            }
        }

        // Rebuild the SSTable hierarchy, verifying each footer.
        let mut levels: Vec<Vec<Rc<SsTable>>> = vec![Vec::new(); 7];
        let mut max_file_id = 0;
        let mut max_seq = 0;
        let mut l0_order: Vec<(u64, Rc<SsTable>)> = Vec::new();
        for (file_id, level) in &table_levels {
            let path = env.dir.join(sstable::file_name(*file_id));
            let table = Rc::new(SsTable::open(Rc::clone(&env), &path)?);
            max_file_id = max_file_id.max(*file_id);
            max_seq = max_seq.max(table.meta().max_seq);
            if *level == 0 {
                l0_order.push((*file_id, table));
            } else {
                // The level is whatever the decoded edit says: a profile
                // without log authentication reads it as the disk wrote it.
                levels
                    .get_mut(*level)
                    .ok_or_else(|| {
                        StoreError::Integrity(format!(
                            "manifest puts table {file_id} on level {level}, which does not exist"
                        ))
                    })?
                    .push(table);
            }
        }
        // L0 newest (highest file id) first; deeper levels by key range.
        l0_order.sort_by_key(|&(file_id, _)| std::cmp::Reverse(file_id));
        levels[0] = l0_order.into_iter().map(|(_, t)| t).collect();
        for level in levels.iter_mut().skip(1) {
            level.sort_by(|a, b| a.meta().min_key.cmp(&b.meta().min_key));
        }

        let mem = Rc::new(MemTable::new(Rc::clone(&env)));
        let locks = LockTable::new(LOCK_SHARDS, LOCK_TIMEOUT);
        let prepared = PreparedTable::new();
        let mut next_txid = 1u64;

        // Replay live WALs in generation order.
        live_gens.sort_unstable();
        for gen in &live_gens {
            let name = wal_name(*gen);
            let path = env.dir.join(&name);
            if !path.exists() {
                return Err(StoreError::Rollback(format!(
                    "live WAL {name} missing — storage rolled back"
                )));
            }
            for (_, payload) in log::recover(&env, &name, &path)?.records {
                let rec = WalRecord::from_bytes(&payload)
                    .map_err(|e| StoreError::Integrity(format!("wal record: {e}")))?;
                match rec {
                    WalRecord::Commit {
                        seq,
                        writes,
                        ranges,
                    } => {
                        max_seq = max_seq.max(seq);
                        apply_versions(&mem, &(seq, writes, ranges));
                    }
                    WalRecord::Prepare {
                        gtx,
                        writes,
                        ranges,
                    } => {
                        // A rotation re-logs every in-doubt transaction, so
                        // until the flush build retires the older
                        // generation one `Prepare` is live twice: the first
                        // keeps its entry and its locks.
                        if let Some(first) = prepared.txns.borrow().get(&gtx) {
                            if first.writes == writes && first.ranges == ranges {
                                continue;
                            }
                        }
                        let owner = next_txid;
                        next_txid += 1;
                        // Recovery re-acquires the write-set locks only: the
                        // gap/next-key locks a pessimistic range delete held
                        // pre-crash are not logged, so phantom protection for
                        // in-doubt ranges falls back to the prepared-range
                        // index (overlaps_span) until the decision lands.
                        for w in &writes {
                            locks
                                .try_lock(owner, &w.key, crate::locks::LockMode::Exclusive)
                                .map_err(|_| {
                                    StoreError::Integrity(
                                        "conflicting prepared transactions in WAL".into(),
                                    )
                                })?;
                        }
                        let lock_keys: Vec<UserKey> =
                            writes.iter().map(|w| w.key.clone()).collect();
                        prepared.insert(
                            gtx,
                            PreparedState {
                                writes,
                                ranges,
                                lock_keys,
                                lock_owner: owner,
                                deciding: false,
                                stable: true,
                            },
                        );
                    }
                    WalRecord::Decide { gtx, commit, seq } => match prepared.remove(&gtx) {
                        Some(st) => {
                            locks.release(st.lock_owner, st.lock_keys.iter().cloned());
                            if commit {
                                max_seq = max_seq.max(seq);
                                apply_versions(&mem, &(seq, st.writes, st.ranges));
                            }
                        }
                        // A `Decide` is logged into a generation that holds
                        // its `Prepare` (or a re-log of it), and records are
                        // MAC'd and counter-sequenced: a commit with nothing
                        // to apply is an acknowledged write gone, not a no-op.
                        None if commit => {
                            return Err(StoreError::Integrity(format!(
                                "commit decision for {gtx} without a prepare in any live WAL"
                            )));
                        }
                        None => {}
                    },
                }
            }
        }

        // Open a fresh WAL generation for new writes; keep the recovered
        // generations live until the next flush covers them.
        let new_gen = max_gen + 1;
        let wal = Rc::new(LogWriter::open(
            Rc::clone(&env),
            wal_name(new_gen),
            &env.dir.join(wal_name(new_gen)),
            0,
        )?);
        let listed = manifest.append(&ManifestEdit::NewWal { gen: new_gen }.to_bytes())?;
        live_gens.push(new_gen);
        // Re-log as a rotation does: the in-doubt `Decide`s will land here,
        // and the next flush retires the recovered generations one MANIFEST
        // edit at a time. After `NewWal`, so a crash in between leaves an
        // empty generation, not an unlisted file to append to from zero.
        relog_prepared(&prepared, &wal)?;
        // As in a rotation, the generation takes commits only once the
        // edit that lists it is stable.
        manifest.stabilize(listed)?;

        let inner = StoreInner {
            mem: FiberCell::new(mem),
            levels: FiberCell::new(Rc::new(levels)),
            wal: FiberCell::new(wal),
            wal_gen: Cell::new(new_gen),
            manifest: Rc::new(manifest),
            seq: Cell::new(max_seq),
            next_file_id: Cell::new(max_file_id + 1),
            next_txid: Cell::new(next_txid),
            locks,
            prepared,
            // Everything recovered was replayed from verified-fresh logs:
            // the whole recovered history is stable.
            frontier: StableFrontier::new(max_seq),
            // Tables on disk may already have been compacted: nothing
            // below the recovered history is served.
            snapshot_floor: Cell::new(max_seq),
            commits: GroupCommit::new("store.commit_lock"),
            applies_in_flight: Cell::new(0),
            applies_drained: WaitQueue::new(),
            pending_gc: FiberCell::new(Vec::new()),
            live_wal_gens: FiberCell::new(live_gens),
            frozen: FiberCell::new(Vec::new()),
            flush_backlog: FiberCell::new(VecDeque::new()),
            maintenance_lock: FiberMutex::new("store.maintenance_lock"),
            maintenance_running: Cell::new(false),
            gc_stabilizing: Cell::new(false),
            active_scans: Cell::new(0),
            apply_epoch: Cell::new(0),
            env,
        };
        Ok(TreatyStore {
            inner: Rc::new(inner),
        })
    }
}

/// Re-logs every in-doubt transaction into `wal` — a generation not yet
/// taking writes — in one batch, one fsync.
fn relog_prepared(prepared: &PreparedTable, wal: &LogWriter) -> Result<()> {
    let relog: Vec<Vec<u8>> = prepared
        .snapshot_writes()
        .into_iter()
        .map(|(gtx, writes, ranges)| {
            WalRecord::Prepare {
                gtx,
                writes,
                ranges,
            }
            .to_bytes()
        })
        .collect();
    if !relog.is_empty() {
        wal.append_batch(&relog)?;
    }
    Ok(())
}

/// Waits for `counter` on `wal` under a `wal.stabilize` span, so a
/// participant's durability wait is attributable in the trace.
pub(crate) fn stabilize_traced(wal: &LogWriter, counter: u64) -> Result<()> {
    let _span = treaty_sim::obs::span(Phase::WalStabilize);
    wal.stabilize(counter)
}

/// Splits compaction inputs into groups of transitively overlapping key
/// ranges ([`SsTable::overlaps`]), in key order. No table of one group
/// overlaps a table of another, so the groups compact independently, and
/// a group's merge writes nothing outside its own tables' ranges. Each
/// group keeps the order it had in `inputs`: merge precedence, newest
/// first.
fn overlap_groups(inputs: &[Rc<SsTable>]) -> Vec<Vec<Rc<SsTable>>> {
    let mut by_start: Vec<usize> = (0..inputs.len()).collect();
    by_start.sort_by(|&a, &b| inputs[a].meta().min_key.cmp(&inputs[b].meta().min_key));
    // Sorted by first key, a table that overlaps no table of the open
    // group overlaps no table of an earlier one either.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in by_start {
        match groups.last_mut() {
            Some(group) if group.iter().any(|&j| inputs[j].overlaps(&inputs[i])) => group.push(i),
            _ => groups.push(vec![i]),
        }
    }
    groups
        .into_iter()
        .map(|mut group| {
            group.sort_unstable();
            group.into_iter().map(|i| Rc::clone(&inputs[i])).collect()
        })
        .collect()
}

/// Clips `tombs` to the partition `[lo, hi)` (`None` = unbounded on that
/// side), dropping fragments that come up empty. Compaction outputs each
/// carry only their partition's fragments so the tombstone extents tile
/// the key space without creating overlapping output tables.
fn tomb_fragments(
    tombs: &[RangeTombstone],
    lo: Option<&[u8]>,
    hi: Option<&[u8]>,
) -> Vec<RangeTombstone> {
    let mut out = Vec::new();
    for rt in tombs {
        let start = match lo {
            Some(lo) if rt.start.as_slice() < lo => lo.to_vec(),
            _ => rt.start.clone(),
        };
        let end = match hi {
            Some(hi) if rt.end.as_slice() > hi => hi.to_vec(),
            _ => rt.end.clone(),
        };
        if start < end {
            out.push(RangeTombstone {
                start,
                end,
                seq: rt.seq,
            });
        }
    }
    out
}

/// One input of the authenticated merge: a MemTable cursor or a verified
/// SSTable block cursor, unified behind one `next` and one `bound`.
enum ScanSource {
    Mem(MemCursor),
    Table(TableCursor),
}

/// One version as the merge carries it: key, seq and the value unopened.
type Version = (UserKey, SeqNum, Found);

impl ScanSource {
    /// The next version, its value sealed if it lies in a MemTable.
    fn next(&mut self) -> Result<Option<Version>> {
        match self {
            ScanSource::Mem(c) => {
                let mem = Rc::clone(c.table());
                Ok(c.next()
                    .map(|(key, seq, entry)| (key, seq, Found::Mem(mem, entry))))
            }
            ScanSource::Table(c) => Ok(c.next()?.map(|r| (r.key, r.seq, Found::Table(r.value)))),
        }
    }

    /// A lower bound on the next key `next` yields, known with no I/O and
    /// no charge; `None` once the source is exhausted.
    fn bound(&self) -> Option<&[u8]> {
        match self {
            ScanSource::Mem(c) => c.bound(),
            ScanSource::Table(c) => c.bound(),
        }
    }
}

/// Pulls the next record ≤ `snapshot` and < `end` out of `src`; a record
/// at or past `end` exhausts the source (cursors yield keys in order). A
/// MemTable version above the snapshot is passed unopened.
fn refill(src: &mut ScanSource, end: Option<&[u8]>, snapshot: SeqNum) -> Result<Option<Version>> {
    while let Some((key, seq, value)) = src.next()? {
        if let Some(end) = end {
            if key.as_slice() >= end {
                return Ok(None);
            }
        }
        if seq <= snapshot {
            return Ok(Some((key, seq, value)));
        }
    }
    Ok(None)
}

/// The store's one k-way merge, under scans and compaction alike: yields
/// the newest version `<= snapshot` of each key below `end` across
/// `sources` in key order, together with the newest seq among the `tombs`
/// covering it (0 = none), until `visit` returns `Ok(false)` or every
/// source is exhausted.
///
/// The merge is lazy: a source is read only once the merge frontier — the
/// smallest head in hand — reaches its [`ScanSource::bound`], so a block or
/// a MemTable no answer reaches is never opened. A source whose bound ties
/// the frontier is read, since it may hold a newer version of that key;
/// every source that could hold the smallest key is therefore in hand when
/// it is picked, and the pick is the one an eager merge makes. The merge
/// decides on keys and seqs alone: a MemTable value reaches `visit` still
/// sealed, and one the merge steps past — an older version, or one above
/// the snapshot — is never opened.
fn merge_newest<F>(
    sources: &mut [ScanSource],
    tombs: &[RangeTombstone],
    end: Option<&[u8]>,
    snapshot: SeqNum,
    mut visit: F,
) -> Result<()>
where
    F: FnMut(UserKey, SeqNum, Found, SeqNum) -> Result<bool>,
{
    // A source's head is in hand (`Some`) or still behind its bound.
    let mut heads: Vec<Option<Version>> = sources.iter().map(|_| None).collect();
    let mut last_key: Option<UserKey> = None;
    loop {
        // Read, smallest bound first, every source whose bound is at or
        // below the frontier; with no head in hand, the smallest bound.
        loop {
            let frontier = heads.iter().flatten().map(|(k, _, _)| k.as_slice()).min();
            let due = (0..sources.len())
                .filter(|&i| heads[i].is_none())
                .filter_map(|i| Some((i, sources[i].bound()?)))
                .filter(|(_, b)| frontier.is_none_or(|f| *b <= f) && end.is_none_or(|e| *b < e))
                .min_by_key(|(_, b)| *b)
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            heads[i] = refill(&mut sources[i], end, snapshot)?;
        }
        // Smallest key wins; seq desc breaks ties so the first record
        // of each key is its newest visible version. The first of equal
        // heads wins.
        let best = heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|(k, s, _)| (i, k, *s)))
            .min_by(|(_, ka, sa), (_, kb, sb)| ka.cmp(kb).then(sb.cmp(sa)))
            .map(|(i, _, _)| i);
        let Some((key, seq, value)) = best.and_then(|i| heads[i].take()) else {
            return Ok(());
        };
        if last_key.as_ref() == Some(&key) {
            continue; // older version of a key already decided
        }
        let shadow = tombs
            .iter()
            .filter(|rt| rt.covers(&key))
            .map(|rt| rt.seq)
            .max()
            .unwrap_or(0);
        last_key = Some(key.clone());
        if !visit(key, seq, value, shadow)? {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod frontier_tests {
    use super::*;

    fn prepared(writes: Vec<WriteOp>, lock_owner: TxId) -> PreparedState {
        PreparedState {
            lock_keys: writes.iter().map(|w| w.key.clone()).collect(),
            writes,
            ranges: Vec::new(),
            lock_owner,
            deciding: false,
            stable: true,
        }
    }

    #[test]
    fn frontier_advances_contiguously() {
        let f = StableFrontier::new(0);
        f.record(1);
        assert_eq!(f.get(), 1);
        // A gap parks the later seq.
        f.record(3);
        assert_eq!(f.get(), 1);
        f.record(2);
        assert_eq!(f.get(), 3);
    }

    #[test]
    fn frontier_ignores_stale_and_duplicate_records() {
        let f = StableFrontier::new(5);
        f.record(3);
        f.record(5);
        assert_eq!(f.get(), 5);
        f.record(6);
        f.record(6);
        assert_eq!(f.get(), 6);
    }

    #[test]
    fn frontier_closes_long_out_of_order_run() {
        let f = StableFrontier::new(0);
        for seq in (1..=100u64).rev() {
            f.record(seq);
        }
        assert_eq!(f.get(), 100);
    }

    #[test]
    fn prepared_table_roundtrip_and_overlap() {
        let t = PreparedTable::new();
        let gtx = GlobalTxId { node: 2, seq: 7 };
        t.insert(
            gtx,
            prepared(
                vec![WriteOp {
                    key: b"a".to_vec(),
                    value: Some(b"v".to_vec()),
                }],
                1,
            ),
        );
        assert!(t.overlaps(b"a"));
        assert!(!t.overlaps(b"b"));
        assert_eq!(t.ids(), vec![gtx]);
        assert_eq!(t.snapshot_writes().len(), 1);
        assert!(t.remove(&gtx).is_some());
        assert!(t.remove(&gtx).is_none());
        assert!(!t.overlaps(b"a"));
    }

    #[test]
    fn overlaps_counts_shared_keys_across_transactions() {
        let t = PreparedTable::new();
        let w = |k: &[u8]| {
            vec![WriteOp {
                key: k.to_vec(),
                value: Some(b"v".to_vec()),
            }]
        };
        let a = GlobalTxId { node: 1, seq: 1 };
        let b = GlobalTxId { node: 1, seq: 2 };
        t.insert(a, prepared(w(b"k"), 1));
        t.insert(b, prepared(w(b"k"), 2));
        // Two in-doubt writers: removing one must leave the key in doubt.
        t.remove(&a);
        assert!(t.overlaps(b"k"));
        t.remove(&b);
        assert!(!t.overlaps(b"k"));
    }

    #[test]
    fn decide_claim_keeps_keys_in_doubt_until_finished() {
        let t = PreparedTable::new();
        let gtx = GlobalTxId { node: 3, seq: 1 };
        t.insert(
            gtx,
            prepared(
                vec![WriteOp {
                    key: b"k".to_vec(),
                    value: Some(b"v".to_vec()),
                }],
                9,
            ),
        );
        let claim = t.begin_decide(&gtx).expect("first claim wins");
        assert_eq!(claim.lock_owner, 9);
        assert_eq!(claim.writes.len(), 1);
        // Mid-decision: a duplicate decision is a no-op, but the key is
        // still in doubt for snapshot reads and validation.
        assert!(t.begin_decide(&gtx).is_none());
        assert!(t.overlaps(b"k"));
        // A failed attempt un-claims so recovery can retry.
        assert!(t.cancel_decide(&gtx));
        assert!(t.begin_decide(&gtx).is_some());
        t.remove(&gtx);
        assert!(!t.overlaps(b"k"));
        assert!(t.begin_decide(&gtx).is_none());
        assert!(!t.cancel_decide(&gtx));
    }

    #[test]
    fn entry_is_relogged_from_insert_and_in_doubt_from_mark_stable() {
        let t = PreparedTable::new();
        let w = vec![WriteOp {
            key: b"k".to_vec(),
            value: Some(b"v".to_vec()),
        }];
        let unstable = |owner| PreparedState {
            stable: false,
            ..prepared(w.clone(), owner)
        };
        let gtx = GlobalTxId { node: 4, seq: 1 };
        t.insert(gtx, unstable(1));
        assert_eq!(t.snapshot_writes().len(), 1);
        assert!(t.ids().is_empty() && !t.overlaps(b"k"));
        assert!(t.mark_stable(&gtx));
        assert_eq!(t.ids(), vec![gtx]);
        assert!(t.overlaps(b"k"));
        t.remove(&gtx);
        assert!(!t.overlaps(b"k"));

        // A decision that claimed the entry during the round wins: nothing
        // becomes in doubt, and a retired entry is not marked either.
        t.insert(gtx, unstable(2));
        assert!(t.begin_decide(&gtx).is_some());
        assert!(!t.mark_stable(&gtx));
        assert!(!t.overlaps(b"k"));
        t.remove(&gtx);
        assert!(!t.mark_stable(&gtx));
    }
}
