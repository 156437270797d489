//! Single-node transactions (§V-B) and the engine interface the
//! distributed 2PC layer builds on.
//!
//! * **Pessimistic** transactions take shared/exclusive locks as they go
//!   (two-phase locking),
//! * **optimistic** transactions record the version of every read and
//!   validate at commit,
//! * both buffer their writes in a [`TxBuffer`] — a contiguous byte stream
//!   in enclave memory (§VII-D) with an index for read-my-own-writes,
//! * [`EngineTxn::prepare`] is the participant half of 2PC: the write set
//!   is made durable in the WAL as a *prepared* record, locks stay held,
//!   and the decision arrives later via [`TxnEngine::commit_prepared`] /
//!   [`TxnEngine::abort_prepared`] — possibly after a crash and recovery.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

use treaty_crypto::codec;
use treaty_sim::crashpoint::CrashPoint;
use treaty_sim::FiberCell;

use crate::engine::{
    stabilize_traced, Effect, FencedSpan, PreparedDecision, PreparedState, TreatyStore, WalRecord,
    LOCK_SHARDS, LOCK_TIMEOUT,
};
use crate::locks::{LockMode, LockTable, EOF_SENTINEL};
use crate::memtable::{SeqNum, UserKey};
use crate::{Result, StoreError};

/// Concurrency-control flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnMode {
    /// Two-phase locking.
    Pessimistic,
    /// Optimistic with sequence-number validation at commit.
    Optimistic,
}

/// Globally unique transaction id: `(coordinator node, per-node sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalTxId {
    /// Coordinator node id.
    pub node: u64,
    /// Monotonic sequence at that coordinator.
    pub seq: u64,
}

codec!(struct GlobalTxId { node, seq });

impl std::fmt::Display for GlobalTxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx{}-{}", self.node, self.seq)
    }
}

/// One buffered write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// Target key.
    pub key: UserKey,
    /// `None` deletes the key.
    pub value: Option<Vec<u8>>,
}

codec!(struct WriteOp { key, value });

/// Commit outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// The commit's version number (0 for read-only transactions).
    pub seq: SeqNum,
    /// WAL counter of the commit record (0 for read-only transactions).
    pub wal_counter: u64,
}

/// The transaction write buffer of §VII-D: one contiguous byte stream per
/// transaction (to avoid per-entry EPC pressure) plus an index for
/// read-my-own-writes.
#[derive(Debug, Default)]
pub struct TxBuffer {
    data: Vec<u8>,
    /// Each key's position in `writes`.
    index: HashMap<UserKey, usize>,
    /// `(key, slot in data)` in first-write order; `None` = delete.
    writes: Vec<(UserKey, Option<(usize, usize)>)>,
}

impl TxBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers a put.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        let off = self.data.len();
        self.data.extend_from_slice(value);
        self.record(key, Some((off, value.len())));
    }

    /// Buffers a delete.
    pub fn delete(&mut self, key: &[u8]) {
        self.record(key, None);
    }

    fn record(&mut self, key: &[u8], slot: Option<(usize, usize)>) {
        match self.index.entry(key.to_vec()) {
            Entry::Occupied(e) => self.writes[*e.get()].1 = slot,
            Entry::Vacant(e) => {
                self.writes.push((e.key().clone(), slot));
                e.insert(self.writes.len() - 1);
            }
        }
    }

    fn value(&self, slot: Option<(usize, usize)>) -> Option<Vec<u8>> {
        slot.map(|(off, len)| self.data[off..off + len].to_vec())
    }

    /// Read-my-own-writes: `None` = key untouched; `Some(None)` = deleted;
    /// `Some(Some(v))` = buffered value.
    pub fn get(&self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        self.index.get(key).map(|&i| self.value(self.writes[i].1))
    }

    /// Number of buffered deletes of keys in `[start, end)`.
    pub fn deletes_in(&self, start: &[u8], end: &[u8]) -> usize {
        self.writes
            .iter()
            .filter(|(k, slot)| slot.is_none() && start <= k.as_slice() && k.as_slice() < end)
            .count()
    }

    /// Buffered bytes (enclave footprint).
    pub fn bytes(&self) -> usize {
        self.data.len()
    }

    /// Number of distinct keys written.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Materializes the write set in first-write order (last value per
    /// key wins).
    pub fn to_ops(&self) -> Vec<WriteOp> {
        self.writes
            .iter()
            .map(|(key, slot)| WriteOp {
                key: key.clone(),
                value: self.value(*slot),
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    Active,
    Prepared,
    Finished,
}

/// A scan an OCC transaction ran: `(start, end, raw_limit, raw results)`.
type ScannedSpan = (UserKey, UserKey, usize, Vec<(UserKey, Vec<u8>)>);

/// A single-node transaction on a [`TreatyStore`].
pub struct Txn {
    store: TreatyStore,
    id: u64,
    mode: TxnMode,
    buffer: TxBuffer,
    locked: Vec<UserKey>,
    read_set: Vec<(UserKey, SeqNum)>,
    /// Buffered range deletes, in buffer order.
    ranges: Vec<(UserKey, UserKey)>,
    /// Scanned spans, re-validated at OCC commit by re-running the scan
    /// and comparing.
    scan_set: Vec<ScannedSpan>,
    /// Whether this txn bumped the store's `active_scans` gauge.
    scan_registered: bool,
    state: TxnState,
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl Txn {
    pub(crate) fn new(store: TreatyStore, mode: TxnMode) -> Self {
        let id = store
            .inner
            .next_txid
            .replace(store.inner.next_txid.get() + 1);
        Txn {
            store,
            id,
            mode,
            buffer: TxBuffer::new(),
            locked: Vec::new(),
            read_set: Vec::new(),
            ranges: Vec::new(),
            scan_set: Vec::new(),
            scan_registered: false,
            state: TxnState::Active,
        }
    }

    fn check_active(&self) -> Result<()> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(StoreError::Finished)
        }
    }

    /// Takes `mode` on `key` and records the key in `locked` the first
    /// time this transaction holds it. Returns whether it was the first.
    fn lock(&mut self, key: &[u8], mode: LockMode) -> Result<bool> {
        let new = self.store.inner.locks.lock(self.id, key, mode)?;
        if new {
            self.locked.push(key.to_vec());
        }
        Ok(new)
    }

    /// Registers this txn on the store's `active_scans` gauge (once).
    /// While the gauge is non-zero, point inserts pay the successor gap
    /// lock that makes next-key locking airtight; the gauge drops when
    /// the txn finishes or prepares (a prepared txn never reads again,
    /// so a later insert serializes after its lock point regardless).
    fn register_scan(&mut self) {
        if !self.scan_registered {
            self.scan_registered = true;
            self.store.inner.active_scans.update(|n| n + 1);
        }
    }

    fn unregister_scan(&mut self) {
        if self.scan_registered {
            self.scan_registered = false;
            self.store.inner.active_scans.update(|n| n - 1);
        }
    }

    fn release_locks(&mut self) {
        let keys = std::mem::take(&mut self.locked);
        self.store.inner.locks.release(self.id, keys);
        self.unregister_scan();
    }

    fn abort_with(&mut self, err: StoreError) -> StoreError {
        self.release_locks();
        self.state = TxnState::Finished;
        self.store.count().aborts += 1;
        err
    }

    /// The one span fence, under scans (S), range deletes (X) and — as its
    /// pass alone, with `try_lock` — OCC validation. Pass, then fence: lock
    /// every key *present* in the span (deleted versions still fence gaps)
    /// plus the next key beyond it, plus every key another transaction
    /// holds X there. The pass cannot see a key written but not yet in the
    /// store — an insert whose writer has not committed, or a prepared
    /// write that may already be acknowledged — and its writer holds it X
    /// until the write is applied or dropped, so the grant waits for that.
    /// An apply epoch unmoved since before the pass proves no version
    /// slipped in ahead of the last lock grant. A moved one — any commit
    /// on this store, the awaited apply included — goes round again: a
    /// pass that reads back exactly what is already fenced is the same
    /// proof. Rounds only ever add locks (2PL never releases mid-txn), so
    /// the loop converges or conflicts out.
    fn fence_span(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: usize,
        mode: LockMode,
    ) -> Result<FencedSpan> {
        self.register_scan();
        let mut fenced: Option<FencedSpan> = None;
        for _round in 0..=16 {
            let epoch = self.store.apply_epoch();
            let span = self.store.fenced_pass(start, end, limit)?;
            if fenced.as_ref() == Some(&span) {
                return Ok(span);
            }
            for k in span.present.iter().chain(std::iter::once(&span.bound)) {
                self.lock(k, mode)?;
            }
            // The bound lies short of `end` only when `limit` cut the pass.
            let upper = end.min(&span.bound);
            let locks = &self.store.inner.locks;
            for k in locks.exclusive_in_span(self.id, start, upper) {
                self.lock(&k, mode)?;
            }
            if self.store.apply_epoch() == epoch {
                return Ok(span);
            }
            fenced = Some(span);
        }
        Err(StoreError::Conflict)
    }

    /// Insert-side half of next-key locking, paid only while some scan is
    /// live: a brand-new key lands in a gap some scanner may have fenced,
    /// and the fence for any gap is the successor key — which that scanner
    /// locked. Returns that fence key for the writer to X-lock (colliding
    /// there is exactly the phantom being refused), or `None` when `key`
    /// is present (an overwrite is fenced by the key's own X-lock) or no
    /// scan is live.
    fn insert_fence(&self, key: &[u8]) -> Result<Option<UserKey>> {
        if self.store.inner.active_scans.get() == 0 {
            return Ok(None);
        }
        Ok(match self.store.successor_key(key)? {
            Some(k) if k.as_slice() == key => None,
            other => Some(other.unwrap_or_else(|| EOF_SENTINEL.to_vec())),
        })
    }

    /// One raw pass over `[start, end)` of at most `limit` rows (`0` =
    /// unbounded): fenced under a pessimistic transaction, recorded for
    /// validation under an optimistic one.
    fn scan_page(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(UserKey, Vec<u8>)>> {
        match self.mode {
            TxnMode::Pessimistic => match self.fence_span(start, end, limit, LockMode::Shared) {
                Ok(span) => Ok(span.rows),
                Err(e) => Err(self.abort_with(e)),
            },
            TxnMode::Optimistic => {
                let raw = self.store.scan(start, end, SeqNum::MAX, limit)?;
                self.scan_set
                    .push((start.to_vec(), end.to_vec(), limit, raw.clone()));
                Ok(raw)
            }
        }
    }

    /// Overlays this txn's buffered writes and range deletes onto raw
    /// store scan results, returning the merged view of `[start, end)`.
    fn overlay_scan(
        &self,
        start: &[u8],
        end: &[u8],
        raw: &[(UserKey, Vec<u8>)],
        limit: usize,
    ) -> Vec<(UserKey, Vec<u8>)> {
        let mut view: std::collections::BTreeMap<UserKey, Vec<u8>> = raw.iter().cloned().collect();
        // Buffered range deletes shadow store state; buffered point writes
        // are applied afterwards because `delete_range` already rewrote
        // covered buffer entries, so the buffer is strictly newer.
        for (s, e) in &self.ranges {
            let doomed: Vec<UserKey> = view
                .range(s.clone()..e.clone())
                .map(|(k, _)| k.clone())
                .collect();
            for k in doomed {
                view.remove(&k);
            }
        }
        for op in self.buffer.to_ops() {
            if op.key.as_slice() < start || op.key.as_slice() >= end {
                continue;
            }
            match op.value {
                Some(v) => {
                    view.insert(op.key, v);
                }
                None => {
                    view.remove(&op.key);
                }
            }
        }
        let mut out: Vec<(UserKey, Vec<u8>)> = view.into_iter().collect();
        if limit > 0 {
            out.truncate(limit);
        }
        out
    }
}

/// Object-safe transaction interface used by the distributed layer.
pub trait EngineTxn {
    /// Reads a key (transactionally: own writes visible).
    ///
    /// # Errors
    ///
    /// Lock timeouts, integrity violations, or use after finish.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Buffers a write.
    ///
    /// # Errors
    ///
    /// Lock timeouts or use after finish.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Buffers a deletion.
    ///
    /// # Errors
    ///
    /// Lock timeouts or use after finish.
    fn delete(&mut self, key: &[u8]) -> Result<()>;

    /// Scans `[start, end)` transactionally (own writes overlaid), up to
    /// `limit` pairs (`0` = unbounded). Pessimistic transactions take
    /// next-key locks so the result set admits no phantoms; optimistic
    /// transactions re-validate the span at commit.
    ///
    /// # Errors
    ///
    /// Lock timeouts, conflicts, integrity violations, or use after
    /// finish.
    fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(UserKey, Vec<u8>)>>;

    /// Buffers a range delete of `[start, end)` — a predicate write: every
    /// present *and future* key in the span up to this txn's commit seq is
    /// deleted (multi-version range tombstone).
    ///
    /// # Errors
    ///
    /// Lock timeouts, integrity violations, or use after finish.
    fn delete_range(&mut self, start: &[u8], end: &[u8]) -> Result<()>;

    /// 2PC phase one: durably prepares the transaction under `gtx`,
    /// holding its locks. After this returns the node guarantees it can
    /// commit the transaction even across a crash (§V-A step 8).
    ///
    /// # Errors
    ///
    /// Conflicts (optimistic), I/O, or stabilization failures — all of
    /// which mean "vote abort".
    fn prepare(&mut self, gtx: GlobalTxId) -> Result<()>;

    /// Commits: the single-node path, and — for a transaction that wrote
    /// nothing — every participant's finish in the distributed read-only
    /// lane (validate, release every lock, log nothing).
    ///
    /// # Errors
    ///
    /// Conflicts (optimistic), I/O, or stabilization failures.
    fn commit(&mut self) -> Result<CommitInfo>;

    /// Rolls back, releasing locks.
    ///
    /// # Errors
    ///
    /// Never fails today; reserved.
    fn rollback(&mut self) -> Result<()>;
}

impl EngineTxn for Txn {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.check_active()?;
        if let Some(own) = self.buffer.get(key) {
            return Ok(own);
        }
        // Covered by an own buffered range delete: gone. (A covered point
        // write issued *after* the range delete would have hit the buffer
        // above — `delete_range` rewrites the older covered entries.)
        if self
            .ranges
            .iter()
            .any(|(s, e)| s.as_slice() <= key && key < e.as_slice())
        {
            return Ok(None);
        }
        match self.mode {
            TxnMode::Pessimistic => {
                if let Err(e) = self.lock(key, LockMode::Shared) {
                    return Err(self.abort_with(e));
                }
                Ok(self.store.read(key, SeqNum::MAX)?.1)
            }
            TxnMode::Optimistic => {
                let (seq, v) = self.store.read(key, SeqNum::MAX)?;
                self.read_set.push((key.to_vec(), seq));
                Ok(v)
            }
        }
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_active()?;
        if self.mode == TxnMode::Pessimistic {
            if let Err(e) = self.lock(key, LockMode::Exclusive) {
                return Err(self.abort_with(e));
            }
            let fence = match self.insert_fence(key) {
                Ok(f) => f,
                Err(e) => return Err(self.abort_with(e)),
            };
            if let Some(bound) = fence {
                if let Err(e) = self.lock(&bound, LockMode::Exclusive) {
                    return Err(self.abort_with(e));
                }
            }
        }
        self.store
            .env()
            .charge_enclave_op(value.len(), self.store.env().costs.record_frame_ns);
        self.buffer.put(key, value);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.check_active()?;
        if self.mode == TxnMode::Pessimistic {
            if let Err(e) = self.lock(key, LockMode::Exclusive) {
                return Err(self.abort_with(e));
            }
        }
        self.buffer.delete(key);
        Ok(())
    }

    fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Result<Vec<(UserKey, Vec<u8>)>> {
        self.check_active()?;
        if start >= end {
            return Ok(Vec::new());
        }
        if limit == 0 {
            let raw = self.scan_page(start, end, 0)?;
            return Ok(self.overlay_scan(start, end, &raw, 0));
        }
        // Only an own delete hides a stored row, so a page of `limit` plus
        // the own deletes in the span yields `limit` rows up to its last
        // key — unless own range deletes hid more, and then the next page
        // reads on from just past that key for the rows still missing.
        let hidden = self.buffer.deletes_in(start, end);
        let mut raw: Vec<(UserKey, Vec<u8>)> = Vec::new();
        let mut from = start.to_vec();
        let mut got = 0;
        loop {
            let want = limit - got + hidden;
            let page = self.scan_page(&from, end, want)?;
            let cut = page.len() == want;
            raw.extend(page);
            // A cut page knows the span only up to its last key.
            let upper = match raw.last() {
                Some((last, _)) if cut => [last.as_slice(), &[0]].concat(),
                _ => end.to_vec(),
            };
            let view = self.overlay_scan(start, &upper, &raw, limit);
            if !cut || view.len() >= limit {
                return Ok(view);
            }
            got = view.len();
            from = upper;
        }
    }

    fn delete_range(&mut self, start: &[u8], end: &[u8]) -> Result<()> {
        self.check_active()?;
        if start >= end {
            return Ok(());
        }
        if self.mode == TxnMode::Pessimistic {
            // X-fence the span: no writer can slip a version of a covered
            // key, or a new key, under this txn's tombstone seq.
            if let Err(e) = self.fence_span(start, end, 0, LockMode::Exclusive) {
                return Err(self.abort_with(e));
            }
        }
        // The range supersedes older covered buffer entries — rewrite them
        // to deletes so read-my-own-writes and the commit order stay
        // consistent (a covered put issued *after* this call wins again,
        // both in the buffer and at the store, where same-seq point
        // writes beat the range tombstone).
        let doomed: Vec<UserKey> = self
            .buffer
            .to_ops()
            .into_iter()
            .map(|w| w.key)
            .filter(|k| k.as_slice() >= start && k.as_slice() < end)
            .collect();
        for k in doomed {
            self.buffer.delete(&k);
        }
        self.ranges.push((start.to_vec(), end.to_vec()));
        Ok(())
    }

    fn prepare(&mut self, gtx: GlobalTxId) -> Result<()> {
        self.check_active()?;
        if self.mode == TxnMode::Optimistic {
            if let Err(e) = self.validate_optimistic() {
                return Err(self.abort_with(e));
            }
        }
        let writes = self.buffer.to_ops();
        let ranges = self.ranges.clone();
        // Every lock moves to the prepared record (same owner id): write
        // locks, the next-key/gap locks of scans and range deletes, and
        // plain read locks. Read locks are held to the commit point, the
        // lock point of the whole transaction, and write locks to the
        // decision. A read lock released here, before every shard voted,
        // would let a writer commit over the read while this transaction
        // could still take a lock elsewhere: T1 = r(x)@A w(y)@B and
        // T2 = w(x)@A r(y)@B would both commit.
        let lock_keys = self.locked.clone();
        let rec = WalRecord::Prepare {
            gtx,
            writes: writes.clone(),
            ranges: ranges.clone(),
        };
        let entry = PreparedState {
            writes,
            ranges,
            lock_keys,
            lock_owner: self.id,
            deciding: false,
            stable: false,
        };
        // Participants only ACK once the prepare entry is stabilized —
        // otherwise a crash could lose a vote the coordinator relied on —
        // and never for a transaction an abort decided during the round.
        let prepared = &self.store.inner.prepared;
        let voted = self
            .store
            .group_commit(&rec, Effect::Prepare(gtx, entry))
            .and_then(|(counter, wal)| stabilize_traced(&wal, counter))
            .and_then(|()| match prepared.mark_stable(&gtx) {
                true => Ok(()),
                false => Err(StoreError::UnknownPrepared),
            });
        if let Err(e) = voted {
            // The `Prepare` may be on disk: log its abort, so a restart
            // finds it decided. An abort that already claimed the entry
            // logs its own `Decide`.
            let _ = self.store.decide_prepared(gtx, false);
            return Err(self.abort_with(e));
        }
        treaty_sim::crashpoint::hit(CrashPoint::StorePrepareLogged);
        self.locked.clear();
        // A prepared txn never reads again, so later inserts serialize
        // after its lock point even without the gauge; the retained gap
        // locks still physically block them until the commit point.
        self.unregister_scan();
        self.state = TxnState::Prepared;
        Ok(())
    }

    fn commit(&mut self) -> Result<CommitInfo> {
        self.check_active()?;
        if self.mode == TxnMode::Optimistic {
            if let Err(e) = self.validate_optimistic() {
                return Err(self.abort_with(e));
            }
        }
        if self.buffer.is_empty() && self.ranges.is_empty() {
            // Read-only: nothing to log, no seq, no prepared entry. Every
            // lock drops here, gap locks included — the transaction never
            // reads again, so later writers serialize after it. What it
            // read must be rollback-protected before it is acknowledged:
            // wait out any WAL record appended ahead of the last read (a
            // group commit drops its locks before stabilizing).
            self.release_locks();
            self.state = TxnState::Finished;
            if let Err(e) = self.store.stabilize_wal_tail() {
                return Err(self.abort_with(e));
            }
            self.store.count().commits += 1;
            return Ok(CommitInfo {
                seq: 0,
                wal_counter: 0,
            });
        }
        let writes = self.buffer.to_ops();
        let seq = self.store.inner.seq.replace(self.store.inner.seq.get() + 1) + 1;
        let (seq, counter, wal) = match self.store.commit_writes(seq, &writes, &self.ranges) {
            Ok(x) => x,
            Err(e) => {
                // The seq is allocated but the commit failed: fill its
                // hole so the contiguous stable frontier is not frozen
                // forever by the leaked number (which would silently pin
                // every future snapshot read to the pre-failure state).
                self.store.inner.frontier.record(seq);
                return Err(self.abort_with(e));
            }
        };
        // Conflicting transactions are ordered by the WAL; locks can drop
        // before stabilization (the paper exploits exactly this window).
        self.release_locks();
        self.state = TxnState::Finished;
        let stabilized = stabilize_traced(&wal, counter);
        // Recorded even if stabilization failed: the writes are already
        // applied and visible to locked reads, so snapshot parity holds
        // either way, and skipping the record would wedge the frontier.
        self.store.inner.frontier.record(seq);
        stabilized?;
        Ok(CommitInfo {
            seq,
            wal_counter: counter,
        })
    }

    fn rollback(&mut self) -> Result<()> {
        if self.state != TxnState::Active {
            return Ok(());
        }
        self.release_locks();
        self.state = TxnState::Finished;
        self.store.count().aborts += 1;
        Ok(())
    }
}

impl Txn {
    /// Locks `key` in `mode` without waiting; a refusal is a conflict.
    /// Held until the txn finishes, or if it prepares, until the decision.
    fn try_lock(&mut self, key: UserKey, mode: LockMode) -> Result<()> {
        if self
            .store
            .inner
            .locks
            .try_lock(self.id, &key, mode)
            .map_err(|_| StoreError::Conflict)?
        {
            self.locked.push(key);
        }
        Ok(())
    }

    /// OCC validation: write set lockable, read keys S-lockable with their
    /// versions unchanged, scanned spans unchanged, range-delete spans
    /// lockable.
    fn validate_optimistic(&mut self) -> Result<()> {
        let write_keys: Vec<UserKey> = self.buffer.to_ops().into_iter().map(|w| w.key).collect();
        for key in &write_keys {
            self.try_lock(key.clone(), LockMode::Exclusive)?;
        }
        // Range deletes: X-lock every present covered key plus the gap
        // bound — the pessimistic fence's pass, taken without waiting.
        let ranges = self.ranges.clone();
        for (s, e) in &ranges {
            let span = self.store.fenced_pass(s, e, 0)?;
            for k in span.present.into_iter().chain(std::iter::once(span.bound)) {
                self.try_lock(k, LockMode::Exclusive)?;
            }
        }
        // Inserts of brand-new keys while some scan is live conflict on
        // the successor's fence lock.
        for key in &write_keys {
            if let Some(bound) = self.insert_fence(key)? {
                self.try_lock(bound, LockMode::Exclusive)?;
            }
        }
        // Silo's rule: a read key another committer holds X-locked may be
        // overwritten before its seq changes, so the S lock refuses it, and
        // holds off a writer that validates later. Without it, two txns
        // that each read what the other writes both commit (write skew).
        let read_keys: Vec<UserKey> = self.read_set.iter().map(|(k, _)| k.clone()).collect();
        for key in read_keys {
            self.try_lock(key, LockMode::Shared)?;
        }
        // A version a prepared transaction is about to replace is no
        // longer the latest word, whatever its seq: that writer may be
        // acknowledged already.
        let prepared = &self.store.inner.prepared;
        for (key, seen) in &self.read_set {
            if prepared.overlaps(key) || self.store.latest_seq(key)? != *seen {
                return Err(StoreError::Conflict);
            }
        }
        // Scan re-validation: the raw span must read back identically —
        // any slipped-in, removed or rewritten key is a conflict.
        for (s, e, raw_limit, raw) in &self.scan_set {
            if prepared.overlaps_span(s, e)
                || &self.store.scan(s, e, SeqNum::MAX, *raw_limit)? != raw
            {
                return Err(StoreError::Conflict);
            }
        }
        Ok(())
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            let _ = self.rollback();
        }
    }
}

/// What the 2PC layer needs from a shard (Fig. 2): run a transaction,
/// commit or abort a prepared one, and list what is in doubt. The snapshot
/// lane and the store counters are [`TreatyStore`]'s own.
pub trait TxnEngine {
    /// Begins a transaction.
    fn begin_txn(&self, mode: TxnMode) -> Box<dyn EngineTxn>;

    /// Commits a prepared transaction (idempotent — recovery may retry).
    ///
    /// # Errors
    ///
    /// I/O or integrity failures.
    fn commit_prepared(&self, gtx: GlobalTxId) -> Result<()>;

    /// Aborts a prepared transaction (idempotent).
    ///
    /// # Errors
    ///
    /// I/O or integrity failures.
    fn abort_prepared(&self, gtx: GlobalTxId) -> Result<()>;

    /// Transactions prepared but undecided (asked during recovery).
    fn prepared_txns(&self) -> Vec<GlobalTxId>;

    /// `gtx` passed its commit point, its lock point: releases every key
    /// its prepared entry holds only in S mode (reads, scan next-key and
    /// gap locks, OCC validation's S locks) and keeps every X key to the
    /// decision. Nothing else changes: the entry stays prepared and in
    /// doubt. A no-op for an unknown, unstable or deciding entry, and on
    /// an engine whose node writes no decision record.
    fn release_prepared_reads(&self, gtx: GlobalTxId);
}

impl TreatyStore {
    /// Logs and applies a prepared transaction's decision.
    fn decide_prepared(&self, gtx: GlobalTxId, commit: bool) -> Result<()> {
        // Claim, don't remove: until this fiber has inserted the writes its
        // `Decide` logged, the entry keeps the write set's keys in-doubt
        // for `overlaps`, so a concurrent snapshot validation cannot pass in
        // the window between this decision and its writes becoming visible
        // (the WAL append and the apply both yield). Without that hold, a
        // multi-shard read-only transaction that saw the commit on one shard
        // could validate cleanly here and tear the snapshot.
        let Some(PreparedDecision {
            writes,
            ranges,
            lock_keys,
            lock_owner,
        }) = self.inner.prepared.begin_decide(&gtx)
        else {
            return Ok(()); // already decided or deciding: ignore (§VI)
        };
        let seq = if commit {
            self.inner.seq.replace(self.inner.seq.get() + 1) + 1
        } else {
            0
        };
        let rec = WalRecord::Decide { gtx, commit, seq };
        let versions = commit.then_some((seq, writes, ranges));
        let logged = self.group_commit(&rec, Effect::Decide(gtx, versions));
        // Nothing logged: un-claim, keeping the entry and its locks, so
        // recovery can retry the decision. An error with the entry gone
        // came after the decision took effect — an abort's entry leaves in
        // the leader's turn, a commit's after its insert, and the rotation
        // that insert may trigger fails after both — so it is not undone.
        let retryable = logged.is_err() && self.inner.prepared.cancel_decide(&gtx);
        if !retryable {
            self.inner.locks.release(lock_owner, lock_keys);
        }
        if commit {
            // The commit decision's rollback protection is the
            // coordinator's Clog; the participant need not wait here
            // (§V-A). The version is nonetheless snapshot-stable already:
            // the prepare record was stabilized before this participant
            // ACKed its vote, so the write set survives any rollback.
            // Recorded on every path — applied, the writes are in the
            // MemTable at `seq` whatever the rotation did; not logged,
            // nothing is visible at `seq` — because the stable frontier
            // only advances contiguously and a hole would wedge it.
            self.inner.frontier.record(seq);
        }
        logged?;
        let mut stats = self.count();
        if commit {
            stats.commits += 1;
        } else {
            stats.aborts += 1;
        }
        Ok(())
    }
}

impl TxnEngine for TreatyStore {
    fn begin_txn(&self, mode: TxnMode) -> Box<dyn EngineTxn> {
        Box::new(self.begin_mode(mode))
    }

    fn commit_prepared(&self, gtx: GlobalTxId) -> Result<()> {
        treaty_sim::runtime::set_tag("e:commit_prepared");
        self.decide_prepared(gtx, true)
    }

    fn abort_prepared(&self, gtx: GlobalTxId) -> Result<()> {
        self.decide_prepared(gtx, false)
    }

    fn prepared_txns(&self) -> Vec<GlobalTxId> {
        self.inner.prepared.ids()
    }

    fn release_prepared_reads(&self, gtx: GlobalTxId) {
        self.inner.prepared.release_reads(&gtx, &self.inner.locks);
    }
}

// ---------------------------------------------------------------------------

/// An engine with no persistent storage: used to evaluate the 2PC protocol
/// in isolation (§VIII-B / Fig. 4). It implements the 2PC contract and
/// carries only the traffic Fig. 4 sends, point reads and writes: no
/// versions, so no snapshot lane, and a scan or range delete is refused
/// with [`StoreError::Unsupported`]. Locking semantics are preserved;
/// durability is not. Clones share one state.
#[derive(Clone)]
pub struct NullEngine {
    state: Rc<NullState>,
}

struct NullState {
    data: FiberCell<HashMap<UserKey, Vec<u8>>>,
    locks: LockTable,
    /// A prepared transaction keeps every lock to its decision, read locks
    /// included; without a decision record that follows its commit point
    /// at once.
    prepared: FiberCell<HashMap<GlobalTxId, NullPrepared>>,
    next_txid: Cell<u64>,
}

/// A prepared transaction's lock owner, writes and every key it locked.
type NullPrepared = (u64, Vec<WriteOp>, Vec<UserKey>);

impl Default for NullEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for NullEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NullEngine").finish_non_exhaustive()
    }
}

impl NullEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        NullEngine {
            state: Rc::new(NullState {
                data: FiberCell::new(HashMap::new()),
                locks: LockTable::new(LOCK_SHARDS, LOCK_TIMEOUT),
                prepared: FiberCell::new(HashMap::new()),
                next_txid: Cell::new(1),
            }),
        }
    }
}

// The trait requires 'static boxes; NullEngine hands out transactions tied
// to its shared state instead.
struct NullTxnOwned {
    engine: Rc<NullState>,
    id: u64,
    buffer: TxBuffer,
    locked: Vec<UserKey>,
    done: bool,
}

impl TxnEngine for NullEngine {
    fn begin_txn(&self, _mode: TxnMode) -> Box<dyn EngineTxn> {
        let id = self.state.next_txid.replace(self.state.next_txid.get() + 1);
        Box::new(NullTxnOwned {
            engine: Rc::clone(&self.state),
            id,
            buffer: TxBuffer::new(),
            locked: Vec::new(),
            done: false,
        })
    }

    fn commit_prepared(&self, gtx: GlobalTxId) -> Result<()> {
        let e = &self.state;
        if let Some((owner, writes, locked)) = e.prepared.borrow_mut().remove(&gtx) {
            let mut data = e.data.borrow_mut();
            for w in writes {
                match w.value {
                    Some(v) => {
                        data.insert(w.key, v);
                    }
                    None => {
                        data.remove(&w.key);
                    }
                }
            }
            drop(data);
            e.locks.release(owner, locked);
        }
        Ok(())
    }

    fn abort_prepared(&self, gtx: GlobalTxId) -> Result<()> {
        let e = &self.state;
        if let Some((owner, _, locked)) = e.prepared.borrow_mut().remove(&gtx) {
            e.locks.release(owner, locked);
        }
        Ok(())
    }

    fn prepared_txns(&self) -> Vec<GlobalTxId> {
        let mut ids: Vec<GlobalTxId> = self.state.prepared.borrow().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// A no-op: only a node without a Clog runs this engine, and such a
    /// node writes no decision record, so its phase two follows the commit
    /// point at once and releases every lock (`release_reads_at_commit_point`
    /// in `treaty-core` sends nothing there).
    fn release_prepared_reads(&self, _gtx: GlobalTxId) {}
}

impl EngineTxn for NullTxnOwned {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if self.done {
            return Err(StoreError::Finished);
        }
        if let Some(own) = self.buffer.get(key) {
            return Ok(own);
        }
        let e = &self.engine;
        e.locks.lock(self.id, key, LockMode::Shared)?;
        self.locked.push(key.to_vec());
        Ok(e.data.borrow().get(key).cloned())
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if self.done {
            return Err(StoreError::Finished);
        }
        let e = &self.engine;
        e.locks.lock(self.id, key, LockMode::Exclusive)?;
        self.locked.push(key.to_vec());
        self.buffer.put(key, value);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<()> {
        if self.done {
            return Err(StoreError::Finished);
        }
        let e = &self.engine;
        e.locks.lock(self.id, key, LockMode::Exclusive)?;
        self.locked.push(key.to_vec());
        self.buffer.delete(key);
        Ok(())
    }

    fn scan(&mut self, _: &[u8], _: &[u8], _: usize) -> Result<Vec<(UserKey, Vec<u8>)>> {
        Err(StoreError::Unsupported)
    }

    fn delete_range(&mut self, _: &[u8], _: &[u8]) -> Result<()> {
        Err(StoreError::Unsupported)
    }

    fn prepare(&mut self, gtx: GlobalTxId) -> Result<()> {
        if self.done {
            return Err(StoreError::Finished);
        }
        let locked = std::mem::take(&mut self.locked);
        let entry = (self.id, self.buffer.to_ops(), locked);
        self.engine.prepared.borrow_mut().insert(gtx, entry);
        self.done = true;
        Ok(())
    }

    fn commit(&mut self) -> Result<CommitInfo> {
        if self.done {
            return Err(StoreError::Finished);
        }
        let e = &self.engine;
        {
            let mut data = e.data.borrow_mut();
            for w in self.buffer.to_ops() {
                match w.value {
                    Some(v) => {
                        data.insert(w.key, v);
                    }
                    None => {
                        data.remove(&w.key);
                    }
                }
            }
        }
        e.locks.release(self.id, std::mem::take(&mut self.locked));
        self.done = true;
        Ok(CommitInfo {
            seq: 0,
            wal_counter: 0,
        })
    }

    fn rollback(&mut self) -> Result<()> {
        if self.done {
            return Ok(());
        }
        let e = &self.engine;
        e.locks.release(self.id, std::mem::take(&mut self.locked));
        self.done = true;
        Ok(())
    }
}

impl Drop for NullTxnOwned {
    fn drop(&mut self) {
        let _ = self.rollback();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Env;
    use treaty_sim::SecurityProfile;

    /// A key read, then upgraded, then fenced as a gap is one entry of
    /// `locked`: the lock table reports a new holder once, and only then
    /// does the transaction record the key.
    #[test]
    fn a_key_read_upgraded_and_gap_locked_is_recorded_once() {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let store = TreatyStore::open(env).unwrap();
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        assert_eq!(tx.get(b"k").unwrap(), None);
        tx.put(b"k", b"v").unwrap();
        assert!(!tx.lock(b"k", LockMode::Exclusive).unwrap(), "held already");
        assert!(!tx.lock(b"k", LockMode::Shared).unwrap(), "held already");
        assert!(tx.lock(b"n", LockMode::Shared).unwrap(), "a new gap bound");
        assert_eq!(tx.locked, vec![b"k".to_vec(), b"n".to_vec()]);
        assert_eq!(store.locked_keys(), 2);
        tx.commit().unwrap();
        assert_eq!(store.locked_keys(), 0);
        assert_eq!(store.get_committed(b"k").unwrap(), Some(b"v".to_vec()));
    }

    fn store_of_200_keys(dir: &std::path::Path) -> TreatyStore {
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir);
        let store = TreatyStore::open(env).unwrap();
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        for i in 0..200 {
            tx.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        tx.commit().unwrap();
        store
    }

    fn names<'a>(keys: impl IntoIterator<Item = &'a UserKey>) -> Vec<String> {
        keys.into_iter()
            .map(|k| String::from_utf8_lossy(k).into_owned())
            .collect()
    }

    fn keys(rows: &[(UserKey, Vec<u8>)]) -> Vec<String> {
        names(rows.iter().map(|(k, _)| k))
    }

    /// A limited scan after an own write locks its rows and one bound,
    /// not the whole span: the raw pass stops at the limit plus the own
    /// deletes in the span (it read and locked every key up to `end`
    /// whenever the transaction had buffered a write).
    #[test]
    fn a_scan_after_an_own_write_locks_only_its_limit() {
        let dir = tempfile::tempdir().unwrap();
        let store = store_of_200_keys(dir.path());
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.put(b"k100", b"w").unwrap();
        let rows = tx.scan(b"k", b"l", 5).unwrap();
        assert_eq!(keys(&rows), ["k000", "k001", "k002", "k003", "k004"]);
        // k100, five rows and the bound k005.
        assert_eq!(tx.locked.len(), 7, "{:?}", names(&tx.locked));
        tx.rollback().unwrap();

        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.delete(b"k001").unwrap();
        let rows = tx.scan(b"k", b"l", 5).unwrap();
        assert_eq!(keys(&rows), ["k000", "k002", "k003", "k004", "k005"]);
        // Six raw rows (k001 among them, X already) and the bound k006.
        assert_eq!(tx.locked.len(), 7, "{:?}", names(&tx.locked));
    }

    /// Rows an own range delete hides do not count toward the limit: the
    /// scan pages on past them, in both modes, and own puts inside the
    /// deleted span read back.
    #[test]
    fn a_limited_scan_pages_past_an_own_range_delete() {
        let dir = tempfile::tempdir().unwrap();
        let store = store_of_200_keys(dir.path());
        for mode in [TxnMode::Pessimistic, TxnMode::Optimistic] {
            let mut tx = store.begin_mode(mode);
            tx.delete_range(b"k000", b"k050").unwrap();
            tx.put(b"k020", b"w").unwrap();
            let rows = tx.scan(b"k", b"l", 4).unwrap();
            assert_eq!(keys(&rows), ["k020", "k050", "k051", "k052"], "{mode:?}");
            tx.rollback().unwrap();
        }
    }
}
