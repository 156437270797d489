//! The client library: interactive transactions over a mutually
//! authenticated channel (§IV-A).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use treaty_crypto::{Key, Protection, TxMeta};
use treaty_net::{EndpointConfig, EndpointId, Fabric, Rpc, RpcConfig};
use treaty_sim::obs::{Counter, Phase};
use treaty_sim::Nanos;
use treaty_store::GlobalTxId;

use crate::messages::{
    decode, encode, req, ClientCommitReq, CommitResult, ObsSnapshotReply, Op, OpResult,
    SnapshotReadReply, SnapshotReadReq, SnapshotValidateReply, SnapshotValidateReq, WriteCmd,
};
use crate::shard::ShardMap;
use crate::{Result, TreatyError};

/// A Treaty client bound to one fabric endpoint.
///
/// The paper's clients run on separate machines behind a 1 Gb/s NIC; the
/// default [`client_net`] reflects that.
pub struct TreatyClient {
    rpc: Rc<Rpc>,
    client_id: u32,
    next_seq: Cell<u32>,
    /// Key-space partitioning, needed only by the read-only snapshot path
    /// (which talks to shards directly, skipping the coordinator).
    shards: Option<ShardMap>,
}

impl std::fmt::Debug for TreatyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreatyClient")
            .field("client_id", &self.client_id)
            .finish_non_exhaustive()
    }
}

/// The paper's client network configuration: kernel sockets over the
/// secondary 1 Gb/s NIC.
pub fn client_net() -> EndpointConfig {
    EndpointConfig {
        transport: treaty_sim::Transport::KernelTcp,
        tee: treaty_sim::TeeMode::Native,
        link_gbps: 1,
    }
}

impl TreatyClient {
    /// Connects a client. `client_id` must be unique on the fabric (its
    /// endpoint is `client_id` itself), and is assumed already registered
    /// and authenticated with the CAS.
    pub fn connect(
        fabric: &Rc<Fabric>,
        client_id: u32,
        crypto: Protection,
        network_key: Key,
        timeout: Nanos,
    ) -> Self {
        let rpc = Rpc::new(
            fabric,
            client_id,
            RpcConfig {
                endpoint: client_net(),
                crypto,
                key: network_key,
                cores: None,
                timeout,
            },
        );
        rpc.start();
        TreatyClient {
            rpc,
            client_id,
            next_seq: Cell::new(1),
            shards: None,
        }
    }

    /// Attaches the cluster's shard map, enabling the read-only snapshot
    /// path ([`TreatyClient::begin_read_only`]).
    #[must_use]
    pub fn with_shard_map(mut self, shards: ShardMap) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The client's id / endpoint.
    pub fn id(&self) -> u32 {
        self.client_id
    }

    /// Begins an interactive transaction coordinated by `coordinator`.
    pub fn begin(&self, coordinator: EndpointId) -> DistTxn<'_> {
        let local = self.next_seq.replace(self.next_seq.get() + 1);
        // Cluster-unique transaction sequence: client id ‖ local counter.
        let seq = ((self.client_id as u64) << 32) | local as u64;
        treaty_sim::obs::set_node(self.client_id);
        {
            let _txn = treaty_sim::obs::txn_scope(seq);
            treaty_sim::obs::instant(
                Phase::ClientBegin,
                &[("coordinator", u64::from(coordinator))],
            );
        }
        DistTxn {
            client: self,
            coordinator,
            seq,
            op_seq: 1,
            finished: false,
            pending: Vec::new(),
            begin_ts: treaty_sim::runtime::now(),
        }
    }

    /// Begins a lock-free read-only transaction: reads go straight to the
    /// owning shards at their stable read timestamps — one round trip per
    /// shard, no coordinator, no 2PC state, and zero lock-table traffic.
    ///
    /// # Errors
    ///
    /// [`TreatyError::Rejected`] when no shard map was attached
    /// ([`TreatyClient::with_shard_map`]).
    pub fn begin_read_only(&self) -> Result<SnapshotTxn<'_>> {
        let shards = self
            .shards
            .clone()
            .ok_or_else(|| TreatyError::Rejected("read-only path needs a shard map".into()))?;
        let local = self.next_seq.replace(self.next_seq.get() + 1);
        let seq = ((self.client_id as u64) << 32) | local as u64;
        treaty_sim::obs::set_node(self.client_id);
        {
            let _txn = treaty_sim::obs::txn_scope(seq);
            treaty_sim::obs::instant(Phase::ClientBeginReadOnly, &[]);
        }
        Ok(SnapshotTxn {
            client: self,
            shards,
            seq,
            op_seq: 1,
            pinned: BTreeMap::new(),
            validate_set: BTreeMap::new(),
            validate_spans: BTreeMap::new(),
        })
    }

    /// One-shot snapshot read of a key batch with the staleness/retry
    /// protocol built in: runs a read-only transaction (including the
    /// multi-shard validation round), and on a retryable rejection —
    /// stale timestamp, in-doubt prepare, failed validation — refreshes
    /// the snapshot and tries again, up to a bounded number of attempts.
    ///
    /// # Errors
    ///
    /// Network errors, or [`TreatyError::Rejected`] when the retry budget
    /// is exhausted (a pathologically write-hot key set).
    pub fn snapshot_read(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.read_only(|txn| txn.get_many(keys))
    }

    /// One-shot snapshot range scan with the staleness/retry protocol
    /// built in (the scan analogue of [`TreatyClient::snapshot_read`]):
    /// runs a read-only transaction — the scan fans out to every shard and
    /// the finish round validates the scanned spans — retrying on stale,
    /// in-doubt or failed-validation rejections up to a bounded number of
    /// attempts.
    ///
    /// # Errors
    ///
    /// Network errors, or [`TreatyError::Rejected`] when the retry budget
    /// is exhausted (a pathologically write-hot span).
    pub fn snapshot_scan(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.read_only(|txn| txn.scan(start, end, limit))
    }

    /// Runs `body` in a fresh read-only transaction and finishes it,
    /// starting over on a retryable rejection ([`TreatyError::SnapshotRetry`]:
    /// refresh the snapshot and try again) until the attempts run out. Any
    /// mix of gets and scans in `body` reads one consistent snapshot.
    ///
    /// # Errors
    ///
    /// `body`'s and the finish round's non-retryable errors, or
    /// [`TreatyError::Rejected`] when the retry budget is exhausted.
    pub fn read_only<T>(&self, body: impl Fn(&mut SnapshotTxn<'_>) -> Result<T>) -> Result<T> {
        const ATTEMPTS: u32 = 8;
        let mut last = String::new();
        for attempt in 0..ATTEMPTS {
            let mut txn = self.begin_read_only()?;
            match body(&mut txn).and_then(|out| txn.finish().map(|()| out)) {
                Ok(out) => return Ok(out),
                Err(TreatyError::SnapshotRetry(why)) => last = why,
                Err(e) => return Err(e),
            }
            treaty_sim::obs::counter_add(Counter::ClientSnapshotRetries, 1);
            // Linear deterministic backoff: long enough for the in-doubt
            // prepare to decide, short enough to stay well under a locking
            // read's round-trip budget.
            treaty_sim::runtime::sleep((u64::from(attempt) + 1) * treaty_sim::MILLIS / 4);
        }
        Err(TreatyError::Rejected(format!(
            "read-only transaction gave up after {ATTEMPTS} attempts: {last}"
        )))
    }

    /// Fetches a live introspection snapshot from `node` (queue depths,
    /// stable frontier, backpressure, cache hit rates) — the data source
    /// behind the `treaty-top` cluster dashboard.
    ///
    /// # Errors
    ///
    /// Network errors, or [`TreatyError::Rejected`] on a malformed reply.
    pub fn obs_snapshot(&self, node: EndpointId) -> Result<ObsSnapshotReply> {
        let local = self.next_seq.replace(self.next_seq.get() + 1);
        let tx_id = ((self.client_id as u64) << 32) | local as u64;
        let meta = TxMeta::new(self.client_id as u64, tx_id, 1);
        let (_, bytes) = self
            .rpc
            .call(node, req::OBS_SNAPSHOT, &meta, &[])
            .map_err(|e| TreatyError::Net(e.to_string()))?;
        decode::<ObsSnapshotReply>(&bytes)
            .ok_or_else(|| TreatyError::Rejected("malformed obs snapshot reply".into()))
    }

    /// Disconnects.
    pub fn disconnect(&self) {
        self.rpc.stop();
    }
}

/// An interactive distributed transaction.
///
/// Created by [`TreatyClient::begin`]. Blind writes are deferred — they
/// append to a local pending list and cost nothing until something ships
/// it: a read or range operation the list cannot answer (which travels
/// *behind* the pending writes in the same [`req::CLIENT_OPS`] message, so
/// it observes them and acquires its locks in one round trip), an explicit
/// [`DistTxn::flush`], or the commit (which carries the list in the
/// [`req::CLIENT_COMMIT`] payload, where the coordinator piggybacks each
/// shard's slice on its prepare message). [`DistTxn::commit`] runs the
/// secure 2PC.
pub struct DistTxn<'a> {
    client: &'a TreatyClient,
    coordinator: EndpointId,
    seq: u64,
    op_seq: u64,
    finished: bool,
    /// Writes in issue order, not yet shipped to the coordinator.
    pending: Vec<WriteCmd>,
    /// Virtual time `begin` was called — the client-measured latency
    /// anchor reported on the `client.committed` trace instant.
    begin_ts: Nanos,
}

impl std::fmt::Debug for DistTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistTxn")
            .field("gtx", &self.gtx())
            .finish_non_exhaustive()
    }
}

impl<'a> DistTxn<'a> {
    /// The transaction's global id.
    pub fn gtx(&self) -> GlobalTxId {
        GlobalTxId {
            node: self.coordinator as u64,
            seq: self.seq,
        }
    }

    /// The metadata of the transaction's next message. Every message takes
    /// the next `op_id`, from 1, so the coordinator can tell a commit that
    /// is the transaction's first message from one that follows state it
    /// may have lost.
    fn meta(&mut self) -> TxMeta {
        let op_id = self.op_seq;
        self.op_seq += 1;
        TxMeta::new(self.client.client_id as u64, self.seq, op_id)
    }

    /// Tells the coordinator to drop the transaction after a client-side
    /// failure, so participants' locks are not leaked. Retried because the
    /// same lossy network that caused the failure may drop this too;
    /// rolling back an already-finished transaction is a no-op server-side.
    fn best_effort_rollback(&mut self) {
        for _ in 0..3 {
            let meta = self.meta();
            if self
                .client
                .rpc
                .call(self.coordinator, req::CLIENT_ROLLBACK, &meta, &[])
                .is_ok()
            {
                return;
            }
        }
    }

    fn ensure_open(&self) -> Result<()> {
        if self.finished {
            return Err(TreatyError::Rejected("transaction finished".into()));
        }
        Ok(())
    }

    /// Ships the pending writes, followed by `last` if any, to the
    /// coordinator in one sealed [`req::CLIENT_OPS`] message and returns
    /// the last operation's result.
    fn ship(&mut self, last: Option<Op>) -> Result<OpResult> {
        self.ensure_open()?;
        let ops: Vec<Op> = std::mem::take(&mut self.pending)
            .into_iter()
            .map(Op::Write)
            .chain(last)
            .collect();
        let _txn = treaty_sim::obs::txn_scope(self.seq);
        let _span = treaty_sim::obs::span_with(Phase::ClientOp, &[("ops", ops.len() as u64)]);
        let meta = self.meta();
        let call = self
            .client
            .rpc
            .call(self.coordinator, req::CLIENT_OPS, &meta, &encode(&ops));
        let (_, bytes) = match call {
            Ok(x) => x,
            Err(e) => {
                self.finished = true;
                self.best_effort_rollback();
                return Err(TreatyError::Net(e.to_string()));
            }
        };
        match decode::<OpResult>(&bytes) {
            Some(OpResult::Failed(abort)) => {
                self.finished = true;
                Err(TreatyError::Aborted(self.gtx(), abort))
            }
            Some(result) => Ok(result),
            None => {
                self.finished = true;
                Err(TreatyError::Rejected("malformed coordinator reply".into()))
            }
        }
    }

    /// Appends a write to the pending list.
    fn buffer(&mut self, write: WriteCmd) -> Result<()> {
        self.ensure_open()?;
        treaty_sim::obs::counter_add(Counter::ClientBufferedWrites, 1);
        self.pending.push(write);
        Ok(())
    }

    /// Ships whatever writes are pending now instead of with the next read
    /// or the commit — they take their locks on the cluster before this
    /// returns. A no-op (and no round trip) when nothing is pending.
    ///
    /// # Errors
    ///
    /// See [`DistTxn::get`].
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.ship(None).map(|_| ())
    }

    /// Transactional read. A key the transaction has a pending write for
    /// is answered straight from the list (read-your-writes, zero round
    /// trips); any other read ships the list ahead of itself in the same
    /// message, so the cluster-side transaction observes every write
    /// issued before it.
    ///
    /// # Errors
    ///
    /// [`TreatyError::Aborted`] if the operation aborted the transaction
    /// (lock timeout, conflict), [`TreatyError::Net`] on network failure.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.ensure_open()?;
        // Last pending write to this key wins — including a pending
        // delete, which reads back as absent.
        if let Some(cmd) = self.pending.iter().rev().find(|c| c.key == key) {
            treaty_sim::obs::counter_add(Counter::ClientBufferReadHits, 1);
            return Ok(cmd.value.clone());
        }
        match self.ship(Some(Op::Get { key: key.to_vec() }))? {
            OpResult::Ok { value } => Ok(value),
            _ => Err(TreatyError::Rejected("unexpected reply shape".into())),
        }
    }

    /// Transactional write: appended to the pending list and free until a
    /// read must observe it, [`DistTxn::flush`], or the commit.
    ///
    /// # Errors
    ///
    /// [`TreatyError::Rejected`] on a finished transaction.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.buffer(WriteCmd::put(key, value))
    }

    /// Transactional delete — deferred exactly like [`DistTxn::put`].
    ///
    /// # Errors
    ///
    /// See [`DistTxn::put`].
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.buffer(WriteCmd::delete(key))
    }

    /// Transactional range scan of `[start, end)`, serializable via
    /// next-key locking on every shard (no phantoms). Returns up to
    /// `limit` pairs in ascending key order (`0` = unbounded); the
    /// coordinator fans the span out to every shard and merges. A span can
    /// overlap any pending key, so the pending writes always travel ahead
    /// of the scan and it observes this transaction's own writes.
    ///
    /// # Errors
    ///
    /// See [`DistTxn::get`].
    pub fn scan(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self.ship(Some(Op::Scan {
            start: start.to_vec(),
            end: end.to_vec(),
            limit: limit as u64,
        }))? {
            OpResult::Entries { entries } => Ok(entries),
            _ => Err(TreatyError::Rejected("unexpected scan reply shape".into())),
        }
    }

    /// Transactional range delete of `[start, end)`: every shard buffers a
    /// multi-version range tombstone over its slice, visible (to this
    /// transaction immediately, to others at commit) as the whole span
    /// being deleted. Pending writes inside the span land first, so the
    /// tombstone shadows them in issue order.
    ///
    /// # Errors
    ///
    /// See [`DistTxn::get`].
    pub fn delete_range(&mut self, start: &[u8], end: &[u8]) -> Result<()> {
        self.ship(Some(Op::RangeDelete {
            start: start.to_vec(),
            end: end.to_vec(),
        }))
        .map(|_| ())
    }

    /// Commits via the secure 2PC. On success the transaction is durable
    /// and — under the stabilization profile — rollback-protected.
    ///
    /// # Errors
    ///
    /// [`TreatyError::Aborted`] with the abort's cause, or network errors.
    pub fn commit(mut self) -> Result<()> {
        self.ensure_open()?;
        self.finished = true;
        let _txn = treaty_sim::obs::txn_scope(self.seq);
        let _span = treaty_sim::obs::span(Phase::ClientCommit);
        // Ship the pending writes with the commit itself: the coordinator
        // piggybacks each shard's slice on its prepare message, so a
        // write-only transaction pays one round trip per shard, total.
        let writes = std::mem::take(&mut self.pending);
        treaty_sim::obs::counter_add(Counter::ClientShippedCommitWrites, writes.len() as u64);
        let payload = encode(&ClientCommitReq { writes });
        let meta = self.meta();
        let call = self
            .client
            .rpc
            .call(self.coordinator, req::CLIENT_COMMIT, &meta, &payload);
        let (_, bytes) = match call {
            Ok(x) => x,
            Err(e) => {
                // The outcome is ambiguous (classic 2PC client ambiguity);
                // the rollback below is a no-op if the commit already won.
                self.best_effort_rollback();
                return Err(TreatyError::Net(e.to_string()));
            }
        };
        match decode::<CommitResult>(&bytes) {
            Some(CommitResult::Committed) => {
                // Emitted inside the client.commit span: the attribution
                // walker keys committed transactions (and their measured
                // begin->ack latency) off this instant.
                let elapsed = treaty_sim::runtime::now().saturating_sub(self.begin_ts);
                treaty_sim::obs::instant(Phase::ClientCommitted, &[("elapsed_ns", elapsed)]);
                Ok(())
            }
            Some(CommitResult::Aborted(abort)) => Err(TreatyError::Aborted(self.gtx(), abort)),
            None => Err(TreatyError::Rejected("malformed commit reply".into())),
        }
    }

    /// Rolls the transaction back.
    ///
    /// # Errors
    ///
    /// Network errors only; rollback itself cannot fail.
    pub fn rollback(mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        let meta = self.meta();
        self.client
            .rpc
            .call(self.coordinator, req::CLIENT_ROLLBACK, &meta, &[])
            .map_err(|e| TreatyError::Net(e.to_string()))?;
        Ok(())
    }
}

/// A lock-free read-only transaction ([`TreatyClient::begin_read_only`]).
///
/// Reads go straight to the owning shards' MVCC read paths at a snapshot
/// timestamp pinned lazily per shard (each shard pins its own stable read
/// timestamp on first contact). Because shards version independently, a
/// transaction that touched more than one shard must [`SnapshotTxn::finish`]
/// with a validation round proving no commit or in-flight prepare slipped
/// between its per-shard snapshots; single-shard transactions are
/// consistent by construction and finish for free.
///
/// No server-side state exists for this transaction — dropping it without
/// finishing leaks nothing (there are no locks to leak).
pub struct SnapshotTxn<'a> {
    client: &'a TreatyClient,
    shards: ShardMap,
    seq: u64,
    op_seq: u64,
    /// Snapshot timestamp pinned at each shard touched so far.
    pinned: BTreeMap<EndpointId, u64>,
    /// Keys read per shard, for the validation round.
    validate_set: BTreeMap<EndpointId, Vec<Vec<u8>>>,
    /// Spans scanned per shard, validated wholesale at finish (per-key
    /// validation cannot see keys inserted into a span — the phantom).
    validate_spans: BTreeMap<EndpointId, Vec<Span>>,
}

/// A key span `[start, end)`.
type Span = (Vec<u8>, Vec<u8>);

impl std::fmt::Debug for SnapshotTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotTxn")
            .field("seq", &self.seq)
            .field("shards_touched", &self.pinned.len())
            .finish_non_exhaustive()
    }
}

/// One shard's answer to a snapshot round: a value per requested key and a
/// sorted `(key, value)` slice per requested span, both in request order.
type ShardRead = (Vec<Option<Vec<u8>>>, Vec<Vec<(Vec<u8>, Vec<u8>)>>);

impl SnapshotTxn<'_> {
    fn meta(&mut self) -> TxMeta {
        let op_id = self.op_seq;
        self.op_seq += 1;
        TxMeta::new(self.client.client_id as u64, self.seq, op_id)
    }

    /// Reads one key at the snapshot.
    ///
    /// # Errors
    ///
    /// See [`SnapshotTxn::get_many`].
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut values = self.get_many(std::slice::from_ref(&key.to_vec()))?;
        Ok(values.pop().flatten())
    }

    /// Reads a key batch at the snapshot: keys are grouped by owning
    /// shard and each shard is asked once, with the requests in flight
    /// concurrently — one round trip per shard touched.
    ///
    /// # Errors
    ///
    /// [`TreatyError::SnapshotRetry`] when a shard rejects the snapshot
    /// (stale timestamp or in-doubt prepare — the caller retries with a
    /// fresh transaction, which [`TreatyClient::snapshot_read`]
    /// automates), or network errors.
    pub fn get_many(&mut self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        // Group by owning shard, remembering where each value goes.
        let mut slots: BTreeMap<EndpointId, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            slots.entry(self.shards.owner(key)).or_default().push(i);
        }
        let asks = slots
            .iter()
            .map(|(&owner, at)| (owner, at.iter().map(|&i| keys[i].clone()).collect()))
            .collect();
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        for (at, (values, _)) in slots.values().zip(self.read(asks, &[], 0)?) {
            for (slot, value) in at.iter().zip(values) {
                out[*slot] = value;
            }
        }
        Ok(out)
    }

    /// Scans `[start, end)` at the snapshot. Keys are hash-partitioned, so
    /// the span fans out to every shard (each pinning its stable timestamp
    /// on first contact) and the sorted, disjoint slices merge into one
    /// result before the limit applies. The span joins the validation set:
    /// [`SnapshotTxn::finish`] proves no key in it — including keys
    /// *inserted* after the scan — changed past the snapshot.
    ///
    /// # Errors
    ///
    /// See [`SnapshotTxn::get_many`].
    pub fn scan(
        &mut self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let asks = self
            .shards
            .nodes()
            .iter()
            .map(|&n| (n, Vec::new()))
            .collect();
        let span = [(start.to_vec(), end.to_vec())];
        let answers = self.read(asks, &span, limit)?;
        let slices = answers.into_iter().flat_map(|(_, rows)| rows).collect();
        // Shards own disjoint key sets: a true k-way merge over the sorted
        // slices, early-exiting at the limit.
        Ok(crate::node::merge_sorted_slices(slices, limit))
    }

    /// The one snapshot round: asks each shard in `asks` for its keys and
    /// for every span in `spans`, all requests leaving in one burst at the
    /// shard's pinned timestamp (pinning it on first contact), and records
    /// what was read for [`SnapshotTxn::finish`]. Answers come back in
    /// `asks` order.
    fn read(
        &mut self,
        asks: Vec<(EndpointId, Vec<Vec<u8>>)>,
        spans: &[(Vec<u8>, Vec<u8>)],
        limit: usize,
    ) -> Result<Vec<ShardRead>> {
        let _txn = treaty_sim::obs::txn_scope(self.seq);
        let _span = treaty_sim::obs::span_with(
            Phase::ClientSnapshotRead,
            &[("shards", asks.len() as u64), ("spans", spans.len() as u64)],
        );
        let mut asked = Vec::with_capacity(asks.len());
        let mut requests = Vec::with_capacity(asks.len());
        for (owner, keys) in asks {
            // `None` until this shard pins: an explicit option rather than
            // a `0` sentinel, so a shard whose stable frontier is 0 pins
            // exactly once like any other (two reads in one transaction
            // must never re-pin the same shard at a newer timestamp).
            let req_msg = SnapshotReadReq {
                ts: self.pinned.get(&owner).copied(),
                keys,
                spans: spans.to_vec(),
                limit: limit as u64,
            };
            requests.push((owner, req::SNAPSHOT_READ, self.meta(), encode(&req_msg)));
            asked.push(req_msg.keys);
        }
        let replies = self.client.rpc.burst(requests);
        let mut out = Vec::with_capacity(asked.len());
        // A failure outranks a retryable rejection, and either surfaces
        // only once every reply is drained.
        let (mut failed, mut reject) = (None, None);
        for ((owner, reply), keys) in replies.zip(asked) {
            match reply.map(|(_, bytes)| decode::<SnapshotReadReply>(&bytes)) {
                Ok(Some(SnapshotReadReply::Values { ts, values, rows }))
                    if values.len() == keys.len() && rows.len() == spans.len() =>
                {
                    self.pinned.insert(owner, ts);
                    self.validate_set.entry(owner).or_default().extend(keys);
                    let scanned = self.validate_spans.entry(owner).or_default();
                    scanned.extend_from_slice(spans);
                    out.push((values, rows));
                }
                Ok(Some(SnapshotReadReply::Values { .. })) => {
                    failed.get_or_insert(TreatyError::Rejected(
                        "malformed snapshot reply: wrong arity".into(),
                    ));
                }
                Ok(Some(SnapshotReadReply::Stale { stable_ts })) => {
                    reject.get_or_insert(TreatyError::SnapshotRetry(format!(
                        "stale at shard {owner} (stable {stable_ts})"
                    )));
                }
                Ok(Some(SnapshotReadReply::InDoubt { .. })) => {
                    reject.get_or_insert(TreatyError::SnapshotRetry(format!(
                        "in doubt at shard {owner}"
                    )));
                }
                Ok(None) => {
                    failed.get_or_insert(TreatyError::Rejected("malformed snapshot reply".into()));
                }
                Err(e) => {
                    failed.get_or_insert(TreatyError::from(e));
                }
            }
        }
        failed.or(reject).map_or(Ok(out), Err)
    }

    /// Finishes the transaction. Single-shard snapshots are consistent by
    /// construction; multi-shard snapshots run one validation round per
    /// shard (again concurrently) proving no commit or prepare slipped
    /// between the per-shard timestamps — per-key for point reads, span
    /// checks for scans.
    ///
    /// # Errors
    ///
    /// [`TreatyError::SnapshotRetry`] when validation fails (retry with
    /// a fresh snapshot), or network errors.
    pub fn finish(mut self) -> Result<()> {
        if self.pinned.len() <= 1 {
            return Ok(());
        }
        let _txn = treaty_sim::obs::txn_scope(self.seq);
        let _span = treaty_sim::obs::span_with(
            Phase::ClientSnapshotValidate,
            &[("shards", self.pinned.len() as u64)],
        );
        // Ordered by shard, so the validate burst is sealed and numbered
        // in the same order on every run.
        let mut work: BTreeMap<EndpointId, (Vec<Vec<u8>>, Vec<Span>)> = BTreeMap::new();
        for (owner, keys) in std::mem::take(&mut self.validate_set) {
            work.entry(owner).or_default().0 = keys;
        }
        for (owner, spans) in std::mem::take(&mut self.validate_spans) {
            work.entry(owner).or_default().1 = spans;
        }
        let mut requests = Vec::with_capacity(work.len());
        for (owner, (keys, spans)) in work {
            let Some(&ts) = self.pinned.get(&owner) else {
                continue;
            };
            let req_msg = SnapshotValidateReq { ts, keys, spans };
            requests.push((owner, req::SNAPSHOT_VALIDATE, self.meta(), encode(&req_msg)));
        }
        // As in `read`: every reply drained, a failure before a rejection.
        let (mut failed, mut reject) = (None, None);
        for (owner, reply) in self.client.rpc.burst(requests) {
            match reply.map(|(_, bytes)| decode::<SnapshotValidateReply>(&bytes)) {
                Ok(Some(SnapshotValidateReply::Ok)) => {}
                Ok(Some(SnapshotValidateReply::Fail { .. })) => {
                    reject.get_or_insert(TreatyError::SnapshotRetry(format!(
                        "validation failed at shard {owner}"
                    )));
                }
                Ok(None) => {
                    failed.get_or_insert(TreatyError::Rejected(
                        "malformed snapshot validate reply".into(),
                    ));
                }
                Err(e) => {
                    failed.get_or_insert(TreatyError::from(e));
                }
            }
        }
        failed.or(reject).map_or(Ok(()), Err)
    }
}
