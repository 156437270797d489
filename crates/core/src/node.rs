//! A Treaty node: participant and coordinator for the secure 2PC (Fig. 2).
//!
//! Every node drives its engine through the 2PC contract ([`TxnEngine`]),
//! serves client sessions as their transaction coordinator, and serves
//! peer sessions as a participant. A node is durable iff it has a
//! [`TreatyStore`], which is then its engine and alone gives it a Clog,
//! the snapshot lane and the store fields of `OBS_SNAPSHOT`. Without one
//! (the isolated 2PC benchmarks of §VIII-B) the engine is a
//! [`NullEngine`], snapshot requests are dropped and those fields read 0.
//!
//! A session's requests run in arrival order, one at a time (§VII-C; the
//! session rule in `treaty_net::rpc`), which keeps a transaction's
//! operations ordered while unrelated transactions proceed concurrently.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use treaty_crypto::codec::Encode;
use treaty_crypto::{Key, TxMeta, WireCrypto};
use treaty_net::{EndpointConfig, EndpointId, Fabric, Rpc, RpcConfig};
use treaty_sched::{CorePool, WaitQueue};
use treaty_sim::crashpoint::CrashPoint;
use treaty_sim::obs::{Counter, Phase};
use treaty_sim::{FiberCell, Nanos};
use treaty_store::{
    EngineTxn, GlobalTxId, NullEngine, StoreError, TreatyStore, TxnEngine, TxnMode,
};

use crate::clog::Clog;
use crate::messages::{
    decode, encode, req, Abort, AbortCause, ClientCommitReq, CommitResult, Lane, ObsSnapshotReply,
    Op, OpResult, PeerOps, PeerPrepare, SnapshotReadReply, SnapshotReadReq, SnapshotValidateReply,
    SnapshotValidateReq, WriteCmd,
};
use crate::shard::ShardMap;

/// Construction options for [`TreatyNode::start`].
pub struct NodeOptions {
    /// This node's fabric endpoint.
    pub endpoint: EndpointId,
    /// Network/fabric parameters.
    pub net: EndpointConfig,
    /// Message protection level (derived from the security profile).
    pub crypto: WireCrypto,
    /// Network key from the CAS.
    pub network_key: Key,
    /// Key-space partitioning.
    pub shard_map: ShardMap,
    /// The node's CPU cores.
    pub cores: Rc<CorePool>,
    /// The node's store, which makes it durable (engine, Clog, snapshot
    /// lane). `None` runs the protocol-only mode of §VIII-B.
    pub store: Option<TreatyStore>,
    /// Concurrency control used for transactions on this node.
    pub txn_mode: TxnMode,
}

impl std::fmt::Debug for NodeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeOptions")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

/// Monotonic counters a node exposes for the benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Distributed transactions committed with this node as coordinator.
    pub committed: u64,
    /// Distributed transactions aborted with this node as coordinator.
    pub aborted: u64,
    /// Operations other coordinators shipped here (`PEER_OPS` lists and
    /// prepare batches); a coordinator's own slice is not counted.
    pub participant_ops: u64,
    /// Decision (phase-2) messages re-sent after a delivery failure, a
    /// commit's or any abort's.
    pub decision_retries: u64,
}

// NodeStats lives in one `FiberCell<NodeStats>`: a snapshot copies every
// field at once.

/// Result of [`TreatyNode::resolve_recovered`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Undecided transactions this coordinator re-drove to a durable
    /// decision.
    pub re_decided: usize,
    /// Locally prepared transactions resolved by asking their coordinator.
    pub resolved: usize,
    /// Undecided transactions whose re-drive could not reach a durable
    /// decision (a participant or the counter group out of reach) — they
    /// stay undecided and need another recovery pass.
    pub failed: usize,
}

impl std::ops::AddAssign for RecoveryOutcome {
    fn add_assign(&mut self, rhs: Self) {
        self.re_decided += rhs.re_decided;
        self.resolved += rhs.resolved;
        self.failed += rhs.failed;
    }
}

/// How many aborted transaction ids a coordinator remembers, bounding the
/// memory of [`AbortRing`].
const ABORT_RING_CAP: usize = 1024;

/// Bounded FIFO memory of recently aborted transactions. A commit request
/// for an unknown transaction consults it: "aborted earlier" and "never
/// wrote anything" must answer differently (the former is `Aborted`, the
/// latter a trivially `Committed` empty transaction).
#[derive(Default)]
struct AbortRing {
    set: HashSet<GlobalTxId>,
    order: VecDeque<GlobalTxId>,
}

impl AbortRing {
    /// Records `gtx`; returns `true` the first time it is seen.
    fn note(&mut self, gtx: GlobalTxId) -> bool {
        if !self.set.insert(gtx) {
            return false;
        }
        self.order.push_back(gtx);
        if self.order.len() > ABORT_RING_CAP {
            if let Some(evicted) = self.order.pop_front() {
                self.set.remove(&evicted);
            }
        }
        true
    }

    fn contains(&self, gtx: &GlobalTxId) -> bool {
        self.set.contains(gtx)
    }
}

/// Bound on the fibers working behind decisions — commits finishing behind
/// their ack and phase-two deliveries, any abort's included: past this,
/// the work runs inline — backpressure instead of unbounded growth. A
/// commit finishing behind its ack holds two (continuation and delivery).
const FINISH_FIBER_CAP: usize = 256;

/// One fiber working behind a decision: an acknowledged commit's finish,
/// or a phase-two delivery. Dropped when the fiber ends — returning, or
/// unwinding at a crash point — so `drain_decisions` never waits on a
/// fiber that is gone.
struct FinishSlot {
    node: Rc<TreatyNode>,
}

impl FinishSlot {
    /// `None` at the cap: the committer then does the work inline.
    fn reserve(node: &Rc<TreatyNode>) -> Option<Self> {
        let before = node.finishes_inflight.get();
        if before >= FINISH_FIBER_CAP {
            return None;
        }
        node.finishes_inflight.set(before + 1);
        Some(FinishSlot {
            node: Rc::clone(node),
        })
    }
}

impl Drop for FinishSlot {
    fn drop(&mut self) {
        let inflight = &self.node.finishes_inflight;
        inflight.set(inflight.get() - 1);
        self.node.finish_done.notify_all();
    }
}

/// Deterministic backoff jitter for decision retries: a splitmix64-style
/// finalizer over the (transaction, peer, attempt) tuple. Different
/// coordinators and peers desynchronize their retry trains without
/// introducing nondeterminism into the simulation.
fn decision_jitter(gtx: GlobalTxId, peer: EndpointId, attempt: u64) -> u64 {
    let mut x = gtx.node ^ gtx.seq.rotate_left(17) ^ (u64::from(peer) << 32) ^ attempt;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A coordinator's view of a transaction. Its own shard's slice lives in
/// `active_part`, like every slice on the node.
#[derive(Default)]
struct CoordTxn {
    /// Remote participant endpoints (self excluded).
    remotes: Vec<EndpointId>,
    /// Whether this coordinator ever routed a write for the transaction
    /// (point write, range delete, or writes shipped with the commit).
    /// While `false` at commit, no participant has anything to apply and
    /// the commit takes the read-only lane.
    wrote: bool,
    /// The remotes that served a read or a scan: the only ones holding
    /// read locks, which end at the commit point.
    readers: Vec<EndpointId>,
}

/// Reads one participant's prepare reply: `None` is a yes vote, `Some`
/// says why the transaction cannot commit.
fn vote_refusal(
    peer: EndpointId,
    reply: std::result::Result<(TxMeta, Vec<u8>), treaty_net::NetError>,
) -> Option<Abort> {
    let cause = match reply.map(|(_, bytes)| decode::<bool>(&bytes)) {
        Ok(Some(true)) => return None,
        Ok(Some(false)) => AbortCause::VotedNo,
        _ => AbortCause::Unreachable,
    };
    Some(Abort {
        cause,
        participant: Some(peer),
    })
}

/// Executes an operation list inside an engine transaction, in order, and
/// returns the last operation's result — or the cause of the first
/// failure. The caller decides what to do with the transaction on failure
/// (participants drop it — rollback — and vote no / reply with the
/// failure).
fn apply_ops(txn: &mut dyn EngineTxn, ops: &[Op]) -> Result<OpResult, AbortCause> {
    let mut last = OpResult::Ok { value: None };
    for op in ops {
        let done = match op {
            Op::Write(w) => {
                let r = match &w.value {
                    Some(v) => txn.put(&w.key, v),
                    None => txn.delete(&w.key),
                };
                // A crash here is mid-apply: some writes landed in the
                // volatile engine transaction, none are prepared.
                treaty_sim::crashpoint::hit(CrashPoint::PartBatchApply);
                r.map(|()| OpResult::Ok { value: None })
            }
            Op::Get { key } => txn.get(key).map(|value| OpResult::Ok { value }),
            Op::Scan { start, end, limit } => {
                treaty_sim::crashpoint::hit(CrashPoint::PartScan);
                txn.scan(start, end, *limit as usize)
                    .map(|entries| OpResult::Entries { entries })
            }
            Op::RangeDelete { start, end } => {
                treaty_sim::crashpoint::hit(CrashPoint::PartRangeDelete);
                txn.delete_range(start, end)
                    .map(|()| OpResult::Ok { value: None })
            }
        };
        last = done.map_err(|e| AbortCause::from(&e))?;
    }
    Ok(last)
}

/// One protocol handler: `(node, source endpoint, metadata, payload)`.
type Handler = fn(&Rc<TreatyNode>, EndpointId, TxMeta, Vec<u8>) -> Option<(TxMeta, Vec<u8>)>;

/// A handler's reply: `payload` under its request's own metadata.
fn reply(meta: TxMeta, payload: &impl Encode) -> Option<(TxMeta, Vec<u8>)> {
    Some((meta, encode(payload)))
}

/// Every request the node accepts: its code, whether the RPC layer's replay
/// guard covers it, and its handler, which decodes the one payload type the
/// code names (DESIGN.md §16 has the table). An abort is not guarded: it is
/// only ever sent for a transaction decided abort, so running it twice
/// changes nothing, and one queued behind its transaction's running op
/// must run even after its sender's floor has passed it. Nor is the commit
/// point's release: it only drops read locks of a transaction past its
/// lock point, so a second run finds none left.
const HANDLERS: &[(u8, bool, Handler)] = &[
    (req::CLIENT_OPS, true, TreatyNode::handle_client_ops),
    (req::CLIENT_COMMIT, true, TreatyNode::handle_client_commit),
    (
        req::CLIENT_ROLLBACK,
        true,
        TreatyNode::handle_client_rollback,
    ),
    (req::SNAPSHOT_READ, true, TreatyNode::handle_snapshot_read),
    (
        req::SNAPSHOT_VALIDATE,
        true,
        TreatyNode::handle_snapshot_validate,
    ),
    (req::OBS_SNAPSHOT, false, TreatyNode::handle_obs_snapshot),
    (req::PEER_OPS, true, TreatyNode::handle_peer_ops),
    (req::PEER_PREPARE, true, TreatyNode::handle_peer_prepare),
    (req::PEER_COMMIT, true, TreatyNode::handle_peer_commit),
    (req::PEER_ABORT, false, TreatyNode::handle_peer_abort),
    (
        req::QUERY_DECISION,
        false,
        TreatyNode::handle_query_decision,
    ),
    (
        req::PEER_COMMIT_POINT,
        false,
        TreatyNode::handle_commit_point,
    ),
];

/// One shard's scan slice, sorted by key.
type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// What a scan of `limit` rows still needs after its first round, in which
/// each shard returned at most `quota` (DESIGN.md §16). A shard that
/// returned `quota` rows was cut short. The rows at or below the smallest
/// last key among those shards are certain, since every shard returned all
/// of its rows up to there. Empty when they number `limit`; otherwise one
/// `Op::Scan` per shard cut short, from just past its last key to `end`,
/// for the rows still missing.
fn scan_continuations(
    slices: &[(EndpointId, Rows)],
    end: &[u8],
    limit: usize,
    quota: usize,
) -> Vec<(EndpointId, Op)> {
    let cut = |rows: &Rows| quota < limit && rows.len() == quota;
    let lasts = slices
        .iter()
        .filter(|(_, rows)| cut(rows))
        .filter_map(|(shard, rows)| Some((*shard, &rows.last()?.0)));
    let Some(boundary) = lasts.clone().map(|(_, last)| last).min() else {
        return Vec::new();
    };
    let certain: usize = slices
        .iter()
        .map(|(_, rows)| rows.partition_point(|(k, _)| k <= boundary))
        .sum();
    if certain >= limit {
        return Vec::new();
    }
    lasts
        .map(|(shard, last)| {
            let op = Op::Scan {
                start: [last.as_slice(), &[0]].concat(),
                end: end.to_vec(),
                limit: (limit - certain) as u64,
            };
            (shard, op)
        })
        .collect()
}

/// The rows a scan with `limit` asks of each of `shards` shards: a
/// shard's expected share of the limit under hash partitioning plus two
/// standard deviations, ⌈(L + 2·√(L·(n−1)))/n⌉, capped at the limit. An
/// unbounded scan or a single shard asks for the limit itself.
fn shard_quota(limit: usize, shards: usize) -> usize {
    if limit == 0 || shards <= 1 {
        return limit;
    }
    let (l, n) = (limit as f64, shards as f64);
    let quota = ((l + 2.0 * (l * (n - 1.0)).sqrt()) / n).ceil() as usize;
    quota.min(limit)
}

/// True k-way merge of per-shard scan slices. Each slice is sorted and the
/// shards own disjoint key sets, so a min-heap over the slice heads yields
/// globally sorted output with no duplicates to resolve — and stops as
/// soon as `limit` pairs are produced (`0` = unbounded) instead of
/// materializing the full concatenation and truncating.
pub(crate) fn merge_sorted_slices(slices: Vec<Rows>, limit: usize) -> Rows {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = slices.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<(Vec<u8>, Vec<u8>)>> =
        slices.into_iter().map(Vec::into_iter).collect();
    // Heap entries order by (key, value, source) — keys are disjoint
    // across sources, so the key alone decides.
    type Head = Reverse<(Vec<u8>, Vec<u8>, usize)>;
    let mut heap: BinaryHeap<Head> = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some((k, v)) = it.next() {
            heap.push(Reverse((k, v, i)));
        }
    }
    let mut out = Vec::with_capacity(if limit > 0 { limit.min(total) } else { total });
    while let Some(Reverse((k, v, i))) = heap.pop() {
        out.push((k, v));
        if limit > 0 && out.len() >= limit {
            break;
        }
        if let Some((k, v)) = iters[i].next() {
            heap.push(Reverse((k, v, i)));
        }
    }
    out
}

/// One Treaty node.
pub struct TreatyNode {
    endpoint: EndpointId,
    rpc: Rc<Rpc>,
    /// The 2PC view of the shard, which both engines provide.
    engine: Rc<dyn TxnEngine>,
    /// What only a durable node has.
    store: Option<TreatyStore>,
    clog: Option<Rc<Clog>>,
    shard_map: ShardMap,
    txn_mode: TxnMode,
    active_coord: FiberCell<HashMap<GlobalTxId, CoordTxn>>,
    active_part: FiberCell<HashMap<GlobalTxId, Box<dyn EngineTxn>>>,
    recently_aborted: FiberCell<AbortRing>,
    op_seq: Cell<u64>,
    stats: FiberCell<NodeStats>,
    /// Fibers still working behind a decision: finish continuations and
    /// phase-two deliveries (bounded by [`FINISH_FIBER_CAP`]).
    finishes_inflight: Cell<usize>,
    /// Woken when such a fiber ends; `drain_decisions` waits here.
    finish_done: WaitQueue,
}

impl std::fmt::Debug for TreatyNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreatyNode")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

impl TreatyNode {
    /// Starts a node: opens the Clog beside the store (recovering 2PC
    /// state), registers all protocol handlers and begins serving.
    ///
    /// Call [`TreatyNode::resolve_recovered`] after every node of the
    /// cluster is up to finish recovery of in-flight transactions.
    ///
    /// # Errors
    ///
    /// Propagates Clog recovery failures (integrity/rollback detection).
    pub fn start(fabric: &Rc<Fabric>, options: NodeOptions) -> treaty_store::Result<Rc<Self>> {
        let (engine, clog): (Rc<dyn TxnEngine>, _) = match &options.store {
            Some(store) => (
                Rc::new(store.clone()),
                Some(Rc::new(Clog::open(Rc::clone(store.env()))?)),
            ),
            None => (Rc::new(NullEngine::new()), None),
        };
        let rpc = Rpc::new(
            fabric,
            options.endpoint,
            RpcConfig {
                endpoint: options.net,
                crypto: options.crypto,
                key: options.network_key,
                cores: Some(options.cores),
                timeout: treaty_net::DEFAULT_RPC_TIMEOUT,
            },
        );
        let node = Rc::new(TreatyNode {
            endpoint: options.endpoint,
            rpc: Rc::clone(&rpc),
            engine,
            store: options.store,
            clog,
            shard_map: options.shard_map,
            txn_mode: options.txn_mode,
            active_coord: FiberCell::new(HashMap::new()),
            active_part: FiberCell::new(HashMap::new()),
            recently_aborted: FiberCell::new(AbortRing::default()),
            op_seq: Cell::new(1),
            stats: FiberCell::new(NodeStats::default()),
            finishes_inflight: Cell::new(0),
            finish_done: WaitQueue::new(),
        });
        node.register_handlers();
        rpc.start();
        // When a fault-injection plan is installed, let it crash this node:
        // stopping the endpoint makes the rest of the cluster see it vanish
        // mid-protocol, exactly like a machine failure.
        let rpc_weak = Rc::downgrade(&rpc);
        treaty_sim::crashpoint::register_node(options.endpoint, move || {
            if let Some(rpc) = rpc_weak.upgrade() {
                rpc.stop();
            }
        });
        Ok(node)
    }

    /// This node's fabric endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The node's RPC endpoint (test introspection).
    pub fn rpc(&self) -> &Rc<Rpc> {
        &self.rpc
    }

    /// The node's Clog, when running durably.
    pub fn clog(&self) -> Option<&Rc<Clog>> {
        self.clog.as_ref()
    }

    /// Statistics snapshot, consistent under one lock.
    pub fn stats(&self) -> NodeStats {
        *self.stats.borrow()
    }

    /// Stops serving (simulates a node crash; durable state remains).
    pub fn stop(&self) {
        self.rpc.stop();
    }

    fn register_handlers(self: &Rc<Self>) {
        for &(code, guarded, handler) in HANDLERS {
            let me = Rc::clone(self);
            self.rpc.register_handler(
                code,
                guarded,
                Rc::new(move |src, meta, payload| handler(&me, src, meta, payload)),
            );
        }
    }

    /// Serves [`req::OBS_SNAPSHOT`]: a live read of this node's backlogs,
    /// MVCC frontier, backpressure and cache counters. Read-only
    /// and replay-exempt — the `treaty-top` dashboard polls it. A
    /// storage-less node reports the store fields as zero.
    fn handle_obs_snapshot(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        _payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        treaty_sim::runtime::set_tag("h:obs_snapshot");
        treaty_sim::obs::set_node(self.endpoint);
        let stats = *self.stats.borrow();
        let mut snapshot = ObsSnapshotReply {
            node: self.endpoint,
            ts: treaty_sim::runtime::now(),
            finishes_inflight: self.finishes_inflight.get() as u64,
            prepared_txns: self.engine.prepared_txns().len() as u64,
            committed: stats.committed,
            aborted: stats.aborted,
            participant_ops: stats.participant_ops,
            decision_retries: stats.decision_retries,
            ..ObsSnapshotReply::default()
        };
        if let Some(store) = &self.store {
            let cache = store.stats();
            snapshot.stable_ts = store.stable_ts();
            snapshot.flush_backlog = store.flush_backlog_len() as u64;
            snapshot.backpressure = store.backpressure_level();
            snapshot.block_cache_hits = cache.block_cache_hits;
            snapshot.block_cache_misses = cache.block_cache_misses;
        }
        treaty_sim::obs::counter_add(Counter::CoreObsSnapshotsServed, 1);
        reply(meta, &snapshot)
    }

    fn gtx_for_client(&self, meta: &TxMeta) -> GlobalTxId {
        // The client encodes (client_id << 32 | its own tx counter) in
        // tx_id; prefixing our endpoint makes it cluster-unique.
        GlobalTxId {
            node: self.endpoint as u64,
            seq: meta.tx_id,
        }
    }

    fn peer_meta(&self, gtx: GlobalTxId) -> TxMeta {
        let op_id = self.op_seq.replace(self.op_seq.get() + 1);
        TxMeta::new(self.endpoint as u64, gtx.seq, op_id)
    }

    // ---- coordinator: client-facing handlers ------------------------------

    /// Enters a client request's handler as [`TreatyNode::enter_peer`] a
    /// peer's, and takes the transaction's coordinator state out. Only its
    /// first message (`op_id` 1) may begin a transaction: `Ok(None)`. A
    /// later one that finds no state was aborted here (`AlreadyAborted`)
    /// or follows messages whose state a restart lost (`SliceLost`).
    fn enter_client(
        &self,
        meta: &TxMeta,
        phase: Phase,
        args: &[(&'static str, u64)],
    ) -> (GlobalTxId, Result<Option<CoordTxn>, AbortCause>, impl Sized) {
        let gtx = self.gtx_for_client(meta);
        treaty_sim::obs::set_node(self.endpoint);
        let txn = treaty_sim::obs::txn_scope(gtx.seq);
        // A tuple drops its fields in order: the span closes first.
        let scope = (treaty_sim::obs::span_with(phase, args), txn);
        let ctx = self.active_coord.borrow_mut().remove(&gtx);
        let state = match ctx {
            Some(ctx) => Ok(Some(ctx)),
            None if self.recently_aborted.borrow().contains(&gtx) => {
                Err(AbortCause::AlreadyAborted)
            }
            None if meta.op_id > 1 => Err(AbortCause::SliceLost),
            None => Ok(None),
        };
        (gtx, state, scope)
    }

    /// Serves [`req::CLIENT_OPS`]: the client's buffered writes and the
    /// read or range operation that made it ship them, in one message.
    fn handle_client_ops(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let ops: Vec<Op> = decode(&payload)?;
        let args = [("ops", ops.len() as u64)];
        let (gtx, state, _scope) = self.enter_client(&meta, Phase::CoordOp, &args);
        let result = match state {
            Ok(ctx) => self.coordinate_ops(gtx, ctx.unwrap_or_default(), ops),
            Err(cause) => {
                self.note_aborted(gtx, cause);
                OpResult::Failed(cause.into())
            }
        };
        reply(meta, &result)
    }

    /// Routes an operation list: a point operation goes to its key's
    /// owner, a range operation to every shard (hash partitioning scatters
    /// a span's keys over all of them). Returns the local slice and one
    /// slice per remote shard, each in client issue order. The remote
    /// slices keep first-touch order so the fan-out is deterministic (no
    /// hash-map iteration on the message path).
    fn route(&self, ops: Vec<Op>) -> (Vec<Op>, Vec<(EndpointId, Vec<Op>)>) {
        let mut local: Vec<Op> = Vec::new();
        let mut remote: Vec<(EndpointId, Vec<Op>)> = Vec::new();
        let mut place = |owner: EndpointId, op: Op| {
            if owner == self.endpoint {
                local.push(op);
            } else if let Some((_, slice)) = remote.iter_mut().find(|(p, _)| *p == owner) {
                slice.push(op);
            } else {
                remote.push((owner, vec![op]));
            }
        };
        for op in ops {
            match op.point_key().map(|key| self.shard_map.owner(key)) {
                Some(owner) => place(owner, op),
                None => {
                    for &node in self.shard_map.nodes() {
                        place(node, op.clone());
                    }
                }
            }
        }
        (local, remote)
    }

    /// Coordinates an operation list mid-transaction: the operations group
    /// by shard ([`TreatyNode::route`]) and go out in one fan-out
    /// ([`TreatyNode::fan_out`]). Every touched shard joins the
    /// participant set. The reply is the last operation's result: the
    /// owner's value for a get, every shard's slice — sorted per shard over
    /// disjoint key sets — merged into one sorted result for a scan.
    ///
    /// A scan with a limit over several shards asks each for its quota
    /// ([`shard_quota`]), not the whole limit. The rows at or below the
    /// smallest last key among the shards that filled their quota are
    /// certain: every shard has returned all of its rows up to there. If
    /// fewer than the limit are certain, each shard cut short gets one
    /// continuation from just past its last key for the rows still
    /// missing, which always completes the result (DESIGN.md §16).
    fn coordinate_ops(
        self: &Rc<Self>,
        gtx: GlobalTxId,
        mut ctx: CoordTxn,
        mut ops: Vec<Op>,
    ) -> OpResult {
        treaty_sim::runtime::set_tag("h:coordinate_ops");
        // One reply carries one result, so only the last operation may
        // produce one; the client library never builds any other shape.
        let writes = &ops[..ops.len().saturating_sub(1)];
        if writes.iter().any(|op| !matches!(op, Op::Write(_))) {
            self.abort_everywhere(gtx, ctx, AbortCause::Malformed);
            return OpResult::Failed(self.refusal(AbortCause::Malformed));
        }
        ctx.wrote |= ops.iter().any(Op::is_write);
        // (end of span, the client's limit, each shard's quota)
        let scan = match ops.last_mut() {
            Some(Op::Scan { end, limit, .. }) => {
                let wanted = *limit as usize;
                let quota = shard_quota(wanted, self.shard_map.len());
                *limit = quota as u64;
                Some((end.clone(), wanted, quota))
            }
            _ => None,
        };
        let (local_ops, remote) = self.route(ops);
        let mut value: Option<Vec<u8>> = None;
        let mut slices: Vec<(EndpointId, Rows)> = Vec::new();
        for (shard, r) in self.fan_out(gtx, &mut ctx, local_ops, remote) {
            match r {
                OpResult::Failed(abort) => {
                    // The transaction is dead: abort everywhere, drop state.
                    self.abort_everywhere(gtx, ctx, abort.cause);
                    return OpResult::Failed(abort);
                }
                // Writes answer `None`; only the get's owner has a value.
                OpResult::Ok { value: v } => value = value.or(v),
                OpResult::Entries { entries } => slices.push((shard, entries)),
            }
        }
        let Some((end, limit, quota)) = scan else {
            self.active_coord.borrow_mut().insert(gtx, ctx);
            return OpResult::Ok { value };
        };
        let resume = scan_continuations(&slices, &end, limit, quota);
        if !resume.is_empty() {
            treaty_sim::obs::counter_add(Counter::CoreScanResumes, 1);
            let (local, remote): (Vec<_>, Vec<_>) = resume
                .into_iter()
                .partition(|(shard, _)| *shard == self.endpoint);
            let local_ops = local.into_iter().map(|(_, op)| op).collect();
            let remote = remote.into_iter().map(|(p, op)| (p, vec![op])).collect();
            for (shard, r) in self.fan_out(gtx, &mut ctx, local_ops, remote) {
                match (r, slices.iter_mut().find(|(s, _)| *s == shard)) {
                    (OpResult::Entries { entries }, Some((_, rows))) => rows.extend(entries),
                    (OpResult::Failed(abort), _) => {
                        self.abort_everywhere(gtx, ctx, abort.cause);
                        return OpResult::Failed(abort);
                    }
                    _ => {}
                }
            }
        }
        self.active_coord.borrow_mut().insert(gtx, ctx);
        let slices = slices.into_iter().map(|(_, rows)| rows).collect();
        OpResult::Entries {
            entries: merge_sorted_slices(slices, limit),
        }
    }

    /// One round of [`TreatyNode::coordinate_ops`]: one [`req::PEER_OPS`]
    /// per remote slice leaves in a single burst (one seal per shard
    /// instead of per op), and this node's own slice applies through
    /// [`TreatyNode::apply_slice`] while the round trips are in flight.
    /// Returns each shard's result.
    fn fan_out(
        self: &Rc<Self>,
        gtx: GlobalTxId,
        ctx: &mut CoordTxn,
        local_ops: Vec<Op>,
        remote: Vec<(EndpointId, Vec<Op>)>,
    ) -> Vec<(EndpointId, OpResult)> {
        let mut results: Vec<(EndpointId, OpResult)> = Vec::with_capacity(remote.len() + 1);
        let replies = self.rpc.burst(remote.into_iter().map(|(owner, slice)| {
            // A remote already in the set holds a slice of `gtx`.
            let held = ctx.remotes.contains(&owner);
            if !held {
                ctx.remotes.push(owner);
            }
            if slice.iter().any(|op| !op.is_write()) && !ctx.readers.contains(&owner) {
                ctx.readers.push(owner);
            }
            let meta = self.peer_meta(gtx);
            let payload = encode(&PeerOps {
                gtx,
                held,
                ops: slice,
            });
            (owner, req::PEER_OPS, meta, payload)
        }));
        treaty_sim::crashpoint::hit(CrashPoint::CoordOpsFanout);

        if !local_ops.is_empty() {
            // This node's slice dies only with its coordinator state, so it
            // is never held and lost.
            results.push((self.endpoint, self.apply_slice(gtx, local_ops, false)));
        }
        // Every reply is collected, even after a failure: each shard's
        // result goes back to the caller.
        for (p, reply) in replies {
            let r = reply.ok().and_then(|(_, bytes)| decode(&bytes));
            let unreachable = Abort {
                cause: AbortCause::Unreachable,
                participant: Some(p),
            };
            results.push((p, r.unwrap_or(OpResult::Failed(unreachable))));
        }
        results
    }

    fn handle_client_commit(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let (gtx, state, _scope) = self.enter_client(&meta, Phase::CoordCommit, &[]);
        // The writes still buffered at the client ride the commit itself.
        let result = match (state, decode::<ClientCommitReq>(&payload)) {
            // Its client must not receive a success ack.
            (Err(cause), _) => CommitResult::Aborted(cause.into()),
            (Ok(ctx), None) => {
                self.abort_everywhere(gtx, ctx.unwrap_or_default(), AbortCause::Malformed);
                CommitResult::Aborted(AbortCause::Malformed.into())
            }
            (Ok(ctx), Some(req)) => {
                self.commit_with_writes(gtx, ctx.unwrap_or_default(), req.writes)
            }
        };
        match &result {
            CommitResult::Committed => self.stats.borrow_mut().committed += 1,
            CommitResult::Aborted(abort) => self.note_aborted(gtx, abort.cause),
        }
        treaty_sim::crashpoint::hit(CrashPoint::CoordBeforeClientReply);
        reply(meta, &result)
    }

    fn handle_client_rollback(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        _payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let (gtx, state, _scope) = self.enter_client(&meta, Phase::CoordRollback, &[]);
        // No state: nothing began, or the abort was counted before.
        if let Ok(Some(ctx)) = state {
            self.abort_everywhere(gtx, ctx, AbortCause::RolledBack);
        }
        let rolled_back = CommitResult::Aborted(AbortCause::RolledBack.into());
        reply(meta, &rolled_back)
    }

    /// Commits a transaction, first routing the writes that arrived with
    /// the commit request itself. This node's slice of them applies inline,
    /// before the Clog Start and the prepares; each
    /// remote shard's slice piggybacks on its prepare message, collapsing
    /// execute+prepare into one round trip (one seal/unseal) per shard. A
    /// shard that only ever received such writes therefore costs one
    /// sealed message for all of phase one.
    fn commit_with_writes(
        self: &Rc<Self>,
        gtx: GlobalTxId,
        mut ctx: CoordTxn,
        writes: Vec<WriteCmd>,
    ) -> CommitResult {
        ctx.wrote |= !writes.is_empty();
        let (local_ops, batches) = self.route(writes.into_iter().map(Op::Write).collect());
        if !local_ops.is_empty() {
            if let OpResult::Failed(abort) = self.apply_slice(gtx, local_ops, false) {
                self.abort_everywhere(gtx, ctx, abort.cause);
                return CommitResult::Aborted(abort);
            }
        }
        // The remotes so far served the transaction's operations and hold
        // a slice of it; a batch owner added here begins one at prepare.
        let held = ctx.remotes.clone();
        for (owner, _) in &batches {
            if !ctx.remotes.contains(owner) {
                ctx.remotes.push(*owner);
            }
        }
        self.run_two_phase_commit(gtx, ctx, batches, &held)
    }

    /// The secure two-phase commit of Fig. 2. `batches` carries the writes
    /// to piggyback on the prepare message per remote shard (empty when
    /// everything was shipped before the commit); the remotes in `held`
    /// served the transaction's operations before the commit.
    fn run_two_phase_commit(
        self: &Rc<Self>,
        gtx: GlobalTxId,
        ctx: CoordTxn,
        batches: Vec<(EndpointId, Vec<Op>)>,
        held: &[EndpointId],
    ) -> CommitResult {
        treaty_sim::runtime::set_tag("h:2pc");
        // The remotes, then this node if it holds a slice: the Clog's list.
        let mut participants = ctx.remotes.clone();
        if self.active_part.borrow().contains_key(&gtx) {
            participants.push(self.endpoint);
        }
        // Fast path: this node is the only participant, if any (1PC). Its
        // slice finishes as on the read-only lane, through the engine's
        // one-phase commit.
        if ctx.remotes.is_empty() {
            let finished = if participants.is_empty() {
                Ok(())
            } else {
                self.vote(gtx, Lane::ReadOnly, Vec::new())
            };
            return match finished {
                Ok(()) => CommitResult::Committed,
                Err(cause) => CommitResult::Aborted(self.refusal(cause)),
            };
        }

        if !ctx.wrote {
            return self.finish_read_only(gtx, ctx, &participants);
        }

        // (5) Log the transaction to the Clog with a trusted counter value.
        // Nothing in phase one depends on the record: its append and its
        // counter round run on a helper fiber beside the prepares, and a
        // participant prepared under a Start that never reached the disk
        // learns presumed abort (`Clog::outcome`).
        let start = self
            .clog
            .as_ref()
            .map(|clog| clog.start(gtx, participants.clone()));

        treaty_sim::runtime::set_tag("h:2pc-fanout");
        let mut refused = {
            let _prepare = treaty_sim::obs::span_with(
                Phase::CoordPrepare,
                &[("remotes", ctx.remotes.len() as u64)],
            );
            self.collect_votes(gtx, &participants, true, batches, held)
        };
        if let Some(start) = start {
            // The votes' other half. The prepares are out, so a Start that
            // failed aborts through the decision below.
            let _join = treaty_sim::obs::span(Phase::CoordStartStable);
            if start.wait_stable().is_err() {
                refused.get_or_insert(AbortCause::LogFailed.into());
            }
        }
        treaty_sim::crashpoint::hit(CrashPoint::CoordAfterVotes);

        let (remotes, readers) = (ctx.remotes, ctx.readers);
        if let Some(abort) = refused {
            // An abort is implied by no stable state, so its record is
            // stable before anyone hears of it.
            treaty_sim::runtime::set_tag("h:2pc-log-decision");
            let logged = {
                let _decide = treaty_sim::obs::span(Phase::CoordDecide);
                self.clog
                    .as_ref()
                    .map_or(Ok(()), |clog| clog.log_decision(gtx, false))
            };
            // Nobody was told commit, so a failed record aborts all the
            // same; a participant that misses it asks QueryDecision.
            self.finish(gtx, remotes, false);
            return CommitResult::Aborted(logged.map_or(AbortCause::LogFailed.into(), |()| abort));
        }
        // The commit point. Every vote is yes and the Start record and
        // every Prepare record are stable: whatever suffix of whichever
        // log is rolled back, the only outcome recovery can reach is
        // commit. The client is answered now; the decision record —
        // appended and stable before any participant, this node's slice or
        // `QueryDecision` learns the outcome — is the finish's, behind the
        // ack. Inline only at the slot cap, as backpressure. It is also the
        // transaction's lock point: its read locks end here.
        treaty_sim::crashpoint::hit(CrashPoint::CoordCommitPoint);
        self.release_reads_at_commit_point(gtx, &readers);
        match FinishSlot::reserve(self) {
            Some(slot) => {
                treaty_sim::obs::counter_add(Counter::CoreCommitPointAcks, 1);
                treaty_sim::runtime::spawn_daemon(move || {
                    treaty_sim::runtime::set_tag("2pc-finish");
                    let _span = treaty_sim::obs::span(Phase::CoordFinish);
                    slot.node.finish(gtx, remotes, true);
                });
            }
            None => self.finish(gtx, remotes, true),
        }
        CommitResult::Committed
    }

    /// The commit point is the lock point (DESIGN.md §17): this node's slice
    /// and every remote that served a read drop the locks they hold only
    /// in S mode, and the write locks wait for the decision. One-way: a
    /// lost release leaves the read locks to the decision. A node without
    /// a Clog writes no decision record, so its phase two follows at once
    /// and releases everything; it sends nothing here.
    fn release_reads_at_commit_point(&self, gtx: GlobalTxId, readers: &[EndpointId]) {
        if self.clog.is_none() {
            return;
        }
        let payload = encode(&gtx);
        for &r in readers {
            let meta = self.peer_meta(gtx);
            self.rpc
                .send_oneway(r, req::PEER_COMMIT_POINT, &meta, &payload);
        }
        self.engine.release_prepared_reads(gtx);
    }

    /// The tail of a decided transaction, the one way a live one ends:
    /// make a commit's decision record stable and publish it, send phase
    /// two, decide this node's slice. An abort arrives with its record
    /// already logged, or with none before its vote round. Runs on the
    /// aborting fiber for an abort and, behind the ack, on a continuation
    /// of its own for a commit (inline only at the slot cap).
    fn finish(self: &Rc<Self>, gtx: GlobalTxId, remotes: Vec<EndpointId>, commit: bool) {
        if let (Some(clog), true) = (&self.clog, commit) {
            if !self.stabilize_decision(clog, gtx) {
                return;
            }
            treaty_sim::crashpoint::hit(CrashPoint::CoordFinishStable);
            clog.publish_decision(gtx, true);
        }
        treaty_sim::crashpoint::hit(CrashPoint::CoordAfterLogDecision);

        treaty_sim::runtime::set_tag("h:2pc-phase2");
        // The decision is Clog-durable or presumed, so nothing waits for
        // the fan-out — not the client, not this node's slice's locks: the
        // acks and the retry train are awaited on a delivery fiber, and a
        // prepared participant it misses resolves via recovery (§VI).
        let slot = if remotes.is_empty() {
            None
        } else {
            FinishSlot::reserve(self)
        };
        match slot {
            Some(slot) => {
                treaty_sim::runtime::spawn_daemon(move || {
                    treaty_sim::runtime::set_tag("2pc-deliver");
                    slot.node.send_decision(gtx, &remotes, commit);
                });
            }
            None => self.send_decision(gtx, &remotes, commit),
        }
        treaty_sim::crashpoint::hit(CrashPoint::CoordAfterDecisionSend);
        treaty_sim::runtime::set_tag("h:2pc-decide-local");
        self.decide_local(gtx, commit);
    }

    /// Appends the commit record and waits until it is stable; returns
    /// whether it is. Past the commit point nothing may abort: a failed append
    /// is given up at once, a failed round is retried on the
    /// decision-retry schedule, and after either the transaction is left
    /// as it stands — prepared everywhere, undecided in the Clog — for
    /// [`TreatyNode::resolve_recovered`], which can only commit it.
    /// `false` also when the node stopped meanwhile: a crash takes the
    /// continuation with the rest of the volatile state.
    fn stabilize_decision(&self, clog: &Clog, gtx: GlobalTxId) -> bool {
        let appended = {
            let _decide = treaty_sim::obs::span(Phase::CoordDecide);
            clog.append_decision(gtx, true)
        };
        let stable = appended.is_ok_and(|counter| {
            Self::with_backoff(gtx, self.endpoint, |_, _| clog.stabilize(counter).is_ok())
        });
        if self.rpc.is_stopped() {
            return false;
        }
        if !stable {
            treaty_sim::obs::counter_add(Counter::CoreDecisionUnstable, 1);
            treaty_sim::obs::instant(
                Phase::CoordDecisionUnstable,
                &[("coordinator", u64::from(self.endpoint))],
            );
            treaty_sim::obs::flight_dump(
                "2pc.decision_unstable",
                "an acknowledged commit's decision record could not be appended or stabilized",
            );
        }
        stable
    }

    /// The read-only commit lane: the coordinator never routed a write, so
    /// no participant has anything to apply and nothing needs a durable
    /// record — no Clog start, no decision, no phase two. One
    /// `Prepare { read_only }` burst asks every remote to validate and
    /// finish its slice; this node's slice finishes through the same vote
    /// while the round trip is in flight. Every lock the transaction
    /// will ever take was granted before the client sent this commit, so
    /// each participant releasing on its own schedule still follows the
    /// transaction's lock point (DESIGN.md §17).
    fn finish_read_only(
        self: &Rc<Self>,
        gtx: GlobalTxId,
        ctx: CoordTxn,
        participants: &[EndpointId],
    ) -> CommitResult {
        treaty_sim::runtime::set_tag("h:2pc-read-only");
        let _span = treaty_sim::obs::span_with(
            Phase::CoordReadOnlyFinish,
            &[("remotes", ctx.remotes.len() as u64)],
        );
        match self.collect_votes(gtx, participants, false, Vec::new(), &[]) {
            None => {
                treaty_sim::obs::counter_add(Counter::CoreReadOnlyCommits, 1);
                CommitResult::Committed
            }
            Some(abort) => {
                // A participant that never answered may still hold the
                // transaction's volatile locks: advise everyone once.
                self.abort_everywhere(gtx, ctx, abort.cause);
                CommitResult::Aborted(abort)
            }
        }
    }

    /// Phase one of both commit lanes and of the recovery re-drive: one
    /// `PEER_PREPARE` burst to the remotes among `participants` (each with
    /// its slice of `batches`), this node's own vote, if it is one,
    /// overlapping the round trip, then every vote collected. A transaction
    /// that `wrote` nothing takes the read-only lane; the remotes in `held`
    /// served its operations, so each must still hold its slice. `None` is
    /// every vote yes; `Some` the first explicit refusal (a no, or this
    /// node's own) or, failing one, the first participant out of reach.
    fn collect_votes(
        self: &Rc<Self>,
        gtx: GlobalTxId,
        participants: &[EndpointId],
        wrote: bool,
        mut batches: Vec<(EndpointId, Vec<Op>)>,
        held: &[EndpointId],
    ) -> Option<Abort> {
        let lane = |p: EndpointId| match (wrote, held.contains(&p)) {
            (false, _) => Lane::ReadOnly,
            (true, false) => Lane::Write,
            (true, true) => Lane::Held,
        };
        let remotes = participants.iter().filter(|&&p| p != self.endpoint);
        let votes = self.rpc.burst(remotes.map(|&r| {
            let batch = batches
                .iter_mut()
                .find(|(p, _)| *p == r)
                .map(|(_, b)| std::mem::take(b))
                .unwrap_or_default();
            let meta = self.peer_meta(gtx);
            let msg = encode(&PeerPrepare {
                gtx,
                lane: lane(r),
                batch,
            });
            (r, req::PEER_PREPARE, meta, msg)
        }));
        treaty_sim::crashpoint::hit(CrashPoint::CoordAfterPrepareFanout);

        treaty_sim::runtime::set_tag("h:2pc-local-prepare");
        let own = participants
            .contains(&self.endpoint)
            .then(|| self.vote(gtx, lane(self.endpoint), Vec::new()));
        let mut refused = own.and_then(Result::err).map(|cause| self.refusal(cause));
        treaty_sim::runtime::set_tag("h:2pc-collect-votes");
        // Every reply is collected even after a refusal.
        for (r, vote) in votes {
            let Some(why) = vote_refusal(r, vote) else {
                continue;
            };
            let explicit = |a: Abort| a.cause != AbortCause::Unreachable;
            if refused.is_none_or(|first| !explicit(first) && explicit(why)) {
                refused = Some(why);
            }
        }
        refused
    }

    /// Waits out every fiber still working behind a decision — commits
    /// finishing behind their ack, phase-two deliveries with their retry
    /// trains (graceful shutdown: phase two must reach the participants
    /// before the cluster stops serving).
    pub fn drain_decisions(self: &Rc<Self>) {
        while self.finishes_inflight.get() > 0 {
            self.finish_done.wait();
        }
    }

    /// Phase two, and the only sender of `PEER_COMMIT` and `PEER_ABORT`
    /// (every abort, live or recovered): one burst of requests to every
    /// remote, then each ack awaited and a missed one retried.
    fn send_decision(self: &Rc<Self>, gtx: GlobalTxId, remotes: &[EndpointId], commit: bool) {
        let _span = treaty_sim::obs::span_with(
            Phase::CoordSendDecision,
            &[
                ("remotes", remotes.len() as u64),
                ("commit", u64::from(commit)),
            ],
        );
        let code = if commit {
            req::PEER_COMMIT
        } else {
            req::PEER_ABORT
        };
        let payload = encode(&gtx);
        let acks = self.rpc.burst(
            remotes
                .iter()
                .map(|&r| (r, code, self.peer_meta(gtx), &payload)),
        );
        treaty_sim::runtime::set_tag("sd:wait");
        treaty_sim::crashpoint::hit(CrashPoint::CoordMidDecisionFanout);
        for (r, ack) in acks {
            if ack.is_ok() {
                continue;
            }
            // The retry train for a peer that missed the first delivery.
            // Decisions are idempotent: retry so a lossy network cannot
            // leave a participant holding prepared locks, on the backoff
            // schedule rather than in a burst. A participant that is
            // actually down learns the decision at recovery via
            // `QUERY_DECISION`.
            treaty_sim::runtime::set_tag("sd:retry");
            Self::with_backoff(gtx, r, |attempt, backoff| {
                self.stats.borrow_mut().decision_retries += 1;
                treaty_sim::obs::instant(
                    Phase::CoordDecisionRetry,
                    &[
                        ("peer", u64::from(r)),
                        ("attempt", attempt),
                        ("backoff_ns", backoff),
                    ],
                );
                let meta = self.peer_meta(gtx);
                self.rpc.call(r, code, &meta, &payload).is_ok()
            });
        }
    }

    /// The retry schedule of everything that must eventually happen for a
    /// decided transaction: up to six tries of `attempt(n, next backoff)`,
    /// backing off exponentially (0.5 ms doubling to 8 ms) with
    /// deterministic jitter, inside a one-second window. Returns whether a
    /// try succeeded.
    fn with_backoff(
        gtx: GlobalTxId,
        peer: EndpointId,
        mut attempt: impl FnMut(u64, Nanos) -> bool,
    ) -> bool {
        let deadline = treaty_sim::runtime::now() + treaty_sim::SECONDS;
        let mut backoff = treaty_sim::MILLIS / 2;
        for n in 0u64..6 {
            if attempt(n, backoff) {
                return true;
            }
            if treaty_sim::runtime::now() >= deadline {
                break;
            }
            let jitter = decision_jitter(gtx, peer, n) % (backoff / 2 + 1);
            treaty_sim::runtime::sleep(backoff + jitter);
            backoff = (backoff * 2).min(8 * treaty_sim::MILLIS);
        }
        false
    }

    /// Records a coordinator-side abort exactly once per transaction: the
    /// ring lets a later commit attempt for the same `gtx` be answered
    /// `Aborted` instead of "unknown → empty → Committed", and it gates
    /// the abort counters — `aborted` and the cause's `core.abort.*` — so
    /// the op-error path, 2PC and client rollback cannot double-count one
    /// transaction.
    fn note_aborted(&self, gtx: GlobalTxId, cause: AbortCause) {
        if self.recently_aborted.borrow_mut().note(gtx) {
            self.stats.borrow_mut().aborted += 1;
            treaty_sim::obs::counter_add(cause.counter(), 1);
        }
    }

    /// An abort this node's own slice refused.
    fn refusal(&self, cause: AbortCause) -> Abort {
        Abort {
            cause,
            participant: Some(self.endpoint),
        }
    }

    /// Coordinator-side abort before a vote round (op error, rollback,
    /// malformed request) or of a refused read-only lane: counted once and
    /// ended through [`TreatyNode::finish`], so phase two's retry train
    /// carries it to every remote off the client's session.
    fn abort_everywhere(self: &Rc<Self>, gtx: GlobalTxId, ctx: CoordTxn, cause: AbortCause) {
        self.note_aborted(gtx, cause);
        self.finish(gtx, ctx.remotes, false);
    }

    // ---- snapshot reads (lock-free read-only transactions) -----------------

    /// Serves a lock-free snapshot read: every key and every span is read
    /// at the requested timestamp straight off the MVCC read path and the
    /// authenticated merge iterator — no 2PC state, no coordinator, and
    /// zero lock-table traffic. An unpinned request (`ts: None`) pins this
    /// shard's current stable read timestamp and reports it back; a
    /// timestamp ahead of the stable frontier is rejected as stale, and a
    /// key or span an undecided prepared transaction is about to write is
    /// rejected as in-doubt — both make the client retry with a refreshed
    /// snapshot. A storage-less node has no versions to read and drops
    /// the request.
    fn handle_snapshot_read(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let store = self.store.as_ref()?;
        treaty_sim::runtime::set_tag("h:snapshot_read");
        let SnapshotReadReq {
            ts,
            keys,
            spans,
            limit,
        } = decode(&payload)?;
        treaty_sim::obs::set_node(self.endpoint);
        let _txn = treaty_sim::obs::txn_scope(meta.tx_id);
        let _span = treaty_sim::obs::span_with(
            Phase::SnapshotRead,
            &[("keys", keys.len() as u64), ("spans", spans.len() as u64)],
        );
        if !keys.is_empty() {
            treaty_sim::crashpoint::hit(CrashPoint::PartSnapshotRead);
        }
        if !spans.is_empty() {
            treaty_sim::crashpoint::hit(CrashPoint::PartSnapshotScan);
        }
        let ts = ts.unwrap_or_else(|| store.stable_ts());
        // The first rejected key (or span, named by its start) ends the read.
        let read = || {
            let values = keys
                .iter()
                .map(|key| store.snapshot_get(key, ts).map_err(|e| (key, e)))
                .collect::<Result<Vec<_>, _>>()?;
            let rows = spans
                .iter()
                .map(|(start, end)| {
                    let slice = store.snapshot_scan(start, end, ts, limit as usize);
                    slice.map_err(|e| (start, e))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((values, rows))
        };
        let answer = match read() {
            Ok((values, rows)) => {
                let (read, scanned) = (!keys.is_empty(), !spans.is_empty());
                treaty_sim::obs::counter_add(Counter::CoreSnapshotReads, u64::from(read));
                treaty_sim::obs::counter_add(Counter::CoreSnapshotScans, u64::from(scanned));
                SnapshotReadReply::Values { ts, values, rows }
            }
            Err((_, StoreError::SnapshotStale { stable })) => {
                treaty_sim::obs::counter_add(Counter::CoreSnapshotStaleReject, 1);
                SnapshotReadReply::Stale { stable_ts: stable }
            }
            Err((key, StoreError::SnapshotInDoubt)) => {
                treaty_sim::obs::counter_add(Counter::CoreSnapshotIndoubtReject, 1);
                SnapshotReadReply::InDoubt { key: key.clone() }
            }
            // Integrity violations must not be papered over with a retry
            // signal: drop the request, the client times out.
            Err(_) => return None,
        };
        reply(meta, &answer)
    }

    /// End-of-transaction validation for multi-shard snapshot reads: the
    /// snapshot is consistent iff every key read from this shard at `ts`
    /// is still the latest word (no newer commit, no in-flight prepare).
    /// Because 2PC prepares at *all* participants before any participant
    /// applies, any transaction whose writes became visible on another
    /// shard is at least prepared here — so a torn snapshot always fails
    /// validation on some shard. A storage-less node drops the request.
    fn handle_snapshot_validate(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let store = self.store.as_ref()?;
        treaty_sim::runtime::set_tag("h:snapshot_validate");
        let req_msg: SnapshotValidateReq = decode(&payload)?;
        treaty_sim::obs::set_node(self.endpoint);
        let _txn = treaty_sim::obs::txn_scope(meta.tx_id);
        let _span = treaty_sim::obs::span_with(
            Phase::SnapshotValidate,
            &[("keys", req_msg.keys.len() as u64)],
        );
        for key in &req_msg.keys {
            match store.snapshot_validate(key, req_msg.ts) {
                Ok(true) => {}
                // Validation failures and integrity errors both answer
                // "not proven consistent" — the client retries.
                Ok(false) | Err(_) => {
                    treaty_sim::obs::counter_add(Counter::CoreSnapshotValidateFail, 1);
                    let key = key.clone();
                    return reply(meta, &SnapshotValidateReply::Fail { key });
                }
            }
        }
        // Scanned spans validate wholesale: per-key checks cannot see a key
        // *inserted* into the span after the read (the phantom), so the
        // engine checks the span's maximum version — point writes, range
        // tombstones and in-doubt prepares alike — against `ts`.
        for (start, end) in &req_msg.spans {
            match store.snapshot_validate_span(start, end, req_msg.ts) {
                Ok(true) => {}
                Ok(false) | Err(_) => {
                    treaty_sim::obs::counter_add(Counter::CoreSnapshotValidateFail, 1);
                    let key = start.clone();
                    return reply(meta, &SnapshotValidateReply::Fail { key });
                }
            }
        }
        reply(meta, &SnapshotValidateReply::Ok)
    }

    // ---- participant: peer-facing handlers ---------------------------------

    /// Enters a peer request's handler: tags the fiber, names the node and
    /// opens `phase`'s span in `gtx`'s transaction scope, both closed when
    /// the returned guard drops.
    fn enter_peer(&self, gtx: GlobalTxId, phase: Phase) -> impl Sized {
        treaty_sim::runtime::set_tag("h:peer");
        treaty_sim::obs::set_node(self.endpoint);
        let txn = treaty_sim::obs::txn_scope(gtx.seq);
        // A tuple drops its fields in order: the span closes first.
        (treaty_sim::obs::span(phase), txn)
    }

    /// Serves [`req::PEER_OPS`].
    fn handle_peer_ops(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let PeerOps { gtx, held, ops } = decode(&payload)?;
        let _scope = self.enter_peer(gtx, Phase::PartOp);
        self.stats.borrow_mut().participant_ops += ops.len() as u64;
        reply(meta, &self.apply_slice(gtx, ops, held))
    }

    /// Serves [`req::PEER_PREPARE`]: the vote.
    fn handle_peer_prepare(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let PeerPrepare { gtx, lane, batch } = decode(&payload)?;
        let _scope = self.enter_peer(gtx, Phase::PartPrepare);
        self.stats.borrow_mut().participant_ops += batch.len() as u64;
        reply(meta, &self.vote(gtx, lane, batch).is_ok())
    }

    /// Serves [`req::PEER_COMMIT`]; the empty reply is the ack.
    fn handle_peer_commit(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let gtx: GlobalTxId = decode(&payload)?;
        let _scope = self.enter_peer(gtx, Phase::PartCommit);
        self.decide_local(gtx, true);
        Some((meta, Vec::new()))
    }

    /// Serves [`req::PEER_ABORT`]: drops the slice, prepared or not; the
    /// empty reply is the ack.
    fn handle_peer_abort(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let gtx: GlobalTxId = decode(&payload)?;
        let _scope = self.enter_peer(gtx, Phase::PartAbort);
        self.decide_local(gtx, false);
        Some((meta, Vec::new()))
    }

    /// Serves [`req::QUERY_DECISION`] for a transaction this node
    /// coordinates.
    fn handle_query_decision(
        self: &Rc<Self>,
        _src: EndpointId,
        meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let gtx: GlobalTxId = decode(&payload)?;
        let _scope = self.enter_peer(gtx, Phase::PartQuery);
        reply(meta, &self.outcome_as_coordinator(gtx))
    }

    /// Serves [`req::PEER_COMMIT_POINT`]: one-way, no reply.
    fn handle_commit_point(
        self: &Rc<Self>,
        _src: EndpointId,
        _meta: TxMeta,
        payload: Vec<u8>,
    ) -> Option<(TxMeta, Vec<u8>)> {
        let gtx: GlobalTxId = decode(&payload)?;
        let _scope = self.enter_peer(gtx, Phase::PartCommitPoint);
        self.engine.release_prepared_reads(gtx);
        treaty_sim::crashpoint::hit(CrashPoint::PartCommitPoint);
        None
    }

    // ---- slice steps: the handlers above, and the coordinator's own slice ---

    /// This shard's slice of an operation list: applied all-or-nothing in
    /// one step. On the first failure the whole engine transaction rolls
    /// back and the result names this shard and the cause. A shard that
    /// `held` a slice and holds none now restarted since and lost the
    /// locks its earlier operations took, so the list fails rather than
    /// begin a fresh slice, as at prepare.
    fn apply_slice(&self, gtx: GlobalTxId, ops: Vec<Op>, held: bool) -> OpResult {
        let txn = self.active_part.borrow_mut().remove(&gtx);
        let mut txn = match txn {
            Some(t) => t,
            None if held => return OpResult::Failed(self.refusal(AbortCause::SliceLost)),
            None => self.engine.begin_txn(self.txn_mode),
        };
        match apply_ops(txn.as_mut(), &ops) {
            Ok(result) => {
                self.active_part.borrow_mut().insert(gtx, txn);
                result
            }
            // The txn drops -> rolled back; the coordinator aborts.
            Err(cause) => OpResult::Failed(self.refusal(cause)),
        }
    }

    /// This shard's vote on its slice of `gtx`: `Ok` is yes, `Err` why not.
    /// The read-only lane finishes the slice through the engine's one-phase
    /// commit (every lock drops, nothing is logged, no decision follows),
    /// as the 1PC path does for the coordinator's own. A write lane applies
    /// `batch` and prepares; a shard that received nothing before the
    /// commit begins its slice here. A shard with no slice that `held` one,
    /// or on the read-only lane, restarted and lost the locks its reads
    /// took: it votes no rather than vouch for them with a fresh slice.
    /// With no slice and no batch — the recovery re-drive — it votes
    /// whether the slice is still prepared from a past life.
    fn vote(&self, gtx: GlobalTxId, lane: Lane, batch: Vec<Op>) -> Result<(), AbortCause> {
        if lane == Lane::ReadOnly {
            let txn = self.active_part.borrow_mut().remove(&gtx);
            treaty_sim::crashpoint::hit(CrashPoint::PartReadOnlyFinish);
            let mut txn = txn.ok_or(AbortCause::SliceLost)?;
            return txn.commit().map(drop).map_err(|e| AbortCause::from(&e));
        }
        treaty_sim::crashpoint::hit(CrashPoint::PartBeforePrepare);
        let held = lane == Lane::Held;
        // A failed batch drops the txn -> rolled back; vote no.
        let prepare = |mut txn: Box<dyn EngineTxn>| {
            apply_ops(txn.as_mut(), &batch)?;
            txn.prepare(gtx).map_err(|e| AbortCause::from(&e))
        };
        let txn = self.active_part.borrow_mut().remove(&gtx);
        let voted = match txn {
            Some(txn) => prepare(txn),
            None if !held && !batch.is_empty() => prepare(self.engine.begin_txn(self.txn_mode)),
            None if !held && self.engine.prepared_txns().contains(&gtx) => Ok(()),
            None => Err(AbortCause::SliceLost),
        };
        treaty_sim::crashpoint::hit(CrashPoint::PartAfterPrepare);
        voted
    }

    /// Applies a decision to this shard's slice of `gtx` (a no-op without
    /// one); an abort also rolls back a slice that never prepared.
    fn decide_local(&self, gtx: GlobalTxId, commit: bool) {
        if commit {
            let _ = self.engine.commit_prepared(gtx);
            treaty_sim::crashpoint::hit(CrashPoint::PartAfterCommitApply);
        } else {
            let txn = self.active_part.borrow_mut().remove(&gtx);
            if let Some(mut txn) = txn {
                let _ = txn.rollback();
            }
            let _ = self.engine.abort_prepared(gtx);
            treaty_sim::crashpoint::hit(CrashPoint::PartAfterAbortApply);
        }
    }

    /// What this node, as `gtx`'s coordinator, answers for it: the Clog's
    /// outcome, presumed abort included (`Clog::outcome`). `None` for a
    /// transaction another node coordinates, and on a node without a Clog.
    fn outcome_as_coordinator(&self, gtx: GlobalTxId) -> Option<bool> {
        let clog = self.clog.as_ref()?;
        if gtx.node == u64::from(self.endpoint) {
            clog.outcome(gtx)
        } else {
            None
        }
    }

    // ---- recovery ------------------------------------------------------------

    /// Finishes recovery of in-flight distributed transactions (§VI):
    ///
    /// * as a coordinator, re-drives every undecided transaction in the
    ///   Clog — re-collecting votes (participants still holding prepared
    ///   state vote yes) and then deciding,
    /// * as a participant, asks the coordinator of every locally prepared
    ///   transaction for its outcome.
    ///
    /// Returns a [`RecoveryOutcome`]; a non-zero `failed` count means some
    /// transactions are still undecided and the caller should run another
    /// recovery pass once the fault clears.
    pub fn resolve_recovered(self: &Rc<Self>) -> RecoveryOutcome {
        let mut outcome = RecoveryOutcome::default();
        if let Some(clog) = &self.clog {
            // Transactions with a logged decision but possibly undelivered
            // phase two: re-send the decision (participants treat
            // duplicates as no-ops, §VI).
            for (gtx, st) in clog.decided() {
                // `decided()` only yields entries with a decision, but the
                // recovery path must not panic on a malformed state.
                let Some(commit) = st.decision else { continue };
                self.deliver(gtx, &st.participants, commit);
            }
            // Undecided transactions: re-execute the prepare phase, the
            // same vote round as a live commit's, on the write lane with
            // no batch: a batch that reached prepare is already in the
            // engine transaction. Such a transaction may be past its commit
            // point — acknowledged, its decision record lost with an
            // unstable Clog tail — so only an explicit refusal aborts it:
            // a participant still prepared votes yes, one that never
            // prepared (and so never let the commit point be reached)
            // votes no, and one that cannot be asked leaves the
            // transaction undecided for the next pass.
            for (gtx, participants) in clog.undecided() {
                let refused = self.collect_votes(gtx, &participants, true, Vec::new(), &[]);
                let commit = refused.is_none();
                let decided = refused.is_none_or(|a| a.cause != AbortCause::Unreachable);
                if decided && clog.log_decision(gtx, commit).is_ok() {
                    self.deliver(gtx, &participants, commit);
                    outcome.re_decided += 1;
                    treaty_sim::obs::counter_add(Counter::CoreRecoveryRedecided, 1);
                } else {
                    // No durable decision — a participant or the counter
                    // group out of reach — so the transaction stays
                    // undecided. Surface it: the operator needs the signal
                    // that recovery is incomplete.
                    outcome.failed += 1;
                    treaty_sim::obs::counter_add(Counter::CoreRecoveryRedriveFailed, 1);
                    treaty_sim::obs::instant(
                        Phase::CoordRedriveFailed,
                        &[("coordinator", u64::from(self.endpoint))],
                    );
                    treaty_sim::obs::flight_dump(
                        "recovery.redrive_failed",
                        "re-drive could not make a decision durable",
                    );
                }
            }
        }

        // Participant side: resolve every prepared transaction the
        // re-drive above left by asking its coordinator. This node answers
        // for its own from its Clog: one the Clog does not know is
        // presumed aborted, as its Start never reached the disk.
        for gtx in self.engine.prepared_txns() {
            let commit = if gtx.node == u64::from(self.endpoint) {
                self.outcome_as_coordinator(gtx)
            } else {
                let meta = self.peer_meta(gtx);
                let asked =
                    self.rpc
                        .call(gtx.node as u32, req::QUERY_DECISION, &meta, &encode(&gtx));
                asked
                    .ok()
                    .and_then(|(_, bytes)| decode::<Option<bool>>(&bytes).flatten())
            };
            // `None`: undecided, or the coordinator is out of reach. Its
            // re-drive decides it.
            if let Some(commit) = commit {
                self.decide_local(gtx, commit);
                outcome.resolved += 1;
                treaty_sim::obs::counter_add(Counter::CoreRecoveryResolved, 1);
            }
        }
        outcome
    }

    /// Recovery's phase two, on the calling fiber so that a pass ends
    /// delivered: the decision to every other node in `participants`, then
    /// to this node's slice.
    fn deliver(self: &Rc<Self>, gtx: GlobalTxId, participants: &[EndpointId], commit: bool) {
        let remotes: Vec<EndpointId> = participants
            .iter()
            .copied()
            .filter(|p| *p != self.endpoint)
            .collect();
        self.send_decision(gtx, &remotes, commit);
        self.decide_local(gtx, commit);
    }
}

#[cfg(test)]
mod tests {
    use super::{merge_sorted_slices, scan_continuations, shard_quota};
    use crate::messages::Op;

    fn e(k: &str) -> (Vec<u8>, Vec<u8>) {
        (k.as_bytes().to_vec(), format!("v-{k}").into_bytes())
    }

    #[test]
    fn merge_interleaves_disjoint_sorted_slices() {
        let merged = merge_sorted_slices(
            vec![
                vec![e("a"), e("d"), e("g")],
                vec![e("b"), e("e")],
                vec![],
                vec![e("c"), e("f"), e("h")],
            ],
            0,
        );
        let keys: Vec<&[u8]> = merged.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h"]);
    }

    #[test]
    fn merge_stops_at_limit_without_draining() {
        let merged = merge_sorted_slices(
            vec![vec![e("a"), e("c"), e("e")], vec![e("b"), e("d"), e("f")]],
            3,
        );
        let keys: Vec<&[u8]> = merged.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"a", b"b", b"c"]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_sorted_slices(Vec::new(), 0).is_empty());
        assert!(merge_sorted_slices(vec![vec![], vec![]], 5).is_empty());
    }

    #[test]
    fn merge_single_slice_is_identity() {
        let s = vec![e("a"), e("b"), e("c")];
        assert_eq!(merge_sorted_slices(vec![s.clone()], 0), s);
    }

    #[test]
    fn a_shard_is_asked_for_its_share_plus_two_deviations() {
        assert_eq!(shard_quota(20, 3), 11);
        assert_eq!(shard_quota(100, 3), 43);
        // Capped at the limit; one shard or no limit asks for the limit.
        assert_eq!(shard_quota(1, 3), 1);
        assert_eq!(shard_quota(20, 1), 20);
        assert_eq!(shard_quota(0, 3), 0);
    }

    #[test]
    fn only_shards_cut_short_below_the_limit_resume() {
        // Quota 2, limit 4: shard 1 filled its quota at "c", shard 2 did
        // not. Certain: a, b, c — one row short, so shard 1 resumes after
        // "c" for the one row still missing.
        let slices = vec![(1, vec![e("a"), e("c")]), (2, vec![e("b")])];
        let resume = scan_continuations(&slices, b"z", 4, 2);
        let after_c = |limit| Op::Scan {
            start: b"c\0".to_vec(),
            end: b"z".to_vec(),
            limit,
        };
        assert_eq!(resume, vec![(1, after_c(1))]);
        // Both cut: the certain prefix ends at the smaller last key, "c",
        // and holds a, b, c; each shard cut short asks for the fifth row.
        let slices = vec![(1, vec![e("a"), e("c")]), (2, vec![e("b"), e("d")])];
        let resume = scan_continuations(&slices, b"z", 5, 2);
        assert_eq!(resume.len(), 2);
        assert_eq!(resume[0], (1, after_c(2)));
        // Enough certain rows, or a quota equal to the limit: no resume.
        assert!(scan_continuations(&slices, b"z", 3, 2).is_empty());
        assert!(scan_continuations(&slices, b"z", 2, 2).is_empty());
    }
}
