//! The eRPC-flavoured endpoint: handlers, sessions, continuations.
//!
//! Mirrors the programming model of §V-A / §VII-A: requests are *enqueued*
//! ([`Rpc::enqueue_request`]) and only hit the wire on [`Rpc::tx_burst`];
//! the caller then polls/blocks on a [`PendingReply`] — the continuation.
//! On the server side a dispatcher fiber demultiplexes the NIC and hands
//! each peer's requests to that peer's dedicated worker fiber (the paper's
//! fiber-per-client design, §VII-C).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use treaty_crypto::{Key, MsgKind, NonceSeq, SecureEnvelope, TxMeta, WireCrypto};
use treaty_sched::{Channel, CorePool, Receiver, Sender};
use treaty_sim::runtime::{self, FiberId};
use treaty_sim::{Nanos, TeeMode};
use treaty_tee::HostBytes;

use crate::fabric::{Datagram, EndpointConfig, EndpointId, Fabric};
use crate::{NetError, DEFAULT_RPC_TIMEOUT};

/// A request handler: `(src_endpoint, meta, payload) -> Option<(reply_meta,
/// reply_payload)>`. Returning `None` sends no reply (one-way traffic).
///
/// Handlers run on the per-peer worker fiber and may block (acquire locks,
/// wait for stabilization, issue nested RPCs).
pub type ReqHandler =
    Arc<dyn Fn(EndpointId, TxMeta, Vec<u8>) -> Option<(TxMeta, Vec<u8>)> + Send + Sync>;

/// Endpoint configuration for [`Rpc::new`].
#[derive(Clone)]
pub struct RpcConfig {
    /// Fabric-level endpoint parameters (transport, TEE, link rate).
    pub endpoint: EndpointConfig,
    /// Message protection level.
    pub crypto: WireCrypto,
    /// Network key (distributed by the CAS).
    pub key: Key,
    /// CPU cores that processing on this endpoint consumes. `None` models
    /// an uncontended client machine.
    pub cores: Option<Arc<CorePool>>,
    /// Default timeout for [`Rpc::call`].
    pub timeout: Nanos,
}

impl RpcConfig {
    /// A client configuration: plain transport parameters, given protection
    /// level, no core contention.
    pub fn client(crypto: WireCrypto, key: Key) -> Self {
        RpcConfig {
            endpoint: EndpointConfig::default(),
            crypto,
            key,
            cores: None,
            timeout: DEFAULT_RPC_TIMEOUT,
        }
    }
}

impl std::fmt::Debug for RpcConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcConfig")
            .field("endpoint", &self.endpoint)
            .field("crypto", &self.crypto)
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

struct PendingSlot {
    /// Set only while the requesting fiber is actually parked in
    /// [`Rpc::wait_reply`]; unparking a fiber that is sleeping elsewhere
    /// (e.g. charging CPU) would corrupt its timeline.
    waiter: Option<FiberId>,
    response: Option<Result<Datagram, NetError>>,
}

struct HandlerEntry {
    handler: ReqHandler,
    /// Whether `(node, tx, op)` replay suppression applies.
    guarded: bool,
}

#[derive(Default)]
struct RpcCounters {
    rejected: AtomicU64,
    replays_suppressed: AtomicU64,
    requests_handled: AtomicU64,
}

/// An RPC endpoint bound to one fabric id.
pub struct Rpc {
    fabric: Arc<Fabric>,
    id: EndpointId,
    cfg: RpcConfig,
    env: SecureEnvelope,
    nonce: Mutex<NonceSeq>,
    next_rpc_id: AtomicU64,
    pending: Mutex<HashMap<u64, PendingSlot>>,
    handlers: Mutex<HashMap<u8, Arc<HandlerEntry>>>,
    workers: Mutex<HashMap<(EndpointId, u64), Sender<(Nanos, Datagram)>>>,
    /// Memoized responses for at-most-once execution. `None` marks a
    /// request still executing; payloads are `Arc`-shared so duplicate
    /// hits resend without copying the buffer.
    replay: Mutex<HashMap<(u64, u64, u64), Option<(u64, TxMeta, Arc<Vec<u8>>)>>>,
    outbox: Mutex<Vec<Datagram>>,
    stopped: Arc<AtomicBool>,
    counters: RpcCounters,
}

impl std::fmt::Debug for Rpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rpc")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// The continuation for an in-flight request. Obtain from
/// [`Rpc::enqueue_request`]; redeem with [`PendingReply::wait`].
#[derive(Debug)]
#[must_use = "a pending reply must be waited on (or explicitly abandoned)"]
pub struct PendingReply {
    rpc: Arc<Rpc>,
    rpc_id: u64,
    timeout: Nanos,
}

impl PendingReply {
    /// Blocks until the reply arrives or the timeout elapses.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] on timeout, [`NetError::Crypto`] if the reply
    /// fails authentication.
    pub fn wait(self) -> Result<(TxMeta, Vec<u8>), NetError> {
        self.rpc.wait_reply(self.rpc_id, self.timeout)
    }
}

impl Rpc {
    /// Creates and registers an endpoint. Call [`Rpc::start`] to serve
    /// requests; pure clients may skip it only if they never receive
    /// unsolicited traffic (responses still require `start`).
    pub fn new(fabric: &Arc<Fabric>, id: EndpointId, cfg: RpcConfig) -> Arc<Self> {
        fabric.register(id, cfg.endpoint);
        Arc::new(Rpc {
            fabric: Arc::clone(fabric),
            id,
            env: SecureEnvelope::new(cfg.crypto),
            nonce: Mutex::new(NonceSeq::new(id)),
            next_rpc_id: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            handlers: Mutex::new(HashMap::new()),
            workers: Mutex::new(HashMap::new()),
            replay: Mutex::new(HashMap::new()),
            outbox: Mutex::new(Vec::new()),
            stopped: Arc::new(AtomicBool::new(false)),
            counters: RpcCounters::default(),
            cfg,
        })
    }

    /// This endpoint's fabric id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Registers a handler for `req_type`. `guarded` enables `(node, tx,
    /// op)` replay suppression with response memoization — required for all
    /// non-idempotent transaction traffic.
    pub fn register_handler(&self, req_type: u8, guarded: bool, handler: ReqHandler) {
        self.handlers
            .lock()
            .insert(req_type, Arc::new(HandlerEntry { handler, guarded }));
    }

    /// Spawns the dispatcher fiber. Idempotent per endpoint lifetime.
    pub fn start(self: &Arc<Self>) {
        let me = Arc::clone(self);
        runtime::spawn_daemon(move || me.dispatch_loop());
    }

    /// Stops the endpoint: deregisters from the fabric (in-flight messages
    /// to it vanish) and wakes all pending callers with [`NetError::Closed`].
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.fabric.deregister(self.id);
        let mut pending = self.pending.lock();
        for (_, slot) in pending.iter_mut() {
            slot.response = Some(Err(NetError::Closed));
            if let Some(w) = slot.waiter.take() {
                runtime::unpark(w);
            }
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for (_, tx) in workers {
            tx.close();
        }
    }

    /// Whether [`Rpc::stop`] ran: the endpoint's node has crashed.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Number of messages rejected for failed authentication.
    pub fn rejected_count(&self) -> u64 {
        self.counters.rejected.load(Ordering::Relaxed)
    }

    /// Number of duplicate requests suppressed by the replay guard.
    pub fn replays_suppressed(&self) -> u64 {
        self.counters.replays_suppressed.load(Ordering::Relaxed)
    }

    /// Number of requests executed by handlers.
    pub fn requests_handled(&self) -> u64 {
        self.counters.requests_handled.load(Ordering::Relaxed)
    }

    // ---- client side -----------------------------------------------------

    /// Seals and enqueues a request; transmission happens on
    /// [`Rpc::tx_burst`]. The crypto work is charged to the calling fiber
    /// here (it happens in the enclave before the buffer reaches host
    /// memory).
    pub fn enqueue_request(
        self: &Arc<Self>,
        dst: EndpointId,
        req_type: u8,
        meta: &TxMeta,
        payload: &[u8],
    ) -> PendingReply {
        self.enqueue_request_on(dst, req_type, meta, payload, meta.tx_id)
    }

    /// Like [`Rpc::enqueue_request`] with an explicit session id. Requests
    /// sharing `(src, session)` are handled in order by one server fiber;
    /// distinct sessions are served concurrently (one fiber per session,
    /// §VII-C).
    pub fn enqueue_request_on(
        self: &Arc<Self>,
        dst: EndpointId,
        req_type: u8,
        meta: &TxMeta,
        payload: &[u8],
        session: u64,
    ) -> PendingReply {
        let rpc_id = self.next_rpc_id.fetch_add(1, Ordering::Relaxed);
        let wire = self.seal_charged(meta, payload);
        let dg = Datagram {
            src: self.id,
            dst,
            req_type,
            rpc_id,
            session,
            is_response: false,
            wire,
            receiver_cpu: 0,
        };
        self.pending.lock().insert(
            rpc_id,
            PendingSlot {
                waiter: None,
                response: None,
            },
        );
        self.outbox.lock().push(dg);
        PendingReply {
            rpc: Arc::clone(self),
            rpc_id,
            timeout: self.cfg.timeout,
        }
    }

    /// Transmits everything enqueued so far, charging per-message sender
    /// CPU and occupying the NIC for serialization.
    pub fn tx_burst(&self) {
        let msgs = std::mem::take(&mut *self.outbox.lock());
        for dg in msgs {
            let charge = self.fabric.costs().net_send(
                self.cfg.endpoint.transport,
                self.cfg.endpoint.tee,
                dg.wire.len() + crate::fabric::FRAME_HEADER_BYTES,
            );
            self.charge(charge.sender_cpu);
            self.fabric.send(dg);
        }
    }

    /// Sends a one-way message (no reply expected, no pending slot).
    pub fn send_oneway(&self, dst: EndpointId, req_type: u8, meta: &TxMeta, payload: &[u8]) {
        let wire = self.seal_charged(meta, payload);
        let dg = Datagram {
            src: self.id,
            dst,
            req_type,
            rpc_id: 0,
            session: meta.tx_id,
            is_response: false,
            wire,
            receiver_cpu: 0,
        };
        let charge = self.fabric.costs().net_send(
            self.cfg.endpoint.transport,
            self.cfg.endpoint.tee,
            dg.wire.len() + crate::fabric::FRAME_HEADER_BYTES,
        );
        self.charge(charge.sender_cpu);
        self.fabric.send(dg);
    }

    /// Blocking request/response with the default timeout:
    /// enqueue + burst + wait.
    ///
    /// # Errors
    ///
    /// See [`PendingReply::wait`].
    pub fn call(
        self: &Arc<Self>,
        dst: EndpointId,
        req_type: u8,
        meta: &TxMeta,
        payload: &[u8],
    ) -> Result<(TxMeta, Vec<u8>), NetError> {
        let reply = self.enqueue_request(dst, req_type, meta, payload);
        self.tx_burst();
        reply.wait()
    }

    fn wait_reply(&self, rpc_id: u64, timeout: Nanos) -> Result<(TxMeta, Vec<u8>), NetError> {
        let deadline = runtime::now().saturating_add(timeout);
        loop {
            {
                let mut pending = self.pending.lock();
                let slot = pending.get_mut(&rpc_id).ok_or(NetError::Closed)?;
                if let Some(result) = slot.response.take() {
                    pending.remove(&rpc_id);
                    drop(pending);
                    let dg = result?;
                    // Receiver-side CPU + decrypt happen on the caller: the
                    // reply was addressed to this fiber's request.
                    self.charge(dg.receiver_cpu);
                    return self.open_charged(&dg.wire);
                }
                let now = runtime::now();
                if now >= deadline {
                    pending.remove(&rpc_id);
                    return Err(NetError::Timeout);
                }
                // Arm the waiter only for the duration of the park below;
                // cooperative scheduling guarantees nothing runs between
                // this assignment and the park.
                slot.waiter = Some(runtime::current());
            }
            let deadline_left = deadline - runtime::now();
            runtime::park_timeout(deadline_left);
            // Disarm immediately on wake (timeout path); the dispatcher
            // takes the waiter when it delivers, so a Some here is ours.
            if let Some(slot) = self.pending.lock().get_mut(&rpc_id) {
                slot.waiter = None;
            }
        }
    }

    // ---- server side -----------------------------------------------------

    fn dispatch_loop(self: Arc<Self>) {
        runtime::set_tag("rpc-dispatcher");
        treaty_sim::obs::set_node(self.id);
        loop {
            if self.stopped.load(Ordering::SeqCst) {
                return;
            }
            match self.fabric.recv(self.id, treaty_sim::SECONDS) {
                Ok(dg) => {
                    if dg.is_response {
                        let mut pending = self.pending.lock();
                        if let Some(slot) = pending.get_mut(&dg.rpc_id) {
                            // First response wins; duplicates are dropped.
                            if slot.response.is_none() {
                                slot.response = Some(Ok(dg));
                                if let Some(w) = slot.waiter.take() {
                                    runtime::unpark(w);
                                }
                            }
                        }
                    } else {
                        self.route_request(dg);
                    }
                }
                Err(NetError::Timeout) => continue,
                Err(_) => return,
            }
        }
    }

    fn route_request(self: &Arc<Self>, dg: Datagram) {
        let key = (dg.src, dg.session);
        // Arrival stamp: the span the worker later opens reports the time
        // the request sat in this queue as `queue_ns` — the attribution
        // walker's queueing category.
        let arrived = runtime::now();
        let mut workers = self.workers.lock();
        let tx = workers.entry(key).or_insert_with(|| {
            let (tx, rx) = Channel::pair();
            let me = Arc::clone(self);
            // One worker fiber per session (§VII-C).
            runtime::spawn_daemon(move || me.worker_loop(key, rx));
            tx
        });
        if let Err((arrived, dg)) = tx.send((arrived, dg)) {
            // The worker retired between our lookup and the send; replace.
            let (tx, rx) = Channel::pair();
            let me = Arc::clone(self);
            runtime::spawn_daemon(move || me.worker_loop(key, rx));
            let _ = tx.send((arrived, dg));
            workers.insert(key, tx);
        }
    }

    fn worker_loop(self: Arc<Self>, key: (EndpointId, u64), rx: Receiver<(Nanos, Datagram)>) {
        runtime::set_tag("rpc-worker");
        treaty_sim::obs::set_node(self.id);
        loop {
            match rx.recv_timeout(treaty_sim::SECONDS) {
                treaty_sched::RecvTimeout::Ok((arrived, dg)) => {
                    if self.stopped.load(Ordering::SeqCst) {
                        return;
                    }
                    self.handle_request(dg, arrived);
                }
                treaty_sched::RecvTimeout::Closed => return,
                treaty_sched::RecvTimeout::TimedOut => {
                    // Retire this idle session's fiber so long runs do not
                    // accumulate one parked fiber per past transaction. The
                    // map lock serializes against route_request; a message
                    // that raced the timeout is handled before retiring.
                    let racing = {
                        let mut workers = self.workers.lock();
                        match rx.try_recv() {
                            Some(dg) => Some(dg),
                            None => {
                                workers.remove(&key);
                                None
                            }
                        }
                    };
                    match racing {
                        Some((arrived, dg)) => self.handle_request(dg, arrived),
                        None => return,
                    }
                }
            }
        }
    }

    fn handle_request(self: &Arc<Self>, dg: Datagram, arrived: Nanos) {
        // Receiver CPU for taking delivery.
        runtime::set_tag("w:recv-charge");
        let started = runtime::now();
        let queue_ns = started.saturating_sub(arrived);
        self.charge(dg.receiver_cpu);
        runtime::set_tag("w:open");
        let (meta, payload) = match self.open_charged(&dg.wire) {
            Ok(x) => x,
            Err(_) => {
                // Tampered or replay-of-garbage: reject silently; the
                // sender will time out and retry. Integrity holds.
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let entry = match self.handlers.lock().get(&dg.req_type) {
            Some(e) => Arc::clone(e),
            None => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };

        if entry.guarded {
            let key = meta.replay_key();
            let mut replay = self.replay.lock();
            match replay.get(&key) {
                Some(Some((cached_rpc_id, cached_meta, cached_payload))) => {
                    // Duplicate of a completed request: resend the memoized
                    // response without re-executing (at-most-once). Cloning
                    // the Arc shares the payload buffer instead of copying.
                    self.counters
                        .replays_suppressed
                        .fetch_add(1, Ordering::Relaxed);
                    let resp_meta = *cached_meta;
                    let resp_payload = Arc::clone(cached_payload);
                    let _ = cached_rpc_id;
                    drop(replay);
                    self.send_response(dg.src, dg.req_type, dg.rpc_id, &resp_meta, &resp_payload);
                    return;
                }
                Some(None) => {
                    // Duplicate while the original is still executing.
                    self.counters
                        .replays_suppressed
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
                None => {
                    replay.insert(key, None);
                }
            }
        }

        self.counters
            .requests_handled
            .fetch_add(1, Ordering::Relaxed);
        // The handler span: its self time is the shielded-boundary work
        // this layer did (open/seal crypto, replay bookkeeping); the
        // queue wait and boundary time before it opened ride along as
        // args for the critical-path walker to split out. Transaction
        // scope comes from the opened meta, so cross-node forests link.
        let open_ns = runtime::now().saturating_sub(started);
        let _txn = treaty_sim::obs::txn_scope(meta.tx_id);
        let _span = treaty_sim::obs::span_with(
            "rpc.handle",
            &[
                ("req", dg.req_type as u64),
                ("queue_ns", queue_ns),
                ("open_ns", open_ns),
            ],
        );
        runtime::set_tag("w:handler");
        let reply = (entry.handler)(dg.src, meta, payload);
        runtime::set_tag("w:post-handler");

        match reply {
            Some((m, p)) => {
                let p = Arc::new(p);
                if entry.guarded {
                    self.replay
                        .lock()
                        .insert(meta.replay_key(), Some((dg.rpc_id, m, Arc::clone(&p))));
                }
                self.send_response(dg.src, dg.req_type, dg.rpc_id, &m, &p);
            }
            None => {
                if entry.guarded {
                    self.replay.lock().remove(&meta.replay_key());
                }
            }
        }
    }

    fn send_response(
        &self,
        dst: EndpointId,
        req_type: u8,
        rpc_id: u64,
        meta: &TxMeta,
        payload: &[u8],
    ) {
        let wire = self.seal_charged(meta, payload);
        let dg = Datagram {
            src: self.id,
            dst,
            req_type,
            rpc_id,
            session: 0,
            is_response: true,
            wire,
            receiver_cpu: 0,
        };
        let charge = self.fabric.costs().net_send(
            self.cfg.endpoint.transport,
            self.cfg.endpoint.tee,
            dg.wire.len() + crate::fabric::FRAME_HEADER_BYTES,
        );
        self.charge(charge.sender_cpu);
        self.fabric.send(dg);
    }

    // ---- shared helpers ----------------------------------------------------

    fn charge(&self, ns: Nanos) {
        if ns == 0 {
            return;
        }
        // All RPC processing on a SCONE endpoint executes inside the
        // enclave: apply the network-library SCONE multiplier.
        let ns = self
            .fabric
            .costs()
            .enclave_net_cpu(self.cfg.endpoint.tee, ns);
        match &self.cfg.cores {
            Some(pool) => pool.charge(ns),
            None => runtime::sleep(ns),
        }
    }

    fn crypto_cost(&self, bytes: usize) -> Nanos {
        let costs = self.fabric.costs();
        match self.cfg.crypto {
            WireCrypto::Plain => 0,
            WireCrypto::AuthOnly => costs.sha_ns(bytes),
            WireCrypto::Full => costs.aes_ns(bytes),
        }
    }

    /// Seals a message and charges crypto + (SCONE) boundary-copy costs.
    /// The result is boundary-typed: message buffers live in untrusted
    /// host memory, so they must be [`HostBytes`].
    fn seal_charged(&self, meta: &TxMeta, payload: &[u8]) -> HostBytes {
        self.charge(self.crypto_cost(payload.len() + 80));
        // Under SCONE the sealed buffer is written to a message buffer in
        // untrusted host memory (§VII-A): one boundary copy.
        if self.cfg.endpoint.tee == TeeMode::Scone {
            self.charge(
                self.fabric
                    .costs()
                    .boundary_copy_ns(TeeMode::Scone, payload.len()),
            );
        }
        let iv = self.nonce.lock().next();
        HostBytes::from_envelope(self.env.seal(&self.cfg.key, iv, meta, payload))
    }

    fn open_charged(&self, wire: &HostBytes) -> Result<(TxMeta, Vec<u8>), NetError> {
        self.charge(self.crypto_cost(wire.len()));
        Ok(self.env.open(&self.cfg.key, wire.as_slice())?)
    }
}

/// Builds a [`TxMeta`] for RPC-level traffic that is not part of a
/// transaction (benchmarks, control messages).
pub fn control_meta(node_id: u64, seq: u64, kind: MsgKind) -> TxMeta {
    TxMeta {
        node_id,
        tx_id: seq,
        op_id: 0,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_crypto::KeyHierarchy;
    use treaty_sched::block_on;
    use treaty_sim::CostModel;

    const ECHO: u8 = 7;

    fn setup(crypto: WireCrypto) -> (Arc<Fabric>, Arc<Rpc>, Arc<Rpc>) {
        let fabric = Fabric::new(CostModel::default(), 42);
        let key = KeyHierarchy::for_testing().network;
        let server_cfg = RpcConfig {
            endpoint: EndpointConfig::default(),
            crypto,
            key,
            cores: Some(Arc::new(CorePool::new(8))),
            timeout: DEFAULT_RPC_TIMEOUT,
        };
        let client_cfg = RpcConfig::client(crypto, key);
        let server = Rpc::new(&fabric, 1, server_cfg);
        server.register_handler(
            ECHO,
            true,
            Arc::new(|_src, meta, payload| {
                let mut out = payload;
                out.reverse();
                Some((
                    TxMeta {
                        kind: MsgKind::Ack,
                        ..meta
                    },
                    out,
                ))
            }),
        );
        server.start();
        let client = Rpc::new(&fabric, 100, client_cfg);
        client.start();
        (fabric, server, client)
    }

    fn meta(tx: u64, op: u64) -> TxMeta {
        TxMeta {
            node_id: 100,
            tx_id: tx,
            op_id: op,
            kind: MsgKind::Data,
        }
    }

    #[test]
    fn call_roundtrip_encrypted() {
        block_on(|| {
            let (_f, _s, client) = setup(WireCrypto::Full);
            let (m, p) = client.call(1, ECHO, &meta(1, 1), b"abc").unwrap();
            assert_eq!(m.kind, MsgKind::Ack);
            assert_eq!(p, b"cba");
        });
    }

    #[test]
    fn call_roundtrip_all_crypto_modes() {
        for crypto in [WireCrypto::Plain, WireCrypto::AuthOnly, WireCrypto::Full] {
            block_on(move || {
                let (_f, _s, client) = setup(crypto);
                let (_, p) = client.call(1, ECHO, &meta(1, 1), b"xyz").unwrap();
                assert_eq!(p, b"zyx");
            });
        }
    }

    #[test]
    fn enqueue_then_burst_batches() {
        block_on(|| {
            let (_f, _s, client) = setup(WireCrypto::Full);
            let r1 = client.enqueue_request(1, ECHO, &meta(1, 1), b"a1");
            let r2 = client.enqueue_request(1, ECHO, &meta(1, 2), b"b2");
            // Nothing on the wire until the burst.
            client.tx_burst();
            assert_eq!(r1.wait().unwrap().1, b"1a");
            assert_eq!(r2.wait().unwrap().1, b"2b");
        });
    }

    #[test]
    fn timeout_on_dead_server() {
        block_on(|| {
            let (_f, server, client) = setup(WireCrypto::Full);
            server.stop();
            let err = client.call(1, ECHO, &meta(1, 1), b"x").unwrap_err();
            assert_eq!(err, NetError::Timeout);
        });
    }

    #[test]
    fn tampered_request_rejected_and_times_out() {
        block_on(|| {
            let (fabric, server, client) = setup(WireCrypto::Full);
            fabric.with_adversary(|a| a.tamper_next = 1);
            let err = client.call(1, ECHO, &meta(1, 1), b"x").unwrap_err();
            assert_eq!(err, NetError::Timeout);
            assert_eq!(server.rejected_count(), 1);
        });
    }

    #[test]
    fn duplicated_request_executes_once() {
        block_on(|| {
            let (fabric, server, client) = setup(WireCrypto::Full);
            fabric.with_adversary(|a| a.dup_next = 1);
            let (_, p) = client.call(1, ECHO, &meta(9, 1), b"once").unwrap();
            assert_eq!(p, b"ecno");
            // Give the duplicate time to arrive and be suppressed.
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(server.requests_handled(), 1);
            assert_eq!(server.replays_suppressed(), 1);
        });
    }

    #[test]
    fn replayed_capture_is_suppressed() {
        block_on(|| {
            let (fabric, server, client) = setup(WireCrypto::Full);
            fabric.start_capture();
            let _ = client.call(1, ECHO, &meta(5, 1), b"hello").unwrap();
            let captured = fabric.captured();
            let req = captured.iter().find(|d| !d.is_response).unwrap();
            fabric.inject(req.clone());
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(server.requests_handled(), 1, "replay must not re-execute");
            assert_eq!(server.replays_suppressed(), 1);
        });
    }

    #[test]
    fn encrypted_wire_hides_payload() {
        block_on(|| {
            let (fabric, _s, client) = setup(WireCrypto::Full);
            fabric.start_capture();
            let secret = b"super-secret-kv-value";
            let _ = client.call(1, ECHO, &meta(2, 1), secret).unwrap();
            let sniffed = fabric.captured_bytes();
            assert!(
                !sniffed.windows(secret.len()).any(|w| w == secret),
                "plaintext visible on the wire"
            );
        });
    }

    #[test]
    fn plain_wire_exposes_payload() {
        block_on(|| {
            let (fabric, _s, client) = setup(WireCrypto::Plain);
            fabric.start_capture();
            let secret = b"super-secret-kv-value";
            let _ = client.call(1, ECHO, &meta(2, 1), secret).unwrap();
            let sniffed = fabric.captured_bytes();
            assert!(sniffed.windows(secret.len()).any(|w| w == secret));
        });
    }

    #[test]
    fn dropped_request_times_out_not_hangs() {
        block_on(|| {
            let (fabric, _s, client) = setup(WireCrypto::Full);
            fabric.with_adversary(|a| a.drop_next = 1);
            let t0 = runtime::now();
            let err = client.call(1, ECHO, &meta(3, 1), b"x").unwrap_err();
            assert_eq!(err, NetError::Timeout);
            assert!(runtime::now() - t0 >= DEFAULT_RPC_TIMEOUT);
        });
    }

    #[test]
    fn concurrent_clients_all_served() {
        block_on(|| {
            let (_f, server, _c) = setup(WireCrypto::Full);
            let fabric = Arc::clone(server.fabric());
            let key = KeyHierarchy::for_testing().network;
            let mut handles = Vec::new();
            for cid in 200..232u32 {
                let fabric = Arc::clone(&fabric);
                let cfg = RpcConfig::client(WireCrypto::Full, key);
                handles.push(runtime::spawn(move || {
                    let client = Rpc::new(&fabric, cid, cfg);
                    client.start();
                    for op in 0..5 {
                        let m = TxMeta {
                            node_id: cid as u64,
                            tx_id: 1,
                            op_id: op,
                            kind: MsgKind::Data,
                        };
                        let (_, p) = client.call(1, ECHO, &m, b"ping").unwrap();
                        assert_eq!(p, b"gnip");
                    }
                }));
            }
            for h in handles {
                runtime::join(h);
            }
            assert_eq!(server.requests_handled(), 32 * 5);
        });
    }

    #[test]
    fn oneway_messages_counted_by_handler() {
        block_on(|| {
            let fabric = Fabric::new(CostModel::default(), 7);
            let key = KeyHierarchy::for_testing().network;
            let counter = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&counter);
            let server = Rpc::new(&fabric, 1, RpcConfig::client(WireCrypto::Full, key));
            server.register_handler(
                9,
                false,
                Arc::new(move |_, _, payload| {
                    c2.fetch_add(payload.len() as u64, Ordering::Relaxed);
                    None
                }),
            );
            server.start();
            let client = Rpc::new(&fabric, 2, RpcConfig::client(WireCrypto::Full, key));
            for i in 0..10 {
                client.send_oneway(1, 9, &meta(i, 0), &vec![0u8; 100]);
            }
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(counter.load(Ordering::Relaxed), 1000);
        });
    }
}
