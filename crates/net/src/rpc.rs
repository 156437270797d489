//! The eRPC-flavoured endpoint: handlers, sessions, continuations.
//!
//! Mirrors the programming model of §V-A / §VII-A: a caller hands its
//! requests to [`Rpc::burst`], which seals them and then puts them on the
//! wire together, and blocks on the returned [`Burst`] — the continuation
//! that yields each reply in request order. A burst carries its caller's
//! requests only. On the server side a dispatcher fiber demultiplexes the
//! NIC into sessions.
//!
//! # The session rule
//!
//! A session is a queue, not a fiber: one queue per `(src, session)`, at
//! most one fiber serving it, none while it is empty. The dispatcher pushes
//! a request onto its session's queue and spawns a server fiber only when
//! the push created the queue; the server pops until the queue is empty,
//! then removes it and ends. Enqueue and retire are decided in one borrow
//! of the map, so a request is never left behind a server
//! that has gone. Requests of one session are therefore handled strictly in
//! arrival order, different sessions side by side (the paper's
//! fiber-per-client design, §VII-C, over eRPC sessions that are connection
//! state and not threads, §VII-A).
//!
//! Why not a fiber per request: the order inside a session is load-bearing
//! on the failure path. A participant's `PEER_OPS` handler and the
//! coordinator's `CLIENT_OPS` handler take the transaction's state *out* of
//! the node's table while they block (a lock wait, a nested RPC) and put it
//! back afterwards. A `PEER_ABORT` advisory or `CLIENT_ROLLBACK` that
//! overtook its own transaction's still-running op would find nothing to
//! roll back, and the op would then re-insert a transaction nobody
//! finishes, locks held.
//!
//! # Replay protection
//!
//! Every message an endpoint seals takes the next number from its one
//! counter, which starts at the endpoint's boot epoch (the clock reading
//! when it was created). The number is the message's IV counter
//! ([`treaty_crypto::nonce`]), and a request's number is its `rpc_id`. The
//! sealed metadata carries a [`Stamp`]: the request's code and number and
//! its sender's *floor*, the lowest number the sender still awaits a reply
//! for or has sealed but not yet handed to the fabric. A response echoes
//! its request's code and number, with a zero floor.
//!
//! The sealed code is the only name a request has. The receiver opens the
//! message first, then picks the handler, and with it whether the guard
//! checks the number, by the opened code. There is no plaintext code to
//! relabel, and a sealed one altered on the wire fails to open. What stays
//! plaintext — `src`, `rpc_id`, `session`, `is_response` — only routes:
//! the sender is the one the authenticated IV names, a request is numbered
//! by its stamp, and a response relabelled as a request (or the reverse)
//! is refused by its floor.
//!
//! A receiver keeps two things per sending endpoint (the one the
//! authenticated IV names): the highest floor it has seen, and the numbers
//! at or above it whose guarded requests it has started. Every request
//! raises its sender's floor. A guarded request runs only if its number is
//! at least the floor and not yet started; anything else is dropped
//! unanswered and counted (`net.rpc_replays_suppressed`). No honest endpoint
//! sends one number twice — a retry is a new request with a new number —
//! so a duplicate is the network's or the adversary's, and nobody waits
//! for its answer. A request the sender has stopped waiting for (it timed
//! out) falls below the sender's next floor, so a straggler cannot run
//! after its sender has moved on. A reply is accepted only if its stamp
//! echoes the code and number its slot waits on. A sender's entry is one
//! floor plus the numbers it had in flight, so the guard is bounded by
//! requests in flight, not by history ([`Rpc::guard_entries`]).

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Deref;
use std::rc::Rc;

use treaty_crypto::{nonce, Key, Opened, Protection, SecureEnvelope, Stamp, TxMeta};
use treaty_sched::CorePool;
use treaty_sim::obs::{Counter, Phase};
use treaty_sim::runtime::{self, FiberId};
use treaty_sim::{FiberCell, Nanos, TeeMode};
use treaty_tee::HostBytes;

use crate::fabric::{Datagram, EndpointConfig, EndpointId, Fabric};
use crate::{NetError, DEFAULT_RPC_TIMEOUT};

/// A request handler: `(src_endpoint, meta, payload) -> Option<(reply_meta,
/// reply_payload)>`. Returning `None` sends no reply (one-way traffic).
///
/// Handlers run on the fiber serving the request's session and may block
/// (acquire locks, wait for stabilization, issue nested RPCs); the session's
/// later requests wait behind them.
pub type ReqHandler = Rc<dyn Fn(EndpointId, TxMeta, Vec<u8>) -> Option<(TxMeta, Vec<u8>)>>;

/// Endpoint configuration for [`Rpc::new`].
#[derive(Clone)]
pub struct RpcConfig {
    /// Fabric-level endpoint parameters (transport, TEE, link rate).
    pub endpoint: EndpointConfig,
    /// Message protection level.
    pub crypto: Protection,
    /// Network key (distributed by the CAS).
    pub key: Key,
    /// CPU cores that processing on this endpoint consumes. `None` models
    /// an uncontended client machine.
    pub cores: Option<Rc<CorePool>>,
    /// Default timeout for [`Rpc::call`].
    pub timeout: Nanos,
}

impl RpcConfig {
    /// A client configuration: plain transport parameters, given protection
    /// level, no core contention.
    pub fn client(crypto: Protection, key: Key) -> Self {
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

/// What routes a request: the sender and its plaintext session hint.
type SessionKey = (EndpointId, u64);

#[derive(Default)]
struct PendingSlot {
    /// Set only while the requesting fiber is actually parked in
    /// [`Rpc::wait_reply`]; unparking a fiber that is sleeping elsewhere
    /// (e.g. charging CPU) would corrupt its timeline.
    waiter: Option<FiberId>,
    response: Option<Result<Datagram, NetError>>,
}

/// The sending side of the numbering (module header, "Replay
/// protection").
struct Numbering {
    /// The next number to draw.
    next: u64,
    /// The slots of the requests awaiting their reply, by number. A slot
    /// lives as long as its [`Burst`] awaits it.
    pending: BTreeMap<u64, PendingSlot>,
    /// Requests and oneways sealed but not yet handed to the fabric.
    unsent: BTreeSet<u64>,
}

impl Numbering {
    /// The floor a request stamps: the lowest number still outstanding, or
    /// the next one when none is.
    fn floor(&self) -> u64 {
        let awaited = self.pending.keys().next().copied().unwrap_or(self.next);
        let unsent = self.unsent.first().copied().unwrap_or(self.next);
        awaited.min(unsent)
    }
}

/// What a receiver keeps of one sender (module header, "Replay
/// protection").
#[derive(Default)]
struct SenderGuard {
    /// The highest floor the sender has stamped.
    floor: u64,
    /// Numbers at or above `floor` whose guarded requests started here.
    started: BTreeSet<u64>,
}

impl SenderGuard {
    /// Raises the floor, forgetting the numbers that fall below it.
    fn raise(&mut self, floor: u64) {
        if floor > self.floor {
            self.floor = floor;
            self.started = self.started.split_off(&floor);
        }
    }

    /// Whether the guarded request numbered `seq` may start; if so, it is
    /// recorded as started.
    fn admit(&mut self, seq: u64) -> bool {
        seq >= self.floor && self.started.insert(seq)
    }
}

struct HandlerEntry {
    handler: ReqHandler,
    /// Whether the replay guard checks the request's number.
    guarded: bool,
}

/// An RPC endpoint bound to one fabric id.
pub struct Rpc {
    fabric: Rc<Fabric>,
    id: EndpointId,
    cfg: RpcConfig,
    env: SecureEnvelope,
    numbering: FiberCell<Numbering>,
    handlers: FiberCell<HashMap<u8, Rc<HandlerEntry>>>,
    /// Requests waiting per `(src, session)`, each with its arrival time.
    /// An entry exists exactly while a server fiber is serving it (the
    /// module header's session rule).
    sessions: FiberCell<HashMap<SessionKey, VecDeque<(Nanos, Datagram)>>>,
    /// The replay guard, per sending endpoint.
    guard: FiberCell<HashMap<EndpointId, SenderGuard>>,
    started: Cell<bool>,
    stopped: Cell<bool>,
}

impl std::fmt::Debug for Rpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rpc")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// The continuation of an [`Rpc::burst`]: it yields each request's
/// destination and reply in request order, waiting for a reply only when
/// it is asked for, with the endpoint's timeout from then. A reply that
/// fails authentication or answers another request is dropped and the
/// wait goes on; none in time is [`NetError::Timeout`].
///
/// Dropping it releases every slot and unsent number it still holds: a
/// request nobody waits for, or one its fiber never sent because it
/// unwound mid-burst, must not hold its sender's floor down.
#[derive(Debug)]
#[must_use = "a burst's replies must be waited on (or explicitly abandoned)"]
pub struct Burst {
    rpc: Rc<Rpc>,
    /// The requests not yet answered, in order: each one's destination and
    /// the stamp its reply must echo.
    awaited: VecDeque<(EndpointId, Stamp)>,
}

impl Iterator for Burst {
    type Item = (EndpointId, Result<(TxMeta, Vec<u8>), NetError>);

    fn next(&mut self) -> Option<Self::Item> {
        let &(dst, answer) = self.awaited.front()?;
        let reply = self.rpc.wait_reply(answer, self.rpc.cfg.timeout);
        self.awaited.pop_front();
        self.rpc.numbering.borrow_mut().pending.remove(&answer.seq);
        Some((dst, reply))
    }
}

impl Drop for Burst {
    fn drop(&mut self) {
        let mut numbering = self.rpc.numbering.borrow_mut();
        for (_, answer) in &self.awaited {
            numbering.pending.remove(&answer.seq);
            numbering.unsent.remove(&answer.seq);
        }
    }
}

impl Rpc {
    /// Creates and registers an endpoint. Call [`Rpc::start`] to serve
    /// requests; pure clients may skip it only if they never receive
    /// unsolicited traffic (responses still require `start`).
    ///
    /// Its counter starts at the boot epoch: the clock reading now
    /// (`seal_charged` has why a later life never reuses a number).
    pub fn new(fabric: &Rc<Fabric>, id: EndpointId, cfg: RpcConfig) -> Rc<Self> {
        fabric.register(id, cfg.endpoint);
        let epoch = if runtime::in_fiber() {
            runtime::now().max(1)
        } else {
            1
        };
        Rc::new(Rpc {
            fabric: Rc::clone(fabric),
            id,
            env: SecureEnvelope::new(cfg.crypto),
            numbering: FiberCell::new(Numbering {
                next: epoch,
                pending: BTreeMap::new(),
                unsent: BTreeSet::new(),
            }),
            handlers: FiberCell::new(HashMap::new()),
            sessions: FiberCell::new(HashMap::new()),
            guard: FiberCell::new(HashMap::new()),
            started: Cell::new(false),
            stopped: Cell::new(false),
            cfg,
        })
    }

    /// This endpoint's fabric id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Rc<Fabric> {
        &self.fabric
    }

    /// Registers a handler for the request code `code`, which a request
    /// carries sealed. `guarded` has the replay guard check each request's
    /// number (module header) — required for all non-idempotent
    /// transaction traffic. `handler` is any pointer to one:
    /// a [`ReqHandler`], an `Rc` or `Arc` of a closure.
    pub fn register_handler<F>(
        &self,
        code: u8,
        guarded: bool,
        handler: impl Deref<Target = F> + 'static,
    ) where
        F: Fn(EndpointId, TxMeta, Vec<u8>) -> Option<(TxMeta, Vec<u8>)> + ?Sized,
    {
        let handler: ReqHandler = Rc::new(move |src, meta, payload| (*handler)(src, meta, payload));
        self.handlers
            .borrow_mut()
            .insert(code, Rc::new(HandlerEntry { handler, guarded }));
    }

    /// Spawns the dispatcher fiber. Idempotent per endpoint lifetime.
    pub fn start(self: &Rc<Self>) {
        if self.started.replace(true) {
            return;
        }
        let me = Rc::clone(self);
        runtime::spawn_daemon(move || me.dispatch_loop());
    }

    /// Stops the endpoint: deregisters from the fabric (in-flight messages
    /// to it vanish), wakes all pending callers with [`NetError::Closed`]
    /// and drops every queued request — a server fiber that comes back from
    /// its handler finds its session gone and ends.
    pub fn stop(&self) {
        self.stopped.set(true);
        self.fabric.deregister(self.id);
        let mut numbering = self.numbering.borrow_mut();
        for slot in numbering.pending.values_mut() {
            slot.response = Some(Err(NetError::Closed));
            if let Some(w) = slot.waiter.take() {
                runtime::unpark(w);
            }
        }
        self.sessions.borrow_mut().clear();
    }

    /// Whether [`Rpc::stop`] ran: the endpoint's node has crashed.
    pub fn is_stopped(&self) -> bool {
        self.stopped.get()
    }

    /// Entries the replay guard holds: one floor per sender plus the
    /// started numbers at or above it.
    pub fn guard_entries(&self) -> usize {
        self.guard
            .borrow()
            .values()
            .map(|sender| 1 + sender.started.len())
            .sum()
    }

    /// Number of sessions with a request queued or executing — and so the
    /// number of server fibers alive. For tests.
    pub fn open_sessions(&self) -> usize {
        self.sessions.borrow().len()
    }

    // ---- client side -----------------------------------------------------

    /// Seals `requests`, each `(dst, code, meta, payload)` on session
    /// `meta.tx_id`, in order, then puts exactly those on the wire: a burst
    /// carries its caller's requests only, and one with none does nothing.
    /// Requests sharing `(src, session)` are handled in order, one at a
    /// time; distinct sessions are served concurrently (the module header's
    /// session rule). The crypto work and the send are charged to the
    /// calling fiber (sealing happens in the enclave before the buffer
    /// reaches host memory).
    pub fn burst<P: AsRef<[u8]>>(
        self: &Rc<Self>,
        requests: impl IntoIterator<Item = (EndpointId, u8, TxMeta, P)>,
    ) -> Burst {
        let mut burst = Burst {
            rpc: Rc::clone(self),
            awaited: VecDeque::new(),
        };
        let mut sealed = Vec::new();
        for (dst, code, meta, payload) in requests {
            let dg = self.seal_request(dst, code, &meta, payload.as_ref(), true);
            let answer = Stamp {
                seq: dg.rpc_id,
                floor: 0,
                req: code,
            };
            burst.awaited.push_back((dst, answer));
            sealed.push(dg);
        }
        for dg in sealed {
            self.transmit(dg);
        }
        burst
    }

    /// Sends a one-way message (no reply expected, no pending slot).
    pub fn send_oneway(&self, dst: EndpointId, code: u8, meta: &TxMeta, payload: &[u8]) {
        self.transmit(self.seal_request(dst, code, meta, payload, false));
    }

    /// Blocking request/response with the default timeout: a burst of one.
    ///
    /// # Errors
    ///
    /// See [`Burst`].
    pub fn call(
        self: &Rc<Self>,
        dst: EndpointId,
        code: u8,
        meta: &TxMeta,
        payload: &[u8],
    ) -> Result<(TxMeta, Vec<u8>), NetError> {
        // A burst of one yields one reply.
        let reply = self.burst([(dst, code, *meta, payload)]).next();
        reply.map_or(Err(NetError::Closed), |(_, reply)| reply)
    }

    /// Waits for the reply whose sealed stamp is `answer`.
    fn wait_reply(&self, answer: Stamp, timeout: Nanos) -> Result<(TxMeta, Vec<u8>), NetError> {
        let deadline = runtime::now().saturating_add(timeout);
        loop {
            let delivered = {
                let mut numbering = self.numbering.borrow_mut();
                let slot = numbering
                    .pending
                    .get_mut(&answer.seq)
                    .ok_or(NetError::Closed)?;
                match slot.response.take() {
                    Some(result) => Some(result?),
                    None if runtime::now() >= deadline => return Err(NetError::Timeout),
                    None => {
                        // Arm the waiter only for the duration of the park
                        // below; cooperative scheduling guarantees nothing
                        // runs between this assignment and the park.
                        slot.waiter = Some(runtime::current());
                        None
                    }
                }
            };
            match delivered {
                Some(dg) => {
                    // Receiver-side CPU + decrypt happen on the caller: the
                    // reply was addressed to this fiber's request.
                    self.charge(dg.receiver_cpu);
                    match self.open_charged(&dg.wire) {
                        Ok(reply) if reply.stamp == answer => {
                            return Ok((reply.meta, reply.payload))
                        }
                        // Tampered, or a genuine reply to another request:
                        // dropped, and the slot waits on.
                        _ => treaty_sim::obs::counter_add(Counter::NetRpcRejected, 1),
                    }
                }
                None => {
                    runtime::park_timeout(deadline - runtime::now());
                    // Disarm immediately on wake (timeout path); the
                    // dispatcher takes the waiter when it delivers, so a
                    // Some here is ours.
                    if let Some(slot) = self.numbering.borrow_mut().pending.get_mut(&answer.seq) {
                        slot.waiter = None;
                    }
                }
            }
        }
    }

    // ---- server side -----------------------------------------------------

    fn dispatch_loop(self: Rc<Self>) {
        runtime::set_tag("rpc-dispatcher");
        treaty_sim::obs::set_node(self.id);
        loop {
            if self.stopped.get() {
                return;
            }
            match self.fabric.recv(self.id, treaty_sim::SECONDS) {
                Ok(dg) => {
                    if dg.is_response {
                        let mut numbering = self.numbering.borrow_mut();
                        if let Some(slot) = numbering.pending.get_mut(&dg.rpc_id) {
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

    fn route_request(self: &Rc<Self>, dg: Datagram) {
        let key = (dg.src, dg.session);
        // Arrival stamp: the span the server later opens reports the time
        // the request sat in this queue as `queue_ns` — the attribution
        // walker's queueing category.
        let arrived = runtime::now();
        let mut sessions = self.sessions.borrow_mut();
        let queue = sessions.entry(key).or_insert_with(|| {
            let me = Rc::clone(self);
            runtime::spawn_daemon(move || me.serve_session(key));
            VecDeque::new()
        });
        queue.push_back((arrived, dg));
    }

    /// The session's next request; with none left the session is removed,
    /// in the same borrow, and its server ends.
    fn next_request(&self, key: SessionKey) -> Option<(Nanos, Datagram)> {
        let mut sessions = self.sessions.borrow_mut();
        let next = sessions.get_mut(&key).and_then(VecDeque::pop_front);
        if next.is_none() {
            sessions.remove(&key);
        }
        next
    }

    fn serve_session(self: Rc<Self>, key: SessionKey) {
        /// A handler that unwinds (an injected crash, a panic) takes the
        /// server with it: the session must go too, or its later requests
        /// would queue behind nobody.
        struct RemoveOnUnwind<'a>(&'a Rpc, SessionKey);
        impl Drop for RemoveOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.sessions.borrow_mut().remove(&self.1);
                }
            }
        }
        runtime::set_tag("rpc-worker");
        treaty_sim::obs::set_node(self.id);
        let _session = RemoveOnUnwind(&self, key);
        while let Some((arrived, dg)) = self.next_request(key) {
            self.handle_request(dg, arrived);
        }
    }

    fn handle_request(self: &Rc<Self>, dg: Datagram, arrived: Nanos) {
        // Receiver CPU for taking delivery.
        runtime::set_tag("w:recv-charge");
        let started = runtime::now();
        let queue_ns = started.saturating_sub(arrived);
        self.charge(dg.receiver_cpu);
        runtime::set_tag("w:open");
        let Opened {
            sender,
            meta,
            stamp,
            payload,
        } = match self.open_charged(&dg.wire) {
            // A request's floor is never zero: a zero marks a response
            // relabelled as a request.
            Ok(request) if request.stamp.floor > 0 => request,
            _ => {
                // Tampered or replay-of-garbage: reject silently; the
                // sender will time out and retry. Integrity holds.
                treaty_sim::obs::counter_add(Counter::NetRpcRejected, 1);
                return;
            }
        };
        let entry = match self.handlers.borrow().get(&stamp.req) {
            Some(e) => Rc::clone(e),
            None => {
                treaty_sim::obs::counter_add(Counter::NetRpcRejected, 1);
                return;
            }
        };

        let admitted = {
            let mut guard = self.guard.borrow_mut();
            let from = guard.entry(sender).or_default();
            from.raise(stamp.floor);
            !entry.guarded || from.admit(stamp.seq)
        };
        if !admitted {
            // A duplicate, a replay or a straggler: nobody waits for it.
            treaty_sim::obs::counter_add(Counter::NetRpcReplaysSuppressed, 1);
            return;
        }

        // The handler span: its self time is the shielded-boundary work
        // this layer did (open/seal crypto, replay guard); the
        // queue wait and boundary time before it opened ride along as
        // args for the critical-path walker to split out. Transaction
        // scope comes from the opened meta, so cross-node forests link.
        let open_ns = runtime::now().saturating_sub(started);
        let _txn = treaty_sim::obs::txn_scope(meta.tx_id);
        let _span = treaty_sim::obs::span_with(
            Phase::RpcHandle,
            &[
                ("req", u64::from(stamp.req)),
                ("queue_ns", queue_ns),
                ("open_ns", open_ns),
            ],
        );
        runtime::set_tag("w:handler");
        let reply = (entry.handler)(sender, meta, payload);
        runtime::set_tag("w:post-handler");
        if let Some((m, p)) = reply {
            // To the endpoint the authenticated IV names, bound to the
            // request's sealed code and number rather than its plaintext
            // `rpc_id`.
            let answer = Stamp { floor: 0, ..stamp };
            self.send_response(sender, answer, &m, &p);
        }
    }

    /// Seals a request for `dst` on session `meta.tx_id`. Its number holds
    /// the floor down until the fabric has it; an `awaited` one also takes
    /// a slot for its reply.
    fn seal_request(
        &self,
        dst: EndpointId,
        code: u8,
        meta: &TxMeta,
        payload: &[u8],
        awaited: bool,
    ) -> Datagram {
        let (rpc_id, wire) = self.seal_charged(meta, payload, |numbering, n| {
            if awaited {
                numbering.pending.insert(n, PendingSlot::default());
            }
            numbering.unsent.insert(n);
            Stamp {
                seq: n,
                floor: numbering.floor(),
                req: code,
            }
        });
        Datagram {
            src: self.id,
            dst,
            rpc_id,
            session: meta.tx_id,
            is_response: false,
            wire,
            receiver_cpu: 0,
        }
    }

    fn send_response(&self, dst: EndpointId, answer: Stamp, meta: &TxMeta, payload: &[u8]) {
        let (_, wire) = self.seal_charged(meta, payload, |_, _| answer);
        let dg = Datagram {
            src: self.id,
            dst,
            rpc_id: answer.seq,
            session: 0,
            is_response: true,
            wire,
            receiver_cpu: 0,
        };
        self.transmit(dg);
    }

    // ---- shared helpers ----------------------------------------------------

    /// Puts a sealed datagram on the wire: per-message sender CPU, then the
    /// NIC. A request's number stops holding the floor down once the
    /// fabric has it.
    fn transmit(&self, dg: Datagram) {
        let charge = self.fabric.costs().net_send(
            self.cfg.endpoint.transport,
            self.cfg.endpoint.tee,
            dg.wire.len() + crate::fabric::FRAME_HEADER_BYTES,
        );
        self.charge(charge.sender_cpu);
        let sent = (!dg.is_response).then_some(dg.rpc_id);
        self.fabric.send(dg);
        if let Some(n) = sent {
            self.numbering.borrow_mut().unsent.remove(&n);
        }
    }

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
            Protection::Plain => 0,
            Protection::AuthOnly => costs.sha_ns(bytes),
            Protection::Full => costs.aes_ns(bytes),
        }
    }

    /// Seals a message and charges crypto + (SCONE) boundary-copy costs.
    /// The message's number is drawn after the charge; `stamp` runs with it
    /// in the numbering borrow, so a request joins the outstanding set
    /// before anything can yield, and returns the stamp to seal. Returns
    /// the number and the sealed bytes, boundary-typed: message buffers
    /// live in untrusted host memory, so they must be [`HostBytes`].
    ///
    /// *No number twice, across restarts too.* Under `AuthOnly` and `Full`
    /// every seal charges at least the 120 ns AES/HMAC setup, on one of
    /// the node's cores or on the calling fiber, before it draws. With
    /// fewer than 120 cores (or sealing fibers) an endpoint therefore draws
    /// fewer numbers than nanoseconds pass, and a counter that starts at
    /// the clock stays below it. A new life of an endpoint starts at a
    /// later clock reading, above every number of the last life: no IV
    /// repeats under the network key, and no receiver mistakes a new
    /// request for an old one. `Plain` protects nothing, but its
    /// per-message send charge (over 1 µs) keeps the same order.
    fn seal_charged(
        &self,
        meta: &TxMeta,
        payload: &[u8],
        stamp: impl FnOnce(&mut Numbering, u64) -> Stamp,
    ) -> (u64, HostBytes) {
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
        let (n, stamp) = {
            let mut numbering = self.numbering.borrow_mut();
            let n = numbering.next;
            numbering.next += 1;
            (n, stamp(&mut numbering, n))
        };
        let sealed = self
            .env
            .seal_stamped(&self.cfg.key, nonce(self.id, n), meta, stamp, payload);
        (n, HostBytes::from_envelope(sealed))
    }

    fn open_charged(&self, wire: &HostBytes) -> Result<Opened, treaty_crypto::CryptoError> {
        self.charge(self.crypto_cost(wire.len()));
        self.env.open_stamped(&self.cfg.key, wire.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_crypto::{KeyHierarchy, MsgKind};
    use treaty_sched::block_on;
    use treaty_sim::obs::Obs;
    use treaty_sim::CostModel;

    const ECHO: u8 = 7;

    thread_local! {
        /// Runs of the `ECHO` handler on this test's thread.
        static ECHOES: Cell<u64> = const { Cell::new(0) };
    }

    /// Installs a hub; the reader it returns gives one of its counters.
    fn hub() -> impl Fn(Counter) -> u64 {
        let obs = Obs::new(1);
        treaty_sim::obs::install(&obs);
        move |c| obs.metrics().counter(c)
    }

    fn setup(crypto: Protection) -> (Rc<Fabric>, Rc<Rpc>, Rc<Rpc>) {
        let fabric = Fabric::new(CostModel::default(), 42);
        let key = KeyHierarchy::for_testing().network;
        let server_cfg = RpcConfig {
            endpoint: EndpointConfig::default(),
            crypto,
            key,
            cores: Some(Rc::new(CorePool::new(8))),
            timeout: DEFAULT_RPC_TIMEOUT,
        };
        let client_cfg = RpcConfig::client(crypto, key);
        let server = Rpc::new(&fabric, 1, server_cfg);
        server.register_handler(
            ECHO,
            true,
            Rc::new(|_src, meta, payload: Vec<u8>| {
                ECHOES.with(|n| n.update(|n| n + 1));
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
        TxMeta::new(100, tx, op)
    }

    #[test]
    fn call_roundtrip_encrypted() {
        block_on(|| {
            let (_f, _s, client) = setup(Protection::Full);
            let (m, p) = client.call(1, ECHO, &meta(1, 1), b"abc").unwrap();
            assert_eq!(m.kind, MsgKind::Ack);
            assert_eq!(p, b"cba");
        });
    }

    #[test]
    fn call_roundtrip_all_crypto_modes() {
        for crypto in [Protection::Plain, Protection::AuthOnly, Protection::Full] {
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
            let (_f, _s, client) = setup(Protection::Full);
            let mut replies =
                client.burst([(1, ECHO, meta(1, 1), b"a1"), (1, ECHO, meta(1, 2), b"b2")]);
            assert_eq!(replies.next().unwrap().1.unwrap().1, b"1a");
            assert_eq!(replies.next().unwrap().1.unwrap().1, b"2b");
        });
    }

    /// A burst puts its caller's requests on the wire and no one else's.
    /// On one core every seal yields, so B's one-request burst runs while
    /// A is still sealing its three: B's burst sends one message, and A's
    /// three go out with A's burst.
    #[test]
    fn a_burst_sends_only_its_own_requests() {
        block_on(|| {
            let (fabric, _s, _c) = setup(Protection::Full);
            let key = KeyHierarchy::for_testing().network;
            let cfg = RpcConfig {
                cores: Some(Rc::new(CorePool::new(1))),
                ..RpcConfig::client(Protection::Full, key)
            };
            let client = Rpc::new(&fabric, 101, cfg);
            client.start();
            let a = {
                let client = Rc::clone(&client);
                runtime::spawn(move || {
                    let requests = (1..=3).map(|op| (1, ECHO, meta(1, op), [op as u8]));
                    let replies: Vec<Vec<u8>> =
                        client.burst(requests).map(|(_, r)| r.unwrap().1).collect();
                    assert_eq!(replies, [[1], [2], [3]]);
                })
            };
            runtime::sleep(1);
            let before = fabric.stats().sent;
            let mut b = client.burst([(1, ECHO, meta(2, 1), b"b")]);
            assert_eq!(
                fabric.stats().sent - before,
                1,
                "B's burst sent A's requests"
            );
            assert_eq!(b.next().unwrap().1.unwrap().1, b"b");
            runtime::join(a);
        });
    }

    #[test]
    fn timeout_on_dead_server() {
        block_on(|| {
            let (_f, server, client) = setup(Protection::Full);
            server.stop();
            let err = client.call(1, ECHO, &meta(1, 1), b"x").unwrap_err();
            assert_eq!(err, NetError::Timeout);
        });
    }

    #[test]
    fn tampered_request_rejected_and_times_out() {
        block_on(|| {
            let count = hub();
            let (fabric, _server, client) = setup(Protection::Full);
            fabric.with_adversary(|a| a.tamper_next = 1);
            let err = client.call(1, ECHO, &meta(1, 1), b"x").unwrap_err();
            assert_eq!(err, NetError::Timeout);
            assert_eq!(count(Counter::NetRpcRejected), 1);
        });
    }

    #[test]
    fn duplicated_request_executes_once() {
        block_on(|| {
            let count = hub();
            let (fabric, _server, client) = setup(Protection::Full);
            fabric.with_adversary(|a| a.dup_next = 1);
            let (_, p) = client.call(1, ECHO, &meta(9, 1), b"once").unwrap();
            assert_eq!(p, b"ecno");
            // Give the duplicate time to arrive and be suppressed.
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(ECHOES.get(), 1);
            assert_eq!(count(Counter::NetRpcReplaysSuppressed), 1);
        });
    }

    #[test]
    fn replayed_capture_is_suppressed() {
        block_on(|| {
            let count = hub();
            let (fabric, _server, client) = setup(Protection::Full);
            fabric.start_capture();
            let _ = client.call(1, ECHO, &meta(5, 1), b"hello").unwrap();
            let captured = fabric.captured();
            let req = captured.iter().find(|d| !d.is_response).unwrap();
            fabric.inject(req.clone());
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(ECHOES.get(), 1, "replay must not re-execute");
            assert_eq!(count(Counter::NetRpcReplaysSuppressed), 1);
        });
    }

    /// A reply matched to its request by the plaintext `rpc_id` alone lets
    /// a captured reply, relabelled for a later call, answer it with the
    /// earlier call's payload. The sealed echo of the request's number
    /// turns it away.
    #[test]
    fn a_reply_is_bound_to_its_request() {
        block_on(|| {
            let count = hub();
            let (fabric, _server, client) = setup(Protection::Full);
            fabric.start_capture();
            assert_eq!(
                client.call(1, ECHO, &meta(1, 1), b"first").unwrap().1,
                b"tsrif"
            );
            fabric.with_adversary(|a| a.drop_next = 1);
            let mut second = client.burst([(1, ECHO, meta(1, 2), b"second")]);
            let captured = fabric.captured();
            let dropped = captured.iter().rev().find(|d| !d.is_response).unwrap();
            let mut forged = captured.iter().find(|d| d.is_response).unwrap().clone();
            forged.rpc_id = dropped.rpc_id;
            fabric.inject(forged);
            assert_eq!(second.next().unwrap().1.unwrap_err(), NetError::Timeout);
            assert_eq!(count(Counter::NetRpcRejected), 1);
        });
    }

    /// The guard keeps a floor per sender, not a history: after a thousand
    /// calls it holds the client's floor and its last call's number.
    #[test]
    fn the_guard_holds_a_floor_not_a_history() {
        block_on(|| {
            let count = hub();
            let (_f, server, client) = setup(Protection::Full);
            for tx in 1..=1000 {
                client.call(1, ECHO, &meta(tx, 1), b"x").unwrap();
            }
            assert_eq!(server.guard_entries(), 2);
            assert_eq!(count(Counter::NetRpcReplaysSuppressed), 0);
        });
    }

    /// A new life of an endpoint numbers above its last: its first request
    /// runs at a receiver that remembers the last life (a memo keyed by
    /// op ids would answer it with the last life's reply), and raises the
    /// floor past everything that life sent.
    #[test]
    fn a_restarted_sender_numbers_above_its_last_life() {
        block_on(|| {
            let count = hub();
            let (fabric, server, client) = setup(Protection::Full);
            fabric.start_capture();
            client.call(1, ECHO, &meta(1, 1), b"old").unwrap();
            let old = fabric
                .captured()
                .into_iter()
                .find(|d| !d.is_response)
                .unwrap();
            client.stop();
            let key = KeyHierarchy::for_testing().network;
            let reborn = Rpc::new(&fabric, 100, RpcConfig::client(Protection::Full, key));
            reborn.start();
            assert_eq!(reborn.call(1, ECHO, &meta(1, 1), b"new").unwrap().1, b"wen");
            fabric.inject(old);
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(ECHOES.get(), 2);
            assert_eq!(count(Counter::NetRpcReplaysSuppressed), 1);
            assert_eq!(server.guard_entries(), 2);
        });
    }

    #[test]
    fn encrypted_wire_hides_payload() {
        block_on(|| {
            let (fabric, _s, client) = setup(Protection::Full);
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
            let (fabric, _s, client) = setup(Protection::Plain);
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
            let (fabric, _s, client) = setup(Protection::Full);
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
            let (_f, server, _c) = setup(Protection::Full);
            let fabric = Rc::clone(server.fabric());
            let key = KeyHierarchy::for_testing().network;
            let mut handles = Vec::new();
            for cid in 200..232u32 {
                let fabric = Rc::clone(&fabric);
                let cfg = RpcConfig::client(Protection::Full, key);
                handles.push(runtime::spawn(move || {
                    let client = Rpc::new(&fabric, cid, cfg);
                    client.start();
                    for op in 0..5 {
                        let m = TxMeta::new(cid as u64, 1, op);
                        let (_, p) = client.call(1, ECHO, &m, b"ping").unwrap();
                        assert_eq!(p, b"gnip");
                    }
                }));
            }
            for h in handles {
                runtime::join(h);
            }
            assert_eq!(ECHOES.get(), 32 * 5);
        });
    }

    #[test]
    fn oneway_messages_counted_by_handler() {
        block_on(|| {
            let fabric = Fabric::new(CostModel::default(), 7);
            let key = KeyHierarchy::for_testing().network;
            let counter = Rc::new(Cell::new(0));
            let c2 = Rc::clone(&counter);
            let server = Rpc::new(&fabric, 1, RpcConfig::client(Protection::Full, key));
            server.register_handler(
                9,
                false,
                Rc::new(move |_, _, payload: Vec<u8>| {
                    c2.update(|n| n + payload.len() as u64);
                    None
                }),
            );
            server.start();
            let client = Rpc::new(&fabric, 2, RpcConfig::client(Protection::Full, key));
            for i in 0..10 {
                client.send_oneway(1, 9, &meta(i, 0), &[0u8; 100]);
            }
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(counter.get(), 1000);
        });
    }

    /// When each handler run started.
    type Starts = Rc<FiberCell<Vec<Nanos>>>;

    /// A server (no core contention) whose `ECHO` handler sleeps 1 ms and
    /// logs when it started, plus a started client.
    fn slow_server(guarded: bool) -> (Rc<Fabric>, Rc<Rpc>, Rc<Rpc>, Starts) {
        let fabric = Fabric::new(CostModel::default(), 7);
        let key = KeyHierarchy::for_testing().network;
        let starts = Rc::new(FiberCell::new(Vec::new()));
        let log = Rc::clone(&starts);
        let server = Rpc::new(&fabric, 1, RpcConfig::client(Protection::Full, key));
        server.register_handler(
            ECHO,
            guarded,
            Rc::new(move |_, meta, payload| {
                log.borrow_mut().push(runtime::now());
                runtime::sleep(treaty_sim::MILLIS);
                guarded.then_some((meta, payload))
            }),
        );
        server.start();
        let client = Rpc::new(&fabric, 100, RpcConfig::client(Protection::Full, key));
        client.start();
        (fabric, server, client, starts)
    }

    /// Fails at the parent: every one of the 256 sessions kept a worker
    /// parked for a virtual second after its only request.
    #[test]
    fn an_idle_session_holds_no_fiber() {
        block_on(|| {
            let (_f, server, client) = setup(Protection::Full);
            for tx in 1..=256 {
                client.call(1, ECHO, &meta(tx, 1), b"x").unwrap();
            }
            assert_eq!(server.open_sessions(), 0);
            assert_eq!(client.call(1, ECHO, &meta(257, 1), b"ab").unwrap().1, b"ba");
            assert_eq!(ECHOES.get(), 257);
        });
    }

    /// The session rule: one session's requests run one after the other in
    /// arrival order, two sessions' requests side by side.
    #[test]
    fn a_session_serializes_and_sessions_overlap() {
        block_on(|| {
            let (_f, server, client, starts) = slow_server(false);
            client.send_oneway(1, ECHO, &meta(1, 0), b"first");
            client.send_oneway(1, ECHO, &meta(1, 1), b"second");
            runtime::sleep(treaty_sim::MILLIS / 2);
            assert_eq!(server.open_sessions(), 1);
            runtime::sleep(5 * treaty_sim::MILLIS);
            let same: Vec<Nanos> = starts.take();
            assert_eq!(same.len(), 2);
            assert!(
                same[1] - same[0] >= treaty_sim::MILLIS,
                "the second request started while the first was running: {same:?}"
            );

            client.send_oneway(1, ECHO, &meta(2, 0), b"first");
            client.send_oneway(1, ECHO, &meta(3, 0), b"second");
            runtime::sleep(treaty_sim::MILLIS / 2);
            assert_eq!(server.open_sessions(), 2);
            runtime::sleep(5 * treaty_sim::MILLIS);
            let other = starts.borrow().clone();
            assert_eq!(other.len(), 2);
            assert!(
                other[1] - other[0] < treaty_sim::MILLIS,
                "two sessions queued behind each other: {other:?}"
            );
            assert_eq!(server.open_sessions(), 0);
        });
    }

    /// At-most-once against a copy that meets its original mid-execution.
    /// The adversary's duplicate carries the original's session, waits its
    /// turn behind it and finds its number started. The session hint is
    /// plaintext, so a copy can also be steered onto another session: that
    /// one runs beside the original and finds the same. Neither executes,
    /// and neither is answered: the original's reply is the only one.
    #[test]
    fn duplicate_of_an_executing_request_is_suppressed() {
        block_on(|| {
            let count = hub();
            let (fabric, server, client, starts) = slow_server(true);
            fabric.with_adversary(|a| a.dup_next = 1);
            fabric.start_capture();
            let mut reply = client.burst([(1, ECHO, meta(4, 1), b"once")]);
            let mut copy = fabric
                .captured()
                .into_iter()
                .find(|d| !d.is_response)
                .unwrap();
            copy.session += 1;
            fabric.inject(copy);
            runtime::sleep(treaty_sim::MILLIS / 2);
            // The original is asleep in its handler: the same-session copy
            // is still queued, the other-session copy already turned away.
            assert_eq!(starts.borrow().len(), 1);
            assert_eq!(count(Counter::NetRpcReplaysSuppressed), 1);
            assert_eq!(server.open_sessions(), 1);
            assert_eq!(reply.next().unwrap().1.unwrap().1, b"once");
            runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(count(Counter::NetRpcReplaysSuppressed), 2);
            assert_eq!(starts.borrow().len(), 1);
            assert_eq!(server.open_sessions(), 0);
        });
    }

    /// A handler that unwinds takes its server fiber with it, not its
    /// session: the next request of that session gets a fresh server — on
    /// the same endpoint, and on one registered under the same id later.
    #[test]
    fn unwinding_handler_leaves_no_session_behind() {
        use treaty_sim::crashpoint::{self, CrashPoint, FaultSchedule};
        block_on(|| {
            let plan = crashpoint::install();
            let (fabric, server, client) = setup(Protection::Full);
            const CRASHY: u8 = 8;
            let handler: ReqHandler = Rc::new(|_, meta, payload| {
                crashpoint::hit(CrashPoint::PartBeforePrepare);
                Some((meta, payload))
            });
            server.register_handler(CRASHY, false, Rc::clone(&handler));
            // No crash handler registered for node 1: the endpoint stays
            // up, only the fiber that hit the point unwinds.
            plan.arm(FaultSchedule::new().crash_at(CrashPoint::PartBeforePrepare, 1, 1));
            let err = client.call(1, CRASHY, &meta(6, 1), b"x").unwrap_err();
            assert_eq!(err, NetError::Timeout);
            assert_eq!(plan.fired().len(), 1);
            assert_eq!(server.open_sessions(), 0);
            plan.revive(1);
            assert_eq!(client.call(1, CRASHY, &meta(6, 2), b"up").unwrap().1, b"up");

            // `stop` drops what is queued with the map.
            client.send_oneway(1, CRASHY, &meta(6, 3), b"queued");
            server.stop();
            assert_eq!(server.open_sessions(), 0);
            let key = KeyHierarchy::for_testing().network;
            let fresh = Rpc::new(&fabric, 1, RpcConfig::client(Protection::Full, key));
            fresh.register_handler(CRASHY, false, handler);
            fresh.start();
            assert_eq!(
                client.call(1, CRASHY, &meta(6, 4), b"new").unwrap().1,
                b"new"
            );
            assert_eq!(fresh.open_sessions(), 0);
        });
    }

    /// `start` twice is `start` once: a second dispatcher on the same inbox
    /// would show as one more fiber in the run's report.
    #[test]
    fn start_is_idempotent() {
        fn fibers(starts: usize) -> u64 {
            let report = treaty_sim::runtime::Sim::new().run(move || {
                let (_f, server, client) = setup(Protection::Full);
                for _ in 1..starts {
                    server.start();
                }
                client.call(1, ECHO, &meta(1, 1), b"x").unwrap();
            });
            report.unwrap().fibers
        }
        assert_eq!(fibers(3), fibers(1));
    }
}
