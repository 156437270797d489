//! The simulated network fabric: endpoints, NIC ports, transports and the
//! adversary.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::rc::Rc;

use treaty_sched::{FiberMutex, WaitQueue};
use treaty_sim::obs::Phase;
use treaty_sim::runtime;
use treaty_sim::{CostModel, FiberCell, Nanos, TeeMode, Transport};
use treaty_tee::HostBytes;

use crate::NetError;

/// Identifies an endpoint (node or client) on the fabric.
pub type EndpointId = u32;

/// Ethernet + IP + UDP framing added to every wire message.
pub const FRAME_HEADER_BYTES: usize = 64;

/// Per-endpoint network configuration.
#[derive(Debug, Clone, Copy)]
pub struct EndpointConfig {
    /// Transport used when this endpoint sends.
    pub transport: Transport,
    /// TEE mode of the sending/receiving software stack.
    pub tee: TeeMode,
    /// Egress link rate in Gbit/s (servers: 40, paper's clients: 1).
    pub link_gbps: u32,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            transport: Transport::Dpdk,
            tee: TeeMode::Native,
            link_gbps: 40,
        }
    }
}

/// A raw message in flight.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sending endpoint.
    pub src: EndpointId,
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Correlates a response to its request.
    pub rpc_id: u64,
    /// Session routing hint (plaintext, like an eRPC session id): requests
    /// with the same `(src, session)` execute in arrival order, one at a
    /// time; different sessions run concurrently (the session rule in
    /// [`crate::rpc`]'s header). Carries no payload data.
    pub session: u64,
    /// True for responses.
    pub is_response: bool,
    /// Sealed wire bytes (secure envelope). Message buffers live in
    /// untrusted host memory (the eRPC model), so the wire is a
    /// boundary-typed [`HostBytes`], not a raw buffer.
    pub wire: HostBytes,
    /// Receiver-side CPU cost to charge on delivery.
    pub receiver_cpu: Nanos,
}

struct Queued {
    arrival: Nanos,
    seq: u64,
    dg: Datagram,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.arrival, self.seq) == (other.arrival, other.seq)
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest arrival first.
        (other.arrival, other.seq).cmp(&(self.arrival, self.seq))
    }
}

struct Inbox {
    queue: FiberCell<BinaryHeap<Queued>>,
    waiters: WaitQueue,
    closed: Cell<bool>,
}

impl Inbox {
    fn new() -> Rc<Self> {
        Rc::new(Inbox {
            queue: FiberCell::new(BinaryHeap::new()),
            waiters: WaitQueue::new(),
            closed: Cell::new(false),
        })
    }
}

struct EndpointEntry {
    cfg: EndpointConfig,
    inbox: Rc<Inbox>,
    nic: Rc<FiberMutex>,
}

/// Knobs for the network adversary of the §III threat model.
///
/// Probabilistic knobs use the fabric's deterministic RNG; the `*_next`
/// counters force the next N matching events regardless of probability,
/// which tests use for targeted attacks.
#[derive(Debug, Clone, Default)]
pub struct Adversary {
    /// Probability of silently dropping a message.
    pub drop_prob: f64,
    /// Probability of duplicating a message (delivered twice).
    pub dup_prob: f64,
    /// Probability of flipping a byte in the sealed wire bytes.
    pub tamper_prob: f64,
    /// Extra one-way delay added to every delivery.
    pub extra_delay_ns: Nanos,
    /// Force-drop the next N messages.
    pub drop_next: u32,
    /// Force-tamper the next N messages.
    pub tamper_next: u32,
    /// Force-duplicate the next N messages.
    pub dup_next: u32,
    /// Unidirectional partitions: messages from `.0` to `.1` are dropped.
    pub partitions: HashSet<(EndpointId, EndpointId)>,
}

impl Adversary {
    /// An honest network.
    pub fn honest() -> Self {
        Self::default()
    }
}

/// The fabric's counters; [`Fabric::stats`] returns a copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Messages handed to the fabric.
    pub sent: u64,
    /// Messages delivered to an inbox (duplicates count).
    pub delivered: u64,
    /// Messages the adversary dropped (including partitions).
    pub dropped_adversary: u64,
    /// UDP messages dropped for exceeding the MTU.
    pub dropped_mtu: u64,
    /// Messages to unknown/stopped endpoints.
    pub dropped_unreachable: u64,
    /// Messages the adversary tampered with.
    pub tampered: u64,
    /// Messages the adversary duplicated.
    pub duplicated: u64,
}

/// The simulated datacenter network.
pub struct Fabric {
    costs: CostModel,
    endpoints: FiberCell<HashMap<EndpointId, EndpointEntry>>,
    adversary: FiberCell<Adversary>,
    rng: FiberCell<ChaCha8Rng>,
    seq: Cell<u64>,
    stats: FiberCell<FabricStats>,
    capture: FiberCell<Option<Vec<Datagram>>>,
}

impl Fabric {
    /// Creates a fabric with the given cost model and adversary RNG seed.
    pub fn new(costs: CostModel, seed: u64) -> Rc<Self> {
        Rc::new(Fabric {
            costs,
            endpoints: FiberCell::new(HashMap::new()),
            adversary: FiberCell::new(Adversary::honest()),
            rng: FiberCell::new(ChaCha8Rng::seed_from_u64(seed)),
            seq: Cell::new(0),
            stats: FiberCell::default(),
            capture: FiberCell::new(None),
        })
    }

    /// The cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Mutates the adversary configuration in place.
    pub fn with_adversary(&self, f: impl FnOnce(&mut Adversary)) {
        f(&mut self.adversary.borrow_mut());
    }

    /// Starts capturing every wire message (for confidentiality tests and
    /// replay attacks). Capturing is off by default.
    pub fn start_capture(&self) {
        *self.capture.borrow_mut() = Some(Vec::new());
    }

    /// Returns the captured datagrams so far (clones).
    pub fn captured(&self) -> Vec<Datagram> {
        self.capture.borrow().clone().unwrap_or_default()
    }

    /// All captured wire bytes concatenated — what a network sniffer sees.
    pub fn captured_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for dg in self.captured() {
            out.extend_from_slice(dg.wire.as_slice());
        }
        out
    }

    /// Registers an endpoint. Re-registering an id replaces it (node
    /// restart).
    pub(crate) fn register(&self, id: EndpointId, cfg: EndpointConfig) {
        let entry = EndpointEntry {
            cfg,
            inbox: Inbox::new(),
            nic: Rc::new(FiberMutex::new("net.fabric.nic")),
        };
        self.endpoints.borrow_mut().insert(id, entry);
    }

    /// Removes an endpoint; in-flight and future messages to it vanish.
    pub(crate) fn deregister(&self, id: EndpointId) {
        let entry = self.endpoints.borrow_mut().remove(&id);
        if let Some(e) = entry {
            e.inbox.closed.set(true);
            e.inbox.waiters.notify_all();
        }
    }

    fn endpoint_cfg(&self, id: EndpointId) -> Option<EndpointConfig> {
        self.endpoints.borrow().get(&id).map(|e| e.cfg)
    }

    fn inbox_of(&self, id: EndpointId) -> Option<Rc<Inbox>> {
        self.endpoints
            .borrow()
            .get(&id)
            .map(|e| Rc::clone(&e.inbox))
    }

    fn nic_of(&self, id: EndpointId) -> Option<Rc<FiberMutex>> {
        self.endpoints.borrow().get(&id).map(|e| Rc::clone(&e.nic))
    }

    /// Sends a datagram. Blocks the calling fiber for the NIC serialization
    /// time (the egress link is a shared resource). Sender CPU is *not*
    /// charged here — the RPC layer charges it against the node's cores.
    ///
    /// Messages to unknown endpoints are silently dropped, like packets to
    /// a crashed machine.
    pub(crate) fn send(&self, mut dg: Datagram) {
        self.stats.borrow_mut().sent += 1;
        let src_cfg = match self.endpoint_cfg(dg.src) {
            Some(c) => c,
            None => return, // sender gone: nothing to do
        };
        let wire_bytes = dg.wire.len() + FRAME_HEADER_BYTES;
        // Covers NIC serialization: the span length is the time the egress
        // link (a shared resource) was held by this message.
        let _span = treaty_sim::obs::span_with(
            Phase::NetSend,
            &[("dst", u64::from(dg.dst)), ("bytes", wire_bytes as u64)],
        );
        let charge = self
            .costs
            .net_send(src_cfg.transport, src_cfg.tee, wire_bytes);
        // The receive cost depends on the *receiver's* stack: a SCONE node
        // taking delivery of native-client TCP traffic still pays shielded
        // syscalls and boundary copies.
        dg.receiver_cpu = match self.endpoint_cfg(dg.dst) {
            Some(dst_cfg) => {
                self.costs
                    .net_send(src_cfg.transport, dst_cfg.tee, wire_bytes)
                    .receiver_cpu
            }
            None => charge.receiver_cpu,
        };

        if let Some(cap) = self.capture.borrow_mut().as_mut() {
            cap.push(dg.clone());
        }

        // MTU behaviour (Fig. 8): oversized UDP messages never arrive.
        if charge.dropped {
            self.stats.borrow_mut().dropped_mtu += 1;
            return;
        }

        // Occupy the egress NIC for the serialization time.
        if let Some(nic) = self.nic_of(dg.src) {
            let ser = self.costs.serialize_ns(wire_bytes, src_cfg.link_gbps);
            if ser > 0 {
                let guard = nic.lock();
                runtime::sleep(ser);
                drop(guard);
            }
        }

        // Adversary decisions.
        let (drop_it, tamper_it, dup_it, extra_delay) = {
            let mut adv = self.adversary.borrow_mut();
            let mut rng = self.rng.borrow_mut();
            let partitioned = adv.partitions.contains(&(dg.src, dg.dst));
            let drop_it = partitioned
                || adv.drop_next > 0
                || (adv.drop_prob > 0.0 && rng.gen_bool(adv.drop_prob));
            if adv.drop_next > 0 && !partitioned {
                adv.drop_next -= 1;
            }
            let tamper_it = !drop_it
                && (adv.tamper_next > 0
                    || (adv.tamper_prob > 0.0 && rng.gen_bool(adv.tamper_prob)));
            if tamper_it && adv.tamper_next > 0 {
                adv.tamper_next -= 1;
            }
            let dup_it = !drop_it
                && (adv.dup_next > 0 || (adv.dup_prob > 0.0 && rng.gen_bool(adv.dup_prob)));
            if dup_it && adv.dup_next > 0 {
                adv.dup_next -= 1;
            }
            (drop_it, tamper_it, dup_it, adv.extra_delay_ns)
        };

        if drop_it {
            self.stats.borrow_mut().dropped_adversary += 1;
            return;
        }
        if tamper_it {
            self.stats.borrow_mut().tampered += 1;
            if !dg.wire.is_empty() {
                let idx = {
                    let mut rng = self.rng.borrow_mut();
                    rng.gen_range(0..dg.wire.len())
                };
                dg.wire.tamper(idx, 0x55);
            }
        }

        let arrival = runtime::now() + self.costs.propagation_ns + extra_delay;
        if dup_it {
            self.stats.borrow_mut().duplicated += 1;
            self.deliver(dg.clone(), arrival + 1);
        }
        self.deliver(dg, arrival);
    }

    /// Re-injects a previously captured datagram — a replay attack.
    pub fn inject(&self, dg: Datagram) {
        let arrival = runtime::now() + self.costs.propagation_ns;
        self.deliver(dg, arrival);
    }

    fn deliver(&self, dg: Datagram, arrival: Nanos) {
        let inbox = match self.inbox_of(dg.dst) {
            Some(i) => i,
            None => {
                self.stats.borrow_mut().dropped_unreachable += 1;
                return;
            }
        };
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        inbox.queue.borrow_mut().push(Queued { arrival, seq, dg });
        self.stats.borrow_mut().delivered += 1;
        inbox.waiters.notify_one();
    }

    /// Blocking receive for `id`'s inbox, honouring message arrival times.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the endpoint was deregistered,
    /// [`NetError::Timeout`] if `timeout` elapses first.
    pub(crate) fn recv(&self, id: EndpointId, timeout: Nanos) -> Result<Datagram, NetError> {
        let inbox = self.inbox_of(id).ok_or(NetError::Closed)?;
        let deadline = runtime::now().saturating_add(timeout);
        loop {
            if inbox.closed.get() {
                return Err(NetError::Closed);
            }
            let now = runtime::now();
            enum Next {
                Ready(Datagram),
                WaitUntil(Nanos),
                Empty,
            }
            let next = {
                let mut q = inbox.queue.borrow_mut();
                match q.peek().map(|head| head.arrival) {
                    Some(arrival) if arrival > now => Next::WaitUntil(arrival),
                    _ => q.pop().map_or(Next::Empty, |head| Next::Ready(head.dg)),
                }
            };
            match next {
                Next::Ready(dg) => {
                    treaty_sim::obs::instant(
                        Phase::NetRecv,
                        &[("src", u64::from(dg.src)), ("bytes", dg.wire.len() as u64)],
                    );
                    return Ok(dg);
                }
                Next::WaitUntil(arrival) => {
                    if arrival >= deadline {
                        if deadline <= now {
                            return Err(NetError::Timeout);
                        }
                        inbox.waiters.wait_timeout(deadline - now);
                        if runtime::now() >= deadline {
                            return Err(NetError::Timeout);
                        }
                    } else {
                        // Sleep to the head's arrival; earlier messages can
                        // only appear with arrival >= now, so re-check then.
                        inbox.waiters.wait_timeout(arrival - now);
                    }
                }
                Next::Empty => {
                    if now >= deadline {
                        return Err(NetError::Timeout);
                    }
                    inbox.waiters.wait_timeout(deadline - now);
                    if runtime::now() >= deadline && inbox.queue.borrow().is_empty() {
                        return Err(NetError::Timeout);
                    }
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FabricStats {
        *self.stats.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sched::block_on;

    fn dg(src: EndpointId, dst: EndpointId, bytes: usize) -> Datagram {
        Datagram {
            src,
            dst,
            rpc_id: 0,
            session: 0,
            is_response: false,
            wire: HostBytes::declassified(vec![0xAB; bytes], "fabric unit-test frame"),
            receiver_cpu: 0,
        }
    }

    fn fabric_with(a: EndpointConfig, b: EndpointConfig) -> Rc<Fabric> {
        let f = Fabric::new(CostModel::default(), 1);
        f.register(1, a);
        f.register(2, b);
        f
    }

    #[test]
    fn send_recv_roundtrip_with_latency() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.send(dg(1, 2, 100));
            let start = runtime::now();
            let got = f.recv(2, treaty_sim::SECONDS).unwrap();
            assert_eq!(got.wire.len(), 100);
            assert!(runtime::now() > start, "delivery must take virtual time");
        });
    }

    #[test]
    fn recv_times_out_when_silent() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            let r = f.recv(2, 1_000);
            assert_eq!(r.unwrap_err(), NetError::Timeout);
            assert_eq!(runtime::now(), 1_000);
        });
    }

    #[test]
    fn messages_to_unknown_endpoint_vanish() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.send(dg(1, 99, 10));
            assert_eq!(f.stats().dropped_unreachable, 1);
        });
    }

    #[test]
    fn udp_above_mtu_dropped() {
        block_on(|| {
            let cfg = EndpointConfig {
                transport: Transport::KernelUdp,
                ..EndpointConfig::default()
            };
            let f = fabric_with(cfg, cfg);
            f.send(dg(1, 2, 4096));
            assert_eq!(f.stats().dropped_mtu, 1);
            assert!(f.recv(2, 1_000).is_err());
        });
    }

    #[test]
    fn adversary_force_drop() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.with_adversary(|a| a.drop_next = 1);
            f.send(dg(1, 2, 10));
            assert_eq!(f.stats().dropped_adversary, 1);
            f.send(dg(1, 2, 10));
            assert!(f.recv(2, treaty_sim::SECONDS).is_ok());
        });
    }

    #[test]
    fn adversary_tamper_flips_wire_byte() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.with_adversary(|a| a.tamper_next = 1);
            f.send(dg(1, 2, 64));
            let got = f.recv(2, treaty_sim::SECONDS).unwrap();
            assert!(got.wire.as_slice().iter().any(|&b| b != 0xAB));
            assert_eq!(f.stats().tampered, 1);
        });
    }

    #[test]
    fn adversary_duplicates() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.with_adversary(|a| a.dup_next = 1);
            f.send(dg(1, 2, 10));
            assert!(f.recv(2, treaty_sim::SECONDS).is_ok());
            assert!(f.recv(2, treaty_sim::SECONDS).is_ok());
            assert_eq!(f.stats().duplicated, 1);
        });
    }

    #[test]
    fn partition_blocks_one_direction() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.with_adversary(|a| {
                a.partitions.insert((1, 2));
            });
            f.send(dg(1, 2, 10));
            assert!(f.recv(2, 1_000).is_err());
            f.send(dg(2, 1, 10));
            assert!(f.recv(1, treaty_sim::SECONDS).is_ok());
        });
    }

    #[test]
    fn capture_records_wire_bytes() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.start_capture();
            f.send(dg(1, 2, 32));
            let cap = f.captured();
            assert_eq!(cap.len(), 1);
            assert_eq!(cap[0].wire.as_slice(), &[0xAB; 32][..]);
        });
    }

    #[test]
    fn inject_replays_captured_message() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.start_capture();
            f.send(dg(1, 2, 16));
            let _ = f.recv(2, treaty_sim::SECONDS).unwrap();
            let cap = f.captured();
            f.inject(cap[0].clone());
            let replayed = f.recv(2, treaty_sim::SECONDS).unwrap();
            assert_eq!(replayed.wire, cap[0].wire);
        });
    }

    #[test]
    fn deregistered_endpoint_recv_closed() {
        block_on(|| {
            let f = fabric_with(EndpointConfig::default(), EndpointConfig::default());
            f.deregister(2);
            assert_eq!(f.recv(2, 1_000).unwrap_err(), NetError::Closed);
            f.send(dg(1, 2, 10));
            assert_eq!(f.stats().dropped_unreachable, 1);
        });
    }

    #[test]
    fn slow_link_serializes_longer() {
        block_on(|| {
            let fast = EndpointConfig {
                link_gbps: 40,
                ..EndpointConfig::default()
            };
            let slow = EndpointConfig {
                link_gbps: 1,
                ..EndpointConfig::default()
            };
            let f = Fabric::new(CostModel::default(), 1);
            f.register(1, fast);
            f.register(2, slow);
            f.register(3, fast);

            let t0 = runtime::now();
            f.send(dg(1, 3, 10_000));
            let fast_elapsed = runtime::now() - t0;

            let t1 = runtime::now();
            f.send(dg(2, 3, 10_000));
            let slow_elapsed = runtime::now() - t1;
            assert!(
                slow_elapsed > 10 * fast_elapsed,
                "1 Gb/s must serialize ~40x slower ({slow_elapsed} vs {fast_elapsed})"
            );
        });
    }
}
