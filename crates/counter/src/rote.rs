//! The ROTE-style distributed counter protocol over `treaty-net`.
//!
//! A *protection group* of replica enclaves stores counter values. To
//! stabilize a value the sender enclave runs an echo broadcast (§VI):
//!
//! 1. `Update(id, v)` to all replicas → each stores `v` as pending and
//!    answers `Echo(v)`,
//! 2. after a quorum of echoes, `Confirm(id, v)` to all replicas → each
//!    verifies the pending value, persists (seals) its state, answers
//!    `Ack`,
//! 3. after a quorum of ACKs the value is rollback-protected.
//!
//! Replicas refuse non-monotonic updates, so even a quorum of colluding
//! *network* adversaries cannot roll a counter back — they can only deny
//! service (availability, which is outside the guarantees, §VI).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use treaty_crypto::codec;
use treaty_crypto::codec::Record;
use treaty_crypto::{Key, Protection, TxMeta};
use treaty_net::{EndpointId, Fabric, Rpc, RpcConfig};
use treaty_sched::FiberMutex;
use treaty_sim::{runtime, FiberCell, Nanos};
use treaty_tee::{seal, unseal, Measurement, SealedBlob};

use crate::{CounterBackend, CounterError};

/// Request type for counter traffic on the fabric.
pub const ROTE_REQ: u8 = 0xC0;

/// One message of the counter protocol, on the wire as a [`Record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoteMsg {
    /// Round one: store `value` for `id` as pending.
    Update { id: String, value: u64 },
    /// A replica's answer to `Update`.
    Echo { value: u64 },
    /// Round two: make the pending `value` stable (and sealed).
    Confirm { id: String, value: u64 },
    /// A replica's answer to `Confirm`.
    Ack,
    /// Refused: `rollback` when the value is below the stable one.
    Nack { rollback: bool },
    /// Ask a replica for `id`'s stable value.
    Query { id: String },
    /// A replica's answer to `Query`.
    Value { value: u64 },
}

codec!(enum RoteMsg {
    0 => Update { id, value },
    1 => Echo { value },
    2 => Confirm { id, value },
    3 => Ack,
    4 => Nack { rollback },
    5 => Query { id },
    6 => Value { value },
});

impl Record for RoteMsg {
    const MAGIC: u8 = 0x61;
}

#[derive(Debug, Default)]
struct ReplicaState {
    stable: BTreeMap<String, u64>,
    pending: HashMap<String, u64>,
    /// Bumped per applied `Confirm`: what a seal must cover to carry it.
    version: u64,
}

/// What a replica seals: the stable map as key-sorted pairs, so the sealed
/// bytes (and the write they are priced by) never depend on hash order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedState {
    /// `(counter id, stable value)` in key order.
    pub stable: Vec<(String, u64)>,
}

codec!(struct SealedState { stable });

impl Record for SealedState {
    const MAGIC: u8 = 0x71;
}

/// What a replica restarting from `seal_path` knows: the sealed stable
/// map, or nothing when it never sealed.
///
/// # Panics
///
/// Panics if the file exists but does not unseal.
#[allow(
    clippy::expect_used,
    reason = "tampered replica storage must not restart, and RoteReplica::start's signature is fixed"
)]
fn recover(seal_path: &Path, sealing_key: &Key, measurement: &Measurement) -> ReplicaState {
    if !seal_path.exists() {
        return ReplicaState::default();
    }
    let recovered: Option<SealedState> = std::fs::read(seal_path)
        .ok()
        .and_then(|raw| SealedBlob::from_bytes(&raw).ok())
        .and_then(|blob| unseal(sealing_key, measurement, &blob).ok())
        .and_then(|plain| SealedState::from_bytes(&plain).ok());
    let sealed = recovered
        .expect("replica sealed state is corrupt or was tampered with — refusing to restart");
    ReplicaState {
        stable: sealed.stable.into_iter().collect(),
        ..ReplicaState::default()
    }
}

/// One replica of the protection group.
pub struct RoteReplica {
    rpc: Rc<Rpc>,
    state: FiberCell<ReplicaState>,
    seal_path: PathBuf,
    seal_lock: FiberMutex,
    seal_seq: Cell<u64>,
    /// The state version the last finished seal contains. Read and
    /// written under `seal_lock` only.
    sealed_version: Cell<u64>,
    sealing_key: Key,
    measurement: Measurement,
    endpoint: EndpointId,
}

impl std::fmt::Debug for RoteReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoteReplica")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

impl RoteReplica {
    /// Starts a replica on `endpoint`, recovering sealed state from
    /// `seal_dir` if present.
    ///
    /// # Panics
    ///
    /// Panics if the sealed state exists but does not unseal (tampered
    /// replica storage must not silently restart empty).
    pub fn start(
        fabric: &Rc<Fabric>,
        endpoint: EndpointId,
        key: Key,
        sealing_key: Key,
        seal_dir: &Path,
    ) -> Rc<Self> {
        let measurement = Measurement::of_code("treaty-rote-replica-v1");
        let seal_path = seal_dir.join(format!("rote-{endpoint}.seal"));
        let state = recover(&seal_path, &sealing_key, &measurement);

        let rpc = Rpc::new(fabric, endpoint, RpcConfig::client(Protection::Full, key));
        let replica = Rc::new(RoteReplica {
            rpc: Rc::clone(&rpc),
            state: FiberCell::new(state),
            seal_path,
            seal_lock: FiberMutex::new("counter.rote_seal"),
            seal_seq: Cell::new(0),
            sealed_version: Cell::new(0),
            sealing_key,
            measurement,
            endpoint,
        });

        let r = Rc::clone(&replica);
        rpc.register_handler(
            ROTE_REQ,
            false,
            Rc::new(move |_src, meta, payload| r.handle(meta, payload)),
        );
        rpc.start();
        replica
    }

    /// Stops the replica (simulates a crash; sealed state survives).
    pub fn stop(&self) {
        self.rpc.stop();
    }

    /// The replica's current stable value for `id` (test introspection).
    pub fn stable_value(&self, id: &str) -> u64 {
        *self.state.borrow().stable.get(id).unwrap_or(&0)
    }

    fn handle(&self, meta: TxMeta, payload: Vec<u8>) -> Option<(TxMeta, Vec<u8>)> {
        let msg = RoteMsg::from_bytes(&payload).ok()?;
        // A refusal that is not a rollback: the replica cannot vouch for
        // the value.
        let refuse = || Some((meta, RoteMsg::Nack { rollback: false }.to_bytes()));
        let reply = match msg {
            RoteMsg::Update { id, value } => {
                let mut st = self.state.borrow_mut();
                let stable = *st.stable.get(&id).unwrap_or(&0);
                if value < stable {
                    RoteMsg::Nack { rollback: true }
                } else {
                    let p = st.pending.entry(id).or_insert(0);
                    *p = (*p).max(value);
                    RoteMsg::Echo { value }
                }
            }
            RoteMsg::Confirm { id, value } => {
                let version = {
                    let mut st = self.state.borrow_mut();
                    let stable = *st.stable.get(&id).unwrap_or(&0);
                    let pending_ok = st.pending.get(&id).map(|&p| p >= value).unwrap_or(false);
                    if value <= stable {
                        // Applied already, but maybe not sealed yet (a
                        // seal in flight, or one that failed): the ACK
                        // below still waits for a seal covering it.
                        st.version
                    } else if pending_ok {
                        st.pending.remove(&id);
                        st.stable.insert(id, value);
                        st.version += 1;
                        st.version
                    } else {
                        return refuse();
                    }
                };
                // An Ack promises a seal on disk: a replica that cannot
                // write one withholds it.
                if self.persist(version).is_err() {
                    return refuse();
                }
                RoteMsg::Ack
            }
            RoteMsg::Query { id } => {
                let st = self.state.borrow();
                RoteMsg::Value {
                    value: *st.stable.get(&id).unwrap_or(&0),
                }
            }
            _ => return None,
        };
        Some((meta, reply.to_bytes()))
    }

    /// Returns once a seal containing the update applied as `version` is
    /// on disk. A group seal: a `Confirm` that queued behind a seal begun
    /// after its update finds itself covered; otherwise one seal of the
    /// *current* map carries every `Confirm` applied before it began.
    ///
    /// # Errors
    ///
    /// The I/O error of a seal that did not reach the disk; the sealed
    /// version then stays where it was.
    fn persist(&self, version: u64) -> std::io::Result<()> {
        let guard = self.seal_lock.lock();
        if self.sealed_version.get() >= version {
            return Ok(());
        }
        let (covers, state_bytes) = {
            let st = self.state.borrow();
            let sealed = SealedState {
                stable: st.stable.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            };
            (st.version, sealed.to_bytes())
        };
        let seq = self.seal_seq.replace(self.seal_seq.get() + 1);
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&self.endpoint.to_be_bytes());
        nonce[4..].copy_from_slice(&seq.to_be_bytes());
        let blob = seal(&self.sealing_key, &self.measurement, nonce, &state_bytes);
        let raw = blob.to_bytes();
        // Charge the sealing write before making it visible.
        let costs = self.rpc.fabric().costs();
        runtime::sleep(costs.ssd_append_ns(treaty_sim::TeeMode::Scone, raw.len()));
        let tmp = self.seal_path.with_extension("tmp");
        std::fs::write(&tmp, &raw)?;
        std::fs::rename(&tmp, &self.seal_path)?;
        self.sealed_version.set(covers);
        drop(guard);
        Ok(())
    }
}

/// Client handle to the protection group; implements [`CounterBackend`].
pub struct RoteGroup {
    rpc: Rc<Rpc>,
    replicas: Vec<EndpointId>,
    quorum: usize,
    round_floor: Nanos,
}

impl std::fmt::Debug for RoteGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoteGroup")
            .field("replicas", &self.replicas)
            .field("quorum", &self.quorum)
            .finish_non_exhaustive()
    }
}

impl RoteGroup {
    /// Creates a client on `endpoint` talking to `replicas`.
    ///
    /// `round_floor` models the deployment latency of the real service
    /// (~2 ms in the paper): a value is never stable sooner after its
    /// round started.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn connect(
        fabric: &Rc<Fabric>,
        endpoint: EndpointId,
        key: Key,
        replicas: Vec<EndpointId>,
        round_floor: Nanos,
    ) -> Rc<Self> {
        assert!(!replicas.is_empty(), "protection group needs replicas");
        let quorum = replicas.len() / 2 + 1;
        let mut cfg = RpcConfig::client(Protection::Full, key);
        cfg.timeout = 10 * treaty_sim::MILLIS;
        let rpc = Rpc::new(fabric, endpoint, cfg);
        rpc.start();
        Rc::new(RoteGroup {
            rpc,
            replicas,
            quorum,
            round_floor,
        })
    }

    /// Quorum size of the group.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Sends `msg` to every replica on RPC session `session` and collects
    /// the replies. A request's session is its metadata's `tx_id`.
    fn broadcast(&self, session: u64, msg: &RoteMsg) -> Vec<RoteMsg> {
        let payload = msg.to_bytes();
        let requests = self.replicas.iter().enumerate().map(|(i, &r)| {
            let meta = TxMeta::new(self.rpc.id() as u64, session, i as u64);
            (r, ROTE_REQ, meta, &payload)
        });
        self.rpc
            .burst(requests)
            .filter_map(|(_, reply)| RoteMsg::from_bytes(&reply.ok()?.1).ok())
            .collect()
    }
}

/// The RPC session of counter `id`. One session per counter id: a replica
/// serves a counter's requests in arrival order, one at a time, and
/// different counters of one client side by side.
fn session_of(id: &str) -> u64 {
    let digest = treaty_crypto::hash::sha256(id.as_bytes());
    u64::from_le_bytes(std::array::from_fn(|i| digest.0[i]))
}

impl CounterBackend for RoteGroup {
    fn stabilize(&self, id: &str, value: u64) -> Result<Nanos, CounterError> {
        let t0 = runtime::now();
        let session = session_of(id);

        // Round 1: update + echoes.
        let echoes = self.broadcast(
            session,
            &RoteMsg::Update {
                id: id.to_string(),
                value,
            },
        );
        let mut echo_count = 0;
        for e in &echoes {
            match e {
                RoteMsg::Echo { value: v } if *v == value => echo_count += 1,
                RoteMsg::Nack { rollback: true } => return Err(CounterError::Rollback),
                _ => {}
            }
        }
        if echo_count < self.quorum {
            return Err(CounterError::NoQuorum {
                acks: echo_count,
                needed: self.quorum,
            });
        }

        // Round 2: confirm + ACKs (replicas persist here).
        let acks = self.broadcast(
            session,
            &RoteMsg::Confirm {
                id: id.to_string(),
                value,
            },
        );
        let ack_count = acks.iter().filter(|a| matches!(a, RoteMsg::Ack)).count();
        if ack_count < self.quorum {
            return Err(CounterError::NoQuorum {
                acks: ack_count,
                needed: self.quorum,
            });
        }

        // The deployed service's observed latency is a floor on when the
        // value counts as stable, not on when the next exchange may start.
        Ok(self.round_floor.saturating_sub(runtime::now() - t0))
    }

    fn latest(&self, id: &str) -> u64 {
        let replies = self.broadcast(session_of(id), &RoteMsg::Query { id: id.to_string() });
        let mut values: Vec<u64> = replies
            .iter()
            .filter_map(|r| match r {
                RoteMsg::Value { value } => Some(*value),
                _ => None,
            })
            .collect();
        values.sort_unstable();
        // The max over any quorum is safe: a stabilized value reached at
        // least `quorum` replicas, so the true latest is visible as long as
        // a quorum responds.
        values.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrustedCounter;
    use treaty_sched::block_on;
    use treaty_sim::{CostModel, MILLIS};

    fn group(dir: &Path) -> (Rc<Fabric>, Vec<Rc<RoteReplica>>, Rc<RoteGroup>) {
        group_with_floor(dir, 2 * MILLIS)
    }

    fn group_with_floor(
        dir: &Path,
        round_floor: Nanos,
    ) -> (Rc<Fabric>, Vec<Rc<RoteReplica>>, Rc<RoteGroup>) {
        let fabric = Fabric::new(CostModel::default(), 11);
        let key = treaty_crypto::KeyHierarchy::for_testing();
        let replicas: Vec<_> = (0..3)
            .map(|i| RoteReplica::start(&fabric, 1000 + i, key.counter, key.sealing, dir))
            .collect();
        let client = RoteGroup::connect(
            &fabric,
            1100,
            key.counter,
            vec![1000, 1001, 1002],
            round_floor,
        );
        (fabric, replicas, client)
    }

    /// When a waiter returned, and with what.
    type Outcome = Rc<FiberCell<Option<(Nanos, Result<(), CounterError>)>>>;

    /// Spawns a fiber that waits for `value` and stores when it returned.
    fn waiter(c: &Rc<TrustedCounter>, value: u64) -> (runtime::FiberId, Outcome) {
        let out = Rc::new(FiberCell::new(None));
        let (c, out2) = (Rc::clone(c), Rc::clone(&out));
        let fiber = runtime::spawn(move || {
            let result = c.wait_stable(value);
            *out2.borrow_mut() = Some((runtime::now(), result));
        });
        (fiber, out)
    }

    #[test]
    fn stabilize_reaches_quorum_and_reports_the_rest_of_the_floor() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, replicas, client) = group(&path);
            let t0 = runtime::now();
            let remaining = client.stabilize("wal-1", 5).unwrap();
            let exchange = runtime::now() - t0;
            assert!(
                exchange > 0 && exchange < 2 * MILLIS,
                "exchange took {exchange}"
            );
            assert_eq!(exchange + remaining, 2 * MILLIS, "round floor not applied");
            assert_eq!(client.latest("wal-1"), 5);
            for r in &replicas {
                assert_eq!(r.stable_value("wal-1"), 5);
            }
        });
    }

    #[test]
    fn survives_one_replica_crash() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, replicas, client) = group(&path);
            replicas[2].stop();
            client.stabilize("wal-1", 7).unwrap();
            assert_eq!(client.latest("wal-1"), 7);
        });
    }

    #[test]
    fn two_replica_crashes_deny_service_but_not_safety() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, replicas, client) = group(&path);
            client.stabilize("wal-1", 3).unwrap();
            replicas[1].stop();
            replicas[2].stop();
            let err = client.stabilize("wal-1", 9).unwrap_err();
            assert!(matches!(err, CounterError::NoQuorum { .. }));
            // The old value is still what the surviving replica reports.
            assert_eq!(replicas[0].stable_value("wal-1"), 3);
        });
    }

    #[test]
    fn rollback_update_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, _r, client) = group(&path);
            client.stabilize("clog", 10).unwrap();
            let err = client.stabilize("clog", 4).unwrap_err();
            assert_eq!(err, CounterError::Rollback);
            assert_eq!(client.latest("clog"), 10);
        });
    }

    #[test]
    fn replica_recovers_sealed_state_after_crash() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let key = treaty_crypto::KeyHierarchy::for_testing();
            let (fabric, replicas, client) = group(&path);
            client.stabilize("wal-1", 12).unwrap();
            // Crash replica 0 and restart it from sealed state.
            replicas[0].stop();
            let revived = RoteReplica::start(&fabric, 1000, key.counter, key.sealing, &path);
            assert_eq!(revived.stable_value("wal-1"), 12);
        });
    }

    #[test]
    #[should_panic(expected = "tampered")]
    fn tampered_sealed_state_refuses_restart() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let key = treaty_crypto::KeyHierarchy::for_testing();
            let (fabric, replicas, client) = group(&path);
            client.stabilize("wal-1", 12).unwrap();
            replicas[0].stop();
            // Adversary edits the sealed file.
            let seal_file = path.join("rote-1000.seal");
            let mut raw = std::fs::read(&seal_file).unwrap();
            let mid = raw.len() / 2;
            raw[mid] = raw[mid].wrapping_add(1);
            std::fs::write(&seal_file, &raw).unwrap();
            let _ = RoteReplica::start(&fabric, 1000, key.counter, key.sealing, &path);
        });
    }

    /// A replica that cannot write its seal withholds its `Ack` instead
    /// of panicking, so a group without a quorum of sealed replicas fails
    /// the round — and a retried round does not count it either, though
    /// the value is applied in its memory.
    #[test]
    fn a_replica_that_cannot_seal_withholds_its_ack() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let key = treaty_crypto::KeyHierarchy::for_testing();
            let (fabric, replicas, client) = group(&path);
            // Replica 1002 writes its seal to `rote-1002.tmp` first.
            std::fs::create_dir(path.join("rote-1002.tmp")).unwrap();
            replicas[1].stop();
            let err = client.stabilize("wal-1", 5).unwrap_err();
            assert_eq!(err, CounterError::NoQuorum { acks: 1, needed: 2 });
            assert_eq!(replicas[0].sealed_version.get(), 1);
            assert_eq!(replicas[2].sealed_version.get(), 0);

            let _revived = RoteReplica::start(&fabric, 1001, key.counter, key.sealing, &path);
            client.stabilize("wal-1", 5).unwrap();
            assert_eq!(replicas[2].stable_value("wal-1"), 5);
            assert_eq!(replicas[2].sealed_version.get(), 0);
            let meta = TxMeta::new(1, 1, 0);
            let confirm = RoteMsg::Confirm {
                id: "wal-1".into(),
                value: 5,
            };
            let reply = |r: &RoteReplica| {
                let (_, bytes) = r.handle(meta, confirm.to_bytes()).unwrap();
                RoteMsg::from_bytes(&bytes).unwrap()
            };
            assert_eq!(reply(&replicas[2]), RoteMsg::Nack { rollback: false });

            // Once the disk lets it seal, the duplicate is acknowledged.
            std::fs::remove_dir(path.join("rote-1002.tmp")).unwrap();
            assert_eq!(reply(&replicas[2]), RoteMsg::Ack);
            assert_eq!(replicas[2].sealed_version.get(), 1);
        });
    }

    #[test]
    fn trusted_counter_over_rote_group() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, _r, client) = group(&path);
            let c = TrustedCounter::new("node1/clog", client as Rc<dyn CounterBackend>, 0);
            let v1 = c.assign();
            let v2 = c.assign();
            c.wait_stable(v2).unwrap();
            assert!(c.stable() >= v2);
            assert_eq!((v1, v2), (1, 2));
            assert_eq!(c.latest_stabilized(), 2);
        });
    }

    /// A failed round fails its own waiters only: once a quorum is back the
    /// same counter stabilizes again, without a node restart.
    #[test]
    fn counter_recovers_after_a_failed_round() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let key = treaty_crypto::KeyHierarchy::for_testing();
            let (fabric, replicas, client) = group(&path);
            let c = TrustedCounter::new("node1/clog", client as Rc<dyn CounterBackend>, 0);
            let v1 = c.assign();
            c.wait_stable(v1).unwrap();

            replicas[1].stop();
            replicas[2].stop();
            let v2 = c.assign();
            // The leader and a waiter parked on its round both see it fail.
            let rider = {
                let c = Rc::clone(&c);
                runtime::spawn(move || {
                    let err = c.wait_stable(v2).unwrap_err();
                    assert!(matches!(err, CounterError::NoQuorum { .. }), "{err:?}");
                })
            };
            let err = c.wait_stable(v2).unwrap_err();
            assert!(matches!(err, CounterError::NoQuorum { .. }), "{err:?}");
            runtime::join(rider);
            assert_eq!(c.stable(), v1);

            let revived = RoteReplica::start(&fabric, 1001, key.counter, key.sealing, &path);
            assert_eq!(revived.stable_value("node1/clog"), v1);
            let v3 = c.assign();
            c.wait_stable(v3).unwrap();
            assert_eq!(c.stable(), v3);
            assert_eq!(c.latest_stabilized(), v3);
        });
    }

    /// A round occupies its counter for the exchange, not for the floor: a
    /// waiter that just misses a round leads the next one under it.
    #[test]
    fn rounds_overlap_their_latency() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, _r, client) = group(&path);
            let c = TrustedCounter::new("node1/wal", client as Rc<dyn CounterBackend>, 0);
            let t0 = runtime::now();
            let (first, first_done) = waiter(&c, c.assign());
            runtime::sleep(300 * treaty_sim::MICROS);
            let v2 = c.assign();
            c.wait_stable(v2).unwrap();
            let second_at = runtime::now();
            runtime::join(first);
            let (first_at, result) = first_done.borrow_mut().take().unwrap();
            result.unwrap();
            assert!(
                first_at - t0 >= 2 * MILLIS,
                "first published before its floor"
            );
            assert!(first_at <= second_at, "rounds published out of start order");
            assert!(
                second_at - t0 < 4 * MILLIS,
                "the second round waited out the first: stable after {} ns",
                second_at - t0
            );
        });
    }

    /// Nobody observes `stable() >= v` before a quorum of replicas has
    /// sealed `v` and the full floor has passed since `v`'s round began.
    #[test]
    fn publication_waits_for_ack_quorum_and_the_full_floor() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, replicas, client) = group(&path);
            let quorum = client.quorum();
            let c = TrustedCounter::new("node1/wal", client as Rc<dyn CounterBackend>, 0);
            let t0 = runtime::now();
            let (first, _) = waiter(&c, c.assign());
            let watcher = {
                let c = Rc::clone(&c);
                runtime::spawn(move || {
                    // Values 1 and 2 are waited for at t0 and t0 + 300 µs.
                    let began = [t0, t0 + 300 * treaty_sim::MICROS];
                    while c.stable() < 2 {
                        let stable = c.stable();
                        let sealed = replicas
                            .iter()
                            .filter(|r| r.stable_value("node1/wal") >= stable)
                            .count();
                        assert!(sealed >= quorum, "{stable} published on {sealed} replicas");
                        if stable > 0 {
                            let since = runtime::now() - began[stable as usize - 1];
                            assert!(since >= 2 * MILLIS, "{stable} published after {since} ns");
                        }
                        runtime::sleep(10 * treaty_sim::MICROS);
                    }
                })
            };
            runtime::sleep(300 * treaty_sim::MICROS);
            let v2 = c.assign();
            c.wait_stable(v2).unwrap();
            assert!(runtime::now() - t0 >= 2 * MILLIS + 300 * treaty_sim::MICROS);
            runtime::join(first);
            runtime::join(watcher);
        });
    }

    /// A round that fails while its predecessor is still waiting out the
    /// floor fails its own leader and riders only: the predecessor and its
    /// riders publish, and the failed values are led afresh.
    #[test]
    fn a_failed_round_spares_its_predecessor() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let key = treaty_crypto::KeyHierarchy::for_testing();
            // A floor longer than the 10 ms a replica-less exchange takes
            // to give up, so the failure lands inside round one's wait.
            let floor = 30 * MILLIS;
            let (fabric, replicas, client) = group_with_floor(&path, floor);
            let c = TrustedCounter::new("node1/clog", client as Rc<dyn CounterBackend>, 0);
            let t0 = runtime::now();
            let v1 = c.assign();
            let (leader1, leader1_done) = waiter(&c, v1);
            runtime::sleep(MILLIS); // round one is past its exchange
            replicas[1].stop();
            replicas[2].stop();
            let v2 = c.assign();
            let (leader2, leader2_done) = waiter(&c, v2);
            runtime::sleep(MILLIS); // round two is mid-exchange
            let (rider1, rider1_done) = waiter(&c, v1);
            let (rider2, rider2_done) = waiter(&c, v2);

            runtime::join(leader2);
            runtime::join(rider2);
            for done in [leader2_done, rider2_done] {
                let (at, result) = done.borrow_mut().take().unwrap();
                assert!(
                    at - t0 < floor,
                    "round two failed only after round one published"
                );
                assert!(
                    matches!(result, Err(CounterError::NoQuorum { .. })),
                    "{result:?}"
                );
            }
            assert_eq!(c.stable(), 0, "round one is still waiting out its floor");
            assert!(leader1_done.borrow().is_none() && rider1_done.borrow().is_none());

            // `covered` fell back to round one's target: the next caller
            // for `v2` leads a fresh round instead of riding a dead one.
            let _revived = RoteReplica::start(&fabric, 1001, key.counter, key.sealing, &path);
            let (leader3, leader3_done) = waiter(&c, v2);

            runtime::join(leader1);
            runtime::join(rider1);
            for done in [leader1_done, rider1_done] {
                let (at, result) = done.borrow_mut().take().unwrap();
                result.unwrap();
                assert_eq!(at - t0, floor);
            }
            assert_eq!(c.stable(), v1);
            runtime::join(leader3);
            leader3_done.borrow_mut().take().unwrap().1.unwrap();
            assert_eq!(c.stable(), v2);
            assert_eq!(c.latest_stabilized(), v2);
        });
    }

    /// Concurrent `Confirm`s share seals, and every `Ack` still follows
    /// the rename of a seal that contains its update.
    #[test]
    fn concurrent_confirms_share_seals_and_every_ack_is_recoverable() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_f, replicas, _client) = group(&path);
            let replica = Rc::clone(&replicas[0]);
            let meta = TxMeta::new(1, 1, 0);
            let send = move |r: &RoteReplica, msg: RoteMsg| {
                let (_, reply) = r.handle(meta, msg.to_bytes()).expect("replica answers");
                RoteMsg::from_bytes(&reply).expect("reply decodes")
            };
            let confirms: Vec<_> = (0..8u64)
                .map(|i| {
                    let id = format!("node{i}/wal");
                    let value = 10 + i;
                    let echo = send(
                        &replica,
                        RoteMsg::Update {
                            id: id.clone(),
                            value,
                        },
                    );
                    assert!(matches!(echo, RoteMsg::Echo { .. }));
                    let replica = Rc::clone(&replica);
                    runtime::spawn(move || {
                        let ack = send(
                            &replica,
                            RoteMsg::Confirm {
                                id: id.clone(),
                                value,
                            },
                        );
                        assert!(matches!(ack, RoteMsg::Ack));
                        // What a replica crashing right now restarts with.
                        let on_disk = recover(
                            &replica.seal_path,
                            &replica.sealing_key,
                            &replica.measurement,
                        );
                        assert!(
                            on_disk.stable.get(&id).is_some_and(|&v| v >= value),
                            "{id} acked at {value}, the seal holds {:?}",
                            on_disk.stable.get(&id)
                        );
                    })
                })
                .collect();
            for fiber in confirms {
                runtime::join(fiber);
            }
            let seals = replica.seal_seq.get();
            assert!(
                (1..8).contains(&seals),
                "8 concurrent confirms wrote {seals} seals"
            );
        });
    }
}
