//! Regression tests for the coordinator bugs found while building the
//! crash-point fault-injection harness (ISSUE 4):
//!
//! 1. a commit request for an already-aborted transaction was acked
//!    `Committed` ("unknown gtx = empty transaction"),
//! 2. a pre-prepare abort ran the full phase-2 retry train against a dead
//!    peer inside the client-op session fiber (~1 s simulated stall),
//! 3. `handle_client_rollback` double-counted aborts when no coordinator
//!    state existed,
//! 4. `resolve_recovered` silently dropped an undecided transaction when
//!    the decision could not be logged during re-drive.
//!
//! The "confused client" is modeled with a raw RPC endpoint so tests can
//! re-send commit/rollback for a transaction the well-behaved client API
//! would consider finished.

use std::collections::BTreeMap;
use std::rc::Rc;

use treaty_core::client::client_net;
use treaty_core::clog::{ClogRecord, CLOG_FILE, CLOG_NAME};
use treaty_core::cluster::{COUNTER_BASE, COUNTER_CLIENT_BASE};
use treaty_core::messages::{
    decode, encode, req, Abort, AbortCause, ClientCommitReq, CommitResult, Lane, Op, OpResult,
    PeerOps, PeerPrepare, WriteCmd,
};
use treaty_core::{Cluster, ClusterOptions, TreatyError};
use treaty_crypto::codec::Record as _;
use treaty_crypto::TxMeta;
use treaty_net::{Rpc, RpcConfig};
use treaty_sched::block_on;
use treaty_sim::obs::{Counter, Obs};
use treaty_sim::runtime::now;
use treaty_sim::{Nanos, SecurityProfile, MILLIS, SECONDS};
use treaty_store::env::protection;
use treaty_store::log::replay;
use treaty_store::{GlobalTxId, TxnEngine as _};

fn options(dir: &std::path::Path) -> ClusterOptions {
    let mut o = ClusterOptions::new(SecurityProfile::treaty_full(), dir.to_path_buf());
    o.engine_config = treaty_store::EngineConfig::tiny();
    o
}

/// One key per node, keyed by owner endpoint (ordered for determinism).
fn key_per_node(cluster: &Cluster) -> BTreeMap<u32, Vec<u8>> {
    keys_per_node_named(cluster, "spread")
}

/// One key per node whose name starts with `prefix`.
fn keys_per_node_named(cluster: &Cluster, prefix: &str) -> BTreeMap<u32, Vec<u8>> {
    let mut found: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    for i in 0..10_000u32 {
        let k = format!("{prefix}-{i}").into_bytes();
        let owner = cluster.shard_map().owner(&k);
        found.entry(owner).or_insert(k);
        if found.len() == cluster.node_endpoints().len() {
            break;
        }
    }
    found
}

/// A raw RPC endpoint speaking the client protocol without the client
/// library's state machine — the "confused client".
fn raw_client(cluster: &Cluster, id: u32, timeout: Nanos) -> Rc<Rpc> {
    let rpc = Rpc::new(
        cluster.fabric(),
        id,
        RpcConfig {
            endpoint: client_net(),
            crypto: protection(&SecurityProfile::treaty_full()),
            key: cluster.keys().network,
            cores: None,
            timeout,
        },
    );
    rpc.start();
    rpc
}

fn raw_meta(client_id: u32, tx_seq: u64, op_id: u64) -> TxMeta {
    TxMeta::new(client_id as u64, tx_seq, op_id)
}

/// The commit payload of a client with nothing left to ship.
fn empty_commit() -> Vec<u8> {
    encode(&ClientCommitReq::default())
}

/// Bug 1: a transaction rolled back by the client, then committed again by
/// a confused (or retrying) client, was acked `Committed` because the
/// coordinator had no state for it and treated it as an empty transaction.
/// This test FAILS against the pre-fix code.
#[test]
fn commit_after_rollback_is_acked_aborted() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let keys = key_per_node(&cluster);
        let client = cluster.client();

        let mut tx = client.begin(1);
        let seq = tx.gtx().seq;
        for k in keys.values() {
            tx.put(k, b"doomed").unwrap();
        }
        // Writes only buffer: ship them so the coordinator holds state to
        // roll back.
        tx.flush().unwrap();
        tx.rollback().unwrap();

        // The confused client re-sends the commit for the same transaction.
        let raw = raw_client(&cluster, 9900, treaty_net::DEFAULT_RPC_TIMEOUT);
        let meta = raw_meta(9900, seq, 1);
        let (_, bytes) = raw
            .call(1, req::CLIENT_COMMIT, &meta, &empty_commit())
            .unwrap();
        let result: CommitResult = decode(&bytes).unwrap();
        assert!(
            matches!(result, CommitResult::Aborted { .. }),
            "commit of a rolled-back transaction must not be acked Committed, got {result:?}"
        );

        // An actually-empty transaction still commits trivially.
        let empty = client.begin(1);
        empty.commit().unwrap();
    });
}

/// Bug 1, op-error flavor: a transaction auto-aborted because its op hit a
/// dead participant must also answer later commits with `Aborted`.
#[test]
fn commit_after_op_error_abort_is_acked_aborted() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys = key_per_node(&cluster);
        let dead_key = keys.get(&2).unwrap().clone();
        cluster.crash_node(1); // endpoint 2

        let client = cluster.client();
        let mut tx = client.begin(1);
        let seq = tx.gtx().seq;
        tx.put(&dead_key, b"x").unwrap();
        assert!(tx.flush().is_err(), "op to a crashed participant must fail");
        // Let the coordinator finish the op handler and its advisory abort.
        treaty_sim::runtime::sleep(2 * SECONDS);

        let raw = raw_client(&cluster, 9901, treaty_net::DEFAULT_RPC_TIMEOUT);
        let meta = raw_meta(9901, seq, 7);
        let (_, bytes) = raw
            .call(1, req::CLIENT_COMMIT, &meta, &empty_commit())
            .unwrap();
        let result: CommitResult = decode(&bytes).unwrap();
        assert!(
            matches!(result, CommitResult::Aborted { .. }),
            "commit of an op-error-aborted transaction must be acked Aborted, got {result:?}"
        );
    });
}

/// Bug 2: the pre-prepare abort after an op failure used to run the
/// 6-attempt decision-retry train against the dead peer inside the
/// client-op handler, stalling that session fiber for over a simulated
/// second. The advisory abort replies within the participant RPC timeout.
#[test]
fn pre_prepare_abort_does_not_stall_the_session() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys = key_per_node(&cluster);
        let dead_key = keys.get(&2).unwrap().clone();
        cluster.crash_node(1); // endpoint 2

        // A raw call with a generous timeout measures the handler's true
        // duration (the client library would give up at its own timeout).
        let raw = raw_client(&cluster, 9902, 5 * SECONDS);
        let ops = vec![Op::Write(WriteCmd::put(&dead_key, b"x"))];
        let meta = raw_meta(9902, (9902u64 << 32) | 1, 1);
        let t0 = now();
        let (_, bytes) = raw.call(1, req::CLIENT_OPS, &meta, &encode(&ops)).unwrap();
        let elapsed = now() - t0;
        let result: OpResult = decode(&bytes).unwrap();
        assert!(
            matches!(result, OpResult::Failed(_)),
            "op on a dead shard must fail, got {result:?}"
        );
        assert!(
            elapsed < 600 * MILLIS,
            "pre-prepare abort stalled the session fiber for {} ms",
            elapsed / MILLIS
        );
    });
}

/// An op list is zero or more writes, then at most one read or range op:
/// the reply carries one result. A raw client that sends any other shape
/// gets a typed failure naming the coordinator, and the transaction is
/// aborted like after any other failed op.
#[test]
fn op_list_with_a_read_before_its_end_is_rejected() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let raw = raw_client(&cluster, 9904, treaty_net::DEFAULT_RPC_TIMEOUT);
        let seq = (9904u64 << 32) | 1;
        let ops = vec![
            Op::Write(WriteCmd::put(b"shape-a", b"x")),
            Op::Get {
                key: b"shape-b".to_vec(),
            },
            Op::Write(WriteCmd::put(b"shape-c", b"x")),
        ];
        let meta = raw_meta(9904, seq, 1);
        let (_, bytes) = raw.call(1, req::CLIENT_OPS, &meta, &encode(&ops)).unwrap();
        match decode::<OpResult>(&bytes).unwrap() {
            OpResult::Failed(abort) => assert_eq!(
                abort,
                Abort {
                    cause: AbortCause::Malformed,
                    participant: Some(1),
                }
            ),
            other => panic!("malformed list must fail, got {other:?}"),
        }
        let meta = raw_meta(9904, seq, 2);
        let (_, bytes) = raw
            .call(1, req::CLIENT_COMMIT, &meta, &empty_commit())
            .unwrap();
        let result: CommitResult = decode(&bytes).unwrap();
        assert!(matches!(result, CommitResult::Aborted { .. }), "{result:?}");
        assert_eq!(cluster.totals(), (0, 1));
    });
}

/// A commit whose payload does not decode aborts its transaction like any
/// other abort: the coordinator's context, its local slice and its locks
/// go, and the abort is counted. This test FAILS against the parent, where
/// the reply came back before the context left `active_coord`.
#[test]
fn a_malformed_commit_aborts_its_transaction() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let key = key_per_node(&cluster)[&1].clone();
        let raw = raw_client(&cluster, 9905, treaty_net::DEFAULT_RPC_TIMEOUT);
        let seq = (9905u64 << 32) | 1;
        let ops = vec![Op::Write(WriteCmd::put(&key, b"x"))];
        let meta = raw_meta(9905, seq, 1);
        let (_, bytes) = raw.call(1, req::CLIENT_OPS, &meta, &encode(&ops)).unwrap();
        assert_eq!(decode(&bytes), Some(OpResult::Ok { value: None }));
        let owner = cluster.store(0).unwrap();
        assert_eq!(owner.locked_keys(), 1);

        let meta = raw_meta(9905, seq, 2);
        let (_, bytes) = raw.call(1, req::CLIENT_COMMIT, &meta, b"garbage").unwrap();
        let result: CommitResult = decode(&bytes).unwrap();
        assert_eq!(
            result,
            CommitResult::Aborted(AbortCause::Malformed.into()),
            "{result:?}"
        );
        assert_eq!(
            owner.locked_keys(),
            0,
            "the malformed commit leaked its locks"
        );
        assert_eq!(cluster.node(0).stats().aborted, 1);
    });
}

/// Bug 3: a rollback with no coordinator state (already aborted on the
/// op-error path, or pure duplicate) must not bump the abort counter a
/// second time.
#[test]
fn aborts_are_counted_exactly_once() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let keys = key_per_node(&cluster);
        let client = cluster.client();

        // One committed transaction.
        let mut tx = client.begin(1);
        for k in keys.values() {
            tx.put(k, b"v").unwrap();
        }
        tx.commit().unwrap();
        assert_eq!(cluster.totals(), (1, 0));

        // One rolled-back transaction.
        let mut tx = client.begin(1);
        let seq = tx.gtx().seq;
        for k in keys.values() {
            tx.put(k, b"doomed").unwrap();
        }
        tx.flush().unwrap();
        tx.rollback().unwrap();
        assert_eq!(cluster.totals(), (1, 1));

        // A duplicate rollback (no coordinator state) must not re-count.
        let raw = raw_client(&cluster, 9903, treaty_net::DEFAULT_RPC_TIMEOUT);
        let meta = raw_meta(9903, seq, 11);
        raw.call(1, req::CLIENT_ROLLBACK, &meta, &[]).unwrap();
        assert_eq!(
            cluster.totals(),
            (1, 1),
            "duplicate rollback double-counted the abort"
        );

        // Nor must a commit attempt for the same aborted transaction.
        let meta = raw_meta(9903, seq, 12);
        let (_, bytes) = raw
            .call(1, req::CLIENT_COMMIT, &meta, &empty_commit())
            .unwrap();
        let result: CommitResult = decode(&bytes).unwrap();
        assert!(matches!(result, CommitResult::Aborted { .. }));
        assert_eq!(
            cluster.totals(),
            (1, 1),
            "commit-after-abort re-counted the abort"
        );
    });
}

/// Bug 4: when re-driving an undecided transaction fails to log the
/// decision (counter group unreachable), the failure must be surfaced in
/// the recovery outcome instead of silently dropped — and a later pass
/// (after the fault clears) must finish the job.
#[test]
fn failed_redrive_is_surfaced_and_retryable() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let gtx = GlobalTxId {
            node: 1,
            seq: (9998u64 << 32) | 7,
        };
        // An undecided transaction in node 0's Clog, as left by a
        // coordinator crash between log_start and log_decision.
        cluster
            .node(0)
            .clog()
            .unwrap()
            .log_start(gtx, vec![1, 2])
            .unwrap();

        // Cut node 0's counter client off from every replica: the re-drive
        // can append the decision but cannot stabilize it.
        cluster.fabric().with_adversary(|a| {
            for r in 0..3u32 {
                a.partitions.insert((COUNTER_CLIENT_BASE, COUNTER_BASE + r));
            }
        });
        let outcome = cluster.resolve_recovered();
        assert_eq!(
            outcome.failed, 1,
            "failed re-drive must be surfaced, got {outcome:?}"
        );
        assert_eq!(outcome.re_decided, 0);

        // Heal the network: a failed round fails its own waiters only, so
        // the same node — no restart — must now reach a durable decision.
        // (This test used to restart it: the counter latched its first
        // quorum failure forever.)
        cluster.fabric().with_adversary(|a| a.partitions.clear());
        let outcome = cluster.resolve_recovered();
        assert_eq!(
            outcome.failed, 0,
            "healed re-drive still failing: {outcome:?}"
        );
        assert_eq!(
            cluster.node(0).clog().unwrap().decision(gtx),
            Some(false),
            "the undecided transaction must end with a durable abort decision"
        );
    });
}

/// A participant restarted after a lossy phase opens. Five rounds write
/// the same three keys, five more do so while the network drops one
/// message in ten. A participant whose `Prepare` round failed used to
/// leave that record undecided in its WAL while the next round prepared
/// the same key, and the restart refused two undecided `Prepare`s on one
/// key.
#[test]
fn a_lossy_phase_leaves_a_restartable_participant() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        let client = cluster.client();
        for round in 0..10u32 {
            if round == 5 {
                cluster.fabric().with_adversary(|a| a.drop_prob = 0.1);
            }
            let value = format!("round-{round}");
            let committed = (0..50).any(|_| {
                let mut tx = client.begin(1 + round % 3);
                keys.iter().all(|k| tx.put(k, value.as_bytes()).is_ok()) && tx.commit().is_ok()
            });
            assert!(committed, "round {round} never committed");
        }
        cluster.fabric().with_adversary(|a| a.drop_prob = 0.0);
        cluster.crash_node(1);
        cluster.restart_node(1).expect("the participant reopens");
        let outcome = cluster.resolve_recovered();
        assert_eq!(outcome.failed, 0, "{outcome:?}");
        let client = cluster.client();
        let mut tx = client.begin(1);
        for k in &keys {
            assert_eq!(tx.get(k).unwrap().as_deref(), Some(&b"round-9"[..]));
        }
        tx.commit().unwrap();
    });
}

/// The client hears `Committed` at the commit point, with and without
/// stabilization. At the instant `commit()` returns, the coordinator's Clog
/// on disk holds the transaction's `Start` and no `Decision`, the Clog
/// answers no decision, and the coordinator's own slice is still prepared:
/// the decision record's append and the local apply run behind the ack.
/// Once they are drained all three have flipped and the value reads back.
#[test]
fn a_commit_is_acknowledged_before_its_decision_is_appended() {
    let profiles = [
        ("native_treaty", SecurityProfile::native_treaty()),
        ("treaty_full", SecurityProfile::treaty_full()),
    ];
    for (name, profile) in profiles {
        let dir = tempfile::tempdir().unwrap();
        let mut o = ClusterOptions::new(profile, dir.path().to_path_buf());
        o.engine_config = treaty_store::EngineConfig::tiny();
        block_on(move || {
            let cluster = Cluster::start(o).unwrap();
            let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
            let coord = cluster.node(0);
            let clog = coord.clog().expect("durable");
            let store = cluster.store(0).expect("durable");
            let env = cluster.env(0).expect("durable");
            let on_disk = || -> Vec<ClogRecord> {
                replay(env, CLOG_NAME, &env.dir.join(CLOG_FILE))
                    .expect("the Clog replays")
                    .records
                    .iter()
                    .map(|(_, payload)| ClogRecord::from_bytes(payload).expect("a Clog record"))
                    .collect()
            };

            let client = cluster.client();
            let mut tx = client.begin(coord.endpoint());
            let gtx = tx.gtx();
            for k in &keys {
                tx.put(k, b"acked").unwrap();
            }
            tx.commit().expect("commit");
            let is_start =
                |r: &ClogRecord| matches!(r, ClogRecord::Start { gtx: g, .. } if *g == gtx);
            let is_decision = |r: &ClogRecord| *r == ClogRecord::Decision { gtx, commit: true };
            assert_eq!(clog.decision(gtx), None, "{name}: decided at the ack");
            assert!(
                store.prepared_txns().contains(&gtx),
                "{name}: the local slice applied before the ack"
            );
            let records = on_disk();
            assert!(records.iter().any(is_start), "{name}: no Start on disk");
            assert!(
                !records.iter().any(is_decision),
                "{name}: the decision was appended before the ack"
            );

            coord.drain_decisions();
            assert_eq!(clog.decision(gtx), Some(true), "{name}");
            assert!(!store.prepared_txns().contains(&gtx), "{name}");
            assert!(on_disk().iter().any(is_decision), "{name}");
            let mut tx = client.begin(2);
            for k in &keys {
                assert_eq!(tx.get(k).unwrap().as_deref(), Some(&b"acked"[..]), "{name}");
            }
            tx.commit().unwrap();
        });
    }
}

/// A straggler cannot outlive its abort. The coordinator's `PEER_OPS` is
/// lost on its way to the participant; the coordinator times out, aborts
/// and sends the `PEER_ABORT` advisory, which finds nothing to roll back.
/// Then the adversary delivers the captured `PEER_OPS`. A memo of replies
/// never saw it, so under one it would run and the participant would
/// hold the lock of a transaction nobody finishes. The advisory's floor is
/// above the straggler's number, so it is dropped unanswered.
#[test]
fn a_straggler_cannot_outlive_its_abort() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let obs = Obs::new(1);
        treaty_sim::obs::install(&obs);
        let cluster = Cluster::start(options(&path)).unwrap();
        let key = key_per_node(&cluster).get(&2).unwrap().clone();
        let part = cluster.store(1).unwrap();
        let fabric = Rc::clone(cluster.fabric());
        fabric.start_capture();
        // Cut the coordinator off from the participant for the op only:
        // the advisory, sent when the op times out, gets through.
        fabric.with_adversary(|a| {
            a.partitions.insert((1, 2));
        });
        let heal = Rc::clone(&fabric);
        let healer = treaty_sim::runtime::spawn(move || {
            treaty_sim::runtime::sleep(treaty_net::DEFAULT_RPC_TIMEOUT / 2);
            heal.with_adversary(|a| a.partitions.clear());
        });

        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(&key, b"straggler").unwrap();
        assert!(tx.flush().is_err(), "the op was lost: the flush must fail");
        treaty_sim::runtime::join(healer);
        treaty_sim::runtime::sleep(10 * MILLIS);
        assert_eq!(part.locked_keys(), 0);

        let straggler = cluster
            .captured_with_code(req::PEER_OPS)
            .into_iter()
            .find(|d| d.src == 1 && d.dst == 2)
            .expect("the coordinator's PEER_OPS was captured");
        fabric.inject(straggler);
        treaty_sim::runtime::sleep(10 * MILLIS);
        assert_eq!(
            part.locked_keys(),
            0,
            "the straggler ran after its abort and holds a lock"
        );
        assert_eq!(obs.metrics().counter(Counter::NetRpcReplaysSuppressed), 1);
    });
}

/// The request code is sealed, so a straggler cannot be relabelled, and
/// what stays plaintext only routes. The straggler of the test above is
/// injected twice as captured, then twice with each plaintext field
/// rewritten in turn: `src`, `rpc_id`, `session` and `is_response`. None
/// of the ten copies runs. While the code was a plaintext byte, the same
/// straggler relabelled `PEER_ABORT` (unguarded, then served by the same
/// handler) ran twice and left a lock nobody would release.
#[test]
fn a_straggler_runs_under_no_rewrite_of_its_plaintext() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let obs = Obs::new(1);
        treaty_sim::obs::install(&obs);
        let cluster = Cluster::start(options(&path)).unwrap();
        let key = key_per_node(&cluster).get(&2).unwrap().clone();
        let part = cluster.store(1).unwrap();
        let fabric = Rc::clone(cluster.fabric());
        fabric.start_capture();
        fabric.with_adversary(|a| {
            a.partitions.insert((1, 2));
        });
        let heal = Rc::clone(&fabric);
        let healer = treaty_sim::runtime::spawn(move || {
            treaty_sim::runtime::sleep(treaty_net::DEFAULT_RPC_TIMEOUT / 2);
            heal.with_adversary(|a| a.partitions.clear());
        });
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(&key, b"straggler").unwrap();
        assert!(tx.flush().is_err(), "the op was lost: the flush must fail");
        treaty_sim::runtime::join(healer);
        treaty_sim::runtime::sleep(10 * MILLIS);

        let straggler = cluster
            .captured_with_code(req::PEER_OPS)
            .into_iter()
            .find(|d| d.src == 1 && d.dst == 2)
            .expect("the coordinator's PEER_OPS was captured");
        let mut copies = vec![straggler.clone()];
        let mut rewritten = straggler.clone();
        rewritten.src = 3;
        copies.push(rewritten);
        let mut rewritten = straggler.clone();
        rewritten.rpc_id += 1;
        copies.push(rewritten);
        let mut rewritten = straggler.clone();
        rewritten.session ^= 1;
        copies.push(rewritten);
        let mut rewritten = straggler;
        rewritten.is_response = true;
        copies.push(rewritten);
        for copy in copies {
            let field = format!("{copy:?}");
            fabric.inject(copy.clone());
            fabric.inject(copy);
            treaty_sim::runtime::sleep(10 * MILLIS);
            assert_eq!(part.locked_keys(), 0, "the straggler ran: {field}");
            assert_eq!(cluster.node(1).stats().participant_ops, 0, "{field}");
        }
        // The four copies that arrive as requests open, name their sender
        // and number, and are turned away by the guard; the one relabelled
        // a response waits on no slot.
        assert_eq!(obs.metrics().counter(Counter::NetRpcReplaysSuppressed), 8);
    });
}

/// A participant's `PEER_OPS` handler holds the transaction's engine state
/// *out* of `active_part` while it waits for a lock. The coordinator's
/// `PEER_ABORT` advisory for the same transaction arrives meanwhile: it must
/// wait its turn behind the op (one session, served in order). Had it run
/// beside the op it would have found nothing to roll back, and the op would
/// then have re-inserted a transaction nobody finishes, lock held.
#[test]
fn abort_advisory_waits_for_its_transactions_running_op() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let key = key_per_node(&cluster).get(&2).unwrap().clone();
        let part = cluster.store(1).unwrap();
        // A raw endpoint plays the coordinator of two transactions.
        let raw = raw_client(&cluster, 9905, treaty_net::DEFAULT_RPC_TIMEOUT);
        let gtx = |seq| GlobalTxId { node: 9905, seq };
        let (blocker, victim) = (gtx(1), gtx(2));
        let put = |gtx| {
            encode(&PeerOps {
                gtx,
                held: false,
                ops: vec![Op::Write(WriteCmd::put(&key, b"x"))],
            })
        };
        let op_result = |bytes: Vec<u8>| decode::<OpResult>(&bytes).unwrap();

        // The blocker takes the key's X-lock and keeps it.
        let meta = raw_meta(9905, blocker.seq, 1);
        let (_, bytes) = raw.call(2, req::PEER_OPS, &meta, &put(blocker)).unwrap();
        assert!(matches!(op_result(bytes), OpResult::Ok { .. }));
        assert_eq!(part.locked_keys(), 1);

        // The victim's op blocks on it; its abort advisory follows.
        let meta = raw_meta(9905, victim.seq, 1);
        let mut op = raw.burst([(2, req::PEER_OPS, meta, put(victim))]);
        treaty_sim::runtime::sleep(MILLIS);
        let meta = raw_meta(9905, victim.seq, 2);
        raw.send_oneway(2, req::PEER_ABORT, &meta, &encode(&victim));
        treaty_sim::runtime::sleep(MILLIS);

        // The lock is freed: the op gets it, then the advisory runs.
        let meta = raw_meta(9905, blocker.seq, 2);
        raw.call(2, req::PEER_ABORT, &meta, &encode(&blocker))
            .unwrap();
        let (_, bytes) = op.next().unwrap().1.unwrap();
        assert!(
            matches!(op_result(bytes), OpResult::Ok { .. }),
            "the op must have run to its end before the advisory"
        );
        treaty_sim::runtime::sleep(MILLIS);
        assert_eq!(
            part.locked_keys(),
            0,
            "the aborted transaction kept its lock"
        );
        // A read-only prepare votes yes only for a slice the node holds.
        let meta = raw_meta(9905, victim.seq, 3);
        let prepare = encode(&PeerPrepare {
            gtx: victim,
            lane: Lane::ReadOnly,
            batch: Vec::new(),
        });
        let (_, bytes) = raw.call(2, req::PEER_PREPARE, &meta, &prepare).unwrap();
        assert_eq!(
            decode::<bool>(&bytes),
            Some(false),
            "the participant still holds the aborted transaction"
        );
    });
}

/// Rollbacks on one coordinator overlap: each one's abort advisory yields
/// (it seals and sends to every participant), so the coordinator table
/// must not stay borrowed across it. Holding it as an `if let` scrutinee
/// made the next rollback's `borrow_mut` panic.
#[test]
fn concurrent_rollbacks_share_the_coordinator_table() {
    const CLIENTS: u64 = 4;
    const TXNS: u64 = 10;
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Rc::new(Cluster::start(options(&path)).unwrap());
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let cluster = Rc::clone(&cluster);
                treaty_sim::runtime::spawn(move || {
                    let client = cluster.client();
                    for t in 0..TXNS {
                        let mut tx = client.begin(1);
                        for k in keys_per_node_named(&cluster, &format!("rb-{c}-{t}")).values() {
                            tx.put(k, b"doomed").unwrap();
                        }
                        tx.flush().unwrap();
                        tx.rollback().unwrap();
                    }
                })
            })
            .collect();
        clients.into_iter().for_each(treaty_sim::runtime::join);
        assert_eq!(cluster.totals(), (0, CLIENTS * TXNS));
    });
}

/// A participant that served a transaction's reads and lost them in a
/// restart votes no on that transaction's prepare, writes piggybacked on
/// it or not. T1 reads `a` and T2 reads `b` on node 2, and each writes the
/// key the other read; node 2 restarts between T1's read and its commit.
/// If node 2 began a fresh slice for T1's write, both would commit having
/// read the initial values: a write-skew cycle.
#[test]
fn a_participant_that_lost_its_slice_votes_no() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let on_node_2: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| format!("skew-{i}").into_bytes())
            .filter(|k| cluster.shard_map().owner(k) == 2)
            .take(2)
            .collect();
        let (a, b) = (&on_node_2[0], &on_node_2[1]);
        let client = cluster.client();
        let mut seed = client.begin(1);
        seed.put(a, b"a0").unwrap();
        seed.put(b, b"b0").unwrap();
        seed.commit().unwrap();

        let mut t1 = client.begin(1);
        let t1_read = t1.get(a).unwrap();
        cluster.crash_node(1);
        cluster.restart_node(1).expect("node 2 reopens");
        assert_eq!(cluster.resolve_recovered().failed, 0);

        let other = cluster.client();
        let mut t2 = other.begin(1);
        let t2_read = t2.get(b).unwrap();
        t2.put(a, b"a2").unwrap();
        let t2_committed = t2.commit().is_ok();
        t1.put(b, b"b1").unwrap();
        let t1_committed = t1.commit().is_ok();

        let show = |v: &Option<Vec<u8>>| {
            String::from_utf8_lossy(v.as_deref().unwrap_or_default()).into_owned()
        };
        let history = format!(
            "T1 read a={} then committed {t1_committed}; T2 read b={} then committed {t2_committed}",
            show(&t1_read),
            show(&t2_read),
        );
        assert!(t2_committed, "{history}");
        assert!(!t1_committed, "{history}");
        let mut check = client.begin(1);
        assert_eq!(check.get(a).unwrap().as_deref(), Some(&b"a2"[..]));
        assert_eq!(check.get(b).unwrap().as_deref(), Some(&b"b0"[..]));
        check.commit().unwrap();
    });
}

/// The op path's half of the rule above: a participant that lost its
/// slice in a restart fails the transaction's next operation list instead
/// of beginning a fresh slice. T1 reads `a` on node 2; node 2 restarts; T1
/// reads `c` on node 2, then T2 reads `b` on node 3, writes `a` and
/// commits, and T1 writes `b`. If node 2 began a fresh slice for `c`,
/// nothing would hold T1's read of `a` and both would commit: a
/// write-skew cycle.
#[test]
fn a_participant_that_lost_its_slice_fails_the_next_op() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let owned_by = |node: u32, n: usize| -> Vec<Vec<u8>> {
            (0..10_000u32)
                .map(|i| format!("skew-{i}").into_bytes())
                .filter(|k| cluster.shard_map().owner(k) == node)
                .take(n)
                .collect()
        };
        let (on_node_2, on_node_3) = (owned_by(2, 2), owned_by(3, 1));
        let (a, c, b) = (&on_node_2[0], &on_node_2[1], &on_node_3[0]);
        let client = cluster.client();
        let mut seed = client.begin(1);
        for (k, v) in [(a, b"a0"), (b, b"b0"), (c, b"c0")] {
            seed.put(k, v).unwrap();
        }
        seed.commit().unwrap();

        let mut t1 = client.begin(1);
        let t1_read_a = t1.get(a).unwrap();
        cluster.crash_node(1);
        cluster.restart_node(1).expect("node 2 reopens");
        assert_eq!(cluster.resolve_recovered().failed, 0);
        let t1_read_c = t1.get(c);

        let other = cluster.client();
        let mut t2 = other.begin(1);
        let t2_read_b = t2.get(b).unwrap();
        t2.put(a, b"a2").unwrap();
        let t2_committed = t2.commit().is_ok();
        let t1_committed = match t1.put(b, b"b1") {
            Ok(()) => t1.commit().is_ok(),
            Err(_) => false,
        };

        let show = |v: &Option<Vec<u8>>| {
            String::from_utf8_lossy(v.as_deref().unwrap_or_default()).into_owned()
        };
        let history = format!(
            "T1 read a={} and c={:?} then committed {t1_committed}; \
             T2 read b={} then committed {t2_committed}",
            show(&t1_read_a),
            t1_read_c.as_ref().map(show),
            show(&t2_read_b),
        );
        assert!(t2_committed, "{history}");
        assert!(!t1_committed, "{history}");
        assert!(t1_read_c.is_err(), "{history}");
        let mut check = client.begin(1);
        assert_eq!(check.get(a).unwrap().as_deref(), Some(&b"a2"[..]));
        assert_eq!(check.get(b).unwrap().as_deref(), Some(&b"b0"[..]));
        check.commit().unwrap();
    });
}

/// An operation list's failure names the participant that refused it. T
/// holds `b`'s X-lock on node 3; a list that puts `a` on node 2 and `b` on
/// node 3 times out on node 3's lock. While a failure carried an op index
/// the client heard the cause alone, `participant: None`.
#[test]
fn an_op_failure_names_the_participant_that_refused() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let keys = key_per_node(&cluster);
        let client = cluster.client();
        let mut holder = client.begin(1);
        holder.put(&keys[&3], b"held").unwrap();
        holder.flush().unwrap();

        let mut tx = client.begin(1);
        tx.put(&keys[&2], b"x").unwrap();
        tx.put(&keys[&3], b"x").unwrap();
        match tx.flush() {
            Err(TreatyError::Aborted(_, abort)) => assert_eq!(
                abort,
                Abort {
                    cause: AbortCause::LockTimeout,
                    participant: Some(3),
                }
            ),
            other => panic!("the list must abort on node 3's lock: {other:?}"),
        }
        holder.commit().unwrap();
    });
}

/// A coordinator that restarted lost a transaction's shipped writes: the
/// client put `a` on node 1 and `b` on node 2 and flushed them, then node 1
/// crashed and came back. The commit that follows carries no writes, so
/// the coordinator took the transaction it no longer knew for an empty one
/// and acked it `Committed`; neither write ever applied, and node 2 kept
/// `b`'s X-lock. The client numbers every message of a transaction, and
/// this commit is its second: it is answered `SliceLost`.
#[test]
fn a_commit_after_its_coordinator_restarted_is_aborted() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys = key_per_node(&cluster);
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(&keys[&1], b"lost").unwrap();
        tx.put(&keys[&2], b"lost").unwrap();
        tx.flush().unwrap();
        cluster.crash_node(0);
        cluster.restart_node(0).expect("the coordinator reopens");
        assert_eq!(cluster.resolve_recovered().failed, 0);
        match tx.commit() {
            Err(TreatyError::Aborted(_, abort)) => {
                assert_eq!(abort, AbortCause::SliceLost.into());
            }
            other => panic!("the lost writes were acked: {other:?}"),
        }
        assert_eq!(cluster.node(0).stats().aborted, 1);
    });
}

/// A coordinator that restarted lost what a transaction's earlier messages
/// did: the client put `x` on node 2 and flushed it, then node 1 crashed
/// and came back. The transaction's next op list, a read of `y` on node 3,
/// began a fresh coordinator state, so the commit that followed was acked
/// without `x`'s write. The read is the transaction's second message, and
/// only a first may begin a transaction: it is answered `SliceLost`.
#[test]
fn an_op_after_its_coordinator_restarted_is_aborted() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys = key_per_node(&cluster);
        let (x, y) = (keys[&2].clone(), keys[&3].clone());
        let client = cluster.client();
        let mut seed = client.begin(1);
        seed.put(&x, b"old").unwrap();
        seed.commit().unwrap();

        let mut tx = client.begin(1);
        tx.put(&x, b"lost").unwrap();
        tx.flush().unwrap();
        cluster.crash_node(0);
        cluster.restart_node(0).expect("the coordinator reopens");
        assert_eq!(cluster.resolve_recovered().failed, 0);
        match tx.get(&y) {
            Err(TreatyError::Aborted(_, abort)) => {
                assert_eq!(abort.cause, AbortCause::SliceLost);
            }
            other => {
                let commit = tx.commit();
                panic!("the read began a fresh transaction: read={other:?}, commit={commit:?}");
            }
        }
        assert_eq!(cluster.node(0).stats().aborted, 1);
        assert_eq!(
            client.snapshot_read(&[x]).unwrap(),
            vec![Some(b"old".to_vec())]
        );
    });
}

/// A rollback's abort reaches a participant across a lossy link. The client
/// put a key on node 2 and flushed it; the link from node 1 to node 2 is
/// cut across the rollback and heals 300 ms later, inside phase two's
/// one-second retry window. While the abort was a one-way advisory it was
/// lost, and node 2 kept the key X-locked for good.
#[test]
fn a_lost_abort_advisory_is_retried() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(&path)).unwrap();
        let key = key_per_node(&cluster)[&2].clone();
        let part = cluster.store(1).unwrap();
        let fabric = Rc::clone(cluster.fabric());
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(&key, b"doomed").unwrap();
        tx.flush().unwrap();
        assert_eq!(part.locked_keys(), 1);

        fabric.with_adversary(|a| {
            a.partitions.insert((1, 2));
        });
        tx.rollback().unwrap();
        treaty_sim::runtime::sleep(300 * MILLIS);
        fabric.with_adversary(|a| a.partitions.clear());
        treaty_sim::runtime::sleep(5 * SECONDS);
        assert_eq!(
            part.locked_keys(),
            0,
            "the lost abort left its slice locked"
        );
        let mut next = client.begin(1);
        next.put(&key, b"next").unwrap();
        next.commit().unwrap();
        assert!(cluster.node(0).stats().decision_retries > 0);
    });
}
