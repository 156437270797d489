//! End-to-end tests of the distributed transaction layer: a full cluster
//! (CAS bootstrap, counter protection group, 3 nodes), clients, the secure
//! 2PC, failures and the §III adversary.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use std::cell::RefCell;
use treaty_core::messages::{decode, encode};
use treaty_core::{
    check_list_append, Cluster, ClusterOptions, HistoryError, TreatyError, TxnObservation,
};
use treaty_sched::block_on;
use treaty_sim::obs::{Counter, Phase};
use treaty_sim::runtime::{join, sleep, spawn};
use treaty_sim::{SecurityProfile, MILLIS};
use treaty_store::{GlobalTxId, TxnEngine as _, TxnMode};

fn options(profile: SecurityProfile, dir: &std::path::Path) -> ClusterOptions {
    let mut o = ClusterOptions::new(profile, dir.to_path_buf());
    o.engine_config = treaty_store::EngineConfig::tiny();
    o
}

/// Waits out every node's work behind its decisions: each commit so far
/// has finished, sent phase two and had it acknowledged, so counts taken
/// next hold every 2PC message it will ever send.
fn settle(cluster: &Cluster) {
    for i in 0..cluster.node_endpoints().len() {
        cluster.node(i).drain_decisions();
    }
}

/// Keys guaranteed to live on different nodes.
fn keys_on_different_nodes(cluster: &Cluster) -> Vec<Vec<u8>> {
    // Ordered by owner: which key stands for which shard must not vary
    // from run to run.
    let mut found: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    for i in 0..10_000u32 {
        let k = format!("spread-{i}").into_bytes();
        let owner = cluster.shard_map().owner(&k);
        found.entry(owner).or_insert(k);
        if found.len() == cluster.node_endpoints().len() {
            break;
        }
    }
    found.into_values().collect()
}

#[test]
fn distributed_txn_commits_across_shards() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        assert!(keys.len() >= 3);
        let client = cluster.client();

        let mut tx = client.begin(1);
        for (i, k) in keys.iter().enumerate() {
            tx.put(k, format!("value-{i}").as_bytes()).unwrap();
        }
        tx.commit().unwrap();

        let mut tx = client.begin(1);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(tx.get(k).unwrap(), Some(format!("value-{i}").into_bytes()));
        }
        tx.commit().unwrap();
        assert_eq!(cluster.totals().0, 2);
    });
}

#[test]
fn all_profiles_run_distributed_txns() {
    for profile in SecurityProfile::distributed_lineup() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let cluster = Cluster::start(options(profile, &path)).unwrap();
            let client = cluster.client();
            let mut tx = client.begin(2);
            tx.put(b"k1", b"v1").unwrap();
            tx.put(b"k2", b"v2").unwrap();
            tx.commit().unwrap();
            let mut tx = client.begin(3);
            assert_eq!(tx.get(b"k1").unwrap(), Some(b"v1".to_vec()), "{profile:?}");
            tx.commit().unwrap();
        });
    }
}

#[test]
fn rollback_leaves_no_trace() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        let keys = keys_on_different_nodes(&cluster);

        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, b"doomed").unwrap();
        }
        tx.rollback().unwrap();

        let mut tx = client.begin(1);
        for k in &keys {
            assert_eq!(tx.get(k).unwrap(), None);
        }
        tx.commit().unwrap();
    });
}

#[test]
fn atomicity_under_write_conflicts() {
    // Two clients transfer between the same two cross-shard accounts;
    // conservation must hold whatever interleaving happens.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster =
            Rc::new(Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap());
        let keys = keys_on_different_nodes(&cluster);
        let (a, b) = (keys[0].clone(), keys[1].clone());

        // Seed balances.
        let seeder = cluster.client();
        let mut tx = seeder.begin(1);
        tx.put(&a, b"100").unwrap();
        tx.put(&b, b"100").unwrap();
        tx.commit().unwrap();

        let mut handles = Vec::new();
        for c in 0..4 {
            let cluster = Rc::clone(&cluster);
            let (a, b) = (a.clone(), b.clone());
            handles.push(spawn(move || {
                let client = cluster.client();
                let coordinator = 1 + (c % 3) as u32;
                for _ in 0..5 {
                    let mut tx = client.begin(coordinator);
                    let result = (|| -> Result<(), TreatyError> {
                        let va: i64 = String::from_utf8(tx.get(&a)?.unwrap())
                            .unwrap()
                            .parse()
                            .unwrap();
                        let vb: i64 = String::from_utf8(tx.get(&b)?.unwrap())
                            .unwrap()
                            .parse()
                            .unwrap();
                        tx.put(&a, (va - 10).to_string().as_bytes())?;
                        tx.put(&b, (vb + 10).to_string().as_bytes())?;
                        Ok(())
                    })();
                    match result {
                        Ok(()) => {
                            let _ = tx.commit();
                        }
                        Err(_) => { /* aborted inside an op */ }
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }

        let checker = cluster.client();
        let mut tx = checker.begin(1);
        let va: i64 = String::from_utf8(tx.get(&a).unwrap().unwrap())
            .unwrap()
            .parse()
            .unwrap();
        let vb: i64 = String::from_utf8(tx.get(&b).unwrap().unwrap())
            .unwrap()
            .parse()
            .unwrap();
        tx.commit().unwrap();
        assert_eq!(va + vb, 200, "conservation violated: {va} + {vb}");
    });
}

/// Runs a list-append workload and checks serializability.
fn run_list_append(
    profile: SecurityProfile,
    path: std::path::PathBuf,
    clients: usize,
    txns_per_client: usize,
    adversary: impl FnOnce(&Cluster) + Send + 'static,
) {
    block_on(move || {
        let cluster = Rc::new(Cluster::start(options(profile, &path)).unwrap());
        adversary(&cluster);
        let observations = Rc::new(RefCell::new(Vec::new()));
        let keyspace: Vec<Vec<u8>> = (0..6).map(|i| format!("list-{i}").into_bytes()).collect();

        let mut handles = Vec::new();
        for c in 0..clients {
            let cluster = Rc::clone(&cluster);
            let observations = Rc::clone(&observations);
            let keyspace = keyspace.clone();
            handles.push(spawn(move || {
                let client = cluster.client();
                let coordinator = 1 + (c % 3) as u32;
                for t in 0..txns_per_client {
                    let mut tx = client.begin(coordinator);
                    let gtx = tx.gtx();
                    let k1 = &keyspace[(c + t) % keyspace.len()];
                    let k2 = &keyspace[(c + t * 3 + 1) % keyspace.len()];
                    let mut obs = TxnObservation {
                        id: gtx,
                        reads: Vec::new(),
                        appends: Vec::new(),
                    };
                    let result = (|| -> Result<(), TreatyError> {
                        for k in [k1, k2] {
                            if obs.appends.contains(k) {
                                continue;
                            }
                            let cur = tx.get(k)?;
                            let mut list: Vec<GlobalTxId> =
                                cur.map(|b| decode(&b).unwrap()).unwrap_or_default();
                            obs.reads.push((k.clone(), list.clone()));
                            list.push(gtx);
                            tx.put(k, &encode(&list))?;
                            obs.appends.push(k.clone());
                        }
                        Ok(())
                    })();
                    if result.is_ok() && tx.commit().is_ok() {
                        observations.borrow_mut().push(obs);
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }

        // Read final lists (retrying: under a lossy network a read txn can
        // itself abort on residual lock waits).
        let reader = cluster.client();
        let mut finals = HashMap::new();
        'read: for attempt in 0..10 {
            finals.clear();
            let mut tx = reader.begin(1);
            let mut ok = true;
            for k in &keyspace {
                match tx.get(k) {
                    Ok(Some(bytes)) => {
                        let list: Vec<GlobalTxId> = decode(&bytes).unwrap();
                        finals.insert(k.clone(), list);
                    }
                    Ok(None) => {}
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && tx.commit().is_ok() {
                break 'read;
            }
            assert!(attempt < 9, "final read never succeeded");
            sleep(100 * treaty_sim::MILLIS);
        }

        let txns = observations.borrow().clone();
        assert!(!txns.is_empty(), "no transaction committed");
        if let Err(e) = check_list_append(&txns, &finals) {
            match e {
                HistoryError::Cycle(_)
                | HistoryError::LostAppend { .. }
                | HistoryError::NonPrefixRead { .. } => {
                    panic!("serializability violated: {e}")
                }
            }
        }
    });
}

#[test]
fn serializable_under_concurrency() {
    let dir = tempfile::tempdir().unwrap();
    run_list_append(
        SecurityProfile::treaty_full(),
        dir.path().to_path_buf(),
        6,
        6,
        |_| {},
    );
}

#[test]
fn serializable_under_duplicating_adversary() {
    let dir = tempfile::tempdir().unwrap();
    run_list_append(
        SecurityProfile::treaty_full(),
        dir.path().to_path_buf(),
        4,
        4,
        |cluster| {
            cluster.fabric().with_adversary(|a| a.dup_prob = 0.3);
        },
    );
}

#[test]
fn serializable_under_lossy_network() {
    let dir = tempfile::tempdir().unwrap();
    run_list_append(
        SecurityProfile::treaty_full(),
        dir.path().to_path_buf(),
        4,
        4,
        |cluster| {
            cluster.fabric().with_adversary(|a| a.drop_prob = 0.02);
        },
    );
}

/// The replay guard is bounded by requests in flight, not by history:
/// after 2 000 sequential transactions, each coordinated in turn by every
/// node, a node holds one floor per sender plus the few numbers at or
/// above it — what that sender had in flight when it last spoke. An honest
/// run suppresses nothing anywhere.
#[test]
fn replay_guard_is_bounded_by_requests_in_flight() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        let client = cluster.client();
        let nodes = cluster.node_endpoints();
        let guard_entries = || -> Vec<usize> {
            (0..nodes.len())
                .map(|i| cluster.node(i).rpc().guard_entries())
                .collect()
        };
        let mut readings = Vec::new();
        for round in 0..2_000 {
            let mut tx = client.begin(nodes[round % nodes.len()]);
            for k in &keys {
                tx.put(k, b"v").unwrap();
            }
            tx.commit().unwrap();
            if round % 500 == 499 {
                readings.push(guard_entries());
            }
        }
        // Senders of guarded requests to a node: the client and the other
        // two nodes. A coordinator has at most a prepare and a decision
        // in flight to each of two participants.
        let senders = nodes.len();
        let bound = senders * (1 + 2 * 2);
        assert_eq!(
            readings.first(),
            readings.last(),
            "the guard grew: {readings:?}"
        );
        for (i, reading) in readings.iter().enumerate() {
            for (node, &entries) in reading.iter().enumerate() {
                assert!(
                    entries <= bound,
                    "node {node} holds {entries} guard entries after {} txns (bound {bound})",
                    (i + 1) * 500
                );
            }
        }
        for i in 0..nodes.len() {
            assert_eq!(cluster.node(i).rpc().replays_suppressed(), 0, "node {i}");
        }
    });
}

#[test]
fn wire_confidentiality_end_to_end() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        cluster.fabric().start_capture();
        let client = cluster.client();
        let secret = b"super-secret-balance-847251";
        let mut tx = client.begin(1);
        tx.put(b"account", secret).unwrap();
        tx.commit().unwrap();
        let sniffed = cluster.fabric().captured_bytes();
        assert!(!sniffed.is_empty());
        // Payloads carry a value as its raw bytes: unprotected, the
        // plaintext itself would be on the wire.
        assert!(
            !sniffed.windows(secret.len()).any(|w| w == secret),
            "value plaintext visible on the wire"
        );
    });
}

#[test]
fn baseline_leaks_on_the_wire() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::rocksdb(), &path)).unwrap();
        cluster.fabric().start_capture();
        let client = cluster.client();
        let secret = b"super-secret-balance-847251";
        let mut tx = client.begin(1);
        tx.put(b"account", secret).unwrap();
        tx.commit().unwrap();
        let sniffed = cluster.fabric().captured_bytes();
        assert!(
            sniffed.windows(secret.len()).any(|w| w == secret),
            "baseline was expected to leak (it has no encryption)"
        );
    });
}

#[test]
fn participant_crash_after_prepare_commits_after_restart() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        let client = cluster.client();

        // Commit a cross-shard transaction normally first.
        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, b"committed").unwrap();
        }
        tx.commit().unwrap();

        // Crash a participant node (not the coordinator).
        cluster.crash_node(1);

        // A transaction touching the dead node aborts cleanly.
        let mut tx = client.begin(1);
        let mut failed = false;
        for k in &keys {
            if tx.put(k, b"during-crash").is_err() {
                failed = true;
                break;
            }
        }
        if !failed {
            failed = tx.commit().is_err();
        }
        assert!(failed, "txn touching a crashed node must abort");

        // Restart; recovery must restore the earlier committed data.
        cluster.restart_node(1).unwrap();
        cluster.resolve_recovered();
        let mut tx = client.begin(1);
        for k in &keys {
            assert_eq!(tx.get(k).unwrap(), Some(b"committed".to_vec()));
        }
        tx.commit().unwrap();
    });
}

#[test]
fn coordinator_crash_between_phases_resolved_at_recovery() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        let client = cluster.client();

        // Run a committed transaction so there is decided Clog state too.
        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, b"v0").unwrap();
        }
        tx.commit().unwrap();

        // Simulate a coordinator crash mid-2PC: prepare participants by
        // hand through the engine interface, with the Clog Start entry
        // logged but no decision.
        use treaty_store::{EngineTxn as _, GlobalTxId, TxnEngine as _, TxnMode};
        let gtx = GlobalTxId {
            node: 1,
            seq: (9999u64 << 32) | 1,
        };
        let store1 = cluster.store(1).unwrap().clone();
        let mut part_txn = store1.begin_mode(TxnMode::Pessimistic);
        let key_on_node1 = keys
            .iter()
            .find(|k| cluster.shard_map().owner(k) == 2)
            .unwrap()
            .clone();
        part_txn.put(&key_on_node1, b"in-flight").unwrap();
        part_txn.prepare(gtx).unwrap();
        cluster
            .node(0)
            .clog()
            .unwrap()
            .log_start(gtx, vec![1, 2])
            .unwrap();

        // Coordinator crashes and restarts.
        cluster.crash_node(0);
        cluster.restart_node(0).unwrap();
        let outcome = cluster.resolve_recovered();
        assert!(outcome.re_decided >= 1, "undecided txn must be re-driven");
        assert_eq!(outcome.failed, 0, "re-drive must succeed with counters up");

        // The in-flight transaction got a decision: the participant's
        // prepared state is resolved either way, and its lock is free.
        assert!(
            store1.prepared_txns().is_empty(),
            "prepared txn left dangling"
        );
        let client2 = cluster.client();
        let mut tx = client2.begin(2);
        tx.put(&key_on_node1, b"after-recovery").unwrap();
        tx.commit().unwrap();
    });
}

#[test]
fn committed_data_survives_full_cluster_restart() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        {
            let client = cluster.client();
            let mut tx = client.begin(1);
            for (i, k) in keys.iter().enumerate() {
                tx.put(k, format!("persistent-{i}").as_bytes()).unwrap();
            }
            tx.commit().unwrap();
        }
        for i in 0..3 {
            cluster.crash_node(i);
        }
        for i in 0..3 {
            cluster.restart_node(i).unwrap();
        }
        cluster.resolve_recovered();
        let client = cluster.client();
        let mut tx = client.begin(2);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                tx.get(k).unwrap(),
                Some(format!("persistent-{i}").into_bytes()),
                "lost after full restart"
            );
        }
        tx.commit().unwrap();
    });
}

#[test]
fn replayed_client_commit_is_not_double_executed() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        cluster.fabric().start_capture();
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(b"ctr", b"1").unwrap();
        tx.commit().unwrap();

        // Replay every captured client->coordinator request.
        let captured = cluster.fabric().captured();
        for dg in captured.iter().filter(|d| !d.is_response && d.dst == 1) {
            cluster.fabric().inject(dg.clone());
        }
        sleep(10 * treaty_sim::MILLIS);

        // Exactly one commit happened.
        assert_eq!(cluster.totals().0, 1, "replayed commit must be suppressed");
    });
}

#[test]
fn protocol_only_cluster_runs_without_storage() {
    // The §VIII-B configuration: NullEngine, no Clog, pure 2PC.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut o = options(SecurityProfile::treaty_full(), &path);
        o.durable = false;
        let cluster = Cluster::start(o).unwrap();
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(b"a", b"1").unwrap();
        tx.put(b"b", b"2").unwrap();
        tx.commit().unwrap();
        let mut tx = client.begin(1);
        assert_eq!(tx.get(b"a").unwrap(), Some(b"1".to_vec()));
        tx.commit().unwrap();
        // The engine contract is 2PC only: the node reports its own
        // counters and the in-doubt set, the store fields read zero...
        let snap = client.obs_snapshot(1).unwrap();
        assert_eq!(snap.committed, 2);
        assert_eq!(snap.prepared_txns, 0);
        assert_eq!(snap.stable_ts, 0);
        // ...and there is no snapshot lane to serve: the request is
        // dropped and the client times out.
        assert!(matches!(
            client.snapshot_read(&[b"a".to_vec()]),
            Err(TreatyError::Net(_))
        ));
        // No files were created.
        let entries = std::fs::read_dir(&path).map(|d| d.count()).unwrap_or(0);
        assert_eq!(entries, 0, "protocol-only mode must not persist anything");
    });
}

// ---- authenticated range scans across shards (DESIGN.md §15) ----------------

#[test]
fn range_scan_merges_all_shards_in_order() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        // Hash partitioning spreads consecutive keys across every node, so
        // a contiguous scan exercises the full fan-out + merge.
        let mut tx = client.begin(1);
        for i in 0..40u32 {
            tx.put(
                format!("scan-{i:03}").as_bytes(),
                format!("v{i}").as_bytes(),
            )
            .unwrap();
        }
        tx.commit().unwrap();

        let mut tx = client.begin(2);
        let rows = tx.scan(b"scan-", b"scan-~", 0).unwrap();
        assert_eq!(rows.len(), 40, "every shard's slice merged");
        for (i, (k, v)) in rows.iter().enumerate() {
            assert_eq!(k, format!("scan-{i:03}").as_bytes(), "global key order");
            assert_eq!(v, format!("v{i}").as_bytes());
        }
        // Limit is applied after the merge, not per shard.
        let capped = tx.scan(b"scan-", b"scan-~", 7).unwrap();
        assert_eq!(capped.len(), 7);
        assert_eq!(capped, rows[..7].to_vec());
        tx.commit().unwrap();
    });
}

#[test]
fn range_delete_spans_every_shard_atomically() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        let mut tx = client.begin(1);
        for i in 0..30u32 {
            tx.put(format!("rd-{i:03}").as_bytes(), b"doomed").unwrap();
        }
        tx.commit().unwrap();

        // One transaction deletes the middle of the keyspace and rewrites
        // one covered key; both effects commit atomically on every shard.
        let mut tx = client.begin(3);
        tx.delete_range(b"rd-010", b"rd-020").unwrap();
        tx.put(b"rd-015", b"survivor").unwrap();
        tx.commit().unwrap();

        let mut tx = client.begin(2);
        let rows = tx.scan(b"rd-", b"rd-~", 0).unwrap();
        assert_eq!(rows.len(), 21, "20 outside the span + 1 rewritten");
        assert_eq!(tx.get(b"rd-012").unwrap(), None);
        assert_eq!(tx.get(b"rd-015").unwrap(), Some(b"survivor".to_vec()));
        tx.commit().unwrap();
    });
}

#[test]
fn rolled_back_range_delete_leaves_no_trace() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        let mut tx = client.begin(1);
        for i in 0..10u32 {
            tx.put(format!("rb-{i}").as_bytes(), b"keep").unwrap();
        }
        tx.commit().unwrap();

        let mut tx = client.begin(1);
        tx.delete_range(b"rb-", b"rb-~").unwrap();
        tx.rollback().unwrap();

        let mut tx = client.begin(2);
        assert_eq!(tx.scan(b"rb-", b"rb-~", 0).unwrap().len(), 10);
        tx.commit().unwrap();
    });
}

/// A commit is acknowledged one counter round ahead of its apply, so a scan
/// that starts on the ack finds the inserted rows only in prepared write
/// sets. It must still meet every one of them: 2PL parks on the in-doubt
/// keys' locks until the decision lands, OCC refuses to validate over
/// them and the retry reads the rows.
#[test]
fn scan_after_acknowledged_insert_waits_for_the_apply() {
    for mode in [TxnMode::Pessimistic, TxnMode::Optimistic] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let mut o = options(SecurityProfile::treaty_full(), &path);
            o.txn_mode = mode;
            // Slow rounds hold the ack → apply window wide open.
            o.costs.counter_round_ns = 4 * MILLIS;
            let cluster = Cluster::start(o).unwrap();
            let client = cluster.client();
            let mut tx = client.begin(1);
            for i in 0..40u32 {
                tx.put(format!("ack-{i:03}").as_bytes(), b"v").unwrap();
            }
            tx.commit().unwrap();
            let in_doubt = (0..3).any(|i| !cluster.store(i).unwrap().prepared_txns().is_empty());
            assert!(in_doubt, "{mode:?}: the ack must come ahead of the apply");

            let mut attempts = 0;
            let rows = loop {
                attempts += 1;
                let mut tx = client.begin(2);
                let rows = tx.scan(b"ack-", b"ack-~", 0).unwrap();
                if tx.commit().is_ok() {
                    break rows;
                }
                assert!(attempts < 20, "{mode:?}: the scan never committed");
                sleep(MILLIS);
            };
            assert_eq!(rows.len(), 40, "{mode:?}: a committed scan missed rows");
            if mode == TxnMode::Pessimistic {
                assert_eq!(attempts, 1, "2PL waits, it does not retry");
            }
        });
    }
}

#[test]
fn snapshot_scan_sees_committed_prefix_consistently() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        let mut tx = client.begin(1);
        for i in 0..25u32 {
            tx.put(format!("ss-{i:03}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        tx.commit().unwrap();

        let rows = client.snapshot_scan(b"ss-", b"ss-~", 0).unwrap();
        assert_eq!(rows.len(), 25, "lock-free scan sees all committed rows");
        let locked = {
            let mut tx = client.begin(2);
            let r = tx.scan(b"ss-", b"ss-~", 0).unwrap();
            tx.commit().unwrap();
            r
        };
        assert_eq!(rows, locked, "snapshot and locking scans agree at rest");
        let capped = client.snapshot_scan(b"ss-", b"ss-~", 5).unwrap();
        assert_eq!(capped, rows[..5].to_vec());
    });
}

// ---- deferred-write batching (DESIGN.md §16) ---------------------------------

/// `per_node` keys owned by each node, grouped deterministically.
fn keys_per_owner(cluster: &Cluster, per_node: usize) -> HashMap<u32, Vec<Vec<u8>>> {
    let mut found: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
    let nodes = cluster.node_endpoints().len();
    for i in 0..100_000u32 {
        let k = format!("batch-{i}").into_bytes();
        let owner = cluster.shard_map().owner(&k);
        let bucket = found.entry(owner).or_default();
        if bucket.len() < per_node {
            bucket.push(k);
        }
        if found.len() == nodes && found.values().all(|b| b.len() == per_node) {
            break;
        }
    }
    found
}

#[test]
fn read_your_writes_from_buffer_without_rpc() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();

        let mut tx = client.begin(1);
        let sent0 = cluster.fabric().stats().sent;
        tx.put(b"ryw-a", b"v1").unwrap();
        tx.put(b"ryw-a", b"v2").unwrap();
        tx.put(b"ryw-b", b"w").unwrap();
        // Reads of buffered keys are served locally: last write wins, and
        // no RPC leaves the client.
        assert_eq!(tx.get(b"ryw-a").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(tx.get(b"ryw-b").unwrap(), Some(b"w".to_vec()));
        assert_eq!(
            cluster.fabric().stats().sent,
            sent0,
            "buffered writes and buffer-hit reads must not touch the network"
        );
        // A read outside the buffer flushes it first.
        assert_eq!(tx.get(b"ryw-missing").unwrap(), None);
        assert!(
            cluster.fabric().stats().sent > sent0,
            "miss flushed the buffer"
        );
        tx.commit().unwrap();

        let mut tx = client.begin(2);
        assert_eq!(tx.get(b"ryw-a").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(tx.get(b"ryw-b").unwrap(), Some(b"w".to_vec()));
        tx.commit().unwrap();
    });
}

#[test]
fn scan_flushes_buffered_writes_first() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(b"sfl-001", b"a").unwrap();
        tx.put(b"sfl-002", b"b").unwrap();
        // The scan overlaps the buffered span: it must see both writes,
        // so they travel ahead of it in the same message.
        let rows = tx.scan(b"sfl-", b"sfl-~", 0).unwrap();
        assert_eq!(
            rows,
            vec![
                (b"sfl-001".to_vec(), b"a".to_vec()),
                (b"sfl-002".to_vec(), b"b".to_vec())
            ]
        );
        // One more write, then the scan: on that key's owner the slice is
        // [put k, scan ∋ k], and the scan still sees the write before it.
        tx.put(b"sfl-003", b"c").unwrap();
        let rows = tx.scan(b"sfl-", b"sfl-~", 0).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], (b"sfl-003".to_vec(), b"c".to_vec()));
        tx.commit().unwrap();
    });
}

#[test]
fn delete_then_get_sees_the_buffered_tombstone() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(b"del-k", b"v").unwrap();
        tx.commit().unwrap();

        let mut tx = client.begin(2);
        tx.delete(b"del-k").unwrap();
        assert_eq!(
            tx.get(b"del-k").unwrap(),
            None,
            "buffered delete must shadow the committed value"
        );
        tx.commit().unwrap();

        let mut tx = client.begin(3);
        assert_eq!(tx.get(b"del-k").unwrap(), None);
        tx.commit().unwrap();
    });
}

#[test]
fn buffered_writes_abort_cleanly_on_conflict() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        let client = cluster.client();

        // Holder ships its write to one of the keys so it holds the lock
        // while the batched transaction commits.
        let mut holder = client.begin(1);
        holder.put(&keys[0], b"held").unwrap();
        holder.flush().unwrap();

        // The buffered transaction never touched the network before commit;
        // its shipped batch hits the held lock and the whole commit aborts.
        let mut tx = client.begin(2);
        for k in &keys {
            tx.put(k, b"doomed").unwrap();
        }
        assert!(tx.commit().is_err(), "conflicting batch must abort");

        holder.rollback().unwrap();

        // All-or-nothing: no key of the aborted batch is visible.
        let mut check = client.begin(3);
        for k in &keys {
            assert_eq!(check.get(k).unwrap(), None, "aborted write leaked");
        }
        check.commit().unwrap();
    });
}

#[test]
fn batched_commit_round_trips_scale_with_shards_not_writes() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let per_owner = keys_per_owner(&cluster, 2);
        assert_eq!(per_owner.len(), 3);
        let client = cluster.client();

        // Settled, so every 2PC message of the commit is counted.
        let run = |keys: &[Vec<u8>], batched: bool| -> u64 {
            let before = cluster.fabric().stats().sent;
            let mut tx = client.begin(1);
            for k in keys {
                tx.put(k, b"v").unwrap();
                if !batched {
                    tx.flush().unwrap();
                }
            }
            tx.commit().unwrap();
            settle(&cluster);
            cluster.fabric().stats().sent - before
        };

        // One write per shard (W = S = 3) vs two per shard (W = 6): the
        // batched wire cost is a function of the shard count only.
        let one_per_shard: Vec<Vec<u8>> = per_owner.values().map(|b| b[0].clone()).collect();
        let two_per_shard: Vec<Vec<u8>> =
            per_owner.values().flat_map(|b| b.iter().cloned()).collect();
        let batched_w3 = run(&one_per_shard, true);
        let batched_w6 = run(&two_per_shard, true);
        assert_eq!(
            batched_w3, batched_w6,
            "batched round trips must depend on shards, not writes"
        );

        // Flushing after every write pays per write: strictly more messages
        // for the same W = 6 transaction.
        let unbatched_w6 = run(&two_per_shard, false);
        assert!(
            batched_w6 < unbatched_w6,
            "batched {batched_w6} vs unbatched {unbatched_w6} messages"
        );
    });
}

#[test]
fn read_after_buffered_writes_is_one_round_trip() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let per_owner = keys_per_owner(&cluster, 1);
        let client = cluster.client();
        // Coordinator is endpoint 1: the read goes to its own shard, the two
        // writes to the two remote ones.
        let (a, b, c) = (&per_owner[&2][0], &per_owner[&3][0], &per_owner[&1][0]);

        let mut tx = client.begin(1);
        tx.put(a, b"va").unwrap();
        tx.put(b, b"vb").unwrap();
        let before = cluster.fabric().stats().sent;
        assert_eq!(tx.get(c).unwrap(), None);
        assert_eq!(
            cluster.fabric().stats().sent - before,
            2 + 2 * 2,
            "request + reply, plus one request + reply per remote shard: \
             the writes ride the read's message instead of a flush of their own"
        );
        tx.commit().unwrap();
        settle(&cluster);

        let mut tx = client.begin(2);
        assert_eq!(tx.get(a).unwrap(), Some(b"va".to_vec()));
        assert_eq!(tx.get(b).unwrap(), Some(b"vb".to_vec()));
        tx.commit().unwrap();
    });
}

#[test]
fn scans_and_range_deletes_survive_cluster_restart() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        {
            let client = cluster.client();
            let mut tx = client.begin(1);
            for i in 0..20u32 {
                tx.put(format!("dur-{i:02}").as_bytes(), b"v").unwrap();
            }
            tx.commit().unwrap();
            let mut tx = client.begin(2);
            tx.delete_range(b"dur-05", b"dur-15").unwrap();
            tx.commit().unwrap();
        }
        for i in 0..3 {
            cluster.crash_node(i);
        }
        for i in 0..3 {
            cluster.restart_node(i).unwrap();
        }
        cluster.resolve_recovered();
        let client = cluster.client();
        let mut tx = client.begin(1);
        let rows = tx.scan(b"dur-", b"dur-~", 0).unwrap();
        assert_eq!(rows.len(), 10, "range tombstones must survive restart");
        assert!(rows.iter().all(|(k, _)| {
            k.as_slice() < b"dur-05" as &[u8] || k.as_slice() >= b"dur-15" as &[u8]
        }));
        tx.commit().unwrap();
    });
}

// ---- read-only commit lane (DESIGN.md §17) -----------------------------------

/// Bytes of every WAL generation and the Clog under each node's directory:
/// unchanged across a commit means the commit appended no record.
fn log_bytes(cluster: &Cluster) -> Vec<u64> {
    (0..cluster.node_endpoints().len())
        .map(|i| {
            let dir = &cluster.env(i).expect("durable cluster").dir;
            std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap())
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.starts_with("wal-") || name == "CLOG"
                })
                .map(|e| e.metadata().unwrap().len())
                .sum()
        })
        .collect()
}

fn locked_keys(cluster: &Cluster) -> Vec<usize> {
    (0..cluster.node_endpoints().len())
        .map(|i| cluster.store(i).unwrap().locked_keys())
        .collect()
}

#[test]
fn read_only_dist_txn_commits_in_one_unlogged_round() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let obs = treaty_sim::obs::Obs::with_default_cap();
        treaty_sim::obs::install(&obs);
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let per_owner = keys_per_owner(&cluster, 2);
        assert_eq!(per_owner.len(), 3);
        let keys: Vec<Vec<u8>> = per_owner.values().flatten().cloned().collect();
        let client = cluster.client();
        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, b"seeded").unwrap();
        }
        tx.commit().unwrap();
        // The seeding 2PC fully on the wire and in every WAL.
        settle(&cluster);

        // Gets on every shard plus a fanned-out scan: S = 3 participants.
        let read_everything = |tx: &mut treaty_core::DistTxn<'_>| {
            for k in &keys {
                assert_eq!(tx.get(k).unwrap(), Some(b"seeded".to_vec()));
            }
            assert_eq!(tx.scan(b"batch-", b"batch-~", 0).unwrap().len(), keys.len());
        };

        // The seeding left an unstabilized Decide record at the tail of
        // each participant's WAL. The first read-only commit waits it out
        // (the stable-read condition): counter rounds, but still no record.
        let logs = log_bytes(&cluster);
        let mut warm = client.begin(1);
        read_everything(&mut warm);
        let sent = cluster.fabric().stats().sent;
        warm.commit().unwrap();
        assert!(
            cluster.fabric().stats().sent - sent > 6,
            "reads of an unstabilized WAL tail must wait for a counter round"
        );
        assert_eq!(log_bytes(&cluster), logs);

        // Idle WALs from here on: the lane costs one request per
        // participant and nothing else.
        let mut tx = client.begin(1);
        let gtx = tx.gtx();
        read_everything(&mut tx);
        assert!(locked_keys(&cluster).iter().all(|&n| n > 0));
        let sent = cluster.fabric().stats().sent;
        let lane_commits = obs.metrics().counter(Counter::CoreReadOnlyCommits);
        tx.commit().unwrap();
        // Client→coordinator and coordinator→each of the two remotes, one
        // reply each: 2·S messages. A ROTE round would add twelve more.
        assert_eq!(cluster.fabric().stats().sent - sent, 6);
        assert_eq!(log_bytes(&cluster), logs, "no Clog record, no WAL record");
        assert_eq!(cluster.node(0).clog().unwrap().protocol_state(gtx), None);
        assert_eq!(locked_keys(&cluster), vec![0, 0, 0]);
        assert_eq!(
            obs.metrics().counter(Counter::CoreReadOnlyCommits),
            lane_commits + 1
        );
        let events = obs.events();
        let lane_spans = events
            .iter()
            .filter(|e| e.txn == gtx.seq && e.kind == treaty_sim::obs::EventKind::Enter)
            .filter(|e| e.phase == Phase::CoordReadOnlyFinish)
            .count();
        assert_eq!(lane_spans, 1);
        assert!(
            !events.iter().any(|e| e.txn == gtx.seq
                && matches!(
                    e.phase,
                    Phase::ClogLogStart
                        | Phase::ClogLogDecision
                        | Phase::ClogStabilize
                        | Phase::WalStabilize
                )),
            "the lane touches neither log"
        );
        treaty_sim::obs::uninstall();
    });
}

#[test]
fn read_only_optimistic_txn_with_stale_read_votes_no() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut o = options(SecurityProfile::treaty_full(), &path);
        o.txn_mode = treaty_store::TxnMode::Optimistic;
        let cluster = Cluster::start(o).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        let client = cluster.client();
        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, b"v1").unwrap();
        }
        tx.commit().unwrap();
        settle(&cluster);

        let mut reader = client.begin(1);
        for k in &keys {
            assert_eq!(reader.get(k).unwrap(), Some(b"v1".to_vec()));
        }
        // Overwrite one of the reader's keys under it.
        let other = cluster.client();
        let mut writer = other.begin(2);
        writer.put(&keys[0], b"v2").unwrap();
        writer.commit().unwrap();
        settle(&cluster);

        match reader.commit() {
            Err(TreatyError::Aborted(_, reason)) => {
                assert!(
                    reason.contains("voted no") || reason.contains("read-only finish"),
                    "{reason}"
                )
            }
            other => panic!("stale read-only transaction must abort, got {other:?}"),
        }
        assert_eq!(locked_keys(&cluster), vec![0, 0, 0]);
        assert_eq!(cluster.totals(), (2, 1));
    });
}

#[test]
fn one_write_keeps_the_logged_two_phase_path() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let obs = treaty_sim::obs::Obs::with_default_cap();
        treaty_sim::obs::install(&obs);
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let keys = keys_on_different_nodes(&cluster);
        let client = cluster.client();
        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, b"v").unwrap();
        }
        tx.commit().unwrap();
        settle(&cluster);

        // Reads on every shard, one buffered write shipped with the commit.
        let mut tx = client.begin(1);
        let gtx = tx.gtx();
        for k in &keys {
            assert_eq!(tx.get(k).unwrap(), Some(b"v".to_vec()));
        }
        tx.put(&keys[0], b"w").unwrap();
        let logs = log_bytes(&cluster);
        tx.commit().unwrap();
        settle(&cluster);

        let state = cluster.node(0).clog().unwrap().protocol_state(gtx).unwrap();
        assert_eq!(state.decision, Some(true), "Start and Decision both logged");
        assert_eq!(state.participants.len(), 3);
        let after = log_bytes(&cluster);
        assert!(
            after.iter().zip(&logs).all(|(a, b)| a > b),
            "every participant logs its prepare: {logs:?} -> {after:?}"
        );
        assert_eq!(obs.metrics().counter(Counter::CoreReadOnlyCommits), 0);
        treaty_sim::obs::uninstall();
    });
}

/// Without stabilization the finish runs inline on the client's fiber —
/// but phase two does not: its acks are awaited on a delivery fiber, so
/// the client is answered before any participant has acknowledged.
#[test]
fn phase_two_acks_stay_off_an_inline_finish() {
    use treaty_core::messages::req::PEER_COMMIT;
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::native_treaty(), &path)).unwrap();
        // Remote shards only: with no local slice to apply, nothing but
        // the acks could stand between the decision and the answer.
        let keys = keys_on_different_nodes(&cluster);
        let remote: Vec<_> = keys
            .iter()
            .filter(|k| cluster.shard_map().owner(k) != 1)
            .collect();
        assert_eq!(remote.len(), 2);
        let client = cluster.client();
        let mut tx = client.begin(1);
        for k in &remote {
            tx.put(k, b"v").unwrap();
        }
        cluster.fabric().start_capture();
        tx.commit().unwrap();
        let acks = || {
            let sent = cluster.fabric().captured();
            sent.iter()
                .filter(|d| d.is_response && d.req_type == PEER_COMMIT)
                .count()
        };
        assert_eq!(acks(), 0);
        cluster.node(0).drain_decisions();
        assert_eq!(acks(), 2);
    });
}

/// A mixed transaction holds its read locks to the decision. T1 =
/// r(x)@A w(y)@B and T2 = w(x)@A r(y)@B both read before either commits.
/// With a read lock released at prepare both committed, each having read
/// the initial value the other overwrote: a cycle. Held to the decision,
/// each write waits on the other's read lock, and at most one commits.
#[test]
fn a_mixed_transaction_holds_its_read_locks_to_the_decision() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster =
            Rc::new(Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap());
        // Owned by endpoints 1 (A) and 2 (B), in that order.
        let keys = keys_on_different_nodes(&cluster);
        let (x, y) = (keys[0].clone(), keys[1].clone());
        let seeder = cluster.client();
        let mut seed = seeder.begin(1);
        seed.put(&x, b"x0").unwrap();
        seed.put(&y, b"y0").unwrap();
        seed.commit().unwrap();
        sleep(10 * MILLIS);

        let reads = Rc::new(RefCell::new(0));
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        // Each transaction is coordinated where it reads, and writes on
        // the other shard.
        let run = |coordinator: u32, read: Vec<u8>, write: Vec<u8>| {
            let (cluster, reads, outcomes) =
                (Rc::clone(&cluster), Rc::clone(&reads), Rc::clone(&outcomes));
            spawn(move || {
                let client = cluster.client();
                let mut tx = client.begin(coordinator);
                let seen = tx.get(&read).unwrap();
                *reads.borrow_mut() += 1;
                while *reads.borrow() < 2 {
                    sleep(10 * treaty_sim::MICROS);
                }
                tx.put(&write, b"new").unwrap();
                let committed = tx.commit().is_ok();
                let seen = String::from_utf8(seen.unwrap()).unwrap();
                outcomes.borrow_mut().push((seen, committed));
            })
        };
        for t in [run(1, x.clone(), y.clone()), run(2, y, x)] {
            join(t);
        }
        let outcomes = outcomes.take();
        assert!(
            outcomes.iter().all(|(seen, _)| seen.ends_with('0')),
            "a read saw the other's write: {outcomes:?}"
        );
        assert!(
            outcomes.iter().filter(|(_, committed)| *committed).count() <= 1,
            "both committed, each over the other's read: {outcomes:?}"
        );
        sleep(100 * MILLIS);
        assert_eq!(locked_keys(&cluster), vec![0, 0, 0]);
    });
}

/// Concurrent whole-span scanners (read-only lane) against cross-shard
/// list-append writers (full 2PC): the committed history must be
/// serializable, with every scan a consistent cut.
#[test]
fn read_only_scanners_serialize_with_cross_shard_writers() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster =
            Rc::new(Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap());
        let observations = Rc::new(RefCell::new(Vec::new()));
        let keyspace: Vec<Vec<u8>> = (0..6).map(|i| format!("list-{i}").into_bytes()).collect();
        let decode_list = |b: &[u8]| -> Vec<GlobalTxId> { decode(b).unwrap() };
        let mut handles = Vec::new();
        for c in 0..6usize {
            let cluster = Rc::clone(&cluster);
            let observations = Rc::clone(&observations);
            let keyspace = keyspace.clone();
            handles.push(spawn(move || {
                let client = cluster.client();
                let coordinator = 1 + (c % 3) as u32;
                for t in 0..6usize {
                    let mut tx = client.begin(coordinator);
                    let mut obs = TxnObservation {
                        id: tx.gtx(),
                        reads: Vec::new(),
                        appends: Vec::new(),
                    };
                    let result = (|| -> Result<(), TreatyError> {
                        if c % 2 == 0 {
                            // Scanner: one cut over the whole key space.
                            let rows = tx.scan(b"list-", b"list-~", 0)?;
                            for k in &keyspace {
                                let seen = rows.iter().find(|(rk, _)| rk == k);
                                obs.reads.push((
                                    k.clone(),
                                    seen.map(|(_, v)| decode_list(v)).unwrap_or_default(),
                                ));
                            }
                        } else {
                            for k in [&keyspace[(c + t) % 6], &keyspace[(c + t * 3 + 1) % 6]] {
                                if obs.appends.contains(k) {
                                    continue;
                                }
                                let mut list =
                                    tx.get(k)?.map(|b| decode_list(&b)).unwrap_or_default();
                                obs.reads.push((k.clone(), list.clone()));
                                list.push(obs.id);
                                tx.put(k, &encode(&list))?;
                                obs.appends.push(k.clone());
                            }
                        }
                        Ok(())
                    })();
                    if result.is_ok() && tx.commit().is_ok() {
                        observations.borrow_mut().push(obs);
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }
        sleep(100 * treaty_sim::MILLIS);

        let reader = cluster.client();
        let mut tx = reader.begin(1);
        let finals: HashMap<Vec<u8>, Vec<GlobalTxId>> = tx
            .scan(b"list-", b"list-~", 0)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, decode_list(&v)))
            .collect();
        tx.commit().unwrap();

        let txns = observations.borrow().clone();
        let scans = txns.iter().filter(|t| t.appends.is_empty()).count();
        assert!(
            scans > 0 && scans < txns.len(),
            "{scans} scans of {} txns",
            txns.len()
        );
        if let Err(e) = check_list_append(&txns, &finals) {
            panic!("serializability violated: {e}");
        }
    });
}

/// A YCSB-E-shaped mix — 95 % short scans, 5 % inserts of fresh keys, 16
/// closed-loop clients — runs to completion. Before the MemTable cursor
/// stopped holding its shard lock across a charge, a scan parked inside
/// `range_cursor` wedged the first insert's apply on the same shard.
#[test]
fn scan_heavy_mix_with_inserts_runs_to_completion() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster =
            Rc::new(Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap());
        let seeder = cluster.client();
        for chunk in (0..200u32).collect::<Vec<_>>().chunks(20) {
            let mut tx = seeder.begin(1);
            for i in chunk {
                tx.put(format!("e-{:05}", i * 10).as_bytes(), b"row")
                    .unwrap();
            }
            tx.commit().unwrap();
        }

        let committed = Rc::new(RefCell::new(0u32));
        let mut handles = Vec::new();
        for c in 0..16u32 {
            let cluster = Rc::clone(&cluster);
            let committed = Rc::clone(&committed);
            handles.push(spawn(move || {
                let client = cluster.client();
                let mut x = 0x9e37_79b9u32.wrapping_mul(c + 1);
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x
                };
                for _ in 0..8 {
                    let ops: Vec<(bool, u32)> =
                        (0..2).map(|_| (next() % 100 < 5, next() % 2000)).collect();
                    // Retried like a real client: a lock timeout against
                    // an inserter is an abort, not a failure.
                    for _attempt in 0..8 {
                        let mut tx = client.begin(1 + c % 3);
                        let result = (|| -> Result<(), TreatyError> {
                            for &(insert, at) in &ops {
                                let key = format!("e-{at:05}");
                                if insert {
                                    tx.put(format!("{key}-c{c}").as_bytes(), b"new")?;
                                } else {
                                    let rows = tx.scan(key.as_bytes(), b"e-~", 10)?;
                                    assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
                                }
                            }
                            Ok(())
                        })();
                        if result.is_ok() && tx.commit().is_ok() {
                            *committed.borrow_mut() += 1;
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }
        let committed = *committed.borrow_mut();
        assert!(
            committed >= 16 * 8 * 9 / 10,
            "only {committed} of 128 committed"
        );
        sleep(100 * treaty_sim::MILLIS);
        assert_eq!(locked_keys(&cluster), vec![0, 0, 0]);
    });
}

// ---- per-shard scan quotas (DESIGN.md §16) -----------------------------------

/// A limited locking scan over three shards reads exactly the model's
/// prefix, whatever the key set, the start, the limit (1–40), the
/// transaction's own buffered writes and the engine's locking mode.
/// Each shard is asked for its quota, not the limit, so a key set that
/// crowds one shard makes the coordinator resume it.
#[test]
fn a_limited_scan_over_three_shards_reads_the_model_prefix() {
    use rand::{Rng, SeedableRng};
    for mode in [TxnMode::Pessimistic, TxnMode::Optimistic] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let obs = treaty_sim::obs::Obs::with_default_cap();
            treaty_sim::obs::install(&obs);
            let mut o = options(SecurityProfile::treaty_full(), &path);
            o.txn_mode = mode;
            let cluster = Cluster::start(o).unwrap();
            let client = cluster.client();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(52);
            for round in 0..4 {
                let key = |i: u32| format!("q{round}-{i:03}").into_bytes();
                let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                let mut tx = client.begin(1);
                // A sparse and a dense key set, then two that crowd one
                // shard: (percent kept on the crowded shard, elsewhere).
                let (crowded, elsewhere) = [(10, 10), (70, 70), (90, 10), (80, 5)][round];
                let crowd = cluster.node_endpoints()[round % 3];
                for i in 0..150 {
                    let owner = cluster.shard_map().owner(&key(i));
                    let density = if owner == crowd { crowded } else { elsewhere };
                    if rng.gen_range(0..100) < density {
                        tx.put(&key(i), &key(i)).unwrap();
                        model.insert(key(i), key(i));
                    }
                }
                tx.commit().unwrap();
                // An optimistic read takes no lock, so it only sees the
                // commit once every shard has applied it.
                settle(&cluster);
                let end = format!("q{round}-~").into_bytes();
                for case in 0..12u32 {
                    let start = key(rng.gen_range(0..160));
                    let limit = rng.gen_range(1..=40usize);
                    let mut view = model.clone();
                    let mut tx = client.begin(1 + case % 3);
                    for _ in 0..rng.gen_range(0..3) {
                        let k = key(rng.gen_range(0..150));
                        if rng.gen_bool(0.5) {
                            tx.put(&k, b"own").unwrap();
                            view.insert(k, b"own".to_vec());
                        } else {
                            tx.delete(&k).unwrap();
                            view.remove(&k);
                        }
                    }
                    let rows = tx.scan(&start, &end, limit).unwrap();
                    let want: Vec<(Vec<u8>, Vec<u8>)> = view
                        .range(start.clone()..end.clone())
                        .take(limit)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    assert_eq!(
                        rows, want,
                        "{mode:?} round {round} case {case} limit {limit}"
                    );
                    tx.rollback().unwrap();
                }
            }
            let resumes = obs.metrics().counter(Counter::CoreScanResumes);
            assert!(
                (1..48).contains(&resumes),
                "{mode:?}: {resumes} of 48 resumed"
            );
        });
    }
}

/// When the first `limit` keys all live on one shard, its quota falls
/// short and the certain prefix with it: the coordinator resumes the
/// shards cut short once, and the result is still the model's.
#[test]
fn a_scan_crowded_onto_one_shard_resumes_once() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let obs = treaty_sim::obs::Obs::with_default_cap();
        treaty_sim::obs::install(&obs);
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let crowded = cluster.node_endpoints()[0];
        let (mut first, mut rest) = (Vec::new(), Vec::new());
        for i in 0..10_000u32 {
            let a = format!("crowd-a{i:05}").into_bytes();
            if first.len() < 20 && cluster.shard_map().owner(&a) == crowded {
                first.push(a);
            }
            let b = format!("crowd-b{i:05}").into_bytes();
            if rest.len() < 60 && cluster.shard_map().owner(&b) != crowded {
                rest.push(b);
            }
        }
        let client = cluster.client();
        let mut tx = client.begin(1);
        for k in first.iter().chain(&rest) {
            tx.put(k, b"v").unwrap();
        }
        tx.commit().unwrap();

        let mut tx = client.begin(2);
        let resumes = obs.metrics().counter(Counter::CoreScanResumes);
        let rows = tx.scan(b"crowd-", b"crowd-~", 20).unwrap();
        let keys: Vec<Vec<u8>> = rows.into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, first);
        assert_eq!(obs.metrics().counter(Counter::CoreScanResumes), resumes + 1);
        tx.commit().unwrap();
    });
}
