//! Snapshot-isolation oracle for the lock-free read-only path
//! (DESIGN.md §12): snapshot reads never observe a torn multi-key
//! transaction across shards, return version-identical results to locked
//! reads on the same seed, and make **zero** lock-table acquisitions —
//! asserted through the metrics registry, not by inspection.

use std::collections::BTreeSet;
use std::rc::Rc;

use std::cell::RefCell;
use treaty::core::messages::{decode, encode};
use treaty::core::{Cluster, ClusterOptions};
use treaty::obs::{Counter, Obs};
use treaty::sched::block_on;
use treaty::sim::runtime::{join, sleep, spawn};
use treaty::sim::{SecurityProfile, MILLIS};
use treaty::store::{EngineConfig, EngineTxn as _, GlobalTxId, TxnEngine as _, TxnMode};

fn options(dir: &std::path::Path) -> ClusterOptions {
    let mut o = ClusterOptions::new(SecurityProfile::treaty_full(), dir.to_path_buf());
    o.engine_config = EngineConfig::tiny();
    o
}

/// One key per node, ordered by owner endpoint for determinism.
fn key_per_node(cluster: &Cluster) -> Vec<Vec<u8>> {
    let mut found: std::collections::BTreeMap<u32, Vec<u8>> = std::collections::BTreeMap::new();
    for i in 0..10_000u32 {
        let k = format!("spread-{i}").into_bytes();
        found.entry(cluster.shard_map().owner(&k)).or_insert(k);
        if found.len() == cluster.node_endpoints().len() {
            break;
        }
    }
    found.into_values().collect()
}

/// Writers append their transaction id to one key per shard inside a
/// single 2PC transaction; concurrent snapshot readers must see each
/// writer on *all* keys or on *none* — a torn cut on any shard breaks
/// the all-or-nothing oracle.
#[test]
fn snapshot_never_observes_torn_cross_shard_txn() {
    const WRITERS: usize = 3;
    const TXNS_PER_WRITER: u32 = 4;
    const READS: usize = 40;
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Rc::new(Cluster::start(options(&path)).unwrap());
        let keys = key_per_node(&cluster);
        assert_eq!(keys.len(), 3, "want one key per shard");

        // Seed every key so snapshots always decode a list.
        let client = cluster.client();
        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, &encode(&Vec::<GlobalTxId>::new())).unwrap();
        }
        tx.commit().unwrap();
        sleep(20 * MILLIS);

        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let cluster = Rc::clone(&cluster);
            let keys = keys.clone();
            handles.push(spawn(move || {
                let client = cluster.client();
                for _ in 0..TXNS_PER_WRITER {
                    let mut tx = client.begin(1 + (w % 3) as u32);
                    let gtx = tx.gtx();
                    // Writers contend (shared→exclusive upgrades can
                    // deadlock and time out); an aborted writer is fine —
                    // the oracle only cares that whatever *did* commit is
                    // never torn.
                    let mut ok = true;
                    for k in &keys {
                        let Ok(list) = tx.get(k) else {
                            ok = false;
                            break;
                        };
                        let mut list: Vec<GlobalTxId> =
                            list.map(|b| decode(&b).unwrap()).unwrap_or_default();
                        list.push(gtx);
                        if tx.put(k, &encode(&list)).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        let _ = tx.commit();
                    } else {
                        let _ = tx.rollback();
                    }
                    sleep(2 * MILLIS);
                }
            }));
        }

        let reader = cluster.client();
        let mut snapshots = 0usize;
        for _ in 0..READS {
            match reader.snapshot_read(&keys) {
                Ok(values) => {
                    let lists: Vec<BTreeSet<GlobalTxId>> = values
                        .iter()
                        .map(|v| {
                            let l: Vec<GlobalTxId> =
                                v.as_ref().map(|b| decode(b).unwrap()).unwrap_or_default();
                            l.into_iter().collect()
                        })
                        .collect();
                    // Every writer hits all three keys atomically, so a
                    // consistent cut holds the same id set on each key.
                    assert!(
                        lists.windows(2).all(|w| w[0] == w[1]),
                        "torn snapshot: per-key writer sets differ: {lists:?}"
                    );
                    snapshots += 1;
                }
                // Write-hot keys can exhaust the retry budget; that is a
                // liveness trade-off, not an isolation violation.
                Err(treaty::core::TreatyError::Rejected(_)) => {}
                Err(e) => panic!("snapshot read failed hard: {e}"),
            }
            sleep(MILLIS / 2);
        }
        for h in handles {
            join(h);
        }
        assert!(
            snapshots >= READS / 2,
            "too few successful snapshots under load: {snapshots}/{READS}"
        );

        // After the writers drain, one more snapshot must match the
        // final locked read exactly.
        sleep(50 * MILLIS);
        let snap = reader.snapshot_read(&keys).unwrap();
        let mut tx = reader.begin(1);
        for (k, sv) in keys.iter().zip(&snap) {
            assert_eq!(tx.get(k).unwrap(), *sv, "quiesced snapshot diverged");
        }
        tx.commit().unwrap();
    });
}

/// The ablation the benchmark leans on: with the cluster quiesced, a
/// snapshot read returns byte-identical values to a locked 2PC read of
/// the same keys — same seed, same data, different read path.
#[test]
fn snapshot_reads_are_version_identical_to_locked_reads() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut opts = options(&path);
        opts.seed = 7;
        let cluster = Cluster::start(opts).unwrap();
        let client = cluster.client();

        // A deterministic mixed write history: several generations of
        // overwrites so MVCC holds multiple versions of most keys.
        let keys: Vec<Vec<u8>> = (0..24u32)
            .map(|i| format!("si-key-{i:03}").into_bytes())
            .collect();
        for gen in 0..3u32 {
            for chunk in keys.chunks(6) {
                let mut tx = client.begin(1 + (gen % 3));
                for k in chunk {
                    let mut v = format!("gen{gen}-").into_bytes();
                    v.extend_from_slice(k);
                    tx.put(k, &v).unwrap();
                }
                tx.commit().unwrap();
            }
        }
        // Delete a few: tombstones must read back identically too.
        let mut tx = client.begin(2);
        for k in keys.iter().step_by(7) {
            tx.delete(k).unwrap();
        }
        tx.commit().unwrap();
        sleep(50 * MILLIS);

        let snap = client.snapshot_read(&keys).unwrap();
        let mut tx = client.begin(1);
        let mut locked = Vec::with_capacity(keys.len());
        for k in &keys {
            locked.push(tx.get(k).unwrap());
        }
        tx.commit().unwrap();
        assert_eq!(snap, locked, "snapshot and locked reads diverged");
        assert!(
            snap.iter().any(Option::is_none) && snap.iter().any(Option::is_some),
            "history must cover both live keys and tombstones"
        );
    });
}

/// The headline claim, asserted through the metrics registry: a batch of
/// read-only snapshot transactions advances `core.snapshot_reads` but
/// leaves `store.lock_acquire` exactly where the setup writes put it —
/// zero `LockTable::try_acquire` calls on the read-only path.
#[test]
fn readonly_snapshot_txns_never_touch_the_lock_table() {
    const READS: usize = 25;
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    type Readings = (u64, u64, u64, u64);
    let out: Rc<RefCell<Option<Readings>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    block_on(move || {
        let obs = Obs::with_default_cap();
        treaty::sim::obs::install(&obs);
        let mut opts = options(&path);
        opts.txn_mode = TxnMode::Pessimistic;
        let cluster = Cluster::start(opts).unwrap();
        let client = cluster.client();
        let keys = key_per_node(&cluster);
        let mut tx = client.begin(1);
        for k in &keys {
            tx.put(k, b"locked-once").unwrap();
        }
        tx.commit().unwrap();
        sleep(50 * MILLIS);

        // Baseline after the setup writes (which DO acquire locks).
        let m = obs.metrics();
        let lock_baseline = m.counter(Counter::StoreLockAcquire);
        let snap_baseline = m.counter(Counter::CoreSnapshotReads);
        assert!(lock_baseline > 0, "setup writes must exercise the counter");

        for _ in 0..READS {
            let values = client.snapshot_read(&keys).unwrap();
            assert!(values.iter().all(Option::is_some));
        }
        let lock_after_snapshots = m.counter(Counter::StoreLockAcquire);
        let snaps_served = m.counter(Counter::CoreSnapshotReads) - snap_baseline;

        // Sanity: the counter still moves when a locking read runs.
        let mut tx = client.begin(1);
        for k in &keys {
            tx.get(k).unwrap();
        }
        tx.commit().unwrap();
        let lock_after_locked = m.counter(Counter::StoreLockAcquire);
        treaty::sim::obs::uninstall();
        *out2.borrow_mut() = Some((
            lock_after_snapshots - lock_baseline,
            snaps_served,
            lock_after_locked - lock_after_snapshots,
            READS as u64,
        ));
    });
    let (snapshot_locks, snaps_served, locked_locks, reads) = out.borrow_mut().take().unwrap();
    assert_eq!(
        snapshot_locks, 0,
        "read-only snapshot transactions acquired {snapshot_locks} locks"
    );
    assert!(
        snaps_served >= reads,
        "snapshot path must have served the reads: {snaps_served}/{reads}"
    );
    assert!(
        locked_locks > 0,
        "ablation sanity: a locking read must advance store.lock_acquire"
    );
}

/// In-doubt handling end to end: a prepared-but-undecided transaction
/// overlapping the read set makes the shard reject the snapshot; the
/// client backs off and retries, and once the decision lands the read
/// succeeds — observing the *committed* value, never the torn state.
#[test]
fn indoubt_snapshot_reads_retry_until_the_decision_lands() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    let out: Rc<RefCell<Option<(u64, u64)>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    block_on(move || {
        let obs = Obs::with_default_cap();
        treaty::sim::obs::install(&obs);
        let cluster = Cluster::start(options(&path)).unwrap();
        let client = cluster.client();

        // A key owned by endpoint 2, seeded with a baseline value.
        let key = (0..10_000u32)
            .map(|i| format!("doubt-{i}").into_bytes())
            .find(|k| cluster.shard_map().owner(k) == 2)
            .unwrap();
        let mut tx = client.begin(1);
        tx.put(&key, b"before").unwrap();
        tx.commit().unwrap();
        sleep(50 * MILLIS);

        // Prepare (but do not decide) a write to that key, driving the
        // participant engine directly — exactly the window between 2PC
        // phase one and phase two.
        let store = cluster.store(1).unwrap().clone();
        let gtx = GlobalTxId {
            node: 2,
            seq: 990_001,
        };
        let mut part = store.begin_mode(TxnMode::Pessimistic);
        part.put(&key, b"after").unwrap();
        part.prepare(gtx).unwrap();
        drop(part);

        // Decide commit a little later, from a concurrent fiber: the
        // snapshot retry loop must outlive the in-doubt window.
        let decider = {
            let store = store.clone();
            spawn(move || {
                sleep(MILLIS);
                store.commit_prepared(gtx).unwrap();
            })
        };

        let values = client.snapshot_read(std::slice::from_ref(&key)).unwrap();
        assert_eq!(
            values,
            vec![Some(b"after".to_vec())],
            "post-decision snapshot must observe the committed write"
        );
        join(decider);
        let m = obs.metrics();
        let rejects = m.counter(Counter::CoreSnapshotIndoubtReject);
        let retries = m.counter(Counter::ClientSnapshotRetries);
        treaty::sim::obs::uninstall();
        *out2.borrow_mut() = Some((rejects, retries));
    });
    let (rejects, retries) = out.borrow_mut().take().unwrap();
    assert!(
        rejects >= 1,
        "the prepared overlap must reject at least once"
    );
    assert!(retries >= 1, "the client must have retried the snapshot");
}
