//! The recovery oracle the fault-test binaries share: how a crash episode
//! boots its cluster, the list-append transaction it runs, and the checks
//! it ends with. The checks are the atomic-commit properties — every shard
//! applies the same outcome, an acknowledged outcome is the decision,
//! nothing stays prepared after recovery — and list-append
//! serializability of what survived.

// Each test binary that includes this module uses its own subset of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::path::Path;

use treaty::core::messages::{decode, encode};
use treaty::core::{
    check_list_append, Cluster, ClusterOptions, DistTxn, TreatyError, TxnObservation,
};
use treaty::sim::crashpoint::{CrashPlan, CrashPoint};
use treaty::sim::runtime::sleep;
use treaty::sim::{Nanos, SecurityProfile, MILLIS};
use treaty::store::{EngineConfig, GlobalTxId, TxnEngine as _};

/// The list each list-append key holds after recovery, by key.
pub type Lists = HashMap<Vec<u8>, Vec<GlobalTxId>>;

/// Three nodes under `treaty_full` on `EngineConfig::tiny()`, whose small
/// MemTables let one large value make a flush due.
pub fn options(dir: &Path) -> ClusterOptions {
    let mut o = ClusterOptions::new(SecurityProfile::treaty_full(), dir.to_path_buf());
    o.engine_config = EngineConfig::tiny();
    o
}

/// Boots the cluster of [`options`]. A crash plan installed before the
/// call makes the nodes register their crash handlers.
pub fn boot(dir: &Path) -> Cluster {
    Cluster::start(options(dir)).expect("the cluster boots")
}

/// When the armed crash fired, if it did. Any other crash than one at
/// `(point, node)` fails the episode.
pub fn fired(plan: &CrashPlan, point: CrashPoint, node: u32, cell: &str) -> Option<Nanos> {
    let fired = plan.fired();
    assert!(
        fired.len() <= 1 && fired.iter().all(|f| (f.point, f.node) == (point, node)),
        "{cell}: expected one crash at {point} on n{node}, got {fired:?}"
    );
    fired.first().map(|f| f.at)
}

/// When the armed crash fired: exactly once, at `(point, node)`.
pub fn fired_once(plan: &CrashPlan, point: CrashPoint, node: u32, cell: &str) -> Nanos {
    fired(plan, point, node, cell)
        .unwrap_or_else(|| panic!("{cell}: the crash at {point} on n{node} never fired"))
}

/// Appends the transaction's id to the list under each of `keys` (once
/// per distinct key) and returns what it read and appended.
///
/// # Errors
///
/// The first failed read or write; the transaction is then not committed.
pub fn append(tx: &mut DistTxn<'_>, keys: &[Vec<u8>]) -> Result<TxnObservation, TreatyError> {
    let mut obs = TxnObservation {
        id: tx.gtx(),
        reads: Vec::new(),
        appends: Vec::new(),
    };
    for k in keys {
        if obs.appends.contains(k) {
            continue;
        }
        let mut list: Vec<GlobalTxId> = tx.get(k)?.map(|b| decode(&b).unwrap()).unwrap_or_default();
        obs.reads.push((k.clone(), list.clone()));
        list.push(obs.id);
        tx.put(k, &encode(&list))?;
        obs.appends.push(k.clone());
    }
    Ok(obs)
}

/// What the client heard: `C`ommitted, `A`borted, `U`nanswered (network)
/// or `R`ejected. A crash produces no other error.
pub fn ack<T>(outcome: Result<T, TreatyError>) -> char {
    match outcome {
        Ok(_) => 'C',
        Err(TreatyError::Aborted(..)) => 'A',
        Err(TreatyError::Net(_)) => 'U',
        Err(TreatyError::Rejected(_)) => 'R',
        Err(e) => panic!("not an outcome a crash produces: {e}"),
    }
}

/// The list under every key, read in one locking transaction through
/// `coordinator`. The read retries while recovery's lock releases settle.
pub fn read_lists(cluster: &Cluster, coordinator: u32, keys: &[Vec<u8>], cell: &str) -> Lists {
    let client = cluster.client();
    for _ in 0..10 {
        let mut tx = client.begin(coordinator);
        let read: Result<Lists, TreatyError> = keys
            .iter()
            .filter_map(|k| match tx.get(k) {
                Ok(v) => v.map(|bytes| Ok((k.clone(), decode(&bytes).unwrap()))),
                Err(e) => Some(Err(e)),
            })
            .collect();
        if let Ok(lists) = read {
            if tx.commit().is_ok() {
                return lists;
            }
        }
        sleep(100 * MILLIS);
    }
    panic!("{cell}: the final read never succeeded")
}

/// No store holds a prepared transaction: none outlives recovery.
pub fn assert_nothing_prepared(cluster: &Cluster, cell: &str) {
    for i in 0..cluster.node_endpoints().len() {
        if let Some(store) = cluster.store(i) {
            let prepared = store.prepared_txns();
            assert!(
                prepared.is_empty(),
                "{cell}: n{} still holds prepared {prepared:?}",
                i + 1
            );
        }
    }
}

/// No store holds a prepared transaction or a locked key: what a crash
/// with nothing durable in flight must leave once its node restarted.
pub fn assert_drained(cluster: &Cluster, cell: &str) {
    assert_nothing_prepared(cluster, cell);
    for i in 0..cluster.node_endpoints().len() {
        if let Some(store) = cluster.store(i) {
            let locked = store.locked_keys();
            assert_eq!(locked, 0, "{cell}: n{} leaked {locked} locks", i + 1);
        }
    }
}

/// `txn`'s appends are on every key it appended to or on none, on all if
/// the client heard `Committed` and on none if it heard `Aborted`.
/// Returns whether they are on all.
pub fn all_or_nothing(finals: &Lists, txn: &TxnObservation, acked: char, cell: &str) -> bool {
    let present: Vec<bool> = txn
        .appends
        .iter()
        .map(|k| finals.get(k).is_some_and(|l| l.contains(&txn.id)))
        .collect();
    let all = present.iter().all(|&p| p);
    assert!(
        all || !present.contains(&true),
        "{cell}: {:?} half-committed across shards: {present:?}",
        txn.id
    );
    assert!(
        acked != 'C' || all,
        "{cell}: {:?} acknowledged and lost",
        txn.id
    );
    assert!(
        acked != 'A' || !all,
        "{cell}: {:?} aborted and applied",
        txn.id
    );
    all
}

/// The committed `history` is serializable against the final lists, and
/// none of its appends is lost.
pub fn assert_serializable(history: &[TxnObservation], finals: &Lists, cell: &str) {
    if let Err(e) = check_list_append(history, finals) {
        panic!("{cell}: {e}");
    }
}
