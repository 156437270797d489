//! Generated fault injection: a crash schedule at every registered crash
//! point on every node, interleaved with a list-append workload, must
//! never break the recovery oracle.
//!
//! Each case arms one `(point, node, k-th hit)` fault — hit count and
//! workload length drawn from a seeded generator — runs a small workload
//! across rotating coordinators, then power-cycles the whole cluster and
//! resolves recovery. Whether or not the fault fired (a schedule can name
//! a hit count the workload never reaches), the invariants are the same:
//! every acked commit survives the restart, no prepared transaction
//! outlives recovery, and the committed history is serializable against
//! the final state.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use treaty::core::messages::{decode, encode};
use treaty::core::{check_list_append, Cluster, ClusterOptions, TxnObservation};
use treaty::sched::block_on;
use treaty::sim::crashpoint::{self, FaultSchedule};
use treaty::sim::runtime::sleep;
use treaty::sim::{SecurityProfile, MILLIS, SECONDS};
use treaty::store::{EngineConfig, GlobalTxId, TxnEngine as _};

fn options(dir: &std::path::Path) -> ClusterOptions {
    let mut o = ClusterOptions::new(SecurityProfile::treaty_full(), dir.to_path_buf());
    o.engine_config = EngineConfig::tiny();
    o
}

fn run_case(point: &'static str, node: u32, hit: u64, txns: usize) {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keyspace: Vec<Vec<u8>> = (0..4).map(|i| format!("pk-{i}").into_bytes()).collect();
        plan.arm(FaultSchedule::new().crash_at(point, node, hit));

        // A sequential workload over rotating coordinators. Transactions
        // that hit the crash (op error, timeout, abort) are simply not
        // recorded — only acked commits join the history.
        let client = cluster.client();
        let mut observations: Vec<TxnObservation> = Vec::new();
        for t in 0..txns {
            let coordinator = 1 + (t % 3) as u32;
            let mut tx = client.begin(coordinator);
            let gtx = tx.gtx();
            let k1 = keyspace[t % keyspace.len()].clone();
            let k2 = keyspace[(t * 3 + 1) % keyspace.len()].clone();
            let mut obs = TxnObservation {
                id: gtx,
                reads: Vec::new(),
                appends: Vec::new(),
            };
            let result = (|| -> Result<(), treaty::core::TreatyError> {
                for k in [&k1, &k2] {
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
                observations.push(obs);
            }
        }

        // Drain in-flight retry trains, then power-cycle the whole
        // cluster: volatile state (stuck locks included) is gone, acked
        // state must not be.
        sleep(4 * SECONDS);
        // The schedule covers the workload only: left armed, a point on
        // the read path would crash the node under the verification read
        // below, which nothing restarts.
        plan.disarm();
        let fired = plan.fired();
        for f in &fired {
            assert_eq!(f.point, point);
            assert_eq!(f.node, node);
        }
        for idx in 0..3 {
            cluster.crash_node(idx);
        }
        for idx in 0..3 {
            cluster.restart_node(idx).unwrap();
        }
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "recovery re-drive failed: {rec:?}");

        // Final state, with retries while recovery lock releases settle.
        let reader = cluster.client();
        let mut finals: HashMap<Vec<u8>, Vec<GlobalTxId>> = HashMap::new();
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
            sleep(100 * MILLIS);
        }

        // No prepared transaction outlives recovery.
        for i in 0..3 {
            if let Some(store) = cluster.store(i) {
                let prepared = store.prepared_txns();
                assert!(
                    prepared.is_empty(),
                    "prepared locks leaked on node {}: {prepared:?}",
                    i + 1
                );
            }
        }

        // Acked commits survive and the history is serializable.
        if let Err(e) = check_list_append(&observations, &finals) {
            panic!(
                "oracle violated (point={point}, node={node}, hit={hit}, fired={}): {e}",
                fired.len()
            );
        }
    });
}

/// A crash schedule at every point of `ALL_POINTS` on every node (hit
/// count and workload length seeded per case): the recovery oracle holds
/// whether the crash fires or not.
#[test]
fn crash_schedules_preserve_the_recovery_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    for &point in crashpoint::ALL_POINTS {
        for node in 1u32..=3 {
            let hit = rng.gen_range(1u64..=3);
            let txns = rng.gen_range(4usize..=8);
            run_case(point, node, hit, txns);
        }
    }
}
