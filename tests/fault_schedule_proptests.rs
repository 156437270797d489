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

mod common;

use common::{append, assert_nothing_prepared, assert_serializable, boot, fired, read_lists};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use treaty::sched::block_on;
use treaty::sim::crashpoint::{self, CrashPoint, FaultSchedule};
use treaty::sim::runtime::sleep;
use treaty::sim::SECONDS;

fn run_case(point: CrashPoint, node: u32, hit: u64, txns: usize) {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let case = format!("point={point}, node={node}, hit={hit}");
        let plan = crashpoint::install();
        let mut cluster = boot(&path);
        let keyspace: Vec<Vec<u8>> = (0..4).map(|i| format!("pk-{i}").into_bytes()).collect();
        plan.arm(FaultSchedule::new().crash_at(point, node, hit));

        // A sequential workload over rotating coordinators. Transactions
        // that hit the crash (op error, timeout, abort) are simply not
        // recorded — only acked commits join the history.
        let client = cluster.client();
        let mut observations = Vec::new();
        for t in 0..txns {
            let mut tx = client.begin(1 + (t % 3) as u32);
            let keys = [
                keyspace[t % keyspace.len()].clone(),
                keyspace[(t * 3 + 1) % keyspace.len()].clone(),
            ];
            if let Ok(obs) = append(&mut tx, &keys) {
                if tx.commit().is_ok() {
                    observations.push(obs);
                }
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
        let case = format!(
            "{case}, fired={}",
            fired(&plan, point, node, &case).is_some()
        );
        for idx in 0..3 {
            cluster.crash_node(idx);
        }
        for idx in 0..3 {
            cluster.restart_node(idx).unwrap();
        }
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "{case}: recovery re-drive failed: {rec:?}");

        // Acked commits survive, nothing stays prepared, and the history
        // is serializable.
        let finals = read_lists(&cluster, 1, &keyspace, &case);
        assert_nothing_prepared(&cluster, &case);
        assert_serializable(&observations, &finals, &case);
    });
}

/// A crash schedule at every point of `CrashPoint::ALL` on every node (hit
/// count and workload length seeded per case): the recovery oracle holds
/// whether the crash fires or not.
#[test]
fn crash_schedules_preserve_the_recovery_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    for point in CrashPoint::ALL {
        for node in 1u32..=3 {
            let hit = rng.gen_range(1u64..=3);
            let txns = rng.gen_range(4usize..=8);
            run_case(point, node, hit, txns);
        }
    }
}
