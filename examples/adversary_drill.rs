//! Adversary drill: mounts the §III attacks against a live cluster and
//! shows each one being detected or suppressed.
//!
//! 1. wire sniffing (confidentiality),
//! 2. in-flight message tampering (integrity),
//! 3. message replay (at-most-once execution),
//! 4. storage rollback — replaying an old WAL (freshness).
//!
//! ```sh
//! cargo run --release --example adversary_drill
//! ```

use treaty::core::{Cluster, ClusterOptions, TreatyError};
use treaty::obs::{Counter, Obs};
use treaty::sched::block_on;
use treaty::sim::runtime::sleep;
use treaty::sim::SecurityProfile;
use treaty::store::StoreError;

fn main() {
    let dir = tempfile::tempdir().expect("tempdir");
    let path = dir.path().to_path_buf();
    block_on(move || {
        // The hub counts what the RPC layer rejects.
        let obs = Obs::new(1);
        treaty::sim::obs::install(&obs);
        let mut cluster = Cluster::start(ClusterOptions::new(
            SecurityProfile::treaty_full(),
            path.clone(),
        ))
        .expect("cluster boots");

        // ---------------------------------------------------------- attack 1
        println!("== attack 1: sniffing the wire ==");
        cluster.fabric().start_capture();
        let client = cluster.client();
        let secret = b"PIN-4242-SSN-123456789";
        let mut tx = client.begin(1);
        tx.put(b"customer-record", secret).expect("put");
        tx.commit().expect("commit");
        let sniffed = cluster.fabric().captured_bytes();
        let leaked = sniffed.windows(secret.len()).any(|w| w == secret);
        println!(
            "   sniffer captured {} bytes of ciphertext, plaintext leaked: {leaked}",
            sniffed.len()
        );
        assert!(!leaked);

        // ---------------------------------------------------------- attack 2
        println!("== attack 2: tampering with messages in flight ==");
        cluster.fabric().with_adversary(|a| a.tamper_next = 2);
        let mut tx = client.begin(1);
        // A put only buffers; the flush is what puts it on the wire.
        let result = tx.put(b"victim", b"value").and_then(|()| tx.flush());
        println!("   tampered request outcome: {result:?} (rejected, never executed)");
        let rejected = obs.metrics().counter(Counter::NetRpcRejected);
        println!("   endpoints rejected {rejected} forged message(s)");
        assert!(rejected > 0);
        let _ = tx.rollback();

        // ---------------------------------------------------------- attack 3
        println!("== attack 3: replaying captured commits ==");
        let before = cluster.totals().0;
        for dg in cluster
            .fabric()
            .captured()
            .into_iter()
            .filter(|d| !d.is_response && d.dst <= 3)
        {
            cluster.fabric().inject(dg);
        }
        sleep(20 * treaty::sim::MILLIS);
        let after = cluster.totals().0;
        println!("   commits before replay: {before}, after replaying everything: {after}");
        assert_eq!(before, after, "replay must not re-execute");

        // ---------------------------------------------------------- attack 4
        println!("== attack 4: rolling the storage back to a stale snapshot ==");
        // Snapshot node 1's newest WAL, let the system commit more, then
        // put the stale WAL back and crash/restart the node.
        let node_dir = path.join("node-0");
        let wal = newest_wal(&node_dir);
        let stale = std::fs::read(&wal).expect("read wal");
        let mut tx = client.begin(1);
        tx.put(b"post-snapshot", b"must-not-be-forgotten")
            .expect("put");
        tx.commit().expect("commit");
        cluster.crash_node(0);
        let wal = newest_wal(&node_dir);
        std::fs::write(&wal, &stale).expect("roll back the WAL");
        match cluster.restart_node(0) {
            Err(TreatyError::Store(StoreError::Rollback(breach))) => {
                println!("   recovery refused to start: {breach}")
            }
            other => panic!("rollback attack went undetected: {other:?}"),
        }
        println!("== all four attacks detected or suppressed ==");
    });
}

fn newest_wal(dir: &std::path::Path) -> std::path::PathBuf {
    let mut wals: Vec<_> = std::fs::read_dir(dir)
        .expect("node dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.path())
        .collect();
    wals.sort();
    wals.pop().expect("a WAL exists")
}
