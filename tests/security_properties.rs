//! Cross-crate security-property tests through the public facade:
//! confidentiality, integrity and freshness at every layer the §III
//! adversary can reach — host memory, disk, and wire.

use std::rc::Rc;

use treaty::core::{Cluster, ClusterOptions, TreatyError};
use treaty::sched::block_on;
use treaty::sim::SecurityProfile;
use treaty::store::{Breach, Check, EngineTxn as _, Env, StoreError, Stored, TreatyStore, TxnMode};

const SECRET: &[u8] = b"TOP-SECRET-PAYLOAD-0xDEADBEEF";

fn options(profile: SecurityProfile, dir: &std::path::Path) -> ClusterOptions {
    let mut o = ClusterOptions::new(profile, dir.to_path_buf());
    o.engine_config = treaty::store::EngineConfig::tiny();
    o
}

/// The codec writes a byte string as its raw bytes, so a leak is the
/// secret itself.
fn contains_secret(haystack: &[u8]) -> bool {
    haystack.windows(SECRET.len()).any(|w| w == SECRET)
}

fn all_disk_bytes(dir: &std::path::Path) -> Vec<u8> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).unwrap().filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.extend(std::fs::read(&p).unwrap_or_default());
            }
        }
    }
    out
}

#[test]
fn confidentiality_everywhere_under_full_profile() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        cluster.fabric().start_capture();
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(b"secret-key", SECRET).unwrap();
        tx.commit().unwrap();
        // Force the value through the full storage hierarchy.
        for i in 0..3 {
            if let Some(store) = cluster.store(i) {
                store.flush().unwrap();
            }
        }

        // 1. The wire.
        assert!(
            !contains_secret(&cluster.fabric().captured_bytes()),
            "wire leak"
        );
        // 2. The disk (WAL, MANIFEST, Clog, SSTables, sealed counter state).
        assert!(!contains_secret(&all_disk_bytes(&path)), "disk leak");
        // 3. Untrusted host memory of every node.
        // (Values live in per-node vaults; check via the engine env.)
        // The cluster does not expose vaults directly; disk + wire are the
        // adversary-reachable persistent surfaces, host memory is covered
        // by the dedicated engine test below.
    });
}

#[test]
fn host_memory_confidentiality_single_node() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    tx.put(b"k", SECRET).unwrap();
    tx.commit().unwrap();
    assert!(
        !contains_secret(&env.vault.dump()),
        "plaintext value in untrusted host memory"
    );
}

/// Generic substring scan (for user keys and raw key material).
fn contains_bytes(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn adversarial_host_memory_scan_across_shards() {
    // The §III adversary owns host memory. Drive a realistic multi-shard
    // transaction mix through the whole cluster, force flushes so values
    // travel memtable -> vault -> SSTable, then dump every node's
    // HostVault and scan for anything that should never be there:
    // plaintext values, plaintext user keys, or raw key-hierarchy
    // material. With `HostVault::store` accepting only `HostBytes`, the
    // type system should make this test unfailable — it is the runtime
    // witness for the compile-time claim.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        for round in 0..30u32 {
            // Rotate the coordinator; keys span the shard map so every
            // transaction is distributed.
            let coordinator = (round % 3) + 1;
            let mut tx = client.begin(coordinator);
            for k in 0..4u32 {
                let key = format!("acct-{:04}-{k}", round * 7 + k);
                let mut value = SECRET.to_vec();
                value.extend_from_slice(format!("-r{round}-k{k}").as_bytes());
                tx.put(key.as_bytes(), &value).unwrap();
            }
            tx.commit().unwrap();
        }
        // Push everything through flush so SSTable build paths run too.
        for i in 0..3 {
            if let Some(store) = cluster.store(i) {
                store.flush().unwrap();
            }
        }

        let keys = cluster.keys();
        let key_material: [(&str, &[u8]); 4] = [
            ("network", keys.network.as_slice()),
            ("storage", keys.storage.as_slice()),
            ("sealing", keys.sealing.as_slice()),
            ("counter", keys.counter.as_slice()),
        ];
        for i in 0..3 {
            let env = cluster.env(i).expect("durable cluster exposes env");
            let dump = env.vault.dump();
            assert!(
                !contains_secret(&dump),
                "node {i}: plaintext value in untrusted host memory"
            );
            assert!(
                !contains_bytes(&dump, b"acct-"),
                "node {i}: plaintext user key in untrusted host memory"
            );
            for (name, material) in key_material {
                assert!(
                    !contains_bytes(&dump, material),
                    "node {i}: {name} key material in untrusted host memory"
                );
            }
        }
    });
}

#[test]
fn baseline_profile_leaks_everywhere() {
    // The negative control: DS-RocksDB stores and ships plaintext.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::rocksdb(), &path)).unwrap();
        cluster.fabric().start_capture();
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(b"secret-key", SECRET).unwrap();
        tx.commit().unwrap();
        assert!(contains_secret(&cluster.fabric().captured_bytes()));
        assert!(contains_secret(&all_disk_bytes(&path)));
    });
}

#[test]
fn integrity_detected_for_every_persistent_file_kind() {
    // Tamper each kind of persistent artifact and verify detection.
    for filename_prefix in ["wal-", "MANIFEST", "CLOG", "sst-"] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        let prefix = filename_prefix.to_string();
        block_on(move || {
            let mut cluster =
                Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
            let client = cluster.client();
            for round in 0..20u32 {
                let mut tx = client.begin(1);
                tx.put(format!("key-{round}").as_bytes(), &vec![0x61; 300])
                    .unwrap();
                tx.put(format!("other-{round}").as_bytes(), &vec![0x62; 300])
                    .unwrap();
                if tx.commit().is_err() {
                    // contention-free here; commit must succeed
                    panic!("setup commit failed");
                }
            }
            if prefix == "sst-" {
                for i in 0..3 {
                    if let Some(s) = cluster.store(i) {
                        s.flush().unwrap();
                    }
                }
            }
            cluster.crash_node(0);
            // Tamper one matching file on node 0.
            let node_dir = path.join("node-0");
            let target = std::fs::read_dir(&node_dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .find(|p| {
                    p.file_name()
                        .map(|n| n.to_string_lossy().starts_with(&prefix))
                        .unwrap_or(false)
                });
            let target = match target {
                Some(t) => t,
                None => return, // nothing of this kind on node 0 this run
            };
            let mut raw = std::fs::read(&target).unwrap();
            if raw.is_empty() {
                return;
            }
            let mid = raw.len() / 2;
            raw[mid] ^= 0x20;
            std::fs::write(&target, &raw).unwrap();

            match cluster.restart_node(0) {
                Err(_) => {} // detected at recovery — good
                Ok(()) => {
                    // SSTable blocks verify lazily: reads must detect.
                    let client = cluster.client();
                    let mut saw_error = false;
                    for round in 0..20u32 {
                        let mut tx = client.begin(1);
                        let a = tx.get(format!("key-{round}").as_bytes());
                        let b = tx.get(format!("other-{round}").as_bytes());
                        let _ = tx.rollback();
                        if a.is_err() || b.is_err() {
                            saw_error = true;
                            break;
                        }
                    }
                    assert!(saw_error, "tampering of {prefix} went undetected");
                }
            }
        });
    }
}

#[test]
fn freshness_forked_node_refused() {
    // Fork attack: clone a node's storage, let the original advance, then
    // boot from the stale clone.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        let mut tx = client.begin(1);
        tx.put(b"v", b"1").unwrap();
        tx.commit().unwrap();

        // Snapshot node 0's directory (the fork).
        let node_dir = path.join("node-0");
        let fork_dir = path.join("node-0-fork");
        copy_dir(&node_dir, &fork_dir);

        // The original keeps committing.
        let mut tx = client.begin(1);
        tx.put(b"v", b"2").unwrap();
        tx.commit().unwrap();

        // Crash, replace storage with the fork, restart.
        cluster.crash_node(0);
        std::fs::remove_dir_all(&node_dir).unwrap();
        std::fs::rename(&fork_dir, &node_dir).unwrap();
        let result = cluster.restart_node(0);
        assert!(
            result.is_err(),
            "forked (stale) state must be refused: {result:?}"
        );
    });
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap().filter_map(|e| e.ok()) {
        let p = e.path();
        if p.is_file() {
            std::fs::copy(&p, to.join(p.file_name().unwrap())).unwrap();
        }
    }
}

#[test]
fn at_most_once_under_duplication_storm() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        cluster.fabric().with_adversary(|a| a.dup_prob = 0.5);
        let client = cluster.client();
        // Increment a counter transactionally 10 times under heavy
        // duplication; the result must be exactly 10.
        for _ in 0..10 {
            loop {
                let mut tx = client.begin(1);
                let result = (|| -> Result<(), treaty::core::TreatyError> {
                    let cur: u64 = tx
                        .get(b"counter")?
                        .map(|b| String::from_utf8_lossy(&b).parse().unwrap())
                        .unwrap_or(0);
                    tx.put(b"counter", (cur + 1).to_string().as_bytes())?;
                    Ok(())
                })();
                if result.is_ok() && tx.commit().is_ok() {
                    break;
                }
            }
        }
        let mut tx = client.begin(2);
        let v = tx.get(b"counter").unwrap().unwrap();
        tx.commit().unwrap();
        assert_eq!(v, b"10", "duplication must not double-apply increments");
    });
}

/// No honest endpoint seals two messages under one IV, or sends one request
/// number twice: across a lossy phase (timeouts, decision retries, abort
/// advisories, client retries), a node crash and restart, and a recovery
/// pass. Every retry is a new request with a new number, so a duplicate
/// never needs an answer. An IV counter that begins again at zero when a
/// node restarts fails this: the new life re-seals the old life's IVs
/// under the same network key.
#[test]
fn no_iv_or_request_number_repeats_across_a_restart() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        cluster.fabric().start_capture();
        let commit_all = |cluster: &Cluster, from: usize| {
            let client = cluster.client();
            for round in from..from + 5 {
                let committed = (0..50).any(|_| {
                    let mut tx = client.begin(1 + (round % 3) as u32);
                    (0..3).all(|k| tx.put(format!("k{round}-{k}").as_bytes(), b"v").is_ok())
                        && tx.commit().is_ok()
                });
                assert!(committed, "round {round} never committed");
            }
        };
        commit_all(&cluster, 0);
        cluster.crash_node(1);
        cluster.restart_node(1).unwrap();
        cluster.resolve_recovered();
        commit_all(&cluster, 5);
        cluster.fabric().with_adversary(|a| a.drop_prob = 0.1);
        commit_all(&cluster, 10);
        cluster.fabric().with_adversary(|a| a.drop_prob = 0.0);
        commit_all(&cluster, 15);
        let retries: u64 = (0..3)
            .map(|i| cluster.node(i).stats().decision_retries)
            .sum();
        assert!(retries > 0, "the lossy phase retried no decision");

        let mut ivs = std::collections::HashSet::new();
        let mut numbers = std::collections::HashSet::new();
        for dg in cluster.fabric().captured() {
            let iv = dg.wire.as_slice()[..12].to_vec();
            assert!(ivs.insert(iv), "endpoint {} sealed under a used IV", dg.src);
            if !dg.is_response {
                assert!(
                    numbers.insert((dg.src, dg.rpc_id)),
                    "endpoint {} sent request number {} twice",
                    dg.src,
                    dg.rpc_id
                );
            }
        }
    });
}

/// A WAL put back to an older copy of itself, after the node stabilized
/// more records in it, is refused when the node restarts: the cluster
/// hands back the store's typed `Rollback`, whose breach names that WAL.
#[test]
fn a_restored_older_wal_is_refused_naming_that_wal() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = Cluster::start(options(SecurityProfile::treaty_full(), &path)).unwrap();
        let client = cluster.client();
        // Ten keys a round, so every shard holds a write of each.
        let commit_round = |round: u32| {
            let mut tx = client.begin(1);
            for k in 0..10u32 {
                tx.put(format!("r{round}-k{k}").as_bytes(), b"v").unwrap();
            }
            tx.commit().unwrap();
        };
        commit_round(0);
        let wal = std::fs::read_dir(path.join("node-0"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
            .max()
            .unwrap();
        let older = std::fs::read(&wal).unwrap();
        commit_round(1);
        assert!(
            std::fs::read(&wal).unwrap().len() > older.len(),
            "round 1 wrote no record to {wal:?}"
        );

        cluster.crash_node(0);
        std::fs::write(&wal, &older).unwrap();
        let log = wal.file_name().unwrap().to_string_lossy().into_owned();
        let want = Breach {
            object: Stored::Log { log },
            check: Check::BehindStable,
        };
        match cluster.restart_node(0) {
            Err(TreatyError::Store(StoreError::Rollback(breach))) => assert_eq!(breach, want),
            other => panic!("a restored older WAL must be refused as a rollback of it: {other:?}"),
        }
    });
}
