//! End-to-end tests of the storage engine: transactions, flush/compaction,
//! group commit, crash recovery and the §III attacks.

use std::cell::RefCell;
use std::rc::Rc;

use treaty_sched::block_on;
use treaty_sim::runtime::{join, now, spawn};
use treaty_sim::SecurityProfile;
use treaty_store::txn::WriteOp;
use treaty_store::{
    Check, EngineTxn, Env, GlobalTxId, StoreError, Stored, TreatyStore, TxnEngine, TxnMode,
};

fn open(profile: SecurityProfile, dir: &std::path::Path) -> (Rc<Env>, TreatyStore) {
    let env = Env::for_testing(profile, dir);
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    (env, store)
}

fn put(store: &TreatyStore, key: &[u8], value: &[u8]) {
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    tx.put(key, value).unwrap();
    tx.commit().unwrap();
}

#[test]
fn commit_and_read_back() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"alpha", b"1");
    put(&store, b"beta", b"2");
    assert_eq!(store.get_committed(b"alpha").unwrap(), Some(b"1".to_vec()));
    assert_eq!(store.get_committed(b"beta").unwrap(), Some(b"2".to_vec()));
    assert_eq!(store.get_committed(b"gamma").unwrap(), None);
    assert_eq!(store.stats().commits, 2);
}

#[test]
fn read_own_writes_and_delete() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"k", b"old");
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    assert_eq!(tx.get(b"k").unwrap(), Some(b"old".to_vec()));
    tx.put(b"k", b"new").unwrap();
    assert_eq!(tx.get(b"k").unwrap(), Some(b"new".to_vec()));
    tx.delete(b"k").unwrap();
    assert_eq!(tx.get(b"k").unwrap(), None);
    tx.commit().unwrap();
    assert_eq!(store.get_committed(b"k").unwrap(), None);
}

#[test]
fn rollback_discards_writes_and_releases_locks() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    {
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.put(b"k", b"v").unwrap();
        tx.rollback().unwrap();
    }
    assert_eq!(store.get_committed(b"k").unwrap(), None);
    // Lock released: a new writer proceeds immediately.
    put(&store, b"k", b"v2");
    assert_eq!(store.get_committed(b"k").unwrap(), Some(b"v2".to_vec()));
}

#[test]
fn dropped_txn_auto_rolls_back() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    {
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.put(b"k", b"v").unwrap();
        // dropped without commit
    }
    assert_eq!(store.get_committed(b"k").unwrap(), None);
    assert_eq!(store.stats().aborts, 1);
}

#[test]
fn use_after_finish_is_an_error() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    tx.put(b"k", b"v").unwrap();
    tx.commit().unwrap();
    assert_eq!(tx.put(b"k", b"w").unwrap_err(), StoreError::Finished);
    assert_eq!(tx.get(b"k").unwrap_err(), StoreError::Finished);
}

#[test]
fn data_survives_flush_and_compaction() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    // Enough data to force multiple flushes and compactions (tiny config:
    // 16 KiB memtable, L0 trigger 2).
    for i in 0..200u32 {
        put(
            &store,
            format!("key-{i:04}").as_bytes(),
            format!("value-{i}-{}", "z".repeat(400)).as_bytes(),
        );
    }
    let stats = store.stats();
    assert!(stats.flushes >= 2, "expected flushes, got {stats:?}");
    assert!(
        stats.compactions >= 1,
        "expected compactions, got {stats:?}"
    );
    for i in (0..200u32).step_by(17) {
        let v = store
            .get_committed(format!("key-{i:04}").as_bytes())
            .unwrap();
        assert_eq!(
            v,
            Some(format!("value-{i}-{}", "z".repeat(400)).into_bytes()),
            "key {i} lost"
        );
    }
    // GC ran: retired files actually deleted (instant stabilization here).
    assert!(stats.files_deleted > 0 || store.stats().files_deleted > 0);
}

#[test]
fn overwrites_resolve_to_newest_across_levels() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    for round in 0..5u32 {
        for i in 0..40u32 {
            put(
                &store,
                format!("key-{i:02}").as_bytes(),
                format!("round-{round}-{}", "y".repeat(300)).as_bytes(),
            );
        }
    }
    for i in 0..40u32 {
        let v = store
            .get_committed(format!("key-{i:02}").as_bytes())
            .unwrap()
            .unwrap();
        assert!(v.starts_with(b"round-4-"), "stale version for key {i}");
    }
}

#[test]
fn recovery_restores_committed_data() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        for i in 0..120u32 {
            put(
                &store,
                format!("k{i:03}").as_bytes(),
                format!("v{i}-{}", "w".repeat(200)).as_bytes(),
            );
        }
        // crash: drop without any shutdown
    }
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    for i in 0..120u32 {
        assert_eq!(
            store.get_committed(format!("k{i:03}").as_bytes()).unwrap(),
            Some(format!("v{i}-{}", "w".repeat(200)).into_bytes()),
            "key {i} lost across crash"
        );
    }
    // And the store stays writable after recovery.
    put(&store, b"post-recovery", b"yes");
    assert_eq!(
        store.get_committed(b"post-recovery").unwrap(),
        Some(b"yes".to_vec())
    );
}

#[test]
fn recovery_all_profiles() {
    for profile in SecurityProfile::single_node_lineup() {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(profile, dir.path());
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            put(&store, b"k", b"v");
        }
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        assert_eq!(
            store.get_committed(b"k").unwrap(),
            Some(b"v".to_vec()),
            "{profile:?}"
        );
    }
}

#[test]
fn prepared_txn_survives_crash_and_commits() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let gtx = GlobalTxId { node: 1, seq: 42 };
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            tx.put(b"acct", b"prepared-value").unwrap();
            tx.prepare(gtx).unwrap();
            // crash before the decision
        }
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        assert_eq!(store.prepared_txns(), vec![gtx]);
        // Undecided: not visible yet, and the key is still locked.
        assert_eq!(store.get_committed(b"acct").unwrap(), None);
        {
            let mut other = store.begin_mode(TxnMode::Pessimistic);
            assert!(
                other.put(b"acct", b"intruder").is_err(),
                "prepared txn must still hold its write lock after recovery"
            );
        }
        // Coordinator decides commit.
        store.commit_prepared(gtx).unwrap();
        assert_eq!(
            store.get_committed(b"acct").unwrap(),
            Some(b"prepared-value".to_vec())
        );
        // Idempotent.
        store.commit_prepared(gtx).unwrap();
    });
}

#[test]
fn prepared_txn_abort_releases_locks() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    let gtx = GlobalTxId { node: 2, seq: 7 };
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    tx.put(b"k", b"v").unwrap();
    tx.prepare(gtx).unwrap();
    store.abort_prepared(gtx).unwrap();
    assert_eq!(store.get_committed(b"k").unwrap(), None);
    put(&store, b"k", b"after-abort"); // lock is free again
}

/// At its commit point a prepared transaction drops the keys it holds only
/// in S mode, a read and a scan's rows and gap bound, and keeps its
/// writes' X locks, an upgraded read among them, to the decision. A release
/// before the entry exists, or after its decision, changes nothing.
#[test]
fn the_commit_point_releases_read_locks_and_keeps_write_locks() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    for k in [b"a", b"b", b"c"] {
        put(&store, k, b"1");
    }
    block_on(move || {
        let gtx = GlobalTxId { node: 1, seq: 9 };
        store.release_prepared_reads(gtx);
        // The writes come first: a write into a live scan's span would
        // also X-lock its successor.
        let mut t = store.begin_txn(TxnMode::Pessimistic);
        t.get(b"u").unwrap();
        t.put(b"u", b"x").unwrap();
        t.put(b"w", b"x").unwrap();
        t.get(b"a").unwrap();
        t.scan(b"b", b"c", 0).unwrap();
        t.prepare(gtx).unwrap();
        // u, w, a, b and the scan's gap bound c.
        assert_eq!(store.locked_keys(), 5);
        store.release_prepared_reads(gtx);
        assert_eq!(store.locked_keys(), 2);
        let started = now();
        let mut w = store.begin_txn(TxnMode::Pessimistic);
        w.put(b"a", b"w").unwrap();
        w.put(b"b", b"w").unwrap();
        assert!(
            now() - started < treaty_sim::MILLIS,
            "a released key waited"
        );
        for written in [&b"u"[..], b"w"] {
            let mut late = store.begin_txn(TxnMode::Pessimistic);
            assert_eq!(late.put(written, b"w"), Err(StoreError::LockTimeout));
        }
        w.rollback().unwrap();
        store.commit_prepared(gtx).unwrap();
        store.release_prepared_reads(gtx);
        assert_eq!(store.locked_keys(), 0);
    });
}

#[test]
fn prepared_decision_survives_second_crash() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    let gtx = GlobalTxId { node: 3, seq: 1 };
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.put(b"x", b"decided").unwrap();
        tx.prepare(gtx).unwrap();
        store.commit_prepared(gtx).unwrap();
        // crash after decision
    }
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    assert!(store.prepared_txns().is_empty());
    assert_eq!(
        store.get_committed(b"x").unwrap(),
        Some(b"decided".to_vec())
    );
}

#[test]
fn optimistic_conflict_aborts_second_writer() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"k", b"v0");

    let mut t1 = store.begin_mode(TxnMode::Optimistic);
    let mut t2 = store.begin_mode(TxnMode::Optimistic);
    assert_eq!(t1.get(b"k").unwrap(), Some(b"v0".to_vec()));
    assert_eq!(t2.get(b"k").unwrap(), Some(b"v0".to_vec()));
    t1.put(b"k", b"v1").unwrap();
    t2.put(b"k", b"v2").unwrap();
    t1.commit().unwrap();
    assert_eq!(t2.commit().unwrap_err(), StoreError::Conflict);
    assert_eq!(store.get_committed(b"k").unwrap(), Some(b"v1".to_vec()));
}

#[test]
fn optimistic_blind_writes_do_not_conflict_with_disjoint_keys() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    let mut t1 = store.begin_mode(TxnMode::Optimistic);
    let mut t2 = store.begin_mode(TxnMode::Optimistic);
    t1.put(b"a", b"1").unwrap();
    t2.put(b"b", b"2").unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();
    assert_eq!(store.get_committed(b"a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(store.get_committed(b"b").unwrap(), Some(b"2".to_vec()));
}

/// T1 reads x and writes y, T2 reads y and writes x: one of them must
/// abort. Validation S-locks each read key (Silo's rule), so a committer
/// holding X on a key between its validation and its apply refuses the
/// other's check on it.
#[test]
fn optimistic_write_skew_is_refused() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(env).unwrap();
        put(&store, b"x", b"0");
        put(&store, b"y", b"0");
        let mut t1 = store.begin_mode(TxnMode::Optimistic);
        let mut t2 = store.begin_mode(TxnMode::Optimistic);
        t1.get(b"x").unwrap();
        t1.put(b"y", b"1").unwrap();
        t2.get(b"y").unwrap();
        t2.put(b"x", b"2").unwrap();
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        let fibers: Vec<_> = [t1, t2]
            .into_iter()
            .map(|mut t| {
                let outcomes = Rc::clone(&outcomes);
                spawn(move || {
                    let committed = t.commit().is_ok();
                    outcomes.borrow_mut().push(committed);
                })
            })
            .collect();
        for f in fibers {
            join(f);
        }
        assert!(
            outcomes.borrow().contains(&false),
            "both committed: x={:?} y={:?}",
            store.get_committed(b"x").unwrap(),
            store.get_committed(b"y").unwrap()
        );
    });
}

/// An OCC read takes its value and the version it validates against from
/// one descent: one block fetch for a key that lives in an SSTable.
#[test]
fn an_optimistic_read_looks_a_key_up_once() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"k", b"v");
    store.flush().unwrap();
    let blocks = |s: &TreatyStore| {
        let stats = s.stats();
        stats.block_cache_hits + stats.block_cache_misses
    };
    let before = blocks(&store);
    let mut tx = store.begin_mode(TxnMode::Optimistic);
    assert_eq!(tx.get(b"k").unwrap(), Some(b"v".to_vec()));
    assert_eq!(blocks(&store) - before, 1);
    tx.commit().unwrap();
}

#[test]
fn pessimistic_writers_conflict_via_lock_timeout() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(env).unwrap();
        let mut t1 = store.begin_mode(TxnMode::Pessimistic);
        t1.put(b"k", b"v1").unwrap();
        let store2 = store.clone();
        let contender = spawn(move || {
            let mut t2 = store2.begin_mode(TxnMode::Pessimistic);
            let err = t2.put(b"k", b"v2").unwrap_err();
            assert_eq!(err, StoreError::LockTimeout);
        });
        join(contender);
        t1.commit().unwrap();
        assert_eq!(store.get_committed(b"k").unwrap(), Some(b"v1".to_vec()));
    });
}

/// Counter rounds that take 2 ms of virtual time, like the ROTE group's.
struct SlowRounds(Rc<treaty_counter::NullBackend>);

impl treaty_counter::CounterBackend for SlowRounds {
    fn stabilize(
        &self,
        id: &str,
        value: u64,
    ) -> Result<treaty_sim::Nanos, treaty_counter::CounterError> {
        treaty_sim::runtime::sleep(2 * treaty_sim::MILLIS);
        self.0.stabilize(id, value)
    }

    fn latest(&self, id: &str) -> u64 {
        self.0.latest(id)
    }
}

/// `Env::for_testing` over `dir`, stabilizing through `backend`.
fn env_with_backend(
    dir: &std::path::Path,
    backend: Rc<dyn treaty_counter::CounterBackend>,
) -> Rc<Env> {
    let mut env = Rc::try_unwrap(Env::for_testing(SecurityProfile::treaty_full(), dir)).unwrap();
    env.backend = backend;
    Rc::new(env)
}

/// Copies the files of `from` into `to` (created if missing, existing
/// files overwritten): a crash image of a node directory.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for file in std::fs::read_dir(from).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), to.join(file.file_name())).unwrap();
    }
}

/// A commit big enough to rotate `EngineConfig::tiny()`'s 16 KiB MemTable.
fn rotating_filler(store: &TreatyStore) {
    put(store, b"filler", &vec![7u8; 24 << 10]);
}

/// A `Prepare` whose counter round is still running when the MemTable
/// rotates is re-logged like any other: the flush build may then retire
/// the generation it was first written to.
#[test]
fn prepare_in_flight_across_a_rotation_survives_a_crash() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = env_with_backend(&path, Rc::new(SlowRounds(Default::default())));
        let gtx = GlobalTxId { node: 1, seq: 7 };
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            let store2 = store.clone();
            let preparer = spawn(move || {
                let mut tx = store2.begin_mode(TxnMode::Pessimistic);
                tx.put(b"acct", b"voted-for").unwrap();
                tx.prepare(gtx).unwrap();
            });
            // The record is on disk, its round half way: not vouched for yet.
            treaty_sim::runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(store.prepared_txns(), vec![]);
            rotating_filler(&store);
            store.drain_maintenance().unwrap();
            assert_eq!(store.stats().flushes, 1);
            join(preparer);
            assert_eq!(store.prepared_txns(), vec![gtx]);
            store.commit_prepared(gtx).unwrap();
            // crash
        }
        let store = TreatyStore::open(env).unwrap();
        assert_eq!(
            store.get_committed(b"acct").unwrap(),
            Some(b"voted-for".to_vec())
        );
    });
}

/// Between a rotation and the flush build's `WalObsolete` the re-logged
/// `Prepare` is live in two generations; recovery takes it once.
#[test]
fn crash_between_rotation_and_flush_build_recovers_a_prepared_txn() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let node = path.join("a/node");
        let copy = path.join("b/node");
        let env = Env::for_testing(SecurityProfile::treaty_full(), &node);
        let gtx = GlobalTxId { node: 1, seq: 8 };
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.put(b"acct", b"voted-for").unwrap();
        tx.prepare(gtx).unwrap();
        rotating_filler(&store);
        // The crash image: rotated, the build's MANIFEST edits not written.
        assert_eq!(store.flush_backlog_len(), 1);
        assert_eq!(store.stats().flushes, 0);
        copy_dir(&node, &copy);
        assert!(copy.join("wal-000001").exists() && copy.join("wal-000002").exists());

        let env = env_with_backend(&copy, Rc::clone(&env.backend));
        let store = TreatyStore::open(env).unwrap();
        assert_eq!(store.prepared_txns(), vec![gtx]);
        store.commit_prepared(gtx).unwrap();
        assert_eq!(
            store.get_committed(b"acct").unwrap(),
            Some(b"voted-for".to_vec())
        );
        assert_eq!(store.locked_keys(), 0);
    });
}

/// A transaction in doubt across a restart is decided in the generation
/// recovery opened, so recovery re-logs its `Prepare` there: the next flush
/// retires the recovered generations one MANIFEST edit at a time, and a
/// crash between two of them must not leave the `Decide` live alone.
#[test]
fn decide_after_restart_survives_a_crash_between_wal_obsolete_edits() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let node = path.join("a/node");
        let copy = path.join("b/node");
        // Slow rounds keep the GC stabilizer parked while the image is
        // taken: the MANIFEST tail is not rollback-protected yet and the
        // retired generations are still on disk.
        let env = env_with_backend(&node, Rc::new(SlowRounds(Default::default())));
        let gtx = GlobalTxId { node: 1, seq: 9 };
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            tx.put(b"acct", b"voted-for").unwrap();
            tx.prepare(gtx).unwrap();
            // crash in doubt: the `Prepare` is in generation 1
        }
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        store.commit_prepared(gtx).unwrap(); // the `Decide` is in generation 2
        store.flush().unwrap(); // retires 1, then 2
        assert_eq!(store.stats().flushes, 1);
        copy_dir(&node, &copy);
        assert!(copy.join("wal-000002").exists());
        // The crash image: `WalObsolete { gen: 2 }`, the last MANIFEST
        // edit, torn mid-write — generation 2 is live, generation 1 is not.
        let manifest = std::fs::read(copy.join("MANIFEST")).unwrap();
        std::fs::write(copy.join("MANIFEST"), &manifest[..manifest.len() - 1]).unwrap();

        let env = env_with_backend(&copy, Rc::clone(&env.backend));
        let store = TreatyStore::open(env).unwrap();
        assert_eq!(store.prepared_txns(), vec![]);
        assert_eq!(
            store.get_committed(b"acct").unwrap(),
            Some(b"voted-for".to_vec())
        );
        assert_eq!(store.locked_keys(), 0);
    });
}

/// An abort that arrives while the `Prepare`'s counter round is parked
/// decides the entry the leader entered; the preparer must then fail —
/// not vote yes for a transaction whose locks are already released.
#[test]
fn abort_racing_the_prepare_round_fails_the_prepare() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = env_with_backend(&path, Rc::new(SlowRounds(Default::default())));
        let gtx = GlobalTxId { node: 1, seq: 10 };
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            let store2 = store.clone();
            let preparer = spawn(move || {
                let mut tx = store2.begin_mode(TxnMode::Pessimistic);
                tx.put(b"acct", b"never-voted").unwrap();
                assert_eq!(tx.prepare(gtx).unwrap_err(), StoreError::UnknownPrepared);
            });
            treaty_sim::runtime::sleep(treaty_sim::MILLIS);
            store.abort_prepared(gtx).unwrap();
            put(&store, b"acct", b"next-writer"); // the write lock is free
            join(preparer);
            assert_eq!(store.prepared_txns(), vec![]);
            assert_eq!(store.locked_keys(), 0);
            // crash
        }
        let store = TreatyStore::open(env).unwrap();
        assert_eq!(store.prepared_txns(), vec![]);
        assert_eq!(
            store.get_committed(b"acct").unwrap(),
            Some(b"next-writer".to_vec())
        );
    });
}

/// A read-only commit stabilizes the WAL tail; one that runs while a group
/// commit is still paying for its write must not hand the counter group
/// that record's value. The image is the last one taken before the write
/// reached the file, with what the group held then: no more than the image
/// shows.
#[test]
fn crash_image_taken_during_a_wal_write_reopens() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let node = path.join("a/node");
        let copy = path.join("b/node");
        let (env, store) = open(SecurityProfile::treaty_full(), &node);
        put(&store, b"k1", b"v1");
        let wal = newest_wal(&node);
        let wal_len = |wal: &std::path::Path| std::fs::metadata(wal).unwrap().len();
        let before = wal_len(&wal);
        let wal_name = wal.file_name().unwrap().to_string_lossy().into_owned();
        let wal_id = treaty_store::log::counter_id(&env, &wal_name);
        let writer = {
            let store = store.clone();
            spawn(move || put(&store, b"k2", &[7u8; 4096]))
        };
        let mut images = 0;
        let mut group_held = 0;
        loop {
            treaty_sim::runtime::sleep(1_000);
            let mut reader = store.begin_mode(TxnMode::Pessimistic);
            assert_eq!(reader.get(b"k1").unwrap(), Some(b"v1".to_vec()));
            reader.commit().unwrap();
            if wal_len(&wal) != before {
                break;
            }
            copy_dir(&node, &copy);
            group_held = env.backend.latest(&wal_id);
            images += 1;
        }
        join(writer);
        assert!(images > 0, "the write landed before any image was taken");

        let group = treaty_counter::NullBackend::new();
        treaty_counter::CounterBackend::stabilize(&*group, &wal_id, group_held).unwrap();
        let env = env_with_backend(&copy, group);
        let store = TreatyStore::open(env).unwrap();
        assert_eq!(store.get_committed(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert!(store.get_committed(b"k2").unwrap().is_none());
    });
}

#[test]
fn group_commit_batches_concurrent_committers() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(env).unwrap();
        let mut handles = Vec::new();
        for i in 0..32u32 {
            let store = store.clone();
            handles.push(spawn(move || {
                let mut tx = store.begin_mode(TxnMode::Pessimistic);
                tx.put(format!("k{i}").as_bytes(), b"v").unwrap();
                tx.commit().unwrap();
            }));
        }
        for h in handles {
            join(h);
        }
        let stats = store.stats();
        assert_eq!(stats.commits, 32);
        assert!(
            stats.group_commits < 32,
            "32 concurrent commits must share WAL flushes, used {}",
            stats.group_commits
        );
        assert_eq!(stats.grouped_txns, 32);

        // The 2PC records ride the same leader: 32 prepares, then their 32
        // commit decisions, each round sharing WAL flushes too.
        let gtx = |i: u32| GlobalTxId {
            node: 1,
            seq: u64::from(i),
        };
        let round = |decide: bool| {
            let before = store.stats();
            let handles: Vec<_> = (0..32u32)
                .map(|i| {
                    let store = store.clone();
                    spawn(move || {
                        if decide {
                            return store.commit_prepared(gtx(i)).unwrap();
                        }
                        let mut tx = store.begin_mode(TxnMode::Pessimistic);
                        tx.put(format!("p{i}").as_bytes(), b"v").unwrap();
                        tx.prepare(gtx(i)).unwrap();
                    })
                })
                .collect();
            handles.into_iter().for_each(join);
            let after = store.stats();
            assert_eq!(after.grouped_txns - before.grouped_txns, 32);
            assert!(
                after.group_commits - before.group_commits < 32,
                "32 concurrent 2PC records (decide: {decide}) must share WAL flushes, used {}",
                after.group_commits - before.group_commits
            );
        };
        round(false);
        assert_eq!(store.prepared_txns().len(), 32);
        round(true);
        assert_eq!(store.prepared_txns(), vec![]);
        assert_eq!(store.get_committed(b"p31").unwrap(), Some(b"v".to_vec()));
    });
}

/// Each committer inserts its own versions after its batch is durable, so
/// a rotation must wait for the inserts already handed out: one that swapped
/// the MemTable under an owner still inserting would freeze it short of
/// that owner's versions, the flush build would retire the generation
/// holding their records, and a crash would lose an acknowledged write.
#[test]
fn a_rotation_waits_for_inserts_in_flight() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let acked = Rc::new(RefCell::new(Vec::new()));
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            let committers: Vec<_> = (0..6u8)
                .map(|fiber| {
                    let store = store.clone();
                    let acked = Rc::clone(&acked);
                    spawn(move || {
                        for round in 0..12u8 {
                            let rows: Vec<_> = (0..8u8)
                                .map(|i| (vec![b'k', fiber, round, i], vec![round ^ i; 200]))
                                .collect();
                            let mut tx = store.begin_mode(TxnMode::Pessimistic);
                            for (key, value) in &rows {
                                tx.put(key, value).unwrap();
                            }
                            tx.commit().unwrap();
                            acked.borrow_mut().extend(rows);
                        }
                    })
                })
                .collect();
            committers.into_iter().for_each(join);
            store.drain_maintenance().unwrap();
            // 6 × 12 commits of 8 × 200 bytes rotate the 16 KiB MemTable
            // several times, each while other owners' inserts are pending.
            assert!(store.stats().flushes >= 4, "{:?}", store.stats());
            // The builds retired the generations the commits were logged in.
            assert!(!path.join("wal-000001").exists());
            // crash
        }
        let store = TreatyStore::open(env).unwrap();
        let acked = acked.borrow_mut();
        assert_eq!(acked.len(), 6 * 12 * 8);
        for (key, value) in acked.iter() {
            let read = store.get_committed(key).unwrap();
            assert!(
                read.as_ref() == Some(value),
                "acknowledged write {key:?} lost"
            );
        }
    });
}

/// A `native_treaty` store on a node with `cores` cores, whose WAL append
/// costs the same whatever the batch holds (no per-byte write or hash
/// cost), so an append is one fixed charge and an insert `memtable_op_ns`.
fn native_store_on_cores(dir: &std::path::Path, cores: u32) -> TreatyStore {
    let costs = treaty_sim::CostModel {
        ssd_write_ns_per_kib: 0,
        sha_setup_ns: 0,
        sha_ns_per_kib: 0,
        ..Default::default()
    };
    let env = Env::new(
        SecurityProfile::native_treaty(),
        costs,
        Some(Rc::new(treaty_sched::CorePool::new(cores))),
        treaty_crypto::KeyHierarchy::for_testing(),
        treaty_counter::NullBackend::new(),
        dir.to_path_buf(),
        treaty_store::EngineConfig::tiny(),
    );
    TreatyStore::open(env).unwrap()
}

/// A transaction with `keys` staged writes named `tag`-0, `tag`-1, ….
fn staged(store: &TreatyStore, tag: &str, keys: usize) -> treaty_store::Txn {
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    for i in 0..keys {
        tx.put(format!("{tag}-{i}").as_bytes(), b"v").unwrap();
    }
    tx
}

/// Group commit writes the batch; each owner inserts its own versions off
/// the commit lock. So two commits that share a batch finish their inserts
/// together on two cores, and a `Prepare` queued behind a batch waits for
/// its append only — not for the inserts of the `Decide` it carried.
#[test]
fn inserts_of_one_batch_overlap_in_virtual_time() {
    const K: usize = 8;
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let store = native_store_on_cores(&path, 2);
        let insert = store.env().costs.memtable_op_ns * K as u64;
        let gtx = |seq| GlobalTxId { node: 1, seq };
        // One append, alone: a `Prepare` inserts nothing.
        let mut tx = staged(&store, "solo", 1);
        let start = now();
        tx.prepare(gtx(1)).unwrap();
        let append = now() - start;

        // A `Prepare` holds the commit lock through its append while two
        // K-write commits queue; they share the next batch.
        let finished = Rc::new(RefCell::new(Vec::new()));
        let mut lead = staged(&store, "lead", 1);
        let pair: Vec<_> = ["a", "b"].map(|tag| staged(&store, tag, K)).into();
        let start = now();
        let mut fibers = vec![spawn(move || lead.prepare(gtx(2)).unwrap())];
        for mut tx in pair {
            let finished = Rc::clone(&finished);
            fibers.push(spawn(move || {
                tx.commit().unwrap();
                finished.borrow_mut().push(now());
            }));
        }
        fibers.into_iter().for_each(join);
        assert_eq!(
            *finished.borrow_mut(),
            vec![start + 2 * append + insert; 2],
            "both commits' inserts run at once, after the two appends"
        );

        // A K-write `Decide` leads; a `Prepare` queued behind it pays that
        // append and its own, and none of the Decide's inserts.
        let mut decided = staged(&store, "d", K);
        decided.prepare(gtx(3)).unwrap();
        let mut queued = staged(&store, "q", 1);
        let prepared_at = Rc::new(RefCell::new(0));
        let start = now();
        let decider = {
            let store = store.clone();
            spawn(move || store.commit_prepared(gtx(3)).unwrap())
        };
        let preparer = {
            let prepared_at = Rc::clone(&prepared_at);
            spawn(move || {
                queued.prepare(gtx(4)).unwrap();
                *prepared_at.borrow_mut() = now();
            })
        };
        join(decider);
        join(preparer);
        assert_eq!(*prepared_at.borrow_mut(), start + 2 * append);
        assert_eq!(store.get_committed(b"d-7").unwrap(), Some(b"v".to_vec()));
    });
}

/// The owner of a commit `Decide` inserts its versions after the batch is
/// durable; until they are readable the claimed entry keeps the keys in
/// doubt, so a snapshot validation refuses them, and the entry leaves only
/// once the version is readable. A reader polls through the window.
#[test]
fn a_decided_key_stays_in_doubt_until_its_version_is_readable() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let (_env, store) = open(SecurityProfile::treaty_full(), &path);
        put(&store, b"acct-7", b"before");
        let gtx = GlobalTxId { node: 1, seq: 11 };
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        for i in 0..8 {
            tx.put(format!("acct-{i}").as_bytes(), b"after").unwrap();
        }
        tx.prepare(gtx).unwrap();
        let ts = store.stable_ts();
        let wal = newest_wal(&path);
        let logged = std::fs::metadata(&wal).unwrap().len();
        let decider = {
            let store = store.clone();
            spawn(move || store.commit_prepared(gtx).unwrap())
        };
        // (decision appended, version readable, entry listed, validates)
        let mut seen = Vec::new();
        loop {
            let appended = std::fs::metadata(&wal).unwrap().len() > logged;
            let readable = store.get_committed(b"acct-7").unwrap() == Some(b"after".to_vec());
            let listed = store.prepared_txns().contains(&gtx);
            let validates = store.snapshot_validate(b"acct-7", ts).unwrap();
            seen.push((appended, readable, listed, validates));
            if readable && !listed {
                break;
            }
            treaty_sim::runtime::sleep(1_000);
        }
        join(decider);
        for &(_, readable, listed, validates) in &seen {
            assert!(
                listed || readable,
                "entry left before the version: {seen:?}"
            );
            assert!(!validates, "a snapshot validation passed: {seen:?}");
        }
        assert!(
            seen.iter()
                .any(|&(appended, readable, listed, _)| appended && !readable && listed),
            "no poll fell between the Decide's append and its insert: {seen:?}"
        );
    });
}

#[test]
fn wal_truncation_rollback_detected_at_recovery() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        put(&store, b"a", b"1");
        put(&store, b"b", b"2");
        put(&store, b"c", b"3");
    }
    // The adversary truncates the newest WAL to hide committed txs. All
    // three commits stabilized (NullBackend records them), so recovery
    // must notice the log is stale.
    let mut wals: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .collect();
    wals.sort_by_key(|e| e.file_name());
    let newest = wals.last().unwrap().path();
    let raw = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &raw[..raw.len() / 2]).unwrap();

    let err = TreatyStore::open(Rc::clone(&env)).unwrap_err();
    assert!(
        matches!(err, StoreError::Rollback(_) | StoreError::Integrity(_)),
        "rollback attack must be detected, got {err:?}"
    );
}

#[test]
fn wal_full_replacement_with_stale_log_detected() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    let stale_snapshot;
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        put(&store, b"balance", b"100");
        // Adversary snapshots the storage now...
        let wal = newest_wal(dir.path());
        stale_snapshot = std::fs::read(&wal).unwrap();
        // ... while the system continues committing.
        put(&store, b"balance", b"0");
    }
    // Roll the WAL back to the stale-but-internally-consistent snapshot.
    let wal = newest_wal(dir.path());
    std::fs::write(&wal, &stale_snapshot).unwrap();
    let err = TreatyStore::open(Rc::clone(&env)).unwrap_err();
    assert!(matches!(err, StoreError::Rollback(_)), "got {err:?}");
}

fn newest_wal(dir: &std::path::Path) -> std::path::PathBuf {
    let mut wals: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.path())
        .collect();
    wals.sort();
    wals.pop().expect("a WAL exists")
}

/// Cuts the log at `path` after its record `last`: the file as it would
/// read had only that prefix reached the disk.
fn cut_log_after(path: &std::path::Path, last: u64) {
    let raw = std::fs::read(path).unwrap();
    let mut pos = 0;
    while pos < raw.len() {
        let counter = u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap());
        if counter > last {
            break;
        }
        let len = u32::from_le_bytes(raw[pos + 8..pos + 12].try_into().unwrap()) as usize;
        pos += 12 + len + 32;
    }
    std::fs::write(path, &raw[..pos]).unwrap();
}

/// A torn MANIFEST tail is cut when the store reopens, so the `NewWal`
/// edit written then is not hidden behind it: at the next restart the
/// generation it names — and the commit in it — is still live.
#[test]
fn a_torn_manifest_tail_loses_nothing_across_two_restarts() {
    use std::io::Write as _;
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    put(&TreatyStore::open(Rc::clone(&env)).unwrap(), b"a", b"1");
    // A crash tore the MANIFEST's next frame: ten bytes of its header.
    let path = dir.path().join("MANIFEST");
    let last = treaty_store::log::replay(&env, "manifest", &path)
        .unwrap()
        .last_counter;
    let mut header = (last + 1).to_le_bytes().to_vec();
    header.extend_from_slice(&100u32.to_le_bytes());
    std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap()
        .write_all(&header[..10])
        .unwrap();
    put(&TreatyStore::open(Rc::clone(&env)).unwrap(), b"b", b"2");
    let store = TreatyStore::open(env).unwrap();
    assert_eq!(store.get_committed(b"a").unwrap(), Some(b"1".to_vec()));
    assert_eq!(
        store.get_committed(b"b").unwrap(),
        Some(b"2".to_vec()),
        "the NewWal edit of b's generation was written behind the torn frame"
    );
}

/// The first `NewWal` edit is stable before its generation takes a
/// commit, so deleting the MANIFEST afterwards is a rollback, not a fresh
/// store.
#[test]
fn a_wiped_manifest_is_refused_after_an_acknowledged_write() {
    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"balance", b"100");
    drop(store);
    std::fs::remove_file(dir.path().join("MANIFEST")).unwrap();
    let err = TreatyStore::open(env).unwrap_err();
    assert!(matches!(err, StoreError::Rollback(_)), "got {err:?}");
}

/// Every `NewWal` edit — the open's and a rotation's — is stable before
/// its generation takes a commit: a MANIFEST cut back to the prefix the
/// trusted counter vouches for still lists every WAL holding an
/// acknowledged write.
#[test]
fn a_manifest_cut_to_its_stable_prefix_keeps_every_acknowledged_write() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let node = path.join("a/node");
        let copy = path.join("b/node");
        let env = Env::for_testing(SecurityProfile::treaty_full(), &node);
        assert_eq!(env.config.memtable_bytes, 16 << 10, "EngineConfig::tiny()");
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        put(&store, b"k1", b"1");
        rotating_filler(&store);
        put(&store, b"k2", b"2");
        copy_dir(&node, &copy);
        let stable = env
            .backend
            .latest(&treaty_store::log::counter_id(&env, "manifest"));
        cut_log_after(&copy.join("MANIFEST"), stable);

        let store = TreatyStore::open(env_with_backend(&copy, Rc::clone(&env.backend))).unwrap();
        assert_eq!(store.get_committed(b"k1").unwrap(), Some(b"1".to_vec()));
        assert_eq!(store.get_committed(b"k2").unwrap(), Some(b"2".to_vec()));
    });
}

/// A live WAL generation deleted after acknowledged commits is refused.
/// Under `rocksdb()` nothing is stabilized, so the freshness check cannot
/// see the deletion: only the MANIFEST's list of live generations does.
#[test]
fn a_deleted_live_wal_generation_is_refused() {
    for profile in [SecurityProfile::treaty_full(), SecurityProfile::rocksdb()] {
        let dir = tempfile::tempdir().unwrap();
        let (env, store) = open(profile, dir.path());
        put(&store, b"a", b"1");
        drop(store);
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        put(&store, b"b", b"2");
        drop(store);
        let wal = newest_wal(dir.path());
        std::fs::remove_file(&wal).unwrap();
        let err = TreatyStore::open(env).unwrap_err();
        let log = wal.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(
            err,
            StoreError::rollback(Stored::Log { log }, Check::Missing),
            "{profile:?}"
        );
    }
}

/// Every kind of stored object, tampered once, is refused by a breach
/// that names it: a WAL record, a live WAL, an SSTable block, an SSTable
/// footer and a MemTable value in host memory.
#[test]
fn every_stored_object_is_named_by_its_breach() {
    use treaty_store::sstable;
    let profile = SecurityProfile::treaty_full();
    let flip = |path: &std::path::Path, at: usize| {
        let mut raw = std::fs::read(path).unwrap();
        raw[at] ^= 0x01;
        std::fs::write(path, raw).unwrap();
    };
    let name = |path: &std::path::Path| path.file_name().unwrap().to_string_lossy().into_owned();

    // One byte of the first WAL record's payload, behind its 12-byte
    // header: the record's MAC fails.
    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(profile, dir.path());
    put(&store, b"a", b"1");
    drop(store);
    let wal = newest_wal(dir.path());
    flip(&wal, 13);
    let record = Stored::LogRecord {
        log: name(&wal),
        counter: 1,
    };
    assert_eq!(
        TreatyStore::open(env).unwrap_err(),
        StoreError::integrity(record, Check::Tag)
    );

    // The live WAL deleted: the MANIFEST still lists it.
    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(profile, dir.path());
    put(&store, b"a", b"1");
    drop(store);
    let wal = newest_wal(dir.path());
    std::fs::remove_file(&wal).unwrap();
    let log = Stored::Log { log: name(&wal) };
    assert_eq!(
        TreatyStore::open(env).unwrap_err(),
        StoreError::rollback(log, Check::Missing)
    );

    // A flushed table's first byte, in block 0: the block's GCM tag fails
    // when a read reaches it. Its footer's last sealed byte, in front of
    // the 48 bytes of digest, length and magic: the table fails at open.
    for footer in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let (env, store) = open(profile, dir.path());
        put(&store, b"a", b"1");
        store.flush().unwrap();
        let file_id = store.live_file_ids()[0];
        drop(store);
        let path = dir.path().join(sstable::file_name(file_id));
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        flip(&path, if footer { len - 49 } else { 0 });
        let err = match TreatyStore::open(env) {
            Ok(store) => store.get_committed(b"a").unwrap_err(),
            Err(err) => err,
        };
        let table = match footer {
            true => Stored::TableMeta { file_id },
            false => Stored::TableBlock {
                file_id,
                block_no: 0,
            },
        };
        assert_eq!(
            err,
            StoreError::integrity(table, Check::Tag),
            "footer: {footer}"
        );
    }

    // Every live host buffer flipped: the MemTable value fails its tag.
    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(profile, dir.path());
    put(&store, b"a", &[7u8; 100]);
    for h in 0..16 {
        let _ = env.vault.corrupt(treaty_tee::HostHandle(h), 20);
    }
    assert_eq!(
        store.get_committed(b"a").unwrap_err(),
        StoreError::integrity(Stored::MemValue, Check::Tag)
    );
}

#[test]
fn sstable_tampering_detected_on_read_after_recovery() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        for i in 0..60u32 {
            put(&store, format!("k{i:02}").as_bytes(), &vec![b'x'; 500]);
        }
        store.flush().unwrap();
    }
    // Tamper with a data block of some SSTable (not the footer).
    let sst = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".sst"))
        .expect("an sstable exists")
        .path();
    let mut raw = std::fs::read(&sst).unwrap();
    raw[5] ^= 0xFF;
    std::fs::write(&sst, &raw).unwrap();

    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    let mut saw_integrity_error = false;
    for i in 0..60u32 {
        if matches!(
            store.get_committed(format!("k{i:02}").as_bytes()),
            Err(StoreError::Integrity(_))
        ) {
            saw_integrity_error = true;
            break;
        }
    }
    assert!(
        saw_integrity_error,
        "tampered SSTable block must be detected"
    );
}

#[test]
fn baseline_profile_does_not_detect_wal_rollback() {
    // DS-RocksDB semantics: rollback attacks succeed silently — which is
    // exactly the gap Treaty closes.
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::rocksdb(), dir.path());
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        put(&store, b"balance", b"100");
        let wal = newest_wal(dir.path());
        let snapshot = std::fs::read(&wal).unwrap();
        put(&store, b"balance", b"0");
        std::fs::write(&wal, &snapshot).unwrap();
    }
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    assert_eq!(
        store.get_committed(b"balance").unwrap(),
        Some(b"100".to_vec()),
        "baseline silently serves rolled-back state"
    );
}

#[test]
fn write_sets_serialize_via_wal_order() {
    // Two transactions writing disjoint keys commit concurrently; both
    // must be durable and readable.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let store = store.clone();
            handles.push(spawn(move || {
                for j in 0..5u32 {
                    let mut tx = store.begin_mode(TxnMode::Pessimistic);
                    tx.put(format!("k-{i}-{j}").as_bytes(), b"v").unwrap();
                    tx.commit().unwrap();
                }
            }));
        }
        for h in handles {
            join(h);
        }
        drop(store);
        // Recover and verify every commit survived.
        let store = TreatyStore::open(env).unwrap();
        for i in 0..8u32 {
            for j in 0..5u32 {
                assert_eq!(
                    store
                        .get_committed(format!("k-{i}-{j}").as_bytes())
                        .unwrap(),
                    Some(b"v".to_vec())
                );
            }
        }
    });
}

#[test]
fn multi_write_txn_is_atomic_across_crash() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.put(b"from", b"50").unwrap();
        tx.put(b"to", b"150").unwrap();
        tx.commit().unwrap();
    }
    let store = TreatyStore::open(env).unwrap();
    assert_eq!(store.get_committed(b"from").unwrap(), Some(b"50".to_vec()));
    assert_eq!(store.get_committed(b"to").unwrap(), Some(b"150".to_vec()));
}

#[test]
fn block_cache_invalidated_across_flush_compaction_and_gc() {
    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(SecurityProfile::treaty_full(), dir.path());
    let cache = Rc::clone(
        env.block_cache
            .as_ref()
            .expect("tiny config enables the cache"),
    );
    // Interleave writes with reads so cache entries accumulate for files
    // that flush/compaction/GC will later retire.
    for i in 0..200u32 {
        put(
            &store,
            format!("key-{i:04}").as_bytes(),
            format!("value-{i}-{}", "z".repeat(400)).as_bytes(),
        );
        if i % 5 == 0 {
            let probe = format!("key-{:04}", i / 2);
            store.get_committed(probe.as_bytes()).unwrap();
        }
    }
    let stats = store.stats();
    assert!(
        stats.compactions >= 1,
        "expected compactions, got {stats:?}"
    );
    assert!(
        stats.files_deleted > 0,
        "expected GC to retire files, got {stats:?}"
    );
    // Every cached block must belong to a live SSTable: compaction + GC
    // invalidate dead files so stale plaintext never lingers in the enclave.
    let live = store.live_file_ids();
    for fid in cache.resident_file_ids() {
        assert!(
            live.binary_search(&fid).is_ok(),
            "cache holds blocks of dead file {fid}; live set: {live:?}"
        );
    }
    // And reads through the (partially invalidated) cache stay correct.
    for i in (0..200u32).step_by(13) {
        assert_eq!(
            store
                .get_committed(format!("key-{i:04}").as_bytes())
                .unwrap(),
            Some(format!("value-{i}-{}", "z".repeat(400)).into_bytes()),
            "key {i} wrong after invalidation"
        );
    }
}

#[test]
fn recovery_parity_with_cache_on_and_off() {
    let dir = tempfile::tempdir().unwrap();
    let profile = SecurityProfile::treaty_full();
    {
        let env = Env::for_testing(profile, dir.path());
        let store = TreatyStore::open(env).unwrap();
        for i in 0..150u32 {
            put(
                &store,
                format!("p{i:03}").as_bytes(),
                format!("v{i}-{}", "q".repeat(300)).as_bytes(),
            );
        }
        // crash without shutdown
    }
    // Recover once with the cache enabled, once with it disabled; both must
    // serve the identical committed state.
    let read_all = |store: &TreatyStore| -> Vec<Option<Vec<u8>>> {
        (0..150u32)
            .map(|i| store.get_committed(format!("p{i:03}").as_bytes()).unwrap())
            .collect()
    };
    let with_cache = {
        let env = Env::for_testing(profile, dir.path());
        assert!(env.block_cache.is_some());
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        read_all(&store)
    };
    let without_cache = {
        let mut config = treaty_store::env::EngineConfig::tiny();
        config.block_cache_bytes = 0;
        let env = Env::for_testing_with(profile, dir.path(), config);
        assert!(env.block_cache.is_none());
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        read_all(&store)
    };
    assert_eq!(with_cache, without_cache);
    for (i, v) in with_cache.iter().enumerate() {
        assert_eq!(
            v.as_deref(),
            Some(format!("v{i}-{}", "q".repeat(300)).as_bytes()),
            "key {i} lost across recovery"
        );
    }
}

#[test]
fn write_op_serialization_roundtrip() {
    let op = WriteOp {
        key: b"k".to_vec(),
        value: Some(b"v".to_vec()),
    };
    let bytes = treaty_crypto::codec::to_bytes(0, &op);
    let back: WriteOp = treaty_crypto::codec::from_bytes(0, &bytes).unwrap();
    assert_eq!(op, back);
}

/// A MANIFEST edit naming a level the engine does not have is refused at
/// recovery instead of indexing past the level table: the `rocksdb`
/// profile does not authenticate its logs, so a decoded level is whatever
/// the disk says.
#[test]
fn manifest_naming_a_missing_level_is_refused() {
    use treaty_crypto::codec::Record as _;
    use treaty_store::log::{replay, LogWriter};
    use treaty_store::ManifestEdit;

    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(SecurityProfile::rocksdb(), dir.path());
    put(&store, b"k", b"v");
    store.flush().unwrap();
    drop(store);
    let path = dir.path().join("MANIFEST");
    let last = replay(&env, "manifest", &path).unwrap().last_counter;
    let forged = ManifestEdit::AddTable {
        level: 9,
        file_id: 1,
    };
    LogWriter::open(Rc::clone(&env), "manifest", &path, last)
        .unwrap()
        .append(&forged.to_bytes())
        .unwrap();
    let err = TreatyStore::open(env).unwrap_err();
    assert!(matches!(err, StoreError::Integrity(_)), "{err:?}");
}

#[test]
fn backpressure_stalls_writers_but_never_errors() {
    // Aggressive thresholds: every couple of commits rotates the
    // MemTable, and the slowdown trigger fires from the first backlog
    // item. Writers must absorb stalls — visible as virtual time — but
    // every single write must succeed.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut config = treaty_store::env::EngineConfig::tiny();
        config.memtable_bytes = 2 << 10;
        config.l0_slowdown_trigger = 1;
        config.l0_stop_trigger = 2;
        config.backpressure_stall = 10 * treaty_sim::MILLIS;
        let stall = config.backpressure_stall;
        let env = Env::for_testing_with(SecurityProfile::treaty_full(), &path, config);
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();

        let t0 = treaty_sim::runtime::now();
        let mut handles = Vec::new();
        for w in 0..4u32 {
            let store = store.clone();
            handles.push(spawn(move || {
                for i in 0..8u32 {
                    let mut tx = store.begin_mode(TxnMode::Pessimistic);
                    let key = format!("bp-{w}-{i}").into_bytes();
                    tx.put(&key, &vec![0x5a; 1 << 10])
                        .expect("put must never error under backpressure");
                    tx.commit()
                        .expect("commit must never error under backpressure");
                }
            }));
        }
        for h in handles {
            join(h);
        }
        assert!(
            treaty_sim::runtime::now() - t0 >= stall,
            "writers far past the soft trigger must have absorbed at least one stall"
        );

        store.drain_maintenance().unwrap();
        for w in 0..4u32 {
            for i in 0..8u32 {
                let key = format!("bp-{w}-{i}").into_bytes();
                assert_eq!(
                    store.get_committed(&key).unwrap(),
                    Some(vec![0x5a; 1 << 10]),
                    "write lost under backpressure: bp-{w}-{i}"
                );
            }
        }
        assert!(store.stats().flushes >= 2, "workload must actually flush");
    });
}

#[test]
fn maintenance_inside_and_outside_the_runtime_agree() {
    // The same workload on the maintenance daemon (inside the runtime) and
    // drained inline by the rotating leader (outside it): both must
    // surface identical data after drain, and both must flush and compact.
    let run = |dir: &std::path::Path| {
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir);
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        for i in 0..60u32 {
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            tx.put(
                format!("mm-{i:03}").as_bytes(),
                format!("val-{i}-{}", "z".repeat(700)).as_bytes(),
            )
            .unwrap();
            tx.commit().unwrap();
        }
        store.drain_maintenance().unwrap();
        let fiber = treaty_sim::runtime::in_fiber();
        assert!(store.stats().flushes >= 2, "in_fiber={fiber}: no flushes");
        assert!(
            store.stats().compactions >= 1,
            "in_fiber={fiber}: no compactions"
        );
        (0..60u32)
            .map(|i| {
                store
                    .get_committed(format!("mm-{i:03}").as_bytes())
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("fiber");
    let out = Rc::new(RefCell::new(Vec::new()));
    let rows = Rc::clone(&out);
    block_on(move || *rows.borrow_mut() = run(&path));
    let inside = out.borrow().clone();
    assert_eq!(inside, run(&dir.path().join("plain")));
}

/// A `Prepare` on disk whose counter round fails is aborted in the WAL too.
/// Dropping only the in-memory entry left the record undecided: the
/// coordinator's abort found nothing to log, the next writer of the key
/// prepared beside it, and reopening refused two undecided `Prepare`s on
/// one key.
#[test]
fn a_failed_prepare_round_logs_its_abort() {
    use std::cell::Cell;
    use treaty_counter::{CounterBackend, CounterError, NullBackend};

    /// Fails the next WAL round once armed.
    struct FailOneRound {
        rounds: Rc<NullBackend>,
        armed: Cell<bool>,
    }
    impl CounterBackend for FailOneRound {
        fn stabilize(&self, id: &str, value: u64) -> Result<treaty_sim::Nanos, CounterError> {
            if id.contains("wal-") && self.armed.replace(false) {
                return Err(CounterError::NoQuorum { acks: 1, needed: 2 });
            }
            self.rounds.stabilize(id, value)
        }

        fn latest(&self, id: &str) -> u64 {
            self.rounds.latest(id)
        }
    }

    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let backend = Rc::new(FailOneRound {
            rounds: Default::default(),
            armed: false.into(),
        });
        let env = env_with_backend(&path, Rc::clone(&backend) as _);
        let g1 = GlobalTxId { node: 1, seq: 11 };
        let g2 = GlobalTxId { node: 1, seq: 12 };
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            tx.put(b"acct", b"lost-round").unwrap();
            backend.armed.set(true);
            assert!(tx.prepare(g1).is_err(), "the round failed: no yes vote");
            store.abort_prepared(g1).unwrap(); // the coordinator's abort
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            tx.put(b"acct", b"next-writer").unwrap();
            tx.prepare(g2).unwrap();
            assert_eq!(store.prepared_txns(), vec![g2]);
            // crash
        }
        let store = TreatyStore::open(env).unwrap();
        assert_eq!(store.prepared_txns(), vec![g2]);
    });
}

// ---- authenticated range scans & range deletes (§V-B, DESIGN.md §15) --------

/// Scans the committed view of `[start, end)`.
fn scan_committed(store: &TreatyStore, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    store.scan(start, end, u64::MAX, 0).unwrap()
}

#[test]
fn scan_merges_memtable_backlog_and_levels_in_order() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    // Old generation: big values force flushes/compactions (tiny config).
    for i in (0..80u32).step_by(2) {
        put(
            &store,
            format!("s{i:03}").as_bytes(),
            format!("disk-{i}-{}", "x".repeat(400)).as_bytes(),
        );
    }
    store.flush().unwrap();
    // Fresh generation: odd keys live only in the active memtable, and a
    // few even keys get overwritten so the merge must prefer memtable
    // versions over on-disk ones.
    for i in (1..80u32).step_by(2) {
        put(
            &store,
            format!("s{i:03}").as_bytes(),
            format!("mem-{i}").as_bytes(),
        );
    }
    put(&store, b"s010", b"rewritten");

    let all = scan_committed(&store, b"s000", b"s999");
    assert_eq!(all.len(), 80, "every key visible exactly once");
    let keys: Vec<_> = all.iter().map(|(k, _)| k.clone()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(keys, sorted, "merge must yield sorted, deduplicated keys");
    let rewritten = all.iter().find(|(k, _)| k == b"s010").unwrap();
    assert_eq!(rewritten.1, b"rewritten", "memtable version must win");

    // Sub-range + limit.
    let window = store.scan(b"s010", b"s020", u64::MAX, 4).unwrap();
    assert_eq!(window.len(), 4);
    assert!(window.first().unwrap().0 >= b"s010".to_vec());
    assert!(window.last().unwrap().0 < b"s020".to_vec());
}

#[test]
fn range_delete_shadows_survive_flush_compaction_and_recovery() {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        for i in 0..60u32 {
            put(
                &store,
                format!("r{i:03}").as_bytes(),
                format!("v{i}-{}", "y".repeat(300)).as_bytes(),
            );
        }
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.delete_range(b"r020", b"r040").unwrap();
        tx.commit().unwrap();
        // A later point write inside the deleted span resurrects that key
        // only (newer version than the tombstone).
        put(&store, b"r025", b"resurrected");

        let live = scan_committed(&store, b"r000", b"r999");
        assert_eq!(live.len(), 41, "40 survivors + 1 resurrected");
        assert!(live.iter().all(|(k, _)| {
            k.as_slice() < b"r020" as &[u8] || k.as_slice() >= b"r040" as &[u8] || k == b"r025"
        }));
        assert_eq!(store.get_committed(b"r030").unwrap(), None);
        assert_eq!(
            store.get_committed(b"r025").unwrap(),
            Some(b"resurrected".to_vec())
        );
        // Tombstones must ride flushes and compactions.
        store.flush().unwrap();
        store.drain_maintenance().unwrap();
        assert_eq!(scan_committed(&store, b"r000", b"r999").len(), 41);
        assert_eq!(store.get_committed(b"r030").unwrap(), None);
        // crash without shutdown
    }
    // Recovery must replay the range-tombstone WAL record.
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    let live = scan_committed(&store, b"r000", b"r999");
    assert_eq!(live.len(), 41, "range delete lost across recovery");
    assert_eq!(store.get_committed(b"r030").unwrap(), None);
    assert_eq!(
        store.get_committed(b"r025").unwrap(),
        Some(b"resurrected".to_vec())
    );
}

#[test]
fn next_key_locking_blocks_phantom_inserts() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(env).unwrap();
        put(&store, b"p10", b"a");
        put(&store, b"p30", b"b");

        let mut scanner = store.begin_mode(TxnMode::Pessimistic);
        let seen = scanner.scan(b"p00", b"p99", 0).unwrap();
        assert_eq!(seen.len(), 2);

        // A concurrent insert into the scanned span is a phantom: it must
        // block on the gap fence (the successor's S-lock) and time out.
        let store2 = store.clone();
        let phantom = spawn(move || {
            let mut t2 = store2.begin_mode(TxnMode::Pessimistic);
            let err = t2.put(b"p20", b"phantom").unwrap_err();
            assert_eq!(err, StoreError::LockTimeout, "phantom insert must block");
        });
        join(phantom);

        // Re-scan inside the same transaction: the result set is unchanged
        // (serializable — no phantom appeared).
        assert_eq!(scanner.scan(b"p00", b"p99", 0).unwrap(), seen);
        scanner.commit().unwrap();

        // After the scanner commits, the same insert proceeds.
        put(&store, b"p20", b"now-fine");
        assert_eq!(
            store.get_committed(b"p20").unwrap(),
            Some(b"now-fine".to_vec())
        );
    });
}

/// An insert whose `put` ran while no scan was live holds only its own
/// key's X-lock, and its key is in no store pass until it commits. A scan
/// that starts later still waits for it: the fence locks every key in its
/// span that another transaction holds X. Were it not so, the scan would
/// miss b, then overwrite x, which b's inserter read, and both would
/// commit: a cycle.
#[test]
fn an_insert_that_predates_a_scan_is_fenced() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(env).unwrap();
        for k in [b"a", b"c", b"x"] {
            put(&store, k, b"0");
        }
        let mut inserter = store.begin_mode(TxnMode::Pessimistic);
        inserter.put(b"b", b"1").unwrap();
        inserter.get(b"x").unwrap();
        let outcome = Rc::new(RefCell::new(None));
        let (store2, outcome2) = (store.clone(), Rc::clone(&outcome));
        let scanner = spawn(move || {
            let mut tx = store2.begin_mode(TxnMode::Pessimistic);
            let Ok(rows) = tx.scan(b"a", b"d", 0) else {
                return;
            };
            let missed_b = rows.iter().all(|(k, _)| k != b"b");
            let committed = tx.put(b"x", b"2").is_ok() && tx.commit().is_ok();
            *outcome2.borrow_mut() = Some((committed, missed_b));
        });
        treaty_sim::runtime::sleep(treaty_sim::MILLIS);
        let inserted = inserter.commit().is_ok();
        join(scanner);
        let (scanned, missed_b) = outcome.borrow().unwrap_or((false, false));
        assert!(
            !(inserted && scanned && missed_b),
            "cycle: the scan missed b, then overwrote x that b's inserter read"
        );
    });
}

#[test]
fn quiescent_scan_fences_in_exactly_one_store_pass() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    for k in [b"p10", b"p30", b"p50"] {
        put(&store, k, b"v");
    }
    let mut scanner = store.begin_mode(TxnMode::Pessimistic);
    let before = store.stats().scans;
    assert_eq!(scanner.scan(b"p00", b"p99", 0).unwrap().len(), 3);
    assert_eq!(
        store.stats().scans,
        before + 1,
        "rows, fence keys and gap bound: one pass"
    );
    // A truncated scan fences what it returned plus the next key present.
    let first = scanner.scan(b"p00", b"p99", 1).unwrap();
    assert_eq!(first, vec![(b"p10".to_vec(), b"v".to_vec())]);
    assert_eq!(store.stats().scans, before + 2);
    // A range delete X-fences its span through the same single pass.
    scanner.delete_range(b"p00", b"p99").unwrap();
    assert_eq!(store.stats().scans, before + 3);
    scanner.commit().unwrap();
    assert_eq!(store.locked_keys(), 0);
    assert_eq!(scan_committed(&store, b"p00", b"p99"), vec![]);
}

#[test]
fn apply_between_pass_and_lock_grant_forces_a_second_pass() {
    // Once with a scan (S) and once with a range delete (X) as the fenced op.
    for range_delete in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
            let store = TreatyStore::open(env).unwrap();
            for k in [b"p10", b"p30", b"p50"] {
                put(&store, k, b"old");
            }
            // The writer X-locks p30 before any scan is live (no gap lock, no
            // successor lookup), then holds it across the fence's pass.
            let mut writer = store.begin_mode(TxnMode::Pessimistic);
            writer.put(b"p30", b"new").unwrap();
            let before = store.stats().scans;

            let store2 = store.clone();
            let rows = Rc::new(RefCell::new(Vec::new()));
            let rows2 = Rc::clone(&rows);
            let fencer = spawn(move || {
                let mut t = store2.begin_mode(TxnMode::Pessimistic);
                if range_delete {
                    t.delete_range(b"p00", b"p99").unwrap();
                } else {
                    *rows2.borrow_mut() = t.scan(b"p00", b"p99", 0).unwrap();
                }
                t.commit().unwrap();
            });
            // The fencer passes once (seeing the old p30) and parks on p30's
            // lock; the commit below applies inside that window.
            treaty_sim::runtime::sleep(treaty_sim::MILLIS);
            assert_eq!(store.stats().scans, before + 1);
            writer.commit().unwrap();
            join(fencer);

            // The moved epoch forced exactly one verifying pass.
            assert_eq!(store.stats().scans, before + 2);
            if range_delete {
                assert_eq!(scan_committed(&store, b"p00", b"p99"), vec![]);
            } else {
                // ... which saw the new row.
                let rows = rows.borrow().clone();
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[1], (b"p30".to_vec(), b"new".to_vec()));
            }
        });
    }
}

/// A key that exists only in a prepared write set is invisible to the
/// pass, yet its writer may already be acknowledged: the fence asks for
/// that key's lock, parks until the decision, and reads the row.
#[test]
fn span_fence_waits_for_a_prepared_insert_in_its_span() {
    for range_delete in [false, true] {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
            let store = TreatyStore::open(env).unwrap();
            put(&store, b"p10", b"a");
            put(&store, b"p50", b"b");
            let gtx = GlobalTxId { node: 4, seq: 4 };
            let mut writer = store.begin_mode(TxnMode::Pessimistic);
            writer.put(b"p30", b"in-doubt").unwrap();
            writer.prepare(gtx).unwrap();

            let store2 = store.clone();
            let rows = Rc::new(RefCell::new(None));
            let rows2 = Rc::clone(&rows);
            let fencer = spawn(move || {
                let mut t = store2.begin_mode(TxnMode::Pessimistic);
                if range_delete {
                    t.delete_range(b"p00", b"p99").unwrap();
                    *rows2.borrow_mut() = Some(Vec::new());
                } else {
                    *rows2.borrow_mut() = Some(t.scan(b"p00", b"p99", 0).unwrap());
                }
                t.commit().unwrap();
            });
            treaty_sim::runtime::sleep(treaty_sim::MILLIS);
            assert!(rows.borrow().is_none(), "the fence must park on p30");
            store.commit_prepared(gtx).unwrap();
            join(fencer);

            if range_delete {
                assert_eq!(scan_committed(&store, b"p00", b"p99"), vec![]);
            } else {
                let rows = rows.borrow().clone().unwrap();
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[1], (b"p30".to_vec(), b"in-doubt".to_vec()));
            }
            assert_eq!(store.locked_keys(), 0);
        });
    }
}

#[test]
fn memtable_scan_pays_one_seek() {
    // One ordered index: a memtable-only scan seeks once, so a one-row scan
    // may cost no more virtual time than two point reads.
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(env).unwrap();
        put(&store, b"k", b"v");
        let t0 = treaty_sim::runtime::now();
        store.get_committed(b"k").unwrap();
        store.get_committed(b"k").unwrap();
        let two_gets = treaty_sim::runtime::now() - t0;
        let t1 = treaty_sim::runtime::now();
        assert_eq!(store.scan(b"a", b"z", u64::MAX, 0).unwrap().len(), 1);
        let scan = treaty_sim::runtime::now() - t1;
        assert!(
            scan <= two_gets,
            "a one-row memtable scan took {scan} ns, two point reads {two_gets} ns"
        );
    });
}

/// `EngineConfig::tiny()` with compaction held off, so every flush stays
/// an L0 table of its own.
fn uncompacted(profile: SecurityProfile, dir: &std::path::Path) -> TreatyStore {
    let config = treaty_store::EngineConfig {
        l0_compaction_trigger: 64,
        l0_slowdown_trigger: 64,
        l0_stop_trigger: 128,
        ..treaty_store::EngineConfig::tiny()
    };
    TreatyStore::open(Env::for_testing_with(profile, dir, config)).unwrap()
}

/// Blocks read so far, from the trusted cache or from storage.
fn block_reads(store: &TreatyStore) -> u64 {
    let stats = store.stats();
    stats.block_cache_hits + stats.block_cache_misses
}

#[test]
fn a_limited_scan_reads_only_the_table_it_returns_from() {
    let dir = tempfile::tempdir().unwrap();
    let store = uncompacted(SecurityProfile::treaty_full(), dir.path());
    // Five tables with disjoint key ranges, several blocks each.
    for t in 0..5u32 {
        for k in 0..40u32 {
            put(&store, format!("d{t}-{k:02}").as_bytes(), &[b'v'; 100]);
        }
        store.flush().unwrap();
    }
    let tables = store.level_tables();
    assert_eq!(tables[0].len(), 5, "one L0 table per flush");
    assert!(tables[0].iter().all(|t| t.meta().blocks.len() > 2));

    // Three rows from the first block of the first table: that block is
    // the only one read, whatever lies to its right.
    let before = block_reads(&store);
    let rows = store.scan(b"d", b"e", u64::MAX, 3).unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[2].0, b"d0-02".to_vec());
    assert_eq!(block_reads(&store) - before, 1, "a scan read past its rows");

    // The same through the locking pass, whose span runs to the end of
    // the key space: the gap bound is the fourth key, in the same block.
    let before = block_reads(&store);
    let mut scanner = store.begin_mode(TxnMode::Pessimistic);
    assert_eq!(scanner.scan(b"d", b"e", 3).unwrap(), rows);
    scanner.commit().unwrap();
    assert_eq!(
        block_reads(&store) - before,
        1,
        "a fenced pass read past its bound"
    );
}

#[test]
fn a_scan_that_stops_below_the_memtable_charges_no_seek() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let store = uncompacted(SecurityProfile::treaty_full(), &path);
        for k in 0..40u32 {
            put(&store, format!("b{k:02}").as_bytes(), &[b'v'; 100]);
        }
        store.flush().unwrap();
        let timed_scan = || {
            let (t0, seeks) = (now(), store.stats().memtable_seeks);
            assert_eq!(store.scan(b"b", b"z", u64::MAX, 3).unwrap().len(), 3);
            (now() - t0, store.stats().memtable_seeks - seeks)
        };
        timed_scan(); // warms the block cache
        let (empty_memtable, _) = timed_scan();
        // The MemTable's smallest key lies past the third row: the scan
        // ends before the merge reaches it, so it costs nothing.
        put(&store, b"m", b"v");
        assert_eq!(timed_scan(), (empty_memtable, 0));
        // A scan that does reach it seeks it once.
        let seeks = store.stats().memtable_seeks;
        assert_eq!(scan_committed(&store, b"b", b"z").len(), 41);
        assert_eq!(store.stats().memtable_seeks - seeks, 1);
    });
}

/// Once the merge has decided a key, a MemTable source steps past that
/// key's older versions without opening them, and past its versions above
/// the snapshot too: a one-row locking scan, whose fence reads on to the
/// next key, costs the same virtual time whether its row has one MemTable
/// version or a hundred, and so does a one-row scan at the seq of the
/// row's first commit.
#[test]
fn a_scan_opens_no_older_version_of_a_key_it_decided() {
    let cost = |versions: u32| {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        block_on(move || {
            let (_env, store) = open(SecurityProfile::treaty_full(), &path);
            let mut first = None;
            for v in 0..versions {
                let mut tx = store.begin_mode(TxnMode::Pessimistic);
                tx.put(b"k", format!("v{v:03}").as_bytes()).unwrap();
                first = first.or(Some(tx.commit().unwrap().seq));
            }
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            let t0 = now();
            let rows = tx.scan(b"a", b"z", 1).unwrap();
            let cost = now() - t0;
            let newest = format!("v{:03}", versions - 1).into_bytes();
            assert_eq!(rows, vec![(b"k".to_vec(), newest)]);
            tx.commit().unwrap();

            let t0 = now();
            let rows = store.scan(b"a", b"z", first.unwrap(), 1).unwrap();
            let snapshot_cost = now() - t0;
            assert_eq!(rows, vec![(b"k".to_vec(), b"v000".to_vec())]);
            (cost, snapshot_cost)
        })
    };
    let costs = [1, 10, 100].map(cost);
    let locking = costs.map(|(locking, _)| locking);
    assert_eq!(
        locking, [locking[0]; 3],
        "vt_ns over 1, 10 and 100 versions"
    );
    let snapshot = costs.map(|(_, snapshot)| snapshot);
    assert_eq!(
        snapshot, [snapshot[0]; 3],
        "vt_ns at the first commit, under 0, 9 and 99 newer versions"
    );
}

/// A MemTable value that no read returns is never opened: with `d`'s host
/// bytes tampered, a three-row locking scan, whose fence bound is `d`, and
/// a snapshot validation over every key both answer. A scan that returns
/// `d` opens it and fails.
#[test]
fn a_tampered_memtable_value_no_read_returns_is_never_opened() {
    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(SecurityProfile::treaty_full(), dir.path());
    for key in [b"a", b"b", b"c", b"d", b"e"] {
        put(&store, key, b"value");
    }
    // The vault holds the MemTable's values only, numbered in put order.
    assert_eq!(env.vault.live_buffers(), 5);
    env.vault.corrupt(treaty_tee::HostHandle(3), 20).unwrap();

    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    let rows = tx.scan(b"a", b"z", 3).unwrap();
    let want: Vec<_> = [b"a", b"b", b"c"]
        .map(|k| (k.to_vec(), b"value".to_vec()))
        .into();
    assert_eq!(rows, want);
    tx.commit().unwrap();
    assert!(store
        .snapshot_validate_span(b"a", b"z", store.stable_ts())
        .unwrap());
    let outcome = store.scan(b"a", b"z", u64::MAX, 4);
    assert!(
        matches!(outcome, Err(StoreError::Integrity(_))),
        "a scan returning the tampered value: {outcome:?}"
    );
}

#[test]
fn a_tampered_block_past_a_scans_stop_is_never_read() {
    let dir = tempfile::tempdir().unwrap();
    {
        let store = uncompacted(SecurityProfile::treaty_full(), dir.path());
        for k in 0..60u32 {
            put(&store, format!("t{k:02}").as_bytes(), &[b'x'; 500]);
        }
        store.flush().unwrap();
        // Flip a byte inside the table's last block.
        let tables = store.level_tables();
        let table = &tables[0][0];
        let last = table.meta().blocks.last().unwrap();
        let mut raw = std::fs::read(table.path()).unwrap();
        raw[last.offset as usize + 4] ^= 0xFF;
        std::fs::write(table.path(), &raw).unwrap();
    }
    // A fresh environment: no block of the table is cached.
    let store = uncompacted(SecurityProfile::treaty_full(), dir.path());
    let want: Vec<_> = (0..5u32)
        .map(|k| (format!("t{k:02}").into_bytes(), vec![b'x'; 500]))
        .collect();
    assert_eq!(store.scan(b"t00", b"t99", u64::MAX, 5).unwrap(), want);
    let outcome = store.scan(b"t00", b"t99", u64::MAX, 0);
    assert!(
        matches!(outcome, Err(StoreError::Integrity(_))),
        "a scan reaching the tampered block: {outcome:?}"
    );
}

/// A commit applied after a fenced pass began but before the pass reached
/// the MemTable is seen by that pass; the apply moved the epoch, so the
/// fence runs one more pass, and returns the committed row.
#[test]
fn a_commit_applied_before_a_pass_opens_the_memtable_forces_another_pass() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let store = uncompacted(SecurityProfile::treaty_full(), &path);
        // A long table the pass reads first, and a MemTable past it.
        for k in 0..150u32 {
            put(&store, format!("p{k:03}").as_bytes(), &[b'v'; 200]);
        }
        store.flush().unwrap();
        put(&store, b"q0", b"mem");
        // X-locked before any scan is live: no gap fence, no lookup.
        let mut writer = store.begin_mode(TxnMode::Pessimistic);
        writer.put(b"q1", b"new").unwrap();
        let (scans, seeks) = (store.stats().scans, store.stats().memtable_seeks);

        let store2 = store.clone();
        let rows = Rc::new(RefCell::new(Vec::new()));
        let rows2 = Rc::clone(&rows);
        let fencer = spawn(move || {
            let mut t = store2.begin_mode(TxnMode::Pessimistic);
            *rows2.borrow_mut() = t.scan(b"p", b"r", 0).unwrap();
            t.commit().unwrap();
        });
        treaty_sim::runtime::sleep(1_000);
        writer.commit().unwrap();
        // Applied inside the first pass, before it reached the MemTable.
        assert_eq!(store.stats().scans, scans + 1);
        assert_eq!(store.stats().memtable_seeks, seeks);
        join(fencer);

        assert_eq!(
            store.stats().scans,
            scans + 2,
            "the moved epoch forced one more pass"
        );
        let rows = rows.borrow().clone();
        assert_eq!(rows.len(), 152);
        assert_eq!(rows[151], (b"q1".to_vec(), b"new".to_vec()));
    });
}

#[test]
fn range_delete_locks_out_concurrent_writers_in_span() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
        let store = TreatyStore::open(env).unwrap();
        put(&store, b"d1", b"v");
        put(&store, b"d5", b"v");

        let mut deleter = store.begin_mode(TxnMode::Pessimistic);
        deleter.delete_range(b"d0", b"d9").unwrap();

        let store2 = store.clone();
        let writer = spawn(move || {
            let mut t2 = store2.begin_mode(TxnMode::Pessimistic);
            // Covered present key: X-locked by the range delete.
            let err = t2.put(b"d5", b"late").unwrap_err();
            assert_eq!(err, StoreError::LockTimeout);
        });
        join(writer);
        let store3 = store.clone();
        let inserter = spawn(move || {
            let mut t3 = store3.begin_mode(TxnMode::Pessimistic);
            // Fresh key inside the span: caught by the gap fence.
            let err = t3.put(b"d3", b"phantom").unwrap_err();
            assert_eq!(err, StoreError::LockTimeout);
        });
        join(inserter);

        deleter.commit().unwrap();
        assert_eq!(scan_committed(&store, b"d0", b"d9"), vec![]);
    });
}

#[test]
fn optimistic_scan_aborts_on_phantom_at_validation() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"o10", b"a");

    let mut reader = store.begin_mode(TxnMode::Optimistic);
    assert_eq!(reader.scan(b"o00", b"o99", 0).unwrap().len(), 1);
    reader.put(b"o-result", b"derived-from-scan").unwrap();

    // A phantom lands in the scanned span before validation.
    put(&store, b"o20", b"phantom");

    assert_eq!(reader.commit().unwrap_err(), StoreError::Conflict);
    assert_eq!(store.get_committed(b"o-result").unwrap(), None);
}

/// OCC takes no lock to wait on, so a read or a scan that a prepared —
/// possibly acknowledged — writer is about to overwrite fails validation
/// instead of committing against the version being replaced.
#[test]
fn optimistic_validation_refuses_in_doubt_reads_and_spans() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"o10", b"old");

    let mut point = store.begin_mode(TxnMode::Optimistic);
    assert_eq!(point.get(b"o10").unwrap(), Some(b"old".to_vec()));
    point.put(b"from-point", b"x").unwrap();
    let mut span = store.begin_mode(TxnMode::Optimistic);
    assert_eq!(span.scan(b"o20", b"o99", 0).unwrap(), vec![]);
    span.put(b"from-span", b"x").unwrap();
    let mut disjoint = store.begin_mode(TxnMode::Optimistic);
    assert_eq!(disjoint.scan(b"o40", b"o99", 0).unwrap(), vec![]);
    disjoint.put(b"from-disjoint", b"x").unwrap();

    // Prepared, undecided: the store still reads as it did above.
    let gtx = GlobalTxId { node: 5, seq: 5 };
    let mut writer = store.begin_mode(TxnMode::Optimistic);
    writer.put(b"o10", b"new").unwrap();
    writer.put(b"o30", b"insert").unwrap();
    writer.prepare(gtx).unwrap();

    assert_eq!(point.commit().unwrap_err(), StoreError::Conflict);
    assert_eq!(span.commit().unwrap_err(), StoreError::Conflict);
    disjoint.commit().unwrap();
    store.commit_prepared(gtx).unwrap();
    assert_eq!(store.get_committed(b"from-point").unwrap(), None);
    assert_eq!(store.get_committed(b"from-span").unwrap(), None);

    let mut after = store.begin_mode(TxnMode::Optimistic);
    assert_eq!(after.get(b"o10").unwrap(), Some(b"new".to_vec()));
    assert_eq!(after.scan(b"o20", b"o99", 0).unwrap().len(), 1);
    after.put(b"from-after", b"x").unwrap();
    after.commit().unwrap();
}

#[test]
fn snapshot_scan_stale_indoubt_and_success() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    for i in 0..10u32 {
        put(&store, format!("q{i}").as_bytes(), b"v");
    }
    let stable = store.stable_ts();

    // Happy path at the stable timestamp.
    let rows = store.snapshot_scan(b"q0", b"q9z", stable, 0).unwrap();
    assert_eq!(rows.len(), 10);

    // A timestamp ahead of the stable frontier is refused, not guessed at.
    assert!(matches!(
        store.snapshot_scan(b"q0", b"q9z", stable + 1_000_000, 0),
        Err(StoreError::SnapshotStale { .. })
    ));

    // An undecided prepare overlapping the span makes the scan in-doubt —
    // a prepared *insert* would be invisible to any per-result check.
    let gtx = GlobalTxId { node: 9, seq: 9 };
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    tx.put(b"q5x", b"prepared-insert").unwrap();
    tx.prepare(gtx).unwrap();
    assert!(matches!(
        store.snapshot_scan(b"q0", b"q9z", stable, 0),
        Err(StoreError::SnapshotInDoubt)
    ));
    // Span validation sees the same hazard.
    assert!(!store.snapshot_validate_span(b"q0", b"q9z", stable).unwrap());
    // Disjoint spans are unaffected.
    assert!(store
        .snapshot_scan(b"z0", b"z9", stable, 0)
        .unwrap()
        .is_empty());

    store.commit_prepared(gtx).unwrap();
    let rows = store
        .snapshot_scan(b"q0", b"q9z", store.stable_ts(), 0)
        .unwrap();
    assert_eq!(rows.len(), 11, "decided insert now visible");
}

#[test]
fn snapshot_below_a_compacted_version_is_refused_not_misread() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    put(&store, b"k", b"v1");
    let ts = store.stable_ts();
    assert_eq!(store.snapshot_get(b"k", ts).unwrap(), Some(b"v1".to_vec()));
    store.flush().unwrap();
    put(&store, b"k", b"v2");
    // Tiny config compacts at two L0 tables; the merge keeps only v2.
    store.flush().unwrap();
    assert!(store.stats().compactions >= 1);

    // The version the pinned snapshot should see is gone: refuse, so the
    // client re-pins — never answer "absent".
    assert!(matches!(
        store.snapshot_get(b"k", ts),
        Err(StoreError::SnapshotStale { .. })
    ));
    assert!(matches!(
        store.snapshot_scan(b"a", b"z", ts, 0),
        Err(StoreError::SnapshotStale { .. })
    ));
    let fresh = store.stable_ts();
    assert_eq!(
        store.snapshot_get(b"k", fresh).unwrap(),
        Some(b"v2".to_vec())
    );
    assert_eq!(
        store.snapshot_scan(b"a", b"z", fresh, 0).unwrap(),
        vec![(b"k".to_vec(), b"v2".to_vec())]
    );
}

#[test]
fn scan_detects_spliced_truncated_and_reordered_blocks() {
    // Three adversaries against the same flushed table: a bitflip inside a
    // data block (splice), file truncation, and a coarse block reorder.
    // Every one must surface as StoreError::Integrity on the scan path —
    // never as silently missing or reordered rows.
    let build = || {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        {
            let store = TreatyStore::open(Rc::clone(&env)).unwrap();
            for i in 0..60u32 {
                put(&store, format!("t{i:02}").as_bytes(), &vec![b'x'; 500]);
            }
            store.flush().unwrap();
        }
        let mut ssts: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".sst"))
            .map(|e| e.path())
            .collect();
        ssts.sort();
        assert!(!ssts.is_empty(), "an sstable exists");
        (dir, env, ssts)
    };
    let expect_integrity = |env: &Rc<Env>, what: &str| {
        let outcome = TreatyStore::open(Rc::clone(env))
            .and_then(|store| store.scan(b"t00", b"t99", u64::MAX, 0));
        assert!(
            matches!(outcome, Err(StoreError::Integrity(_))),
            "{what}: expected Integrity, got {outcome:?}"
        );
    };

    let (_d1, env, ssts) = build();
    for sst in &ssts {
        let mut raw = std::fs::read(sst).unwrap();
        raw[10] ^= 0xFF;
        std::fs::write(sst, &raw).unwrap();
    }
    expect_integrity(&env, "bitflipped block");

    let (_d2, env, ssts) = build();
    for sst in &ssts {
        let raw = std::fs::read(sst).unwrap();
        std::fs::write(sst, &raw[..raw.len() / 2]).unwrap();
    }
    expect_integrity(&env, "truncated file");

    let (_d3, env, ssts) = build();
    for sst in &ssts {
        let raw = std::fs::read(sst).unwrap();
        let mid = raw.len() / 4;
        let mut reordered = raw[mid..2 * mid].to_vec();
        reordered.extend_from_slice(&raw[..mid]);
        reordered.extend_from_slice(&raw[2 * mid..]);
        std::fs::write(sst, &reordered).unwrap();
    }
    expect_integrity(&env, "reordered blocks");
}

#[test]
fn dropped_range_tombstone_detected_via_sealed_footer() {
    // Range tombstones live in the sealed SSTable footer; an adversary who
    // rewrites the footer to drop one (resurrecting deleted data) breaks
    // the seal and must be detected.
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
    {
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        for i in 0..40u32 {
            put(&store, format!("f{i:02}").as_bytes(), &vec![b'x'; 400]);
        }
        let mut tx = store.begin_mode(TxnMode::Pessimistic);
        tx.delete_range(b"f10", b"f30").unwrap();
        tx.commit().unwrap();
        store.flush().unwrap();
    }
    // Tamper with the footer region (where the tombstone set is sealed).
    let mut ssts: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".sst"))
        .map(|e| e.path())
        .collect();
    ssts.sort();
    let mut tampered = false;
    for sst in ssts {
        let mut raw = std::fs::read(&sst).unwrap();
        let n = raw.len();
        raw[n - 9] ^= 0xFF;
        std::fs::write(&sst, &raw).unwrap();
        tampered = true;
    }
    assert!(tampered);
    let outcome = TreatyStore::open(Rc::clone(&env))
        .and_then(|store| store.scan(b"f00", b"f99", u64::MAX, 0));
    assert!(
        matches!(outcome, Err(StoreError::Integrity(_))),
        "footer tampering must be detected, got {outcome:?}"
    );
}

// ---- differential test against a trivial reference model --------------------

#[test]
fn engine_matches_btreemap_model_under_random_ops() {
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    let key = |n: u32| format!("m{n:03}").into_bytes();
    let (mut flushes, mut compactions, mut reopens) = (0, 0, 0);
    for seed in 0..8u64 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let mut store = TreatyStore::open(Rc::clone(&env)).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for step in 0..600u32 {
            let mode = if rng.gen_bool(0.5) {
                TxnMode::Pessimistic
            } else {
                TxnMode::Optimistic
            };
            let k = key(rng.gen_range(0..60u32));
            match rng.gen_range(0..100u32) {
                0..=59 => {
                    let v = format!("s{seed}-{step}-{}", "v".repeat(rng.gen_range(0..400)));
                    let mut tx = store.begin_mode(mode);
                    tx.put(&k, v.as_bytes()).unwrap();
                    tx.commit().unwrap();
                    model.insert(k, v.into_bytes());
                }
                60..=77 => {
                    let mut tx = store.begin_mode(mode);
                    tx.delete(&k).unwrap();
                    tx.commit().unwrap();
                    model.remove(&k);
                }
                78..=89 => {
                    let a = rng.gen_range(0..60u32);
                    let (lo, hi) = (key(a), key(a + rng.gen_range(1..12u32)));
                    let mut tx = store.begin_mode(mode);
                    tx.delete_range(&lo, &hi).unwrap();
                    let doomed: Vec<_> = model
                        .range(lo.clone()..hi)
                        .map(|(k, _)| k.clone())
                        .collect();
                    for d in doomed {
                        model.remove(&d);
                    }
                    // A covered put after the range delete, same transaction:
                    // the same-seq point write must win.
                    if rng.gen_bool(0.4) {
                        let v = format!("resurrected-{step}");
                        tx.put(&lo, v.as_bytes()).unwrap();
                        model.insert(lo, v.into_bytes());
                    }
                    tx.commit().unwrap();
                }
                90..=95 => store.flush().unwrap(),
                _ => {
                    // Crash: drop without shutdown, recover from WAL + tables.
                    // `stats()` starts over on reopen, so bank the counts.
                    let st = store.stats();
                    flushes += st.flushes;
                    compactions += st.compactions;
                    reopens += 1;
                    drop(store);
                    store = TreatyStore::open(Rc::clone(&env)).unwrap();
                }
            }
            let probe = key(rng.gen_range(0..62u32));
            assert_eq!(
                store.get_committed(&probe).unwrap(),
                model.get(&probe).cloned(),
                "seed {seed} step {step}: point get of {:?}",
                String::from_utf8_lossy(&probe)
            );
            if step % 5 == 0 {
                let a = rng.gen_range(0..60u32);
                let (lo, hi) = (key(a), key(a + rng.gen_range(1..30u32)));
                let limit = rng.gen_range(0..8usize);
                let want: Vec<_> = model
                    .range(lo.clone()..hi.clone())
                    .take(if limit == 0 { usize::MAX } else { limit })
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(
                    store.scan(&lo, &hi, u64::MAX, limit).unwrap(),
                    want,
                    "seed {seed} step {step}: scan limit {limit}"
                );
            }
        }
        let st = store.stats();
        flushes += st.flushes;
        compactions += st.compactions;
    }
    assert!(flushes >= 16, "the workload must flush, got {flushes}");
    assert!(
        compactions >= 8,
        "the workload must compact, got {compactions}"
    );
    assert!(
        reopens >= 8,
        "the workload must crash and recover, got {reopens}"
    );
}

/// Hex SHA-256 of a file's bytes.
fn file_digest(path: &std::path::Path) -> String {
    let raw = std::fs::read(path).unwrap();
    treaty_crypto::sha256(&raw)
        .0
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// The bytes the store leaves on disk are a format, not an accident of how
/// it writes them: an SSTable (entries, a tombstone, range tombstones, a
/// block boundary landing exactly on `block_bytes`) and a WAL made of
/// single and batched appends hash to the digests recorded when the
/// format was last changed on purpose.
#[test]
fn on_disk_bytes_of_a_table_and_a_log_are_pinned() {
    use treaty_store::log::LogWriter;
    use treaty_store::memtable::RangeTombstone;
    use treaty_store::sstable;

    // An 8-byte key and a 103-byte value charge 128 bytes to a block, so
    // the eighth entry lands exactly on `block_bytes`.
    let mut entries: Vec<(Vec<u8>, u64, Option<Vec<u8>>)> = (0..20u64)
        .map(|i| {
            let key = format!("key-{i:04}").into_bytes();
            (key, 100 + i, Some(vec![b'a' + (i % 26) as u8; 103]))
        })
        .collect();
    entries.push((b"key-0020".to_vec(), 7, None));
    entries.push((b"key-0021".to_vec(), 9, Some(b"last".to_vec())));
    let tombstones = [
        RangeTombstone {
            start: b"key-0003".to_vec(),
            end: b"key-0005".to_vec(),
            seq: 150,
        },
        RangeTombstone {
            start: b"key-0030".to_vec(),
            end: b"key-0040".to_vec(),
            seq: 151,
        },
    ];
    // Sealed blocks under full Treaty; clear blocks pinned by footer HMACs
    // under the native profile.
    for (profile, want) in [
        (
            SecurityProfile::treaty_full(),
            "c72cbb3d0946e9a22ca508ff3a7f7e42ca5318e993f8ecc68d36123638af66de",
        ),
        (
            SecurityProfile::native_treaty(),
            "6bf97cbc08cba9717637823e7a41aea8332a5278460cbc96f113b299562aafef",
        ),
    ] {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(profile, dir.path());
        assert_eq!(env.config.block_bytes, 1024);
        let path = dir.path().join(sstable::file_name(42));
        let meta = sstable::build(&env, &path, 42, &entries, &tombstones).unwrap();
        assert_eq!(meta.blocks[0].last_key, b"key-0007".to_vec());
        assert_eq!(meta.blocks[1].first_key, b"key-0008".to_vec());
        assert_eq!(
            file_digest(&path),
            want,
            "the SSTable format moved under {profile:?}"
        );
    }

    for (profile, want) in [
        (
            SecurityProfile::treaty_full(),
            "b9901a05313e97cb8280c89f79b3b48dbe31f94b04726cc40b39baf1b04fde36",
        ),
        (
            SecurityProfile::native_treaty(),
            "8ecfcd48b0f3c4c200082168e06c9294436c52bdfc39b861b58ffd7a64d64948",
        ),
    ] {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(profile, dir.path());
        let path = dir.path().join("wal-000001");
        let w = LogWriter::open(Rc::clone(&env), "wal-000001", &path, 0).unwrap();
        w.append(b"first record").unwrap();
        w.append_batch(&[b"a".to_vec(), vec![0x5a; 200], Vec::new()])
            .unwrap();
        w.append(&[0xc3; 64]).unwrap();
        w.append_batch(&[vec![1u8; 1000]]).unwrap();
        assert_eq!(
            file_digest(&path),
            want,
            "the WAL format moved under {profile:?}"
        );
    }
}

/// The names of the files under `dir` this process holds open, one entry
/// per descriptor (an unlinked file keeps its name, marked `(deleted)`).
fn open_files_under(dir: &std::path::Path) -> Vec<String> {
    let prefix = format!("{}/", dir.display());
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter_map(|target| {
            let target = target.to_string_lossy().into_owned();
            target.strip_prefix(&prefix).map(str::to_string)
        })
        .collect();
    names.sort();
    names
}

/// An open table holds one descriptor for as long as it lives, and no
/// longer: after flushes, compactions and a collection the store holds
/// exactly one per live table plus its open logs. A cursor that still
/// holds a table the store retired and deleted mid-scan reads it to the
/// end, every block verified, and its descriptor closes with the cursor.
#[test]
fn open_tables_hold_one_descriptor_each_and_release_it_on_retirement() {
    use treaty_store::sstable::{self, SsTable};

    let dir = tempfile::tempdir().unwrap();
    let root = std::fs::canonicalize(dir.path()).unwrap();
    let env = Env::for_testing(SecurityProfile::treaty_full(), &root);
    let store = TreatyStore::open(Rc::clone(&env)).unwrap();
    let value = |i: u32| format!("value-{i}-{}", "z".repeat(400)).into_bytes();
    for i in 0..200u32 {
        put(&store, format!("key-{i:04}").as_bytes(), &value(i));
    }
    store.gc();
    let stats = store.stats();
    assert!(stats.flushes >= 4, "expected four flushes, got {stats:?}");
    assert!(
        stats.compactions >= 1,
        "expected a compaction, got {stats:?}"
    );
    assert!(
        stats.files_deleted >= 1,
        "expected a collection, got {stats:?}"
    );

    let live_names = || -> Vec<String> {
        store
            .live_file_ids()
            .into_iter()
            .map(sstable::file_name)
            .collect()
    };
    let held = open_files_under(&root);
    let (tables, logs): (Vec<String>, Vec<String>) =
        held.into_iter().partition(|n| n.starts_with("sst-"));
    assert_eq!(tables, live_names(), "one descriptor per live table");
    let newest = newest_wal(&root);
    let wal = newest.file_name().unwrap().to_string_lossy();
    assert_eq!(logs, vec!["MANIFEST".to_string(), wal.into_owned()]);

    // A cursor of its own holds the oldest live table, one record in; the
    // store then compacts the table away and deletes its file.
    let victim_id = store.live_file_ids()[0];
    let victim = sstable::file_name(victim_id);
    let path = root.join(&victim);
    let table = Rc::new(SsTable::open(Rc::clone(&env), victim_id).unwrap());
    let entries = table.meta().entries;
    let mut cursor = table.range_cursor(b"", false);
    drop(table);
    let mut seen = u64::from(cursor.next().unwrap().is_some());
    let mut i = 200u32;
    while store.live_file_ids().contains(&victim_id) {
        assert!(i < 2_000, "table {victim_id} never retired");
        put(&store, format!("key-{:04}", i % 300).as_bytes(), &value(i));
        i += 1;
    }
    store.gc();
    assert!(!path.exists(), "the retired table was collected");
    let held_victim = |names: Vec<String>| names.iter().filter(|n| n.contains(&victim)).count();
    assert_eq!(
        held_victim(open_files_under(&root)),
        1,
        "the cursor's alone"
    );

    while let Some(_record) = cursor.next().unwrap() {
        seen += 1;
    }
    assert_eq!(seen, entries, "every record of every block");
    assert_eq!(held_victim(open_files_under(&root)), 1);
    drop(cursor);
    assert_eq!(
        held_victim(open_files_under(&root)),
        0,
        "closed with the cursor"
    );
    let (tables, _): (Vec<String>, Vec<String>) = open_files_under(&root)
        .into_iter()
        .partition(|n| n.starts_with("sst-"));
    assert_eq!(tables, live_names());
}

// ---- compaction moves what overlaps nothing ----------------------------------

/// Keys in ascending order, with the value `put` stores for them.
fn ascending(store: &TreatyStore, keys: std::ops::Range<u32>) {
    for i in keys {
        put(
            store,
            format!("key-{i:04}").as_bytes(),
            format!("value-{i}-{}", "z".repeat(400)).as_bytes(),
        );
    }
}

/// The names of the SSTable files in `dir`, sorted.
fn table_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("sst-"))
        .collect();
    names.sort();
    names
}

/// A load in ascending key order flushes tables that overlap nothing, so
/// every compaction moves them a level down with one MANIFEST edit: no
/// byte is rewritten, no table is collected, and a reopen rebuilds the
/// same levels from the edits.
#[test]
fn a_sequential_load_compacts_by_moving_tables() {
    let dir = tempfile::tempdir().unwrap();
    let (env, store) = open(SecurityProfile::treaty_full(), dir.path());
    ascending(&store, 0..200);
    let stats = store.stats();
    assert!(stats.flushes >= 4, "expected flushes, got {stats:?}");
    assert!(
        stats.compactions >= 2,
        "expected compactions, got {stats:?}"
    );
    assert!(stats.tables_moved >= stats.flushes, "{stats:?}");
    assert_eq!(stats.compaction_bytes_written, 0, "{stats:?}");
    let levels = level_ids(&store);
    assert!(levels[0].len() < 2, "L0 compacted: {levels:?}");
    assert!(
        levels[2..].iter().any(|l| !l.is_empty()),
        "a level-1 compaction moved tables on: {levels:?}"
    );
    for i in 0..200u32 {
        assert_eq!(
            store
                .get_committed(format!("key-{i:04}").as_bytes())
                .unwrap(),
            Some(format!("value-{i}-{}", "z".repeat(400)).into_bytes()),
            "key {i}"
        );
    }

    // The garbage collector never sees a moved table: every table file
    // ever written is still live and on disk.
    store.gc();
    let live: Vec<String> = store
        .live_file_ids()
        .into_iter()
        .map(treaty_store::sstable::file_name)
        .collect();
    assert_eq!(table_files(dir.path()), live);
    assert_eq!(live.len() as u64, stats.flushes);

    drop(store);
    let store = TreatyStore::open(env).unwrap();
    assert_eq!(level_ids(&store), levels, "replay re-levels moved tables");
    for i in (0..200u32).step_by(7) {
        assert_eq!(
            store
                .get_committed(format!("key-{i:04}").as_bytes())
                .unwrap(),
            Some(format!("value-{i}-{}", "z".repeat(400)).into_bytes()),
            "key {i} after the reopen"
        );
    }
}

/// A move drops no version, so it leaves the snapshot floor alone: a
/// snapshot pinned before a compaction that only moved tables still reads
/// what it saw, where a merge of the same tables would refuse it.
#[test]
fn a_snapshot_pinned_before_a_move_only_compaction_still_reads() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    ascending(&store, 0..10);
    let ts = store.stable_ts();
    store.flush().unwrap();
    ascending(&store, 10..20);
    // Tiny config compacts at two L0 tables; these two share no key.
    store.flush().unwrap();
    let stats = store.stats();
    assert!(stats.compactions >= 1, "{stats:?}");
    assert_eq!(stats.tables_moved, 2, "{stats:?}");
    assert_eq!(stats.compaction_bytes_written, 0, "{stats:?}");

    let value = |i: u32| format!("value-{i}-{}", "z".repeat(400)).into_bytes();
    assert_eq!(store.snapshot_get(b"key-0003", ts).unwrap(), Some(value(3)));
    assert_eq!(store.snapshot_get(b"key-0013", ts).unwrap(), None);
    let seen = store.snapshot_scan(b"key-", b"key-9", ts, 0).unwrap();
    assert_eq!(seen.len(), 10);
    assert_eq!(seen[9], (b"key-0009".to_vec(), value(9)));
    let fresh = store.stable_ts();
    assert_eq!(
        store
            .snapshot_scan(b"key-", b"key-9", fresh, 0)
            .unwrap()
            .len(),
        20
    );
}

/// Only a merge discards tombstones at the bottom level, so what a
/// compaction sends there merges even when it overlaps nothing: with
/// levels 64 bytes deep, an ascending load moves down to level 4 and is
/// rewritten into level 5, without the point tombstones it carried.
#[test]
fn nothing_moves_into_the_bottom_level() {
    let dir = tempfile::tempdir().unwrap();
    let config = treaty_store::EngineConfig {
        l1_bytes: 64,
        ..treaty_store::EngineConfig::tiny()
    };
    let env = Env::for_testing_with(SecurityProfile::treaty_full(), dir.path(), config);
    let store = TreatyStore::open(env).unwrap();
    for i in 0..200u32 {
        ascending(&store, i..i + 1);
        if i % 10 == 0 {
            let mut tx = store.begin_mode(TxnMode::Pessimistic);
            tx.delete(format!("key-{i:04}").as_bytes()).unwrap();
            tx.commit().unwrap();
        }
    }
    let stats = store.stats();
    assert!(stats.tables_moved > 0, "{stats:?}");
    assert!(stats.compaction_bytes_written > 0, "{stats:?}");
    let levels = store.level_tables();
    assert!(!levels[5].is_empty(), "the load reached the bottom");
    for table in &levels[5] {
        let mut cursor = table.range_cursor(b"", false);
        while let Some(record) = cursor.next().unwrap() {
            assert!(record.value.is_some(), "a tombstone reached the bottom");
        }
    }
    for i in 0..200u32 {
        let want = (i % 10 != 0).then(|| format!("value-{i}-{}", "z".repeat(400)).into_bytes());
        assert_eq!(
            store
                .get_committed(format!("key-{i:04}").as_bytes())
                .unwrap(),
            want,
            "key {i}"
        );
    }
}

/// Every level below L0 is a run of tables whose key ranges are pairwise
/// disjoint — what the read path's first-covering-table rule needs.
fn assert_levels_disjoint(store: &TreatyStore, what: &str) {
    for (n, level) in store.level_tables().iter().enumerate().skip(1) {
        for (i, a) in level.iter().enumerate() {
            for b in &level[i + 1..] {
                assert!(
                    !a.overlaps(b),
                    "{what}: level {n} tables {} and {} overlap",
                    a.meta().file_id,
                    b.meta().file_id
                );
            }
        }
    }
}

/// Each level's file ids, in the order reads visit them.
fn level_ids(store: &TreatyStore) -> Vec<Vec<u64>> {
    store
        .level_tables()
        .iter()
        .map(|level| level.iter().map(|t| t.meta().file_id).collect())
        .collect()
}

/// Every key up to `fresh` reads as `model` says, one scan returns the
/// model, and every level below L0 is pairwise disjoint.
fn check_against_model(
    store: &TreatyStore,
    model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    fresh: u32,
    what: &str,
) {
    for n in 0..fresh + 2 {
        let k = model_key(n);
        assert_eq!(
            store.get_committed(&k).unwrap(),
            model.get(&k).cloned(),
            "{what}: key {n}"
        );
    }
    let all: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(
        store.scan(b"m", b"n", u64::MAX, 0).unwrap(),
        all,
        "{what}: scan"
    );
    assert_levels_disjoint(store, what);
}

fn model_key(n: u32) -> Vec<u8> {
    format!("m{n:05}").into_bytes()
}

/// A differential test of compaction: ascending runs of fresh keys (whose
/// tables move), random updates, deletes and range deletes over the keys
/// written so far (whose tables merge), and crashes. After every
/// maintenance pass and every reopen each key reads as a `BTreeMap` says,
/// a full scan returns the model, and every level below L0 is pairwise
/// disjoint. Across the seeds, tables both move and merge.
#[test]
fn compaction_moves_and_merges_like_a_model() {
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    let (mut moved, mut merged_bytes) = (0, 0);
    for seed in 0..4u64 {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let mut store = TreatyStore::open(Rc::clone(&env)).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut fresh = 0u32;
        let mut passes = 0;
        for step in 0..60u32 {
            let what = format!("seed {seed} step {step}");
            let (run, mixed) = match rng.gen_range(0..100u32) {
                0..=54 => (rng.gen_range(10..60u32), 0),
                55..=94 if fresh > 0 => (0, rng.gen_range(5..30u32)),
                95..=96 => {
                    store.flush().unwrap();
                    (0, 0)
                }
                _ => {
                    // Crash: drop without shutdown, recover from WAL + tables.
                    drop(store);
                    store = TreatyStore::open(Rc::clone(&env)).unwrap();
                    check_against_model(&store, &model, fresh, &format!("{what}, reopened"));
                    (0, 0)
                }
            };
            // An ascending run of fresh keys, then random updates, deletes
            // and range deletes; one transaction each.
            for t in 0..run + mixed {
                let mut tx = store.begin_mode(TxnMode::Pessimistic);
                if t < run {
                    let v = format!("a{seed}-{step}-{}", "v".repeat(rng.gen_range(100..400)));
                    tx.put(&model_key(fresh), v.as_bytes()).unwrap();
                    model.insert(model_key(fresh), v.into_bytes());
                    fresh += 1;
                } else {
                    let n = rng.gen_range(0..fresh);
                    match rng.gen_range(0..10u32) {
                        0..=5 => {
                            let v = format!("u{seed}-{step}-{}", "w".repeat(rng.gen_range(0..300)));
                            tx.put(&model_key(n), v.as_bytes()).unwrap();
                            model.insert(model_key(n), v.into_bytes());
                        }
                        6..=7 => {
                            tx.delete(&model_key(n)).unwrap();
                            model.remove(&model_key(n));
                        }
                        _ => {
                            let (lo, hi) = (model_key(n), model_key(n + rng.gen_range(1..20u32)));
                            tx.delete_range(&lo, &hi).unwrap();
                            let doomed: Vec<_> =
                                model.range(lo..hi).map(|(k, _)| k.clone()).collect();
                            for d in doomed {
                                model.remove(&d);
                            }
                        }
                    }
                }
                tx.commit().unwrap();
                // Outside the runtime each rotation drains its own
                // maintenance: a new flush or compaction count means a
                // pass just ran.
                let st = store.stats();
                if st.flushes + st.compactions != passes {
                    passes = st.flushes + st.compactions;
                    check_against_model(&store, &model, fresh, &what);
                }
            }
        }
        drop(store);
        let store = TreatyStore::open(Rc::clone(&env)).unwrap();
        check_against_model(&store, &model, fresh, &format!("seed {seed}, final reopen"));
        let st = store.stats();
        moved += st.tables_moved;
        merged_bytes += st.compaction_bytes_written;
    }
    assert!(moved > 0, "no compaction moved a table");
    assert!(merged_bytes > 0, "no compaction merged a table");
}

/// A merge cuts its output between two keys, and a range tombstone that
/// spans the cut is split there: the left output's fragment ends at the
/// right output's first key. That key is the left output's upper bound
/// but not in its range, so a read of it must go on to the right output.
#[test]
fn a_key_on_a_compaction_cut_under_a_range_tombstone_reads() {
    let dir = tempfile::tempdir().unwrap();
    let (_env, store) = open(SecurityProfile::treaty_full(), dir.path());
    let key = |i: u32| format!("k{i:03}").into_bytes();
    let value = |i: u32, round: u32| format!("v{round}-{i}-{}", "z".repeat(400)).into_bytes();
    for i in 0..100 {
        put(&store, &key(i), &value(i, 0));
    }
    let mut tx = store.begin_mode(TxnMode::Pessimistic);
    tx.delete_range(&key(0), &key(100)).unwrap();
    tx.commit().unwrap();
    for i in 0..100 {
        put(&store, &key(i), &value(i, 1));
    }
    store.flush().unwrap();
    let levels = store.level_tables();
    assert!(levels[1].len() >= 2, "the merge cut its output");
    for pair in levels[1].windows(2) {
        let (left, right) = (pair[0].meta(), pair[1].meta());
        assert_eq!(left.max_key, right.min_key, "the tombstone spans the cut");
        assert!(!pair[0].covers(&right.min_key));
        assert!(!pair[0].overlaps(&pair[1]));
    }
    for i in 0..100 {
        assert_eq!(
            store.get_committed(&key(i)).unwrap(),
            Some(value(i, 1)),
            "key {i}"
        );
    }
}
