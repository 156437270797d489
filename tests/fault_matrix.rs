//! The crash-point fault matrix: one cell per (crash point × role ×
//! intended outcome), each cell a full crash/restart/recover episode
//! checked against the recovery oracle.
//!
//! Every cell runs the same script on a fresh 3-node cluster:
//!
//! 1. a seed list-append transaction commits on every key (acked — it
//!    must survive everything that follows),
//! 2. the crash plan is armed for exactly one `(point, node)` pair,
//! 3. a doomed list-append transaction runs; abort cells partition the
//!    coordinator from the third shard *after* the ops so the 2PC vote
//!    phase — not the op phase — fails,
//! 4. the armed crash fires mid-protocol and freezes the node,
//! 5. the network heals, the crashed node restarts, and
//!    `resolve_recovered` re-drives / resolves whatever was in flight,
//! 6. the oracle runs: the doomed appends are all-or-nothing across
//!    shards, acked outcomes are honored, no prepared transaction
//!    outlives recovery, and the surviving history is serializable.
//!
//! Abort cells additionally bounce the partitioned third shard before
//! recovery: its participant transaction never prepared, so its locks are
//! volatile by design — a real deployment sheds them with a session
//! timeout, the simulation sheds them with a restart.
//!
//! The transcript of the whole matrix (virtual crash times included) is
//! asserted byte-identical across runs: the harness is deterministic.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use treaty::core::client::client_net;
use treaty::core::clog::{ClogRecord, CLOG_FILE, CLOG_NAME};
use treaty::core::cluster::{wire_crypto, COUNTER_BASE, COUNTER_CLIENT_BASE};
use treaty::core::messages::{decode, encode, req, PeerMsg, PeerReply};
use treaty::core::{check_list_append, Cluster, ClusterOptions, TreatyError, TxnObservation};
use treaty::crypto::codec::Record as _;
use treaty::crypto::{MsgKind, TxMeta};
use treaty::net::{Rpc, RpcConfig};
use treaty::sched::block_on;
use treaty::sim::crashpoint::{self, CrashPoint, FaultSchedule};
use treaty::sim::runtime::{join, now, sleep, spawn};
use treaty::sim::{SecurityProfile, MICROS, MILLIS, SECONDS};
use treaty::store::log::{counter_id, replay};
use treaty::store::{EngineConfig, GlobalTxId, TxnEngine as _};

/// Endpoint of the coordinator every transaction uses.
const COORD: u32 = 1;
/// Endpoint of the participant crashed in `part.*` / `store.*` cells.
const PART: u32 = 2;
/// Endpoint of the shard partitioned away in abort cells.
const SPARE: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cfg {
    /// All shards healthy: the doomed transaction would commit.
    Commit,
    /// Coordinator partitioned from `SPARE` before the vote phase: the
    /// doomed transaction must abort (or stay unacked).
    Abort,
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    point: CrashPoint,
    /// Endpoint the armed crash takes down.
    crash: u32,
    cfg: Cfg,
    /// Single coordinator-local key: exercises the 1PC fast path.
    local_only: bool,
    /// Doomed transaction also writes a ~20 KiB value to a `PART`-owned
    /// key: its commit apply overflows the tiny MemTable, so the
    /// background maintenance daemon runs (and can crash) on `PART`.
    filler: bool,
    /// Commit one unarmed filler transaction first so the doomed flush
    /// produces the second L0 table and makes compaction due.
    prefill: bool,
}

const fn cell(point: CrashPoint, crash: u32, cfg: Cfg) -> Cell {
    Cell {
        point,
        crash,
        cfg,
        local_only: false,
        filler: false,
        prefill: false,
    }
}

/// The full matrix: every registered crash point, coordinator and
/// participant roles, commit and abort outcomes where reachable.
fn cells() -> Vec<Cell> {
    let mut v = Vec::new();
    for p in [
        CrashPoint::CoordAfterClogStart,
        CrashPoint::CoordAfterPrepareFanout,
        CrashPoint::CoordAfterVotes,
        CrashPoint::CoordAfterLogDecision,
        CrashPoint::CoordMidDecisionFanout,
        CrashPoint::CoordAfterDecisionSend,
        CrashPoint::CoordBeforeClientReply,
    ] {
        v.push(cell(p, COORD, Cfg::Commit));
        v.push(cell(p, COORD, Cfg::Abort));
    }
    // Past the commit point there is no abort left to crash in.
    for p in [CrashPoint::CoordCommitPoint, CrashPoint::CoordFinishStable] {
        v.push(cell(p, COORD, Cfg::Commit));
    }
    for p in [CrashPoint::PartBeforePrepare, CrashPoint::PartAfterPrepare] {
        v.push(cell(p, PART, Cfg::Commit));
        v.push(cell(p, PART, Cfg::Abort));
    }
    // The decision-application points are only reachable under the
    // matching decision.
    v.push(cell(CrashPoint::PartAfterCommitApply, PART, Cfg::Commit));
    v.push(cell(CrashPoint::PartAfterAbortApply, PART, Cfg::Abort));
    v.push(cell(CrashPoint::ClogDecisionAppended, COORD, Cfg::Commit));
    v.push(cell(CrashPoint::ClogDecisionAppended, COORD, Cfg::Abort));
    v.push(cell(CrashPoint::StorePrepareLogged, PART, Cfg::Commit));
    v.push(cell(CrashPoint::StorePrepareLogged, PART, Cfg::Abort));
    // The local group-commit point never runs 2PC: a single
    // coordinator-owned key commits through the one-phase path.
    v.push(Cell {
        point: CrashPoint::StoreCommitLogged,
        crash: COORD,
        cfg: Cfg::Commit,
        local_only: true,
        filler: false,
        prefill: false,
    });
    // Background maintenance points: only a committed apply flushes, so
    // these are commit-only. The crash lands on the participant's
    // maintenance daemon, after the doomed writes are WAL-durable but
    // before (flush) or between (compaction) SSTable builds.
    v.push(Cell {
        point: CrashPoint::StoreBgFlushStart,
        crash: PART,
        cfg: Cfg::Commit,
        local_only: false,
        filler: true,
        prefill: false,
    });
    v.push(Cell {
        point: CrashPoint::StoreBgCompactStart,
        crash: PART,
        cfg: Cfg::Commit,
        local_only: false,
        filler: true,
        prefill: true,
    });
    v
}

fn options(dir: &std::path::Path) -> ClusterOptions {
    let mut o = ClusterOptions::new(SecurityProfile::treaty_full(), dir.to_path_buf());
    o.engine_config = EngineConfig::tiny();
    o
}

/// `n` keys per node, ordered by owner endpoint for determinism.
fn keys_per_node(cluster: &Cluster, n: usize) -> BTreeMap<u32, Vec<Vec<u8>>> {
    let nodes = cluster.node_endpoints().len();
    let mut found: BTreeMap<u32, Vec<Vec<u8>>> = BTreeMap::new();
    for i in 0..10_000u32 {
        let k = format!("spread-{i}").into_bytes();
        let owned = found.entry(cluster.shard_map().owner(&k)).or_default();
        if owned.len() < n {
            owned.push(k);
        }
        if found.len() == nodes && found.values().all(|v| v.len() == n) {
            break;
        }
    }
    found
}

/// One key per node.
fn key_per_node(cluster: &Cluster) -> BTreeMap<u32, Vec<u8>> {
    keys_per_node(cluster, 1)
        .into_iter()
        .map(|(node, mut keys)| (node, keys.remove(0)))
        .collect()
}

/// Runs one matrix cell; panics on any oracle violation and returns the
/// cell's transcript line.
fn run_cell(c: Cell) -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        // Install before the cluster boots so the nodes register their
        // crash handlers (the handler stops the node's RPC endpoint).
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = if c.local_only {
            vec![key_per_node(&cluster).remove(&COORD).unwrap()]
        } else {
            key_per_node(&cluster).into_values().collect()
        };

        // 1. Seed transaction: acked before any fault is armed.
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let seed_gtx = tx.gtx();
        let mut seed_obs = TxnObservation {
            id: seed_gtx,
            reads: Vec::new(),
            appends: Vec::new(),
        };
        for k in &keys {
            let cur = tx.get(k).expect("seed read failed");
            let mut list: Vec<GlobalTxId> = cur.map(|b| decode(&b).unwrap()).unwrap_or_default();
            seed_obs.reads.push((k.clone(), list.clone()));
            list.push(seed_gtx);
            tx.put(k, &encode(&list)).expect("seed write failed");
            seed_obs.appends.push(k.clone());
        }
        tx.commit().expect("seed commit failed");

        // The commit path is pipelined: the seed's ack can race its
        // phase-2 dispatch and background flush work. Let the daemons
        // drain before arming, so the armed hit count is reached by the
        // doomed transaction alone.
        sleep(50 * MILLIS);

        let filler_key: Option<Vec<u8>> = c.filler.then(|| {
            (0..10_000u32)
                .map(|i| format!("filler-{i}").into_bytes())
                .find(|k| cluster.shard_map().owner(k) == PART)
                .expect("no PART-owned filler key in 10k probes")
        });
        let filler_val = vec![0x66u8; 20 << 10];
        if c.prefill {
            // First L0 table, built before the fault is armed: the doomed
            // flush then makes `l0_compaction_trigger` (2) due.
            let mut tx = client.begin(COORD);
            tx.put(filler_key.as_ref().unwrap(), &filler_val)
                .expect("prefill write failed");
            tx.commit().expect("prefill commit failed");
            sleep(200 * MILLIS); // background build of table #1
        }

        // 2. Arm the crash.
        plan.arm(FaultSchedule::new().crash_at(c.point, c.crash, 1));

        // 3. The doomed transaction.
        let mut tx = client.begin(COORD);
        let doomed_gtx = tx.gtx();
        let mut doomed_obs = TxnObservation {
            id: doomed_gtx,
            reads: Vec::new(),
            appends: Vec::new(),
        };
        for k in &keys {
            let cur = tx.get(k).expect("doomed read failed");
            let mut list: Vec<GlobalTxId> = cur.map(|b| decode(&b).unwrap()).unwrap_or_default();
            doomed_obs.reads.push((k.clone(), list.clone()));
            list.push(doomed_gtx);
            tx.put(k, &encode(&list)).expect("doomed write failed");
            doomed_obs.appends.push(k.clone());
        }
        if let Some(fk) = &filler_key {
            tx.put(fk, &filler_val).expect("filler write failed");
        }
        if c.cfg == Cfg::Abort {
            // Cut coordinator → SPARE *after* the ops: the prepare (and any
            // decision) to that shard is lost, so the vote phase fails.
            cluster.fabric().with_adversary(|a| {
                a.partitions.insert((COORD, SPARE));
            });
        }
        let acked = match tx.commit() {
            Ok(()) => 'C',
            Err(TreatyError::Aborted(..)) => 'A',
            Err(_) => 'U', // unacked: timeout / coordinator down
        };

        // 4. Drain the retry trains, then heal.
        sleep(4 * SECONDS);
        cluster.fabric().with_adversary(|a| a.partitions.clear());

        let fired = plan.fired();
        assert_eq!(
            fired.len(),
            1,
            "cell {} n{} {:?}: expected exactly one crash, got {fired:?}",
            c.point,
            c.crash,
            c.cfg
        );
        assert_eq!(fired[0].point, c.point);
        assert_eq!(fired[0].node, c.crash);
        let fired_at = fired[0].at;

        // 5. Restart and recover. Abort cells also bounce the partitioned
        // shard: its never-prepared participant transaction holds only
        // volatile locks, which a restart (= session timeout) sheds.
        cluster.crash_node((c.crash - 1) as usize);
        cluster.restart_node((c.crash - 1) as usize).unwrap();
        if c.cfg == Cfg::Abort {
            cluster.crash_node((SPARE - 1) as usize);
            cluster.restart_node((SPARE - 1) as usize).unwrap();
        }
        let rec = cluster.resolve_recovered();
        assert_eq!(
            rec.failed, 0,
            "cell {} n{} {:?}: recovery re-drive failed: {rec:?}",
            c.point, c.crash, c.cfg
        );

        // 6. The oracle. Final reads retry: residual lock releases from
        // recovery may be a few virtual milliseconds behind.
        let reader = cluster.client();
        let mut finals: HashMap<Vec<u8>, Vec<GlobalTxId>> = HashMap::new();
        'read: for attempt in 0..10 {
            finals.clear();
            let mut tx = reader.begin(COORD);
            let mut ok = true;
            for k in &keys {
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
            assert!(
                attempt < 9,
                "cell {} n{} {:?}: final read never succeeded",
                c.point,
                c.crash,
                c.cfg
            );
            sleep(100 * MILLIS);
        }

        // Acked commits survive...
        for k in &keys {
            assert!(
                finals.get(k).is_some_and(|l| l.contains(&seed_gtx)),
                "cell {} n{} {:?}: acked seed append lost on key {:?}",
                c.point,
                c.crash,
                c.cfg,
                String::from_utf8_lossy(k)
            );
        }
        // ...and the doomed transaction is all-or-nothing.
        let present: Vec<bool> = keys
            .iter()
            .map(|k| finals.get(k).is_some_and(|l| l.contains(&doomed_gtx)))
            .collect();
        let all = present.iter().all(|&p| p);
        let none = present.iter().all(|&p| !p);
        assert!(
            all || none,
            "cell {} n{} {:?}: half-committed across shards: {present:?}",
            c.point,
            c.crash,
            c.cfg
        );
        match acked {
            'C' => assert!(
                all,
                "cell {} n{} {:?}: acked Committed but appends missing",
                c.point, c.crash, c.cfg
            ),
            'A' => assert!(
                none,
                "cell {} n{} {:?}: acked Aborted but appends survived",
                c.point, c.crash, c.cfg
            ),
            _ => {}
        }

        // No prepared transaction outlives recovery.
        for i in 0..cluster.node_endpoints().len() {
            if let Some(store) = cluster.store(i) {
                let prepared = store.prepared_txns();
                assert!(
                    prepared.is_empty(),
                    "cell {} n{} {:?}: prepared locks leaked on node {}: {prepared:?}",
                    c.point,
                    c.crash,
                    c.cfg,
                    i + 1
                );
            }
        }

        // The surviving history is serializable.
        let mut observations = vec![seed_obs];
        if all {
            observations.push(doomed_obs);
        }
        if let Err(e) = check_list_append(&observations, &finals) {
            panic!("cell {} n{} {:?}: {e}", c.point, c.crash, c.cfg);
        }

        let mask: String = present.iter().map(|&p| if p { '1' } else { '0' }).collect();
        format!(
            "{point} crash=n{node} cfg={cfg:?} fired@{at} acked={acked} doomed={mask}",
            point = c.point,
            node = c.crash,
            cfg = c.cfg,
            at = fired_at,
        )
    })
}

fn run_matrix() -> String {
    let mut lines = Vec::new();
    for c in cells() {
        lines.push(run_cell(c));
    }
    lines.join("\n")
}

/// Every cell fires its crash and the recovery oracle holds.
#[test]
fn fault_matrix_holds_recovery_oracle() {
    let transcript = run_matrix();
    println!("{transcript}");
    assert_eq!(transcript.lines().count(), cells().len());
    let points: BTreeSet<&str> = transcript
        .lines()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert!(
        points.len() >= 10,
        "matrix must cover at least 10 distinct crash points, got {points:?}"
    );
    assert!(points.iter().any(|p| p.starts_with("coord.")));
    assert!(points.iter().any(|p| p.starts_with("part.")));
}

/// The matrix transcript — including virtual crash times — is
/// byte-identical across runs for a fixed seed.
#[test]
fn fault_matrix_is_deterministic() {
    assert_eq!(run_matrix(), run_matrix());
}

/// The read-only fault cell: a participant dies *inside* the snapshot-read
/// handler (`part.snapshot_read`). Snapshot reads hold no 2PC state — no
/// prepares, no coordinator entry, and zero lock-table traffic — so the
/// crash must leak nothing: recovery re-drives zero transactions, every
/// lock table drains to empty, and the seeded data reads back intact on
/// both the snapshot and the locking path.
fn run_snapshot_read_cell() -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();

        // Seed every shard; acked, so it must survive the episode.
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"stable-value").expect("seed write failed");
        }
        tx.commit().expect("seed commit failed");
        sleep(50 * MILLIS);

        // Arm: the participant crashes mid read-only transaction.
        plan.arm(FaultSchedule::new().crash_at(CrashPoint::PartSnapshotRead, PART, 1));
        let acked = match client.snapshot_read(&keys) {
            Ok(_) => 'C', // the burst raced the crash and still answered
            Err(TreatyError::Net(_)) => 'U',
            Err(TreatyError::Rejected(_)) => 'R',
            Err(e) => panic!("unexpected snapshot failure mode: {e}"),
        };

        sleep(SECONDS);
        let fired = plan.fired();
        assert_eq!(fired.len(), 1, "expected exactly one crash, got {fired:?}");
        assert_eq!(fired[0].point, CrashPoint::PartSnapshotRead);
        assert_eq!(fired[0].node, PART);
        let fired_at = fired[0].at;

        cluster.crash_node((PART - 1) as usize);
        cluster.restart_node((PART - 1) as usize).unwrap();
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "recovery re-drive failed: {rec:?}");
        assert_eq!(
            (rec.re_decided, rec.resolved),
            (0, 0),
            "a crash mid read-only txn must leave nothing in flight: {rec:?}"
        );

        // Nothing leaked: every lock table is empty, no prepared txns.
        for i in 0..cluster.node_endpoints().len() {
            if let Some(store) = cluster.store(i) {
                assert_eq!(
                    store.locked_keys(),
                    0,
                    "node {}: snapshot-read crash leaked locks",
                    i + 1
                );
                assert!(
                    store.prepared_txns().is_empty(),
                    "node {}: snapshot-read crash leaked prepared state",
                    i + 1
                );
            }
        }

        // The acked seed reads back on both paths after recovery.
        let reader = cluster.client();
        let snap = reader.snapshot_read(&keys).expect("post-recovery snapshot");
        assert!(
            snap.iter()
                .all(|v| v.as_deref() == Some(&b"stable-value"[..])),
            "seeded data lost across the read-only crash: {snap:?}"
        );
        let mut tx = reader.begin(COORD);
        for (k, sv) in keys.iter().zip(&snap) {
            assert_eq!(tx.get(k).expect("locked read"), *sv);
        }
        tx.commit().expect("locked verify commit");

        format!(
            "part.snapshot_read crash=n{PART} fired@{fired_at} acked={acked} \
             rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// A node crash mid read-only snapshot transaction leaks no locks, leaves
/// recovery with nothing to re-drive, and produces a byte-identical
/// transcript across runs — the read path is invisible to recovery.
#[test]
fn snapshot_read_crash_leaks_no_locks_and_recovery_is_unchanged() {
    let t1 = run_snapshot_read_cell();
    println!("{t1}");
    assert_eq!(
        t1,
        run_snapshot_read_cell(),
        "snapshot-read fault cell must be deterministic"
    );
}

/// The read-only-lane fault cell: a participant dies *inside* the
/// read-only finish (`part.read_only_finish`) — it has taken the engine
/// transaction out of its table but neither validated nor voted. The lane
/// logs nothing anywhere, so the crash must leave nothing behind: no Clog
/// record for recovery to re-drive, no prepared entry, no lock on any node
/// (the survivors released at their own finish, the victim's were volatile),
/// and the client is told `Aborted`, never `Committed`.
fn run_read_only_finish_cell() -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();

        let client = cluster.client();
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"stable-value").expect("seed write failed");
        }
        tx.commit().expect("seed commit failed");
        sleep(50 * MILLIS);

        plan.arm(FaultSchedule::new().crash_at(CrashPoint::PartReadOnlyFinish, PART, 1));
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        for k in &keys {
            assert_eq!(
                tx.get(k).expect("locked read"),
                Some(b"stable-value".to_vec())
            );
        }
        let acked = match tx.commit() {
            Ok(()) => panic!("a participant that never voted cannot commit the lane"),
            Err(TreatyError::Aborted(..)) => 'A',
            Err(TreatyError::Net(_)) => 'U',
            Err(e) => panic!("unexpected read-only commit failure mode: {e}"),
        };

        sleep(SECONDS);
        let fired = plan.fired();
        assert_eq!(fired.len(), 1, "expected exactly one crash, got {fired:?}");
        assert_eq!(fired[0].point, CrashPoint::PartReadOnlyFinish);
        assert_eq!(fired[0].node, PART);
        let fired_at = fired[0].at;

        cluster.crash_node((PART - 1) as usize);
        cluster.restart_node((PART - 1) as usize).unwrap();
        let rec = cluster.resolve_recovered();
        assert_eq!(
            (rec.re_decided, rec.resolved, rec.failed),
            (0, 0, 0),
            "the read-only lane must give recovery nothing to re-drive: {rec:?}"
        );
        let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
        assert_eq!(
            clog.protocol_state(gtx),
            None,
            "the lane wrote a Clog record"
        );

        for i in 0..cluster.node_endpoints().len() {
            let store = cluster.store(i).expect("durable cluster");
            assert_eq!(
                store.locked_keys(),
                0,
                "node {}: read-only finish crash leaked locks",
                i + 1
            );
            assert!(
                store.prepared_txns().is_empty(),
                "node {}: read-only finish crash left a prepared entry",
                i + 1
            );
        }

        // The data is untouched and writable again.
        let writer = cluster.client();
        let mut tx = writer.begin(COORD);
        for k in &keys {
            assert_eq!(tx.get(k).unwrap(), Some(b"stable-value".to_vec()));
            tx.put(k, b"after").unwrap();
        }
        tx.commit().expect("post-recovery write commit");

        format!(
            "part.read_only_finish crash=n{PART} fired@{fired_at} acked={acked} \
             rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// A participant crash inside the read-only finish leaves no locks and no
/// prepared entries, gives recovery nothing to re-drive, and is
/// transcript-identical across runs.
#[test]
fn read_only_finish_crash_leaves_nothing_behind() {
    let t1 = run_read_only_finish_cell();
    println!("{t1}");
    assert_eq!(
        t1,
        run_read_only_finish_cell(),
        "read-only finish fault cell must be deterministic"
    );
}

/// The coalesced-fan-out fault cell: the coordinator dies at
/// `coord.ops_fanout` — after the per-shard `PEER_OPS` burst left its
/// endpoint, before any reply was drained or a prepare was sent. The
/// shipped list never reached the commit protocol (no Clog start, no
/// prepares), so the participants' speculative applies hold only volatile
/// locks: bouncing them (= session timeout) must shed everything, and the
/// doomed writes must be visible nowhere. The op that ships the buffered
/// writes is a point read, or with `scan` a range scan fanned out to every
/// shard behind them.
fn run_ops_fanout_cell(scan: bool) -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();

        // Acked seed on every shard; must survive the episode.
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"stable-value").expect("seed write failed");
        }
        tx.commit().expect("seed commit failed");
        sleep(50 * MILLIS);

        plan.arm(FaultSchedule::new().crash_at(CrashPoint::CoordOpsFanout, COORD, 1));

        // Doomed: buffered writes to all three shards, then a read outside
        // the buffer — the writes ship ahead of it in one list and the
        // coordinator dies mid fan-out.
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"doomed")
                .expect("buffered put never hits the wire");
        }
        let shipped = if scan {
            tx.scan(b"", b"\xff", 0).map(|_| ())
        } else {
            tx.get(b"batch-fanout-flush-trigger").map(|_| ())
        };
        let acked = match shipped {
            Ok(()) => 'C',
            Err(TreatyError::Aborted(..)) => 'A',
            Err(TreatyError::Net(_)) => 'U',
            Err(_) => 'R',
        };

        sleep(4 * SECONDS);
        let fired = plan.fired();
        assert_eq!(fired.len(), 1, "expected exactly one crash, got {fired:?}");
        assert_eq!(fired[0].point, CrashPoint::CoordOpsFanout);
        assert_eq!(fired[0].node, COORD);
        let fired_at = fired[0].at;

        // Restart the coordinator; bounce both participants too — their
        // speculative batch applies never prepared, so their locks are
        // volatile by design and a restart sheds them.
        cluster.crash_node((COORD - 1) as usize);
        cluster.restart_node((COORD - 1) as usize).unwrap();
        for n in [PART, SPARE] {
            cluster.crash_node((n - 1) as usize);
            cluster.restart_node((n - 1) as usize).unwrap();
        }
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "recovery re-drive failed: {rec:?}");
        assert_eq!(
            (rec.re_decided, rec.resolved),
            (0, 0),
            "a batch that never reached prepare must be invisible to recovery: {rec:?}"
        );

        // Nothing leaked and nothing is visible.
        for i in 0..cluster.node_endpoints().len() {
            if let Some(store) = cluster.store(i) {
                assert_eq!(
                    store.locked_keys(),
                    0,
                    "node {}: batch fan-out crash leaked locks",
                    i + 1
                );
                assert!(
                    store.prepared_txns().is_empty(),
                    "node {}: batch fan-out crash leaked prepared state",
                    i + 1
                );
            }
        }
        let reader = cluster.client();
        let mut tx = reader.begin(SPARE);
        for k in &keys {
            assert_eq!(
                tx.get(k).expect("post-recovery read"),
                Some(b"stable-value".to_vec()),
                "all-or-nothing violated: doomed batch write surfaced"
            );
        }
        tx.commit().expect("verify commit");

        format!(
            "coord.ops_fanout scan={scan} crash=n{COORD} fired@{fired_at} acked={acked} \
             rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// A coordinator crash between the batch fan-out and the prepare phase
/// leaves no prepared locks, nothing for recovery to re-drive, no doomed
/// write visible anywhere — and the episode is byte-deterministic.
#[test]
fn batch_fanout_crash_is_invisible_after_recovery() {
    for scan in [false, true] {
        let t1 = run_ops_fanout_cell(scan);
        println!("{t1}");
        assert_eq!(
            t1,
            run_ops_fanout_cell(scan),
            "ops fan-out fault cell must be deterministic"
        );
    }
}

/// The participant-side batching fault cell: `PART` dies at
/// `part.batch_apply`, mid-way through applying a shipped `PEER_OPS` slice.
/// The coordinator's reply drain fails, it aborts everywhere (freeing the
/// other participant's speculative locks), and the client sees a clean
/// abort: the batch is all-or-nothing — in this cell, "nothing".
fn run_batch_apply_cell() -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();

        let client = cluster.client();
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"stable-value").expect("seed write failed");
        }
        tx.commit().expect("seed commit failed");
        sleep(50 * MILLIS);

        plan.arm(FaultSchedule::new().crash_at(CrashPoint::PartBatchApply, PART, 1));

        // Doomed: buffered writes spanning all shards; the flush fans the
        // batch out and PART dies while applying its slice.
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"doomed")
                .expect("buffered put never hits the wire");
        }
        let acked = match tx.get(b"batch-apply-flush-trigger") {
            Ok(_) => 'C',
            Err(TreatyError::Aborted(..)) => 'A',
            Err(TreatyError::Net(_)) => 'U',
            Err(_) => 'R',
        };

        sleep(4 * SECONDS);
        let fired = plan.fired();
        assert_eq!(fired.len(), 1, "expected exactly one crash, got {fired:?}");
        assert_eq!(fired[0].point, CrashPoint::PartBatchApply);
        assert_eq!(fired[0].node, PART);
        let fired_at = fired[0].at;

        cluster.crash_node((PART - 1) as usize);
        cluster.restart_node((PART - 1) as usize).unwrap();
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "recovery re-drive failed: {rec:?}");
        assert_eq!(
            (rec.re_decided, rec.resolved),
            (0, 0),
            "a batch that never prepared must be invisible to recovery: {rec:?}"
        );

        // The coordinator's abort freed every speculative lock on the
        // surviving nodes; the bounced participant shed its own.
        for i in 0..cluster.node_endpoints().len() {
            if let Some(store) = cluster.store(i) {
                assert_eq!(
                    store.locked_keys(),
                    0,
                    "node {}: mid-batch-apply crash leaked locks",
                    i + 1
                );
                assert!(
                    store.prepared_txns().is_empty(),
                    "node {}: mid-batch-apply crash leaked prepared state",
                    i + 1
                );
            }
        }
        let reader = cluster.client();
        let mut tx = reader.begin(SPARE);
        for k in &keys {
            assert_eq!(
                tx.get(k).expect("post-recovery read"),
                Some(b"stable-value".to_vec()),
                "all-or-nothing violated: doomed batch write surfaced"
            );
        }
        tx.commit().expect("verify commit");

        format!(
            "part.batch_apply crash=n{PART} fired@{fired_at} acked={acked} \
             rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// A participant crash mid batch apply aborts the transaction cleanly:
/// no lock or prepared-state leak on any node, the doomed writes are
/// visible nowhere, and the episode is byte-deterministic.
#[test]
fn batch_apply_crash_aborts_cleanly_everywhere() {
    let t1 = run_batch_apply_cell();
    println!("{t1}");
    assert_eq!(
        t1,
        run_batch_apply_cell(),
        "batch apply fault cell must be deterministic"
    );
}

/// The flight recorder rides the fault matrix: an armed crash leaves one
/// parseable post-mortem dump naming the fired point, carrying the
/// crashed node's recent trace events and the counter snapshot.
#[test]
fn armed_crash_leaves_a_parseable_flight_dump() {
    let cluster_dir = tempfile::tempdir().unwrap();
    let flight_dir = tempfile::tempdir().unwrap();
    let flight = flight_dir.path().join("dumps");
    let flight2 = flight.clone();
    let path = cluster_dir.path().to_path_buf();
    block_on(move || {
        let obs = treaty::obs::Obs::with_default_cap();
        obs.configure_flight(&flight2, 128);
        treaty::sim::obs::install(&obs);
        let plan = crashpoint::install();
        let cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        let client = cluster.client();

        // Unarmed seed commit, then let the pipelined tail drain.
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"seed").unwrap();
        }
        tx.commit().expect("seed commit");
        sleep(50 * MILLIS);

        plan.arm(FaultSchedule::new().crash_at(CrashPoint::CoordAfterVotes, COORD, 1));
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"doomed").unwrap();
        }
        let _ = tx.commit(); // the coordinator crashes mid-2PC
        sleep(100 * MILLIS);
        assert_eq!(plan.fired().len(), 1, "armed crash must fire");
        treaty::sim::obs::uninstall();
    });

    let mut dumps: Vec<_> = std::fs::read_dir(&flight)
        .expect("flight directory written")
        .flatten()
        .map(|e| e.path())
        .collect();
    dumps.sort();
    assert_eq!(dumps.len(), 1, "one crash, one dump: {dumps:?}");
    let body = std::fs::read_to_string(&dumps[0]).unwrap();
    // The fields the assertions read, as derived structs (keys the dump
    // carries beyond these are skipped).
    #[derive(serde::Deserialize)]
    struct Header {
        reason: String,
        detail: String,
        node: u64,
    }
    #[derive(serde::Deserialize)]
    struct Event {
        seq: Option<u64>,
        phase: Option<String>,
    }
    #[derive(serde::Deserialize)]
    struct Dump {
        flight_dump: Header,
        events: Vec<Event>,
        counters: HashMap<String, u64>,
    }
    let v: Dump = serde_json::from_slice(body.as_bytes()).expect("dump is valid JSON");
    assert_eq!(v.flight_dump.reason, "crash.fired");
    assert_eq!(v.flight_dump.detail, "coord.after_votes");
    assert_eq!(v.flight_dump.node, u64::from(COORD));
    assert!(
        !v.events.is_empty(),
        "dump carries the node's recent events"
    );
    assert!(
        v.events
            .iter()
            .all(|e| e.seq.is_some() && e.phase.is_some()),
        "every dumped event is well-formed"
    );
    assert_eq!(v.counters["crash.fired"], 1);
}

// ---- the commit point (DESIGN.md §11) -----------------------------------
//
// A commit is acknowledged once its Clog Start record and every Prepare
// record are stable and every vote is yes; the decision record is
// stabilized, published, sent and applied behind the ack. The cells below
// crash or starve the coordinator inside that window and hold the
// acknowledged outcome to it.

/// Seeds one acked value per shard and lets the pipelined tail drain.
fn seed(cluster: &Cluster, keys: &[Vec<u8>]) {
    let client = cluster.client();
    let mut tx = client.begin(COORD);
    for k in keys {
        tx.put(k, b"seed").expect("seed write failed");
    }
    tx.commit().expect("seed commit failed");
    sleep(50 * MILLIS);
}

fn store(cluster: &Cluster, node: u32) -> &treaty::store::TreatyStore {
    cluster.store((node - 1) as usize).expect("durable cluster")
}

/// Asks `COORD` over the wire what it decided for `gtx`, as a recovering
/// participant would.
fn query_decision(cluster: &Cluster, gtx: GlobalTxId) -> Option<bool> {
    let rpc = Rpc::new(
        cluster.fabric(),
        9900,
        RpcConfig {
            endpoint: client_net(),
            crypto: wire_crypto(&SecurityProfile::treaty_full()),
            key: cluster.keys().network,
            cores: None,
            timeout: treaty::net::DEFAULT_RPC_TIMEOUT,
        },
    );
    rpc.start();
    let meta = TxMeta {
        node_id: 9900,
        tx_id: gtx.seq,
        op_id: 1,
        kind: MsgKind::QueryDecision,
    };
    let msg = encode(&PeerMsg::QueryDecision { gtx });
    let reply = rpc.call(COORD, req::QUERY_DECISION, &meta, &msg);
    rpc.stop();
    match decode(&reply.expect("coordinator answers").1) {
        Some(PeerReply::Decision { commit }) => commit,
        other => panic!("not a decision reply: {other:?}"),
    }
}

/// Phase-two requests of type `req_type` the fabric has carried since
/// `start_capture`.
fn captured(cluster: &Cluster, req_type: u8) -> usize {
    let sent = cluster.fabric().captured();
    sent.iter()
        .filter(|d| !d.is_response && d.req_type == req_type)
        .count()
}

/// The committed end state every commit-point cell must reach: decided
/// commit, the acknowledged value readable on every shard, nothing left
/// prepared.
fn assert_committed_everywhere(cluster: &Cluster, gtx: GlobalTxId, keys: &[Vec<u8>], cell: &str) {
    let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
    assert_eq!(clog.decision(gtx), Some(true), "{cell}: not decided commit");
    let client = cluster.client();
    let mut tx = client.begin(SPARE);
    for k in keys {
        let got = tx.get(k).expect("post-recovery read");
        assert_eq!(got.as_deref(), Some(&b"acked"[..]), "{cell}: value lost");
    }
    tx.commit().expect("verify commit");
    for n in [COORD, PART, SPARE] {
        let left = store(cluster, n).prepared_txns();
        assert!(left.is_empty(), "{cell}: n{n} still holds {left:?}");
    }
}

/// What a commit-point cell adds to the coordinator crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Twist {
    /// Restart and recover, nothing else.
    Plain,
    /// Before the restart the adversary rolls the Clog back as far as the
    /// counter group lets it: to the stabilized prefix.
    RollBackClog,
    /// The rolled-back Clog again, and `PART` is down during the first
    /// recovery pass.
    ParticipantDown,
}

/// Truncates node `idx`'s Clog to the records at or below the group's
/// stabilized value; returns how many records that cut.
fn roll_back_clog(cluster: &Cluster, idx: usize) -> usize {
    let env = cluster.env(idx).expect("durable cluster");
    let stable = env.backend.latest(&counter_id(env, CLOG_NAME));
    let path = env.dir.join(CLOG_FILE);
    let raw = std::fs::read(&path).unwrap();
    // Frame: counter 8 B | payload length 4 B | payload | MAC 32 B.
    let (mut pos, mut keep, mut cut) = (0, raw.len(), 0);
    while pos + 12 <= raw.len() {
        let counter = u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap());
        let len = u32::from_le_bytes(raw[pos + 8..pos + 12].try_into().unwrap()) as usize;
        if counter > stable {
            keep = keep.min(pos);
            cut += 1;
        }
        pos += 12 + len + 32;
    }
    std::fs::write(&path, &raw[..keep]).unwrap();
    cut
}

/// The coordinator dies at `point` — past the commit point, before any
/// participant heard a decision — and recovery, whatever the `twist`, can
/// only commit.
fn run_commit_point_cell(point: CrashPoint, twist: Twist) -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        seed(&cluster, &keys);
        let cell = format!("{point} {twist:?}");

        plan.arm(FaultSchedule::new().crash_at(point, COORD, 1));
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        for k in &keys {
            tx.put(k, b"acked").expect("buffered put");
        }
        let acked = match tx.commit() {
            Ok(()) => 'C',
            Err(TreatyError::Aborted(_, why)) => panic!("{cell}: aborted past the votes: {why}"),
            Err(_) => 'U', // the crash came before the reply
        };
        sleep(SECONDS);
        let fired = plan.fired();
        assert_eq!(fired.len(), 1, "{cell}: expected one crash, got {fired:?}");
        assert_eq!((fired[0].point, fired[0].node), (point, COORD));
        for n in [PART, SPARE] {
            let prepared = store(&cluster, n).prepared_txns();
            assert_eq!(prepared, [gtx], "{cell}: n{n} heard a decision");
        }

        cluster.crash_node((COORD - 1) as usize);
        let cut = match twist {
            Twist::Plain => 0,
            _ => roll_back_clog(&cluster, (COORD - 1) as usize),
        };
        if twist == Twist::ParticipantDown {
            cluster.crash_node((PART - 1) as usize);
        }
        cluster.restart_node((COORD - 1) as usize).unwrap();
        let mut rec = cluster.resolve_recovered();
        if twist == Twist::ParticipantDown {
            // A participant that cannot be asked is not a no vote.
            assert_eq!((rec.re_decided, rec.failed), (0, 1), "{cell}: {rec:?}");
            let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
            assert_eq!(clog.decision(gtx), None, "{cell}: decided without PART");
            for n in [COORD, SPARE] {
                let prepared = store(&cluster, n).prepared_txns();
                assert_eq!(prepared, [gtx], "{cell}: n{n} no longer prepared");
            }
            cluster.restart_node((PART - 1) as usize).unwrap();
            rec = cluster.resolve_recovered();
        }
        assert_eq!(rec.failed, 0, "{cell}: {rec:?}");
        assert_committed_everywhere(&cluster, gtx, &keys, &cell);

        format!(
            "{cell} fired@{} acked={acked} cut={cut} rec={}/{}/{}",
            fired[0].at, rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// The participant dies at `counter.round_acked`: the group has
/// acknowledged its `Prepare`'s counter, the participant has neither
/// marked the transaction stable nor voted. Its log re-opens — the group
/// holds nothing the disk lacks — with the transaction in doubt, and the
/// coordinator, which never saw the vote, resolves it.
fn run_round_acked_cell() -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        seed(&cluster, &keys);
        let cell = CrashPoint::CounterRoundAcked;
        let part = (PART - 1) as usize;
        let group_holds = |cluster: &Cluster| {
            let env = cluster.env(part).expect("durable cluster");
            let wal = std::fs::read_dir(&env.dir)
                .unwrap()
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|name| name.starts_with("wal-"))
                .max()
                .expect("a WAL exists");
            env.backend.latest(&counter_id(env, &wal))
        };
        let before = group_holds(&cluster);

        plan.arm(FaultSchedule::new().crash_at(cell, PART, 1));
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        for k in &keys {
            tx.put(k, b"doomed").expect("buffered put");
        }
        let acked = match tx.commit() {
            Ok(()) => panic!("{cell}: committed without PART's vote"),
            Err(TreatyError::Aborted(..)) => 'A',
            Err(_) => 'U',
        };
        sleep(SECONDS);
        let fired = plan.fired();
        assert_eq!(fired.len(), 1, "{cell}: expected one crash, got {fired:?}");
        assert_eq!((fired[0].point, fired[0].node), (cell, PART));
        assert!(
            group_holds(&cluster) > before,
            "{cell}: the group never acknowledged the Prepare"
        );

        cluster.crash_node(part);
        cluster.restart_node(part).expect("the log re-opens");
        assert_eq!(store(&cluster, PART).prepared_txns(), [gtx], "{cell}");
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "{cell}: {rec:?}");

        let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
        assert_eq!(clog.decision(gtx), Some(false), "{cell}: not decided abort");
        let mut tx = client.begin(SPARE);
        for k in &keys {
            let got = tx.get(k).expect("post-recovery read");
            assert_eq!(got.as_deref(), Some(&b"seed"[..]), "{cell}: half-applied");
        }
        tx.commit().expect("verify commit");
        for n in [COORD, PART, SPARE] {
            let left = store(&cluster, n).prepared_txns();
            assert!(left.is_empty(), "{cell}: n{n} still holds {left:?}");
        }

        format!(
            "{cell} fired@{} acked={acked} rec={}/{}/{}",
            fired[0].at, rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// What the coordinator's Clog holds on disk, in file order.
fn clog_on_disk(cluster: &Cluster) -> Vec<ClogRecord> {
    let env = cluster.env((COORD - 1) as usize).expect("durable cluster");
    replay(env, CLOG_NAME, &env.dir.join(CLOG_FILE))
        .expect("the Clog replays")
        .records
        .iter()
        .map(|(_, payload)| ClogRecord::from_bytes(payload).expect("a Clog record"))
        .collect()
}

/// Four clients commit through `COORD` at once, on keys of their own, so
/// their Clog records queue behind one another's writes and share flushes;
/// the coordinator dies at its `hit`-th `log.batch_written` — a batch on
/// disk, none of its callers told. `starts`: the batch holds `Start`
/// records (callers that never sent a prepare), else `Decision{commit}`s
/// of commits already acknowledged at their commit point, which the
/// adversary then cuts from the file (the batch never had its round).
/// Whatever the file shows is what recovery acts on: every `Start` without
/// a `Decision` is re-driven, every `Decision{commit}` delivered, every ack
/// honoured.
fn run_clog_batch_cell(hit: u64, starts: bool) -> String {
    const CLIENTS: usize = 4;
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let cluster = Cluster::start(options(&path)).unwrap();
        let cell = format!("log.batch_written hit={hit}");
        // Client c writes the c-th key of each node.
        let per_node = keys_per_node(&cluster, CLIENTS);
        let keys_of =
            |c: usize| -> Vec<Vec<u8>> { per_node.values().map(|v| v[c].clone()).collect() };
        let all_keys: Vec<Vec<u8>> = (0..CLIENTS).flat_map(keys_of).collect();

        // A list-append transaction over `keys`; `(gtx, what it saw)`
        // whether or not its commit was acknowledged.
        let append = |cluster: &Cluster, keys: &[Vec<u8>]| {
            let client = cluster.client();
            let mut tx = client.begin(COORD);
            let gtx = tx.gtx();
            let mut obs = TxnObservation {
                id: gtx,
                reads: Vec::new(),
                appends: keys.to_vec(),
            };
            for k in keys {
                let mut list: Vec<GlobalTxId> = tx
                    .get(k)
                    .expect("read")
                    .map(|b| decode(&b).unwrap())
                    .unwrap_or_default();
                obs.reads.push((k.clone(), list.clone()));
                list.push(gtx);
                tx.put(k, &encode(&list)).expect("write");
            }
            let acked = match tx.commit() {
                Ok(()) => 'C',
                Err(TreatyError::Aborted(..)) => 'A',
                Err(_) => 'U',
            };
            (obs, acked)
        };
        let (seed_obs, seeded) = append(&cluster, &all_keys);
        assert_eq!(seeded, 'C', "{cell}: seed");
        sleep(50 * MILLIS);

        plan.arm(FaultSchedule::new().crash_at(CrashPoint::LogBatchWritten, COORD, hit));
        let doomed = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let cluster = std::rc::Rc::new(cluster);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (cluster, doomed, keys) = (
                    std::rc::Rc::clone(&cluster),
                    std::sync::Arc::clone(&doomed),
                    keys_of(c),
                );
                spawn(move || {
                    let outcome = append(&cluster, &keys);
                    doomed.lock().push(outcome);
                })
            })
            .collect();
        clients.into_iter().for_each(join);
        sleep(4 * SECONDS);
        let mut cluster = std::rc::Rc::try_unwrap(cluster)
            .unwrap_or_else(|_| panic!("{cell}: a client still holds the cluster"));
        let mut doomed = std::mem::take(&mut *doomed.lock());
        doomed.sort_by_key(|(obs, _)| obs.id);
        let acks: String = doomed.iter().map(|(_, acked)| *acked).collect();

        let fired = plan.fired();
        assert_eq!(fired.len(), 1, "{cell}: expected one crash, got {fired:?}");
        assert_eq!(fired[0].node, COORD);

        // The file at the crash; the batch that was written last is what
        // the premise counts.
        let on_disk = clog_on_disk(&cluster);
        let is_doomed = |g: &GlobalTxId| doomed.iter().any(|(obs, _)| obs.id == *g);
        let started: Vec<GlobalTxId> = on_disk
            .iter()
            .filter_map(|r| match r {
                ClogRecord::Start { gtx, .. } if is_doomed(gtx) => Some(*gtx),
                _ => None,
            })
            .collect();
        let committed: Vec<GlobalTxId> = on_disk
            .iter()
            .filter_map(|r| match r {
                ClogRecord::Decision { gtx, commit: true } if is_doomed(gtx) => Some(*gtx),
                _ => None,
            })
            .collect();
        let premise = if starts {
            assert!(committed.is_empty(), "{cell}: past the Starts: {on_disk:?}");
            let untold = started.len() - store(&cluster, PART).prepared_txns().len();
            assert!(
                untold >= 2,
                "{cell}: the crashed batch must hold two records or more, acks {acks}: {on_disk:?}"
            );
            format!("untold={untold}")
        } else {
            // Every client heard `Committed` before its decision record
            // was appended. The crashed batch never had its round: cutting
            // it leaves recovery the Starts and the stable Prepares.
            assert_eq!(acks, "CCCC", "{cell}: {on_disk:?}");
            let cut = roll_back_clog(&cluster, (COORD - 1) as usize);
            let batch = &on_disk[on_disk.len() - cut..];
            assert!(
                cut >= 2
                    && batch.iter().all(|r| {
                        matches!(r, ClogRecord::Decision { gtx, commit: true } if is_doomed(gtx))
                    }),
                "{cell}: the cut must be two commit records or more, cut {cut}: {on_disk:?}"
            );
            format!("cut={cut}")
        };

        cluster.crash_node((COORD - 1) as usize);
        cluster.restart_node((COORD - 1) as usize).unwrap();
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "{cell}: {rec:?}");

        let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
        for gtx in &started {
            assert!(
                clog.decision(*gtx).is_some(),
                "{cell}: {gtx:?} not re-driven"
            );
        }
        let mut finals: HashMap<Vec<u8>, Vec<GlobalTxId>> = HashMap::new();
        let reader = cluster.client();
        let mut tx = reader.begin(SPARE);
        for k in &all_keys {
            let list = tx.get(k).expect("post-recovery read").expect("seeded");
            finals.insert(k.clone(), decode(&list).unwrap());
        }
        tx.commit().expect("verify commit");
        let mut history = vec![seed_obs];
        let mut outcomes = String::new();
        for (obs, acked) in doomed {
            let present: Vec<bool> = obs
                .appends
                .iter()
                .map(|k| finals[k].contains(&obs.id))
                .collect();
            let all = present.iter().all(|&p| p);
            assert!(
                all || !present.contains(&true),
                "{cell}: {:?} half-committed",
                obs.id
            );
            assert!(
                acked != 'C' || all,
                "{cell}: {:?} acknowledged and lost",
                obs.id
            );
            assert!(
                acked != 'A' || !all,
                "{cell}: {:?} aborted and applied",
                obs.id
            );
            if committed.contains(&obs.id) {
                assert!(
                    all,
                    "{cell}: {:?} has a commit record nobody delivered",
                    obs.id
                );
            }
            assert_eq!(
                clog.decision(obs.id).unwrap_or(false),
                all,
                "{cell}: {:?}",
                obs.id
            );
            outcomes.push(if all { '1' } else { '0' });
            if all {
                history.push(obs);
            }
        }
        for n in [COORD, PART, SPARE] {
            let left = store(&cluster, n).prepared_txns();
            assert!(left.is_empty(), "{cell}: n{n} still holds {left:?}");
        }
        if let Err(e) = check_list_append(&history, &finals) {
            panic!("{cell}: {e}");
        }

        format!(
            "{cell} fired@{} starts={} commits={} {premise} acked={acks} applied={outcomes} rec={}/{}/{}",
            fired[0].at,
            started.len(),
            committed.len(),
            rec.re_decided,
            rec.resolved,
            rec.failed,
        )
    })
}

fn run_twice(run: impl Fn() -> String) {
    let t1 = run();
    println!("{t1}");
    assert_eq!(t1, run(), "fault cell must be deterministic");
}

/// A participant crash between a counter round's ack quorum and its
/// publication leaves the transaction in doubt, never half-decided.
#[test]
fn round_acked_crash_leaves_the_prepare_in_doubt() {
    run_twice(run_round_acked_cell);
}

/// The coordinator dies with a batch of Clog records written and none of
/// its callers told. Its second flush holds three `Start`s (the first
/// found the writer idle and went alone): no prepare ever left for them,
/// recovery aborts all three and commits the one that was in its vote
/// phase. Its fifth holds two `Decision{commit}`s of commits already
/// acknowledged, whose round never ran: with them cut from the file,
/// recovery commits both from their Starts and the stable Prepares.
#[test]
fn clog_batch_crash_recovers_from_what_the_file_shows() {
    run_twice(|| run_clog_batch_cell(2, true));
    run_twice(|| run_clog_batch_cell(5, false));
}

/// A coordinator crash between the commit point and the first decision
/// message commits on every shard: an unanswered client's transaction at
/// `coord.commit_point`, before any decision record exists, and an
/// acknowledged one at `coord.finish_stable`.
#[test]
fn commit_point_crash_commits_everywhere() {
    for point in [CrashPoint::CoordCommitPoint, CrashPoint::CoordFinishStable] {
        run_twice(|| run_commit_point_cell(point, Twist::Plain));
    }
}

/// The same crashes with the Clog rolled back to its stabilized prefix
/// still commit: Start plus the stable Prepares are the durable record of
/// the outcome. At `coord.commit_point` nothing is appended yet, so the
/// rollback cuts nothing; at `clog.decision_appended` the client is
/// acknowledged and the decision appended but its round never ran, so the
/// rollback cuts it back to Start; at `coord.finish_stable` the record is
/// stable and survives.
#[test]
fn commit_point_crash_with_clog_rolled_back_still_commits() {
    for point in [
        CrashPoint::CoordCommitPoint,
        CrashPoint::ClogDecisionAppended,
        CrashPoint::CoordFinishStable,
    ] {
        run_twice(|| run_commit_point_cell(point, Twist::RollBackClog));
    }
}

/// The rolled-back `coord.commit_point` crash — undecided at restart, no
/// decision record ever written — with a participant down during the
/// first recovery pass: the pass reports the transaction as failed and
/// aborts nothing; the second pass, with the participant back, commits.
/// (With the decision record stable, as at `coord.finish_stable`, recovery
/// re-sends it and a participant that is down asks when it returns.)
#[test]
fn commit_point_recovery_with_a_participant_down_stays_undecided() {
    run_twice(|| run_commit_point_cell(CrashPoint::CoordCommitPoint, Twist::ParticipantDown));
}

/// The counter group loses its quorum between the ack and the decision
/// round: the coordinator retries, gives up with a flight dump and leaves
/// the transaction undecided — no abort (and no commit) ever reaches the
/// fabric — and once the group is back one recovery pass on the live node
/// commits it.
fn run_commit_point_no_quorum_cell() -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    let flight_dir = tempfile::tempdir().unwrap();
    let flight = flight_dir.path().join("dumps");
    let flight2 = flight.clone();
    let transcript = block_on(move || {
        let obs = treaty::obs::Obs::with_default_cap();
        obs.configure_flight(&flight2, 128);
        treaty::sim::obs::install(&obs);
        let cluster = Cluster::start(options(&path)).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        seed(&cluster, &keys);
        cluster.fabric().start_capture();

        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        // Every Prepare record is stable the moment all three shards list
        // the transaction as prepared (the Start record's round, kicked
        // first, ended before theirs); the decision record is a WAL append
        // away. Cut the coordinator's counter client off right there.
        let stores: Vec<_> = [COORD, PART, SPARE]
            .iter()
            .map(|&n| store(&cluster, n).clone())
            .collect();
        let fabric = std::rc::Rc::clone(cluster.fabric());
        let cutter = spawn(move || {
            while !stores.iter().all(|s| s.prepared_txns().contains(&gtx)) {
                sleep(10 * MICROS);
            }
            fabric.with_adversary(|a| {
                for r in 0..3u32 {
                    a.partitions.insert((COUNTER_CLIENT_BASE, COUNTER_BASE + r));
                }
            });
        });
        for k in &keys {
            tx.put(k, b"acked").expect("buffered put");
        }
        tx.commit().expect("the commit point was reached");
        let acked_at = now();
        join(cutter);

        // Six failed rounds later the coordinator has given up.
        sleep(SECONDS);
        let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
        assert_eq!(clog.decision(gtx), None, "decided without a stable record");
        assert_eq!(captured(&cluster, req::PEER_ABORT), 0, "an ack was aborted");
        assert_eq!(
            captured(&cluster, req::PEER_COMMIT),
            0,
            "unstable commit sent"
        );
        for n in [COORD, PART, SPARE] {
            assert_eq!(store(&cluster, n).prepared_txns(), [gtx], "n{n}");
        }

        // The group is back: the same Clog counter stabilizes again, on
        // the live node.
        cluster.fabric().with_adversary(|a| a.partitions.clear());
        let rec = cluster.resolve_recovered();
        assert_eq!((rec.re_decided, rec.failed), (1, 0), "{rec:?}");
        assert_committed_everywhere(&cluster, gtx, &keys, "no-quorum");
        assert_eq!(captured(&cluster, req::PEER_ABORT), 0);
        treaty::sim::obs::uninstall();
        format!(
            "no-quorum acked@{acked_at} commits_sent={} rec={}/{}/{}",
            captured(&cluster, req::PEER_COMMIT),
            rec.re_decided,
            rec.resolved,
            rec.failed,
        )
    });
    let dumps: Vec<String> = std::fs::read_dir(&flight)
        .expect("flight directory written")
        .flatten()
        .map(|e| std::fs::read_to_string(e.path()).unwrap())
        .collect();
    assert_eq!(dumps.len(), 1, "one undecided commit, one dump");
    assert!(dumps[0].contains("\"reason\": \"2pc.decision_unstable\""));
    transcript
}

#[test]
fn commit_point_decision_round_without_quorum_never_aborts() {
    run_twice(run_commit_point_no_quorum_cell);
}

/// Appended is not externalised. Under 5 ms counter rounds the client
/// holds `Committed` well before the decision record is stable, and in
/// that window nobody else can learn the outcome: `QueryDecision` answers
/// `None`, no `PEER_COMMIT` has left the coordinator, every shard still
/// lists the transaction as prepared, the Clog holds no decision for it,
/// and a locking read of a written key parks instead of returning the old
/// value. Once the record is stable all of it flips.
#[test]
fn commit_point_appended_is_not_externalised() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut o = options(&path);
        o.costs.counter_round_ns = 5 * MILLIS;
        let cluster = Cluster::start(o).unwrap();
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        seed(&cluster, &keys);
        let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
        cluster.fabric().start_capture();

        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        for k in &keys {
            tx.put(k, b"acked").expect("buffered put");
        }
        tx.commit().expect("commit");
        let acked_at = now();

        // Between the ack and the stable decision record.
        let read = std::sync::Arc::new(parking_lot::Mutex::new(None));
        let reader = {
            let (read, key) = (std::sync::Arc::clone(&read), keys[1].clone());
            let client = cluster.client();
            spawn(move || {
                let mut tx = client.begin(SPARE);
                *read.lock() = Some((tx.get(&key).expect("locking read"), now()));
                tx.commit().expect("reader commit");
            })
        };
        assert_eq!(query_decision(&cluster, gtx), None);
        assert_eq!(captured(&cluster, req::PEER_COMMIT), 0);
        for n in [COORD, PART, SPARE] {
            assert_eq!(store(&cluster, n).prepared_txns(), [gtx], "n{n}");
        }
        assert_eq!(clog.decision(gtx), None);
        sleep(MILLIS);
        assert!(read.lock().is_none(), "the read must park on the lock");
        assert!(now() - acked_at < 5 * MILLIS, "still inside the round");

        // Afterwards.
        join(reader);
        sleep(50 * MILLIS);
        let (value, read_at) = read.lock().take().expect("reader finished");
        assert_eq!(value.as_deref(), Some(&b"acked"[..]));
        assert!(read_at - acked_at >= 4 * MILLIS, "read before the round");
        assert_eq!(query_decision(&cluster, gtx), Some(true));
        assert_eq!(captured(&cluster, req::PEER_COMMIT), 2);
        assert_eq!(clog.decision(gtx), Some(true));
        assert_committed_everywhere(&cluster, gtx, &keys, "externalised");
    });
}
