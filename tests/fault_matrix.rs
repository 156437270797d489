//! The crash-point fault matrix. [`script`] gives every [`CrashPoint`] its
//! scenario in one `match` with no wildcard arm, so a point added without
//! one does not compile, and [`cells`] walks `CrashPoint::ALL` through it.
//! A cell is one crash/restart/recover episode on a fresh 3-node cluster,
//! checked against the recovery oracle of `common`.
//!
//! A list-append cell ([`Script::ListAppend`]):
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
//! A volatile cell ([`Script::Volatile`]) crashes a step that leaves
//! nothing durable in flight: recovery re-drives nothing, the
//! coordinator's Clog holds nothing but the seed, every lock table and
//! prepared table drains, and the seed reads back on the snapshot and the
//! locking path and takes writes again.
//!
//! The points a table cannot express ([`Script::ByHand`]) and the commit
//! point's own guarantees have tests of their own below.
//!
//! Every cell's transcript line (virtual crash time included) is asserted
//! byte-identical across runs: the harness is deterministic.

mod common;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use common::{
    ack, all_or_nothing, append, assert_drained, assert_nothing_prepared, assert_serializable,
    boot, fired_once, options, read_lists,
};
use treaty::core::client::client_net;
use treaty::core::clog::{ClogRecord, CLOG_FILE, CLOG_NAME};
use treaty::core::cluster::{COUNTER_BASE, COUNTER_CLIENT_BASE};
use treaty::core::messages::{decode, encode, req};
use treaty::core::{Abort, AbortCause, Cluster, ClusterOptions, DistTxn, TreatyError};
use treaty::crypto::codec::Record as _;
use treaty::crypto::TxMeta;
use treaty::net::{Rpc, RpcConfig};
use treaty::sched::block_on;
use treaty::sim::crashpoint::{self, CrashPoint, FaultSchedule};
use treaty::sim::runtime::{join, now, sleep, spawn};
use treaty::sim::{SecurityProfile, MICROS, MILLIS, SECONDS};
use treaty::store::env::protection;
use treaty::store::log::{counter_id, replay};
use treaty::store::{EngineConfig, GlobalTxId, TxnEngine as _, WalRecord};

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

/// What a volatile cell does while its crash is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Buffered writes on every shard, then a locking op outside the
    /// buffer, which ships them ahead of itself in one list: a point
    /// read, or with `scan` a scan of every shard.
    Ship { scan: bool },
    /// Buffered writes on every shard, then a range delete of every shard.
    DeleteRange,
    /// A locking read of every key, then the commit: the read-only lane.
    ReadOnly,
    /// A snapshot read of every key.
    SnapshotRead,
    /// A snapshot scan of every shard.
    SnapshotScan,
}

impl Step {
    /// What the client may hear: a read-only lane whose participant never
    /// voted cannot commit, and a snapshot read has nothing to abort.
    fn acks(self) -> &'static str {
        match self {
            Step::Ship { .. } | Step::DeleteRange => "CAUR",
            Step::ReadOnly => "AU",
            Step::SnapshotRead | Step::SnapshotScan => "CUR",
        }
    }
}

/// A crash point's scenario.
#[derive(Debug, Clone, Copy)]
enum Script {
    /// One list-append cell per entry of `outcomes`, the armed crash
    /// taking down endpoint `crash`.
    ListAppend {
        crash: u32,
        outcomes: &'static [Cfg],
        /// Single coordinator-local key: exercises the 1PC fast path.
        local_only: bool,
        /// The doomed transaction also writes a ~20 KiB value to a
        /// `PART`-owned key: its commit apply overflows the tiny MemTable,
        /// so the background maintenance daemon runs (and can crash) on
        /// `PART`.
        filler: bool,
        /// Commit one unarmed filler transaction first so the doomed flush
        /// produces the second L0 table and makes compaction due.
        prefill: bool,
        /// The doomed transaction also reads a second `PART`-owned key it
        /// does not write: a read lock its commit point releases.
        read_part: bool,
    },
    /// One volatile cell per entry of `steps`, the armed crash taking down
    /// endpoint `crash`. The endpoints in `bounce` restart with it: the
    /// crash left their locks volatile, which a restart (= session
    /// timeout) sheds.
    Volatile {
        crash: u32,
        bounce: &'static [u32],
        steps: &'static [Step],
    },
    /// The point is crashed by the named test.
    ByHand(&'static str),
}

const BOTH: &[Cfg] = &[Cfg::Commit, Cfg::Abort];
const COMMIT: &[Cfg] = &[Cfg::Commit];

const fn list_append(crash: u32, outcomes: &'static [Cfg]) -> Script {
    Script::ListAppend {
        crash,
        outcomes,
        local_only: false,
        filler: false,
        prefill: false,
        read_part: false,
    }
}

const fn volatile(crash: u32, steps: &'static [Step]) -> Script {
    Script::Volatile {
        crash,
        bounce: &[],
        steps,
    }
}

/// Every crash point's scenario: coordinator and participant roles, commit
/// and abort outcomes where reachable. There is no wildcard arm, so a new
/// point without a scenario does not compile.
fn script(point: CrashPoint) -> Script {
    use CrashPoint as P;
    match point {
        P::CoordAfterClogStart
        | P::CoordAfterPrepareFanout
        | P::CoordAfterVotes
        | P::CoordAfterLogDecision
        | P::CoordMidDecisionFanout
        | P::CoordAfterDecisionSend
        | P::CoordBeforeClientReply
        | P::ClogDecisionAppended => list_append(COORD, BOTH),
        // Past the commit point there is no abort left to crash in.
        P::CoordCommitPoint | P::CoordFinishStable => list_append(COORD, COMMIT),
        P::PartBeforePrepare | P::PartAfterPrepare | P::StorePrepareLogged => {
            list_append(PART, BOTH)
        }
        // The commit point's release of the read locks is only sent for a
        // transaction past its commit point.
        P::PartCommitPoint => Script::ListAppend {
            crash: PART,
            outcomes: COMMIT,
            local_only: false,
            filler: false,
            prefill: false,
            read_part: true,
        },
        // The decision-application points are only reachable under the
        // matching decision.
        P::PartAfterCommitApply => list_append(PART, COMMIT),
        P::PartAfterAbortApply => list_append(PART, &[Cfg::Abort]),
        // The local group-commit point never runs 2PC: a single
        // coordinator-owned key commits through the one-phase path.
        P::StoreCommitLogged => Script::ListAppend {
            crash: COORD,
            outcomes: COMMIT,
            local_only: true,
            filler: false,
            prefill: false,
            read_part: false,
        },
        // Background maintenance points: only a committed apply flushes, so
        // these are commit-only. The crash lands on the participant's
        // maintenance daemon, after the doomed writes are WAL-durable but
        // before (flush) or between (compaction) SSTable builds.
        P::StoreBgFlushStart => Script::ListAppend {
            crash: PART,
            outcomes: COMMIT,
            local_only: false,
            filler: true,
            prefill: false,
            read_part: false,
        },
        P::StoreBgCompactStart => Script::ListAppend {
            crash: PART,
            outcomes: COMMIT,
            local_only: false,
            filler: true,
            prefill: true,
            read_part: false,
        },
        // The coordinator dies after the ops burst left, before a reply was
        // drained or a prepare sent: the participants' speculative applies
        // hold only volatile locks.
        P::CoordOpsFanout => Script::Volatile {
            crash: COORD,
            bounce: &[PART, SPARE],
            steps: &[Step::Ship { scan: false }, Step::Ship { scan: true }],
        },
        // A participant dies mid-way through applying a shipped slice; the
        // coordinator's reply drain fails and it aborts everywhere.
        P::PartBatchApply => volatile(PART, &[Step::Ship { scan: false }]),
        P::PartScan => volatile(PART, &[Step::Ship { scan: true }]),
        P::PartRangeDelete => volatile(PART, &[Step::DeleteRange]),
        // The participant has taken the slice out of its table, neither
        // validated nor voted; the lane logs nothing anywhere.
        P::PartReadOnlyFinish => volatile(PART, &[Step::ReadOnly]),
        P::PartSnapshotRead => volatile(PART, &[Step::SnapshotRead]),
        P::PartSnapshotScan => volatile(PART, &[Step::SnapshotScan]),
        P::LogBatchWritten => Script::ByHand("clog_batch_crash_recovers_from_what_the_file_shows"),
        P::CounterRoundAcked => Script::ByHand("round_acked_crash_leaves_the_prepare_in_doubt"),
    }
}

/// One generated cell: a point, its script, and which of the script's
/// outcomes or steps the cell runs.
#[derive(Debug, Clone, Copy)]
struct Cell {
    point: CrashPoint,
    script: Script,
    nth: usize,
}

/// The matrix: every cell of every point's script, in `CrashPoint::ALL`
/// order.
fn cells() -> Vec<Cell> {
    CrashPoint::ALL
        .into_iter()
        .flat_map(|point| {
            let script = script(point);
            let n = match script {
                Script::ListAppend { outcomes, .. } => outcomes.len(),
                Script::Volatile { steps, .. } => steps.len(),
                Script::ByHand(_) => 0,
            };
            (0..n).map(move |nth| Cell { point, script, nth })
        })
        .collect()
}

/// Runs one cell; panics on any oracle violation and returns the cell's
/// transcript line.
fn run(c: Cell) -> String {
    match c.script {
        Script::ListAppend {
            crash,
            outcomes,
            local_only,
            filler,
            prefill,
            read_part,
        } => run_list_append(
            c.point,
            crash,
            outcomes[c.nth],
            local_only,
            filler,
            prefill,
            read_part,
        ),
        Script::Volatile {
            crash,
            bounce,
            steps,
        } => {
            // A point with several steps names the step in its lines.
            let tag = match steps[c.nth] {
                Step::Ship { scan } if steps.len() > 1 => format!(" scan={scan}"),
                _ => String::new(),
            };
            run_volatile(c.point, tag, crash, bounce, steps[c.nth])
        }
        Script::ByHand(test) => unreachable!("{} is crashed by {test}", c.point),
    }
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

/// Crashes endpoint `node` and restarts it through the recovery path.
fn bounce(cluster: &mut Cluster, node: u32) {
    cluster.crash_node((node - 1) as usize);
    cluster.restart_node((node - 1) as usize).unwrap();
}

/// Seeds one acked value per shard, lets the pipelined tail drain, and
/// returns the seed's transaction.
fn seed(cluster: &Cluster, keys: &[Vec<u8>]) -> GlobalTxId {
    let client = cluster.client();
    let mut tx = client.begin(COORD);
    let gtx = tx.gtx();
    for k in keys {
        tx.put(k, b"seed").expect("seed write failed");
    }
    tx.commit().expect("seed commit failed");
    sleep(50 * MILLIS);
    gtx
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

fn run_list_append(
    point: CrashPoint,
    crash: u32,
    cfg: Cfg,
    local_only: bool,
    filler: bool,
    prefill: bool,
    read_part: bool,
) -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cell = format!("cell {point} n{crash} {cfg:?}");
        // Install before the cluster boots so the nodes register their
        // crash handlers (the handler stops the node's RPC endpoint).
        let plan = crashpoint::install();
        let mut cluster = boot(&path);
        let keys: Vec<Vec<u8>> = if local_only {
            vec![key_per_node(&cluster).remove(&COORD).unwrap()]
        } else {
            key_per_node(&cluster).into_values().collect()
        };

        // 1. Seed transaction: acked before any fault is armed.
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let seed = append(&mut tx, &keys).expect("seed append failed");
        tx.commit().expect("seed commit failed");

        // The commit path is pipelined: the seed's ack can race its
        // phase-2 dispatch and background flush work. Let the daemons
        // drain before arming, so the armed hit count is reached by the
        // doomed transaction alone.
        sleep(50 * MILLIS);

        let filler_key: Option<Vec<u8>> = filler.then(|| {
            (0..10_000u32)
                .map(|i| format!("filler-{i}").into_bytes())
                .find(|k| cluster.shard_map().owner(k) == PART)
                .expect("no PART-owned filler key in 10k probes")
        });
        let filler_val = vec![0x66u8; 20 << 10];
        if prefill {
            // First L0 table, built before the fault is armed: the doomed
            // flush then makes `l0_compaction_trigger` (2) due.
            let mut tx = client.begin(COORD);
            tx.put(filler_key.as_ref().unwrap(), &filler_val)
                .expect("prefill write failed");
            tx.commit().expect("prefill commit failed");
            sleep(200 * MILLIS); // background build of table #1
        }

        // 2. Arm the crash.
        plan.arm(FaultSchedule::new().crash_at(point, crash, 1));

        // 3. The doomed transaction.
        let mut tx = client.begin(COORD);
        let doomed = append(&mut tx, &keys).expect("doomed append failed");
        if let Some(fk) = &filler_key {
            tx.put(fk, &filler_val).expect("filler write failed");
        }
        if read_part {
            let read_only = keys_per_node(&cluster, 2).remove(&PART).unwrap().remove(1);
            tx.get(&read_only).expect("doomed read failed");
        }
        if cfg == Cfg::Abort {
            // Cut coordinator → SPARE *after* the ops: the prepare (and any
            // decision) to that shard is lost, so the vote phase fails.
            cluster.fabric().with_adversary(|a| {
                a.partitions.insert((COORD, SPARE));
            });
        }
        let acked = ack(tx.commit());

        // 4. Drain the retry trains, then heal.
        sleep(4 * SECONDS);
        cluster.fabric().with_adversary(|a| a.partitions.clear());
        let fired_at = fired_once(&plan, point, crash, &cell);

        // 5. Restart and recover. Abort cells also bounce the partitioned
        // shard: its never-prepared participant transaction holds only
        // volatile locks, which a restart (= session timeout) sheds.
        bounce(&mut cluster, crash);
        if cfg == Cfg::Abort {
            bounce(&mut cluster, SPARE);
        }
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "{cell}: recovery re-drive failed: {rec:?}");

        // 6. The oracle: the acked seed survives, the doomed transaction is
        // all-or-nothing and honours its ack, nothing stays prepared or
        // locked, and the surviving history is serializable.
        let finals = read_lists(&cluster, COORD, &keys, &cell);
        all_or_nothing(&finals, &seed, 'C', &cell);
        let applied = all_or_nothing(&finals, &doomed, acked, &cell);
        assert_drained(&cluster, &cell);
        let mut history = vec![seed];
        if applied {
            history.push(doomed);
        }
        assert_serializable(&history, &finals, &cell);

        let mask = (if applied { "1" } else { "0" }).repeat(keys.len());
        format!("{point} crash=n{crash} cfg={cfg:?} fired@{fired_at} acked={acked} doomed={mask}")
    })
}

fn run_volatile(
    point: CrashPoint,
    tag: String,
    crash: u32,
    bounced: &'static [u32],
    step: Step,
) -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cell = format!("{point}{tag} n{crash}");
        let plan = crashpoint::install();
        let mut cluster = boot(&path);
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        let seed_gtx = seed(&cluster, &keys);

        plan.arm(FaultSchedule::new().crash_at(point, crash, 1));
        let client = cluster.client();
        let doomed_writes = |tx: &mut DistTxn<'_>| {
            for k in &keys {
                tx.put(k, b"doomed")
                    .expect("a buffered put never hits the wire");
            }
        };
        let outcome = match step {
            Step::Ship { scan } => {
                let mut tx = client.begin(COORD);
                doomed_writes(&mut tx);
                if scan {
                    tx.scan(b"", b"\xff", 0).map(drop)
                } else {
                    tx.get(b"batch-fanout-flush-trigger").map(drop)
                }
            }
            Step::DeleteRange => {
                let mut tx = client.begin(COORD);
                doomed_writes(&mut tx);
                tx.delete_range(b"", b"\xff")
            }
            Step::ReadOnly => {
                let mut tx = client.begin(COORD);
                for k in &keys {
                    let got = tx.get(k).expect("locking read");
                    assert_eq!(got.as_deref(), Some(&b"seed"[..]), "{cell}");
                }
                tx.commit()
            }
            Step::SnapshotRead => client.snapshot_read(&keys).map(drop),
            Step::SnapshotScan => client.snapshot_scan(b"", b"\xff", 0).map(drop),
        };
        let acked = ack(outcome);
        assert!(
            step.acks().contains(acked),
            "{cell}: the client heard {acked}"
        );

        sleep(4 * SECONDS);
        let fired_at = fired_once(&plan, point, crash, &cell);
        bounce(&mut cluster, crash);
        for &n in bounced {
            bounce(&mut cluster, n);
        }
        let rec = cluster.resolve_recovered();
        assert_eq!(
            (rec.re_decided, rec.resolved, rec.failed),
            (0, 0, 0),
            "{cell}: nothing was in flight for recovery to re-drive: {rec:?}"
        );
        let logged = clog_on_disk(&cluster);
        assert!(
            logged.iter().all(|r| match r {
                ClogRecord::Start { gtx, .. } | ClogRecord::Decision { gtx, .. } =>
                    *gtx == seed_gtx,
            }),
            "{cell}: the coordinator logged more than the seed: {logged:?}"
        );
        assert_drained(&cluster, &cell);

        // The seed reads back on both paths, and its keys take writes.
        let reader = cluster.client();
        let snap = reader.snapshot_read(&keys).expect("post-recovery snapshot");
        assert!(
            snap.iter().all(|v| v.as_deref() == Some(&b"seed"[..])),
            "{cell}: the seed is lost or a doomed write surfaced: {snap:?}"
        );
        let mut tx = reader.begin(COORD);
        for k in &keys {
            assert_eq!(
                tx.get(k).expect("locking read").as_deref(),
                Some(&b"seed"[..])
            );
            tx.put(k, b"after").expect("buffered put");
        }
        tx.commit().expect("post-recovery write commit");

        format!(
            "{point}{tag} crash=n{crash} fired@{fired_at} acked={acked} rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// Every cell fires its crash, the recovery oracle holds, and the cells
/// fire every point that is not crashed by hand.
#[test]
fn fault_matrix_holds_recovery_oracle() {
    let transcript: Vec<String> = cells().into_iter().map(run).collect();
    println!("{}", transcript.join("\n"));
    let fired: BTreeSet<&str> = transcript
        .iter()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let scripted: BTreeSet<&str> = CrashPoint::ALL
        .into_iter()
        .filter(|&p| !matches!(script(p), Script::ByHand(_)))
        .map(CrashPoint::name)
        .collect();
    assert_eq!(fired, scripted);
}

/// Every cell's transcript line — including its virtual crash time — is
/// byte-identical across runs.
#[test]
fn fault_matrix_is_deterministic() {
    for c in cells() {
        assert_eq!(run(c), run(c), "{c:?} must be deterministic");
    }
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
        let cluster = boot(&path);
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        seed(&cluster, &keys);

        let point = CrashPoint::CoordAfterVotes;
        plan.arm(FaultSchedule::new().crash_at(point, COORD, 1));
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        for k in &keys {
            tx.put(k, b"doomed").unwrap();
        }
        let _ = tx.commit(); // the coordinator crashes mid-2PC
        sleep(100 * MILLIS);
        fired_once(&plan, point, COORD, "flight dump");
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
            crypto: protection(&SecurityProfile::treaty_full()),
            key: cluster.keys().network,
            cores: None,
            timeout: treaty::net::DEFAULT_RPC_TIMEOUT,
        },
    );
    rpc.start();
    let meta = TxMeta::new(9900, gtx.seq, 1);
    let reply = rpc.call(COORD, req::QUERY_DECISION, &meta, &encode(&gtx));
    rpc.stop();
    decode(&reply.expect("coordinator answers").1).expect("a decision reply")
}

/// Phase-two requests with the code `code` the fabric has carried since
/// `start_capture`.
fn captured(cluster: &Cluster, code: u8) -> usize {
    let sent = cluster.captured_with_code(code);
    sent.iter().filter(|d| !d.is_response).count()
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
    assert_nothing_prepared(cluster, cell);
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
        let mut cluster = boot(&path);
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
        let fired_at = fired_once(&plan, point, COORD, &cell);
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
            "{cell} fired@{fired_at} acked={acked} cut={cut} rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
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
        let mut cluster = boot(&path);
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
        let fired_at = fired_once(&plan, cell, PART, &cell.to_string());
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
        assert_nothing_prepared(&cluster, &cell.to_string());

        format!(
            "{cell} fired@{fired_at} acked={acked} rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

/// Four clients commit through `COORD` at once, on keys of their own, so
/// their Clog records queue behind one another's writes and share flushes;
/// the coordinator dies at its `hit`-th `log.batch_written` — a batch on
/// disk, none of its callers told. `starts`: the batch holds `Start`
/// records (their prepares left beside them), else `Decision{commit}`s
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
        let cluster = boot(&path);
        let cell = format!("log.batch_written hit={hit}");
        // Client c writes the c-th key of each node.
        let per_node = keys_per_node(&cluster, CLIENTS);
        let keys_of =
            |c: usize| -> Vec<Vec<u8>> { per_node.values().map(|v| v[c].clone()).collect() };
        let all_keys: Vec<Vec<u8>> = (0..CLIENTS).flat_map(keys_of).collect();

        // A list-append transaction over `keys`: what it saw and what its
        // client heard.
        let list_append = |cluster: &Cluster, keys: &[Vec<u8>]| {
            let client = cluster.client();
            let mut tx = client.begin(COORD);
            let obs = append(&mut tx, keys).expect("list append");
            (obs, ack(tx.commit()))
        };
        let (seed_obs, seeded) = list_append(&cluster, &all_keys);
        assert_eq!(seeded, 'C', "{cell}: seed");
        sleep(50 * MILLIS);

        plan.arm(FaultSchedule::new().crash_at(CrashPoint::LogBatchWritten, COORD, hit));
        let doomed = Rc::new(RefCell::new(Vec::new()));
        let cluster = Rc::new(cluster);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (cluster, doomed, keys) = (Rc::clone(&cluster), Rc::clone(&doomed), keys_of(c));
                spawn(move || {
                    let outcome = list_append(&cluster, &keys);
                    doomed.borrow_mut().push(outcome);
                })
            })
            .collect();
        clients.into_iter().for_each(join);
        sleep(4 * SECONDS);
        let mut cluster = Rc::try_unwrap(cluster)
            .unwrap_or_else(|_| panic!("{cell}: a client still holds the cluster"));
        let mut doomed = doomed.take();
        doomed.sort_by_key(|(obs, _)| obs.id);
        let acks: String = doomed.iter().map(|(_, acked)| *acked).collect();

        let fired_at = fired_once(&plan, CrashPoint::LogBatchWritten, COORD, &cell);

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
            // The first doomed Start found the writer idle and went alone,
            // so the crashed batch holds every later one. Their prepares
            // may be out, but no client of theirs can have heard Committed.
            let untold = started
                .iter()
                .skip(1)
                .filter(|g| doomed.iter().any(|(obs, a)| obs.id == **g && *a != 'C'))
                .count();
            assert!(
                untold >= 2,
                "{cell}: the crashed batch must hold two Starts of unacknowledged clients or more, acks {acks}: {on_disk:?}"
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
        let finals = read_lists(&cluster, SPARE, &all_keys, &cell);
        all_or_nothing(&finals, &seed_obs, seeded, &cell);
        let mut history = vec![seed_obs];
        let mut outcomes = String::new();
        for (obs, acked) in doomed {
            let all = all_or_nothing(&finals, &obs, acked, &cell);
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
        assert_nothing_prepared(&cluster, &cell);
        assert_serializable(&history, &finals, &cell);

        format!(
            "{cell} fired@{fired_at} starts={} commits={} {premise} acked={acks} applied={outcomes} rec={}/{}/{}",
            started.len(),
            committed.len(),
            rec.re_decided,
            rec.resolved,
            rec.failed,
        )
    })
}

/// Cuts `gtx`'s Start, and whatever follows it, from the coordinator's
/// Clog; returns whether the file held it.
fn cut_start(cluster: &Cluster, gtx: GlobalTxId) -> bool {
    let env = cluster.env((COORD - 1) as usize).expect("durable cluster");
    let path = env.dir.join(CLOG_FILE);
    let records = replay(env, CLOG_NAME, &path)
        .expect("the Clog replays")
        .records;
    let start = records.iter().find(|(_, payload)| {
        matches!(ClogRecord::from_bytes(payload), Ok(ClogRecord::Start { gtx: g, .. }) if g == gtx)
    });
    let Some(&(at, _)) = start else {
        return false;
    };
    let raw = std::fs::read(&path).unwrap();
    // Frame: counter 8 B | payload length 4 B | payload | MAC 32 B.
    let mut pos = 0;
    while u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap()) != at {
        let len = u32::from_le_bytes(raw[pos + 8..pos + 12].try_into().unwrap()) as usize;
        pos += 12 + len + 32;
    }
    std::fs::write(&path, &raw[..pos]).unwrap();
    true
}

/// The coordinator dies with its prepares out, and the adversary cuts the
/// transaction's Start from the Clog if it reached the disk (under
/// `native_treaty` no counter holds the Clog's length, so the cut is no
/// freshness error). Every participant prepared; the restarted coordinator
/// does not know the transaction and answers their `QueryDecision` with
/// presumed abort.
fn run_lost_start_cell() -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut options = ClusterOptions::new(SecurityProfile::native_treaty(), path);
        options.engine_config = EngineConfig::tiny();
        let mut cluster = Cluster::start(options).expect("the cluster boots");
        let keys: Vec<Vec<u8>> = key_per_node(&cluster).into_values().collect();
        seed(&cluster, &keys);
        let point = CrashPoint::CoordAfterPrepareFanout;
        let cell = format!("{point} lost start");

        plan.arm(FaultSchedule::new().crash_at(point, COORD, 1));
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        for k in &keys {
            tx.put(k, b"doomed").expect("buffered put");
        }
        let acked = ack(tx.commit());
        assert_ne!(acked, 'C', "{cell}: committed without the coordinator");
        sleep(SECONDS);
        let fired_at = fired_once(&plan, point, COORD, &cell);
        for n in [PART, SPARE] {
            let prepared = store(&cluster, n).prepared_txns();
            assert_eq!(prepared, [gtx], "{cell}: n{n} did not prepare");
        }

        cluster.crash_node((COORD - 1) as usize);
        let cut = cut_start(&cluster, gtx);
        cluster.restart_node((COORD - 1) as usize).unwrap();
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "{cell}: {rec:?}");
        assert_nothing_prepared(&cluster, &cell);
        let mut tx = client.begin(SPARE);
        for k in &keys {
            let got = tx.get(k).expect("post-recovery read");
            assert_eq!(got.as_deref(), Some(&b"seed"[..]), "{cell}: applied");
        }
        tx.commit().expect("verify commit");

        format!(
            "{cell} fired@{fired_at} acked={acked} cut={cut} rec={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed,
        )
    })
}

fn run_twice(cell: impl Fn() -> String) {
    let t1 = cell();
    println!("{t1}");
    assert_eq!(t1, cell(), "fault cell must be deterministic");
}

/// A participant crash between a counter round's ack quorum and its
/// publication leaves the transaction in doubt, never half-decided.
#[test]
fn round_acked_crash_leaves_the_prepare_in_doubt() {
    run_twice(run_round_acked_cell);
}

/// The coordinator dies with a batch of Clog records written and none of
/// its callers told. Its second flush holds three `Start`s (the first
/// found the writer idle and went alone): their prepares left beside
/// them, every participant prepared, and recovery commits all four from
/// the Starts the file shows. Its fifth holds two `Decision{commit}`s of
/// commits already acknowledged, whose round never ran: with them cut
/// from the file, recovery commits both from their Starts and the stable
/// Prepares.
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

/// The coordinator dies at `coord.after_votes` with its Start stable and
/// undecided. `PART` and the coordinator's own slice prepared and voted
/// yes; a cut link lost `SPARE`'s prepare, so `SPARE` holds no slice. The
/// coordinator restarts while `PART` is down. The re-drive cannot reach
/// `PART`, listed first, and `SPARE` votes no: an explicit no decides abort
/// whatever else is out of reach, and the abort applies at once on the
/// shards that hear it and on `PART` when it returns.
fn run_no_beside_a_down_participant_cell() -> String {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let plan = crashpoint::install();
        let mut cluster = boot(&path);
        let owned = key_per_node(&cluster);
        // In write order the Clog lists PART, SPARE, then COORD itself.
        let keys = vec![
            owned[&PART].clone(),
            owned[&SPARE].clone(),
            owned[&COORD].clone(),
        ];
        seed(&cluster, &keys);
        let point = CrashPoint::CoordAfterVotes;
        let cell = format!("{point} no beside a down participant");

        plan.arm(FaultSchedule::new().crash_at(point, COORD, 1));
        cluster.fabric().with_adversary(|a| {
            a.partitions.insert((COORD, SPARE));
        });
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        for k in &keys {
            tx.put(k, b"doomed").expect("buffered put");
        }
        let acked = ack(tx.commit());
        assert_ne!(acked, 'C', "{cell}: committed without SPARE's vote");
        sleep(SECONDS);
        let fired_at = fired_once(&plan, point, COORD, &cell);
        assert_eq!(store(&cluster, PART).prepared_txns(), [gtx], "{cell}");
        assert!(store(&cluster, SPARE).prepared_txns().is_empty(), "{cell}");

        cluster.fabric().with_adversary(|a| a.partitions.clear());
        cluster.crash_node((COORD - 1) as usize);
        cluster.crash_node((PART - 1) as usize);
        cluster.restart_node((COORD - 1) as usize).unwrap();
        let rec = cluster.resolve_recovered();
        assert_eq!((rec.re_decided, rec.failed), (1, 0), "{cell}: {rec:?}");
        let clog = cluster.node((COORD - 1) as usize).clog().expect("durable");
        assert_eq!(clog.decision(gtx), Some(false), "{cell}: not decided abort");
        for n in [COORD, SPARE] {
            let (prepared, locked) = (
                store(&cluster, n).prepared_txns(),
                store(&cluster, n).locked_keys(),
            );
            assert!(
                prepared.is_empty() && locked == 0,
                "{cell}: n{n} holds {prepared:?}, {locked} locks"
            );
        }

        cluster.restart_node((PART - 1) as usize).unwrap();
        let back = cluster.resolve_recovered();
        assert_eq!(back.failed, 0, "{cell}: {back:?}");
        assert_drained(&cluster, &cell);
        let mut tx = client.begin(SPARE);
        for k in &keys {
            let got = tx.get(k).expect("post-recovery read");
            assert_eq!(got.as_deref(), Some(&b"seed"[..]), "{cell}: applied");
        }
        tx.commit().expect("verify commit");

        format!(
            "{cell} fired@{fired_at} acked={acked} rec={}/{}/{} back={}/{}/{}",
            rec.re_decided, rec.resolved, rec.failed, back.re_decided, back.resolved, back.failed,
        )
    })
}

/// A re-drive that meets an unreachable participant and a no vote decides
/// abort: the no is explicit, and the unreachable participant could only
/// have voted yes. (With no explicit no the transaction stays undecided:
/// `commit_point_recovery_with_a_participant_down_stays_undecided`.)
#[test]
fn recovery_with_a_participant_down_and_a_no_vote_aborts() {
    run_twice(run_no_beside_a_down_participant_cell);
}

/// The coordinator dies at `part.after_prepare` on its own slice: its
/// `Prepare` is stable, its own vote is cast and no remote vote is
/// collected yet. Whatever the Clog holds at the restart — a Start the
/// re-drive decides, or none, and the participants learn presumed abort —
/// the recovery oracle holds, with no lock left held. The coordinator's
/// slice votes through the participant path, so the point fires there.
#[test]
fn coordinator_crash_after_its_own_prepare_recovers() {
    for cfg in [Cfg::Commit, Cfg::Abort] {
        run_twice(|| {
            run_list_append(
                CrashPoint::PartAfterPrepare,
                COORD,
                cfg,
                false,
                false,
                false,
                false,
            )
        });
    }
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
        let cluster = boot(&path);
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
        let read = Rc::new(RefCell::new(None));
        let reader = {
            let (read, key) = (Rc::clone(&read), keys[1].clone());
            let client = cluster.client();
            spawn(move || {
                let mut tx = client.begin(SPARE);
                let got = tx.get(&key).expect("locking read");
                *read.borrow_mut() = Some((got, now()));
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
        assert!(read.borrow().is_none(), "the read must park on the lock");
        assert!(now() - acked_at < 5 * MILLIS, "still inside the round");

        // Afterwards.
        join(reader);
        sleep(50 * MILLIS);
        let (value, read_at) = read.take().expect("reader finished");
        assert_eq!(value.as_deref(), Some(&b"acked"[..]));
        assert!(read_at - acked_at >= 4 * MILLIS, "read before the round");
        assert_eq!(query_decision(&cluster, gtx), Some(true));
        assert_eq!(captured(&cluster, req::PEER_COMMIT), 2);
        assert_eq!(clog.decision(gtx), Some(true));
        assert_committed_everywhere(&cluster, gtx, &keys, "externalised");
    });
}

/// Presumed abort: a participant prepared under a Start that never
/// reached the Clog, or was cut from it, aborts at recovery instead of
/// waiting for a decision nobody can reach.
#[test]
fn a_participant_prepared_under_a_lost_start_is_aborted() {
    run_twice(run_lost_start_cell);
}

/// An abort the coordinator refused on a lost vote reply keeps its
/// decision record. `SPARE` prepares and votes yes, but its reply never
/// reaches `COORD`, so the client hears `Aborted`. Without the record a
/// restart of `COORD` before phase two lands would find the Start
/// undecided and re-drive it; every remote still prepared would vote yes,
/// and the transaction the client heard aborted would commit. Presumed
/// abort makes the record redundant only after an explicit no vote
/// (DESIGN.md §11). Here phase two lands before the bounce, so the file
/// holding `Decision{abort}` is the rule's witness and the bounce checks
/// that recovery leaves the abort as the client heard it.
#[test]
fn an_abort_on_a_lost_vote_is_logged_before_the_client_hears_it() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = boot(&path);
        let owned = key_per_node(&cluster);
        let keys = vec![owned[&PART].clone(), owned[&SPARE].clone()];
        seed(&cluster, &keys);

        cluster.fabric().with_adversary(|a| {
            a.partitions.insert((SPARE, COORD));
        });
        // The cluster's client outwaits the coordinator's vote timeout.
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        for k in &keys {
            tx.put(k, b"doomed").expect("buffered put");
        }
        match tx.commit() {
            Err(TreatyError::Aborted(_, abort)) => assert_eq!(
                abort,
                Abort {
                    cause: AbortCause::Unreachable,
                    participant: Some(SPARE)
                },
                "refused for another reason"
            ),
            other => panic!("the client did not hear Aborted: {other:?}"),
        }
        assert!(
            clog_on_disk(&cluster).contains(&ClogRecord::Decision { gtx, commit: false }),
            "the abort was answered without its decision record"
        );

        sleep(4 * SECONDS);
        cluster.fabric().with_adversary(|a| a.partitions.clear());
        bounce(&mut cluster, COORD);
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "{rec:?}");
        assert_nothing_prepared(&cluster, "lost vote");
        let mut tx = client.begin(COORD);
        for k in &keys {
            let got = tx.get(k).expect("post-recovery read");
            assert_eq!(
                got.as_deref(),
                Some(&b"seed"[..]),
                "the aborted write is visible"
            );
        }
        tx.commit().expect("verify commit");
    });
}

/// A no vote does not show that its participant holds no prepared state,
/// so an abort refused by one keeps its decision record too. `PART`'s
/// counter client is cut off from the group, so its `Prepare` round fails:
/// the `Prepare` is on disk, an abort `Decide` is written behind it, and
/// `PART` votes no. The host then cuts `PART`'s WAL between the two frames
/// and `COORD` restarts: the `Prepare` comes back alone, in doubt. The
/// abort record on `COORD`'s disk makes recovery abort it; a coordinator
/// that had only published the abort would re-drive the undecided Start
/// into `PART`'s yes and commit what its client heard aborted (DESIGN.md
/// §11).
#[test]
fn a_no_after_a_failed_prepare_round_keeps_its_abort_record() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let mut cluster = boot(&path);
        let written = key_per_node(&cluster)[&PART].clone();
        seed(&cluster, std::slice::from_ref(&written));

        let counter_client = COUNTER_CLIENT_BASE + (PART - 1);
        cluster.fabric().with_adversary(|a| {
            for r in 0..3u32 {
                a.partitions.insert((counter_client, COUNTER_BASE + r));
            }
        });
        let client = cluster.client();
        let mut tx = client.begin(COORD);
        let gtx = tx.gtx();
        tx.put(&written, b"doomed").expect("buffered put");
        match tx.commit() {
            Err(TreatyError::Aborted(_, abort)) => assert_eq!(
                abort,
                Abort {
                    cause: AbortCause::VotedNo,
                    participant: Some(PART)
                },
                "refused for another reason"
            ),
            other => panic!("the client did not hear Aborted: {other:?}"),
        }
        assert!(
            clog_on_disk(&cluster).contains(&ClogRecord::Decision { gtx, commit: false }),
            "the abort was answered without its decision record"
        );

        sleep(SECONDS);
        cluster.crash_node((PART - 1) as usize);
        assert_eq!(
            cut_wal_after_prepare(&cluster, gtx),
            [None, Some(false)],
            "PART's WAL holds the Prepare and then its abort Decide"
        );
        cluster.fabric().with_adversary(|a| a.partitions.clear());
        cluster
            .restart_node((PART - 1) as usize)
            .expect("the cut WAL reopens");
        assert_eq!(
            store(&cluster, PART).prepared_txns(),
            [gtx],
            "the Prepare came back alone"
        );
        bounce(&mut cluster, COORD);
        let rec = cluster.resolve_recovered();
        assert_eq!(rec.failed, 0, "{rec:?}");
        assert_drained(&cluster, "no after a failed prepare round");
        let mut tx = client.begin(COORD);
        let got = tx.get(&written).expect("post-recovery read");
        assert_eq!(
            got.as_deref(),
            Some(&b"seed"[..]),
            "the aborted write committed"
        );
        tx.commit().expect("verify commit");
    });
}

/// Cuts `PART`'s WAL right after `gtx`'s `Prepare` frame, as a host that
/// dropped the tail at that frame boundary would. Returns what the file
/// held for `gtx` before the cut: `None` for the `Prepare`, `Some(commit)`
/// for each `Decide`, in order (empty if no WAL holds the `Prepare`).
fn cut_wal_after_prepare(cluster: &Cluster, gtx: GlobalTxId) -> Vec<Option<bool>> {
    let env = cluster.env((PART - 1) as usize).expect("durable cluster");
    let wals = std::fs::read_dir(&env.dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("wal-"));
    for name in wals {
        let path = env.dir.join(&name);
        let records = replay(env, &name, &path).expect("the WAL replays").records;
        let of_gtx: Vec<(u64, Option<bool>)> = records
            .iter()
            .filter_map(|(at, payload)| match WalRecord::from_bytes(payload) {
                Ok(WalRecord::Prepare { gtx: g, .. }) if g == gtx => Some((*at, None)),
                Ok(WalRecord::Decide { gtx: g, commit, .. }) if g == gtx => {
                    Some((*at, Some(commit)))
                }
                _ => None,
            })
            .collect();
        let Some(&(prepared_at, None)) = of_gtx.first() else {
            continue;
        };
        let raw = std::fs::read(&path).unwrap();
        // Frame: counter 8 B | payload length 4 B | payload | MAC 32 B.
        let mut pos = 0;
        loop {
            let at = u64::from_le_bytes(raw[pos..pos + 8].try_into().unwrap());
            let len = u32::from_le_bytes(raw[pos + 8..pos + 12].try_into().unwrap()) as usize;
            pos += 12 + len + 32;
            if at == prepared_at {
                break;
            }
        }
        std::fs::write(&path, &raw[..pos]).unwrap();
        return of_gtx.into_iter().map(|(_, r)| r).collect();
    }
    Vec::new()
}
