//! Trace invariants through the public facade: committed distributed
//! transactions yield balanced cross-node span trees on the virtual clock,
//! the spans cover every layer of the stack, and same-seed runs export
//! byte-identical Chrome traces.

use std::rc::Rc;

use std::cell::RefCell;
use treaty::core::{Cluster, ClusterOptions};
use treaty::obs::{check_invariants, chrome_trace_json, EventKind, Obs, Phase, TraceEvent};
use treaty::sched::block_on;
use treaty::sim::SecurityProfile;

const TXNS: u64 = 5;

/// A traced run: the recorded events and the exported JSON.
type Traced = (Vec<TraceEvent>, String);

/// Runs a small multi-shard workload on a 3-node cluster with the tracing
/// hub installed and returns the recorded events plus the exported JSON.
fn traced_run(seed: u64) -> Traced {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    let out: Rc<RefCell<Option<Traced>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    block_on(move || {
        let obs = Obs::with_default_cap();
        treaty::sim::obs::install(&obs);
        let mut options = ClusterOptions::new(SecurityProfile::treaty_full(), path);
        options.engine_config = treaty::store::EngineConfig::tiny();
        options.seed = seed;
        let cluster = Cluster::start(options).unwrap();
        let client = cluster.client();
        for i in 0..TXNS as u32 {
            let mut tx = client.begin(1 + (i % 3));
            // Keys spread over the shard map, so 2PC reaches remote
            // participants and the trace crosses nodes.
            for k in 0..6u32 {
                tx.put(format!("trace-key-{i}-{k}").as_bytes(), b"v")
                    .unwrap();
            }
            tx.commit().unwrap();
        }
        // Let in-flight deliveries and background stabilization drain so
        // every span closes before the snapshot.
        treaty::sim::runtime::sleep(50 * treaty::sim::MILLIS);
        assert_eq!(
            cluster.totals().0,
            TXNS,
            "the cluster must count every committed transaction"
        );
        treaty::sim::obs::uninstall();
        let events = obs.events();
        assert_eq!(obs.dropped(), 0, "smoke run must fit the ring buffer");
        let json = chrome_trace_json(&events);
        *out2.borrow_mut() = Some((events, json));
    });
    let r = out.borrow_mut().take().unwrap();
    r
}

#[test]
fn committed_txns_produce_balanced_cross_layer_span_trees() {
    let (events, _) = traced_run(42);
    assert!(!events.is_empty());

    // Balanced + nested + per-fiber monotone, all in one pass.
    let forest = check_invariants(&events).expect("span tree invariants");
    assert!(!forest.is_empty());

    // Spans from every layer of the stack.
    for layer in ["client.", "2pc.", "clog.", "store.", "net."] {
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Enter && e.phase.name().starts_with(layer)),
            "no span from layer {layer}"
        );
    }

    // 2PC work on at least two distinct nodes (coordinator + participant).
    let mut nodes_with_2pc: Vec<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::Enter && e.phase.name().starts_with("2pc."))
        .map(|e| e.node)
        .collect();
    nodes_with_2pc.sort_unstable();
    nodes_with_2pc.dedup();
    assert!(
        nodes_with_2pc.len() >= 2,
        "2PC spans must cover >= 2 nodes, got {nodes_with_2pc:?}"
    );

    // Every committed transaction's coordinator-side commit span exists,
    // tagged with its transaction id.
    let mut commit_txns: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Enter && e.phase == Phase::CoordCommit)
        .map(|e| e.txn)
        .collect();
    commit_txns.sort_unstable();
    commit_txns.dedup();
    assert_eq!(commit_txns.len() as u64, TXNS);
    assert!(commit_txns.iter().all(|t| *t != 0));

    // Virtual timestamps are monotone in sink order per fiber (the sink
    // sequences events deterministically).
    let mut last_ts: std::collections::BTreeMap<(u32, u64), u64> = Default::default();
    for e in &events {
        let prev = last_ts.entry((e.node, e.fiber)).or_insert(0);
        assert!(e.ts >= *prev, "timestamps must be monotone per fiber");
        *prev = e.ts;
    }
}

#[test]
fn same_seed_runs_export_byte_identical_traces() {
    let (_, a) = traced_run(7);
    let (_, b) = traced_run(7);
    assert_eq!(a, b, "same-seed traces must be byte-identical");
    assert!(a.contains("\"traceEvents\""));
}

/// Like [`traced_run`], but with values big enough that every node's tiny
/// MemTable rotates several times: the trace records phase-2 dispatch,
/// SSTable builds and compactions from the daemon fibers of the pipelined
/// commit path.
fn traced_bulk_run(seed: u64) -> Traced {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    let out: Rc<RefCell<Option<Traced>>> = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    block_on(move || {
        let obs = Obs::with_default_cap();
        treaty::sim::obs::install(&obs);
        let mut options = ClusterOptions::new(SecurityProfile::treaty_full(), path);
        options.engine_config = treaty::store::EngineConfig::tiny();
        options.seed = seed;
        let cluster = Cluster::start(options).unwrap();
        let client = cluster.client();
        let big = vec![0x6du8; 4 << 10];
        for i in 0..16u32 {
            let mut tx = client.begin(1 + (i % 3));
            for k in 0..3u32 {
                tx.put(format!("bulk-{i}-{k}").as_bytes(), &big).unwrap();
            }
            tx.commit().unwrap();
        }
        // Queued decisions, background builds and compactions all drain
        // well inside this window, so every daemon span closes.
        treaty::sim::runtime::sleep(500 * treaty::sim::MILLIS);
        treaty::sim::obs::uninstall();
        let events = obs.events();
        let json = chrome_trace_json(&events);
        *out2.borrow_mut() = Some((events, json));
    });
    let r = out.borrow_mut().take().unwrap();
    r
}

/// The pipelined commit path: phase-2 dispatch and store maintenance run
/// on daemon fibers, not on the fibers that execute commits.
#[test]
fn pipelined_dispatch_and_maintenance_run_off_commit_fibers() {
    let (events, _) = traced_bulk_run(42);
    check_invariants(&events).expect("span tree invariants");

    // Fibers that execute commit work: coordinator client sessions
    // (`2pc.commit`) and any fiber that enters the group-commit path
    // (`store.commit` — client sessions, peer sessions, recovery).
    let commit_fibers: std::collections::BTreeSet<(u32, u64)> = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::Enter && matches!(e.phase, Phase::CoordCommit | Phase::StoreCommit)
        })
        .map(|e| (e.node, e.fiber))
        .collect();
    assert!(!commit_fibers.is_empty());

    for phase in [
        Phase::CoordSendDecision,
        Phase::StoreFlush,
        Phase::StoreCompact,
    ] {
        let spans: Vec<(u32, u64)> = events
            .iter()
            .filter(|e| e.kind == EventKind::Enter && e.phase == phase)
            .map(|e| (e.node, e.fiber))
            .collect();
        assert!(!spans.is_empty(), "no {phase} span recorded");
        for f in &spans {
            assert!(
                !commit_fibers.contains(f),
                "{phase} ran on a commit fiber {f:?} — the pipelined path must move it to a daemon"
            );
        }
    }
}

/// Daemon scheduling is deterministic: the bulk run (dispatch + background
/// flush/compaction) exports byte-identical traces for the same seed.
#[test]
fn same_seed_bulk_runs_export_byte_identical_traces() {
    let (_, a) = traced_bulk_run(11);
    let (_, b) = traced_bulk_run(11);
    assert_eq!(a, b, "same-seed pipelined traces must be byte-identical");
}
