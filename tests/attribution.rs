//! Tail-latency attribution and live introspection through the public
//! facade: the attributed critical path explains ≥ 95% of every committed
//! transaction's measured latency, same-seed runs export byte-identical
//! attribution JSON, and the `OBS_SNAPSHOT` introspection RPC answers
//! with live fields that match the node's own structures and the metrics
//! registry.

use std::rc::Rc;

use std::cell::RefCell;
use treaty::core::{Cluster, ClusterOptions};
use treaty::obs::{attribute, Obs};
use treaty::sched::block_on;
use treaty::sim::SecurityProfile;

const TXNS: u64 = 8;

struct RunOut {
    json: String,
    txns: usize,
    min_coverage_bp: u64,
    p99_dominant: Option<&'static str>,
}

/// Runs a small multi-shard workload on a 3-node cluster and attributes
/// every committed transaction's critical path.
fn attribution_run(seed: u64) -> RunOut {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    let out: Rc<RefCell<Option<RunOut>>> = Rc::new(RefCell::new(None));
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
            // participants and the critical path crosses nodes.
            for k in 0..6u32 {
                tx.put(format!("attr-key-{i}-{k}").as_bytes(), b"v")
                    .unwrap();
            }
            tx.commit().unwrap();
        }
        // Let in-flight deliveries and background stabilization drain so
        // every span closes before the snapshot.
        treaty::sim::runtime::sleep(50 * treaty::sim::MILLIS);
        treaty::sim::obs::uninstall();
        let events = obs.events();
        let report = attribute(&events, obs.dropped());
        *out2.borrow_mut() = Some(RunOut {
            json: report.to_json(),
            txns: report.txns.len(),
            min_coverage_bp: report.min_coverage_bp(),
            p99_dominant: report.p99_dominant().map(|c| c.name()),
        });
    });
    let r = out.borrow_mut().take().unwrap();
    r
}

#[test]
fn attribution_explains_committed_latency_and_names_the_tail() {
    let run = attribution_run(42);
    assert_eq!(
        run.txns as u64, TXNS,
        "one attribution per committed transaction"
    );
    assert!(
        run.min_coverage_bp >= 9_500,
        "critical-path attribution must explain >= 95% of every committed \
         transaction's measured latency, worst txn covered only {} bp",
        run.min_coverage_bp
    );
    assert!(
        run.p99_dominant.is_some(),
        "the tail bucket must name a dominant category"
    );
}

#[test]
fn same_seed_attribution_json_is_byte_identical() {
    let a = attribution_run(7);
    let b = attribution_run(7);
    assert_eq!(
        a.json, b.json,
        "same-seed runs must export byte-identical attribution JSON"
    );
    assert_eq!(a.txns as u64, TXNS);
}

#[test]
fn obs_snapshot_rpc_reports_live_fields_matching_the_registry() {
    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().to_path_buf();
    block_on(move || {
        let obs = Obs::with_default_cap();
        treaty::sim::obs::install(&obs);
        let mut options = ClusterOptions::new(SecurityProfile::treaty_full(), path);
        options.engine_config = treaty::store::EngineConfig::tiny();
        let cluster = Cluster::start(options).unwrap();
        let client = cluster.client();
        for i in 0..TXNS as u32 {
            let mut tx = client.begin(1 + (i % 3));
            for k in 0..6u32 {
                tx.put(format!("top-key-{i}-{k}").as_bytes(), b"v").unwrap();
            }
            tx.commit().unwrap();
        }
        treaty::sim::runtime::sleep(50 * treaty::sim::MILLIS);

        // Poll every node over the fabric and check each live field
        // against the node's own structures.
        let mut total_committed = 0;
        let endpoints = cluster.node_endpoints();
        for (idx, ep) in endpoints.iter().enumerate() {
            let snap = client.obs_snapshot(*ep).expect("OBS_SNAPSHOT reply");
            assert_eq!(snap.node, *ep);
            assert!(snap.ts > 0, "snapshot carries a virtual timestamp");
            let ns = cluster.node(idx).stats();
            assert_eq!(snap.committed, ns.committed);
            assert_eq!(snap.aborted, ns.aborted);
            assert_eq!(snap.participant_ops, ns.participant_ops);
            assert_eq!(snap.decision_retries, ns.decision_retries);
            assert_eq!(
                snap.prepared_txns, 0,
                "no transaction may stay prepared after the run drains"
            );
            let store = cluster.store(idx).expect("durable cluster");
            assert_eq!(snap.stable_ts, store.stable_ts());
            let es = store.stats();
            assert_eq!(snap.block_cache_hits, es.block_cache_hits);
            assert_eq!(snap.block_cache_misses, es.block_cache_misses);
            total_committed += snap.committed;
        }
        assert_eq!(
            total_committed, TXNS,
            "live coordinator counts must add up to the run total"
        );

        // The cluster saw the same commits, and the registry counted our
        // polls.
        assert_eq!(cluster.totals().0, TXNS);
        let counters = obs.metrics().snapshot().counters;
        assert_eq!(
            counters.get("core.obs_snapshots_served"),
            Some(&(endpoints.len() as u64))
        );
        treaty::sim::obs::uninstall();
    });
}
