//! TPC-C showdown: runs the full five-profile TPC-C mix against two system
//! variants — the unprotected DS-RocksDB baseline and full Treaty — on the
//! same 3-node cluster layout, and prints what security costs.
//!
//! A miniature of the paper's Fig. 3 experiment, runnable in seconds.
//!
//! ```sh
//! cargo run --release --example tpcc_showdown
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use treaty::core::{Cluster, ClusterOptions, DistTxn};
use treaty::sched::block_on;
use treaty::sim::runtime::{self, join, spawn};
use treaty::sim::SecurityProfile;
use treaty::store::{EngineTxn as _, TxnMode};
use treaty::workload::{KvTxn, TpccConfig, TpccGenerator};

struct Kv<'a, 'b>(&'a mut DistTxn<'b>);
impl KvTxn for Kv<'_, '_> {
    fn get(&mut self, k: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.0.get(k).map_err(|e| e.to_string())
    }
    fn put(&mut self, k: &[u8], v: &[u8]) -> Result<(), String> {
        self.0.put(k, v).map_err(|e| e.to_string())
    }
}

const CLIENTS: usize = 12;
const TXNS: usize = 10;

fn run_variant(profile: SecurityProfile) -> (f64, f64) {
    let dir = tempfile::tempdir().expect("tempdir");
    let path = dir.path().to_path_buf();
    let out = Rc::new(RefCell::new((0.0, 0.0)));
    let out2 = Rc::clone(&out);
    block_on(move || {
        let cluster = Rc::new(Cluster::start(ClusterOptions::new(profile, path)).expect("boot"));
        let tpcc = TpccConfig::paper_10w();

        // Load the initial database straight into the owning stores.
        for (k, v) in TpccGenerator::initial_rows(&tpcc) {
            let owner = cluster.shard_map().owner(&k);
            let idx = (owner - 1) as usize;
            let store = cluster.store(idx).expect("durable").clone();
            let mut txn = store.begin_mode(TxnMode::Pessimistic);
            txn.put(&k, &v).expect("load");
            txn.commit().expect("load commit");
        }

        let t0 = runtime::now();
        let committed = Rc::new(Cell::new(0));
        let mut handles = Vec::new();
        for c in 0..CLIENTS {
            let cluster = Rc::clone(&cluster);
            let committed = Rc::clone(&committed);
            handles.push(spawn(move || {
                let client = cluster.client();
                let mut gen = TpccGenerator::new(TpccConfig::paper_10w(), c as u64 + 1);
                for _ in 0..TXNS {
                    let mut tx = client.begin(1 + (c % 3) as u32);
                    let ok = gen.run_txn(&mut Kv(&mut tx)).is_ok() && tx.commit().is_ok();
                    if ok {
                        committed.update(|n| n + 1);
                    }
                }
            }));
        }
        for h in handles {
            join(h);
        }
        let secs = (runtime::now() - t0) as f64 / 1e9;
        let tps = committed.get() as f64 / secs;
        *out2.borrow_mut() = (tps, secs * 1000.0 / TXNS as f64);
    });
    let r = *out.borrow_mut();
    r
}

fn main() {
    println!("TPC-C, 10 warehouses, 3 nodes, {CLIENTS} terminals x {TXNS} txns\n");
    let (base_tps, _) = run_variant(SecurityProfile::rocksdb());
    println!("  DS-RocksDB (no security):          {base_tps:8.0} tps");
    let (full_tps, _) = run_variant(SecurityProfile::treaty_full());
    println!("  Treaty (enc + integrity + stab):   {full_tps:8.0} tps");
    println!(
        "\n  full security costs {:.1}x — the paper reports 8-11x on real SGX at 10W",
        base_tps / full_tps
    );
    println!("  (confidentiality, integrity and rollback protection included)");
}
