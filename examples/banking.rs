//! Banking: concurrent cross-shard transfers with a crash in the middle.
//!
//! Demonstrates the property Treaty exists for — serializable ACID
//! transactions whose atomicity survives node failures — by checking that
//! money is conserved across 64 concurrent transfers and a participant
//! crash + recovery.
//!
//! ```sh
//! cargo run --release --example banking
//! ```

use std::rc::Rc;

use std::cell::RefCell;
use treaty::core::{Cluster, ClusterOptions};
use treaty::sched::block_on;
use treaty::sim::runtime::{join, spawn};
use treaty::sim::SecurityProfile;

const ACCOUNTS: u32 = 16;
const INITIAL: i64 = 1_000;

fn account(i: u32) -> Vec<u8> {
    format!("account-{i:04}").into_bytes()
}

fn parse(v: &[u8]) -> i64 {
    String::from_utf8_lossy(v).parse().expect("balance parses")
}

fn main() {
    let dir = tempfile::tempdir().expect("tempdir");
    let path = dir.path().to_path_buf();
    block_on(move || {
        let cluster = Rc::new(RefCell::new(
            Cluster::start(ClusterOptions::new(SecurityProfile::treaty_full(), path))
                .expect("cluster boots"),
        ));

        println!("== seeding {ACCOUNTS} accounts with {INITIAL} each ==");
        {
            let teller = cluster.borrow_mut().client();
            let mut tx = teller.begin(1);
            for i in 0..ACCOUNTS {
                tx.put(&account(i), INITIAL.to_string().as_bytes())
                    .expect("seed");
            }
            tx.commit().expect("seed commit");
        }

        println!("== 8 tellers x 8 transfers, concurrently ==");
        let mut handles = Vec::new();
        for teller_id in 0..8u32 {
            let cluster = Rc::clone(&cluster);
            handles.push(spawn(move || {
                let client = cluster.borrow_mut().client();
                let coordinator = 1 + (teller_id % 3);
                let mut committed = 0;
                for t in 0..8u32 {
                    let from = (teller_id * 7 + t) % ACCOUNTS;
                    let to = (from + 1 + t) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let mut tx = client.begin(coordinator);
                    let moved = (|| -> Result<(), treaty::core::TreatyError> {
                        let a = parse(&tx.get(&account(from))?.expect("exists"));
                        let b = parse(&tx.get(&account(to))?.expect("exists"));
                        let amount = 10;
                        tx.put(&account(from), (a - amount).to_string().as_bytes())?;
                        tx.put(&account(to), (b + amount).to_string().as_bytes())?;
                        Ok(())
                    })();
                    if moved.is_ok() && tx.commit().is_ok() {
                        committed += 1;
                    }
                }
                println!("   teller {teller_id}: {committed} transfers committed");
            }));
        }
        for h in handles {
            join(h);
        }

        println!("== crashing node 2 and restarting it ==");
        {
            let mut c = cluster.borrow_mut();
            c.crash_node(1);
            c.restart_node(1)
                .expect("recovery succeeds (state verified fresh)");
            c.resolve_recovered();
        }

        println!(
            "== auditing: total balance must still be {} ==",
            ACCOUNTS as i64 * INITIAL
        );
        let auditor = cluster.borrow_mut().client();
        let mut tx = auditor.begin(3);
        let mut total = 0;
        for i in 0..ACCOUNTS {
            total += parse(&tx.get(&account(i)).expect("get").expect("exists"));
        }
        tx.commit().expect("audit commit");
        assert_eq!(total, ACCOUNTS as i64 * INITIAL, "conservation violated!");
        println!("   audit passed: {total}");
    });
}
