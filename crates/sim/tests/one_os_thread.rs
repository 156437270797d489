//! A simulation runs on the OS thread that calls `Sim::run`, however many
//! fibers it holds. This file holds one test so that no other test's thread
//! comes or goes while it counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use treaty_sim::runtime::{join, park, spawn, unpark, yield_now, Sim};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn a_thousand_parked_fibers_add_no_os_thread() {
    let outside = os_threads();
    let inside = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&inside);
    Sim::new()
        .run(move || {
            let fibers: Vec<_> = (0..1_000).map(|_| spawn(park)).collect();
            // Every fiber runs to its `park` before the root runs again.
            yield_now();
            seen.store(os_threads(), Ordering::SeqCst);
            for &f in &fibers {
                assert!(unpark(f), "every fiber is parked");
            }
            fibers.into_iter().for_each(join);
        })
        .unwrap();
    assert_eq!(inside.load(Ordering::SeqCst), outside);
}
