//! L009 canary fixture, file A: the commit lock, then the maintenance lock.
//!
//! Paired with `cycle_b.rs`, which takes the same two fiber locks in the
//! opposite order — together they form the two-file lock-order cycle
//! that `analyzer::tests::l009_two_file_lock_order_cycle` asserts on.
//! This file is a test fixture, not compiled into the crate; the
//! workspace walker skips the `lint` directory precisely so fixtures
//! can contain deliberate violations.

fn commit_then_maintenance(&self) {
    let a = self.commits.lock();
    let b = self.maintenance_lock.lock();
    drop(b);
    drop(a);
}
