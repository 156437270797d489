//! L009 canary fixture, file B: takes the maintenance lock, then the
//! commit lock — the reverse of `cycle_a.rs`, completing the lock-order
//! cycle the L009 canary test asserts on (witnesses in both files).

fn maintenance_then_commit(&self) {
    let b = self.maintenance_lock.lock();
    let a = self.commits.lock();
    drop(a);
    drop(b);
}
