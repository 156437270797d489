//! The key lock table for two-phase locking (§V-B).
//!
//! "Nodes store a table of locks for their keys that is divided across
//! shards, each protected with a lock, by splitting the key space. Treaty
//! runs with a big number of shards to avoid locking bottlenecks. Txs that
//! fail to acquire a lock within a timeframe return with a timeout error."
//!
//! One thread runs the store, so there is no bottleneck for shards to
//! avoid: the held keys are one ordered map, which also lets a span fence
//! list the keys other transactions hold X inside its span
//! ([`LockTable::exclusive_in_span`]). What stays striped by key is the
//! waiting: a release wakes only the waiters of its key's stripe.
//!
//! Timeouts double as deadlock avoidance: a cycle resolves when one of its
//! transactions times out and aborts.

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;

use treaty_sched::WaitQueue;
use treaty_sim::obs::{Counter, Phase};
use treaty_sim::{runtime, FiberCell, Nanos};

use crate::memtable::UserKey;
use crate::{Result, StoreError};

/// A lock owner: one transaction.
pub type TxId = u64;

/// Cheap deterministic stripe hash: FNV-1a over the key bytes with a
/// Fibonacci final mix (golden-ratio multiply) so sequential key suffixes
/// still disperse across wait stripes. Stripe dispatch needs uniformity,
/// not collision resistance. Not dependent on the shard map's keyed hash:
/// lock striping is node-local and needs no cross-node agreement.
fn stripe_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The next-key lock target when a scan or range delete runs off the end
/// of the key space: there is no "first existing key ≥ end" to lock, so
/// the gap to infinity is fenced by this sentinel instead. It is a lock
/// name only — never a stored key — and sorts above every workload key
/// (workloads use short printable keys; `0xff` leads deliberately).
pub const EOF_SENTINEL: &[u8] = b"\xff\xff\xff\xff__treaty_eof_sentinel";

/// Requested lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared holders.
    Shared,
    /// Exclusive (write).
    Exclusive,
}

#[derive(Debug, Default)]
struct KeyLock {
    exclusive: Option<TxId>,
    shared: HashSet<TxId>,
}

impl KeyLock {
    fn is_free(&self) -> bool {
        self.exclusive.is_none() && self.shared.is_empty()
    }

    /// Attempts the acquisition: `None` when it conflicts, otherwise
    /// whether `tx` is a new holder of the key (`false` when it already
    /// held it, in either mode — an upgrade included).
    fn try_acquire(&mut self, tx: TxId, mode: LockMode) -> Option<bool> {
        match mode {
            LockMode::Shared => {
                if self.exclusive == Some(tx) {
                    Some(false) // X already implies S
                } else if self.exclusive.is_none() {
                    Some(self.shared.insert(tx))
                } else {
                    None
                }
            }
            LockMode::Exclusive => {
                if self.exclusive == Some(tx) {
                    Some(false)
                } else if self.exclusive.is_none()
                    && (self.shared.is_empty()
                        || (self.shared.len() == 1 && self.shared.contains(&tx)))
                {
                    // Free, or an upgrade by the sole shared holder.
                    let upgrade = self.shared.remove(&tx);
                    self.exclusive = Some(tx);
                    Some(!upgrade)
                } else {
                    None
                }
            }
        }
    }

    fn release(&mut self, tx: TxId) {
        if self.exclusive == Some(tx) {
            self.exclusive = None;
        }
        self.shared.remove(&tx);
    }
}

/// The lock table.
pub struct LockTable {
    /// Every key some transaction holds, in key order.
    locks: FiberCell<BTreeMap<UserKey, KeyLock>>,
    /// Wait queues, one per stripe of the key space.
    waiters: Vec<WaitQueue>,
    timeout: Nanos,
}

impl std::fmt::Debug for LockTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockTable")
            .field("stripes", &self.waiters.len())
            .finish_non_exhaustive()
    }
}

impl LockTable {
    /// Creates a table with `shards` wait stripes and the given
    /// acquisition timeout.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, timeout: Nanos) -> Self {
        assert!(shards > 0);
        LockTable {
            locks: FiberCell::new(BTreeMap::new()),
            waiters: (0..shards).map(|_| WaitQueue::new()).collect(),
            timeout,
        }
    }

    fn stripe(&self, key: &[u8]) -> usize {
        (stripe_hash(key) % self.waiters.len() as u64) as usize
    }

    /// One acquisition attempt ([`KeyLock::try_acquire`]). The key is
    /// looked up by reference; it is copied only when it becomes a new
    /// entry of the table.
    fn try_acquire(&self, tx: TxId, key: &[u8], mode: LockMode) -> Option<bool> {
        let mut locks = self.locks.borrow_mut();
        if let Some(kl) = locks.get_mut(key) {
            return kl.try_acquire(tx, mode);
        }
        let mut kl = KeyLock::default();
        let acquired = kl.try_acquire(tx, mode);
        locks.insert(key.to_vec(), kl);
        acquired
    }

    /// Acquires `mode` on `key` for `tx`, waiting up to the configured
    /// timeout. Re-entrant: a transaction already holding a stronger or
    /// equal lock succeeds immediately; the sole shared holder may upgrade.
    /// Returns whether `tx` is a new holder of `key`: `false` when it held
    /// the key already, in either mode.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::LockTimeout`] when the lock cannot be acquired
    /// in time.
    pub fn lock(&self, tx: TxId, key: &[u8], mode: LockMode) -> Result<bool> {
        // Every lock-table entry point counts: the snapshot-read tests
        // assert read-only transactions leave this at zero.
        treaty_sim::obs::counter_add(Counter::StoreLockAcquire, 1);
        // Fast path.
        if let Some(new) = self.try_acquire(tx, key, mode) {
            return Ok(new);
        }
        // Contended: wait with a deadline (fiber context required). The
        // span makes blocked time first-class in the trace — the
        // critical-path walker's lock-wait category reads it directly.
        let _span = treaty_sim::obs::span(Phase::StoreLockWait);
        treaty_sim::obs::counter_add(Counter::StoreLockContended, 1);
        let deadline = runtime::now().saturating_add(self.timeout);
        let waiters = &self.waiters[self.stripe(key)];
        loop {
            let now = runtime::now();
            if now >= deadline {
                treaty_sim::obs::counter_add(Counter::StoreLockTimeouts, 1);
                return Err(StoreError::LockTimeout);
            }
            waiters.wait_timeout(deadline - now);
            if let Some(new) = self.try_acquire(tx, key, mode) {
                return Ok(new);
            }
        }
    }

    /// Attempts the acquisition without waiting. Returns whether `tx` is a
    /// new holder of `key`, as [`LockTable::lock`] does.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::LockTimeout`] immediately when contended.
    pub fn try_lock(&self, tx: TxId, key: &[u8], mode: LockMode) -> Result<bool> {
        treaty_sim::obs::counter_add(Counter::StoreLockAcquire, 1);
        self.try_acquire(tx, key, mode)
            .ok_or(StoreError::LockTimeout)
    }

    /// Releases every lock `tx` holds among `keys` and wakes waiters.
    pub fn release(&self, tx: TxId, keys: impl IntoIterator<Item = UserKey>) {
        // Wake each touched stripe once.
        let mut touched: Vec<usize> = Vec::new();
        {
            let mut locks = self.locks.borrow_mut();
            for key in keys {
                if let Some(kl) = locks.get_mut(&key) {
                    kl.release(tx);
                    if kl.is_free() {
                        locks.remove(&key);
                    }
                }
                let idx = self.stripe(&key);
                if !touched.contains(&idx) {
                    touched.push(idx);
                }
            }
        }
        for idx in touched {
            self.waiters[idx].notify_all();
        }
    }

    /// Releases the keys among `keys` that `tx` holds only in S mode,
    /// wakes their waiters, and returns the keys it holds X, in order. A
    /// key `tx` does not hold is dropped from the list.
    pub fn release_shared(&self, tx: TxId, keys: Vec<UserKey>) -> Vec<UserKey> {
        let mut touched: Vec<usize> = Vec::new();
        let mut kept = Vec::new();
        {
            let mut locks = self.locks.borrow_mut();
            for key in keys {
                let Some(kl) = locks.get_mut(&key) else {
                    continue;
                };
                if kl.exclusive == Some(tx) {
                    kept.push(key);
                } else if kl.shared.remove(&tx) {
                    if kl.is_free() {
                        locks.remove(&key);
                    }
                    let idx = self.stripe(&key);
                    if !touched.contains(&idx) {
                        touched.push(idx);
                    }
                    treaty_sim::obs::counter_add(Counter::StoreLockReleasedAtCommitPoint, 1);
                }
            }
        }
        for idx in touched {
            self.waiters[idx].notify_all();
        }
        kept
    }

    /// The keys in `[start, end)` that a transaction other than `tx` holds
    /// X, in key order. A span fence waits on them: a key written but not
    /// yet in the store — an insert in flight or a prepared write — is
    /// invisible to its pass, yet X-held by its writer until the write is
    /// applied or dropped.
    pub fn exclusive_in_span(&self, tx: TxId, start: &[u8], end: &[u8]) -> Vec<UserKey> {
        if start >= end {
            return Vec::new();
        }
        let span = (Bound::Included(start), Bound::Excluded(end));
        self.locks
            .borrow()
            .range::<[u8], _>(span)
            .filter(|(_, kl)| kl.exclusive.is_some_and(|owner| owner != tx))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Total keys currently locked (test introspection).
    pub fn locked_keys(&self) -> usize {
        self.locks.borrow().len()
    }

    /// Locked-key count per wait stripe (striping-distribution
    /// introspection).
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.waiters.len()];
        for key in self.locks.borrow().keys() {
            sizes[self.stripe(key)] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use treaty_sched::block_on;
    use treaty_sim::obs::Obs;
    use treaty_sim::runtime::{join, now, sleep, spawn};
    use treaty_sim::MILLIS;

    fn table() -> LockTable {
        LockTable::new(64, 5 * MILLIS)
    }

    #[test]
    fn shared_locks_coexist() {
        let t = table();
        t.lock(1, b"k", LockMode::Shared).unwrap();
        t.lock(2, b"k", LockMode::Shared).unwrap();
        assert_eq!(t.locked_keys(), 1);
        t.release(1, [b"k".to_vec()]);
        t.release(2, [b"k".to_vec()]);
        assert_eq!(t.locked_keys(), 0);
    }

    #[test]
    fn only_a_first_acquisition_reports_a_new_holder() {
        let t = table();
        assert!(t.lock(1, b"k", LockMode::Shared).unwrap());
        assert!(!t.lock(1, b"k", LockMode::Shared).unwrap());
        assert!(!t.lock(1, b"k", LockMode::Exclusive).unwrap(), "an upgrade");
        assert!(
            !t.try_lock(1, b"k", LockMode::Shared).unwrap(),
            "X implies S"
        );
        assert!(t.try_lock(2, b"j", LockMode::Exclusive).unwrap());
        assert!(t.try_lock(2, b"k", LockMode::Shared).is_err());
        t.release(1, [b"k".to_vec()]);
        assert!(t.try_lock(2, b"k", LockMode::Shared).unwrap());
        assert!(
            t.lock(3, b"k", LockMode::Shared).unwrap(),
            "a second holder"
        );
        t.release(2, [b"j".to_vec(), b"k".to_vec()]);
        t.release(3, [b"k".to_vec()]);
        assert_eq!(t.locked_keys(), 0);
    }

    /// A prepared holder's shared-only keys go and its X keys stay, an
    /// upgraded key among them; another reader's share is left alone, and
    /// a second pass over the kept list releases nothing.
    #[test]
    fn release_shared_keeps_exclusive_keys() {
        let t = table();
        t.lock(1, b"r", LockMode::Shared).unwrap();
        t.lock(2, b"r", LockMode::Shared).unwrap();
        t.lock(1, b"g", LockMode::Shared).unwrap();
        t.lock(1, b"u", LockMode::Shared).unwrap();
        t.lock(1, b"u", LockMode::Exclusive).unwrap();
        t.lock(1, b"w", LockMode::Exclusive).unwrap();
        let held = ["r", "g", "u", "w", "absent"].map(|k| k.as_bytes().to_vec());
        let kept = t.release_shared(1, held.to_vec());
        assert_eq!(kept, [b"u".to_vec(), b"w".to_vec()]);
        assert!(t.try_lock(3, b"g", LockMode::Exclusive).is_ok());
        assert!(
            t.try_lock(3, b"r", LockMode::Exclusive).is_err(),
            "2 reads r"
        );
        assert!(t.try_lock(3, b"u", LockMode::Shared).is_err());
        assert_eq!(t.release_shared(1, kept.clone()), kept);
        t.release(1, kept);
        t.release(2, [b"r".to_vec()]);
        t.release(3, [b"g".to_vec()]);
        assert_eq!(t.locked_keys(), 0);
    }

    #[test]
    fn exclusive_excludes_shared_uncontended_path() {
        let t = table();
        t.lock(1, b"k", LockMode::Exclusive).unwrap();
        assert!(t.try_lock(2, b"k", LockMode::Shared).is_err());
        assert!(t.try_lock(2, b"k", LockMode::Exclusive).is_err());
        // Re-entrant for the owner.
        t.lock(1, b"k", LockMode::Exclusive).unwrap();
        t.lock(1, b"k", LockMode::Shared).unwrap();
    }

    #[test]
    fn upgrade_sole_shared_holder() {
        let t = table();
        t.lock(1, b"k", LockMode::Shared).unwrap();
        t.lock(1, b"k", LockMode::Exclusive).unwrap();
        assert!(t.try_lock(2, b"k", LockMode::Shared).is_err());
    }

    #[test]
    fn upgrade_blocked_with_two_shared_holders() {
        let t = table();
        t.lock(1, b"k", LockMode::Shared).unwrap();
        t.lock(2, b"k", LockMode::Shared).unwrap();
        assert!(t.try_lock(1, b"k", LockMode::Exclusive).is_err());
    }

    #[test]
    fn contended_lock_acquired_after_release() {
        block_on(|| {
            let t = Rc::new(table());
            t.lock(1, b"k", LockMode::Exclusive).unwrap();
            let t2 = Rc::clone(&t);
            let waiter = spawn(move || {
                t2.lock(2, b"k", LockMode::Exclusive).unwrap();
                assert!(now() >= MILLIS);
                t2.release(2, [b"k".to_vec()]);
            });
            sleep(MILLIS);
            t.release(1, [b"k".to_vec()]);
            join(waiter);
        });
    }

    #[test]
    fn lock_timeout_fires() {
        block_on(|| {
            let obs = Obs::new(0);
            treaty_sim::obs::install(&obs);
            let t = Rc::new(table());
            t.lock(1, b"k", LockMode::Exclusive).unwrap();
            let t2 = Rc::clone(&t);
            let waiter = spawn(move || {
                let t0 = now();
                let err = t2.lock(2, b"k", LockMode::Exclusive).unwrap_err();
                assert_eq!(err, StoreError::LockTimeout);
                assert!(now() - t0 >= 5 * MILLIS);
            });
            join(waiter);
            assert_eq!(obs.metrics().counter(Counter::StoreLockTimeouts), 1);
        });
    }

    #[test]
    fn deadlock_resolved_by_timeout() {
        block_on(|| {
            let obs = Obs::new(0);
            treaty_sim::obs::install(&obs);
            let t = Rc::new(table());
            let t1 = Rc::clone(&t);
            let t2 = Rc::clone(&t);
            let a = spawn(move || {
                t1.lock(1, b"x", LockMode::Exclusive).unwrap();
                sleep(MILLIS);
                // Deadlock with fiber b; one of the two times out.
                let r = t1.lock(1, b"y", LockMode::Exclusive);
                t1.release(1, [b"x".to_vec(), b"y".to_vec()]);
                let _ = r;
            });
            let b = spawn(move || {
                t2.lock(2, b"y", LockMode::Exclusive).unwrap();
                sleep(MILLIS);
                let r = t2.lock(2, b"x", LockMode::Exclusive);
                t2.release(2, [b"x".to_vec(), b"y".to_vec()]);
                let _ = r;
            });
            join(a);
            join(b);
            assert!(
                obs.metrics().counter(Counter::StoreLockTimeouts) >= 1,
                "deadlock must resolve via timeout"
            );
            assert_eq!(t.locked_keys(), 0);
        });
    }

    #[test]
    fn exclusive_in_span_lists_what_others_hold_x() {
        let t = table();
        for (tx, key, mode) in [
            (1, &b"a"[..], LockMode::Exclusive),
            (2, b"b", LockMode::Shared),
            (3, b"c", LockMode::Exclusive),
            (1, b"d", LockMode::Exclusive),
            (3, b"e", LockMode::Exclusive),
        ] {
            t.lock(tx, key, mode).unwrap();
        }
        // S-held "b", the caller's own "a" and "d", and "e" at `end` stay out.
        assert_eq!(t.exclusive_in_span(1, b"a", b"e"), vec![b"c".to_vec()]);
        assert_eq!(
            t.exclusive_in_span(2, b"a", b"f"),
            [&b"a"[..], b"c", b"d", b"e"].map(<[u8]>::to_vec)
        );
        assert!(t.exclusive_in_span(2, b"c", b"c").is_empty(), "empty span");
        assert!(
            t.exclusive_in_span(2, b"e", b"a").is_empty(),
            "inverted span"
        );
        t.release(3, [b"c".to_vec()]);
        assert!(t.exclusive_in_span(1, b"a", b"e").is_empty(), "released");
    }

    #[test]
    fn release_unknown_key_is_harmless() {
        let t = table();
        t.release(1, [b"nope".to_vec()]);
    }

    #[test]
    fn many_keys_spread_over_shards() {
        let t = table();
        for i in 0..1000u32 {
            t.lock(1, format!("k{i}").as_bytes(), LockMode::Exclusive)
                .unwrap();
        }
        assert_eq!(t.locked_keys(), 1000);
        t.release(1, (0..1000u32).map(|i| format!("k{i}").into_bytes()));
        assert_eq!(t.locked_keys(), 0);
    }

    #[test]
    fn striping_distributes_across_shards() {
        let t = LockTable::new(64, 5 * MILLIS);
        for i in 0..2048u32 {
            t.lock(1, format!("user{i:010}").as_bytes(), LockMode::Exclusive)
                .unwrap();
        }
        let sizes = t.shard_sizes();
        assert_eq!(sizes.len(), 64);
        assert_eq!(sizes.iter().sum::<usize>(), 2048);
        // The FNV-1a/Fibonacci stripe hash must not leave shards cold or
        // let one shard dominate on sequential key names.
        assert!(
            sizes.iter().all(|s| *s > 0),
            "every shard should hold keys: {sizes:?}"
        );
        let max = sizes.iter().max().copied().unwrap_or(0);
        assert!(max < 2048 / 8, "no shard should dominate: max {max}");
    }

    #[test]
    fn stripe_hash_is_deterministic_and_spreads_tenant_prefixes() {
        // Same key, same stripe — acquire and release must agree.
        assert_eq!(stripe_hash(b"user42"), stripe_hash(b"user42"));
        // Multi-tenant key spaces share long common prefixes; the stripe
        // hash must still spread them (the scale workload's key shape).
        let t = LockTable::new(64, 5 * MILLIS);
        for tenant in 0..8u32 {
            for i in 0..64u32 {
                t.lock(
                    1,
                    format!("t{tenant:03}/user{i:010}").as_bytes(),
                    LockMode::Exclusive,
                )
                .unwrap();
            }
        }
        let sizes = t.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 512);
        let max = sizes.iter().max().copied().unwrap_or(0);
        assert!(max < 512 / 4, "tenant-prefixed keys must spread: {sizes:?}");
    }
}
