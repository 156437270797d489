//! The asynchronous trusted monotonic counter service (§VI).
//!
//! SGX's hardware counters are too slow (up to 250 ms per increment), wear
//! out, and cannot protect a *distributed* system against rollback. Treaty
//! instead adopts a ROTE-style service: a protection group of enclaves
//! replicates each counter via an echo-broadcast protocol with a quorum and
//! a final confirmation round, and seals its state to disk.
//!
//! The interface Treaty's logs use is deliberately split:
//!
//! * [`TrustedCounter::assign`] — *instant*: hands out the next
//!   deterministic, monotonic value for a log entry,
//! * [`TrustedCounter::wait_stable`] — blocks until a value is
//!   rollback-protected. Concurrent waiters are batched: one fiber becomes
//!   the round leader and stabilizes the highest written value on behalf
//!   of everyone (the same group-amortization Treaty uses for commits).
//!
//! A round *occupies* its counter only for the message exchange; the rest
//! of the service's ≈ 2 ms is latency, and the next round's exchange runs
//! under it. Rounds of one counter still publish in the order they
//! started: round *k+1*'s exchange begins after round *k*'s acks and both
//! wait out the same floor from their own start.
//!
//! Backends:
//! * [`rote::RoteGroup`] — the real distributed protocol over `treaty-net`,
//! * [`NullBackend`] — instant, for the paper's non-stabilizing variants,
//! * [`HwCounterBackend`] — the SGX hardware counter, for the ablation that
//!   motivates the service.

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]

pub mod rote;

use std::cell::Cell;
use std::rc::Rc;

use treaty_sched::WaitQueue;
use treaty_sim::crashpoint::{self, CrashPoint};
use treaty_sim::{obs, runtime, CostModel, FiberCell, Nanos};

pub use rote::{RoteGroup, RoteMsg, RoteReplica, SealedState};

/// Identifies one logical counter (one per log file: WAL, MANIFEST, Clog).
pub type CounterId = String;

/// Errors from the counter service.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum CounterError {
    /// The protection group could not reach a quorum.
    #[error("no quorum: only {acks} of {needed} replicas acknowledged")]
    NoQuorum {
        /// Positive acknowledgements received.
        acks: usize,
        /// Quorum size required.
        needed: usize,
    },
    /// A replica rejected the update as non-monotonic — something tried to
    /// roll the counter back.
    #[error("replica rejected non-monotonic counter update")]
    Rollback,
}

/// A backend capable of making counter values rollback-protected.
pub trait CounterBackend {
    /// Runs the exchange that makes `value` for `id` rollback-protected
    /// and returns the share of the service's latency still to elapse: the
    /// caller may start the next exchange at once, but must wait that long
    /// before it treats `value` as stable. A serial device sleeps its
    /// whole cost in here and returns 0.
    ///
    /// # Errors
    ///
    /// Returns a [`CounterError`] if the protection group cannot make the
    /// value durable.
    fn stabilize(&self, id: &str, value: u64) -> Result<Nanos, CounterError>;

    /// The latest stabilized value known for `id` (0 if none) — used by
    /// recovery to verify log freshness.
    fn latest(&self, id: &str) -> u64;
}

/// Instant backend for variants that run without stabilization
/// (`RocksDB`, `Treaty w/ Enc` without `w/ Stab`).
#[derive(Debug, Default)]
pub struct NullBackend {
    latest: FiberCell<std::collections::HashMap<String, u64>>,
}

impl NullBackend {
    /// Creates the backend.
    pub fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }
}

impl CounterBackend for NullBackend {
    fn stabilize(&self, id: &str, value: u64) -> Result<Nanos, CounterError> {
        let mut m = self.latest.borrow_mut();
        let e = m.entry(id.to_string()).or_insert(0);
        *e = (*e).max(value);
        Ok(0)
    }

    fn latest(&self, id: &str) -> u64 {
        *self.latest.borrow().get(id).unwrap_or(&0)
    }
}

/// The SGX hardware monotonic counter as a stabilization backend — the
/// painful baseline of §IV-B, kept for the ablation benchmark. The paper
/// rejects these counters because an increment takes up to ~250 ms, they
/// wear out, and they are per-CPU; only the first matters to a cost
/// baseline, so the backend models an increment as its price.
#[derive(Debug)]
pub struct HwCounterBackend {
    costs: CostModel,
    latest: FiberCell<std::collections::HashMap<String, u64>>,
}

impl HwCounterBackend {
    /// Creates the backend with the given cost model.
    pub fn new(costs: CostModel) -> Rc<Self> {
        Rc::new(HwCounterBackend {
            costs,
            latest: FiberCell::new(std::collections::HashMap::new()),
        })
    }
}

impl CounterBackend for HwCounterBackend {
    fn stabilize(&self, id: &str, value: u64) -> Result<Nanos, CounterError> {
        // 60-250 ms of real SGX pain, and the device takes one increment
        // at a time: nothing of it overlaps the next.
        runtime::sleep(self.costs.hw_counter_ns);
        let mut m = self.latest.borrow_mut();
        let e = m.entry(id.to_string()).or_insert(0);
        *e = (*e).max(value);
        Ok(0)
    }

    fn latest(&self, id: &str) -> u64 {
        *self.latest.borrow().get(id).unwrap_or(&0)
    }
}

struct CounterState {
    /// Highest published (rollback-protected) value.
    stable: u64,
    /// Highest value whose record is on disk: all a round may cover.
    written: u64,
    /// Highest target of a launched round that has not failed. A waiter at
    /// or below it rides that round instead of leading another.
    covered: u64,
    /// The round whose exchange occupies the counter, with `covered` as it
    /// was before the round launched: where `covered` falls back to if the
    /// round fails, and the line above which a waiter is this round's
    /// rider (below it a predecessor past its exchange covers the waiter,
    /// and that round can no longer fail).
    exchanging: Option<(u64, u64)>,
    /// Rounds launched so far: the number of the next one.
    rounds: u64,
    /// Callers that parked since the last launch.
    queued: u64,
    /// The last failed round and its error, for the waiters riding it.
    failed: Option<(u64, CounterError)>,
}

/// One logical trusted counter, e.g. for a node's Clog.
///
/// Values are assigned locally (deterministic, monotonic, gap-free) and
/// stabilized through the backend with batched, overlapping rounds.
pub struct TrustedCounter {
    id: CounterId,
    backend: Rc<dyn CounterBackend>,
    next: Cell<u64>,
    state: FiberCell<CounterState>,
    waiters: WaitQueue,
}

impl std::fmt::Debug for TrustedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedCounter")
            .field("id", &self.id)
            .field("next", &self.next.get())
            .finish_non_exhaustive()
    }
}

/// Virtual time, or 0 outside the runtime (plain unit tests, whose
/// backends are instant).
fn vnow() -> Nanos {
    if runtime::in_fiber() {
        runtime::now()
    } else {
        0
    }
}

impl TrustedCounter {
    /// Creates a counter starting after `recovered` (0 for a fresh log).
    pub fn new(
        id: impl Into<CounterId>,
        backend: Rc<dyn CounterBackend>,
        recovered: u64,
    ) -> Rc<Self> {
        Rc::new(TrustedCounter {
            id: id.into(),
            backend,
            next: Cell::new(recovered + 1),
            state: FiberCell::new(CounterState {
                stable: recovered,
                written: recovered,
                covered: recovered,
                exchanging: None,
                rounds: 0,
                queued: 0,
                failed: None,
            }),
            waiters: WaitQueue::new(),
        })
    }

    /// The counter's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Assigns the next value: deterministic, monotonic, gap-free.
    /// Instant — stabilization is separate and asynchronous.
    pub fn assign(&self) -> u64 {
        self.next.replace(self.next.get() + 1)
    }

    /// Highest value assigned so far (0 if none).
    pub fn assigned(&self) -> u64 {
        self.next.get() - 1
    }

    /// Reports that every record up to `value` is on disk. A round covers
    /// written values only: the group must never hold a value the log
    /// cannot show after a crash, or recovery refuses the log as rolled
    /// back.
    pub fn mark_written(&self, value: u64) {
        let mut st = self.state.borrow_mut();
        st.written = st.written.max(value);
    }

    /// Highest value reported written (or waited for) so far.
    pub fn written(&self) -> u64 {
        self.state.borrow().written
    }

    /// Highest rollback-protected value.
    pub fn stable(&self) -> u64 {
        self.state.borrow().stable
    }

    /// Highest value a launched round that has not failed will publish: a
    /// waiter at or below it rides, and needs nobody to lead for it.
    pub fn covered(&self) -> u64 {
        self.state.borrow().covered
    }

    /// Blocks until `value` — whose record the caller has written — is
    /// rollback-protected.
    ///
    /// Waiters are batched: one becomes the round leader and stabilizes
    /// the highest written value; whoever that covers rides the round. The
    /// leader occupies the counter for the exchange only, so the next
    /// leader starts under this round's remaining latency. A failed round
    /// fails its leader and its riders — and nobody else: riders of an
    /// earlier round still publish, and the next caller leads afresh.
    ///
    /// # Errors
    ///
    /// Returns the backend's [`CounterError`] if stabilization fails.
    pub fn wait_stable(&self, value: u64) -> Result<(), CounterError> {
        let mut slot_wait_from = Some(vnow());
        let mut queued = false;
        loop {
            let riding = {
                let mut st = self.state.borrow_mut();
                if st.stable >= value {
                    return Ok(());
                }
                st.written = st.written.max(value);
                let covered = st.covered >= value;
                let lead = !covered && st.exchanging.is_none();
                if covered || lead {
                    if let Some(from) = slot_wait_from.take() {
                        obs::hist_record("counter.slot_wait_ns", vnow() - from);
                    }
                }
                if lead {
                    let round = st.rounds;
                    st.rounds += 1;
                    let target = st.written;
                    let fallback = st.covered;
                    st.exchanging = Some((round, fallback));
                    st.covered = target;
                    let waiters = st.queued + u64::from(!queued);
                    st.queued = 0;
                    drop(st);
                    obs::counter_add("counter.rounds", 1);
                    obs::hist_record("counter.waiters_per_round", waiters);
                    return self.lead(round, target, fallback);
                }
                if !queued {
                    queued = true;
                    st.queued += 1;
                }
                st.exchanging
                    .filter(|&(_, line)| covered && value > line)
                    .map(|(round, _)| round)
            };
            self.waiters.wait();
            // Woken by a slot release or a publication. The failure of the
            // round we rode is ours; otherwise `stable` covers us, a round
            // in flight does, or we lead the next one.
            if let Some((failed, err)) = &self.state.borrow().failed {
                if Some(*failed) == riding {
                    return Err(err.clone());
                }
            }
        }
    }

    /// Leads `round`: the exchange under the slot, then — with the slot
    /// released — the rest of the service latency, then publication. A
    /// failed round gives `covered` back to `fallback`.
    fn lead(&self, round: u64, target: u64, fallback: u64) -> Result<(), CounterError> {
        let started = vnow();
        let result = self.backend.stabilize(&self.id, target);
        obs::hist_record("counter.exchange_ns", vnow() - started);
        {
            let mut st = self.state.borrow_mut();
            st.exchanging = None;
            if let Err(e) = &result {
                st.covered = fallback;
                st.failed = Some((round, e.clone()));
            }
        }
        // The slot is free: the next leader's exchange runs under this
        // round's remaining latency, and a failed round's riders learn.
        self.waiters.notify_all();
        let remaining = result?;
        if remaining > 0 {
            runtime::sleep(remaining);
        }
        crashpoint::hit(CrashPoint::CounterRoundAcked);
        {
            let mut st = self.state.borrow_mut();
            st.stable = st.stable.max(target);
        }
        self.waiters.notify_all();
        Ok(())
    }

    /// Recovery-side freshness check: the latest stabilized value according
    /// to the protection group.
    pub fn latest_stabilized(&self) -> u64 {
        self.backend.latest(&self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sched::block_on;
    use treaty_sim::runtime::{join, now, spawn};

    #[test]
    fn assign_is_monotonic_gap_free() {
        let c = TrustedCounter::new("wal", NullBackend::new(), 0);
        assert_eq!(c.assign(), 1);
        assert_eq!(c.assign(), 2);
        assert_eq!(c.assign(), 3);
        assert_eq!(c.assigned(), 3);
    }

    #[test]
    fn recovered_counter_continues() {
        let c = TrustedCounter::new("wal", NullBackend::new(), 41);
        assert_eq!(c.stable(), 41);
        assert_eq!(c.assign(), 42);
    }

    #[test]
    fn null_backend_stabilizes_instantly() {
        block_on(|| {
            let c = TrustedCounter::new("wal", NullBackend::new(), 0);
            let v = c.assign();
            c.wait_stable(v).unwrap();
            assert_eq!(c.stable(), v);
            assert_eq!(now(), 0);
        });
    }

    #[test]
    fn hw_backend_charges_painfully() {
        block_on(|| {
            let costs = CostModel::default();
            let hw = costs.hw_counter_ns;
            assert!(hw >= 50_000_000, "hardware counters must be painfully slow");
            let c = TrustedCounter::new("wal", HwCounterBackend::new(costs), 0);
            let v = c.assign();
            c.wait_stable(v).unwrap();
            assert!(now() >= hw);
        });
    }

    /// Backend that counts rounds and takes fixed virtual time.
    struct SlowBackend {
        rounds: Cell<u64>,
        inner: Rc<NullBackend>,
    }
    impl CounterBackend for SlowBackend {
        fn stabilize(&self, id: &str, value: u64) -> Result<Nanos, CounterError> {
            self.rounds.update(|n| n + 1);
            runtime::sleep(1_000_000);
            self.inner.stabilize(id, value)
        }
        fn latest(&self, id: &str) -> u64 {
            self.inner.latest(id)
        }
    }

    #[test]
    fn concurrent_waiters_batch_into_few_rounds() {
        block_on(|| {
            let backend = Rc::new(SlowBackend {
                rounds: Cell::new(0),
                inner: NullBackend::new(),
            });
            let c = TrustedCounter::new("clog", Rc::clone(&backend) as Rc<dyn CounterBackend>, 0);
            let mut handles = Vec::new();
            for _ in 0..16 {
                let c = Rc::clone(&c);
                handles.push(spawn(move || {
                    let v = c.assign();
                    c.wait_stable(v).unwrap();
                }));
            }
            for h in handles {
                join(h);
            }
            let rounds = backend.rounds.get();
            assert!(
                rounds <= 3,
                "16 concurrent stabilizations must batch, used {rounds} rounds"
            );
            assert_eq!(c.stable(), 16);
        });
    }

    #[test]
    fn wait_stable_returns_immediately_when_already_stable() {
        block_on(|| {
            let c = TrustedCounter::new("m", NullBackend::new(), 0);
            let v = c.assign();
            c.wait_stable(v).unwrap();
            let t = now();
            c.wait_stable(v).unwrap(); // second wait is free
            assert_eq!(now(), t);
        });
    }
}
