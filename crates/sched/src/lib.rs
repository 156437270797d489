//! Userland scheduling primitives for Treaty fibers (§VII-C of the paper).
//!
//! Treaty runs one fiber per connected client inside the enclave and
//! schedules them cooperatively to avoid timer interrupts (which would cost
//! a world switch each). This crate provides the primitives that scheduler
//! exposes to the rest of the system, built on the deterministic fiber
//! runtime in [`treaty_sim`]:
//!
//! * [`WaitQueue`] — condition-variable-style FIFO sleeping queue,
//! * [`CorePool`] — models a node's limited CPU cores: fibers *charge*
//!   virtual CPU time and queue when all cores are busy, which is what
//!   produces realistic saturation curves in the benchmarks,
//! * [`FiberMutex`] — a mutex that may be held across yield points,
//! * [`GroupCommit`] — the group-commit leader election every log's
//!   writers share.
//!
//! All primitives rely on the runtime's cooperative atomicity: between two
//! yield points no other fiber runs, so check-then-park sequences are
//! race-free by construction. Their own state therefore sits in plain
//! `RefCell`s, borrowed only between yields. The code above them keeps
//! its state in [`FiberCell`](treaty_sim::FiberCell)s, and
//! [`CorePool::charge`] and [`FiberMutex::lock`] fail while one of those
//! is borrowed, even when they would not yield this time.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use treaty_sim::cell::assert_no_borrow;
use treaty_sim::runtime::{self, FiberId, Sim, WakeReason};
use treaty_sim::Nanos;

/// Runs `f` as the only fiber of a fresh simulation and returns its value.
///
/// Convenience for tests and single-shot experiments.
///
/// # Panics
///
/// Panics if the simulation fails (fiber panic or deadlock).
pub fn block_on<T: 'static>(f: impl FnOnce() -> T + 'static) -> T {
    let out = Rc::new(Cell::new(None));
    let out2 = Rc::clone(&out);
    Sim::new()
        .run(move || out2.set(Some(f())))
        .expect("simulation failed");
    out.take().expect("root fiber did not produce a value")
}

/// A FIFO wait queue (condition-variable flavour).
///
/// Waiters park in arrival order; [`WaitQueue::notify_one`] wakes the oldest.
/// There are no wakeup tokens: a notify with no waiters is lost, so callers
/// must re-check their predicate in a loop, as with any condition variable.
#[derive(Debug, Default)]
pub struct WaitQueue {
    waiters: RefCell<VecDeque<FiberId>>,
}

impl WaitQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks the calling fiber until notified.
    pub fn wait(&self) {
        let me = runtime::current();
        self.waiters.borrow_mut().push_back(me);
        runtime::park();
    }

    /// Parks the calling fiber until notified or until `ns` elapses.
    /// Returns `true` if notified, `false` on timeout.
    pub fn wait_timeout(&self, ns: Nanos) -> bool {
        let me = runtime::current();
        self.waiters.borrow_mut().push_back(me);
        match runtime::park_timeout(ns) {
            WakeReason::Signal => true,
            WakeReason::Timeout => {
                // Remove ourselves; we were not notified.
                self.waiters.borrow_mut().retain(|&f| f != me);
                false
            }
        }
    }

    /// Wakes the oldest waiter, if any. Returns whether one was woken.
    pub fn notify_one(&self) -> bool {
        let next = self.waiters.borrow_mut().pop_front();
        match next {
            Some(f) => {
                runtime::unpark(f);
                true
            }
            None => false,
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        let all: Vec<FiberId> = self.waiters.borrow_mut().drain(..).collect();
        for f in all {
            runtime::unpark(f);
        }
    }
}

#[derive(Debug)]
struct CoreInner {
    free: u32,
    waiters: VecDeque<FiberId>,
}

/// Models a node's CPU cores as a preemption-free processor pool.
///
/// A fiber *charges* virtual CPU time with [`CorePool::charge`]: it occupies
/// one core for the duration, queueing FIFO behind other fibers when all
/// cores are busy. This is how the closed-loop benchmarks saturate — beyond
/// the knee, added clients only add queueing delay, which is the behaviour
/// the paper's throughput/latency plots show.
#[derive(Debug)]
pub struct CorePool {
    inner: RefCell<CoreInner>,
}

impl CorePool {
    /// Creates a pool of `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "a node needs at least one core");
        CorePool {
            inner: RefCell::new(CoreInner {
                free: cores,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Occupies one core for `ns` of virtual time, queueing if necessary.
    ///
    /// # Panics
    ///
    /// Panics if a `FiberCell` borrow is open, even for a zero `ns`: the
    /// same call yields when it charges time.
    #[track_caller]
    pub fn charge(&self, ns: Nanos) {
        assert_no_borrow();
        if ns == 0 {
            return;
        }
        self.acquire();
        runtime::sleep(ns);
        self.release();
    }

    fn acquire(&self) {
        let must_wait = {
            let mut inner = self.inner.borrow_mut();
            if inner.free > 0 {
                inner.free -= 1;
                false
            } else {
                // Contended: requires fiber context.
                inner.waiters.push_back(runtime::current());
                true
            }
        };
        if must_wait {
            // The releasing fiber transfers its core to us directly.
            runtime::park();
        }
    }

    fn release(&self) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            match inner.waiters.pop_front() {
                Some(f) => Some(f),
                None => {
                    inner.free += 1;
                    None
                }
            }
        };
        if let Some(f) = next {
            runtime::unpark(f);
        }
    }
}

#[derive(Debug)]
struct MutexInner {
    locked: bool,
    waiters: VecDeque<FiberId>,
}

/// A fiber-aware mutex that may be held across yield points.
///
/// A `FiberCell` borrow may not be held across a yield; use this type
/// whenever the critical section sleeps, performs I/O charges, or sends
/// RPCs (e.g. the WAL group-commit leader).
///
/// Every mutex belongs to a lock *class*, a name shared by every mutex
/// that plays the same part (each store's commit lock is one class). The
/// runtime orders classes the way Linux's lockdep does
/// ([`runtime::lock_acquire`]): a fiber that takes a class it holds, or
/// two classes in the opposite order to one some fiber took before,
/// panics naming both sites, even if this schedule would not deadlock.
#[derive(Debug)]
pub struct FiberMutex {
    class: &'static str,
    inner: RefCell<MutexInner>,
}

impl FiberMutex {
    /// Creates an unlocked mutex of lock class `class`.
    pub fn new(class: &'static str) -> Self {
        FiberMutex {
            class,
            inner: RefCell::new(MutexInner {
                locked: false,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Acquires the lock, parking FIFO behind other fibers. The
    /// uncontended path works outside the simulation runtime too (plain
    /// unit tests); contention requires fiber context.
    ///
    /// # Panics
    ///
    /// Panics if a `FiberCell` borrow is open, even when the lock is free,
    /// and on a lock-order violation.
    #[track_caller]
    pub fn lock(&self) -> FiberMutexGuard<'_> {
        assert_no_borrow();
        runtime::lock_acquire(self.class, std::panic::Location::caller());
        let must_wait = {
            let mut inner = self.inner.borrow_mut();
            if inner.locked {
                inner.waiters.push_back(runtime::current());
                true
            } else {
                inner.locked = true;
                false
            }
        };
        if must_wait {
            runtime::park(); // ownership is transferred by unlock
        }
        FiberMutexGuard { mutex: self }
    }

    fn unlock(&self) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            match inner.waiters.pop_front() {
                Some(f) => Some(f), // keep locked: transferred to f
                None => {
                    inner.locked = false;
                    None
                }
            }
        };
        if let Some(f) = next {
            runtime::unpark(f);
        }
    }
}

/// RAII guard for [`FiberMutex`].
///
/// Dropping during an unwind releases the lock cleanly, so crash-point
/// unwinding (`CrashUnwind`) cannot wedge a `FiberMutex`.
#[must_use = "the lock is released when the guard is dropped"]
#[derive(Debug)]
pub struct FiberMutexGuard<'a> {
    mutex: &'a FiberMutex,
}

impl Drop for FiberMutexGuard<'_> {
    fn drop(&mut self) {
        runtime::lock_release(self.mutex.class);
        self.mutex.unlock();
    }
}

/// Where a [`GroupCommit`] request stands.
enum Slot<R> {
    /// On the queue: whoever holds the lock next carries it.
    Queued,
    /// Drained by a leader that has not handed out its results (yet, or
    /// ever: it unwound).
    Taken,
    /// Carried; the result waits for its owner.
    Done(R),
}

type Pending<Q, R> = (Q, Rc<RefCell<Slot<R>>>);

/// The group-commit leader election (§VII-B): requests queue, the first
/// fiber through a FIFO lock carries the whole queue in one go — its own
/// request plus everything queued behind it — and every fiber it carried
/// finds its result when its own turn at the lock comes.
///
/// What "carrying" means is the caller's: the leader body passed to
/// [`GroupCommit::submit`] runs under the lock and owes one result per
/// request, in queue order.
pub struct GroupCommit<Q, R> {
    lock: FiberMutex,
    queue: RefCell<Vec<Pending<Q, R>>>,
}

impl<Q, R> GroupCommit<Q, R> {
    /// Creates an idle group with an empty queue; its lock is of lock
    /// class `class`.
    pub fn new(class: &'static str) -> Self {
        GroupCommit {
            lock: FiberMutex::new(class),
            queue: RefCell::new(Vec::new()),
        }
    }

    /// Takes the leader's lock without a request: for work that must
    /// exclude every leader body (and queues FIFO with them).
    #[track_caller]
    pub fn lock(&self) -> FiberMutexGuard<'_> {
        self.lock.lock()
    }

    /// Queues `req` and returns its result once a leader has carried it.
    /// If that leader is the caller, `lead` runs under the lock with every
    /// queued request, `req` first, and returns their results in the same
    /// order.
    ///
    /// `None`: the leader that drained `req` unwound before handing out
    /// results (its node crashed), or `lead` returned too few.
    #[track_caller]
    pub fn submit(&self, req: Q, lead: impl FnOnce(Vec<Q>) -> Vec<R>) -> Option<R> {
        let mine = Rc::new(RefCell::new(Slot::Queued));
        self.queue.borrow_mut().push((req, Rc::clone(&mine)));
        let _turn = self.lock.lock();
        // Still queued: no earlier leader carried us, so we lead.
        if matches!(*mine.borrow(), Slot::Queued) {
            let (reqs, slots): (Vec<Q>, Vec<_>) = self.queue.take().into_iter().unzip();
            for slot in &slots {
                *slot.borrow_mut() = Slot::Taken;
            }
            for (slot, result) in slots.iter().zip(lead(reqs)) {
                *slot.borrow_mut() = Slot::Done(result);
            }
        }
        let carried = mine.replace(Slot::Taken);
        match carried {
            Slot::Done(result) => Some(result),
            Slot::Queued | Slot::Taken => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sim::runtime::{join, now, sleep, spawn};

    #[test]
    fn block_on_returns_value() {
        assert_eq!(block_on(|| 41 + 1), 42);
    }

    #[test]
    fn waitqueue_fifo_notify_one() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        block_on(move || {
            let q = Rc::new(WaitQueue::new());
            let mut handles = Vec::new();
            for i in 0..3 {
                let q = Rc::clone(&q);
                let o = Rc::clone(&o);
                handles.push(spawn(move || {
                    q.wait();
                    o.borrow_mut().push(i);
                }));
            }
            sleep(10); // let all three park
            assert_eq!(q.waiters.borrow().len(), 3);
            q.notify_one();
            sleep(1);
            q.notify_all();
            for h in handles {
                join(h);
            }
            assert_eq!(*o.borrow(), vec![0, 1, 2]);
        });
    }

    #[test]
    fn waitqueue_timeout_removes_waiter() {
        block_on(|| {
            let q = WaitQueue::new();
            let signaled = q.wait_timeout(100);
            assert!(!signaled);
            assert_eq!(now(), 100);
            assert!(
                q.waiters.borrow().is_empty(),
                "timed-out waiter must deregister"
            );
        });
    }

    #[test]
    fn corepool_serializes_beyond_capacity() {
        // 2 cores, 4 fibers each charging 100ns => finishes at 200ns.
        block_on(|| {
            let pool = Rc::new(CorePool::new(2));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let p = Rc::clone(&pool);
                    spawn(move || p.charge(100))
                })
                .collect();
            for h in handles {
                join(h);
            }
            assert_eq!(now(), 200);
        });
    }

    #[test]
    fn corepool_parallel_within_capacity() {
        block_on(|| {
            let pool = Rc::new(CorePool::new(4));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let p = Rc::clone(&pool);
                    spawn(move || p.charge(100))
                })
                .collect();
            for h in handles {
                join(h);
            }
            assert_eq!(now(), 100);
        });
    }

    #[test]
    fn corepool_zero_charge_is_free() {
        block_on(|| {
            let pool = CorePool::new(1);
            pool.charge(0);
            assert_eq!(now(), 0);
        });
    }

    #[test]
    fn fiber_mutex_mutual_exclusion_across_sleeps() {
        let max_inside = Rc::new(Cell::new(0));
        let inside = Rc::new(Cell::new(0));
        let m = Rc::clone(&max_inside);
        let i = Rc::clone(&inside);
        block_on(move || {
            let mutex = Rc::new(FiberMutex::new("test.mutex"));
            let handles: Vec<_> = (0..5)
                .map(|_| {
                    let mutex = Rc::clone(&mutex);
                    let inside = Rc::clone(&i);
                    let max = Rc::clone(&m);
                    spawn(move || {
                        let _g = mutex.lock();
                        inside.update(|n| n + 1);
                        max.set(max.get().max(inside.get()));
                        sleep(10); // hold across a yield point
                        inside.update(|n| n - 1);
                    })
                })
                .collect();
            for h in handles {
                join(h);
            }
        });
        assert_eq!(max_inside.get(), 1);
    }

    /// While a leader is busy the fibers behind it queue; the next one
    /// through the lock carries them all, they never run a leader body,
    /// and what the leader returns — an error included — reaches each.
    #[test]
    fn group_commit_followers_never_lead_and_share_the_leaders_result() {
        block_on(|| {
            let group: Rc<GroupCommit<u64, Result<u64, String>>> =
                Rc::new(GroupCommit::new("test.group"));
            let leads = Rc::new(RefCell::new(Vec::new()));
            let results = Rc::new(RefCell::new(Vec::new()));
            let handles: Vec<_> = (0..6u64)
                .map(|i| {
                    let group = Rc::clone(&group);
                    let leads = Rc::clone(&leads);
                    let results = Rc::clone(&results);
                    spawn(move || {
                        let got = group.submit(i, |batch| {
                            leads.borrow_mut().push(batch.clone());
                            sleep(10); // the write: later submitters queue
                            let n = batch.len();
                            let fail = batch.contains(&1);
                            batch
                                .into_iter()
                                .map(|r| {
                                    if fail {
                                        Err(format!("batch of {n}"))
                                    } else {
                                        Ok(r * 10)
                                    }
                                })
                                .collect()
                        });
                        results.borrow_mut().push((i, got));
                    })
                })
                .collect();
            for h in handles {
                join(h);
            }
            let results = results.borrow().clone();
            // Fiber 0 found the lock free and led alone; 1..=5 queued
            // behind its write and fiber 1 carried all five.
            assert_eq!(*leads.borrow(), vec![vec![0], vec![1, 2, 3, 4, 5]]);
            assert_eq!(results[0], (0, Some(Ok(0))));
            for (i, got) in &results[1..] {
                assert_eq!(*got, Some(Err("batch of 5".to_string())), "fiber {i}");
            }
            assert_eq!(now(), 20);
            // A leader that owes a request a result and returns none.
            assert_eq!(group.submit(9, |_| Vec::new()), None);
        });
    }
}
