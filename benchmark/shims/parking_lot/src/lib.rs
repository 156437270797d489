//! Stand-in for `parking_lot` 0.12: `Mutex`, `RwLock` and `Condvar` over the
//! standard library, without poisoning, plus the benchmark's stall guard.
//!
//! The simulator runs exactly one fiber at a time, so an OS-level lock is
//! never held for long by a *running* thread. A blocking acquire that waits
//! more than [`STALL_AFTER`] can only mean the guard is held by a fiber that
//! is parked in the scheduler — a guard held across a yield. The stand-in
//! then prints a backtrace and exits with [`STALL_EXIT_CODE`] so the
//! benchmark's parent process can record the site instead of hanging.
//!
//! `Condvar` is built on `thread::park` rather than on the standard
//! condition variable, for one property of the published crate that the
//! simulator's fiber hand-off depends on: a `notify_one` issued while the
//! notifier still holds the mutex does not wake the waiter into a lock it
//! cannot take. The published crate requeues the waiter onto the mutex; the
//! stand-in postpones the wake-up until the notifying thread has released
//! its last `Mutex` guard (or is about to block itself). With the standard
//! condition variable every hand-off cost two extra context switches.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{self, Arc, PoisonError, TryLockError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a blocking acquire may wait before it is reported as a stall.
pub const STALL_AFTER: Duration = Duration::from_secs(5);
/// Exit code of a process that the stall guard stopped.
pub const STALL_EXIT_CODE: i32 = 97;

fn stalled(what: &str) -> ! {
    eprintln!(
        "parking_lot stand-in: blocking acquire stalled: {what} waited more than {}s\n{}",
        STALL_AFTER.as_secs(),
        std::backtrace::Backtrace::force_capture()
    );
    std::process::exit(STALL_EXIT_CODE);
}

/// Retries `attempt` until it yields a guard: first by giving up the time
/// slice (the holder is a running thread and will release soon), then with
/// short sleeps, and declares a stall after [`STALL_AFTER`].
fn acquire_slow<G>(what: &str, mut attempt: impl FnMut() -> Option<G>) -> G {
    let start = Instant::now();
    let mut spins = 0u32;
    loop {
        if let Some(g) = attempt() {
            return g;
        }
        spins += 1;
        if spins < 64 {
            std::thread::yield_now();
        } else {
            if start.elapsed() > STALL_AFTER {
                stalled(what);
            }
            // The thread we are waiting for may be one we have yet to wake.
            flush_wakeups();
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

fn unpoison<G>(r: Result<G, TryLockError<G>>) -> Option<G> {
    match r {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Mutual exclusion lock that never poisons.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard of [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    // `None` only while a `Condvar` wait has taken the std guard out.
    inner: Option<sync::MutexGuard<'a, T>>,
}

thread_local! {
    /// `Mutex` guards this thread holds.
    static HELD: Cell<u32> = const { Cell::new(0) };
    /// Waiters this thread has notified but not yet woken (module docs).
    static WAKEUPS: RefCell<Vec<Thread>> = const { RefCell::new(Vec::new()) };
    /// This thread's entry in the queue of the `Condvar` it waits on.
    static WAITER: Arc<Waiter> = Arc::new(Waiter {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
}

fn flush_wakeups() {
    // `try_with`: a guard dropped during thread teardown finds the list
    // gone, and with it nothing left to wake.
    let _ = WAKEUPS.try_with(|w| {
        for thread in w.borrow_mut().drain(..) {
            thread.unpark();
        }
    });
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            let held = HELD.try_with(|h| {
                h.set(h.get() - 1);
                h.get()
            });
            if held.unwrap_or(0) == 0 {
                flush_wakeups();
            }
        }
    }
}

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    fn guard<'a>(&'a self, inner: sync::MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let _ = HELD.try_with(|h| h.set(h.get() + 1));
        MutexGuard {
            mutex: self,
            inner: Some(inner),
        }
    }

    fn lock_std(&self) -> sync::MutexGuard<'_, T> {
        unpoison(self.inner.try_lock())
            .unwrap_or_else(|| acquire_slow("Mutex::lock", || unpoison(self.inner.try_lock())))
    }

    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.guard(self.lock_std())
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        unpoison(self.inner.try_lock()).map(|g| self.guard(g))
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// Reader-writer lock that never poisons.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared guard of [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive guard of [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = unpoison(self.inner.try_read())
            .unwrap_or_else(|| acquire_slow("RwLock::read", || unpoison(self.inner.try_read())));
        RwLockReadGuard { inner }
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = unpoison(self.inner.try_write())
            .unwrap_or_else(|| acquire_slow("RwLock::write", || unpoison(self.inner.try_write())));
        RwLockWriteGuard { inner }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match unpoison(self.inner.try_read()) {
            Some(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

struct Waiter {
    thread: Thread,
    notified: AtomicBool,
}

/// Condition variable paired with [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    waiters: sync::Mutex<VecDeque<Arc<Waiter>>>,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            waiters: sync::Mutex::new(VecDeque::new()),
        }
    }

    fn queue(&self) -> sync::MutexGuard<'_, VecDeque<Arc<Waiter>>> {
        self.waiters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases the guard's lock, blocks until notified, and re-acquires it.
    /// May wake spuriously, like the published crate.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        let me = WAITER.with(Arc::clone);
        me.notified.store(false, Ordering::Relaxed);
        // Enqueued before the mutex is released, so a notifier that takes
        // the mutex after us finds us.
        self.queue().push_back(Arc::clone(&me));
        drop(guard.inner.take().expect("guard present outside wait"));
        let _ = HELD.try_with(|h| h.set(h.get() - 1));
        // About to block: whoever we notified earlier must not wait for us.
        flush_wakeups();
        while !me.notified.load(Ordering::Acquire) {
            std::thread::park();
        }
        guard.inner = Some(guard.mutex.lock_std());
        let _ = HELD.try_with(|h| h.set(h.get() + 1));
    }

    /// Wakes one waiter, oldest first. Returns whether there was one.
    pub fn notify_one(&self) -> bool {
        let Some(waiter) = self.queue().pop_front() else {
            return false;
        };
        waiter.notified.store(true, Ordering::Release);
        let deferred = HELD.try_with(Cell::get).unwrap_or(0) > 0
            && WAKEUPS
                .try_with(|w| w.borrow_mut().push(waiter.thread.clone()))
                .is_ok();
        if !deferred {
            waiter.thread.unpark();
        }
        true
    }
}
