//! Cooperative fiber runtime with a virtual clock.
//!
//! Exactly one fiber executes at any instant. A fiber is an OS thread that
//! waits on its own baton (a mutex/condvar flag); the runtime has no
//! scheduler thread. Whoever gives up the processor — a fiber that parks,
//! sleeps, yields or finishes — takes the runtime lock, runs the one
//! scheduling decision ([`next_fiber`]: pop the run queue, else advance the
//! virtual clock to the next timer), drops the lock, releases the chosen
//! fiber's baton and waits on its own: one wake-up per switch. A fiber that
//! picks *itself* (a lone sleeper charging virtual time, a yield into an
//! empty queue) neither wakes nor waits. The caller of [`Sim::run`] starts
//! the root fiber the same way and then blocks until the last fiber to
//! finish wakes it.
//!
//! This gives the key property the rest of the system builds on: **between
//! two yield points a fiber runs atomically with respect to every other
//! fiber**, so higher-level primitives (wait queues, channels, lock tables)
//! never race — exactly like the userland scheduler Treaty runs inside the
//! enclave (§VII-C of the paper), where a fiber that blocks hands the core
//! directly to the next one. The schedule is a function of the run queue
//! and the timer heap alone, so a run is deterministic.
//!
//! Blocking primitives ([`sleep`], [`park`], [`park_timeout`], [`yield_now`])
//! may only be called from inside a fiber; they panic otherwise. Pure reads
//! ([`now`], [`in_fiber`], [`current`]) are safe anywhere.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::Nanos;

/// Identifies a fiber within one [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiberId(pub u64);

impl fmt::Display for FiberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fiber#{}", self.0)
    }
}

/// Why a parked fiber resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// Another fiber called [`unpark`] on this fiber.
    Signal,
    /// The timeout passed to [`park_timeout`] (or [`sleep`]) elapsed.
    Timeout,
}

/// Error returned by [`Sim::run`].
#[derive(Debug, thiserror::Error)]
pub enum SimError {
    /// A fiber panicked; the message is the panic payload if it was a string.
    #[error("fiber panicked: {0}")]
    FiberPanic(String),
    /// No fiber is runnable and no timer is pending, but non-daemon fibers
    /// are still parked — the simulated system deadlocked.
    #[error("simulation deadlock: {parked} fiber(s) parked with no pending event at t={at}ns")]
    Deadlock {
        /// Number of parked non-daemon fibers.
        parked: usize,
        /// Virtual time at which the deadlock was detected.
        at: Nanos,
    },
}

/// Summary returned by a successful [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// Final virtual time.
    pub virtual_ns: Nanos,
    /// Total fibers that ran to completion (including daemons shut down).
    pub fibers: u64,
    /// Total scheduler switches performed.
    pub switches: u64,
}

struct ParkCell {
    go: Mutex<bool>,
    cv: Condvar,
}

impl ParkCell {
    fn new() -> Arc<Self> {
        Arc::new(ParkCell {
            go: Mutex::new(false),
            cv: Condvar::new(),
        })
    }
    fn release(&self) {
        let mut g = self.go.lock();
        *g = true;
        self.cv.notify_one();
    }
    fn wait(&self) {
        let mut g = self.go.lock();
        while !*g {
            self.cv.wait(&mut g);
        }
        *g = false;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FiberState {
    Runnable,
    Running,
    Parked,
}

struct FiberSlot {
    cell: Arc<ParkCell>,
    tag: &'static str,
    state: FiberState,
    /// Wakeup generation; a pending timer is only valid if its recorded
    /// generation matches. Bumped on every park and every unpark.
    generation: u64,
    wake_reason: WakeReason,
    daemon: bool,
    join_waiters: Vec<FiberId>,
    /// Node (fabric endpoint) this fiber currently executes for; inherited
    /// by spawned fibers. 0 = untagged. Used as the trace `pid`.
    obs_node: u32,
    /// Distributed transaction in scope; inherited by spawned fibers.
    obs_txn: u64,
}

struct Inner {
    now: Nanos,
    next_fiber: u64,
    next_seq: u64,
    run_queue: VecDeque<FiberId>,
    timers: BinaryHeap<Reverse<(Nanos, u64, u64, u64)>>, // (time, seq, fiber, generation)
    fibers: HashMap<u64, FiberSlot>,
    live_non_daemon: usize,
    shutting_down: bool,
    panic_msg: Option<String>,
    /// Set when [`next_fiber`] found nothing to run with non-daemon fibers
    /// still parked: `(parked non-daemon fibers, virtual time)`.
    deadlock: Option<(usize, Nanos)>,
    switches: u64,
    completed: u64,
    /// Per-`Sim` observability hub; `None` until a root fiber installs one.
    obs: Option<Arc<treaty_obs::Obs>>,
    /// Per-`Sim` crash-injection plan; `None` until a harness installs one.
    crash: Option<Arc<crate::crashpoint::CrashPlan>>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Released by the last fiber to finish; [`Sim::run`] waits on it.
    done: Arc<ParkCell>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Shared>, u64)>> =
        const { std::cell::RefCell::new(None) };
}

/// Payload used to unwind fibers when the simulation shuts down early
/// (panic elsewhere, or daemons outliving all normal fibers).
struct ShutdownSignal;

/// A deterministic discrete-event simulation.
///
/// Construct with [`Sim::new`], then call [`Sim::run`] with the root fiber's
/// body. `run` returns once every non-daemon fiber has completed.
pub struct Sim {
    _priv: (),
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a new simulation.
    pub fn new() -> Self {
        Sim { _priv: () }
    }

    /// Runs `root` as the first fiber and drives the simulation until every
    /// non-daemon fiber has finished.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FiberPanic`] if any fiber panics and
    /// [`SimError::Deadlock`] if all remaining fibers are parked with no
    /// pending timer.
    pub fn run<F>(self, root: F) -> Result<SimReport, SimError>
    where
        F: FnOnce() + Send + 'static,
    {
        // Once, process-wide: one malloc arena, and a panic hook that
        // stays silent for shutdown and injected-crash unwinds — control
        // flow, not failures — and hands everything else to the previous
        // hook.
        static PROCESS_SETUP: std::sync::Once = std::sync::Once::new();
        PROCESS_SETUP.call_once(|| {
            single_malloc_arena();
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                if payload.downcast_ref::<ShutdownSignal>().is_none()
                    && payload
                        .downcast_ref::<crate::crashpoint::CrashUnwind>()
                        .is_none()
                {
                    prev(info);
                }
            }));
        });
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                now: 0,
                next_fiber: 0,
                next_seq: 0,
                run_queue: VecDeque::new(),
                timers: BinaryHeap::new(),
                fibers: HashMap::new(),
                live_non_daemon: 0,
                shutting_down: false,
                panic_msg: None,
                deadlock: None,
                switches: 0,
                completed: 0,
                obs: None,
                crash: None,
            }),
            done: ParkCell::new(),
        });

        // Optional stall watchdog (TREATY_SIM_WATCHDOG=1): reports when no
        // scheduler switch has happened for several wall seconds, which
        // almost always means a fiber blocked on a real OS primitive.
        if std::env::var_os("TREATY_SIM_WATCHDOG").is_some() {
            let shared_w = Arc::downgrade(&shared);
            std::thread::spawn(move || {
                let mut last = (0u64, 0u64);
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(5));
                    let shared = match shared_w.upgrade() {
                        Some(s) => s,
                        None => return,
                    };
                    let inner = shared.inner.lock();
                    let cur = (inner.switches, inner.now);
                    if cur == last {
                        eprintln!(
                            "[sim-watchdog] STALLED: switches={} vnow={}ns live={} runq={} timers={} running={:?}",
                            inner.switches,
                            inner.now,
                            inner.live_non_daemon,
                            inner.run_queue.len(),
                            inner.timers.len(),
                            inner
                                .fibers
                                .iter()
                                .filter(|(_, s)| s.state == FiberState::Running)
                                .map(|(id, s)| (*id, s.tag))
                                .collect::<Vec<_>>(),
                        );
                    }
                    last = cur;
                }
            });
        }
        spawn_fiber(&shared, Box::new(root), false, 0, 0);
        let root = next_fiber(&mut shared.inner.lock()).expect("the root fiber is runnable");
        root.release();
        shared.done.wait();

        let inner = shared.inner.lock();
        if let Some((parked, at)) = inner.deadlock {
            return Err(SimError::Deadlock { parked, at });
        }
        match inner.panic_msg.clone() {
            Some(msg) => Err(SimError::FiberPanic(msg)),
            None => Ok(SimReport {
                virtual_ns: inner.now,
                fibers: inner.completed,
                switches: inner.switches,
            }),
        }
    }
}

/// Keeps every fiber's allocations in one malloc arena.
///
/// glibc attaches each new thread to one of up to eight arenas per core, in
/// the order the threads happen to reach their first `malloc`. One fiber
/// runs at a time, so the arenas buy no parallelism here; what they do is
/// spread the process's long-lived data over heaps drawn by OS timing, and
/// peak RSS then differs by a fifth between two runs of one seed once
/// fibers are short-lived (EXPERIMENTS.md, "A session is a queue"). With
/// one arena the heap's layout follows the allocation order, which the
/// schedule fixes.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
        }
        const M_ARENA_MAX: std::ffi::c_int = -8;
        // SAFETY: `mallopt` is thread-safe and takes two integers; a
        // refusal (0) leaves the default in place.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    }
}

fn spawn_fiber(
    shared: &Arc<Shared>,
    body: Box<dyn FnOnce() + Send>,
    daemon: bool,
    obs_node: u32,
    obs_txn: u64,
) -> FiberId {
    let cell = ParkCell::new();
    let id;
    {
        let mut inner = shared.inner.lock();
        id = inner.next_fiber;
        inner.next_fiber += 1;
        inner.fibers.insert(
            id,
            FiberSlot {
                cell: cell.clone(),
                tag: "",
                state: FiberState::Runnable,
                generation: 0,
                wake_reason: WakeReason::Signal,
                daemon,
                join_waiters: Vec::new(),
                obs_node,
                obs_txn,
            },
        );
        if !daemon {
            inner.live_non_daemon += 1;
        }
        inner.run_queue.push_back(FiberId(id));
    }

    let shared2 = Arc::clone(shared);
    let cell2 = cell;
    std::thread::Builder::new()
        .name(format!("sim-fiber-{id}"))
        .spawn(move || {
            cell2.wait();
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&shared2), id)));
            let result = catch_unwind(AssertUnwindSafe(body));
            CURRENT.with(|c| *c.borrow_mut() = None);
            let mut inner = shared2.inner.lock();
            match result {
                Ok(()) => {}
                Err(payload) => {
                    // Shutdown and injected-crash unwinds terminate the
                    // fiber without failing the simulation.
                    if payload.downcast_ref::<ShutdownSignal>().is_none()
                        && payload
                            .downcast_ref::<crate::crashpoint::CrashUnwind>()
                            .is_none()
                    {
                        let msg = panic_message(&payload);
                        if inner.panic_msg.is_none() {
                            inner.panic_msg = Some(msg);
                        }
                    }
                }
            }
            finish_fiber(&mut inner, id);
            // Hand the processor on; the last fiber out wakes `Sim::run`.
            let next = next_fiber(&mut inner).unwrap_or_else(|| Arc::clone(&shared2.done));
            drop(inner);
            next.release();
        })
        .expect("failed to spawn fiber thread");
    FiberId(id)
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn finish_fiber(inner: &mut Inner, id: u64) {
    let slot = inner.fibers.remove(&id).expect("finishing unknown fiber");
    if !slot.daemon {
        inner.live_non_daemon -= 1;
    }
    inner.completed += 1;
    for w in slot.join_waiters {
        wake_fiber(inner, w.0, WakeReason::Signal);
    }
}

fn wake_fiber(inner: &mut Inner, id: u64, reason: WakeReason) {
    if let Some(slot) = inner.fibers.get_mut(&id) {
        if slot.state == FiberState::Parked {
            slot.state = FiberState::Runnable;
            slot.generation += 1; // invalidate any pending timer
            slot.wake_reason = reason;
            inner.run_queue.push_back(FiberId(id));
        }
    }
}

/// The scheduling decision: marks the fiber that runs next `Running` and
/// returns its baton, advancing virtual time to the next valid timer when the
/// run queue is empty. Called under the `inner` lock by whichever thread is
/// giving up the processor; the caller releases the baton only after
/// dropping the lock, so the woken fiber never runs into it.
///
/// `None` means every fiber has finished. A fiber that is itself parked or
/// runnable never sees `None`: at the latest the shutdown transition wakes it.
fn next_fiber(inner: &mut Inner) -> Option<Arc<ParkCell>> {
    loop {
        if inner.panic_msg.is_some() || inner.live_non_daemon == 0 {
            inner.shutting_down = true;
        }
        if inner.shutting_down {
            // Wake every remaining fiber so it can unwind via ShutdownSignal.
            let parked: Vec<u64> = inner
                .fibers
                .iter()
                .filter(|(_, s)| s.state == FiberState::Parked)
                .map(|(id, _)| *id)
                .collect();
            for id in parked {
                wake_fiber(inner, id, WakeReason::Signal);
            }
        }

        if let Some(FiberId(id)) = inner.run_queue.pop_front() {
            let slot = inner.fibers.get_mut(&id).expect("runnable fiber missing");
            debug_assert_eq!(slot.state, FiberState::Runnable);
            slot.state = FiberState::Running;
            inner.switches += 1;
            return Some(Arc::clone(&slot.cell));
        }

        // Advance virtual time to the next valid timer.
        let mut fired = false;
        while let Some(Reverse((t, _seq, fid, generation))) = inner.timers.pop() {
            let valid = inner
                .fibers
                .get(&fid)
                .is_some_and(|s| s.state == FiberState::Parked && s.generation == generation);
            if valid {
                debug_assert!(t >= inner.now, "timer in the past");
                inner.now = t;
                wake_fiber(inner, fid, WakeReason::Timeout);
                fired = true;
                break;
            }
        }
        if fired {
            continue;
        }

        let parked = inner
            .fibers
            .values()
            .filter(|s| !s.daemon && s.state == FiberState::Parked)
            .count();
        if parked == 0 || inner.shutting_down {
            return None;
        }
        // Deadlock. Record it and go round again: the parked fibers unwind
        // through the shutdown path before `Sim::run` reports it.
        inner.deadlock = Some((parked, inner.now));
        inner.shutting_down = true;
    }
}

fn with_current<R>(f: impl FnOnce(&Arc<Shared>, u64) -> R) -> R {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (shared, id) = b
            .as_ref()
            .expect("this operation may only be used inside a treaty-sim fiber");
        f(shared, *id)
    })
}

/// Gives up the processor: picks the next fiber, wakes it and waits to be
/// picked in turn. Called with the `inner` guard under which the caller
/// updated its own state (Parked, or re-queued Runnable). Returns why the
/// fiber resumed.
fn switch_out<'a>(shared: &'a Shared, mut inner: MutexGuard<'a, Inner>, id: u64) -> WakeReason {
    let mine = Arc::clone(&inner.fibers[&id].cell);
    let next = next_fiber(&mut inner).expect("a fiber giving up the processor is still live");
    // Picked itself (a lone sleeper, a yield into an empty queue): no
    // hand-off, the fiber just keeps the processor.
    if !Arc::ptr_eq(&next, &mine) {
        drop(inner);
        // If `next` hands straight back before we wait, the cell's flag
        // holds the release.
        next.release();
        mine.wait();
        inner = shared.inner.lock();
    }
    // On resume: if the sim is shutting down, unwind this fiber.
    if inner.shutting_down {
        drop(inner);
        std::panic::panic_any(ShutdownSignal);
    }
    inner.fibers[&id].wake_reason
}

/// Tags the current fiber for diagnostics (shown by the stall watchdog).
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn set_tag(tag: &'static str) {
    with_current(|shared, id| {
        if let Some(slot) = shared.inner.lock().fibers.get_mut(&id) {
            slot.tag = tag;
        }
    });
}

/// Returns `true` if the calling thread is a simulation fiber.
pub fn in_fiber() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// The current fiber's id.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn current() -> FiberId {
    with_current(|_, id| FiberId(id))
}

/// Current virtual time.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn now() -> Nanos {
    with_current(|shared, _| shared.inner.lock().now)
}

/// Spawns a new fiber. The returned [`FiberId`] can be passed to [`unpark`]
/// and [`join`].
///
/// Spawning does **not** yield: the caller keeps running and the new
/// fiber starts at the next scheduling point. The concurrency lint's
/// yield-point vocabulary (rule L007) depends on this — if spawning ever
/// starts parking the caller, add it to `FREE_YIELDS` in
/// `crates/lint/src/registry.rs`.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> FiberId {
    with_current(|shared, id| {
        let (node, txn) = inherited_obs_ctx(shared, id);
        spawn_fiber(shared, Box::new(f), false, node, txn)
    })
}

/// Spawns a *daemon* fiber: the simulation may end while daemons are still
/// parked (they are then unwound). Use for server loops.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn spawn_daemon<F: FnOnce() + Send + 'static>(f: F) -> FiberId {
    with_current(|shared, id| {
        let (node, txn) = inherited_obs_ctx(shared, id);
        spawn_fiber(shared, Box::new(f), true, node, txn)
    })
}

/// Observability context a child fiber inherits from its spawner.
fn inherited_obs_ctx(shared: &Arc<Shared>, id: u64) -> (u32, u64) {
    let inner = shared.inner.lock();
    inner
        .fibers
        .get(&id)
        .map(|s| (s.obs_node, s.obs_txn))
        .unwrap_or((0, 0))
}

/// Installs (or clears) the observability hub for the current simulation.
/// Called by `crate::obs::install` from inside the root fiber.
pub(crate) fn obs_install(obs: Option<Arc<treaty_obs::Obs>>) {
    with_current(|shared, _| {
        shared.inner.lock().obs = obs;
    });
}

/// Tags the current fiber (and future children) as executing for `node`.
/// No-op outside a fiber.
pub(crate) fn obs_set_node(node: u32) {
    let _ = try_with_current(|shared, id| {
        if let Some(slot) = shared.inner.lock().fibers.get_mut(&id) {
            slot.obs_node = node;
        }
    });
}

/// Sets the transaction in scope for the current fiber, returning the
/// previous value so callers can restore it. Returns 0 outside a fiber.
pub(crate) fn obs_set_txn(txn: u64) -> u64 {
    try_with_current(|shared, id| {
        let mut inner = shared.inner.lock();
        match inner.fibers.get_mut(&id) {
            Some(slot) => std::mem::replace(&mut slot.obs_txn, txn),
            None => 0,
        }
    })
    .unwrap_or(0)
}

/// Everything needed to stamp one trace event, read under a single lock:
/// `(hub, virtual now, node, fiber id, txn)`. `None` when called outside a
/// fiber or when no hub is installed — instrumentation then no-ops.
pub(crate) fn obs_ctx() -> Option<(Arc<treaty_obs::Obs>, Nanos, u32, u64, u64)> {
    try_with_current(|shared, id| {
        let inner = shared.inner.lock();
        let obs = inner.obs.clone()?;
        let slot = inner.fibers.get(&id)?;
        Some((obs, inner.now, slot.obs_node, id, slot.obs_txn))
    })
    .flatten()
}

/// Installs (or clears) the crash-injection plan for the current
/// simulation. Called by `crate::crashpoint::install` from the root fiber.
pub(crate) fn crash_install(plan: Option<Arc<crate::crashpoint::CrashPlan>>) {
    with_current(|shared, _| {
        shared.inner.lock().crash = plan;
    });
}

/// The installed crash plan, if any. `None` outside a fiber.
pub(crate) fn crash_installed() -> Option<Arc<crate::crashpoint::CrashPlan>> {
    try_with_current(|shared, _| shared.inner.lock().crash.clone()).flatten()
}

/// Everything a crash point needs, read under a single lock: `(plan, node
/// this fiber executes for, virtual now)`. `None` when called outside a
/// fiber or with no plan installed — crash points then no-op.
pub(crate) fn crash_ctx() -> Option<(Arc<crate::crashpoint::CrashPlan>, u32, Nanos)> {
    try_with_current(|shared, id| {
        let inner = shared.inner.lock();
        let plan = inner.crash.clone()?;
        let slot = inner.fibers.get(&id)?;
        Some((plan, slot.obs_node, inner.now))
    })
    .flatten()
}

/// Like [`with_current`] but returns `None` outside a fiber instead of
/// panicking — observability must never abort an un-instrumented context.
fn try_with_current<R>(f: impl FnOnce(&Arc<Shared>, u64) -> R) -> Option<R> {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (shared, id) = b.as_ref()?;
        Some(f(shared, *id))
    })
}

/// Advances this fiber's virtual time by `ns` nanoseconds.
///
/// Other fibers run during the interval; no wall-clock time passes beyond
/// scheduling overhead.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn sleep(ns: Nanos) {
    if ns == 0 {
        yield_now();
        return;
    }
    let reason = park_timeout(ns);
    debug_assert_eq!(reason, WakeReason::Timeout, "sleep woken early by unpark");
}

/// Parks the current fiber until another fiber calls [`unpark`] on it.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn park() {
    with_current(|shared, id| {
        let mut inner = shared.inner.lock();
        let slot = inner.fibers.get_mut(&id).unwrap();
        slot.state = FiberState::Parked;
        slot.generation += 1;
        switch_out(shared, inner, id);
    });
}

/// Parks the current fiber until [`unpark`] or until `ns` virtual nanoseconds
/// elapse, whichever is first. Returns why it woke.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn park_timeout(ns: Nanos) -> WakeReason {
    with_current(|shared, id| {
        let mut inner = shared.inner.lock();
        let deadline = inner.now.saturating_add(ns);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let slot = inner.fibers.get_mut(&id).unwrap();
        slot.state = FiberState::Parked;
        slot.generation += 1;
        let generation = slot.generation;
        inner.timers.push(Reverse((deadline, seq, id, generation)));
        switch_out(shared, inner, id)
    })
}

/// Makes a parked fiber runnable. Returns `true` if the fiber was parked.
///
/// Calling `unpark` on a running, runnable, or finished fiber is a no-op —
/// there are no "wakeup tokens". Primitives built on park/unpark must
/// enqueue themselves *before* parking (safe because fibers are cooperative:
/// no other fiber runs between the enqueue and the park).
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn unpark(target: FiberId) -> bool {
    with_current(|shared, _| {
        let mut inner = shared.inner.lock();
        let was_parked = inner
            .fibers
            .get(&target.0)
            .map(|s| s.state == FiberState::Parked)
            .unwrap_or(false);
        if was_parked {
            wake_fiber(&mut inner, target.0, WakeReason::Signal);
        }
        was_parked
    })
}

/// Yields to the scheduler, letting every other runnable fiber run before
/// this one resumes (round-robin).
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn yield_now() {
    with_current(|shared, id| {
        let mut inner = shared.inner.lock();
        let slot = inner.fibers.get_mut(&id).unwrap();
        slot.state = FiberState::Runnable;
        inner.run_queue.push_back(FiberId(id));
        switch_out(shared, inner, id);
    });
}

/// Blocks the current fiber until `target` completes. Returns immediately if
/// it already has.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn join(target: FiberId) {
    let done = with_current(|shared, id| {
        let mut inner = shared.inner.lock();
        match inner.fibers.get_mut(&target.0) {
            // A finished fiber has left the table.
            None => true,
            Some(slot) => {
                slot.join_waiters.push(FiberId(id));
                false
            }
        }
    });
    if !done {
        park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn empty_root_finishes_at_time_zero() {
        let report = Sim::new().run(|| {}).unwrap();
        assert_eq!(report.virtual_ns, 0);
        assert_eq!(report.fibers, 1);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let wall = crate::stats::wall_clock();
        let report = Sim::new()
            .run(|| {
                sleep(5 * crate::SECONDS);
            })
            .unwrap();
        assert_eq!(report.virtual_ns, 5 * crate::SECONDS);
        assert!(
            wall.elapsed_secs() < 2,
            "virtual sleep must not block wall time"
        );
    }

    #[test]
    fn fibers_interleave_deterministically() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        Sim::new()
            .run(move || {
                let o2 = Arc::clone(&o1);
                let o3 = Arc::clone(&o1);
                let a = spawn(move || {
                    o2.lock().push("a1");
                    sleep(100);
                    o2.lock().push("a2");
                });
                let b = spawn(move || {
                    o3.lock().push("b1");
                    sleep(50);
                    o3.lock().push("b2");
                });
                join(a);
                join(b);
            })
            .unwrap();
        assert_eq!(*order.lock(), vec!["a1", "b1", "b2", "a2"]);
    }

    #[test]
    fn unpark_wakes_before_timeout() {
        Sim::new()
            .run(|| {
                let me = current();
                spawn(move || {
                    sleep(10);
                    unpark(me);
                });
                let reason = park_timeout(1_000_000);
                assert_eq!(reason, WakeReason::Signal);
                assert_eq!(now(), 10);
            })
            .unwrap();
    }

    #[test]
    fn park_timeout_fires() {
        Sim::new()
            .run(|| {
                let reason = park_timeout(123);
                assert_eq!(reason, WakeReason::Timeout);
                assert_eq!(now(), 123);
            })
            .unwrap();
    }

    #[test]
    fn fiber_panic_propagates() {
        let err = Sim::new()
            .run(|| {
                spawn(|| panic!("boom in child"));
                sleep(1_000);
            })
            .unwrap_err();
        match err {
            SimError::FiberPanic(msg) => assert!(msg.contains("boom in child")),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn deadlock_detected() {
        let err = Sim::new().run(park).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { parked: 1, .. }));
    }

    #[test]
    fn daemons_do_not_keep_sim_alive() {
        let report = Sim::new()
            .run(|| {
                spawn_daemon(|| loop {
                    sleep(1_000_000);
                });
                sleep(500);
            })
            .unwrap();
        assert_eq!(report.virtual_ns, 500);
    }

    #[test]
    fn join_on_finished_fiber_returns_immediately() {
        Sim::new()
            .run(|| {
                let f = spawn(|| {});
                sleep(1);
                join(f);
                join(f); // second join is a no-op
            })
            .unwrap();
    }

    #[test]
    fn many_fibers_shared_counter() {
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        Sim::new()
            .run(move || {
                let handles: Vec<_> = (0..100)
                    .map(|i| {
                        let c = Arc::clone(&c);
                        spawn(move || {
                            sleep(i % 7);
                            c.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in handles {
                    join(h);
                }
            })
            .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn yield_now_is_round_robin() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        Sim::new()
            .run(move || {
                let o1 = Arc::clone(&o);
                let o2 = Arc::clone(&o);
                let a = spawn(move || {
                    for i in 0..3 {
                        o1.lock().push(format!("a{i}"));
                        yield_now();
                    }
                });
                let b = spawn(move || {
                    for i in 0..3 {
                        o2.lock().push(format!("b{i}"));
                        yield_now();
                    }
                });
                join(a);
                join(b);
            })
            .unwrap();
        assert_eq!(*order.lock(), vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn nested_spawn_runs() {
        let flag = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&flag);
        Sim::new()
            .run(move || {
                let f2 = Arc::clone(&f);
                let outer = spawn(move || {
                    let f3 = Arc::clone(&f2);
                    let inner = spawn(move || {
                        f3.store(42, Ordering::SeqCst);
                    });
                    join(inner);
                });
                join(outer);
            })
            .unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn timers_with_same_deadline_fire_in_creation_order() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        Sim::new()
            .run(move || {
                let mut handles = Vec::new();
                for i in 0..5 {
                    let o = Arc::clone(&o);
                    handles.push(spawn(move || {
                        sleep(100);
                        o.lock().push(i);
                    }));
                }
                for h in handles {
                    join(h);
                }
            })
            .unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    /// Counts its own drop: a fiber holding one has unwound once it fires.
    struct DropCount(Arc<AtomicU64>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Spawns a fiber and a daemon that park forever, each holding a
    /// [`DropCount`], and returns a third for the caller to hold.
    fn park_sibling_and_daemon(drops: &Arc<AtomicU64>) -> DropCount {
        let (sibling, daemon) = (DropCount(drops.clone()), DropCount(drops.clone()));
        spawn(move || {
            let _held = sibling;
            park();
        });
        spawn_daemon(move || {
            let _held = daemon;
            park();
        });
        DropCount(drops.clone())
    }

    #[test]
    fn deadlock_is_reported_after_every_fiber_unwound() {
        let drops = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&drops);
        let err = Sim::new()
            .run(move || {
                let _held = park_sibling_and_daemon(&d);
                sleep(9);
                park();
            })
            .unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { parked: 2, at: 9 }),
            "{err:?}"
        );
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panic_is_reported_after_siblings_and_daemons_unwound() {
        let drops = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&drops);
        let err = Sim::new()
            .run(move || {
                let _held = park_sibling_and_daemon(&d);
                spawn(|| {
                    sleep(3);
                    panic!("boom beside parked fibers");
                });
                park();
            })
            .unwrap_err();
        match err {
            SimError::FiberPanic(msg) => assert!(msg.contains("boom beside parked fibers")),
            other => panic!("unexpected error: {other:?}"),
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn lone_fiber_is_handed_back_to_itself() {
        let report = Sim::new()
            .run(|| {
                sleep(7);
                yield_now();
                sleep(5);
                assert_eq!(now(), 12);
            })
            .unwrap();
        assert_eq!(report.virtual_ns, 12);
        // The start, and one pick per sleep/yield — each of them of itself.
        assert_eq!(report.switches, 4);
        assert_eq!(report.fibers, 1);
    }

    #[test]
    fn finished_fiber_is_gone_for_join_and_unpark() {
        Sim::new()
            .run(|| {
                let f = spawn(|| sleep(3));
                sleep(10);
                let before = now();
                assert!(!unpark(f), "a finished fiber is not parked");
                join(f);
                assert_eq!(now(), before, "join on a finished fiber must not block");
            })
            .unwrap();
    }

    /// The schedule is a function of the run queue and the timer heap: a
    /// seeded mix of every primitive resumes the same fibers at the same
    /// virtual instants, whoever performs the switch. A change that moves
    /// the constants moves every virtual-time number in the repository.
    #[test]
    fn seeded_schedule_is_pinned() {
        const FIBERS: u64 = 96;
        // (fiber, now, what resumed it) at every resume, in resume order.
        let trace = Arc::new(Mutex::new(Vec::<(u64, Nanos, u8)>::new()));
        // Fibers currently inside `park_timeout`: the only legal `unpark`
        // targets (`sleep` and `join` must not be woken early).
        let parkers = Arc::new(Mutex::new(Vec::<FiberId>::new()));
        let (t, p) = (Arc::clone(&trace), Arc::clone(&parkers));

        fn step(rng: &mut u64) -> u64 {
            // splitmix64
            *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn body(
            seed: u64,
            depth: u32,
            older: Vec<FiberId>,
            trace: Arc<Mutex<Vec<(u64, Nanos, u8)>>>,
            parkers: Arc<Mutex<Vec<FiberId>>>,
        ) {
            let mut rng = seed;
            let me = current();
            let resumed = |why: u8| trace.lock().push((me.0, now(), why));
            resumed(0);
            for _ in 0..12 {
                let r = step(&mut rng);
                match r % 6 {
                    0 => {
                        sleep((r >> 8) % 40);
                        resumed(1);
                    }
                    1 => {
                        yield_now();
                        resumed(2);
                    }
                    2 => {
                        parkers.lock().push(me);
                        let why = park_timeout(1 + (r >> 8) % 90);
                        parkers.lock().retain(|f| *f != me);
                        resumed(3 + (why == WakeReason::Signal) as u8);
                    }
                    3 => {
                        let target = {
                            let p = parkers.lock();
                            (!p.is_empty()).then(|| p[(r >> 8) as usize % p.len()])
                        };
                        // `false` when the target's timer fired first and
                        // it has yet to run: part of the schedule too.
                        if let Some(target) = target {
                            resumed(7 + unpark(target) as u8);
                        }
                    }
                    4 if depth < 2 => {
                        let (t, p) = (Arc::clone(&trace), Arc::clone(&parkers));
                        let child = spawn(move || body(r, depth + 1, Vec::new(), t, p));
                        if r & 0x100 != 0 {
                            join(child);
                            resumed(5);
                        }
                    }
                    _ => {
                        if !older.is_empty() {
                            join(older[(r >> 8) as usize % older.len()]);
                            resumed(6);
                        }
                    }
                }
            }
        }

        let report = Sim::new()
            .run(move || {
                let mut spawned = Vec::new();
                for i in 0..FIBERS {
                    let (t, p, older) = (Arc::clone(&t), Arc::clone(&p), spawned.clone());
                    spawned.push(spawn(move || body(42 + i, 0, older, t, p)));
                }
                for f in spawned {
                    join(f);
                }
            })
            .unwrap();

        let trace = trace.lock();
        let hash = trace.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, e| {
            [e.0, e.1, e.2 as u64]
                .iter()
                .fold(h, |h, v| (h ^ v).wrapping_mul(0x0000_0100_0000_01B3))
        });
        assert!(report.fibers > FIBERS, "the mix must spawn from fibers too");
        assert_eq!(
            (
                trace.len(),
                hash,
                report.virtual_ns,
                report.switches,
                report.fibers
            ),
            PINNED_SCHEDULE
        );
    }

    /// `(resumes, FNV-1a of the resume trace, virtual_ns, switches, fibers)`.
    const PINNED_SCHEDULE: (usize, u64, Nanos, u64, u64) =
        (6389, 5515602897661239833, 2018, 5071, 662);
}
