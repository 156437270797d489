//! Cooperative fiber runtime with a virtual clock.
//!
//! Exactly one fiber executes at any instant, and every fiber of a
//! simulation runs on the OS thread that called [`Sim::run`]: a fiber is a
//! stack of its own, and a switch saves one context's registers and resumes
//! another's without entering the kernel (`stack.rs`). There is no
//! scheduler context. Whoever gives up the processor — a fiber that parks,
//! sleeps, yields or finishes — borrows the runtime state, runs the one
//! scheduling decision ([`next_fiber`]: pop the run queue, else advance the
//! virtual clock to the next timer), ends the borrow and switches to the
//! chosen fiber. A fiber that picks *itself* (a lone sleeper charging
//! virtual time, a yield into an empty queue) does not switch. [`Sim::run`]
//! switches to the root fiber and resumes when the last fiber finishes. A
//! finished fiber cannot free the stack it runs on: the context that runs
//! next returns it to a small pool that later spawns draw from.
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
//! and the reads [`now`] and [`current`] may only be called from inside a
//! fiber; they panic otherwise. [`in_fiber`] is safe anywhere, and
//! [`set_tag`] does nothing outside a fiber. A fiber must not reach a yield
//! point while it unwinds: the process aborts (see [`switch_out`]).

use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use crate::stack::{Stack, StackPool, Suspended};
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
    /// Fiber stacks mapped; a finished fiber's stack serves later spawns.
    pub stacks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FiberState {
    Runnable,
    Running,
    Parked,
}

struct FiberSlot {
    /// Where the fiber resumes; `None` while it runs.
    resume: Option<Suspended>,
    stack: Stack,
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

/// Hashes a fiber id with one multiply: ids are dense and chosen by the
/// runtime, so they need no defence against collisions on purpose, and
/// SipHash was a third of a switch's cost.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("a fiber id hashes as one u64")
    }
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The context that gave up the processor at the last switch, recorded
/// for the context that resumes to settle ([`resumed`]).
enum Handoff {
    /// A fiber that parked, slept or yielded.
    Fiber(u64),
    /// The caller of [`Sim::run`], until the last fiber finishes.
    Main,
    /// A finished fiber, whose stack goes back to the pool.
    Exited(Stack),
}

#[derive(Default)]
struct Inner {
    now: Nanos,
    next_fiber: u64,
    next_seq: u64,
    run_queue: VecDeque<FiberId>,
    timers: BinaryHeap<Reverse<(Nanos, u64, u64, u64)>>, // (time, seq, fiber, generation)
    fibers: HashMap<u64, FiberSlot, BuildHasherDefault<IdHasher>>,
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
    handoff: Option<Handoff>,
    /// Where [`Sim::run`]'s caller resumes once the last fiber finishes.
    main: Option<Suspended>,
    stacks: StackPool,
}

/// A simulation's state. It lives on the simulation's one OS thread, so a
/// `RefCell` guards it: a borrow held across a switch would fail loudly at
/// the next fiber's first borrow.
type Shared = RefCell<Inner>;

/// The simulation this OS thread runs and the fiber running in it. Tests
/// run several simulations at once, each on its own thread.
struct Current {
    sim: RefCell<Option<Rc<Shared>>>,
    fiber: Cell<u64>,
}

thread_local! {
    static CURRENT: Current = const {
        Current { sim: RefCell::new(None), fiber: Cell::new(0) }
    };
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

    /// Runs `root` as the first fiber and drives the simulation, on the
    /// calling thread, until every non-daemon fiber has finished.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FiberPanic`] if any fiber panics and
    /// [`SimError::Deadlock`] if all remaining fibers are parked with no
    /// pending timer.
    ///
    /// # Panics
    ///
    /// Panics when called from inside a fiber.
    pub fn run<F>(self, root: F) -> Result<SimReport, SimError>
    where
        F: FnOnce() + Send + 'static,
    {
        assert!(!in_fiber(), "a simulation cannot run inside a fiber");
        // Once, process-wide: a panic hook that stays silent for shutdown
        // and injected-crash unwinds — control flow, not failures — and
        // hands everything else to the previous hook.
        static PANIC_HOOK: std::sync::Once = std::sync::Once::new();
        PANIC_HOOK.call_once(|| {
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
        let shared = Rc::new(RefCell::new(Inner::default()));

        spawn_fiber(&shared, Box::new(root), false, 0, 0);
        CURRENT.with(|c| c.sim.replace(Some(Rc::clone(&shared))));
        let mut inner = shared.borrow_mut();
        let root = next_fiber(&mut inner).expect("the root fiber is runnable");
        let inner = hand_off(&shared, inner, root, Handoff::Main);
        CURRENT.with(|c| c.sim.replace(None));

        if let Some((parked, at)) = inner.deadlock {
            return Err(SimError::Deadlock { parked, at });
        }
        match inner.panic_msg.clone() {
            Some(msg) => Err(SimError::FiberPanic(msg)),
            None => Ok(SimReport {
                virtual_ns: inner.now,
                fibers: inner.completed,
                switches: inner.switches,
                stacks: inner.stacks.mapped,
            }),
        }
    }
}

fn spawn_fiber(
    shared: &Rc<Shared>,
    body: Box<dyn FnOnce() + Send>,
    daemon: bool,
    obs_node: u32,
    obs_txn: u64,
) -> FiberId {
    let mut inner = shared.borrow_mut();
    let id = inner.next_fiber;
    inner.next_fiber += 1;
    let stack = inner.stacks.take();
    let sim = Rc::clone(shared);
    let resume = stack.prepare(Box::new(move |from| run_fiber(sim, id, from, body)));
    inner.fibers.insert(
        id,
        FiberSlot {
            resume: Some(resume),
            stack,
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
    FiberId(id)
}

/// A fiber's life on its own stack, from the switch that started it to the
/// context it hands the processor to when it has finished. Everything it
/// holds is dropped before that last switch.
fn run_fiber(
    sim: Rc<Shared>,
    id: u64,
    from: Suspended,
    body: Box<dyn FnOnce() + Send>,
) -> Suspended {
    resumed(&mut sim.borrow_mut(), from);
    CURRENT.with(|c| c.fiber.set(id));
    let result = catch_unwind(AssertUnwindSafe(body));
    let mut inner = sim.borrow_mut();
    if let Err(payload) = result {
        // Shutdown and injected-crash unwinds terminate the fiber without
        // failing the simulation.
        if payload.downcast_ref::<ShutdownSignal>().is_none()
            && payload
                .downcast_ref::<crate::crashpoint::CrashUnwind>()
                .is_none()
            && inner.panic_msg.is_none()
        {
            inner.panic_msg = Some(panic_message(&payload));
        }
    }
    let stack = finish_fiber(&mut inner, id);
    inner.handoff = Some(Handoff::Exited(stack));
    // Hand the processor on; the last fiber out resumes `Sim::run`.
    match next_fiber(&mut inner) {
        Some(next) => take_resume(&mut inner, next),
        None => inner.main.take().expect("`Sim::run` waits"),
    }
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

/// Removes a finished fiber, wakes its joiners and returns its stack.
fn finish_fiber(inner: &mut Inner, id: u64) -> Stack {
    let slot = inner.fibers.remove(&id).expect("finishing unknown fiber");
    if !slot.daemon {
        inner.live_non_daemon -= 1;
    }
    inner.completed += 1;
    for w in slot.join_waiters {
        wake_fiber(inner, w.0, WakeReason::Signal);
    }
    slot.stack
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
/// returns it, advancing virtual time to the next valid timer when the run
/// queue is empty. Called by whichever context is giving up the processor,
/// which switches only after ending its borrow of the state.
///
/// `None` means every fiber has finished. A fiber that is itself parked or
/// runnable never sees `None`: at the latest the shutdown transition wakes it.
fn next_fiber(inner: &mut Inner) -> Option<u64> {
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
            return Some(id);
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

fn take_resume(inner: &mut Inner, id: u64) -> Suspended {
    let slot = inner.fibers.get_mut(&id).expect("picked fiber missing");
    slot.resume.take().expect("a picked fiber is suspended")
}

/// Switches from the running context, which `me` describes, to fiber
/// `next`, and returns with the state borrowed again once a context
/// switches back.
fn hand_off<'a>(
    shared: &'a Shared,
    mut inner: RefMut<'a, Inner>,
    next: u64,
    me: Handoff,
) -> RefMut<'a, Inner> {
    let to = take_resume(&mut inner, next);
    inner.handoff = Some(me);
    drop(inner);
    let from = crate::stack::switch(to);
    let mut inner = shared.borrow_mut();
    resumed(&mut inner, from);
    inner
}

/// Settles the context that just switched to this one; `from` is where it
/// stopped.
fn resumed(inner: &mut Inner, from: Suspended) {
    match inner.handoff.take().expect("a switch records who made it") {
        Handoff::Fiber(id) => inner.fibers.get_mut(&id).expect("parked").resume = Some(from),
        Handoff::Main => inner.main = Some(from),
        // `from` points into the stack being released and is never resumed.
        Handoff::Exited(stack) => inner.stacks.give(stack),
    }
}

fn with_current<R>(f: impl FnOnce(&Rc<Shared>, u64) -> R) -> R {
    try_with_current(f).expect("this operation may only be used inside a treaty-sim fiber")
}

/// Like [`with_current`] but returns `None` outside a fiber instead of
/// panicking — observability must never abort an un-instrumented context.
fn try_with_current<R>(f: impl FnOnce(&Rc<Shared>, u64) -> R) -> Option<R> {
    CURRENT.with(|c| Some(f(c.sim.borrow().as_ref()?, c.fiber.get())))
}

/// Gives up the processor: picks the next fiber and switches to it, unless
/// it is this one. Called with the borrow under which the caller updated
/// its own state (Parked, or re-queued Runnable). Returns why the fiber
/// resumed.
///
/// Every fiber shares the thread's panic count, so a switch while this one
/// unwinds would make `std::thread::panicking()` true in the next one: the
/// process aborts instead, naming the fiber.
fn switch_out<'a>(shared: &'a Shared, mut inner: RefMut<'a, Inner>, id: u64) -> WakeReason {
    if std::thread::panicking() {
        let tag = inner.fibers[&id].tag;
        eprintln!("treaty-sim: fiber#{id} ({tag:?}) reached a yield point while unwinding");
        std::process::abort();
    }
    let next = next_fiber(&mut inner).expect("a fiber giving up the processor is still live");
    if next != id {
        inner = hand_off(shared, inner, next, Handoff::Fiber(id));
        CURRENT.with(|c| c.fiber.set(id));
    }
    // On resume: if the sim is shutting down, unwind this fiber.
    if inner.shutting_down {
        drop(inner);
        std::panic::panic_any(ShutdownSignal);
    }
    inner.fibers[&id].wake_reason
}

/// Parks the current fiber until [`unpark`] or, given one, until virtual
/// time `ns` from now.
fn park_for(ns: Option<Nanos>) -> WakeReason {
    with_current(|shared, id| {
        let mut inner = shared.borrow_mut();
        let deadline = ns.map(|ns| inner.now.saturating_add(ns));
        let slot = inner.fibers.get_mut(&id).expect("running");
        slot.state = FiberState::Parked;
        slot.generation += 1;
        let generation = slot.generation;
        if let Some(deadline) = deadline {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            inner.timers.push(Reverse((deadline, seq, id, generation)));
        }
        switch_out(shared, inner, id)
    })
}

/// Tags the current fiber for diagnostics (named if it aborts the process,
/// see [`switch_out`]). Outside a fiber there is nothing to tag, and it
/// does nothing.
pub fn set_tag(tag: &'static str) {
    let _ = try_with_current(|shared, id| {
        if let Some(slot) = shared.borrow_mut().fibers.get_mut(&id) {
            slot.tag = tag;
        }
    });
}

/// Returns `true` if the caller runs in a simulation fiber.
pub fn in_fiber() -> bool {
    try_with_current(|_, _| ()).is_some()
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
    with_current(|shared, _| shared.borrow().now)
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
fn inherited_obs_ctx(shared: &Rc<Shared>, id: u64) -> (u32, u64) {
    let inner = shared.borrow();
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
        shared.borrow_mut().obs = obs;
    });
}

/// Tags the current fiber (and future children) as executing for `node`.
/// No-op outside a fiber.
pub(crate) fn obs_set_node(node: u32) {
    let _ = try_with_current(|shared, id| {
        if let Some(slot) = shared.borrow_mut().fibers.get_mut(&id) {
            slot.obs_node = node;
        }
    });
}

/// Sets the transaction in scope for the current fiber, returning the
/// previous value so callers can restore it. Returns 0 outside a fiber.
pub(crate) fn obs_set_txn(txn: u64) -> u64 {
    try_with_current(|shared, id| {
        let mut inner = shared.borrow_mut();
        match inner.fibers.get_mut(&id) {
            Some(slot) => std::mem::replace(&mut slot.obs_txn, txn),
            None => 0,
        }
    })
    .unwrap_or(0)
}

/// Everything needed to stamp one trace event, read in one borrow:
/// `(hub, virtual now, node, fiber id, txn)`. `None` when called outside a
/// fiber or when no hub is installed — instrumentation then no-ops.
pub(crate) fn obs_ctx() -> Option<(Arc<treaty_obs::Obs>, Nanos, u32, u64, u64)> {
    try_with_current(|shared, id| {
        let inner = shared.borrow();
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
        shared.borrow_mut().crash = plan;
    });
}

/// The installed crash plan, if any. `None` outside a fiber.
pub(crate) fn crash_installed() -> Option<Arc<crate::crashpoint::CrashPlan>> {
    try_with_current(|shared, _| shared.borrow().crash.clone()).flatten()
}

/// Everything a crash point needs, read in one borrow: `(plan, node
/// this fiber executes for, virtual now)`. `None` when called outside a
/// fiber or with no plan installed — crash points then no-op.
pub(crate) fn crash_ctx() -> Option<(Arc<crate::crashpoint::CrashPlan>, u32, Nanos)> {
    try_with_current(|shared, id| {
        let inner = shared.borrow();
        let plan = inner.crash.clone()?;
        let slot = inner.fibers.get(&id)?;
        Some((plan, slot.obs_node, inner.now))
    })
    .flatten()
}

/// Advances this fiber's virtual time by `ns` nanoseconds.
///
/// Other fibers run during the interval; no wall-clock time passes beyond
/// scheduling overhead. An [`unpark`] that lands mid-sleep does not cut it
/// short: the fiber parks again until its deadline.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn sleep(ns: Nanos) {
    if ns == 0 {
        yield_now();
        return;
    }
    let deadline = now().saturating_add(ns);
    while park_for(Some(deadline - now())) == WakeReason::Signal {}
}

/// Parks the current fiber until another fiber calls [`unpark`] on it.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn park() {
    park_for(None);
}

/// Parks the current fiber until [`unpark`] or until `ns` virtual nanoseconds
/// elapse, whichever is first. Returns why it woke.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn park_timeout(ns: Nanos) -> WakeReason {
    park_for(Some(ns))
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
        let mut inner = shared.borrow_mut();
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
        let mut inner = shared.borrow_mut();
        inner.fibers.get_mut(&id).expect("running").state = FiberState::Runnable;
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
        let mut inner = shared.borrow_mut();
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
    use parking_lot::Mutex;
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

    #[test]
    fn a_sleep_woken_early_still_ends_at_its_deadline() {
        let woke_at = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&woke_at);
        Sim::new()
            .run(move || {
                let sleeper = spawn(move || {
                    sleep(100);
                    w.store(now(), Ordering::SeqCst);
                });
                sleep(10);
                assert!(unpark(sleeper), "the sleeper is parked mid-sleep");
                join(sleeper);
            })
            .unwrap();
        assert_eq!(woke_at.load(Ordering::SeqCst), 100);
    }

    /// Pushes its depth to a shared log when it drops.
    struct Frame(u32, Arc<Mutex<Vec<u32>>>);

    impl Drop for Frame {
        fn drop(&mut self) {
            self.1.lock().push(self.0);
        }
    }

    fn descend_and_crash(depth: u32, log: &Arc<Mutex<Vec<u32>>>) {
        let _frame = Frame(depth, Arc::clone(log));
        if depth == 1_000 {
            std::panic::panic_any(crate::crashpoint::CrashUnwind);
        }
        descend_and_crash(depth + 1, log);
    }

    #[test]
    fn a_crash_unwinds_a_thousand_frames_in_reverse_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let siblings_done = Arc::new(AtomicU64::new(0));
        let (l, done) = (Arc::clone(&log), Arc::clone(&siblings_done));
        Sim::new()
            .run(move || {
                let siblings: Vec<_> = (0..3)
                    .map(|i| {
                        let done = Arc::clone(&done);
                        spawn(move || {
                            for _ in 0..5 {
                                sleep(1 + i);
                                yield_now();
                            }
                            done.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                let crasher = spawn(move || {
                    sleep(2);
                    descend_and_crash(1, &l);
                });
                join(crasher);
                siblings.into_iter().for_each(join);
            })
            .unwrap();
        assert_eq!(*log.lock(), (1..=1_000).rev().collect::<Vec<_>>());
        assert_eq!(siblings_done.load(Ordering::SeqCst), 3);
    }

    /// Recurses until it is `bytes` below `base`; returns the frame count.
    fn descend_through(base: usize, bytes: usize) -> usize {
        let pad = std::hint::black_box([0u8; 1024]);
        let here = &pad as *const [u8; 1024] as usize;
        if base - here >= bytes {
            return 1;
        }
        1 + descend_through(base, bytes) + pad[0] as usize
    }

    #[test]
    fn a_fiber_recurses_through_a_mebibyte_of_stack() {
        let frames = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&frames);
        Sim::new()
            .run(move || {
                let base = std::hint::black_box(0u8);
                let base = &base as *const u8 as usize;
                let n = descend_through(base, 1 << 20);
                f.store(n as u64, Ordering::SeqCst);
            })
            .unwrap();
        assert!(frames.load(Ordering::SeqCst) > 100);
    }

    #[test]
    fn finished_fibers_hand_their_stacks_on() {
        // One after another: the root's stack and one that every child reuses.
        let report = Sim::new()
            .run(|| {
                for _ in 0..100_000 {
                    join(spawn(|| {}));
                }
            })
            .unwrap();
        assert_eq!((report.fibers, report.stacks), (100_001, 2));
        // Two bursts of 100: the second maps only what the pool let go.
        let report = Sim::new()
            .run(|| {
                for _ in 0..2 {
                    let burst: Vec<_> = (0..100).map(|_| spawn(|| sleep(1))).collect();
                    burst.into_iter().for_each(join);
                }
            })
            .unwrap();
        assert_eq!(report.stacks, 1 + 100 + (100 - 16));
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
