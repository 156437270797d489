//! Deterministic crash-point fault injection.
//!
//! Every step of the distributed commit path registers a **named crash
//! point** by calling [`hit`] at the instrumented site. A harness installs
//! a [`CrashPlan`] per simulation ([`install`], mirroring `obs::install`)
//! and arms it with a [`FaultSchedule`]: "crash node N at point P on the
//! K-th hit". When an armed fault matches, the plan
//!
//! 1. marks the node **down**,
//! 2. invokes the node's registered crash handler (typically
//!    `TreatyNode::stop`, which deregisters the fabric endpoint so the rest
//!    of the cluster sees an unreachable peer),
//! 3. records a [`FiredCrash`] for harness assertions and emits a
//!    `crash.fired` counter + trace instant, and
//! 4. unwinds the current fiber with a [`CrashUnwind`] payload — the
//!    runtime treats it like its shutdown signal, not a test failure.
//!
//! Volatile state of the crashed node is frozen by attrition: any other
//! in-flight fiber tagged with that node unwinds at its *next* crash
//! point, and the deregistered endpoint stops all new traffic. Durable
//! state (WAL, Clog) survives untouched, which is exactly what recovery is
//! then asked to repair. After the harness restarts the node it calls
//! [`CrashPlan::revive`] so the fresh fibers run normally.
//!
//! Everything here rides the virtual clock and the deterministic
//! scheduler, so a fixed seed reproduces the same crash at the same
//! virtual instant on every run. With no plan installed (or outside a
//! fiber) [`hit`] is a no-op, so instrumentation is always-on and free to
//! sprinkle — the same contract as the observability glue.
//!
//! Lint rule L006 keeps the inventory honest: every `crashpoint::hit`
//! call site must name a point registered in [`ALL_POINTS`], and the
//! inventory itself must be duplicate-free.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::runtime;
use crate::Nanos;

/// Inventory of every named crash point compiled into the workspace.
///
/// Coordinator points fire on the node coordinating the transaction,
/// participant points on the remote shard, `clog.*` on the coordinator's
/// commit-log path, `store.*` inside the storage engine of whichever node
/// is writing, `log.*` on whichever node's group-commit leader wrote and
/// `counter.*` on whichever node leads a counter round.
/// Lint rule L006 checks call sites against this list.
pub const ALL_POINTS: &[&str] = &[
    // Coordinator (treaty-core node.rs, Fig. 2 steps 2-13).
    "coord.after_clog_start",
    "coord.after_prepare_fanout",
    "coord.after_votes",
    "coord.commit_point",
    "coord.finish_stable",
    "coord.after_log_decision",
    "coord.mid_decision_fanout",
    "coord.after_decision_send",
    "coord.before_client_reply",
    "coord.ops_fanout",
    // Participant (treaty-core node.rs, peer handler).
    "part.before_prepare",
    "part.batch_apply",
    "part.after_prepare",
    "part.read_only_finish",
    "part.after_commit_apply",
    "part.after_abort_apply",
    "part.snapshot_read",
    "part.snapshot_scan",
    "part.scan",
    "part.range_delete",
    // Commit log (treaty-core clog.rs).
    "clog.decision_appended",
    // Storage engine (treaty-store txn.rs / engine.rs).
    "store.prepare_logged",
    "store.commit_logged",
    "store.bg_flush_start",
    "store.bg_compact_start",
    // Log writer (treaty-store log.rs): a batch of queued appends (Clog,
    // MANIFEST) is on disk, no follower has learnt its counter.
    "log.batch_written",
    // Trusted counter (treaty-counter lib.rs): the group acknowledged a
    // round, its leader has not yet published the value as stable.
    "counter.round_acked",
];

/// One armed fault: crash `node` the `hit`-th time (1-based, counted from
/// arming) any of its fibers reaches `point`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// Crash-point name (must appear in [`ALL_POINTS`]).
    pub point: String,
    /// Fabric endpoint id of the node to crash.
    pub node: u32,
    /// Fire on this hit count (1 = first hit after arming).
    pub hit: u64,
}

/// A deterministic set of [`CrashFault`]s, armed via [`CrashPlan::arm`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    faults: Vec<CrashFault>,
}

impl FaultSchedule {
    /// An empty schedule (crashes nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: adds "crash `node` on the `hit`-th hit of `point`".
    /// A `hit` of 0 is treated as 1.
    #[must_use]
    pub fn crash_at(mut self, point: impl Into<String>, node: u32, hit: u64) -> Self {
        self.faults.push(CrashFault {
            point: point.into(),
            node,
            hit: hit.max(1),
        });
        self
    }

    /// The armed faults.
    pub fn faults(&self) -> &[CrashFault] {
        &self.faults
    }

    /// True if the schedule crashes nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Record of a crash that fired: which point, which node, at what virtual
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredCrash {
    /// The crash point that fired.
    pub point: String,
    /// The node that went down.
    pub node: u32,
    /// Virtual time of the crash.
    pub at: Nanos,
}

/// Unwind payload for a crashed fiber. The runtime treats it exactly like
/// its internal shutdown signal: the fiber terminates without marking the
/// simulation failed.
pub(crate) struct CrashUnwind;

struct ArmedFault {
    fault: CrashFault,
    hits: u64,
    spent: bool,
}

#[derive(Default)]
struct PlanState {
    armed: Vec<ArmedFault>,
    down: HashSet<u32>,
    fired: Vec<FiredCrash>,
}

type CrashHandler = Arc<dyn Fn() + Send + Sync>;

/// Per-simulation fault-injection state. Create and install with
/// [`install`]; the harness keeps the returned `Arc` to arm schedules and
/// inspect fired crashes.
pub struct CrashPlan {
    state: Mutex<PlanState>,
    handlers: Mutex<HashMap<u32, CrashHandler>>,
}

impl std::fmt::Debug for CrashPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CrashPlan")
            .field("armed", &st.armed.len())
            .field("down", &st.down)
            .field("fired", &st.fired)
            .finish()
    }
}

enum Decision {
    Continue,
    Unwind,
    Fire(Option<CrashHandler>),
}

impl CrashPlan {
    fn new() -> Arc<Self> {
        Arc::new(CrashPlan {
            state: Mutex::new(PlanState::default()),
            handlers: Mutex::new(HashMap::new()),
        })
    }

    /// Arms `schedule`, replacing any previously armed faults and
    /// resetting their hit counters. Nodes already down stay down; fired
    /// history is kept.
    pub fn arm(&self, schedule: FaultSchedule) {
        let mut st = self.state.lock();
        st.armed = schedule
            .faults
            .into_iter()
            .map(|fault| ArmedFault {
                fault,
                hits: 0,
                spent: false,
            })
            .collect();
    }

    /// Clears all armed faults (hits become no-ops for live nodes).
    pub fn disarm(&self) {
        self.state.lock().armed.clear();
    }

    /// Registers the crash handler for `node` (replacing any previous
    /// one). Called on node start; the handler must stop the node's
    /// endpoint so the cluster observes the crash.
    pub fn register(&self, node: u32, f: impl Fn() + Send + Sync + 'static) {
        self.handlers.lock().insert(node, Arc::new(f));
    }

    /// Every crash that fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredCrash> {
        self.state.lock().fired.clone()
    }

    /// True if `node` crashed and has not been revived.
    pub fn is_down(&self, node: u32) -> bool {
        self.state.lock().down.contains(&node)
    }

    /// Marks `node` alive again (call after restarting it); its fibers
    /// stop unwinding at crash points.
    pub fn revive(&self, node: u32) {
        self.state.lock().down.remove(&node);
    }

    fn decide(&self, point: &str, node: u32, at: Nanos) -> Decision {
        let mut st = self.state.lock();
        if st.down.contains(&node) {
            return Decision::Unwind;
        }
        let mut fire = false;
        for af in st.armed.iter_mut() {
            if af.spent || af.fault.node != node || af.fault.point != point {
                continue;
            }
            af.hits += 1;
            if af.hits == af.fault.hit {
                af.spent = true;
                fire = true;
                break;
            }
        }
        if !fire {
            return Decision::Continue;
        }
        st.down.insert(node);
        st.fired.push(FiredCrash {
            point: point.to_string(),
            node,
            at,
        });
        drop(st);
        Decision::Fire(self.handlers.lock().get(&node).cloned())
    }
}

/// Creates a fresh [`CrashPlan`] and installs it for the current
/// simulation. Call from the root fiber before the cluster boots.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn install() -> Arc<CrashPlan> {
    let plan = CrashPlan::new();
    runtime::crash_install(Some(Arc::clone(&plan)));
    plan
}

/// Removes the installed plan (subsequent [`hit`]s no-op again).
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn uninstall() {
    runtime::crash_install(None);
}

/// Registers `f` as node `node`'s crash handler on the installed plan.
/// No-op when no plan is installed (production runs) or outside a fiber.
pub fn register_node(node: u32, f: impl Fn() + Send + Sync + 'static) {
    if let Some(plan) = runtime::crash_installed() {
        plan.register(node, f);
    }
}

/// Revives `node` on the installed plan, if any — call when restarting a
/// crashed node so its fresh fibers stop unwinding at crash points. No-op
/// when no plan is installed or outside a fiber.
pub fn revive_node(node: u32) {
    if let Some(plan) = runtime::crash_installed() {
        plan.revive(node);
    }
}

/// A named crash point. Instrumented protocol steps call this; with no
/// plan installed (or outside a fiber) it costs one thread-local read.
///
/// If an armed fault matches, this function **does not return**: it runs
/// the node's crash handler and unwinds the fiber. It also does not
/// return on any node already down — in-flight fibers of a crashed node
/// are frozen at their next crash point so they cannot keep mutating
/// state the crash should have lost.
pub fn hit(point: &'static str) {
    let Some((plan, node, at)) = runtime::crash_ctx() else {
        return;
    };
    if node == 0 {
        return; // untagged fiber: cannot attribute to a node
    }
    match plan.decide(point, node, at) {
        Decision::Continue => {}
        Decision::Unwind => std::panic::panic_any(CrashUnwind),
        Decision::Fire(handler) => {
            let idx = ALL_POINTS
                .iter()
                .position(|p| *p == point)
                .map(|i| i as u64)
                .unwrap_or(u64::MAX);
            crate::obs::counter_add("crash.fired", 1);
            crate::obs::instant("crash.fired", &[("node", node as u64), ("point", idx)]);
            // Post-mortem before the handler runs: the flight recorder
            // snapshots the node's last trace window while it still shows
            // the path into the crash.
            crate::obs::flight_dump("crash.fired", point);
            if let Some(handler) = handler {
                handler();
            }
            std::panic::panic_any(CrashUnwind);
        }
    }
}

/// Unwinds the calling fiber if its node is down, like a [`hit`] there
/// would — without being a point a schedule can arm. For the step a
/// crashed node must not take even once: a write to its disk.
pub fn stop_if_down() {
    if let Some((plan, node, _)) = runtime::crash_ctx() {
        if plan.is_down(node) {
            std::panic::panic_any(CrashUnwind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{self, Sim};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn hit_is_a_noop_without_a_plan() {
        Sim::new()
            .run(|| {
                crate::obs::set_node(3);
                hit("coord.after_votes");
            })
            .unwrap();
        // And outside any fiber too.
        hit("coord.after_votes");
    }

    #[test]
    fn fires_on_kth_hit_runs_handler_and_freezes_the_node() {
        let survived = Arc::new(AtomicU64::new(0));
        let stopped = Arc::new(AtomicBool::new(false));
        let s1 = Arc::clone(&survived);
        let st1 = Arc::clone(&stopped);
        Sim::new()
            .run(move || {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at("clog.decision_appended", 7, 2));
                let st2 = Arc::clone(&st1);
                register_node(7, move || st2.store(true, Ordering::SeqCst));
                let s2 = Arc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(7);
                    for _ in 0..5 {
                        hit("clog.decision_appended");
                        s2.fetch_add(1, Ordering::SeqCst);
                        runtime::sleep(10);
                    }
                });
                runtime::sleep(1_000);
                let fired = plan.fired();
                assert_eq!(fired.len(), 1);
                assert_eq!(fired[0].point, "clog.decision_appended");
                assert_eq!(fired[0].node, 7);
                assert!(plan.is_down(7));
            })
            .unwrap();
        assert!(stopped.load(Ordering::SeqCst), "crash handler must run");
        assert_eq!(
            survived.load(Ordering::SeqCst),
            1,
            "only the first hit survives; the second crashes the fiber"
        );
    }

    #[test]
    fn down_node_unwinds_other_fibers_at_their_next_point() {
        let survived = Arc::new(AtomicU64::new(0));
        let s1 = Arc::clone(&survived);
        Sim::new()
            .run(move || {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at("part.after_prepare", 9, 1));
                let s2 = Arc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(9);
                    hit("part.after_prepare"); // crashes here
                    s2.fetch_add(1, Ordering::SeqCst);
                });
                let s3 = Arc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(9);
                    runtime::sleep(100); // let the first fiber crash
                    hit("part.after_commit_apply"); // node is down: unwind
                    s3.fetch_add(1, Ordering::SeqCst);
                });
                runtime::sleep(1_000);
                assert!(plan.is_down(9));
            })
            .unwrap();
        assert_eq!(survived.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn revive_lets_the_node_run_again() {
        Sim::new()
            .run(|| {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at("coord.after_votes", 5, 1));
                runtime::spawn_daemon(|| {
                    crate::obs::set_node(5);
                    hit("coord.after_votes");
                });
                runtime::sleep(100);
                assert!(plan.is_down(5));
                plan.revive(5);
                assert!(!plan.is_down(5));
                let ran = Arc::new(AtomicBool::new(false));
                let r2 = Arc::clone(&ran);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(5);
                    hit("coord.after_votes"); // fault spent: no-op now
                    r2.store(true, Ordering::SeqCst);
                });
                runtime::sleep(100);
                assert!(ran.load(Ordering::SeqCst));
                assert_eq!(plan.fired().len(), 1);
            })
            .unwrap();
    }

    #[test]
    fn other_nodes_and_other_points_are_unaffected() {
        let survived = Arc::new(AtomicU64::new(0));
        let s1 = Arc::clone(&survived);
        Sim::new()
            .run(move || {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at("part.after_prepare", 2, 1));
                let s2 = Arc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(3); // different node
                    hit("part.after_prepare");
                    hit("part.after_commit_apply"); // different point
                    s2.fetch_add(1, Ordering::SeqCst);
                });
                runtime::sleep(100);
                assert!(plan.fired().is_empty());
            })
            .unwrap();
        assert_eq!(survived.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn schedules_are_deterministic_across_runs() {
        let run = || {
            let fired = Arc::new(Mutex::new(Vec::new()));
            let f1 = Arc::clone(&fired);
            Sim::new()
                .run(move || {
                    let plan = install();
                    plan.arm(FaultSchedule::new().crash_at("store.commit_logged", 4, 3));
                    runtime::spawn_daemon(|| {
                        crate::obs::set_node(4);
                        loop {
                            runtime::sleep(17);
                            hit("store.commit_logged");
                        }
                    });
                    runtime::sleep(1_000);
                    *f1.lock() = plan.fired();
                })
                .unwrap();
            let v = fired.lock().clone();
            v
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].at, 51, "3rd hit at t=3*17");
    }
}
