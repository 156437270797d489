//! Deterministic crash-point fault injection.
//!
//! Every step of the distributed commit path names a [`CrashPoint`] by
//! calling [`hit`] at the instrumented site. A harness installs
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
//! The inventory is the [`CrashPoint`] enum: a call site names a variant,
//! so a misspelled point fails to compile instead of never firing.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::obs::Phase;
use crate::runtime;
use crate::Nanos;

/// Declares [`CrashPoint`] from one `Variant => "dotted.name"` list, so
/// the variants, [`CrashPoint::ALL`] and [`CrashPoint::name`] cannot drift
/// apart.
macro_rules! crash_points {
    ($(#[$attr:meta])* pub enum $ty:ident { $($variant:ident => $name:literal,)* }) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($variant,)*
        }

        impl $ty {
            /// Every point, in declaration order: `ALL[i] as usize == i`.
            pub const ALL: [$ty; [$($name),*].len()] = [$($ty::$variant),*];

            /// The point's dotted name, e.g. `"coord.after_votes"`.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

crash_points! {
    /// Every crash point compiled into the workspace, in a fixed order: a
    /// point's index (`point as u64`) is what the `crash.fired` trace instant
    /// carries, and [`CrashPoint::name`] is what flight dumps and fault-matrix
    /// transcripts print.
    ///
    /// Coordinator points fire on the node coordinating the transaction,
    /// participant points on the remote shard, `clog.*` on the coordinator's
    /// commit-log path, `store.*` inside the storage engine of whichever node
    /// is writing, `log.*` on whichever node's group-commit leader wrote and
    /// `counter.*` on whichever node leads a counter round.
    ///
    /// A point is a variant, not a string, so a misspelled one does not
    /// compile:
    ///
    /// ```compile_fail,E0308
    /// treaty_sim::crashpoint::hit("coord.typo");
    /// ```
    ///
    /// ```compile_fail,E0599
    /// treaty_sim::crashpoint::hit(treaty_sim::crashpoint::CrashPoint::CoordTypo);
    /// ```
    pub enum CrashPoint {
        // Coordinator (treaty-core node.rs, Fig. 2 steps 2-13; the first
        // fires on the Start's writer in clog.rs, the Start on disk).
        CoordAfterClogStart => "coord.after_clog_start",
        CoordAfterPrepareFanout => "coord.after_prepare_fanout",
        CoordAfterVotes => "coord.after_votes",
        CoordCommitPoint => "coord.commit_point",
        CoordFinishStable => "coord.finish_stable",
        CoordAfterLogDecision => "coord.after_log_decision",
        CoordMidDecisionFanout => "coord.mid_decision_fanout",
        CoordAfterDecisionSend => "coord.after_decision_send",
        CoordBeforeClientReply => "coord.before_client_reply",
        CoordOpsFanout => "coord.ops_fanout",
        // Participant (treaty-core node.rs, peer handler).
        PartBeforePrepare => "part.before_prepare",
        PartBatchApply => "part.batch_apply",
        PartAfterPrepare => "part.after_prepare",
        PartReadOnlyFinish => "part.read_only_finish",
        PartCommitPoint => "part.commit_point",
        PartAfterCommitApply => "part.after_commit_apply",
        PartAfterAbortApply => "part.after_abort_apply",
        PartSnapshotRead => "part.snapshot_read",
        PartSnapshotScan => "part.snapshot_scan",
        PartScan => "part.scan",
        PartRangeDelete => "part.range_delete",
        // Commit log (treaty-core clog.rs).
        ClogDecisionAppended => "clog.decision_appended",
        // Storage engine (treaty-store txn.rs / engine.rs).
        StorePrepareLogged => "store.prepare_logged",
        StoreCommitLogged => "store.commit_logged",
        StoreBgFlushStart => "store.bg_flush_start",
        StoreBgCompactStart => "store.bg_compact_start",
        // Log writer (treaty-store log.rs): a batch of queued appends (Clog,
        // MANIFEST) is on disk, no follower has learnt its counter.
        LogBatchWritten => "log.batch_written",
        // Trusted counter (treaty-counter lib.rs): the group acknowledged a
        // round, its leader has not yet published the value as stable.
        CounterRoundAcked => "counter.round_acked",
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault: crash `node` the `hit`-th time (1-based, counted from
/// arming) any of its fibers reaches `point`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// The crash point.
    pub point: CrashPoint,
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
    pub fn crash_at(mut self, point: CrashPoint, node: u32, hit: u64) -> Self {
        self.faults.push(CrashFault {
            point,
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
    pub point: CrashPoint,
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

type CrashHandler = Rc<dyn Fn()>;

/// Per-simulation fault-injection state. Create and install with
/// [`install`]; the harness keeps the returned `Rc` to arm schedules and
/// inspect fired crashes.
pub struct CrashPlan {
    state: RefCell<PlanState>,
    handlers: RefCell<HashMap<u32, CrashHandler>>,
}

impl std::fmt::Debug for CrashPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
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
    fn new() -> Rc<Self> {
        Rc::new(CrashPlan {
            state: RefCell::new(PlanState::default()),
            handlers: RefCell::new(HashMap::new()),
        })
    }

    /// Arms `schedule`, replacing any previously armed faults and
    /// resetting their hit counters. Nodes already down stay down; fired
    /// history is kept.
    pub fn arm(&self, schedule: FaultSchedule) {
        let mut st = self.state.borrow_mut();
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
        self.state.borrow_mut().armed.clear();
    }

    /// Registers the crash handler for `node` (replacing any previous
    /// one). Called on node start; the handler must stop the node's
    /// endpoint so the cluster observes the crash.
    pub fn register(&self, node: u32, f: impl Fn() + 'static) {
        self.handlers.borrow_mut().insert(node, Rc::new(f));
    }

    /// Every crash that fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredCrash> {
        self.state.borrow().fired.clone()
    }

    /// True if `node` crashed and has not been revived.
    pub fn is_down(&self, node: u32) -> bool {
        self.state.borrow().down.contains(&node)
    }

    /// Marks `node` alive again (call after restarting it); its fibers
    /// stop unwinding at crash points.
    pub fn revive(&self, node: u32) {
        self.state.borrow_mut().down.remove(&node);
    }

    fn decide(&self, point: CrashPoint, node: u32, at: Nanos) -> Decision {
        let mut st = self.state.borrow_mut();
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
        st.fired.push(FiredCrash { point, node, at });
        drop(st);
        Decision::Fire(self.handlers.borrow().get(&node).cloned())
    }
}

/// Creates a fresh [`CrashPlan`] and installs it for the current
/// simulation. Call from the root fiber before the cluster boots.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn install() -> Rc<CrashPlan> {
    let plan = CrashPlan::new();
    runtime::crash_install(Some(Rc::clone(&plan)));
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
pub fn register_node(node: u32, f: impl Fn() + 'static) {
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

/// A crash point. Instrumented protocol steps call this; with no plan
/// installed (or outside a fiber) it costs one thread-local read.
///
/// If an armed fault matches, this function **does not return**: it runs
/// the node's crash handler and unwinds the fiber. It also does not
/// return on any node already down — in-flight fibers of a crashed node
/// are frozen at their next crash point so they cannot keep mutating
/// state the crash should have lost.
pub fn hit(point: CrashPoint) {
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
            crate::obs::counter_add(crate::obs::Counter::CrashFired, 1);
            crate::obs::instant(
                Phase::CrashFired,
                &[("node", node as u64), ("point", point as u64)],
            );
            // Post-mortem before the handler runs: the flight recorder
            // snapshots the node's last trace window while it still shows
            // the path into the crash.
            crate::obs::flight_dump("crash.fired", point.name());
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
    use std::cell::Cell;

    #[test]
    fn hit_is_a_noop_without_a_plan() {
        Sim::new()
            .run(|| {
                crate::obs::set_node(3);
                hit(CrashPoint::CoordAfterVotes);
            })
            .unwrap();
        // And outside any fiber too.
        hit(CrashPoint::CoordAfterVotes);
    }

    #[test]
    fn fires_on_kth_hit_runs_handler_and_freezes_the_node() {
        let survived = Rc::new(Cell::new(0));
        let stopped = Rc::new(Cell::new(false));
        let s1 = Rc::clone(&survived);
        let st1 = Rc::clone(&stopped);
        Sim::new()
            .run(move || {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at(CrashPoint::ClogDecisionAppended, 7, 2));
                let st2 = Rc::clone(&st1);
                register_node(7, move || st2.set(true));
                let s2 = Rc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(7);
                    for _ in 0..5 {
                        hit(CrashPoint::ClogDecisionAppended);
                        s2.update(|n| n + 1);
                        runtime::sleep(10);
                    }
                });
                runtime::sleep(1_000);
                let fired = plan.fired();
                assert_eq!(fired.len(), 1);
                assert_eq!(fired[0].point, CrashPoint::ClogDecisionAppended);
                assert_eq!(fired[0].node, 7);
                assert!(plan.is_down(7));
            })
            .unwrap();
        assert!(stopped.get(), "crash handler must run");
        assert_eq!(
            survived.get(),
            1,
            "only the first hit survives; the second crashes the fiber"
        );
    }

    #[test]
    fn down_node_unwinds_other_fibers_at_their_next_point() {
        let survived = Rc::new(Cell::new(0));
        let s1 = Rc::clone(&survived);
        Sim::new()
            .run(move || {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at(CrashPoint::PartAfterPrepare, 9, 1));
                let s2 = Rc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(9);
                    hit(CrashPoint::PartAfterPrepare); // crashes here
                    s2.update(|n| n + 1);
                });
                let s3 = Rc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(9);
                    runtime::sleep(100); // let the first fiber crash
                    hit(CrashPoint::PartAfterCommitApply); // node is down: unwind
                    s3.update(|n| n + 1);
                });
                runtime::sleep(1_000);
                assert!(plan.is_down(9));
            })
            .unwrap();
        assert_eq!(survived.get(), 0);
    }

    #[test]
    fn revive_lets_the_node_run_again() {
        Sim::new()
            .run(|| {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at(CrashPoint::CoordAfterVotes, 5, 1));
                runtime::spawn_daemon(|| {
                    crate::obs::set_node(5);
                    hit(CrashPoint::CoordAfterVotes);
                });
                runtime::sleep(100);
                assert!(plan.is_down(5));
                plan.revive(5);
                assert!(!plan.is_down(5));
                let ran = Rc::new(Cell::new(false));
                let r2 = Rc::clone(&ran);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(5);
                    hit(CrashPoint::CoordAfterVotes); // fault spent: no-op now
                    r2.set(true);
                });
                runtime::sleep(100);
                assert!(ran.get());
                assert_eq!(plan.fired().len(), 1);
            })
            .unwrap();
    }

    #[test]
    fn other_nodes_and_other_points_are_unaffected() {
        let survived = Rc::new(Cell::new(0));
        let s1 = Rc::clone(&survived);
        Sim::new()
            .run(move || {
                let plan = install();
                plan.arm(FaultSchedule::new().crash_at(CrashPoint::PartAfterPrepare, 2, 1));
                let s2 = Rc::clone(&s1);
                runtime::spawn_daemon(move || {
                    crate::obs::set_node(3); // different node
                    hit(CrashPoint::PartAfterPrepare);
                    hit(CrashPoint::PartAfterCommitApply); // different point
                    s2.update(|n| n + 1);
                });
                runtime::sleep(100);
                assert!(plan.fired().is_empty());
            })
            .unwrap();
        assert_eq!(survived.get(), 1);
    }

    #[test]
    fn schedules_are_deterministic_across_runs() {
        let run = || {
            let fired = Rc::new(RefCell::new(Vec::new()));
            let f1 = Rc::clone(&fired);
            Sim::new()
                .run(move || {
                    let plan = install();
                    plan.arm(FaultSchedule::new().crash_at(CrashPoint::StoreCommitLogged, 4, 3));
                    runtime::spawn_daemon(|| {
                        crate::obs::set_node(4);
                        loop {
                            runtime::sleep(17);
                            hit(CrashPoint::StoreCommitLogged);
                        }
                    });
                    runtime::sleep(1_000);
                    *f1.borrow_mut() = plan.fired();
                })
                .unwrap();
            let v = fired.borrow().clone();
            v
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].at, 51, "3rd hit at t=3*17");
    }

    #[test]
    fn every_point_has_its_index_and_a_unique_name() {
        let mut names = HashSet::new();
        for (i, point) in CrashPoint::ALL.into_iter().enumerate() {
            assert_eq!(point as usize, i, "{point:?} is out of order in ALL");
            assert!(
                names.insert(point.name()),
                "{} is named twice",
                point.name()
            );
        }
    }
}
