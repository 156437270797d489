//! Fiber-aware observability glue: spans, instants and metrics that stamp
//! themselves from the virtual clock and the current fiber's context.
//!
//! The hub itself lives in the zero-dependency `treaty-obs` crate; this
//! module binds it to the runtime. A harness installs one hub per `Sim`
//! with [`install`] (from inside the root fiber); instrumented layers then
//! call [`span`]/[`instant`]/[`counter_add`] without threading any handle —
//! the runtime resolves `(hub, now, node, fiber, txn)` from the calling
//! fiber. Every call is a no-op when no hub is installed or when made
//! outside a fiber, so instrumentation is always-on and free to sprinkle.
//!
//! A span or instant names a [`Phase`]; a literal (the benchmark harness's
//! `bench.*`) is looked up only under a hub, and an unknown one panics. A
//! metric names a [`Counter`] or a [`Hist`]; per-node state is not a gauge
//! here but an `OBS_SNAPSHOT` field.
//!
//! Context propagation: [`set_node`] tags a fiber (and everything it later
//! spawns) as executing for a fabric endpoint — the trace `pid`; `set_txn`
//! (via [`TxnScope`]) puts a distributed transaction id in scope. Both are
//! inherited across `spawn`/`spawn_daemon`, so helper fibers report under
//! their creator's transaction.
//!
//! Secrecy: payloads are `(&'static str, u64)` pairs — numeric only, no
//! value bytes, no user keys (see treaty-lint rule L005).

use std::rc::Rc;

pub use treaty_obs::{Counter, EventKind, Hist, Named, Obs, Phase};

use crate::runtime;

/// Installs `obs` as the current simulation's hub. Call from the root
/// fiber, before the workload spawns.
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn install(obs: &Rc<Obs>) {
    runtime::obs_install(Some(Rc::clone(obs)));
}

/// Removes the installed hub (subsequent calls no-op again).
///
/// # Panics
///
/// Panics when called outside a fiber.
pub fn uninstall() {
    runtime::obs_install(None);
}

/// Tags the current fiber as executing for fabric endpoint `node`.
/// Inherited by fibers spawned afterwards. No-op outside a fiber.
pub fn set_node(node: u32) {
    runtime::obs_set_node(node);
}

/// Puts transaction `txn` in scope for the current fiber until the guard
/// drops (restoring the previous scope). No-op outside a fiber.
pub fn txn_scope(txn: u64) -> TxnScope {
    TxnScope {
        prev: runtime::obs_set_txn(txn),
    }
}

/// RAII guard restoring the previous transaction scope. See [`txn_scope`].
#[derive(Debug)]
pub struct TxnScope {
    prev: u64,
}

impl Drop for TxnScope {
    fn drop(&mut self) {
        runtime::obs_set_txn(self.prev);
    }
}

/// Opens a span: records an enter event now and the matching exit when the
/// returned guard drops — balanced even when the fiber unwinds at shutdown.
/// No-op (and allocation-free) when no hub is installed.
pub fn span(phase: impl Named<Phase>) -> SpanGuard {
    span_with(phase, &[])
}

/// Like [`span`] with a numeric payload on the enter event.
pub fn span_with(phase: impl Named<Phase>, args: &[(&'static str, u64)]) -> SpanGuard {
    let phase = runtime::obs_ctx().map(|(obs, now, node, fiber, txn)| {
        let phase = phase.resolve();
        obs.record(EventKind::Enter, now, node, fiber, txn, phase, args);
        phase
    });
    SpanGuard { phase }
}

/// RAII guard closing a span. See [`span`].
#[derive(Debug)]
#[must_use = "dropping the guard immediately produces a zero-length span"]
pub struct SpanGuard {
    phase: Option<Phase>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(phase) = self.phase {
            if let Some((obs, now, node, fiber, txn)) = runtime::obs_ctx() {
                obs.record(EventKind::Exit, now, node, fiber, txn, phase, &[]);
            }
        }
    }
}

/// Records a point event with a numeric payload. No-op without a hub.
pub fn instant(phase: impl Named<Phase>, args: &[(&'static str, u64)]) {
    if let Some((obs, now, node, fiber, txn)) = runtime::obs_ctx() {
        let phase = phase.resolve();
        obs.record(EventKind::Instant, now, node, fiber, txn, phase, args);
    }
}

/// Adds `v` to registry counter `c`. No-op without a hub.
pub fn counter_add(c: Counter, v: u64) {
    if let Some((obs, ..)) = runtime::obs_ctx() {
        obs.metrics().counter_add(c, v);
    }
}

/// Records a virtual-time sample into registry histogram `h`. No-op
/// without a hub.
pub fn hist_record(h: Hist, v: u64) {
    if let Some((obs, ..)) = runtime::obs_ctx() {
        obs.metrics().hist_record(h, v);
    }
}

/// Writes a flight-recorder post-mortem for the current fiber's node at
/// the current virtual time. No-op without a hub, when the recorder is
/// unarmed, or on I/O failure — callable from crash handlers.
pub fn flight_dump(reason: &str, detail: &str) {
    if let Some((obs, now, node, ..)) = runtime::obs_ctx() {
        let _ = obs.flight_dump(node, now, reason, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{sleep, spawn, Sim};
    use treaty_obs::check_invariants;

    #[test]
    fn spans_balance_and_nest_with_virtual_time() {
        let obs = Obs::with_default_cap();
        let obs2 = Rc::clone(&obs);
        Sim::new()
            .run(move || {
                install(&obs2);
                set_node(3);
                let _txn = txn_scope(42);
                let outer = span(Phase::CoordCommit);
                sleep(100);
                {
                    let _inner = span(Phase::ClogLogStart);
                    sleep(50);
                }
                instant(Phase::NetSend, &[("bytes", 128)]);
                drop(outer);
            })
            .unwrap();
        let events = obs.events();
        assert_eq!(events.len(), 5);
        let forest = check_invariants(&events).unwrap();
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.variant, Phase::CoordCommit);
        assert_eq!(root.node, 3);
        assert_eq!(root.txn, 42);
        assert_eq!(root.duration(), 150);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].duration(), 50);
    }

    #[test]
    fn context_is_inherited_by_spawned_fibers() {
        let obs = Obs::with_default_cap();
        let obs2 = Rc::clone(&obs);
        Sim::new()
            .run(move || {
                install(&obs2);
                set_node(7);
                let _txn = txn_scope(9);
                let child = spawn(|| {
                    instant(Phase::NetRecv, &[]);
                });
                crate::runtime::join(child);
            })
            .unwrap();
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].node, 7);
        assert_eq!(events[0].txn, 9);
        assert_ne!(events[0].fiber, 0, "ran on the child fiber");
    }

    #[test]
    fn txn_scope_restores_previous() {
        let obs = Obs::with_default_cap();
        let obs2 = Rc::clone(&obs);
        Sim::new()
            .run(move || {
                install(&obs2);
                let _a = txn_scope(1);
                {
                    let _b = txn_scope(2);
                    instant(Phase::NetSend, &[]);
                }
                instant(Phase::NetRecv, &[]);
            })
            .unwrap();
        let events = obs.events();
        assert_eq!(events[0].txn, 2);
        assert_eq!(events[1].txn, 1);
    }

    #[test]
    fn everything_is_a_noop_without_a_hub() {
        Sim::new()
            .run(|| {
                set_node(1);
                let _t = txn_scope(5);
                let _s = span(Phase::StoreGet);
                instant(Phase::NetRecv, &[]);
                counter_add(Counter::CrashFired, 1);
                hist_record(Hist::CounterExchangeNs, 1);
            })
            .unwrap();
    }

    #[test]
    fn noop_outside_fibers_too() {
        // Never panics even though no simulation is running.
        set_node(1);
        instant(Phase::NetRecv, &[]);
        counter_add(Counter::CrashFired, 1);
        let _s = span(Phase::StoreGet);
    }

    #[test]
    fn a_literal_is_looked_up_only_under_a_hub() {
        // The benchmark harness names its spans by literal.
        let (known, unknown) = ("bench.get", "bench.gte");
        let _outside = span(unknown);
        let obs = Obs::with_default_cap();
        let obs2 = Rc::clone(&obs);
        Sim::new()
            .run(move || {
                let _unhubbed = span(unknown);
                install(&obs2);
                let _s = span_with(known, &[("txn", 1)]);
            })
            .unwrap();
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].phase, Phase::BenchGet);
        assert_eq!(events[0].args, vec![("txn", 1)]);
    }

    #[test]
    fn metrics_flow_into_the_registry() {
        let obs = Obs::with_default_cap();
        let obs2 = Rc::clone(&obs);
        Sim::new()
            .run(move || {
                install(&obs2);
                counter_add(Counter::StoreLockAcquire, 2);
                counter_add(Counter::StoreLockAcquire, 1);
                hist_record(Hist::CounterExchangeNs, 500);
            })
            .unwrap();
        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters[&Counter::StoreLockAcquire], 3);
        assert_eq!(snap.hists[&Hist::CounterExchangeNs].count(), 1);
    }

    #[test]
    fn glue_flight_dump_writes_for_current_node() {
        let dir = std::env::temp_dir().join(format!("treaty-glue-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let obs = Obs::with_default_cap();
        obs.configure_flight(&dir, 8);
        let obs2 = Rc::clone(&obs);
        Sim::new()
            .run(move || {
                install(&obs2);
                set_node(2);
                instant(Phase::StoreFlush, &[]);
                flight_dump("slo.breach", "p99 over budget");
            })
            .unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let body = std::fs::read_to_string(entries[0].as_ref().unwrap().path()).unwrap();
        assert!(body.contains("\"reason\": \"slo.breach\""));
        assert!(body.contains("\"node\": 2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_unwind_still_balances_spans() {
        let obs = Obs::with_default_cap();
        let obs2 = Rc::clone(&obs);
        Sim::new()
            .run(move || {
                install(&obs2);
                // Daemon parks forever inside a span; when the root ends the
                // sim unwinds it and the guard must still record the exit.
                crate::runtime::spawn_daemon(|| {
                    let _s = span(Phase::StoreFlush);
                    crate::runtime::park();
                });
                sleep(10);
            })
            .unwrap();
        let events = obs.events();
        check_invariants(&events).unwrap();
    }
}
