//! Deterministic tracing and metrics for the Treaty reproduction.
//!
//! The paper's evaluation decomposes transaction latency into 2PC phases,
//! enclave transitions, shielding charges and network time (Figs. 4–8).
//! This crate provides the substrate for that attribution:
//!
//! * a [`TraceEvent`] span model — balanced enter/exit events keyed by
//!   `(txn, node, phase)` and stamped with the simulator's *virtual* clock,
//!   every phase a variant of the one [`Phase`] catalogue;
//! * a per-`Sim` [`Obs`] sink with a ring-buffer cap, cheap enough to be
//!   always-on;
//! * a [`MetricsRegistry`] of counters, gauges and virtual-time histograms
//!   behind one deterministic snapshot API, each metric a variant of the
//!   [`Counter`], [`Gauge`] or [`Hist`] catalogue, and the bucketed
//!   [`Histogram`] it keeps per histogram;
//! * exporters: Chrome `trace_event` JSON (loadable in `chrome://tracing` /
//!   Perfetto) and a text phase-breakdown table ([`export`]);
//! * one span-tree builder, whose repairs are the invariant checks ([`tree`]).
//!
//! # Determinism
//!
//! Nothing in this crate reads a clock, an RNG or the environment: every
//! timestamp is handed in by the caller (the simulator's virtual clock), and
//! every export iterates `BTreeMap`s, a catalogue's name order or the
//! recorded event order. Two runs with the same seed therefore serialize
//! to byte-identical artifacts — which the test suite asserts.
//!
//! # Secrecy
//!
//! Trace payloads are *structurally* numeric: an event carries a phase
//! variant and `(&'static str, u64)` arguments, and a metric is a variant
//! and a number, so plaintext values, user keys or key material cannot be
//! interpolated into a trace or a metric name (`tests/source_rules.rs`
//! rule L005 holds the same for format strings in trusted regions).
//!
//! This crate has **zero dependencies** (std only) so it can sit underneath
//! `treaty-sim` and keep compiling in registry-less environments.

pub mod attribution;
pub mod export;
pub mod flight;
pub mod histogram;
pub mod metrics;
pub mod phase;
pub mod tree;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

pub use attribution::{attribute, AttributionReport, Category, TxnAttribution};
pub use export::{chrome_trace_json, chrome_trace_json_with_meta, phase_breakdown};
pub use flight::FlightDump;
pub use histogram::Histogram;
pub use metrics::{Counter, Gauge, Hist, MetricsRegistry, MetricsSnapshot};
pub use phase::{Named, Phase};
pub use tree::{build_forest_lossy, check_invariants, LossyForest, Span};

/// Virtual nanoseconds — mirrors `treaty_sim::Nanos` without the dependency.
pub type Nanos = u64;

/// Default ring-buffer capacity: enough for a few thousand transactions'
/// worth of spans across every layer.
pub const DEFAULT_CAP: usize = 1 << 20;

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opens (Chrome `"B"`).
    Enter,
    /// The most recent open span on this fiber closes (Chrome `"E"`).
    Exit,
    /// A point event with no duration (Chrome `"i"`).
    Instant,
}

/// One trace record. Events are totally ordered by `seq` (assignment order
/// in the sink's borrow — deterministic because the simulator runs exactly
/// one fiber at a time).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Deterministic global sequence number.
    pub seq: u64,
    /// Virtual-clock timestamp.
    pub ts: Nanos,
    /// Node (fabric endpoint) the fiber was executing for; 0 if untagged.
    pub node: u32,
    /// Fiber id within the simulation.
    pub fiber: u64,
    /// Distributed transaction id; 0 if none is in scope.
    pub txn: u64,
    /// Enter, exit or instant.
    pub kind: EventKind,
    /// The catalogued phase; exports print its `name()`.
    pub phase: Phase,
    /// Numeric-only payload — secrets cannot ride along.
    pub args: Vec<(&'static str, u64)>,
}

/// Ring buffer of [`TraceEvent`]s with a hard cap; the oldest events are
/// dropped (and counted) when full.
#[derive(Debug)]
struct TraceSink {
    events: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

/// Per-`Sim` observability hub: a trace sink plus a metrics registry.
///
/// A simulation's fibers share one OS thread, and so does the hub: each
/// half is a `RefCell`, borrowed only for the length of one call.
#[derive(Debug)]
pub struct Obs {
    sink: RefCell<TraceSink>,
    metrics: MetricsRegistry,
    pub(crate) flight: RefCell<Option<flight::FlightState>>,
}

impl Obs {
    /// Creates a hub with the given ring-buffer capacity (events).
    pub fn new(cap: usize) -> Rc<Obs> {
        Rc::new(Obs {
            sink: RefCell::new(TraceSink {
                events: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
                next_seq: 0,
            }),
            metrics: MetricsRegistry::default(),
            flight: RefCell::new(None),
        })
    }

    /// Creates a hub with [`DEFAULT_CAP`].
    pub fn with_default_cap() -> Rc<Obs> {
        Self::new(DEFAULT_CAP)
    }

    /// Records one event. `args` is copied; keep it short.
    #[allow(clippy::too_many_arguments)] // one parameter per event field
    pub fn record(
        &self,
        kind: EventKind,
        ts: Nanos,
        node: u32,
        fiber: u64,
        txn: u64,
        phase: Phase,
        args: &[(&'static str, u64)],
    ) {
        let mut sink = self.sink.borrow_mut();
        let seq = sink.next_seq;
        sink.next_seq += 1;
        if sink.events.len() == sink.cap {
            sink.events.pop_front();
            sink.dropped += 1;
        }
        sink.events.push_back(TraceEvent {
            seq,
            ts,
            node,
            fiber,
            txn,
            phase,
            kind,
            args: args.to_vec(),
        });
    }

    /// Snapshot of all retained events, in `seq` order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let sink = self.sink.borrow();
        sink.events.iter().cloned().collect()
    }

    /// Events dropped because the ring buffer was full.
    pub fn dropped(&self) -> u64 {
        self.sink.borrow().dropped
    }

    /// Total events ever recorded (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.sink.borrow().next_seq
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(obs: &Obs, kind: EventKind, ts: Nanos) {
        obs.record(kind, ts, 1, 0, 7, Phase::NetRecv, &[]);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let obs = Obs::new(3);
        for i in 0..5 {
            ev(&obs, EventKind::Instant, i);
        }
        let events = obs.events();
        assert_eq!(events.len(), 3);
        assert_eq!(obs.dropped(), 2);
        assert_eq!(obs.recorded(), 5);
        assert_eq!(events[0].seq, 2, "oldest events were evicted");
        assert_eq!(events[2].ts, 4);
    }

    #[test]
    fn events_keep_seq_order_and_payload() {
        let obs = Obs::new(16);
        obs.record(
            EventKind::Enter,
            10,
            2,
            3,
            99,
            Phase::CoordPrepare,
            &[("peers", 2)],
        );
        obs.record(EventKind::Exit, 25, 2, 3, 99, Phase::CoordPrepare, &[]);
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Enter);
        assert_eq!(events[0].args, vec![("peers", 2)]);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].ts, 25);
    }

    #[test]
    fn zero_cap_is_clamped() {
        let obs = Obs::new(0);
        ev(&obs, EventKind::Instant, 1);
        assert_eq!(obs.events().len(), 1);
    }
}
