//! The traced run's numbers, from the spans and counters the program
//! already emits plus the harness's own `bench.*` spans.

use std::collections::BTreeMap;

use treaty_obs::{attribute, build_forest_lossy, Obs, Span};
use treaty_sim::Nanos;

use crate::report::Traced;

/// Ring-buffer capacity of the traced run's hub. The hub is installed at
/// the start of the window; the largest workload records about 0.3 M
/// events there, and `obs.dropped_events` reports any overflow.
pub const EVENT_CAP: usize = 1 << 22;

fn sum_by_phase(span: &Span, sums: &mut BTreeMap<&'static str, Nanos>) {
    *sums.entry(span.phase).or_default() += span.duration();
    for child in &span.children {
        sum_by_phase(child, sums);
    }
}

/// Reads the hub after the window; it was installed when the window began,
/// so it holds nothing older.
pub fn extract(obs: &Obs) -> Traced {
    let events = obs.events();
    let dropped = obs.dropped();
    let forest = build_forest_lossy(&events, dropped);
    let mut sums = BTreeMap::new();
    for root in &forest.roots {
        sum_by_phase(root, &mut sums);
    }
    let phase = |name: &str| sums.get(name).copied().unwrap_or(0);
    let report = attribute(&events, dropped);
    let counter = |name: &str| obs.metrics().counter(name);
    Traced {
        events: events.len() as u64,
        dropped_events: dropped,
        world_switches: counter("tee.world_switch"),
        epc_faults: counter("tee.epc_fault"),
        lock_acquires: counter("store.lock_acquire"),
        lock_contended: counter("store.lock_contended"),
        rpc_handle_vt_ns: phase("rpc.handle"),
        store_get_vt_ns: phase("store.get"),
        store_scan_vt_ns: phase("store.scan"),
        lock_wait_vt_ns: phase("store.lock_wait"),
        prepare_vt_ns: phase("2pc.prepare"),
        participant_prepare_vt_ns: phase("2pc.participant.prepare"),
        decide_vt_ns: phase("2pc.decide"),
        clog_stabilize_vt_ns: phase("clog.stabilize"),
        attr_ns: report.by_category.to_vec(),
        attr_coverage_bp: report.coverage_bp(),
        attr_txns: report.txns.len() as u64,
        phase_breakdown: treaty_obs::phase_breakdown(&events),
    }
}
