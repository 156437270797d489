//! Exporters: Chrome `trace_event` JSON and a text phase-breakdown table.
//!
//! Both are byte-deterministic functions of the event list — no clocks, no
//! hash-map iteration, hand-rolled fixed-point formatting (no float
//! `Display`). The JSON loads directly in `chrome://tracing` and Perfetto:
//! `pid` is the Treaty node (fabric endpoint), `tid` the fiber, and
//! timestamps are the virtual clock expressed in microseconds.

use std::collections::BTreeMap;

use crate::tree::{build_forest_lossy, Span};
use crate::{EventKind, Nanos, TraceEvent};

/// Virtual nanoseconds as a Chrome-trace microsecond literal ("12.345").
fn micros(ns: Nanos) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes events to Chrome `trace_event` JSON (object format).
///
/// Events must be in `seq` order (as returned by `Obs::events`). The
/// output is deterministic: same events, same bytes.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_with_meta(events, 0)
}

/// [`chrome_trace_json`] with ring-buffer drop metadata: `dropped` (from
/// `Obs::dropped()`) lands in `otherData.droppedEvents` so a viewer knows
/// the trace is a suffix, not the whole run.
pub fn chrome_trace_json_with_meta(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str(&format!(
        "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"droppedEvents\":{dropped}}},\"traceEvents\":[\n"
    ));
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ph = match e.kind {
            EventKind::Enter => "B",
            EventKind::Exit => "E",
            EventKind::Instant => "i",
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"treaty\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            escape(e.phase),
            ph,
            micros(e.ts),
            e.node,
            e.fiber
        ));
        if e.kind == EventKind::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        let mut first = true;
        if e.txn != 0 {
            out.push_str(&format!("\"txn\":{}", e.txn));
            first = false;
        }
        for (k, v) in &e.args {
            if !first {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(k), v));
            first = false;
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[derive(Debug, Clone, Copy, Default)]
struct PhaseAgg {
    count: u64,
    total: u128,
    self_time: u128,
    max: Nanos,
}

fn aggregate(
    span: &Span,
    agg: &mut BTreeMap<&'static str, PhaseAgg>,
    per_node: &mut BTreeMap<&'static str, BTreeMap<u32, u128>>,
) {
    let child_total: u128 = span.children.iter().map(|c| c.duration() as u128).sum();
    let entry = agg.entry(span.phase).or_default();
    entry.count += 1;
    entry.total += span.duration() as u128;
    entry.self_time += (span.duration() as u128).saturating_sub(child_total);
    entry.max = entry.max.max(span.duration());
    *per_node
        .entry(span.phase)
        .or_default()
        .entry(span.node)
        .or_insert(0) += span.duration() as u128;
    for child in &span.children {
        aggregate(child, agg, per_node);
    }
}

/// Nanoseconds as a fixed-point microsecond column ("   123.456us").
fn us_col(ns: u128) -> String {
    format!("{}.{:03}us", ns / 1_000, ns % 1_000)
}

/// Renders the paper-style per-phase latency breakdown: for every phase,
/// how many spans ran, their total and *self* virtual time (total minus
/// child spans), mean and max. Sorted by total time descending (phase name
/// breaks ties) — deterministic. Followed by a per-node totals section
/// (one column per node, capped at [`MAX_NODE_COLUMNS`]) and an instants
/// section (crash points, snapshot rejections, …) with per-node counts,
/// so one text file covers the whole cluster.
///
/// Damaged traces degrade instead of erroring: the forest is rebuilt
/// lossily (orphan exits skipped, unclosed spans force-closed) and the
/// table carries a truncation note, so harnesses never lose the whole
/// report to one unbalanced fiber.
pub fn phase_breakdown(events: &[TraceEvent]) -> String {
    phase_breakdown_with_drops(events, 0)
}

/// Node columns shown in the per-node section before eliding.
pub const MAX_NODE_COLUMNS: usize = 6;

/// [`phase_breakdown`] with the sink's drop count (from `Obs::dropped()`)
/// folded into the truncation note.
pub fn phase_breakdown_with_drops(events: &[TraceEvent], dropped: u64) -> String {
    let lossy = build_forest_lossy(events, dropped);
    let mut agg: BTreeMap<&'static str, PhaseAgg> = BTreeMap::new();
    let mut per_node: BTreeMap<&'static str, BTreeMap<u32, u128>> = BTreeMap::new();
    for root in &lossy.roots {
        aggregate(root, &mut agg, &mut per_node);
    }
    let mut rows: Vec<(&'static str, PhaseAgg)> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(b.0)));

    let mut out = String::new();
    if lossy.truncated {
        out.push_str(&format!(
            "NOTE: trace truncated (dropped={} orphan_exits={} unclosed={} skipped={}); totals are lower bounds\n",
            dropped, lossy.orphan_exits, lossy.unclosed_spans, lossy.skipped_events
        ));
    }
    out.push_str(&format!(
        "{:<34} {:>8} {:>16} {:>16} {:>14} {:>14}\n",
        "phase", "count", "total", "self", "mean", "max"
    ));
    for (phase, a) in &rows {
        let mean = if a.count == 0 {
            0
        } else {
            a.total / a.count as u128
        };
        out.push_str(&format!(
            "{:<34} {:>8} {:>16} {:>16} {:>14} {:>14}\n",
            phase,
            a.count,
            us_col(a.total),
            us_col(a.self_time),
            us_col(mean),
            us_col(a.max as u128),
        ));
    }

    // Per-node totals: one column per node id, in node order.
    let mut nodes: Vec<u32> = Vec::new();
    for cols in per_node.values() {
        for &n in cols.keys() {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    nodes.sort_unstable();
    if !nodes.is_empty() {
        let elided = nodes.len().saturating_sub(MAX_NODE_COLUMNS);
        nodes.truncate(MAX_NODE_COLUMNS);
        out.push_str("\nper-node total:\n");
        out.push_str(&format!("{:<34}", "phase"));
        for n in &nodes {
            out.push_str(&format!(" {:>14}", format!("node{n}")));
        }
        if elided > 0 {
            out.push_str(&format!("  (+{elided} more)"));
        }
        out.push('\n');
        for (phase, _) in &rows {
            out.push_str(&format!("{phase:<34}"));
            let cols = &per_node[phase];
            for n in &nodes {
                match cols.get(n) {
                    Some(total) => out.push_str(&format!(" {:>14}", us_col(*total))),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
    }

    // Instants: point events (crash points, rejections) with per-node
    // counts, straight from the event list — instants never enter spans.
    let mut instants: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::Instant {
            *instants
                .entry(e.phase)
                .or_default()
                .entry(e.node)
                .or_insert(0) += 1;
        }
    }
    if !instants.is_empty() {
        out.push_str("\ninstants:\n");
        for (phase, by_node) in &instants {
            let total: u64 = by_node.values().sum();
            out.push_str(&format!("{phase:<34} {total:>8} "));
            for (n, c) in by_node {
                out.push_str(&format!(" node{n}={c}"));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(seq: u64, ts: Nanos, kind: EventKind, phase: &'static str) -> TraceEvent {
        TraceEvent {
            seq,
            ts,
            node: 1,
            fiber: 0,
            txn: 42,
            phase,
            kind,
            args: if kind == EventKind::Enter {
                vec![("peers", 2)]
            } else {
                Vec::new()
            },
        }
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            e(0, 1_000, EventKind::Enter, "2pc.commit"),
            e(1, 1_500, EventKind::Enter, "clog.log_start"),
            e(2, 2_500, EventKind::Exit, "clog.log_start"),
            e(3, 2_600, EventKind::Instant, "net.send"),
            e(4, 9_000, EventKind::Exit, "2pc.commit"),
        ]
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with(
            "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedEvents\":0},\"traceEvents\":["
        ));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"ts\":2.600"));
        assert!(json.contains("\"txn\":42"));
        assert!(json.contains("\"peers\":2"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn chrome_json_is_deterministic() {
        assert_eq!(chrome_trace_json(&sample()), chrome_trace_json(&sample()));
    }

    #[test]
    fn micros_formatting_is_fixed_point() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000), "1.000");
        assert_eq!(micros(12_345_678), "12345.678");
    }

    #[test]
    fn breakdown_attributes_self_time() {
        let table = phase_breakdown(&sample());
        // 2pc.commit: total 8000ns, self 8000-1000 = 7000ns.
        assert!(table.contains("2pc.commit"), "{table}");
        assert!(table.contains("8.000us"), "{table}");
        assert!(table.contains("7.000us"), "{table}");
        assert!(table.contains("clog.log_start"), "{table}");
        // Sorted by total: 2pc.commit first.
        let commit_at = table.find("2pc.commit").unwrap();
        let clog_at = table.find("clog.log_start").unwrap();
        assert!(commit_at < clog_at);
    }

    #[test]
    fn breakdown_survives_unbalanced_trace() {
        let events = vec![e(0, 10, EventKind::Enter, "a")];
        let table = phase_breakdown(&events);
        assert!(table.contains("NOTE: trace truncated"), "{table}");
        assert!(table.contains("unclosed=1"), "{table}");
        assert!(table.contains('a'), "repaired span still reported: {table}");
    }

    #[test]
    fn chrome_json_meta_embeds_drop_count() {
        let json = chrome_trace_json_with_meta(&sample(), 17);
        assert!(json.contains("\"otherData\":{\"droppedEvents\":17}"));
        assert_eq!(
            chrome_trace_json_with_meta(&sample(), 17),
            chrome_trace_json_with_meta(&sample(), 17)
        );
    }

    #[test]
    fn breakdown_has_per_node_and_instants_sections() {
        let mut events = sample();
        // A second node running the same phase, plus a crash instant.
        events.push(TraceEvent {
            seq: 5,
            ts: 10_000,
            node: 2,
            fiber: 9,
            txn: 0,
            phase: "2pc.commit",
            kind: EventKind::Enter,
            args: Vec::new(),
        });
        events.push(TraceEvent {
            seq: 6,
            ts: 12_000,
            node: 2,
            fiber: 9,
            txn: 0,
            phase: "2pc.commit",
            kind: EventKind::Exit,
            args: Vec::new(),
        });
        events.push(TraceEvent {
            seq: 7,
            ts: 12_500,
            node: 2,
            fiber: 9,
            txn: 0,
            phase: "crash.fired",
            kind: EventKind::Instant,
            args: Vec::new(),
        });
        let table = phase_breakdown(&events);
        assert!(table.contains("per-node total:"), "{table}");
        assert!(table.contains("node1"), "{table}");
        assert!(table.contains("node2"), "{table}");
        assert!(table.contains("instants:"), "{table}");
        assert!(table.contains("crash.fired"), "{table}");
        assert!(
            table.contains("net.send"),
            "instants include net.send: {table}"
        );
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
