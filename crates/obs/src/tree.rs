//! Span-tree reconstruction and trace invariants.
//!
//! Enter/exit events recorded by one fiber form a properly-nested bracket
//! sequence (spans are RAII guards), so per `(node, fiber)` a stack rebuilds
//! the tree. One builder, [`build_forest_lossy`], serves both uses: reports
//! take its best-effort forest from a trace that lost events to the ring
//! buffer, and [`check_invariants`], the test-suite workhorse, takes the
//! same forest only when the builder repaired nothing (every enter has a
//! matching exit, virtual timestamps are monotone per fiber) and children
//! nest inside parents.

use std::collections::BTreeMap;

use crate::{EventKind, Nanos, Phase, TraceEvent};

/// One reconstructed span. `start == end` for instants.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (`"layer.phase"`), `variant.name()`. Kept as a string
    /// beside the variant because the benchmark harness keys its per-phase
    /// sums on it.
    pub phase: &'static str,
    /// The catalogued phase.
    pub variant: Phase,
    /// Node the span executed on.
    pub node: u32,
    /// Fiber that recorded it.
    pub fiber: u64,
    /// Transaction in scope (0 = none).
    pub txn: u64,
    /// Virtual enter time.
    pub start: Nanos,
    /// Virtual exit time.
    pub end: Nanos,
    /// Numeric payload from the enter (or instant) event.
    pub args: Vec<(&'static str, u64)>,
    /// Properly nested children, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// The span an enter or instant event opens.
    fn of(e: &TraceEvent) -> Span {
        Span {
            phase: e.phase.name(),
            variant: e.phase,
            node: e.node,
            fiber: e.fiber,
            txn: e.txn,
            start: e.ts,
            end: e.ts,
            args: e.args.clone(),
            children: Vec::new(),
        }
    }

    /// Duration in virtual nanoseconds.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }

    /// This span plus all descendants, depth-first.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(Span::count).sum::<usize>()
    }
}

/// A span forest rebuilt best-effort from a trace that may have lost its
/// oldest events to the ring buffer ([`crate::Obs::dropped`]).
///
/// The builder degrades instead of failing: exits whose enters were
/// evicted are skipped and counted, spans still open at the end of the
/// trace are closed at the fiber's last-seen timestamp, and the whole
/// result carries an explicit `truncated` marker so downstream reports can
/// say so instead of failing.
#[derive(Debug, Clone)]
pub struct LossyForest {
    /// Partial per-txn span trees, best effort.
    pub roots: Vec<Span>,
    /// True when any repair was applied (or the caller reported drops).
    pub truncated: bool,
    /// Exit events without a matching open span (enter evicted).
    pub orphan_exits: u64,
    /// Spans force-closed at end of trace (exit evicted or never recorded).
    pub unclosed_spans: u64,
    /// Events skipped for non-monotone timestamps within a fiber.
    pub skipped_events: u64,
    /// The first repair applied, as [`check_invariants`] reports it; `None`
    /// when the trace needed none.
    pub first_repair: Option<String>,
}

/// Rebuilds the span forest tolerantly; never errors. `dropped` is the
/// ring-buffer drop count from [`crate::Obs::dropped`] — a nonzero value
/// marks the result truncated even when every retained event still pairs.
pub fn build_forest_lossy(events: &[TraceEvent], dropped: u64) -> LossyForest {
    // Per (node, fiber): the last-seen timestamp and the open-span stack.
    let mut fibers: BTreeMap<(u32, u64), (Nanos, Vec<Span>)> = BTreeMap::new();
    let mut roots: Vec<Span> = Vec::new();
    let mut orphan_exits = 0u64;
    let mut skipped_events = 0u64;
    let mut first_repair: Option<String> = None;

    for e in events {
        let (last_ts, stack) = fibers.entry((e.node, e.fiber)).or_default();
        if e.ts < *last_ts {
            skipped_events += 1;
            first_repair.get_or_insert_with(|| {
                format!(
                    "non-monotone timestamp on node {} fiber {}: {} after {} (phase {})",
                    e.node, e.fiber, e.ts, last_ts, e.phase
                )
            });
            continue;
        }
        *last_ts = e.ts;
        let closed = match e.kind {
            EventKind::Enter => {
                stack.push(Span::of(e));
                continue;
            }
            EventKind::Instant => Span::of(e),
            EventKind::Exit if stack.last().is_some_and(|s| s.variant == e.phase) => {
                let mut span = stack.pop().expect("matched above");
                span.end = e.ts;
                span
            }
            EventKind::Exit => {
                // The matching enter fell out of the ring buffer.
                orphan_exits += 1;
                first_repair.get_or_insert_with(|| match stack.last() {
                    None => format!(
                        "exit without enter on node {} fiber {}: phase {} at {}",
                        e.node, e.fiber, e.phase, e.ts
                    ),
                    Some(open) => format!(
                        "mismatched exit on node {} fiber {}: open span {} closed as {}",
                        e.node, e.fiber, open.phase, e.phase
                    ),
                });
                continue;
            }
        };
        match stack.last_mut() {
            Some(parent) => parent.children.push(closed),
            None => roots.push(closed),
        }
    }

    // Close anything still open at the fiber's last-seen timestamp so the
    // partial tree stays well-nested (children never escape parents).
    let mut unclosed_spans = 0u64;
    for ((node, fiber), (end, stack)) in fibers {
        let mut pending: Option<Span> = None;
        for mut span in stack.into_iter().rev() {
            unclosed_spans += 1;
            first_repair.get_or_insert_with(|| {
                format!("unclosed span on node {node} fiber {fiber}: {}", span.phase)
            });
            span.end = end;
            if let Some(child) = pending.take() {
                span.children.push(child);
            }
            pending = Some(span);
        }
        if let Some(span) = pending {
            roots.push(span);
        }
    }
    roots.sort_by_key(|s| (s.start, s.node, s.fiber));

    LossyForest {
        roots,
        truncated: dropped > 0 || first_repair.is_some(),
        orphan_exits,
        unclosed_spans,
        skipped_events,
        first_repair,
    }
}

fn check_nesting(span: &Span) -> Result<(), String> {
    for child in &span.children {
        if child.start < span.start || child.end > span.end {
            return Err(format!(
                "child {} [{}, {}] escapes parent {} [{}, {}]",
                child.phase, child.start, child.end, span.phase, span.start, span.end
            ));
        }
        check_nesting(child)?;
    }
    Ok(())
}

/// Checks every trace invariant: balanced enter/exit and per-fiber
/// timestamp monotonicity (the builder needed no repair) and
/// child-inside-parent intervals. Returns the forest on success so tests
/// can assert structure.
///
/// # Errors
///
/// The first violated invariant, as text.
pub fn check_invariants(events: &[TraceEvent]) -> Result<Vec<Span>, String> {
    let forest = build_forest_lossy(events, 0);
    if let Some(repair) = forest.first_repair {
        return Err(repair);
    }
    for root in &forest.roots {
        check_nesting(root)?;
    }
    Ok(forest.roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase::{
        ClogLogStart, CoordCommit, CoordDecide, CoordPrepare, NetRecv, NetSend, StoreCommit,
    };

    fn e(seq: u64, ts: Nanos, fiber: u64, kind: EventKind, phase: Phase) -> TraceEvent {
        TraceEvent {
            seq,
            ts,
            node: 1,
            fiber,
            txn: 9,
            phase,
            kind,
            args: Vec::new(),
        }
    }

    #[test]
    fn builds_nested_forest() {
        let events = vec![
            e(0, 10, 0, EventKind::Enter, CoordCommit),
            e(1, 12, 0, EventKind::Enter, CoordPrepare),
            e(2, 13, 0, EventKind::Instant, NetSend),
            e(3, 20, 0, EventKind::Exit, CoordPrepare),
            e(4, 30, 0, EventKind::Exit, CoordCommit),
        ];
        let forest = check_invariants(&events).unwrap();
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.phase, "2pc.commit");
        assert_eq!(root.variant, CoordCommit);
        assert_eq!(root.duration(), 20);
        assert_eq!(root.count(), 3);
        assert_eq!(root.children[0].children[0].variant, NetSend);
    }

    #[test]
    fn fibers_are_independent_stacks() {
        let events = vec![
            e(0, 10, 0, EventKind::Enter, CoordCommit),
            e(1, 11, 1, EventKind::Enter, StoreCommit),
            e(2, 12, 0, EventKind::Exit, CoordCommit),
            e(3, 13, 1, EventKind::Exit, StoreCommit),
        ];
        let forest = check_invariants(&events).unwrap();
        assert_eq!(forest.len(), 2);
    }

    #[test]
    fn detects_unbalanced_exit() {
        let events = vec![e(0, 10, 0, EventKind::Exit, CoordCommit)];
        assert!(check_invariants(&events)
            .unwrap_err()
            .contains("exit without enter"));
    }

    #[test]
    fn detects_mismatched_exit() {
        let events = vec![
            e(0, 10, 0, EventKind::Enter, CoordCommit),
            e(1, 12, 0, EventKind::Exit, CoordPrepare),
        ];
        let err = check_invariants(&events).unwrap_err();
        assert!(err.contains("mismatched exit"), "{err}");
        assert!(err.contains("open span 2pc.commit closed as 2pc.prepare"));
    }

    #[test]
    fn detects_unclosed_span() {
        let events = vec![e(0, 10, 0, EventKind::Enter, CoordCommit)];
        assert!(check_invariants(&events)
            .unwrap_err()
            .contains("unclosed span"));
    }

    #[test]
    fn lossy_skips_orphan_exits_and_marks_truncated() {
        // The enter for the first exit fell out of the ring buffer.
        let events = vec![
            e(0, 10, 0, EventKind::Exit, CoordPrepare),
            e(1, 11, 0, EventKind::Enter, CoordCommit),
            e(2, 12, 0, EventKind::Exit, CoordCommit),
        ];
        let lossy = build_forest_lossy(&events, 5);
        assert!(lossy.truncated);
        assert_eq!(lossy.orphan_exits, 1);
        assert_eq!(lossy.roots.len(), 1);
        assert_eq!(lossy.roots[0].variant, CoordCommit);
    }

    #[test]
    fn lossy_closes_unclosed_spans_at_last_seen_ts() {
        let events = vec![
            e(0, 10, 0, EventKind::Enter, CoordCommit),
            e(1, 12, 0, EventKind::Enter, ClogLogStart),
            e(2, 15, 0, EventKind::Instant, NetRecv),
        ];
        let lossy = build_forest_lossy(&events, 0);
        assert!(lossy.truncated);
        assert_eq!(lossy.unclosed_spans, 2);
        assert_eq!(lossy.roots.len(), 1);
        let outer = &lossy.roots[0];
        assert_eq!(outer.variant, CoordCommit);
        assert_eq!(outer.end, 15, "closed at the fiber's last timestamp");
        assert_eq!(outer.children.len(), 1);
        assert_eq!(outer.children[0].variant, ClogLogStart);
        assert_eq!(outer.children[0].children[0].variant, NetRecv);
        // The innermost open span is the one reported.
        let repair = lossy.first_repair.as_deref().unwrap();
        assert_eq!(repair, "unclosed span on node 1 fiber 0: clog.log_start");
    }

    #[test]
    fn a_clean_trace_needs_no_repair() {
        let events = vec![
            e(0, 10, 0, EventKind::Enter, CoordCommit),
            e(1, 12, 0, EventKind::Enter, CoordDecide),
            e(2, 20, 0, EventKind::Exit, CoordDecide),
            e(3, 30, 0, EventKind::Exit, CoordCommit),
        ];
        let lossy = build_forest_lossy(&events, 0);
        assert!(!lossy.truncated);
        assert_eq!(lossy.first_repair, None);
        assert_eq!(lossy.roots[0].count(), 2);
        assert_eq!(check_invariants(&events).unwrap()[0].count(), 2);
        // A reported drop count alone marks the result truncated.
        assert!(build_forest_lossy(&events, 1).truncated);
    }

    #[test]
    fn detects_non_monotone_timestamps() {
        let events = vec![
            e(0, 10, 0, EventKind::Instant, NetSend),
            e(1, 5, 0, EventKind::Instant, NetRecv),
        ];
        assert!(check_invariants(&events)
            .unwrap_err()
            .contains("non-monotone timestamp"));
    }
}
