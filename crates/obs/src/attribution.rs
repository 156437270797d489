//! Critical-path extraction and tail-latency attribution.
//!
//! The paper's evaluation answers "how fast is a secure transaction"; this
//! module answers *why is a slow one slow*. For every committed
//! transaction it walks the cross-node span forest — client → coordinator
//! 2PC phases → participants → Clog → store, with RPC handler spans
//! bridging nodes — extracts the critical path, and attributes every
//! virtual nanosecond of the client-observed latency to one of a small
//! closed [`Category`] set. Attributions aggregate per latency bucket
//! (≤p50, p50–p90, p90–p99, ≥p99) into a "why is p99 slow" report with
//! top-N slow-transaction exemplars, exported as text and deterministic
//! JSON.
//!
//! # The walk
//!
//! A transaction's anchor is its client-side root spans (`client.op`,
//! `client.commit`), found via the `client.committed` instant that also
//! carries the measured end-to-end latency. Time inside a span is carved
//! by its same-fiber children (recursing into each); the remaining *self*
//! time is refined by projecting the transaction's *service-root* spans —
//! spans recorded on another `(node, fiber)`, i.e. the RPC handler doing
//! this transaction's work on a remote node. A covered sub-interval
//! recurses into that handler (when concurrent handlers overlap, the one
//! ending last is the critical branch — the fan-in waits for it); the
//! uncovered remainder of a *waiting* span is the wire: network flight,
//! minus any `queue_ns`/`open_ns` the handler reported, which become
//! queueing and TEE-boundary time respectively. Self time of a
//! non-waiting span keeps the span's own category. Every nanosecond of
//! the window is attributed exactly once, so per-transaction coverage of
//! the measured latency is structural, not sampled.
//!
//! Determinism: the walk and every export iterate the event order and
//! `BTreeMap`s; ties break on fixed category order and span ids. Same
//! events, same bytes — asserted by test.

use std::collections::BTreeMap;

use crate::tree::{build_forest_lossy, Span};
use crate::{Nanos, Phase, TraceEvent};

/// Number of attribution categories.
pub const CATEGORY_COUNT: usize = 8;

/// The closed category set every critical-path nanosecond maps to. A
/// phase's category is its column in the [`Phase`] catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Blocked in the 2PC lock table (`store.lock_wait`).
    LockWait,
    /// Log durability: Clog writes and the counter stabilization of the
    /// Clog and of the participants' WALs (`clog.*`, `wal.*`, and the
    /// coordinator's join on its Start record, `2pc.start_stable`).
    ClogDurability,
    /// Wire time: NIC serialization spans plus uncovered remote-wait gaps.
    Network,
    /// Store read path (point gets, snapshot reads/validation).
    StoreRead,
    /// Store write path (commit apply, flush, compaction on-path).
    StoreWrite,
    /// TEE boundary: shielded RPC open/seal and handler crypto overhead.
    Tee,
    /// Queueing: RPC worker backlog.
    Queueing,
    /// Everything else (coordinator CPU, client-side think time).
    Other,
}

impl Category {
    /// All categories, in the fixed report order.
    pub const ALL: [Category; CATEGORY_COUNT] = [
        Category::LockWait,
        Category::ClogDurability,
        Category::Network,
        Category::StoreRead,
        Category::StoreWrite,
        Category::Tee,
        Category::Queueing,
        Category::Other,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Category::LockWait => "lock-wait",
            Category::ClogDurability => "clog-durability",
            Category::Network => "network",
            Category::StoreRead => "store-read",
            Category::StoreWrite => "store-write",
            Category::Tee => "tee",
            Category::Queueing => "queueing",
            Category::Other => "other",
        }
    }

    /// Index into a `[u64; CATEGORY_COUNT]` accumulator.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The category holding the most of `by_category` (fixed-order ties,
    /// `Other` when all are zero).
    pub fn dominant(by_category: &[u64; CATEGORY_COUNT]) -> Category {
        let mut best = (Category::Other, 0);
        for c in Category::ALL {
            if by_category[c.index()] > best.1 {
                best = (c, by_category[c.index()]);
            }
        }
        best.0
    }
}

/// The client-side spans a transaction's attribution window is the union
/// of.
fn is_client_anchor(phase: Phase) -> bool {
    matches!(
        phase,
        Phase::ClientOp
            | Phase::ClientCommit
            | Phase::ClientSnapshotRead
            | Phase::ClientSnapshotValidate
    )
}

/// Flattened span arena node.
struct Flat {
    phase: Phase,
    node: u32,
    fiber: u64,
    start: Nanos,
    end: Nanos,
    /// Reported time the request sat in the RPC worker queue before this
    /// handler span opened (`queue_ns` arg on `rpc.handle`).
    queue_ns: u64,
    /// Reported boundary-crypto time immediately before this handler span
    /// opened (`open_ns` arg on `rpc.handle`).
    open_ns: u64,
    children: Vec<usize>,
}

/// `part / whole` in basis points; `None` when `whole` is zero.
fn bp(part: u64, whole: u64) -> Option<u64> {
    (whole != 0).then(|| (part as u128 * 10_000 / whole as u128) as u64)
}

fn arg(args: &[(&'static str, u64)], key: &str) -> u64 {
    args.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v)
}

fn flatten(
    span: &Span,
    parent_txn: u64,
    arena: &mut Vec<Flat>,
    roots_by_txn: &mut BTreeMap<u64, Vec<usize>>,
) {
    let idx = arena.len();
    arena.push(Flat {
        phase: span.variant,
        node: span.node,
        fiber: span.fiber,
        start: span.start,
        end: span.end,
        queue_ns: arg(&span.args, "queue_ns"),
        open_ns: arg(&span.args, "open_ns"),
        children: Vec::new(),
    });
    if span.txn != 0 && span.txn != parent_txn && span.end > span.start {
        // A span entering a transaction's scope fresh on this fiber: the
        // unit of remote work the critical path can jump into.
        roots_by_txn.entry(span.txn).or_default().push(idx);
    }
    for child in &span.children {
        let c = arena.len();
        flatten(child, span.txn, arena, roots_by_txn);
        arena[idx].children.push(c);
    }
}

/// Per-transaction accumulator: category totals plus per-(category, phase)
/// segments for exemplars.
#[derive(Default)]
struct Acc {
    by_category: [u64; CATEGORY_COUNT],
    segments: BTreeMap<(usize, &'static str), u64>,
}

impl Acc {
    fn add(&mut self, cat: Category, phase: &'static str, ns: u64) {
        if ns == 0 {
            return;
        }
        self.by_category[cat.index()] += ns;
        *self.segments.entry((cat.index(), phase)).or_insert(0) += ns;
    }
}

struct Walker<'a> {
    arena: &'a [Flat],
    /// Service roots of the transaction under attribution, by arena index.
    roots: &'a [usize],
}

impl Walker<'_> {
    fn walk(&self, idx: usize, lo: Nanos, hi: Nanos, path: &mut Vec<usize>, acc: &mut Acc) {
        let s = &self.arena[idx];
        let lo = lo.max(s.start);
        let hi = hi.min(s.end);
        if lo >= hi {
            return;
        }
        path.push(idx);
        // Does this span overlap remote work for the transaction at all?
        // If not, its uncovered time is local work even for waiting spans.
        let waiting = s.phase.is_waiting()
            && self.roots.iter().any(|&r| {
                let f = &self.arena[r];
                (f.node, f.fiber) != (s.node, s.fiber)
                    && f.start < s.end
                    && f.end > s.start
                    && !path.contains(&r)
            });
        let mut cursor = lo;
        for &c in &s.children {
            let cf = &self.arena[c];
            if cf.end <= cursor || cf.start >= hi {
                continue;
            }
            let cs = cf.start.max(cursor);
            let ce = cf.end.min(hi);
            self.gap(idx, waiting, cursor, cs, path, acc);
            self.walk(c, cs, ce, path, acc);
            cursor = ce.max(cursor);
        }
        self.gap(idx, waiting, cursor, hi, path, acc);
        path.pop();
    }

    /// Attributes one self-time interval `[a, b)` of span `idx`.
    fn gap(
        &self,
        idx: usize,
        waiting: bool,
        a: Nanos,
        b: Nanos,
        path: &mut Vec<usize>,
        acc: &mut Acc,
    ) {
        if a >= b {
            return;
        }
        let s = &self.arena[idx];
        // The critical remote branch: among the transaction's service
        // roots overlapping this interval on another fiber, the one that
        // ends last — a fan-in waits for its slowest member.
        let best = self
            .roots
            .iter()
            .copied()
            .filter(|&r| {
                let f = &self.arena[r];
                (f.node, f.fiber) != (s.node, s.fiber)
                    && !path.contains(&r)
                    && f.start < b
                    && f.end > a
            })
            .max_by_key(|&r| (self.arena[r].end, self.arena[r].start, r));
        let Some(r) = best else {
            if waiting {
                acc.add(Category::Network, "(remote wait)", b - a);
            } else {
                acc.add(s.phase.category(), s.phase.name(), b - a);
            }
            return;
        };
        let f = &self.arena[r];
        let seg_lo = f.start.max(a);
        let seg_hi = f.end.min(b);
        if seg_hi < b {
            // After the critical remote finished: the reply in flight.
            acc.add(Category::Network, "(remote wait)", b - seg_hi);
        }
        self.walk(r, seg_lo, seg_hi, path, acc);
        if seg_lo > a {
            // Immediately before the handler opened: reported worker-queue
            // wait, then boundary crypto, then (recursively) whatever else
            // precedes — possibly an earlier-finishing remote branch.
            let mut rest = seg_lo - a;
            let q = f.queue_ns.min(rest);
            rest -= q;
            acc.add(Category::Queueing, "(rpc queue)", q);
            let o = f.open_ns.min(rest);
            rest -= o;
            acc.add(Category::Tee, "(rpc open)", o);
            if rest > 0 {
                self.gap(idx, waiting, a, a + rest, path, acc);
            }
        }
    }
}

/// One committed transaction's attribution.
#[derive(Debug, Clone)]
pub struct TxnAttribution {
    /// Distributed transaction id.
    pub txn: u64,
    /// Client-measured end-to-end latency (begin → commit ack).
    pub measured_ns: u64,
    /// Total attributed critical-path time (the client span window).
    pub attributed_ns: u64,
    /// `[window start, window end)` on the virtual clock.
    pub window: (Nanos, Nanos),
    /// Per-category nanoseconds, indexed by [`Category::index`].
    pub by_category: [u64; CATEGORY_COUNT],
    /// Largest attributed segments, `(category, phase, ns)`, descending.
    pub top_segments: Vec<(Category, &'static str, u64)>,
}

impl TxnAttribution {
    /// Attributed share of the measured latency, in basis points.
    pub fn coverage_bp(&self) -> u64 {
        bp(self.attributed_ns, self.measured_ns).unwrap_or(10_000)
    }
}

/// Aggregate over one latency bucket.
#[derive(Debug, Clone)]
pub struct BucketAgg {
    /// Bucket name: `"le_p50"`, `"p50_p90"`, `"p90_p99"`, `"ge_p99"`.
    pub name: &'static str,
    /// Transactions in the bucket.
    pub txns: u64,
    /// Summed measured latency.
    pub measured_ns: u64,
    /// Summed attributed time.
    pub attributed_ns: u64,
    /// Per-category sums.
    pub by_category: [u64; CATEGORY_COUNT],
}

/// The full attribution report for one traced run.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Per-transaction attributions, ascending by transaction id.
    pub txns: Vec<TxnAttribution>,
    /// Ring-buffer drops reported by the sink.
    pub dropped_events: u64,
    /// True when the forest was repaired (drops, orphan exits, unclosed).
    pub truncated: bool,
    /// Whole-run per-category sums.
    pub by_category: [u64; CATEGORY_COUNT],
    /// Latency buckets: ≤p50, p50–p90, p90–p99, ≥p99 (slowest txn always
    /// lands in ≥p99, so the tail bucket is never empty).
    pub buckets: Vec<BucketAgg>,
    /// Slowest transactions, descending by measured latency.
    pub exemplars: Vec<TxnAttribution>,
}

/// How many slow-transaction exemplars the report keeps.
pub const EXEMPLARS: usize = 3;

/// How many top segments each exemplar keeps.
pub const TOP_SEGMENTS: usize = 5;

/// Walks every committed transaction (identified by its
/// `client.committed` instant, which carries the measured `elapsed_ns`)
/// and attributes its critical path. Never errors: under ring-buffer
/// pressure the forest degrades to partial trees and the report is marked
/// `truncated`.
pub fn attribute(events: &[TraceEvent], dropped: u64) -> AttributionReport {
    let lossy = build_forest_lossy(events, dropped);
    let mut arena: Vec<Flat> = Vec::new();
    let mut roots_by_txn: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for root in &lossy.roots {
        flatten(root, 0, &mut arena, &mut roots_by_txn);
    }

    // Committed transactions: client.committed instants carry the
    // client-measured latency and identify the client (node, fiber).
    let mut committed: BTreeMap<u64, (u64, (u32, u64))> = BTreeMap::new();
    for e in events {
        if e.phase == Phase::ClientCommitted && e.txn != 0 {
            let elapsed = arg(&e.args, "elapsed_ns");
            committed.insert(e.txn, (elapsed, (e.node, e.fiber)));
        }
    }

    let mut txns: Vec<TxnAttribution> = Vec::new();
    for (&txn, &(measured_ns, client_nf)) in &committed {
        let Some(roots) = roots_by_txn.get(&txn) else {
            continue;
        };
        // The client-side anchor spans, in start order.
        let mut client_roots: Vec<usize> = roots
            .iter()
            .copied()
            .filter(|&i| {
                let f = &arena[i];
                (f.node, f.fiber) == client_nf && is_client_anchor(f.phase)
            })
            .collect();
        if client_roots.is_empty() {
            continue;
        }
        client_roots.sort_by_key(|&i| (arena[i].start, i));
        let w_lo = arena[client_roots[0]].start;
        let w_hi = client_roots
            .iter()
            .map(|&i| arena[i].end)
            .max()
            .unwrap_or(w_lo);

        let walker = Walker {
            arena: &arena,
            roots,
        };
        let mut acc = Acc::default();
        let mut path = Vec::new();
        let mut cursor = w_lo;
        for &i in &client_roots {
            let f = &arena[i];
            if f.start > cursor {
                // Between client calls: client-side think/loop time.
                acc.add(Category::Other, "(client idle)", f.start - cursor);
            }
            walker.walk(i, f.start, f.end, &mut path, &mut acc);
            cursor = cursor.max(f.end);
        }

        let mut segments: Vec<(Category, &'static str, u64)> = acc
            .segments
            .iter()
            .map(|(&(ci, phase), &ns)| (Category::ALL[ci], phase, ns))
            .collect();
        segments.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(b.1)));
        segments.truncate(TOP_SEGMENTS);

        txns.push(TxnAttribution {
            txn,
            measured_ns,
            attributed_ns: acc.by_category.iter().sum(),
            window: (w_lo, w_hi),
            by_category: acc.by_category,
            top_segments: segments,
        });
    }

    // Whole-run totals.
    let mut by_category = [0u64; CATEGORY_COUNT];
    for t in &txns {
        for (total, v) in by_category.iter_mut().zip(t.by_category) {
            *total += v;
        }
    }

    // Latency buckets by rank: the slowest transaction always lands in
    // ≥p99 so the tail report is never empty.
    let mut by_latency: Vec<usize> = (0..txns.len()).collect();
    by_latency.sort_by_key(|&i| (txns[i].measured_ns, txns[i].txn));
    let n = by_latency.len();
    let bound = |pct: usize| -> usize { (n * pct).div_ceil(100) };
    let b99 = bound(99).min(n.saturating_sub(1));
    let b90 = bound(90).min(b99);
    let b50 = bound(50).min(b90);
    let names = ["le_p50", "p50_p90", "p90_p99", "ge_p99"];
    let ranges = [(0, b50), (b50, b90), (b90, b99), (b99, n)];
    let mut buckets = Vec::with_capacity(4);
    for (name, (lo, hi)) in names.iter().zip(ranges) {
        let mut agg = BucketAgg {
            name,
            txns: (hi - lo) as u64,
            measured_ns: 0,
            attributed_ns: 0,
            by_category: [0; CATEGORY_COUNT],
        };
        for t in by_latency[lo..hi].iter().map(|&i| &txns[i]) {
            agg.measured_ns += t.measured_ns;
            agg.attributed_ns += t.attributed_ns;
            for (total, v) in agg.by_category.iter_mut().zip(t.by_category) {
                *total += v;
            }
        }
        buckets.push(agg);
    }

    let mut exemplars: Vec<TxnAttribution> = by_latency
        .iter()
        .rev()
        .take(EXEMPLARS)
        .map(|&i| txns[i].clone())
        .collect();
    exemplars.sort_by(|a, b| b.measured_ns.cmp(&a.measured_ns).then(a.txn.cmp(&b.txn)));

    AttributionReport {
        txns,
        dropped_events: dropped,
        truncated: lossy.truncated,
        by_category,
        buckets,
        exemplars,
    }
}

impl AttributionReport {
    /// Summed measured latency over all committed transactions.
    pub fn measured_total(&self) -> u64 {
        self.txns.iter().map(|t| t.measured_ns).sum()
    }

    /// Summed attributed time over all committed transactions.
    pub fn attributed_total(&self) -> u64 {
        self.txns.iter().map(|t| t.attributed_ns).sum()
    }

    /// Run-wide coverage in basis points.
    pub fn coverage_bp(&self) -> u64 {
        bp(self.attributed_total(), self.measured_total()).unwrap_or(10_000)
    }

    /// The worst per-transaction coverage in basis points (10000 if no
    /// transactions committed) — the SLO gate: attribution must explain
    /// ≥95% of *every* committed transaction's measured latency.
    pub fn min_coverage_bp(&self) -> u64 {
        self.txns
            .iter()
            .map(TxnAttribution::coverage_bp)
            .min()
            .unwrap_or(10_000)
    }

    /// Dominant category of the tail (≥p99) bucket; `None` with no txns.
    pub fn p99_dominant(&self) -> Option<Category> {
        self.buckets
            .iter()
            .find(|b| b.name == "ge_p99" && b.txns > 0)
            .map(|b| Category::dominant(&b.by_category))
    }

    /// Deterministic JSON export (integers only — shares are basis points).
    pub fn to_json(&self) -> String {
        fn cats(out: &mut String, by: &[u64; CATEGORY_COUNT], total: u64) {
            out.push('[');
            for (i, c) in Category::ALL.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let ns = by[c.index()];
                out.push_str(&format!(
                    "{{\"category\":\"{}\",\"ns\":{},\"share_bp\":{}}}",
                    c.name(),
                    ns,
                    bp(ns, total).unwrap_or(0)
                ));
            }
            out.push(']');
        }
        let mut out = String::new();
        out.push_str("{\"report\":\"attribution\",");
        out.push_str(&format!(
            "\"txns\":{},\"dropped_events\":{},\"truncated\":{},",
            self.txns.len(),
            self.dropped_events,
            self.truncated
        ));
        out.push_str(&format!(
            "\"totals\":{{\"measured_ns\":{},\"attributed_ns\":{},\"coverage_bp\":{},\"min_txn_coverage_bp\":{}}},",
            self.measured_total(),
            self.attributed_total(),
            self.coverage_bp(),
            self.min_coverage_bp()
        ));
        out.push_str("\"categories\":");
        cats(&mut out, &self.by_category, self.attributed_total());
        out.push_str(",\"buckets\":[");
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"bucket\":\"{}\",\"txns\":{},\"measured_ns\":{},\"attributed_ns\":{},\"dominant\":\"{}\",\"categories\":",
                b.name,
                b.txns,
                b.measured_ns,
                b.attributed_ns,
                if b.txns == 0 { "none" } else { Category::dominant(&b.by_category).name() }
            ));
            cats(&mut out, &b.by_category, b.attributed_ns);
            out.push('}');
        }
        out.push_str("],\"exemplars\":[");
        for (i, t) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"txn\":{},\"measured_ns\":{},\"attributed_ns\":{},\"dominant\":\"{}\",\"categories\":",
                t.txn,
                t.measured_ns,
                t.attributed_ns,
                Category::dominant(&t.by_category).name()
            ));
            cats(&mut out, &t.by_category, t.attributed_ns);
            out.push_str(",\"top_segments\":[");
            for (j, (c, phase, ns)) in t.top_segments.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"phase\":\"{}\",\"category\":\"{}\",\"ns\":{}}}",
                    phase,
                    c.name(),
                    ns
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// Fixed-width text report (byte-deterministic).
    pub fn render(&self) -> String {
        fn us(ns: u64) -> String {
            format!("{}.{:03}us", ns / 1_000, ns % 1_000)
        }
        let mut out = String::new();
        out.push_str(&format!(
            "critical-path attribution: {} committed txns, coverage {}.{:02}% (min txn {}.{:02}%)\n",
            self.txns.len(),
            self.coverage_bp() / 100,
            self.coverage_bp() % 100,
            self.min_coverage_bp() / 100,
            self.min_coverage_bp() % 100,
        ));
        if self.truncated {
            out.push_str(&format!(
                "  TRUNCATED: {} events dropped by the ring buffer; partial trees\n",
                self.dropped_events
            ));
        }
        out.push_str(&format!(
            "{:<18} {:>8} {:>16} {:>16}  dominant\n",
            "bucket", "txns", "measured", "attributed"
        ));
        for b in &self.buckets {
            out.push_str(&format!(
                "{:<18} {:>8} {:>16} {:>16}  {}\n",
                b.name,
                b.txns,
                us(b.measured_ns),
                us(b.attributed_ns),
                if b.txns == 0 {
                    "none"
                } else {
                    Category::dominant(&b.by_category).name()
                }
            ));
        }
        out.push_str("\nper-category critical-path time:\n");
        let total = self.attributed_total();
        for c in Category::ALL {
            let ns = self.by_category[c.index()];
            let bp = bp(ns, total).unwrap_or(0);
            out.push_str(&format!(
                "  {:<18} {:>16} {:>3}.{:02}%\n",
                c.name(),
                us(ns),
                bp / 100,
                bp % 100
            ));
        }
        out.push_str("\nslowest transactions:\n");
        for t in &self.exemplars {
            out.push_str(&format!(
                "  txn {:<12} measured {:>14} dominant {}\n",
                t.txn,
                us(t.measured_ns),
                Category::dominant(&t.by_category).name()
            ));
            for (c, phase, ns) in &t.top_segments {
                out.push_str(&format!(
                    "    {:<28} {:<16} {:>14}\n",
                    phase,
                    c.name(),
                    us(*ns)
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, TraceEvent};

    struct Tracer {
        events: Vec<TraceEvent>,
        seq: u64,
    }

    impl Tracer {
        fn new() -> Self {
            Tracer {
                events: Vec::new(),
                seq: 0,
            }
        }

        #[allow(clippy::too_many_arguments)] // one parameter per event field
        fn ev(
            &mut self,
            ts: Nanos,
            node: u32,
            fiber: u64,
            txn: u64,
            kind: EventKind,
            phase: Phase,
            args: &[(&'static str, u64)],
        ) {
            let seq = self.seq;
            self.seq += 1;
            self.events.push(TraceEvent {
                seq,
                ts,
                node,
                fiber,
                txn,
                kind,
                phase,
                args: args.to_vec(),
            });
        }
    }

    /// One committed txn: client [0, 100) commit span, coordinator handler
    /// [20, 80) with a clog child [30, 50) and a lock-wait child [50, 70).
    /// Expected: clog 20, lock-wait 20, coordinator self (Other) 20
    /// ([20,30)+[70,80)), network 40 ([0,20) request + [80,100) reply).
    fn single_coordinator_trace() -> Vec<TraceEvent> {
        let mut t = Tracer::new();
        let txn = 7;
        t.ev(0, 9, 1, txn, EventKind::Enter, Phase::ClientCommit, &[]);
        // Coordinator node 1, worker fiber 2.
        t.ev(20, 1, 2, txn, EventKind::Enter, Phase::CoordCommit, &[]);
        t.ev(30, 1, 2, txn, EventKind::Enter, Phase::ClogLogDecision, &[]);
        t.ev(50, 1, 2, txn, EventKind::Exit, Phase::ClogLogDecision, &[]);
        t.ev(50, 1, 2, txn, EventKind::Enter, Phase::StoreLockWait, &[]);
        t.ev(70, 1, 2, txn, EventKind::Exit, Phase::StoreLockWait, &[]);
        t.ev(80, 1, 2, txn, EventKind::Exit, Phase::CoordCommit, &[]);
        t.ev(
            100,
            9,
            1,
            txn,
            EventKind::Instant,
            Phase::ClientCommitted,
            &[("elapsed_ns", 100)],
        );
        t.ev(100, 9, 1, txn, EventKind::Exit, Phase::ClientCommit, &[]);
        t.events
    }

    #[test]
    fn attributes_known_critical_path_exactly() {
        let report = attribute(&single_coordinator_trace(), 0);
        assert_eq!(report.txns.len(), 1);
        let t = &report.txns[0];
        assert_eq!(t.measured_ns, 100);
        assert_eq!(t.attributed_ns, 100, "every nanosecond attributed");
        assert_eq!(t.by_category[Category::ClogDurability.index()], 20);
        assert_eq!(t.by_category[Category::LockWait.index()], 20);
        assert_eq!(t.by_category[Category::Other.index()], 20);
        assert_eq!(t.by_category[Category::Network.index()], 40);
        assert_eq!(Category::dominant(&t.by_category), Category::Network);
        assert_eq!(t.coverage_bp(), 10_000);
    }

    /// Parallel prepare fan-out: the coordinator's 2pc.prepare [10, 100)
    /// overlaps participant handlers on node 2 [20, 40) and node 3
    /// [30, 90). The branch ending last (node 3) is critical; its store
    /// work [40, 80) counts, the rest of the overlap is participant self
    /// time (Other), and uncovered prepare time is network.
    #[test]
    fn concurrent_branches_pick_latest_end() {
        let mut tr = Tracer::new();
        let txn = 5;
        tr.ev(0, 9, 1, txn, EventKind::Enter, Phase::ClientCommit, &[]);
        tr.ev(10, 1, 2, txn, EventKind::Enter, Phase::CoordPrepare, &[]);
        tr.ev(20, 2, 3, txn, EventKind::Enter, Phase::PartPrepare, &[]);
        tr.ev(30, 3, 4, txn, EventKind::Enter, Phase::PartPrepare, &[]);
        tr.ev(40, 2, 3, txn, EventKind::Exit, Phase::PartPrepare, &[]);
        tr.ev(40, 3, 4, txn, EventKind::Enter, Phase::StoreCommit, &[]);
        tr.ev(80, 3, 4, txn, EventKind::Exit, Phase::StoreCommit, &[]);
        tr.ev(90, 3, 4, txn, EventKind::Exit, Phase::PartPrepare, &[]);
        tr.ev(100, 1, 2, txn, EventKind::Exit, Phase::CoordPrepare, &[]);
        tr.ev(
            110,
            9,
            1,
            txn,
            EventKind::Instant,
            Phase::ClientCommitted,
            &[("elapsed_ns", 110)],
        );
        tr.ev(110, 9, 1, txn, EventKind::Exit, Phase::ClientCommit, &[]);
        let report = attribute(&tr.events, 0);
        assert_eq!(report.txns.len(), 1);
        let t = &report.txns[0];
        assert_eq!(t.attributed_ns, 110);
        // Critical chain: node-3 participant [30, 90): store.commit 40ns
        // (StoreWrite), participant self [30,40)+[80,90) = 20ns (Other).
        // Left of it, node-2 participant [20, 30): 10ns Other.
        // Uncovered inside 2pc.prepare: [10,20)+[90,100) = 20ns Network.
        // Client gaps [0,10)+[100,110) = 20ns Network.
        assert_eq!(t.by_category[Category::StoreWrite.index()], 40);
        assert_eq!(t.by_category[Category::Other.index()], 30);
        assert_eq!(t.by_category[Category::Network.index()], 40);
        assert_eq!(t.by_category[Category::LockWait.index()], 0);
    }

    /// The participant's WAL stabilization inside `2pc.participant.prepare`
    /// is durability time, not participant self time: with the wait wrapped
    /// in `wal.stabilize` [40, 80) only the handler's own [30,40)+[80,90)
    /// stays in `other`.
    #[test]
    fn participant_wal_stabilize_is_durability_not_other() {
        assert_eq!(Phase::WalStabilize.category(), Category::ClogDurability);
        assert_eq!(Phase::ClogStabilize.category(), Category::ClogDurability);
        // Both store read entry points are reads; the rest of `store.` is
        // the write path.
        assert_eq!(Phase::StoreGet.category(), Category::StoreRead);
        assert_eq!(Phase::StoreScan.category(), Category::StoreRead);
        assert_eq!(Phase::StoreCommit.category(), Category::StoreWrite);
        let mut tr = Tracer::new();
        let txn = 6;
        tr.ev(0, 9, 1, txn, EventKind::Enter, Phase::ClientCommit, &[]);
        tr.ev(10, 1, 2, txn, EventKind::Enter, Phase::CoordPrepare, &[]);
        tr.ev(30, 3, 4, txn, EventKind::Enter, Phase::PartPrepare, &[]);
        tr.ev(40, 3, 4, txn, EventKind::Enter, Phase::WalStabilize, &[]);
        tr.ev(80, 3, 4, txn, EventKind::Exit, Phase::WalStabilize, &[]);
        tr.ev(90, 3, 4, txn, EventKind::Exit, Phase::PartPrepare, &[]);
        tr.ev(100, 1, 2, txn, EventKind::Exit, Phase::CoordPrepare, &[]);
        tr.ev(
            110,
            9,
            1,
            txn,
            EventKind::Instant,
            Phase::ClientCommitted,
            &[("elapsed_ns", 110)],
        );
        tr.ev(110, 9, 1, txn, EventKind::Exit, Phase::ClientCommit, &[]);
        let report = attribute(&tr.events, 0);
        let t = &report.txns[0];
        assert_eq!(t.attributed_ns, 110);
        assert_eq!(t.by_category[Category::ClogDurability.index()], 40);
        assert_eq!(t.by_category[Category::Other.index()], 20);
        assert_eq!(t.by_category[Category::Network.index()], 50);
    }

    /// The commit point: the coordinator's join on its Start record
    /// (`2pc.start_stable` [20, 60), the counter wait [30, 50) inside it)
    /// is durability time to the last nanosecond, and the continuation
    /// that stabilizes the decision record behind the ack (`2pc.finish`
    /// [100, 200)) is not on the client's path at all.
    #[test]
    fn commit_point_join_is_durability_and_the_finish_is_off_path() {
        assert_eq!(Phase::CoordStartStable.category(), Category::ClogDurability);
        assert!(Phase::CoordStartStable.is_waiting() && Phase::CoordFinish.is_waiting());
        let mut tr = Tracer::new();
        let txn = 8;
        tr.ev(0, 9, 1, txn, EventKind::Enter, Phase::ClientCommit, &[]);
        tr.ev(10, 1, 2, txn, EventKind::Enter, Phase::CoordCommit, &[]);
        tr.ev(
            20,
            1,
            2,
            txn,
            EventKind::Enter,
            Phase::CoordStartStable,
            &[],
        );
        tr.ev(30, 1, 2, txn, EventKind::Enter, Phase::ClogStabilize, &[]);
        tr.ev(50, 1, 2, txn, EventKind::Exit, Phase::ClogStabilize, &[]);
        tr.ev(60, 1, 2, txn, EventKind::Exit, Phase::CoordStartStable, &[]);
        tr.ev(60, 1, 2, txn, EventKind::Enter, Phase::CoordDecide, &[]);
        tr.ev(70, 1, 2, txn, EventKind::Exit, Phase::CoordDecide, &[]);
        tr.ev(70, 1, 2, txn, EventKind::Exit, Phase::CoordCommit, &[]);
        tr.ev(
            100,
            9,
            1,
            txn,
            EventKind::Instant,
            Phase::ClientCommitted,
            &[("elapsed_ns", 100)],
        );
        tr.ev(100, 9, 1, txn, EventKind::Exit, Phase::ClientCommit, &[]);
        tr.ev(100, 1, 5, txn, EventKind::Enter, Phase::CoordFinish, &[]);
        tr.ev(100, 1, 5, txn, EventKind::Enter, Phase::ClogStabilize, &[]);
        tr.ev(180, 1, 5, txn, EventKind::Exit, Phase::ClogStabilize, &[]);
        tr.ev(200, 1, 5, txn, EventKind::Exit, Phase::CoordFinish, &[]);
        let report = attribute(&tr.events, 0);
        let t = &report.txns[0];
        assert_eq!(t.measured_ns, 100);
        assert_eq!(t.attributed_ns, 100);
        assert_eq!(t.by_category[Category::ClogDurability.index()], 40);
        // 2pc.commit's own [10,20) plus the decision append [60,70).
        assert_eq!(t.by_category[Category::Other.index()], 20);
        // Request [0,10) and reply [70,100) in flight.
        assert_eq!(t.by_category[Category::Network.index()], 40);
    }

    /// rpc.handle roots report queue_ns/open_ns: the uncovered run-up to
    /// the handler splits into queueing, TEE boundary, then network.
    #[test]
    fn queue_and_open_time_split_out_of_the_wire_gap() {
        let mut tr = Tracer::new();
        let txn = 3;
        // Two buffered writes ride the read's message: one waiting span,
        // whatever the list length.
        tr.ev(
            0,
            9,
            1,
            txn,
            EventKind::Enter,
            Phase::ClientOp,
            &[("ops", 3)],
        );
        // Handler opens at 50: 10ns queue wait, 5ns open reported.
        tr.ev(
            50,
            1,
            2,
            txn,
            EventKind::Enter,
            Phase::RpcHandle,
            &[("queue_ns", 10), ("open_ns", 5)],
        );
        tr.ev(
            55,
            1,
            2,
            txn,
            EventKind::Enter,
            Phase::CoordOp,
            &[("ops", 3)],
        );
        tr.ev(70, 1, 2, txn, EventKind::Exit, Phase::CoordOp, &[]);
        tr.ev(75, 1, 2, txn, EventKind::Exit, Phase::RpcHandle, &[]);
        tr.ev(90, 9, 1, txn, EventKind::Exit, Phase::ClientOp, &[]);
        tr.ev(90, 9, 1, txn, EventKind::Enter, Phase::ClientCommit, &[]);
        tr.ev(
            95,
            9,
            1,
            txn,
            EventKind::Instant,
            Phase::ClientCommitted,
            &[("elapsed_ns", 95)],
        );
        tr.ev(95, 9, 1, txn, EventKind::Exit, Phase::ClientCommit, &[]);
        let report = attribute(&tr.events, 0);
        let t = &report.txns[0];
        assert_eq!(t.attributed_ns, 95);
        assert_eq!(t.by_category[Category::Queueing.index()], 10);
        // rpc.handle self time [50,55)+[70,75) = 10ns plus open_ns 5.
        assert_eq!(t.by_category[Category::Tee.index()], 15);
        // [0,35) request flight + [75,90) reply flight = 50ns network.
        assert_eq!(t.by_category[Category::Network.index()], 50);
        // coordinate_op with no remote overlap: 15ns local work (Other),
        // client.commit with no remote root: 5ns Other.
        assert_eq!(t.by_category[Category::Other.index()], 20);
    }

    #[test]
    fn json_is_deterministic_and_names_p99_dominant() {
        let a = attribute(&single_coordinator_trace(), 0);
        let b = attribute(&single_coordinator_trace(), 0);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.p99_dominant(), Some(Category::Network));
        assert!(a.to_json().contains("\"dominant\":\"network\""));
        assert!(a.to_json().contains("\"min_txn_coverage_bp\":10000"));
    }

    #[test]
    fn truncated_traces_still_report() {
        let mut events = single_coordinator_trace();
        // Evict the first event (client.commit enter): the client anchor
        // span is force-closed by the lossy builder, but the report still
        // produces a (marked) answer instead of erroring.
        events.remove(0);
        let report = attribute(&events, 1);
        assert!(report.truncated);
        let json = report.to_json();
        assert!(json.contains("\"truncated\":true"));
        assert!(json.contains("\"dropped_events\":1"));
    }

    #[test]
    fn buckets_partition_all_txns_and_tail_is_nonempty() {
        let mut tr = Tracer::new();
        for i in 0..20u64 {
            let txn = i + 1;
            let base = i * 1_000;
            let lat = 100 + i * 10;
            tr.ev(base, 9, 1, txn, EventKind::Enter, Phase::ClientCommit, &[]);
            tr.ev(
                base + lat,
                9,
                1,
                txn,
                EventKind::Instant,
                Phase::ClientCommitted,
                &[("elapsed_ns", lat)],
            );
            tr.ev(
                base + lat,
                9,
                1,
                txn,
                EventKind::Exit,
                Phase::ClientCommit,
                &[],
            );
        }
        let report = attribute(&tr.events, 0);
        assert_eq!(report.txns.len(), 20);
        let total: u64 = report.buckets.iter().map(|b| b.txns).sum();
        assert_eq!(total, 20, "every txn in exactly one bucket");
        let tail = report.buckets.iter().find(|b| b.name == "ge_p99").unwrap();
        assert!(
            tail.txns >= 1,
            "slowest txn always lands in the tail bucket"
        );
        assert_eq!(report.exemplars.len(), EXEMPLARS);
        assert_eq!(report.exemplars[0].measured_ns, 290, "slowest first");
    }
}
