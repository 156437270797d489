//! The metrics registry: named counters, gauges and virtual-time
//! histograms behind one deterministic snapshot API.
//!
//! Each count has one owner. A stats struct owns what the benchmark
//! harness or the `OBS_SNAPSHOT` wire reads: `NodeStats` (commits, aborts,
//! participant ops, decision retries), `EngineStats` (the store's
//! counters), `BlockCache` (hits, misses), `FabricStats` (sends,
//! deliveries, drops, tampering, duplicates) and `SimReport` (fiber
//! switches). The registry owns everything else: protocol events
//! (`core.*`, `client.*`), enclave costs (`tee.*`), lock traffic
//! (`store.lock_*`) and the counter service's histograms (`counter.*`).
//! No count is recorded in both; a harness that wants one snapshot copies
//! the structs in under their own names at the end of a run.
//!
//! Keys are free-form strings by convention `layer.metric` (e.g.
//! `store.lock_acquire`, `core.snapshot_reads`). Storage is
//! `BTreeMap`-backed so snapshots and renders iterate in key order —
//! deterministic across runs.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{Histogram, Nanos};

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples (saturating at `u64::MAX` for display).
    pub sum: u64,
    /// Smallest sample; 0 when empty.
    pub min: Nanos,
    /// Largest sample; 0 when empty.
    pub max: Nanos,
    /// Arithmetic mean; 0 when empty.
    pub mean: Nanos,
    /// Median, nearest-rank within one bucket (≈ 1.6 %).
    pub p50: Nanos,
    /// 99th percentile, nearest-rank within one bucket (≈ 1.6 %).
    pub p99: Nanos,
}

impl HistSummary {
    fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            sum: h.sum().min(u64::MAX as u128) as u64,
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.50),
            p99: h.quantile(0.99),
        }
    }
}

/// Named counters, gauges and histograms. All methods take `&self`; storage
/// sits behind locks that are uncontended under the cooperative scheduler.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to counter `name`, creating it at zero.
    pub fn counter_add(&self, name: &str, v: u64) {
        let mut counters = self.counters.lock().expect("counter map poisoned");
        match counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(v),
            None => {
                counters.insert(name.to_string(), v);
            }
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Sets gauge `name` to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: u64) {
        self.gauges
            .lock()
            .expect("gauge map poisoned")
            .insert(name.to_string(), v);
    }

    /// Records one virtual-time sample into histogram `name`.
    pub fn hist_record(&self, name: &str, v: Nanos) {
        let mut hists = self.hists.lock().expect("hist map poisoned");
        hists.entry(name.to_string()).or_default().record(v);
    }

    /// Deterministic point-in-time snapshot of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().expect("counter map poisoned").clone(),
            gauges: self.gauges.lock().expect("gauge map poisoned").clone(),
            hists: self
                .hists
                .lock()
                .expect("hist map poisoned")
                .iter()
                .map(|(k, h)| (k.clone(), HistSummary::of(h)))
                .collect(),
        }
    }
}

/// Deterministic snapshot: `BTreeMap`s iterate in key order, so rendering
/// the same state always produces the same bytes.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram summaries.
    pub hists: BTreeMap<String, HistSummary>,
}

impl MetricsSnapshot {
    /// Renders a fixed-width text report (key order, byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<44} {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<44} {v:>14}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms (virtual ns):\n");
            for (k, h) in &self.hists {
                out.push_str(&format!(
                    "  {k:<44} n={} mean={} p50={} p99={} max={}\n",
                    h.count, h.mean, h.p50, h.p99, h.max
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = MetricsRegistry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.counter_add("b", u64::MAX);
        r.counter_add("b", 1);
        assert_eq!(r.counter("b"), u64::MAX);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = MetricsRegistry::new();
        r.gauge_set("g", 10);
        r.gauge_set("g", 4);
        assert_eq!(r.snapshot().gauges["g"], 4);
    }

    #[test]
    fn histogram_summary_is_exact_for_small_sets() {
        let r = MetricsRegistry::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            r.hist_record("lat", v);
        }
        let s = r.snapshot().hists["lat"];
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 550);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 100);
        assert_eq!(s.mean, 55);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 100);
    }

    /// Quantiles cover every sample, not an opening stretch: the second
    /// half of the run moves p99 although it starts past sample 65 536.
    #[test]
    fn histogram_quantiles_see_every_sample() {
        let r = MetricsRegistry::new();
        for _ in 0..65_536 {
            r.hist_record("lat", 1_000);
        }
        for _ in 0..65_536 {
            r.hist_record("lat", 9_000_000);
        }
        let s = r.snapshot().hists["lat"];
        assert!(s.p99 >= 8_820_000, "p99 {} ignores the second half", s.p99);
        assert_eq!(s.count, 131_072);
        assert_eq!(s.sum, 65_536 * 9_001_000);
        assert_eq!(s.min, 1_000);
        assert_eq!(s.max, 9_000_000);
    }

    #[test]
    fn snapshot_iterates_in_key_order() {
        let r = MetricsRegistry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        r.counter_add("mid", 1);
        let keys: Vec<_> = r.snapshot().counters.keys().cloned().collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let r = MetricsRegistry::new();
            r.counter_add("store.lock_acquire", 42);
            r.gauge_set("node1.committed", 7);
            r.hist_record("2pc.prepare", 1000);
            r.hist_record("2pc.prepare", 3000);
            r.snapshot().render()
        };
        assert_eq!(build(), build());
        assert!(build().contains("store.lock_acquire"));
    }
}
