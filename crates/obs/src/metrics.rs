//! The metrics registry: named counters, gauges and virtual-time
//! histograms behind one deterministic snapshot API.
//!
//! This absorbs the scattered per-subsystem stats structs (`NodeStats`,
//! `EngineStats`, `FabricStats`, RPC counters): live
//! increments flow in during the run, and at the end the bench harness
//! mirrors the legacy structs into gauges so one [`MetricsSnapshot`] tells
//! the whole story.
//!
//! Keys are free-form strings by convention `layer.metric` (e.g.
//! `store.block_cache.hit`, `core.decision_retries`) or
//! `nodeN.metric` for per-node mirrors. Storage is `BTreeMap`-backed so
//! snapshots and renders iterate in key order — deterministic across runs.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::Nanos;

/// Incremental histogram of virtual-time durations: tracks count/sum/min/max
/// exactly and keeps raw samples (up to a cap) for quantiles.
#[derive(Debug, Clone, Default)]
struct VtHistogram {
    count: u64,
    sum: u128,
    min: Nanos,
    max: Nanos,
    samples: Vec<Nanos>,
    sample_cap: usize,
}

/// Cap on raw samples retained per histogram; count/sum/min/max stay exact
/// past it, quantiles degrade to the retained prefix.
const SAMPLE_CAP: usize = 1 << 16;

impl VtHistogram {
    fn record(&mut self, v: Nanos) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
            self.sample_cap = SAMPLE_CAP;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v as u128;
        if self.samples.len() < self.sample_cap {
            self.samples.push(v);
        }
    }

    fn summary(&self) -> HistSummary {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let q = |f: f64| -> Nanos {
            if sorted.is_empty() {
                return 0;
            }
            let rank = ((f * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        HistSummary {
            count: self.count,
            sum: self.sum.min(u64::MAX as u128) as u64,
            min: self.min,
            max: self.max,
            mean: if self.count == 0 {
                0
            } else {
                (self.sum / self.count as u128) as Nanos
            },
            p50: q(0.50),
            p99: q(0.99),
        }
    }
}

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
    /// Median (nearest-rank over retained samples).
    pub p50: Nanos,
    /// 99th percentile (nearest-rank over retained samples).
    pub p99: Nanos,
}

/// One fixed virtual-time window's worth of metric activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowCell {
    /// Counter *deltas* within the window (not running totals).
    pub counters: BTreeMap<String, u64>,
    /// Last gauge value written within the window.
    pub gauges: BTreeMap<String, u64>,
    /// Per-histogram `(count, sum, max)` of samples within the window.
    pub hists: BTreeMap<String, (u64, u128, Nanos)>,
}

#[derive(Debug)]
struct SeriesState {
    window_ns: Nanos,
    max_windows: usize,
    windows: BTreeMap<u64, WindowCell>,
    evicted: u64,
}

impl SeriesState {
    fn cell(&mut self, ts: Nanos) -> &mut WindowCell {
        let idx = ts / self.window_ns;
        if let std::collections::btree_map::Entry::Vacant(slot) = self.windows.entry(idx) {
            slot.insert(WindowCell::default());
            while self.windows.len() > self.max_windows {
                self.windows.pop_first();
                self.evicted += 1;
            }
        }
        self.windows.get_mut(&idx).expect("cell just inserted")
    }
}

/// Named counters, gauges and histograms. All methods take `&self`; storage
/// sits behind locks that are uncontended under the cooperative scheduler.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, VtHistogram>>,
    series: Mutex<Option<SeriesState>>,
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

    /// Turns on windowed time-series collection: the `*_at` recording
    /// variants additionally bucket activity into fixed `window_ns`-wide
    /// virtual-time windows, keeping at most `max_windows` (oldest evicted
    /// and counted). Windows deliver the data for throughput-vs-latency
    /// curves: counter deltas, last gauge value and histogram
    /// `(count, sum, max)` per window.
    pub fn enable_series(&self, window_ns: Nanos, max_windows: usize) {
        let mut series = self.series.lock().expect("series poisoned");
        *series = Some(SeriesState {
            window_ns: window_ns.max(1),
            max_windows: max_windows.max(1),
            windows: BTreeMap::new(),
            evicted: 0,
        });
    }

    /// [`Self::counter_add`] that also feeds the time series at `ts`.
    pub fn counter_add_at(&self, name: &str, ts: Nanos, v: u64) {
        self.counter_add(name, v);
        let mut series = self.series.lock().expect("series poisoned");
        if let Some(s) = series.as_mut() {
            let cell = s.cell(ts);
            let c = cell.counters.entry(name.to_string()).or_insert(0);
            *c = c.saturating_add(v);
        }
    }

    /// [`Self::gauge_set`] that also feeds the time series at `ts`.
    pub fn gauge_set_at(&self, name: &str, ts: Nanos, v: u64) {
        self.gauge_set(name, v);
        let mut series = self.series.lock().expect("series poisoned");
        if let Some(s) = series.as_mut() {
            s.cell(ts).gauges.insert(name.to_string(), v);
        }
    }

    /// [`Self::hist_record`] that also feeds the time series at `ts`.
    pub fn hist_record_at(&self, name: &str, ts: Nanos, v: Nanos) {
        self.hist_record(name, v);
        let mut series = self.series.lock().expect("series poisoned");
        if let Some(s) = series.as_mut() {
            let cell = s.cell(ts);
            let h = cell.hists.entry(name.to_string()).or_insert((0, 0, 0));
            h.0 += 1;
            h.1 += v as u128;
            h.2 = h.2.max(v);
        }
    }

    /// Snapshot of the time series; `None` unless [`Self::enable_series`]
    /// was called.
    pub fn series_snapshot(&self) -> Option<SeriesSnapshot> {
        let series = self.series.lock().expect("series poisoned");
        series.as_ref().map(|s| SeriesSnapshot {
            window_ns: s.window_ns,
            evicted: s.evicted,
            windows: s.windows.iter().map(|(k, v)| (*k, v.clone())).collect(),
        })
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
                .map(|(k, v)| (k.clone(), v.summary()))
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

/// Deterministic snapshot of the windowed time series.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Window width on the virtual clock.
    pub window_ns: Nanos,
    /// Windows evicted because `max_windows` was exceeded.
    pub evicted: u64,
    /// `(window index, activity)` ascending; window `i` covers
    /// `[i * window_ns, (i + 1) * window_ns)`.
    pub windows: Vec<(u64, WindowCell)>,
}

impl SeriesSnapshot {
    /// Fixed-width text render (byte-deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "time series: window={}ns, {} windows, {} evicted\n",
            self.window_ns,
            self.windows.len(),
            self.evicted
        ));
        for (idx, cell) in &self.windows {
            out.push_str(&format!(
                "window {idx} [{}ns..{}ns):\n",
                idx * self.window_ns,
                (idx + 1) * self.window_ns
            ));
            for (k, v) in &cell.counters {
                out.push_str(&format!("  +{k:<43} {v:>14}\n"));
            }
            for (k, v) in &cell.gauges {
                out.push_str(&format!("  ={k:<43} {v:>14}\n"));
            }
            for (k, (n, sum, max)) in &cell.hists {
                let mean = if *n == 0 {
                    0
                } else {
                    (sum / *n as u128) as u64
                };
                out.push_str(&format!("  ~{k:<43} n={n} mean={mean} max={max}\n"));
            }
        }
        out
    }

    /// Deterministic JSON export (integers only).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"window_ns\":{},\"evicted\":{},\"windows\":[",
            self.window_ns, self.evicted
        ));
        for (i, (idx, cell)) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"index\":{idx},\"counters\":{{"));
            for (j, (k, v)) in cell.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push_str("},\"gauges\":{");
            for (j, (k, v)) in cell.gauges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push_str("},\"hists\":{");
            for (j, (k, (n, sum, max))) in cell.hists.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{k}\":{{\"count\":{n},\"sum\":{sum},\"max\":{max}}}"
                ));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
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
    fn series_windows_bucket_by_virtual_time() {
        let r = MetricsRegistry::new();
        r.enable_series(1_000, 16);
        r.counter_add_at("tx", 100, 1);
        r.counter_add_at("tx", 900, 2);
        r.counter_add_at("tx", 1_500, 5);
        r.gauge_set_at("depth", 950, 7);
        r.gauge_set_at("depth", 990, 9);
        r.hist_record_at("lat", 2_200, 40);
        r.hist_record_at("lat", 2_300, 60);
        let s = r.series_snapshot().expect("series enabled");
        assert_eq!(s.window_ns, 1_000);
        assert_eq!(s.windows.len(), 3);
        assert_eq!(s.windows[0].0, 0);
        assert_eq!(s.windows[0].1.counters["tx"], 3, "window 0 delta");
        assert_eq!(s.windows[0].1.gauges["depth"], 9, "last write in window");
        assert_eq!(s.windows[1].1.counters["tx"], 5);
        assert_eq!(s.windows[2].1.hists["lat"], (2, 100, 60));
        // The `_at` variants still feed the cumulative registry.
        assert_eq!(r.counter("tx"), 8);
        assert_eq!(r.snapshot().hists["lat"].count, 2);
    }

    #[test]
    fn series_evicts_oldest_windows() {
        let r = MetricsRegistry::new();
        r.enable_series(10, 2);
        r.counter_add_at("c", 5, 1);
        r.counter_add_at("c", 15, 1);
        r.counter_add_at("c", 25, 1);
        let s = r.series_snapshot().unwrap();
        assert_eq!(s.evicted, 1);
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[0].0, 1, "window 0 was evicted");
        assert_eq!(s.to_json(), r.series_snapshot().unwrap().to_json());
        assert!(s.to_json().contains("\"evicted\":1"));
    }

    #[test]
    fn series_disabled_by_default() {
        let r = MetricsRegistry::new();
        r.counter_add_at("c", 5, 1);
        assert!(r.series_snapshot().is_none());
        assert_eq!(r.counter("c"), 1, "cumulative path still records");
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let r = MetricsRegistry::new();
            r.counter_add("net.sent", 42);
            r.gauge_set("node1.committed", 7);
            r.hist_record("2pc.prepare", 1000);
            r.hist_record("2pc.prepare", 3000);
            r.snapshot().render()
        };
        assert_eq!(build(), build());
        assert!(build().contains("net.sent"));
    }
}
