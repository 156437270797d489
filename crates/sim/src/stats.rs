//! Measurement helpers: latency histograms and closed-loop benchmark stats.

use serde::{Deserialize, Serialize};

use crate::Nanos;

/// Sub-bucket resolution: 2^6 = 64 log-spaced buckets per octave, so the
/// worst-case quantile error is one bucket width ≈ 1/64 ≈ 1.6% — well
/// inside the 5% tolerance the tests assert against a sorted-sample
/// reference. Values below [`LINEAR_LIMIT`] get one bucket each (exact).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const LINEAR_LIMIT: u64 = SUB * 2;

fn bucket_index(v: Nanos) -> usize {
    if v < LINEAR_LIMIT {
        v as usize
    } else {
        let exp = 63 - u64::from(v.leading_zeros());
        let sub = (v >> (exp - u64::from(SUB_BITS))) - SUB;
        (LINEAR_LIMIT + (exp - u64::from(SUB_BITS) - 1) * SUB + sub) as usize
    }
}

/// Lower bound of bucket `i` — the quantile representative.
fn bucket_bound(i: usize) -> Nanos {
    let i = i as u64;
    if i < LINEAR_LIMIT {
        i
    } else {
        let rel = i - LINEAR_LIMIT;
        let exp = rel / SUB + u64::from(SUB_BITS) + 1;
        let sub = rel % SUB;
        (SUB + sub) << (exp - u64::from(SUB_BITS))
    }
}

/// A bounded log-spaced-bucket histogram (HDR-style): count, sum, min and
/// max are exact; quantiles come from ~64 buckets per octave, so memory is
/// a few KiB regardless of sample count (a full-`u64`-range histogram
/// tops out under 4k buckets) and the worst-case quantile error is ≈1.6%.
///
/// It replaced an exact store-every-sample histogram: ROADMAP-5-scale
/// open-loop runs record tens of millions of samples, where an unbounded
/// `Vec` plus sort-on-quantile stops being affordable.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: Nanos,
    max: Nanos,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: Nanos) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
        } else {
            self.min = self.min.min(v);
        }
        self.max = self.max.max(v);
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of samples recorded (exact).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Number of samples recorded, as the counter width the metrics
    /// registry uses.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample (exact); 0 when empty.
    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Merges another histogram into this one (bucket-wise addition; all
    /// exact fields stay exact).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min = other.min;
        } else {
            self.min = self.min.min(other.min);
        }
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q`-quantile (0.0 ..= 1.0) using nearest-rank over buckets,
    /// clamped to the exact `[min, max]` envelope (so `quantile(1.0)` is
    /// the exact maximum and `quantile(0.0)` the exact minimum). Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            // The top rank is the largest sample, which is tracked exactly
            // — don't round it to its bucket bound.
            return self.max;
        }
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            return 0;
        }
        (self.sum / self.count as u128) as Nanos
    }

    /// Largest sample (exact); 0 when empty.
    pub fn max(&self) -> Nanos {
        self.max
    }
}

/// A wall-clock stopwatch for *measurement only*.
///
/// This module is the single place in the workspace allowed to touch
/// `std::time` (treaty-lint rule L003): simulated components must take all
/// time from the virtual clock, or runs stop being deterministic and
/// replayable. Harness-level checks ("the simulation did not block real
/// time") go through this helper so the lint allowlist stays at one file.
#[derive(Debug)]
pub struct WallTimer(std::time::Instant);

/// Starts a wall-clock stopwatch. See [`WallTimer`] for when this is
/// legitimate.
pub fn wall_clock() -> WallTimer {
    WallTimer(std::time::Instant::now())
}

impl WallTimer {
    /// Whole wall-clock seconds elapsed since the stopwatch started.
    pub fn elapsed_secs(&self) -> u64 {
        self.0.elapsed().as_secs()
    }
}

/// Result of one benchmark run over a measured window of `duration_ns` of
/// virtual time. In a closed loop, `clients` concurrent clients each
/// execute transactions back-to-back and the window ends when the *first*
/// client has committed its quota: until then every client is offering
/// load, so one straggler waiting out a lock timeout cannot idle the rest
/// inside the window. `committed`, `aborted` and the latencies count only
/// transactions that *completed inside the window*; `tps()` is therefore
/// commits per second of a window in which the system was loaded
/// throughout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchStats {
    /// Label of the system variant measured.
    pub label: String,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Committed transactions (or operations, for network benches).
    pub committed: u64,
    /// Aborted transactions.
    pub aborted: u64,
    /// Virtual duration of the measured window.
    pub duration_ns: Nanos,
    /// Mean latency in nanoseconds.
    pub mean_latency_ns: Nanos,
    /// 50th percentile latency.
    pub p50_latency_ns: Nanos,
    /// 99th percentile latency.
    pub p99_latency_ns: Nanos,
}

impl BenchStats {
    /// Builds stats from a latency histogram plus run metadata.
    pub fn from_histogram(
        label: impl Into<String>,
        clients: usize,
        committed: u64,
        aborted: u64,
        duration_ns: Nanos,
        hist: &mut Histogram,
    ) -> Self {
        BenchStats {
            label: label.into(),
            clients,
            committed,
            aborted,
            duration_ns,
            mean_latency_ns: hist.mean(),
            p50_latency_ns: hist.quantile(0.50),
            p99_latency_ns: hist.quantile(0.99),
        }
    }

    /// Throughput in transactions per second of virtual time.
    pub fn tps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.committed as f64 * 1e9 / self.duration_ns as f64
    }

    /// Abort rate in [0, 1].
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(0.99), 100);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.mean(), 55);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(3);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), 2);
    }

    #[test]
    fn max_and_sum_are_incremental_across_merge() {
        let mut a = Histogram::new();
        a.record(5);
        a.record(2);
        let mut b = Histogram::new();
        b.record(9);
        a.merge(&b);
        // `max` takes &self: no sort, no &mut.
        let shared: &Histogram = &a;
        assert_eq!(shared.max(), 9);
        assert_eq!(shared.count(), 3);
        assert_eq!(shared.sum(), 16);
        // Quantiles still work after the merge.
        assert_eq!(a.quantile(1.0), 9);
    }

    #[test]
    fn bucketed_quantiles_track_sorted_reference_within_5pct() {
        // Deterministic LCG spread over ~1k..17M ns — several octaves, so
        // the log-spaced buckets actually get exercised.
        let mut h = Histogram::new();
        let mut reference: Vec<Nanos> = Vec::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = 1_000 + (x >> 40);
            h.record(v);
            reference.push(v);
        }
        reference.sort_unstable();
        // count/sum/min/max stay exact under bucketing.
        let exact_sum: u128 = reference.iter().map(|&v| v as u128).sum();
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), exact_sum);
        assert_eq!(h.min(), reference[0]);
        assert_eq!(h.max(), *reference.last().unwrap());
        assert_eq!(h.quantile(1.0), h.max(), "q=1.0 is the exact max");
        for q in [0.50, 0.90, 0.99] {
            let rank = ((q * reference.len() as f64).ceil() as usize).clamp(1, reference.len());
            let want = reference[rank - 1];
            let got = h.quantile(q);
            let err = got.abs_diff(want) as f64 / want as f64;
            assert!(err <= 0.05, "q={q}: got {got}, want {want}, err {err:.4}");
        }
    }

    #[test]
    fn bucketed_memory_is_bounded() {
        let mut h = Histogram::new();
        for i in 0..1_000_000u64 {
            h.record(i * 17 + 3);
        }
        assert_eq!(h.count(), 1_000_000);
        // The bucket array is a function of the value range, not the
        // sample count: the whole u64 range needs < 4k buckets.
        assert!(bucket_index(u64::MAX) < 4_096);
    }

    #[test]
    fn bucket_index_and_bound_are_consistent() {
        for v in [
            0,
            1,
            63,
            64,
            127,
            128,
            129,
            255,
            256,
            1_000,
            1 << 20,
            u64::MAX / 2,
        ] {
            let i = bucket_index(v);
            let lo = bucket_bound(i);
            assert!(lo <= v, "bound {lo} above value {v}");
            assert!(
                bucket_index(lo) == i,
                "bound of {v} lands in its own bucket"
            );
            if i + 1 < bucket_index(u64::MAX) {
                assert!(bucket_bound(i + 1) > v, "next bucket starts after {v}");
            }
        }
    }

    #[test]
    fn tps_computation() {
        let s = BenchStats {
            label: "x".into(),
            clients: 4,
            committed: 1_000,
            aborted: 0,
            duration_ns: crate::SECONDS,
            mean_latency_ns: 0,
            p50_latency_ns: 0,
            p99_latency_ns: 0,
        };
        assert!((s.tps() - 1_000.0).abs() < 1e-9);
        assert_eq!(s.abort_rate(), 0.0);
    }
}
