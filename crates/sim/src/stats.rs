//! Measurement helpers: the wall-clock stopwatch and closed-loop benchmark
//! stats.

use serde::{Deserialize, Serialize};
use treaty_obs::Histogram;

use crate::Nanos;

/// A wall-clock stopwatch for *measurement only*.
///
/// This module is the single place in the workspace allowed to read the
/// wall clock: `clippy.toml` bans `Instant::now` and `SystemTime::now`, and
/// [`wall_clock`] carries the one `#[allow]`. Simulated components must
/// take all time from the virtual clock, or runs stop being deterministic
/// and replayable. Harness-level checks ("the simulation did not block
/// real time") go through this helper.
#[derive(Debug)]
pub struct WallTimer(std::time::Instant);

/// Starts a wall-clock stopwatch. See [`WallTimer`] for when this is
/// legitimate.
#[allow(
    clippy::disallowed_methods,
    reason = "the measurement stopwatch is the one wall-clock read"
)]
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
