//! The SGX hardware monotonic counter, as a cost baseline.
//!
//! The paper rejects these counters for three reasons (§IV-B): increments
//! take up to ~250 ms, they wear out, and they are per-CPU (useless for
//! distributed rollback protection). This model exists so the ablation
//! benchmarks can show the cliff that motivates the asynchronous trusted
//! counter service in `treaty-counter`.

use std::cell::Cell;

use treaty_sim::{CostModel, Nanos};

/// A slow, wear-limited hardware monotonic counter.
#[derive(Debug, Default)]
pub struct HwCounter {
    value: Cell<u64>,
    writes: Cell<u64>,
}

/// Writes after which real SGX counters begin to wear out (order of
/// magnitude per ROTE: ~1M writes over days of sustained use).
pub const WEAR_LIMIT_WRITES: u64 = 1_000_000;

impl HwCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments and returns the new value plus the virtual-time cost the
    /// caller must charge.
    pub fn increment(&self, costs: &CostModel) -> (u64, Nanos) {
        self.writes.update(|n| n + 1);
        let v = self.value.get() + 1;
        self.value.set(v);
        (v, costs.hw_counter_ns)
    }

    /// Reads the current value (fast).
    pub fn read(&self) -> u64 {
        self.value.get()
    }

    /// Whether the counter has exceeded its wear budget.
    pub fn worn_out(&self) -> bool {
        self.writes.get() > WEAR_LIMIT_WRITES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_are_monotonic_and_slow() {
        let c = HwCounter::new();
        let costs = CostModel::default();
        let (v1, cost) = c.increment(&costs);
        let (v2, _) = c.increment(&costs);
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(cost, costs.hw_counter_ns);
        assert!(
            cost >= 50_000_000,
            "hardware counters must be painfully slow"
        );
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn fresh_counter_is_not_worn() {
        assert!(!HwCounter::new().worn_out());
    }
}
