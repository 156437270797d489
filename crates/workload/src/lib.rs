//! Workload generators for the Treaty evaluation (§VIII-A): YCSB and
//! TPC-C, deterministic per seed.
//!
//! Both workloads target the abstract [`KvTxn`] interface so the same
//! generator drives single-node engine transactions and distributed
//! client transactions.

pub mod scale;
pub mod social;
pub mod tpcc;
pub mod ycsb;

pub use scale::{PoissonArrivals, ScaleConfig, ScaleGenerator};
pub use social::{SocialConfig, SocialGenerator, SocialTxn};
pub use tpcc::{TpccConfig, TpccGenerator, TpccTxn};
pub use ycsb::{Distribution, YcsbConfig, YcsbGenerator, YcsbOp, YcsbOpKind};

/// The transaction interface workloads run against.
///
/// Implemented by adapters over `treaty_store::EngineTxn` (single node) and
/// `treaty_core::DistTxn` (distributed) in the benchmark harness.
pub trait KvTxn {
    /// Reads a key.
    ///
    /// # Errors
    ///
    /// A human-readable reason; any error aborts the workload transaction.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;

    /// Writes a key.
    ///
    /// # Errors
    ///
    /// A human-readable reason; any error aborts the workload transaction.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), String>;

    /// Range-scans `[start, end)`, up to `limit` pairs (`0` = unbounded).
    /// Defaulted so point-only adapters and mocks keep compiling; harnesses
    /// running scan workloads (YCSB-E) override it.
    ///
    /// # Errors
    ///
    /// A human-readable reason; any error aborts the workload transaction.
    fn scan(&mut self, start: &[u8], end: &[u8], limit: usize) -> Result<ScanPairs, String> {
        let _ = (start, end, limit);
        Err("scan unsupported by this transaction adapter".into())
    }
}

/// What a scan returns: key/value pairs in key order.
pub type ScanPairs = Vec<(Vec<u8>, Vec<u8>)>;
