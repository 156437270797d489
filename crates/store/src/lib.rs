//! Treaty's secure single-node storage engine (§V-B, §VII-B).
//!
//! A SPEICHER-style hardening of an LSM key-value store, extended — as the
//! paper does — with transactions:
//!
//! * [`memtable`] — the MemTable with the paper's key/value split: keys,
//!   versions and value hashes stay in enclave memory; encrypted values
//!   live in untrusted host memory,
//! * [`log`] — the authenticated, trusted-counter-stamped log format shared
//!   by the WAL, the MANIFEST and the Clog,
//! * [`sstable`] — SSTables of encrypted blocks with a footer of block
//!   hashes and an integrity-covered per-table Bloom filter,
//! * [`bloom`] / [`cache`] — the read-acceleration layer: Bloom filters
//!   sealed into table footers and an EPC-aware trusted block cache over
//!   decrypted blocks,
//! * [`locks`] — the sharded lock table for two-phase locking,
//! * [`txn`] — pessimistic (2PL) and optimistic (OCC) transactions, group
//!   commit, and the participant half of 2PC (prepare / commit-prepared),
//! * [`engine`] — [`TreatyStore`]: flush, leveled compaction with
//!   stabilization-gated garbage collection, and crash recovery
//!   (MANIFEST → WAL replay with freshness verification).
//!
//! The [`SecurityProfile`] decides at run time which protections are
//! active, which is how the benchmarks produce the paper's system lineup
//! (`RocksDB` baseline → `Treaty w/ Enc w/ Stab`).

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]

pub mod bloom;
pub mod cache;
pub mod engine;
pub mod env;
pub mod locks;
pub mod log;
pub mod memtable;
pub mod skiplist;
pub mod sstable;
pub mod txn;

pub use bloom::BloomFilter;
pub use cache::BlockCache;
pub use engine::{EngineStats, ManifestEdit, TreatyStore, WalRecord};
pub use env::{EngineConfig, Env};
pub use locks::{LockMode, LockTable, EOF_SENTINEL};
pub use txn::{CommitInfo, EngineTxn, GlobalTxId, NullEngine, Txn, TxnEngine, TxnMode, TxnOptions};

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum StoreError {
    /// Lock acquisition timed out (two-phase locking deadlock avoidance).
    #[error("lock timeout on key")]
    LockTimeout,
    /// Optimistic validation failed: a read key changed before commit.
    #[error("optimistic conflict: read set changed")]
    Conflict,
    /// The transaction was already finished (committed/rolled back).
    #[error("transaction already finished")]
    Finished,
    /// Integrity verification failed on persistent data.
    #[error("integrity violation: {0}")]
    Integrity(String),
    /// Freshness verification failed: the storage was rolled back to a
    /// stale (if internally consistent) state.
    #[error("rollback attack detected: {0}")]
    Rollback(String),
    /// The trusted counter service failed.
    #[error("stabilization failed: {0}")]
    Stabilization(String),
    /// Underlying file I/O failed.
    #[error("storage i/o: {0}")]
    Io(String),
    /// A 2PC-prepared transaction with this id does not exist.
    #[error("unknown prepared transaction")]
    UnknownPrepared,
    /// A snapshot read asked for a timestamp ahead of this node's stable
    /// read timestamp; the caller refreshes its snapshot and retries.
    #[error("snapshot timestamp not yet stable (stable = {stable})")]
    SnapshotStale {
        /// The node's current stable read timestamp.
        stable: u64,
    },
    /// A snapshot read hit a key an undecided prepared transaction is
    /// about to write; the outcome is in doubt, so the read must retry.
    #[error("snapshot read overlaps an in-doubt prepared transaction")]
    SnapshotInDoubt,
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl From<treaty_counter::CounterError> for StoreError {
    fn from(e: treaty_counter::CounterError) -> Self {
        StoreError::Stabilization(e.to_string())
    }
}

/// Convenient result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;
