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
//! * [`locks`] — the lock table for two-phase locking: one ordered map of
//!   held keys, so a span fence can list what other transactions hold,
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
pub mod sstable;
pub mod txn;

pub use bloom::BloomFilter;
pub use cache::BlockCache;
pub use engine::{EngineStats, ManifestEdit, TreatyStore, WalRecord};
pub use env::{EngineConfig, Env};
pub use locks::{LockMode, LockTable, EOF_SENTINEL};
pub use txn::{CommitInfo, EngineTxn, GlobalTxId, NullEngine, Txn, TxnEngine, TxnMode};

use treaty_counter::CounterError;

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
    Integrity(Breach),
    /// Freshness verification failed: the storage was rolled back to a
    /// stale (if internally consistent) state.
    #[error("rollback attack detected: {0}")]
    Rollback(Breach),
    /// The trusted counter service failed.
    #[error("stabilization failed: {0}")]
    Stabilization(#[from] CounterError),
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
    /// The engine does not serve this operation (the storage-less
    /// [`NullEngine`] refuses scans and range deletes).
    #[error("operation not supported by this engine")]
    Unsupported,
}

impl StoreError {
    /// `object` failed `check`: it was tampered with.
    pub fn integrity(object: Stored, check: Check) -> Self {
        StoreError::Integrity(Breach { object, check })
    }

    /// `object` failed `check`: it was rolled back.
    pub fn rollback(object: Stored, check: Check) -> Self {
        StoreError::Rollback(Breach { object, check })
    }
}

/// A refusal for integrity or freshness (§III): the stored object whose
/// check failed, and the check. Its `Display` is a breach's only text.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
#[error("{object} {check}")]
pub struct Breach {
    /// What failed.
    pub object: Stored,
    /// The rule it failed.
    pub check: Check,
}

/// A stored object a [`Breach`] names.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum Stored {
    /// Record `counter` of the log `log` (`wal-000001`, `manifest`, `clog`).
    #[error("log {log} record {counter}")]
    LogRecord { log: String, counter: u64 },
    /// The log `log` as a whole.
    #[error("log {log}")]
    Log { log: String },
    /// Block `block_no` of SSTable `file_id`.
    #[error("sstable {file_id} block {block_no}")]
    TableBlock { file_id: u64, block_no: u32 },
    /// SSTable `file_id`'s sealed footer, its meta block.
    #[error("sstable {file_id} footer")]
    TableMeta { file_id: u64 },
    /// A MemTable value in untrusted host memory.
    #[error("memtable value in host memory")]
    MemValue,
}

impl Stored {
    /// Record `counter` of the log `log`.
    pub fn record(log: &str, counter: u64) -> Self {
        let log = log.into();
        Stored::LogRecord { log, counter }
    }
}

/// The rule a [`Breach`]'s object failed, in words that follow the
/// object's name. DESIGN.md §4 names the tamper behind each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, thiserror::Error)]
pub enum Check {
    #[error("fails its MAC or GCM tag")]
    Tag,
    #[error("does not hash to the digest the enclave holds")]
    Digest,
    #[error("does not decode")]
    Decode,
    #[error("sits where another object belongs")]
    Misplaced,
    #[error("breaks the key order its sealed fences pin")]
    FenceOrder,
    #[error("is shorter than its sealed length")]
    Truncated,
    #[error("is missing")]
    Missing,
    #[error("skips a counter value")]
    CounterGap,
    #[error("ends behind its trusted counter's stabilized value")]
    BehindStable,
    #[error("holds two prepared transactions that lock one key")]
    ConflictingPrepare,
    #[error("commits a transaction no live WAL prepared")]
    OrphanDecide,
    #[error("would reuse a nonce")]
    NonceReuse,
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Convenient result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;
