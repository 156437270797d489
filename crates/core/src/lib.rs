//! Treaty's distributed transaction layer (§IV–§VI): the paper's primary
//! contribution.
//!
//! A [`cluster::Cluster`] shards the key space over [`node::TreatyNode`]s.
//! Clients ([`client::TreatyClient`]) drive interactive transactions
//! through a coordinator node, which forwards operations to participant
//! shards and, at commit, runs the secure two-phase-commit of Fig. 2:
//!
//! 1. the coordinator logs the transaction to its **Clog** with a trusted
//!    counter value,
//! 2. participants prepare locally (durable WAL record, locks held) and —
//!    under the stabilization profile — only ACK once the prepare entry is
//!    rollback-protected,
//! 3. the coordinator logs and stabilizes the decision, then instructs
//!    participants to commit; the client learns the outcome once the
//!    decision itself can never be rolled back.
//!
//! Recovery (§VI) replays MANIFEST → WAL → Clog, re-drives undecided
//! transactions, answers participants' `QueryDecision` requests, and
//! refuses forked or rolled-back state.

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]

pub mod client;
pub mod clog;
pub mod cluster;
pub mod history;
pub mod messages;
pub mod node;
pub mod shard;

pub use client::{DistTxn, SnapshotTxn, TreatyClient};
pub use cluster::{Cluster, ClusterOptions};
pub use history::{check_list_append, HistoryError, TxnObservation};
pub use node::{NodeOptions, RecoveryOutcome, TreatyNode};
pub use shard::ShardMap;

use treaty_store::GlobalTxId;

/// Errors surfaced by the distributed layer.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum TreatyError {
    /// The transaction was aborted (conflict, timeout, participant vote,
    /// or explicit rollback).
    #[error("transaction {0} aborted: {1}")]
    Aborted(GlobalTxId, String),
    /// A network problem prevented completing the request.
    #[error("network: {0}")]
    Net(String),
    /// The storage engine reported an error.
    #[error("storage: {0}")]
    Store(String),
    /// The remote node rejected the request (authentication, unknown
    /// transaction, …).
    #[error("rejected: {0}")]
    Rejected(String),
    /// A snapshot read could not be served at the requested timestamp —
    /// stale timestamp, in-doubt prepare, or failed end-of-transaction
    /// validation. Always retryable: refresh the snapshot and try again
    /// ([`TreatyClient::snapshot_read`](client::TreatyClient::snapshot_read)
    /// automates the loop). A typed variant so retry classification never
    /// depends on matching formatted message strings.
    #[error("snapshot retry: {0}")]
    SnapshotRetry(String),
}

impl From<treaty_net::NetError> for TreatyError {
    fn from(e: treaty_net::NetError) -> Self {
        TreatyError::Net(e.to_string())
    }
}

impl From<treaty_store::StoreError> for TreatyError {
    fn from(e: treaty_store::StoreError) -> Self {
        TreatyError::Store(e.to_string())
    }
}

/// Result alias for the distributed layer.
pub type Result<T> = std::result::Result<T, TreatyError>;
