//! Treaty's secure network library for transactions (§VII-A).
//!
//! Real Treaty extends eRPC over DPDK so the enclave can do network I/O
//! without syscalls, and wraps every message in the secure format of
//! §VII-A. This crate reproduces that library over the deterministic fiber
//! runtime:
//!
//! * [`Fabric`] is the simulated network: endpoints, per-sender NIC ports
//!   (link serialization), transport cost models, and an [`Adversary`]
//!   able to drop, delay, duplicate and tamper with traffic — the §III
//!   threat model,
//! * [`Rpc`] is the eRPC-flavoured endpoint: request handlers keyed by a
//!   request type, one queue per `(peer, session)` served in order by at
//!   most one fiber (the paper's fiber-per-client design; the session rule
//!   is in [`rpc`]'s header), asynchronous `enqueue_request`/`tx_burst`
//!   and a blocking [`Rpc::call`] convenience built on them,
//! * every message is sealed with [`treaty_crypto::SecureEnvelope`] under
//!   a number from its endpoint's one counter, and a receiver keeps one
//!   floor per sender plus the numbers above it that have started, so a
//!   duplicate, a replay or a straggler never runs — at-most-once
//!   execution in the presence of the adversary, in memory bounded by
//!   requests in flight (the replay protection in [`rpc`]'s header).

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]

pub mod fabric;
pub mod rpc;

pub use fabric::{Adversary, EndpointConfig, EndpointId, Fabric, FabricStats};
pub use rpc::{PendingReply, ReqHandler, Rpc, RpcConfig};

use treaty_sim::Nanos;

/// Default RPC timeout: generous, because prepared transactions may wait
/// for a stabilization round (~2 ms) plus queueing.
pub const DEFAULT_RPC_TIMEOUT: Nanos = 200 * treaty_sim::MILLIS;

/// Errors surfaced by the networking library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, thiserror::Error)]
pub enum NetError {
    /// No response arrived before the timeout (message dropped, peer dead,
    /// or peer overloaded).
    #[error("rpc timed out")]
    Timeout,
    /// The destination endpoint is not registered on the fabric.
    #[error("destination endpoint {0} unreachable")]
    Unreachable(u32),
    /// The local endpoint was shut down.
    #[error("endpoint closed")]
    Closed,
}
