//! The trusted-execution-environment abstraction Treaty builds on.
//!
//! Real Treaty runs inside Intel SGX via SCONE. This reproduction has no
//! SGX hardware, so the enclave becomes an explicit software boundary with
//! the same *observable* behaviour:
//!
//! * [`Enclave`] tracks EPC residency and prices accesses (paging beyond
//!   the EPC limit is what makes naïve SGX ports slow — §II-B, §VII-D),
//! * [`HostVault`] is the untrusted host memory where Treaty keeps
//!   encrypted values and message buffers; tests can dump or corrupt it,
//!   exactly like the paper's adversary,
//! * [`seal`]/[`unseal`] bind enclave state to a measurement, standing in
//!   for SGX sealing,
//! * [`Measurement`]/[`Quote`] provide the attestation primitives that the
//!   CAS chains into collective trust (§VI),
//! * [`HwCounter`] models the slow SGX monotonic counter that motivates the
//!   asynchronous trusted counter service.

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]

pub mod attest;
pub mod counter;
pub mod enclave;
pub mod hostbytes;
pub mod seal;

pub use attest::{HardwareRoot, Measurement, Quote};
pub use counter::HwCounter;
pub use enclave::{Enclave, HostHandle, HostVault, EPC_V1_BYTES, EPC_V2_BYTES};
pub use hostbytes::{HostBytes, Provenance};
pub use seal::{seal, unseal, SealedBlob};

/// Errors surfaced by the TEE abstraction.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum TeeError {
    /// Unsealing failed: wrong key, wrong measurement, or tampered blob.
    #[error("unsealing failed: blob does not authenticate for this enclave")]
    UnsealFailed,
    /// A quote failed verification.
    #[error("quote verification failed")]
    BadQuote,
    /// A host-memory handle was stale or freed.
    #[error("invalid host memory handle {0}")]
    BadHandle(u64),
    /// Bytes presented as integrity-pinned have no matching digest in the
    /// enclave's integrity map — pin the digest before constructing
    /// [`HostBytes::integrity_pinned`].
    #[error("bytes are not integrity-pinned by this enclave")]
    NotPinned,
}
