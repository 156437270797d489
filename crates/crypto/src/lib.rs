//! Cryptographic primitives and the Treaty secure message format.
//!
//! Treaty bootstraps confidentiality, integrity and freshness from a small
//! set of primitives (§V-A, §VII-A of the paper): AES-GCM authenticated
//! encryption for values, log records and network messages; SHA-256 for the
//! authenticated LSM structures; and a key hierarchy distributed by the CAS.
//!
//! The original system uses OpenSSL inside the enclave, where AES-GCM runs
//! on AES-NI and PCLMULQDQ and SHA-256 on the SHA extensions. Here every
//! entry point ([`aead_seal`], [`aead_open`], [`sha256`],
//! [`sha256_parts`](hash::sha256_parts), [`hmac_sign`],
//! [`hmac_sign_parts`](hash::hmac_sign_parts), [`hmac_verify`])
//! picks one of two paths per call:
//!
//! - on an x86_64 CPU with those instructions, `hw`'s implementations of
//!   AES-256-GCM, SHA-256 and HMAC-SHA-256 on them;
//! - anywhere else, the `aes-gcm`, `sha2` and `hmac` crates. The root
//!   manifest's `[patch.crates-io]` resolves these to the portable
//!   stand-ins under `benchmark/shims/`, checked against the NIST and RFC
//!   vectors.
//!
//! Both paths produce the same bytes, so nothing on disk or on the wire
//! depends on the CPU; the `oracle` tests compare them on seeded inputs.
//! Everything is really encrypted and verified, and every tag comparison
//! takes constant time ([`ct_eq`]).
//!
//! Every entry point counts its calls and bytes in [`ledger`], beside
//! what each [`Sealer`] prices, so a test can hold virtual time to the
//! crypto that runs.
//!
//! [`codec`] is the one binary format every byte that crosses the trust
//! boundary is written in; every crate that writes such a byte already
//! depends on this one.

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]
// The CPU's crypto instructions and the pointer loads they need are
// confined to `hw`, the one module that allows unchecked code.
#![deny(unsafe_code)]

pub mod codec;
pub mod hash;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;
pub mod keys;
pub mod ledger;
pub mod message;
pub mod sealer;

pub use hash::{ct_eq, hmac_sign, hmac_verify, sha256, Digest32};
pub use keys::{nonce, nonce_sender, Key, KeyHierarchy};
pub use ledger::Primitive;
pub use message::{
    EnvelopedMessage, MsgKind, Opened, SecureEnvelope, Stamp, TxMeta, MESSAGE_OVERHEAD,
};
pub use sealer::{Meter, Sealer};

/// The wire's old name for [`Protection`]. No code in this workspace names
/// it: it stays because the benchmark's probes do (ROADMAP item 7).
pub use Protection as WireCrypto;

/// How much a profile protects, on the wire and in storage alike; one
/// mapping from the profile picks it (`treaty_store::env::protection`).
/// The discriminant is a message's mode byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Protection {
    /// AES-256-GCM, confidentiality and integrity: a message's metadata
    /// and data with the GCM tag as its trailing MAC; a stored unit sealed.
    Full = 2,
    /// Integrity only, the "w/o Enc" variants: in clear, authenticated by
    /// HMAC-SHA-256 (a message's tag truncated to 16 B).
    AuthOnly = 1,
    /// No protection and no tag: the native baselines.
    Plain = 0,
}

use aes_gcm::aead::{Aead, Payload};
use aes_gcm::{Aes256Gcm, KeyInit, Nonce};

/// Error type for all cryptographic failures in this crate.
///
/// Deliberately carries no detail beyond the failure site: distinguishing
/// "bad MAC" from "bad padding" style oracles is exactly what an
/// authenticated-encryption API must not do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, thiserror::Error)]
pub enum CryptoError {
    /// Authenticated decryption failed: the ciphertext, nonce, or
    /// associated data was tampered with, or the wrong key was used.
    #[error("authentication failed: message or block was tampered with")]
    AuthFailed,
    /// The buffer is too short or structurally malformed.
    #[error("malformed cryptographic envelope")]
    Malformed,
    /// A [`Sealer`] refused an index at or below one it already sealed, or
    /// too wide for its nonce: sealing it would reuse a nonce.
    #[error("refused to reuse a nonce")]
    NonceReuse,
}

/// The output of authenticated encryption: `ciphertext ‖ tag(16B)`, with
/// the public nonce in front where [`Sealer::seal_framed`] puts it there.
///
/// This newtype is the root of Treaty's boundary taint discipline: the only
/// way to obtain one is to run [`aead_seal`], which storage reaches through
/// a [`Sealer`], so a value of this type is a *proof of encryption*.
/// `treaty-tee`'s `HostBytes` accepts it as evidence that bytes are safe to
/// place in untrusted host memory (§III placement invariant). Use [`Ciphertext::into_vec`] where a raw buffer is needed —
/// e.g. for wire framing or deliberate tampering in adversary tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext(Vec<u8>);

impl Ciphertext {
    /// Borrows the raw `ciphertext ‖ tag` bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the proof, yielding the raw bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }

    /// Total length in bytes (plaintext length + 16-byte tag).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff the buffer is empty (never produced by [`aead_seal`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl AsRef<[u8]> for Ciphertext {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Encrypts `plaintext` with AES-256-GCM.
///
/// Returns `ciphertext ‖ tag(16B)` wrapped in the [`Ciphertext`] proof
/// type. The `aad` is authenticated but not encrypted.
#[allow(clippy::useless_conversion)] // a `GenericArray` key in RustCrypto proper
#[allow(
    clippy::expect_used,
    reason = "AES-GCM refuses only inputs over 2^36 bytes, and the signature is fixed"
)]
pub fn aead_seal(key: &Key, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Ciphertext {
    ledger::ran(Primitive::Aes, aad.len() + plaintext.len());
    #[cfg(target_arch = "x86_64")]
    if let Some(gcm) = hw::AesGcm::detect() {
        return Ciphertext(gcm.seal(key.as_slice(), nonce, aad, plaintext));
    }
    let cipher = Aes256Gcm::new(key.as_slice().into());
    Ciphertext(
        cipher
            .encrypt(
                Nonce::from_slice(nonce),
                Payload {
                    msg: plaintext,
                    aad,
                },
            )
            .expect("AES-GCM encryption is infallible for in-memory buffers"),
    )
}

/// Decrypts and authenticates a buffer produced by [`aead_seal`].
///
/// # Errors
///
/// Returns [`CryptoError::AuthFailed`] if the tag does not verify, or if
/// `ciphertext` is shorter than a tag.
#[allow(clippy::useless_conversion)] // a `GenericArray` key in RustCrypto proper
pub fn aead_open(
    key: &Key,
    nonce: &[u8; 12],
    aad: &[u8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    ledger::ran(Primitive::Aes, aad.len() + ciphertext.len());
    #[cfg(target_arch = "x86_64")]
    if let Some(gcm) = hw::AesGcm::detect() {
        return gcm.open(key.as_slice(), nonce, aad, ciphertext);
    }
    let cipher = Aes256Gcm::new(key.as_slice().into());
    cipher
        .decrypt(
            Nonce::from_slice(nonce),
            Payload {
                msg: ciphertext,
                aad,
            },
        )
        .map_err(|_| CryptoError::AuthFailed)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let key = Key::from_bytes([7u8; 32]);
        let nonce = [1u8; 12];
        let ct = aead_seal(&key, &nonce, b"aad", b"hello treaty");
        assert_eq!(ct.len(), 12 + 16); // plaintext + tag
        let pt = aead_open(&key, &nonce, b"aad", ct.as_slice()).unwrap();
        assert_eq!(pt, b"hello treaty");
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let key = Key::from_bytes([7u8; 32]);
        let nonce = [1u8; 12];
        let mut ct = aead_seal(&key, &nonce, b"", b"payload").into_vec();
        ct[0] ^= 0xff;
        assert_eq!(
            aead_open(&key, &nonce, b"", &ct),
            Err(CryptoError::AuthFailed)
        );
    }

    #[test]
    fn tampered_aad_detected() {
        let key = Key::from_bytes([7u8; 32]);
        let nonce = [1u8; 12];
        let ct = aead_seal(&key, &nonce, b"header-v1", b"payload");
        assert_eq!(
            aead_open(&key, &nonce, b"header-v2", ct.as_slice()),
            Err(CryptoError::AuthFailed)
        );
    }

    #[test]
    fn wrong_key_detected() {
        let nonce = [9u8; 12];
        let ct = aead_seal(&Key::from_bytes([1u8; 32]), &nonce, b"", b"secret");
        assert_eq!(
            aead_open(&Key::from_bytes([2u8; 32]), &nonce, b"", ct.as_slice()),
            Err(CryptoError::AuthFailed)
        );
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let key = Key::from_bytes([3u8; 32]);
        let nonce = [0u8; 12];
        let ct = aead_seal(&key, &nonce, b"", b"very-secret-value");
        // The ciphertext must not contain the plaintext bytes.
        let needle = b"very-secret-value";
        assert!(!ct.as_slice().windows(needle.len()).any(|w| w == needle));
    }
}
