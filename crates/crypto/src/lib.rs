//! Cryptographic primitives and the Treaty secure message format.
//!
//! Treaty bootstraps confidentiality, integrity and freshness from a small
//! set of primitives (§V-A, §VII-A of the paper): AES-GCM authenticated
//! encryption for values, log records and network messages; SHA-256 for the
//! authenticated LSM structures; and a key hierarchy distributed by the CAS.
//!
//! The original system uses OpenSSL inside the enclave; this reproduction
//! uses the pure-Rust RustCrypto implementations, which keeps the security
//! code real (everything is actually encrypted and verified) without any
//! system dependency.
//!
//! [`codec`] is the one binary format every byte that crosses the trust
//! boundary is written in; every crate that writes such a byte already
//! depends on this one.

// A node answers or refuses with a typed error; it never panics (§III).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unreachable))]

pub mod codec;
pub mod hash;
pub mod keys;
pub mod message;

pub use hash::{hmac_sign, hmac_verify, sha256, Digest32};
pub use keys::{nonce, nonce_sender, Key, KeyHierarchy};
pub use message::{
    EnvelopedMessage, MsgKind, Opened, SecureEnvelope, Stamp, TxMeta, WireCrypto, MESSAGE_OVERHEAD,
};

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
}

/// The output of authenticated encryption: `ciphertext ‖ tag(16B)`.
///
/// This newtype is the root of Treaty's boundary taint discipline: the only
/// way to obtain one is to run [`aead_seal`], so a value of this type is a
/// *proof of encryption*. `treaty-tee`'s `HostBytes` accepts it as evidence
/// that bytes are safe to place in untrusted host memory (§III placement
/// invariant). Use [`Ciphertext::into_vec`] where a raw buffer is needed —
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
/// Returns [`CryptoError::AuthFailed`] if the tag does not verify.
#[allow(clippy::useless_conversion)] // a `GenericArray` key in RustCrypto proper
pub fn aead_open(
    key: &Key,
    nonce: &[u8; 12],
    aad: &[u8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
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
