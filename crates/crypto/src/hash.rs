//! Hashing and MACs for the authenticated LSM structures.

// RustCrypto's digests are `GenericArray`s and need the `.into()`; the
// in-tree stand-ins return the array itself.
#![allow(clippy::useless_conversion)]

use hmac::{Hmac, Mac};
use sha2::{Digest, Sha256};

use crate::keys::Key;
use crate::CryptoError;

/// A 256-bit digest (SHA-256 or HMAC-SHA-256 output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Digest32(pub [u8; 32]);

impl Digest32 {
    /// Short hex prefix for logs.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(data);
    Digest32(h.finalize().into())
}

/// SHA-256 over multiple segments without concatenating them first.
pub fn sha256_parts(parts: &[&[u8]]) -> Digest32 {
    let mut h = Sha256::new();
    for p in parts {
        // Length-prefix each part so ("ab","c") != ("a","bc").
        h.update((p.len() as u64).to_le_bytes());
        h.update(p);
    }
    Digest32(h.finalize().into())
}

/// HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sign(key: &Key, data: &[u8]) -> Digest32 {
    let mut mac = <Hmac<Sha256> as Mac>::new_from_slice(key.as_slice()).expect("any key length");
    mac.update(data);
    Digest32(mac.finalize().into_bytes().into())
}

/// Verifies an HMAC produced by [`hmac_sign`] in constant time.
///
/// # Errors
///
/// Returns [`CryptoError::AuthFailed`] on mismatch.
pub fn hmac_verify(key: &Key, data: &[u8], tag: &Digest32) -> Result<(), CryptoError> {
    let mut mac = <Hmac<Sha256> as Mac>::new_from_slice(key.as_slice()).expect("any key length");
    mac.update(data);
    mac.verify_slice(&tag.0)
        .map_err(|_| CryptoError::AuthFailed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_known_answer() {
        // SHA-256("abc")
        let d = sha256(b"abc");
        assert_eq!(
            d.0[..4],
            [0xba, 0x78, 0x16, 0xbf],
            "SHA-256 test vector mismatch"
        );
    }

    #[test]
    fn sha256_parts_is_injective_on_boundaries() {
        assert_ne!(sha256_parts(&[b"ab", b"c"]), sha256_parts(&[b"a", b"bc"]));
        assert_eq!(sha256_parts(&[b"ab", b"c"]), sha256_parts(&[b"ab", b"c"]));
    }

    #[test]
    fn hmac_roundtrip_and_tamper() {
        let key = Key::from_bytes([5u8; 32]);
        let tag = hmac_sign(&key, b"manifest entry");
        hmac_verify(&key, b"manifest entry", &tag).unwrap();
        assert_eq!(
            hmac_verify(&key, b"manifest entrx", &tag),
            Err(CryptoError::AuthFailed)
        );
        let other = Key::from_bytes([6u8; 32]);
        assert_eq!(
            hmac_verify(&other, b"manifest entry", &tag),
            Err(CryptoError::AuthFailed)
        );
    }

    #[test]
    fn short_hex_is_stable() {
        let d = sha256(b"abc");
        assert_eq!(d.short_hex(), "ba7816bf");
    }
}
