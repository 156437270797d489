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

/// A SHA-256 in progress, on the path the CPU selects.
pub(crate) enum Hasher {
    #[cfg(target_arch = "x86_64")]
    Hw(crate::hw::Sha256),
    Soft(Sha256),
}

impl Hasher {
    pub(crate) fn new() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(h) = crate::hw::Sha256::new() {
            return Hasher::Hw(h);
        }
        Hasher::Soft(Sha256::new())
    }

    pub(crate) fn update(&mut self, data: &[u8]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Hasher::Hw(h) => h.update(data),
            Hasher::Soft(h) => h.update(data),
        }
    }

    pub(crate) fn finish(self) -> Digest32 {
        match self {
            #[cfg(target_arch = "x86_64")]
            Hasher::Hw(h) => Digest32(h.finish()),
            Hasher::Soft(h) => Digest32(h.finalize().into()),
        }
    }
}

/// SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// SHA-256 over multiple segments without concatenating them first.
pub fn sha256_parts(parts: &[&[u8]]) -> Digest32 {
    let mut h = Hasher::new();
    for p in parts {
        // Length-prefix each part so ("ab","c") != ("a","bc").
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finish()
}

/// HMAC-SHA-256 under a key of any length: the core of [`hmac_sign`] and
/// [`hmac_verify`].
#[allow(clippy::expect_used, reason = "HMAC accepts a key of any length")]
pub(crate) fn hmac(key: &[u8], data: &[u8]) -> Digest32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(tag) = crate::hw::hmac(key, data) {
        return Digest32(tag);
    }
    let mut mac = <Hmac<Sha256> as Mac>::new_from_slice(key).expect("any key length");
    mac.update(data);
    Digest32(mac.finalize().into_bytes().into())
}

/// HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sign(key: &Key, data: &[u8]) -> Digest32 {
    hmac(key.as_slice(), data)
}

/// Verifies an HMAC produced by [`hmac_sign`] in constant time.
///
/// # Errors
///
/// Returns [`CryptoError::AuthFailed`] on mismatch.
pub fn hmac_verify(key: &Key, data: &[u8], tag: &Digest32) -> Result<(), CryptoError> {
    if ct_eq(&hmac(key.as_slice(), data).0, &tag.0) {
        Ok(())
    } else {
        Err(CryptoError::AuthFailed)
    }
}

/// Whether `a` and `b` hold the same bytes, in a time that depends only on
/// their lengths: the comparison for every MAC and tag, truncated ones
/// included.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let diff = a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y));
    // Keeps the optimizer from turning the fold into an early exit.
    std::hint::black_box(diff) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

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
