//! Stand-in for `hmac` 0.12: HMAC (RFC 2104) over the `sha2` stand-in, behind
//! the `Mac` subset the tree calls.

use std::marker::PhantomData;

use sha2::{Digest, Sha256};

/// A key of a length the MAC cannot use. HMAC accepts every length, so this
/// is never returned; it exists because `new_from_slice` is fallible in the
/// published API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLength;

/// The tag did not match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacError;

/// A finished tag. Compare through [`Mac::verify_slice`], which takes
/// constant time.
pub struct CtOutput([u8; 32]);

impl CtOutput {
    /// The tag bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }
}

/// The MAC operations the tree uses.
pub trait Mac: Sized {
    /// Keys the MAC with `key` of any length.
    fn new_from_slice(key: &[u8]) -> Result<Self, InvalidLength>;
    /// Absorbs `data`.
    fn update(&mut self, data: &[u8]);
    /// Finishes and returns the tag.
    fn finalize(self) -> CtOutput;
    /// Finishes and compares with `tag` in constant time.
    fn verify_slice(self, tag: &[u8]) -> Result<(), MacError> {
        let ours = self.finalize().0;
        if tag.len() != ours.len() {
            return Err(MacError);
        }
        let diff = ours.iter().zip(tag).fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff == 0 {
            Ok(())
        } else {
            Err(MacError)
        }
    }
}

/// HMAC over digest `D`; the stand-in provides `Hmac<Sha256>`.
#[derive(Clone)]
pub struct Hmac<D> {
    inner: Sha256,
    outer: Sha256,
    digest: PhantomData<D>,
}

impl Mac for Hmac<Sha256> {
    fn new_from_slice(key: &[u8]) -> Result<Self, InvalidLength> {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(block.map(|b| b ^ 0x5c));
        Ok(Hmac {
            inner,
            outer,
            digest: PhantomData,
        })
    }

    fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    fn finalize(mut self) -> CtOutput {
        self.outer.update(self.inner.finalize());
        CtOutput(self.outer.finalize())
    }
}
