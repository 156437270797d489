//! SGX-style sealing: binding enclave state to the enclave identity.

use treaty_crypto::codec;
use treaty_crypto::codec::Record;
use treaty_crypto::{aead_open, aead_seal, Key};

use crate::attest::Measurement;
use crate::TeeError;

/// An encrypted, measurement-bound blob suitable for untrusted storage.
/// On disk it is a [`Record`]: the nonce, then the length-prefixed
/// `ciphertext ‖ tag`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
}

codec!(struct SealedBlob { nonce, ciphertext });

impl Record for SealedBlob {
    const MAGIC: u8 = 0x81;
}

/// Seals `state` for the enclave identified by `measurement`.
///
/// The measurement enters the AEAD associated data, so a different enclave
/// (different code) cannot unseal the blob even with the same sealing key —
/// the MRENCLAVE sealing policy.
pub fn seal(key: &Key, measurement: &Measurement, nonce: [u8; 12], state: &[u8]) -> SealedBlob {
    let ciphertext = aead_seal(key, &nonce, &measurement.0 .0, state).into_vec();
    SealedBlob { nonce, ciphertext }
}

impl SealedBlob {
    /// The AEAD nonce (public framing).
    pub fn nonce(&self) -> &[u8; 12] {
        &self.nonce
    }

    /// The sealed `ciphertext ‖ tag` bytes.
    pub fn ciphertext(&self) -> &[u8] {
        &self.ciphertext
    }
}

/// Unseals a blob sealed by [`seal`].
///
/// # Errors
///
/// Returns [`TeeError::UnsealFailed`] if the key or measurement differs or
/// the blob was tampered with.
pub fn unseal(
    key: &Key,
    measurement: &Measurement,
    blob: &SealedBlob,
) -> Result<Vec<u8>, TeeError> {
    aead_open(key, &blob.nonce, &measurement.0 .0, &blob.ciphertext)
        .map_err(|_| TeeError::UnsealFailed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let key = Key::from_bytes([8u8; 32]);
        let m = Measurement::of_code("treaty");
        let blob = seal(&key, &m, [1u8; 12], b"counter=42");
        assert_eq!(unseal(&key, &m, &blob).unwrap(), b"counter=42");
    }

    #[test]
    fn different_measurement_cannot_unseal() {
        let key = Key::from_bytes([8u8; 32]);
        let blob = seal(&key, &Measurement::of_code("treaty"), [1u8; 12], b"s");
        assert_eq!(
            unseal(&key, &Measurement::of_code("evil"), &blob),
            Err(TeeError::UnsealFailed)
        );
    }

    #[test]
    fn tampered_blob_rejected() {
        let key = Key::from_bytes([8u8; 32]);
        let m = Measurement::of_code("treaty");
        let mut blob = seal(&key, &m, [1u8; 12], b"state");
        blob.ciphertext[0] ^= 1;
        assert_eq!(unseal(&key, &m, &blob), Err(TeeError::UnsealFailed));
    }

    #[test]
    fn sealed_blob_hides_state() {
        let key = Key::from_bytes([8u8; 32]);
        let m = Measurement::of_code("treaty");
        let blob = seal(&key, &m, [1u8; 12], b"super-secret-counter-state");
        let needle = b"super-secret-counter-state";
        assert!(!blob.ciphertext.windows(needle.len()).any(|w| w == needle));
    }
}
