//! Attestation primitives: measurements and quotes.
//!
//! The hardware root of trust (the key SGX fuses into the CPU) becomes a
//! software secret held by [`HardwareRoot`] — the one and only point where
//! this reproduction substitutes software for silicon. Everything above it
//! (quote generation, verification, the CAS/LAS chain in `treaty-cas`)
//! follows the paper's protocol.

use treaty_crypto::{hash, Digest32, Key};

use crate::TeeError;

/// An enclave measurement (MRENCLAVE): the hash of the code identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub Digest32);

impl Measurement {
    /// Measures a code identity string (stand-in for hashing the enclave
    /// binary pages).
    pub fn of_code(identity: &str) -> Self {
        Measurement(hash::sha256(identity.as_bytes()))
    }
}

/// A signed attestation quote binding a measurement to caller-chosen
/// report data (e.g. a public key or nonce).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The attested enclave's measurement.
    pub measurement: Measurement,
    /// Caller-chosen data bound into the quote.
    pub report_data: Vec<u8>,
    /// Signature by the hardware root (HMAC in this reproduction).
    signature: Digest32,
}

/// The simulated hardware root of trust: can issue quotes (as the Quoting
/// Enclave would) and verify them (as the Intel Attestation Service would).
#[derive(Debug, Clone)]
pub struct HardwareRoot {
    key: Key,
}

impl HardwareRoot {
    /// Creates a root with the given secret. All machines of a simulated
    /// deployment share one root, mirroring Intel's signing authority.
    pub fn new(secret: Key) -> Self {
        HardwareRoot {
            key: secret.derive("tee/hardware-root"),
        }
    }

    fn quote_bytes(measurement: &Measurement, report_data: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + report_data.len());
        buf.extend_from_slice(&measurement.0 .0);
        buf.extend_from_slice(report_data);
        buf
    }

    /// Issues a quote over `measurement` and `report_data`.
    pub fn issue_quote(&self, measurement: Measurement, report_data: Vec<u8>) -> Quote {
        let signature = hash::hmac_sign(&self.key, &Self::quote_bytes(&measurement, &report_data));
        Quote {
            measurement,
            report_data,
            signature,
        }
    }

    /// Verifies a quote, additionally checking it attests `expected`
    /// (the verifier's known-good measurement).
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadQuote`] if the signature is invalid or the
    /// measurement is not the expected one.
    pub fn verify_quote(&self, quote: &Quote, expected: &Measurement) -> Result<(), TeeError> {
        if quote.measurement != *expected {
            return Err(TeeError::BadQuote);
        }
        hash::hmac_verify(
            &self.key,
            &Self::quote_bytes(&quote.measurement, &quote.report_data),
            &quote.signature,
        )
        .map_err(|_| TeeError::BadQuote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> HardwareRoot {
        HardwareRoot::new(Key::from_bytes([3u8; 32]))
    }

    #[test]
    fn quote_roundtrip() {
        let m = Measurement::of_code("treaty-node-v1");
        let q = root().issue_quote(m, b"node-pubkey".to_vec());
        root().verify_quote(&q, &m).unwrap();
    }

    #[test]
    fn wrong_measurement_rejected() {
        let m = Measurement::of_code("treaty-node-v1");
        let evil = Measurement::of_code("malicious-node");
        let q = root().issue_quote(evil, vec![]);
        assert_eq!(root().verify_quote(&q, &m), Err(TeeError::BadQuote));
    }

    #[test]
    fn forged_signature_rejected() {
        let m = Measurement::of_code("treaty-node-v1");
        let mut q = root().issue_quote(m, b"data".to_vec());
        q.report_data = b"datA".to_vec(); // signature no longer matches
        assert_eq!(root().verify_quote(&q, &m), Err(TeeError::BadQuote));
    }

    #[test]
    fn different_root_rejects() {
        let m = Measurement::of_code("treaty-node-v1");
        let q = root().issue_quote(m, vec![]);
        let other = HardwareRoot::new(Key::from_bytes([4u8; 32]));
        assert_eq!(other.verify_quote(&q, &m), Err(TeeError::BadQuote));
    }

    #[test]
    fn measurement_is_code_dependent() {
        assert_ne!(Measurement::of_code("a"), Measurement::of_code("b"));
        assert_eq!(Measurement::of_code("a"), Measurement::of_code("a"));
    }
}
