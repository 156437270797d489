//! Keys, the key hierarchy distributed by the CAS, and nonce sequences.

use hmac::{Hmac, Mac};
use sha2::Sha256;

/// A 256-bit symmetric key.
///
/// `Debug` deliberately redacts the key material.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Key([u8; 32]);

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Key(<redacted>)")
    }
}

impl Key {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Key(bytes)
    }

    /// Generates a fresh random key from the OS entropy source.
    pub fn generate() -> Self {
        let mut bytes = [0u8; 32];
        rand::RngCore::fill_bytes(&mut rand::rngs::OsRng, &mut bytes);
        Key(bytes)
    }

    /// Deterministically derives a sub-key: `HMAC(self, label)`.
    ///
    /// This is the HKDF-expand pattern with a single block, sufficient for
    /// 256-bit outputs.
    pub fn derive(&self, label: &str) -> Key {
        let mut mac =
            <Hmac<Sha256> as Mac>::new_from_slice(&self.0).expect("HMAC accepts any key length");
        mac.update(label.as_bytes());
        let out = mac.finalize().into_bytes();
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(&out);
        Key(bytes)
    }

    /// Raw key bytes.
    pub fn as_slice(&self) -> &[u8; 32] {
        &self.0
    }
}

/// The cluster key hierarchy the CAS provisions to attested nodes (§VI).
///
/// All keys derive deterministically from one master secret, so the CAS
/// only ships 32 bytes to each verified enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHierarchy {
    /// Protects node-to-node and client-to-node messages.
    pub network: Key,
    /// Protects values, WAL/MANIFEST/Clog records and SSTable blocks.
    pub storage: Key,
    /// Seals enclave state (trusted counter snapshots) to local disk.
    pub sealing: Key,
    /// Authenticates trusted-counter protocol messages.
    pub counter: Key,
}

impl KeyHierarchy {
    /// Derives the full hierarchy from a master secret.
    pub fn from_master(master: &Key) -> Self {
        KeyHierarchy {
            network: master.derive("treaty/network"),
            storage: master.derive("treaty/storage"),
            sealing: master.derive("treaty/sealing"),
            counter: master.derive("treaty/counter"),
        }
    }

    /// A fixed hierarchy for tests and benchmarks.
    pub fn for_testing() -> Self {
        Self::from_master(&Key::from_bytes([42u8; 32]))
    }
}

/// A deterministic 96-bit nonce sequence: `sender_id ‖ counter`.
///
/// AES-GCM requires unique nonces per key; Treaty derives them from the
/// sender identity and a monotonic counter, which is also what makes the
/// simulation reproducible (no random nonces).
#[derive(Debug, Clone)]
pub struct NonceSeq {
    sender: u32,
    counter: u64,
}

impl NonceSeq {
    /// Creates a sequence for `sender`. Each sender id must be unique per
    /// key to preserve nonce uniqueness.
    pub fn new(sender: u32) -> Self {
        NonceSeq { sender, counter: 0 }
    }

    /// Returns the next nonce. Never repeats for a given sender.
    pub fn next(&mut self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&self.sender.to_be_bytes());
        nonce[4..].copy_from_slice(&self.counter.to_be_bytes());
        self.counter += 1;
        nonce
    }

    /// How many nonces have been issued.
    pub fn issued(&self) -> u64 {
        self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let master = Key::from_bytes([1u8; 32]);
        assert_eq!(master.derive("a"), master.derive("a"));
        assert_ne!(master.derive("a"), master.derive("b"));
        assert_ne!(master.derive("a"), master);
    }

    #[test]
    fn hierarchy_keys_are_distinct() {
        let h = KeyHierarchy::for_testing();
        let keys = [h.network, h.storage, h.sealing, h.counter];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn nonce_sequence_never_repeats() {
        let mut seq = NonceSeq::new(7);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(seq.next()));
        }
        assert_eq!(seq.issued(), 1000);
    }

    #[test]
    fn nonce_sequences_disjoint_across_senders() {
        let mut a = NonceSeq::new(1);
        let mut b = NonceSeq::new(2);
        let sa: HashSet<_> = (0..100).map(|_| a.next()).collect();
        assert!((0..100).map(|_| b.next()).all(|n| !sa.contains(&n)));
    }

    #[test]
    fn debug_redacts_key_material() {
        let k = Key::from_bytes([0xAB; 32]);
        let dbg = format!("{k:?}");
        assert!(!dbg.contains("171")); // 0xAB
        assert!(dbg.contains("redacted"));
    }

    #[test]
    fn generate_produces_distinct_keys() {
        assert_ne!(Key::generate(), Key::generate());
    }
}
