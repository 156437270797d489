//! Keys, the key hierarchy distributed by the CAS, and nonce sequences.

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
        Key(crate::hash::hmac_sign(self, label.as_bytes()).0)
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

/// The deterministic 96-bit nonce of message `counter` from `sender`:
/// `sender ‖ counter`, both big-endian.
///
/// AES-GCM requires a nonce never used twice under one key. The sender id
/// keeps the endpoints that share a key apart; each endpoint must never
/// repeat a counter, across its restarts included (`treaty_net`'s `Rpc`
/// draws it from the counter that numbers its requests, which starts at
/// the endpoint's boot epoch). Deterministic nonces also keep the
/// simulation reproducible.
pub fn nonce(sender: u32, counter: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(&sender.to_be_bytes());
    nonce[4..].copy_from_slice(&counter.to_be_bytes());
    nonce
}

/// The sender id a [`nonce`] carries.
pub fn nonce_sender(nonce: &[u8; 12]) -> u32 {
    u32::from_be_bytes([nonce[0], nonce[1], nonce[2], nonce[3]])
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
        let mut seen = HashSet::new();
        for counter in 0..1000 {
            let n = nonce(7, counter);
            assert!(seen.insert(n));
            assert_eq!(nonce_sender(&n), 7);
        }
    }

    #[test]
    fn nonce_sequences_disjoint_across_senders() {
        let sa: HashSet<_> = (0..100).map(|c| nonce(1, c)).collect();
        assert!((0..100).map(|c| nonce(2, c)).all(|n| !sa.contains(&n)));
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
