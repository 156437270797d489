//! Per-table Bloom filters for the secure LSM read path.
//!
//! A filter is built over the *user keys* of an SSTable at build time and
//! serialized into the table's meta footer, so it is covered by the same
//! seal/HMAC as the rest of the footer: an adversary who flips filter bits
//! in untrusted storage (to force spurious misses or extra block reads) is
//! detected at open, exactly like a tampered block digest.
//!
//! The filter itself is the classic double-hashing construction
//! (Kirsch–Mitzenstein): two 64-bit hashes `h1`, `h2` derive the `k` probe
//! positions `h1 + i * h2`. Hashing is plain FNV-1a — the filter is an
//! in-enclave performance structure, not a cryptographic commitment; its
//! integrity comes from the sealed footer, not from the hash function.

use treaty_crypto::codec::{CodecError, Decode, Encode, Reader, Writer};

/// A Bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    /// The bit array, little-endian within each byte.
    bits: Vec<u8>,
    /// Number of probes per key.
    k: u32,
}

/// Probe counts [`BloomFilter::new`] can choose.
const PROBES: std::ops::RangeInclusive<u32> = 1..=30;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    let mut h = seed;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A key's 64-bit FNV-1a fingerprint: the MemTable's key filter stores
/// these, and it is also the first of a filter's two probe hashes.
pub(crate) fn fingerprint(key: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, key)
}

fn probes(key: &[u8]) -> (u64, u64) {
    let h1 = fingerprint(key);
    // Derive the second hash from the first so a single pass over the key
    // suffices; force it odd so it is coprime with any power-of-two range.
    let h2 = fnv1a(FNV_OFFSET ^ h1.rotate_left(31), key) | 1;
    (h1, h2)
}

impl BloomFilter {
    /// Creates an empty filter sized for `expected_keys` distinct keys at
    /// `bits_per_key` bits each (10 bits/key ≈ 1% false positives).
    pub fn new(expected_keys: usize, bits_per_key: usize) -> Self {
        let nbits = (expected_keys.max(1) * bits_per_key.max(1)).max(64);
        let nbytes = nbits.div_ceil(8);
        // Optimal probe count is bits_per_key * ln 2 ≈ 0.69 * bits_per_key.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(*PROBES.start(), *PROBES.end());
        BloomFilter {
            bits: vec![0u8; nbytes],
            k,
        }
    }

    /// Number of bits in the filter.
    fn nbits(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }

    /// Adds `key` to the filter.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = probes(key);
        let nbits = self.nbits();
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % nbits;
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    /// True if `key` *may* be in the set; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = probes(key);
        let nbits = self.nbits();
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % nbits;
            if self.bits[(bit / 8) as usize] & (1 << (bit % 8)) == 0 {
                return false;
            }
        }
        true
    }

    /// Approximate in-enclave footprint in bytes (bit array + header).
    pub fn approx_bytes(&self) -> usize {
        self.bits.len() + 8
    }
}

impl Encode for BloomFilter {
    fn encode(&self, w: &mut Writer) {
        self.bits.encode(w);
        self.k.encode(w);
    }
}

/// Refuses what [`BloomFilter::new`] never builds: an empty bit array
/// (every probe would divide by zero) or a probe count out of range.
impl Decode for BloomFilter {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bits: Vec<u8> = Decode::decode(r)?;
        let k = Decode::decode(r)?;
        if bits.is_empty() || !PROBES.contains(&k) {
            return Err(CodecError::Invalid("bloom filter shape"));
        }
        Ok(BloomFilter { bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, tag: &str) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("{tag}-{i:06}").into_bytes())
            .collect()
    }

    #[test]
    fn inserted_keys_always_hit() {
        let resident = keys(1000, "in");
        let mut f = BloomFilter::new(resident.len(), 10);
        for k in &resident {
            f.insert(k);
        }
        for k in &resident {
            assert!(f.may_contain(k), "no false negatives allowed");
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let resident = keys(1000, "in");
        let mut f = BloomFilter::new(resident.len(), 10);
        for k in &resident {
            f.insert(k);
        }
        let absent = keys(10_000, "out");
        let fps = absent.iter().filter(|k| f.may_contain(k)).count();
        // 10 bits/key targets ~1%; accept a generous 3% margin.
        assert!(
            fps < 300,
            "false-positive rate too high: {fps}/10000 at 10 bits/key"
        );
    }

    #[test]
    fn codec_roundtrip_preserves_answers() {
        use treaty_crypto::codec::{from_bytes, to_bytes};
        let mut f = BloomFilter::new(100, 10);
        for k in keys(100, "in") {
            f.insert(&k);
        }
        let g: BloomFilter = from_bytes(0, &to_bytes(0, &f)).unwrap();
        assert_eq!(f, g);
        for k in keys(100, "in") {
            assert!(g.may_contain(&k));
        }
    }

    #[test]
    fn a_filter_no_build_produces_does_not_decode() {
        use treaty_crypto::codec::{from_bytes, to_bytes};
        for (bits, k) in [
            (Vec::<u8>::new(), 7u32),
            (vec![0xFF; 8], 0),
            (vec![0xFF; 8], 31),
        ] {
            let forged = to_bytes(0, &(bits, k));
            assert!(from_bytes::<BloomFilter>(0, &forged).is_err(), "k = {k}");
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(0, 10);
        assert!(!f.may_contain(b"anything"));
    }
}
