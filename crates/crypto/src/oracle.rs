//! The path the CPU selects against the stand-in crates, and known-answer
//! vectors.
//!
//! The public entry points run the hardware path where the CPU has the
//! instructions. The oracle is the `aes-gcm`, `sha2` and `hmac` crates
//! called directly; they are also the fallback, so on a CPU without the
//! instructions the differential tests compare the fallback with itself,
//! and say so on stderr.

#![allow(clippy::useless_conversion)] // a `GenericArray` key in RustCrypto proper

use std::io::Write as _;

use aes_gcm::aead::{Aead, Payload};
use aes_gcm::{Aes256Gcm, KeyInit, Nonce};
use hmac::{Hmac, Mac};
use sha2::{Digest, Sha256};

use crate::hash::{hmac, sha256_parts, Hasher};
use crate::{aead_open, aead_seal, ct_eq, hmac_sign, hmac_verify, sha256, CryptoError, Key};

/// SplitMix64: seeded inputs without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn array<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.next() as u8)
    }

    /// A byte to XOR in that changes what it hits.
    fn flip(&mut self) -> u8 {
        1 + self.below(255) as u8
    }
}

/// Says, where the test harness does not capture it, when the entry points
/// of `primitive` run the fallback: the test then compares the fallback
/// with itself, and must not pass silently.
fn note_if_no_hardware_path(primitive: &str) {
    #[cfg(target_arch = "x86_64")]
    let selected = match primitive {
        "AES-GCM" => crate::hw::AesGcm::detect().is_some(),
        _ => crate::hw::Sha256::new().is_some(),
    };
    #[cfg(not(target_arch = "x86_64"))]
    let selected = false;
    if !selected {
        let _ = writeln!(
            std::io::stderr(),
            "{primitive}: no hardware path on this CPU; compared the fallback with itself"
        );
    }
}

fn oracle_seal(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], msg: &[u8]) -> Vec<u8> {
    Aes256Gcm::new(key.into())
        .encrypt(Nonce::from_slice(nonce), Payload { msg, aad })
        .unwrap()
}

fn oracle_opens(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], msg: &[u8]) -> bool {
    Aes256Gcm::new(key.into())
        .decrypt(Nonce::from_slice(nonce), Payload { msg, aad })
        .is_ok()
}

fn oracle_sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize().into()
}

fn oracle_hmac(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = <Hmac<Sha256> as Mac>::new_from_slice(key).unwrap();
    mac.update(data);
    mac.finalize().into_bytes().into()
}

/// Both paths refuse `sealed` under these inputs, with the same error.
fn both_refuse(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> bool {
    aead_open(&Key::from_bytes(*key), nonce, aad, sealed) == Err(CryptoError::AuthFailed)
        && !oracle_opens(key, nonce, aad, sealed)
}

/// Every plaintext length 0..=4097 (so every tail length mod 16) with AAD
/// of 0..=64 bytes: `ciphertext ‖ tag` is byte-identical and opens. On a
/// sample of lengths, each single-byte change of ciphertext, tag, AAD or
/// nonce is refused by both, and so is every input shorter than a tag.
#[test]
fn aes_gcm_matches_the_oracle() {
    note_if_no_hardware_path("AES-GCM");
    let mut rng = Rng(0x7ea7_0001);
    for len in 0..=4097usize {
        let key = rng.array::<32>();
        let nonce = rng.array::<12>();
        let aad_len = rng.below(65);
        let aad = rng.bytes(aad_len);
        let msg = rng.bytes(len);
        let k = Key::from_bytes(key);
        let sealed = aead_seal(&k, &nonce, &aad, &msg).into_vec();
        assert!(sealed == oracle_seal(&key, &nonce, &aad, &msg), "len {len}");
        assert!(
            aead_open(&k, &nonce, &aad, &sealed).as_deref() == Ok(&msg[..]),
            "len {len}"
        );
        assert!(oracle_opens(&key, &nonce, &aad, &sealed), "len {len}");

        if len > 64 && len % 97 != 0 && len != 4097 {
            continue;
        }
        // Every byte of a short message and of every tag; the first
        // block and eight random bytes of a long one.
        let mut at: Vec<usize> = if sealed.len() <= 80 {
            (0..sealed.len()).collect()
        } else {
            (0..16).chain(sealed.len() - 16..sealed.len()).collect()
        };
        if sealed.len() > 80 {
            at.extend((0..8).map(|_| rng.below(sealed.len())));
        }
        for i in at {
            let mut bad = sealed.clone();
            bad[i] ^= rng.flip();
            assert!(both_refuse(&key, &nonce, &aad, &bad), "len {len} byte {i}");
        }
        for i in 0..aad.len() {
            let mut bad = aad.clone();
            bad[i] ^= rng.flip();
            assert!(
                both_refuse(&key, &nonce, &bad, &sealed),
                "len {len} aad {i}"
            );
        }
        for i in 0..nonce.len() {
            let mut bad = nonce;
            bad[i] ^= rng.flip();
            assert!(
                both_refuse(&key, &bad, &aad, &sealed),
                "len {len} nonce {i}"
            );
        }
        for short in 0..16.min(sealed.len()) {
            assert!(
                both_refuse(&key, &nonce, &aad, &sealed[..short]),
                "len {len} cut to {short}"
            );
        }
    }
}

/// SHA-256, `sha256_parts` and HMAC on every length 0..=4097, which holds
/// the padding edges 55/56/63/64/119/120, with HMAC keys of 0..=130 bytes;
/// `hmac_verify` accepts the tag and refuses it with one byte changed at a
/// random position. The padding edges are also fed in two pieces split at
/// every offset.
#[test]
fn sha256_and_hmac_match_the_oracle() {
    note_if_no_hardware_path("SHA-256");
    let mut rng = Rng(0x5a2_0001);
    for len in 0..=4097usize {
        let data = rng.bytes(len);
        assert_eq!(sha256(&data).0, oracle_sha256(&data), "len {len}");

        let mut cuts: Vec<usize> = (0..rng.below(4)).map(|_| rng.below(len + 1)).collect();
        cuts.sort_unstable();
        let mut parts: Vec<&[u8]> = Vec::new();
        let mut from = 0;
        for &c in &cuts {
            parts.push(&data[from..c]);
            from = c;
        }
        parts.push(&data[from..]);
        let mut prefixed = Vec::new();
        for p in &parts {
            prefixed.extend_from_slice(&(p.len() as u64).to_le_bytes());
            prefixed.extend_from_slice(p);
        }
        assert_eq!(
            sha256_parts(&parts).0,
            oracle_sha256(&prefixed),
            "len {len} cuts {cuts:?}"
        );

        let key_len = rng.below(131);
        let key = rng.bytes(key_len);
        assert_eq!(hmac(&key, &data).0, oracle_hmac(&key, &data), "len {len}");
        let key = Key::from_bytes(rng.array());
        let tag = hmac_sign(&key, &data);
        assert_eq!(tag.0, oracle_hmac(key.as_slice(), &data), "len {len}");
        assert_eq!(hmac_verify(&key, &data, &tag), Ok(()));
        let mut bad = tag;
        bad.0[rng.below(32)] ^= rng.flip();
        assert_eq!(hmac_verify(&key, &data, &bad), Err(CryptoError::AuthFailed));
    }
    for len in [55, 56, 63, 64, 119, 120] {
        let data = rng.bytes(len);
        for split in 0..=len {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(
                h.finish().0,
                oracle_sha256(&data),
                "len {len} split {split}"
            );
        }
    }
}

#[test]
fn ct_eq_compares_every_byte_and_the_length() {
    let tag = [0x5au8; 16];
    assert!(ct_eq(&tag, &tag));
    assert!(ct_eq(&[], &[]));
    for i in 0..tag.len() {
        for bit in 0..8 {
            let mut other = tag;
            other[i] ^= 1 << bit;
            assert!(!ct_eq(&tag, &other), "byte {i} bit {bit}");
        }
    }
    assert!(!ct_eq(&tag, &tag[..15]));
    assert!(!ct_eq(&tag[..15], &tag));
}

// ---------------------------------------------------------------------------
// Known answers, on whichever path the CPU selects. The same vectors check
// the stand-in crates in the benchmark's own suite.
// ---------------------------------------------------------------------------

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn gcm(key: &[u8], nonce: &[u8], aad: &[u8], msg: &[u8]) -> Vec<u8> {
    let key = Key::from_bytes(key.try_into().unwrap());
    aead_seal(&key, nonce.try_into().unwrap(), aad, msg).into_vec()
}

/// Test cases 13–16 of McGrew & Viega, "The Galois/Counter Mode of
/// Operation" (the vectors NIST SP 800-38D points to), AES-256.
#[test]
fn aes256_gcm_nist_vectors() {
    let zero_key = [0u8; 32];
    let zero_iv = [0u8; 12];
    assert_eq!(
        to_hex(&gcm(&zero_key, &zero_iv, b"", b"")),
        "530f8afbc74536b9a963b4f1c4cb738b"
    );
    assert_eq!(
        to_hex(&gcm(&zero_key, &zero_iv, b"", &[0u8; 16])),
        "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"
    );
    let key = hex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
    let iv = hex("cafebabefacedbaddecaf888");
    let msg = hex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
    );
    assert_eq!(
        to_hex(&gcm(&key, &iv, b"", &msg)),
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad\
         b094dac5d93471bdec1a502270e3cc6c"
    );
    let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    assert_eq!(
        to_hex(&gcm(&key, &iv, &aad, &msg[..60])),
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662\
         76fc6ece0f4e1768cddf8853bb2d551b"
    );
}

/// Lengths that are not multiples of the block size, with and without AAD.
/// Expected values are SHA-256 of the `ciphertext ‖ tag` OpenSSL produces
/// for the same inputs.
#[test]
fn aes256_gcm_odd_lengths_match_openssl() {
    let key = sha256(b"k").0;
    let nonce: Vec<u8> = (0..12).collect();
    for (len, aad_len, want) in [
        (
            1usize,
            0usize,
            "6d6ef6ce7e528271c6290ae3cf4fc25fd58c11053168e46073422cd29725dcad",
        ),
        (
            17,
            5,
            "fc3a3455af4de85025c714b3a1a035778afae0b3f290cdd49fa6d1b4e8e77e6e",
        ),
        (
            1000,
            33,
            "8855ca961fbb7c07c145a56ee14d5a77685140d27c2cb49b29c556a31cc6dcca",
        ),
        (
            4096,
            0,
            "ecc59e7c56fa0b6ec8131d3373ec40286a99d2af6cba29916e3719c03b8438c2",
        ),
    ] {
        let msg: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let aad: Vec<u8> = (0..aad_len).map(|i| (i * 5 + 1) as u8).collect();
        let sealed = gcm(&key, &nonce, &aad, &msg);
        assert_eq!(to_hex(&sha256(&sealed).0), want, "len {len} aad {aad_len}");
    }
}

/// FIPS 180-4 examples.
#[test]
fn sha256_vectors() {
    assert_eq!(
        to_hex(&sha256(b"abc").0),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        to_hex(&sha256(b"").0),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        to_hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").0),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
    // A million 'a's, fed in pieces that straddle block boundaries.
    let mut h = Hasher::new();
    let piece = [b'a'; 1000];
    let mut fed = 0;
    for step in (1..=97).cycle() {
        if fed == 1_000_000 {
            break;
        }
        let n = step.min(1_000_000 - fed);
        h.update(&piece[..n]);
        fed += n;
    }
    assert_eq!(
        to_hex(&h.finish().0),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

/// RFC 4231 test cases 1, 2, 3 and 6, on the keyed core.
#[test]
fn hmac_sha256_rfc4231() {
    let cases: [(&[u8], &[u8], &str); 4] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
    ];
    for (key, data, want) in cases {
        assert_eq!(to_hex(&hmac(key, data).0), want);
    }
}
