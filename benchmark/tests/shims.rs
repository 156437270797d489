//! The stand-in crates under `shims/` against published vectors and golden
//! strings. Every number the benchmark reports passes through them, so a
//! stand-in that is wrong makes the benchmark wrong.

use aes_gcm::aead::{Aead, Payload};
use aes_gcm::{Aes256Gcm, KeyInit, Nonce};
use hmac::{Hmac, Mac};
use serde::{Deserialize, Serialize};
use sha2::{Digest, Sha256};

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
    let key: [u8; 32] = key.try_into().unwrap();
    Aes256Gcm::new(&key)
        .encrypt(Nonce::from_slice(nonce), Payload { msg, aad })
        .unwrap()
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
    let plain = hex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
         1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
    );
    assert_eq!(
        to_hex(&gcm(&key, &iv, b"", &plain)),
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad\
         b094dac5d93471bdec1a502270e3cc6c"
    );
    let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    assert_eq!(
        to_hex(&gcm(&key, &iv, &aad, &plain[..60])),
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
    let key = Sha256::digest(b"k");
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
        assert_eq!(
            to_hex(&Sha256::digest(&sealed)),
            want,
            "len {len} aad {aad_len}"
        );
    }
}

#[test]
fn aes256_gcm_roundtrip_and_tamper_rejection() {
    let key = [7u8; 32];
    let cipher = Aes256Gcm::new(&key);
    let nonce = Nonce::from_slice(&[1u8; 12]);
    let sealed = cipher
        .encrypt(
            nonce,
            Payload {
                msg: b"hello treaty",
                aad: b"header",
            },
        )
        .unwrap();
    assert_eq!(sealed.len(), 12 + 16);
    let open = |msg: &[u8], aad: &[u8]| cipher.decrypt(nonce, Payload { msg, aad });
    assert_eq!(open(&sealed, b"header").unwrap(), b"hello treaty");
    assert!(open(&sealed, b"headez").is_err(), "changed AAD");
    for i in 0..sealed.len() {
        let mut bad = sealed.clone();
        bad[i] ^= 0x01;
        assert!(open(&bad, b"header").is_err(), "flipped bit in byte {i}");
    }
    assert!(
        open(&sealed[..15], b"header").is_err(),
        "shorter than a tag"
    );
    let other = Aes256Gcm::new(&[8u8; 32]);
    assert!(other
        .decrypt(
            nonce,
            Payload {
                msg: &sealed,
                aad: b"header"
            }
        )
        .is_err());
}

/// FIPS 180-4 examples.
#[test]
fn sha256_vectors() {
    assert_eq!(
        to_hex(&Sha256::digest(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        to_hex(&Sha256::digest(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        to_hex(&Sha256::digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
    // A million 'a's, fed in pieces that straddle block boundaries.
    let mut h = Sha256::new();
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
        to_hex(&h.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

/// RFC 4231 test cases 1, 2, 3 and 6.
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
        let mut mac = <Hmac<Sha256> as Mac>::new_from_slice(key).unwrap();
        mac.update(data);
        let tag = mac.clone().finalize().into_bytes();
        assert_eq!(to_hex(&tag), want);
        mac.clone().verify_slice(&tag).unwrap();
        let mut bad = tag;
        bad[31] ^= 1;
        assert!(mac.clone().verify_slice(&bad).is_err());
        assert!(mac.verify_slice(&tag[..31]).is_err());
    }
}

fn seven() -> u64 {
    7
}

#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct Record {
    id: u64,
    name: String,
    key: Vec<u8>,
    digest: [u8; 4],
    value: Option<Vec<u8>>,
    ratio: f64,
    delta: i64,
    pairs: Vec<(Vec<u8>, u32)>,
    #[serde(default)]
    extra: Vec<u32>,
    #[serde(default = "seven")]
    limit: u64,
    #[serde(skip)]
    scratch: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Message {
    Ack,
    Done(Option<u8>),
    Pair(u64, String),
    Put {
        key: Vec<u8>,
        value: Option<Vec<u8>>,
    },
    Nested(Wrapper),
}

fn json<T: Serialize>(v: &T) -> String {
    String::from_utf8(serde_json::to_vec(v).unwrap()).unwrap()
}

/// The strings are what the published `serde_json` writes for these types.
#[test]
fn serde_json_golden_strings() {
    let rec = Record {
        id: 18_446_744_073_709_551_615,
        name: "a\"b\\c\n\u{1}é".into(),
        key: vec![0, 7, 255],
        digest: [1, 2, 3, 4],
        value: None,
        ratio: 0.99,
        delta: -5,
        pairs: vec![(vec![1], 2)],
        extra: vec![9],
        limit: 3,
        scratch: 42,
    };
    let text = json(&rec);
    assert_eq!(
        text,
        "{\"id\":18446744073709551615,\"name\":\"a\\\"b\\\\c\\n\\u0001é\",\"key\":[0,7,255],\
         \"digest\":[1,2,3,4],\"value\":null,\"ratio\":0.99,\"delta\":-5,\"pairs\":[[[1],2]],\
         \"extra\":[9],\"limit\":3}"
    );
    let back: Record = serde_json::from_slice(text.as_bytes()).unwrap();
    assert_eq!(back, Record { scratch: 0, ..rec });

    assert_eq!(json(&Message::Ack), "\"Ack\"");
    assert_eq!(json(&Message::Done(Some(3))), "{\"Done\":3}");
    assert_eq!(json(&Message::Done(None)), "{\"Done\":null}");
    assert_eq!(json(&Message::Pair(1, "x".into())), "{\"Pair\":[1,\"x\"]}");
    assert_eq!(
        json(&Message::Put {
            key: vec![1, 2],
            value: Some(vec![])
        }),
        "{\"Put\":{\"key\":[1,2],\"value\":[]}}"
    );
    assert_eq!(json(&Message::Nested(Wrapper(5))), "{\"Nested\":5}");
    assert_eq!(json(&1.0f64), "1.0");
    for m in [
        Message::Ack,
        Message::Done(None),
        Message::Pair(9, "q".into()),
        Message::Put {
            key: vec![0],
            value: None,
        },
        Message::Nested(Wrapper(1)),
    ] {
        let back: Message = serde_json::from_slice(json(&m).as_bytes()).unwrap();
        assert_eq!(back, m);
    }
}

#[test]
fn serde_json_reads_what_serde_json_reads() {
    // Whitespace, reordered and unknown fields, a missing `Option`, a missing
    // `#[serde(default)]` field and a missing `#[serde(default = "…")]` field.
    let text = r#" { "unknown" : {"a":[1,{"b":null}],"c":"é\ud83d\ude00😀"},
        "name":"n", "id": 1, "key":[], "digest":[0,0,0,0], "ratio": 1e2,
        "delta": 0, "pairs": [ ] } "#;
    let rec: Record = serde_json::from_slice(text.as_bytes()).unwrap();
    assert_eq!(
        rec,
        Record {
            id: 1,
            name: "n".into(),
            ratio: 100.0,
            limit: 7,
            ..Record::default()
        }
    );
    let unit_in_map: Message = serde_json::from_slice(br#"{"Ack":null}"#).unwrap();
    assert_eq!(unit_in_map, Message::Ack);

    let bad: [&[u8]; 9] = [
        br#"{"id":1}"#,               // missing required fields
        br#""Nope""#,                 // unknown variant
        br#"{"Pair":[1]}"#,           // short tuple
        br#"{"Pair":[1,"x",2]}"#,     // long tuple
        br#"{"Done":256}"#,           // out of range for u8
        br#"{"Done":1.5}"#,           // not an integer
        br#""Ack" x"#,                // trailing characters
        br#"{"Put":{"key":[1,2],}}"#, // trailing comma
        br#"{"Nested":"#,             // truncated
    ];
    for text in bad {
        assert!(
            serde_json::from_slice::<Message>(text).is_err()
                && serde_json::from_slice::<Record>(text).is_err(),
            "{} should not parse",
            String::from_utf8_lossy(text)
        );
    }
    // The byte-array fast path is as strict as the element-by-element one.
    for text in [
        "[256]", "[1.5]", "[1,]", "[1 2]", "[-1]", "[1e2]", "[0001]", "[1", "[,1]", "[\"1\"]",
    ] {
        assert!(
            serde_json::from_slice::<Vec<u8>>(text.as_bytes()).is_err(),
            "{text} should not parse"
        );
    }
    assert_eq!(
        serde_json::from_slice::<Vec<u8>>(b" [ 0 , 255 ,7 ] ").unwrap(),
        [0, 255, 7]
    );
    assert_eq!(serde_json::from_slice::<Vec<u8>>(b"[]").unwrap(), [0u8; 0]);

    let wrong_len =
        br#"{"id":1,"name":"","key":[],"digest":[1,2,3],"ratio":0,"delta":0,"pairs":[]}"#;
    assert!(serde_json::from_slice::<Record>(wrong_len).is_err());
}

#[derive(Debug, thiserror::Error)]
#[error("inner failed with code {0}")]
struct Inner(u32);

#[derive(Debug, thiserror::Error)]
enum Failure {
    #[error("plain message")]
    Plain,
    #[error("txn {0} aborted: {1}")]
    Positional(u64, String),
    #[error("only {acks} of {needed} replied; key {key:?} {{braces}}")]
    Named {
        acks: usize,
        needed: usize,
        key: Vec<u8>,
    },
    #[error("wrapped: {0}")]
    Wrapped(#[from] Inner),
}

#[test]
fn thiserror_formats_and_converts() {
    assert_eq!(Failure::Plain.to_string(), "plain message");
    assert_eq!(
        Failure::Positional(7, "conflict".into()).to_string(),
        "txn 7 aborted: conflict"
    );
    let named = Failure::Named {
        acks: 1,
        needed: 2,
        key: vec![1, 2],
    };
    assert_eq!(
        named.to_string(),
        "only 1 of 2 replied; key [1, 2] {braces}"
    );
    let wrapped: Failure = Inner(3).into();
    assert_eq!(wrapped.to_string(), "wrapped: inner failed with code 3");
    let source = std::error::Error::source(&wrapped).expect("#[from] implies a source");
    assert_eq!(source.to_string(), "inner failed with code 3");
    assert!(std::error::Error::source(&Failure::Plain).is_none());
}

/// The park/unpark cell of `treaty-sim`'s runtime, which every fiber switch
/// goes through: a flag under a `Mutex`, a `Condvar::wait` loop on one side
/// and `notify_one` under the lock on the other.
#[test]
fn parking_lot_condvar_hand_off() {
    use parking_lot::{Condvar, Mutex};
    use std::sync::Arc;

    struct Cell {
        turn: Mutex<u32>,
        cv: Condvar,
    }
    let cell = Arc::new(Cell {
        turn: Mutex::new(0),
        cv: Condvar::new(),
    });
    const ROUNDS: u32 = 2_000;
    let threads: Vec<_> = (0..2u32)
        .map(|me| {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let mut turn = cell.turn.lock();
                    while *turn % 2 != me {
                        cell.cv.wait(&mut turn);
                    }
                    *turn += 1;
                    cell.cv.notify_one();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(*cell.turn.lock(), 2 * ROUNDS);
}

#[test]
fn parking_lot_locks_survive_a_panicking_holder() {
    use parking_lot::{Mutex, RwLock};
    use std::sync::Arc;

    let m = Arc::new(Mutex::new(1));
    let rw = Arc::new(RwLock::new(1));
    let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
    let _ = std::thread::spawn(move || {
        let _g = m2.lock();
        let _w = rw2.write();
        panic!("holder dies");
    })
    .join();
    *m.lock() += 1;
    *rw.write() += 1;
    assert_eq!((*m.lock(), *rw.read()), (2, 2));
    assert!(m.try_lock().is_some());
}

#[test]
fn chacha8_is_seeded_and_ranges_stay_in_bounds() {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    let mut a = ChaCha8Rng::seed_from_u64(42);
    let mut b = ChaCha8Rng::seed_from_u64(42);
    let mut c = ChaCha8Rng::seed_from_u64(43);
    let xs: Vec<u64> = (0..64).map(|_| a.gen()).collect();
    assert_eq!(xs, (0..64).map(|_| b.gen()).collect::<Vec<u64>>());
    assert_ne!(xs, (0..64).map(|_| c.gen()).collect::<Vec<u64>>());
    let mut seen = [false; 10];
    for _ in 0..1000 {
        seen[a.gen_range(0..10usize)] = true;
        assert!((1..=20u64).contains(&a.gen_range(1..=20u64)));
        assert!((-3..3i64).contains(&a.gen_range(-3..3i64)));
        let f: f64 = a.gen();
        assert!((0.0..1.0).contains(&f));
    }
    assert!(seen.iter().all(|&s| s));
    assert!(!a.gen_bool(0.0));
    assert!(a.gen_bool(1.0));
}
