//! Property tests over the core data structures and invariants, as plain
//! seeded loops: every case draws its inputs from a `ChaCha8Rng` seeded
//! with the case number, so a failure names the case that reproduces it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use treaty::crypto::{Key, Protection, SecureEnvelope, TxMeta};
use treaty::sim::{Histogram, SecurityProfile};
use treaty::store::engine::TreatyStore;
use treaty::store::env::Env;
use treaty::store::memtable::{MemTable, RangeTombstone, SeqNum, UserKey, VersionedEntry};
use treaty::store::txn::TxBuffer;
use treaty::store::{EngineTxn as _, TxnMode};

/// Cases per property (the engine round trip runs [`ENGINE_CASES`]).
const CASES: u64 = 64;
/// The engine round trip is slower: fewer cases.
const ENGINE_CASES: u64 = 12;

/// Runs `body` once per case with that case's generator.
fn for_each_case(cases: u64, mut body: impl FnMut(u64, &mut ChaCha8Rng)) {
    for case in 0..cases {
        body(case, &mut ChaCha8Rng::seed_from_u64(case));
    }
}

/// A key of up to `max_len` bytes over a six-letter alphabet, so spans
/// drawn the same way often hold keys, and are often empty or inverted.
fn small_key(rng: &mut ChaCha8Rng, min_len: usize, max_len: usize) -> UserKey {
    (0..rng.gen_range(min_len..=max_len))
        .map(|_| b'a' + rng.gen_range(0..6u8))
        .collect()
}

/// A MemTable's range cursor and its freeze yield every point version in
/// `(key asc, seq desc)` order, as an ordered map of the same writes does,
/// and each version the cursor yields opens to the value written; range
/// deletes ride beside the versions, never inside the cursor.
#[test]
fn memtable_cursor_models_btreemap() {
    for_each_case(CASES, |case, rng| {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let mt = std::rc::Rc::new(MemTable::new(env));
        // `None` is a point delete.
        let mut model: BTreeMap<(UserKey, Reverse<SeqNum>), Option<Vec<u8>>> = BTreeMap::new();
        let mut tombstones = Vec::new();
        for seq in 1..=rng.gen_range(0..200u64) {
            let key = small_key(rng, 1, 2);
            match rng.gen_range(0..10u8) {
                0..=5 => {
                    let value = seq.to_le_bytes().to_vec();
                    mt.put(&key, seq, &value);
                    model.insert((key, Reverse(seq)), Some(value));
                }
                6..=8 => {
                    mt.delete(&key, seq);
                    model.insert((key, Reverse(seq)), None);
                }
                _ => {
                    let end = small_key(rng, 1, 2);
                    if key < end {
                        mt.delete_range(&key, &end, seq);
                        tombstones.push(RangeTombstone {
                            start: key,
                            end,
                            seq,
                        });
                    }
                }
            }
        }
        let versions = |start: &[u8], end: Option<&[u8]>| -> Vec<VersionedEntry> {
            model
                .iter()
                .filter(|((k, _), _)| start <= k.as_slice() && end.is_none_or(|e| k.as_slice() < e))
                .map(|((k, Reverse(seq)), v)| (k.clone(), *seq, v.clone()))
                .collect()
        };
        for _ in 0..16 {
            let start = small_key(rng, 0, 2);
            let end = rng.gen_bool(0.8).then(|| small_key(rng, 0, 2));
            let mut got = Vec::new();
            for (key, seq, entry) in mt.range_cursor(&start, end.as_deref()) {
                let value = mt.open(&key, &entry).unwrap();
                got.push((key, seq, value));
            }
            let want = versions(&start, end.as_deref());
            assert_eq!(got, want, "case {case}: span {start:?}..{end:?}");
        }
        assert_eq!(
            mt.freeze_entries().unwrap(),
            versions(b"", None),
            "case {case}"
        );
        assert_eq!(mt.range_tombstones(), tombstones, "case {case}");
    });
}

/// Secure envelopes round-trip any payload in every mode, and reject
/// any single-byte corruption in the protected modes.
#[test]
fn envelope_roundtrip_and_tamper() {
    for_each_case(CASES, |case, rng| {
        let mut payload = vec![0u8; rng.gen_range(0..512usize)];
        rng.fill_bytes(&mut payload);
        let flip = rng.gen_range(0..=u16::MAX);
        let mode = [Protection::AuthOnly, Protection::Full][rng.gen_range(0..2usize)];

        let key = Key::from_bytes([7u8; 32]);
        let env = SecureEnvelope::new(mode);
        let meta = TxMeta::new(1, 2, 3);
        let wire = env.seal(&key, [9u8; 12], &meta, &payload).into_vec();
        let (m, p) = env.open(&key, &wire).unwrap();
        assert_eq!(m, meta, "case {case}");
        assert_eq!(p, payload, "case {case}");

        let mut corrupted = wire.clone();
        let idx = (flip as usize) % corrupted.len();
        corrupted[idx] ^= 0x01;
        assert!(
            env.open(&key, &corrupted).is_err(),
            "case {case}: corruption at byte {idx} must be detected"
        );
    });
}

/// MemTable snapshot reads return the newest version <= snapshot,
/// matching a naive model.
#[test]
fn memtable_versioned_reads_model() {
    for_each_case(CASES, |case, rng| {
        let writes: Vec<(u8, u16)> = (0..rng.gen_range(1..60usize))
            .map(|_| (rng.gen_range(0..8u8), rng.gen_range(0..=u16::MAX)))
            .collect();
        let probe_key = rng.gen_range(0..8u8);
        let probe_seq_raw = rng.gen::<u64>();

        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let mt = MemTable::new(env);
        let mut model: HashMap<u8, Vec<(SeqNum, u16)>> = HashMap::new();
        for (seq0, (k, v)) in writes.iter().enumerate() {
            let seq = (seq0 + 1) as SeqNum;
            mt.put(&[*k], seq, &v.to_le_bytes());
            model.entry(*k).or_default().push((seq, *v));
        }
        let snapshot = probe_seq_raw % (writes.len() as u64 + 2);
        let got = mt.get(&[probe_key], snapshot).unwrap();
        let want = model
            .get(&probe_key)
            .and_then(|versions| {
                versions
                    .iter()
                    .filter(|(s, _)| *s <= snapshot)
                    .max_by_key(|(s, _)| *s)
            })
            .map(|(_, v)| v.to_le_bytes().to_vec());
        assert_eq!(got.map(|o| o.unwrap()), want, "case {case}");
    });
}

/// TxBuffer read-my-own-writes matches a last-writer-wins map.
#[test]
fn txbuffer_models_map() {
    for_each_case(CASES, |case, rng| {
        let mut buf = TxBuffer::new();
        let mut model: HashMap<u8, Option<u32>> = HashMap::new();
        for _ in 0..rng.gen_range(0..60usize) {
            let k = rng.gen_range(0..6u8);
            let v = rng.gen_bool(0.5).then(|| rng.gen::<u32>());
            match v {
                Some(v) => buf.put(&[k], &v.to_le_bytes()),
                None => buf.delete(&[k]),
            }
            model.insert(k, v);
        }
        for k in 0u8..6 {
            let got = buf.get(&[k]);
            let want = model.get(&k).map(|v| v.map(|v| v.to_le_bytes().to_vec()));
            assert_eq!(got, want, "case {case}");
        }
        assert_eq!(buf.len(), model.len(), "case {case}");
        // to_ops carries exactly the model's final state.
        let ops_out = buf.to_ops();
        assert_eq!(ops_out.len(), model.len(), "case {case}");
        for op in ops_out {
            let want = model[&op.key[0]].map(|v| v.to_le_bytes().to_vec());
            assert_eq!(op.value, want, "case {case}");
        }
    });
}

/// Histogram quantiles are order statistics: the extremes exactly, the
/// median within one bucket (`1/64`) below the sorted sample's.
#[test]
fn histogram_quantiles_are_order_statistics() {
    for_each_case(CASES, |case, rng| {
        let mut samples: Vec<u64> = (0..rng.gen_range(1..200usize))
            .map(|_| u64::from(rng.gen::<u32>()))
            .collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        assert_eq!(h.quantile(0.0), samples[0], "case {case}");
        assert_eq!(h.quantile(1.0), samples[samples.len() - 1], "case {case}");
        // Nearest rank, as `Histogram::quantile` defines it; a bucketed
        // quantile reports its bucket's lower bound.
        let rank = (samples.len() as f64 * 0.5).ceil().max(1.0) as usize;
        let want = samples[rank - 1];
        let p50 = h.quantile(0.5);
        assert!(
            p50 <= want && want - p50 <= want / 64,
            "case {case}: p50 {p50} vs order statistic {want}"
        );
    });
}

/// Whatever sequence of committed puts/deletes runs, a reopened store
/// agrees with a HashMap model — across flushes and compactions.
#[test]
fn engine_matches_model_across_recovery() {
    for_each_case(ENGINE_CASES, |case, rng| {
        let ops: Vec<(u8, Option<Vec<u8>>)> = (0..rng.gen_range(1..60usize))
            .map(|_| {
                let k = rng.gen_range(0..12u8);
                let v = rng.gen_bool(0.5).then(|| {
                    let mut v = vec![0u8; rng.gen_range(1..80usize)];
                    rng.fill_bytes(&mut v);
                    v
                });
                (k, v)
            })
            .collect();

        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let mut model: HashMap<u8, Option<Vec<u8>>> = HashMap::new();
        {
            let store = TreatyStore::open(std::rc::Rc::clone(&env)).unwrap();
            for (k, v) in &ops {
                let mut tx = store.begin_mode(TxnMode::Pessimistic);
                match v {
                    Some(v) => tx.put(&[*k], v).unwrap(),
                    None => tx.delete(&[*k]).unwrap(),
                }
                tx.commit().unwrap();
                model.insert(*k, v.clone());
            }
            store.flush().unwrap();
        }
        let store = TreatyStore::open(env).unwrap();
        for (k, want) in &model {
            let got = store.get_committed(&[*k]).unwrap();
            assert_eq!(&got, want, "case {case}: key {k}");
        }
    });
}

/// One committed write in [`engine_reads_every_key_like_a_model`].
enum Write {
    Put(u8, Vec<u8>),
    Delete(u8),
    DeleteRange(u8, u8),
}

/// Random puts, deletes and range deletes, with the odd flush between
/// them so MemTable entries and range tombstones sit over SSTables: every
/// key of the space, keys never written included, reads as a `BTreeMap`
/// model says — from the MemTable, after a flush and after a reopen.
#[test]
fn engine_reads_every_key_like_a_model() {
    /// Point writes touch keys below this.
    const WRITTEN: u8 = 12;
    /// Reads cover keys below this; range deletes reach it.
    const SPACE: u8 = 16;
    for_each_case(ENGINE_CASES, |case, rng| {
        let writes: Vec<(Write, bool)> = (0..rng.gen_range(1..60usize))
            .map(|_| {
                let write = match rng.gen_range(0..10u8) {
                    0..=5 => {
                        let mut v = vec![0u8; rng.gen_range(1..80usize)];
                        rng.fill_bytes(&mut v);
                        Write::Put(rng.gen_range(0..WRITTEN), v)
                    }
                    6..=7 => Write::Delete(rng.gen_range(0..WRITTEN)),
                    _ => {
                        let start = rng.gen_range(0..SPACE);
                        Write::DeleteRange(start, rng.gen_range(start + 1..=SPACE))
                    }
                };
                (write, rng.gen_bool(0.1))
            })
            .collect();

        let check = |store: &TreatyStore, model: &BTreeMap<u8, Vec<u8>>, when: &str| {
            for k in 0..SPACE {
                let got = store.get_committed(&[k]).unwrap();
                assert_eq!(got.as_ref(), model.get(&k), "case {case}, {when}: key {k}");
            }
        };
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let mut model = BTreeMap::new();
        {
            let store = TreatyStore::open(std::rc::Rc::clone(&env)).unwrap();
            for (write, flush_after) in &writes {
                let mut tx = store.begin_mode(TxnMode::Pessimistic);
                match write {
                    Write::Put(k, v) => {
                        tx.put(&[*k], v).unwrap();
                        model.insert(*k, v.clone());
                    }
                    Write::Delete(k) => {
                        tx.delete(&[*k]).unwrap();
                        model.remove(k);
                    }
                    Write::DeleteRange(start, end) => {
                        tx.delete_range(&[*start], &[*end]).unwrap();
                        model.retain(|k, _| !(*start..*end).contains(k));
                    }
                }
                tx.commit().unwrap();
                if *flush_after {
                    store.flush().unwrap();
                }
            }
            check(&store, &model, "before flush");
            store.flush().unwrap();
            check(&store, &model, "after flush");
        }
        let store = TreatyStore::open(env).unwrap();
        check(&store, &model, "after reopen");
    });
}
