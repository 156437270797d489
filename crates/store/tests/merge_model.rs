//! The store's one k-way merge against a trivial reference model: random
//! stores — an active MemTable, frozen ones awaiting their build,
//! overlapping L0 tables, disjoint deeper levels and range tombstones —
//! answer every span read the way a replay of the committed operations
//! into a `BTreeMap` does: `scan` at random snapshots and limits,
//! `snapshot_validate_span`, `successor_key`, and a locking scan's fenced
//! pass.

use std::collections::{BTreeMap, BTreeSet};

use rand::{Rng, SeedableRng};
use treaty_sched::block_on;
use treaty_sim::SecurityProfile;
use treaty_store::{EngineConfig, EngineTxn, Env, StoreError, TreatyStore, TxnMode};

type Key = Vec<u8>;
type SeqNum = u64;

/// One committed write: a range delete of `[lo, hi)` or a point write
/// (`None` = delete).
#[derive(Clone)]
enum Op {
    Range(Key, Key),
    Point(Key, Option<Vec<u8>>),
}

/// Every committed operation with its commit seq, in commit order.
#[derive(Default)]
struct Model {
    log: Vec<(SeqNum, Op)>,
    /// Every key a point operation ever named.
    written: BTreeSet<Key>,
}

impl Model {
    fn commit(&mut self, seq: SeqNum, ops: Vec<Op>) {
        for op in ops {
            if let Op::Point(k, _) = &op {
                self.written.insert(k.clone());
            }
            self.log.push((seq, op));
        }
    }

    /// The visible rows at `ts`. A transaction's range delete precedes
    /// its point writes, so a same-seq point write wins.
    fn at(&self, ts: SeqNum) -> BTreeMap<Key, Vec<u8>> {
        let mut rows = BTreeMap::new();
        for (_, op) in self.log.iter().filter(|(seq, _)| *seq <= ts) {
            match op {
                Op::Range(lo, hi) => rows.retain(|k: &Key, _| k < lo || k >= hi),
                Op::Point(k, Some(v)) => {
                    rows.insert(k.clone(), v.clone());
                }
                Op::Point(k, None) => {
                    rows.remove(k);
                }
            }
        }
        rows
    }

    /// Whether nothing committed after `ts` touches `[lo, hi)`.
    fn unchanged_since(&self, lo: &[u8], hi: &[u8], ts: SeqNum) -> bool {
        !self.log.iter().any(|(seq, op)| {
            *seq > ts
                && match op {
                    Op::Range(s, e) => s.as_slice() < hi && e.as_slice() > lo,
                    Op::Point(k, _) => lo <= k.as_slice() && k.as_slice() < hi,
                }
        })
    }
}

fn rows_in(
    rows: &BTreeMap<Key, Vec<u8>>,
    lo: &[u8],
    hi: &[u8],
    limit: usize,
) -> Vec<(Key, Vec<u8>)> {
    rows.range(lo.to_vec()..hi.to_vec())
        .take(if limit == 0 { usize::MAX } else { limit })
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// Rows as text, each value cut to its head and length, so a mismatch
/// prints readably.
fn shown(rows: Vec<(Key, Vec<u8>)>) -> Vec<(String, String)> {
    rows.into_iter()
        .map(|(k, v)| {
            let head = String::from_utf8_lossy(&v[..v.len().min(12)]).into_owned();
            (
                String::from_utf8_lossy(&k).into_owned(),
                format!("{head}… {} B", v.len()),
            )
        })
        .collect()
}

fn key(n: u32) -> Key {
    format!("k{n:03}").into_bytes()
}

/// What the random stores held when they were read.
#[derive(Default, Debug)]
struct Seen {
    frozen: u32,
    overlapping_l0: u32,
    deeper: u32,
    table_tombstones: u32,
    snapshot_reads: u32,
    stale_snapshots: u32,
}

impl Seen {
    fn note(&mut self, store: &TreatyStore) {
        let levels = store.level_tables();
        let overlap = levels[0]
            .iter()
            .enumerate()
            .any(|(i, a)| levels[0][i + 1..].iter().any(|b| a.overlaps(b)));
        self.frozen += u32::from(store.flush_backlog_len() > 0);
        self.overlapping_l0 += u32::from(overlap);
        self.deeper += u32::from(levels[1..].iter().any(|l| !l.is_empty()));
        self.table_tombstones += u32::from(
            levels
                .iter()
                .flatten()
                .any(|t| !t.meta().range_tombstones.is_empty()),
        );
    }
}

#[test]
fn every_span_read_answers_like_a_model() {
    let config = EngineConfig {
        l0_compaction_trigger: 3,
        l0_slowdown_trigger: 8,
        l0_stop_trigger: 16,
        ..EngineConfig::tiny()
    };
    let mut seen = Seen::default();
    for seed in 0..6u64 {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        let config = config.clone();
        let s = block_on(move || {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let env = Env::for_testing_with(SecurityProfile::treaty_full(), &path, config);
            let store = TreatyStore::open(env).unwrap();
            let mut model = Model::default();
            let mut seqs: Vec<SeqNum> = Vec::new();
            let mut seen = Seen::default();
            for step in 0..400u32 {
                let ctx = format!("seed {seed} step {step}");
                let mut tx = store.begin_mode(TxnMode::Pessimistic);
                let mut ops = Vec::new();
                let k = key(rng.gen_range(0..80));
                match rng.gen_range(0..100u32) {
                    0..=61 => {
                        let v = format!("{step}-{}", "v".repeat(rng.gen_range(0..1200)));
                        tx.put(&k, v.as_bytes()).unwrap();
                        ops.push(Op::Point(k, Some(v.into_bytes())));
                    }
                    62..=81 => {
                        tx.delete(&k).unwrap();
                        ops.push(Op::Point(k, None));
                    }
                    82..=97 => {
                        let a = rng.gen_range(0..80u32);
                        let (lo, hi) = (key(a), key(a + rng.gen_range(1..15u32)));
                        tx.delete_range(&lo, &hi).unwrap();
                        ops.push(Op::Range(lo.clone(), hi));
                        if rng.gen_bool(0.4) {
                            let v = format!("over-{step}");
                            tx.put(&lo, v.as_bytes()).unwrap();
                            ops.push(Op::Point(lo, Some(v.into_bytes())));
                        }
                    }
                    _ => {
                        tx.rollback().unwrap();
                        store.flush().unwrap();
                    }
                }
                if !ops.is_empty() {
                    let seq = tx.commit().unwrap().seq;
                    model.commit(seq, ops);
                    seqs.push(seq);
                }
                if step % 3 != 0 {
                    continue;
                }
                seen.note(&store);
                let now = model.at(SeqNum::MAX);
                let a = rng.gen_range(0..82u32);
                let (lo, hi) = (key(a), key(a + rng.gen_range(1..40u32)));
                let limit = rng.gen_range(0..8usize);

                // `scan` at the newest snapshot.
                assert_eq!(
                    shown(store.scan(&lo, &hi, SeqNum::MAX, limit).unwrap()),
                    shown(rows_in(&now, &lo, &hi, limit)),
                    "{ctx}: scan limit {limit}"
                );

                // `snapshot_validate_span` and `snapshot_scan` at a recent
                // commit. The span check first: a snapshot scan that is
                // served after it proves the snapshot floor (which only
                // rises) was at or below `ts` throughout, so no version
                // newer than `ts` had been compacted away under it.
                if let Some(&ts) = seqs.iter().rev().nth(rng.gen_range(0..12usize)) {
                    let current = store.snapshot_validate_span(&lo, &hi, ts).unwrap();
                    match store.snapshot_scan(&lo, &hi, ts, limit) {
                        Ok(rows) => {
                            seen.snapshot_reads += 1;
                            assert_eq!(
                                shown(rows),
                                shown(rows_in(&model.at(ts), &lo, &hi, limit)),
                                "{ctx}: snapshot scan at {ts} limit {limit}"
                            );
                            assert_eq!(
                                current,
                                model.unchanged_since(&lo, &hi, ts),
                                "{ctx}: span validation at {ts}"
                            );
                        }
                        Err(StoreError::SnapshotStale { .. }) => seen.stale_snapshots += 1,
                        Err(e) => panic!("{ctx}: snapshot scan: {e:?}"),
                    }
                }

                // `successor_key`: deleted and shadowed keys count until a
                // bottom-level compaction drops them, so the model bounds
                // the answer: a key some point write named, and none of
                // the visible keys lies before it.
                let from = key(rng.gen_range(0..82u32));
                let visible = now.range(from.clone()..).next().map(|(k, _)| k.clone());
                match store.successor_key(&from).unwrap() {
                    None => assert_eq!(visible, None, "{ctx}: successor of {from:?}"),
                    Some(k) => {
                        assert!(k >= from && model.written.contains(&k), "{ctx}: {k:?}");
                        assert!(
                            visible.is_none_or(|v| k <= v),
                            "{ctx}: skipped a visible key"
                        );
                    }
                }

                // The fenced pass, through a locking scan: its rows, and a
                // lock on each plus the gap bound.
                let mut scanner = store.begin_mode(TxnMode::Pessimistic);
                let rows = scanner.scan(&lo, &hi, limit).unwrap();
                assert_eq!(
                    shown(rows.clone()),
                    shown(rows_in(&now, &lo, &hi, limit)),
                    "{ctx}: fenced pass"
                );
                assert!(
                    store.locked_keys() > rows.len(),
                    "{ctx}: the gap bound is locked"
                );
                scanner.commit().unwrap();
            }
            seen
        });
        seen.frozen += s.frozen;
        seen.overlapping_l0 += s.overlapping_l0;
        seen.deeper += s.deeper;
        seen.table_tombstones += s.table_tombstones;
        seen.snapshot_reads += s.snapshot_reads;
        seen.stale_snapshots += s.stale_snapshots;
    }
    // Every shape the merge meets was among the stores read.
    assert!(seen.frozen >= 10, "{seen:?}");
    assert!(seen.overlapping_l0 >= 10, "{seen:?}");
    assert!(seen.deeper >= 10, "{seen:?}");
    assert!(seen.table_tombstones >= 10, "{seen:?}");
    assert!(seen.snapshot_reads >= 100, "{seen:?}");
}
