//! The decoder is what the untrusted host and network aim at: every record
//! class that crosses the trust boundary, mutated every way one byte or one
//! length can be, must come back as a typed error or as exactly the bytes
//! it was given — never a panic, never a huge allocation, never a value
//! that re-encodes differently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};

use treaty::core::clog::ClogRecord;
use treaty::core::messages::{
    self, Abort, AbortCause, ClientCommitReq, CommitResult, Lane, ObsSnapshotReply, Op, OpResult,
    PeerOps, PeerPrepare, SnapshotReadReply, SnapshotReadReq, SnapshotValidateReply,
    SnapshotValidateReq, WriteCmd,
};
use treaty::counter::{RoteMsg, SealedState};
use treaty::crypto::codec::{self, CodecError, Decode, Encode, Record};
use treaty::crypto::Key;
use treaty::store::memtable::RangeTombstone;
use treaty::store::sstable::{BlockMeta, SsTableMeta};
use treaty::store::txn::WriteOp;
use treaty::store::{BloomFilter, GlobalTxId, ManifestEdit, WalRecord};
use treaty::tee::{seal, Measurement, SealedBlob};

/// The largest single allocation since the last reset: a decoder that
/// believed a length prefix would show up here.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Watching;

unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Watching = Watching;

/// Every sample encoding is well under this; a decoder may allocate a few
/// times its input, never a length it read.
const ALLOC_BOUND: usize = 1 << 20;

/// A decoder as "decode, then encode what came out".
type Reencode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, CodecError>>;

/// One record class: encodings of values covering every variant, and its
/// decoder.
struct Class {
    name: &'static str,
    encodings: Vec<Vec<u8>>,
    reencode: Reencode,
}

fn class<T>(name: &'static str, magic: u8, values: Vec<T>) -> Class
where
    T: Encode + Decode + PartialEq + Debug + 'static,
{
    let encodings = values
        .iter()
        .map(|v| {
            let bytes = codec::to_bytes(magic, v);
            assert_eq!(
                codec::from_bytes::<T>(magic, &bytes).as_ref(),
                Ok(v),
                "{name} round trip"
            );
            bytes
        })
        .collect();
    Class {
        name,
        encodings,
        reencode: Box::new(move |b| {
            codec::from_bytes::<T>(magic, b).map(|v| codec::to_bytes(magic, &v))
        }),
    }
}

fn record<T>(name: &'static str, values: Vec<T>) -> Class
where
    T: Record + PartialEq + Debug + 'static,
{
    for v in &values {
        assert_eq!(T::from_bytes(&v.to_bytes()).as_ref(), Ok(v), "{name}");
    }
    class(name, T::MAGIC, values)
}

fn message<T>(name: &'static str, values: Vec<T>) -> Class
where
    T: Encode + Decode + PartialEq + Debug + 'static,
{
    for v in &values {
        assert_eq!(
            messages::decode::<T>(&messages::encode(v)).as_ref(),
            Some(v),
            "{name}"
        );
    }
    class(name, messages::MAGIC, values)
}

fn gtx(seq: u64) -> GlobalTxId {
    GlobalTxId { node: 3, seq }
}

fn b(s: &str) -> Vec<u8> {
    s.as_bytes().to_vec()
}

fn ops() -> Vec<Op> {
    vec![
        Op::Write(WriteCmd::put(b"k", b"v")),
        Op::Write(WriteCmd::delete(b"d")),
        Op::Get { key: b("g") },
        Op::Scan {
            start: b("a"),
            end: b("m"),
            limit: 20,
        },
        Op::RangeDelete {
            start: b("x"),
            end: b("z"),
        },
    ]
}

fn classes() -> Vec<Class> {
    let writes = vec![
        WriteOp {
            key: b("k1"),
            value: Some(b("v1")),
        },
        WriteOp {
            key: b("k2"),
            value: None,
        },
    ];
    let ranges = vec![(b("a"), b("c"))];
    let mut filter = BloomFilter::new(4, 10);
    filter.insert(b"k1");
    let meta = |filter: Option<BloomFilter>| SsTableMeta {
        file_id: 7,
        blocks: vec![BlockMeta {
            offset: 0,
            len: 64,
            first_key: b("k1"),
            last_key: b("k9"),
            digest: [5; 32],
        }],
        min_key: b("k1"),
        max_key: b("k9"),
        max_seq: 12,
        entries: 9,
        filter,
        range_tombstones: vec![RangeTombstone {
            start: b("k3"),
            end: b("k4"),
            seq: 11,
        }],
    };
    // Every cause, by itself and named with a participant.
    let aborts = || {
        AbortCause::ALL.into_iter().flat_map(|cause| {
            [None, Some(cause as u32 + 1)].map(|participant| Abort { cause, participant })
        })
    };
    let failed = aborts().map(OpResult::Failed);
    let aborted = aborts().map(CommitResult::Aborted);
    vec![
        message("CLIENT_OPS", vec![ops(), Vec::new()]),
        message(
            "CLIENT_COMMIT",
            vec![ClientCommitReq {
                writes: vec![WriteCmd::put(b"k", b"v"), WriteCmd::delete(b"d")],
            }],
        ),
        message(
            "OpResult",
            [
                OpResult::Ok { value: None },
                OpResult::Ok {
                    value: Some(b("v")),
                },
                OpResult::Entries {
                    entries: vec![(b("a"), b("1")), (b("b"), Vec::new())],
                },
            ]
            .into_iter()
            .chain(failed)
            .collect(),
        ),
        message(
            "PEER_OPS",
            [false, true]
                .map(|held| PeerOps {
                    gtx: gtx(1),
                    held,
                    ops: ops(),
                })
                .into(),
        ),
        message(
            "PEER_PREPARE",
            [Lane::ReadOnly, Lane::Write, Lane::Held]
                .map(|lane| PeerPrepare {
                    gtx: gtx(2),
                    lane,
                    batch: ops(),
                })
                .into(),
        ),
        message(
            "PEER_COMMIT, PEER_ABORT, QUERY_DECISION, PEER_COMMIT_POINT",
            vec![gtx(3)],
        ),
        message("vote", vec![true, false]),
        message("decision", vec![None, Some(true), Some(false)]),
        message(
            "CommitResult",
            std::iter::once(CommitResult::Committed)
                .chain(aborted)
                .collect(),
        ),
        message(
            "SnapshotReadReq",
            vec![
                SnapshotReadReq {
                    ts: None,
                    keys: vec![b("a"), b("b")],
                    spans: vec![(b("a"), b("m"))],
                    limit: 10,
                },
                SnapshotReadReq {
                    ts: Some(0),
                    keys: Vec::new(),
                    spans: Vec::new(),
                    limit: 0,
                },
            ],
        ),
        message(
            "SnapshotReadReply",
            vec![
                SnapshotReadReply::Values {
                    ts: 7,
                    values: vec![Some(b("v")), None],
                    rows: vec![vec![(b("a"), b("1"))], Vec::new()],
                },
                SnapshotReadReply::Stale { stable_ts: 3 },
                SnapshotReadReply::InDoubt { key: b("a") },
            ],
        ),
        message(
            "SnapshotValidateReq",
            vec![SnapshotValidateReq {
                ts: 7,
                keys: vec![b("a")],
                spans: vec![(b("a"), b("m"))],
            }],
        ),
        message(
            "SnapshotValidateReply",
            vec![
                SnapshotValidateReply::Ok,
                SnapshotValidateReply::Fail { key: b("a") },
            ],
        ),
        message(
            "ObsSnapshotReply",
            vec![ObsSnapshotReply {
                node: 2,
                ts: 9,
                backpressure: 1,
                committed: 5,
                ..ObsSnapshotReply::default()
            }],
        ),
        record(
            "ClogRecord",
            vec![
                ClogRecord::Start {
                    gtx: gtx(1),
                    participants: vec![1, 2],
                },
                ClogRecord::Decision {
                    gtx: gtx(1),
                    commit: true,
                },
            ],
        ),
        record(
            "WalRecord",
            vec![
                WalRecord::Commit {
                    seq: 4,
                    writes: writes.clone(),
                    ranges: ranges.clone(),
                },
                WalRecord::Prepare {
                    gtx: gtx(2),
                    writes,
                    ranges,
                },
                WalRecord::Decide {
                    gtx: gtx(2),
                    commit: false,
                    seq: 0,
                },
            ],
        ),
        record(
            "ManifestEdit",
            vec![
                ManifestEdit::NewWal { gen: 1 },
                ManifestEdit::WalObsolete { gen: 1 },
                ManifestEdit::AddTable {
                    level: 0,
                    file_id: 3,
                },
                ManifestEdit::RemoveTable {
                    level: 6,
                    file_id: 3,
                },
            ],
        ),
        record("SsTableMeta", vec![meta(Some(filter)), meta(None)]),
        record(
            "RoteMsg",
            vec![
                RoteMsg::Update {
                    id: "node-0/wal-1".into(),
                    value: 5,
                },
                RoteMsg::Echo { value: 5 },
                RoteMsg::Confirm {
                    id: "node-0/clog".into(),
                    value: 6,
                },
                RoteMsg::Ack,
                RoteMsg::Nack { rollback: true },
                RoteMsg::Query { id: "c".into() },
                RoteMsg::Value { value: 9 },
            ],
        ),
        record(
            "SealedState",
            vec![SealedState {
                stable: vec![("node-0/clog".into(), 4), ("node-0/wal-1".into(), 9)],
            }],
        ),
        record(
            "SealedBlob",
            vec![seal(
                &Key::from_bytes([1; 32]),
                &Measurement::of_code("treaty-rote-replica-v1"),
                [2; 12],
                b"state",
            )],
        ),
    ]
}

/// Decodes `input` as `class`, checking that no allocation followed a
/// length the input claimed.
fn decode(class: &Class, input: &[u8]) -> Result<Vec<u8>, CodecError> {
    LARGEST.store(0, Ordering::Relaxed);
    let out = (class.reencode)(input);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= ALLOC_BOUND,
        "{}: decoding {} bytes allocated {largest}",
        class.name,
        input.len()
    );
    out
}

#[test]
fn every_record_class_decodes_exactly_what_it_encodes_or_refuses() {
    let magics = [
        messages::MAGIC,
        ClogRecord::MAGIC,
        WalRecord::MAGIC,
        ManifestEdit::MAGIC,
        SsTableMeta::MAGIC,
        RoteMsg::MAGIC,
        SealedState::MAGIC,
        SealedBlob::MAGIC,
    ];
    let distinct: std::collections::BTreeSet<u8> = magics.into_iter().collect();
    assert_eq!(distinct.len(), magics.len(), "record classes share a magic");

    for class in &classes() {
        let name = class.name;
        assert!(decode(class, &[]).is_err(), "{name}: empty input");
        for bytes in &class.encodings {
            assert_eq!(decode(class, bytes).as_ref(), Ok(bytes), "{name}");
            for cut in 0..bytes.len() {
                assert!(
                    decode(class, &bytes[..cut]).is_err(),
                    "{name}: a {cut}-byte prefix of {bytes:?} decoded"
                );
            }
            let mut long = bytes.clone();
            long.push(0);
            assert_eq!(decode(class, &long), Err(CodecError::Trailing), "{name}");
            for at in 0..bytes.len() {
                for flip in 1..=255u8 {
                    let mut mutated = bytes.clone();
                    mutated[at] ^= flip;
                    if let Ok(again) = decode(class, &mutated) {
                        assert_eq!(again, mutated, "{name}: byte {at} ^ {flip:#04x}");
                    }
                }
            }
            for at in 0..bytes.len().saturating_sub(3) {
                let mut lie = bytes.clone();
                lie[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                if let Ok(again) = decode(class, &lie) {
                    assert_eq!(again, lie, "{name}: u32::MAX at byte {at}");
                }
            }
        }
    }
}
