//! The bytes of every record class are a format, not an accident of how
//! the encoders are written: one fixed value per variant of every type
//! behind each class of DESIGN.md §18, encoded and hashed, must match the
//! digest recorded here. A reordered field keeps every length the same, so
//! neither a round trip nor a virtual-time figure would notice it; this
//! test does. The same holds for what storage seals: one MemTable value,
//! one SSTable data block, the meta block with its footer digest and one
//! record frame of each log, under a sealing, a tag-only and a clear
//! profile, are pinned the same way.

use treaty::core::clog::ClogRecord;
use treaty::core::messages::{
    self, Abort, AbortCause, ClientCommitReq, CommitResult, Lane, ObsSnapshotReply, Op, OpResult,
    PeerOps, PeerPrepare, SnapshotReadReply, SnapshotReadReq, SnapshotValidateReply,
    SnapshotValidateReq, WriteCmd,
};
use treaty::counter::{RoteMsg, SealedState};
use treaty::crypto::codec::Record;
use treaty::crypto::{sha256, Key};
use treaty::sim::SecurityProfile;
use treaty::store::log::LogWriter;
use treaty::store::memtable::MemTable;
use treaty::store::memtable::RangeTombstone;
use treaty::store::sstable;
use treaty::store::sstable::{BlockMeta, SsTableMeta};
use treaty::store::txn::WriteOp;
use treaty::store::Env;
use treaty::store::{BloomFilter, GlobalTxId, ManifestEdit, WalRecord};
use treaty::tee::{seal, Measurement, SealedBlob};

fn b(s: &str) -> Vec<u8> {
    s.as_bytes().to_vec()
}

fn gtx(seq: u64) -> GlobalTxId {
    GlobalTxId { node: 3, seq }
}

fn records<T: Record>(values: &[T]) -> Vec<Vec<u8>> {
    values.iter().map(Record::to_bytes).collect()
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

/// Every protocol payload type, every variant, every `AbortCause`.
fn protocol_payloads() -> Vec<Vec<u8>> {
    let failure = |participant, cause| OpResult::Failed(Abort { cause, participant });
    let mut out = vec![
        messages::encode(&ops()),
        messages::encode(&Vec::<Op>::new()),
        messages::encode(&ClientCommitReq {
            writes: vec![WriteCmd::put(b"k", b"v"), WriteCmd::delete(b"d")],
        }),
    ];
    let results = [
        OpResult::Ok { value: None },
        OpResult::Ok {
            value: Some(b("v")),
        },
        OpResult::Entries {
            entries: vec![(b("a"), b("1")), (b("b"), Vec::new())],
        },
    ];
    out.extend(results.iter().map(messages::encode));
    let failures = AbortCause::ALL
        .into_iter()
        .zip(1..)
        .map(|(c, i)| failure(Some(i), c));
    out.extend(failures.map(|f| messages::encode(&f)));
    out.push(messages::encode(&failure(None, AbortCause::Malformed)));
    let peer_ops = [(1, false, ops()), (2, true, ops()), (6, true, Vec::new())];
    out.extend(peer_ops.into_iter().map(|(seq, held, ops)| {
        messages::encode(&PeerOps {
            gtx: gtx(seq),
            held,
            ops,
        })
    }));
    let prepares = [
        (2, Lane::Write, ops()),
        (2, Lane::ReadOnly, Vec::new()),
        (2, Lane::Held, ops()),
        (6, Lane::Held, Vec::new()),
    ];
    out.extend(prepares.into_iter().map(|(seq, lane, batch)| {
        messages::encode(&PeerPrepare {
            gtx: gtx(seq),
            lane,
            batch,
        })
    }));
    // PEER_COMMIT, PEER_ABORT, QUERY_DECISION and PEER_COMMIT_POINT carry
    // the id; a vote is a bool, a decision an `Option<bool>`.
    out.push(messages::encode(&gtx(3)));
    out.extend([true, false].iter().map(messages::encode));
    out.extend([None, Some(true), Some(false)].iter().map(messages::encode));
    let commit_results = [
        CommitResult::Committed,
        CommitResult::Aborted(AbortCause::LockTimeout.into()),
        CommitResult::Aborted(Abort {
            cause: AbortCause::VotedNo,
            participant: Some(2),
        }),
    ];
    out.extend(commit_results.iter().map(messages::encode));
    let read_reqs = [
        SnapshotReadReq {
            ts: None,
            keys: vec![b("a"), b("b")],
            spans: vec![(b("c"), b("m"))],
            limit: 10,
        },
        SnapshotReadReq {
            ts: Some(7),
            keys: Vec::new(),
            spans: Vec::new(),
            limit: 0,
        },
    ];
    out.extend(read_reqs.iter().map(messages::encode));
    let read_replies = [
        SnapshotReadReply::Values {
            ts: 7,
            values: vec![Some(b("v")), None],
            rows: vec![vec![(b("a"), b("1"))], Vec::new()],
        },
        SnapshotReadReply::Stale { stable_ts: 3 },
        SnapshotReadReply::InDoubt { key: b("a") },
    ];
    out.extend(read_replies.iter().map(messages::encode));
    out.push(messages::encode(&SnapshotValidateReq {
        ts: 7,
        keys: vec![b("a")],
        spans: vec![(b("c"), b("m"))],
    }));
    let validate_replies = [
        SnapshotValidateReply::Ok,
        SnapshotValidateReply::Fail { key: b("a") },
    ];
    out.extend(validate_replies.iter().map(messages::encode));
    // Thirteen distinct counters, so a swap of any two shows.
    out.push(messages::encode(&ObsSnapshotReply {
        node: 1,
        ts: 2,
        stable_ts: 3,
        finishes_inflight: 4,
        flush_backlog: 5,
        backpressure: 2,
        prepared_txns: 7,
        committed: 8,
        aborted: 9,
        participant_ops: 10,
        decision_retries: 11,
        block_cache_hits: 12,
        block_cache_misses: 13,
    }));
    out
}

fn clog_records() -> Vec<Vec<u8>> {
    records(&[
        ClogRecord::Start {
            gtx: gtx(1),
            participants: vec![1, 2],
        },
        ClogRecord::Decision {
            gtx: gtx(1),
            commit: true,
        },
        ClogRecord::Decision {
            gtx: gtx(2),
            commit: false,
        },
    ])
}

fn wal_records() -> Vec<Vec<u8>> {
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
    records(&[
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
            commit: true,
            seq: 9,
        },
    ])
}

fn manifest_edits() -> Vec<Vec<u8>> {
    records(&[
        ManifestEdit::NewWal { gen: 1 },
        ManifestEdit::WalObsolete { gen: 2 },
        ManifestEdit::AddTable {
            level: 3,
            file_id: 4,
        },
        ManifestEdit::RemoveTable {
            level: 5,
            file_id: 6,
        },
    ])
}

fn sstable_footers() -> Vec<Vec<u8>> {
    let mut filter = BloomFilter::new(4, 10);
    filter.insert(b"k1");
    let meta = |filter: Option<BloomFilter>| SsTableMeta {
        file_id: 7,
        blocks: vec![BlockMeta {
            offset: 8,
            len: 64,
            first_key: b("k1"),
            last_key: b("k9"),
            digest: [5; 32],
        }],
        min_key: b("k0"),
        max_key: b("kz"),
        max_seq: 12,
        entries: 9,
        filter,
        range_tombstones: vec![RangeTombstone {
            start: b("k3"),
            end: b("k4"),
            seq: 11,
        }],
    };
    records(&[meta(Some(filter)), meta(None)])
}

fn counter_messages() -> Vec<Vec<u8>> {
    records(&[
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
        RoteMsg::Nack { rollback: false },
        RoteMsg::Query { id: "c".into() },
        RoteMsg::Value { value: 9 },
    ])
}

fn replica_states() -> Vec<Vec<u8>> {
    records(&[SealedState {
        stable: vec![("node-0/clog".into(), 4), ("node-0/wal-1".into(), 9)],
    }])
}

fn sealed_blobs() -> Vec<Vec<u8>> {
    records::<SealedBlob>(&[seal(
        &Key::from_bytes([1; 32]),
        &Measurement::of_code("treaty-rote-replica-v1"),
        [2; 12],
        b"state",
    )])
}

/// The three ways storage protects a byte: sealed (`treaty_full`), tagged
/// only (`native_treaty`) and in clear (`rocksdb`).
const STORAGE_PROFILES: [fn() -> SecurityProfile; 3] = [
    SecurityProfile::treaty_full,
    SecurityProfile::native_treaty,
    SecurityProfile::rocksdb,
];

/// One MemTable value as it lies in host memory.
fn memtable_value(profile: SecurityProfile) -> Vec<u8> {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(profile, dir.path());
    let mt = MemTable::new(std::rc::Rc::clone(&env));
    mt.put(b"k1", 4, b"value-1");
    env.vault.dump()
}

/// A two-block SSTable with a range tombstone, as `(first data block,
/// everything after the last data block)`: the sealed meta block, its
/// footer digest, its length and the magic.
fn sstable_bytes(profile: SecurityProfile) -> (Vec<u8>, Vec<u8>) {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(profile, dir.path());
    let path = dir.path().join("sst-000007.sst");
    let entries: Vec<_> = (0..12u64)
        .map(|i| {
            let value = (i % 5 != 0).then(|| vec![b'a' + i as u8; 150]);
            (format!("k{i:02}").into_bytes(), 20 - i, value)
        })
        .collect();
    let tombs = [RangeTombstone {
        start: b("k03"),
        end: b("k05"),
        seq: 30,
    }];
    let meta = sstable::build(&env, &path, 7, &entries, &tombs).unwrap();
    assert!(meta.blocks.len() >= 2, "{} blocks", meta.blocks.len());
    let raw = std::fs::read(&path).unwrap();
    let first = &meta.blocks[0];
    let last = meta.blocks.last().unwrap();
    let block = raw[first.offset as usize..][..first.len as usize].to_vec();
    (
        block,
        raw[(last.offset + u64::from(last.len)) as usize..].to_vec(),
    )
}

/// The file of log `name` after one append of `record`.
fn log_frame(profile: SecurityProfile, name: &str, record: &[u8]) -> Vec<u8> {
    let dir = tempfile::tempdir().unwrap();
    let env = Env::for_testing(profile, dir.path());
    let path = dir.path().join(name);
    let log = LogWriter::open(env, name, &path, 0).unwrap();
    assert_eq!(log.append(record).unwrap(), 1);
    std::fs::read(&path).unwrap()
}

/// SHA-256 over each encoding, length-prefixed, in order, as hex.
fn digest(encodings: &[Vec<u8>]) -> String {
    let mut all = Vec::new();
    for e in encodings {
        all.extend_from_slice(&(e.len() as u32).to_le_bytes());
        all.extend_from_slice(e);
    }
    sha256(&all).0.iter().map(|b| format!("{b:02x}")).collect()
}

/// Fails naming every class whose digest is not the one pinned.
fn assert_pinned(what: &str, classes: &[(&str, Vec<Vec<u8>>, &str)]) {
    let moved: Vec<String> = classes
        .iter()
        .filter_map(|(name, encodings, want)| {
            let got = digest(encodings);
            (got != *want).then(|| format!("{name}: {got}, pinned {want}"))
        })
        .collect();
    assert!(moved.is_empty(), "{what} moved:\n{}", moved.join("\n"));
}

#[test]
fn every_record_class_encodes_to_its_pinned_bytes() {
    let classes: [(&str, Vec<Vec<u8>>, &str); 8] = [
        (
            "protocol payload",
            protocol_payloads(),
            "5fa42e0a86413a43296f1334b0d2e69fd96d6a4dc0aab4d1396c5462d584106c",
        ),
        (
            "Clog record",
            clog_records(),
            "432bff754c2a30ad380ecb38773f31c6fb6482715c03350462437737f3ae9944",
        ),
        (
            "WAL record",
            wal_records(),
            "e0d0e5daa10295b115069e697d40b4313543f83f58af0dedcb0f8341136bd8a0",
        ),
        (
            "MANIFEST edit",
            manifest_edits(),
            "c7f09c46573a7cf851c5744209a2e444f0f4670c09671c9a74fbd7e890f6893e",
        ),
        (
            "SSTable footer",
            sstable_footers(),
            "33e70ee8c578002571e9c56e47f918dc2dc934b325929a412153f352937cda7c",
        ),
        (
            "counter message",
            counter_messages(),
            "a6a3465eef4096fefee6cdb253732c6b7b7091326e19404aff09f068bf338ec4",
        ),
        (
            "counter replica state",
            replica_states(),
            "f70bee2f86f65f45764d0398e5a9167d6b092026c16cba4be3dd1c5536b9c59e",
        ),
        (
            "sealed blob",
            sealed_blobs(),
            "e7b7e327ebababade7ff93ce034a652fcd88e9ff920fcc2e840df6ddcd6faef3",
        ),
    ];
    assert_pinned("the format", &classes);
}

#[test]
fn every_sealed_storage_unit_is_pinned() {
    let profiles = STORAGE_PROFILES.map(|p| p());
    let per_profile = |unit: &dyn Fn(SecurityProfile) -> Vec<u8>| -> Vec<Vec<u8>> {
        profiles.iter().map(|&p| unit(p)).collect()
    };
    let classes: [(&str, Vec<Vec<u8>>, &str); 6] = [
        (
            "MemTable value",
            per_profile(&memtable_value),
            "86a30bf054646216645b0540d6186a9b1c127a18694edfbea8c45fe4647d1396",
        ),
        (
            "SSTable data block",
            per_profile(&|p| sstable_bytes(p).0),
            "3387991ae9822e855d8c887c55c96b3e16136dc6ff67f576a176997cfcaf338d",
        ),
        (
            "SSTable meta block and footer",
            per_profile(&|p| sstable_bytes(p).1),
            "0fef284be60978c6e9d36005e3367a77a4b1839e2ab4633601fdba524318c886",
        ),
        (
            "WAL record frame",
            per_profile(&|p| log_frame(p, "wal-000001", &wal_records()[0])),
            "a74a6b27b4a186faa71356b8459a7feefc0d8ab774be30b5d48b94c3e2a6a19c",
        ),
        (
            "MANIFEST record frame",
            per_profile(&|p| log_frame(p, "manifest", &manifest_edits()[2])),
            "6c5a6b81150a0367a02f650a7f69d5d50577a65c5a1bc6a8dbb3d71ca0d01a83",
        ),
        (
            "Clog record frame",
            per_profile(&|p| log_frame(p, "clog", &clog_records()[0])),
            "d4030c98056a3612af6e5be809a0121b99fac1aafa1abdb297755d863d27c953",
        ),
    ];
    assert_pinned("the sealed bytes", &classes);
}
