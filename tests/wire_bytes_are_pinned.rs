//! The bytes of every record class are a format, not an accident of how
//! the encoders are written: one fixed value per variant of every type
//! behind each class of DESIGN.md §18, encoded and hashed, must match the
//! digest recorded here. A reordered field keeps every length the same, so
//! neither a round trip nor a virtual-time figure would notice it; this
//! test does.

use treaty::core::clog::ClogRecord;
use treaty::core::messages::{
    self, Abort, AbortCause, ClientCommitReq, CommitResult, Lane, ObsSnapshotReply, Op, OpResult,
    PeerOps, PeerPrepare, SnapshotReadReply, SnapshotReadReq, SnapshotValidateReply,
    SnapshotValidateReq, WriteCmd,
};
use treaty::counter::{RoteMsg, SealedState};
use treaty::crypto::codec::Record;
use treaty::crypto::{sha256, Key};
use treaty::store::memtable::RangeTombstone;
use treaty::store::sstable::{BlockMeta, SsTableMeta};
use treaty::store::txn::WriteOp;
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

/// SHA-256 over each encoding, length-prefixed, in order, as hex.
fn digest(encodings: &[Vec<u8>]) -> String {
    let mut all = Vec::new();
    for e in encodings {
        all.extend_from_slice(&(e.len() as u32).to_le_bytes());
        all.extend_from_slice(e);
    }
    sha256(&all).0.iter().map(|b| format!("{b:02x}")).collect()
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
    let moved: Vec<String> = classes
        .iter()
        .filter_map(|(name, encodings, want)| {
            let got = digest(encodings);
            (got != *want).then(|| format!("{name}: {got}, pinned {want}"))
        })
        .collect();
    assert!(moved.is_empty(), "the format moved:\n{}", moved.join("\n"));
}
