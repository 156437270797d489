//! Wire payloads of the transaction protocol (carried inside the secure
//! message envelope of §VII-A).

use serde::{Deserialize, Serialize};

use treaty_store::GlobalTxId;

/// Request types on the fabric.
pub mod req {
    /// Client → coordinator: one transactional operation.
    pub const CLIENT_OP: u8 = 1;
    /// Client → coordinator: commit.
    pub const CLIENT_COMMIT: u8 = 2;
    /// Client → coordinator: rollback.
    pub const CLIENT_ROLLBACK: u8 = 3;
    /// Client → coordinator: flush of the client's deferred write buffer
    /// (a read is about to need the writes visible). One sealed message
    /// carries every buffered write instead of one `CLIENT_OP` each.
    pub const CLIENT_OP_BATCH: u8 = 8;
    /// Client → shard: lock-free snapshot read (read-only transactions;
    /// no 2PC state, no coordinator).
    pub const SNAPSHOT_READ: u8 = 4;
    /// Client → shard: end-of-transaction snapshot validation (multi-shard
    /// read-only transactions only).
    pub const SNAPSHOT_VALIDATE: u8 = 5;
    /// Client → shard: lock-free snapshot range scan over this shard's
    /// slice of the key space (read-only transactions).
    pub const SNAPSHOT_SCAN: u8 = 7;
    /// Anyone → node: live introspection snapshot (queue depths, stable
    /// frontier, backpressure, cache hit rates). Read-only; serves the
    /// `treaty-top` dashboard.
    pub const OBS_SNAPSHOT: u8 = 6;
    /// Coordinator → participant: one operation.
    pub const PEER_OP: u8 = 10;
    /// Coordinator → participant: this shard's slice of a deferred write
    /// batch — applied in one sealed message (one seal/unseal per shard
    /// instead of per op).
    pub const PEER_OP_BATCH: u8 = 15;
    /// Coordinator → participant: 2PC prepare.
    pub const PEER_PREPARE: u8 = 11;
    /// Coordinator → participant: 2PC commit.
    pub const PEER_COMMIT: u8 = 12;
    /// Coordinator → participant: 2PC abort.
    pub const PEER_ABORT: u8 = 13;
    /// Recovering participant → coordinator: what was decided?
    pub const QUERY_DECISION: u8 = 14;
}

/// One transactional operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Point read.
    Get {
        /// Key to read.
        key: Vec<u8>,
    },
    /// Write.
    Put {
        /// Key to write.
        key: Vec<u8>,
        /// New value.
        value: Vec<u8>,
    },
    /// Deletion.
    Delete {
        /// Key to delete.
        key: Vec<u8>,
    },
    /// Range scan of `[start, end)`. Keys are hash-partitioned, so the
    /// coordinator fans this out to every shard and merges by key.
    Scan {
        /// First key of the span (inclusive).
        start: Vec<u8>,
        /// End of the span (exclusive).
        end: Vec<u8>,
        /// Maximum pairs to return (`0` = unbounded).
        limit: u64,
    },
    /// Range delete of `[start, end)` — fanned out to every shard; each
    /// buffers a multi-version range tombstone over its slice.
    RangeDelete {
        /// First key of the span (inclusive).
        start: Vec<u8>,
        /// End of the span (exclusive).
        end: Vec<u8>,
    },
}

impl Op {
    /// The key this operation touches; for range operations, the span's
    /// start (they are routed by fan-out, not by this anchor).
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Get { key } | Op::Put { key, .. } | Op::Delete { key } => key,
            Op::Scan { start, .. } | Op::RangeDelete { start, .. } => start,
        }
    }

    /// Whether this operation spans the whole key space (fan-out routing).
    pub fn is_range(&self) -> bool {
        matches!(self, Op::Scan { .. } | Op::RangeDelete { .. })
    }
}

/// One deferred blind write: `Some(value)` is a put, `None` a delete.
/// Clients buffer these locally ([`crate::DistTxn::put`] returns without
/// touching the network) and ship them wholesale — on the first read that
/// could observe them ([`req::CLIENT_OP_BATCH`]) or with the commit itself
/// ([`req::CLIENT_COMMIT`] payload).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteCmd {
    /// Key written.
    pub key: Vec<u8>,
    /// `Some` = put this value, `None` = delete the key.
    pub value: Option<Vec<u8>>,
}

impl WriteCmd {
    /// A buffered put.
    pub fn put(key: &[u8], value: &[u8]) -> Self {
        WriteCmd {
            key: key.to_vec(),
            value: Some(value.to_vec()),
        }
    }

    /// A buffered delete.
    pub fn delete(key: &[u8]) -> Self {
        WriteCmd {
            key: key.to_vec(),
            value: None,
        }
    }
}

/// Client → coordinator payload of [`req::CLIENT_OP_BATCH`] and
/// [`req::CLIENT_COMMIT`]: the deferred write buffer, in issue order.
/// (An empty `CLIENT_COMMIT` payload still means "no shipped writes", so
/// pre-batching clients keep working.)
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientCommitReq {
    /// Buffered writes in the order the client issued them.
    #[serde(default)]
    pub writes: Vec<WriteCmd>,
}

/// Why one operation of a batch failed — typed, so a batch reply can say
/// *which* op failed and *how* instead of first-error-wins prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailCode {
    /// Lock acquisition timed out (contention / deadlock avoidance).
    LockTimeout,
    /// Optimistic validation conflict.
    Conflict,
    /// Integrity or freshness verification failed on persistent data.
    Integrity,
    /// The transaction was already finished on this participant.
    Finished,
    /// Anything else (I/O, stabilization, …) — see the reason string.
    Other,
}

impl From<&treaty_store::StoreError> for FailCode {
    fn from(e: &treaty_store::StoreError) -> Self {
        use treaty_store::StoreError;
        match e {
            StoreError::LockTimeout => FailCode::LockTimeout,
            StoreError::Conflict => FailCode::Conflict,
            StoreError::Integrity(_) | StoreError::Rollback(_) => FailCode::Integrity,
            StoreError::Finished => FailCode::Finished,
            _ => FailCode::Other,
        }
    }
}

/// The failing operation of a batch: its position in the shipped write
/// list, a typed code, and the engine's reason.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpFailure {
    /// Index of the failing write within the batch this shard received.
    pub index: u32,
    /// Typed failure class.
    pub code: FailCode,
    /// Human-readable engine error.
    pub reason: String,
}

/// Result of an [`Op`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpResult {
    /// Success; `value` set for gets.
    Ok {
        /// Value read, if this was a get.
        value: Option<Vec<u8>>,
    },
    /// Success of an [`Op::Scan`]: the visible pairs of one shard's slice
    /// of the span, sorted by key.
    Entries {
        /// `(key, value)` pairs in ascending key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// The operation failed and the transaction aborted.
    Err {
        /// Human-readable reason.
        reason: String,
    },
}

/// Coordinator → participant messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerMsg {
    /// Execute one operation inside `gtx`.
    Op {
        /// Transaction id.
        gtx: GlobalTxId,
        /// Operation.
        op: Op,
    },
    /// Apply this shard's slice of a deferred write batch inside `gtx`.
    OpBatch {
        /// Transaction id.
        gtx: GlobalTxId,
        /// The writes, in client issue order.
        writes: Vec<WriteCmd>,
    },
    /// Prepare `gtx` (phase one). For write-only participants the
    /// coordinator piggybacks their batch slice here, collapsing
    /// execute+prepare into one round trip per shard.
    Prepare {
        /// Transaction id.
        gtx: GlobalTxId,
        /// Deferred writes to apply before preparing (empty for a plain
        /// prepare; defaulted so pre-batching encodings keep decoding).
        #[serde(default)]
        batch: Vec<WriteCmd>,
        /// The whole transaction wrote nothing anywhere: validate, release
        /// every lock and vote — nothing is logged and no decision follows
        /// (defaulted so older encodings keep decoding as a full prepare).
        #[serde(default)]
        read_only: bool,
    },
    /// Commit `gtx` (phase two).
    Commit {
        /// Transaction id.
        gtx: GlobalTxId,
    },
    /// Abort `gtx`.
    Abort {
        /// Transaction id.
        gtx: GlobalTxId,
    },
    /// Ask the coordinator for `gtx`'s outcome (recovery).
    QueryDecision {
        /// Transaction id.
        gtx: GlobalTxId,
    },
}

/// Participant → coordinator replies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerReply {
    /// Result of an [`PeerMsg::Op`].
    OpDone(OpResult),
    /// Result of a [`PeerMsg::OpBatch`]: `None` = every write applied;
    /// `Some` pinpoints the first failing write (the participant rolled
    /// the whole batch back — all-or-nothing).
    BatchDone {
        /// The failing write, if any.
        fail: Option<OpFailure>,
    },
    /// Prepare vote.
    Vote {
        /// True = prepared and stabilized (or, for a read-only prepare,
        /// validated and finished); false = abort.
        yes: bool,
    },
    /// Commit/abort acknowledged.
    Ack,
    /// Answer to [`PeerMsg::QueryDecision`]: `None` = still undecided.
    Decision {
        /// `Some(true)` commit, `Some(false)` abort, `None` unknown.
        commit: Option<bool>,
    },
}

/// Client → coordinator commit/rollback result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommitResult {
    /// Committed and (under the stabilization profile) rollback-protected.
    Committed,
    /// Aborted.
    Aborted {
        /// Why.
        reason: String,
    },
}

/// Client → shard snapshot-read request (read-only transactions).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotReadReq {
    /// Snapshot timestamp pinned at this shard; `None` asks the shard to
    /// pin its current stable read timestamp and report it back. (An
    /// explicit option, not a `0` sentinel: `0` is a legitimate stable
    /// timestamp on a fresh shard, and conflating the two let one
    /// transaction re-pin the same shard at two different timestamps.)
    pub ts: Option<u64>,
    /// Keys to read, all owned by this shard.
    pub keys: Vec<Vec<u8>>,
}

/// Shard → client snapshot-read reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotReadReply {
    /// The reads, served lock-free at `ts`.
    Values {
        /// The snapshot timestamp actually used (echoed, or freshly
        /// pinned when the request carried no timestamp).
        ts: u64,
        /// One value per requested key, in request order.
        values: Vec<Option<Vec<u8>>>,
    },
    /// The requested timestamp runs ahead of this shard's stable read
    /// timestamp; retry with a refreshed snapshot.
    Stale {
        /// The shard's current stable read timestamp.
        stable_ts: u64,
    },
    /// A key overlaps an undecided prepared transaction; its outcome may
    /// already be visible elsewhere, so the snapshot must retry.
    InDoubt {
        /// The offending key.
        key: Vec<u8>,
    },
}

/// Client → shard snapshot-scan request (read-only transactions): scan
/// `[start, end)` lock-free at the shard's stable timestamp. Keys are
/// hash-partitioned, so the client fans this out to every shard and
/// merges the sorted slices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotScanReq {
    /// Snapshot timestamp pinned at this shard; `None` asks the shard to
    /// pin its current stable read timestamp and report it back.
    pub ts: Option<u64>,
    /// First key of the span (inclusive).
    pub start: Vec<u8>,
    /// End of the span (exclusive).
    pub end: Vec<u8>,
    /// Maximum pairs this shard should return (`0` = unbounded).
    pub limit: u64,
}

/// Shard → client snapshot-scan reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotScanReply {
    /// This shard's slice of the span, served lock-free at `ts`.
    Entries {
        /// The snapshot timestamp actually used.
        ts: u64,
        /// `(key, value)` pairs in ascending key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// The requested timestamp runs ahead of this shard's stable read
    /// timestamp; retry with a refreshed snapshot.
    Stale {
        /// The shard's current stable read timestamp.
        stable_ts: u64,
    },
    /// The span overlaps an undecided prepared transaction; its outcome
    /// may already be visible elsewhere, so the snapshot must retry.
    InDoubt,
}

/// Client → shard end-of-transaction validation for multi-shard read-only
/// transactions: "are these reads at `ts` still the latest word?"
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotValidateReq {
    /// The timestamp the keys were read at on this shard.
    pub ts: u64,
    /// The keys read from this shard.
    pub keys: Vec<Vec<u8>>,
    /// Spans scanned from this shard (`[start, end)` pairs). Per-key
    /// validation cannot see a key *inserted* into a scanned span after
    /// the read, so spans are validated wholesale: any version, tombstone
    /// or in-doubt prepare newer than `ts` inside a span fails the
    /// snapshot. Defaulted so old clients keep decoding.
    #[serde(default)]
    pub spans: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Shard → client validation reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotValidateReply {
    /// All reads still current — the snapshot is consistent.
    Ok,
    /// A read was overtaken by a commit or an in-flight prepare; the
    /// snapshot may be torn and must retry.
    Fail {
        /// The first key that failed validation.
        key: Vec<u8>,
    },
}

/// Node → caller live introspection snapshot ([`req::OBS_SNAPSHOT`]).
/// Every field is read from the node's live structures at serve time —
/// this is the `treaty-top` data source, not a post-run artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsSnapshotReply {
    /// The answering node's endpoint.
    pub node: u32,
    /// Virtual time the snapshot was taken.
    pub ts: u64,
    /// The shard's stable read timestamp (MVCC frontier).
    pub stable_ts: u64,
    /// Decisions durably logged but not yet dispatched (phase-2 queue).
    pub decision_queue_depth: u64,
    /// Memtables sealed and waiting for the flush daemon.
    pub flush_backlog: u64,
    /// Commit backpressure: 0 = clear, 1 = throttled, 2 = stalled.
    pub backpressure: u8,
    /// Prepared-table occupancy (in-doubt transactions held).
    pub prepared_txns: u64,
    /// Transactions committed at this node (coordinator count).
    pub committed: u64,
    /// Transactions aborted at this node.
    pub aborted: u64,
    /// Participant operations served.
    pub participant_ops: u64,
    /// Phase-2 decision dispatch retries.
    pub decision_retries: u64,
    /// Trusted block-cache hits.
    pub block_cache_hits: u64,
    /// Trusted block-cache misses.
    pub block_cache_misses: u64,
}

/// Encodes any of the protocol payloads.
pub fn encode<T: Serialize>(v: &T) -> Vec<u8> {
    serde_json::to_vec(v).expect("protocol message serializes")
}

/// Decodes a protocol payload.
pub fn decode<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Option<T> {
    serde_json::from_slice(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_roundtrip() {
        let ops = vec![
            Op::Get { key: b"k".to_vec() },
            Op::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            Op::Delete { key: b"k".to_vec() },
        ];
        for op in ops {
            let bytes = encode(&op);
            assert_eq!(decode::<Op>(&bytes), Some(op.clone()));
            assert_eq!(op.key(), b"k");
        }
    }

    #[test]
    fn range_op_roundtrip() {
        let scan = Op::Scan {
            start: b"a".to_vec(),
            end: b"m".to_vec(),
            limit: 10,
        };
        let rdel = Op::RangeDelete {
            start: b"a".to_vec(),
            end: b"m".to_vec(),
        };
        for op in [scan, rdel] {
            assert_eq!(decode::<Op>(&encode(&op)), Some(op.clone()));
            assert_eq!(op.key(), b"a");
            assert!(op.is_range());
        }
        let res = OpResult::Entries {
            entries: vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())],
        };
        assert_eq!(decode::<OpResult>(&encode(&res)), Some(res));
    }

    #[test]
    fn snapshot_scan_roundtrip() {
        let req = SnapshotScanReq {
            ts: Some(7),
            start: b"a".to_vec(),
            end: b"m".to_vec(),
            limit: 0,
        };
        assert_eq!(decode::<SnapshotScanReq>(&encode(&req)), Some(req));
        for reply in [
            SnapshotScanReply::Entries {
                ts: 7,
                entries: vec![(b"a".to_vec(), b"1".to_vec())],
            },
            SnapshotScanReply::Stale { stable_ts: 3 },
            SnapshotScanReply::InDoubt,
        ] {
            assert_eq!(
                decode::<SnapshotScanReply>(&encode(&reply)),
                Some(reply.clone())
            );
        }
    }

    #[test]
    fn peer_msg_roundtrip() {
        let gtx = GlobalTxId { node: 1, seq: 2 };
        for read_only in [false, true] {
            let m = PeerMsg::Prepare {
                gtx,
                batch: Vec::new(),
                read_only,
            };
            assert_eq!(decode::<PeerMsg>(&encode(&m)), Some(m));
        }
    }

    #[test]
    fn write_batch_payloads_roundtrip() {
        let gtx = GlobalTxId { node: 1, seq: 2 };
        let writes = vec![WriteCmd::put(b"a", b"1"), WriteCmd::delete(b"b")];
        let shipped = ClientCommitReq {
            writes: writes.clone(),
        };
        assert_eq!(decode::<ClientCommitReq>(&encode(&shipped)), Some(shipped));
        let batch = PeerMsg::OpBatch {
            gtx,
            writes: writes.clone(),
        };
        assert_eq!(decode::<PeerMsg>(&encode(&batch)), Some(batch));
        let piggyback = PeerMsg::Prepare {
            gtx,
            batch: writes,
            read_only: false,
        };
        assert_eq!(decode::<PeerMsg>(&encode(&piggyback)), Some(piggyback));
        for fail in [
            None,
            Some(OpFailure {
                index: 3,
                code: FailCode::LockTimeout,
                reason: "lock timeout on key".into(),
            }),
        ] {
            let reply = PeerReply::BatchDone { fail };
            assert_eq!(decode::<PeerReply>(&encode(&reply)), Some(reply.clone()));
        }
    }

    #[test]
    fn pre_batching_prepare_still_decodes() {
        // Prepares encoded before the piggybacked batch (or the read-only
        // flag) existed carry neither field; the serde defaults must keep
        // them decoding as a plain full prepare.
        let old: PeerMsg = decode(br#"{"Prepare":{"gtx":{"node":1,"seq":2}}}"#)
            .expect("batch-less prepare decodes");
        assert_eq!(
            old,
            PeerMsg::Prepare {
                gtx: GlobalTxId { node: 1, seq: 2 },
                batch: Vec::new(),
                read_only: false,
            }
        );
        // An empty commit payload is not valid JSON for ClientCommitReq;
        // the coordinator treats an empty payload as "no shipped writes"
        // before decoding — but a writes-less object must also decode.
        let bare: ClientCommitReq = decode(br#"{}"#).expect("writes-less commit decodes");
        assert!(bare.writes.is_empty());
    }

    #[test]
    fn fail_code_classifies_store_errors() {
        use treaty_store::StoreError;
        assert_eq!(FailCode::from(&StoreError::LockTimeout), FailCode::LockTimeout);
        assert_eq!(FailCode::from(&StoreError::Conflict), FailCode::Conflict);
        assert_eq!(
            FailCode::from(&StoreError::Integrity("bad".into())),
            FailCode::Integrity
        );
        assert_eq!(
            FailCode::from(&StoreError::Rollback("stale".into())),
            FailCode::Integrity
        );
        assert_eq!(FailCode::from(&StoreError::Finished), FailCode::Finished);
        assert_eq!(FailCode::from(&StoreError::Io("disk".into())), FailCode::Other);
    }

    #[test]
    fn garbage_decodes_to_none() {
        assert_eq!(decode::<PeerMsg>(b"not json"), None);
    }

    #[test]
    fn snapshot_payloads_roundtrip() {
        for ts in [None, Some(0), Some(7)] {
            let req = SnapshotReadReq {
                ts,
                keys: vec![b"a".to_vec(), b"b".to_vec()],
            };
            assert_eq!(decode::<SnapshotReadReq>(&encode(&req)), Some(req));
        }
        for reply in [
            SnapshotReadReply::Values {
                ts: 7,
                values: vec![Some(b"v".to_vec()), None],
            },
            SnapshotReadReply::Stale { stable_ts: 3 },
            SnapshotReadReply::InDoubt { key: b"a".to_vec() },
        ] {
            assert_eq!(
                decode::<SnapshotReadReply>(&encode(&reply)),
                Some(reply.clone())
            );
        }
        let val = SnapshotValidateReq {
            ts: 7,
            keys: vec![b"a".to_vec()],
            spans: vec![(b"a".to_vec(), b"m".to_vec())],
        };
        assert_eq!(decode::<SnapshotValidateReq>(&encode(&val)), Some(val));
        // Requests encoded before spans existed still decode (serde default).
        let old: SnapshotValidateReq =
            decode(br#"{"ts":7,"keys":[[97]]}"#).expect("span-less request decodes");
        assert!(old.spans.is_empty());
        for reply in [
            SnapshotValidateReply::Ok,
            SnapshotValidateReply::Fail { key: b"a".to_vec() },
        ] {
            assert_eq!(
                decode::<SnapshotValidateReply>(&encode(&reply)),
                Some(reply.clone())
            );
        }
    }
}
