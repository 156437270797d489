//! Wire payloads of the transaction protocol (carried inside the secure
//! message envelope of §VII-A), in the binary codec of
//! [`treaty_crypto::codec`]: one magic+version byte for the class, then the
//! payload type the request code names. The code travels sealed in the
//! message's stamp, and each code names one payload type, one reply type
//! and one handler.

use treaty_crypto::codec;
use treaty_crypto::codec::{CodecError, Decode, Encode, Reader, Writer};
use treaty_net::EndpointId;
use treaty_sim::obs::Counter;
use treaty_store::GlobalTxId;

/// Request codes on the fabric.
pub mod req {
    /// Client → coordinator: an ordered `Vec<Op>` — zero or more writes
    /// followed by at most one read or range operation; a single operation
    /// is a list of one. The reply is the last operation's `OpResult`.
    pub const CLIENT_OPS: u8 = 1;
    /// Client → coordinator: commit.
    pub const CLIENT_COMMIT: u8 = 2;
    /// Client → coordinator: rollback.
    pub const CLIENT_ROLLBACK: u8 = 3;
    /// Client → shard: lock-free snapshot read of keys and spans (read-only
    /// transactions; no 2PC state, no coordinator).
    pub const SNAPSHOT_READ: u8 = 4;
    /// Client → shard: end-of-transaction snapshot validation (multi-shard
    /// read-only transactions only).
    pub const SNAPSHOT_VALIDATE: u8 = 5;
    /// Anyone → node: live introspection snapshot (queue depths, stable
    /// frontier, backpressure, cache hit rates). Read-only; serves the
    /// `treaty-top` dashboard.
    pub const OBS_SNAPSHOT: u8 = 6;
    /// Coordinator → participant: this shard's slice of an operation list
    /// ([`super::PeerOps`]), applied in one sealed message (one seal/unseal
    /// per shard, not per op). The reply is the slice's `OpResult`.
    pub const PEER_OPS: u8 = 10;
    /// Coordinator → participant: 2PC prepare ([`super::PeerPrepare`]). The
    /// reply is the vote, a `bool`.
    pub const PEER_PREPARE: u8 = 11;
    /// Coordinator → participant: 2PC commit of a `GlobalTxId`. The reply
    /// is empty.
    pub const PEER_COMMIT: u8 = 12;
    /// Coordinator → participant: abort of a `GlobalTxId`. The reply, when
    /// one is asked for, is empty.
    pub const PEER_ABORT: u8 = 13;
    /// Recovering participant → coordinator: what was decided for a
    /// `GlobalTxId`? The reply is an `Option<bool>`: `Some(true)` commit,
    /// `Some(false)` abort, `None` undecided.
    pub const QUERY_DECISION: u8 = 14;
    /// Coordinator → participant, one-way: the `GlobalTxId` passed its
    /// commit point, its lock point: release the locks its prepared entry
    /// holds only in S mode and keep the rest to the decision.
    pub const PEER_COMMIT_POINT: u8 = 15;
}

/// One transactional operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Blind point write (put or delete).
    Write(WriteCmd),
    /// Point read.
    Get {
        /// Key to read.
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

codec!(enum Op {
    0 => Write(cmd),
    1 => Get { key },
    2 => Scan { start, end, limit },
    3 => RangeDelete { start, end },
});

impl Op {
    /// The key a point operation is routed by; `None` for range operations,
    /// which span the whole key space and fan out to every shard.
    pub fn point_key(&self) -> Option<&[u8]> {
        match self {
            Op::Write(WriteCmd { key, .. }) | Op::Get { key } => Some(key),
            Op::Scan { .. } | Op::RangeDelete { .. } => None,
        }
    }

    /// Whether this operation leaves something for a participant to apply
    /// at commit (a transaction with none takes the read-only lane).
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Write(_) | Op::RangeDelete { .. })
    }
}

/// One blind write: `Some(value)` is a put, `None` a delete. Clients buffer
/// these locally ([`crate::DistTxn::put`] returns without touching the
/// network) and ship them wholesale — ahead of the first read that could
/// observe them ([`req::CLIENT_OPS`]) or with the commit itself
/// ([`req::CLIENT_COMMIT`] payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCmd {
    /// Key written.
    pub key: Vec<u8>,
    /// `Some` = put this value, `None` = delete the key.
    pub value: Option<Vec<u8>>,
}

codec!(struct WriteCmd { key, value });

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

/// Client → coordinator payload of [`req::CLIENT_COMMIT`]: the writes still
/// buffered at commit, in issue order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientCommitReq {
    /// Buffered writes in the order the client issued them.
    pub writes: Vec<WriteCmd>,
}

codec!(struct ClientCommitReq { writes });

/// Declares [`AbortCause`] from one row per cause: its wire tag, its
/// variant, the registry counter it is counted under and its text, which
/// is also its doc. The enum, its codec, `ALL`, `counter()` and `Display`
/// all come from the rows, so a cause without a counter does not compile.
macro_rules! abort_causes {
    ($($tag:literal => $variant:ident, $counter:ident, $text:literal;)*) => {
        /// Why a transaction ended aborted: one variant per way, one byte
        /// on the wire. The human text is its `Display`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum AbortCause {
            $(#[doc = $text] $variant,)*
        }

        codec!(enum AbortCause { $($tag => $variant,)* });

        impl AbortCause {
            /// Every cause, in tag order.
            pub const ALL: [AbortCause; [$($tag),*].len()] = [$(AbortCause::$variant),*];

            /// The `core.abort.*` counter this cause is counted under.
            pub fn counter(self) -> Counter {
                match self {
                    $(AbortCause::$variant => Counter::$counter,)*
                }
            }
        }

        impl std::fmt::Display for AbortCause {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(match self {
                    $(AbortCause::$variant => $text,)*
                })
            }
        }
    };
}

abort_causes! {
    0 => LockTimeout, CoreAbortLockTimeout, "lock wait timed out";
    1 => Conflict, CoreAbortConflict, "optimistic validation conflict";
    2 => Integrity, CoreAbortIntegrity, "integrity or freshness check failed";
    3 => SliceLost, CoreAbortSliceLost, "slice finished or lost in a restart";
    4 => VotedNo, CoreAbortVotedNo, "voted no";
    5 => Unreachable, CoreAbortUnreachable, "unreachable or malformed reply";
    6 => LogFailed, CoreAbortLogFailed, "log append or counter round failed";
    7 => RolledBack, CoreAbortRolledBack, "rolled back by client";
    8 => AlreadyAborted, CoreAbortAlreadyAborted, "already aborted";
    9 => Malformed, CoreAbortMalformed, "malformed request";
    10 => Unsupported, CoreAbortUnsupported, "operation not supported";
}

impl From<&treaty_store::StoreError> for AbortCause {
    fn from(e: &treaty_store::StoreError) -> Self {
        use treaty_store::StoreError as E;
        match e {
            E::LockTimeout => AbortCause::LockTimeout,
            E::Conflict | E::SnapshotStale { .. } | E::SnapshotInDoubt => AbortCause::Conflict,
            E::Integrity(_) | E::Rollback(_) => AbortCause::Integrity,
            E::Finished | E::UnknownPrepared => AbortCause::SliceLost,
            E::Stabilization(_) | E::Io(_) => AbortCause::LogFailed,
            E::Unsupported => AbortCause::Unsupported,
        }
    }
}

/// A transaction's abort: its cause, and the participant that refused it
/// or could not be reached, where there is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort {
    /// Why.
    pub cause: AbortCause,
    /// The failing participant, the coordinator's own slice included.
    pub participant: Option<EndpointId>,
}

codec!(struct Abort { cause, participant });

impl From<AbortCause> for Abort {
    fn from(cause: AbortCause) -> Self {
        Abort {
            cause,
            participant: None,
        }
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.participant {
            Some(p) => write!(f, "participant {p}: {}", self.cause),
            None => write!(f, "{}", self.cause),
        }
    }
}

/// Result of an operation list: that of its last [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Success; `value` set for gets.
    Ok {
        /// Value read, if the last operation was a get.
        value: Option<Vec<u8>>,
    },
    /// Success of an [`Op::Scan`]: the visible pairs of one shard's slice
    /// of the span, sorted by key.
    Entries {
        /// `(key, value)` pairs in ascending key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// An operation failed and the transaction aborted; the whole list was
    /// rolled back with it (all-or-nothing). The abort names the
    /// participant that refused: the shard whose slice failed, a shard that
    /// could not be reached, or the coordinator for a malformed list.
    Failed(Abort),
}

codec!(enum OpResult {
    0 => Ok { value },
    1 => Entries { entries },
    2 => Failed(abort),
});

/// Coordinator → participant payload of [`req::PEER_OPS`]: this shard's
/// slice of an operation list inside `gtx`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerOps {
    /// Transaction id.
    pub gtx: GlobalTxId,
    /// The participant served the transaction's earlier operations. One
    /// that holds no slice restarted since and lost its locks, and fails
    /// the list instead of beginning a fresh slice for `ops`.
    pub held: bool,
    /// The operations, in client issue order.
    pub ops: Vec<Op>,
}

codec!(struct PeerOps { gtx, held, ops });

/// What phase one asks of a participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The whole transaction wrote nothing anywhere: validate, release
    /// every lock and vote. Nothing is logged and no decision follows.
    ReadOnly,
    /// Apply the batch and prepare. A participant that received nothing
    /// before the commit begins its slice here.
    Write,
    /// Apply the batch and prepare on the slice this participant holds: it
    /// served the transaction's operations before the commit. One that
    /// holds no slice restarted since and lost its locks, and votes no.
    Held,
}

codec!(enum Lane { 0 => ReadOnly, 1 => Write, 2 => Held });

/// Coordinator → participant payload of [`req::PEER_PREPARE`]. For
/// write-only participants the coordinator piggybacks their slice of the
/// commit's writes here, collapsing execute+prepare into one round trip
/// per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerPrepare {
    /// Transaction id.
    pub gtx: GlobalTxId,
    /// What the participant is asked to do.
    pub lane: Lane,
    /// Writes to apply before preparing (empty for a plain prepare).
    pub batch: Vec<Op>,
}

codec!(struct PeerPrepare { gtx, lane, batch });

/// Client → coordinator commit/rollback result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitResult {
    /// Committed and (under the stabilization profile) rollback-protected.
    Committed,
    /// Aborted.
    Aborted(Abort),
}

codec!(enum CommitResult { 0 => Committed, 1 => Aborted(abort) });

/// Client → shard snapshot-read request (read-only transactions): point
/// reads and span scans served lock-free at one timestamp. Keys are
/// hash-partitioned, so the client groups `keys` by owner but fans every
/// span out to every shard and merges the sorted slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReadReq {
    /// Snapshot timestamp pinned at this shard; `None` asks the shard to
    /// pin its current stable read timestamp and report it back. (An
    /// explicit option, not a `0` sentinel: `0` is a legitimate stable
    /// timestamp on a fresh shard, and conflating the two let one
    /// transaction re-pin the same shard at two different timestamps.)
    pub ts: Option<u64>,
    /// Keys to read, all owned by this shard.
    pub keys: Vec<Vec<u8>>,
    /// Spans (`[start, end)` pairs) to scan over this shard's slice.
    pub spans: Vec<(Vec<u8>, Vec<u8>)>,
    /// Maximum pairs this shard should return per span (`0` = unbounded).
    pub limit: u64,
}

codec!(struct SnapshotReadReq { ts, keys, spans, limit });

/// Shard → client snapshot-read reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotReadReply {
    /// The reads, served lock-free at `ts`.
    Values {
        /// The snapshot timestamp actually used (echoed, or freshly
        /// pinned when the request carried no timestamp).
        ts: u64,
        /// One value per requested key, in request order.
        values: Vec<Option<Vec<u8>>>,
        /// One sorted `(key, value)` slice per requested span, in request
        /// order.
        rows: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    },
    /// The requested timestamp runs ahead of this shard's stable read
    /// timestamp; retry with a refreshed snapshot.
    Stale {
        /// The shard's current stable read timestamp.
        stable_ts: u64,
    },
    /// A key or span overlaps an undecided prepared transaction; its
    /// outcome may already be visible elsewhere, so the snapshot must retry.
    InDoubt {
        /// The offending key (for a span, its start).
        key: Vec<u8>,
    },
}

codec!(enum SnapshotReadReply {
    0 => Values { ts, values, rows },
    1 => Stale { stable_ts },
    2 => InDoubt { key },
});

/// Client → shard end-of-transaction validation for multi-shard read-only
/// transactions: "are these reads at `ts` still the latest word?"
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotValidateReq {
    /// The timestamp the keys were read at on this shard.
    pub ts: u64,
    /// The keys read from this shard.
    pub keys: Vec<Vec<u8>>,
    /// Spans scanned from this shard (`[start, end)` pairs). Per-key
    /// validation cannot see a key *inserted* into a scanned span after
    /// the read, so spans are validated wholesale: any version, tombstone
    /// or in-doubt prepare newer than `ts` inside a span fails the
    /// snapshot.
    pub spans: Vec<(Vec<u8>, Vec<u8>)>,
}

codec!(struct SnapshotValidateReq { ts, keys, spans });

/// Shard → client validation reply.
#[derive(Debug, Clone, PartialEq, Eq)]
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

codec!(enum SnapshotValidateReply { 0 => Ok, 1 => Fail { key } });

/// Node → caller live introspection snapshot ([`req::OBS_SNAPSHOT`]).
/// Every field is read from the node's live structures at serve time —
/// this is the `treaty-top` data source, not a post-run artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSnapshotReply {
    /// The answering node's endpoint.
    pub node: u32,
    /// Virtual time the snapshot was taken.
    pub ts: u64,
    /// The shard's stable read timestamp (MVCC frontier).
    pub stable_ts: u64,
    /// Fibers still working behind a decision: commits finishing behind
    /// their ack and phase-two deliveries.
    pub finishes_inflight: u64,
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

/// Magic+version byte of a protocol payload.
pub const MAGIC: u8 = 0x11;

/// Encodes any of the protocol payloads.
pub fn encode<T: Encode + ?Sized>(v: &T) -> Vec<u8> {
    codec::to_bytes(MAGIC, v)
}

/// Decodes a protocol payload.
pub fn decode<T: Decode>(bytes: &[u8]) -> Option<T> {
    codec::from_bytes(MAGIC, bytes).ok()
}

impl Encode for ObsSnapshotReply {
    fn encode(&self, w: &mut Writer) {
        self.node.encode(w);
        self.ts.encode(w);
        self.stable_ts.encode(w);
        self.finishes_inflight.encode(w);
        self.flush_backlog.encode(w);
        w.u8(self.backpressure);
        self.prepared_txns.encode(w);
        self.committed.encode(w);
        self.aborted.encode(w);
        self.participant_ops.encode(w);
        self.decision_retries.encode(w);
        self.block_cache_hits.encode(w);
        self.block_cache_misses.encode(w);
    }
}

/// Written by hand because `backpressure` is a bare byte: `u8` has no
/// [`Encode`] of its own, so that a `Vec<u8>` stays a byte string. A level
/// above 2 is one no node reports, and is refused.
impl Decode for ObsSnapshotReply {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ObsSnapshotReply {
            node: Decode::decode(r)?,
            ts: Decode::decode(r)?,
            stable_ts: Decode::decode(r)?,
            finishes_inflight: Decode::decode(r)?,
            flush_backlog: Decode::decode(r)?,
            backpressure: match r.u8()? {
                level @ 0..=2 => level,
                _ => return Err(CodecError::Invalid("backpressure")),
            },
            prepared_txns: Decode::decode(r)?,
            committed: Decode::decode(r)?,
            aborted: Decode::decode(r)?,
            participant_ops: Decode::decode(r)?,
            decision_retries: Decode::decode(r)?,
            block_cache_hits: Decode::decode(r)?,
            block_cache_misses: Decode::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_roundtrip() {
        let scan = Op::Scan {
            start: b"a".to_vec(),
            end: b"m".to_vec(),
            limit: 10,
        };
        let rdel = Op::RangeDelete {
            start: b"a".to_vec(),
            end: b"m".to_vec(),
        };
        let ops = vec![
            Op::Write(WriteCmd::put(b"k", b"v")),
            Op::Write(WriteCmd::delete(b"k")),
            Op::Get { key: b"k".to_vec() },
            scan,
            rdel,
        ];
        // The CLIENT_OPS payload is the bare list.
        assert_eq!(decode::<Vec<Op>>(&encode(&ops)), Some(ops.clone()));
        let keys: Vec<Option<&[u8]>> = ops.iter().map(Op::point_key).collect();
        assert_eq!(keys, [Some(&b"k"[..]), Some(b"k"), Some(b"k"), None, None]);
        let writes: Vec<bool> = ops.iter().map(Op::is_write).collect();
        assert_eq!(writes, [true, true, false, false, true]);
    }

    #[test]
    fn op_results_roundtrip() {
        for res in [
            OpResult::Ok {
                value: Some(b"v".to_vec()),
            },
            OpResult::Entries {
                entries: vec![
                    (b"a".to_vec(), b"1".to_vec()),
                    (b"b".to_vec(), b"2".to_vec()),
                ],
            },
            OpResult::Failed(Abort {
                cause: AbortCause::LockTimeout,
                participant: Some(3),
            }),
            OpResult::Failed(AbortCause::Malformed.into()),
        ] {
            assert_eq!(decode::<OpResult>(&encode(&res)), Some(res.clone()));
        }
    }

    #[test]
    fn peer_payloads_roundtrip() {
        let gtx = GlobalTxId { node: 1, seq: 2 };
        let ops = vec![
            Op::Write(WriteCmd::put(b"a", b"1")),
            Op::Write(WriteCmd::delete(b"b")),
        ];
        let shipped = ClientCommitReq {
            writes: vec![WriteCmd::put(b"a", b"1"), WriteCmd::delete(b"b")],
        };
        assert_eq!(decode::<ClientCommitReq>(&encode(&shipped)), Some(shipped));
        for held in [false, true] {
            let ops = ops.clone();
            let slice = PeerOps { gtx, held, ops };
            assert_eq!(decode::<PeerOps>(&encode(&slice)), Some(slice));
        }
        for lane in [Lane::ReadOnly, Lane::Write, Lane::Held] {
            let batch = ops.clone();
            let m = PeerPrepare { gtx, lane, batch };
            assert_eq!(decode::<PeerPrepare>(&encode(&m)), Some(m));
        }
        assert_eq!(decode::<GlobalTxId>(&encode(&gtx)), Some(gtx));
        for decision in [None, Some(true), Some(false)] {
            assert_eq!(decode::<Option<bool>>(&encode(&decision)), Some(decision));
        }
    }

    #[test]
    fn a_backpressure_level_no_node_reports_is_refused() {
        let reply = ObsSnapshotReply {
            backpressure: 2,
            ..ObsSnapshotReply::default()
        };
        let mut bytes = encode(&reply);
        assert_eq!(decode::<ObsSnapshotReply>(&bytes), Some(reply));
        // MAGIC, node u32, then four u64 counters.
        let at = 1 + 4 + 4 * 8;
        assert_eq!(bytes[at], 2);
        bytes[at] = 3;
        assert_eq!(
            codec::from_bytes::<ObsSnapshotReply>(MAGIC, &bytes),
            Err(CodecError::Invalid("backpressure"))
        );
    }

    #[test]
    fn abort_cause_classifies_store_errors() {
        use treaty_store::{Check, StoreError, Stored};
        for (e, cause) in [
            (StoreError::LockTimeout, AbortCause::LockTimeout),
            (StoreError::Conflict, AbortCause::Conflict),
            (
                StoreError::integrity(Stored::MemValue, Check::Digest),
                AbortCause::Integrity,
            ),
            (
                StoreError::rollback(Stored::Log { log: "clog".into() }, Check::Missing),
                AbortCause::Integrity,
            ),
            (StoreError::Finished, AbortCause::SliceLost),
            (StoreError::Io("disk".into()), AbortCause::LogFailed),
            (StoreError::Unsupported, AbortCause::Unsupported),
        ] {
            assert_eq!(AbortCause::from(&e), cause, "{e}");
        }
    }

    #[test]
    fn snapshot_payloads_roundtrip() {
        for ts in [None, Some(0), Some(7)] {
            let req = SnapshotReadReq {
                ts,
                keys: vec![b"a".to_vec(), b"b".to_vec()],
                spans: vec![(b"a".to_vec(), b"m".to_vec())],
                limit: 10,
            };
            assert_eq!(decode::<SnapshotReadReq>(&encode(&req)), Some(req));
        }
        for reply in [
            SnapshotReadReply::Values {
                ts: 7,
                values: vec![Some(b"v".to_vec()), None],
                rows: vec![vec![(b"a".to_vec(), b"1".to_vec())]],
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
