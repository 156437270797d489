//! The coordinator log (Clog) — the third authenticated log file (§V-A).
//!
//! "Clog is written by Txs coordinators and keeps the 2PC protocol state."
//! Every entry carries a trusted counter value. A commit is
//! rollback-protected once the *start* entry and every participant's
//! prepare are stable (DESIGN.md §11), and the client hears then; the
//! *decision* entry is appended behind that ack and stabilized before
//! anyone else learns the outcome (§VI).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use treaty_crypto::codec::{CodecError, Decode, Encode, Reader, Record, Writer};
use treaty_sim::crashpoint::CrashPoint;
use treaty_store::env::Env;
use treaty_store::log::{self, LogWriter};
use treaty_store::{GlobalTxId, Result, StoreError};

/// One Clog record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClogRecord {
    /// The coordinator started 2PC for `gtx` with these participants.
    Start {
        /// Transaction id.
        gtx: GlobalTxId,
        /// Participant fabric endpoints.
        participants: Vec<u32>,
    },
    /// The commit/abort decision.
    Decision {
        /// Transaction id.
        gtx: GlobalTxId,
        /// True = commit.
        commit: bool,
    },
}

impl Encode for ClogRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            ClogRecord::Start { gtx, participants } => {
                w.u8(0);
                gtx.encode(w);
                participants.encode(w);
            }
            ClogRecord::Decision { gtx, commit } => {
                w.u8(1);
                gtx.encode(w);
                commit.encode(w);
            }
        }
    }
}

impl Decode for ClogRecord {
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => ClogRecord::Start {
                gtx: Decode::decode(r)?,
                participants: Decode::decode(r)?,
            },
            1 => ClogRecord::Decision {
                gtx: Decode::decode(r)?,
                commit: Decode::decode(r)?,
            },
            _ => return Err(CodecError::Invalid("clog record tag")),
        })
    }
}

impl Record for ClogRecord {
    const MAGIC: u8 = 0x21;
}

/// 2PC state for one transaction, rebuilt at recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxProtocolState {
    /// Participants recorded at start.
    pub participants: Vec<u32>,
    /// Decision, if logged.
    pub decision: Option<bool>,
}

/// The coordinator log.
pub struct Clog {
    writer: Arc<LogWriter>,
    state: Mutex<HashMap<GlobalTxId, TxProtocolState>>,
    env: Arc<Env>,
}

impl std::fmt::Debug for Clog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clog").finish_non_exhaustive()
    }
}

/// File name of the Clog within a node directory.
pub const CLOG_FILE: &str = "CLOG";
/// Log name (drives the trusted counter id).
pub const CLOG_NAME: &str = "clog";

impl Clog {
    /// Opens (or recovers) the Clog in `env.dir`, verifying integrity and
    /// freshness of any existing records.
    ///
    /// # Errors
    ///
    /// Propagates integrity/rollback errors from the log replay.
    pub fn open(env: Arc<Env>) -> Result<Self> {
        let path = env.dir.join(CLOG_FILE);
        let mut state = HashMap::new();
        let recovered_counter = if path.exists() {
            let replay = log::replay(&env, CLOG_NAME, &path, 0)?;
            log::verify_freshness(&env, CLOG_NAME, replay.last_counter)?;
            for (_, payload) in &replay.records {
                let rec = ClogRecord::from_bytes(payload)
                    .map_err(|e| StoreError::Integrity(format!("clog record: {e}")))?;
                let (ClogRecord::Start { gtx, .. } | ClogRecord::Decision { gtx, .. }) = &rec;
                let st = state.entry(*gtx).or_insert(TxProtocolState {
                    participants: vec![],
                    decision: None,
                });
                match rec {
                    ClogRecord::Start { participants, .. } => st.participants = participants,
                    ClogRecord::Decision { commit, .. } => st.decision = Some(commit),
                }
            }
            replay.last_counter
        } else {
            // A missing Clog is only acceptable if nothing was ever
            // stabilized under this name — otherwise the adversary deleted
            // it to forget decided transactions.
            log::verify_freshness(&env, CLOG_NAME, 0)?;
            0
        };
        let writer = Arc::new(LogWriter::open(
            Arc::clone(&env),
            CLOG_NAME,
            &path,
            recovered_counter,
        )?);
        // A tail past the group's stabilized value was appended but the
        // crash came before its round: make it stable now, so recovery
        // never sends or applies a decision an adversary could still roll
        // back (the rule `publish_decision` keeps on the live path).
        if env.profile.stabilization {
            let id = log::counter_id(&env, CLOG_NAME);
            if env.backend.latest(&id) < recovered_counter {
                env.backend.stabilize(&id, recovered_counter)?;
            }
        }
        Ok(Clog {
            writer,
            state: Mutex::new(state),
            env,
        })
    }

    /// One record onto the writer's queue: on disk with whatever else
    /// queued while the previous write was in flight.
    fn append(&self, rec: &ClogRecord) -> Result<u64> {
        self.writer.append(&rec.to_bytes())
    }

    /// Logs the start of 2PC for `gtx`. Returns the record's counter.
    ///
    /// # Errors
    ///
    /// Propagates log I/O failures.
    pub fn log_start(&self, gtx: GlobalTxId, participants: Vec<u32>) -> Result<u64> {
        let _span = treaty_sim::obs::span_with(
            "clog.log_start",
            &[("participants", participants.len() as u64)],
        );
        let rec = ClogRecord::Start {
            gtx,
            participants: participants.clone(),
        };
        let counter = self.append(&rec)?;
        self.state.lock().insert(
            gtx,
            TxProtocolState {
                participants,
                decision: None,
            },
        );
        Ok(counter)
    }

    /// Appends the decision record and returns its counter. A commit's is
    /// appended after the client heard `Committed`, an abort's before
    /// anyone hears (DESIGN.md §11). Appended is not decided: nothing
    /// reads the decision until [`Clog::publish_decision`], which follows
    /// [`Clog::stabilize`].
    ///
    /// # Errors
    ///
    /// Propagates log I/O failures.
    pub fn append_decision(&self, gtx: GlobalTxId, commit: bool) -> Result<u64> {
        let _span =
            treaty_sim::obs::span_with("clog.log_decision", &[("commit", u64::from(commit))]);
        let rec = ClogRecord::Decision { gtx, commit };
        let counter = self.append(&rec)?;
        treaty_sim::crashpoint::hit(CrashPoint::ClogDecisionAppended);
        Ok(counter)
    }

    /// Whether the record at `counter` is rollback-protected already —
    /// always so under a profile without stabilization, where durability
    /// is the append itself.
    fn is_stable(&self, counter: u64) -> bool {
        !self.env.profile.stabilization || self.writer.stable_counter() >= counter
    }

    /// Starts making the record at `counter` stable without waiting for
    /// it: a helper fiber leads the counter round, and a later
    /// [`Clog::stabilize`] joins it. Does nothing when there is no round to
    /// run, when a launched round covers the record already (the Starts
    /// that shared a flush share the first one's round; if it fails, the
    /// join leads afresh), or outside the runtime.
    pub fn kick_stabilize(&self, counter: u64) {
        if self.is_stable(counter)
            || self.writer.counter().covered() >= counter
            || !treaty_sim::runtime::in_fiber()
        {
            return;
        }
        let writer = Arc::clone(&self.writer);
        treaty_sim::runtime::spawn_daemon(move || {
            treaty_sim::runtime::set_tag("clog-kick");
            // A failed round is reported to whoever joins it.
            let _ = writer.stabilize(counter);
        });
    }

    /// Blocks until the record at `counter` is rollback-protected (§V-A
    /// steps 6–7), riding the counter round in flight if there is one.
    ///
    /// # Errors
    ///
    /// Propagates stabilization failures.
    pub fn stabilize(&self, counter: u64) -> Result<()> {
        if self.is_stable(counter) {
            return Ok(());
        }
        let _stab = treaty_sim::obs::span("clog.stabilize");
        self.writer.stabilize(counter)
    }

    /// Makes the decision — stable by now — the transaction's outcome:
    /// what [`Clog::decision`] answers, and with it `QueryDecision`.
    pub fn publish_decision(&self, gtx: GlobalTxId, commit: bool) {
        if let Some(st) = self.state.lock().get_mut(&gtx) {
            st.decision = Some(commit);
        }
    }

    /// Logs the decision: append, stabilize, publish.
    ///
    /// # Errors
    ///
    /// Propagates log I/O and stabilization failures; the decision is then
    /// not published.
    pub fn log_decision(&self, gtx: GlobalTxId, commit: bool) -> Result<()> {
        let counter = self.append_decision(gtx, commit)?;
        self.stabilize(counter)?;
        self.publish_decision(gtx, commit);
        Ok(())
    }

    /// The logged decision for `gtx`, if any.
    pub fn decision(&self, gtx: GlobalTxId) -> Option<bool> {
        self.state.lock().get(&gtx).and_then(|s| s.decision)
    }

    /// Transactions started but undecided — what recovery must re-drive —
    /// sorted by id (recovery sends and logs in this order).
    pub fn undecided(&self) -> Vec<(GlobalTxId, Vec<u32>)> {
        let mut out: Vec<_> = self
            .state
            .lock()
            .iter()
            .filter(|(_, s)| s.decision.is_none())
            .map(|(g, s)| (*g, s.participants.clone()))
            .collect();
        out.sort_unstable_by_key(|(g, _)| *g);
        out
    }

    /// Transactions with a logged decision (recovery re-delivers phase
    /// two for them, since ACKs are not logged), sorted by id.
    pub fn decided(&self) -> Vec<(GlobalTxId, TxProtocolState)> {
        let mut out: Vec<_> = self
            .state
            .lock()
            .iter()
            .filter(|(_, s)| s.decision.is_some())
            .map(|(g, s)| (*g, s.clone()))
            .collect();
        out.sort_unstable_by_key(|(g, _)| *g);
        out
    }

    /// Full protocol state for `gtx` (test introspection).
    pub fn protocol_state(&self, gtx: GlobalTxId) -> Option<TxProtocolState> {
        self.state.lock().get(&gtx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use treaty_sim::SecurityProfile;

    fn env(dir: &Path) -> Arc<Env> {
        Env::for_testing(SecurityProfile::treaty_full(), dir)
    }

    #[test]
    fn start_decide_and_recover() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let gtx = GlobalTxId { node: 1, seq: 9 };
        {
            let clog = Clog::open(env(dir.path()))?;
            clog.log_start(gtx, vec![1, 2])?;
            assert_eq!(clog.undecided().len(), 1);
            clog.log_decision(gtx, true)?;
            assert_eq!(clog.decision(gtx), Some(true));
            assert!(clog.undecided().is_empty());
        }
        // Recover.
        let clog = Clog::open(env(dir.path()))?;
        assert_eq!(clog.decision(gtx), Some(true));
        let st = clog
            .protocol_state(gtx)
            .ok_or_else(|| StoreError::Integrity("recovered state missing".into()))?;
        assert_eq!(st.participants, vec![1, 2]);
        Ok(())
    }

    #[test]
    fn undecided_txn_visible_after_recovery() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let gtx = GlobalTxId { node: 1, seq: 3 };
        {
            let clog = Clog::open(env(dir.path()))?;
            clog.log_start(gtx, vec![2, 3])?;
            // crash before decision
        }
        let clog = Clog::open(env(dir.path()))?;
        assert_eq!(clog.undecided(), vec![(gtx, vec![2, 3])]);
        assert_eq!(clog.decision(gtx), None);
        Ok(())
    }

    #[test]
    fn decisions_are_answered_once_logged_and_survive_recovery() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let gtx = GlobalTxId { node: 1, seq: 1 };
        {
            let clog = Clog::open(env(dir.path()))?;
            assert_eq!(clog.decision(gtx), None);
            clog.log_start(gtx, vec![1])?;
            // A Start alone decides nothing; the answer waits for a
            // decision.
            assert_eq!(clog.decision(gtx), None);
            assert_eq!(clog.undecided(), vec![(gtx, vec![1])]);
            clog.log_decision(gtx, true)?;
            assert_eq!(clog.decision(gtx), Some(true));
            assert!(clog.undecided().is_empty());
        }
        let clog = Clog::open(env(dir.path()))?;
        assert_eq!(clog.decision(gtx), Some(true));
        assert!(clog.undecided().is_empty());
        Ok(())
    }

    /// Appended is not decided: nothing a reader of the Clog can ask
    /// changes until the record is published.
    #[test]
    fn appended_decision_is_invisible_until_published() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let gtx = GlobalTxId { node: 1, seq: 2 };
        let clog = Clog::open(env(dir.path()))?;
        clog.log_start(gtx, vec![1, 2])?;
        let counter = clog.append_decision(gtx, true)?;
        assert!(!clog.is_stable(counter));
        assert_eq!(clog.decision(gtx), None);
        assert_eq!(clog.undecided().len(), 1);

        clog.stabilize(counter)?;
        assert!(clog.is_stable(counter));
        assert_eq!(clog.decision(gtx), None, "stable is not yet published");
        clog.publish_decision(gtx, true);
        assert_eq!(clog.decision(gtx), Some(true));
        assert!(clog.undecided().is_empty());
        Ok(())
    }

    /// A decision record that was appended but never had its round is made
    /// stable when the Clog reopens, before recovery can act on it.
    #[test]
    fn unstable_tail_is_stabilized_on_open() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let e = env(dir.path());
        let gtx = GlobalTxId { node: 1, seq: 4 };
        let counter = {
            let clog = Clog::open(Arc::clone(&e))?;
            clog.log_start(gtx, vec![1, 2])?;
            clog.append_decision(gtx, true)?
            // crash before the round
        };
        let id = log::counter_id(&e, CLOG_NAME);
        assert_eq!(e.backend.latest(&id), 0);
        let clog = Clog::open(Arc::clone(&e))?;
        assert_eq!(clog.decision(gtx), Some(true));
        assert_eq!(e.backend.latest(&id), counter);
        Ok(())
    }

    /// Concurrent Starts share a flush: the first finds the writer idle and
    /// goes alone, the fifteen queued behind its write ride the next one.
    /// Each still gets the counter its record has in the file.
    #[test]
    fn concurrent_starts_share_a_flush() -> Result<()> {
        use treaty_sim::runtime;
        let dir = tempfile::tempdir()?;
        let e = Env::for_testing(SecurityProfile::native_treaty(), dir.path());
        let one_flush = e.costs.ssd_append_ns(e.profile.tee, 0);
        let path = dir.path().join(CLOG_FILE);
        treaty_sched::block_on(move || {
            let clog = Arc::new(Clog::open(Arc::clone(&e))?);
            let handed = Arc::new(Mutex::new(Vec::new()));
            let fibers: Vec<_> = (1..=16u64)
                .map(|seq| {
                    let (clog, handed) = (Arc::clone(&clog), Arc::clone(&handed));
                    runtime::spawn(move || {
                        let gtx = GlobalTxId { node: 1, seq };
                        let counter = clog.log_start(gtx, vec![1, 2]);
                        handed.lock().push((counter, gtx));
                    })
                })
                .collect();
            fibers.into_iter().for_each(runtime::join);
            assert!(
                runtime::now() <= 3 * one_flush,
                "16 starts took {} ns, one flush is {one_flush} ns",
                runtime::now()
            );
            let mut handed = std::mem::take(&mut *handed.lock());
            handed.sort_by_key(|(_, gtx)| gtx.seq);
            let on_disk = log::replay(&e, CLOG_NAME, &path, 0)?.records;
            assert_eq!(on_disk.len(), 16);
            for ((counter, gtx), (seq, (at, payload))) in
                handed.into_iter().zip((1..=16u64).zip(on_disk))
            {
                assert_eq!(
                    (counter?, at),
                    (seq, seq),
                    "counters are 1..=16 without gap"
                );
                let rec = ClogRecord::from_bytes(&payload)
                    .map_err(|e| StoreError::Integrity(format!("clog record: {e}")))?;
                assert!(matches!(rec, ClogRecord::Start { gtx: g, .. } if g == gtx));
            }
            Ok(())
        })
    }

    #[test]
    fn tampered_clog_detected() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let e = env(dir.path());
        {
            let clog = Clog::open(Arc::clone(&e))?;
            clog.log_start(GlobalTxId { node: 1, seq: 1 }, vec![1])?;
        }
        let path = dir.path().join(CLOG_FILE);
        let mut raw = std::fs::read(&path)?;
        raw[15] ^= 0x40;
        std::fs::write(&path, raw)?;
        let err = Clog::open(e).unwrap_err();
        assert!(matches!(err, StoreError::Integrity(_)));
        Ok(())
    }

    #[test]
    fn truncated_clog_detected_as_rollback() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let e = env(dir.path());
        {
            let clog = Clog::open(Arc::clone(&e))?;
            let gtx = GlobalTxId { node: 1, seq: 1 };
            clog.log_start(gtx, vec![1])?;
            clog.log_decision(gtx, true)?; // stabilized
        }
        // Adversary deletes the Clog wholesale to forget the decision.
        std::fs::remove_file(dir.path().join(CLOG_FILE))?;
        let err = Clog::open(e).unwrap_err();
        assert!(
            matches!(err, StoreError::Rollback(_)),
            "deleting a stabilized Clog must be detected, got {err:?}"
        );
        Ok(())
    }
}
