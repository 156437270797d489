//! The coordinator log (Clog) — the third authenticated log file (§V-A).
//!
//! "Clog is written by Txs coordinators and keeps the 2PC protocol state."
//! Every entry carries a trusted counter value. A commit is
//! rollback-protected once the *start* entry and every participant's
//! prepare are stable (DESIGN.md §11), and the client hears then; the
//! *decision* entry is appended behind that ack and stabilized before
//! anyone else learns the outcome (§VI).
//!
//! The Start's write is not on the commit path: [`Clog::start`] registers
//! the transaction in memory and hands its append and counter round to a
//! helper fiber, so the prepares leave beside it, and the commit point
//! joins the helper ([`PendingStart::wait_stable`]). The price is that a
//! participant may hold a prepare whose Start never reached the disk. The
//! Clog answers for that with presumed abort (R*): a transaction this
//! coordinator does not know can never have reached its commit point, so
//! [`Clog::outcome`] answers abort for it.

use std::collections::HashMap;
use std::rc::Rc;

use treaty_crypto::codec;
use treaty_crypto::codec::Record;
use treaty_sim::crashpoint::CrashPoint;
use treaty_sim::obs::Phase;
use treaty_sim::{FiberCell, FiberId};
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

codec!(enum ClogRecord {
    0 => Start { gtx, participants },
    1 => Decision { gtx, commit },
});

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
    writer: Rc<LogWriter>,
    state: FiberCell<HashMap<GlobalTxId, TxProtocolState>>,
    env: Rc<Env>,
}

impl std::fmt::Debug for Clog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clog").finish_non_exhaustive()
    }
}

/// A Start record on its way to stable, written by [`Clog::start`]'s
/// helper fiber.
#[must_use = "the commit point waits for the Start"]
pub struct PendingStart {
    fiber: FiberId,
    result: Rc<FiberCell<Option<Result<()>>>>,
}

impl PendingStart {
    /// Waits until the Start is on disk and rollback-protected.
    ///
    /// # Errors
    ///
    /// The append's or the counter round's failure, or an I/O error when
    /// the helper unwound (its node crashed) before it finished.
    pub fn wait_stable(self) -> Result<()> {
        treaty_sim::runtime::join(self.fiber);
        self.result
            .take()
            .unwrap_or_else(|| Err(StoreError::Io("the Start's writer unwound".into())))
    }
}

/// File name of the Clog within a node directory.
pub const CLOG_FILE: &str = "CLOG";
/// Log name (drives the trusted counter id).
pub const CLOG_NAME: &str = "clog";

impl Clog {
    /// Opens the Clog in `env.dir` through [`LogWriter::resume`]: its
    /// records verified and held to the trusted counter — a missing Clog
    /// is an empty one, refused if anything was ever stabilized under
    /// this name (the adversary deleted it to forget decided
    /// transactions).
    ///
    /// # Errors
    ///
    /// Propagates integrity/rollback errors from the log replay.
    pub fn open(env: Rc<Env>) -> Result<Self> {
        let (writer, records) =
            LogWriter::resume(Rc::clone(&env), CLOG_NAME, &env.dir.join(CLOG_FILE))?;
        let mut state = HashMap::new();
        for record in &records {
            let rec = log::decode::<ClogRecord>(CLOG_NAME, record)?;
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
        // A tail past the group's stabilized value was appended but the
        // crash came before its round: make it stable now, so recovery
        // never sends or applies a decision an adversary could still roll
        // back (the rule `publish_decision` keeps on the live path).
        let recovered_counter = writer.written_counter();
        if env.profile.stabilization {
            let id = log::counter_id(&env, CLOG_NAME);
            if env.backend.latest(&id) < recovered_counter {
                env.backend.stabilize(&id, recovered_counter)?;
            }
        }
        Ok(Clog {
            writer: Rc::new(writer),
            state: FiberCell::new(state),
            env,
        })
    }

    /// One record onto the writer's queue: on disk with whatever else
    /// queued while the previous write was in flight.
    fn append(&self, rec: &ClogRecord) -> Result<u64> {
        self.writer.append(&rec.to_bytes())
    }

    /// Logs the start of 2PC for `gtx` and returns the record's counter.
    /// The transaction is registered before the write, so from here on
    /// [`Clog::outcome`] answers "undecided" for it, not abort. The
    /// protocol calls [`Clog::start`], which runs this write beside the
    /// prepares; this is the same write on the caller's fiber.
    ///
    /// # Errors
    ///
    /// Propagates log I/O failures.
    pub fn log_start(&self, gtx: GlobalTxId, participants: Vec<u32>) -> Result<u64> {
        self.register(gtx, &participants);
        self.append_start(gtx, participants)
    }

    /// Starts 2PC for `gtx` without waiting for its record: registers the
    /// transaction at once, then a helper fiber appends the Start and
    /// makes it stable while the caller sends its prepares. Starts queued
    /// behind one write share the next flush, and a counter round already
    /// launched over a record carries it.
    pub fn start(self: &Rc<Self>, gtx: GlobalTxId, participants: Vec<u32>) -> PendingStart {
        self.register(gtx, &participants);
        let result = Rc::new(FiberCell::new(None));
        let (clog, out) = (Rc::clone(self), Rc::clone(&result));
        let fiber = treaty_sim::runtime::spawn_daemon(move || {
            treaty_sim::runtime::set_tag("clog-start");
            let stable = clog
                .append_start(gtx, participants)
                .and_then(|counter| clog.stabilize(counter));
            out.replace(Some(stable));
        });
        PendingStart { fiber, result }
    }

    fn register(&self, gtx: GlobalTxId, participants: &[u32]) {
        self.state.borrow_mut().insert(
            gtx,
            TxProtocolState {
                participants: participants.to_vec(),
                decision: None,
            },
        );
    }

    fn append_start(&self, gtx: GlobalTxId, participants: Vec<u32>) -> Result<u64> {
        let _span = treaty_sim::obs::span_with(
            Phase::ClogLogStart,
            &[("participants", participants.len() as u64)],
        );
        let counter = self.append(&ClogRecord::Start { gtx, participants })?;
        treaty_sim::crashpoint::hit(CrashPoint::CoordAfterClogStart);
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
            treaty_sim::obs::span_with(Phase::ClogLogDecision, &[("commit", u64::from(commit))]);
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
        let _stab = treaty_sim::obs::span(Phase::ClogStabilize);
        self.writer.stabilize(counter)
    }

    /// Makes the decision — stable by now — the transaction's outcome:
    /// what [`Clog::decision`] answers, and with it `QueryDecision`.
    pub fn publish_decision(&self, gtx: GlobalTxId, commit: bool) {
        if let Some(st) = self.state.borrow_mut().get_mut(&gtx) {
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
        self.state.borrow().get(&gtx).and_then(|s| s.decision)
    }

    /// The outcome of a transaction this Clog's node coordinates — what
    /// `QueryDecision` answers: its published decision, `None` while it is
    /// undecided, and abort for a transaction the Clog does not know
    /// (presumed abort). Every transaction is registered before its Start
    /// is written and before any prepare leaves, so an unknown one either
    /// never started or belongs to a past life whose Start never reached
    /// the disk, or reached it unstable and was rolled back. Either way its
    /// commit point, which needs the Start stable, was never reached.
    pub fn outcome(&self, gtx: GlobalTxId) -> Option<bool> {
        self.state
            .borrow()
            .get(&gtx)
            .map_or(Some(false), |s| s.decision)
    }

    /// Transactions started but undecided — what recovery must re-drive —
    /// sorted by id (recovery sends and logs in this order).
    pub fn undecided(&self) -> Vec<(GlobalTxId, Vec<u32>)> {
        let mut out: Vec<_> = self
            .state
            .borrow()
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
            .borrow()
            .iter()
            .filter(|(_, s)| s.decision.is_some())
            .map(|(g, s)| (*g, s.clone()))
            .collect();
        out.sort_unstable_by_key(|(g, _)| *g);
        out
    }

    /// Full protocol state for `gtx` (test introspection).
    pub fn protocol_state(&self, gtx: GlobalTxId) -> Option<TxProtocolState> {
        self.state.borrow().get(&gtx).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use treaty_sim::SecurityProfile;

    fn env(dir: &Path) -> Rc<Env> {
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
        let participants = clog.protocol_state(gtx).map(|st| st.participants);
        assert_eq!(participants, Some(vec![1, 2]));
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

    /// Presumed abort: a transaction the Clog does not know is answered
    /// abort. One that [`Clog::start`] registered is undecided from the
    /// moment of the call, before its Start is written, and after a
    /// reopen that finds the Start on disk.
    #[test]
    fn an_unknown_transaction_is_presumed_aborted() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let e = env(dir.path());
        let gtx = GlobalTxId { node: 1, seq: 5 };
        treaty_sched::block_on(move || {
            let clog = Rc::new(Clog::open(Rc::clone(&e))?);
            assert_eq!(clog.outcome(gtx), Some(false));
            let start = clog.start(gtx, vec![1, 2]);
            assert_eq!(clog.outcome(gtx), None, "registered before the write");
            start.wait_stable()?;
            drop(clog);
            let clog = Clog::open(e)?;
            assert_eq!(clog.outcome(gtx), None);
            clog.log_decision(gtx, true)?;
            assert_eq!(clog.outcome(gtx), Some(true));
            Ok(())
        })
    }

    /// A decision record that was appended but never had its round is made
    /// stable when the Clog reopens, before recovery can act on it.
    #[test]
    fn unstable_tail_is_stabilized_on_open() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let e = env(dir.path());
        let gtx = GlobalTxId { node: 1, seq: 4 };
        let counter = {
            let clog = Clog::open(Rc::clone(&e))?;
            clog.log_start(gtx, vec![1, 2])?;
            clog.append_decision(gtx, true)?
            // crash before the round
        };
        let id = log::counter_id(&e, CLOG_NAME);
        assert_eq!(e.backend.latest(&id), 0);
        let clog = Clog::open(Rc::clone(&e))?;
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
        let one_flush = e.disk().append_ns(0);
        let path = dir.path().join(CLOG_FILE);
        treaty_sched::block_on(move || {
            let clog = Rc::new(Clog::open(Rc::clone(&e))?);
            let handed = Rc::new(FiberCell::new(Vec::new()));
            let fibers: Vec<_> = (1..=16u64)
                .map(|seq| {
                    let (clog, handed) = (Rc::clone(&clog), Rc::clone(&handed));
                    runtime::spawn(move || {
                        let gtx = GlobalTxId { node: 1, seq };
                        let counter = clog.log_start(gtx, vec![1, 2]);
                        handed.borrow_mut().push((counter, gtx));
                    })
                })
                .collect();
            fibers.into_iter().for_each(runtime::join);
            assert!(
                runtime::now() <= 3 * one_flush,
                "16 starts took {} ns, one flush is {one_flush} ns",
                runtime::now()
            );
            let mut handed = handed.take();
            handed.sort_by_key(|(_, gtx)| gtx.seq);
            let on_disk = log::replay(&e, CLOG_NAME, &path)?.records;
            assert_eq!(on_disk.len(), 16);
            for ((counter, gtx), (seq, record)) in handed.into_iter().zip((1..=16u64).zip(on_disk))
            {
                assert_eq!(
                    (counter?, record.0),
                    (seq, seq),
                    "counters are 1..=16 without gap"
                );
                let rec = log::decode::<ClogRecord>(CLOG_NAME, &record)?;
                assert!(matches!(rec, ClogRecord::Start { gtx: g, .. } if g == gtx));
            }
            Ok(())
        })
    }

    /// A torn frame at the Clog's tail is cut when the Clog reopens: what
    /// is appended after that is read back by the next open, not taken
    /// for the torn frame's body.
    #[test]
    fn a_torn_clog_tail_reopens_after_more_appends() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let e = env(dir.path());
        let first = GlobalTxId { node: 1, seq: 1 };
        {
            let clog = Clog::open(Rc::clone(&e))?;
            clog.log_start(first, vec![1, 2])?;
            clog.log_decision(first, true)?;
        }
        // A crash tore record 3: its header is on disk, its body is not.
        let path = dir.path().join(CLOG_FILE);
        let mut raw = std::fs::read(&path)?;
        raw.extend_from_slice(&3u64.to_le_bytes());
        raw.extend_from_slice(&100u32.to_le_bytes());
        std::fs::write(&path, raw)?;
        let later: Vec<GlobalTxId> = (2..5).map(|seq| GlobalTxId { node: 1, seq }).collect();
        {
            let clog = Clog::open(Rc::clone(&e))?;
            for gtx in &later {
                clog.log_start(*gtx, vec![1])?;
                clog.log_decision(*gtx, false)?;
            }
        }
        let clog = Clog::open(e)?;
        assert_eq!(clog.decision(first), Some(true));
        for gtx in later {
            assert_eq!(clog.decision(gtx), Some(false), "{gtx}");
        }
        Ok(())
    }

    #[test]
    fn tampered_clog_detected() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let e = env(dir.path());
        {
            let clog = Clog::open(Rc::clone(&e))?;
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
            let clog = Clog::open(Rc::clone(&e))?;
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
