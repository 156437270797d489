//! The authenticated, trusted-counter-stamped log format shared by the
//! WAL, the MANIFEST and the Clog (§V-A, §VI).
//!
//! Every record carries a *deterministically increasing* trusted counter
//! value, an (optionally encrypted) payload and an HMAC:
//!
//! ```text
//! ┌────────────┬──────────────┬─────────┬──────────┐
//! │ counter 8B │ payload_len 4B │ payload │ MAC 32B │
//! └────────────┴──────────────┴─────────┴──────────┘
//! ```
//!
//! Recovery verifies three freshness criteria (§VI): (1) counter values
//! are gap-free and strictly sequential, (2) every record authenticates,
//! (3) the last counter matches the trusted counter service's stabilized
//! value. A truncated final record (torn write at crash) is tolerated; a
//! record that fails its MAC is an integrity attack and is not.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use treaty_counter::TrustedCounter;
use treaty_crypto::{aead_open, aead_seal, hash, CryptoError, Digest32};
use treaty_sched::GroupCommit;
use treaty_sim::crashpoint::CrashPoint;
use treaty_tee::HostBytes;

use crate::env::Env;
use crate::{Result, StoreError};

const MAC_LEN: usize = 32;
const HEADER_LEN: usize = 12;

/// Derives the cluster-unique trusted counter id for a log file from the
/// node's own directory *name* (`node-0/wal-1`). Never the absolute path:
/// the id rides counter messages and sealed replica state, so a host path
/// in it would make byte counts — and every length-priced charge — differ
/// from run to run.
pub fn counter_id(env: &Env, name: &str) -> String {
    let node = env
        .dir
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    format!("{node}/{name}")
}

fn record_nonce(name: &str, counter: u64) -> [u8; 12] {
    let h = hash::sha256(name.as_bytes());
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(&h.0[..4]);
    nonce[4..].copy_from_slice(&counter.to_le_bytes());
    nonce
}

/// What a record's MAC covers: the log's name, the counter and the payload.
fn mac_input(name: &str, counter: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + name.len() + 8);
    buf.extend_from_slice(name.as_bytes());
    buf.extend_from_slice(&counter.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Frames one record (encrypting the payload if the profile says so).
///
/// Record bytes cross the enclave boundary on their way to the (untrusted)
/// file system, so the frame is assembled as [`HostBytes`]: counter and
/// length are public framing, the payload is ciphertext or an explicitly
/// declassified cleartext, the MAC is a tag.
fn encode_record(env: &Env, name: &str, counter: u64, plain: &[u8]) -> HostBytes {
    let payload = if env.profile.encryption {
        HostBytes::from_ciphertext(aead_seal(
            &env.keys.storage,
            &record_nonce(name, counter),
            name.as_bytes(),
            plain,
        ))
    } else {
        // Profiles without storage encryption persist log payloads in
        // clear by design (the "w/o Enc" and native baselines).
        HostBytes::declassified(plain.to_vec(), "log payload under a no-encryption profile")
    };
    let mac = if env.profile.authentication {
        hash::hmac_sign(
            &env.keys.storage,
            &mac_input(name, counter, payload.as_slice()),
        )
        .0
    } else {
        [0u8; MAC_LEN]
    };
    let mut out = HostBytes::public_u64(counter);
    out.append(HostBytes::public_u32(payload.len() as u32));
    out.append(payload);
    out.append(HostBytes::tag(mac));
    out
}

/// What a queued record learns when the leader that took it unwound before
/// handing out results. Only a crash does that — at `log.batch_written`,
/// be it the leader's own or a MANIFEST append's under the store's commit
/// lock — so this node is down and the caller stops with it, before it can
/// act on a record it believes unwritten.
pub(crate) fn leader_lost(what: &str) -> StoreError {
    treaty_sim::crashpoint::stop_if_down();
    StoreError::Io(format!("{what}: the group-commit leader was lost"))
}

/// A writer for one log file. Every write runs under one fiber-aware lock,
/// so counter order always equals file order; concurrent
/// [`LogWriter::append`]s share a flush (group commit, §VII-B).
pub struct LogWriter {
    env: Arc<Env>,
    name: String,
    path: PathBuf,
    counter: Arc<TrustedCounter>,
    file: Mutex<File>,
    /// The write lock, and the queue of single appends waiting for it.
    writes: GroupCommit<Vec<u8>, Result<u64>>,
}

impl std::fmt::Debug for LogWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogWriter")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl LogWriter {
    /// Creates (or re-opens for append) the log `name` at `path`.
    /// `recovered_counter` is the last verified counter value (0 for a
    /// fresh log).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the file cannot be opened.
    pub fn open(
        env: Arc<Env>,
        name: impl Into<String>,
        path: &Path,
        recovered_counter: u64,
    ) -> Result<Self> {
        let name = name.into();
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let counter = TrustedCounter::new(
            counter_id(&env, &name),
            Arc::clone(&env.backend),
            recovered_counter,
        );
        Ok(LogWriter {
            env,
            name,
            path: path.to_path_buf(),
            counter,
            file: Mutex::new(file),
            writes: GroupCommit::new(),
        })
    }

    /// The log's name (e.g. `wal-000001`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The log's trusted counter.
    pub fn counter(&self) -> &Arc<TrustedCounter> {
        &self.counter
    }

    /// Appends one record and returns its counter value once it is on
    /// disk. Appends that queue while a write is in flight ride the next
    /// one: whoever gets the write lock first writes the whole queue with
    /// one flush, and a record's counter is its position in that write.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure — to every record of
    /// the failed batch, none of which is published.
    pub fn append(&self, plain: &[u8]) -> Result<u64> {
        let carried = self.writes.submit(plain.to_vec(), |batch| {
            let written = self.write_batch(&batch);
            if written.is_ok() {
                // On disk, and no follower has learnt its counter.
                treaty_sim::crashpoint::hit(CrashPoint::LogBatchWritten);
            }
            (0..batch.len() as u64)
                .map(|i| written.clone().map(|(first, _)| first + i))
                .collect()
        });
        carried.unwrap_or_else(|| Err(leader_lost(&self.name)))
    }

    /// Appends a batch of records with a single flush, queueing FIFO with
    /// the [`LogWriter::append`] leaders. Returns the (first, last)
    /// counter values.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure or an empty batch.
    pub fn append_batch<B: AsRef<[u8]>>(&self, plains: &[B]) -> Result<(u64, u64)> {
        let _guard = self.writes.lock();
        self.write_batch(plains)
    }

    /// One write + one fsync. The caller holds the write lock.
    fn write_batch<B: AsRef<[u8]>>(&self, plains: &[B]) -> Result<(u64, u64)> {
        if plains.is_empty() {
            return Err(StoreError::Io(format!("log {}: empty batch", self.name)));
        }
        // A fiber that outlived its node's crash — queued behind the
        // writer that died, say — must not add to the file recovery reads.
        treaty_sim::crashpoint::stop_if_down();
        let mut buf = HostBytes::empty();
        let mut first = 0;
        let mut last = 0;
        for (i, plain) in plains.iter().enumerate() {
            let plain = plain.as_ref();
            let c = self.counter.assign();
            if i == 0 {
                first = c;
            }
            last = c;
            self.env.charge_crypto(plain.len());
            self.env.charge_hash(plain.len());
            buf.append(encode_record(&self.env, &self.name, c, plain));
        }
        self.env.charge_ssd_append(buf.len());
        {
            let mut f = self.file.lock();
            f.write_all(buf.as_slice())?;
            f.flush()?;
            f.sync_data()?;
        }
        // Only now may a counter round cover these records: one led while
        // the write was in flight must not hand the group a value the
        // file cannot show after a crash.
        self.counter.mark_written(last);
        Ok((first, last))
    }

    /// Blocks until every record up to `counter_value` is
    /// rollback-protected. A no-op when the profile runs without
    /// stabilization.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Stabilization`] if the trusted counter service
    /// fails.
    pub fn stabilize(&self, counter_value: u64) -> Result<()> {
        if !self.env.profile.stabilization {
            return Ok(());
        }
        self.counter.wait_stable(counter_value)?;
        Ok(())
    }

    /// Highest counter value whose record is on disk.
    pub fn written_counter(&self) -> u64 {
        self.counter.written()
    }

    /// Highest rollback-protected counter value.
    pub fn stable_counter(&self) -> u64 {
        self.counter.stable()
    }
}

/// Outcome of replaying a log file.
#[derive(Debug, Clone)]
pub struct LogReplay {
    /// Verified records in order: `(counter, plaintext payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Last verified counter value (== `start` when the log is empty).
    pub last_counter: u64,
    /// True if a torn (truncated) final record was discarded.
    pub torn_tail: bool,
}

/// Replays the log `name` from `path`, verifying counters and integrity.
/// `start` is the counter value *before* the first expected record.
///
/// # Errors
///
/// * [`StoreError::Integrity`] — a record fails its MAC or decryption,
/// * [`StoreError::Rollback`] — counter values are missing or reordered,
/// * [`StoreError::Io`] — the file cannot be read.
pub fn replay(env: &Env, name: &str, path: &Path, start: u64) -> Result<LogReplay> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    env.charge_storage_read(raw.len());

    let mut records = Vec::new();
    let mut expected = start + 1;
    let mut pos = 0usize;
    let mut torn_tail = false;

    while pos < raw.len() {
        if pos + HEADER_LEN > raw.len() {
            torn_tail = true;
            break;
        }
        // Bounds were checked above, so the conversions cannot fail; a
        // typed error keeps the recovery path panic-free regardless.
        let counter = u64::from_le_bytes(
            raw[pos..pos + 8]
                .try_into()
                .map_err(|_| StoreError::Io(format!("log {name}: malformed frame header")))?,
        );
        let len = u32::from_le_bytes(
            raw[pos + 8..pos + 12]
                .try_into()
                .map_err(|_| StoreError::Io(format!("log {name}: malformed frame header")))?,
        ) as usize;
        if pos + HEADER_LEN + len + MAC_LEN > raw.len() {
            torn_tail = true;
            break;
        }
        let payload = &raw[pos + HEADER_LEN..pos + HEADER_LEN + len];
        let mac = &raw[pos + HEADER_LEN + len..pos + HEADER_LEN + len + MAC_LEN];
        pos += HEADER_LEN + len + MAC_LEN;

        // Per-record parse work plus one read syscall per record (§VIII-F:
        // "we have more syscalls" with small entries). Parsing is charged
        // unmultiplied: it is linear scanning, not MEE-bound pointer
        // chasing.
        env.charge(env.costs.record_frame_ns + env.costs.syscall_ns(env.profile.tee));

        if counter != expected {
            return Err(StoreError::Rollback(format!(
                "log {name}: expected counter {expected}, found {counter} — entries deleted or reordered"
            )));
        }

        if env.profile.authentication {
            env.charge_hash(len);
            let mac = Digest32(std::array::from_fn(|i| mac[i]));
            if hash::hmac_verify(&env.keys.storage, &mac_input(name, counter, payload), &mac)
                .is_err()
            {
                return Err(StoreError::Integrity(format!(
                    "log {name}: record {counter} failed authentication"
                )));
            }
        }

        let plain = if env.profile.encryption {
            env.charge_crypto(len);
            match aead_open(
                &env.keys.storage,
                &record_nonce(name, counter),
                name.as_bytes(),
                payload,
            ) {
                Ok(p) => p,
                Err(CryptoError::AuthFailed) | Err(CryptoError::Malformed) => {
                    return Err(StoreError::Integrity(format!(
                        "log {name}: record {counter} failed decryption"
                    )))
                }
            }
        } else {
            payload.to_vec()
        };

        records.push((counter, plain));
        expected += 1;
    }

    Ok(LogReplay {
        last_counter: expected - 1,
        records,
        torn_tail,
    })
}

/// Verifies the §VI freshness criterion for a replayed log: the last
/// verified counter must not be behind the trusted counter service's
/// stabilized value.
///
/// # Errors
///
/// Returns [`StoreError::Rollback`] if the log is stale.
pub fn verify_freshness(env: &Env, name: &str, last_counter: u64) -> Result<()> {
    if !env.profile.stabilization {
        return Ok(());
    }
    let stabilized = env.backend.latest(&counter_id(env, name));
    if last_counter < stabilized {
        return Err(StoreError::Rollback(format!(
            "log {name}: last counter {last_counter} behind stabilized {stabilized} — \
             storage was rolled back to a stale state"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sim::SecurityProfile;

    fn env(profile: SecurityProfile) -> Result<(tempfile::TempDir, Arc<Env>)> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(profile, dir.path());
        Ok((dir, env))
    }

    #[test]
    fn append_replay_roundtrip_all_profiles() -> Result<()> {
        for profile in SecurityProfile::single_node_lineup() {
            let (dir, env) = env(profile)?;
            let path = dir.path().join("wal-1");
            let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
            for i in 0..10u32 {
                w.append(format!("record-{i}").as_bytes())?;
            }
            let replay = replay(&env, "wal-1", &path, 0)?;
            assert_eq!(replay.records.len(), 10, "{profile:?}");
            assert_eq!(replay.last_counter, 10);
            assert!(!replay.torn_tail);
            assert_eq!(replay.records[3].1, b"record-3");
        }
        Ok(())
    }

    #[test]
    fn batch_appends_are_sequential() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_full())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        let (first, last) = w.append_batch(&[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()])?;
        assert_eq!((first, last), (1, 3));
        let replay = replay(&env, "wal-1", &path, 0)?;
        assert_eq!(replay.records.len(), 3);
        Ok(())
    }

    #[test]
    fn encrypted_log_hides_payload() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_enc())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        w.append(b"secret-value-123")?;
        let raw = std::fs::read(&path)?;
        assert!(!raw.windows(16).any(|w| w == b"secret-value-123"));
        Ok(())
    }

    #[test]
    fn unencrypted_log_exposes_payload() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_no_enc())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        w.append(b"visible-value-123")?;
        let raw = std::fs::read(&path)?;
        assert!(raw.windows(17).any(|w| w == b"visible-value-123"));
        Ok(())
    }

    #[test]
    fn tampered_record_detected() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_full())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        w.append(b"aaaa")?;
        w.append(b"bbbb")?;
        let mut raw = std::fs::read(&path)?;
        raw[HEADER_LEN + 1] ^= 0x01; // first record's payload
        std::fs::write(&path, &raw)?;
        let err = replay(&env, "wal-1", &path, 0).unwrap_err();
        assert!(matches!(err, StoreError::Integrity(_)), "{err:?}");
        Ok(())
    }

    #[test]
    fn deleted_record_detected_as_rollback() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_full())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        w.append(b"aaaa")?;
        let first_len = std::fs::read(&path)?.len();
        w.append(b"bbbb")?;
        let raw = std::fs::read(&path)?;
        // Remove the first record: the second now claims counter 2 first.
        std::fs::write(&path, &raw[first_len..])?;
        let err = replay(&env, "wal-1", &path, 0).unwrap_err();
        assert!(matches!(err, StoreError::Rollback(_)), "{err:?}");
        Ok(())
    }

    #[test]
    fn torn_tail_is_tolerated() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_full())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        w.append(b"complete-record")?;
        w.append(b"will-be-torn")?;
        let raw = std::fs::read(&path)?;
        std::fs::write(&path, &raw[..raw.len() - 7])?;
        let replay = replay(&env, "wal-1", &path, 0)?;
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_tail);
        assert_eq!(replay.last_counter, 1);
        Ok(())
    }

    #[test]
    fn freshness_detects_stale_log() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_full())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        let (_, last) = w.append_batch(&[b"a".to_vec(), b"b".to_vec()])?;
        // Force-stabilize via the backend directly (as commit would).
        env.backend.stabilize(&counter_id(&env, "wal-1"), last)?;
        // The log claims fewer records than were stabilized -> rollback.
        let err = verify_freshness(&env, "wal-1", last - 1).unwrap_err();
        assert!(matches!(err, StoreError::Rollback(_)));
        verify_freshness(&env, "wal-1", last)?;
        Ok(())
    }

    /// A round led while a later record is still being written covers the
    /// written records only: the group never holds a value the file
    /// cannot show, which recovery would refuse as a rollback. The same
    /// holds with appends sharing a flush around a direct `append_batch`:
    /// every caller's counter is its record's place in the file.
    #[test]
    fn round_never_covers_a_record_not_on_disk() -> Result<()> {
        use treaty_sim::runtime;
        let (dir, env) = env(SecurityProfile::treaty_full())?;
        let path = dir.path().join("wal-1");
        treaty_sched::block_on(move || {
            let w = Arc::new(LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?);
            let first = w.append(b"first")?;
            let w2 = Arc::clone(&w);
            let second = runtime::spawn(move || {
                assert!(w2.append(&[7u8; 4096]).is_ok());
            });
            // The second append has its counter and is paying for the write.
            runtime::sleep(1_000);
            assert_eq!(w.counter().assigned(), first + 1);
            w.stabilize(first)?;
            let stabilized = env.backend.latest(&counter_id(&env, "wal-1"));
            let on_disk = replay(&env, "wal-1", &path, 0)?.last_counter;
            assert!(
                stabilized <= on_disk,
                "group stabilized {stabilized}, disk holds {on_disk}"
            );
            verify_freshness(&env, "wal-1", on_disk)?;
            runtime::join(second);

            // Six single appends and a two-record batch in the middle, all
            // arriving while the first of them writes.
            let began = runtime::now();
            let handed = Arc::new(Mutex::new(Vec::new()));
            let mut writers = Vec::new();
            for i in 0..7u8 {
                let (w, handed) = (Arc::clone(&w), Arc::clone(&handed));
                writers.push(runtime::spawn(move || {
                    let got = if i == 3 {
                        w.append_batch(&[[i, 0], [i, 1]]).map(|(first, _)| first)
                    } else {
                        w.append(&[i, 0])
                    };
                    handed.lock().push((i, got));
                }));
            }
            // Whenever this fiber runs — between any two steps of theirs —
            // the counter claims no more than the file shows.
            loop {
                let claimed = w.written_counter();
                assert!(claimed <= replay(&env, "wal-1", &path, 0)?.last_counter);
                if claimed == first + 9 {
                    break;
                }
                runtime::sleep(5_000);
            }
            writers.into_iter().for_each(runtime::join);
            let records = replay(&env, "wal-1", &path, 0)?.records;
            assert_eq!(records.len() as u64, first + 9);
            for (i, got) in std::mem::take(&mut *handed.lock()) {
                let at = (got? - 1) as usize;
                assert_eq!(records[at], (at as u64 + 1, vec![i, 0]), "writer {i}");
                if i == 3 {
                    assert_eq!(records[at + 1].1, vec![i, 1]);
                }
            }
            // The five queued behind the first write shared two flushes
            // (before the batch, after it): four in all, not seven.
            let flush = env.costs.ssd_append_ns(env.profile.tee, 0);
            assert!(
                runtime::now() - began < 6 * flush,
                "seven flushes, not four"
            );
            Ok(())
        })
    }

    #[test]
    fn replay_from_recovered_counter_offset() -> Result<()> {
        let (dir, env) = env(SecurityProfile::treaty_full())?;
        let path = dir.path().join("wal-2");
        // A second-generation log whose counter continues from 100.
        let w = LogWriter::open(Arc::clone(&env), "wal-2", &path, 100)?;
        w.append(b"x")?;
        let replay = replay(&env, "wal-2", &path, 100)?;
        assert_eq!(replay.records[0].0, 101);
        Ok(())
    }

    #[test]
    fn rocksdb_profile_skips_protection_but_still_replays() -> Result<()> {
        let (dir, env) = env(SecurityProfile::rocksdb())?;
        let path = dir.path().join("wal-1");
        let w = LogWriter::open(Arc::clone(&env), "wal-1", &path, 0)?;
        w.append(b"plain")?;
        // Tampering is NOT detected without authentication — that is the
        // point of the baseline.
        let mut raw = std::fs::read(&path)?;
        raw[HEADER_LEN] ^= 0x01;
        std::fs::write(&path, &raw)?;
        let replay = replay(&env, "wal-1", &path, 0)?;
        assert_eq!(replay.records.len(), 1);
        assert_ne!(replay.records[0].1, b"plain");
        Ok(())
    }
}
