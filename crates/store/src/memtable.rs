//! The MemTable with Treaty's key/value split (§V-B, §VII-D).
//!
//! Keys, version numbers and value *hashes* stay inside the enclave (they
//! are what integrity rests on); the values themselves are encrypted and
//! placed in untrusted host memory, with the enclave holding only a handle.
//! This keeps the EPC footprint proportional to key count, not data size —
//! the central trick that lets an LSM engine live in a 94 MiB enclave.
//!
//! One ordered map holds every version in `(user key asc, seq desc)`
//! order, so point reads, range cursors and the flush all walk the same
//! index. §VII-B builds a skip list "that supports parallel updates"; the
//! fiber runtime runs one fiber at a time (§VII-C), so nothing updates in
//! parallel here, and the cost model prices each lookup instead.
//!
//! Beside the map sits a set of key fingerprints, in the same cell: a
//! point read whose key is not in the set skips the walk (RocksDB's
//! memtable whole-key filter).

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;
use std::rc::Rc;

use treaty_crypto::codec;
use treaty_crypto::{Digest32, Protection, Sealer};
use treaty_sim::FiberCell;
use treaty_tee::{HostBytes, HostHandle};

use crate::bloom::fingerprint;
use crate::env::Env;
use crate::{Check, Result, StoreError, Stored};

/// A user-visible key.
pub type UserKey = Vec<u8>;
/// A version (sequence) number; higher = newer.
pub type SeqNum = u64;
/// One version of a key as it moves between MemTable and SSTables: the
/// key, its sequence number and its value (`None` for a tombstone).
pub type VersionedEntry = (UserKey, SeqNum, Option<Vec<u8>>);
/// A key span `[start, end)`.
pub type KeySpan = (UserKey, UserKey);

/// A multi-version range delete: at version `seq`, every key in
/// `[start, end)` is deleted. Older point versions stay readable below
/// `seq` (snapshots before the delete still see them); compaction GC
/// physically reclaims covered versions once no snapshot can need them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTombstone {
    /// Inclusive start of the deleted range.
    pub start: UserKey,
    /// Exclusive end of the deleted range.
    pub end: UserKey,
    /// The version at which the delete happened.
    pub seq: SeqNum,
}

codec!(struct RangeTombstone { start, end, seq });

impl RangeTombstone {
    /// True if this tombstone deletes `key` as of version `seq` — i.e. it
    /// covers the key and happened at or after that version, visible at
    /// `snapshot`.
    pub fn shadows(&self, key: &[u8], seq: SeqNum, snapshot: SeqNum) -> bool {
        self.seq <= snapshot && self.seq > seq && self.covers(key)
    }

    /// True if `key` falls inside `[start, end)`.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.start.as_slice() <= key && key < self.end.as_slice()
    }
}

/// Composite MemTable key ordering entries by user key ascending, then by
/// version descending (newest first).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MemKey {
    user: UserKey,
    /// `u64::MAX - seq` so larger sequences sort first.
    seq_rev: u64,
}

impl MemKey {
    fn new(user: UserKey, seq: SeqNum) -> Self {
        MemKey {
            user,
            seq_rev: u64::MAX - seq,
        }
    }
    fn seq(&self) -> SeqNum {
        u64::MAX - self.seq_rev
    }
}

/// What the enclave keeps per version: a pointer into host memory plus the
/// integrity hash — or a tombstone. [`MemTable::open`] reads the value.
#[derive(Debug, Clone)]
pub enum ValueEntry {
    /// A value sealed in host memory.
    Put {
        /// Where the sealed value lies in host memory.
        handle: HostHandle,
        /// The plaintext length.
        len: u32,
        /// The plaintext's SHA-256, held in the enclave.
        hash: Digest32,
    },
    /// A point delete.
    Delete,
}

/// Approximate enclave bytes per entry beyond the key: seq + hash + handle.
const ENTRY_OVERHEAD: usize = 48;

/// Enclave bytes per distinct key in the key filter: one fingerprint.
const FINGERPRINT_BYTES: u64 = 8;

/// The ordered index and its key filter, in one cell so a reader sees a
/// version and its key's fingerprint together or neither.
#[derive(Default)]
struct Index {
    /// `(user key asc, seq desc)`.
    map: BTreeMap<MemKey, ValueEntry>,
    /// The fingerprint of every user key with a point version. Absence
    /// proves the map holds no version of a key; presence may be a
    /// collision, so the map is still walked.
    keys: HashSet<u64>,
}

impl Index {
    /// Inserts one version; true if its key's fingerprint is new.
    fn insert(&mut self, key: MemKey, entry: ValueEntry) -> bool {
        let fresh = self.keys.insert(fingerprint(&key.user));
        self.map.insert(key, entry);
        fresh
    }

    /// False if the map holds no version of `key`.
    fn may_hold(&self, key: &[u8]) -> bool {
        self.keys.contains(&fingerprint(key))
    }

    /// The newest version of `key` at or below `snapshot`: one seek.
    fn newest(&self, key: &[u8], snapshot: SeqNum) -> Option<(SeqNum, &ValueEntry)> {
        let probe = MemKey::new(key.to_vec(), snapshot);
        match self.map.range(probe..).next() {
            Some((k, v)) if k.user == key => Some((k.seq(), v)),
            _ => None,
        }
    }
}

/// A sorted in-memory write buffer.
pub struct MemTable {
    env: Rc<Env>,
    /// The one ordered index and its key filter.
    index: FiberCell<Index>,
    /// Range tombstones buffered in this MemTable, in arrival order.
    /// Always few (one entry per `delete_range` call, not per key), so a
    /// linear scan per read is cheap; they ride the flush into the
    /// SSTable's sealed footer.
    range_tombstones: FiberCell<Vec<RangeTombstone>>,
    bytes: Cell<usize>,
    entries: Cell<usize>,
    /// Seals host-resident values, stored as `nonce ‖ ciphertext` with
    /// nonces `"MVAL" ‖ index`, the index counting this MemTable's values
    /// from 0. Every MemTable's sealer has the same key, so MemTables share
    /// nonces (DESIGN.md §4).
    sealer: Sealer,
    /// Set once the host/enclave memory behind the entries has been
    /// released; guards against double-free (explicit release + drop).
    released: Cell<bool>,
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("entries", &self.entries.get())
            .field("bytes", &self.bytes.get())
            .finish_non_exhaustive()
    }
}

impl MemTable {
    /// Creates an empty MemTable.
    pub fn new(env: Rc<Env>) -> Self {
        MemTable {
            sealer: env.sealer(env.keys.storage.derive("memtable-values"), *b"MVAL"),
            env,
            index: FiberCell::new(Index::default()),
            range_tombstones: FiberCell::new(Vec::new()),
            bytes: Cell::new(0),
            entries: Cell::new(0),
            released: Cell::new(false),
        }
    }

    /// Inserts a value version.
    pub fn put(&self, key: &[u8], seq: SeqNum, value: &[u8]) {
        self.env
            .charge_enclave_op(key.len() + ENTRY_OVERHEAD, self.env.costs.memtable_op_ns);
        let sealed = self.sealer.seal_framed(key, value);
        let digest = self.sealer.digest(value);
        #[allow(
            clippy::expect_used,
            reason = "a MemTable seals fewer than 2^64 values, and the digest is pinned before it is checked"
        )]
        let stored = match sealed.expect("an index is left") {
            Some(sealed) => HostBytes::from_ciphertext(sealed),
            // Treaty w/o Enc: the enclave-held digest pins the plaintext,
            // so host tampering is caught on the read path.
            None if self.sealer.mode() == Protection::AuthOnly => {
                self.env.enclave.pin_integrity(digest);
                HostBytes::integrity_pinned(value.to_vec(), &self.env.enclave)
                    .expect("digest pinned on the line above")
            }
            // Baseline profiles (native / DS-RocksDB) store plaintext
            // values by design — they are the negative controls.
            None => HostBytes::declassified(value.to_vec(), "baseline profile without encryption"),
        };
        let handle = self.env.vault.store(stored);

        self.env
            .enclave
            .alloc_trusted((key.len() + ENTRY_OVERHEAD) as u64);
        self.bytes
            .update(|n| n + key.len() + ENTRY_OVERHEAD + value.len());
        self.entries.update(|n| n + 1);

        self.insert(
            MemKey::new(key.to_vec(), seq),
            ValueEntry::Put {
                handle,
                len: value.len() as u32,
                hash: digest,
            },
        );
    }

    /// Inserts a tombstone.
    pub fn delete(&self, key: &[u8], seq: SeqNum) {
        self.env
            .charge_enclave_op(key.len() + ENTRY_OVERHEAD, self.env.costs.memtable_op_ns);
        self.env
            .enclave
            .alloc_trusted((key.len() + ENTRY_OVERHEAD) as u64);
        self.bytes.update(|n| n + key.len() + ENTRY_OVERHEAD);
        self.entries.update(|n| n + 1);
        self.insert(MemKey::new(key.to_vec(), seq), ValueEntry::Delete);
    }

    /// Indexes one version; a key new to the filter costs its
    /// fingerprint's enclave bytes.
    fn insert(&self, key: MemKey, entry: ValueEntry) {
        let fresh = self.index.borrow_mut().insert(key, entry);
        if fresh {
            self.env.enclave.alloc_trusted(FINGERPRINT_BYTES);
        }
    }

    /// Buffers a range tombstone deleting `[start, end)` at version `seq`.
    /// O(1) regardless of how many keys the range covers — the whole point
    /// of range deletes over per-key tombstones.
    pub fn delete_range(&self, start: &[u8], end: &[u8], seq: SeqNum) {
        debug_assert!(start < end, "empty range tombstone");
        let footprint = start.len() + end.len() + ENTRY_OVERHEAD;
        self.env
            .charge_enclave_op(footprint, self.env.costs.memtable_op_ns);
        self.env.enclave.alloc_trusted(footprint as u64);
        self.bytes.update(|n| n + footprint);
        self.range_tombstones.borrow_mut().push(RangeTombstone {
            start: start.to_vec(),
            end: end.to_vec(),
            seq,
        });
    }

    /// The buffered range tombstones (cloned; they are few). The flush
    /// path seals them into the SSTable footer, and readers merge them
    /// with point entries.
    pub fn range_tombstones(&self) -> Vec<RangeTombstone> {
        self.range_tombstones.borrow().clone()
    }

    /// The newest range-tombstone version covering `key` at `snapshot`,
    /// if any.
    pub fn covering_tombstone_seq(&self, key: &[u8], snapshot: SeqNum) -> Option<SeqNum> {
        self.range_tombstones
            .borrow()
            .iter()
            .filter(|rt| rt.seq <= snapshot && rt.covers(key))
            .map(|rt| rt.seq)
            .max()
    }

    /// Reads the newest version of `key` visible at `snapshot`.
    ///
    /// Returns `None` if the MemTable holds no version (caller falls
    /// through to SSTables), `Some(None)` for a tombstone, `Some(Some(v))`
    /// for a value.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Integrity`] if the host-resident value fails
    /// its hash or decryption — i.e. untrusted memory was tampered with.
    pub fn get(&self, key: &[u8], snapshot: SeqNum) -> Result<Option<Option<Vec<u8>>>> {
        self.newest(key, snapshot)
            .map(|(_, entry)| self.open(key, &entry))
            .transpose()
    }

    /// The one point lookup: the newest version of `key` visible at
    /// `snapshot` and its seq, or `None` if nothing here answers (the
    /// caller falls through to older sources). A covering range tombstone
    /// newer than the point version reads as `Delete` at the tombstone's
    /// seq. A key the filter rules out costs one Bloom probe and no walk.
    /// The value stays in host memory until [`MemTable::open`] reads it,
    /// so a caller that needs only the seq never decrypts.
    pub(crate) fn newest(&self, key: &[u8], snapshot: SeqNum) -> Option<(SeqNum, ValueEntry)> {
        self.env.charge_bloom_probe();
        let may_hold = self.index.borrow().may_hold(key);
        let point = if may_hold {
            self.env
                .charge_enclave_op(key.len() + ENTRY_OVERHEAD, self.env.costs.memtable_op_ns);
            self.index
                .borrow()
                .newest(key, snapshot)
                .map(|(seq, v)| (seq, v.clone()))
        } else {
            None // no point version here: only a range tombstone can answer
        };
        // A tombstone with no point version at all still deletes whatever
        // older sources hold. Of two equal seqs the later (the point
        // write) wins: it beats its own transaction's range delete.
        self.covering_tombstone_seq(key, snapshot)
            .map(|ts| (ts, ValueEntry::Delete))
            .into_iter()
            .chain(point)
            .max_by_key(|(seq, _)| *seq)
    }

    /// Decrypts and integrity-checks one entry's host-resident value: a
    /// read that returns a MemTable value, and the flush, open it here and
    /// nowhere else. `Delete` opens to `None`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Integrity`] if the host-resident value was tampered
    /// with.
    pub fn open(&self, key: &[u8], entry: &ValueEntry) -> Result<Option<Vec<u8>>> {
        let ValueEntry::Put {
            handle,
            hash: digest,
            ..
        } = entry
        else {
            return Ok(None);
        };
        let failed = |check| StoreError::integrity(Stored::MemValue, check);
        let stored = self
            .env
            .vault
            .load(*handle)
            .map_err(|_| failed(Check::Missing))?;
        let plain = self
            .sealer
            .open_framed(key, stored)
            .map_err(|_| failed(Check::Tag))?;
        if self.sealer.digest(&plain) != *digest {
            return Err(failed(Check::Digest));
        }
        Ok(Some(plain))
    }

    /// Approximate bytes buffered (keys + values), for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.get()
    }

    /// Number of point entries (versions); range tombstones not included.
    pub fn len(&self) -> usize {
        self.entries.get()
    }

    /// True if there is nothing to flush — no point entries *and* no
    /// range tombstones (a tombstone-only MemTable still must flush).
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.range_tombstones.borrow().is_empty()
    }

    /// Opens a cursor over `[start, end)` (`end = None` scans to the end of
    /// the key space) in `(user key asc, seq desc)` order. Opening is free:
    /// it reads the smallest key, which fixes where the cursor will seek —
    /// `max(start, smallest key)` — and its [`MemCursor::bound`] until then.
    /// The first `next` pays the one charged seek; each later one steps the
    /// map from the last entry yielded, at no charge.
    pub fn range_cursor(self: &Rc<Self>, start: &[u8], end: Option<&[u8]>) -> MemCursor {
        let smallest = self
            .index
            .borrow()
            .map
            .first_key_value()
            .map(|(k, _)| k.user.clone());
        let from = smallest
            .map(|k| k.max(start.to_vec()))
            .filter(|k| end.is_none_or(|e| k.as_slice() < e));
        MemCursor {
            mt: Rc::clone(self),
            end: end.map(<[u8]>::to_vec),
            at: from.map_or(At::End, At::Unsought),
        }
    }

    /// The first entry from `from` on, copied out under a short borrow.
    fn first_from(&self, from: Bound<&MemKey>) -> Option<(MemKey, ValueEntry)> {
        let guard = self.index.borrow();
        let (k, v) = guard.map.range((from, Bound::Unbounded)).next()?;
        Some((k.clone(), v.clone()))
    }

    /// Collects every entry in index order (user key asc, seq desc)
    /// *without* releasing the underlying buffers: the frozen
    /// MemTable stays fully readable while its SSTable is built on the
    /// maintenance fiber. Call [`MemTable::release_flushed`] once the
    /// table is published.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Integrity`] if any host-resident value was
    /// tampered with.
    pub fn freeze_entries(&self) -> Result<Vec<VersionedEntry>> {
        let all: Vec<(MemKey, ValueEntry)> = {
            let guard = self.index.borrow();
            guard
                .map
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        all.into_iter()
            .map(|(k, v)| {
                let value = self.open(&k.user, &v)?;
                let seq = k.seq();
                Ok((k.user, seq, value))
            })
            .collect()
    }

    /// Releases host/enclave memory after a flushed MemTable's SSTable is
    /// published. Idempotent, and also invoked on drop — so the engine can
    /// simply stop referencing a frozen MemTable and let the last holder
    /// (possibly a racing reader) reclaim its buffers.
    pub fn release_flushed(&self) {
        if self.released.replace(true) {
            return;
        }
        for rt in self.range_tombstones.borrow().iter() {
            let freed = rt.start.len() + rt.end.len() + ENTRY_OVERHEAD;
            self.env.enclave.free_trusted(freed as u64);
        }
        let guard = self.index.borrow();
        self.env
            .enclave
            .free_trusted(FINGERPRINT_BYTES * guard.keys.len() as u64);
        for (k, v) in guard.map.iter() {
            let freed = k.user.len() + ENTRY_OVERHEAD;
            self.env.enclave.free_trusted(freed as u64);
            if let ValueEntry::Put {
                handle,
                hash: digest,
                ..
            } = v
            {
                let _ = self.env.vault.free(*handle);
                if self.sealer.mode() == Protection::AuthOnly {
                    // Release the integrity pin taken at put time.
                    self.env.enclave.unpin_integrity(digest);
                }
            }
        }
    }
}

impl Drop for MemTable {
    fn drop(&mut self) {
        // A MemTable that was never flushed (engine shutdown, error paths)
        // still owns host buffers and enclave bytes.
        self.release_flushed();
    }
}

/// A range cursor over a MemTable ([`MemTable::range_cursor`]). It holds
/// no entry: each `next` finds the one after the last yielded under a
/// short borrow. It yields what the enclave holds — the key, the seq and
/// the [`ValueEntry`] — and opens no value: a reader decides on keys and
/// seqs and opens only what it returns ([`MemTable::open`]). Every entry
/// in range when the cursor opened is yielded; an entry inserted later is
/// yielded too if it sorts after the last one yielded.
pub struct MemCursor {
    mt: Rc<MemTable>,
    end: Option<UserKey>,
    at: At,
}

/// Where a [`MemCursor`] resumes.
#[derive(Debug)]
enum At {
    /// Not yet sought: the first `next` seeks to this key.
    Unsought(UserKey),
    /// Past this entry, the last yielded.
    After(MemKey),
    /// Nothing left in range.
    End,
}

impl std::fmt::Debug for MemCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemCursor")
            .field("at", &self.at)
            .finish_non_exhaustive()
    }
}

impl MemCursor {
    /// A lower bound on the key of the next entry the cursor yields, at no
    /// charge: the key it will seek to, else the last key yielded (a later
    /// entry may be an older version of it). `None` once it is exhausted.
    pub fn bound(&self) -> Option<&[u8]> {
        match &self.at {
            At::Unsought(key) => Some(key),
            At::After(mk) => Some(&mk.user),
            At::End => None,
        }
    }

    /// The MemTable the cursor walks.
    pub(crate) fn table(&self) -> &Rc<MemTable> {
        &self.mt
    }
}

impl Iterator for MemCursor {
    type Item = (UserKey, SeqNum, ValueEntry);

    fn next(&mut self) -> Option<Self::Item> {
        let env = &self.mt.env;
        let found = match &self.at {
            At::End => return None,
            At::Unsought(key) => {
                env.charge_enclave_op(ENTRY_OVERHEAD, env.costs.memtable_op_ns);
                env.stats.borrow_mut().memtable_seeks += 1;
                let probe = MemKey::new(key.clone(), SeqNum::MAX);
                self.mt.first_from(Bound::Included(&probe))
            }
            At::After(last) => self.mt.first_from(Bound::Excluded(last)),
        };
        let Some((k, v)) =
            found.filter(|(k, _)| self.end.as_deref().is_none_or(|e| k.user.as_slice() < e))
        else {
            self.at = At::End;
            return None;
        };
        self.at = At::After(k.clone());
        let seq = k.seq();
        Some((k.user, seq, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sim::SecurityProfile;

    fn memtable(profile: SecurityProfile) -> (tempfile::TempDir, Rc<Env>, MemTable) {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(profile, dir.path());
        let mt = MemTable::new(Rc::clone(&env));
        (dir, env, mt)
    }

    #[test]
    fn put_get_latest_version() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"k", 1, b"v1");
        mt.put(b"k", 5, b"v5");
        mt.put(b"k", 3, b"v3");
        assert_eq!(
            mt.get(b"k", SeqNum::MAX).unwrap(),
            Some(Some(b"v5".to_vec()))
        );
        assert_eq!(mt.get(b"k", 4).unwrap(), Some(Some(b"v3".to_vec())));
        assert_eq!(mt.get(b"k", 2).unwrap(), Some(Some(b"v1".to_vec())));
        assert_eq!(mt.get(b"missing", SeqNum::MAX).unwrap(), None);
    }

    #[test]
    fn tombstone_shadows_value() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"k", 1, b"v1");
        mt.delete(b"k", 2);
        assert_eq!(mt.get(b"k", SeqNum::MAX).unwrap(), Some(None));
        assert_eq!(mt.get(b"k", 1).unwrap(), Some(Some(b"v1".to_vec())));
    }

    #[test]
    fn snapshot_before_first_version_sees_nothing() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"k", 10, b"v");
        assert_eq!(mt.get(b"k", 5).unwrap(), None);
    }

    #[test]
    fn values_encrypted_in_host_memory() {
        let (_d, env, mt) = memtable(SecurityProfile::treaty_enc());
        let secret = b"confidential-value-material";
        mt.put(b"k", 1, secret);
        let dump = env.vault.dump();
        assert!(
            !dump.windows(secret.len()).any(|w| w == secret),
            "plaintext value visible in host memory"
        );
    }

    #[test]
    fn values_plaintext_without_encryption() {
        let (_d, env, mt) = memtable(SecurityProfile::native_treaty());
        let value = b"plainly-visible-value";
        mt.put(b"k", 1, value);
        let dump = env.vault.dump();
        assert!(dump.windows(value.len()).any(|w| w == value));
    }

    #[test]
    fn tampered_host_value_detected() {
        let (_d, env, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"k", 1, b"value-0123456789");
        // Corrupt every live host buffer.
        for h in 0..10 {
            let _ = env.vault.corrupt(treaty_tee::HostHandle(h), 20);
        }
        let err = mt.get(b"k", SeqNum::MAX).unwrap_err();
        assert_eq!(err, StoreError::integrity(Stored::MemValue, Check::Tag));
    }

    #[test]
    fn tampered_host_value_detected_even_without_encryption() {
        // Authentication alone (Treaty w/o Enc) must still catch tampering
        // via the in-enclave hash.
        let (_d, env, mt) = memtable(SecurityProfile::treaty_no_enc());
        mt.put(b"k", 1, b"value-0123456789");
        for h in 0..10 {
            let _ = env.vault.corrupt(treaty_tee::HostHandle(h), 3);
        }
        let err = mt.get(b"k", SeqNum::MAX).unwrap_err();
        assert_eq!(err, StoreError::integrity(Stored::MemValue, Check::Digest));
    }

    #[test]
    fn freeze_is_sorted_and_release_frees_memory() {
        let (_d, env, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"b", 2, b"vb");
        mt.put(b"a", 1, b"va");
        mt.delete(b"c", 3);
        let before = env.vault.live_buffers();
        assert_eq!(before, 2);
        let entries = mt.freeze_entries().unwrap();
        mt.release_flushed();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0, b"a");
        assert_eq!(entries[0].2, Some(b"va".to_vec()));
        assert_eq!(entries[2].0, b"c");
        assert_eq!(entries[2].2, None);
        assert_eq!(env.vault.live_buffers(), 0, "flush must free host memory");
        assert_eq!(
            env.enclave.resident_bytes(),
            0,
            "flush must free enclave memory"
        );
    }

    #[test]
    fn freeze_keeps_buffers_and_release_is_idempotent() {
        let (_d, env, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"a", 1, b"va");
        let entries = mt.freeze_entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(env.vault.live_buffers(), 1, "freeze must not free");
        // Still readable after the freeze (background build in flight).
        assert_eq!(
            mt.get(b"a", SeqNum::MAX).unwrap(),
            Some(Some(b"va".to_vec()))
        );
        mt.release_flushed();
        mt.release_flushed(); // second call is a no-op
        assert_eq!(env.vault.live_buffers(), 0);
        drop(mt); // drop after explicit release must not double-free
        assert_eq!(env.enclave.resident_bytes(), 0);
    }

    #[test]
    fn drop_releases_unflushed_buffers() {
        let (_d, env, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"a", 1, b"va");
        assert_eq!(env.vault.live_buffers(), 1);
        drop(mt);
        assert_eq!(env.vault.live_buffers(), 0);
        assert_eq!(env.enclave.resident_bytes(), 0);
    }

    #[test]
    fn multiple_versions_drain_newest_first_per_key() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"k", 1, b"v1");
        mt.put(b"k", 2, b"v2");
        let entries = mt.freeze_entries().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, 2, "newest version first");
        assert_eq!(entries[1].1, 1);
    }

    #[test]
    fn byte_accounting_grows_with_puts() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        assert_eq!(mt.approx_bytes(), 0);
        mt.put(b"key-1", 1, &vec![0u8; 1000]);
        assert!(mt.approx_bytes() >= 1000);
        assert_eq!(mt.len(), 1);
    }

    /// The seq of the newest version of `key`, as OCC validation asks.
    fn newest_seq(mt: &MemTable, key: &[u8]) -> Option<SeqNum> {
        mt.newest(key, SeqNum::MAX).map(|(seq, _)| seq)
    }

    #[test]
    fn newest_reports_the_newest_seq() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        assert_eq!(newest_seq(&mt, b"k"), None);
        mt.put(b"k", 3, b"x");
        mt.put(b"k", 9, b"y");
        assert_eq!(newest_seq(&mt, b"k"), Some(9));
        // A newer covering range tombstone is the newest version.
        mt.delete_range(b"a", b"z", 12);
        assert_eq!(newest_seq(&mt, b"k"), Some(12));
        assert_eq!(newest_seq(&mt, b"q"), Some(12));
    }

    #[test]
    fn range_tombstone_shadows_older_versions_only() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"b", 1, b"v1");
        mt.delete_range(b"a", b"m", 5);
        mt.put(b"b", 9, b"v9");
        // Newest version postdates the range delete: visible.
        assert_eq!(
            mt.get(b"b", SeqNum::MAX).unwrap(),
            Some(Some(b"v9".to_vec()))
        );
        // At snapshot 5..9 the tombstone wins over v1.
        assert_eq!(mt.get(b"b", 6).unwrap(), Some(None));
        // Before the delete, v1 is still visible (multi-version).
        assert_eq!(mt.get(b"b", 3).unwrap(), Some(Some(b"v1".to_vec())));
        // A key covered by the range with no point version at all is
        // deleted too — shadows whatever older levels hold.
        assert_eq!(mt.get(b"c", SeqNum::MAX).unwrap(), Some(None));
        assert_eq!(mt.get(b"c", 3).unwrap(), None);
        // End is exclusive; outside the range nothing changes.
        assert_eq!(mt.get(b"m", SeqNum::MAX).unwrap(), None);
        assert_eq!(mt.covering_tombstone_seq(b"b", SeqNum::MAX), Some(5));
        assert_eq!(mt.covering_tombstone_seq(b"m", SeqNum::MAX), None);
    }

    #[test]
    fn tombstone_only_memtable_is_not_empty() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        assert!(mt.is_empty());
        mt.delete_range(b"a", b"b", 1);
        assert!(!mt.is_empty(), "a tombstone-only memtable must flush");
        assert_eq!(mt.len(), 0);
        assert_eq!(mt.range_tombstones().len(), 1);
        assert!(mt.approx_bytes() > 0);
    }

    #[test]
    fn range_cursor_yields_global_order() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        // Interleaved versions of twenty keys.
        for i in 0..40u64 {
            let key = format!("k{:03}", i % 20).into_bytes();
            mt.put(&key, i + 1, format!("v{i}").as_bytes());
        }
        mt.delete(b"k005", 100);
        let mt = Rc::new(mt);
        let got: Vec<_> = mt.range_cursor(b"k003", Some(b"k015")).collect();
        assert!(!got.is_empty());
        for e in &got {
            assert!(e.0.as_slice() >= b"k003".as_slice() && e.0.as_slice() < b"k015".as_slice());
        }
        for w in got.windows(2) {
            let ordered = w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 > w[1].1);
            assert!(ordered, "cursor must yield (key asc, seq desc)");
        }
        // The tombstone rides the cursor as a `Delete` entry.
        assert!(got
            .iter()
            .any(|e| e.0 == b"k005" && e.1 == 100 && matches!(e.2, ValueEntry::Delete)));
        // Exactly the in-range versions: keys k003..k014, two each, plus
        // the delete.
        assert_eq!(got.len(), 12 * 2 + 1);
    }

    #[test]
    fn release_flushed_frees_tombstone_accounting() {
        let (_d, env, mt) = memtable(SecurityProfile::treaty_full());
        mt.delete_range(b"a", b"z", 1);
        assert!(env.enclave.resident_bytes() > 0);
        mt.release_flushed();
        assert_eq!(env.enclave.resident_bytes(), 0);
    }

    #[test]
    fn absent_key_under_a_covering_range_tombstone_reads_deleted() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"a", 1, b"va");
        mt.delete_range(b"b", b"m", 5);
        // "c" has no point version, so the filter rules it out; the
        // tombstone still deletes whatever older levels hold.
        assert_eq!(mt.get(b"c", SeqNum::MAX).unwrap(), Some(None));
        assert_eq!(mt.get(b"c", 4).unwrap(), None, "tombstone not yet visible");
        assert_eq!(mt.get(b"z", SeqNum::MAX).unwrap(), None);
    }

    /// Virtual time one `get` advances inside a fiber.
    fn timed_get(mt: &MemTable, key: &[u8]) -> (Option<Option<Vec<u8>>>, u64) {
        let start = treaty_sim::runtime::now();
        let got = mt.get(key, SeqNum::MAX).unwrap();
        (got, treaty_sim::runtime::now() - start)
    }

    /// What a `get` of a present `key` with a `len`-byte value charged
    /// before the key filter: the walk, the decrypt and the hash check.
    fn walk_and_resolve_ns(env: &Env, key: &[u8], len: usize) -> u64 {
        let (costs, tee) = (&env.costs, env.profile.tee);
        env.enclave
            .access_cost(costs, key.len() + ENTRY_OVERHEAD, costs.memtable_op_ns)
            + costs.enclave_cpu(tee, costs.aes_ns(len))
            + costs.enclave_cpu(tee, costs.sha_ns(len))
    }

    /// What `Env::charge_bloom_probe` charges.
    fn bloom_probe_ns(env: &Env) -> u64 {
        env.enclave
            .access_cost(&env.costs, 64, env.costs.bloom_probe_ns)
    }

    #[test]
    fn an_absent_key_costs_one_bloom_probe_and_a_present_key_adds_the_walk() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        treaty_sched::block_on(move || {
            let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
            let mt = MemTable::new(Rc::clone(&env));
            mt.put(b"present", 1, b"value");
            let probe = bloom_probe_ns(&env);
            assert!(probe > 0);

            let (got, spent) = timed_get(&mt, b"absent");
            assert_eq!(got, None);
            assert_eq!(spent, probe, "an absent key skips the walk");

            let (got, spent) = timed_get(&mt, b"present");
            assert_eq!(got, Some(Some(b"value".to_vec())));
            assert_eq!(spent, probe + walk_and_resolve_ns(&env, b"present", 5));
        });
    }

    #[test]
    fn a_frozen_memtable_answers_through_its_key_filter() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().to_path_buf();
        treaty_sched::block_on(move || {
            let env = Env::for_testing(SecurityProfile::treaty_full(), &path);
            let mt = MemTable::new(Rc::clone(&env));
            for i in 0..32u32 {
                mt.put(format!("k{i:02}").as_bytes(), u64::from(i) + 1, b"v");
            }
            mt.delete(b"gone", 40);
            // Frozen: its entries are being built into an SSTable, and it
            // stays on the read path until that table is published.
            assert_eq!(mt.freeze_entries().unwrap().len(), 33);
            let probe = bloom_probe_ns(&env);

            for absent in [&b"k32"[..], b"k", b"zz"] {
                let (got, spent) = timed_get(&mt, absent);
                assert_eq!(got, None);
                assert_eq!(spent, probe, "{absent:?} skips the walk");
                assert_eq!(newest_seq(&mt, absent), None);
            }
            let (got, spent) = timed_get(&mt, b"k07");
            assert_eq!(got, Some(Some(b"v".to_vec())));
            assert_eq!(spent, probe + walk_and_resolve_ns(&env, b"k07", 1));
            assert_eq!(timed_get(&mt, b"gone").0, Some(None));
            assert_eq!(newest_seq(&mt, b"gone"), Some(40));
        });
    }

    #[test]
    fn key_filter_holds_eight_enclave_bytes_per_distinct_key() {
        let (_d, env, mt) = memtable(SecurityProfile::treaty_full());
        mt.put(b"a", 1, b"v1");
        mt.put(b"a", 2, b"v2");
        mt.delete(b"bb", 3);
        let entries = 2 * (1 + ENTRY_OVERHEAD) + (2 + ENTRY_OVERHEAD);
        assert_eq!(
            env.enclave.resident_bytes(),
            entries as u64 + 2 * FINGERPRINT_BYTES
        );
        assert_eq!(
            mt.approx_bytes(),
            entries + 4,
            "flush trigger ignores the filter"
        );
        mt.release_flushed();
        assert_eq!(env.enclave.resident_bytes(), 0);
    }

    // freeze_entries sortedness under interleaved writers: four seeded
    // op streams run interleaved in a seeded order, one whole op at a
    // time. Nothing yields inside `put`/`delete`, so these are all the
    // interleavings the one-thread runtime can produce. The frozen output
    // must be (user key asc, seq desc) regardless of interleaving, since
    // range cursors and the flush path rely on it.
    #[test]
    fn freeze_entries_globally_sorted_under_interleaved_writers() {
        use rand::{Rng, SeedableRng};
        for seed in 0..16u64 {
            let dir = tempfile::tempdir().unwrap();
            let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
            let mt = MemTable::new(Rc::clone(&env));
            // (the writer's op stream, ops it has left)
            let mut writers: Vec<_> = (0..4u64)
                .map(|t| (rand_chacha::ChaCha8Rng::seed_from_u64(seed * 7 + t), 64))
                .collect();
            let mut order = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            for seq in 1..=4 * 64 {
                let live: Vec<_> = writers.iter_mut().filter(|(_, left)| *left > 0).collect();
                let n = live.len();
                let (rng, left) = live.into_iter().nth(order.gen_range(0..n)).unwrap();
                *left -= 1;
                let key = format!("key-{:03}", rng.gen_range(0..50));
                if rng.gen_bool(0.1) {
                    mt.delete(key.as_bytes(), seq);
                } else {
                    mt.put(key.as_bytes(), seq, format!("v{seq}").as_bytes());
                }
            }
            let frozen = mt.freeze_entries().unwrap();
            assert_eq!(frozen.len(), 4 * 64);
            for w in frozen.windows(2) {
                let ordered = w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 > w[1].1);
                assert!(
                    ordered,
                    "seed {seed}: freeze_entries must be (user key asc, seq desc): {:?} then {:?}",
                    (&w[0].0, w[0].1),
                    (&w[1].0, w[1].1)
                );
            }
        }
    }
}
