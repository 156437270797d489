//! The MemTable with Treaty's key/value split (§V-B, §VII-D).
//!
//! Keys, version numbers and value *hashes* stay inside the enclave (they
//! are what integrity rests on); the values themselves are encrypted and
//! placed in untrusted host memory, with the enclave holding only a handle.
//! This keeps the EPC footprint proportional to key count, not data size —
//! the central trick that lets an LSM engine live in a 94 MiB enclave.
//!
//! One skip list holds every version in `(user key asc, seq desc)` order,
//! so point reads, range cursors and the flush all walk the same index.
//! The fiber runtime runs one fiber at a time (§VII-C), so a second list
//! would buy no parallelism — only a merge under every ordered read.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use treaty_crypto::codec::{CodecError, Decode, Encode, Reader, Writer};
use treaty_crypto::{aead_open, aead_seal, hash, Digest32, Key};
use treaty_tee::{HostBytes, HostHandle};

use crate::env::Env;
use crate::skiplist::SkipList;
use crate::{Result, StoreError};

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

impl Encode for RangeTombstone {
    fn encode(&self, w: &mut Writer) {
        self.start.encode(w);
        self.end.encode(w);
        self.seq.encode(w);
    }
}

impl Decode for RangeTombstone {
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(RangeTombstone {
            start: Decode::decode(r)?,
            end: Decode::decode(r)?,
            seq: Decode::decode(r)?,
        })
    }
}

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
/// integrity hash — or a tombstone.
#[derive(Debug, Clone)]
enum ValueEntry {
    Put {
        handle: HostHandle,
        len: u32,
        hash: Digest32,
    },
    Delete,
}

/// Approximate enclave bytes per entry beyond the key: seq + hash + handle.
const ENTRY_OVERHEAD: usize = 48;

/// A sorted in-memory write buffer.
pub struct MemTable {
    env: Arc<Env>,
    /// The one ordered index: `(user key asc, seq desc)`.
    index: RwLock<SkipList<MemKey, ValueEntry>>,
    /// Range tombstones buffered in this MemTable, in arrival order.
    /// Always few (one entry per `delete_range` call, not per key), so a
    /// linear scan per read is cheap; they ride the flush into the
    /// SSTable's sealed footer.
    range_tombstones: RwLock<Vec<RangeTombstone>>,
    bytes: AtomicUsize,
    entries: AtomicUsize,
    /// Per-incarnation key for host-resident values. Host memory does not
    /// survive a crash, so no cross-boot nonce discipline is needed.
    value_key: Key,
    nonce_seq: AtomicU64,
    /// Set once the host/enclave memory behind the entries has been
    /// released; guards against double-free (explicit release + drop).
    released: AtomicBool,
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("entries", &self.entries.load(Ordering::Relaxed))
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl MemTable {
    /// Creates an empty MemTable.
    pub fn new(env: Arc<Env>) -> Self {
        MemTable {
            value_key: env.keys.storage.derive("memtable-values"),
            env,
            index: RwLock::new(SkipList::new()),
            range_tombstones: RwLock::new(Vec::new()),
            bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            nonce_seq: AtomicU64::new(0),
            released: AtomicBool::new(false),
        }
    }

    fn next_nonce(&self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(b"MVAL");
        nonce[4..].copy_from_slice(&self.nonce_seq.fetch_add(1, Ordering::Relaxed).to_le_bytes());
        nonce
    }

    /// Inserts a value version.
    pub fn put(&self, key: &[u8], seq: SeqNum, value: &[u8]) {
        self.env
            .charge_enclave_op(key.len() + ENTRY_OVERHEAD, self.env.costs.memtable_op_ns);
        self.env.charge_crypto(value.len());
        self.env.charge_hash(value.len());

        let digest = if self.env.profile.authentication {
            hash::sha256(value)
        } else {
            Digest32::default()
        };
        let stored = if self.env.profile.encryption {
            encrypt_with_prefix_nonce(&self.value_key, key, self.next_nonce(), value)
        } else if self.env.profile.authentication {
            // Treaty w/o Enc: the enclave-held digest pins the plaintext,
            // so host tampering is caught on the read path.
            self.env.enclave.pin_integrity(digest);
            #[allow(clippy::expect_used, reason = "the digest is pinned on the line above")]
            HostBytes::integrity_pinned(value.to_vec(), &self.env.enclave)
                .expect("digest pinned immediately above")
        } else {
            // Baseline profiles (native / DS-RocksDB) store plaintext
            // values by design — they are the negative controls.
            HostBytes::declassified(value.to_vec(), "baseline profile without encryption")
        };
        let handle = self.env.vault.store(stored);

        self.env
            .enclave
            .alloc_trusted((key.len() + ENTRY_OVERHEAD) as u64);
        self.bytes
            .fetch_add(key.len() + ENTRY_OVERHEAD + value.len(), Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);

        self.index.write().insert(
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
        self.bytes
            .fetch_add(key.len() + ENTRY_OVERHEAD, Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.index
            .write()
            .insert(MemKey::new(key.to_vec(), seq), ValueEntry::Delete);
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
        self.bytes.fetch_add(footprint, Ordering::Relaxed);
        self.range_tombstones.write().push(RangeTombstone {
            start: start.to_vec(),
            end: end.to_vec(),
            seq,
        });
    }

    /// The buffered range tombstones (cloned; they are few). The flush
    /// path seals them into the SSTable footer, and readers merge them
    /// with point entries.
    pub fn range_tombstones(&self) -> Vec<RangeTombstone> {
        self.range_tombstones.read().clone()
    }

    /// The newest range-tombstone version covering `key` at `snapshot`,
    /// if any.
    pub fn covering_tombstone_seq(&self, key: &[u8], snapshot: SeqNum) -> Option<SeqNum> {
        self.range_tombstones
            .read()
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
        self.env
            .charge_enclave_op(key.len() + ENTRY_OVERHEAD, self.env.costs.memtable_op_ns);
        let guard = self.index.read();
        let probe = MemKey::new(key.to_vec(), snapshot);
        let point = match guard.range_from(&probe).next() {
            Some((k, v)) if k.user == key => Some((k.seq(), v.clone())),
            _ => None,
        };
        drop(guard);
        // A range tombstone newer than the point version (but visible at
        // the snapshot) deletes it; one with no point version at all still
        // deletes whatever older levels hold.
        let rt_seq = self.covering_tombstone_seq(key, snapshot);
        match (point, rt_seq) {
            (None, None) => Ok(None),
            (None, Some(_)) => Ok(Some(None)),
            (Some((pseq, _)), Some(ts)) if ts > pseq => Ok(Some(None)),
            (Some((_, entry)), _) => match entry {
                ValueEntry::Delete => Ok(Some(None)),
                put => Ok(Some(self.resolve_value(key, &put)?)),
            },
        }
    }

    /// Decrypts and integrity-checks one entry's host-resident value.
    /// `Delete` resolves to `None`.
    fn resolve_value(&self, key: &[u8], entry: &ValueEntry) -> Result<Option<Vec<u8>>> {
        let ValueEntry::Put {
            handle,
            len,
            hash: digest,
        } = entry
        else {
            return Ok(None);
        };
        let stored = self
            .env
            .vault
            .load(*handle)
            .map_err(|e| StoreError::Integrity(e.to_string()))?;
        self.env.charge_crypto(*len as usize);
        self.env.charge_hash(*len as usize);
        let plain = if self.env.profile.encryption {
            // We cannot know which nonce without storing it; GCM nonce is
            // prepended to the stored buffer.
            decrypt_with_prefix_nonce(&self.value_key, key, &stored)?
        } else {
            stored
        };
        if self.env.profile.authentication && hash::sha256(&plain) != *digest {
            return Err(StoreError::Integrity(
                "memtable value hash mismatch — host memory tampered".into(),
            ));
        }
        Ok(Some(plain))
    }

    /// Newest sequence number of `key` in this MemTable, if any (used by
    /// optimistic validation).
    pub fn latest_seq_of(&self, key: &[u8]) -> Option<SeqNum> {
        let guard = self.index.read();
        let probe = MemKey::new(key.to_vec(), SeqNum::MAX);
        match guard.range_from(&probe).next() {
            Some((k, _)) if k.user == key => Some(k.seq()),
            _ => None,
        }
    }

    /// Approximate bytes buffered (keys + values), for flush triggering.
    pub fn approx_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of point entries (versions); range tombstones not included.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True if there is nothing to flush — no point entries *and* no
    /// range tombstones (a tombstone-only MemTable still must flush).
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.range_tombstones.read().is_empty()
    }

    /// Opens a cursor over `[start, end)` (`end = None` scans to the end of
    /// the key space) in `(user key asc, seq desc)` order: one skip-list
    /// seek. Only the enclave-resident `(key, seq, handle)` entries are
    /// snapshotted up front; values stay in host memory until the cursor
    /// yields them, so a scan never materializes more than one value at a
    /// time in enclave memory.
    pub fn range_cursor(&self, start: &[u8], end: Option<&[u8]>) -> MemCursor<'_> {
        let probe = MemKey::new(start.to_vec(), SeqNum::MAX);
        // Collect under the guard, charge after it drops: the charge
        // yields, and a parked reader would wedge `put`'s index write.
        let entries: Vec<(MemKey, ValueEntry)> = {
            let guard = self.index.read();
            guard
                .range_from(&probe)
                .take_while(|(k, _)| end.map(|e| k.user.as_slice() < e).unwrap_or(true))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        self.env.charge_enclave_op(
            entries.len() * ENTRY_OVERHEAD + ENTRY_OVERHEAD,
            self.env.costs.memtable_op_ns,
        );
        MemCursor {
            mt: self,
            entries: entries.into_iter(),
        }
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
            let guard = self.index.read();
            guard.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut out = Vec::with_capacity(all.len());
        for (k, v) in all {
            match v {
                ValueEntry::Delete => {
                    let seq = k.seq();
                    out.push((k.user, seq, None));
                }
                ValueEntry::Put {
                    handle,
                    len,
                    hash: digest,
                } => {
                    let stored = self
                        .env
                        .vault
                        .load(handle)
                        .map_err(|e| StoreError::Integrity(e.to_string()))?;
                    self.env.charge_crypto(len as usize);
                    let plain = if self.env.profile.encryption {
                        decrypt_with_prefix_nonce(&self.value_key, &k.user, &stored)?
                    } else {
                        stored
                    };
                    if self.env.profile.authentication && hash::sha256(&plain) != digest {
                        return Err(StoreError::Integrity(
                            "memtable value hash mismatch during flush".into(),
                        ));
                    }
                    let seq = k.seq();
                    out.push((k.user, seq, Some(plain)));
                }
            }
        }
        Ok(out)
    }

    /// Releases host/enclave memory after a flushed MemTable's SSTable is
    /// published. Idempotent, and also invoked on drop — so the engine can
    /// simply stop referencing a frozen MemTable and let the last holder
    /// (possibly a racing reader) reclaim its buffers.
    pub fn release_flushed(&self) {
        if self.released.swap(true, Ordering::SeqCst) {
            return;
        }
        for rt in self.range_tombstones.read().iter() {
            let freed = rt.start.len() + rt.end.len() + ENTRY_OVERHEAD;
            self.env.enclave.free_trusted(freed as u64);
        }
        let guard = self.index.read();
        for (k, v) in guard.iter() {
            let freed = k.user.len() + ENTRY_OVERHEAD;
            self.env.enclave.free_trusted(freed as u64);
            if let ValueEntry::Put {
                handle,
                hash: digest,
                ..
            } = v
            {
                let _ = self.env.vault.free(*handle);
                if !self.env.profile.encryption && self.env.profile.authentication {
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

/// A range cursor over a MemTable ([`MemTable::range_cursor`]). The
/// in-range entries are snapshotted (keys/handles only) at open, already
/// in `(user key asc, seq desc)` order; `next` resolves one value at a
/// time from host memory.
pub struct MemCursor<'a> {
    mt: &'a MemTable,
    entries: std::vec::IntoIter<(MemKey, ValueEntry)>,
}

impl std::fmt::Debug for MemCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemCursor")
            .field("remaining", &self.entries.len())
            .finish_non_exhaustive()
    }
}

impl MemCursor<'_> {
    /// The next entry in index order, or `None` when exhausted.
    ///
    /// # Errors
    ///
    /// [`StoreError::Integrity`] if the entry's host-resident value was
    /// tampered with.
    #[allow(clippy::should_implement_trait)] // fallible: not an `Iterator`
    pub fn next(&mut self) -> Result<Option<VersionedEntry>> {
        let Some((k, v)) = self.entries.next() else {
            return Ok(None);
        };
        let value = self.mt.resolve_value(&k.user, &v)?;
        let seq = k.seq();
        Ok(Some((k.user, seq, value)))
    }
}

/// Values in host memory are stored as `nonce(12B) ‖ ciphertext` — the
/// nonce need not be secret, only unique.
fn encrypt_with_prefix_nonce(key: &Key, aad: &[u8], nonce: [u8; 12], plain: &[u8]) -> HostBytes {
    let mut out = HostBytes::nonce(nonce);
    out.append(HostBytes::from_ciphertext(aead_seal(
        key, &nonce, aad, plain,
    )));
    out
}

fn decrypt_with_prefix_nonce(key: &Key, aad: &[u8], stored: &[u8]) -> Result<Vec<u8>> {
    let Some((nonce, sealed)) = stored.split_first_chunk::<12>() else {
        return Err(StoreError::Integrity("truncated host value".into()));
    };
    aead_open(key, nonce, aad, sealed)
        .map_err(|_| StoreError::Integrity("host value failed decryption".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sim::SecurityProfile;

    fn memtable(profile: SecurityProfile) -> (tempfile::TempDir, Arc<Env>, MemTable) {
        let dir = tempfile::tempdir().unwrap();
        let env = Env::for_testing(profile, dir.path());
        let mt = MemTable::new(Arc::clone(&env));
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
        assert!(matches!(err, StoreError::Integrity(_)));
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
        assert!(matches!(err, StoreError::Integrity(_)));
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

    #[test]
    fn latest_seq_of_reports_newest() {
        let (_d, _e, mt) = memtable(SecurityProfile::treaty_full());
        assert_eq!(mt.latest_seq_of(b"k"), None);
        mt.put(b"k", 3, b"x");
        mt.put(b"k", 9, b"y");
        assert_eq!(mt.latest_seq_of(b"k"), Some(9));
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
        let mut cur = mt.range_cursor(b"k003", Some(b"k015"));
        let mut got = Vec::new();
        while let Some(e) = cur.next().unwrap() {
            got.push(e);
        }
        assert!(!got.is_empty());
        for e in &got {
            assert!(e.0.as_slice() >= b"k003".as_slice() && e.0.as_slice() < b"k015".as_slice());
        }
        for w in got.windows(2) {
            let ordered = w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 > w[1].1);
            assert!(ordered, "cursor must yield (key asc, seq desc)");
        }
        // The tombstone rides the cursor as a None value.
        assert!(got
            .iter()
            .any(|e| e.0 == b"k005" && e.1 == 100 && e.2.is_none()));
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

    // freeze_entries sortedness under randomized interleaved writers:
    // OS threads hammer the one index with seeded-random keys/versions; the
    // frozen output must be (user key asc, seq desc) regardless of
    // interleaving, since range cursors and the flush path rely on it.
    #[test]
    fn freeze_entries_globally_sorted_under_interleaved_writers() {
        use rand::{Rng, SeedableRng};
        for seed in 0..16u64 {
            let dir = tempfile::tempdir().unwrap();
            let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
            let mt = MemTable::new(Arc::clone(&env));
            let next_seq = AtomicU64::new(1);
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let mt = &mt;
                    let next_seq = &next_seq;
                    s.spawn(move || {
                        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed * 7 + t);
                        for _ in 0..64 {
                            let key = format!("key-{:03}", rng.gen_range(0..50));
                            let seq = next_seq.fetch_add(1, Ordering::Relaxed);
                            if rng.gen_bool(0.1) {
                                mt.delete(key.as_bytes(), seq);
                            } else {
                                mt.put(key.as_bytes(), seq, format!("v{seq}").as_bytes());
                            }
                        }
                    });
                }
            });
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
