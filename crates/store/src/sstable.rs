//! SSTables: immutable sorted runs of encrypted blocks with a footer of
//! block hashes (the SPEICHER data model, §V-A/§VII-B).
//!
//! File layout:
//!
//! ```text
//! ┌─────────┬─────────┬───┬──────────────┬────────────┬─────────┐
//! │ block 0 │ block 1 │ … │ meta (sealed)│ meta_len 8B│ magic 8B│
//! └─────────┴─────────┴───┴──────────────┴────────────┴─────────┘
//! ```
//!
//! Each block holds sorted `(key, seq, value?)` records. Under encryption
//! a block is AES-GCM sealed with a nonce derived from `(file_id,
//! block_no)`; under authentication-only each block's HMAC lives in the
//! meta footer. The meta footer itself is sealed the same way, and its
//! digests are loaded *into the enclave* at open so every subsequent block
//! read can be verified against trusted state.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use treaty_crypto::codec::{CodecError, Decode, Encode, Reader, Record, Writer};
use treaty_crypto::{aead_open, aead_seal, hash, Digest32};
use treaty_tee::HostBytes;

use crate::bloom::BloomFilter;
use crate::cache::approx_records_bytes;
use crate::env::Env;
use crate::memtable::{RangeTombstone, SeqNum, UserKey, VersionedEntry};
use crate::{Result, StoreError};

const MAGIC: u64 = 0x5452_4541_5459_5354; // "TREATYST"
const META_BLOCK_NO: u32 = u32::MAX;

/// Metadata for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte offset of the stored (possibly sealed) block.
    pub offset: u64,
    /// Stored length in bytes.
    pub len: u32,
    /// First user key in the block.
    pub first_key: UserKey,
    /// Last user key in the block (a key's version run may straddle block
    /// boundaries; lookups must scan every block whose range covers it).
    pub last_key: UserKey,
    /// HMAC of the stored bytes (authentication-only mode; zeros when the
    /// GCM tag already covers the block).
    pub digest: [u8; 32],
}

/// Footer metadata of an SSTable, held in the enclave after open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsTableMeta {
    /// Unique file id (drives block nonces; never reused per key).
    pub file_id: u64,
    /// Per-block metadata in key order.
    pub blocks: Vec<BlockMeta>,
    /// Smallest user key in the table.
    pub min_key: UserKey,
    /// Largest user key in the table.
    pub max_key: UserKey,
    /// Highest sequence number stored.
    pub max_seq: SeqNum,
    /// Number of records.
    pub entries: u64,
    /// Bloom filter over the table's distinct user keys. Serialized inside
    /// the sealed footer, so it is covered by the same integrity protection
    /// as the block digests: tampered filter bits are detected at open.
    /// `None` for tables built with filters disabled.
    pub filter: Option<BloomFilter>,
    /// Multi-version range tombstones carried by this table, in `(start,
    /// seq)` order. They live in the sealed footer — the same integrity
    /// envelope as the block digests — so untrusted storage cannot drop a
    /// range delete without failing footer verification at open.
    pub range_tombstones: Vec<RangeTombstone>,
}

impl Encode for BlockMeta {
    fn encode(&self, w: &mut Writer) {
        self.offset.encode(w);
        self.len.encode(w);
        self.first_key.encode(w);
        self.last_key.encode(w);
        self.digest.encode(w);
    }
}

impl Decode for BlockMeta {
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(BlockMeta {
            offset: Decode::decode(r)?,
            len: Decode::decode(r)?,
            first_key: Decode::decode(r)?,
            last_key: Decode::decode(r)?,
            digest: Decode::decode(r)?,
        })
    }
}

impl Encode for SsTableMeta {
    fn encode(&self, w: &mut Writer) {
        self.file_id.encode(w);
        self.blocks.encode(w);
        self.min_key.encode(w);
        self.max_key.encode(w);
        self.max_seq.encode(w);
        self.entries.encode(w);
        self.filter.encode(w);
        self.range_tombstones.encode(w);
    }
}

impl Decode for SsTableMeta {
    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        Ok(SsTableMeta {
            file_id: Decode::decode(r)?,
            blocks: Decode::decode(r)?,
            min_key: Decode::decode(r)?,
            max_key: Decode::decode(r)?,
            max_seq: Decode::decode(r)?,
            entries: Decode::decode(r)?,
            filter: Decode::decode(r)?,
            range_tombstones: Decode::decode(r)?,
        })
    }
}

impl Record for SsTableMeta {
    const MAGIC: u8 = 0x51;
}

fn block_nonce(file_id: u64, block_no: u32) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..8].copy_from_slice(&file_id.to_le_bytes());
    n[8..].copy_from_slice(&block_no.to_le_bytes());
    n
}

fn block_aad(file_id: u64, block_no: u32) -> Vec<u8> {
    let mut aad = Vec::with_capacity(12);
    aad.extend_from_slice(&file_id.to_le_bytes());
    aad.extend_from_slice(&block_no.to_le_bytes());
    aad
}

/// Protects one block for untrusted storage, returning the stored bytes
/// (as boundary-typed [`HostBytes`]) plus the footer HMAC digest used in
/// authentication-only mode.
fn protect_block(env: &Env, file_id: u64, block_no: u32, plain: &[u8]) -> (HostBytes, [u8; 32]) {
    env.charge_crypto(plain.len());
    env.charge_hash(plain.len());
    let stored = if env.profile.encryption {
        HostBytes::from_ciphertext(aead_seal(
            &env.keys.storage,
            &block_nonce(file_id, block_no),
            &block_aad(file_id, block_no),
            plain,
        ))
    } else {
        // Unencrypted profiles store cleartext blocks by design; integrity
        // comes from the footer HMAC the enclave pins at open (the "w/o
        // Enc" ablation) or from nothing (native baseline).
        HostBytes::declassified(
            plain.to_vec(),
            "sstable block under a no-encryption profile",
        )
    };
    let digest = if env.profile.authentication && !env.profile.encryption {
        let mut buf = block_aad(file_id, block_no);
        buf.extend_from_slice(stored.as_slice());
        hash::hmac_sign(&env.keys.storage, &buf).0
    } else {
        [0u8; 32]
    };
    (stored, digest)
}

fn open_block(
    env: &Env,
    file_id: u64,
    block_no: u32,
    stored: &[u8],
    digest: &[u8; 32],
) -> Result<Vec<u8>> {
    env.charge_crypto(stored.len());
    env.charge_hash(stored.len());
    if env.profile.encryption {
        aead_open(
            &env.keys.storage,
            &block_nonce(file_id, block_no),
            &block_aad(file_id, block_no),
            stored,
        )
        .map_err(|_| {
            StoreError::Integrity(format!(
                "sstable {file_id} block {block_no} failed decryption — storage tampered"
            ))
        })
    } else {
        if env.profile.authentication {
            let mut buf = block_aad(file_id, block_no);
            buf.extend_from_slice(stored);
            if hash::hmac_verify(&env.keys.storage, &buf, &Digest32(*digest)).is_err() {
                return Err(StoreError::Integrity(format!(
                    "sstable {file_id} block {block_no} failed authentication"
                )));
            }
        }
        Ok(stored.to_vec())
    }
}

/// One record inside a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsRecord {
    /// User key.
    pub key: UserKey,
    /// Version.
    pub seq: SeqNum,
    /// `None` is a tombstone.
    pub value: Option<Vec<u8>>,
}

fn encode_records(records: &[SsRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&(r.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&r.key);
        out.extend_from_slice(&r.seq.to_le_bytes());
        match &r.value {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => {
                out.push(0);
                out.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }
    out
}

fn decode_records(mut buf: &[u8]) -> Result<Vec<SsRecord>> {
    let mut out = Vec::new();
    let bad = || StoreError::Integrity("malformed sstable block".into());
    while !buf.is_empty() {
        if buf.len() < 4 {
            return Err(bad());
        }
        let klen = u32::from_le_bytes(buf[..4].try_into().map_err(|_| bad())?) as usize;
        buf = &buf[4..];
        if buf.len() < klen + 13 {
            return Err(bad());
        }
        let key = buf[..klen].to_vec();
        let seq = u64::from_le_bytes(buf[klen..klen + 8].try_into().map_err(|_| bad())?);
        let kind = buf[klen + 8];
        let vlen =
            u32::from_le_bytes(buf[klen + 9..klen + 13].try_into().map_err(|_| bad())?) as usize;
        buf = &buf[klen + 13..];
        if buf.len() < vlen {
            return Err(bad());
        }
        let value = if kind == 1 {
            Some(buf[..vlen].to_vec())
        } else {
            None
        };
        buf = &buf[vlen..];
        out.push(SsRecord { key, seq, value });
    }
    Ok(out)
}

/// Builds an SSTable from sorted entries (user key asc, seq desc within a
/// key) plus the range tombstones the run carries. Returns its metadata.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on write failure.
///
/// # Panics
///
/// Panics if both `entries` and `range_tombstones` are empty — flushing
/// nothing is an engine bug.
pub fn build(
    env: &Env,
    path: &Path,
    file_id: u64,
    entries: &[VersionedEntry],
    range_tombstones: &[RangeTombstone],
) -> Result<SsTableMeta> {
    assert!(
        !entries.is_empty() || !range_tombstones.is_empty(),
        "cannot build an empty sstable"
    );
    let mut file = File::create(path)?;
    let mut blocks = Vec::new();
    let mut offset = 0u64;
    let mut pending: Vec<SsRecord> = Vec::new();
    let mut pending_bytes = 0usize;
    let mut max_seq = 0;
    let mut total = 0u64;

    let flush_block = |pending: &mut Vec<SsRecord>,
                       file: &mut File,
                       offset: &mut u64,
                       blocks: &mut Vec<BlockMeta>|
     -> Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let block_no = blocks.len() as u32;
        let plain = encode_records(pending);
        let (stored, digest) = protect_block(env, file_id, block_no, &plain);
        file.write_all(stored.as_slice())?;
        blocks.push(BlockMeta {
            offset: *offset,
            len: stored.len() as u32,
            first_key: pending[0].key.clone(),
            last_key: pending[pending.len() - 1].key.clone(),
            digest,
        });
        *offset += stored.len() as u64;
        pending.clear();
        Ok(())
    };

    for (key, seq, value) in entries {
        max_seq = max_seq.max(*seq);
        total += 1;
        pending_bytes += key.len() + value.as_ref().map(|v| v.len()).unwrap_or(0) + 17;
        pending.push(SsRecord {
            key: key.clone(),
            seq: *seq,
            value: value.clone(),
        });
        if pending_bytes >= env.config.block_bytes {
            flush_block(&mut pending, &mut file, &mut offset, &mut blocks)?;
            pending_bytes = 0;
        }
    }
    flush_block(&mut pending, &mut file, &mut offset, &mut blocks)?;

    // Entries arrive sorted by user key, so distinct keys are runs; one
    // filter insertion per run. Sized by distinct-key count, not record
    // count, so hot multi-version keys don't inflate the filter.
    let filter = if env.config.bloom_bits_per_key > 0 && !entries.is_empty() {
        let distinct = entries.windows(2).filter(|w| w[0].0 != w[1].0).count() + 1;
        let mut f = BloomFilter::new(distinct, env.config.bloom_bits_per_key);
        let mut prev: Option<&UserKey> = None;
        for (key, _, _) in entries {
            if prev != Some(key) {
                f.insert(key);
                prev = Some(key);
            }
        }
        // Building the filter is one hash pass over the keys.
        env.charge_cpu(entries.len() as u64 * env.costs.bloom_probe_ns / 4);
        Some(f)
    } else {
        None
    };

    // Key range: the point entries' span widened to cover every range
    // tombstone, so level assignment and `covers` account for deletes of
    // keys the table holds no point version for.
    let mut min_key = entries.first().map(|e| e.0.clone()).unwrap_or_default();
    let mut max_key = entries.last().map(|e| e.0.clone()).unwrap_or_default();
    for rt in range_tombstones {
        max_seq = max_seq.max(rt.seq);
        if entries.is_empty() && min_key.is_empty() && max_key.is_empty() {
            min_key = rt.start.clone();
            max_key = rt.end.clone();
        } else {
            if rt.start < min_key {
                min_key = rt.start.clone();
            }
            if rt.end > max_key {
                max_key = rt.end.clone();
            }
        }
    }
    let meta = SsTableMeta {
        file_id,
        blocks,
        min_key,
        max_key,
        max_seq,
        entries: total,
        filter,
        range_tombstones: range_tombstones.to_vec(),
    };

    let meta_plain = meta.to_bytes();
    let (meta_stored, meta_digest) = protect_block(env, file_id, META_BLOCK_NO, &meta_plain);
    file.write_all(meta_stored.as_slice())?;
    file.write_all(&meta_digest)?;
    file.write_all(&(meta_stored.len() as u64).to_le_bytes())?;
    file.write_all(&MAGIC.to_le_bytes())?;
    file.sync_data()?;

    // Writing the table costs one sequential SSD write of its full size.
    env.charge_ssd_append((offset as usize) + meta_stored.len() + 48);
    Ok(meta)
}

/// An open, verifiable SSTable.
pub struct SsTable {
    env: Arc<Env>,
    path: PathBuf,
    meta: SsTableMeta,
    /// On-disk size, captured once at open so level-size checks on the
    /// commit path never issue a host `metadata` syscall per table.
    disk_bytes: u64,
}

impl std::fmt::Debug for SsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsTable")
            .field("file_id", &self.meta.file_id)
            .field("entries", &self.meta.entries)
            .finish_non_exhaustive()
    }
}

impl SsTable {
    /// Opens an SSTable, verifying and loading its meta footer into the
    /// enclave.
    ///
    /// # Errors
    ///
    /// [`StoreError::Integrity`] if the footer is malformed or fails
    /// verification; [`StoreError::Io`] on read failure.
    pub fn open(env: Arc<Env>, path: &Path) -> Result<Self> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < 48 {
            return Err(StoreError::Integrity("sstable too short".into()));
        }
        let mut tail = [0u8; 16];
        file.seek(SeekFrom::End(-16))?;
        file.read_exact(&mut tail)?;
        let footer_err = || StoreError::Integrity("sstable footer malformed".into());
        let meta_len = u64::from_le_bytes(tail[..8].try_into().map_err(|_| footer_err())?);
        let magic = u64::from_le_bytes(tail[8..].try_into().map_err(|_| footer_err())?);
        if magic != MAGIC {
            return Err(StoreError::Integrity("bad sstable magic".into()));
        }
        if meta_len + 48 > file_len {
            return Err(StoreError::Integrity("bad sstable meta length".into()));
        }
        let mut meta_stored = vec![0u8; meta_len as usize];
        let mut meta_digest = [0u8; 32];
        file.seek(SeekFrom::End(-16 - 32 - meta_len as i64))?;
        file.read_exact(&mut meta_stored)?;
        file.read_exact(&mut meta_digest)?;
        env.charge_storage_read(meta_len as usize);

        // The nonce and aad need file_id before the meta decodes: it comes
        // from the path by convention, and the decoded meta must agree.
        let file_id = file_id_from_path(path)?;
        let meta_plain = open_block(&env, file_id, META_BLOCK_NO, &meta_stored, &meta_digest)?;
        let meta = SsTableMeta::from_bytes(&meta_plain)
            .map_err(|e| StoreError::Integrity(format!("sstable meta: {e}")))?;
        if meta.file_id != file_id {
            return Err(StoreError::Integrity(
                "sstable meta/file id mismatch".into(),
            ));
        }
        // Footer digests and the Bloom filter now live in trusted memory.
        env.enclave.alloc_trusted(trusted_footprint(&meta));
        Ok(SsTable {
            env,
            path: path.to_path_buf(),
            meta,
            disk_bytes: file_len,
        })
    }

    /// The table's metadata.
    pub fn meta(&self) -> &SsTableMeta {
        &self.meta
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// On-disk file size in bytes, as measured at open.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_bytes
    }

    /// True if `key` falls inside this table's key range.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.meta.min_key.as_slice() <= key && key <= self.meta.max_key.as_slice()
    }

    /// The newest range tombstone in this table's sealed footer covering
    /// `key` and visible at `snapshot`, if any. In-enclave metadata only —
    /// no block I/O.
    pub fn covering_tombstone_seq(&self, key: &[u8], snapshot: SeqNum) -> Option<SeqNum> {
        self.meta
            .range_tombstones
            .iter()
            .filter(|rt| rt.seq <= snapshot && rt.covers(key))
            .map(|rt| rt.seq)
            .max()
    }

    /// Reads one block for the point-read path, via the trusted block
    /// cache when one is configured. A hit returns the already-verified
    /// plaintext records for an in-enclave charge; a miss pays the full
    /// storage-read + decrypt path and populates the cache.
    fn read_block(&self, block_no: usize) -> Result<Arc<Vec<SsRecord>>> {
        let Some(cache) = &self.env.block_cache else {
            return self.read_block_uncached(block_no);
        };
        if let Some(records) = cache.get(self.meta.file_id, block_no as u32) {
            self.env
                .charge_cache_hit(approx_records_bytes(&records) as usize);
            return Ok(records);
        }
        let records = self.read_block_uncached(block_no)?;
        cache.insert(self.meta.file_id, block_no as u32, Arc::clone(&records));
        Ok(records)
    }

    /// Reads and verifies one block directly from untrusted storage. A
    /// short read (the file was truncated under us) is an integrity
    /// failure, not an I/O error: the sealed footer says the block exists.
    fn read_block_uncached(&self, block_no: usize) -> Result<Arc<Vec<SsRecord>>> {
        let bm = &self.meta.blocks[block_no];
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(bm.offset))?;
        let mut stored = vec![0u8; bm.len as usize];
        file.read_exact(&mut stored).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Integrity(format!(
                    "sstable {} block {block_no} truncated by untrusted storage",
                    self.meta.file_id
                ))
            } else {
                StoreError::from(e)
            }
        })?;
        self.env.charge_storage_read(stored.len());
        let plain = open_block(
            &self.env,
            self.meta.file_id,
            block_no as u32,
            &stored,
            &bm.digest,
        )?;
        Ok(Arc::new(decode_records(&plain)?))
    }

    /// Index range of blocks whose `[first_key, last_key]` span covers
    /// `key`. A key's version run is contiguous, so this is a contiguous
    /// range.
    fn candidate_blocks(&self, key: &[u8]) -> std::ops::Range<usize> {
        let blocks = &self.meta.blocks;
        // Last block whose first_key <= key.
        let end_anchor = blocks.partition_point(|b| b.first_key.as_slice() <= key);
        if end_anchor == 0 {
            return 0..0;
        }
        let mut start = end_anchor - 1;
        // The run may have started in earlier blocks that end at `key`.
        while start > 0 && blocks[start - 1].last_key.as_slice() >= key {
            start -= 1;
        }
        if blocks[start].last_key.as_slice() < key {
            return 0..0; // gap: key falls between blocks
        }
        start..end_anchor
    }

    /// True if `key` falls in this table's range *and* passes its Bloom
    /// filter: the cheap, no-I/O precondition for probing it. A false
    /// return is definitive (no block read needed); filter negatives are
    /// counted in the environment's store counters.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if !self.covers(key) {
            return false;
        }
        match &self.meta.filter {
            None => true,
            Some(f) => {
                self.env.charge_bloom_probe();
                if f.may_contain(key) {
                    true
                } else {
                    self.env
                        .stats
                        .bloom_negatives
                        .fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Runs `visit` over every stored version of `key` in this table,
    /// gated by the range check and the Bloom filter. A filter *false
    /// positive* is counted only when a block was actually read and found
    /// not to hold the key; lookups rejected by the fence keys alone
    /// (`candidate_blocks` returns the empty gap range, zero I/O) are
    /// counted separately as fence-gap rejects, so the reported FPR
    /// measures the filter and nothing else.
    pub(crate) fn probe_key<F: FnMut(&SsRecord)>(&self, key: &[u8], mut visit: F) -> Result<()> {
        if !self.may_contain(key) {
            return Ok(());
        }
        let candidates = self.candidate_blocks(key);
        if candidates.is_empty() {
            // The fences prove no block can hold the key: no block read
            // happened, so this tells us nothing about the Bloom filter.
            self.env
                .stats
                .fence_gap_rejects
                .fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let mut seen = false;
        for b in candidates {
            for r in self.read_block(b)?.iter() {
                if r.key.as_slice() == key {
                    seen = true;
                    visit(r);
                }
            }
        }
        if !seen && self.meta.filter.is_some() {
            self.env
                .stats
                .bloom_false_positives
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The one point lookup: the newest version of `key` visible at
    /// `snapshot` with its seq (`None` value = tombstone), which the
    /// engine's descent weighs against range tombstones.
    pub(crate) fn get_with_seq(
        &self,
        key: &[u8],
        snapshot: SeqNum,
    ) -> Result<Option<(SeqNum, Option<Vec<u8>>)>> {
        let mut best: Option<(SeqNum, Option<Vec<u8>>)> = None;
        self.probe_key(key, |r| {
            if r.seq <= snapshot && best.as_ref().map(|(s, _)| r.seq > *s).unwrap_or(true) {
                best = Some((r.seq, r.value.clone()));
            }
        })?;
        Ok(best)
    }

    /// Looks up the newest version of `key` visible at `snapshot`.
    /// `None` = this table holds no visible version; `Some(None)` =
    /// tombstone.
    ///
    /// # Errors
    ///
    /// Propagates integrity/IO failures from block reads.
    pub fn get(&self, key: &[u8], snapshot: SeqNum) -> Result<Option<Option<Vec<u8>>>> {
        Ok(self.get_with_seq(key, snapshot)?.map(|(_, v)| v))
    }

    /// The newest sequence number for `key` in this table, if any.
    ///
    /// # Errors
    ///
    /// Propagates integrity/IO failures from block reads.
    pub fn latest_seq_of(&self, key: &[u8]) -> Result<Option<SeqNum>> {
        let mut best: Option<SeqNum> = None;
        self.probe_key(key, |r| {
            if best.map(|b| r.seq > b).unwrap_or(true) {
                best = Some(r.seq);
            }
        })?;
        Ok(best)
    }

    /// Opens an authenticated streaming cursor over `[start, ..)`, seeking
    /// via the sealed fence keys — no block before the first candidate is
    /// read, and only one block is enclave-resident at a time. `cached`
    /// routes block reads through the trusted block cache; compaction
    /// passes `false` because its inputs are about to be retired and would
    /// only evict hot entries.
    ///
    /// # Errors
    ///
    /// [`StoreError::Integrity`] when the fence-key index itself is
    /// inconsistent (overlapping or reordered fences).
    pub fn range_cursor(self: &Arc<Self>, start: &[u8], cached: bool) -> Result<TableCursor> {
        // Fence monotonicity over the whole index, checked once up front:
        // adjacent blocks must not overlap beyond sharing a straddling
        // version run's key, and each block's own fences must be ordered.
        // The fences are sealed in the footer, so a failure here means the
        // enclave's own view is corrupt — fail loudly.
        for (i, bm) in self.meta.blocks.iter().enumerate() {
            if bm.first_key > bm.last_key {
                return Err(StoreError::Integrity(format!(
                    "sstable {} block {i} fence keys inverted",
                    self.meta.file_id
                )));
            }
            if i > 0 && self.meta.blocks[i - 1].last_key > bm.first_key {
                return Err(StoreError::Integrity(format!(
                    "sstable {} blocks {}..{i} fence keys overlap — index reordered",
                    self.meta.file_id,
                    i - 1
                )));
            }
        }
        // First block whose last_key >= start: earlier blocks end strictly
        // before the range and can be skipped without reading them.
        let block = self
            .meta
            .blocks
            .partition_point(|b| b.last_key.as_slice() < start);
        Ok(TableCursor {
            table: Arc::clone(self),
            cached,
            next_block: block,
            start: start.to_vec(),
            records: None,
            pos: 0,
            last: None,
        })
    }

    /// Releases the enclave accounting for the footer (call when the table
    /// is retired).
    pub fn release(&self) {
        self.env.enclave.free_trusted(trusted_footprint(&self.meta));
    }
}

/// An authenticated streaming cursor over one SSTable ([`SsTable::range_cursor`]).
///
/// Yields records in `(user key asc, seq desc)` order starting at the seek
/// key, reading one verified block at a time (through the trusted block
/// cache unless opened uncached). Every block is checked against the
/// sealed fence keys as it is crossed: its first/last record must equal
/// the footer's fences, its records must be sorted, and it must continue
/// strictly after the previous block — so untrusted storage splicing, truncating or
/// reordering any part of a scanned range surfaces as
/// [`StoreError::Integrity`], and the fence chain proves the scan saw
/// *every* record in the range (completeness, not just per-record
/// authenticity).
pub struct TableCursor {
    table: Arc<SsTable>,
    cached: bool,
    next_block: usize,
    start: Vec<u8>,
    records: Option<Arc<Vec<SsRecord>>>,
    pos: usize,
    /// Last `(key, seq)` yielded, for cross-block continuity checks.
    last: Option<(UserKey, SeqNum)>,
}

impl std::fmt::Debug for TableCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCursor")
            .field("file_id", &self.table.meta.file_id)
            .field("next_block", &self.next_block)
            .finish_non_exhaustive()
    }
}

impl TableCursor {
    /// The table's range tombstones (already verified: they ride the
    /// sealed footer).
    pub fn range_tombstones(&self) -> &[RangeTombstone] {
        &self.table.meta.range_tombstones
    }

    /// Loads and verifies the next block, returning `false` at the end of
    /// the table.
    fn load_next_block(&mut self) -> Result<bool> {
        let meta = &self.table.meta;
        if self.next_block >= meta.blocks.len() {
            return Ok(false);
        }
        let block_no = self.next_block;
        let bm = &meta.blocks[block_no];
        let records = if self.cached {
            self.table.read_block(block_no)?
        } else {
            self.table.read_block_uncached(block_no)?
        };
        let fail = |what: &str| {
            Err(StoreError::Integrity(format!(
                "sstable {} block {block_no}: {what} — scanned range spliced or reordered",
                meta.file_id
            )))
        };
        // Content must match the sealed fences exactly.
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            return fail("empty block under non-empty fences");
        };
        if first.key != bm.first_key || last.key != bm.last_key {
            return fail("record keys disagree with sealed fence keys");
        }
        // In-block order: key asc, seq desc within a key.
        for w in records.windows(2) {
            let ordered = w[0].key < w[1].key || (w[0].key == w[1].key && w[0].seq > w[1].seq);
            if !ordered {
                return fail("records out of order");
            }
        }
        // Cross-block continuity: the block must continue strictly after
        // everything already yielded.
        if let Some((lk, ls)) = &self.last {
            let continues = *lk < first.key || (*lk == first.key && *ls > first.seq);
            if !continues {
                return fail("block does not continue the previous block");
            }
        }
        self.records = Some(records);
        self.pos = 0;
        self.next_block += 1;
        Ok(true)
    }

    /// The next record at or after the seek key, or `None` at the end of
    /// the table.
    ///
    /// # Errors
    ///
    /// [`StoreError::Integrity`] when verification fails anywhere in the
    /// scanned range; I/O errors from block reads.
    #[allow(clippy::should_implement_trait)] // fallible: not an `Iterator`
    pub fn next(&mut self) -> Result<Option<SsRecord>> {
        loop {
            if self.records.is_none() && !self.load_next_block()? {
                return Ok(None);
            }
            let Some(records) = self.records.as_ref() else {
                continue; // load_next_block populated it; retry the guard
            };
            while self.pos < records.len() {
                let r = &records[self.pos];
                self.pos += 1;
                if r.key.as_slice() < self.start.as_slice() {
                    continue; // before the seek key inside the first block
                }
                let out = r.clone();
                self.last = Some((out.key.clone(), out.seq));
                return Ok(Some(out));
            }
            self.records = None;
        }
    }
}

/// Enclave-resident bytes pinned by an open table: the block digests plus
/// the Bloom filter.
fn trusted_footprint(meta: &SsTableMeta) -> u64 {
    (meta.blocks.len() * 64) as u64
        + meta
            .filter
            .as_ref()
            .map(|f| f.approx_bytes() as u64)
            .unwrap_or(0)
}

/// Extracts the numeric file id from an `sst-NNNNNN.sst` path.
fn file_id_from_path(path: &Path) -> Result<u64> {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.strip_prefix("sst-"))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| StoreError::Integrity("sstable path does not carry a file id".into()))
}

/// The conventional file name for an SSTable id.
pub fn file_name(file_id: u64) -> String {
    format!("sst-{file_id:06}.sst")
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sim::SecurityProfile;

    fn entries(n: u64) -> Vec<VersionedEntry> {
        (0..n)
            .map(|i| {
                let key = format!("key-{i:05}").into_bytes();
                if i % 7 == 3 {
                    (key, i + 1, None) // tombstone
                } else {
                    (
                        key,
                        i + 1,
                        Some(format!("value-{i}-{}", "x".repeat(50)).into_bytes()),
                    )
                }
            })
            .collect()
    }

    fn build_one(
        profile: SecurityProfile,
        n: u64,
    ) -> Result<(tempfile::TempDir, Arc<Env>, Arc<SsTable>)> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(profile, dir.path());
        let path = dir.path().join(file_name(1));
        build(&env, &path, 1, &entries(n), &[])?;
        let table = Arc::new(SsTable::open(Arc::clone(&env), &path)?);
        Ok((dir, env, table))
    }

    /// Collects a cursor to exhaustion.
    fn drain(t: &Arc<SsTable>, start: &[u8], cached: bool) -> Result<Vec<SsRecord>> {
        let mut cur = t.range_cursor(start, cached)?;
        let mut out = Vec::new();
        while let Some(r) = cur.next()? {
            out.push(r);
        }
        Ok(out)
    }

    #[test]
    fn build_open_get_roundtrip_all_profiles() -> Result<()> {
        for profile in SecurityProfile::single_node_lineup() {
            let (_d, _e, t) = build_one(profile, 200)?;
            assert_eq!(t.meta().entries, 200);
            assert!(
                t.meta().blocks.len() > 1,
                "{profile:?}: want multiple blocks"
            );
            let v = t.get(b"key-00011", SeqNum::MAX)?;
            assert_eq!(
                v,
                Some(Some(format!("value-11-{}", "x".repeat(50)).into_bytes()))
            );
            // Tombstone.
            assert_eq!(t.get(b"key-00003", SeqNum::MAX)?, Some(None));
            // Missing.
            assert_eq!(t.get(b"key-99999", SeqNum::MAX)?, None);
            assert_eq!(t.get(b"aaaa", SeqNum::MAX)?, None);
        }
        Ok(())
    }

    #[test]
    fn snapshot_filters_versions() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let path = dir.path().join(file_name(2));
        let rows = vec![
            (b"k".to_vec(), 9, Some(b"v9".to_vec())),
            (b"k".to_vec(), 5, Some(b"v5".to_vec())),
            (b"k".to_vec(), 1, Some(b"v1".to_vec())),
        ];
        build(&env, &path, 2, &rows, &[])?;
        let t = SsTable::open(env, &path)?;
        assert_eq!(t.get(b"k", SeqNum::MAX)?, Some(Some(b"v9".to_vec())));
        assert_eq!(t.get(b"k", 6)?, Some(Some(b"v5".to_vec())));
        assert_eq!(t.get(b"k", 4)?, Some(Some(b"v1".to_vec())));
        assert_eq!(t.get(b"k", 0)?, None);
        assert_eq!(t.latest_seq_of(b"k")?, Some(9));
        Ok(())
    }

    #[test]
    fn encrypted_table_hides_keys_and_values() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::treaty_enc(), 50)?;
        let raw = std::fs::read(t.path())?;
        assert!(!raw.windows(9).any(|w| w == b"key-00010"));
        assert!(!raw.windows(8).any(|w| w == b"value-10"));
        Ok(())
    }

    #[test]
    fn tampered_block_detected() -> Result<()> {
        for profile in [
            SecurityProfile::treaty_no_enc(),
            SecurityProfile::treaty_enc(),
        ] {
            let (_d, _e, t) = build_one(profile, 100)?;
            let mut raw = std::fs::read(t.path())?;
            raw[10] ^= 0x01; // inside block 0
            std::fs::write(t.path(), &raw)?;
            let err = t.get(b"key-00000", SeqNum::MAX).unwrap_err();
            assert!(matches!(err, StoreError::Integrity(_)), "{profile:?}");
        }
        Ok(())
    }

    #[test]
    fn tampered_footer_detected_at_open() -> Result<()> {
        let (_d, env, t) = build_one(SecurityProfile::treaty_full(), 100)?;
        let mut raw = std::fs::read(t.path())?;
        let mid = raw.len() - 100; // inside the sealed meta
        raw[mid] ^= 0x01;
        std::fs::write(t.path(), &raw)?;
        let err = SsTable::open(env, t.path()).unwrap_err();
        assert!(matches!(err, StoreError::Integrity(_)));
        Ok(())
    }

    #[test]
    fn baseline_profile_accepts_tampering() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::rocksdb(), 100)?;
        let mut raw = std::fs::read(t.path())?;
        raw[10] ^= 0x01;
        std::fs::write(t.path(), &raw)?;
        // No authentication: the corrupted data is served or misparsed,
        // but no *detection* happens. (Exactly the baseline's weakness.)
        let _ = t.get(b"key-00000", SeqNum::MAX);
        Ok(())
    }

    #[test]
    fn cursor_returns_everything_in_order() -> Result<()> {
        let (_d, env, t) = build_one(SecurityProfile::treaty_full(), 150)?;
        let all = drain(&t, b"", true)?;
        assert_eq!(all.len(), 150);
        let mut sorted = all.clone();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(all, sorted);
        // Opened uncached (a compaction input): the same records, and no
        // block-cache traffic.
        let cache = env
            .block_cache
            .as_ref()
            .ok_or_else(|| StoreError::Io("tiny config enables the cache".into()))?;
        let traffic = cache.hits() + cache.misses();
        assert_eq!(drain(&t, b"", false)?, all);
        assert_eq!(cache.hits() + cache.misses(), traffic);
        Ok(())
    }

    #[test]
    fn cursor_seeks_via_fence_keys_without_reading_earlier_blocks() -> Result<()> {
        let (_d, env, t) = build_one(SecurityProfile::treaty_full(), 200)?;
        assert!(t.meta().blocks.len() >= 3, "need a multi-block table");
        let cache = env
            .block_cache
            .as_ref()
            .ok_or_else(|| StoreError::Io("tiny config enables the cache".into()))?;
        let (h0, m0) = (cache.hits(), cache.misses());
        // Seek into the last block: only the blocks from the seek point on
        // may be read.
        let start = t
            .meta()
            .blocks
            .last()
            .ok_or_else(|| StoreError::Io("multi-block table expected".into()))?
            .first_key
            .clone();
        let got = drain(&t, &start, true)?;
        assert!(!got.is_empty());
        assert!(got.iter().all(|r| r.key.as_slice() >= start.as_slice()));
        let blocks_read = (cache.hits() - h0) + (cache.misses() - m0);
        assert_eq!(
            blocks_read, 1,
            "fence seek must skip every block before the range"
        );
        Ok(())
    }

    #[test]
    fn cursor_mid_block_seek_skips_records_before_start() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::treaty_full(), 60)?;
        let got = drain(&t, b"key-00031", true)?;
        assert_eq!(
            got.first().map(|r| r.key.clone()),
            Some(b"key-00031".to_vec())
        );
        assert_eq!(got.len(), 60 - 31);
        Ok(())
    }

    #[test]
    fn cursor_past_end_is_empty() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::treaty_full(), 20)?;
        assert!(drain(&t, b"zzz", true)?.is_empty());
        Ok(())
    }

    // ---- fence-boundary regression tests (covers / candidate_blocks) ----

    /// Builds a table with explicit rows and returns it.
    fn build_rows(rows: &[VersionedEntry]) -> Result<(tempfile::TempDir, Arc<Env>, Arc<SsTable>)> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let path = dir.path().join(file_name(1));
        build(&env, &path, 1, rows, &[])?;
        let table = Arc::new(SsTable::open(Arc::clone(&env), &path)?);
        Ok((dir, env, table))
    }

    #[test]
    fn fence_boundary_first_and_last_key_of_each_block() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::treaty_full(), 200)?;
        assert!(t.meta().blocks.len() >= 3);
        for bm in &t.meta().blocks {
            // key == block first_key and key == block last_key must both
            // resolve through candidate_blocks to a real hit.
            for key in [&bm.first_key, &bm.last_key] {
                assert!(
                    t.get(key, SeqNum::MAX)?.is_some(),
                    "fence key {:?} must be found",
                    String::from_utf8_lossy(key)
                );
            }
        }
        Ok(())
    }

    #[test]
    fn fence_boundary_version_run_spanning_three_blocks() -> Result<()> {
        // One hot key with enough versions to fill 3+ blocks, plus
        // neighbors on both sides. All versions must be visited.
        let pad = "p".repeat(300);
        let mut rows = vec![(b"a-before".to_vec(), 1, Some(b"x".to_vec()))];
        let versions = 40u64;
        for i in 0..versions {
            let seq = 1000 - i; // seq desc within the key
            rows.push((
                b"hot".to_vec(),
                seq,
                Some(format!("{pad}{seq}").into_bytes()),
            ));
        }
        rows.push((b"z-after".to_vec(), 1, Some(b"y".to_vec())));
        let (_d, _e, t) = build_rows(&rows)?;
        assert!(
            t.meta().blocks.len() >= 3,
            "run must straddle >=3 blocks, got {}",
            t.meta().blocks.len()
        );
        let mut seen = 0;
        t.probe_key(b"hot", |_| seen += 1)?;
        assert_eq!(
            seen, versions,
            "every version across the run must be visited"
        );
        // Newest version wins at snapshot MAX; oldest at its own seq.
        assert_eq!(
            t.get(b"hot", SeqNum::MAX)?,
            Some(Some(format!("{pad}1000").into_bytes()))
        );
        assert_eq!(
            t.get(b"hot", 1000 - versions + 1)?,
            Some(Some(format!("{pad}{}", 1000 - versions + 1).into_bytes()))
        );
        assert_eq!(t.latest_seq_of(b"hot")?, Some(1000));
        Ok(())
    }

    #[test]
    fn fence_boundary_single_block_table() -> Result<()> {
        let rows = vec![
            (b"b".to_vec(), 2, Some(b"vb".to_vec())),
            (b"d".to_vec(), 1, Some(b"vd".to_vec())),
        ];
        let (_d, _e, t) = build_rows(&rows)?;
        assert_eq!(t.meta().blocks.len(), 1);
        assert_eq!(t.get(b"b", SeqNum::MAX)?, Some(Some(b"vb".to_vec())));
        assert_eq!(t.get(b"d", SeqNum::MAX)?, Some(Some(b"vd".to_vec())));
        // In-range gap key and out-of-range keys.
        assert_eq!(t.get(b"c", SeqNum::MAX)?, None);
        assert_eq!(t.get(b"a", SeqNum::MAX)?, None);
        assert_eq!(t.get(b"e", SeqNum::MAX)?, None);
        Ok(())
    }

    #[test]
    fn fence_gap_key_rejected_without_block_read_or_fp_charge() -> Result<()> {
        // Force a key that covers() accepts, the Bloom filter cannot
        // reject (filters disabled), and candidate_blocks proves absent
        // via the fences: must count as a gap reject, not a Bloom FP,
        // with zero block reads.
        let dir = tempfile::tempdir()?;
        let mut config = crate::env::EngineConfig::tiny();
        config.bloom_bits_per_key = 0;
        let env = Env::for_testing_with(SecurityProfile::treaty_full(), dir.path(), config);
        let path = dir.path().join(file_name(1));
        build(&env, &path, 1, &entries(200), &[])?;
        let t = Arc::new(SsTable::open(Arc::clone(&env), &path)?);
        assert!(t.meta().blocks.len() >= 2);
        // A key strictly between block 0's last key and block 1's first
        // key: append a suffix to the former.
        let mut gap_key = t.meta().blocks[0].last_key.clone();
        gap_key.push(b'!');
        assert!(
            gap_key < t.meta().blocks[1].first_key,
            "gap key must fall between blocks"
        );
        let cache = env
            .block_cache
            .as_ref()
            .ok_or_else(|| StoreError::Io("tiny config enables the cache".into()))?;
        let (h0, m0) = (cache.hits(), cache.misses());
        assert_eq!(t.get(&gap_key, SeqNum::MAX)?, None);
        assert_eq!(
            cache.hits() - h0 + cache.misses() - m0,
            0,
            "gap reject must read no blocks"
        );
        assert_eq!(env.stats.fence_gap_rejects.load(Ordering::Relaxed), 1);
        assert_eq!(env.stats.bloom_false_positives.load(Ordering::Relaxed), 0);
        Ok(())
    }

    #[test]
    fn bloom_false_positive_charged_only_after_a_real_block_read() -> Result<()> {
        // With filters on, keep probing absent in-gap keys until the
        // filter passes one (a true FP candidate); the fences then reject
        // it with zero I/O, and it must count as a gap reject — never an
        // FP, because no block was read.
        let (_d, env, t) = build_one(SecurityProfile::treaty_full(), 200)?;
        for i in 0..500u32 {
            let mut key = t.meta().blocks[0].last_key.clone();
            key.extend_from_slice(format!("!{i}").as_bytes());
            if key >= t.meta().blocks[1].first_key {
                continue;
            }
            assert_eq!(t.get(&key, SeqNum::MAX)?, None);
        }
        assert_eq!(
            env.stats.bloom_false_positives.load(Ordering::Relaxed),
            0,
            "fence-gap rejects must never be charged as Bloom false positives"
        );
        Ok(())
    }

    // ---- tamper tests: splice / truncate / reorder a scanned range ----

    #[test]
    fn truncated_table_detected_by_cursor() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::treaty_full(), 150)?;
        // Chop the file after block 0: the footer (already pinned in the
        // enclave) says more blocks exist, so the scan must fail with an
        // integrity error, not silently end early.
        let cut = t.meta().blocks[1].offset as usize;
        let raw = std::fs::read(t.path())?;
        std::fs::write(t.path(), &raw[..cut])?;
        let mut cur = t.range_cursor(b"", true)?;
        let err = loop {
            match cur.next() {
                Ok(Some(_)) => continue,
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        assert!(
            matches!(err, Some(StoreError::Integrity(_))),
            "truncated scan must fail with Integrity, got {err:?}"
        );
        Ok(())
    }

    #[test]
    fn spliced_blocks_detected_by_cursor() -> Result<()> {
        // Swap the stored bytes of blocks 0 and 1 on disk (a reorder /
        // splice of the scanned range). Under encryption the nonce/AAD
        // bind each block to its number, so the swap fails decryption.
        for profile in [
            SecurityProfile::treaty_enc(),
            SecurityProfile::treaty_no_enc(),
        ] {
            let (_d, _e, t) = build_one(profile, 150)?;
            let b0 = t.meta().blocks[0].clone();
            let b1 = t.meta().blocks[1].clone();
            let raw = std::fs::read(t.path())?;
            let mut tampered = raw.clone();
            let s0 = b0.offset as usize..(b0.offset + b0.len as u64) as usize;
            let s1 = b1.offset as usize..(b1.offset + b1.len as u64) as usize;
            // Equal-size swap is not guaranteed; graft block 1's bytes over
            // block 0's slot (truncating/padding) — any mismatch must trip.
            let graft: Vec<u8> = raw[s1.clone()]
                .iter()
                .copied()
                .chain(std::iter::repeat(0))
                .take(s0.len())
                .collect();
            tampered[s0].copy_from_slice(&graft);
            std::fs::write(t.path(), &tampered)?;
            let mut cur = t.range_cursor(b"", true)?;
            let err = loop {
                match cur.next() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            assert!(
                matches!(err, Some(StoreError::Integrity(_))),
                "{profile:?}: spliced scan must fail with Integrity, got {err:?}"
            );
        }
        Ok(())
    }

    #[test]
    fn bitflip_inside_scanned_range_detected_by_cursor() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::treaty_full(), 150)?;
        let b1 = t.meta().blocks[1].clone();
        let mut raw = std::fs::read(t.path())?;
        raw[b1.offset as usize + 4] ^= 0x01;
        std::fs::write(t.path(), &raw)?;
        let mut cur = t.range_cursor(b"", true)?;
        let err = loop {
            match cur.next() {
                Ok(Some(_)) => continue,
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        assert!(
            matches!(err, Some(StoreError::Integrity(_))),
            "tampered scan must fail with Integrity, got {err:?}"
        );
        Ok(())
    }

    #[test]
    fn range_tombstones_ride_the_sealed_footer() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(SecurityProfile::treaty_no_enc(), dir.path());
        let path = dir.path().join(file_name(1));
        let rts = vec![RangeTombstone {
            start: b"key-00010".to_vec(),
            end: b"key-00020".to_vec(),
            seq: 777,
        }];
        build(&env, &path, 1, &entries(30), &rts)?;
        let t = SsTable::open(Arc::clone(&env), &path)?;
        assert_eq!(t.meta().range_tombstones, rts);
        assert_eq!(t.meta().max_seq, 777);

        // Moving the tombstone in the footer must fail verification at
        // open: authentication-only mode stores the footer in clear,
        // pinned by an HMAC, so its encoding is findable on disk.
        let raw = std::fs::read(&path)?;
        let mut w = Writer::new();
        rts[0].encode(&mut w);
        let needle = w.into_vec();
        let pos = raw
            .windows(needle.len())
            .position(|w| w == needle)
            .ok_or_else(|| StoreError::Integrity("footer must hold the tombstones".into()))?;
        let mut tampered = raw.clone();
        tampered[pos + needle.len() - 8] ^= 0x01; // the tombstone's seq
        std::fs::write(&path, &tampered)?;
        let err = SsTable::open(env, &path).unwrap_err();
        assert!(matches!(err, StoreError::Integrity(_)));
        Ok(())
    }

    #[test]
    fn tombstone_only_table_builds_and_covers_its_range() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let path = dir.path().join(file_name(1));
        let rts = vec![RangeTombstone {
            start: b"a".to_vec(),
            end: b"m".to_vec(),
            seq: 5,
        }];
        build(&env, &path, 1, &[], &rts)?;
        let t = Arc::new(SsTable::open(Arc::clone(&env), &path)?);
        assert_eq!(t.meta().entries, 0);
        assert!(t.covers(b"b"));
        assert!(!t.covers(b"z"));
        assert!(drain(&t, b"", true)?.is_empty());
        assert_eq!(
            t.range_cursor(b"", true)?.range_tombstones(),
            rts.as_slice()
        );
        Ok(())
    }

    #[test]
    fn covers_respects_key_range() -> Result<()> {
        let (_d, _e, t) = build_one(SecurityProfile::treaty_full(), 10)?;
        assert!(t.covers(b"key-00000"));
        assert!(t.covers(b"key-00009"));
        assert!(!t.covers(b"key-99999"));
        assert!(!t.covers(b"a"));
        Ok(())
    }

    #[test]
    fn tampered_filter_bytes_detected() -> Result<()> {
        // Authentication-only mode stores the footer in clear, pinned by
        // an HMAC, so the encoded filter is findable on disk. Flipping one
        // of its bits must fail verification at open: the filter is
        // integrity-covered exactly like the block digests.
        let (_d, env, t) = build_one(SecurityProfile::treaty_no_enc(), 100)?;
        let mut raw = std::fs::read(t.path())?;
        let mut w = Writer::new();
        t.meta().filter.encode(&mut w);
        let needle = w.into_vec();
        let pos = raw
            .windows(needle.len())
            .position(|w| w == needle)
            .ok_or_else(|| StoreError::Integrity("footer must hold the encoded filter".into()))?;
        raw[pos + needle.len() / 2] ^= 0x01; // inside the filter's bit array
        std::fs::write(t.path(), &raw)?;
        let err = SsTable::open(env, t.path()).unwrap_err();
        assert!(matches!(err, StoreError::Integrity(_)));
        Ok(())
    }

    #[test]
    fn bloom_negative_skips_block_reads() -> Result<()> {
        let (_d, env, t) = build_one(SecurityProfile::treaty_full(), 200)?;
        let cache = env
            .block_cache
            .as_ref()
            .ok_or_else(|| StoreError::Io("tiny config enables the cache".into()))?;
        let (h0, m0) = (cache.hits(), cache.misses());
        for i in 0..50 {
            // In the table's key range but never inserted.
            let key = format!("key-00{i:03}x").into_bytes();
            assert_eq!(t.get(&key, SeqNum::MAX)?, None);
        }
        assert!(
            env.stats.bloom_negatives.load(Ordering::Relaxed) >= 40,
            "most absent-key probes must be filtered: {}",
            env.stats.bloom_negatives.load(Ordering::Relaxed)
        );
        // Only Bloom false positives reach the block-read path at all.
        let blocks_read = (cache.hits() - h0) + (cache.misses() - m0);
        assert!(
            blocks_read <= 10,
            "filtered probes must not read blocks ({blocks_read} reads for 50 probes)"
        );
        Ok(())
    }

    /// Body of `cache_hit_charges_less_than_miss`, split out so the fiber
    /// closure can propagate errors instead of panicking.
    fn cache_probe(path_buf: &Path) -> Result<()> {
        let env = Env::for_testing(SecurityProfile::treaty_full(), path_buf);
        let path = path_buf.join(file_name(1));
        build(&env, &path, 1, &entries(100), &[])?;
        let t = SsTable::open(Arc::clone(&env), &path)?;
        let t0 = treaty_sim::runtime::now();
        assert!(t.get(b"key-00010", SeqNum::MAX)?.is_some());
        let miss_ns = treaty_sim::runtime::now() - t0;
        let t1 = treaty_sim::runtime::now();
        assert!(t.get(b"key-00010", SeqNum::MAX)?.is_some());
        let hit_ns = treaty_sim::runtime::now() - t1;
        let cache = env
            .block_cache
            .as_ref()
            .ok_or_else(|| StoreError::Io("tiny config enables the cache".into()))?;
        assert!(cache.hits() >= 1 && cache.misses() >= 1);
        assert!(
            hit_ns < miss_ns,
            "a cache hit ({hit_ns} ns) must charge strictly less than the miss path ({miss_ns} ns)"
        );
        Ok(())
    }

    #[test]
    fn cache_hit_charges_less_than_miss() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let path_buf = dir.path().to_path_buf();
        let res = Arc::new(parking_lot::Mutex::new(None));
        let res2 = Arc::clone(&res);
        treaty_sched::block_on(move || {
            *res2.lock() = Some(cache_probe(&path_buf));
        });
        let taken = res.lock().take();
        taken.ok_or_else(|| StoreError::Io("probe never ran".into()))?
    }

    #[test]
    fn disabling_the_cache_still_reads_correctly() -> Result<()> {
        let dir = tempfile::tempdir()?;
        let mut config = crate::env::EngineConfig::tiny();
        config.block_cache_bytes = 0;
        config.bloom_bits_per_key = 0;
        let env = Env::for_testing_with(SecurityProfile::treaty_full(), dir.path(), config);
        assert!(env.block_cache.is_none());
        let path = dir.path().join(file_name(1));
        build(&env, &path, 1, &entries(50), &[])?;
        let t = SsTable::open(Arc::clone(&env), &path)?;
        assert!(t.meta().filter.is_none());
        let v = t.get(b"key-00011", SeqNum::MAX)?;
        assert_eq!(
            v,
            Some(Some(format!("value-11-{}", "x".repeat(50)).into_bytes()))
        );
        Ok(())
    }

    #[test]
    fn wrong_file_name_rejected() -> Result<()> {
        let (_d, env, t) = build_one(SecurityProfile::treaty_full(), 10)?;
        let renamed = t.path().with_file_name(file_name(999));
        std::fs::rename(t.path(), &renamed)?;
        // The adversary renamed sst-000001 to sst-000999 (e.g. to swap
        // tables): open must fail because the sealed meta pins the id.
        let err = SsTable::open(env, &renamed).unwrap_err();
        assert!(matches!(err, StoreError::Integrity(_)));
        Ok(())
    }
}
