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
//! Each block holds sorted `(key, seq, value?)` records. A table's
//! [`Sealer`] has the nonces `file_id ‖ block_no`, and seals each block as
//! its block number with its nonce as AAD: under encryption a block is
//! AES-GCM sealed; under authentication-only its HMAC lives in the meta
//! footer. The meta footer itself is sealed the same way, as block
//! `u32::MAX`, and its digests are loaded *into the enclave* at open so
//! every subsequent block read can be verified against trusted state.
//!
//! Host I/O goes through the store's [`treaty_sim::disk::Disk`]: a build
//! writes the whole file through one buffer and syncs it once; an open
//! table holds the one descriptor it opened, and reads each block with one
//! positioned read. Holding it weakens no check: every block is still
//! verified against its AEAD tag (nonce and AAD bound to `file_id` and
//! `block_no`) or the sealed footer's digest, and file ids are never
//! reused.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use treaty_crypto::codec;
use treaty_crypto::codec::Record;
use treaty_crypto::{Protection, Sealer};
use treaty_sim::disk::Reader;
use treaty_tee::HostBytes;

use crate::bloom::BloomFilter;
use crate::cache::approx_records_bytes;
use crate::env::Env;
use crate::memtable::{RangeTombstone, SeqNum, UserKey, VersionedEntry};
use crate::{Check, Result, StoreError, Stored};

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

codec!(struct BlockMeta { offset, len, first_key, last_key, digest });

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

codec!(struct SsTableMeta {
    file_id,
    blocks,
    min_key,
    max_key,
    max_seq,
    entries,
    filter,
    range_tombstones,
});

impl Record for SsTableMeta {
    const MAGIC: u8 = 0x51;
}

/// Table `file_id`'s [`Sealer`]: the storage key, and nonces
/// `file_id ‖ block_no`.
fn table_sealer(env: &Rc<Env>, file_id: u64) -> Sealer {
    env.sealer(env.keys.storage, file_id.to_le_bytes())
}

/// Block `block_no` of table `file_id` failed `check`; the meta block is
/// the table's footer.
fn breach(file_id: u64, block_no: u32, check: Check) -> StoreError {
    let object = match block_no {
        META_BLOCK_NO => Stored::TableMeta { file_id },
        _ => Stored::TableBlock { file_id, block_no },
    };
    StoreError::integrity(object, check)
}

/// Protects one block for untrusted storage, returning the stored bytes
/// (as boundary-typed [`HostBytes`]) plus its footer digest: zeros where
/// the GCM tag covers the block, else its tag over its place and its bytes.
fn protect_block(
    sealer: &Sealer,
    file_id: u64,
    block_no: u32,
    plain: Vec<u8>,
) -> Result<(HostBytes, [u8; 32])> {
    // A block's nonce binds it to its place: it is also the block's AAD,
    // and the first part of its tag where it is not sealed.
    let place = sealer.nonce(block_no.into());
    let sealed = sealer
        .seal(block_no.into(), &place, &plain)
        .map_err(|_| breach(file_id, block_no, Check::NonceReuse))?;
    Ok(match sealed {
        Some(ct) => (HostBytes::from_ciphertext(ct), [0u8; 32]),
        // Unencrypted profiles store cleartext blocks by design; integrity
        // comes from the footer HMAC the enclave pins at open (the "w/o
        // Enc" ablation) or from nothing (native baseline).
        None => {
            let digest = sealer.tag(&[&place, &plain]);
            let stored =
                HostBytes::declassified(plain, "sstable block under a no-encryption profile");
            (stored, digest)
        }
    })
}

fn open_block(
    sealer: &Sealer,
    file_id: u64,
    block_no: u32,
    stored: Vec<u8>,
    digest: &[u8; 32],
) -> Result<Vec<u8>> {
    let failed = |_| breach(file_id, block_no, Check::Tag);
    let place = sealer.nonce(block_no.into());
    // A block the Sealer does not seal carries its tag in the footer.
    if sealer.mode() != Protection::Full {
        sealer.check(&[&place, &stored], digest).map_err(failed)?;
    }
    sealer.open(block_no.into(), &place, stored).map_err(failed)
}

/// One record inside a block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SsRecord {
    /// User key.
    pub key: UserKey,
    /// Version.
    pub seq: SeqNum,
    /// `None` is a tombstone.
    pub value: Option<Vec<u8>>,
}

/// Bytes a record adds to its block: the key, the value and 17 bytes of
/// framing and seq. A block closes once it holds `block_bytes` of these.
fn record_bytes((key, _, value): &VersionedEntry) -> usize {
    key.len() + value.as_ref().map(|v| v.len()).unwrap_or(0) + 17
}

/// One block's plaintext, encoded straight from the build's entries.
fn encode_block(entries: &[VersionedEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.iter().map(record_bytes).sum());
    for (key, seq, value) in entries {
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(&seq.to_le_bytes());
        match value {
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

/// One block's records; `None` where its plaintext does not decode.
fn decode_records(mut buf: &[u8]) -> Option<Vec<SsRecord>> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        let klen = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?) as usize;
        buf = &buf[4..];
        if buf.len() < klen + 13 {
            return None;
        }
        let key = buf[..klen].to_vec();
        let seq = u64::from_le_bytes(buf[klen..klen + 8].try_into().ok()?);
        let kind = buf[klen + 8];
        let vlen = u32::from_le_bytes(buf[klen + 9..klen + 13].try_into().ok()?) as usize;
        buf = &buf[klen + 13..];
        let value = buf.get(..vlen)?;
        let value = (kind == 1).then(|| value.to_vec());
        buf = &buf[vlen..];
        out.push(SsRecord { key, seq, value });
    }
    Some(out)
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
    env: &Rc<Env>,
    path: &Path,
    file_id: u64,
    entries: &[VersionedEntry],
    range_tombstones: &[RangeTombstone],
) -> Result<SsTableMeta> {
    assert!(
        !entries.is_empty() || !range_tombstones.is_empty(),
        "cannot build an empty sstable"
    );
    let mut file = env.disk().writer(path)?;
    let sealer = table_sealer(env, file_id);
    let mut blocks = Vec::new();
    let mut offset = 0u64;
    let mut max_seq = 0;

    let mut write_block = |records: &[VersionedEntry]| -> Result<()> {
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            return Ok(());
        };
        let block_no = blocks.len() as u32;
        let (stored, digest) = protect_block(&sealer, file_id, block_no, encode_block(records))?;
        file.write(stored.as_slice())?;
        blocks.push(BlockMeta {
            offset,
            len: stored.len() as u32,
            first_key: first.0.clone(),
            last_key: last.0.clone(),
            digest,
        });
        offset += stored.len() as u64;
        Ok(())
    };

    let mut block_start = 0;
    let mut pending_bytes = 0usize;
    for (i, entry) in entries.iter().enumerate() {
        max_seq = max_seq.max(entry.1);
        pending_bytes += record_bytes(entry);
        if pending_bytes >= env.config.block_bytes {
            write_block(&entries[block_start..=i])?;
            block_start = i + 1;
            pending_bytes = 0;
        }
    }
    write_block(&entries[block_start..])?;

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
        entries: entries.len() as u64,
        filter,
        range_tombstones: range_tombstones.to_vec(),
    };

    let (meta_stored, meta_digest) =
        protect_block(&sealer, file_id, META_BLOCK_NO, meta.to_bytes())?;
    file.write(meta_stored.as_slice())?;
    file.write(&meta_digest)?;
    file.write(&(meta_stored.len() as u64).to_le_bytes())?;
    file.write(&MAGIC.to_le_bytes())?;
    // Writing the table costs one sequential SSD write of its full size.
    file.finish()?;
    Ok(meta)
}

/// An open, verifiable SSTable.
pub struct SsTable {
    env: Rc<Env>,
    path: PathBuf,
    /// The descriptor opened at [`SsTable::open`], held until the table
    /// drops: every block read is one positioned read on it. A table that
    /// garbage collection unlinked stays readable for the cursors that
    /// still hold it.
    file: Reader,
    meta: SsTableMeta,
    /// Opens the table's blocks; it seals none.
    sealer: Sealer,
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
    /// Opens table `file_id` in the store's directory, verifying and
    /// loading its meta footer into the enclave.
    ///
    /// # Errors
    ///
    /// [`StoreError::Integrity`] naming the footer if it is malformed or
    /// fails verification; [`StoreError::Io`] on read failure.
    pub fn open(env: Rc<Env>, file_id: u64) -> Result<Self> {
        let path = env.dir.join(file_name(file_id));
        let failed = |check| breach(file_id, META_BLOCK_NO, check);
        let file = env.disk().reader(&path)?;
        let file_len = file.size();
        if file_len < 48 {
            return Err(failed(Check::Truncated));
        }
        // The meta's digest, its length and the magic, then the meta.
        let tail = file.tail::<48>()?;
        let meta_digest: [u8; 32] = std::array::from_fn(|i| tail[i]);
        let [meta_len, magic] =
            [32, 40].map(|at| u64::from_le_bytes(std::array::from_fn(|i| tail[at + i])));
        if magic != MAGIC || meta_len > file_len - 48 {
            return Err(failed(Check::Decode));
        }
        let footer = file.read_at(file_len - 48 - meta_len, meta_len as usize)?;

        // The meta is sealed under its table's id, and must carry it.
        let sealer = table_sealer(&env, file_id);
        let meta_plain = open_block(&sealer, file_id, META_BLOCK_NO, footer, &meta_digest)?;
        let meta = SsTableMeta::from_bytes(&meta_plain).map_err(|_| failed(Check::Decode))?;
        if meta.file_id != file_id {
            return Err(failed(Check::Misplaced));
        }
        // Fence monotonicity over the whole index, checked once with the
        // seal: adjacent blocks must not overlap beyond sharing a
        // straddling version run's key, and each block's own fences must be
        // ordered. The fences are sealed in the footer, so a failure here
        // means the enclave's own view is corrupt — fail loudly. Cursors
        // and point reads then trust the fences as lower bounds.
        for (i, bm) in meta.blocks.iter().enumerate() {
            if bm.first_key > bm.last_key || (i > 0 && meta.blocks[i - 1].last_key > bm.first_key) {
                return Err(failed(Check::FenceOrder));
            }
        }
        // Footer digests and the Bloom filter now live in trusted memory.
        env.enclave.alloc_trusted(trusted_footprint(&meta));
        Ok(SsTable {
            env,
            path,
            file,
            meta,
            sealer,
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
        self.file.size()
    }

    /// True if `key` falls inside this table's key range: from `min_key`
    /// up to `max_key`, which is in range when it is an entry's key and
    /// out of it when it is the (exclusive) end of a range tombstone
    /// reaching past every entry. Compaction cuts its outputs between two
    /// keys, and an output's tombstone fragments end at the next output's
    /// first key, so only the exact bound keeps the outputs disjoint.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.meta.min_key.as_slice() <= key && self.ends_after(key)
    }

    /// True if this table's key range and `other`'s share a key, each
    /// range read as [`SsTable::covers`] reads it.
    pub fn overlaps(&self, other: &SsTable) -> bool {
        self.ends_after(&other.meta.min_key) && other.ends_after(&self.meta.min_key)
    }

    /// True if `key` is at or below this table's upper bound.
    fn ends_after(&self, key: &[u8]) -> bool {
        match key.cmp(&self.meta.max_key) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => self
                .meta
                .blocks
                .last()
                .is_some_and(|b| b.last_key == self.meta.max_key),
            std::cmp::Ordering::Greater => false,
        }
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
    fn read_block(&self, block_no: usize) -> Result<Rc<Vec<SsRecord>>> {
        let Some(cache) = &self.env.block_cache else {
            return self.read_block_uncached(block_no);
        };
        if let Some(records) = cache.get(self.meta.file_id, block_no as u32) {
            self.env
                .charge_cache_hit(approx_records_bytes(&records) as usize);
            return Ok(records);
        }
        let records = self.read_block_uncached(block_no)?;
        cache.insert(self.meta.file_id, block_no as u32, Rc::clone(&records));
        Ok(records)
    }

    /// Reads and verifies one block directly from untrusted storage. A
    /// short read (the file was truncated under us) is an integrity
    /// failure, not an I/O error: the sealed footer says the block exists.
    fn read_block_uncached(&self, block_no: usize) -> Result<Rc<Vec<SsRecord>>> {
        let bm = &self.meta.blocks[block_no];
        let (file_id, block_no) = (self.meta.file_id, block_no as u32);
        let failed = |check| breach(file_id, block_no, check);
        let stored = self
            .file
            .read_at(bm.offset, bm.len as usize)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => failed(Check::Truncated),
                _ => e.into(),
            })?;
        let plain = open_block(&self.sealer, file_id, block_no, stored, &bm.digest)?;
        decode_records(&plain)
            .map(Rc::new)
            .ok_or_else(|| failed(Check::Decode))
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
                    self.env.stats.borrow_mut().bloom_negatives += 1;
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
            self.env.stats.borrow_mut().fence_gap_rejects += 1;
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
            self.env.stats.borrow_mut().bloom_false_positives += 1;
        }
        Ok(())
    }

    /// The one point lookup: the newest version of `key` visible at
    /// `snapshot` with its seq (`None` value = tombstone), which the
    /// engine's descent weighs against range tombstones. `None` = this
    /// table holds no visible version.
    ///
    /// # Errors
    ///
    /// Propagates integrity/IO failures from block reads.
    pub fn newest(
        &self,
        key: &[u8],
        snapshot: SeqNum,
    ) -> Result<Option<(SeqNum, Option<Vec<u8>>)>> {
        let mut best: Option<(SeqNum, Option<Vec<u8>>)> = None;
        self.probe_key(key, |r| {
            if r.seq <= snapshot && best.as_ref().is_none_or(|(s, _)| r.seq > *s) {
                best = Some((r.seq, r.value.clone()));
            }
        })?;
        Ok(best)
    }

    /// Opens an authenticated streaming cursor over `[start, ..)`. Opening
    /// reads nothing: the cursor seeks by the sealed fence keys (checked
    /// at [`SsTable::open`]) when it first reads, no block before the
    /// first candidate is read, and only one block is enclave-resident at a
    /// time. `cached` routes block reads through the trusted block cache;
    /// compaction passes `false` because its inputs are about to be
    /// retired and would only evict hot entries.
    pub fn range_cursor(self: &Rc<Self>, start: &[u8], cached: bool) -> TableCursor {
        // First block whose last_key >= start: earlier blocks end strictly
        // before the range and can be skipped without reading them.
        let block = self
            .meta
            .blocks
            .partition_point(|b| b.last_key.as_slice() < start);
        TableCursor {
            table: Rc::clone(self),
            cached,
            next_block: block,
            start: start.to_vec(),
            records: None,
            pos: 0,
            last: None,
        }
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
/// authenticity). A block is read only when [`TableCursor::next`] needs
/// it; until then [`TableCursor::bound`] answers from the sealed fences.
pub struct TableCursor {
    table: Rc<SsTable>,
    cached: bool,
    next_block: usize,
    start: Vec<u8>,
    records: Option<Rc<Vec<SsRecord>>>,
    pos: usize,
    /// `(key, seq)` of the last record of the last block yielded to its
    /// end: what the next block must continue strictly after.
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

    /// A lower bound on the key of the next record [`TableCursor::next`]
    /// yields, with no I/O: the next record of the block in hand, else the
    /// sealed `first_key` of the next unread block (which the block must
    /// match when it is read), clamped to the seek key. `None` when no
    /// record is left.
    pub fn bound(&self) -> Option<&[u8]> {
        let next = match &self.records {
            Some(records) if self.pos < records.len() => &records[self.pos].key,
            _ => &self.table.meta.blocks.get(self.next_block)?.first_key,
        };
        Some(next.as_slice().max(self.start.as_slice()))
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
        // A block that breaks its fences was spliced or reordered: its
        // content must match them exactly, which an empty block cannot.
        let fail = || Err(breach(meta.file_id, block_no as u32, Check::FenceOrder));
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            return fail();
        };
        if first.key != bm.first_key || last.key != bm.last_key {
            return fail();
        }
        // In-block order: key asc, seq desc within a key.
        for w in records.windows(2) {
            let ordered = w[0].key < w[1].key || (w[0].key == w[1].key && w[0].seq > w[1].seq);
            if !ordered {
                return fail();
            }
        }
        // Cross-block continuity: the block must continue strictly after
        // everything already yielded.
        if let Some((lk, ls)) = &self.last {
            let continues = *lk < first.key || (*lk == first.key && *ls > first.seq);
            if !continues {
                return fail();
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
            let Some(records) = self.records.as_mut() else {
                continue; // load_next_block populated it; retry the guard
            };
            while self.pos < records.len() {
                let at = self.pos;
                self.pos += 1;
                if records[at].key.as_slice() < self.start.as_slice() {
                    continue; // before the seek key inside the first block
                }
                // A block read past the cache is this cursor's alone: its
                // records move out instead of being copied.
                let out = match Rc::get_mut(records) {
                    Some(owned) => std::mem::take(&mut owned[at]),
                    None => records[at].clone(),
                };
                // Records skipped for the seek key all precede the ones
                // yielded, so a block read to its end last yields its last
                // record: the only one the continuity check needs.
                if self.pos == records.len() {
                    self.last = Some((out.key.clone(), out.seq));
                }
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

/// The conventional file name for an SSTable id.
pub fn file_name(file_id: u64) -> String {
    format!("sst-{file_id:06}.sst")
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_crypto::codec::{Encode, Writer};
    use treaty_sim::FiberCell;
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
    ) -> Result<(tempfile::TempDir, Rc<Env>, Rc<SsTable>)> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(profile, dir.path());
        let path = dir.path().join(file_name(1));
        build(&env, &path, 1, &entries(n), &[])?;
        let table = Rc::new(SsTable::open(Rc::clone(&env), 1)?);
        Ok((dir, env, table))
    }

    /// The visible value of `key` at `snapshot`: `None` = no version,
    /// `Some(None)` = tombstone.
    fn get(t: &SsTable, key: &[u8], snapshot: SeqNum) -> Result<Option<Option<Vec<u8>>>> {
        Ok(t.newest(key, snapshot)?.map(|(_, v)| v))
    }

    /// The seq of the newest version of `key`.
    fn newest_seq(t: &SsTable, key: &[u8]) -> Result<Option<SeqNum>> {
        Ok(t.newest(key, SeqNum::MAX)?.map(|(seq, _)| seq))
    }

    /// Collects a cursor to exhaustion.
    fn drain(t: &Rc<SsTable>, start: &[u8], cached: bool) -> Result<Vec<SsRecord>> {
        let mut cur = t.range_cursor(start, cached);
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
            let v = get(&t, b"key-00011", SeqNum::MAX)?;
            assert_eq!(
                v,
                Some(Some(format!("value-11-{}", "x".repeat(50)).into_bytes()))
            );
            // Tombstone.
            assert_eq!(get(&t, b"key-00003", SeqNum::MAX)?, Some(None));
            // Missing.
            assert_eq!(get(&t, b"key-99999", SeqNum::MAX)?, None);
            assert_eq!(get(&t, b"aaaa", SeqNum::MAX)?, None);
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
        let t = SsTable::open(env, 2)?;
        assert_eq!(get(&t, b"k", SeqNum::MAX)?, Some(Some(b"v9".to_vec())));
        assert_eq!(get(&t, b"k", 6)?, Some(Some(b"v5".to_vec())));
        assert_eq!(get(&t, b"k", 4)?, Some(Some(b"v1".to_vec())));
        assert_eq!(get(&t, b"k", 0)?, None);
        assert_eq!(newest_seq(&t, b"k")?, Some(9));
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
            let err = get(&t, b"key-00000", SeqNum::MAX).unwrap_err();
            let block = Stored::TableBlock {
                file_id: 1,
                block_no: 0,
            };
            assert_eq!(err, StoreError::integrity(block, Check::Tag), "{profile:?}");
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
        let err = SsTable::open(env, 1).unwrap_err();
        assert_eq!(
            err,
            StoreError::integrity(Stored::TableMeta { file_id: 1 }, Check::Tag)
        );
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
        let _ = get(&t, b"key-00000", SeqNum::MAX);
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
        // A cursor from the last block: only the blocks from there on
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
    fn build_rows(rows: &[VersionedEntry]) -> Result<(tempfile::TempDir, Rc<Env>, Rc<SsTable>)> {
        let dir = tempfile::tempdir()?;
        let env = Env::for_testing(SecurityProfile::treaty_full(), dir.path());
        let path = dir.path().join(file_name(1));
        build(&env, &path, 1, rows, &[])?;
        let table = Rc::new(SsTable::open(Rc::clone(&env), 1)?);
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
                    get(&t, key, SeqNum::MAX)?.is_some(),
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
            get(&t, b"hot", SeqNum::MAX)?,
            Some(Some(format!("{pad}1000").into_bytes()))
        );
        assert_eq!(
            get(&t, b"hot", 1000 - versions + 1)?,
            Some(Some(format!("{pad}{}", 1000 - versions + 1).into_bytes()))
        );
        assert_eq!(newest_seq(&t, b"hot")?, Some(1000));
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
        assert_eq!(get(&t, b"b", SeqNum::MAX)?, Some(Some(b"vb".to_vec())));
        assert_eq!(get(&t, b"d", SeqNum::MAX)?, Some(Some(b"vd".to_vec())));
        // In-range gap key and out-of-range keys.
        assert_eq!(get(&t, b"c", SeqNum::MAX)?, None);
        assert_eq!(get(&t, b"a", SeqNum::MAX)?, None);
        assert_eq!(get(&t, b"e", SeqNum::MAX)?, None);
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
        let t = Rc::new(SsTable::open(Rc::clone(&env), 1)?);
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
        assert_eq!(get(&t, &gap_key, SeqNum::MAX)?, None);
        assert_eq!(
            cache.hits() - h0 + cache.misses() - m0,
            0,
            "gap reject must read no blocks"
        );
        assert_eq!(env.stats.borrow().fence_gap_rejects, 1);
        assert_eq!(env.stats.borrow().bloom_false_positives, 0);
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
            assert_eq!(get(&t, &key, SeqNum::MAX)?, None);
        }
        assert_eq!(
            env.stats.borrow().bloom_false_positives,
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
        let mut cur = t.range_cursor(b"", true);
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
            let mut cur = t.range_cursor(b"", true);
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
        let mut cur = t.range_cursor(b"", true);
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
        let t = SsTable::open(Rc::clone(&env), 1)?;
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
            .ok_or_else(|| StoreError::Io("footer must hold the tombstones".into()))?;
        let mut tampered = raw.clone();
        tampered[pos + needle.len() - 8] ^= 0x01; // the tombstone's seq
        std::fs::write(&path, &tampered)?;
        let err = SsTable::open(env, 1).unwrap_err();
        assert_eq!(
            err,
            StoreError::integrity(Stored::TableMeta { file_id: 1 }, Check::Tag)
        );
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
        let t = Rc::new(SsTable::open(Rc::clone(&env), 1)?);
        assert_eq!(t.meta().entries, 0);
        assert!(t.covers(b"b"));
        assert!(!t.covers(b"z"));
        assert!(drain(&t, b"", true)?.is_empty());
        assert_eq!(t.range_cursor(b"", true).range_tombstones(), rts.as_slice());
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
            .ok_or_else(|| StoreError::Io("footer must hold the encoded filter".into()))?;
        raw[pos + needle.len() / 2] ^= 0x01; // inside the filter's bit array
        std::fs::write(t.path(), &raw)?;
        let err = SsTable::open(env, 1).unwrap_err();
        assert_eq!(
            err,
            StoreError::integrity(Stored::TableMeta { file_id: 1 }, Check::Tag)
        );
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
            assert_eq!(get(&t, &key, SeqNum::MAX)?, None);
        }
        assert!(
            env.stats.borrow().bloom_negatives >= 40,
            "most absent-key probes must be filtered: {}",
            env.stats.borrow().bloom_negatives
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
        let t = SsTable::open(Rc::clone(&env), 1)?;
        let t0 = treaty_sim::runtime::now();
        assert!(get(&t, b"key-00010", SeqNum::MAX)?.is_some());
        let miss_ns = treaty_sim::runtime::now() - t0;
        let t1 = treaty_sim::runtime::now();
        assert!(get(&t, b"key-00010", SeqNum::MAX)?.is_some());
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
        let res = Rc::new(FiberCell::new(None));
        let res2 = Rc::clone(&res);
        treaty_sched::block_on(move || {
            *res2.borrow_mut() = Some(cache_probe(&path_buf));
        });
        let taken = res.borrow_mut().take();
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
        let t = SsTable::open(Rc::clone(&env), 1)?;
        assert!(t.meta().filter.is_none());
        let v = get(&t, b"key-00011", SeqNum::MAX)?;
        assert_eq!(
            v,
            Some(Some(format!("value-11-{}", "x".repeat(50)).into_bytes()))
        );
        Ok(())
    }

    /// The adversary renamed sst-000001 to sst-000999 (e.g. to swap
    /// tables): open must fail because the sealed meta pins the id. Where
    /// a tag runs, table 999's nonce refuses the meta sealed as table 1's;
    /// where none runs, the decoded meta names table 1.
    #[test]
    fn wrong_file_name_rejected() -> Result<()> {
        for (profile, check) in [
            (SecurityProfile::treaty_full(), Check::Tag),
            (SecurityProfile::treaty_no_enc(), Check::Tag),
            (SecurityProfile::rocksdb(), Check::Misplaced),
        ] {
            let (_d, env, t) = build_one(profile, 10)?;
            std::fs::rename(t.path(), t.path().with_file_name(file_name(999)))?;
            let err = SsTable::open(env, 999).unwrap_err();
            let footer = Stored::TableMeta { file_id: 999 };
            assert_eq!(err, StoreError::integrity(footer, check), "{profile:?}");
        }
        Ok(())
    }
}
