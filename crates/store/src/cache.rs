//! The EPC-aware trusted block cache.
//!
//! An LRU over *decrypted* SSTable block record-vectors, keyed by
//! `(file_id, block_no)`. Entries live in enclave memory: a hit serves
//! plaintext records without touching untrusted storage and without a
//! decrypt, paying only an in-enclave memory access (MEE-priced, and
//! EPC-paging-priced if the enclave is overcommitted). The cache registers
//! every resident byte with the [`Enclave`]'s EPC residency tracking, and
//! eviction is driven both by its own LRU capacity and by EPC pressure:
//! when the enclave's total working set exceeds the EPC, the cache sheds
//! entries first — cached blocks are the only enclave-resident state that
//! can be dropped without losing correctness (they can always be re-read
//! and re-verified from storage).
//!
//! Safety argument: SSTables are immutable and their block contents are
//! verified (AES-GCM tag or HMAC pinned by the sealed footer) on the miss
//! path before insertion, so a cached vector is exactly the verified
//! plaintext of an immutable block — no freshness hazard exists. Retired
//! files' entries are invalidated at compaction/GC so dead tables stop
//! occupying EPC; file ids are never reused, so a stale entry could never
//! alias a live table's blocks even before invalidation.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use treaty_sim::FiberCell;
use treaty_tee::Enclave;

use crate::sstable::SsRecord;

/// Approximate in-enclave footprint of a decoded block.
pub(crate) fn approx_records_bytes(records: &[SsRecord]) -> u64 {
    records
        .iter()
        .map(|r| (r.key.len() + r.value.as_ref().map(|v| v.len()).unwrap_or(0) + 48) as u64)
        .sum()
}

struct Entry {
    records: Rc<Vec<SsRecord>>,
    bytes: u64,
    stamp: u64,
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<(u64, u32), Entry>,
    /// LRU order: stamp -> key. Stamps are unique (monotonic clock).
    lru: BTreeMap<u64, (u64, u32)>,
    bytes: u64,
    clock: u64,
}

/// The shared trusted block cache. One per node environment.
pub struct BlockCache {
    enclave: Rc<Enclave>,
    capacity_bytes: u64,
    inner: FiberCell<CacheInner>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .finish_non_exhaustive()
    }
}

impl BlockCache {
    /// Creates a cache of `capacity_bytes` charging residency to `enclave`.
    pub fn new(enclave: Rc<Enclave>, capacity_bytes: u64) -> Self {
        BlockCache {
            enclave,
            capacity_bytes,
            inner: FiberCell::new(CacheInner::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// Creates a shared cache, or `None` when `capacity_bytes` is zero
    /// (the ablation / cache-off configuration).
    pub fn new_shared(enclave: Rc<Enclave>, capacity_bytes: u64) -> Option<Rc<Self>> {
        if capacity_bytes == 0 {
            None
        } else {
            Some(Rc::new(Self::new(enclave, capacity_bytes)))
        }
    }

    /// Looks up a block, refreshing its LRU position.
    pub fn get(&self, file_id: u64, block_no: u32) -> Option<Rc<Vec<SsRecord>>> {
        let mut inner = self.inner.borrow_mut();
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.get_mut(&(file_id, block_no)) {
            Some(entry) => {
                let old = entry.stamp;
                entry.stamp = stamp;
                let records = Rc::clone(&entry.records);
                inner.lru.remove(&old);
                inner.lru.insert(stamp, (file_id, block_no));
                self.hits.update(|n| n + 1);
                Some(records)
            }
            None => {
                self.misses.update(|n| n + 1);
                None
            }
        }
    }

    /// Inserts a verified, decrypted block. Oversized blocks are not
    /// cached; duplicate inserts (racing readers) are no-ops.
    pub fn insert(&self, file_id: u64, block_no: u32, records: Rc<Vec<SsRecord>>) {
        let bytes = approx_records_bytes(&records);
        if bytes > self.capacity_bytes {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        if inner.map.contains_key(&(file_id, block_no)) {
            return;
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.map.insert(
            (file_id, block_no),
            Entry {
                records,
                bytes,
                stamp,
            },
        );
        inner.lru.insert(stamp, (file_id, block_no));
        inner.bytes += bytes;
        self.enclave.alloc_trusted(bytes);
        self.evict_locked(&mut inner);
    }

    /// Evicts LRU entries while over the LRU capacity *or* while the
    /// enclave as a whole is over its EPC budget (EPC pressure): cached
    /// blocks are droppable state, so they yield EPC to everything else.
    fn evict_locked(&self, inner: &mut CacheInner) {
        while inner.bytes > 0
            && (inner.bytes > self.capacity_bytes
                || self.enclave.resident_bytes() > self.enclave.epc_capacity())
        {
            let (&stamp, &key) = match inner.lru.iter().next() {
                Some(kv) => kv,
                None => break,
            };
            inner.lru.remove(&stamp);
            if let Some(entry) = inner.map.remove(&key) {
                inner.bytes -= entry.bytes;
                self.enclave.free_trusted(entry.bytes);
                self.evictions.update(|n| n + 1);
            }
        }
    }

    /// Drops every cached block of `file_id` (the table was retired by
    /// compaction/GC), releasing its EPC residency.
    pub fn invalidate_file(&self, file_id: u64) {
        let mut inner = self.inner.borrow_mut();
        let dead: Vec<(u64, u32)> = inner
            .map
            .keys()
            .filter(|k| k.0 == file_id)
            .copied()
            .collect();
        for key in dead {
            if let Some(entry) = inner.map.remove(&key) {
                inner.lru.remove(&entry.stamp);
                inner.bytes -= entry.bytes;
                self.enclave.free_trusted(entry.bytes);
            }
        }
    }

    /// File ids with at least one resident block (test introspection).
    pub fn resident_file_ids(&self) -> Vec<u64> {
        let inner = self.inner.borrow();
        let mut ids: Vec<u64> = inner.map.keys().map(|k| k.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Bytes currently cached (all charged to the enclave's EPC tracker).
    pub fn resident_bytes(&self) -> u64 {
        self.inner.borrow().bytes
    }

    /// Configured LRU capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Cache hits served from enclave memory.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that fell through to storage.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted by capacity or EPC pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treaty_sim::TeeMode;

    fn records(key: &[u8], value_len: usize) -> Rc<Vec<SsRecord>> {
        Rc::new(vec![SsRecord {
            key: key.to_vec(),
            seq: 1,
            value: Some(vec![0u8; value_len]),
        }])
    }

    fn cache(capacity: u64) -> (Rc<Enclave>, BlockCache) {
        let enclave = Rc::new(Enclave::new(TeeMode::Scone));
        (Rc::clone(&enclave), BlockCache::new(enclave, capacity))
    }

    #[test]
    fn hit_miss_and_counters() {
        let (_e, c) = cache(1 << 20);
        assert!(c.get(1, 0).is_none());
        c.insert(1, 0, records(b"k", 100));
        let r = c.get(1, 0).expect("cached");
        assert_eq!(r[0].key, b"k");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn residency_is_charged_to_the_enclave() {
        let (enclave, c) = cache(1 << 20);
        let before = enclave.resident_bytes();
        c.insert(1, 0, records(b"k", 1000));
        assert!(enclave.resident_bytes() > before);
        assert_eq!(enclave.resident_bytes() - before, c.resident_bytes());
        c.invalidate_file(1);
        assert_eq!(enclave.resident_bytes(), before);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn lru_capacity_evicts_oldest_first() {
        let (_e, c) = cache(3000);
        c.insert(1, 0, records(b"a", 1000));
        c.insert(1, 1, records(b"b", 1000));
        // Touch block 0 so block 1 is the LRU victim.
        assert!(c.get(1, 0).is_some());
        c.insert(1, 2, records(b"c", 1000));
        assert!(c.evictions() >= 1);
        assert!(c.get(1, 0).is_some(), "recently used entry must survive");
        assert!(c.get(1, 1).is_none(), "LRU entry must be evicted");
    }

    #[test]
    fn epc_pressure_shrinks_the_cache() {
        let enclave = Rc::new(Enclave::with_epc(TeeMode::Scone, 4096));
        let c = BlockCache::new(Rc::clone(&enclave), 1 << 20);
        // Something else fills the EPC past its budget...
        enclave.alloc_trusted(8192);
        // ...so an insert is immediately shed again despite LRU headroom.
        c.insert(1, 0, records(b"k", 1000));
        assert_eq!(
            c.resident_bytes(),
            0,
            "EPC pressure must win over LRU capacity"
        );
        assert!(c.evictions() >= 1);
    }

    #[test]
    fn invalidate_is_per_file() {
        let (_e, c) = cache(1 << 20);
        c.insert(1, 0, records(b"a", 10));
        c.insert(2, 0, records(b"b", 10));
        c.invalidate_file(1);
        assert!(c.get(1, 0).is_none());
        assert!(c.get(2, 0).is_some());
        assert_eq!(c.resident_file_ids(), vec![2]);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let (enclave, c) = cache(100);
        c.insert(1, 0, records(b"k", 4096));
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(enclave.resident_bytes(), 0);
    }
}
