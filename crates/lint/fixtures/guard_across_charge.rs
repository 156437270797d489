//! L007 canary fixture: the MemTable index borrow held across a charge.
//!
//! This is the shape of `MemTable::range_cursor` that wedged the YCSB-E
//! mix when the index sat behind an `RwLock`: `charge_enclave_op` yields,
//! the scanner parks holding the index, and the next `put` blocks on the
//! same lock. With the index in a `RefCell`, that `put`'s `borrow_mut()`
//! panics instead. Analyzed under the path `crates/store/src/memtable.rs`
//! by `analyzer::tests::l007_flags_index_guard_across_charge`; a test
//! fixture, not compiled into the crate.

fn range_cursor(&self, start: &[u8], end: Option<&[u8]>) -> MemCursor<'_> {
    let probe = MemKey::new(start.to_vec(), SeqNum::MAX);
    let guard = self.index.borrow();
    let entries: Vec<(MemKey, ValueEntry)> = guard
        .range_from(&probe)
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    self.env.charge_enclave_op(
        entries.len() * ENTRY_OVERHEAD + ENTRY_OVERHEAD,
        self.env.costs.memtable_op_ns,
    );
    MemCursor { mt: self, entries: entries.into_iter() }
}
