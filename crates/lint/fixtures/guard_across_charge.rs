//! L007 canary fixture: a MemTable shard read guard held across a charge.
//!
//! This is `MemTable::range_cursor` as it stood when it wedged the
//! YCSB-E mix: `charge_enclave_op` yields, the scanner parks holding
//! `shard.read()`, and the next `put` blocks its OS thread on the same
//! shard's `write()` — with the baton never coming back. Analyzed under
//! the path `crates/store/src/memtable.rs` by
//! `analyzer::tests::l007_flags_shard_guard_across_charge`; a test
//! fixture, not compiled into the crate.

fn range_cursor(&self, start: &[u8], end: Option<&[u8]>) -> MemCursor<'_> {
    let probe = MemKey::new(start.to_vec(), SeqNum::MAX);
    let mut lists = Vec::with_capacity(self.shards.len());
    for shard in &self.shards {
        let guard = shard.read();
        let list: Vec<(MemKey, ValueEntry)> = guard
            .range_from(&probe)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        self.env.charge_enclave_op(
            list.len() * ENTRY_OVERHEAD + ENTRY_OVERHEAD,
            self.env.costs.memtable_op_ns,
        );
        lists.push(list);
    }
    MemCursor { mt: self, pos: vec![0; lists.len()], lists }
}
