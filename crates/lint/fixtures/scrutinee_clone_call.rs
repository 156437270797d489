//! L007 canary fixture: a borrow kept alive as an `if let` scrutinee
//! temporary across a call into the object cloned out from under it.
//!
//! This is `TreatyStore::get_visible` as it stood when it wedged
//! rotation: the `mem` temporary lives to the end of the `if let`,
//! `MemTable::get` charges (yields) under it, and `rotate_locked`'s
//! `mem.borrow_mut()` then meets the live borrow (under the old `RwLock`
//! it blocked its OS thread; under `RefCell` it panics). Binding the
//! clone first ends the borrow at the `;`. Analyzed under the path
//! `crates/store/src/engine.rs` by
//! `analyzer::tests::l007_flags_call_on_value_cloned_out_of_guard_temporary`;
//! a test fixture, not compiled into the crate.

fn get_visible(&self, key: &[u8], snapshot: SeqNum) -> Result<Option<Vec<u8>>> {
    if let Some(v) = self.inner.mem.borrow().clone().get(key, snapshot)? {
        return Ok(v);
    }
    Ok(None)
}
