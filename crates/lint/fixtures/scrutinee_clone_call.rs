//! L007 canary fixture: a read guard kept alive as an `if let` scrutinee
//! temporary across a call into the object cloned out from under it.
//!
//! This is `TreatyStore::get_visible` as it stood when it wedged
//! rotation: the `mem.read()` temporary lives to the end of the `if let`,
//! `MemTable::get` charges (yields) under it, and `rotate_locked` blocks
//! its OS thread on `mem.write()`. Binding the clone first ends the guard
//! at the `;`. Analyzed under the path `crates/store/src/engine.rs` by
//! `analyzer::tests::l007_flags_call_on_value_cloned_out_of_guard_temporary`;
//! a test fixture, not compiled into the crate.

fn get_visible(&self, key: &[u8], snapshot: SeqNum) -> Result<Option<Vec<u8>>> {
    if let Some(v) = self.inner.mem.read().clone().get(key, snapshot)? {
        return Ok(v);
    }
    Ok(None)
}
