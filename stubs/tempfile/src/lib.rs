//! In-tree stand-in for the `tempfile` crate (the container has no
//! registry): `tempdir()`, `TempDir::path()`, and removal on drop — the
//! whole surface this repository uses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under the system temp directory, removed when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

/// Creates a fresh, uniquely named temporary directory.
///
/// # Errors
///
/// Propagates the file-system error if the directory cannot be created.
pub fn tempdir() -> std::io::Result<TempDir> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(".tmp-treaty-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&path)?;
    Ok(TempDir(path))
}

impl TempDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort, like the real crate: `Drop` must not panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
