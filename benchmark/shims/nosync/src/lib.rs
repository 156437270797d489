//! Preloaded into the benchmark's child processes (`parent::run_child`) so
//! that `fsync` and `fdatasync` return at once.
//!
//! The driver's contract keeps every file the benchmark writes inside the
//! checkout, which is on a real disk. `crates/store/src/log.rs` syncs every
//! group commit, and on the container this was written on the device took
//! 200-600 µs per sync and drifted by 2x over minutes: half of a YCSB-A
//! window's wall clock and nearly all of its run-to-run spread were the
//! disk, not the program. The benchmark measures the program; README.md
//! ("Noise controls", "What is not measured") says so with the numbers.
//! Bytes still reach the files, so recovery code that reads them back works.

/// Replaces libc's `fdatasync`: reports success without touching the device.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: i32) -> i32 {
    0
}

/// Replaces libc's `fsync`: reports success without touching the device.
#[no_mangle]
pub extern "C" fn fsync(_fd: i32) -> i32 {
    0
}
