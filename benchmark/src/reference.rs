//! The speed of the core a run is pinned to, as the time of a fixed loop
//! that no code of the repository can change. `setup_s` is scaled by it
//! (README, "Set-up time at a reference speed"): the host runs the same
//! user code up to 1.4× slower for minutes at a time, and a set-up takes
//! the slowdown in full.

use std::time::Instant;

/// Steps per burst, each a dependent load, multiply and store in a 64 KiB
/// table: the first two cache levels and the core, nothing behind them.
const STEPS: u32 = 1_000_000;
const TABLE_WORDS: usize = 8192;
const BURSTS: usize = 7;

/// What [`burst_s`] takes on the container the baseline was measured on
/// while the host is quiet. Only a scale: it makes `setup_s` read as seconds
/// of that machine at its best.
pub const NOMINAL_S: f64 = 0.005;

/// The median of [`BURSTS`] timings of the loop: what the core does now,
/// without the bursts a neighbour adds to some of them.
pub fn burst_s() -> f64 {
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64).collect();
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    let mut times: Vec<f64> = (0..BURSTS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..STEPS {
                let i = (x >> 20) as usize & (TABLE_WORDS - 1);
                x = (x ^ table[i])
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .rotate_left(17);
                table[i] = x;
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(x);
    times.sort_by(f64::total_cmp);
    times[BURSTS / 2]
}
