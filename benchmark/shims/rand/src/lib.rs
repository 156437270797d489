//! Stand-in for `rand` 0.8: `RngCore`, `SeedableRng`, the `Rng` methods the
//! tree calls (`gen`, `gen_range`, `gen_bool`) and `rngs::OsRng`.
//!
//! The sampling algorithms are sound (unbiased integer ranges, 53-bit
//! floats) but are not the published crate's, so a seed does not reproduce
//! the published crate's stream — only this stand-in's, every time.

use std::ops::{Range, RangeInclusive};

/// A source of random bits.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed;
    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;
    /// Builds the generator from a 64-bit seed, expanded with SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// SplitMix64 step, for expanding short seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// One uniformly distributed value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Ranges `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    /// One value of the range, uniformly.
    ///
    /// # Panics
    ///
    /// If the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` without modulo bias (Lemire's method).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + i128::from(below(rng, span))) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u64;
                // A span of 2^64 - 1 would wrap to 0 below; no such range exists
                // for the types listed here except full u64/i64/usize ranges.
                match span.checked_add(1) {
                    Some(span) => (start as i128 + i128::from(below(rng, span))) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i32, i64);

/// Convenience methods on every [`RngCore`].
pub trait Rng: RngCore {
    /// A uniformly distributed value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value of `range`, uniformly.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// If `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Generators that need no seed.

    use std::io::Read;

    /// The operating system's entropy source (`/dev/urandom`).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct OsRng;

    impl super::RngCore for OsRng {
        fn next_u32(&mut self) -> u32 {
            let mut b = [0u8; 4];
            self.fill_bytes(&mut b);
            u32::from_le_bytes(b)
        }

        fn next_u64(&mut self) -> u64 {
            let mut b = [0u8; 8];
            self.fill_bytes(&mut b);
            u64::from_le_bytes(b)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            std::fs::File::open("/dev/urandom")
                .and_then(|mut f| f.read_exact(dest))
                .expect("the OS entropy source is readable");
        }
    }
}
