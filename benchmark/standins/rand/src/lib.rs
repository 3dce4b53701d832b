//! Stand-in for `rand` 0.8: `Rng`, `RngCore`, `SeedableRng` and
//! `rngs::StdRng`, as far as this workspace calls them.
//!
//! `StdRng` here is xoshiro256++ seeded through splitmix64, not ChaCha12:
//! streams differ from the published crate's, so generated traces differ
//! from `results/*.csv`, but a seed still fixes every output.

use std::fmt;
use std::ops::Range;

/// The error `RngCore::try_fill_bytes` can return; no generator here fails.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator failed")
    }
}

impl std::error::Error for Error {}

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error>;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// Types `Rng::gen` can produce (the published crate's `Standard`
/// distribution).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` by widening multiply with rejection (Lemire).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    assert!(span > 0, "cannot sample an empty range");
    let threshold = span.wrapping_neg() % span;
    loop {
        let wide = rng.next_u64() as u128 * span as u128;
        if wide as u64 >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                self.start + below(rng, (self.end - self.start) as u64) as $t
            }
        }
    )*};
}

int_ranges!(u16, u32, u64, usize);

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{Error, RngCore, SeedableRng};

    /// xoshiro256++ (Blackman & Vigna).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 never yields four zero words in a row, so the
            // all-zero state xoshiro cannot leave is unreachable.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }

        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seed_fixes_the_stream_and_seeds_differ() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        assert_eq!(xs, (0..16).map(|_| b.gen()).collect::<Vec<u64>>());
        assert_ne!(xs, (0..16).map(|_| c.gen()).collect::<Vec<u64>>());
    }

    #[test]
    fn unit_floats_and_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
            assert!((3..9u32).contains(&rng.gen_range(3..9u32)));
            assert!((5..6usize).contains(&rng.gen_range(5..6usize)));
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }
}
