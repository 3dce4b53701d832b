//! The workspace's randomness: one finalizer, one seeding generator, one
//! stream generator, one trait.
//!
//! Every stochastic step in FaaSRail — trace synthesis, Smirnov sampling,
//! sub-minute arrivals, simulator draws, kernel inputs, backoff jitter,
//! trace ids, shard placement — is defined by the code in this file and by
//! nothing outside the repository, so a seed fixes every draw bit-for-bit on
//! every platform and toolchain (DESIGN §11):
//!
//! * [`mix64`] — the splitmix64 finalizer, a bijection on `u64` used as a
//!   stateless hash ([`mix64_pair`] keys it by two words);
//! * [`SplitMix64`] — Steele, Lea & Flood's generator: add the golden
//!   gamma, finalize. Seeds per-cell and per-input streams, and
//!   [`Xoshiro256pp`];
//! * [`Xoshiro256pp`] — Blackman & Vigna's xoshiro256++, its state filled
//!   by four `SplitMix64` steps; what [`seeded_rng`] returns;
//! * [`Rng`] — `next_u64` plus the derived draws: a 53-bit float in
//!   `[0, 1)` (top 53 bits × 2⁻⁵³), an unbiased bounded integer (widening
//!   multiply with rejection, Lemire 2019), an integer [`Range`], and the
//!   Fisher–Yates [`shuffle`](Rng::shuffle).

use std::ops::Range;

/// 2⁶⁴ / φ, the increment of [`SplitMix64`].
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a full-avalanche bijection on `u64`
/// (`mix64(0) == 0`).
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `key` under `seed`: `mix64(seed ^ key · γ)`. A bijection in `seed`
/// for a fixed `key`, so distinct seeds never collide on one key.
#[inline]
pub const fn mix64_pair(seed: u64, key: u64) -> u64 {
    mix64(seed ^ key.wrapping_mul(GOLDEN_GAMMA))
}

/// The draws every generator offers on top of its 64 raw bits.
pub trait Rng {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, span)`, unbiased.
    ///
    /// # Panics
    /// Panics if `span == 0`.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample an empty range");
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = self.next_u64() as u128 * span as u128;
            if wide as u64 >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform in `range` (end exclusive).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn range<T: RangeInt>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "cannot sample an empty range");
        range.start.offset(self.below(range.start.distance_to(range.end)))
    }

    /// Fisher–Yates, from the top: position `i` swaps with a uniform draw
    /// from `0..=i`.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0..i + 1));
        }
    }
}

/// The unsigned integers [`Rng::range`] draws.
pub trait RangeInt: Copy + PartialOrd {
    /// `end - self`, for `self < end`.
    fn distance_to(self, end: Self) -> u64;
    /// `self + by`.
    fn offset(self, by: u64) -> Self;
}

macro_rules! range_ints {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            #[inline]
            fn distance_to(self, end: $t) -> u64 {
                (end - self) as u64
            }
            #[inline]
            fn offset(self, by: u64) -> $t {
                self + by as $t
            }
        }
    )*};
}

range_ints!(u16, u32, u64, usize);

/// splitmix64 (Steele, Lea & Flood, OOPSLA '14): a 64-bit counter stepped
/// by [`GOLDEN_GAMMA`] and finalized by [`mix64`]. Equidistributed over
/// its full 2⁶⁴ period; the cheap generator for short, independently
/// seeded streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the stream; the same seed always yields the same sequence.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }
}

/// xoshiro256++ 1.0 (Blackman & Vigna 2019): 256 bits of state, period
/// 2²⁵⁶ − 1. The workspace's stream generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Rng for Xoshiro256pp {
    #[inline]
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
}

/// Construct the workspace-standard deterministic RNG from a `u64` seed:
/// a [`Xoshiro256pp`] whose state is the first four outputs of
/// `SplitMix64::new(seed)` (the seeding its authors recommend). splitmix64
/// never yields four zero words in a row, so the all-zero state xoshiro
/// cannot leave is unreachable.
///
/// Every stochastic component in the FaaSRail workspace derives its
/// randomness from one of these, so a fixed seed reproduces a run exactly.
pub fn seeded_rng(seed: u64) -> Xoshiro256pp {
    let mut sm = SplitMix64::new(seed);
    Xoshiro256pp { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_published_reference() {
        // Vigna's splitmix64.c, seed 0.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(SplitMix64::new(42).next_u64(), 0xBDD7_3226_2FEB_6E95);
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64_pair(0, 1), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn xoshiro256pp_matches_the_published_reference() {
        // Vigna's xoshiro256plusplus.c from state {1, 2, 3, 4}.
        let mut x = Xoshiro256pp { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..6).map(|_| x.next_u64()).collect();
        assert_eq!(
            got,
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386,
                9_228_616_714_210_784_205,
                9_973_669_472_204_895_162,
            ]
        );
    }

    /// The stream the parent commit drew through the stand-in `rand`
    /// (`StdRng::seed_from_u64(42)`, then `gen`, `gen_range`): this module
    /// adopted those definitions, so the values must not move.
    #[test]
    fn seeded_stream_is_the_one_the_workspace_drew_before_the_port() {
        let mut rng = seeded_rng(42);
        let raw: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            raw,
            [
                0xD076_4D4F_4476_689F,
                0x519E_4174_576F_3791,
                0xFBE0_7CFB_0C24_ED8C,
                0xB37D_9F60_0CD8_35B8
            ]
        );
        let floats: Vec<u64> = (0..3).map(|_| rng.next_f64().to_bits()).collect();
        assert_eq!(floats, [0x3FE9_6463_870E_908D, 0x3FE2_D1B3_E009_CA1B, 0x3FC0_0B8C_7F91_0D18]);
        let ms: Vec<u64> = (0..6).map(|_| rng.range(0..60_000u64)).collect();
        assert_eq!(ms, [36_307, 12_463, 56_000, 33_572, 51_001, 40_800]);
        let small: Vec<u32> = (0..6).map(|_| rng.range(3..10u32)).collect();
        assert_eq!(small, [3, 5, 6, 4, 3, 7]);
        let minutes: Vec<u16> = (0..4).map(|_| rng.range(0..1440u16)).collect();
        assert_eq!(minutes, [672, 232, 1242, 939]);
        let unit: Vec<usize> = (0..4).map(|_| rng.range(5..6usize)).collect();
        assert_eq!(unit, [5, 5, 5, 5]);
        let wide: Vec<u64> = (0..4).map(|_| rng.range(0..(1u64 << 32) + 1)).collect();
        assert_eq!(wide, [4_075_660_480, 2_248_098_503, 3_744_603_704, 362_852_477]);
        let huge: Vec<u64> = (0..4).map(|_| rng.range(0..u64::MAX)).collect();
        assert_eq!(
            huge,
            [
                11_752_218_394_177_209_119,
                13_270_194_101_805_742_647,
                5_149_298_266_374_294_019,
                18_155_818_430_975_299_095
            ]
        );
        let mut deck: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut deck);
        assert_eq!(deck, [6, 2, 1, 0, 5, 4, 8, 3, 9, 7]);
    }

    #[test]
    fn seeds_fix_streams_and_different_seeds_diverge() {
        let (mut a, mut b, mut c) = (seeded_rng(42), seeded_rng(42), seeded_rng(43));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 64);
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0, "seeds 42 and 43 should produce different streams");
    }

    #[test]
    fn floats_fill_the_half_open_unit_interval() {
        let mut rng = seeded_rng(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
        // The extremes of the construction: 0 and 1 − 2⁻⁵³.
        struct Fixed(u64);
        impl Rng for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        assert_eq!(Fixed(0).next_f64(), 0.0);
        assert_eq!(Fixed(u64::MAX).next_f64(), 1.0 - f64::EPSILON / 2.0);
    }

    #[test]
    fn bounded_draws_are_in_range_and_uniform() {
        let mut rng = seeded_rng(7);
        for span in [1u64, 2, 3] {
            let mut counts = vec![0u32; span as usize];
            let n = 30_000 * span as u32;
            for _ in 0..n {
                counts[rng.below(span) as usize] += 1;
            }
            for (v, &c) in counts.iter().enumerate() {
                let dev = (c as f64 - 30_000.0).abs() / 30_000.0;
                assert!(dev < 0.03, "span {span}: value {v} drawn {c} times of {n}");
            }
        }
        // Spans too wide to count per value: every draw in range, and the
        // halves of the span equally likely.
        for span in [(1u64 << 32) + 1, u64::MAX] {
            let n = 40_000;
            let mut upper = 0u32;
            for _ in 0..n {
                let v = rng.below(span);
                assert!(v < span);
                upper += (v >= span / 2) as u32;
            }
            let share = upper as f64 / n as f64;
            assert!((share - 0.5).abs() < 0.02, "span {span}: upper-half share {share}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_is_refused() {
        seeded_rng(0).range(3..3u32);
    }

    #[test]
    fn shuffle_is_a_permutation_and_a_function_of_the_seed() {
        let shuffled = |seed: u64| {
            let mut v: Vec<u32> = (0..100).collect();
            seeded_rng(seed).shuffle(&mut v);
            v
        };
        let a = shuffled(5);
        assert_eq!(a, shuffled(5));
        assert_ne!(a, shuffled(6));
        assert_ne!(a, (0..100).collect::<Vec<u32>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        // Every position of a short deck sees every card.
        let mut seen = [[false; 4]; 4];
        let mut rng = seeded_rng(9);
        for _ in 0..400 {
            let mut v = [0usize, 1, 2, 3];
            rng.shuffle(&mut v);
            for (pos, &card) in v.iter().enumerate() {
                seen[pos][card] = true;
            }
        }
        assert!(seen.iter().flatten().all(|&s| s));
        rng.shuffle::<u8>(&mut []);
        rng.shuffle(&mut [1u8]);
    }
}
