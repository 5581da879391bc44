//! Offline stand-in for [`rand`](https://crates.io/crates/rand).
//!
//! Implements the subset this workspace uses — `StdRng::seed_from_u64`,
//! `gen`, `gen_range`, `gen_bool` and slice shuffling — on top of a
//! xoshiro256** generator (see `crates/compat/README.md` for why these
//! shims exist). Streams are deterministic per seed but differ from the
//! real `rand` crate's ChaCha-based `StdRng`; every consumer in this
//! workspace treats generated data as "arbitrary but reproducible", so the
//! exact stream does not matter.

#![forbid(unsafe_code)]

/// A generator seedable from a `u64`.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly over their "natural" distribution by
/// [`Rng::gen`]: `f64` in `[0, 1)`, integers over their full range, `bool`
/// as a fair coin.
pub trait Standard {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value uniformly from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The user-facing generator trait.
pub trait Rng {
    /// Produces the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a value from its natural distribution (see [`Standard`]).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range`.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256** generator (the workspace's default).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// Alias: the "small" generator is the same xoshiro256** here.
    pub type SmallRng = StdRng;

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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
}

/// Slice helpers (`shuffle`, `choose`).
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// The slice's element type.
        type Item;

        /// Shuffles the slice in place (Fisher–Yates).
        fn shuffle<R: Rng>(&mut self, rng: &mut R);

        /// Picks a uniformly random element, or `None` if empty.
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get((rng.next_u64() % self.len() as u64) as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(1..=3);
            assert!((1..=3).contains(&w));
        }
    }

    #[test]
    fn f64_unit_interval_and_bool_rate() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = 0;
        for _ in 0..2000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            if rng.gen_bool(0.25) {
                hits += 1;
            }
        }
        // Loose 3-sigma-ish band around 500.
        assert!(
            (380..=620).contains(&hits),
            "gen_bool(0.25) hit {hits}/2000"
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert!(v.choose(&mut rng).is_some());
    }
}
