//! Offline stand-in for `rand` 0.8.
//!
//! The registry is unreachable where the benchmark is built, so this
//! crate supplies exactly the items `crates/*` call: `StdRng`,
//! `SeedableRng::seed_from_u64`, and `Rng::{gen, gen_range, gen_bool}`.
//! The generator is xoshiro256++ seeded through SplitMix64 — a different
//! stream from the published crate's ChaCha12, so corpora and query
//! streams differ from a registry build's. Every benchmark report
//! therefore carries `"deps": "stand-ins"`.

use std::ops::{Range, RangeInclusive};

/// Seeding interface (only the `u64` convenience constructor is used).
pub trait SeedableRng: Sized {
    /// A generator whose whole state derives from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// One uniformly distributed value.
    fn sample(rng: &mut rngs::StdRng) -> Self;
}

impl Standard for f64 {
    fn sample(rng: &mut rngs::StdRng) -> f64 {
        // 53 random mantissa bits: uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn sample(rng: &mut rngs::StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample(rng: &mut rngs::StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample(rng: &mut rngs::StdRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// One value uniformly drawn from the range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range, like the published crate.
    fn sample_single(self, rng: &mut rngs::StdRng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single(self, rng: &mut rngs::StdRng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "cannot sample empty range");
                match ((hi - lo) as u64).checked_add(1) {
                    Some(span) => lo + rng.below(span) as $t,
                    None => rng.next_u64() as $t,
                }
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single(self, rng: &mut rngs::StdRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

/// The user-facing sampling methods.
pub trait Rng {
    /// One uniformly distributed `T`.
    fn gen<T: Standard>(&mut self) -> T;
    /// One value uniformly drawn from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for rngs::StdRng {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::sample(self) < p
    }
}

/// Generators.
pub mod rngs {
    use super::SeedableRng;

    /// xoshiro256++, seeded through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
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

        /// Uniform on `0..span` (`span > 0`) by widening multiply with
        /// rejection of the biased low zone (Lemire).
        pub(crate) fn below(&mut self, span: u64) -> u64 {
            let zone = span.wrapping_neg() % span;
            loop {
                let wide = u128::from(self.next_u64()) * u128::from(span);
                if (wide as u64) >= zone {
                    return (wide >> 64) as u64;
                }
            }
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = a.gen_range(3..17);
            assert_eq!(x, b.gen_range(3..17));
            assert!((3..17).contains(&x));
            let y: u32 = a.gen_range(1990..=2004);
            assert_eq!(y, b.gen_range(1990..=2004));
            assert!((1990..=2004).contains(&y));
            let u: f64 = a.gen();
            assert_eq!(u, b.gen::<f64>());
            assert!((0.0..1.0).contains(&u));
        }
        assert_ne!(
            StdRng::seed_from_u64(1).next_u64(),
            StdRng::seed_from_u64(2).next_u64()
        );
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((4_500..5_500).contains(&hits), "{hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
