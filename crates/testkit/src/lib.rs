//! The seeded property-test loop every suite in the workspace shares.
//!
//! A property is a closure over a generator. [`for_each_case`] runs it
//! [`CASES`] times, case `n` on `StdRng::seed_from_u64(n)`, so a run is
//! the same on every machine and needs nothing but the standard library
//! and the workspace's `rand`. A failing case panics with its seed in the
//! message; rerunning the test reaches it again, and calling the property
//! on `StdRng::seed_from_u64(seed)` replays it alone.
//!
//! The samplers mirror the input shapes the suites draw most: byte
//! strings, 20-byte digests, and short strings over ASCII classes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use rand::rngs::StdRng;
pub use rand::Rng;
use rand::SeedableRng;

/// Cases per property.
pub const CASES: u64 = 256;

/// Printable ASCII, space through tilde.
pub const PRINTABLE: RangeInclusive<u8> = b' '..=b'~';

/// Runs `property` on [`CASES`] generators, the `n`-th seeded with `n`.
///
/// # Panics
///
/// Panics when a case does, with `case seed <n>` ahead of that case's own
/// message.
pub fn for_each_case(mut property: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let why = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("the property panicked");
            panic!("case seed {case}: {why}");
        }
    }
}

/// Uniform bytes, as many as a uniform draw from `len` says.
pub fn bytes(rng: &mut StdRng, len: Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(len);
    (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

/// Twenty uniform bytes: the raw material of a key.
pub fn digest(rng: &mut StdRng) -> [u8; 20] {
    std::array::from_fn(|_| rng.gen_range(0..=u8::MAX))
}

/// A string whose length is a uniform draw from `len` and whose
/// characters are uniform over the union of `classes` — the regex
/// `[a-z0-9]{0,7}` is `ascii(rng, &[b'a'..=b'z', b'0'..=b'9'], 0..=7)`.
///
/// # Panics
///
/// Panics if `classes` is empty or holds a byte outside ASCII.
pub fn ascii(
    rng: &mut StdRng,
    classes: &[RangeInclusive<u8>],
    len: RangeInclusive<usize>,
) -> String {
    let alphabet: Vec<u8> = classes.iter().cloned().flatten().collect();
    assert!(alphabet.is_ascii(), "classes must stay within ASCII");
    let len = rng.gen_range(len);
    (0..len)
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_runs_once_on_its_own_stream() {
        let mut firsts = Vec::new();
        for_each_case(|rng| firsts.push(rng.gen::<u64>()));
        assert_eq!(firsts.len() as u64, CASES);
        let mut again = Vec::new();
        for_each_case(|rng| again.push(rng.gen::<u64>()));
        assert_eq!(firsts, again, "a run must repeat exactly");
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len() as u64, CASES, "cases must differ");
    }

    #[test]
    #[should_panic(expected = "case seed 7: seven is unlucky")]
    fn a_failing_case_names_its_seed() {
        let mut case = 0;
        for_each_case(|_| {
            assert!(case != 7, "seven is unlucky");
            case += 1;
        });
    }

    #[test]
    fn samplers_cover_their_declared_ranges() {
        let mut lens = std::collections::BTreeSet::new();
        for_each_case(|rng| {
            lens.insert(bytes(rng, 0..8).len());
            let name = ascii(rng, &[b'a'..=b'c', b'0'..=b'1'], 1..=3);
            assert!((1..=3).contains(&name.len()), "{name:?}");
            assert!(name.bytes().all(|b| b"abc01".contains(&b)), "{name:?}");
            assert!(ascii(rng, &[PRINTABLE], 0..=64).len() <= 64);
        });
        assert_eq!(lens, (0..8).collect());
    }
}
