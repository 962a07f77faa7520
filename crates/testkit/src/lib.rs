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
//!
//! [`damaged`] and [`spliced`] are how the parser-totality suites hurt a
//! well-formed text; [`on_a_small_stack`] is where the depth-bomb tests
//! run. [`Counting`] is the allocator the allocation-budget suites install
//! to count what one thread allocates, how many bytes it asks for, and how
//! many of them it still holds.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};

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

/// `clean` after `edits` single-byte edits — overwrite, insert or delete,
/// at uniform positions. Three written bytes in four come from
/// `alphabet` (a format's own punctuation, so that damaged text is often
/// still well-formed); the fourth is any byte at all.
pub fn damaged(rng: &mut StdRng, clean: &[u8], alphabet: &[u8], edits: usize) -> Vec<u8> {
    let byte = |rng: &mut StdRng| {
        if rng.gen_range(0..4usize) == 0 {
            rng.gen_range(0..=u8::MAX)
        } else {
            alphabet[rng.gen_range(0..alphabet.len())]
        }
    };
    let mut bytes = clean.to_vec();
    for _ in 0..edits {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..3usize) {
            0 if at < bytes.len() => bytes[at] = byte(rng),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte(rng)),
        }
    }
    bytes
}

/// A prefix of `a` followed by a suffix of `b`, both cut uniformly.
pub fn spliced(rng: &mut StdRng, a: &[u8], b: &[u8]) -> Vec<u8> {
    let head = &a[..rng.gen_range(0..=a.len())];
    let tail = &b[rng.gen_range(0..=b.len())..];
    [head, tail].concat()
}

/// Runs `f` on a thread with a 2 MiB stack — what Rust gives a spawned
/// thread by default, whatever `RUST_MIN_STACK` says — and returns its
/// result. A stack overflow aborts the process, so a test that gets its
/// value back has shown the recursion under test is bounded.
///
/// # Panics
///
/// Panics if `f` does.
pub fn on_a_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("the closure panicked")
}

thread_local! {
    // `const` and destructor-free: touching them from inside the allocator
    // neither allocates nor runs during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request for `bytes` on this thread.
fn note(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Counts `bytes` handed back on this thread.
fn freed(bytes: usize) {
    let _ = FREED.try_with(|c| c.set(c.get() + bytes as u64));
}

/// The system allocator, counting each thread's allocations, the bytes
/// they request and the bytes it frees, apart.
///
/// A test binary that pins allocation counts installs it itself —
/// `#[global_allocator] static GLOBAL: Counting = Counting;` — and reads
/// it through [`allocs_during`], [`bytes_during`] and
/// [`live_bytes_during`]. The counts are
/// thread-local, so server and helper threads, and other tests running in
/// parallel, never touch them.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// destructor-less thread-local `Cell`, which neither allocates nor unwinds.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        freed(layout.size());
        // SAFETY: `ptr` and `layout` come from the caller, who guarantees
        // they describe a live block of this allocator; `System` is the
        // allocator that produced it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations the calling thread makes while running `f` — zero, always,
/// unless the binary installed [`Counting`] as its global allocator.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Bytes the calling thread requests while running `f`: the sum of every
/// allocation's size, a reallocation counting its new size. Freed bytes
/// are not taken off, so for a call that allocates only what it returns
/// this is what the result keeps on the heap, before the allocator's
/// rounding. Zero unless the binary installed [`Counting`].
pub fn bytes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// How many more bytes the calling thread holds on the heap after running
/// `f` than before: what it requested minus what it freed, a reallocation
/// counting its new size in and its old one out (negative when `f` frees
/// more than it keeps). For a call that builds a structure and returns it,
/// this is the structure's footprint before the allocator's rounding.
/// Zero unless the binary installed [`Counting`].
pub fn live_bytes_during<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let live = || BYTES.with(Cell::get) as i64 - FREED.with(Cell::get) as i64;
    let before = live();
    let out = f();
    (out, live() - before)
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

    #[test]
    fn damage_is_bounded_by_its_edit_count() {
        for_each_case(|rng| {
            let clean = bytes(rng, 0..16);
            assert_eq!(damaged(rng, &clean, b"<>", 0), clean);
            let hurt = damaged(rng, &clean, b"<>", 3);
            assert!(hurt.len().abs_diff(clean.len()) <= 3);
            let joined = spliced(rng, &clean, &hurt);
            assert!(joined.len() <= clean.len() + hurt.len());
        });
        assert_eq!(on_a_small_stack(|| 7), 7);
    }
}
