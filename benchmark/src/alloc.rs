//! The benchmark's counting global allocator.
//!
//! `client_allocs_per_op` needs the allocations made *by the
//! load-generating thread*, so the count lives in a thread-local cell:
//! server, repair and accept threads never touch it. Process-wide totals
//! (all threads) are kept only while [`set_process_counting`] is on — the
//! traced run turns it on; end-to-end runs leave it off so the only cost
//! added to the program is one thread-local increment per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

thread_local! {
    // `const` + no destructor: reading it never allocates, which is what
    // makes it safe to touch from inside the allocator.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_COUNTING: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator; `alloc`, `alloc_zeroed` and `realloc` each
/// count as one allocation.
pub struct Counting;

#[inline]
fn note(size: usize) {
    // `try_with`: a thread that is tearing down its locals still frees
    // and allocates; those calls are simply not counted.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    // Relaxed: statistics only, they publish no other data.
    if PROCESS_COUNTING.load(Ordering::Relaxed) {
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        PROCESS_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// destructor-less thread-local `Cell` and atomics, neither of which
// allocates or unwinds.
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
        // SAFETY: `ptr` and `layout` come from the caller, who guarantees
        // they describe a live block of this allocator; `System` is the
        // allocator that produced it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Turns the process-wide counters on or off.
pub fn set_process_counting(on: bool) {
    PROCESS_COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` made by all threads while process counting was on.
pub fn process_counts() -> (u64, u64) {
    (
        PROCESS_ALLOCS.load(Ordering::Relaxed),
        PROCESS_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counter_sees_only_its_own_thread() {
        let before = thread_allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        let mine = thread_allocs() - before;
        assert!(mine >= 1, "the Vec allocation was not counted");

        let before = thread_allocs();
        let theirs = std::thread::spawn(|| {
            let start = thread_allocs();
            for i in 0..1000u64 {
                std::hint::black_box(Box::new(i));
            }
            thread_allocs() - start
        })
        .join()
        .expect("helper thread panicked");
        assert!(theirs >= 1000);
        // Spawning and joining allocate a little on this thread; the
        // helper's thousand boxes must not be charged here.
        assert!(thread_allocs() - before < 500);
    }
}
