//! A minimal work-queue executor for embarrassingly-parallel experiment
//! grids.
//!
//! The evaluation's scheme × policy cells (and the robustness sweep's
//! loss × budget cells) are independent simulations: each is a pure
//! function of its own config and seeds. [`parallel_map`] fans such cells
//! out over scoped worker threads (`std::thread::scope`, no dependencies)
//! and reassembles the results **in input order**, so any output rendered
//! from them — notably the paper CSVs — is byte-identical to a serial run.
//!
//! Scheduling is a shared atomic cursor over the item slice: workers claim
//! contiguous chunks of un-started indices until the queue drains, and
//! each result is written straight into its own pre-sized output slot —
//! there is no shared result sink to contend on and no reorder pass at the
//! end. The worker count is clamped to the host's available parallelism,
//! so asking for more jobs than cores degrades to fewer threads instead of
//! oversubscribing the machine (which is how a "parallel" run ends up
//! slower than a serial one). Panics inside a worker are propagated to the
//! caller after all threads have joined.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Applies `f` to every item, running up to `jobs` items concurrently, and
/// returns the results in the order of `items`.
///
/// The actual worker count is `min(jobs, available cores, items)`: extra
/// threads beyond the core count only add scheduling overhead, and extra
/// threads beyond the item count would never receive work. `jobs <= 1`
/// (after clamping) runs strictly serially on the calling thread (no
/// threads are spawned), which is also the fallback for empty input. The
/// mapping must be a pure function of the item for the parallel and serial
/// schedules to agree — which is exactly the determinism contract the
/// experiment grids rely on.
///
/// # Panics
///
/// Re-raises the first panic observed in a worker once every worker has
/// finished.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with_workers(items, effective_workers(jobs, items.len()), f)
}

/// [`parallel_map`] with an explicit worker count, *not* clamped to the
/// host's core count. This is the internal engine; tests use it to force
/// real thread schedules (oversubscription, jobs > items) regardless of
/// how many cores the test machine has.
pub(crate) fn parallel_map_with_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = workers.min(items.len());
    // Hand out contiguous chunks so the atomic cursor is touched roughly
    // 8×workers times per run instead of once per item. Cheap items stop
    // serializing on the cursor; expensive items (chunk = 1) still balance.
    let chunk = (items.len() / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let slots = SlotBuffer::new(items.len());
    let panicked = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        return;
                    }
                    let end = (start + chunk).min(items.len());
                    for (i, item) in items[start..end].iter().enumerate() {
                        slots.write(start + i, f(item));
                    }
                })
            })
            .collect();
        let mut panicked = None;
        for h in handles {
            if let Err(p) = h.join() {
                panicked.get_or_insert(p);
            }
        }
        panicked
    });
    if let Some(p) = panicked {
        // Partial results drop with the buffer — nothing leaks on unwind.
        drop(slots);
        panic::resume_unwind(p);
    }
    slots.into_vec()
}

/// The worker count [`parallel_map`] actually uses for a `--jobs` request:
/// `min(jobs, available cores, items)`.
fn effective_workers(jobs: usize, items: usize) -> usize {
    jobs.min(available_cores()).min(items.max(1))
}

/// The host's available parallelism (at least 1).
fn available_cores() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// The number of worker threads a `--jobs` value selects: `0` means "use
/// every available core", anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        available_cores()
    } else {
        jobs
    }
}

/// A fixed-size buffer of write-once result slots, one per input index.
///
/// Each slot carries its own tiny mutex, so writes to different indices
/// never contend on anything shared: the unique index handout in
/// [`parallel_map_with_workers`] guarantees every slot's lock is taken
/// exactly once while workers run (one uncontended CAS — noise next to a
/// simulation cell), and once more on the coordinating thread after
/// `thread::scope` has joined every worker. The crate forbids `unsafe`, so
/// this stands in for the `UnsafeCell<MaybeUninit>` version of the same
/// layout at the cost of one relaxed atomic per write.
struct SlotBuffer<R> {
    slots: Box<[Mutex<Option<R>>]>,
}

impl<R> SlotBuffer<R> {
    fn new(len: usize) -> Self {
        Self {
            slots: (0..len).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Writes index `i`'s result. Each index is written at most once (the
    /// cursor hands each index range to exactly one worker).
    fn write(&self, i: usize, value: R) {
        let prev = self.slots[i]
            .lock()
            .expect("slot writer panicked")
            .replace(value);
        debug_assert!(prev.is_none(), "executor wrote a result slot twice");
    }

    /// Consumes the buffer into a `Vec`, asserting every slot was filled.
    /// Partial buffers (a worker panicked) are simply dropped instead, which
    /// reclaims whatever results were produced before the panic.
    fn into_vec(self) -> Vec<R> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot writer panicked")
                    .expect("executor left a result slot empty")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 2, 4, 9] {
            let out = parallel_map(&items, jobs, |&i| i * 3);
            assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        assert_eq!(parallel_map(&items, 1, f), parallel_map(&items, 4, f));
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 100, |&x| x * x), vec![1, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        parallel_map(&items, 3, |&i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    // --- adversarial schedules: forced real threads, independent of the
    // --- host's core count, exercising the slot buffer under contention.

    /// Uneven per-item cost: early items are orders of magnitude slower
    /// than late ones, so fast workers race far ahead through the chunked
    /// cursor while slow workers are still writing low-index slots.
    #[test]
    fn uneven_item_cost_keeps_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = parallel_map_with_workers(&items, 8, |&i| {
            if i % 17 == 0 {
                thread::sleep(Duration::from_millis(5));
            }
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    /// Far more workers than items (and than cores): every surplus worker
    /// must observe an exhausted cursor and exit without touching a slot.
    #[test]
    fn oversubscribed_workers_beyond_items() {
        let items = [10u32, 20, 30];
        let calls = AtomicU64::new(0);
        let out = parallel_map_with_workers(&items, 64, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x + 1
        });
        assert_eq!(out, vec![11, 21, 31]);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            3,
            "each item mapped exactly once"
        );
    }

    /// A worker that panics mid-queue must not prevent the others from
    /// draining, and the panic must surface to the caller. The drop
    /// counter pins that every result produced before the panic is
    /// reclaimed (no leak on the unwind path) and none is dropped twice.
    #[test]
    fn mid_queue_panic_reclaims_partial_results() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Tracked(#[allow(dead_code)] u64);
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let items: Vec<u64> = (0..32).collect();
        let made = AtomicU64::new(0);
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            parallel_map_with_workers(&items, 4, |&i| {
                if i == 13 {
                    panic!("mid-queue worker failure");
                }
                made.fetch_add(1, Ordering::Relaxed);
                Tracked(i)
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(
            DROPS.load(Ordering::Relaxed),
            made.load(Ordering::Relaxed),
            "every constructed result is dropped exactly once on unwind"
        );
    }

    /// Determinism pin: the slot-based executor matches the serial map
    /// element-for-element across worker counts and chunk boundaries,
    /// including lengths that don't divide evenly into chunks.
    #[test]
    fn slot_executor_matches_serial_element_for_element() {
        for len in [2usize, 3, 7, 64, 100, 257] {
            let items: Vec<u64> = (0..len as u64).collect();
            let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x << 7);
            let serial: Vec<u64> = items.iter().map(f).collect();
            for workers in [2, 3, 8, 19] {
                assert_eq!(
                    parallel_map_with_workers(&items, workers, f),
                    serial,
                    "len={len} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn resolve_jobs_maps_zero_to_cores() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn effective_workers_clamps_to_cores_and_items() {
        let cores = available_cores();
        assert_eq!(effective_workers(1, 100), 1);
        assert!(effective_workers(usize::MAX, 100) <= cores.min(100));
        assert_eq!(effective_workers(8, 3), 3.min(cores).min(8));
    }
}
