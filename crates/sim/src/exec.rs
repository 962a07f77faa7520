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
//! Scheduling is a shared atomic cursor over the item slice: a worker
//! claims the next un-started index, one at a time — a cell is seconds of
//! work and a grid is a dozen or two of them, so the cursor is never what
//! anybody waits on — and keeps its `(index, result)` pairs to itself.
//! Joining the workers collects the pairs; one sort by index restores the
//! input order. The worker count is clamped to the host's available
//! parallelism, so asking for more jobs than cores degrades to fewer
//! threads instead of oversubscribing the machine (which is how a
//! "parallel" run ends up slower than a serial one). Panics inside a
//! worker are propagated to the caller after all threads have joined.

use std::iter;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let worker = || {
            let claims = iter::repeat_with(|| cursor.fetch_add(1, Ordering::Relaxed));
            Vec::from_iter(claims.map_while(|at| Some((at, f(items.get(at)?)))))
        };
        let spawned: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        // A worker's panic goes on to the caller. The scope joins the other
        // workers first, and what they produced is dropped with them.
        let joined = spawned.into_iter().map(|handle| handle.join());
        joined
            .flat_map(|mine| mine.unwrap_or_else(|panic| panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|(at, _)| *at);
    done.into_iter().map(|(_, result)| result).collect()
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
    // --- host's core count.

    /// Uneven per-item cost: some items are orders of magnitude slower
    /// than the rest, so fast workers race far ahead through the cursor
    /// and every worker's pairs come back out of input order.
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
    /// must observe an exhausted cursor and exit with nothing mapped.
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

    /// Determinism pin: the executor matches the serial map
    /// element-for-element across worker counts, including lengths the
    /// workers cannot share evenly.
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
