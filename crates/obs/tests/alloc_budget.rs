//! Allocation budget of a recording registry: a counter or histogram
//! that already exists is updated in place, so only a name's first touch
//! allocates (its `String` key).
//!
//! The count is thread-local, so other tests running in parallel never
//! touch it.

use p2p_index_obs::MetricsRegistry;
use p2p_index_testkit::{allocs_during, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_repeated_incr_and_observe_allocate_nothing() {
    let metrics = MetricsRegistry::new();
    metrics.incr("dht.ops");
    metrics.observe("search.files_per_query", 3);
    let ((), allocs) = allocs_during(|| {
        for value in 0..100 {
            metrics.incr("dht.ops");
            metrics.observe("search.files_per_query", value);
        }
    });
    // Both names exist, so nothing is allocated. It was 200 while every
    // call allocated its name.
    assert_eq!(allocs, 0, "200 recordings made {allocs} allocations");
    assert_eq!(metrics.counter("dht.ops"), 101);
    let snapshot = metrics.snapshot();
    let (_, files) = &snapshot.histograms()[0];
    assert_eq!(files.count(), 101);
}
