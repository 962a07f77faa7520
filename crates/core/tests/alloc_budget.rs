//! Allocation budget of a warm in-process lookup.
//!
//! The paper's user reaches a file through a chain of lookups, each
//! answered cache-first from the serving node's shortcut slot (§IV-C). On
//! a warm service over the in-process ring, one such `lookup_step`
//! allocates nothing, whichever way the node answers:
//!
//! * a **shortcut hit** hands out the slot's one target, a refcount bump;
//! * a **miss** reads the entry conditionally through the entry memo: the
//!   ring answers "unchanged" with a digest, which owns no heap, and the
//!   step hands out the memo's decoded copy.
//!
//! The count is thread-local, so other tests running in parallel never
//! touch it.

use p2p_index_core::{CachePolicy, IndexService, IndexTarget, SimpleScheme};
use p2p_index_dht::RingDht;
use p2p_index_testkit::{allocs_during, Counting};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The Figure 1 article of the paper.
const FIGURE_1: &str = "<article><author><first>John</first><last>Smith</last></author>\
     <title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>";

/// A 64-node ring under LRU(30) shortcut caches with Figure 1 published,
/// with its MSD and the conference query that leads to it.
fn figure_1_service() -> (IndexService<RingDht>, Query, Query) {
    let mut service = IndexService::new(RingDht::with_named_nodes(64), CachePolicy::Lru(30));
    let descriptor = Descriptor::parse(FIGURE_1).expect("Figure 1 parses");
    let msd = service
        .publish(&descriptor, "fig-1.pdf", &SimpleScheme)
        .expect("publish on a healthy ring");
    let conf: Query = "/article/conf/SIGCOMM".parse().expect("test query parses");
    (service, msd, conf)
}

#[test]
fn a_warm_lookup_step_answered_by_a_shortcut_allocates_nothing() {
    let (mut service, msd, conf) = figure_1_service();
    let node = service.lookup_step(&conf).expect("healthy lookup").node;
    let target = IndexTarget::Query(msd);
    let path = [(node.expect("a live node served it"), conf.clone())];
    assert_eq!(service.create_shortcuts(&path, &target), 1);
    // Warm: the node-load table and the LRU clock have seen this query.
    for _ in 0..3 {
        service.lookup_step(&conf).expect("healthy lookup");
    }
    let (step, allocs) = allocs_during(|| service.lookup_step(&conf));
    let step = step.expect("healthy lookup");
    assert_eq!(step.cached, Some(target));
    assert!(step.indexed.is_empty(), "a shortcut answers alone");
    // It was 1 while the probe copied its hit into a one-element list.
    assert_eq!(allocs, 0, "warm shortcut hit made {allocs} allocations");
}

#[test]
fn a_warm_lookup_step_that_misses_the_cache_allocates_nothing() {
    let (mut service, _, conf) = figure_1_service();
    // Warm: the first lookup decodes the entry into the memo, the rest
    // read it back conditionally.
    for _ in 0..3 {
        service.lookup_step(&conf).expect("healthy lookup");
    }
    let (step, allocs) = allocs_during(|| service.lookup_step(&conf));
    let step = step.expect("healthy lookup");
    assert_eq!(step.cached, None);
    assert_eq!(step.indexed.len(), 1, "SIGCOMM leads to its one conf+year");
    assert_eq!(allocs, 0, "warm cache miss made {allocs} allocations");
}
