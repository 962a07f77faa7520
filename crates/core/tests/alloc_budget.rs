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
//! When a query is not indexed the user generalizes it (§IV-B), and a warm
//! client takes each generalization it derived before from its table of
//! known queries: no allocation either. Publishing builds the scheme's node
//! queries in the thread's draft, so each costs only what the query keeps,
//! and a node query the writer's table holds costs nothing.
//!
//! The count is thread-local, so other tests running in parallel never
//! touch it.

use std::collections::HashMap;

use p2p_index_core::{
    CachePolicy, IndexScheme, IndexService, IndexTarget, ShortcutCache, SimpleScheme,
};
use p2p_index_dht::{BalanceConfig, Dht, FaultyDht, Key, RingDht, SplitDht};
use p2p_index_testkit::{allocs_during, Counting};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::{KnownQueries, Query};

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

#[test]
fn a_warm_generalization_through_the_known_queries_allocates_nothing() {
    let (mut service, msd, _) = figure_1_service();
    let mut generalizations = Vec::new();
    service.generalizations_into(&msd, &mut generalizations);
    assert_eq!(
        generalizations,
        msd.generalizations(),
        "same queries, same order"
    );
    let first = generalizations.clone();
    generalizations.clear();
    let (_, allocs) = allocs_during(|| service.generalizations_into(&msd, &mut generalizations));
    assert_eq!(generalizations, first);
    // It was 3 per generalization (15 for the Figure 1 MSD's five
    // branches) while every one was frozen anew.
    assert_eq!(allocs, 0, "warm generalization made {allocs} allocations");
}

#[test]
fn a_scheme_builds_each_node_query_with_only_what_it_keeps() {
    let descriptor = Descriptor::parse(FIGURE_1).expect("Figure 1 parses");
    let msd = Query::most_specific(&descriptor);
    let warm = SimpleScheme.index_edges(&descriptor, &msd);
    let (edges, allocs) = allocs_during(|| SimpleScheme.index_edges(&descriptor, &msd));
    assert_eq!(edges, warm);
    // Simple's six field-set nodes for one author (author, title, conf,
    // year, author+title, conf+year), each built once: one allocation
    // apiece, the frozen query's buffer, plus the edge list. The authors
    // are walked from the descriptor; collecting them into a list was +1.
    // It was 3 apiece while a frozen query kept its node array and text
    // apart from its `Arc`, and 5 while each was built in a
    // `QueryBuilder`'s own draft.
    let mut nodes: Vec<&Query> = edges.iter().flat_map(|(from, to)| [from, to]).collect();
    nodes.retain(|q| **q != msd);
    nodes.sort();
    nodes.dedup();
    assert_eq!(nodes.len(), 6);
    assert_eq!(allocs, nodes.len() as u64 + 1, "index_edges");
}

/// A find-only table of queries by canonical text, as a writer consults
/// the queries it has read.
struct Held(HashMap<String, Query>);

impl KnownQueries for Held {
    fn find(&mut self, text: &str) -> Option<Query> {
        self.0.get(text).cloned()
    }

    fn add(&mut self, _query: &Query) {}
}

#[test]
fn a_scheme_takes_every_node_query_its_table_holds() {
    let descriptor = Descriptor::parse(FIGURE_1).expect("Figure 1 parses");
    let msd = Query::most_specific(&descriptor);
    let plain = SimpleScheme.index_edges(&descriptor, &msd);
    let queries = plain.iter().flat_map(|(from, to)| [from, to]);
    let mut held = Held(
        queries
            .map(|q| (q.canonical_text().to_string(), q.clone()))
            .collect(),
    );
    let mut edges = Vec::with_capacity(plain.len());
    let (_, allocs) =
        allocs_during(|| SimpleScheme.index_edges_into(&descriptor, &msd, &mut held, &mut edges));
    assert_eq!(edges, plain);
    // Nothing: every node query is the table's (an `Arc` bump), the edge
    // vector is the caller's, kept, and the authors are walked from the
    // descriptor. It was 1 while they were collected into a list. Each
    // query frozen again would be +1.
    assert_eq!(allocs, 0, "index_edges_into made {allocs}");
}

#[test]
fn a_full_lru_cache_churns_without_allocating() {
    // A full LRU(30) cache evicts a key for every install, and the slots
    // its evictions free wear the map's room down until it rehashes. A map
    // sized only for what it holds grew then, once, at a moment its random
    // hash seed chose: one allocation in some runs of a benchmark cycle and
    // none in others. Each cache below draws a seed of its own.
    let target = IndexTarget::File("churned.pdf".into());
    let keys: Vec<Key> = (0..10_030)
        .map(|i| Key::hash_of(&format!("churn-{i}")))
        .collect();
    for cache in 0..32 {
        let mut lru = ShortcutCache::with_capacity(30);
        for key in &keys[..30] {
            lru.insert(*key, target.clone());
        }
        assert!(lru.is_full());
        let (_, allocs) = allocs_during(|| {
            for key in &keys[30..] {
                lru.insert(*key, target.clone());
            }
        });
        assert_eq!(lru.len(), 30);
        assert_eq!(allocs, 0, "cache {cache}: 10 000 installs made {allocs}");
    }
}

/// Allocations of a warm three-level search (`/article/conf/ICDCS` → its
/// conf+year entries → twelve MSDs → their files) through `dht`.
fn warm_search_allocs<D: Dht>(dht: D) -> u64 {
    let mut service = IndexService::new(dht, CachePolicy::None);
    for i in 0..12 {
        let xml = format!(
            "<article><author><first>A{i}</first><last>L{i}</last></author>\
             <title>T{i}</title><conf>ICDCS</conf><year>{}</year></article>",
            2000 + i / 2
        );
        let descriptor = Descriptor::parse(&xml).expect("corpus XML parses");
        service
            .publish(&descriptor, format!("file-{i}.pdf"), &SimpleScheme)
            .expect("publish on a healthy ring");
    }
    let query: Query = "/article/conf/ICDCS".parse().expect("test query parses");
    for _ in 0..3 {
        service.search(&query).expect("search on a healthy ring");
    }
    let (report, allocs) = allocs_during(|| service.search(&query));
    assert_eq!(report.expect("healthy search").files.len(), 12);
    allocs
}

#[test]
fn a_wrapper_runs_a_wave_in_the_services_kept_vectors() {
    // A loss-free `FaultyDht` and an observe-only `SplitDht` hand each
    // wave to the ring whole, and the ring runs it in the service's kept
    // vectors: 13 allocations, all three. It was 20, all three, while
    // each left `execute_many_into` to the trait default, which takes the
    // service's op vector and collects a fresh result vector, so both
    // regrew on every wave.
    let bare = warm_search_allocs(RingDht::with_named_nodes(64));
    assert_eq!(bare, 13, "a warm search over the bare ring made {bare}");
    let faulty = warm_search_allocs(FaultyDht::transparent(RingDht::with_named_nodes(64)));
    assert_eq!(faulty, bare, "through FaultyDht {faulty}, bare {bare}");
    let split = SplitDht::new(RingDht::with_named_nodes(64), BalanceConfig::observe_only());
    let split = warm_search_allocs(split);
    assert_eq!(split, bare, "through SplitDht {split}, bare {bare}");
}
