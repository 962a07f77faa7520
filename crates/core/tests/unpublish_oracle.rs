//! Oracle test: `IndexService::unpublish`'s semi-naive cascade against
//! the naive fixpoint it replaced.
//!
//! The reference below is that fixpoint, one unary exchange per op:
//! remove the file, then pass over every index edge — read its target
//! key, and remove the edge when the target holds nothing — until a pass
//! removes nothing. The cascade reads each target key once, re-reads
//! only what a removal may have emptied, and sends each pass as one read
//! wave and one remove wave. From the same store, the two must leave
//! every key holding the same values, and the cascade may not cost more
//! messages. Stores are seeded with the dangling edges an interrupted
//! unpublish leaves behind, so "the same store" includes those.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use p2p_index_core::{
    CachePolicy, ComplexScheme, Fig4Scheme, FlatScheme, IndexScheme, IndexService, IndexTarget,
    SimpleScheme,
};
use p2p_index_dht::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, Key, NodeId, RingDht};
use p2p_index_testkit::{for_each_case, Rng, StdRng};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

const FIRSTS: [&str; 3] = ["John", "Jane", "Alan"];
const LASTS: [&str; 3] = ["Smith", "Doe", "Turing"];
const TITLES: [&str; 4] = ["TCP", "IPv6", "Wavelets", "Paxos"];
const CONFS: [&str; 2] = ["SIGCOMM", "INFOCOM"];
const YEARS: [&str; 2] = ["1989", "1996"];

/// Articles per store.
const ARTICLES: usize = 8;

/// A ring that fails every op once `budget` ops were answered: an
/// unpublish cut off there is an interrupted one. Unlimited by default.
#[derive(Debug, Clone)]
struct Cutoff {
    ring: RingDht,
    budget: usize,
}

impl Cutoff {
    fn new() -> Self {
        Cutoff {
            ring: RingDht::with_named_nodes(16),
            budget: usize::MAX,
        }
    }

    fn answer(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        if self.budget == 0 {
            return Err(DhtError::Timeout);
        }
        self.budget -= 1;
        self.ring.execute(op)
    }

    /// Every key with its values sorted: what two stores must agree on.
    fn contents(&self) -> Vec<(Key, Vec<Bytes>)> {
        let mut entries = self.ring.entries();
        for (_, values) in &mut entries {
            values.sort();
        }
        entries
    }
}

impl Dht for Cutoff {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.answer(op)
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        ops.into_iter().map(|op| self.answer(op)).collect()
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.ring.node_for(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.ring.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.ring.get(key)
    }

    fn stats(&self) -> DhtStats {
        self.ring.stats()
    }
}

/// The naive fixpoint `unpublish` ran before its cascade became
/// semi-naive, op for op, straight on the substrate. `Err` is an
/// interrupted run.
fn naive_unpublish(
    dht: &mut impl Dht,
    descriptor: &Descriptor,
    file: &str,
    scheme: &dyn IndexScheme,
) -> Result<(), DhtError> {
    let msd = Query::most_specific(descriptor);
    dht.execute(DhtOp::Remove {
        key: key_of(&msd),
        value: IndexTarget::File(file.into()).to_bytes_under(&msd),
    })?;
    let edges = scheme.index_edges(descriptor, &msd);
    loop {
        let mut changed = false;
        for (from, to) in &edges {
            if dht
                .execute(DhtOp::Get(key_of(to)))?
                .into_values()
                .is_empty()
            {
                let value = IndexTarget::Query(to.clone()).to_bytes_under(from);
                let removed = dht.execute(DhtOp::Remove {
                    key: key_of(from),
                    value,
                })?;
                changed |= removed.into_removed();
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

fn key_of(query: &Query) -> Key {
    IndexService::<Cutoff>::key_of(query)
}

fn schemes() -> [&'static dyn IndexScheme; 4] {
    [&SimpleScheme, &FlatScheme, &ComplexScheme, &Fig4Scheme]
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

/// A descriptor from small pools, so articles share authors, titles,
/// conferences and years; any field may be missing, and there may be
/// zero to two authors.
fn article(rng: &mut StdRng) -> Descriptor {
    let mut xml = String::from("<article>");
    for _ in 0..rng.gen_range(0..=2usize) {
        let (first, last) = (pick(rng, &FIRSTS), pick(rng, &LASTS));
        xml += &format!("<author><first>{first}</first><last>{last}</last></author>");
    }
    for (name, pool) in [("title", &TITLES[..]), ("conf", &CONFS), ("year", &YEARS)] {
        if rng.gen_bool(0.8) {
            xml += &format!("<{name}>{}</{name}>", pick(rng, pool));
        }
    }
    xml += "</article>";
    Descriptor::parse(&xml).expect("generated XML parses")
}

/// An article indexed under its own MSD: its only field is a title, so
/// every scheme's one edge runs from the title query — the MSD — to the
/// MSD.
fn self_loop(rng: &mut StdRng) -> Descriptor {
    let xml = format!("<article><title>{}</title></article>", pick(rng, &TITLES));
    Descriptor::parse(&xml).expect("generated XML parses")
}

/// `ARTICLES` articles with their files; every fourth repeats its
/// predecessor's descriptor (two files, one MSD) and one is a self-loop.
fn corpus(rng: &mut StdRng) -> Vec<(Descriptor, String)> {
    let looped = rng.gen_range(0..ARTICLES);
    let mut articles: Vec<(Descriptor, String)> = Vec::with_capacity(ARTICLES);
    for i in 0..ARTICLES {
        let descriptor = match articles.last() {
            _ if i == looped => self_loop(rng),
            Some((previous, _)) if i % 4 == 3 => previous.clone(),
            _ => article(rng),
        };
        articles.push((descriptor, format!("file-{i}.pdf")));
    }
    articles
}

/// Every published article, then `interrupted` of them unpublished by the
/// reference until a random op budget ran out: the dangling edges an
/// interrupted earlier call leaves.
fn seeded_store(
    rng: &mut StdRng,
    articles: &[(Descriptor, String)],
    scheme: &dyn IndexScheme,
    interrupted: usize,
) -> Cutoff {
    let mut service = IndexService::new(Cutoff::new(), CachePolicy::None);
    for (descriptor, file) in articles {
        service.publish(descriptor, file, scheme).unwrap();
    }
    let mut dht = service.dht().clone();
    for _ in 0..interrupted {
        let (descriptor, file) = &articles[rng.gen_range(0..articles.len())];
        dht.budget = rng.gen_range(0..24);
        let _ = naive_unpublish(&mut dht, descriptor, file, scheme);
    }
    dht.budget = usize::MAX;
    dht
}

/// The keys some stored query value names that hold nothing. A value is
/// decoded against its key's query, which is the `from` of some edge
/// `scheme` emits for `articles`.
fn dangling(dht: &Cutoff, articles: &[(Descriptor, String)], scheme: &dyn IndexScheme) -> Vec<Key> {
    let froms: HashMap<Key, Query> = articles
        .iter()
        .flat_map(|(descriptor, _)| {
            let msd = Query::most_specific(descriptor);
            let edges = scheme.index_edges(descriptor, &msd);
            edges.into_iter().map(|(from, _)| (key_of(&from), from))
        })
        .collect();
    let entries = dht.ring.entries();
    let held: HashSet<Key> = entries
        .iter()
        .filter(|(_, values)| !values.is_empty())
        .map(|(key, _)| *key)
        .collect();
    entries
        .iter()
        .flat_map(|(key, values)| values.iter().map(move |value| (key, value)))
        .filter(|(_, value)| !value.starts_with(b"F:"))
        .map(|(key, value)| {
            let from = &froms[key];
            IndexTarget::from_bytes_under(from, value).expect("a stored query value decodes")
        })
        .map(|to| key_of(to.as_query().expect("a query target")))
        .filter(|key| !held.contains(key))
        .collect()
}

#[test]
fn the_cascade_leaves_the_naive_fixpoints_store_for_fewer_messages() {
    for_each_case(|rng| {
        let articles = corpus(rng);
        for scheme in schemes() {
            let interrupted = rng.gen_range(0..=2);
            let seeded = seeded_store(rng, &articles, scheme, interrupted);
            let mut reference = seeded.clone();
            let mut service = IndexService::new(seeded, CachePolicy::None);
            for _ in 0..ARTICLES / 2 {
                let (descriptor, file) = &articles[rng.gen_range(0..articles.len())];
                let before = (reference.stats().messages, service.dht().stats().messages);
                naive_unpublish(&mut reference, descriptor, file, scheme).unwrap();
                service.unpublish(descriptor, file, scheme).unwrap();
                let naive = reference.stats().messages - before.0;
                let cascade = service.dht().stats().messages - before.1;
                assert_eq!(
                    service.dht().contents(),
                    reference.contents(),
                    "{}: unpublish {file}",
                    scheme.name()
                );
                assert!(
                    cascade <= naive,
                    "{}: unpublish {file} cost {cascade} messages, the naive fixpoint {naive}",
                    scheme.name()
                );
            }
        }
    });
}

#[test]
fn rerunning_an_interrupted_unpublish_leaves_no_dangling_edge() {
    for_each_case(|rng| {
        let articles = corpus(rng);
        for scheme in schemes() {
            let seeded = seeded_store(rng, &articles, scheme, 0);
            assert!(
                dangling(&seeded, &articles, scheme).is_empty(),
                "a fresh store dangles"
            );
            let mut reference = seeded.clone();
            let mut service = IndexService::new(seeded, CachePolicy::None);
            let (descriptor, file) = &articles[rng.gen_range(0..articles.len())];
            service.dht_mut().budget = rng.gen_range(0..16);
            let cut = service.unpublish(descriptor, file, scheme);
            service.dht_mut().budget = usize::MAX;
            service.unpublish(descriptor, file, scheme).unwrap();
            assert!(
                dangling(service.dht(), &articles, scheme).is_empty(),
                "{}: {file} (first run: {cut:?})",
                scheme.name()
            );
            naive_unpublish(&mut reference, descriptor, file, scheme).unwrap();
            assert_eq!(service.dht().contents(), reference.contents());
        }
    });
}

#[test]
fn a_self_loop_survives_its_own_unpublish_in_both() {
    for_each_case(|rng| {
        let descriptor = self_loop(rng);
        let msd = Query::most_specific(&descriptor);
        for scheme in schemes() {
            let edges = scheme.index_edges(&descriptor, &msd);
            assert_eq!(edges, [(msd.clone(), msd.clone())], "{}", scheme.name());
            let mut service = IndexService::new(Cutoff::new(), CachePolicy::None);
            service.publish(&descriptor, "loop.pdf", scheme).unwrap();
            let mut reference = service.dht().clone();
            naive_unpublish(&mut reference, &descriptor, "loop.pdf", scheme).unwrap();
            service.unpublish(&descriptor, "loop.pdf", scheme).unwrap();
            let contents = service.dht().contents();
            assert_eq!(contents, reference.contents());
            // The MSD still names itself: its key is never empty.
            let self_entry = IndexTarget::Query(msd.clone()).to_bytes_under(&msd);
            assert_eq!(contents, [(key_of(&msd), vec![self_entry])]);
        }
    });
}
