//! Oracle test: an index target stored under `h(from)` as a splice against
//! `from` reads back as the target itself.
//!
//! Every edge `(from, to)` the four schemes emit over the simulation's
//! 5 000-article corpus is encoded as publish stores it
//! (`IndexTarget::to_bytes_under`) and decoded as a lookup of `from` reads
//! it (`IndexTarget::from_bytes_under`); the two must give back `to`. A
//! covering pair that is not `from` plus branches goes through
//! `insert_mapping` in the full `Q:` form and reads back the same way.

use p2p_index_core::{
    CachePolicy, ComplexScheme, Fig4Scheme, FlatScheme, IndexScheme, IndexService, IndexTarget,
    SimpleScheme,
};
use p2p_index_dht::{Dht, RingDht};
use p2p_index_workload::{Corpus, CorpusConfig};
use p2p_index_xpath::Query;

/// The simulation's corpus at 5 000 articles (`Simulation::corpus_config`).
fn corpus_config(articles: usize) -> CorpusConfig {
    CorpusConfig {
        articles,
        author_pool: (articles / 3).max(16),
        ..CorpusConfig::default()
    }
}

/// Decodes every edge of every scheme over `corpus` from the bytes its
/// `from` key stores; returns how many edges there were and how many were
/// stored as splices, and the bytes stored against the full forms'.
fn round_trip(corpus: &Corpus) -> ([usize; 2], [usize; 2]) {
    let schemes: [&dyn IndexScheme; 4] = [&SimpleScheme, &ComplexScheme, &FlatScheme, &Fig4Scheme];
    let (mut edges, mut spliced, mut stored, mut full) = (0, 0, 0, 0);
    for article in corpus.articles() {
        let descriptor = article.descriptor();
        let msd = Query::most_specific(&descriptor);
        for scheme in schemes {
            for (from, to) in scheme.index_edges(&descriptor, &msd) {
                let target = IndexTarget::Query(to);
                let value = target.to_bytes_under(&from);
                let decoded = IndexTarget::from_bytes_under(&from, &value);
                assert_eq!(decoded.as_ref(), Ok(&target), "{}: {from}", scheme.name());
                assert_eq!(
                    IndexTarget::query_len_of(&value),
                    Some(target.encoded_len())
                );
                assert!(value.len() <= target.encoded_len(), "never longer");
                edges += 1;
                spliced += usize::from(value[0] == b'S');
                stored += value.len();
                full += target.encoded_len();
            }
        }
    }
    ([edges, spliced], [stored, full])
}

#[test]
fn every_edge_of_every_scheme_decodes_to_its_target() {
    let corpus = Corpus::generate(corpus_config(5_000));
    let ([edges, spliced], [stored, full]) = round_trip(&corpus);
    // Each scheme's `to` is its `from` plus branches, so every edge is
    // stored as a splice, and at well under two thirds of its full bytes.
    assert_eq!(spliced, edges, "{spliced} of {edges} edges spliced");
    assert!(3 * stored < 2 * full, "{stored} of {full} bytes");
}

#[test]
fn edges_among_several_authors_decode_to_their_targets() {
    // Sibling `author` subtrees: the embedding must pick the right one.
    let corpus = Corpus::generate(CorpusConfig {
        extra_author_prob: 0.6,
        ..corpus_config(500)
    });
    let ([edges, spliced], _) = round_trip(&corpus);
    assert!(
        spliced * 10 >= edges * 9,
        "{spliced} of {edges} edges spliced"
    );
}

#[test]
fn a_covering_pair_that_is_no_extension_is_stored_in_full_and_read_back() {
    let from: Query = "/article[title*=Rout]".parse().unwrap();
    let to: Query = "/article[conf/INFOCOM][title/\"Adaptive Routing\"]"
        .parse()
        .unwrap();
    let extension: Query = "/article[conf/SIGCOMM][title*=Rout]".parse().unwrap();
    let mut service = IndexService::new(RingDht::with_named_nodes(8), CachePolicy::None);
    service.insert_mapping(from.clone(), to.clone()).unwrap();
    service
        .insert_mapping(from.clone(), extension.clone())
        .unwrap();
    let key = IndexService::<RingDht>::key_of(&from);
    let mut stored = service.dht().get(&key);
    stored.sort();
    let full = IndexTarget::Query(to.clone()).to_bytes();
    let splice = IndexTarget::Query(extension.clone()).to_bytes_under(&from);
    assert_eq!(stored, [full.clone(), splice.clone()]);
    assert!(full.starts_with(b"Q:") && splice.starts_with(b"S"));
    let read = service.lookup_step(&from).unwrap();
    let mut targets: Vec<&Query> = read
        .indexed
        .iter()
        .filter_map(IndexTarget::as_query)
        .collect();
    targets.sort();
    assert_eq!(targets, [&to, &extension]);
    // Read without its key's query, a splice is refused, not misread.
    assert!(IndexTarget::from_bytes(&splice).is_err());
}
