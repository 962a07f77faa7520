//! Oracle test: the level-synchronous `IndexService::search` against a
//! node-at-a-time reference BFS.
//!
//! `search` sends one batched wave per index level. The reference below
//! is the loop it replaced — pop one node, look its fresh children up,
//! push the replies, repeat — written on the public unary
//! `lookup_step_bypassing_cache`. FIFO order is level order, so on a
//! fault-free substrate the two must agree on everything observable:
//! the files and their order, the interaction and generalization counts,
//! and every side-effect ledger (`DhtStats`, `Traffic`, per-node load).
//! Only the number of sequential waves differs, and `SearchReport::rounds`
//! pins that to the depth of the walk.

use std::collections::{HashSet, VecDeque};

use p2p_index_core::scheme::{Node, AUTHOR, AUTHOR_TITLE, CONF, CONF_YEAR, TITLE, YEAR};
use p2p_index_core::{
    BiblioFields, CachePolicy, ComplexScheme, FileHit, FlatScheme, IndexScheme, IndexService,
    IndexTarget, RetryPolicy, SimpleScheme, StepResponse,
};
use p2p_index_dht::{ChordNetwork, Dht, FaultConfig, FaultyDht, Key, RingDht, SplitMix64};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

const FIRSTS: [&str; 4] = ["John", "Jane", "Alan", "Ada"];
const LASTS: [&str; 4] = ["Smith", "Doe", "Turing", "Hopper"];
const TITLES: [&str; 9] = [
    "TCP", "IPv6", "Wavelets", "Indexing", "Routing", "Caching", "Hashing", "Gossip", "Paxos",
];
const CONFS: [&str; 3] = ["SIGCOMM", "INFOCOM", "ICDCS"];
const YEARS: [&str; 4] = ["1989", "1996", "2003", "2004"];

fn pick<'a>(rng: &mut SplitMix64, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_index(pool.len())]
}

/// A seeded bibliographic corpus from small pools, so authors, titles,
/// conferences and years are shared between articles; every eighth
/// article repeats its predecessor's descriptor (two files, one MSD).
fn corpus(seed: u64, articles: usize) -> Vec<(Descriptor, String)> {
    let mut rng = SplitMix64::new(seed);
    let mut xml = String::new();
    (0..articles)
        .map(|i| {
            if i % 8 != 7 {
                xml = format!(
                    "<article><author><first>{}</first><last>{}</last></author>\
                     <title>{}</title><conf>{}</conf><year>{}</year></article>",
                    pick(&mut rng, &FIRSTS),
                    pick(&mut rng, &LASTS),
                    pick(&mut rng, &TITLES),
                    pick(&mut rng, &CONFS),
                    pick(&mut rng, &YEARS),
                );
            }
            (
                Descriptor::parse(&xml).expect("corpus XML parses"),
                format!("file-{i}.pdf"),
            )
        })
        .collect()
}

/// Queries at every index level of one article, the MSD itself, and
/// three shapes no scheme indexes (so the search has to generalize).
fn queries_about(descriptor: &Descriptor) -> Vec<Query> {
    let f = BiblioFields::of(descriptor);
    let author = &f.authors().next().expect("an author");
    let (first, last) = author;
    let (title, conf, year) = (
        f.title.as_ref().expect("title"),
        f.conf.as_ref().expect("conf"),
        f.year.as_ref().expect("year"),
    );
    let parse = |text: String| text.parse::<Query>().expect("test query parses");
    let node = |node: Node| f.query(node, Some(author)).expect("a full descriptor");
    vec![
        node(AUTHOR),
        node(TITLE),
        node(CONF),
        node(YEAR),
        node(CONF_YEAR),
        node(AUTHOR_TITLE),
        Query::most_specific(descriptor),
        parse(format!(
            "/article[author[first/{first}][last/{last}]][year/{year}]"
        )),
        parse(format!("/article[title/{title}][conf/{conf}]")),
        parse(format!(
            "/article[author/last/{last}][conf/{conf}][year/{year}]"
        )),
    ]
}

/// What the node-at-a-time walk reports.
struct Reference {
    files: Vec<FileHit>,
    interactions: u32,
    generalization_steps: u32,
    /// Generalization levels probed.
    generalization_levels: u32,
    /// Depth of the deepest index node fetched below the entry points.
    index_levels: u32,
}

/// The per-node BFS `search` used to be: one node dequeued, its fresh
/// children looked up, their replies enqueued. Kept as the reference the
/// level-synchronous search is compared against.
fn per_node_bfs<D: Dht>(service: &mut IndexService<D>, query: &Query) -> Reference {
    let mut lookup = |q: &Query| -> StepResponse {
        service
            .lookup_step_bypassing_cache(q)
            .expect("lookup on a healthy network")
    };
    let mut r = Reference {
        files: Vec::new(),
        interactions: 1,
        generalization_steps: 0,
        generalization_levels: 0,
        index_levels: 0,
    };
    let first = lookup(query);
    let not_indexed = first.indexed.is_empty();
    let mut visited = HashSet::from([query.clone()]);
    let mut queue = VecDeque::from([(query.clone(), first, 0u32)]);
    if not_indexed {
        let mut seen = HashSet::new();
        let mut frontier = query.generalizations();
        'generalize: while !frontier.is_empty() {
            let mut level = std::mem::take(&mut frontier);
            level.retain(|g| seen.insert(g.clone()));
            r.generalization_levels += 1;
            r.generalization_steps += level.len() as u32;
            r.interactions += level.len() as u32;
            // The whole level is probed before any reply is looked at.
            let replies: Vec<StepResponse> = level.iter().map(&mut lookup).collect();
            for (g, resp) in level.into_iter().zip(replies) {
                if resp.indexed.is_empty() {
                    frontier.extend(g.generalizations());
                } else if visited.insert(g.clone()) {
                    queue.push_back((g, resp, 0));
                    break 'generalize;
                }
            }
        }
    }
    while let Some((current, resp, depth)) = queue.pop_front() {
        for target in resp.all_targets() {
            match target {
                IndexTarget::File(file) => {
                    let hit = FileHit {
                        msd: current.clone(),
                        file: file.to_string(),
                    };
                    if query.covers(&current) && !r.files.contains(&hit) {
                        r.files.push(hit);
                    }
                }
                IndexTarget::Query(child) => {
                    if visited.insert(child.clone()) {
                        r.interactions += 1;
                        r.index_levels = r.index_levels.max(depth + 1);
                        queue.push_back((child.clone(), lookup(child), depth + 1));
                    }
                }
            }
        }
    }
    r
}

fn populated<D: Dht>(
    dht: D,
    articles: &[(Descriptor, String)],
    scheme: &dyn IndexScheme,
    retry: RetryPolicy,
) -> IndexService<D> {
    let mut service = IndexService::with_retry(dht, CachePolicy::None, retry);
    for (descriptor, file) in articles {
        service
            .publish(descriptor, file, scheme)
            .expect("publish on a healthy network");
    }
    service
}

fn node_keys(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::hash_of(&format!("node-{i}"))).collect()
}

/// Longest chain below an entry point, in index levels.
fn schemes() -> [(&'static dyn IndexScheme, u32); 3] {
    [(&SimpleScheme, 2), (&FlatScheme, 1), (&ComplexScheme, 3)]
}

/// Twin services over identical substrates and corpora: one runs
/// `search`, the other the reference walk; everything observable must
/// agree after every query.
fn assert_search_matches_reference<D: Dht>(substrate: &str, make: impl Fn() -> D) {
    for seed in [3u64, 17, 40] {
        let articles = corpus(seed, 40);
        for (scheme, scheme_depth) in schemes() {
            let mut level_sync = populated(make(), &articles, scheme, RetryPolicy::none());
            let mut reference = populated(make(), &articles, scheme, RetryPolicy::none());
            let mut deepest = 0;
            let mut generalized = 0;
            let mut shared_msds = 0;
            for (descriptor, _) in articles.iter().step_by(7) {
                for query in queries_about(descriptor) {
                    let at = format!("{substrate}/{}/seed {seed}: {query}", scheme.name());
                    let report = level_sync.search(&query).expect("healthy search");
                    let expected = per_node_bfs(&mut reference, &query);
                    assert_eq!(report.files, expected.files, "{at}: files, in order");
                    assert_eq!(report.interactions, expected.interactions, "{at}");
                    assert_eq!(
                        report.generalization_steps, expected.generalization_steps,
                        "{at}"
                    );
                    assert!(!report.is_partial(), "{at}");
                    assert_eq!(
                        report.rounds,
                        1 + expected.generalization_levels + expected.index_levels,
                        "{at}: one round per level"
                    );
                    assert!(expected.index_levels <= scheme_depth, "{at}");
                    assert_eq!(level_sync.dht().stats(), reference.dht().stats(), "{at}");
                    assert_eq!(level_sync.traffic(), reference.traffic(), "{at}");
                    assert_eq!(
                        level_sync.node_query_counts(),
                        reference.node_query_counts(),
                        "{at}"
                    );
                    deepest = deepest.max(expected.index_levels);
                    generalized += u32::from(report.generalized());
                    shared_msds += report
                        .files
                        .windows(2)
                        .filter(|pair| pair[0].msd == pair[1].msd)
                        .count();
                }
            }
            // The query set must actually reach what it is meant to pin.
            assert_eq!(deepest, scheme_depth, "{substrate}/{}", scheme.name());
            assert!(generalized > 0, "{substrate}/{}", scheme.name());
            assert!(shared_msds > 0, "{substrate}/{}", scheme.name());
        }
    }
}

#[test]
fn level_synchronous_search_equals_per_node_bfs_on_every_substrate() {
    assert_search_matches_reference("ring", || RingDht::from_ids(node_keys(24)));
    assert_search_matches_reference("chord", || ChordNetwork::with_perfect_tables(node_keys(24)));
}

/// Under 20 % loss with an 8-attempt budget a search still terminates,
/// never invents a file, keeps one `lookup` span per interaction, and
/// keeps its round count inside the depth bound.
fn assert_lossy_search_is_sound<D: Dht>(substrate: &str, make: impl Fn() -> D) {
    let articles = corpus(17, 40);
    for (scheme, scheme_depth) in schemes() {
        let mut healthy = populated(make(), &articles, scheme, RetryPolicy::none());
        let mut lossy = populated(
            FaultyDht::transparent(make()),
            &articles,
            scheme,
            RetryPolicy::with_budget(5, 8),
        );
        lossy
            .dht_mut()
            .set_fault_config(FaultConfig::lossy(11, 0.2));
        for (descriptor, _) in articles.iter().step_by(7) {
            for query in queries_about(descriptor) {
                let at = format!("{substrate}/{}: {query}", scheme.name());
                let truth = healthy.search(&query).expect("healthy search").files;
                lossy.start_trace(format!("lossy {query}"));
                let report = lossy.search(&query).expect("search itself cannot fail");
                let trace = lossy.finish_trace().expect("trace was started");
                for hit in &report.files {
                    assert!(truth.contains(hit), "{at}: {hit:?} is not in the answer");
                }
                if report.files.len() < truth.len() {
                    assert!(report.is_partial(), "{at}: missing files must be flagged");
                }
                assert_eq!(
                    trace.count_spans("lookup "),
                    report.interactions as usize,
                    "{at}: one lookup span per interaction"
                );
                assert_eq!(
                    trace.count_spans("wave: ") + 1,
                    report.rounds as usize,
                    "{at}: every round after the entry probe is one wave"
                );
                // At most one generalization level per predicate dropped.
                assert!(
                    report.rounds <= 1 + query.size() as u32 + scheme_depth,
                    "{at}: {} rounds",
                    report.rounds
                );
            }
        }
        assert!(
            lossy.retry_stats().retries > 0,
            "{substrate}/{}: 20% loss must cost retries",
            scheme.name()
        );
    }
}

#[test]
fn lossy_search_terminates_with_a_subset_of_the_answer() {
    assert_lossy_search_is_sound("ring", || RingDht::from_ids(node_keys(24)));
    assert_lossy_search_is_sound("chord", || ChordNetwork::with_perfect_tables(node_keys(24)));
}

/// A service that has read every entry before answers exactly like a
/// fresh one over the same stored state: same report, same `Traffic`, same
/// `DhtStats` — its entry memo changes what crosses the substrate (a
/// digest instead of an unchanged list), never what a search finds or is
/// charged. Checked query by query against a fresh service over a copy of
/// the warm one's ring, across publishes and unpublishes that change the
/// entries the memo holds.
#[test]
fn a_warm_service_answers_like_a_fresh_one_across_publish_and_unpublish() {
    let articles = corpus(29, 48);
    let (held_back, published) = articles.split_at(8);
    for (scheme, _) in schemes() {
        let mut warm = populated(
            RingDht::from_ids(node_keys(24)),
            published,
            scheme,
            RetryPolicy::none(),
        );
        let queries: Vec<Query> = articles
            .iter()
            .step_by(5)
            .flat_map(|(descriptor, _)| queries_about(descriptor))
            .collect();
        let check = |warm: &mut IndexService<RingDht>, phase: &str| {
            for query in &queries {
                let at = format!("{}/{phase}: {query}", scheme.name());
                let mut fresh = IndexService::new(warm.dht().clone(), CachePolicy::None);
                let traffic = *warm.traffic();
                let warm_report = warm.search(query).expect("healthy search");
                let fresh_report = fresh.search(query).expect("healthy search");
                assert_eq!(
                    format!("{warm_report:?}"),
                    format!("{fresh_report:?}"),
                    "{at}"
                );
                let moved = warm.traffic();
                assert_eq!(
                    (
                        moved.normal_bytes - traffic.normal_bytes,
                        moved.cache_bytes - traffic.cache_bytes,
                        moved.messages - traffic.messages,
                    ),
                    (
                        fresh.traffic().normal_bytes,
                        fresh.traffic().cache_bytes,
                        fresh.traffic().messages,
                    ),
                    "{at}: traffic"
                );
                // The copy started from the warm ring's counters.
                assert_eq!(warm.dht().stats(), fresh.dht().stats(), "{at}: stats");
            }
        };
        // Cold, then warm: every entry the second pass reads is memoised.
        check(&mut warm, "cold");
        check(&mut warm, "warm");
        // New articles add values under entries the memo holds (shared
        // authors, titles, conferences, years) and create new entries.
        for (descriptor, file) in held_back {
            warm.publish(descriptor, file, scheme).expect("publish");
        }
        check(&mut warm, "after publish");
        // Unpublishing shrinks some held entries and empties others.
        for (descriptor, file) in published.iter().step_by(3) {
            warm.unpublish(descriptor, file, scheme).expect("unpublish");
        }
        check(&mut warm, "after unpublish");
        // One article back, another gone, between two reads: an entry that
        // loses one value and gains another keeps its count, and only its
        // digest can tell.
        let back = published.iter().step_by(3);
        let gone = published.iter().skip(1).step_by(3);
        for ((descriptor, file), (other, other_file)) in back.zip(gone) {
            warm.publish(descriptor, file, scheme).expect("publish");
            warm.unpublish(other, other_file, scheme)
                .expect("unpublish");
        }
        check(&mut warm, "after swapping");
    }
}
