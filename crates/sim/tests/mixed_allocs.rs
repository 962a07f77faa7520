//! Client allocations of the benchmark's `cluster-mixed` group, split by
//! op kind.
//!
//! `cluster-mixed`'s count cycle is 300 groups of ten ops,
//!
//! ```text
//! L L L  P(p)  M(p)  L L L  U(h)  M(h)
//! ```
//!
//! on a five-member loopback cluster at R = 3, W = 2, Rq = 2 with the
//! cache off: `L` a lookup of the user model, `P(p)` a re-publish of a
//! stored article, `M(p)` a lookup of its MSD, `U(h)` an unpublish of an
//! article that was never published, `M(h)` a lookup of its MSD. This
//! replays a cut-down cycle of the same shape on a warm client of the same
//! cluster, and pins what each kind allocates on the calling thread. The
//! count is thread-local, so server, repair and accept threads never touch
//! it.

use p2p_index_core::{CachePolicy, IndexService, RetryPolicy, SimpleScheme};
use p2p_index_dht::NodeId;
use p2p_index_net::{LoopbackCluster, RemoteDht};
use p2p_index_sim::simulation::user_search_buffered;
use p2p_index_testkit::{allocs_during, Counting};
use p2p_index_workload::{Corpus, CorpusConfig, StructureMix};
use p2p_index_xpath::Query;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Groups in the cycle: one held-out article each.
const GROUPS: usize = 20;
/// Articles published before the cycle.
const PRELOAD: usize = 60;

/// One op of the cycle.
enum Op {
    /// The user model's lookups of `query` toward article `target`.
    Lookup {
        query: Query,
        target: usize,
    },
    Publish(usize),
    Unpublish(usize),
}

/// The cycle: `L L L P(p) M(p) L L L U(h) M(h)` per group, `p` a stored
/// article (stride 7, coprime to the preload) and `h` a held-out one. The
/// regular lookups walk the paper's query structures in turn.
fn cycle(corpus: &Corpus, msds: &[Query]) -> Vec<Op> {
    let structures = StructureMix::paper_simulation();
    let structures = structures.weights();
    let mut regular = (0..).map(|i: usize| {
        let target = (11 * i + 3) % PRELOAD;
        let structure = &structures[i % structures.len()].0;
        Op::Lookup {
            query: structure.query_for(&corpus.articles()[target]),
            target,
        }
    });
    let probe = |target: usize| Op::Lookup {
        query: msds[target].clone(),
        target,
    };
    let mut ops = Vec::new();
    for j in 0..GROUPS {
        let (stored, held_out) = ((7 * j) % PRELOAD, PRELOAD + j);
        ops.extend(regular.by_ref().take(3));
        ops.extend([Op::Publish(stored), probe(stored)]);
        ops.extend(regular.by_ref().take(3));
        ops.extend([Op::Unpublish(held_out), probe(held_out)]);
    }
    ops
}

/// The user model's scratch buffers — its lookup path and its
/// generalizations — kept across passes, as a benchmark run keeps them.
type Scratch = (Vec<(NodeId, Query)>, Vec<Query>);

/// Allocations per kind — lookups, publishes, unpublishes — of one pass
/// over `ops`, each op's checked against what the cycle expects.
fn run(
    service: &mut IndexService<RemoteDht>,
    (corpus, msds): (&Corpus, &[Query]),
    ops: &[Op],
    (path, generalizations): &mut Scratch,
) -> [u64; 3] {
    let mut allocs = [0; 3];
    for op in ops {
        match op {
            Op::Lookup { query, target } => {
                let article = &corpus.articles()[*target];
                let file = article.file_name();
                let (outcome, n) = allocs_during(|| {
                    user_search_buffered(
                        service,
                        query,
                        &msds[*target],
                        &file,
                        path,
                        generalizations,
                    )
                });
                assert_eq!(outcome.found, *target < PRELOAD, "{query}");
                allocs[0] += n;
            }
            Op::Publish(a) | Op::Unpublish(a) => {
                let article = &corpus.articles()[*a];
                let (descriptor, file) = (article.descriptor(), article.file_name());
                let publish = matches!(op, Op::Publish(_));
                let (msd, n) = allocs_during(|| {
                    if publish {
                        service.publish(&descriptor, file.as_str(), &SimpleScheme)
                    } else {
                        service.unpublish(&descriptor, &file, &SimpleScheme)
                    }
                });
                assert_eq!(msd.expect("a write on a healthy cluster"), msds[*a]);
                allocs[1 + usize::from(!publish)] += n;
            }
        }
    }
    allocs
}

#[test]
fn a_warm_mixed_cycle_allocates_only_each_writes_value_buffer() {
    let corpus = Corpus::generate(CorpusConfig {
        articles: PRELOAD + GROUPS,
        author_pool: 24,
        ..CorpusConfig::default()
    });
    let msds: Vec<Query> = corpus
        .articles()
        .iter()
        .map(|a| Query::most_specific(&a.descriptor()))
        .collect();
    let cluster = LoopbackCluster::start_replicated_ring(5, 3, 2).expect("loopback cluster");
    let client = cluster.replicated_client(3, 2);
    let retry = RetryPolicy::with_budget(1, 4);
    let mut service = IndexService::with_retry(client, CachePolicy::None, retry);
    for article in &corpus.articles()[..PRELOAD] {
        service
            .publish(&article.descriptor(), article.file_name(), &SimpleScheme)
            .expect("preload on a healthy cluster");
    }
    let ops = cycle(&corpus, &msds);
    let mut scratch = Scratch::default();
    // Warm: the first pass reads every entry into the memo and looks every
    // MSD up; the second leaves every kept buffer grown.
    for _ in 0..2 {
        run(&mut service, (&corpus, &msds), &ops, &mut scratch);
    }
    let [lookups, publishes, unpublishes] = run(&mut service, (&corpus, &msds), &ops, &mut scratch);
    // Lookups: none. They were 4 a pass while each pass built its own
    // path and generalization buffers: each grew twice (the path to 160
    // and 320 B, the generalizations to 64 and 128 B). Writes: 2 each, the
    // one shared value buffer — the MSD is the one the client looked up,
    // and the index queries are packed into the service's kept buffer.
    // They were 2 + 1 per index query the client had not read while each
    // was frozen (an `Arc` apiece). Exact: one frozen query more is +1.
    assert_eq!(lookups, 0, "{} lookups made {lookups}", 4 * GROUPS * 2);
    assert_eq!(publishes, 2 * GROUPS as u64, "{GROUPS} publishes");
    assert_eq!(unpublishes, 2 * GROUPS as u64, "{GROUPS} unpublishes");
    cluster.shutdown();
}
