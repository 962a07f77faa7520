//! Allocation budget of a member's store.
//!
//! A `dhtd` member keeps each key's values in one packed block
//! (`NodeStore`'s module docs), so what it holds is close to the index's
//! own bytes: the 5 000-article corpus costs a member little more than its
//! payload, key and map slot per pair. And the steady state of repair —
//! every pass re-pushes pairs a member holds and re-sends tombstones it
//! recorded — costs no allocation at all: a duplicate is recognised before
//! anything is copied.
//!
//! The counts are thread-local, so other tests running in parallel never
//! touch them.

use bytes::Bytes;
use p2p_index_core::{CachePolicy, IndexService, SimpleScheme};
use p2p_index_dht::{Dht, DhtOp, DhtResponse, Key, NodeId, RingDht, ShardedDht};
use p2p_index_testkit::{allocs_during, live_bytes_during, Counting};
use p2p_index_workload::{Corpus, CorpusConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Member 0 of a five-member replicated ring: a store that keeps arc sums
/// and records tombstones.
fn member() -> ShardedDht {
    let ring = (0..5).map(|i| Key::hash_of(&format!("node-{i}"))).collect();
    ShardedDht::with_ring(NodeId::hash_of("node-0"), ring)
}

#[test]
fn a_duplicate_put_and_a_resent_tombstone_allocate_nothing() {
    let dht = member();
    let key = Key::hash_of("k");
    let frame = Bytes::from(vec![7u8; 4096]);
    // Three values of three lengths, all slices of one decoded frame.
    let value = |at: usize| frame.slice(at..at + 40 + at / 100);
    let op = |at: usize, remove: bool| {
        let value = value(at);
        if remove {
            DhtOp::Remove { key, value }
        } else {
            DhtOp::Put { key, value }
        }
    };
    for at in [0, 100, 200] {
        assert_eq!(
            dht.execute_shared(op(at, false)),
            Ok(DhtResponse::Stored(true))
        );
    }
    for at in [0, 100, 200] {
        let (put, allocs) = allocs_during(|| dht.execute_shared(op(at, false)));
        assert_eq!(put, Ok(DhtResponse::Stored(false)));
        assert_eq!(allocs, 0, "a duplicate put made {allocs} allocations");
        let (pushed, allocs) = allocs_during(|| dht.put_unless_dead(key, &value(at)));
        assert_eq!(pushed, Some(false));
        assert_eq!(allocs, 0, "a pushed duplicate made {allocs} allocations");
    }
    assert_eq!(
        dht.execute_shared(op(100, true)),
        Ok(DhtResponse::Removed(true))
    );
    let (again, allocs) = allocs_during(|| dht.execute_shared(op(100, true)));
    assert_eq!(again, Ok(DhtResponse::Removed(false)));
    assert_eq!(allocs, 0, "a re-sent tombstone made {allocs} allocations");
    assert_eq!(dht.total_values(), 2);
}

/// Bytes a member held per stored pair of the corpus while each value was
/// a `Bytes` of its own (a 40-byte shared header and the value's buffer)
/// in a `Vec<Bytes>` per key (four 32-byte slots on its first push) under
/// a 56-byte map slot: this test's figure on that store.
const UNPACKED_BYTES_PER_PAIR: f64 = 259.5;

/// Bytes a member holds per stored pair of the corpus now that each
/// key's values are one packed block and each query target is a splice
/// against its key's query: this test's figure (151.8 while every query
/// target was stored in full).
const PACKED_BYTES_PER_PAIR: f64 = 110.2;

/// Every `(key, value)` pair publishing the 5 000-article corpus stores —
/// the benchmark's cluster corpus under the simple scheme.
fn corpus_pairs() -> Vec<(Key, Vec<Bytes>)> {
    let corpus = Corpus::generate(CorpusConfig {
        articles: 5_000,
        author_pool: 5_000 / 3,
        ..CorpusConfig::default()
    });
    let mut service = IndexService::new(RingDht::with_named_nodes(1), CachePolicy::None);
    for article in corpus.articles() {
        service
            .publish(&article.descriptor(), article.file_name(), &SimpleScheme)
            .expect("publish on a healthy ring");
    }
    service.dht().entries()
}

#[test]
fn a_member_holds_the_corpus_in_packed_blocks() {
    let entries = corpus_pairs();
    let mut ops: Vec<DhtOp> = entries
        .iter()
        .flat_map(|(key, values)| values.iter().map(|value| (*key, value.clone())))
        .map(|(key, value)| DhtOp::Put { key, value })
        .collect();
    let pairs = ops.len();
    let payload: usize = entries.iter().flat_map(|(_, v)| v).map(Bytes::len).sum();
    let dht = member();
    let (stored, live) = live_bytes_during(|| {
        let puts = ops.drain(..).map(|op| dht.execute_shared(op));
        puts.filter(|put| *put == Ok(DhtResponse::Stored(true)))
            .count()
    });
    assert_eq!(stored, pairs);
    assert_eq!(dht.total_keys(), entries.len());
    let per_pair = live as f64 / pairs as f64;
    println!(
        "{pairs} pairs on {} keys, {:.1} B of payload per pair: {per_pair:.1} B held per pair",
        entries.len(),
        payload as f64 / pairs as f64
    );
    assert!(
        per_pair <= 1.01 * PACKED_BYTES_PER_PAIR,
        "a member holds {per_pair:.1} B per pair, over 1 % above {PACKED_BYTES_PER_PAIR} \
         ({UNPACKED_BYTES_PER_PAIR} before values were packed)"
    );
}
