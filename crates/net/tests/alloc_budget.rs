//! Allocation budget of a warm client round.
//!
//! `client_allocs_per_op` in the benchmark is an exact count, and the
//! `RemoteDht` round is most of it on the cluster workloads. This suite
//! pins the round's own share where a regression is cheapest to see: on
//! a warm client over a replicated loopback cluster, how many heap
//! allocations the *calling thread* makes for one quorum read, for one
//! 16-get wave, for a read that finds nothing, and — the client's whole
//! stack on top of the round — for one three-level index search, one
//! lookup of a file's MSD, and one publish and unpublish of an article
//! (the write path: its MSD, its index edges and their wave, which the
//! client sends to every replica of each key itself), by a client that
//! never read the article, by one that read its MSD and index queries,
//! and by one that looked up only its MSD, as the benchmark's mixed
//! cycle does.
//!
//! What a warm round is entitled to allocate is what it hands back — the
//! result vector, one `Vec<Bytes>` per read (the one replica of its
//! quorum that ships the entry; the others answer with a digest, which
//! owns no heap), and one shared buffer per value-carrying reply frame
//! (every value of a frame is a slice of it) — and nothing else. Routing
//! state, request frames, reply staging and the list of frames in flight
//! (each holding the link it checked out of its member's slot) all live
//! in buffers kept from call to call. A service that read an entry before
//! asks for it conditionally, and an unchanged entry comes back as
//! digests: no shared buffer, no value list, and the service's own
//! decoded copy of the entry. A unary call hands its one result back out
//! of the reused result vector, so a warm read of an absent or unchanged
//! entry allocates nothing at all. The service builds each wave in op and
//! result vectors it keeps (`Dht::execute_many_into`). A write's values
//! — an unpublish's file and all its remove waves included — are slices
//! of one shared buffer, and the unpublish cascade reads digests, which
//! own no heap, where it read lists. A write freezes only the MSD it hands
//! back, and only when the client has not read it: every other index
//! query is the client's copy or packed into a buffer the service keeps.
//!
//! The count is thread-local, so server, repair and accept threads (and
//! other tests running in parallel) never touch it.

use std::sync::Arc;

use bytes::Bytes;
use p2p_index_core::{
    CachePolicy, IndexScheme, IndexService, IndexTarget, SimpleScheme, StepResponse,
};
use p2p_index_dht::{Dht, DhtOp, DhtResponse, Key};
use p2p_index_net::{ClusterDht, LoopbackCluster, RemoteDht, RemoteDhtConfig};
use p2p_index_testkit::{allocs_during, Counting};
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Five members, R = 3, W = 2, read at Rq = 2 — the benchmark's cluster.
fn warm_cluster() -> (LoopbackCluster, RemoteDht) {
    let cluster = LoopbackCluster::start_replicated_ring(5, 3, 2).expect("loopback cluster");
    let client = cluster.replicated_client(3, 2);
    (cluster, client)
}

fn wave_key(i: usize) -> Key {
    Key::hash_of(&format!("wave-{i}"))
}

#[test]
fn a_warm_unary_quorum_get_stays_inside_its_budget() {
    let (cluster, mut client) = warm_cluster();
    let key = Key::hash_of("three-values");
    let values: Vec<Bytes> = (0..3)
        .map(|i| Bytes::from(format!("Q:/article/author/last/name-{i}")))
        .collect();
    for value in &values {
        assert!(client.put(key, value.clone()));
    }
    // Warm: connections dialed, frame buffers and call scratch grown.
    for _ in 0..3 {
        client.execute(DhtOp::Get(key)).unwrap();
    }
    let (got, allocs) = allocs_during(|| client.execute(DhtOp::Get(key)));
    let mut got = got.unwrap().into_values();
    got.sort();
    assert_eq!(got, values);
    // Measured 3: for the one reply that ships the entry, the frame's
    // shared value buffer (2 with an `Arc<Vec<u8>>`-style `Bytes`) and the
    // value list (1). The second replica's reply is a digest and allocates
    // nothing. It was 4 while each round built a list of the links it had
    // leased, and 7 when the second replica shipped its list as well. No
    // slack: a second shipped list (+3), one more copy per value (+3) or
    // a per-round list (+1) trips it.
    assert!(allocs <= 3, "unary quorum get made {allocs} allocations");
    cluster.shutdown();
}

#[test]
fn a_warm_sixteen_get_wave_stays_inside_its_budget() {
    let (cluster, mut client) = warm_cluster();
    for i in 0..16 {
        for v in 0..2 {
            assert!(client.put(wave_key(i), Bytes::from(format!("Q:/wave/{i}/{v}"))));
        }
    }
    let wave = || (0..16).map(|i| DhtOp::Get(wave_key(i))).collect::<Vec<_>>();
    for _ in 0..3 {
        client.execute_many(wave());
    }
    let ops = wave();
    let (results, allocs) = allocs_during(|| client.execute_many(ops));
    for (i, result) in results.into_iter().enumerate() {
        assert_eq!(result.unwrap().into_values().len(), 2, "wave-{i}");
    }
    // Measured 27: the result vector (1), a shared value buffer for each
    // of the five members' reply frames (5 x 2: each member ships some key
    // of the wave) and one value list for each of the 16 gets — the 16
    // vouching attempts answer with digests. It was 28 with the round's
    // leased-link list, 44 with both replicas shipping. No slack.
    assert!(allocs <= 27, "16-get wave made {allocs} allocations");
    cluster.shutdown();
}

#[test]
fn a_get_of_an_absent_key_allocates_no_bytes_at_all() {
    let (cluster, mut client) = warm_cluster();
    let absent = Key::hash_of("nobody-published-this");
    for _ in 0..3 {
        assert_eq!(
            client.execute(DhtOp::Get(absent)),
            Ok(DhtResponse::Values(Vec::new()))
        );
    }
    let (got, allocs) = allocs_during(|| client.execute(DhtOp::Get(absent)));
    assert_eq!(got, Ok(DhtResponse::Values(Vec::new())));
    // Two value-free replies, an empty list and the digest of one: no
    // shared buffer is ever materialised, neither owns any heap, and the
    // round keeps its links in its reused scratch. It was 1 while each
    // round built a list of leased links. Any `Bytes` at all would make it
    // 2 or more.
    assert_eq!(allocs, 0, "absent-key get made {allocs} allocations");
    cluster.shutdown();
}

#[test]
fn a_warm_three_level_search_stays_inside_its_budget() {
    // One conference, six years, two articles a year: the search walks
    // conf -> 6 conf+year nodes -> 12 MSDs, 19 interactions in 3 rounds.
    let (cluster, client) = warm_cluster();
    let mut service = IndexService::new(client, CachePolicy::None);
    for i in 0..12 {
        let xml = format!(
            "<article><author><first>A{i}</first><last>L{i}</last></author>\
             <title>T{i}</title><conf>ICDCS</conf><year>{}</year></article>",
            2000 + i / 2
        );
        let descriptor = Descriptor::parse(&xml).expect("corpus XML parses");
        service
            .publish(&descriptor, format!("file-{i}.pdf"), &SimpleScheme)
            .expect("publish on a healthy network");
    }
    let query: Query = "/article/conf/ICDCS".parse().expect("test query parses");
    // Warm: connections, frame buffers, the BFS and wave scratch, and the
    // service's key table and entry memo.
    for _ in 0..3 {
        service.search(&query).expect("search on a healthy network");
    }
    let (report, allocs) = allocs_during(|| service.search(&query));
    let report = report.expect("search on a healthy network");
    assert_eq!((report.files.len(), report.interactions), (12, 19));
    // 13 = 12 file names + 1 hit list (sized once for the MSD level's 12
    // files). The unary entry probe and both waves allocate nothing: the
    // service keeps each wave's op and result vectors, and the client
    // moves its results out of a vector it keeps. Every read is
    // conditional and unchanged, so no reply ships a value: no shared
    // buffer, no value list, and each interaction's entries are the
    // memo's (`Arc` bumps). It was 18 while each wave built its op and
    // result vectors (+4) and the client handed its result vector out with
    // a wave and regrew it for the probe (+1), 23 while each round built a
    // list of leased links (+3) and the hit list grew one hit at a time
    // (+2), 58 while every read shipped its entry, 77 while every
    // interaction built a target list. Exact: any value list (+1 per
    // read), a wave vector (+1) or an allocating `covers` (+12) moves it.
    assert_eq!(allocs, 13, "3-level search made {allocs} allocations");
    cluster.shutdown();
}

/// The allocations of a warm search over `dht`, on the three-level index
/// of [`a_warm_three_level_search_stays_inside_its_budget`].
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
            .expect("publish on a healthy network");
    }
    let query: Query = "/article/conf/ICDCS".parse().expect("test query parses");
    for _ in 0..3 {
        service.search(&query).expect("search on a healthy network");
    }
    let (report, allocs) = allocs_during(|| service.search(&query));
    assert_eq!(report.expect("healthy search").files.len(), 12);
    allocs
}

#[test]
fn a_cluster_substrate_runs_a_wave_in_the_services_kept_vectors() {
    // `ClusterDht` is a `RemoteDht` that owns its cluster: its waves must
    // cost what the client's do (13). It was 23 while it left
    // `execute_many_into` to the trait default, which takes the service's
    // op vector and has the client hand its round's result vector out for
    // each wave, so both regrow.
    let (cluster, client) = warm_cluster();
    let remote = warm_search_allocs(client);
    cluster.shutdown();
    let cluster = LoopbackCluster::start_replicated_ring(5, 3, 2).expect("loopback cluster");
    let config = RemoteDhtConfig {
        replicas: 3,
        read_quorum: 2,
        write_quorum: Some(2),
    };
    let owned = warm_search_allocs(ClusterDht::new(cluster, config));
    assert_eq!(
        owned, remote,
        "a ClusterDht search made {owned}, a RemoteDht one {remote}"
    );
}

#[test]
fn a_warm_msd_lookup_shares_the_file_handle_with_the_decode_memo() {
    let (cluster, client) = warm_cluster();
    let mut service = IndexService::new(client, CachePolicy::None);
    let descriptor = Descriptor::parse(
        "<article><author><first>A</first><last>L</last></author>\
         <title>T</title><conf>ICDCS</conf><year>2000</year></article>",
    )
    .expect("corpus XML parses");
    let msd = service
        .publish(&descriptor, "only.pdf", &SimpleScheme)
        .expect("publish on a healthy network");
    let file = |step: StepResponse| -> Arc<str> {
        match &step.indexed[..] {
            [IndexTarget::File(f)] => Arc::clone(f),
            other => panic!("an MSD holds its one file, got {other:?}"),
        }
    };
    // The first lookup decodes the value into the entry memo; the rest
    // warm the client's buffers.
    let first = file(service.lookup_step(&msd).expect("healthy lookup"));
    for _ in 0..2 {
        service.lookup_step(&msd).expect("healthy lookup");
    }
    let (step, allocs) = allocs_during(|| service.lookup_step(&msd));
    let again = file(step.expect("healthy lookup"));
    assert_eq!(&*again, "only.pdf");
    // Both lookups handed out the memo's one handle, not a copy each.
    assert!(Arc::ptr_eq(&first, &again), "a memo hit is a refcount bump");
    // Nothing: both replicas of the one quorum round answer "unchanged"
    // (no buffer, no list), the round keeps its links in its reused
    // scratch, and the step hands out the memo's entry. It was 1 while
    // each round built a list of leased links, and 5 while the entry was
    // shipped and copied into a list of its own. A shipped entry is +3.
    assert_eq!(allocs, 0, "warm MSD lookup made {allocs} allocations");
    cluster.shutdown();
}

/// The Figure 1 article of the paper.
const FIGURE_1: &str = "<article><author><first>John</first><last>Smith</last></author>\
     <title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>";

#[test]
fn a_warm_publish_and_unpublish_stay_inside_their_budgets() {
    let (cluster, client) = warm_cluster();
    let mut service = IndexService::new(client, CachePolicy::None);
    let descriptor = Descriptor::parse(FIGURE_1).expect("Figure 1 parses");
    // Warm: connections, frame buffers, the encode scratch and this
    // thread's query draft.
    for _ in 0..3 {
        service
            .publish(&descriptor, "fig-1.pdf", &SimpleScheme)
            .expect("publish on a healthy network");
        service
            .unpublish(&descriptor, "fig-1.pdf", &SimpleScheme)
            .expect("unpublish on a healthy network");
    }
    let (msd, publish) = allocs_during(|| service.publish(&descriptor, "fig-1.pdf", &SimpleScheme));
    let msd = msd.expect("publish on a healthy network");
    let (again, unpublish) =
        allocs_during(|| service.unpublish(&descriptor, "fig-1.pdf", &SimpleScheme));
    assert_eq!(again.expect("unpublish on a healthy network"), msd);
    // The client read nothing, so it builds every query, but it freezes
    // only the one it hands back. Measured 3 = the MSD (1: the frozen
    // query's one buffer) + the wave's values (2: the file and the three
    // distinct targets — author+title, conf+year, the MSD — encoded into
    // one buffer, of which each value is a slice: one shared copy). The
    // scheme's six index queries are packed into the service's kept query
    // buffer, not frozen, and hashed and encoded from there; the authors
    // are walked from the descriptor, and the edge, op and result vectors
    // are kept. It was 9 while each index query was frozen into an `Arc`
    // of its own (+6); 10 while the scheme collected the author list
    // (+1); 24 while a frozen query was three allocations, its node array
    // and text apart from its `Arc` (+2 for each of the 7 queries); 33
    // while each distinct value was a buffer of its own (+6), the edge
    // vector was built per call (+1) and the wave built its two vectors
    // (+2); 45 while each index query was built in a `QueryBuilder` of its
    // own (+12); 114 while every query was a pointer tree. Exact: an index
    // query frozen again is +1, a wave vector +1.
    assert_eq!(publish, 3, "a warm publish made {publish} allocations");
    // Measured 3 = the MSD (1) + the values (2: the file's handle and the
    // three distinct targets, encoded once into one buffer of which the
    // file's remove and every remove wave take slices). The six index
    // queries are packed, as the publish packs them, and the cascade's
    // `(from, to)` keys are hashed from the packed texts. Its read waves
    // ask each target's quorum for a digest, which owns no heap: pass 1
    // reads the two entries still holding the MSD, pass 2 the two it
    // emptied, and no reply frame ships a value. It was 9 while each index
    // query was frozen (+6); 18 = the MSD (1) + the edges with a collected
    // author list (7) + the file's handle in a buffer of its own (2) + the
    // cascade (8: pass 1's read wave fetched its two entries, two value
    // lists and the reply frame's shared buffer, 4, and each of the two
    // remove waves encoded its entries into a buffer of its own, 2 + 2);
    // 32 while a frozen query was three allocations (+2 for each of the 7
    // queries); 43 while each wave built its two vectors (+8), pass 2's
    // two entries were a buffer each (+2) and the file's remove regrew the
    // client's result vector, handed out with the wave before (+1); 55
    // with per-query builders (+12); 113 while the cascade re-read every
    // edge's target in unary exchanges until a pass removed nothing, and
    // 175 before that. Exact: one more wave vector is +1, a shipped entry
    // +3, an index query frozen +1.
    assert_eq!(
        unpublish, 3,
        "a warm unpublish made {unpublish} allocations"
    );
    cluster.shutdown();
}

#[test]
fn a_write_of_what_the_client_read_builds_no_query_again() {
    let (cluster, client) = warm_cluster();
    let mut service = IndexService::new(client, CachePolicy::None);
    let descriptor = Descriptor::parse(FIGURE_1).expect("Figure 1 parses");
    let msd = service
        .publish(&descriptor, "fig-1.pdf", &SimpleScheme)
        .expect("publish on a healthy network");
    // The client looks up the article's MSD and every index query of its
    // edges, so its table of known queries holds them all, hashed.
    let edges = SimpleScheme.index_edges(&descriptor, &msd);
    let node_queries = edges.iter().map(|(from, _)| from);
    for query in std::iter::once(&msd).chain(node_queries) {
        service.lookup_step(query).expect("healthy lookup");
    }
    for _ in 0..3 {
        service
            .unpublish(&descriptor, "fig-1.pdf", &SimpleScheme)
            .expect("unpublish on a healthy network");
        service
            .publish(&descriptor, "fig-1.pdf", &SimpleScheme)
            .expect("publish on a healthy network");
    }
    let (again, unpublish) =
        allocs_during(|| service.unpublish(&descriptor, "fig-1.pdf", &SimpleScheme));
    let again = again.expect("unpublish on a healthy network");
    let (published, publish) =
        allocs_during(|| service.publish(&descriptor, "fig-1.pdf", &SimpleScheme));
    let published = published.expect("publish on a healthy network");
    // Both writes hand back the copy the table holds, not a new one.
    assert!(std::ptr::eq(
        again.canonical_text(),
        published.canonical_text()
    ));
    assert_eq!(published, msd);
    // The 3 and 3 of a client that read nothing, less its MSD: the MSD
    // and the six index queries are the table's, with the keys it kept,
    // so none is packed, frozen or hashed again. What is left is each
    // write's one shared value buffer (2). They were 3 and 11 while the
    // scheme collected the author list (+1 each) and the unpublish fetched
    // its cascade's entries and encoded its file's handle and each remove
    // wave's entries apart (+8). They did not move when a frozen query
    // went from three allocations to one, nor when the index queries the
    // table lacks came to be packed: they freeze nothing. Exact: a query
    // frozen again is +1.
    assert_eq!(publish, 2, "a publish of a read article made {publish}");
    assert_eq!(
        unpublish, 2,
        "an unpublish of a read article made {unpublish}"
    );
    cluster.shutdown();
}

#[test]
fn a_client_that_looked_up_only_the_msd_writes_with_its_value_buffer_alone() {
    // The benchmark's `cluster-mixed` writes: `P(p)` re-announces a stored
    // article whose MSD the client has looked up (`M(p)`), and `U(h)`
    // removes an article that was never published, whose MSD the client
    // has looked up too (`M(h)`, which finds nothing). The client read no
    // index query of either.
    let (cluster, client) = warm_cluster();
    let mut service = IndexService::new(client, CachePolicy::None);
    let stored = Descriptor::parse(FIGURE_1).expect("Figure 1 parses");
    let never = Descriptor::parse(
        "<article><author><first>Ada</first><last>Byron</last></author>\
         <title>Notes</title><conf>ICDCS</conf><year>2004</year></article>",
    )
    .expect("test XML parses");
    let msd = service
        .publish(&stored, "fig-1.pdf", &SimpleScheme)
        .expect("publish on a healthy network");
    let absent = Query::most_specific(&never);
    assert_eq!(
        service
            .lookup_step(&msd)
            .expect("healthy lookup")
            .indexed
            .len(),
        1
    );
    assert!(service
        .lookup_step(&absent)
        .expect("healthy lookup")
        .indexed
        .is_empty());
    // Warm: connections, frame buffers, the encode and query buffers.
    for _ in 0..3 {
        service
            .publish(&stored, "fig-1.pdf", &SimpleScheme)
            .expect("publish on a healthy network");
        service
            .unpublish(&never, "never.pdf", &SimpleScheme)
            .expect("unpublish on a healthy network");
    }
    let (published, publish) =
        allocs_during(|| service.publish(&stored, "fig-1.pdf", &SimpleScheme));
    let published = published.expect("publish on a healthy network");
    let (removed, unpublish) =
        allocs_during(|| service.unpublish(&never, "never.pdf", &SimpleScheme));
    let removed = removed.expect("unpublish on a healthy network");
    // Both hand back the table's MSD, and neither freezes anything else.
    assert!(std::ptr::eq(
        published.canonical_text(),
        msd.canonical_text()
    ));
    assert_eq!(removed, absent);
    // 2 each: the write's one shared value buffer. The MSD is the table's
    // and its six index queries are packed into the service's kept buffer.
    // Exact: an index query frozen is +1, the MSD frozen +1.
    assert_eq!(
        publish, 2,
        "a re-publish after an MSD lookup made {publish}"
    );
    assert_eq!(
        unpublish, 2,
        "an unpublish of a never-published article made {unpublish}"
    );
    cluster.shutdown();
}
