//! Allocation budget of a warm client round.
//!
//! `client_allocs_per_op` in the benchmark is an exact count, and the
//! `RemoteDht` round is most of it on the cluster workloads. This suite
//! pins the round's own share where a regression is cheapest to see: on
//! a warm client over a replicated loopback cluster, how many heap
//! allocations the *calling thread* makes for one quorum read, for one
//! 16-get wave, for a read that finds nothing, and — the client's whole
//! stack on top of the round — for one three-level index search and one
//! lookup of a file's MSD.
//!
//! What a warm round is entitled to allocate is what it hands back — the
//! result vector, one `Vec<Bytes>` per read (the one replica of its
//! quorum that ships the entry; the others answer with a digest, which
//! owns no heap), and one shared buffer per value-carrying reply frame
//! (every value of a frame is a slice of it) — plus the round's list of
//! leased connections. Routing state, request frames and reply staging
//! all live in buffers kept from call to call. A service that read an
//! entry before asks for it conditionally, and an unchanged entry comes
//! back as digests: no shared buffer, no value list, and the service's
//! own decoded copy of the entry.
//!
//! The count is thread-local, so server, repair and accept threads (and
//! other tests running in parallel) never touch it.

use std::sync::Arc;

use bytes::Bytes;
use p2p_index_core::{CachePolicy, IndexService, IndexTarget, SimpleScheme, StepResponse};
use p2p_index_dht::{Dht, DhtOp, DhtResponse, Key};
use p2p_index_net::{LoopbackCluster, RemoteDht};
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
    // Measured 4: the leased-connection list (1) and, for the one reply
    // that ships the entry, the frame's shared value buffer (2 with an
    // `Arc<Vec<u8>>`-style `Bytes`) and the value list (1). The second
    // replica's reply is a digest and allocates nothing; when it shipped
    // its list as well this read made 7. Slack of 1 for a `Bytes` that
    // shares differently; a second shipped list (+3) or one more copy per
    // value (+3) trips it.
    assert!(allocs <= 5, "unary quorum get made {allocs} allocations");
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
    // Measured 28: the result vector (1), the leased-connection list (1),
    // a shared value buffer for each of the five members' reply frames
    // (5 x 2: each member ships some key of the wave) and one value list
    // for each of the 16 gets — the 16 vouching attempts answer with
    // digests. With both replicas shipping it made 44. Slack of 2.
    assert!(allocs <= 30, "16-get wave made {allocs} allocations");
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
    // shared buffer is ever materialised, neither owns any heap, and what
    // is left is the round's leased-connection list. Any `Bytes` at all
    // would make it 2 or more.
    assert_eq!(allocs, 1, "absent-key get made {allocs} allocations");
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
    // 23 = 12 file names + 3 hit-list growths + 2 for the unary entry
    // probe (the client's result scratch, handed out with the last wave,
    // regrown; the leased-connection list) + 3 per wave (op vector, result
    // vector, leased-connection list) x 2 waves. Every read is conditional
    // and unchanged, so no reply ships a value: no shared buffer, no value
    // list, and each interaction's entries are the memo's (`Arc` bumps).
    // It was 58 while every read shipped its entry, 77 while every
    // interaction built a target list. No slack: any value list (+1 per
    // read) or an allocating `covers` (+12) trips it.
    assert!(allocs <= 23, "3-level search made {allocs} allocations");
    cluster.shutdown();
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
    // 1 = the leased-connection list of the one quorum round: both
    // replicas answer "unchanged" (no buffer, no list) and the step hands
    // out the memo's entry. It was 5 while the entry was shipped and
    // copied into a list of its own. No slack: a shipped entry is +3.
    assert!(allocs <= 1, "warm MSD lookup made {allocs} allocations");
    cluster.shutdown();
}
