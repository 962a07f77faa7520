//! End-to-end loopback integration: the whole indexing stack over TCP.
//!
//! These tests are the crate's reason to exist, condensed: an
//! `IndexService<RemoteDht>` talking to real `dhtd` servers must behave
//! *identically* to the same service over an in-process `RingDht` — same
//! files found, same interaction counts, same message accounting — and
//! the retry layer must absorb loss injected around the client without
//! knowing sockets are involved.

use std::collections::{HashSet, VecDeque};
use std::net::TcpStream;
use std::time::Duration;

use bytes::Bytes;
use p2p_index_core::{CachePolicy, IndexService, IndexTarget, RetryPolicy, SimpleScheme};
use p2p_index_dht::{
    placement, BucketSnapshot, Dht, DhtError, DhtOp, DhtResponse, FaultConfig, FaultyDht, Key,
    NodeId, RingDht,
};
use p2p_index_net::wire::{read_message_with, write_message_with, Message};
use p2p_index_net::{
    ClusterDht, DhtServer, LoopbackCluster, RemoteDht, RemoteDhtConfig, ReplicationConfig,
    ServerConfig,
};
use p2p_index_obs::MetricsRegistry;
use p2p_index_xmldoc::Descriptor;
use p2p_index_xpath::Query;

fn corpus() -> Vec<(Descriptor, String)> {
    let rows = [
        ("John", "Smith", "TCP", "SIGCOMM", "1989"),
        ("Jane", "Smith", "Indexing", "ICDCS", "2004"),
        ("Ada", "Lovelace", "Notes", "LMS", "1843"),
        ("Alan", "Turing", "Machines", "LMS", "1936"),
        ("Paul", "Baran", "Packets", "SIGCOMM", "1989"),
        ("Grace", "Hopper", "Compilers", "ICDCS", "2004"),
    ];
    rows.iter()
        .enumerate()
        .map(|(i, (first, last, title, conf, year))| {
            let xml = format!(
                "<article><author><first>{first}</first><last>{last}</last></author>\
                 <title>{title}</title><conf>{conf}</conf><year>{year}</year></article>"
            );
            (
                Descriptor::parse(&xml).expect("corpus XML parses"),
                format!("file-{i}.pdf"),
            )
        })
        .collect()
}

fn queries() -> Vec<Query> {
    [
        "/article/author[first/John][last/Smith]",
        "/article/title/Notes",
        "/article/conf/SIGCOMM",
        "/article/year/2004",
        "/article/author/last/Smith",
    ]
    .iter()
    .map(|q| q.parse().expect("test query parses"))
    .collect()
}

/// Publishes the corpus and runs the query set, returning per-query
/// `(sorted files, interactions, generalization steps)` plus final stats.
fn drive<D: Dht>(dht: D) -> (Vec<(Vec<String>, u32, u32)>, p2p_index_dht::DhtStats) {
    let mut service = IndexService::new(dht, CachePolicy::Multi);
    for (descriptor, file) in corpus() {
        service
            .publish(&descriptor, &file, &SimpleScheme)
            .expect("publish on a healthy network");
    }
    let mut out = Vec::new();
    for query in queries() {
        let report = service.search(&query).expect("search on a healthy network");
        let mut files: Vec<String> = report.files.iter().map(|f| f.file.clone()).collect();
        files.sort();
        out.push((files, report.interactions, report.generalization_steps));
    }
    (out, service.dht().stats())
}

#[test]
fn index_service_over_sockets_equals_in_process() {
    let cluster = LoopbackCluster::start_ring(5).expect("loopback cluster");
    let (remote_reports, remote_stats) =
        drive(ClusterDht::new(cluster, RemoteDhtConfig::default()));
    let (local_reports, local_stats) = drive(RingDht::with_named_nodes(5));
    assert_eq!(
        remote_reports, local_reports,
        "every query must find the same files with the same interaction counts"
    );
    assert_eq!(
        remote_stats, local_stats,
        "message accounting must be identical over sockets"
    );
}

#[test]
fn net_frames_cross_check_message_accounting() {
    // The pinned convention: every *completed op* counts as 2 messages,
    // whether it travelled alone (one Request/Response frame pair) or
    // pipelined inside a Batch/BatchReply pair with its siblings. So the
    // net.* frame counters, the net.batch.* breakout, and the dht
    // messages counter must agree exactly.
    let cluster = LoopbackCluster::start_ring(3).expect("loopback cluster");
    let metrics = MetricsRegistry::new();
    let mut service = IndexService::new(cluster.client(), CachePolicy::None);
    service.set_metrics(metrics.clone());
    for (descriptor, file) in corpus() {
        service
            .publish(&descriptor, &file, &SimpleScheme)
            .expect("publish on a healthy network");
    }
    for query in queries() {
        service.search(&query).expect("search on a healthy network");
    }

    let frames_out = metrics.counter("net.frames_out");
    let frames_in = metrics.counter("net.frames_in");
    let batch_out = metrics.counter("net.batch.frames_out");
    let batch_in = metrics.counter("net.batch.frames_in");
    let batch_ops = metrics.counter("net.batch.ops");
    let messages = service.dht().stats().messages;
    assert!(frames_out > 0, "the workload must actually hit the wire");
    assert!(
        batch_ops > 0,
        "the multi-get fast path must have pipelined at least one batch"
    );
    assert_eq!(frames_out, frames_in, "every request frame got a response");
    assert_eq!(
        batch_out, batch_in,
        "every batch frame got a batch reply frame"
    );
    let unary_out = frames_out - batch_out;
    let unary_in = frames_in - batch_in;
    assert_eq!(
        unary_out + unary_in + 2 * batch_ops,
        messages,
        "2 messages per completed op: frames and message accounting must agree"
    );
    assert_eq!(
        metrics.counter("dht.messages"),
        messages,
        "registry mirrors the substrate's own accounting"
    );
    assert_eq!(
        cluster.ops_served(),
        unary_out + batch_ops,
        "servers answered exactly the ops the client sent"
    );
    cluster.shutdown();
}

#[test]
fn retry_policy_absorbs_loss_injected_around_the_client() {
    // 20% loss injected around the TCP client: a lost op is a
    // `DhtError::Timeout` whether or not its frame reached a server, and
    // the RetryPolicy that handles an in-process FaultyDht retries it to
    // completion over real sockets.
    let cluster = LoopbackCluster::start_ring(3).expect("loopback cluster");
    let cluster = ClusterDht::new(cluster, RemoteDhtConfig::default());
    let cluster = FaultyDht::new(cluster, FaultConfig::lossy(0xfa, 0.2));
    let mut service =
        IndexService::with_retry(cluster, CachePolicy::Single, RetryPolicy::with_budget(5, 8));
    for (descriptor, file) in corpus() {
        service
            .publish(&descriptor, &file, &SimpleScheme)
            .expect("publish survives 20% loss under an 8-attempt budget");
    }
    let mut found = 0usize;
    for query in queries() {
        found += service
            .search(&query)
            .expect("search survives 20% loss under an 8-attempt budget")
            .files
            .len();
    }
    assert!(found > 0, "searches must still locate files under loss");
    let stats = service.retry_stats();
    assert!(
        stats.retries > 0,
        "20% loss must have forced at least one retry (got {stats:?})"
    );
    assert_eq!(stats.gave_up, 0, "the budget was generous enough");
}

#[test]
fn transport_timeouts_are_retried_like_any_transient_fault() {
    // Point one member at a dead port: every op routed there fails at the
    // transport layer, maps to DhtError::Timeout, and burns its attempt
    // budget — proving socket failures flow through the same retry path.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let members = p2p_index_net::RemoteDht::named_members(&[dead]);
    let client = p2p_index_net::RemoteDht::connect(members, RemoteDhtConfig::default());
    let mut service =
        IndexService::with_retry(client, CachePolicy::None, RetryPolicy::with_budget(1, 3));
    let (descriptor, file) = corpus().remove(0);
    let err = service
        .publish(&descriptor, &file, &SimpleScheme)
        .expect_err("a dead cluster cannot accept publishes");
    let _ = err;
    let stats = service.retry_stats();
    assert!(stats.retries > 0, "transport faults must be retried");
    assert!(stats.gave_up > 0, "the budget must eventually exhaust");
}

#[test]
fn a_traced_search_sends_the_frames_the_untraced_search_sends() {
    // One search path: with a trace recording, every wave still goes out
    // as the same pipelined batch, so the client's accounting and every
    // `net.*` count series (wall-clock `*_micros` histograms aside) match
    // an untraced twin's exactly.
    let run = |traced: bool| {
        let cluster = LoopbackCluster::start_ring(3).expect("loopback cluster");
        let metrics = MetricsRegistry::new();
        let mut client = cluster.client();
        client.set_metrics(metrics.clone());
        let mut service = IndexService::new(client, CachePolicy::None);
        for (descriptor, file) in corpus() {
            service
                .publish(&descriptor, &file, &SimpleScheme)
                .expect("publish on a healthy network");
        }
        let mut reports = Vec::new();
        for query in queries() {
            if traced {
                service.start_trace(format!("twin {query}"));
            }
            let report = service.search(&query).expect("search on a healthy network");
            if traced {
                let trace = service.finish_trace().expect("trace was started");
                assert_eq!(trace.count_spans("lookup "), report.interactions as usize);
            }
            reports.push((report.files.len(), report.interactions));
        }
        let counters: Vec<(String, u64)> = metrics
            .snapshot()
            .counters()
            .iter()
            .filter(|(name, _)| name.starts_with("net."))
            .cloned()
            .collect();
        let stats = service.dht().stats();
        cluster.shutdown();
        (reports, stats, counters)
    };
    let (traced_reports, traced_stats, traced_counters) = run(true);
    let (reports, stats, counters) = run(false);
    assert_eq!(traced_reports, reports);
    assert_eq!(traced_stats, stats);
    assert!(
        counters
            .iter()
            .any(|(name, n)| name == "net.batch.ops" && *n > 0),
        "the searches must ride batched waves: {counters:?}"
    );
    assert_eq!(traced_counters, counters);
}

/// What the node-at-a-time walk sends for `entry`: the unary entry probe,
/// then one `[NodeFor, Get]…` wave per index node with fresh children.
fn per_node_walk(client: &mut RemoteDht, entry: &Query) {
    let key = IndexService::<RemoteDht>::key_of;
    let values = |result: Result<DhtResponse, DhtError>| result.expect("healthy").into_values();
    let mut visited = HashSet::from([entry.clone()]);
    client.execute(DhtOp::NodeFor(key(entry))).expect("healthy");
    let first = values(client.execute(DhtOp::Get(key(entry))));
    let mut queue = VecDeque::from([(entry.clone(), first)]);
    while let Some((node, stored)) = queue.pop_front() {
        let children: Vec<Query> = stored
            .iter()
            .map(|value| {
                IndexTarget::from_bytes_under(&node, value).expect("stored entries decode")
            })
            .filter_map(|target| target.as_query().cloned())
            .filter(|child| visited.insert(child.clone()))
            .collect();
        let wave: Vec<DhtOp> = children
            .iter()
            .flat_map(|child| [DhtOp::NodeFor(key(child)), DhtOp::Get(key(child))])
            .collect();
        if !wave.is_empty() {
            let replies = client.execute_many(wave);
            let read = replies.into_iter().skip(1).step_by(2).map(values);
            queue.extend(children.into_iter().zip(read));
        }
    }
}

#[test]
fn a_search_costs_one_batch_frame_per_member_per_level_not_per_node() {
    // One conference, six years, two articles a year: below the entry the
    // simple scheme has 6 conf+year nodes, then 12 MSDs — 2 index levels,
    // 7 nodes with children.
    const MEMBERS: u64 = 3;
    let cluster = LoopbackCluster::start_ring(MEMBERS as usize).expect("loopback cluster");
    let metrics = MetricsRegistry::new();
    let mut client = cluster.client();
    client.set_metrics(metrics.clone());
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
    let frames = || {
        (
            metrics.counter("net.frames_out"),
            metrics.counter("net.batch.frames_out"),
        )
    };

    let (all_before, batch_before) = frames();
    let report = service.search(&query).expect("search on a healthy network");
    let (all_after, batch_after) = frames();
    assert_eq!(report.files.len(), 12);
    assert_eq!(report.rounds, 3, "entry probe + two index levels");
    let batch_frames = batch_after - batch_before;
    assert!(
        batch_frames <= u64::from(report.rounds - 1) * MEMBERS,
        "{batch_frames} batch frames for {} waves over {MEMBERS} members",
        report.rounds - 1
    );
    // The entry probe's Get travels alone (its NodeFor is answered from
    // the client's member table); every other frame is a level's batch.
    assert_eq!(all_after - all_before, 1 + batch_frames);

    per_node_walk(service.dht_mut(), &query);
    let per_node_frames = frames().0 - all_after;
    assert!(
        all_after - all_before < per_node_frames,
        "level-synchronous {} frames, node-at-a-time {per_node_frames}",
        all_after - all_before
    );
    cluster.shutdown();
}

#[test]
fn an_idle_connection_gives_its_big_read_buffer_back() {
    // One multi-megabyte Transfer grows the connection's read buffer; it
    // must not stay that large for the connection's whole life.
    let metrics = MetricsRegistry::new();
    let server = DhtServer::spawn_partition(
        NodeId::hash_of("node-0"),
        "127.0.0.1:0",
        ServerConfig {
            metrics: metrics.clone(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let big_key = Key::hash_of("big");
    let snapshot = BucketSnapshot {
        live: vec![(big_key, vec![Bytes::from(vec![0xabu8; 2 << 20])])],
        dead: Vec::new(),
    };
    let mut scratch = Vec::new();
    let transfer = Message::Transfer { id: 1, snapshot };
    write_message_with(&mut stream, &transfer, &mut scratch).unwrap();
    let (reply, _) = read_message_with(&mut stream, &mut scratch).unwrap();
    assert_eq!(
        reply,
        Message::Response {
            id: 1,
            result: Ok(DhtResponse::Stored(true))
        }
    );
    assert_eq!(metrics.counter("net.server.buffers_released"), 0);

    // Idle past the read timeout: the next poll tick releases the buffer.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.counter("net.server.buffers_released") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "an idle connection must release its oversized read buffer"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Released once, not once per tick (the tick is 100 ms).
    std::thread::sleep(Duration::from_millis(350));
    assert_eq!(metrics.counter("net.server.buffers_released"), 1);

    // The same connection still serves the next (small) frame.
    let small = Message::Request {
        id: 2,
        op: DhtOp::Get(Key::hash_of("absent")),
    };
    write_message_with(&mut stream, &small, &mut scratch).unwrap();
    let (reply, _) = read_message_with(&mut stream, &mut scratch).unwrap();
    assert_eq!(
        reply,
        Message::Response {
            id: 2,
            result: Ok(DhtResponse::Values(Vec::new()))
        }
    );
    server.shutdown();
}

#[test]
fn values_that_arrived_in_one_batch_frame_are_stored_and_removed_one_by_one() {
    // Sixteen puts ride one Batch frame, so on the server all sixteen
    // decoded values are slices of that frame's payload. Removing fifteen
    // must leave exactly one resident value (which, by the store's
    // residency rule, owns its bytes: nothing of the frame survives).
    let cluster = LoopbackCluster::start_ring(1).unwrap();
    let mut client = cluster.client();
    let key = Key::hash_of("batched-entry");
    let value = |i: usize| Bytes::from(format!("Q:/article/title/t{i}"));
    let puts: Vec<DhtOp> = (0..16)
        .map(|i| DhtOp::Put {
            key,
            value: value(i),
        })
        .collect();
    for result in client.execute_many(puts) {
        assert_eq!(result, Ok(DhtResponse::Stored(true)));
    }
    assert_eq!(cluster.server(0).total_values(), 16);
    let removes: Vec<DhtOp> = (1..16)
        .map(|i| DhtOp::Remove {
            key,
            value: value(i),
        })
        .collect();
    for result in client.execute_many(removes) {
        assert_eq!(result, Ok(DhtResponse::Removed(true)));
    }
    assert_eq!(cluster.server(0).total_values(), 1);
    assert_eq!(Dht::get(&client, &key), vec![value(0)]);
    cluster.shutdown();
}

/// `n` members declared at R = 3 and write quorum `w`, repair off, one
/// registry shared by every member.
fn replicated_ring(n: usize, w: usize, metrics: &MetricsRegistry) -> LoopbackCluster {
    LoopbackCluster::start_with(n, |_, id, ring| {
        let mut replication = ReplicationConfig::new(*id.key(), ring.to_vec(), 3, w);
        replication.repair_interval = None;
        ServerConfig {
            replication: Some(replication),
            metrics: metrics.clone(),
            ..ServerConfig::default()
        }
    })
    .expect("loopback cluster")
}

/// The members (by start index) of `key`'s replica set, primary first.
fn replica_members(cluster: &LoopbackCluster, key: &Key) -> Vec<usize> {
    let members = cluster.members();
    let mut ring: Vec<Key> = members.iter().map(|(id, _)| *id.key()).collect();
    ring.sort_unstable();
    placement::replica_keys(&ring, key, 3)
        .iter()
        .map(|holder| {
            let at = members.iter().position(|(id, _)| id.key() == holder);
            at.expect("a replica is a member")
        })
        .collect()
}

/// `n` keys whose primary is member 0 of `cluster`.
fn keys_on_member_0(cluster: &LoopbackCluster, n: usize) -> Vec<Key> {
    (0..)
        .map(|i| Key::hash_of(&format!("written-{i}")))
        .filter(|key| replica_members(cluster, key)[0] == 0)
        .take(n)
        .collect()
}

/// What `member` holds under `key`, asked directly.
fn held(cluster: &LoopbackCluster, member: usize, key: &Key) -> Vec<Bytes> {
    let only = vec![cluster.members()[member]];
    Dht::get(&RemoteDht::connect(only, RemoteDhtConfig::default()), key)
}

fn put(key: Key, i: usize) -> DhtOp {
    let value = Bytes::from(format!("Q:/article/title/t{i}"));
    DhtOp::Put { key, value }
}

#[test]
fn a_write_wave_sends_each_replica_one_frame_and_no_member_calls_a_peer() {
    // Sixteen writes sharing one replica set: the client frames them once
    // per replica, and each member applies its frame without a hop on.
    let metrics = MetricsRegistry::new();
    let cluster = replicated_ring(5, 2, &metrics);
    let mut client = cluster.client();
    client.set_metrics(metrics.clone());
    let keys = keys_on_member_0(&cluster, 16);
    let puts = keys
        .iter()
        .enumerate()
        .map(|(i, key)| put(*key, i))
        .collect();
    for result in client.execute_many(puts) {
        assert_eq!(result, Ok(DhtResponse::Stored(true)));
    }
    // One batch frame to each of the three replicas, and no repair push.
    assert_eq!(metrics.counter("net.frames_out"), 3);
    assert_eq!(metrics.counter("net.batch.frames_out"), 3);
    assert_eq!(metrics.counter("net.server.batches"), 3);
    assert_eq!(metrics.counter("net.server.replica.repair_pushes"), 0);
    // Every replica applied every write, once.
    assert_eq!(metrics.counter("net.ops.put"), 16);
    assert_eq!(metrics.counter("net.server.ops.put"), 3 * 16);
    assert_eq!(metrics.counter("net.quorum.write_failures"), 0);
    // Accounting stays one pair per settled write.
    assert_eq!(client.stats().messages, 2 * 16);

    // A wave over many replica sets: one frame per member of their union.
    let keys: Vec<Key> = (0..3)
        .map(|i| Key::hash_of(&format!("spread-{i}")))
        .collect();
    let union: HashSet<usize> = keys
        .iter()
        .flat_map(|k| replica_members(&cluster, k))
        .collect();
    let before = metrics.counter("net.frames_out");
    let puts = keys
        .iter()
        .enumerate()
        .map(|(i, key)| put(*key, i))
        .collect();
    client.execute_many(puts);
    assert_eq!(
        metrics.counter("net.frames_out") - before,
        union.len() as u64
    );
    let writes = metrics.counter("net.ops.put") + metrics.counter("net.ops.remove");
    let applied = metrics.counter("net.server.ops.put") + metrics.counter("net.server.ops.remove");
    assert_eq!(applied, 3 * writes, "R applies per settled write");
    assert_eq!(metrics.counter("net.server.replica.repair_pushes"), 0);
    cluster.shutdown();
}

#[test]
fn every_replica_holds_a_write_when_the_call_returns() {
    // Repair is off, so nothing but the write itself can put the value on
    // a replica: a write that reached fewer members would show here.
    let cluster = replicated_ring(5, 2, &MetricsRegistry::disabled());
    let mut client = cluster.replicated_client(3, 2);
    let keys: Vec<Key> = (0..24)
        .map(|i| Key::hash_of(&format!("held-{i}")))
        .collect();
    let puts = keys
        .iter()
        .enumerate()
        .map(|(i, key)| put(*key, i))
        .collect();
    client.execute_many(puts);
    for (i, key) in keys.iter().enumerate() {
        let set = replica_members(&cluster, key);
        for member in 0..5 {
            let want = match set.contains(&member) {
                true => vec![Bytes::from(format!("Q:/article/title/t{i}"))],
                false => Vec::new(),
            };
            assert_eq!(held(&cluster, member, key), want, "key {i} at {member}");
        }
    }
    // A unary remove leaves no replica holding the value either.
    let value = Bytes::from_static(b"Q:/article/title/t0");
    assert!(client.remove(&keys[0], &value));
    for member in replica_members(&cluster, &keys[0]) {
        assert!(held(&cluster, member, &keys[0]).is_empty(), "at {member}");
    }
    cluster.shutdown();
}

#[test]
fn a_write_settles_on_w_of_its_replicas_in_one_round() {
    let metrics = MetricsRegistry::new();
    let mut cluster = replicated_ring(3, 2, &metrics);
    let mut client = cluster.client();
    client.set_metrics(metrics.clone());
    let keys = keys_on_member_0(&cluster, 2);
    let quorum = |name: &str| metrics.counter(&format!("net.quorum.{name}"));
    // The primary is down: the two others apply the write, and answer it.
    cluster.server_mut(0).halt();
    assert_eq!(
        client.execute(put(keys[0], 0)),
        Ok(DhtResponse::Stored(true))
    );
    assert_eq!(client.stats().messages, 2);
    // Two of three down: one replica applies it, short of W = 2. It
    // settles after that one round, with no failover round to try.
    cluster.server_mut(1).halt();
    let replies = metrics.counter("net.frames_in");
    assert_eq!(client.execute(put(keys[1], 1)), Err(DhtError::Timeout));
    assert_eq!(metrics.counter("net.frames_in") - replies, 1);
    assert_eq!((quorum("failovers"), quorum("write_failures")), (0, 1));
    // A replica answered, so the pair completed, as a failed one.
    assert_eq!(client.stats().messages, 4);
    assert_eq!(client.stats().lookups, 1);
    assert_eq!(
        held(&cluster, 2, &keys[1]).len(),
        1,
        "applied where it could be"
    );
    cluster.shutdown();
}

#[test]
fn a_write_answers_new_when_any_replica_applied_it_anew() {
    // Repair is off, so each replica answers from what it holds. These are
    // the states a repair push that overtook the client's frame leaves
    // behind: the pair already on one replica before the put reaches it,
    // or already gone from one before the remove does. Either way another
    // replica applied the write anew, and the write answers so.
    let cluster = replicated_ring(3, 2, &MetricsRegistry::disabled());
    let mut client = cluster.client();
    let key = keys_on_member_0(&cluster, 1)[0];
    let [primary, second, third] = replica_members(&cluster, &key)[..] else {
        unreachable!("three members at R = 3")
    };
    let value = Bytes::from_static(b"Q:/article/title/overtaken");
    let entry = vec![(key, vec![value.clone()])];
    // Only the primary holds the pair: it answers "not new".
    cluster.server(primary).replace_entries(entry);
    let put = DhtOp::Put {
        key,
        value: value.clone(),
    };
    assert_eq!(client.execute(put), Ok(DhtResponse::Stored(true)));
    // Only a non-primary replica holds the pair: the primary answers
    // "not found".
    cluster.server(primary).replace_entries(Vec::new());
    cluster.server(third).replace_entries(Vec::new());
    assert_eq!(held(&cluster, second, &key), vec![value.clone()]);
    let remove = DhtOp::Remove { key, value };
    assert_eq!(client.execute(remove), Ok(DhtResponse::Removed(true)));
    cluster.shutdown();
}

#[test]
fn batched_and_unary_writes_settle_alike_on_their_own_replicas() {
    // Each key is written and then read in one batch (the read asks the
    // primary alone): with members down, every write settles on its own
    // replicas' answers, and a batch settles exactly as the same ops one
    // call at a time.
    let run = |halted: &[usize], batched: bool| {
        let mut cluster = replicated_ring(3, 2, &MetricsRegistry::disabled());
        let ops: Vec<DhtOp> = keys_on_member_0(&cluster, 8)
            .into_iter()
            .enumerate()
            .flat_map(|(i, key)| [put(key, i), DhtOp::Get(key)])
            .collect();
        for &member in halted {
            cluster.server_mut(member).halt();
        }
        let mut client = cluster.client();
        let results = if batched {
            client.execute_many(ops.clone())
        } else {
            ops.iter().map(|op| client.execute(op.clone())).collect()
        };
        let stats = client.stats();
        cluster.shutdown();
        (ops, results, stats)
    };
    for halted in [&[][..], &[1], &[1, 2]] {
        let (ops, results, stats) = run(halted, true);
        let stored = match halted.len() {
            2 => Err(DhtError::Timeout),
            _ => Ok(DhtResponse::Stored(true)),
        };
        for (pair, answers) in ops.chunks(2).zip(results.chunks(2)) {
            let [DhtOp::Put { value, .. }, DhtOp::Get(_)] = pair else {
                unreachable!("a put, then a get of its key")
            };
            assert_eq!(answers[0], stored, "W = 2 with {halted:?} down");
            // The primary applied it either way, so its read sees it.
            let read = Ok(DhtResponse::Values(vec![value.clone()]));
            assert_eq!(answers[1], read);
        }
        let (_, unary_results, unary_stats) = run(halted, false);
        assert_eq!(results, unary_results, "halted {halted:?}");
        assert_eq!(stats, unary_stats, "halted {halted:?}");
    }
}

#[test]
fn a_cluster_declared_with_w_3_makes_its_clients_write_at_w_3() {
    // Five members at R = 3, W = 3, one of them down: a write succeeds
    // only if its whole replica set is up — through `replicated_client`,
    // which takes W from the cluster, batched and unary alike.
    const DOWN: usize = 2;
    let run = |batched: bool| {
        let mut cluster = replicated_ring(5, 3, &MetricsRegistry::disabled());
        cluster.server_mut(DOWN).halt();
        let mut client = cluster.replicated_client(3, 1);
        let ops: Vec<DhtOp> = (0..40)
            .map(|i| put(Key::hash_of(&format!("mixed-{i}")), i))
            .collect();
        let results = if batched {
            client.execute_many(ops.clone())
        } else {
            ops.iter().map(|op| client.execute(op.clone())).collect()
        };
        let whole_set_up: Vec<bool> = ops
            .iter()
            .map(|op| !replica_members(&cluster, op.key()).contains(&DOWN))
            .collect();
        let stats = client.stats();
        cluster.shutdown();
        (results, whole_set_up, stats)
    };
    let (results, whole_set_up, stats) = run(true);
    assert!(whole_set_up.contains(&true) && whole_set_up.contains(&false));
    for (result, up) in results.iter().zip(&whole_set_up) {
        let settled = match up {
            true => Ok(DhtResponse::Stored(true)),
            false => Err(DhtError::Timeout),
        };
        assert_eq!(result, &settled);
    }
    let (unary_results, _, unary_stats) = run(false);
    assert_eq!(results, unary_results);
    assert_eq!(stats, unary_stats);
}
