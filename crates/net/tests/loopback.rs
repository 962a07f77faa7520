//! End-to-end loopback integration: the whole indexing stack over TCP.
//!
//! These tests are the crate's reason to exist, condensed: an
//! `IndexService<RemoteDht>` talking to real `dhtd` servers must behave
//! *identically* to the same service over an in-process `RingDht` — same
//! files found, same interaction counts, same message accounting — and
//! the retry layer must absorb faults injected behind the server without
//! the client knowing sockets are involved.

use std::collections::{HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2p_index_core::{CachePolicy, IndexService, IndexTarget, RetryPolicy, SimpleScheme};
use p2p_index_dht::{
    placement, Dht, DhtError, DhtOp, DhtResponse, FaultConfig, Key, NodeId, RingDht,
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
    let mut client = cluster.client();
    client.set_metrics(metrics.clone());

    let mut service = IndexService::new(client, CachePolicy::None);
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
fn retry_policy_absorbs_faults_injected_behind_the_server() {
    // 20% loss injected *server-side*: the client sees typed DhtError
    // frames come back over the wire and its RetryPolicy — the same one
    // that handles in-process FaultyDht — retries them to completion.
    let cluster = LoopbackCluster::start_lossy_ring(3, 0xfau64, 0.2).expect("loopback cluster");
    let cluster = ClusterDht::new(cluster, RemoteDhtConfig::default());
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
    let client = p2p_index_net::RemoteDht::connect(
        members,
        RemoteDhtConfig {
            connect_timeout: std::time::Duration::from_millis(100),
            ..RemoteDhtConfig::default()
        },
    );
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
    let mut queue = VecDeque::from([values(client.execute(DhtOp::Get(key(entry))))]);
    while let Some(node) = queue.pop_front() {
        let wave: Vec<DhtOp> = node
            .iter()
            .map(|value| IndexTarget::from_bytes(value).expect("stored entries decode"))
            .filter_map(|target| target.as_query().cloned())
            .filter(|child| visited.insert(child.clone()))
            .flat_map(|child| [DhtOp::NodeFor(key(&child)), DhtOp::Get(key(&child))])
            .collect();
        if !wave.is_empty() {
            let replies = client.execute_many(wave);
            queue.extend(replies.into_iter().skip(1).step_by(2).map(values));
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

/// Retries `op` against `client` until the lossy member delivers it.
fn until_delivered(client: &mut RemoteDht, op: DhtOp) -> DhtResponse {
    for _ in 0..200 {
        match client.execute(op.clone()) {
            Ok(response) => return response,
            Err(DhtError::Timeout) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    panic!("200 attempts at 30% loss never delivered {op:?}");
}

#[test]
fn lossy_replicated_cluster_still_blocks_a_stale_transfer_of_a_removed_value() {
    // Fault injection and tombstones used to live in different engines'
    // side tables; now a lossy member is the same store with a roll in
    // front, so its tombstones work like everyone else's.
    let ids: Vec<NodeId> = (0..3)
        .map(|i| NodeId::hash_of(&format!("node-{i}")))
        .collect();
    let listeners: Vec<TcpListener> = ids
        .iter()
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let members: Vec<(NodeId, SocketAddr)> = ids
        .iter()
        .zip(&listeners)
        .map(|(id, l)| (*id, l.local_addr().unwrap()))
        .collect();
    let ring: Vec<(Key, SocketAddr)> = members.iter().map(|(id, a)| (*id.key(), *a)).collect();
    let servers: Vec<DhtServer> = listeners
        .into_iter()
        .zip(&ids)
        .map(|(listener, id)| {
            // Repair runs only when the test says so.
            let mut replication = ReplicationConfig::new(*id.key(), ring.clone(), 3, 2);
            replication.repair_interval = None;
            let config = ServerConfig {
                replication: Some(replication),
                fault: FaultConfig::lossy(0x10557 ^ id.key().low_u64(), 0.3),
                ..ServerConfig::default()
            };
            DhtServer::spawn_partition_on(listener, *id, config).expect("member spawns")
        })
        .collect();
    let mut client = RemoteDht::connect(
        members.clone(),
        RemoteDhtConfig {
            replicas: 3,
            read_quorum: 2,
            ..RemoteDhtConfig::default()
        },
    );

    let key = Key::hash_of("deleted-under-loss");
    let dead = Bytes::from_static(b"Q:/dead");
    let alive = Bytes::from_static(b"Q:/alive");
    let put = DhtOp::Put {
        key,
        value: dead.clone(),
    };
    assert_eq!(until_delivered(&mut client, put), DhtResponse::Stored(true));
    // An `Ok` remove means two members applied it, each recording the
    // tombstone under the same shard guard. Scrub rounds spread it: a
    // member missing it after ten rounds would have had to lose twenty
    // or more re-sent removes at 15% each.
    let remove = DhtOp::Remove {
        key,
        value: dead.clone(),
    };
    until_delivered(&mut client, remove);
    for _ in 0..10 {
        servers.iter().for_each(DhtServer::repair_now);
    }

    // A stale peer pushes the deleted value (and a never-deleted one) at
    // a member, again and again: the member's own loss roll drops some
    // of the puts, its tombstone must drop every copy of `dead`.
    let (target, target_addr) = members[0];
    let mut stream = TcpStream::connect(target_addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut scratch = Vec::new();
    for id in 0..40 {
        let entries = vec![(key, vec![dead.clone(), alive.clone()])];
        let transfer = Message::Transfer { id, entries };
        write_message_with(&mut stream, &transfer, &mut scratch).unwrap();
        let (reply, _) = read_message_with(&mut stream, &mut scratch).unwrap();
        assert!(matches!(reply, Message::Response { .. }));
    }
    let mut solo = RemoteDht::connect(vec![(target, target_addr)], RemoteDhtConfig::default());
    assert_eq!(
        until_delivered(&mut solo, DhtOp::Get(key)),
        DhtResponse::Values(vec![alive]),
        "40 pushes at 30% loss must land the live value and never the tombstoned one"
    );
    for server in servers {
        server.shutdown();
    }
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
            read_timeout: Duration::from_millis(20),
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
    let entries = vec![(big_key, vec![Bytes::from(vec![0xabu8; 2 << 20])])];
    let mut scratch = Vec::new();
    let transfer = Message::Transfer { id: 1, entries };
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
    // Released once, not once per tick.
    std::thread::sleep(Duration::from_millis(100));
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

/// Three members, every key on all three (R = 3, W = 2), repair off, one
/// registry shared by every member.
fn replicated_trio(metrics: &MetricsRegistry) -> LoopbackCluster {
    LoopbackCluster::start_with(3, |_, id, ring| {
        let mut replication = ReplicationConfig::new(*id.key(), ring.to_vec(), 3, 2);
        replication.repair_interval = None;
        ServerConfig {
            replication: Some(replication),
            metrics: metrics.clone(),
            ..ServerConfig::default()
        }
    })
    .expect("loopback cluster")
}

/// `n` keys whose primary is member 0 of `cluster`.
fn keys_on_member_0(cluster: &LoopbackCluster, n: usize) -> Vec<Key> {
    let client = cluster.client();
    let primary = cluster.members()[0].0;
    (0..)
        .map(|i| Key::hash_of(&format!("fan-out-{i}")))
        .filter(|key| client.node_for(key) == Some(primary))
        .take(n)
        .collect()
}

#[test]
fn a_primary_replicates_a_whole_batch_as_one_frame_per_peer() {
    let metrics = MetricsRegistry::new();
    let cluster = replicated_trio(&metrics);
    // Replica-unaware, so the whole batch goes to the keys' primary.
    let mut client = cluster.client();
    let puts: Vec<DhtOp> = keys_on_member_0(&cluster, 16)
        .into_iter()
        .enumerate()
        .map(|(i, key)| DhtOp::Put {
            key,
            value: Bytes::from(format!("Q:/article/title/t{i}")),
        })
        .collect();
    let replica = |series: &str| metrics.counter(&format!("net.server.replica.{series}"));
    for result in client.execute_many(puts) {
        assert_eq!(result, Ok(DhtResponse::Stored(true)));
    }
    assert_eq!(metrics.counter("net.server.batches"), 1, "one client frame");
    assert_eq!(replica("frames"), 2, "one Replicate frame per peer");
    assert_eq!(replica("fanout"), 32, "every write to both peers");
    assert_eq!(replica("acks"), 32);
    assert_eq!(replica("applied"), 32);
    assert_eq!(replica("quorum_failures"), 0);
    for i in 0..3 {
        assert_eq!(cluster.server(i).total_values(), 16, "member {i}");
    }
    cluster.shutdown();
}

#[test]
fn a_batched_fan_out_settles_each_write_on_its_own_acks_like_unary_writes() {
    // Each key is written and then read in one batch at its primary.
    let run = |halted: &[usize], batched: bool| {
        let mut cluster = replicated_trio(&MetricsRegistry::disabled());
        let ops: Vec<DhtOp> = keys_on_member_0(&cluster, 8)
            .into_iter()
            .enumerate()
            .flat_map(|(i, key)| {
                let value = Bytes::from(format!("Q:/article/year/{i}"));
                [DhtOp::Put { key, value }, DhtOp::Get(key)]
            })
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
    for halted in [&[1][..], &[1, 2]] {
        let (ops, results, stats) = run(halted, true);
        let stored = match halted.len() {
            1 => Ok(DhtResponse::Stored(true)),
            _ => Err(DhtError::Timeout),
        };
        for (pair, answers) in ops.chunks(2).zip(results.chunks(2)) {
            let [DhtOp::Put { value, .. }, DhtOp::Get(_)] = pair else {
                unreachable!("a put, then a get of its key")
            };
            assert_eq!(answers[0], stored, "W = 2 with peers {halted:?} down");
            // Applied locally either way, so the batch's own read sees it.
            let read = Ok(DhtResponse::Values(vec![value.clone()]));
            assert_eq!(answers[1], read);
        }
        let (_, unary_results, unary_stats) = run(halted, false);
        assert_eq!(results, unary_results, "halted {halted:?}");
        assert_eq!(stats, unary_stats, "halted {halted:?}");
    }
}

#[test]
fn a_frame_mixing_replica_sets_settles_each_write_on_its_own_peers() {
    // Five members at R = 3, W = 3, one of them down: a write is acked
    // only if its whole replica set is up. A replica-aware client sends a
    // member writes it is primary for and writes failed over to it from
    // the dead primary, so one frame's writes fan out to different peers.
    const DOWN: usize = 2;
    let run = |batched: bool| {
        let mut cluster = LoopbackCluster::start_with(5, |_, id, ring| {
            let mut replication = ReplicationConfig::new(*id.key(), ring.to_vec(), 3, 3);
            replication.repair_interval = None;
            ServerConfig {
                replication: Some(replication),
                ..ServerConfig::default()
            }
        })
        .expect("loopback cluster");
        cluster.server_mut(DOWN).halt();
        let mut ring: Vec<Key> = cluster.members().iter().map(|(id, _)| *id.key()).collect();
        ring.sort_unstable();
        let down = *cluster.members()[DOWN].0.key();
        let mut client = cluster.replicated_client(3, 1);
        let ops: Vec<DhtOp> = (0..40)
            .map(|i| DhtOp::Put {
                key: Key::hash_of(&format!("mixed-{i}")),
                value: Bytes::from(format!("Q:/article/conf/c{i}")),
            })
            .collect();
        let results = if batched {
            client.execute_many(ops.clone())
        } else {
            ops.iter().map(|op| client.execute(op.clone())).collect()
        };
        let whole_set_up: Vec<bool> = ops
            .iter()
            .map(|op| !placement::replica_keys(&ring, op.key(), 3).contains(&down))
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

#[test]
fn a_leaving_member_drains_each_key_to_its_replica_set_on_the_survivors_ring() {
    // Five members at R = W = 2, repair off, metrics on member 0 alone. A
    // key member 0 held moves, on the ring without it, to a survivor that
    // never held it: only the drain can put it there.
    let metrics = MetricsRegistry::new();
    let cluster = LoopbackCluster::start_with(5, |i, id, ring| {
        let mut replication = ReplicationConfig::new(*id.key(), ring.to_vec(), 2, 2);
        replication.repair_interval = None;
        let mut config = ServerConfig {
            replication: Some(replication),
            ..ServerConfig::default()
        };
        if i == 0 {
            config.metrics = metrics.clone();
        }
        config
    })
    .expect("loopback cluster");
    let key = |i: usize| Key::hash_of(&format!("drained-{i}"));
    let value = |i: usize| Bytes::from(format!("Q:/article/title/t{i}"));
    let mut client = cluster.replicated_client(2, 2);
    for i in 0..64 {
        assert!(client.put(key(i), value(i)));
    }

    let mut leaving = TcpStream::connect(cluster.members()[0].1).unwrap();
    write_message_with(&mut leaving, &Message::Shutdown, &mut Vec::new()).unwrap();
    // The stop flag is set only once the drain has returned.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cluster.server(0).is_shutting_down() {
        assert!(Instant::now() < deadline, "the drain never ended");
        std::thread::sleep(Duration::from_millis(5));
    }
    let pushes = metrics.counter("net.server.replica.drain_pushes");
    let most = 4 * p2p_index_dht::REPAIR_BUCKETS as u64;
    assert!((1..=most).contains(&pushes), "{pushes} drain pushes");

    let mut survivors = cluster.members()[1..].to_vec();
    survivors.sort_unstable();
    let ring: Vec<Key> = survivors.iter().map(|(id, _)| *id.key()).collect();
    let mut scratch = Vec::new();
    for i in 0..64 {
        for at in placement::replica_range(&ring, &key(i), 2).indices() {
            let mut stream = TcpStream::connect(survivors[at].1).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let (id, op) = (i as u64, DhtOp::Get(key(i)));
            write_message_with(&mut stream, &Message::Request { id, op }, &mut scratch).unwrap();
            let (reply, _) = read_message_with(&mut stream, &mut scratch).unwrap();
            let result = Ok(DhtResponse::Values(vec![value(i)]));
            assert_eq!(reply, Message::Response { id, result }, "key {i} at {at}");
        }
    }
    cluster.shutdown();
}
