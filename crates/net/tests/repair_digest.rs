//! The cluster half of anti-entropy repair: digest passes between real
//! `dhtd` members over loopback TCP.
//!
//! What the digest pass promises, checked on the counters the pass itself
//! keeps (`net.server.replica.*`) and on what members end up holding:
//!
//! * **Silence when converged** — members that agree exchange digests
//!   and nothing else: no `Transfer`, no `Replicate`, however many values
//!   and tombstones they hold.
//! * **One round to refill** — a member wiped in place is whole again
//!   after one round, sent one bucket per frame, and the round after that
//!   is silent.
//! * **Typed refusal** — a server that replicates nothing with the sender
//!   of a `Digest` answers with an error frame and keeps the connection.
//!
//! Rounds are driven by hand (`repair_interval: None`) wherever a count is
//! asserted; the last test leaves the periodic thread on and waits for it
//! against a deadline, so a wedged pass fails instead of stalling.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2p_index_dht::{
    repair_bucket, Dht, DhtError, DhtOp, DhtResponse, Key, NodeId, REPAIR_BUCKETS,
};
use p2p_index_net::wire::{read_message_with, write_message_with, Message};
use p2p_index_net::{DhtServer, LoopbackCluster, RemoteDht, ReplicationConfig, ServerConfig};
use p2p_index_obs::MetricsRegistry;

const REPLICAS: usize = 3;

/// A replicated loopback cluster whose members share one metrics
/// registry, so a `net.server.replica.*` counter reads as the cluster's
/// total.
struct Cluster {
    servers: LoopbackCluster,
    metrics: MetricsRegistry,
}

impl Cluster {
    /// `members` members; `interval` is every member's repair interval
    /// (`None`: rounds happen only when the test says).
    fn start(members: usize, interval: Option<Duration>) -> Cluster {
        let metrics = MetricsRegistry::new();
        let servers = LoopbackCluster::start_with(members, |_, id, ring| {
            let mut replication = ReplicationConfig::new(*id.key(), ring.to_vec(), REPLICAS, 2);
            replication.repair_interval = interval;
            ServerConfig {
                replication: Some(replication),
                metrics: metrics.clone(),
                ..ServerConfig::default()
            }
        })
        .expect("loopback cluster");
        Cluster { servers, metrics }
    }

    fn client(&self) -> RemoteDht {
        self.servers.replicated_client(REPLICAS, 2)
    }

    fn len(&self) -> usize {
        self.servers.members().len()
    }

    fn replica(&self, series: &str) -> u64 {
        self.metrics
            .counter(&format!("net.server.replica.{series}"))
    }

    /// What one round moved: `[probes, mismatches, Transfer frames,
    /// tombstone removes, bytes pushed, Replicate frames applied, values
    /// received by Transfer]`.
    fn round_deltas(&self) -> [u64; 7] {
        let series = [
            "digest_probes",
            "digest_mismatches",
            "repair_pushes",
            "tombstone_scrubs",
            "repair_bytes",
            "applied",
            "transfer_values",
        ];
        let before = series.map(|s| self.replica(s));
        self.servers.repair_all();
        let after = series.map(|s| self.replica(s));
        std::array::from_fn(|i| after[i] - before[i])
    }

    /// Probes a silent round sends: every member asks every peer.
    fn probes_per_round(&self) -> u64 {
        (self.len() * (self.len() - 1)) as u64
    }

    fn stored(&self) -> Vec<usize> {
        (0..self.len())
            .map(|i| self.servers.server(i).total_values())
            .collect()
    }

    fn wipe(&self, member: usize) {
        self.servers.server(member).replace_entries(Vec::new());
    }

    fn shutdown(self) {
        self.servers.shutdown();
    }
}

fn key(i: usize) -> Key {
    Key::hash_of(&format!("repair-key-{i}"))
}

fn value(i: usize) -> Bytes {
    Bytes::from(format!("Q:/article/title/t{i}"))
}

/// Publishes `live` pairs that stay and `dead` pairs that are removed
/// again (each leaves a tombstone on its whole replica set), enough keys
/// that no repair bucket is empty.
fn fill(client: &mut RemoteDht, live: usize, dead: usize) {
    for i in 0..live + dead {
        assert!(client.put(key(i), value(i)));
    }
    for i in live..live + dead {
        assert!(client.remove(&key(i), &value(i)));
    }
    let buckets: std::collections::BTreeSet<usize> =
        (0..live).map(|i| repair_bucket(&key(i))).collect();
    assert_eq!(buckets.len(), REPAIR_BUCKETS, "every bucket holds a key");
}

#[test]
fn a_converged_cluster_repairs_in_silence_tombstones_and_all() {
    let cluster = Cluster::start(3, None);
    let mut client = cluster.client();
    fill(&mut client, 300, 100);
    // Every write reached its whole replica set before it was
    // acknowledged, so the members already agree: a round is probes only.
    for _ in 0..2 {
        assert_eq!(
            cluster.round_deltas(),
            [cluster.probes_per_round(), 0, 0, 0, 0, 0, 0]
        );
    }
    assert_eq!(cluster.stored(), vec![300; 3]);
    cluster.shutdown();
}

#[test]
fn a_wiped_member_is_refilled_in_one_round_then_the_cluster_is_silent() {
    let cluster = Cluster::start(3, None);
    let mut client = cluster.client();
    fill(&mut client, 300, 100);
    cluster.wipe(1);
    assert_eq!(cluster.stored(), vec![300, 0, 300]);

    // Member 0 runs first, finds all sixteen buckets differ and sends
    // each as a frame of its own; by the time members 1 and 2 probe,
    // there is nothing left to say. The wiped member kept its
    // tombstones, so nothing needs scrubbing: the removes member 0 sends
    // along — one `Replicate` per bucket, however many tombstones the
    // bucket holds — are the only `Replicate` traffic.
    let frames = cluster.replica("frames");
    let [probes, mismatches, pushes, scrubs, bytes, applied, received] = cluster.round_deltas();
    let scrub_frames = cluster.replica("frames") - frames;
    assert_eq!(probes, cluster.probes_per_round());
    assert_eq!(mismatches, REPAIR_BUCKETS as u64);
    assert_eq!(pushes, REPAIR_BUCKETS as u64, "one Transfer per bucket");
    assert_eq!(received, 300);
    assert_eq!((scrubs, applied), (100, 100));
    assert!(
        (1..=REPAIR_BUCKETS as u64).contains(&scrub_frames),
        "{scrub_frames} frames for 100 scrubs"
    );
    assert!(bytes > 300 * 20, "{bytes} bytes for 300 values");
    assert_eq!(cluster.stored(), vec![300; 3]);
    assert_eq!(
        cluster.round_deltas(),
        [cluster.probes_per_round(), 0, 0, 0, 0, 0, 0]
    );

    // On a ring larger than the replica set a member shares only part of
    // each peer's keys; the digests are over exactly that part.
    let wide = Cluster::start(5, None);
    let mut client = wide.client();
    fill(&mut client, 300, 100);
    assert_eq!(wide.round_deltas()[1..], [0; 6]);
    let whole = wide.stored();
    assert_eq!(whole.iter().sum::<usize>(), 300 * REPLICAS);
    wide.wipe(3);
    wide.servers.repair_all();
    assert_eq!(wide.stored(), whole);
    assert_eq!(
        wide.round_deltas(),
        [wide.probes_per_round(), 0, 0, 0, 0, 0, 0]
    );
    for i in 0..300 {
        assert_eq!(Dht::get(&client, &key(i)), vec![value(i)]);
    }
    wide.shutdown();
    cluster.shutdown();
}

/// Sends `msg` on `stream` and reads the reply.
fn exchange(stream: &mut TcpStream, msg: &Message) -> Message {
    let mut scratch = Vec::new();
    write_message_with(stream, msg, &mut scratch).expect("frame written");
    read_message_with(stream, &mut scratch)
        .expect("a reply, not a dropped connection")
        .0
}

#[test]
fn a_digest_nobody_can_answer_gets_a_typed_error_and_keeps_the_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let id = NodeId::hash_of("node-0");
    let stranger = Key::hash_of("not-a-member");
    let spawn = |listener: TcpListener, replication: Option<ReplicationConfig>| {
        let config = ServerConfig {
            replication,
            ..ServerConfig::default()
        };
        DhtServer::spawn_partition_on(listener, id, config).expect("server spawns")
    };
    let probe = |from: Key| Message::Digest {
        id: 41,
        from,
        buckets: [0; REPAIR_BUCKETS],
    };
    let refused = Message::Response {
        id: 41,
        result: Err(DhtError::NoLiveNodes),
    };
    let still_serving = |stream: &mut TcpStream| {
        let get = Message::Request {
            id: 42,
            op: DhtOp::Get(Key::hash_of("absent")),
        };
        let served = Message::Response {
            id: 42,
            result: Ok(DhtResponse::Values(Vec::new())),
        };
        assert_eq!(exchange(stream, &get), served);
    };
    let connect = |addr: SocketAddr| {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        stream
    };

    // An unreplicated server, and a cluster member with R = 1: neither
    // keeps anything in common with anyone.
    let two_members = vec![(*id.key(), addr), (stranger, addr)];
    for replication in [
        None,
        Some(ReplicationConfig::new(*id.key(), two_members.clone(), 1, 1)),
    ] {
        let server = spawn(listener.try_clone().unwrap(), replication);
        let mut stream = connect(addr);
        assert_eq!(exchange(&mut stream, &probe(stranger)), refused);
        still_serving(&mut stream);
        server.shutdown();
    }

    // A replicating member refuses a sender outside its ring (and
    // itself), and answers a real peer with the buckets that differ.
    let cluster = Cluster::start(3, None);
    let mut client = cluster.client();
    fill(&mut client, 300, 0);
    let mut stream = connect(cluster.servers.members()[0].1);
    for from in [stranger, *cluster.servers.members()[0].0.key()] {
        assert_eq!(exchange(&mut stream, &probe(from)), refused);
    }
    let peer = *cluster.servers.members()[1].0.key();
    assert_eq!(
        exchange(&mut stream, &probe(peer)),
        Message::DigestReply {
            id: 41,
            differs: u16::MAX
        },
        "an all-zero digest differs from sixteen non-empty buckets"
    );
    still_serving(&mut stream);
    cluster.shutdown();
}

#[test]
fn the_periodic_thread_refills_a_wiped_member_and_then_stops_pushing() {
    let interval = Duration::from_millis(50);
    let cluster = Cluster::start(3, Some(interval));
    let mut client = cluster.client();
    fill(&mut client, 300, 100);
    cluster.wipe(1);
    let deadline = Instant::now() + Duration::from_secs(30);
    while cluster.stored() != vec![300; 3] {
        assert!(
            Instant::now() < deadline,
            "repair never refilled the wiped member: {:?}",
            cluster.stored()
        );
        std::thread::sleep(interval);
    }
    // Converged: from here on the threads keep probing and push nothing.
    // (A pass that was mid-push when the loop above saw 300 may still
    // finish; wait for two quiet readings an interval apart.)
    let pushed = || {
        [
            cluster.replica("repair_pushes"),
            cluster.replica("tombstone_scrubs"),
        ]
    };
    let mut last = pushed();
    loop {
        assert!(Instant::now() < deadline, "pushes never stopped: {last:?}");
        std::thread::sleep(4 * interval);
        let now = pushed();
        if now == last {
            break;
        }
        last = now;
    }
    let probes = cluster.replica("digest_probes");
    std::thread::sleep(4 * interval);
    assert!(cluster.replica("digest_probes") > probes, "still probing");
    assert_eq!(pushed(), last, "and still silent");
    cluster.shutdown();
}
