//! The cluster half of anti-entropy repair: digest passes between real
//! `dhtd` members over loopback TCP.
//!
//! What the digest pass promises, checked on the counters the pass itself
//! keeps (`net.server.replica.*`) and on what members end up holding:
//!
//! * **Silence when converged** — members that agree exchange digests
//!   and nothing else: no `Transfer`, however many values and tombstones
//!   they hold.
//! * **One round to refill** — a member wiped in place is whole again
//!   after one round, sent one bucket per frame — its live values and its
//!   tombstones together — and the round after that is silent. A bucket
//!   share too large for one frame goes out as several, and converges too;
//!   a value too long for a `Transfer` of its own is refused when written
//!   (`StorageFull`), so no bucket holds what it could not push.
//! * **Confirmed before pushed** — a probe that names differing buckets
//!   is followed by one confirming probe (`digest_confirms`); a silent
//!   round sends none.
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
use p2p_index_net::{
    DhtServer, LoopbackCluster, RemoteDht, ReplicationConfig, ServerConfig, MAX_PAYLOAD,
};
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
    /// tombstone removes sent, bytes pushed, tombstone removes applied,
    /// values received by Transfer]`.
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
///
/// Each write must settle, not be new: with the repair threads running, a
/// peer's push or scrub can reach a replica before the client's own frame
/// does, and that replica then answers that it changed nothing. What is
/// asserted is the state the writes leave.
fn fill(client: &mut RemoteDht, live: usize, dead: usize) {
    let mut write = |op: DhtOp| {
        let settled = client.execute(op);
        assert!(settled.is_ok(), "{settled:?}");
    };
    for i in 0..live + dead {
        write(DhtOp::Put {
            key: key(i),
            value: value(i),
        });
    }
    for i in live..live + dead {
        write(DhtOp::Remove {
            key: key(i),
            value: value(i),
        });
    }
    for i in 0..live + dead {
        let held = if i < live { vec![value(i)] } else { Vec::new() };
        assert_eq!(Dht::get(client, &key(i)), held, "key {i}");
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
    // along ride the same sixteen frames as the values.
    let [probes, mismatches, pushes, scrubs, bytes, applied, received] = cluster.round_deltas();
    assert_eq!(probes, cluster.probes_per_round());
    assert_eq!(mismatches, REPAIR_BUCKETS as u64);
    assert_eq!(pushes, REPAIR_BUCKETS as u64, "one Transfer per bucket");
    assert_eq!(received, 300);
    assert_eq!((scrubs, applied), (100, 100));
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

#[test]
fn a_bucket_share_larger_than_a_frame_refills_a_wiped_member() {
    // Seventeen 1 MiB values in one repair bucket: the share a member
    // pushes a wiped peer is more than `MAX_PAYLOAD`, so it has to go out
    // as several `Transfer` frames. Sent as one, the peer would refuse the
    // frame as oversized and every round would send it again.
    let cluster = Cluster::start(3, None);
    let mut client = cluster.client();
    let keys = (0..).map(|i| Key::hash_of(&format!("large-{i}")));
    let keys: Vec<Key> = keys
        .filter(|key| repair_bucket(key) == 0)
        .take(17)
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let value = Bytes::from(vec![i as u8; 1 << 20]);
        let settled = client.execute(DhtOp::Put { key: *key, value });
        assert!(settled.is_ok(), "{settled:?}");
    }
    let share: usize = keys.len() << 20;
    assert!(share > MAX_PAYLOAD as usize);
    cluster.wipe(1);
    let [_, mismatches, pushes, _, bytes, _, received] = cluster.round_deltas();
    assert_eq!(
        cluster.stored(),
        vec![keys.len(); 3],
        "one round refills it"
    );
    assert_eq!(received, keys.len() as u64);
    assert_eq!(mismatches, 1, "one bucket differs");
    assert!(pushes > 1, "one bucket, {pushes} frames");
    assert!(bytes as usize > share, "{bytes} bytes pushed");
    assert_eq!(cluster.round_deltas()[1..], [0; 6], "and then silence");
    cluster.shutdown();
}

#[test]
fn a_value_too_long_to_push_alone_is_refused_and_one_that_fits_refills_a_wiped_member() {
    // A `Put` frames its value in 25 bytes and a `Transfer` of it alone in
    // 36. A value in between would be stored, then refused as oversized on
    // every push, and its bucket would never converge: every replica
    // refuses it instead, and a remove of it (a tombstone is pushed too).
    let cluster = Cluster::start(3, None);
    let mut client = cluster.client();
    let key = Key::hash_of("a-lone-value");
    let long = Bytes::from(vec![7u8; MAX_PAYLOAD as usize - 25]);
    for op in [
        DhtOp::Put {
            key,
            value: long.clone(),
        },
        DhtOp::Remove { key, value: long },
    ] {
        assert_eq!(client.execute(op), Err(DhtError::StorageFull));
    }
    assert_eq!(cluster.stored(), vec![0; 3], "nothing is stored");
    assert_eq!(cluster.round_deltas()[1..], [0; 6], "the buckets are equal");

    // The longest value that is stored goes out in a `Transfer` exactly
    // `MAX_PAYLOAD` long.
    let value = Bytes::from(vec![8u8; MAX_PAYLOAD as usize - 36]);
    let stored = client.execute(DhtOp::Put { key, value });
    assert_eq!(stored, Ok(DhtResponse::Stored(true)));
    assert_eq!(cluster.stored(), vec![1; 3]);
    cluster.wipe(1);
    let [_, mismatches, pushes, _, _, _, received] = cluster.round_deltas();
    assert_eq!((mismatches, pushes, received), (1, 1, 1));
    assert_eq!(cluster.stored(), vec![1; 3], "one round refills it");
    assert_eq!(cluster.round_deltas()[1..], [0; 6], "and then silence");
    cluster.shutdown();
}

#[test]
fn a_mismatch_is_confirmed_once_and_a_silent_round_confirms_nothing() {
    let cluster = Cluster::start(3, None);
    let mut client = cluster.client();
    fill(&mut client, 300, 100);
    let confirms = || cluster.replica("digest_confirms");
    let before = confirms();
    assert_eq!(cluster.round_deltas()[1..], [0; 6]);
    assert_eq!(confirms(), before, "a silent round sends no confirm");

    // Member 0 runs first: its probe of the wiped member 1 is the only one
    // of the round that sees a difference, so it is the only one confirmed.
    // The difference persists, so every bucket is still pushed.
    cluster.wipe(1);
    let [probes, mismatches, pushes, ..] = cluster.round_deltas();
    assert_eq!(confirms() - before, 1, "one confirm per mismatched peer");
    assert_eq!(probes, cluster.probes_per_round());
    assert_eq!(mismatches, REPAIR_BUCKETS as u64);
    assert_eq!(pushes, REPAIR_BUCKETS as u64, "one Transfer per bucket");
    assert_eq!(cluster.stored(), vec![300; 3]);
    assert_eq!(cluster.round_deltas()[1..], [0; 6]);
    assert_eq!(confirms() - before, 1, "silent again");
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
