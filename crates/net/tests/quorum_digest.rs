//! Digest reads between a real client and real `dhtd` members over
//! loopback TCP: a quorum read ships its entry once.
//!
//! What the read path promises, checked on what the client returns and on
//! the counters both ends keep (`net.quorum.*` on the client,
//! `net.server.ops.get` / `net.server.digest_gets` on the members):
//!
//! * **One copy when converged** — one replica is asked for the values,
//!   the rest of the quorum for a digest; replicas that hold the same set,
//!   in whatever order, settle in one round on the shipping replica's
//!   list, byte for byte.
//! * **Nothing masked when not** — a replica whose digest disagrees is
//!   asked again in full and the lists merge, exactly the union a read of
//!   every list would have produced.
//! * **Failover keeps the rule** — when the shipping replica is gone, the
//!   next round's first attempt is a full `Get`, and a digest already in
//!   hand is checked against it.
//! * **No digest where there is no quorum** — reads the carve-out sends
//!   to the primary alone, and every read of a client at `Rq = 1`, never
//!   ask for a digest.
//! * **Conditional reads move no values when nothing changed** — a
//!   `GetIfChanged` goes to every replica of its quorum as itself; all
//!   "unchanged" settles in one round on the caller's digest, and a
//!   replica that said "unchanged" beside one that did not is re-asked with
//!   a plain `Get`, so the answer is the plain quorum read's union.
//!
//! The cluster is the benchmark's shape — five members, `R = 3`, `W = 2`,
//! read at `Rq = 2` — with the repair thread off, so a replica made stale
//! by hand stays stale until the read under test has seen it.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bytes::Bytes;
use p2p_index_dht::{placement, Dht, DhtOp, DhtResponse, Key, NodeId};
use p2p_index_net::wire::{read_message_with, write_message_with, Message};
use p2p_index_net::{
    LoopbackCluster, RecvError, RemoteDht, RemoteDhtConfig, ReplicationConfig, ServerConfig,
};
use p2p_index_obs::MetricsRegistry;

const MEMBERS: usize = 5;
const REPLICAS: usize = 3;

/// A replicated loopback cluster whose members, and the clients it hands
/// out, share one metrics registry.
struct Cluster {
    servers: LoopbackCluster,
    metrics: MetricsRegistry,
}

/// What one read moved: `[request frames sent, full gets served, digest
/// gets served, digest replies absorbed, digests disputed, re-reads
/// scheduled, failover attempts]`.
type Deltas = [u64; 7];

/// What one conditional read moved: `[request frames sent, conditional
/// gets served, full gets served, digest gets served, "unchanged" replies
/// absorbed, digests disputed, re-reads scheduled, failover attempts]`.
type Conditional = [u64; 8];

impl Cluster {
    fn start() -> Cluster {
        let metrics = MetricsRegistry::new();
        let servers = LoopbackCluster::start_with(MEMBERS, |_, id, ring| {
            let mut replication = ReplicationConfig::new(*id.key(), ring.to_vec(), REPLICAS, 2);
            replication.repair_interval = None;
            ServerConfig {
                replication: Some(replication),
                metrics: metrics.clone(),
                ..ServerConfig::default()
            }
        })
        .expect("loopback cluster");
        Cluster { servers, metrics }
    }

    fn client(&self, read_quorum: usize) -> RemoteDht {
        let mut client = self.servers.replicated_client(REPLICAS, read_quorum);
        client.set_metrics(self.metrics.clone());
        client
    }

    /// The members (by start index) holding `key`, primary first.
    fn ranks(&self, key: &Key) -> Vec<usize> {
        let members = self.servers.members();
        let mut ring: Vec<Key> = members.iter().map(|(id, _)| *id.key()).collect();
        ring.sort_unstable();
        placement::replica_keys(&ring, key, REPLICAS)
            .iter()
            .map(|holder| {
                let at = members.iter().position(|(id, _)| id.key() == holder);
                at.expect("a replica is a member")
            })
            .collect()
    }

    /// Makes `member` hold exactly `values` under `key`, and nothing else.
    fn set(&self, member: usize, key: Key, values: &[Bytes]) {
        let entries = vec![(key, values.to_vec())];
        self.servers.server(member).replace_entries(entries);
    }

    /// `member`'s own list for `key`, in its own order, asked directly.
    fn held(&self, member: usize, key: &Key) -> Vec<Bytes> {
        let only = vec![self.servers.members()[member]];
        let solo = RemoteDht::connect(only, RemoteDhtConfig::default());
        Dht::get(&solo, key)
    }

    /// Runs `read` and reports what it moved.
    fn deltas<T>(&self, read: impl FnOnce() -> T) -> (T, Deltas) {
        self.moved(
            [
                "net.frames_out",
                "net.server.ops.get",
                "net.server.digest_gets",
                "net.quorum.digest_reads",
                "net.quorum.digest_mismatches",
                "net.quorum.rereads",
                "net.quorum.failovers",
            ],
            read,
        )
    }

    /// Runs `read` and reports how far each of `series` moved.
    fn moved<T, const N: usize>(
        &self,
        series: [&str; N],
        read: impl FnOnce() -> T,
    ) -> (T, [u64; N]) {
        let before = series.map(|name| self.metrics.counter(name));
        let out = read();
        let after = series.map(|name| self.metrics.counter(name));
        (out, std::array::from_fn(|i| after[i] - before[i]))
    }

    /// Runs `read` and reports what a conditional read moved:
    /// [`Conditional`]'s series.
    fn conditional<T>(&self, read: impl FnOnce() -> T) -> (T, Conditional) {
        self.moved(
            [
                "net.frames_out",
                "net.server.ops.get_if_changed",
                "net.server.ops.get",
                "net.server.digest_gets",
                "net.quorum.unchanged",
                "net.quorum.digest_mismatches",
                "net.quorum.rereads",
                "net.quorum.failovers",
            ],
            read,
        )
    }
}

fn values(names: &[&str]) -> Vec<Bytes> {
    names
        .iter()
        .map(|name| Bytes::from(format!("Q:/article/title/{name}")))
        .collect()
}

fn get(client: &mut RemoteDht, key: Key) -> Vec<Bytes> {
    client
        .execute(DhtOp::Get(key))
        .expect("a quorum answers")
        .into_values()
}

#[test]
fn converged_replicas_settle_in_one_round_on_the_shipping_replicas_list() {
    let cluster = Cluster::start();
    let mut client = cluster.client(2);
    let key = Key::hash_of("converged");
    for value in values(&["c", "a", "b"]) {
        assert!(client.put(key, value));
    }
    let ranks = cluster.ranks(&key);
    let shipped = cluster.held(ranks[0], &key);
    assert_eq!(shipped, values(&["c", "a", "b"]), "insertion order");

    // One frame to each of the two replicas asked, one full get, one
    // digest get, nothing disputed: the entry crossed the wire once.
    let (got, moved) = cluster.deltas(|| get(&mut client, key));
    assert_eq!(got, shipped);
    assert_eq!(moved, [2, 1, 1, 1, 0, 0, 0]);

    // The same set in another order on the vouching replica digests the
    // same: still one round, still the shipping replica's order.
    cluster.set(ranks[1], key, &values(&["b", "c", "a"]));
    assert_eq!(cluster.held(ranks[1], &key), values(&["b", "c", "a"]));
    let (got, moved) = cluster.deltas(|| get(&mut client, key));
    assert_eq!(got, shipped);
    assert_eq!(moved, [2, 1, 1, 1, 0, 0, 0]);

    // A wave settles the same way: every key is shipped by its primary
    // and vouched for by its second replica, whoever those are.
    let wave: Vec<Key> = (0..16)
        .map(|i| Key::hash_of(&format!("wave-{i}")))
        .collect();
    for (i, key) in wave.iter().enumerate() {
        assert!(client.put(*key, Bytes::from(format!("Q:/wave/{i}"))));
    }
    let ops = wave.iter().map(|key| DhtOp::Get(*key)).collect();
    let (results, moved) = cluster.deltas(|| client.execute_many(ops));
    for (i, result) in results.into_iter().enumerate() {
        let expected = vec![Bytes::from(format!("Q:/wave/{i}"))];
        assert_eq!(result.unwrap().into_values(), expected, "wave-{i}");
    }
    assert!(moved[0] <= MEMBERS as u64, "one frame per member at most");
    assert_eq!(moved[1..], [16, 16, 16, 0, 0, 0]);
    cluster.servers.shutdown();
}

#[test]
fn a_stale_replica_is_reread_in_full_and_nothing_it_holds_is_masked() {
    let cluster = Cluster::start();
    let key = Key::hash_of("stale");
    let ranks = cluster.ranks(&key);
    // The shipping replica missed "c"; the vouching one missed "a".
    cluster.set(ranks[0], key, &values(&["a", "b"]));
    cluster.set(ranks[1], key, &values(&["b", "c"]));
    cluster.set(ranks[2], key, &values(&["a", "b", "c"]));

    // Round one: values from rank 0, a digest from rank 1 that is not
    // theirs. Round two: rank 1's own list. The answer is the union in
    // rank order, first seen first — what reading both lists outright
    // gave before digests existed.
    let mut client = cluster.client(2);
    let (got, moved) = cluster.deltas(|| get(&mut client, key));
    assert_eq!(got, values(&["a", "b", "c"]));
    assert_eq!(moved, [3, 2, 1, 1, 1, 1, 0]);
    // The batch path settles through the same routine.
    let (mut got, moved) = cluster.deltas(|| client.execute_many(vec![DhtOp::Get(key)]));
    assert_eq!(
        got.remove(0).unwrap().into_values(),
        values(&["a", "b", "c"])
    );
    assert_eq!(moved, [3, 2, 1, 1, 1, 1, 0]);

    // At Rq = 3 both vouching replicas dispute rank 0's list and both are
    // re-read in the same second round.
    cluster.set(ranks[2], key, &values(&["d"]));
    let mut client = cluster.client(3);
    let (got, moved) = cluster.deltas(|| get(&mut client, key));
    assert_eq!(got, values(&["a", "b", "c", "d"]));
    assert_eq!(moved, [5, 3, 2, 2, 2, 2, 0]);
    // A vouching replica that agrees is not asked twice: only rank 1 is.
    cluster.set(ranks[2], key, &values(&["b", "a"]));
    let (got, moved) = cluster.deltas(|| get(&mut client, key));
    assert_eq!(got, values(&["a", "b", "c"]));
    assert_eq!(moved, [4, 2, 2, 2, 1, 1, 0]);
    cluster.servers.shutdown();
}

#[test]
fn a_failover_round_ships_the_entry_and_checks_the_digest_already_held() {
    let mut cluster = Cluster::start();
    let mut client = cluster.client(2);
    let key = Key::hash_of("failover");
    for value in values(&["a", "b"]) {
        assert!(client.put(key, value));
    }
    let ranks = cluster.ranks(&key);
    // Warm, so the connection to rank 0 is pooled when rank 0 dies.
    assert_eq!(get(&mut client, key), values(&["a", "b"]));
    cluster.servers.server_mut(ranks[0]).halt();

    // Round one: the `Get` to rank 0 is lost, rank 1's digest arrives.
    // Round two holds no values yet, so its one attempt — rank 2 — is a
    // full `Get`; rank 1's digest is the digest of that list, and the read
    // settles on it.
    let (got, moved) = cluster.deltas(|| get(&mut client, key));
    assert_eq!(got, values(&["a", "b"]));
    assert_eq!(moved[1..], [1, 1, 1, 0, 0, 1]);

    // The digest in hand is really compared: make rank 1 hold something
    // rank 2 does not, and the failover read disputes it, re-reads rank 1
    // and returns the union (responder first).
    cluster.set(ranks[1], key, &values(&["b", "c"]));
    let (got, moved) = cluster.deltas(|| get(&mut client, key));
    assert_eq!(got, values(&["b", "c", "a"]));
    assert_eq!(moved[1..], [2, 1, 1, 1, 1, 1]);
    cluster.servers.shutdown();
}

#[test]
fn a_read_of_a_key_its_own_batch_writes_asks_the_primary_alone() {
    let cluster = Cluster::start();
    let mut client = cluster.client(2);
    let (written, other) = (Key::hash_of("written"), Key::hash_of("other"));
    assert!(client.put(other, values(&["o"])[0].clone()));
    let batch = vec![
        DhtOp::Put {
            key: written,
            value: values(&["w"])[0].clone(),
        },
        DhtOp::Get(written),
        DhtOp::Get(other),
    ];
    // The conflicting read is one full get at its primary and no digest;
    // the other read of the same batch keeps its quorum.
    let (results, moved) = cluster.deltas(|| client.execute_many(batch));
    assert_eq!(results[0], Ok(DhtResponse::Stored(true)));
    assert_eq!(results[1], Ok(DhtResponse::Values(values(&["w"]))));
    assert_eq!(results[2], Ok(DhtResponse::Values(values(&["o"]))));
    assert_eq!(moved[1..], [2, 1, 1, 0, 0, 0]);
    cluster.servers.shutdown();
}

#[test]
fn the_counters_of_both_ends_account_for_every_reply() {
    // One registry for the client and every member, a read-only phase
    // that exercises every path — converged unary reads and waves, a
    // stale replica, a dead primary — and the equalities that make the
    // new counters trustworthy rather than merely present.
    let mut cluster = Cluster::start();
    let mut client = cluster.client(2);
    let keys: Vec<Key> = (0..24)
        .map(|i| Key::hash_of(&format!("ledger-{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        assert!(client.put(*key, Bytes::from(format!("Q:/ledger/{i}"))));
    }
    let stale = cluster.ranks(&keys[0])[1];
    cluster.set(stale, keys[0], &values(&["elsewhere"]));

    let before = cluster.metrics.snapshot();
    for key in &keys[..4] {
        get(&mut client, *key);
    }
    client.execute_many(keys.iter().map(|key| DhtOp::Get(*key)).collect());
    let dead = cluster.ranks(&keys[1])[0];
    cluster.servers.server_mut(dead).halt();
    for result in client.execute_many(keys.iter().map(|key| DhtOp::Get(*key)).collect()) {
        assert!(!result.unwrap().into_values().is_empty());
    }
    let after = cluster.metrics.snapshot();
    let moved = |name: &str| after.counter(name) - before.counter(name);

    // Every digest a member served is a digest the client absorbed.
    assert!(moved("net.quorum.digest_reads") > 0);
    assert_eq!(
        moved("net.quorum.digest_reads"),
        moved("net.server.digest_gets")
    );
    // Digest reads + full reads = replies absorbed: unary responses and
    // the ops of every batch reply.
    let unary_replies = moved("net.frames_in") - moved("net.batch.frames_in");
    assert_eq!(
        moved("net.server.digest_gets") + moved("net.server.ops.get"),
        unary_replies + moved("net.batch.ops")
    );
    // Every disputed digest is re-read, and nothing else is.
    assert!(moved("net.quorum.digest_mismatches") > 0);
    assert_eq!(
        moved("net.quorum.digest_mismatches"),
        moved("net.quorum.rereads")
    );
    assert!(moved("net.quorum.failovers") > 0);
    cluster.servers.shutdown();
}

/// A member that is only a socket: it answers every read with "nothing
/// held" and records every op of every frame it is sent.
fn sniffing_member(listener: TcpListener, stop: &AtomicBool, seen: &Mutex<Vec<DhtOp>>) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    scope.spawn(move || sniff_connection(stream, seen));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    });
}

fn sniff_connection(mut stream: TcpStream, seen: &Mutex<Vec<DhtOp>>) {
    stream.set_nonblocking(false).expect("blocking stream");
    let mut scratch = Vec::new();
    loop {
        let msg = match read_message_with(&mut stream, &mut scratch) {
            Ok((msg, _)) => msg,
            Err(RecvError::Wire(e)) => panic!("a client sent an undecodable frame: {e}"),
            Err(_) => return, // the client hung up
        };
        let answer = |op: &DhtOp| match op {
            DhtOp::GetDigest(key) => Ok(DhtResponse::digest_of(key, &[])),
            _ => Ok(DhtResponse::Values(Vec::new())),
        };
        let (reply, ops) = match msg {
            Message::Request { id, op } => {
                let result = answer(&op);
                (Message::Response { id, result }, vec![op])
            }
            Message::Batch { id, ops } => {
                let results = ops.iter().map(answer).collect();
                (Message::BatchReply { id, results }, ops)
            }
            other => panic!("a client sent {other:?}"),
        };
        seen.lock().unwrap().extend(ops);
        write_message_with(&mut stream, &reply, &mut scratch).expect("reply");
    }
}

#[test]
fn a_client_without_a_read_quorum_never_asks_for_a_digest() {
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let members: Vec<(NodeId, SocketAddr)> = listeners
        .iter()
        .enumerate()
        .map(|(i, l)| {
            (
                NodeId::hash_of(&format!("node-{i}")),
                l.local_addr().unwrap(),
            )
        })
        .collect();
    let (stop, seen) = (AtomicBool::new(false), Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for listener in listeners {
            let (stop, seen) = (&stop, &seen);
            scope.spawn(move || sniffing_member(listener, stop, seen));
        }
        let keys: Vec<Key> = (0..12)
            .map(|i| Key::hash_of(&format!("sniffed-{i}")))
            .collect();
        // Unary reads and a wave wide enough to batch on every member.
        let read_all = |replicas: usize, read_quorum: usize| {
            let mut client = RemoteDht::connect(
                members.clone(),
                RemoteDhtConfig {
                    replicas,
                    read_quorum,
                    ..RemoteDhtConfig::default()
                },
            );
            for key in &keys[..3] {
                assert!(get(&mut client, *key).is_empty());
            }
            let wave = keys.iter().map(|key| DhtOp::Get(*key)).collect();
            assert!(client.execute_many(wave).iter().all(Result::is_ok));
            std::mem::take(&mut *seen.lock().unwrap())
        };
        let asks_digest = |op: &DhtOp| matches!(op, DhtOp::GetDigest(_));
        // R = 1, and R = 3 read at Rq = 1: full gets, and not one digest.
        for (replicas, read_quorum) in [(1, 1), (3, 1)] {
            let ops = read_all(replicas, read_quorum);
            assert!(ops.iter().any(|op| matches!(op, DhtOp::Get(_))));
            assert!(
                !ops.iter().any(asks_digest),
                "R = {replicas}, Rq = {read_quorum} sent {ops:?}"
            );
        }
        // The sniffer does see digest gets when there is a quorum to
        // vouch, beside the full gets that ship each entry.
        let ops = read_all(3, 2);
        assert!(ops.iter().any(asks_digest), "{ops:?}");
        assert!(ops.iter().any(|op| matches!(op, DhtOp::Get(_))), "{ops:?}");
        stop.store(true, Ordering::SeqCst);
    });
}

/// The conditional read of `key` by a caller holding `held`.
fn if_changed(key: Key, held: &[Bytes]) -> DhtOp {
    DhtOp::GetIfChanged {
        key,
        seen: DhtResponse::seen_of(&key, held),
    }
}

#[test]
fn an_unchanged_entry_settles_in_one_round_with_no_value_on_the_wire() {
    let cluster = Cluster::start();
    let mut client = cluster.client(2);
    let key = Key::hash_of("unchanged");
    let held = values(&["a", "b", "c"]);
    for value in &held {
        assert!(client.put(key, value.clone()));
    }
    // Both replicas of the quorum are asked the conditional question and
    // both say "unchanged": one round, no full or digest get anywhere.
    let unchanged = DhtResponse::digest_of(&key, &held);
    let ((got, bytes_in), moved) = cluster.conditional(|| {
        let before = cluster.metrics.counter("net.bytes_in");
        let got = client.execute(if_changed(key, &held));
        (got, cluster.metrics.counter("net.bytes_in") - before)
    });
    assert_eq!(got, Ok(unchanged.clone()));
    assert_eq!(moved, [2, 2, 0, 0, 2, 0, 0, 0]);
    // Two unary replies of a digest each (header, tag, count, sum): not
    // one value byte.
    assert_eq!(bytes_in, 2 * (18 + 1 + 4 + 8));

    // A whole wave of unchanged entries moves no value either: every
    // reply frame is digests and framing.
    let wave: Vec<(Key, Vec<Bytes>)> = (0..16)
        .map(|i| {
            let key = Key::hash_of(&format!("unchanged-{i}"));
            (key, vec![Bytes::from(format!("Q:/wave/{i}"))])
        })
        .collect();
    for (key, held) in &wave {
        assert!(client.put(*key, held[0].clone()));
    }
    let series = [
        "net.bytes_in",
        "net.frames_in",
        "net.batch.frames_in",
        "net.batch.ops",
        "net.quorum.unchanged",
        "net.server.ops.get",
    ];
    let ops = wave
        .iter()
        .map(|(key, held)| if_changed(*key, held))
        .collect();
    let (results, [bytes, frames, batches, batched, unchanged, gets]) =
        cluster.moved(series, || client.execute_many(ops));
    for ((key, held), result) in wave.iter().zip(results) {
        assert_eq!(result, Ok(DhtResponse::digest_of(key, held)));
    }
    assert_eq!((unchanged, gets), (32, 0));
    let unary = frames - batches;
    assert_eq!(bytes, unary * 31 + batches * (18 + 4) + batched * (1 + 13));
    cluster.servers.shutdown();
}

#[test]
fn one_stale_replica_gives_exactly_the_plain_quorum_gets_union() {
    let cluster = Cluster::start();
    let mut client = cluster.client(2);
    let key = Key::hash_of("stale-conditional");
    let ranks = cluster.ranks(&key);
    let (held, other) = (values(&["a", "b"]), values(&["b", "c"]));
    // Either replica of the quorum may be the stale one: the other says
    // "unchanged", is disputed, and is asked again — with a plain `Get`,
    // never the conditional op (which it would answer "unchanged" again).
    for stale in [ranks[0], ranks[1]] {
        for &member in &ranks {
            cluster.set(member, key, if member == stale { &other } else { &held });
        }
        let (got, moved) = cluster.conditional(|| client.execute(if_changed(key, &held)));
        assert_eq!(moved, [3, 2, 1, 0, 1, 1, 1, 0], "stale rank {stale}");
        let plain = get(&mut client, key);
        assert_eq!(got, Ok(DhtResponse::Values(plain)), "stale rank {stale}");
    }
    // Both changed, and alike: the lists settle as a plain get's would.
    for &member in &ranks {
        cluster.set(member, key, &values(&["c"]));
    }
    let (got, moved) = cluster.conditional(|| client.execute(if_changed(key, &held)));
    assert_eq!(got, Ok(DhtResponse::Values(values(&["c"]))));
    assert_eq!(moved, [2, 2, 0, 0, 0, 0, 0, 0]);
    cluster.servers.shutdown();
}

#[test]
fn a_conditional_read_fails_over_past_a_halted_primary() {
    let mut cluster = Cluster::start();
    let mut client = cluster.client(2);
    let key = Key::hash_of("conditional-failover");
    let held = values(&["a", "b"]);
    for value in &held {
        assert!(client.put(key, value.clone()));
    }
    let ranks = cluster.ranks(&key);
    // Warm, so the connection to rank 0 is pooled when rank 0 dies.
    assert_eq!(get(&mut client, key), held);
    cluster.servers.server_mut(ranks[0]).halt();

    // Round one: rank 0 is gone, rank 1 says "unchanged". Round two asks
    // rank 2 the same conditional question, and the read settles on the
    // two digests.
    let (got, moved) = cluster.conditional(|| client.execute(if_changed(key, &held)));
    assert_eq!(got, Ok(DhtResponse::digest_of(&key, &held)));
    assert_eq!(moved[1..], [2, 0, 0, 2, 0, 0, 1]);

    // The replica failed over to answers with its list when it differs,
    // and rank 1's "unchanged" is then re-read in full: the union in rank
    // order, as the plain failover read returns it.
    cluster.set(ranks[2], key, &values(&["b", "c"]));
    let (got, moved) = cluster.conditional(|| client.execute(if_changed(key, &held)));
    assert_eq!(got, Ok(DhtResponse::Values(values(&["a", "b", "c"]))));
    assert_eq!(moved[1..], [2, 1, 0, 1, 1, 1, 1]);
    assert_eq!(get(&mut client, key), values(&["a", "b", "c"]));
    cluster.servers.shutdown();
}
