//! Shared trait-conformance suite, instantiated for every substrate.
//!
//! The index layer is written against [`Dht`] alone, so each substrate —
//! Chord, the plain ring, and the TCP-backed remote cluster — must agree on the observable contract: multi-value
//! registration, duplicate suppression, removal of one value among
//! several, `node_for` consistency with `nodes()`, and the
//! message-accounting promise that one RPC request/response pair counts
//! as two messages. Every check drives the substrate through the
//! fallible [`Dht::execute`] / [`Dht::execute_many`] entry points, and
//! the batch entry point is pinned to be observationally identical to
//! the unary sequence on every substrate — including the fault wrapper
//! and the TCP-backed cluster.
//!
//! The `remote` entry is an in-process loopback cluster of real `dhtd`
//! servers (one per node) fronted by a `RemoteDht` client — the same
//! code path the multi-process harness exercises, minus the processes —
//! so "a TCP cluster behaves like an in-process substrate" is pinned
//! here, not just asserted in the net crate's own tests.

use bytes::Bytes;
use p2p_index_dht::{
    BalanceConfig, ChordNetwork, Dht, DhtError, DhtOp, DhtResponse, FaultConfig, FaultyDht, Key,
    NodeId, RingDht, ShardedDht, SplitDht,
};
use p2p_index_net::{ClusterDht, LoopbackCluster, RemoteDht, RemoteDhtConfig};
use p2p_index_obs::MetricsRegistry;

fn keys(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::hash_of(&format!("node-{i}"))).collect()
}

/// A loopback cluster of `n` members at R = 3, W = 2, behind a client
/// reading at quorum 2.
fn replicated_cluster(n: usize) -> ClusterDht {
    let cluster = LoopbackCluster::start_replicated_ring(n, 3, 2).expect("loopback cluster binds");
    let config = RemoteDhtConfig {
        replicas: 3,
        read_quorum: 2,
        ..RemoteDhtConfig::default()
    };
    ClusterDht::new(cluster, config)
}

/// A converged Chord ring over `n` members.
fn chord(n: usize) -> ChordNetwork {
    ChordNetwork::with_perfect_tables(keys(n))
}

/// Every substrate, behind the trait, at the given network size.
fn substrates(n: usize) -> Vec<(&'static str, Box<dyn Dht>)> {
    vec![
        ("ring", Box::new(RingDht::from_ids(keys(n)))),
        ("chord", Box::new(chord(n))),
        (
            "remote",
            Box::new(ClusterDht::new(
                LoopbackCluster::start_ring(n).expect("loopback cluster binds"),
                RemoteDhtConfig::default(),
            )),
        ),
    ]
}

fn exec_put(dht: &mut dyn Dht, key: Key, value: &str) -> bool {
    dht.execute(DhtOp::Put {
        key,
        value: Bytes::from(value.to_string()),
    })
    .expect("put on live network")
    .into_stored()
}

fn exec_get(dht: &mut dyn Dht, key: Key) -> Vec<Bytes> {
    dht.execute(DhtOp::Get(key))
        .expect("get on live network")
        .into_values()
}

fn exec_remove(dht: &mut dyn Dht, key: Key, value: &str) -> bool {
    dht.execute(DhtOp::Remove {
        key,
        value: Bytes::from(value.to_string()),
    })
    .expect("remove on live network")
    .into_removed()
}

fn sorted(mut values: Vec<Bytes>) -> Vec<Bytes> {
    values.sort();
    values
}

#[test]
fn multi_value_registration() {
    for (name, mut dht) in substrates(32) {
        let key = Key::hash_of("/article/author/last/Smith");
        assert!(exec_put(dht.as_mut(), key, "a"), "{name}");
        assert!(exec_put(dht.as_mut(), key, "b"), "{name}");
        assert!(exec_put(dht.as_mut(), key, "c"), "{name}");
        assert_eq!(
            sorted(exec_get(dht.as_mut(), key)),
            vec![
                Bytes::from_static(b"a"),
                Bytes::from_static(b"b"),
                Bytes::from_static(b"c")
            ],
            "{name}: all values registered under one key must come back"
        );
    }
}

#[test]
fn duplicate_registration_is_suppressed() {
    for (name, mut dht) in substrates(32) {
        let key = Key::hash_of("dup-key");
        assert!(exec_put(dht.as_mut(), key, "same"), "{name}: first put");
        assert!(
            !exec_put(dht.as_mut(), key, "same"),
            "{name}: duplicate put must report not-newly-stored"
        );
        assert_eq!(
            exec_get(dht.as_mut(), key).len(),
            1,
            "{name}: duplicate must not create a second copy"
        );
    }
}

#[test]
fn remove_one_value_among_several() {
    for (name, mut dht) in substrates(32) {
        let key = Key::hash_of("shared");
        for v in ["v1", "v2", "v3"] {
            exec_put(dht.as_mut(), key, v);
        }
        assert!(exec_remove(dht.as_mut(), key, "v2"), "{name}");
        assert!(
            !exec_remove(dht.as_mut(), key, "v2"),
            "{name}: removing an absent value must report false"
        );
        assert_eq!(
            sorted(exec_get(dht.as_mut(), key)),
            vec![Bytes::from_static(b"v1"), Bytes::from_static(b"v3")],
            "{name}: the other values must survive"
        );
    }
}

#[test]
fn a_digest_get_answers_the_digest_of_what_a_get_answers() {
    // Whatever a substrate's `Get` returns, its `GetDigest` vouches for
    // exactly that: same count, same order-independent hash. A fan-out
    // decorator included, which promotes on the first read, so its later
    // reads rotate onto mirrors.
    let mut all = substrates(32);
    let fanned = SplitDht::new(RingDht::from_ids(keys(32)), BalanceConfig::mitigating(1, 3));
    all.push(("split-fanout", Box::new(fanned)));
    for (name, mut dht) in all {
        let key = Key::hash_of("vouched-for");
        let absent = dht.execute(DhtOp::GetDigest(key));
        assert_eq!(absent, Ok(DhtResponse::digest_of(&key, &[])), "{name}");
        for i in 0..12 {
            exec_put(
                dht.as_mut(),
                key,
                &format!("Q:/article/author/last/name-{i}"),
            );
        }
        let held = exec_get(dht.as_mut(), key);
        assert_eq!(held.len(), 12, "{name}");
        let digest = dht.execute(DhtOp::GetDigest(key));
        assert_eq!(digest, Ok(DhtResponse::digest_of(&key, &held)), "{name}");
        let mut reversed = held.clone();
        reversed.reverse();
        assert_eq!(
            digest,
            Ok(DhtResponse::digest_of(&key, &reversed)),
            "{name}"
        );
        assert_ne!(
            digest,
            Ok(DhtResponse::digest_of(&key, &held[1..])),
            "{name}"
        );
    }
}

/// Every substrate a conditional read must conform on: the shared list,
/// Chord at another size, the local wrappers, the partition store, and a
/// replicated quorum cluster. A fresh copy per call, so two twins can be
/// driven side by side.
fn conditional_substrates() -> Vec<(&'static str, Box<dyn Dht>)> {
    let mut all = substrates(16);
    all.extend([
        ("chord-8", Box::new(chord(8)) as Box<dyn Dht>),
        (
            "faulty",
            Box::new(FaultyDht::transparent(RingDht::from_ids(keys(16)))),
        ),
        (
            "split-fanout",
            Box::new(SplitDht::new(
                RingDht::from_ids(keys(16)),
                BalanceConfig::mitigating(1, 3),
            )),
        ),
        (
            "split-observe",
            Box::new(SplitDht::new(chord(16), BalanceConfig::observe_only())),
        ),
        (
            "sharded",
            Box::new(ShardedDht::with_default_shards(NodeId::hash_of("node-0"))),
        ),
        ("remote-r3", Box::new(replicated_cluster(5))),
    ]);
    all
}

#[test]
fn a_conditional_get_is_accounted_as_a_get_and_answers_what_it_must() {
    // Two twins of every substrate take the same writes; then one reads
    // with `Get` and the other with `GetIfChanged`, against the digest of
    // what it holds (unchanged), of something else (stale), and of an
    // absent key. The stats move alike every time: a conditional read is
    // routed, fallen back and counted exactly like the read it replaces.
    // Its answer is the digest it was sent when unchanged, and the `Get`'s
    // list otherwise.
    for ((name, mut plain), (_, mut conditional)) in conditional_substrates()
        .into_iter()
        .zip(conditional_substrates())
    {
        let key = Key::hash_of("conditional");
        for i in 0..6 {
            let value = format!("Q:/article/author/last/name-{i}");
            assert!(exec_put(plain.as_mut(), key, &value), "{name}");
            assert!(exec_put(conditional.as_mut(), key, &value), "{name}");
        }
        let held = exec_get(plain.as_mut(), key);
        assert_eq!(exec_get(conditional.as_mut(), key), held, "{name}");
        assert_eq!(plain.stats(), conditional.stats(), "{name}");
        let absent = Key::hash_of("never-written");
        let reads = [
            (key, DhtResponse::seen_of(&key, &held), true),
            (key, DhtResponse::seen_of(&key, &held[1..]), false),
            (
                key,
                DhtResponse::seen_of(&Key::hash_of("other"), &held),
                false,
            ),
            (absent, DhtResponse::seen_of(&absent, &held[..1]), false),
        ];
        for (at, seen, unchanged) in reads {
            let list = exec_get(plain.as_mut(), at);
            let got = conditional.execute(DhtOp::GetIfChanged { key: at, seen });
            let want = if unchanged {
                DhtResponse::Digest {
                    count: seen.0,
                    sum: seen.1,
                }
            } else {
                DhtResponse::Values(list)
            };
            assert_eq!(got, Ok(want), "{name}: seen {seen:?}");
            assert_eq!(plain.stats(), conditional.stats(), "{name}: seen {seen:?}");
        }
    }
}

#[test]
fn a_conditional_get_takes_the_same_load_note_as_a_get() {
    // The balance layer's per-node load (the hot-spot exhibit's input) is
    // blind to whether a read was conditional or not, served by the
    // primary or a mirror, unary or in a batch.
    for config in [
        BalanceConfig::observe_only(),
        BalanceConfig::mitigating(1, 3),
    ] {
        let twin = || {
            let mut dht = SplitDht::new(RingDht::from_ids(keys(16)), config);
            for i in 0..12 {
                let value = format!("Q:/article/author/last/name-{i}");
                exec_put(&mut dht, Key::hash_of("noted"), &value);
            }
            dht
        };
        let (mut plain, mut conditional) = (twin(), twin());
        let key = Key::hash_of("noted");
        let held = exec_get(&mut plain, key);
        exec_get(&mut conditional, key);
        let seen = DhtResponse::seen_of(&key, &held);
        plain.execute(DhtOp::Get(key)).unwrap();
        conditional
            .execute(DhtOp::GetIfChanged { key, seen })
            .unwrap();
        plain.execute_many(vec![DhtOp::NodeFor(key), DhtOp::Get(key)]);
        conditional.execute_many(vec![DhtOp::NodeFor(key), DhtOp::GetIfChanged { key, seen }]);
        assert_eq!(plain.load(), conditional.load(), "{config:?}");
        assert_eq!(
            plain.balance_stats(),
            conditional.balance_stats(),
            "{config:?}"
        );
        assert_eq!(
            plain.balance_stats().1 > 0,
            !config.is_observe_only(),
            "{config:?}: mirror reads happen exactly under fan-out"
        );
        assert_eq!(plain.stats(), conditional.stats(), "{config:?}");
    }
}

#[test]
fn node_for_agrees_with_nodes() {
    for (name, mut dht) in substrates(24) {
        let nodes = dht.nodes();
        assert_eq!(nodes.len(), 24, "{name}");
        let mut expected = nodes.clone();
        expected.sort();
        expected.dedup();
        assert_eq!(
            nodes, expected,
            "{name}: nodes() must be in ascending identifier order"
        );
        for i in 0..50 {
            let key = Key::hash_of(&format!("probe-{i}"));
            let resolved = dht
                .execute(DhtOp::NodeFor(key))
                .expect("resolution on live network")
                .into_node()
                .expect("NodeFor answers with a node");
            assert!(
                nodes.contains(&resolved),
                "{name}: node_for must name a live node"
            );
            assert_eq!(
                dht.node_for(&key),
                Some(resolved),
                "{name}: execute(NodeFor) and node_for must agree"
            );
        }
    }
}

#[test]
fn rpc_pairs_count_as_two_messages() {
    // On a single-node network no routing hops occur, so the counters
    // isolate the terminal RPC of each operation: put, get, and remove are
    // one request/response pair — two messages — each.
    for (name, mut dht) in substrates(1) {
        assert_eq!(dht.stats().messages, 0, "{name}: fresh network");
        let key = Key::hash_of("pinned");
        exec_put(dht.as_mut(), key, "v");
        assert_eq!(dht.stats().messages, 2, "{name}: put = request + response");
        exec_get(dht.as_mut(), key);
        assert_eq!(dht.stats().messages, 4, "{name}: get = request + response");
        exec_remove(dht.as_mut(), key, "v");
        assert_eq!(
            dht.stats().messages,
            6,
            "{name}: remove = request + response"
        );
    }
    // On a converged ring every read is routed to the owner, so a key
    // nobody holds costs its route (two messages a hop) plus one pair.
    let mut chord = chord(8);
    let before = chord.stats();
    assert!(exec_get(&mut chord, Key::hash_of("absent")).is_empty());
    let after = chord.stats();
    assert_eq!(
        after.messages - before.messages,
        2 * (after.hops - before.hops) + 2,
        "an empty routed read = route + one request/response pair"
    );
}

fn faulty_metrics_case<D: Dht>(name: &str, inner: D) {
    let mut dht = FaultyDht::new(inner, FaultConfig::lossy(7, 0.4));
    let registry = MetricsRegistry::new();
    dht.set_metrics(registry.clone());
    let key = Key::hash_of("retried");
    let mut successes = 0u64;
    for value in ["a", "b", "c"] {
        // A caller-side retry loop, as the index layer's RetryPolicy would
        // drive it: reissue on timeout until the put lands.
        loop {
            match dht.execute(DhtOp::Put {
                key,
                value: Bytes::from(value),
            }) {
                Ok(_) => {
                    successes += 1;
                    break;
                }
                Err(DhtError::Timeout) => continue,
                Err(e) => panic!("{name}: unexpected error {e}"),
            }
        }
    }
    let fstats = dht.fault_stats();
    assert!(fstats.injected() > 0, "{name}: loss 0.4 must inject faults");

    // fault.* mirrors the wrapper's own accounting...
    let snap = registry.snapshot();
    assert_eq!(snap.counter("fault.attempts"), fstats.attempts, "{name}");
    assert_eq!(
        snap.counter("fault.requests_lost"),
        fstats.requests_lost,
        "{name}"
    );
    assert_eq!(
        snap.counter("fault.responses_lost"),
        fstats.responses_lost,
        "{name}"
    );
    // ...and the wrapped substrate's stats count only operations that
    // actually reached it (successes + lost responses), two messages
    // each, even through the retry storm.
    let expected_messages = 2 * (successes + fstats.responses_lost);
    assert_eq!(dht.stats().messages, expected_messages, "{name}");
}

#[test]
fn metrics_survive_faulty_retries() {
    faulty_metrics_case("ring", RingDht::from_ids(keys(1)));
    faulty_metrics_case("chord", chord(1));
    // A substrate with no membership API: the wrapper needs only `Dht`.
    faulty_metrics_case(
        "sharded",
        ShardedDht::with_default_shards(NodeId::hash_of("node-0")),
    );
}

#[test]
fn remote_cluster_conforms_with_faulty_dht_around_the_client() {
    // The fault injector wraps the TCP client: a lost op surfaces as the
    // same `DhtError::Timeout` an in-process FaultyDht gives, and the
    // caller retries it exactly as it would there. The seed is fixed, so
    // the fault schedule is reproducible.
    let cluster = LoopbackCluster::start_ring(1).expect("loopback cluster binds");
    let cluster = ClusterDht::new(cluster, RemoteDhtConfig::default());
    let mut dht = FaultyDht::new(cluster, FaultConfig::lossy(7, 0.4));
    let key = Key::hash_of("retried");
    let mut timeouts = 0u64;
    for value in ["a", "b", "c"] {
        loop {
            match dht.execute(DhtOp::Put {
                key,
                value: Bytes::from(value),
            }) {
                Ok(_) => break,
                Err(DhtError::Timeout) => timeouts += 1,
                Err(e) => panic!("remote-faulty: unexpected error {e}"),
            }
        }
    }
    assert!(timeouts > 0, "loss 0.4 must surface faults");
    // Read past the injector, so the check itself loses nothing.
    assert_eq!(
        sorted(Dht::get(dht.inner(), &key)),
        vec![
            Bytes::from_static(b"a"),
            Bytes::from_static(b"b"),
            Bytes::from_static(b"c")
        ],
        "remote-faulty: retried puts must all land exactly once"
    );
    // Accounting: only the RPCs that reached the cluster count — the
    // successes, the lost responses and the read; each counted pair is
    // two messages, same as every in-process substrate.
    let lost = dht.fault_stats().responses_lost;
    assert_eq!(dht.stats().messages, 2 * (3 + lost + 1));
}

#[test]
fn detached_registry_records_nothing() {
    for (name, mut dht) in substrates(4) {
        let key = Key::hash_of("silent");
        exec_put(dht.as_mut(), key, "v");
        let registry = MetricsRegistry::disabled();
        dht.set_metrics(registry.clone());
        exec_get(dht.as_mut(), key);
        assert!(
            registry.snapshot().is_empty(),
            "{name}: the disabled registry must stay empty"
        );
        assert!(dht.stats().messages >= 4, "{name}: ops still happen");
    }
}

#[test]
fn empty_network_reports_no_live_nodes() {
    let empties: Vec<(&'static str, Box<dyn Dht>)> = vec![
        ("ring", Box::new(RingDht::new())),
        ("chord", Box::new(ChordNetwork::new())),
        (
            "remote",
            Box::new(RemoteDht::connect(Vec::new(), RemoteDhtConfig::default())),
        ),
    ];
    for (name, mut dht) in empties {
        for op in [
            DhtOp::NodeFor(Key::hash_of("k")),
            DhtOp::Get(Key::hash_of("k")),
            DhtOp::Put {
                key: Key::hash_of("k"),
                value: Bytes::from_static(b"v"),
            },
            DhtOp::Remove {
                key: Key::hash_of("k"),
                value: Bytes::from_static(b"v"),
            },
        ] {
            assert_eq!(
                dht.execute(op.clone()),
                Err(DhtError::NoLiveNodes),
                "{name}: {op:?}"
            );
        }
    }
}

/// A deterministic mixed workload cycling over a few keys: puts, gets,
/// resolutions, and removes (some hitting stored values, some absent).
fn mixed_ops(n: usize) -> Vec<DhtOp> {
    (0..n)
        .map(|i| {
            let key = Key::hash_of(&format!("batch-{}", i % 7));
            match i % 4 {
                0 => DhtOp::Put {
                    key,
                    value: Bytes::from(format!("v{i}")),
                },
                1 => DhtOp::Get(key),
                2 => DhtOp::NodeFor(key),
                _ => DhtOp::Remove {
                    key: Key::hash_of("batch-0"),
                    value: Bytes::from_static(b"v0"),
                },
            }
        })
        .collect()
}

#[test]
fn execute_many_matches_unary_execute() {
    // The batch entry point is an API convenience plus a wire
    // optimization — never a semantic change. For every substrate a
    // mixed batch must return exactly what a twin issuing the same ops
    // one by one returns, with identical final accounting.
    let ops = mixed_ops(24);
    for ((name, mut batched), (_, mut unary)) in substrates(8).into_iter().zip(substrates(8)) {
        let batch_results = batched.execute_many(ops.clone());
        let unary_results: Vec<_> = ops.iter().cloned().map(|op| unary.execute(op)).collect();
        assert_eq!(
            batch_results, unary_results,
            "{name}: batch results must match the unary sequence op for op"
        );
        assert_eq!(
            batched.stats(),
            unary.stats(),
            "{name}: per-op accounting must survive batching"
        );
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    for (name, mut dht) in substrates(4) {
        assert!(dht.execute_many(Vec::new()).is_empty(), "{name}");
        assert_eq!(dht.stats().messages, 0, "{name}: no ops, no messages");
    }
}

#[test]
fn execute_many_preserves_fault_schedules() {
    // The fault wrapper keeps the trait's default per-op loop, so a batch
    // draws its fault rolls in exactly the order the unary sequence
    // would: same seed, same schedule, same per-op outcomes.
    let ops = mixed_ops(30);
    let mut batched = FaultyDht::new(RingDht::from_ids(keys(4)), FaultConfig::lossy(11, 0.3));
    let mut unary = FaultyDht::new(RingDht::from_ids(keys(4)), FaultConfig::lossy(11, 0.3));
    let batch_results = batched.execute_many(ops.clone());
    let unary_results: Vec<_> = ops.into_iter().map(|op| unary.execute(op)).collect();
    assert_eq!(batch_results, unary_results);
    assert!(
        batch_results.iter().any(|r| r.is_err()),
        "loss 0.3 over 30 ops must inject at least one fault"
    );
    assert!(
        batch_results.iter().any(|r| r.is_ok()),
        "and must not drop everything"
    );
    assert_eq!(
        batched.fault_stats().injected(),
        unary.fault_stats().injected()
    );
    assert_eq!(batched.stats(), unary.stats());
}

#[test]
fn replicated_remote_cluster_matches_in_process_twin_batch_and_unary() {
    // Replication is a durability feature, not a semantic one: a
    // quorum-read cluster (R=3, W=2, Rq=2) must answer a mixed batch —
    // and the same ops issued one by one — exactly like an in-process
    // unreplicated ring, with identical DhtStats. Fan-out writes and
    // quorum reads happen, but the accounting convention stays one
    // completed op = two messages + one lookup, independent of how many
    // replicas were touched.
    let ops = mixed_ops(24);
    let mut batched = replicated_cluster(5);
    let mut unary = replicated_cluster(5);
    let mut twin = RingDht::from_ids(keys(5));
    let batch_results = batched.execute_many(ops.clone());
    let unary_results: Vec<_> = ops.iter().cloned().map(|op| unary.execute(op)).collect();
    let twin_results = twin.execute_many(ops);
    assert_eq!(
        batch_results, unary_results,
        "replicated batch must match the replicated unary sequence"
    );
    assert_eq!(
        batch_results, twin_results,
        "replicated cluster must answer like the in-process ring"
    );
    assert_eq!(
        batched.stats(),
        twin.stats(),
        "quorum fan-out must not leak into the accounting convention"
    );
    assert_eq!(batched.stats(), unary.stats());
}

#[test]
fn stale_replica_is_invisible_to_conformance_and_repair_restores_it() {
    // One member's substrate is wiped in place — a replica serving stale
    // (empty) data. At read quorum 2 the cluster must keep answering
    // exactly like the in-process twin (the lowest-ranked non-empty
    // reply wins), with unchanged accounting; after an anti-entropy
    // pass the wiped member holds its copies again and answers alike.
    let mut remote = replicated_cluster(3);
    let mut twin = RingDht::from_ids(keys(3));
    let data: Vec<Key> = (0..12)
        .map(|i| Key::hash_of(&format!("stale-{i}")))
        .collect();
    for (i, key) in data.iter().enumerate() {
        let value = format!("v{i}");
        assert!(exec_put(&mut remote, *key, &value));
        assert!(exec_put(&mut twin, *key, &value));
    }
    remote.cluster().server(1).replace_entries(Vec::new());
    for key in &data {
        assert_eq!(
            exec_get(&mut remote, *key),
            exec_get(&mut twin, *key),
            "a stale replica must be masked by the read quorum"
        );
    }
    remote.cluster().repair_all();
    for key in &data {
        assert_eq!(
            exec_get(&mut remote, *key),
            exec_get(&mut twin, *key),
            "repair must not change what the quorum already answered"
        );
    }
    assert_eq!(
        remote.stats(),
        twin.stats(),
        "stale-replica masking and repair must be accounting-neutral"
    );
}

#[test]
fn convenience_wrappers_match_execute() {
    for (name, mut dht) in substrates(16) {
        let key = Key::hash_of("wrapped");
        assert!(dht.put(key, Bytes::from_static(b"v")), "{name}");
        assert_eq!(
            dht.execute(DhtOp::Get(key)).unwrap(),
            DhtResponse::Values(vec![Bytes::from_static(b"v")]),
            "{name}: wrapper put must be visible through execute"
        );
        assert!(dht.remove(&key, b"v"), "{name}");
        assert!(dht.get(&key).is_empty(), "{name}");
    }
}
