//! Concurrent hammer suite for the server's sharded partition store.
//!
//! N client threads issue interleaved put/get/remove/batch scripts
//! against one sharded `dhtd`, and every thread's results are checked
//! against a single-threaded oracle run of the same seeded script — the
//! sharding must be invisible except for the concurrency. A
//! shared-key phase then drives every thread at the *same* keys and
//! checks the settled final state.

use std::net::SocketAddr;

use bytes::Bytes;
use p2p_index_dht::{Dht, DhtOp, DhtResponse, Key, NodeId, RingDht, SplitMix64};
use p2p_index_net::{DhtServer, RemoteDht, RemoteDhtConfig, ServerConfig};
use p2p_index_obs::MetricsRegistry;

fn spawn_with(config: ServerConfig) -> (DhtServer, NodeId) {
    let node = NodeId::hash_of("node-0");
    let server = DhtServer::spawn_partition(node, "127.0.0.1:0", config).expect("server binds");
    (server, node)
}

fn client_for(addr: SocketAddr) -> RemoteDht {
    RemoteDht::connect(
        RemoteDht::named_members(&[addr]),
        RemoteDhtConfig::default(),
    )
}

/// One deterministic op drawn from a seeded stream over `keys`/`values`.
fn next_op(rng: &mut SplitMix64, keys: &[Key], values: &[Bytes]) -> DhtOp {
    let key = keys[rng.gen_index(keys.len())];
    let value = values[rng.gen_index(values.len())].clone();
    match rng.gen_index(100) {
        0..=49 => DhtOp::Get(key),
        50..=74 => DhtOp::Put { key, value },
        75..=89 => DhtOp::Remove { key, value },
        _ => DhtOp::NodeFor(key),
    }
}

/// A thread's scripted workload: unary ops interleaved with small
/// batches, all drawn from one seeded stream so an oracle can replay it.
fn script(seed: u64, keys: &[Key], values: &[Bytes], len: usize) -> Vec<Vec<DhtOp>> {
    let mut rng = SplitMix64::new(seed);
    let mut groups = Vec::with_capacity(len);
    while groups.len() < len {
        if rng.gen_bool(0.25) {
            // A batch of 2-5 ops, exercising the Batch wire path.
            let n = 2 + rng.gen_index(4);
            groups.push((0..n).map(|_| next_op(&mut rng, keys, values)).collect());
        } else {
            groups.push(vec![next_op(&mut rng, keys, values)]);
        }
    }
    groups
}

#[test]
fn hammer_threads_with_disjoint_keys_match_the_oracle() {
    const THREADS: usize = 8;
    const GROUPS: usize = 60;
    let metrics = MetricsRegistry::new();
    let (server, node) = spawn_with(ServerConfig {
        metrics: metrics.clone(),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let values: Vec<Bytes> = (0..4).map(|m| Bytes::from(format!("v{m}"))).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let values = values.clone();
                scope.spawn(move || {
                    // Disjoint per-thread key spaces: interleaving with
                    // other threads cannot perturb this thread's view,
                    // so results must equal the oracle's exactly.
                    let keys: Vec<Key> = (0..8)
                        .map(|j| Key::hash_of(&format!("hammer-{t}-{j}")))
                        .collect();
                    let script = script(0xC0FFEE ^ t as u64, &keys, &values, GROUPS);
                    let mut remote = client_for(addr);
                    let mut oracle = RingDht::from_ids([*node.key()]);
                    for group in script {
                        let got = remote.execute_many(group.clone());
                        let want: Vec<_> = oracle.execute_many(group);
                        // NodeFor answers differ by design: the client
                        // resolves it locally against the member ring.
                        for (g, w) in got.iter().zip(&want) {
                            if matches!(w, Ok(DhtResponse::Node(_))) {
                                continue;
                            }
                            assert_eq!(g, w);
                        }
                    }
                    assert_eq!(remote.stats(), oracle.stats(), "thread {t} accounting");
                    // The final server-side state for this thread's keys
                    // must equal the oracle's store.
                    for key in &keys {
                        let mut got = Dht::get(&remote, key);
                        let mut want = Dht::get(&oracle, key);
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "thread {t} final state");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("hammer thread panicked");
        }
    });
    // Every op went through a shard lock, counted over the wire.
    assert!(metrics.counter("net.server.shard.read_locks") > 0);
    assert!(metrics.counter("net.server.shard.write_locks") > 0);
    server.shutdown();
}

#[test]
fn hammer_threads_on_shared_keys_settle_deterministically() {
    const THREADS: usize = 8;
    const OPS: usize = 120;
    let (server, _) = spawn_with(ServerConfig::default());
    let addr = server.local_addr();
    // All threads fight over the same four keys, but each writes only
    // its own thread-unique values — so interleaved gets see arbitrary
    // subsets, while each value's *final* presence is decided solely by
    // its owner thread's last write of it.
    let keys: Vec<Key> = (0..4)
        .map(|j| Key::hash_of(&format!("shared-{j}")))
        .collect();

    let finals: Vec<Vec<(Key, Bytes, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let keys = keys.clone();
                scope.spawn(move || {
                    let values: Vec<Bytes> =
                        (0..3).map(|m| Bytes::from(format!("t{t}-v{m}"))).collect();
                    let mut rng = SplitMix64::new(0xD15C0 ^ t as u64);
                    let mut remote = client_for(addr);
                    // Track the last write per (key, value): present iff
                    // the last one was a put.
                    let mut last: std::collections::BTreeMap<(Key, Bytes), bool> =
                        Default::default();
                    for _ in 0..OPS {
                        let key = keys[rng.gen_index(keys.len())];
                        let value = values[rng.gen_index(values.len())].clone();
                        match rng.gen_index(3) {
                            0 => {
                                remote.put(key, value.clone());
                                last.insert((key, value), true);
                            }
                            1 => {
                                remote.remove(&key, &value);
                                last.insert((key, value), false);
                            }
                            _ => {
                                // Interleaved reads must only ever see
                                // whole values someone actually wrote.
                                for v in Dht::get(&remote, &key) {
                                    let s = String::from_utf8(v.to_vec()).expect("utf8 value");
                                    assert!(
                                        s.starts_with('t') && s.contains("-v"),
                                        "torn or foreign value {s:?}"
                                    );
                                }
                            }
                        }
                    }
                    last.into_iter()
                        .map(|((k, v), present)| (k, v, present))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hammer thread panicked"))
            .collect()
    });

    // Settled state: each thread-unique value is present iff its owner's
    // last op on it was a put — no lost updates, no resurrections.
    let check = client_for(addr);
    for per_thread in finals {
        for (key, value, present) in per_thread {
            let stored = Dht::get(&check, &key).contains(&value);
            assert_eq!(stored, present, "final presence of {value:?}");
        }
    }
    server.shutdown();
}
