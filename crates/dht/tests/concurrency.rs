//! Concurrency tests: read paths of the substrates are `Sync` and behave
//! under parallel access (lookups are `&self` with atomic counters).

use std::sync::RwLock;

use bytes::Bytes;
use p2p_index_dht::{ChordNetwork, Dht, Key, NodeId, RingDht};

#[test]
fn substrates_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ChordNetwork>();
    assert_send_sync::<RingDht>();
    assert_send_sync::<Key>();
    assert_send_sync::<NodeId>();
}

#[test]
fn parallel_chord_lookups_agree_with_oracle() {
    let mut net =
        ChordNetwork::with_perfect_tables((0..128).map(|i| Key::hash_of(&format!("node-{i}"))));
    for i in 0..500 {
        net.put(
            Key::hash_of(&format!("item-{i}")),
            Bytes::from(format!("v{i}")),
        );
    }
    let net = &net;
    std::thread::scope(|scope| {
        for t in 0..8 {
            scope.spawn(move || {
                for i in (t..500).step_by(8) {
                    let key = Key::hash_of(&format!("item-{i}"));
                    // Routed read returns the stored value...
                    assert_eq!(net.get(&key), vec![Bytes::from(format!("v{i}"))]);
                    // ...and routed resolution matches the global oracle.
                    let origin = net.nodes()[i % 128];
                    let (owner, _) = net.find_successor_from(*origin.key(), &key);
                    assert_eq!(Some(owner), net.responsible_node(&key));
                }
            });
        }
    });
    // Stats kept up with the concurrent traffic.
    assert!(net.stats().lookups >= 1000);
}

#[test]
fn concurrent_readers_with_writer_behind_rwlock() {
    // The intended shared-state pattern for applications: RwLock around
    // the network, many readers, occasional writer.
    let net = RwLock::new(RingDht::with_named_nodes(64));
    for i in 0..200 {
        net.write()
            .expect("no writer panicked")
            .put(Key::hash_of(&format!("k{i}")), Bytes::from(format!("v{i}")));
    }
    std::thread::scope(|scope| {
        // Readers.
        for t in 0..4 {
            let net = &net;
            scope.spawn(move || {
                for round in 0..50 {
                    let i = (t * 50 + round) % 200;
                    let values = net
                        .read()
                        .expect("no writer panicked")
                        .get(&Key::hash_of(&format!("k{i}")));
                    assert_eq!(values, vec![Bytes::from(format!("v{i}"))]);
                }
            });
        }
        // Writer adding fresh keys concurrently.
        let net = &net;
        scope.spawn(move || {
            for i in 200..260 {
                net.write()
                    .expect("no writer panicked")
                    .put(Key::hash_of(&format!("k{i}")), Bytes::from(format!("v{i}")));
            }
        });
    });
    assert_eq!(net.read().expect("no writer panicked").total_keys(), 260);
}
