//! Property tests for the store half of anti-entropy repair: bucket
//! digests and per-bucket enumeration on [`ShardedDht`].
//!
//! Two members decide what to push each other by comparing
//! [`ShardedDht::bucket_digests`], so the digests' invariants are
//! cluster-convergence invariants:
//!
//! * **Content-only** — the same stored pairs and tombstones digest the
//!   same whatever order they arrived in.
//! * **Local** — one pair stored, removed or tombstoned moves exactly its
//!   own bucket's digest, so a single write never costs more than one
//!   bucket's push.
//! * **Two classes** — a pair that is stored *and* tombstoned digests
//!   differently from one that is only tombstoned, or a member restored
//!   from an old image would look healthy and never be scrubbed.
//! * **Complete** — enumerating all [`REPAIR_BUCKETS`] buckets yields the
//!   whole partition, each key in the bucket [`repair_bucket`] names.
//! * **Kept, never drifting** — the sums a store on a ring keeps on write
//!   ([`ShardedDht::kept_digests`]) equal the sweep for every audience
//!   after every write, wipe and restore.
//!
//! Each property runs over seeded cases (`p2p_index_testkit`), so a run
//! repeats exactly and a failure names the seed of its case.

use std::collections::BTreeMap;

use bytes::Bytes;
use p2p_index_dht::{
    placement, repair_bucket, BucketDigests, Dht, DhtOp, Key, NodeId, ShardedDht, REPAIR_BUCKETS,
};
use p2p_index_testkit::{bytes, digest, for_each_case, Rng, StdRng};

/// A write to `(key, value)`: on a store with a ring a put stores the pair
/// and lifts its tombstone, a remove drops it and records the tombstone.
fn write(key: Key, value: &Bytes, put: bool) -> DhtOp {
    let value = value.clone();
    if put {
        DhtOp::Put { key, value }
    } else {
        DhtOp::Remove { key, value }
    }
}

/// Distinct `(key, value)` pairs over a small key universe (so keys carry
/// several values), each with the write that leaves its final state:
/// `true` stored, `false` tombstoned.
fn pair_set(rng: &mut StdRng) -> Vec<(Key, Bytes, bool)> {
    let keys: Vec<Key> = (0..rng.gen_range(1..12usize))
        .map(|_| Key::from_digest(digest(rng)))
        .collect();
    let mut pairs = BTreeMap::new();
    for _ in 0..rng.gen_range(1..40usize) {
        let key = keys[rng.gen_range(0..keys.len())];
        let value = Bytes::from(bytes(rng, 0..24));
        pairs.insert((key, value), rng.gen_range(0..4usize) != 0);
    }
    let pairs = pairs.into_iter();
    pairs.map(|((key, value), put)| (key, value, put)).collect()
}

/// A replica store (its own ring of one) holding `pairs`.
fn store_of(pairs: &[(Key, Bytes, bool)]) -> ShardedDht {
    let node = NodeId::hash_of("node-0");
    let store = ShardedDht::with_ring(node, vec![*node.key()]);
    for (key, value, put) in pairs {
        store
            .execute_shared(write(*key, value, *put))
            .expect("a partition store never fails");
    }
    store
}

/// The digests over every key, as one audience.
fn digests(store: &ShardedDht) -> BucketDigests {
    store.bucket_digests(1, |_| Some(0))[0]
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for at in (1..items.len()).rev() {
        items.swap(at, rng.gen_range(0..=at));
    }
}

#[test]
fn digests_depend_on_content_not_on_order() {
    for_each_case(|rng| {
        let mut pairs = pair_set(rng);
        let reference = digests(&store_of(&pairs));
        for shuffled in 0..3 {
            shuffle(rng, &mut pairs);
            assert_eq!(digests(&store_of(&pairs)), reference, "{shuffled}");
        }
    });
}

#[test]
fn one_changed_pair_moves_exactly_its_own_bucket() {
    for_each_case(|rng| {
        let pairs = pair_set(rng);
        let store = store_of(&pairs);
        let before = digests(&store);
        // A pair already present (drop it, or tombstone it) or a new one
        // (store it, or tombstone it unseen).
        let (key, value) = if rng.gen() {
            let (key, value, _) = &pairs[rng.gen_range(0..pairs.len())];
            (*key, value.clone())
        } else {
            (
                Key::from_digest(digest(rng)),
                Bytes::from(bytes(rng, 24..32)),
            )
        };
        let was_stored = Dht::get(&store, &key).contains(&value);
        let put = rng.gen();
        store
            .execute_shared(write(key, &value, put))
            .expect("a partition store never fails");
        let after = digests(&store);
        // Re-storing or re-tombstoning what already is changes nothing.
        let was_dead = pairs.contains(&(key, value.clone(), false));
        let changed = put != was_stored || put == was_dead;
        for bucket in 0..REPAIR_BUCKETS {
            let moved = changed && bucket == repair_bucket(&key);
            assert_eq!(before[bucket] != after[bucket], moved, "bucket {bucket}");
        }
    });
}

#[test]
fn a_stored_and_tombstoned_pair_is_not_a_tombstoned_only_pair() {
    for_each_case(|rng| {
        let key = Key::from_digest(digest(rng));
        let value = Bytes::from(bytes(rng, 0..24));
        let healthy = store_of(&[(key, value.clone(), false)]);
        // Restored from an image taken before the delete: the value is
        // back, the tombstone never left.
        let restored = store_of(&[(key, value.clone(), false)]);
        restored.replace_entries(vec![(key, vec![value.clone()])]);
        let stored_only = store_of(&[(key, value, true)]);
        let bucket = repair_bucket(&key);
        assert_ne!(digests(&restored)[bucket], digests(&healthy)[bucket]);
        assert_ne!(digests(&restored)[bucket], digests(&stored_only)[bucket]);
        assert_ne!(digests(&healthy)[bucket], digests(&stored_only)[bucket]);
        // Nothing of it is live, so nothing of it is ever pushed.
        assert!(restored.bucket_snapshot(bucket, |_| true).live.is_empty());
    });
}

#[test]
fn all_buckets_together_are_the_whole_partition() {
    for_each_case(|rng| {
        let pairs = pair_set(rng);
        let store = store_of(&pairs);
        let mut live = Vec::new();
        let mut dead = Vec::new();
        for bucket in 0..REPAIR_BUCKETS {
            let snapshot = store.bucket_snapshot(bucket, |_| true);
            let keys = snapshot.live.iter().chain(&snapshot.dead);
            for (key, values) in keys {
                assert_eq!(repair_bucket(key), bucket);
                assert!(!values.is_empty());
            }
            live.extend(snapshot.live);
            dead.extend(snapshot.dead);
        }
        let sorted = |mut entries: Vec<(Key, Vec<Bytes>)>| {
            entries.iter_mut().for_each(|(_, values)| values.sort());
            entries.sort();
            entries
        };
        // `pair_set` leaves no pair both stored and tombstoned, so what is
        // live is what is stored.
        assert_eq!(sorted(live), sorted(store.entries()));
        let mut tombstones: BTreeMap<Key, Vec<Bytes>> = BTreeMap::new();
        for (key, value, _) in pairs.iter().filter(|(_, _, put)| !put) {
            tombstones.entry(*key).or_default().push(value.clone());
        }
        assert_eq!(sorted(dead), sorted(tombstones.into_iter().collect()));
    });
}

#[test]
fn one_sweep_for_many_audiences_is_each_audiences_own_sweep() {
    for_each_case(|rng| {
        let pairs = pair_set(rng);
        let store = store_of(&pairs);
        // Audience `a` holds the keys whose second-lowest nibble has bit
        // `a` set — overlapping sets, and some keys in none.
        let member = |key: &Key, audience: usize| key.low_u64() >> (4 + audience) & 1 == 1;
        let together = store.bucket_digests(3, |key| {
            let key = *key;
            (0..3).filter(move |audience| member(&key, *audience))
        });
        for (audience, digests) in together.iter().enumerate() {
            let alone = store.bucket_digests(1, |key| member(key, audience).then_some(0));
            assert_eq!(*digests, alone[0], "audience {audience}");
            // …and equal to a store holding only that audience's keys,
            // which is what the member at the other end digests.
            let theirs: Vec<_> = pairs
                .iter()
                .filter(|(key, _, _)| member(key, audience))
                .cloned()
                .collect();
            assert_eq!(*digests, self::digests(&store_of(&theirs)));
            for bucket in 0..REPAIR_BUCKETS {
                let snapshot = store.bucket_snapshot(bucket, |key| member(key, audience));
                let keys = snapshot.live.iter().chain(&snapshot.dead);
                assert!(keys.into_iter().all(|(key, _)| member(key, audience)));
            }
        }
    });
}

#[test]
fn kept_sums_equal_the_sweep_for_every_audience_after_every_op() {
    for_each_case(|rng| {
        let members = [1, 3, 5, 8][rng.gen_range(0..4usize)];
        let replicas = rng.gen_range(1..=3usize);
        let mut ring: Vec<Key> = (0..members)
            .map(|i| Key::hash_of(&format!("node-{i}")))
            .collect();
        ring.sort();
        let store = ShardedDht::with_ring(NodeId::hash_of("node-0"), ring.clone());
        // A few random keys plus the members' own keys (a key equal to a
        // member's is that member's arc), a few values: duplicates, and
        // re-puts of tombstoned pairs, come up often.
        let mut keys: Vec<Key> = (0..rng.gen_range(1..10usize))
            .map(|_| Key::from_digest(digest(rng)))
            .collect();
        keys.extend(&ring);
        let values: Vec<Bytes> = (0..rng.gen_range(1..5usize))
            .map(|_| Bytes::from(bytes(rng, 0..16)))
            .collect();
        let holders = |key: &Key| placement::replica_range(&ring, key, replicas).indices();
        let mut image = Vec::new();
        for step in 0..rng.gen_range(1..80usize) {
            let key = keys[rng.gen_range(0..keys.len())];
            let value = &values[rng.gen_range(0..values.len())];
            match rng.gen_range(0..20usize) {
                0 => store.replace_entries(Vec::new()),
                1 => store.replace_entries(image.clone()),
                2 => image = store.entries(),
                // A peer's repair push of the pair.
                3..=6 => {
                    store.put_unless_dead(key, value);
                }
                _ => {
                    let op = write(key, value, rng.gen());
                    store
                        .execute_shared(op)
                        .expect("a partition store never fails");
                }
            }
            let swept = store.bucket_digests(members, holders);
            for (at, swept) in swept.iter().enumerate() {
                let kept = store.kept_digests(|arc| holders(&ring[arc]).any(|m| m == at));
                assert_eq!(kept, *swept, "audience {at} after step {step}");
            }
            assert_eq!(store.kept_digests(|_| true), digests(&store), "{step}");
        }
    });
}

#[test]
fn a_store_without_a_ring_keeps_no_sums() {
    for_each_case(|rng| {
        let store = ShardedDht::with_default_shards(NodeId::hash_of("node-0"));
        for (key, value, put) in pair_set(rng) {
            let op = write(key, &value, put);
            store
                .execute_shared(op)
                .expect("a partition store never fails");
        }
        assert_eq!(store.kept_digests(|_| true), [0; REPAIR_BUCKETS]);
        // Nor any tombstone: what it removed is simply gone.
        let dead = (0..REPAIR_BUCKETS).flat_map(|b| store.bucket_snapshot(b, |_| true).dead);
        assert_eq!(dead.count(), 0);
    });
}
