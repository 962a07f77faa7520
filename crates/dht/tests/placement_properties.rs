//! Property tests for successor-list replica placement.
//!
//! `placement::replica_keys` is the one function the networked client's
//! routing, the server's write fan-out, and the anti-entropy repair pass
//! all call — so its invariants are cluster-correctness invariants:
//!
//! * **Deterministic** — same ring, key, and factor always place
//!   identically (no hidden state), which is what lets client and
//!   servers compute placement independently and agree.
//! * **Distinct** — a key is never assigned twice to one node; the set
//!   is exactly `replicas.clamp(1, n)` members.
//! * **Contiguous** — the set is the clockwise successor followed by
//!   the next distinct successors, validated against an independent
//!   linear-scan oracle (the implementation routes through a binary
//!   search, so the oracle is a genuinely different derivation).
//!
//! Each property runs over seeded cases (`p2p_index_testkit`), so a run
//! repeats exactly and a failure names the seed of its case.

use p2p_index_dht::placement::{replica_keys, successor_index};
use p2p_index_dht::Key;
use p2p_index_testkit::{digest, for_each_case, Rng, StdRng};

/// Builds a valid placement ring (sorted ascending, deduplicated) from
/// arbitrary key material.
fn ring_from(mut keys: Vec<Key>) -> Vec<Key> {
    keys.sort();
    keys.dedup();
    keys
}

/// Independent oracle: find the successor by linear scan and walk the
/// sorted ring clockwise. No `partition_point`, no shared code with the
/// implementation under test.
fn naive_replica_set(ring: &[Key], key: &Key, replicas: usize) -> Vec<Key> {
    if ring.is_empty() {
        return Vec::new();
    }
    let first = ring.iter().position(|node| node >= key).unwrap_or(0);
    let count = replicas.clamp(1, ring.len());
    (0..count).map(|k| ring[(first + k) % ring.len()]).collect()
}

/// Asserts every placement invariant for one `(ring, key, replicas)`
/// triple.
fn check_placement(ring: &[Key], key: &Key, replicas: usize) {
    let set = replica_keys(ring, key, replicas);
    if ring.is_empty() {
        assert!(set.is_empty(), "an empty ring places nowhere");
        assert_eq!(successor_index(ring, key), None);
        return;
    }
    // Deterministic: placement is a pure function of its inputs.
    assert_eq!(
        set,
        replica_keys(ring, key, replicas),
        "placement must be deterministic"
    );
    // Exactly clamp(1, n) members — never zero, never more than the ring.
    assert_eq!(set.len(), replicas.clamp(1, ring.len()));
    // The primary is the clockwise successor.
    let first = successor_index(ring, key).expect("non-empty ring has a successor");
    assert_eq!(set[0], ring[first], "primary must be the successor");
    // Agrees with the independent linear-scan oracle — the property that
    // keeps client routing and server repair interchangeable.
    assert_eq!(
        set,
        naive_replica_set(ring, key, replicas),
        "binary-search placement diverged from the linear oracle"
    );
    // No node is assigned the same key twice.
    let mut dedup = set.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), set.len(), "a node appeared twice in one set");
    // Contiguous: each member is the ring-successor of the previous one,
    // and every member is a real ring node.
    for (k, member) in set.iter().enumerate() {
        assert_eq!(
            *member,
            ring[(first + k) % ring.len()],
            "replica set must walk contiguous clockwise successors"
        );
    }
}

/// A valid ring of as many members as a uniform draw from `size` says
/// (fewer if two digests collide).
fn arb_ring(rng: &mut StdRng, size: std::ops::Range<usize>) -> Vec<Key> {
    let n = rng.gen_range(size);
    ring_from((0..n).map(|_| Key::from_digest(digest(rng))).collect())
}

/// Every invariant holds for arbitrary rings, keys, and factors —
/// including degenerate factors (0, larger than the ring) and the
/// empty ring.
#[test]
fn placement_invariants() {
    for_each_case(|rng| {
        let ring = arb_ring(rng, 0..33);
        let key = Key::from_digest(digest(rng));
        check_placement(&ring, &key, rng.gen_range(0..12));
    });
}

/// Placing a ring member's own key starts the set at that member:
/// the successor interval is `(pred, self]`, so every node is the
/// primary for its own identifier.
#[test]
fn own_key_is_own_primary() {
    for_each_case(|rng| {
        let ring = arb_ring(rng, 1..24);
        let member = ring[rng.gen_range(0..ring.len())];
        let set = replica_keys(&ring, &member, rng.gen_range(1..6));
        assert_eq!(set[0], member);
    });
}

/// Exact sets for the standard named ring, so a placement change can
/// never hide behind oracle agreement: these are the literal assignments
/// every cluster component computes for `node-0..4`.
#[test]
fn named_ring_placement_is_pinned() {
    let ring = ring_from((0..5).map(|i| Key::hash_of(&format!("node-{i}"))).collect());
    let key = Key::hash_of("pinned-placement-probe");
    let set = replica_keys(&ring, &key, 3);
    let first = successor_index(&ring, &key).expect("non-empty ring");
    assert_eq!(
        set,
        vec![ring[first], ring[(first + 1) % 5], ring[(first + 2) % 5]]
    );
    // Full-ring factor covers every node exactly once, rotated to the
    // successor.
    let all = replica_keys(&ring, &key, 5);
    let mut sorted_all = all.clone();
    sorted_all.sort();
    assert_eq!(sorted_all, ring);
    assert_eq!(all[0], ring[first]);
}
