//! Successor-list replica placement, shared by every layer that must
//! agree on *where* a key's copies live.
//!
//! The placement rule is the one Chord/DHash uses: a key belongs to its
//! clockwise successor on the identifier circle, and its replicas go to
//! the next `r - 1` distinct successors. Three independent components
//! need this rule and must never disagree:
//!
//! * [`RingDht`](crate::ring::RingDht) and
//!   [`ChordNetwork`](crate::chord::ChordNetwork) place primaries (and,
//!   for Chord, replica sets) with it;
//! * the networked client (`RemoteDht` in `p2p-index-net`) routes
//!   operations to replica members with it;
//! * the networked server's repair pass decides which peers should hold
//!   each locally-stored key with it.
//!
//! Client-side routing and server-side repair calling one function is
//! what makes "the client reads where the repair pass writes" a
//! structural property instead of a convention, so the function lives
//! here, below both.

use crate::key::Key;

/// Index into `ring` of the clockwise successor of `key`: the first
/// node at or after `key`, wrapping to the ring's first node.
///
/// `ring` must be sorted ascending and free of duplicates (the natural
/// state of a node-key list collected from a `BTreeMap`). Returns
/// `None` only for an empty ring.
pub fn successor_index(ring: &[Key], key: &Key) -> Option<usize> {
    if ring.is_empty() {
        return None;
    }
    let at = ring.partition_point(|node| node < key);
    Some(if at == ring.len() { 0 } else { at })
}

/// A key's replica set as a window on the ring: `len` consecutive ring
/// positions starting at the key's clockwise successor, wrapping past the
/// ring's end. `Copy` and allocation-free, so a router can keep one per
/// in-flight op and resolve "the member at rank k" on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaRange {
    first: usize,
    len: usize,
    ring_len: usize,
}

impl ReplicaRange {
    /// How many members hold a copy (0 only for an empty ring).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` only for an empty ring.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ring index of the replica at `rank` (0 is the primary).
    ///
    /// # Panics
    ///
    /// Panics when `rank >= self.len()`.
    pub fn index(&self, rank: usize) -> usize {
        assert!(
            rank < self.len,
            "rank {rank} outside a {}-replica set",
            self.len
        );
        (self.first + rank) % self.ring_len
    }

    /// The ring indices in placement order (primary first).
    pub fn indices(self) -> impl ExactSizeIterator<Item = usize> {
        (0..self.len).map(move |rank| self.index(rank))
    }

    /// `true` when the member at ring index `at` holds a copy. Arithmetic
    /// on the window, so a sweep over a whole partition can ask it once
    /// per key and allocate nothing.
    pub fn contains(&self, at: usize) -> bool {
        at < self.ring_len && (at + self.ring_len - self.first) % self.ring_len < self.len
    }
}

/// The replica set for `key` over `ring`: the clockwise successor
/// followed by the next `replicas - 1` distinct successors, in
/// placement order (primary first).
///
/// The count is clamped to `[1, ring.len()]`, so every node holds a
/// copy when the ring is smaller than the requested factor and a
/// degenerate `replicas == 0` request still yields the primary. A node
/// never appears twice: walking `min(replicas, n)` steps from the
/// successor cannot revisit a position. Empty only for an empty ring.
pub fn replica_range(ring: &[Key], key: &Key, replicas: usize) -> ReplicaRange {
    match successor_index(ring, key) {
        Some(first) => ReplicaRange {
            first,
            len: replicas.clamp(1, ring.len()),
            ring_len: ring.len(),
        },
        None => ReplicaRange {
            first: 0,
            len: 0,
            ring_len: 0,
        },
    }
}

/// [`replica_range`] resolved to the members' ring keys.
pub fn replica_keys(ring: &[Key], key: &Key, replicas: usize) -> Vec<Key> {
    replica_range(ring, key, replicas)
        .indices()
        .map(|at| ring[at])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(names: &[&str]) -> Vec<Key> {
        let mut ring: Vec<Key> = names.iter().map(|n| Key::hash_of(n)).collect();
        ring.sort();
        ring
    }

    #[test]
    fn empty_ring_places_nowhere() {
        assert_eq!(successor_index(&[], &Key::hash_of("k")), None);
        assert!(replica_keys(&[], &Key::hash_of("k"), 3).is_empty());
    }

    #[test]
    fn successor_wraps_past_the_last_node() {
        let ring = ring_of(&["node-0", "node-1", "node-2"]);
        // A key strictly after the highest node wraps to the first.
        let past_last = ring[2].wrapping_add(&Key::from_u64(1));
        assert_eq!(successor_index(&ring, &past_last), Some(0));
        // A node's own key is its own successor (the interval is (pred, self]).
        assert_eq!(successor_index(&ring, &ring[1]), Some(1));
    }

    #[test]
    fn replica_sets_are_contiguous_and_distinct() {
        let ring = ring_of(&["a", "b", "c", "d", "e"]);
        let key = Key::hash_of("some-key");
        let set = replica_keys(&ring, &key, 3);
        assert_eq!(set.len(), 3);
        let first = successor_index(&ring, &key).unwrap();
        for (k, member) in set.iter().enumerate() {
            assert_eq!(*member, ring[(first + k) % ring.len()]);
        }
        let mut dedup = set.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), set.len(), "no node appears twice");
    }

    #[test]
    fn replica_range_wraps_and_resolves_ranks_without_a_ring() {
        let ring = ring_of(&["a", "b", "c", "d", "e"]);
        // A key owned by the last node: ranks 1 and 2 wrap to the front.
        let range = replica_range(&ring, &ring[4], 3);
        assert_eq!(range.len(), 3);
        assert_eq!(range.indices().len(), 3);
        assert_eq!(range.indices().collect::<Vec<_>>(), vec![4, 0, 1]);
        assert_eq!(range.index(2), 1);
        assert!(replica_range(&[], &ring[0], 3).is_empty());
    }

    #[test]
    fn contains_is_membership_in_indices() {
        let ring = ring_of(&["a", "b", "c", "d", "e"]);
        for key in ring.iter().chain(&[Key::hash_of("k"), Key::ZERO]) {
            for replicas in 0..7 {
                let range = replica_range(&ring, key, replicas);
                let members: Vec<usize> = range.indices().collect();
                for at in 0..ring.len() + 2 {
                    assert_eq!(range.contains(at), members.contains(&at), "{at}");
                }
            }
        }
        assert!(!replica_range(&[], &ring[0], 3).contains(0));
    }

    #[test]
    fn factor_clamps_to_ring_size_and_to_one() {
        let ring = ring_of(&["a", "b"]);
        let key = Key::hash_of("k");
        assert_eq!(replica_keys(&ring, &key, 10).len(), 2);
        assert_eq!(replica_keys(&ring, &key, 0).len(), 1);
        assert_eq!(
            replica_keys(&ring, &key, 0)[0],
            ring[successor_index(&ring, &key).unwrap()]
        );
    }
}
