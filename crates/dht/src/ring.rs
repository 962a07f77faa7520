//! A direct consistent-hash ring substrate.
//!
//! The paper's evaluation deliberately abstracts the DHT away: "we simply
//! assume that the underlying DHT is able to find a node *n* responsible for
//! a given key *k*" (§V-A). [`RingDht`] is exactly that assumption turned
//! into code — node placement identical to Chord (`successor(key)` on the
//! identifier circle) resolved with the one routing rule every layer uses,
//! [`placement::successor_index`] (a binary search of the sorted node
//! positions, O(log n)), instead of routed hops. It is the
//! substrate used for the 500-node × 50 000-query simulations; the
//! [`Chord`](crate::chord) substrate exists to show the indexing layer
//! really does run over the full protocol
//! (`crates/core/tests/search_oracle.rs` runs the same searches over the
//! ring and Chord against one reference).
//!
//! Chord keeps its membership, placement and stores in a `RingDht` and
//! adds only routing on top; the ring's own op path is routing-free: no
//! routing state and no lookup origin, the [`PairCounters`] convention
//! (`NodeFor` and `remove` count no lookup) that the networked substrates
//! share, and it is the one substrate on a benchmark hot path
//! (`sim-lookup`, every cluster twin).

use bytes::Bytes;

use crate::api::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId, PairCounters};
use crate::key::Key;
use crate::placement;
use crate::storage::{NodeStore, StoredValues};

/// A consistent-hash ring with per-node multi-value stores.
///
/// Nodes sit on the 160-bit circle; the node responsible for a key is the
/// first node clockwise at or after the key — identical placement to Chord,
/// so data distribution statistics carry over between substrates.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use p2p_index_dht::{Dht, Key, RingDht};
///
/// let mut ring = RingDht::with_named_nodes(500);
/// let key = Key::hash_of("/article/author/last/Smith");
/// ring.put(key, Bytes::from_static(b"John/Smith"));
/// assert_eq!(ring.get(&key), vec![Bytes::from_static(b"John/Smith")]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct RingDht {
    /// Node positions, ascending around the identifier circle:
    /// [`placement::successor_index`] over them names a key's owner.
    ids: Vec<Key>,
    /// `stores[i]` is the store of the node at `ids[i]`.
    stores: Vec<NodeStore>,
    counters: PairCounters,
}

impl RingDht {
    /// Creates an empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a ring of `n` nodes with identifiers `h("node-0")` …
    /// `h("node-{n-1}")` — the standard deterministic population used
    /// throughout the experiments.
    pub fn with_named_nodes(n: usize) -> Self {
        Self::from_ids((0..n).map(|i| Key::hash_of(&format!("node-{i}"))))
    }

    /// Creates a ring from explicit node identifiers (duplicates collapsed).
    pub fn from_ids(ids: impl IntoIterator<Item = Key>) -> Self {
        let mut ring = Self::new();
        for id in ids {
            ring.add_node(NodeId::from_key(id));
        }
        ring
    }

    /// Adds a node. Returns `false` if it was already present.
    ///
    /// Keys the new node becomes responsible for move over from its
    /// successor, as in a DHT join.
    pub fn add_node(&mut self, id: NodeId) -> bool {
        let key = *id.key();
        let Err(at) = self.ids.binary_search(&key) else {
            return false;
        };
        // Take over (pred, id] from the current owner (our successor), both
        // resolved against the ring as it is *before* the join.
        let store = match self.ids.len() {
            0 => NodeStore::new(),
            len => {
                let pred = self.ids[(at + len - 1) % len];
                self.stores[at % len].split_off_interval(&pred, &key)
            }
        };
        self.ids.insert(at, key);
        self.stores.insert(at, store);
        true
    }

    /// Removes a node, handing its keys to its successor. Returns `false`
    /// if the node was not present.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        let Some(store) = self.drop_node(id) else {
            return false;
        };
        if let Some(succ) = placement::successor_index(&self.ids, id.key()) {
            let succ_store = &mut self.stores[succ];
            for (k, values) in store.iter() {
                for v in values.iter() {
                    succ_store.put(*k, v);
                }
            }
        }
        true
    }

    /// Removes a node as a crash does, handing back the store it loses.
    pub(crate) fn drop_node(&mut self, id: NodeId) -> Option<NodeStore> {
        let at = self.ids.binary_search(id.key()).ok()?;
        self.ids.remove(at);
        Some(self.stores.remove(at))
    }

    /// Node positions, ascending around the identifier circle.
    pub(crate) fn ids(&self) -> &[Key] {
        &self.ids
    }

    /// The node responsible for `key`, without touching the counters:
    /// [`placement::successor_index`] over the node positions.
    pub fn owner(&self, key: &Key) -> Option<NodeId> {
        placement::successor_index(&self.ids, key).map(|at| NodeId::from_key(self.ids[at]))
    }

    /// Read-only view of one node's store.
    pub fn store_of(&self, id: &NodeId) -> Option<&NodeStore> {
        let at = self.ids.binary_search(id.key()).ok()?;
        Some(&self.stores[at])
    }

    /// Per-node `(id, key_count, value_bytes)` in ring order — the input to
    /// the storage-distribution experiments.
    pub fn storage_distribution(&self) -> Vec<(NodeId, usize, usize)> {
        self.ids
            .iter()
            .zip(&self.stores)
            .map(|(id, s)| (NodeId::from_key(*id), s.key_count(), s.value_bytes()))
            .collect()
    }

    /// Total value bytes stored across all nodes (index storage footprint).
    pub fn total_value_bytes(&self) -> usize {
        self.stores.iter().map(NodeStore::value_bytes).sum()
    }

    /// Total distinct keys across all nodes.
    pub fn total_keys(&self) -> usize {
        self.stores.iter().map(NodeStore::key_count).sum()
    }

    /// Applies a `Put` or `Remove` to its owner's store, uncounted: what
    /// [`Dht::execute`] does with a write once it has counted the pair,
    /// and what a routed substrate over this ring does once it has routed
    /// and counted the write itself.
    ///
    /// # Panics
    ///
    /// On an empty ring, or if `write` is a read.
    pub(crate) fn apply_write(&mut self, write: DhtOp) -> DhtResponse {
        let at = placement::successor_index(&self.ids, write.key())
            .expect("a write goes to a non-empty ring");
        let store = &mut self.stores[at];
        match write {
            DhtOp::Put { key, value } => DhtResponse::Stored(store.put(key, &value).is_some()),
            DhtOp::Remove { key, value } => {
                DhtResponse::Removed(store.remove(&key, &value).is_some())
            }
            read => unreachable!("{} is no write", read.kind()),
        }
    }

    /// The one read: the owner's values under `key`, borrowed with the
    /// digest the store keeps, accounted as one `get` pair. Every read op
    /// answers from these: a digest or an unchanged conditional read
    /// hashes nothing, and only a `Values` answer copies the values.
    fn read(&self, key: &Key) -> StoredValues<'_> {
        match placement::successor_index(&self.ids, key) {
            Some(at) => {
                self.counters.record_pair("get", true);
                self.stores[at].get(key)
            }
            None => StoredValues::default(),
        }
    }
}

impl Dht for RingDht {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        if self.ids.is_empty() {
            return Err(DhtError::NoLiveNodes);
        }
        match op {
            DhtOp::NodeFor(key) => {
                let owner = self.owner(&key).expect("non-empty ring has an owner");
                Ok(DhtResponse::Node(owner))
            }
            DhtOp::Get(key) => Ok(DhtResponse::Values(self.get(&key))),
            DhtOp::GetDigest(key) => Ok(DhtResponse::from_seen(self.read(&key).seen())),
            DhtOp::GetIfChanged { key, seen } => Ok(self.read(&key).if_changed(seen)),
            write @ (DhtOp::Put { .. } | DhtOp::Remove { .. }) => {
                self.counters.record_pair(write.kind(), true);
                Ok(self.apply_write(write))
            }
        }
    }

    /// Op by op, as [`Dht::execute_many`] does, but in the caller's kept
    /// vectors: a warm caller's wave allocates only what its replies
    /// carry.
    fn execute_many_into(
        &mut self,
        ops: &mut Vec<DhtOp>,
        results: &mut Vec<Result<DhtResponse, DhtError>>,
    ) {
        results.extend(ops.drain(..).map(|op| self.execute(op)));
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.owner(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.ids.iter().copied().map(NodeId::from_key).collect()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.read(key).to_bytes()
    }

    /// Every key lives on exactly one store, so this is each store's
    /// entries, values in stored order, sorted by key.
    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        let mut all: Vec<(Key, Vec<Bytes>)> = self
            .stores
            .iter()
            .flat_map(NodeStore::iter)
            .map(|(key, values)| (*key, values.to_bytes()))
            .collect();
        all.sort_unstable_by_key(|(key, _)| *key);
        all
    }

    fn stats(&self) -> DhtStats {
        self.counters.stats()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_index_testkit::{for_each_case, Rng};

    #[test]
    fn put_get_remove_roundtrip() {
        let mut ring = RingDht::with_named_nodes(10);
        let k = Key::hash_of("k");
        assert!(ring.put(k, Bytes::from_static(b"v")));
        assert_eq!(ring.get(&k), vec![Bytes::from_static(b"v")]);
        assert!(ring.remove(&k, b"v"));
        assert!(ring.get(&k).is_empty());
    }

    #[test]
    fn owner_is_clockwise_successor() {
        let ids = [Key::from_u64(100), Key::from_u64(200), Key::from_u64(300)];
        let ring = RingDht::from_ids(ids);
        assert_eq!(
            ring.owner(&Key::from_u64(150)).unwrap().key(),
            &Key::from_u64(200)
        );
        assert_eq!(
            ring.owner(&Key::from_u64(200)).unwrap().key(),
            &Key::from_u64(200)
        );
        assert_eq!(
            ring.owner(&Key::from_u64(250)).unwrap().key(),
            &Key::from_u64(300)
        );
        // Wrap-around: keys after the last node belong to the first.
        assert_eq!(
            ring.owner(&Key::from_u64(999)).unwrap().key(),
            &Key::from_u64(100)
        );
        assert_eq!(ring.owner(&Key::ZERO).unwrap().key(), &Key::from_u64(100));
    }

    #[test]
    fn empty_ring() {
        let mut ring = RingDht::new();
        assert!(ring.is_empty());
        assert_eq!(ring.owner(&Key::hash_of("x")), None);
        assert!(!ring.put(Key::hash_of("x"), Bytes::from_static(b"v")));
        assert!(ring.get(&Key::hash_of("x")).is_empty());
        assert!(!ring.remove(&Key::hash_of("x"), b"v"));
    }

    #[test]
    fn add_node_moves_keys() {
        let mut ring = RingDht::from_ids([Key::from_u64(100), Key::from_u64(300)]);
        // Keys 150 and 250 both owned by node 300.
        let k150 = Key::from_u64(150);
        let k250 = Key::from_u64(250);
        ring.put(k150, Bytes::from_static(b"a"));
        ring.put(k250, Bytes::from_static(b"b"));
        // Node 200 joins: should take over (100, 200], i.e. key 150.
        assert!(ring.add_node(NodeId::from_key(Key::from_u64(200))));
        let n200 = NodeId::from_key(Key::from_u64(200));
        let n300 = NodeId::from_key(Key::from_u64(300));
        assert!(ring.store_of(&n200).unwrap().contains_key(&k150));
        assert!(ring.store_of(&n300).unwrap().contains_key(&k250));
        assert_eq!(ring.get(&k150), vec![Bytes::from_static(b"a")]);
        assert_eq!(ring.get(&k250), vec![Bytes::from_static(b"b")]);
    }

    #[test]
    fn entries_sort_keys_and_keep_each_stores_values_in_order() {
        let mut ring = RingDht::from_ids([Key::from_u64(100), Key::from_u64(300)]);
        let (k50, k150) = (Key::from_u64(50), Key::from_u64(150));
        ring.put(k150, Bytes::from_static(b"v1"));
        ring.put(k50, Bytes::from_static(b"v2"));
        ring.put(k150, Bytes::from_static(b"v1")); // a duplicate, not stored
        ring.put(k150, Bytes::from_static(b"v1b"));
        let n100 = NodeId::from_key(Key::from_u64(100));
        assert!(ring.store_of(&n100).unwrap().contains_key(&k50));
        assert!(!ring.store_of(&n100).unwrap().contains_key(&k150));
        let entries = ring.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], (k50, vec![Bytes::from_static(b"v2")]));
        assert_eq!(
            entries[1],
            (
                k150,
                vec![Bytes::from_static(b"v1"), Bytes::from_static(b"v1b")]
            )
        );
    }

    #[test]
    fn add_duplicate_node_is_noop() {
        let mut ring = RingDht::with_named_nodes(3);
        let id = ring.nodes()[0];
        assert!(!ring.add_node(id));
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn remove_node_hands_keys_to_successor() {
        let mut ring = RingDht::with_named_nodes(5);
        let items: Vec<Key> = (0..100).map(|i| Key::hash_of(&format!("i{i}"))).collect();
        for (i, k) in items.iter().enumerate() {
            ring.put(*k, Bytes::from(format!("v{i}")));
        }
        let victim = ring.nodes()[2];
        assert!(ring.remove_node(victim));
        assert!(!ring.remove_node(victim));
        for (i, k) in items.iter().enumerate() {
            assert_eq!(ring.get(k), vec![Bytes::from(format!("v{i}"))], "item {i}");
        }
    }

    #[test]
    fn storage_distribution_sums_match_totals() {
        let mut ring = RingDht::with_named_nodes(8);
        for i in 0..200 {
            ring.put(
                Key::hash_of(&format!("i{i}")),
                Bytes::from(format!("value-{i}")),
            );
        }
        let dist = ring.storage_distribution();
        let keys: usize = dist.iter().map(|(_, k, _)| k).sum();
        let bytes: usize = dist.iter().map(|(_, _, b)| b).sum();
        assert_eq!(keys, ring.total_keys());
        assert_eq!(bytes, ring.total_value_bytes());
        assert_eq!(keys, 200);
    }

    #[test]
    fn matches_chord_placement() {
        use crate::chord::ChordNetwork;
        let ids: Vec<Key> = (0..32)
            .map(|i| Key::hash_of(&format!("node-{i}")))
            .collect();
        let ring = RingDht::from_ids(ids.clone());
        let chord = ChordNetwork::with_perfect_tables(ids);
        for i in 0..200 {
            let k = Key::hash_of(&format!("probe-{i}"));
            assert_eq!(
                ring.owner(&k).unwrap().key(),
                &chord.responsible_node(&k).unwrap(),
                "placement must be identical across substrates"
            );
        }
    }

    #[test]
    fn every_key_has_exactly_one_owner() {
        for_each_case(|rng| {
            let ring = RingDht::with_named_nodes(rng.gen_range(1..40));
            let key = Key::hash_of(&format!("probe-{}", rng.gen::<u64>()));
            let owner = ring.owner(&key).unwrap();
            // Owner must be a live node and key must be in (pred(owner), owner].
            let nodes = ring.nodes();
            assert!(nodes.contains(&owner));
            let pos = nodes.iter().position(|x| x == &owner).unwrap();
            let pred = nodes[(pos + nodes.len() - 1) % nodes.len()];
            if nodes.len() > 1 {
                assert!(key.in_interval(pred.key(), owner.key()));
            }
        });
    }

    #[test]
    fn join_leave_preserves_data() {
        for_each_case(|rng| {
            let mut ring = RingDht::with_named_nodes(rng.gen_range(2..16));
            let keys: Vec<Key> = (0..rng.gen_range(1..50usize))
                .map(|i| Key::hash_of(&format!("d{i}")))
                .collect();
            for (i, k) in keys.iter().enumerate() {
                ring.put(*k, Bytes::from(format!("v{i}")));
            }
            ring.add_node(NodeId::hash_of("joiner"));
            ring.remove_node(ring.nodes()[0]);
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(ring.get(k), vec![Bytes::from(format!("v{i}"))]);
            }
        });
    }
}
