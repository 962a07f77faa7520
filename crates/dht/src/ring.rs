//! A direct consistent-hash ring substrate.
//!
//! The paper's evaluation deliberately abstracts the DHT away: "we simply
//! assume that the underlying DHT is able to find a node *n* responsible for
//! a given key *k*" (§V-A). [`RingDht`] is exactly that assumption turned
//! into code — node placement identical to Chord (`successor(key)` on the
//! identifier circle) but resolved with one ordered-map successor lookup
//! (`BTreeMap::range`, O(log n)) instead of routed hops. It is the
//! substrate used for the 500-node × 50 000-query simulations; the
//! [`Chord`](crate::chord) substrate exists to show the indexing layer
//! really does run over the full protocol
//! (`crates/core/tests/search_oracle.rs` runs the same searches over the
//! ring and Chord against one reference).
//!
//! `RingDht` deliberately shares no code with Chord's op path: it has no
//! routing state and no lookup origin, it keeps the [`PairCounters`]
//! convention (`NodeFor` and `remove` count no lookup) that the networked
//! substrates share, and it is the one substrate on a benchmark hot path
//! (`sim-lookup`, every cluster twin), where Chord's `Vec<Key>` replica
//! set per operation would be pure cost.

use std::collections::BTreeMap;

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::api::{self, Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId, PairCounters};
use crate::key::Key;
use crate::storage::NodeStore;

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
    /// Node position → that node's store, ordered around the identifier
    /// circle. One map serves as both the ring ordering and the storage
    /// table: `range(key..)` resolves the clockwise successor in O(log n).
    stores: BTreeMap<Key, NodeStore>,
    counters: PairCounters,
    metrics: MetricsRegistry,
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
        if self.stores.contains_key(&key) {
            return false;
        }
        // Take over (pred, id] from the current owner (our successor), both
        // resolved against the ring as it is *before* the join.
        let moved = match (self.successor(&key), self.predecessor(&key)) {
            (Some(succ), Some(pred)) => self
                .stores
                .get_mut(&succ)
                .map(|s| s.split_off_interval(&pred, &key))
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        let store = self.stores.entry(key).or_default();
        for (k, values) in moved {
            for v in values {
                store.put(k, v);
            }
        }
        true
    }

    /// Removes a node, handing its keys to its successor. Returns `false`
    /// if the node was not present.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        let key = *id.key();
        let Some(store) = self.stores.remove(&key) else {
            return false;
        };
        if let Some(succ) = self.owner(&key) {
            let succ_store = self.stores.entry(*succ.key()).or_default();
            for (k, values) in store.iter() {
                for v in values {
                    succ_store.put(*k, v.clone());
                }
            }
        }
        true
    }

    /// The first node clockwise at or after `key` (wrapping to the lowest
    /// position), or `None` on an empty ring.
    fn successor(&self, key: &Key) -> Option<Key> {
        self.stores
            .range(*key..)
            .next()
            .or_else(|| self.stores.iter().next())
            .map(|(k, _)| *k)
    }

    /// The first node strictly before `key` (wrapping to the highest
    /// position), or `None` on an empty ring.
    fn predecessor(&self, key: &Key) -> Option<Key> {
        self.stores
            .range(..*key)
            .next_back()
            .or_else(|| self.stores.iter().next_back())
            .map(|(k, _)| *k)
    }

    /// The node responsible for `key`, without touching the counters:
    /// an O(log n) `BTreeMap::range` successor lookup.
    pub fn owner(&self, key: &Key) -> Option<NodeId> {
        self.successor(key).map(NodeId::from_key)
    }

    /// Read-only view of one node's store.
    pub fn store_of(&self, id: &NodeId) -> Option<&NodeStore> {
        self.stores.get(id.key())
    }

    /// Per-node `(id, key_count, value_bytes)` in ring order — the input to
    /// the storage-distribution experiments.
    pub fn storage_distribution(&self) -> Vec<(NodeId, usize, usize)> {
        self.stores
            .iter()
            .map(|(id, s)| (NodeId::from_key(*id), s.key_count(), s.value_bytes()))
            .collect()
    }

    /// Total value bytes stored across all nodes (index storage footprint).
    pub fn total_value_bytes(&self) -> usize {
        self.stores.values().map(NodeStore::value_bytes).sum()
    }

    /// Total distinct keys across all nodes.
    pub fn total_keys(&self) -> usize {
        self.stores.values().map(NodeStore::key_count).sum()
    }
}

impl RingDht {
    /// The one read: the owner's values under `key`, borrowed, accounted
    /// as one `get` pair. Every read op answers from this slice, so a
    /// digest is hashed in place and only a `Values` answer copies it.
    fn read(&self, key: &Key) -> &[Bytes] {
        match self.owner(key) {
            Some(owner) => {
                self.counters.record_pair("get", true);
                self.stores[owner.key()].get(key)
            }
            None => &[],
        }
    }

    fn execute_inner(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        if self.stores.is_empty() {
            return Err(DhtError::NoLiveNodes);
        }
        match op {
            DhtOp::NodeFor(key) => {
                let owner = self.owner(&key).expect("non-empty ring has an owner");
                Ok(DhtResponse::Node(owner))
            }
            DhtOp::Get(key) => Ok(DhtResponse::Values(self.get(&key))),
            DhtOp::GetDigest(key) => Ok(DhtResponse::digest_of(&key, self.read(&key))),
            DhtOp::GetIfChanged { key, seen } => {
                Ok(DhtResponse::if_changed(&key, seen, self.read(&key)))
            }
            DhtOp::Put { key, value } => {
                let owner = self.owner(&key).expect("non-empty ring has an owner");
                self.counters.record_pair("put", true);
                let stored = self
                    .stores
                    .get_mut(owner.key())
                    .expect("owner has a store")
                    .put(key, value);
                Ok(DhtResponse::Stored(stored))
            }
            DhtOp::Remove { key, value } => {
                let owner = self.owner(&key).expect("non-empty ring has an owner");
                self.counters.record_pair("remove", true);
                let removed = self
                    .stores
                    .get_mut(owner.key())
                    .expect("owner has a store")
                    .remove(&key, &value);
                Ok(DhtResponse::Removed(removed))
            }
        }
    }
}

impl Dht for RingDht {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        if !self.metrics.is_enabled() {
            return self.execute_inner(op);
        }
        let kind = op.kind();
        let before = self.stats();
        let result = self.execute_inner(op);
        api::record_op(&self.metrics, kind, before, self.stats(), &result);
        result
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        if self.metrics.is_enabled() {
            // Per-op recording must stay identical to the unary sequence,
            // so a metered batch is exactly the loop the trait default runs.
            return ops.into_iter().map(|op| self.execute(op)).collect();
        }
        // The unmetered fast path: everything is in-process, so a batch
        // is the plain loop minus the per-op metrics branch.
        ops.into_iter().map(|op| self.execute_inner(op)).collect()
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.owner(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.stores.keys().copied().map(NodeId::from_key).collect()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.read(key).to_vec()
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        crate::storage::merged_entries(self.stores.values())
    }

    fn stats(&self) -> DhtStats {
        self.counters.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    fn len(&self) -> usize {
        self.stores.len()
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
