//! A Kademlia DHT simulation (XOR metric, k-buckets, iterative lookups).
//!
//! The indexing layer claims substrate independence; next to
//! [Chord](crate::chord) (ring + fingers) this module provides the other
//! classic DHT family — Kademlia (Maymounkov & Mazières, IPTPS 2002), the
//! design used by libp2p's DHT. Distance is `XOR`, routing state is one
//! k-bucket per distance prefix, and lookups iteratively query the `α`
//! closest known peers until the `k` closest nodes to the target have been
//! found. A key is stored on the node(s) closest to it by XOR.
//!
//! As with the Chord module, the whole network runs in one process and
//! RPCs are counted, not serialized. Routing tables are updated by the
//! traffic that flows through them (every reply teaches the querier about
//! new peers), so joins propagate exactly as in the real protocol.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use p2p_index_dht::{Dht, KademliaNetwork, Key};
//!
//! let mut net = KademliaNetwork::with_nodes(
//!     (0..32).map(|i| Key::hash_of(&format!("peer-{i}"))),
//! );
//! let key = Key::hash_of("item");
//! net.put(key, Bytes::from_static(b"value"));
//! assert_eq!(net.get(&key), vec![Bytes::from_static(b"value")]);
//! ```

use std::sync::atomic::Ordering;

use crate::key::{Key, KEY_BITS};
use crate::overlay::{Overlay, OverlayDht};

/// Tuning knobs of the Kademlia simulation.
#[derive(Debug, Clone)]
pub struct KademliaConfig {
    /// Bucket size (and lookup result width). Kademlia's classic k = 20.
    pub k: usize,
    /// Lookup parallelism α.
    pub alpha: usize,
    /// How many of the closest nodes store each key (1 = no replication;
    /// real Kademlia stores on all k).
    pub store_width: usize,
}

impl Default for KademliaConfig {
    fn default() -> Self {
        KademliaConfig {
            k: 20,
            alpha: 3,
            store_width: 1,
        }
    }
}

/// One Kademlia member's routing table: its k-buckets.
#[derive(Debug, Clone)]
pub struct KadNodeState {
    /// One bucket per shared-prefix length; entries are other node keys.
    buckets: Vec<Vec<Key>>,
}

impl KadNodeState {
    fn new() -> Self {
        KadNodeState {
            buckets: vec![Vec::new(); KEY_BITS],
        }
    }
}

/// The simulated Kademlia network: the [overlay skeleton](crate::overlay)
/// routed by [`KademliaConfig`].
///
/// See the [module docs](self) for an overview.
pub type KademliaNetwork = OverlayDht<KademliaConfig>;

impl Overlay for KademliaConfig {
    type Tables = KadNodeState;

    /// Responsibility is XOR-nearest; the iterative lookup (with table
    /// learning) lives on the mutating paths.
    fn route(net: &KademliaNetwork, key: &Key) -> Option<Key> {
        net.nearest_node(key)
    }

    fn route_mut(net: &mut KademliaNetwork, key: &Key) -> Option<Key> {
        let origin = net.pick_origin()?;
        net.find_closest(origin, key).0.first().copied()
    }

    /// The `store_width` closest nodes.
    fn replica_set(net: &KademliaNetwork, key: &Key) -> Vec<Key> {
        let mut nodes = net.order.clone();
        nodes.sort_by_key(|n| n.xor(key));
        nodes.truncate(net.cfg.store_width.max(1));
        nodes
    }

    /// The newcomer looks up its own identifier, which both fills its
    /// table and announces it to the nodes nearest to it.
    fn join(net: &mut KademliaNetwork, id: Key, bootstrap: Key) {
        net.insert_member(id, KadNodeState::new());
        net.observe(&id, &bootstrap);
        let (_closest, _hops) = net.find_closest(id, &id);
    }

    fn stabilize(net: &mut KademliaNetwork) {
        net.rebalance_keys();
    }
}

impl KademliaNetwork {
    /// Builds a network over `ids` with fully populated routing tables
    /// (as if the network had been running long enough for every node to
    /// have seen traffic from its neighbourhood).
    pub fn with_nodes(ids: impl IntoIterator<Item = Key>) -> Self {
        Self::with_nodes_and_config(ids, KademliaConfig::default())
    }

    /// [`KademliaNetwork::with_nodes`] with an explicit configuration.
    pub fn with_nodes_and_config(ids: impl IntoIterator<Item = Key>, cfg: KademliaConfig) -> Self {
        let mut net = Self::with_members(cfg, ids, |_| KadNodeState::new());
        let all = net.order.clone();
        for a in &all {
            for b in &all {
                if a != b {
                    net.observe(a, b);
                }
            }
        }
        net
    }

    /// Records that node `who` has seen node `seen`: inserts `seen` into
    /// the appropriate k-bucket, evicting the farthest entry if the bucket
    /// is full and `seen` is closer (a deterministic stand-in for the
    /// liveness-based eviction of the real protocol).
    fn observe(&mut self, who: &Key, seen: &Key) {
        if who == seen {
            return;
        }
        let Some(state) = self.nodes.get_mut(who) else {
            return;
        };
        let idx = bucket_index(who, seen);
        let bucket = &mut state.buckets[idx];
        if bucket.contains(seen) {
            return;
        }
        if bucket.len() < self.cfg.k {
            bucket.push(*seen);
            return;
        }
        // Full: replace the farthest entry if the newcomer is closer.
        let (far_pos, far_key) = bucket
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| who.xor(b))
            .map(|(i, b)| (i, *b))
            .expect("bucket is non-empty");
        if who.xor(seen) < who.xor(&far_key) {
            bucket[far_pos] = *seen;
        }
    }

    /// The `count` live nodes closest to `target` that `node` knows about.
    fn closest_known(&self, node: &Key, target: &Key, count: usize) -> Vec<Key> {
        let Some(state) = self.nodes.get(node) else {
            return Vec::new();
        };
        let mut known: Vec<Key> = state
            .buckets
            .iter()
            .flatten()
            .filter(|k| self.nodes.contains_key(k))
            .copied()
            .collect();
        known.push(*node);
        known.sort_by_key(|k| k.xor(target));
        known.truncate(count);
        known
    }

    /// Iterative node lookup: returns the `k` closest live nodes to
    /// `target` plus the number of query rounds ("hops").
    ///
    /// Every queried node learns about the querier, and the querier learns
    /// every returned contact — the table-maintenance side channel of the
    /// real protocol.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not a live node.
    pub fn find_closest(&mut self, origin: Key, target: &Key) -> (Vec<Key>, u32) {
        assert!(self.nodes.contains_key(&origin), "origin must be live");
        let k = self.cfg.k;
        let mut shortlist = self.closest_known(&origin, target, k);
        if !shortlist.contains(&origin) {
            shortlist.push(origin);
        }
        let mut queried: Vec<Key> = vec![origin];
        let mut hops = 0u32;

        loop {
            shortlist.sort_by_key(|n| n.xor(target));
            shortlist.truncate(k);
            let top_k_before = shortlist.clone();
            let batch: Vec<Key> = shortlist
                .iter()
                .filter(|n| !queried.contains(n) && self.nodes.contains_key(n))
                .take(self.cfg.alpha)
                .copied()
                .collect();
            if batch.is_empty() {
                break;
            }
            hops += 1;
            for peer in batch {
                queried.push(peer);
                self.stats.messages.fetch_add(2, Ordering::Relaxed);
                let replies = self.closest_known(&peer, target, k);
                // Bidirectional learning.
                self.observe(&peer, &origin);
                for r in &replies {
                    self.observe(&origin, r);
                    if !shortlist.contains(r) {
                        shortlist.push(*r);
                    }
                }
            }
            // Termination: the round changed nothing about the k closest
            // candidates, and the nearest of them has been queried — the
            // result set has stabilized.
            shortlist.sort_by_key(|n| n.xor(target));
            let mut top_k_after = shortlist.clone();
            top_k_after.truncate(k);
            if top_k_after == top_k_before {
                let nearest_unqueried_exists = top_k_after
                    .iter()
                    .filter(|n| self.nodes.contains_key(n))
                    .min_by_key(|n| n.xor(target))
                    .is_some_and(|n| !queried.contains(n));
                if !nearest_unqueried_exists {
                    break;
                }
            }
        }
        shortlist.retain(|n| self.nodes.contains_key(n));
        shortlist.sort_by_key(|n| n.xor(target));
        shortlist.truncate(k);
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        self.stats.hops.fetch_add(hops as u64, Ordering::Relaxed);
        (shortlist, hops)
    }

    /// Ground truth: the live node with minimal XOR distance to `key`.
    pub fn nearest_node(&self, key: &Key) -> Option<Key> {
        self.order.iter().min_by_key(|n| n.xor(key)).copied()
    }

    /// Re-places every stored key on its current `store_width` closest
    /// nodes (Kademlia's periodic re-publication, done eagerly).
    pub fn rebalance_keys(&mut self) {
        self.place(None);
    }
}

/// The bucket in `a`'s table where `b` belongs: the index of the highest
/// differing bit.
fn bucket_index(a: &Key, b: &Key) -> usize {
    let lz = a.xor(b).leading_zeros();
    // lz == 160 impossible here (a != b); highest differing bit index:
    KEY_BITS - 1 - lz.min(KEY_BITS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Dht, NodeId};
    use crate::chord::ChordError;
    use bytes::Bytes;

    fn keys(n: usize) -> Vec<Key> {
        (0..n).map(|i| Key::hash_of(&format!("kad-{i}"))).collect()
    }

    #[test]
    fn bucket_index_is_highest_differing_bit() {
        let zero = Key::ZERO;
        assert_eq!(bucket_index(&zero, &Key::from_u64(1)), 0);
        assert_eq!(bucket_index(&zero, &Key::from_u64(2)), 1);
        assert_eq!(bucket_index(&zero, &Key::from_u64(3)), 1);
        assert_eq!(bucket_index(&zero, &Key::power_of_two(159)), 159);
    }

    #[test]
    fn lookup_finds_globally_nearest_node() {
        let mut net = KademliaNetwork::with_nodes(keys(64));
        let origins = net.nodes();
        for i in 0..100 {
            let target = Key::hash_of(&format!("t{i}"));
            let truth = net.nearest_node(&target).unwrap();
            let origin = *origins[i % origins.len()].key();
            let (closest, _hops) = net.find_closest(origin, &target);
            assert_eq!(closest[0], truth, "target {i}");
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let mut net = KademliaNetwork::with_nodes(keys(256));
        let origins = net.nodes();
        let mut total = 0u32;
        for i in 0..100 {
            let target = Key::hash_of(&format!("probe{i}"));
            let origin = *origins[i % origins.len()].key();
            let (_c, hops) = net.find_closest(origin, &target);
            total += hops;
        }
        let mean = total as f64 / 100.0;
        assert!(
            mean < 6.0,
            "mean lookup rounds {mean} too high for 256 nodes"
        );
        assert!(mean >= 1.0);
    }

    #[test]
    fn put_get_roundtrip() {
        let mut net = KademliaNetwork::with_nodes(keys(32));
        for i in 0..50 {
            let k = Key::hash_of(&format!("item{i}"));
            assert!(net.put(k, Bytes::from(format!("v{i}"))));
        }
        for i in 0..50 {
            let k = Key::hash_of(&format!("item{i}"));
            assert_eq!(net.get(&k), vec![Bytes::from(format!("v{i}"))]);
        }
    }

    #[test]
    fn data_is_stored_on_the_nearest_node() {
        let mut net = KademliaNetwork::with_nodes(keys(32));
        let k = Key::hash_of("placed");
        net.put(k, Bytes::from_static(b"v"));
        let nearest = NodeId::from_key(net.nearest_node(&k).unwrap());
        assert!(net.store_of(&nearest).unwrap().contains_key(&k));
    }

    #[test]
    fn join_then_lookup_reaches_newcomer() {
        let ids = keys(32);
        let mut net = KademliaNetwork::with_nodes(ids.clone());
        let newcomer = NodeId::hash_of("kad-newcomer");
        net.join(newcomer, NodeId::from_key(ids[0])).unwrap();
        assert_eq!(net.len(), 33);
        // A lookup for the newcomer's own key finds it.
        let (closest, _) = net.find_closest(ids[1], newcomer.key());
        assert_eq!(closest[0], *newcomer.key());
    }

    #[test]
    fn join_takes_over_nearby_keys() {
        let ids = keys(16);
        let mut net = KademliaNetwork::with_nodes(ids.clone());
        let data: Vec<Key> = (0..60).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for (i, k) in data.iter().enumerate() {
            net.put(*k, Bytes::from(format!("v{i}")));
        }
        net.join(NodeId::hash_of("kad-new"), NodeId::from_key(ids[0]))
            .unwrap();
        for (i, k) in data.iter().enumerate() {
            assert_eq!(net.get(k), vec![Bytes::from(format!("v{i}"))], "key {i}");
        }
    }

    #[test]
    fn join_errors() {
        let ids = keys(4);
        let mut net = KademliaNetwork::with_nodes(ids.clone());
        let dup = NodeId::from_key(ids[0]);
        assert_eq!(
            net.join(dup, NodeId::from_key(ids[1])),
            Err(ChordError::DuplicateNode(dup))
        );
        let ghost = NodeId::hash_of("ghost");
        assert_eq!(
            net.join(NodeId::hash_of("fresh"), ghost),
            Err(ChordError::UnknownNode(ghost))
        );
    }

    #[test]
    fn replication_survives_failure_after_rebalance() {
        let ids = keys(24);
        let cfg = KademliaConfig {
            store_width: 3,
            ..KademliaConfig::default()
        };
        let mut net = KademliaNetwork::with_nodes_and_config(ids, cfg);
        let k = Key::hash_of("precious");
        net.put(k, Bytes::from_static(b"data"));
        let primary = net.nearest_node(&k).unwrap();
        net.fail(NodeId::from_key(primary)).unwrap();
        assert_eq!(net.get(&k), vec![Bytes::from_static(b"data")]);
        net.rebalance_keys();
        // Back to full strength on the new closest set.
        let holders = net
            .nodes()
            .iter()
            .filter(|n| net.store_of(n).is_some_and(|s| s.contains_key(&k)))
            .count();
        assert_eq!(holders, 3);
    }

    #[test]
    fn without_replication_failure_loses_data() {
        let mut net = KademliaNetwork::with_nodes(keys(16));
        let k = Key::hash_of("fragile");
        net.put(k, Bytes::from_static(b"v"));
        let primary = net.nearest_node(&k).unwrap();
        net.fail(NodeId::from_key(primary)).unwrap();
        assert!(net.get(&k).is_empty());
    }

    #[test]
    fn empty_network_behaviour() {
        let mut net = KademliaNetwork::new();
        assert!(net.is_empty());
        assert_eq!(net.node_for(&Key::hash_of("x")), None);
        assert!(!net.put(Key::hash_of("x"), Bytes::from_static(b"v")));
        assert!(net.get(&Key::hash_of("x")).is_empty());
        assert!(!net.remove(&Key::hash_of("x"), b"v"));
    }

    #[test]
    fn stats_accumulate() {
        let mut net = KademliaNetwork::with_nodes(keys(32));
        let before = net.stats();
        net.put(Key::hash_of("s"), Bytes::from_static(b"v"));
        let after = net.stats();
        assert!(after.lookups > before.lookups);
        assert!(after.messages > before.messages);
    }

    #[test]
    fn buckets_respect_capacity() {
        let cfg = KademliaConfig {
            k: 4,
            ..KademliaConfig::default()
        };
        let net = KademliaNetwork::with_nodes_and_config(keys(128), cfg);
        for id in net.order.clone() {
            let state = &net.nodes[&id];
            for bucket in &state.buckets {
                assert!(bucket.len() <= 4);
            }
        }
    }
}
