//! A Pastry DHT simulation (prefix routing, leaf sets, PAST-style
//! replication).
//!
//! The paper lists "Pastry/PAST" alongside Chord/DHash as the storage
//! substrates its indexes run over (§III-A). Pastry (Rowstron & Druschel,
//! Middleware 2001) routes by identifier *prefix*: each node keeps a
//! routing table with one row per hex-digit of shared prefix and a *leaf
//! set* of the `L` numerically closest nodes. A message for key `k` is
//! forwarded to a node whose identifier shares a longer prefix with `k`
//! (or is numerically closer), reaching the numerically closest live node
//! in `O(log₁₆ N)` hops. PAST stores each file on the `r` nodes of the
//! leaf set closest to the key — the replication model exposed here.
//!
//! Like the other substrates, the whole network lives in one process and
//! RPCs are counted rather than sent.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use p2p_index_dht::{Dht, Key, PastryNetwork};
//!
//! let mut net = PastryNetwork::with_perfect_tables(
//!     (0..32).map(|i| Key::hash_of(&format!("peer-{i}"))),
//! );
//! let key = Key::hash_of("item");
//! net.put(key, Bytes::from_static(b"value"));
//! assert_eq!(net.get(&key), vec![Bytes::from_static(b"value")]);
//! ```

use std::sync::atomic::Ordering;

use crate::key::{Key, KEY_BITS};
use crate::overlay::{Overlay, OverlayDht};

/// Hex digits per identifier (160 bits / 4 bits per digit).
const DIGITS: usize = KEY_BITS / 4;
/// Values a digit can take (b = 4 ⇒ base 16).
const RADIX: usize = 16;

/// Tuning knobs of the Pastry simulation.
#[derive(Debug, Clone)]
pub struct PastryConfig {
    /// Leaf-set size `L` (half smaller, half larger neighbours).
    pub leaf_set: usize,
    /// PAST replication: copies stored on the `replication` leaf-set nodes
    /// closest to the key (1 = no replication).
    pub replication: usize,
}

impl Default for PastryConfig {
    fn default() -> Self {
        PastryConfig {
            leaf_set: 8,
            replication: 1,
        }
    }
}

/// One Pastry member's routing state: prefix routing table and leaf set.
#[derive(Debug, Clone)]
pub struct PastryNodeState {
    /// `routing[row][col]`: a node sharing `row` leading digits whose
    /// digit at position `row` is `col`.
    routing: Vec<Vec<Option<Key>>>,
    /// Numerically closest neighbours: smaller side then larger side.
    leaves_small: Vec<Key>,
    leaves_large: Vec<Key>,
}

impl PastryNodeState {
    fn new() -> Self {
        PastryNodeState {
            routing: vec![vec![None; RADIX]; DIGITS],
            leaves_small: Vec::new(),
            leaves_large: Vec::new(),
        }
    }
}

/// The simulated Pastry network: the [overlay skeleton](crate::overlay)
/// routed by [`PastryConfig`].
///
/// See the [module docs](self) for an overview.
pub type PastryNetwork = OverlayDht<PastryConfig>;

/// The hex digit of `key` at position `i` (0 = most significant).
fn digit(key: &Key, i: usize) -> usize {
    let byte = key.as_bytes()[i / 2];
    if i.is_multiple_of(2) {
        (byte >> 4) as usize
    } else {
        (byte & 0x0F) as usize
    }
}

/// Length of the common hex-digit prefix of two keys.
fn shared_prefix(a: &Key, b: &Key) -> usize {
    (0..DIGITS)
        .take_while(|&i| digit(a, i) == digit(b, i))
        .count()
}

/// Numerical ring distance: the shorter way around the circle.
fn num_distance(a: &Key, b: &Key) -> Key {
    let cw = a.distance_clockwise(b);
    let ccw = b.distance_clockwise(a);
    cw.min(ccw)
}

impl Overlay for PastryConfig {
    type Tables = PastryNodeState;

    fn route(net: &PastryNetwork, key: &Key) -> Option<Key> {
        let origin = net.pick_origin()?;
        Some(net.route_from(origin, key).0)
    }

    /// PAST placement: the `replication` live nodes numerically closest to
    /// the key.
    fn replica_set(net: &PastryNetwork, key: &Key) -> Vec<Key> {
        let mut nodes = net.order.clone();
        nodes.sort_by(|a, b| {
            num_distance(a, key)
                .cmp(&num_distance(b, key))
                .then(a.cmp(b))
        });
        nodes.truncate(net.cfg.replication.max(1));
        nodes
    }

    /// The join message routes from `bootstrap` to the node closest to
    /// `id`, state is initialized, and affected neighbours update their
    /// tables.
    fn join(net: &mut PastryNetwork, id: Key, bootstrap: Key) {
        let (_closest, hops) = net.route_from(bootstrap, &id);
        net.bump_messages(hops as u64 + 2);
        net.insert_member(id, PastryNodeState::new());
        net.rebuild_node_state(&id);
        // Neighbours refresh their leaf sets and routing entries.
        for other in net.order.clone() {
            if other != id {
                net.refresh_after_membership_change(&other, &id);
            }
        }
    }

    fn stabilize(net: &mut PastryNetwork) {
        net.repair();
    }
}

impl PastryNetwork {
    /// Builds a converged network over `ids`: routing tables and leaf sets
    /// computed from the global view.
    pub fn with_perfect_tables(ids: impl IntoIterator<Item = Key>) -> Self {
        Self::with_perfect_tables_and_config(ids, PastryConfig::default())
    }

    /// [`PastryNetwork::with_perfect_tables`] with an explicit config.
    pub fn with_perfect_tables_and_config(
        ids: impl IntoIterator<Item = Key>,
        cfg: PastryConfig,
    ) -> Self {
        let mut net = Self::with_members(cfg, ids, |_| PastryNodeState::new());
        let ids = net.order.clone();
        for id in &ids {
            net.rebuild_node_state(id);
        }
        net
    }

    /// Recomputes one node's routing table and leaf set from the global
    /// view (the steady state the maintenance protocol converges to).
    fn rebuild_node_state(&mut self, id: &Key) {
        let mut routing = vec![vec![None; RADIX]; DIGITS];
        for other in &self.order {
            if other == id {
                continue;
            }
            let row = shared_prefix(id, other);
            if row >= DIGITS {
                continue;
            }
            let col = digit(other, row);
            let slot = &mut routing[row][col];
            // Prefer the numerically closest candidate (the real protocol
            // prefers proximity; numeric closeness is our deterministic
            // stand-in).
            let better = match slot {
                None => true,
                Some(existing) => num_distance(other, id) < num_distance(existing, id),
            };
            if better {
                *slot = Some(*other);
            }
        }
        let (small, large) = self.compute_leaves(id);
        let state = self.nodes.get_mut(id).expect("node exists");
        state.routing = routing;
        state.leaves_small = small;
        state.leaves_large = large;
    }

    /// The `L/2` nearest smaller and larger neighbours of `id` on the
    /// identifier circle, from the global view.
    fn compute_leaves(&self, id: &Key) -> (Vec<Key>, Vec<Key>) {
        let half = (self.cfg.leaf_set / 2).max(1);
        let n = self.order.len();
        if n <= 1 {
            return (Vec::new(), Vec::new());
        }
        let pos = self.order.binary_search(id).expect("node in order");
        let take = half.min(n - 1);
        let small: Vec<Key> = (1..=take).map(|k| self.order[(pos + n - k) % n]).collect();
        let large: Vec<Key> = (1..=take).map(|k| self.order[(pos + k) % n]).collect();
        (small, large)
    }

    /// Ground truth: the live node numerically closest to `key`.
    pub fn responsible_node(&self, key: &Key) -> Option<Key> {
        self.order
            .iter()
            .min_by(|a, b| {
                num_distance(a, key)
                    .cmp(&num_distance(b, key))
                    .then(a.cmp(b))
            })
            .copied()
    }

    /// Routes a message for `key` from `origin`, Pastry-style, returning
    /// the terminal node and the hop count.
    ///
    /// At each step: deliver if the local node is numerically closest
    /// among itself and its leaf set; else forward via the routing-table
    /// entry matching one more digit; else (rare case) forward to any
    /// known node closer to the key.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not live.
    pub fn route_from(&self, origin: Key, key: &Key) -> (Key, u32) {
        assert!(self.nodes.contains_key(&origin), "origin must be live");
        let mut current = origin;
        let mut hops = 0u32;
        let cap = self.order.len() as u32 + 4;

        loop {
            let state = &self.nodes[&current];
            let live_small: Vec<Key> = state
                .leaves_small
                .iter()
                .filter(|n| self.nodes.contains_key(n))
                .copied()
                .collect();
            let live_large: Vec<Key> = state
                .leaves_large
                .iter()
                .filter(|n| self.nodes.contains_key(n))
                .copied()
                .collect();

            // 1. Leaf-set range check (Pastry's first rule): if the key
            // falls within [farthest small leaf, farthest large leaf],
            // the numerically closest member of the leaf set ∪ self is
            // the destination.
            let in_leaf_range = match (live_small.last(), live_large.last()) {
                (Some(lo), Some(hi)) => key.in_interval(&lo.wrapping_sub(&Key::from_u64(1)), hi),
                // With no (live) leaves the node is effectively alone.
                _ => true,
            };
            let next = if in_leaf_range {
                let best = live_small
                    .iter()
                    .chain(live_large.iter())
                    .chain(std::iter::once(&current))
                    .min_by(|a, b| {
                        num_distance(a, key)
                            .cmp(&num_distance(b, key))
                            .then(a.cmp(b))
                    })
                    .copied()
                    .expect("candidate set includes current");
                if best == current {
                    // Delivered.
                    self.stats.lookups.fetch_add(1, Ordering::Relaxed);
                    self.stats.hops.fetch_add(hops as u64, Ordering::Relaxed);
                    self.stats
                        .messages
                        .fetch_add(2 * hops as u64, Ordering::Relaxed);
                    return (current, hops);
                }
                best
            } else {
                // 2. Prefix rule: a routing entry matching one more digit.
                let row = shared_prefix(&current, key);
                let prefix_hop = if row < DIGITS {
                    state.routing[row][digit(key, row)].filter(|n| self.nodes.contains_key(n))
                } else {
                    None
                };
                match prefix_hop {
                    Some(n) => n,
                    None => {
                        // 3. Rare case: any known node with at least the
                        // same shared prefix that is numerically closer;
                        // (prefix, distance) progress is lexicographic, so
                        // routing terminates.
                        let closer = state
                            .routing
                            .iter()
                            .flatten()
                            .flatten()
                            .chain(live_small.iter())
                            .chain(live_large.iter())
                            .filter(|n| self.nodes.contains_key(n))
                            .filter(|n| shared_prefix(n, key) >= row)
                            .filter(|n| num_distance(n, key) < num_distance(&current, key))
                            .min_by_key(|n| num_distance(n, key));
                        match closer {
                            Some(n) => *n,
                            None => {
                                // No closer node known: deliver here.
                                self.stats.lookups.fetch_add(1, Ordering::Relaxed);
                                self.stats.hops.fetch_add(hops as u64, Ordering::Relaxed);
                                self.stats
                                    .messages
                                    .fetch_add(2 * hops as u64, Ordering::Relaxed);
                                return (current, hops);
                            }
                        }
                    }
                }
            };
            current = next;
            hops += 1;
            if hops > cap {
                self.stats.lookups.fetch_add(1, Ordering::Relaxed);
                return (current, hops);
            }
        }
    }

    /// Cheap incremental update after a single join: slot the newcomer
    /// into leaf sets / routing where it improves the entry.
    fn refresh_after_membership_change(&mut self, node: &Key, newcomer: &Key) {
        let (small, large) = self.compute_leaves(node);
        let row = shared_prefix(node, newcomer);
        let state = self.nodes.get_mut(node).expect("live node");
        state.leaves_small = small;
        state.leaves_large = large;
        if row < DIGITS {
            let col = digit(newcomer, row);
            let slot = &mut state.routing[row][col];
            let better = match slot {
                None => true,
                Some(existing) => num_distance(newcomer, node) < num_distance(existing, node),
            };
            if better {
                *slot = Some(*newcomer);
            }
        }
    }

    /// Repairs every node's leaf set and routing table after failures and
    /// restores the PAST replication invariant. Returns the number of
    /// replica copies created.
    pub fn repair(&mut self) -> usize {
        let ids = self.order.clone();
        for id in &ids {
            self.rebuild_node_state(id);
        }
        self.place(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Dht, NodeId};
    use crate::chord::ChordError;
    use bytes::Bytes;

    fn keys(n: usize) -> Vec<Key> {
        (0..n)
            .map(|i| Key::hash_of(&format!("pastry-{i}")))
            .collect()
    }

    #[test]
    fn digit_extraction() {
        let k = Key::from_digest([0xAB; 20]);
        assert_eq!(digit(&k, 0), 0xA);
        assert_eq!(digit(&k, 1), 0xB);
        assert_eq!(digit(&k, 39), 0xB);
    }

    #[test]
    fn shared_prefix_counts_digits() {
        let a = Key::from_digest([0xAB; 20]);
        let mut bytes = [0xAB; 20];
        bytes[1] = 0xAC; // digits: A B A C ...
        let b = Key::from_digest(bytes);
        assert_eq!(shared_prefix(&a, &b), 3);
        assert_eq!(shared_prefix(&a, &a), DIGITS);
    }

    #[test]
    fn num_distance_is_symmetric_shortest_way() {
        let a = Key::from_u64(10);
        let b = Key::from_u64(30);
        assert_eq!(num_distance(&a, &b), Key::from_u64(20));
        assert_eq!(num_distance(&b, &a), Key::from_u64(20));
        // Wraparound: MAX and 5 are 6 apart the short way.
        assert_eq!(num_distance(&Key::MAX, &Key::from_u64(5)), Key::from_u64(6));
    }

    #[test]
    fn routing_reaches_numerically_closest_node() {
        let net = PastryNetwork::with_perfect_tables(keys(64));
        let origins = net.nodes();
        for i in 0..200 {
            let key = Key::hash_of(&format!("probe-{i}"));
            let truth = net.responsible_node(&key).unwrap();
            let origin = *origins[i % origins.len()].key();
            let (reached, _hops) = net.route_from(origin, &key);
            assert_eq!(reached, truth, "probe {i}");
        }
    }

    #[test]
    fn hops_are_logarithmic_base16() {
        let net = PastryNetwork::with_perfect_tables(keys(256));
        let origins = net.nodes();
        let mut total = 0u32;
        for i in 0..200 {
            let key = Key::hash_of(&format!("h{i}"));
            let (_n, hops) = net.route_from(*origins[i % origins.len()].key(), &key);
            total += hops;
        }
        let mean = total as f64 / 200.0;
        // log16(256) = 2; allow slack for leaf-set detours.
        assert!(mean < 4.0, "mean hops {mean}");
        assert!(mean >= 1.0);
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut net = PastryNetwork::with_perfect_tables(keys(32));
        for i in 0..60 {
            let k = Key::hash_of(&format!("item{i}"));
            assert!(net.put(k, Bytes::from(format!("v{i}"))));
        }
        for i in 0..60 {
            let k = Key::hash_of(&format!("item{i}"));
            assert_eq!(net.get(&k), vec![Bytes::from(format!("v{i}"))]);
        }
        let k = Key::hash_of("item0");
        assert!(net.remove(&k, b"v0"));
        assert!(net.get(&k).is_empty());
    }

    #[test]
    fn data_lands_on_numerically_closest_node() {
        let mut net = PastryNetwork::with_perfect_tables(keys(32));
        let k = Key::hash_of("placed");
        net.put(k, Bytes::from_static(b"v"));
        let owner = NodeId::from_key(net.responsible_node(&k).unwrap());
        assert!(net.store_of(&owner).unwrap().contains_key(&k));
    }

    #[test]
    fn join_reroutes_and_takes_keys() {
        let ids = keys(24);
        let mut net = PastryNetwork::with_perfect_tables(ids.clone());
        let data: Vec<Key> = (0..80).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for (i, k) in data.iter().enumerate() {
            net.put(*k, Bytes::from(format!("v{i}")));
        }
        net.join(NodeId::hash_of("pastry-new"), NodeId::from_key(ids[0]))
            .unwrap();
        for (i, k) in data.iter().enumerate() {
            assert_eq!(net.get(k), vec![Bytes::from(format!("v{i}"))], "key {i}");
        }
        // Lookups now resolve to the (possibly new) closest node.
        for (i, k) in data.iter().enumerate() {
            let truth = net.responsible_node(k).unwrap();
            let (reached, _) = net.route_from(ids[i % ids.len()], k);
            assert_eq!(reached, truth, "post-join routing for key {i}");
        }
    }

    #[test]
    fn join_errors() {
        let ids = keys(4);
        let mut net = PastryNetwork::with_perfect_tables(ids.clone());
        let dup = NodeId::from_key(ids[1]);
        assert_eq!(
            net.join(dup, NodeId::from_key(ids[0])),
            Err(ChordError::DuplicateNode(dup))
        );
        let ghost = NodeId::hash_of("ghost");
        assert_eq!(
            net.join(NodeId::hash_of("ok"), ghost),
            Err(ChordError::UnknownNode(ghost))
        );
    }

    #[test]
    fn failure_heals_after_repair() {
        let ids = keys(32);
        let cfg = PastryConfig {
            replication: 3,
            ..PastryConfig::default()
        };
        let mut net = PastryNetwork::with_perfect_tables_and_config(ids.clone(), cfg);
        let data: Vec<Key> = (0..50).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for (i, k) in data.iter().enumerate() {
            net.put(*k, Bytes::from(format!("v{i}")));
        }
        // Kill three scattered nodes.
        for idx in [3usize, 14, 27] {
            net.fail(NodeId::from_key(ids[idx])).unwrap();
        }
        net.repair();
        for (i, k) in data.iter().enumerate() {
            assert_eq!(net.get(k), vec![Bytes::from(format!("v{i}"))], "key {i}");
        }
        // Replica invariant restored.
        for k in &data {
            let holders = net
                .nodes()
                .iter()
                .filter(|n| net.store_of(n).is_some_and(|s| s.contains_key(k)))
                .count();
            assert_eq!(holders, 3, "key {k:?}");
        }
    }

    #[test]
    fn leaf_sets_are_the_numeric_neighbours() {
        let net = PastryNetwork::with_perfect_tables(keys(32));
        let id = net.order[5];
        let state = &net.nodes[&id];
        assert_eq!(state.leaves_small.len(), 4);
        assert_eq!(state.leaves_large.len(), 4);
        assert_eq!(state.leaves_large[0], net.order[6]);
        assert_eq!(state.leaves_small[0], net.order[4]);
    }

    #[test]
    fn empty_and_singleton_networks() {
        let mut net = PastryNetwork::new();
        assert!(net.is_empty());
        assert!(net.get(&Key::hash_of("x")).is_empty());
        assert!(!net.put(Key::hash_of("x"), Bytes::from_static(b"v")));

        let mut net = PastryNetwork::with_perfect_tables([Key::hash_of("solo")]);
        let k = Key::hash_of("k");
        assert!(net.put(k, Bytes::from_static(b"v")));
        assert_eq!(net.get(&k), vec![Bytes::from_static(b"v")]);
        let (reached, hops) = net.route_from(Key::hash_of("solo"), &k);
        assert_eq!(reached, Key::hash_of("solo"));
        assert_eq!(hops, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = PastryNetwork::with_perfect_tables(keys(64));
        let before = net.stats();
        net.put(Key::hash_of("s"), Bytes::from_static(b"v"));
        net.get(&Key::hash_of("s"));
        let after = net.stats();
        assert!(after.lookups >= before.lookups + 2);
        assert!(after.messages > before.messages);
    }
}
