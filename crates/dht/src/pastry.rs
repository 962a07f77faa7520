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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::api::{self, Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeChurn, NodeId};
use crate::chord::ChordError;
use crate::key::{Key, KEY_BITS};
use crate::storage::NodeStore;

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

#[derive(Debug, Clone)]
struct PastryNodeState {
    /// `routing[row][col]`: a node sharing `row` leading digits whose
    /// digit at position `row` is `col`.
    routing: Vec<Vec<Option<Key>>>,
    /// Numerically closest neighbours: smaller side then larger side.
    leaves_small: Vec<Key>,
    leaves_large: Vec<Key>,
    store: NodeStore,
}

impl PastryNodeState {
    fn new() -> Self {
        PastryNodeState {
            routing: vec![vec![None; RADIX]; DIGITS],
            leaves_small: Vec::new(),
            leaves_large: Vec::new(),
            store: NodeStore::new(),
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    messages: AtomicU64,
    lookups: AtomicU64,
    hops: AtomicU64,
}

/// The simulated Pastry network.
///
/// See the [module docs](self) for an overview.
#[derive(Debug)]
pub struct PastryNetwork {
    cfg: PastryConfig,
    nodes: BTreeMap<Key, PastryNodeState>,
    order: Vec<Key>,
    stats: Counters,
    next_origin: AtomicU64,
    metrics: MetricsRegistry,
}

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

impl PastryNetwork {
    /// An empty network with default configuration.
    pub fn new() -> Self {
        Self::with_config(PastryConfig::default())
    }

    /// An empty network with the given configuration.
    pub fn with_config(cfg: PastryConfig) -> Self {
        PastryNetwork {
            cfg,
            nodes: BTreeMap::new(),
            order: Vec::new(),
            stats: Counters::default(),
            next_origin: AtomicU64::new(0),
            metrics: MetricsRegistry::default(),
        }
    }

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
        let mut net = Self::with_config(cfg);
        for id in ids {
            net.nodes.entry(id).or_insert_with(PastryNodeState::new);
        }
        net.order = net.nodes.keys().copied().collect();
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

    /// Joins `id` via `bootstrap`: the join message routes to the node
    /// closest to `id`, state is initialized, and affected neighbours
    /// update their tables.
    ///
    /// # Errors
    ///
    /// [`ChordError::DuplicateNode`] / [`ChordError::UnknownNode`] (shared
    /// error type across substrates).
    pub fn join(&mut self, id: NodeId, bootstrap: NodeId) -> Result<(), ChordError> {
        let key = *id.key();
        if self.nodes.contains_key(&key) {
            return Err(ChordError::DuplicateNode(id));
        }
        if !self.nodes.contains_key(bootstrap.key()) {
            return Err(ChordError::UnknownNode(bootstrap));
        }
        let (closest, hops) = self.route_from(*bootstrap.key(), &key);
        self.stats
            .messages
            .fetch_add(hops as u64 + 2, Ordering::Relaxed);

        self.nodes.insert(key, PastryNodeState::new());
        let pos = self.order.binary_search(&key).unwrap_err();
        self.order.insert(pos, key);
        self.rebuild_node_state(&key);

        // Keys the newcomer is now responsible for move from the previous
        // owners. Numeric-closest responsibility splits toward *both* ring
        // neighbours (each gives up the half-interval facing the
        // newcomer), and the routed `closest` node may be either of them.
        let n = self.order.len();
        let pos = self.order.binary_search(&key).expect("just inserted");
        let mut donors = vec![closest];
        donors.push(self.order[(pos + n - 1) % n]);
        donors.push(self.order[(pos + 1) % n]);
        donors.sort();
        donors.dedup();
        let mut moved: Vec<(Key, Vec<Bytes>)> = Vec::new();
        for donor_id in donors {
            if donor_id == key {
                continue;
            }
            let donor = self.nodes.get_mut(&donor_id).expect("live node");
            let move_keys: Vec<Key> = donor
                .store
                .iter()
                .filter(|(k, _)| num_distance(k, &key) < num_distance(k, &donor_id))
                .map(|(k, _)| *k)
                .collect();
            for k in move_keys {
                let values = donor.store.get(&k).to_vec();
                donor.store.remove_all(&k);
                moved.push((k, values));
            }
        }
        let state = self.nodes.get_mut(&key).expect("just inserted");
        for (k, values) in moved {
            for v in values {
                state.store.put(k, v);
            }
        }

        // Neighbours refresh their leaf sets and routing entries.
        let affected = self.order.clone();
        for other in affected {
            if other != key {
                self.refresh_after_membership_change(&other, &key);
            }
        }
        Ok(())
    }

    /// Abruptly removes a node (data lost unless replicated via the leaf
    /// set). Remaining nodes repair their state lazily via
    /// [`PastryNetwork::repair`].
    ///
    /// # Errors
    ///
    /// [`ChordError::UnknownNode`] if `id` is not live.
    pub fn fail(&mut self, id: NodeId) -> Result<(), ChordError> {
        let key = *id.key();
        if self.nodes.remove(&key).is_none() {
            return Err(ChordError::UnknownNode(id));
        }
        let pos = self.order.binary_search(&key).expect("order mirrors nodes");
        self.order.remove(pos);
        Ok(())
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
        // Re-replication pass.
        let mut all: BTreeMap<Key, Vec<Bytes>> = BTreeMap::new();
        for state in self.nodes.values() {
            for (key, values) in state.store.iter() {
                let merged = all.entry(*key).or_default();
                for v in values {
                    if !merged.contains(v) {
                        merged.push(v.clone());
                    }
                }
            }
        }
        let mut created = 0;
        for (key, values) in all {
            let replicas = self.replica_set(&key);
            for (node_key, state) in self.nodes.iter_mut() {
                if replicas.contains(node_key) {
                    for v in &values {
                        if state.store.put(key, v.clone()) {
                            created += 1;
                        }
                    }
                } else {
                    state.store.remove_all(&key);
                }
            }
        }
        created
    }

    /// PAST placement: the `replication` live nodes numerically closest to
    /// the key.
    fn replica_set(&self, key: &Key) -> Vec<Key> {
        let mut nodes = self.order.clone();
        nodes.sort_by(|a, b| {
            num_distance(a, key)
                .cmp(&num_distance(b, key))
                .then(a.cmp(b))
        });
        nodes.truncate(self.cfg.replication.max(1));
        nodes
    }

    fn pick_origin(&self) -> Option<Key> {
        if self.order.is_empty() {
            return None;
        }
        let i = self.next_origin.fetch_add(1, Ordering::Relaxed) as usize;
        Some(self.order[i % self.order.len()])
    }

    /// Read-only view of one node's store.
    pub fn store_of(&self, id: &NodeId) -> Option<&NodeStore> {
        self.nodes.get(id.key()).map(|s| &s.store)
    }
}

impl Default for PastryNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl PastryNetwork {
    fn execute_inner(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        let Some(origin) = self.pick_origin() else {
            return Err(DhtError::NoLiveNodes);
        };
        match op {
            DhtOp::NodeFor(key) => {
                let (node, _hops) = self.route_from(origin, &key);
                Ok(DhtResponse::Node(NodeId::from_key(node)))
            }
            DhtOp::Get(key) => Ok(DhtResponse::Values(self.get(&key))),
            DhtOp::GetDigest(key) => Ok(DhtResponse::digest_of(&key, &self.get(&key))),
            DhtOp::Put { key, value } => {
                let (_node, _hops) = self.route_from(origin, &key);
                self.stats.messages.fetch_add(2, Ordering::Relaxed);
                let mut stored = false;
                for replica in self.replica_set(&key) {
                    let state = self.nodes.get_mut(&replica).expect("live replica");
                    stored |= state.store.put(key, value.clone());
                }
                Ok(DhtResponse::Stored(stored))
            }
            DhtOp::Remove { key, value } => {
                let (_node, _hops) = self.route_from(origin, &key);
                self.stats.messages.fetch_add(2, Ordering::Relaxed);
                let mut removed = false;
                for replica in self.replica_set(&key) {
                    let state = self.nodes.get_mut(&replica).expect("live replica");
                    removed |= state.store.remove(&key, &value);
                }
                Ok(DhtResponse::Removed(removed))
            }
        }
    }
}

impl Dht for PastryNetwork {
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

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        let origin = self.pick_origin()?;
        let (node, _hops) = self.route_from(origin, key);
        Some(NodeId::from_key(node))
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.order.iter().copied().map(NodeId::from_key).collect()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        let Some(origin) = self.pick_origin() else {
            return Vec::new();
        };
        let (node, _hops) = self.route_from(origin, key);
        self.stats.messages.fetch_add(2, Ordering::Relaxed);
        if let Some(state) = self.nodes.get(&node) {
            let values = state.store.get(key);
            if !values.is_empty() {
                return values.to_vec();
            }
        }
        // Leaf-set read repair path.
        for replica in self.replica_set(key).into_iter().skip(1) {
            if let Some(state) = self.nodes.get(&replica) {
                let values = state.store.get(key);
                if !values.is_empty() {
                    self.stats.messages.fetch_add(2, Ordering::Relaxed);
                    return values.to_vec();
                }
            }
        }
        Vec::new()
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        crate::storage::merged_entries(self.nodes.values().map(|state| &state.store))
    }

    fn stats(&self) -> DhtStats {
        DhtStats {
            messages: self.stats.messages.load(Ordering::Relaxed),
            lookups: self.stats.lookups.load(Ordering::Relaxed),
            hops: self.stats.hops.load(Ordering::Relaxed),
        }
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

impl NodeChurn for PastryNetwork {
    fn spawn(&mut self, id: NodeId) -> bool {
        let Some(bootstrap) = self.order.first().copied() else {
            return false;
        };
        self.join(id, NodeId::from_key(bootstrap)).is_ok()
    }

    fn kill(&mut self, id: NodeId) -> bool {
        self.fail(id).is_ok()
    }

    fn stabilize(&mut self) {
        self.repair();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
