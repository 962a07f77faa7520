//! The routed-overlay skeleton: everything Chord, Kademlia and Pastry
//! share, written once.
//!
//! The paper's index layer is indifferent to the DHT underneath (§III-A:
//! "Chord, CAN, Pastry, Tapestry"), and what tells those systems apart is
//! routing geometry alone. An [`Overlay`] answers only what the geometry
//! decides — how a lookup travels, which members hold a key, what a
//! newcomer's tables look like, how tables heal — and [`OverlayDht`] owns
//! the rest: the member list, the per-node tables and stores, the work
//! counters, origin rotation, the [`Dht`] and [`NodeChurn`] surfaces, and
//! the three rules that live here and nowhere else:
//!
//! * **Accounting.** Every operation is "route for accounting, then one
//!   request/response pair (2 messages) per node asked". A write asks the
//!   routed owner once and lands on [`Overlay::replica_set`] by global
//!   view; a read asks the routed owner and, while the answer is empty,
//!   the rest of the replica set in order. Each routed operation consumes
//!   exactly one lookup origin.
//! * **Join takeover.** After the overlay's own join, every key whose
//!   replica set now contains the newcomer lands on exactly that set,
//!   from whichever members hold it.
//! * **Re-replication.** The same placement pass over every key.
//!
//! [`ChordNetwork`](crate::chord::ChordNetwork),
//! [`KademliaNetwork`](crate::kademlia::KademliaNetwork) and
//! [`PastryNetwork`](crate::pastry::PastryNetwork) are aliases of
//! `OverlayDht<…Config>`; their modules hold the routing and nothing
//! else. [`RingDht`](crate::ring::RingDht) is deliberately not an overlay
//! (see its module docs).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::api::{self, Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeChurn, NodeId};
use crate::chord::ChordError;
use crate::key::Key;
use crate::storage::{merged_entries, NodeStore};

/// What a routing geometry decides, implemented by an overlay's config
/// type. Every hook takes the whole network: routing reads the member
/// tables, the sorted member list and the counters directly.
pub trait Overlay: Sized {
    /// One member's routing state (fingers, buckets, leaf set).
    type Tables: fmt::Debug;

    /// Routes a lookup for `key` from an origin of the overlay's choosing
    /// (the skeleton's `pick_origin` rotates them) and charges its own
    /// lookup, hops and per-hop messages. `None` only on an empty network.
    fn route(net: &OverlayDht<Self>, key: &Key) -> Option<Key>;

    /// [`Overlay::route`] for the write path, for overlays whose lookups
    /// teach the tables they pass through.
    fn route_mut(net: &mut OverlayDht<Self>, key: &Key) -> Option<Key> {
        Self::route(net, key)
    }

    /// The members that should hold `key`, primary first, by global view.
    fn replica_set(net: &OverlayDht<Self>, key: &Key) -> Vec<Key>;

    /// The routing half of a join: locate the newcomer's place via the
    /// live `bootstrap`, `insert_member` it with its initial tables, and
    /// charge the messages that took. Key takeover is the skeleton's.
    fn join(net: &mut OverlayDht<Self>, id: Key, bootstrap: Key);

    /// Repairs routing tables and replica placement after churn.
    fn stabilize(net: &mut OverlayDht<Self>);
}

/// The work counters behind [`Dht::stats`], atomic so `&self` read paths
/// account like everything else.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) messages: AtomicU64,
    pub(crate) lookups: AtomicU64,
    pub(crate) hops: AtomicU64,
}

/// A simulated routed DHT: all node state plus work counters, generic
/// over the [`Overlay`] that routes it.
#[derive(Debug)]
pub struct OverlayDht<O: Overlay> {
    pub(crate) cfg: O,
    /// Per-member routing state.
    pub(crate) nodes: BTreeMap<Key, O::Tables>,
    /// Per-member multi-value store (same key set as `nodes`).
    pub(crate) stores: BTreeMap<Key, NodeStore>,
    /// Sorted cache of live node identifiers (mirrors `nodes` keys).
    pub(crate) order: Vec<Key>,
    pub(crate) stats: Counters,
    /// Rotates lookup origins so routed traffic spreads over the members.
    next_origin: AtomicU64,
    metrics: MetricsRegistry,
}

impl<O: Overlay> OverlayDht<O> {
    /// Creates an empty network with default configuration.
    pub fn new() -> Self
    where
        O: Default,
    {
        Self::with_config(O::default())
    }

    /// Creates an empty network with the given configuration.
    pub fn with_config(cfg: O) -> Self {
        OverlayDht {
            cfg,
            nodes: BTreeMap::new(),
            stores: BTreeMap::new(),
            order: Vec::new(),
            stats: Counters::default(),
            next_origin: AtomicU64::new(0),
            metrics: MetricsRegistry::default(),
        }
    }

    /// A network over `ids` (duplicates collapsed), each member starting
    /// from `tables(id)` and an empty store.
    pub(crate) fn with_members(
        cfg: O,
        ids: impl IntoIterator<Item = Key>,
        tables: impl Fn(Key) -> O::Tables,
    ) -> Self {
        let mut net = Self::with_config(cfg);
        for id in ids {
            net.insert_member(id, tables(id));
        }
        net
    }

    /// Adds `id` with the given tables and an empty store; a no-op if it
    /// is already a member.
    pub(crate) fn insert_member(&mut self, id: Key, tables: O::Tables) {
        if let Err(pos) = self.order.binary_search(&id) {
            self.order.insert(pos, id);
            self.nodes.insert(id, tables);
            self.stores.insert(id, NodeStore::new());
        }
    }

    /// Drops `id` from the member list, handing back what it stored.
    pub(crate) fn remove_member(&mut self, id: &Key) -> Option<NodeStore> {
        let pos = self.order.binary_search(id).ok()?;
        self.order.remove(pos);
        self.nodes.remove(id);
        self.stores.remove(id)
    }

    /// Picks the next lookup origin, rotating through the members.
    pub(crate) fn pick_origin(&self) -> Option<Key> {
        if self.order.is_empty() {
            return None;
        }
        let i = self.next_origin.fetch_add(1, Ordering::Relaxed) as usize;
        Some(self.order[i % self.order.len()])
    }

    pub(crate) fn bump_messages(&self, n: u64) {
        self.stats.messages.fetch_add(n, Ordering::Relaxed);
    }

    /// Joins `id` to the network via the live `bootstrap` node.
    ///
    /// The overlay routes the newcomer to its place and initialises its
    /// tables (counted in the stats); then every key whose replica set now
    /// contains the newcomer lands on exactly that set, from whichever
    /// members hold it — data is never stranded, however stale the
    /// routing tables the join travelled through.
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::DuplicateNode`] if `id` is already present, or
    /// [`ChordError::UnknownNode`] if `bootstrap` is not live (one error
    /// type across the overlays).
    pub fn join(&mut self, id: NodeId, bootstrap: NodeId) -> Result<(), ChordError> {
        if self.nodes.contains_key(id.key()) {
            return Err(ChordError::DuplicateNode(id));
        }
        if !self.nodes.contains_key(bootstrap.key()) {
            return Err(ChordError::UnknownNode(bootstrap));
        }
        O::join(self, *id.key(), *bootstrap.key());
        self.place(Some(id.key()));
        Ok(())
    }

    /// Abruptly kills `id`: its data is lost (unless replicated) and
    /// routing state heals only through [`NodeChurn::stabilize`].
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::UnknownNode`] if `id` is not live.
    pub fn fail(&mut self, id: NodeId) -> Result<(), ChordError> {
        match self.remove_member(id.key()) {
            Some(_lost) => Ok(()),
            None => Err(ChordError::UnknownNode(id)),
        }
    }

    /// The placement pass: each key's copies end up on exactly its current
    /// [`Overlay::replica_set`], merged from whichever members hold them.
    /// With a `newcomer` only the keys that member should now hold move
    /// (the join takeover); without, every key does (re-replication).
    /// Returns the number of copies created. Accounts no messages.
    pub(crate) fn place(&mut self, newcomer: Option<&Key>) -> usize {
        let mut created = 0;
        for (key, values) in merged_entries(self.stores.values()) {
            let replicas = O::replica_set(self, &key);
            if newcomer.is_some_and(|id| !replicas.contains(id)) {
                continue;
            }
            for (node, store) in self.stores.iter_mut() {
                if replicas.contains(node) {
                    for v in &values {
                        created += usize::from(store.put(key, v.clone()));
                    }
                } else {
                    store.remove_all(&key);
                }
            }
        }
        created
    }

    /// Direct access to a node's local store (read-only, for inspection).
    pub fn store_of(&self, id: &NodeId) -> Option<&NodeStore> {
        self.stores.get(id.key())
    }

    /// The one write: route (accounted), one request/ack pair, then
    /// `apply` on every member of the replica set.
    fn write(
        &mut self,
        key: &Key,
        mut apply: impl FnMut(&mut NodeStore) -> bool,
    ) -> Result<bool, DhtError> {
        O::route_mut(self, key).ok_or(DhtError::NoLiveNodes)?;
        self.bump_messages(2);
        let mut changed = false;
        for node in O::replica_set(self, key) {
            changed |= apply(self.stores.get_mut(&node).expect("live replica"));
        }
        Ok(changed)
    }

    /// The one read: route (accounted), then one request/response pair per
    /// member asked — the routed owner and, while the answer is empty, the
    /// rest of the replica set in order (DHash-style: a freshly responsible
    /// node may not hold the data yet). Borrowed, so a digest is hashed in
    /// place and only a `Values` answer copies the list.
    fn read(&self, key: &Key) -> &[Bytes] {
        let Some(owner) = O::route(self, key) else {
            return &[];
        };
        let ask = |node: &Key| {
            self.bump_messages(2); // fetch request + response
            self.stores.get(node).map_or(&[][..], |s| s.get(key))
        };
        let mut values = ask(&owner);
        if values.is_empty() {
            for replica in O::replica_set(self, key) {
                if !values.is_empty() {
                    break;
                }
                if replica != owner {
                    values = ask(&replica);
                }
            }
        }
        values
    }

    fn execute_inner(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        if self.order.is_empty() {
            return Err(DhtError::NoLiveNodes);
        }
        match op {
            DhtOp::NodeFor(key) => {
                let owner = O::route(self, &key).ok_or(DhtError::NoLiveNodes)?;
                Ok(DhtResponse::Node(NodeId::from_key(owner)))
            }
            DhtOp::Get(key) => Ok(DhtResponse::Values(self.get(&key))),
            DhtOp::GetDigest(key) => Ok(DhtResponse::digest_of(&key, self.read(&key))),
            DhtOp::GetIfChanged { key, seen } => {
                Ok(DhtResponse::if_changed(&key, seen, self.read(&key)))
            }
            DhtOp::Put { key, value } => self
                .write(&key, |store| store.put(key, value.clone()))
                .map(DhtResponse::Stored),
            DhtOp::Remove { key, value } => self
                .write(&key, |store| store.remove(&key, &value))
                .map(DhtResponse::Removed),
        }
    }
}

impl<O: Overlay + Default> Default for OverlayDht<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: Overlay> Dht for OverlayDht<O> {
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
        O::route(self, key).map(NodeId::from_key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.order.iter().copied().map(NodeId::from_key).collect()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.read(key).to_vec()
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        merged_entries(self.stores.values())
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

impl<O: Overlay> NodeChurn for OverlayDht<O> {
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
        O::stabilize(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::{ChordConfig, ChordNetwork};
    use crate::kademlia::{KademliaConfig, KademliaNetwork};
    use crate::pastry::{PastryConfig, PastryNetwork};

    fn keys(n: usize) -> Vec<Key> {
        (0..n).map(|i| Key::hash_of(&format!("node-{i}"))).collect()
    }

    fn chord(replication: usize) -> ChordNetwork {
        let cfg = ChordConfig {
            replication,
            ..ChordConfig::default()
        };
        ChordNetwork::with_perfect_tables_and_config(keys(16), cfg)
    }

    fn kademlia(store_width: usize) -> KademliaNetwork {
        let cfg = KademliaConfig {
            store_width,
            ..KademliaConfig::default()
        };
        KademliaNetwork::with_nodes_and_config(keys(16), cfg)
    }

    fn pastry(replication: usize) -> PastryNetwork {
        let cfg = PastryConfig {
            replication,
            ..PastryConfig::default()
        };
        PastryNetwork::with_perfect_tables_and_config(keys(16), cfg)
    }

    /// Wipes the first `wiped` replicas' copies of a key and reads it: the
    /// value comes back while any replica holds it, and the read costs
    /// its route plus one RPC pair per node asked.
    fn forced_fallback<O: Overlay>(name: &str, build: impl Fn() -> OverlayDht<O>) {
        for wiped in 0..=3usize {
            let mut net = build();
            let key = Key::hash_of("resilient");
            net.put(key, Bytes::from_static(b"v"));
            let replicas = O::replica_set(&net, &key);
            assert_eq!(replicas.len(), 3, "{name}");
            for node in &replicas[..wiped] {
                net.stores.get_mut(node).unwrap().remove_all(&key);
            }
            let before = net.stats();
            let got = net.get(&key);
            let after = net.stats();
            if wiped < 3 {
                assert_eq!(got, vec![Bytes::from_static(b"v")], "{name} wiped={wiped}");
            } else {
                assert!(got.is_empty(), "{name}: every copy is gone");
            }
            let asked = (wiped as u64 + 1).min(3);
            assert_eq!(
                after.messages - before.messages,
                2 * (after.hops - before.hops) + 2 * asked,
                "{name} wiped={wiped}: route + one pair per node asked"
            );
        }
    }

    #[test]
    fn get_falls_back_through_the_replica_set_one_pair_per_node_asked() {
        forced_fallback("chord", || chord(3));
        forced_fallback("kademlia", || kademlia(3));
        forced_fallback("pastry", || pastry(3));
    }

    /// Reads through `execute(Get)` and through `get` are the same read:
    /// same origins consumed, same route, same accounting.
    fn execute_get_twin<O: Overlay>(name: &str, build: impl Fn() -> OverlayDht<O>) {
        let (mut via_execute, mut via_get) = (build(), build());
        let data: Vec<Key> = (0..40).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for net in [&mut via_execute, &mut via_get] {
            for (i, k) in data.iter().enumerate() {
                net.put(*k, Bytes::from(format!("v{i}")));
            }
        }
        for k in &data {
            let values = via_execute.execute(DhtOp::Get(*k)).unwrap().into_values();
            assert_eq!(values, via_get.get(k), "{name}");
        }
        assert_eq!(via_execute.stats(), via_get.stats(), "{name}");
    }

    #[test]
    fn execute_get_and_get_account_alike() {
        execute_get_twin("chord", || chord(1));
        execute_get_twin("kademlia", || kademlia(1));
        execute_get_twin("pastry", || pastry(1));
    }
}
