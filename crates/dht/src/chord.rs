//! A Chord DHT protocol simulation.
//!
//! This is the substrate the paper assumes underneath its indexes
//! (Chord/DHash/CFS-style, §III-A): a ring of nodes on the 160-bit
//! identifier circle, each responsible for the keys in
//! `(predecessor, self]`, routing lookups through finger tables in
//! `O(log N)` hops.
//!
//! The whole network runs inside one process: RPCs are simulated method
//! calls that increment message/hop counters, which lets tests and benches
//! observe routing cost without sockets. The protocol itself is faithful to
//! Stoica et al. (SIGCOMM 2001): `find_successor` routes iteratively via
//! `closest_preceding_node`; ring pointers are maintained by
//! `stabilize`/`notify`/`fix_fingers`; successor lists provide fault
//! tolerance. Membership, placement and stores are a [`RingDht`] the
//! network owns, so Chord keeps only what routing needs, under two rules:
//!
//! * **Accounting.** Every operation is "route for accounting, then one
//!   request/response pair (2 messages) per node asked". A write asks the
//!   routed node once and lands on the owner's store by global view; a
//!   read asks the routed node and, when that is not the owner and
//!   answered empty, the owner too (a stale route may reach a node whose
//!   keys a newcomer took over). Each routed operation consumes exactly
//!   one lookup origin; origins rotate over the members.
//! * **Join takeover.** After a newcomer is routed to its place, the ring
//!   hands it the keys it now owns ([`RingDht::add_node`]), from the
//!   global view — data is never stranded, however stale the routing
//!   tables the join travelled through.
//!
//! Replication is left to the substrate underneath an index: the `dhtd`
//! cluster replicates for real (`p2p_index_net`); this simulation does not.
//!
//! Two construction paths are provided:
//!
//! * [`ChordNetwork::with_perfect_tables`] builds a converged ring directly
//!   (used when the ring is a means, not the object of study), and
//! * [`ChordNetwork::bootstrap`] + [`ChordNetwork::join`] +
//!   [`ChordNetwork::run_maintenance`] exercise the real join/stabilization
//!   protocol (used by the protocol tests).
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use p2p_index_dht::{ChordNetwork, Dht, Key};
//!
//! let mut net = ChordNetwork::with_perfect_tables(
//!     (0..32).map(|i| Key::hash_of(&format!("node-{i}"))),
//! );
//! let key = Key::hash_of("some data");
//! net.put(key, Bytes::from_static(b"payload"));
//! assert_eq!(net.get(&key), vec![Bytes::from_static(b"payload")]);
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;

use crate::api::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId};
use crate::key::{Key, KEY_BITS};
use crate::ring::RingDht;
use crate::storage::{NodeStore, StoredValues};

/// Length of each node's successor list (fault tolerance).
const SUCCESSOR_LIST_LEN: usize = 4;

/// Errors returned by Chord operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChordError {
    /// The referenced node is not a live member of the network.
    UnknownNode(NodeId),
    /// A node with this identifier is already in the network.
    DuplicateNode(NodeId),
}

impl fmt::Display for ChordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChordError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ChordError::DuplicateNode(n) => write!(f, "duplicate node {n}"),
        }
    }
}

impl Error for ChordError {}

/// One Chord member's protocol state: predecessor pointer, successor
/// list and finger table.
#[derive(Debug)]
struct NodeState {
    /// Predecessor pointer; `None` until learned via `notify`.
    predecessor: Option<Key>,
    /// Successor list; entry 0 is the immediate successor. Never empty.
    successors: Vec<Key>,
    /// Finger table: `fingers[i]` targets `successor(self + 2^i)`.
    fingers: Vec<Key>,
    /// Round-robin pointer for incremental `fix_fingers`.
    next_finger: usize,
}

impl NodeState {
    fn solitary(id: Key) -> Self {
        NodeState {
            predecessor: None,
            successors: vec![id],
            fingers: vec![id; KEY_BITS],
            next_finger: 0,
        }
    }
}

/// The simulated Chord network: every member's protocol state, the ring
/// that holds membership, placement and stores, and the work counters
/// behind [`Dht::stats`].
///
/// See the [module docs](self) for an overview and examples.
#[derive(Debug)]
pub struct ChordNetwork {
    /// Per-member protocol state (same key set as `ring`'s members).
    nodes: BTreeMap<Key, NodeState>,
    /// Members in ring order and their stores, by global view.
    ring: RingDht,
    /// Work counters, atomic so `&self` read paths account like
    /// everything else.
    messages: AtomicU64,
    lookups: AtomicU64,
    hops: AtomicU64,
    /// Rotates lookup origins so routed traffic spreads over the members.
    next_origin: AtomicU64,
}

impl ChordNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::with_perfect_tables([])
    }

    /// Builds a fully converged ring over `ids` in one step.
    ///
    /// Successors, predecessors, successor lists and all finger tables are
    /// computed from the global view, as if stabilization had already run to
    /// completion. Duplicated identifiers are collapsed.
    pub fn with_perfect_tables(ids: impl IntoIterator<Item = Key>) -> Self {
        let ring = RingDht::from_ids(ids);
        let mut net = ChordNetwork {
            nodes: ring
                .ids()
                .iter()
                .map(|id| (*id, NodeState::solitary(*id)))
                .collect(),
            ring,
            messages: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hops: AtomicU64::new(0),
            next_origin: AtomicU64::new(0),
        };
        net.rebuild_all_tables();
        net
    }

    fn bump_messages(&self, n: u64) {
        self.messages.fetch_add(n, Ordering::Relaxed);
    }

    /// Recomputes every pointer from the global view (test/bench helper).
    fn rebuild_all_tables(&mut self) {
        let order = self.ring.ids().to_vec();
        let n = order.len();
        for (pos, id) in order.iter().enumerate() {
            let succs: Vec<Key> = (1..=SUCCESSOR_LIST_LEN)
                .map(|k| order[(pos + k) % n])
                .collect();
            let pred = order[(pos + n - 1) % n];
            let fingers: Vec<Key> = (0..KEY_BITS)
                .map(|i| {
                    self.responsible_node(&id.wrapping_add(&Key::power_of_two(i)))
                        .expect("non-empty ring")
                })
                .collect();
            let state = self.nodes.get_mut(id).expect("a member has protocol state");
            state.successors = succs;
            state.predecessor = Some(pred);
            state.fingers = fingers;
        }
    }

    /// The node responsible for `key` according to the global view.
    ///
    /// This is the oracle used by tests to validate routed lookups, and by
    /// the storage API to place data once routing has been accounted.
    pub fn responsible_node(&self, key: &Key) -> Option<Key> {
        self.ring.owner(key).map(|owner| *owner.key())
    }

    /// Routes a lookup for `key` from the next origin in rotation and
    /// charges its lookup, hops and per-hop messages. `None` only on an
    /// empty network.
    fn route(&self, key: &Key) -> Option<Key> {
        let ids = self.ring.ids();
        if ids.is_empty() {
            return None;
        }
        let i = self.next_origin.fetch_add(1, Ordering::Relaxed) as usize;
        Some(self.find_successor_from(ids[i % ids.len()], key).0)
    }

    /// Starts a brand-new network consisting of the single node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::DuplicateNode`] if a node already exists.
    pub fn bootstrap(&mut self, id: NodeId) -> Result<(), ChordError> {
        let key = *id.key();
        if self.nodes.contains_key(&key) {
            return Err(ChordError::DuplicateNode(id));
        }
        self.nodes.insert(key, NodeState::solitary(key));
        self.ring.add_node(id);
        Ok(())
    }

    /// Joins `id` to the network via the live `bootstrap` node.
    ///
    /// The newcomer learns its successor through a routed lookup from
    /// `bootstrap` (counted in the stats) and relies on subsequent
    /// [`ChordNetwork::run_maintenance`] rounds to converge predecessor
    /// pointers, successor lists, and fingers — exactly as in the Chord
    /// paper. The keys it now owns move to it by global view
    /// ([`RingDht::add_node`]), however stale the routing tables the join
    /// travelled through.
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::DuplicateNode`] if `id` is already present, or
    /// [`ChordError::UnknownNode`] if `bootstrap` is not live.
    pub fn join(&mut self, id: NodeId, bootstrap: NodeId) -> Result<(), ChordError> {
        if self.nodes.contains_key(id.key()) {
            return Err(ChordError::DuplicateNode(id));
        }
        if !self.nodes.contains_key(bootstrap.key()) {
            return Err(ChordError::UnknownNode(bootstrap));
        }
        let (succ, _hops) = self.find_successor_from(*bootstrap.key(), id.key());
        let mut state = NodeState::solitary(*id.key());
        state.successors = vec![succ];
        self.nodes.insert(*id.key(), state);
        self.ring.add_node(id);
        self.bump_messages(2); // join request + key transfer
        Ok(())
    }

    /// Gracefully removes `id`: its keys move to its successor, and
    /// neighbours heal through stabilization.
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::UnknownNode`] if `id` is not live.
    pub fn leave(&mut self, id: NodeId) -> Result<(), ChordError> {
        self.nodes
            .remove(id.key())
            .ok_or(ChordError::UnknownNode(id))?;
        self.ring.remove_node(id);
        if !self.ring.is_empty() {
            self.bump_messages(1); // bulk key transfer
        }
        Ok(())
    }

    /// Abruptly kills `id`: its data is lost and routing state heals only
    /// through stabilization.
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::UnknownNode`] if `id` is not live.
    pub fn fail(&mut self, id: NodeId) -> Result<(), ChordError> {
        self.nodes
            .remove(id.key())
            .ok_or(ChordError::UnknownNode(id))?;
        self.ring.drop_node(id);
        Ok(())
    }

    /// Iteratively routes a lookup for `key` starting at the live node
    /// `origin`, returning the responsible node and the hop count.
    ///
    /// Dead pointers are skipped (successor lists provide alternates); the
    /// hop count is capped at the network size as a routing-loop safeguard.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not a live node.
    pub fn find_successor_from(&self, origin: Key, key: &Key) -> (Key, u32) {
        assert!(self.nodes.contains_key(&origin), "origin must be live");
        let mut current = origin;
        let mut hops = 0u32;
        let cap = self.nodes.len() as u32 + 1;

        loop {
            let succ = self.first_live_successor(&current);
            if key.in_interval(&current, &succ) {
                self.lookups.fetch_add(1, Ordering::Relaxed);
                self.hops.fetch_add(hops as u64, Ordering::Relaxed);
                // Each hop is a request/response pair.
                self.bump_messages(2 * hops as u64);
                return (succ, hops);
            }
            let next = self.closest_preceding_node(&current, key);
            if next == current || hops >= cap {
                // Defensive: stale tables can stall progress mid-churn; fall
                // back to following successors, which always makes progress.
                let fallback = succ;
                if fallback == current {
                    self.lookups.fetch_add(1, Ordering::Relaxed);
                    return (current, hops);
                }
                current = fallback;
            } else {
                current = next;
            }
            hops += 1;
            if hops > 4 * cap {
                // Unreachable in practice; avoid infinite loops under
                // pathological churn in tests.
                self.lookups.fetch_add(1, Ordering::Relaxed);
                return (current, hops);
            }
        }
    }

    /// First live entry of `node`'s successor list (falling back to the
    /// ground-truth successor if the whole list is dead).
    fn first_live_successor(&self, node: &Key) -> Key {
        let state = &self.nodes[node];
        for s in &state.successors {
            if self.nodes.contains_key(s) {
                return *s;
            }
        }
        // Entire successor list failed: in a real deployment the node would
        // re-join; the simulation falls back to the global view.
        self.responsible_node(&node.wrapping_add(&Key::power_of_two(0)))
            .unwrap_or(*node)
    }

    /// Highest finger of `node` strictly between `node` and `key`.
    fn closest_preceding_node(&self, node: &Key, key: &Key) -> Key {
        let state = &self.nodes[node];
        for f in state.fingers.iter().rev() {
            if self.nodes.contains_key(f) && f.in_open_interval(node, key) {
                return *f;
            }
        }
        for s in state.successors.iter().rev() {
            if self.nodes.contains_key(s) && s.in_open_interval(node, key) {
                return *s;
            }
        }
        *node
    }

    /// One stabilization round on every live node: `stabilize` + `notify`
    /// + one incremental `fix_fingers` step + `check_predecessor`.
    pub fn stabilize_all(&mut self) {
        for id in self.ring.ids().to_vec() {
            self.stabilize_node(&id);
            self.fix_finger_step(&id);
            self.check_predecessor(&id);
        }
    }

    /// Runs `rounds` full maintenance sweeps. Each sweep also repairs whole
    /// finger tables once every `KEY_BITS` incremental steps; for fast
    /// convergence in tests use [`ChordNetwork::converge`].
    pub fn run_maintenance(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.stabilize_all();
        }
    }

    /// Runs maintenance until pointers match the global view (or `max_rounds`
    /// sweeps elapse). Returns the number of sweeps executed.
    ///
    /// A sweep fixes *all* fingers of every node, so convergence is quick;
    /// this mirrors letting the protocol run long enough in real time.
    pub fn converge(&mut self, max_rounds: usize) -> usize {
        for round in 0..max_rounds {
            self.stabilize_all();
            for id in self.ring.ids().to_vec() {
                self.fix_all_fingers(&id);
            }
            if self.is_converged() {
                return round + 1;
            }
        }
        max_rounds
    }

    /// Checks that every successor/predecessor pointer matches the global
    /// ring order.
    pub fn is_converged(&self) -> bool {
        let order = self.ring.ids();
        let n = order.len();
        order.iter().enumerate().all(|(pos, id)| {
            let state = &self.nodes[id];
            let want_succ = order[(pos + 1) % n];
            let want_pred = order[(pos + n - 1) % n];
            state.successors.first() == Some(&want_succ)
                && (n == 1 || state.predecessor == Some(want_pred))
        })
    }

    fn stabilize_node(&mut self, id: &Key) {
        if !self.nodes.contains_key(id) {
            return;
        }
        let succ = self.first_live_successor(id);
        self.bump_messages(2); // get-predecessor RPC

        // x = successor.predecessor; adopt if it sits between us.
        let x = self.nodes.get(&succ).and_then(|s| s.predecessor);
        let new_succ = match x {
            Some(x) if self.nodes.contains_key(&x) && x.in_open_interval(id, &succ) => x,
            _ => succ,
        };

        // Refresh own successor list from the (new) successor's list.
        let succ_list = {
            let s = &self.nodes[&new_succ];
            let mut list = vec![new_succ];
            list.extend(
                s.successors
                    .iter()
                    .filter(|k| self.nodes.contains_key(k))
                    .copied(),
            );
            list.truncate(SUCCESSOR_LIST_LEN);
            list
        };
        if let Some(state) = self.nodes.get_mut(id) {
            state.successors = succ_list;
        }

        // notify(successor, self)
        self.bump_messages(1);
        let me = *id;
        let adopt = match self.nodes.get(&new_succ).and_then(|s| s.predecessor) {
            None => true,
            Some(p) => !self.nodes.contains_key(&p) || me.in_open_interval(&p, &new_succ),
        };
        if adopt && new_succ != me {
            if let Some(succ_state) = self.nodes.get_mut(&new_succ) {
                succ_state.predecessor = Some(me);
            }
        }
    }

    fn check_predecessor(&mut self, id: &Key) {
        let Some(state) = self.nodes.get(id) else {
            return;
        };
        if let Some(p) = state.predecessor {
            if !self.nodes.contains_key(&p) {
                self.nodes.get_mut(id).expect("checked").predecessor = None;
            }
        }
    }

    fn fix_finger_step(&mut self, id: &Key) {
        let Some(state) = self.nodes.get(id) else {
            return;
        };
        let i = state.next_finger;
        let target = id.wrapping_add(&Key::power_of_two(i));
        let (owner, _hops) = self.find_successor_from(*id, &target);
        let state = self.nodes.get_mut(id).expect("live node");
        state.fingers[i] = owner;
        state.next_finger = (i + 1) % KEY_BITS;
    }

    /// Repairs every finger of `id` with routed lookups.
    pub fn fix_all_fingers(&mut self, id: &Key) {
        if !self.nodes.contains_key(id) {
            return;
        }
        for i in 0..KEY_BITS {
            let target = id.wrapping_add(&Key::power_of_two(i));
            let (owner, _hops) = self.find_successor_from(*id, &target);
            let state = self.nodes.get_mut(id).expect("live node");
            state.fingers[i] = owner;
        }
    }

    /// Direct access to a node's local store (read-only, for inspection).
    pub fn store_of(&self, id: &NodeId) -> Option<&NodeStore> {
        self.ring.store_of(id)
    }

    /// The one read: route (accounted), then one request/response pair per
    /// node asked — the routed node and, when it is not the owner and
    /// answered empty, the owner. Borrowed, with the digest the answering
    /// store keeps, so a digest read hashes nothing and only a `Values`
    /// answer copies the values.
    fn read(&self, key: &Key) -> StoredValues<'_> {
        let Some(routed) = self.route(key) else {
            return StoredValues::default();
        };
        let ask = |node: Key| {
            self.bump_messages(2); // fetch request + response
            self.store_of(&NodeId::from_key(node))
                .map_or(StoredValues::default(), |s| s.get(key))
        };
        let held = ask(routed);
        match self.responsible_node(key) {
            Some(owner) if owner != routed && held.is_empty() => ask(owner),
            _ => held,
        }
    }
}

impl Default for ChordNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl Dht for ChordNetwork {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        if self.ring.is_empty() {
            return Err(DhtError::NoLiveNodes);
        }
        match op {
            DhtOp::NodeFor(key) => {
                let owner = self.route(&key).ok_or(DhtError::NoLiveNodes)?;
                Ok(DhtResponse::Node(NodeId::from_key(owner)))
            }
            DhtOp::Get(key) => Ok(DhtResponse::Values(self.get(&key))),
            DhtOp::GetDigest(key) => Ok(DhtResponse::from_seen(self.read(&key).seen())),
            DhtOp::GetIfChanged { key, seen } => Ok(self.read(&key).if_changed(seen)),
            // The one write: route (accounted), one request/ack pair, then
            // the owner's store.
            DhtOp::Put { key, .. } | DhtOp::Remove { key, .. } => {
                self.route(&key);
                self.bump_messages(2);
                Ok(self.ring.apply_write(op))
            }
        }
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.route(key).map(NodeId::from_key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.ring.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.read(key).to_bytes()
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        self.ring.entries()
    }

    fn stats(&self) -> DhtStats {
        DhtStats {
            messages: self.messages.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            hops: self.hops.load(Ordering::Relaxed),
        }
    }

    fn len(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Key> {
        (0..n).map(|i| Key::hash_of(&format!("node-{i}"))).collect()
    }

    #[test]
    fn perfect_tables_are_converged() {
        let net = ChordNetwork::with_perfect_tables(keys(32));
        assert!(net.is_converged());
        assert_eq!(net.len(), 32);
    }

    #[test]
    fn routed_lookup_matches_oracle() {
        let net = ChordNetwork::with_perfect_tables(keys(64));
        let order = net.ring.ids();
        for i in 0..200 {
            let key = Key::hash_of(&format!("data-{i}"));
            let oracle = net.responsible_node(&key).unwrap();
            for origin in [order[0], order[31], order[63]] {
                let (found, _) = net.find_successor_from(origin, &key);
                assert_eq!(found, oracle, "key {i} from {origin:?}");
            }
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let net = ChordNetwork::with_perfect_tables(keys(256));
        let mut total_hops = 0u32;
        let samples = 500;
        for i in 0..samples {
            let key = Key::hash_of(&format!("sample-{i}"));
            let (_, hops) = net.find_successor_from(net.ring.ids()[i % 256], &key);
            total_hops += hops;
        }
        let mean = total_hops as f64 / samples as f64;
        // Theory: ~0.5 * log2(256) = 4 hops. Allow generous slack.
        assert!(mean > 1.0 && mean < 8.0, "mean hops {mean}");
    }

    #[test]
    fn put_get_roundtrip() {
        let mut net = ChordNetwork::with_perfect_tables(keys(16));
        for i in 0..50 {
            let key = Key::hash_of(&format!("item-{i}"));
            assert!(net.put(key, Bytes::from(format!("value-{i}"))));
        }
        for i in 0..50 {
            let key = Key::hash_of(&format!("item-{i}"));
            assert_eq!(net.get(&key), vec![Bytes::from(format!("value-{i}"))]);
        }
    }

    /// A join with no maintenance leaves every other member's tables
    /// stale, so reads of a key the newcomer took over are routed to its
    /// old owner, which answers empty: the read then asks the owner. Each
    /// read costs its route plus one pair per node asked, and one full
    /// rotation of origins finds the value every time.
    #[test]
    fn a_stale_route_falls_back_to_the_owner_one_pair_per_node_asked() {
        let ids = keys(8);
        let mut net = ChordNetwork::with_perfect_tables(ids.clone());
        let key = Key::hash_of("taken over");
        net.put(key, Bytes::from_static(b"v"));
        net.join(NodeId::from_key(key), NodeId::from_key(ids[0]))
            .unwrap();
        let owner = net.responsible_node(&key).unwrap();
        assert_eq!(owner, key, "the newcomer owns the key");
        let mut fell_back = 0;
        for _ in 0..net.len() {
            let at = net.next_origin.load(Ordering::Relaxed) as usize;
            let origin = net.ring.ids()[at % net.len()];
            let (routed, _) = net.find_successor_from(origin, &key);
            let before = net.stats();
            assert_eq!(net.get(&key), vec![Bytes::from_static(b"v")]);
            let after = net.stats();
            let asked = if routed == owner { 1 } else { 2 };
            fell_back += asked - 1;
            assert_eq!(
                after.messages - before.messages,
                2 * (after.hops - before.hops) + 2 * asked,
                "from {origin:?}: route + one pair per node asked"
            );
        }
        assert!(fell_back > 0, "no read was routed to the old owner");
    }

    /// Reads through `execute(Get)` and through `get` are the same read:
    /// same origins consumed, same route, same accounting.
    #[test]
    fn execute_get_and_get_account_alike() {
        let (mut via_execute, mut via_get) = (
            ChordNetwork::with_perfect_tables(keys(16)),
            ChordNetwork::with_perfect_tables(keys(16)),
        );
        let data: Vec<Key> = (0..40).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for net in [&mut via_execute, &mut via_get] {
            for (i, k) in data.iter().enumerate() {
                net.put(*k, Bytes::from(format!("v{i}")));
            }
        }
        for k in &data {
            let values = via_execute.execute(DhtOp::Get(*k)).unwrap().into_values();
            assert_eq!(values, via_get.get(k));
        }
        assert_eq!(via_execute.stats(), via_get.stats());
    }

    #[test]
    fn bootstrap_then_joins_converge() {
        let ids = keys(12);
        let mut net = ChordNetwork::new();
        net.bootstrap(NodeId::from_key(ids[0])).unwrap();
        for id in &ids[1..] {
            net.join(NodeId::from_key(*id), NodeId::from_key(ids[0]))
                .unwrap();
            net.run_maintenance(3);
        }
        let rounds = net.converge(50);
        assert!(net.is_converged(), "not converged after {rounds} rounds");
        assert_eq!(net.len(), 12);
    }

    #[test]
    fn join_duplicate_is_error() {
        let ids = keys(2);
        let mut net = ChordNetwork::new();
        net.bootstrap(NodeId::from_key(ids[0])).unwrap();
        net.join(NodeId::from_key(ids[1]), NodeId::from_key(ids[0]))
            .unwrap();
        let err = net.join(NodeId::from_key(ids[1]), NodeId::from_key(ids[0]));
        assert_eq!(
            err,
            Err(ChordError::DuplicateNode(NodeId::from_key(ids[1])))
        );
    }

    #[test]
    fn join_unknown_bootstrap_is_error() {
        let ids = keys(2);
        let mut net = ChordNetwork::new();
        net.bootstrap(NodeId::from_key(ids[0])).unwrap();
        let ghost = NodeId::hash_of("ghost");
        let err = net.join(NodeId::from_key(ids[1]), ghost);
        assert_eq!(err, Err(ChordError::UnknownNode(ghost)));
    }

    #[test]
    fn joining_node_takes_over_keys() {
        let ids = keys(8);
        let mut net = ChordNetwork::with_perfect_tables(ids.clone());
        // Store data, then join a new node and verify all data still found.
        let data: Vec<Key> = (0..100).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for (i, k) in data.iter().enumerate() {
            net.put(*k, Bytes::from(format!("v{i}")));
        }
        let newcomer = NodeId::hash_of("newcomer");
        net.join(newcomer, NodeId::from_key(ids[0])).unwrap();
        net.converge(50);
        for (i, k) in data.iter().enumerate() {
            assert_eq!(net.get(k), vec![Bytes::from(format!("v{i}"))], "key {i}");
        }
    }

    #[test]
    fn back_to_back_joins_strand_no_key() {
        // Eight joins with no maintenance in between: the later ones route
        // through tables that do not know the earlier newcomers yet, and
        // every key must still end up on the node the global view names.
        let ids = keys(16);
        let mut net = ChordNetwork::with_perfect_tables(ids.clone());
        let data: Vec<Key> = (0..200).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for (i, k) in data.iter().enumerate() {
            net.put(*k, Bytes::from(format!("v{i}")));
        }
        for i in 0..8 {
            net.join(
                NodeId::hash_of(&format!("new-{i}")),
                NodeId::from_key(ids[0]),
            )
            .unwrap();
        }
        net.converge(64);
        assert!(net.is_converged());
        for (i, k) in data.iter().enumerate() {
            let owner = NodeId::from_key(net.responsible_node(k).unwrap());
            assert!(net.store_of(&owner).unwrap().contains_key(k), "key {i}");
            assert_eq!(net.get(k), vec![Bytes::from(format!("v{i}"))], "key {i}");
        }
    }

    #[test]
    fn graceful_leave_preserves_data() {
        let ids = keys(8);
        let mut net = ChordNetwork::with_perfect_tables(ids.clone());
        let data: Vec<Key> = (0..100).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for (i, k) in data.iter().enumerate() {
            net.put(*k, Bytes::from(format!("v{i}")));
        }
        net.leave(NodeId::from_key(ids[3])).unwrap();
        net.converge(50);
        for (i, k) in data.iter().enumerate() {
            assert_eq!(net.get(k), vec![Bytes::from(format!("v{i}"))], "key {i}");
        }
    }

    #[test]
    fn ring_heals_after_failure() {
        let ids = keys(16);
        let mut net = ChordNetwork::with_perfect_tables(ids.clone());
        net.fail(NodeId::from_key(ids[5])).unwrap();
        net.fail(NodeId::from_key(ids[6])).unwrap();
        net.converge(50);
        assert!(net.is_converged());
        assert_eq!(net.len(), 14);
        // Lookups still resolve to the oracle.
        for i in 0..50 {
            let key = Key::hash_of(&format!("q{i}"));
            let (found, _) = net.find_successor_from(net.ring.ids()[0], &key);
            assert_eq!(found, net.responsible_node(&key).unwrap());
        }
    }

    #[test]
    fn without_replication_failure_loses_data() {
        let ids = keys(8);
        let mut net = ChordNetwork::with_perfect_tables(ids);
        let key = Key::hash_of("fragile");
        net.put(key, Bytes::from_static(b"data"));
        let primary = net.responsible_node(&key).unwrap();
        net.fail(NodeId::from_key(primary)).unwrap();
        net.converge(50);
        assert!(net.get(&key).is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let mut net = ChordNetwork::with_perfect_tables(keys(32));
        let before = net.stats();
        net.put(Key::hash_of("x"), Bytes::from_static(b"y"));
        net.get(&Key::hash_of("x"));
        let after = net.stats();
        assert!(after.lookups >= before.lookups + 2);
        assert!(after.messages > before.messages);
    }

    #[test]
    fn empty_network_behaviour() {
        let mut net = ChordNetwork::new();
        assert!(net.is_empty());
        assert_eq!(net.node_for(&Key::hash_of("x")), None);
        assert!(net.get(&Key::hash_of("x")).is_empty());
        assert!(!net.put(Key::hash_of("x"), Bytes::from_static(b"v")));
        assert!(net.is_converged());
    }

    #[test]
    fn single_node_owns_everything() {
        let mut net = ChordNetwork::new();
        net.bootstrap(NodeId::hash_of("solo")).unwrap();
        for i in 0..20 {
            let k = Key::hash_of(&format!("k{i}"));
            net.put(k, Bytes::from(format!("v{i}")));
            assert_eq!(net.get(&k), vec![Bytes::from(format!("v{i}"))]);
        }
        let solo = net.nodes()[0];
        assert_eq!(net.store_of(&solo).unwrap().key_count(), 20);
    }

    #[test]
    fn keys_spread_roughly_evenly_over_the_members() {
        let mut net = ChordNetwork::with_perfect_tables(keys(32));
        for i in 0..3200 {
            net.put(Key::hash_of(&format!("item{i}")), Bytes::from_static(b"v"));
        }
        let nodes = net.nodes();
        let counts = nodes.iter().map(|n| net.store_of(n).unwrap().key_count());
        let max = counts.max().unwrap();
        // SHA-1 spreads keys; with 32 nodes and 3200 keys the max load
        // shouldn't exceed ~6x the mean (consistent hashing variance).
        assert!(max < 600, "max per-node keys {max}");
    }
}
