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
//! tolerance. Three rules sit on top of the routing:
//!
//! * **Accounting.** Every operation is "route for accounting, then one
//!   request/response pair (2 messages) per node asked". A write asks the
//!   routed owner once and lands on the replica set (the responsible node
//!   and its `replication - 1` successors) by global view; a read asks the
//!   routed owner and, while the answer is empty, the rest of the replica
//!   set in order (DHash-style). Each routed operation consumes exactly
//!   one lookup origin; origins rotate over the members.
//! * **Join takeover.** After a newcomer is routed to its place, every key
//!   whose replica set now contains it lands on exactly that set, from
//!   whichever members hold it.
//! * **Re-replication.** The same placement pass over every key
//!   ([`ChordNetwork::repair_replication`]).
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
use p2p_index_obs::MetricsRegistry;

use crate::api::{self, Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeChurn, NodeId};
use crate::key::{Key, KEY_BITS};
use crate::storage::{merged_entries, NodeStore};

/// Tuning knobs for the Chord simulation.
#[derive(Debug, Clone)]
pub struct ChordConfig {
    /// Length of each node's successor list (fault tolerance).
    pub successor_list_len: usize,
    /// How many data replicas to place on the nodes succeeding the
    /// responsible node (1 = no replication). The paper notes indexes
    /// "benefit from the mechanisms implemented by the DHT substrate ...
    /// such as data replication"; this knob demonstrates that layering.
    pub replication: usize,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            successor_list_len: 4,
            replication: 1,
        }
    }
}

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

/// The simulated Chord network: every member's protocol state and store,
/// plus the work counters behind [`Dht::stats`].
///
/// See the [module docs](self) for an overview and examples.
#[derive(Debug)]
pub struct ChordNetwork {
    cfg: ChordConfig,
    /// Per-member protocol state.
    nodes: BTreeMap<Key, NodeState>,
    /// Per-member multi-value store (same key set as `nodes`).
    stores: BTreeMap<Key, NodeStore>,
    /// Sorted cache of live node identifiers (mirrors `nodes` keys).
    order: Vec<Key>,
    /// Work counters, atomic so `&self` read paths account like
    /// everything else.
    messages: AtomicU64,
    lookups: AtomicU64,
    hops: AtomicU64,
    /// Rotates lookup origins so routed traffic spreads over the members.
    next_origin: AtomicU64,
    metrics: MetricsRegistry,
}

impl ChordNetwork {
    /// Creates an empty network with the default configuration.
    pub fn new() -> Self {
        Self::with_perfect_tables([])
    }

    /// Builds a fully converged ring over `ids` in one step.
    ///
    /// Successors, predecessors, successor lists and all finger tables are
    /// computed from the global view, as if stabilization had already run to
    /// completion. Duplicated identifiers are collapsed.
    pub fn with_perfect_tables(ids: impl IntoIterator<Item = Key>) -> Self {
        Self::with_perfect_tables_and_config(ids, ChordConfig::default())
    }

    /// [`ChordNetwork::with_perfect_tables`] with an explicit configuration.
    pub fn with_perfect_tables_and_config(
        ids: impl IntoIterator<Item = Key>,
        cfg: ChordConfig,
    ) -> Self {
        let mut net = ChordNetwork {
            cfg,
            nodes: BTreeMap::new(),
            stores: BTreeMap::new(),
            order: Vec::new(),
            messages: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hops: AtomicU64::new(0),
            next_origin: AtomicU64::new(0),
            metrics: MetricsRegistry::default(),
        };
        for id in ids {
            net.insert_member(id, NodeState::solitary(id));
        }
        net.rebuild_all_tables();
        net
    }

    /// Adds `id` with the given state and an empty store; a no-op if it
    /// is already a member.
    fn insert_member(&mut self, id: Key, state: NodeState) {
        if let Err(pos) = self.order.binary_search(&id) {
            self.order.insert(pos, id);
            self.nodes.insert(id, state);
            self.stores.insert(id, NodeStore::new());
        }
    }

    /// Drops `id` from the member list, handing back what it stored.
    fn remove_member(&mut self, id: &Key) -> Option<NodeStore> {
        let pos = self.order.binary_search(id).ok()?;
        self.order.remove(pos);
        self.nodes.remove(id);
        self.stores.remove(id)
    }

    fn bump_messages(&self, n: u64) {
        self.messages.fetch_add(n, Ordering::Relaxed);
    }

    /// Recomputes every pointer from the global view (test/bench helper).
    fn rebuild_all_tables(&mut self) {
        let order = self.order.clone();
        let n = order.len();
        if n == 0 {
            return;
        }
        for (pos, id) in order.iter().enumerate() {
            let succs: Vec<Key> = (1..=self.cfg.successor_list_len.max(1))
                .map(|k| order[(pos + k) % n])
                .collect();
            let pred = order[(pos + n - 1) % n];
            let fingers: Vec<Key> = (0..KEY_BITS)
                .map(|i| Self::successor_in(&order, &id.wrapping_add(&Key::power_of_two(i))))
                .collect();
            let state = self.nodes.get_mut(id).expect("node in order cache");
            state.successors = succs;
            state.predecessor = Some(pred);
            state.fingers = fingers;
        }
    }

    /// Ground-truth successor of `key` among `sorted` ids (first id
    /// clockwise at or after `key`).
    fn successor_in(sorted: &[Key], key: &Key) -> Key {
        debug_assert!(!sorted.is_empty());
        match sorted.binary_search(key) {
            Ok(i) => sorted[i],
            Err(i) if i == sorted.len() => sorted[0],
            Err(i) => sorted[i],
        }
    }

    /// The node responsible for `key` according to the global view.
    ///
    /// This is the oracle used by tests to validate routed lookups, and by
    /// the storage API to place data once routing has been accounted.
    pub fn responsible_node(&self, key: &Key) -> Option<Key> {
        if self.order.is_empty() {
            None
        } else {
            Some(Self::successor_in(&self.order, key))
        }
    }

    /// Routes a lookup for `key` from the next origin in rotation and
    /// charges its lookup, hops and per-hop messages. `None` only on an
    /// empty network.
    fn route(&self, key: &Key) -> Option<Key> {
        if self.order.is_empty() {
            return None;
        }
        let i = self.next_origin.fetch_add(1, Ordering::Relaxed) as usize;
        let origin = self.order[i % self.order.len()];
        Some(self.find_successor_from(origin, key).0)
    }

    /// The members that should hold `key`, primary first, by global view:
    /// the responsible node followed by `replication - 1` of its
    /// successors.
    fn replica_set(&self, key: &Key) -> Vec<Key> {
        let Some(primary) = self.responsible_node(key) else {
            return Vec::new();
        };
        let n = self.order.len();
        let pos = self.order.binary_search(&primary).expect("live node");
        (0..self.cfg.replication.max(1).min(n))
            .map(|k| self.order[(pos + k) % n])
            .collect()
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
        self.insert_member(key, NodeState::solitary(key));
        Ok(())
    }

    /// Joins `id` to the network via the live `bootstrap` node.
    ///
    /// The newcomer learns its successor through a routed lookup from
    /// `bootstrap` (counted in the stats) and relies on subsequent
    /// [`ChordNetwork::run_maintenance`] rounds to converge predecessor
    /// pointers, successor lists, and fingers — exactly as in the Chord
    /// paper. Then every key whose replica set now contains the newcomer
    /// lands on exactly that set, from whichever members hold it — data
    /// is never stranded, however stale the routing tables the join
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
        self.insert_member(*id.key(), state);
        self.bump_messages(2); // join request + key transfer
        self.place(Some(id.key()));
        Ok(())
    }

    /// Gracefully removes `id`: its keys move to its successor, and
    /// neighbours heal through stabilization.
    ///
    /// # Errors
    ///
    /// Returns [`ChordError::UnknownNode`] if `id` is not live.
    pub fn leave(&mut self, id: NodeId) -> Result<(), ChordError> {
        let key = *id.key();
        let Some(store) = self.remove_member(&key) else {
            return Err(ChordError::UnknownNode(id));
        };
        if let Some(succ) = self.responsible_node(&key) {
            let succ_store = self.stores.get_mut(&succ).expect("live successor");
            for (k, values) in store.iter() {
                for v in values {
                    succ_store.put(*k, v.clone());
                }
            }
            self.bump_messages(1); // bulk key transfer
        }
        Ok(())
    }

    /// Abruptly kills `id`: its data is lost (unless replicated) and
    /// routing state heals only through stabilization.
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
        let ids: Vec<Key> = self.order.clone();
        for id in ids {
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
            let ids: Vec<Key> = self.order.clone();
            for id in &ids {
                self.fix_all_fingers(id);
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
        let n = self.order.len();
        if n == 0 {
            return true;
        }
        self.order.iter().enumerate().all(|(pos, id)| {
            let state = &self.nodes[id];
            let want_succ = self.order[(pos + 1) % n];
            let want_pred = self.order[(pos + n - 1) % n];
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
            list.truncate(self.cfg.successor_list_len.max(1));
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

    /// The placement pass: each key's copies end up on exactly its current
    /// replica set, merged from whichever members hold them. With a
    /// `newcomer` only the keys that member should now hold move (the join
    /// takeover); without, every key does (re-replication). Returns the
    /// number of copies created. Accounts no messages.
    fn place(&mut self, newcomer: Option<&Key>) -> usize {
        let mut created = 0;
        for (key, values) in merged_entries(self.stores.values()) {
            let replicas = self.replica_set(&key);
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

    /// Restores the replication invariant after churn: every stored key's
    /// copies end up on exactly its current replica set (the responsible
    /// node and its `replication - 1` successors).
    ///
    /// This is the maintenance DHash performs continuously: joins shift
    /// responsibility to nodes that never received the data, failures
    /// knock copies out of replica sets, and graceful leaves consolidate
    /// them onto too few nodes. Run it after membership changes (typically
    /// together with [`ChordNetwork::converge`]). Returns the number of
    /// copies created.
    pub fn repair_replication(&mut self) -> usize {
        let created = self.place(None);
        self.bump_messages(created as u64);
        created
    }

    /// Per-node key counts, in ring order. Useful for load-balance studies.
    pub fn key_distribution(&self) -> Vec<(NodeId, usize)> {
        self.order
            .iter()
            .map(|id| (NodeId::from_key(*id), self.stores[id].key_count()))
            .collect()
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
        self.route(key).ok_or(DhtError::NoLiveNodes)?;
        self.bump_messages(2);
        let mut changed = false;
        for node in self.replica_set(key) {
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
        let Some(owner) = self.route(key) else {
            return &[];
        };
        let ask = |node: &Key| {
            self.bump_messages(2); // fetch request + response
            self.stores.get(node).map_or(&[][..], |s| s.get(key))
        };
        let mut values = ask(&owner);
        if values.is_empty() {
            for replica in self.replica_set(key) {
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
                let owner = self.route(&key).ok_or(DhtError::NoLiveNodes)?;
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

impl Default for ChordNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl Dht for ChordNetwork {
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
        self.route(key).map(NodeId::from_key)
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
            messages: self.messages.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            hops: self.hops.load(Ordering::Relaxed),
        }
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

impl NodeChurn for ChordNetwork {
    fn spawn(&mut self, id: NodeId) -> bool {
        let Some(bootstrap) = self.order.first().copied() else {
            return false;
        };
        self.join(id, NodeId::from_key(bootstrap)).is_ok()
    }

    fn kill(&mut self, id: NodeId) -> bool {
        self.fail(id).is_ok()
    }

    /// Converges the ring pointers, then re-replicates.
    fn stabilize(&mut self) {
        self.converge(64);
        self.repair_replication();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<Key> {
        (0..n).map(|i| Key::hash_of(&format!("node-{i}"))).collect()
    }

    fn replicated(n: usize, replication: usize) -> ChordNetwork {
        let cfg = ChordConfig {
            replication,
            ..ChordConfig::default()
        };
        ChordNetwork::with_perfect_tables_and_config(keys(n), cfg)
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
        for i in 0..200 {
            let key = Key::hash_of(&format!("data-{i}"));
            let oracle = net.responsible_node(&key).unwrap();
            for origin in [net.order[0], net.order[31], net.order[63]] {
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
            let (_, hops) = net.find_successor_from(net.order[i % 256], &key);
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

    /// Wipes the first `wiped` replicas' copies of a key and reads it: the
    /// value comes back while any replica holds it, and the read costs
    /// its route plus one RPC pair per node asked.
    #[test]
    fn get_falls_back_through_the_replica_set_one_pair_per_node_asked() {
        for wiped in 0..=3usize {
            let mut net = replicated(16, 3);
            let key = Key::hash_of("resilient");
            net.put(key, Bytes::from_static(b"v"));
            let replicas = net.replica_set(&key);
            assert_eq!(replicas.len(), 3);
            for node in &replicas[..wiped] {
                net.stores.get_mut(node).unwrap().remove_all(&key);
            }
            let before = net.stats();
            let got = net.get(&key);
            let after = net.stats();
            if wiped < 3 {
                assert_eq!(got, vec![Bytes::from_static(b"v")], "wiped={wiped}");
            } else {
                assert!(got.is_empty(), "every copy is gone");
            }
            let asked = (wiped as u64 + 1).min(3);
            assert_eq!(
                after.messages - before.messages,
                2 * (after.hops - before.hops) + 2 * asked,
                "wiped={wiped}: route + one pair per node asked"
            );
        }
    }

    /// Reads through `execute(Get)` and through `get` are the same read:
    /// same origins consumed, same route, same accounting.
    #[test]
    fn execute_get_and_get_account_alike() {
        let (mut via_execute, mut via_get) = (replicated(16, 1), replicated(16, 1));
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
            let (found, _) = net.find_successor_from(net.order[0], &key);
            assert_eq!(found, net.responsible_node(&key).unwrap());
        }
    }

    #[test]
    fn replication_survives_failure() {
        let mut net = replicated(8, 3);
        let key = Key::hash_of("precious");
        net.put(key, Bytes::from_static(b"data"));
        let primary = net.responsible_node(&key).unwrap();
        net.fail(NodeId::from_key(primary)).unwrap();
        net.converge(50);
        assert_eq!(net.get(&key), vec![Bytes::from_static(b"data")]);
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
    fn repair_replication_restores_full_sets() {
        let ids = keys(24);
        let mut net = replicated(24, 3);
        let data: Vec<Key> = (0..60).map(|i| Key::hash_of(&format!("d{i}"))).collect();
        for (i, k) in data.iter().enumerate() {
            net.put(*k, Bytes::from(format!("v{i}")));
        }
        // Churn erodes replica sets.
        for i in 0..4 {
            net.join(
                NodeId::hash_of(&format!("new-{i}")),
                NodeId::from_key(ids[0]),
            )
            .unwrap();
        }
        net.leave(NodeId::from_key(ids[3])).unwrap();
        net.fail(NodeId::from_key(ids[7])).unwrap();
        net.converge(50);
        net.repair_replication();
        // Every key has exactly `replication` live copies on its set.
        for k in &data {
            let holders = net
                .nodes()
                .iter()
                .filter(|n| net.store_of(n).is_some_and(|s| s.contains_key(k)))
                .count();
            assert_eq!(holders, 3, "key {k:?} holders");
        }
        // And a second repair is a no-op.
        assert_eq!(net.repair_replication(), 0);
    }

    #[test]
    fn repair_replication_drops_stray_copies() {
        let mut net = replicated(12, 2);
        let key = Key::hash_of("item");
        net.put(key, Bytes::from_static(b"v"));
        // A graceful leave consolidates copies onto the successor, leaving
        // a stray copy outside the new replica set once membership shifts.
        let primary = net.responsible_node(&key).unwrap();
        net.leave(NodeId::from_key(primary)).unwrap();
        net.converge(50);
        net.repair_replication();
        let holders = net
            .nodes()
            .iter()
            .filter(|n| net.store_of(n).is_some_and(|s| s.contains_key(&key)))
            .count();
        assert_eq!(holders, 2);
        assert_eq!(net.get(&key), vec![Bytes::from_static(b"v")]);
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
        assert_eq!(net.key_distribution()[0].1, 20);
    }

    #[test]
    fn key_distribution_is_roughly_balanced() {
        let mut net = ChordNetwork::with_perfect_tables(keys(32));
        for i in 0..3200 {
            net.put(Key::hash_of(&format!("item{i}")), Bytes::from_static(b"v"));
        }
        let dist = net.key_distribution();
        let max = dist.iter().map(|(_, c)| *c).max().unwrap();
        // SHA-1 spreads keys; with 32 nodes and 3200 keys the max load
        // shouldn't exceed ~6x the mean (consistent hashing variance).
        assert!(max < 600, "max per-node keys {max}");
    }
}
