//! Load balancing: hot-key read fan-out.
//!
//! The paper's hierarchical indexes deliberately concentrate broad queries
//! on few nodes, and a flash crowd hammers one title's lookup chain. A
//! shortcut cache cannot unload that chain's owner: a shortcut is answered
//! by the node the query lands on. This module is the mitigation layer:
//! [`SplitDht`] decorates any substrate (like
//! [`FaultyDht`](crate::faulty::FaultyDht) does for faults) and
//!
//! * **fans out** read replicas for *hot keys* whose observed get count
//!   crosses [`BalanceConfig::hot_threshold`]: the entry is mirrored onto
//!   the key's clockwise successors (the same
//!   [`placement::replica_keys`] rule the networked cluster replicates
//!   with) and subsequent reads rotate across primary and mirrors;
//! * **measures** per-node load (puts, gets, put bytes) for every physical
//!   operation it issues, feeding the `load.*` metrics series and the
//!   `repro hotspot` imbalance exhibit.
//!
//! With [`BalanceConfig::observe_only`] the decorator changes nothing
//! about placement — every operation passes straight through — so a
//! baseline run and a mitigated run measure load through the identical
//! code path.
//!
//! # Physical layout
//!
//! A hot key's mirror copy of value `v` is stored under the mirror node's
//! own ring key as `M: ∥ parent ∥ v`, so several hot keys mirrored onto
//! one node never mix. The primary entry is stored as written.

use std::collections::HashMap;

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::api::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId};
use crate::key::Key;
use crate::placement;

/// Wire prefix of a mirrored hot-key value (`M:<20-byte parent><value>`).
pub const MIRROR_PREFIX: &[u8] = b"M:";

/// Tuning knobs of the balance layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalanceConfig {
    /// Promote a key to hot once this many gets were observed on it
    /// (`0` disables fan-out).
    pub hot_threshold: u64,
    /// How many read mirrors a hot key gets (its next clockwise
    /// successors, primary excluded).
    pub fanout: usize,
}

impl BalanceConfig {
    /// Measure load only: no fan-out — every operation passes through
    /// unchanged. The baseline half of the hot-spot exhibit runs with
    /// this.
    pub fn observe_only() -> BalanceConfig {
        BalanceConfig {
            hot_threshold: 0,
            fanout: 0,
        }
    }

    /// Hot-key fan-out on.
    pub fn mitigating(hot_threshold: u64, fanout: usize) -> BalanceConfig {
        BalanceConfig {
            hot_threshold,
            fanout,
        }
    }

    /// `true` when fan-out can never trigger.
    pub fn is_observe_only(&self) -> bool {
        self.hot_threshold == 0 || self.fanout == 0
    }
}

/// Per-node load observed by the decorator: one row of the hot-spot
/// exhibit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Physical put operations served by this node.
    pub puts: u64,
    /// Physical get operations served by this node.
    pub gets: u64,
    /// Bytes written to this node by physical puts.
    pub put_bytes: u64,
}

impl NodeLoad {
    /// Total storage operations (puts + gets) — the exhibit's load unit.
    pub fn ops(&self) -> u64 {
        self.puts + self.gets
    }
}

/// Wraps `value` of hot key `parent` for storage under a mirror node key.
fn wrap_mirror(parent: &Key, value: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(MIRROR_PREFIX.len() + 20 + value.len());
    buf.extend_from_slice(MIRROR_PREFIX);
    buf.extend_from_slice(parent.as_bytes());
    buf.extend_from_slice(value);
    Bytes::from(buf)
}

/// Recovers the values of hot key `parent` from a mirror node's entry.
fn unwrap_mirror(parent: &Key, stored: Vec<Bytes>) -> Vec<Bytes> {
    let mut out = Vec::with_capacity(stored.len());
    for v in stored {
        if v.len() >= MIRROR_PREFIX.len() + 20
            && v.starts_with(MIRROR_PREFIX)
            && &v[MIRROR_PREFIX.len()..MIRROR_PREFIX.len() + 20] == parent.as_bytes()
        {
            out.push(v.slice(MIRROR_PREFIX.len() + 20..));
        }
    }
    out
}

/// The load-balance decorator: it splits a hot key's *reads* across
/// mirrors (hot-key fan-out) and measures per-node load over any [`Dht`].
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use p2p_index_dht::{BalanceConfig, Dht, DhtOp, Key, RingDht, SplitDht};
///
/// let ring = RingDht::with_named_nodes(32);
/// let mut dht = SplitDht::new(ring, BalanceConfig::mitigating(4, 3));
/// let key = Key::hash_of("flash-crowd-title");
/// dht.put(key, Bytes::from_static(b"Q:/article/title/Breaking"));
/// for _ in 0..20 {
///     let values = dht.execute(DhtOp::Get(key)).unwrap().into_values();
///     assert_eq!(values.len(), 1);
/// }
/// // The fourth get promoted the key; later reads rotate over the
/// // primary and its three mirrors, and every one sees the whole entry.
/// assert_eq!(dht.hot_key_count(), 1);
/// let (promotions, mirror_reads) = dht.balance_stats();
/// assert_eq!(promotions, 1);
/// assert!(mirror_reads > 0);
/// ```
pub struct SplitDht<D> {
    inner: D,
    config: BalanceConfig,
    /// Gets observed per key, for hot promotion.
    get_counts: HashMap<Key, u64>,
    /// Hot keys and their mirror node keys (promotion order).
    mirrors: HashMap<Key, Vec<Key>>,
    /// Rotation counter for mirror reads.
    rotation: u64,
    /// Per-node load observed across every physical operation issued.
    load: HashMap<NodeId, NodeLoad>,
    promotions: u64,
    mirror_reads: u64,
    metrics: MetricsRegistry,
}

impl<D: Dht> SplitDht<D> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: D, config: BalanceConfig) -> SplitDht<D> {
        SplitDht {
            inner,
            config,
            get_counts: HashMap::new(),
            mirrors: HashMap::new(),
            rotation: 0,
            load: HashMap::new(),
            promotions: 0,
            mirror_reads: 0,
            metrics: MetricsRegistry::default(),
        }
    }

    /// The wrapped substrate (read-only).
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped substrate (mutable).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// The active configuration.
    pub fn config(&self) -> BalanceConfig {
        self.config
    }

    /// Per-node load observed so far (every physical put/get issued,
    /// attributed to the node responsible for its storage key).
    pub fn load(&self) -> &HashMap<NodeId, NodeLoad> {
        &self.load
    }

    /// Per-node load in ascending node order, one slot per live node
    /// (zero for nodes that served nothing).
    pub fn load_per_node(&self) -> Vec<(NodeId, NodeLoad)> {
        self.inner
            .nodes()
            .into_iter()
            .map(|n| (n, self.load.get(&n).copied().unwrap_or_default()))
            .collect()
    }

    /// Zeroes the per-node load table (e.g. between the publish phase and
    /// the query phase of a scenario).
    pub fn reset_load(&mut self) {
        self.load.clear();
    }

    /// Number of keys promoted to hot (fanned out to mirrors).
    pub fn hot_key_count(&self) -> usize {
        self.mirrors.len()
    }

    /// Counters of the balance machinery: `(promotions, mirror_reads)`.
    pub fn balance_stats(&self) -> (u64, u64) {
        (self.promotions, self.mirror_reads)
    }

    /// Records one physical operation against the node owning `key`.
    fn note(&mut self, key: &Key, put_bytes: Option<usize>) {
        let Some(node) = self.inner.node_for(key) else {
            return;
        };
        let slot = self.load.entry(node).or_default();
        match put_bytes {
            Some(bytes) => {
                slot.puts += 1;
                slot.put_bytes += bytes as u64;
                self.metrics.incr("load.puts");
                self.metrics.add("load.put_bytes", bytes as u64);
            }
            None => {
                slot.gets += 1;
                self.metrics.incr("load.gets");
            }
        }
    }

    /// One physical get through the inner substrate, load-tracked.
    fn raw_get(&mut self, key: Key) -> Result<Vec<Bytes>, DhtError> {
        self.note(&key, None);
        Ok(self.inner.execute(DhtOp::Get(key))?.into_values())
    }

    /// One physical put through the inner substrate, load-tracked.
    fn raw_put(&mut self, key: Key, value: Bytes) -> Result<bool, DhtError> {
        self.note(&key, Some(value.len()));
        Ok(self.inner.execute(DhtOp::Put { key, value })?.into_stored())
    }

    /// One physical remove through the inner substrate, load-tracked as a
    /// put (a write touching the node).
    fn raw_remove(&mut self, key: Key, value: Bytes) -> Result<bool, DhtError> {
        self.note(&key, Some(0));
        Ok(self
            .inner
            .execute(DhtOp::Remove { key, value })?
            .into_removed())
    }

    /// The mirror node keys of `key` (empty unless it is hot).
    fn mirrors_of(&self, key: &Key) -> Vec<Key> {
        self.mirrors.get(key).cloned().unwrap_or_default()
    }

    /// Promotes `key` to hot: mirror its value set onto its next `fanout`
    /// clockwise successors (primary excluded), per the shared
    /// [`placement::replica_keys`] rule.
    fn promote(&mut self, key: Key) -> Result<(), DhtError> {
        let values = self.raw_get(key)?;
        let ring: Vec<Key> = self.inner.nodes().iter().map(|n| *n.key()).collect();
        let mut mirror_keys = placement::replica_keys(&ring, &key, 1 + self.config.fanout);
        if mirror_keys.len() <= 1 {
            return Ok(());
        }
        mirror_keys.remove(0);
        for mk in &mirror_keys {
            for v in &values {
                self.raw_put(*mk, wrap_mirror(&key, v))?;
            }
        }
        self.mirrors.insert(key, mirror_keys);
        self.promotions += 1;
        self.metrics.incr("load.promotions");
        Ok(())
    }

    /// The get path: count the get, promote at the threshold, and rotate
    /// a hot key's reads across primary and mirrors.
    fn do_get(&mut self, key: Key) -> Result<Vec<Bytes>, DhtError> {
        if !self.config.is_observe_only() {
            let count = {
                let slot = self.get_counts.entry(key).or_insert(0);
                *slot += 1;
                *slot
            };
            if count == self.config.hot_threshold && !self.mirrors.contains_key(&key) {
                self.promote(key)?;
            }
            if let Some(mirror_keys) = self.mirrors.get(&key) {
                let slots = mirror_keys.len() + 1;
                let pick = (self.rotation % slots as u64) as usize;
                self.rotation += 1;
                if pick > 0 {
                    let mk = mirror_keys[pick - 1];
                    let stored = self.raw_get(mk)?;
                    self.mirror_reads += 1;
                    self.metrics.incr("load.mirror_reads");
                    return Ok(unwrap_mirror(&key, stored));
                }
            }
        }
        self.raw_get(key)
    }
}

impl<D: Dht> Dht for SplitDht<D> {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        match op {
            DhtOp::NodeFor(_) => self.inner.execute(op),
            DhtOp::Get(key) => self.do_get(key).map(DhtResponse::Values),
            DhtOp::GetDigest(key) => self
                .do_get(key)
                .map(|values| DhtResponse::digest_of(&key, &values)),
            DhtOp::GetIfChanged { key, seen } if self.config.is_observe_only() => {
                self.note(&key, None);
                self.inner.execute(DhtOp::GetIfChanged { key, seen })
            }
            // A hot key may be answered by a mirror, so the entry is
            // compared after the read, not in place.
            DhtOp::GetIfChanged { key, seen } => self
                .do_get(key)
                .map(|values| DhtResponse::if_changed(&key, seen, &values)),
            DhtOp::Put { key, value } => {
                let stored = self.raw_put(key, value.clone())?;
                if stored {
                    for mk in self.mirrors_of(&key) {
                        self.raw_put(mk, wrap_mirror(&key, &value))?;
                    }
                }
                Ok(DhtResponse::Stored(stored))
            }
            DhtOp::Remove { key, value } => {
                let removed = self.raw_remove(key, value.clone())?;
                if removed {
                    for mk in self.mirrors_of(&key) {
                        self.raw_remove(mk, wrap_mirror(&key, &value))?;
                    }
                }
                Ok(DhtResponse::Removed(removed))
            }
        }
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        // Fan-out keeps per-op state (get counts, rotation), so it runs
        // op by op.
        if !self.config.is_observe_only() {
            return ops.into_iter().map(|op| self.execute(op)).collect();
        }
        // Observe-only: track load per op, then hand the whole batch to
        // the substrate so a networked inner keeps its pipelining.
        for op in &ops {
            match op {
                DhtOp::Get(key) | DhtOp::GetDigest(key) | DhtOp::GetIfChanged { key, .. } => {
                    self.note(key, None)
                }
                DhtOp::Put { key, value } => self.note(key, Some(value.len())),
                DhtOp::Remove { key, .. } => self.note(key, Some(0)),
                DhtOp::NodeFor(_) => {}
            }
        }
        self.inner.execute_many(ops)
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.inner.node_for(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.inner.get(key)
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        self.inner.entries()
    }

    fn stats(&self) -> DhtStats {
        self.inner.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics.clone();
        self.inner.set_metrics(metrics);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingDht;

    fn value(i: usize) -> Bytes {
        Bytes::from(format!("Q:/article/value/{i:05}"))
    }

    #[test]
    fn hot_key_fans_out_and_rotates() {
        let mut dht = SplitDht::new(
            RingDht::with_named_nodes(64),
            BalanceConfig::mitigating(4, 3),
        );
        let key = Key::hash_of("flash-crowd-title");
        dht.put(key, value(1));
        dht.put(key, value(2));
        for _ in 0..40 {
            let got = dht.execute(DhtOp::Get(key)).unwrap().into_values();
            assert_eq!(got.len(), 2, "every rotated read sees the full entry");
        }
        assert_eq!(dht.hot_key_count(), 1);
        let (promotions, mirror_reads) = dht.balance_stats();
        assert_eq!(promotions, 1);
        assert!(mirror_reads > 0, "reads rotate onto mirrors");
        // The mirrors carry real load: more than one node served gets.
        let loaded: Vec<_> = dht.load().values().filter(|l| l.gets > 0).collect();
        assert!(loaded.len() > 1, "gets spread over {} nodes", loaded.len());
    }

    #[test]
    fn writes_to_hot_keys_update_mirrors() {
        let mut dht = SplitDht::new(
            RingDht::with_named_nodes(64),
            BalanceConfig::mitigating(2, 2),
        );
        let key = Key::hash_of("hot");
        dht.put(key, value(1));
        for _ in 0..4 {
            dht.execute(DhtOp::Get(key)).unwrap();
        }
        assert_eq!(dht.hot_key_count(), 1);
        dht.put(key, value(2));
        dht.remove(&key, &value(1));
        for _ in 0..6 {
            let got = dht.execute(DhtOp::Get(key)).unwrap().into_values();
            assert_eq!(got, vec![value(2)], "mirrors track writes");
        }
    }

    #[test]
    fn observe_only_passes_through_but_counts_load() {
        let mut plain = RingDht::with_named_nodes(32);
        let mut observed =
            SplitDht::new(RingDht::with_named_nodes(32), BalanceConfig::observe_only());
        let key = Key::hash_of("k");
        for i in 0..10 {
            assert_eq!(plain.put(key, value(i)), observed.put(key, value(i)));
        }
        assert_eq!(plain.get(&key), observed.get(&key));
        assert_eq!(observed.hot_key_count(), 0);
        let total: u64 = observed.load().values().map(|l| l.puts).sum();
        assert_eq!(total, 10);
    }
}
