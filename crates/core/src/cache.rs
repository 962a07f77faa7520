//! The adaptive distributed cache: per-node shortcut stores.
//!
//! After a successful lookup, peers create *shortcut* entries — "direct
//! mappings between generic queries and the descriptor of the target file"
//! (§IV-C) — in the caches of index nodes traversed along the path. Later
//! users asking the same query jump straight to the file.
//!
//! [`CachePolicy`] selects the paper's three §V-D variants (plus no
//! caching); [`ShortcutCache`] is the per-node store with optional LRU
//! eviction; `NodeCaches` holds every node's store under one policy, for
//! the index service to probe, fill and purge.

use std::collections::HashMap;
use std::fmt;

use p2p_index_dht::{Key, NodeId};
use p2p_index_obs::MetricsRegistry;
use p2p_index_xpath::Query;

use crate::target::IndexTarget;

/// Which shortcut-caching policy the system runs (§V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// No shortcuts are ever created.
    #[default]
    None,
    /// Shortcuts are created on *every* node along the lookup path;
    /// unbounded cache size.
    Multi,
    /// Shortcuts are created only on the *first* node contacted;
    /// unbounded cache size.
    Single,
    /// Like `Single`, but each node stores at most this many cached keys,
    /// evicting the least-recently-used entry when full.
    Lru(usize),
}

impl CachePolicy {
    /// The per-node capacity limit, if this policy has one.
    pub fn capacity(&self) -> Option<usize> {
        match self {
            CachePolicy::Lru(k) => Some(*k),
            _ => None,
        }
    }

    /// Should shortcuts be created at all?
    pub fn caches(&self) -> bool {
        !matches!(self, CachePolicy::None)
    }

    /// Does this policy create shortcuts on every path node (true) or only
    /// on the first node contacted (false)?
    pub fn caches_whole_path(&self) -> bool {
        matches!(self, CachePolicy::Multi)
    }
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CachePolicy::None => write!(f, "no-cache"),
            CachePolicy::Multi => write!(f, "multi-cache"),
            CachePolicy::Single => write!(f, "single-cache"),
            CachePolicy::Lru(k) => write!(f, "lru-{k}"),
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    key: Key,
    target: IndexTarget,
    last_used: u64,
}

/// One node's shortcut cache: query key `h(q)` → direct target,
/// LRU-evicted when a capacity is set.
///
/// Slots are keyed by the query's memoized DHT key rather than the query
/// itself: the key is a 20-byte `Copy` value, so cache probes on the
/// lookup hot path never clone a query or re-render its canonical text.
///
/// A cached key holds one target: [`insert`](Self::insert) replaces
/// whatever the key pointed at before (two popular articles reached
/// through the same broad query take turns), so a probe answers with the
/// most recently confirmed descriptor and responses stay small.
#[derive(Debug, Clone, Default)]
pub struct ShortcutCache {
    /// The cached shortcuts, in no order: an eviction moves the last slot
    /// into the evicted one's place.
    slots: Vec<Slot>,
    /// Where each cached key's slot sits in `slots`.
    index: HashMap<Key, u32>,
    capacity: Option<usize>,
    /// Whether the index has room for twice the capacity, made when the
    /// cache first fills. A full cache evicts a key for each new one, and
    /// the entries its evictions free wear the map's room down; a map that
    /// holds no more than half of what it has room for then rehashes in
    /// place, where a smaller one would grow. So a full cache allocates
    /// nothing however long it churns, and whether it grows no longer
    /// hangs on the map's random hash seed. A cache that never fills (most
    /// of a large network's) keeps the small index it grew to.
    roomy: bool,
    clock: u64,
    metrics: MetricsRegistry,
}

impl ShortcutCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache holding at most `capacity` keys (LRU replacement).
    pub fn with_capacity(capacity: usize) -> Self {
        ShortcutCache {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// A cache configured for `policy` (unbounded unless the policy is LRU).
    pub fn for_policy(policy: CachePolicy) -> Self {
        match policy.capacity() {
            Some(k) => Self::with_capacity(k),
            None => Self::new(),
        }
    }

    /// Attaches a metrics registry recording the `cache.*` series
    /// (hits, misses, inserts, evictions, purges).
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Builder-style [`set_metrics`](Self::set_metrics).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Inserts a shortcut `h(query) → target`, *replacing* any previous
    /// shortcut under the same key.
    ///
    /// A shortcut is "a direct mapping between a generic query and the
    /// descriptor of the target file" (§IV-C) — one descriptor per cached
    /// key, so a popular broad query always points at the most recently
    /// confirmed target and responses stay small. Returns `true` if the
    /// cache changed (new key, or a different target than before).
    /// Inserting into a full LRU cache evicts the least-recently-used key
    /// first; a capacity of 0 stores nothing.
    pub fn insert(&mut self, key: Key, target: IndexTarget) -> bool {
        if self.capacity == Some(0) {
            return false;
        }
        self.clock += 1;
        if let Some(&at) = self.index.get(&key) {
            let slot = &mut self.slots[at as usize];
            slot.last_used = self.clock;
            if slot.target == target {
                self.metrics.incr("cache.insert.unchanged");
                return false;
            }
            slot.target = target;
            self.metrics.incr("cache.insert.replaced");
            return true;
        }
        if let Some(cap) = self.capacity {
            while self.slots.len() >= cap {
                let evict = (0..self.slots.len())
                    .min_by_key(|&at| self.slots[at].last_used)
                    .expect("cache is non-empty");
                self.remove_at(evict);
                self.metrics.incr("cache.evictions");
            }
            // The slots take all the room they will need at once.
            self.slots.reserve_exact(cap - self.slots.len());
        }
        self.index.insert(key, self.slots.len() as u32);
        self.slots.push(Slot {
            key,
            target,
            last_used: self.clock,
        });
        if !self.roomy && self.capacity == Some(self.slots.len()) {
            self.index.reserve(self.slots.len());
            self.roomy = true;
        }
        self.metrics.incr("cache.insert.created");
        true
    }

    /// Looks up the shortcut for query key `key`, refreshing its LRU
    /// position. A hit is a one-element slice: the benchmark's layer
    /// timings read it through `<[_]>::len`, so it keeps this shape
    /// while [`peek`](Self::peek) hands out the one target.
    pub fn get(&mut self, key: &Key) -> Option<&[IndexTarget]> {
        self.clock += 1;
        let clock = self.clock;
        let hit = self.index.get(key).map(|&at| {
            let slot = &mut self.slots[at as usize];
            slot.last_used = clock;
            std::slice::from_ref(&slot.target)
        });
        self.metrics.incr(if hit.is_some() {
            "cache.get.hit"
        } else {
            "cache.get.miss"
        });
        hit
    }

    /// Looks up without touching recency (for inspection).
    pub fn peek(&self, key: &Key) -> Option<&IndexTarget> {
        let at = self.index.get(key)?;
        Some(&self.slots[*at as usize].target)
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when no shortcuts are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Is the cache at its capacity limit (always `false` when unbounded)?
    pub fn is_full(&self) -> bool {
        matches!(self.capacity, Some(cap) if self.slots.len() >= cap)
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Removes every shortcut.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
    }

    /// Drops every slot that points at `target`. Used to purge shortcuts
    /// that dangle after a file is unpublished.
    pub fn purge_target(&mut self, target: &IndexTarget) {
        let before = self.slots.len();
        let mut at = 0;
        while at < self.slots.len() {
            if self.slots[at].target == *target {
                self.remove_at(at);
            } else {
                at += 1;
            }
        }
        self.metrics
            .add("cache.purged_slots", (before - self.slots.len()) as u64);
    }

    /// Drops the slot at `at`, the last slot taking its place.
    fn remove_at(&mut self, at: usize) {
        let gone = self.slots.swap_remove(at);
        self.index.remove(&gone.key);
        if let Some(moved) = self.slots.get(at) {
            self.index.insert(moved.key, at as u32);
        }
    }
}

/// Every node's shortcut cache under one [`CachePolicy`]: the §IV-D model
/// of per-node state that the index service drives. It decides which
/// nodes of a successful path get a shortcut, creates a node's cache on
/// its first shortcut, and answers probes, purges and the Fig. 13/14 size
/// statistics. Counting what a probe or an install means for the lookup
/// (`index.*` series, trace events, [`Traffic`](crate::Traffic)) is the
/// caller's.
#[derive(Debug, Default)]
pub(crate) struct NodeCaches {
    policy: CachePolicy,
    caches: HashMap<NodeId, ShortcutCache>,
    /// Handed to every existing and future node cache.
    metrics: MetricsRegistry,
}

impl NodeCaches {
    /// No node caches yet; each is created on its first shortcut.
    pub(crate) fn new(policy: CachePolicy) -> Self {
        NodeCaches {
            policy,
            ..NodeCaches::default()
        }
    }

    /// The policy every node cache runs.
    pub(crate) fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Attaches `metrics` to every existing and future node cache.
    pub(crate) fn set_metrics(&mut self, metrics: MetricsRegistry) {
        for cache in self.caches.values_mut() {
            cache.set_metrics(metrics.clone());
        }
        self.metrics = metrics;
    }

    /// The steps of a successful lookup path that get a shortcut (§IV-C,
    /// §V-D): every step under `Multi`, the first node contacted under
    /// `Single` and `Lru(k)`, none under `None`.
    pub(crate) fn shortcut_steps<'p>(&self, path: &'p [(NodeId, Query)]) -> &'p [(NodeId, Query)] {
        if !self.policy.caches() {
            &[]
        } else if self.policy.caches_whole_path() {
            path
        } else {
            &path[..path.len().min(1)]
        }
    }

    /// The one target `node`'s cache holds for `key` (`None` when the
    /// node never cached anything), refreshing its LRU position. A hit is
    /// a refcount bump, not a copy.
    pub(crate) fn probe(&mut self, node: NodeId, key: &Key) -> Option<IndexTarget> {
        let hit = self.caches.get_mut(&node)?.get(key)?;
        hit.first().cloned()
    }

    /// Installs the shortcut `key → target` at `node`, creating the node's
    /// cache first if it has none. `true` if the cache changed.
    pub(crate) fn install(&mut self, node: NodeId, key: Key, target: &IndexTarget) -> bool {
        let (policy, metrics) = (self.policy, &self.metrics);
        self.caches
            .entry(node)
            .or_insert_with(|| ShortcutCache::for_policy(policy).with_metrics(metrics.clone()))
            .insert(key, target.clone())
    }

    /// Drops every shortcut to an unpublished file: those to its MSD and
    /// those to the file itself.
    pub(crate) fn purge(&mut self, msd: &Query, file: &str) {
        if self.caches.is_empty() {
            // Nothing cached anywhere: skip building the file target.
            return;
        }
        let targets = [
            IndexTarget::Query(msd.clone()),
            IndexTarget::File(file.into()),
        ];
        for cache in self.caches.values_mut() {
            for target in &targets {
                cache.purge_target(target);
            }
        }
    }

    /// Each of `nodes` with its cache size (0 for a node with no cache).
    pub(crate) fn sizes(&self, nodes: &[NodeId]) -> Vec<(NodeId, usize)> {
        nodes
            .iter()
            .map(|&n| (n, self.caches.get(&n).map_or(0, ShortcutCache::len)))
            .collect()
    }

    /// The fractions of `nodes` whose cache is at capacity and empty
    /// (`(full, empty)`; a node with no cache is empty).
    pub(crate) fn fill_fractions(&self, nodes: &[NodeId]) -> (f64, f64) {
        if nodes.is_empty() {
            return (0.0, 0.0);
        }
        let mut full = 0usize;
        let mut empty = 0usize;
        for n in nodes {
            match self.caches.get(n) {
                Some(c) if c.is_full() => full += 1,
                Some(c) if c.is_empty() => empty += 1,
                None => empty += 1,
                _ => {}
            }
        }
        (
            full as f64 / nodes.len() as f64,
            empty as f64 / nodes.len() as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> Key {
        Key::hash_of(s)
    }

    fn file(name: &str) -> IndexTarget {
        IndexTarget::File(name.into())
    }

    #[test]
    fn insert_and_get() {
        let mut c = ShortcutCache::new();
        assert!(c.insert(q("/a/b"), file("f1")));
        assert_eq!(c.get(&q("/a/b")).unwrap(), &[file("f1")]);
        assert_eq!(c.peek(&q("/a/b")), Some(&file("f1")));
        assert!(c.get(&q("/a/c")).is_none());
    }

    #[test]
    fn duplicate_target_not_added() {
        let mut c = ShortcutCache::new();
        assert!(c.insert(q("/a"), file("f")));
        assert!(!c.insert(q("/a"), file("f")));
        assert_eq!(c.peek(&q("/a")), Some(&file("f")));
    }

    #[test]
    fn same_key_replaces_target() {
        let mut c = ShortcutCache::new();
        assert!(c.insert(q("/a"), file("f1")));
        assert!(c.insert(q("/a"), file("f2")));
        // Replace-on-write: the slot holds only the newest descriptor.
        assert_eq!(c.peek(&q("/a")), Some(&file("f2")));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ShortcutCache::with_capacity(2);
        c.insert(q("/a"), file("fa"));
        c.insert(q("/b"), file("fb"));
        // Touch /a so /b becomes LRU.
        c.get(&q("/a"));
        c.insert(q("/c"), file("fc"));
        assert_eq!(c.peek(&q("/a")), Some(&file("fa")));
        assert_eq!(c.peek(&q("/b")), None, "LRU key should be evicted");
        assert_eq!(c.peek(&q("/c")), Some(&file("fc")));
        assert_eq!(c.len(), 2);
        assert!(c.is_full());
    }

    #[test]
    fn lru_insert_refreshes_recency() {
        let mut c = ShortcutCache::with_capacity(2);
        c.insert(q("/a"), file("fa"));
        c.insert(q("/b"), file("fb"));
        // Re-inserting /a (new target) refreshes it; /b is evicted next.
        c.insert(q("/a"), file("fa2"));
        c.insert(q("/c"), file("fc"));
        assert_eq!(c.peek(&q("/a")), Some(&file("fa2")));
        assert_eq!(c.peek(&q("/b")), None);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = ShortcutCache::with_capacity(0);
        assert!(!c.insert(q("/a"), file("f")));
        assert!(c.is_empty());
    }

    #[test]
    fn unbounded_never_full() {
        let mut c = ShortcutCache::new();
        for i in 0..100 {
            c.insert(q(&format!("/a/n{i}")), file("f"));
        }
        assert_eq!(c.len(), 100);
        assert!(!c.is_full());
        assert_eq!(c.capacity(), None);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn for_policy_configures_capacity() {
        assert_eq!(
            ShortcutCache::for_policy(CachePolicy::Lru(10)).capacity(),
            Some(10)
        );
        assert_eq!(
            ShortcutCache::for_policy(CachePolicy::Single).capacity(),
            None
        );
        assert_eq!(
            ShortcutCache::for_policy(CachePolicy::Multi).capacity(),
            None
        );
    }

    #[test]
    fn policy_helpers() {
        assert!(!CachePolicy::None.caches());
        assert!(CachePolicy::Multi.caches());
        assert!(CachePolicy::Multi.caches_whole_path());
        assert!(!CachePolicy::Single.caches_whole_path());
        assert_eq!(CachePolicy::Lru(30).capacity(), Some(30));
        assert_eq!(CachePolicy::Lru(30).to_string(), "lru-30");
        assert_eq!(CachePolicy::None.to_string(), "no-cache");
        assert_eq!(CachePolicy::default(), CachePolicy::None);
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut c = ShortcutCache::with_capacity(2);
        c.insert(q("/a"), file("fa"));
        c.insert(q("/b"), file("fb"));
        // Peeking /a must NOT protect it: /a stays LRU and is evicted.
        c.peek(&q("/a"));
        c.insert(q("/c"), file("fc"));
        assert_eq!(c.peek(&q("/a")), None);
        assert_eq!(c.peek(&q("/b")), Some(&file("fb")));
    }
}
