//! Load balancing: entry splitting and hot-key fan-out.
//!
//! The paper's hierarchical indexes deliberately concentrate broad queries
//! on few nodes — a popular conference key may accumulate thousands of
//! mappings, and a flash crowd hammers one title's lookup chain. This
//! module is the mitigation layer: [`SplitDht`] decorates any substrate
//! (like [`FaultyDht`](crate::faulty::FaultyDht) does for faults) and
//!
//! * **splits** an index entry into deterministic child *pages* once it
//!   outgrows a configurable byte budget ([`BalanceConfig::page_budget`]) —
//!   reads transparently reassemble, writes append to the open page;
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
//! A split entry with `n` pages is stored as:
//!
//! ```text
//! parent key  : v₁ … v_b, "P:n"            (first budget's worth + marker)
//! page_key(1) : v_{b+1} …                  (each page ≤ budget bytes,
//! …                                          except its last value)
//! page_key(n) : …                          (the open page; appends go here)
//! ```
//!
//! `page_key(parent, i) = h(parent_hex ∥ "#page-" ∥ i)` — deterministic,
//! so any client reassembles without coordination. The marker value
//! `P:n` can never collide with index values (their wire prefixes are
//! `Q:` and `F:`). A hot key's mirror copy of value `v` is stored under
//! the mirror node's own ring key as `M: ∥ parent ∥ v`, so several hot
//! keys mirrored onto one node never mix.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::api::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId};
use crate::key::Key;
use crate::placement;

/// Wire prefix of a split marker value (`P:<pages>` under the parent key).
pub const MARKER_PREFIX: &[u8] = b"P:";
/// Wire prefix of a mirrored hot-key value (`M:<20-byte parent><value>`).
pub const MIRROR_PREFIX: &[u8] = b"M:";

/// Tuning knobs of the balance layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalanceConfig {
    /// Split an entry once its stored bytes would exceed this budget
    /// (`0` disables splitting).
    pub page_budget: usize,
    /// Promote a key to hot once this many gets were observed on it
    /// (`0` disables fan-out).
    pub hot_threshold: u64,
    /// How many read mirrors a hot key gets (its next clockwise
    /// successors, primary excluded).
    pub fanout: usize,
}

impl BalanceConfig {
    /// Measure load only: no splitting, no fan-out — every operation
    /// passes through unchanged. The baseline half of the hot-spot
    /// exhibit runs with this.
    pub fn observe_only() -> BalanceConfig {
        BalanceConfig {
            page_budget: 0,
            hot_threshold: 0,
            fanout: 0,
        }
    }

    /// Both mitigations on.
    pub fn mitigating(page_budget: usize, hot_threshold: u64, fanout: usize) -> BalanceConfig {
        BalanceConfig {
            page_budget,
            hot_threshold,
            fanout,
        }
    }

    /// `true` when neither mitigation can trigger.
    pub fn is_observe_only(&self) -> bool {
        self.page_budget == 0 && (self.hot_threshold == 0 || self.fanout == 0)
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

/// Bookkeeping for one split entry.
#[derive(Debug, Clone)]
struct SplitState {
    /// Pages `1..=pages` exist; `pages` is the open page.
    pages: u32,
    /// Bytes currently stored in the open page.
    open_bytes: usize,
    /// Total logical bytes across parent and all pages.
    total_bytes: usize,
    /// Every logical value, for set-semantics checks across pages.
    members: HashSet<Bytes>,
}

/// The deterministic child key of page `page` (1-based) of `parent`.
pub fn page_key(parent: &Key, page: u32) -> Key {
    let hex = parent.to_hex();
    let mut buf = [0u8; 64];
    let mut at = 0;
    for chunk in [hex.as_bytes(), b"#page-"] {
        buf[at..at + chunk.len()].copy_from_slice(chunk);
        at += chunk.len();
    }
    let mut page = page;
    let digits_start = at;
    loop {
        buf[at] = b'0' + (page % 10) as u8;
        at += 1;
        page /= 10;
        if page == 0 {
            break;
        }
    }
    buf[digits_start..at].reverse();
    Key::hash_of_bytes(&buf[..at])
}

/// Encodes a split marker value `P:<pages>`.
fn encode_marker(pages: u32) -> Bytes {
    Bytes::from(format!("P:{pages}"))
}

/// Decodes a split marker value, if `value` is one.
fn decode_marker(value: &[u8]) -> Option<u32> {
    let digits = value.strip_prefix(MARKER_PREFIX)?;
    if digits.is_empty() || digits.len() > 9 {
        return None;
    }
    let text = std::str::from_utf8(digits).ok()?;
    text.parse().ok()
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

/// The load-balance decorator: entry splitting, hot-key fan-out, and
/// per-node load measurement over any [`Dht`].
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use p2p_index_dht::{BalanceConfig, Dht, Key, RingDht, SplitDht};
///
/// let ring = RingDht::with_named_nodes(32);
/// let mut dht = SplitDht::new(ring, BalanceConfig::mitigating(64, 0, 0));
/// let key = Key::hash_of("popular");
/// for i in 0..20 {
///     dht.put(key, Bytes::from(format!("value-number-{i:04}")));
/// }
/// // The entry outgrew its 64-byte budget and was split into pages on
/// // other nodes, but reads reassemble the full value set.
/// assert_eq!(dht.get(&key).len(), 20);
/// assert!(dht.split_key_count() > 0);
/// ```
pub struct SplitDht<D> {
    inner: D,
    config: BalanceConfig,
    /// Known byte size of unsplit entries (learned by probe or put).
    sizes: HashMap<Key, usize>,
    /// Keys that have been split into pages.
    splits: HashMap<Key, SplitState>,
    /// Gets observed per key, for hot promotion.
    get_counts: HashMap<Key, u64>,
    /// Hot keys and their mirror node keys (promotion order).
    mirrors: HashMap<Key, Vec<Key>>,
    /// Rotation counter for mirror reads.
    rotation: u64,
    /// Per-node load observed across every physical operation issued.
    load: HashMap<NodeId, NodeLoad>,
    promotions: u64,
    splits_started: u64,
    pages_opened: u64,
    reassembled_gets: u64,
    mirror_reads: u64,
    metrics: MetricsRegistry,
}

impl<D: Dht> SplitDht<D> {
    /// Wraps `inner` under `config`.
    pub fn new(inner: D, config: BalanceConfig) -> SplitDht<D> {
        SplitDht {
            inner,
            config,
            sizes: HashMap::new(),
            splits: HashMap::new(),
            get_counts: HashMap::new(),
            mirrors: HashMap::new(),
            rotation: 0,
            load: HashMap::new(),
            promotions: 0,
            splits_started: 0,
            pages_opened: 0,
            reassembled_gets: 0,
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

    /// Number of keys currently split into pages.
    pub fn split_key_count(&self) -> usize {
        self.splits.len()
    }

    /// Number of keys promoted to hot (fanned out to mirrors).
    pub fn hot_key_count(&self) -> usize {
        self.mirrors.len()
    }

    /// Counters of the balance machinery:
    /// `(splits, pages_opened, promotions, reassembled_gets, mirror_reads)`.
    pub fn balance_stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.splits_started,
            self.pages_opened,
            self.promotions,
            self.reassembled_gets,
            self.mirror_reads,
        )
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

    /// Reads the full logical value set of `key` from its primary
    /// location (parent plus pages), stripping the marker. Also returns
    /// whether the entry was split.
    fn read_logical(&mut self, key: Key) -> Result<(Vec<Bytes>, bool), DhtError> {
        let mut values = self.raw_get(key)?;
        let mut pages = None;
        values.retain(|v| match decode_marker(v) {
            Some(n) => {
                pages = Some(n);
                false
            }
            None => true,
        });
        let Some(pages) = pages else {
            return Ok((values, false));
        };
        for page in 1..=pages {
            let mut chunk = self.raw_get(page_key(&key, page))?;
            values.append(&mut chunk);
        }
        self.reassembled_gets += 1;
        self.metrics.incr("load.reassembled_gets");
        Ok((values, true))
    }

    /// Makes sure the split/size bookkeeping for `key` reflects storage.
    /// Fresh decorators over a pre-populated substrate (e.g. a new client
    /// of a networked cluster) discover existing splits here.
    fn ensure_state(&mut self, key: Key) -> Result<(), DhtError> {
        if self.splits.contains_key(&key) || self.sizes.contains_key(&key) {
            return Ok(());
        }
        let parent = self.raw_get(key)?;
        let pages = parent.iter().find_map(|v| decode_marker(v));
        match pages {
            None => {
                let bytes = parent.iter().map(Bytes::len).sum();
                self.sizes.insert(key, bytes);
            }
            Some(pages) => {
                let mut members: HashSet<Bytes> = HashSet::new();
                let mut total = 0usize;
                for v in parent {
                    if decode_marker(&v).is_none() {
                        total += v.len();
                        members.insert(v);
                    }
                }
                let mut open_bytes = 0;
                for page in 1..=pages {
                    let chunk = self.raw_get(page_key(&key, page))?;
                    open_bytes = chunk.iter().map(Bytes::len).sum();
                    for v in chunk {
                        total += v.len();
                        members.insert(v);
                    }
                }
                self.splits.insert(
                    key,
                    SplitState {
                        pages,
                        open_bytes,
                        total_bytes: total,
                        members,
                    },
                );
            }
        }
        Ok(())
    }

    /// Promotes `key` to hot: mirror its full logical value set onto its
    /// next `fanout` clockwise successors (primary excluded), per the
    /// shared [`placement::replica_keys`] rule.
    fn promote(&mut self, key: Key) -> Result<(), DhtError> {
        let (values, _) = self.read_logical(key)?;
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

    /// The get path: hot-key rotation, then primary with reassembly.
    fn do_get(&mut self, key: Key) -> Result<DhtResponse, DhtError> {
        if self.config.hot_threshold > 0 && self.config.fanout > 0 {
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
                    return Ok(DhtResponse::Values(unwrap_mirror(&key, stored)));
                }
            }
        }
        let (values, _) = self.read_logical(key)?;
        Ok(DhtResponse::Values(values))
    }

    /// The put path: set semantics across pages, append to the open page,
    /// split on budget overflow, propagate to mirrors.
    fn do_put(&mut self, key: Key, value: Bytes) -> Result<DhtResponse, DhtError> {
        let stored = if self.config.page_budget == 0 {
            self.raw_put(key, value.clone())?
        } else {
            self.ensure_state(key)?;
            if let Some(state) = self.splits.get(&key) {
                if state.members.contains(&value) {
                    return Ok(DhtResponse::Stored(false));
                }
                let (open_page, roll_over) = {
                    let state = self.splits.get(&key).expect("present above");
                    (state.pages, state.open_bytes >= self.config.page_budget)
                };
                let target_page = if roll_over {
                    // Open a fresh page and bump the parent's marker.
                    self.raw_remove(key, encode_marker(open_page))?;
                    self.raw_put(key, encode_marker(open_page + 1))?;
                    self.pages_opened += 1;
                    self.metrics.incr("load.pages_opened");
                    open_page + 1
                } else {
                    open_page
                };
                let stored = self.raw_put(page_key(&key, target_page), value.clone())?;
                let state = self.splits.get_mut(&key).expect("present above");
                if roll_over {
                    state.pages = target_page;
                    state.open_bytes = 0;
                }
                if stored {
                    state.open_bytes += value.len();
                    state.total_bytes += value.len();
                    state.members.insert(value.clone());
                }
                stored
            } else {
                let known = self.sizes.get(&key).copied().unwrap_or(0);
                if known + value.len() > self.config.page_budget {
                    // The entry outgrows its budget: split. Existing
                    // values stay on the parent (they are within budget);
                    // the new value opens page 1.
                    let parent_values = self.raw_get(key)?;
                    if parent_values.iter().any(|v| v == &value) {
                        return Ok(DhtResponse::Stored(false));
                    }
                    let mut members: HashSet<Bytes> = parent_values.into_iter().collect();
                    self.raw_put(key, encode_marker(1))?;
                    let stored = self.raw_put(page_key(&key, 1), value.clone())?;
                    members.insert(value.clone());
                    self.sizes.remove(&key);
                    self.splits.insert(
                        key,
                        SplitState {
                            pages: 1,
                            open_bytes: value.len(),
                            total_bytes: known + value.len(),
                            members,
                        },
                    );
                    self.splits_started += 1;
                    self.metrics.incr("load.splits");
                    stored
                } else {
                    let stored = self.raw_put(key, value.clone())?;
                    if stored {
                        *self.sizes.entry(key).or_insert(0) += value.len();
                    }
                    stored
                }
            }
        };
        if stored {
            if let Some(mirror_keys) = self.mirrors.get(&key) {
                for mk in mirror_keys.clone() {
                    self.raw_put(mk, wrap_mirror(&key, &value))?;
                }
            }
            let logical = self
                .splits
                .get(&key)
                .map(|s| s.total_bytes)
                .or_else(|| self.sizes.get(&key).copied());
            if let Some(bytes) = logical {
                self.metrics.observe("load.entry_bytes", bytes as u64);
            }
        }
        Ok(DhtResponse::Stored(stored))
    }

    /// The remove path: parent first, then pages; mirrors follow.
    fn do_remove(&mut self, key: Key, value: Bytes) -> Result<DhtResponse, DhtError> {
        let mut removed = self.raw_remove(key, value.clone())?;
        if self.config.page_budget > 0 {
            self.ensure_state(key)?;
        }
        if let Some(state) = self.splits.get(&key) {
            if !removed {
                for page in 1..=state.pages {
                    if self.raw_remove(page_key(&key, page), value.clone())? {
                        removed = true;
                        break;
                    }
                }
            }
            if removed {
                let state = self.splits.get_mut(&key).expect("present above");
                state.members.remove(&value);
                state.total_bytes = state.total_bytes.saturating_sub(value.len());
            }
        } else if removed {
            if let Some(size) = self.sizes.get_mut(&key) {
                *size = size.saturating_sub(value.len());
            }
        }
        if removed {
            if let Some(mirror_keys) = self.mirrors.get(&key) {
                for mk in mirror_keys.clone() {
                    self.raw_remove(mk, wrap_mirror(&key, &value))?;
                }
            }
        }
        Ok(DhtResponse::Removed(removed))
    }

    /// Read-only reassembly for the `&self` convenience [`Dht::get`]:
    /// identical value set to [`Self::do_get`]'s primary path, without
    /// load accounting or hot promotion.
    fn get_readonly(&self, key: &Key) -> Vec<Bytes> {
        let mut values = self.inner.get(key);
        let mut pages = None;
        values.retain(|v| match decode_marker(v) {
            Some(n) => {
                pages = Some(n);
                false
            }
            None => true,
        });
        if let Some(pages) = pages {
            for page in 1..=pages {
                values.extend(self.inner.get(&page_key(key, page)));
            }
        }
        values
    }
}

impl<D: Dht> Dht for SplitDht<D> {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        match op {
            DhtOp::NodeFor(_) => self.inner.execute(op),
            DhtOp::Get(key) => {
                if self.config.is_observe_only() {
                    self.note(&key, None);
                    return self.inner.execute(DhtOp::Get(key));
                }
                self.do_get(key)
            }
            // The digest of the reassembled entry, whatever its layout.
            DhtOp::GetDigest(key) => self
                .execute(DhtOp::Get(key))
                .map(|resp| DhtResponse::digest_of(&key, &resp.into_values())),
            DhtOp::GetIfChanged { key, seen } => {
                if self.config.is_observe_only() {
                    self.note(&key, None);
                    return self.inner.execute(DhtOp::GetIfChanged { key, seen });
                }
                // A split entry is only whole once reassembled, so it is
                // compared after the read, not in place.
                self.do_get(key)
                    .map(|resp| DhtResponse::if_changed(&key, seen, &resp.into_values()))
            }
            DhtOp::Put { key, value } => {
                if self.config.is_observe_only() {
                    self.note(&key, Some(value.len()));
                    return self.inner.execute(DhtOp::Put { key, value });
                }
                self.do_put(key, value)
            }
            DhtOp::Remove { key, value } => {
                if self.config.is_observe_only() {
                    self.note(&key, Some(0));
                    return self.inner.execute(DhtOp::Remove { key, value });
                }
                self.do_remove(key, value)
            }
        }
    }

    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        // Observe-only: track load per op, then hand the whole batch to
        // the substrate so a networked inner keeps its pipelining.
        if self.config.is_observe_only() {
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
            return self.inner.execute_many(ops);
        }
        // Split-aware batched reads: a read-only batch goes to the
        // substrate as one wave, marker responses trigger a second,
        // batched page-fetch wave, and page values are spliced back in —
        // two pipelined frame pairs over the wire instead of a round
        // trip per page. Batches containing writes or conditional reads
        // (or touching hot keys, whose rotation is per-op state) fall back
        // to the unary path op by op.
        let read_only = ops.iter().all(|op| match op {
            DhtOp::Get(key) => !self.mirrors.contains_key(key) && self.config.hot_threshold == 0,
            DhtOp::NodeFor(_) => true,
            _ => false,
        });
        if !read_only {
            return ops.into_iter().map(|op| self.execute(op)).collect();
        }
        for op in &ops {
            if let DhtOp::Get(key) = op {
                self.note(key, None);
            }
        }
        let keys: Vec<Option<Key>> = ops
            .iter()
            .map(|op| match op {
                DhtOp::Get(key) => Some(*key),
                _ => None,
            })
            .collect();
        let mut results = self.inner.execute_many(ops);
        // Find split entries in the first wave and fetch all their pages
        // as one follow-up batch.
        let mut follow_ups: Vec<DhtOp> = Vec::new();
        let mut splices: Vec<(usize, u32, usize)> = Vec::new(); // (result idx, pages, follow-up start)
        for (i, result) in results.iter_mut().enumerate() {
            let Ok(DhtResponse::Values(values)) = result else {
                continue;
            };
            let mut pages = None;
            values.retain(|v| match decode_marker(v) {
                Some(n) => {
                    pages = Some(n);
                    false
                }
                None => true,
            });
            if let (Some(pages), Some(key)) = (pages, keys[i]) {
                let start = follow_ups.len();
                for page in 1..=pages {
                    let pk = page_key(&key, page);
                    self.note(&pk, None);
                    follow_ups.push(DhtOp::Get(pk));
                }
                splices.push((i, pages, start));
            }
        }
        if !follow_ups.is_empty() {
            let page_results = self.inner.execute_many(follow_ups);
            for (at, pages, start) in splices {
                let mut gathered: Vec<Bytes> = Vec::new();
                let mut failed = None;
                for offset in 0..pages as usize {
                    match &page_results[start + offset] {
                        Ok(resp) => gathered.extend(resp.clone().into_values()),
                        Err(e) => {
                            failed = Some(*e);
                            break;
                        }
                    }
                }
                match failed {
                    Some(e) => results[at] = Err(e),
                    None => {
                        if let Ok(DhtResponse::Values(values)) = &mut results[at] {
                            values.append(&mut gathered);
                        }
                    }
                }
                self.reassembled_gets += 1;
                self.metrics.incr("load.reassembled_gets");
            }
        }
        results
    }

    fn node_for(&self, key: &Key) -> Option<NodeId> {
        self.inner.node_for(key)
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes()
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        if self.config.is_observe_only() {
            return self.inner.get(key);
        }
        self.get_readonly(key)
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

    fn split_dht(budget: usize) -> SplitDht<RingDht> {
        SplitDht::new(
            RingDht::with_named_nodes(64),
            BalanceConfig::mitigating(budget, 0, 0),
        )
    }

    #[test]
    fn page_keys_are_deterministic_and_distinct() {
        let parent = Key::hash_of("parent");
        assert_eq!(page_key(&parent, 1), page_key(&parent, 1));
        assert_ne!(page_key(&parent, 1), page_key(&parent, 2));
        assert_ne!(page_key(&parent, 1), parent);
        let other = Key::hash_of("other");
        assert_ne!(page_key(&parent, 1), page_key(&other, 1));
        // Multi-digit page numbers keep distinct keys.
        assert_ne!(page_key(&parent, 12), page_key(&parent, 21));
    }

    #[test]
    fn marker_roundtrip_and_rejection() {
        assert_eq!(decode_marker(&encode_marker(7)), Some(7));
        assert_eq!(decode_marker(&encode_marker(123_456)), Some(123_456));
        assert_eq!(decode_marker(b"P:"), None);
        assert_eq!(decode_marker(b"P:x"), None);
        assert_eq!(decode_marker(b"Q:/article"), None);
        assert_eq!(decode_marker(b"F:file.pdf"), None);
    }

    #[test]
    fn small_entry_is_not_split() {
        let mut dht = split_dht(1024);
        let key = Key::hash_of("k");
        assert!(dht.put(key, value(1)));
        assert!(!dht.put(key, value(1)), "duplicate suppressed");
        assert_eq!(dht.get(&key).len(), 1);
        assert_eq!(dht.split_key_count(), 0);
    }

    #[test]
    fn overgrown_entry_splits_and_reassembles() {
        let mut dht = split_dht(100);
        let key = Key::hash_of("hot-entry");
        for i in 0..40 {
            assert!(dht.put(key, value(i)), "value {i} must be new");
        }
        assert_eq!(dht.split_key_count(), 1);
        let values = dht.get(&key);
        assert_eq!(values.len(), 40, "reassembled read returns all values");
        let mut expected: Vec<Bytes> = (0..40).map(value).collect();
        let mut got = values.clone();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        // Raw parent storage holds the marker, not all 40 values.
        assert!(dht.inner().get(&key).len() < 40);
    }

    #[test]
    fn duplicates_are_suppressed_across_pages() {
        let mut dht = split_dht(64);
        let key = Key::hash_of("k");
        for i in 0..20 {
            dht.put(key, value(i));
        }
        for i in 0..20 {
            assert!(!dht.put(key, value(i)), "value {i} already present");
        }
        assert_eq!(dht.get(&key).len(), 20);
    }

    #[test]
    fn physical_pages_respect_the_budget() {
        let budget = 100;
        let mut dht = split_dht(budget);
        let key = Key::hash_of("k");
        let max_len = (0..60).map(|i| value(i).len()).max().unwrap();
        for i in 0..60 {
            dht.put(key, value(i));
        }
        let state = dht.splits.get(&key).expect("split");
        for page in 1..=state.pages {
            let bytes: usize = dht
                .inner()
                .get(&page_key(&key, page))
                .iter()
                .map(Bytes::len)
                .sum();
            assert!(
                bytes <= budget + max_len,
                "page {page} holds {bytes} bytes (budget {budget})"
            );
        }
    }

    #[test]
    fn remove_works_across_pages() {
        let mut dht = split_dht(80);
        let key = Key::hash_of("k");
        for i in 0..30 {
            dht.put(key, value(i));
        }
        for i in 0..30 {
            assert!(dht.remove(&key, &value(i)), "value {i} must be removable");
        }
        assert!(dht.get(&key).is_empty());
        assert!(!dht.remove(&key, &value(0)), "already gone");
    }

    #[test]
    fn fresh_decorator_discovers_existing_split() {
        let mut dht = split_dht(100);
        let key = Key::hash_of("k");
        for i in 0..40 {
            dht.put(key, value(i));
        }
        // A second decorator over the same storage (like a new client of
        // a shared cluster) reassembles and appends correctly.
        let ring = dht.inner().clone();
        let mut second = SplitDht::new(ring, BalanceConfig::mitigating(100, 0, 0));
        assert_eq!(second.get(&key).len(), 40);
        assert!(!second.put(key, value(7)), "dedup against discovered pages");
        assert!(second.put(key, value(100)));
        assert_eq!(second.get(&key).len(), 41);
    }

    #[test]
    fn hot_key_fans_out_and_rotates() {
        let mut dht = SplitDht::new(
            RingDht::with_named_nodes(64),
            BalanceConfig::mitigating(0, 4, 3),
        );
        let key = Key::hash_of("flash-crowd-title");
        dht.put(key, value(1));
        dht.put(key, value(2));
        for _ in 0..40 {
            let got = dht.execute(DhtOp::Get(key)).unwrap().into_values();
            assert_eq!(got.len(), 2, "every rotated read sees the full entry");
        }
        assert_eq!(dht.hot_key_count(), 1);
        let (_, _, promotions, _, mirror_reads) = dht.balance_stats();
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
            BalanceConfig::mitigating(0, 2, 2),
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
        assert_eq!(observed.split_key_count(), 0);
        let total: u64 = observed.load().values().map(|l| l.puts).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn batched_reads_reassemble_split_entries() {
        let mut dht = split_dht(100);
        let k1 = Key::hash_of("big");
        let k2 = Key::hash_of("small");
        for i in 0..40 {
            dht.put(k1, value(i));
        }
        dht.put(k2, value(999));
        let results = dht.execute_many(vec![DhtOp::Get(k1), DhtOp::Get(k2)]);
        assert_eq!(results[0].clone().unwrap().into_values().len(), 40);
        assert_eq!(results[1].clone().unwrap().into_values().len(), 1);
    }

    #[test]
    fn batched_unary_parity_on_split_entries() {
        let build = || {
            let mut dht = split_dht(100);
            let keys: Vec<Key> = (0..4).map(|i| Key::hash_of(&format!("k{i}"))).collect();
            for (at, key) in keys.iter().enumerate() {
                for i in 0..(10 + at * 12) {
                    dht.put(*key, value(i));
                }
            }
            (dht, keys)
        };
        let (mut batched, keys) = build();
        let (mut unary, _) = build();
        let ops: Vec<DhtOp> = keys.iter().map(|k| DhtOp::Get(*k)).collect();
        let batch_results = batched.execute_many(ops.clone());
        let unary_results: Vec<_> = ops.into_iter().map(|op| unary.execute(op)).collect();
        for (b, u) in batch_results.iter().zip(&unary_results) {
            let mut bv = b.clone().unwrap().into_values();
            let mut uv = u.clone().unwrap().into_values();
            bv.sort();
            uv.sort();
            assert_eq!(bv, uv);
        }
    }

    #[test]
    fn load_attributes_spread_after_split() {
        // Splitting moves page storage to other nodes: put load lands on
        // more distinct nodes than without a budget.
        let run = |config: BalanceConfig| {
            let mut dht = SplitDht::new(RingDht::with_named_nodes(128), config);
            let key = Key::hash_of("one-giant-entry");
            for i in 0..200 {
                dht.put(key, value(i));
            }
            dht.load().values().filter(|l| l.puts > 0).count()
        };
        let baseline = run(BalanceConfig::observe_only());
        let mitigated = run(BalanceConfig::mitigating(256, 0, 0));
        assert_eq!(baseline, 1, "unsplit entry loads one node");
        assert!(mitigated > 3, "pages spread puts over {mitigated} nodes");
    }
}
