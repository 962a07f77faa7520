//! The substrate-agnostic DHT interface the indexing layer builds on.
//!
//! The paper stresses that its indexing techniques "can be layered on top of
//! an arbitrary P2P DHT infrastructure". [`Dht`] captures exactly the two
//! services the indexes need — key→node resolution and multi-value
//! key→value storage — so the index layer compiles against this trait and
//! runs unchanged over the full [Chord](crate::chord) protocol simulation or
//! the fast [consistent-hash ring](crate::ring).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::digest;
use crate::key::Key;

/// Identifier of a peer node.
///
/// In Chord, node identifiers live in the same 160-bit circle as data keys;
/// a node is responsible for every key in `(predecessor, self]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(Key);

impl NodeId {
    /// Wraps a raw key as a node identifier.
    pub fn from_key(key: Key) -> NodeId {
        NodeId(key)
    }

    /// Derives a node identifier by hashing a node name (e.g. an address).
    pub fn hash_of(name: &str) -> NodeId {
        NodeId(Key::hash_of(name))
    }

    /// The position of this node on the identifier circle.
    pub fn key(&self) -> &Key {
        &self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Node{:?}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node:{}", &self.0.to_hex()[..12])
    }
}

impl From<Key> for NodeId {
    fn from(key: Key) -> Self {
        NodeId(key)
    }
}

/// Counters describing the work a substrate performed.
///
/// `messages` counts simulated network messages (RPC request/response pairs
/// count as two); `lookups` counts key resolutions; `hops` accumulates
/// routing hops so `hops / lookups` is the mean path length — for Chord this
/// should concentrate around `½·log₂(N)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DhtStats {
    /// Total simulated messages exchanged.
    pub messages: u64,
    /// Total key lookups performed.
    pub lookups: u64,
    /// Total routing hops across all lookups.
    pub hops: u64,
}

impl DhtStats {
    /// Mean hops per lookup, or 0.0 when no lookup happened.
    pub fn mean_hops(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hops as f64 / self.lookups as f64
        }
    }
}

/// A single DHT operation, the request half of the wire protocol.
///
/// Every mutation and lookup the index layer issues is expressed as one of
/// these, so a wrapper substrate (e.g. [`FaultyDht`](crate::faulty::FaultyDht))
/// can intercept, drop, or retry whole operations uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtOp {
    /// Resolve the node responsible for a key.
    NodeFor(Key),
    /// Register a value under a key (multi-value, duplicates suppressed).
    Put {
        /// Storage key.
        key: Key,
        /// Value to register.
        value: Bytes,
    },
    /// Fetch every value registered under a key.
    Get(Key),
    /// Fetch the digest of the values registered under a key instead of
    /// the values: what a replica is asked when another replica already
    /// ships the list, so a quorum read moves each value once. Answered
    /// with [`DhtResponse::Digest`] over exactly what [`DhtOp::Get`] would
    /// return. The index layer never issues it; the networked client does.
    GetDigest(Key),
    /// A conditional [`DhtOp::Get`]: the caller already holds the entry as
    /// it was when its values digested to `seen`, the `(count, sum)` pair
    /// of [`DhtResponse::digest_of`]. Answered with that same
    /// [`DhtResponse::Digest`] while the values still digest to it, and
    /// with [`DhtResponse::Values`] exactly as `Get` would answer
    /// otherwise. Routed and accounted exactly like `Get`.
    GetIfChanged {
        /// Storage key.
        key: Key,
        /// The digest of the values the caller holds.
        seen: (u32, u64),
    },
    /// Remove one specific value registered under a key.
    Remove {
        /// Storage key.
        key: Key,
        /// Exact value to remove.
        value: Bytes,
    },
}

impl DhtOp {
    /// The key this operation addresses.
    pub fn key(&self) -> &Key {
        match self {
            DhtOp::NodeFor(key) | DhtOp::Get(key) | DhtOp::GetDigest(key) => key,
            DhtOp::Put { key, .. } | DhtOp::Remove { key, .. } => key,
            DhtOp::GetIfChanged { key, .. } => key,
        }
    }

    /// A stable short name for this operation kind, used as a metrics
    /// label suffix (`dht.ops.put`, see [`kind_counter`]) and in trace
    /// events.
    pub fn kind(&self) -> &'static str {
        match self {
            DhtOp::NodeFor(_) => "node_for",
            DhtOp::Put { .. } => "put",
            DhtOp::Get(_) => "get",
            DhtOp::GetDigest(_) => "get_digest",
            DhtOp::GetIfChanged { .. } => "get_if_changed",
            DhtOp::Remove { .. } => "remove",
        }
    }
}

/// The metric families that keep one counter per operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFamily {
    /// `dht.ops.{kind}` — substrate-level, fed by [`record_op`].
    Dht,
    /// `net.ops.{kind}` — storage ops a networked client routed.
    Client,
    /// `net.server.ops.{kind}` — ops a `dhtd` server answered.
    Server,
}

/// Every per-kind counter name, spelled out once: `(kind, [dht, client,
/// server])` in [`OpFamily`] order. Static so that counting an op never
/// formats (or allocates) a name, with metrics on or off.
const KIND_COUNTERS: [(&str, [&str; 3]); 6] = [
    (
        "node_for",
        [
            "dht.ops.node_for",
            "net.ops.node_for",
            "net.server.ops.node_for",
        ],
    ),
    ("put", ["dht.ops.put", "net.ops.put", "net.server.ops.put"]),
    ("get", ["dht.ops.get", "net.ops.get", "net.server.ops.get"]),
    (
        "get_digest",
        [
            "dht.ops.get_digest",
            "net.ops.get_digest",
            "net.server.digest_gets",
        ],
    ),
    (
        "get_if_changed",
        [
            "dht.ops.get_if_changed",
            "net.ops.get_if_changed",
            "net.server.ops.get_if_changed",
        ],
    ),
    (
        "remove",
        ["dht.ops.remove", "net.ops.remove", "net.server.ops.remove"],
    ),
];

/// The counter `family` keeps for operations of `kind` (a
/// [`DhtOp::kind`] name; anything else counts under `….other`).
pub fn kind_counter(family: OpFamily, kind: &str) -> &'static str {
    let names = KIND_COUNTERS.iter().find(|(k, _)| *k == kind).map_or(
        ["dht.ops.other", "net.ops.other", "net.server.ops.other"],
        |(_, names)| *names,
    );
    names[family as usize]
}

/// The ring accounting convention, in its one home: every substrate that
/// resolves a key without routed hops ([`RingDht`](crate::ring::RingDht),
/// [`ShardedDht`](crate::sharded::ShardedDht), the networked client)
/// counts a storage operation through [`PairCounters::record_pair`], so
/// their [`DhtStats`] agree by construction rather than by three copies
/// of the same arithmetic.
///
/// Atomic so shared-reference read paths (`Dht::get`, concurrent
/// connection workers) can account like everything else.
#[derive(Debug, Default)]
pub struct PairCounters {
    lookups: AtomicU64,
    messages: AtomicU64,
}

impl PairCounters {
    /// Accounts one completed request/response pair of a storage
    /// operation: +2 messages, and +1 lookup when a `put` or `get` (plain
    /// or conditional) succeeded. `NodeFor` is free and pairs that never
    /// completed (no live node, no response frame) count nothing — callers
    /// simply do not call this for them.
    #[inline]
    pub fn record_pair(&self, kind: &str, ok: bool) {
        self.messages.fetch_add(2, Ordering::Relaxed);
        if ok && matches!(kind, "put" | "get" | "get_if_changed") {
            self.lookups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The counters as [`DhtStats`] (`hops` is always 0: no routing).
    pub fn stats(&self) -> DhtStats {
        DhtStats {
            messages: self.messages.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            hops: 0,
        }
    }
}

impl Clone for PairCounters {
    fn clone(&self) -> Self {
        PairCounters {
            lookups: AtomicU64::new(self.lookups.load(Ordering::Relaxed)),
            messages: AtomicU64::new(self.messages.load(Ordering::Relaxed)),
        }
    }
}

/// The response half of the wire protocol: one variant per [`DhtOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtResponse {
    /// Answer to [`DhtOp::NodeFor`].
    Node(NodeId),
    /// Answer to [`DhtOp::Put`]: `true` if the value was newly stored.
    Stored(bool),
    /// Answer to [`DhtOp::Get`], and to a [`DhtOp::GetIfChanged`] whose
    /// entry changed.
    Values(Vec<Bytes>),
    /// Answer to [`DhtOp::Remove`]: `true` if the value was present.
    Removed(bool),
    /// Answer to [`DhtOp::GetDigest`], and to a [`DhtOp::GetIfChanged`]
    /// whose entry did not change: how many values the key holds and
    /// their order-independent hash ([`DhtResponse::digest_of`]). Two
    /// replicas answer alike exactly when they hold the same value set,
    /// in whatever order (up to a 64-bit collision).
    Digest {
        /// Number of values registered under the key.
        count: u32,
        /// [`values_digest`](digest::values_digest) of those values.
        sum: u64,
    },
}

impl DhtResponse {
    /// What a [`DhtOp::GetDigest`] of `key` answers when a [`DhtOp::Get`]
    /// of it would answer `values` — the one definition a store computes
    /// it by, the in-process substrates derive it from their own `get`
    /// by, and a quorum reader checks a replica's digest against the
    /// values another replica sent by.
    pub fn digest_of(key: &Key, values: &[Bytes]) -> DhtResponse {
        let (count, sum) = Self::seen_of(key, values);
        DhtResponse::Digest { count, sum }
    }

    /// The `(count, sum)` pair of [`DhtResponse::digest_of`]: what a
    /// reader keeps to ask [`DhtOp::GetIfChanged`] with.
    pub fn seen_of(key: &Key, values: &[Bytes]) -> (u32, u64) {
        let sum = digest::values_digest(digest::STORED, key, values.iter());
        (values.len() as u32, sum)
    }

    /// What a [`DhtOp::GetIfChanged`] of `key` against `seen` answers when
    /// a [`DhtOp::Get`] of it would answer `values`: the digest alone when
    /// they still digest to `seen` — compared in place, no list built —
    /// and a copy of the list otherwise.
    pub fn if_changed(key: &Key, seen: (u32, u64), values: &[Bytes]) -> DhtResponse {
        if values.len() == seen.0 as usize && Self::seen_of(key, values) == seen {
            DhtResponse::Digest {
                count: seen.0,
                sum: seen.1,
            }
        } else {
            DhtResponse::Values(values.to_vec())
        }
    }

    /// Unwraps a [`DhtResponse::Node`], or `None` for other variants.
    pub fn into_node(self) -> Option<NodeId> {
        match self {
            DhtResponse::Node(n) => Some(n),
            _ => None,
        }
    }

    /// Unwraps a [`DhtResponse::Stored`] flag (`false` for other variants).
    pub fn into_stored(self) -> bool {
        matches!(self, DhtResponse::Stored(true))
    }

    /// Unwraps [`DhtResponse::Values`] (empty for other variants).
    pub fn into_values(self) -> Vec<Bytes> {
        match self {
            DhtResponse::Values(v) => v,
            _ => Vec::new(),
        }
    }

    /// Unwraps a [`DhtResponse::Removed`] flag (`false` for other variants).
    pub fn into_removed(self) -> bool {
        matches!(self, DhtResponse::Removed(true))
    }
}

/// Why a DHT operation failed.
///
/// Real substrates lose messages and churn nodes; this is the error surface
/// the index layer programs against. [`DhtError::is_transient`] separates
/// faults worth retrying (a lost message) from structural conditions that a
/// retry cannot fix.
///
/// Each variant has a stable wire code (see [`DhtError::wire_code`]) so
/// the error surface can cross process boundaries; the enum is
/// `#[non_exhaustive]` and codes this build does not know decode into the
/// [`DhtError::Unknown`] catch-all instead of a decode failure, so old
/// clients keep working against newer servers.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhtError {
    /// The request or response message was lost; the operation may or may
    /// not have taken effect on the responsible node.
    Timeout,
    /// The network has no live node to serve the operation.
    NoLiveNodes,
    /// The responsible node refused the write for lack of space.
    StorageFull,
    /// An error code from a newer peer that this build cannot interpret.
    /// Carries the raw wire code so it can be logged and re-encoded
    /// losslessly.
    Unknown(u16),
}

impl DhtError {
    /// Wire code of [`DhtError::Timeout`].
    pub const CODE_TIMEOUT: u16 = 1;
    /// Wire code of [`DhtError::NoLiveNodes`].
    pub const CODE_NO_LIVE_NODES: u16 = 2;
    /// Wire code of [`DhtError::StorageFull`].
    pub const CODE_STORAGE_FULL: u16 = 3;

    /// `true` for faults a retry may fix (currently only [`DhtError::Timeout`]).
    /// Unknown codes are treated as permanent: retrying an error we cannot
    /// interpret risks spinning against a structural condition.
    pub fn is_transient(&self) -> bool {
        matches!(self, DhtError::Timeout)
    }

    /// The stable 16-bit code this error travels as on the wire.
    pub fn wire_code(&self) -> u16 {
        match self {
            DhtError::Timeout => Self::CODE_TIMEOUT,
            DhtError::NoLiveNodes => Self::CODE_NO_LIVE_NODES,
            DhtError::StorageFull => Self::CODE_STORAGE_FULL,
            DhtError::Unknown(code) => *code,
        }
    }

    /// Decodes a wire code; codes this build does not know become
    /// [`DhtError::Unknown`] (never a failure), so the codec stays
    /// forward-compatible with future error variants.
    pub fn from_wire_code(code: u16) -> DhtError {
        match code {
            Self::CODE_TIMEOUT => DhtError::Timeout,
            Self::CODE_NO_LIVE_NODES => DhtError::NoLiveNodes,
            Self::CODE_STORAGE_FULL => DhtError::StorageFull,
            other => DhtError::Unknown(other),
        }
    }
}

impl fmt::Display for DhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhtError::Timeout => write!(f, "operation timed out (message lost)"),
            DhtError::NoLiveNodes => write!(f, "no live nodes in the network"),
            DhtError::StorageFull => write!(f, "responsible node storage full"),
            DhtError::Unknown(code) => write!(f, "unrecognized error code {code} from peer"),
        }
    }
}

impl std::error::Error for DhtError {}

/// A peer-to-peer distributed hash table with multi-value storage.
///
/// This is the contract assumed in §III-A of the paper: "each data item is
/// mapped to one or several peer nodes" and the storage system must "allow
/// for the registration of multiple entries using the same key".
///
/// [`Dht::execute`] is the fallible entry point every operation ultimately
/// goes through; `put`/`remove` are infallible convenience wrappers over it,
/// while `node_for`/`get` keep their historical `&self` signatures (shared
/// read paths must stay usable across threads) and report failure through
/// their return values (`None` / empty).
///
/// Implementations in this crate:
/// [`ChordNetwork`](crate::chord::ChordNetwork) (protocol simulation),
/// [`RingDht`](crate::ring::RingDht) (direct consistent hashing),
/// [`ShardedDht`](crate::sharded::ShardedDht) (one node's partition, the
/// store a `dhtd` server serves), and two wrappers over any of them:
/// [`FaultyDht`](crate::faulty::FaultyDht) (fault injection) and
/// [`SplitDht`](crate::split::SplitDht) (hot-entry splitting).
pub trait Dht {
    /// Executes one operation, reporting faults instead of swallowing them.
    ///
    /// This is the single fallible entry point: wrappers inject faults here
    /// and the index layer retries here. The infallible convenience methods
    /// below are defined in terms of it.
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError>;

    /// Executes a batch of *independent* operations, returning one result
    /// per op in the same order.
    ///
    /// This is the batch-first entry point the index layer's multi-get
    /// fast path is written against: a resolved index node's children are
    /// all independent keys, so they can travel to the substrate together.
    /// The default loops over [`Dht::execute`], which makes every
    /// substrate (including fault-injecting wrappers, whose per-op RNG
    /// draw order must not change) conform with semantics identical to
    /// the equivalent unary sequence. Networked substrates override this
    /// to pipeline: one frame pair per routed member instead of one per
    /// op.
    fn execute_many(&mut self, ops: Vec<DhtOp>) -> Vec<Result<DhtResponse, DhtError>> {
        ops.into_iter().map(|op| self.execute(op)).collect()
    }

    /// Resolves the live node currently responsible for `key`.
    ///
    /// Returns `None` only when the network has no live nodes.
    fn node_for(&self, key: &Key) -> Option<NodeId>;

    /// All live nodes, in ascending identifier order.
    fn nodes(&self) -> Vec<NodeId>;

    /// Fetches every value registered under `key`.
    fn get(&self, key: &Key) -> Vec<Bytes>;

    /// Registers `value` under `key` on the responsible node.
    ///
    /// Multiple distinct values may be registered under one key; duplicates
    /// are ignored. Returns `true` if the value was newly stored.
    /// Infallible wrapper over [`Dht::execute`]: any fault reads as "not
    /// stored".
    fn put(&mut self, key: Key, value: Bytes) -> bool {
        self.execute(DhtOp::Put { key, value })
            .map(DhtResponse::into_stored)
            .unwrap_or(false)
    }

    /// Removes one specific value under `key`. Returns `true` if present.
    /// Infallible wrapper over [`Dht::execute`].
    fn remove(&mut self, key: &Key, value: &[u8]) -> bool {
        self.execute(DhtOp::Remove {
            key: *key,
            value: Bytes::copy_from_slice(value),
        })
        .map(DhtResponse::into_removed)
        .unwrap_or(false)
    }

    /// A snapshot of every `(key, values)` entry the substrate holds, in
    /// ascending key order with duplicate replica copies collapsed.
    ///
    /// An inspection API, not a query path — no messages or lookups are
    /// accounted. Tests compare substrates' contents through it, and
    /// forwarding wrappers pass it through to what they wrap. (A `dhtd`
    /// server's drain and repair do not walk it: they enumerate one repair
    /// bucket at a time through
    /// [`ShardedDht::bucket_snapshot`](crate::sharded::ShardedDht::bucket_snapshot).)
    ///
    /// Default: empty, for substrates that cannot enumerate their
    /// storage.
    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        Vec::new()
    }

    /// Work counters accumulated since construction.
    fn stats(&self) -> DhtStats;

    /// Attaches a metrics registry; subsequent [`Dht::execute`] calls
    /// record per-operation counters (`dht.ops.*`, `dht.messages`,
    /// `dht.lookups`, `dht.hops`, `dht.errors`) into it.
    ///
    /// Default: no-op, so substrates outside this crate keep compiling
    /// and a disabled registry costs nothing on the hot path.
    fn set_metrics(&mut self, _metrics: MetricsRegistry) {}

    /// Number of live nodes.
    fn len(&self) -> usize {
        self.nodes().len()
    }

    /// Returns `true` if the network has no live nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Records one executed operation into `metrics` from the substrate's
/// own stats delta — the registry never counts independently, it only
/// mirrors the accounting the substrate already keeps, which is what
/// makes `registry["dht.messages"] == stats().messages` an invariant
/// rather than a coincidence.
///
/// Callers snapshot [`Dht::stats`] before and after the operation and
/// pass both; `kind` comes from [`DhtOp::kind`].
pub fn record_op(
    metrics: &MetricsRegistry,
    kind: &'static str,
    before: DhtStats,
    after: DhtStats,
    result: &Result<DhtResponse, DhtError>,
) {
    metrics.incr("dht.ops");
    metrics.incr(kind_counter(OpFamily::Dht, kind));
    metrics.add("dht.messages", after.messages - before.messages);
    metrics.add("dht.lookups", after.lookups - before.lookups);
    metrics.add("dht.hops", after.hops - before.hops);
    if after.lookups > before.lookups {
        metrics.observe("dht.hops_per_op", after.hops - before.hops);
    }
    if result.is_err() {
        metrics.incr("dht.errors");
    }
}

/// Records an executed batch into `metrics` from the substrate's
/// aggregate stats delta, the batch-shaped sibling of [`record_op`].
///
/// Per-op counters (`dht.ops`, `dht.ops.{kind}`, `dht.errors`) are
/// attributed exactly; the work counters (`dht.messages`, `dht.lookups`,
/// `dht.hops`) are mirrored as one aggregate delta because a pipelined
/// batch cannot attribute them per op. The `dht.hops_per_op` histogram is
/// *not* fed here for the same reason — substrates that loop over
/// [`Dht::execute`] (the trait default) keep per-op recording and never
/// reach this helper.
pub fn record_many(
    metrics: &MetricsRegistry,
    kinds: &[&'static str],
    before: DhtStats,
    after: DhtStats,
    results: &[Result<DhtResponse, DhtError>],
) {
    for (kind, result) in kinds.iter().zip(results) {
        metrics.incr("dht.ops");
        metrics.incr(kind_counter(OpFamily::Dht, kind));
        if result.is_err() {
            metrics.incr("dht.errors");
        }
    }
    metrics.add("dht.messages", after.messages - before.messages);
    metrics.add("dht.lookups", after.lookups - before.lookups);
    metrics.add("dht.hops", after.hops - before.hops);
}

/// Substrate-level membership control, used by fault injection to model
/// node churn uniformly across substrates.
///
/// `spawn`/`kill` change membership only; substrates with routing state may
/// need [`NodeChurn::stabilize`] afterwards to restore their invariants
/// (successor lists, leaf sets, replica placement).
pub trait NodeChurn {
    /// Adds a live node. Returns `false` if it was already present or the
    /// substrate cannot bootstrap it (e.g. protocol join into an empty net).
    fn spawn(&mut self, id: NodeId) -> bool;

    /// Removes a live node abruptly (a crash, not a graceful leave).
    /// Returns `false` if the node was not present.
    fn kill(&mut self, id: NodeId) -> bool;

    /// Repairs routing and replication state after membership changes.
    /// Default: no-op, for substrates whose state is always consistent.
    fn stabilize(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_wraps_key() {
        let k = Key::hash_of("peer-1");
        let n = NodeId::from_key(k);
        assert_eq!(n.key(), &k);
        assert_eq!(NodeId::hash_of("peer-1"), n);
        assert_eq!(NodeId::from(k), n);
    }

    #[test]
    fn node_id_display_is_short_hex() {
        let n = NodeId::hash_of("peer-1");
        let text = n.to_string();
        assert!(text.starts_with("node:"));
        assert_eq!(text.len(), "node:".len() + 12);
    }

    #[test]
    fn op_key_addresses_every_variant() {
        let k = Key::hash_of("k");
        let v = Bytes::from_static(b"v");
        assert_eq!(DhtOp::NodeFor(k).key(), &k);
        assert_eq!(DhtOp::Get(k).key(), &k);
        assert_eq!(DhtOp::GetDigest(k).key(), &k);
        assert_eq!(
            DhtOp::GetIfChanged {
                key: k,
                seen: (1, 2)
            }
            .key(),
            &k
        );
        assert_eq!(
            DhtOp::Put {
                key: k,
                value: v.clone()
            }
            .key(),
            &k
        );
        assert_eq!(DhtOp::Remove { key: k, value: v }.key(), &k);
    }

    #[test]
    fn kind_counters_cover_every_kind_in_every_family() {
        let k = Key::hash_of("k");
        let v = Bytes::from_static(b"v");
        let ops = [
            DhtOp::NodeFor(k),
            DhtOp::Get(k),
            DhtOp::GetIfChanged {
                key: k,
                seen: (0, 0),
            },
            DhtOp::Put {
                key: k,
                value: v.clone(),
            },
            DhtOp::Remove { key: k, value: v },
        ];
        for op in &ops {
            let kind = op.kind();
            assert_eq!(kind_counter(OpFamily::Dht, kind), format!("dht.ops.{kind}"));
            assert_eq!(
                kind_counter(OpFamily::Client, kind),
                format!("net.ops.{kind}")
            );
            assert_eq!(
                kind_counter(OpFamily::Server, kind),
                format!("net.server.ops.{kind}")
            );
        }
        // A digest get is a read the index layer never issues: it keeps
        // the family prefix on the client and the substrate, and on the
        // server the name an operator looks it up by.
        let kind = DhtOp::GetDigest(k).kind();
        assert_eq!(kind_counter(OpFamily::Dht, kind), "dht.ops.get_digest");
        assert_eq!(kind_counter(OpFamily::Client, kind), "net.ops.get_digest");
        assert_eq!(
            kind_counter(OpFamily::Server, kind),
            "net.server.digest_gets"
        );
        assert_eq!(
            kind_counter(OpFamily::Server, "scan"),
            "net.server.ops.other"
        );
    }

    #[test]
    fn pair_counters_apply_the_ring_convention() {
        let counters = PairCounters::default();
        counters.record_pair("put", true);
        counters.record_pair("get", true);
        counters.record_pair("remove", true);
        counters.record_pair("get", false);
        // A conditional get is a get, whatever it answered.
        counters.record_pair("get_if_changed", true);
        assert_eq!(
            counters.stats(),
            DhtStats {
                messages: 10,
                lookups: 3,
                hops: 0
            }
        );
        assert_eq!(counters.clone().stats(), counters.stats());
    }

    #[test]
    fn response_accessors() {
        let n = NodeId::hash_of("n");
        assert_eq!(DhtResponse::Node(n).into_node(), Some(n));
        assert_eq!(DhtResponse::Stored(true).into_node(), None);
        assert!(DhtResponse::Stored(true).into_stored());
        assert!(!DhtResponse::Stored(false).into_stored());
        assert!(!DhtResponse::Removed(true).into_stored());
        assert!(DhtResponse::Removed(true).into_removed());
        let vals = vec![Bytes::from_static(b"a")];
        assert_eq!(DhtResponse::Values(vals.clone()).into_values(), vals);
        assert!(DhtResponse::Stored(true).into_values().is_empty());
        assert!(DhtResponse::digest_of(&Key::hash_of("k"), &vals)
            .into_values()
            .is_empty());
    }

    #[test]
    fn if_changed_answers_the_digest_only_while_it_still_holds() {
        let key = Key::hash_of("k");
        let vals = vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")];
        let seen = DhtResponse::seen_of(&key, &vals);
        let (count, sum) = seen;
        assert_eq!(
            DhtResponse::digest_of(&key, &vals),
            DhtResponse::Digest { count, sum }
        );
        let reordered = [vals[1].clone(), vals[0].clone()];
        assert_eq!(
            DhtResponse::if_changed(&key, seen, &reordered),
            DhtResponse::Digest { count, sum }
        );
        // Same count, other values; fewer values; another key's digest.
        let other = [vals[0].clone(), Bytes::from_static(b"c")];
        assert_eq!(
            DhtResponse::if_changed(&key, seen, &other),
            DhtResponse::Values(other.to_vec())
        );
        assert_eq!(
            DhtResponse::if_changed(&key, seen, &vals[..1]),
            DhtResponse::Values(vals[..1].to_vec())
        );
        let elsewhere = DhtResponse::seen_of(&Key::hash_of("j"), &vals);
        assert_eq!(
            DhtResponse::if_changed(&key, elsewhere, &vals),
            DhtResponse::Values(vals.clone())
        );
    }

    #[test]
    fn only_timeout_is_transient() {
        assert!(DhtError::Timeout.is_transient());
        assert!(!DhtError::NoLiveNodes.is_transient());
        assert!(!DhtError::StorageFull.is_transient());
        assert!(!DhtError::Unknown(42).is_transient());
        assert!(DhtError::Timeout.to_string().contains("timed out"));
    }

    #[test]
    fn wire_codes_are_stable_and_forward_compatible() {
        // Pinned codes: changing any of these breaks deployed peers.
        assert_eq!(DhtError::Timeout.wire_code(), 1);
        assert_eq!(DhtError::NoLiveNodes.wire_code(), 2);
        assert_eq!(DhtError::StorageFull.wire_code(), 3);
        for code in [1u16, 2, 3] {
            assert_eq!(DhtError::from_wire_code(code).wire_code(), code);
        }
        // Unknown codes survive a decode/encode roundtrip losslessly.
        assert_eq!(DhtError::from_wire_code(999), DhtError::Unknown(999));
        assert_eq!(DhtError::Unknown(999).wire_code(), 999);
        assert!(DhtError::Unknown(999).to_string().contains("999"));
    }

    #[test]
    fn stats_mean_hops() {
        let s = DhtStats {
            messages: 10,
            lookups: 4,
            hops: 10,
        };
        assert!((s.mean_hops() - 2.5).abs() < 1e-9);
        assert_eq!(DhtStats::default().mean_hops(), 0.0);
    }
}
