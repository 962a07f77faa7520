//! A sharded, reader-concurrent single-node partition store.
//!
//! A networked `dhtd` daemon serves exactly one partition: every key the
//! client routes to it belongs to it, so what sits behind the server is
//! always a one-node store. One global `Mutex` around it would serialize
//! every request a daemon handles — reads included — and cap the
//! multi-core scaling of the serving path.
//!
//! [`ShardedDht`] is that store, the only one a server has: the
//! partition's key space is split across [`REPAIR_BUCKETS`] key-hash
//! shards, each behind its own [`std::sync::RwLock`], so concurrent `Get`s
//! proceed in parallel (shared read locks) and only `Put`/`Remove` takes a
//! single shard's write lock. The paper's workloads are overwhelmingly
//! read-heavy — searches dominate publishes by orders of magnitude in the
//! §V grids — which is exactly the shape reader-writer shard locks serve
//! well.
//!
//! Behavior is pinned to `RingDht::from_ids([id])`: same responses, same
//! [`DhtStats`] accounting (`Put`/`Get` → +1 lookup +2 messages, `Remove`
//! → +2 messages, `NodeFor` → free), same [`Dht::entries`] snapshot shape
//! (ascending key order). A seeded property test holds the store to that
//! plain-ring oracle.
//!
//! Replication tombstones (deleted values a stale replica must not push
//! back) live *inside* the shards — their only home — guarded by the same
//! locks as the values they shadow. Whether a store keeps them is fixed
//! when it is built, not chosen per call: a store built for a member of a
//! replicated ring ([`ShardedDht::with_ring`]) records a tombstone on every
//! `Remove` and lifts it on a `Put` of the same pair, under the write guard
//! of the value change itself; one built with
//! [`ShardedDht::with_default_shards`] never records one. A value a peer
//! pushes ([`ShardedDht::put_unless_dead`]) is checked against its
//! tombstone and stored under one write guard too, so no write can land
//! between the check and the store.
//!
//! The store is also what anti-entropy repair compares and enumerates,
//! through **repair buckets**: the key space cut by the key's low bits
//! ([`repair_bucket`]) — the one cut there is, so shard *b* holds exactly
//! bucket *b*. A store built for a member of a replicated ring
//! ([`ShardedDht::with_ring`]) **keeps its digests on write**: each shard
//! holds one order-independent 64-bit sum per ring *arc* (the keys whose
//! clockwise successor is one ring member, so an arc names the replica set
//! that holds its keys), moved by the write guard the write already holds
//! and only when a pair or a tombstone really comes or goes.
//! [`ShardedDht::kept_digests`] folds them into one digest per bucket for
//! any audience of arcs without visiting a key.
//! [`ShardedDht::bucket_snapshot`] enumerates one bucket under its one
//! shard guard, so what a repair push holds in memory at a time is a
//! sixteenth of a partition, never the whole of it.
//! [`ShardedDht::bucket_digests`] computes the same digests by sweeping the
//! partition; it is the oracle the kept sums are tested against.

use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

use bytes::Bytes;
use p2p_index_obs::MetricsRegistry;

use crate::api::{Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId, PairCounters};
use crate::digest::{self, values_digest};
use crate::key::Key;
use crate::placement;
use crate::storage::NodeStore;

/// Number of repair buckets a partition is compared and pushed in, and
/// the number of shards its store is cut into.
///
/// A constant of the protocol, not of a deployment: both ends of a digest
/// exchange must cut the key space the same way, and a `Digest` frame
/// carries exactly this many digests.
pub const REPAIR_BUCKETS: usize = 16;

/// One order-independent digest per repair bucket.
pub type BucketDigests = [u64; REPAIR_BUCKETS];

/// The repair bucket `key` falls in, which is also the shard that holds
/// it: the key's low bits.
pub fn repair_bucket(key: &Key) -> usize {
    key.low_u64() as usize & (REPAIR_BUCKETS - 1)
}

/// Adds the digest of `key`'s `values` to `bucket` of every audience in
/// `members`, hashing only if there is one.
fn fold_key<'a>(
    digests: &mut [BucketDigests],
    bucket: usize,
    members: impl IntoIterator<Item = usize>,
    class: u64,
    key: &Key,
    values: impl Iterator<Item = &'a [u8]>,
) {
    let mut members = members.into_iter().peekable();
    if members.peek().is_none() {
        return;
    }
    let hash = values_digest(class, key, values);
    for member in members {
        let slot = &mut digests[member][bucket];
        *slot = slot.wrapping_add(hash);
    }
}

/// What [`ShardedDht::bucket_snapshot`] returns: one repair bucket's
/// share of the partition, both lists in ascending key order. A `dhtd`
/// repair push carries one as its `Transfer` frame.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Stored entries minus tombstoned values — what a repair push puts.
    pub live: Vec<(Key, Vec<Bytes>)>,
    /// Tombstones as `(key, deleted values)` — what a repair push re-sends
    /// as removes.
    pub dead: Vec<(Key, Vec<Bytes>)>,
}

impl BucketSnapshot {
    /// `true` when the bucket holds neither a live value nor a tombstone.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty() && self.dead.is_empty()
    }
}

/// One key-hash shard — one repair bucket's slice of the partition's
/// store plus the replication tombstones shadowing it, consistent under
/// one lock.
#[derive(Debug)]
struct Shard {
    store: NodeStore,
    /// Values deleted locally that a stale replica must not resurrect via
    /// a repair push: a store of the same kind, keeping
    /// [`digest::DEAD`] sums. Kept under the same lock as the store so a
    /// tombstone check and the value it guards can never be observed in
    /// a torn state within a shard.
    deleted: NodeStore,
    /// `sums[arc]`: the digest of this shard's stored pairs and tombstones
    /// whose key's clockwise successor is ring member `arc`, kept on every
    /// write. Empty when the store has no ring.
    sums: Vec<u64>,
}

impl Shard {
    /// Stores `(key, value)`, copied, keeping the sum of its arc on `ring`
    /// if it is new: whether it was. The store hashes the pair once, for
    /// its key's kept digest, and the arc sum moves by that same hash.
    fn store_pair(&mut self, ring: &[Key], key: Key, value: &[u8]) -> bool {
        let stored = self.store.put(key, value);
        if let Some(hash) = stored {
            self.keep(ring, &key, hash, true);
        }
        stored.is_some()
    }

    /// Moves the sum of `key`'s arc on `ring` by `hash`, one pair's hash
    /// ([`digest::pair_digest`]): up when the pair `arrived`, down when it
    /// left. A store without a ring keeps no sums.
    fn keep(&mut self, ring: &[Key], key: &Key, hash: u64, arrived: bool) {
        let Some(arc) = placement::successor_index(ring, key) else {
            return;
        };
        let sum = &mut self.sums[arc];
        *sum = if arrived {
            sum.wrapping_add(hash)
        } else {
            sum.wrapping_sub(hash)
        };
    }

    /// Recomputes every kept sum on `ring` from the per-key sums the
    /// shard's two stores keep.
    fn rebuild_sums(&mut self, ring: &[Key]) {
        let mut sums = vec![0u64; ring.len()];
        for (key, values) in self.store.iter().chain(self.deleted.iter()) {
            if let Some(arc) = placement::successor_index(ring, key) {
                sums[arc] = sums[arc].wrapping_add(values.seen().1);
            }
        }
        self.sums = sums;
    }
}

/// A single-node DHT partition sharded for concurrent access.
///
/// All operational methods take `&self`: connection workers and the
/// anti-entropy repair thread each acquire
/// only the shard lock their operation touches. Lock discipline: at most
/// one shard lock is held at a time, by every method — whole-partition
/// visits ([`ShardedDht::kept_digests`], [`ShardedDht::bucket_digests`],
/// [`ShardedDht::replace_entries`]) take the shards one after another — so
/// no lock order exists to get wrong. A write moves its shard's kept sums
/// under the write guard it already holds, so a digest read under a
/// shard's read guard always matches what that shard holds.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use p2p_index_dht::{Dht, Key, NodeId, ShardedDht};
///
/// let mut dht = ShardedDht::with_default_shards(NodeId::hash_of("node-0"));
/// let key = Key::hash_of("hello");
/// dht.put(key, Bytes::from_static(b"world"));
/// assert_eq!(dht.get(&key), vec![Bytes::from_static(b"world")]);
/// ```
#[derive(Debug)]
pub struct ShardedDht {
    id: NodeId,
    /// The ring of the replicated cluster this partition belongs to,
    /// ascending — what names a key's arc. Empty when the store keeps
    /// neither sums nor tombstones.
    ring: Vec<Key>,
    /// `shards[b]` holds exactly the keys of repair bucket `b`.
    shards: [RwLock<Shard>; REPAIR_BUCKETS],
    counters: PairCounters,
    /// Registry for the `net.server.shard.*` lock-acquisition counters
    /// (`read_locks`, `write_locks`, `read_contended`,
    /// `write_contended`), attached through [`Dht::set_metrics`]. While
    /// it is disabled the lock paths are the plain `read()`/`write()`
    /// calls and no counter is touched.
    metrics: MetricsRegistry,
}

impl ShardedDht {
    /// Creates an empty partition store for node `id`: [`REPAIR_BUCKETS`]
    /// shards, shard `b` holding the keys of repair bucket `b`.
    /// It keeps no digest sums ([`ShardedDht::kept_digests`] reads zero)
    /// and records no tombstone: the store of an unreplicated partition.
    pub fn with_default_shards(id: NodeId) -> ShardedDht {
        ShardedDht::with_ring(id, Vec::new())
    }

    /// [`ShardedDht::with_default_shards`] for a member of a replicated
    /// cluster whose members sit at `ring`: every write keeps the digest
    /// sums of its key's arc (module docs), so [`ShardedDht::kept_digests`]
    /// reads them without a sweep, and makes its tombstone transition. A
    /// non-empty `ring` is what makes a replica store; it is sorted and
    /// deduplicated here.
    pub fn with_ring(id: NodeId, mut ring: Vec<Key>) -> ShardedDht {
        ring.sort_unstable();
        ring.dedup();
        let shards = std::array::from_fn(|_| {
            RwLock::new(Shard {
                store: NodeStore::new(),
                deleted: NodeStore::with_class(digest::DEAD),
                sums: vec![0; ring.len()],
            })
        });
        ShardedDht {
            id,
            ring,
            shards,
            counters: PairCounters::default(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// The node this partition belongs to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    fn shard_of(&self, key: &Key) -> &RwLock<Shard> {
        &self.shards[repair_bucket(key)]
    }

    /// Acquires a shard read lock, counting the acquisition and — via a
    /// `try_read` probe — contended waits when shard metrics are enabled.
    fn read_shard<'a>(&self, shard: &'a RwLock<Shard>) -> RwLockReadGuard<'a, Shard> {
        if !self.metrics.is_enabled() {
            return shard.read().unwrap_or_else(PoisonError::into_inner);
        }
        self.metrics.incr("net.server.shard.read_locks");
        match shard.try_read() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.metrics.incr("net.server.shard.read_contended");
                shard.read().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Write-lock twin of [`ShardedDht::read_shard`].
    fn write_shard<'a>(&self, shard: &'a RwLock<Shard>) -> RwLockWriteGuard<'a, Shard> {
        if !self.metrics.is_enabled() {
            return shard.write().unwrap_or_else(PoisonError::into_inner);
        }
        self.metrics.incr("net.server.shard.write_locks");
        match shard.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.metrics.incr("net.server.shard.write_contended");
                shard.write().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Executes one operation through a shared reference — the one
    /// operation path, which the networked server's connection workers
    /// call concurrently. Responses and accounting are those of
    /// [`Dht::execute`]. On a store with a ring a write also makes its
    /// tombstone transition under the same write guard: a `Remove`
    /// shadows the value against stale repair pushes, a `Put` of the same
    /// value lifts the shadow (a deliberate re-add wins). A store without
    /// one records no tombstone, so it has none to lift.
    ///
    /// This is where a value becomes resident, so this is where it is
    /// copied: an op decoded off the wire carries a slice of its whole
    /// frame, and storing the slice would pin the frame for as long as
    /// the value lives. A value (or tombstone) that is genuinely new is
    /// copied into a compact allocation of its own; a duplicate — the
    /// steady state of every repair pass — is recognised first and costs
    /// no allocation at all.
    ///
    /// It is also where the kept digest sums move, on real transitions
    /// only: a pair stored anew or removed, a tombstone recorded anew or
    /// lifted. A duplicate write moves nothing.
    pub fn execute_shared(&self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        match op {
            DhtOp::NodeFor(_) => Ok(DhtResponse::Node(self.id)),
            DhtOp::Get(key) => Ok(DhtResponse::Values(Dht::get(self, &key))),
            DhtOp::GetDigest(key) => {
                // The digest the store keeps, read under the read guard: no
                // list is built and no value is hashed or cloned for a
                // replica that only vouches.
                self.counters.record_pair("get", true);
                let shard = self.read_shard(self.shard_of(&key));
                Ok(DhtResponse::from_seen(shard.store.get(&key).seen()))
            }
            DhtOp::GetIfChanged { key, seen } => {
                // Compared with the kept digest under the read guard: the
                // list is cloned only when it changed.
                self.counters.record_pair("get", true);
                let shard = self.read_shard(self.shard_of(&key));
                Ok(shard.store.get(&key).if_changed(seen))
            }
            DhtOp::Put { key, value } => {
                self.counters.record_pair("put", true);
                let mut shard = self.write_shard(self.shard_of(&key));
                if let Some(hash) = shard.deleted.remove(&key, &value) {
                    shard.keep(&self.ring, &key, hash, false);
                }
                let stored = shard.store_pair(&self.ring, key, &value);
                Ok(DhtResponse::Stored(stored))
            }
            DhtOp::Remove { key, value } => {
                self.counters.record_pair("remove", true);
                let mut shard = self.write_shard(self.shard_of(&key));
                let removed = shard.store.remove(&key, &value);
                if let Some(hash) = removed {
                    shard.keep(&self.ring, &key, hash, false);
                }
                if !self.ring.is_empty() {
                    if let Some(hash) = shard.deleted.put(key, &value) {
                        shard.keep(&self.ring, &key, hash, true);
                    }
                }
                Ok(DhtResponse::Removed(removed.is_some()))
            }
        }
    }

    /// Stores `(key, value)` as a peer's repair push carries it, unless
    /// this store holds the pair's tombstone: `None` when the tombstone
    /// drops it, else whether it was stored anew (accounted as a `Put`).
    /// The check and the store share one shard write guard, so a client
    /// remove cannot land between them and leave the pair both stored and
    /// tombstoned.
    pub fn put_unless_dead(&self, key: Key, value: &[u8]) -> Option<bool> {
        let mut shard = self.write_shard(self.shard_of(&key));
        if shard.deleted.get(&key).contains(value) {
            return None;
        }
        self.counters.record_pair("put", true);
        Some(shard.store_pair(&self.ring, key, value))
    }

    /// One digest per repair bucket over the arcs `holds` accepts (`holds`
    /// is asked once per shard and ring position), read from the sums
    /// writes keep: what [`ShardedDht::bucket_digests`] sweeps out of the
    /// same keys, to the bit, without visiting one. Each bucket is read
    /// under its shard's read guard. All zero when the store has no ring.
    pub fn kept_digests(&self, mut holds: impl FnMut(usize) -> bool) -> BucketDigests {
        std::array::from_fn(|bucket| {
            let shard = self.read_shard(&self.shards[bucket]);
            let held = shard.sums.iter().enumerate().filter(|(arc, _)| holds(*arc));
            held.fold(0u64, |digest, (_, sum)| digest.wrapping_add(*sum))
        })
    }

    /// One digest per repair bucket for each of `audiences` audiences, in
    /// **one** sweep of the partition — the oracle the kept sums
    /// ([`ShardedDht::kept_digests`]) are tested against.
    ///
    /// `audience(key)` names the audiences (indices below `audiences`)
    /// `key` counts towards; a key it names none for is not hashed at all.
    /// Every stored `(key, value)` pair and every tombstone of shard `b` is
    /// folded into bucket `b` as its own tagged class — *not* "stored minus
    /// dead" — so two stores digest equal exactly when they hold the same
    /// pairs **and** the same tombstones (up to 64-bit collisions).
    ///
    /// Each shard is swept under one read guard and `audience` runs under
    /// it, so it must be cheap and must not touch this store. Nothing is
    /// allocated per key; the only allocation is the result.
    pub fn bucket_digests<I: IntoIterator<Item = usize>>(
        &self,
        audiences: usize,
        mut audience: impl FnMut(&Key) -> I,
    ) -> Vec<BucketDigests> {
        let mut digests = vec![[0u64; REPAIR_BUCKETS]; audiences];
        for (bucket, lock) in self.shards.iter().enumerate() {
            let shard = self.read_shard(lock);
            for (store, class) in [
                (&shard.store, digest::STORED),
                (&shard.deleted, digest::DEAD),
            ] {
                for (key, values) in store.iter() {
                    let members = audience(key);
                    fold_key(&mut digests, bucket, members, class, key, values.iter());
                }
            }
        }
        digests
    }

    /// Snapshot of repair bucket `bucket` (below [`REPAIR_BUCKETS`]),
    /// restricted to the keys `include` accepts — the repair enumeration
    /// surface. Taken under the bucket's one shard read guard,
    /// so its live values and the tombstones shadowing them are mutually
    /// consistent.
    pub fn bucket_snapshot(
        &self,
        bucket: usize,
        mut include: impl FnMut(&Key) -> bool,
    ) -> BucketSnapshot {
        let mut snapshot = BucketSnapshot::default();
        let shard = self.read_shard(&self.shards[bucket]);
        for (key, values) in shard.store.iter() {
            if include(key) {
                let dead = shard.deleted.get(key);
                let mut kept = values.to_bytes();
                kept.retain(|value| !dead.contains(value));
                if !kept.is_empty() {
                    snapshot.live.push((*key, kept));
                }
            }
        }
        for (key, dead) in shard.deleted.iter() {
            if include(key) {
                snapshot.dead.push((*key, dead.to_bytes()));
            }
        }
        drop(shard);
        snapshot.live.sort_unstable_by_key(|(key, _)| *key);
        snapshot.dead.sort_unstable_by_key(|(key, _)| *key);
        snapshot
    }

    /// Replaces the stored contents with `entries`; tombstones and work
    /// counters stay. (How a test wipes a member into a stale replica, and
    /// how a restarted daemon would load a snapshot.)
    ///
    /// The new per-shard stores are built outside any lock and swapped in
    /// one shard at a time, so each key changes atomically and the
    /// one-lock-at-a-time discipline holds here too. A store with a ring
    /// rebuilds each swapped-in shard's kept sums under the same guard.
    pub fn replace_entries(&self, entries: Vec<(Key, Vec<Bytes>)>) {
        let mut stores: [NodeStore; REPAIR_BUCKETS] = Default::default();
        for (key, values) in entries {
            let store = &mut stores[repair_bucket(&key)];
            for value in values {
                store.put(key, &value);
            }
        }
        for (lock, store) in self.shards.iter().zip(stores) {
            let mut shard = self.write_shard(lock);
            shard.store = store;
            if !self.ring.is_empty() {
                shard.rebuild_sums(&self.ring);
            }
        }
    }

    /// Total distinct keys across all shards.
    pub fn total_keys(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.read_shard(s).store.key_count())
            .sum()
    }

    /// Total stored values across all shards.
    pub fn total_values(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.read_shard(s).store.value_count())
            .sum()
    }
}

impl Dht for ShardedDht {
    fn execute(&mut self, op: DhtOp) -> Result<DhtResponse, DhtError> {
        self.execute_shared(op)
    }

    fn node_for(&self, _key: &Key) -> Option<NodeId> {
        Some(self.id)
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.id]
    }

    fn get(&self, key: &Key) -> Vec<Bytes> {
        self.counters.record_pair("get", true);
        let shard = self.read_shard(self.shard_of(key));
        shard.store.get(key).to_bytes()
    }

    fn entries(&self) -> Vec<(Key, Vec<Bytes>)> {
        let mut all = Vec::new();
        for lock in self.shards.iter() {
            let shard = self.read_shard(lock);
            let stored = shard.store.iter();
            all.extend(stored.map(|(key, values)| (*key, values.to_bytes())));
        }
        all.sort_unstable_by_key(|(key, _)| *key);
        all
    }

    fn stats(&self) -> DhtStats {
        self.counters.stats()
    }

    fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    fn len(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingDht;
    use p2p_index_testkit::{for_each_case, Rng};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn node() -> NodeId {
        NodeId::hash_of("node-0")
    }

    /// A deterministic op script: puts, gets, digest and conditional gets
    /// (hashed in place on both sides), removes (some hitting, some
    /// missing), and a NodeFor, across a small key universe.
    fn script(len: usize, seed: u64) -> Vec<DhtOp> {
        let mut ops = Vec::with_capacity(len);
        let mut state = seed | 1;
        for i in 0..len {
            // SplitMix-style scramble, deterministic across runs.
            state = state
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            let key = Key::hash_of(&format!("k{}", state % 17));
            let value = Bytes::from(format!("v{}", state % 5));
            ops.push(match state % 7 {
                0 | 1 => DhtOp::Put { key, value },
                2 => DhtOp::Get(key),
                // Unchanged exactly when the key holds this one value.
                3 => DhtOp::GetIfChanged {
                    key,
                    seen: DhtResponse::seen_of(&key, &[value]),
                },
                4 => DhtOp::GetDigest(key),
                5 => DhtOp::Remove { key, value },
                _ => {
                    let _ = i;
                    DhtOp::NodeFor(key)
                }
            });
        }
        ops
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut dht = ShardedDht::with_default_shards(node());
        let k = Key::hash_of("k");
        assert!(dht.put(k, b("v")));
        assert!(!dht.put(k, b("v")));
        assert_eq!(Dht::get(&dht, &k), vec![b("v")]);
        assert!(dht.remove(&k, b"v"));
        assert!(Dht::get(&dht, &k).is_empty());
        assert_eq!(dht.len(), 1);
        assert_eq!(dht.node_for(&k), Some(node()));
        assert_eq!(dht.nodes(), vec![node()]);
    }

    #[test]
    fn matches_single_node_ring_on_a_script() {
        let mut sharded = ShardedDht::with_default_shards(node());
        let mut ring = RingDht::from_ids([*node().key()]);
        for op in script(400, 42) {
            assert_eq!(sharded.execute(op.clone()), ring.execute(op));
        }
        assert_eq!(sharded.stats(), ring.stats());
        assert_eq!(sharded.entries(), ring.entries());
        assert_eq!(sharded.total_keys(), ring.total_keys());
    }

    /// The whole partition as the repair surface enumerates it: every
    /// bucket's snapshot, concatenated in ascending key order.
    fn all_buckets(dht: &ShardedDht) -> BucketSnapshot {
        let mut all = BucketSnapshot::default();
        for bucket in 0..REPAIR_BUCKETS {
            let snapshot = dht.bucket_snapshot(bucket, |_| true);
            all.live.extend(snapshot.live);
            all.dead.extend(snapshot.dead);
        }
        all.live.sort_unstable_by_key(|(key, _)| *key);
        all.dead.sort_unstable_by_key(|(key, _)| *key);
        all
    }

    fn tombstones(dht: &ShardedDht) -> Vec<(Key, Vec<Bytes>)> {
        all_buckets(dht).dead
    }

    /// The store of one member of a replicated ring (its own, alone).
    fn replica() -> ShardedDht {
        ShardedDht::with_ring(node(), vec![*node().key()])
    }

    fn client_remove(dht: &ShardedDht, key: Key, value: &str) {
        dht.execute_shared(DhtOp::Remove {
            key,
            value: b(value),
        })
        .expect("a partition store never fails");
    }

    #[test]
    fn replicated_remove_shadows_and_readd_lifts() {
        let dht = replica();
        let k = Key::hash_of("k");
        client_remove(&dht, k, "gone");
        let before = dht.stats();
        let pushed = ["gone", "kept", "gone"];
        let dropped = pushed
            .iter()
            .filter(|value| dht.put_unless_dead(k, &b(value)).is_none())
            .count();
        assert_eq!(dropped, 2);
        assert_eq!(Dht::get(&dht, &k), vec![b("kept")]);
        assert_eq!(
            dht.stats().messages - before.messages,
            2 + 2,
            "one put, one get"
        );
        assert_eq!(tombstones(&dht), vec![(k, vec![b("gone")])]);
        // A deliberate re-add lifts the shadow.
        let readd = DhtOp::Put {
            key: k,
            value: b("gone"),
        };
        assert_eq!(dht.execute_shared(readd), Ok(DhtResponse::Stored(true)));
        assert!(tombstones(&dht).is_empty());
        assert_eq!(dht.put_unless_dead(k, &b("gone")), Some(false));
        assert_eq!(Dht::get(&dht, &k), vec![b("kept"), b("gone")]);
    }

    /// `true` when `value`'s bytes live inside `frame`'s allocation.
    fn inside(frame: &Bytes, value: &Bytes) -> bool {
        let range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        range.contains(&(value.as_ptr() as usize))
    }

    #[test]
    fn resident_values_and_tombstones_never_pin_the_frame_they_came_from() {
        // A decoded op carries a slice of its whole frame. What the store
        // keeps must be a compact copy, or one 40-byte value would hold a
        // megabyte frame alive.
        let frame = Bytes::from(vec![7u8; 1 << 20]);
        let dht = replica();
        let key = Key::hash_of("k");
        let put = || DhtOp::Put {
            key,
            value: frame.slice(4096..4136),
        };
        assert_eq!(dht.execute_shared(put()), Ok(DhtResponse::Stored(true)));
        let stored = Dht::get(&dht, &key);
        assert_eq!(stored, vec![frame.slice(4096..4136)]);
        assert!(inside(&frame, &frame.slice(4096..4136)), "the probe works");
        assert!(
            !inside(&frame, &stored[0]),
            "stored value must own its bytes"
        );

        // The same value again is recognised as a duplicate (that it costs
        // no allocation is pinned in `tests/alloc_budget.rs`).
        assert_eq!(dht.execute_shared(put()), Ok(DhtResponse::Stored(false)));
        assert_eq!(Dht::get(&dht, &key).len(), 1);
        assert_eq!(dht.total_values(), 1);

        // A replicated remove records a tombstone that owns its bytes too,
        // and re-sending it (every repair pass does) records nothing new.
        let remove = || DhtOp::Remove {
            key,
            value: frame.slice(4096..4136),
        };
        assert_eq!(dht.execute_shared(remove()), Ok(DhtResponse::Removed(true)));
        let dead = tombstones(&dht);
        assert_eq!(dead, vec![(key, vec![frame.slice(4096..4136)])]);
        assert!(
            !inside(&frame, &dead[0].1[0]),
            "tombstone must own its bytes"
        );
        assert_eq!(
            dht.execute_shared(remove()),
            Ok(DhtResponse::Removed(false))
        );
        assert_eq!(tombstones(&dht), dead);

        // An unreplicated store owns what it stores as well.
        let plain = ShardedDht::with_default_shards(node());
        assert_eq!(plain.execute_shared(put()), Ok(DhtResponse::Stored(true)));
        assert!(!inside(&frame, &Dht::get(&plain, &key)[0]));
    }

    #[test]
    fn live_entries_sweeps_store_minus_tombstones() {
        let dht = replica();
        let k1 = Key::hash_of("k1");
        let k2 = Key::hash_of("k2");
        let image = vec![(k1, vec![b("a"), b("b")]), (k2, vec![b("c")])];
        dht.replace_entries(image.clone());
        // A tombstone for a value the store (again) holds — the state a
        // snapshot restore leaves behind.
        client_remove(&dht, k1, "a");
        dht.replace_entries(image);
        let live = all_buckets(&dht).live;
        let mut expected = vec![(k1, vec![b("b")]), (k2, vec![b("c")])];
        expected.sort_unstable_by_key(|(k, _)| *k);
        assert_eq!(live, expected);
        // The full snapshot still includes the tombstoned value.
        assert_eq!(dht.entries().iter().map(|(_, v)| v.len()).sum::<usize>(), 3);
    }

    #[test]
    fn replace_entries_swaps_stores_but_keeps_tombstones_and_counters() {
        let mut dht = replica();
        let k = Key::hash_of("old");
        dht.put(k, b("old-value"));
        client_remove(&dht, k, "shadow");
        let stats = dht.stats();
        let new = vec![
            (Key::hash_of("new"), vec![b("new-value"), b("second")]),
            (Key::hash_of("other"), vec![b("x")]),
        ];
        dht.replace_entries(new.clone());
        let mut expected = new;
        expected.sort_unstable_by_key(|(key, _)| *key);
        assert_eq!(dht.entries(), expected);
        assert_eq!(dht.stats(), stats);
        assert_eq!(tombstones(&dht), vec![(k, vec![b("shadow")])]);
    }

    #[test]
    fn concurrent_readers_and_writers_settle_to_the_oracle() {
        use std::sync::Arc;
        let dht = Arc::new(ShardedDht::with_default_shards(node()));
        let threads = 8;
        let per_thread = 50;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let dht = Arc::clone(&dht);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = Key::hash_of(&format!("t{t}-{i}"));
                        let put = dht.execute_shared(DhtOp::Put {
                            key,
                            value: Bytes::from(format!("value-{t}-{i}")),
                        });
                        assert_eq!(put, Ok(DhtResponse::Stored(true)));
                        let got = dht.execute_shared(DhtOp::Get(key));
                        assert_eq!(
                            got,
                            Ok(DhtResponse::Values(vec![Bytes::from(format!(
                                "value-{t}-{i}"
                            ))]))
                        );
                    }
                });
            }
        });
        assert_eq!(dht.total_values(), threads * per_thread);
        let stats = dht.stats();
        // Every op pair: put (+1 lookup +2 msgs) and get (+1 lookup +2 msgs).
        assert_eq!(stats.lookups, 2 * (threads * per_thread) as u64);
        assert_eq!(stats.messages, 4 * (threads * per_thread) as u64);
    }

    #[test]
    fn shard_lock_metrics_count_acquisitions_only_when_enabled() {
        let mut dht = replica();
        let k = Key::hash_of("k");
        dht.put(k, b("v"));
        // Disabled registry: nothing recorded anywhere.
        let registry = MetricsRegistry::default();
        dht.set_metrics(registry.clone());
        dht.put(k, b("v2"));
        let enabled = MetricsRegistry::new();
        dht.set_metrics(enabled.clone());
        dht.put(k, b("v3"));
        let _ = Dht::get(&dht, &k);
        let snapshot = enabled.snapshot();
        assert_eq!(snapshot.counter("net.server.shard.write_locks"), 1);
        assert_eq!(snapshot.counter("net.server.shard.read_locks"), 1);
        assert_eq!(snapshot.counter("net.server.shard.write_contended"), 0);
        // A replicated write is still one lock acquisition: the tombstone
        // transition rides the same guard as the store change.
        client_remove(&dht, k, "v3");
        assert_eq!(enabled.counter("net.server.shard.write_locks"), 2);
        assert_eq!(tombstones(&dht), vec![(k, vec![b("v3")])]);
    }

    /// Shard invisibility: the [`REPAIR_BUCKETS`]-shard store and the
    /// plain single-node ring produce identical per-op results, identical
    /// stats, and identical entry snapshots for any op script.
    #[test]
    fn shard_count_is_invisible() {
        for_each_case(|rng| {
            let (len, seed) = (rng.gen_range(1..120usize), rng.gen());
            let mut sharded = ShardedDht::with_default_shards(node());
            let mut ring = RingDht::from_ids([*node().key()]);
            for op in script(len, seed) {
                assert_eq!(sharded.execute(op.clone()), ring.execute(op));
            }
            assert_eq!(sharded.stats(), ring.stats());
            assert_eq!(sharded.entries(), ring.entries());
            assert_eq!(sharded.total_keys(), ring.total_keys());
        });
    }
}
