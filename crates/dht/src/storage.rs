//! Per-node multi-value storage.
//!
//! The paper's only requirement on the DHT storage layer is that it "allow
//! for the registration of multiple entries using the same key" — an index
//! node stores *all* mappings `(q; qᵢ)` whose source query hashes to it.
//! [`NodeStore`] is that per-node table: a map from [`Key`] to a small set of
//! opaque byte values with set semantics (inserting a duplicate value is a
//! no-op).

use std::collections::HashMap;

use bytes::Bytes;

use crate::digest;
use crate::key::Key;

/// The key→values table held by one DHT node.
///
/// Values are opaque [`Bytes`]; the indexing layer stores serialized queries
/// in them, the storage layer stores file handles. Duplicate values under
/// one key are collapsed (set semantics), which makes re-indexing a file
/// idempotent.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use p2p_index_dht::{Key, NodeStore};
///
/// let mut store = NodeStore::new();
/// let k = Key::hash_of("/article/author/last/Smith");
/// store.put(k, Bytes::from_static(b"John/Smith"));
/// store.put(k, Bytes::from_static(b"Jane/Smith"));
/// store.put(k, Bytes::from_static(b"John/Smith")); // duplicate, ignored
/// assert_eq!(store.get(&k).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeStore {
    /// Each key's values, and the digest sum of those values
    /// ([`DhtResponse::seen_of`](crate::DhtResponse::seen_of)), kept on
    /// every write so a digest read hashes nothing.
    entries: HashMap<Key, (Vec<Bytes>, u64)>,
    /// Total number of stored values (across all keys).
    value_count: usize,
}

impl NodeStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `value` under `key`. Returns `true` if the value was new.
    pub fn put(&mut self, key: Key, value: Bytes) -> bool {
        self.insert(key, value, |value| value).is_some()
    }

    /// [`NodeStore::put`] for a value the caller does not own compactly
    /// (a slice of a larger buffer): one scan of the key's values, and the
    /// bytes are copied into an allocation of their own only if they are
    /// new. Returns the pair's hash ([`digest::pair_digest`] of it as a
    /// stored value: what the key's kept sum moved by) if the value was
    /// new, `None` if it was already there.
    pub fn put_copied(&mut self, key: Key, value: &[u8]) -> Option<u64> {
        self.insert(key, value, Bytes::copy_from_slice)
    }

    /// Stores `value` under `key`, made resident by `own`, unless the key
    /// already holds it: the pair's hash if it was new.
    fn insert<V: AsRef<[u8]>>(
        &mut self,
        key: Key,
        value: V,
        own: impl FnOnce(V) -> Bytes,
    ) -> Option<u64> {
        let (values, sum) = self.entries.entry(key).or_default();
        if values.iter().any(|v| v.as_ref() == value.as_ref()) {
            return None;
        }
        let hash = digest::pair_digest(digest::STORED, &key, value.as_ref());
        *sum = sum.wrapping_add(hash);
        values.push(own(value));
        self.value_count += 1;
        Some(hash)
    }

    /// Returns all values registered under `key` (empty slice if none).
    pub fn get(&self, key: &Key) -> &[Bytes] {
        self.entry(key).0
    }

    /// The `(count, sum)` digest of the values under `key`, as
    /// [`DhtResponse::seen_of`](crate::DhtResponse::seen_of) would compute
    /// it from [`NodeStore::get`] — kept on write, so reading it hashes
    /// nothing. `(0, 0)` if none.
    pub fn seen(&self, key: &Key) -> (u32, u64) {
        self.entry(key).1
    }

    /// [`NodeStore::get`] and [`NodeStore::seen`] in one lookup.
    pub fn entry(&self, key: &Key) -> (&[Bytes], (u32, u64)) {
        match self.entries.get(key) {
            Some((values, sum)) => (values, (values.len() as u32, *sum)),
            None => (&[], (0, 0)),
        }
    }

    /// Returns `true` if at least one value is registered under `key`.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.entries.contains_key(key)
    }

    /// Removes one specific `value` under `key`.
    ///
    /// Returns the pair's hash (what the key's kept sum moved by) if the
    /// value was present. Removing the last value for a key removes the
    /// key itself, so [`NodeStore::contains_key`] reflects the paper's
    /// "deleting the last mapping for a given key" condition.
    pub fn remove(&mut self, key: &Key, value: &[u8]) -> Option<u64> {
        let (values, sum) = self.entries.get_mut(key)?;
        let pos = values.iter().position(|v| v.as_ref() == value)?;
        values.swap_remove(pos);
        let hash = digest::pair_digest(digest::STORED, key, value);
        *sum = sum.wrapping_sub(hash);
        self.value_count -= 1;
        if values.is_empty() {
            self.entries.remove(key);
        }
        Some(hash)
    }

    /// Number of distinct keys stored on this node.
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of values stored on this node (each key may hold several).
    pub fn value_count(&self) -> usize {
        self.value_count
    }

    /// Returns `true` if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of stored values (excluding key and map overhead).
    ///
    /// Used by the storage-overhead experiment (§V.B of the paper).
    pub fn value_bytes(&self) -> usize {
        let values = self.entries.values().flat_map(|(values, _)| values);
        values.map(Bytes::len).sum()
    }

    /// Iterates over `(key, values)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[Bytes])> {
        self.entries.iter().map(|(k, (v, _))| (k, v.as_slice()))
    }

    /// Drains and returns every entry whose key lies in the ring interval
    /// `(from, to]`. Used when a joining node takes over part of the key
    /// space from its successor.
    pub fn split_off_interval(&mut self, from: &Key, to: &Key) -> Vec<(Key, Vec<Bytes>)> {
        let moved: Vec<Key> = self
            .entries
            .keys()
            .filter(|k| k.in_interval(from, to))
            .copied()
            .collect();
        moved
            .into_iter()
            .map(|k| {
                let (values, _) = self.entries.remove(&k).expect("key selected above");
                self.value_count -= values.len();
                (k, values)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DhtResponse;
    use p2p_index_testkit::{for_each_case, Rng};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_and_get_multiple_values() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        assert!(s.put(k, b("v1")));
        assert!(s.put(k, b("v2")));
        assert_eq!(s.get(&k).len(), 2);
        assert_eq!(s.value_count(), 2);
        assert_eq!(s.key_count(), 1);
    }

    #[test]
    fn duplicate_put_is_noop() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        assert!(s.put(k, b("v")));
        assert!(!s.put(k, b("v")));
        assert_eq!(s.value_count(), 1);
    }

    #[test]
    fn put_copied_owns_new_bytes_and_keeps_the_first_copy_of_a_duplicate() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        let frame = b("..v1v2..");
        assert!(s.put_copied(k, &frame[2..4]).is_some());
        let first = s.get(&k)[0].as_ptr();
        assert!(!frame.as_ptr_range().contains(&first));
        assert!(s.put_copied(k, &frame[2..4]).is_none());
        assert!(!s.put(k, b("v1")));
        assert!(s.put_copied(k, &frame[4..6]).is_some());
        assert_eq!(s.get(&k), &[b("v1"), b("v2")]);
        assert_eq!(s.get(&k)[0].as_ptr(), first);
        assert_eq!(s.value_count(), 2);
    }

    #[test]
    fn get_missing_is_empty() {
        let s = NodeStore::new();
        assert!(s.get(&Key::hash_of("nope")).is_empty());
        assert!(!s.contains_key(&Key::hash_of("nope")));
    }

    #[test]
    fn remove_specific_value() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        s.put(k, b("v1"));
        s.put(k, b("v2"));
        assert!(s.remove(&k, b"v1").is_some());
        assert!(s.remove(&k, b"v1").is_none());
        assert_eq!(s.get(&k), &[b("v2")]);
    }

    #[test]
    fn removing_last_value_removes_key() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        s.put(k, b("v"));
        assert!(s.remove(&k, b"v").is_some());
        assert!(!s.contains_key(&k));
        assert!(s.is_empty());
        assert_eq!(s.value_count(), 0);
    }

    #[test]
    fn value_bytes_sums_lengths() {
        let mut s = NodeStore::new();
        s.put(Key::hash_of("a"), b("12345"));
        s.put(Key::hash_of("b"), b("123"));
        assert_eq!(s.value_bytes(), 8);
    }

    #[test]
    fn split_off_interval_moves_only_covered_keys() {
        let mut s = NodeStore::new();
        // Construct synthetic keys on a small circle.
        let k5 = Key::from_u64(5);
        let k15 = Key::from_u64(15);
        let k25 = Key::from_u64(25);
        s.put(k5, b("five"));
        s.put(k15, b("fifteen"));
        s.put(k25, b("twentyfive"));
        let moved = s.split_off_interval(&Key::from_u64(10), &Key::from_u64(20));
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].0, k15);
        assert!(s.contains_key(&k5));
        assert!(!s.contains_key(&k15));
        assert!(s.contains_key(&k25));
        assert_eq!(s.value_count(), 2);
    }

    #[test]
    fn the_kept_digest_is_the_digest_of_the_values_after_every_op() {
        for_each_case(|rng| {
            let keys: Vec<Key> = (0..6).map(Key::from_u64).collect();
            let mut s = NodeStore::new();
            for step in 0..rng.gen_range(1..80usize) {
                let key = keys[rng.gen_range(0..keys.len())];
                let value = b(&format!("v{}", rng.gen_range(0..5u32)));
                match rng.gen_range(0..6u32) {
                    0 | 1 => {
                        let new = !s.get(&key).contains(&value);
                        assert_eq!(s.put(key, value), new);
                    }
                    2 => {
                        let hash = s.put_copied(key, &value);
                        let pair = digest::pair_digest(digest::STORED, &key, &value);
                        assert!(hash.is_none() || hash == Some(pair));
                    }
                    3 => {
                        let hash = s.remove(&key, &value);
                        let pair = digest::pair_digest(digest::STORED, &key, &value);
                        assert!(hash.is_none() || hash == Some(pair));
                    }
                    4 => {
                        for held in s.get(&key).to_vec() {
                            s.remove(&key, &held);
                        }
                    }
                    _ => {
                        let (from, to) = (rng.gen_range(0..6u64), rng.gen_range(0..6u64));
                        let moved = s.split_off_interval(&Key::from_u64(from), &Key::from_u64(to));
                        assert!(moved.iter().all(|(k, _)| !s.contains_key(k)));
                    }
                }
                for key in &keys {
                    let (values, kept) = s.entry(key);
                    assert_eq!(
                        kept,
                        DhtResponse::seen_of(key, values),
                        "step {step}: {key:?}"
                    );
                    assert_eq!(s.seen(key), kept);
                }
                let total: usize = keys.iter().map(|k| s.get(k).len()).sum();
                assert_eq!(s.value_count(), total, "step {step}");
            }
        });
    }
}
