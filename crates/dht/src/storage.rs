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
    entries: HashMap<Key, Vec<Bytes>>,
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
        let values = self.entries.entry(key).or_default();
        if values.iter().any(|v| v == &value) {
            return false;
        }
        values.push(value);
        self.value_count += 1;
        true
    }

    /// [`NodeStore::put`] for a value the caller does not own compactly
    /// (a slice of a larger buffer): one scan of the key's values, and the
    /// bytes are copied into an allocation of their own only if they are
    /// new. Returns `true` if the value was new.
    pub fn put_copied(&mut self, key: Key, value: &[u8]) -> bool {
        let values = self.entries.entry(key).or_default();
        if values.iter().any(|v| v.as_ref() == value) {
            return false;
        }
        values.push(Bytes::copy_from_slice(value));
        self.value_count += 1;
        true
    }

    /// Returns all values registered under `key` (empty slice if none).
    pub fn get(&self, key: &Key) -> &[Bytes] {
        self.entries.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns `true` if at least one value is registered under `key`.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.entries.contains_key(key)
    }

    /// Removes one specific `value` under `key`.
    ///
    /// Returns `true` if the value was present. Removing the last value for
    /// a key removes the key itself, so [`NodeStore::contains_key`] reflects
    /// the paper's "deleting the last mapping for a given key" condition.
    pub fn remove(&mut self, key: &Key, value: &[u8]) -> bool {
        let Some(values) = self.entries.get_mut(key) else {
            return false;
        };
        let Some(pos) = values.iter().position(|v| v.as_ref() == value) else {
            return false;
        };
        values.swap_remove(pos);
        self.value_count -= 1;
        if values.is_empty() {
            self.entries.remove(key);
        }
        true
    }

    /// Removes every value under `key`, returning how many were removed.
    pub fn remove_all(&mut self, key: &Key) -> usize {
        match self.entries.remove(key) {
            Some(values) => {
                self.value_count -= values.len();
                values.len()
            }
            None => 0,
        }
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
        self.entries.values().flatten().map(Bytes::len).sum()
    }

    /// Iterates over `(key, values)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[Bytes])> {
        self.entries.iter().map(|(k, v)| (k, v.as_slice()))
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
                let values = self.entries.remove(&k).expect("key selected above");
                self.value_count -= values.len();
                (k, values)
            })
            .collect()
    }
}

/// Merges several per-node stores into one deterministic entry list:
/// ascending key order, values in first-seen order, duplicate copies
/// (the normal state of a replicated substrate) collapsed.
///
/// This is the snapshot shape [`Dht::entries`](crate::api::Dht::entries)
/// returns and the shape replication maintenance (drain on graceful
/// leave, repair pushes) walks.
pub fn merged_entries<'a>(stores: impl Iterator<Item = &'a NodeStore>) -> Vec<(Key, Vec<Bytes>)> {
    let mut all: std::collections::BTreeMap<Key, Vec<Bytes>> = std::collections::BTreeMap::new();
    for store in stores {
        for (key, values) in store.iter() {
            let merged = all.entry(*key).or_default();
            for v in values {
                if !merged.contains(v) {
                    merged.push(v.clone());
                }
            }
        }
    }
    all.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(s.put_copied(k, &frame[2..4]));
        let first = s.get(&k)[0].as_ptr();
        assert!(!frame.as_ptr_range().contains(&first));
        assert!(!s.put_copied(k, &frame[2..4]));
        assert!(!s.put(k, b("v1")));
        assert!(s.put_copied(k, &frame[4..6]));
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
        assert!(s.remove(&k, b"v1"));
        assert!(!s.remove(&k, b"v1"));
        assert_eq!(s.get(&k), &[b("v2")]);
    }

    #[test]
    fn removing_last_value_removes_key() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        s.put(k, b("v"));
        assert!(s.remove(&k, b"v"));
        assert!(!s.contains_key(&k));
        assert!(s.is_empty());
        assert_eq!(s.value_count(), 0);
    }

    #[test]
    fn remove_all_counts() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        s.put(k, b("a"));
        s.put(k, b("bb"));
        assert_eq!(s.remove_all(&k), 2);
        assert_eq!(s.remove_all(&k), 0);
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
    fn merged_entries_dedups_and_sorts() {
        let mut a = NodeStore::new();
        let mut c = NodeStore::new();
        let k1 = Key::from_u64(1);
        let k2 = Key::from_u64(2);
        a.put(k2, b("v2"));
        a.put(k1, b("v1"));
        c.put(k1, b("v1")); // replica copy, collapsed
        c.put(k1, b("v1b"));
        let merged = merged_entries([&a, &c].into_iter());
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], (k1, vec![b("v1"), b("v1b")]));
        assert_eq!(merged[1], (k2, vec![b("v2")]));
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
}
