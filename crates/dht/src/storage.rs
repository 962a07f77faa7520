//! Per-node multi-value storage.
//!
//! The paper's only requirement on the DHT storage layer is that it "allow
//! for the registration of multiple entries using the same key" — an index
//! node stores *all* mappings `(q; qᵢ)` whose source query hashes to it.
//! [`NodeStore`] is that per-node table: a map from [`Key`] to a small set of
//! opaque byte values with set semantics (inserting a duplicate value is a
//! no-op).
//!
//! # Layout
//!
//! Each key's values live in **one owned byte block**: a 12-byte header —
//! the value count (`u32`) and the key's kept digest sum (`u64`),
//! little-endian — then one record per value in stored order, a `u32`
//! length and the value's bytes. A map slot is a key and a block pointer
//! (40 B); a stored pair costs its bytes plus 4, a key 12 more. There is
//! no allocation per value: a put of a new value grows its key's block
//! (by a quarter at least, so a long list is not copied on every put), a
//! duplicate is recognised before anything is copied, and a remove moves
//! the last record into the gap (`Vec::swap_remove` order); a block keeps
//! its room until its key's last value goes. Values become [`Bytes`] only
//! where they leave the store ([`StoredValues::to_bytes`]).

use std::collections::HashMap;
use std::ops::Range;

use bytes::Bytes;

use crate::api::DhtResponse;
use crate::digest;
use crate::key::Key;

/// Bytes of a block before its first record: the value count and the
/// kept digest sum.
const HEADER: usize = 12;

/// Bytes of a record before its value: the value's length.
const PREFIX: usize = 4;

/// The key→values table held by one DHT node.
///
/// Values are opaque bytes; the indexing layer stores serialized queries
/// in them, the storage layer stores file handles. Duplicate values under
/// one key are collapsed (set semantics), which makes re-indexing a file
/// idempotent.
///
/// # Examples
///
/// ```
/// use p2p_index_dht::{Key, NodeStore};
///
/// let mut store = NodeStore::new();
/// let k = Key::hash_of("/article/author/last/Smith");
/// store.put(k, b"John/Smith");
/// store.put(k, b"Jane/Smith");
/// assert_eq!(store.put(k, b"John/Smith"), None); // duplicate, ignored
/// assert_eq!(store.get(&k).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NodeStore {
    /// Each key's block (module docs): its values, and the digest sum of
    /// those values ([`DhtResponse::seen_of`]), kept on every write so a
    /// digest read hashes nothing.
    entries: HashMap<Key, Box<[u8]>>,
    /// Total number of stored values (across all keys).
    value_count: usize,
    /// The class each pair is hashed as for the kept sums.
    class: u64,
}

impl Default for NodeStore {
    fn default() -> Self {
        NodeStore::with_class(digest::STORED)
    }
}

impl NodeStore {
    /// Creates an empty store of values: its kept sums hash each pair as
    /// a [`digest::STORED`] one.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store whose kept sums hash each pair as a member
    /// of `class` — [`digest::DEAD`] for a replica's tombstones.
    pub fn with_class(class: u64) -> Self {
        NodeStore {
            entries: HashMap::new(),
            value_count: 0,
            class,
        }
    }

    /// Registers `value` under `key`, copied into the key's block unless
    /// the key already holds it. Returns the pair's hash
    /// ([`digest::pair_digest`] in the store's class: what the key's kept
    /// sum moved by) if the value was new, `None` if it was already there
    /// — recognised in one scan of the key's values, before anything is
    /// copied or allocated.
    pub fn put(&mut self, key: Key, value: &[u8]) -> Option<u64> {
        let block = self.entries.entry(key).or_default();
        let held = StoredValues(block);
        let mut end = HEADER;
        for span in held.spans() {
            if block[span.clone()] == *value {
                return None;
            }
            end = span.end;
        }
        let (count, sum) = held.seen();
        let hash = digest::pair_digest(self.class, &key, value);
        let needed = end + PREFIX + value.len();
        if needed > block.len() {
            let room = needed.max(block.len() + block.len() / 4);
            let mut grown = std::mem::take(block).into_vec();
            grown.reserve_exact(room - grown.len());
            grown.resize(room, 0);
            *block = grown.into_boxed_slice();
        }
        let len = u32::try_from(value.len()).expect("a value under 4 GiB");
        block[end..end + PREFIX].copy_from_slice(&len.to_le_bytes());
        block[end + PREFIX..needed].copy_from_slice(value);
        set_seen(block, (count + 1, sum.wrapping_add(hash)));
        self.value_count += 1;
        Some(hash)
    }

    /// All values registered under `key` (empty if none), with the digest
    /// the store keeps of them.
    pub fn get(&self, key: &Key) -> StoredValues<'_> {
        self.entries
            .get(key)
            .map_or(StoredValues::default(), |block| StoredValues(block))
    }

    /// Returns `true` if at least one value is registered under `key`.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.entries.contains_key(key)
    }

    /// Removes one specific `value` under `key`, the key's last value
    /// taking its place (`Vec::swap_remove` order).
    ///
    /// Returns the pair's hash (what the key's kept sum moved by) if the
    /// value was present. Removing the last value for a key removes the
    /// key itself, so [`NodeStore::contains_key`] reflects the paper's
    /// "deleting the last mapping for a given key" condition.
    pub fn remove(&mut self, key: &Key, value: &[u8]) -> Option<u64> {
        let block = self.entries.get_mut(key)?;
        let held = StoredValues(block);
        let (mut gone, mut last) = (None, 0..0);
        for span in held.spans() {
            if gone.is_none() && block[span.clone()] == *value {
                gone = Some(span.clone());
            }
            last = span;
        }
        let gone = gone?;
        let (count, sum) = held.seen();
        let hash = digest::pair_digest(self.class, key, value);
        self.value_count -= 1;
        if count == 1 {
            self.entries.remove(key);
            return Some(hash);
        }
        // The records from the removed one on are [gone][middle][last];
        // two rotations make them [last][middle] and leave [gone] past
        // the end.
        let start = gone.start - PREFIX;
        let removed = gone.end - start;
        if gone != last {
            let tail = &mut block[start..last.end];
            tail.rotate_left(removed);
            let kept = tail.len() - removed;
            tail[..kept].rotate_right(last.end - last.start + PREFIX);
        }
        set_seen(block, (count - 1, sum.wrapping_sub(hash)));
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
        let values = self.iter().flat_map(|(_, values)| values.iter());
        values.map(<[u8]>::len).sum()
    }

    /// Iterates over `(key, values)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, StoredValues<'_>)> {
        self.entries
            .iter()
            .map(|(key, block)| (key, StoredValues(block)))
    }

    /// Moves every entry whose key lies in the ring interval `(from, to]`
    /// into a store of its own, blocks as they are. Used when a joining
    /// node takes over part of the key space from its successor.
    pub fn split_off_interval(&mut self, from: &Key, to: &Key) -> NodeStore {
        let mut moved = NodeStore::with_class(self.class);
        moved.entries = self
            .entries
            .extract_if(|key, _| key.in_interval(from, to))
            .collect();
        moved.value_count = moved.iter().map(|(_, values)| values.len()).sum();
        self.value_count -= moved.value_count;
        moved
    }
}

/// Writes a block's header.
fn set_seen(block: &mut [u8], (count, sum): (u32, u64)) {
    block[..4].copy_from_slice(&count.to_le_bytes());
    block[4..HEADER].copy_from_slice(&sum.to_le_bytes());
}

/// One key's values as a [`NodeStore`] holds them, borrowed from its
/// block, in stored order.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoredValues<'a>(&'a [u8]);

impl<'a> StoredValues<'a> {
    /// The number of values and their digest sum as
    /// [`DhtResponse::seen_of`] would compute it — kept on write, so
    /// reading it hashes nothing. `(0, 0)` if none.
    pub fn seen(self) -> (u32, u64) {
        let Some(header) = self.0.get(..HEADER) else {
            return (0, 0);
        };
        let (count, sum) = header.split_at(4);
        let count = u32::from_le_bytes(count.try_into().expect("4 bytes"));
        (count, u64::from_le_bytes(sum.try_into().expect("8 bytes")))
    }

    /// Number of values.
    pub fn len(self) -> usize {
        self.seen().0 as usize
    }

    /// `true` when there is no value.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The values, borrowed, in stored order.
    pub fn iter(self) -> impl Iterator<Item = &'a [u8]> {
        self.spans().map(move |span| &self.0[span])
    }

    /// `true` if `value` is one of the values.
    pub fn contains(self, value: &[u8]) -> bool {
        self.iter().any(|held| held == value)
    }

    /// The values as they leave the store: one copy of the block, sliced
    /// per value (no allocation when there is none).
    pub fn to_bytes(self) -> Vec<Bytes> {
        let Some(end) = self.spans().last().map(|span| span.end) else {
            return Vec::new();
        };
        let block = Bytes::copy_from_slice(&self.0[..end]);
        self.spans().map(|span| block.slice(span)).collect()
    }

    /// What a [`DhtOp::GetIfChanged`](crate::DhtOp::GetIfChanged) against
    /// `seen` answers: the digest alone while the kept one still equals
    /// it, the values otherwise. No value is hashed.
    pub fn if_changed(self, seen: (u32, u64)) -> DhtResponse {
        if self.seen() == seen {
            DhtResponse::from_seen(seen)
        } else {
            DhtResponse::Values(self.to_bytes())
        }
    }

    /// Where each value lies in the block, in stored order.
    fn spans(self) -> impl Iterator<Item = Range<usize>> + 'a {
        let block = self.0;
        let mut at = HEADER;
        (0..self.len()).map(move |_| {
            let len = block[at..at + PREFIX].try_into().expect("4 bytes");
            let start = at + PREFIX;
            at = start + u32::from_le_bytes(len) as usize;
            start..at
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_index_testkit::{for_each_case, Rng};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn values(s: &NodeStore, key: &Key) -> Vec<Bytes> {
        s.get(key).to_bytes()
    }

    #[test]
    fn put_and_get_multiple_values() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        assert!(s.put(k, b"v1").is_some());
        assert!(s.put(k, b"v2").is_some());
        assert_eq!(s.get(&k).len(), 2);
        assert_eq!(s.value_count(), 2);
        assert_eq!(s.key_count(), 1);
    }

    #[test]
    fn duplicate_put_is_noop() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        assert!(s.put(k, b"v").is_some());
        assert!(s.put(k, b"v").is_none());
        assert_eq!(s.value_count(), 1);
    }

    #[test]
    fn put_copied_owns_new_bytes_and_keeps_the_first_copy_of_a_duplicate() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        let frame = b("..v1v2..");
        assert!(s.put(k, &frame[2..4]).is_some());
        let first = s.get(&k).iter().next().expect("stored").as_ptr();
        assert!(!frame.as_ptr_range().contains(&first));
        assert!(s.put(k, &frame[2..4]).is_none());
        assert!(s.put(k, b"v1").is_none());
        assert_eq!(s.get(&k).iter().next().map(<[u8]>::as_ptr), Some(first));
        assert!(s.put(k, &frame[4..6]).is_some());
        assert_eq!(values(&s, &k), [b("v1"), b("v2")]);
        assert_eq!(s.value_count(), 2);
    }

    #[test]
    fn values_leave_as_one_copy_that_owns_its_bytes() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        let frame = b("..v1v2..");
        assert!(s.put(k, &frame[2..4]).is_some());
        assert!(s.put(k, &frame[2..4]).is_none());
        assert!(s.put(k, &frame[4..6]).is_some());
        let out = values(&s, &k);
        assert_eq!(out, [b("v1"), b("v2")]);
        assert!(!frame.as_ptr_range().contains(&out[0].as_ptr()));
        let gap = out[1].as_ptr() as usize - out[0].as_ptr() as usize;
        assert_eq!(gap, 2 + PREFIX, "both slices of one copy");
        assert!(values(&s, &Key::hash_of("nope")).is_empty());
    }

    #[test]
    fn get_missing_is_empty() {
        let s = NodeStore::new();
        assert!(s.get(&Key::hash_of("nope")).is_empty());
        assert_eq!(s.get(&Key::hash_of("nope")).seen(), (0, 0));
        assert!(!s.contains_key(&Key::hash_of("nope")));
    }

    #[test]
    fn remove_specific_value() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        s.put(k, b"v1");
        s.put(k, b"v2");
        assert!(s.remove(&k, b"v1").is_some());
        assert!(s.remove(&k, b"v1").is_none());
        assert_eq!(values(&s, &k), [b("v2")]);
    }

    #[test]
    fn removing_last_value_removes_key() {
        let mut s = NodeStore::new();
        let k = Key::hash_of("k");
        s.put(k, b"v");
        assert!(s.remove(&k, b"v").is_some());
        assert!(!s.contains_key(&k));
        assert!(s.is_empty());
        assert_eq!(s.value_count(), 0);
    }

    #[test]
    fn value_bytes_sums_lengths() {
        let mut s = NodeStore::new();
        s.put(Key::hash_of("a"), b"12345");
        s.put(Key::hash_of("b"), b"123");
        assert_eq!(s.value_bytes(), 8);
    }

    #[test]
    fn split_off_interval_moves_only_covered_keys() {
        let mut s = NodeStore::with_class(digest::DEAD);
        // Construct synthetic keys on a small circle.
        let k5 = Key::from_u64(5);
        let k15 = Key::from_u64(15);
        let k25 = Key::from_u64(25);
        s.put(k5, b"five");
        s.put(k15, b"fifteen");
        s.put(k25, b"twentyfive");
        let mut moved = s.split_off_interval(&Key::from_u64(10), &Key::from_u64(20));
        assert_eq!(moved.key_count(), 1);
        assert_eq!(values(&moved, &k15), [b("fifteen")]);
        assert!(s.contains_key(&k5));
        assert!(!s.contains_key(&k15));
        assert!(s.contains_key(&k25));
        assert_eq!(s.value_count(), 2);
        let dead = digest::pair_digest(digest::DEAD, &k15, b"fifteen");
        assert_eq!(
            moved.remove(&k15, b"fifteen"),
            Some(dead),
            "the class moves too"
        );
    }

    /// The kept `(count, sum)` of every key, in a store of either class,
    /// equals the digest of the values it holds after each op.
    #[test]
    fn the_kept_digest_is_the_digest_of_the_values_after_every_op() {
        for_each_case(|rng| {
            let class = [digest::STORED, digest::DEAD][rng.gen_range(0..2usize)];
            let keys: Vec<Key> = (0..6).map(Key::from_u64).collect();
            let mut s = NodeStore::with_class(class);
            for step in 0..rng.gen_range(1..80usize) {
                let key = keys[rng.gen_range(0..keys.len())];
                let value = format!("v{}", rng.gen_range(0..5u32)).into_bytes();
                let pair = digest::pair_digest(class, &key, &value);
                match rng.gen_range(0..5u32) {
                    0 | 1 => {
                        let new = !s.get(&key).contains(&value);
                        assert_eq!(s.put(key, &value), new.then_some(pair));
                    }
                    2 => {
                        let held = s.get(&key).contains(&value);
                        assert_eq!(s.remove(&key, &value), held.then_some(pair));
                    }
                    3 => {
                        for held in s.get(&key).to_bytes() {
                            assert!(s.remove(&key, &held).is_some());
                        }
                    }
                    _ => {
                        let (from, to) = (rng.gen_range(0..6u64), rng.gen_range(0..6u64));
                        let moved = s.split_off_interval(&Key::from_u64(from), &Key::from_u64(to));
                        assert!(moved.iter().all(|(k, _)| !s.contains_key(k)));
                    }
                }
                for key in &keys {
                    let got = s.get(key);
                    let sum = digest::values_digest(class, key, got.iter());
                    let count = got.iter().count() as u32;
                    assert_eq!(got.seen(), (count, sum), "step {step}: {key:?}");
                }
                let total: usize = keys.iter().map(|k| s.get(k).len()).sum();
                assert_eq!(s.value_count(), total, "step {step}");
            }
        });
    }

    /// Every op against a per-key `Vec<Vec<u8>>` with set semantics, an
    /// append per put and `swap_remove` per remove: the store answers
    /// what the model holds, in the model's order, with the digest of it.
    #[test]
    fn every_op_matches_a_swap_remove_model() {
        for_each_case(|rng| {
            let keys: Vec<Key> = (0..6).map(Key::from_u64).collect();
            let mut s = NodeStore::new();
            let mut model: HashMap<Key, Vec<Vec<u8>>> = HashMap::new();
            for step in 0..rng.gen_range(1..80usize) {
                let key = keys[rng.gen_range(0..keys.len())];
                // Six values of six lengths (the first one empty), so
                // records of unequal sizes swap places.
                let id = rng.gen_range(0..6u8);
                let value = vec![b'a' + id; usize::from(id) * 7];
                let pair = digest::pair_digest(digest::STORED, &key, &value);
                match rng.gen_range(0..5u32) {
                    0 | 1 => {
                        let held = model.entry(key).or_default();
                        let new = !held.contains(&value);
                        if new {
                            held.push(value.clone());
                        }
                        assert_eq!(s.put(key, &value), new.then_some(pair));
                    }
                    2 => {
                        let held = model.entry(key).or_default();
                        let at = held.iter().position(|v| *v == value);
                        if let Some(at) = at {
                            held.swap_remove(at);
                        }
                        assert_eq!(s.remove(&key, &value), at.map(|_| pair));
                    }
                    3 => {
                        for held in model.remove(&key).unwrap_or_default() {
                            assert!(s.remove(&key, &held).is_some());
                        }
                    }
                    _ => {
                        let (from, to) = (rng.gen_range(0..6u64), rng.gen_range(0..6u64));
                        let (from, to) = (Key::from_u64(from), Key::from_u64(to));
                        let moved = s.split_off_interval(&from, &to);
                        let count: usize = moved.iter().map(|(_, values)| values.len()).sum();
                        assert_eq!(moved.value_count(), count);
                        for (key, values) in moved.iter() {
                            let held = model.remove(key).expect("moved what it held");
                            assert!(values.iter().eq(held.iter().map(Vec::as_slice)));
                        }
                        assert!(model.keys().all(|k| !k.in_interval(&from, &to)));
                    }
                }
                model.retain(|_, held| !held.is_empty());
                for key in &keys {
                    let held = model.get(key).map_or(&[][..], Vec::as_slice);
                    let got = s.get(key);
                    assert!(got.iter().eq(held.iter().map(Vec::as_slice)), "step {step}");
                    let held: Vec<Bytes> = held.iter().cloned().map(Bytes::from).collect();
                    assert_eq!(got.to_bytes(), held, "step {step}");
                    assert_eq!(got.seen(), DhtResponse::seen_of(key, &held), "step {step}");
                }
                let model_order = |k: &Key| model[k].iter().map(Vec::as_slice);
                assert!(s.iter().all(|(k, v)| v.iter().eq(model_order(k))));
                assert_eq!(s.key_count(), model.len());
                assert_eq!(s.value_count(), model.values().map(Vec::len).sum::<usize>());
                let bytes = model.values().flatten().map(Vec::len).sum::<usize>();
                assert_eq!(s.value_bytes(), bytes, "step {step}");
            }
        });
    }
}
