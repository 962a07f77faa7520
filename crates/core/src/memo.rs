//! The client's read memo: what an [`IndexService`](crate::IndexService)
//! remembers of the lookups it made.
//!
//! The paper keeps index entries in the DHT (§IV-A) and shortcuts at the
//! nodes (§IV-C); the querying client keeps only what it has read. That is
//! `ReadMemo`: the interned `query → h(q)` keys of the queries looked up,
//! and the decoded entries last read under them. Both tables memoise
//! reads, never writes, and both are unbounded (ROADMAP item 7).

use std::collections::HashMap;
use std::sync::Arc;

use p2p_index_dht::{DhtError, DhtOp, DhtResponse, Key};
use p2p_index_xpath::Query;

use crate::service::IndexError;
use crate::target::IndexTarget;

/// One index entry as the client last read it.
#[derive(Debug)]
struct Entry {
    /// The `(count, sum)` digest of the values the targets were decoded
    /// from ([`DhtResponse::seen_of`]): what the next read of the key asks
    /// with ([`DhtOp::GetIfChanged`]).
    seen: (u32, u64),
    /// The decoded targets, in the order the values came.
    targets: Arc<[IndexTarget]>,
    /// What the reply that carried them is priced at in
    /// [`Traffic`](crate::Traffic): the targets' encoded lengths, summed.
    bytes: u64,
}

/// The client's two read tables: interned keys and the entry memo.
#[derive(Debug, Default)]
pub(crate) struct ReadMemo {
    /// Interned `query → h(q)` keys of the queries this client *looked
    /// up*: each is SHA-1-hashed once, and steady-state lookups pay a
    /// `HashMap` probe on the query's canonical text. `publish`,
    /// `unpublish` and `insert_mapping` hash their write-once keys with
    /// `IndexService::key_of` instead, so the table grows with what was
    /// asked, not with what was stored, and an entry shares its query's
    /// one allocation with whoever asked.
    key_cache: HashMap<Query, Key>,
    /// The entry memo, the client's one table of read entries: `h(q) →`
    /// the decoded targets of the last non-empty entry read under it, the
    /// digest of the values they came from, and the reply's price. A key
    /// the memo holds is read with [`DhtOp::GetIfChanged`]: an unchanged
    /// answer (a digest) reuses the entry — no value crosses the wire, no
    /// list is built, no value is decoded — and a changed one is decoded
    /// and replaces it. An empty answer drops the key. Every read is
    /// validated against the substrate (a read quorum, over a network), so
    /// the memo cannot serve an entry the substrate no longer holds (up to
    /// a 64-bit digest collision). It holds decoded targets only, never
    /// the bytes they came in: a networked substrate's values are slices
    /// of a whole reply frame, and a table that lives as long as the
    /// client must not pin frames. It grows with the distinct non-empty
    /// keys read.
    entries: HashMap<Key, Entry>,
}

impl ReadMemo {
    /// The DHT key of a query, interned: the SHA-1 is computed on the first
    /// sighting of each distinct query and served from the table
    /// afterwards. The table caches a pure function of the query's
    /// canonical text, so entries can never go stale.
    pub(crate) fn cached_key(&mut self, query: &Query) -> Key {
        if let Some(k) = self.key_cache.get(query) {
            return *k;
        }
        let k = Key::hash_of(query.canonical_text());
        self.key_cache.insert(query.clone(), k);
        k
    }

    /// The read a lookup of `key` sends: conditional on the digest of the
    /// entry the memo holds for it, a plain `Get` otherwise.
    pub(crate) fn read_op(&self, key: Key) -> DhtOp {
        match self.entries.get(&key) {
            Some(entry) => DhtOp::GetIfChanged {
                key,
                seen: entry.seen,
            },
            None => DhtOp::Get(key),
        }
    }

    /// The index entries a read of `key` answered, and the reply's price:
    /// an unchanged answer is the memo's entry (a refcount bump), a
    /// non-empty list is decoded into a new entry that replaces the old
    /// one, and an empty list drops the key. This is the lookup hot path —
    /// every reply comes through here exactly once.
    ///
    /// A digest that vouches for no entry the memo holds answers no read
    /// this client sent; it is a failed read ([`DhtError::Timeout`]).
    pub(crate) fn read_entry(
        &mut self,
        key: Key,
        answer: DhtResponse,
    ) -> Result<(Arc<[IndexTarget]>, u64), IndexError> {
        match answer {
            DhtResponse::Digest { count, sum } => match self.entries.get(&key) {
                Some(entry) if entry.seen == (count, sum) => {
                    Ok((entry.targets.clone(), entry.bytes))
                }
                _ => Err(IndexError::Dht(DhtError::Timeout)),
            },
            DhtResponse::Values(values) if !values.is_empty() => {
                let targets: Arc<[IndexTarget]> = values
                    .iter()
                    .map(|value| IndexTarget::from_bytes(value))
                    .collect::<Result<_, _>>()?;
                let bytes = targets.iter().map(|t| t.encoded_len() as u64).sum();
                let seen = DhtResponse::seen_of(&key, &values);
                let entry = Entry {
                    seen,
                    targets: targets.clone(),
                    bytes,
                };
                self.entries.insert(key, entry);
                Ok((targets, bytes))
            }
            _ => {
                self.entries.remove(&key);
                Ok((Arc::default(), 0))
            }
        }
    }
}

/// What the service's tests look at: the interned queries, sorted, and
/// how many entries the memo holds.
#[cfg(test)]
impl ReadMemo {
    pub(crate) fn interned(&self) -> Vec<&Query> {
        let mut queries: Vec<&Query> = self.key_cache.keys().collect();
        queries.sort();
        queries
    }

    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::*;

    #[test]
    fn the_entry_memo_never_pins_the_frame_a_value_came_in() {
        // A networked substrate hands back values that are slices of a
        // whole reply frame; the memo outlives every frame, so it must hold
        // decoded targets that own their bytes, never a slice of the frame.
        let mut frame = vec![0u8; 1 << 20];
        let encoded = IndexTarget::File("x.pdf".into()).to_bytes();
        frame[512..512 + encoded.len()].copy_from_slice(&encoded);
        let frame = Bytes::from(frame);
        let values = vec![frame.slice(512..512 + encoded.len())];

        let mut memo = ReadMemo::default();
        let key = Key::hash_of("entry");
        let answer = DhtResponse::Values(values.clone());
        let (targets, bytes) = memo.read_entry(key, answer).unwrap();
        assert_eq!(targets[..], [IndexTarget::File("x.pdf".into())]);
        assert_eq!(bytes, encoded.len() as u64);
        // An unchanged answer is the same, single entry: not a copy of it.
        assert_eq!(
            memo.read_op(key),
            DhtOp::GetIfChanged {
                key,
                seen: DhtResponse::seen_of(&key, &values),
            }
        );
        let unchanged = DhtResponse::digest_of(&key, &values);
        let (again, again_bytes) = memo.read_entry(key, unchanged).unwrap();
        assert!(Arc::ptr_eq(&targets, &again) && again_bytes == bytes);
        assert_eq!(memo.entries.len(), 1);

        let held = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        let IndexTarget::File(file) = &memo.entries[&key].targets[0] else {
            unreachable!("decoded as a file above")
        };
        assert!(
            !held.contains(&(file.as_ptr() as usize)),
            "the memo must own its bytes, not borrow the frame's"
        );
        // A changed answer replaces the entry, so the next read asks about
        // the new one; a digest the memo cannot vouch for is a failed read;
        // an empty answer drops the key.
        let changed = vec![Bytes::from_static(b"F:y.pdf")];
        let (now, _) = memo
            .read_entry(key, DhtResponse::Values(changed.clone()))
            .unwrap();
        assert_eq!(now[..], [IndexTarget::File("y.pdf".into())]);
        let seen = DhtResponse::seen_of(&key, &changed);
        assert_eq!(memo.read_op(key), DhtOp::GetIfChanged { key, seen });
        let other = DhtResponse::digest_of(&key, &values);
        assert!(matches!(
            memo.read_entry(key, other),
            Err(IndexError::Dht(_))
        ));
        let (none, zero) = memo
            .read_entry(key, DhtResponse::Values(Vec::new()))
            .unwrap();
        assert!(none.is_empty() && zero == 0 && memo.entries.is_empty());
        assert_eq!(memo.read_op(key), DhtOp::Get(key));
    }
}
