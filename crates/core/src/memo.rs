//! The client's read memo: what an [`IndexService`](crate::IndexService)
//! remembers of the lookups it made.
//!
//! The paper keeps index entries in the DHT (§IV-A) and shortcuts at the
//! nodes (§IV-C); the querying client keeps only what it has read. That is
//! `ReadMemo`, two tables: the client's known queries with their keys
//! `h(q)` — every query it looked up, every query target an entry it read
//! named, and every generalization it derived, one copy each, the key
//! computed the first time a lookup asks for it — and the decoded entries
//! last read under those keys. Both memoise reads, never writes: a write
//! consults the known queries ([`ReadMemo::consult`],
//! [`ReadMemo::write_key`]) so that an index query the client has read is
//! not frozen or hashed again, but it adds nothing to either table and
//! moves nothing between generations.
//!
//! Both tables are bounded the same way: two generations. New entries, and
//! hits in the old generation, go to the young one; at the start of a call
//! ([`ReadMemo::rotate`]) a young generation that holds [`GENERATION`]
//! entries becomes the old one and the old one is dropped. So a generation
//! never holds more than `GENERATION` entries plus what one call added, and
//! a rotation drops what no call touched since the rotation before.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use p2p_index_dht::{DhtError, DhtOp, DhtResponse, Key};
use p2p_index_xpath::{KnownQueries, Query};

use crate::service::IndexError;
use crate::target::{parse_text, query_text, DecodeTargetError, IndexTarget};

/// Entries a generation of either memo table reaches before it ages: the
/// smallest power of two at least twice the largest table a `p2p-bench`
/// workload holds at the end of its count cycle (`sim-lookup`'s 28 017
/// known queries at seed 1), so no count cycle rotates.
const GENERATION: usize = 1 << 16;

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

/// A query keyed by its canonical text, so the key table can be probed
/// with the text of a stored `Q:` value before anything is parsed.
#[derive(Debug)]
struct Interned(Query);

impl PartialEq for Interned {
    fn eq(&self, other: &Interned) -> bool {
        self.0.canonical_text() == other.0.canonical_text()
    }
}

impl Eq for Interned {}

impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.canonical_text().hash(state);
    }
}

impl Borrow<str> for Interned {
    fn borrow(&self) -> &str {
        self.0.canonical_text()
    }
}

/// A memo table in two generations. New entries and old-generation hits go
/// to `young`; a key lives in at most one generation.
#[derive(Debug)]
struct Generations<K, V> {
    young: HashMap<K, V>,
    old: HashMap<K, V>,
    /// [`GENERATION`], except in tests.
    limit: usize,
}

impl<K: Hash + Eq, V> Generations<K, V> {
    fn new(limit: usize) -> Self {
        Generations {
            young: HashMap::new(),
            old: HashMap::new(),
            limit,
        }
    }

    /// The entry under `key`, moved to the young generation if it was old.
    fn get<Q>(&mut self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.old.is_empty() {
            if let Some((k, v)) = self.old.remove_entry(key) {
                self.young.insert(k, v);
            }
        }
        self.young.get_key_value(key)
    }

    /// The value under `key`, moved to the young generation if it was old.
    fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key)?;
        self.young.get_mut(key)
    }

    /// The entry under `key`, wherever it is; moves nothing.
    fn peek<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let young = self.young.get_key_value(key);
        young.or_else(|| self.old.get_key_value(key))
    }

    fn insert(&mut self, key: K, value: V) {
        if !self.old.is_empty() {
            self.old.remove(&key);
        }
        self.young.insert(key, value);
    }

    fn remove(&mut self, key: &K) {
        self.young.remove(key);
        self.old.remove(key);
    }

    /// Drops the old generation and ages the young one, if the young one
    /// is full. The map the old generation lived in is reused.
    fn rotate(&mut self) {
        if self.young.len() >= self.limit {
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }
}

/// The client's two read tables: its known queries, and the entry memo.
#[derive(Debug)]
pub(crate) struct ReadMemo {
    /// The client's known queries and their keys `h(q)`, one copy per
    /// distinct canonical text: each query this client *looked up*, each
    /// query target an entry it read named, and each one-step
    /// generalization it derived ([`ReadMemo::generalizations_into`]). A
    /// query's SHA-1 is computed the first time [`ReadMemo::cached_key`]
    /// asks for it and kept (`None` until then: a decoded target or a
    /// generalization no lookup reaches is never hashed). A `Q:` value
    /// whose text the table holds decodes to the table's query (an `Arc`
    /// bump) without being parsed — so a descriptor stored under several
    /// keys (§IV-A: several chains end at one MSD) is one allocation
    /// however many entries hold it — and a generalization it holds is
    /// rendered but not frozen again. `publish` and `unpublish` build
    /// their MSD and index queries through [`Consult`], which finds and
    /// never adds, and take a held query's key with
    /// [`ReadMemo::write_key`]; a write-once query the table lacks is
    /// frozen and hashed for that one write and then dropped. So the table
    /// grows with what was read, not with what was stored.
    queries: Generations<Interned, Option<Key>>,
    /// The entry memo, the client's one table of read entries: `h(q) →`
    /// the decoded targets of the last non-empty entry read under it, the
    /// digest of the values they came from, and the reply's price. A key
    /// the memo holds is read with [`DhtOp::GetIfChanged`]: an unchanged
    /// answer (a digest) reuses the entry — no value crosses the wire, no
    /// list is built, no value is decoded — and a changed one is decoded
    /// and replaces it. An empty answer drops the key, and so does
    /// rotation: an evicted key is read again with a plain `Get`, which
    /// costs the same `DhtStats` and `Traffic`. Every read is validated
    /// against the substrate (a read quorum, over a network), so the memo
    /// cannot serve an entry the substrate no longer holds (up to a 64-bit
    /// digest collision). It holds decoded targets only, never the bytes
    /// they came in: a networked substrate's values are slices of a whole
    /// reply frame, and a table that lives as long as the client must not
    /// pin frames.
    entries: Generations<Key, Entry>,
    /// Where a stored splice's text is rebuilt before the known queries
    /// are probed with it: kept, so a warm decode writes no new buffer.
    text: String,
}

impl Default for ReadMemo {
    fn default() -> Self {
        ReadMemo::with_generation(GENERATION)
    }
}

impl ReadMemo {
    /// A memo whose generations hold `limit` entries: [`GENERATION`]
    /// outside the tests.
    pub(crate) fn with_generation(limit: usize) -> Self {
        ReadMemo {
            queries: Generations::new(limit),
            entries: Generations::new(limit),
            text: String::new(),
        }
    }

    /// Starts a public call: each table whose young generation is full
    /// drops its old one and ages the young one. The service calls this
    /// first thing in every public method that touches the memo, and
    /// nowhere else — in particular never between [`read_op`](Self::read_op)
    /// and [`read_entry`](Self::read_entry): a search wave builds every
    /// `GetIfChanged` before it reads any reply, and dropping an entry in
    /// between would turn its "unchanged" answer into a failed read.
    pub(crate) fn rotate(&mut self) {
        self.queries.rotate();
        self.entries.rotate();
    }

    /// The DHT key of a query, interned: the SHA-1 is computed the first
    /// time a lookup asks for the key of each distinct query and served
    /// from the table afterwards. The table caches a pure function of the
    /// query's canonical text, so entries can never go stale.
    pub(crate) fn cached_key(&mut self, query: &Query) -> Key {
        let text = query.canonical_text();
        match self.queries.get_mut(text) {
            Some(Some(key)) => *key,
            Some(unhashed) => *unhashed.insert(Key::hash_of(text)),
            None => {
                let key = Key::hash_of(text);
                self.queries.insert(Interned(query.clone()), Some(key));
                key
            }
        }
    }

    /// The table as a write consults it: [`Consult`].
    pub(crate) fn consult(&self) -> Consult<'_> {
        Consult(&self.queries)
    }

    /// The DHT key of a query a write is about to write, by its canonical
    /// `text`: the table's kept key if it holds the query hashed, else
    /// `h(q)` computed for this write alone. Adds nothing and moves
    /// nothing.
    pub(crate) fn write_key(&self, text: &str) -> Key {
        match self.queries.peek(text) {
            Some((_, Some(key))) => *key,
            _ => Key::hash_of(text),
        }
    }

    /// Appends `query`'s one-step generalizations to `out`, in
    /// [`Query::generalizations`] order, through the known-query table: a
    /// generalization the table holds is the table's query (no freeze, no
    /// allocation), and one it lacks joins it, unhashed.
    pub(crate) fn generalizations_into(&mut self, query: &Query, out: &mut Vec<Query>) {
        query.generalizations_known(&mut self.queries, out);
    }

    /// The read a lookup of `key` sends: conditional on the digest of the
    /// entry the memo holds for it, a plain `Get` otherwise.
    pub(crate) fn read_op(&self, key: Key) -> DhtOp {
        match self.entries.peek(&key) {
            Some((_, entry)) => DhtOp::GetIfChanged {
                key,
                seen: entry.seen,
            },
            None => DhtOp::Get(key),
        }
    }

    /// The index entries a read of `query`'s key `key` answered, and the
    /// reply's price: an unchanged answer is the memo's entry (a refcount
    /// bump), a non-empty list is decoded — each splice against `query` —
    /// into a new entry that replaces the old one, and an empty list drops
    /// the key. This is the lookup hot path — every reply comes through
    /// here exactly once.
    ///
    /// A digest that vouches for no entry the memo holds answers no read
    /// this client sent; it is a failed read ([`DhtError::Timeout`]).
    pub(crate) fn read_entry(
        &mut self,
        (query, key): (&Query, Key),
        answer: DhtResponse,
    ) -> Result<(Arc<[IndexTarget]>, u64), IndexError> {
        match answer {
            DhtResponse::Digest { count, sum } => match self.entries.get(&key) {
                Some((_, entry)) if entry.seen == (count, sum) => {
                    Ok((entry.targets.clone(), entry.bytes))
                }
                _ => Err(IndexError::Dht(DhtError::Timeout)),
            },
            DhtResponse::Values(values) if !values.is_empty() => {
                let targets: Arc<[IndexTarget]> = values
                    .iter()
                    .map(|value| self.decode(query, value))
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

    /// One value stored under `h(under)`, decoded through the key table:
    /// its query's text — a `Q:` value's own, or a splice's rebuilt
    /// against `under` into the kept buffer — probes the table, and a hit
    /// is the table's query. Any other value is parsed, a parsed query
    /// joining the table with no key yet. A text the table holds is a
    /// canonical text, and `parse(canonical(q)) == q`, so the hit is what
    /// parsing would give; a non-canonical text (a foreign writer's) just
    /// misses.
    fn decode(&mut self, under: &Query, value: &[u8]) -> Result<IndexTarget, DecodeTargetError> {
        let text = query_text(under.view(), value, &mut self.text)?;
        if let Some((Interned(query), _)) = text.and_then(|text| self.queries.get(text)) {
            return Ok(IndexTarget::Query(query.clone()));
        }
        let target = match text {
            Some(text) => parse_text(text)?,
            None => IndexTarget::from_bytes(value)?,
        };
        if let IndexTarget::Query(query) = &target {
            self.queries.insert(Interned(query.clone()), None);
        }
        Ok(target)
    }
}

/// The known-query table as [`Query::generalizations_known`] consults it:
/// a hit moves young like any other, a new query joins with no key.
impl KnownQueries for Generations<Interned, Option<Key>> {
    fn find(&mut self, text: &str) -> Option<Query> {
        self.get(text).map(|(Interned(query), _)| query.clone())
    }

    fn add(&mut self, query: &Query) {
        self.insert(Interned(query.clone()), None);
    }
}

/// The known-query table as a write consults it: a query the client has
/// read is the table's (no freeze), and a hit moves nothing between
/// generations — what a write reuses does not keep an entry alive. A query
/// the table lacks is frozen for the write and not added: a table of
/// written queries would grow with everything this client ever stored.
pub(crate) struct Consult<'m>(&'m Generations<Interned, Option<Key>>);

impl KnownQueries for Consult<'_> {
    fn find(&mut self, text: &str) -> Option<Query> {
        self.0.peek(text).map(|(Interned(query), _)| query.clone())
    }

    fn add(&mut self, _query: &Query) {}
}

/// What the tests look at: a memo with tiny generations, the known
/// queries, sorted, and how many entries each table holds.
#[cfg(test)]
impl ReadMemo {
    pub(crate) fn interned(&self) -> Vec<&Query> {
        let generations = [&self.queries.young, &self.queries.old];
        let mut queries: Vec<&Query> = generations
            .into_iter()
            .flat_map(|generation| generation.keys().map(|Interned(q)| q))
            .collect();
        queries.sort();
        queries
    }

    pub(crate) fn query_count(&self) -> usize {
        self.queries.len()
    }

    pub(crate) fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;
    use p2p_index_testkit::{for_each_case, Rng, StdRng};
    use p2p_index_xmldoc::Descriptor;
    use p2p_index_xpath::{CmpOp, QueryBuilder};

    use super::*;
    use crate::scheme::{ComplexScheme, Fig4Scheme, FlatScheme, IndexScheme, SimpleScheme};

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
        let (targets, bytes) = memo.read_entry((&root(), key), answer).unwrap();
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
        let (again, again_bytes) = memo.read_entry((&root(), key), unchanged).unwrap();
        assert!(Arc::ptr_eq(&targets, &again) && again_bytes == bytes);
        assert_eq!(memo.entry_count(), 1);

        let held = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
        let IndexTarget::File(file) = &memo.entries.peek(&key).unwrap().1.targets[0] else {
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
            .read_entry((&root(), key), DhtResponse::Values(changed.clone()))
            .unwrap();
        assert_eq!(now[..], [IndexTarget::File("y.pdf".into())]);
        let seen = DhtResponse::seen_of(&key, &changed);
        assert_eq!(memo.read_op(key), DhtOp::GetIfChanged { key, seen });
        let other = DhtResponse::digest_of(&key, &values);
        assert!(matches!(
            memo.read_entry((&root(), key), other),
            Err(IndexError::Dht(_))
        ));
        let (none, zero) = memo
            .read_entry((&root(), key), DhtResponse::Values(Vec::new()))
            .unwrap();
        assert!(none.is_empty() && zero == 0 && memo.entry_count() == 0);
        assert_eq!(memo.read_op(key), DhtOp::Get(key));
    }

    /// The query of a test key whose values are full `Q:` or `F:` values,
    /// which read the same under any query.
    fn root() -> Query {
        "/article".parse().unwrap()
    }

    fn corpus() -> Vec<Descriptor> {
        [
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>IPv6</title><conf>INFOCOM</conf><year>1996</year></article>",
            "<article><author><first>Alan</first><last>Doe</last></author>\
             <author><first>Ada</first><last>\"Q\" O'Neil</last></author>\
             <title>Wavelets &amp; more</title><conf>INFOCOM</conf><year>1996</year></article>",
            "<article><author><first>Li</first><last>Liu</last></author>\
             <title>Untitled</title></article>",
        ]
        .iter()
        .map(|xml| Descriptor::parse(xml).unwrap())
        .collect()
    }

    /// Every entry `scheme` stores for the corpus, as the DHT holds it: the
    /// query of each key and the values under it, in the order they were
    /// written.
    fn stored_entries(scheme: &dyn IndexScheme) -> Vec<(Query, Vec<Bytes>)> {
        let mut entries: Vec<(Query, Vec<Bytes>)> = Vec::new();
        for (i, d) in corpus().iter().enumerate() {
            let msd = Query::most_specific(d);
            let file = IndexTarget::File(format!("file-{i}.pdf").into());
            let edges = scheme.index_edges(d, &msd);
            let writes = std::iter::once((msd.clone(), file))
                .chain(edges.into_iter().map(|(from, to)| (from, to.into())));
            for (from, to) in writes {
                let value = to.to_bytes_under(&from);
                match entries.iter_mut().find(|(q, _)| *q == from) {
                    Some((_, values)) if !values.contains(&value) => values.push(value),
                    Some(_) => {}
                    None => entries.push((from, vec![value])),
                }
            }
        }
        entries
    }

    #[test]
    fn every_value_a_scheme_stores_decodes_as_from_bytes_does() {
        let schemes: [&dyn IndexScheme; 4] =
            [&SimpleScheme, &FlatScheme, &ComplexScheme, &Fig4Scheme];
        for scheme in schemes {
            let mut memo = ReadMemo::default();
            // Twice: the second pass decodes every query through the table.
            for _ in 0..2 {
                for (from, values) in stored_entries(scheme) {
                    let key = Key::hash_of(from.canonical_text());
                    let (targets, _) = memo
                        .read_entry((&from, key), DhtResponse::Values(values.clone()))
                        .unwrap();
                    let parsed: Vec<IndexTarget> = values
                        .iter()
                        .map(|v| IndexTarget::from_bytes_under(&from, v).unwrap())
                        .collect();
                    assert_eq!(targets[..], parsed[..], "{}", scheme.name());
                    for query in targets.iter().filter_map(IndexTarget::as_query) {
                        let key = Key::hash_of(query.canonical_text());
                        assert_eq!(memo.cached_key(query), key, "{query}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_canonical_text_decodes_to_its_canonical_query() {
        let canonical: Query = "/article[conf/INFOCOM][year/1996]".parse().unwrap();
        let mut memo = ReadMemo::default();
        let foreign = Bytes::from_static(b"Q:/article[year/1996][conf/INFOCOM]");
        let key = Key::hash_of("conf");
        for _ in 0..2 {
            let (targets, bytes) = memo
                .read_entry((&root(), key), DhtResponse::Values(vec![foreign.clone()]))
                .unwrap();
            assert_eq!(targets[..], [IndexTarget::Query(canonical.clone())]);
            assert_eq!(bytes, 2 + canonical.canonical_text().len() as u64);
        }
        assert_eq!(memo.interned(), [&canonical]);
    }

    #[test]
    fn a_depth_bomb_is_a_decode_error_and_leaves_both_tables_empty() {
        let (result, counts) = p2p_index_testkit::on_a_small_stack(|| {
            let mut memo = ReadMemo::default();
            let bomb = Bytes::from(format!("Q:{}", "/a".repeat(20_000)));
            let result = memo.read_entry(
                (&root(), Key::hash_of("bomb")),
                DhtResponse::Values(vec![bomb]),
            );
            (result, (memo.query_count(), memo.entry_count()))
        });
        match result {
            Err(IndexError::Decode(DecodeTargetError::BadQuery(why))) => {
                assert!(why.contains("deeper than"), "{why}");
            }
            other => panic!("expected a BadQuery decode error, got {other:?}"),
        }
        assert_eq!(counts, (0, 0));
    }

    #[test]
    fn a_descriptor_stored_under_two_keys_is_decoded_once() {
        // The simple scheme (Fig. 8) ends author+title and conf+year at the
        // MSD: one stored value under two keys.
        let descriptor = &corpus()[1];
        let msd = Query::most_specific(descriptor);
        let parents: Vec<Query> = SimpleScheme
            .index_edges(descriptor, &msd)
            .into_iter()
            .filter_map(|(from, to)| (to == msd).then_some(from))
            .collect();
        assert_eq!(parents.len(), 2, "author+title and conf+year");
        let mut memo = ReadMemo::default();
        let decoded: Vec<Arc<[IndexTarget]>> = parents
            .iter()
            .map(|parent| {
                let value = IndexTarget::Query(msd.clone()).to_bytes_under(parent);
                assert_eq!(value[0], b'S', "stored as a splice against {parent}");
                let key = Key::hash_of(parent.canonical_text());
                memo.read_entry((parent, key), DhtResponse::Values(vec![value]))
                    .unwrap()
                    .0
            })
            .collect();
        let text =
            |targets: &Arc<[IndexTarget]>| targets[0].as_query().unwrap().canonical_text().as_ptr();
        assert_eq!(decoded[0][..], [IndexTarget::Query(msd.clone())]);
        assert_eq!(
            text(&decoded[0]),
            text(&decoded[1]),
            "one allocation for both keys"
        );
        assert_ne!(text(&decoded[0]), msd.canonical_text().as_ptr());
    }

    #[test]
    fn an_old_entry_is_served_and_moved_young_and_a_dropped_one_is_read_plainly() {
        let mut memo = ReadMemo::with_generation(2);
        let keys: Vec<Key> = (0..3).map(|i| Key::hash_of(&format!("k{i}"))).collect();
        let value = |i: usize| vec![Bytes::from(format!("F:{i}.pdf"))];
        for (i, key) in keys.iter().enumerate() {
            memo.rotate();
            memo.read_entry((&root(), *key), DhtResponse::Values(value(i)))
                .unwrap();
        }
        // k0 and k1 filled a generation; k2 started the next one.
        assert_eq!((memo.entries.old.len(), memo.entries.young.len()), (2, 1));
        let unchanged = DhtResponse::digest_of(&keys[0], &value(0));
        let (targets, _) = memo.read_entry((&root(), keys[0]), unchanged).unwrap();
        assert_eq!(targets[..], [IndexTarget::File("0.pdf".into())]);
        assert_eq!((memo.entries.old.len(), memo.entries.young.len()), (1, 2));
        // The young generation is full: the next call drops k1.
        memo.rotate();
        assert_eq!(memo.read_op(keys[1]), DhtOp::Get(keys[1]));
        let seen = DhtResponse::seen_of(&keys[0], &value(0));
        assert_eq!(
            memo.read_op(keys[0]),
            DhtOp::GetIfChanged { key: keys[0], seen }
        );
        assert_eq!(memo.entry_count(), 2);
    }

    /// A random query of up to six top branches — value leaves,
    /// comparisons, whole authors — over a small pool of values, so
    /// branches repeat (and normalization merges or drops them), including
    /// values the canonical text must quote and escape.
    fn random_query(rng: &mut StdRng) -> Query {
        const VALUES: [&str; 5] = [
            "TCP",
            "1996",
            "A Space Odyssey",
            "say \"hi\"",
            "back\\slash",
        ];
        const FIELDS: [&str; 4] = ["title", "conf", "year", "author/last"];
        let value = |rng: &mut StdRng| VALUES[rng.gen_range(0..VALUES.len())];
        let branches = rng.gen_range(0..7usize);
        (0..branches)
            .fold(QueryBuilder::new("article"), |b, _| {
                let field = FIELDS[rng.gen_range(0..FIELDS.len())];
                match rng.gen_range(0..3u32) {
                    0 => b.value(field, value(rng)),
                    1 => b.compare(field, CmpOp::StartsWith, value(rng)),
                    _ => b.branch("author", |a| {
                        a.value("first", value(rng)).value("last", value(rng))
                    }),
                }
            })
            .build()
    }

    #[test]
    fn memo_backed_generalizations_are_the_querys_own_in_order() {
        for_each_case(|rng| {
            let query = random_query(rng);
            let expected = query.generalizations();
            // A random subset is known already: looked up (hashed), or
            // named by an entry the client read (decoded, unhashed).
            let mut memo = ReadMemo::default();
            let mut looked_up = vec![false; expected.len()];
            for (i, g) in expected.iter().enumerate() {
                match rng.gen_range(0..3u32) {
                    0 => {
                        memo.cached_key(g);
                        looked_up[i] = true;
                    }
                    1 => {
                        let value = IndexTarget::Query(g.clone()).to_bytes();
                        let key = Key::hash_of(&format!("entry-{i}"));
                        memo.read_entry((&root(), key), DhtResponse::Values(vec![value]))
                            .unwrap();
                    }
                    _ => {}
                }
            }
            let mut derived = Vec::new();
            memo.generalizations_into(&query, &mut derived);
            let texts = |qs: &[Query]| -> Vec<String> {
                qs.iter().map(|q| q.canonical_text().to_string()).collect()
            };
            assert_eq!(texts(&derived), texts(&expected), "{query}");
            // A looked-up generalization is the asker's own copy.
            for ((d, e), held) in derived.iter().zip(&expected).zip(&looked_up) {
                let same = std::ptr::eq(d.canonical_text(), e.canonical_text());
                assert!(same || !held, "{d} is not the table's copy");
            }
            // Every one is in the table now, and deriving again hands out
            // the very same copies.
            let mut again = Vec::new();
            memo.generalizations_into(&query, &mut again);
            for (d, a) in derived.iter().zip(&again) {
                assert!(std::ptr::eq(d.canonical_text(), a.canonical_text()), "{d}");
                assert_eq!(memo.cached_key(d), Key::hash_of(d.canonical_text()));
            }
        });
    }

    #[test]
    fn a_derived_generalization_is_hashed_only_when_a_lookup_asks() {
        let query: Query = "/article[author/last/Smith][conf/INFOCOM][year/1996]"
            .parse()
            .unwrap();
        let mut memo = ReadMemo::default();
        let mut derived = Vec::new();
        memo.generalizations_into(&query, &mut derived);
        assert_eq!(derived, query.generalizations());
        let interned: Vec<&Query> = derived.iter().collect();
        let mut sorted = interned.clone();
        sorted.sort();
        assert_eq!(memo.interned(), sorted, "each joined the known queries");
        let key_of = |memo: &ReadMemo, q: &Query| *memo.queries.peek(q.canonical_text()).unwrap().1;
        assert!(
            derived.iter().all(|g| key_of(&memo, g).is_none()),
            "no SHA-1 yet"
        );
        // The user model looks the last one up: only its key is computed.
        let asked = memo.cached_key(&derived[2]);
        assert_eq!(asked, Key::hash_of(derived[2].canonical_text()));
        assert_eq!(key_of(&memo, &derived[2]), Some(asked));
        assert!(key_of(&memo, &derived[0]).is_none());
        // A decoded target joins unhashed too.
        let child = IndexTarget::Query("/article/conf/INFOCOM".parse().unwrap());
        let (targets, _) = memo
            .read_entry(
                (&root(), Key::hash_of("e")),
                DhtResponse::Values(vec![child.to_bytes()]),
            )
            .unwrap();
        assert!(key_of(&memo, targets[0].as_query().unwrap()).is_none());
    }

    /// `cargo test --release -p p2p-index-core --lib -- --ignored`: the
    /// tables stop growing on a stream of distinct queries (ROADMAP item 7).
    #[test]
    #[ignore = "a million distinct keys: run in release"]
    fn a_million_distinct_queries_leave_both_tables_bounded() {
        let mut memo = ReadMemo::default();
        // One call here is one lookup of a fresh query whose entry names one
        // fresh query, whose three generalizations are derived as the user
        // model derives them: five new known queries and one new entry.
        let per_call = 5;
        let mut largest = (0, 0);
        let mut generalizations = Vec::new();
        for i in 0..1_000_000u32 {
            memo.rotate();
            let query: Query = format!("/article/title/T{i}").parse().unwrap();
            let key = memo.cached_key(&query);
            let year = 1990 + i % 20;
            let child = format!("Q:/article[author/last/A{i}][title/T{i}][year/{year}]");
            let (targets, _) = memo
                .read_entry((&query, key), DhtResponse::Values(vec![Bytes::from(child)]))
                .unwrap();
            generalizations.clear();
            memo.generalizations_into(targets[0].as_query().unwrap(), &mut generalizations);
            assert_eq!(generalizations.len(), 3);
            largest = (
                largest.0.max(memo.query_count()),
                largest.1.max(memo.entry_count()),
            );
        }
        // Each generation holds at most `GENERATION - 1` entries plus what
        // one call added before the next call rotates it.
        assert!(largest.0 <= 2 * (GENERATION - 1 + per_call), "{largest:?}");
        assert!(largest.1 <= 2 * GENERATION + 1, "{largest:?}");
        assert!(largest.0 > GENERATION, "the stream filled a generation");
    }
}
