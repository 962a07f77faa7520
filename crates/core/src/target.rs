//! Index entry targets: what a lookup returns.
//!
//! The distributed indexes are a *query-to-query* service (§IV): the value
//! stored under `h(q)` is either a more specific query covered by `q`, or —
//! at the end of an index path, under the key of a most-specific query —
//! a handle to the file itself. [`IndexTarget`] is that value, with a
//! compact wire encoding used for DHT storage and for traffic accounting.
//!
//! A query target is stored under `h(from)` as a splice against `from`
//! ([`p2p_index_xpath::splice`]): tag `S`, then the branches it adds to
//! `from`, led by its canonical length. Whoever reads `h(from)` holds
//! `from`, so it rebuilds the text from `from`'s nodes without parsing
//! either ([`IndexTarget::from_bytes_under`]). A target that is not `from` plus
//! branches, or whose splice would be no shorter, is stored in the full
//! `Q:` form, which reads without `from`. The traffic model prices every
//! query target at its full form, [`IndexTarget::encoded_len`], however
//! it is stored.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use p2p_index_xpath::splice::{self, SpliceError};
use p2p_index_xpath::{parse_query, Query, QueryRef};

/// The tag of a query target stored as a splice against the query it is
/// stored under.
const SPLICE: u8 = b'S';

/// One entry of a distributed index: the "right-hand side" of a mapping
/// `(q ; target)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexTarget {
    /// A more specific query, covered by the lookup key.
    Query(Query),
    /// A handle to stored file content (found under an MSD key). Shared,
    /// like a query's text: a target handed out of the entry memo or a
    /// shortcut cache is a refcount bump, not a copy of the handle.
    File(Arc<str>),
}

impl IndexTarget {
    /// Wire encoding: `Q:` + canonical query text, or `F:` + file handle.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Appends the wire encoding to `buf` without intermediate
    /// allocations: the query branch copies the memoized canonical text.
    /// A write stores a query target under its key's query instead
    /// ([`to_bytes_under`](Self::to_bytes_under)).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            IndexTarget::Query(q) => encode_query_into(q.view(), buf),
            IndexTarget::File(f) => encode_file_into(f, buf),
        }
    }

    /// The value stored for this target under `h(from)`: a query target
    /// as a splice against `from` when that is shorter than its full form,
    /// anything else as [`to_bytes`](Self::to_bytes) encodes it. What
    /// publish, [`insert_mapping`](crate::IndexService::insert_mapping)
    /// and the unpublish cascade write.
    pub fn to_bytes_under(&self, from: &Query) -> Bytes {
        match self {
            IndexTarget::Query(q) => {
                let mut buf = Vec::new();
                encode_query_under(from.view(), q.view(), &mut buf);
                Bytes::from(buf)
            }
            IndexTarget::File(_) => self.to_bytes(),
        }
    }

    /// Decodes a wire entry in full form.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTargetError`] if the prefix is unknown, the payload
    /// is not UTF-8, or an embedded query does not parse; a splice, which
    /// reads only against the query it is stored under
    /// ([`from_bytes_under`](Self::from_bytes_under)), is
    /// [`DecodeTargetError::Spliced`].
    pub fn from_bytes(bytes: &[u8]) -> Result<IndexTarget, DecodeTargetError> {
        if bytes.first() == Some(&SPLICE) {
            return Err(DecodeTargetError::Spliced);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| DecodeTargetError::NotUtf8)?;
        match text.split_at_checked(2) {
            Some(("Q:", q)) => parse_text(q),
            Some(("F:", f)) => Ok(IndexTarget::File(f.into())),
            _ => Err(DecodeTargetError::UnknownPrefix),
        }
    }

    /// Decodes a value stored under `h(from)`, in either form.
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](Self::from_bytes), and
    /// [`DecodeTargetError::BadSplice`] for a splice `from` cannot read.
    pub fn from_bytes_under(from: &Query, bytes: &[u8]) -> Result<IndexTarget, DecodeTargetError> {
        let mut text = String::new();
        match query_text(from.view(), bytes, &mut text)? {
            Some(text) => parse_text(text),
            None => IndexTarget::from_bytes(bytes),
        }
    }

    /// The full form's length of a stored query value, in either form —
    /// what [`encoded_len`](Self::encoded_len) of its target measures —
    /// read without decoding it or knowing its key's query; `None` for
    /// any other value.
    pub fn query_len_of(value: &[u8]) -> Option<usize> {
        match value.split_first() {
            Some((&SPLICE, splice)) => splice::canonical_len(splice).map(|len| 2 + len),
            _ => value.starts_with(b"Q:").then_some(value.len()),
        }
    }

    /// Size of the wire encoding in bytes — the unit of the traffic model.
    /// Allocation-free: the query branch reads the memoized canonical text.
    pub fn encoded_len(&self) -> usize {
        match self {
            IndexTarget::Query(q) => 2 + q.canonical_text().len(),
            IndexTarget::File(f) => 2 + f.len(),
        }
    }

    /// The query inside, if this is a query target.
    pub fn as_query(&self) -> Option<&Query> {
        match self {
            IndexTarget::Query(q) => Some(q),
            IndexTarget::File(_) => None,
        }
    }
}

impl fmt::Display for IndexTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexTarget::Query(q) => write!(f, "query {q}"),
            IndexTarget::File(file) => write!(f, "file {file}"),
        }
    }
}

/// Appends `F:` + `file` to `buf`: the wire encoding of
/// `IndexTarget::File(file)` for writers that hold the handle as a `&str`,
/// so publishing or removing a file never builds an `Arc<str>` just to
/// encode it.
pub(crate) fn encode_file_into(file: &str, buf: &mut Vec<u8>) {
    buf.extend_from_slice(b"F:");
    buf.extend_from_slice(file.as_bytes());
}

/// Appends `Q:` + `query`'s canonical text to `buf`: the wire encoding
/// of `IndexTarget::Query` for writers that hold the query as a view, so
/// a write never freezes a query just to encode it.
pub(crate) fn encode_query_into(query: QueryRef<'_>, buf: &mut Vec<u8>) {
    buf.extend_from_slice(b"Q:");
    buf.extend_from_slice(query.canonical_text().as_bytes());
}

/// Appends the value of query target `to` stored under `h(from)`: the
/// splice when it is shorter than the full form, else the full form. Both
/// are a pure function of the pair, so a remove rebuilds what its put
/// stored.
pub(crate) fn encode_query_under(from: QueryRef<'_>, to: QueryRef<'_>, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.push(SPLICE);
    if splice::encode(from, to, buf) && buf.len() - start < 2 + to.canonical_text().len() {
        return;
    }
    buf.truncate(start);
    encode_query_into(to, buf);
}

/// The canonical text a stored value names, if it names a query: a full
/// `Q:` value's own text (`None` if it is not UTF-8, which
/// [`IndexTarget::from_bytes`] then reports), or a splice's text rebuilt
/// against `from` into `buf` — the read path's one buffer, kept.
pub(crate) fn query_text<'b>(
    from: QueryRef<'_>,
    value: &'b [u8],
    buf: &'b mut String,
) -> Result<Option<&'b str>, DecodeTargetError> {
    match value.split_first() {
        Some((&SPLICE, splice)) => {
            buf.clear();
            splice::decode(from, splice, buf).map_err(DecodeTargetError::BadSplice)?;
            Ok(Some(buf))
        }
        _ => Ok(value
            .strip_prefix(b"Q:")
            .and_then(|q| std::str::from_utf8(q).ok())),
    }
}

/// A query target's text, parsed.
pub(crate) fn parse_text(text: &str) -> Result<IndexTarget, DecodeTargetError> {
    parse_query(text)
        .map(IndexTarget::Query)
        .map_err(|e| DecodeTargetError::BadQuery(e.to_string()))
}

impl From<Query> for IndexTarget {
    fn from(q: Query) -> Self {
        IndexTarget::Query(q)
    }
}

/// Errors decoding a wire entry back into an [`IndexTarget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeTargetError {
    /// The payload was not valid UTF-8.
    NotUtf8,
    /// The two-byte type prefix was not `Q:` or `F:`.
    UnknownPrefix,
    /// A `Q:` payload, or a splice's rebuilt text, failed to parse as a
    /// query.
    BadQuery(String),
    /// A splice, read without the query it is stored under.
    Spliced,
    /// A splice the query it is stored under cannot read.
    BadSplice(SpliceError),
}

impl fmt::Display for DecodeTargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeTargetError::NotUtf8 => write!(f, "index entry is not valid UTF-8"),
            DecodeTargetError::UnknownPrefix => write!(f, "index entry has unknown type prefix"),
            DecodeTargetError::BadQuery(e) => write!(f, "index entry holds malformed query: {e}"),
            DecodeTargetError::Spliced => {
                write!(f, "index entry is a splice, read without its key's query")
            }
            DecodeTargetError::BadSplice(e) => write!(f, "index entry holds a {e}"),
        }
    }
}

impl Error for DecodeTargetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q: Query = "/article/author/last/Smith".parse().unwrap();
        let t = IndexTarget::Query(q.clone());
        let decoded = IndexTarget::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
        assert_eq!(decoded.as_query(), Some(&q));
    }

    #[test]
    fn file_roundtrip() {
        let t = IndexTarget::File("x.pdf".into());
        let decoded = IndexTarget::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
        assert_eq!(decoded.as_query(), None);
    }

    #[test]
    fn encoded_len_matches_wire_bytes() {
        let q: Query = "/article[conf/INFOCOM][year/1996]".parse().unwrap();
        for t in [IndexTarget::Query(q), IndexTarget::File("y.pdf".into())] {
            assert_eq!(t.encoded_len(), t.to_bytes().len());
        }
    }

    #[test]
    fn encode_into_appends_wire_bytes() {
        let q: Query = "/article[conf/SIGCOMM]/author/last/Liu".parse().unwrap();
        let targets = [IndexTarget::Query(q), IndexTarget::File("z.pdf".into())];
        let mut buf = Vec::new();
        for t in &targets {
            buf.clear();
            buf.extend_from_slice(b"junk-prefix");
            t.encode_into(&mut buf);
            assert_eq!(&buf[11..], &t.to_bytes()[..], "appends, never rewrites");
        }
    }

    #[test]
    fn decode_errors() {
        assert_eq!(
            IndexTarget::from_bytes(&[0xFF, 0xFE, 0xFD]),
            Err(DecodeTargetError::NotUtf8)
        );
        assert_eq!(
            IndexTarget::from_bytes(b"X:what"),
            Err(DecodeTargetError::UnknownPrefix)
        );
        assert_eq!(
            IndexTarget::from_bytes(b"Q"),
            Err(DecodeTargetError::UnknownPrefix)
        );
        // Malformed text, and text in syntax the language no longer has.
        for value in [
            &b"Q:not a query"[..],
            b"Q://x",
            b"Q:/a/*",
            b"Q:/a[y!=1]",
            b"Q:/a[y<1]",
            b"Q:/a[y>=1]",
        ] {
            assert!(
                matches!(
                    IndexTarget::from_bytes(value),
                    Err(DecodeTargetError::BadQuery(_))
                ),
                "{}",
                String::from_utf8_lossy(value)
            );
        }
    }

    #[test]
    fn display_forms() {
        let q: Query = "/a/b".parse().unwrap();
        assert_eq!(IndexTarget::Query(q).to_string(), "query /a/b");
        assert_eq!(IndexTarget::File("f".into()).to_string(), "file f");
        assert!(!DecodeTargetError::UnknownPrefix.to_string().is_empty());
    }

    #[test]
    fn from_query_conversion() {
        let q: Query = "/a".parse().unwrap();
        let t: IndexTarget = q.clone().into();
        assert_eq!(t.as_query(), Some(&q));
    }

    #[test]
    fn a_stored_depth_bomb_is_a_decode_error() {
        // Reachable from the network: any peer can store this value, and
        // every client that reads it parses it. It used to overflow the
        // reader's stack.
        let value = format!("Q:{}", "/a".repeat(20_000));
        let decoded =
            p2p_index_testkit::on_a_small_stack(move || IndexTarget::from_bytes(value.as_bytes()));
        match decoded {
            Err(DecodeTargetError::BadQuery(why)) => assert!(why.contains("deeper than"), "{why}"),
            other => panic!("expected BadQuery, got {other:?}"),
        }
        // The deepest query there is still travels.
        let deepest: Query = "/a".repeat(p2p_index_xpath::MAX_DEPTH).parse().unwrap();
        let target = IndexTarget::Query(deepest);
        assert_eq!(IndexTarget::from_bytes(&target.to_bytes()), Ok(target));
    }

    #[test]
    fn a_splice_holding_a_depth_bomb_is_a_decode_error() {
        // A splice's fragment is text a peer chose, and its rebuilt text
        // is parsed like a full value's: a deep one is refused typed.
        let from: Query = "/a".parse().unwrap();
        let fragment = "/b".repeat(20_000);
        let fragment = &fragment[1..];
        let mut value = vec![SPLICE];
        for n in [2 + 1 + fragment.len(), 0, 0, fragment.len()] {
            let mut n = n;
            while n >= 0x80 {
                value.push(n as u8 | 0x80);
                n >>= 7;
            }
            value.push(n as u8);
        }
        value.extend_from_slice(fragment.as_bytes());
        let decoded = p2p_index_testkit::on_a_small_stack(move || {
            IndexTarget::from_bytes_under(&from, &value)
        });
        match decoded {
            Err(DecodeTargetError::BadQuery(why)) => assert!(why.contains("deeper than"), "{why}"),
            other => panic!("expected BadQuery, got {other:?}"),
        }
    }

    #[test]
    fn a_stored_query_value_measures_its_full_form_in_either_form() {
        let from: Query = "/article/conf/INFOCOM".parse().unwrap();
        let to: Query = "/article[conf/INFOCOM][year/1996]".parse().unwrap();
        let target = IndexTarget::Query(to);
        let spliced = target.to_bytes_under(&from);
        assert_eq!(spliced[0], SPLICE);
        assert!(spliced.len() < target.encoded_len());
        for value in [spliced, target.to_bytes()] {
            assert_eq!(
                IndexTarget::query_len_of(&value),
                Some(target.encoded_len())
            );
            assert_eq!(
                IndexTarget::from_bytes_under(&from, &value).as_ref(),
                Ok(&target)
            );
        }
        assert_eq!(IndexTarget::query_len_of(b"F:x.pdf"), None);
        assert_eq!(
            IndexTarget::from_bytes(&target.to_bytes_under(&from)),
            Err(DecodeTargetError::Spliced)
        );
    }
}
