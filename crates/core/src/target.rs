//! Index entry targets: what a lookup returns.
//!
//! The distributed indexes are a *query-to-query* service (§IV): the value
//! stored under `h(q)` is either a more specific query covered by `q`, or —
//! at the end of an index path, under the key of a most-specific query —
//! a handle to the file itself. [`IndexTarget`] is that value, with a
//! compact wire encoding used for DHT storage and for traffic accounting.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use p2p_index_xpath::{parse_query, Query};

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
    /// The publish wave reuses one scratch buffer across all entries
    /// through this.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            IndexTarget::Query(q) => {
                buf.extend_from_slice(b"Q:");
                buf.extend_from_slice(q.canonical_text().as_bytes());
            }
            IndexTarget::File(f) => encode_file_into(f, buf),
        }
    }

    /// Decodes a wire entry.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTargetError`] if the prefix is unknown, the payload
    /// is not UTF-8, or an embedded query does not parse.
    pub fn from_bytes(bytes: &[u8]) -> Result<IndexTarget, DecodeTargetError> {
        let text = std::str::from_utf8(bytes).map_err(|_| DecodeTargetError::NotUtf8)?;
        match text.split_at_checked(2) {
            Some(("Q:", q)) => parse_query(q)
                .map(IndexTarget::Query)
                .map_err(|e| DecodeTargetError::BadQuery(e.to_string())),
            Some(("F:", f)) => Ok(IndexTarget::File(f.into())),
            _ => Err(DecodeTargetError::UnknownPrefix),
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
    /// A `Q:` payload failed to parse as a query.
    BadQuery(String),
}

impl fmt::Display for DecodeTargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeTargetError::NotUtf8 => write!(f, "index entry is not valid UTF-8"),
            DecodeTargetError::UnknownPrefix => write!(f, "index entry has unknown type prefix"),
            DecodeTargetError::BadQuery(e) => write!(f, "index entry holds malformed query: {e}"),
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
        assert!(matches!(
            IndexTarget::from_bytes(b"Q:not a query"),
            Err(DecodeTargetError::BadQuery(_))
        ));
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
}
