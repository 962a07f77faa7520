//! Offline stand-in for `bytes`.
//!
//! [`Bytes`] is an immutable byte buffer whose clones share one
//! allocation, which is the property `crates/*` rely on (stored values
//! are handed out by refcount bump). A buffer made from a `Vec<u8>` or a
//! `String` takes ownership without copying; a `'static` slice is
//! borrowed. Only the methods this repository calls exist.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared {
        buf: Arc<Vec<u8>>,
        start: usize,
        end: usize,
    },
}

/// A cheaply cloneable, immutable slice of bytes.
#[derive(Clone)]
pub struct Bytes(Repr);

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Bytes {
        Bytes(Repr::Static(&[]))
    }

    /// Borrows a `'static` slice without allocating.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes(Repr::Static(bytes))
    }

    /// Copies `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// A sub-buffer sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics when the range is decreasing or reaches past the end.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi && hi <= len, "slice {lo}..{hi} out of 0..{len}");
        match &self.0 {
            Repr::Static(s) => Bytes(Repr::Static(&s[lo..hi])),
            Repr::Shared { buf, start, .. } => Bytes(Repr::Shared {
                buf: Arc::clone(buf),
                start: start + lo,
                end: start + hi,
            }),
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared { buf, start, end } => &buf[*start..*end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Bytes {
        let end = vec.len();
        Bytes(Repr::Shared {
            buf: Arc::new(vec),
            start: 0,
            end,
        })
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.as_slice().to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

// Must agree with `[u8]`'s hash so `Borrow<[u8]>` lookups work.
impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> PartialEq<&'a [u8]> for Bytes {
    fn eq(&self, other: &&'a [u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                fmt::Write::write_char(f, c as char)?;
            }
        }
        f.write_str("\"")
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;
    use std::collections::HashMap;

    #[test]
    fn clones_and_slices_share_content() {
        let b = Bytes::from(b"Q:/article/title".to_vec());
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b.slice(2..)[..], b"/article/title");
        assert_eq!(&b.slice(..2)[..], b"Q:");
        assert!(b.starts_with(b"Q:"));
        assert_eq!(
            Bytes::from_static(b"xy").slice(1..=1),
            Bytes::from_static(b"y")
        );
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn equal_content_hashes_and_orders_alike() {
        let mut map = HashMap::new();
        map.insert(Bytes::from(String::from("k")), 1);
        assert_eq!(map.get(&Bytes::from_static(b"k")), Some(&1));
        assert_eq!(map.get(&b"k"[..]), Some(&1));
        let b = Bytes::from(vec![b'b']);
        assert!(Bytes::from_static(b"a") < b);
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\n")), "b\"a\\n\"");
    }
}
