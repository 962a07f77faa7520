//! File descriptors: canonicalized XML documents that identify stored files.
//!
//! A descriptor is "a textual, human-readable description of the file's
//! content" (§III-A). The node responsible for storing a file `f` is found
//! by hashing the descriptor: `k = h(d)`. For that to be well-defined the
//! descriptor text must be unique per logical descriptor, so [`Descriptor`]
//! always holds the [canonical form](crate::Element::canonicalize) of its
//! element tree.

use std::fmt;

use crate::parse::{parse, ParseXmlError};
use crate::tree::Element;

/// A canonicalized file descriptor.
///
/// Two descriptors constructed from trees that differ only in field order
/// compare equal and serialize identically — and therefore hash to the same
/// DHT key.
///
/// # Examples
///
/// ```
/// use p2p_index_xmldoc::{Descriptor, Element};
///
/// let d1 = Descriptor::new(
///     Element::new("article")
///         .with_child(Element::with_text("year", "1989"))
///         .with_child(Element::with_text("title", "TCP")),
/// );
/// let d2 = Descriptor::new(
///     Element::new("article")
///         .with_child(Element::with_text("title", "TCP"))
///         .with_child(Element::with_text("year", "1989")),
/// );
/// assert_eq!(d1, d2);
/// assert_eq!(d1.canonical_text(), d2.canonical_text());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Descriptor {
    root: Element,
}

impl Descriptor {
    /// Wraps (and canonicalizes) an element tree as a descriptor.
    pub fn new(root: Element) -> Descriptor {
        Descriptor {
            root: root.canonicalize(),
        }
    }

    /// Parses a descriptor from XML text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseXmlError`] when the text is not well-formed XML.
    pub fn parse(xml: &str) -> Result<Descriptor, ParseXmlError> {
        Ok(Descriptor::new(parse(xml)?))
    }

    /// The canonical element tree.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// The canonical serialized text — the input to `h(d)`.
    pub fn canonical_text(&self) -> String {
        self.root.to_xml()
    }

    /// Text of the element at a `/`-separated path, if present.
    pub fn field(&self, path: &str) -> Option<String> {
        self.root.path_text(path).filter(|t| !t.is_empty())
    }

    /// Consumes the descriptor and returns the underlying element tree.
    pub fn into_element(self) -> Element {
        self.root
    }
}

impl fmt::Display for Descriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_text())
    }
}

impl From<Element> for Descriptor {
    fn from(root: Element) -> Self {
        Descriptor::new(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_d1() -> Descriptor {
        Descriptor::parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>TCP</title><conf>SIGCOMM</conf><year>1989</year><size>315635</size></article>",
        )
        .unwrap()
    }

    #[test]
    fn field_access() {
        let d = fig1_d1();
        assert_eq!(d.field("author/last").as_deref(), Some("Smith"));
        assert_eq!(d.field("conf").as_deref(), Some("SIGCOMM"));
        assert_eq!(d.field("missing"), None);
    }

    #[test]
    fn canonical_text_is_order_independent() {
        let reordered = Descriptor::parse(
            "<article><size>315635</size><year>1989</year><conf>SIGCOMM</conf>\
             <title>TCP</title><author><last>Smith</last><first>John</first></author></article>",
        )
        .unwrap();
        assert_eq!(fig1_d1(), reordered);
        assert_eq!(fig1_d1().canonical_text(), reordered.canonical_text());
    }

    #[test]
    fn distinct_descriptors_have_distinct_text() {
        let d2 = Descriptor::parse(
            "<article><author><first>John</first><last>Smith</last></author>\
             <title>IPv6</title><conf>INFOCOM</conf><year>1996</year><size>312352</size></article>",
        )
        .unwrap();
        assert_ne!(fig1_d1(), d2);
        assert_ne!(fig1_d1().canonical_text(), d2.canonical_text());
    }

    #[test]
    fn parse_error_propagates() {
        assert!(Descriptor::parse("<a><b></a>").is_err());
    }

    #[test]
    fn display_and_conversions() {
        let d = fig1_d1();
        assert_eq!(d.to_string(), d.canonical_text());
        let e = d.clone().into_element();
        assert_eq!(Descriptor::from(e), d);
    }
}
