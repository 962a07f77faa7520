//! Semi-structured XML descriptors for the p2p-index system.
//!
//! Files stored in the peer-to-peer network are identified by *descriptors*
//! — "textual, human-readable descriptions of the file's content" (§III of
//! *Data Indexing in Peer-to-Peer DHT Networks*), expressed as
//! semi-structured XML in the style of DBLP records. This crate provides:
//!
//! * [`tree`] — the element tree model, serialization (compact and pretty),
//!   and the canonical form that makes hashing well-defined;
//! * [`parse`](mod@parse) — a recursive-descent parser for the XML subset
//!   descriptors use, with located errors;
//! * [`descriptor`] — the [`Descriptor`] wrapper that couples a tree to its
//!   canonical text (the input of `k = h(d)`).
//!
//! # Quick start
//!
//! ```
//! use p2p_index_xmldoc::Descriptor;
//!
//! let d = Descriptor::parse(
//!     "<article><author><first>John</first><last>Smith</last></author>\
//!      <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
//! )?;
//! assert_eq!(d.field("author/last").as_deref(), Some("Smith"));
//! # Ok::<(), p2p_index_xmldoc::ParseXmlError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod descriptor;
pub mod parse;
pub mod tree;

pub use descriptor::Descriptor;
pub use parse::{parse, ParseErrorKind, ParseXmlError, MAX_DEPTH};
pub use tree::{escape, Element, XmlNode};
