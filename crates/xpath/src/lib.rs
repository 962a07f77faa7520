//! The XPath-subset query language of the p2p-index system.
//!
//! Users locate files with *queries* — expressions in "a subset of the
//! XPath XML addressing language, which offers a good compromise between
//! expressiveness and simplicity" (§III-B of *Data Indexing in Peer-to-Peer
//! DHT Networks*). The subset is the paper's: child steps and predicates,
//! XP{/,[]}, with value leaves (`/article/title/TCP`) and the comparisons
//! the index schemes emit, `=`, `^=` and `*=`. This crate provides the
//! full query toolchain:
//!
//! * [`ast`] — normalized tree patterns ([`Query`]), frozen into one
//!   buffer whose head, the canonical `Display` text, is the hash input
//!   `h(q)`; [`QueryRef`] is the borrowed view of such a buffer, wherever
//!   it lives (a query, or a caller's [`PackedQueries`]), and [`NodeRef`]
//!   the borrowed view of one node;
//! * [`parse`](mod@parse) — the surface-syntax parser ([`parse_query`]);
//! * [`eval`] — matching queries against descriptors ([`Query::matches`]),
//!   the semantics `covers` is tested against;
//! * [`cover`] — the covering relation `⊒` ([`Query::covers`]), the partial
//!   order that index paths traverse, exact on this language;
//! * [`builder`] — programmatic construction ([`QueryBuilder`]) and MSD
//!   derivation ([`Query::most_specific`]);
//! * [`splice`] — a query written against a query that covers it: only
//!   the branches it adds, as an index entry stores it under `h(q)`.
//!
//! # Quick start
//!
//! ```
//! use p2p_index_xmldoc::Descriptor;
//! use p2p_index_xpath::{parse_query, Query};
//!
//! let d = Descriptor::parse(
//!     "<article><author><first>John</first><last>Smith</last></author>\
//!      <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
//! )?;
//! let msd = Query::most_specific(&d);
//! let broad = parse_query("/article/author/last/Smith")?;
//! assert!(broad.matches(d.root()));
//! assert!(broad.covers(&msd));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod builder;
pub mod cover;
mod draft;
pub mod eval;
pub mod parse;
pub mod splice;

pub use ast::{
    Built, CmpOp, Comparison, KnownQueries, NodeRef, PackedQueries, PackedSpan, Query, QueryRef,
    TooDeep, MAX_DEPTH,
};
pub use builder::{QueryBuilder, QuerySteps};
pub use parse::{parse_query, ParseQueryError, QueryErrorKind};
