//! The primary contribution of *Data Indexing in Peer-to-Peer DHT Networks*
//! (Garcés-Erice, Felber, Biersack, Urvoy-Keller, Ross — ICDCS 2004):
//! hierarchical, distributed, query-to-query indexes layered over an
//! arbitrary DHT, with an adaptive shortcut cache.
//!
//! A DHT only supports exact-match lookups; this crate augments it so users
//! can locate data from *partial* information. Files are stored under the
//! key of their most specific query (MSD); indexes store mappings from
//! broad queries to more specific queries they cover; searching walks the
//! covering partial order downward until files are reached.
//!
//! * [`service`] — [`IndexService`]: the protocol — publish/unpublish,
//!   single lookup steps and shortcut creation (the primitives of the
//!   paper's interactive mode), automated search with generalization —
//!   with its retries, traffic, node load and tracing;
//! * [`scheme`] — the index schemes of the paper's Fig. 8 and Fig. 4, as
//!   tables of index edges run by one interpreter, and two decorators;
//! * [`cache`] — the adaptive distributed cache (multi/single/LRU): one
//!   node's [`ShortcutCache`], and `NodeCaches`, every node's under one
//!   policy, which the service probes, fills and purges;
//! * `machine` — the index operations as step functions (a lookup step,
//!   a search, a publish or unpublish, a unary write) over the client's
//!   state, which the service's one driver runs wave by wave;
//! * `memo` — `ReadMemo`, what the querying client keeps of what it read:
//!   its known queries (one decoded copy each, with its key) and the
//!   decoded entry memo, both bounded by two generations;
//! * [`retry`] — retry policies (attempt budget, exponential backoff in
//!   simulated time, seeded jitter) applied to every DHT operation;
//! * [`target`] — the wire format of index entries;
//! * [`traffic`] — the byte-level traffic model of Fig. 12.
//!
//! # Quick start
//!
//! ```
//! use p2p_index_core::{CachePolicy, IndexService, SimpleScheme};
//! use p2p_index_dht::RingDht;
//! use p2p_index_xmldoc::Descriptor;
//!
//! let mut service = IndexService::new(RingDht::with_named_nodes(100), CachePolicy::Lru(30));
//! let d = Descriptor::parse(
//!     "<article><author><first>John</first><last>Smith</last></author>\
//!      <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
//! )?;
//! service.publish(&d, "x.pdf", &SimpleScheme)?;
//! let found = service.search(&"/article/title/TCP".parse()?)?;
//! assert_eq!(found.files[0].file, "x.pdf");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
mod machine;
mod memo;
pub mod retry;
pub mod scheme;
pub mod service;
pub mod target;
pub mod traffic;

pub use cache::{CachePolicy, ShortcutCache};
pub use retry::{RetryPolicy, RetryStats};
pub use scheme::{
    BiblioFields, ComplexScheme, EdgeSink, Fig4Scheme, FlatScheme, IndexScheme,
    InitialLetterScheme, KeywordTitleScheme, SimpleScheme,
};
pub use service::{Completeness, FileHit, IndexError, IndexService, SearchReport, StepResponse};
pub use target::{DecodeTargetError, IndexTarget};
pub use traffic::{Traffic, MESSAGE_HEADER_BYTES};
