//! # p2p-index
//!
//! A complete implementation of *Data Indexing in Peer-to-Peer DHT
//! Networks* (L. Garcés-Erice, P.A. Felber, E.W. Biersack,
//! G. Urvoy-Keller, K.W. Ross — ICDCS 2004): hierarchical, distributed,
//! query-to-query indexes that let users locate data in a DHT from
//! *partial* information, plus every substrate the paper depends on and
//! the full evaluation harness.
//!
//! This crate is the facade: it re-exports the layered workspace crates so
//! applications need a single dependency.
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | Substrate | [`dht`] | SHA-1, 160-bit key space, two in-process substrates (a Chord protocol simulation and a consistent-hash ring with identical placement), multi-value storage, seeded message-loss injection around any substrate (`FaultyDht`) |
//! | Network | [`net`] | wire codec, the `dhtd` server (replication, quorums, digest repair), `RemoteDht` client |
//! | Data model | [`xmldoc`] | XML descriptors: tree, parser, canonical form |
//! | Query language | [`xpath`] | XPath-subset parsing, evaluation, covering relation `⊒` |
//! | **Contribution** | [`index`] | index schemes, publish/search, generalization, adaptive shortcut cache |
//! | Workload | [`workload`] | synthetic bibliographic corpus, power-law popularity, query generation |
//! | Evaluation | [`sim`] | the §V simulator and per-figure experiment runners |
//!
//! # Quick start
//!
//! ```
//! use p2p_index::prelude::*;
//!
//! // A 100-node peer-to-peer network with LRU shortcut caches.
//! let dht = RingDht::with_named_nodes(100);
//! let mut service = IndexService::new(dht, CachePolicy::Lru(30));
//!
//! // Publish a file under its descriptor, indexed with the simple scheme.
//! let descriptor = Descriptor::parse(
//!     "<article><author><first>John</first><last>Smith</last></author>\
//!      <title>TCP</title><conf>SIGCOMM</conf><year>1989</year></article>",
//! )?;
//! service.publish(&descriptor, "x.pdf", &SimpleScheme)?;
//!
//! // Locate it from partial information.
//! let query: Query = "/article/title/TCP".parse()?;
//! let report = service.search(&query)?;
//! assert_eq!(report.files[0].file, "x.pdf");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! `examples/quickstart.rs` walks the paper's running example (Figures
//! 1-6) end to end; the `repro` binary in `p2p-index-sim` regenerates
//! every table and figure of the paper and runs a networked cluster.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The indexing layer (re-export of `p2p-index-core`).
pub use p2p_index_core as index;
/// DHT substrates (re-export of `p2p-index-dht`).
pub use p2p_index_dht as dht;
/// Networked DHT nodes: wire codec, dhtd server, remote client
/// (re-export of `p2p-index-net`).
pub use p2p_index_net as net;
/// The evaluation harness (re-export of `p2p-index-sim`).
pub use p2p_index_sim as sim;
/// Workload models (re-export of `p2p-index-workload`).
pub use p2p_index_workload as workload;
/// XML descriptors (re-export of `p2p-index-xmldoc`).
pub use p2p_index_xmldoc as xmldoc;
/// The query language (re-export of `p2p-index-xpath`).
pub use p2p_index_xpath as xpath;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use p2p_index_core::{
        CachePolicy, Completeness, ComplexScheme, CustomScheme, Fig4Scheme, FlatScheme, IndexError,
        IndexScheme, IndexService, IndexTarget, InitialLetterScheme, KeywordTitleScheme,
        RetryPolicy, SearchReport, SimpleScheme,
    };
    pub use p2p_index_dht::{
        ChordNetwork, Dht, DhtError, DhtOp, DhtResponse, FaultConfig, FaultyDht, Key, NodeId,
        RingDht,
    };
    pub use p2p_index_workload::{
        Corpus, CorpusConfig, QueryGenerator, QueryStructure, StructureMix,
    };
    pub use p2p_index_xmldoc::{Descriptor, Element};
    pub use p2p_index_xpath::{parse_query, CmpOp, Query, QueryBuilder};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut service = IndexService::new(RingDht::with_named_nodes(10), CachePolicy::None);
        let d = Descriptor::parse("<article><title>X</title><year>2000</year></article>")
            .expect("valid descriptor");
        service
            .publish(&d, "x.pdf", &SimpleScheme)
            .expect("publish succeeds");
        let q: Query = "/article/title/X".parse().expect("valid query");
        let report = service.search(&q).expect("search succeeds");
        assert_eq!(report.files.len(), 1);
    }
}
