//! DHT substrates for the p2p-index system.
//!
//! This crate implements everything below the indexing layer of
//! *Data Indexing in Peer-to-Peer DHT Networks* (Garcés-Erice et al.,
//! ICDCS 2004):
//!
//! * [`hash`] — a from-scratch SHA-1, the key-derivation function;
//! * [`key`] — the 160-bit circular identifier space with ring arithmetic;
//! * [`storage`] — per-node multi-value key stores (the paper requires
//!   "registration of multiple entries using the same key");
//! * [`chord`] — a faithful Chord protocol simulation, the routed
//!   substrate the paper assumes (finger routing, join/leave/failure,
//!   stabilization, successor lists, optional replication with
//!   DHash-style fallback reads);
//! * [`ring`] — a direct consistent-hash ring with identical key placement,
//!   used where the substrate is assumed rather than studied;
//! * [`digest`] — the order-independent hash of a key's value set that
//!   repair digests and digest reads both compare replicas by;
//! * [`placement`] — the successor-list replica placement rule, shared by
//!   the substrates here and the networked client/server in
//!   `p2p-index-net` so routing and repair can never disagree;
//! * [`faulty`] — a deterministic fault-injecting wrapper (seeded message
//!   loss, seen as timeouts) around any substrate, for robustness studies;
//! * [`api`] — the [`Dht`] trait all substrates implement, which is all the
//!   indexing layer ever sees. Operations go through the fallible
//!   [`Dht::execute`] entry point ([`DhtOp`] → [`DhtResponse`] /
//!   [`DhtError`]); `put`/`get`/`remove` remain as infallible convenience
//!   methods.
//!
//! # Quick start
//!
//! ```
//! use bytes::Bytes;
//! use p2p_index_dht::{Dht, Key, RingDht};
//!
//! let mut dht = RingDht::with_named_nodes(64);
//! let key = Key::hash_of("hello");
//! dht.put(key, Bytes::from_static(b"world"));
//! assert_eq!(dht.get(&key), vec![Bytes::from_static(b"world")]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod chord;
pub mod digest;
pub mod faulty;
pub mod hash;
pub mod key;
pub mod placement;
pub mod ring;
pub mod sharded;
pub mod split;
pub mod storage;

pub use api::{
    kind_counter, record_many, record_op, Dht, DhtError, DhtOp, DhtResponse, DhtStats, NodeId,
    OpFamily, PairCounters,
};
pub use chord::{ChordConfig, ChordError, ChordNetwork};
pub use faulty::{Delivery, FaultConfig, FaultStats, FaultyDht, LossRoll, SplitMix64};
pub use key::{Key, KEY_BITS};
pub use ring::RingDht;
pub use sharded::{repair_bucket, BucketDigests, BucketSnapshot, ShardedDht, REPAIR_BUCKETS};
pub use split::{BalanceConfig, NodeLoad, SplitDht};
pub use storage::NodeStore;
