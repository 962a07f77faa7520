//! Wire protocol and networked DHT nodes for the p2p-index stack.
//!
//! Everything below the index layer so far has been in-process: the
//! substrates in `crates/dht` simulate a network by counting messages.
//! This crate makes the network real while keeping the simulation exact:
//!
//! - [`wire`] — a length-prefixed binary codec for every
//!   [`DhtOp`](p2p_index_dht::DhtOp) /
//!   [`DhtResponse`](p2p_index_dht::DhtResponse) /
//!   [`DhtError`](p2p_index_dht::DhtError), with request ids for
//!   pipelining, `Batch`/`BatchReply` frames carrying many ops per
//!   round-trip, and strict typed rejection of malformed frames. The
//!   frame format is specified byte-by-byte in `DESIGN.md` §11.
//! - [`server`] — [`DhtServer`], the threaded `dhtd` daemon: an accept
//!   loop plus per-connection worker threads serving one node's storage
//!   partition from one sharded store, every frame through one
//!   socket-free dispatch function. Exposed as `repro serve`.
//! - [`client`] — [`RemoteDht`], the [`Dht`](p2p_index_dht::Dht) trait
//!   over one TCP link per member; `execute_many` routes a whole batch as
//!   one pipelined frame pair per member. Transport failures map to the
//!   transient
//!   [`DhtError::Timeout`](p2p_index_dht::DhtError::Timeout), so
//!   `IndexService`'s retry policy and the whole indexing stack run
//!   unchanged over real sockets.
//! - `link` (private) — the dialing side both of them share: the crate's
//!   one dial, the frame buffer beside each connection, and the
//!   one-connection-per-remote-member slot a client holds for each member
//!   and a replicated server for each peer.
//! - [`cluster`] — in-process loopback clusters for tests and benches;
//!   the multi-process harness lives in the sim crate.
//!
//! The crate is plain `std` — TCP sockets, threads, atomics — with zero
//! new external dependencies, so networking never changes what the
//! simulation builds against. All deterministic paper experiments remain
//! in-process and byte-identical; the network is strictly additive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
mod link;
pub mod server;
pub mod wire;

pub use client::{RemoteDht, RemoteDhtConfig};
pub use cluster::{ClusterDht, LoopbackCluster};
pub use server::{DhtServer, ReplicationConfig, ServerConfig};
pub use wire::{Message, RecvError, WireError, MAX_PAYLOAD, VERSION};
