//! The evaluation harness for the p2p-index reproduction.
//!
//! This crate re-runs the full evaluation of §V of *Data Indexing in
//! Peer-to-Peer DHT Networks*: a 500-node network, a 10 000-article
//! distributed bibliographic database, 50 000 realistic queries per
//! (scheme × cache policy) cell, and one regenerator per table and figure.
//!
//! * [`simulation`] — the crate's one driver ([`Simulation`]: the publish
//!   loop and the user model, over any substrate) and metrics collection
//!   ([`Metrics`]);
//! * [`experiments`] — one runner per exhibit (Figs. 7, 9-15, Table I,
//!   §V-B storage), sharing a lazily-run simulation grid
//!   ([`experiments::Evaluation`]);
//! * [`exec`] — the work-queue executor that runs independent grid cells
//!   across cores while keeping every rendered table byte-identical to a
//!   serial run;
//! * [`hotspot`] — the skewed-load scenario (`repro hotspot`): a flash
//!   crowd over a large ring, measured with and without the `crates/dht`
//!   balance subsystem in the path;
//! * [`netd`] — networked-cluster control: the `repro serve` dhtd daemon,
//!   the `net-demo` remote workload client, and the publish-and-query
//!   workload the remote-vs-in-process equality tests share;
//! * [`table`] — text/CSV rendering.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run --release -p p2p-index-sim --bin repro -- fig11
//! cargo run --release -p p2p-index-sim --bin repro -- all --small --csv results/
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod experiments;
pub mod hotspot;
pub mod netd;
pub mod simulation;
pub mod table;

pub use exec::{parallel_map, resolve_jobs};
pub use experiments::{EvalConfig, Evaluation};
pub use hotspot::{HotspotConfig, HotspotReport};
pub use simulation::{Metrics, QueryOutcome, SchemeChoice, SimConfig, Simulation};
