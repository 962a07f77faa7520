//! Offline stand-in for `parking_lot`.
//!
//! `crates/dht` lists the crate as a dependency but only its integration
//! tests use it, and the benchmark does not build those; an empty library
//! satisfies the resolver.
