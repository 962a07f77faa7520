//! Offline stand-in for `serde`.
//!
//! `crates/*` only *derive* `Serialize`/`Deserialize`; no format crate
//! drives the impls. The traits exist so `use serde::{Deserialize,
//! Serialize}` resolves in the type namespace too, and the derives (see
//! the `serde_derive` stand-in) expand to nothing.

/// Marker: never implemented by the no-op derive.
pub trait Serialize {}

/// Marker: never implemented by the no-op derive.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
