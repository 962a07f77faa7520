//! Offline stand-in for `serde_derive`.
//!
//! No format crate exists in this repository, so nothing ever calls a
//! `Serialize`/`Deserialize` impl. The derives accept the `#[serde(..)]`
//! helper attribute and expand to nothing.

use proc_macro::TokenStream;

/// Accepts the input and emits no impl.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts the input and emits no impl.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
