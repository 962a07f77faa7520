//! The order-independent hash of a key's value set — the one definition
//! all of its users call:
//!
//! * every store keeps it per key, one pair at a time as each write lands
//!   ([`StoredValues::seen`](crate::StoredValues::seen)), so a digest or
//!   conditional read answers without hashing a value;
//! * a replicated store adds and subtracts the same pair hashes per ring
//!   arc to keep its repair digests
//!   ([`ShardedDht::kept_digests`](crate::ShardedDht::kept_digests));
//! * [`ShardedDht::bucket_digests`](crate::ShardedDht::bucket_digests)
//!   folds it over a whole partition in one sweep — the oracle the kept
//!   sums are tested against, equal to them to the bit because a wrapping
//!   sum does not care how it was added up;
//! * a quorum read compares it across replicas instead of shipping the
//!   value list twice ([`DhtResponse::digest_of`](crate::DhtResponse::digest_of)).

use crate::key::Key;

/// Class tag of values a store holds: what a `Get` returns, and the first
/// of the two classes a repair bucket digest covers.
pub const STORED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Class tag of tombstones. A pair that is both stored and tombstoned (a
/// member restored from an old image) contributes under both classes, so
/// it digests differently from the healthy "tombstoned only" state and
/// gets scrubbed.
pub const DEAD: u64 = 0xc2b2_ae3d_27d4_eb4f;

fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The digest of `key`'s `values` as members of `class`: the wrapping sum
/// of one 64-bit hash per `(class, key, value)` pair ([`pair_digest`]), so
/// neither the order of the values nor the order keys are visited in
/// matters. Little-endian word-wise mixing with a SplitMix64 finish — fast
/// and host-independent, not collision-resistant against an adversary (a
/// collision costs one skipped repair of one bucket, or one read answered
/// by one replica fewer than asked; never a value nobody holds).
pub fn values_digest<'a>(class: u64, key: &Key, values: impl Iterator<Item = &'a [u8]>) -> u64 {
    let keyed = keyed(class, key);
    values.fold(0u64, |sum, value| sum.wrapping_add(finish(keyed, value)))
}

/// The hash of the one pair `(class, key, value)`: what a store that keeps
/// a digest on write adds when the pair arrives and subtracts when it
/// leaves, equal to `values_digest` of that one value.
pub fn pair_digest(class: u64, key: &Key, value: &[u8]) -> u64 {
    finish(keyed(class, key), value)
}

fn word(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(le)
}

/// The state every pair of `key` in `class` starts its hash from.
fn keyed(class: u64, key: &Key) -> u64 {
    key.as_bytes().chunks(8).fold(class, |h, c| mix(h, word(c)))
}

/// One pair's hash, from its key's state.
fn finish(keyed: u64, value: &[u8]) -> u64 {
    let mut h = mix(keyed, value.len() as u64);
    let mut words = value.chunks_exact(8);
    for w in &mut words {
        h = mix(h, word(w));
    }
    if !words.remainder().is_empty() {
        h = mix(h, word(words.remainder()));
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}
