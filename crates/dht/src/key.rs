//! The 160-bit circular key space shared by nodes and data items.
//!
//! Chord (and the paper's indexing layer on top of it) places both node
//! identifiers and data keys on the same identifier circle of size `2^160`.
//! [`Key`] is an opaque big-endian 160-bit integer with the modular
//! arithmetic that ring routing needs: clockwise distance, interval
//! membership, and `+2^i` finger offsets.

use std::fmt;

use crate::hash::{sha1, Digest, DIGEST_LEN};

/// Number of bits in the identifier space (SHA-1 output width).
pub const KEY_BITS: usize = 160;

/// A point on the `2^160` identifier circle.
///
/// Keys are ordered as big-endian unsigned integers; ring-aware comparisons
/// go through [`Key::in_interval`] and [`Key::distance_clockwise`] instead of
/// `Ord`, which has no "wrap-around" notion.
///
/// # Examples
///
/// ```
/// use p2p_index_dht::Key;
///
/// let k = Key::hash_of("article/author/Smith");
/// assert_eq!(k, Key::hash_of("article/author/Smith"));
/// assert_ne!(k, Key::hash_of("article/author/Doe"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key([u8; DIGEST_LEN]);

impl Key {
    /// The smallest key, `0`.
    pub const ZERO: Key = Key([0u8; DIGEST_LEN]);

    /// The largest key, `2^160 - 1`.
    pub const MAX: Key = Key([0xFFu8; DIGEST_LEN]);

    /// Derives a key from arbitrary bytes via SHA-1.
    pub fn hash_of_bytes(data: &[u8]) -> Key {
        Key(sha1(data))
    }

    /// Derives a key by hashing the UTF-8 bytes of `text`.
    ///
    /// This is the `k = h(d)` mapping of the paper: descriptors and queries
    /// are rendered to their canonical string form and hashed into the ring.
    pub fn hash_of(text: &str) -> Key {
        Key::hash_of_bytes(text.as_bytes())
    }

    /// Builds a key directly from a 20-byte digest.
    pub fn from_digest(digest: Digest) -> Key {
        Key(digest)
    }

    /// Returns the raw big-endian bytes of the key.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Builds a key from a `u64`, occupying the low-order bytes.
    ///
    /// Handy for tests and for synthetic node placement.
    pub fn from_u64(value: u64) -> Key {
        let mut bytes = [0u8; DIGEST_LEN];
        bytes[DIGEST_LEN - 8..].copy_from_slice(&value.to_be_bytes());
        Key(bytes)
    }

    /// Truncates the key to its low-order 64 bits.
    pub fn low_u64(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[DIGEST_LEN - 8..]);
        u64::from_be_bytes(b)
    }

    /// Modular addition on the identifier circle.
    #[must_use]
    pub fn wrapping_add(&self, other: &Key) -> Key {
        let mut out = [0u8; DIGEST_LEN];
        let mut carry = 0u16;
        for i in (0..DIGEST_LEN).rev() {
            let sum = self.0[i] as u16 + other.0[i] as u16 + carry;
            out[i] = (sum & 0xFF) as u8;
            carry = sum >> 8;
        }
        Key(out)
    }

    /// Modular subtraction on the identifier circle (`self - other mod 2^160`).
    #[must_use]
    pub fn wrapping_sub(&self, other: &Key) -> Key {
        let mut out = [0u8; DIGEST_LEN];
        let mut borrow = 0i16;
        for i in (0..DIGEST_LEN).rev() {
            let diff = self.0[i] as i16 - other.0[i] as i16 - borrow;
            if diff < 0 {
                out[i] = (diff + 256) as u8;
                borrow = 1;
            } else {
                out[i] = diff as u8;
                borrow = 0;
            }
        }
        Key(out)
    }

    /// Returns `2^exp` as a key. Used for Chord finger offsets.
    ///
    /// # Panics
    ///
    /// Panics if `exp >= 160`.
    pub fn power_of_two(exp: usize) -> Key {
        assert!(
            exp < KEY_BITS,
            "exponent {exp} out of range for {KEY_BITS}-bit keys"
        );
        let mut bytes = [0u8; DIGEST_LEN];
        let byte = DIGEST_LEN - 1 - exp / 8;
        bytes[byte] = 1 << (exp % 8);
        Key(bytes)
    }

    /// The clockwise distance from `self` to `target` on the circle.
    ///
    /// Zero iff the keys are equal; otherwise in `1..2^160`.
    #[must_use]
    pub fn distance_clockwise(&self, target: &Key) -> Key {
        target.wrapping_sub(self)
    }

    /// The XOR of two keys — the distance metric of Kademlia.
    #[must_use]
    pub fn xor(&self, other: &Key) -> Key {
        let mut out = [0u8; DIGEST_LEN];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.0[i] ^ other.0[i];
        }
        Key(out)
    }

    /// Number of leading zero bits (0 for the top-bit-set keys, 160 for
    /// [`Key::ZERO`]). `159 - leading_zeros(a XOR b)` is the Kademlia
    /// bucket index of `b` relative to `a`.
    pub fn leading_zeros(&self) -> usize {
        let mut zeros = 0;
        for byte in &self.0 {
            if *byte == 0 {
                zeros += 8;
            } else {
                zeros += byte.leading_zeros() as usize;
                break;
            }
        }
        zeros
    }

    /// Tests membership in the half-open ring interval `(from, to]`.
    ///
    /// This is the interval Chord uses to decide key responsibility: a node
    /// `n` is responsible for every key in `(predecessor(n), n]`. The
    /// interval wraps around zero, and `(x, x]` denotes the *full* circle
    /// (every key is a member), matching Chord's single-node base case.
    ///
    /// # Examples
    ///
    /// ```
    /// use p2p_index_dht::Key;
    ///
    /// let a = Key::from_u64(10);
    /// let b = Key::from_u64(20);
    /// assert!(Key::from_u64(15).in_interval(&a, &b));
    /// assert!(Key::from_u64(20).in_interval(&a, &b)); // closed at `to`
    /// assert!(!Key::from_u64(10).in_interval(&a, &b)); // open at `from`
    /// // Wrap-around: (20, 10] contains 5 and MAX but not 15.
    /// assert!(Key::from_u64(5).in_interval(&b, &a));
    /// assert!(!Key::from_u64(15).in_interval(&b, &a));
    /// ```
    pub fn in_interval(&self, from: &Key, to: &Key) -> bool {
        if from == to {
            // Full circle.
            return true;
        }
        // Clockwise distance comparison avoids case analysis on wrapping.
        let span = from.distance_clockwise(to);
        let offset = from.distance_clockwise(self);
        offset != Key::ZERO && offset <= span
    }

    /// Tests membership in the open ring interval `(from, to)`.
    pub fn in_open_interval(&self, from: &Key, to: &Key) -> bool {
        self != to && self.in_interval(from, to)
    }

    /// Renders the key as a full 40-character lowercase hex string.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviated form: first 8 hex digits are plenty for log output.
        write!(
            f,
            "Key({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<Digest> for Key {
    fn from(digest: Digest) -> Self {
        Key(digest)
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_index_testkit::{digest, for_each_case, Rng, StdRng};

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 42, u64::MAX] {
            assert_eq!(Key::from_u64(v).low_u64(), v);
        }
    }

    #[test]
    fn add_sub_inverse() {
        let a = Key::hash_of("a");
        let b = Key::hash_of("b");
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        assert_eq!(a.wrapping_sub(&b).wrapping_add(&b), a);
    }

    #[test]
    fn add_carries_across_bytes() {
        let a = Key::from_u64(u64::MAX);
        let one = Key::from_u64(1);
        let sum = a.wrapping_add(&one);
        // 2^64 sets the 9th byte from the end.
        assert_eq!(sum.low_u64(), 0);
        assert_eq!(sum.as_bytes()[DIGEST_LEN - 9], 1);
    }

    #[test]
    fn max_plus_one_wraps_to_zero() {
        assert_eq!(Key::MAX.wrapping_add(&Key::from_u64(1)), Key::ZERO);
    }

    #[test]
    fn zero_minus_one_wraps_to_max() {
        assert_eq!(Key::ZERO.wrapping_sub(&Key::from_u64(1)), Key::MAX);
    }

    #[test]
    fn power_of_two_values() {
        assert_eq!(Key::power_of_two(0), Key::from_u64(1));
        assert_eq!(Key::power_of_two(1), Key::from_u64(2));
        assert_eq!(Key::power_of_two(63), Key::from_u64(1 << 63));
        // 2^159 sets the top bit of the first byte.
        assert_eq!(Key::power_of_two(159).as_bytes()[0], 0x80);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn power_of_two_out_of_range_panics() {
        let _ = Key::power_of_two(160);
    }

    #[test]
    fn interval_basic() {
        let a = Key::from_u64(10);
        let b = Key::from_u64(20);
        assert!(Key::from_u64(11).in_interval(&a, &b));
        assert!(Key::from_u64(20).in_interval(&a, &b));
        assert!(!Key::from_u64(10).in_interval(&a, &b));
        assert!(!Key::from_u64(21).in_interval(&a, &b));
    }

    #[test]
    fn interval_wraps() {
        let a = Key::from_u64(20);
        let b = Key::from_u64(10);
        assert!(Key::from_u64(25).in_interval(&a, &b));
        assert!(Key::MAX.in_interval(&a, &b));
        assert!(Key::ZERO.in_interval(&a, &b));
        assert!(Key::from_u64(10).in_interval(&a, &b));
        assert!(!Key::from_u64(15).in_interval(&a, &b));
    }

    #[test]
    fn degenerate_interval_is_full_circle() {
        let a = Key::from_u64(7);
        assert!(Key::from_u64(7).in_interval(&a, &a));
        assert!(Key::from_u64(1234).in_interval(&a, &a));
        assert!(Key::MAX.in_interval(&a, &a));
    }

    #[test]
    fn open_interval_excludes_endpoint() {
        let a = Key::from_u64(10);
        let b = Key::from_u64(20);
        assert!(!Key::from_u64(20).in_open_interval(&a, &b));
        assert!(Key::from_u64(19).in_open_interval(&a, &b));
    }

    #[test]
    fn xor_properties() {
        let a = Key::hash_of("a");
        let b = Key::hash_of("b");
        assert_eq!(a.xor(&a), Key::ZERO);
        assert_eq!(a.xor(&b), b.xor(&a));
        assert_eq!(a.xor(&b).xor(&b), a);
        assert_eq!(a.xor(&Key::ZERO), a);
    }

    #[test]
    fn leading_zeros_counts() {
        assert_eq!(Key::ZERO.leading_zeros(), 160);
        assert_eq!(Key::MAX.leading_zeros(), 0);
        assert_eq!(Key::from_u64(1).leading_zeros(), 159);
        assert_eq!(Key::from_u64(2).leading_zeros(), 158);
        assert_eq!(Key::power_of_two(159).leading_zeros(), 0);
        assert_eq!(Key::power_of_two(100).leading_zeros(), 59);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let k = Key::hash_of("x");
        assert_eq!(k.to_string().len(), 40);
        assert!(format!("{k:?}").starts_with("Key("));
    }

    #[test]
    fn distance_zero_iff_equal() {
        let a = Key::hash_of("same");
        assert_eq!(a.distance_clockwise(&a), Key::ZERO);
        let b = Key::hash_of("other");
        assert_ne!(a.distance_clockwise(&b), Key::ZERO);
    }

    fn arb_key(rng: &mut StdRng) -> Key {
        Key(digest(rng))
    }

    #[test]
    fn add_is_commutative() {
        for_each_case(|rng| {
            let (a, b) = (arb_key(rng), arb_key(rng));
            assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
        });
    }

    #[test]
    fn sub_is_inverse_of_add() {
        for_each_case(|rng| {
            let (a, b) = (arb_key(rng), arb_key(rng));
            assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        });
    }

    #[test]
    fn distance_triangle_on_circle() {
        for_each_case(|rng| {
            let (a, b, c) = (arb_key(rng), arb_key(rng), arb_key(rng));
            // Going a->b->c clockwise covers the circle the same as a->c plus
            // possibly whole laps; distances are mod 2^160 so the sum of legs
            // equals the direct distance exactly (mod the circle).
            let ab = a.distance_clockwise(&b);
            let bc = b.distance_clockwise(&c);
            let ac = a.distance_clockwise(&c);
            assert_eq!(ab.wrapping_add(&bc), ac);
        });
    }

    #[test]
    fn interval_partition() {
        for_each_case(|rng| {
            // For a != b, every x is in exactly one of (a, b] and (b, a].
            let (x, a, b) = (arb_key(rng), arb_key(rng), arb_key(rng));
            if a == b {
                return;
            }
            let left = x.in_interval(&a, &b);
            let right = x.in_interval(&b, &a);
            assert!(left ^ right);
        });
    }

    #[test]
    fn hash_is_deterministic() {
        for_each_case(|rng| {
            // Any text, not just ASCII: every scalar value is fair game.
            let s: String = (0..rng.gen_range(0..32usize))
                .filter_map(|_| char::from_u32(rng.gen_range(0..=u32::from(char::MAX))))
                .collect();
            assert_eq!(Key::hash_of(&s), Key::hash_of(&s));
        });
    }
}
