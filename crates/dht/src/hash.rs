//! A from-scratch SHA-1 implementation (FIPS 180-1 / RFC 3174).
//!
//! The paper maps descriptors and queries into the DHT key space with a hash
//! function `h(·)`; Chord historically uses SHA-1, so we implement it here
//! rather than pulling in a cryptography dependency. SHA-1 is *not* used for
//! any security purpose in this crate — it is purely the key-derivation
//! function of the simulated DHT, where its excellent output distribution is
//! what matters.
//!
//! # Examples
//!
//! ```
//! use p2p_index_dht::hash::sha1;
//!
//! let digest = sha1(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "a9993e364706816aba3e25717850c26c9cd0d89d",
//! );
//!
//! fn hex(bytes: &[u8]) -> String {
//!     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! }
//! ```

/// The size of a SHA-1 digest in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest: 160 bits, big-endian.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

/// Incremental SHA-1 hasher.
///
/// Feed input with [`Sha1::update`] and produce the digest with
/// [`Sha1::finalize`]. For one-shot hashing prefer the [`sha1`] free function.
///
/// # Examples
///
/// ```
/// use p2p_index_dht::hash::{sha1, Sha1};
///
/// let mut hasher = Sha1::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha1(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially-full block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        while input.len() >= 64 {
            let (block, rest) = input.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            input = rest;
        }
        // Stash the tail.
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Completes the hash and returns the 20-byte digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
        // big-endian bit length — one `update` of 1..=64 bytes, since the
        // tail holds 0..=63 of them.
        const PAD: [u8; 64] = {
            let mut pad = [0u8; 64];
            pad[0] = 0x80;
            pad
        };
        self.update(&PAD[..1 + (119 - self.buf_len) % 64]);
        // `update` would double-count the length bytes, so splice them in
        // manually and compress the final block.
        debug_assert_eq!(self.buf_len, 56);
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..80 {
            w[t] = (w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (t, &wt) in w.iter().enumerate() {
            let (f, k) = match t {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wt);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// Computes the SHA-1 digest of `data` in one shot.
///
/// # Examples
///
/// ```
/// use p2p_index_dht::hash::sha1;
/// assert_eq!(sha1(b""), sha1(b""));
/// assert_ne!(sha1(b"a"), sha1(b"b"));
/// ```
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Test vectors from RFC 3174 and FIPS 180-1.
    #[test]
    fn empty_message() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn rfc3174_repeated_vector() {
        // RFC 3174 TEST4: the 64-byte block "01234567…" repeated 10 times.
        let msg = b"0123456701234567012345670123456701234567012345670123456701234567".repeat(10);
        assert_eq!(hex(&sha1(&msg)), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expect = sha1(&data);
        for split in 0..data.len() {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn update_with_many_small_pieces() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha1::new();
        for byte in data.iter() {
            h.update(std::slice::from_ref(byte));
        }
        assert_eq!(h.finalize(), sha1(data));
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Padding edge cases: 55, 56, 57, 63, 64, 65-byte messages.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128] {
            let msg = vec![0xABu8; len];
            let one = sha1(&msg);
            let mut inc = Sha1::new();
            if len > 0 {
                let mid = len / 2;
                inc.update(&msg[..mid]);
                inc.update(&msg[mid..]);
            }
            assert_eq!(inc.finalize(), one, "len {len}");
        }
    }

    #[test]
    fn padding_around_block_boundaries_matches_reference_digests() {
        // `0xAB` × n, digested by Python's `hashlib.sha1`: the padding
        // fills the tail block (n = 55), spills into a second one (56, 57,
        // 63), or starts on an empty tail (0, 64, 120). The test above
        // compares two ways of feeding the same `finalize`; these pin what
        // `finalize` itself must produce.
        let reference = [
            (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (55, "6090c2fa6dd5cbd5c13f464e7001b0e4d10a138f"),
            (56, "6fa5580ac496dbf805006c3c0d103c1784690815"),
            (57, "7a3a177241cb58a755fcf2174ef5d801ae9fa704"),
            (63, "7612ebff94a5bd9aa26341e337df6d317904d707"),
            (64, "19167c83c72622dfeacbaa547af1e68786e3dd36"),
            (65, "205e0d061b826e5f0fee08f144fbac415149c627"),
            (119, "2400e634e0ba1ddddb3c3bb8e2b225a847eda6a7"),
            (120, "97552dfb88f3fdedf3f8d17df685af2bb3bd3dd4"),
        ];
        for (len, digest) in reference {
            assert_eq!(hex(&sha1(&vec![0xABu8; len])), digest, "len {len}");
        }
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(Sha1::default().finalize(), Sha1::new().finalize());
    }
}
