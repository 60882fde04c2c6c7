//! The workspace's one digest: SipHash-1-3 (one round per 8-byte word, three
//! to finish) under a zero key, over bytes its caller writes, integers
//! little-endian. It is no [`std::hash::Hasher`], so no `Hash` impl (whose
//! bytes std may change) feeds it. How writes split the stream is immaterial.

use std::fmt;

/// An incremental SipHash-1-3 digest under a zero key.
#[derive(Debug, Clone)]
pub struct Digest {
    v: [u64; 4],
    /// The last `length % 8` bytes written, packed little-endian.
    tail: u64,
    /// Bytes written in all; its low byte enters the last block.
    length: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// A digest of nothing yet.
    pub fn new() -> Self {
        Digest {
            v: [
                0x736f_6d65_7073_6575,
                0x646f_7261_6e64_6f6d,
                0x6c79_6765_6e65_7261,
                0x7465_6462_7974_6573,
            ],
            tail: 0,
            length: 0,
        }
    }

    #[inline]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    /// Compress one 8-byte word.
    #[inline]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.v[0] ^= m;
    }

    /// Append the low `n` bytes (1 to 8; the rest are zero) of `x`.
    #[inline]
    fn int(&mut self, x: u64, n: usize) {
        let ntail = (self.length % 8) as usize;
        self.length = self.length.wrapping_add(n as u64);
        self.tail |= x << (8 * ntail);
        if ntail + n >= 8 {
            self.compress(self.tail);
            self.tail = x.checked_shr(8 * (8 - ntail) as u32).unwrap_or(0);
        }
    }

    /// Append bytes as they are.
    #[inline]
    pub fn bytes(&mut self, msg: &[u8]) {
        for chunk in msg.chunks(8) {
            self.int(le(chunk), chunk.len());
        }
    }

    /// Append a byte.
    #[inline]
    pub fn u8(&mut self, x: u8) {
        self.int(u64::from(x), 1);
    }

    /// Append two bytes, little-endian.
    #[inline]
    pub fn u16(&mut self, x: u16) {
        self.int(u64::from(x), 2);
    }

    /// Append four bytes, little-endian.
    #[inline]
    pub fn u32(&mut self, x: u32) {
        self.int(u64::from(x), 4);
    }

    /// Append eight bytes, little-endian.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.int(x, 8);
    }

    /// Append a length, count or discriminant as eight bytes, little-endian.
    #[inline]
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Append a string's bytes, then `0xFF`, a byte no UTF-8 text holds.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.u8(0xff);
    }

    /// The digest of everything written so far; writing may go on.
    pub fn finish(&self) -> u64 {
        let mut s = self.clone();
        s.compress(((self.length & 0xff) << 56) | self.tail);
        s.v[2] ^= 0xff;
        (0..3).for_each(|_| s.round());
        s.v.iter().fold(0, |acc, v| acc ^ v)
    }
}

/// Text goes in as its bytes, no terminator: `write!` then `u8(0xff)` is `str`, unbuffered.
impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Up to eight bytes as a little-endian word, zero-padded, in loads of 4, 2 and 1.
#[inline]
fn le(bytes: &[u8]) -> u64 {
    if let Ok(word) = bytes.try_into() {
        return u64::from_le_bytes(word);
    }
    let (mut x, mut at) = (0, 0);
    if let Some(b) = bytes.first_chunk::<4>() {
        (x, at) = (u64::from(u32::from_le_bytes(*b)), 4);
    }
    if let Some(b) = bytes[at..].first_chunk::<2>() {
        x |= u64::from(u16::from_le_bytes(*b)) << (8 * at);
        at += 2;
    }
    if let Some(&b) = bytes.get(at) {
        x |= u64::from(b) << (8 * at);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn digest_of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.bytes(bytes);
        d.finish()
    }

    /// SipHash-1-3 under a zero key, worked out from the algorithm's
    /// definition: no input, exactly one word, and one word plus a
    /// seven-byte tail.
    #[test]
    fn known_answers() {
        assert_eq!(digest_of(b""), 0xd1fb_a762_150c_532c);
        assert_eq!(digest_of(b"01234567"), 0xda3d_cedf_84ea_6cc6);
        assert_eq!(digest_of(b"0123456789abcde"), 0x26f4_d862_282d_8fcb);
    }

    #[test]
    fn integers_are_their_little_endian_bytes() {
        let mut d = Digest::new();
        d.u8(0x01);
        d.u16(0x0302);
        d.u32(0x0706_0504);
        d.u64(0x0f0e_0d0c_0b0a_0908);
        d.len(0x1716_1514_1312_1110);
        let bytes: Vec<u8> = (0x01..=0x17).collect();
        assert_eq!(d.finish(), digest_of(&bytes));

        let mut d = Digest::new();
        d.str("ab");
        assert_eq!(d.finish(), digest_of(b"ab\xff"));
    }

    #[test]
    fn finish_leaves_the_digest_writable() {
        let mut d = Digest::new();
        d.bytes(b"0123");
        assert_eq!(d.finish(), digest_of(b"0123"));
        d.bytes(b"4567");
        assert_eq!(d.finish(), digest_of(b"01234567"));
    }

    proptest! {
        /// `probe_key` writes a name's rendered text in whatever pieces
        /// `fmt` hands over, and the sequence digest's `row_digest` mixes
        /// integer and slice writes: the digest must read one byte stream
        /// either way.
        #[test]
        fn a_split_write_digests_as_one_write(
            bytes in proptest::collection::vec(any::<u8>(), 0..80),
            cuts in proptest::collection::vec(0usize..80, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut d = Digest::new();
            let mut at = 0;
            for cut in cuts {
                d.bytes(&bytes[at..cut]);
                at = cut;
            }
            d.bytes(&bytes[at..]);
            prop_assert_eq!(d.finish(), digest_of(&bytes));
        }

        /// An integer writer reads as its bytes wherever the stream stands.
        #[test]
        fn integer_writers_read_as_bytes_at_any_offset(
            lead in proptest::collection::vec(any::<u8>(), 0..16),
            x in any::<u64>(),
        ) {
            let mut a = Digest::new();
            a.bytes(&lead);
            a.u32(x as u32);
            a.u64(x);
            a.u16(x as u16);
            let mut b = Digest::new();
            b.bytes(&lead);
            b.bytes(&(x as u32).to_le_bytes());
            b.bytes(&x.to_le_bytes());
            b.bytes(&(x as u16).to_le_bytes());
            prop_assert_eq!(a.finish(), b.finish());
        }
    }
}
