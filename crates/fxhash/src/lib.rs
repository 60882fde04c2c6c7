//! # fxhash — the workspace's one map hasher and its one digest
//!
//! The scan path probes its maps with small keys (addresses, interned ids,
//! short names) millions of times; std's SipHash costs more per probe than
//! the rest of a lookup. [`FxHasher`] is FxHash's multiply-rotate over
//! 64-bit words with one folded multiply at the end, so hashbrown's bucket
//! index (the low bits) and its 7-bit tag (the top bits) both depend on
//! every input byte.
//!
//! Every [`FxBuildHasher::default`] draws its own seed from a thread-local
//! counter that std's `RandomState` starts, so each map instance has its own
//! iteration order, as under `RandomState`: code that depends on a map's
//! order still shows it between two copies of one map.
//!
//! This is a map hasher, not a digest: its values differ between map
//! instances and between processes, and its input is the program's own
//! data (simulated worlds), not adversarial keys. Digests are [`Digest`]s,
//! and a sequence of rows digests as a [`SeqDigest`] over each row's
//! finished [`Digest`].

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod digest;
mod seq;
pub use digest::Digest;
pub use seq::SeqDigest;

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher, RandomState};

/// A `HashMap` under [`FxBuildHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under [`FxBuildHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// FxHash's multiplier (the 64-bit golden-ratio-derived constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Step between the seeds of consecutive builders on one thread.
const SEED_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

thread_local! {
    static NEXT_SEED: Cell<u64> = Cell::new(RandomState::new().build_hasher().finish());
}

/// Builds [`FxHasher`]s that all start from this builder's seed.
#[derive(Debug, Clone, Copy)]
pub struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    /// A builder with a seed of its own: the next value of the thread's
    /// counter.
    fn default() -> Self {
        let seed = NEXT_SEED.with(|next| {
            let seed = next.get();
            next.set(seed.wrapping_add(SEED_STEP));
            seed
        });
        FxBuildHasher { seed }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

/// FxHash's state: one word, folded into by rotate, xor and multiply.
#[derive(Debug, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("chunks of eight"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state through one folded multiply: the low and the high half of
    /// its 128-bit product with `K`, xored, so the low bits hashbrown
    /// indexes with and the top bits it tags with both mix the whole state.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(K);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// A builder with a pinned seed.
    fn pinned(seed: u64) -> FxBuildHasher {
        FxBuildHasher { seed }
    }

    /// Values worked out from the definition, not read off this code: a
    /// `str` is its bytes (one full word, one zero-padded tail) then `0xff`,
    /// an `Ipv4Addr` its four octets as one zero-padded write.
    #[test]
    fn known_answers_with_a_pinned_seed() {
        let b = pinned(0);
        assert_eq!(b.hash_one(0u64), 0);
        assert_eq!(b.hash_one(1u64), 0xcf03_01a4_14c4_e50f);
        assert_eq!(b.hash_one("example.com"), 0xa407_f0e5_757a_ca5a);
        assert_eq!(
            pinned(42).hash_one(Ipv4Addr::new(192, 0, 2, 1)),
            0x7c14_c251_6d54_3d9c
        );
    }

    #[test]
    fn every_default_builder_has_its_own_seed() {
        let (a, b) = (FxBuildHasher::default(), FxBuildHasher::default());
        assert_ne!(a.hash_one("example.com"), b.hash_one("example.com"));
        // One builder hashes a key the same way every time.
        assert_eq!(a.hash_one(7u32), a.hash_one(7u32));
    }

    #[test]
    fn split_writes_of_one_key_agree() {
        let b = pinned(9);
        let whole = {
            let mut h = b.build_hasher();
            h.write(b"0123456789abcdef");
            h.finish()
        };
        let mut h = b.build_hasher();
        h.write(b"01234567");
        h.write(b"89abcdef");
        assert_eq!(h.finish(), whole);
    }

    /// Largest and smallest count of `keys` falling in each of `slots`
    /// values of `slot`.
    fn load(keys: &[u64], slots: usize, slot: impl Fn(u64) -> usize) -> (usize, usize) {
        let mut counts = vec![0usize; slots];
        for &k in keys {
            counts[slot(k)] += 1;
        }
        (
            *counts.iter().min().expect("slots > 0"),
            *counts.iter().max().expect("slots > 0"),
        )
    }

    /// 65,536 consecutive addresses, as a map of addresses hashes them,
    /// spread over a 4,096-bucket table (low 12 bits) and over hashbrown's
    /// 128 tags (top 7 bits) within a third of their mean load of 512
    /// either way, with no bucket empty or over three times its mean of 16:
    /// bounds a uniform hash meets with a wide margin (the tag bound is
    /// seven standard deviations out).
    #[test]
    fn sequential_addresses_spread_over_buckets_and_tags() {
        for seed in [0, 1, 0xdead_beef, FxBuildHasher::default().seed] {
            let b = pinned(seed);
            let hashes: Vec<u64> = (0..65_536u32)
                .map(|i| b.hash_one(Ipv4Addr::from(0x0a00_0000 + i)))
                .collect();
            let (min, max) = load(&hashes, 4096, |h| (h & 4095) as usize);
            assert!(
                min >= 1 && max <= 48,
                "seed {seed:#x}: buckets {min}..={max}"
            );
            let (min, max) = load(&hashes, 128, |h| (h >> 57) as usize);
            assert!(
                min >= 512 * 2 / 3 && max <= 512 * 4 / 3,
                "seed {seed:#x}: tags {min}..={max}"
            );
        }
    }
}
