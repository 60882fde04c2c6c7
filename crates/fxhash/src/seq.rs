//! The sequence digest: a digest of rows that concatenates. Each row is a
//! finished [`Digest`](crate::Digest) of its own bytes; rows combine as a
//! polynomial in a fixed base `R` modulo the Mersenne prime 2^61 − 1, so
//! H(A‖B) = H(A)·R^|B| + H(B). A digest of any run of rows can be appended
//! to the digest of the run before it: however a sequence is cut into
//! parts, the parts digest as the whole.

/// The modulus, the Mersenne prime 2^61 − 1.
const P: u64 = (1 << 61) - 1;

/// The base, fixed so that digests repeat on every host. Its multiplicative
/// order modulo P is (P − 1)/2, so R^i ≠ R^j for any two positions of a
/// sequence shorter than that: swapping two rows whose digests differ
/// modulo P moves the digest.
const R: u64 = 0x1f3d_5b79_7a5c_3e1f;

/// A sequence digest over the rows appended so far; the default holds no
/// row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqDigest {
    /// Σ rowᵢ·R^(n−1−i) mod P over the n rows.
    value: u64,
    /// n, the number of rows.
    rows: u64,
}

impl SeqDigest {
    /// Append one row, given its finished [`Digest`](crate::Digest).
    #[inline]
    pub fn push(&mut self, row: u64) {
        self.value = add(mul(self.value, R), reduce(u128::from(row)));
        self.rows += 1;
    }

    /// The digest of `self`'s rows followed by `later`'s.
    pub fn append(self, later: SeqDigest) -> SeqDigest {
        SeqDigest {
            value: add(mul(self.value, pow(R, later.rows)), later.value),
            rows: self.rows + later.rows,
        }
    }

    /// The digest's value, below 2^61 − 1.
    pub fn value(self) -> u64 {
        self.value
    }
}

/// `x mod P`, from 2^61 ≡ 1: two folds of the high bits onto the low ones
/// leave less than P + 2^7, and one subtraction finishes.
#[inline]
fn reduce(x: u128) -> u64 {
    let p = u128::from(P);
    let x = (x & p) + (x >> 61);
    let x = ((x & p) + (x >> 61)) as u64;
    if x >= P {
        x - P
    } else {
        x
    }
}

#[inline]
fn mul(a: u64, b: u64) -> u64 {
    reduce(u128::from(a) * u128::from(b))
}

#[inline]
fn add(a: u64, b: u64) -> u64 {
    reduce(u128::from(a) + u128::from(b))
}

/// `base^exp mod P`, by squaring.
fn pow(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Digest;
    use proptest::prelude::*;

    fn row(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.bytes(bytes);
        d.finish()
    }

    fn flat(rows: &[Vec<u8>]) -> SeqDigest {
        let mut d = SeqDigest::default();
        for r in rows {
            d.push(row(r));
        }
        d
    }

    /// Three rows, pinned: the row digests are SipHash-1-3 (see
    /// `digest::tests::known_answers`), combined as ((a·R + b)·R + c) mod P.
    #[test]
    fn known_answer() {
        let rows = [
            b"".to_vec(),
            b"01234567".to_vec(),
            b"0123456789abcde".to_vec(),
        ];
        assert_eq!(flat(&rows).value(), 0x1d3f_df31_ac13_d914);
        assert_eq!(SeqDigest::default().value(), 0);
    }

    #[test]
    fn reduction_is_mod_p() {
        assert_eq!(reduce(0), 0);
        assert_eq!(reduce(u128::from(P)), 0);
        assert_eq!(reduce(u128::from(u64::MAX)), u64::MAX % P);
        assert_eq!(mul(P - 1, P - 1), 1);
        assert_eq!(pow(R, 0), 1);
        assert_eq!(pow(R, 3), mul(mul(R, R), R));
    }

    proptest! {
        /// However the rows are cut into parts, appending the parts'
        /// digests in order gives the flat digest.
        #[test]
        fn appended_parts_digest_as_the_whole(
            rows in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..24),
            cuts in proptest::collection::vec(0usize..24, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
            cuts.push(rows.len());
            cuts.sort_unstable();
            let mut at = 0;
            let mut whole = SeqDigest::default();
            for cut in cuts {
                whole = whole.append(flat(&rows[at..cut]));
                at = cut;
            }
            prop_assert_eq!(whole, flat(&rows));
        }

        /// Swapping two distinct rows moves the digest.
        #[test]
        fn swapping_two_distinct_rows_moves_the_digest(
            rows in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 2..16),
            i in 0usize..16,
            j in 0usize..16,
        ) {
            let (i, j) = (i % rows.len(), j % rows.len());
            if rows[i] == rows[j] {
                return Ok(());
            }
            let mut swapped = rows.clone();
            swapped.swap(i, j);
            prop_assert_ne!(flat(&swapped), flat(&rows));
        }
    }
}
