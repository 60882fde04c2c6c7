//! The sequence digest: a digest of rows that does not care how they are
//! grouped or ordered. Each row is a finished [`Digest`](crate::Digest) of
//! its own bytes, and the caller writes the row's position in the sequence
//! among them; the rows add modulo 2^64. So however a sequence is cut into
//! parts, and in whatever order the parts' digests are added, they digest
//! as the whole, while a row moved to another position, dropped or repeated
//! still moves the digest.

/// A sequence digest over the rows pushed or added so far; the default
/// holds no row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqDigest(u64);

impl SeqDigest {
    /// Add one row, given its finished [`Digest`](crate::Digest), which
    /// must cover the row's position.
    #[inline]
    pub fn push(&mut self, row: u64) {
        self.0 = self.0.wrapping_add(row);
    }

    /// The digest's value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::ops::AddAssign for SeqDigest {
    /// Add another part's rows to these.
    fn add_assign(&mut self, part: SeqDigest) {
        self.0 = self.0.wrapping_add(part.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Digest;
    use proptest::prelude::*;

    /// The row of `bytes` at `position`: the position first, as four
    /// little-endian bytes, then the bytes.
    fn row(position: u32, bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.u32(position);
        d.bytes(bytes);
        d.finish()
    }

    /// The digest of `rows`, each at its index.
    fn flat(rows: &[Vec<u8>]) -> SeqDigest {
        at(rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, r.as_slice())))
    }

    fn at<'a>(rows: impl IntoIterator<Item = (u32, &'a [u8])>) -> SeqDigest {
        let mut d = SeqDigest::default();
        for (position, bytes) in rows {
            d.push(row(position, bytes));
        }
        d
    }

    fn rows() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..24)
    }

    /// Three rows at positions 0, 1 and 2, pinned: the row digests are
    /// SipHash-1-3 (see `digest::tests::known_answers`) of the position's
    /// four bytes and the row's, summed modulo 2^64; worked out from the
    /// definition, not read off this code.
    #[test]
    fn known_answer() {
        let rows = [
            b"".to_vec(),
            b"01234567".to_vec(),
            b"0123456789abcde".to_vec(),
        ];
        assert_eq!(flat(&rows).value(), 0x0e20_a5fe_4141_8c19);
        assert_eq!(SeqDigest::default().value(), 0);
    }

    proptest! {
        /// However the rows are cut into parts, the parts' digests added
        /// in order, in reverse or shuffled give the flat digest.
        #[test]
        fn parts_added_in_any_order_digest_as_the_whole(
            rows in rows(),
            cuts in proptest::collection::vec(0usize..24, 0..6),
            keys in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
            cuts.push(rows.len());
            cuts.sort_unstable();
            let mut start = 0;
            let mut parts = Vec::new();
            for cut in cuts {
                parts.push(at((start..cut).map(|i| (i as u32, rows[i].as_slice()))));
                start = cut;
            }
            let sum = |parts: &[SeqDigest]| {
                let mut whole = SeqDigest::default();
                for &part in parts {
                    whole += part;
                }
                whole
            };
            let whole = flat(&rows);
            prop_assert_eq!(sum(&parts), whole);
            parts.reverse();
            prop_assert_eq!(sum(&parts), whole);
            let mut shuffled: Vec<(u64, SeqDigest)> = parts
                .iter()
                .enumerate()
                .map(|(i, &part)| (keys[i % keys.len()], part))
                .collect();
            shuffled.sort_by_key(|&(key, _)| key);
            let shuffled: Vec<SeqDigest> = shuffled.into_iter().map(|(_, part)| part).collect();
            prop_assert_eq!(sum(&shuffled), whole);
        }

        /// Swapping two distinct rows' positions moves the digest.
        #[test]
        fn swapping_two_distinct_rows_moves_the_digest(
            rows in rows(),
            i in 0usize..24,
            j in 0usize..24,
        ) {
            let (i, j) = (i % rows.len(), j % rows.len());
            if rows[i] == rows[j] {
                return Ok(());
            }
            let mut swapped = rows.clone();
            swapped.swap(i, j);
            prop_assert_ne!(flat(&swapped), flat(&rows));
        }

        /// One row moved to a position no row holds moves the digest.
        #[test]
        fn the_same_row_at_another_position_moves_the_digest(
            rows in rows(),
            i in 0usize..24,
            to in 24u32..1_000_000,
        ) {
            let i = i % rows.len();
            let moved = rows.iter().enumerate().map(|(j, r)| {
                (if j == i { to } else { j as u32 }, r.as_slice())
            });
            prop_assert_ne!(at(moved), flat(&rows));
        }

        /// Dropping a row moves the digest, and so does a row's copy at the
        /// same position.
        #[test]
        fn a_dropped_or_duplicated_row_moves_the_digest(
            rows in rows(),
            i in 0usize..24,
        ) {
            let i = i % rows.len();
            let whole = flat(&rows);
            let indexed = || rows.iter().enumerate().map(|(j, r)| (j as u32, r.as_slice()));
            let dropped = indexed().filter(|&(j, _)| j as usize != i);
            prop_assert_ne!(at(dropped), whole);
            let duplicated = indexed().chain(std::iter::once((i as u32, rows[i].as_slice())));
            prop_assert_ne!(at(duplicated), whole);
        }
    }
}
