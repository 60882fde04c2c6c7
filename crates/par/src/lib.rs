//! Deterministic data-parallelism for the URHunter pipeline.
//!
//! The bulk scan is parallel at the source — whole shards, each on its own
//! replica fabric, claimed by scan workers over [`std::thread::scope`] —
//! and [`sharded_ordered_fold`] is the one executor that merges shard
//! output back into canonical order: **bit-identical to the sequential
//! shard loop for every worker count** (DESIGN.md §6, §9).
//!
//! No dependencies, no unsafe, no work stealing: [`chunk_ranges`] gives
//! each shard a contiguous range, which makes the equality-with-sequential
//! argument trivial rather than probabilistic.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod stream;

pub use stream::sharded_ordered_fold;

use std::num::NonZeroUsize;

/// Environment variable overriding the automatic thread count.
pub(crate) const PARALLELISM_ENV: &str = "URHUNTER_PARALLELISM";

/// A resolved worker-thread count.
///
/// `0` in configuration means "automatic": [`std::thread::available_parallelism`]
/// unless the `URHUNTER_PARALLELISM` environment variable overrides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// The automatic thread count: `URHUNTER_PARALLELISM` when set and
    /// positive, otherwise the host's available parallelism, otherwise 1.
    pub fn auto() -> Self {
        if let Ok(v) = std::env::var(PARALLELISM_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return Parallelism::fixed(n);
                }
            }
        }
        let n = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Parallelism::fixed(n)
    }

    /// Exactly `n` workers (clamped up to 1).
    pub(crate) fn fixed(n: usize) -> Self {
        Parallelism(NonZeroUsize::new(n.max(1)).expect("max(1) is nonzero"))
    }

    /// Resolve a config knob: `0` means automatic, anything else is fixed.
    pub fn from_knob(knob: usize) -> Self {
        if knob == 0 {
            Parallelism::auto()
        } else {
            Parallelism::fixed(knob)
        }
    }

    /// The worker count.
    pub fn get(&self) -> usize {
        self.0.get()
    }
}

/// Split `len` items into at most `workers` contiguous, balanced ranges.
///
/// The first `len % workers` ranges carry one extra item. Empty ranges are
/// never produced; fewer ranges than workers come back when `len < workers`.
pub fn chunk_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for i in 0..workers {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_balanced_and_cover() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, workers);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, len, "len={len} workers={workers}");
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert_eq!(first.start, 0);
                    assert_eq!(last.end, len);
                    assert!(ranges.iter().all(|r| !r.is_empty()));
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1, "unbalanced: {ranges:?}");
                }
            }
        }
    }

    #[test]
    fn knob_resolution() {
        assert_eq!(Parallelism::fixed(0).get(), 1);
        assert_eq!(Parallelism::fixed(6).get(), 6);
        assert_eq!(Parallelism::from_knob(3).get(), 3);
        assert!(Parallelism::from_knob(0).get() >= 1);
        assert!(Parallelism::auto().get() >= 1);
    }
}
