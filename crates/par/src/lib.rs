//! Deterministic data-parallelism for the URHunter pipeline.
//!
//! Suspicious-record determination and the per-IP evidence joins are pure
//! functions over read-only databases — exactly the shape that DNS-scale
//! measurement systems fan out across cores. This crate provides the one
//! primitive they need: [`par_map`], a chunked map over
//! [`std::thread::scope`] whose output is **bit-identical to the sequential
//! map regardless of thread count**. Each worker owns a contiguous chunk of
//! the input and writes results into its own pre-sized slot; the slots are
//! then spliced back in chunk order, so `par_map(xs, n, f)` equals
//! `xs.iter().map(f).collect()` for every `n`.
//!
//! The bulk scan is parallel at the source instead — whole shards, each on
//! its own replica fabric — and [`sharded_ordered_fold`] is the one
//! executor that merges shard output back into canonical order, with the
//! same guarantee: bit-identical to the sequential shard loop for every
//! worker count (DESIGN.md §6, §9).
//!
//! No dependencies, no unsafe, no work stealing: contiguous chunks keep
//! per-item cache locality and make the equality-with-sequential argument
//! trivial rather than probabilistic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stream;

pub use stream::{sharded_ordered_fold, BatchChannel};

use std::num::NonZeroUsize;

/// Environment variable overriding the automatic thread count.
pub const PARALLELISM_ENV: &str = "URHUNTER_PARALLELISM";

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
    pub fn fixed(n: usize) -> Self {
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

/// Map `f` over `items` on `parallelism` worker threads, preserving input
/// order exactly.
///
/// Output is bit-identical to `items.iter().map(f).collect()` for every
/// thread count, because each worker maps one contiguous chunk and the
/// chunks are reassembled in index order. With one worker (or one item) no
/// thread is spawned at all.
///
/// A panic in `f` propagates to the caller once all workers have stopped.
pub fn par_map<T, U, F>(items: &[T], parallelism: Parallelism, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = parallelism.get();
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let ranges = chunk_ranges(items.len(), workers);
    // One result slot per chunk, written exclusively by that chunk's worker.
    let mut slots: Vec<Option<Vec<U>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        for (range, slot) in ranges.iter().cloned().zip(slots.iter_mut()) {
            let chunk = &items[range];
            let f = &f;
            scope.spawn(move || {
                *slot = Some(chunk.iter().map(f).collect());
            });
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.extend(slot.expect("worker filled its slot"));
    }
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
    fn par_map_equals_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items
            .iter()
            .map(|x| x.wrapping_mul(31).rotate_left(7))
            .collect();
        for workers in [1, 2, 3, 4, 7, 16, 64] {
            let got = par_map(&items, Parallelism::fixed(workers), |x| {
                x.wrapping_mul(31).rotate_left(7)
            });
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, Parallelism::fixed(8), |x| *x).is_empty());
        assert_eq!(par_map(&[5u32], Parallelism::fixed(8), |x| x + 1), vec![6]);
    }

    #[test]
    fn knob_resolution() {
        assert_eq!(Parallelism::fixed(0).get(), 1);
        assert_eq!(Parallelism::fixed(6).get(), 6);
        assert_eq!(Parallelism::from_knob(3).get(), 3);
        assert!(Parallelism::from_knob(0).get() >= 1);
        assert!(Parallelism::auto().get() >= 1);
    }

    #[test]
    fn non_copy_results_are_ordered() {
        let items: Vec<usize> = (0..100).collect();
        let got = par_map(&items, Parallelism::fixed(5), |i| format!("item-{i}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("item-{i}"));
        }
    }
}
