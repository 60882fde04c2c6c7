//! A counting global allocator for this binary only.
//!
//! Wraps [`System`]; the counters stay untouched until [`arm`] is called,
//! which only the traced child does, so an untraced run pays one relaxed
//! load per allocation. Counts are of this process's heap traffic between
//! two [`snapshot`]s: hardware-independent, and exact for a deterministic
//! single-threaded stage.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Statistics only: nothing is published through these, so `Relaxed` is
// enough, and a multi-threaded stage merely blurs `PEAK` by in-flight
// updates.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

impl Counting {
    fn on_alloc(size: usize) {
        if ARMED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(size as u64, Relaxed);
            let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
            PEAK.fetch_max(live, Relaxed);
        }
    }

    fn on_free(size: usize) {
        if ARMED.load(Relaxed) {
            // Memory allocated before arming is freed after it: saturate
            // instead of wrapping below zero.
            let _ = LIVE.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(size as u64)));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::on_alloc(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::on_free(layout.size());
        // SAFETY: `ptr` was returned by this allocator (that is, by
        // `System`) for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::on_free(layout.size());
        Self::on_alloc(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting. There is no disarm: a process is either traced or not.
pub fn arm() {
    ARMED.store(true, Relaxed);
}

/// Heap traffic since [`arm`]: allocation calls (a `realloc` counts as
/// one), bytes requested, and bytes live now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
    pub live: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// Restart the live-bytes high-water mark from the current level, and
/// return the mark reached since the previous reset.
pub fn reset_peak() -> u64 {
    PEAK.swap(LIVE.load(Relaxed), Relaxed)
}
