//! A counting global allocator for the test binaries that hold code to an
//! allocation budget (`#[path]`-included; the binary that includes it
//! allocates through it). Armed only around the measured region and only
//! on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while armed.
    static ARMED: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn note_allocation() {
    // `try_with`: a thread tearing down may allocate past its locals.
    let _ = ARMED.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every operation is `System`'s; the bookkeeping beside it is a
// const-initialised thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations (and reallocations) this thread made
/// while it ran.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ARMED.with(|c| c.set(Some(0)));
    let out = f();
    let n = ARMED.with(|c| c.replace(None)).expect("armed above");
    (out, n)
}
