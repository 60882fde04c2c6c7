//! A counting global allocator for the test binaries that hold code to an
//! allocation budget (`#[path]`-included; the binary that includes it
//! allocates through it). Armed only around the measured region and only
//! on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What a thread allocated and freed while armed. A reallocation is a
/// fresh block for the old one: one allocation and one free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Blocks allocated (and reallocated).
    pub allocations: u64,
    /// Bytes those blocks were asked for.
    pub allocated_bytes: u64,
    /// Blocks freed (and reallocated away).
    pub frees: u64,
    /// Bytes those blocks held.
    pub freed_bytes: u64,
}

thread_local! {
    /// This thread's tally while armed.
    static ARMED: Cell<Option<Tally>> = const { Cell::new(None) };
}

struct Counting;

fn note(allocated: Option<usize>, freed: Option<usize>) {
    // `try_with`: a thread tearing down may allocate past its locals.
    let _ = ARMED.try_with(|c| {
        if let Some(mut t) = c.get() {
            if let Some(bytes) = allocated {
                t.allocations += 1;
                t.allocated_bytes += bytes as u64;
            }
            if let Some(bytes) = freed {
                t.frees += 1;
                t.freed_bytes += bytes as u64;
            }
            c.set(Some(t));
        }
    });
}

// SAFETY: every operation is `System`'s; the bookkeeping beside it is a
// const-initialised thread-local tally, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(Some(layout.size()), None);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(None, Some(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(Some(new_size), Some(layout.size()));
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and what this thread allocated and freed while it ran.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    ARMED.with(|c| c.set(Some(Tally::default())));
    let out = f();
    let tally = ARMED.with(|c| c.replace(None)).expect("armed above");
    (out, tally)
}
