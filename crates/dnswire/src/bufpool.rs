//! Thread-local wire-buffer pool for the encode/decode hot path.
//!
//! A bulk scan encodes and decodes millions of small messages; with a
//! fresh `Vec` per message the allocator dominates the flat profile. The
//! pool keeps a small per-thread free list of cleared buffers:
//! [`Message::encode`](crate::Message::encode) draws from it, and the
//! fabric / query layers return payloads once a datagram has been
//! consumed. Being thread-local it needs no locks and cannot leak buffers
//! across scan shards; being bounded (both in buffer count and retained
//! capacity) it cannot grow without limit on pathological traffic.
//!
//! Pooling changes *where bytes live*, never *what they are*: a recycled
//! buffer is always cleared before reuse, so the scheme is invisible to
//! the deterministic fingerprint.

use std::cell::RefCell;

/// Buffers retained per thread; beyond this, released buffers are freed.
const MAX_POOLED: usize = 256;

/// Largest capacity worth retaining — matches
/// [`MAX_MESSAGE_LEN`](crate::MAX_MESSAGE_LEN) so one TCP-sized response
/// cannot pin an oversized allocation forever.
const MAX_RETAINED_CAP: usize = 4096;

/// Initial capacity for a pool-miss allocation (typical query ~40 bytes,
/// typical response well under 128).
const FRESH_CAP: usize = 128;

#[derive(Default)]
struct Pool {
    free: Vec<Vec<u8>>,
    hits: u64,
    misses: u64,
    returned: u64,
    discarded: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Counters for one thread's pool, for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the free list.
    pub hits: u64,
    /// Acquisitions that had to allocate.
    pub misses: u64,
    /// Buffers accepted back into the free list.
    pub(crate) returned: u64,
    /// Buffers dropped on release (pool full or capacity oversized).
    pub(crate) discarded: u64,
}

/// Take a cleared buffer from this thread's pool, or allocate one.
pub(crate) fn acquire() -> Vec<u8> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.free.pop() {
            Some(buf) => {
                p.hits += 1;
                buf
            }
            None => {
                p.misses += 1;
                Vec::with_capacity(FRESH_CAP)
            }
        }
    })
}

/// Return a buffer to this thread's pool. The contents are cleared; the
/// capacity is kept for the next encode unless the pool is full or
/// the buffer outgrew the retained-capacity cap (4 KiB).
pub fn release(mut buf: Vec<u8>) {
    buf.clear();
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if buf.capacity() > 0 && buf.capacity() <= MAX_RETAINED_CAP && p.free.len() < MAX_POOLED {
            p.free.push(buf);
            p.returned += 1;
        } else {
            p.discarded += 1;
        }
    })
}

/// This thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            hits: p.hits,
            misses: p.misses,
            returned: p.returned,
            discarded: p.discarded,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_then_acquire_reuses_capacity() {
        let before = stats();
        let mut buf = Vec::with_capacity(512);
        buf.extend_from_slice(b"stale bytes");
        release(buf);
        let reused = acquire();
        assert!(reused.is_empty(), "recycled buffer must come back cleared");
        assert!(reused.capacity() >= 512, "capacity survives the round trip");
        let after = stats();
        assert_eq!(after.returned, before.returned + 1);
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn zero_capacity_and_oversized_buffers_are_discarded() {
        let before = stats();
        release(Vec::new());
        release(Vec::with_capacity(MAX_RETAINED_CAP + 1));
        let after = stats();
        assert_eq!(after.discarded, before.discarded + 2);
        assert_eq!(after.returned, before.returned);
    }

    #[test]
    fn recycling_never_crosses_thread_free_lists() {
        // The parallel streamed scan runs one fabric per worker thread;
        // each fabric's payload recycler must feed only its own thread's
        // free list. Releasing on a spawned thread lands on THAT thread's
        // pool and must leave this thread's counters untouched.
        let before = stats();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let remote_before = stats();
                    assert_eq!(
                        remote_before,
                        PoolStats::default(),
                        "a fresh worker thread starts with an empty pool"
                    );
                    let mut buf = Vec::with_capacity(256);
                    buf.extend_from_slice(b"worker payload");
                    release(buf);
                    let reused = acquire();
                    assert!(reused.capacity() >= 256, "recycled on the same thread");
                    let remote_after = stats();
                    assert_eq!(remote_after.returned, 1);
                    assert_eq!(remote_after.hits, 1);
                })
                .join()
                .expect("pool worker thread");
        });
        let after = stats();
        assert_eq!(
            after, before,
            "another thread's recycling must not touch this thread's pool"
        );
    }
}
