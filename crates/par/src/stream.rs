//! Deterministic sharded streaming: a bounded, sequence-numbered batch
//! channel plus the one ordered-merge executor.
//!
//! A bulk scan is parallel at the *source*: each shard drives its own
//! replica of the simulated network (whose nodes are `!Sync` by design)
//! and everything downstream must still see one canonical sequence — the
//! crate's core invariant, output bit-identical to the sequential path:
//!
//! * [`BatchChannel`] — a bounded FIFO of `(sequence, batch)` pairs with
//!   blocking send (backpressure on the producer) and blocking receive.
//!   Closing wakes every waiter; sends after close are dropped, so a
//!   failing consumer never deadlocks the producer.
//! * [`sharded_ordered_fold`] — the executor: worker threads claim whole
//!   shards, each delivering through its own bounded queue, and the
//!   calling thread folds everything in canonical shard-major order under
//!   a window gate that bounds resident shards. Bit-identical to the
//!   sequential shard loop for every worker count — and, with one worker,
//!   *is* that loop, on the calling thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A bounded FIFO of sequence-numbered batches (single producer in the
/// pipeline use, but safe for any number of senders/receivers).
///
/// Capacity counts batches, not items; a full channel blocks `send` until
/// a receiver drains a slot, which is the backpressure that keeps the
/// streaming pipeline's memory bounded.
#[derive(Debug)]
pub(crate) struct BatchChannel<T> {
    state: Mutex<ChannelState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct ChannelState<T> {
    queue: VecDeque<(u64, T)>,
    closed: bool,
}

impl<T> BatchChannel<T> {
    /// A channel holding at most `capacity` batches (clamped up to 1).
    pub(crate) fn bounded(capacity: usize) -> Self {
        BatchChannel {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue `(seq, batch)`, blocking while the channel is full.
    ///
    /// Returns `false` when the channel was closed (the batch is dropped)
    /// — senders treat that as "the consumer is gone" and wind down.
    pub(crate) fn send(&self, seq: u64, batch: T) -> bool {
        let mut st = self.state.lock().expect("channel lock");
        while st.queue.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).expect("channel lock");
        }
        if st.closed {
            return false;
        }
        st.queue.push_back((seq, batch));
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Dequeue the oldest batch, blocking while the channel is empty and
    /// open. `None` means closed *and* drained: no batch will ever follow.
    pub(crate) fn recv(&self) -> Option<(u64, T)> {
        let mut st = self.state.lock().expect("channel lock");
        loop {
            if let Some(pair) = st.queue.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(pair);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("channel lock");
        }
    }

    /// Close the channel and wake every blocked sender and receiver.
    /// Already-queued batches remain receivable; further sends are dropped.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().expect("channel lock");
        st.closed = true;
        drop(st);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Admission gate bounding how many shards may be in flight at once.
///
/// Workers claim shard indices monotonically but may not *start* shard
/// `s` until `s < floor + window`, where `floor` is the next shard the
/// fold still needs. Combined with the bounded batch channel this caps
/// peak memory at `window` resident shard fabrics plus `capacity`
/// in-flight batches, no matter how far ahead a fast worker could run.
#[derive(Debug)]
struct ShardGate {
    state: Mutex<GateState>,
    admitted: Condvar,
}

#[derive(Debug)]
struct GateState {
    floor: usize,
    poisoned: bool,
}

impl ShardGate {
    fn new() -> Self {
        ShardGate {
            state: Mutex::new(GateState {
                floor: 0,
                poisoned: false,
            }),
            admitted: Condvar::new(),
        }
    }

    /// Lock the gate, tolerating std mutex poisoning: abort/unblock
    /// decisions go through the explicit `poisoned` flag, and
    /// [`ShardGate::poison`] must stay callable from Drop guards running
    /// during a panic (a second panic there would abort the process).
    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block until shard `shard` falls inside the in-flight window.
    fn wait_admitted(&self, shard: usize, window: usize) {
        let mut st = self.lock();
        while !st.poisoned && shard >= st.floor.saturating_add(window) {
            st = self.admitted.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let aborted = st.poisoned;
        drop(st);
        if aborted {
            panic!("sharded scan aborted: a peer stage panicked");
        }
    }

    /// The fold finished shard `floor - 1`; admit the next waiter.
    fn advance(&self, floor: usize) {
        let mut st = self.lock();
        st.floor = floor;
        drop(st);
        self.admitted.notify_all();
    }

    /// Wake every waiter with a panic: some stage died and the floor will
    /// never advance again.
    fn poison(&self) {
        let mut st = self.lock();
        st.poisoned = true;
        drop(st);
        self.admitted.notify_all();
    }
}

/// One entry in a shard's private delivery queue.
enum ShardItem<T, S> {
    /// A batch; entries of one shard arrive in emission order because the
    /// shard has exactly one producer and its queue is FIFO.
    Batch(T),
    /// The shard's scan finished; no further batch for it will follow.
    Done(S),
}

/// Run `shards` independent scans on `workers` threads and fold their
/// output on the **calling thread** in canonical shard-major order.
///
/// * `scan(shard, emit)` runs on a worker thread. It must emit the
///   shard's batches through `emit` in order and return the shard's
///   summary. Workers claim shard indices from a shared counter, so
///   shard→thread assignment is load-balanced and non-deterministic —
///   which is why the fold re-imposes order.
/// * `fold_batch(acc, shard, batch)` and `fold_done(acc, shard, summary)`
///   run on the calling thread and see every batch and summary exactly as
///   a sequential `for shard in 0..shards` loop would have produced them:
///   all of shard 0's batches, then its summary, then shard 1's, … For
///   any worker count the accumulator is bit-identical to that loop.
/// * Memory: every shard delivers through its own queue bounded at
///   `capacity` batches, and the fold drains only the current (floor)
///   shard's queue — a worker that runs ahead blocks on its full queue
///   rather than parking unbounded batches at the fold. With the window
///   gate holding claims to `workers` shards past the floor, peak RSS is
///   `O(workers × (shard fabric + capacity × batch))` regardless of
///   `shards`.
///
/// With one worker (one shard, or `workers <= 1`) no thread is spawned:
/// the loop above runs as written on the calling thread. The default scan
/// is one shard, and it keeps the thread, allocator arena and resident set
/// it always had.
///
/// A panicking worker poisons the gate and closes every queue, so every
/// other stage unblocks; the panic propagates when the thread scope
/// joins. A panicking fold closes/poisons on unwind likewise.
pub fn sharded_ordered_fold<T, S, A>(
    workers: usize,
    shards: usize,
    capacity: usize,
    scan: impl Fn(usize, &mut dyn FnMut(T)) -> S + Sync,
    init: A,
    mut fold_batch: impl FnMut(&mut A, usize, T),
    mut fold_done: impl FnMut(&mut A, usize, S),
) -> A
where
    T: Send,
    S: Send,
{
    let workers = workers.max(1).min(shards.max(1));
    let mut acc = init;
    if workers == 1 {
        for shard in 0..shards {
            let summary = scan(shard, &mut |batch| fold_batch(&mut acc, shard, batch));
            fold_done(&mut acc, shard, summary);
        }
        return acc;
    }
    let window = workers;
    let queues: Vec<BatchChannel<ShardItem<T, S>>> = (0..shards)
        .map(|_| BatchChannel::bounded(capacity.max(1)))
        .collect();
    let gate = ShardGate::new();
    let next_shard = AtomicUsize::new(0);

    fn close_all<T, S>(queues: &[BatchChannel<ShardItem<T, S>>]) {
        for q in queues {
            q.close();
        }
    }

    let mut folded_shards = 0usize;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queues = &queues;
            let gate = &gate;
            let next_shard = &next_shard;
            let scan = &scan;
            scope.spawn(move || {
                // A panicking worker would otherwise leave the fold blocked
                // on a queue that never sees its Done, and siblings blocked
                // on admission or on their own full queues.
                struct WorkerExit<'a, T, S> {
                    queues: &'a [BatchChannel<ShardItem<T, S>>],
                    gate: &'a ShardGate,
                }
                impl<T, S> Drop for WorkerExit<'_, T, S> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.gate.poison();
                            close_all(self.queues);
                        }
                    }
                }
                let _exit = WorkerExit { queues, gate };
                loop {
                    let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                    if shard >= shards {
                        break;
                    }
                    gate.wait_admitted(shard, window);
                    let queue = &queues[shard];
                    let mut seq = 0u64;
                    let summary = scan(shard, &mut |batch: T| {
                        queue.send(seq, ShardItem::Batch(batch));
                        seq += 1;
                    });
                    if !queue.send(seq, ShardItem::Done(summary)) {
                        break; // fold gone; nothing left to deliver to
                    }
                }
            });
        }

        // Fold runs here on the calling thread. If it panics, unblock the
        // workers (gate + queues) before the scope joins them.
        struct FoldExit<'a, T, S> {
            queues: &'a [BatchChannel<ShardItem<T, S>>],
            gate: &'a ShardGate,
        }
        impl<T, S> Drop for FoldExit<'_, T, S> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.gate.poison();
                }
                close_all(self.queues);
            }
        }
        let _exit = FoldExit {
            queues: &queues,
            gate: &gate,
        };

        // Canonical order for free: drain shard 0's queue to its summary,
        // then shard 1's, … Each queue is single-producer FIFO, so batches
        // arrive already in emission order — nothing is ever parked.
        for (floor, queue) in queues.iter().enumerate() {
            let mut expect_seq = 0u64;
            loop {
                match queue.recv() {
                    Some((seq, ShardItem::Batch(batch))) => {
                        debug_assert_eq!(seq, expect_seq, "shard {floor} batch out of order");
                        expect_seq += 1;
                        fold_batch(&mut acc, floor, batch);
                    }
                    Some((_, ShardItem::Done(summary))) => {
                        fold_done(&mut acc, floor, summary);
                        folded_shards += 1;
                        gate.advance(floor + 1);
                        break;
                    }
                    None => panic!("sharded scan aborted: a peer stage panicked"),
                }
            }
        }
    });
    assert_eq!(
        folded_shards, shards,
        "sharded fold ended before every shard was absorbed"
    );
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_delivers_fifo_and_drains_after_close() {
        let ch: BatchChannel<u32> = BatchChannel::bounded(4);
        assert!(ch.send(0, 10));
        assert!(ch.send(1, 20));
        ch.close();
        assert!(!ch.send(2, 30), "send after close is dropped");
        assert_eq!(ch.recv(), Some((0, 10)));
        assert_eq!(ch.recv(), Some((1, 20)));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn channel_blocks_producer_at_capacity() {
        let ch: BatchChannel<u32> = BatchChannel::bounded(1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(ch.send(0, 1));
                assert!(ch.send(1, 2)); // blocks until the recv below
                ch.close();
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(ch.recv(), Some((0, 1)));
            assert_eq!(ch.recv(), Some((1, 2)));
            assert_eq!(ch.recv(), None);
        });
    }

    /// Reference for the sharded fold: the sequential loop it must match.
    fn sharded_sequential(shards: usize, per_shard: usize) -> (Vec<u64>, Vec<usize>) {
        let mut out = Vec::new();
        let mut sums = Vec::new();
        for shard in 0..shards {
            for i in 0..per_shard as u64 {
                out.push((shard as u64) << 32 | i.wrapping_mul(31));
            }
            sums.push(shard * per_shard);
        }
        (out, sums)
    }

    #[test]
    fn sharded_fold_is_bit_identical_for_every_worker_count() {
        for shards in [1usize, 2, 5, 8] {
            let expect = sharded_sequential(shards, 23);
            for workers in [1usize, 2, 4, 8] {
                for capacity in [1usize, 2, 8] {
                    let got = sharded_ordered_fold(
                        workers,
                        shards,
                        capacity,
                        |shard, emit| {
                            // Emit in small uneven batches to exercise the
                            // per-shard queues.
                            let mut batch = Vec::new();
                            for i in 0..23u64 {
                                batch.push((shard as u64) << 32 | i.wrapping_mul(31));
                                if batch.len() == 1 + (shard + batch.len()) % 4 {
                                    emit(std::mem::take(&mut batch));
                                }
                            }
                            if !batch.is_empty() {
                                emit(batch);
                            }
                            shard * 23
                        },
                        (Vec::new(), Vec::new()),
                        |acc: &mut (Vec<u64>, Vec<usize>), _shard, batch: Vec<u64>| {
                            acc.0.extend(batch)
                        },
                        |acc, shard, sum| {
                            assert_eq!(shard, acc.1.len(), "summaries arrive in shard order");
                            acc.1.push(sum);
                        },
                    );
                    assert_eq!(
                        got, expect,
                        "shards={shards} workers={workers} cap={capacity}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_fold_handles_zero_and_empty_shards() {
        let got = sharded_ordered_fold(
            4,
            0,
            2,
            |_shard, _emit: &mut dyn FnMut(u32)| 0u32,
            0u32,
            |acc, _, b| *acc += b,
            |acc, _, s| *acc += s,
        );
        assert_eq!(got, 0);
        // Shards that emit nothing still deliver their summary in order.
        let got = sharded_ordered_fold(
            3,
            6,
            2,
            |shard, _emit: &mut dyn FnMut(u32)| shard as u32,
            Vec::new(),
            |_acc: &mut Vec<u32>, _, _b: u32| unreachable!("no batches emitted"),
            |acc, _, s| acc.push(s),
        );
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sharded_fold_worker_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded_ordered_fold(
                4,
                16,
                2,
                |shard, emit| {
                    if shard == 7 {
                        panic!("unlucky shard");
                    }
                    emit(vec![shard as u64]);
                    shard
                },
                0usize,
                |acc, _, b: Vec<u64>| *acc += b.len(),
                |acc, _, _| *acc += 1,
            )
        }));
        assert!(result.is_err(), "worker panic must propagate");
    }

    #[test]
    fn sharded_fold_consumer_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded_ordered_fold(
                4,
                16,
                1,
                |shard, emit| {
                    for i in 0..50u64 {
                        emit(vec![i]);
                    }
                    shard
                },
                0usize,
                |_acc, shard, _b: Vec<u64>| {
                    if shard == 3 {
                        panic!("fold rejects shard 3");
                    }
                },
                |_acc, _, _| {},
            )
        }));
        assert!(result.is_err(), "fold panic must propagate");
    }
}
