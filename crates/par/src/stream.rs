//! Deterministic sharded streaming: the one ordered-merge executor.
//!
//! A bulk scan is parallel at the *source*: each shard drives its own
//! replica of the simulated network (whose nodes are `!Sync` by design)
//! and everything downstream must still see one canonical sequence — the
//! crate's core invariant, output bit-identical to the sequential path.
//! [`sharded_ordered_fold`] is that executor: worker threads claim whole
//! shards, each delivering through its own unbounded
//! [`std::sync::mpsc::channel`], and the calling thread runs its own
//! `lead` step beside them, then folds everything in canonical
//! shard-major order under a window gate that bounds resident shards —
//! and with them the queues, so a worker never waits for the fold.
//! Bit-identical to the sequential shard loop for every worker count —
//! and, with one worker, *is* that loop, on the calling thread.

use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, Mutex, PoisonError};

/// Admission gate bounding how many shards may be in flight at once.
///
/// Workers claim shard indices monotonically but may not *start* shard
/// `s` until `s < floor + window`, where `floor` is the next shard the
/// fold still needs. This is the executor's one memory bound: at most
/// `window` shard fabrics are resident, and only those shards' queues can
/// hold batches the fold has not yet taken, no matter how far ahead a
/// fast worker could run. The window closes only once the fold can
/// drain: until [`ShardGate::close_to`] the gate admits every shard.
#[derive(Debug)]
struct ShardGate {
    state: Mutex<GateState>,
    admitted: Condvar,
}

#[derive(Debug)]
struct GateState {
    floor: usize,
    window: usize,
    poisoned: bool,
}

impl ShardGate {
    fn new() -> Self {
        ShardGate {
            state: Mutex::new(GateState {
                floor: 0,
                window: usize::MAX,
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
    fn wait_admitted(&self, shard: usize) {
        let mut st = self.lock();
        while !st.poisoned && shard >= st.floor.saturating_add(st.window) {
            st = self.admitted.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let aborted = st.poisoned;
        drop(st);
        if aborted {
            panic!("sharded scan aborted: a peer stage panicked");
        }
    }

    /// The fold is about to drain: from now on at most `window` shards
    /// from the floor on are admitted. Narrowing wakes no waiter.
    fn close_to(&self, window: usize) {
        self.lock().window = window;
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

/// The shards no worker has claimed yet, in order, each with the sending
/// end of its queue.
type Claims<T, S> = std::iter::Enumerate<std::vec::IntoIter<Sender<ShardItem<T, S>>>>;

/// Run `shards` independent scans on `workers` threads and fold their
/// output on the **calling thread** in canonical shard-major order.
///
/// * `scan(shard, emit)` runs on a worker thread. It must emit the
///   shard's batches through `emit` in order and return the shard's
///   summary. Workers claim shard indices in order from a shared queue, so
///   shard→thread assignment is load-balanced and non-deterministic —
///   which is why the fold re-imposes order.
/// * `fold_batch(batch)` and `fold_done(summary)` run on the calling
///   thread and see every batch and summary exactly as a sequential
///   `for shard in 0..shards` loop would have produced them: all of shard
///   0's batches, then its summary, then shard 1's, … For any worker count
///   what they fold is bit-identical to that loop.
/// * `lead()` runs exactly once, on the calling thread, after the workers
///   are spawned and before the fold sees shard 0: work that must stay on
///   the calling thread (because it owns `!Send` state) overlaps the
///   scans instead of preceding them. The fold starts after `lead`
///   returns, so it never waits for `lead`'s product; a `scan` that needs
///   that product should not wait for it either, but hand its work to the
///   fold to finish.
/// * Memory: every shard delivers through its own unbounded queue and the
///   fold drains only the current (floor) shard's queue, so a worker that
///   runs ahead of the fold finishes its shard and parks what it emitted
///   there instead of waiting. Once `lead` has returned, the window gate
///   admits a worker to shard `s` only while `s < floor + workers`, so at
///   most `workers` shards are in flight: peak RSS is `O(workers × (shard
///   fabric + a shard's emitted batches))` regardless of `shards`. While
///   `lead` runs the fold cannot drain anyway, so the gate holds no worker:
///   a shard scanned then parks its whole output until the fold reaches
///   it. An empty `lead` keeps the bound; a long one trades it for workers
///   that never idle. Emit compact batches — a queue may hold a whole
///   shard's worth.
///
/// With one worker (one shard, or `workers <= 1`) no thread is spawned:
/// `lead` runs first and then the loop above runs as written on the
/// calling thread, which keeps its thread, allocator arena and resident
/// set.
///
/// A panicking worker poisons the gate, so siblings waiting for admission
/// give up, and drops the sender of the shard it claimed. Shards are
/// claimed in order, so that shard comes before every unclaimed one and
/// the fold sees its queue disconnect before it could wait on a shard
/// nobody will scan. A panicking `lead` or fold poisons the gate and drops
/// every receiver, so a worker waiting for admission gives up and a
/// scanning one finds its sends refused and stops at the shard's end (a
/// worker waiting on `lead`'s product must be released by `lead`'s own
/// unwind). The panic propagates when the thread scope joins.
pub fn sharded_ordered_fold<T, S>(
    workers: usize,
    shards: usize,
    scan: impl Fn(usize, &mut dyn FnMut(T)) -> S + Sync,
    lead: impl FnOnce(),
    mut fold_batch: impl FnMut(T),
    mut fold_done: impl FnMut(S),
) where
    T: Send,
    S: Send,
{
    let workers = workers.max(1).min(shards.max(1));
    if workers == 1 {
        lead();
        for shard in 0..shards {
            let summary = scan(shard, &mut fold_batch);
            fold_done(summary);
        }
        return;
    }
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..shards).map(|_| channel()).unzip();
    let claims: Mutex<Claims<T, S>> = Mutex::new(senders.into_iter().enumerate());
    let gate = ShardGate::new();

    // Claiming a shard takes its sender, which then drops with the worker
    // that holds it: on `Done`'s delivery, or on the worker's unwind.
    fn claim<T, S>(claims: &Mutex<Claims<T, S>>) -> Option<(usize, Sender<ShardItem<T, S>>)> {
        claims.lock().unwrap_or_else(PoisonError::into_inner).next()
    }

    std::thread::scope(|scope| {
        // Owned by this closure, so they drop as soon as it unwinds.
        let receivers = receivers;
        for _ in 0..workers {
            let claims = &claims;
            let gate = &gate;
            let scan = &scan;
            scope.spawn(move || {
                // A panicking worker poisons the gate, so siblings waiting
                // for admission give up on a floor that will never advance.
                // It also drops every unclaimed shard's sender. The claim
                // order already keeps the fold off unclaimed shards (the
                // dead worker's own shard disconnects first), so this is
                // defence for that ordering, not a path any test reaches.
                struct WorkerExit<'a, T, S> {
                    claims: &'a Mutex<Claims<T, S>>,
                    gate: &'a ShardGate,
                }
                impl<T, S> Drop for WorkerExit<'_, T, S> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.gate.poison();
                            while claim(self.claims).is_some() {}
                        }
                    }
                }
                let _exit = WorkerExit { claims, gate };
                while let Some((shard, queue)) = claim(claims) {
                    gate.wait_admitted(shard);
                    // A send fails only once the fold is gone; the rest of
                    // the shard is scanned and dropped.
                    let summary = scan(shard, &mut |batch: T| {
                        let _ = queue.send(ShardItem::Batch(batch));
                    });
                    if queue.send(ShardItem::Done(summary)).is_err() {
                        break; // fold gone; nothing left to deliver to
                    }
                }
            });
        }

        // Lead and fold run here on the calling thread. If either panics,
        // the gate is poisoned and `receivers` drop before the scope joins
        // the workers.
        struct FoldExit<'a>(&'a ShardGate);
        impl Drop for FoldExit<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.poison();
                }
            }
        }
        let _exit = FoldExit(&gate);
        lead();
        gate.close_to(workers);

        // Canonical order for free: drain shard 0's queue to its summary,
        // then shard 1's, … Each queue is single-producer FIFO, so batches
        // arrive already in emission order — nothing is ever reordered.
        for (floor, queue) in receivers.iter().enumerate() {
            loop {
                match queue.recv() {
                    Ok(ShardItem::Batch(batch)) => fold_batch(batch),
                    Ok(ShardItem::Done(summary)) => {
                        fold_done(summary);
                        gate.advance(floor + 1);
                        break;
                    }
                    Err(_) => panic!("sharded scan aborted: a peer stage panicked"),
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

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
                let (mut out, mut sums) = (Vec::new(), Vec::new());
                sharded_ordered_fold(
                    workers,
                    shards,
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
                    || {},
                    |batch: Vec<u64>| out.extend(batch),
                    |sum| sums.push(sum),
                );
                assert_eq!((out, sums), expect, "shards={shards} workers={workers}");
            }
        }
    }

    #[test]
    fn sharded_fold_handles_zero_and_empty_shards() {
        let (mut batches, mut sums) = (0u32, 0u32);
        sharded_ordered_fold(
            4,
            0,
            |_shard, _emit: &mut dyn FnMut(u32)| 0u32,
            || {},
            |_| batches += 1,
            |_| sums += 1,
        );
        assert_eq!((batches, sums), (0, 0));
        // Shards that emit nothing still deliver their summary in order.
        let mut sums = Vec::new();
        sharded_ordered_fold(
            3,
            6,
            |shard, _emit: &mut dyn FnMut(u32)| shard as u32,
            || {},
            |_b: u32| unreachable!("no batches emitted"),
            |s| sums.push(s),
        );
        assert_eq!(sums, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sharded_fold_worker_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded_ordered_fold(
                4,
                16,
                |shard, emit| {
                    if shard == 7 {
                        panic!("unlucky shard");
                    }
                    emit(vec![shard as u64]);
                    shard
                },
                || {},
                |_: Vec<u64>| {},
                |_| {},
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
                |shard, emit| {
                    for i in 0..50u64 {
                        emit((shard, i));
                    }
                    shard
                },
                || {},
                |(shard, _i): (usize, u64)| {
                    if shard == 3 {
                        panic!("fold rejects shard 3");
                    }
                },
                |_| {},
            )
        }));
        assert!(result.is_err(), "fold panic must propagate");
    }

    /// Run `fold` on a fresh thread and report whether it panicked, failing
    /// the test if it has not returned within ten seconds (a hang).
    fn panics_within_ten_seconds(fold: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fold));
            let _ = tx.send(result.is_err());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the sharded fold hung instead of propagating the panic")
    }

    #[test]
    fn a_panicking_lead_propagates_without_deadlock() {
        // Workers run ahead of the fold, which never starts; the lead's
        // unwind must stop all of them.
        for workers in [1usize, 4] {
            let panicked = panics_within_ten_seconds(move || {
                sharded_ordered_fold(
                    workers,
                    16,
                    |shard, emit| {
                        for i in 0..50u64 {
                            emit(vec![i]);
                        }
                        shard
                    },
                    || panic!("the lead failed"),
                    |_: Vec<u64>| {},
                    |_| {},
                );
            });
            assert!(panicked, "workers={workers}: lead panic must propagate");
        }
    }

    #[test]
    fn a_worker_ahead_of_the_fold_finishes_its_shard_without_waiting() {
        // Shard 0 cannot finish until shard 1's scan has returned, while
        // the fold is still waiting on shard 0: shard 1's sixteen batches
        // must all be accepted without the fold taking any of them.
        let panicked = panics_within_ten_seconds(|| {
            let shard_1_returned = AtomicBool::new(false);
            let mut folded = 0usize;
            sharded_ordered_fold(
                2,
                2,
                |shard, emit| {
                    if shard == 0 {
                        while !shard_1_returned.load(Ordering::SeqCst) {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                    for i in 0..16u64 {
                        emit(vec![i]);
                    }
                    if shard == 1 {
                        shard_1_returned.store(true, Ordering::SeqCst);
                    }
                    shard
                },
                || {},
                |_: Vec<u64>| folded += 1,
                |_| {},
            );
            assert_eq!(folded, 32);
        });
        assert!(!panicked, "the fold must take every batch of both shards");
    }

    #[test]
    fn the_window_holds_no_shard_while_the_lead_runs() {
        // The fold cannot drain before the lead returns, so holding shards
        // at the window then would only idle the workers: shard `workers`,
        // past the first window, must start while the lead still runs.
        let workers = 2;
        let (started, starts) = std::sync::mpsc::channel();
        let mut folded = Vec::new();
        sharded_ordered_fold(
            workers,
            2 * workers,
            |shard, emit| {
                let _ = started.send(shard);
                emit(shard);
                shard
            },
            || loop {
                let shard = starts
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .expect("the gate held shard `workers` while the lead ran");
                if shard == workers {
                    break;
                }
            },
            |batch| folded.push(batch),
            |_| {},
        );
        assert_eq!(folded, [0, 1, 2, 3]);
    }

    #[test]
    fn a_worker_panic_while_the_lead_runs_propagates_without_deadlock() {
        let panicked = panics_within_ten_seconds(|| {
            let worker_died = AtomicBool::new(false);
            sharded_ordered_fold(
                4,
                16,
                |shard, emit| {
                    if shard == 2 {
                        worker_died.store(true, Ordering::SeqCst);
                        panic!("unlucky shard");
                    }
                    emit(vec![shard as u64]);
                    shard
                },
                // The lead is still running when the worker dies.
                || {
                    while !worker_died.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                },
                |_: Vec<u64>| {},
                |_| {},
            );
        });
        assert!(panicked, "worker panic must propagate");
    }

    #[test]
    fn every_worker_panicking_early_propagates_without_deadlock() {
        // Both workers die on their first shard while six shards are still
        // unclaimed: the fold must propagate the panic, not hang. Shard 0's
        // sender drops with its worker, so the fold stops there, before any
        // unclaimed shard.
        let panicked = panics_within_ten_seconds(|| {
            sharded_ordered_fold(
                2,
                8,
                |shard, _emit: &mut dyn FnMut(u64)| -> usize { panic!("shard {shard} failed") },
                || {},
                |_| {},
                |_| {},
            );
        });
        assert!(panicked, "worker panics must propagate");
    }
}
