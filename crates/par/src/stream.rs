//! Sharded work: the one fold executor.
//!
//! A bulk scan is parallel at the *source*: each shard drives its own
//! replica of the simulated network (whose nodes are `!Sync` by design).
//! [`sharded_fold`] is that executor: a scoped map over shards. Worker
//! threads claim whole shards from an atomic counter and turn each into
//! one value; the calling thread runs its own `lead` step beside them,
//! then merges the values as they arrive, each with its shard index. A
//! merge that is commutative (sums, unions, values kept by shard index)
//! is therefore bit-identical to the sequential shard loop for every
//! worker count. With one worker it *is* that loop, on the calling thread.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;

/// Map `shards` independent shards to one value each on `workers` threads
/// and merge the values on the **calling thread** as they arrive.
///
/// * `map(shard)` runs on a worker thread. Workers claim shard indices in
///   order from a shared counter, so shard→thread assignment, and the
///   order values arrive in, are load-balanced and non-deterministic.
/// * `merge(shard, value)` runs on the calling thread, exactly once a
///   shard, in arrival order: when it commutes, what it builds is
///   bit-identical to `for shard in 0..shards { merge(shard, map(shard)) }`
///   for any worker count.
/// * `lead()` runs exactly once, on the calling thread, after the workers
///   are spawned and before the first merge: work that must stay on the
///   calling thread (because it owns `!Send` state) overlaps the maps
///   instead of preceding them. No worker waits for it.
/// * Memory: a worker maps one shard at a time, and every value goes over
///   one unbounded channel, so no worker waits for the merge either; a
///   value waits in the channel only while `lead` or an earlier merge
///   runs.
///
/// With one worker (one shard, or `workers <= 1`) no thread is spawned:
/// `lead` runs first and then the loop above runs as written on the
/// calling thread, which keeps its thread, allocator arena and resident
/// set.
///
/// Panics propagate without deadlock. A panicking worker raises a shared
/// stop flag as it unwinds, and drops its sender; each peer stops once it
/// has mapped the shard in hand, and once all of them have stopped the
/// merge finds the channel closed short of `shards` values. A panicking
/// `lead` or `merge` drops the receiver, so each worker stops once it has
/// mapped the shard in hand. The thread scope joins every worker before
/// the panic leaves.
pub fn sharded_fold<V: Send>(
    workers: usize,
    shards: usize,
    map: impl Fn(usize) -> V + Sync,
    lead: impl FnOnce(),
    mut merge: impl FnMut(usize, V),
) {
    let workers = workers.max(1).min(shards.max(1));
    if workers == 1 {
        lead();
        (0..shards).for_each(|shard| merge(shard, map(shard)));
        return;
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (sender, receiver) = channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (sender, next, stop, map) = (sender.clone(), &next, &stop, &map);
            // The counter and the stop flag publish no other data.
            scope.spawn(move || {
                let _stop_on_unwind = StopOnUnwind(stop);
                while !stop.load(Ordering::Relaxed) {
                    let shard = next.fetch_add(1, Ordering::Relaxed);
                    if shard >= shards || sender.send((shard, map(shard))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(sender);
        // Owned by this closure, so it drops as soon as `lead` or `merge`
        // unwinds.
        let receiver = receiver;
        lead();
        for _ in 0..shards {
            let (shard, value) = receiver
                .recv()
                .expect("sharded scan aborted: a worker panicked");
            merge(shard, value);
        }
    });
}

/// Raises its flag when dropped by a panic's unwind.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard's value: its index in the top half of every word.
    fn shard_words(shard: usize) -> Vec<u64> {
        (0..23u64)
            .map(|i| (shard as u64) << 32 | i.wrapping_mul(31))
            .collect()
    }

    /// A merge that keeps each value in its shard's slot is the loop's.
    #[test]
    fn sharded_fold_is_bit_identical_for_every_worker_count() {
        for shards in [1usize, 2, 5, 8] {
            let expect: Vec<u64> = (0..shards).flat_map(shard_words).collect();
            for workers in [1usize, 2, 4, 8] {
                let mut slots = vec![Vec::new(); shards];
                sharded_fold(
                    workers,
                    shards,
                    shard_words,
                    || {},
                    |shard, v| slots[shard] = v,
                );
                assert_eq!(slots.concat(), expect, "shards={shards} workers={workers}");
            }
        }
    }

    #[test]
    fn sharded_fold_handles_zero_and_empty_shards() {
        let mut merged = 0u32;
        sharded_fold(4, 0, |_shard| 0u32, || {}, |_, _| merged += 1);
        assert_eq!(merged, 0);
        // Empty values still arrive, one a shard, beside their index.
        let mut out = Vec::new();
        sharded_fold(
            3,
            6,
            |shard| (shard, Vec::<u32>::new()),
            || {},
            |shard, v| out.push((shard, v)),
        );
        out.sort_unstable();
        let each = |s| (s, (s, Vec::new()));
        assert_eq!(out, (0..6).map(each).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_fold_worker_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            sharded_fold(
                4,
                16,
                |shard| {
                    if shard == 7 {
                        panic!("unlucky shard");
                    }
                    shard
                },
                || {},
                |_, _| {},
            )
        });
        assert!(result.is_err(), "worker panic must propagate");
    }

    #[test]
    fn sharded_fold_consumer_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            sharded_fold(
                4,
                16,
                |shard| shard,
                || {},
                |shard, _| {
                    if shard == 3 {
                        panic!("the merge rejects shard 3");
                    }
                },
            )
        });
        assert!(result.is_err(), "merge panic must propagate");
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

    /// Spin until `flag` is set.
    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn a_panicking_lead_propagates_without_deadlock() {
        // Workers map ahead of a merge that never starts; the lead's
        // unwind must stop all of them.
        for workers in [1usize, 4] {
            let panicked = panics_within_ten_seconds(move || {
                sharded_fold(
                    workers,
                    16,
                    |shard| shard,
                    || panic!("the lead failed"),
                    |_, _| {},
                );
            });
            assert!(panicked, "workers={workers}: lead panic must propagate");
        }
    }

    #[test]
    fn a_worker_ahead_of_the_fold_finishes_its_shard_without_waiting() {
        // Shard 0 cannot finish until shards 1 to 3 have been mapped: the
        // other worker must hand over each of them and claim the next, and
        // the merge takes shard 1 before shard 0 is done.
        let panicked = panics_within_ten_seconds(|| {
            let later = AtomicUsize::new(0);
            let all_later_mapped = AtomicBool::new(false);
            let mut merged = Vec::new();
            sharded_fold(
                2,
                4,
                |shard| {
                    if shard == 0 {
                        wait_for(&all_later_mapped);
                    } else if later.fetch_add(1, Ordering::SeqCst) == 2 {
                        all_later_mapped.store(true, Ordering::SeqCst);
                    }
                    shard
                },
                || {},
                |shard, _| merged.push(shard),
            );
            assert_eq!(merged[0], 1);
            merged.sort_unstable();
            assert_eq!(merged, [0, 1, 2, 3]);
        });
        assert!(!panicked, "the merge must take every shard's value");
    }

    #[test]
    fn a_slow_first_shard_is_merged_last_and_once() {
        // Shard 0 finishes only once every other shard has been merged: the
        // merge must take each of them as it arrives, and see each shard
        // exactly once.
        for workers in [2usize, 4, 8] {
            let panicked = panics_within_ten_seconds(move || {
                let shards = 12;
                let others_merged = AtomicBool::new(false);
                let mut merged = Vec::new();
                sharded_fold(
                    workers,
                    shards,
                    |shard| {
                        if shard == 0 {
                            wait_for(&others_merged);
                        }
                        shard
                    },
                    || {},
                    |shard, _| {
                        merged.push(shard);
                        if merged.len() == shards - 1 {
                            others_merged.store(true, Ordering::SeqCst);
                        }
                    },
                );
                assert_eq!(merged.last(), Some(&0));
                merged.sort_unstable();
                assert_eq!(merged, (0..shards).collect::<Vec<_>>());
            });
            assert!(!panicked, "workers={workers}");
        }
    }

    #[test]
    fn no_worker_waits_for_the_lead() {
        // The lead returns only once every shard has been mapped.
        let panicked = panics_within_ten_seconds(|| {
            let mapped = AtomicUsize::new(0);
            let mut merged = Vec::new();
            sharded_fold(
                2,
                6,
                |shard| {
                    mapped.fetch_add(1, Ordering::SeqCst);
                    shard
                },
                || {
                    while mapped.load(Ordering::SeqCst) < 6 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                },
                |shard, _| merged.push(shard),
            );
            merged.sort_unstable();
            assert_eq!(merged, [0, 1, 2, 3, 4, 5]);
        });
        assert!(!panicked, "a worker waited for the lead");
    }

    #[test]
    fn a_worker_panic_while_the_lead_runs_propagates_without_deadlock() {
        // The worker on shard 2 dies while its peers hold shards 0, 1 and
        // (at most) 3. They finish those only once the dead worker's thread
        // has exited, which is after its unwind, and must claim no other.
        static DEAD_WORKER_EXITED: AtomicBool = AtomicBool::new(false);
        struct OnThreadExit;
        impl Drop for OnThreadExit {
            fn drop(&mut self) {
                DEAD_WORKER_EXITED.store(true, Ordering::SeqCst);
            }
        }
        thread_local!(static EXIT: OnThreadExit = const { OnThreadExit });
        let claimed = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = claimed.clone();
        let panicked = panics_within_ten_seconds(move || {
            let worker_died = AtomicBool::new(false);
            sharded_fold(
                4,
                16,
                |shard| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    if shard == 2 {
                        EXIT.with(|_| {});
                        worker_died.store(true, Ordering::SeqCst);
                        panic!("unlucky shard");
                    }
                    wait_for(&DEAD_WORKER_EXITED);
                    shard
                },
                // The lead is still running when the worker dies.
                || wait_for(&worker_died),
                |_, _| {},
            );
        });
        assert!(panicked, "worker panic must propagate");
        let claimed = claimed.load(Ordering::SeqCst);
        assert!(
            claimed <= 4,
            "live workers claimed {claimed} shards, not only those in hand when a peer panicked"
        );
    }

    #[test]
    fn every_worker_panicking_early_propagates_without_deadlock() {
        // Both workers die on their first shard while six shards are still
        // unclaimed: the merge must propagate the panic, not hang.
        let panicked = panics_within_ten_seconds(|| {
            sharded_fold(
                2,
                8,
                |shard| -> usize { panic!("shard {shard} failed") },
                || {},
                |_, _| {},
            );
        });
        assert!(panicked, "worker panics must propagate");
    }
}
