//! Property test for the one fold executor: for arbitrary shard counts,
//! per-shard values and worker counts {1, 2, 4, 8}, [`par::sharded_fold`]
//! merges every shard's value exactly once, beside its own index, after
//! the calling thread's `lead` step, and a commutative merge builds what
//! the sequential shard loop builds. Worker count 1 takes the executor's
//! inline arm and every other count the threaded one, so the property also
//! pins the two arms to each other.

use par::sharded_fold;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

fn summary_of(shard: usize, batches: &[Vec<u64>]) -> u64 {
    batches
        .iter()
        .flatten()
        .fold(shard as u64, |h, x| h.rotate_left(5) ^ x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_fold_merges_each_shard_once_as_the_sequential_loop_does(
        plan in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..6),
                0..10,
            ),
            0..13,
        ),
    ) {
        let caller = std::thread::current().id();
        // The sequential loop, folded by a wrapping sum of the summaries
        // and a count of the words: both commute.
        let fold = |(sum, words): (u64, usize), batches: &[Vec<u64>], summary: u64| {
            (sum.wrapping_add(summary), words + batches.iter().map(Vec::len).sum::<usize>())
        };
        let mut expect = (0u64, 0usize);
        for (shard, batches) in plan.iter().enumerate() {
            expect = fold(expect, batches, summary_of(shard, batches));
        }
        for workers in [1usize, 2, 4, 8] {
            // With one effective worker nothing is spawned, and the lead
            // must run before shard 0's map, exactly as a sequential loop
            // would.
            let inline = workers.min(plan.len().max(1)) == 1;
            let leads = AtomicUsize::new(0);
            let mut merged = vec![0usize; plan.len()];
            let mut got = (0u64, 0usize);
            sharded_fold(
                workers,
                plan.len(),
                |shard| {
                    if inline {
                        assert_eq!(leads.load(SeqCst), 1, "one worker: the lead precedes every map");
                    }
                    (plan[shard].clone(), summary_of(shard, &plan[shard]))
                },
                || {
                    assert_eq!(std::thread::current().id(), caller, "the lead runs on the calling thread");
                    leads.fetch_add(1, SeqCst);
                },
                |shard, (batches, summary)| {
                    assert_eq!(leads.load(SeqCst), 1, "the merge saw a value before the lead ran");
                    assert_eq!(std::thread::current().id(), caller, "the merge runs on the calling thread");
                    // The value is the one its index names.
                    assert_eq!(batches, plan[shard]);
                    merged[shard] += 1;
                    got = fold(got, &batches, summary);
                },
            );
            prop_assert_eq!(leads.load(SeqCst), 1);
            prop_assert!(merged.iter().all(|&n| n == 1), "workers={}: {:?}", workers, merged);
            prop_assert_eq!(got, expect);
        }
    }
}
