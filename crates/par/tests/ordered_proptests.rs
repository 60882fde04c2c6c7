//! Property test for the one ordered-merge executor: for arbitrary shard
//! counts, per-shard values and worker counts,
//! [`par::sharded_ordered_fold`] must be indistinguishable from the
//! sequential shard loop its documentation defines it by. Worker count 1
//! takes the executor's inline arm and every other count the threaded
//! one, so the property also pins the two arms to each other. It also pins
//! where and when the calling thread's `lead` step runs.

use par::sharded_ordered_fold;
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
    fn sharded_ordered_fold_equals_the_sequential_shard_loop(
        plan in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec(any::<u64>(), 0..6),
                0..10,
            ),
            0..13,
        ),
        workers in 1usize..9,
    ) {
        let caller = std::thread::current().id();
        // With one effective worker nothing is spawned, and the lead must
        // run before shard 0's map, exactly as a sequential loop would.
        let inline = workers.min(plan.len().max(1)) == 1;
        let leads = AtomicUsize::new(0);
        let expect: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(shard, batches)| (shard, batches.clone(), summary_of(shard, batches)))
            .collect();
        // Each value carries its shard, so the merge can record which
        // shard it thinks it is merging.
        let mut got = Vec::new();
        sharded_ordered_fold(
            workers,
            plan.len(),
            |shard| {
                if inline {
                    assert_eq!(leads.load(SeqCst), 1, "one worker: the lead precedes every map");
                }
                (shard, plan[shard].clone(), summary_of(shard, &plan[shard]))
            },
            || {
                assert_eq!(std::thread::current().id(), caller, "the lead runs on the calling thread");
                leads.fetch_add(1, SeqCst);
            },
            |value| {
                assert_eq!(leads.load(SeqCst), 1, "the merge saw a value before the lead ran");
                got.push(value);
            },
        );
        prop_assert_eq!(leads.load(SeqCst), 1);
        prop_assert_eq!(got, expect);
    }
}
