//! Property test for the one ordered-merge executor: for arbitrary shard
//! counts, per-shard batch lists and worker counts,
//! [`par::sharded_ordered_fold`] must be indistinguishable from the
//! sequential shard loop its documentation defines it by. Worker count 1
//! takes the executor's inline arm and every other count the threaded
//! one, so the property also pins the two arms to each other. It also pins
//! where and when the calling thread's `lead` step runs.

use par::sharded_ordered_fold;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// What the fold saw, in the order it saw it.
#[derive(Debug, PartialEq)]
enum Folded {
    Batch(usize, Vec<u64>),
    Done(usize, u64),
}

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
        // run before shard 0's scan, exactly as a sequential loop would.
        let inline = workers.min(plan.len().max(1)) == 1;
        let leads = AtomicUsize::new(0);
        let mut expect = Vec::new();
        for (shard, batches) in plan.iter().enumerate() {
            for batch in batches {
                expect.push(Folded::Batch(shard, batch.clone()));
            }
            expect.push(Folded::Done(shard, summary_of(shard, batches)));
        }
        // Batches and summaries carry their shard, so the fold can record
        // which shard it thinks it is folding.
        let got = std::cell::RefCell::new(Vec::new());
        sharded_ordered_fold(
            workers,
            plan.len(),
            |shard, emit| {
                if inline {
                    assert_eq!(leads.load(SeqCst), 1, "one worker: the lead precedes every scan");
                }
                for batch in &plan[shard] {
                    emit((shard, batch.clone()));
                }
                (shard, summary_of(shard, &plan[shard]))
            },
            || {
                assert_eq!(std::thread::current().id(), caller, "the lead runs on the calling thread");
                leads.fetch_add(1, SeqCst);
            },
            |(shard, batch)| {
                assert_eq!(leads.load(SeqCst), 1, "the fold saw a batch before the lead ran");
                got.borrow_mut().push(Folded::Batch(shard, batch));
            },
            |(shard, summary)| {
                assert_eq!(leads.load(SeqCst), 1, "the fold saw a summary before the lead ran");
                got.borrow_mut().push(Folded::Done(shard, summary));
            },
        );
        prop_assert_eq!(leads.load(SeqCst), 1);
        prop_assert_eq!(got.into_inner(), expect);
    }
}
