//! Property test for the one ordered-merge executor: for arbitrary shard
//! counts, per-shard batch lists, worker counts and queue capacities,
//! [`par::sharded_ordered_fold`] must be indistinguishable from the
//! sequential shard loop its documentation defines it by. Worker count 1
//! takes the executor's inline arm and every other count the threaded
//! one, so the property also pins the two arms to each other.

use par::sharded_ordered_fold;
use proptest::prelude::*;

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
        capacity in 1usize..5,
    ) {
        let mut expect = Vec::new();
        for (shard, batches) in plan.iter().enumerate() {
            for batch in batches {
                expect.push(Folded::Batch(shard, batch.clone()));
            }
            expect.push(Folded::Done(shard, summary_of(shard, batches)));
        }
        let got = sharded_ordered_fold(
            workers,
            plan.len(),
            capacity,
            |shard, emit| {
                for batch in &plan[shard] {
                    emit(batch.clone());
                }
                summary_of(shard, &plan[shard])
            },
            Vec::new(),
            |acc: &mut Vec<Folded>, shard, batch| acc.push(Folded::Batch(shard, batch)),
            |acc: &mut Vec<Folded>, shard, summary| acc.push(Folded::Done(shard, summary)),
        );
        prop_assert_eq!(got, expect);
    }
}
