//! Tier-1's hold on the committed `BENCH_pipeline.json`: the `small` block,
//! rebuilt in-process across every execution axis, must be in the file
//! verbatim. (`ci.sh` diffs the whole file against the `invariants` binary.)

#[test]
fn the_committed_invariants_file_holds_the_small_block() {
    let committed = include_str!("../../../BENCH_pipeline.json");
    let block = bench::invariants::small();
    assert!(
        committed.contains(&block),
        "a hash, count or simulated microsecond of the small world moved: \
         BENCH_pipeline.json no longer contains\n{block}\n\
         If the change is meant, refresh the file with\n  \
         cargo build --release && ./target/release/invariants > BENCH_pipeline.json\n\
         and give the reason for every value that moved in CHANGES.md."
    );
}
