//! Tier-1's hold on the two committed documents: the `small` block of
//! `BENCH_pipeline.json`, rebuilt in-process across every execution axis,
//! and the Table 2 section of `RESULTS.md` must each be in their file
//! verbatim. (`ci.sh` diffs both whole files against the `invariants` and
//! `paper` binaries.)

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

#[test]
fn the_committed_results_file_holds_the_table2_section() {
    let committed = include_str!("../../../RESULTS.md");
    let section = bench::paper::table2().to_string();
    assert!(
        committed.contains(&section),
        "the probe-reconstructed Table 2 moved: RESULTS.md no longer contains\n{section}\n\
         If the change is meant, refresh the file with\n  \
         cargo build --release && ./target/release/paper > RESULTS.md\n\
         and give the reason in CHANGES.md."
    );
}
