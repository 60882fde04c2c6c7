//! §4.2's evaluation: feeding the *delegated* records of the target list
//! through the exclusion logic must label nothing suspicious — and
//! ablations show which conditions carry that guarantee.

use urhunter::{evaluate_false_negatives, run, HunterConfig};
use worldgen::{World, WorldConfig};

#[test]
fn delegated_records_yield_zero_suspicious() {
    let mut world = World::generate(WorldConfig::small());
    let cfg = HunterConfig::fast();
    let out = run(&mut world, &cfg);
    let fn_count = evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    assert_eq!(fn_count, 0, "paper reports a zero false-negative rate");
}

#[test]
fn disabling_all_conditions_breaks_the_guarantee() {
    // Sanity check that the evaluation has teeth: with every exclusion
    // condition off, delegated records DO come out suspicious.
    let mut world = World::generate(WorldConfig::small());
    let mut cfg = HunterConfig::fast();
    let out = run(&mut world, &cfg);
    cfg.classify.use_ip_subset = false;
    cfg.classify.use_as_subset = false;
    cfg.classify.use_geo_subset = false;
    cfg.classify.use_cert_subset = false;
    cfg.classify.use_pdns = false;
    cfg.classify.use_http_exclusion = false;
    let fn_count = evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    assert!(
        fn_count > 0,
        "ablated classifier must mislabel delegated records"
    );
}

#[test]
fn ip_subset_alone_covers_most_delegated_records() {
    // The IP-subset condition is the workhorse: alone it should already
    // exclude the overwhelming majority of delegated records.
    let mut world = World::generate(WorldConfig::small());
    let mut cfg = HunterConfig::fast();
    let out = run(&mut world, &cfg);
    cfg.classify.use_as_subset = false;
    cfg.classify.use_geo_subset = false;
    cfg.classify.use_cert_subset = false;
    cfg.classify.use_pdns = false;
    cfg.classify.use_http_exclusion = false;
    let with_ip_only =
        evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    cfg.classify.use_ip_subset = false;
    cfg.classify.use_pdns = true;
    let without_ip =
        evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    // pdns also sees current records (they are in history), so both are
    // small; but ip-subset alone must leave at most a handful unexplained.
    assert!(
        with_ip_only <= without_ip + 5,
        "ip-only {with_ip_only} vs pdns-only {without_ip}"
    );
}

#[test]
fn guarantee_holds_under_one_percent_loss() {
    // The paper's zero-FN claim has to survive a real network: under 1%
    // drop with retries, the replay still answers every delegated probe
    // and still labels nothing suspicious.
    let mut world = World::generate(WorldConfig::small());
    let cfg = HunterConfig::fast()
        .with_retries(5)
        .with_scan_faults(simnet::FaultPlan::lossy(0.01));
    let out = run(&mut world, &cfg);
    assert!(
        out.coverage.is_complete(),
        "lossy run must account for every probe"
    );
    let fn_count = evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    assert_eq!(fn_count, 0, "1% loss must not create false negatives");
}

#[test]
fn guarantee_holds_across_seeds() {
    for seed in [1u64, 99, 31_337] {
        let mut world = World::generate(WorldConfig::small().with_seed(seed));
        let cfg = HunterConfig::fast();
        let out = run(&mut world, &cfg);
        let fn_count =
            evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
        assert_eq!(fn_count, 0, "seed {seed}: false negatives appeared");
    }
}
