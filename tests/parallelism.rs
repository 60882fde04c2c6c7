//! The parallel execution layer must be invisible in the results: every
//! worker count — sequential included — produces bit-identical output.

use urhunter::{classify_all, evaluate_false_negatives, run, HunterConfig};
use worldgen::{World, WorldConfig};

/// Full-pipeline totals and per-UR categories are identical for
/// `workers` 1, 2, 3 and 8.
#[test]
fn pipeline_output_identical_across_worker_counts() {
    let baseline = {
        let mut world = World::generate(WorldConfig::small());
        run(&mut world, &HunterConfig::fast().with_workers(1))
    };
    for workers in [2usize, 3, 8] {
        let mut world = World::generate(WorldConfig::small());
        let out = run(&mut world, &HunterConfig::fast().with_workers(workers));
        assert_eq!(
            out.report.totals, baseline.report.totals,
            "totals diverge at workers={workers}"
        );
        assert_eq!(out.classified.len(), baseline.classified.len());
        for (a, b) in out.classified.iter().zip(baseline.classified.iter()) {
            assert_eq!(a.ur.key, b.ur.key, "UR order diverges at workers={workers}");
            assert_eq!(a.category, b.category);
            assert_eq!(a.correct_reason, b.correct_reason);
            assert_eq!(a.corresponding_ips, b.corresponding_ips);
        }
    }
}

/// `classify_all` alone — the par_map call site — is order- and
/// content-stable across worker counts, including auto (0).
#[test]
fn classify_all_identical_for_sequential_and_parallel() {
    let mut world = World::generate(WorldConfig::small());
    let cfg = HunterConfig::fast();
    let out = run(&mut world, &cfg);

    let mut classify_cfg = cfg.classify.clone();
    classify_cfg.today = world.config.today;
    classify_cfg.parallelism = 1;
    let sequential = classify_all(
        &out.collected,
        &out.correct_db,
        &out.protective_db,
        &world.db,
        &world.pdns,
        &classify_cfg,
    );
    for workers in [0usize, 2, 5] {
        classify_cfg.parallelism = workers;
        let parallel = classify_all(
            &out.collected,
            &out.correct_db,
            &out.protective_db,
            &world.db,
            &world.pdns,
            &classify_cfg,
        );
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(sequential.iter()) {
            assert_eq!(p.ur.key, s.ur.key);
            assert_eq!(p.category, s.category);
            assert_eq!(p.correct_reason, s.correct_reason);
            assert_eq!(p.txt_category, s.txt_category);
            assert_eq!(p.corresponding_ips, s.corresponding_ips);
        }
    }
}

/// The §4.2 false-negative guarantee holds regardless of worker count.
#[test]
fn false_negative_evaluation_unaffected_by_parallelism() {
    let mut world = World::generate(WorldConfig::small());
    let cfg = HunterConfig::fast().with_workers(4);
    let out = run(&mut world, &cfg);
    let fn_count = evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
    assert_eq!(fn_count, 0);
}
