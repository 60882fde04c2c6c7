//! The benchmark's frozen surface, under `cargo test`.
//!
//! `urbench/` is a package of its own that tier-1 never compiles, and its
//! files may not change: everything it calls into the program goes through
//! `urbench/src/adapter.rs`. This file pulls that adapter in as it is
//! (with the three modules it leans on), so a change that breaks one of
//! its calls fails to compile here, and runs each of its entry points once
//! on the quick worlds, holding them to the equalities `urbench` checks
//! between its runs.

#[allow(dead_code)]
#[path = "../urbench/src/adapter.rs"]
mod adapter;
#[allow(dead_code)]
#[path = "../urbench/src/alloc.rs"]
mod alloc;
#[allow(dead_code)]
#[path = "../urbench/src/stats.rs"]
mod stats;
#[allow(dead_code)]
#[path = "../urbench/src/trace.rs"]
mod trace;

use adapter::ScanFacts;

const SEED: u64 = 7;
const QUICK: bool = true;

fn plain_scan(lossy: bool) -> ScanFacts {
    let mut world = adapter::eager_world(SEED, QUICK);
    adapter::scan_eager(&mut world, &adapter::scan_config(lossy))
}

fn staged_scan(lossy: bool) -> (ScanFacts, adapter::BulkScan) {
    let mut world = adapter::eager_world(SEED, QUICK);
    let mut rec = trace::Recorder::new("surface".into());
    let out = adapter::scan_staged(&mut world, &adapter::scan_config(lossy), &mut rec);
    let spans: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
    for stage in ["scan", "core.collect", "core.classify", "core.report"] {
        assert!(spans.contains(&stage), "no {stage} span in {spans:?}");
    }
    out
}

#[test]
fn a_world_scanned_twice_is_identical_and_the_staged_run_equals_run() {
    for lossy in [false, true] {
        let plain = plain_scan(lossy);
        assert!(plain.urs > 0 && plain.split.iter().sum::<u64>() == plain.urs);
        assert_eq!(plain.coverage.retransmissions > 0, lossy);
        assert_eq!(plain_scan(lossy), plain, "lossy {lossy}: second scan");
        let (staged, bulk) = staged_scan(lossy);
        assert_eq!(staged, plain, "lossy {lossy}: staged run");
        assert!(bulk.scheduled > 0 && bulk.sent >= bulk.scheduled);
        assert_eq!(bulk.dropped > 0, lossy);
    }
}

#[test]
fn a_hub_changes_nothing() {
    let mut world = adapter::eager_world(SEED, QUICK);
    assert_eq!(adapter::scan_eager_observed(&mut world), plain_scan(false));
}

#[test]
fn one_stream_worker_equals_the_automatic_count() {
    let world = adapter::stream_world(SEED, QUICK);
    let auto = adapter::scan_stream(&world, None);
    let one = adapter::scan_stream(&world, Some(1));
    assert!(auto.urs > 0 && auto.workers >= 1);
    assert_eq!(one.workers, 1);
    assert_eq!(
        one,
        ScanFacts {
            workers: 1,
            ..auto.clone()
        }
    );
    assert_eq!(adapter::scan_stream(&world, None), auto, "second scan");
}

#[test]
fn the_probe_and_support_layers_run() {
    let mut world = adapter::eager_world(SEED, QUICK);
    let (probe, support) = adapter::eager_layers(&mut world, SEED);
    assert!(
        probe.serve_ns.is_some(),
        "an eager world has provider nodes"
    );
    assert!(probe.answer_share > 0.0 && probe.answer_share <= 1.0);
    assert!(probe.response_bytes_mean > 12.0);
    assert!(support.pdns_contains_ns > 0.0 && support.resolve_cold_ns > 0.0);
    let stream = adapter::stream_layers(&adapter::stream_world(SEED, QUICK), SEED);
    assert!(
        stream.serve_ns.is_none(),
        "a lazy blueprint hands out no node"
    );
    assert!(stream.answer_share > 0.0 && stream.answer_share <= 1.0);
}

#[test]
fn the_daemon_serves_its_epochs_and_replays() {
    let epochs = adapter::daemon_epochs(QUICK);
    let handle = adapter::start_daemon(SEED, QUICK).expect("a loopback port");
    let started = std::time::Instant::now();
    while handle.epochs_done() < epochs {
        assert!(started.elapsed().as_secs() < 150, "the epochs never sealed");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    handle.request_shutdown();
    let state = handle.join();
    assert_eq!(state.epochs_done, epochs);
    adapter::verify_replay(&state).expect("the log replays to the live store");
    let domain = state
        .store
        .iter()
        .map(|(key, _)| key.domain.to_string())
        .next()
        .expect("three epochs tracked a domain");
    let records = adapter::expected_verdict_records(&state, &domain).expect("tracked");
    assert!(!records.is_empty());
    assert!(adapter::expected_verdict_records(&state, "never-seen.example").is_none());

    // The same epochs through the in-process driver, no socket.
    let driver = adapter::driver_layers(SEED, QUICK).expect("the driver's log replays");
    assert_eq!(driver.scan_epoch_ms.len() as u64, epochs);
    assert!(driver.events_per_epoch > 0.0);
    assert!(adapter::store_identity(&state).starts_with("verdict hash "));
}
