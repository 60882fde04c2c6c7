//! End-to-end contract for the daemon's control plane.
//!
//! Starts a real daemon (real listener on a kernel-assigned port, real
//! scan thread) limited to three epochs, and checks every HTTP answer
//! against an *independent* in-process run of the identical driver
//! configuration — determinism is what makes that comparison valid.

use std::ops::RangeInclusive;
use std::time::{Duration, Instant};
use urhunterd::{
    http_get, json_str_field, json_u64_field, DaemonConfig, DriverConfig, EpochDriver, LiveState,
};

fn drifting_config() -> DriverConfig {
    let mut cfg = DriverConfig::small();
    cfg.drift_days = 240;
    cfg.new_campaigns = 25;
    cfg.expire_fraction = 0.5;
    cfg
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        listen: "127.0.0.1:0".parse().unwrap(),
        max_epochs: Some(3),
        wall_interval: Duration::ZERO,
        driver: drifting_config(),
    }
}

/// Poll `/healthz` until the daemon reports a count of completed epochs
/// in `epochs`. A daemon with no epoch limit may pass any count between
/// two polls, so it is waited for with an open range.
fn wait_for_epochs(addr: std::net::SocketAddr, epochs: RangeInclusive<u64>) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok((200, body)) = http_get(addr, "/healthz") {
            if json_u64_field(&body, "epochs_done").is_some_and(|done| epochs.contains(&done)) {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached epochs {epochs:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn prom_value(metrics: &str, name: &str) -> Option<u64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix("{class=\"sim\"} ")?;
        rest.trim().parse().ok()
    })
}

#[test]
fn daemon_serves_verdicts_deltas_coverage_and_metrics() {
    // The oracle: the same configuration run in-process.
    let mut oracle_driver = EpochDriver::new(drifting_config());
    let mut oracle = LiveState::default();
    for _ in 0..3 {
        oracle_driver.step(&mut oracle);
    }

    let handle = urhunterd::start(daemon_config()).expect("daemon starts");
    let addr = handle.addr();
    wait_for_epochs(addr, 3..=3);

    // /healthz reflects progress and limits.
    let (status, health) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json_str_field(&health, "status"), Some("ok"));
    assert_eq!(json_u64_field(&health, "max_epochs"), Some(3));
    assert_eq!(
        json_u64_field(&health, "store_present"),
        Some(oracle.store.present_len())
    );

    // /deltas?since=2 serves exactly epoch 3, sealed like the oracle's.
    let (status, deltas) = http_get(addr, "/deltas?since=2").unwrap();
    assert_eq!(status, 200);
    let seal = oracle.log.records().last().unwrap().seal;
    assert_eq!(json_u64_field(&deltas, "epochs_done"), Some(3));
    assert_eq!(json_str_field(&deltas, "compacted_before"), None);
    assert!(deltas.contains("\"compacted_before\":false"));
    assert!(
        deltas.contains(&format!("\"verdict_hash\":\"{:#018x}\"", seal.verdict_hash)),
        "epoch 3 seal over HTTP does not match the oracle run"
    );
    assert!(deltas.contains(&format!(
        "\"classified_hash\":\"{:#018x}\"",
        seal.classified_hash
    )));
    assert!(deltas.contains(&format!("\"sim_hash\":\"{:#018x}\"", seal.sim_hash)));
    // The full history is three delta epochs, with event bodies.
    let (_, all) = http_get(addr, "/deltas?since=0").unwrap();
    assert_eq!(all.matches("\"epoch\":").count(), 3);
    assert!(all.contains("\"kind\":\"observed\""));
    assert!(all.contains("\"kind\":\"gone\""));
    // ...and events=0 trims the bodies but keeps the seals.
    let (_, slim) = http_get(addr, "/deltas?since=0&events=0").unwrap();
    assert!(!slim.contains("\"kind\":"));
    assert!(slim.contains("\"verdict_hash\""));

    // /verdict/<domain>: pick a domain the oracle store tracks and check
    // record count and per-record fields round-trip.
    let (key, state) = oracle.store.iter().next().expect("oracle tracked URs");
    let domain = key.domain.to_string();
    let expected = oracle.store.domain_keys(&domain).unwrap().len();
    let (status, verdict) = http_get(addr, &format!("/verdict/{domain}")).unwrap();
    assert_eq!(status, 200, "{verdict}");
    assert_eq!(json_str_field(&verdict, "domain"), Some(domain.as_str()));
    assert_eq!(verdict.matches("\"ns\":").count(), expected);
    assert!(verdict.contains(&format!("\"first_seen\":{}", state.first_seen)));
    // Lookup is normalized: case and a trailing root dot do not matter.
    let (status, _) = http_get(addr, &format!("/verdict/{}.", domain.to_uppercase())).unwrap();
    assert_eq!(status, 200);

    // Unknown-but-valid domain → 404; junk → 400; bad route → 404.
    let (status, _) = http_get(addr, "/verdict/never-observed.example").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_get(addr, "/verdict/bad..name").unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);

    // /coverage matches the oracle's newest epoch accounting.
    let (status, coverage) = http_get(addr, "/coverage").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        json_u64_field(&coverage, "scheduled"),
        Some(oracle.coverage.scheduled)
    );
    assert_eq!(
        json_u64_field(&coverage, "answered"),
        Some(oracle.coverage.answered)
    );

    // /metrics is the newest epoch's registry; its probe accounting must
    // agree with /coverage, and the daemon's own series must be present.
    let (status, metrics) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        prom_value(&metrics, "probe_scheduled"),
        Some(oracle.coverage.scheduled),
        "/metrics disagrees with /coverage on scheduled probes"
    );
    assert_eq!(prom_value(&metrics, "daemon_epoch"), Some(3));
    assert_eq!(
        prom_value(&metrics, "daemon_store_present"),
        Some(oracle.store.present_len())
    );

    // SIGTERM-equivalent: /shutdown ends both threads cleanly, and the
    // final state matches the oracle bit-for-bit.
    let (status, _) = http_get(addr, "/shutdown").unwrap();
    assert_eq!(status, 200);
    let final_state = handle.join();
    assert_eq!(final_state.epochs_done, 3);
    assert_eq!(
        final_state.store.verdict_hash(),
        oracle.store.verdict_hash(),
        "daemon's final store differs from the oracle run"
    );
    final_state.log.verify_replay().expect("served log replays");
}

#[test]
fn daemon_answers_before_the_epoch_limit_and_shuts_down_mid_flight() {
    let mut cfg = daemon_config();
    cfg.max_epochs = None; // resident: scans until told to stop
    let handle = urhunterd::start(cfg).expect("daemon starts");
    let addr = handle.addr();
    wait_for_epochs(addr, 1..=u64::MAX);

    let (status, health) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(health.contains("\"max_epochs\":null"));
    assert!(json_u64_field(&health, "epochs_done").unwrap() >= 1);

    handle.request_shutdown();
    let state = handle.join();
    assert!(state.epochs_done >= 1);
    state.log.verify_replay().expect("log replays at shutdown");
}

#[test]
fn request_shutdown_wakes_a_daemon_bound_to_an_unspecified_address() {
    let mut cfg = daemon_config();
    cfg.listen = "0.0.0.0:0".parse().unwrap();
    cfg.max_epochs = Some(1);
    let handle = urhunterd::start(cfg).expect("daemon starts");
    let port = handle.addr().port();
    wait_for_epochs(([127, 0, 0, 1], port).into(), 1..=1);

    // Its accept is blocked with no client left: only the wake-up
    // connection to loopback can end it.
    handle.request_shutdown();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(handle.join()).unwrap());
    let state = joined
        .recv_timeout(Duration::from_secs(10))
        .expect("join returns within 10 s of request_shutdown");
    assert_eq!(state.epochs_done, 1);
}
