//! Byte for byte: the `/verdict` and `/deltas` bodies the daemon writes
//! into its one response buffer, against the `format!` renderers they
//! replaced (`reference/`), over a drifting small world's first three
//! epochs.

mod reference;

use urhunterd::{DriverConfig, EpochDriver, LiveState};

/// Three epochs of the drifting world `tests/daemon_http.rs` serves.
fn drifted() -> LiveState {
    let mut cfg = DriverConfig::small();
    cfg.drift_days = 240;
    cfg.new_campaigns = 25;
    cfg.expire_fraction = 0.5;
    let mut driver = EpochDriver::new(cfg);
    let mut state = LiveState::default();
    for _ in 0..3 {
        driver.step(&mut state);
    }
    state
}

fn verdict(state: &LiveState, domain: &str) -> (u16, String) {
    let mut out = Vec::new();
    let status = state.write_verdict(domain, &mut out);
    (status, String::from_utf8(out).expect("a body is UTF-8"))
}

fn deltas(state: &LiveState, since: u64, with_events: bool) -> String {
    let mut out = Vec::new();
    state.write_deltas(since, with_events, &mut out);
    String::from_utf8(out).expect("a body is UTF-8")
}

#[test]
fn every_verdict_body_is_the_reference_one() {
    let state = drifted();
    let mut domains: Vec<String> = state
        .store
        .iter()
        .map(|(key, _)| key.domain.to_string())
        .collect();
    domains.sort();
    domains.dedup();
    assert!(domains.len() > 50, "{} tracked domains", domains.len());
    for domain in domains
        .iter()
        .map(String::as_str)
        .chain(["never-seen.example"])
    {
        assert_eq!(
            verdict(&state, domain),
            reference::verdict(&state, domain),
            "/verdict/{domain}"
        );
    }
}

#[test]
fn every_delta_body_is_the_reference_one() {
    let state = drifted();
    let mut compacted = state.clone();
    compacted.log.compact_through(1);
    for state in [&state, &compacted] {
        for since in 0..=state.epochs_done + 1 {
            for with_events in [true, false] {
                assert_eq!(
                    deltas(state, since, with_events),
                    reference::deltas(state, since, with_events),
                    "/deltas?since={since} with events: {with_events}"
                );
            }
        }
    }
}
