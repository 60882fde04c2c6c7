//! Event-log determinism contract for the daemon.
//!
//! The daemon's value rests on one claim: the epoch stream is a pure
//! function of the driver configuration. Worker and shard counts may
//! change wall-clock behaviour but never the events, and replaying the log must provably reconstruct the live
//! verdict store — including after snapshot compaction.

use urhunterd::{DriverConfig, EpochDriver, EpochSeal, LiveState, UrEvent};

/// Drift hard enough that every event kind shows up within three epochs:
/// eight simulated months per epoch with half of the campaigns expiring.
fn drifting_config() -> DriverConfig {
    let mut cfg = DriverConfig::small();
    cfg.drift_days = 240;
    cfg.new_campaigns = 25;
    cfg.expire_fraction = 0.5;
    cfg
}

fn run_epochs(cfg: DriverConfig, epochs: u64) -> LiveState {
    let mut driver = EpochDriver::new(cfg);
    let mut state = LiveState::default();
    for _ in 0..epochs {
        driver.step(&mut state);
    }
    state
}

fn seals(state: &LiveState) -> Vec<EpochSeal> {
    state.log.records().iter().map(|r| r.seal).collect()
}

fn events(state: &LiveState) -> Vec<UrEvent> {
    state
        .log
        .records()
        .iter()
        .flat_map(|r| r.events.iter().copied())
        .collect()
}

#[test]
fn epoch_stream_is_identical_across_executors_and_shards() {
    let baseline = run_epochs(drifting_config(), 3);
    let base_seals = seals(&baseline);
    let base_events = events(&baseline);
    assert_eq!(base_seals.len(), 3);
    assert!(
        !base_events.is_empty(),
        "three drifting epochs must emit events"
    );

    let variant = |shards: usize, workers: usize| {
        let mut c = drifting_config();
        c.hunter = c.hunter.with_shards(shards).with_workers(workers);
        c
    };
    let variants: Vec<(&str, DriverConfig)> = vec![
        ("shards=4 workers=4", variant(4, 4)),
        ("shards=1 workers=2", variant(1, 2)),
        ("shards=4 workers=2", variant(4, 2)),
    ];
    for (label, cfg) in variants {
        let state = run_epochs(cfg, 3);
        assert_eq!(
            seals(&state),
            base_seals,
            "epoch seals diverge on {label}: the event stream is not \
             execution-strategy invariant"
        );
        assert_eq!(
            events(&state),
            base_events,
            "event bodies diverge on {label}"
        );
    }
}

#[test]
fn drift_produces_every_event_kind_and_seals_verify() {
    let state = run_epochs(drifting_config(), 3);
    let all = events(&state);
    let observed = all
        .iter()
        .filter(|e| matches!(e, UrEvent::Observed { .. }))
        .count();
    let gone = all
        .iter()
        .filter(|e| matches!(e, UrEvent::Gone { .. }))
        .count();
    assert!(observed > 0, "no URs observed across three epochs");
    assert!(
        gone > 0,
        "expiring half the campaigns per epoch must retire URs"
    );

    // Epoch 1 sees a fresh store: everything is an Observed event.
    let first = &state.log.records()[0];
    assert!(first
        .events
        .iter()
        .all(|e| matches!(e, UrEvent::Observed { .. })));
    assert_eq!(first.seal.total_urs, first.events.len() as u64);

    state.log.verify_replay().expect("seals verify");
}

#[test]
fn replay_from_log_reproduces_the_live_store() {
    let state = run_epochs(drifting_config(), 3);
    let replayed = state.log.replay();
    assert_eq!(replayed.len(), state.store.len());
    assert_eq!(replayed.present_len(), state.store.present_len());
    assert_eq!(
        replayed.verdict_hash(),
        state.store.verdict_hash(),
        "replayed verdict map differs from the live run"
    );
    // Per-key equality, not just the digest.
    for (key, live) in state.store.iter() {
        assert_eq!(replayed.get(key), Some(live), "state diverges for {key:?}");
    }
    // The newest seal pins the replayed state too.
    let seal = state.log.records().last().expect("three epochs").seal;
    assert_eq!(replayed.verdict_hash(), seal.verdict_hash);
    assert_eq!(replayed.present_len(), seal.present);
}

#[test]
fn compaction_preserves_replay_and_flags_truncated_history() {
    let live = run_epochs(drifting_config(), 3);
    let mut compacted = live.clone();
    compacted.log.compact_through(2);

    assert!(compacted.log.snapshot().is_some());
    assert!(compacted.log.event_count() < live.log.event_count());
    assert_eq!(compacted.log.last_epoch(), 3);

    let replayed = compacted
        .log
        .verify_replay()
        .expect("compacted log replays");
    assert_eq!(replayed.verdict_hash(), live.store.verdict_hash());
    assert_eq!(replayed.present_len(), live.store.present_len());

    // Deltas still there after the snapshot point, flagged before it.
    let (records, truncated) = compacted.log.records_since(2);
    assert_eq!(records.len(), 1);
    assert!(!truncated, "epoch 3 is still fully served");
    let (_, truncated) = compacted.log.records_since(0);
    assert!(
        truncated,
        "pre-snapshot deltas must be flagged as compacted"
    );
}
