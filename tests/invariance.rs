//! One table-driven harness for every invariance claim of the pipeline:
//! `bench::invariants`' axis table, run on the small world through `run`,
//! on a tiny streamed world through `run_streamed`, and on a drifting
//! daemon through its epoch driver.
//!
//! A row is one (world, config) run, pinned as `invariants::Pinned`,
//! `StreamPinned` or `DaemonPinned`, and memoized: every test that reads a
//! row shares its one run. Execution axes (workers × hub) may move nothing
//! in the record; each policy moves only what its `Moves` names. The
//! tests that are not equalities (funnels, exporters, fault accounting,
//! replay) read the rows' runs as well.

use bench::invariants::{
    hold_execution_axes, hold_one_plan, paced_bound, pinned, policy, small_block, stream_pinned,
    DaemonPinned, Moves, Network, Pinned, StreamPinned, NETWORKS, STREAM_SHARDS, STREAM_WORKERS,
    WORKERS,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use urhunter::{HunterConfig, SCAN_SHARDS};
use urhunterd::{DriverConfig, EpochDriver, LiveState, UrEvent};
use worldgen::{StreamWorld, World, WorldConfig};

/// Results by row, each computed once however many tests read it.
struct Memo<K, V: 'static>(OnceLock<Mutex<HashMap<K, &'static OnceLock<V>>>>);

impl<K: Hash + Eq, V: 'static> Memo<K, V> {
    const fn new() -> Self {
        Memo(OnceLock::new())
    }

    fn get(&'static self, key: K, make: impl FnOnce() -> V) -> &'static V {
        let cell = *self
            .0
            .get_or_init(Default::default)
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Box::leak(Box::default()));
        cell.get_or_init(make)
    }
}

/// One run of the small world through `run`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Row {
    network: Network,
    policy: Option<&'static str>,
    workers: usize,
    hub: bool,
}

struct Eager {
    pinned: Pinned,
    hub: Option<Arc<obs::Obs>>,
}

fn config(network: Network, policy_name: Option<&str>) -> HunterConfig {
    let cfg = network.config();
    match policy_name {
        Some(name) => (policy(name).apply)(cfg),
        None => cfg,
    }
}

fn eager(row: Row) -> &'static Eager {
    static RUNS: Memo<Row, Eager> = Memo::new();
    RUNS.get(row, || {
        let hub = row.hub.then(obs::Obs::shared);
        let cfg = config(row.network, row.policy).with_workers(row.workers);
        Eager {
            pinned: pinned(&WorldConfig::small(), cfg, hub.clone()),
            hub,
        }
    })
}

/// `network` under `policy` on `workers`, with a hub.
fn at(network: Network, policy: Option<&'static str>, workers: usize) -> &'static Pinned {
    &eager(Row {
        network,
        policy,
        workers,
        hub: true,
    })
    .pinned
}

/// The hub of `network`'s unpoliced row on `workers`.
fn hub_at(network: Network, workers: usize) -> &'static obs::Obs {
    eager(Row {
        network,
        policy: None,
        workers,
        hub: true,
    })
    .hub
    .as_deref()
    .expect("a hub row")
}

/// Every execution axis on `network`, held to one record.
fn held(network: Network) -> &'static Pinned {
    hold_execution_axes(|workers, hub| {
        &eager(Row {
            network,
            policy: None,
            workers,
            hub,
        })
        .pinned
    })
}

fn assert_execution_axes_move_nothing(network: Network) {
    let p = held(network);
    assert!(p.totals.total > 0, "{network:?}: nothing collected");
    let lossy = network.loss_pct > 0;
    if !lossy {
        assert_eq!(p.coverage.total_gave_up(), 0, "a reliable run gave up");
    }
    assert_eq!(p.coverage.retransmissions > 0, lossy, "{network:?}");
    assert_eq!(p.net.dropped > 0, lossy, "{network:?}");
}

#[test]
fn execution_axes_move_nothing_on_a_reliable_network() {
    assert_execution_axes_move_nothing(NETWORKS[0]);
}

#[test]
fn execution_axes_move_nothing_at_1pct_loss() {
    assert_execution_axes_move_nothing(NETWORKS[1]);
}

#[test]
fn execution_axes_move_nothing_at_5pct_loss_adaptive() {
    assert_execution_axes_move_nothing(NETWORKS[2]);
}

#[test]
fn a_hub_moves_nothing_at_any_worker_count() {
    // Instrumentation only watches: without a hub the run is the
    // instrumented run, down to both clocks and the fabric's counters.
    for workers in WORKERS {
        let plain = &eager(Row {
            network: Network::RELIABLE,
            policy: None,
            workers,
            hub: false,
        })
        .pinned;
        assert_eq!(plain.sim_hash, None);
        let moved = plain.moved(at(Network::RELIABLE, None, workers));
        assert!(
            moved.is_empty(),
            "attaching a hub at {workers} workers moved {moved:?}"
        );
    }
}

/// The hub's `sim_hash` and the classified sequence on `network` at every
/// worker count are the one-worker run's: each shard engine and fabric
/// publishes its counts once, in the scan's fold, and the sums commute.
fn assert_sim_hash_holds(network: Network) {
    let reference = at(network, None, WORKERS[0]);
    assert!(reference.sim_hash.is_some(), "a hub row");
    for workers in &WORKERS[1..] {
        let got = at(network, None, *workers);
        assert_eq!(
            got.sim_hash, reference.sim_hash,
            "{network:?}: sim_hash moved at {workers} workers"
        );
        assert_eq!(
            got.sequence_hash, reference.sequence_hash,
            "{network:?}: the output moved at {workers} workers"
        );
    }
}

#[test]
fn sim_hash_holds_at_every_worker_count_on_a_reliable_network() {
    assert_sim_hash_holds(Network::RELIABLE);
}

#[test]
fn sim_hash_holds_at_every_worker_count_at_1pct_loss() {
    // Retries and backoff waits are sim-class too; the loss must exercise
    // them, or this proves nothing.
    let network = NETWORKS[1];
    assert_sim_hash_holds(network);
    let retransmitted = hub_at(network, 1)
        .registry()
        .counter_value("probe_retransmissions");
    assert!(
        retransmitted.unwrap_or(0) > 0,
        "1% loss never retransmitted"
    );
}

#[test]
fn net_counters_are_the_world_fabric_traffic_of_the_run() {
    // `pinned` holds every hub row's net_* counters to the world fabric's
    // traffic of its run; here that traffic is real, loss shows in it, and
    // every datagram it counts met exactly one fate.
    for network in [Network::RELIABLE, NETWORKS[1]] {
        for workers in [1, 4] {
            let registry = hub_at(network, workers).registry();
            let c = |name: &str| registry.counter_value(name).unwrap_or(0);
            let label = format!("{network:?}, workers {workers}");
            assert!(c("net_delivered") > 0, "{label}: the run sent nothing");
            assert_eq!(c("net_dropped") > 0, network.loss_pct > 0, "{label}");
            assert_eq!(
                c("net_sent") + c("net_duplicated"),
                c("net_delivered") + c("net_dropped") + c("net_no_route"),
                "{label}: the hub's fabric accounting does not balance"
            );
        }
    }
}

#[test]
fn a_repeat_moves_nothing() {
    // No hidden wall-clock, allocator or thread state may leak into a run.
    let cfg = Network::RELIABLE.config().with_workers(1);
    let again = pinned(&WorldConfig::small(), cfg, Some(obs::Obs::shared()));
    let moved = at(Network::RELIABLE, None, 1).moved(&again);
    assert!(moved.is_empty(), "a repeat moved {moved:?}");
}

#[test]
fn adaptive_holds_at_every_worker_count_on_a_reliable_network() {
    // Each shard engine learns its own RTTs; whatever the split, the
    // adaptive run is the one-worker run, sim_hash included.
    let network = Network::RELIABLE.adaptive();
    let reference = at(network, None, WORKERS[0]);
    assert!(reference.totals.total > 0, "adaptive run collected nothing");
    for workers in &WORKERS[1..] {
        let moved = reference.moved(at(network, None, *workers));
        assert!(
            moved.is_empty(),
            "adaptive at {workers} workers moved {moved:?}"
        );
    }
}

#[test]
fn adaptive_moves_only_the_clock_on_a_reliable_network() {
    // On a reliable fabric nothing times out, so derived timeouts can only
    // leave the clock alone.
    let fixed = at(Network::RELIABLE, None, 1);
    let adaptive = at(Network::RELIABLE.adaptive(), None, 1);
    policy("adaptive")
        .moves
        .check(fixed, adaptive, "adaptive on a reliable network");
}

#[test]
fn adaptive_moves_only_the_clock_and_wins_it_under_loss() {
    // Under loss every lost first attempt costs `srtt + k·rttvar` instead
    // of the whole plan timeout, so the win must be real.
    for network in [Network::lossy(1, 3), Network::lossy(5, 3)] {
        let fixed = at(network, None, 1);
        let adaptive = at(network.adaptive(), None, 1);
        let label = format!("adaptive on {network:?}");
        policy("adaptive").moves.check(fixed, adaptive, &label);
        assert!(
            adaptive.scan_elapsed < fixed.scan_elapsed,
            "{label} lost to fixed: {:?} vs {:?}",
            adaptive.scan_elapsed,
            fixed.scan_elapsed
        );
    }
}

#[test]
fn adaptive_never_trades_recall_for_speed() {
    // RTT-derived timeouts change how long a lost attempt costs, not
    // whether it is retried: every answer and every give-up is the fixed
    // run's, at every loss rate.
    for network in [
        Network::RELIABLE,
        Network::lossy(1, 3),
        Network::lossy(5, 3),
    ] {
        let fixed = at(network, None, 1);
        let adaptive = at(network.adaptive(), None, 1);
        assert_eq!(
            adaptive.coverage, fixed.coverage,
            "{network:?}: adaptive moved the probe accounting"
        );
        assert_eq!(adaptive.sequence_hash, fixed.sequence_hash, "{network:?}");
        assert_eq!(adaptive.totals, fixed.totals, "{network:?}");
    }
}

#[test]
fn retry_policies_move_nothing_on_a_reliable_network() {
    // On a reliable network the first attempt always answers, whatever the
    // retry plan or an explicitly empty fault plan.
    let reliable = at(Network::RELIABLE, None, 1);
    assert_eq!(reliable.coverage.retried_answered, 0);
    assert_eq!(reliable.coverage.gave_up, 0);
    assert_eq!(reliable.coverage.retransmissions, 0);
    assert!(reliable.coverage.quarantined_servers.is_empty());
    for (name, workers) in [
        ("single-shot", 1),
        ("5 attempts", 1),
        ("5 attempts", 4),
        ("explicit reliable fault plan", 1),
    ] {
        let p = policy(name);
        assert_eq!(p.moves, Moves::Nothing, "{name}");
        p.moves
            .check(reliable, at(Network::RELIABLE, Some(name), workers), name);
    }
}

#[test]
fn ethics_pacing_moves_only_the_clock() {
    // The paper's per-server interval spreads the probes out in simulated
    // time; it never changes what they collect.
    let name = "ethics pacing";
    policy(name).moves.check(
        at(Network::RELIABLE, None, 1),
        at(Network::RELIABLE, Some(name), 1),
        name,
    );
}

#[test]
fn ethics_pacing_on_four_workers_is_the_one_worker_run() {
    // Each shard paces its own servers on its own clock, in rounds, so a
    // paced run on four workers is the paced run on one, down to the
    // world clock.
    let name = "ethics pacing";
    let moved = at(Network::RELIABLE, Some(name), 1).moved(at(Network::RELIABLE, Some(name), 4));
    assert!(
        moved.is_empty(),
        "ethics pacing on four workers moved {moved:?}"
    );
}

#[test]
fn classified_comes_back_in_shard_and_index_order_paced_and_unpaced() {
    // The sequence digest reads positions, not order, so this is what
    // holds `run`'s output order: shard-major, each shard in its task
    // order, however the shards end and however a paced shard probes.
    for policy in [None, Some("ethics pacing")] {
        for workers in [1, 4] {
            assert!(
                at(Network::RELIABLE, policy, workers).in_task_order,
                "{policy:?} on {workers} worker(s): classified is out of (shard, index) order"
            );
        }
    }
}

/// A paced clock within its per-server bound (see
/// `bench::invariants::paced_bound`): the bound itself on a reliable
/// network, and 1.25 times it under loss, whose retries lengthen a round.
fn assert_within_the_per_server_bound(
    elapsed: simnet::SimDuration,
    bound: simnet::SimDuration,
    network: Network,
    label: &str,
) {
    let limit = match network.loss_pct {
        0 => bound.as_micros(),
        _ => bound.as_micros() * 5 / 4,
    };
    assert!(
        elapsed.as_micros() <= limit,
        "{label}: the paced clock {elapsed:?} exceeds {limit} us (per-server bound {bound:?})"
    );
}

/// The paper's per-server pacing on `network` moves only the clocks and
/// the waits, both up, and every worker count reproduces its whole record:
/// each shard paces its own servers on its own clock, in rounds, within
/// the per-server bound.
fn assert_ethics_pacing_holds(network: Network) {
    let name = "ethics pacing";
    let label = format!("{name} on {network:?}");
    let paced = at(network, Some(name), WORKERS[0]);
    policy(name)
        .moves
        .check(at(network, None, 1), paced, &label);
    let world = World::generate(WorldConfig::small());
    let (cfg, targets) = (config(network, Some(name)), world.scan_targets());
    let bound = paced_bound(
        &world.registry,
        &world.nameservers,
        &targets,
        &cfg,
        SCAN_SHARDS,
    );
    assert_within_the_per_server_bound(paced.scan_elapsed, bound, network, &label);
    for workers in &WORKERS[1..] {
        let moved = paced.moved(at(network, Some(name), *workers));
        assert!(
            moved.is_empty(),
            "{label} moved {moved:?} at {workers} workers"
        );
    }
}

#[test]
fn ethics_pacing_holds_the_whole_record_at_every_worker_count() {
    assert_eq!(
        at(Network::RELIABLE, None, 1).bucket_wait,
        Default::default()
    );
    assert_ethics_pacing_holds(Network::RELIABLE);
}

#[test]
fn ethics_pacing_holds_the_whole_record_under_loss() {
    assert_ethics_pacing_holds(Network::lossy(5, 3));
    assert_ethics_pacing_holds(Network::lossy(5, 3).adaptive());
}

#[test]
fn five_attempts_recover_the_reliable_output_at_5pct_loss() {
    // Per-probe give-up odds are ~1e-5 at five attempts, so every probe is
    // answered and the classified sequence is the reliable run's.
    let reliable = at(Network::RELIABLE, None, 1);
    for workers in [1, 4] {
        let out = at(Network::lossy(5, 5), None, workers);
        assert_eq!(out.coverage.total_gave_up(), 0, "workers {workers}");
        assert!(out.coverage.retried_answered > 0, "workers {workers}");
        Moves::OutputKept.check(reliable, out, &format!("5 attempts at 5% loss, {workers}w"));
    }
}

#[test]
fn lossy_runs_on_four_workers_are_the_one_worker_run() {
    // The loss lottery is per flow, so a flow's fate does not move when its
    // nameserver lands in another shard, whatever the retry budget.
    for attempts in [1, 3, 5] {
        let network = Network::lossy(5, attempts);
        let moved = at(network, None, 1).moved(at(network, None, 4));
        assert!(moved.is_empty(), "{network:?} moved {moved:?} at 4 workers");
    }
}

#[test]
fn single_attempt_under_loss_accounts_every_miss() {
    // Silent false negatives become measured give-ups: the run's coverage
    // balances (checked on every row) with some probes given up, none
    // retransmitted, and what was collected still classified.
    let out = at(Network::lossy(5, 1), None, 1);
    assert!(
        out.coverage.gave_up > 0,
        "5% drop with one attempt lost nothing"
    );
    assert_eq!(out.coverage.retransmissions, 0);
    assert!(out.totals.total > 0);
}

#[test]
fn heavy_loss_quarantines_nothing_on_healthy_servers() {
    // 20% drop with one attempt fails ~36% of probes, spread across
    // servers; any quarantine must show in the report, never silently.
    let out = at(Network::lossy(20, 1), None, 1);
    assert!(out.coverage.gave_up > 0);
    assert_eq!(
        out.coverage.skipped_quarantined > 0,
        !out.coverage.quarantined_servers.is_empty()
    );
}

/// The drop {0, 1, 5, 20} % × attempts {1, 3, 5} × workers {1, 4} matrix,
/// with an adaptive twin of every default-budget cell: 32 runs.
#[test]
#[ignore = "32 full pipeline runs; ci.sh executes this in release"]
fn full_fault_matrix() {
    let reliable = at(Network::RELIABLE, None, 1);
    for loss_pct in [0, 1, 5, 20] {
        for attempts in [1, 3, 5] {
            for workers in [1, 4] {
                let network = Network::lossy(loss_pct, attempts);
                let label = format!("{network:?} workers {workers}");
                let out = at(network, None, workers);
                if loss_pct == 0 {
                    Moves::Nothing.check(reliable, out, &label);
                } else if out.coverage.total_gave_up() == 0 {
                    Moves::OutputKept.check(reliable, out, &label);
                } else {
                    assert!(out.totals.total > 0, "{label}: collected nothing");
                }
                if attempts == 3 {
                    let adaptive = at(network.adaptive(), None, workers);
                    policy("adaptive").moves.check(out, adaptive, &label);
                }
            }
        }
    }
}

/// The reliable two-worker row with a hub, and its hub.
fn reliable_two_worker_hub_row() -> (&'static Pinned, &'static obs::Obs) {
    (at(Network::RELIABLE, None, 2), hub_at(Network::RELIABLE, 2))
}

#[test]
fn registry_funnels_match_the_run_output() {
    let (pinned, hub) = reliable_two_worker_hub_row();
    let snap = hub.registry().snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    let t = pinned.totals;
    assert_eq!(c("classify_total"), t.total as u64);
    assert_eq!(c("classify_correct"), t.correct as u64);
    assert_eq!(c("classify_protective"), t.protective as u64);
    assert_eq!(c("classify_suspicious"), (t.unknown + t.malicious) as u64);
    for stage in [
        "collect_support",
        "collect",
        "classify",
        "analyze",
        "report",
    ] {
        assert_eq!(
            snap.counter(&format!("stage_{stage}_runs")),
            Some(1),
            "stage {stage} did not record exactly one span"
        );
    }
    // Classification never touches the simulated network.
    assert_eq!(snap.counter("stage_classify_sim_us"), Some(0));
}

#[test]
fn exporters_render_the_whole_registry() {
    let (_, hub) = reliable_two_worker_hub_row();
    let jsonl = hub.to_jsonl();
    let (mut metric_lines, mut event_lines) = (0, 0);
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        if line.contains("\"record\":\"metric\"") {
            metric_lines += 1;
        } else if line.contains("\"record\":\"event\"") {
            event_lines += 1;
        } else {
            panic!("unknown record type in line: {line}");
        }
    }
    assert_eq!(metric_lines, hub.registry().snapshot().entries.len());
    // Stage spans always trace into the sink, so the export carries events.
    assert!(event_lines > 0, "no events exported");
    assert!(jsonl.contains("\"name\":\"probe_scheduled\""));

    let prom = hub.to_prometheus();
    assert!(prom.contains("# TYPE probe_scheduled counter"));
    assert!(prom.contains("probe_attempts_bucket"));
    assert!(prom.contains("class=\"sim\""));
    assert!(prom.contains("class=\"wall\""));
}

#[test]
fn wall_metrics_exist_but_stay_out_of_the_sim_hash() {
    // Its own run: this test bumps counters in the hub it reads.
    let hub = obs::Obs::shared();
    let cfg = HunterConfig::fast().with_workers(2);
    pinned(&WorldConfig::small(), cfg, Some(hub.clone()));
    let snap = hub.registry().snapshot();
    // Stage spans and the buffer pool…
    assert!(snap.counter("stage_collect_wall_us").is_some());
    assert!(snap.counter("bufpool_recycled").unwrap_or(0) > 0);
    assert!(snap.counter("bufpool_allocated").is_some());
    // …none of which is in the deterministic subset.
    for m in snap.sim_only() {
        assert_eq!(
            m.class,
            obs::Class::Sim,
            "{} leaked into sim subset",
            m.name
        );
        assert!(!m.name.starts_with("bufpool_"), "{} is wall-class", m.name);
    }
    let before = hub.registry().sim_hash();
    hub.registry().add("bufpool_recycled", obs::Class::Wall, 1);
    assert_eq!(
        before,
        hub.registry().sim_hash(),
        "a wall counter moved sim_hash"
    );
    hub.registry().add("probe_scheduled", obs::Class::Sim, 1);
    assert_ne!(
        before,
        hub.registry().sim_hash(),
        "a sim counter left sim_hash"
    );
}

#[test]
fn the_committed_invariants_file_holds_the_small_block() {
    let committed = include_str!("../BENCH_pipeline.json");
    let block = small_block(held(Network::RELIABLE));
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
    let committed = include_str!("../RESULTS.md");
    let section = bench::paper::table2().to_string();
    assert!(
        committed.contains(&section),
        "the probe-reconstructed Table 2 moved: RESULTS.md no longer contains\n{section}\n\
         If the change is meant, refresh the file with\n  \
         cargo build --release && ./target/release/paper > RESULTS.md\n\
         and give the reason in CHANGES.md."
    );
}

/// `run` on the eager small world and `run_streamed` on the lazy one scan
/// one world: the same URs at the same positions, at every streamed worker
/// count, with the same coverage and simulated clock.
#[test]
fn the_eager_and_the_lazy_world_are_one_world() {
    assert!(hold_one_plan(&WorldConfig::small()) > 1_000);
}

/// The smallest world that still exercises the streamed path end to end:
/// plan-backed shard fabrics, every UR category populated. Generated once.
fn tiny_world() -> &'static StreamWorld {
    static WORLD: OnceLock<StreamWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cfg = WorldConfig::xl();
        cfg.top_domains = 50;
        cfg.synthetic_providers = 8;
        cfg.attack_campaigns = 200;
        cfg.total_nameservers = Some(32);
        StreamWorld::generate(cfg)
    })
}

/// One run of the tiny streamed world, always with a hub.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct StreamRow {
    network: Network,
    policy: Option<&'static str>,
    world_shards: usize,
    workers: usize,
}

struct Streamed {
    pinned: StreamPinned,
    total_urs: u64,
    workers: usize,
    hub: Arc<obs::Obs>,
}

fn streamed(row: StreamRow) -> &'static Streamed {
    static RUNS: Memo<StreamRow, Streamed> = Memo::new();
    RUNS.get(row, || {
        let hub = obs::Obs::shared();
        let cfg = config(row.network, row.policy).with_workers(row.workers);
        let (pinned, out) = stream_pinned(tiny_world(), cfg, row.world_shards, Some(hub.clone()));
        Streamed {
            pinned,
            total_urs: out.total_urs,
            workers: out.workers,
            hub,
        }
    })
}

/// Every streamed worker count at `world_shards` reproduces the one-worker
/// fold; returns it.
fn hold_stream_workers(
    network: Network,
    policy: Option<&'static str>,
    world_shards: usize,
) -> &'static Streamed {
    let row = |workers| StreamRow {
        network,
        policy,
        world_shards,
        workers,
    };
    let first = streamed(row(STREAM_WORKERS[0]));
    assert!(first.total_urs > 0, "{network:?}: the scan found no URs");
    for workers in STREAM_WORKERS {
        let got = streamed(row(workers));
        assert_eq!(got.workers, workers.min(world_shards));
        assert_eq!(
            got.pinned, first.pinned,
            "{network:?} {policy:?}: {world_shards} world shards at {workers} workers"
        );
    }
    first
}

#[test]
fn stream_workers_move_nothing() {
    for world_shards in STREAM_SHARDS {
        for network in [Network::RELIABLE, Network::lossy(1, 3)] {
            hold_stream_workers(network, None, world_shards);
        }
    }
}

#[test]
fn adaptive_moves_only_the_clock_on_the_stream() {
    // RTT-derived timeouts change how long a lost attempt costs, never
    // what is probed in what order, so the streamed sequence is the fixed
    // run's at every world-shard count and worker count.
    assert_eq!(policy("adaptive").moves, Moves::ClockFalls);
    for world_shards in STREAM_SHARDS {
        for network in [Network::RELIABLE, Network::lossy(1, 3)] {
            let fixed = &hold_stream_workers(network, None, world_shards).pinned;
            let adaptive = &hold_stream_workers(network.adaptive(), None, world_shards).pinned;
            let label = format!("adaptive on {network:?} at {world_shards} world shards");
            assert_eq!(adaptive.sequence_hash, fixed.sequence_hash, "{label}");
            assert_eq!(adaptive.coverage, fixed.coverage, "{label}");
            assert_eq!(adaptive.split, fixed.split, "{label}");
            assert_eq!(adaptive.bucket_wait, fixed.bucket_wait, "{label}");
            assert!(adaptive.elapsed <= fixed.elapsed, "{label}: the clock rose");
        }
    }
}

#[test]
fn ethics_pacing_holds_on_the_stream() {
    // At every world-shard count, every worker count reproduces the paced
    // fold, whose sequence, coverage and split are the unpaced fold's:
    // only the clock and the waits move, both up, the waits are part of
    // the clock, and the clock is within the per-server bound.
    let name = "ethics pacing";
    assert_eq!(policy(name).moves, Moves::ClockRises);
    for world_shards in STREAM_SHARDS {
        let unpaced = &hold_stream_workers(Network::RELIABLE, None, world_shards).pinned;
        let paced = &hold_stream_workers(Network::RELIABLE, Some(name), world_shards).pinned;
        let label = format!("{name} at {world_shards} world shards");
        assert_eq!(paced.sequence_hash, unpaced.sequence_hash, "{label}");
        assert_eq!(paced.coverage, unpaced.coverage, "{label}");
        assert_eq!(paced.split, unpaced.split, "{label}");
        assert!(
            paced.elapsed > unpaced.elapsed,
            "{label}: the clock did not rise"
        );
        assert!(
            paced.bucket_wait > unpaced.bucket_wait,
            "{label}: the pacing waited for nothing"
        );
        assert!(
            paced.bucket_wait <= paced.elapsed,
            "{label}: waits outside the clock"
        );
        let (world, cfg) = (tiny_world(), config(Network::RELIABLE, Some(name)));
        let targets = world.scan_targets();
        let bound = paced_bound(
            &world.registry,
            &world.nameservers,
            &targets,
            &cfg,
            world_shards,
        );
        assert_within_the_per_server_bound(paced.elapsed, bound, Network::RELIABLE, &label);
    }
}

#[test]
fn bufpool_recycling_is_visible_per_run() {
    let registry = streamed(StreamRow {
        network: Network::RELIABLE,
        policy: None,
        world_shards: 4,
        workers: 2,
    })
    .hub
    .registry();
    assert!(registry.counter_value("bufpool_allocated").unwrap_or(0) > 0);
    assert!(registry.counter_value("bufpool_recycled").unwrap_or(0) > 0);
}

/// Three drifting epochs at `workers`: eight simulated months an epoch
/// with half of the campaigns expiring, so every event kind shows up.
fn daemon(workers: usize) -> &'static (DaemonPinned, LiveState) {
    static RUNS: Memo<usize, (DaemonPinned, LiveState)> = Memo::new();
    RUNS.get(workers, || {
        let mut cfg = DriverConfig::small();
        cfg.drift_days = 240;
        cfg.new_campaigns = 25;
        cfg.expire_fraction = 0.5;
        cfg.hunter = cfg.hunter.with_workers(workers);
        let mut driver = EpochDriver::new(cfg);
        let mut state = LiveState::default();
        for _ in 0..3 {
            driver.step(&mut state);
        }
        (DaemonPinned::of(&state), state)
    })
}

#[test]
fn daemon_workers_move_nothing() {
    let (first, _) = daemon(STREAM_WORKERS[0]);
    assert_eq!(first.seals.len(), 3);
    assert!(
        !first.events.is_empty(),
        "three drifting epochs emitted nothing"
    );
    for workers in STREAM_WORKERS {
        assert_eq!(
            &daemon(workers).0,
            first,
            "the epoch stream moved at {workers} workers"
        );
    }
}

#[test]
fn drift_produces_every_event_kind_and_seals_verify() {
    let (pinned, state) = daemon(1);
    let count = |kind: fn(&UrEvent) -> bool| pinned.events.iter().filter(|e| kind(e)).count();
    assert!(count(|e| matches!(e, UrEvent::Observed { .. })) > 0);
    assert!(count(|e| matches!(e, UrEvent::Gone { .. })) > 0);
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
    let (_, state) = daemon(1);
    let replayed = state.log.replay();
    assert_eq!(replayed.len(), state.store.len());
    assert_eq!(replayed.present_len(), state.store.present_len());
    assert_eq!(replayed.verdict_hash(), state.store.verdict_hash());
    // Per key, not just the digest.
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
    let (_, live) = daemon(1);
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
