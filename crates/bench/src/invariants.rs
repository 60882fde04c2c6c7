//! The exact invariants of the pipeline — the whole of
//! `BENCH_pipeline.json` — and the axis table they are checked on.
//!
//! Everything printed here repeats bit for bit on any host and at any
//! thread count: sequence hashes, the registry's `sim_hash`, UR counts and
//! splits, probe accounting, datagram counts, simulated microseconds
//! (every duration is suffixed `_sim_us`), daemon event counts and seals.
//! No clock and no procfs file is read; wall time and RSS are `urbench`'s
//! to report. `ci.sh` regenerates the file with the `invariants` binary and
//! `diff`s it against the committed copy, and `tests/invariance.rs` (a test
//! of this crate) drives the same axis table under `cargo test`, holding
//! the `small` block to the file from its own runs.
//!
//! A run's identity is written once, as [`Pinned`] for [`run`],
//! [`StreamPinned`] for [`run_streamed`] and [`DaemonPinned`] for the
//! daemon's epoch stream. *Execution axes* ([`WORKERS`] × [`HUB`],
//! [`STREAM_WORKERS`]) may move none of it; each *policy* in [`POLICIES`]
//! moves only what its [`Moves`] names. Each block is rendered once, after
//! every axis that must not move it has been run and compared.

use simnet::{FaultPlan, NetStats, SimDuration, SimTime};
use std::borrow::Borrow;
use std::net::Ipv4Addr;
use std::sync::Arc;
use urhunter::{
    classified_sequence_hash, collect_correct, collect_protective, collect_urs_sharded, run,
    run_streamed, select_nameservers, CollectedUr, CorrectDb, CoverageReport, HunterConfig,
    ProbeEngine, ProtectiveDb, QueryPlan, QueryScheduler, Totals,
};
use urhunterd::{DriverConfig, EpochDriver, EpochSeal, LiveState, UrEvent, WorldScale};
use worldgen::{NsInfo, StreamWorld, World, WorldConfig};

/// Scan worker counts of [`run`]: an execution axis.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];
/// Whether an observability hub is attached: an execution axis.
pub const HUB: [bool; 2] = [false, true];
/// World-shard counts of [`run_streamed`], each part of a run's identity.
pub const STREAM_SHARDS: [usize; 3] = [2, 4, 8];
/// Scan worker counts of [`run_streamed`] and of the daemon's epoch scan:
/// an execution axis.
pub const STREAM_WORKERS: [usize; 3] = [1, 2, 4];

/// The network a scan crosses, and the retry budget it meets it with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Network {
    /// Per-flow datagram loss, in percent (0 = no scan fault plan).
    pub loss_pct: u32,
    /// Attempts per probe (the default plan has 3).
    pub attempts: u32,
    /// RTT-derived timeouts (`--adaptive`).
    pub adaptive: bool,
}

impl Network {
    /// No loss, the default retry plan.
    pub const RELIABLE: Network = Network::lossy(0, 3);

    /// `loss_pct` % per-flow loss met with `attempts` fixed-timeout tries.
    pub const fn lossy(loss_pct: u32, attempts: u32) -> Network {
        Network {
            loss_pct,
            attempts,
            adaptive: false,
        }
    }

    /// The same network, met with RTT-derived timeouts.
    pub const fn adaptive(self) -> Network {
        Network {
            adaptive: true,
            ..self
        }
    }

    /// The fast pipeline config on this network.
    pub fn config(self) -> HunterConfig {
        let mut cfg = HunterConfig::fast().with_retries(self.attempts);
        if self.loss_pct > 0 {
            let drop = f64::from(self.loss_pct) / 100.0;
            cfg = cfg.with_scan_faults(FaultPlan::lossy(drop));
        }
        if self.adaptive {
            cfg = cfg.with_adaptive();
        }
        cfg
    }
}

/// The networks every execution axis is held on: reliable, 1 % loss with
/// 3 attempts (retries, backoff waits and quarantine streaks all fire), and
/// 5 % loss met adaptively.
pub const NETWORKS: [Network; 3] = [
    Network::RELIABLE,
    Network::lossy(1, 3),
    Network::lossy(5, 3).adaptive(),
];

/// What a policy may move in a [`Pinned`] record, against the same
/// network without it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Moves {
    /// Nothing at all.
    Nothing,
    /// Only the simulated clocks and the stage sim deltas in `sim_hash`,
    /// and the clocks only down.
    ClockFalls,
    /// Only the clocks, the pacing waits and `sim_hash`; both clocks and
    /// the pacing waits rise.
    ClockRises,
    /// Anything but the output: sequence, totals, evidence and Table 1.
    OutputKept,
}

impl Moves {
    /// Panic unless `got` differs from `base` only where `self` allows, in
    /// the direction it allows.
    pub fn check(self, base: &Pinned, got: &Pinned, row: &str) {
        const CLOCKS: [&str; 4] = ["scan_elapsed", "bucket_wait", "clock", "sim_hash"];
        const OUTPUT: [&str; 4] = ["sequence_hash", "totals", "evidence", "table1"];
        let moved = base.moved(got);
        let allowed = |field: &&str| match self {
            Moves::Nothing => false,
            Moves::ClockFalls => CLOCKS.contains(field) && *field != "bucket_wait",
            Moves::ClockRises => CLOCKS.contains(field),
            Moves::OutputKept => !OUTPUT.contains(field),
        };
        let stray: Vec<&str> = moved.iter().copied().filter(|f| !allowed(f)).collect();
        assert!(stray.is_empty(), "{row} moved {stray:?}");
        match self {
            Moves::ClockFalls => assert!(
                got.scan_elapsed <= base.scan_elapsed && got.clock <= base.clock,
                "{row}: a clock rose"
            ),
            Moves::ClockRises => {
                assert!(
                    got.scan_elapsed > base.scan_elapsed && got.clock > base.clock,
                    "{row}: a clock did not rise"
                );
                assert!(
                    got.bucket_wait > base.bucket_wait,
                    "{row}: the pacing waited for nothing"
                );
            }
            Moves::Nothing | Moves::OutputKept => {}
        }
    }
}

/// A scheduling or retry policy applied on top of a [`Network`].
pub struct Policy {
    /// The row's name.
    pub name: &'static str,
    /// The config change.
    pub apply: fn(HunterConfig) -> HunterConfig,
    /// What it may move.
    pub moves: Moves,
}

/// Every policy axis. On a reliable network the retry policies move
/// nothing, since the first attempt always answers; the scheduling
/// policies move only the simulated clock, never the answers. (`adaptive`
/// is the config change of [`Network::adaptive`].)
pub const POLICIES: [Policy; 5] = [
    Policy {
        name: "adaptive",
        apply: HunterConfig::with_adaptive,
        moves: Moves::ClockFalls,
    },
    Policy {
        name: "ethics pacing",
        apply: ethics_pacing,
        moves: Moves::ClockRises,
    },
    Policy {
        name: "single-shot",
        apply: |cfg| cfg.with_retry_plan(QueryPlan::single_shot()),
        moves: Moves::Nothing,
    },
    Policy {
        name: "5 attempts",
        apply: |cfg| cfg.with_retries(5),
        moves: Moves::Nothing,
    },
    Policy {
        name: "explicit reliable fault plan",
        apply: |cfg| cfg.with_scan_faults(FaultPlan::reliable()),
        moves: Moves::Nothing,
    },
];

/// The paper's per-server interval on top of `cfg`.
fn ethics_pacing(mut cfg: HunterConfig) -> HunterConfig {
    cfg.per_server_interval = HunterConfig::paper_faithful().per_server_interval;
    cfg
}

/// The policy named `name` in [`POLICIES`].
pub fn policy(name: &str) -> &'static Policy {
    POLICIES
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no policy named {name}"))
}

/// The per-server bound of `cfg`'s paced scan of a world's `nameservers`
/// × `targets` on `shards` world shards: a paced shard probes in rounds,
/// one probe a server a round, so on a reliable network its clock is at
/// most its busiest server's probe count (targets not delegated to it ×
/// record types) times the interval. Summed over the scan's shards.
pub fn paced_bound(
    registry: &authdns::DelegationRegistry,
    nameservers: &[NsInfo],
    targets: &[dnswire::Name],
    cfg: &HunterConfig,
    shards: usize,
) -> SimDuration {
    let delegations: Vec<&[(dnswire::Name, Ipv4Addr)]> = (targets.iter())
        .map(|target| {
            let suffix = registry.registered_suffix(target);
            let delegation = suffix.and_then(|suffix| registry.delegation_of(&suffix));
            delegation.unwrap_or_default()
        })
        .collect();
    let probes = |ns: &&NsInfo| {
        let delegated = (delegations.iter())
            .filter(|servers| servers.iter().any(|&(_, ip)| ip == ns.ip))
            .count();
        cfg.collect.query_types.len() * (targets.len() - delegated)
    };
    let selected: Vec<&NsInfo> = (nameservers.iter())
        .filter(|ns| ns.tail_hosted_sites >= cfg.collect.min_tail_sites)
        .collect();
    let rounds: usize = par::chunk_ranges(selected.len(), shards)
        .into_iter()
        .map(|range| selected[range].iter().map(probes).max().unwrap_or(0))
        .sum();
    SimDuration::from_micros(rounds as u64 * cfg.per_server_interval.as_micros())
}

/// What no execution axis may move on one materialized world run through
/// [`run`]. Compare two with [`Pinned::moved`], which reads `sim_hash`
/// only where both runs carried a hub.
#[derive(Debug)]
pub struct Pinned {
    /// Digest of the classified sequence, each UR at its position.
    pub sequence_hash: u64,
    /// Whether `classified` came back in `(shard, index)` order, which the
    /// digest does not read.
    pub in_task_order: bool,
    /// The verdict totals.
    pub totals: Totals,
    /// How many addresses carry malicious evidence.
    pub evidence: usize,
    /// The rendered Table 1.
    pub table1: String,
    /// Probe accounting.
    pub coverage: CoverageReport,
    /// Summed simulated scan time.
    pub scan_elapsed: SimDuration,
    /// Simulated time blocked on pacing buckets.
    pub bucket_wait: SimDuration,
    /// The world fabric's datagram counters after the run.
    pub net: NetStats,
    /// The world clock after the run.
    pub clock: SimTime,
    /// The correct-record database the run classified with.
    pub correct_db: CorrectDb,
    /// The protective-record database the run classified with.
    pub protective_db: ProtectiveDb,
    /// The hub registry's deterministic hash, when a hub was attached.
    pub sim_hash: Option<u64>,
}

impl Pinned {
    /// The fields on which `self` and `other` differ; `sim_hash` only when
    /// both runs carried a hub.
    pub fn moved(&self, other: &Pinned) -> Vec<&'static str> {
        let sim_hash = match (self.sim_hash, other.sim_hash) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        };
        [
            ("sequence_hash", self.sequence_hash != other.sequence_hash),
            ("totals", self.totals != other.totals),
            ("evidence", self.evidence != other.evidence),
            ("table1", self.table1 != other.table1),
            ("coverage", self.coverage != other.coverage),
            ("scan_elapsed", self.scan_elapsed != other.scan_elapsed),
            ("bucket_wait", self.bucket_wait != other.bucket_wait),
            ("net", self.net != other.net),
            ("clock", self.clock != other.clock),
            ("correct_db", self.correct_db != other.correct_db),
            ("protective_db", self.protective_db != other.protective_db),
            ("sim_hash", sim_hash),
        ]
        .into_iter()
        .filter_map(|(name, moved)| moved.then_some(name))
        .collect()
    }
}

/// Run `cfg` on a fresh `config` world (with `hub` attached, if any) and
/// pin the result. Every run is held to the accounting it must satisfy
/// whatever the axis: the coverage buckets sum to the scheduled probes and
/// the report embeds them; with a hub, its probe funnel is the coverage and
/// its fabric counters are the world fabric's traffic of the run; and when
/// the run returns, every datagram handed to the fabric, and every injected
/// copy, has met exactly one fate.
pub fn pinned(config: &WorldConfig, cfg: HunterConfig, hub: Option<Arc<obs::Obs>>) -> Pinned {
    let mut world = World::generate(config.clone());
    let before = world.net.stats();
    let cfg = match &hub {
        Some(hub) => cfg.with_obs(hub.clone()),
        None => cfg,
    };
    let out = run(&mut world, &cfg);
    let cov = &out.coverage;
    assert!(cov.scheduled > 0, "nothing scheduled");
    assert!(
        cov.is_complete(),
        "buckets do not sum to scheduled: {cov:?}"
    );
    assert_eq!(&out.report.coverage, cov, "the report's coverage diverges");
    let net = world.net.stats();
    assert_eq!(
        net.sent + net.duplicated,
        net.delivered + net.dropped + net.no_route,
        "fabric datagram accounting does not balance"
    );
    if let Some(hub) = &hub {
        let c = |name: &str| hub.registry().counter_value(name).unwrap_or(0);
        let funnel = [
            ("probe_scheduled", cov.scheduled),
            ("probe_answered_first", cov.answered),
            ("probe_answered_retried", cov.retried_answered),
            ("probe_gave_up", cov.gave_up),
            ("probe_skipped_quarantined", cov.skipped_quarantined),
            ("probe_retransmissions", cov.retransmissions),
            ("net_sent", net.sent - before.sent),
            ("net_duplicated", net.duplicated - before.duplicated),
            ("net_delivered", net.delivered - before.delivered),
            ("net_dropped", net.dropped - before.dropped),
            ("net_corrupted", net.corrupted - before.corrupted),
            ("net_no_route", net.no_route - before.no_route),
            (
                "net_bytes_delivered",
                net.bytes_delivered - before.bytes_delivered,
            ),
            ("net_events", net.events - before.events),
        ];
        for (name, want) in funnel {
            assert_eq!(c(name), want, "the hub's {name} is not the run's");
        }
    }
    assert_eq!(
        out.sequence_hash,
        classified_sequence_hash(&out.classified),
        "the run's folded digest is not its classified sequence's"
    );
    let position = |c: &urhunter::ClassifiedUr| (c.ur.shard, c.ur.index);
    Pinned {
        sequence_hash: out.sequence_hash,
        in_task_order: (out.classified.windows(2)).all(|w| position(&w[0]) < position(&w[1])),
        totals: out.report.totals,
        evidence: out.analysis.evidence.len(),
        table1: out.report.render_table1(),
        coverage: out.coverage,
        scan_elapsed: out.scan_elapsed,
        bucket_wait: out.bucket_wait,
        net,
        clock: world.net.now(),
        correct_db: out.correct_db,
        protective_db: out.protective_db,
        sim_hash: hub.map(|hub| hub.registry().sim_hash()),
    }
}

/// Hold the run at every execution axis, `runs(workers, hub)`, to the
/// first one, and return the first run that carried a hub: every later
/// run is compared with it, so its `sim_hash` is every hub run's.
pub fn hold_execution_axes<P: Borrow<Pinned>>(mut runs: impl FnMut(usize, bool) -> P) -> P {
    let mut reference: Option<P> = None;
    for workers in WORKERS {
        for hub in HUB {
            let got = runs(workers, hub);
            if let Some(reference) = &reference {
                let moved = reference.borrow().moved(got.borrow());
                assert!(
                    moved.is_empty(),
                    "workers {workers} hub {hub} moved {moved:?}"
                );
            }
            if reference
                .as_ref()
                .is_none_or(|r| r.borrow().sim_hash.is_none())
            {
                reference = Some(got);
            }
        }
    }
    reference.expect("a hub run")
}

/// The execution axes of `config` on a reliable network, run here.
fn reliable_axes(config: &WorldConfig) -> Pinned {
    hold_execution_axes(|workers, hub| {
        let cfg = Network::RELIABLE.config().with_workers(workers);
        pinned(config, cfg, hub.then(obs::Obs::shared))
    })
}

fn coverage_json(c: &CoverageReport) -> String {
    let quarantined: Vec<String> = c
        .quarantined_servers
        .iter()
        .map(|ip| format!("\"{ip}\""))
        .collect();
    format!(
        "{{ \"scheduled\": {}, \"answered\": {}, \"retried_answered\": {}, \"gave_up\": {}, \
         \"skipped_quarantined\": {}, \"retransmissions\": {}, \"quarantined_servers\": [{}] }}",
        c.scheduled,
        c.answered,
        c.retried_answered,
        c.gave_up,
        c.skipped_quarantined,
        c.retransmissions,
        quarantined.join(", "),
    )
}

fn split_json<T: std::fmt::Display>(correct: T, protective: T, unknown: T, malicious: T) -> String {
    format!(
        "{{ \"correct\": {correct}, \"protective\": {protective}, \"unknown\": {unknown}, \
         \"malicious\": {malicious} }}"
    )
}

/// What `run`'s support sweep costs on a fresh `config` world: protective
/// records at the selected nameservers, then correct records through the
/// open-resolver fleet, on the world's own fabric with the reliable
/// network's engine, as `run` sweeps before any other traffic crosses it.
/// The probes the engine scheduled, and the datagrams and events the
/// fabric carried for them.
fn support_json(config: &WorldConfig) -> String {
    let mut world = World::generate(config.clone());
    world.net.trace.set_enabled(false);
    let cfg = Network::RELIABLE.config();
    let nameservers = select_nameservers(&world, cfg.collect.min_tail_sites);
    let targets = world.scan_targets();
    let mut engine = ProbeEngine::new(cfg.retry);
    let before = world.net.stats();
    let world = &mut world;
    collect_protective(&mut world.net, &mut engine, &nameservers, &cfg.collect);
    collect_correct(
        &mut world.net,
        &mut engine,
        &world.resolvers,
        &world.db,
        &targets,
        &cfg.collect,
    );
    let net = world.net.stats() - before;
    format!(
        "{{ \"probes\": {}, \"datagrams\": {}, \"events\": {} }}",
        engine.take_coverage().scheduled,
        net.sent,
        net.events,
    )
}

/// The fields an eager block shares, from the reliable run that every
/// execution axis reproduced (one that carried a hub). A reliable network
/// answers every probe at the first attempt.
fn eager_fields(config: &WorldConfig, p: &Pinned) -> String {
    assert_eq!(p.coverage.total_gave_up(), 0, "reliable run gave up probes");
    assert_eq!(p.coverage.retransmissions, 0, "reliable run retransmitted");
    let t = p.totals;
    format!(
        "    \"world_seed\": {},\n    \"urs\": {},\n    \"split\": {},\n    \
         \"sequence_hash\": {},\n    \"sim_hash\": {},\n    \"coverage\": {},\n    \
         \"scan_sim_us\": {},\n    \"datagrams_sent\": {},\n    \"support\": {}",
        config.seed,
        t.total,
        split_json(t.correct, t.protective, t.unknown, t.malicious),
        p.sequence_hash,
        p.sim_hash.expect("a hub run"),
        coverage_json(&p.coverage),
        p.scan_elapsed.as_micros(),
        p.net.delivered + p.net.dropped + p.net.no_route,
        support_json(config),
    )
}

/// The `small` block from the test-sized world's reliable run, once every
/// execution axis reproduced it (see [`hold_execution_axes`]).
pub fn small_block(reference: &Pinned) -> String {
    let fields = eager_fields(&WorldConfig::small(), reference);
    format!("  \"small\": {{\n{fields}\n  }}")
}

/// The `small` block: the test-sized world across every execution axis.
pub fn small() -> String {
    small_block(&reliable_axes(&WorldConfig::small()))
}

/// The `medium` block: the execution axes on the benchmark world, then the
/// two scheduling policies that may move the simulated clock and nothing
/// else — adaptive timeouts under 5 % per-flow loss, and the paper's
/// per-server pacing on one worker and on four.
pub fn medium() -> String {
    let config = WorldConfig::medium();
    let reference = reliable_axes(&config);
    let fields = eager_fields(&config, &reference);
    let on = |network: Network, policy: Option<&Policy>, workers: usize| {
        let cfg = network.config().with_workers(workers);
        let cfg = match policy {
            Some(p) => (p.apply)(cfg),
            None => cfg,
        };
        pinned(&config, cfg, None)
    };

    // Under loss the fixed policy burns the whole plan timeout for every
    // lost first attempt; the adaptive one times out at `srtt + k·rttvar`,
    // floored above the fabric's worst round trip, so the answers are the
    // same and only the simulated clock differs.
    let lossy = Network::lossy(5, 3);
    let adaptive_policy = policy("adaptive");
    let fixed = on(lossy, None, 1);
    let adaptive = on(lossy, Some(adaptive_policy), 1);
    adaptive_policy
        .moves
        .check(&fixed, &adaptive, "medium adaptive at 5% loss");
    assert!(
        adaptive.scan_elapsed < fixed.scan_elapsed,
        "adaptive scheduling did not beat the fixed timeout in simulated time"
    );

    // The paper's 130 s per-server interval makes every probe to a server
    // after its first wait. Each shard paces its own servers on its own
    // clock, in rounds, so four workers pace exactly as one does.
    let ethics = policy("ethics pacing");
    let paced = on(Network::RELIABLE, Some(ethics), 1);
    ethics
        .moves
        .check(&reference, &paced, "medium ethics pacing");
    let world = World::generate(config.clone());
    let cfg = (ethics.apply)(Network::RELIABLE.config());
    let (targets, shards) = (world.scan_targets(), urhunter::SCAN_SHARDS);
    let bound = paced_bound(&world.registry, &world.nameservers, &targets, &cfg, shards);
    assert!(
        paced.scan_elapsed <= bound,
        "the medium paced clock {:?} exceeds its per-server bound {bound:?}",
        paced.scan_elapsed
    );
    let paced_four = on(Network::RELIABLE, Some(ethics), 4);
    let moved = paced.moved(&paced_four);
    assert!(
        moved.is_empty(),
        "the paced run moved {moved:?} at 4 workers"
    );

    hold_one_plan(&config);

    format!(
        "  \"medium\": {{\n{fields},\n    \"lossy_5pct\": {{ \"gave_up\": {}, \
         \"fixed_scan_sim_us\": {}, \"adaptive_scan_sim_us\": {} }},\n    \
         \"ethics_130s\": {{ \"scan_sim_us\": {}, \"bucket_wait_sim_us\": {} }}\n  }}",
        fixed.coverage.total_gave_up(),
        fixed.scan_elapsed.as_micros(),
        adaptive.scan_elapsed.as_micros(),
        paced.scan_elapsed.as_micros(),
        paced.bucket_wait.as_micros(),
    )
}

/// The bulk scan of a world's blueprint over its selected nameservers and
/// targets on `workers` workers: every UR in `(shard, index)` order, the
/// scan's coverage and its simulated clock.
fn bulk_scan(
    blueprint: &worldgen::ScanBlueprint,
    registry: &authdns::DelegationRegistry,
    nameservers: &[NsInfo],
    targets: &[dnswire::Name],
    workers: usize,
) -> (Vec<CollectedUr>, CoverageReport, SimDuration) {
    let cfg = HunterConfig::fast();
    let selected: Vec<NsInfo> = nameservers
        .iter()
        .filter(|ns| ns.tail_hosted_sites >= cfg.collect.min_tail_sites)
        .cloned()
        .collect();
    let mut urs = Vec::new();
    let out = collect_urs_sharded(
        blueprint,
        cfg.retry,
        FaultPlan::reliable(),
        None,
        registry,
        &selected,
        targets,
        &cfg.collect,
        &mut QueryScheduler::new(cfg.scheduler_seed, SimDuration::ZERO),
        workers,
        usize::MAX,
        &mut |batch| urs.extend(batch),
    );
    urs.sort_unstable_by_key(|ur| (ur.shard, ur.index));
    (urs, out.coverage, out.elapsed)
}

/// The one-plan axis: `config`'s eager world ([`World::generate`]) and its
/// lazy one ([`StreamWorld::generate`]) are one world. At every worker
/// count of [`STREAM_WORKERS`] the bulk scan collects the same URs, at the
/// same `(shard, index)` positions, over either world's blueprint,
/// inventory and registry; [`run`] keeps exactly those URs, and
/// [`run_streamed`] at [`urhunter::SCAN_SHARDS`] counts as many, with the
/// scan's coverage and simulated clock. Classification may differ: the
/// streamed path synthesizes its databases from the plan. Returns the UR
/// count.
pub fn hold_one_plan(config: &WorldConfig) -> usize {
    let mut eager = World::generate(config.clone());
    let lazy = StreamWorld::generate(config.clone());
    let targets = eager.scan_targets();
    assert_eq!(targets, lazy.scan_targets(), "the two worlds' targets");
    let (eager_bp, lazy_bp) = (eager.scan_blueprint(), lazy.scan_blueprint());
    let (urs, coverage, elapsed) =
        bulk_scan(&eager_bp, &eager.registry, &eager.nameservers, &targets, 1);
    for workers in STREAM_WORKERS {
        let got = bulk_scan(
            &lazy_bp,
            &lazy.registry,
            &lazy.nameservers,
            &targets,
            workers,
        );
        assert!(
            got.0 == urs && got.1 == coverage && got.2 == elapsed,
            "the lazy world's scan at {workers} workers left the eager world's"
        );
    }
    drop((eager_bp, lazy_bp));
    let cfg = HunterConfig::fast();
    let out = run(&mut eager, &cfg);
    let kept: Vec<(u16, u32, urhunter::UrKey)> = out
        .classified
        .iter()
        .map(|c| (c.ur.shard, c.ur.index, c.ur.key))
        .collect();
    let collected: Vec<(u16, u32, urhunter::UrKey)> =
        urs.iter().map(|ur| (ur.shard, ur.index, ur.key)).collect();
    assert_eq!(kept, collected, "run keeps the bulk scan's URs");
    assert_eq!(out.scan_elapsed, elapsed, "run's scan clock");
    let streamed = run_streamed(&lazy, &cfg, urhunter::SCAN_SHARDS);
    assert_eq!(
        (streamed.total_urs, &streamed.coverage, streamed.elapsed),
        (urs.len() as u64, &coverage, elapsed),
        "run_streamed scans the eager world's URs"
    );
    urs.len()
}

/// What no execution axis may move on a streamed world run through
/// [`run_streamed`] at one world-shard count.
#[derive(Debug, PartialEq)]
pub struct StreamPinned {
    /// Digest of the classified sequence, each UR at its position.
    pub sequence_hash: u64,
    /// Probe accounting across every shard engine.
    pub coverage: CoverageReport,
    /// Correct, protective, unknown and malicious counts.
    pub split: [u64; 4],
    /// Summed simulated scan time.
    pub elapsed: SimDuration,
    /// Simulated time blocked on pacing buckets.
    pub bucket_wait: SimDuration,
    /// The hub registry's deterministic hash, when a hub was attached.
    pub sim_hash: Option<u64>,
}

/// Run `cfg` over `world` at `world_shards` (with `hub` attached, if any)
/// and pin the result beside the whole output.
pub fn stream_pinned(
    world: &StreamWorld,
    cfg: HunterConfig,
    world_shards: usize,
    hub: Option<Arc<obs::Obs>>,
) -> (StreamPinned, urhunter::StreamRunOutput) {
    let cfg = match &hub {
        Some(hub) => cfg.with_obs(hub.clone()),
        None => cfg,
    };
    let out = run_streamed(world, &cfg, world_shards);
    assert!(out.coverage.is_complete(), "coverage must balance");
    let pinned = StreamPinned {
        sequence_hash: out.sequence_hash,
        coverage: out.coverage.clone(),
        split: [out.correct, out.protective, out.unknown, out.malicious],
        elapsed: out.elapsed,
        bucket_wait: out.bucket_wait,
        sim_hash: hub.map(|hub| hub.registry().sim_hash()),
    };
    let (report, t) = (&out.report, out.report.totals);
    let split = [t.correct, t.protective, t.unknown, t.malicious].map(|n| n as u64);
    let counters = (out.total_urs, pinned.split);
    assert_eq!((t.total as u64, split), counters, "the report's totals");
    let by_provider: usize = report.providers.iter().map(|p| p.total).sum();
    assert_eq!(by_provider, t.total, "Figure 2 misses URs");
    let last = report.table1.last().map(|r| (r.label, r.urs));
    assert_eq!(last, Some(("Total", t.suspicious())), "Table 1's Total row");
    assert_eq!(report.coverage, out.coverage, "the report's coverage");
    (pinned, out)
}

/// The `xl` block: the streamed paper-scale preset (≥ 1 M URs) folded at
/// every streamed worker count, then paced once, at automatic workers.
pub fn xl() -> String {
    const WORLD_SHARDS: usize = urhunter::SCAN_SHARDS;
    let config = WorldConfig::xl();
    let seed = config.seed;
    let world = StreamWorld::generate(config);
    let at = |workers| {
        let cfg = HunterConfig::fast().with_workers(workers);
        stream_pinned(&world, cfg, WORLD_SHARDS, None)
    };
    let (want, seq) = at(STREAM_WORKERS[0]);
    for workers in &STREAM_WORKERS[1..] {
        assert_eq!(
            at(*workers).0,
            want,
            "the {workers}-worker fold diverged from the one-worker fold"
        );
    }
    assert!(
        seq.total_urs >= 1_000_000,
        "xl must produce at least 1M URs, got {}",
        seq.total_urs
    );
    assert_eq!(seq.coverage.scheduled, seq.coverage.answered);
    assert!(seq.correct > 0 && seq.protective > 0 && seq.unknown > 0);

    let paced = paced_stream(&world, &want, WORLD_SHARDS, "xl");
    format!(
        "  \"xl\": {{\n    \"world_seed\": {seed},\n    \"world_shards\": {WORLD_SHARDS},\n    \
         \"nameservers\": {},\n    \"targets\": {},\n    \"urs\": {},\n    \"split\": {},\n    \
         \"sequence_hash\": {},\n    \"coverage\": {},\n    \"scan_sim_us\": {},\n    \
         \"ethics_130s\": {{ \"scan_sim_us\": {}, \"bucket_wait_sim_us\": {} }}\n  }}",
        seq.nameserver_count,
        seq.target_count,
        seq.total_urs,
        split_json(seq.correct, seq.protective, seq.unknown, seq.malicious),
        seq.sequence_hash,
        coverage_json(&seq.coverage),
        seq.elapsed.as_micros(),
        paced.elapsed.as_micros(),
        paced.bucket_wait.as_micros(),
    )
}

/// `world` streamed at automatic workers with the paper's pacing, on the
/// `world_shards` of its unpaced fold `want`: the output is the unpaced
/// fold's, only the clock and the waits rise, and the clock stays within
/// the per-server bound.
fn paced_stream(
    world: &StreamWorld,
    want: &StreamPinned,
    shards: usize,
    name: &str,
) -> StreamPinned {
    let cfg = (policy("ethics pacing").apply)(HunterConfig::fast());
    let (paced, _) = stream_pinned(world, cfg.clone(), shards, None);
    assert_eq!(
        (paced.sequence_hash, &paced.coverage, paced.split),
        (want.sequence_hash, &want.coverage, want.split),
        "the paced {name} fold moved the output"
    );
    assert!(paced.elapsed > want.elapsed && paced.bucket_wait > want.bucket_wait);
    let targets = world.scan_targets();
    let bound = paced_bound(&world.registry, &world.nameservers, &targets, &cfg, shards);
    assert!(
        paced.elapsed <= bound,
        "the {name} paced clock {:?} exceeds its per-server bound {bound:?}",
        paced.elapsed
    );
    paced
}

/// The paper-scale run, `BENCH_paper.json`: [`WorldConfig::paper`] at
/// seed 9 folded at automatic workers, unpaced and then paced. The scan's
/// counts, digest and clocks, Table 1's Total row and Figure 2's top five
/// providers, each with its share of every UR in per mille.
pub fn paper() -> String {
    let config = WorldConfig::paper().with_seed(9);
    let seed = config.seed;
    let world = StreamWorld::generate(config);
    let cfg = HunterConfig::fast();
    let (want, out) = stream_pinned(&world, cfg, urhunter::SCAN_SHARDS, None);
    let paced = paced_stream(&world, &want, urhunter::SCAN_SHARDS, "paper");
    let total = out.report.table1.last().expect("Table 1 has a Total row");
    let top: Vec<String> = out
        .report
        .providers
        .iter()
        .take(5)
        .map(|p| {
            format!(
                "      {{ \"provider\": \"{}\", \"urs\": {}, \"share_permille\": {}, \
                 \"protective\": {}, \"unknown\": {}, \"malicious\": {} }}",
                p.provider,
                p.total,
                p.total as u64 * 1000 / out.total_urs.max(1),
                p.protective,
                p.unknown,
                p.malicious,
            )
        })
        .collect();
    format!(
        "{{\n  \"paper\": {{\n    \"world_seed\": {seed},\n    \"world_shards\": {},\n    \
         \"nameservers\": {},\n    \"targets\": {},\n    \"urs\": {},\n    \"split\": {},\n    \
         \"sequence_hash\": {},\n    \"coverage\": {},\n    \"scan_sim_us\": {},\n    \
         \"ethics_130s\": {{ \"scan_sim_us\": {}, \"bucket_wait_sim_us\": {} }},\n    \
         \"table1_total\": {{ \"domains\": {}, \"nameservers\": {}, \"providers\": {}, \
         \"urs\": {}, \"urs_malicious\": {} }},\n    \"figure2_top5\": [\n{}\n    ]\n  }}\n}}\n",
        out.shards,
        out.nameserver_count,
        out.target_count,
        out.total_urs,
        split_json(out.correct, out.protective, out.unknown, out.malicious),
        out.sequence_hash,
        coverage_json(&out.coverage),
        out.elapsed.as_micros(),
        paced.elapsed.as_micros(),
        paced.bucket_wait.as_micros(),
        total.domains,
        total.nameservers,
        total.providers,
        total.urs,
        total.urs_malicious,
        top.join(",\n"),
    )
}

/// What no execution axis may move in the daemon's epoch stream: every
/// seal and every event body, in order.
#[derive(Debug, PartialEq)]
pub struct DaemonPinned {
    /// One seal per epoch.
    pub seals: Vec<EpochSeal>,
    /// Every event of every epoch.
    pub events: Vec<UrEvent>,
}

impl DaemonPinned {
    /// The log of `state`, pinned.
    pub fn of(state: &LiveState) -> DaemonPinned {
        let records = state.log.records();
        DaemonPinned {
            seals: records.iter().map(|r| r.seal).collect(),
            events: records
                .iter()
                .flat_map(|r| r.events.iter().copied())
                .collect(),
        }
    }
}

/// The `daemon` block: three drifting epochs over the medium world through
/// the real [`EpochDriver`], then a full replay of the log, which must
/// rebuild the live store.
pub fn daemon() -> String {
    let mut cfg = DriverConfig::small();
    cfg.scale = WorldScale::Medium;
    cfg.drift_days = 120;
    cfg.new_campaigns = 50;
    cfg.expire_fraction = 0.3;
    let mut driver = EpochDriver::new(cfg);
    let mut state = LiveState::default();
    let epochs: Vec<String> = (0..3)
        .map(|_| {
            let s = driver.step(&mut state);
            format!(
                "      {{ \"epoch\": {}, \"observed\": {}, \"changed\": {}, \"gone\": {}, \
                 \"classified_hash\": {}, \"verdict_hash\": {}, \"sim_hash\": {}, \
                 \"present\": {} }}",
                s.epoch,
                s.observed,
                s.changed,
                s.gone,
                s.seal.classified_hash,
                s.seal.verdict_hash,
                s.seal.sim_hash,
                s.seal.present,
            )
        })
        .collect();
    let replayed = state
        .log
        .verify_replay()
        .expect("the log replays to its sealed hashes");
    assert_eq!(replayed.verdict_hash(), state.store.verdict_hash());
    format!(
        "  \"daemon\": {{\n    \"world_seed\": {},\n    \"epochs\": [\n{}\n    ],\n    \
         \"events_total\": {},\n    \"store_total\": {},\n    \"store_present\": {},\n    \
         \"verdict_hash\": {},\n    \"replay_ok\": true\n  }}",
        WorldScale::Medium.config().seed,
        epochs.join(",\n"),
        state.log.event_count(),
        state.store.len(),
        state.store.present_len(),
        state.store.verdict_hash(),
    )
}

/// The whole file from its blocks, in the order given.
pub fn document(blocks: &[String]) -> String {
    format!(
        "{{\n  \"schema\": 2,\n  \"scheduler_seed\": {},\n{}\n}}\n",
        HunterConfig::fast().scheduler_seed,
        blocks.join(",\n")
    )
}
