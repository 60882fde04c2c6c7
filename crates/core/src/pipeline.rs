//! The URHunter pipeline: collection → suspicious determination →
//! malicious-behaviour analysis → report.

use crate::analyze::{analyze, run_sandboxes, Analysis, AnalyzeConfig};
use crate::classify::{ClassifyConfig, StreamClassifier};
use crate::collect::{
    collect_correct, collect_protective, collect_urs_streamed, distinct_query_types, query_one_ur,
    select_nameservers, CollectConfig, QidGen, SCAN_SHARDS,
};
use crate::query::{publish_probes, CoverageReport, ProbeEngine, QueryPlan};
use crate::report::{Report, RunFold};
use crate::schedule::QueryScheduler;
use crate::types::{ClassifiedUr, CollectedUr, CorrectDb, ProtectiveDb, UrCategory};
use dnswire::RDataSetRef;
use intern::{InternedName, Sym};
use simnet::{FaultPlan, SimDuration};
use std::cell::OnceCell;
use std::sync::{Arc, OnceLock};
use worldgen::{NsInfo, World};

/// Complete pipeline configuration.
#[derive(Debug, Clone)]
pub struct HunterConfig {
    /// Collection stage settings.
    pub collect: CollectConfig,
    /// Classification stage settings.
    pub classify: ClassifyConfig,
    /// Analysis stage settings.
    pub analyze: AnalyzeConfig,
    /// Per-server probe spacing (ethics mode; the paper used 130 s).
    pub per_server_interval: SimDuration,
    /// Seed for probe-order randomization.
    pub scheduler_seed: u64,
    /// Scan worker threads. Workers only claim shards of the scan's layout
    /// — [`SCAN_SHARDS`](crate::SCAN_SHARDS) contiguous nameserver ranges
    /// for [`run`], the `world_shards` argument of [`run_streamed`] — and
    /// each scans its shard on its own replica fabric and classifies the
    /// URs it scanned. Two or more workers are threads of their own, and
    /// [`run`]'s calling thread sweeps for correct and protective records
    /// beside them (two workers keep three threads busy during the
    /// sweep), then merges their folds, analyzes and reports; one worker
    /// is the calling thread itself, which sweeps first and then scans
    /// every shard. `0` is automatic
    /// (available parallelism, `URHUNTER_PARALLELISM` override), `1` is
    /// sequential, `n` fixed. Output is bit-identical for every value
    /// (pinned by the execution axes of `tests/invariance.rs`); only
    /// wall-clock time and peak RSS (`workers` resident shard fabrics, a
    /// worker holding one at a time) change.
    pub workers: usize,
    /// Retry/backoff policy for every collection-stage probe (bulk scan,
    /// correct records, protective canaries, and the §4.2 replay). On a
    /// reliable network the first attempt always answers, so the default
    /// (3 attempts) leaves output bit-identical to a single-shot run.
    pub retry: QueryPlan,
    /// Fault plan applied to the fabric for the *collection* stages only
    /// (the scanner crosses the hostile Internet; the sandbox/IDS phase is
    /// a local measurement and must stay clean). `None` leaves the world's
    /// fault plan untouched.
    pub scan_faults: Option<FaultPlan>,
    /// Always `ZERO`: the scan paces per server only
    /// ([`HunterConfig::per_server_interval`]). `run` and `run_streamed`
    /// pass it to [`QueryScheduler::with_global_interval`], which panics on
    /// any other value.
    pub rate_limit_interval: SimDuration,
    /// Observability hub (see `crates/obs`): when set, every layer
    /// publishes its totals into the hub's registry when its stage ends —
    /// fabric datagram counters, the probe funnel, classification verdicts
    /// and stage spans — and the probe engine pushes quarantine and
    /// release events into its sink. `None` (the default) skips those
    /// publishes; the counting itself is the same either way.
    pub(crate) obs: Option<Arc<obs::Obs>>,
}

impl HunterConfig {
    /// Fast settings: no pacing (simulated time is free, but pacing still
    /// costs host CPU for queue churn on very large worlds).
    pub fn fast() -> Self {
        HunterConfig {
            collect: CollectConfig::default(),
            classify: ClassifyConfig::default(),
            analyze: AnalyzeConfig::default(),
            per_server_interval: SimDuration::ZERO,
            scheduler_seed: 0x5545,
            workers: 0,
            retry: QueryPlan::default(),
            scan_faults: None,
            rate_limit_interval: SimDuration::ZERO,
            obs: None,
        }
    }

    /// Paper-faithful ethics pacing: randomized order, one probe per
    /// server per 130 simulated seconds.
    pub fn paper_faithful() -> Self {
        HunterConfig {
            per_server_interval: crate::schedule::PAPER_PER_SERVER_INTERVAL,
            ..HunterConfig::fast()
        }
    }

    /// Set the worker-thread count (see [`HunterConfig::workers`]; `0` =
    /// automatic).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// [`HunterConfig::with_workers`] under its older name.
    pub fn with_stream_workers(self, workers: usize) -> Self {
        self.with_workers(workers)
    }

    /// Does nothing: a run keeps each collected UR once, inside its
    /// [`ClassifiedUr`]. Kept because the benchmark calls it.
    pub fn with_keep_raw_collected(self, _keep: bool) -> Self {
        self
    }

    /// Set the attempt count of the collection retry policy (1 = today's
    /// single-shot behavior).
    pub fn with_retries(mut self, attempts: u32) -> Self {
        self.retry.attempts = attempts.max(1);
        self
    }

    /// Set the per-attempt probe timeout.
    pub(crate) fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.retry.timeout = timeout;
        self
    }

    /// Replace the whole retry policy.
    pub fn with_retry_plan(mut self, plan: QueryPlan) -> Self {
        self.retry = plan;
        self
    }

    /// Apply this fault plan to the fabric for the collection stages only
    /// (see [`HunterConfig::scan_faults`]).
    pub fn with_scan_faults(mut self, faults: FaultPlan) -> Self {
        self.scan_faults = Some(faults);
        self
    }

    /// Enable RTT-derived per-server timeouts for every collection-stage
    /// probe (the `--adaptive` flag).
    pub fn with_adaptive(mut self) -> Self {
        self.retry = self.retry.adaptive();
        self
    }

    /// Attach an observability hub: every layer then publishes its
    /// accounting (fabric datagram counters, the probe funnel,
    /// classification verdicts, stage spans) into its registry and sink.
    pub fn with_obs(mut self, hub: Arc<obs::Obs>) -> Self {
        self.obs = Some(hub);
        self
    }

    /// The classify config dated to the world's `today`.
    fn classify_cfg(&self, today: pdns::Day) -> ClassifyConfig {
        let mut cfg = self.classify.clone();
        cfg.today = today;
        cfg
    }
}

/// Everything one pipeline run produces.
pub struct RunOutput {
    /// The selected nameservers.
    pub nameservers: Vec<NsInfo>,
    /// Classified URs (final categories); `classified[i].ur` is the
    /// collected UR, in scan order.
    pub classified: Vec<ClassifiedUr>,
    /// The analysis stage's outputs.
    pub analysis: Analysis,
    /// Aggregated tables and figures.
    pub report: Report,
    /// Digest of `classified`, each UR at its position in the run
    /// ([`classified_sequence_hash`](crate::classified_sequence_hash)'s
    /// value), folded beside the report.
    pub sequence_hash: u64,
    /// The correct-record database used.
    pub correct_db: CorrectDb,
    /// The protective-record database used.
    pub protective_db: ProtectiveDb,
    /// Coverage accounting across every collection-stage probe (also
    /// embedded in [`Report::coverage`]).
    pub coverage: CoverageReport,
    /// Simulated time the bulk scan took (summed across shard fabrics) —
    /// the honest basis for comparing fixed vs adaptive timeouts, since
    /// host wall time barely notices a 5 s virtual wait.
    pub scan_elapsed: SimDuration,
    /// Simulated time the scan's schedulers spent blocked on the
    /// per-server pacing buckets.
    pub bucket_wait: SimDuration,
}

/// A shard's URs as its worker hands them to `run`'s merge, in the order
/// they were probed: those reached before the support sweep had published
/// the classifier, kept to classify on the calling thread once the sweep
/// is done, then those classified on the worker as they were probed.
#[derive(Default)]
struct ShardUrs {
    unclassified: Vec<CollectedUr>,
    classified: Vec<ClassifiedUr>,
    /// The worker's scratch for corresponding addresses.
    ips: Vec<std::net::Ipv4Addr>,
}

/// Run the full URHunter pipeline against a world.
///
/// The bulk scan is [`run_streamed`]'s, over the fixed
/// [`SCAN_SHARDS`](crate::SCAN_SHARDS) layout, and it keeps the verdicts:
/// `classified` is in `(shard, index)` order: shard-major, each shard in
/// its unpaced probe order ([`CollectedUr::index`](crate::CollectedUr::index)).
/// The calling thread sweeps for correct and protective records on
/// `world.net` while the scan workers probe their replica fabrics (with
/// one worker, first), then gathers the verdicts, classifying any shard
/// that ended before the sweep did, analyzes, and reduces the final
/// verdicts through one fold into the report, the sequence digest and the
/// verdict funnel.
pub fn run(world: &mut World, cfg: &HunterConfig) -> RunOutput {
    let nameservers = select_nameservers(world, cfg.collect.min_tail_sites);
    let targets = world.scan_targets();

    // The scanner's own traffic is not sandbox evidence; capture is off for
    // the bulk scan and re-enabled for the sandbox phase the IDS inspects.
    world.net.trace.set_enabled(false);
    // Scan-stage faults model the hostile Internet the scanner crosses; the
    // fabric's prior plan is restored before the (local) sandbox phase so
    // IDS evidence is never corrupted by injected loss.
    let pre_scan_faults = world.net.faults();
    if let Some(faults) = cfg.scan_faults {
        world.net.set_faults(faults);
    }
    // Observability: the world fabric's own traffic reaches the hub at the
    // end of the run, as the difference from this reading.
    let obs = cfg.obs.as_deref();
    let net_before = world.net.stats();
    let mut engine = ProbeEngine::new(cfg.retry);
    if let Some(hub) = &cfg.obs {
        engine = engine.with_obs(hub.clone());
    }
    let scheduler = QueryScheduler::new(cfg.scheduler_seed, cfg.per_server_interval)
        .with_global_interval(cfg.rate_limit_interval);
    let classify_cfg = cfg.classify_cfg(world.config.today);
    let workers = par::Parallelism::from_knob(cfg.workers).get();
    // The bulk scan runs on shard replica fabrics built from this snapshot,
    // with the world's fault seed and latency. The snapshot shares the
    // world's zone tables copy-on-write, and the support sweep below only
    // reads the providers, so taking it first snapshots the same state and
    // copies nothing.
    let blueprint = world.scan_blueprint();
    let scan_faults = world.net.faults();

    // The support sweep (correct and protective records) runs on the
    // calling thread, the only one that may touch `world.net`, while the
    // workers scan their replica fabrics. It publishes the classifier over
    // its two databases once. No worker waits for it: a shard that ends
    // before it is published is handed over unclassified, and the merge,
    // which starts only after the sweep, classifies it.
    let support = OnceCell::new();
    let streamer: OnceLock<StreamClassifier<'_>> = OnceLock::new();
    let mut collect_span = None;
    let sweep = || {
        let sp = obs.map(|h| h.span("collect_support", world.net.now().as_micros()));
        let protective =
            collect_protective(&mut world.net, &mut engine, &nameservers, &cfg.collect);
        let correct = collect_correct(
            &mut world.net,
            &mut engine,
            &world.resolvers,
            &world.db,
            &targets,
            &cfg.collect,
        );
        if let Some((s, h)) = sp.zip(obs) {
            s.finish(h, world.net.now().as_micros());
        }
        let (correct_db, protective_db) = support.get_or_init(|| (correct, protective));
        let cls = StreamClassifier::new(
            correct_db,
            protective_db,
            &world.db,
            &world.pdns,
            &classify_cfg,
        );
        let _ = streamer.set(cls);
        collect_span = obs.map(|h| h.span("collect", world.net.now().as_micros()));
    };
    // Each UR is kept as it is probed, classified at once when the sweep
    // has published the classifier.
    let absorb = |shard: &mut ShardUrs, ur: CollectedUr<RDataSetRef<'_>>| {
        let ur = ur.to_kept();
        match streamer.get() {
            Some(cls) => shard.classified.push(cls.classify(ur, &mut shard.ips)),
            None => shard.unclassified.push(ur),
        }
    };
    // The merge keeps each shard's verdicts by its index, in whatever order
    // the shards end, sorted by index into position order, which a paced
    // shard's rounds do not keep (an unpaced shard's are sorted already,
    // and the sort sees that in one pass). Verdicts are the same wherever
    // they are reached: the classifier is a pure function of the UR.
    let mut blocks: Vec<Vec<ClassifiedUr>> = vec![Vec::new(); SCAN_SHARDS];
    let scan = collect_urs_streamed(
        &blueprint,
        cfg.retry,
        scan_faults,
        cfg.obs.clone(),
        &world.registry,
        &nameservers,
        &targets,
        &cfg.collect,
        &scheduler,
        SCAN_SHARDS,
        workers,
        &absorb,
        sweep,
        &mut |shard, mut urs: ShardUrs| {
            let cls = streamer
                .get()
                .expect("the sweep publishes before the merge starts");
            let block = &mut blocks[shard];
            block.reserve_exact(urs.unclassified.len() + urs.classified.len());
            for ur in urs.unclassified {
                block.push(cls.classify(ur, &mut urs.ips));
            }
            block.append(&mut urs.classified);
            block.sort_unstable_by_key(|c| c.ur.index);
        },
    );
    // Shard-major: the vector grows by exactly each block, so it carries no
    // spare slot, and each block is freed once it is copied (reserving the
    // whole length first would hold every verdict twice).
    let mut classified = Vec::new();
    for block in blocks {
        classified.reserve_exact(block.len());
        classified.extend(block);
    }
    // A later write to the world (the sandbox phase, a daemon's drift)
    // would copy every table the snapshot still shared.
    drop(blueprint);
    drop(streamer);
    let (correct_db, protective_db) = support.into_inner().expect("the support sweep ran");
    // The world clock advances by the shards' summed scan time and the
    // fabric inherits their traffic accounting, exactly as if the scan had
    // run after the sweep, here.
    world.net.run_until(world.net.now() + scan.elapsed);
    world.net.absorb_stats(scan.stats);
    if let Some((s, h)) = collect_span.zip(obs) {
        s.finish(h, world.net.now().as_micros());
    }
    // The verdicts were reached inside the collect span, and their funnel
    // is published by the fold after analysis; the stage keeps its span,
    // off the network, so its sim delta is exactly zero.
    let sp = obs.map(|h| h.span("classify", world.net.now().as_micros()));
    if let Some((s, h)) = sp.zip(obs) {
        s.finish(h, world.net.now().as_micros());
    }
    // Collection is done: restore the fabric's fault plan before the local
    // sandbox/IDS phase, and bank the probe accounting: the main engine's
    // support-stage funnel plus the shard engines' bulk-scan funnel.
    world.net.set_faults(pre_scan_faults);
    let mut coverage = engine.take_coverage();
    if let Some(hub) = obs {
        // The shard engines published in the scan's merge; this is the
        // support engine's funnel.
        publish_probes(hub.registry(), &coverage, &engine.tally);
        // Pacing accounting: the summed simulated time the shard
        // schedulers spent blocked on their token buckets, so
        // `--metrics-out` exports carry it.
        hub.registry().set(
            "bucket_wait_us",
            obs::Class::Sim,
            scan.bucket_wait.as_micros() as i64,
        );
    }
    coverage.absorb(&scan.coverage);
    world.net.trace.set_enabled(true);

    let samples = world.samples.clone();
    let sp = obs.map(|h| h.span("analyze", world.net.now().as_micros()));
    let (reports, ids_malicious) = run_sandboxes(
        &mut world.net,
        &world.sandbox,
        &world.ids,
        &samples,
        &cfg.analyze,
    );
    let analysis = analyze(
        &mut classified,
        &world.intel,
        reports,
        ids_malicious,
        &world.payload_sigs,
        &cfg.analyze,
    );
    if let Some((s, h)) = sp.zip(obs) {
        s.finish(h, world.net.now().as_micros());
    }
    // One fold over the final verdicts: analysis promoted Unknown to
    // Malicious and filled TXT addresses from sibling A records.
    let sp = obs.map(|h| h.span("report", world.net.now().as_micros()));
    let fold = RunFold::of(&classified);
    if let Some(hub) = obs {
        fold.publish(hub.registry());
    }
    let (mut report, sequence_hash) = fold.finish();
    report.coverage = coverage.clone();
    report.set_figure3(&analysis, &world.intel);
    if let Some((s, h)) = sp.zip(obs) {
        s.finish(h, world.net.now().as_micros());
    }
    if let Some(hub) = obs {
        // The world fabric's own traffic (support sweep, sandboxes); the
        // shard traffic it absorbed was published by the scan's merge.
        let own = world.net.stats() - net_before - scan.stats;
        simnet::FabricMetrics::publish(hub.registry(), own);
    }

    RunOutput {
        nameservers,
        classified,
        analysis,
        report,
        sequence_hash,
        correct_db,
        protective_db,
        coverage,
        scan_elapsed: scan.elapsed,
        bucket_wait: scan.bucket_wait,
    }
}

/// What a streamed paper-scale run produces: aggregate accounting only —
/// classified URs are folded into the report and the sequence digest on
/// the worker that scanned them, never retained.
#[derive(Debug, Clone)]
pub struct StreamRunOutput {
    /// Selected nameservers scanned.
    pub nameserver_count: usize,
    /// Scan targets probed.
    pub target_count: usize,
    /// Total URs classified.
    pub total_urs: u64,
    /// URs explained by correct records.
    pub correct: u64,
    /// Provider protective answers.
    pub protective: u64,
    /// Suspicious but unconfirmed URs.
    pub unknown: u64,
    /// URs tied to confirmed-malicious addresses (the streamed path runs
    /// no analysis stage, so this stays zero today).
    pub malicious: u64,
    /// Probe accounting across every shard engine.
    pub coverage: CoverageReport,
    /// Summed simulated scan time across shards.
    pub elapsed: SimDuration,
    /// Digest of the full classified sequence, each UR at its position in
    /// the run.
    pub sequence_hash: u64,
    /// How many world shards ran.
    pub shards: usize,
    /// How many scan worker threads ran (never affects any other field).
    pub workers: usize,
    /// Simulated time the shard schedulers spent blocked on pacing buckets.
    pub bucket_wait: SimDuration,
    /// The fold's report: totals, Table 1 (its malicious columns zero),
    /// Figure 2 and the coverage. Figure 3's panels are empty: the streamed
    /// path has no analysis stage.
    pub report: Report,
}

/// Run the streamed paper-scale pipeline against a plan-backed world:
/// [`run`]'s bulk scan over `world_shards` scoped shards, claimed by
/// [`HunterConfig::workers`] worker threads, every UR classified on the
/// worker that scanned it while its reply is read and folded there into
/// its shard's own `RunFold`, and the shard folds merged into the
/// [`StreamRunOutput`] aggregates on the calling thread as the shards end
/// (the merge commutes). Peak memory is `workers` shards' zone tables and
/// orders (4 bytes for each of a shard's targets × query types, and one
/// cursor a nameserver) plus the shard folds, each its shard's distinct
/// suspicious entities and provider tally: it grows with a shard's share
/// of the world, not with the world.
///
/// Deterministic in `(world, cfg, world_shards)` — a UR's position is its
/// shard and its index in that shard's computed order, so
/// `world_shards` is part of a run's identity, as the
/// fixed [`SCAN_SHARDS`](crate::SCAN_SHARDS) layout is of [`run`]'s. The
/// worker count is **not** part of the identity: every field of the
/// output, including `sequence_hash` and the deterministic metrics
/// snapshot, is bit-identical for every `workers` value (pinned by
/// `tests/invariance.rs`).
pub fn run_streamed(
    world: &worldgen::StreamWorld,
    cfg: &HunterConfig,
    world_shards: usize,
) -> StreamRunOutput {
    let nameservers: Vec<NsInfo> = world
        .nameservers
        .iter()
        .filter(|ns| ns.tail_hosted_sites >= cfg.collect.min_tail_sites)
        .cloned()
        .collect();
    let targets = world.scan_targets();
    let correct_db = crate::collect::correct_db_from_stream(world);
    let protective_db = crate::collect::protective_db_from_stream(world);
    let classify_cfg = cfg.classify_cfg(world.config.today);
    let blueprint = world.scan_blueprint();
    let streamer = StreamClassifier::new(
        &correct_db,
        &protective_db,
        &world.db,
        &world.pdns,
        &classify_cfg,
    );
    let mut fold = RunFold::default();
    let workers = par::Parallelism::from_knob(cfg.workers)
        .get()
        .min(world_shards.max(1));
    // Runs on whichever worker scanned the UR's shard, while its reply is
    // read: each verdict reads one UR and the read-only databases, so no
    // verdict depends on the thread that computed it. The shard's fold
    // keeps no UR, and the worker's address buffer is reused UR to UR.
    let absorb = |(shard, ips): &mut (RunFold, Vec<std::net::Ipv4Addr>),
                  ur: CollectedUr<RDataSetRef<'_>>| {
        let verdict = streamer.decide(&ur, ips);
        shard.absorb(&ur, verdict, ips);
    };
    let scheduler = QueryScheduler::new(cfg.scheduler_seed, cfg.per_server_interval)
        .with_global_interval(cfg.rate_limit_interval);
    let outcome = collect_urs_streamed(
        &blueprint,
        cfg.retry,
        cfg.scan_faults.unwrap_or_default(),
        cfg.obs.clone(),
        &world.registry,
        &nameservers,
        &targets,
        &cfg.collect,
        &scheduler,
        world_shards,
        workers,
        &absorb,
        || {},
        &mut |_, (shard, _)| fold = std::mem::take(&mut fold).merge(shard),
    );
    if let Some(hub) = &cfg.obs {
        fold.publish(hub.registry());
    }
    let (mut report, sequence_hash) = fold.finish();
    report.coverage = outcome.coverage.clone();
    let t = report.totals;
    StreamRunOutput {
        nameserver_count: nameservers.len(),
        target_count: targets.len(),
        total_urs: t.total as u64,
        correct: t.correct as u64,
        protective: t.protective as u64,
        unknown: t.unknown as u64,
        malicious: t.malicious as u64,
        coverage: outcome.coverage,
        elapsed: outcome.elapsed,
        sequence_hash,
        shards: outcome.shards,
        workers,
        bucket_wait: outcome.bucket_wait,
        report,
    }
}

/// §4.2's false-negative evaluation: feed the *delegated* records of every
/// target through the same exclusion logic; none may come out suspicious.
/// Returns the suspicious count (the paper reports zero).
pub fn evaluate_false_negatives(
    world: &mut World,
    correct_db: &CorrectDb,
    protective_db: &ProtectiveDb,
    cfg: &HunterConfig,
) -> usize {
    let types = distinct_query_types(&cfg.collect);
    let classify_cfg = cfg.classify_cfg(world.config.today);
    let targets: Vec<dnswire::Name> = world.tranco.domains().to_vec();
    let mut delegated_inputs: Vec<CollectedUr> = Vec::new();
    // The replay crosses the same hostile network as the bulk scan: same
    // fault plan, same retry policy, restored afterwards.
    let pre_scan_faults = world.net.faults();
    if let Some(faults) = cfg.scan_faults {
        world.net.set_faults(faults);
    }
    let net_before = world.net.stats();
    let mut engine = ProbeEngine::new(cfg.retry);
    if let Some(hub) = &cfg.obs {
        engine = engine.with_obs(hub.clone());
    }
    let provider = Sym::intern("delegated");
    for (ti, domain) in targets.iter().enumerate() {
        let Some(delegation) = world.registry.delegation_of(domain).map(|d| d.to_vec()) else {
            continue;
        };
        let key = InternedName::intern(domain);
        for (_, ns_ip) in delegation.iter().take(1) {
            for &rtype in types {
                // One probe a `(target, rtype)`: first delegated server ×
                // distinct types.
                let qid = QidGen::of(ti as u64, rtype);
                // Same probe + assembly path as the bulk scan, so the
                // evaluation exercises the exact production logic.
                let index = delegated_inputs.len() as u32;
                query_one_ur(
                    &mut world.net,
                    &mut engine,
                    cfg.collect.scanner_ip,
                    (*ns_ip, None),
                    (domain, key),
                    rtype,
                    qid,
                    provider,
                    // Each kept UR at its index in the list.
                    (0, index),
                    |ur| delegated_inputs.push(ur.to_kept()),
                );
            }
        }
    }
    world.net.set_faults(pre_scan_faults);
    if let Some(hub) = &cfg.obs {
        // Same families as the bulk scan: the replay's probes and
        // datagrams add to the run's totals.
        publish_probes(hub.registry(), &engine.coverage, &engine.tally);
        simnet::FabricMetrics::publish(hub.registry(), world.net.stats() - net_before);
    }
    assert!(
        !delegated_inputs.is_empty(),
        "false-negative evaluation needs delegated records as input"
    );
    StreamClassifier::new(
        correct_db,
        protective_db,
        &world.db,
        &world.pdns,
        &classify_cfg,
    )
    .classify_batch_owned(delegated_inputs)
    .iter()
    .filter(|c| matches!(c.category, UrCategory::Unknown | UrCategory::Malicious))
    .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::{DetectionClass, WorldConfig};

    #[test]
    fn full_pipeline_on_small_world() {
        let mut world = World::generate(WorldConfig::small());
        let out = run(&mut world, &HunterConfig::fast());

        // Every category is represented.
        let t = out.report.totals;
        assert!(t.total > 0, "no URs collected");
        assert!(
            t.correct > 0,
            "no correct URs (CDN/past-delegation/oracle expected)"
        );
        assert!(t.protective > 0, "no protective URs (ClouDNS expected)");
        assert!(t.unknown > 0, "no unknown URs");
        assert!(t.malicious > 0, "no malicious URs");

        // Detectable case-study campaigns must surface as malicious.
        let dark = &world.truth.campaigns[world.truth.case_studies["dark_iot_gitlab"]];
        let found = out
            .classified
            .iter()
            .any(|c| c.ur.key.domain == dark.domain && c.category == UrCategory::Malicious);
        assert!(found, "Dark.IoT UR not classified malicious");

        // Specter (IDS-only) must also surface, with IdsOnly evidence.
        let specter = &world.truth.campaigns[world.truth.case_studies["specter_ibm"]];
        let c2 = specter.c2_ips[0];
        assert!(out.analysis.is_malicious(c2));
        assert_eq!(
            out.analysis.evidence.get(&c2),
            Some(&crate::types::MaliciousEvidence::IdsOnly)
        );
    }

    #[test]
    fn undetected_campaigns_stay_unknown() {
        let mut world = World::generate(WorldConfig::small());
        let out = run(&mut world, &HunterConfig::fast());
        let campaigns = world.truth.campaigns.iter();
        let undetected = campaigns.filter(|c| c.detection == DetectionClass::Undetected);
        for &ip in undetected.flat_map(|c| &c.c2_ips) {
            assert!(
                !out.analysis.is_malicious(ip),
                "undetected C2 {ip} wrongly marked malicious"
            );
        }
    }

    #[test]
    fn zero_false_negatives_on_delegated_records() {
        let mut world = World::generate(WorldConfig::small());
        let cfg = HunterConfig::fast();
        let out = run(&mut world, &cfg);
        let fn_count =
            evaluate_false_negatives(&mut world, &out.correct_db, &out.protective_db, &cfg);
        assert_eq!(fn_count, 0, "delegated records must never be suspicious");
    }

    #[test]
    fn streamed_run_is_deterministic_and_covers_categories() {
        let tiny = || {
            let mut cfg = WorldConfig::xl();
            cfg.top_domains = 50;
            cfg.synthetic_providers = 8;
            cfg.attack_campaigns = 200;
            // Room for the named fleets at their own sizes: a global-fixed
            // fleet past its four delegated servers serves correct URs.
            cfg.total_nameservers = Some(160);
            cfg
        };
        let run_once = |shards: usize| {
            let world = worldgen::StreamWorld::generate(tiny());
            run_streamed(&world, &HunterConfig::fast(), shards)
        };
        let a = run_once(4);
        let b = run_once(4);
        assert_eq!(a.total_urs, b.total_urs);
        assert_eq!(a.sequence_hash, b.sequence_hash);
        assert_eq!(a.coverage.scheduled, b.coverage.scheduled);
        assert!(a.total_urs > 0, "streamed scan found no URs");
        assert!(a.correct > 0, "no correct URs (legit zones expected)");
        assert!(a.protective > 0, "no protective URs");
        assert!(a.unknown > 0, "no unknown URs (campaigns expected)");
        assert_eq!(
            a.total_urs,
            a.correct + a.protective + a.unknown + a.malicious
        );
        assert_eq!(a.shards, 4);
        // A different world-shard count gives every UR a different (still
        // deterministic) position, over the same UR population.
        let c = run_once(2);
        assert_eq!(c.total_urs, a.total_urs);
        assert_eq!(
            (c.correct, c.protective, c.unknown),
            (a.correct, a.protective, a.unknown)
        );
    }
}
