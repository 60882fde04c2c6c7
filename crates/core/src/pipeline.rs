//! The URHunter pipeline: collection → suspicious determination →
//! malicious-behaviour analysis → report.

use crate::analyze::{analyze, run_sandboxes, Analysis, AnalyzeConfig};
use crate::classify::{classify_shard, AttrCacheMetrics, ClassifyConfig, StreamClassifier};
use crate::collect::{
    collect_correct, collect_protective, collect_urs_sharded_on, query_one_ur, select_nameservers,
    CollectConfig, QidGen,
};
use crate::query::{CoverageReport, ProbeEngine, QueryPlan};
use crate::report::{build_report, Report};
use crate::schedule::QueryScheduler;
use crate::store::UrStore;
use crate::types::{ClassifiedUr, CollectedUr, CorrectDb, ProtectiveDb, UrCategory};
use dnswire::RecordType;
use simnet::{FaultPlan, SimDuration};
use std::sync::Arc;
use worldgen::{NsInfo, World};

/// How many URs are classified at a time: the batch-view size when [`run`]
/// drains the columnar [`UrStore`] into the classifier, and the batch a
/// [`run_streamed`] worker fills before classifying it. Output is identical
/// for any value; this only bounds how many URs are materialized at once.
const STORE_CLASSIFY_BATCH: usize = 4096;

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
    /// Recover legitimate subdomains from passive DNS and add them to the
    /// target list (§6 future work).
    pub expand_targets_from_pdns: bool,
    /// Independent fabric shards for the bulk scan of [`run`]. The
    /// selected nameservers are split into `shards` contiguous ranges, each
    /// scanned on its own replica fabric. Output is bit-identical for every
    /// value (pinned by `tests/sharding.rs`). Clamped to 1 under ethics
    /// pacing or a rate cap, where the elapsed-time bookkeeping is only
    /// meaningful on one clock. ([`run_streamed`] takes its world-shard
    /// count as an argument: there it is part of the run's identity.)
    pub shards: usize,
    /// Scan worker threads: workers claim shards (at most one each, so
    /// `min(shards, workers)` run; one worker scans on the calling thread).
    /// Nothing else is threaded: [`run`] classifies, analyzes and reports
    /// on the calling thread, and in [`run_streamed`] a worker classifies
    /// the batches it scanned. `0` is automatic (available parallelism,
    /// `URHUNTER_PARALLELISM` override), `1` is sequential, `n` fixed.
    /// Output is bit-identical for every value (pinned by
    /// `tests/sharding.rs` and `tests/streamed_parallel.rs`); only
    /// wall-clock time and peak RSS (bounded by `workers` resident shard
    /// fabrics) change.
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
    /// Global scan rate cap: minimum spacing between *any* two bulk-scan
    /// probes, regardless of server (`ZERO` = uncapped). Enforced by a
    /// token bucket on the virtual clock. In the materialized pipeline it
    /// forces the scan onto one shard, like ethics pacing, because the
    /// materialized order is shard-count invariant only on one clock; the
    /// streamed path threads one [`crate::SharedTokenBucket`] through
    /// every shard scheduler, metering the concatenated shard timeline, so
    /// it composes with any `world_shards` / [`HunterConfig::workers`]
    /// setting.
    pub rate_limit_interval: SimDuration,
    /// Observability hub (see `crates/obs`): when set, every layer mirrors
    /// its accounting into the hub's registry and event sink — fabric
    /// datagram counters, the probe-funnel, classification verdicts and
    /// stage spans. `None` (the default) makes every
    /// instrumentation site a single branch: no atomics touched, no clocks
    /// read.
    pub obs: Option<Arc<obs::Obs>>,
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
            expand_targets_from_pdns: false,
            shards: 1,
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

    /// The MX extension (§6 future work): probe MX records alongside A and
    /// TXT, with exchange-address follow-ups.
    pub fn extended() -> Self {
        let mut cfg = HunterConfig::fast();
        cfg.collect.query_types = vec![RecordType::A, RecordType::Txt, RecordType::Mx];
        cfg
    }

    /// Enable passive-DNS target expansion on top of this config.
    pub fn with_pdns_expansion(mut self) -> Self {
        self.expand_targets_from_pdns = true;
        self
    }

    /// Enable TXT payload-signature matching on top of this config.
    pub fn with_payload_matching(mut self) -> Self {
        self.analyze.match_txt_payloads = true;
        self
    }

    /// Set the collection shard count (see [`HunterConfig::shards`];
    /// `0` and `1` both mean unsharded).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
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
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
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

    /// Enable RTT-derived per-server timeouts and RTT-ordered nameserver
    /// selection for every collection-stage probe (the `--adaptive` flag).
    pub fn with_adaptive(mut self) -> Self {
        self.retry = self.retry.adaptive();
        self
    }

    /// Set the RTTVAR multiplier of the derived timeout (the `--rtt-k`
    /// flag; only meaningful together with [`HunterConfig::with_adaptive`]).
    pub fn with_rtt_k(mut self, k: u32) -> Self {
        self.retry = self.retry.rtt_k(k);
        self
    }

    /// Cap the whole scan at `per_sec` probes per simulated second (the
    /// `--rate-limit` flag; see [`HunterConfig::rate_limit_interval`]).
    /// `0` turns the cap off; a rate above one probe per microsecond — the
    /// virtual clock's resolution — is held to that, since a zero interval
    /// would mean "uncapped".
    pub fn with_rate_limit_per_sec(mut self, per_sec: u64) -> Self {
        self.rate_limit_interval = match 1_000_000u64.checked_div(per_sec) {
            Some(us) => SimDuration::from_micros(us.max(1)),
            None => SimDuration::ZERO,
        };
        self
    }

    /// Attach an observability hub (see [`HunterConfig::obs`]).
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
    /// Simulated time the scan's schedulers spent blocked on pacing
    /// buckets (per-server interval plus global rate cap).
    pub bucket_wait: SimDuration,
}

/// Run the full URHunter pipeline against a world.
pub fn run(world: &mut World, cfg: &HunterConfig) -> RunOutput {
    let nameservers = select_nameservers(world, cfg.collect.min_tail_sites);
    let mut targets = world.scan_targets();
    if cfg.expand_targets_from_pdns {
        // §6 future work: legitimate subdomains recovered from passive DNS
        // become additional scan targets, catching subdomain URs (e.g. an
        // attacker hosting `mail.<popular>` where a real `mail.<popular>`
        // exists).
        let mut expanded = Vec::new();
        for apex in world.tranco.domains() {
            expanded.extend(world.pdns.subdomains_of(
                apex,
                world.config.today,
                cfg.classify.pdns_window,
            ));
        }
        let existing: std::collections::HashSet<_> = targets.iter().cloned().collect();
        for name in expanded {
            if !existing.contains(&name) {
                targets.push(name);
            }
        }
    }

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
    // Observability: the fabric mirrors its datagram accounting into the
    // hub (or stops, when this run carries none), and the probe engine
    // banks its retry funnel there.
    let obs = cfg.obs.as_deref();
    world.net.set_obs(
        cfg.obs
            .as_ref()
            .map(|h| simnet::FabricMetrics::register(h.registry())),
    );
    let mut engine = ProbeEngine::new(cfg.retry);
    if let Some(hub) = &cfg.obs {
        engine = engine.with_obs(hub.clone());
    }
    let sp = obs.map(|h| h.span("collect_support", world.net.now().as_micros()));
    let protective_db = collect_protective(&mut world.net, &mut engine, &nameservers, &cfg.collect);
    let correct_db = collect_correct(
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

    let mut scheduler = QueryScheduler::new(cfg.scheduler_seed, cfg.per_server_interval)
        .with_global_interval(cfg.rate_limit_interval);
    let classify_cfg = cfg.classify_cfg(world.config.today);
    // Under ethics pacing the paper's single scanner interleaves probes
    // across servers on one clock; sharding would make total elapsed time
    // depend on the shard layout, so pacing runs unsharded. A global rate
    // cap is one clock's budget for the same reason.
    let shards = if cfg.per_server_interval == SimDuration::ZERO
        && cfg.rate_limit_interval == SimDuration::ZERO
    {
        cfg.shards.max(1)
    } else {
        1
    };
    // The bulk scan runs on shard replica fabrics built from this snapshot
    // (even at `shards = 1`, so the scan baseline doesn't depend on the
    // knob): same fault seed and latency, per-shard RNG streams.
    let blueprint = world.scan_blueprint();
    let scan_faults = world.net.faults();
    // The scan output accumulates in the columnar store (4-byte interned
    // domains and providers, one shared record arena) instead of a
    // `Vec<CollectedUr>`, then the classifier is fed materialized batch
    // views in splice order.
    let sp = obs.map(|h| h.span("collect", world.net.now().as_micros()));
    let mut store = UrStore::new();
    let scan = collect_urs_sharded_on(
        &blueprint,
        cfg.retry,
        scan_faults,
        cfg.obs.clone(),
        &world.registry,
        &nameservers,
        &targets,
        &cfg.collect,
        &mut scheduler,
        shards,
        par::Parallelism::from_knob(cfg.workers).get(),
        usize::MAX,
        &mut |batch| store.extend(batch),
    );
    // The world clock advances by the shards' summed scan time and the
    // fabric inherits their traffic accounting, exactly as if the scan had
    // run here.
    world.net.run_until(world.net.now() + scan.elapsed);
    world.net.absorb_stats(scan.stats);
    if let Some((s, h)) = sp.zip(obs) {
        s.finish(h, world.net.now().as_micros());
    }
    let sp = obs.map(|h| h.span("classify", world.net.now().as_micros()));
    let mut streamer = StreamClassifier::new(
        &correct_db,
        &protective_db,
        &world.db,
        &world.pdns,
        &classify_cfg,
    );
    if let Some(hub) = obs {
        streamer = streamer.with_metrics(AttrCacheMetrics::register(hub.registry()));
    }
    let mut classified = Vec::with_capacity(store.len());
    for batch in store.into_batches(STORE_CLASSIFY_BATCH) {
        classified.extend(streamer.classify_batch_owned(batch));
    }
    if let Some(hub) = obs {
        hub.registry()
            .merge_shard(obs::Class::Sim, &classify_shard(&classified));
    }
    if let Some((s, h)) = sp.zip(obs) {
        // Classification never touches the simulated network, so the sim
        // delta is exactly zero.
        s.finish(h, world.net.now().as_micros());
    }
    // Collection is done: restore the fabric's fault plan before the local
    // sandbox/IDS phase, and bank the probe accounting: the main engine's
    // support-stage funnel plus the shard engines' bulk-scan funnel.
    world.net.set_faults(pre_scan_faults);
    let mut coverage = engine.take_coverage();
    coverage.absorb(&scan.coverage);
    // Pacing accounting: the summed simulated time the shard schedulers
    // spent blocked on their token buckets, mirrored into the registry so
    // `--metrics-out` exports carry it.
    if let Some(hub) = obs {
        hub.registry()
            .gauge("bucket_wait_us", obs::Class::Sim)
            .set(scan.bucket_wait.as_micros() as i64);
    }
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
    let sp = obs.map(|h| h.span("report", world.net.now().as_micros()));
    let mut report = build_report(&classified, &analysis, &world.intel);
    report.coverage = coverage.clone();
    if let Some((s, h)) = sp.zip(obs) {
        s.finish(h, world.net.now().as_micros());
    }

    RunOutput {
        nameservers,
        classified,
        analysis,
        report,
        correct_db,
        protective_db,
        coverage,
        scan_elapsed: scan.elapsed,
        bucket_wait: scan.bucket_wait,
    }
}

/// Incremental order-sensitive digest of a classified sequence: every UR's
/// identity triple and final category feed the hash in absorb order, so two
/// runs agree iff they produced the same URs, in the same order, with the
/// same categories. The fold form lets the streamed paper-scale path digest
/// millions of URs without retaining them;
/// [`classified_sequence_hash`] is the slice convenience over it.
#[derive(Debug, Default)]
pub struct SequenceHasher {
    // DefaultHasher with fixed (default) keys: stable within a test binary,
    // which is all the equivalence assertions need.
    h: std::collections::hash_map::DefaultHasher,
}

impl SequenceHasher {
    /// A fresh digest.
    pub fn new() -> Self {
        SequenceHasher::default()
    }

    /// Fold one classified UR into the digest.
    pub fn absorb(&mut self, c: &ClassifiedUr) {
        use std::hash::Hash;
        c.ur.key.ns_ip.hash(&mut self.h);
        c.ur.key.domain.hash(&mut self.h);
        c.ur.key.rtype.code().hash(&mut self.h);
        (c.category as u8).hash(&mut self.h);
        c.correct_reason.map(|r| r as u8).hash(&mut self.h);
        c.corresponding_ips.hash(&mut self.h);
    }

    /// The digest of everything absorbed so far.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        self.h.finish()
    }
}

/// Order-sensitive digest of a classified sequence (see
/// [`SequenceHasher`]): two runs (at any shard and worker counts) agree
/// iff they produced the same URs, in the same order, with the same
/// categories.
pub fn classified_sequence_hash(classified: &[ClassifiedUr]) -> u64 {
    let mut h = SequenceHasher::new();
    for c in classified {
        h.absorb(c);
    }
    h.digest()
}

/// What a streamed paper-scale run produces: aggregate accounting only —
/// classified URs are folded into counters and the sequence digest as they
/// stream out of the scan, never retained.
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
    /// Order-sensitive digest of the full classified sequence.
    pub sequence_hash: u64,
    /// How many world shards ran.
    pub shards: usize,
    /// How many scan worker threads ran (never affects any other field).
    pub workers: usize,
    /// Simulated time the shard schedulers spent blocked on pacing buckets.
    pub bucket_wait: SimDuration,
}

/// Run the streamed paper-scale pipeline against a plan-backed world:
/// scoped scan shards claimed by [`HunterConfig::workers`] worker
/// threads ([`crate::collect::collect_urs_streamed`]), every UR classified
/// on the worker that scanned it the moment its batch fills, and the
/// classified batches folded into the [`StreamRunOutput`] aggregates on
/// the calling thread in canonical shard-major order. Peak memory is
/// `workers` shards' zone tables plus the in-flight classification
/// batches, independent of world size.
///
/// Deterministic in `(world, cfg, world_shards)` — the canonical order is
/// shard-major, so `world_shards` is part of a run's identity (unlike the
/// materialized pipeline, whose output is shard-count invariant). The
/// worker count is **not** part of the identity: every field of the
/// output, including `sequence_hash` and the deterministic metrics
/// snapshot, is bit-identical for every `workers` value (pinned by
/// `tests/streamed_parallel.rs`).
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
    let mut streamer = StreamClassifier::new(
        &correct_db,
        &protective_db,
        &world.db,
        &world.pdns,
        &classify_cfg,
    );
    if let Some(hub) = &cfg.obs {
        streamer = streamer.with_metrics(AttrCacheMetrics::register(hub.registry()));
    }
    let mut seq = SequenceHasher::new();
    let mut total = 0u64;
    let mut by_category = [0u64; 4];
    let workers = par::Parallelism::from_knob(cfg.workers)
        .get()
        .min(world_shards.max(1));
    // Runs on whichever worker scanned the batch's shard: the shared
    // classifier's attribute cache is pure (PR 2's invariant), so verdicts
    // never depend on which thread resolved an attribute first. The
    // verdict funnel is sharded per batch and merged by the fold below in
    // splice order — counters only, so the sums are order-free too.
    let shard_funnel = cfg.obs.is_some();
    let classify_batch = |urs: Vec<CollectedUr>| {
        let cls = streamer.classify_batch_owned(urs);
        let funnel = shard_funnel.then(|| classify_shard(&cls));
        (cls, funnel)
    };
    let outcome = crate::collect::collect_urs_streamed(
        &blueprint,
        cfg.retry,
        cfg.scan_faults.unwrap_or_default(),
        cfg.obs.clone(),
        &world.registry,
        &nameservers,
        &targets,
        &cfg.collect,
        cfg.scheduler_seed,
        cfg.per_server_interval,
        cfg.rate_limit_interval,
        world_shards,
        workers,
        STORE_CLASSIFY_BATCH,
        &classify_batch,
        &mut |(cls, funnel): (Vec<ClassifiedUr>, Option<obs::MetricShard>)| {
            if let (Some(shard), Some(hub)) = (funnel, &cfg.obs) {
                hub.registry().merge_shard(obs::Class::Sim, &shard);
            }
            for c in cls {
                seq.absorb(&c);
                total += 1;
                by_category[match c.category {
                    UrCategory::Malicious => 0,
                    UrCategory::Correct => 1,
                    UrCategory::Protective => 2,
                    UrCategory::Unknown => 3,
                }] += 1;
            }
        },
    );
    StreamRunOutput {
        nameserver_count: nameservers.len(),
        target_count: targets.len(),
        total_urs: total,
        malicious: by_category[0],
        correct: by_category[1],
        protective: by_category[2],
        unknown: by_category[3],
        coverage: outcome.coverage,
        elapsed: outcome.elapsed,
        sequence_hash: seq.digest(),
        shards: outcome.shards,
        workers,
        bucket_wait: outcome.bucket_wait,
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
    let classify_cfg = cfg.classify_cfg(world.config.today);
    let targets: Vec<dnswire::Name> = world.tranco.domains().to_vec();
    let mut delegated_inputs: Vec<CollectedUr> = Vec::new();
    // The replay crosses the same hostile network as the bulk scan: same
    // fault plan, same retry policy, restored afterwards.
    let pre_scan_faults = world.net.faults();
    if let Some(faults) = cfg.scan_faults {
        world.net.set_faults(faults);
    }
    let mut engine = ProbeEngine::new(cfg.retry);
    if let Some(hub) = &cfg.obs {
        // Same funnel as the bulk scan: the replay's probes land in the
        // same registry cells (registration is idempotent).
        engine = engine.with_obs(hub.clone());
    }
    for (ti, domain) in targets.iter().enumerate() {
        let Some(delegation) = world.registry.delegation_of(domain).map(|d| d.to_vec()) else {
            continue;
        };
        for (_, ns_ip) in delegation.iter().take(1) {
            for &rtype in &cfg.collect.query_types {
                // Each `(target, rtype)` stream is drawn exactly once here
                // (first delegated server × distinct types): its first id.
                let qid = QidGen::nth(ti as u64, rtype, 0);
                // Same probe + assembly path as the bulk scan, so the
                // evaluation exercises the exact production logic.
                if let Some(ur) = query_one_ur(
                    &mut world.net,
                    &mut engine,
                    cfg.collect.scanner_ip,
                    *ns_ip,
                    domain,
                    rtype,
                    qid,
                    "delegated",
                ) {
                    delegated_inputs.push(ur);
                }
            }
        }
    }
    world.net.set_faults(pre_scan_faults);
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
        let undetected = world.truth.c2_ips_of(DetectionClass::Undetected);
        for ip in undetected {
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
    fn pipeline_is_deterministic() {
        // Hash the complete per-UR classified sequence, not just coarse
        // totals — a reordering or category flip anywhere must show up.
        let run_once = || {
            let mut world = World::generate(WorldConfig::small());
            let out = run(&mut world, &HunterConfig::fast());
            (
                out.report.totals,
                out.classified.len(),
                out.analysis.evidence.len(),
                classified_sequence_hash(&out.classified),
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn streamed_run_is_deterministic_and_covers_categories() {
        let tiny = || {
            let mut cfg = WorldConfig::xl();
            cfg.top_domains = 50;
            cfg.synthetic_providers = 8;
            cfg.attack_campaigns = 200;
            cfg.total_nameservers = Some(32);
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
        // Shard-major order: a different world-shard count is a different
        // (still deterministic) canonical order, same UR population.
        let c = run_once(2);
        assert_eq!(c.total_urs, a.total_urs);
        assert_eq!(
            (c.correct, c.protective, c.unknown),
            (a.correct, a.protective, a.unknown)
        );
    }

    #[test]
    fn a_rate_limit_above_the_clock_resolution_is_still_a_limit() {
        let interval = |n| {
            HunterConfig::fast()
                .with_rate_limit_per_sec(n)
                .rate_limit_interval
        };
        assert_eq!(interval(0), SimDuration::ZERO, "0 stays off");
        assert_eq!(interval(2), SimDuration::from_micros(500_000));
        for n in [1_000_000, 1_000_001, u64::MAX] {
            assert_eq!(interval(n), SimDuration::from_micros(1), "--rate-limit {n}");
        }
    }

    #[test]
    fn ethics_pacing_produces_same_classification() {
        let mut w1 = World::generate(WorldConfig::small());
        let fast = run(&mut w1, &HunterConfig::fast());
        let mut w2 = World::generate(WorldConfig::small());
        let paced = run(&mut w2, &HunterConfig::paper_faithful());
        assert_eq!(fast.report.totals, paced.report.totals);
        // pacing must actually advance simulated time substantially
        assert!(w2.net.now() > w1.net.now());
    }
}
