//! Response collection (paper §4.1): undelegated records from targeted
//! nameservers, correct records from open resolvers and passive DNS, and
//! protective records from canary probes.

use crate::query::{NsHealth, ProbeEngine};
use crate::schedule::QueryScheduler;
use crate::types::{CollectedUr, CorrectDb, DomainProfile, ProtectiveDb, UrKey};
use dnswire::{Name, Rcode, RecordType};
use intern::{InternedName, Sym};
use simnet::Network;
use std::collections::{HashSet, VecDeque};
use std::net::Ipv4Addr;
use worldgen::{NsInfo, World};

/// Selection threshold: nameservers hosting at least this many top-1M
/// sites are targeted (paper: 50).
pub const NS_SELECTION_THRESHOLD: u32 = 50;

/// Collection configuration.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    /// Source address of the scanner.
    pub scanner_ip: Ipv4Addr,
    /// Minimum hosted-site count for nameserver selection.
    pub min_tail_sites: u32,
    /// How many stable open resolvers to consult per domain.
    pub resolvers_per_domain: usize,
    /// Record types probed (paper: A and TXT).
    pub query_types: Vec<RecordType>,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            scanner_ip: Ipv4Addr::new(10, 0, 0, 2),
            min_tail_sites: NS_SELECTION_THRESHOLD,
            resolvers_per_domain: 5,
            query_types: vec![RecordType::A, RecordType::Txt],
        }
    }
}

/// Select target nameservers: those whose provider hosts at least
/// `min_tail_sites` top-1M domains (paper: 8,941 servers over 400+
/// providers survive this filter).
pub fn select_nameservers(world: &World, min_tail_sites: u32) -> Vec<NsInfo> {
    world
        .nameservers
        .iter()
        .filter(|ns| ns.tail_hosted_sites >= min_tail_sites)
        .cloned()
        .collect()
}

/// One UR probe: query `ns_ip` for `(domain, rtype)`, keep NOERROR
/// responses whose answer section carries records of exactly that name and
/// type, and assemble the [`CollectedUr`]. Shared by the bulk scan and the
/// §4.2 false-negative evaluation (which replays *delegated* records
/// through the identical path).
#[allow(clippy::too_many_arguments)]
pub(crate) fn query_one_ur(
    net: &mut Network,
    engine: &mut ProbeEngine,
    scanner_ip: Ipv4Addr,
    ns_ip: Ipv4Addr,
    domain: &Name,
    rtype: RecordType,
    qid: u16,
    provider: &str,
) -> Option<CollectedUr> {
    // Only the records that make the UR are copied out of the reply.
    let resp = engine.query_keeping(net, scanner_ip, ns_ip, domain, rtype, qid, |r| {
        r.rtype() == rtype && r.name.matches(domain.borrowed())
    })?;
    if resp.rcode() != Rcode::NoError || resp.answers.is_empty() {
        return None;
    }
    Some(CollectedUr {
        key: UrKey {
            ns_ip,
            domain: InternedName::intern(domain),
            rtype,
        },
        records: resp.answers,
        aux_records: Vec::new(),
        provider: Sym::intern(provider),
        authoritative: resp.flags.authoritative,
        recursion_available: resp.flags.recursion_available,
    })
}

/// Deterministic query ids for the bulk scan and the §4.2 false-negative
/// evaluation.
///
/// A single global counter (`qid.wrapping_add(1).max(1)`) reuses ids after
/// 65,535 probes *in total*, so on large worlds unrelated probes collide.
/// Ids here are drawn per probe stream: each stream walks the nonzero
/// 16-bit space from its own hash-derived offset, so an id repeats only
/// after 65,535 probes of the *same* stream. Every stream has exactly one
/// user, which counts its own draws — there is no generator state.
#[derive(Debug)]
pub struct QidGen;

impl QidGen {
    /// The `n`-th id (from 0) of a probe stream: never zero, never repeated
    /// within 65,535 consecutive draws of the stream. The bulk scan keys
    /// streams by `(nameserver, target)` (see [`scan_stream`]) so a probe's
    /// id depends only on its own stream's history — independent of how
    /// probes to *other* nameservers interleave, and therefore of the
    /// shard count.
    pub fn nth(stream: u64, rtype: RecordType, n: u32) -> u16 {
        let base = stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(rtype.code()).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        (((base as u32).wrapping_add(n) % 0xFFFF) + 1) as u16
    }
}

/// The qid stream for one `(nameserver, target)` scan pair. MX follow-ups
/// continue the same stream, so within a shard ids collide only after
/// 65,535 probes of one pair.
pub fn scan_stream(ni: usize, di: usize) -> u64 {
    ((ni as u64) << 32) | di as u64
}

/// The ids of one scan task, first probe then MX follow-ups. A
/// `(pair, rtype)` stream belongs to exactly one task, so the task counts
/// its own draws.
fn task_qids(ni: usize, di: usize, rtype: RecordType) -> impl FnMut() -> u16 {
    let mut drawn = 0u32;
    move || {
        let id = QidGen::nth(scan_stream(ni, di), rtype, drawn);
        drawn = drawn.wrapping_add(1);
        id
    }
}

/// The record types every scan pair is probed for. [`task_qids`] restarts
/// the count per task, which equals one stream per `(pair, rtype)` only
/// while no type is listed twice.
fn distinct_query_types(cfg: &CollectConfig) -> &[RecordType] {
    let types = &cfg.query_types;
    debug_assert!(
        types
            .iter()
            .enumerate()
            .all(|(i, t)| !types[..i].contains(t)),
        "query_types lists a type twice: two tasks would share a qid stream"
    );
    types
}

/// Per-target delegated-server sets, resolved once: which addresses each
/// target is exactly delegated to (delegation of an enclosing registered
/// suffix covers subdomain targets).
fn delegated_ip_sets(
    world_registry: &authdns::DelegationRegistry,
    targets: &[Name],
) -> Vec<HashSet<Ipv4Addr>> {
    targets
        .iter()
        .map(|domain| {
            world_registry
                .registered_suffix(domain)
                .and_then(|suffix| world_registry.delegation_of(&suffix))
                .map(|servers| servers.iter().map(|(_, ip)| *ip).collect())
                .unwrap_or_default()
        })
        .collect()
}

/// The unrandomized scan tasks of the nameservers in `range`: their cross
/// product with targets × record types, minus pairs where the domain is
/// exactly delegated to that server — its records there are authoritative,
/// not undelegated.
fn build_scan_tasks(
    delegated_ips: &[HashSet<Ipv4Addr>],
    nameservers: &[NsInfo],
    range: std::ops::Range<usize>,
    cfg: &CollectConfig,
) -> Vec<ScanTask> {
    // The cross product is an upper bound a few delegated pairs short of
    // exact: one allocation instead of a doubling series.
    let mut tasks: Vec<ScanTask> =
        Vec::with_capacity(range.len() * delegated_ips.len() * cfg.query_types.len());
    for ni in range {
        let ns_ip = nameservers[ni].ip;
        for (di, delegated) in delegated_ips.iter().enumerate() {
            if delegated.contains(&ns_ip) {
                continue;
            }
            for &rt in distinct_query_types(cfg) {
                tasks.push((ni, di, rt));
            }
        }
    }
    tasks
}

/// One scan task end to end: the UR probe plus MX follow-ups, drawing qids
/// from `next_qid`.
fn probe_task(
    net: &mut Network,
    engine: &mut ProbeEngine,
    mut next_qid: impl FnMut() -> u16,
    ns: &NsInfo,
    domain: &Name,
    rtype: RecordType,
    cfg: &CollectConfig,
) -> Option<CollectedUr> {
    let qid = next_qid();
    let mut ur = query_one_ur(
        net,
        engine,
        cfg.scanner_ip,
        ns.ip,
        domain,
        rtype,
        qid,
        &ns.provider,
    )?;
    // MX follow-up: resolve each exchange host's address at the same
    // nameserver, so the analysis has corresponding IPs to judge.
    if rtype == RecordType::Mx {
        let exchanges: Vec<dnswire::Name> = ur
            .records
            .iter()
            .filter_map(|r| match &r.rdata {
                dnswire::RData::Mx { exchange, .. } => Some(exchange.clone()),
                _ => None,
            })
            .collect();
        for exchange in exchanges {
            let qid = next_qid();
            let aux = engine.query_keeping(
                net,
                cfg.scanner_ip,
                ns.ip,
                &exchange,
                RecordType::A,
                qid,
                |r| r.rtype() == RecordType::A,
            );
            if let Some(aux) = aux.filter(|aux| aux.rcode() == Rcode::NoError) {
                ur.aux_records.extend(aux.answers);
            }
        }
    }
    Some(ur)
}

/// RTT-ordered task selection for adaptive scans.
///
/// Tasks are grouped into per-server FIFO queues (first-appearance order).
/// Selection proceeds in rounds: each round visits every server that still
/// has work, ordered by its current smoothed RTT — fastest first, with a
/// seeded hash as the tie-break — and takes one task from each queue.
/// Servers with no estimate yet sort first (their probe *is* the warm-up
/// measurement); servers that have been probed but never answered sort
/// last (they cost a full timeout each visit).
///
/// Two properties matter for determinism and the test battery:
/// * **Permutation** — every task is yielded exactly once; reordering
///   never drops or duplicates work.
/// * **Per-server FIFO** — tasks for one server keep their relative order,
///   so per-flow fault fates, per-pair qid streams and quarantine streaks
///   are untouched and the scan's output stays bit-identical to the
///   unordered schedule (see DESIGN.md §11).
#[derive(Debug)]
pub struct RttSelector<T> {
    seed: u64,
    queues: Vec<(Ipv4Addr, VecDeque<T>)>,
    /// Current round, as a reversed stack of `queues` indices.
    round: Vec<usize>,
    probed: Vec<bool>,
    remaining: usize,
}

impl<T> RttSelector<T> {
    /// Group `tasks` into per-server FIFO queues using `server_of`.
    pub fn new(seed: u64, tasks: Vec<T>, server_of: impl Fn(&T) -> Ipv4Addr) -> Self {
        let mut queues: Vec<(Ipv4Addr, VecDeque<T>)> = Vec::new();
        let mut slot: std::collections::HashMap<Ipv4Addr, usize> = std::collections::HashMap::new();
        let remaining = tasks.len();
        for task in tasks {
            let ip = server_of(&task);
            let idx = *slot.entry(ip).or_insert_with(|| {
                queues.push((ip, VecDeque::new()));
                queues.len() - 1
            });
            queues[idx].1.push_back(task);
        }
        let probed = vec![false; queues.len()];
        RttSelector {
            seed,
            queues,
            round: Vec::new(),
            probed,
            remaining,
        }
    }

    fn tie_break(seed: u64, ip: Ipv4Addr) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        seed.hash(&mut h);
        u32::from(ip).hash(&mut h);
        h.finish()
    }

    /// Yield the next task under the current RTT estimates in `health`.
    pub fn next(&mut self, health: &NsHealth) -> Option<T> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(si) = self.round.pop() {
                if let Some(task) = self.queues[si].1.pop_front() {
                    self.probed[si] = true;
                    self.remaining -= 1;
                    return Some(task);
                }
                // Queue drained during an earlier round; skip the slot.
                continue;
            }
            // Start a new round over every server that still has work,
            // fastest estimate first.
            let mut order: Vec<usize> = (0..self.queues.len())
                .filter(|&i| !self.queues[i].1.is_empty())
                .collect();
            order.sort_by_key(|&i| {
                let ip = self.queues[i].0;
                let key = match health.rtt_estimate(ip) {
                    Some(est) => est.srtt_us,
                    None if self.probed[i] => u64::MAX,
                    None => 0,
                };
                (key, Self::tie_break(self.seed, ip))
            });
            order.reverse(); // `round` is consumed by pop() from the back
            self.round = order;
        }
    }
}

/// How a scan walks its task list: the randomized FIFO order as-is, or
/// re-ordered by smoothed RTT when the plan is adaptive.
enum TaskFeed<T> {
    Fifo(std::vec::IntoIter<T>),
    Rtt(RttSelector<T>),
}

impl<T> TaskFeed<T> {
    fn new(adaptive: bool, seed: u64, tasks: Vec<T>, server_of: impl Fn(&T) -> Ipv4Addr) -> Self {
        if adaptive {
            TaskFeed::Rtt(RttSelector::new(seed, tasks, server_of))
        } else {
            TaskFeed::Fifo(tasks.into_iter())
        }
    }

    fn next(&mut self, health: &NsHealth) -> Option<T> {
        match self {
            TaskFeed::Fifo(it) => it.next(),
            TaskFeed::Rtt(sel) => sel.next(health),
        }
    }
}

/// One bulk-scan probe: (nameserver index, target index, record type).
pub type ScanTask = (usize, usize, RecordType);

/// A shard's slice of the materialized scan: tasks tagged with their
/// global index in the randomized order, so shard outputs can be sorted
/// back.
pub type ShardTasks = Vec<(usize, ScanTask)>;

/// Partition a randomized task list across `shards` contiguous nameserver
/// ranges (via [`par::chunk_ranges`]). Each shard's list keeps the global
/// randomized order, and every task is tagged with its global index so the
/// merge can splice shard outputs back into exactly the unsharded emission
/// order.
///
/// Partitioning by *nameserver* (not by task) is what makes shard output
/// invariant: every `(scanner, nameserver)` flow — probes, retries, MX
/// follow-ups, TCP fallbacks — lives wholly inside one shard, so per-flow
/// fault fates, per-server quarantine streaks and per-pair qid streams
/// never depend on the shard count.
pub fn partition_scan_tasks(tasks: &[ScanTask], ns_count: usize, shards: usize) -> Vec<ShardTasks> {
    let ranges = par::chunk_ranges(ns_count, shards);
    let mut shard_of = vec![0usize; ns_count];
    for (w, range) in ranges.iter().enumerate() {
        for ni in range.clone() {
            shard_of[ni] = w;
        }
    }
    let mut sizes = vec![0usize; ranges.len()];
    for task in tasks {
        sizes[shard_of[task.0]] += 1;
    }
    let mut parts: Vec<ShardTasks> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (gidx, task) in tasks.iter().enumerate() {
        parts[shard_of[task.0]].push((gidx, *task));
    }
    parts
}

/// What a bulk scan produced besides the URs streamed to the sink.
#[derive(Debug, Clone)]
pub struct ShardedScanOutcome {
    /// Summed probe accounting across every shard engine (quarantine lists
    /// merged in address order).
    pub coverage: crate::query::CoverageReport,
    /// Total simulated time the shards spent scanning — the amount the
    /// caller should advance the world clock by. At zero pacing interval
    /// per-task durations are start-time independent, so this sum equals
    /// the single-fabric elapsed time for every shard count.
    pub elapsed: simnet::SimDuration,
    /// Summed fabric counters across shard replicas, for
    /// [`simnet::Network::absorb_stats`].
    pub stats: simnet::NetStats,
    /// How many shards actually ran.
    pub shards: usize,
    /// Total simulated time the shard schedulers spent blocked on pacing
    /// buckets (per-server interval and global rate cap combined).
    pub bucket_wait: simnet::SimDuration,
}

/// A task as a shard's list carries it. The plan-backed order lists bare
/// [`ScanTask`]s; the materialized order tags each with its index in the
/// global shuffle, and the tag rides with the UR the task yields so the
/// caller can sort shard outputs back into that order.
trait ShardTask: Copy + Send {
    /// What the scan emits for a task of this kind that yields a UR.
    type Ur: Send;
    fn task(self) -> ScanTask;
    fn tag(self, ur: CollectedUr) -> Self::Ur;
}

impl ShardTask for ScanTask {
    type Ur = CollectedUr;
    fn task(self) -> ScanTask {
        self
    }
    fn tag(self, ur: CollectedUr) -> CollectedUr {
        ur
    }
}

impl ShardTask for (usize, ScanTask) {
    type Ur = (usize, CollectedUr);
    fn task(self) -> ScanTask {
        self.1
    }
    fn tag(self, ur: CollectedUr) -> (usize, CollectedUr) {
        (self.0, ur)
    }
}

/// A caller's batch size as a length limit: `0` means one unbounded batch.
fn batch_limit(batch_size: usize) -> usize {
    if batch_size == 0 {
        usize::MAX
    } else {
        batch_size
    }
}

/// What one shard reports back to the fold besides its batches.
type ShardSummary = (
    crate::query::CoverageReport,
    simnet::SimDuration,
    simnet::NetStats,
    u64,
);

/// The bulk scan — the only one in the tree.
///
/// The selected nameservers are split into `shards` contiguous ranges.
/// `workers` threads (clamped to the shard count; one worker scans on the
/// calling thread) each claim the next shard index, take its task list
/// from `shard_tasks` — already in probe order — build a replica fabric
/// for it ([`worldgen::ScanBlueprint::build_network_scoped`]: every node
/// on an eager blueprint, on a lazy one just the providers owning the
/// shard's addresses), scan it with their own [`ProbeEngine`] and task
/// feed, apply `transform` to each full batch **on the worker thread**,
/// and drop the fabric before claiming the next shard. Transformed batches
/// flow through [`par::sharded_ordered_fold`] to `sink` on the calling
/// thread in canonical **shard-major** order, and each shard's summary
/// (coverage, elapsed, fabric stats, bucket waits) is absorbed in shard
/// order — so for every `workers` value the output is bit-identical to a
/// `for shard in 0..shards` loop, and peak memory is bounded by `workers`
/// resident shard fabrics plus the in-flight batches.
///
/// Batches never span a shard boundary (the final partial batch of a
/// shard flushes when the shard ends); `batch_size` `0` or `usize::MAX`
/// hands a shard's URs over once, at shard end.
///
/// A non-zero `global_pacing` (`--rate-limit`) is enforced by a
/// [`SharedTokenBucket`](crate::schedule::SharedTokenBucket) metering the
/// scan-wide concatenated timeline: shard `s` may not admit until every
/// earlier shard finished, so rate-limited shard scans serialize (they are
/// throttle-bound by construction) while remaining bit-identical for any
/// worker count.
#[allow(clippy::too_many_arguments)]
fn scan<K: ShardTask, T: Send>(
    blueprint: &worldgen::ScanBlueprint,
    plan: crate::query::QueryPlan,
    faults: simnet::FaultPlan,
    obs: Option<std::sync::Arc<obs::Obs>>,
    nameservers: &[NsInfo],
    targets: &[Name],
    cfg: &CollectConfig,
    pacing: simnet::SimDuration,
    global_pacing: simnet::SimDuration,
    shards: usize,
    workers: usize,
    batch_size: usize,
    shard_tasks: &(dyn Fn(usize) -> Vec<K> + Sync),
    transform: &(dyn Fn(Vec<K::Ur>) -> T + Sync),
    sink: &mut dyn FnMut(T),
) -> ShardedScanOutcome {
    let ranges = par::chunk_ranges(nameservers.len(), shards.max(1));
    let batch_size = batch_limit(batch_size);
    let global = (global_pacing != simnet::SimDuration::ZERO)
        .then(|| crate::schedule::SharedTokenBucket::new(global_pacing));

    let scan_shard = |shard_idx: usize, emit: &mut dyn FnMut(T)| -> ShardSummary {
        let tasks = shard_tasks(shard_idx);
        // Pacing state is per shard; the order is the task list's.
        let mut sched = QueryScheduler::new(0, pacing);
        if let Some(g) = &global {
            sched = sched.with_shared_global(g.clone(), shard_idx);
        }
        let scope: Vec<Ipv4Addr> = ranges[shard_idx]
            .clone()
            .map(|ni| nameservers[ni].ip)
            .collect();
        let pool_before = dnswire::bufpool::stats();
        // `shard_idx` seeds the replica's general RNG stream; the per-flow
        // fault seed is the world's.
        let mut net = blueprint.build_network_scoped(shard_idx as u64, &scope);
        net.set_faults(faults);
        net.set_payload_recycler(Some(dnswire::bufpool::release));
        if let Some(hub) = &obs {
            net.set_obs(Some(simnet::FabricMetrics::register(hub.registry())));
        }
        let mut engine = ProbeEngine::new(plan);
        if let Some(hub) = &obs {
            engine = engine.with_obs(hub.clone());
        }
        let mut pending: Vec<K::Ur> = Vec::new();
        let mut feed = TaskFeed::new(plan.adaptive, plan.backoff_seed, tasks, |k| {
            nameservers[k.task().0].ip
        });
        while let Some(k) = feed.next(&engine.health) {
            let (ni, di, rtype) = k.task();
            let ns = &nameservers[ni];
            sched.admit(&mut net, ns.ip);
            if let Some(ur) = probe_task(
                &mut net,
                &mut engine,
                task_qids(ni, di, rtype),
                ns,
                &targets[di],
                rtype,
                cfg,
            ) {
                pending.push(k.tag(ur));
                if pending.len() >= batch_size {
                    emit(transform(std::mem::take(&mut pending)));
                }
            }
        }
        if !pending.is_empty() {
            emit(transform(pending));
        }
        // Elapsed is read before settling: stragglers (replies landing
        // after their probe's deadline) are flushed into the shard's stats
        // but don't extend the scan clock.
        let elapsed = net.now() - simnet::SimTime::ZERO;
        net.settle();
        if let Some(g) = &global {
            // Hand the global bucket to the next shard on the concatenated
            // timeline — exactly once per shard, even an empty one.
            g.finish_shard(shard_idx, elapsed);
        }
        if let Some(hub) = &obs {
            // Pool traffic is thread-local; the deltas observed here are
            // exactly this shard's recycling (plus nothing else, because a
            // worker runs one shard at a time). Wall class: hit rates
            // depend on which OS thread ran which shard.
            let pool_after = dnswire::bufpool::stats();
            use obs::Class::Wall;
            let reg = hub.registry();
            reg.counter("bufpool_recycled", Wall)
                .add(pool_after.hits - pool_before.hits);
            reg.counter("bufpool_allocated", Wall)
                .add(pool_after.misses - pool_before.misses);
        }
        // `net` (the shard's zones and nodes) drops on return, bounding
        // resident fabrics to the worker count.
        (
            engine.take_coverage(),
            elapsed,
            net.stats(),
            sched.wait_us(),
        )
    };

    let mut outcome = ShardedScanOutcome {
        coverage: crate::query::CoverageReport::default(),
        elapsed: simnet::SimDuration::ZERO,
        stats: simnet::NetStats::default(),
        shards: ranges.len(),
        bucket_wait: simnet::SimDuration::ZERO,
    };
    // Two in-flight batches per shard queue: enough to keep the fold fed,
    // small enough that a worker running ahead of the fold blocks on its
    // queue instead of accumulating a whole shard's URs in memory.
    par::sharded_ordered_fold(
        workers,
        ranges.len(),
        2,
        scan_shard,
        (),
        |_: &mut (), _shard, batch: T| sink(batch),
        |_: &mut (), _shard, (coverage, elapsed, stats, wait_us): ShardSummary| {
            // absorb() merges quarantine lists in address order; summaries
            // arrive in shard order, so every sum below is the sequential
            // loop's sum.
            outcome.coverage.absorb(&coverage);
            outcome.elapsed = outcome.elapsed + elapsed;
            outcome.bucket_wait = outcome.bucket_wait + simnet::SimDuration::from_micros(wait_us);
            outcome.stats += stats;
        },
    );
    outcome
}

/// Bulk scan in the **materialized** task order, for eager worlds: the
/// whole cross product is shuffled once with the scheduler's seed and
/// partitioned across `shards` nameserver ranges
/// ([`partition_scan_tasks`]). Every UR carries the global index of the
/// task that produced it, so sorting the shard outputs by it restores the
/// unsharded emission order — URs reach `sink` in batches of `batch_size`
/// (`0` or `usize::MAX` = one batch) in exactly the order and at the batch
/// boundaries of a one-shard scan, for every shard count, with and without
/// per-flow fault injection. Shards are claimed by the automatic worker
/// count.
#[allow(clippy::too_many_arguments)]
pub fn collect_urs_sharded(
    blueprint: &worldgen::ScanBlueprint,
    plan: crate::query::QueryPlan,
    faults: simnet::FaultPlan,
    obs: Option<std::sync::Arc<obs::Obs>>,
    world_registry: &authdns::DelegationRegistry,
    nameservers: &[NsInfo],
    targets: &[Name],
    cfg: &CollectConfig,
    scheduler: &mut QueryScheduler,
    shards: usize,
    batch_size: usize,
    sink: &mut dyn FnMut(Vec<CollectedUr>),
) -> ShardedScanOutcome {
    collect_urs_sharded_on(
        blueprint,
        plan,
        faults,
        obs,
        world_registry,
        nameservers,
        targets,
        cfg,
        scheduler,
        shards,
        par::Parallelism::auto().get(),
        batch_size,
        sink,
    )
}

/// [`collect_urs_sharded`] on a given number of shard workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_urs_sharded_on(
    blueprint: &worldgen::ScanBlueprint,
    plan: crate::query::QueryPlan,
    faults: simnet::FaultPlan,
    obs: Option<std::sync::Arc<obs::Obs>>,
    world_registry: &authdns::DelegationRegistry,
    nameservers: &[NsInfo],
    targets: &[Name],
    cfg: &CollectConfig,
    scheduler: &mut QueryScheduler,
    shards: usize,
    workers: usize,
    batch_size: usize,
    sink: &mut dyn FnMut(Vec<CollectedUr>),
) -> ShardedScanOutcome {
    let delegated_ips = delegated_ip_sets(world_registry, targets);
    let mut tasks = build_scan_tasks(&delegated_ips, nameservers, 0..nameservers.len(), cfg);
    scheduler.randomize(&mut tasks);
    // Each part is taken by the one shard that scans it.
    let parts: Vec<_> = partition_scan_tasks(&tasks, nameservers.len(), shards.max(1))
        .into_iter()
        .map(|part| std::sync::Mutex::new(Some(part)))
        .collect();
    let mut merged: Vec<(usize, CollectedUr)> = Vec::new();
    // One batch per shard: a worker hands its URs over once, at shard end,
    // and never blocks on a full queue.
    let outcome = scan(
        blueprint,
        plan,
        faults,
        obs,
        nameservers,
        targets,
        cfg,
        scheduler.interval(),
        scheduler.global_interval(),
        parts.len(),
        workers,
        usize::MAX,
        &|shard| {
            parts[shard]
                .lock()
                .expect("no scan runs under this lock")
                .take()
                .expect("each shard is scanned once")
        },
        &|urs| urs,
        &mut |urs| {
            if merged.is_empty() {
                merged = urs;
            } else {
                merged.extend(urs);
            }
        },
    );
    merged.sort_unstable_by_key(|&(gidx, _)| gidx);
    let batch_size = batch_limit(batch_size);
    let mut urs = merged.into_iter().map(|(_, ur)| ur);
    loop {
        let batch: Vec<CollectedUr> = urs.by_ref().take(batch_size).collect();
        if batch.is_empty() {
            break;
        }
        sink(batch);
    }
    outcome
}

/// Bulk scan in the **per-shard** task order, for plan-backed worlds (the
/// `paper` and `xl` presets): each shard builds its own slice of the cross
/// product and shuffles it with a seed derived from `scheduler_seed` and
/// the shard index, so the task list is O(slice) instead of O(inventory) —
/// on a paper-scale world the global list alone would be hundreds of
/// megabytes. `transform` runs on the worker that scanned the batch (this
/// is where classification parallelizes); `sink` sees the transformed
/// batches in shard-major order.
///
/// Output is deterministic in `(world, scheduler_seed, world_shards)`;
/// unlike the materialized order it intentionally *depends* on
/// `world_shards`, which is part of a streamed run's configuration — and
/// never on `workers`.
#[allow(clippy::too_many_arguments)]
pub fn collect_urs_streamed<T: Send>(
    blueprint: &worldgen::ScanBlueprint,
    plan: crate::query::QueryPlan,
    faults: simnet::FaultPlan,
    obs: Option<std::sync::Arc<obs::Obs>>,
    world_registry: &authdns::DelegationRegistry,
    nameservers: &[NsInfo],
    targets: &[Name],
    cfg: &CollectConfig,
    scheduler_seed: u64,
    pacing: simnet::SimDuration,
    global_pacing: simnet::SimDuration,
    world_shards: usize,
    workers: usize,
    batch_size: usize,
    transform: &(dyn Fn(Vec<CollectedUr>) -> T + Sync),
    sink: &mut dyn FnMut(T),
) -> ShardedScanOutcome {
    let delegated_ips = delegated_ip_sets(world_registry, targets);
    let ranges = par::chunk_ranges(nameservers.len(), world_shards.max(1));
    scan(
        blueprint,
        plan,
        faults,
        obs,
        nameservers,
        targets,
        cfg,
        pacing,
        global_pacing,
        ranges.len(),
        workers,
        batch_size,
        &|shard| {
            let mut tasks =
                build_scan_tasks(&delegated_ips, nameservers, ranges[shard].clone(), cfg);
            let shard_seed =
                scheduler_seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            QueryScheduler::new(shard_seed, pacing).randomize(&mut tasks);
            tasks
        },
        transform,
        sink,
    )
}

/// Collect correct records: ask a sample of stable open resolvers for each
/// target's A and TXT records, then enrich addresses with AS / geo / cert
/// metadata. (Unstable resolvers are excluded up front, per the ethics
/// appendix; manipulated answers are tolerated by the majority.)
pub fn collect_correct(
    net: &mut Network,
    engine: &mut ProbeEngine,
    resolvers: &[worldgen::OpenResolverInfo],
    metadata: &netdb::NetDb,
    targets: &[Name],
    cfg: &CollectConfig,
) -> CorrectDb {
    let stable: Vec<Ipv4Addr> = resolvers
        .iter()
        .filter(|r| r.stable)
        .map(|r| r.ip)
        .collect();
    assert!(!stable.is_empty(), "world has no stable resolvers");
    let mut db = CorrectDb::default();
    let mut qid: u16 = 0x2000;
    for (di, domain) in targets.iter().enumerate() {
        let mut profile = DomainProfile::default();
        // Deterministic spread of resolvers across domains.
        let k = cfg.resolvers_per_domain.max(1).min(stable.len());
        for j in 0..k {
            let resolver = stable[(di * 31 + j * 7) % stable.len()];
            for rt in [RecordType::A, RecordType::Txt, RecordType::Mx] {
                qid = qid.wrapping_add(1).max(1);
                let Some(resp) = engine.query(net, cfg.scanner_ip, resolver, domain, rt, qid)
                else {
                    continue;
                };
                if resp.rcode() != Rcode::NoError {
                    continue;
                }
                for r in &resp.answers {
                    if let Some(ip) = r.rdata.as_a() {
                        profile.ips.insert(ip);
                    } else if let Some(t) = r.rdata.txt_str() {
                        profile.txts.insert(Sym::intern(&t));
                    } else if matches!(r.rdata, dnswire::RData::Mx { .. }) {
                        profile.mxs.insert(Sym::intern(&r.rdata.to_string()));
                    }
                }
            }
        }
        // Metadata enrichment of every correct address.
        for ip in profile.ips.clone() {
            if let Some(asn) = metadata.asn_of(ip) {
                profile.asns.insert(asn.asn);
            }
            if let Some(geo) = metadata.geo_of(ip) {
                profile.geos.insert((geo.country, geo.city));
            }
            if let Some(cert) = metadata.cert_of(ip) {
                profile.certs.insert(cert.fingerprint);
            }
        }
        db.domains.insert(InternedName::intern(domain), profile);
    }
    db
}

/// Synthesize the correct-record database from a stream world's hosting
/// ground truth. Plan-backed worlds have no open-resolver fleet to probe;
/// the plan *is* what a resolver sweep would observe (each target's
/// legitimate addresses and SPF TXT), enriched from the same metadata
/// database the probed path uses.
pub fn correct_db_from_stream(world: &worldgen::StreamWorld) -> CorrectDb {
    let mut db = CorrectDb::default();
    for site in &world.legit {
        let mut profile = DomainProfile::default();
        for &ip in &site.ips {
            profile.ips.insert(ip);
            if let Some(asn) = world.db.asn_of(ip) {
                profile.asns.insert(asn.asn);
            }
            if let Some(geo) = world.db.geo_of(ip) {
                profile.geos.insert((geo.country, geo.city));
            }
            if let Some(cert) = world.db.cert_of(ip) {
                profile.certs.insert(cert.fingerprint);
            }
        }
        if let Some(spf) = &site.spf {
            profile.txts.insert(Sym::intern(spf));
        }
        db.domains
            .insert(InternedName::intern(&site.domain), profile);
    }
    db
}

/// Synthesize the protective-record database from a stream world's plan:
/// exactly what probing every protective nameserver with an unhosted
/// canary ([`collect_protective`]) would record.
pub fn protective_db_from_stream(world: &worldgen::StreamWorld) -> ProtectiveDb {
    let mut db = ProtectiveDb::default();
    for (ns_ip, warn_ip, txt) in world.protective_servers() {
        let profile = db.servers.entry(ns_ip).or_default();
        profile.a_ips.insert(warn_ip);
        profile.txts.insert(Sym::intern(&txt));
    }
    db
}

/// Collect protective records: probe each selected nameserver for a canary
/// domain hosted nowhere, and record what it answers.
pub fn collect_protective(
    net: &mut Network,
    engine: &mut ProbeEngine,
    nameservers: &[NsInfo],
    cfg: &CollectConfig,
) -> ProtectiveDb {
    let canary: Name = "urhunter-canary-probe.com"
        .parse()
        .expect("static canary parses");
    let mut db = ProtectiveDb::default();
    let mut qid: u16 = 0x3000;
    for ns in nameservers {
        let mut profile = crate::types::ProtectiveProfile::default();
        for rt in [RecordType::A, RecordType::Txt] {
            qid = qid.wrapping_add(1).max(1);
            let Some(resp) = engine.query(net, cfg.scanner_ip, ns.ip, &canary, rt, qid) else {
                continue;
            };
            if resp.rcode() != Rcode::NoError {
                continue;
            }
            for r in &resp.answers {
                if let Some(ip) = r.rdata.as_a() {
                    profile.a_ips.insert(ip);
                }
                if let Some(t) = r.rdata.txt_str() {
                    profile.txts.insert(Sym::intern(&t));
                }
            }
        }
        if !profile.a_ips.is_empty() || !profile.txts.is_empty() {
            db.servers.insert(ns.ip, profile);
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;
    use worldgen::WorldConfig;

    #[test]
    fn selection_filters_small_providers() {
        let world = World::generate(WorldConfig::small());
        let all = world.nameservers.len();
        let selected = select_nameservers(&world, NS_SELECTION_THRESHOLD);
        assert!(!selected.is_empty());
        assert!(selected.len() < all, "threshold must drop some servers");
        assert!(selected.iter().all(|ns| ns.tail_hosted_sites >= 50));
    }

    #[test]
    fn collect_urs_finds_planted_campaigns() {
        let world = World::generate(WorldConfig::small());
        let cfg = CollectConfig::default();
        let nameservers = select_nameservers(&world, cfg.min_tail_sites);
        let targets = world.scan_targets();
        let mut urs = Vec::new();
        collect_urs_sharded(
            &world.scan_blueprint(),
            crate::query::QueryPlan::single_shot(),
            world.net.faults(),
            None,
            &world.registry,
            &nameservers,
            &targets,
            &cfg,
            &mut QueryScheduler::new(7, SimDuration::ZERO),
            1,
            usize::MAX,
            &mut |batch| urs.extend(batch),
        );
        assert!(!urs.is_empty());
        // at least one planted campaign's UR must be collected
        let planted = &world.truth.campaigns[world.truth.case_studies["dark_iot_gitlab"]];
        let found = urs
            .iter()
            .any(|u| u.key.domain == planted.domain && u.a_ips().contains(&planted.c2_ips[0]));
        assert!(found, "Dark.IoT UR must be collected");
        // no UR may be for a domain delegated to that very nameserver
        for u in &urs {
            let delegated_here = world
                .registry
                .delegation_of(&u.key.domain.to_name())
                .map(|d| d.iter().any(|(_, ip)| *ip == u.key.ns_ip))
                .unwrap_or(false);
            assert!(
                !delegated_here,
                "{} exactly delegated to {}",
                u.key.domain, u.key.ns_ip
            );
        }
    }

    #[test]
    fn correct_db_covers_targets_with_real_ips() {
        let mut world = World::generate(WorldConfig::small());
        let cfg = CollectConfig {
            resolvers_per_domain: 3,
            ..CollectConfig::default()
        };
        let targets: Vec<Name> = world.tranco.top(10).to_vec();
        let db = collect_correct(
            &mut world.net,
            &mut ProbeEngine::single_shot(),
            &world.resolvers,
            &world.db,
            &targets,
            &cfg,
        );
        let mut resolved = 0;
        for d in &targets {
            let p = db.profile(&InternedName::intern(d));
            if !p.ips.is_empty() {
                resolved += 1;
                assert!(!p.asns.is_empty(), "{d}: enrichment missing ASNs");
            }
        }
        assert!(
            resolved >= 8,
            "only {resolved}/10 targets resolved correctly"
        );
    }

    #[test]
    fn protective_db_learns_cloudns_behaviour() {
        let mut world = World::generate(WorldConfig::small());
        let cfg = CollectConfig::default();
        let nameservers = select_nameservers(&world, cfg.min_tail_sites);
        let cloudns_idx = world.provider_index("ClouDNS").unwrap();
        let protective_ip = world.provider_meta[cloudns_idx].protective_ip;
        let db = collect_protective(
            &mut world.net,
            &mut ProbeEngine::single_shot(),
            &nameservers,
            &cfg,
        );
        let cloudns_ns: Vec<Ipv4Addr> = nameservers
            .iter()
            .filter(|ns| ns.provider == "ClouDNS")
            .map(|ns| ns.ip)
            .collect();
        assert!(!cloudns_ns.is_empty());
        for ip in cloudns_ns {
            let profile = db.servers.get(&ip).expect("ClouDNS NS must answer canary");
            assert!(profile.a_ips.contains(&protective_ip));
        }
    }
}
