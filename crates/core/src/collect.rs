//! Response collection (paper §4.1): undelegated records from targeted
//! nameservers, correct records from open resolvers and passive DNS, and
//! protective records from canary probes.

use crate::query::ProbeEngine;
use crate::schedule::QueryScheduler;
use crate::types::{CollectedUr, CorrectDb, DomainProfile, NameId, ProtectiveDb, UrKey};
use dnswire::{Flags, Name, RDataSetRef, Rcode, RecordType};
use intern::{InternedName, Sym};
use simnet::Network;
use std::net::Ipv4Addr;
use std::ops::Range;
use worldgen::{NsInfo, World};

/// Selection threshold: nameservers hosting at least this many top-1M
/// sites are targeted (paper: 50).
pub(crate) const NS_SELECTION_THRESHOLD: u32 = 50;

/// Collection configuration.
#[derive(Debug, Clone)]
pub struct CollectConfig {
    /// Source address of the scanner.
    pub scanner_ip: Ipv4Addr,
    /// Minimum hosted-site count for nameserver selection.
    pub min_tail_sites: u32,
    /// How many stable open resolvers to consult per domain.
    pub resolvers_per_domain: usize,
    /// Record types probed (paper: A and TXT), each listed once. The scan
    /// panics on any other type: the classifier decides only these two.
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

/// One UR probe: query `ns_ip` (the engine's server in `slot`, when the
/// caller addresses servers by slot) for `(domain, rtype)`, keep NOERROR
/// responses whose answer section carries records of exactly that name and
/// type, and hand the [`CollectedUr`] to `read` under the caller's handles
/// for the domain (`key`, interned from `domain`) and the provider, at the
/// caller's `(shard, index)` position, its records still in the reply.
/// Shared by the bulk scan and the §4.2 false-negative evaluation (which
/// replays *delegated* records through the identical path); each interns
/// its names once, not once a UR.
#[allow(clippy::too_many_arguments)]
pub(crate) fn query_one_ur<T>(
    net: &mut Network,
    engine: &mut ProbeEngine,
    scanner_ip: Ipv4Addr,
    (ns_ip, slot): (Ipv4Addr, Option<usize>),
    (domain, key): (&Name, InternedName),
    rtype: RecordType,
    qid: u16,
    provider: Sym,
    (shard, index): (u16, u32),
    mut read: impl FnMut(CollectedUr<RDataSetRef<'_>>) -> T,
) -> Option<T> {
    // Only the records that make the UR are kept of the reply.
    let keep =
        |r: &dnswire::RecordView<'_>| r.rtype() == rtype && r.name.matches(domain.borrowed());
    engine
        .probe(
            net,
            scanner_ip,
            (ns_ip, slot),
            domain,
            rtype,
            qid,
            keep,
            |flags, records| {
                (flags.rcode == Rcode::NoError && !records.is_empty()).then(|| {
                    read(CollectedUr {
                        key: UrKey {
                            ns_ip,
                            domain: key,
                            rtype,
                        },
                        records,
                        provider,
                        authoritative: flags.authoritative,
                        recursion_available: flags.recursion_available,
                        shard,
                        index,
                    })
                })
            },
        )
        .flatten()
}

/// Deterministic query ids for the bulk scan and the §4.2 false-negative
/// evaluation.
///
/// A single global counter (`qid.wrapping_add(1).max(1)`) reuses ids after
/// 65,535 probes *in total*, so on large worlds unrelated probes collide.
/// Here a probe stream — a `(nameserver, target)` pair of the scan (see
/// [`scan_stream`]), a target of the evaluation — sends exactly one probe
/// per record type, so its id is a hash of the stream and the type, with
/// no generator state.
#[derive(Debug)]
pub struct QidGen;

impl QidGen {
    /// The id of `stream`'s probe for `rtype`: never zero, and independent
    /// of how probes to *other* nameservers interleave, and therefore of
    /// the shard count.
    pub fn of(stream: u64, rtype: RecordType) -> u16 {
        let base = stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(rtype.code()).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        (((base as u32) % 0xFFFF) + 1) as u16
    }
}

/// The qid stream for one `(nameserver, target)` scan pair.
pub fn scan_stream(ni: usize, di: usize) -> u64 {
    ((ni as u64) << 32) | di as u64
}

/// The record types every scan pair is probed for, checked: each must be
/// one the classifier decides (A or TXT; any other would come out Unknown,
/// and so suspicious, whatever it held), and none may be listed twice (two
/// tasks would share a qid). Panics naming the offending type.
pub(crate) fn distinct_query_types(cfg: &CollectConfig) -> &[RecordType] {
    let types = &cfg.query_types;
    for (i, t) in types.iter().enumerate() {
        assert!(
            matches!(t, RecordType::A | RecordType::Txt),
            "query_types lists {t}: the classifier decides A and TXT records only"
        );
        assert!(
            !types[..i].contains(t),
            "query_types lists {t} twice: two tasks would share a qid"
        );
    }
    types
}

/// Per-target delegated servers, resolved once: the registry's own entry
/// for each target (delegation of an enclosing registered suffix covers
/// subdomain targets), empty when it has none. A delegation lists a few
/// servers, so a linear scan is the membership test.
fn delegated_servers<'r>(
    world_registry: &'r authdns::DelegationRegistry,
    targets: &[Name],
) -> Vec<&'r [(Name, Ipv4Addr)]> {
    targets
        .iter()
        .map(|domain| {
            world_registry
                .registered_suffix(domain)
                .and_then(|suffix| world_registry.delegation_of(&suffix))
                .unwrap_or_default()
        })
        .collect()
}

/// The shape of a scan's cross product, nameservers × targets × record
/// types. Each server has `M = targets × types` tasks, a task's *code*
/// being `target × types + type` (`type` indexes
/// [`CollectConfig::query_types`]), and a task's position in its shard is
/// computed from its server's run and round ([`TaskCodec::position`]).
#[derive(Debug, Clone, Copy)]
struct TaskCodec {
    targets: usize,
    types: usize,
}

impl TaskCodec {
    /// The codec of `nameservers × targets × types`. Panics, naming the
    /// three counts, when the product does not fit a `u32` (the paper's
    /// 8,941 × 2,000 × 2 is 35.8 M), so no position overflows one.
    fn new(nameservers: usize, targets: usize, types: usize) -> Self {
        let len = nameservers
            .checked_mul(targets)
            .and_then(|n| n.checked_mul(types))
            .and_then(|n| u32::try_from(n).ok());
        assert!(
            len.is_some(),
            "scan cross product of {nameservers} nameservers × {targets} targets × \
             {types} record types exceeds u32::MAX tasks"
        );
        TaskCodec { targets, types }
    }

    /// `M`, the tasks of one server.
    fn per_server(self) -> usize {
        self.targets * self.types
    }

    /// `(target, type)` indices of a code.
    fn decode(self, code: u32) -> (usize, usize) {
        let code = code as usize;
        (code / self.types, code % self.types)
    }

    /// The position of slot `k`'s `round`-th task in `run`, a run of the
    /// servers of a shard whose first server is `first`: the servers
    /// before the run hold `M` positions each, and the run's hold its
    /// rounds, `run.len()` positions a round.
    fn position(self, first: usize, run: &Range<usize>, round: usize, k: usize) -> u32 {
        // In range: `new` checked the whole product.
        ((run.start - first) * self.per_server() + round * run.len() + k) as u32
    }
}

/// The runs of `range` whose servers share a provider.
fn runs_by_provider(providers: &[Sym], range: Range<usize>) -> Vec<Range<usize>> {
    let mut start = range.start;
    providers[range]
        .chunk_by(|a, b| a == b)
        .map(|run| {
            start += run.len();
            start - run.len()..start
        })
        .collect()
}

/// A shard's probe order, computed rather than stored: its `M` codes
/// shuffled once, and one cursor a server while it is walked. The server
/// in slot `s` of the shard reads the codes rotated by the `s`-th code (mod
/// `M`), a pure function of the shard's seed, so while cursors stay in step
/// no two of a shard's first `M` servers probe one task in a round. It
/// skips the targets exactly delegated to it: its records there are
/// authoritative, not undelegated.
struct ShardOrder<'a> {
    codes: Vec<u32>,
    /// The shard's first server.
    first: usize,
    codec: TaskCodec,
    delegated: &'a [&'a [(Name, Ipv4Addr)]],
    nameservers: &'a [NsInfo],
}

impl<'a> ShardOrder<'a> {
    /// The order of the shard whose first server is `first`, shuffled by
    /// its scheduler.
    fn new(
        sched: &mut QueryScheduler,
        codec: TaskCodec,
        first: usize,
        delegated: &'a [&'a [(Name, Ipv4Addr)]],
        nameservers: &'a [NsInfo],
    ) -> Self {
        // In range: `TaskCodec::new` checked the whole product.
        let mut codes: Vec<u32> = (0..codec.per_server() as u32).collect();
        sched.randomize(&mut codes);
        ShardOrder {
            codes,
            first,
            codec,
            delegated,
            nameservers,
        }
    }

    /// Server `ni`'s next task, as its code, from `cursor`, the count of
    /// codes it has read; `None` once it has read all `M`.
    fn next_task(&self, ni: usize, cursor: &mut u32) -> Option<u32> {
        let m = self.codes.len();
        let ip = self.nameservers[ni].ip;
        while (*cursor as usize) < m {
            let at = self.codes[(ni - self.first) % m] as usize + *cursor as usize;
            *cursor += 1;
            let code = self.codes[if at < m { at } else { at - m }];
            let (di, _) = self.codec.decode(code);
            if !self.delegated[di].iter().any(|&(_, d)| d == ip) {
                return Some(code);
            }
        }
        None
    }

    /// Rounds over the servers of `runs`, each a run of the shard's
    /// servers sharing a provider: round `r` hands `visit` the `r`-th task
    /// of every server that has one, runs and servers in shard order, as
    /// `(server, code, position)`. A server's tasks come in the order it
    /// reads them whatever else is walked beside it, so walking each run
    /// alone gives every task the position it has in a walk of them all,
    /// and visits a run's positions in increasing order. The walk ends
    /// with the first round that finds no task.
    fn walk(&self, runs: &[Range<usize>], mut visit: impl FnMut(usize, u32, u32)) {
        let mut cursors = vec![0u32; runs.iter().map(|run| run.len()).sum()];
        for round in 0.. {
            let mut cursor = cursors.iter_mut();
            let mut probed = false;
            for run in runs {
                for (k, ni) in run.clone().enumerate() {
                    let cursor = cursor.next().expect("one cursor a server");
                    if let Some(code) = self.next_task(ni, cursor) {
                        visit(ni, code, self.codec.position(self.first, run, round, k));
                        probed = true;
                    }
                }
            }
            if !probed {
                return;
            }
        }
    }
}

/// The canonical shard layout of the bulk scan: the selected nameservers
/// split into this many contiguous ranges ([`par::chunk_ranges`]). It is
/// part of a run's identity, so [`crate::run`] always scans on it, and it
/// is the default world-shard count of [`crate::run_streamed`]; worker
/// threads only claim shards.
pub const SCAN_SHARDS: usize = 8;

/// What a bulk scan produced besides the URs it handed over.
#[derive(Debug, Clone)]
pub struct ShardedScanOutcome {
    /// Summed probe accounting across every shard engine (quarantine lists
    /// merged in address order).
    pub coverage: crate::query::CoverageReport,
    /// Total simulated time the shards spent scanning — the amount the
    /// caller should advance the world clock by.
    pub elapsed: simnet::SimDuration,
    /// Summed fabric counters across shard replicas, for
    /// [`simnet::Network::absorb_stats`].
    pub stats: simnet::NetStats,
    /// How many shards actually ran.
    pub(crate) shards: usize,
    /// Total simulated time the shard schedulers spent blocked on pacing
    /// buckets.
    pub(crate) bucket_wait: simnet::SimDuration,
}

/// What one shard reports back to the merge besides its URs.
type ShardSummary = (
    crate::query::CoverageReport,
    crate::query::ProbeTally,
    simnet::SimDuration,
    simnet::NetStats,
    u64,
);

/// The bulk scan over the [`SCAN_SHARDS`] layout, in the order
/// [`crate::run`] scans. `shards` keeps its old name but is the number of
/// worker threads claiming those shards (`0` = automatic); the output is
/// the same for every value. Each shard's URs reach `sink` as one `Vec`,
/// on the calling thread, once their shard is scanned: shards in the order
/// they finish (shard order on one worker), each shard's URs in the order
/// it probed them (see [`CollectedUr::index`] for task order).
/// `batch_size` keeps its place but must be `0` or `usize::MAX` (one batch
/// a shard).
///
/// # Panics
/// Panics on any other `batch_size`.
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
    assert!(
        matches!(batch_size, 0 | usize::MAX),
        "batch_size {batch_size}: a shard's URs are one batch (0 or usize::MAX)"
    );
    collect_urs_streamed(
        blueprint,
        plan,
        faults,
        obs,
        world_registry,
        nameservers,
        targets,
        cfg,
        scheduler,
        SCAN_SHARDS,
        par::Parallelism::from_knob(shards).get(),
        &|urs: &mut Vec<CollectedUr>, ur| urs.push(ur.to_kept()),
        || {},
        &mut |_, urs| {
            if !urs.is_empty() {
                sink(urs);
            }
        },
    )
}

/// The bulk scan — the only one in the tree.
///
/// The selected nameservers are split into `world_shards` contiguous
/// ranges. Shard `s` computes its order from `QueryScheduler::for_shard`'s
/// seed rather than storing it ([`ShardOrder`]): `targets × types` codes
/// and one cursor a server, whatever its task count, each task's position
/// computed from its run, round and slot. `workers` spawned threads each
/// claim the next shard (one worker is the calling thread itself, and no
/// thread is spawned), build a replica fabric for it and scan it with
/// their own [`ProbeEngine`]: one provider's servers walked and attached
/// at a time through [`worldgen::ScanBlueprint::attach`], or all of them
/// at once when the scheduler paces, each server's tasks in the same
/// order either way; `absorb` each UR, in probe order and carrying its
/// `(shard, index)` position, into the shard's own `A` **on the worker
/// thread** while its reply is read (its records are borrowed from it), and
/// drop the fabric before claiming the next shard. Through
/// [`par::sharded_fold`] every shard's `A` reaches `merge` on the calling
/// thread beside its shard index, in the order shards finish, its summary
/// (coverage, elapsed, fabric stats, bucket waits) absorbed beside it;
/// every one of those is a sum. So a `merge` that commutes (a fold, or
/// values kept by shard index) makes the output deterministic in
/// `(world, scheduler, world_shards)` and bit-identical for every
/// `workers` value, and peak memory is `workers` shards being scanned —
/// their fabrics, their orders and their `A`s — plus what `merge` keeps.
/// `lead` runs once on the calling thread beside the workers, before the
/// merge starts (first, when the calling thread is the one worker).
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect_urs_streamed<A: Default + Send>(
    blueprint: &worldgen::ScanBlueprint,
    plan: crate::query::QueryPlan,
    faults: simnet::FaultPlan,
    obs: Option<std::sync::Arc<obs::Obs>>,
    world_registry: &authdns::DelegationRegistry,
    nameservers: &[NsInfo],
    targets: &[Name],
    cfg: &CollectConfig,
    scheduler: &QueryScheduler,
    world_shards: usize,
    workers: usize,
    absorb: &(dyn Fn(&mut A, CollectedUr<RDataSetRef<'_>>) + Sync),
    lead: impl FnOnce(),
    merge: &mut dyn FnMut(usize, A),
) -> ShardedScanOutcome {
    let types = distinct_query_types(cfg);
    let delegated = delegated_servers(world_registry, targets);
    let codec = TaskCodec::new(nameservers.len(), targets.len(), types.len());
    let ranges = par::chunk_ranges(nameservers.len(), world_shards.max(1));
    // Every UR's handles, interned once before any shard starts.
    let target_keys: Vec<InternedName> = targets.iter().map(InternedName::intern).collect();
    let providers: Vec<Sym> = nameservers
        .iter()
        .map(|ns| Sym::intern(&ns.provider))
        .collect();

    let scan_shard = |shard_idx: usize| -> (A, ShardSummary) {
        let range = ranges[shard_idx].clone();
        let shard_id = u16::try_from(shard_idx).expect("a scan has at most 65,536 shards");
        // The shard's scheduler shuffles its order and paces its probes.
        let mut sched = scheduler.for_shard(shard_idx);
        let order = ShardOrder::new(&mut sched, codec, range.start, &delegated, nameservers);
        let runs = runs_by_provider(&providers, range.clone());
        let pool_before = dnswire::bufpool::stats();
        // The shard's replica, on the world's fault seed. Servers are
        // attached as they are scanned.
        let mut net = blueprint.build_network_scoped(shard_idx as u64, &[]);
        net.set_faults(faults);
        net.set_payload_recycler(Some(dnswire::bufpool::release));
        let mut engine = ProbeEngine::new(plan);
        if let Some(hub) = &obs {
            engine = engine.with_obs(hub.clone());
        }
        let mut shard = A::default();
        // A paced shard walks all its servers at once, so while one
        // server's bucket refills it probes the others, and it attaches
        // every provider of the shard. An unpaced shard's clock is a sum of
        // exchange times, each set by its own server's earlier probes, so
        // it walks one provider's run at a time, that provider's servers
        // (and zones) alone attached, settled and detached before the
        // next's. Elapsed is read before settling: stragglers (replies
        // landing after their probe's deadline) are flushed into the
        // fabric's stats but don't extend the scan clock.
        let paced = sched.interval() > simnet::SimDuration::ZERO;
        let mut elapsed = simnet::SimDuration::ZERO;
        for walk in runs.chunks(if paced { runs.len() } else { 1 }) {
            let scope: Vec<Ipv4Addr> = (walk[0].start..walk[walk.len() - 1].end)
                .map(|ni| nameservers[ni].ip)
                .collect();
            blueprint.attach(&mut net, Some(&scope));
            let start = net.now();
            order.walk(walk, |ni, code, pos| {
                let (di, ti) = codec.decode(code);
                sched.admit(&mut net, nameservers[ni].ip);
                // The engine's servers are the shard's range, by slot.
                query_one_ur(
                    &mut net,
                    &mut engine,
                    cfg.scanner_ip,
                    (nameservers[ni].ip, Some(ni - range.start)),
                    (&targets[di], target_keys[di]),
                    types[ti],
                    QidGen::of(scan_stream(ni, di), types[ti]),
                    providers[ni],
                    (shard_id, pos),
                    |ur| absorb(&mut shard, ur),
                );
            });
            elapsed = elapsed + (net.now() - start);
            net.settle();
            scope.iter().for_each(|&ip| net.remove_node(ip));
        }
        if let Some(hub) = &obs {
            // Pool traffic is thread-local; the deltas observed here are
            // exactly this shard's recycling (plus nothing else, because a
            // worker runs one shard at a time). Wall class: hit rates
            // depend on which OS thread ran which shard.
            let pool_after = dnswire::bufpool::stats();
            use obs::Class::Wall;
            let reg = hub.registry();
            reg.add("bufpool_recycled", Wall, pool_after.hits - pool_before.hits);
            reg.add(
                "bufpool_allocated",
                Wall,
                pool_after.misses - pool_before.misses,
            );
        }
        let summary = (
            engine.take_coverage(),
            engine.tally,
            elapsed,
            net.stats(),
            sched.wait_us(),
        );
        (shard, summary)
    };

    let mut outcome = ShardedScanOutcome {
        coverage: crate::query::CoverageReport::default(),
        elapsed: simnet::SimDuration::ZERO,
        stats: simnet::NetStats::default(),
        shards: ranges.len(),
        bucket_wait: simnet::SimDuration::ZERO,
    };
    par::sharded_fold(
        workers,
        ranges.len(),
        scan_shard,
        lead,
        |shard_idx, (shard, (coverage, tally, elapsed, stats, wait_us))| {
            merge(shard_idx, shard);
            // absorb() merges quarantine lists in address order, and every
            // other field is a sum, so in whatever order summaries arrive
            // the totals below are the sequential loop's. Each shard's
            // fabric and engine counts reach the hub here, once.
            if let Some(hub) = &obs {
                simnet::FabricMetrics::publish(hub.registry(), stats);
                crate::query::publish_probes(hub.registry(), &coverage, &tally);
            }
            outcome.coverage.absorb(&coverage);
            outcome.elapsed = outcome.elapsed + elapsed;
            outcome.bucket_wait = outcome.bucket_wait + simnet::SimDuration::from_micros(wait_us);
            outcome.stats += stats;
        },
    );
    outcome
}

/// The `j`-th of the `k` stable resolvers (of `len`) asked about the
/// `di`-th target: a deterministic spread across targets, distinct for
/// every `j < k ≤ len`. The stride is 7, coprime to `len` unless `7 | len`;
/// then 7 still gives distinct picks while `7·k ≤ len`, and past that the
/// stride is 1.
pub(crate) fn resolver_pick(di: usize, j: usize, k: usize, len: usize) -> usize {
    let stride = if !len.is_multiple_of(7) || 7 * k <= len {
        7
    } else {
        1
    };
    (di * 31 + j * stride) % len
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
        let k = cfg.resolvers_per_domain.max(1).min(stable.len());
        for j in 0..k {
            let resolver = stable[resolver_pick(di, j, k, stable.len())];
            for rt in [RecordType::A, RecordType::Txt] {
                qid = qid.wrapping_add(1).max(1);
                let server = (resolver, None);
                let read = |flags: Flags, answers: RDataSetRef<'_>| {
                    if flags.rcode != Rcode::NoError {
                        return;
                    }
                    for r in answers.iter() {
                        if let Some(ip) = r.as_a() {
                            profile.ips.insert(ip);
                        } else if let Some(t) = r.txt_str() {
                            profile.txts.insert(Sym::intern(&t));
                        }
                    }
                };
                engine.probe(net, cfg.scanner_ip, server, domain, rt, qid, |_| true, read);
            }
        }
        // Metadata enrichment of every correct address.
        let DomainProfile {
            ips,
            asns,
            geos,
            certs,
            ..
        } = &mut profile;
        for &ip in ips.iter() {
            if let Some(asn) = metadata.asn_of(ip) {
                asns.insert(asn.asn);
            }
            if let Some(geo) = metadata.geo_of(ip) {
                geos.insert((geo.country, geo.city));
            }
            if let Some(cert) = metadata.cert_of(ip) {
                certs.insert(cert.fingerprint);
            }
        }
        db.domains
            .insert(NameId(InternedName::intern(domain)), profile);
    }
    db
}

/// Synthesize the correct-record database from a stream world's hosting
/// ground truth. Plan-backed worlds have no open-resolver fleet to probe;
/// the plan *is* what a resolver sweep would observe (each target's
/// legitimate addresses and TXT bodies), enriched from the same metadata
/// database the probed path uses.
pub(crate) fn correct_db_from_stream(world: &worldgen::StreamWorld) -> CorrectDb {
    let mut db = CorrectDb::default();
    for site in world.legit_sites() {
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
        for txt in &site.txts {
            profile.txts.insert(Sym::intern(txt));
        }
        db.domains
            .insert(NameId(InternedName::intern(&site.domain)), profile);
    }
    db
}

/// Synthesize the protective-record database from a stream world's plan:
/// exactly what probing every protective nameserver with an unhosted
/// canary ([`collect_protective`]) would record.
pub(crate) fn protective_db_from_stream(world: &worldgen::StreamWorld) -> ProtectiveDb {
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
            let read = |flags: Flags, answers: RDataSetRef<'_>| {
                if flags.rcode != Rcode::NoError {
                    return;
                }
                for r in answers.iter() {
                    if let Some(ip) = r.as_a() {
                        profile.a_ips.insert(ip);
                    }
                    if let Some(t) = r.txt_str() {
                        profile.txts.insert(Sym::intern(&t));
                    }
                }
            };
            let server = (ns.ip, None);
            engine.probe(
                net,
                cfg.scanner_ip,
                server,
                &canary,
                rt,
                qid,
                |_| true,
                read,
            );
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
    use proptest::prelude::*;
    use simnet::SimDuration;
    use worldgen::WorldConfig;

    fn check_types(types: &[RecordType]) {
        let cfg = CollectConfig {
            query_types: types.to_vec(),
            ..CollectConfig::default()
        };
        distinct_query_types(&cfg);
    }

    #[test]
    #[should_panic(expected = "query_types lists MX: the classifier decides A and TXT")]
    fn a_type_the_classifier_cannot_decide_is_refused() {
        check_types(&[RecordType::A, RecordType::Mx]);
    }

    #[test]
    #[should_panic(expected = "query_types lists A twice")]
    fn a_type_listed_twice_is_refused() {
        check_types(&[RecordType::A, RecordType::A]);
    }

    #[test]
    fn resolver_picks_are_distinct_whenever_there_are_enough() {
        for len in 1..=300 {
            for k in [1, 2, 5, 10].map(|k: usize| k.min(len)) {
                for di in 0..40 {
                    let picks: std::collections::BTreeSet<usize> =
                        (0..k).map(|j| resolver_pick(di, j, k, len)).collect();
                    assert_eq!(picks.len(), k, "len {len}, k {k}, target {di}");
                    assert!(picks.iter().all(|&p| p < len));
                }
            }
        }
        // Where stride 7 was already distinct, the pick is the old one.
        assert_eq!(resolver_pick(3, 4, 5, 20), (3 * 31 + 4 * 7) % 20);
        assert_eq!(resolver_pick(3, 4, 5, 70), (3 * 31 + 4 * 7) % 70);
    }

    /// Small seed 9002 has 14 stable resolvers, where stride 7 would ask
    /// every target at two of them, not five: read off the fabric's
    /// capture of the sweep's queries.
    #[test]
    fn every_target_of_small_seed_9002_is_asked_at_five_resolvers() {
        let mut world = worldgen::World::generate(WorldConfig::small().with_seed(9002));
        assert_eq!(world.resolvers.iter().filter(|r| r.stable).count(), 14);
        let cfg = CollectConfig::default();
        let targets = world.scan_targets();
        world.net.trace.clear();
        world.net.trace.set_enabled(true);
        let mut engine = ProbeEngine::new(crate::query::QueryPlan::default());
        let world = &mut world;
        collect_correct(
            &mut world.net,
            &mut engine,
            &world.resolvers,
            &world.db,
            &targets,
            &cfg,
        );
        let mut asked: std::collections::HashMap<Name, std::collections::HashSet<Ipv4Addr>> =
            Default::default();
        for flow in world.net.trace.records() {
            let query = dnswire::Message::decode(&flow.payload).ok();
            if let Some(q) = query.filter(|m| !m.flags.response && flow.src.ip == cfg.scanner_ip) {
                let qname = q.questions[0].qname.clone();
                asked.entry(qname).or_default().insert(flow.dst.ip);
            }
        }
        assert_eq!(cfg.resolvers_per_domain, 5);
        for target in &targets {
            assert_eq!(asked[target].len(), 5, "{target}");
        }
    }

    /// The sweep asks each chosen resolver for the paper's two types, A
    /// and TXT, and for nothing else.
    #[test]
    fn the_correct_record_sweep_probes_a_and_txt_only() {
        let mut world = World::generate(WorldConfig::small());
        let cfg = CollectConfig::default();
        let targets = world.scan_targets();
        let stable = world.resolvers.iter().filter(|r| r.stable).count();
        let mut engine = ProbeEngine::new(crate::query::QueryPlan::default());
        let world = &mut world;
        collect_correct(
            &mut world.net,
            &mut engine,
            &world.resolvers,
            &world.db,
            &targets,
            &cfg,
        );
        let k = cfg.resolvers_per_domain.min(stable);
        let scheduled = engine.take_coverage().scheduled;
        assert_eq!(scheduled, (targets.len() * k * 2) as u64);
    }

    #[test]
    fn the_cross_product_is_sized_up_to_u32_max() {
        // 65,535 × 65,537 is u32::MAX, the largest product that fits; its
        // last position, round 65,536 of the last of one run of 65,535
        // servers, is u32::MAX − 1.
        let codec = TaskCodec::new(65_535, 65_537, 1);
        assert_eq!(
            codec.position(0, &(0..65_535), 65_536, 65_534),
            u32::MAX - 1
        );
        assert_eq!(codec.decode(65_536), (65_536, 0));
        // The paper's inventory: 35.8 M tasks, the last run's last task
        // at the last position.
        let codec = TaskCodec::new(8_941, 2_000, 2);
        assert_eq!(codec.position(0, &(8_000..8_941), 3_999, 940), 35_763_999);
        assert_eq!(codec.decode(3_999), (1_999, 1));
    }

    #[test]
    #[should_panic(
        expected = "65536 nameservers × 65536 targets × 1 record types exceeds u32::MAX"
    )]
    fn a_cross_product_past_u32_max_is_refused() {
        TaskCodec::new(65_536, 65_536, 1);
    }

    /// A shard's walk, as `(server, code, position)` in visit order.
    type Visits = Vec<(usize, u32, u32)>;

    /// A scan to walk: servers in provider runs of the given lengths, each
    /// target delegated to the servers its list names (modulo the server
    /// count), `types` record types, in `shards` shards at `seed`.
    struct Fixture {
        providers: Vec<Sym>,
        nameservers: Vec<NsInfo>,
        delegations: Vec<Vec<(Name, Ipv4Addr)>>,
        types: usize,
        shards: usize,
        seed: u64,
    }

    /// One shard of a [`Fixture`]: its servers, its provider runs, and its
    /// two walks, one run at a time as an unpaced shard walks and all at
    /// once as a paced one does.
    struct ShardWalks {
        range: Range<usize>,
        runs: Vec<Range<usize>>,
        unpaced: Visits,
        paced: Visits,
    }

    /// A [`Fixture`]'s inputs: run lengths, delegations, types, shards and
    /// seed.
    type Scan = (Vec<usize>, Vec<Vec<usize>>, usize, usize, u64);

    fn scan() -> impl Strategy<Value = Scan> {
        (
            proptest::collection::vec(1usize..6, 1..8),
            proptest::collection::vec(proptest::collection::vec(0usize..64, 0..3), 0..10),
            1usize..3,
            1usize..5,
            any::<u64>(),
        )
    }

    /// Scans as wide as the production layout: up to 11 shards (the scan
    /// has [`SCAN_SHARDS`]), 1..48 targets and up to 55 servers.
    fn wide_scan() -> impl Strategy<Value = Scan> {
        (
            proptest::collection::vec(1usize..6, 1..12),
            proptest::collection::vec(proptest::collection::vec(0usize..64, 0..3), 1..48),
            1usize..3,
            1usize..12,
            any::<u64>(),
        )
    }

    impl Fixture {
        fn new((run_lens, delegations, types, shards, seed): &Scan) -> Self {
            let providers: Vec<Sym> = (run_lens.iter().enumerate())
                .flat_map(|(p, &len)| std::iter::repeat_n(Sym::intern(&format!("p{p}")), len))
                .collect();
            let nameservers: Vec<NsInfo> = (0..providers.len())
                .map(|i| NsInfo {
                    ip: Ipv4Addr::from(0x0a00_0000 + i as u32),
                    provider: providers[i].to_string(),
                    provider_idx: None,
                    tail_hosted_sites: 50,
                })
                .collect();
            let ns_name: Name = "ns.example".parse().unwrap();
            let delegations = (delegations.iter())
                .map(|servers| {
                    let ip = |s: &usize| nameservers[s % nameservers.len()].ip;
                    servers.iter().map(|s| (ns_name.clone(), ip(s))).collect()
                })
                .collect();
            Fixture {
                providers,
                nameservers,
                delegations,
                types: *types,
                shards: *shards,
                seed: *seed,
            }
        }

        fn codec(&self) -> TaskCodec {
            TaskCodec::new(self.nameservers.len(), self.delegations.len(), self.types)
        }

        /// Every task of `servers` but the delegated ones, in order.
        fn tasks(&self, servers: Range<usize>) -> Vec<(usize, u32)> {
            let m = self.codec().per_server() as u32;
            let delegated = |ni: usize, code: u32| {
                let servers = &self.delegations[code as usize / self.types];
                servers.iter().any(|&(_, ip)| ip == self.nameservers[ni].ip)
            };
            servers
                .flat_map(|ni| (0..m).map(move |code| (ni, code)))
                .filter(|&(ni, code)| !delegated(ni, code))
                .collect()
        }

        fn walk(&self) -> Vec<ShardWalks> {
            let delegated: Vec<_> = self.delegations.iter().map(Vec::as_slice).collect();
            let scheduler = QueryScheduler::new(self.seed, SimDuration::ZERO);
            let ranges = par::chunk_ranges(self.nameservers.len(), self.shards);
            (ranges.into_iter().enumerate())
                .map(|(s, range)| {
                    let mut sched = scheduler.for_shard(s);
                    let (codec, first) = (self.codec(), range.start);
                    let order =
                        ShardOrder::new(&mut sched, codec, first, &delegated, &self.nameservers);
                    let runs = runs_by_provider(&self.providers, range.clone());
                    let mut unpaced = Vec::new();
                    for run in runs.chunks(1) {
                        order.walk(run, |ni, code, pos| unpaced.push((ni, code, pos)));
                    }
                    let mut paced = Vec::new();
                    order.walk(&runs, |ni, code, pos| paced.push((ni, code, pos)));
                    ShardWalks {
                        range,
                        runs,
                        unpaced,
                        paced,
                    }
                })
                .collect()
        }
    }

    /// A server's visits of `walk`, in order.
    fn of_server(walk: &Visits, ni: usize) -> Visits {
        walk.iter().copied().filter(|v| v.0 == ni).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn each_walk_probes_every_undelegated_task_once(scan in scan()) {
            let fixture = Fixture::new(&scan);
            for ShardWalks { range, runs, unpaced, paced } in &fixture.walk() {
                // Each provider's servers are one run.
                let provider = |ni: usize| fixture.providers[ni];
                prop_assert!(runs.iter().all(|run| run.clone().all(|ni| provider(ni) == provider(run.start))));
                prop_assert!(runs.windows(2).all(|w| w[0].end == w[1].start && provider(w[0].start) != provider(w[1].start)));
                // Every task of the shard's servers but the delegated ones,
                // once, in each walk.
                let want = fixture.tasks(range.clone());
                for walk in [unpaced, paced] {
                    let mut got: Vec<(usize, u32)> = walk.iter().map(|&(ni, code, _)| (ni, code)).collect();
                    got.sort_unstable();
                    prop_assert_eq!(&got, &want);
                }
            }
        }

        #[test]
        fn shard_partitioning_is_a_permutation(scan in wide_scan()) {
            // The shards' walks together are the scan: every pair of the
            // cross product but the delegated ones, once.
            let fixture = Fixture::new(&scan);
            let walked = fixture.walk();
            prop_assert!(walked.len() <= fixture.shards.min(fixture.nameservers.len()));
            let unpaced = walked.iter().flat_map(|s| &s.unpaced);
            let paced = walked.iter().flat_map(|s| &s.paced);
            for walk in [unpaced.collect::<Vec<_>>(), paced.collect()] {
                let mut probed: Vec<(usize, u32)> =
                    walk.iter().map(|&&(ni, code, _)| (ni, code)).collect();
                probed.sort_unstable();
                prop_assert_eq!(probed, fixture.tasks(0..fixture.nameservers.len()));
            }
        }

        #[test]
        fn paced_rounds_is_the_same_on_every_call(scan in scan()) {
            // Both walks of every shard repeat, visit for visit.
            let fixture = Fixture::new(&scan);
            let visits = |w: Vec<ShardWalks>| -> Vec<(Visits, Visits)> {
                w.into_iter().map(|s| (s.unpaced, s.paced)).collect()
            };
            prop_assert_eq!(visits(fixture.walk()), visits(fixture.walk()));
        }

        #[test]
        fn both_walks_give_every_task_one_position(scan in scan()) {
            let fixture = Fixture::new(&scan);
            let m = fixture.codec().per_server();
            for ShardWalks { range, unpaced, paced, .. } in fixture.walk() {
                // Inside the shard's slice of the product, in increasing
                // order in the unpaced walk, and the same in the paced one.
                prop_assert!(unpaced.windows(2).all(|w| w[0].2 < w[1].2), "{:?}", unpaced);
                prop_assert!(unpaced.iter().all(|&(_, _, pos)| (pos as usize) < range.len() * m));
                let mut by_position = paced;
                by_position.sort_unstable_by_key(|&(_, _, pos)| pos);
                prop_assert_eq!(by_position, unpaced);
            }
        }

        #[test]
        fn each_server_keeps_one_order_in_both_walks(scan in scan()) {
            let fixture = Fixture::new(&scan);
            for ShardWalks { range, unpaced, paced, .. } in fixture.walk() {
                for ni in range {
                    prop_assert_eq!(of_server(&unpaced, ni), of_server(&paced, ni));
                }
            }
        }

        #[test]
        fn the_paced_walk_is_round_robin_over_per_server_queues(scan in scan()) {
            let fixture = Fixture::new(&scan);
            let m = fixture.codec().per_server();
            for ShardWalks { range, runs, unpaced, paced } in fixture.walk() {
                // Round-robin over per-server FIFO queues, servers in shard
                // order, one task a queue a round.
                let mut queues: Vec<std::collections::VecDeque<(usize, u32, u32)>> =
                    range.clone().map(|ni| of_server(&unpaced, ni).into()).collect();
                let busiest = queues.iter().map(|queue| queue.len()).max().unwrap_or(0);
                let mut rounds = Vec::new();
                while queues.iter().any(|queue| !queue.is_empty()) {
                    rounds.extend(queues.iter_mut().filter_map(|queue| queue.pop_front()));
                }
                prop_assert_eq!(&paced, &rounds);
                // Its rounds, read off the positions: in order, at most one
                // task a server each, and the busiest server's count of them.
                let round_of = |&(ni, _, pos): &(usize, u32, u32)| {
                    let run = runs.iter().find(|run| run.contains(&ni)).unwrap();
                    (pos as usize - (run.start - range.start) * m) / run.len()
                };
                let server_rounds: Vec<(usize, usize)> =
                    paced.iter().map(|v| (round_of(v), v.0)).collect();
                prop_assert!(server_rounds.windows(2).all(|w| w[0] < w[1]), "{:?}", server_rounds);
                prop_assert_eq!(server_rounds.last().map_or(0, |&(r, _)| r + 1), busiest);
                // With no delegation to skip, no round of a shard of at most
                // `M` servers probes one task twice.
                if fixture.delegations.iter().all(Vec::is_empty) && range.len() <= m {
                    let mut tasks: Vec<(usize, u32)> =
                        paced.iter().map(|v| (round_of(v), v.1)).collect();
                    tasks.sort_unstable();
                    tasks.dedup();
                    prop_assert_eq!(tasks.len(), paced.len());
                }
            }
        }
    }

    /// A nameserver that answers every query with an A record of the asked
    /// name, a stray A record of another name and a TXT record of the
    /// asked name, all in one answer section.
    struct StrayAnswers;

    impl simnet::Node for StrayAnswers {
        fn handle(
            &mut self,
            _now: simnet::SimTime,
            dgram: &simnet::Datagram,
            out: &mut simnet::Actions,
        ) {
            use dnswire::{Message, RData, Record};
            let Ok(q) = Message::decode(&dgram.payload) else {
                return;
            };
            let qname = q.question().expect("one question").qname.clone();
            let mut resp = Message::response_to(&q, Rcode::NoError);
            let a = |name: Name, ip: [u8; 4]| Record::new(name, 60, RData::A(ip.into()));
            resp.answers.push(a(qname.clone(), [192, 0, 2, 10]));
            resp.answers
                .push(a("stray.example".parse().unwrap(), [198, 51, 100, 66]));
            resp.answers
                .push(Record::new(qname, 60, RData::txt_from_str("v=spf1 -all")));
            out.send(dgram.reply(resp.encode().unwrap()));
        }
    }

    /// A UR keeps no owner names or types, so the probe's filter is the one
    /// place a record of another name or type is seen; it keeps the
    /// position it was asked at.
    #[test]
    fn a_ur_keeps_only_the_asked_name_and_type() {
        let (scanner, ns_ip) = (Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 9, 0, 1));
        let mut net = Network::new(3);
        net.register_external(scanner);
        net.add_node(ns_ip, Box::new(StrayAnswers));
        let mut engine = ProbeEngine::new(crate::query::QueryPlan::single_shot());
        let domain: Name = "victim.example".parse().unwrap();
        let ur = query_one_ur(
            &mut net,
            &mut engine,
            scanner,
            (ns_ip, None),
            (&domain, InternedName::intern(&domain)),
            RecordType::A,
            1,
            Sym::intern("P"),
            (3, 7),
            |ur| ur.to_kept(),
        )
        .expect("the probe is answered");
        assert_eq!((ur.shard, ur.index), (3, 7));
        assert_eq!(ur.records.iter().count(), 1);
        assert_eq!(ur.a_ips(), [Ipv4Addr::new(192, 0, 2, 10)]);
    }

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
    #[should_panic(expected = "a shard's URs are one batch")]
    fn a_batch_smaller_than_a_shard_is_refused() {
        let world = World::generate(WorldConfig::small());
        collect_urs_sharded(
            &world.scan_blueprint(),
            crate::query::QueryPlan::single_shot(),
            world.net.faults(),
            None,
            &world.registry,
            &[],
            &[],
            &CollectConfig::default(),
            &mut QueryScheduler::new(7, SimDuration::ZERO),
            1,
            64,
            &mut |_| {},
        );
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
            &mut ProbeEngine::new(crate::query::QueryPlan::single_shot()),
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
            &mut ProbeEngine::new(crate::query::QueryPlan::single_shot()),
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
