//! The re-scan scheduler: drives measurement epochs over an evolving
//! world on the simulated clock.
//!
//! Epoch admission reuses the ethics-pacing machinery the one-shot
//! pipeline already has — a [`TokenBucket`] on the virtual clock spaces
//! epoch starts by [`DriverConfig::epoch_interval`], exactly as the
//! per-server buckets space probes — and every scan inside an epoch still
//! runs under whatever pacing the [`HunterConfig`] carries. Between
//! epochs the world drifts ([`worldgen::World::evolve`]): campaigns
//! expire, new ones are planted, the calendar advances. The epoch's
//! classified output is diffed against the [`VerdictStore`] and committed
//! to the [`EventLog`] as a delta (see [`crate::events`]).
//!
//! The driver owns the (thread-bound) world; the publishable state lives
//! in [`LiveState`] so a daemon can keep it behind a lock shared with the
//! HTTP threads while scans run unlocked.

use crate::events::{diff_epoch, event_counts, EpochRecord, EpochSeal, EventLog, VerdictStore};
use obs::Class;
use std::sync::Arc;
use urhunter::{run, ClassifiedUr, CoverageReport, HunterConfig, TokenBucket};
use worldgen::{World, WorldConfig};

/// Which world preset the daemon scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldScale {
    /// The small test world.
    Small,
    /// The default-scale world.
    Default,
    /// The medium benchmark world.
    Medium,
}

impl WorldScale {
    /// Parse the CLI spelling.
    pub(crate) fn parse(s: &str) -> Option<WorldScale> {
        match s {
            "small" => Some(WorldScale::Small),
            "default" => Some(WorldScale::Default),
            "medium" => Some(WorldScale::Medium),
            _ => None,
        }
    }

    /// The world configuration for this scale.
    pub fn config(self) -> WorldConfig {
        match self {
            WorldScale::Small => WorldConfig::small(),
            WorldScale::Default => WorldConfig::default_scale(),
            WorldScale::Medium => WorldConfig::medium(),
        }
    }
}

/// Everything that determines the daemon's measurement behaviour. Two
/// drivers built from equal configs produce bit-identical epoch streams,
/// seals and event bodies, at any scan worker count (pinned by
/// `tests/invariance.rs`), which is what makes the event log replayable
/// and the HTTP answers checkable.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// World preset to scan.
    pub scale: WorldScale,
    /// World seed override (`None` keeps the preset's seed).
    pub seed: Option<u64>,
    /// Minimum simulated time between epoch starts (must be non-zero).
    pub(crate) epoch_interval: simnet::SimDuration,
    /// Calendar days the world drifts before each re-scan (epoch 1 scans
    /// the freshly generated world).
    pub drift_days: u32,
    /// New campaigns planted per drift step.
    pub new_campaigns: usize,
    /// Fraction of non-case-study campaigns expiring per drift step.
    pub expire_fraction: f64,
    /// Pipeline configuration used for every epoch's scan. Any attached
    /// observability hub is ignored: the driver attaches a fresh hub per
    /// epoch so `/metrics` always describes the newest scan.
    pub hunter: HunterConfig,
}

impl DriverConfig {
    /// The default daemon posture: small world, one simulated hour
    /// between epochs, a month of drift per epoch with moderate churn.
    pub fn small() -> Self {
        DriverConfig {
            scale: WorldScale::Small,
            seed: None,
            epoch_interval: simnet::SimDuration::from_secs(3_600),
            drift_days: 30,
            new_campaigns: 25,
            expire_fraction: 0.3,
            hunter: HunterConfig::fast(),
        }
    }
}

/// The shareable side of a running daemon: the event log, the
/// materialized verdict store, and the newest epoch's accounting. A
/// service wraps this in a mutex; tests drive it directly.
#[derive(Debug, Clone, Default)]
pub struct LiveState {
    /// Append-only epoch log.
    pub log: EventLog,
    /// Materialized verdict view over the log.
    pub store: VerdictStore,
    /// Probe accounting of the newest epoch.
    pub coverage: CoverageReport,
    /// Observability hub of the newest epoch (serves `/metrics`).
    pub(crate) hub: Option<Arc<obs::Obs>>,
    /// Completed epochs (equals `log.last_epoch()`).
    pub epochs_done: u64,
    /// The world's calendar day at the newest scan.
    pub(crate) sim_day: u32,
}

/// What one epoch's scan produced, before it is committed to the state.
pub struct EpochScan {
    /// The epoch's full classified output, in pipeline order.
    pub(crate) classified: Vec<ClassifiedUr>,
    /// Digest of `classified`, each UR at its position in the run, folded
    /// by the run.
    pub(crate) sequence_hash: u64,
    /// Probe accounting for the scan.
    pub(crate) coverage: CoverageReport,
    /// The scan's observability hub.
    pub(crate) hub: Arc<obs::Obs>,
    /// Calendar day the scan ran on.
    pub(crate) sim_day: u32,
}

/// Summary of one committed epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochSummary {
    /// The epoch number.
    pub epoch: u64,
    /// Calendar day of the scan.
    pub(crate) sim_day: u32,
    /// New URs observed.
    pub observed: usize,
    /// Verdict flips.
    pub changed: usize,
    /// URs gone.
    pub gone: usize,
    /// The epoch's seal.
    pub seal: EpochSeal,
}

/// Owns the evolving world and turns it into a stream of epochs.
pub struct EpochDriver {
    cfg: DriverConfig,
    world: World,
    bucket: TokenBucket,
    scans_started: u64,
    evolve_seed: u64,
}

impl EpochDriver {
    /// Generate the world and stand ready to scan epoch 1.
    pub fn new(cfg: DriverConfig) -> Self {
        let mut wc = cfg.scale.config();
        if let Some(seed) = cfg.seed {
            wc = wc.with_seed(seed);
        }
        let evolve_seed = wc.seed;
        let world = World::generate(wc);
        let bucket = TokenBucket::new(cfg.epoch_interval);
        EpochDriver {
            cfg,
            world,
            bucket,
            scans_started: 0,
            evolve_seed,
        }
    }

    /// Run one epoch's scan: admit the epoch on the simulated clock,
    /// drift the world (from epoch 2 on), and run the full pipeline with
    /// a fresh observability hub. No shared state is touched — commit the
    /// result with [`EpochDriver::publish`].
    pub fn scan_epoch(&mut self) -> EpochScan {
        // Epoch pacing rides the same token-bucket mechanics as probe
        // pacing: earliest start is one interval after the previous one.
        let now = self.world.net.now();
        let ready = self.bucket.next_ready(now);
        if ready > now {
            self.world.net.run_until(ready);
        }
        self.bucket.take(self.world.net.now());
        if self.scans_started > 0 {
            // Deterministic drift: the seed folds in the epoch index so
            // every epoch's churn is distinct but reproducible.
            self.world.evolve(
                self.cfg.drift_days,
                self.cfg.new_campaigns,
                self.cfg.expire_fraction,
                self.evolve_seed ^ (0xE90C << 16) ^ self.scans_started,
            );
        }
        self.scans_started += 1;
        let hub = obs::Obs::shared();
        let hunter = self.cfg.hunter.clone().with_obs(hub.clone());
        let out = run(&mut self.world, &hunter);
        EpochScan {
            classified: out.classified,
            sequence_hash: out.sequence_hash,
            coverage: out.coverage,
            hub,
            sim_day: self.world.config.today,
        }
    }

    /// Commit a scan to the state: diff against the store, append the
    /// delta to the log, seal the epoch, and expose the scan's hub and
    /// coverage. This is the only place the shared state is written, so a
    /// daemon holds its lock exactly for this call.
    pub fn publish(&self, scan: EpochScan, state: &mut LiveState) -> EpochSummary {
        let epoch = state.log.last_epoch() + 1;
        let events = diff_epoch(&state.store, &scan.classified);
        for event in &events {
            state.store.apply(epoch, event);
        }
        let (observed, changed, gone) = event_counts(&events);
        // Epoch accounting joins the hub's deterministic metrics *before*
        // the seal hashes the sim class, so the sealed hash covers the
        // delta counters too (they are pure functions of the pipeline
        // output, hence identical across worker counts).
        let reg = scan.hub.registry();
        reg.set("daemon_epoch", Class::Sim, epoch as i64);
        reg.set("daemon_sim_day", Class::Sim, scan.sim_day as i64);
        reg.add("daemon_events_observed", Class::Sim, observed as u64);
        reg.add("daemon_events_verdict_changed", Class::Sim, changed as u64);
        reg.add("daemon_events_gone", Class::Sim, gone as u64);
        reg.set(
            "daemon_store_present",
            Class::Sim,
            state.store.present_len() as i64,
        );
        let seal = EpochSeal {
            classified_hash: scan.sequence_hash,
            verdict_hash: state.store.verdict_hash(),
            sim_hash: reg.sim_hash(),
            total_urs: scan.classified.len() as u64,
            present: state.store.present_len(),
        };
        state.log.append(EpochRecord {
            epoch,
            sim_day: scan.sim_day,
            events,
            seal,
        });
        state.coverage = scan.coverage;
        state.hub = Some(scan.hub);
        state.epochs_done = epoch;
        state.sim_day = scan.sim_day;
        EpochSummary {
            epoch,
            sim_day: scan.sim_day,
            observed,
            changed,
            gone,
            seal,
        }
    }

    /// Convenience for tests and benches: scan and publish in one step.
    pub fn step(&mut self, state: &mut LiveState) -> EpochSummary {
        let scan = self.scan_epoch();
        self.publish(scan, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_paced_on_the_sim_clock_and_drift_the_calendar() {
        let mut cfg = DriverConfig::small();
        cfg.epoch_interval = simnet::SimDuration::from_secs(7_200);
        cfg.drift_days = 60;
        let mut driver = EpochDriver::new(cfg);
        let mut state = LiveState::default();
        let day0 = WorldConfig::small().today;

        let s1 = driver.step(&mut state);
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.sim_day, day0);
        assert!(s1.observed > 0, "first epoch must observe URs");
        assert_eq!(s1.changed + s1.gone, 0, "nothing to diff against yet");

        let t_after_1 = driver.world.net.now();
        let s2 = driver.step(&mut state);
        assert_eq!(s2.epoch, 2);
        assert_eq!(s2.sim_day, day0 + 60);
        // Epoch 2 started no earlier than one interval after epoch 1's
        // start; with scans taking less than the interval the bucket must
        // have moved the clock.
        assert!(
            driver.world.net.now() > t_after_1,
            "epoch pacing never advanced the simulated clock"
        );
        assert_eq!(state.epochs_done, 2);
        assert_eq!(state.log.last_epoch(), 2);
        state.log.verify_replay().expect("live log replays");
    }
}
