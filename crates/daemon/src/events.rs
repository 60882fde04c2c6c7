//! Event-sourced verdict storage.
//!
//! Each re-scan epoch is published as a *delta* against the previous
//! state, never as a full report: the pipeline's classified output is
//! diffed against the [`VerdictStore`] and the difference is appended to
//! the [`EventLog`] as [`UrEvent`]s — a UR appeared, its verdict flipped,
//! or it vanished. The log is the source of truth: replaying it from the
//! beginning (or from a [`Snapshot`] produced by compaction) reconstructs
//! the exact live store, and every epoch is sealed with hashes
//! ([`EpochSeal`]) so replay equivalence is checkable, not assumed.
//!
//! Everything here is deterministic in the pipeline output: events within
//! an epoch are ordered by the classified sequence (itself pinned
//! bit-identical across executors and shard counts) followed by
//! disappearances in key order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use urhunter::{ClassifiedUr, UrCategory, UrKey};

/// Logical epoch clock: epoch 1 is the first completed scan.
pub type Epoch = u64;

/// One verdict transition observed by the diff of an epoch against the
/// store. The event stream is the only thing the daemon publishes; the
/// current state is always reconstructible from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrEvent {
    /// A UR not currently in the store was served this epoch (first
    /// appearance, or reappearance after a [`UrEvent::Gone`]).
    Observed {
        /// The UR's identity triple.
        key: UrKey,
        /// Its classified category this epoch.
        verdict: UrCategory,
    },
    /// A UR present in the store came back with a different category.
    VerdictChanged {
        /// The UR's identity triple.
        key: UrKey,
        /// The category on record.
        from: UrCategory,
        /// The category this epoch.
        to: UrCategory,
    },
    /// A UR present in the store was not served this epoch.
    Gone {
        /// The UR's identity triple.
        key: UrKey,
        /// The last category on record.
        last: UrCategory,
    },
}

/// Stable lowercase label for a category (JSON payloads, metrics).
pub fn category_str(c: UrCategory) -> &'static str {
    match c {
        UrCategory::Malicious => "malicious",
        UrCategory::Correct => "correct",
        UrCategory::Protective => "protective",
        UrCategory::Unknown => "unknown",
    }
}

/// Per-UR state carried by the store (and by snapshots, so compaction
/// loses no history the query API serves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrState {
    /// Current (or last known) category.
    pub category: UrCategory,
    /// Whether the last epoch served this UR.
    pub present: bool,
    /// Epoch of first observation.
    pub first_seen: Epoch,
    /// Epoch of the most recent event touching this UR.
    pub(crate) last_event: Epoch,
    /// How many events (including the first observation) touched this UR.
    pub(crate) changes: u32,
}

/// Hashes pinning one epoch's outcome. Sealed into the log next to the
/// epoch's events, so a replay can prove it reconstructed exactly the
/// state the live run published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSeal {
    /// Order-sensitive digest of the epoch's full classified sequence
    /// ([`urhunter::classified_sequence_hash`]).
    pub classified_hash: u64,
    /// Order-independent digest of the verdict store *after* this epoch's
    /// events were applied ([`VerdictStore::verdict_hash`]).
    pub verdict_hash: u64,
    /// The observability registry's deterministic (sim-class) metrics
    /// hash for the epoch's pipeline run; `0` when the run carried no hub.
    pub sim_hash: u64,
    /// URs served this epoch.
    pub total_urs: u64,
    /// URs present in the store after this epoch.
    pub present: u64,
}

/// One epoch's entry in the log: its events, in deterministic order, plus
/// the seal and the world's calendar day when the scan ran.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// The epoch number (1-based).
    pub(crate) epoch: Epoch,
    /// The simulated world's calendar day (`WorldConfig::today`) at scan
    /// time — epochs drift the calendar, so deltas can be dated.
    pub(crate) sim_day: u32,
    /// The epoch's events: observations and verdict changes in classified
    /// sequence order, then disappearances in key order.
    pub events: Vec<UrEvent>,
    /// The epoch's sealing hashes.
    pub seal: EpochSeal,
}

impl EpochRecord {
    /// Count of [`UrEvent::Observed`] events.
    pub(crate) fn observed(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, UrEvent::Observed { .. }))
            .count()
    }

    /// Count of [`UrEvent::VerdictChanged`] events.
    pub(crate) fn changed(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, UrEvent::VerdictChanged { .. }))
            .count()
    }

    /// Count of [`UrEvent::Gone`] events.
    pub(crate) fn gone(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, UrEvent::Gone { .. }))
            .count()
    }
}

/// The materialized view over the event stream: current category and
/// presence per UR, plus a domain index for the query API.
#[derive(Debug, Clone, Default)]
pub struct VerdictStore {
    states: HashMap<UrKey, UrState>,
    // Keyed by the domain's display text (lowercase, no trailing dot), so
    // serving an arbitrary query string never interns attacker-controlled
    // names into the global arena.
    by_domain: HashMap<String, Vec<UrKey>>,
    present: u64,
}

fn hash_one<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

impl VerdictStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        VerdictStore::default()
    }

    /// Apply one event at the given epoch. Events are produced by
    /// [`diff_epoch`] against this same store, so transitions are always
    /// consistent; replay applies the identical sequence.
    pub(crate) fn apply(&mut self, epoch: Epoch, event: &UrEvent) {
        match *event {
            UrEvent::Observed { key, verdict } => {
                let entry = self.states.entry(key);
                match entry {
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        // Reappearance after Gone: keep first_seen history.
                        let s = o.get_mut();
                        debug_assert!(!s.present, "Observed for a present UR");
                        s.present = true;
                        s.category = verdict;
                        s.last_event = epoch;
                        s.changes += 1;
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(UrState {
                            category: verdict,
                            present: true,
                            first_seen: epoch,
                            last_event: epoch,
                            changes: 1,
                        });
                        self.by_domain
                            .entry(key.domain.to_string())
                            .or_default()
                            .push(key);
                    }
                }
                self.present += 1;
            }
            UrEvent::VerdictChanged { key, to, .. } => {
                let s = self
                    .states
                    .get_mut(&key)
                    .expect("VerdictChanged for unknown UR");
                s.category = to;
                s.last_event = epoch;
                s.changes += 1;
            }
            UrEvent::Gone { key, .. } => {
                let s = self.states.get_mut(&key).expect("Gone for unknown UR");
                debug_assert!(s.present, "Gone for an absent UR");
                s.present = false;
                s.last_event = epoch;
                s.changes += 1;
                self.present -= 1;
            }
        }
    }

    /// The state of one UR, if ever observed.
    pub fn get(&self, key: &UrKey) -> Option<&UrState> {
        self.states.get(key)
    }

    /// Every UR ever observed for `domain` (display text, lowercase, no
    /// trailing dot), in first-observation order.
    pub fn domain_keys(&self, domain: &str) -> Option<&[UrKey]> {
        self.by_domain.get(domain).map(Vec::as_slice)
    }

    /// URs currently present (served by the last epoch).
    pub fn present_len(&self) -> u64 {
        self.present
    }

    /// URs ever observed (present or gone).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Order-independent digest of the full store state: XOR of per-entry
    /// digests, so iteration order never matters. Two stores agree iff
    /// every UR carries the same state.
    pub fn verdict_hash(&self) -> u64 {
        let mut acc = 0u64;
        for (key, s) in &self.states {
            acc ^= hash_one(&(
                key.ns_ip,
                key.domain,
                key.rtype.code(),
                s.category as u8,
                s.present,
                s.first_seen,
                s.last_event,
                s.changes,
            ));
        }
        acc
    }

    /// Iterate all states (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&UrKey, &UrState)> {
        self.states.iter()
    }
}

/// Diff one epoch's classified output against the store.
///
/// Returns the epoch's event list in deterministic order: first the
/// classified sequence (observations and verdict changes as they stream
/// out of the pipeline — an order already pinned bit-identical across
/// executors and shard counts), then disappearances sorted by key. The
/// store is *not* mutated; callers apply the events when they commit the
/// epoch (see [`EventLog::append`]).
pub(crate) fn diff_epoch(store: &VerdictStore, classified: &[ClassifiedUr]) -> Vec<UrEvent> {
    let mut events = Vec::new();
    let mut seen: HashMap<UrKey, UrCategory> = HashMap::with_capacity(classified.len());
    for c in classified {
        let key = c.ur.key;
        // The unique-UR identity makes keys distinct within a scan; if a
        // duplicate ever slipped through, the first occurrence wins so
        // replay stays unambiguous.
        if seen.contains_key(&key) {
            continue;
        }
        seen.insert(key, c.category);
        match store.get(&key) {
            Some(s) if s.present => {
                if s.category != c.category {
                    events.push(UrEvent::VerdictChanged {
                        key,
                        from: s.category,
                        to: c.category,
                    });
                }
            }
            _ => events.push(UrEvent::Observed {
                key,
                verdict: c.category,
            }),
        }
    }
    let mut gone: Vec<(UrKey, UrCategory)> = store
        .iter()
        .filter(|(k, s)| s.present && !seen.contains_key(k))
        .map(|(k, s)| (*k, s.category))
        .collect();
    gone.sort_by_key(|(k, _)| (k.ns_ip, k.domain, k.rtype));
    events.extend(
        gone.into_iter()
            .map(|(key, last)| UrEvent::Gone { key, last }),
    );
    events
}

/// A compaction point: the full store state as of an epoch, replacing the
/// events at or before it. Entries are sorted by key so two snapshots of
/// the same state are identical.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The last epoch folded into this snapshot.
    pub(crate) epoch: Epoch,
    /// Full per-UR states, sorted by key.
    pub(crate) entries: Vec<(UrKey, UrState)>,
}

/// The append-only epoch log: an optional snapshot (compaction point)
/// followed by per-epoch event records. Replay — snapshot restore plus
/// event application in order — reconstructs the live store exactly.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    snapshot: Option<Snapshot>,
    epochs: Vec<EpochRecord>,
}

impl EventLog {
    /// Append one epoch's record. Epochs must arrive in order, without
    /// gaps, starting right after the snapshot (or at 1).
    pub(crate) fn append(&mut self, record: EpochRecord) {
        let expected = self.last_epoch() + 1;
        assert_eq!(
            record.epoch, expected,
            "epoch records must be appended in order"
        );
        self.epochs.push(record);
    }

    /// The newest epoch covered by the log (snapshot included); 0 if empty.
    pub fn last_epoch(&self) -> Epoch {
        self.epochs
            .last()
            .map(|r| r.epoch)
            .or(self.snapshot.as_ref().map(|s| s.epoch))
            .unwrap_or(0)
    }

    /// The retained epoch records (those after the snapshot).
    pub fn records(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// Records for epochs strictly after `since`. Records folded into the
    /// snapshot are gone — the second returned flag says whether `since`
    /// predates the compaction point (the caller's delta view is then
    /// incomplete and it should resync from `/verdict` state instead).
    pub fn records_since(&self, since: Epoch) -> (&[EpochRecord], bool) {
        let compacted_past = self.snapshot.as_ref().is_some_and(|s| since < s.epoch);
        let start = self.epochs.partition_point(|r| r.epoch <= since);
        (&self.epochs[start..], compacted_past)
    }

    /// The current snapshot, if the log was ever compacted.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// Total retained events across all retained epochs.
    pub fn event_count(&self) -> usize {
        self.epochs.iter().map(|r| r.events.len()).sum()
    }

    /// Rebuild the store by replaying the snapshot and every retained
    /// event in order.
    pub fn replay(&self) -> VerdictStore {
        let mut store = VerdictStore::new();
        if let Some(snap) = &self.snapshot {
            for (key, state) in &snap.entries {
                store.states.insert(*key, *state);
                store
                    .by_domain
                    .entry(key.domain.to_string())
                    .or_default()
                    .push(*key);
                if state.present {
                    store.present += 1;
                }
            }
        }
        for record in &self.epochs {
            for event in &record.events {
                store.apply(record.epoch, event);
            }
        }
        store
    }

    /// Replay the log and check the result against the newest seal.
    /// Returns the replayed store, or a description of the divergence.
    pub fn verify_replay(&self) -> Result<VerdictStore, String> {
        let store = self.replay();
        if let Some(last) = self.epochs.last() {
            let got = store.verdict_hash();
            if got != last.seal.verdict_hash {
                return Err(format!(
                    "replayed verdict hash {got:#x} != sealed {:#x} at epoch {}",
                    last.seal.verdict_hash, last.epoch
                ));
            }
            if store.present_len() != last.seal.present {
                return Err(format!(
                    "replayed present count {} != sealed {} at epoch {}",
                    store.present_len(),
                    last.seal.present,
                    last.epoch
                ));
            }
        }
        Ok(store)
    }

    /// Compact: fold every record with `epoch <= through` into the
    /// snapshot and drop those records. Replay over the compacted log is
    /// state-equivalent to replay over the full log (pinned by tests).
    pub fn compact_through(&mut self, through: Epoch) {
        if through < self.epochs.first().map(|r| r.epoch).unwrap_or(u64::MAX) {
            return;
        }
        let keep_from = self.epochs.partition_point(|r| r.epoch <= through);
        let folded_epoch = self.epochs[keep_from - 1].epoch;
        // Replay snapshot + folded records into the new snapshot state.
        let tail = self.epochs.split_off(keep_from);
        let store = self.replay();
        let mut entries: Vec<(UrKey, UrState)> = store.iter().map(|(k, s)| (*k, *s)).collect();
        entries.sort_by_key(|(k, _)| (k.ns_ip, k.domain, k.rtype));
        self.snapshot = Some(Snapshot {
            epoch: folded_epoch,
            entries,
        });
        self.epochs = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::RecordType;
    use intern::InternedName;
    use std::net::Ipv4Addr;

    fn key(n: u8, d: &str, rtype: RecordType) -> UrKey {
        UrKey {
            ns_ip: Ipv4Addr::new(20, 0, 0, n),
            domain: InternedName::intern(&d.parse().unwrap()),
            rtype,
        }
    }

    fn classified(key: UrKey, category: UrCategory) -> ClassifiedUr {
        ClassifiedUr {
            ur: urhunter::CollectedUr {
                key,
                records: Vec::new(),
                aux_records: Vec::new(),
                provider: "P".into(),
                authoritative: true,
                recursion_available: false,
            },
            category,
            correct_reason: None,
            txt_category: None,
            corresponding_ips: Vec::new(),
            payload_matched: None,
        }
    }

    fn commit(log: &mut EventLog, store: &mut VerdictStore, epoch: Epoch, urs: &[ClassifiedUr]) {
        let events = diff_epoch(store, urs);
        for e in &events {
            store.apply(epoch, e);
        }
        log.append(EpochRecord {
            epoch,
            sim_day: 2_500 + epoch as u32,
            seal: EpochSeal {
                classified_hash: urhunter::classified_sequence_hash(urs),
                verdict_hash: store.verdict_hash(),
                sim_hash: 0,
                total_urs: urs.len() as u64,
                present: store.present_len(),
            },
            events,
        });
    }

    #[test]
    fn diff_emits_all_three_event_kinds() {
        let a = key(1, "a.com", RecordType::A);
        let b = key(1, "b.com", RecordType::Txt);
        let c = key(2, "c.com", RecordType::A);
        let mut store = VerdictStore::new();
        let mut log = EventLog::default();
        commit(
            &mut log,
            &mut store,
            1,
            &[
                classified(a, UrCategory::Unknown),
                classified(b, UrCategory::Correct),
            ],
        );
        assert_eq!(log.records()[0].observed(), 2);
        assert_eq!(store.present_len(), 2);

        // Epoch 2: a flips to malicious, b disappears, c appears.
        commit(
            &mut log,
            &mut store,
            2,
            &[
                classified(a, UrCategory::Malicious),
                classified(c, UrCategory::Unknown),
            ],
        );
        let r = &log.records()[1];
        assert_eq!((r.observed(), r.changed(), r.gone()), (1, 1, 1));
        assert_eq!(store.get(&a).unwrap().category, UrCategory::Malicious);
        assert!(!store.get(&b).unwrap().present);
        assert_eq!(store.present_len(), 2);

        // Epoch 3: b reappears — first_seen history survives.
        commit(
            &mut log,
            &mut store,
            3,
            &[
                classified(a, UrCategory::Malicious),
                classified(b, UrCategory::Correct),
                classified(c, UrCategory::Unknown),
            ],
        );
        let sb = store.get(&b).unwrap();
        assert!(sb.present);
        assert_eq!(sb.first_seen, 1);
        assert_eq!(sb.changes, 3); // observed, gone, re-observed
    }

    #[test]
    fn replay_matches_live_and_seals_verify() {
        let a = key(1, "a.com", RecordType::A);
        let b = key(3, "b.com", RecordType::Txt);
        let mut store = VerdictStore::new();
        let mut log = EventLog::default();
        commit(
            &mut log,
            &mut store,
            1,
            &[classified(a, UrCategory::Unknown)],
        );
        commit(
            &mut log,
            &mut store,
            2,
            &[
                classified(a, UrCategory::Malicious),
                classified(b, UrCategory::Protective),
            ],
        );
        commit(
            &mut log,
            &mut store,
            3,
            &[classified(b, UrCategory::Protective)],
        );
        let replayed = log.verify_replay().expect("replay verifies");
        assert_eq!(replayed.verdict_hash(), store.verdict_hash());
        assert_eq!(replayed.present_len(), store.present_len());
        assert_eq!(replayed.len(), store.len());
    }

    #[test]
    fn compaction_is_replay_equivalent_and_flags_pre_snapshot_deltas() {
        let a = key(1, "a.com", RecordType::A);
        let b = key(2, "b.com", RecordType::A);
        let mut store = VerdictStore::new();
        let mut log = EventLog::default();
        commit(
            &mut log,
            &mut store,
            1,
            &[classified(a, UrCategory::Unknown)],
        );
        commit(
            &mut log,
            &mut store,
            2,
            &[
                classified(a, UrCategory::Unknown),
                classified(b, UrCategory::Correct),
            ],
        );
        commit(
            &mut log,
            &mut store,
            3,
            &[classified(b, UrCategory::Correct)],
        );

        let full_hash = log.replay().verdict_hash();
        let mut compacted = log.clone();
        compacted.compact_through(2);
        assert_eq!(compacted.records().len(), 1);
        assert_eq!(compacted.snapshot().unwrap().epoch, 2);
        assert_eq!(compacted.replay().verdict_hash(), full_hash);
        assert_eq!(compacted.last_epoch(), 3);
        compacted
            .verify_replay()
            .expect("compacted replay verifies");

        // Deltas after the snapshot are served; earlier ones are flagged.
        let (recs, incomplete) = compacted.records_since(2);
        assert_eq!(recs.len(), 1);
        assert!(!incomplete);
        let (recs, incomplete) = compacted.records_since(0);
        assert_eq!(recs.len(), 1);
        assert!(incomplete, "pre-snapshot delta request must be flagged");

        // Appending after compaction continues the epoch clock.
        let events = diff_epoch(&store, &[]);
        for e in &events {
            store.apply(4, e);
        }
        compacted.append(EpochRecord {
            epoch: 4,
            sim_day: 2_504,
            seal: EpochSeal {
                classified_hash: 0,
                verdict_hash: store.verdict_hash(),
                sim_hash: 0,
                total_urs: 0,
                present: store.present_len(),
            },
            events,
        });
        compacted.verify_replay().expect("replay after append");
    }

    #[test]
    fn domain_index_serves_all_keys_for_a_domain() {
        let a1 = key(1, "dual.com", RecordType::A);
        let a2 = key(2, "dual.com", RecordType::Txt);
        let mut store = VerdictStore::new();
        store.apply(
            1,
            &UrEvent::Observed {
                key: a1,
                verdict: UrCategory::Unknown,
            },
        );
        store.apply(
            1,
            &UrEvent::Observed {
                key: a2,
                verdict: UrCategory::Correct,
            },
        );
        let keys = store.domain_keys("dual.com").unwrap();
        assert_eq!(keys.len(), 2);
        assert!(store.domain_keys("absent.com").is_none());
    }
}
