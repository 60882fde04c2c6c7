//! # pdns — passive DNS history
//!
//! The paper's authors "collaborated with one of the largest DNS providers
//! in the world and collected all historical delegated records in the last
//! six years from passive DNS data" (§4.1). That feed is closed; this crate
//! is its synthetic stand-in: an append-only store of historical resolution
//! facts with time-windowed queries.
//!
//! URHunter's Appendix-B condition 5 is a membership test here: an
//! undelegated record whose data appeared in the domain's resolution
//! history (e.g. a *past delegation* to a provider later abandoned) is a
//! correct record, not an abuse.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

use dnswire::{Name, RData, RecordType};
use fxhash::FxHashMap;
use intern::InternedName;

/// A day index (days since an arbitrary epoch). The world generator decides
/// what "today" is; six years is 2,190 days.
pub type Day = u32;

/// The default retrospective window: six years, as in the paper.
pub const SIX_YEARS_DAYS: u32 = 2_190;

/// One historical observation: `domain` resolved to `rdata` (through the
/// then-delegated infrastructure) between `first_seen` and `last_seen`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HistoricalRecord {
    /// The owner name observed.
    pub(crate) domain: Name,
    /// Record type observed.
    pub(crate) rtype: RecordType,
    /// The observed data.
    pub(crate) rdata: RData,
    /// First observation day.
    pub(crate) first_seen: Day,
    /// Last observation day.
    pub(crate) last_seen: Day,
}

/// The passive-DNS store.
#[derive(Debug, Default)]
pub struct PassiveDns {
    by_domain: FxHashMap<InternedName, Vec<HistoricalRecord>>,
}

impl PassiveDns {
    /// An empty store.
    pub fn new() -> Self {
        PassiveDns::default()
    }

    /// Record an observation.
    ///
    /// # Panics
    /// Panics if `first_seen > last_seen` — the generator produced an
    /// impossible interval.
    pub fn observe(
        &mut self,
        domain: Name,
        rtype: RecordType,
        rdata: RData,
        first_seen: Day,
        last_seen: Day,
    ) {
        assert!(first_seen <= last_seen, "inverted observation interval");
        self.by_domain
            .entry(InternedName::intern(&domain))
            .or_default()
            .push(HistoricalRecord {
                domain,
                rtype,
                rdata,
                first_seen,
                last_seen,
            });
    }

    /// Is `r`'s lifetime inside `[today - window, today]`?
    fn in_window(r: &HistoricalRecord, today: Day, window: u32) -> bool {
        r.last_seen >= today.saturating_sub(window) && r.first_seen <= today
    }

    fn windowed(
        &self,
        domain: &InternedName,
        today: Day,
        window: u32,
    ) -> impl Iterator<Item = &HistoricalRecord> {
        let records = self.by_domain.get(domain).map_or(&[][..], Vec::as_slice);
        records
            .iter()
            .filter(move |r| Self::in_window(r, today, window))
    }

    /// Appendix-B condition 5: was `rdata` ever observed for `domain`
    /// (of the same type) within the window? `rdata` is an owned
    /// [`RData`] or data read in place, such as a
    /// [`dnswire::RDataView`] of a kept answer.
    pub fn contains<R: ?Sized>(
        &self,
        domain: &InternedName,
        rtype: RecordType,
        rdata: &R,
        today: Day,
        window: u32,
    ) -> bool
    where
        RData: PartialEq<R>,
    {
        self.windowed(domain, today, window)
            .any(|r| r.rtype == rtype && r.rdata == *rdata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn i(s: &str) -> InternedName {
        s.parse().unwrap()
    }

    fn a(ip: [u8; 4]) -> RData {
        RData::A(Ipv4Addr::from(ip))
    }

    #[test]
    fn membership_within_window() {
        let mut p = PassiveDns::new();
        p.observe(n("example.com"), RecordType::A, a([1, 2, 3, 4]), 100, 500);
        assert!(p.contains(
            &i("example.com"),
            RecordType::A,
            &a([1, 2, 3, 4]),
            600,
            SIX_YEARS_DAYS
        ));
        assert!(!p.contains(
            &i("example.com"),
            RecordType::A,
            &a([9, 9, 9, 9]),
            600,
            SIX_YEARS_DAYS
        ));
        assert!(!p.contains(
            &i("other.com"),
            RecordType::A,
            &a([1, 2, 3, 4]),
            600,
            SIX_YEARS_DAYS
        ));
    }

    #[test]
    fn window_excludes_ancient_history() {
        let mut p = PassiveDns::new();
        p.observe(n("old.com"), RecordType::A, a([1, 1, 1, 1]), 0, 10);
        // today = 3000, window = 2190 -> horizon = 810; record died at day 10
        assert!(!p.contains(
            &i("old.com"),
            RecordType::A,
            &a([1, 1, 1, 1]),
            3000,
            SIX_YEARS_DAYS
        ));
        // shorter lookback from an earlier "today" still sees it
        assert!(p.contains(&i("old.com"), RecordType::A, &a([1, 1, 1, 1]), 100, 2000));
    }

    #[test]
    fn future_records_are_invisible() {
        let mut p = PassiveDns::new();
        p.observe(n("new.com"), RecordType::A, a([2, 2, 2, 2]), 500, 600);
        assert!(!p.contains(
            &i("new.com"),
            RecordType::A,
            &a([2, 2, 2, 2]),
            400,
            SIX_YEARS_DAYS
        ));
    }

    #[test]
    fn kept_data_is_looked_up_in_place() {
        let mut p = PassiveDns::new();
        let spf = RData::Txt(vec![b"v=spf1 ".to_vec(), b"-all".to_vec()]);
        p.observe(n("t.com"), RecordType::Txt, spf.clone(), 100, 200);
        let kept: dnswire::RDataSet = [spf, RData::txt_from_str("v=spf1 -all")]
            .into_iter()
            .collect();
        let found: Vec<bool> = kept
            .iter()
            .map(|r| p.contains(&i("t.com"), RecordType::Txt, &r, 200, SIX_YEARS_DAYS))
            .collect();
        // The same text in one chunk is other data.
        assert_eq!(found, [true, false]);
    }

    #[test]
    fn type_must_match() {
        let mut p = PassiveDns::new();
        p.observe(n("x.com"), RecordType::A, a([3, 3, 3, 3]), 100, 200);
        assert!(!p.contains(
            &i("x.com"),
            RecordType::Txt,
            &a([3, 3, 3, 3]),
            200,
            SIX_YEARS_DAYS
        ));
    }

    #[test]
    fn history_lists_intersecting_records() {
        let mut p = PassiveDns::new();
        p.observe(n("d.com"), RecordType::A, a([1, 0, 0, 1]), 0, 100);
        p.observe(n("d.com"), RecordType::A, a([1, 0, 0, 2]), 200, 300);
        p.observe(
            n("d.com"),
            RecordType::Txt,
            RData::txt_from_str("v=spf1"),
            250,
            400,
        );
        assert_eq!(p.windowed(&i("d.com"), 300, 150).count(), 2);
        assert_eq!(p.by_domain.values().map(Vec::len).sum::<usize>(), 3);
        assert_eq!(p.by_domain.len(), 1);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        let mut p = PassiveDns::new();
        p.observe(n("x.com"), RecordType::A, a([1, 1, 1, 1]), 10, 5);
    }
}
