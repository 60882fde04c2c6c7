//! A TTL-honoring resolver cache with positive and negative entries.

use dnswire::{Name, Rcode, Record, RecordType};
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;

/// A cached resolution outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedAnswer {
    /// The response code (NOERROR or NXDOMAIN).
    pub(crate) rcode: Rcode,
    /// Answer records (empty for negative entries).
    pub(crate) records: Vec<Record>,
}

#[derive(Debug)]
struct Entry {
    expires: SimTime,
    answer: CachedAnswer,
}

/// Resolver cache keyed by `(qname, qtype)`.
#[derive(Debug, Default)]
pub(crate) struct Cache {
    entries: HashMap<(Name, RecordType), Entry>,
}

/// TTL floor applied to every entry so zero-TTL records do not thrash.
const MIN_TTL: u64 = 1;
/// TTL ceiling (1 day), matching common resolver practice.
const MAX_TTL: u64 = 86_400;
/// Negative-entry TTL when no SOA minimum is available.
const DEFAULT_NEGATIVE_TTL: u64 = 300;

impl Cache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        Cache::default()
    }

    /// Look up a fresh entry.
    pub(crate) fn get(
        &self,
        now: SimTime,
        qname: &Name,
        qtype: RecordType,
    ) -> Option<CachedAnswer> {
        match self.entries.get(&(qname.clone(), qtype)) {
            Some(e) if e.expires > now => Some(e.answer.clone()),
            _ => None,
        }
    }

    /// Insert a positive answer; TTL is the minimum record TTL, clamped.
    pub(crate) fn put_positive(
        &mut self,
        now: SimTime,
        qname: Name,
        qtype: RecordType,
        records: Vec<Record>,
    ) {
        let ttl = records
            .iter()
            .map(|r| r.ttl as u64)
            .min()
            .unwrap_or(DEFAULT_NEGATIVE_TTL);
        let ttl = ttl.clamp(MIN_TTL, MAX_TTL);
        self.entries.insert(
            (qname, qtype),
            Entry {
                expires: now + SimDuration::from_secs(ttl),
                answer: CachedAnswer {
                    rcode: Rcode::NoError,
                    records,
                },
            },
        );
    }

    /// Insert a negative answer (NXDOMAIN or NODATA).
    pub(crate) fn put_negative(
        &mut self,
        now: SimTime,
        qname: Name,
        qtype: RecordType,
        rcode: Rcode,
        ttl: Option<u64>,
    ) {
        let ttl = ttl.unwrap_or(DEFAULT_NEGATIVE_TTL).clamp(MIN_TTL, MAX_TTL);
        self.entries.insert(
            (qname, qtype),
            Entry {
                expires: now + SimDuration::from_secs(ttl),
                answer: CachedAnswer {
                    rcode,
                    records: Vec::new(),
                },
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn rec(ttl: u32) -> Record {
        Record::new(n("a.com"), ttl, RData::A(Ipv4Addr::new(1, 2, 3, 4)))
    }

    #[test]
    fn positive_hit_until_expiry() {
        let mut c = Cache::new();
        let t0 = SimTime::ZERO;
        c.put_positive(t0, n("a.com"), RecordType::A, vec![rec(60)]);
        assert!(c
            .get(t0 + SimDuration::from_secs(59), &n("a.com"), RecordType::A)
            .is_some());
        assert!(c
            .get(t0 + SimDuration::from_secs(61), &n("a.com"), RecordType::A)
            .is_none());
    }

    #[test]
    fn ttl_is_min_of_records() {
        let mut c = Cache::new();
        c.put_positive(
            SimTime::ZERO,
            n("a.com"),
            RecordType::A,
            vec![rec(300), rec(30)],
        );
        assert!(c
            .get(
                SimTime::ZERO + SimDuration::from_secs(31),
                &n("a.com"),
                RecordType::A
            )
            .is_none());
    }

    #[test]
    fn negative_entries() {
        let mut c = Cache::new();
        c.put_negative(
            SimTime::ZERO,
            n("gone.com"),
            RecordType::A,
            Rcode::NxDomain,
            Some(60),
        );
        let hit = c.get(SimTime::ZERO, &n("gone.com"), RecordType::A).unwrap();
        assert_eq!(hit.rcode, Rcode::NxDomain);
        assert!(hit.records.is_empty());
    }

    #[test]
    fn ttl_clamped() {
        let mut c = Cache::new();
        c.put_positive(
            SimTime::ZERO,
            n("z.com"),
            RecordType::A,
            vec![rec(10_000_000)],
        );
        assert!(c
            .get(
                SimTime::ZERO + SimDuration::from_secs(MAX_TTL - 1),
                &n("z.com"),
                RecordType::A
            )
            .is_some());
        assert!(c
            .get(
                SimTime::ZERO + SimDuration::from_secs(MAX_TTL + 1),
                &n("z.com"),
                RecordType::A
            )
            .is_none());
    }

    #[test]
    fn types_are_separate_keys() {
        let mut c = Cache::new();
        c.put_positive(SimTime::ZERO, n("a.com"), RecordType::A, vec![rec(60)]);
        assert!(c.get(SimTime::ZERO, &n("a.com"), RecordType::Txt).is_none());
    }
}
