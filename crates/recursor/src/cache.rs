//! A TTL-honoring resolver cache with positive and negative entries.

use dnswire::{Folded, FoldedName, NameRef, Rcode, Record, RecordType};
use fxhash::FxHashMap;
use simnet::{SimDuration, SimTime};

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

/// Resolver cache keyed by `(qname, qtype)`: the folded name, then each of
/// the few types cached under it. A lookup probes with the question's
/// folded bytes, so it copies no name.
#[derive(Debug, Default)]
pub(crate) struct Cache {
    entries: FxHashMap<FoldedName, Vec<(RecordType, Entry)>>,
}

/// TTL floor applied to every entry so zero-TTL records do not thrash.
const MIN_TTL: u64 = 1;
/// TTL ceiling (1 day), matching common resolver practice.
const MAX_TTL: u64 = 86_400;
/// Negative-entry TTL when no SOA minimum is available.
const DEFAULT_NEGATIVE_TTL: u64 = 300;

/// When an entry learned at `now` with `ttl` seconds expires, the TTL
/// clamped to `[MIN_TTL, MAX_TTL]`.
pub(crate) fn expiry(now: SimTime, ttl: u64) -> SimTime {
    now + SimDuration::from_secs(ttl.clamp(MIN_TTL, MAX_TTL))
}

impl Cache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        Cache::default()
    }

    /// Look up a fresh entry.
    pub(crate) fn get(
        &self,
        now: SimTime,
        qname: Folded<'_>,
        qtype: RecordType,
    ) -> Option<&CachedAnswer> {
        self.entries
            .get(qname.key())?
            .iter()
            .find(|(t, e)| *t == qtype && e.expires > now)
            .map(|(_, e)| &e.answer)
    }

    fn insert(&mut self, qname: NameRef<'_>, qtype: RecordType, entry: Entry) {
        let mut scratch = Vec::new();
        match self.entries.get_mut(qname.fold(&mut scratch).key()) {
            Some(types) => match types.iter_mut().find(|(t, _)| *t == qtype) {
                Some(slot) => slot.1 = entry,
                None => types.push((qtype, entry)),
            },
            None => {
                self.entries
                    .insert(FoldedName::new(qname), vec![(qtype, entry)]);
            }
        }
    }

    /// Insert a positive answer; TTL is the minimum record TTL, clamped.
    /// The records move in, their vector cut to its length: it was
    /// collected from a filter, with room to spare, and is kept for hours.
    pub(crate) fn put_positive(
        &mut self,
        now: SimTime,
        qname: NameRef<'_>,
        qtype: RecordType,
        mut records: Vec<Record>,
    ) {
        records.shrink_to_fit();
        let ttl = records
            .iter()
            .map(|r| r.ttl as u64)
            .min()
            .unwrap_or(DEFAULT_NEGATIVE_TTL);
        let entry = Entry {
            expires: expiry(now, ttl),
            answer: CachedAnswer {
                rcode: Rcode::NoError,
                records,
            },
        };
        self.insert(qname, qtype, entry);
    }

    /// Insert a negative answer (NXDOMAIN or NODATA).
    pub(crate) fn put_negative(
        &mut self,
        now: SimTime,
        qname: NameRef<'_>,
        qtype: RecordType,
        rcode: Rcode,
        ttl: Option<u64>,
    ) {
        let entry = Entry {
            expires: expiry(now, ttl.unwrap_or(DEFAULT_NEGATIVE_TTL)),
            answer: CachedAnswer {
                rcode,
                records: Vec::new(),
            },
        };
        self.insert(qname, qtype, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::{Name, RData};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn rec(ttl: u32) -> Record {
        Record::new(n("a.com"), ttl, RData::A(Ipv4Addr::new(1, 2, 3, 4)))
    }

    fn get(c: &Cache, secs: u64, name: &str, qtype: RecordType) -> Option<CachedAnswer> {
        let name = n(name);
        let mut scratch = Vec::new();
        let now = SimTime::ZERO + SimDuration::from_secs(secs);
        c.get(now, name.borrowed().fold(&mut scratch), qtype)
            .cloned()
    }

    #[test]
    fn positive_hit_until_expiry() {
        let mut c = Cache::new();
        let t0 = SimTime::ZERO;
        c.put_positive(t0, n("a.com").borrowed(), RecordType::A, vec![rec(60)]);
        assert!(get(&c, 59, "a.com", RecordType::A).is_some());
        assert!(get(&c, 61, "a.com", RecordType::A).is_none());
    }

    #[test]
    fn ttl_is_min_of_records() {
        let mut c = Cache::new();
        c.put_positive(
            SimTime::ZERO,
            n("a.com").borrowed(),
            RecordType::A,
            vec![rec(300), rec(30)],
        );
        assert!(get(&c, 31, "a.com", RecordType::A).is_none());
    }

    #[test]
    fn negative_entries() {
        let mut c = Cache::new();
        c.put_negative(
            SimTime::ZERO,
            n("gone.com").borrowed(),
            RecordType::A,
            Rcode::NxDomain,
            Some(60),
        );
        let hit = get(&c, 0, "gone.com", RecordType::A).unwrap();
        assert_eq!(hit.rcode, Rcode::NxDomain);
        assert!(hit.records.is_empty());
    }

    #[test]
    fn ttl_clamped() {
        let mut c = Cache::new();
        c.put_positive(
            SimTime::ZERO,
            n("z.com").borrowed(),
            RecordType::A,
            vec![rec(10_000_000)],
        );
        assert!(get(&c, MAX_TTL - 1, "z.com", RecordType::A).is_some());
        assert!(get(&c, MAX_TTL + 1, "z.com", RecordType::A).is_none());
    }

    #[test]
    fn types_are_separate_keys() {
        let mut c = Cache::new();
        c.put_positive(
            SimTime::ZERO,
            n("a.com").borrowed(),
            RecordType::A,
            vec![rec(60)],
        );
        assert!(get(&c, 0, "a.com", RecordType::Txt).is_none());
        // A second type under the same name, and a name asked in another
        // case, reach the same entries.
        c.put_negative(
            SimTime::ZERO,
            n("A.Com").borrowed(),
            RecordType::Txt,
            Rcode::NoError,
            None,
        );
        assert!(get(&c, 0, "a.COM", RecordType::Txt).is_some());
        assert!(get(&c, 0, "a.com", RecordType::A).is_some());
    }
}
