//! Columnar storage for collected URs.
//!
//! [`UrStore`] is the struct-of-arrays representation of a scan's output:
//! each [`CollectedUr`] field lives in its own parallel column (nameserver
//! addresses, interned domain ids, record-type tags, provider symbols,
//! response flags), and every answer/auxiliary [`Record`] is appended to one
//! shared record arena addressed by per-UR spans. Compared with
//! `Vec<CollectedUr>` this removes the two per-UR `Vec` headers and their
//! separate heap blocks, keeps same-typed data adjacent, and — because the
//! domain column holds 4-byte [`InternedName`] ids and the provider column
//! 4-byte [`Sym`]s — shares every name and provider string across the whole
//! store.
//!
//! The store is *write-once, read-once*: the collector pushes URs in splice
//! order, then the pipeline materializes batch views for the stream
//! classifier ([`UrStore::into_batches`], which moves records out of the
//! arena without cloning), and each UR lives on inside its `ClassifiedUr`.
//! Materialized URs are field-for-field equal to what a plain
//! `Vec<CollectedUr>` sink would have accumulated — pinned by
//! `tests/store_equivalence.rs`.

use crate::types::{CollectedUr, UrKey};
use dnswire::{Record, RecordType};
use intern::{InternedName, Sym};
use std::net::Ipv4Addr;

/// Response-flag bit: the AA flag was set.
const FLAG_AA: u8 = 1 << 0;
/// Response-flag bit: the RA flag was set.
const FLAG_RA: u8 = 1 << 1;

/// Per-UR span into the shared record arena: `len` answer records starting
/// at `start`, immediately followed by `aux` auxiliary records.
#[derive(Debug, Clone, Copy)]
struct RecordSpan {
    start: u32,
    len: u16,
    aux: u16,
}

/// Columnar (struct-of-arrays) store of collected URs.
///
/// See the [module docs](self) for the layout rationale. The store
/// preserves push order exactly; indices are stable and shared across all
/// columns.
#[derive(Debug, Default)]
pub struct UrStore {
    ns_ips: Vec<Ipv4Addr>,
    domains: Vec<InternedName>,
    rtypes: Vec<RecordType>,
    providers: Vec<Sym>,
    flags: Vec<u8>,
    spans: Vec<RecordSpan>,
    arena: Vec<Record>,
}

impl UrStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with room for `urs` URs and `records` arena entries.
    pub fn with_capacity(urs: usize, records: usize) -> Self {
        UrStore {
            ns_ips: Vec::with_capacity(urs),
            domains: Vec::with_capacity(urs),
            rtypes: Vec::with_capacity(urs),
            providers: Vec::with_capacity(urs),
            flags: Vec::with_capacity(urs),
            spans: Vec::with_capacity(urs),
            arena: Vec::with_capacity(records),
        }
    }

    /// Number of stored URs.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the store holds no URs.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total records (answers plus auxiliaries) in the shared arena.
    pub fn record_count(&self) -> usize {
        self.arena.len()
    }

    /// Append one UR, decomposing it into the columns.
    pub fn push(&mut self, ur: CollectedUr) {
        let start = u32::try_from(self.arena.len()).expect("record arena exceeds u32 range");
        let len = u16::try_from(ur.records.len()).expect("answer count exceeds u16 range");
        let aux = u16::try_from(ur.aux_records.len()).expect("aux count exceeds u16 range");
        self.ns_ips.push(ur.key.ns_ip);
        self.domains.push(ur.key.domain);
        self.rtypes.push(ur.key.rtype);
        self.providers.push(ur.provider);
        let mut flags = 0u8;
        if ur.authoritative {
            flags |= FLAG_AA;
        }
        if ur.recursion_available {
            flags |= FLAG_RA;
        }
        self.flags.push(flags);
        self.spans.push(RecordSpan { start, len, aux });
        self.arena.extend(ur.records);
        self.arena.extend(ur.aux_records);
    }

    /// The identity triple of UR `i` — no record materialization.
    pub fn key(&self, i: usize) -> UrKey {
        UrKey {
            ns_ip: self.ns_ips[i],
            domain: self.domains[i],
            rtype: self.rtypes[i],
        }
    }

    /// Materialize UR `i`, cloning its records out of the arena.
    pub fn get(&self, i: usize) -> CollectedUr {
        let span = self.spans[i];
        let start = span.start as usize;
        let mid = start + span.len as usize;
        let end = mid + span.aux as usize;
        CollectedUr {
            key: self.key(i),
            records: self.arena[start..mid].to_vec(),
            aux_records: self.arena[mid..end].to_vec(),
            provider: self.providers[i],
            authoritative: self.flags[i] & FLAG_AA != 0,
            recursion_available: self.flags[i] & FLAG_RA != 0,
        }
    }

    /// Materializing iterator over all URs in push order (clones records).
    pub fn iter(&self) -> impl Iterator<Item = CollectedUr> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Snapshot the whole store as a `Vec<CollectedUr>` in push order.
    pub fn to_vec(&self) -> Vec<CollectedUr> {
        self.iter().collect()
    }

    /// Consume the store into batch views of at most `batch` URs each, in
    /// push order. Records are *moved* out of the arena (no clones), so
    /// this is the zero-copy feed for
    /// [`StreamClassifier::classify_batch_owned`].
    ///
    /// [`StreamClassifier::classify_batch_owned`]: crate::StreamClassifier::classify_batch_owned
    pub fn into_batches(self, batch: usize) -> IntoBatches {
        IntoBatches {
            ns_ips: self.ns_ips.into_iter(),
            domains: self.domains.into_iter(),
            rtypes: self.rtypes.into_iter(),
            providers: self.providers.into_iter(),
            flags: self.flags.into_iter(),
            spans: self.spans.into_iter(),
            arena: self.arena.into_iter(),
            batch: batch.max(1),
        }
    }

    /// Approximate heap footprint in bytes: the columns plus the record
    /// arena headers (record payloads — names and rdata — are not walked;
    /// interned labels are shared and counted once by the interner).
    pub fn approx_heap_bytes(&self) -> usize {
        self.ns_ips.capacity() * std::mem::size_of::<Ipv4Addr>()
            + self.domains.capacity() * std::mem::size_of::<InternedName>()
            + self.rtypes.capacity() * std::mem::size_of::<RecordType>()
            + self.providers.capacity() * std::mem::size_of::<Sym>()
            + self.flags.capacity()
            + self.spans.capacity() * std::mem::size_of::<RecordSpan>()
            + self.arena.capacity() * std::mem::size_of::<Record>()
    }
}

impl Extend<CollectedUr> for UrStore {
    fn extend<T: IntoIterator<Item = CollectedUr>>(&mut self, iter: T) {
        for ur in iter {
            self.push(ur);
        }
    }
}

impl FromIterator<CollectedUr> for UrStore {
    fn from_iter<T: IntoIterator<Item = CollectedUr>>(iter: T) -> Self {
        let mut store = UrStore::new();
        store.extend(iter);
        store
    }
}

/// Consuming batch iterator over a [`UrStore`] (see
/// [`UrStore::into_batches`]).
#[derive(Debug)]
pub struct IntoBatches {
    ns_ips: std::vec::IntoIter<Ipv4Addr>,
    domains: std::vec::IntoIter<InternedName>,
    rtypes: std::vec::IntoIter<RecordType>,
    providers: std::vec::IntoIter<Sym>,
    flags: std::vec::IntoIter<u8>,
    spans: std::vec::IntoIter<RecordSpan>,
    arena: std::vec::IntoIter<Record>,
    batch: usize,
}

impl Iterator for IntoBatches {
    type Item = Vec<CollectedUr>;

    fn next(&mut self) -> Option<Vec<CollectedUr>> {
        let take = self.spans.len().min(self.batch);
        if take == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(take);
        for _ in 0..take {
            let span = self.spans.next().expect("span column exhausted early");
            let flags = self.flags.next().expect("flag column exhausted early");
            out.push(CollectedUr {
                key: UrKey {
                    ns_ip: self.ns_ips.next().expect("ns column exhausted early"),
                    domain: self.domains.next().expect("domain column exhausted early"),
                    rtype: self.rtypes.next().expect("rtype column exhausted early"),
                },
                records: self.arena.by_ref().take(span.len as usize).collect(),
                aux_records: self.arena.by_ref().take(span.aux as usize).collect(),
                provider: self
                    .providers
                    .next()
                    .expect("provider column exhausted early"),
                authoritative: flags & FLAG_AA != 0,
                recursion_available: flags & FLAG_RA != 0,
            });
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::RData;

    fn ur(ns: u8, dom: &str, recs: usize) -> CollectedUr {
        let name: dnswire::Name = dom.parse().unwrap();
        CollectedUr {
            key: UrKey {
                ns_ip: Ipv4Addr::new(198, 51, 100, ns),
                domain: InternedName::intern(&name),
                rtype: RecordType::A,
            },
            records: (0..recs)
                .map(|i| {
                    Record::new(
                        name.clone(),
                        300,
                        RData::A(Ipv4Addr::new(203, 0, 113, i as u8)),
                    )
                })
                .collect(),
            aux_records: Vec::new(),
            provider: Sym::intern("StoreTestDNS"),
            authoritative: ns.is_multiple_of(2),
            recursion_available: ns.is_multiple_of(3),
        }
    }

    #[test]
    fn round_trips_push_order_and_fields() {
        let urs: Vec<CollectedUr> = (0..7)
            .map(|i| ur(i, &format!("d{i}.example"), i as usize % 3))
            .collect();
        let store: UrStore = urs.iter().cloned().collect();
        assert_eq!(store.len(), urs.len());
        assert_eq!(
            store.record_count(),
            urs.iter().map(|u| u.records.len()).sum::<usize>()
        );
        assert_eq!(store.to_vec(), urs);
        for (i, want) in urs.iter().enumerate() {
            assert_eq!(&store.get(i), want);
            assert_eq!(store.key(i), want.key);
        }
    }

    #[test]
    fn into_batches_moves_everything_in_order() {
        let urs: Vec<CollectedUr> = (0..10)
            .map(|i| ur(i, &format!("b{i}.example"), 2))
            .collect();
        let store: UrStore = urs.iter().cloned().collect();
        let batches: Vec<Vec<CollectedUr>> = store.into_batches(3).collect();
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            [3, 3, 3, 1]
        );
        let flat: Vec<CollectedUr> = batches.into_iter().flatten().collect();
        assert_eq!(flat, urs);
    }

    #[test]
    fn empty_store_yields_no_batches() {
        let store = UrStore::new();
        assert!(store.is_empty());
        assert_eq!(store.into_batches(16).count(), 0);
    }
}
