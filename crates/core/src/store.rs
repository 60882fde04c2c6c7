//! The staged scan sink: collected URs in push order.
//!
//! [`UrStore`] holds a scan's [`CollectedUr`]s in splice order and hands
//! them back as owned batches for
//! [`StreamClassifier::classify_batch_owned`](crate::StreamClassifier::classify_batch_owned).
//! [`crate::run`] classifies on the scan workers and does not use it; it is
//! the sink of the benchmark's staged run.

use crate::types::CollectedUr;

/// Collected URs in push order.
#[derive(Debug, Default)]
pub struct UrStore(Vec<CollectedUr>);

impl UrStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored URs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the store holds no URs.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Consume the store into batches of at most `batch` URs each, in push
    /// order. URs are moved, never cloned.
    pub fn into_batches(self, batch: usize) -> impl Iterator<Item = Vec<CollectedUr>> {
        let batch = batch.max(1);
        let mut urs = self.0.into_iter();
        std::iter::from_fn(move || {
            let next: Vec<CollectedUr> = urs.by_ref().take(batch).collect();
            (!next.is_empty()).then_some(next)
        })
    }
}

impl Extend<CollectedUr> for UrStore {
    fn extend<T: IntoIterator<Item = CollectedUr>>(&mut self, iter: T) {
        self.0.extend(iter);
    }
}

impl FromIterator<CollectedUr> for UrStore {
    fn from_iter<T: IntoIterator<Item = CollectedUr>>(iter: T) -> Self {
        UrStore(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::UrKey;
    use dnswire::{RData, Record, RecordType};
    use intern::{InternedName, Sym};
    use std::net::Ipv4Addr;

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
        let mut store = UrStore::new();
        store.extend(urs[..3].iter().cloned());
        store.extend(urs[3..].iter().cloned());
        assert_eq!(store.len(), urs.len());
        let back: Vec<CollectedUr> = store.into_batches(usize::MAX).flatten().collect();
        assert_eq!(back, urs);
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
