//! Owned record data in one buffer: what a scan keeps of an answer.

use crate::rdata::{RData, RDataView};
use crate::record::RecordView;
use crate::types::RecordType;
use std::fmt;

/// Bytes in front of each record's data: its type, then its length.
const HEADER: usize = 4;

/// The record data of a run of records, owned in one buffer: each
/// record's RDATA in uncompressed wire form (every name written out in
/// full, as in RFC 4034 §6.2's canonical form, less the lower-casing)
/// behind its 2-byte type and 2-byte length. Owner names, classes and
/// TTLs are not kept.
///
/// A set is one allocation, sized exactly, and an empty set is none. It
/// is read back as [`RDataView`]s, so nothing is parsed into a [`RData`]
/// or a [`Name`](crate::Name) to be read.
///
/// ```
/// use dnswire::{RData, RDataSet};
/// let set: RDataSet = [
///     RData::A("192.0.2.1".parse().unwrap()),
///     RData::txt_from_str("v=spf1 -all"),
/// ]
/// .into_iter()
/// .collect();
/// let back: Vec<String> = set.iter().map(|r| r.to_string()).collect();
/// assert_eq!(back, ["192.0.2.1", "\"v=spf1 -all\""]);
/// assert!(RDataSet::default().is_empty());
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct RDataSet(Box<[u8]>);

/// A set's records borrowed where they lie: a whole [`RDataSet`], or the
/// records [`MessageView::parse_keeping`](crate::MessageView::parse_keeping)
/// kept of a reply, read before anything is copied out.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct RDataSetRef<'a>(&'a [u8]);

impl<'a> RDataSetRef<'a> {
    /// The records written in `buf` by [`push_record`].
    pub(crate) fn of(buf: &'a [u8]) -> Self {
        RDataSetRef(buf)
    }

    /// Whether the set holds no record.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// The records' data, in order, read in place.
    pub fn iter(self) -> impl Iterator<Item = RDataView<'a>> + 'a {
        let buf = self.0;
        let mut pos = 0;
        std::iter::from_fn(move || {
            let header = buf.get(pos..pos + HEADER)?;
            let rtype = RecordType::from_code(u16::from_be_bytes([header[0], header[1]]));
            let len = u16::from_be_bytes([header[2], header[3]]) as usize;
            pos += HEADER;
            Some(
                RDataView::parse(buf, &mut pos, rtype, len)
                    .expect("a set holds only data it wrote from valid records"),
            )
        })
    }

    /// An owned copy: one exact allocation, none for an empty set.
    pub fn to_set(self) -> RDataSet {
        if self.is_empty() {
            return RDataSet::default();
        }
        RDataSet(self.0.into())
    }
}

impl RDataSet {
    /// This set, borrowed.
    pub fn borrowed(&self) -> RDataSetRef<'_> {
        RDataSetRef(&self.0)
    }

    /// Whether the set holds no record.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The records' data, in order, read in place.
    pub fn iter(&self) -> impl Iterator<Item = RDataView<'_>> + '_ {
        self.borrowed().iter()
    }
}

/// Write the data of `record` at `buf`'s end, in a set's layout.
pub(crate) fn push_record(buf: &mut Vec<u8>, record: &RecordView<'_>) {
    push(buf, record.rtype(), |buf| {
        record.rdata.encode_uncompressed(buf)
    });
}

/// Write one record: its header, then the data `write` puts after it.
fn push(buf: &mut Vec<u8>, rtype: RecordType, write: impl FnOnce(&mut Vec<u8>)) {
    buf.extend_from_slice(&rtype.code().to_be_bytes());
    let len_at = buf.len();
    buf.extend_from_slice(&[0, 0]);
    write(buf);
    // An uncompressed RDATA never outgrows its 16-bit length: byte strings
    // are the wire's own, and a record has at most two names.
    let len = u16::try_from(buf.len() - len_at - 2).expect("RDATA fits a 16-bit length");
    buf[len_at..len_at + 2].copy_from_slice(&len.to_be_bytes());
}

/// A set of owned data, each encoded as a record read off the wire would
/// be.
impl FromIterator<RData> for RDataSet {
    fn from_iter<T: IntoIterator<Item = RData>>(iter: T) -> Self {
        let mut buf = Vec::new();
        for rdata in iter {
            push(&mut buf, rdata.record_type(), |buf| {
                rdata.encode_uncompressed(buf)
            });
        }
        RDataSet(buf.into_boxed_slice())
    }
}

impl fmt::Debug for RDataSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.borrowed().fmt(f)
    }
}

impl fmt::Debug for RDataSetRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, MessageView, Question, Record};

    fn name(s: &str) -> crate::Name {
        s.parse().unwrap()
    }

    /// A response carrying `rdata` under names that share suffixes, so the
    /// encoder compresses the names inside the data.
    fn wire(rdata: &[RData]) -> Vec<u8> {
        let q = Message::query(7, Question::new(name("example.com"), RecordType::Any));
        let mut resp = Message::response_to(&q, crate::Rcode::NoError);
        for rd in rdata {
            resp.answers
                .push(Record::new(name("example.com"), 60, rd.clone()));
        }
        resp.encode().unwrap()
    }

    fn sample() -> Vec<RData> {
        vec![
            RData::A("192.0.2.1".parse().unwrap()),
            RData::Mx {
                preference: 10,
                exchange: name("mx.example.com"),
            },
            RData::txt_from_str(&"t".repeat(300)),
            RData::txt_from_str(""),
            RData::Ns(name("ns1.example.com")),
            RData::Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 5,
            },
        ]
    }

    #[test]
    fn a_set_reads_back_what_the_wire_carried() {
        let rdata = sample();
        let bytes = wire(&rdata);
        let set = MessageView::parse_keeping(&bytes, |_| true, |_, set| set.to_set()).unwrap();
        let view = MessageView::parse(&bytes).unwrap();
        let back: Vec<RDataView<'_>> = set.iter().collect();
        assert_eq!(back.len(), rdata.len());
        for ((kept, on_wire), owned) in back.iter().zip(view.answers()).zip(&rdata) {
            assert_eq!(kept.to_rdata(), on_wire.rdata.to_rdata());
            assert!(*kept == *owned, "{kept} vs {owned}");
            assert_eq!(kept.to_string(), owned.to_string());
            assert_eq!(kept.record_type(), on_wire.rtype());
        }
        // Collected from owned data, the same bytes.
        assert_eq!(rdata.into_iter().collect::<RDataSet>(), set);
    }

    #[test]
    fn empty_txt_data_is_one_empty_string() {
        let set: RDataSet = [RData::Txt(Vec::new())].into_iter().collect();
        let only = set.iter().next().unwrap();
        assert!(only == RData::Txt(vec![Vec::new()]));
        assert!(only != RData::Txt(Vec::new()));
        assert_eq!(only.txt_str().as_deref(), Some(""));
        assert_eq!(only.to_string(), "\"\"");
    }

    #[test]
    fn txt_equality_keeps_chunk_boundaries() {
        let split = RData::Txt(vec![b"ab".to_vec(), b"c".to_vec()]);
        let set: RDataSet = [split.clone()].into_iter().collect();
        let view = set.iter().next().unwrap();
        assert!(view == split);
        assert!(view != RData::Txt(vec![b"abc".to_vec()]));
        assert_eq!(view.txt_str().as_deref(), Some("abc"));
    }

    #[test]
    fn names_compare_case_insensitively() {
        let set: RDataSet = [RData::Cname(name("Target.Example"))].into_iter().collect();
        let view = set.iter().next().unwrap();
        assert!(view == RData::Cname(name("target.example")));
        assert!(view != RData::Ptr(name("target.example")));
        assert_eq!(view.to_string(), "Target.Example");
    }
}
