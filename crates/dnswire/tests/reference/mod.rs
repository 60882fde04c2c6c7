//! The implementation the flat `Name`, `MessageWriter` and `MessageView`
//! replaced, kept as the reference the differential tests compare against:
//! a name as a vector of boxed labels, a per-message compression trie built
//! from scratch, truncation by popping records and re-encoding, and a
//! decoder that builds owned records as it goes. Bodies are the replaced
//! ones verbatim, re-pointed at the crate's public owned types.

use dnswire::{
    Class, Flags, Message, Name, Question, RData, Record, RecordType, WireError, WireResult,
    MAX_LABEL_LEN, MAX_MESSAGE_LEN, MAX_NAME_LEN,
};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};

const MAX_POINTER_HOPS: usize = 128;

/// A name as a sequence of labels, excluding the root.
#[derive(Debug, Clone, Eq)]
pub struct RefName {
    labels: Vec<Box<[u8]>>,
}

impl RefName {
    pub fn from_labels<I, L>(labels: I) -> WireResult<Self>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut out = Vec::new();
        let mut wire_len = 1; // trailing root byte
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::BadName("empty label".into()));
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(l.len()));
            }
            wire_len += 1 + l.len();
            out.push(l.to_vec().into_boxed_slice());
        }
        if wire_len > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire_len));
        }
        Ok(RefName { labels: out })
    }

    /// The same name in the representation under test.
    pub fn of(name: &Name) -> Self {
        RefName::from_labels(name.labels()).expect("a Name upholds the wire limits")
    }

    pub fn to_name(&self) -> Name {
        Name::from_labels(self.labels()).expect("a RefName upholds the wire limits")
    }

    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.labels.iter().map(|l| l.as_ref())
    }

    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
    }

    pub fn parent(&self) -> Option<RefName> {
        if self.labels.is_empty() {
            None
        } else {
            Some(RefName {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> WireResult<RefName> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.as_ref().to_vec());
        labels.extend(self.labels.iter().map(|l| l.to_vec()));
        RefName::from_labels(labels)
    }

    pub fn is_subdomain_of(&self, other: &RefName) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels[offset..]
            .iter()
            .zip(other.labels.iter())
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }

    pub fn suffix(&self, n: usize) -> Option<RefName> {
        if n > self.labels.len() {
            return None;
        }
        Some(RefName {
            labels: self.labels[self.labels.len() - n..].to_vec(),
        })
    }

    fn encode_compressed(&self, buf: &mut Vec<u8>, map: &mut RefCompressionMap) {
        let n = self.labels.len();
        let mut chain = [RefCompressionMap::ROOT; (MAX_NAME_LEN - 1) / 2];
        let mut parent = RefCompressionMap::ROOT;
        for i in (0..n).rev() {
            let node = map.node(parent, &self.labels[i]);
            chain[i] = node;
            parent = node;
        }
        let pointer = (0..n).find_map(|i| map.offset(chain[i]).map(|off| (i, off)));
        let literal_upto = pointer.map_or(n, |(i, _)| i);
        for (node, l) in chain.iter().zip(&self.labels).take(literal_upto) {
            let here = buf.len();
            if here <= 0x3FFF {
                map.record_offset(*node, here as u16);
            }
            buf.push(l.len() as u8);
            buf.extend_from_slice(l);
        }
        match pointer {
            Some((_, off)) => {
                buf.push(0xC0 | ((off >> 8) as u8));
                buf.push((off & 0xFF) as u8);
            }
            None => buf.push(0),
        }
    }

    fn decode(msg: &[u8], pos: &mut usize) -> WireResult<RefName> {
        let mut labels: Vec<Box<[u8]>> = Vec::new();
        let mut wire_len = 1usize;
        let mut cursor = *pos;
        let mut followed_pointer = false;
        let mut hops = 0usize;
        loop {
            let len_byte = *msg.get(cursor).ok_or(WireError::Truncated {
                offset: cursor,
                what: "name label length",
            })?;
            match len_byte {
                0 => {
                    if !followed_pointer {
                        *pos = cursor + 1;
                    }
                    return Ok(RefName { labels });
                }
                1..=63 => {
                    let l = len_byte as usize;
                    let start = cursor + 1;
                    let end = start + l;
                    if end > msg.len() {
                        return Err(WireError::Truncated {
                            offset: start,
                            what: "name label",
                        });
                    }
                    wire_len += 1 + l;
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(wire_len));
                    }
                    labels.push(msg[start..end].to_vec().into_boxed_slice());
                    cursor = end;
                }
                b if b & 0xC0 == 0xC0 => {
                    let second = *msg.get(cursor + 1).ok_or(WireError::Truncated {
                        offset: cursor + 1,
                        what: "compression pointer",
                    })?;
                    let target = (((b & 0x3F) as usize) << 8) | second as usize;
                    if target >= cursor {
                        return Err(WireError::BadPointer { at: cursor, target });
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::PointerLimit);
                    }
                    if !followed_pointer {
                        *pos = cursor + 2;
                        followed_pointer = true;
                    }
                    cursor = target;
                }
                b => return Err(WireError::BadLabelType(b)),
            }
        }
    }
}

impl PartialEq for RefName {
    fn eq(&self, other: &Self) -> bool {
        self.labels.len() == other.labels.len()
            && self
                .labels
                .iter()
                .zip(other.labels.iter())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl Hash for RefName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in &self.labels {
            state.write_usize(l.len());
            for &b in l.iter() {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl PartialOrd for RefName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RefName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a_rev = self.labels.iter().rev();
        let b_rev = other.labels.iter().rev();
        for (a, b) in a_rev.zip(b_rev) {
            let la: Vec<u8> = a.iter().map(|c| c.to_ascii_lowercase()).collect();
            let lb: Vec<u8> = b.iter().map(|c| c.to_ascii_lowercase()).collect();
            match la.cmp(&lb) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.labels.len().cmp(&other.labels.len())
    }
}

impl fmt::Display for RefName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in l.iter() {
                if b.is_ascii_graphic() && b != b'.' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
        }
        Ok(())
    }
}

/// Per-message compression state, rebuilt for every message.
#[derive(Debug, Default)]
struct RefCompressionMap {
    nodes: Vec<RefCompressNode>,
    arena: Vec<u8>,
    index: HashMap<u64, Vec<u32>>,
}

#[derive(Debug, Clone, Copy)]
struct RefCompressNode {
    parent: u32,
    label_start: u32,
    label_len: u8,
    offset: u16,
}

impl RefCompressionMap {
    const ROOT: u32 = u32::MAX;
    const NO_OFFSET: u16 = u16::MAX;

    fn hash_edge(parent: u32, label: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in parent.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in label {
            h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn node_label(&self, id: u32) -> &[u8] {
        let n = &self.nodes[id as usize];
        &self.arena[n.label_start as usize..n.label_start as usize + n.label_len as usize]
    }

    fn node(&mut self, parent: u32, label: &[u8]) -> u32 {
        let h = Self::hash_edge(parent, label);
        if let Some(candidates) = self.index.get(&h) {
            for &id in candidates {
                if self.nodes[id as usize].parent == parent
                    && self.node_label(id).eq_ignore_ascii_case(label)
                {
                    return id;
                }
            }
        }
        let label_start = self.arena.len() as u32;
        self.arena
            .extend(label.iter().map(|b| b.to_ascii_lowercase()));
        let id = self.nodes.len() as u32;
        self.nodes.push(RefCompressNode {
            parent,
            label_start,
            label_len: label.len() as u8,
            offset: Self::NO_OFFSET,
        });
        self.index.entry(h).or_default().push(id);
        id
    }

    fn offset(&self, id: u32) -> Option<u16> {
        let off = self.nodes[id as usize].offset;
        (off != Self::NO_OFFSET).then_some(off)
    }

    fn record_offset(&mut self, id: u32, offset: u16) {
        let n = &mut self.nodes[id as usize];
        if n.offset == Self::NO_OFFSET {
            n.offset = offset;
        }
    }
}

fn encode_name(name: &Name, buf: &mut Vec<u8>, offsets: &mut RefCompressionMap) {
    RefName::of(name).encode_compressed(buf, offsets)
}

fn encode_rdata(rd: &RData, buf: &mut Vec<u8>, offsets: &mut RefCompressionMap) {
    match rd {
        RData::A(ip) => buf.extend_from_slice(&ip.octets()),
        RData::Aaaa(ip) => buf.extend_from_slice(&ip.octets()),
        RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => encode_name(n, buf, offsets),
        RData::Mx {
            preference,
            exchange,
        } => {
            buf.extend_from_slice(&preference.to_be_bytes());
            encode_name(exchange, buf, offsets);
        }
        RData::Txt(chunks) => {
            for c in chunks {
                buf.push(c.len() as u8);
                buf.extend_from_slice(c);
            }
        }
        RData::Soa {
            mname,
            rname,
            serial,
            refresh,
            retry,
            expire,
            minimum,
        } => {
            encode_name(mname, buf, offsets);
            encode_name(rname, buf, offsets);
            for v in [serial, refresh, retry, expire, minimum] {
                buf.extend_from_slice(&v.to_be_bytes());
            }
        }
        RData::Opt(raw) | RData::Unknown { data: raw, .. } => buf.extend_from_slice(raw),
    }
}

fn encode_question(q: &Question, buf: &mut Vec<u8>, offsets: &mut RefCompressionMap) {
    encode_name(&q.qname, buf, offsets);
    buf.extend_from_slice(&q.qtype.code().to_be_bytes());
    buf.extend_from_slice(&q.qclass.code().to_be_bytes());
}

fn encode_record(r: &Record, buf: &mut Vec<u8>, offsets: &mut RefCompressionMap) {
    encode_name(&r.name, buf, offsets);
    buf.extend_from_slice(&r.rtype().code().to_be_bytes());
    buf.extend_from_slice(&r.class.code().to_be_bytes());
    buf.extend_from_slice(&r.ttl.to_be_bytes());
    let len_at = buf.len();
    buf.extend_from_slice(&[0, 0]);
    let data_start = buf.len();
    encode_rdata(&r.rdata, buf, offsets);
    let rdlen = (buf.len() - data_start) as u16;
    buf[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
}

/// `Message::encode` as it was, before its verdict on the length.
pub fn encode_unbounded(m: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&m.id.to_be_bytes());
    buf.extend_from_slice(&m.flags.to_u16().to_be_bytes());
    buf.extend_from_slice(&(m.questions.len() as u16).to_be_bytes());
    buf.extend_from_slice(&(m.answers.len() as u16).to_be_bytes());
    buf.extend_from_slice(&(m.authorities.len() as u16).to_be_bytes());
    buf.extend_from_slice(&(m.additionals.len() as u16).to_be_bytes());
    let mut offsets = RefCompressionMap::default();
    for q in &m.questions {
        encode_question(q, &mut buf, &mut offsets);
    }
    for r in m.answers.iter().chain(&m.authorities).chain(&m.additionals) {
        encode_record(r, &mut buf, &mut offsets);
    }
    buf
}

/// `Message::encode` as it was.
pub fn encode(m: &Message) -> WireResult<Vec<u8>> {
    let buf = encode_unbounded(m);
    if buf.len() > MAX_MESSAGE_LEN {
        return Err(WireError::MessageTooLong(buf.len()));
    }
    Ok(buf)
}

/// `Message::encode_truncated` as it was, silent-server bug included: a
/// message whose untruncated form exceeds `MAX_MESSAGE_LEN` is an error.
pub fn encode_truncated(this: &Message, limit: usize) -> WireResult<Vec<u8>> {
    let full = encode(this)?;
    if full.len() <= limit {
        return Ok(full);
    }
    let mut m = this.clone();
    m.flags.truncated = true;
    while !(m.additionals.is_empty() && m.authorities.is_empty() && m.answers.is_empty()) {
        if !m.additionals.is_empty() {
            m.additionals.pop();
        } else if !m.authorities.is_empty() {
            m.authorities.pop();
        } else {
            m.answers.pop();
        }
        let enc = encode(&m)?;
        if enc.len() <= limit {
            return Ok(enc);
        }
    }
    encode(&m)
}

fn decode_name(msg: &[u8], pos: &mut usize) -> WireResult<Name> {
    RefName::decode(msg, pos).map(|n| n.to_name())
}

fn check_consumed(start: usize, pos: usize, rdlength: usize) -> WireResult<()> {
    if pos - start != rdlength {
        Err(WireError::RdataLength {
            declared: rdlength,
            consumed: pos - start,
        })
    } else {
        Ok(())
    }
}

fn decode_rdata(
    msg: &[u8],
    pos: &mut usize,
    rtype: RecordType,
    rdlength: usize,
) -> WireResult<RData> {
    let start = *pos;
    let end = start
        .checked_add(rdlength)
        .filter(|&e| e <= msg.len())
        .ok_or(WireError::Truncated {
            offset: start,
            what: "rdata",
        })?;
    let out = match rtype {
        RecordType::A => {
            if rdlength != 4 {
                return Err(WireError::RdataLength {
                    declared: rdlength,
                    consumed: 4,
                });
            }
            let o: [u8; 4] = msg[start..end].try_into().expect("checked length");
            *pos = end;
            RData::A(Ipv4Addr::from(o))
        }
        RecordType::Aaaa => {
            if rdlength != 16 {
                return Err(WireError::RdataLength {
                    declared: rdlength,
                    consumed: 16,
                });
            }
            let o: [u8; 16] = msg[start..end].try_into().expect("checked length");
            *pos = end;
            RData::Aaaa(Ipv6Addr::from(o))
        }
        RecordType::Ns | RecordType::Cname | RecordType::Ptr => {
            let n = decode_name(msg, pos)?;
            check_consumed(start, *pos, rdlength)?;
            match rtype {
                RecordType::Ns => RData::Ns(n),
                RecordType::Cname => RData::Cname(n),
                _ => RData::Ptr(n),
            }
        }
        RecordType::Mx => {
            if rdlength < 3 {
                return Err(WireError::RdataLength {
                    declared: rdlength,
                    consumed: 3,
                });
            }
            let preference = u16::from_be_bytes([msg[start], msg[start + 1]]);
            *pos = start + 2;
            let exchange = decode_name(msg, pos)?;
            check_consumed(start, *pos, rdlength)?;
            RData::Mx {
                preference,
                exchange,
            }
        }
        RecordType::Txt => {
            let mut chunks = Vec::new();
            let mut cur = start;
            while cur < end {
                let l = msg[cur] as usize;
                cur += 1;
                if cur + l > end {
                    return Err(WireError::Truncated {
                        offset: cur,
                        what: "txt string",
                    });
                }
                chunks.push(msg[cur..cur + l].to_vec());
                cur += l;
            }
            if chunks.is_empty() {
                chunks.push(Vec::new());
            }
            *pos = end;
            RData::Txt(chunks)
        }
        RecordType::Soa => {
            let mname = decode_name(msg, pos)?;
            let rname = decode_name(msg, pos)?;
            if *pos + 20 > msg.len() {
                return Err(WireError::Truncated {
                    offset: *pos,
                    what: "soa fields",
                });
            }
            let mut words = [0u32; 5];
            for w in words.iter_mut() {
                *w = u32::from_be_bytes([msg[*pos], msg[*pos + 1], msg[*pos + 2], msg[*pos + 3]]);
                *pos += 4;
            }
            check_consumed(start, *pos, rdlength)?;
            RData::Soa {
                mname,
                rname,
                serial: words[0],
                refresh: words[1],
                retry: words[2],
                expire: words[3],
                minimum: words[4],
            }
        }
        RecordType::Opt => {
            *pos = end;
            RData::Opt(msg[start..end].to_vec())
        }
        other => {
            *pos = end;
            RData::Unknown {
                rtype: other.code(),
                data: msg[start..end].to_vec(),
            }
        }
    };
    Ok(out)
}

fn decode_question(msg: &[u8], pos: &mut usize) -> WireResult<Question> {
    let qname = decode_name(msg, pos)?;
    if *pos + 4 > msg.len() {
        return Err(WireError::Truncated {
            offset: *pos,
            what: "question type/class",
        });
    }
    let qtype = RecordType::from_code(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
    let qclass = Class::from_code(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
    *pos += 4;
    Ok(Question {
        qname,
        qtype,
        qclass,
    })
}

fn decode_record(msg: &[u8], pos: &mut usize) -> WireResult<Record> {
    let name = decode_name(msg, pos)?;
    if *pos + 10 > msg.len() {
        return Err(WireError::Truncated {
            offset: *pos,
            what: "record fixed header",
        });
    }
    let rtype = RecordType::from_code(u16::from_be_bytes([msg[*pos], msg[*pos + 1]]));
    let class = Class::from_code(u16::from_be_bytes([msg[*pos + 2], msg[*pos + 3]]));
    let ttl = u32::from_be_bytes([msg[*pos + 4], msg[*pos + 5], msg[*pos + 6], msg[*pos + 7]]);
    let rdlength = u16::from_be_bytes([msg[*pos + 8], msg[*pos + 9]]) as usize;
    *pos += 10;
    let rdata = decode_rdata(msg, pos, rtype, rdlength)?;
    Ok(Record {
        name,
        class,
        ttl,
        rdata,
    })
}

/// `Message::decode` as it was, except that the section vectors grow as
/// records arrive instead of being reserved from the untrusted count.
pub fn decode(msg: &[u8]) -> WireResult<Message> {
    if msg.len() < 12 {
        return Err(WireError::Truncated {
            offset: msg.len(),
            what: "header",
        });
    }
    let id = u16::from_be_bytes([msg[0], msg[1]]);
    let flags = Flags::from_u16(u16::from_be_bytes([msg[2], msg[3]]));
    let qd = u16::from_be_bytes([msg[4], msg[5]]);
    let an = u16::from_be_bytes([msg[6], msg[7]]);
    let ns = u16::from_be_bytes([msg[8], msg[9]]);
    let ar = u16::from_be_bytes([msg[10], msg[11]]);
    let mut pos = 12;
    let mut questions = Vec::new();
    for i in 0..qd {
        match decode_question(msg, &mut pos) {
            Ok(q) => questions.push(q),
            Err(WireError::Truncated { .. }) => {
                return Err(WireError::CountMismatch {
                    section: "question",
                    declared: qd,
                    parsed: i,
                })
            }
            Err(e) => return Err(e),
        }
    }
    let mut sections: [(u16, &'static str, Vec<Record>); 3] = [
        (an, "answer", Vec::new()),
        (ns, "authority", Vec::new()),
        (ar, "additional", Vec::new()),
    ];
    for (count, label, out) in sections.iter_mut() {
        for i in 0..*count {
            match decode_record(msg, &mut pos) {
                Ok(r) => out.push(r),
                Err(WireError::Truncated { .. }) => {
                    return Err(WireError::CountMismatch {
                        section: label,
                        declared: *count,
                        parsed: i,
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }
    if pos != msg.len() {
        return Err(WireError::TrailingBytes(msg.len() - pos));
    }
    let [(_, _, answers), (_, _, authorities), (_, _, additionals)] = sections;
    Ok(Message {
        id,
        flags,
        questions,
        answers,
        authorities,
        additionals,
    })
}
