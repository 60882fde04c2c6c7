//! Full DNS messages: header flags, sections, encode/decode.

use crate::error::{WireError, WireResult};
use crate::name::{CompressionMap, Name, NameRef};
use crate::rdata::RData;
use crate::rdataset::{push_record, RDataSetRef};
use crate::record::{
    encode_body, encode_record, encode_record_body, Question, QuestionView, Record, RecordView,
};
use crate::types::{Class, Opcode, Rcode, RecordType};
use std::fmt;

/// Default maximum size for a UDP DNS payload without EDNS.
pub const MAX_UDP_PAYLOAD: usize = 512;
/// Maximum message size this crate will emit (a common EDNS buffer size).
pub const MAX_MESSAGE_LEN: usize = 4096;

/// Decoded header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flags {
    /// True for responses, false for queries (QR).
    pub response: bool,
    /// Operation code (4 bits).
    pub opcode: Opcode,
    /// Authoritative answer (AA).
    pub authoritative: bool,
    /// Truncation (TC).
    pub truncated: bool,
    /// Recursion desired (RD).
    pub recursion_desired: bool,
    /// Recursion available (RA).
    pub recursion_available: bool,
    /// Authenticated data (AD, RFC 4035).
    pub authentic_data: bool,
    /// Checking disabled (CD, RFC 4035).
    pub checking_disabled: bool,
    /// Response code (4 bits).
    pub rcode: Rcode,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: false,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
        }
    }
}

impl Flags {
    /// Pack into the 16-bit header field.
    pub fn to_u16(self) -> u16 {
        let mut v = 0u16;
        if self.response {
            v |= 0x8000;
        }
        v |= (self.opcode.code() as u16) << 11;
        if self.authoritative {
            v |= 0x0400;
        }
        if self.truncated {
            v |= 0x0200;
        }
        if self.recursion_desired {
            v |= 0x0100;
        }
        if self.recursion_available {
            v |= 0x0080;
        }
        if self.authentic_data {
            v |= 0x0020;
        }
        if self.checking_disabled {
            v |= 0x0010;
        }
        v | self.rcode.code() as u16
    }

    /// Unpack from the 16-bit header field.
    pub fn from_u16(v: u16) -> Self {
        Flags {
            response: v & 0x8000 != 0,
            opcode: Opcode::from_code(((v >> 11) & 0x0F) as u8),
            authoritative: v & 0x0400 != 0,
            truncated: v & 0x0200 != 0,
            recursion_desired: v & 0x0100 != 0,
            recursion_available: v & 0x0080 != 0,
            authentic_data: v & 0x0020 != 0,
            checking_disabled: v & 0x0010 != 0,
            rcode: Rcode::from_code((v & 0x0F) as u8),
        }
    }
}

/// A complete DNS message.
///
/// ```
/// use dnswire::{Message, Question, RecordType};
/// let q = Message::query(0x1234, Question::new("example.com".parse().unwrap(), RecordType::A));
/// let wire = q.encode().unwrap();
/// let back = Message::decode(&wire).unwrap();
/// assert_eq!(back, q);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction identifier used to match responses to queries.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section.
    pub additionals: Vec<Record>,
}

impl Message {
    /// Build a standard recursion-desired query with a single question.
    pub fn query(id: u16, question: Question) -> Message {
        Message {
            id,
            flags: Flags {
                recursion_desired: true,
                ..Flags::default()
            },
            questions: vec![question],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Build a response skeleton mirroring a query's id, question and RD bit.
    pub fn response_to(query: &Message, rcode: Rcode) -> Message {
        Message {
            id: query.id,
            flags: response_flags(&query.flags, rcode),
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// The response code (shorthand for `flags.rcode`).
    pub fn rcode(&self) -> Rcode {
        self.flags.rcode
    }

    /// First question, if any.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Serialize to wire format with name compression. The buffer comes
    /// from this thread's [`crate::bufpool`]; return it with
    /// [`crate::bufpool::release`] once the bytes are consumed to keep the
    /// hot path allocation-free.
    pub fn encode(&self) -> WireResult<Vec<u8>> {
        self.encode_truncated(usize::MAX)
    }

    /// Serialize into a caller-supplied buffer (cleared first), avoiding
    /// any allocation when the buffer's capacity already fits the message.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> WireResult<()> {
        let mut w = MessageWriter::over(std::mem::take(buf), self.id, self.flags, usize::MAX);
        let written = self.write(&mut w);
        let (bytes, sized) = w.into_bytes();
        *buf = bytes;
        written.and(sized)
    }

    /// Wire-size-aware truncation: if the encoded message exceeds `limit`,
    /// drop answer/authority/additional records from the back and set TC.
    /// Returns the encoded bytes.
    pub fn encode_truncated(&self, limit: usize) -> WireResult<Vec<u8>> {
        let mut w = MessageWriter::new(self.id, self.flags, limit);
        self.write(&mut w)?;
        w.finish()
    }

    /// Stream every section into `w`.
    fn write(&self, w: &mut MessageWriter) -> WireResult<()> {
        for (count, what) in [
            (self.questions.len(), "question"),
            (self.answers.len(), "answer"),
            (self.authorities.len(), "authority"),
            (self.additionals.len(), "additional"),
        ] {
            if count > u16::MAX as usize {
                return Err(WireError::CountMismatch {
                    section: what,
                    declared: u16::MAX,
                    parsed: u16::MAX,
                });
            }
        }
        for q in &self.questions {
            w.question(q.qname.borrowed(), q.qtype, q.qclass);
        }
        for (section, records) in [
            (Section::Answer, &self.answers),
            (Section::Authority, &self.authorities),
            (Section::Additional, &self.additionals),
        ] {
            for r in records {
                if !w.push(section, r) {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Parse from wire format. Rejects trailing garbage and section-count
    /// mismatches.
    pub fn decode(msg: &[u8]) -> WireResult<Message> {
        let mut questions = Vec::new();
        let mut sections: [Vec<Record>; 3] = Default::default();
        let view = MessageView::walk(
            msg,
            |q| questions.push(q.to_question()),
            |section, r| sections[section as usize - 1].push(r.to_record()),
        )?;
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            id: view.id,
            flags: view.flags,
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    /// Advertise an EDNS(0) UDP payload size by appending an OPT
    /// pseudo-record to the additional section (RFC 6891: the requestor's
    /// buffer size travels in the CLASS field).
    pub fn add_edns(&mut self, payload_size: u16) {
        self.additionals.push(Record {
            name: Name::root(),
            class: Class::from_code(payload_size),
            ttl: 0,
            rdata: RData::Opt(Vec::new()),
        });
    }

    /// The EDNS(0) payload size advertised by the sender, if any.
    pub fn edns_payload_size(&self) -> Option<u16> {
        self.additionals
            .iter()
            .find(|r| r.rtype() == RecordType::Opt)
            .map(|r| r.class.code())
    }
}

/// The three record sections, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Section {
    /// Answer section.
    Answer = 1,
    /// Authority section.
    Authority = 2,
    /// Additional section.
    Additional = 3,
}

thread_local! {
    /// The buffer [`MessageView::parse_keeping`] writes kept data in, for
    /// its reader to read in place.
    static KEPT: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };

    /// The compression map between writers: taken when a writer starts,
    /// handed back cleared when the writer is consumed, so a thread that
    /// writes message after message builds its map's tables once. A
    /// writer started while another is open gets a map of its own.
    static SPARE_MAP: std::cell::Cell<Option<Box<CompressionMap>>> =
        const { std::cell::Cell::new(None) };
}

/// The one encoder: a DNS message written front to back.
///
/// Header, then questions, then records appended one at a time in section
/// order, names compressed against everything written so far. A record
/// that would push the message past `limit` is rolled back, TC is set and
/// the message is complete as it stands (questions are never rolled back:
/// if they alone pass `limit` they go out whole, with TC). Compression pointers only point
/// backwards, so a prefix of the record list encodes to a prefix of the
/// bytes: stopping at the first record that does not fit yields exactly
/// the bytes of encoding the whole message and re-encoding with records
/// popped off the back until it fits.
///
/// The header is patched in by [`MessageWriter::finish`], so flags may be
/// set at any point ([`MessageWriter::flags_mut`]) — a server learns AA
/// and the rcode only once it has looked the question up.
#[derive(Debug)]
pub struct MessageWriter {
    buf: Vec<u8>,
    /// Boxed, so a writer takes and hands back a pointer, not the map.
    map: Box<CompressionMap>,
    limit: usize,
    id: u16,
    flags: Flags,
    counts: [u16; 4],
    /// A record was rolled back: no further record is accepted.
    cut: bool,
}

impl MessageWriter {
    /// Start a message in a buffer from this thread's [`crate::bufpool`].
    pub(crate) fn new(id: u16, flags: Flags, limit: usize) -> Self {
        MessageWriter::over(crate::bufpool::acquire(), id, flags, limit)
    }

    /// Start a message in `buf` (cleared first).
    fn over(mut buf: Vec<u8>, id: u16, flags: Flags, limit: usize) -> Self {
        buf.clear();
        buf.extend_from_slice(&[0; 12]);
        MessageWriter {
            buf,
            map: SPARE_MAP.take().unwrap_or_default(),
            limit,
            id,
            flags,
            counts: [0; 4],
            cut: false,
        }
    }

    /// Start the response to `query`: its id, opcode and RD bit, and its
    /// question section echoed. The first question is the one the view
    /// kept, copied from where it lies; a question section is only read
    /// again when there is more than one.
    pub fn response_to(query: &MessageView<'_>, rcode: Rcode, limit: usize) -> Self {
        let mut w = MessageWriter::new(query.id, response_flags(&query.flags, rcode), limit);
        let mut echo = |q: QuestionView<'_>| match q.qname.literal() {
            Some(qname) => w.question(qname, q.qtype, q.qclass),
            // Interrupted by a pointer: rare enough to own a copy.
            None => w.question(q.qname.to_name().borrowed(), q.qtype, q.qclass),
        };
        if let Some(first) = query.first {
            echo(first);
        }
        if query.counts[0] > 1 {
            query.questions().skip(1).for_each(echo);
        }
        w
    }

    /// Start the response to the standard query for `question` that
    /// [`encode_query`] writes (RD set, opcode QUERY) under `id`: the
    /// message `Message::response_to(&Message::query(id, q), rcode)`
    /// starts, for a server that answers after the query's bytes are gone.
    pub fn response(id: u16, question: &Question, rcode: Rcode, limit: usize) -> Self {
        let query = Flags {
            recursion_desired: true,
            ..Flags::default()
        };
        let mut w = MessageWriter::new(id, response_flags(&query, rcode), limit);
        w.question(question.qname.borrowed(), question.qtype, question.qclass);
        w
    }

    /// The header flags the finished message will carry.
    pub fn flags_mut(&mut self) -> &mut Flags {
        &mut self.flags
    }

    /// Append a question. Questions come before any record and are never
    /// rolled back.
    pub(crate) fn question(&mut self, qname: NameRef<'_>, qtype: RecordType, qclass: Class) {
        debug_assert_eq!(self.counts[1..], [0; 3], "questions precede records");
        if self.counts[0] == 0 {
            // The first name of a message has nothing to point at: it is
            // written literally, without a look at the map.
            self.map.set_first(self.buf.len(), qname);
            qname.encode_uncompressed(&mut self.buf);
        } else {
            qname.encode_compressed(&mut self.buf, &mut self.map);
        }
        self.buf.extend_from_slice(&qtype.code().to_be_bytes());
        self.buf.extend_from_slice(&qclass.code().to_be_bytes());
        self.counts[0] = self.counts[0].saturating_add(1);
    }

    /// Append `record` to `section`. Returns false — and leaves the message
    /// as it was, marked truncated — when it does not fit.
    pub fn push(&mut self, section: Section, record: &Record) -> bool {
        self.record(
            section,
            record.name.borrowed(),
            record.class,
            record.ttl,
            &record.rdata,
        )
    }

    /// [`MessageWriter::push`] for a record given as its parts.
    pub fn record(
        &mut self,
        section: Section,
        owner: NameRef<'_>,
        class: Class,
        ttl: u32,
        rdata: &RData,
    ) -> bool {
        self.append(section, |buf, map| {
            encode_record(owner, class, ttl, rdata, buf, map)
        })
    }

    /// [`MessageWriter::record`] for a record owned by the name of the
    /// first question: its owner is written as the pointer to that name,
    /// the pointer `record` would emit for it, without comparing the two.
    pub fn record_at_question(
        &mut self,
        section: Section,
        class: Class,
        ttl: u32,
        rdata: &RData,
    ) -> bool {
        self.append(section, |buf, map| {
            map.write_first(buf);
            encode_record_body(class, ttl, rdata, buf, map)
        })
    }

    /// An SOA record given as its parts, names borrowed (built on the
    /// stack with [`NameBuf`](crate::NameBuf) where no zone stores them):
    /// the bytes [`MessageWriter::push`] writes for the `IN` record of
    /// `RData::Soa` at `owner`, `words` being its serial, refresh, retry,
    /// expire and minimum. Allocates nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn soa(
        &mut self,
        section: Section,
        owner: NameRef<'_>,
        ttl: u32,
        mname: NameRef<'_>,
        rname: NameRef<'_>,
        words: [u32; 5],
    ) -> bool {
        self.append(section, |buf, map| {
            owner.encode_compressed(buf, map);
            encode_body(RecordType::Soa, Class::In, ttl, buf, |buf| {
                mname.encode_compressed(buf, map);
                rname.encode_compressed(buf, map);
                for word in words {
                    buf.extend_from_slice(&word.to_be_bytes());
                }
            })
        })
    }

    /// Append the record `encode` writes to `section`, or roll it back.
    fn append(
        &mut self,
        section: Section,
        encode: impl FnOnce(&mut Vec<u8>, &mut CompressionMap),
    ) -> bool {
        let s = section as usize;
        debug_assert_eq!(
            self.counts[s + 1..],
            [0u16; 3][s..],
            "sections in wire order"
        );
        if self.cut || self.counts[s] == u16::MAX {
            self.cut = true;
            return false;
        }
        let mark = self.buf.len();
        encode(&mut self.buf, &mut self.map);
        if self.buf.len() > self.limit {
            // Suffixes this record registered stay in the map with
            // offsets past `mark`; nothing is written after a cut, so
            // nothing can point at them.
            self.buf.truncate(mark);
            self.cut = true;
            return false;
        }
        self.counts[s] += 1;
        true
    }

    /// Patch the header in and hand the buffer out with the verdict on its
    /// size; the compression map goes back to the thread's spare.
    fn into_bytes(mut self) -> (Vec<u8>, WireResult<()>) {
        // Questions are never rolled back, so they alone can overshoot.
        self.flags.truncated |= self.cut || self.buf.len() > self.limit;
        self.buf[0..2].copy_from_slice(&self.id.to_be_bytes());
        self.buf[2..4].copy_from_slice(&self.flags.to_u16().to_be_bytes());
        for (i, count) in self.counts.iter().enumerate() {
            self.buf[4 + 2 * i..6 + 2 * i].copy_from_slice(&count.to_be_bytes());
        }
        self.map.clear();
        SPARE_MAP.set(Some(self.map));
        let result = if self.buf.len() > MAX_MESSAGE_LEN {
            Err(WireError::MessageTooLong(self.buf.len()))
        } else {
            Ok(())
        };
        (self.buf, result)
    }

    /// Complete the message. Fails only when it exceeds
    /// [`MAX_MESSAGE_LEN`] — the questions alone are too long, or the
    /// limit was set above it; the buffer then goes back to the pool.
    pub fn finish(self) -> WireResult<Vec<u8>> {
        match self.into_bytes() {
            (bytes, Ok(())) => Ok(bytes),
            (bytes, Err(e)) => {
                crate::bufpool::release(bytes);
                Err(e)
            }
        }
    }
}

/// A standard recursion-desired query with one `IN` question, written
/// straight into a buffer from this thread's [`crate::bufpool`]: the bytes
/// `Message::query(id, Question::new(qname, qtype)).encode()` produces,
/// without the `Message` — the first name of a message has nothing to be
/// compressed against, so it is always written literally.
pub fn encode_query(id: u16, qname: NameRef<'_>, qtype: RecordType) -> Vec<u8> {
    let flags = Flags {
        recursion_desired: true,
        ..Flags::default()
    };
    let mut buf = crate::bufpool::acquire();
    buf.extend_from_slice(&id.to_be_bytes());
    buf.extend_from_slice(&flags.to_u16().to_be_bytes());
    buf.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 0]);
    qname.encode_uncompressed(&mut buf);
    buf.extend_from_slice(&qtype.code().to_be_bytes());
    buf.extend_from_slice(&Class::In.code().to_be_bytes());
    buf
}

/// Flags of a response to a query that carried `query`: QR set, opcode
/// and RD mirrored, everything else clear.
fn response_flags(query: &Flags, rcode: Rcode) -> Flags {
    Flags {
        response: true,
        opcode: query.opcode,
        recursion_desired: query.recursion_desired,
        rcode,
        ..Flags::default()
    }
}

/// The one parser: a DNS message validated in place.
///
/// [`MessageView::parse`] checks the header, the section counts, every
/// name (pointer bounds, hop limit, 255-byte limit), every RDATA and the
/// absence of trailing bytes, reserving nothing — a declared count is only
/// ever a loop bound, so a header that lies about its counts costs the
/// bytes it arrived in. Sections are then read lazily as borrowed views;
/// [`MessageView::to_message`] makes a [`Message`].
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    msg: &'a [u8],
    /// Transaction identifier.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Entries per section: question, answer, authority, additional.
    counts: [u16; 4],
    /// Where each record section starts.
    starts: [usize; 3],
    /// The first question, as validated: a server reads it, sizes and
    /// echoes its response by it without parsing it again.
    first: Option<QuestionView<'a>>,
}

impl<'a> MessageView<'a> {
    /// Validate `msg`. Rejects trailing garbage and section-count
    /// mismatches.
    pub fn parse(msg: &'a [u8]) -> WireResult<MessageView<'a>> {
        MessageView::walk(msg, |_| (), |_, _| ())
    }

    /// [`MessageView::parse`], keeping the data of each answer record
    /// `keep` accepts as the walk validates it, in answer order, and
    /// handing the view and the kept records to `read`: a reader that
    /// wants nothing else of the answers reads the message once. The
    /// records are read where the walk wrote them, in this thread's
    /// scratch, so nothing is allocated unless `read` copies them
    /// ([`RDataSetRef::to_set`](crate::RDataSetRef::to_set)).
    pub fn parse_keeping<T>(
        msg: &'a [u8],
        keep: impl Fn(&RecordView<'a>) -> bool,
        read: impl FnOnce(&MessageView<'a>, RDataSetRef<'_>) -> T,
    ) -> WireResult<T> {
        let mut kept = KEPT.take();
        kept.clear();
        let walked = MessageView::walk(
            msg,
            |_| (),
            |section, r| {
                if section == Section::Answer && keep(&r) {
                    push_record(&mut kept, &r);
                }
            },
        )
        .map(|view| read(&view, RDataSetRef::of(&kept)));
        KEPT.set(kept);
        walked
    }

    /// [`MessageView::parse`], handing each question and record over as it
    /// is validated — what a caller that wants every one of them owned
    /// ([`Message::decode`]) uses to read the message once, not twice.
    fn walk(
        msg: &'a [u8],
        mut question: impl FnMut(QuestionView<'a>),
        mut record: impl FnMut(Section, RecordView<'a>),
    ) -> WireResult<MessageView<'a>> {
        if msg.len() < 12 {
            return Err(WireError::Truncated {
                offset: msg.len(),
                what: "header",
            });
        }
        let word = |i: usize| u16::from_be_bytes([msg[i], msg[i + 1]]);
        let counts = [word(4), word(6), word(8), word(10)];
        let mut pos = 12;
        let mut first = None;
        for i in 0..counts[0] {
            let q = QuestionView::parse(msg, &mut pos)
                .map_err(|e| short_section(e, "question", counts[0], i))?;
            first = first.or(Some(q));
            question(q);
        }
        let mut starts = [0; 3];
        for (s, (section, label)) in [
            (Section::Answer, "answer"),
            (Section::Authority, "authority"),
            (Section::Additional, "additional"),
        ]
        .into_iter()
        .enumerate()
        {
            starts[s] = pos;
            for i in 0..counts[s + 1] {
                record(
                    section,
                    RecordView::parse(msg, &mut pos)
                        .map_err(|e| short_section(e, label, counts[s + 1], i))?,
                );
            }
        }
        if pos != msg.len() {
            return Err(WireError::TrailingBytes(msg.len() - pos));
        }
        Ok(MessageView {
            msg,
            id: word(0),
            flags: Flags::from_u16(word(2)),
            counts,
            starts,
            first,
        })
    }

    /// The question section.
    pub fn questions(&self) -> impl Iterator<Item = QuestionView<'a>> {
        let (msg, mut pos) = (self.msg, 12);
        (0..self.counts[0]).map_while(move |_| QuestionView::parse(msg, &mut pos).ok())
    }

    /// First question, if any.
    pub fn question(&self) -> Option<QuestionView<'a>> {
        self.first
    }

    fn records(&self, section: Section) -> impl Iterator<Item = RecordView<'a>> + Clone {
        let (msg, mut pos) = (self.msg, self.starts[section as usize - 1]);
        (0..self.counts[section as usize]).map_while(move |_| RecordView::parse(msg, &mut pos).ok())
    }

    /// The answer section.
    pub fn answers(&self) -> impl Iterator<Item = RecordView<'a>> + Clone {
        self.records(Section::Answer)
    }

    /// The authority section.
    pub fn authorities(&self) -> impl Iterator<Item = RecordView<'a>> {
        self.records(Section::Authority)
    }

    /// The additional section.
    pub fn additionals(&self) -> impl Iterator<Item = RecordView<'a>> {
        self.records(Section::Additional)
    }

    /// The EDNS(0) payload size advertised by the sender, if any.
    pub fn edns_payload_size(&self) -> Option<u16> {
        self.additionals()
            .find(|r| r.rtype() == RecordType::Opt)
            .map(|r| r.class.code())
    }

    /// An owned copy: [`Message::decode`] of the bytes behind the view.
    pub fn to_message(self) -> Message {
        Message::decode(self.msg).expect("a view is only ever made of a valid message")
    }
}

/// A section that ends early is reported as a count mismatch.
fn short_section(e: WireError, section: &'static str, declared: u16, parsed: u16) -> WireError {
    match e {
        WireError::Truncated { .. } => WireError::CountMismatch {
            section,
            declared,
            parsed,
        },
        e => e,
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ";; id {} {} {} qd={} an={} ns={} ar={}",
            self.id,
            if self.flags.response {
                "response"
            } else {
                "query"
            },
            self.flags.rcode,
            self.questions.len(),
            self.answers.len(),
            self.authorities.len(),
            self.additionals.len()
        )?;
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for r in &self.answers {
            writeln!(f, "{r}")?;
        }
        for r in &self.authorities {
            writeln!(f, "{r}")?;
        }
        for r in &self.additionals {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NameBuf;
    use crate::rdata::RData;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let q = Message::query(7, Question::new(name("www.example.com"), RecordType::A));
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.flags.authoritative = true;
        r.answers.push(Record::new(
            name("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(203, 0, 113, 10)),
        ));
        r.authorities.push(Record::new(
            name("example.com"),
            3600,
            RData::Ns(name("ns1.example.com")),
        ));
        r.additionals.push(Record::new(
            name("ns1.example.com"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        r
    }

    #[test]
    fn flags_roundtrip_all_bits() {
        for v in [0u16, 0xFFFF, 0x8180, 0x0100, 0x8583, 0x2410] {
            // z-bit (0x0040) is not modeled; mask it out of the comparison
            let masked = v & !0x0040;
            assert_eq!(Flags::from_u16(masked).to_u16(), masked);
        }
    }

    #[test]
    fn query_encode_decode() {
        let q = Message::query(0xBEEF, Question::new(name("a.b.c"), RecordType::Txt));
        let wire = q.encode().unwrap();
        assert_eq!(Message::decode(&wire).unwrap(), q);
    }

    #[test]
    fn full_response_roundtrip() {
        let r = sample_response();
        let wire = r.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, r);
        assert!(back.flags.authoritative);
        assert_eq!(
            back.answers
                .iter()
                .filter(|r| r.rtype() == RecordType::A)
                .count(),
            1
        );
    }

    #[test]
    fn compression_reduces_size() {
        let owner = name("a-rather-long-owner.example.com");
        let q = Message::query(3, Question::new(owner.clone(), RecordType::A));
        let mut r = Message::response_to(&q, Rcode::NoError);
        for i in 0..10u8 {
            r.answers.push(Record::new(
                owner.clone(),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, i)),
            ));
        }
        let wire = r.encode().unwrap();
        // each answer after the first writes a 2-byte pointer instead of the
        // full owner name: 2 + 10 fixed + 4 rdata = 16 bytes per record
        let uncompressed = 12 + owner.wire_len() + 4 + 10 * (owner.wire_len() + 14);
        assert!(wire.len() <= 12 + owner.wire_len() + 4 + 10 * 16);
        assert!(wire.len() < uncompressed);
        assert_eq!(Message::decode(&wire).unwrap(), r);
    }

    #[test]
    fn response_to_mirrors_id_and_question() {
        let q = Message::query(42, Question::new(name("x.y"), RecordType::A));
        let r = Message::response_to(&q, Rcode::NxDomain);
        assert_eq!(r.id, 42);
        assert!(r.flags.response);
        assert!(r.flags.recursion_desired);
        assert_eq!(r.rcode(), Rcode::NxDomain);
        assert_eq!(r.questions, q.questions);
    }

    #[test]
    fn decode_rejects_short_header() {
        assert!(Message::decode(&[0; 11]).is_err());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let q = Message::query(1, Question::new(name("t.example"), RecordType::A));
        let mut wire = q.encode().unwrap();
        wire.push(0);
        assert!(matches!(
            Message::decode(&wire),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn decode_reports_count_mismatch() {
        let q = Message::query(1, Question::new(name("t.example"), RecordType::A));
        let mut wire = q.encode().unwrap();
        // claim one answer that isn't there
        wire[7] = 1;
        assert!(matches!(
            Message::decode(&wire),
            Err(WireError::CountMismatch {
                section: "answer",
                ..
            })
        ));
    }

    #[test]
    fn truncation_sets_tc_and_fits() {
        let mut r = sample_response();
        for i in 0..100u8 {
            r.answers.push(Record::new(
                name(&format!("host{i}.example.com")),
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, i)),
            ));
        }
        let wire = r.encode_truncated(MAX_UDP_PAYLOAD).unwrap();
        assert!(wire.len() <= MAX_UDP_PAYLOAD);
        let back = Message::decode(&wire).unwrap();
        assert!(back.flags.truncated);
        assert!(back.answers.len() < r.answers.len());
    }

    #[test]
    fn no_truncation_when_it_fits() {
        let r = sample_response();
        let wire = r.encode_truncated(MAX_UDP_PAYLOAD).unwrap();
        let back = Message::decode(&wire).unwrap();
        assert!(!back.flags.truncated);
        assert_eq!(back, r);
    }

    #[test]
    fn decode_every_prefix_never_panics() {
        let wire = sample_response().encode().unwrap();
        for cut in 0..wire.len() {
            let _ = Message::decode(&wire[..cut]);
        }
    }

    #[test]
    fn edns_advertisement_roundtrips() {
        let mut q = Message::query(5, Question::new(name("big.example"), RecordType::A));
        assert_eq!(q.edns_payload_size(), None);
        q.add_edns(4096);
        let wire = q.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.edns_payload_size(), Some(4096));
        assert_eq!(back, q);
    }

    #[test]
    fn encode_query_is_the_encoding_of_message_query() {
        for (id, qname, qtype) in [
            (0xBEEF, "a.b.c", RecordType::Txt),
            (1, "WWW.Example.COM", RecordType::A),
            (0xFFFF, "com.com.com", RecordType::Mx),
        ] {
            let wire = Message::query(id, Question::new(name(qname), qtype))
                .encode()
                .unwrap();
            assert_eq!(encode_query(id, name(qname).borrowed(), qtype), wire);
        }
        let root = Message::query(3, Question::new(Name::root(), RecordType::Ns));
        assert_eq!(
            encode_query(3, Name::root().borrowed(), RecordType::Ns),
            root.encode().unwrap()
        );
    }

    #[test]
    fn writer_answers_a_view_without_a_message() {
        let mut q = Message::query(9, Question::new(name("Big.Example"), RecordType::A));
        q.add_edns(1232);
        let wire = q.encode().unwrap();
        let view = MessageView::parse(&wire).unwrap();
        assert_eq!(view.edns_payload_size(), Some(1232));
        let asked = view.question().unwrap();
        let mut w = MessageWriter::response_to(&view, Rcode::NoError, MAX_UDP_PAYLOAD);
        w.flags_mut().authoritative = true;
        let rdata = RData::A(Ipv4Addr::new(192, 0, 2, 1));
        let owner = asked.qname.to_name();
        assert!(w.record(Section::Answer, owner.borrowed(), Class::In, 300, &rdata));
        let resp = w.finish().unwrap();

        let mut want = Message::response_to(&Message::decode(&wire).unwrap(), Rcode::NoError);
        want.flags.authoritative = true;
        want.answers
            .push(Record::new(name("Big.Example"), 300, rdata));
        assert_eq!(resp, want.encode().unwrap());
        // The owner is a pointer at the echoed question: header, question,
        // then 2 + 10 + 4 bytes of record.
        assert_eq!(resp.len(), 12 + 13 + 4 + 16);
    }

    #[test]
    fn writer_answers_a_stored_question_as_the_owned_response() {
        let asked = Question::new(name("Fat.Example"), RecordType::A);
        let records: Vec<Record> = (0..40u8)
            .map(|i| {
                Record::new(
                    name("fat.example"),
                    60,
                    RData::A(Ipv4Addr::new(10, 0, 0, i)),
                )
            })
            .collect();
        for limit in [MAX_UDP_PAYLOAD, MAX_MESSAGE_LEN] {
            let mut w = MessageWriter::response(31, &asked, Rcode::NoError, limit);
            w.flags_mut().recursion_available = true;
            for r in &records {
                w.push(Section::Answer, r);
            }
            let mut want = Message::response_to(&Message::query(31, asked.clone()), Rcode::NoError);
            want.flags.recursion_available = true;
            want.answers = records.clone();
            assert_eq!(w.finish().unwrap(), want.encode_truncated(limit).unwrap());
        }
    }

    /// The bytes after the header of `m`, encoded.
    fn body(m: &Message) -> Vec<u8> {
        m.encode().unwrap()[12..].to_vec()
    }

    /// `name`'s uncompressed wire form.
    fn literal(name: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        Name::encode_uncompressed(&name.parse().unwrap(), &mut buf);
        buf
    }

    /// A record's fixed part: type, class IN, TTL 60 and RDLENGTH.
    fn fixed(rtype: RecordType, rdlength: u16) -> Vec<u8> {
        let mut f = rtype.code().to_be_bytes().to_vec();
        f.extend_from_slice(&[0, 1, 0, 0, 0, 60]);
        f.extend_from_slice(&rdlength.to_be_bytes());
        f
    }

    #[test]
    fn a_root_question_and_a_root_owner_are_each_the_byte_zero() {
        let q = Message::query(1, Question::new(Name::root(), RecordType::Ns));
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(Record::new(
            Name::root(),
            60,
            RData::Ns(name("a.root-servers.net")),
        ));
        let target = literal("a.root-servers.net");
        let mut want = vec![0, 0, 2, 0, 1, 0];
        want.extend(fixed(RecordType::Ns, target.len() as u16));
        want.extend(target);
        assert_eq!(body(&r), want);
        assert_eq!(Message::decode(&r.encode().unwrap()).unwrap(), r);
    }

    #[test]
    fn an_owner_equal_to_the_question_in_another_case_points_at_it() {
        let q = Message::query(2, Question::new(name("Www.Example.COM"), RecordType::A));
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(Record::new(
            name("wWW.example.com"),
            60,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        let mut want = literal("Www.Example.COM");
        want.extend_from_slice(&[0, 1, 0, 1, 0xC0, 0x0C]);
        want.extend(fixed(RecordType::A, 4));
        want.extend_from_slice(&[192, 0, 2, 1]);
        assert_eq!(body(&r), want);
        // The owner reads back in the question's case.
        let back = Message::decode(&r.encode().unwrap()).unwrap();
        assert_eq!(back.answers[0].name.to_string(), "Www.Example.COM");
    }

    #[test]
    fn rdata_names_point_into_the_question() {
        // www.example.com at 12: `example` at 16, `com` at 24.
        let q = Message::query(3, Question::new(name("www.example.com"), RecordType::Any));
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(Record::new(
            name("www.example.com"),
            60,
            RData::Cname(name("Example.com")),
        ));
        r.answers.push(Record::new(
            name("example.com"),
            60,
            RData::Mx {
                preference: 10,
                exchange: name("mail.example.com"),
            },
        ));
        r.authorities.push(Record::new(
            name("example.com"),
            60,
            RData::Soa {
                mname: name("ns1.example.com"),
                rname: name("COM"),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 5,
            },
        ));
        let mut want = literal("www.example.com");
        want.extend_from_slice(&[0, 255, 0, 1]);
        want.extend_from_slice(&[0xC0, 12]);
        want.extend(fixed(RecordType::Cname, 2));
        want.extend_from_slice(&[0xC0, 16]);
        want.extend_from_slice(&[0xC0, 16]);
        want.extend(fixed(RecordType::Mx, 9));
        want.extend_from_slice(&[0, 10, 4, b'm', b'a', b'i', b'l', 0xC0, 16]);
        want.extend_from_slice(&[0xC0, 16]);
        want.extend(fixed(RecordType::Soa, 6 + 2 + 20));
        want.extend_from_slice(&[3, b'n', b's', b'1', 0xC0, 16, 0xC0, 24]);
        for v in 1u32..=5 {
            want.extend_from_slice(&v.to_be_bytes());
        }
        assert_eq!(body(&r), want);
        assert_eq!(Message::decode(&r.encode().unwrap()).unwrap(), r);
    }

    #[test]
    fn a_second_question_compresses_against_the_first() {
        let mut q = Message::query(4, Question::new(name("a.example.com"), RecordType::A));
        q.questions
            .push(Question::new(name("A.EXAMPLE.com"), RecordType::Txt));
        q.questions
            .push(Question::new(name("b.example.com"), RecordType::Mx));
        // `example` of the first question is at 14.
        let mut want = literal("a.example.com");
        want.extend_from_slice(&[0, 1, 0, 1]);
        want.extend_from_slice(&[0xC0, 12, 0, 16, 0, 1]);
        want.extend_from_slice(&[1, b'b', 0xC0, 14, 0, 15, 0, 1]);
        assert_eq!(body(&q), want);
        assert_eq!(Message::decode(&q.encode().unwrap()).unwrap(), q);
    }

    #[test]
    fn a_cut_at_the_first_record_leaves_the_question_alone() {
        let q = Message::query(5, Question::new(name("www.example.com"), RecordType::Txt));
        let mut r = Message::response_to(&q, Rcode::NoError);
        r.answers.push(Record::new(
            name("www.example.com"),
            60,
            RData::txt_from_str(&"x".repeat(100)),
        ));
        let question_only = 12 + literal("www.example.com").len() + 4;
        let wire = r.encode_truncated(question_only + 20).unwrap();
        let mut want = Message::response_to(&q, Rcode::NoError);
        want.flags.truncated = true;
        assert_eq!(wire, want.encode().unwrap());
        assert_eq!(wire.len(), question_only);
        // With room for the record, the same writer points at the question.
        let whole = r.encode_truncated(MAX_UDP_PAYLOAD).unwrap();
        assert_eq!(&whole[question_only..question_only + 2], &[0xC0, 12]);
    }

    #[test]
    fn a_record_at_the_question_is_written_as_a_record_under_its_name() {
        for (asked, owner) in [
            (name("www.Example.com"), name("WWW.example.COM")),
            (Name::root(), Name::root()),
        ] {
            let question = Question::new(asked, RecordType::Ns);
            let write = |at_question: bool| {
                let mut w = MessageWriter::response(9, &question, Rcode::NoError, MAX_UDP_PAYLOAD);
                let soa = RData::Soa {
                    mname: name("ns1.example.com"),
                    rname: name("hostmaster.example.com"),
                    serial: 1,
                    refresh: 2,
                    retry: 3,
                    expire: 4,
                    minimum: 5,
                };
                for rdata in [RData::Ns(name("ns1.example.com")), soa] {
                    let written = if at_question {
                        w.record_at_question(Section::Answer, Class::In, 60, &rdata)
                    } else {
                        w.record(Section::Answer, owner.borrowed(), Class::In, 60, &rdata)
                    };
                    assert!(written);
                }
                w.finish().unwrap()
            };
            assert_eq!(write(true), write(false), "{owner}");
        }
    }

    #[test]
    fn an_soa_from_parts_is_the_pushed_record() {
        // Owners at, below, above and beside the question, the root
        // included, under a second question that names `ns1.` of the
        // owner: every name compresses as the owned record's would.
        for (qname, owner) in [
            ("Example.com", "example.COM"),
            ("www.example.com", "Example.com"),
            ("example.com", "sub.example.com"),
            ("other.net", "example.com"),
            ("example.com", "."),
            (".", "."),
        ] {
            let (qname, owner) = (name(qname), name(owner));
            let mname = NameBuf::child(b"ns1", owner.borrowed()).unwrap();
            let rname = NameBuf::child(b"hostmaster", owner.borrowed()).unwrap();
            let record = Record::new(
                owner.clone(),
                3600,
                RData::Soa {
                    mname: mname.borrowed().to_name(),
                    rname: rname.borrowed().to_name(),
                    serial: 1,
                    refresh: 7200,
                    retry: 3600,
                    expire: 1_209_600,
                    minimum: 300,
                },
            );
            let write = |from_parts: bool| {
                let mut q = Message::query(9, Question::new(qname.clone(), RecordType::Txt));
                q.questions
                    .push(Question::new(mname.borrowed().to_name(), RecordType::A));
                let mut w = MessageWriter::new(9, q.flags, MAX_MESSAGE_LEN);
                for q in &q.questions {
                    w.question(q.qname.borrowed(), q.qtype, q.qclass);
                }
                for section in [Section::Answer, Section::Authority] {
                    let written = if from_parts {
                        w.soa(
                            section,
                            owner.borrowed(),
                            3600,
                            mname.borrowed(),
                            rname.borrowed(),
                            [1, 7200, 3600, 1_209_600, 300],
                        )
                    } else {
                        w.push(section, &record)
                    };
                    assert!(written);
                }
                w.finish().unwrap()
            };
            assert_eq!(write(true), write(false), "{qname} / {owner}");
        }
    }

    #[test]
    fn a_negative_answers_soa_points_into_the_question_where_it_can() {
        // The SOA of `example.com` in authority, after questions that hold
        // its owner, `ns1.<apex>` or `hostmaster.<apex>`, or hold either
        // one above the apex, and after a second question that does.
        // Offsets count from the header's start; the first question is at
        // 12.
        let hm = |at: u8| [&[10][..], b"hostmaster", &[0xC0, at]].concat();
        let ns1 = |at: u8| vec![3, b'n', b's', b'1', 0xC0, at];
        for (questions, owner, mname, rname) in [
            (&["www.example.com"][..], 16, ns1(16), hm(16)),
            (&["ns1.example.com"], 16, vec![0xC0, 12], hm(16)),
            (&["HOSTMASTER.example.com"], 23, ns1(23), vec![0xC0, 12]),
            (&["x.ns1.Example.COM"], 18, vec![0xC0, 14], hm(18)),
            (
                &["example.com", "ns1.example.com"],
                12,
                vec![0xC0, 29],
                hm(12),
            ),
            (
                &["a.example.com", "hostmaster.example.com"],
                14,
                ns1(14),
                vec![0xC0, 31],
            ),
        ] {
            let mut q = Message::query(3, Question::new(name(questions[0]), RecordType::Txt));
            for &more in &questions[1..] {
                q.questions.push(Question::new(name(more), RecordType::A));
            }
            let mut w = MessageWriter::new(3, q.flags, MAX_MESSAGE_LEN);
            for q in &q.questions {
                w.question(q.qname.borrowed(), q.qtype, q.qclass);
            }
            let apex = name("example.com");
            let (m, r) = (
                NameBuf::child(b"ns1", apex.borrowed()).unwrap(),
                NameBuf::child(b"hostmaster", apex.borrowed()).unwrap(),
            );
            assert!(w.soa(
                Section::Authority,
                apex.borrowed(),
                60,
                m.borrowed(),
                r.borrowed(),
                [0; 5]
            ));
            let wire = w.finish().unwrap();
            let mut want = body(&q);
            want.extend_from_slice(&[0xC0, owner]);
            want.extend(fixed(
                RecordType::Soa,
                (mname.len() + rname.len() + 20) as u16,
            ));
            want.extend(mname);
            want.extend(rname);
            want.extend_from_slice(&[0; 20]);
            assert_eq!(wire[12..], want, "{questions:?}");
        }
    }

    #[test]
    fn display_contains_sections() {
        let s = sample_response().to_string();
        assert!(s.contains("NOERROR"));
        assert!(s.contains("www.example.com"));
    }
}
