//! Domain names: parsing, formatting, wire encoding with compression and
//! decoding with pointer-chase protection.
//!
//! Three representations share one set of semantics (case-insensitive
//! equality and hashing, canonical ordering, case-preserving display):
//!
//! * [`Name`] owns its bytes — one contiguous buffer holding the
//!   uncompressed wire form, so an owned name is at most one allocation;
//! * [`NameRef`] borrows such a buffer (a whole name, or any suffix of one)
//!   and is what lookups and encoders take;
//! * [`WireName`] is a validated name still sitting inside a message,
//!   compression pointers and all — what the parser yields.

use crate::error::{WireError, WireResult};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire, including length bytes and the root
/// label (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Upper bound on compression pointers followed per name; a legitimate name
/// can never need more than `MAX_NAME_LEN` hops.
const MAX_POINTER_HOPS: usize = 128;
/// Most labels a name within [`MAX_NAME_LEN`] can have (each costs at
/// least a length byte and one octet, plus the root byte).
const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;
/// Longest flat form: the wire form without the trailing root byte.
const MAX_FLAT_LEN: usize = MAX_NAME_LEN - 1;

/// A fully-qualified domain name.
///
/// Stored as the uncompressed wire form without the root byte
/// (`len label len label …`) in one buffer, plus the label count.
/// Comparison and hashing are case-insensitive per RFC 1035 §2.3.3; the
/// original case of each label is preserved for display.
///
/// ```
/// use dnswire::Name;
/// let n: Name = "WWW.Example.COM".parse().unwrap();
/// assert_eq!(n, "www.example.com".parse().unwrap());
/// assert_eq!(n.label_count(), 3);
/// assert!(n.is_subdomain_of(&"example.com".parse().unwrap()));
/// ```
#[derive(Clone)]
pub struct Name {
    flat: Box<[u8]>,
    labels: u8,
}

/// A borrowed name: a whole [`Name`], a suffix of one, or a name where it
/// lies in a message. `Copy`, allocation-free, and interchangeable with
/// `&Name` wherever a name is only read; [`NameRef::fold`] makes it a map
/// key.
#[derive(Clone, Copy)]
pub struct NameRef<'a> {
    /// Well-formed flat form: every length byte is 1..=63 and the labels
    /// tile the slice exactly. Only this module constructs one.
    flat: &'a [u8],
    labels: u8,
}

/// Iterator over a name's labels, leftmost first.
struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        Some(label)
    }
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name {
            flat: Box::default(),
            labels: 0,
        }
    }

    /// Construct a name from raw labels. Each label must be 1..=63 octets and
    /// the total wire length must not exceed [`MAX_NAME_LEN`].
    pub fn from_labels<I, L>(labels: I) -> WireResult<Self>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut flat = Vec::new();
        let mut count = 0usize;
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(WireError::BadName("empty label".into()));
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(l.len()));
            }
            flat.push(l.len() as u8);
            flat.extend_from_slice(l);
            count += 1;
        }
        if flat.len() > MAX_FLAT_LEN {
            return Err(WireError::NameTooLong(flat.len() + 1));
        }
        Ok(Name {
            flat: flat.into_boxed_slice(),
            labels: count as u8,
        })
    }

    /// This name, borrowed.
    pub fn borrowed(&self) -> NameRef<'_> {
        NameRef {
            flat: &self.flat,
            labels: self.labels,
        }
    }

    /// Number of labels, excluding the root.
    pub fn label_count(&self) -> usize {
        self.labels as usize
    }

    /// Iterate over the labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        self.borrowed().labels()
    }

    /// Wire-format length of this name when written without compression.
    pub fn wire_len(&self) -> usize {
        self.flat.len() + 1
    }

    /// The parent name (one label stripped from the left), or `None` at root.
    pub fn parent(&self) -> Option<Name> {
        self.borrowed().parent().map(NameRef::to_name)
    }

    /// Prepend a label, producing a child name in one allocation.
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        let label = label.as_ref();
        if label.is_empty()
            || label.len() > MAX_LABEL_LEN
            || 1 + label.len() + self.flat.len() > MAX_FLAT_LEN
        {
            // The error the general constructor reports.
            return Name::from_labels(std::iter::once(label).chain(self.labels()));
        }
        Ok(Name {
            flat: [&[label.len() as u8][..], label, &self.flat]
                .concat()
                .into_boxed_slice(),
            labels: self.labels + 1,
        })
    }

    /// True if `self` is equal to `other` or is a descendant of it.
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.borrowed().is_subdomain_of(other.borrowed())
    }

    /// True if `self` is strictly below `other` (subdomain but not equal).
    pub fn is_strict_subdomain_of(&self, other: &Name) -> bool {
        self.label_count() > other.label_count() && self.is_subdomain_of(other)
    }

    /// The trailing `n` labels as a name (e.g. `suffix(2)` of
    /// `www.example.com` is `example.com`). Returns `None` if `n` exceeds the
    /// label count.
    pub fn suffix(&self, n: usize) -> Option<Name> {
        self.borrowed().suffix(n).map(NameRef::to_name)
    }

    /// Encode at `buf`'s end without compression.
    pub fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        self.borrowed().encode_uncompressed(buf)
    }

    /// Encode with DNS name compression (see [`NameRef::encode_compressed`]).
    pub(crate) fn encode_compressed(&self, buf: &mut Vec<u8>, map: &mut CompressionMap) {
        self.borrowed().encode_compressed(buf, map)
    }

    /// Decode a (possibly compressed) name from `msg` starting at `*pos`.
    ///
    /// `*pos` is advanced past the name as it appears at the original
    /// location (pointers count as two bytes). Pointer chases are bounded and
    /// must always point strictly backwards, which both matches RFC 1035
    /// encoders in practice and guarantees termination.
    pub fn decode(msg: &[u8], pos: &mut usize) -> WireResult<Name> {
        WireName::parse(msg, pos).map(|n| n.to_name())
    }
}

impl<'a> NameRef<'a> {
    /// Number of labels, excluding the root.
    pub fn label_count(self) -> usize {
        self.labels as usize
    }

    /// True for the root name.
    pub(crate) fn is_root(self) -> bool {
        self.labels == 0
    }

    /// Iterate over the labels, leftmost (most specific) first.
    pub fn labels(self) -> impl Iterator<Item = &'a [u8]> {
        Labels { rest: self.flat }
    }

    /// An owned copy.
    pub fn to_name(self) -> Name {
        Name {
            flat: self.flat.into(),
            labels: self.labels,
        }
    }

    /// This name folded for a map lookup: borrowed as it is when it has
    /// no upper-case letter (a generated world's names never do), else
    /// copied lowercased into `scratch`, which keeps its capacity for the
    /// next fold.
    pub fn fold<'s>(self, scratch: &'s mut Vec<u8>) -> Folded<'s>
    where
        'a: 's,
    {
        // No early exit: the whole name is one vectorized pass.
        if !self
            .flat
            .iter()
            .fold(false, |upper, b| upper | b.is_ascii_uppercase())
        {
            return Folded(self);
        }
        scratch.clear();
        scratch.extend(self.flat.iter().map(u8::to_ascii_lowercase));
        Folded(NameRef {
            flat: scratch,
            labels: self.labels,
        })
    }

    /// The trailing `n` labels, or `None` if `n` exceeds the label count.
    /// Borrows from the same buffer: no allocation.
    pub fn suffix(self, n: usize) -> Option<NameRef<'a>> {
        let skip = self.label_count().checked_sub(n)?;
        let mut rest = self.flat;
        for _ in 0..skip {
            rest = &rest[1 + rest[0] as usize..];
        }
        Some(NameRef {
            flat: rest,
            labels: n as u8,
        })
    }

    /// The parent name (one label stripped from the left), or `None` at root.
    pub(crate) fn parent(self) -> Option<NameRef<'a>> {
        self.suffix(self.label_count().checked_sub(1)?)
    }

    /// True if `self` is equal to `other` or is a descendant of it.
    pub fn is_subdomain_of(self, other: NameRef<'_>) -> bool {
        self.suffix(other.label_count())
            .is_some_and(|tail| tail == other)
    }

    /// Encode at `buf`'s end without compression.
    pub(crate) fn encode_uncompressed(self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.flat);
        buf.push(0);
    }

    /// The presentation form `Display` writes, handed to `out` piece by
    /// piece: labels joined by dots, each byte that is not printable ASCII
    /// or is a dot as a three-digit decimal escape, the root as `.`. Each
    /// run of plain bytes is one piece.
    pub fn render(self, mut out: impl FnMut(&[u8])) {
        if self.is_root() {
            return out(b".");
        }
        let plain = |b: u8| b.is_ascii_graphic() && b != b'.';
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                out(b".");
            }
            for chunk in l.split_inclusive(|&b| !plain(b)) {
                match chunk.split_last() {
                    Some((&b, run)) if !plain(b) => {
                        out(run);
                        out(&[b'\\', b'0' + b / 100, b'0' + b / 10 % 10, b'0' + b % 10]);
                    }
                    _ => out(chunk),
                }
            }
        }
    }

    /// Offset of every label's length byte within the flat form.
    fn label_starts(self) -> [u8; MAX_LABELS] {
        let mut starts = [0u8; MAX_LABELS];
        let mut at = 0usize;
        for slot in starts.iter_mut().take(self.label_count()) {
            *slot = at as u8;
            at += 1 + self.flat[at] as usize;
        }
        starts
    }

    fn label_at(self, start: u8) -> &'a [u8] {
        let start = start as usize;
        &self.flat[start + 1..start + 1 + self.flat[start] as usize]
    }

    /// Encode with DNS name compression: the longest suffix of the name
    /// already written at a pointable offset is replaced with a 2-byte
    /// pointer to where it was first written, and the labels written
    /// before it become pointer targets for later names (see
    /// [`CompressionMap`]).
    pub(crate) fn encode_compressed(self, buf: &mut Vec<u8>, map: &mut CompressionMap) {
        let mut rest = self;
        let pointer = loop {
            if rest.is_root() {
                break None;
            }
            if let Some(at) = map.find(rest, buf) {
                break Some(at);
            }
            rest = rest.parent().expect("a name with a label has a parent");
        };
        let literal = self.label_count() - rest.label_count();
        for label in self.labels().take(literal) {
            map.record(buf.len());
            buf.push(label.len() as u8);
            buf.extend_from_slice(label);
        }
        match pointer {
            Some(at) => push_pointer(buf, at),
            None => buf.push(0),
        }
    }
}

/// A compression pointer to message offset `off`.
fn push_pointer(buf: &mut Vec<u8>, off: u16) {
    buf.push(0xC0 | ((off >> 8) as u8));
    buf.push((off & 0xFF) as u8);
}

/// A validated name inside a message: where it starts, how many labels it
/// has and how long it is once pointers are resolved. Reading it never
/// fails and never allocates.
#[derive(Clone, Copy)]
pub struct WireName<'a> {
    msg: &'a [u8],
    start: usize,
    labels: u8,
    flat_len: u8,
    /// No pointer on the way: the flat form is `msg[start..][..flat_len]`.
    literal: bool,
}

impl<'a> WireName<'a> {
    /// Validate a (possibly compressed) name in `msg` starting at `*pos`.
    ///
    /// `*pos` is advanced past the name as it appears at the original
    /// location (pointers count as two bytes). Pointers must point strictly
    /// backwards and at most 128 are followed.
    pub(crate) fn parse(msg: &'a [u8], pos: &mut usize) -> WireResult<WireName<'a>> {
        let start = *pos;
        let mut labels = 0usize;
        let mut wire_len = 1usize;
        let mut cursor = start;
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
                    return Ok(WireName {
                        msg,
                        start,
                        labels: labels as u8,
                        flat_len: (wire_len - 1) as u8,
                        literal: !followed_pointer,
                    });
                }
                1..=63 => {
                    let l = len_byte as usize;
                    let label_start = cursor + 1;
                    let end = label_start + l;
                    if end > msg.len() {
                        return Err(WireError::Truncated {
                            offset: label_start,
                            what: "name label",
                        });
                    }
                    wire_len += 1 + l;
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(wire_len));
                    }
                    labels += 1;
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

    /// Iterate over the labels, leftmost first, following pointers.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &'a [u8]> {
        WireLabels {
            msg: self.msg,
            cursor: self.start,
        }
    }

    /// The name where it lies, when no pointer interrupts it: a message's
    /// first name always, unless it points back into the header.
    pub(crate) fn literal(&self) -> Option<NameRef<'a>> {
        self.literal.then(|| NameRef {
            flat: &self.msg[self.start..self.start + self.flat_len as usize],
            labels: self.labels,
        })
    }

    /// [`NameRef::fold`] of this name, read in place when it is literal.
    pub fn fold<'s>(&self, scratch: &'s mut Vec<u8>) -> Folded<'s>
    where
        'a: 's,
    {
        if let Some(name) = self.literal() {
            return name.fold(scratch);
        }
        scratch.clear();
        for l in self.labels() {
            scratch.push(l.len() as u8);
            scratch.extend(l.iter().map(u8::to_ascii_lowercase));
        }
        Folded(NameRef {
            flat: scratch,
            labels: self.labels,
        })
    }

    /// Encode at `buf`'s end without compression: the name written out in
    /// full wherever its labels lie.
    pub(crate) fn encode_uncompressed(&self, buf: &mut Vec<u8>) {
        match self.literal() {
            Some(name) => name.encode_uncompressed(buf),
            None => {
                for l in self.labels() {
                    buf.push(l.len() as u8);
                    buf.extend_from_slice(l);
                }
                buf.push(0);
            }
        }
    }

    /// An owned copy: the one allocation a decoded name costs.
    pub fn to_name(self) -> Name {
        if let Some(name) = self.literal() {
            return name.to_name();
        }
        let mut flat = Vec::with_capacity(self.flat_len as usize);
        for l in self.labels() {
            flat.push(l.len() as u8);
            flat.extend_from_slice(l);
        }
        Name {
            flat: flat.into_boxed_slice(),
            labels: self.labels,
        }
    }

    /// Case-insensitive equality with an owned or borrowed name, in place.
    pub fn matches(&self, other: NameRef<'_>) -> bool {
        if self.labels != other.labels || self.flat_len as usize != other.flat.len() {
            return false;
        }
        self.labels()
            .zip(other.labels())
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

/// Iterator over the labels of a [`WireName`].
struct WireLabels<'a> {
    msg: &'a [u8],
    cursor: usize,
}

impl<'a> Iterator for WireLabels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        // `WireName::parse` walked this exact path and bounded it.
        loop {
            let b = self.msg[self.cursor];
            match b {
                0 => return None,
                1..=63 => {
                    let start = self.cursor + 1;
                    self.cursor = start + b as usize;
                    return Some(&self.msg[start..self.cursor]);
                }
                _ => {
                    self.cursor = (((b & 0x3F) as usize) << 8) | self.msg[self.cursor + 1] as usize;
                }
            }
        }
    }
}

/// A name folded for a map: its flat form with every ASCII letter
/// lowercased. Two names are equal (RFC 1035 §2.3.3) exactly when their
/// folded bytes are, so a map keyed by [`FoldedName`] hashes a probe's
/// bytes in one pass and compares them with `==`, with no case-insensitive
/// compare and no label walk.
///
/// ```
/// use dnswire::{FoldedName, Name};
/// use std::collections::HashMap;
/// let mut zones: HashMap<FoldedName, u32> = HashMap::new();
/// zones.insert(FoldedName::new("Example.com".parse::<Name>().unwrap().borrowed()), 7);
/// let q: Name = "www.EXAMPLE.com".parse().unwrap();
/// let mut scratch = Vec::new();
/// let apex = q.borrowed().fold(&mut scratch).suffix(2).unwrap();
/// assert_eq!(zones.get(apex.key()), Some(&7));
/// ```
#[derive(Clone, Copy)]
pub struct Folded<'a>(NameRef<'a>);

impl<'a> Folded<'a> {
    /// The folded flat bytes: what a [`FoldedName`]-keyed map is probed
    /// with.
    pub fn key(self) -> &'a [u8] {
        self.0.flat
    }

    /// The folded name as a name (every letter lower case).
    pub fn name(self) -> NameRef<'a> {
        self.0
    }

    /// Number of labels, excluding the root.
    pub fn label_count(self) -> usize {
        self.0.label_count()
    }

    /// The trailing `n` labels, still folded; `None` if `n` exceeds the
    /// label count.
    pub fn suffix(self, n: usize) -> Option<Folded<'a>> {
        self.0.suffix(n).map(Folded)
    }
}

/// The owned key of a name-keyed map: a name's folded flat bytes (see
/// [`Folded`]). It hashes as those bytes do, so the map is probed with
/// [`Folded::key`]. A key of up to 22 bytes (most domains) lies in the
/// map's own slot, so a hit reads no second block; a longer one is boxed.
/// Each length has one form, so the derived `==` compares the bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FoldedName(Key);

#[derive(Clone, PartialEq, Eq, Debug)]
enum Key {
    Inline(u8, [u8; 22]),
    Boxed(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<FoldedName>() == 24);

impl FoldedName {
    /// The key of `name`.
    pub fn new(name: NameRef<'_>) -> Self {
        let mut bytes = [0; 22];
        match bytes.get_mut(..name.flat.len()) {
            Some(inline) => {
                inline.copy_from_slice(name.flat);
                bytes.make_ascii_lowercase();
                FoldedName(Key::Inline(name.flat.len() as u8, bytes))
            }
            None => FoldedName(Key::Boxed(name.flat.to_ascii_lowercase().into())),
        }
    }
}

impl Hash for FoldedName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        <Self as Borrow<[u8]>>::borrow(self).hash(state)
    }
}

impl Borrow<[u8]> for FoldedName {
    fn borrow(&self) -> &[u8] {
        match &self.0 {
            Key::Inline(len, bytes) => &bytes[..*len as usize],
            Key::Boxed(bytes) => bytes,
        }
    }
}

/// A name built on the stack: one label in front of a borrowed name, for
/// a writer that needs a name no zone stores (a synthesized SOA's
/// `ns1.<apex>`) without allocating it.
///
/// ```
/// use dnswire::{Name, NameBuf};
/// let apex: Name = "Example.com".parse().unwrap();
/// let ns1 = NameBuf::child(b"ns1", apex.borrowed()).unwrap();
/// assert_eq!(ns1.borrowed().to_name(), apex.child(b"ns1").unwrap());
/// assert!(NameBuf::child(b"", apex.borrowed()).is_none());
/// ```
#[derive(Clone, Copy)]
pub struct NameBuf {
    flat: [u8; MAX_FLAT_LEN],
    len: u8,
    labels: u8,
}

impl NameBuf {
    /// `label.parent`, or `None` where [`Name::child`] fails: an empty or
    /// overlong label, or a name past [`MAX_NAME_LEN`].
    pub fn child(label: &[u8], parent: NameRef<'_>) -> Option<NameBuf> {
        let len = 1 + label.len() + parent.flat.len();
        if label.is_empty() || label.len() > MAX_LABEL_LEN || len > MAX_FLAT_LEN {
            return None;
        }
        let mut flat = [0; MAX_FLAT_LEN];
        flat[0] = label.len() as u8;
        flat[1..=label.len()].copy_from_slice(label);
        flat[1 + label.len()..len].copy_from_slice(parent.flat);
        Some(NameBuf {
            flat,
            len: len as u8,
            labels: parent.labels + 1,
        })
    }

    /// This name, borrowed.
    pub fn borrowed(&self) -> NameRef<'_> {
        NameRef {
            flat: &self.flat[..self.len as usize],
            labels: self.labels,
        }
    }
}

/// DNS name-compression state of one message being written: the offset
/// of every label written literally at a pointable offset (≤ 0x3FFF), in
/// the order written. The suffix a name points at is found by reading the
/// message at those offsets: the first one whose labels, read on through
/// any pointer, equal the suffix (case-insensitively, RFC 1035 §2.3.3) is
/// where it was first written. A negative answer compares its SOA's three
/// names with a handful of offsets, and nothing is hashed or built. The
/// map holds nothing sized by the message beyond the offsets, so
/// [`CompressionMap::clear`] resets it for the next message keeping their
/// memory.
#[derive(Debug, Default)]
pub(crate) struct CompressionMap {
    labels: Vec<u16>,
    /// Where the message's first name lies, when it has a label.
    first: Option<u16>,
}

impl CompressionMap {
    /// Forget every offset, keeping the memory.
    pub(crate) fn clear(&mut self) {
        self.labels.clear();
        self.first = None;
    }

    /// `name` was just written literally at offset `at` as the message's
    /// first name: the map is empty, so it has nothing to point at.
    pub(crate) fn set_first(&mut self, at: usize, name: NameRef<'_>) {
        debug_assert!(self.labels.is_empty() && at <= 0x3FFF);
        self.first = (!name.is_root()).then_some(at as u16);
        let mut start = at;
        for label in name.labels() {
            self.record(start);
            start += 1 + label.len();
        }
    }

    /// Write, where a name equal to the first name goes, what
    /// [`NameRef::encode_compressed`] writes for it: the pointer to the
    /// first name, or the root's one byte, without comparing the two.
    pub(crate) fn write_first(&self, buf: &mut Vec<u8>) {
        match self.first {
            Some(at) => push_pointer(buf, at),
            None => buf.push(0),
        }
    }

    /// A label is written at `at`: a pointer target from now on, if it is
    /// pointable.
    fn record(&mut self, at: usize) {
        if let Ok(at @ ..=0x3FFF) = u16::try_from(at) {
            self.labels.push(at);
        }
    }

    /// Where `suffix` (not the root) was first written, if it was.
    fn find(&self, suffix: NameRef<'_>, buf: &[u8]) -> Option<u16> {
        self.labels
            .iter()
            .copied()
            .find(|&at| written_at(buf, at as usize, suffix))
    }
}

/// Whether the name written in `buf` at `at`, its labels read on through
/// any pointer to the root byte, is `name`. A label rolled back with its
/// record lies past `buf`'s end and is no name.
fn written_at(buf: &[u8], mut at: usize, name: NameRef<'_>) -> bool {
    let next = |at: &mut usize| loop {
        match buf.get(*at..*at + 2) {
            Some(&[hi, lo]) if hi & 0xC0 == 0xC0 => {
                *at = usize::from(hi & 0x3F) << 8 | usize::from(lo)
            }
            _ => return buf.get(*at).copied(),
        }
    };
    name.labels().all(|label| {
        let matched = next(&mut at) == Some(label.len() as u8)
            && buf
                .get(at + 1..at + 1 + label.len())
                .is_some_and(|l| l.eq_ignore_ascii_case(label));
        at += 1 + label.len();
        matched
    }) && next(&mut at) == Some(0)
}

impl PartialEq for NameRef<'_> {
    /// One pass over both buffers: length bytes (≤ 63) are not ASCII
    /// letters, so they only match themselves, and once the first pair
    /// matches the next pair sits at the same offset in both — label
    /// boundaries align by induction.
    fn eq(&self, other: &Self) -> bool {
        self.flat.eq_ignore_ascii_case(other.flat)
    }
}

impl Eq for NameRef<'_> {}

impl Hash for NameRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in self.labels() {
            state.write_usize(l.len());
            for &b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
        }
    }
}

impl PartialOrd for NameRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NameRef<'_> {
    /// Canonical DNS ordering: compare label sequences right-to-left,
    /// case-insensitively (RFC 4034 §6.1).
    fn cmp(&self, other: &Self) -> Ordering {
        let (a_starts, b_starts) = (self.label_starts(), other.label_starts());
        let a_rev = a_starts[..self.label_count()].iter().rev();
        let b_rev = b_starts[..other.label_count()].iter().rev();
        for (&a, &b) in a_rev.zip(b_rev) {
            let la = self.label_at(a).iter().map(u8::to_ascii_lowercase);
            let lb = other.label_at(b).iter().map(u8::to_ascii_lowercase);
            match la.cmp(lb) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.labels.cmp(&other.labels)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.borrowed() == other.borrowed()
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.borrowed().hash(state)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.borrowed().cmp(&other.borrowed())
    }
}

impl FromStr for Name {
    type Err = WireError;

    /// Parse a textual domain name. A single trailing dot is permitted
    /// (and means the same thing); `"."` is the root.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(WireError::BadName("empty name".into()));
        }
        if s == "." {
            return Ok(Name::root());
        }
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Err(WireError::BadName(format!("bad name {s:?}")));
        }
        for part in trimmed.split('.') {
            if part.is_empty() {
                return Err(WireError::BadName(format!("empty label in {s:?}")));
            }
            if !part
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(WireError::BadName(format!("bad character in {s:?}")));
            }
        }
        Name::from_labels(trimmed.split('.'))
    }
}

impl fmt::Display for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut written = Ok(());
        self.render(|piece| {
            if written.is_ok() {
                written =
                    f.write_str(std::str::from_utf8(piece).expect("rendered bytes are ASCII"));
            }
        });
        written
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.borrowed().fmt(f)
    }
}

impl fmt::Debug for NameRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.borrowed().fmt(f)
    }
}

impl fmt::Display for WireName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.literal() {
            Some(name) => name.fmt(f),
            None => self.to_name().fmt(f),
        }
    }
}

impl fmt::Debug for WireName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_name().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "example.com",
            "www.example.com",
            "a.b.c.d.e",
            "xn--test.org",
        ] {
            assert_eq!(n(s).to_string(), s);
        }
    }

    #[test]
    fn trailing_dot_is_accepted() {
        assert_eq!(n("example.com."), n("example.com"));
    }

    #[test]
    fn root_parses() {
        let r: Name = ".".parse().unwrap();
        assert_eq!(r.label_count(), 0);
        assert_eq!(r.to_string(), ".");
        assert_eq!(r.wire_len(), 1);
    }

    #[test]
    fn rejects_bad_names() {
        assert!("".parse::<Name>().is_err());
        assert!("a..b".parse::<Name>().is_err());
        assert!(".a".parse::<Name>().is_err());
        assert!("a b.com".parse::<Name>().is_err());
        let long = "a".repeat(64);
        assert!(long.parse::<Name>().is_err());
    }

    #[test]
    fn rejects_too_long_total() {
        let label = "a".repeat(63);
        let s = format!("{label}.{label}.{label}.{label}.{label}");
        assert!(s.parse::<Name>().is_err());
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let a = n("WWW.EXAMPLE.COM");
        let b = n("www.example.com");
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn subdomain_relationships() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_strict_subdomain_of(&n("example.com")));
        assert!(n("www.example.com").is_strict_subdomain_of(&n("com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
        assert!(n("anything.org").is_subdomain_of(&Name::root()));
    }

    /// The display text built one byte at a time: plain bytes as
    /// themselves, every other byte (and `.`) as a three-digit escape.
    fn bytewise_text(name: &Name) -> String {
        if name.label_count() == 0 {
            return ".".to_string();
        }
        let mut labels = Vec::new();
        for l in name.labels() {
            let mut text = String::new();
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' {
                    text.push(b as char);
                } else {
                    text.push_str(&format!("\\{b:03}"));
                }
            }
            labels.push(text);
        }
        labels.join(".")
    }

    #[test]
    fn display_writes_what_a_bytewise_rendering_writes() {
        let odd: [&[u8]; 9] = [
            b"a.b",
            b"back\\slash",
            b"sp ace",
            b"\x00nul",
            b"high\xff",
            b"MiXeD",
            b"..",
            b"\x00\xff \\.",
            b"plain",
        ];
        let mut names = vec![Name::root(), n("www.Example.COM")];
        for l in odd {
            names.push(Name::from_labels([l]).unwrap());
            names.push(Name::from_labels([l, b"Example", b"ORG"]).unwrap());
        }
        names.push(Name::from_labels(odd).unwrap());
        for b in 0..=u8::MAX {
            names.push(Name::from_labels([&[b][..], b"x"]).unwrap());
        }
        for name in &names {
            assert_eq!(name.to_string(), bytewise_text(name));
            assert_eq!(name.borrowed().to_string(), bytewise_text(name));
        }
    }

    #[test]
    fn child_builds_what_from_labels_builds() {
        let long = Name::from_labels([[b'x'; 63]; 3]).unwrap();
        for (parent, label) in [
            (n("b.c"), &b"a"[..]),
            (Name::root(), b"com"),
            (n("Example.com"), b"WWW"),
            (long.clone(), &[b'y'; 61][..]),
            (long.clone(), &[b'y'; 62][..]),
            (n("b.c"), b""),
            (n("b.c"), &[b'z'; 64][..]),
        ] {
            let whole = Name::from_labels(std::iter::once(label).chain(parent.labels()));
            let child = parent.child(label);
            assert_eq!(child, whole, "{parent} + {label:?}");
            let on_stack = NameBuf::child(label, parent.borrowed());
            assert_eq!(on_stack.is_some(), whole.is_ok(), "{parent} + {label:?}");
            if let (Ok(child), Ok(whole)) = (&child, &whole) {
                assert_eq!(child.flat, whole.flat);
                assert_eq!(child.label_count(), whole.label_count());
                let on_stack = on_stack.expect("valid where the owned child is");
                assert_eq!(on_stack.borrowed().flat, &whole.flat[..]);
                assert_eq!(on_stack.borrowed().label_count(), whole.label_count());
            }
        }
    }

    #[test]
    fn parent_and_child() {
        let x = n("a.b.c");
        assert_eq!(x.parent().unwrap(), n("b.c"));
        assert_eq!(n("b.c").child("a").unwrap(), x);
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn suffix_extraction() {
        let x = n("www.shop.example.co.uk");
        assert_eq!(x.suffix(2).unwrap(), n("co.uk"));
        assert_eq!(x.suffix(0).unwrap(), Name::root());
        assert!(x.suffix(9).is_none());
    }

    #[test]
    fn wire_roundtrip_uncompressed() {
        let x = n("mail.example.org");
        let mut buf = Vec::new();
        x.encode_uncompressed(&mut buf);
        assert_eq!(buf.len(), x.wire_len());
        let mut pos = 0;
        let back = Name::decode(&buf, &mut pos).unwrap();
        assert_eq!(back, x);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_shares_suffixes() {
        let mut buf = Vec::new();
        let mut offsets = CompressionMap::default();
        n("www.example.com").encode_compressed(&mut buf, &mut offsets);
        let len_first = buf.len();
        n("mail.example.com").encode_compressed(&mut buf, &mut offsets);
        // second name should be 1 length byte + 4 label bytes + 2 pointer bytes
        assert_eq!(buf.len() - len_first, 7);
        let mut pos = 0;
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), n("www.example.com"));
        assert_eq!(pos, len_first);
        assert_eq!(Name::decode(&buf, &mut pos).unwrap(), n("mail.example.com"));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut buf = Vec::new();
        let mut offsets = CompressionMap::default();
        n("EXAMPLE.COM").encode_compressed(&mut buf, &mut offsets);
        let first = buf.len();
        n("www.example.com").encode_compressed(&mut buf, &mut offsets);
        // www + pointer
        assert_eq!(buf.len() - first, 6);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // pointer at offset 0 pointing at itself
        let msg = [0xC0, 0x00];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&msg, &mut pos),
            Err(WireError::BadPointer { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncated_label() {
        let msg = [5, b'a', b'b'];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&msg, &mut pos),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_reserved_label_type() {
        let msg = [0x40, 0x00];
        let mut pos = 0;
        assert!(matches!(
            Name::decode(&msg, &mut pos),
            Err(WireError::BadLabelType(_))
        ));
    }

    #[test]
    fn decode_rejects_missing_terminator() {
        let msg = [1, b'a'];
        let mut pos = 0;
        assert!(Name::decode(&msg, &mut pos).is_err());
    }

    #[test]
    fn canonical_ordering() {
        // RFC 4034 example ordering (right-to-left label comparison)
        let mut names = vec![n("z.example.com"), n("a.example.com"), n("example.com")];
        names.sort();
        assert_eq!(
            names,
            vec![n("example.com"), n("a.example.com"), n("z.example.com")]
        );
    }

    #[test]
    fn non_ascii_label_display_escapes() {
        let x = Name::from_labels([&[0xFFu8, b'a'][..]]).unwrap();
        assert!(x.to_string().contains("\\255"));
    }

    #[test]
    fn cleared_map_compresses_like_a_fresh_one() {
        let mut map = CompressionMap::default();
        let mut first = Vec::new();
        n("www.example.com").encode_compressed(&mut first, &mut map);
        n("mail.example.com").encode_compressed(&mut first, &mut map);
        map.clear();
        let mut again = Vec::new();
        n("www.example.com").encode_compressed(&mut again, &mut map);
        n("mail.example.com").encode_compressed(&mut again, &mut map);
        assert_eq!(again, first);
        // Nothing of the first message survives a clear.
        map.clear();
        let mut lone = Vec::new();
        n("mail.example.com").encode_compressed(&mut lone, &mut map);
        assert_eq!(lone.len(), n("mail.example.com").wire_len());
    }

    #[test]
    fn borrowed_suffix_probes_maps_keyed_by_name() {
        use std::collections::HashMap;
        let keys = ["example.com", "CO.uk", "a.b.example.com"];
        let folded: HashMap<FoldedName, usize> = keys
            .iter()
            .map(|k| FoldedName::new(n(k).borrowed()))
            .zip(0..)
            .collect();
        let q = n("x.A.B.Example.COM");
        let mut scratch = Vec::new();
        let whole = q.borrowed().fold(&mut scratch);
        assert_eq!(whole.name().to_string(), "x.a.b.example.com");
        let hits: Vec<Option<usize>> = (0..=q.label_count())
            .map(|take| {
                let suffix = whole.suffix(take).unwrap();
                let got = folded.get(suffix.key()).copied();
                let owned = FoldedName::new(q.suffix(take).unwrap().borrowed());
                assert_eq!(got, folded.get(&owned).copied());
                got
            })
            .collect();
        assert_eq!(hits, vec![None, None, Some(0), None, Some(2), None]);
    }

    #[test]
    fn folding_borrows_a_lower_case_name() {
        let mut scratch = Vec::new();
        let lower = n("www.example.com");
        let f = lower.borrowed().fold(&mut scratch);
        assert_eq!(f.key(), &lower.flat[..]);
        assert!(scratch.is_empty(), "nothing copied");
        let mixed = n("WWW.Example.com");
        assert_eq!(mixed.borrowed().fold(&mut scratch).key(), &lower.flat[..]);
        assert_eq!(Name::root().borrowed().fold(&mut scratch).key(), b"");
        // A wire name behind a pointer folds label by label.
        let mut buf = Vec::new();
        let mut map = CompressionMap::default();
        n("Example.COM").encode_compressed(&mut buf, &mut map);
        let second = buf.len();
        n("WWW.example.com").encode_compressed(&mut buf, &mut map);
        let wire = WireName::parse(&buf, &mut { second }).unwrap();
        assert!(wire.literal().is_none());
        assert_eq!(wire.fold(&mut scratch).key(), &lower.flat[..]);
    }

    #[test]
    fn wire_name_reads_without_owning() {
        let mut buf = Vec::new();
        let mut map = CompressionMap::default();
        n("www.Example.com").encode_compressed(&mut buf, &mut map);
        let second = buf.len();
        n("mail.example.COM").encode_compressed(&mut buf, &mut map);
        let mut pos = second;
        let wire = WireName::parse(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(wire.labels().count(), 3);
        assert!(wire.matches(n("MAIL.example.com").borrowed()));
        assert!(!wire.matches(n("www.example.com").borrowed()));
        assert_eq!(wire.to_name(), n("mail.example.com"));
        // Case is carried from where the bytes were first written.
        assert_eq!(wire.to_name().to_string(), "mail.Example.com");
    }
}
