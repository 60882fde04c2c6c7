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

/// A borrowed name: a whole [`Name`], a suffix of one, or a [`NameBuf`].
/// `Copy`, allocation-free, and interchangeable with `&Name` wherever a
/// name is only read — including as a map key through [`NameKey`].
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

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels == 0
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

    /// Prepend a label, producing a child name.
    pub fn child<L: AsRef<[u8]>>(&self, label: L) -> WireResult<Name> {
        Name::from_labels(std::iter::once(label.as_ref()).chain(self.labels()))
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
    pub fn encode_compressed(&self, buf: &mut Vec<u8>, map: &mut CompressionMap) {
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
    pub fn is_root(self) -> bool {
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
    pub fn parent(self) -> Option<NameRef<'a>> {
        self.suffix(self.label_count().checked_sub(1)?)
    }

    /// True if `self` is equal to `other` or is a descendant of it.
    pub fn is_subdomain_of(self, other: NameRef<'_>) -> bool {
        self.suffix(other.label_count())
            .is_some_and(|tail| tail == other)
    }

    /// Encode at `buf`'s end without compression.
    pub fn encode_uncompressed(self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.flat);
        buf.push(0);
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

    /// Encode with DNS name compression.
    ///
    /// Every suffix of the name is registered in `map` (a per-message
    /// suffix trie); the longest suffix already written at a pointable
    /// offset is replaced with a 2-byte pointer, and newly written labels
    /// at offsets ≤ 0x3FFF become pointer targets for later names.
    /// Matching is case-insensitive (RFC 1035 §2.3.3).
    pub fn encode_compressed(self, buf: &mut Vec<u8>, map: &mut CompressionMap) {
        let n = self.label_count();
        let starts = self.label_starts();
        // Node ids for every suffix, built right-to-left so each node's
        // parent already exists.
        let mut chain = [CompressionMap::ROOT; MAX_LABELS];
        let mut parent = CompressionMap::ROOT;
        for i in (0..n).rev() {
            let node = map.node(parent, self.label_at(starts[i]));
            chain[i] = node;
            parent = node;
        }
        // The longest suffix already written at a pointable offset.
        let pointer = (0..n).find_map(|i| map.offset(chain[i]).map(|off| (i, off)));
        let literal_upto = pointer.map_or(n, |(i, _)| i);
        for (&node, &start) in chain.iter().zip(&starts).take(literal_upto) {
            let here = buf.len();
            if here <= 0x3FFF {
                map.record_offset(node, here as u16);
            }
            let l = self.label_at(start);
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
}

/// A name held inline: 254 bytes on the stack, no heap. The place a
/// [`WireName`] is flattened into when its labels are needed contiguously
/// (a server looking its question up, echoing it back compressed).
#[derive(Clone)]
pub struct NameBuf {
    flat: [u8; MAX_FLAT_LEN],
    len: u8,
    labels: u8,
}

impl NameBuf {
    /// The held name, borrowed.
    pub fn borrowed(&self) -> NameRef<'_> {
        NameRef {
            flat: &self.flat[..self.len as usize],
            labels: self.labels,
        }
    }
}

/// A validated name inside a message: where it starts, how many labels it
/// has and how long it is once pointers are resolved. Reading it never
/// fails and never allocates; [`WireName::to_name`] makes the owned copy.
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
    pub fn parse(msg: &'a [u8], pos: &mut usize) -> WireResult<WireName<'a>> {
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
    pub fn labels(&self) -> impl Iterator<Item = &'a [u8]> {
        WireLabels {
            msg: self.msg,
            cursor: self.start,
        }
    }

    fn copy_flat(&self, flat: &mut [u8]) {
        if self.literal {
            let n = self.flat_len as usize;
            flat[..n].copy_from_slice(&self.msg[self.start..self.start + n]);
            return;
        }
        let mut at = 0;
        for l in self.labels() {
            flat[at] = l.len() as u8;
            flat[at + 1..at + 1 + l.len()].copy_from_slice(l);
            at += 1 + l.len();
        }
    }

    /// An owned copy: the one allocation a decoded name costs.
    pub fn to_name(self) -> Name {
        let mut flat = vec![0u8; self.flat_len as usize].into_boxed_slice();
        self.copy_flat(&mut flat);
        Name {
            flat,
            labels: self.labels,
        }
    }

    /// A flattened copy on the stack.
    pub fn to_buf(self) -> NameBuf {
        let mut buf = NameBuf {
            flat: [0; MAX_FLAT_LEN],
            len: self.flat_len,
            labels: self.labels,
        };
        self.copy_flat(&mut buf.flat);
        buf
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

/// Anything that can stand in for a [`Name`] as a map key.
///
/// `HashMap<Name, _>` and `BTreeMap<Name, _>` can be probed with
/// `&dyn NameKey` — a `&Name`, or a [`NameRef`] such as a suffix of the
/// query name — without building an owned key: `Name: Borrow<dyn NameKey>`,
/// and the trait object hashes, compares and orders exactly as `Name` does.
///
/// ```
/// use dnswire::{Name, NameKey};
/// use std::collections::HashMap;
/// let mut zones: HashMap<Name, u32> = HashMap::new();
/// zones.insert("Example.com".parse().unwrap(), 7);
/// let q: Name = "www.example.com".parse().unwrap();
/// let apex = q.borrowed().suffix(2).unwrap();
/// assert_eq!(zones.get(&apex as &dyn NameKey), Some(&7));
/// ```
pub trait NameKey {
    /// The name to hash and compare by.
    fn name_ref(&self) -> NameRef<'_>;
}

impl NameKey for Name {
    fn name_ref(&self) -> NameRef<'_> {
        self.borrowed()
    }
}

impl NameKey for NameRef<'_> {
    fn name_ref(&self) -> NameRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn NameKey + 'a> for Name {
    fn borrow(&self) -> &(dyn NameKey + 'a) {
        self
    }
}

impl PartialEq for dyn NameKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.name_ref() == other.name_ref()
    }
}

impl Eq for dyn NameKey + '_ {}

impl Hash for dyn NameKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name_ref().hash(state)
    }
}

impl PartialOrd for dyn NameKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn NameKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.name_ref().cmp(&other.name_ref())
    }
}

/// DNS name-compression state of one message being written.
///
/// A trie of `(parent node, label)` edges whose lowercased label bytes live
/// in one shared arena, found through a fixed table of bucket heads with
/// the collision chain threaded through the nodes themselves. Lookups hash
/// in place and verify with a case-insensitive byte compare. Nothing in
/// here is sized per message, so [`CompressionMap::clear`] resets it for
/// the next message without giving any memory back: a writer that keeps
/// its map encodes without allocating once the map has warmed up.
#[derive(Debug, Default)]
pub struct CompressionMap {
    nodes: Vec<CompressNode>,
    /// Lowercased label bytes of every node, back to back.
    arena: Vec<u8>,
    /// First node of each hash bucket ([`CompressionMap::NONE`] when
    /// empty); allocated on first use.
    heads: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct CompressNode {
    parent: u32,
    /// Next node in the same hash bucket.
    next: u32,
    label_start: u32,
    bucket: u16,
    label_len: u8,
    /// Message offset of this suffix, or [`CompressionMap::NO_OFFSET`] when
    /// the suffix was written beyond the pointable range (or not yet).
    offset: u16,
}

impl CompressionMap {
    /// Sentinel parent id of top-level labels (the root has no node).
    const ROOT: u32 = u32::MAX;
    /// Sentinel for "no node" in bucket heads and chains.
    const NONE: u32 = u32::MAX;
    /// Sentinel for "no recorded offset" (real offsets are ≤ 0x3FFF).
    const NO_OFFSET: u16 = u16::MAX;
    /// Hash buckets. A 4 KiB message holds at most ~2 K labels, so chains
    /// stay short at this size.
    const BUCKETS: usize = 256;

    /// An empty map.
    pub fn new() -> Self {
        CompressionMap::default()
    }

    /// Forget every suffix, keeping the memory: only the buckets the
    /// previous message touched are reset.
    pub fn clear(&mut self) {
        for n in &self.nodes {
            self.heads[n.bucket as usize] = Self::NONE;
        }
        self.nodes.clear();
        self.arena.clear();
    }

    fn bucket_of(parent: u32, label: &[u8]) -> u16 {
        // FNV-1a over the parent id and the lowercased label bytes.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in parent.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in label {
            h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        ((h ^ (h >> 32)) as usize % Self::BUCKETS) as u16
    }

    fn node_label(&self, n: &CompressNode) -> &[u8] {
        &self.arena[n.label_start as usize..n.label_start as usize + n.label_len as usize]
    }

    /// The node for the suffix `label.<parent's suffix>`, created on first
    /// sight (without an offset).
    fn node(&mut self, parent: u32, label: &[u8]) -> u32 {
        if self.heads.is_empty() {
            self.heads = vec![Self::NONE; Self::BUCKETS];
        }
        let bucket = Self::bucket_of(parent, label);
        let mut id = self.heads[bucket as usize];
        while id != Self::NONE {
            let n = &self.nodes[id as usize];
            if n.parent == parent && self.node_label(n).eq_ignore_ascii_case(label) {
                return id;
            }
            id = n.next;
        }
        let label_start = self.arena.len() as u32;
        self.arena
            .extend(label.iter().map(|b| b.to_ascii_lowercase()));
        let id = self.nodes.len() as u32;
        self.nodes.push(CompressNode {
            parent,
            next: self.heads[bucket as usize],
            label_start,
            bucket,
            label_len: label.len() as u8,
            offset: Self::NO_OFFSET,
        });
        self.heads[bucket as usize] = id;
        id
    }

    /// The recorded message offset of this suffix, if pointable.
    fn offset(&self, id: u32) -> Option<u16> {
        let off = self.nodes[id as usize].offset;
        (off != Self::NO_OFFSET).then_some(off)
    }

    /// Record where this suffix was first written (first write wins, as
    /// RFC 1035 pointers must point strictly backwards).
    fn record_offset(&mut self, id: u32, offset: u16) {
        let n = &mut self.nodes[id as usize];
        if n.offset == Self::NO_OFFSET {
            n.offset = offset;
        }
    }
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
        if self.is_root() {
            return write!(f, ".");
        }
        for (i, l) in self.labels().enumerate() {
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

impl fmt::Debug for WireName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_buf().borrowed().fmt(f)
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
        assert!(r.is_root());
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
        let mut offsets = CompressionMap::new();
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
        let mut offsets = CompressionMap::new();
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
        let mut map = CompressionMap::new();
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
        use std::collections::{BTreeMap, HashMap};
        let keys = ["example.com", "CO.uk", "a.b.example.com"];
        let hashed: HashMap<Name, usize> = keys.iter().map(|k| n(k)).zip(0..).collect();
        let ordered: BTreeMap<Name, usize> = keys.iter().map(|k| n(k)).zip(0..).collect();
        let q = n("x.A.B.Example.COM");
        let hits: Vec<Option<usize>> = (0..=q.label_count())
            .map(|take| {
                let suffix = q.borrowed().suffix(take).unwrap();
                let owned = q.suffix(take).unwrap();
                let got = hashed.get(&suffix as &dyn NameKey).copied();
                assert_eq!(got, hashed.get(&owned).copied());
                assert_eq!(got, ordered.get(&suffix as &dyn NameKey).copied());
                got
            })
            .collect();
        assert_eq!(hits, vec![None, None, Some(0), None, Some(2), None]);
    }

    #[test]
    fn wire_name_reads_without_owning() {
        let mut buf = Vec::new();
        let mut map = CompressionMap::new();
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
        assert_eq!(wire.to_buf().borrowed().to_string(), "mail.Example.com");
        assert_eq!(wire.to_buf().borrowed(), n("mail.example.com").borrowed());
    }
}
