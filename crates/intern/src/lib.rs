//! # intern — compact ids for names and strings
//!
//! Paper-scale worlds put millions of `(nameserver, domain, type)` triples
//! through the pipeline. `dnswire::Name` owns a heap allocation per name
//! and `String` provider names are cloned into every [`CollectedUr`]-like
//! struct, so the working set grows with the *number of observations* rather
//! than the number of *distinct* names. This crate fixes the representation:
//!
//! * [`InternedName`] — a `u32` handle into a global append-only name table.
//!   Each entry stores one lowercased label plus a parent link, so the table
//!   is a trie of suffixes: `www.example.com` is three entries, and
//!   `mail.example.com` shares two of them. Parent links make
//!   [`InternedName::parent`] and [`InternedName::is_subdomain_of`] pointer
//!   walks instead of label comparisons.
//! * [`Sym`] — a `u32` handle for short strings (provider names, TXT/MX
//!   profile entries) with `O(1)` equality and no per-clone allocation.
//!
//! Both tables are process-global, thread-safe, and append-only; label and
//! string storage is leaked (interned data lives for the process lifetime,
//! which is exactly the lifetime of a measurement run). Ids are assigned in
//! first-intern order and are therefore **not** stable across runs or
//! threads' interleavings — they must never leak into hashed, ordered, or
//! rendered output. Accordingly [`InternedName`]'s `Hash`, `Ord`, and
//! `Display` are defined over the label bytes (bit-compatible with
//! `dnswire::Name`), and [`Sym`]'s `Ord` and `Display` are defined over the
//! string; only `Eq` uses the id (two handles are equal iff their canonical
//! text is equal, which the table guarantees within a process).
//!
//! `CollectedUr` lives in the `urhunter` crate; this crate only depends on
//! `dnswire` for [`Name`] conversions.
//!
//! [`CollectedUr`]: https://example.org/urhunter

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dnswire::{Name, NameRef, WireError, WireResult};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// Maximum length of a single label in octets (RFC 1035 §2.3.4), mirrored
/// from `dnswire` so interning enforces the same wire limits.
const MAX_LABEL_LEN: usize = 63;
/// Maximum wire length of a name (RFC 1035 §2.3.4).
const MAX_NAME_LEN: usize = 255;

/// Identifier of an interned name: an index into the global name table.
///
/// `NameId(0)` is always the DNS root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

#[derive(Clone, Copy)]
struct NameEntry {
    /// Parent entry (the name with this entry's leftmost label stripped).
    /// The root is its own parent.
    parent: u32,
    /// Number of labels, excluding the root (0 for the root itself).
    depth: u16,
    /// Wire length of the full name at this entry.
    wire_len: u16,
    /// This entry's leftmost label, lowercased. Empty for the root.
    label: &'static [u8],
}

struct NameTable {
    entries: Vec<NameEntry>,
    /// Distinct lowercased labels, shared across entries.
    label_index: HashMap<Box<[u8]>, u32>,
    labels: Vec<&'static [u8]>,
    /// `(parent entry, label id) -> entry`.
    nodes: HashMap<(u32, u32), u32>,
}

impl NameTable {
    fn new() -> Self {
        NameTable {
            entries: vec![NameEntry {
                parent: 0,
                depth: 0,
                wire_len: 1,
                label: &[],
            }],
            label_index: HashMap::new(),
            labels: Vec::new(),
            nodes: HashMap::new(),
        }
    }

    fn label_id(&mut self, lower: &[u8]) -> u32 {
        if let Some(&id) = self.label_index.get(lower) {
            return id;
        }
        let leaked: &'static [u8] = Box::leak(lower.to_vec().into_boxed_slice());
        let id = self.labels.len() as u32;
        self.labels.push(leaked);
        self.label_index.insert(Box::from(lower), id);
        id
    }

    fn child_of(&mut self, parent: u32, lower: &[u8]) -> WireResult<u32> {
        if lower.is_empty() {
            return Err(WireError::BadName("empty label".into()));
        }
        if lower.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(lower.len()));
        }
        let lid = self.label_id(lower);
        if let Some(&e) = self.nodes.get(&(parent, lid)) {
            return Ok(e);
        }
        let p = self.entries[parent as usize];
        let wire_len = p.wire_len as usize + 1 + lower.len();
        if wire_len > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(wire_len));
        }
        let e = self.entries.len() as u32;
        self.entries.push(NameEntry {
            parent,
            depth: p.depth + 1,
            wire_len: wire_len as u16,
            label: self.labels[lid as usize],
        });
        self.nodes.insert((parent, lid), e);
        Ok(e)
    }
}

fn name_table() -> &'static RwLock<NameTable> {
    static TABLE: OnceLock<RwLock<NameTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(NameTable::new()))
}

/// A domain name interned into the global name table: a 4-byte `Copy`
/// handle with `O(1)` equality and parent access.
///
/// Interning canonicalises to lowercase (DNS names compare
/// case-insensitively, RFC 1035 §2.3.3), so `Display`, `Hash`, and `Ord`
/// all observe the lowercased labels and agree with `dnswire::Name`'s
/// case-insensitive semantics.
///
/// ```
/// use intern::InternedName;
/// let a: InternedName = "www.Example.COM".parse().unwrap();
/// let b: InternedName = "www.example.com".parse().unwrap();
/// assert_eq!(a, b); // same table entry
/// assert_eq!(a.to_string(), "www.example.com");
/// assert_eq!(a.parent().unwrap().to_string(), "example.com");
/// assert!(a.is_subdomain_of(&"example.com".parse().unwrap()));
/// ```
#[derive(Clone, Copy, Eq)]
pub struct InternedName(NameId);

impl InternedName {
    /// The root name.
    pub fn root() -> Self {
        InternedName(NameId(0))
    }

    /// Intern a [`Name`]. Idempotent: the same canonical name always maps
    /// to the same id within a process.
    pub fn intern(name: &Name) -> Self {
        let mut lower: Vec<u8> = Vec::with_capacity(16);
        // Fast path: walk right-to-left under the read lock; most names
        // share their suffix chain with previously interned ones.
        let labels: Vec<&[u8]> = name.labels().collect();
        let mut entry = 0u32;
        let mut next = labels.len();
        {
            let t = name_table().read().expect("name table poisoned");
            while next > 0 {
                lower.clear();
                lower.extend(labels[next - 1].iter().map(|b| b.to_ascii_lowercase()));
                let Some(&lid) = t.label_index.get(lower.as_slice()) else {
                    break;
                };
                let Some(&e) = t.nodes.get(&(entry, lid)) else {
                    break;
                };
                entry = e;
                next -= 1;
            }
        }
        if next > 0 {
            let mut t = name_table().write().expect("name table poisoned");
            while next > 0 {
                lower.clear();
                lower.extend(labels[next - 1].iter().map(|b| b.to_ascii_lowercase()));
                entry = t.child_of(entry, &lower).expect("Name upheld wire limits");
                next -= 1;
            }
        }
        InternedName(NameId(entry))
    }

    /// The handle for `name` if it was ever interned — a probe that neither
    /// grows the table nor allocates (the twin of [`Sym::lookup`]).
    pub fn lookup(name: NameRef<'_>) -> Option<Self> {
        let t = name_table().read().expect("name table poisoned");
        let mut lower = [0u8; MAX_LABEL_LEN];
        let mut entry = 0u32;
        for n in 1..=name.label_count() {
            let label = name.suffix(n)?.labels().next()?;
            let lower = &mut lower[..label.len()];
            lower.copy_from_slice(label);
            lower.make_ascii_lowercase();
            let lid = *t.label_index.get(&*lower)?;
            entry = *t.nodes.get(&(entry, lid))?;
        }
        Some(InternedName(NameId(entry)))
    }

    /// The raw table id.
    pub fn id(self) -> NameId {
        self.0
    }

    /// Number of labels, excluding the root.
    pub fn label_count(self) -> usize {
        let t = name_table().read().expect("name table poisoned");
        t.entries[self.0 .0 as usize].depth as usize
    }

    /// True for the root name.
    pub fn is_root(self) -> bool {
        self.0 .0 == 0
    }

    /// Wire-format length of this name when written without compression.
    pub fn wire_len(self) -> usize {
        let t = name_table().read().expect("name table poisoned");
        t.entries[self.0 .0 as usize].wire_len as usize
    }

    /// The labels, leftmost (most specific) first. Label storage is
    /// `'static`, so the iterator does not borrow the handle.
    pub fn labels(self) -> std::vec::IntoIter<&'static [u8]> {
        self.chain_labels().into_iter()
    }

    /// The parent name (one label stripped from the left), or `None` at
    /// the root. `O(1)`.
    pub fn parent(self) -> Option<InternedName> {
        if self.is_root() {
            return None;
        }
        let t = name_table().read().expect("name table poisoned");
        Some(InternedName(NameId(t.entries[self.0 .0 as usize].parent)))
    }

    /// Prepend a label, producing a child name.
    pub fn child<L: AsRef<[u8]>>(self, label: L) -> WireResult<InternedName> {
        let lower: Vec<u8> = label
            .as_ref()
            .iter()
            .map(|b| b.to_ascii_lowercase())
            .collect();
        let mut t = name_table().write().expect("name table poisoned");
        Ok(InternedName(NameId(t.child_of(self.0 .0, &lower)?)))
    }

    /// True if `self` equals `other` or descends from it. `O(depth)` id
    /// walk — no label bytes are compared.
    pub fn is_subdomain_of(self, other: &InternedName) -> bool {
        let t = name_table().read().expect("name table poisoned");
        let target = other.0 .0;
        let target_depth = t.entries[target as usize].depth;
        let mut cur = self.0 .0;
        let mut depth = t.entries[cur as usize].depth;
        if depth < target_depth {
            return false;
        }
        while depth > target_depth {
            cur = t.entries[cur as usize].parent;
            depth -= 1;
        }
        cur == target
    }

    /// True if `self` is strictly below `other`.
    pub fn is_strict_subdomain_of(self, other: &InternedName) -> bool {
        self != *other && self.is_subdomain_of(other)
    }

    /// The trailing `n` labels as a name, or `None` if `n` exceeds the
    /// label count. `O(depth)` parent walk.
    pub fn suffix(self, n: usize) -> Option<InternedName> {
        let t = name_table().read().expect("name table poisoned");
        let mut cur = self.0 .0;
        let mut depth = t.entries[cur as usize].depth as usize;
        if n > depth {
            return None;
        }
        while depth > n {
            cur = t.entries[cur as usize].parent;
            depth -= 1;
        }
        Some(InternedName(NameId(cur)))
    }

    /// Convert back to an owned [`Name`] (lowercased).
    pub fn to_name(self) -> Name {
        Name::from_labels(self.chain_labels()).expect("interned names uphold wire limits")
    }

    /// Labels leftmost-first, collected under one read-lock acquisition.
    fn chain_labels(self) -> Vec<&'static [u8]> {
        let t = name_table().read().expect("name table poisoned");
        let mut cur = self.0 .0;
        let mut out = Vec::with_capacity(t.entries[cur as usize].depth as usize);
        while cur != 0 {
            let e = t.entries[cur as usize];
            out.push(e.label);
            cur = e.parent;
        }
        out
    }
}

impl PartialEq for InternedName {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl PartialEq<Name> for InternedName {
    fn eq(&self, other: &Name) -> bool {
        let labels = self.chain_labels();
        labels.len() == other.label_count()
            && labels
                .iter()
                .zip(other.labels())
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
    }
}

impl PartialEq<InternedName> for Name {
    fn eq(&self, other: &InternedName) -> bool {
        other == self
    }
}

impl Hash for InternedName {
    /// Byte-compatible with `dnswire::Name::hash`: per label, the length
    /// then the lowercased bytes. This keeps derived hashes of key structs
    /// (and the pipeline's pinned sequence hashes) identical across the
    /// owned and interned representations.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for l in self.chain_labels() {
            state.write_usize(l.len());
            for &b in l {
                state.write_u8(b);
            }
        }
    }
}

impl PartialOrd for InternedName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternedName {
    /// Canonical DNS ordering (RFC 4034 §6.1): label sequences compared
    /// right-to-left; agrees with `dnswire::Name::cmp`.
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        let a = self.chain_labels();
        let b = other.chain_labels();
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        a.len().cmp(&b.len())
    }
}

impl std::str::FromStr for InternedName {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name: Name = s.parse()?;
        Ok(InternedName::intern(&name))
    }
}

impl From<&Name> for InternedName {
    fn from(name: &Name) -> Self {
        InternedName::intern(name)
    }
}

impl fmt::Display for InternedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels = self.chain_labels();
        if labels.is_empty() {
            return write!(f, ".");
        }
        for (i, l) in labels.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for &b in l.iter() {
                if b.is_ascii_graphic() && b != b'.' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for InternedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InternedName({} #{})", self, self.0 .0)
    }
}

struct SymTable {
    index: HashMap<Box<str>, u32>,
    strings: Vec<&'static str>,
}

fn sym_table() -> &'static RwLock<SymTable> {
    static TABLE: OnceLock<RwLock<SymTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(SymTable {
            index: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// An interned string: a 4-byte `Copy` handle with `O(1)` equality.
///
/// Unlike [`InternedName`], `Sym` is case-sensitive — it interns provider
/// names and TXT/MX profile strings verbatim. `Ord` and `Display` observe
/// the string so handles never leak insertion order into sorted output.
///
/// ```
/// use intern::Sym;
/// let a = Sym::intern("Cloudflare");
/// assert_eq!(a, Sym::intern("Cloudflare"));
/// assert_eq!(a.as_str(), "Cloudflare");
/// assert_eq!(Sym::lookup("never-interned"), None);
/// ```
#[derive(Clone, Copy, Eq, PartialEq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// Intern a string, returning its handle.
    pub fn intern(s: &str) -> Sym {
        {
            let t = sym_table().read().expect("sym table poisoned");
            if let Some(&id) = t.index.get(s) {
                return Sym(id);
            }
        }
        let mut t = sym_table().write().expect("sym table poisoned");
        if let Some(&id) = t.index.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = t.strings.len() as u32;
        t.strings.push(leaked);
        t.index.insert(Box::from(s), id);
        Sym(id)
    }

    /// The handle for `s` if it was ever interned — a set-membership probe
    /// that does not grow the table.
    pub fn lookup(s: &str) -> Option<Sym> {
        let t = sym_table().read().expect("sym table poisoned");
        t.index.get(s).map(|&id| Sym(id))
    }

    /// The interned string. Storage is `'static`.
    pub fn as_str(self) -> &'static str {
        let t = sym_table().read().expect("sym table poisoned");
        t.strings[self.0 as usize]
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::intern(&s)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

/// Sizes of the global tables: `(name entries, distinct labels, symbols)`.
/// Diagnostic only — useful for memory-model assertions in benches.
pub fn table_sizes() -> (usize, usize, usize) {
    let n = name_table().read().expect("name table poisoned");
    let s = sym_table().read().expect("sym table poisoned");
    (n.entries.len(), n.labels.len(), s.strings.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn i(s: &str) -> InternedName {
        s.parse().unwrap()
    }

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn intern_is_idempotent_and_case_insensitive() {
        assert_eq!(i("www.example.com"), i("WWW.Example.COM"));
        assert_eq!(i("www.example.com").id(), i("www.example.com").id());
        assert_ne!(i("www.example.com"), i("mail.example.com"));
    }

    #[test]
    fn suffixes_share_entries() {
        let a = i("www.example.com");
        let b = i("mail.example.com");
        assert_eq!(a.parent().unwrap().id(), b.parent().unwrap().id());
    }

    #[test]
    fn display_matches_lowercased_name() {
        for s in ["example.com", "a.b.c.d.e", "xn--test.org", "WWW.UP.COM"] {
            let name = n(s);
            let lowered = s.to_ascii_lowercase();
            assert_eq!(InternedName::intern(&name).to_string(), lowered);
        }
        assert_eq!(InternedName::root().to_string(), ".");
    }

    #[test]
    fn hash_is_bit_compatible_with_name() {
        for s in ["example.com", "WWW.Example.COM", "a.b.c.d.e", "x_1-2.org"] {
            let name = n(s);
            assert_eq!(hash_of(&name), hash_of(&InternedName::intern(&name)));
        }
    }

    #[test]
    fn equality_against_owned_names() {
        assert_eq!(i("shop.example.com"), n("SHOP.example.com"));
        assert_eq!(n("shop.example.com"), i("shop.example.com"));
        assert!(i("shop.example.com") != n("shop.example.org"));
        assert!(i("example.com") != n("shop.example.com"));
    }

    #[test]
    fn parent_walks_and_suffix() {
        let x = i("a.b.c");
        assert_eq!(x.label_count(), 3);
        assert_eq!(x.parent().unwrap(), i("b.c"));
        assert_eq!(x.suffix(1).unwrap(), i("c"));
        assert_eq!(x.suffix(0).unwrap(), InternedName::root());
        assert!(x.suffix(4).is_none());
        assert!(InternedName::root().parent().is_none());
    }

    #[test]
    fn child_and_roundtrip() {
        let apex = i("example.com");
        assert_eq!(apex.child("WWW").unwrap(), i("www.example.com"));
        assert!(apex.child("").is_err());
        assert!(apex.child("a".repeat(64)).is_err());
        let back = i("mail.shop.example.co.uk").to_name();
        assert_eq!(back, n("mail.shop.example.co.uk"));
        assert_eq!(back.to_string(), "mail.shop.example.co.uk");
    }

    #[test]
    fn name_too_long_rejected_via_child() {
        let mut cur = InternedName::root();
        let label = "a".repeat(63);
        for _ in 0..3 {
            cur = cur.child(&label).unwrap();
        }
        assert!(cur.child(&label).is_err());
    }

    #[test]
    fn subdomain_relationships() {
        assert!(i("www.example.com").is_subdomain_of(&i("example.com")));
        assert!(i("example.com").is_subdomain_of(&i("example.com")));
        assert!(!i("example.com").is_strict_subdomain_of(&i("example.com")));
        assert!(i("www.example.com").is_strict_subdomain_of(&i("com")));
        assert!(!i("badexample.com").is_subdomain_of(&i("example.com")));
        assert!(i("anything.org").is_subdomain_of(&InternedName::root()));
        assert!(!i("com").is_subdomain_of(&i("example.com")));
    }

    #[test]
    fn ordering_matches_name_ordering() {
        let strs = ["z.example.com", "a.example.com", "example.com", "a.org"];
        let mut names: Vec<Name> = strs.iter().map(|s| n(s)).collect();
        let mut interned: Vec<InternedName> = strs.iter().map(|s| i(s)).collect();
        names.sort();
        interned.sort();
        for (a, b) in names.iter().zip(interned.iter()) {
            assert_eq!(*b, *a);
        }
    }

    #[test]
    fn wire_len_matches_name() {
        for s in ["example.com", "www.shop.example.co.uk"] {
            assert_eq!(i(s).wire_len(), n(s).wire_len());
        }
        assert_eq!(InternedName::root().wire_len(), 1);
    }

    #[test]
    fn labels_iterate_leftmost_first() {
        let got: Vec<&[u8]> = i("www.example.com").labels().collect();
        assert_eq!(
            got,
            vec![b"www".as_ref(), b"example".as_ref(), b"com".as_ref()]
        );
    }

    #[test]
    fn sym_basics() {
        let a = Sym::intern("ClouDNS");
        let b = Sym::intern("ClouDNS");
        assert_eq!(a, b);
        assert_eq!(a, "ClouDNS");
        assert!(a != Sym::intern("cloudns"));
        assert_eq!(a.to_string(), "ClouDNS");
        assert_eq!(Sym::lookup("ClouDNS"), Some(a));
        assert_eq!(Sym::lookup("\u{1}never interned\u{2}"), None);
    }

    #[test]
    fn sym_orders_by_string() {
        let mut v = [
            Sym::intern("zeta"),
            Sym::intern("alpha"),
            Sym::intern("mid"),
        ];
        v.sort();
        let rendered: Vec<&str> = v.iter().map(|s| s.as_str()).collect();
        assert_eq!(rendered, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn table_sizes_reported() {
        let _ = i("sizes-probe.example.com");
        let (entries, labels, _) = table_sizes();
        assert!(entries >= 3 && labels >= 2);
    }
}
