//! # intern — compact ids for names and strings
//!
//! Paper-scale worlds put millions of `(nameserver, domain, type)` triples
//! through the pipeline, so the per-UR structs hold 4-byte handles and the
//! working set grows with the number of *distinct* names and strings.
//!
//! * [`InternedName`] — a handle to one lowercased flat [`Name`] in a global
//!   table: a map from the name to its id, and a vector of the names with
//!   each one's parent id beside it (a name is interned with its suffixes).
//!   Whatever reads the name — `Hash`, `Ord`, `Display`, `==` against a
//!   [`Name`] — is [`NameRef`]'s own implementation over the stored bytes.
//! * [`Sym`] — a handle for short strings (provider names, TXT/MX profile
//!   entries) with `O(1)` equality and no per-clone allocation.
//!
//! Both tables are process-global, thread-safe and append-only, and their
//! storage is leaked: interned data lives as long as a measurement run. Ids
//! follow first-intern order, which differs between runs and thread
//! interleavings, so they must never reach hashed, ordered or rendered
//! output; only `Eq` uses them (equal ids iff equal text).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

use dnswire::{Name, NameRef, WireError, WireResult};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

struct NameTable {
    /// Every interned name, lowercased, beside its parent's id (entry 0 is
    /// the root, its own parent). Each borrows a leaked [`Name`]: its own,
    /// or the longer one it was first interned as a suffix of.
    names: Vec<(NameRef<'static>, u32)>,
    /// The id of each entry of `names`. [`NameRef`] hashes and compares
    /// case-insensitively, so the map is probed with a name as it came.
    ids: HashMap<NameRef<'static>, u32>,
}

fn leak(name: Name) -> NameRef<'static> {
    Box::leak(Box::new(name)).borrowed()
}

fn name_table() -> &'static RwLock<NameTable> {
    static TABLE: OnceLock<RwLock<NameTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let root = leak(Name::root());
        RwLock::new(NameTable {
            names: vec![(root, 0)],
            ids: HashMap::from([(root, 0)]),
        })
    })
}

fn names() -> RwLockReadGuard<'static, NameTable> {
    name_table().read().expect("name table poisoned")
}

/// A domain name interned into the global name table: a 4-byte `Copy`
/// handle with `O(1)` equality and parent access.
///
/// Interning canonicalises to lowercase (DNS names compare
/// case-insensitively, RFC 1035 §2.3.3), so `Display` shows the lowercased
/// labels; `Hash` and `Ord` agree with `dnswire::Name`'s because they are
/// the same code over the same bytes.
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
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InternedName(u32);

impl InternedName {
    /// The root name.
    pub fn root() -> Self {
        InternedName(0)
    }

    /// Intern a [`Name`]. Idempotent: the same canonical name always maps
    /// to the same id within a process.
    pub fn intern(name: &Name) -> Self {
        if let Some(known) = Self::lookup(name.borrowed()) {
            return known;
        }
        // One leaked lowercase copy serves the name and every suffix of it
        // the table does not hold yet. (A thread that lost the race to
        // intern the same name finds them all and leaks its copy unused.)
        let lower = Name::from_labels(name.labels().map(<[u8]>::to_ascii_lowercase));
        let lower = leak(lower.expect("Name upheld wire limits"));
        let mut t = name_table().write().expect("name table poisoned");
        let mut id = 0;
        for labels in 1..=lower.label_count() {
            let suffix = lower.suffix(labels).expect("within the label count");
            id = match t.ids.get(&suffix) {
                Some(&known) => known,
                None => {
                    let new = u32::try_from(t.names.len()).expect("name table exceeds u32 range");
                    t.names.push((suffix, id));
                    t.ids.insert(suffix, new);
                    new
                }
            };
        }
        InternedName(id)
    }

    /// The handle for `name` if it was ever interned — a probe that neither
    /// grows the table nor allocates (the twin of [`Sym::lookup`]).
    pub fn lookup(name: NameRef<'_>) -> Option<Self> {
        names().ids.get(&name).map(|&id| InternedName(id))
    }

    /// The interned name itself, lowercased. Its bytes are leaked, so the
    /// borrow outlives the handle and holds no lock.
    pub fn name(self) -> NameRef<'static> {
        names().names[self.0 as usize].0
    }

    /// Two names under one lock acquisition.
    fn name_pair(self, other: Self) -> (NameRef<'static>, NameRef<'static>) {
        let t = names();
        (t.names[self.0 as usize].0, t.names[other.0 as usize].0)
    }

    /// The parent name (one label stripped from the left), or `None` at
    /// the root. `O(1)`.
    pub fn parent(self) -> Option<InternedName> {
        (self != Self::root()).then(|| InternedName(names().names[self.0 as usize].1))
    }

    /// Prepend a label, producing a child name.
    pub fn child<L: AsRef<[u8]>>(self, label: L) -> WireResult<InternedName> {
        Ok(Self::intern(&self.name().to_name().child(label)?))
    }

    /// True if `self` equals `other` or descends from it.
    pub fn is_subdomain_of(self, other: &InternedName) -> bool {
        let (name, ancestor) = self.name_pair(*other);
        name.is_subdomain_of(ancestor)
    }

    /// True if `self` is strictly below `other`.
    pub fn is_strict_subdomain_of(self, other: &InternedName) -> bool {
        self != *other && self.is_subdomain_of(other)
    }

    /// The trailing `n` labels as a name, or `None` if `n` exceeds the
    /// label count. A walk up the parent ids.
    pub fn suffix(self, n: usize) -> Option<InternedName> {
        let t = names();
        let strip = t.names[self.0 as usize].0.label_count().checked_sub(n)?;
        let id = (0..strip).fold(self.0, |id, _| t.names[id as usize].1);
        Some(InternedName(id))
    }

    /// Convert back to an owned [`Name`] (lowercased).
    pub fn to_name(self) -> Name {
        self.name().to_name()
    }
}

impl PartialEq<Name> for InternedName {
    fn eq(&self, other: &Name) -> bool {
        self.name() == other.borrowed()
    }
}

impl Hash for InternedName {
    /// [`NameRef`]'s hash, which is `dnswire::Name`'s: derived hashes of
    /// key structs (and the pipeline's pinned sequence hashes) are the same
    /// over the owned and the interned representation.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name().hash(state)
    }
}

impl PartialOrd for InternedName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternedName {
    /// Canonical DNS ordering (RFC 4034 §6.1), as `dnswire::Name::cmp`.
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = self.name_pair(*other);
        a.cmp(&b)
    }
}

impl std::str::FromStr for InternedName {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(InternedName::intern(&s.parse()?))
    }
}

impl fmt::Display for InternedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.name().fmt(f)
    }
}

impl fmt::Debug for InternedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InternedName({} #{})", self, self.0)
    }
}

#[derive(Default)]
struct SymTable {
    index: HashMap<Box<str>, u32>,
    strings: Vec<&'static str>,
}

fn sym_table() -> &'static RwLock<SymTable> {
    static TABLE: OnceLock<RwLock<SymTable>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
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
        let t = sym_table().read().expect("sym table poisoned");
        t.strings[self.0 as usize].cmp(t.strings[other.0 as usize])
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
        assert_ne!(i("www.example.com"), i("mail.example.com"));
    }

    #[test]
    fn suffixes_share_entries() {
        let a = i("www.example.com");
        let b = i("mail.example.com");
        assert_eq!(a.parent().unwrap(), b.parent().unwrap());
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
        assert_eq!(i("shop.example.com"), n("shop.example.com"));
        assert!(i("shop.example.com") != n("shop.example.org"));
        assert!(i("example.com") != n("shop.example.com"));
    }

    #[test]
    fn parent_walks_and_suffix() {
        let x = i("a.b.c");
        assert_eq!(x.name().label_count(), 3);
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
            assert_eq!(i(s).to_name().wire_len(), n(s).wire_len());
        }
        assert_eq!(InternedName::root().to_name().wire_len(), 1);
    }

    #[test]
    fn labels_iterate_leftmost_first() {
        let got: Vec<&[u8]> = i("www.example.com").name().labels().collect();
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
        let names = names().names.len();
        assert!(names >= 4, "the root and three suffixes");
    }
}
