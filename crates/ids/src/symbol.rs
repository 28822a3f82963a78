//! Interned source-level identifiers.
//!
//! Every identifier that appears in mini-SML source — value variables,
//! type constructors, structure/signature/functor names, type variables —
//! is interned into a global table so that symbols compare and hash in
//! O(1).  The interner leaks the backing strings (they live for the whole
//! process), which matches how a compiler session uses them.
//!
//! Wavefront workers lex and elaborate in parallel, and most of their
//! symbol traffic is reads, so [`Symbol::as_str`] takes no lock: it reads
//! an append-only table indexed by the symbol's id.  Only
//! [`Symbol::intern`] locks, to look the string up.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use parking_lot::Mutex;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// An interned identifier.
///
/// Two `Symbol`s are equal iff they intern the same string.  `Symbol` is
/// `Copy`, 4 bytes, and cheap to hash, so it is used pervasively as a map
/// key across the compiler.  It has no order: interner numbering
/// depends on what a process interned first, so code that needs one
/// sorts by [`Symbol::as_str`].
///
/// Serialization round-trips through the string form so pickled data does
/// not depend on interner numbering (which varies between processes).
///
/// # Examples
///
/// ```
/// use smlsc_ids::Symbol;
/// let a = Symbol::intern("sort");
/// let b = Symbol::intern("sort");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "sort");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// The first chunk of the id table holds `1 << BASE_BITS` slots; chunk
/// `k` holds `1 << (BASE_BITS + k)`, so the table never moves a slot.
const BASE_BITS: u32 = 10;
/// Enough chunks for every `u32` id.
const CHUNKS: usize = 23;

type Chunk = Box<[OnceLock<&'static str>]>;

struct Interner {
    /// Every interned string and its id; ids are handed out densely
    /// from 0, so the next id is the map's length.
    ids: Mutex<HashMap<&'static str, u32>>,
    /// The string of every id, each slot written once, before its id
    /// is returned.
    chunks: [OnceLock<Chunk>; CHUNKS],
}

impl Interner {
    fn new() -> Interner {
        Interner {
            ids: Mutex::default(),
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The id of `s`, interning it if new.
    fn intern(&self, s: &str) -> u32 {
        let mut ids = self.ids.lock();
        if let Some(&id) = ids.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(ids.len()).expect("interner overflow");
        self.slot(id)
            .set(leaked)
            .expect("a fresh id's slot is written once");
        ids.insert(leaked, id);
        id
    }

    /// The slot of `id`: its chunk, allocated on first use, and its
    /// offset there.
    fn slot(&self, id: u32) -> &OnceLock<&'static str> {
        let n = u64::from(id) + (1 << BASE_BITS);
        let bits = u64::BITS - 1 - n.leading_zeros();
        let chunk = self.chunks[(bits - BASE_BITS) as usize]
            .get_or_init(|| (0..1u64 << bits).map(|_| OnceLock::new()).collect());
        &chunk[(n - (1 << bits)) as usize]
    }

    /// The string of `id`.  Takes no lock: the slot was written before
    /// the id existed anywhere else.
    fn str_of(&self, id: u32) -> &'static str {
        self.slot(id)
            .get()
            .expect("every symbol's slot is written before it is returned")
    }
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

impl Symbol {
    /// Interns `s`, returning its canonical `Symbol`.
    pub fn intern(s: &str) -> Symbol {
        Symbol(interner().intern(s))
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        interner().str_of(self.0)
    }

    /// Returns `true` if this symbol starts with an uppercase ASCII letter —
    /// the convention our workload generator uses for module names.
    pub fn is_capitalized(self) -> bool {
        self.as_str()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl Serialize for Symbol {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for Symbol {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let s = String::deserialize(de)?;
        if s.is_empty() {
            return Err(D::Error::custom("empty symbol"));
        }
        Ok(Symbol::intern(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        let c = Symbol::intern("bar");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "foo");
        assert_eq!(c.as_str(), "bar");
    }

    #[test]
    fn display_matches_source() {
        let s = Symbol::intern("TopSort");
        assert_eq!(s.to_string(), "TopSort");
        assert!(s.is_capitalized());
        assert!(!Symbol::intern("sort").is_capitalized());
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", Symbol::intern("x")), "Symbol(\"x\")");
    }

    #[test]
    fn many_symbols_do_not_collide() {
        let syms: Vec<Symbol> = (0..1000)
            .map(|i| Symbol::intern(&format!("s{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("s{i}"));
        }
    }
}
