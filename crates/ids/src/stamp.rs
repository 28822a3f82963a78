//! Generative stamps for "significant" static objects.
//!
//! §4 of the paper: *"Every 'significant' object (module, signature, or
//! type constructor) has its own 'stamp'"*.  Stamps are generated fresh by
//! the elaborator whenever a generative construct is elaborated (a
//! `datatype` declaration, a `structure` expression, an opaque ascription)
//! and serve three roles:
//!
//! 1. **identity** — two type constructors are the same type iff their
//!    stamps are equal;
//! 2. **indexing** — the indexed context environments of §5 map stamps to
//!    objects so the rehydrater can find the real pointer for a stub;
//! 3. **alpha-conversion during hashing** — intrinsic-pid computation
//!    renumbers the stamps *bound* by a unit 1..n in traversal order so the
//!    hash is independent of the session's global stamp counter.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A generative stamp.
///
/// Stamps are totally ordered and hashable; their numeric value is
/// meaningless outside the session that generated them (which is exactly
/// why the pickle numbers a unit's new entities by position instead;
/// see `smlsc-pickle`).
///
/// # Examples
///
/// ```
/// use smlsc_ids::StampGenerator;
/// let mut g = StampGenerator::new();
/// let a = g.fresh();
/// let b = g.fresh();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Stamp(u64);

impl Stamp {
    /// Constructs a stamp from a raw number.
    ///
    /// Intended for the pickler (which renumbers stamps on rehydration);
    /// ordinary elaboration should go through [`StampGenerator::fresh`].
    pub fn from_raw(n: u64) -> Stamp {
        Stamp(n)
    }

    /// The raw numeric value.
    pub fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stamp({})", self.0)
    }
}

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A source of fresh stamps.
///
/// Each elaboration session owns one generator; the process-wide
/// [`StampGenerator::global_fresh`] backs convenience constructors.
/// Every thread draws from its own stamp space: a thread index (taken
/// once per thread from a process-wide counter) in the high 32 bits
/// and a thread-local counter below, so stamps
/// from different threads never collide (the paper's "stamps are unique
/// within a process") and drawing one touches no shared state.
#[derive(Debug)]
pub struct StampGenerator(());

/// Width of the thread index in a stamp's raw value.
const THREAD_BITS: u32 = 32;
const LOCAL_MASK: u64 = (1 << (64 - THREAD_BITS)) - 1;

/// The next thread index.  Relaxed: it only hands out distinct values.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's next stamp; 0 until it claims a space.
    static NEXT_STAMP: Cell<u64> = const { Cell::new(0) };
}

/// This thread's next stamp, claiming the thread's space on first use.
fn next_stamp() -> u64 {
    NEXT_STAMP.with(|next| {
        if next.get() == 0 {
            let t = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            assert!(t < 1 << THREAD_BITS, "stamp thread spaces exhausted");
            next.set((t << (64 - THREAD_BITS)) | 1);
        }
        next.get()
    })
}

impl StampGenerator {
    /// Creates a generator.
    pub fn new() -> StampGenerator {
        StampGenerator(())
    }

    /// Returns a stamp never returned before in this process.
    pub fn fresh(&mut self) -> Stamp {
        StampGenerator::global_fresh()
    }

    /// Process-unique fresh stamp, for contexts without a generator handle.
    pub fn global_fresh() -> Stamp {
        let n = next_stamp();
        // Spilling into the next thread's space would break the
        // `peek_raw` range guarantee, so a spent space is fatal.
        assert!(
            n & LOCAL_MASK != LOCAL_MASK,
            "a thread's stamp space is spent"
        );
        NEXT_STAMP.with(|next| next.set(n + 1));
        Stamp(n)
    }

    /// The raw value the *next* stamp on this thread would get.  Used
    /// to delimit generative stamp ranges (functor bodies, signature
    /// templates): the stamps created between two `peek_raw` calls on
    /// one thread are exactly those in `[lo, hi)` — no other thread's
    /// stamp falls inside, whatever ran concurrently.
    pub fn peek_raw() -> u64 {
        next_stamp()
    }
}

impl Default for StampGenerator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stamps_are_distinct() {
        let mut g = StampGenerator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(g.fresh()));
        }
    }

    #[test]
    fn global_and_local_share_counter() {
        let mut g = StampGenerator::new();
        let a = g.fresh();
        let b = StampGenerator::global_fresh();
        let c = g.fresh();
        assert!(a < b && b < c);
    }

    #[test]
    fn raw_round_trip() {
        let s = Stamp::from_raw(42);
        assert_eq!(s.as_raw(), 42);
        assert_eq!(s.to_string(), "s42");
    }
}
