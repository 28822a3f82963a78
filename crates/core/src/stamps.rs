//! The persistent analysis cache: `unit → (stat, analysis)`.
//!
//! The paper's IRM derives each unit's imports from its source (§8) and
//! trusts only the source digest (§4–5).  [`StampCache`] is the
//! manager's one record of that analysis, keyed by unit, and it serves
//! the three-rung ladder of `analyze_one` in [`crate::irm`]:
//!
//! 1. a path-backed file whose mtime (nanoseconds) and size match its
//!    record's stat reuses the record without being opened;
//! 2. otherwise the file is read and digested, and an equal source pid
//!    reuses the record's analysis (re-recording the new stat);
//! 3. otherwise one parse gives the imports, the exports and
//!    `names_pid`.
//!
//! A stat is a *hint*, never the truth (the paper's §4 stance applied
//! to timestamps): every pid that participates in a rebuild decision
//! was computed from file contents.  `--paranoid` skips rung 1, so it
//! reads and digests every source, yet still reuses the analysis of an
//! unchanged one.  A property test asserts stamped and paranoid runs
//! produce identical pids and identical rebuild decisions.
//!
//! A record whose stat may not vouch for the file (an in-memory source,
//! a file the daemon's watch named, a racy save) keeps its analysis for
//! rung 2 and has no stat for rung 1.
//!
//! The cache persists as the stamp section of `bins.pack` segments
//! ([`crate::pack`]): a save appends the records changed since the last
//! save ([`StampCache::encode_section`] with `all == false`), a full
//! rewrite carries the record of every unit it holds a bin for, and on
//! load later segments win by unit.  Each section records its own save
//! instant; a stat taken at or after it is *racy* and dropped
//! ([`StampCache::merge_section`]).  A pack with no stamp section — or
//! none at all — degrades to "no hints", i.e. the cold path.
//!
//! # Section layout
//!
//! ```text
//! u64 save instant (nanoseconds since the epoch)
//! u32 nnames; nnames × (u32 len | bytes)   -- the section's name table
//! u32 record count
//! per record, sorted by unit name:
//!   u32  unit name id
//!   u8   1 when a stat follows, else 0
//!   u64  mtime_ns, u64 size (the stat)
//!   u128 source pid, u128 names pid
//!   u32  import count, then that many name ids
//!   u32  export count, then that many name ids
//! ```
//!
//! Each name is written and interned once per section, however many
//! records import it (a hub module is imported by a thousand units), as
//! in the pack index ([`crate::pack`]).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};

use crate::pack::NameTable;

/// The dependency analysis of one source: its content digest, its
/// import/export lists, and a digest of those lists.  Shared by [`Arc`],
/// so a cache hit costs a refcount bump — never a clone of the vectors
/// (at monorepo scale those per-unit clones dominated the no-op analyze
/// phase).
///
/// A record loaded from a stamp section decodes its lists only when
/// something reads them (a graph re-derivation, a save that rewrites
/// the record): a warm build whose graph still matches reads only the
/// stat and the two pids.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Digest of the file contents the analysis was parsed from.
    pub source_pid: Pid,
    /// Digest of the import and export lists: everything the import
    /// graph reads of this unit ([`crate::depgraph::DepGraph`] is keyed
    /// on it).
    pub names_pid: Pid,
    /// `[imports, exports]`, once known.
    lists: OnceLock<[Vec<Symbol>; 2]>,
    /// Where a loaded record's lists are decoded from.
    packed: Option<(Arc<SectionNames>, usize)>,
}

impl Analysis {
    /// An analysis of these lists, computing `names_pid` from them.
    /// Only a fresh parse calls this; the cache keeps the digest.
    pub fn new(source_pid: Pid, imports: Vec<Symbol>, exports: Vec<Symbol>) -> Analysis {
        let mut w = Writer::new();
        for list in [&imports, &exports] {
            w.u32(list.len() as u32);
            for s in list {
                w.str(s.as_str());
            }
        }
        Analysis {
            source_pid,
            names_pid: Pid::of_bytes(&w.into_bytes()),
            lists: OnceLock::from([imports, exports]),
            packed: None,
        }
    }

    /// Imported module names, sorted.
    pub fn imports(&self) -> &[Symbol] {
        &self.lists()[0]
    }

    /// Exported module names.
    pub fn exports(&self) -> &[Symbol] {
        &self.lists()[1]
    }

    fn lists(&self) -> &[Vec<Symbol>; 2] {
        self.lists.get_or_init(|| {
            let (section, at) = self
                .packed
                .as_ref()
                .expect("an analysis without lists was loaded from a section");
            section
                .id_lists(*at)
                .map(|ids| ids.iter().map(|&id| section.name(id)).collect())
        })
    }

    /// Writes the two lists as ids into `table`.  A loaded record whose
    /// lists were never read is written from its section's ids, each
    /// section name interned once: a save that rewrites every record
    /// neither decodes nor keeps their lists.
    fn write_lists(&self, table: &mut NameTable, w: &mut Writer) {
        let mut write = |list: &mut dyn ExactSizeIterator<Item = Symbol>| {
            w.u32(list.len() as u32);
            for s in list {
                w.u32(table.id(s));
            }
        };
        match (self.lists.get(), &self.packed) {
            (None, Some((section, at))) => {
                let symbols = section.symbols();
                for ids in section.id_lists(*at) {
                    write(&mut ids.iter().map(|&id| symbols[id as usize]));
                }
            }
            _ => {
                for list in self.lists() {
                    write(&mut list.iter().copied());
                }
            }
        }
    }
}

impl PartialEq for Analysis {
    fn eq(&self, other: &Analysis) -> bool {
        self.source_pid == other.source_pid
            && self.names_pid == other.names_pid
            && self.lists() == other.lists()
    }
}

impl Eq for Analysis {}

/// A loaded stamp section's name table and name lists, shared by the
/// records it holds so that each decodes its lists on first use.
/// [`decode_section`] checked every name id against the table.
#[derive(Default)]
struct SectionNames {
    /// The table's names, concatenated: name `i` ends at `ends[i]`.
    text: String,
    ends: Vec<u32>,
    /// Each record's import and export lists: a count, then that many
    /// name ids, twice.
    lists: Vec<u32>,
    /// Every table name interned, once a save needed them all.
    symbols: OnceLock<Vec<Symbol>>,
}

impl std::fmt::Debug for SectionNames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SectionNames({} names)", self.ends.len())
    }
}

impl SectionNames {
    fn name(&self, id: u32) -> Symbol {
        let id = id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        Symbol::intern(&self.text[start..self.ends[id] as usize])
    }

    fn symbols(&self) -> &[Symbol] {
        self.symbols.get_or_init(|| {
            (0..self.ends.len() as u32)
                .map(|id| self.name(id))
                .collect()
        })
    }

    /// The two id lists starting at `lists[at]`.
    fn id_lists(&self, mut at: usize) -> [&[u32]; 2] {
        [(); 2].map(|()| {
            let n = self.lists[at] as usize;
            let ids = &self.lists[at + 1..at + 1 + n];
            at += 1 + n;
            ids
        })
    }
}

/// The recorded analysis of one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampEntry {
    /// `(mtime_ns, size)` of the file the analysis was taken from, while
    /// that metadata may vouch for the file unread; `None` when it may
    /// not (see the module docs).
    pub stat: Option<(u64, u64)>,
    /// The recorded analysis.
    pub analysis: Arc<Analysis>,
}

/// The fewest bytes one encoded record can take: a name id, the stat
/// flag and stat, two pids and two empty lists.
const MIN_RECORD_LEN: usize = 4 + 1 + 16 + 32 + 4 + 4;

/// The persistent analysis cache.  See the module docs.
#[derive(Debug, Default)]
pub struct StampCache {
    entries: HashMap<Symbol, StampEntry>,
    /// Units recorded since the last save: what the next appended
    /// section carries.
    unsaved: HashSet<Symbol>,
    /// Stats dropped as racy at load, by unit.
    racy: HashMap<Symbol, (u64, u64)>,
    /// Unsaved units whose only change is a racy stat re-recorded over
    /// the same analysis: the pack already holds these records, and
    /// writing them would only move the instant that vouches for them.
    heals: HashSet<Symbol>,
}

impl StampCache {
    /// An empty cache.
    pub fn new() -> StampCache {
        StampCache::default()
    }

    /// Merges one segment's stamp section, decoded by
    /// [`decode_section`], over the records of earlier segments.
    ///
    /// A stat whose mtime is at or after the section's save instant is
    /// *racy* and dropped: a file edited within the same mtime tick and
    /// to the same byte size would otherwise be served unread with
    /// stale analysis.  The record keeps its analysis, so the unit is
    /// read and digested, and its re-recorded stat goes into the next
    /// save that writes anything else ([`Self::only_heals`]), whose later
    /// instant trusts it.
    pub fn merge_section(&mut self, section: StampSection) {
        let StampSection { saved_at, records } = section;
        self.entries.reserve(records.len());
        for (unit, mut entry) in records {
            match entry.stat {
                Some(stat) if stat.0 >= saved_at => {
                    self.racy.insert(unit, stat);
                    entry.stat = None;
                }
                _ => {
                    self.racy.remove(&unit);
                }
            }
            self.entries.insert(unit, entry);
        }
    }

    /// Encodes a stamp section saved at `saved_at` (nanoseconds since
    /// the epoch): every record when `all`, else only those recorded
    /// since the last save.  Records are sorted by unit name, so saving
    /// the same cache twice is byte-identical.  `None` when there is
    /// nothing to write.
    pub fn encode_section(&self, all: bool, saved_at: u64) -> Option<Vec<u8>> {
        let mut units: Vec<Symbol> = if all {
            self.entries.keys().copied().collect()
        } else {
            self.unsaved
                .iter()
                .copied()
                .filter(|u| self.entries.contains_key(u))
                .collect()
        };
        if units.is_empty() {
            return None;
        }
        units.sort_by_key(|u| u.as_str());
        let mut table = NameTable::default();
        let mut records = Writer::new();
        for &unit in &units {
            let e = &self.entries[&unit];
            let a = &e.analysis;
            records.u32(table.id(unit));
            let (mtime_ns, size) = e.stat.unwrap_or((0, 0));
            records.u8(u8::from(e.stat.is_some()));
            records.u64(mtime_ns);
            records.u64(size);
            records.u128(a.source_pid.as_raw());
            records.u128(a.names_pid.as_raw());
            a.write_lists(&mut table, &mut records);
        }
        let mut header = Writer::new();
        header.u64(saved_at);
        table.write(&mut header);
        header.u32(units.len() as u32);
        // In front of the records, in place: a full rewrite's section is
        // megabytes at 20k units, and a second copy would be its peak.
        let mut bytes = records.into_bytes();
        bytes.splice(0..0, header.into_bytes());
        Some(bytes)
    }

    /// True when every record is in the pack: a save need write no
    /// stamp section.
    pub fn is_saved(&self) -> bool {
        self.unsaved.is_empty()
    }

    /// True when every unsaved record only re-vouches a racy stat (see
    /// `heals`), so a save that has nothing else to write may skip.  A
    /// read-only command beside a daemon then leaves the pack alone
    /// rather than append a segment that sends the daemon's next save
    /// into a full rewrite.
    pub fn only_heals(&self) -> bool {
        self.unsaved.len() == self.heals.len()
    }

    /// Marks every record as written (a save committed its section).
    pub fn mark_saved(&mut self) {
        self.unsaved.clear();
        self.heals.clear();
    }

    /// The record of `unit`, whatever its stat.
    pub fn get(&self, unit: Symbol) -> Option<&StampEntry> {
        self.entries.get(&unit)
    }

    /// The record of `unit`, but only if its stat vouches for a file of
    /// this mtime (nanoseconds) and size.
    pub fn lookup(&self, unit: Symbol, mtime_ns: u64, size: u64) -> Option<&StampEntry> {
        self.get(unit).filter(|e| e.stat == Some((mtime_ns, size)))
    }

    /// Records (or refreshes) the record of `unit`.  Recording an
    /// identical record changes nothing, so a fully warm build saves no
    /// stamps.
    pub fn record(&mut self, unit: Symbol, entry: StampEntry) {
        if self.entries.get(&unit) == Some(&entry) {
            return;
        }
        let heal = entry.stat.is_some()
            && self.racy.remove(&unit) == entry.stat
            && self.entries.get(&unit).map(|e| &e.analysis) == Some(&entry.analysis);
        if heal && !self.unsaved.contains(&unit) {
            self.heals.insert(unit);
        } else {
            self.heals.remove(&unit);
        }
        self.unsaved.insert(unit);
        self.entries.insert(unit, entry);
    }

    /// Drops the stat of `unit`'s record, so the next analysis reads its
    /// file whatever its metadata says; the analysis stays for rung 2.
    pub(crate) fn forget(&mut self, unit: Symbol) {
        if let Some(e) = self.entries.get_mut(&unit) {
            e.stat = None;
        }
    }

    /// Keeps only the records of units `keep` accepts.
    pub(crate) fn retain(&mut self, keep: impl Fn(Symbol) -> bool) {
        self.entries.retain(|&u, _| keep(u));
        self.unsaved.retain(|&u| keep(u));
        self.heals.retain(|&u| keep(u));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One decoded stamp section: its save instant and its records.
#[derive(Debug)]
pub struct StampSection {
    saved_at: u64,
    records: Vec<(Symbol, StampEntry)>,
}

/// Decodes a stamp section.
///
/// # Errors
///
/// A description of the first malformed field.
pub fn decode_section(bytes: &[u8]) -> Result<StampSection, String> {
    let mut r = Reader::new(bytes);
    let err = |e: smlsc_pickle::PickleError| format!("stamp section: {e}");
    let saved_at = r.u64().map_err(err)?;
    // The segment digest vouches for the bytes; the bounded counts keep
    // the allocations proportional to the section even for a
    // well-digested section from a buggy writer.  Only the unit names
    // are interned here; list names wait until a record's lists are
    // first read.
    let ntable = r.count(4).map_err(err)?;
    let mut names = SectionNames {
        ends: Vec::with_capacity(ntable),
        ..SectionNames::default()
    };
    for _ in 0..ntable {
        names.text.push_str(r.str_ref().map_err(err)?);
        // The text is shorter than the section, whose length is a u32.
        names.ends.push(names.text.len() as u32);
    }
    let id = |r: &mut Reader<'_>| -> Result<u32, String> {
        let id = r.u32().map_err(err)?;
        if id as usize >= ntable {
            return Err(format!("stamp section: name index {id} out of range"));
        }
        Ok(id)
    };
    let count = r.count(MIN_RECORD_LEN).map_err(err)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let unit = names.name(id(&mut r)?);
        let stated = match r.u8().map_err(err)? {
            0 => false,
            1 => true,
            b => return Err(format!("stamp section: bad stat flag {b}")),
        };
        let mtime_ns = r.u64().map_err(err)?;
        let size = r.u64().map_err(err)?;
        let source_pid = Pid::from_raw(r.u128().map_err(err)?);
        let names_pid = Pid::from_raw(r.u128().map_err(err)?);
        let lists_at = names.lists.len();
        for _ in 0..2 {
            // Every name takes its 4-byte id.
            let n = r.count(4).map_err(err)?;
            names.lists.push(n as u32);
            for _ in 0..n {
                names.lists.push(id(&mut r)?);
            }
        }
        let stat = stated.then_some((mtime_ns, size));
        records.push((unit, stat, source_pid, names_pid, lists_at));
    }
    if !r.at_end() {
        return Err("stamp section: trailing bytes after the last record".into());
    }
    let names = Arc::new(names);
    let records = records
        .into_iter()
        .map(|(unit, stat, source_pid, names_pid, lists_at)| {
            let analysis = Analysis {
                source_pid,
                names_pid,
                lists: OnceLock::new(),
                packed: Some((Arc::clone(&names), lists_at)),
            };
            let analysis = Arc::new(analysis);
            (unit, StampEntry { stat, analysis })
        })
        .collect();
    Ok(StampSection { saved_at, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn entry(mtime: u64, size: u64) -> StampEntry {
        StampEntry {
            stat: Some((mtime, size)),
            analysis: Arc::new(Analysis::new(
                Pid::of_bytes(b"src"),
                vec![sym("A")],
                vec![sym("B")],
            )),
        }
    }

    /// Round-trips `cache`'s section (all records or the unsaved ones)
    /// through the codec into `into`.
    fn reload(into: &mut StampCache, cache: &StampCache, all: bool, saved_at: u64) {
        if let Some(bytes) = cache.encode_section(all, saved_at) {
            into.merge_section(decode_section(&bytes).unwrap());
        }
    }

    #[test]
    fn round_trip() {
        let mut c = StampCache::new();
        c.record(sym("a"), entry(10, 20));
        c.record(
            sym("inline"),
            StampEntry {
                stat: None,
                ..entry(0, 0)
            },
        );
        let mut back = StampCache::new();
        reload(&mut back, &c, true, 100);
        assert_eq!(back.len(), 2);
        let hit = back.lookup(sym("a"), 10, 20).unwrap();
        assert_eq!(hit, &entry(10, 20));
        assert_eq!(hit.analysis.names_pid, entry(0, 0).analysis.names_pid);
        assert_eq!(back.get(sym("inline")).unwrap().stat, None);
        assert!(back.lookup(sym("inline"), 0, 0).is_none());
    }

    #[test]
    fn names_pid_follows_the_name_lists_only() {
        let (a, b) = (sym("A"), sym("B"));
        let p = |src: &[u8], imports: Vec<Symbol>, exports: Vec<Symbol>| {
            Analysis::new(Pid::of_bytes(src), imports, exports).names_pid
        };
        assert_eq!(p(b"x", vec![a], vec![b]), p(b"y", vec![a], vec![b]));
        assert_ne!(p(b"x", vec![a], vec![b]), p(b"x", vec![], vec![a, b]));
        assert_ne!(p(b"x", vec![a], vec![b]), p(b"x", vec![b], vec![a]));
    }

    #[test]
    fn stale_stat_does_not_match() {
        let mut c = StampCache::new();
        c.record(sym("a"), entry(10, 20));
        assert!(c.lookup(sym("a"), 11, 20).is_none(), "mtime moved");
        assert!(c.lookup(sym("a"), 10, 21).is_none(), "size moved");
        assert!(c.lookup(sym("b"), 10, 20).is_none(), "other unit");
        // Forgetting drops the stat, not the analysis.
        c.forget(sym("a"));
        assert!(c.lookup(sym("a"), 10, 20).is_none());
        assert_eq!(c.get(sym("a")).unwrap().analysis, entry(10, 20).analysis);
    }

    /// The racy rule applies per section: each stat is judged against
    /// the save instant of the section that carries it, not the latest
    /// one, and a racy record loses its stat but keeps its analysis.
    #[test]
    fn racy_stats_are_judged_against_their_own_section() {
        let mut first = StampCache::new();
        first.record(sym("old"), entry(10, 20));
        first.record(sym("racy"), entry(100, 20));
        first.record(sym("a"), entry(50, 20));
        let mut back = StampCache::new();
        // Section 1, saved at 100: `racy` (stamped at 100) loses its stat.
        reload(&mut back, &first, true, 100);
        assert_eq!(back.len(), 3);
        assert!(back.lookup(sym("racy"), 100, 20).is_none());
        assert_eq!(back.get(sym("racy")).unwrap().stat, None);

        // Section 2, saved at 200, re-stamps `a` at 200: racy again, and
        // it replaces `a`'s settled record from section 1.
        let mut second = StampCache::new();
        second.record(sym("a"), entry(200, 20));
        second.record(sym("new"), entry(150, 20));
        reload(&mut back, &second, false, 200);
        assert!(back.lookup(sym("a"), 50, 20).is_none());
        assert!(back.lookup(sym("a"), 200, 20).is_none());
        assert!(back.lookup(sym("new"), 150, 20).is_some());
        // `racy`'s mtime (100) is before section 2's instant, but it was
        // saved in section 1: still untrusted.
        assert!(back.lookup(sym("racy"), 100, 20).is_none());
        assert!(back.lookup(sym("old"), 10, 20).is_some());

        // Re-recording the stat of a racy record marks it unsaved even
        // though the analysis is identical, so the next section trusts it;
        // alone, such heals are not worth a section of their own.
        assert!(back.is_saved());
        back.record(sym("racy"), entry(100, 20));
        assert!(!back.is_saved());
        assert!(back.only_heals());
        back.record(sym("old"), entry(11, 20));
        assert!(!back.only_heals(), "a moved stat is worth a save");
        let mut healed = StampCache::new();
        reload(&mut healed, &back, true, 300);
        assert!(healed.lookup(sym("racy"), 100, 20).is_some());
    }

    #[test]
    fn appended_sections_carry_only_unsaved_records() {
        let mut c = StampCache::new();
        c.record(sym("a"), entry(1, 2));
        c.record(sym("b"), entry(1, 2));
        c.mark_saved();
        assert!(c.is_saved());
        assert_eq!(c.encode_section(false, 10), None, "nothing to append");
        // Re-recording the identical record keeps the cache saved.
        c.record(sym("a"), entry(1, 2));
        assert!(c.is_saved());
        c.record(sym("b"), entry(3, 2));
        let bytes = c.encode_section(false, 10).unwrap();
        let section = decode_section(&bytes).unwrap();
        let units: Vec<&str> = section.records.iter().map(|(u, _)| u.as_str()).collect();
        assert_eq!(units, ["b"]);
        assert_eq!(
            c.encode_section(true, 10).map(|b| b.len() > bytes.len()),
            Some(true)
        );
        // Retaining drops records and their unsaved marks alike.
        c.retain(|u| u != sym("b"));
        assert_eq!(c.len(), 1);
        assert!(c.is_saved());
    }

    #[test]
    fn malformed_sections_are_errors() {
        let mut c = StampCache::new();
        c.record(sym("a"), entry(1, 2));
        let bytes = c.encode_section(true, 10).unwrap();
        for cut in [0, 8, 12, bytes.len() - 1] {
            assert!(decode_section(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_section(&long).is_err(), "trailing byte");
        let mut inflated = bytes.clone();
        inflated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_section(&inflated).is_err(), "inflated name count");
        // The one record is the last 69 bytes: its unit id, the stat
        // flag, the stat (16), the pids (32) and two one-name lists (16).
        let mut flag = bytes.clone();
        flag[bytes.len() - 69 + 4] = 2;
        assert!(decode_section(&flag).is_err(), "bad stat flag");
    }
}
