//! The persistent stamp cache: `(path, mtime_ns, size) → analysis`.
//!
//! The paper's IRM promises that an unchanged project costs only digest
//! checks — but even digesting requires *reading* every source.  The
//! stamp cache removes that last O(project) scan: when a file's path,
//! mtime (nanoseconds) and size all match the recorded stamp, the
//! manager reuses the recorded source pid and dependency analysis
//! without opening the file at all.
//!
//! Stamps are a *hint*, never the truth (the paper's §4 stance applied
//! to timestamps): every pid that participates in a rebuild decision was
//! originally computed from file contents, and `--paranoid` re-reads and
//! re-digests everything, bypassing the stamp cache entirely.  A
//! property test asserts stamped and paranoid runs produce identical
//! pids and identical rebuild decisions.
//!
//! Paths are keyed relative to the project directory (see
//! [`stamp_key`]), so a moved checkout keeps every hit and no persisted
//! byte depends on where the checkout lives.
//!
//! The cache persists as the stamp section of `bins.pack` segments
//! ([`crate::pack`]): a save appends the entries recorded since the last
//! save ([`StampCache::encode_section`] with `all == false`), a full
//! rewrite carries every entry, and on load later segments win by path.
//! Each section records its own save instant; an entry stamped at or
//! after it is *racy* and dropped ([`StampCache::merge_section`]).  A
//! pack with no stamp section — or none at all — degrades to "no
//! hints", i.e. the cold path.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};

/// The dependency analysis recorded for one source: its content and
/// token digests, the import/export lists, and a digest of those lists.
/// Shared by [`Arc`] between the stamp cache and the manager's
/// in-memory deps cache, so a warm stamp hit costs a refcount bump —
/// never a clone of the vectors (at monorepo scale those per-unit
/// clones dominated the no-op analyze phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Digest of the file contents at stamp time.
    pub source_pid: Pid,
    /// Digest of the token stream (comment/whitespace-insensitive).
    pub deps_pid: Pid,
    /// Digest of `imports` and `exports`: everything the import graph
    /// reads of this unit ([`crate::depgraph::DepGraph`] is keyed on it).
    pub names_pid: Pid,
    /// Imported module names, sorted.
    pub imports: Vec<Symbol>,
    /// Exported module names.
    pub exports: Vec<Symbol>,
}

impl Analysis {
    /// An analysis of these lists, computing `names_pid` from them.
    /// Only a fresh parse calls this; every cache keeps the digest.
    pub fn new(
        source_pid: Pid,
        deps_pid: Pid,
        imports: Vec<Symbol>,
        exports: Vec<Symbol>,
    ) -> Analysis {
        let mut w = Writer::new();
        for list in [&imports, &exports] {
            w.u32(list.len() as u32);
            for s in list {
                w.str(s.as_str());
            }
        }
        Analysis {
            source_pid,
            deps_pid,
            names_pid: Pid::of_bytes(&w.into_bytes()),
            imports,
            exports,
        }
    }
}

/// One recorded analysis for a source path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampEntry {
    /// The unit the path analyzed as (a rename never matches a stale
    /// stamp even if mtime and size coincide).
    pub unit: Symbol,
    /// File modification time, nanoseconds since the epoch.
    pub mtime_ns: u64,
    /// File size in bytes.
    pub size: u64,
    /// The recorded analysis, shareable with the deps cache.
    pub analysis: Arc<Analysis>,
}

/// The stamp key of a source path: its path relative to the project
/// directory.  [`crate::irm::Project::from_dir`] scans one flat
/// directory, so that is the file name.  Two files of one name in
/// different directories would share a key; the unit check in
/// [`StampCache::lookup`] keeps that a miss, never a wrong hit.
pub fn stamp_key(path: &Path) -> std::borrow::Cow<'_, str> {
    path.file_name()
        .unwrap_or(path.as_os_str())
        .to_string_lossy()
}

/// The persistent stamp cache.  See the module docs.
#[derive(Debug, Default)]
pub struct StampCache {
    entries: HashMap<String, StampEntry>,
    /// Paths recorded since the last save: what the next appended
    /// section carries.
    unsaved: HashSet<String>,
}

impl StampCache {
    /// An empty cache.
    pub fn new() -> StampCache {
        StampCache::default()
    }

    /// Merges one segment's stamp section, decoded by
    /// [`decode_section`], over the entries of earlier segments.
    ///
    /// Entries whose recorded `mtime_ns` is at or after the section's
    /// save instant are *racy* and dropped, together with any earlier
    /// entry for the path: a file edited within the same mtime tick and
    /// to the same byte size as its stamp would otherwise be served as a
    /// hit with stale analysis.  The dropped path then misses once, and
    /// its re-digested entry goes into the next save, whose later
    /// instant trusts it.
    pub fn merge_section(&mut self, section: StampSection) {
        let StampSection { saved_at, records } = section;
        self.entries.reserve(records.len());
        for (path, entry) in records {
            if entry.mtime_ns < saved_at {
                self.entries.insert(path, entry);
            } else {
                self.entries.remove(&path);
            }
        }
    }

    /// Encodes a stamp section saved at `saved_at` (nanoseconds since
    /// the epoch): every entry when `all`, else only those recorded
    /// since the last save.  Records are sorted by path, so saving the
    /// same cache twice is byte-identical.  `None` when there is
    /// nothing to write.
    pub fn encode_section(&self, all: bool, saved_at: u64) -> Option<Vec<u8>> {
        let mut paths: Vec<&String> = if all {
            self.entries.keys().collect()
        } else {
            self.unsaved
                .iter()
                .filter(|p| self.entries.contains_key(*p))
                .collect()
        };
        if paths.is_empty() {
            return None;
        }
        paths.sort();
        let mut w = Writer::new();
        w.u64(saved_at);
        w.u32(paths.len() as u32);
        for p in paths {
            let e = &self.entries[p];
            let a = &e.analysis;
            w.str(p);
            w.str(e.unit.as_str());
            w.u64(e.mtime_ns);
            w.u64(e.size);
            w.u128(a.source_pid.as_raw());
            w.u128(a.deps_pid.as_raw());
            w.u128(a.names_pid.as_raw());
            for list in [&a.imports, &a.exports] {
                w.u32(list.len() as u32);
                for s in list {
                    w.str(s.as_str());
                }
            }
        }
        Some(w.into_bytes())
    }

    /// True when every entry is in the pack: a save need write no
    /// stamp section.
    pub fn is_saved(&self) -> bool {
        self.unsaved.is_empty()
    }

    /// Marks every entry as written (a save committed its section).
    pub fn mark_saved(&mut self) {
        self.unsaved.clear();
    }

    /// The recorded entry for `path`, but only if the stamp still
    /// matches: same unit, same mtime (nanoseconds), same size.
    pub fn lookup(
        &self,
        path: &str,
        unit: Symbol,
        mtime_ns: u64,
        size: u64,
    ) -> Option<&StampEntry> {
        self.entries
            .get(path)
            .filter(|e| e.unit == unit && e.mtime_ns == mtime_ns && e.size == size)
    }

    /// Records (or refreshes) the entry for `path`.  Recording an
    /// identical entry changes nothing, so a fully warm build saves no
    /// stamps.
    pub fn record(&mut self, path: String, entry: StampEntry) {
        if self.entries.get(&path) == Some(&entry) {
            return;
        }
        self.unsaved.insert(path.clone());
        self.entries.insert(path, entry);
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One decoded stamp section: its save instant and its records.
#[derive(Debug)]
pub struct StampSection {
    saved_at: u64,
    records: Vec<(String, StampEntry)>,
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
    let count = r.u32().map_err(err)? as usize;
    // The segment digest vouches for the bytes; this bound guards the
    // allocation against a well-digested section from a buggy writer.
    if count > bytes.len() {
        return Err(format!("stamp section: implausible record count {count}"));
    }
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let path = r.str().map_err(err)?;
        let unit = Symbol::intern(r.str_ref().map_err(err)?);
        let mtime_ns = r.u64().map_err(err)?;
        let size = r.u64().map_err(err)?;
        let source_pid = Pid::from_raw(r.u128().map_err(err)?);
        let deps_pid = Pid::from_raw(r.u128().map_err(err)?);
        let names_pid = Pid::from_raw(r.u128().map_err(err)?);
        let mut lists = [Vec::new(), Vec::new()];
        for list in &mut lists {
            let n = r.u32().map_err(err)? as usize;
            if n > bytes.len() {
                return Err(format!("stamp section: implausible name count {n}"));
            }
            list.reserve_exact(n);
            for _ in 0..n {
                list.push(Symbol::intern(r.str_ref().map_err(err)?));
            }
        }
        let [imports, exports] = lists;
        records.push((
            path,
            StampEntry {
                unit,
                mtime_ns,
                size,
                analysis: Arc::new(Analysis {
                    source_pid,
                    deps_pid,
                    names_pid,
                    imports,
                    exports,
                }),
            },
        ));
    }
    if !r.at_end() {
        return Err("stamp section: trailing bytes after the last record".into());
    }
    Ok(StampSection { saved_at, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(unit: &str, mtime: u64, size: u64) -> StampEntry {
        StampEntry {
            unit: Symbol::intern(unit),
            mtime_ns: mtime,
            size,
            analysis: Arc::new(Analysis::new(
                Pid::of_bytes(b"src"),
                Pid::of_bytes(b"toks"),
                vec![Symbol::intern("A")],
                vec![Symbol::intern("B")],
            )),
        }
    }

    /// Round-trips `cache`'s section (all entries or the unsaved ones)
    /// through the codec into `into`.
    fn reload(into: &mut StampCache, cache: &StampCache, all: bool, saved_at: u64) {
        if let Some(bytes) = cache.encode_section(all, saved_at) {
            into.merge_section(decode_section(&bytes).unwrap());
        }
    }

    #[test]
    fn round_trip() {
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 10, 20));
        let mut back = StampCache::new();
        reload(&mut back, &c, true, 100);
        assert_eq!(back.len(), 1);
        let hit = back.lookup("a.sml", Symbol::intern("a"), 10, 20).unwrap();
        assert_eq!(hit, &entry("a", 10, 20));
        assert_eq!(hit.analysis.names_pid, entry("a", 0, 0).analysis.names_pid);
    }

    #[test]
    fn names_pid_follows_the_name_lists_only() {
        let (a, b) = (Symbol::intern("A"), Symbol::intern("B"));
        let p = |src: &[u8], imports: Vec<Symbol>, exports: Vec<Symbol>| {
            Analysis::new(Pid::of_bytes(src), Pid::of_bytes(src), imports, exports).names_pid
        };
        assert_eq!(p(b"x", vec![a], vec![b]), p(b"y", vec![a], vec![b]));
        assert_ne!(p(b"x", vec![a], vec![b]), p(b"x", vec![], vec![a, b]));
        assert_ne!(p(b"x", vec![a], vec![b]), p(b"x", vec![b], vec![a]));
    }

    #[test]
    fn stamp_keys_are_project_relative() {
        assert_eq!(stamp_key(Path::new("/one/checkout/a.sml")), "a.sml");
        assert_eq!(stamp_key(Path::new("/moved/elsewhere/a.sml")), "a.sml");
    }

    #[test]
    fn stale_stamp_does_not_match() {
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 10, 20));
        let a = Symbol::intern("a");
        assert!(c.lookup("a.sml", a, 11, 20).is_none(), "mtime moved");
        assert!(c.lookup("a.sml", a, 10, 21).is_none(), "size moved");
        assert!(
            c.lookup("a.sml", Symbol::intern("b"), 10, 20).is_none(),
            "renamed unit must not reuse the old path's analysis"
        );
        assert!(c.lookup("b.sml", a, 10, 20).is_none(), "other path");
    }

    /// The racy rule applies per section: each entry is judged against
    /// the save instant of the section that carries it, not the latest
    /// one, and a racy record also drops the path's earlier record.
    #[test]
    fn racy_entries_are_judged_against_their_own_section() {
        let a = Symbol::intern("a");
        let mut first = StampCache::new();
        first.record("old.sml".into(), entry("old", 10, 20));
        first.record("racy.sml".into(), entry("racy", 100, 20));
        first.record("a.sml".into(), entry("a", 50, 20));
        let mut back = StampCache::new();
        // Section 1, saved at 100: `racy` (stamped at 100) is dropped.
        reload(&mut back, &first, true, 100);
        assert_eq!(back.len(), 2);
        assert!(back
            .lookup("racy.sml", Symbol::intern("racy"), 100, 20)
            .is_none());

        // Section 2, saved at 200, re-stamps `a` at 200: racy again, so
        // `a`'s settled record from section 1 goes too.
        let mut second = StampCache::new();
        second.record("a.sml".into(), entry("a", 200, 20));
        second.record("new.sml".into(), entry("new", 150, 20));
        reload(&mut back, &second, false, 200);
        assert!(back.lookup("a.sml", a, 50, 20).is_none());
        assert!(back.lookup("a.sml", a, 200, 20).is_none());
        assert!(back
            .lookup("new.sml", Symbol::intern("new"), 150, 20)
            .is_some());
        // `racy`'s mtime (100) is before section 2's instant, but it was
        // saved in section 1: still dropped.
        assert!(back
            .lookup("racy.sml", Symbol::intern("racy"), 100, 20)
            .is_none());
        assert!(back
            .lookup("old.sml", Symbol::intern("old"), 10, 20)
            .is_some());

        // Re-digesting a dropped path records it as unsaved even when
        // the analysis comes out identical, so the next section trusts it.
        assert!(back.is_saved());
        back.record("racy.sml".into(), entry("racy", 100, 20));
        assert!(!back.is_saved());
        let mut healed = StampCache::new();
        reload(&mut healed, &back, true, 300);
        assert!(healed
            .lookup("racy.sml", Symbol::intern("racy"), 100, 20)
            .is_some());
    }

    #[test]
    fn appended_sections_carry_only_unsaved_entries() {
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 1, 2));
        c.record("b.sml".into(), entry("b", 1, 2));
        c.mark_saved();
        assert!(c.is_saved());
        assert_eq!(c.encode_section(false, 10), None, "nothing to append");
        // Re-recording the identical entry keeps the cache saved.
        c.record("a.sml".into(), entry("a", 1, 2));
        assert!(c.is_saved());
        c.record("b.sml".into(), entry("b", 3, 2));
        let bytes = c.encode_section(false, 10).unwrap();
        let section = decode_section(&bytes).unwrap();
        let paths: Vec<&str> = section.records.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["b.sml"]);
        assert_eq!(
            c.encode_section(true, 10).map(|b| b.len() > bytes.len()),
            Some(true)
        );
    }

    #[test]
    fn malformed_sections_are_errors() {
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 1, 2));
        let bytes = c.encode_section(true, 10).unwrap();
        for cut in [0, 8, 12, bytes.len() - 1] {
            assert!(decode_section(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_section(&long).is_err(), "trailing byte");
        let mut inflated = bytes;
        inflated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_section(&inflated).is_err(), "inflated count");
    }
}
