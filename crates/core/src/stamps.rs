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
//! The cache persists as one binary file (historically named
//! `stamps.json`, kept for compatibility; the content is the
//! `pickle::wire` little-endian format with a digest-checked payload),
//! written with the durable tmp + fsync + rename + fsync(parent)
//! idiom ([`smlsc_store::fsutil::commit_atomic`], fault point `stamp.save`)
//! so a crash mid-save can never tear it.  Warm analysis therefore does one bulk
//! parse instead of serde over thousands of entries.  A missing or
//! corrupt stamp file — including the JSON stamp files of earlier
//! releases — is *not* an error: it degrades to "no hints", i.e. the
//! cold path, and the next save overwrites it.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};
use smlsc_trace::{self as trace, names};

use crate::CoreError;

/// The stamp cache's file name inside a bin directory, next to
/// `bins.pack`.
pub const STAMPS_FILE: &str = "stamps.json";

/// Version of the stamp-file format; a mismatch discards the file.
const STAMP_VERSION: u32 = 2;

/// Leading magic of the binary stamp file; a `u32` version field
/// follows it inside the digest-checked payload.
const STAMP_MAGIC: &[u8; 8] = b"SMLSSTM2";

/// The dependency analysis recorded for one source: its content and
/// token digests plus the import/export lists.  Shared by [`Arc`]
/// between the stamp cache and the manager's in-memory deps cache, so
/// a warm stamp hit costs a refcount bump — never a clone of the
/// vectors (at monorepo scale those per-unit clones dominated the
/// no-op analyze phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Digest of the file contents at stamp time.
    pub source_pid: Pid,
    /// Digest of the token stream (comment/whitespace-insensitive).
    pub deps_pid: Pid,
    /// Imported module names, sorted.
    pub imports: Vec<Symbol>,
    /// Exported module names.
    pub exports: Vec<Symbol>,
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

/// The persistent stamp cache.  See the module docs.
#[derive(Debug, Default)]
pub struct StampCache {
    entries: HashMap<String, StampEntry>,
    dirty: bool,
}

impl StampCache {
    /// An empty cache.
    pub fn new() -> StampCache {
        StampCache::default()
    }

    /// Loads a stamp file.  Missing, unreadable, corrupt, or
    /// version-mismatched files all yield an *empty* cache — stamps are
    /// hints, so degradation is silent and safe (every miss just reads
    /// and digests the source the cold way).
    ///
    /// Entries whose recorded `mtime_ns` is at or after the stamp file's
    /// own mtime (the last save instant) are *racy* and dropped: a file
    /// edited within the same mtime tick and to the same byte size as
    /// its stamp would otherwise be served as a hit with stale analysis.
    /// Dropping the entry forces one re-digest, whose `record` marks the
    /// cache dirty so the following save moves the trust boundary past
    /// the file's mtime and restores hits.
    pub fn load(path: &Path) -> StampCache {
        let Ok(bytes) = std::fs::read(path) else {
            return StampCache::default();
        };
        let saved_at_ns = std::fs::metadata(path)
            .ok()
            .and_then(|m| m.modified().ok())
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let mut cache = bytes
            .strip_prefix(STAMP_MAGIC.as_slice())
            .and_then(Self::parse_binary)
            .unwrap_or_default();
        if let Some(cutoff_ns) = saved_at_ns {
            cache.drop_racy_entries(cutoff_ns);
        }
        cache
    }

    /// Classifies a stamp file on disk without loading it: `None` when
    /// the file is absent, `Some(Ok(n))` for a well-formed file with
    /// `n` entries, `Some(Err(reason))` when the bytes are corrupt or in
    /// a format this build does not read.  [`Self::load`] silently degrades corrupt
    /// files to an empty cache; `smlsc doctor` uses this to tell the
    /// difference and report what `load` would quietly discard.
    pub fn audit(path: &Path) -> Option<Result<usize, String>> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => return Some(Err(format!("unreadable: {e}"))),
        };
        let Some(payload) = bytes.strip_prefix(STAMP_MAGIC.as_slice()) else {
            return Some(Err("no binary stamp magic".into()));
        };
        match Self::parse_binary(payload) {
            Some(cache) => Some(Ok(cache.entries.len())),
            None => Some(Err("binary stamp payload fails digest or decode".into())),
        }
    }

    /// Drops entries stamped at or after `cutoff_ns` (see [`Self::load`]);
    /// dropping any marks the cache dirty so re-digested replacements are
    /// persisted even when their analysis comes out byte-identical.
    fn drop_racy_entries(&mut self, cutoff_ns: u64) {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.mtime_ns < cutoff_ns);
        if self.entries.len() != before {
            self.dirty = true;
        }
    }

    /// Parses the digest-checked binary payload (everything after the
    /// magic).  `None` on any corruption.
    fn parse_binary(payload: &[u8]) -> Option<StampCache> {
        if payload.len() < 16 {
            return None;
        }
        let (body, tail) = payload.split_at(payload.len() - 16);
        let digest = Pid::from_raw(u128::from_le_bytes(tail.try_into().ok()?));
        if Pid::of_bytes(body) != digest {
            return None;
        }
        let mut r = Reader::new(body);
        if r.u32().ok()? != STAMP_VERSION {
            return None;
        }
        let count = r.u32().ok()? as usize;
        let mut entries = HashMap::with_capacity(count);
        for _ in 0..count {
            let path = r.str().ok()?;
            let unit = Symbol::intern(r.str_ref().ok()?);
            let mtime_ns = r.u64().ok()?;
            let size = r.u64().ok()?;
            let source_pid = Pid::from_raw(r.u128().ok()?);
            let deps_pid = Pid::from_raw(r.u128().ok()?);
            let nimports = r.u32().ok()? as usize;
            let mut imports = Vec::with_capacity(nimports);
            for _ in 0..nimports {
                imports.push(Symbol::intern(r.str_ref().ok()?));
            }
            let nexports = r.u32().ok()? as usize;
            let mut exports = Vec::with_capacity(nexports);
            for _ in 0..nexports {
                exports.push(Symbol::intern(r.str_ref().ok()?));
            }
            entries.insert(
                path,
                StampEntry {
                    unit,
                    mtime_ns,
                    size,
                    analysis: Arc::new(Analysis {
                        source_pid,
                        deps_pid,
                        imports,
                        exports,
                    }),
                },
            );
        }
        if !r.at_end() {
            return None;
        }
        Some(StampCache {
            entries,
            dirty: false,
        })
    }

    /// Persists the cache atomically (tmp + fsync + rename).  A clean
    /// cache (nothing recorded since load) writes nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] on filesystem failures.
    pub fn save(&mut self, path: &Path) -> Result<(), CoreError> {
        if !self.dirty && path.is_file() {
            trace::counter(names::STAMP_SAVES_SKIPPED, 1);
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        }
        // Sort records so repeated saves of the same cache are
        // byte-identical (diff-friendly, deterministic tests).
        let mut paths: Vec<&String> = self.entries.keys().collect();
        paths.sort();
        let mut w = Writer::new();
        w.u32(STAMP_VERSION);
        w.u32(paths.len() as u32);
        for p in paths {
            let e = &self.entries[p];
            w.str(p);
            w.str(e.unit.as_str());
            w.u64(e.mtime_ns);
            w.u64(e.size);
            w.u128(e.analysis.source_pid.as_raw());
            w.u128(e.analysis.deps_pid.as_raw());
            w.u32(e.analysis.imports.len() as u32);
            for i in &e.analysis.imports {
                w.str(i.as_str());
            }
            w.u32(e.analysis.exports.len() as u32);
            for x in &e.analysis.exports {
                w.str(x.as_str());
            }
        }
        let body = w.into_bytes();
        let mut out = Vec::with_capacity(STAMP_MAGIC.len() + body.len() + 16);
        out.extend_from_slice(STAMP_MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&Pid::of_bytes(&body).as_raw().to_le_bytes());
        smlsc_store::fsutil::commit_atomic(path, &out, Some(smlsc_faults::points::STAMP_SAVE))
            .map_err(|e| CoreError::Io(format!("{}: {e}", path.display())))?;
        self.dirty = false;
        Ok(())
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
    /// identical entry does not mark the cache dirty, so a fully warm
    /// build saves nothing.
    pub fn record(&mut self, path: String, entry: StampEntry) {
        if self.entries.get(&path) == Some(&entry) {
            return;
        }
        self.entries.insert(path, entry);
        self.dirty = true;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(unit: &str, mtime: u64, size: u64) -> StampEntry {
        StampEntry {
            unit: Symbol::intern(unit),
            mtime_ns: mtime,
            size,
            analysis: Arc::new(Analysis {
                source_pid: Pid::of_bytes(b"src"),
                deps_pid: Pid::of_bytes(b"toks"),
                imports: vec![Symbol::intern("A")],
                exports: vec![Symbol::intern("B")],
            }),
        }
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "smlsc-stamps-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn round_trip() {
        let path = tmp_path("roundtrip").join("stamps.json");
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 10, 20));
        c.save(&path).unwrap();
        let back = StampCache::load(&path);
        assert_eq!(back.len(), 1);
        assert!(back.lookup("a.sml", Symbol::intern("a"), 10, 20).is_some());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
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

    #[test]
    fn racy_entries_are_dropped_on_load_and_heal_on_save() {
        let dir = tmp_path("racy");
        let path = dir.join("stamps.json");
        let now_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64;
        let mut c = StampCache::new();
        c.record("old.sml".into(), entry("old", 10, 20));
        // A stamp at (or after) the save instant is indistinguishable
        // from a same-tick, same-size edit that landed just after the
        // digest: it must not be served as a hit.
        c.record(
            "racy.sml".into(),
            entry("racy", now_ns + 1_000_000_000_000, 20),
        );
        c.save(&path).unwrap();

        let mut back = StampCache::load(&path);
        assert_eq!(back.len(), 1, "racy entry dropped, settled entry kept");
        assert!(back
            .lookup(
                "racy.sml",
                Symbol::intern("racy"),
                now_ns + 1_000_000_000_000,
                20
            )
            .is_none());
        assert!(back
            .lookup("old.sml", Symbol::intern("old"), 10, 20)
            .is_some());

        // Re-digesting yields the same analysis; recording it must still
        // dirty the cache so the save advances the trust boundary.
        back.record("racy.sml".into(), entry("racy", 30, 20));
        back.save(&path).unwrap();
        let healed = StampCache::load(&path);
        assert_eq!(healed.len(), 2, "healed file trusts the re-digested entry");
        assert!(healed
            .lookup("racy.sml", Symbol::intern("racy"), 30, 20)
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_and_corrupt_files_degrade_to_empty() {
        assert!(StampCache::load(Path::new("/nonexistent/stamps.json")).is_empty());
        let path = tmp_path("corrupt");
        std::fs::create_dir_all(&path).unwrap();
        let f = path.join("stamps.json");
        std::fs::write(&f, b"{ not json").unwrap();
        assert!(StampCache::load(&f).is_empty());
        // A torn binary file (flipped payload byte) fails the digest
        // check and degrades the same way.
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 10, 20));
        c.save(&f).unwrap();
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&f, &bytes).unwrap();
        assert!(StampCache::load(&f).is_empty());
        std::fs::remove_dir_all(&path).ok();
    }

    #[test]
    fn saved_file_is_binary_not_json() {
        let dir = tmp_path("binfmt");
        let path = dir.join("stamps.json");
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 10, 20));
        c.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(STAMP_MAGIC));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_json_stamps_read_as_empty_and_are_overwritten() {
        let dir = tmp_path("oldjson");
        let path = dir.join("stamps.json");
        std::fs::create_dir_all(&dir).unwrap();
        // The JSON stamp format of earlier releases: no binary magic.
        std::fs::write(
            &path,
            br#"{"version":1,"entries":[{"path":"a.sml","entry":{}}]}"#,
        )
        .unwrap();
        let mut back = StampCache::load(&path);
        assert!(back.is_empty(), "stamps are hints: an old file is none");
        assert!(StampCache::audit(&path).is_some_and(|r| r.is_err()));
        back.record("a.sml".into(), entry("a", 10, 20));
        back.save(&path).unwrap();
        assert!(std::fs::read(&path).unwrap().starts_with(STAMP_MAGIC));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_save_is_a_no_op() {
        let dir = tmp_path("clean");
        let path = dir.join("stamps.json");
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 1, 2));
        c.save(&path).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        // Re-recording the identical entry keeps the cache clean.
        c.record("a.sml".into(), entry("a", 1, 2));
        c.save(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().modified().unwrap(), mtime);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_temp_files_survive_a_save() {
        let dir = tmp_path("tmpfiles");
        let path = dir.join("stamps.json");
        let mut c = StampCache::new();
        c.record("a.sml".into(), entry("a", 1, 2));
        c.save(&path).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["stamps.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
