//! The store's append-only access journal.
//!
//! Every put, verified hit, eviction, and quarantine appends one line:
//!
//! ```text
//! v1 <OP> <key-hex> <size> <nanos-since-epoch>
//! ```
//!
//! The journal is the store's *index*: it supplies last-access times
//! that drive LRU eviction, without requiring mtime updates on reads
//! (which many filesystems elide).  It is deliberately advisory — each
//! append is one [`fsutil::append_line`], a crash can tear at most the
//! final line (which the next append heals), and readers skip malformed
//! lines.  GC treats the object scan as ground truth (an object missing
//! from the journal falls back to its file mtime) and compacts the
//! journal to one line per surviving object afterwards.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::{fsutil, io_err, now_nanos, StoreError};

/// One journal operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// An object was published.
    Put,
    /// An object was read and verified.
    Get,
    /// An object was evicted by GC.
    Evict,
    /// An object failed verification and was quarantined.
    Quarantine,
}

impl JournalOp {
    fn tag(self) -> &'static str {
        match self {
            JournalOp::Put => "PUT",
            JournalOp::Get => "GET",
            JournalOp::Evict => "EVICT",
            JournalOp::Quarantine => "QUAR",
        }
    }

    fn parse(s: &str) -> Option<JournalOp> {
        match s {
            "PUT" => Some(JournalOp::Put),
            "GET" => Some(JournalOp::Get),
            "EVICT" => Some(JournalOp::Evict),
            "QUAR" => Some(JournalOp::Quarantine),
            _ => None,
        }
    }
}

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The operation.
    pub op: JournalOp,
    /// The object key, as 32 hex digits.
    pub key: String,
    /// Payload size in bytes (0 where not applicable).
    pub size: u64,
    /// Nanoseconds since the Unix epoch.
    pub at: u64,
}

/// Handle to a journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// A journal living at `path` (created lazily on first append).
    pub fn new(path: PathBuf) -> Journal {
        Journal { path }
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one entry, best-effort: the journal is advisory, so a
    /// failed append degrades LRU precision (mtime fallback) rather
    /// than failing the build.
    pub fn append(&self, op: JournalOp, key: &str, size: u64) {
        let line = format!("v1 {} {key} {size} {}", op.tag(), now_nanos());
        let _ = fsutil::append_line(&self.path, &line, None);
    }

    /// Replays the journal, skipping malformed (torn) lines.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the file exists but cannot be read; a
    /// missing journal is an empty one.
    pub fn replay(&self) -> Result<Vec<JournalEntry>, StoreError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&self.path, e)),
        };
        Ok(text.lines().filter_map(parse_line).collect())
    }

    /// Last-access time per key: the newest PUT or GET stamp.  EVICT
    /// and QUAR entries clear the key (a later re-publish re-adds it).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] as for [`Journal::replay`].
    pub fn last_access(&self) -> Result<HashMap<String, u64>, StoreError> {
        let mut map = HashMap::new();
        for e in self.replay()? {
            match e.op {
                JournalOp::Put | JournalOp::Get => {
                    let slot = map.entry(e.key).or_insert(0);
                    *slot = (*slot).max(e.at);
                }
                JournalOp::Evict | JournalOp::Quarantine => {
                    map.remove(&e.key);
                }
            }
        }
        Ok(map)
    }

    /// Rewrites the journal to exactly one PUT line per surviving
    /// object, atomically and durably.  Call under the GC lock.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn compact(&self, survivors: &HashMap<String, (u64, u64)>) -> Result<(), StoreError> {
        let mut keys: Vec<&String> = survivors.keys().collect();
        keys.sort();
        let mut out = String::new();
        for key in keys {
            let (at, size) = survivors[key];
            out.push_str(&format!("v1 PUT {key} {size} {at}\n"));
        }
        fsutil::commit_atomic(&self.path, out.as_bytes(), None).map_err(|e| io_err(&self.path, e))
    }

    /// The journal file's size in bytes (0 when absent).
    pub fn size_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }
}

fn parse_line(line: &str) -> Option<JournalEntry> {
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "v1" {
        return None;
    }
    let op = JournalOp::parse(parts.next()?)?;
    let key = parts.next()?;
    if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let size: u64 = parts.next()?.parse().ok()?;
    let at: u64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(JournalEntry {
        op,
        key: key.to_string(),
        size,
        at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_journal(tag: &str) -> Journal {
        let dir = std::env::temp_dir().join(format!("smlsc-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        std::fs::remove_file(&path).ok();
        Journal::new(path)
    }

    const K1: &str = "00000000000000000000000000000001";
    const K2: &str = "00000000000000000000000000000002";

    #[test]
    fn append_replay_round_trip() {
        let j = tmp_journal("roundtrip");
        j.append(JournalOp::Put, K1, 100);
        j.append(JournalOp::Get, K1, 100);
        j.append(JournalOp::Evict, K2, 0);
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].op, JournalOp::Put);
        assert_eq!(entries[0].key, K1);
        assert_eq!(entries[0].size, 100);
        assert!(entries[1].at >= entries[0].at);
    }

    /// Simulates a crash mid-append: a truncated final line (no
    /// timestamp, no newline).
    fn tear(j: &Journal) {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(j.path())
            .unwrap();
        write!(f, "v1 PUT {K2} 12").unwrap();
    }

    #[test]
    fn torn_tail_lines_are_skipped() {
        let j = tmp_journal("torn");
        j.append(JournalOp::Put, K1, 10);
        tear(&j);
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 1, "torn line must be skipped");
        assert_eq!(entries[0].key, K1);
    }

    /// A crash mid-append leaves an unterminated line; the next append
    /// must start on a fresh line instead of being glued onto (and
    /// dropped with) the torn one.
    #[test]
    fn append_after_torn_tail_is_kept() {
        let j = tmp_journal("torn-next");
        j.append(JournalOp::Put, K1, 10);
        tear(&j);
        j.append(JournalOp::Get, K1, 10);
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 2, "the entry after a torn line survives");
        assert_eq!(entries[1].op, JournalOp::Get);
    }

    #[test]
    fn last_access_tracks_newest_and_respects_evictions() {
        let j = tmp_journal("lru");
        j.append(JournalOp::Put, K1, 10);
        j.append(JournalOp::Put, K2, 10);
        j.append(JournalOp::Get, K1, 10);
        let la = j.last_access().unwrap();
        assert!(la[K1] >= la[K2]);
        j.append(JournalOp::Evict, K2, 0);
        let la = j.last_access().unwrap();
        assert!(!la.contains_key(K2));
    }

    #[test]
    fn compaction_is_atomic_and_canonical() {
        let j = tmp_journal("compact");
        for _ in 0..10 {
            j.append(JournalOp::Get, K1, 5);
        }
        let before = j.size_bytes();
        let mut survivors = HashMap::new();
        survivors.insert(K1.to_string(), (42u64, 5u64));
        j.compact(&survivors).unwrap();
        assert!(j.size_bytes() < before);
        let entries = j.replay().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].at, 42);
    }
}
