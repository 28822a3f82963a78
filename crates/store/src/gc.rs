//! Garbage collection, verification, stats, and clearing.
//!
//! GC runs under the store-wide lock: it scans the object tree (ground
//! truth), joins it with the journal's last-access stamps (an object
//! the journal has never seen falls back to its file mtime), evicts
//! first by age and then by least-recent-access until under the size
//! bound, purges the quarantine, and compacts the journal to one line
//! per survivor.  Evicting a key a concurrent builder is about to read
//! is safe — the reader just misses and recompiles; the store's only
//! hard promise is that it never *serves* corrupt or stale bytes, which
//! the per-read digest check upholds independently of GC.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use smlsc_ids::Pid;
use smlsc_trace::{self as trace, names};

use crate::journal::JournalOp;
use crate::{io_err, now_nanos, object_file_is_valid, Store, StoreError};

/// Bounds applied by one [`Store::gc`] sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcConfig {
    /// Evict least-recently-accessed objects until total payload size is
    /// at most this many bytes (`None`: unbounded).
    pub max_bytes: Option<u64>,
    /// Evict objects whose last access is older than this (`None`:
    /// unbounded).
    pub max_age: Option<Duration>,
}

/// What one GC sweep did.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Objects examined.
    pub examined: usize,
    /// Objects evicted (age- or size-pressure).
    pub evicted: usize,
    /// Total object bytes before the sweep.
    pub bytes_before: u64,
    /// Total object bytes after the sweep.
    pub bytes_after: u64,
    /// Quarantined files purged.
    pub quarantine_purged: usize,
}

/// What one verification sweep found.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Objects checked.
    pub checked: usize,
    /// Keys whose objects failed verification (now quarantined).
    pub corrupt: Vec<String>,
}

/// A point-in-time summary of the store.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Live objects.
    pub objects: usize,
    /// Total object file bytes (envelopes included).
    pub bytes: u64,
    /// Files sitting in quarantine.
    pub quarantined: usize,
    /// Journal size in bytes.
    pub journal_bytes: u64,
}

/// One scanned object: its key, file path, file size, and mtime nanos.
struct ScannedObject {
    key: String,
    path: PathBuf,
    size: u64,
    mtime: u64,
}

impl Store {
    /// Scans the object tree.  Unparseable entries (foreign files) are
    /// ignored.
    fn scan_objects(&self) -> Result<Vec<ScannedObject>, StoreError> {
        let objects = self.objects_dir();
        let mut out = Vec::new();
        let fans = match std::fs::read_dir(&objects) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(io_err(&objects, e)),
        };
        for fan in fans {
            let fan = fan.map_err(|e| io_err(&objects, e))?;
            let fan_name = fan.file_name();
            let Some(fan_hex) = fan_name.to_str() else {
                continue;
            };
            if fan_hex.len() != 2 || !fan.path().is_dir() {
                continue;
            }
            let entries = std::fs::read_dir(fan.path()).map_err(|e| io_err(&fan.path(), e))?;
            for entry in entries {
                let entry = entry.map_err(|e| io_err(&fan.path(), e))?;
                let path = entry.path();
                if path.extension().is_none_or(|e| e != "obj") {
                    continue;
                }
                let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                let key = format!("{fan_hex}{stem}");
                if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
                    continue;
                }
                let meta = entry.metadata().map_err(|e| io_err(&path, e))?;
                let mtime = meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                    .unwrap_or(0);
                out.push(ScannedObject {
                    key,
                    path,
                    size: meta.len(),
                    mtime,
                });
            }
        }
        Ok(out)
    }

    /// Runs one GC sweep under the store-wide lock.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::LockTimeout`].
    pub fn gc(&self, config: &GcConfig) -> Result<GcReport, StoreError> {
        let _span = trace::span(names::SPAN_STORE_GC);
        let _lock = self.lock("gc")?;
        let objects = self.scan_objects()?;
        let last_access = self.journal().last_access()?;
        let now = now_nanos();

        let mut report = GcReport {
            examined: objects.len(),
            ..GcReport::default()
        };
        report.bytes_before = objects.iter().map(|o| o.size).sum();

        // Last access per object: journal stamp if recorded, else the
        // file's mtime (covers objects published before a crash tore
        // the journal append, or imported from a foreign store).
        let mut aged: Vec<(u64, &ScannedObject)> = objects
            .iter()
            .map(|o| (last_access.get(&o.key).copied().unwrap_or(o.mtime), o))
            .collect();
        // Oldest access first; key as deterministic tie-break.
        aged.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.key.cmp(&b.1.key)));

        let age_cutoff = config
            .max_age
            .map(|max| now.saturating_sub(u64::try_from(max.as_nanos()).unwrap_or(u64::MAX)));
        let mut live_bytes = report.bytes_before;
        let max_bytes = config.max_bytes.unwrap_or(u64::MAX);
        let mut evicted: Vec<&ScannedObject> = Vec::new();
        for (accessed, obj) in &aged {
            let too_old = age_cutoff.is_some_and(|cutoff| *accessed < cutoff);
            let too_big = live_bytes > max_bytes;
            if too_old || too_big {
                evicted.push(obj);
                live_bytes -= obj.size;
            }
        }
        for obj in &evicted {
            std::fs::remove_file(&obj.path).map_err(|e| io_err(&obj.path, e))?;
            trace::counter(names::STORE_EVICTIONS, 1);
            self.journal().append(JournalOp::Evict, &obj.key, 0);
        }
        report.evicted = evicted.len();
        report.bytes_after = live_bytes;

        // Quarantine never earns its keep; purge it wholesale.
        let qdir = self.quarantine_dir();
        if let Ok(entries) = std::fs::read_dir(&qdir) {
            for entry in entries.flatten() {
                if std::fs::remove_file(entry.path()).is_ok() {
                    report.quarantine_purged += 1;
                }
            }
        }

        // Compact the journal to one canonical line per survivor.
        let evicted_keys: std::collections::HashSet<&str> =
            evicted.iter().map(|o| o.key.as_str()).collect();
        let mut survivors: HashMap<String, (u64, u64)> = HashMap::new();
        for (accessed, obj) in &aged {
            if !evicted_keys.contains(obj.key.as_str()) {
                survivors.insert(obj.key.clone(), (*accessed, obj.size));
            }
        }
        self.journal().compact(&survivors)?;
        Ok(report)
    }

    /// Verifies every object's embedded digest, quarantining failures.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures during the scan.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for obj in self.scan_objects()? {
            report.checked += 1;
            if !object_file_is_valid(&obj.path) {
                if let Ok(raw) = u128::from_str_radix(&obj.key, 16) {
                    self.quarantine(Pid::from_raw(raw));
                } else {
                    std::fs::remove_file(&obj.path).ok();
                }
                report.corrupt.push(obj.key);
            }
        }
        report.corrupt.sort();
        Ok(report)
    }

    /// Removes staging litter in `tmp/` — the files a publisher that
    /// crashed between staging and rename leaves behind.  Only files
    /// older than `min_age` are touched, so a concurrent live publish
    /// (which holds its staging file for milliseconds) is never raced.
    /// Returns the number of files removed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the tmp directory cannot be read.
    pub fn sweep_tmp(&self, min_age: Duration) -> Result<usize, StoreError> {
        let tmp_dir = self.root().join("tmp");
        let entries = match std::fs::read_dir(&tmp_dir) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(io_err(&tmp_dir, e)),
        };
        let now = now_nanos();
        let cutoff = now.saturating_sub(u64::try_from(min_age.as_nanos()).unwrap_or(u64::MAX));
        let mut removed = 0;
        for entry in entries.flatten() {
            let mtime = entry
                .metadata()
                .ok()
                .and_then(|m| m.modified().ok())
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            if mtime <= cutoff && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Removes every object, quarantined file, and the journal.
    /// Returns the number of objects removed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::LockTimeout`].
    pub fn clear(&self) -> Result<usize, StoreError> {
        let _lock = self.lock("gc")?;
        let objects = self.scan_objects()?;
        for obj in &objects {
            std::fs::remove_file(&obj.path).map_err(|e| io_err(&obj.path, e))?;
        }
        if let Ok(entries) = std::fs::read_dir(self.quarantine_dir()) {
            for entry in entries.flatten() {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        std::fs::remove_file(self.journal().path()).ok();
        Ok(objects.len())
    }

    /// Summarizes the store without modifying it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures during the scan.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let objects = self.scan_objects()?;
        let quarantined = std::fs::read_dir(self.quarantine_dir())
            .map(|r| r.flatten().count())
            .unwrap_or(0);
        Ok(StoreStats {
            objects: objects.len(),
            bytes: objects.iter().map(|o| o.size).sum(),
            quarantined,
            journal_bytes: self.journal().size_bytes(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let root = std::env::temp_dir().join(format!("smlsc-gc-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = Store::open(&root).unwrap();
        (root, store)
    }

    fn key(i: u8) -> Pid {
        Pid::of_bytes(&[i])
    }

    #[test]
    fn size_bound_evicts_least_recently_accessed_first() {
        let (root, store) = tmp_store("lru");
        let payload = vec![0u8; 100];
        for i in 0..4 {
            store.put(key(i), &payload).unwrap();
        }
        // Touch 0 and 2 so 1 and 3 are the LRU victims.
        assert!(store.get(key(0)).is_some());
        assert!(store.get(key(2)).is_some());
        let total = store.stats().unwrap().bytes;
        let report = store
            .gc(&GcConfig {
                max_bytes: Some(total / 2),
                max_age: None,
            })
            .unwrap();
        assert_eq!(report.examined, 4);
        assert_eq!(report.evicted, 2);
        assert!(store.contains(key(0)), "recently read survives");
        assert!(store.contains(key(2)), "recently read survives");
        assert!(!store.contains(key(1)), "LRU victim evicted");
        assert!(!store.contains(key(3)), "LRU victim evicted");
        // Survivors still verify and serve.
        assert!(store.get(key(0)).is_some());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn age_bound_evicts_everything_older_than_cutoff() {
        let (root, store) = tmp_store("age");
        store.put(key(1), b"x").unwrap();
        let report = store
            .gc(&GcConfig {
                max_bytes: None,
                max_age: Some(Duration::ZERO),
            })
            .unwrap();
        assert_eq!(report.evicted, 1);
        assert!(!store.contains(key(1)));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_compacts_journal_and_purges_quarantine() {
        let (root, store) = tmp_store("compact");
        store.put(key(1), b"keep").unwrap();
        store.put(key(2), b"corrupt-me").unwrap();
        for _ in 0..20 {
            assert!(store.get(key(1)).is_some());
        }
        // Corrupt key(2) and trip the quarantine path.
        let p = store.object_path(key(2));
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&p, bytes).unwrap();
        assert!(store.get(key(2)).is_none());
        assert_eq!(store.stats().unwrap().quarantined, 1);

        let before = store.journal().size_bytes();
        let report = store.gc(&GcConfig::default()).unwrap();
        assert_eq!(report.evicted, 0);
        assert_eq!(report.quarantine_purged, 1);
        assert!(store.journal().size_bytes() < before);
        assert_eq!(store.stats().unwrap().quarantined, 0);
        assert!(store.get(key(1)).is_some());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn verify_quarantines_corrupt_objects() {
        let (root, store) = tmp_store("verify");
        store.put(key(1), b"good").unwrap();
        store.put(key(2), b"bad").unwrap();
        let p = store.object_path(key(2));
        std::fs::write(&p, b"SMLSTOR1 garbage").unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.checked, 2);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0], crate::key_hex(key(2)));
        assert!(!store.contains(key(2)));
        assert!(store.contains(key(1)));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn clear_empties_the_store() {
        let (root, store) = tmp_store("clear");
        for i in 0..3 {
            store.put(key(i), b"x").unwrap();
        }
        assert_eq!(store.clear().unwrap(), 3);
        let stats = store.stats().unwrap();
        assert_eq!(stats.objects, 0);
        assert_eq!(stats.journal_bytes, 0);
        assert!(!Path::new(&store.object_path(key(0))).exists());
        std::fs::remove_dir_all(&root).ok();
    }
}
