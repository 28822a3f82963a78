//! `smlsc-store`: a content-addressed, shared, crash-safe artifact
//! store for compiled units.
//!
//! The paper's intrinsic pids (§5) are exactly cache keys: a unit's
//! compilation result is fully determined by its source digest plus the
//! export pids of its imports, so compiled bins can be shared across
//! projects, sessions, and concurrent builds.  This crate is that share
//! point — a directory any number of builders (threads *and* processes)
//! read and write simultaneously:
//!
//! * **Cache keys** ([`cache_key`]): `digest(key-schema ‖ bin-format
//!   version ‖ source pid ‖ sorted import export-pids)`.  Equal keys
//!   mean equal compile inputs, so an object found under a key *is* the
//!   compile result.
//! * **Fanout layout**: objects live at `objects/<aa>/<rest>.obj` where
//!   `aa` is the first two hex digits of the key — bounded directory
//!   sizes at production object counts.
//! * **Atomic publication**: writers stage into `tmp/` and commit with
//!   the shared [`fsutil::AtomicFile`] (fsync, `rename(2)` into place,
//!   fsync of the fan directory) under the per-key lock, so readers
//!   never observe a half-written object, concurrent identical
//!   publishes are idempotent, and a completed publish survives power
//!   loss.
//! * **Advisory locking** ([`fsutil::acquire`]): per-key lock files
//!   serialize publish/evict races across processes; stale locks
//!   (crashed owners) are broken by age.
//! * **Digest verification on every read**: each object embeds a digest
//!   of its payload; a mismatch (bit rot, an injected torn publish)
//!   moves the object to `quarantine/` and reports a miss — the
//!   caller recompiles transparently and the store never serves corrupt
//!   bytes.
//! * **Journal-driven LRU GC** ([`journal`], [`gc`]): an append-only
//!   access journal records puts and hits; [`Store::gc`] evicts by age
//!   and least-recent-access size pressure, then compacts the journal.
//!   The journal is advisory — a torn tail line (crash mid-append) is
//!   skipped, the next append heals it ([`fsutil::append_line`]), and
//!   the object scan remains the ground truth.
//! * **Retry and graceful degradation**: transient publish failures are
//!   retried with jittered exponential backoff under a [`RetryPolicy`]
//!   deadline; after enough *consecutive* failures the store flips into
//!   a degraded no-store mode (one warning, `store.degraded` counter)
//!   where `get` misses and `put` no-ops instantly — a broken or
//!   read-only cache never blocks a build, it just stops helping.
//!
//! Every IO boundary is also a named fault point (`store.publish`,
//! `store.fetch`, `store.lock` — see `smlsc_faults::points`), so chaos
//! suites can deterministically inject IO errors, torn writes, delays
//! and crashes to prove the guarantees above.
//!
//! # Examples
//!
//! ```
//! use smlsc_ids::Pid;
//! use smlsc_store::{cache_key, Store};
//!
//! let dir = std::env::temp_dir().join(format!("smlsc-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir).unwrap();
//! let key = cache_key(Pid::of_bytes(b"source"), &[Pid::of_bytes(b"import")], 1);
//! assert!(store.get(key).is_none());
//! store.put(key, b"compiled unit bytes").unwrap();
//! assert_eq!(store.get(key).as_deref(), Some(&b"compiled unit bytes"[..]));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fsutil;
pub mod gc;
pub mod journal;

use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use smlsc_faults::{self as faults, points, FaultKind};
use smlsc_ids::{Digest128, Pid};
use smlsc_trace::{self as trace, names};

pub use gc::{GcConfig, GcReport, StoreStats, VerifyReport};
pub use journal::{Journal, JournalOp};

use fsutil::{AtomicFile, LockGuard, Stale};

/// Version of the key derivation itself; bumping it invalidates every
/// key without touching on-disk objects.
pub const KEY_SCHEMA_VERSION: u32 = 2;

/// Version of the store's on-disk layout, recorded in a `VERSION` file
/// at the root; a store of a different layout version refuses to open.
pub const LAYOUT_VERSION: u32 = 1;

/// Magic prefix of every object file.
const OBJ_MAGIC: &[u8; 8] = b"SMLSTOR1";

/// How old a lock file must be before it is presumed abandoned (its
/// owner crashed) and broken.
const LOCK_STALE: Duration = Duration::from_secs(10);

/// How long an acquirer spins on a held lock before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// How many *consecutive* store failures (after retries) flip the store
/// into degraded no-store mode.
const DEGRADE_AFTER: u32 = 3;

/// Bounded retry with jittered exponential backoff for transient store
/// IO (failed publishes, lock contention past its own timeout).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts, counting the first (so `1` means no retry).
    pub attempts: u32,
    /// Initial backoff between attempts; doubled each retry and
    /// decorated with a sub-millisecond deterministic jitter.
    pub base_delay: Duration,
    /// Overall deadline across all attempts of one operation; once the
    /// next backoff would cross it, the last error is returned as-is.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(2),
            deadline: Duration::from_millis(250),
        }
    }
}

/// Derives the cache key for one unit compilation: the digest of the
/// key-schema version, the consumer's bin-format version, the unit's
/// source pid, and the *sorted* export pids of its imports.
///
/// Sorting makes the key independent of import slot order; the slot
/// assignment itself is a function of the source text, which the source
/// pid already covers.
pub fn cache_key(source_pid: Pid, import_export_pids: &[Pid], format_version: u32) -> Pid {
    let mut d = Digest128::new();
    d.write_tag(0xC5);
    d.write_u64(u64::from(KEY_SCHEMA_VERSION));
    d.write_u64(u64::from(format_version));
    d.write_pid(source_pid);
    let mut pids = import_export_pids.to_vec();
    pids.sort_unstable();
    d.write_u64(pids.len() as u64);
    for p in pids {
        d.write_pid(p);
    }
    d.finish_pid()
}

/// Nanoseconds since the Unix epoch (0 if the clock is unset).
pub(crate) fn now_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Any error from the artifact store.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error message.
        error: String,
    },
    /// The store directory has an incompatible layout version.
    LayoutVersion {
        /// The version found on disk.
        found: String,
        /// The version this build expects.
        expected: u32,
    },
    /// A lock could not be acquired before the timeout.
    LockTimeout(PathBuf),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            StoreError::LayoutVersion { found, expected } => write!(
                f,
                "store layout version `{found}` is not the supported `{expected}`"
            ),
            StoreError::LockTimeout(p) => {
                write!(f, "timed out waiting for lock {}", p.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

pub(crate) fn io_err(path: &Path, e: impl fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

/// A content-addressed artifact store rooted at a directory.
///
/// Cheap to clone conceptually (it holds only paths); open one per
/// process and share it behind an `Arc` across builder threads.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    journal: Journal,
    retry: RetryPolicy,
    degrade_after: u32,
    /// Consecutive failures since the last success; resets on success.
    failures: AtomicU32,
    /// Latched once `failures` reaches `degrade_after`; a degraded
    /// store answers every `get` with a miss and every `put` with a
    /// no-op, for the rest of its lifetime.
    degraded: AtomicBool,
}

impl Store {
    /// Opens (creating if necessary) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, or
    /// [`StoreError::LayoutVersion`] when `root` holds a store of an
    /// incompatible layout.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let root = root.into();
        for sub in ["objects", "tmp", "locks", "quarantine"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        let version_file = root.join("VERSION");
        match std::fs::read_to_string(&version_file) {
            Ok(v) => {
                if v.trim() != LAYOUT_VERSION.to_string() {
                    return Err(StoreError::LayoutVersion {
                        found: v.trim().to_string(),
                        expected: LAYOUT_VERSION,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Staged and renamed into place: a process opening the
                // same new store meanwhile reads no file or the whole
                // one, never an empty one.
                fsutil::commit_atomic(
                    &version_file,
                    format!("{LAYOUT_VERSION}\n").as_bytes(),
                    None,
                )
                .map_err(|e| io_err(&version_file, e))?;
            }
            Err(e) => return Err(io_err(&version_file, e)),
        }
        let journal = Journal::new(root.join("journal.log"));
        Ok(Store {
            root,
            journal,
            retry: RetryPolicy::default(),
            degrade_after: DEGRADE_AFTER,
            failures: AtomicU32::new(0),
            degraded: AtomicBool::new(false),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Overrides the transient-IO retry policy (call before sharing the
    /// store across threads).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Overrides how many consecutive failures flip the store into
    /// degraded mode (call before sharing the store across threads).
    pub fn set_degrade_after(&mut self, n: u32) {
        self.degrade_after = n.max(1);
    }

    /// True once the store has given up on itself: repeated IO or lock
    /// failures latched it into a no-store mode where reads miss and
    /// writes no-op.  Builds proceed correctly, just without sharing.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    fn note_success(&self) {
        self.failures.store(0, Ordering::Relaxed);
    }

    fn note_failure(&self) {
        let n = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= self.degrade_after && !self.degraded.swap(true, Ordering::SeqCst) {
            trace::counter(names::STORE_DEGRADED, 1);
            trace::event("store.degrade")
                .field("root", self.root.display())
                .field("failures", n);
            eprintln!(
                "warning: artifact store {} disabled after {n} consecutive failure(s); \
                 continuing without it",
                self.root.display()
            );
        }
    }

    /// The store's access journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    pub(crate) fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    pub(crate) fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// The object path for a key: two-level fanout on the first two hex
    /// digits, bounding any one directory's entry count.
    pub fn object_path(&self, key: Pid) -> PathBuf {
        let hex = key_hex(key);
        self.objects_dir()
            .join(&hex[..2])
            .join(format!("{}.obj", &hex[2..]))
    }

    /// Acquires the advisory lock `locks/<name>.lock`: one key's hex
    /// guards its publish/evict critical section, `gc` serializes GC and
    /// clear sweeps.
    ///
    /// # Errors
    ///
    /// [`StoreError::LockTimeout`] if a (live) holder never releases.
    pub(crate) fn lock(&self, name: &str) -> Result<LockGuard, StoreError> {
        let path = self.root.join("locks").join(format!("{name}.lock"));
        fsutil::acquire(
            &path,
            Stale::OlderThan(LOCK_STALE),
            LOCK_TIMEOUT,
            points::STORE_LOCK,
        )
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::TimedOut => StoreError::LockTimeout(path),
            _ => io_err(&path, e),
        })
    }

    /// True when an object is present under `key` (no verification).
    pub fn contains(&self, key: Pid) -> bool {
        self.object_path(key).is_file()
    }

    /// Fetches the payload stored under `key`, verifying its embedded
    /// digest.
    ///
    /// Returns `None` — a miss — when no object exists, when any
    /// filesystem read fails, or when verification fails; a failed
    /// verification also moves the object to `quarantine/` so it is
    /// never served (or re-read) again.  The caller's contract is
    /// simply: a `Some` payload is bit-exact what some publisher
    /// [`Store::put`].
    pub fn get(&self, key: Pid) -> Option<Vec<u8>> {
        let _span = trace::span(names::SPAN_STORE_GET);
        if self.is_degraded() {
            trace::counter(names::STORE_MISSES, 1);
            return None;
        }
        let path = self.object_path(key);
        let fault = if faults::active() {
            faults::check(points::STORE_FETCH, &key_hex(key))
        } else {
            None
        };
        if matches!(fault, Some(FaultKind::Io)) {
            trace::counter(names::STORE_MISSES, 1);
            self.note_failure();
            return None;
        }
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                trace::counter(names::STORE_MISSES, 1);
                if e.kind() != std::io::ErrorKind::NotFound {
                    // Present-but-unreadable is a health signal; a
                    // plain miss is not.
                    self.note_failure();
                }
                return None;
            }
        };
        if matches!(fault, Some(FaultKind::Torn)) {
            // Model a torn read: hand verification a truncated object.
            bytes.truncate(bytes.len() * 2 / 3);
        }
        match decode_object(&bytes) {
            Some(payload) => {
                self.note_success();
                trace::counter(names::STORE_HITS, 1);
                trace::counter(names::STORE_BYTES_READ, payload.len() as u64);
                self.journal
                    .append(JournalOp::Get, &key_hex(key), payload.len() as u64);
                Some(payload.to_vec())
            }
            None => {
                // Corruption is the *object's* fault, not the store's:
                // quarantine it, report a miss, and leave the health
                // counter alone.
                self.quarantine(key);
                trace::counter(names::STORE_MISSES, 1);
                None
            }
        }
    }

    /// Publishes `payload` under `key`: stages the enveloped object in
    /// `tmp/`, fsyncs it, and renames it into place under the per-key
    /// lock.  Returns `false` when an object was already present (the
    /// publish was a no-op).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] or [`StoreError::LockTimeout`].
    pub fn put(&self, key: Pid, payload: &[u8]) -> Result<bool, StoreError> {
        let _span = trace::span(names::SPAN_STORE_PUT);
        if self.is_degraded() {
            return Ok(false);
        }
        let hex = key_hex(key);
        let deadline = Instant::now() + self.retry.deadline;
        let mut backoff = self.retry.base_delay;
        let mut attempt = 1u32;
        loop {
            match self.publish_once(key, &hex, payload) {
                Ok(published) => {
                    self.note_success();
                    return Ok(published);
                }
                Err(e) => {
                    if attempt >= self.retry.attempts || Instant::now() + backoff > deadline {
                        self.note_failure();
                        return Err(e);
                    }
                    trace::counter(names::STORE_RETRIES, 1);
                    trace::event("store.retry")
                        .field("key", &hex)
                        .field("attempt", attempt)
                        .field("error", &e);
                    std::thread::sleep(backoff + fsutil::jitter());
                    backoff *= 2;
                    attempt += 1;
                }
            }
        }
    }

    /// One publication attempt: stage the envelope in `tmp/`, then
    /// commit it under the per-key lock.  Split out of [`Store::put`]
    /// so the retry loop wraps the whole critical section, lock
    /// acquisition included.  Staging (and with it the `begin` fault
    /// check) comes first, so a `crash(begin)` never leaks a lock.
    fn publish_once(&self, key: Pid, hex: &str, payload: &[u8]) -> Result<bool, StoreError> {
        let final_path = self.object_path(key);
        let err = |e| io_err(&final_path, e);
        let tmp = fsutil::unique_tmp(&self.root.join("tmp").join(hex));
        let mut staged =
            AtomicFile::create(tmp, &final_path, Some(points::STORE_PUBLISH)).map_err(err)?;
        staged
            .write_all(OBJ_MAGIC)
            .and_then(|()| staged.write_all(&Pid::of_bytes(payload).as_raw().to_le_bytes()))
            .and_then(|()| staged.write_all(payload))
            .map_err(err)?;
        let _lock = self.lock(hex)?;
        if final_path.is_file() {
            // An identical publish already landed (equal keys ⇒ equal
            // compile inputs); keep the incumbent.
            return Ok(false);
        }
        let fan_dir = final_path
            .parent()
            .ok_or_else(|| io_err(&final_path, "object path has no fan directory"))?;
        std::fs::create_dir_all(fan_dir).map_err(|e| io_err(fan_dir, e))?;
        staged.commit().map_err(err)?;
        trace::counter(names::STORE_BYTES_WRITTEN, payload.len() as u64);
        self.journal
            .append(JournalOp::Put, hex, payload.len() as u64);
        Ok(true)
    }

    /// Moves the object under `key` (if any) into `quarantine/`,
    /// stamping the quarantined file with the time so repeat offenders
    /// do not collide.  Best-effort: failures fall back to deleting the
    /// object so it can never be served.
    pub fn quarantine(&self, key: Pid) {
        let hex = key_hex(key);
        let path = self.object_path(key);
        let _lock = self.lock(&hex).ok();
        if !path.is_file() {
            return;
        }
        trace::counter(names::STORE_QUARANTINED, 1);
        trace::event(names::STORE_QUARANTINE_EVENT).field("key", &hex);
        let dest = self
            .quarantine_dir()
            .join(format!("{hex}.{}.obj", now_nanos()));
        if std::fs::rename(&path, &dest).is_err() {
            std::fs::remove_file(&path).ok();
        }
        self.journal.append(JournalOp::Quarantine, &hex, 0);
    }
}

/// The 32-hex-digit form of a key.
pub fn key_hex(key: Pid) -> String {
    format!("{:032x}", key.as_raw())
}

/// Validates an object envelope, returning the payload iff the magic
/// matches and the embedded digest equals the payload's digest.
fn decode_object(bytes: &[u8]) -> Option<&[u8]> {
    let rest = bytes.strip_prefix(OBJ_MAGIC.as_slice())?;
    if rest.len() < 16 {
        return None;
    }
    let (digest_bytes, payload) = rest.split_at(16);
    let stored = u128::from_le_bytes(digest_bytes.try_into().ok()?);
    if Pid::of_bytes(payload).as_raw() != stored {
        return None;
    }
    Some(payload)
}

/// Verifies one object file's envelope in place (used by `verify` and
/// GC integrity sweeps).
pub(crate) fn object_file_is_valid(path: &Path) -> bool {
    match std::fs::read(path) {
        Ok(bytes) => decode_object(&bytes).is_some(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let d = fsutil::unique_tmp(&std::env::temp_dir().join(format!("smlsc-store-unit-{tag}")));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn key_is_order_independent_but_content_sensitive() {
        let s = Pid::of_bytes(b"source");
        let a = Pid::of_bytes(b"a");
        let b = Pid::of_bytes(b"b");
        assert_eq!(cache_key(s, &[a, b], 1), cache_key(s, &[b, a], 1));
        assert_ne!(cache_key(s, &[a, b], 1), cache_key(s, &[a], 1));
        assert_ne!(cache_key(s, &[a, b], 1), cache_key(s, &[a, b], 2));
        assert_ne!(
            cache_key(s, &[a, b], 1),
            cache_key(Pid::of_bytes(b"other"), &[a, b], 1)
        );
    }

    #[test]
    fn put_get_round_trip_and_idempotent_publish() {
        let root = tmp_root("roundtrip");
        let store = Store::open(&root).unwrap();
        let key = Pid::of_bytes(b"k");
        assert!(!store.contains(key));
        assert!(store.put(key, b"payload").unwrap());
        assert!(
            !store.put(key, b"payload").unwrap(),
            "second put is a no-op"
        );
        assert!(store.contains(key));
        assert_eq!(store.get(key).as_deref(), Some(&b"payload"[..]));
        // Staging area is drained after publication.
        let tmp_entries = std::fs::read_dir(root.join("tmp")).unwrap().count();
        assert_eq!(tmp_entries, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_object_is_quarantined_not_served() {
        let root = tmp_root("quarantine");
        let store = Store::open(&root).unwrap();
        let key = Pid::of_bytes(b"k");
        store.put(key, b"payload").unwrap();
        // Flip a payload bit behind the store's back.
        let path = store.object_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        assert!(store.get(key).is_none(), "corrupt object must miss");
        assert!(!store.contains(key), "corrupt object must be removed");
        let quarantined = std::fs::read_dir(root.join("quarantine")).unwrap().count();
        assert_eq!(quarantined, 1);
        // The slot is usable again.
        assert!(store.put(key, b"payload").unwrap());
        assert_eq!(store.get(key).as_deref(), Some(&b"payload"[..]));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn injected_transient_publish_fault_is_retried_and_masked() {
        let root = tmp_root("retry");
        let store = Store::open(&root).unwrap();
        let key = Pid::of_bytes(b"k");
        let collector = trace::Collector::new();
        collector.install();
        {
            // Exactly one IO fault: the first attempt fails, the retry
            // succeeds, and the caller never sees an error.
            let plan = faults::FaultPlan::default()
                .with(faults::FaultRule::new(points::STORE_PUBLISH, FaultKind::Io).times(1));
            let _faults = faults::install_scoped(plan);
            assert!(store.put(key, b"payload").unwrap());
        }
        trace::uninstall();
        assert_eq!(store.get(key).as_deref(), Some(&b"payload"[..]));
        assert!(!store.is_degraded());
        assert!(collector.counter(names::STORE_RETRIES) >= 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_publish_is_caught_and_quarantined_on_read() {
        let root = tmp_root("torn");
        let store = Store::open(&root).unwrap();
        let key = Pid::of_bytes(b"k");
        {
            let plan = faults::FaultPlan::default()
                .with(faults::FaultRule::new(points::STORE_PUBLISH, FaultKind::Torn).times(1));
            let _faults = faults::install_scoped(plan);
            // The torn publish *reports success* — silent corruption.
            assert!(store.put(key, b"payload").unwrap());
        }
        assert!(store.contains(key), "the torn object landed on disk");
        assert!(store.get(key).is_none(), "corrupt object must miss");
        assert!(!store.contains(key), "and must be quarantined");
        let quarantined = std::fs::read_dir(root.join("quarantine")).unwrap().count();
        assert_eq!(quarantined, 1);
        // The slot heals on the next publish.
        assert!(store.put(key, b"payload").unwrap());
        assert_eq!(store.get(key).as_deref(), Some(&b"payload"[..]));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn persistent_faults_degrade_store_without_failing_callers() {
        let root = tmp_root("degrade");
        let mut store = Store::open(&root).unwrap();
        store.set_degrade_after(3);
        let key = Pid::of_bytes(b"k");
        store.put(key, b"payload").unwrap();
        let collector = trace::Collector::new();
        collector.install();
        {
            // Every fetch fails: the store must latch degraded after
            // three consecutive failures, then stop touching disk.
            let plan = faults::FaultPlan::default()
                .with(faults::FaultRule::new(points::STORE_FETCH, FaultKind::Io));
            let _faults = faults::install_scoped(plan);
            for _ in 0..3 {
                assert!(store.get(key).is_none());
            }
            assert!(store.is_degraded());
            // Degraded puts are instant no-ops — no object appears even
            // though the publish path itself is healthy.
            let other = Pid::of_bytes(b"other");
            assert!(!store.put(other, b"new").unwrap());
            assert!(!store.object_path(other).exists());
            // Degraded gets miss without consulting the fault plan (the
            // object is intact on disk but the store has given up).
            assert!(store.get(key).is_none());
        }
        trace::uninstall();
        assert_eq!(collector.counter(names::STORE_DEGRADED), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_opens_of_a_new_store_all_succeed() {
        for round in 0..300 {
            let root = tmp_root(&format!("open-race-{round}"));
            let opened: Vec<bool> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..4)
                    .map(|_| s.spawn(|| Store::open(&root).is_ok()))
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert_eq!(opened, [true; 4], "round {round}");
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn version_mismatch_refuses_to_open() {
        let root = tmp_root("version");
        Store::open(&root).unwrap();
        std::fs::write(root.join("VERSION"), "999\n").unwrap();
        assert!(matches!(
            Store::open(&root),
            Err(StoreError::LayoutVersion { .. })
        ));
        std::fs::remove_dir_all(&root).ok();
    }
}
