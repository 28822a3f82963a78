//! Advisory file locks shared by threads and processes.
//!
//! A lock is a file created with `O_CREAT|O_EXCL` (`create_new`) — the
//! one primitive that is atomic on every platform and filesystem std
//! reaches.  Whoever creates the file owns the lock; dropping the guard
//! removes it.  Crash safety comes from *staleness*: a lock file whose
//! mtime is older than a bound is presumed abandoned (its owner died
//! mid-critical-section) and is broken by the next acquirer.  Critical
//! sections guarded here are short — a rename or an unlink — so a live
//! owner never looks stale.
//!
//! Contention is retried with bounded exponential backoff plus a small
//! deterministic jitter (so a herd of waiters does not re-collide in
//! lockstep), up to the caller's timeout.  The [`points::STORE_LOCK`]
//! fault point fires *while the lock file exists and before the guard
//! is constructed*, so an injected panic models exactly an owner that
//! crashes mid-critical-section and leaks its lock file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use smlsc_faults::{self as faults, points, FaultKind};
use smlsc_trace::{self as trace, names};

use crate::{io_err, StoreError};

/// An acquired advisory lock; released (the lock file unlinked) on drop.
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// Ceiling for the contention backoff between acquisition attempts.
const MAX_BACKOFF: Duration = Duration::from_millis(50);

static JITTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A small deterministic jitter (0–1023 µs) decorrelating concurrent
/// waiters without a clock or RNG dependency.
pub(crate) fn jitter() -> Duration {
    let n = JITTER_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    Duration::from_micros(x % 1024)
}

/// Acquires the lock at `path`, breaking locks older than
/// `stale_after`, giving up after `timeout`.
///
/// # Errors
///
/// [`StoreError::LockTimeout`] when a live holder outlasts `timeout`;
/// [`StoreError::Io`] when the lock file cannot be created for any
/// reason other than contention.  Both errors name the lock file, so a
/// caller's report can say *which key's* critical section was stuck.
pub fn acquire(
    path: &Path,
    stale_after: Duration,
    timeout: Duration,
) -> Result<LockGuard, StoreError> {
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(2);
    loop {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
        {
            Ok(mut f) => {
                use std::io::Write as _;
                let _ = writeln!(f, "{}", std::process::id());
                drop(f);
                // The fault point sits inside the critical section: the
                // lock file exists but no guard will release it yet.  A
                // `panic` here is a crashed owner; an `io` is a failed
                // acquisition that must not leak the file.
                // (`Torn` has no meaning for a lock file and is ignored.)
                if faults::active() {
                    if let Some(FaultKind::Io) =
                        faults::check(points::STORE_LOCK, &path.to_string_lossy())
                    {
                        std::fs::remove_file(path).ok();
                        return Err(io_err(
                            path,
                            faults::io_error(points::STORE_LOCK, &path.to_string_lossy()),
                        ));
                    }
                }
                return Ok(LockGuard {
                    path: path.to_path_buf(),
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if lock_is_stale(path, stale_after) {
                    // The owner crashed; break the lock and retry.  A
                    // racing breaker is fine — both remove, one of the
                    // subsequent create_new calls wins.
                    trace::counter(names::STORE_LOCK_BROKEN, 1);
                    trace::event("store.lock_break").field("path", path.display());
                    std::fs::remove_file(path).ok();
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(StoreError::LockTimeout(path.to_path_buf()));
                }
                trace::counter(names::STORE_RETRIES, 1);
                std::thread::sleep(backoff.min(MAX_BACKOFF) + jitter());
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // The locks directory itself is missing (fresh root or
                // concurrent clear); recreate and retry.
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent).map_err(|err| io_err(parent, err))?;
                }
            }
            Err(e) => return Err(io_err(path, e)),
        }
    }
}

/// True when the lock file's mtime is older than `stale_after` (a
/// vanished file is "stale" too: the next create_new attempt decides).
fn lock_is_stale(path: &Path, stale_after: Duration) -> bool {
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(mtime) => SystemTime::now()
            .duration_since(mtime)
            .is_ok_and(|age| age > stale_after),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlsc_faults::{FaultPlan, FaultRule};

    fn tmp_lock(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smlsc-lock-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.lock"))
    }

    #[test]
    fn exclusive_within_and_released_on_drop() {
        let path = tmp_lock("excl");
        std::fs::remove_file(&path).ok();
        let g = acquire(&path, Duration::from_secs(10), Duration::from_secs(5)).unwrap();
        // A second acquirer times out while the guard is alive.
        let err = acquire(&path, Duration::from_secs(10), Duration::from_millis(30));
        assert!(matches!(err, Err(StoreError::LockTimeout(_))));
        drop(g);
        // And succeeds after release.
        let g2 = acquire(&path, Duration::from_secs(10), Duration::from_secs(5)).unwrap();
        drop(g2);
        assert!(!path.exists());
    }

    #[test]
    fn stale_lock_is_broken() {
        let path = tmp_lock("stale");
        std::fs::remove_file(&path).ok();
        std::fs::write(&path, "dead-owner").unwrap();
        // stale_after of zero: any existing lock is presumed abandoned.
        let g = acquire(&path, Duration::ZERO, Duration::from_secs(5)).unwrap();
        drop(g);
    }

    /// The crashed-owner scenario, driven end to end by an injected
    /// panic instead of sleeps or hand-written lock files: builder A
    /// dies *inside* the critical section (the fault point fires after
    /// `create_new`, before the guard exists), leaking its lock file;
    /// builder B presumes the owner dead and proceeds by breaking it.
    #[test]
    fn crashed_owner_lock_is_broken_and_second_builder_proceeds() {
        let path = tmp_lock("crash");
        std::fs::remove_file(&path).ok();
        let collector = trace::Collector::new();
        collector.install();
        {
            let plan = FaultPlan::default().with(
                FaultRule::new(points::STORE_LOCK, FaultKind::Panic)
                    .filtered("crash")
                    .times(1),
            );
            let _faults = faults::install_scoped(plan);
            let crashed = std::panic::catch_unwind(|| {
                acquire(&path, Duration::from_secs(10), Duration::from_secs(5))
            });
            assert!(crashed.is_err(), "owner must crash mid-critical-section");
            assert!(path.exists(), "the crashed owner leaks its lock file");

            // The second builder breaks the abandoned lock (presumed
            // dead immediately under a zero staleness bound) and wins.
            let g = acquire(&path, Duration::ZERO, Duration::from_secs(5))
                .expect("second builder proceeds past the crashed owner");
            drop(g);
            assert!(!path.exists());
        }
        trace::uninstall();
        assert_eq!(collector.counter(names::STORE_LOCK_BROKEN), 1);
    }

    /// A slow (but alive) holder — delayed by an injected fault inside
    /// the critical section — is *waited out*, never broken: the second
    /// builder blocks on contention backoff and acquires after release.
    #[test]
    fn delayed_live_holder_is_waited_out_not_broken() {
        let path = tmp_lock("slow");
        std::fs::remove_file(&path).ok();
        let collector = trace::Collector::new();
        collector.install();
        let released = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let plan = FaultPlan::default().with(
                FaultRule::new(
                    points::STORE_LOCK,
                    FaultKind::Delay(Duration::from_millis(40)),
                )
                .filtered("slow")
                .times(1),
            );
            let _faults = faults::install_scoped(plan);
            std::thread::scope(|s| {
                let released_a = released.clone();
                let path_a = path.clone();
                let plan_a = faults::fork_current().expect("plan installed");
                s.spawn(move || {
                    let _faults = faults::install_forked(plan_a);
                    // Holds the lock through the injected 40ms stall.
                    let g =
                        acquire(&path_a, Duration::from_secs(10), Duration::from_secs(5)).unwrap();
                    released_a.store(true, std::sync::atomic::Ordering::SeqCst);
                    drop(g);
                });
                // Give A a head start into the critical section, then
                // contend with a generous staleness bound: B must wait.
                while !path.exists() {
                    std::hint::spin_loop();
                }
                let g = acquire(&path, Duration::from_secs(10), Duration::from_secs(5)).unwrap();
                assert!(
                    released.load(std::sync::atomic::Ordering::SeqCst),
                    "B acquired before A released"
                );
                drop(g);
            });
        }
        trace::uninstall();
        assert_eq!(
            collector.counter(names::STORE_LOCK_BROKEN),
            0,
            "a live holder must never be broken"
        );
    }

    #[test]
    fn contended_threads_serialize() {
        let path = tmp_lock("contend");
        std::fs::remove_file(&path).ok();
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let path = path.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        let _g = acquire(&path, Duration::from_secs(10), Duration::from_secs(30))
                            .unwrap();
                        // Non-atomic read-modify-write under the lock.
                        let v = counter.load(std::sync::atomic::Ordering::SeqCst);
                        std::thread::yield_now();
                        counter.store(v + 1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 80);
    }
}
