//! Durable filesystem writes: the one module that commits a file,
//! takes a lockfile, or appends a log line, for every writer in the
//! workspace (store objects and journal, `bins.pack`, the build
//! ledger, store key locks, the daemon and pack locks).
//!
//! * **Commit** — [`AtomicFile`]: stream into a [`unique_tmp`] staging
//!   file, then fsync → `rename(2)` → fsync of the destination's parent
//!   (without the last step a power loss can lose the rename itself).
//! * **Lockfile** — [`acquire`]: an `O_EXCL` create holding the owner's
//!   pid, a [`Stale`] break, jittered backoff.  Lock files are not
//!   durable state, so nothing fsyncs them.
//! * **Append** — [`append_line`]: one `O_APPEND` write, after healing a
//!   torn tail so the garbage never swallows the new line.
//!
//! Each takes its fault point as an argument.  Commits check stages
//! `begin`, `staged`, `renamed`; appends `begin` and `mid`.  `io` at
//! `begin`/`staged` fails the operation, `torn` at `begin` keeps only the
//! first half of the bytes, and `crash` dies in exactly that
//! half-finished state for the crash-recovery harness.  [`check_stage`]
//! is public for the one durable write that is none of the three, an
//! appended `bins.pack` segment (`smlsc-core`'s `pack` module), so its
//! stages read the same way.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

use smlsc_faults::{self as faults, FaultKind};
use smlsc_trace::{self as trace, names};

/// Process-global staging counter: tmp names stay unique even when two
/// threads of one process save the same destination concurrently.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A staging path for `dest`, unique per process *and* per call:
/// `<stem>.tmp-<pid>-<seq>`, in `dest`'s directory.
pub fn unique_tmp(dest: &Path) -> PathBuf {
    dest.with_extension(format!(
        "tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// True when `name` looks like one of our staging files (`*.tmp-*`):
/// the litter an interrupted save leaves behind, safe to sweep.
pub fn is_tmp_litter(name: &str) -> bool {
    name.rsplit_once('.')
        .is_some_and(|(_, ext)| ext.starts_with("tmp-"))
}

/// Opens `dir` and fsyncs it, making a just-completed rename within it
/// durable.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Checks `point` (if any) at `stage` with a `"<stage> <detail>"`
/// detail string, skipping the formatting when no plan is installed.
pub fn check_stage(point: Option<&'static str>, stage: &str, detail: &str) -> Option<FaultKind> {
    let point = point?;
    if !faults::active() {
        return None;
    }
    faults::check(point, &format!("{stage} {detail}"))
}

/// A staging file that becomes `dest` only on [`AtomicFile::commit`].
/// Writers stream into it (nothing is buffered here); dropped without a
/// commit, it removes its staging file.
#[derive(Debug)]
pub struct AtomicFile {
    file: File,
    tmp: PathBuf,
    dest: PathBuf,
    point: Option<&'static str>,
    torn: bool,
    committed: bool,
}

impl AtomicFile {
    /// Checks the `begin` stage of `point`, then creates the staging
    /// file `tmp` (normally from [`unique_tmp`]) for `dest`.
    ///
    /// # Errors
    ///
    /// An injected `io` fault, or the staging file's creation failing.
    pub fn create(tmp: PathBuf, dest: &Path, point: Option<&'static str>) -> io::Result<Self> {
        let fault = check_stage(point, "begin", &file_name(dest));
        if fault == Some(FaultKind::Io) {
            return Err(faults::io_error(
                point.unwrap_or_default(),
                &file_name(dest),
            ));
        }
        Ok(AtomicFile {
            file: File::create(&tmp)?,
            tmp,
            dest: dest.to_path_buf(),
            point,
            torn: fault == Some(FaultKind::Torn),
            committed: false,
        })
    }

    /// The staging file, for positioned writes (patching a header)
    /// before the commit.
    pub fn as_file(&self) -> &File {
        &self.file
    }

    /// Publishes the staged bytes at the destination: fsync, `staged`
    /// check, rename, `renamed` check, fsync of the parent directory.
    /// Under a `torn` fault only the first half of the bytes written is
    /// committed — the file-level corruption readers must detect.
    ///
    /// # Errors
    ///
    /// Any IO failure, or an injected `io` fault at `staged`; until the
    /// rename the destination is untouched.
    pub fn commit(mut self) -> io::Result<()> {
        if self.torn {
            self.file.set_len(self.file.metadata()?.len() / 2)?;
        }
        self.file.sync_all()?;
        let name = file_name(&self.dest);
        if let Some(FaultKind::Io) = check_stage(self.point, "staged", &name) {
            return Err(faults::io_error(self.point.unwrap_or_default(), &name));
        }
        std::fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        check_stage(self.point, "renamed", &name);
        match self.dest.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => fsync_dir(dir),
            _ => Ok(()),
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

/// Publishes `bytes` at `path` atomically and durably through an
/// [`AtomicFile`] staged next to it.
///
/// # Errors
///
/// As for [`AtomicFile::create`] and [`AtomicFile::commit`].
pub fn commit_atomic(path: &Path, bytes: &[u8], point: Option<&'static str>) -> io::Result<()> {
    let mut file = AtomicFile::create(unique_tmp(path), path, point)?;
    file.write_all(bytes)?;
    file.commit()
}

/// When an existing lock file is presumed abandoned and broken.
#[derive(Debug, Clone, Copy)]
pub enum Stale {
    /// Its mtime is older than the bound (short critical sections,
    /// whose live owner never looks old).
    OlderThan(Duration),
    /// It records no live pid (a lock held for a process's lifetime).
    OwnerDead,
}

impl Stale {
    /// Whether the existing lock at `path` is stale under this rule;
    /// `None` when it vanished meanwhile (its owner released it), so
    /// the next create decides — breaking it then could delete a lock
    /// a third acquirer has just taken.
    fn holds(self, path: &Path) -> Option<bool> {
        let gone = |e: &io::Error| e.kind() == io::ErrorKind::NotFound;
        match self {
            Stale::OlderThan(bound) => match std::fs::metadata(path).and_then(|m| m.modified()) {
                Ok(mtime) => Some(
                    SystemTime::now()
                        .duration_since(mtime)
                        .is_ok_and(|age| age > bound),
                ),
                Err(e) if gone(&e) => None,
                Err(_) => Some(true),
            },
            Stale::OwnerDead => match std::fs::read_to_string(path) {
                Err(e) if gone(&e) => None,
                // Created but no pid written yet: a live owner between
                // its create and its write, unless it stays empty.
                Ok(text) if text.is_empty() => Stale::OlderThan(PID_WRITE_GRACE).holds(path),
                text => {
                    let pid = text.ok().and_then(|t| t.trim().parse().ok());
                    Some(!pid.is_some_and(pid_alive))
                }
            },
        }
    }
}

/// How long an empty `OwnerDead` lock file counts as an owner still
/// writing its pid rather than one that died before writing it.
const PID_WRITE_GRACE: Duration = Duration::from_secs(1);

/// An acquired lockfile; released (the file unlinked) on drop.
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
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
pub fn jitter() -> Duration {
    let n = JITTER_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    Duration::from_micros(x % 1024)
}

/// Acquires the lockfile at `path`: an `O_EXCL` create with our pid
/// written, then the `point` fault check (the file exists, the guard
/// does not: `io` backs the lock out, `panic`/`crash` leak it like an
/// owner dying mid-critical-section), then — on contention — a break of
/// a [`Stale`] lock (counted as `lock.broken`) or a jittered exponential
/// backoff, until `wait` has passed.
///
/// # Errors
///
/// [`io::ErrorKind::TimedOut`] when a live holder outlasts `wait` (a
/// zero `wait` fails on the first live holder); any other IO error from
/// creating the lock file or its directory.
pub fn acquire(
    path: &Path,
    stale: Stale,
    wait: Duration,
    point: &'static str,
) -> io::Result<LockGuard> {
    let deadline = Instant::now() + wait;
    let mut backoff = Duration::from_millis(2);
    loop {
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                if let Err(e) = writeln!(f, "{}", std::process::id()) {
                    std::fs::remove_file(path).ok();
                    return Err(e);
                }
                drop(f);
                if faults::active() {
                    let detail = path.to_string_lossy();
                    if let Some(FaultKind::Io) = faults::check(point, &detail) {
                        std::fs::remove_file(path).ok();
                        return Err(faults::io_error(point, &detail));
                    }
                }
                return Ok(LockGuard {
                    path: path.to_path_buf(),
                });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                match stale.holds(path) {
                    None => continue,
                    Some(true) => {
                        // The owner is gone; break the lock and retry.
                        // A racing breaker is fine — both remove, one
                        // of the subsequent creates wins.
                        trace::counter(names::LOCK_BROKEN, 1);
                        trace::event("lock.break").field("path", path.display());
                        std::fs::remove_file(path).ok();
                        continue;
                    }
                    Some(false) => {}
                }
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("timed out waiting for lock {}", path.display()),
                    ));
                }
                trace::counter(names::STORE_RETRIES, 1);
                std::thread::sleep(backoff + jitter());
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
            // The lock's directory is missing (fresh root or concurrent
            // clear): recreate it and retry.
            Err(e) if e.kind() == io::ErrorKind::NotFound => match path.parent() {
                Some(dir) => std::fs::create_dir_all(dir)?,
                None => return Err(e),
            },
            Err(e) => return Err(e),
        }
    }
}

/// The pid recorded in a lockfile, if it parses.
pub fn owner(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Is the process alive?  Linux: its `/proc/<pid>/stat` exists and the
/// state field is not `Z` — a zombie (killed but not yet reaped) is
/// dead for lock purposes: it will never release or serve again.
pub fn pid_alive(pid: u64) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    // The state is the first field after the parenthesised comm.
    !matches!(
        stat.rfind(')')
            .and_then(|i| stat[i + 1..].trim_start().chars().next()),
        Some('Z') | None
    )
}

/// True when the file ends mid-line (no trailing newline): the
/// signature of a crash during a previous append.
pub fn tail_is_torn(path: &Path) -> bool {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut f) = File::open(path) else {
        return false;
    };
    let mut last = [0u8; 1];
    f.seek(SeekFrom::End(-1)).is_ok() && f.read_exact(&mut last).is_ok() && last[0] != b'\n'
}

/// Appends `line` plus a newline to the log at `path` as one `O_APPEND`
/// write, first terminating a torn tail so the new line stays whole.
///
/// `point` (if any) is checked at `begin` (`io` fails the append,
/// `torn` writes only the first half of the line) and, under an
/// installed plan only, at `mid`: the write then splits in two so a
/// `crash(mid)` rule dies with half a line on disk — the real torn tail
/// the next append must heal.  Production appends stay one write.
///
/// # Errors
///
/// An injected `io` fault, or any failure opening or writing the file.
pub fn append_line(path: &Path, line: &str, point: Option<&'static str>) -> io::Result<()> {
    let detail = path.to_string_lossy();
    let fault = check_stage(point, "begin", &detail);
    if fault == Some(FaultKind::Io) {
        return Err(faults::io_error(point.unwrap_or_default(), &detail));
    }
    let mut bytes = Vec::with_capacity(line.len() + 2);
    if tail_is_torn(path) {
        bytes.push(b'\n');
    }
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    if fault == Some(FaultKind::Torn) {
        bytes.truncate(bytes.len() / 2);
    }
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    if point.is_some() && faults::active() {
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        f.write_all(head)?;
        check_stage(point, "mid", &detail);
        f.write_all(tail)
    } else {
        f.write_all(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlsc_faults::{install_scoped, points, FaultPlan, FaultRule};

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smlsc-fsutil-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A commit point with the full `begin`/`staged`/`renamed` stages.
    const POINT: Option<&str> = Some(points::LEDGER_ROTATE);

    #[test]
    fn tmp_names_are_unique_per_call() {
        let dest = Path::new("/x/builds.jsonl");
        let a = unique_tmp(dest);
        let b = unique_tmp(dest);
        assert_ne!(a, b);
        assert!(a.to_string_lossy().contains("tmp-"));
        assert!(is_tmp_litter(&a.file_name().unwrap().to_string_lossy()));
        assert!(!is_tmp_litter("builds.jsonl"));
        assert!(!is_tmp_litter("bins.pack"));
    }

    #[test]
    fn commit_replaces_the_destination_and_leaves_no_litter() {
        let dir = temp("commit");
        let path = dir.join("state.bin");
        commit_atomic(&path, b"first", POINT).unwrap();
        commit_atomic(&path, b"second", POINT).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert_eq!(names_in(&dir), vec!["state.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_io_fails_the_commit_and_keeps_the_old_file() {
        let dir = temp("io");
        let path = dir.join("state.bin");
        commit_atomic(&path, b"good", POINT).unwrap();
        for stage in ["begin", "staged"] {
            let _g = install_scoped(
                FaultPlan::default()
                    .with(FaultRule::new(points::LEDGER_ROTATE, FaultKind::Io).filtered(stage)),
            );
            assert!(commit_atomic(&path, b"bad", POINT).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), b"good", "stage {stage}");
        }
        // No staging litter survives either failure.
        assert_eq!(names_in(&dir), vec!["state.bin"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_torn_writes_half_the_payload() {
        let dir = temp("torn");
        let path = dir.join("state.bin");
        let _g = install_scoped(
            FaultPlan::default().with(FaultRule::new(points::LEDGER_ROTATE, FaultKind::Torn)),
        );
        commit_atomic(&path, b"12345678", POINT).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"1234");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp_lock(tag: &str) -> PathBuf {
        temp(&format!("lock-{tag}")).join(format!("{tag}.lock"))
    }

    const TEN_S: Stale = Stale::OlderThan(Duration::from_secs(10));

    fn store_lock(path: &Path, stale: Stale, wait: Duration) -> io::Result<LockGuard> {
        acquire(path, stale, wait, points::STORE_LOCK)
    }

    #[test]
    fn exclusive_within_and_released_on_drop() {
        let path = tmp_lock("excl");
        let g = store_lock(&path, TEN_S, Duration::from_secs(5)).unwrap();
        // A second acquirer times out while the guard is alive.
        let err = store_lock(&path, TEN_S, Duration::from_millis(30));
        assert!(matches!(err, Err(e) if e.kind() == io::ErrorKind::TimedOut));
        drop(g);
        // And succeeds after release.
        let g2 = store_lock(&path, TEN_S, Duration::from_secs(5)).unwrap();
        drop(g2);
        assert!(!path.exists());
    }

    #[test]
    fn stale_lock_is_broken() {
        let path = tmp_lock("stale");
        std::fs::write(&path, "dead-owner").unwrap();
        // A bound of zero: any existing lock is presumed abandoned.
        let g = store_lock(
            &path,
            Stale::OlderThan(Duration::ZERO),
            Duration::from_secs(5),
        );
        drop(g.unwrap());
    }

    /// The crashed-owner scenario, driven end to end by an injected
    /// panic instead of sleeps or hand-written lock files: builder A
    /// dies *inside* the critical section (the fault point fires after
    /// the create, before the guard exists), leaking its lock file;
    /// builder B presumes the owner dead and proceeds by breaking it.
    #[test]
    fn crashed_owner_lock_is_broken_and_second_builder_proceeds() {
        let path = tmp_lock("crash");
        let collector = trace::Collector::new();
        collector.install();
        {
            let plan = FaultPlan::default().with(
                FaultRule::new(points::STORE_LOCK, FaultKind::Panic)
                    .filtered("crash")
                    .times(1),
            );
            let _faults = faults::install_scoped(plan);
            let crashed =
                std::panic::catch_unwind(|| store_lock(&path, TEN_S, Duration::from_secs(5)));
            assert!(crashed.is_err(), "owner must crash mid-critical-section");
            assert!(path.exists(), "the crashed owner leaks its lock file");

            // The second builder breaks the abandoned lock (presumed
            // dead immediately under a zero staleness bound) and wins.
            let g = store_lock(
                &path,
                Stale::OlderThan(Duration::ZERO),
                Duration::from_secs(5),
            )
            .expect("second builder proceeds past the crashed owner");
            drop(g);
            assert!(!path.exists());
        }
        trace::uninstall();
        assert_eq!(collector.counter(names::LOCK_BROKEN), 1);
    }

    /// A slow (but alive) holder — delayed by an injected fault inside
    /// the critical section — is *waited out*, never broken: the second
    /// builder blocks on contention backoff and acquires after release.
    #[test]
    fn delayed_live_holder_is_waited_out_not_broken() {
        let path = tmp_lock("slow");
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
                    let g = store_lock(&path_a, TEN_S, Duration::from_secs(5)).unwrap();
                    released_a.store(true, Ordering::SeqCst);
                    drop(g);
                });
                // Give A a head start into the critical section, then
                // contend with a generous staleness bound: B must wait.
                while !path.exists() {
                    std::hint::spin_loop();
                }
                let g = store_lock(&path, TEN_S, Duration::from_secs(5)).unwrap();
                assert!(
                    released.load(Ordering::SeqCst),
                    "B acquired before A released"
                );
                drop(g);
            });
        }
        trace::uninstall();
        assert_eq!(
            collector.counter(names::LOCK_BROKEN),
            0,
            "a live holder must never be broken"
        );
    }

    #[test]
    fn contended_threads_serialize() {
        let path = tmp_lock("contend");
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let path = path.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        let _g = store_lock(&path, TEN_S, Duration::from_secs(30)).unwrap();
                        // Non-atomic read-modify-write under the lock.
                        let v = counter.load(Ordering::SeqCst);
                        std::thread::yield_now();
                        counter.store(v + 1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 80);
    }

    fn daemon_lock(path: &Path) -> io::Result<LockGuard> {
        acquire(path, Stale::OwnerDead, Duration::ZERO, points::DAEMON_LOCK)
    }

    #[test]
    fn second_acquire_fails_while_owner_lives() {
        let path = tmp_lock("live");
        let guard = daemon_lock(&path).unwrap();
        // Our own pid is alive, so a second acquire must refuse.
        let err = daemon_lock(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(guard);
        // Released: now it succeeds again.
        daemon_lock(&path).unwrap();
    }

    #[test]
    fn stale_lock_of_a_dead_pid_is_taken_over() {
        let path = tmp_lock("deadpid");
        // Pid u32::MAX is above Linux's pid_max; certainly dead.
        std::fs::write(&path, format!("{}\n", u32::MAX)).unwrap();
        let _guard = daemon_lock(&path).unwrap();
        assert_eq!(owner(&path), Some(u64::from(std::process::id())));
    }

    #[test]
    fn garbage_lockfile_is_treated_as_stale() {
        let path = tmp_lock("garbage");
        std::fs::write(&path, b"not a pid").unwrap();
        daemon_lock(&path).unwrap();
    }

    #[test]
    fn fresh_empty_lockfile_is_an_owner_mid_acquire() {
        let path = tmp_lock("empty");
        // An owner between its `O_EXCL` create and its pid write.
        std::fs::write(&path, b"").unwrap();
        let err = daemon_lock(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // One that never wrote its pid is abandoned after the grace.
        let old = SystemTime::now() - PID_WRITE_GRACE * 2;
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        daemon_lock(&path).unwrap();
    }
}
