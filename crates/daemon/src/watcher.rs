//! The daemon's filesystem watch: an inotify watch on the project
//! directory, drained by every resident build.
//!
//! [`Watch`] is the resident session's [`ChangeFeed`].  It is armed
//! before the session scans the directory, so no edit can fall between
//! the scan and the first event, and it never runs on its own: each
//! build drains it under the session's state lock.  The kernel queues an
//! event inside the `write(2)` that caused it, so an edit that finished
//! before a client sent its request is always in the queue — the drain
//! is a barrier, and no sweep ever competes with a build for the lock.
//!
//! The watch reports [`Drained::Lost`] — and the build falls back to a
//! stat-rescan of the directory — when it cannot vouch for what it
//! saw: the kernel queue overflowed, a read or `inotify_add_watch`
//! failed, the directory itself was moved, deleted or unmounted, or an
//! injected `daemon.watch` fault fired.  It re-arms itself before
//! reporting the loss, so the rescan that follows misses nothing.
//! Where inotify is unavailable (another OS, an exhausted instance
//! limit) every build rescans, and `status` says so.

use std::ffi::OsStr;
use std::io::Read;
use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use smlsc_core::resident::{ChangeFeed, Drained};
use smlsc_faults::points;

/// Daemon-lifetime counters, surfaced in `status` responses keyed by
/// the canonical `smlsc_trace::names::DAEMON_*` names.
#[derive(Debug, Default)]
pub struct DaemonCounters {
    /// Requests served (handshake excluded): build, stats, status, stop.
    pub requests: AtomicU64,
    /// Kernel events drained for `*.sml` files.
    pub watch_events: AtomicU64,
    /// Drains that lost track of the directory, and failed attempts to
    /// arm the watch.
    pub watch_errors: AtomicU64,
    /// True while an inotify watch is armed; false means every build
    /// rescans.
    pub watch_armed: AtomicBool,
    /// True while the most recent drain could not vouch for the
    /// directory (its build rescanned instead).
    pub watch_degraded: AtomicBool,
}

// inotify(7) event bits (the Linux ABI, the same on every architecture).
const IN_MODIFY: u32 = 0x2;
const IN_ATTRIB: u32 = 0x4;
const IN_CLOSE_WRITE: u32 = 0x8;
const IN_MOVED_FROM: u32 = 0x40;
const IN_MOVED_TO: u32 = 0x80;
const IN_CREATE: u32 = 0x100;
const IN_DELETE: u32 = 0x200;
const IN_DELETE_SELF: u32 = 0x400;
const IN_MOVE_SELF: u32 = 0x800;
const IN_UNMOUNT: u32 = 0x2000;
const IN_Q_OVERFLOW: u32 = 0x4000;
const IN_IGNORED: u32 = 0x8000;
/// Events that change a directory entry or a file's bytes or metadata.
const CHANGES: u32 =
    IN_MODIFY | IN_ATTRIB | IN_CLOSE_WRITE | IN_MOVED_FROM | IN_MOVED_TO | IN_CREATE | IN_DELETE;
/// Events after which the watch no longer covers every change.
const LOST: u32 = IN_Q_OVERFLOW | IN_DELETE_SELF | IN_MOVE_SELF | IN_UNMOUNT | IN_IGNORED;
/// `struct inotify_event` without its name: wd, mask, cookie, len.
const EVENT_HEADER: usize = 16;

/// An inotify watch on one project directory; see the module docs.
pub struct Watch {
    dir: PathBuf,
    /// The inotify instance (non-blocking), while armed.
    queue: Option<std::fs::File>,
    counters: Arc<DaemonCounters>,
    buf: Vec<u8>,
}

impl Watch {
    /// Arms a watch on `dir`.  A watch that cannot be armed still works
    /// as a feed: each drain retries, and reports a loss until it can.
    pub fn arm(dir: &Path, counters: Arc<DaemonCounters>) -> Watch {
        let mut watch = Watch {
            dir: dir.to_path_buf(),
            queue: None,
            counters,
            buf: vec![0; 64 * 1024],
        };
        watch.rearm();
        watch
    }

    /// Replaces the inotify instance with a fresh one: events queued on
    /// the old one are dropped, so the caller must rescan.
    fn rearm(&mut self) {
        self.queue = sys::watch(&self.dir, CHANGES | LOST).ok();
        if self.queue.is_none() {
            self.counters.watch_errors.fetch_add(1, Ordering::SeqCst);
        }
        self.counters
            .watch_armed
            .store(self.queue.is_some(), Ordering::SeqCst);
    }

    /// Reads the queue dry: the `*.sml` names it held, or `None` when
    /// events were lost or the read failed.
    fn read_all(&mut self) -> Option<Vec<PathBuf>> {
        let queue = self.queue.as_mut()?;
        let mut names = Vec::new();
        loop {
            match queue.read(&mut self.buf) {
                Ok(0) => return Some(names),
                Ok(n) => {
                    if !parse(&self.buf[..n], &mut names) {
                        return None;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Some(names),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }
}

impl ChangeFeed for Watch {
    fn drain(&mut self) -> Drained {
        let names = if smlsc_faults::check(points::DAEMON_WATCH, "drain").is_some() {
            None
        } else {
            self.read_all()
        };
        match names {
            Some(names) => {
                self.counters
                    .watch_events
                    .fetch_add(names.len() as u64, Ordering::SeqCst);
                self.counters.watch_degraded.store(false, Ordering::SeqCst);
                Drained::Changed(names)
            }
            None => {
                if self.queue.is_some() {
                    self.counters.watch_errors.fetch_add(1, Ordering::SeqCst);
                }
                self.counters.watch_degraded.store(true, Ordering::SeqCst);
                self.rearm();
                Drained::Lost
            }
        }
    }
}

/// Appends the `*.sml` names of the events in `buf` to `names`; false
/// when an event says the watch lost track.
fn parse(mut buf: &[u8], names: &mut Vec<PathBuf>) -> bool {
    let word = |b: &[u8], at: usize| u32::from_ne_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
    while buf.len() >= EVENT_HEADER {
        let mask = word(buf, 4);
        let len = word(buf, 12) as usize;
        let Some(name) = buf.get(EVENT_HEADER..EVENT_HEADER + len) else {
            return false;
        };
        buf = &buf[EVENT_HEADER + len..];
        if mask & LOST != 0 {
            return false;
        }
        // The name is NUL-padded to an alignment boundary.
        let name = name.split(|&b| b == 0).next().unwrap_or_default();
        let name = Path::new(OsStr::from_bytes(name));
        if name.extension().and_then(OsStr::to_str) == Some("sml") {
            names.push(name.to_path_buf());
        }
    }
    true
}

/// The inotify(7) binding: two libc calls, declared directly since no
/// libc crate is vendored.  The flag values are those of the
/// architectures listed; elsewhere [`watch`] is unsupported and the
/// daemon rescans.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
))]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_char, CString};
    use std::os::fd::{FromRawFd, OwnedFd};
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    const IN_ONLYDIR: u32 = 0x0100_0000;
    const IN_NONBLOCK: i32 = 0o4000;
    const IN_CLOEXEC: i32 = 0o2_000_000;

    extern "C" {
        fn inotify_init1(flags: i32) -> i32;
        fn inotify_add_watch(fd: i32, pathname: *const c_char, mask: u32) -> i32;
    }

    /// A non-blocking inotify instance watching `dir` for `mask`.
    pub fn watch(dir: &Path, mask: u32) -> std::io::Result<std::fs::File> {
        let path = CString::new(dir.as_os_str().as_bytes())?;
        // SAFETY: no pointer arguments; the result is checked.
        let fd = unsafe { inotify_init1(IN_NONBLOCK | IN_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `inotify_init1` and nothing
        // else owns it; the `OwnedFd` closes it on every path.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        // SAFETY: `path` is NUL-terminated and outlives the call.
        if unsafe { inotify_add_watch(fd, path.as_ptr(), mask | IN_ONLYDIR) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(std::fs::File::from(owned))
    }
}

/// No inotify here: every drain reports a loss and builds rescan.
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "x86",
        target_arch = "aarch64",
        target_arch = "arm",
        target_arch = "riscv64"
    )
)))]
mod sys {
    pub fn watch(_dir: &std::path::Path, _mask: u32) -> std::io::Result<std::fs::File> {
        Err(std::io::ErrorKind::Unsupported.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlsc_core::irm::{FailurePolicy, Irm, Project, Strategy};
    use smlsc_core::resident::Resident;
    use smlsc_faults::{install_scoped, FaultPlan};

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smlsc-watch-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        dir
    }

    fn write(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join("src").join(format!("{name}.sml")), text).unwrap();
    }

    /// A watched resident session over `dir/src`, armed before the scan
    /// the way the server arms it.
    fn watched(dir: &Path) -> (Resident, Arc<DaemonCounters>) {
        let counters = Arc::new(DaemonCounters::default());
        let watch = Watch::arm(&dir.join("src"), Arc::clone(&counters));
        let r =
            Resident::open(&dir.join("src"), &dir.join("bins"), Strategy::Cutoff, None).unwrap();
        r.set_feed(Box::new(watch));
        (r, counters)
    }

    /// Floods `dir/src` with more events than the kernel queue holds.
    fn overflow(dir: &Path) {
        let limit: usize = std::fs::read_to_string("/proc/sys/fs/inotify/max_queued_events")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(16_384);
        // Create, modify and close-write: three events per new file.
        for i in 0..limit / 3 + 64 {
            std::fs::write(dir.join("src").join(format!("junk-{i}.txt")), b"x").unwrap();
        }
    }

    fn export_pids(irm: &Irm, units: &[&str]) -> Vec<String> {
        units
            .iter()
            .map(|u| irm.bin_meta(u).unwrap().export_pid.to_string())
            .collect()
    }

    /// Builds `dir/src` clean in-process, then loads the daemon's bins:
    /// the two sets of export pids.
    fn pids_vs_clean(dir: &Path, units: &[&str]) -> (Vec<String>, Vec<String>) {
        let mut clean = Irm::new(Strategy::Cutoff);
        clean
            .build(&Project::from_dir(&dir.join("src")).unwrap())
            .unwrap();
        let mut saved = Irm::new(Strategy::Cutoff);
        saved.load_bins(&dir.join("bins")).unwrap();
        (export_pids(&saved, units), export_pids(&clean, units))
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_drain_names_exactly_the_touched_sources() {
        let dir = temp("names");
        write(&dir, "a", "structure A = struct val x = 1 end");
        let counters = Arc::new(DaemonCounters::default());
        let mut watch = Watch::arm(&dir.join("src"), Arc::clone(&counters));
        assert!(counters.watch_armed.load(Ordering::SeqCst));
        assert_eq!(watch.drain(), Drained::Changed(Vec::new()));
        write(&dir, "a", "structure A = struct val x = 2 end");
        write(&dir, "b", "structure B = struct end");
        std::fs::write(dir.join("src/notes.txt"), b"not a source").unwrap();
        std::fs::rename(dir.join("src/b.sml"), dir.join("src/c.sml")).unwrap();
        let Drained::Changed(mut names) = watch.drain() else {
            panic!("nothing was lost");
        };
        names.sort();
        names.dedup();
        let want: Vec<PathBuf> = ["a.sml", "b.sml", "c.sml"].map(PathBuf::from).into();
        assert_eq!(names, want);
        assert_eq!(watch.drain(), Drained::Changed(Vec::new()), "drained dry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_overflowed_queue_takes_the_counted_rescan_and_rearms() {
        let dir = temp("overflow");
        write(&dir, "a", "structure A = struct fun f x = x + 1 end");
        write(&dir, "b", "structure B = struct val y = A.f 41 end");
        let (r, counters) = watched(&dir);
        r.build(1, FailurePolicy::FailFast).unwrap();
        assert_eq!(r.rescans(), 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct fun f x = x + 2 end");
        overflow(&dir);
        let (snap, cached) = r.build(1, FailurePolicy::FailFast).unwrap();
        assert!(!cached);
        assert_eq!(snap.recompiled, 1, "{}", snap.summary);
        assert_eq!(r.rescans(), 1, "the overflow is one counted rescan");
        assert!(counters.watch_degraded.load(Ordering::SeqCst));
        assert!(counters.watch_armed.load(Ordering::SeqCst), "re-armed");
        let (saved, clean) = pids_vs_clean(&dir, &["a", "b"]);
        assert_eq!(saved, clean);
        // Re-armed: the next edit is an event again, not a rescan.
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "b", "structure B = struct val y = A.f 40 end");
        let (snap, _) = r.build(1, FailurePolicy::FailFast).unwrap();
        assert_eq!(snap.recompiled, 1, "{}", snap.summary);
        assert_eq!(r.rescans(), 1);
        assert!(!counters.watch_degraded.load(Ordering::SeqCst));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn an_injected_watch_fault_takes_the_counted_rescan() {
        let dir = temp("fault");
        write(&dir, "a", "structure A = struct fun f x = x + 1 end");
        write(&dir, "b", "structure B = struct val y = A.f 41 end");
        let (r, counters) = watched(&dir);
        r.build(1, FailurePolicy::FailFast).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct fun f x = x * 2 end");
        let snap = {
            let _faults = install_scoped(FaultPlan::parse("daemon.watch=io*1").unwrap());
            r.build(1, FailurePolicy::FailFast).unwrap().0
        };
        assert_eq!(snap.recompiled, 1, "{}", snap.summary);
        assert!(snap.stats_json.contains(r#""daemon.watch_rescans":1"#));
        assert_eq!(r.rescans(), 1);
        assert_eq!(counters.watch_errors.load(Ordering::SeqCst), 1);
        let (saved, clean) = pids_vs_clean(&dir, &["a", "b"]);
        assert_eq!(saved, clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_moved_project_directory_degrades_to_rescans() {
        let dir = temp("moved");
        write(&dir, "a", "structure A = struct val x = 1 end");
        let (r, counters) = watched(&dir);
        r.build(1, FailurePolicy::FailFast).unwrap();
        // The directory leaves and comes back: the old watch followed
        // the moved inode, so the drain must not trust it.
        std::fs::rename(dir.join("src"), dir.join("away")).unwrap();
        std::fs::rename(dir.join("away"), dir.join("src")).unwrap();
        write(&dir, "a", "structure A = struct val x = 2 end");
        let (snap, _) = r.build(1, FailurePolicy::FailFast).unwrap();
        assert_eq!(snap.recompiled, 1, "{}", snap.summary);
        assert_eq!(r.rescans(), 1);
        assert!(counters.watch_armed.load(Ordering::SeqCst));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn parse_flags_an_overflow_record_as_lost() {
        let event = |mask: u32, name: &[u8]| {
            let mut b = Vec::new();
            b.extend_from_slice(&1i32.to_ne_bytes());
            b.extend_from_slice(&mask.to_ne_bytes());
            b.extend_from_slice(&0u32.to_ne_bytes());
            let padded = name.len().div_ceil(16) * 16;
            b.extend_from_slice(&(padded as u32).to_ne_bytes());
            b.extend_from_slice(name);
            b.resize(b.len() + padded - name.len(), 0);
            b
        };
        let mut names = Vec::new();
        let mut buf = event(0x8, b"a.sml");
        buf.extend(event(0x2, b"b.txt"));
        assert!(parse(&buf, &mut names));
        assert_eq!(names, vec![PathBuf::from("a.sml")]);
        buf.extend(event(0x4000, b""));
        assert!(!parse(&buf, &mut names), "IN_Q_OVERFLOW loses events");
        assert!(!parse(&buf[..20], &mut names), "a torn record is a loss");
    }
}
