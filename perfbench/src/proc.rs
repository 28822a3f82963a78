//! Child processes: spawn `smlsc`, time it, and read its peak memory
//! from the kernel.
//!
//! The standard library's `Child::wait` drops the rusage the kernel
//! returns, so the benchmark reaps its children with `wait4(2)` itself.
//! It also marks itself a child subreaper, so the detached daemon that
//! `smlsc daemon start` leaves behind is re-parented to the benchmark
//! and can be reaped (and its peak RSS read) when it stops.

use std::ffi::OsStr;
use std::io::Read;
use std::os::raw::{c_int, c_long, c_ulong};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs
/// of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn sync();
}

const PR_SET_CHILD_SUBREAPER: c_int = 36;
const WNOHANG: c_int = 1;

/// Makes orphaned descendants (the daemon) re-parent to this process.
pub fn become_subreaper() -> std::io::Result<()> {
    // SAFETY: prctl(PR_SET_CHILD_SUBREAPER, 1) takes no pointers and
    // only changes a flag on the calling process.
    let rc = unsafe { prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Flushes every dirty page to disk, so writeback left over from one
/// phase (generating 20,000 files, deleting a tree) does not stall the
/// fsyncs of the next phase's timed builds.
pub fn flush_disks() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// How a reaped process ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or 128 + signal number when it was killed.
    pub code: i32,
    /// Peak resident set size, kilobytes.
    pub maxrss_kb: u64,
}

/// Reaps `pid` (blocking unless `nohang`).  `None` with `nohang` means
/// it is still running.
fn reap(pid: u32, nohang: bool) -> std::io::Result<Option<Exit>> {
    let pid = c_int::try_from(pid).map_err(|_| std::io::Error::other("pid out of range"))?;
    loop {
        let mut status: c_int = 0;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: both pointers refer to live, writable locals of the
        // exact C layout `wait4` fills in.
        let rc = unsafe {
            wait4(
                pid,
                &mut status,
                if nohang { WNOHANG } else { 0 },
                &mut usage,
            )
        };
        if rc == pid {
            let code = if status & 0x7f == 0 {
                (status >> 8) & 0xff
            } else {
                128 + (status & 0x7f)
            };
            return Ok(Some(Exit {
                code,
                maxrss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
            }));
        }
        if rc == 0 {
            return Ok(None);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One finished `smlsc` invocation.
#[derive(Debug)]
pub struct Run {
    /// Spawn to reap.
    pub wall: Duration,
    pub exit: Exit,
    pub stdout: String,
}

/// Runs `smlsc` with `args` to completion.  Stderr passes through.
pub fn smlsc<S: AsRef<OsStr>>(exe: &Path, args: &[S]) -> std::io::Result<Run> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let exit = reap(child.id(), false)?.expect("blocking wait4 returns an exit");
    let wall = start.elapsed();
    read?;
    Ok(Run { wall, exit, stdout })
}

/// Peak resident set size of a live process, kilobytes (`VmHWM`).
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Waits up to `limit` for the re-parented process `pid` to exit, then
/// kills it; either way it is reaped before this returns.
pub fn reap_orphan(pid: u32, limit: Duration) -> std::io::Result<Exit> {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if let Some(exit) = reap(pid, true)? {
            return Ok(exit);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .status()?;
    Ok(reap(pid, false)?.expect("blocking wait4 returns an exit"))
}
