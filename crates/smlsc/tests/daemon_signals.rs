//! Graceful daemon shutdown on SIGTERM/SIGINT: the socket and
//! lockfile are released (no stale debris for the next acquire or
//! `smlsc doctor`), and an in-flight build is drained — its client
//! gets a real response, not a dropped connection.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn smlsc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smlsc"));
    cmd.env_remove("SMLSC_STORE");
    cmd.env_remove("SMLSC_FAULTS");
    cmd
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-daemonsig-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_project(dir: &Path) {
    std::fs::write(
        dir.join("a.sml"),
        "structure A = struct fun f x = x + 1 end",
    )
    .unwrap();
    std::fs::write(dir.join("b.sml"), "structure B = struct val y = A.f 41 end").unwrap();
}

fn start_daemon(proj: &Path, extra: &[&str]) -> u32 {
    let out = smlsc()
        .arg("daemon")
        .arg("start")
        .args(extra)
        .arg(proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "daemon start failed: {out:?}");
    std::fs::read_to_string(proj.join(".smlsc-bins/daemon.lock"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

fn signal_pid(pid: u32, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill {sig} {pid} failed");
}

/// Waits until both daemon files are gone, panicking with state on
/// timeout.
fn wait_released(proj: &Path, within: Duration) {
    let socket = proj.join(".smlsc-bins/daemon.sock");
    let lock = proj.join(".smlsc-bins/daemon.lock");
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        if !socket.exists() && !lock.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!(
        "daemon did not release its files: socket={} lock={}",
        socket.exists(),
        lock.exists()
    );
}

#[test]
fn sigterm_releases_socket_and_lockfile() {
    let proj = temp("sigterm");
    write_project(&proj);
    let pid = start_daemon(&proj, &[]);
    signal_pid(pid, "-TERM");
    wait_released(&proj, Duration::from_secs(10));
}

#[test]
fn sigint_releases_socket_and_lockfile() {
    let proj = temp("sigint");
    write_project(&proj);
    let pid = start_daemon(&proj, &[]);
    signal_pid(pid, "-INT");
    wait_released(&proj, Duration::from_secs(10));
}

#[test]
fn sigterm_mid_build_drains_the_in_flight_request() {
    let proj = temp("inflight");
    write_project(&proj);
    // Every compile in the daemon is slowed by 300ms, so a cold build
    // of two units is reliably still running when the signal lands.
    let pid = start_daemon(&proj, &["--inject-faults", "compile.unit=delay:300"]);

    let proj_clone = proj.clone();
    let client =
        std::thread::spawn(move || smlsc().arg("build").arg(&proj_clone).output().unwrap());
    // Let the request reach the daemon and start compiling.
    std::thread::sleep(Duration::from_millis(150));
    signal_pid(pid, "-TERM");

    // The drain keeps the socket alive until the handler answers: the
    // client's build completes (served by the daemon, so no in-process
    // cache-load banner) instead of seeing a dropped connection.
    let out = client.join().unwrap();
    assert!(
        out.status.success(),
        "in-flight build must complete: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("built 2 unit(s)"),
        "daemon answered the in-flight build: {stdout}"
    );
    wait_released(&proj, Duration::from_secs(10));
}
