//! End-to-end tests of the build daemon through the `smlsc` CLI:
//! `daemon start/stop/status`, transparent dispatch of plain builds to
//! the socket, watcher-driven invalidation, and the fallback contract
//! (a dead or faulted daemon must never fail a build).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

fn smlsc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smlsc"));
    cmd.env_remove("SMLSC_STORE");
    cmd.env_remove("SMLSC_FAULTS");
    cmd
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-daemoncli-{name}-{}", std::process::id()));
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

/// The `--stats` JSON line: the last stdout line starting with `{`.
fn stats_line(stdout: &str) -> String {
    stdout
        .lines()
        .rfind(|l| l.starts_with('{'))
        .unwrap_or_default()
        .to_string()
}

/// Stops the daemon on drop, so a failed assertion never leaks a
/// detached daemon process.
struct DaemonGuard(PathBuf);

impl DaemonGuard {
    fn start(proj: &Path, extra: &[&str]) -> DaemonGuard {
        let out = smlsc()
            .arg("daemon")
            .arg("start")
            .args(extra)
            .arg(proj)
            // A fast watcher poll, so edit tests settle in milliseconds.
            .env("SMLSC_DAEMON_POLL_MS", "20")
            .output()
            .unwrap();
        assert!(out.status.success(), "daemon start failed: {out:?}");
        DaemonGuard(proj.to_path_buf())
    }

    fn stop(&self) -> std::process::Output {
        smlsc()
            .arg("daemon")
            .arg("stop")
            .arg(&self.0)
            .output()
            .unwrap()
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The daemon's pid, read from its lockfile.
fn daemon_pid(proj: &Path) -> u32 {
    std::fs::read_to_string(proj.join(".smlsc-bins/daemon.lock"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn noop_build_over_the_socket_rereads_nothing() {
    let proj = temp("noop");
    write_project(&proj);
    // Warm the caches with a plain in-process build.
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let daemon = DaemonGuard::start(&proj, &[]);
    for round in 0..2 {
        let out = smlsc()
            .args(["build", "--stats"])
            .arg(&proj)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("built 2 unit(s) [cutoff]: 0 recompiled, 2 reused"),
            "round {round}: {stdout}"
        );
        // The daemon never printed the in-process cache-load banner:
        // the request was really served over the socket.
        assert!(!stdout.contains("loaded"), "round {round}: {stdout}");
        let stats = stats_line(&stdout);
        // The telemetry that proves the resident session answered from
        // memory: every rebuild decision was a stamp hit, no source was
        // read, and the pack index was not reloaded (it was loaded once
        // at daemon open, outside this request).
        assert!(
            stats.contains(r#""stamp.hits":2"#),
            "round {round}: {stats}"
        );
        assert!(
            !stats.contains(r#""source.reads""#),
            "round {round}: {stats}"
        );
        assert!(
            !stats.contains(r#""bin.index_only""#),
            "round {round}: {stats}"
        );
        assert!(
            !stats.contains(r#""irm.units_compiled""#),
            "round {round}: {stats}"
        );
    }

    // Both socket builds are in the status counters and ledger-tagged.
    let out = smlsc()
        .arg("daemon")
        .arg("status")
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let status = String::from_utf8_lossy(&out.stdout);
    assert!(status.contains(r#""daemon.requests":"#), "{status}");
    let ledger = std::fs::read_to_string(proj.join(".smlsc-bins/builds.jsonl")).unwrap();
    let daemon_records = ledger
        .lines()
        .filter(|l| l.contains(r#""daemon":1"#))
        .count();
    assert_eq!(daemon_records, 1, "first socket build appends one daemon-tagged record; the no-change repeat is snapshot-served: {ledger}");

    let out = daemon.stop();
    assert!(out.status.success(), "{out:?}");
    assert!(
        !proj.join(".smlsc-bins/daemon.sock").exists(),
        "stop releases the socket"
    );
    assert!(
        !proj.join(".smlsc-bins/daemon.lock").exists(),
        "stop releases the lock"
    );
}

#[test]
fn watched_leaf_edit_recompiles_exactly_one_unit() {
    let proj = temp("watch");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let _daemon = DaemonGuard::start(&proj, &[]);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // Edit the leaf; the watcher (20ms poll, two settled ticks) feeds
    // the delta into the resident session.
    std::fs::write(
        proj.join("a.sml"),
        "structure A = struct fun f x = x + 2 end",
    )
    .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut status = String::new();
    while std::time::Instant::now() < deadline {
        let out = smlsc()
            .arg("daemon")
            .arg("status")
            .arg(&proj)
            .output()
            .unwrap();
        status = String::from_utf8_lossy(&out.stdout).to_string();
        if status.contains(r#""daemon.invalidations":1"#) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        status.contains(r#""daemon.invalidations":1"#),
        "watcher applied the one-leaf delta: {status}"
    );

    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("built 2 unit(s) [cutoff]: 1 recompiled, 1 reused"),
        "{stdout}"
    );
    let stats = stats_line(&stdout);
    // Exactly the edited source was read; the untouched unit's rebuild
    // decision came from its stamp, and the cutoff kept it unbuilt.
    assert!(stats.contains(r#""source.reads":1"#), "{stats}");
    assert!(stats.contains(r#""stamp.hits":1"#), "{stats}");
    assert!(stats.contains(r#""irm.cutoff_hits":1"#), "{stats}");
}

#[test]
fn killed_daemon_is_restarted_once_and_serves_the_build() {
    let proj = temp("killed");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let daemon = DaemonGuard::start(&proj, &[]);
    let pid = daemon_pid(&proj);
    // SIGKILL: no cleanup runs, so the socket and lockfile both linger
    // — exactly the state a client sees when a daemon dies mid-request.
    let killed = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    assert!(proj.join(".smlsc-bins/daemon.sock").exists());

    // The dispatch path finds the stale socket, sees the lockfile owner
    // is dead, restarts the daemon once, and the retried request is
    // served over the new socket — no in-process cache-load banner.
    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "restarted build must succeed: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("built 2 unit(s) [cutoff]: 0 recompiled, 2 reused"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("loaded"),
        "served by the restarted daemon, not in-process: {stdout}"
    );
    let new_pid = daemon_pid(&proj);
    assert_ne!(new_pid, pid, "restart wrote a fresh lockfile");

    let out = daemon.stop();
    assert!(out.status.success(), "{out:?}");
    assert!(
        !proj.join(".smlsc-bins/daemon.sock").exists(),
        "stop reaches the restarted daemon"
    );
}

#[test]
fn stale_socket_without_dir_context_still_falls_back_in_process() {
    // Same stale-socket debris, but dispatched with `--no-daemon`:
    // the in-process path must still work with the corpse in place.
    let proj = temp("stale-fallback");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::write(proj.join(".smlsc-bins/daemon.sock"), b"stale").unwrap();
    std::fs::write(
        proj.join(".smlsc-bins/daemon.lock"),
        format!("{}\n", u32::MAX),
    )
    .unwrap();
    let out = smlsc()
        .args(["build", "--no-daemon"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("loaded 2 cached bin(s)"), "{stdout}");
}

#[test]
fn accept_fault_drops_the_connection_and_the_client_falls_back() {
    let proj = temp("accept-fault");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // The first accepted connection is dropped before its first frame
    // (`*1`: one fire, so the guard's later `stop` still gets through).
    let _daemon = DaemonGuard::start(&proj, &["--inject-faults", "daemon.accept=io*1"]);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "fallback build must succeed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("loaded 2 cached bin(s)"),
        "served in-process after the drop: {stdout}"
    );
    assert!(stdout.contains("0 recompiled, 2 reused"), "{stdout}");
}

#[test]
fn stop_is_idempotent_and_status_reports_a_missing_daemon() {
    let proj = temp("verbs");
    write_project(&proj);
    let out = smlsc()
        .arg("daemon")
        .arg("stop")
        .arg(&proj)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stop without a daemon exits 0: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("daemon not running"), "{stdout}");

    let out = smlsc()
        .arg("daemon")
        .arg("status")
        .arg(&proj)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let daemon = DaemonGuard::start(&proj, &[]);
    let out = smlsc()
        .arg("daemon")
        .arg("status")
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let status = String::from_utf8_lossy(&out.stdout);
    assert!(status.contains(r#""protocol":2"#), "{status}");
    assert!(status.contains(r#""units":2"#), "{status}");
    // Watcher health and the generation pair are part of status.
    assert!(status.contains(r#""watch_healthy":true"#), "{status}");
    assert!(status.contains(r#""generation":"#), "{status}");
    assert!(status.contains(r#""last_build_generation":"#), "{status}");

    let out = daemon.stop();
    assert!(out.status.success(), "{out:?}");
    let out = daemon.stop();
    assert!(out.status.success(), "second stop still exits 0: {out:?}");
}

#[test]
fn no_daemon_flag_builds_in_process_despite_a_live_daemon() {
    let proj = temp("optout");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let _daemon = DaemonGuard::start(&proj, &[]);
    let out = smlsc()
        .args(["build", "--no-daemon"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("loaded 2 cached bin(s)"),
        "--no-daemon stays in-process: {stdout}"
    );
}

#[test]
fn daemon_build_reports_the_corrupt_bins_it_opened() {
    let proj = temp("corrupt-pack");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    // A pack with the current magic and nothing valid behind it.
    std::fs::write(
        proj.join(".smlsc-bins/bins.pack"),
        b"SMLSPAK3 then garbage bytes",
    )
    .unwrap();

    let _daemon = DaemonGuard::start(&proj, &[]);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: ignoring corrupt bin") && stderr.contains("bins.pack"),
        "the daemon's first build carries the notes of its open: {stderr}"
    );
    assert!(
        stdout.contains("built 2 unit(s) [cutoff]: 2 recompiled, 0 reused"),
        "{stdout}"
    );
    let ledger = std::fs::read_to_string(proj.join(".smlsc-bins/builds.jsonl")).unwrap();
    assert_eq!(
        ledger
            .lines()
            .filter(|l| l.contains(r#""daemon":1"#))
            .count(),
        1,
        "served by the daemon, not in-process: {ledger}"
    );
}

#[test]
fn keep_going_build_prints_the_same_in_process_and_over_the_socket() {
    let proj = temp("parity");
    // One unit that fails to elaborate, one dependent that is skipped,
    // and one unit that compiles with a warning.
    std::fs::write(
        proj.join("a.sml"),
        r#"structure A = struct val x = 1 + "s" end"#,
    )
    .unwrap();
    std::fs::write(proj.join("b.sml"), "structure B = struct val y = A.x end").unwrap();
    std::fs::write(
        proj.join("c.sml"),
        "structure C = struct fun hd (x :: _) = x end",
    )
    .unwrap();
    let build = |extra: &[&str]| {
        let out = smlsc()
            .args(["build", "-k", "--explain"])
            .args(extra)
            .arg(&proj)
            .output()
            .unwrap();
        let stdout: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("loaded "))
            .map(str::to_string)
            .collect();
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        (out.status.code(), stdout, stderr)
    };

    let in_process = build(&["--no-daemon"]);
    // The daemon starts from the same (empty) bin dir.
    std::fs::remove_dir_all(proj.join(".smlsc-bins")).unwrap();
    let _daemon = DaemonGuard::start(&proj, &[]);
    let served = build(&[]);
    assert_eq!(in_process, served);

    let (code, stdout, stderr) = served;
    assert_eq!(code, Some(1));
    assert!(
        stdout[0].contains("1 recompiled, 0 reused, 1 failed, 1 skipped"),
        "{stdout:?}"
    );
    assert!(
        stdout
            .iter()
            .any(|l| l.contains("b: skipped: blocked on failed import(s) `a`")),
        "{stdout:?}"
    );
    for needle in ["c: warning", "error: unit `a`", "skipped `b`"] {
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
    let ledger = std::fs::read_to_string(proj.join(".smlsc-bins/builds.jsonl")).unwrap();
    assert!(ledger.contains(r#""daemon":1"#), "{ledger}");
}
