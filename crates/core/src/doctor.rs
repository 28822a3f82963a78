//! `smlsc doctor`: audit and repair every kind of durable build state.
//!
//! A build that is killed at an arbitrary instant — power loss, OOM
//! kill, `kill -9` — may leave half-finished state behind: staging-file
//! litter from interrupted atomic commits, a torn tail on the
//! append-only ledger, a truncated pack, partially published store
//! objects, or a daemon lockfile whose owner is dead.  Every reader in
//! smlsc already *tolerates* such debris (loads degrade to empty,
//! torn tails are healed on the next append, bad pack bodies force a
//! recompile), but tolerance is silent.  The doctor makes the debris
//! visible and, with `--fix`, removes it:
//!
//! | state               | audit                                   | repair                         |
//! |---------------------|-----------------------------------------|--------------------------------|
//! | `bins.pack`         | segment walk (index, stamp and graph    | rewrite keeping valid bodies,  |
//! |                     | sections), per-body digest              | stamps and graph               |
//! | `bins.pack` tail    | bytes after the last valid segment      | truncate to the valid end      |
//! | `bins.pack.lock`    | lockfile pid liveness                   | remove stale lock              |
//! | `builds.jsonl`      | [`Ledger::audit`]                       | [`Ledger::compact_valid`]      |
//! | CAS store           | [`Store::verify`] + `tmp/` litter scan  | quarantine + sweep litter      |
//! | daemon sock + lock  | lockfile pid liveness                   | remove stale sock + lock       |
//! | bin-dir tmp litter  | [`fsutil::is_tmp_litter`] names         | delete                         |
//!
//! The store audit *is* [`Store::verify`] — the same implementation
//! behind `smlsc cache verify` — so the two commands can never
//! disagree about what "corrupt" means.  Note that `verify` always
//! quarantines what it finds (quarantining is non-destructive; `gc`
//! purges the quarantine later), so store findings are reported as
//! repaired even without `--fix`.
//!
//! The report is machine-readable JSON; [`DoctorReport::exit_code`]
//! maps the verdict onto the CLI's exit-code contract: `0` healthy or
//! fully repaired, `4` issues found without `--fix`, `3` a repair
//! failed.

use std::path::{Path, PathBuf};
use std::time::Duration;

use serde::Serialize;

use crate::ledger::Ledger;
use crate::pack::{self, PackReader, PackWriter, PACK_FILE};
use crate::CoreError;
use smlsc_store::{fsutil, Store};

/// Mirror of the daemon crate's socket filename (`smlsc-daemon`
/// depends on this crate, so the constant cannot be imported).
const DAEMON_SOCKET_FILE: &str = "daemon.sock";
/// Mirror of the daemon crate's lockfile name.
const DAEMON_LOCK_FILE: &str = "daemon.lock";

/// What `smlsc doctor` should look at and whether it may write.
#[derive(Debug, Clone)]
pub struct DoctorOptions {
    /// The project's bin directory (pack, ledger, daemon files).
    pub bin_dir: PathBuf,
    /// The CAS store root, when the project uses one.
    pub store: Option<PathBuf>,
    /// Repair what the audit finds instead of only reporting it.
    pub fix: bool,
}

/// One problem the audit found, and what happened to it.
#[derive(Debug, Clone, Serialize)]
pub struct DoctorFinding {
    /// Which state kind: `pack`, `ledger`, `store`, `daemon`, or
    /// `litter`.
    pub state: String,
    /// The file or object involved.
    pub path: String,
    /// What is wrong.
    pub issue: String,
    /// The repair taken (or the one `--fix` would take).
    pub action: String,
    /// Whether the repair ran and succeeded.
    pub repaired: bool,
    /// Set when a repair was attempted and failed.
    pub error: Option<String>,
}

/// The overall outcome of a doctor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoctorVerdict {
    /// Every state kind is sound.
    Healthy,
    /// Problems were found and every one was repaired.
    Repaired,
    /// Problems were found and left in place (no `--fix`).
    IssuesFound,
    /// At least one repair was attempted and failed.
    RepairFailed,
}

impl DoctorVerdict {
    /// The verdict's wire name, as emitted in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            DoctorVerdict::Healthy => "healthy",
            DoctorVerdict::Repaired => "repaired",
            DoctorVerdict::IssuesFound => "issues-found",
            DoctorVerdict::RepairFailed => "repair-failed",
        }
    }
}

/// The machine-readable result of a doctor run.
#[derive(Debug, Clone, Serialize)]
pub struct DoctorReport {
    /// Whether repairs were enabled.
    pub fix: bool,
    /// The bin directory audited.
    pub bin_dir: String,
    /// The store root audited, if any.
    pub store: Option<String>,
    /// State kinds that were audited.
    pub checked: Vec<String>,
    /// Everything the audit found.
    pub findings: Vec<DoctorFinding>,
    /// The verdict's wire name (see [`DoctorVerdict::as_str`]).
    pub verdict: String,
    /// The CLI exit code for this verdict.
    pub exit_code: i32,
}

impl DoctorReport {
    /// The typed verdict (the JSON carries its wire name).
    pub fn verdict(&self) -> DoctorVerdict {
        match self.verdict.as_str() {
            "healthy" => DoctorVerdict::Healthy,
            "repaired" => DoctorVerdict::Repaired,
            "issues-found" => DoctorVerdict::IssuesFound,
            _ => DoctorVerdict::RepairFailed,
        }
    }

    /// Exit code: `0` healthy/repaired, `4` issues without `--fix`,
    /// `3` repair failed.
    pub fn exit_code(&self) -> i32 {
        self.exit_code
    }

    /// The report as a single line of JSON (the vendored serde_json
    /// serializes compactly), for `smlsc doctor` output and scripts.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".into())
    }
}

/// Runs the full audit (and repairs, when `opts.fix`) over every state
/// kind in `opts.bin_dir` and `opts.store`.
pub fn run(opts: &DoctorOptions) -> DoctorReport {
    let mut findings = Vec::new();
    let mut checked = Vec::new();

    checked.push("pack".to_string());
    audit_pack(&opts.bin_dir, opts.fix, &mut findings);
    checked.push("ledger".to_string());
    audit_ledger(&opts.bin_dir, opts.fix, &mut findings);
    if let Some(root) = &opts.store {
        checked.push("store".to_string());
        audit_store(root, opts.fix, &mut findings);
    }
    checked.push("daemon".to_string());
    audit_daemon(&opts.bin_dir, opts.fix, &mut findings);
    checked.push("litter".to_string());
    audit_litter(&opts.bin_dir, opts.fix, &mut findings);

    let verdict = if findings.is_empty() {
        DoctorVerdict::Healthy
    } else if findings.iter().any(|f| f.error.is_some()) {
        DoctorVerdict::RepairFailed
    } else if findings.iter().all(|f| f.repaired) {
        DoctorVerdict::Repaired
    } else if opts.fix {
        DoctorVerdict::RepairFailed
    } else {
        DoctorVerdict::IssuesFound
    };
    let exit_code = match verdict {
        DoctorVerdict::Healthy | DoctorVerdict::Repaired => 0,
        DoctorVerdict::IssuesFound => 4,
        DoctorVerdict::RepairFailed => 3,
    };
    DoctorReport {
        fix: opts.fix,
        bin_dir: opts.bin_dir.display().to_string(),
        store: opts.store.as_ref().map(|p| p.display().to_string()),
        checked,
        findings,
        verdict: verdict.as_str().to_string(),
        exit_code,
    }
}

fn finding(
    state: &str,
    path: &Path,
    issue: impl Into<String>,
    action: impl Into<String>,
) -> DoctorFinding {
    DoctorFinding {
        state: state.into(),
        path: path.display().to_string(),
        issue: issue.into(),
        action: action.into(),
        repaired: false,
        error: None,
    }
}

/// Applies `repair` when `fix` is set and records the outcome.
fn apply_fix(
    mut f: DoctorFinding,
    fix: bool,
    repair: impl FnOnce() -> Result<(), String>,
) -> DoctorFinding {
    if fix {
        match repair() {
            Ok(()) => f.repaired = true,
            Err(e) => f.error = Some(e),
        }
    }
    f
}

/// A pack lock whose owner is dead is removed.  An unreadable pack (no
/// valid first segment) is quarantined aside (`.corrupt`); a torn tail
/// left by an interrupted append — or a later segment whose index,
/// stamp or graph section fails its digest or decode — is truncated
/// away (stamps are hints and the graph is derived state: the next
/// build re-digests or re-derives what the cut segments held); a pack
/// whose segments are fine but with bodies failing their digests is
/// rewritten (under the pack lock) keeping only the valid entries, its
/// stamps and its graph, so the next build recompiles exactly the lost
/// units.
fn audit_pack(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let path = bin_dir.join(PACK_FILE);
    let lock = pack::lock_path(&path);
    if let Some(issue) = stale_lock(&lock) {
        let f = finding("pack", &lock, issue, "remove stale pack lock");
        findings.push(apply_fix(f, fix, || {
            std::fs::remove_file(&lock).map_err(|e| e.to_string())
        }));
    }
    match PackReader::open(&path) {
        Ok(None) => {}
        Err(e) => {
            let f = finding(
                "pack",
                &path,
                format!("unreadable pack: {e}"),
                "move aside to bins.pack.corrupt (next build recompiles all)",
            );
            findings.push(apply_fix(f, fix, || {
                std::fs::rename(&path, path.with_extension("pack.corrupt"))
                    .map_err(|e| e.to_string())
            }));
        }
        Ok(Some(reader)) => {
            if reader.torn_tail() > 0 {
                let f = finding(
                    "pack",
                    &path,
                    format!(
                        "torn tail: {} bytes after the last valid segment (interrupted append)",
                        reader.torn_tail()
                    ),
                    format!(
                        "truncate to the valid end ({} bytes)",
                        reader.tail().valid_end()
                    ),
                );
                findings.push(apply_fix(f, fix, || {
                    pack::truncate_torn_tail(&path).map_err(|e| e.to_string())
                }));
            }
            let mut bad = Vec::new();
            let mut good = Vec::new();
            for entry in reader.entries() {
                match reader.read_body(entry.offset, entry.len, entry.digest) {
                    Ok(body) => good.push((entry.clone(), body)),
                    Err(detail) => bad.push((entry.name, detail)),
                }
            }
            if bad.is_empty() {
                return;
            }
            let issue = format!(
                "{} of {} bodies fail digest verification: {}",
                bad.len(),
                reader.entries().len(),
                bad.iter()
                    .map(|(n, _)| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let f = finding(
                "pack",
                &path,
                issue,
                format!("rewrite pack keeping {} valid bodies", good.len()),
            );
            findings.push(apply_fix(f, fix, || {
                rewrite_pack(&path, &reader, &good).map_err(|e| e.to_string())
            }));
        }
    }
}

/// Rewrites the pack keeping only `good` bodies and `reader`'s stamps
/// and graph, under the pack lock like every other pack writer.
fn rewrite_pack(
    path: &Path,
    reader: &PackReader,
    good: &[(crate::pack::PackEntry, Vec<u8>)],
) -> Result<(), CoreError> {
    let mut w = PackWriter::create(path)?;
    for (entry, body) in good {
        w.add(&entry.meta(), body, entry.digest)?;
    }
    let stamps = reader.stamps().encode_section(true, w.saved_at());
    let graph = reader.graph().map(|g| g.encode());
    w.finish_with(stamps.as_deref(), graph.as_deref())?;
    Ok(())
}

/// The ledger's own audit/compact pair does all the work here.
fn audit_ledger(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let ledger = Ledger::for_bin_dir(bin_dir);
    let audit = ledger.audit();
    if audit.is_healthy() {
        return;
    }
    let issue = format!(
        "{} of {} lines invalid{}",
        audit.lines - audit.valid,
        audit.lines,
        if audit.torn_tail { " (torn tail)" } else { "" }
    );
    let f = finding(
        "ledger",
        ledger.path(),
        issue,
        "compact to valid records only",
    );
    findings.push(apply_fix(f, fix, || {
        ledger
            .compact_valid()
            .map(|_| ())
            .map_err(|e| e.to_string())
    }));
}

/// Shared with `smlsc cache verify`: [`Store::verify`] checks every
/// object and quarantines failures (non-destructive, reversible until
/// `gc`), so corrupt objects count as repaired even without `--fix`.
/// Staging litter in `tmp/` is additionally swept under `--fix`.
fn audit_store(root: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let store = match Store::open(root) {
        Ok(s) => s,
        Err(e) => {
            findings.push(finding(
                "store",
                root,
                format!("store cannot be opened: {e}"),
                "manual intervention (root unusable)",
            ));
            return;
        }
    };
    match store.verify() {
        Ok(report) => {
            if !report.corrupt.is_empty() {
                let mut f = finding(
                    "store",
                    root,
                    format!(
                        "{} of {} objects corrupt: {}",
                        report.corrupt.len(),
                        report.checked,
                        report.corrupt.join(", ")
                    ),
                    "quarantined by verify",
                );
                f.repaired = true;
                findings.push(f);
            }
        }
        Err(e) => findings.push(finding(
            "store",
            root,
            format!("verify failed: {e}"),
            "manual intervention",
        )),
    }
    let tmp_dir = root.join("tmp");
    let litter = std::fs::read_dir(&tmp_dir)
        .map(|r| r.flatten().count())
        .unwrap_or(0);
    if litter > 0 {
        let f = finding(
            "store",
            &tmp_dir,
            format!("{litter} staging files left by interrupted publishes"),
            "sweep tmp litter",
        );
        findings.push(apply_fix(f, fix, || {
            store
                .sweep_tmp(Duration::ZERO)
                .map(|_| ())
                .map_err(|e| e.to_string())
        }));
    }
}

/// A socket or lockfile whose recorded owner is dead will never serve
/// again; clearing both lets the next `daemon start` come up cleanly.
/// A live owner is healthy and left alone.
fn audit_daemon(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let lock = bin_dir.join(DAEMON_LOCK_FILE);
    let sock = bin_dir.join(DAEMON_SOCKET_FILE);
    if let Some(issue) = stale_lock(&lock) {
        let f = finding("daemon", &lock, issue, "remove stale lockfile and socket");
        findings.push(apply_fix(f, fix, || {
            std::fs::remove_file(&lock).map_err(|e| e.to_string())?;
            std::fs::remove_file(&sock).ok();
            Ok(())
        }));
    } else if sock.exists() && !lock.exists() {
        let f = finding(
            "daemon",
            &sock,
            "socket exists with no lockfile (daemon died before cleanup)",
            "remove stale socket",
        );
        findings.push(apply_fix(f, fix, || {
            std::fs::remove_file(&sock).map_err(|e| e.to_string())
        }));
    }
}

/// Why the lockfile at `lock` is stale — it exists but names no live
/// owner — or `None` when it is absent or held.
fn stale_lock(lock: &Path) -> Option<String> {
    if !lock.exists() {
        return None;
    }
    match fsutil::owner(lock) {
        Some(pid) if fsutil::pid_alive(pid) => None,
        Some(pid) => Some(format!("lockfile names dead pid {pid}")),
        None => Some("lockfile holds no parseable pid".to_string()),
    }
}

/// Staging files (`*.tmp-<pid>-<seq>`) in the bin directory are debris
/// from atomic commits interrupted between write and rename.
fn audit_litter(bin_dir: &Path, fix: bool, findings: &mut Vec<DoctorFinding>) {
    let Ok(entries) = std::fs::read_dir(bin_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if fsutil::is_tmp_litter(name) {
            let path = entry.path();
            let f = finding(
                "litter",
                &path,
                "staging file left by an interrupted commit",
                "delete",
            );
            findings.push(apply_fix(f, fix, || {
                std::fs::remove_file(&path).map_err(|e| e.to_string())
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smlsc-doctor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts(dir: &Path, fix: bool) -> DoctorOptions {
        DoctorOptions {
            bin_dir: dir.to_path_buf(),
            store: None,
            fix,
        }
    }

    #[test]
    fn empty_bin_dir_is_healthy() {
        let dir = temp("healthy");
        let report = run(&opts(&dir, false));
        assert_eq!(report.verdict(), DoctorVerdict::Healthy);
        assert_eq!(report.exit_code(), 0);
        assert!(report.findings.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_state_is_reported_then_repaired() {
        let dir = temp("repair");
        // Torn ledger tail.
        std::fs::write(dir.join("builds.jsonl"), b"{\"v\":9,\"truncated").unwrap();
        // Commit litter.
        std::fs::write(dir.join("bins.tmp-1-1"), b"half").unwrap();
        // Stale daemon lock + socket for a certainly-dead pid.
        std::fs::write(dir.join("daemon.lock"), format!("{}\n", u32::MAX)).unwrap();
        std::fs::write(dir.join("daemon.sock"), b"").unwrap();
        // A pack lock left by a writer that died mid-save.
        std::fs::write(dir.join("bins.pack.lock"), format!("{}\n", u32::MAX)).unwrap();

        let report = run(&opts(&dir, false));
        assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
        assert_eq!(report.exit_code(), 4);
        let states: Vec<&str> = report.findings.iter().map(|f| f.state.as_str()).collect();
        for want in ["pack", "ledger", "daemon", "litter"] {
            assert!(states.contains(&want), "missing finding for {want}");
        }
        // The report is valid JSON naming the verdict.
        assert!(report.to_json().contains("issues-found"));

        let fixed = run(&opts(&dir, true));
        assert_eq!(fixed.verdict(), DoctorVerdict::Repaired);
        assert_eq!(fixed.exit_code(), 0);
        assert!(fixed.findings.iter().all(|f| f.repaired));

        // Everything is clean now.
        let clean = run(&opts(&dir, false));
        assert_eq!(clean.verdict(), DoctorVerdict::Healthy);
        assert!(!dir.join("daemon.lock").exists());
        assert!(!dir.join("daemon.sock").exists());
        assert!(!dir.join("bins.pack.lock").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_daemon_lock_is_left_alone() {
        let dir = temp("livelock");
        // Our own pid is alive.
        std::fs::write(dir.join("daemon.lock"), format!("{}\n", std::process::id())).unwrap();
        std::fs::write(
            dir.join("bins.pack.lock"),
            format!("{}\n", std::process::id()),
        )
        .unwrap();
        let report = run(&opts(&dir, true));
        assert_eq!(report.verdict(), DoctorVerdict::Healthy);
        assert!(dir.join("daemon.lock").exists());
        assert!(
            dir.join("bins.pack.lock").exists(),
            "a live writer's pack lock is kept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
