//! Crash-consistency harness: kill `smlsc` with a real `abort()` at
//! every registered durable-write crash point, then prove full
//! recovery.
//!
//! Each case runs the CLI as a subprocess with an injected
//! `<point>=crash(<stage>)` fault (see `smlsc_faults`), so the process
//! dies exactly as a power cut would: mid-stage, with tmp files,
//! half-renamed packs, or torn ledger lines on disk.  The recovery
//! property asserted for every point and stage:
//!
//! 1. the crashed run really aborted at the injected point (SIGABRT,
//!    marker on stderr);
//! 2. the next plain build succeeds with exit 0 — no manual cleanup;
//! 3. its artifacts are bit-identical to a never-crashed build of the
//!    same sources (pack entry set and body bytes);
//! 4. `smlsc doctor --fix` then reports exit 0 and a follow-up audit
//!    is fully healthy — no debris survives.
//!
//! Workloads are seeded monorepo graphs at N ∈ {50, 200} from
//! `smlsc-workload`, written to disk as real `*.sml` trees.

use std::path::{Path, PathBuf};
use std::process::Command;

use smlsc::core::pack::PackReader;
use smlsc::core::BinFile;
use smlsc::workload::{EditKind, Topology, Workload, WorkloadSpec};

fn smlsc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smlsc"));
    cmd.env_remove("SMLSC_STORE");
    cmd.env_remove("SMLSC_FAULTS");
    cmd
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-crashrec-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a seeded monorepo workload to `dir` as one `*.sml` file per
/// module.  The same `(units, seed)` always produces byte-identical
/// sources, so two directories seeded alike are buildable references
/// for each other.
fn seed_project(dir: &Path, units: usize) {
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed: 7,
    }));
    for f in w.project().files() {
        std::fs::write(dir.join(format!("{}.sml", f.name)), f.read_text().unwrap()).unwrap();
    }
}

fn build(dir: &Path, store: Option<&Path>, faults: Option<&str>) -> std::process::Output {
    let mut cmd = smlsc();
    cmd.arg("build").arg("--no-daemon");
    if let Some(s) = store {
        cmd.arg("--store").arg(s);
    }
    if let Some(f) = faults {
        cmd.arg("--inject-faults").arg(f);
    }
    cmd.arg(dir);
    cmd.output().unwrap()
}

/// The durable artifact state of a bin dir: every pack entry's identity
/// and its canonical body bytes, sorted by unit name.  Bodies are
/// compared in the store's canonical mtime-zero form — identical
/// compiles are bit-identical once the per-compile virtual mtime is
/// zeroed, which is exactly the normalization `store.publish` uses.
type Fingerprint = Vec<(String, String, String, Vec<u8>)>;

fn fingerprint(bin_dir: &Path) -> Fingerprint {
    let pack = PackReader::open(&bin_dir.join("bins.pack"))
        .expect("pack readable")
        .expect("pack present after a successful build");
    let mut rows: Fingerprint = pack
        .entries()
        .iter()
        .map(|e| {
            // `read_body` verifies the digest before returning bytes,
            // so a torn pack fails loudly here rather than producing a
            // bogus "match".
            let body = pack
                .read_body(e.offset, e.len, e.digest)
                .unwrap_or_else(|err| panic!("body of {} unreadable: {err}", e.name));
            let mut bin = BinFile::from_bytes(&body)
                .unwrap_or_else(|err| panic!("body of {} unparseable: {err}", e.name));
            bin.mtime = 0;
            (
                e.name.to_string(),
                format!("{:?}", e.source_pid),
                format!("{:?}", e.export_pid),
                bin.to_bytes(),
            )
        })
        .collect();
    rows.sort();
    rows
}

fn doctor(dir: &Path, store: Option<&Path>, fix: bool) -> std::process::Output {
    let mut cmd = smlsc();
    cmd.arg("doctor");
    if fix {
        cmd.arg("--fix");
    }
    if let Some(s) = store {
        cmd.arg("--store").arg(s);
    }
    cmd.arg(dir);
    cmd.output().unwrap()
}

/// The crash-recovery property for one `(point, stage)` crash rule.
fn crash_then_recover(
    tag: &str,
    units: usize,
    rule: &str,
    with_store: bool,
    reference: &Fingerprint,
) {
    let proj = temp(tag);
    seed_project(&proj, units);
    let store_dir = proj.join("_store");
    let store = with_store.then_some(store_dir.as_path());

    // The crashed run: the injected fault aborts the process at the
    // exact durable-write stage named by the rule.
    let out = build(&proj, store, Some(rule));
    assert!(
        out.status.code().is_none(),
        "{rule}: expected an abort (killed by signal), got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("injected fault: crash at"),
        "{rule}: abort must come from the injected crash point, stderr: {stderr}"
    );

    // Recovery: a plain build on the crashed state succeeds and lands
    // in exactly the state a never-crashed build produces.
    let out = build(&proj, store, None);
    assert!(
        out.status.success(),
        "{rule}: recovery build failed: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("built {units} unit(s)")),
        "{rule}: recovery build summary wrong: {stdout}"
    );
    let recovered = fingerprint(&proj.join(".smlsc-bins"));
    assert_eq!(
        &recovered, reference,
        "{rule}: recovered artifacts differ from a clean build"
    );

    // Self-healing: `doctor --fix` clears any crash debris (tmp litter,
    // torn ledger tail) and a follow-up audit is fully healthy.
    let out = doctor(&proj, store, true);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{rule}: doctor --fix failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = doctor(&proj, store, false);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{rule}: post-fix audit not healthy: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    std::fs::remove_dir_all(&proj).ok();
}

/// Builds the clean reference once per `(units, with_store)` shape.
fn reference(tag: &str, units: usize, with_store: bool) -> Fingerprint {
    let dir = temp(tag);
    seed_project(&dir, units);
    let store_dir = dir.join("_store");
    let store = with_store.then_some(store_dir.as_path());
    let out = build(&dir, store, None);
    assert!(out.status.success(), "reference build failed: {out:?}");
    let fp = fingerprint(&dir.join(".smlsc-bins"));
    std::fs::remove_dir_all(&dir).ok();
    fp
}

/// Every stage of every local durable-write point, N = 50.
#[test]
fn crash_at_every_local_durable_write_stage_recovers_n50() {
    let reference_fp = reference("ref-local-50", 50, false);
    for (i, rule) in [
        "pack.save=crash(begin)",
        "pack.save=crash(staged)",
        "pack.save=crash(renamed)",
        "ledger.append=crash(begin)",
        "ledger.append=crash(mid)",
    ]
    .iter()
    .enumerate()
    {
        crash_then_recover(&format!("local50-{i}"), 50, rule, false, &reference_fp);
    }
}

/// Every stage of the store publication point, N = 50.
#[test]
fn crash_at_every_store_publish_stage_recovers_n50() {
    let reference_fp = reference("ref-store-50", 50, true);
    for (i, rule) in [
        "store.publish=crash(begin)",
        "store.publish=crash(staged)",
        "store.publish=crash(renamed)",
    ]
    .iter()
    .enumerate()
    {
        crash_then_recover(&format!("store50-{i}"), 50, rule, true, &reference_fp);
    }
}

/// One representative stage per point at monorepo scale, N = 200.
#[test]
fn crash_recovery_holds_at_monorepo_scale_n200() {
    let reference_fp = reference("ref-local-200", 200, false);
    for (i, rule) in [
        "pack.save=crash(staged)",
        "pack.save=crash(renamed)",
        "ledger.append=crash(mid)",
    ]
    .iter()
    .enumerate()
    {
        crash_then_recover(&format!("local200-{i}"), 200, rule, false, &reference_fp);
    }
    let store_fp = reference("ref-store-200", 200, true);
    crash_then_recover(
        "store200",
        200,
        "store.publish=crash(staged)",
        true,
        &store_fp,
    );
}

/// Writes the seeded `units`-unit project to `dir` with each unit in
/// `edited` given one body edit (all of them leaves: nothing imports
/// them).  Files whose text is already on disk are left alone, so their
/// stamps stay hits.
fn seed_edited(dir: &Path, units: usize, edited: &[usize]) {
    let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed: 7,
    }));
    for &i in edited {
        assert!(w.transitive_dependents(i).is_empty(), "M{i} is a leaf");
        w.edit(i, EditKind::BodyOnly);
    }
    for f in w.project().files() {
        let path = dir.join(format!("{}.sml", f.name));
        let text = f.read_text().unwrap();
        if std::fs::read_to_string(&path).ok().as_deref() != Some(text) {
            std::fs::write(path, text).unwrap();
        }
    }
}

/// The saves of the append script, in order, each a segment of its
/// own: a leaf body edit (bins and stamps), a `touch` alone (a
/// stamp-only segment), and a new import of a new unit (bins, stamps and
/// a graph section).
const APPEND_SAVES: [&str; 3] = ["body", "touch", "import"];

/// Brings the N = 200 project in `dir` to where `save` of
/// [`APPEND_SAVES`] leaves it.
fn apply_append_save(dir: &Path, save: &str) {
    const N: usize = 200;
    let leaf = dir.join(format!("M{}.sml", N - 1));
    match save {
        "body" => seed_edited(dir, N, &[N - 1]),
        "touch" => {
            // An older mtime, so the new stamp is not racy.
            let old = std::time::SystemTime::now() - std::time::Duration::from_secs(60);
            std::fs::File::options()
                .write(true)
                .open(dir.join("M0.sml"))
                .unwrap()
                .set_modified(old)
                .unwrap();
        }
        _ => {
            std::fs::write(
                dir.join("Extra.sml"),
                "structure Extra = struct val e = 1 end",
            )
            .unwrap();
            let text = std::fs::read_to_string(&leaf).unwrap();
            let edited = text.replacen("  fun get x = x\n", "  fun get x = x + 0 * Extra.e\n", 1);
            assert_ne!(edited, text, "the leaf gains an import");
            std::fs::write(&leaf, edited).unwrap();
        }
    }
}

#[cfg(unix)]
fn inode(path: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).unwrap().ino()
}

/// The warm path: after a cold build, each save of a small change
/// appends a segment to `bins.pack` instead of rewriting it — a leaf
/// body edit (bins and stamps), a `touch` (stamps alone) and a new
/// import (a graph section too).  A crash at every stage of each append
/// (`begin`: nothing written; `mid`: half a segment, a torn tail;
/// `staged`: the segment fsynced, nothing after) recovers like every
/// other crash point — the next build lands on a clean build's artifacts
/// by appending to the same file, and the doctor leaves the tree
/// healthy.
#[cfg(unix)]
#[test]
fn crash_at_every_pack_append_stage_recovers_n200() {
    const N: usize = 200;
    // The clean reference after each save (a touch changes no bin).
    let references: Vec<Fingerprint> = APPEND_SAVES
        .iter()
        .enumerate()
        .map(|(i, save)| {
            let dir = temp(&format!("ref-append-{save}"));
            seed_project(&dir, N);
            for done in &APPEND_SAVES[..=i] {
                apply_append_save(&dir, done);
            }
            assert!(build(&dir, None, None).status.success());
            let fp = fingerprint(&dir.join(".smlsc-bins"));
            std::fs::remove_dir_all(&dir).ok();
            fp
        })
        .collect();
    for stage in ["begin", "mid", "staged"] {
        let proj = temp(&format!("append-{stage}"));
        seed_project(&proj, N);
        assert!(build(&proj, None, None).status.success(), "{stage}: cold");
        let pack = proj.join(".smlsc-bins/bins.pack");
        let cold_inode = inode(&pack);
        for (save, reference_fp) in APPEND_SAVES.iter().zip(&references) {
            let rule = format!("pack.save=crash({stage}) on the {save} save");
            apply_append_save(&proj, save);
            let out = build(&proj, None, Some(&format!("pack.save=crash({stage})")));
            assert!(
                out.status.code().is_none(),
                "{rule}: expected an abort in the append, got {:?}\nstderr: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("injected fault: crash at"),
                "{rule}: abort must come from the injected crash point"
            );

            let out = build(&proj, None, None);
            assert!(
                out.status.success(),
                "{rule}: recovery build failed: {out:?}"
            );
            assert_eq!(
                &fingerprint(&proj.join(".smlsc-bins")),
                reference_fp,
                "{rule}: recovered artifacts differ from a clean build"
            );
            let reader = PackReader::open(&pack).unwrap().unwrap();
            assert_eq!(reader.torn_tail(), 0, "{rule}: torn tail left behind");
            assert_eq!(
                reader.graph().map(|g| g.len()),
                Some(reference_fp.len()),
                "{rule}: the pack's graph covers every unit"
            );
            assert_eq!(inode(&pack), cold_inode, "{rule}: recovered by appending");

            let out = doctor(&proj, None, true);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{rule}: doctor --fix failed: {}",
                String::from_utf8_lossy(&out.stdout)
            );
            let out = doctor(&proj, None, false);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{rule}: post-fix audit not healthy: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::fs::remove_dir_all(&proj).ok();
    }
}

/// Two `--no-daemon` builds of different leaf edits racing on one
/// project both succeed.  The test holds `bins.pack.lock` until both
/// builds have compiled (their summary line prints before the save),
/// so both saves start from the same loaded pack and contend for the
/// lock: the first appends, the second finds the file changed and
/// rewrites it in full instead of appending to a file it did not load.
/// The next build then lands on a clean build's artifacts.
#[cfg(unix)]
#[test]
fn concurrent_builds_of_different_leaf_edits_agree_with_a_clean_build() {
    use std::io::{BufRead, BufReader, Read};
    const N: usize = 200;
    let proj = temp("concurrent");
    seed_project(&proj, N);
    assert!(build(&proj, None, None).status.success(), "cold build");
    let pack = proj.join(".smlsc-bins/bins.pack");
    let mut edited = Vec::new();
    for round in 0..2 {
        let before = inode(&pack);
        let lock = smlsc::core::pack::lock(&pack).unwrap();
        let mut builds = Vec::new();
        for leaf in [N - 1 - 2 * round, N - 2 - 2 * round] {
            edited.push(leaf);
            seed_edited(&proj, N, &edited);
            let mut child = smlsc()
                .args(["build", "--no-daemon"])
                .arg(&proj)
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .unwrap();
            // Wait until this build has compiled and reached its save.
            let mut stdout = BufReader::new(child.stdout.take().unwrap());
            let mut line = String::new();
            while !line.starts_with("built ") {
                line.clear();
                assert!(
                    stdout.read_line(&mut line).unwrap() > 0,
                    "round {round}: no summary"
                );
            }
            builds.push((child, stdout));
        }
        drop(lock);
        for (child, mut stdout) in builds {
            stdout.read_to_string(&mut String::new()).unwrap();
            let out = child.wait_with_output().unwrap();
            assert!(out.status.success(), "round {round}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("warning"), "round {round}: {stderr}");
        }
        assert_ne!(
            inode(&pack),
            before,
            "round {round}: the second save rewrote"
        );
    }
    assert!(build(&proj, None, None).status.success(), "settling build");
    let clean = temp("concurrent-ref");
    seed_edited(&clean, N, &edited);
    assert!(build(&clean, None, None).status.success(), "clean build");
    assert_eq!(
        fingerprint(&proj.join(".smlsc-bins")),
        fingerprint(&clean.join(".smlsc-bins")),
        "racing builds diverged from a clean build"
    );
    let out = doctor(&proj, None, false);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_dir_all(&proj).ok();
    std::fs::remove_dir_all(&clean).ok();
}

/// A daemon killed while writing its lockfile leaves exactly the
/// stale-lock debris the next acquire and `smlsc doctor` must clear.
#[test]
fn crash_in_daemon_lock_leaves_recoverable_debris() {
    let proj = temp("daemonlock");
    seed_project(&proj, 10);

    let out = smlsc()
        .args(["daemon", "run", "--inject-faults", "daemon.lock=crash"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(
        out.status.code().is_none(),
        "daemon must abort at the lock crash point: {out:?}"
    );
    let lock = proj.join(".smlsc-bins/daemon.lock");
    assert!(lock.exists(), "the crash leaves a stale lockfile behind");

    // `doctor` sees the stale lock; `--fix` clears it; the audit is
    // then clean.
    let out = doctor(&proj, None, false);
    assert_eq!(out.status.code(), Some(4), "stale lock is a finding");
    let out = doctor(&proj, None, true);
    assert_eq!(
        out.status.code(),
        Some(0),
        "doctor --fix clears the stale lock: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!lock.exists(), "stale lockfile removed by --fix");

    // And the daemon itself self-heals: a fresh start takes over the
    // same project without manual intervention even when the debris is
    // still there.
    std::fs::write(&lock, format!("{}\n", u32::MAX)).unwrap();
    let out = smlsc()
        .args(["daemon", "start"])
        .arg(&proj)
        .env("SMLSC_DAEMON_POLL_MS", "20")
        .output()
        .unwrap();
    assert!(out.status.success(), "start over stale debris: {out:?}");
    let out = smlsc()
        .args(["daemon", "stop"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "stop: {out:?}");

    std::fs::remove_dir_all(&proj).ok();
}
