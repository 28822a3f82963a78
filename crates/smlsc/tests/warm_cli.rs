//! End-to-end warm builds through the `smlsc` CLI: the second build of
//! an unchanged project must do no source IO at all and parse only the
//! archive index — and `--stats` proves it with counters.  A body edit
//! keeps the import graph, a moved checkout keeps every stamp, and the
//! process leaves whole artifacts behind when it exits without
//! tearing its state down.

use std::path::{Path, PathBuf};
use std::process::Command;

fn smlsc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smlsc"));
    cmd.env_remove("SMLSC_STORE");
    cmd
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-warmcli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `text` to `dir/file` dated a minute back: stamps of files
/// written in a save's own filesystem tick are racy and not trusted,
/// and these tests count stamp hits on settled files.
fn write_settled(dir: &Path, file: &str, text: &str) {
    let path = dir.join(file);
    std::fs::write(&path, text).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(60))
        .unwrap();
}

fn write_project(dir: &Path) {
    write_settled(
        dir,
        "util.sml",
        "structure Util = struct fun inc x = x + 1 end",
    );
    write_settled(
        dir,
        "main.sml",
        "structure Main = struct val v = Util.inc 41 end",
    );
}

fn build_stats(proj: &Path) -> String {
    let out = smlsc()
        .args(["build", "--no-daemon", "--stats"])
        .arg(proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stats_line(stdout: &str) -> &str {
    stdout.lines().find(|l| l.starts_with('{')).unwrap()
}

#[test]
fn warm_rebuild_reads_no_sources_and_only_the_index() {
    let proj = temp("noop");
    write_project(&proj);

    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 recompiled, 0 reused"), "{stdout}");
    let json = stats_line(&stdout);
    // Cold: every source is read and digested, no stamps match yet.
    assert!(json.contains(r#""source.reads":2"#), "{json}");
    assert!(json.contains(r#""stamp.misses":2"#), "{json}");
    // Stamps and the import graph are sections of the one pack.
    assert!(proj.join(".smlsc-bins").join("bins.pack").is_file());
    assert!(!proj.join(".smlsc-bins").join("stamps.json").exists());
    assert!(!proj.join(".smlsc-bins").join("deps.pack").exists());

    // Warm: zero compiles, zero source reads, index-only bin loading.
    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 recompiled, 2 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""stamp.hits":2"#), "{json}");
    assert!(json.contains(r#""bin.index_only":2"#), "{json}");
    assert!(!json.contains(r#""source.reads""#), "{json}");
    assert!(!json.contains(r#""stamp.misses""#), "{json}");
    assert!(!json.contains(r#""irm.units_compiled""#), "{json}");
    assert!(!json.contains(r#""bin.lazy_bodies""#), "{json}");
    // Nothing changed, so the save writes no stamps, the import DAG
    // rehydrates from the pack, and the dirty set stays empty.
    assert!(json.contains(r#""stamp.saves_skipped":1"#), "{json}");
    assert!(json.contains(r#""deps.pack_hits":1"#), "{json}");
    assert!(!json.contains(r#""sched.dirty_seed""#), "{json}");

    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn paranoid_flag_redigests_every_source() {
    let proj = temp("paranoid");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // `--paranoid` distrusts the stamps: both sources are re-read and
    // the archive bodies are verified eagerly — but the conclusion is
    // the same: nothing recompiles.
    let out = smlsc()
        .args(["build", "--paranoid", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 recompiled, 2 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""source.reads":2"#), "{json}");
    assert!(!json.contains(r#""stamp.hits""#), "{json}");
    assert!(!json.contains(r#""bin.index_only""#), "{json}");

    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn editing_one_leaf_recompiles_only_it_on_the_warm_path() {
    let proj = temp("leaf-edit");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    // A body-only edit to the leaf: one stamp misses, one hits; only
    // the edited unit recompiles (its interface is unchanged, so the
    // dependent is cut off).
    std::fs::write(
        proj.join("main.sml"),
        "structure Main = struct val v = Util.inc 42 end",
    )
    .unwrap();
    let out = smlsc()
        .args(["build", "--stats"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 recompiled, 1 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""stamp.hits":1"#), "{json}");
    assert!(json.contains(r#""stamp.misses":1"#), "{json}");
    assert!(json.contains(r#""source.reads":1"#), "{json}");
    // Dirty-set scheduling: the edited leaf seeds the wavefront and its
    // cone is just itself (no dependents).
    assert!(json.contains(r#""sched.dirty_seed":1"#), "{json}");
    assert!(json.contains(r#""sched.dirty_cone":1"#), "{json}");
    // The import graph is keyed on import and export names, which a
    // body edit keeps: it is reused, not re-derived.
    assert!(json.contains(r#""deps.pack_hits":1"#), "{json}");
    assert!(!json.contains(r#""deps.pack_misses""#), "{json}");

    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn an_edit_that_adds_an_import_rederives_the_graph() {
    let proj = temp("new-import");
    write_project(&proj);
    write_settled(&proj, "extra.sml", "structure Extra = struct val e = 1 end");
    build_stats(&proj);

    write_settled(
        &proj,
        "main.sml",
        "structure Main = struct val v = Util.inc 41 + Extra.e end",
    );
    let stdout = build_stats(&proj);
    assert!(stdout.contains("1 recompiled, 2 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""deps.pack_misses":1"#), "{json}");
    assert!(!json.contains(r#""deps.pack_hits""#), "{json}");

    // The new graph was saved: a no-op build reuses it and everything.
    let stdout = build_stats(&proj);
    assert!(stdout.contains("0 recompiled, 3 reused"), "{stdout}");
    assert!(stats_line(&stdout).contains(r#""deps.pack_hits":1"#));
    let out = smlsc()
        .args(["run", "--no-daemon"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("main: export pid"));

    std::fs::remove_dir_all(&proj).ok();
}

/// Stamps are keyed by project-relative path: a checkout moved whole
/// (a rename keeps every mtime) is still fully warm, and no pack byte
/// names the old directory.
#[test]
fn a_moved_checkout_keeps_every_stamp() {
    let base = temp("relocate");
    let (old, new) = (base.join("checkout-before-the-move"), base.join("moved"));
    std::fs::create_dir_all(&old).unwrap();
    write_project(&old);
    write_settled(&old, "extra.sml", "structure Extra = struct val e = 1 end");
    build_stats(&old);
    std::fs::rename(&old, &new).unwrap();

    let stdout = build_stats(&new);
    assert!(stdout.contains("0 recompiled, 3 reused"), "{stdout}");
    let json = stats_line(&stdout);
    assert!(json.contains(r#""stamp.hits":3"#), "{json}");
    assert!(!json.contains(r#""source.reads""#), "{json}");
    assert!(!json.contains(r#""stamp.misses""#), "{json}");
    let pack = std::fs::read(new.join(".smlsc-bins/bins.pack")).unwrap();
    let needle = old.to_string_lossy().into_owned().into_bytes();
    assert!(
        !pack.windows(needle.len()).any(|w| w == needle.as_slice()),
        "bins.pack names the old checkout directory"
    );

    std::fs::remove_dir_all(&base).ok();
}

/// The CLI exits without freeing its build state.  That is safe only
/// because every durable write is finished first: after `build` and
/// `run --no-daemon` no lock or staging file is left, the ledger's
/// last record is whole, and every requested output file parses.
#[test]
fn exiting_without_teardown_leaves_whole_artifacts() {
    let proj = temp("teardown");
    write_project(&proj);
    let bin = proj.join(".smlsc-bins");
    let (report, trace) = (proj.join("report.json"), proj.join("trace.json"));
    let out = smlsc()
        .args(["build", "--no-daemon", "--stats", "--report-json"])
        .arg(&report)
        .arg("--trace-out")
        .arg(&trace)
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    serde_json::parse_value(stats_line(&stdout).as_bytes()).expect("--stats parses");
    for path in [&report, &trace] {
        let text = std::fs::read(path).unwrap();
        serde_json::parse_value(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let out = smlsc()
        .args(["run", "--no-daemon"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.ends_with('\n') && stdout.contains("util: export pid"),
        "{stdout}"
    );

    let names: Vec<String> = std::fs::read_dir(&bin)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for name in &names {
        assert!(!name.ends_with(".lock"), "lock left behind: {names:?}");
        assert!(
            !smlsc::core::store::fsutil::is_tmp_litter(name),
            "staging litter left behind: {names:?}"
        );
    }
    let ledger = smlsc::core::Ledger::for_bin_dir(&bin);
    let audit = ledger.audit();
    assert!(audit.is_healthy(), "{audit:?}");
    assert_eq!(ledger.read().len(), 2, "one whole record per build");

    std::fs::remove_dir_all(&proj).ok();
}
