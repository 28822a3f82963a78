//! End-to-end tests of the shared artifact store through the `smlsc`
//! CLI: `--store`/`SMLSC_STORE`, `--bin-dir`, cross-process sharing,
//! and the `smlsc cache` subcommands.

use std::path::{Path, PathBuf};
use std::process::Command;

fn smlsc() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smlsc"));
    // Keep the ambient environment from leaking a store into tests
    // that exercise the explicit flag.
    cmd.env_remove("SMLSC_STORE");
    cmd
}

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-cachecli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_project(dir: &Path) {
    std::fs::write(
        dir.join("util.sml"),
        "structure Util = struct fun inc x = x + 1 end",
    )
    .unwrap();
    std::fs::write(
        dir.join("main.sml"),
        "structure Main = struct val v = Util.inc 41 end",
    )
    .unwrap();
}

#[test]
fn second_cold_session_is_all_store_hits() {
    let store = temp("hits-store");
    let proj = temp("hits-proj");
    write_project(&proj);

    let out = smlsc()
        .args(["build", "--store"])
        .arg(&store)
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 recompiled, 0 reused, 0 from store"),
        "{stdout}"
    );

    // Wipe the project's bins: the next session is cold, but the store
    // is warm — zero compiles, and the stats JSON proves it.
    std::fs::remove_dir_all(proj.join(".smlsc-bins")).unwrap();
    let out = smlsc()
        .args(["build", "--stats", "--store"])
        .arg(&store)
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 recompiled, 0 reused, 2 from store"),
        "{stdout}"
    );
    let json = stdout.lines().find(|l| l.starts_with('{')).unwrap();
    assert!(json.contains(r#""store.hit":2"#), "{json}");
    assert!(!json.contains(r#""irm.units_compiled""#), "{json}");

    // `run` works off the rehydrated bins too.
    let out = smlsc()
        .args(["run", "--store"])
        .arg(&store)
        .arg(&proj)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("main: export pid"), "{stdout}");

    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn store_env_var_is_the_default() {
    let store = temp("env-store");
    let proj = temp("env-proj");
    write_project(&proj);

    let out = smlsc()
        .arg("build")
        .arg(&proj)
        .env("SMLSC_STORE", &store)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("2 recompiled, 0 reused, 0 from store"),
        "{stdout}"
    );

    // Cold session via the env var alone: all store hits.
    std::fs::remove_dir_all(proj.join(".smlsc-bins")).unwrap();
    let out = smlsc()
        .arg("build")
        .arg(&proj)
        .env("SMLSC_STORE", &store)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 recompiled, 0 reused, 2 from store"),
        "{stdout}"
    );

    // `cache stats` honours the same env var.
    let out = smlsc()
        .args(["cache", "stats"])
        .env("SMLSC_STORE", &store)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 object(s)"), "{stdout}");

    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn bin_dir_flag_relocates_the_bin_cache() {
    let proj = temp("bindir-proj");
    let bins = temp("bindir-bins");
    write_project(&proj);

    let out = smlsc()
        .args(["build", "--bin-dir"])
        .arg(&bins)
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(bins.join("bins.pack").is_file());
    assert!(!proj.join(".smlsc-bins").exists());

    // The relocated cache satisfies the next build.
    let out = smlsc()
        .args(["build", "--bin-dir"])
        .arg(&bins)
        .arg(&proj)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 recompiled, 2 reused"), "{stdout}");

    std::fs::remove_dir_all(&proj).ok();
    std::fs::remove_dir_all(&bins).ok();
}

#[test]
fn corrupt_bin_degrades_to_recompile_with_a_warning() {
    // A torn body inside `bins.pack`: a `--paranoid` build verifies
    // every body at load, warns, and recompiles just that unit while
    // the other reuses.  A stray per-unit `util.bin` is not a cache
    // format and is ignored.
    let proj = temp("degrade-proj");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");

    let bins = proj.join(".smlsc-bins");
    std::fs::write(bins.join("util.bin"), b"garbage").unwrap();
    let pack = bins.join("bins.pack");
    let util = smlsc_core::pack::PackReader::open(&pack)
        .unwrap()
        .unwrap()
        .entries()
        .iter()
        .find(|e| e.name.as_str() == "util")
        .cloned()
        .unwrap();
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[(util.offset + util.len / 2) as usize] ^= 0xff;
    std::fs::write(&pack, &bytes).unwrap();

    let out = smlsc()
        .args(["build", "--paranoid"])
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ignoring corrupt bin"), "{stderr}");
    assert!(!stderr.contains("util.bin"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 recompiled, 1 reused"), "{stdout}");

    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn corrupt_pack_archive_degrades_to_full_recompile_with_a_warning() {
    let proj = temp("degrade-pack-proj");
    write_project(&proj);
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(proj.join(".smlsc-bins").join("bins.pack").is_file());

    // Smash the whole archive (bad magic): both units recompile, the
    // build still succeeds.
    std::fs::write(proj.join(".smlsc-bins").join("bins.pack"), b"garbage").unwrap();
    let out = smlsc().arg("build").arg(&proj).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ignoring corrupt bin"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 recompiled, 0 reused"), "{stdout}");

    std::fs::remove_dir_all(&proj).ok();
}

#[test]
fn concurrent_cli_builds_share_one_store() {
    let store = temp("pair-store");
    let proj_a = temp("pair-a");
    let proj_b = temp("pair-b");
    write_project(&proj_a);
    write_project(&proj_b);

    // Two simultaneous processes, same store, same sources: whatever
    // interleaving the scheduler picks, both succeed and the store ends
    // up with exactly one valid object per unit.
    let mut child_a = smlsc()
        .args(["build", "--store"])
        .arg(&store)
        .arg(&proj_a)
        .spawn()
        .unwrap();
    let mut child_b = smlsc()
        .args(["build", "--store"])
        .arg(&store)
        .arg(&proj_b)
        .spawn()
        .unwrap();
    assert!(child_a.wait().unwrap().success());
    assert!(child_b.wait().unwrap().success());

    let out = smlsc()
        .args(["cache", "verify", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("checked 2 object(s), 0 corrupt"),
        "{stdout}"
    );

    // A third project compiles nothing: both units come from the store.
    let proj_c = temp("pair-c");
    write_project(&proj_c);
    let out = smlsc()
        .args(["build", "--store"])
        .arg(&store)
        .arg(&proj_c)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 recompiled, 0 reused, 2 from store"),
        "{stdout}"
    );

    for d in [&store, &proj_a, &proj_b, &proj_c] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn cache_subcommands_report_gc_and_clear() {
    let store = temp("ops-store");
    let proj = temp("ops-proj");
    write_project(&proj);
    let out = smlsc()
        .args(["build", "--store"])
        .arg(&store)
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = smlsc()
        .args(["cache", "stats", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 object(s)"), "{stdout}");

    // An unbounded gc evicts nothing; a zero-byte cap evicts all.
    let out = smlsc()
        .args(["cache", "gc", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("evicted 0"), "{stdout}");
    let out = smlsc()
        .args(["cache", "gc", "--max-bytes", "0", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("evicted 2"), "{stdout}");

    // Rebuild repopulates; clear empties.
    std::fs::remove_dir_all(proj.join(".smlsc-bins")).unwrap();
    let out = smlsc()
        .args(["build", "--store"])
        .arg(&store)
        .arg(&proj)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = smlsc()
        .args(["cache", "clear", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cleared 2 object(s)"), "{stdout}");

    // Usage errors: no store, unknown op.
    let out = smlsc().args(["cache", "stats"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = smlsc()
        .args(["cache", "frobnicate", "--store"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_dir_all(&proj).ok();
}
