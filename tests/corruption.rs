//! Corruption recovery: malformed bin bytes are reported as
//! `CoreError::CorruptBin`, and a build over a damaged `bins.pack`
//! degrades to recompiling exactly the damaged units — never to a wrong
//! answer.

use std::path::{Path, PathBuf};

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::pack::{PackReader, PackWriter, PACK_FILE};
use smlsc_core::{BinFile, CoreError};
use smlsc_ids::Pid;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-corrupt-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn project() -> Project {
    let mut p = Project::new();
    p.add("base", "structure Base = struct val n = 10 end");
    p.add("mid", "structure Mid = struct val v = Base.n + 1 end");
    p.add("top", "structure Top = struct val t = Mid.v * 2 end");
    p
}

fn export_pids(irm: &Irm) -> Vec<(String, Pid)> {
    let mut pids: Vec<(String, Pid)> = ["base", "mid", "top"]
        .iter()
        .map(|n| (n.to_string(), irm.bin(n).unwrap().unit.export_pid))
        .collect();
    pids.sort();
    pids
}

/// The serialized bin of one built unit: the body `save_bins` archives.
fn bin_bytes(irm: &Irm, unit: &str) -> Vec<u8> {
    irm.bin(unit).unwrap().to_bytes()
}

/// Rewrites `dir`'s archive with `unit`'s body replaced by `body`, kept
/// under the body's *true* digest — a torn write the index cannot see.
fn tear_archived_body(dir: &Path, unit: &str, body: &[u8]) {
    let pack = dir.join(PACK_FILE);
    let reader = PackReader::open(&pack).unwrap().unwrap();
    let mut items = Vec::new();
    for e in reader.entries() {
        let good = reader.read_body(e.offset, e.len, e.digest).unwrap();
        let bytes = if e.name.as_str() == unit {
            body.to_vec()
        } else {
            good
        };
        items.push((e.meta(), bytes, e.digest));
    }
    drop(reader);
    assert!(items.iter().any(|(m, _, _)| m.name.as_str() == unit));
    let mut w = PackWriter::create(&pack).unwrap();
    for (meta, bytes, digest) in &items {
        w.add(meta, bytes, *digest).unwrap();
    }
    w.finish_with(None, None).unwrap();
}

fn dir_entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn mtime(path: PathBuf) -> std::time::SystemTime {
    std::fs::metadata(path).unwrap().modified().unwrap()
}

fn len(path: PathBuf) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

#[test]
fn truncated_bin_is_corrupt() {
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&project()).unwrap();

    let bytes = bin_bytes(&irm, "mid");
    let truncated = &bytes[..bytes.len() / 2];
    assert!(matches!(
        BinFile::from_bytes(truncated),
        Err(CoreError::CorruptBin(_))
    ));
    // Truncating *into* the magic is also corrupt, not a panic.
    assert!(matches!(
        BinFile::from_bytes(&bytes[..4]),
        Err(CoreError::CorruptBin(_))
    ));
}

#[test]
fn bit_flipped_bin_is_corrupt() {
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&project()).unwrap();

    let mut bytes = bin_bytes(&irm, "base");
    // Flip a byte inside the payload; the container self-digest catches it.
    let k = bytes.len() - 2;
    bytes[k] = 0x00;
    assert!(matches!(
        BinFile::from_bytes(&bytes),
        Err(CoreError::CorruptBin(_))
    ));
}

#[test]
fn wrong_magic_is_corrupt() {
    assert!(matches!(
        BinFile::from_bytes(b"WRONGMAG{\"unit\":{}}"),
        Err(CoreError::CorruptBin(_))
    ));
    assert!(matches!(
        BinFile::from_bytes(b""),
        Err(CoreError::CorruptBin(_))
    ));
}

#[test]
fn build_over_a_corrupted_cache_recompiles_and_matches() {
    let dir = temp_dir("rebuild");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins(&dir).unwrap();
    let clean_pids = export_pids(&irm);

    // Damage one archived body three different ways across three fresh
    // paranoid sessions (which verify every body at load); each session
    // loads what it can, recompiles the rest, and lands on identical
    // export pids.
    let original = bin_bytes(&irm, "mid");
    let mut flipped = original.clone();
    let k = flipped.len() - 2;
    flipped[k] = 0x00;
    let damages: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", original[..original.len() / 2].to_vec()),
        ("bit-flipped", flipped),
        ("wrong-magic", b"NOTABIN!garbage".to_vec()),
    ];
    for (what, bytes) in damages {
        tear_archived_body(&dir, "mid", &bytes);
        let mut session = Irm::new(Strategy::Cutoff);
        session.set_paranoid(true);
        let outcome = session.load_bins(&dir).unwrap();
        assert_eq!(outcome.loaded, 2, "{what}: {:?}", outcome.corrupt);
        assert_eq!(outcome.corrupt.len(), 1, "{what}");
        assert!(
            matches!(&outcome.corrupt[0].1, CoreError::BinBodyCorrupt { unit, .. } if unit.as_str() == "mid"),
            "{what}: {:?}",
            outcome.corrupt[0]
        );

        let report = session.build(&p).unwrap();
        assert!(
            report.was_recompiled("mid"),
            "{what}: {:?}",
            report.decisions
        );
        assert!(!report.was_recompiled("base"), "{what}");
        // mid's interface is unchanged, so top is cut off, not rebuilt.
        assert!(
            !report.was_recompiled("top"),
            "{what}: {:?}",
            report.decisions
        );
        assert_eq!(export_pids(&session), clean_pids, "{what}");
        let (_, env) = session.execute(&p).unwrap();
        assert_eq!(env.len(), 3, "{what}");

        // Re-save repairs the cache for the next round.
        session.save_bins(&dir).unwrap();
        let check = Irm::new(Strategy::Cutoff)
            .load_bins(&dir)
            .map(|o| o.corrupt.len());
        assert_eq!(check.unwrap(), 0, "{what}: save did not repair");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_save_leaves_no_temp_files_and_skips_clean_bins() {
    let dir = temp_dir("atomic");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins(&dir).unwrap();
    // Bins, stamps and the import graph share the one pack.
    assert_eq!(dir_entries(&dir), ["bins.pack"]);

    // A second save with nothing dirty must rewrite nothing: the pack's
    // mtime and length stay identical, and no staging file is left.
    let before = (mtime(dir.join("bins.pack")), len(dir.join("bins.pack")));
    irm.save_bins(&dir).unwrap();
    let after = (mtime(dir.join("bins.pack")), len(dir.join("bins.pack")));
    assert_eq!(before, after, "no-op save must not rewrite the archive");
    assert_eq!(dir_entries(&dir), ["bins.pack"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-unit `*.bin` files are not a cache format: a stray one next to
/// the archive is neither loaded nor deleted, and a warm load + no-op
/// save leaves the archive — its stamp and graph sections included —
/// untouched.
#[test]
fn atomic_archive_save_migrates_and_skips_when_clean() {
    let dir = temp_dir("atomic-pack");
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins(&dir).unwrap();
    std::fs::write(dir.join("mid.bin"), bin_bytes(&irm, "mid")).unwrap();

    // A fresh session loads the archive only; the stray file is ignored.
    let mut warm = Irm::new(Strategy::Cutoff);
    let outcome = warm.load_bins(&dir).unwrap();
    assert_eq!(outcome.loaded, 3);
    assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    let report = warm.build(&p).unwrap();
    assert!(report.recompiled.is_empty(), "{:?}", report.decisions);

    // A load + no-op save must not rewrite or append to the archive:
    // the graph section loaded with it is current.
    let before = (mtime(dir.join("bins.pack")), len(dir.join("bins.pack")));
    warm.save_bins(&dir).unwrap();
    warm.save_bins(&dir).unwrap();
    let after = (mtime(dir.join("bins.pack")), len(dir.join("bins.pack")));
    assert_eq!(before, after, "no-op save must not rewrite the archive");
    assert_eq!(dir_entries(&dir), ["bins.pack", "mid.bin"]);
    std::fs::remove_dir_all(&dir).ok();
}
