//! Warm-build correctness: the persistent stamp cache, the indexed
//! lazy bin archive, and the guarantee that every fast path is
//! *observationally identical* to the eager paranoid baseline.
//!
//! The central property: stamped and paranoid sessions over the same
//! archive produce bit-identical export pids and the same
//! `RebuildDecision` sequence after any seeded edit history.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::{trace, RebuildDecision};
use smlsc_faults::{install_scoped, points, FaultKind, FaultPlan, FaultRule};
use smlsc_ids::Pid;
use smlsc_workload::{module_name, EditKind, Topology, Workload, WorkloadSpec};

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-warm-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
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
        .map(|n| (n.to_string(), irm.bin_meta(n).unwrap().export_pid))
        .collect();
    pids.sort();
    pids
}

/// A torn body inside `bins.pack` — written under the *true* digest, so
/// the index loads cleanly — is caught on first use and quarantines
/// exactly the affected unit; everything else still links from the
/// archive.
#[test]
fn torn_archive_body_quarantines_only_the_affected_unit() {
    let dir = temp_dir("torn-body");
    let p = project();
    let clean = {
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.build(&p).unwrap();
        let pids = export_pids(&irm);
        let _guard = install_scoped(
            FaultPlan::default()
                .with(FaultRule::new(points::BIN_SAVE, FaultKind::Torn).filtered("mid")),
        );
        irm.save_bins(&dir).unwrap();
        pids
    };

    let collector = trace::Collector::new();
    collector.install();
    let mut session = Irm::new(Strategy::Cutoff);
    let outcome = session.load_bins(&dir).unwrap();
    // The index is intact, so loading sees nothing wrong yet: bodies
    // are verified lazily, on first use.
    assert_eq!(outcome.loaded, 3, "{:?}", outcome.corrupt);
    assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);

    // Linking forces bodies; the torn one is quarantined and exactly
    // `mid` recompiles, while `base` and `top` rehydrate from the
    // archive.  `mid`'s interface is unchanged, so `top` is cut off.
    let (report, env) = session.execute(&p).unwrap();
    trace::uninstall();
    assert_eq!(env.len(), 3);
    assert!(report.was_recompiled("mid"), "{:?}", report.decisions);
    assert!(!report.was_recompiled("base"), "{:?}", report.decisions);
    assert!(!report.was_recompiled("top"), "{:?}", report.decisions);
    assert_eq!(collector.counter(trace::names::BIN_BODY_QUARANTINED), 1);
    assert_eq!(export_pids(&session), clean);
    std::fs::remove_dir_all(&dir).ok();
}

/// Damage to the archive's *index* (footer truncation, a flipped byte
/// inside the index JSON) rejects the whole archive in one corruption
/// report; the build degrades to a full recompile and matches clean.
#[test]
fn corrupt_archive_index_degrades_to_full_recompile() {
    let p = project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    let clean = export_pids(&irm);

    for what in ["truncated-footer", "flipped-index"] {
        let dir = temp_dir(what);
        irm.save_bins(&dir).unwrap();
        let pack = dir.join("bins.pack");
        let mut bytes = std::fs::read(&pack).unwrap();
        match what {
            "truncated-footer" => bytes.truncate(bytes.len() - 8),
            _ => {
                // Last byte before the 40-byte footer sits inside the
                // binary index: flipping it breaks the index digest.
                let k = bytes.len() - 41;
                bytes[k] ^= 0xff;
            }
        }
        std::fs::write(&pack, &bytes).unwrap();

        let mut session = Irm::new(Strategy::Cutoff);
        let outcome = session.load_bins(&dir).unwrap();
        assert_eq!(outcome.loaded, 0, "{what}");
        assert_eq!(outcome.corrupt.len(), 1, "{what}: {:?}", outcome.corrupt);
        let report = session.build(&p).unwrap();
        assert_eq!(report.recompiled.len(), 3, "{what}: {:?}", report.decisions);
        assert_eq!(export_pids(&session), clean, "{what}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `Irm::build` heals a torn *import* body the same way every other
/// build entry point does: editing `mid` forces `base`'s archived body
/// (to rehydrate `mid`'s import), the torn body is quarantined, `base`
/// recompiles alone, and the result matches a clean build.
#[test]
fn build_quarantines_a_torn_import_body_and_retries() {
    use smlsc_core::pack::{PackReader, PACK_FILE};
    let dir = temp_dir("torn-import");
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&project()).unwrap();
    irm.save_bins(&dir).unwrap();

    // Flip one byte inside `base`'s body; the index stays intact.
    let pack = dir.join(PACK_FILE);
    let entry = PackReader::open(&pack)
        .unwrap()
        .unwrap()
        .entries()
        .iter()
        .find(|e| e.name.as_str() == "base")
        .cloned()
        .unwrap();
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[(entry.offset + entry.len / 2) as usize] ^= 0xff;
    std::fs::write(&pack, &bytes).unwrap();

    let mut edited = Project::new();
    edited.add("base", "structure Base = struct val n = 10 end");
    edited.add("mid", "structure Mid = struct val v = Base.n + 2 end");
    edited.add("top", "structure Top = struct val t = Mid.v * 2 end");
    let clean = {
        let mut fresh = Irm::new(Strategy::Cutoff);
        fresh.build(&edited).unwrap();
        export_pids(&fresh)
    };

    let collector = trace::Collector::new();
    collector.install();
    let mut session = Irm::new(Strategy::Cutoff);
    assert_eq!(session.load_bins(&dir).unwrap().loaded, 3);
    let report = session.build(&edited);
    trace::uninstall();
    let report = report.expect("a torn import body is healed, not fatal");
    assert_eq!(collector.counter(trace::names::BIN_BODY_QUARANTINED), 1);
    assert!(report.was_recompiled("base"), "{:?}", report.decisions);
    assert!(report.was_recompiled("mid"), "{:?}", report.decisions);
    assert!(!report.was_recompiled("top"), "{:?}", report.decisions);
    assert_eq!(export_pids(&session), clean);
    std::fs::remove_dir_all(&dir).ok();
}

/// A no-op warm build touches *no JSON and no source text* on the hot
/// path.  Stamps, pack index, and bin bodies all live in the one binary
/// pack (checked by magic, and no other cache file exists), the build
/// reads zero sources, and when bodies do rehydrate (execute), the
/// pickles stream through borrowed slices: `pickle.bytes` counts real
/// work while `rehydrate.allocs` stays zero.
#[test]
fn noop_warm_build_is_binary_end_to_end_and_allocation_free() {
    use smlsc_core::pack::PACK_FILE;
    let base = temp_dir("zero-json");
    let src = base.join("src");
    let bins = base.join("bins");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("base.sml"),
        "structure Base = struct val n = 10 end",
    )
    .unwrap();
    std::fs::write(
        src.join("mid.sml"),
        "structure Mid = struct val v = Base.n + 1 end",
    )
    .unwrap();
    std::fs::write(
        src.join("top.sml"),
        "structure Top = struct val t = Mid.v * 2 end",
    )
    .unwrap();
    // Stamps of files written in the save's own filesystem tick are
    // racy and not trusted; date the sources back so the next session
    // sees settled files, as after any real edit.
    for f in ["base.sml", "mid.sml", "top.sml"] {
        std::fs::File::options()
            .write(true)
            .open(src.join(f))
            .unwrap()
            .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(60))
            .unwrap();
    }

    let mut irm = Irm::new(Strategy::Cutoff);
    let p = Project::from_dir(&src).unwrap();
    irm.build(&p).unwrap();
    irm.save_bins(&bins).unwrap();

    // The one persisted cache leads with its binary magic, not JSON,
    // and carries the stamps.
    let pack = std::fs::read(bins.join(PACK_FILE)).unwrap();
    assert_eq!(&pack[..8], b"SMLSPAK3", "pack index is binary");
    let names: Vec<String> = std::fs::read_dir(&bins)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, [PACK_FILE], "no separate stamp or graph file");
    let reader = smlsc_core::pack::PackReader::open(&bins.join(PACK_FILE))
        .unwrap()
        .unwrap();
    assert_eq!(reader.stamps().len(), 3, "the stamps are a pack section");
    drop(reader);

    let collector = trace::Collector::new();
    collector.install();
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_bins(&bins).unwrap();
    let p2 = Project::from_dir(&src).unwrap();
    let report = warm.build(&p2).unwrap();
    trace::uninstall();

    assert_eq!(report.recompiled.len(), 0, "{:?}", report.decisions);
    assert_eq!(collector.counter(trace::names::STAMP_HITS), 3);
    assert_eq!(collector.counter(trace::names::SOURCE_READS), 0);
    assert_eq!(collector.counter(trace::names::BIN_INDEX_ONLY), 3);
    assert_eq!(collector.counter(trace::names::BIN_LAZY_BODIES), 0);
    assert_eq!(
        collector.counter(trace::names::REHYDRATE_ALLOCS),
        0,
        "nothing rehydrated, nothing copied"
    );

    // A leaf edit makes `top` recompile, which rehydrates its import's
    // pickled env — still without copying a single string or byte
    // buffer out of the pickle.
    std::fs::write(
        src.join("top.sml"),
        "structure Top = struct val t = Mid.v * 3 end",
    )
    .unwrap();
    let collector = trace::Collector::new();
    collector.install();
    let p3 = Project::from_dir(&src).unwrap();
    let report = warm.build(&p3).unwrap();
    trace::uninstall();
    assert_eq!(report.recompiled.len(), 1, "{:?}", report.decisions);
    assert!(
        collector.counter(trace::names::PICKLE_BYTES) > 0,
        "pickles were actually parsed"
    );
    assert_eq!(
        collector.counter(trace::names::REHYDRATE_ALLOCS),
        0,
        "rehydration is allocation-free over borrowed slices"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A rename preserves (mtime, size) and content exactly — the
/// adversarial case for a stamp cache.  Records are keyed by unit, so
/// the renamed file must re-digest and never be served the old unit's
/// analysis.
#[test]
fn renamed_file_never_serves_stale_stamps_or_analysis() {
    let base = temp_dir("rename");
    let src = base.join("src");
    let bins = base.join("bins");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("a.sml"), "structure A = struct val n = 1 end").unwrap();

    let mut irm = Irm::new(Strategy::Cutoff);
    let p = Project::from_dir(&src).unwrap();
    irm.build(&p).unwrap();
    irm.save_bins(&bins).unwrap();

    std::fs::rename(src.join("a.sml"), src.join("b.sml")).unwrap();

    let collector = trace::Collector::new();
    collector.install();
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_bins(&bins).unwrap();
    let p2 = Project::from_dir(&src).unwrap();
    let report = warm.build(&p2).unwrap();
    trace::uninstall();

    assert_eq!(collector.counter(trace::names::STAMP_HITS), 0);
    assert!(report.was_recompiled("b"), "{:?}", report.decisions);
    assert!(matches!(report.decisions[0], (_, RebuildDecision::NewUnit)));
    assert!(warm.bin_meta("b").is_some());
    std::fs::remove_dir_all(&base).ok();
}

/// Writes `files` under `src`, dated a minute back so their stats are
/// settled (not racy) when the first save records them.
fn write_settled(src: &Path, files: &[(&str, &str)]) {
    std::fs::create_dir_all(src).unwrap();
    for (name, text) in files {
        let path = src.join(name);
        std::fs::write(&path, text).unwrap();
        set_mtime(&path, 60);
    }
}

fn set_mtime(path: &Path, secs_ago: u64) {
    std::fs::File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(secs_ago))
        .unwrap();
}

const CHAIN: [(&str, &str); 3] = [
    ("base.sml", "structure Base = struct val n = 10 end"),
    ("mid.sml", "structure Mid = struct val v = Base.n + 1 end"),
    ("top.sml", "structure Top = struct val t = Mid.v * 2 end"),
];

/// A `touch` moves a file's stat but not its bytes: a fresh manager
/// that loads the pack reads and digests that one file and reuses its
/// recorded analysis, so nothing is parsed and nothing recompiles.
#[test]
fn touched_file_reuses_its_recorded_analysis_in_a_fresh_process() {
    let base = temp_dir("touch");
    let (src, bins) = (base.join("src"), base.join("bins"));
    write_settled(&src, &CHAIN);
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&Project::from_dir(&src).unwrap()).unwrap();
    irm.save_bins(&bins).unwrap();

    set_mtime(&src.join("mid.sml"), 30);
    let collector = trace::Collector::new();
    collector.install();
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_bins(&bins).unwrap();
    let report = warm.build(&Project::from_dir(&src).unwrap()).unwrap();
    trace::uninstall();

    assert_eq!(report.recompiled.len(), 0, "{:?}", report.decisions);
    assert_eq!(collector.counter(trace::names::SOURCE_READS), 1);
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_MISSES), 0);
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_HITS), 1);
    std::fs::remove_dir_all(&base).ok();
}

/// A stat the pack holds as racy (taken at or after its save) is
/// re-read by a fresh manager; when the bytes still match the record,
/// re-vouching the stat is not worth a save of its own.  A read-only
/// build beside a daemon thus leaves the pack untouched, and the
/// daemon's next save can still append.
#[test]
fn a_build_that_only_reconfirms_racy_stats_writes_nothing() {
    let base = temp_dir("heals");
    let (src, bins) = (base.join("src"), base.join("bins"));
    write_settled(&src, &CHAIN);
    // Dated after the save: racy when the next manager loads the pack.
    std::fs::File::options()
        .write(true)
        .open(src.join("mid.sml"))
        .unwrap()
        .set_modified(std::time::SystemTime::now() + std::time::Duration::from_secs(60))
        .unwrap();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&Project::from_dir(&src).unwrap()).unwrap();
    irm.save_bins(&bins).unwrap();
    let pack = bins.join(smlsc_core::pack::PACK_FILE);
    let identity = || {
        use std::os::unix::fs::MetadataExt;
        let m = std::fs::metadata(&pack).unwrap();
        (m.ino(), m.len())
    };
    let before = identity();

    let collector = trace::Collector::new();
    collector.install();
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_bins(&bins).unwrap();
    let report = warm.build(&Project::from_dir(&src).unwrap()).unwrap();
    warm.save_bins(&bins).unwrap();
    trace::uninstall();
    assert_eq!(report.recompiled.len(), 0, "{:?}", report.decisions);
    assert_eq!(
        collector.counter(trace::names::SOURCE_READS),
        1,
        "the racy file is re-read"
    );
    assert_eq!(
        identity(),
        before,
        "the pack is neither appended to nor rewritten"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A full rewrite carries the record of each unit it holds a bin for
/// and no other, so a dropped unit's record does not outlive its bin.
#[test]
fn a_rewrite_drops_the_records_of_units_without_bins() {
    use smlsc_core::pack::{PackReader, PACK_FILE};
    let base = temp_dir("records");
    let (src, bins) = (base.join("src"), base.join("bins"));
    write_settled(&src, &CHAIN);
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&Project::from_dir(&src).unwrap()).unwrap();
    irm.save_bins(&bins).unwrap();

    // Dropping a unit's bin forces the next save to rewrite the pack.
    assert!(irm.quarantine_bin(smlsc_ids::Symbol::intern("top")));
    irm.save_bins(&bins).unwrap();

    let reader = PackReader::open(&bins.join(PACK_FILE)).unwrap().unwrap();
    assert_eq!(reader.entries().len(), 2);
    assert_eq!(reader.stamps().len(), reader.entries().len());
    std::fs::remove_dir_all(&base).ok();
}

/// A deleted source takes its bin and stamp record out of the pack at
/// the next save — in a fresh process (the CLI) and in a long-lived
/// manager (the daemon) alike — and the save after that is a no-op.
#[test]
fn a_removed_source_leaves_the_pack_at_the_next_save() {
    use smlsc_core::pack::{PackReader, PACK_FILE};
    use std::os::unix::fs::MetadataExt;
    let base = temp_dir("removed");
    let (src, bins) = (base.join("src"), base.join("bins"));
    let pack = bins.join(PACK_FILE);
    let units_in_pack = || {
        let reader = PackReader::open(&pack).unwrap().unwrap();
        let mut names: Vec<&str> = reader.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(reader.stamps().len(), names.len());
        names.join(",")
    };
    let build_and_save = |irm: &mut Irm| {
        irm.build(&Project::from_dir(&src).unwrap()).unwrap();
        irm.save_bins(&bins).unwrap();
    };
    write_settled(&src, &CHAIN);
    let mut resident = Irm::new(Strategy::Cutoff);
    build_and_save(&mut resident);
    assert_eq!(units_in_pack(), "base,mid,top");

    std::fs::remove_file(src.join("top.sml")).unwrap();
    let mut fresh = Irm::new(Strategy::Cutoff);
    assert_eq!(fresh.load_bins(&bins).unwrap().loaded, 3);
    build_and_save(&mut fresh);
    assert_eq!(fresh.bin_count(), 2);
    assert_eq!(units_in_pack(), "base,mid");
    let mut reopened = Irm::new(Strategy::Cutoff);
    assert_eq!(reopened.load_bins(&bins).unwrap().loaded, 2);
    assert_eq!(reopened.bin_count(), 2);
    let stat = || std::fs::metadata(&pack).map(|m| (m.ino(), m.len(), m.mtime_nsec()));
    let before = stat().unwrap();
    build_and_save(&mut reopened);
    assert_eq!(
        stat().unwrap(),
        before,
        "a no-op save after the drop writes nothing"
    );

    // The long-lived manager still holds `top`: its next build over the
    // same directory drops it too.
    assert_eq!(resident.bin_count(), 3);
    build_and_save(&mut resident);
    assert_eq!(resident.bin_count(), 2);
    assert_eq!(units_in_pack(), "base,mid");
    std::fs::remove_dir_all(&base).ok();
}

// ---------------------------------------------------------------------
// The stamped-vs-paranoid equivalence property.
// ---------------------------------------------------------------------

/// The two warm-build configurations under test, by `paranoid` flag:
/// the fast path (stamps trusted, bodies lazy) and the eager baseline
/// (every source re-digested, every body verified at load).
const CONFIGS: [bool; 2] = [false, true];

/// Mirrors the workload's current sources into `src` as real files.
fn write_sources(src: &Path, w: &Workload) {
    for i in 0..w.module_count() {
        let name = module_name(i);
        let text = w.project().file(&name).unwrap().read_text().unwrap();
        std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
    }
}

/// Per-unit (name, source pid, export pid) observed after a build.
type UnitPids = Vec<(String, Pid, Pid)>;

/// Runs one cold-process build session against the sources in
/// `src`, persisting its pack under `bin_dir`, and returns the
/// decision sequence plus every unit's (source pid, export pid).
fn session_step(
    paranoid: bool,
    src: &Path,
    bin_dir: &Path,
    n: usize,
) -> (Vec<(String, RebuildDecision)>, UnitPids) {
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.set_paranoid(paranoid);
    if bin_dir.is_dir() {
        let outcome = irm.load_bins(bin_dir).unwrap();
        assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    }
    let project = Project::from_dir(src).unwrap();
    let report = irm.build(&project).unwrap();
    let decisions = report
        .decisions
        .iter()
        .map(|(s, d)| (s.to_string(), d.clone()))
        .collect();
    irm.save_bins(bin_dir).unwrap();
    let pids = (0..n)
        .map(|i| {
            let name = module_name(i);
            let meta = irm.bin_meta(&name).expect("built unit has a bin");
            (name, meta.source_pid, meta.export_pid)
        })
        .collect();
    (decisions, pids)
}

use proptest::strategy::Strategy as PropStrategy;

fn arb_edit() -> impl PropStrategy<Value = EditKind> {
    prop_oneof![
        Just(EditKind::CommentOnly),
        Just(EditKind::BodyOnly),
        Just(EditKind::InterfaceAdd),
        Just(EditKind::InterfaceChangeType),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over any seeded edit history, stamped and paranoid sessions
    /// produce bit-identical source/export pids and the exact same
    /// `RebuildDecision` sequence at every step.
    #[test]
    fn warm_paths_agree_with_the_eager_paranoid_baseline(
        seed in any::<u64>(),
        edits in proptest::collection::vec((any::<u16>(), arb_edit()), 1..4),
    ) {
        let spec = WorkloadSpec {
            topology: Topology::Library { lib: 2, clients: 3, seed },
            funs_per_module: 1,
            reexport_dep_types: false,
        };
        let mut w = Workload::new(spec);
        let n = w.module_count();
        let base = temp_dir("equiv");
        let src = base.join("src");
        std::fs::create_dir_all(&src).unwrap();
        let bin_dirs: Vec<PathBuf> = (0..CONFIGS.len()).map(|i| base.join(format!("cfg{i}"))).collect();
        write_sources(&src, &w);

        for step in 0..=edits.len() {
            if step > 0 {
                let (victim, kind) = edits[step - 1];
                w.edit(victim as usize % n, kind);
                write_sources(&src, &w);
            }
            let results: Vec<_> = CONFIGS
                .iter()
                .zip(&bin_dirs)
                .map(|(paranoid, dir)| session_step(*paranoid, &src, dir, n))
                .collect();
            for (i, r) in results.iter().enumerate().skip(1) {
                prop_assert_eq!(
                    &r.0, &results[0].0,
                    "step {}: config {} decisions diverged from the fast path", step, i
                );
                prop_assert_eq!(
                    &r.1, &results[0].1,
                    "step {}: config {} pids diverged from the fast path", step, i
                );
            }
            // On the no-op step 0 re-check below, the fast path must
            // also *reuse* everything (sanity that the cache persists).
        }

        // One final no-op step: every configuration reuses every unit.
        for (paranoid, dir) in CONFIGS.iter().zip(&bin_dirs) {
            let (decisions, _) = session_step(*paranoid, &src, dir, n);
            prop_assert!(
                decisions.iter().all(|(_, d)| !d.requires_recompile()),
                "no-op rebuild recompiled something: {:?}", decisions
            );
        }
        std::fs::remove_dir_all(&base).ok();
    }
}
