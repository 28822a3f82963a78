//! Library-level crash-debris recovery: every class of half-finished
//! state an aborted process can leave behind is (a) harmless to the
//! next build and (b) detected and repaired by `doctor::run` — the
//! same audit/repair engine behind `smlsc doctor`.
//!
//! The subprocess harness (`crates/smlsc/tests/crash_recovery.rs`)
//! kills real `smlsc` processes at the registered crash points; this
//! suite constructs the resulting debris classes directly — tmp
//! litter, torn ledger tails, truncated and bit-flipped packs,
//! corrupted store objects, stale daemon files — so each repair path
//! is exercised in isolation, including the ones a lucky crash might
//! not produce.

use std::path::{Path, PathBuf};
use std::time::Duration;

use smlsc::core::doctor::{self, DoctorOptions, DoctorVerdict};
use smlsc::core::irm::{Irm, Project, Strategy};
use smlsc::core::ledger::{Ledger, LedgerRecord, LEDGER_FILE, LEDGER_VERSION};
use smlsc::core::pack::PackReader;
use smlsc::core::store::Store;
use smlsc::core::trace::names;
use smlsc::core::CoreError;
use smlsc::ids::Pid;
use smlsc::workload::{Topology, Workload, WorkloadSpec};
use smlsc_faults::{install_scoped, points, FaultKind, FaultPlan, FaultRule};

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-crashlib-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn doctor_on(bin_dir: &Path, store: Option<PathBuf>, fix: bool) -> doctor::DoctorReport {
    doctor::run(&DoctorOptions {
        bin_dir: bin_dir.to_path_buf(),
        store,
        fix,
    })
}

fn record(id: u64) -> LedgerRecord {
    LedgerRecord {
        version: LEDGER_VERSION,
        build_id: id,
        timestamp_ms: 1000 + id,
        strategy: "cutoff".into(),
        jobs: 4,
        host_parallelism: 8,
        wall_us: 100 * id,
        parse_us: 10,
        elaborate_us: 20,
        hash_us: 3,
        dehydrate_us: 4,
        rehydrate_us: 5,
        compiled: 2,
        reused: 1,
        cutoff: 1,
        store_hits: 0,
        skipped: 0,
        failed: 0,
        stamp_hits: 3,
        stamp_misses: 0,
        store_misses: 0,
        deps_cache_hits: 3,
        deps_cache_misses: 0,
        source_reads: 0,
        critical_path: 2,
        exit_code: 0,
        daemon: 0,
    }
}

/// Tmp litter — the staging files a crash between `write` and `rename`
/// strands — is reported, swept by `--fix`, and gone on re-audit.
#[test]
fn tmp_litter_from_crashed_commits_is_swept() {
    let bin = temp("litter");
    // One stranded staging file per durable-write path: stamps, pack,
    // and a ledger rotation.
    for name in ["stamps.tmp-4242-0", "bins.tmp-4242-1", "builds.tmp-4242-2"] {
        std::fs::write(bin.join(name), b"half-written staging bytes").unwrap();
    }

    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert_eq!(report.exit_code(), 4);
    let litter: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.state == "litter")
        .collect();
    assert_eq!(litter.len(), 3, "all three staging files reported");

    let report = doctor_on(&bin, None, true);
    assert_eq!(report.verdict(), DoctorVerdict::Repaired);
    assert_eq!(report.exit_code(), 0);
    for name in ["stamps.tmp-4242-0", "bins.tmp-4242-1", "builds.tmp-4242-2"] {
        assert!(!bin.join(name).exists(), "{name} swept");
    }
    assert_eq!(
        doctor_on(&bin, None, false).verdict(),
        DoctorVerdict::Healthy
    );
    std::fs::remove_dir_all(&bin).ok();
}

/// A torn ledger tail (crash mid-`append`) never corrupts earlier
/// records, is healed over by the next append, and is compacted away
/// by the doctor.
#[test]
fn torn_ledger_tail_heals_and_compacts() {
    use std::io::Write;
    let bin = temp("ledger");
    let ledger = Ledger::for_bin_dir(&bin);
    for i in 1..=3 {
        ledger.append(&record(i)).unwrap();
    }

    // Crash mid-append: a prefix of a record with no trailing newline.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(bin.join(LEDGER_FILE))
        .unwrap();
    f.write_all(b"{\"v\":1,\"build_id\":99,\"timest").unwrap();
    drop(f);

    let audit = ledger.audit();
    assert!(audit.torn_tail, "torn tail detected");
    assert_eq!(audit.valid, 3, "earlier records untouched");

    // The next append heals over the torn tail: its record lands on a
    // fresh line and every valid record survives.
    ledger.append(&record(4)).unwrap();
    let back = ledger.read();
    assert_eq!(back.len(), 4);
    assert_eq!(back.last().unwrap().build_id, 4);
    let audit = ledger.audit();
    assert!(!audit.torn_tail, "tail healed by the append");
    assert_eq!(
        audit.lines - audit.valid,
        1,
        "the torn fragment remains as one dead line"
    );

    // Doctor: reported without --fix, compacted with it.
    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert!(report.findings.iter().any(|f| f.state == "ledger"));
    let report = doctor_on(&bin, None, true);
    assert_eq!(report.verdict(), DoctorVerdict::Repaired);
    let audit = ledger.audit();
    assert_eq!(
        (audit.lines, audit.valid),
        (4, 4),
        "compacted to valid records only"
    );
    assert_eq!(ledger.read().len(), 4, "no record lost by the repair");
    std::fs::remove_dir_all(&bin).ok();
}

/// Seeds a workload, builds it, and persists it to `bin`.
fn built_workload(bin: &Path, units: usize) -> Irm {
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    irm.save_bins(bin).unwrap();
    irm
}

/// A truncated pack (crash mid-rename exposed by a dirty page loss, or
/// plain disk truncation) is moved aside by the doctor, and the next
/// build recompiles from sources without failing.
#[test]
fn truncated_pack_is_moved_aside_and_rebuilt() {
    let bin = temp("packtrunc");
    built_workload(&bin, 30);
    let pack_path = bin.join("bins.pack");
    let bytes = std::fs::read(&pack_path).unwrap();
    std::fs::write(&pack_path, &bytes[..bytes.len() - 16]).unwrap();
    assert!(
        PackReader::open(&pack_path).is_err(),
        "truncated pack no longer opens"
    );

    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!pack_path.exists(), "unreadable pack moved aside");

    // The project still builds: a fresh session falls back to sources.
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 30,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.load_bins(&bin).unwrap();
    let report = irm.build(w.project()).unwrap();
    assert!(report.succeeded());
    irm.save_bins(&bin).unwrap();
    assert!(
        PackReader::open(&pack_path).unwrap().is_some(),
        "pack rebuilt"
    );
    std::fs::remove_dir_all(&bin).ok();
}

/// A single flipped byte inside one body (latent media corruption
/// under a valid index) is caught by the digest on read; the doctor
/// rewrites the pack keeping every good unit.
#[test]
fn bitflipped_pack_body_is_dropped_keeping_good_units() {
    let bin = temp("packflip");
    built_workload(&bin, 30);
    let pack_path = bin.join("bins.pack");
    let pack = PackReader::open(&pack_path).unwrap().unwrap();
    let victim = pack.entries()[0].clone();
    let total = pack.entries().len();
    drop(pack);

    let mut bytes = std::fs::read(&pack_path).unwrap();
    let mid = usize::try_from(victim.offset + victim.len / 2).unwrap();
    bytes[mid] ^= 0xFF;
    std::fs::write(&pack_path, &bytes).unwrap();

    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    let pack = PackReader::open(&pack_path).unwrap().unwrap();
    assert_eq!(
        pack.entries().len(),
        total - 1,
        "only the corrupt body dropped"
    );
    for e in pack.entries() {
        pack.read_body(e.offset, e.len, e.digest)
            .unwrap_or_else(|err| panic!("surviving body {} must verify: {err}", e.name));
    }
    std::fs::remove_dir_all(&bin).ok();
}

/// A corrupted store object (partial write that still got its final
/// name) is quarantined — never served — and the doctor reports the
/// quarantine as a completed repair.
#[test]
fn corrupt_store_object_is_quarantined_not_served() {
    let bin = temp("storebin");
    let root = temp("storeroot");
    let store = Store::open(&root).unwrap();
    let payload = b"compiled unit payload".to_vec();
    let key = Pid::of_bytes(&payload);
    store.put(key, &payload).unwrap();
    assert_eq!(store.get(key), Some(payload.clone()));

    // Corrupt the object in place, keeping its (valid-looking) name.
    let object = walk_files(&root.join("objects"))
        .into_iter()
        .next()
        .expect("one published object on disk");
    let bytes = std::fs::read(&object).unwrap();
    std::fs::write(&object, &bytes[..bytes.len() / 2]).unwrap();

    let report = doctor_on(&bin, Some(root.clone()), false);
    let store_findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.state == "store")
        .collect();
    assert_eq!(store_findings.len(), 1);
    assert!(
        store_findings[0].repaired,
        "verification quarantines on detection, even without --fix"
    );
    assert_eq!(store.get(key), None, "corrupt object is never served");
    std::fs::remove_dir_all(&bin).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// Store tmp litter (a publisher killed before its rename) is swept by
/// the doctor's `--fix` pass.
#[test]
fn store_tmp_litter_is_swept_by_fix() {
    let bin = temp("storetmpbin");
    let root = temp("storetmp");
    let store = Store::open(&root).unwrap();
    drop(store);
    std::fs::write(root.join("tmp/obj-1234-0"), b"half a payload").unwrap();

    let report = doctor_on(&bin, Some(root.clone()), false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    let report = doctor_on(&bin, Some(root.clone()), true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!root.join("tmp/obj-1234-0").exists(), "litter swept");
    std::fs::remove_dir_all(&bin).ok();
    std::fs::remove_dir_all(&root).ok();
}

/// The store's own sweep respects the age gate: fresh tmp files (a
/// publisher mid-flight right now) are left alone.
#[test]
fn store_tmp_sweep_respects_min_age() {
    let root = temp("storeage");
    let store = Store::open(&root).unwrap();
    std::fs::write(root.join("tmp/obj-9-9"), b"in flight").unwrap();
    let swept = store.sweep_tmp(Duration::from_secs(3600)).unwrap();
    assert_eq!(swept, 0, "young tmp files survive an aged sweep");
    let swept = store.sweep_tmp(Duration::ZERO).unwrap();
    assert_eq!(swept, 1, "a zero-age sweep collects them");
    std::fs::remove_dir_all(&root).ok();
}

/// An IO failure at any stage of the pack rewrite leaves the previous
/// pack fully readable — the build's artifacts are never torn by a
/// failed save — at both harness scales.
#[test]
fn failed_pack_save_never_tears_the_previous_pack() {
    for units in [50, 200] {
        for stage in ["begin", "staged"] {
            let bin = temp(&format!("iosave-{units}-{stage}"));
            let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
                units,
                seed: 11,
            }));
            let mut irm = Irm::new(Strategy::Cutoff);
            irm.build(w.project()).unwrap();
            irm.save_bins(&bin).unwrap();

            // Dirty one unit so the next save really rewrites the pack,
            // then fail that save at the given stage.
            w.edit(units - 1, smlsc::workload::EditKind::BodyOnly);
            irm.build(w.project()).unwrap();
            {
                let _f = install_scoped(
                    FaultPlan::seeded(1)
                        .with(FaultRule::new(points::PACK_SAVE, FaultKind::Io).filtered(stage)),
                );
                irm.save_bins(&bin).unwrap_err();
            }

            // The previous pack is intact: opens, and every body
            // verifies against its digest.
            let pack = PackReader::open(&bin.join("bins.pack")).unwrap().unwrap();
            assert_eq!(pack.entries().len(), units, "{units}/{stage}: entry count");
            for e in pack.entries() {
                pack.read_body(e.offset, e.len, e.digest)
                    .unwrap_or_else(|err| {
                        panic!(
                            "{units}/{stage}: body {} torn by failed save: {err}",
                            e.name
                        )
                    });
            }
            drop(pack);

            // With the fault gone the save completes and carries the
            // edited unit.
            irm.save_bins(&bin).unwrap();
            let pack = PackReader::open(&bin.join("bins.pack")).unwrap().unwrap();
            assert_eq!(pack.entries().len(), units);
            std::fs::remove_dir_all(&bin).ok();
        }
    }
}

/// `pack.save=torn` goes through the one shared torn rule: the commit
/// publishes the first half of the pack under its final name.  The
/// reader rejects it whole, the doctor reports it, and the next build
/// and save recover to exactly a clean build's export pids.
#[test]
fn torn_pack_save_is_rejected_reported_and_recovered() {
    let bin = temp("torn-pack");
    let spec = Topology::Monorepo {
        units: 30,
        seed: 11,
    };
    let w = Workload::new(WorkloadSpec::with_topology(spec));
    let export_pids = |irm: &Irm| -> Vec<Pid> {
        let files = w.project().files();
        files
            .iter()
            .map(|f| irm.bin(f.name.as_str()).unwrap().unit.export_pid)
            .collect()
    };
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    let clean = export_pids(&irm);
    let torn = FaultPlan::seeded(1).with(FaultRule::new(points::PACK_SAVE, FaultKind::Torn));
    {
        let _f = install_scoped(torn);
        irm.save_bins(&bin).unwrap();
    }
    let pack = PackReader::open(&bin.join("bins.pack"));
    assert!(
        matches!(pack, Err(CoreError::CorruptBin(_))),
        "rejected whole"
    );
    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert!(report.findings.iter().any(|f| f.state == "pack"));

    let mut irm = Irm::new(Strategy::Cutoff);
    irm.load_bins(&bin).unwrap();
    assert!(irm.build(w.project()).unwrap().succeeded());
    irm.save_bins(&bin).unwrap();
    assert_eq!(export_pids(&irm), clean);
    assert_eq!(doctor_on(&bin, None, true).exit_code(), 0);
    let audit = doctor_on(&bin, None, false);
    assert_eq!(
        audit.verdict(),
        DoctorVerdict::Healthy,
        "{}",
        audit.to_json()
    );
    std::fs::remove_dir_all(&bin).ok();
}

/// `pack.save=torn` on the append path (a one-leaf edit's save) keeps
/// half of the new segment: a torn tail.  The next open serves the
/// valid prefix and ignores the tail, the doctor reports it, and the
/// next save cuts it off before appending; `doctor --fix` cuts it off
/// too.  Either way the builds land on a clean build's export pids.
#[test]
fn torn_pack_append_leaves_a_tail_the_next_save_cuts_off() {
    let bin = temp("torn-append");
    let pack_path = bin.join("bins.pack");
    let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 200,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    irm.save_bins(&bin).unwrap();
    let export_pids = |irm: &Irm, w: &Workload| -> Vec<Pid> {
        w.project()
            .files()
            .iter()
            .map(|f| irm.bin(f.name.as_str()).unwrap().unit.export_pid)
            .collect()
    };
    let source_pid = |pack: &PackReader, leaf: usize| {
        let name = format!("M{leaf}");
        let entry = pack.entries().iter().find(|e| e.name.as_str() == name);
        entry.unwrap().source_pid
    };
    let torn = FaultPlan::seeded(1).with(FaultRule::new(points::PACK_SAVE, FaultKind::Torn));
    for (round, leaf) in [199, 198].into_iter().enumerate() {
        let before = PackReader::open(&pack_path).unwrap().unwrap();
        let (valid_end, old_source) = (before.tail().valid_end(), source_pid(&before, leaf));
        drop(before);

        w.edit(leaf, smlsc::workload::EditKind::BodyOnly);
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.load_bins(&bin).unwrap();
        assert_eq!(irm.build(w.project()).unwrap().recompiled.len(), 1);
        {
            let _f = install_scoped(torn.clone());
            irm.save_bins(&bin).unwrap();
        }
        let pack = PackReader::open(&pack_path).unwrap().unwrap();
        assert!(
            pack.torn_tail() > 0,
            "round {round}: the append left a torn tail"
        );
        assert_eq!(pack.tail().valid_end(), valid_end, "round {round}");
        assert_eq!(
            source_pid(&pack, leaf),
            old_source,
            "round {round}: the torn segment is ignored"
        );
        drop(pack);
        let report = doctor_on(&bin, None, false);
        assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.state == "pack" && f.issue.contains("torn tail")),
            "{}",
            report.to_json()
        );

        if round == 0 {
            // The next save (a fresh session that recompiles the leaf)
            // truncates the tail and appends in its place.
            let mut irm = Irm::new(Strategy::Cutoff);
            irm.load_bins(&bin).unwrap();
            assert_eq!(irm.build(w.project()).unwrap().recompiled.len(), 1);
            irm.save_bins(&bin).unwrap();
        } else {
            // `doctor --fix` truncates it; the next session recompiles.
            let report = doctor_on(&bin, None, true);
            assert_eq!(
                report.verdict(),
                DoctorVerdict::Repaired,
                "{}",
                report.to_json()
            );
            let pack = PackReader::open(&pack_path).unwrap().unwrap();
            assert_eq!(pack.torn_tail(), 0);
            assert_eq!(std::fs::metadata(&pack_path).unwrap().len(), valid_end);
            drop(pack);
            let mut irm = Irm::new(Strategy::Cutoff);
            irm.load_bins(&bin).unwrap();
            assert_eq!(irm.build(w.project()).unwrap().recompiled.len(), 1);
            irm.save_bins(&bin).unwrap();
        }
        let pack = PackReader::open(&pack_path).unwrap().unwrap();
        assert_eq!(pack.torn_tail(), 0, "round {round}: tail cut off");
        assert_eq!(
            std::fs::metadata(&pack_path).unwrap().len(),
            pack.tail().valid_end()
        );
        assert!(
            pack.tail().valid_end() > valid_end,
            "round {round}: appended"
        );
        drop(pack);

        let mut fresh = Irm::new(Strategy::Cutoff);
        fresh.load_bins(&bin).unwrap();
        assert!(fresh.build(w.project()).unwrap().recompiled.is_empty());
        let mut clean = Irm::new(Strategy::Cutoff);
        clean.build(w.project()).unwrap();
        assert_eq!(
            export_pids(&fresh, &w),
            export_pids(&clean, &w),
            "round {round}"
        );
        let audit = doctor_on(&bin, None, false);
        assert_eq!(
            audit.verdict(),
            DoctorVerdict::Healthy,
            "{}",
            audit.to_json()
        );
    }
    std::fs::remove_dir_all(&bin).ok();
}

/// Stale daemon files from a killed daemon are findings; `--fix`
/// clears both lock and socket; a live owner's files are untouched.
#[test]
fn stale_daemon_files_are_cleared_live_ones_kept() {
    let bin = temp("daemonfiles");
    std::fs::write(bin.join("daemon.lock"), format!("{}\n", u32::MAX)).unwrap();
    std::fs::write(bin.join("daemon.sock"), b"").unwrap();

    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert!(!bin.join("daemon.lock").exists());
    assert!(!bin.join("daemon.sock").exists());

    // A lockfile naming a live pid (ours) is healthy state.
    std::fs::write(bin.join("daemon.lock"), format!("{}\n", std::process::id())).unwrap();
    let report = doctor_on(&bin, None, true);
    assert_eq!(report.verdict(), DoctorVerdict::Healthy);
    assert!(bin.join("daemon.lock").exists(), "live owner's lock kept");
    std::fs::remove_dir_all(&bin).ok();
}

/// A corrupt stamp section fails its segment's index digest, so only
/// that segment is lost: the doctor reports it as a torn tail and
/// `--fix` cuts it off.  Stamps are a pure accelerator, so the next
/// build re-digests the one file whose stamp the cut segment held and
/// reuses every unit.
#[test]
fn corrupt_stamp_section_is_cut_off_by_fix() {
    let base = temp("stamps");
    let (src, bin) = (base.join("src"), base.join("bins"));
    std::fs::create_dir_all(&src).unwrap();
    // Big enough that a one-stamp segment fits the 1/32 growth bound.
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 30,
        seed: 11,
    }));
    // Dated a minute back: stamps of files written in the save's own
    // filesystem tick are racy, and this test counts stamp hits.
    let settled = std::time::SystemTime::now() - Duration::from_secs(60);
    for f in w.project().files() {
        let path = src.join(format!("{}.sml", f.name));
        std::fs::write(&path, f.read_text().unwrap()).unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(settled).unwrap();
    }
    let build = |touched: bool| {
        let collector = smlsc::core::trace::Collector::new();
        collector.install();
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.load_bins(&bin).unwrap();
        let report = irm.build(&Project::from_dir(&src).unwrap()).unwrap();
        irm.save_bins(&bin).unwrap();
        smlsc::core::trace::uninstall();
        assert!(
            report.recompiled.is_empty() || !touched,
            "{:?}",
            report.decisions
        );
        collector
    };
    build(false);
    // A `touch` (to another settled mtime) appends a stamp-only segment.
    let pack_path = bin.join("bins.pack");
    let before = std::fs::metadata(&pack_path).unwrap().len();
    let old = settled - Duration::from_secs(60);
    std::fs::File::options()
        .write(true)
        .open(src.join("M29.sml"))
        .unwrap()
        .set_modified(old)
        .unwrap();
    build(true);
    let len = std::fs::metadata(&pack_path).unwrap().len();
    assert!(len > before, "the touch appended a segment");

    // Flip a byte of that segment's stamp section, the last bytes
    // before its 40-byte footer.
    let mut bytes = std::fs::read(&pack_path).unwrap();
    bytes[len as usize - 40 - 3] ^= 0xff;
    std::fs::write(&pack_path, &bytes).unwrap();
    let reader = PackReader::open(&pack_path).unwrap().unwrap();
    assert_eq!(
        reader.torn_tail(),
        len - before,
        "only the last segment is lost"
    );
    drop(reader);

    let report = doctor_on(&bin, None, false);
    assert_eq!(report.verdict(), DoctorVerdict::IssuesFound);
    assert!(report
        .findings
        .iter()
        .any(|f| f.state == "pack" && f.issue.contains("torn tail")));
    let report = doctor_on(&bin, None, true);
    assert_eq!(
        report.verdict(),
        DoctorVerdict::Repaired,
        "{}",
        report.to_json()
    );
    assert_eq!(
        doctor_on(&bin, None, false).verdict(),
        DoctorVerdict::Healthy
    );
    assert_eq!(std::fs::metadata(&pack_path).unwrap().len(), before);

    // The touched file's stamp went with the segment: one re-digest,
    // nothing recompiled.
    let collector = build(true);
    assert_eq!(collector.counter(names::STAMP_MISSES), 1);
    assert_eq!(collector.counter(names::SOURCE_READS), 1);
    assert_eq!(collector.counter(names::STAMP_HITS), 29);
    std::fs::remove_dir_all(&base).ok();
}

/// The seeded 40-unit workload plus one new unit: a change of the unit
/// set, so the build re-derives the import graph and its save carries a
/// graph section.
fn with_new_unit(w: &Workload) -> Project {
    let mut p = w.project().clone();
    p.add("Extra", "structure Extra = struct val x = 1 end");
    p
}

/// A torn append carrying a new graph section (a crash mid-append)
/// leaves a torn tail: the next session loads the valid prefix with the
/// previous graph, re-derives the graph from the analyses, and rebuilds
/// exactly the unit whose bin the torn segment held — never a wrong
/// build.  The doctor reports the torn tail and `--fix` cuts it off; a
/// clean save then appends a graph section covering every unit.
#[test]
fn torn_graph_section_is_rederived_and_repaired() {
    let bin = temp("graphtorn");
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 40,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    irm.save_bins(&bin).unwrap();
    let pack_path = bin.join("bins.pack");
    let clean_len = std::fs::metadata(&pack_path).unwrap().len();
    let p = with_new_unit(&w);
    irm.build(&p).unwrap();
    {
        let _f = install_scoped(
            FaultPlan::seeded(1).with(FaultRule::new(points::PACK_SAVE, FaultKind::Torn)),
        );
        irm.save_bins(&bin).unwrap();
    }
    let reader = PackReader::open(&pack_path).unwrap().unwrap();
    assert!(reader.torn_tail() > 0, "the torn append left a tail");
    assert_eq!(reader.graph().map(|g| g.len()), Some(40), "the old graph");
    drop(reader);

    // A fresh session tolerates the torn tail: it re-derives the graph
    // and rebuilds only the unit the torn segment lost.
    let collector = smlsc::core::trace::Collector::new();
    collector.install();
    let mut warm = Irm::new(Strategy::Cutoff);
    warm.load_bins(&bin).unwrap();
    let report = warm.build(&p).unwrap();
    smlsc::core::trace::uninstall();
    assert!(report.succeeded());
    assert_eq!(report.recompiled, [smlsc::ids::Symbol::intern("Extra")]);
    assert_eq!(report.reused, 40);
    assert_eq!(collector.counter(names::DEPS_PACK_MISSES), 1);

    // Doctor: reported without --fix, cut off with it.
    let dr = doctor_on(&bin, None, false);
    assert_eq!(dr.verdict(), DoctorVerdict::IssuesFound);
    assert!(dr.findings.iter().any(|f| f.state == "pack"));
    let dr = doctor_on(&bin, None, true);
    assert_eq!(dr.verdict(), DoctorVerdict::Repaired, "{}", dr.to_json());
    assert_eq!(std::fs::metadata(&pack_path).unwrap().len(), clean_len);

    // A clean save appends a graph section covering every unit, and the
    // next session's graph is a hit.
    warm.save_bins(&bin).unwrap();
    let reader = PackReader::open(&pack_path).unwrap().unwrap();
    assert_eq!(reader.graph().map(|g| g.len()), Some(41));
    drop(reader);
    let collector = smlsc::core::trace::Collector::new();
    collector.install();
    let mut next = Irm::new(Strategy::Cutoff);
    next.load_bins(&bin).unwrap();
    assert!(next.build(&p).unwrap().recompiled.is_empty());
    smlsc::core::trace::uninstall();
    assert_eq!(collector.counter(names::DEPS_PACK_HITS), 1);
    std::fs::remove_dir_all(&bin).ok();
}

/// An IO failure while appending a segment that carries a new graph
/// section fails the save without touching the committed pack; retrying
/// with the fault gone completes it.
#[test]
fn failed_graph_save_keeps_pack_intact() {
    let bin = temp("graphio");
    let w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units: 30,
        seed: 11,
    }));
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(w.project()).unwrap();
    irm.save_bins(&bin).unwrap();
    let pack_path = bin.join("bins.pack");
    let len = std::fs::metadata(&pack_path).unwrap().len();
    irm.build(&with_new_unit(&w)).unwrap();
    for stage in ["begin", "mid", "staged"] {
        {
            let _f = install_scoped(
                FaultPlan::seeded(1)
                    .with(FaultRule::new(points::PACK_SAVE, FaultKind::Io).filtered(stage)),
            );
            irm.save_bins(&bin).unwrap_err();
        }
        assert_eq!(std::fs::metadata(&pack_path).unwrap().len(), len, "{stage}");
        let pack = PackReader::open(&pack_path).unwrap().unwrap();
        assert_eq!(pack.entries().len(), 30, "{stage}");
        assert_eq!(pack.graph().map(|g| g.len()), Some(30), "{stage}");
    }

    irm.save_bins(&bin).unwrap();
    let pack = PackReader::open(&pack_path).unwrap().unwrap();
    assert_eq!(pack.entries().len(), 31);
    assert_eq!(pack.graph().map(|g| g.len()), Some(31));
    std::fs::remove_dir_all(&bin).ok();
}

fn walk_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(walk_files(&p));
        } else {
            out.push(p);
        }
    }
    out
}
