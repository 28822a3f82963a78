//! Chaos suite: seeded fault plans driven through the whole pipeline.
//!
//! Every `store.*` fault point is exercised with torn writes and IO
//! errors under parallel keep-going builds, and the invariants the
//! store advertises must hold throughout: a build never fails because
//! the store is sick, no corrupt object is ever *served* (reads verify
//! digests and quarantine on mismatch), and after the faults stop a
//! `verify` + `gc` pass leaves the store provably clean.

use std::path::PathBuf;
use std::sync::Arc;

use smlsc::core::irm::{FailurePolicy, Irm, Project, Strategy};
use smlsc::core::store::{GcConfig, RetryPolicy, Store};
use smlsc::ids::Pid;
use smlsc_faults::{install_scoped, points, FaultKind, FaultPlan, FaultRule};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-chaos-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn project() -> Project {
    let mut p = Project::new();
    p.add("base", "structure Base = struct val n = 10 end");
    for m in ["a", "b", "c", "d"] {
        p.add(
            format!("mid_{m}"),
            format!("structure Mid_{m} = struct val v = Base.n + 1 end"),
        );
    }
    p.add(
        "top",
        "structure Top = struct val s = Mid_a.v + Mid_b.v + Mid_c.v + Mid_d.v end",
    );
    p
}

const UNITS: [&str; 6] = ["base", "mid_a", "mid_b", "mid_c", "mid_d", "top"];

fn export_pids(irm: &Irm) -> Vec<(String, Pid)> {
    UNITS
        .iter()
        .map(|n| (n.to_string(), irm.bin(n).unwrap().unit.export_pid))
        .collect()
}

/// A fast retry policy so chaos runs don't spend wall-clock in backoff.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base_delay: std::time::Duration::from_micros(200),
        deadline: std::time::Duration::from_millis(50),
    }
}

/// Torn writes and IO errors on every store fault point, at rates the
/// retry layer can sometimes — but not always — mask.
fn storm(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with(FaultRule::new(points::STORE_PUBLISH, FaultKind::Torn).percent(25))
        .with(FaultRule::new(points::STORE_PUBLISH, FaultKind::Io).percent(20))
        .with(FaultRule::new(points::STORE_FETCH, FaultKind::Io).percent(20))
        .with(FaultRule::new(points::STORE_FETCH, FaultKind::Torn).percent(20))
        .with(FaultRule::new(points::STORE_LOCK, FaultKind::Io).percent(10))
}

/// The acceptance scenario: for three fixed seeds, a parallel
/// keep-going build through a store under fault storm still succeeds
/// with correct results, a second builder reading the possibly-torn
/// store still gets correct results, and once the faults stop the
/// store verifies clean after GC.
#[test]
fn seeded_store_faults_leave_the_store_consistent() {
    // A fault-free reference build fixes the expected pids.
    let p = project();
    let mut reference = Irm::new(Strategy::Cutoff);
    reference.build(&p).unwrap();
    let want = export_pids(&reference);

    for seed in [11u64, 42, 1994] {
        let root = temp_store(&format!("storm-{seed}"));
        {
            let _guard = install_scoped(storm(seed));
            let mut store = Store::open(&root).unwrap();
            store.set_retry_policy(fast_retry());
            // High enough that a storm of transient faults does not
            // latch degraded mode mid-test; degradation has its own
            // test below.
            store.set_degrade_after(1000);
            let mut irm = Irm::with_store(Strategy::Cutoff, Arc::new(store));
            let report = irm
                .build_with(&p, 4, FailurePolicy::KeepGoing)
                .expect("store faults must never fail the build");
            assert!(report.succeeded(), "seed {seed}: {:?}", report.failed);
            assert_eq!(export_pids(&irm), want, "seed {seed}");

            // A second cold builder reads through the same faulty
            // store: any torn object it fetches must be caught by
            // digest verification (quarantined, recompiled), never
            // silently served.
            let mut store2 = Store::open(&root).unwrap();
            store2.set_retry_policy(fast_retry());
            store2.set_degrade_after(1000);
            let mut irm2 = Irm::with_store(Strategy::Cutoff, Arc::new(store2));
            let report2 = irm2.build_with(&p, 4, FailurePolicy::KeepGoing).unwrap();
            assert!(report2.succeeded(), "seed {seed}: {:?}", report2.failed);
            assert_eq!(export_pids(&irm2), want, "seed {seed}");
        }

        // Faults stopped: quarantine whatever the storm tore, purge it,
        // and the store must verify clean.
        let store = Store::open(&root).unwrap();
        store.verify().unwrap();
        store.gc(&GcConfig::default()).unwrap();
        let clean = store.verify().unwrap();
        assert!(
            clean.corrupt.is_empty(),
            "seed {seed}: store still corrupt after verify+gc: {:?}",
            clean.corrupt
        );

        // And the clean store still serves a full cold build.
        let mut irm3 = Irm::with_store(Strategy::Cutoff, Arc::new(store));
        irm3.build(&p).unwrap();
        assert_eq!(export_pids(&irm3), want, "seed {seed}");
        std::fs::remove_dir_all(&root).ok();
    }
}

/// A store whose every operation fails flips into degraded mode after
/// the configured number of consecutive failures; the build completes
/// correctly as if no store were configured.
#[test]
fn unreachable_store_degrades_instead_of_failing_the_build() {
    let root = temp_store("degrade");
    let _guard = install_scoped(
        FaultPlan::default()
            .with(FaultRule::new(points::STORE_FETCH, FaultKind::Io))
            .with(FaultRule::new(points::STORE_PUBLISH, FaultKind::Io)),
    );
    let mut store = Store::open(&root).unwrap();
    store.set_retry_policy(fast_retry());
    store.set_degrade_after(2);
    let store = Arc::new(store);
    let mut irm = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let p = project();
    let report = irm.build_with(&p, 4, FailurePolicy::KeepGoing).unwrap();
    assert!(report.succeeded(), "{:?}", report.failed);
    assert!(store.is_degraded(), "persistent faults must latch degraded");

    // Degraded no-store mode still produces a correct build.
    let mut reference = Irm::new(Strategy::Cutoff);
    reference.build(&p).unwrap();
    assert_eq!(export_pids(&irm), export_pids(&reference));
    std::fs::remove_dir_all(&root).ok();
}

/// A torn body write inside `bins.pack` is caught on a paranoid reload
/// (every body digest-verified at load): the torn unit is reported on
/// its own, every healthy unit still loads, and the next build
/// recompiles exactly the unit whose bin was lost.  (Lazy verification
/// of torn bodies is exercised in tests/warm_builds.rs.)
#[test]
fn torn_bin_save_is_tolerated_per_file_on_reload() {
    let dir = temp_store("tornbin");
    let mut p = Project::new();
    p.add("chbase", "structure Chbase = struct val n = 1 end");
    p.add(
        "chvictim",
        "structure Chvictim = struct val v = Chbase.n end",
    );
    p.add("chtop", "structure Chtop = struct val t = Chvictim.v end");

    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    {
        let _guard = install_scoped(
            FaultPlan::default()
                .with(FaultRule::new(points::BIN_SAVE, FaultKind::Torn).filtered("chvictim")),
        );
        irm.save_bins(&dir).unwrap();
    }

    let mut irm2 = Irm::new(Strategy::Cutoff);
    irm2.set_paranoid(true);
    let outcome = irm2.load_bins(&dir).unwrap();
    assert_eq!(outcome.loaded, 2, "healthy bins load");
    assert_eq!(outcome.corrupt.len(), 1, "the torn bin is reported");

    let report = irm2.build(&p).unwrap();
    assert!(report.was_recompiled("chvictim"));
    assert!(!report.was_recompiled("chbase"));
    assert!(
        !report.was_recompiled("chtop"),
        "cut off: interface unchanged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An injected IO error while saving one bin surfaces as a typed
/// `BinIo` error naming both the unit and the path.
#[test]
fn bin_save_io_failure_is_a_typed_error() {
    let dir = temp_store("binio");
    let mut p = Project::new();
    p.add("chiofail", "structure Chiofail = struct val n = 1 end");
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();

    let _guard = install_scoped(
        FaultPlan::default()
            .with(FaultRule::new(points::BIN_SAVE, FaultKind::Io).filtered("chiofail")),
    );
    let err = irm.save_bins(&dir).unwrap_err();
    assert!(err.is_io(), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("chiofail"), "{msg}");
    assert!(msg.contains("bin file"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn *reads* from the store are caught by digest verification and
/// quarantined rather than decoded into a bogus unit.
#[test]
fn torn_store_reads_quarantine_not_serve() {
    let root = temp_store("tornread");
    let p = project();
    let want = {
        let mut reference = Irm::new(Strategy::Cutoff);
        reference.build(&p).unwrap();
        export_pids(&reference)
    };

    // Publish cleanly first.
    {
        let mut irm = Irm::with_store(Strategy::Cutoff, Arc::new(Store::open(&root).unwrap()));
        irm.build(&p).unwrap();
    }
    // Then read through a store whose every fetch is torn mid-payload.
    {
        let _guard = install_scoped(
            FaultPlan::default().with(FaultRule::new(points::STORE_FETCH, FaultKind::Torn)),
        );
        let mut store = Store::open(&root).unwrap();
        store.set_retry_policy(fast_retry());
        store.set_degrade_after(1000);
        let mut irm = Irm::with_store(Strategy::Cutoff, Arc::new(store));
        let report = irm.build_with(&p, 2, FailurePolicy::KeepGoing).unwrap();
        assert!(report.succeeded(), "{:?}", report.failed);
        assert_eq!(
            export_pids(&irm),
            want,
            "torn reads must never corrupt results"
        );
        // Nothing can be served from a store whose reads always tear.
        assert!(report.store_hits.is_empty(), "{:?}", report.store_hits);
    }
    std::fs::remove_dir_all(&root).ok();
}
