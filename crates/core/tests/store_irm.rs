//! The IRM ↔ artifact-store integration: cold sessions rehydrating from
//! a warm shared store, publish-back, semantic rejection, and corrupt
//! objects degrading to plain recompiles.

use std::path::PathBuf;
use std::sync::Arc;

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::store::Store;
use smlsc_ids::Pid;

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-store-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn chain_project() -> Project {
    let mut p = Project::new();
    p.add("a", "structure A = struct fun f x = x + 1 end");
    p.add("b", "structure B = struct val y = A.f 10 end");
    p.add("c", "structure C = struct val z = B.y + A.f 1 end");
    p.add("d", "structure D = struct val w = C.z * 2 end");
    p
}

fn export_pids(irm: &Irm) -> Vec<(String, Pid)> {
    let mut pids: Vec<(String, Pid)> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| (n.to_string(), irm.bin(n).unwrap().unit.export_pid))
        .collect();
    pids.sort();
    pids
}

#[test]
fn cold_session_rebuild_is_all_store_hits_with_identical_pids() {
    let root = temp_store("cold");
    let store = Arc::new(Store::open(&root).unwrap());
    let p = chain_project();

    // Warm the store: a fresh session compiles everything and publishes.
    let mut warm = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let report = warm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 4);
    assert!(report.store_hits.is_empty());
    assert_eq!(store.stats().unwrap().objects, 4);
    let warm_pids = export_pids(&warm);

    // A cold session (no bins at all) over the same project: every unit
    // is served from the store, zero compiles.
    let mut cold = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let report = cold.build(&p).unwrap();
    assert!(
        report.recompiled.is_empty(),
        "expected zero compiles, got {:?}",
        report.recompiled
    );
    assert_eq!(report.store_hits.len(), 4, "{:?}", report.store_hits);
    assert!(report.was_store_hit("a") && report.was_store_hit("d"));
    assert_eq!(export_pids(&cold), warm_pids);

    // The decision explains itself as a store hit wrapping the verdict
    // that would have compiled.
    let d = report.decision_for("a").unwrap();
    assert_eq!(d.kind(), "store_hit");
    assert!(!d.requires_recompile());
    assert!(d.to_string().contains("from store"), "{d}");

    // And the rehydrated program still links and executes.
    let (_, env) = cold.execute(&p).unwrap();
    assert_eq!(env.len(), 4);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn parallel_cold_session_rebuild_hits_the_store() {
    let root = temp_store("cold-par");
    let store = Arc::new(Store::open(&root).unwrap());
    let p = chain_project();

    // Warm in parallel, rebuild cold in parallel: dependents of
    // store-hit units must rehydrate from the freshly fetched bins.
    let mut warm = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    warm.build_with_jobs(&p, 4).unwrap();
    let warm_pids = export_pids(&warm);

    let mut cold = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let report = cold.build_with_jobs(&p, 4).unwrap();
    assert!(report.recompiled.is_empty(), "{:?}", report.recompiled);
    assert_eq!(report.store_hits.len(), 4);
    assert_eq!(export_pids(&cold), warm_pids);
    let (_, env) = cold.execute_with_jobs(&p, 4).unwrap();
    assert_eq!(env.len(), 4);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn an_edit_publishes_the_new_object_and_leaves_the_old() {
    let root = temp_store("edit");
    let store = Arc::new(Store::open(&root).unwrap());
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = 1 end");

    let mut irm = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    irm.build(&p).unwrap();
    assert_eq!(store.stats().unwrap().objects, 1);

    // Body edit: new source pid, new cache key, second object.
    p.edit("a", "structure A = struct val x = 2 end").unwrap();
    irm.build(&p).unwrap();
    assert_eq!(store.stats().unwrap().objects, 2);

    // Reverting hits the original object instead of compiling.
    p.edit("a", "structure A = struct val x = 1 end").unwrap();
    let report = irm.build(&p).unwrap();
    assert!(report.was_store_hit("a"), "{:?}", report.decisions);
    assert_eq!(store.stats().unwrap().objects, 2);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn same_source_under_a_different_unit_name_is_rejected_not_served() {
    let root = temp_store("stem");
    let store = Arc::new(Store::open(&root).unwrap());

    let mut p1 = Project::new();
    p1.add("a", "structure A = struct val x = 1 end");
    let mut irm1 = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    irm1.build(&p1).unwrap();

    // Identical source text under a different file stem maps to the
    // same cache key; the fetched object names the wrong unit and must
    // be rejected, falling back to an ordinary compile.
    let mut p2 = Project::new();
    p2.add("c", "structure A = struct val x = 1 end");
    let mut irm2 = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let report = irm2.build(&p2).unwrap();
    assert!(report.store_hits.is_empty(), "{:?}", report.store_hits);
    assert!(report.was_recompiled("c"));
    assert_eq!(irm2.bin("c").unwrap().unit.name.as_str(), "c");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupt_store_object_is_quarantined_and_the_unit_recompiles() {
    let root = temp_store("corrupt");
    let store = Arc::new(Store::open(&root).unwrap());
    let p = chain_project();

    let mut warm = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    warm.build(&p).unwrap();
    let warm_pids = export_pids(&warm);

    // Flip a byte deep in every object's payload.
    let mut flipped = 0;
    for fan in std::fs::read_dir(root.join("objects")).unwrap() {
        for obj in std::fs::read_dir(fan.unwrap().path()).unwrap() {
            let path = obj.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
            flipped += 1;
        }
    }
    assert_eq!(flipped, 4);

    // A cold session sees only digest mismatches: each object is
    // quarantined, every unit recompiles, and the results (and pids)
    // are exactly what the warm session produced.
    let mut cold = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let report = cold.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 4, "{:?}", report.decisions);
    assert!(report.store_hits.is_empty());
    assert_eq!(export_pids(&cold), warm_pids);

    let stats = store.stats().unwrap();
    assert_eq!(stats.quarantined, 4);
    // The recompiles re-published clean objects under the same keys.
    assert_eq!(stats.objects, 4);
    let verify = store.verify().unwrap();
    assert!(verify.corrupt.is_empty(), "{:?}", verify.corrupt);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn store_survives_cross_project_sharing() {
    let root = temp_store("share");
    let store = Arc::new(Store::open(&root).unwrap());

    // Two distinct projects share a common `util` unit (same text, same
    // stem). The second project's util build is a store hit even though
    // the projects never shared a bin directory.
    let mut p1 = Project::new();
    p1.add("util", "structure Util = struct fun inc x = x + 1 end");
    p1.add("app1", "structure App1 = struct val v = Util.inc 1 end");
    let mut irm1 = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    irm1.build(&p1).unwrap();

    let mut p2 = Project::new();
    p2.add("util", "structure Util = struct fun inc x = x + 1 end");
    p2.add("app2", "structure App2 = struct val v = Util.inc 2 end");
    let mut irm2 = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let report = irm2.build(&p2).unwrap();
    assert!(report.was_store_hit("util"), "{:?}", report.decisions);
    assert!(report.was_recompiled("app2"));
    assert_eq!(
        irm1.bin("util").unwrap().unit.export_pid,
        irm2.bin("util").unwrap().unit.export_pid
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn store_hit_bins_persist_and_satisfy_the_next_build() {
    let root = temp_store("persist");
    let bins = temp_store("persist-bins");
    let store = Arc::new(Store::open(&root).unwrap());
    let p = chain_project();

    let mut warm = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    warm.build(&p).unwrap();

    // Cold session: all store hits; the hits are dirty, so save_bins
    // writes them out...
    let mut cold = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    cold.build(&p).unwrap();
    cold.save_bins(&bins).unwrap();

    // ...and a third session loads them and needs neither compiles nor
    // store fetches.
    let mut third = Irm::with_store(Strategy::Cutoff, Arc::clone(&store));
    let outcome = third.load_bins(&bins).unwrap();
    assert_eq!(outcome.loaded, 4);
    let report = third.build(&p).unwrap();
    assert!(report.recompiled.is_empty());
    assert!(report.store_hits.is_empty());
    assert_eq!(report.reused, 4);
    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&bins).ok();
}
