//! Parallel/sequential equivalence for the wavefront scheduler.
//!
//! The contract of `Irm::build_with_jobs` is *bit-identical results*:
//! for any project, any edit history and any worker count, the parallel
//! build must produce the same export pids, the same per-unit rebuild
//! decisions, the same report ordering and the same link results as the
//! sequential loop.  These tests drive both schedulers through seeded
//! random topologies and edit sequences and compare everything
//! observable.

use proptest::prelude::*;
use proptest::strategy::Strategy as Strategy2;
use smlsc::core::irm::{Irm, Project, Strategy as BuildStrategy};
use smlsc::core::trace::{self, names};
use smlsc::core::BuildReport;
use smlsc::ids::Symbol;
use smlsc::workload::{module_name, EditKind, Topology, Workload, WorkloadSpec};

fn arb_topology() -> impl Strategy2<Value = Topology> {
    prop_oneof![
        (2usize..10).prop_map(|n| Topology::Chain { n }),
        (1usize..3, 2usize..4).prop_map(|(depth, branching)| Topology::Tree { depth, branching }),
        (2usize..6, 1usize..4).prop_map(|(width, depth)| Topology::Diamond { width, depth }),
        (2usize..6, 0usize..8, any::<u64>()).prop_map(|(lib, clients, seed)| Topology::Library {
            lib,
            clients,
            seed
        }),
    ]
}

fn arb_edit() -> impl Strategy2<Value = EditKind> {
    prop_oneof![
        Just(EditKind::CommentOnly),
        Just(EditKind::BodyOnly),
        Just(EditKind::InterfaceAdd),
        Just(EditKind::InterfaceChangeType),
    ]
}

/// Every unit's export pid as recorded in the bin store.
fn export_pids(irm: &Irm, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let name = module_name(i);
            irm.bin(&name).map_or_else(
                || format!("{name}=none"),
                |b| format!("{name}={}", b.unit.export_pid),
            )
        })
        .collect()
}

/// The portions of a report that must match for *any* strategy.  Full
/// decision payloads are compared only under cutoff: timestamp decisions
/// quote mtimes, which two independent managers assign at different
/// virtual-clock ticks.
fn assert_reports_equal(seq: &BuildReport, par: &BuildReport, full_decisions: bool) {
    assert_eq!(seq.order, par.order);
    assert_eq!(seq.recompiled, par.recompiled);
    assert_eq!(seq.reused, par.reused);
    assert_eq!(seq.decision_kinds(), par.decision_kinds());
    if full_decisions {
        assert_eq!(seq.decisions, par.decisions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// jobs=8 and jobs=1 agree on pids, decisions and link results over
    /// random topologies and edit histories (cutoff strategy).
    #[test]
    fn wavefront_matches_sequential_over_edit_history(
        topo in arb_topology(),
        edits in proptest::collection::vec((any::<u16>(), arb_edit()), 1..5),
        relay in any::<bool>(),
    ) {
        let spec = WorkloadSpec {
            topology: topo,
            funs_per_module: 2,
            reexport_dep_types: relay,
        };
        let mut w = Workload::new(spec);
        let n = w.module_count();
        let mut seq = Irm::new(BuildStrategy::Cutoff);
        let mut par = Irm::new(BuildStrategy::Cutoff);

        let r1 = seq.build_with_jobs(w.project(), 1).unwrap();
        let r2 = par.build_with_jobs(w.project(), 8).unwrap();
        assert_reports_equal(&r1, &r2, true);
        prop_assert_eq!(export_pids(&seq, n), export_pids(&par, n));

        for (victim, kind) in edits {
            w.edit(victim as usize % n, kind);
            let r1 = seq.build_with_jobs(w.project(), 1).unwrap();
            let r2 = par.build_with_jobs(w.project(), 8).unwrap();
            assert_reports_equal(&r1, &r2, true);
            prop_assert_eq!(export_pids(&seq, n), export_pids(&par, n));
        }

        // Observational equivalence of the linked programs.
        let (_, e1) = seq.execute_with_jobs(w.project(), 1).unwrap();
        let (_, e2) = par.execute_with_jobs(w.project(), 8).unwrap();
        for i in 0..n {
            let name = Symbol::intern(&module_name(i));
            let a = e1.get(name).expect("linked sequentially");
            let b = e2.get(name).expect("linked in parallel");
            prop_assert_eq!(a.export_pid, b.export_pid);
            prop_assert_eq!(a.values.to_string(), b.values.to_string());
        }
    }

    /// The same equivalence holds for the baseline strategies, at the
    /// decision-kind level (timestamp payloads quote clock values).
    #[test]
    fn wavefront_matches_sequential_for_baselines(
        topo in arb_topology(),
        victim in any::<u16>(),
        kind in arb_edit(),
    ) {
        for strategy in [BuildStrategy::Timestamp, BuildStrategy::Classical] {
            let spec = WorkloadSpec {
                topology: topo,
                funs_per_module: 1,
                reexport_dep_types: false,
            };
            let mut w = Workload::new(spec);
            let n = w.module_count();
            let mut seq = Irm::new(strategy);
            let mut par = Irm::new(strategy);
            let r1 = seq.build_with_jobs(w.project(), 1).unwrap();
            let r2 = par.build_with_jobs(w.project(), 4).unwrap();
            assert_reports_equal(&r1, &r2, false);
            w.edit(victim as usize % n, kind);
            let r1 = seq.build_with_jobs(w.project(), 1).unwrap();
            let r2 = par.build_with_jobs(w.project(), 4).unwrap();
            assert_reports_equal(&r1, &r2, false);
            prop_assert_eq!(export_pids(&seq, n), export_pids(&par, n));
        }
    }
}

/// More workers than units is fine, and still identical.
#[test]
fn more_jobs_than_units() {
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = 1 end");
    p.add("b", "structure B = struct val y = A.x + 1 end");
    let mut seq = Irm::new(BuildStrategy::Cutoff);
    let mut par = Irm::new(BuildStrategy::Cutoff);
    let r1 = seq.build_with_jobs(&p, 1).unwrap();
    let r2 = par.build_with_jobs(&p, 64).unwrap();
    assert_reports_equal(&r1, &r2, true);
    assert_eq!(export_pids(&seq, 0), export_pids(&par, 0));
    assert_eq!(
        seq.bin("b").unwrap().unit.export_pid,
        par.bin("b").unwrap().unit.export_pid
    );
}

/// The calling thread is one of the workers: a jobs=2 build runs two
/// worker spans on two threads, one of them the thread that opened the
/// build span.
#[test]
fn the_calling_thread_is_a_worker() {
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = 1 end");
    p.add("b", "structure B = struct val y = A.x + 1 end");
    p.add("c", "structure C = struct val z = A.x + 2 end");
    let collector = trace::Collector::new();
    collector.install();
    Irm::new(BuildStrategy::Cutoff)
        .build_with_jobs(&p, 2)
        .unwrap();
    trace::uninstall();
    let spans = collector.spans();
    let caller = spans
        .iter()
        .find(|s| s.name == names::SPAN_BUILD)
        .expect("build span")
        .tid;
    let workers: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == names::SPAN_WORKER)
        .map(|s| s.tid)
        .collect();
    assert_eq!(workers.len(), 2, "{workers:?}");
    assert_ne!(workers[0], workers[1], "{workers:?}");
    assert!(workers.contains(&caller), "{workers:?} vs caller {caller}");
}

/// On failure the parallel build reports the error of the *first unit in
/// topological order* that failed — the one the sequential loop would
/// have stopped at — and merges exactly the bins before it.
#[test]
fn parallel_error_matches_sequential() {
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = 1 end");
    // `b` fails to elaborate (no such export on A); `c` is fine and
    // independent of `b`, but sits after it in topological order.
    p.add("b", "structure B = struct val y = A.missing end");
    p.add("c", "structure C = struct val z = A.x end");

    let mut seq = Irm::new(BuildStrategy::Cutoff);
    let mut par = Irm::new(BuildStrategy::Cutoff);
    let e1 = seq.build_with_jobs(&p, 1).unwrap_err();
    let e2 = par.build_with_jobs(&p, 8).unwrap_err();
    assert_eq!(e1.to_string(), e2.to_string());
    // Both stores hold `a` and nothing at or after the failing unit.
    for irm in [&seq, &par] {
        assert!(irm.bin("a").is_some());
        assert!(irm.bin("b").is_none());
        assert!(irm.bin("c").is_none());
    }
}
