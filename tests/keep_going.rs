//! Keep-going scheduling: sequential/parallel equivalence and panic
//! isolation.
//!
//! Under `FailurePolicy::KeepGoing` a unit failure must fail exactly
//! that unit, skip exactly its transitive dependents, and leave every
//! independent unit compiled — and the parallel wavefront must agree
//! with the sequential loop on all of it: the same failed set, the same
//! skipped set (with the same `blocked_on` explanations), the same
//! outcomes in the same order, and bit-identical export pids for every
//! unit that built.

use std::collections::HashSet;

use proptest::prelude::*;
use proptest::strategy::Strategy as Strategy2;
use smlsc::core::irm::{FailurePolicy, Irm, Project, Strategy as BuildStrategy, UnitOutcome};
use smlsc::core::BuildReport;
use smlsc::workload::{module_name, Topology, Workload, WorkloadSpec};
use smlsc_faults::{install_scoped, points, FaultKind, FaultPlan, FaultRule};

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

/// A project over the given dependency lists where each unit in
/// `broken` fails *elaboration* (a type error), not import analysis —
/// the unit still syntactically exports its structure, so the graph is
/// intact and the failure is local to the unit.
fn make_project(deps: &[Vec<usize>], broken: &HashSet<usize>) -> Project {
    let mut p = Project::new();
    for (i, ds) in deps.iter().enumerate() {
        let imports: String = ds.iter().map(|d| format!(" + M{d}.v{d}")).collect();
        let bad = if broken.contains(&i) {
            r#" val bad = 1 + "x""#
        } else {
            ""
        };
        p.add(
            module_name(i),
            format!("structure M{i} = struct{bad} val v{i} = 1{imports} end"),
        );
    }
    p
}

fn failed_names(r: &BuildReport) -> Vec<String> {
    r.failed.iter().map(|(u, _)| u.to_string()).collect()
}

/// The failed/skipped sets a keep-going build must produce, computed
/// structurally: walking the build order, a unit is skipped when any
/// direct import already failed or was skipped, failed when broken,
/// and built otherwise.
fn expected_sets(
    order: &[smlsc::ids::Symbol],
    deps: &[Vec<usize>],
    broken: &HashSet<usize>,
) -> (HashSet<String>, HashSet<String>) {
    let mut failed = HashSet::new();
    let mut skipped = HashSet::new();
    for name in order {
        let i: usize = name.as_str()[1..].parse().unwrap();
        let blocked = deps[i].iter().any(|d| {
            let dn = module_name(*d);
            failed.contains(&dn) || skipped.contains(&dn)
        });
        if blocked {
            skipped.insert(name.to_string());
        } else if broken.contains(&i) {
            failed.insert(name.to_string());
        }
    }
    (failed, skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over random topologies and random broken-unit sets, the parallel
    /// keep-going build is observationally identical to the sequential
    /// one, and both match the structural prediction of which units
    /// fail, which are skipped, and which build.
    #[test]
    fn keep_going_parallel_matches_sequential(
        topo in arb_topology(),
        broken_sel in proptest::collection::vec(any::<u16>(), 1..4),
        jobs in 2usize..9,
    ) {
        let w = Workload::new(WorkloadSpec::with_topology(topo));
        let n = w.module_count();
        let broken: HashSet<usize> = broken_sel.iter().map(|v| *v as usize % n).collect();
        let p = make_project(w.deps(), &broken);

        let mut seq = Irm::new(BuildStrategy::Cutoff);
        let mut par = Irm::new(BuildStrategy::Cutoff);
        let r1 = seq.build_with(&p, 1, FailurePolicy::KeepGoing).unwrap();
        let r2 = par.build_with(&p, jobs, FailurePolicy::KeepGoing).unwrap();

        // Identical reports: order, outcomes (including Failed error
        // text and Skipped blocked_on lists), decisions, and the
        // recompiled/reused/failed/skipped partitions.
        prop_assert_eq!(&r1.order, &r2.order);
        prop_assert_eq!(&r1.outcomes, &r2.outcomes);
        prop_assert_eq!(&r1.decisions, &r2.decisions);
        prop_assert_eq!(&r1.recompiled, &r2.recompiled);
        prop_assert_eq!(&r1.reused, &r2.reused);
        prop_assert_eq!(failed_names(&r1), failed_names(&r2));
        prop_assert_eq!(&r1.skipped, &r2.skipped);

        // Both match the structural prediction.
        let (exp_failed, exp_skipped) = expected_sets(&r1.order, w.deps(), &broken);
        let got_failed: HashSet<String> = failed_names(&r1).into_iter().collect();
        let got_skipped: HashSet<String> =
            r1.skipped.iter().map(ToString::to_string).collect();
        prop_assert_eq!(&got_failed, &exp_failed);
        prop_assert_eq!(&got_skipped, &exp_skipped);

        // Every unit outside failed ∪ skipped built, with bit-identical
        // export pids under both schedulers; failed/skipped units have
        // no bins at all.
        for i in 0..n {
            let name = module_name(i);
            if exp_failed.contains(&name) || exp_skipped.contains(&name) {
                prop_assert!(seq.bin(&name).is_none(), "{name} must not have a bin");
                prop_assert!(par.bin(&name).is_none(), "{name} must not have a bin");
            } else {
                let a = seq.bin(&name).expect("sequential bin").unit.export_pid;
                let b = par.bin(&name).expect("parallel bin").unit.export_pid;
                prop_assert_eq!(a, b, "export pid diverged for {}", name);
            }
        }

        // Fail-fast over the same project: the same first error and the
        // same bins held at jobs 1 and 4.
        let mut ff1 = Irm::new(BuildStrategy::Cutoff);
        let mut ff4 = Irm::new(BuildStrategy::Cutoff);
        let e1 = ff1.build_with(&p, 1, FailurePolicy::FailFast).unwrap_err();
        let e4 = ff4.build_with(&p, 4, FailurePolicy::FailFast).unwrap_err();
        prop_assert_eq!(e1.to_string(), e4.to_string());
        for i in 0..n {
            let name = module_name(i);
            prop_assert_eq!(
                ff1.bin(&name).map(|b| b.unit.export_pid),
                ff4.bin(&name).map(|b| b.unit.export_pid),
                "fail-fast bins diverged at {}", name
            );
        }
    }
}

/// Diamond: the broken left arm fails, the join above it is skipped,
/// and the independent right arm still compiles.
#[test]
fn keep_going_compiles_independent_units_and_skips_dependents() {
    let mut p = Project::new();
    p.add("base", "structure Base = struct val n = 1 end");
    p.add(
        "left",
        r#"structure Left = struct val bad = 1 + "x" val v = Base.n end"#,
    );
    p.add("right", "structure Right = struct val v = Base.n + 1 end");
    p.add("top", "structure Top = struct val v = Left.v + Right.v end");

    let mut irm = Irm::new(BuildStrategy::Cutoff);
    let report = irm
        .build_with(&p, 1, FailurePolicy::KeepGoing)
        .expect("keep-going returns a report, not an error");
    assert!(!report.succeeded());
    assert_eq!(failed_names(&report), vec!["left"]);
    assert_eq!(
        report
            .skipped
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        vec!["top"]
    );
    match report.outcome_for("top") {
        Some(UnitOutcome::Skipped { blocked_on }) => {
            assert_eq!(
                blocked_on
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>(),
                vec!["left"]
            );
        }
        other => panic!("expected top to be skipped, got {other:?}"),
    }
    assert!(matches!(
        report.outcome_for("right"),
        Some(UnitOutcome::Compiled)
    ));
    assert!(irm.bin("base").is_some() && irm.bin("right").is_some());
    assert!(irm.bin("left").is_none() && irm.bin("top").is_none());
}

/// Fixing the broken unit and rebuilding (still keep-going) compiles
/// exactly the previously failed/skipped units and reuses the rest.
#[test]
fn keep_going_recovers_incrementally_after_a_fix() {
    let mut p = Project::new();
    p.add("base", "structure Base = struct val n = 1 end");
    p.add(
        "mid",
        r#"structure Mid = struct val bad = 1 + "x" val v = Base.n end"#,
    );
    p.add("top", "structure Top = struct val v = Mid.v end");

    let mut irm = Irm::new(BuildStrategy::Cutoff);
    let r1 = irm.build_with(&p, 1, FailurePolicy::KeepGoing).unwrap();
    assert_eq!(failed_names(&r1), vec!["mid"]);

    p.edit("mid", "structure Mid = struct val v = Base.n end")
        .unwrap();
    let r2 = irm.build_with(&p, 4, FailurePolicy::KeepGoing).unwrap();
    assert!(r2.succeeded(), "failed: {:?}", failed_names(&r2));
    assert!(r2.was_recompiled("mid") && r2.was_recompiled("top"));
    assert!(!r2.was_recompiled("base"));

    // The recovered build is identical to a from-scratch one.
    let mut fresh = Irm::new(BuildStrategy::Cutoff);
    fresh.build_with(&p, 1, FailurePolicy::FailFast).unwrap();
    for name in ["base", "mid", "top"] {
        assert_eq!(
            irm.bin(name).unwrap().unit.export_pid,
            fresh.bin(name).unwrap().unit.export_pid
        );
    }
}

/// The default policy is unchanged: fail-fast surfaces the first error
/// in topological order as `Err`, identically in both schedulers.
#[test]
fn fail_fast_remains_the_default() {
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = 1 end");
    p.add(
        "b",
        r#"structure B = struct val bad = 1 + "x" val y = A.x end"#,
    );
    let mut seq = Irm::new(BuildStrategy::Cutoff);
    let mut par = Irm::new(BuildStrategy::Cutoff);
    let e1 = seq.build(&p).unwrap_err();
    let e2 = par.build_with(&p, 8, FailurePolicy::FailFast).unwrap_err();
    assert_eq!(e1.to_string(), e2.to_string());
}

/// A compiler panic inside one unit is caught, converted to an
/// internal-error outcome for that unit alone, and the worker pool
/// survives to drain every remaining unit — in both schedulers.
#[test]
fn panicking_unit_fails_only_itself_and_dependents() {
    // The filter string must be unique to this test: the plan is
    // process-global while installed, and sibling tests run
    // concurrently in the same binary.
    let mut p = Project::new();
    p.add("qbase", "structure Qbase = struct val n = 1 end");
    p.add("qboomx", "structure Qboomx = struct val v = Qbase.n end");
    p.add("qabove", "structure Qabove = struct val v = Qboomx.v end");
    p.add(
        "qother",
        "structure Qother = struct val v = Qbase.n + 1 end",
    );

    let _guard = install_scoped(
        FaultPlan::default()
            .with(FaultRule::new(points::COMPILE_UNIT, FaultKind::Panic).filtered("qboomx")),
    );
    for jobs in [1, 4] {
        let mut irm = Irm::new(BuildStrategy::Cutoff);
        let report = irm
            .build_with(&p, jobs, FailurePolicy::KeepGoing)
            .expect("the panic is isolated, not propagated");
        assert_eq!(failed_names(&report), vec!["qboomx"], "jobs={jobs}");
        assert_eq!(
            report
                .skipped
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            vec!["qabove"],
            "jobs={jobs}"
        );
        assert!(report.any_internal_failure());
        let (_, err) = &report.failed[0];
        assert!(err.is_internal(), "{err}");
        assert!(err.to_string().contains("internal compiler error"), "{err}");
        // The pool drained: the independent units all compiled.
        assert!(irm.bin("qbase").is_some() && irm.bin("qother").is_some());
    }
}

/// Under fail-fast, the panic surfaces as `CoreError::Internal` for the
/// panicking unit — the same error the sequential loop reports.
#[test]
fn panic_is_an_internal_error_under_fail_fast() {
    let mut p = Project::new();
    p.add("zzpanic", "structure Zzpanic = struct val x = 1 end");
    let _guard = install_scoped(
        FaultPlan::default()
            .with(FaultRule::new(points::COMPILE_UNIT, FaultKind::Panic).filtered("zzpanic")),
    );
    let mut seq = Irm::new(BuildStrategy::Cutoff);
    let mut par = Irm::new(BuildStrategy::Cutoff);
    let e1 = seq.build(&p).unwrap_err();
    let e2 = par.build_with(&p, 4, FailurePolicy::FailFast).unwrap_err();
    assert!(e1.is_internal(), "{e1}");
    assert!(e2.is_internal(), "{e2}");
    assert_eq!(e1.to_string(), e2.to_string());
}
