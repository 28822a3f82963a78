//! Integration tests of the compilation manager: cutoff vs. baselines,
//! bin persistence, type-safe linkage, and the interactive session.

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::session::Session;
use smlsc_core::unit::BinFile;
use smlsc_core::{compile_unit, CoreError};
use smlsc_ids::{Pid, Symbol};

fn chain_project() -> Project {
    // a <- b <- c <- d : a linear dependency chain.
    let mut p = Project::new();
    p.add(
        "a",
        "structure A = struct fun f x = x + 1 val base = 10 end",
    );
    p.add("b", "structure B = struct val y = A.f A.base end");
    p.add("c", "structure C = struct val z = B.y * 2 end");
    p.add("d", "structure D = struct val w = C.z + 1 end");
    p
}

#[test]
fn initial_build_compiles_everything_in_topo_order() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let p = chain_project();
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 4);
    assert_eq!(report.reused, 0);
    let names: Vec<&str> = report.order.iter().map(|s| s.as_str()).collect();
    assert_eq!(names, vec!["a", "b", "c", "d"]);
}

#[test]
fn noop_rebuild_compiles_nothing() {
    for strategy in [Strategy::Cutoff, Strategy::Timestamp, Strategy::Classical] {
        let mut irm = Irm::new(strategy);
        let p = chain_project();
        irm.build(&p).unwrap();
        let report = irm.build(&p).unwrap();
        assert!(
            report.recompiled.is_empty(),
            "{strategy}: {:?}",
            report.recompiled
        );
    }
}

#[test]
fn comment_edit_cutoff_recompiles_only_the_edited_unit() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    p.edit(
        "a",
        "(* a helpful comment *) structure A = struct fun f x = x + 1 val base = 10 end",
    )
    .unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled, vec![Symbol::intern("a")]);
    assert_eq!(report.reused, 3);
}

#[test]
fn comment_edit_timestamp_cascades() {
    let mut irm = Irm::new(Strategy::Timestamp);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    p.edit(
        "a",
        "(* a helpful comment *) structure A = struct fun f x = x + 1 val base = 10 end",
    )
    .unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 4, "make rebuilds the world");
}

#[test]
fn body_edit_cutoff_stops_at_the_edited_unit() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    // f's behaviour changes but its type does not.
    p.edit(
        "a",
        "structure A = struct fun f x = x + 100 val base = 10 end",
    )
    .unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled, vec![Symbol::intern("a")]);
}

#[test]
fn body_edit_classical_cascades() {
    let mut irm = Irm::new(Strategy::Classical);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    p.edit(
        "a",
        "structure A = struct fun f x = x + 100 val base = 10 end",
    )
    .unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 4);
}

#[test]
fn interface_edit_recompiles_direct_dependents() {
    for strategy in [Strategy::Cutoff, Strategy::Timestamp, Strategy::Classical] {
        let mut irm = Irm::new(strategy);
        let mut p = chain_project();
        irm.build(&p).unwrap();
        // A new export — an interface change to a.
        p.edit(
            "a",
            r#"structure A = struct fun f x = x + 1 val base = 10 val extra = "new" end"#,
        )
        .unwrap();
        let report = irm.build(&p).unwrap();
        match strategy {
            // b sees a changed import pid and recompiles; b's own
            // interface is unchanged, so the cascade is cut off there.
            Strategy::Cutoff => {
                assert_eq!(report.recompiled.len(), 2, "cutoff: a and b only")
            }
            // The baselines rebuild the whole downstream chain.
            Strategy::Timestamp | Strategy::Classical => {
                assert_eq!(report.recompiled.len(), 4, "{strategy}")
            }
        }
    }
}

#[test]
fn type_propagating_interface_edit_cascades_even_under_cutoff() {
    // b re-exports a's type, so changing it changes b's interface too,
    // and the cascade legitimately continues to c.
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = Project::new();
    p.add("a", "structure A = struct val v = 1 end");
    p.add("b", "structure B = struct val w = A.v end");
    p.add("c", "structure C = struct val u = B.w end");
    irm.build(&p).unwrap();
    // v : int becomes v : string; the new type flows through b's
    // inferred interface into c.
    p.edit("a", r#"structure A = struct val v = "s" end"#)
        .unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 3, "{:?}", report.recompiled);
}

#[test]
fn touch_rebuilds_under_make_but_not_cutoff() {
    let mut make = Irm::new(Strategy::Timestamp);
    let mut cutoff = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    make.build(&p).unwrap();
    cutoff.build(&p).unwrap();
    p.touch("b").unwrap();
    let make_report = make.build(&p).unwrap();
    let cutoff_report = cutoff.build(&p).unwrap();
    // make: b plus its dependents c, d.
    assert_eq!(make_report.recompiled.len(), 3);
    // cutoff: the source digest is unchanged; nothing to do.
    assert!(cutoff_report.recompiled.is_empty());
}

#[test]
fn cutoff_resumes_cascade_when_interfaces_really_change_downstream() {
    // a's interface changes; b uses the changed part so b's interface
    // (via its inferred types) may or may not change — here b's exported
    // type stays int, so c is cut off after b recompiles.
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = Project::new();
    p.add("a", "structure A = struct val n = 1 end");
    p.add("b", "structure B = struct val m = A.n + 1 end");
    p.add("c", "structure C = struct val k = B.m + 1 end");
    irm.build(&p).unwrap();
    // Change a's interface: n : int stays but a new export appears.
    p.edit("a", "structure A = struct val n = 1 val extra = 2 end")
        .unwrap();
    let report = irm.build(&p).unwrap();
    // a recompiled (source changed); b recompiled (import pid changed);
    // b's own interface is unchanged, so c is cut off.
    assert!(report.was_recompiled("a"));
    assert!(report.was_recompiled("b"));
    assert!(!report.was_recompiled("c"), "cutoff should stop at b");
}

#[test]
fn diamond_dependencies_build_once() {
    let mut p = Project::new();
    p.add("base", "structure Base = struct val n = 1 end");
    p.add("left", "structure Left = struct val l = Base.n + 1 end");
    p.add("right", "structure Right = struct val r = Base.n + 2 end");
    p.add("top", "structure Top = struct val t = Left.l + Right.r end");
    let mut irm = Irm::new(Strategy::Cutoff);
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 4);
    let (_, env) = irm.execute(&p).unwrap();
    assert_eq!(env.len(), 4);
}

#[test]
fn execution_produces_correct_values_and_stays_correct_after_cutoff() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    let (_, env) = irm.execute(&p).unwrap();
    // D.w = ((f(10) = 11) * 2) + 1 = 23
    let d = env.get(Symbol::intern("d")).unwrap();
    let smlsc_dynamics::value::Value::Record(units) = &d.values else {
        panic!()
    };
    let smlsc_dynamics::value::Value::Record(fields) = &units[0] else {
        panic!()
    };
    assert_eq!(fields[0], smlsc_dynamics::value::Value::Int(23));

    // Body edit, rebuild (cutoff reuses b..d bins), re-execute: the new
    // behaviour must flow through even though b..d were not recompiled.
    p.edit(
        "a",
        "structure A = struct fun f x = x + 2 val base = 10 end",
    )
    .unwrap();
    let (report, env) = irm.execute(&p).unwrap();
    assert_eq!(report.recompiled.len(), 1);
    let d = env.get(Symbol::intern("d")).unwrap();
    let smlsc_dynamics::value::Value::Record(units) = &d.values else {
        panic!()
    };
    let smlsc_dynamics::value::Value::Record(fields) = &units[0] else {
        panic!()
    };
    assert_eq!(fields[0], smlsc_dynamics::value::Value::Int(25));
}

#[test]
fn import_cycles_are_reported() {
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = B.y end");
    p.add("b", "structure B = struct val y = A.x end");
    let mut irm = Irm::new(Strategy::Cutoff);
    let err = irm.build(&p).unwrap_err();
    assert!(matches!(err, CoreError::ImportCycle(_)), "{err}");
}

#[test]
fn unresolved_imports_are_reported() {
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = Missing.y end");
    let mut irm = Irm::new(Strategy::Cutoff);
    let err = irm.build(&p).unwrap_err();
    assert!(matches!(err, CoreError::UnresolvedImport { .. }), "{err}");
}

#[test]
fn duplicate_exports_are_reported() {
    let mut p = Project::new();
    p.add("a", "structure X = struct val x = 1 end");
    p.add("b", "structure X = struct val x = 2 end");
    let mut irm = Irm::new(Strategy::Cutoff);
    let err = irm.build(&p).unwrap_err();
    assert!(matches!(err, CoreError::DuplicateExport { .. }), "{err}");
}

#[test]
fn type_errors_name_the_unit() {
    let mut p = Project::new();
    p.add("a", r#"structure A = struct val x = 1 + "s" end"#);
    let mut irm = Irm::new(Strategy::Cutoff);
    let err = irm.build(&p).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("`a`"), "{msg}");
}

#[test]
fn bins_persist_across_manager_instances() {
    let dir = std::env::temp_dir().join(format!("smlsc-bins-{}", std::process::id()));
    let p = chain_project();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins(&dir).unwrap();

    let mut irm2 = Irm::new(Strategy::Cutoff);
    let outcome = irm2.load_bins(&dir).unwrap();
    assert_eq!(outcome.loaded, 4);
    assert!(outcome.corrupt.is_empty());
    let report = irm2.build(&p).unwrap();
    assert!(
        report.recompiled.is_empty(),
        "loaded bins should satisfy cutoff: {:?}",
        report.recompiled
    );
    // And the loaded bins still execute.
    let (_, env) = irm2.execute(&p).unwrap();
    assert_eq!(env.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn makefile_bug_is_caught_by_the_type_safe_linker() {
    // The paper's §5 scenario: under timestamp-based building, clock skew
    // (or a missing makefile dependency) can leave a dependent's bin
    // stale after an interface change.  The type-safe linker refuses to
    // run the inconsistent program.
    let mut irm = Irm::new(Strategy::Timestamp);
    let mut p = Project::new();
    p.add("a", "structure A = struct val n = 1 end");
    p.add("b", "structure B = struct val m = A.n + 1 end");
    irm.build(&p).unwrap();
    // Interface change to a...
    p.edit("a", "structure A = struct val n = 1 val extra = 2 end")
        .unwrap();
    // ...while b's bin appears newer than everything (clock skew).
    let mut skewed: BinFile = irm.bin("b").unwrap().clone();
    skewed.mtime = u64::MAX;
    irm.inject_bin(skewed);
    let err = irm.execute(&p).unwrap_err();
    let CoreError::Link(e) = err else {
        panic!("expected a link error, got {err}")
    };
    assert!(e.to_string().contains("stale"), "{e}");

    // Under cutoff the same skew is harmless: mtimes are never consulted,
    // the changed import pid forces b's recompilation, and the program
    // links.
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = Project::new();
    p.add("a", "structure A = struct val n = 1 end");
    p.add("b", "structure B = struct val m = A.n + 1 end");
    irm.build(&p).unwrap();
    p.edit("a", "structure A = struct val n = 1 val extra = 2 end")
        .unwrap();
    let mut skewed: BinFile = irm.bin("b").unwrap().clone();
    skewed.mtime = u64::MAX;
    irm.inject_bin(skewed);
    assert!(irm.execute(&p).is_ok());
}

#[test]
fn export_pid_is_deterministic_across_sessions() {
    let src = "structure A = struct fun f x = x + 1 datatype d = D of int end";
    let one = compile_unit(Symbol::intern("a"), src, &[]).unwrap();
    let two = compile_unit(Symbol::intern("a"), src, &[]).unwrap();
    assert_eq!(one.unit.export_pid, two.unit.export_pid);
}

#[test]
fn export_pid_ignores_comments_and_bodies_but_sees_interfaces() {
    let base = compile_unit(
        Symbol::intern("a"),
        "structure A = struct fun f x = x + 1 end",
        &[],
    )
    .unwrap();
    let comment = compile_unit(
        Symbol::intern("a"),
        "(* hi *) structure A = struct fun f x = x + 1 end",
        &[],
    )
    .unwrap();
    let body = compile_unit(
        Symbol::intern("a"),
        "structure A = struct fun f x = x + 999 end",
        &[],
    )
    .unwrap();
    let iface = compile_unit(
        Symbol::intern("a"),
        "structure A = struct fun f x = x + 1 val g = 2 end",
        &[],
    )
    .unwrap();
    assert_eq!(base.unit.export_pid, comment.unit.export_pid);
    assert_eq!(base.unit.export_pid, body.unit.export_pid);
    assert_ne!(base.unit.export_pid, iface.unit.export_pid);
    // Source pids tell the edits apart.
    assert_ne!(base.unit.source_pid, comment.unit.source_pid);
}

#[test]
fn functor_interfaces_hash_stably() {
    let src = "signature S = sig type t val mk : int -> t end
               functor F (X : S) = struct val v = X.mk 1 end";
    let one = compile_unit(Symbol::intern("lib"), src, &[]).unwrap();
    let two = compile_unit(Symbol::intern("lib"), src, &[]).unwrap();
    assert_eq!(one.unit.export_pid, two.unit.export_pid);
}

#[test]
fn cross_unit_functor_project_executes() {
    let mut p = Project::new();
    p.add(
        "sorting",
        "signature PARTIAL_ORDER = sig
           type elem
           val less : elem * elem -> bool
         end
         signature SORT = sig
           type t
           val sort : t list -> t list
         end
         functor TopSort (P : PARTIAL_ORDER) : SORT = struct
           type t = P.elem
           fun insert (x, []) = [x]
             | insert (x, y :: ys) =
                 if P.less (x, y) then x :: y :: ys else y :: insert (x, ys)
           fun sort [] = []
             | sort (x :: xs) = insert (x, sort xs)
         end",
    );
    p.add(
        "factors",
        "structure Factors : PARTIAL_ORDER = struct
           type elem = int
           fun less (i, j) = (j mod i) = 0
         end",
    );
    p.add(
        "fsort",
        "structure FSort : SORT = TopSort(Factors)
         structure Demo = struct
           val sorted = FSort.sort [9, 3, 27]
         end",
    );
    let mut irm = Irm::new(Strategy::Cutoff);
    let (_, env) = irm.execute(&p).unwrap();
    assert_eq!(env.len(), 3);

    // Editing TopSort's insert strategy (a body change) must not
    // recompile factors or fsort.
    let mut p2 = p.clone();
    p2.edit(
        "sorting",
        "signature PARTIAL_ORDER = sig
           type elem
           val less : elem * elem -> bool
         end
         signature SORT = sig
           type t
           val sort : t list -> t list
         end
         functor TopSort (P : PARTIAL_ORDER) : SORT = struct
           type t = P.elem
           fun insert (x, []) = [x]
             | insert (x, y :: ys) =
                 if P.less (y, x) then y :: insert (x, ys) else x :: y :: ys
           fun sort [] = []
             | sort (x :: xs) = insert (x, sort xs)
         end",
    )
    .unwrap();
    let report = irm.build(&p2).unwrap();
    assert_eq!(report.recompiled.len(), 1, "{:?}", report.recompiled);
}

// ----- rebuild decisions (the --explain record) --------------------------

/// The `(unit, kind)` pairs of a report, for exact sequence assertions.
fn kinds(report: &smlsc_core::BuildReport) -> Vec<(String, &'static str)> {
    report.decision_kinds()
}

fn pairs(v: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    v.iter().map(|(n, k)| ((*n).to_string(), *k)).collect()
}

#[test]
fn decisions_on_first_build_are_all_new_unit() {
    for strategy in [Strategy::Cutoff, Strategy::Timestamp, Strategy::Classical] {
        let mut irm = Irm::new(strategy);
        let p = chain_project();
        let report = irm.build(&p).unwrap();
        assert_eq!(report.strategy, strategy);
        assert_eq!(
            kinds(&report),
            pairs(&[
                ("a", "new_unit"),
                ("b", "new_unit"),
                ("c", "new_unit"),
                ("d", "new_unit"),
            ]),
            "{strategy}"
        );
    }
}

#[test]
fn comment_edit_decision_sequences_per_strategy() {
    let edit = "(* a helpful comment *) structure A = struct fun f x = x + 1 val base = 10 end";
    let expect = |strategy| match strategy {
        // The paper's cutoff: a's interface survives the recompile, so b
        // is cut off and c, d never even see a rebuilt import.
        Strategy::Cutoff => pairs(&[
            ("a", "source_changed"),
            ("b", "cutoff"),
            ("c", "reused"),
            ("d", "reused"),
        ]),
        // The baselines cascade to the end of the chain.
        Strategy::Timestamp | Strategy::Classical => pairs(&[
            ("a", "source_changed"),
            ("b", "dependency_rebuilt"),
            ("c", "dependency_rebuilt"),
            ("d", "dependency_rebuilt"),
        ]),
    };
    for strategy in [Strategy::Cutoff, Strategy::Timestamp, Strategy::Classical] {
        let mut irm = Irm::new(strategy);
        let mut p = chain_project();
        irm.build(&p).unwrap();
        p.edit("a", edit).unwrap();
        let report = irm.build(&p).unwrap();
        assert_eq!(kinds(&report), expect(strategy), "{strategy}");
    }
}

#[test]
fn comment_edit_cutoff_records_the_unchanged_export_pid() {
    use smlsc_core::RebuildDecision;
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    let a_pid = irm.bin("a").unwrap().unit.export_pid;
    p.edit(
        "a",
        "(* a helpful comment *) structure A = struct fun f x = x + 1 val base = 10 end",
    )
    .unwrap();
    let report = irm.build(&p).unwrap();
    // The cutoff decision names the rebuilt import and proves its export
    // pid survived — the full causal chain of the paper's claim.
    let Some(RebuildDecision::CutOff { import, export_pid }) = report.decision_for("b") else {
        panic!("expected CutOff for b, got {:?}", report.decision_for("b"));
    };
    assert_eq!(import, "a");
    assert_eq!(*export_pid, a_pid.to_string());
    assert_eq!(irm.bin("a").unwrap().unit.export_pid, a_pid);
}

#[test]
fn interface_edit_decision_cascade_under_cutoff() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    // A new export: a's interface (and export pid) changes; b must see
    // the changed import pid; b's own interface survives, so c is cut
    // off and d is untouched.
    p.edit(
        "a",
        r#"structure A = struct fun f x = x + 1 val base = 10 val extra = "new" end"#,
    )
    .unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(
        kinds(&report),
        pairs(&[
            ("a", "source_changed"),
            ("b", "import_pid_changed"),
            ("c", "cutoff"),
            ("d", "reused"),
        ])
    );
}

#[test]
fn new_unit_decision_leaves_existing_units_reused() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    p.add("e", "structure E = struct val q = D.w + 1 end");
    let report = irm.build(&p).unwrap();
    assert_eq!(
        kinds(&report),
        pairs(&[
            ("a", "reused"),
            ("b", "reused"),
            ("c", "reused"),
            ("d", "reused"),
            ("e", "new_unit"),
        ])
    );
}

#[test]
fn deleting_a_leaf_drops_it_from_the_build() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    p.remove("d").unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(
        kinds(&report),
        pairs(&[("a", "reused"), ("b", "reused"), ("c", "reused")])
    );
    assert!(report.decision_for("d").is_none());
    assert!(p.remove("nope").is_err());
}

#[test]
fn deleting_a_dependency_is_an_unresolved_import() {
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    // d still imports C; removing c must fail the next build's import
    // resolution rather than silently reusing stale bins.
    p.remove("c").unwrap();
    let err = irm.build(&p).unwrap_err();
    assert!(matches!(err, CoreError::UnresolvedImport { .. }), "{err}");
}

#[test]
fn external_mtimes_thread_into_timestamp_builds() {
    // Sources stamped with "real" wall-clock mtimes (nanoseconds): the
    // bins written by the build must still come out newer, so a no-op
    // rebuild reuses everything even under the timestamp strategy.
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos() as u64;
    let mut p = Project::new();
    p.add_with_mtime("a", "structure A = struct val n = 1 end", now - 1_000_000);
    p.add_with_mtime("b", "structure B = struct val m = A.n + 1 end", now);
    let mut irm = Irm::new(Strategy::Timestamp);
    irm.build(&p).unwrap();
    let report = irm.build(&p).unwrap();
    assert!(report.recompiled.is_empty(), "{:?}", kinds(&report));
    // An edit (virtual tick, now past the wall clock) still triggers.
    p.edit("a", "structure A = struct val n = 2 end").unwrap();
    let report = irm.build(&p).unwrap();
    assert_eq!(report.recompiled.len(), 2, "{:?}", kinds(&report));
}

#[test]
fn build_telemetry_counts_cutoffs_and_cache_traffic() {
    use smlsc_core::trace;
    let collector = trace::Collector::new();
    collector.install();
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = chain_project();
    irm.build(&p).unwrap();
    p.edit(
        "a",
        "(* a helpful comment *) structure A = struct fun f x = x + 1 val base = 10 end",
    )
    .unwrap();
    irm.build(&p).unwrap();
    trace::uninstall();

    assert_eq!(collector.counter(trace::names::UNITS_COMPILED), 5); // 4 + a
    assert_eq!(collector.counter(trace::names::CUTOFF_HITS), 1); // b
    assert_eq!(collector.counter(trace::names::UNITS_REUSED), 3); // b, c, d
                                                                  // The second build re-parsed only the edited `a`; b, c and d
                                                                  // reused their analyses by source digest.
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_MISSES), 5);
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_HITS), 3);
    // Per-unit compile phases produced histograms.
    assert_eq!(
        collector
            .histogram(trace::names::SPAN_PARSE)
            .unwrap()
            .count(),
        5
    );
    assert_eq!(
        collector
            .histogram(trace::names::SPAN_BUILD)
            .unwrap()
            .count(),
        2
    );
    // And the whole thing exports as a Chrome trace.
    let chrome = collector.chrome_trace_json();
    assert!(chrome.contains(r#""name":"irm.build""#), "{chrome}");
    assert!(chrome.contains(r#""name":"compile.elaborate""#), "{chrome}");
}

// ----- the Visible Compiler session -------------------------------------

#[test]
fn session_layers_and_shadows() {
    let mut s = Session::new();
    s.eval("structure A = struct val x = 1 end").unwrap();
    s.eval("structure B = struct val y = A.x + 1 end").unwrap();
    assert_eq!(s.show_value("B", "y").unwrap(), "2");
    // Redefining A shadows the old layer for *new* inputs...
    s.eval("structure A = struct val x = 100 end").unwrap();
    s.eval("structure C = struct val z = A.x + 1 end").unwrap();
    assert_eq!(s.show_value("C", "z").unwrap(), "101");
    // ...but B's already-evaluated value is unchanged (§3: no
    // re-initialization of existing bindings).
    assert_eq!(s.show_value("B", "y").unwrap(), "2");
}

#[test]
fn session_reports_bindings_and_pids() {
    let mut s = Session::new();
    let out = s
        .eval("structure M = struct fun id x = x val n = 3 end")
        .unwrap();
    assert_eq!(out.bindings.len(), 1);
    assert!(
        out.bindings[0].contains("structure M"),
        "{:?}",
        out.bindings
    );
    assert!(out.bindings[0].contains("n : int"), "{:?}", out.bindings);
    assert_ne!(out.export_pid, Pid::NULL);
    // Same interface evaluated again hashes identically even though the
    // unit name differs... pids are derived from unit names, but the
    // *export* pid is interface-only.
    let out2 = s
        .eval("structure M = struct fun id x = x val n = 3 end")
        .unwrap();
    assert_eq!(out.export_pid, out2.export_pid);
}

#[test]
fn session_errors_leave_state_intact() {
    let mut s = Session::new();
    s.eval("structure A = struct val x = 1 end").unwrap();
    assert!(s
        .eval("structure B = struct val y = A.missing end")
        .is_err());
    assert_eq!(s.len(), 1);
    // Still usable.
    s.eval("structure C = struct val z = A.x end").unwrap();
    assert_eq!(s.show_value("C", "z").unwrap(), "1");
}

#[test]
fn session_functors_and_exceptions() {
    let mut s = Session::new();
    s.eval(
        "signature S = sig val n : int end
         functor Add (X : S) = struct val m = X.n + 1 end",
    )
    .unwrap();
    s.eval("structure Base = struct val n = 41 end").unwrap();
    s.eval("structure R = Add(Base)").unwrap();
    assert_eq!(s.show_value("R", "m").unwrap(), "42");
    s.eval(
        r#"structure E = struct
             exception Nope
             val caught = (raise Nope) handle Nope => "ok"
           end"#,
    )
    .unwrap();
    assert_eq!(s.show_value("E", "caught").unwrap(), "\"ok\"");
}

#[test]
fn session_describe_lists_layers() {
    let mut s = Session::new();
    s.eval("structure A = struct val x = 1 end").unwrap();
    s.eval("signature S = sig val x : int end").unwrap();
    let desc = s.describe();
    assert!(desc.iter().any(|d| d.starts_with("structure A")));
    assert!(desc.iter().any(|d| d.starts_with("signature S")));
}

#[test]
fn primitive_values_work_end_to_end() {
    let mut s = Session::new();
    s.load_stdlib().unwrap();
    s.eval(
        r#"structure P = struct
             val shown = Int.toString ~42
             val n = Str.size "hello"
             val joined = Str.concatWith ", " (List.map Int.toString [1, 2, 3])
             (* primitives are first-class values too *)
             val lens = List.map size ["a", "bb", "ccc"]
           end"#,
    )
    .unwrap();
    assert_eq!(s.show_value("P", "shown").unwrap(), "\"~42\"");
    assert_eq!(s.show_value("P", "n").unwrap(), "5");
    assert_eq!(s.show_value("P", "joined").unwrap(), "\"1, 2, 3\"");
    assert_eq!(s.show_value("P", "lens").unwrap(), "[1, 2, 3]");
}

#[test]
fn primitives_survive_bin_roundtrip() {
    // A structure re-exporting a primitive pickles (KIND_PRIM) and comes
    // back usable from the bin cache.
    let dir = std::env::temp_dir().join(format!("smlsc-prim-{}", std::process::id()));
    let mut p = Project::new();
    p.add(
        "lib",
        "structure Lib = struct val toS = itos val strLen = size end",
    );
    p.add(
        "use",
        r#"structure Use = struct val s = Lib.toS 7 val n = Lib.strLen "abc" end"#,
    );
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins(&dir).unwrap();
    let mut irm2 = Irm::new(Strategy::Cutoff);
    irm2.load_bins(&dir).unwrap();
    let report = irm2.build(&p).unwrap();
    assert!(report.recompiled.is_empty(), "{:?}", report.recompiled);
    let (_, env) = irm2.execute(&p).unwrap();
    assert_eq!(env.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_loads_compiled_units_through_the_irm() {
    // §6's future work, implemented: the interactive loop consumes bin
    // files rather than re-elaborating source.
    let mut p = Project::new();
    p.add("lib", "structure Lib = struct fun triple x = x * 3 end");
    p.add("app", "structure App = struct val base = Lib.triple 5 end");
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut s = Session::new();
    let order = s.load_compiled(&mut irm, &p).unwrap();
    assert_eq!(order.len(), 2);
    assert_eq!(s.len(), 2);
    // The loaded statenvs are fully usable interactively.
    s.eval("structure More = struct val v = Lib.triple App.base end")
        .unwrap();
    assert_eq!(s.show_value("More", "v").unwrap(), "45");

    // Edit the library body; reload reuses what cutoff allows and the
    // fresh layers shadow the stale ones.
    p.edit("lib", "structure Lib = struct fun triple x = x * 3 + 1 end")
        .unwrap();
    let mut s2 = Session::new();
    let _ = s2.load_compiled(&mut irm, &p).unwrap();
    s2.eval("structure Check = struct val v = Lib.triple 5 end")
        .unwrap();
    assert_eq!(s2.show_value("Check", "v").unwrap(), "16");
}

#[test]
fn session_load_compiled_uses_cached_bins() {
    let mut p = Project::new();
    p.add("a", "structure A = struct val x = 1 end");
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    // The session load triggers no recompilation.
    let mut s = Session::new();
    s.load_compiled(&mut irm, &p).unwrap();
    let report = irm.build(&p).unwrap();
    assert!(report.recompiled.is_empty());
    assert_eq!(s.show_value("A", "x").unwrap(), "1");
}

#[test]
fn session_step_limit_stops_runaway_recursion() {
    // The interpreter recurses on the host stack, so the guard needs an
    // adequately sized stack to trip cleanly (callers of
    // `set_step_limit` run their sessions on real threads, not 2 MiB
    // test threads).
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(|| {
            let mut s = Session::new();
            s.set_step_limit(100_000);
            let err = s
                .eval(
                    "structure Loop = struct fun spin (x : int) : int = spin x val v = spin 0 end",
                )
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("step limit") || msg.contains("depth limit"),
                "{msg}"
            );
            // The session is still usable afterwards.
            s.eval("structure Ok = struct val x = 1 end").unwrap();
            assert_eq!(s.show_value("Ok", "x").unwrap(), "1");
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn comment_only_edit_reparses_only_the_edited_unit() {
    use smlsc_core::trace;
    let collector = trace::Collector::new();
    collector.install();
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = Project::new();
    p.add("a", "structure A = struct val n = 1 end");
    p.add("b", "structure B = struct val m = A.n end");
    irm.build(&p).unwrap();
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_MISSES), 2);

    // A comment-only edit changes the source pid, so `a` recompiles
    // and its parse gives its analysis; `b` reuses its analysis by
    // source pid and is cut off.
    p.edit("a", "(* tweak *) structure A = struct val n = 1 end")
        .unwrap();
    let report = irm.build(&p).unwrap();
    trace::uninstall();
    assert!(report.was_recompiled("a"));
    assert!(!report.was_recompiled("b"));
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_MISSES), 3);
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_HITS), 1);
}

#[test]
fn import_adding_edit_invalidates_the_cached_dependency_analysis() {
    use smlsc_core::trace;
    let collector = trace::Collector::new();
    collector.install();
    let mut irm = Irm::new(Strategy::Cutoff);
    let mut p = Project::new();
    p.add("a", "structure A = struct val n = 1 end");
    p.add("c", "structure C = struct val k = 5 end");
    p.add("b", "structure B = struct val m = A.n end");
    irm.build(&p).unwrap();
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_MISSES), 3);

    // Adding a reference to `C` changes the source: `b` must be
    // re-analyzed (one fresh miss) and the new import edge is live.
    p.edit("b", "structure B = struct val m = A.n + C.k end")
        .unwrap();
    irm.build(&p).unwrap();
    assert_eq!(collector.counter(trace::names::DEPS_CACHE_MISSES), 4);
    let imports: Vec<&str> = irm
        .bin_meta("b")
        .unwrap()
        .imports
        .iter()
        .map(|i| i.unit.as_str())
        .collect();
    assert!(imports.contains(&"c"), "{imports:?}");

    // ... and the edge really is live: an interface change to `c` now
    // recompiles `b`.
    p.edit("c", "structure C = struct val k = 5 val extra = 1 end")
        .unwrap();
    let report = irm.build(&p).unwrap();
    trace::uninstall();
    assert!(report.was_recompiled("b"), "{:?}", report.decisions);
}
