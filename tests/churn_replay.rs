//! Churn replay: seeded multi-edit histories over the Monorepo
//! topology, asserting the recompile set is exactly the set of edited
//! units (cutoff stops the cascade at unchanged interfaces) and the
//! scheduled dirty cone is exactly the union of the edited units'
//! dependent cones — in the sequential build, the parallel build, and
//! the resident (daemon) session alike.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use smlsc_core::irm::{FailurePolicy, Irm, Project, Strategy};
use smlsc_core::resident::Resident;
use smlsc_core::trace;
use smlsc_workload::{module_name, EditKind, Topology, Workload, WorkloadSpec};

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-churn-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic xorshift so a failing history can be replayed from its
/// seed alone.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn write_module(src: &Path, w: &Workload, i: usize) {
    let name = module_name(i);
    let text = w.project().file(&name).unwrap().read_text().unwrap();
    std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
}

/// One cold-process session: load caches, build with `jobs` workers,
/// persist caches.  Returns the decision sequence (unit, decision kind),
/// the set of recompiled units, and the scheduled dirty-cone size.
fn cold_step(
    bin: &Path,
    src: &Path,
    jobs: usize,
) -> (Vec<(String, &'static str)>, BTreeSet<String>, u64) {
    let collector = trace::Collector::new();
    collector.install();
    let mut irm = Irm::new(Strategy::Cutoff);
    if bin.is_dir() {
        let outcome = irm.load_bins(bin).unwrap();
        assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    }
    let project = Project::from_dir(src).unwrap();
    let report = irm
        .build_with(&project, jobs, FailurePolicy::FailFast)
        .unwrap();
    irm.save_bins(bin).unwrap();
    trace::uninstall();
    let decisions = report
        .decisions
        .iter()
        .map(|(s, d)| (s.to_string(), d.kind()))
        .collect();
    let recompiled = report.recompiled.iter().map(|s| s.to_string()).collect();
    (
        decisions,
        recompiled,
        collector.counter(trace::names::SCHED_DIRTY_CONE),
    )
}

/// The union of the edited units' cones: each edited unit plus every
/// transitive dependent, computed independently from the workload's own
/// dependency lists.
fn union_of_cones(w: &Workload, edited: &BTreeSet<usize>) -> BTreeSet<usize> {
    let mut cone = edited.clone();
    for &v in edited {
        cone.extend(w.transitive_dependents(v));
    }
    cone
}

#[test]
fn seeded_churn_recompiles_exactly_the_union_of_edited_cones() {
    let units = 120;
    for seed in [3u64, 17] {
        let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
            units,
            seed,
        }));
        let base = temp_dir(&format!("replay-{seed}"));
        let src = base.join("src");
        std::fs::create_dir_all(&src).unwrap();
        for i in 0..units {
            write_module(&src, &w, i);
        }
        let seq_bin = base.join("seq");
        let par_bin = base.join("par");
        let dmn_bin = base.join("dmn");

        // Cold builds bring all three modes to the same warm state.
        let (_, seq_cold, _) = cold_step(&seq_bin, &src, 1);
        let (_, par_cold, _) = cold_step(&par_bin, &src, 4);
        assert_eq!(seq_cold.len(), units);
        assert_eq!(par_cold.len(), units);
        let resident = Resident::open(&src, &dmn_bin, Strategy::Cutoff, None).unwrap();
        let (snap, _) = resident.build(4, FailurePolicy::FailFast, true).unwrap();
        assert_eq!(snap.recompiled, units);

        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for round in 0..4 {
            // 1..=3 distinct victims, body-only edits: interfaces stay
            // fixed, so cutoff confines recompiles to the victims while
            // the scheduler still walks their full dependent cones.
            let k = 1 + (next(&mut rng) as usize) % 3;
            let mut victims = BTreeSet::new();
            while victims.len() < k {
                victims.insert((next(&mut rng) as usize) % units);
            }
            for &v in &victims {
                w.edit(v, EditKind::BodyOnly);
                write_module(&src, &w, v);
            }
            let expected: BTreeSet<String> = victims.iter().map(|&v| module_name(v)).collect();
            let cone = union_of_cones(&w, &victims);
            let ctx = format!("seed {seed} round {round} victims {victims:?}");

            let (seq_dec, seq_rec, seq_cone) = cold_step(&seq_bin, &src, 1);
            let (par_dec, par_rec, par_cone) = cold_step(&par_bin, &src, 4);
            assert_eq!(seq_rec, expected, "{ctx}: sequential recompile set");
            assert_eq!(par_rec, expected, "{ctx}: parallel recompile set");
            assert_eq!(par_dec, seq_dec, "{ctx}: parallel ≡ sequential decisions");
            assert_eq!(seq_cone, cone.len() as u64, "{ctx}: sequential cone");
            assert_eq!(par_cone, cone.len() as u64, "{ctx}: parallel cone");

            let (snap, cached) = resident.build(4, FailurePolicy::FailFast, true).unwrap();
            assert!(!cached, "{ctx}: edits must invalidate the snapshot");
            assert_eq!(snap.recompiled, expected.len(), "{ctx}: daemon recompiles");
            assert_eq!(snap.reused, units - expected.len(), "{ctx}: daemon reuses");
            assert!(
                snap.stats_json
                    .contains(&format!("\"sched.dirty_cone\":{}", cone.len())),
                "{ctx}: daemon cone, stats {}",
                snap.stats_json
            );
        }

        // A final no-op round: every mode reuses everything and the
        // dirty cone is empty.
        let (_, seq_rec, seq_cone) = cold_step(&seq_bin, &src, 1);
        let (_, par_rec, par_cone) = cold_step(&par_bin, &src, 4);
        assert!(seq_rec.is_empty(), "seed {seed}: sequential no-op");
        assert!(par_rec.is_empty(), "seed {seed}: parallel no-op");
        assert_eq!((seq_cone, par_cone), (0, 0), "seed {seed}: empty cones");
        let (snap, cached) = resident.build(4, FailurePolicy::FailFast, true).unwrap();
        assert!(cached || snap.recompiled == 0, "seed {seed}: daemon no-op");
        std::fs::remove_dir_all(&base).ok();
    }
}

/// Interface-widening churn: the recompile set grows to the edited
/// units plus their *direct* importers (whose import pids change),
/// while cutoff still stops the cascade where interfaces are unchanged
/// — and sequential ≡ parallel holds throughout.
#[test]
fn interface_churn_recompiles_direct_importers_and_agrees_across_modes() {
    let units = 80;
    let seed = 29u64;
    let mut w = Workload::new(WorkloadSpec::with_topology(Topology::Monorepo {
        units,
        seed,
    }));
    let base = temp_dir("replay-iface");
    let src = base.join("src");
    std::fs::create_dir_all(&src).unwrap();
    for i in 0..units {
        write_module(&src, &w, i);
    }
    let seq_bin = base.join("seq");
    let par_bin = base.join("par");
    cold_step(&seq_bin, &src, 1);
    cold_step(&par_bin, &src, 4);

    let mut rng = seed | 1;
    for round in 0..3 {
        let victim = (next(&mut rng) as usize) % units;
        w.edit(victim, EditKind::InterfaceAdd);
        write_module(&src, &w, victim);
        let cone = union_of_cones(&w, &BTreeSet::from([victim]));
        let ctx = format!("round {round} victim {victim}");

        let (seq_dec, seq_rec, seq_cone) = cold_step(&seq_bin, &src, 1);
        let (par_dec, par_rec, par_cone) = cold_step(&par_bin, &src, 4);
        assert_eq!(par_dec, seq_dec, "{ctx}: parallel ≡ sequential decisions");
        assert_eq!(par_rec, seq_rec, "{ctx}: recompile sets agree");
        assert_eq!(
            seq_cone,
            cone.len() as u64,
            "{ctx}: cone is the full closure"
        );
        assert_eq!(par_cone, cone.len() as u64, "{ctx}");

        // Exactly the victim and its direct importers recompile: the
        // new export widens the victim's interface (importers see a new
        // import pid), but importers' own exports are unchanged, so
        // their dependents cut off.
        let direct: BTreeSet<String> = std::iter::once(victim)
            .chain((0..units).filter(|&j| w.deps()[j].contains(&victim)))
            .map(module_name)
            .collect();
        assert_eq!(seq_rec, direct, "{ctx}: victim + direct importers");
    }
    std::fs::remove_dir_all(&base).ok();
}
