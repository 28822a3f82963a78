//! The link pass decodes bodies on the worker pool ahead of the linker
//! (the calling thread), which links in build order.  Its results must
//! not depend on the worker count: the same report order, export pids
//! and printed values at every width, from a warm pack.  A flipped byte
//! in one pack body must be caught by the pack digest at every width —
//! the decoder checks no second digest for packed bodies — and
//! quarantine exactly that unit, which recompiles alone.

use std::path::{Path, PathBuf};

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::link::DynEnv;
use smlsc_core::pack::{PackReader, PACK_FILE};
use smlsc_core::trace::{self, names};
use smlsc_core::unit::BinFile;
use smlsc_dynamics::value::Value;
use smlsc_ids::Symbol;
use smlsc_workload::{Topology, Workload, WorkloadSpec};

const WIDTHS: [usize; 3] = [1, 2, 4];

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-plink-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn project() -> Project {
    let spec = WorkloadSpec::with_topology(Topology::Library {
        lib: 8,
        clients: 96,
        seed: 5,
    });
    Workload::new(spec).project().clone()
}

/// A value printed in full: structures show their slots.
fn render(v: &Value) -> String {
    match v {
        Value::Record(slots) => {
            let slots: Vec<String> = slots.iter().map(render).collect();
            format!("{{{}}}", slots.join(", "))
        }
        v => v.to_string(),
    }
}

/// What a run prints, per unit in link order: name, export pid, value.
fn linked(order: &[Symbol], env: &DynEnv) -> Vec<String> {
    order
        .iter()
        .map(|u| {
            let l = env.get(*u).expect("every unit is linked");
            format!("{u} {} {}", l.export_pid, render(&l.values))
        })
        .collect()
}

/// A warm session over `dir` at `jobs`: load the pack, build, link.
/// Returns what the run printed, the units it recompiled and the
/// quarantine count.
fn warm_run(p: &Project, dir: &Path, jobs: usize) -> (Vec<String>, Vec<Symbol>, u64) {
    let collector = trace::Collector::new();
    collector.install();
    let mut irm = Irm::new(Strategy::Cutoff);
    let outcome = irm.load_bins(dir).unwrap();
    assert_eq!(outcome.loaded, p.files().len(), "{:?}", outcome.corrupt);
    let (report, env) = irm.execute_with_jobs(p, jobs).unwrap();
    trace::uninstall();
    (
        linked(&report.order, &env),
        report.recompiled.clone(),
        collector.counter(names::BIN_BODY_QUARANTINED),
    )
}

/// Builds `p` cold and saves its pack under `dir`; returns what a link
/// of the cold build prints.
fn cold_build(p: &Project, dir: &Path) -> Vec<String> {
    let mut irm = Irm::new(Strategy::Cutoff);
    let (report, env) = irm.execute_with_jobs(p, 2).unwrap();
    irm.save_bins(dir).unwrap();
    linked(&report.order, &env)
}

#[test]
fn the_link_pass_gives_the_same_results_at_every_width() {
    let p = project();
    let dir = temp("widths");
    let cold = cold_build(&p, &dir);
    assert_eq!(cold.len(), p.files().len());
    for jobs in WIDTHS {
        let (printed, recompiled, quarantined) = warm_run(&p, &dir, jobs);
        assert_eq!(printed, cold, "jobs {jobs}");
        assert!(recompiled.is_empty(), "jobs {jobs}: {recompiled:?}");
        assert_eq!(quarantined, 0, "jobs {jobs}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The flipped byte is in the body's `mtime` field, which decodes to a
/// well-formed bin either way and which linking never reads: only the
/// pack digest can tell the body is not what was written.
#[test]
fn a_flipped_pack_body_byte_quarantines_exactly_that_unit_at_every_width() {
    let p = project();
    let dir = temp("flipped");
    let cold = cold_build(&p, &dir);
    let pack = dir.join(PACK_FILE);
    let victim = {
        let reader = PackReader::open(&pack).unwrap().unwrap();
        let e = &reader.entries()[reader.entries().len() / 2];
        let bytes = reader.read_body(e.offset, e.len, e.digest).unwrap();
        assert_eq!(BinFile::from_bytes(&bytes).unwrap().unit.name, e.name);
        // Magic, the name's length word and bytes, two pids: the mtime.
        let at = e.offset as usize + 8 + 4 + e.name.as_str().len() + 32;
        let mut file = std::fs::read(&pack).unwrap();
        file[at] ^= 1;
        std::fs::write(&pack, file).unwrap();
        e.name
    };
    for jobs in WIDTHS {
        let (printed, recompiled, quarantined) = warm_run(&p, &dir, jobs);
        assert_eq!(quarantined, 1, "jobs {jobs}");
        assert_eq!(recompiled, [victim], "jobs {jobs}");
        assert_eq!(printed, cold, "jobs {jobs}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
