//! Bins are sealed by the worker that compiled (or fetched) them, and a
//! save writes those bytes as they are.  Every pack body must be what
//! `BinFile::to_bytes` gives for the bin it decodes to, under that
//! body's digest, and the bins must not depend on the worker count or
//! on whether they came from a compile or from the artifact store.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::pack::{PackReader, PACK_FILE};
use smlsc_core::store::Store;
use smlsc_core::unit::BinFile;
use smlsc_ids::Pid;
use smlsc_workload::{Topology, Workload, WorkloadSpec};

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-sealed-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn project() -> Project {
    let spec = WorkloadSpec {
        reexport_dep_types: true,
        ..WorkloadSpec::with_topology(Topology::Library {
            lib: 6,
            clients: 24,
            seed: 11,
        })
    };
    let w = Workload::new(spec);
    w.project().clone()
}

/// Builds `project` in a fresh manager, saves it under `dir` and returns
/// each unit's export pid and its bin's bytes at mtime 0, after checking
/// every pack body against `to_bytes` of the bin it decodes to.
fn build_and_read(
    project: &Project,
    jobs: usize,
    store: Option<&Arc<Store>>,
    dir: &Path,
) -> (usize, BTreeMap<String, (Pid, Vec<u8>)>) {
    let mut irm = match store {
        Some(s) => Irm::with_store(Strategy::Cutoff, Arc::clone(s)),
        None => Irm::new(Strategy::Cutoff),
    };
    let report = irm.build_with_jobs(project, jobs).unwrap();
    irm.save_bins(dir).unwrap();
    let reader = PackReader::open(&dir.join(PACK_FILE)).unwrap().unwrap();
    let mut bins = BTreeMap::new();
    for e in reader.entries() {
        let bytes = reader.read_body(e.offset, e.len, e.digest).unwrap();
        let bin = BinFile::from_bytes(&bytes).unwrap();
        assert_eq!(bin.to_bytes(), bytes, "{}: body is not to_bytes", e.name);
        assert_eq!(e.digest, Pid::of_bytes(&bin.to_bytes()), "{}", e.name);
        assert_eq!(
            (e.export_pid, e.mtime),
            (bin.unit.export_pid, bin.mtime),
            "{}: index and body disagree",
            e.name
        );
        let canonical = BinFile { mtime: 0, ..bin }.to_bytes();
        bins.insert(e.name.to_string(), (e.export_pid, canonical));
    }
    assert_eq!(bins.len(), project.files().len());
    (report.store_hits.len(), bins)
}

#[test]
fn sealed_bodies_are_to_bytes_of_their_bins_at_every_width_and_from_the_store() {
    let p = project();
    let root = temp("root");
    let (_, serial) = build_and_read(&p, 1, None, &root.join("j1"));
    let (_, parallel) = build_and_read(&p, 2, None, &root.join("j2"));
    assert_eq!(serial, parallel, "bins depend on the worker count");

    // The first session publishes every bin; the second, with no bins
    // of its own, is served wholly from the store.
    let store = Arc::new(Store::open(root.join("store")).unwrap());
    let (hits, published) = build_and_read(&p, 2, Some(&store), &root.join("s1"));
    assert_eq!(hits, 0);
    let (hits, fetched) = build_and_read(&p, 2, Some(&store), &root.join("s2"));
    assert_eq!(hits, p.files().len(), "every unit is a store hit");
    assert_eq!(published, serial);
    assert_eq!(fetched, serial, "a store hit seals other bytes");
    std::fs::remove_dir_all(&root).ok();
}
