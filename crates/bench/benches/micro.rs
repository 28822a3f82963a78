//! Criterion micro-benchmarks for the separate-compilation primitives:
//! digesting, pickling an interface and naming it, compiling, and no-op
//! manager builds.  One group per table/figure-adjacent cost center; the
//! `paper_tables` binary produces the paper-shaped tables themselves.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smlsc_core::irm::{Irm, Strategy};
use smlsc_core::{compile_unit, pickle_interface};
use smlsc_ids::{Digest128, Symbol};
use smlsc_pickle::{dehydrate, rehydrate, ContextPids, PickleOptions, RehydrateContext};
use smlsc_statics::elab::{elaborate_unit, ImportEnv};
use smlsc_workload::{EditKind, Topology, Workload, WorkloadSpec};

fn module_src(funs: usize) -> String {
    let mut s = String::from("structure M = struct\n  type t = int\n");
    for f in 0..funs {
        s.push_str(&format!("  fun f{f} x = x + {f}\n"));
    }
    s.push_str("end\n");
    s
}

/// Raw digest throughput (the paper's CRC).  Swept over input sizes so the
/// word-at-a-time `write_bytes` fast path shows up as bytes/iter scaling:
/// 64 B is remainder-dominated, 64 KiB is pure streaming throughput.
fn bench_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("digest128");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xabu8; size];
        group.bench_with_input(BenchmarkId::new("write_bytes", size), &size, |b, _| {
            b.iter(|| {
                let mut d = Digest128::new();
                d.write_bytes(std::hint::black_box(&data));
                d.finish()
            })
        });
    }
    group.finish();
}

/// E1's dehydrate and hash columns together: pickling an export
/// environment, digesting the bytes and deriving the entity pids.
fn bench_interface(c: &mut Criterion) {
    let mut group = c.benchmark_group("pickle_interface");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    for funs in [8usize, 64] {
        let ast = smlsc_syntax::parse_unit(&module_src(funs)).unwrap();
        let unit = elaborate_unit(&ast, &ImportEnv::empty()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(funs), &funs, |b, _| {
            b.iter(|| pickle_interface(Symbol::intern("m"), &unit.exports, []).unwrap())
        });
    }
    group.finish();
}

/// E1's pickle column and E4's mechanism: dehydrate + rehydrate.
fn bench_pickle(c: &mut Criterion) {
    let ast = smlsc_syntax::parse_unit(&module_src(64)).unwrap();
    let unit = elaborate_unit(&ast, &ImportEnv::empty()).unwrap();
    let ctx = ContextPids::indexed([]);
    let mut group = c.benchmark_group("pickle");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);
    group.bench_function("dehydrate_64fn", |b| {
        b.iter(|| dehydrate(&unit.exports, &ctx, &PickleOptions::default()).unwrap())
    });
    let pickled = dehydrate(&unit.exports, &ctx, &PickleOptions::default()).unwrap();
    let pid = smlsc_pickle::export_pid(&pickled.bytes);
    let rctx = RehydrateContext::with_pervasives([]);
    group.bench_function("rehydrate_64fn", |b| {
        b.iter(|| rehydrate(&pickled.bytes, &rctx, Symbol::intern("m"), pid).unwrap())
    });
    group.finish();
}

/// Whole-unit compilation (parse + elaborate + pickle + hash).
fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_unit");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    for funs in [8usize, 64] {
        let src = module_src(funs);
        group.bench_with_input(BenchmarkId::from_parameter(funs), &funs, |b, _| {
            b.iter(|| compile_unit(Symbol::intern("m"), &src, &[]).unwrap())
        });
    }
    group.finish();
}

/// The manager's own overhead: a no-op rebuild and a cutoff rebuild of a
/// 40-unit project.
fn bench_manager(c: &mut Criterion) {
    let mut group = c.benchmark_group("irm");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let spec = WorkloadSpec {
        topology: Topology::Library {
            lib: 8,
            clients: 32,
            seed: 11,
        },
        funs_per_module: 3,
        reexport_dep_types: false,
    };
    group.bench_function("noop_rebuild_40_units", |b| {
        let w = Workload::new(spec);
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.build(w.project()).unwrap();
        b.iter(|| {
            let report = irm.build(w.project()).unwrap();
            assert!(report.recompiled.is_empty());
        })
    });
    group.bench_function("cutoff_rebuild_after_body_edit", |b| {
        let mut w = Workload::new(spec);
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.build(w.project()).unwrap();
        let victim = w.most_depended_on();
        b.iter(|| {
            w.edit(victim, EditKind::BodyOnly);
            let report = irm.build(w.project()).unwrap();
            assert_eq!(report.recompiled.len(), 1);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_digest,
    bench_interface,
    bench_pickle,
    bench_compile,
    bench_manager
);
criterion_main!(benches);
