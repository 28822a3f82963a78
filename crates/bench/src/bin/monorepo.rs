//! Monorepo-scale warm-build latency: the binary pack index, the
//! allocation-free rehydration path, the persisted import-DAG sidecar,
//! and dirty-set scheduling under module graphs up to 100,000 units.
//!
//! ```text
//! cargo run --release -p smlsc-bench --bin monorepo
//! cargo run --release -p smlsc-bench --bin monorepo -- --smoke --out BENCH_monorepo.json
//! cargo run --release -p smlsc-bench --bin monorepo -- --scale-smoke
//! cargo run --release -p smlsc-bench --bin monorepo -- --units 100000 --out /tmp/spot.json
//! ```
//!
//! Each point measures full *cold-process* pipelines over real on-disk
//! sources at N ∈ {5,000, 20,000, 50,000, 100,000} units (`--smoke`:
//! N = 5,000 only) of the [`Topology::Monorepo`] shape — hub
//! interfaces, deep functor chains, wide leaf fans:
//!
//! * `cold_ms` — first-ever build: everything compiles (timed once; a
//!   50k-unit cold build is too slow for best-of-N);
//! * `noop_ms` — nothing changed: the zero-copy warm path end to end
//!   (binary index, binary stamps, zero bodies parsed), best of `RUNS`;
//! * `leaf_edit_ms` — one leaf body edit, timed through the save of the
//!   recompiled bin and the stamps: exactly one unit recompiles,
//!   best of `RUNS`.
//!
//! Results land in `BENCH_monorepo.json`, gated by `scripts/check_bench`
//! with the same row-matched tolerances as `BENCH_null.json`.

use std::path::Path;
use std::time::{Duration, Instant};

use smlsc_bench::{ms, workload};
use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::trace::{self, names};
use smlsc_workload::{module_name, EditKind, Topology, Workload};

const RUNS: usize = 3;
const JOBS: usize = 4;

fn write_sources(src: &Path, w: &Workload) {
    for i in 0..w.module_count() {
        let name = module_name(i);
        let text = w.project().file(&name).unwrap().read_text().unwrap();
        std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
    }
}

/// One cold-process warm build over the stamped fast path: load the
/// binary stamp cache and the indexed archive, scan sources, build.
fn pipeline(src: &Path, bin_dir: &Path) -> (Duration, usize, Irm) {
    let t0 = Instant::now();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.load_stamps(&bin_dir.join("stamps.json"));
    if bin_dir.is_dir() {
        let outcome = irm.load_bins(bin_dir).expect("bench bins load");
        assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    }
    let project = Project::from_dir(src).expect("bench sources scan");
    let report = irm.build_with_jobs(&project, JOBS).expect("bench build");
    (t0.elapsed(), report.recompiled.len(), irm)
}

fn persist(irm: &mut Irm, bin_dir: &Path) {
    irm.save_bins(bin_dir).expect("save archive");
    irm.save_stamps(&bin_dir.join("stamps.json"))
        .expect("save stamps");
}

/// CI scale smoke: one 100,000-unit round trip — cold build, no-op,
/// one-leaf edit — gated on hard *counter* assertions rather than wall
/// clock (CI hosts are too noisy for a timing gate at this size): the
/// no-op reads zero source files and schedules an empty dirty set, the
/// import DAG rehydrates from its sidecar, and the leaf edit's dirty
/// seed and cone are both exactly the one edited unit.
fn scale_smoke() {
    const N: usize = 100_000;
    println!("== monorepo scale smoke (N={N}, jobs={JOBS}, counters asserted) ==");
    let mut w = workload(
        Topology::Monorepo {
            units: N,
            seed: 1994,
        },
        2,
        false,
    );
    let base = std::env::temp_dir().join(format!("smlsc-bench-scale-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let src = base.join("src");
    let bin_dir = base.join("bins");
    std::fs::create_dir_all(&src).unwrap();
    write_sources(&src, &w);

    let (cold, compiled, mut irm) = pipeline(&src, &bin_dir);
    assert_eq!(compiled, N, "cold build compiles everything");
    persist(&mut irm, &bin_dir);

    let collector = trace::Collector::new();
    collector.install();
    let (noop, recompiled, _) = pipeline(&src, &bin_dir);
    trace::uninstall();
    assert_eq!(recompiled, 0, "no-op build must recompile nothing");
    assert_eq!(
        collector.counter(names::SOURCE_READS),
        0,
        "no-op build must read zero source files"
    );
    assert_eq!(
        collector.counter(names::SCHED_DIRTY_SEED),
        0,
        "no-op build must seed an empty dirty set"
    );
    assert_eq!(
        collector.counter(names::SCHED_DIRTY_CONE),
        0,
        "no-op build must schedule an empty dirty cone"
    );
    assert_eq!(
        collector.counter(names::DEPS_PACK_HITS),
        1,
        "the import DAG must rehydrate from the deps.pack sidecar"
    );

    // The last module is a fan leaf: no dependents, so its dirty cone
    // is exactly itself — dirty-set size == cone size == 1 of 100,000.
    let victim = N - 1;
    w.edit(victim, EditKind::BodyOnly);
    let name = module_name(victim);
    let text = w.project().file(&name).unwrap().read_text().unwrap();
    std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
    let collector = trace::Collector::new();
    collector.install();
    let (leaf, recompiled, mut irm) = pipeline(&src, &bin_dir);
    trace::uninstall();
    assert_eq!(recompiled, 1, "leaf body edit must recompile one unit");
    assert_eq!(
        collector.counter(names::SCHED_DIRTY_SEED),
        1,
        "leaf edit must seed exactly the edited unit"
    );
    assert_eq!(
        collector.counter(names::SCHED_DIRTY_CONE),
        1,
        "fan-leaf dirty cone must equal the dirty seed"
    );
    persist(&mut irm, &bin_dir);

    println!(
        "  N={N} jobs={JOBS}: cold {} ms | no-op {} ms | one-leaf-edit {} ms",
        ms(cold),
        ms(noop),
        ms(leaf)
    );
    println!("scale smoke: all counters as asserted");
    std::fs::remove_dir_all(&base).ok();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_monorepo.json");
    let mut units: Option<Vec<usize>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scale-smoke" => return scale_smoke(),
            "--out" => out = it.next().expect("--out <file>").clone(),
            // Spot-measure specific sizes (comma-separated), e.g. to
            // re-run one noisy point without paying the full sweep.
            "--units" => {
                units = Some(
                    it.next()
                        .expect("--units <n,n,...>")
                        .split(',')
                        .map(|s| s.parse().expect("--units takes integers"))
                        .collect(),
                )
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    let sizes: Vec<usize> = match units {
        Some(v) => v,
        None if smoke => vec![5_000],
        None => vec![5_000, 20_000, 50_000, 100_000],
    };

    println!(
        "== monorepo warm-build latency (cold-process pipelines, warm points best of {RUNS}) =="
    );
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut w = workload(
            Topology::Monorepo {
                units: n,
                seed: 1994,
            },
            2,
            false,
        );
        assert_eq!(w.module_count(), n);
        let base =
            std::env::temp_dir().join(format!("smlsc-bench-mono-{n}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let src = base.join("src");
        let bin_dir = base.join("bins");
        std::fs::create_dir_all(&src).unwrap();
        write_sources(&src, &w);

        let (cold, compiled, mut irm) = pipeline(&src, &bin_dir);
        assert_eq!(compiled, n, "cold build compiles everything");
        persist(&mut irm, &bin_dir);

        let mut noop = Duration::MAX;
        for _ in 0..RUNS {
            let (dt, recompiled, _) = pipeline(&src, &bin_dir);
            assert_eq!(recompiled, 0, "no-op build must recompile nothing");
            noop = noop.min(dt);
        }

        // The last module is a fan leaf by construction: no dependents,
        // so a body edit recompiles exactly one of the N units.
        let victim = n - 1;
        let mut leaf = Duration::MAX;
        for _ in 0..RUNS {
            w.edit(victim, EditKind::BodyOnly);
            let name = module_name(victim);
            let text = w.project().file(&name).unwrap().read_text().unwrap();
            std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
            // The edit is timed through its save: a user's build pays
            // for persisting the recompiled bin too.
            let t0 = Instant::now();
            let (_, recompiled, mut irm) = pipeline(&src, &bin_dir);
            persist(&mut irm, &bin_dir);
            let dt = t0.elapsed();
            assert_eq!(recompiled, 1, "leaf body edit must recompile one unit");
            leaf = leaf.min(dt);
        }

        println!(
            "  N={n} jobs={JOBS}: cold {} ms | no-op {} ms | one-leaf-edit {} ms",
            ms(cold),
            ms(noop),
            ms(leaf)
        );
        rows.push(format!(
            r#"{{"units":{n},"jobs":{JOBS},"cold_ms":{},"noop_ms":{},"leaf_edit_ms":{}}}"#,
            ms(cold),
            ms(noop),
            ms(leaf)
        ));
        std::fs::remove_dir_all(&base).ok();
    }

    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        r#"{{"bench":"monorepo","runs_per_point":{RUNS},"smoke":{smoke},"host_parallelism":{host},"underpowered_host":{},"rows":[{}]}}"#,
        host == 1,
        rows.join(",")
    );
    std::fs::write(&out, &json).expect("write benchmark output");
    println!("\nresults written to {out}");
}
