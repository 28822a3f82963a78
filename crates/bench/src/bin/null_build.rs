//! Null-build latency: what the stamp cache and the indexed lazy bin
//! archive buy a warm build.
//!
//! ```text
//! cargo run --release -p smlsc-bench --bin null_build
//! cargo run --release -p smlsc-bench --bin null_build -- --smoke --out BENCH_null.json
//! ```
//!
//! Each point measures a full *cold-process* warm-build pipeline over
//! real on-disk sources: load bins, load stamps, scan the source
//! directory, and run an incremental cutoff build.  Two configurations
//! are compared at every size:
//!
//! * `stamped` — the fast path: stamp cache trusted, bins in the
//!   indexed `bins.pack` archive with lazy bodies;
//! * `paranoid` — the eager baseline (`--paranoid`): no stamp cache,
//!   every source re-read and re-digested, and every archived body read
//!   and digest-verified up front when the same `bins.pack` loads.
//!
//! For each, the no-op latency (nothing changed; zero recompiles) and
//! the one-leaf-edit latency (exactly one unit recompiles) are taken
//! best-of-`RUNS`, at `--jobs` 1 and 4, for N ∈ {50, 200, 800} units
//! (`--smoke`: N = 50 only).  Results land in `BENCH_null.json`.

use std::path::Path;
use std::time::{Duration, Instant};

use smlsc_bench::{ms, workload};
use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_workload::{module_name, EditKind, Topology, Workload};

const RUNS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Stamped,
    Paranoid,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Stamped => "stamped",
            Mode::Paranoid => "paranoid",
        }
    }
}

fn write_sources(src: &Path, w: &Workload) {
    for i in 0..w.module_count() {
        let name = module_name(i);
        let text = w.project().file(&name).unwrap().read_text().unwrap();
        std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
    }
}

/// One cold-process warm build: load caches, scan sources, build.
/// Returns the wall clock of the whole pipeline and the manager (so the
/// caller can persist its caches, untimed).
fn pipeline(mode: Mode, src: &Path, bin_dir: &Path, jobs: usize) -> (Duration, usize, Irm) {
    let t0 = Instant::now();
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.set_paranoid(mode == Mode::Paranoid);
    if bin_dir.is_dir() {
        let outcome = irm.load_bins(bin_dir).expect("bench bins load");
        assert!(outcome.corrupt.is_empty(), "{:?}", outcome.corrupt);
    }
    let project = Project::from_dir(src).expect("bench sources scan");
    let report = irm.build_with_jobs(&project, jobs).expect("bench build");
    let elapsed = t0.elapsed();
    (elapsed, report.recompiled.len(), irm)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_null.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out <file>").clone(),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let sizes: &[usize] = if smoke { &[50] } else { &[50, 200, 800] };

    println!("== null-build latency (cold-process pipelines, best of {RUNS}) ==");
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &n in sizes {
        let lib = n / 5;
        let mut w = workload(
            Topology::Library {
                lib,
                clients: n - lib,
                seed: 1994,
            },
            2,
            false,
        );
        assert_eq!(w.module_count(), n);
        let base =
            std::env::temp_dir().join(format!("smlsc-bench-null-{n}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let src = base.join("src");
        std::fs::create_dir_all(&src).unwrap();
        write_sources(&src, &w);

        // One cold build populates both cache layouts.
        let dirs = [base.join("stamped"), base.join("paranoid")];
        let (_, compiled, mut cold) = pipeline(Mode::Paranoid, &src, &dirs[1], 4);
        assert_eq!(compiled, n);
        cold.save_bins(&dirs[0]).expect("save archive");
        cold.save_bins(&dirs[1]).expect("save archive");

        // The edited unit: a library module with dependents, so the
        // cutoff doing its job (1 recompile, not a cascade) is part of
        // what is measured.
        let victim = 0;
        for jobs in [1usize, 4] {
            let mut noop_by_mode = [Duration::MAX; 2];
            for (m, mode) in [Mode::Stamped, Mode::Paranoid].into_iter().enumerate() {
                let bin_dir = &dirs[m];
                // Re-sync this layout's caches to the current sources
                // (edits from earlier measurements), untimed.
                let (_, _, mut irm) = pipeline(mode, &src, bin_dir, 4);
                irm.save_bins(bin_dir).expect("save archive");

                let mut noop = Duration::MAX;
                for _ in 0..RUNS {
                    let (dt, recompiled, _) = pipeline(mode, &src, bin_dir, jobs);
                    assert_eq!(recompiled, 0, "no-op build must recompile nothing");
                    noop = noop.min(dt);
                }
                noop_by_mode[m] = noop;

                let mut leaf = Duration::MAX;
                for _ in 0..RUNS {
                    w.edit(victim, EditKind::BodyOnly);
                    let name = module_name(victim);
                    let text = w.project().file(&name).unwrap().read_text().unwrap();
                    std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
                    let (dt, recompiled, mut irm) = pipeline(mode, &src, bin_dir, jobs);
                    assert_eq!(recompiled, 1, "body-only leaf edit must recompile one unit");
                    leaf = leaf.min(dt);
                    irm.save_bins(bin_dir).expect("save archive");
                }

                println!(
                    "  N={n} jobs={jobs} {:>8}: no-op {} ms | one-leaf-edit {} ms",
                    mode.name(),
                    ms(noop),
                    ms(leaf)
                );
                rows.push(format!(
                    r#"{{"units":{n},"mode":"{}","jobs":{jobs},"noop_ms":{},"leaf_edit_ms":{}}}"#,
                    mode.name(),
                    ms(noop),
                    ms(leaf)
                ));
            }
            let speedup = noop_by_mode[1].as_secs_f64() / noop_by_mode[0].as_secs_f64().max(1e-9);
            println!("  N={n} jobs={jobs} no-op speedup: {speedup:.1}x (stamped archive vs eager paranoid)");
            speedups.push(format!(
                r#"{{"units":{n},"jobs":{jobs},"noop_speedup":{speedup:.3}}}"#
            ));
        }
        std::fs::remove_dir_all(&base).ok();
    }

    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        r#"{{"bench":"null_build","runs_per_point":{RUNS},"smoke":{smoke},"host_parallelism":{host},"underpowered_host":{},"rows":[{}],"noop_speedups":[{}]}}"#,
        host == 1,
        rows.join(","),
        speedups.join(",")
    );
    std::fs::write(&out, &json).expect("write benchmark output");
    println!("\nresults written to {out}");
}
