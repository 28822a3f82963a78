//! The one gated benchmark table: cold, no-op and one-leaf-edit builds
//! of a monorepo-shaped project, keyed by `(units, jobs, mode)`.
//!
//! ```text
//! cargo run --release -p smlsc-bench --bin monorepo
//! cargo run --release -p smlsc-bench --bin monorepo -- --smoke --out BENCH_monorepo.json
//! cargo run --release -p smlsc-bench --bin monorepo -- --scale-smoke
//! cargo run --release -p smlsc-bench --bin monorepo -- --units 100000 --out /tmp/spot.json
//! ```
//!
//! Every point builds real on-disk sources of the [`Topology::Monorepo`]
//! shape (hub interfaces, deep functor chains, wide leaf fans) at
//! N ∈ {5,000, 20,000, 50,000, 100,000} units (`--smoke`: N = 5,000
//! only), at jobs 1 and 2, in four modes:
//!
//! * `stamped` — cold-process builds over the stamp cache and the lazy
//!   `bins.pack` archive: `cold_ms` (first-ever build, timed once),
//!   `noop_ms` (nothing changed) and `leaf_edit_ms` (one leaf body
//!   edit, timed through the save: exactly one unit recompiles);
//! * `paranoid` — the same `noop_ms` and `leaf_edit_ms` with no stat
//!   trusted: every source re-read and re-digested, every archived
//!   body read and digest-verified at load;
//! * `daemon` — socket round-trips to an in-process resident server:
//!   `noop_ms` (nothing changed: answered from the retained snapshot),
//!   `event_noop_ms` (one source rewritten with the same bytes: the
//!   drained event re-reads it, nothing recompiles) and `leaf_edit_ms`
//!   (one leaf body edit, through the daemon's save);
//! * `store` — `cold_ms` of a fresh checkout of the same sources, with
//!   no bins of its own, built against an artifact store that an
//!   earlier checkout filled: every unit is a store hit.
//!
//! Warm points are best of `RUNS`.  Results land in
//! `BENCH_monorepo.json`, gated by `scripts/check_bench`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smlsc_bench::{ms, workload};
use smlsc_core::irm::{BuildReport, Irm, Strategy};
use smlsc_core::store::Store;
use smlsc_core::trace::{self, names};
use smlsc_core::BuildSession;
use smlsc_daemon::{client, Request, Response, ServerConfig, ServerHandle};
use smlsc_workload::{module_name, EditKind, Topology, Workload};

const RUNS: usize = 5;
const JOBS: [usize; 2] = [1, 2];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Stamped,
    Paranoid,
    Daemon,
    Store,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Stamped, Mode::Paranoid, Mode::Daemon, Mode::Store];

    fn name(self) -> &'static str {
        match self {
            Mode::Stamped => "stamped",
            Mode::Paranoid => "paranoid",
            Mode::Daemon => "daemon",
            Mode::Store => "store",
        }
    }
}

/// One point's directories: the project's sources and bins, the shared
/// artifact store, and a second checkout of the same sources.
struct Dirs {
    base: PathBuf,
    src: PathBuf,
    bins: PathBuf,
    store: PathBuf,
    checkout: PathBuf,
}

impl Dirs {
    fn new(tag: &str) -> Dirs {
        let base = std::env::temp_dir().join(format!("smlsc-bench-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let dirs = Dirs {
            src: base.join("src"),
            bins: base.join("bins"),
            store: base.join("store"),
            checkout: base.join("checkout"),
            base,
        };
        std::fs::create_dir_all(&dirs.src).unwrap();
        dirs
    }
}

fn write_source(src: &Path, w: &Workload, i: usize) {
    let name = module_name(i);
    let text = w.project().file(&name).unwrap().read_text().unwrap();
    std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
}

fn write_sources(src: &Path, w: &Workload) {
    for i in 0..w.module_count() {
        write_source(src, w, i);
    }
}

/// Applies one body edit to `victim` and writes it to `src`.
fn edit_leaf(src: &Path, w: &mut Workload, victim: usize) {
    w.edit(victim, EditKind::BodyOnly);
    write_source(src, w, victim);
}

/// One cold-process build of `src` over `bins` in `mode`, through the
/// session every client opens: paranoid mode verifies every archived
/// body at load and re-reads every source, store mode attaches the
/// artifact store at `store`.  Times the open, the scan and the build.
fn pipeline(
    mode: Mode,
    jobs: usize,
    src: &Path,
    bins: &Path,
    store: &Path,
) -> (Duration, BuildReport, Irm) {
    let t0 = Instant::now();
    let store = (mode == Mode::Store).then(|| Arc::new(Store::open(store).expect("store opens")));
    let (session, project) = BuildSession::open_dir(
        src,
        bins,
        Strategy::Cutoff,
        mode == Mode::Paranoid,
        store,
        jobs,
    )
    .expect("bench sources scan");
    assert!(session.notes.is_empty(), "{:?}", session.notes);
    let mut irm = session.irm;
    let report = irm.build_with_jobs(&project, jobs).expect("bench build");
    (t0.elapsed(), report, irm)
}

/// One timed build request over the daemon socket, which must succeed
/// having recompiled exactly `recompiled` units.
fn timed_request(socket: &Path, recompiled: usize) -> (Duration, Response) {
    let t0 = Instant::now();
    let response = client::request(socket, &Request::build(true)).expect("daemon answers");
    let dt = t0.elapsed();
    assert!(response.ok, "{}", response.error);
    assert_eq!(response.exit_code, 0, "{}", response.summary);
    assert!(
        response
            .summary
            .contains(&format!(": {recompiled} recompiled")),
        "expected {recompiled} recompiled: {}",
        response.summary
    );
    (dt, response)
}

/// Best of `RUNS` calls of `f`.
fn best(mut f: impl FnMut() -> Duration) -> Duration {
    (0..RUNS).map(|_| f()).min().expect("RUNS > 0")
}

/// Measures one `(units, jobs, mode)` row and returns its metrics as
/// `(name, duration)` pairs.  Runs in [`Mode::ALL`] order per point:
/// `stamped` leaves `dirs.bins` in sync with the sources for the warm
/// modes after it, and `store` runs last, so the store it fills holds
/// the sources every later row builds.
fn measure(
    mode: Mode,
    jobs: usize,
    w: &mut Workload,
    dirs: &Dirs,
) -> Vec<(&'static str, Duration)> {
    let n = w.module_count();
    // The last module is a fan leaf by construction: no dependents, so
    // a body edit recompiles exactly one of the N units.
    let victim = n - 1;
    let Dirs {
        src, bins, store, ..
    } = dirs;
    let noop = || {
        best(|| {
            let (dt, report, _) = pipeline(mode, jobs, src, bins, store);
            assert_eq!(report.recompiled.len(), 0, "no-op must recompile nothing");
            dt
        })
    };
    let leaf = |w: &mut Workload| {
        best(|| {
            edit_leaf(src, w, victim);
            // The edit is timed through its save: a user's build pays
            // for persisting the recompiled bin too.
            let t0 = Instant::now();
            let (_, report, mut irm) = pipeline(mode, jobs, src, bins, store);
            irm.save_bins(bins).expect("save archive");
            let dt = t0.elapsed();
            assert_eq!(
                report.recompiled.len(),
                1,
                "leaf edit must recompile one unit"
            );
            dt
        })
    };
    match mode {
        Mode::Stamped => {
            std::fs::remove_dir_all(bins).ok();
            let (cold, report, mut irm) = pipeline(mode, jobs, src, bins, store);
            assert_eq!(report.recompiled.len(), n, "cold build compiles everything");
            irm.save_bins(bins).expect("save archive");
            drop(irm);
            vec![
                ("cold_ms", cold),
                ("noop_ms", noop()),
                ("leaf_edit_ms", leaf(w)),
            ]
        }
        Mode::Paranoid => vec![("noop_ms", noop()), ("leaf_edit_ms", leaf(w))],
        Mode::Daemon => {
            let mut config = ServerConfig::new(src, bins);
            config.jobs = jobs;
            let server = ServerHandle::spawn(config).expect("daemon spawns");
            let socket = server.socket_path().to_path_buf();
            // Prime one build so a retained snapshot exists.
            let (_, primed) = timed_request(&socket, 0);
            assert!(!primed.cached, "the primer is a real build");
            let noop = best(|| {
                let (dt, response) = timed_request(&socket, 0);
                assert!(response.cached, "an empty drain is snapshot-served");
                dt
            });
            let touched = src.join(format!("{}.sml", module_name(0)));
            let bytes = std::fs::read(&touched).unwrap();
            let event = best(|| {
                std::fs::write(&touched, &bytes).unwrap();
                let (dt, response) = timed_request(&socket, 0);
                assert!(!response.cached, "an event runs the ladder");
                dt
            });
            let edit = best(|| {
                edit_leaf(src, w, victim);
                timed_request(&socket, 1).0
            });
            server.stop().expect("daemon stops");
            vec![
                ("noop_ms", noop),
                ("event_noop_ms", event),
                ("leaf_edit_ms", edit),
            ]
        }
        Mode::Store => {
            if !store.exists() {
                // The earlier checkout: a cold build of `src` with bins
                // of its own fills the store; then a fresh copy of the
                // same sources.
                let fill = dirs.base.join("fill-bins");
                let (_, report, _) = pipeline(mode, jobs, src, &fill, store);
                assert_eq!(report.recompiled.len(), n, "the fill compiles everything");
                std::fs::create_dir_all(&dirs.checkout).unwrap();
                write_sources(&dirs.checkout, w);
            }
            let fresh_bins = dirs.base.join(format!("checkout-bins-{jobs}"));
            let (cold, report, _) = pipeline(mode, jobs, &dirs.checkout, &fresh_bins, store);
            assert_eq!(report.store_hits.len(), n, "every unit is a store hit");
            vec![("cold_ms", cold)]
        }
    }
}

/// CI scale smoke: one 100,000-unit round trip — cold build, no-op,
/// one-leaf edit — gated on hard *counter* assertions rather than wall
/// clock (CI hosts are too noisy for a timing gate at this size): the
/// no-op reads zero source files and schedules an empty dirty set, the
/// import DAG rehydrates from the pack, and the leaf edit's dirty
/// seed and cone are both exactly the one edited unit.
fn scale_smoke() {
    const N: usize = 100_000;
    let jobs = JOBS[JOBS.len() - 1];
    println!("== monorepo scale smoke (N={N}, jobs={jobs}, counters asserted) ==");
    let mut w = workload(
        Topology::Monorepo {
            units: N,
            seed: 1994,
        },
        2,
        false,
    );
    let dirs = Dirs::new("scale");
    let (src, bins) = (&dirs.src, &dirs.bins);
    write_sources(src, &w);
    let stamped = |src: &Path| pipeline(Mode::Stamped, jobs, src, bins, &dirs.store);

    let (cold, report, mut irm) = stamped(src);
    assert_eq!(report.recompiled.len(), N, "cold build compiles everything");
    irm.save_bins(bins).expect("save archive");
    drop(irm);

    let collector = trace::Collector::new();
    collector.install();
    let (noop, report, _) = stamped(src);
    trace::uninstall();
    assert_eq!(
        report.recompiled.len(),
        0,
        "no-op build must recompile nothing"
    );
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
        "the import DAG must rehydrate from the pack's graph section"
    );

    // The last module is a fan leaf: no dependents, so its dirty cone
    // is exactly itself — dirty-set size == cone size == 1 of 100,000.
    edit_leaf(src, &mut w, N - 1);
    let collector = trace::Collector::new();
    collector.install();
    let (leaf, report, mut irm) = stamped(src);
    trace::uninstall();
    assert_eq!(
        report.recompiled.len(),
        1,
        "leaf body edit must recompile one unit"
    );
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
    irm.save_bins(bins).expect("save archive");

    println!(
        "  N={N} jobs={jobs}: cold {} ms | no-op {} ms | one-leaf-edit {} ms",
        ms(cold),
        ms(noop),
        ms(leaf)
    );
    println!("scale smoke: all counters as asserted");
    std::fs::remove_dir_all(&dirs.base).ok();
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

    println!("== monorepo builds by (units, jobs, mode), warm points best of {RUNS} ==");
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
        let dirs = Dirs::new(&format!("mono-{n}"));
        write_sources(&dirs.src, &w);
        for mode in Mode::ALL {
            for jobs in JOBS {
                let metrics = measure(mode, jobs, &mut w, &dirs);
                let shown: Vec<String> = metrics
                    .iter()
                    .map(|(name, d)| format!("{name} {}", ms(*d)))
                    .collect();
                println!(
                    "  N={n} jobs={jobs} {:>8}: {}",
                    mode.name(),
                    shown.join(" | ")
                );
                let fields: Vec<String> = metrics
                    .iter()
                    .map(|(name, d)| format!(r#""{name}":{}"#, ms(*d)))
                    .collect();
                rows.push(format!(
                    r#"{{"units":{n},"jobs":{jobs},"mode":"{}",{}}}"#,
                    mode.name(),
                    fields.join(",")
                ));
            }
        }
        std::fs::remove_dir_all(&dirs.base).ok();
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
