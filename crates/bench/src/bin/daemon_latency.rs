//! Daemon round-trip latency: what a resident session buys over even
//! the fastest cold-process warm build.
//!
//! ```text
//! cargo run --release -p smlsc-bench --bin daemon_latency
//! cargo run --release -p smlsc-bench --bin daemon_latency -- --smoke --out BENCH_daemon.json
//! ```
//!
//! Three no-op latencies are compared at every size, best-of-`RUNS`:
//!
//! * `coldproc` — a full cold-process warm-build pipeline (the
//!   `null_build` fast path: load stamps, open the `bins.pack` index,
//!   scan sources, cutoff build);
//! * `daemon_event` — a socket round-trip after one source was
//!   rewritten with the same bytes: the build drains the file event,
//!   re-reads that one file and runs the analysis ladder over every
//!   unit from its caches, recompiling nothing;
//! * `daemon_noop` — a socket round-trip with nothing changed: the
//!   drain finds the watch queue empty and the request is answered from
//!   the retained snapshot — protocol cost plus one empty `read(2)`.
//!
//! The headline ratio is `coldproc / daemon_noop`: process start-up,
//! stamp-file parse, and pack-index open all disappear from the warm
//! no-op once a daemon holds them resident.  Results land in
//! `BENCH_daemon.json`.

use std::path::Path;
use std::time::{Duration, Instant};

use smlsc_bench::{ms, workload};
use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::BuildSession;
use smlsc_daemon::{client, Request, Response, ServerConfig, ServerHandle};
use smlsc_workload::{module_name, Topology, Workload};

const RUNS: usize = 5;

fn write_sources(src: &Path, w: &Workload) {
    for i in 0..w.module_count() {
        let name = module_name(i);
        let text = w.project().file(&name).unwrap().read_text().unwrap();
        std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
    }
}

/// One cold-process warm build on the fast path: load stamps, open the
/// pack index, scan sources, cutoff build.  Returns wall clock and the
/// recompile count.
fn coldproc_pipeline(src: &Path, bin_dir: &Path) -> (Duration, usize) {
    let t0 = Instant::now();
    let session = BuildSession::open(bin_dir, Strategy::Cutoff, false, None);
    assert!(session.notes.is_empty(), "{:?}", session.notes);
    let mut irm = session.irm;
    let project = Project::from_dir(src).expect("bench sources scan");
    let report = irm.build_with_jobs(&project, 4).expect("bench build");
    (t0.elapsed(), report.recompiled.len())
}

/// One timed request over the socket; the response must be a clean
/// zero-recompile report.
fn timed_noop(socket: &Path, request: &Request) -> (Duration, Response) {
    let t0 = Instant::now();
    let response = client::request(socket, request).expect("daemon answers");
    let dt = t0.elapsed();
    assert!(response.ok, "{}", response.error);
    assert_eq!(response.exit_code, 0, "{}", response.summary);
    assert!(
        response.summary.contains("0 recompiled"),
        "no-op must recompile nothing: {}",
        response.summary
    );
    (dt, response)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_daemon.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out <file>").clone(),
            other => panic!("unknown argument `{other}`"),
        }
    }
    let sizes: &[usize] = if smoke { &[50] } else { &[50, 200, 800, 5000] };

    println!("== daemon no-op latency (best of {RUNS}) ==");
    let mut rows = Vec::new();
    for &n in sizes {
        let lib = n / 5;
        let w = workload(
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
            std::env::temp_dir().join(format!("smlsc-bench-daemon-{n}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let src = base.join("src");
        let bin_dir = base.join("bins");
        std::fs::create_dir_all(&src).unwrap();
        write_sources(&src, &w);

        // One cold build populates the stamped archive layout.
        {
            let mut irm = Irm::new(Strategy::Cutoff);
            let project = Project::from_dir(&src).expect("bench sources scan");
            let report = irm.build_with_jobs(&project, 4).expect("cold build");
            assert_eq!(report.recompiled.len(), n);
            irm.save_bins(&bin_dir).expect("save archive");
        }

        // Baseline: the cold-process pipeline, warm caches on disk.
        let mut coldproc = Duration::MAX;
        for _ in 0..RUNS {
            let (dt, recompiled) = coldproc_pipeline(&src, &bin_dir);
            assert_eq!(recompiled, 0, "no-op build must recompile nothing");
            coldproc = coldproc.min(dt);
        }

        let mut config = ServerConfig::new(&src, &bin_dir);
        config.jobs = 4;
        let server = ServerHandle::spawn(config).expect("daemon spawns");
        let socket = server.socket_path().to_path_buf();
        // Prime one build so a retained snapshot exists.
        let (_, primed) = timed_noop(&socket, &Request::build(true));
        assert!(!primed.cached, "the primer is a real build");

        let touched = src.join(format!("{}.sml", module_name(0)));
        let bytes = std::fs::read(&touched).unwrap();
        let mut daemon_event = Duration::MAX;
        for _ in 0..RUNS {
            std::fs::write(&touched, &bytes).unwrap();
            let (dt, response) = timed_noop(&socket, &Request::build(true));
            assert!(!response.cached, "an event runs the ladder");
            daemon_event = daemon_event.min(dt);
        }
        let mut daemon_noop = Duration::MAX;
        for _ in 0..RUNS {
            let (dt, response) = timed_noop(&socket, &Request::build(true));
            assert!(response.cached, "an empty drain is snapshot-served");
            daemon_noop = daemon_noop.min(dt);
        }
        server.stop().expect("daemon stops");

        let speedup = coldproc.as_secs_f64() / daemon_noop.as_secs_f64().max(1e-9);
        println!(
            "  N={n}: coldproc {} ms | daemon one event {} ms | daemon no-op {} ms | {speedup:.0}x",
            ms(coldproc),
            ms(daemon_event),
            ms(daemon_noop)
        );
        rows.push(format!(
            r#"{{"units":{n},"coldproc_noop_ms":{},"daemon_event_noop_ms":{},"daemon_noop_ms":{},"daemon_speedup":{speedup:.1}}}"#,
            ms(coldproc),
            ms(daemon_event),
            ms(daemon_noop)
        ));
        std::fs::remove_dir_all(&base).ok();
    }

    let host = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        r#"{{"bench":"daemon_latency","runs_per_point":{RUNS},"smoke":{smoke},"host_parallelism":{host},"underpowered_host":{},"rows":[{}]}}"#,
        host == 1,
        rows.join(",")
    );
    std::fs::write(&out, &json).expect("write benchmark output");
    println!("\nresults written to {out}");
}
