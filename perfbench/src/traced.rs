//! The traced replay: the same seeded steps, run in-process, with the
//! benchmark's own spans around each public call into a layer.  Inside a
//! build it reads only what the program already exposes: the
//! `BuildReport`, and the `irm.*` spans and counters its collector
//! gathers (for the daemon, the reply's `stats_json` and the ledger
//! record it appended).  It adds no tracing to the program.
//!
//! Every layer is reported as a mean per step, so the wall-time layers
//! add up: `other.ms = step.ms - Σ wall layers`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use smlsc::core::irm::{FailurePolicy, Irm, Project, Strategy};
use smlsc::core::resident::Resident;
use smlsc::core::{Ledger, LedgerRecord};
use smlsc::trace::{self, names, Collector};

use crate::e2e::{self, Ctx, Daemon, Tally, JOBS};
use crate::oracle;
use crate::script::{Repo, Script};
use crate::stats::{median, Metrics};

/// Layers that partition a step's wall time.
const WALL_LAYERS: [&str; 13] = [
    "scan.ms",
    "stamps.load.ms",
    "pack.load.ms",
    "irm.analyze_all.ms",
    "irm.graph.ms",
    "irm.dirty.ms",
    "sched.wavefront.ms",
    "pack.save.ms",
    "stamps.save.ms",
    "ledger.append.ms",
    "teardown.ms",
    "link.execute.ms",
    "daemon.overhead.ms",
];

/// One step's layer values.
type Row = BTreeMap<&'static str, f64>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` into `row[name]` (accumulating).
fn timed<T>(row: &mut Row, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *row.entry(name).or_default() += ms(t0.elapsed());
    out
}

fn span_ms(c: &Collector, name: &str) -> f64 {
    c.histogram(name).map_or(0.0, |h| h.total_us() as f64 / 1e3)
}

/// The accumulated replay, and the benchmark's own `Resident`, which
/// re-stats the tree before every step: on `daemon_loop` that is the
/// sweep the daemon's watcher and each fresh request make; on the CLI
/// workloads it prices the same sweep over the same tree, the layer a
/// daemon puts in place of `scan` and the loads.
struct Replay {
    resident: Resident,
    rows: Vec<Row>,
    traced_noop: Vec<f64>,
    untraced_noop: Vec<f64>,
    stale_summary: u64,
    tally: Tally,
}

impl Replay {
    fn new(repo: &Repo, tally: Tally) -> std::io::Result<Replay> {
        let resident = Resident::open(&repo.dir, &repo.bin_dir(), Strategy::Cutoff, None)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Replay {
            resident,
            rows: Vec::new(),
            traced_noop: Vec::new(),
            untraced_noop: Vec::new(),
            stale_summary: 0,
            tally,
        })
    }

    /// A fresh row holding the time of one `Resident::diff_from_disk`
    /// (plus applying its events).
    fn rescan(&self) -> std::io::Result<Row> {
        let mut row = Row::new();
        timed(&mut row, "resident.rescan.ms", || {
            self.resident
                .diff_from_disk()
                .map(|events| self.resident.apply_events(&events))
        })
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(row)
    }

    /// Closes a step: derives `other.ms` and keeps the row.
    fn push(&mut self, mut row: Row) {
        let layers: f64 = WALL_LAYERS.iter().filter_map(|l| row.get(l)).sum();
        let other = row.get("step.ms").copied().unwrap_or(0.0) - layers;
        row.insert("other.ms", other);
        self.rows.push(row);
    }

    fn total(&self, key: &str) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| r.get(key))
            .fold(0.0, |a, b| a + b)
    }

    fn mean(&self, key: &str) -> f64 {
        self.total(key) / self.rows.len().max(1) as f64
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.total(den);
        if d > 0.0 {
            self.total(num) / d
        } else {
            0.0
        }
    }
}

/// Per-layer metrics in `BENCHMARK.json` order: name, unit.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("step.ms", "ms"),
    ("scan.ms", "ms"),
    ("stamps.load.ms", "ms"),
    ("pack.load.ms", "ms"),
    ("teardown.ms", "ms"),
    ("pack.save.ms", "ms"),
    ("pack.save.bytes", "bytes"),
    ("stamps.save.ms", "ms"),
    ("stamps.save.bytes", "bytes"),
    ("ledger.append.ms", "ms"),
    ("irm.analyze_all.ms", "ms"),
    ("irm.graph.ms", "ms"),
    ("irm.dirty.ms", "ms"),
    ("sched.wavefront.ms", "ms"),
    ("source.reads", "count"),
    ("stamp.misses", "count"),
    ("deps.pack_hits", "count"),
    ("sched.dirty_cone", "count"),
    ("syntax.parse.ms", "ms"),
    ("statics.elaborate.ms", "ms"),
    ("hash.ms", "ms"),
    ("pickle.dehydrate.ms", "ms"),
    ("sched.worker_busy_frac", "ratio"),
    ("pickle.rehydrate.ms", "ms"),
    ("rehydrate.allocs", "count"),
    ("link.execute.ms", "ms"),
    ("resident.rescan.ms", "ms"),
    ("daemon.overhead.ms", "ms"),
    ("daemon.stale_summary", "count"),
    ("irm.units_compiled", "count"),
    ("other.ms", "ms"),
    ("other.frac", "ratio"),
    ("trace.overhead.ms", "ms"),
    ("steps", "count"),
];

/// The kind of in-process step, mirroring one CLI invocation.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Verb {
    Build,
    Run,
}

/// One `smlsc build`/`smlsc run` replayed in-process in the CLI's call
/// order.  With `traced`, each call gets a span and the collector's
/// spans and counters are read back; without, only the step wall is
/// kept (the collector stays installed either way, as in the CLI).
/// Returns the units recompiled and the row.
fn cli_step(repo: &Repo, verb: Verb, traced: bool) -> Result<(u64, Row), String> {
    let mut row = Row::new();
    let bin_dir = repo.bin_dir();
    let stamps_path = bin_dir.join("stamps.json");
    let started = Instant::now();
    let collector = Collector::new();
    collector.install();
    let project =
        timed(&mut row, "scan.ms", || Project::from_dir(&repo.dir)).map_err(|e| e.to_string())?;
    let mut irm = Irm::new(Strategy::Cutoff);
    timed(&mut row, "stamps.load.ms", || irm.load_stamps(&stamps_path));
    if bin_dir.is_dir() {
        timed(&mut row, "pack.load.ms", || irm.load_bins(&bin_dir)).map_err(|e| e.to_string())?;
    }
    let report = irm
        .build_with(&project, JOBS, FailurePolicy::FailFast)
        .map_err(|e| e.to_string())?;
    timed(&mut row, "pack.save.ms", || irm.save_bins(&bin_dir)).map_err(|e| e.to_string())?;
    let skipped_before = collector.counter(names::STAMP_SAVES_SKIPPED);
    timed(&mut row, "stamps.save.ms", || irm.save_stamps(&stamps_path))
        .map_err(|e| e.to_string())?;
    if collector.counter(names::STAMP_SAVES_SKIPPED) == skipped_before {
        let bytes = std::fs::metadata(&stamps_path).map_or(0, |m| m.len());
        row.insert("stamps.save.bytes", bytes as f64);
    }
    timed(&mut row, "ledger.append.ms", || {
        let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let record = LedgerRecord::from_build(&report, &collector, JOBS, wall_us, 0);
        Ledger::for_bin_dir(&bin_dir).append(&record)
    })
    .map_err(|e| e.to_string())?;
    let before = [
        span_ms(&collector, names::SPAN_ANALYZE_ALL),
        span_ms(&collector, names::SPAN_GRAPH),
        span_ms(&collector, names::SPAN_BUILD),
    ];
    if verb == Verb::Run {
        let t0 = Instant::now();
        irm.execute_with_jobs(&project, JOBS)
            .map_err(|e| e.to_string())?;
        let wall = ms(t0.elapsed());
        let build = span_ms(&collector, names::SPAN_ANALYZE_ALL) - before[0]
            + span_ms(&collector, names::SPAN_GRAPH)
            - before[1]
            + span_ms(&collector, names::SPAN_BUILD)
            - before[2];
        row.insert("link.execute.ms", wall - build);
    }
    trace::uninstall();
    if traced {
        // Totals over both builds of a run step: the execute's own
        // build was subtracted from `link.execute.ms` above.
        let build = span_ms(&collector, names::SPAN_BUILD);
        let dirty = span_ms(&collector, names::SPAN_DIRTY);
        row.insert(
            "irm.analyze_all.ms",
            span_ms(&collector, names::SPAN_ANALYZE_ALL),
        );
        row.insert("irm.graph.ms", span_ms(&collector, names::SPAN_GRAPH));
        row.insert("irm.dirty.ms", dirty);
        row.insert("sched.wavefront.ms", build - dirty);
        row.insert("sched.capacity.ms", build * JOBS as f64);
        row.insert("sched.task.ms", span_ms(&collector, names::SPAN_TASK));
        row.insert("syntax.parse.ms", ms(report.timings.parse));
        row.insert("statics.elaborate.ms", ms(report.timings.elaborate));
        row.insert("hash.ms", ms(report.timings.hash));
        row.insert("pickle.dehydrate.ms", ms(report.timings.dehydrate));
        row.insert("pickle.rehydrate.ms", ms(report.rehydrate));
        for (key, counter) in COUNTERS {
            row.insert(key, collector.counter(counter) as f64);
        }
    }
    let recompiled = report.recompiled.len() as u64;
    timed(&mut row, "teardown.ms", || {
        drop(irm);
        drop(project);
    });
    row.insert("step.ms", ms(started.elapsed()));
    Ok((recompiled, row))
}

/// Per-layer counters read from the program's collector.
const COUNTERS: [(&str, &str); 7] = [
    ("source.reads", names::SOURCE_READS),
    ("stamp.misses", names::STAMP_MISSES),
    ("deps.pack_hits", names::DEPS_PACK_HITS),
    ("sched.dirty_cone", names::SCHED_DIRTY_CONE),
    ("rehydrate.allocs", names::REHYDRATE_ALLOCS),
    ("irm.units_compiled", names::UNITS_COMPILED),
    ("pack.save.bytes", names::BIN_BYTES_WRITTEN),
];

impl Replay {
    /// A checked CLI-equivalent step.  A no-op is also replayed without
    /// the benchmark's spans, for the tracing overhead; which of the
    /// pair runs first alternates, so neither side always finds the
    /// caches the other warmed.
    fn cli(&mut self, repo: &Repo, verb: Verb, label: &str, expect: u64) -> std::io::Result<()> {
        let noop = label == "noop";
        let plain_first = noop && self.untraced_noop.len() % 2 == 1;
        if plain_first {
            self.plain_noop(repo, verb);
        }
        let rescan = self.rescan()?;
        match cli_step(repo, verb, true) {
            Ok((n, mut row)) => {
                row.extend(rescan);
                self.tally.op(n == expect, || {
                    format!("traced {label}: {n} recompiled, expected {expect}")
                });
                if noop {
                    self.traced_noop.push(row["step.ms"]);
                }
                self.push(row);
            }
            Err(e) => self.tally.op(false, || format!("traced {label}: {e}")),
        }
        if noop && !plain_first {
            self.plain_noop(repo, verb);
        }
        Ok(())
    }

    fn plain_noop(&mut self, repo: &Repo, verb: Verb) {
        if let Ok((_, plain)) = cli_step(repo, verb, false) {
            self.untraced_noop.push(plain["step.ms"]);
        }
    }
}

/// `cold_build`, traced: delete the bins, cold build, no-op build, run.
fn cold_build(ctx: &Ctx, repo: &Repo, replay: &mut Replay) -> std::io::Result<()> {
    let start = Instant::now();
    while replay.rows.is_empty() || start.elapsed() < ctx.seconds {
        let bins = repo.bin_dir();
        if bins.exists() {
            std::fs::remove_dir_all(&bins)?;
        }
        crate::proc::flush_disks();
        let units = ctx.units as u64;
        replay.cli(repo, Verb::Build, "cold", units)?;
        replay.cli(repo, Verb::Build, "noop", 0)?;
        replay.cli(repo, Verb::Run, "run", 0)?;
    }
    Ok(())
}

/// `edit_loop`, traced: the script, one in-process build per step, and
/// an in-process `smlsc run` after each deck.
fn edit_loop(ctx: &Ctx, repo: &mut Repo, replay: &mut Replay) -> std::io::Result<()> {
    let mut script = Script::new(ctx.seed, repo.plan());
    let start = Instant::now();
    while replay.rows.is_empty() || start.elapsed() < ctx.seconds {
        for step in script.deck() {
            repo.apply(step)?;
            let expect = repo.expected_recompiles(step);
            replay.cli(repo, Verb::Build, &step.label(), expect)?;
        }
        replay.cli(repo, Verb::Run, "run", 0)?;
    }
    Ok(())
}

/// The microseconds a `stats_json` histogram totals, or a counter.
fn stats_value(stats: &str, section: &str, name: &str) -> f64 {
    let Some(at) = stats.find(&format!("\"{section}\":{{")) else {
        return 0.0;
    };
    let body = &stats[at..];
    let key = format!("\"{name}\":");
    let Some(k) = body.find(&key) else {
        return 0.0;
    };
    let mut rest = &body[k + key.len()..];
    if section == "histograms" {
        let Some(t) = rest.find("\"total_us\":") else {
            return 0.0;
        };
        rest = &rest[t + "\"total_us\":".len()..];
    }
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or(0.0)
}

/// `daemon_loop`, traced: the script against the real daemon, and an
/// in-process `smlsc run` after each deck.  The layers of a request come
/// from the reply's `stats_json` and the ledger record the daemon
/// appended.
fn daemon_loop(
    ctx: &Ctx,
    repo: &mut Repo,
    daemon: &Daemon,
    replay: &mut Replay,
) -> std::io::Result<()> {
    let ledger = Ledger::for_bin_dir(&repo.bin_dir());
    let mut script = Script::new(ctx.seed, repo.plan());
    let mut last_seq = 0u64;
    let start = Instant::now();
    while replay.rows.is_empty() || start.elapsed() < ctx.seconds {
        for step in script.deck() {
            repo.apply(step)?;
            let expect = repo.expected_recompiles(step);
            let mut row = replay.rescan()?;
            let t0 = Instant::now();
            let reply = daemon.request();
            let wall = ms(t0.elapsed());
            row.insert("step.ms", wall);
            let cached = reply.as_ref().is_ok_and(|r| r.cached);
            let stats = reply
                .as_ref()
                .map(|r| r.stats_json.clone())
                .unwrap_or_default();
            e2e::judge_reply(
                reply,
                step,
                expect,
                &mut last_seq,
                &mut replay.tally,
                &mut replay.stale_summary,
            );
            if cached {
                row.insert("daemon.overhead.ms", wall);
                replay.traced_noop.push(wall);
                let t1 = Instant::now();
                if daemon.request().is_ok() {
                    replay.untraced_noop.push(ms(t1.elapsed()));
                }
            } else if let Some(rec) = ledger.read().pop() {
                daemon_row(&mut row, &stats, &rec, &repo.bin_dir().join("stamps.json"));
            }
            replay.push(row);
        }
        replay.cli(repo, Verb::Run, "run", 0)?;
    }
    Ok(())
}

/// Layers of one daemon build: the snapshot's wall from the ledger, its
/// spans and counters from `stats_json`.
fn daemon_row(row: &mut Row, stats: &str, rec: &LedgerRecord, stamps: &Path) {
    let span = |n: &str| stats_value(stats, "histograms", n) / 1e3;
    let build = span(names::SPAN_BUILD);
    let dirty = span(names::SPAN_DIRTY);
    let snapshot = rec.wall_us as f64 / 1e3;
    row.insert("daemon.overhead.ms", row["step.ms"] - snapshot);
    row.insert("irm.analyze_all.ms", span(names::SPAN_ANALYZE_ALL));
    row.insert("irm.graph.ms", span(names::SPAN_GRAPH));
    row.insert("irm.dirty.ms", dirty);
    row.insert("sched.wavefront.ms", build - dirty);
    row.insert("sched.capacity.ms", build * JOBS as f64);
    row.insert("sched.task.ms", span(names::SPAN_TASK));
    row.insert("pack.save.ms", span("irm.save_bins"));
    if stats_value(stats, "counters", names::STAMP_SAVES_SKIPPED) == 0.0 {
        let bytes = std::fs::metadata(stamps).map_or(0, |m| m.len());
        row.insert("stamps.save.bytes", bytes as f64);
    }
    row.insert("syntax.parse.ms", rec.parse_us as f64 / 1e3);
    row.insert("statics.elaborate.ms", rec.elaborate_us as f64 / 1e3);
    row.insert("hash.ms", rec.hash_us as f64 / 1e3);
    row.insert("pickle.dehydrate.ms", rec.dehydrate_us as f64 / 1e3);
    row.insert("pickle.rehydrate.ms", rec.rehydrate_us as f64 / 1e3);
    for (key, counter) in COUNTERS {
        row.insert(key, stats_value(stats, "counters", counter));
    }
}

/// Spawn-to-exit of `smlsc` doing nothing (a usage error): the process
/// cost every CLI step pays on top of the in-process replay, which is
/// the CLI's counterpart of `daemon.overhead.ms`.
fn process_ms(smlsc: &Path) -> f64 {
    let samples: Vec<f64> = (0..5)
        .filter_map(|_| {
            let t0 = Instant::now();
            let status = Command::new(smlsc)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
            status.ok().map(|_| ms(t0.elapsed()))
        })
        .collect();
    median(&samples)
}

/// Runs the traced replay of `workload`; returns the per-layer metrics
/// and the correctness tally.
pub fn run(ctx: &Ctx, workload: &str) -> std::io::Result<(Metrics, Tally)> {
    let mut setup = e2e::Results::default();
    let daemon = workload == "daemon_loop";
    let (mut repo, d) = e2e::setup(ctx, workload != "cold_build", daemon, 1, &mut setup)?;
    let mut replay = Replay::new(&repo, setup.tally)?;
    match (workload, &d) {
        ("cold_build", _) => cold_build(ctx, &repo, &mut replay)?,
        ("daemon_loop", Some(d)) => daemon_loop(ctx, &mut repo, d, &mut replay)?,
        _ => edit_loop(ctx, &mut repo, &mut replay)?,
    }
    if let Some(d) = d {
        d.stop(ctx, &repo.dir)?;
    }
    let run = e2e::cli(ctx, "run", 0, &mut replay.tally, None)?;
    replay
        .tally
        .merge(oracle::check(&repo, &oracle::run_pids(&run.stdout)));

    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "sched.worker_busy_frac" => replay.ratio("sched.task.ms", "sched.capacity.ms"),
            "other.frac" => replay.ratio("other.ms", "step.ms"),
            "daemon.stale_summary" => replay.stale_summary as f64,
            "trace.overhead.ms" => median(&replay.traced_noop) - median(&replay.untraced_noop),
            "daemon.overhead.ms" if !daemon => process_ms(&ctx.smlsc),
            "steps" => replay.rows.len() as f64,
            _ => replay.mean(name),
        };
        m.put(name, value, unit);
    }
    Ok((m, replay.tally))
}
