//! `perfbench`: the end-to-end and per-layer benchmark of smlsc.
//!
//! ```text
//! perfbench --smlsc <exe> --work <dir> --workload <cold_build|edit_loop|daemon_loop>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench selftest --smlsc <exe> --work <dir> [--seed <n>]
//! ```
//!
//! Normally launched by `run.py`, which builds both binaries first.  The
//! last line of standard output is the result object; the line before
//! it (`detail ...`) records the host, the sample counts and any failure
//! reasons.  See `README.md` for the workloads and metrics.

mod e2e;
mod oracle;
mod proc;
mod script;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::Duration;

use e2e::{Ctx, Results, Tally, JOBS};
use stats::{mean, median, num, tail, Metrics};

const WORKLOADS: [&str; 3] = ["cold_build", "edit_loop", "daemon_loop"];
/// Modules in the measured project, and in the self-test's smaller one.
const UNITS: usize = 20_000;
const SELFTEST_UNITS: usize = 2_000;

struct Args {
    selftest: bool,
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let selftest = argv.peek().map(String::as_str) == Some("selftest");
    if selftest {
        argv.next();
    }
    let (mut smlsc, mut work, mut workload) = (None, None, String::new());
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--smlsc" => smlsc = Some(PathBuf::from(&value)),
            "--work" => work = Some(PathBuf::from(&value)),
            "--workload" => workload = value,
            "--seed" => seed = parsed(&flag, &value)?,
            "--seconds" => seconds = parsed(&flag, &value)?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !selftest && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(Args {
        selftest,
        workload,
        trace,
        ctx: Ctx {
            smlsc: smlsc.ok_or("--smlsc is required")?,
            work: work.ok_or("--work is required")?,
            units: if selftest { SELFTEST_UNITS } else { UNITS },
            seed,
            seconds: Duration::from_secs_f64(seconds),
        },
    })
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {flag}"))
}

/// CPUs online (`/sys/devices/system/cpu/online`, e.g. `0-1`).
fn nproc() -> usize {
    let Ok(text) = std::fs::read_to_string("/sys/devices/system/cpu/online") else {
        return 1;
    };
    text.trim()
        .split(',')
        .map(|r| match r.split_once('-') {
            Some((a, b)) => b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0),
            None => 1,
        })
        .sum()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    let nproc = nproc();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    if JOBS > nproc.min(host) {
        eprintln!(
            "perfbench: refusing to record: jobs {JOBS} exceeds nproc {nproc} / host parallelism {host}"
        );
        std::process::exit(3);
    }
    if let Err(e) = proc::become_subreaper() {
        eprintln!("perfbench: cannot adopt the daemon: {e}");
        std::process::exit(1);
    }
    let host_json = format!(
        "\"units\": {}, \"jobs\": {JOBS}, \"nproc\": {nproc}, \"host_parallelism\": {host}",
        ctx.units
    );
    let code = if args.selftest {
        selftest(ctx)
    } else {
        match measure(&args, &host_json) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        }
    };
    std::process::exit(code);
}

fn measure(args: &Args, host_json: &str) -> std::io::Result<()> {
    let ctx = &args.ctx;
    let (metrics, tally, detail) = if args.trace {
        let (m, tally) = traced::run(ctx, &args.workload)?;
        (m, tally, String::new())
    } else {
        let res = match args.workload.as_str() {
            "cold_build" => e2e::cold_build(ctx)?,
            w => e2e::edit_loop(ctx, w == "daemon_loop")?,
        };
        end_to_end(res)
    };
    let notes: Vec<String> = tally.notes.iter().map(|n| format!("{n:?}")).collect();
    println!(
        "detail {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {host_json}, \"failed_frac\": {}{detail}, \"notes\": [{}]}}",
        args.workload,
        ctx.seed,
        u8::from(args.trace),
        num(tally.failed as f64 / tally.attempted.max(1) as f64),
        notes.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
    Ok(())
}

/// The end-to-end metrics of an untraced run, plus the detail fields
/// that qualify them.
fn end_to_end(res: Results) -> (Metrics, Tally, String) {
    let (tail_ms, pct) = tail(&res.edit);
    let mut m = Metrics::default();
    m.put("setup_s", median(&res.setup), "s");
    m.put("cold_build_s", median(&res.cold), "s");
    m.put("run_s", median(&res.run), "s");
    m.put("edit_ms_p50", median(&res.edit), "ms");
    m.put("edit_ms_tail", tail_ms, "ms");
    m.put("noop_ms_p50", median(&res.noop), "ms");
    m.put("recompiles_per_edit", mean(&res.recompiles), "units");
    m.put("peak_rss_mb", res.peak_rss_kb as f64 * 1024.0 / 1e6, "MB");
    m.put("artifact_mb", res.artifact_bytes as f64 / 1e6, "MB");
    let detail = format!(
        ", \"edit_ms_tail_percentile\": {pct}, \"samples\": {{\"setup\": {}, \"cold\": {}, \"run\": {}, \"edit\": {}, \"noop\": {}}}, \"artifact_bytes\": {}, \"daemon_stale_summary\": {}, \"steps\": {}, \"script_digest\": \"{:016x}\", \"raw\": {}",
        res.setup.len(),
        res.cold.len(),
        res.run.len(),
        res.edit.len(),
        res.noop.len(),
        res.artifact_bytes,
        res.stale_summary,
        res.steps.len(),
        digest(&res.steps),
        raw(&res)
    );
    (m, res.tally, detail)
}

/// Every timing sample of the run, in the order taken (ms; setup, cold
/// and run in s), for reading the spread behind a median.
fn raw(res: &Results) -> String {
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"setup\": {}, \"cold\": {}, \"run\": {}, \"edit\": {}, \"noop\": {}}}",
        list(&res.setup),
        list(&res.cold),
        list(&res.run),
        list(&res.edit),
        list(&res.noop)
    )
}

/// FNV-1a over the step labels: equal scripts, equal digests.
fn digest(steps: &[String]) -> u64 {
    steps
        .iter()
        .flat_map(|s| s.bytes().chain([b'\n']))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// What one seeded edit-loop deck produced, for the determinism check.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    steps: Vec<String>,
    recompiles: Vec<u64>,
    artifact_bytes: u64,
    counters: Vec<(&'static str, String)>,
}

fn fingerprint(ctx: &Ctx) -> std::io::Result<Fingerprint> {
    let res = e2e::edit_loop(ctx, false)?;
    let (m, tally) = traced::run(ctx, "edit_loop")?;
    if res.tally.failed + tally.failed > 0 {
        return Err(std::io::Error::other(format!(
            "failed operations: {:?} {:?}",
            res.tally.notes, tally.notes
        )));
    }
    let exact = [
        "source.reads",
        "stamp.misses",
        "deps.pack_hits",
        "sched.dirty_cone",
        "rehydrate.allocs",
        "irm.units_compiled",
        "pack.save.bytes",
        "stamps.save.bytes",
        "daemon.stale_summary",
    ];
    Ok(Fingerprint {
        steps: res.steps,
        recompiles: res.recompiles.iter().map(|&r| r as u64).collect(),
        artifact_bytes: res.artifact_bytes,
        counters: m
            .0
            .iter()
            .filter(|(n, _, _)| exact.contains(n))
            .map(|(n, v, _)| (*n, num(*v)))
            .collect(),
    })
}

/// Determinism self-test: one deck, twice with the same seed and once
/// with the next seed.  The same seed must give the same steps,
/// recompiles, artifact bytes and exact counters; another seed must give
/// other steps.
fn selftest(ctx: &Ctx) -> i32 {
    let with_seed = |seed| Ctx {
        smlsc: ctx.smlsc.clone(),
        work: ctx.work.clone(),
        units: ctx.units,
        seed,
        seconds: Duration::ZERO,
    };
    let runs: std::io::Result<Vec<Fingerprint>> = [ctx.seed, ctx.seed, ctx.seed + 1]
        .into_iter()
        .map(|s| fingerprint(&with_seed(s)))
        .collect();
    let runs = match runs {
        Ok(r) => r,
        Err(e) => {
            println!("selftest: FAIL: {e}");
            return 1;
        }
    };
    let same = runs[0] == runs[1];
    let differs = runs[0].steps != runs[2].steps;
    println!(
        "selftest: same seed reproduces steps, recompiles, artifact bytes and counters: {same}"
    );
    println!("selftest: another seed changes the step sequence: {differs}");
    if !same {
        println!("  first:  {:?}", runs[0]);
        println!("  second: {:?}", runs[1]);
    }
    if same && differs {
        println!("selftest: PASS");
        0
    } else {
        println!("selftest: FAIL");
        1
    }
}
