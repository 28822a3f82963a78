//! The `smlsc` command-line driver.
//!
//! ```text
//! smlsc build <dir>    incrementally compile every *.sml file in <dir>
//!                      (bins cached in <dir>/.smlsc-bins by default)
//! smlsc run <dir>      build, link, execute, and print the exports
//! smlsc profile <dir>  build, then print a critical-path profile: the
//!                      top-k slowest units with per-phase breakdown,
//!                      the import-DAG critical path, and the wall time
//!                      the caches saved vs a rebuild-everything build
//! smlsc history <dir>  query the persistent build ledger
//!                      (<bin-dir>/builds.jsonl): median/p95 wall time,
//!                      cache hit-rate drift, regression flags
//! smlsc repl           interactive compile-and-execute session (§7);
//!                      terminate each input with a line ending in `;;`
//! smlsc cache <op>     manage a shared artifact store: stats | gc |
//!                      verify | clear
//! smlsc doctor <dir>   audit every kind of durable build state (stamps,
//!                      pack, ledger, store, daemon socket/lock, commit
//!                      litter) and print a JSON report; with --fix,
//!                      repair what the audit finds.  Exit 0 when
//!                      healthy or fully repaired, 4 when issues were
//!                      found without --fix, 3 when a repair failed
//! smlsc daemon <op>    resident build server for <dir>: start | stop |
//!                      restart | status | run.  While one is running,
//!                      plain `smlsc build` requests are served over its
//!                      socket from the in-memory analysis — a warm
//!                      no-op answers without reloading any cache.
//!                      `run` serves in the foreground (`start` uses it
//!                      internally); `stop` and `status` talk to the
//!                      socket in <bin-dir>; `restart` is stop-then-
//!                      start (idempotent — works with no daemon up).
//!                      Env knob for `run`/`start`:
//!                      SMLSC_DAEMON_IDLE_SECS (auto-shutdown after
//!                      this long idle)
//!
//! build/run options:
//!   --strategy <s>     recompilation strategy: cutoff (default),
//!                      timestamp, or classical
//!   --jobs <n>         compile up to <n> units in parallel (default:
//!                      available CPU parallelism; 1 = all on the
//!                      calling thread)
//!   --keep-going, -k   on a unit failure, keep compiling every unit
//!                      that does not depend on it; dependents are
//!                      reported as skipped
//!   --bin-dir <dir>    where per-project bins live (default:
//!                      <dir>/.smlsc-bins)
//!   --store <dir>      shared content-addressed artifact store; compiles
//!                      publish to it, recompile verdicts probe it first
//!                      (default: the SMLSC_STORE environment variable)
//!   --inject-faults <spec>  install a deterministic fault plan for
//!                      chaos testing (or the SMLSC_FAULTS environment
//!                      variable); see the README for the grammar
//!   --paranoid         distrust the stamp cache: re-read and re-digest
//!                      every source file even when its (mtime, size)
//!                      stamp matches the previous run
//!   --no-daemon        never dispatch this build to a running daemon,
//!                      even when one is serving the project
//!   --explain          print why each unit was recompiled or reused
//!   --stats            print a JSON telemetry report (counters and
//!                      per-phase duration histograms) to stdout
//!   --trace-out <f>    write a Chrome trace-event JSON file (load it in
//!                      chrome://tracing or https://ui.perfetto.dev)
//!   --report-json <f>  write the full machine-readable build report
//!                      (ledger record + per-unit decisions + counters)
//!   --top <n>          profile: how many units to show (default 10)
//!
//! Exit codes: 0 success; 1 source/compile failure; 2 usage error;
//! 3 internal error (a caught compiler panic); 4 store or filesystem
//! IO failure.
//!
//! cache options:
//!   --store <dir>          the store to operate on (or SMLSC_STORE)
//!   --max-bytes <n>        gc: evict LRU objects until the store fits
//!   --max-age-secs <n>     gc: evict objects unused for longer than this
//! ```
//!
//! The driver is a thin client of the library — exactly the paper's
//! architecture, where batch compilation, the interactive loop and user
//! metaprograms all sit on the same primitives.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use smlsc::core::build_session::{
    exit_code, explain_lines, BuildSession, EXIT_COMPILE, EXIT_IO, EXIT_OK,
};
use smlsc::core::irm::{FailurePolicy, Strategy};
use smlsc::core::session::Session;
use smlsc::core::store::fsutil;
use smlsc::core::store::{GcConfig, Store};
use smlsc::core::trace;

const USAGE: &str = "usage: smlsc build [options] <dir> | smlsc run [options] <dir> | smlsc profile [options] <dir> | smlsc history [options] <dir> | smlsc repl | smlsc cache <stats|gc|verify|clear> [options] | smlsc doctor [--fix] [options] <dir> | smlsc daemon <start|stop|restart|status|run> [options] <dir>\noptions: --strategy <cutoff|timestamp|classical>  --jobs <n>  --keep-going|-k  --bin-dir <dir>  --store <dir>  --inject-faults <spec>  --paranoid  --no-daemon  --explain  --stats  --trace-out <file>  --report-json <file>  --top <n>\ncache options: --store <dir>  --max-bytes <n>  --max-age-secs <n>\nexit codes: 0 ok, 1 compile failure, 2 usage, 3 internal error, 4 store/io error";

/// Usage errors; the build exit codes are `smlsc_core::build_session`'s.
const EXIT_USAGE: i32 = 2;

/// Where the bins of the project in `dir` live: `--bin-dir`, else
/// `<dir>/.smlsc-bins`.
fn bin_dir_for(dir: &Path, flag: &Option<PathBuf>) -> PathBuf {
    flag.clone().unwrap_or_else(|| dir.join(".smlsc-bins"))
}

/// Resolves the store directory: an explicit `--store` wins, else the
/// `SMLSC_STORE` environment variable (ignored when empty).
fn resolve_store(flag: &Option<String>) -> Option<PathBuf> {
    flag.clone()
        .or_else(|| std::env::var("SMLSC_STORE").ok())
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// Installs the deterministic fault plan from `--inject-faults` (wins)
/// or the `SMLSC_FAULTS` environment variable.  No-op when neither is
/// set; a malformed spec is a usage error.
fn install_faults(flag: &Option<String>) -> Result<(), String> {
    let spec = flag
        .clone()
        .or_else(|| std::env::var("SMLSC_FAULTS").ok())
        .filter(|s| !s.is_empty());
    if let Some(spec) = spec {
        let plan = smlsc::faults::FaultPlan::parse(&spec)
            .map_err(|e| format!("--inject-faults/SMLSC_FAULTS: {e}"))?;
        smlsc::faults::install_global(plan);
    }
    Ok(())
}

/// Options for `smlsc build` / `smlsc run`.
#[derive(Default)]
struct BuildOpts {
    dir: Option<String>,
    strategy: Strategy,
    jobs: Option<usize>,
    keep_going: bool,
    bin_dir: Option<PathBuf>,
    store: Option<String>,
    inject_faults: Option<String>,
    paranoid: bool,
    no_daemon: bool,
    explain: bool,
    stats: bool,
    trace_out: Option<PathBuf>,
    report_json: Option<PathBuf>,
    top: Option<usize>,
}

impl BuildOpts {
    /// Parses the arguments after the subcommand.  `Err` is a message for
    /// stderr (usage errors exit with code 2).
    fn parse(args: &[String]) -> Result<BuildOpts, String> {
        let mut opts = BuildOpts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut take = |flag: &str| -> Result<String, String> {
                match arg.strip_prefix(&format!("{flag}=")) {
                    Some(v) => Ok(v.to_string()),
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| format!("{flag} requires a value")),
                }
            };
            if arg == "--strategy" || arg.starts_with("--strategy=") {
                opts.strategy = take("--strategy")?.parse()?;
            } else if arg == "--jobs" || arg.starts_with("--jobs=") {
                let v = take("--jobs")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(n);
            } else if arg == "--trace-out" || arg.starts_with("--trace-out=") {
                opts.trace_out = Some(PathBuf::from(take("--trace-out")?));
            } else if arg == "--report-json" || arg.starts_with("--report-json=") {
                opts.report_json = Some(PathBuf::from(take("--report-json")?));
            } else if arg == "--top" || arg.starts_with("--top=") {
                let v = take("--top")?;
                opts.top = Some(
                    v.parse()
                        .map_err(|_| format!("--top expects a positive integer, got `{v}`"))?,
                );
            } else if arg == "--bin-dir" || arg.starts_with("--bin-dir=") {
                opts.bin_dir = Some(PathBuf::from(take("--bin-dir")?));
            } else if arg == "--store" || arg.starts_with("--store=") {
                opts.store = Some(take("--store")?);
            } else if arg == "--inject-faults" || arg.starts_with("--inject-faults=") {
                opts.inject_faults = Some(take("--inject-faults")?);
            } else if arg == "--keep-going" || arg == "-k" {
                opts.keep_going = true;
            } else if arg == "--paranoid" {
                opts.paranoid = true;
            } else if arg == "--no-daemon" {
                opts.no_daemon = true;
            } else if arg == "--explain" {
                opts.explain = true;
            } else if arg == "--stats" {
                opts.stats = true;
            } else if arg.starts_with('-') {
                return Err(format!("unknown option `{arg}`"));
            } else if opts.dir.is_none() {
                opts.dir = Some(arg.clone());
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            }
        }
        Ok(opts)
    }

    /// The worker count: `--jobs` if given, else the machine's available
    /// parallelism (1 when that cannot be determined).
    fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some(cmd @ ("build" | "run" | "profile")) => match BuildOpts::parse(&args[1..]) {
            Ok(opts) => build(
                opts,
                match cmd {
                    "run" => Mode::Run,
                    "profile" => Mode::Profile,
                    _ => Mode::Build,
                },
            ),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                2
            }
        },
        Some("history") => match BuildOpts::parse(&args[1..]) {
            Ok(opts) => history(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                2
            }
        },
        Some("repl") => repl(),
        Some("cache") => cache(&args[1..]),
        Some("doctor") => doctor_cmd(&args[1..]),
        Some("daemon") => daemon_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// What `build()` does after the build finishes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Compile only.
    Build,
    /// Compile, then link and execute.
    Run,
    /// Compile, then print the critical-path profile.
    Profile,
}

fn build(opts: BuildOpts, mode: Mode) -> i32 {
    let run = mode == Mode::Run;
    let Some(dir) = &opts.dir else {
        eprintln!(
            "usage: smlsc {} [options] <dir>",
            match mode {
                Mode::Run => "run",
                Mode::Profile => "profile",
                Mode::Build => "build",
            }
        );
        return EXIT_USAGE;
    };
    if let Err(e) = install_faults(&opts.inject_faults) {
        eprintln!("error: {e}");
        return EXIT_USAGE;
    }
    let dir = PathBuf::from(dir);
    let bin_dir = bin_dir_for(&dir, &opts.bin_dir);
    // Transparent daemon dispatch: a plain build against a project with
    // a live daemon is served over the socket from the in-memory
    // analysis.  Any client-side failure — no daemon, stale socket, a
    // daemon killed mid-request — falls through to the in-process build
    // below: the daemon is a latency optimization, never a correctness
    // dependency.
    if mode == Mode::Build && daemon_eligible(&opts) {
        if let Some(code) = daemon_dispatch(&opts, &bin_dir) {
            return code;
        }
    }
    let started = std::time::Instant::now();
    // The collector is always on: the ledger record appended after every
    // build reads its counters, and `--stats`/`--trace-out`/`profile`
    // consume the rest.  Collection is a few Vec pushes per unit —
    // noise against a compile.
    let collector = trace::Collector::new();
    collector.install();
    let store = resolve_store(&opts.store).map(|store_dir| {
        Store::open(&store_dir)
            .map(Arc::new)
            .map_err(|e| format!("cannot open store {}: {e}", store_dir.display()))
    });
    let jobs = opts.effective_jobs();
    // A stat-only scan, beside the pack load: a warm build whose stamps
    // all match never opens a source.
    let opened = BuildSession::open_dir(
        &dir,
        &bin_dir,
        opts.strategy,
        opts.paranoid,
        store.clone().and_then(Result::ok),
        jobs,
    );
    let (mut session, project) = match opened {
        Ok((_, p)) if p.files().is_empty() => {
            eprintln!("error: no .sml files in {}", dir.display());
            return EXIT_COMPILE;
        }
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_COMPILE;
        }
    };
    if let Some(Err(e)) = store {
        // A requested-but-unusable store is a hard error: the user
        // asked for shared caching and silently building without it
        // would hide misconfiguration.
        eprintln!("error: {e}");
        return EXIT_IO;
    }
    if session.irm.bin_count() > 0 {
        println!("loaded {} cached bin(s)", session.irm.bin_count());
    }
    let policy = if opts.keep_going {
        FailurePolicy::KeepGoing
    } else {
        FailurePolicy::FailFast
    };
    let mut built = match session.build(&project, jobs, policy) {
        Ok(built) => built,
        Err(e) => {
            print_build(&session.notes, Err(&e.to_string()), &[]);
            return exit_code(Err(&e));
        }
    };
    let explain = opts
        .explain
        .then(|| explain_lines(built.report.all_decisions()));
    // Printed before the persist, which may wait on another writer's
    // pack lock.
    print_build(
        &built.notes,
        Ok(&built.summary),
        &explain.unwrap_or_default(),
    );
    // Links against the report just printed (only a corrupt body builds
    // again) before the persist, so the save keeps what the link
    // repaired and the record times the link too.
    let linked = (run && built.report.succeeded()).then(|| {
        session
            .irm
            .link_with_jobs(&project, &mut built.report, jobs)
    });
    let (record, warnings) = session.finish(&built, &collector, jobs, started, false);
    for warning in &warnings {
        eprintln!("{warning}");
    }
    let report = &built.report;
    if let Some(path) = &opts.report_json {
        let json = smlsc::core::build_report_json(&record, report, &collector);
        match std::fs::write(path, json) {
            Ok(()) => println!("report written to {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                return EXIT_IO;
            }
        }
    }
    if mode == Mode::Profile {
        match session.irm.import_graph(&project) {
            Ok(graph) => {
                // A warm build compiles nothing, so it cannot measure a
                // per-compile cost; history supplies one.
                let hint =
                    mean_compile_us_from_history(&smlsc::core::Ledger::for_bin_dir(&bin_dir));
                let profile =
                    smlsc::core::BuildProfile::compute(&collector.spans(), &graph, report, hint);
                print!("{}", profile.render(opts.top.unwrap_or(10)));
            }
            Err(e) => eprintln!("warning: no profile: {e}"),
        }
    }
    match linked {
        Some(Ok(env)) => {
            for unit in &report.order {
                let linked = env.get(*unit).expect("linked in order");
                println!("{unit}: export pid {}", linked.export_pid);
            }
            std::mem::forget(env);
        }
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return exit_code(Err(&e));
        }
        None if run => eprintln!("error: not running: the build did not complete"),
        None => {}
    }
    trace::uninstall();
    if let Some(path) = &opts.trace_out {
        match std::fs::write(path, collector.chrome_trace_json()) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                return EXIT_IO;
            }
        }
    }
    if opts.stats {
        println!("{}", collector.stats_json());
    }
    // Everything durable is written and every lock guard and writer is
    // dropped; the process exits next.  Freeing the manager's 20k-unit
    // maps, the project and the collector would only delay the exit.
    std::io::stdout().flush().ok();
    let exit = built.exit_code;
    std::mem::forget((session, project, collector, built));
    exit
}

/// Whether this build may be dispatched to a daemon.  Only "plain"
/// cutoff builds qualify: a store, paranoia, fault injection, or a
/// trace/report output file all select in-process semantics the daemon
/// does not carry.
fn daemon_eligible(opts: &BuildOpts) -> bool {
    !opts.no_daemon
        && opts.strategy == Strategy::Cutoff
        && !opts.paranoid
        && opts.inject_faults.is_none()
        && std::env::var("SMLSC_FAULTS").map_or(true, |s| s.is_empty())
        && resolve_store(&opts.store).is_none()
        && opts.trace_out.is_none()
        && opts.report_json.is_none()
}

/// Tries to serve this build from a running daemon.  `None` means "no
/// daemon answered" (no socket, handshake failed, or it died
/// mid-request) and the caller builds in-process instead; `Some` is a
/// final exit code whose output already mirrors the in-process CLI.
///
/// Self-healing: when the socket exists but no daemon answers *and*
/// the lockfile's owner is dead (SIGKILLed daemon, reboot debris), the
/// client restarts the daemon once — stale-owner takeover clears the
/// corpse — and retries the request a single time before falling back
/// to an in-process build.  A fallback with a socket present prints one
/// warning naming the failed step (`connect`, `send` or `reply`) and its
/// error; a restart that serves the retry stays quiet.
fn daemon_dispatch(opts: &BuildOpts, bin_dir: &Path) -> Option<i32> {
    let socket = smlsc::daemon::socket_path(bin_dir);
    if !socket.exists() {
        return None;
    }
    // The daemon drains its file watch before deciding, so an edit
    // written before this request is always seen — dispatch is never
    // less correct than building in-process.
    let mut request = smlsc::daemon::Request::build(true);
    request.jobs = opts.jobs.unwrap_or(0) as u64;
    request.keep_going = opts.keep_going;
    request.explain = opts.explain;
    let response = smlsc::daemon::client::request(&socket, &request).or_else(|e| {
        if restart_dead_daemon(opts, bin_dir, &socket) {
            smlsc::daemon::client::request(&socket, &request)
        } else {
            Err(e)
        }
    });
    let response = match response {
        Ok(response) => response,
        Err(e) => {
            eprintln!("warning: daemon request failed ({e}); building in-process");
            return None;
        }
    };
    if !response.ok {
        // The build failed before producing a report (fail-fast) or
        // timed out: never a success.
        print_build(&response.notes, Err(&response.error), &[]);
        return Some(response.exit_code.max(EXIT_COMPILE));
    }
    print_build(&response.notes, Ok(&response.summary), &response.explain);
    if opts.stats {
        println!("{}", response.stats_json);
    }
    Some(response.exit_code)
}

/// Prints a build result the same way whichever path built it: the
/// notes to stderr, then the error that stopped the build, or the
/// summary and explain lines to stdout.
fn print_build(notes: &[String], summary: Result<&str, &str>, explain: &[String]) {
    for note in notes {
        eprintln!("{note}");
    }
    match summary {
        Ok(summary) => println!("{summary}"),
        Err(error) => eprintln!("error: {error}"),
    }
    for line in explain {
        println!("{line}");
    }
}

/// Restarts a daemon whose socket is present but whose lockfile owner
/// is dead.  Quiet (dispatch is transparent); `false` means "do not
/// retry, fall back in-process" — including when the owner is alive
/// (a live daemon that refused a request is not ours to replace).
fn restart_dead_daemon(opts: &BuildOpts, bin_dir: &Path, socket: &Path) -> bool {
    if fsutil::owner(&smlsc::daemon::lock_path(bin_dir)).is_some_and(fsutil::pid_alive) {
        return false;
    }
    let Some(dir) = &opts.dir else { return false };
    spawn_daemon(
        Path::new(dir),
        bin_dir,
        socket,
        &[],
        Duration::from_secs(10),
    )
    .is_ok()
}

/// Spawns a detached `smlsc daemon run <dir> --bin-dir <bin_dir>
/// <extra>` and waits up to `wait` for it to own the lockfile and bind
/// the socket, returning its pid.  Readiness is deliberately not a
/// handshake probe — injected `daemon.accept` faults drop connections,
/// and a readiness probe must not consume (or be confused by) them.
fn spawn_daemon(
    dir: &Path,
    bin_dir: &Path,
    socket: &Path,
    extra: &[String],
    wait: Duration,
) -> Result<u32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe)
        .arg("daemon")
        .arg("run")
        .arg(dir)
        .arg("--bin-dir")
        .arg(bin_dir)
        .args(extra)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("could not spawn daemon: {e}"))?;
    let lockfile = smlsc::daemon::lock_path(bin_dir);
    let deadline = std::time::Instant::now() + wait;
    while std::time::Instant::now() < deadline {
        // Owner first: the child removes a leftover socket right after
        // taking the lock, so a socket seen after that is its own.
        if fsutil::owner(&lockfile) == Some(u64::from(child.id())) && socket.exists() {
            return Ok(child.id());
        }
        // A child that already exited (project unreadable, lock
        // contended) will never come up: fail fast.
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("daemon exited during startup ({status})"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    Err(format!("daemon did not come up within {}s", wait.as_secs()))
}

/// `smlsc doctor [--fix] [--bin-dir <dir>] [--store <dir>] <dir>`:
/// audit (and with `--fix`, repair) every kind of durable build state.
/// Shares its store audit with `smlsc cache verify`.
fn doctor_cmd(args: &[String]) -> i32 {
    const DOCTOR_USAGE: &str =
        "usage: smlsc doctor [--fix] [--bin-dir <dir>] [--store <dir>] <dir>";
    let mut fix = false;
    let mut dir: Option<String> = None;
    let mut bin_dir: Option<PathBuf> = None;
    let mut store_flag: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            match arg.strip_prefix(&format!("{flag}=")) {
                Some(v) => Ok(v.to_string()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value")),
            }
        };
        let parsed = if arg == "--fix" {
            fix = true;
            Ok(())
        } else if arg == "--bin-dir" || arg.starts_with("--bin-dir=") {
            take("--bin-dir").map(|v| bin_dir = Some(PathBuf::from(v)))
        } else if arg == "--store" || arg.starts_with("--store=") {
            take("--store").map(|v| store_flag = Some(v))
        } else if arg.starts_with('-') {
            Err(format!("unknown option `{arg}`"))
        } else if dir.is_none() {
            dir = Some(arg.clone());
            Ok(())
        } else {
            Err(format!("unexpected argument `{arg}`"))
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            eprintln!("{DOCTOR_USAGE}");
            return EXIT_USAGE;
        }
    }
    let Some(dir) = dir else {
        eprintln!("{DOCTOR_USAGE}");
        return EXIT_USAGE;
    };
    let dir = PathBuf::from(dir);
    let opts = smlsc::core::doctor::DoctorOptions {
        bin_dir: bin_dir_for(&dir, &bin_dir),
        store: resolve_store(&store_flag),
        fix,
    };
    let report = smlsc::core::doctor::run(&opts);
    println!("{}", report.to_json());
    report.exit_code()
}

/// `smlsc daemon <start|stop|restart|status|run>`: manage the resident
/// build server for a project.
fn daemon_cmd(args: &[String]) -> i32 {
    const DAEMON_USAGE: &str =
        "usage: smlsc daemon <start|stop|restart|status|run> [options] <dir>";
    let Some(verb) = args.first().map(String::as_str) else {
        eprintln!("{DAEMON_USAGE}");
        return EXIT_USAGE;
    };
    let opts = match BuildOpts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{DAEMON_USAGE}");
            return EXIT_USAGE;
        }
    };
    let Some(dir) = &opts.dir else {
        eprintln!("{DAEMON_USAGE}");
        return EXIT_USAGE;
    };
    let dir = PathBuf::from(dir);
    let bin_dir = bin_dir_for(&dir, &opts.bin_dir);
    let socket = smlsc::daemon::socket_path(&bin_dir);
    match verb {
        // The foreground server; `start` re-invokes the binary with
        // this verb to get a detached daemon process.
        "run" => {
            if let Err(e) = install_faults(&opts.inject_faults) {
                eprintln!("error: {e}");
                return EXIT_USAGE;
            }
            let mut config = smlsc::daemon::ServerConfig::new(&dir, &bin_dir);
            config.strategy = opts.strategy;
            if let Some(jobs) = opts.jobs {
                config.jobs = jobs;
            }
            if let Some(secs) = std::env::var("SMLSC_DAEMON_IDLE_SECS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&s| s > 0)
            {
                config.idle_timeout = Some(Duration::from_secs(secs));
            }
            match smlsc::daemon::run(config) {
                Ok(()) => EXIT_OK,
                Err(e) => {
                    eprintln!("error: daemon: {e}");
                    EXIT_IO
                }
            }
        }
        "start" => daemon_start(&opts, &dir, &bin_dir, &socket),
        // Idempotent: stopping an already-stopped daemon succeeds.
        "stop" => daemon_stop(&dir, &bin_dir, &socket),
        // Stop-then-start; just as idempotent as its halves, so it
        // doubles as "make sure a fresh daemon is up".
        "restart" => {
            let stopped = daemon_stop(&dir, &bin_dir, &socket);
            if stopped != EXIT_OK {
                return stopped;
            }
            daemon_start(&opts, &dir, &bin_dir, &socket)
        }
        "status" => {
            match smlsc::daemon::client::request(&socket, &smlsc::daemon::Request::simple("status"))
            {
                Ok(resp) if resp.ok => {
                    println!("{}", resp.status_json);
                    EXIT_OK
                }
                _ => {
                    eprintln!("daemon not running for {}", dir.display());
                    EXIT_COMPILE
                }
            }
        }
        other => {
            eprintln!("error: unknown daemon operation `{other}`");
            eprintln!("{DAEMON_USAGE}");
            EXIT_USAGE
        }
    }
}

/// `daemon start`: spawn a detached `daemon run` and wait for it to
/// own the lockfile and bind the socket.  A live daemon already
/// serving the project is success, not an error.
fn daemon_start(opts: &BuildOpts, dir: &Path, bin_dir: &Path, socket: &Path) -> i32 {
    if smlsc::daemon::alive(socket) {
        println!("daemon already serving {}", dir.display());
        return EXIT_OK;
    }
    let mut extra = vec!["--strategy".to_string(), opts.strategy.to_string()];
    if let Some(jobs) = opts.jobs {
        extra.extend(["--jobs".to_string(), jobs.to_string()]);
    }
    if let Some(spec) = &opts.inject_faults {
        extra.extend(["--inject-faults".to_string(), spec.clone()]);
    }
    match spawn_daemon(dir, bin_dir, socket, &extra, Duration::from_secs(60)) {
        Ok(pid) => {
            println!(
                "daemon started (pid {pid}) serving {} on {}",
                dir.display(),
                socket.display()
            );
            EXIT_OK
        }
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_IO
        }
    }
}

/// `daemon stop`: ask the resident to shut down and wait until the
/// socket and lockfile are actually released.  Idempotent — stopping
/// an already-stopped daemon succeeds.
fn daemon_stop(dir: &Path, bin_dir: &Path, socket: &Path) -> i32 {
    match smlsc::daemon::client::request(socket, &smlsc::daemon::Request::simple("stop")) {
        Ok(_) => {
            // The daemon removes its socket and lockfile on the
            // way out; wait so "stopped" means "released".
            let lockfile = smlsc::daemon::lock_path(bin_dir);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while (socket.exists() || lockfile.exists()) && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(25));
            }
            println!("daemon stopped");
        }
        Err(_) => println!("daemon not running for {}", dir.display()),
    }
    EXIT_OK
}

/// The median per-compile cost over ledger history, microseconds — the
/// hint `smlsc profile` uses to price avoided compiles when the profiled
/// build itself compiled nothing.
fn mean_compile_us_from_history(ledger: &smlsc::core::Ledger) -> Option<u64> {
    // Streamed: the ledger is read one record at a time, and only the
    // 8-byte per-build cost sample is retained for the median.
    let costs: Vec<u64> = ledger
        .stream()
        .filter(|r| r.compiled > 0)
        .map(|r| (r.parse_us + r.elaborate_us + r.hash_us + r.dehydrate_us) / r.compiled)
        .collect();
    (!costs.is_empty()).then(|| smlsc::core::ledger::quantile(&costs, 0.5))
}

/// `smlsc history <dir>`: wall-time and hit-rate trends from the
/// persistent ledger, plus a flag when the last build regressed to at
/// least twice the median wall time, and a scaling flag when warm
/// no-op builds grew superlinearly in the project's unit count.
fn history(opts: &BuildOpts) -> i32 {
    let Some(dir) = &opts.dir else {
        eprintln!("usage: smlsc history [--bin-dir <dir>] <dir>");
        return EXIT_USAGE;
    };
    let bin_dir = bin_dir_for(Path::new(dir), &opts.bin_dir);
    let ledger = smlsc::core::Ledger::for_bin_dir(&bin_dir);
    // One streaming pass: full records are never collected.  Only the
    // newest record survives the pass whole; everything else folds into
    // running aggregates (plus one u64 wall sample per build for the
    // quantiles), so memory is O(1) per record however long the history.
    let mut walls: Vec<u64> = Vec::new();
    let mut rates = (None::<f64>, None::<f64>, 0.0f64, 0usize); // first, last, sum, count
    let mut failures = 0usize;
    let mut last: Option<smlsc::core::LedgerRecord> = None;
    // Warm (zero-compile) samples as (units, wall_us): the material for
    // the scaling check below.  Two u64s per record, like `walls`.
    let mut warm: Vec<(u64, u64)> = Vec::new();
    for r in ledger.stream() {
        walls.push(r.wall_us);
        if r.compiled == 0 && r.exit_code == 0 {
            let units = r.reused + r.cutoff + r.store_hits + r.skipped;
            if units > 0 {
                warm.push((units, r.wall_us));
            }
        }
        let total = r.stamp_hits + r.stamp_misses;
        if total > 0 {
            let rate = 100.0 * r.stamp_hits as f64 / total as f64;
            rates.0.get_or_insert(rate);
            rates.1 = Some(rate);
            rates.2 += rate;
            rates.3 += 1;
        }
        if r.exit_code != 0 {
            failures += 1;
        }
        last = Some(r);
    }
    let Some(last) = last else {
        println!("history: no builds recorded in {}", ledger.path().display());
        return EXIT_OK;
    };
    let median = smlsc::core::ledger::quantile(&walls, 0.5);
    let p95 = smlsc::core::ledger::quantile(&walls, 0.95);
    let ms = |us: u64| us as f64 / 1e3;
    println!(
        "history: {} build(s) in {}",
        walls.len(),
        ledger.path().display()
    );
    println!(
        "  wall time: median {:.2}ms, p95 {:.2}ms, last {:.2}ms",
        ms(median),
        ms(p95),
        ms(walls[walls.len() - 1])
    );
    if let (Some(first), Some(newest)) = (rates.0, rates.1) {
        let mean = rates.2 / rates.3 as f64;
        println!(
            "  stamp hit rate: first {first:.0}%, mean {mean:.0}%, last {newest:.0}%{}",
            if newest + 25.0 < mean {
                "  (drifting down)"
            } else {
                ""
            }
        );
    }
    println!(
        "  last build: {} compiled, {} reused, {} cutoff, {} from store, critical path {}, exit {}",
        last.compiled,
        last.reused,
        last.cutoff,
        last.store_hits,
        last.critical_path,
        last.exit_code
    );
    if walls.len() >= 3 && median > 0 && last.wall_us >= 2 * median {
        println!(
            "  regression: last build took {:.2}ms, >= 2x the median {:.2}ms",
            ms(last.wall_us),
            ms(median)
        );
    }
    // Scaling: a warm no-op's wall time should grow at most ~linearly
    // with the project's unit count.  Compare the newest warm build
    // against the smallest project on record — 2x the units may cost at
    // most ~2.5x the time (10ms slack absorbs timer noise on tiny
    // projects).  A superlinear warm path shows up here long before the
    // same-size regression check above can see it.
    if let (Some(&(u0, w0)), Some(&(u1, w1))) = (warm.iter().min(), warm.last()) {
        if u1 >= 2 * u0 {
            let ratio = u1 as f64 / u0 as f64;
            let limit = w0 as f64 * ratio * 1.25 + 10_000.0;
            if w1 as f64 > limit {
                println!(
                    "  scaling regression: no-op at {u1} units took {:.2}ms, but {u0} units took \
                     {:.2}ms — {ratio:.1}x the units may cost at most {:.1}x the time",
                    ms(w1),
                    ms(w0),
                    ratio * 1.25
                );
            }
        }
    }
    if failures > 0 {
        println!("  {failures} build(s) exited non-zero");
    }
    EXIT_OK
}

/// `smlsc cache <stats|gc|verify|clear>`: operate on a shared store.
fn cache(args: &[String]) -> i32 {
    let Some(op) = args.first().map(String::as_str) else {
        eprintln!("usage: smlsc cache <stats|gc|verify|clear> [--store <dir>] [--max-bytes <n>] [--max-age-secs <n>]");
        return 2;
    };
    let mut store_flag: Option<String> = None;
    let mut config = GcConfig::default();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            match arg.strip_prefix(&format!("{flag}=")) {
                Some(v) => Ok(v.to_string()),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value")),
            }
        };
        let parsed = if arg == "--store" || arg.starts_with("--store=") {
            take("--store").map(|v| store_flag = Some(v))
        } else if arg == "--max-bytes" || arg.starts_with("--max-bytes=") {
            take("--max-bytes").and_then(|v| {
                v.parse()
                    .map(|n| config.max_bytes = Some(n))
                    .map_err(|_| format!("--max-bytes expects an integer, got `{v}`"))
            })
        } else if arg == "--max-age-secs" || arg.starts_with("--max-age-secs=") {
            take("--max-age-secs").and_then(|v| {
                v.parse()
                    .map(|n| config.max_age = Some(Duration::from_secs(n)))
                    .map_err(|_| format!("--max-age-secs expects an integer, got `{v}`"))
            })
        } else {
            Err(format!("unknown option `{arg}`"))
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return 2;
        }
    }
    let Some(store_dir) = resolve_store(&store_flag) else {
        eprintln!("error: no store given (use --store <dir> or set SMLSC_STORE)");
        return EXIT_USAGE;
    };
    if let Err(e) = install_faults(&None) {
        eprintln!("error: {e}");
        return EXIT_USAGE;
    }
    let store = match Store::open(&store_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot open store {}: {e}", store_dir.display());
            return EXIT_IO;
        }
    };
    match op {
        "stats" => match store.stats() {
            Ok(s) => {
                println!(
                    "store {}: {} object(s), {} bytes, {} quarantined, journal {} bytes",
                    store_dir.display(),
                    s.objects,
                    s.bytes,
                    s.quarantined,
                    s.journal_bytes
                );
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                EXIT_IO
            }
        },
        "gc" => match store.gc(&config) {
            Ok(r) => {
                println!(
                    "gc: examined {} object(s), evicted {}, {} -> {} bytes, purged {} quarantined",
                    r.examined, r.evicted, r.bytes_before, r.bytes_after, r.quarantine_purged
                );
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                EXIT_IO
            }
        },
        "verify" => match store.verify() {
            Ok(r) => {
                println!(
                    "verify: checked {} object(s), {} corrupt",
                    r.checked,
                    r.corrupt.len()
                );
                for key in &r.corrupt {
                    println!("  quarantined {key}");
                }
                i32::from(!r.corrupt.is_empty())
            }
            Err(e) => {
                eprintln!("error: {e}");
                EXIT_IO
            }
        },
        "clear" => match store.clear() {
            Ok(n) => {
                println!("cleared {n} object(s)");
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                EXIT_IO
            }
        },
        other => {
            eprintln!("error: unknown cache operation `{other}`");
            eprintln!("usage: smlsc cache <stats|gc|verify|clear>");
            2
        }
    }
}

fn repl() -> i32 {
    // The interpreter recurses on the host stack; give the session a
    // deep one so the depth guard fires before the stack does.
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(repl_loop)
        .expect("spawn repl thread")
        .join()
        .unwrap_or(1)
}

fn repl_loop() -> i32 {
    let stdin = std::io::stdin();
    let mut session = Session::new();
    // Keep runaway recursion from hanging the terminal.
    session.set_step_limit(50_000_000);
    let mut buffer = String::new();
    println!("smlsc interactive session — end each input with `;;`, Ctrl-D to exit");
    print!("- ");
    let _ = std::io::stdout().flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim_end();
        if let Some(stripped) = trimmed.strip_suffix(";;") {
            buffer.push_str(stripped);
            buffer.push('\n');
            match session.eval(&buffer) {
                Ok(out) => {
                    for w in &out.warnings {
                        println!("  {w}");
                    }
                    for b in &out.bindings {
                        println!("  {b}");
                    }
                    println!("  (unit {}, pid {})", out.unit, out.export_pid);
                }
                Err(e) => println!("  error: {e}"),
            }
            buffer.clear();
            print!("- ");
        } else {
            buffer.push_str(trimmed);
            buffer.push('\n');
            print!("= ");
        }
        let _ = std::io::stdout().flush();
    }
    println!();
    0
}
