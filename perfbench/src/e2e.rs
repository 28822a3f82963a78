//! The untraced runs: what a user waits for, through the release CLI and
//! the daemon client, with no benchmark tracing installed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use smlsc::daemon::{client, Request, Response};

use crate::oracle;
use crate::proc;
use crate::script::{Repo, Script, Step};

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Besides the script's own no-op steps, an edit loop probes a no-op
/// build after every `PROBE_EVERY`-th edit, so `noop_ms` samples spread
/// over the run the way edit samples do: a shared 2-vCPU VM swings
/// between a fast and a slow state every 10-20 s, and a stat-bound no-op
/// feels it more than an edit.  A probe changes no source and no bin.
/// A daemon no-op is cheap and varies most (45-130 ms, depending on
/// whether its re-stat overlaps the watcher's own 150 ms sweep), so it
/// is probed twice as often.
const PROBE_EVERY: usize = 4;
const DAEMON_PROBE_EVERY: usize = 2;

/// Workers for every build: `nproc` on the 2-CPU host the benchmark was
/// defined on.  `main` refuses to record a result on a smaller host.
pub const JOBS: usize = 2;

/// What every run is told.
pub struct Ctx {
    pub smlsc: PathBuf,
    pub work: PathBuf,
    pub units: usize,
    pub seed: u64,
    pub seconds: Duration,
}

impl Ctx {
    /// The project directory of this run.
    pub fn src(&self) -> PathBuf {
        self.work.join("src")
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn merge(&mut self, v: oracle::Verdict) {
        self.attempted += v.checks;
        self.failed += v.failures.len() as u64;
        for f in v.failures {
            if self.notes.len() < 8 {
                self.notes.push(f);
            }
        }
    }
}

/// Everything one untraced run measured.
#[derive(Debug, Default)]
pub struct Results {
    /// Seconds.
    pub setup: Vec<f64>,
    /// Seconds.
    pub cold: Vec<f64>,
    /// Seconds.
    pub run: Vec<f64>,
    /// Milliseconds, edit written to build returned.
    pub edit: Vec<f64>,
    /// Milliseconds.
    pub noop: Vec<f64>,
    /// Units recompiled per edit (no-ops excluded).
    pub recompiles: Vec<f64>,
    pub peak_rss_kb: u64,
    pub artifact_bytes: u64,
    /// Cached daemon replies whose summary still reports recompiles.
    pub stale_summary: u64,
    /// The step labels, in order.
    pub steps: Vec<String>,
    pub tally: Tally,
}

/// `(units, recompiled)` from a `built N unit(s) [...]: R recompiled`
/// summary line.
pub fn summary_counts(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("built "))?;
    let units = line
        .strip_prefix("built ")?
        .split(' ')
        .next()?
        .parse()
        .ok()?;
    let (_, after) = line.split_once("]: ")?;
    let recompiled = after.split(' ').next()?.parse().ok()?;
    Some((units, recompiled))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One CLI build or run, checked: exit 0, every unit built, exactly
/// `expect` recompiled.
pub fn cli(
    ctx: &Ctx,
    verb: &str,
    expect: u64,
    tally: &mut Tally,
    rss: Option<&mut u64>,
) -> std::io::Result<proc::Run> {
    let src = ctx.src();
    let run = proc::smlsc(
        &ctx.smlsc,
        &[
            verb.as_ref(),
            "--no-daemon".as_ref(),
            "--jobs".as_ref(),
            JOBS.to_string().as_ref(),
            src.as_os_str(),
        ],
    )?;
    let counts = summary_counts(&run.stdout);
    tally.op(
        run.exit.code == 0 && counts == Some((ctx.units as u64, expect)),
        || {
            format!(
                "smlsc {verb}: exit {}, summary {counts:?}, expected ({}, {expect})",
                run.exit.code, ctx.units
            )
        },
    );
    if let Some(rss) = rss {
        *rss = (*rss).max(run.exit.maxrss_kb);
    }
    Ok(run)
}

/// A daemon started through `smlsc daemon start`.
pub struct Daemon {
    pub pid: u32,
    pub socket: PathBuf,
}

impl Daemon {
    pub fn start(ctx: &Ctx, repo: &Repo) -> std::io::Result<Daemon> {
        let run = proc::smlsc(
            &ctx.smlsc,
            &[
                "daemon".as_ref(),
                "start".as_ref(),
                "--jobs".as_ref(),
                JOBS.to_string().as_ref(),
                repo.dir.as_os_str(),
            ],
        )?;
        let pid = run
            .stdout
            .split_once("(pid ")
            .and_then(|(_, rest)| rest.split(')').next())
            .and_then(|p| p.parse().ok())
            .filter(|_| run.exit.code == 0)
            .ok_or_else(|| {
                std::io::Error::other(format!("daemon start failed: {}", run.stdout.trim()))
            })?;
        Ok(Daemon {
            pid,
            socket: smlsc::daemon::socket_path(&repo.bin_dir()),
        })
    }

    pub fn request(&self) -> std::io::Result<Response> {
        client::request(&self.socket, &Request::build(true))
    }

    /// Stops the daemon and reaps it.
    pub fn stop(self, ctx: &Ctx, dir: &Path) -> std::io::Result<proc::Exit> {
        proc::smlsc(
            &ctx.smlsc,
            &["daemon".as_ref(), "stop".as_ref(), dir.as_os_str()],
        )?;
        proc::reap_orphan(self.pid, Duration::from_secs(20))
    }
}

/// Sets the project up `reps` times: regenerate the sources; with
/// `build`, cold-build them; with `daemon`, start a daemon.  Only the
/// last setup's daemon is left running.
///
/// The files are written once, untimed, before the first setup (created
/// on a checkout's first run; later runs find them); each timed setup
/// rewrites them in place.  Creating 20,000 inodes costs 1.7-3.9 s on
/// the same host from one minute to the next, and it is the benchmark's
/// work, not the program's.
pub fn setup(
    ctx: &Ctx,
    build: bool,
    daemon: bool,
    reps: usize,
    res: &mut Results,
) -> std::io::Result<(Repo, Option<Daemon>)> {
    Repo::generate(&ctx.src(), ctx.units, ctx.seed)?;
    let mut last: Option<(Repo, Option<Daemon>)> = None;
    for _ in 0..reps {
        if let Some((repo, Some(d))) = last.take() {
            d.stop(ctx, &repo.dir)?;
        }
        let bins = ctx.src().join(".smlsc-bins");
        if bins.exists() {
            std::fs::remove_dir_all(&bins)?;
        }
        proc::flush_disks();
        let t0 = Instant::now();
        let repo = Repo::generate(&ctx.src(), ctx.units, ctx.seed)?;
        if build {
            let run = cli(ctx, "build", ctx.units as u64, &mut res.tally, None)?;
            res.cold.push(run.wall.as_secs_f64());
        }
        let d = if daemon {
            Some(Daemon::start(ctx, &repo)?)
        } else {
            None
        };
        res.setup.push(t0.elapsed().as_secs_f64());
        last = Some((repo, d));
    }
    proc::flush_disks();
    Ok(last.expect("at least one setup"))
}

/// `cold_build`: delete the bins, cold-build, build with nothing changed,
/// `smlsc run` over the warm bins, build with nothing changed again;
/// repeat for the run's seconds.  Here the "edit" is the deleted cache, so each cold build is
/// also an `edit_ms` sample.
pub fn cold_build(ctx: &Ctx) -> std::io::Result<Results> {
    let mut res = Results::default();
    let (repo, _) = setup(ctx, false, false, SETUP_REPS, &mut res)?;
    let start = Instant::now();
    let mut pids = Default::default();
    while res.cold.is_empty() || start.elapsed() < ctx.seconds {
        let bins = repo.bin_dir();
        if bins.exists() {
            std::fs::remove_dir_all(&bins)?;
        }
        proc::flush_disks();
        let units = ctx.units as u64;
        let cold = cli(
            ctx,
            "build",
            units,
            &mut res.tally,
            Some(&mut res.peak_rss_kb),
        )?;
        res.cold.push(cold.wall.as_secs_f64());
        res.edit.push(ms(cold.wall));
        res.recompiles.push(units as f64);
        let noop = cli(ctx, "build", 0, &mut res.tally, Some(&mut res.peak_rss_kb))?;
        res.noop.push(ms(noop.wall));
        let run = cli(ctx, "run", 0, &mut res.tally, Some(&mut res.peak_rss_kb))?;
        res.run.push(run.wall.as_secs_f64());
        pids = oracle::run_pids(&run.stdout);
        let noop = cli(ctx, "build", 0, &mut res.tally, Some(&mut res.peak_rss_kb))?;
        res.noop.push(ms(noop.wall));
        res.steps
            .extend(["cold", "noop", "run", "noop"].map(String::from));
    }
    res.artifact_bytes = repo.artifact_bytes();
    res.tally.merge(oracle::check(&repo, &pids));
    Ok(res)
}

/// `edit_loop` (`daemon = false`) and `daemon_loop` (`daemon = true`):
/// the seeded script, one build after each step, for the run's seconds
/// (whole decks), and `smlsc run` after each deck.  Ends with the
/// oracle.
pub fn edit_loop(ctx: &Ctx, daemon: bool) -> std::io::Result<Results> {
    let mut res = Results::default();
    let (mut repo, d) = setup(ctx, true, daemon, SETUP_REPS, &mut res)?;
    let probe_every = if daemon {
        DAEMON_PROBE_EVERY
    } else {
        PROBE_EVERY
    };
    let mut script = Script::new(ctx.seed, repo.plan());
    let mut last_seq = 0u64;
    let mut pids = Default::default();
    let start = Instant::now();
    while res.steps.is_empty() || start.elapsed() < ctx.seconds {
        for (k, step) in script.deck().into_iter().enumerate() {
            repo.apply(step)?;
            let expect = repo.expected_recompiles(step);
            let (recompiled, wall) = build(ctx, d.as_ref(), step, expect, &mut last_seq, &mut res)?;
            if step == Step::Noop {
                res.noop.push(wall);
            } else {
                res.edit.push(wall);
                res.recompiles.push(recompiled as f64);
            }
            res.steps.push(step.label());
            if step != Step::Noop && (k + 1) % probe_every == 0 {
                let (_, wall) = build(ctx, d.as_ref(), Step::Noop, 0, &mut last_seq, &mut res)?;
                res.noop.push(wall);
            }
        }
        // The user runs the program.  A clean `smlsc run` rewrites no
        // bins, so it is safe beside an idle daemon.  One per deck puts
        // the `run_s` samples across the run, on the machine the edits
        // see.
        let run = cli(ctx, "run", 0, &mut res.tally, None)?;
        res.run.push(run.wall.as_secs_f64());
        pids = oracle::run_pids(&run.stdout);
    }
    if let Some(d) = d {
        res.peak_rss_kb = proc::vm_hwm_kb(d.pid).unwrap_or(0);
        d.stop(ctx, &repo.dir)?;
    }
    res.artifact_bytes = repo.artifact_bytes();
    res.tally.merge(oracle::check(&repo, &pids));
    Ok(res)
}

/// One checked build after `step`: a CLI process, or a request to the
/// daemon.  Returns the units recompiled and the wall time in ms.
fn build(
    ctx: &Ctx,
    daemon: Option<&Daemon>,
    step: Step,
    expect: u64,
    last_seq: &mut u64,
    res: &mut Results,
) -> std::io::Result<(u64, f64)> {
    Ok(match daemon {
        None => {
            let run = cli(
                ctx,
                "build",
                expect,
                &mut res.tally,
                Some(&mut res.peak_rss_kb),
            )?;
            let n = summary_counts(&run.stdout).map_or(u64::MAX, |c| c.1);
            (n, ms(run.wall))
        }
        Some(d) => {
            let t0 = Instant::now();
            let reply = d.request();
            let wall = ms(t0.elapsed());
            let n = judge_reply(
                reply,
                step,
                expect,
                last_seq,
                &mut res.tally,
                &mut res.stale_summary,
            );
            (n, wall)
        }
    })
}

/// Judges a daemon build reply by `cached` and `seq`, never by its
/// summary text: a cached reply repeats the last build's summary, so a
/// no-op answered from the snapshot right after an edit still reads "1
/// recompiled".  Such replies are correct and counted as
/// `stale_summary`.  Returns the units the reply recompiled.
pub fn judge_reply(
    reply: std::io::Result<Response>,
    step: Step,
    expect: u64,
    last_seq: &mut u64,
    tally: &mut Tally,
    stale_summary: &mut u64,
) -> u64 {
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            tally.op(false, || format!("daemon request: {e}"));
            return u64::MAX;
        }
    };
    let said = summary_counts(&reply.summary).map(|c| c.1);
    let (ok, recompiled) = if reply.cached {
        if said != Some(0) {
            *stale_summary += 1;
        }
        (step == Step::Noop && reply.seq == *last_seq, 0)
    } else {
        let n = said.unwrap_or(u64::MAX);
        (reply.seq == *last_seq + 1 && n == expect, n)
    };
    tally.op(reply.ok && reply.exit_code == 0 && ok, || {
        format!(
            "daemon {}: ok {} exit {} cached {} seq {} (last {}) summary `{}` expected {expect}",
            step.label(),
            reply.ok,
            reply.exit_code,
            reply.cached,
            reply.seq,
            last_seq,
            reply.summary
        )
    });
    *last_seq = reply.seq;
    recompiled
}
