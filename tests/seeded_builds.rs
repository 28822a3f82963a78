//! A build seeded from a change feed equals a full-ladder build.
//!
//! A resident session fed by a change feed hands its builds the units
//! the feed named; when the manager can vouch for the rest of the
//! project, only those are analyzed and decided and the schedule is
//! seeded from them (`sched.event_seeded`).  This replays one edit
//! script through such a session and, step for step, through
//! cold-process `BuildSession`s over the same tree (the CLI's path,
//! which always takes the full ladder).  After every step the two must
//! print the same summary and the same `--explain` lines, hold the same
//! export pids, and link to the same `smlsc run` output — at jobs 1 and
//! 2.  The counter shows which path each resident build took: the seed
//! on body, comment and interface edits, the full ladder after an
//! added, removed or renamed unit, a changed import, a failed or
//! keep-going build, a keep-going request, or a quarantined body.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smlsc::core::build_session::explain_lines;
use smlsc::core::irm::{FailurePolicy, Project, Strategy};
use smlsc::core::resident::{ChangeFeed, Drained, Resident};
use smlsc::core::trace::{self, names, Collector};
use smlsc::core::BuildSession;
use smlsc_faults::{install_scoped, FaultPlan};

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-seeded-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("src")).unwrap();
    dir
}

/// A feed the test fills by hand with the files each step wrote.
#[derive(Clone, Default)]
struct Queue(Arc<Mutex<Vec<PathBuf>>>);

impl ChangeFeed for Queue {
    fn drain(&mut self) -> Drained {
        Drained::Changed(std::mem::take(&mut *self.0.lock().unwrap()))
    }
}

/// One edit to the tree: files written (name, text) and removed.
struct Step {
    what: &'static str,
    write: Vec<(&'static str, &'static str)>,
    remove: Vec<&'static str>,
    policy: FailurePolicy,
    /// `bin.save=torn(unit)` on both sides' saves.
    torn: Option<&'static str>,
    /// Whether the resident build ran seeded; `None` for a step whose
    /// build fails (it leaves no stats to read).
    seeded: Option<bool>,
    /// A counter the resident build's stats must show.
    shows: Option<&'static str>,
}

fn step(what: &'static str, write: Vec<(&'static str, &'static str)>, seeded: bool) -> Step {
    Step {
        what,
        write,
        remove: Vec::new(),
        policy: FailurePolicy::FailFast,
        torn: None,
        seeded: Some(seeded),
        shows: None,
    }
}

const UTIL: &str = "structure Util = struct fun inc x = x + 1 val base = 10 end";
const UTIL_BODY: &str = "structure Util = struct fun inc x = x + 2 val base = 10 end";
const UTIL_BROKEN: &str = "structure Util = struct fun inc x = x + \"s\" val base = 10 end";
const LIB: &str = "structure Lib = struct fun twice x = Util.inc (Util.inc x) end";
const LEAF: &str = "structure Leaf = struct val w = 3 end";
const TOP: &str = "structure Top = struct val t = App.v + Leaf.w end";

fn script() -> Vec<Step> {
    vec![
        step("body", vec![("util", UTIL_BODY)], true),
        step(
            "comment",
            vec![("lib", "(* twice, by way of Util *)\nstructure Lib = struct fun twice x = Util.inc (Util.inc x) end")],
            true,
        ),
        step(
            "interface add",
            vec![("leaf", "structure Leaf = struct val w = 3 val extra = true end")],
            true,
        ),
        step(
            "retype",
            vec![("leaf", "structure Leaf = struct val w = 3 val extra = \"yes\" end")],
            true,
        ),
        step(
            "added import",
            vec![("leaf", "structure Leaf = struct val w = Util.base + 3 val extra = \"yes\" end")],
            false,
        ),
        step(
            "body after a fallback",
            vec![("app", "structure App = struct val v = Lib.twice Util.base + 1 end")],
            true,
        ),
        step(
            "add",
            vec![("extra", "structure Extra = struct val n = Top.t * 2 end")],
            false,
        ),
        Step {
            remove: vec!["extra"],
            ..step("remove", Vec::new(), false)
        },
        Step {
            remove: vec!["leaf"],
            ..step(
                "rename",
                vec![("leaf2", "structure Leaf = struct val w = Util.base + 3 val extra = \"yes\" end")],
                false,
            )
        },
        Step {
            seeded: None,
            ..step("type error", vec![("util", UTIL_BROKEN)], false)
        },
        step("fix", vec![("util", UTIL_BODY)], false),
        Step {
            policy: FailurePolicy::KeepGoing,
            ..step(
                "keep-going request",
                vec![("lib", "structure Lib = struct fun twice x = Util.inc (Util.inc (x + 0)) end")],
                false,
            )
        },
        Step {
            torn: Some("app"),
            ..step(
                "torn body save",
                vec![("app", "structure App = struct val v = Lib.twice Util.base + 2 end")],
                false,
            )
        },
        // The seed is tried, the wavefront forces the torn body, and
        // the quarantine's retry takes the full ladder.
        Step {
            shows: Some("\"bin.body_quarantined\":1"),
            ..step(
                "build over the torn body",
                vec![("top", "structure Top = struct val t = App.v + Leaf.w + 1 end")],
                true,
            )
        },
        step("body after the quarantine", vec![("util", UTIL)], true),
    ]
}

/// What one build shows: the summary and `--explain` lines, or the
/// error it stopped with.
fn shown(result: Result<(String, Vec<String>), String>) -> String {
    match result {
        Ok((summary, explain)) => format!("{summary}\n{}", explain.join("\n")),
        Err(e) => format!("error: {e}"),
    }
}

/// `smlsc run` over `bin`: a cold session builds what the pack holds
/// (nothing, unless a torn body is quarantined), links and prints every
/// unit's pid.
fn run_output(src: &Path, bin: &Path, jobs: usize) -> Vec<String> {
    let project = Project::from_dir(src).unwrap();
    let mut session = BuildSession::open(bin, Strategy::Cutoff, false, None);
    let (report, env) = session.irm.execute_with_jobs(&project, jobs).unwrap();
    report
        .order
        .iter()
        .map(|u| format!("{u}: export pid {}", env.get(*u).unwrap().export_pid))
        .collect()
}

/// The CLI's build of the tree: a cold session over `bin`, persisted.
fn cli_build(src: &Path, bin: &Path, jobs: usize, policy: FailurePolicy) -> String {
    let collector = Collector::new();
    collector.install();
    let started = Instant::now();
    let project = Project::from_dir(src).unwrap();
    let mut session = BuildSession::open(bin, Strategy::Cutoff, false, None);
    let result = session.build(&project, jobs, policy).map(|built| {
        session.finish(&built, &collector, jobs, started, false);
        (built.summary, explain_lines(built.report.all_decisions()))
    });
    trace::uninstall();
    shown(result.map_err(|e| e.to_string()))
}

fn replay(jobs: usize) {
    let root = temp_dir(&format!("jobs{jobs}"));
    let src = root.join("src");
    let (dmn_bin, cli_bin) = (root.join("dmn"), root.join("cli"));
    let write = |name: &str, text: &str| {
        std::fs::write(src.join(format!("{name}.sml")), text).unwrap();
    };
    write("util", UTIL);
    write("lib", LIB);
    write(
        "app",
        "structure App = struct val v = Lib.twice Util.base end",
    );
    write("leaf", LEAF);
    write("top", TOP);

    let queue = Queue::default();
    let resident = Resident::open(&src, &dmn_bin, Strategy::Cutoff, None).unwrap();
    resident.set_feed(Box::new(queue.clone()));
    let (snap, _) = resident.build(jobs, FailurePolicy::FailFast).unwrap();
    assert!(
        !snap.stats_json.contains(names::SCHED_EVENT_SEEDED),
        "a first build has nothing to seed from"
    );
    cli_build(&src, &cli_bin, jobs, FailurePolicy::FailFast);

    for step in script() {
        let ctx = format!("jobs {jobs}, step `{}`", step.what);
        for (name, text) in &step.write {
            write(name, text);
            queue
                .0
                .lock()
                .unwrap()
                .push(PathBuf::from(format!("{name}.sml")));
        }
        for name in &step.remove {
            std::fs::remove_file(src.join(format!("{name}.sml"))).unwrap();
            queue
                .0
                .lock()
                .unwrap()
                .push(PathBuf::from(format!("{name}.sml")));
        }
        let faults = step.torn.map(|unit| {
            install_scoped(FaultPlan::parse(&format!("bin.save=torn({unit})")).unwrap())
        });
        let daemon = resident.build(jobs, step.policy);
        let cli = cli_build(&src, &cli_bin, jobs, step.policy);
        drop(faults);
        let daemon = match daemon {
            Ok((snap, cached)) => {
                assert!(!cached, "{ctx}: an edit invalidates the snapshot");
                let seeded = snap
                    .stats_json
                    .contains(&format!("\"{}\":1", names::SCHED_EVENT_SEEDED));
                assert_eq!(
                    Some(seeded),
                    step.seeded,
                    "{ctx}: seeded path, stats {}",
                    snap.stats_json
                );
                if let Some(counter) = step.shows {
                    assert!(
                        snap.stats_json.contains(counter),
                        "{ctx}: {}",
                        snap.stats_json
                    );
                }
                Ok((snap.summary.clone(), explain_lines(snap.all_decisions())))
            }
            Err(e) => {
                assert_eq!(step.seeded, None, "{ctx}: the build failed: {e}");
                Err(e.to_string())
            }
        };
        assert_eq!(shown(daemon), cli, "{ctx}: summary and --explain");
        if step.seeded.is_some() {
            assert_eq!(
                run_output(&src, &dmn_bin, jobs),
                run_output(&src, &cli_bin, jobs),
                "{ctx}: export pids and run output"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn seeded_builds_match_full_ladder_builds_at_jobs_1() {
    replay(1);
}

#[test]
fn seeded_builds_match_full_ladder_builds_at_jobs_2() {
    replay(2);
}
