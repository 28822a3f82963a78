//! Rendering goldens for the build report.
//!
//! One fixture drives every decision kind (`NewUnit`, `SourceChanged`,
//! `ImportPidChanged`, `CutOff`, `DependencyRebuilt`, `Reused`,
//! `StoreHit`) and every outcome (`Failed`, `Skipped`) through a short
//! build history under each strategy, in cold-process sessions the way
//! the CLI runs them.  Each build renders what a user or a tool can
//! read back: the summary and notes, the `--explain` lines, the
//! `--report-json` decisions and tallies, and the answers of
//! `decision_for`/`outcome_for` for every unit.  The rendering must be
//! byte-identical to `tests/goldens/report_rendering.txt` at jobs 1 and
//! 4: a report that lists only the units a build touched still renders
//! every implied reuse.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smlsc::core::build_session::explain_lines;
use smlsc::core::irm::{FailurePolicy, Project, Strategy};
use smlsc::core::store::Store;
use smlsc::core::trace::Collector;
use smlsc::core::{build_report_json, BuildSession};

const GOLDEN: &str = include_str!("goldens/report_rendering.txt");

static NEXT: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "smlsc-goldens-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const A: &str = "structure A = struct fun f x = x + 1 end";
const A_BODY: &str = "structure A = struct fun f x = x + 2 end";
const B: &str = "structure B = struct val k = 2 end";
const B_WIDER: &str = "structure B = struct val k = 2 val extra = true end";
const F: &str = "structure F = struct val q = 3 end";
const F_BROKEN: &str = "structure F = struct val q = 1 + \"s\" end";
const S: &str = "structure S = struct val s = 10 end";
const S_EDITED: &str = "structure S = struct val s = 11 end";

/// The fixture: `a` (body edits cut off at `c`, and `i` below `c` is
/// never touched), `b` (an interface edit: `d` sees a new import pid,
/// recompiles to the same pid, and `j` is cut off), `e`/`h` untouched,
/// `f` broken (fails; `g` is skipped), `s` edited and reverted (a store
/// hit), and `n` added.
fn base() -> Project {
    let mut p = Project::new();
    for (name, text) in [
        ("a", A),
        ("b", B),
        ("c", "structure C = struct val v = A.f 1 end"),
        ("d", "structure D = struct val w = B.k end"),
        ("e", "structure E = struct val e = 5 end"),
        ("f", F),
        ("g", "structure G = struct val r = F.q end"),
        ("h", "structure H = struct val h = E.e + 1 end"),
        ("i", "structure I = struct val i = C.v end"),
        ("j", "structure J = struct val j = D.w end"),
        ("s", S),
    ] {
        p.add(name, text);
    }
    p
}

/// Replaces each maximal run of 16 or more decimal digits (an mtime,
/// which timestamp decisions quote) with `<mtime>`; 32-digit runs are
/// pids and stay.
fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut run = String::new();
    let flush = |run: &mut String, out: &mut String| {
        if run.len() >= 16 && run.len() != 32 && run.bytes().all(|b| b.is_ascii_digit()) {
            out.push_str("<mtime>");
        } else {
            out.push_str(run);
        }
        run.clear();
    };
    for c in text.chars() {
        if c.is_ascii_hexdigit() {
            run.push(c);
        } else {
            flush(&mut run, &mut out);
            out.push(c);
        }
    }
    flush(&mut run, &mut out);
    out
}

/// One cold-process build of `project` over `bin`/`store`, rendered.
fn render_build(
    out: &mut String,
    title: &str,
    project: &Project,
    bin: &Path,
    store: &Arc<Store>,
    strategy: Strategy,
    jobs: usize,
) {
    use std::fmt::Write as _;
    let collector = Collector::new();
    collector.install();
    let started = Instant::now();
    let mut session = BuildSession::open(bin, strategy, false, Some(Arc::clone(store)));
    let built = session
        .build(project, jobs, FailurePolicy::KeepGoing)
        .expect("keep-going builds return a report");
    let (record, _) = session.finish(&built, &collector, jobs, started, false);
    let json = build_report_json(&record, &built.report, &collector);
    smlsc::core::trace::uninstall();
    let report = &built.report;
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(out, "summary: {}", built.summary);
    for note in &built.notes {
        let _ = writeln!(out, "note: {note}");
    }
    let _ = writeln!(out, "explain:");
    for line in explain_lines(report.all_decisions()) {
        let _ = writeln!(out, "{line}");
    }
    let start = json.find(",\"decisions\":").expect("decisions key") + 1;
    let end = json.find(",\"stats\":").expect("stats key");
    let _ = writeln!(out, "json: {}", &json[start..end]);
    let _ = writeln!(
        out,
        "record: compiled={} reused={} cutoff={} store_hits={} skipped={} failed={} exit={}",
        record.compiled,
        record.reused,
        record.cutoff,
        record.store_hits,
        record.skipped,
        record.failed,
        record.exit_code
    );
    let _ = writeln!(out, "answers:");
    for unit in [
        "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "n", "s", "zz",
    ] {
        let decision = report
            .decision_for(unit)
            .map_or_else(|| "none".to_string(), |d| d.to_json());
        let outcome = report
            .outcome_for(unit)
            .map_or_else(|| "none".to_string(), |o| format!("{o:?}"));
        let _ = writeln!(out, "  {unit}: {decision} / {outcome}");
    }
}

/// The whole history under `strategy` at `jobs` workers.
fn history(strategy: Strategy, jobs: usize) -> String {
    let root = temp_dir(&format!("{strategy}-{jobs}"));
    let bin = root.join("bins");
    let store = Arc::new(Store::open(root.join("store")).expect("store opens"));
    let mut out = String::new();
    let mut p = base();
    render_build(
        &mut out,
        &format!("{strategy} cold"),
        &p,
        &bin,
        &store,
        strategy,
        jobs,
    );
    p.edit("a", A_BODY).unwrap();
    p.edit("b", B_WIDER).unwrap();
    p.edit("f", F_BROKEN).unwrap();
    p.edit("s", S_EDITED).unwrap();
    p.add("n", "structure N = struct val n = A.f 0 end");
    render_build(
        &mut out,
        &format!("{strategy} edits"),
        &p,
        &bin,
        &store,
        strategy,
        jobs,
    );
    p.edit("f", F).unwrap();
    p.edit("s", S).unwrap();
    render_build(
        &mut out,
        &format!("{strategy} fix and revert"),
        &p,
        &bin,
        &store,
        strategy,
        jobs,
    );
    render_build(
        &mut out,
        &format!("{strategy} no-op"),
        &p,
        &bin,
        &store,
        strategy,
        jobs,
    );
    std::fs::remove_dir_all(&root).ok();
    normalize(&out)
}

#[test]
fn report_rendering_matches_the_goldens_at_every_width() {
    let mut rendered = String::new();
    for strategy in [Strategy::Cutoff, Strategy::Timestamp, Strategy::Classical] {
        let one = history(strategy, 1);
        let four = history(strategy, 4);
        assert_eq!(
            one, four,
            "{strategy}: jobs 1 and jobs 4 render differently"
        );
        rendered.push_str(&one);
    }
    if rendered != GOLDEN {
        let actual = std::env::temp_dir().join("report_rendering.actual.txt");
        std::fs::write(&actual, &rendered).ok();
        panic!(
            "report rendering differs from tests/goldens/report_rendering.txt; actual written to {}",
            actual.display()
        );
    }
}
