//! The resident build session behind `smlsc daemon` (DESIGN §6j).
//!
//! A cold `smlsc build` pays process startup, pack-index load, stamp
//! load, and a directory scan before the first rebuild decision.  A
//! [`Resident`] pays all of that once, at open, then keeps the analyzed
//! project — stamps, deps cache, lazily indexed bins, statenvs — hot in
//! memory and answers every later build from deltas:
//!
//! * **File-event deltas, not rescans.**  [`Resident::apply_events`]
//!   replaces or removes individual in-memory [`SourceFile`] entries
//!   (via [`Project::add_lazy`]/[`Project::remove`]), so the next build's
//!   four-rung analysis ladder misses *only* the touched units.  A
//!   daemon's filesystem watcher computes those events with
//!   [`Resident::diff_from_disk`] — a stat-only sweep that never reads a
//!   source body.
//! * **Serialized build execution.**  The build entry is re-entrant:
//!   any number of threads may call [`Resident::build`] concurrently,
//!   and a mutex serializes the actual build runs — the bin cache and
//!   stamp cache are single-writer.  Waiters then run their own
//!   (now no-op) build and get a current report.
//! * **Snapshot-consistent reports.**  Every finished build publishes an
//!   immutable [`BuildSnapshot`]; readers ([`Resident::last`], overlapped
//!   stats requests) get a complete snapshot or none, never a report
//!   mid-mutation.
//! * **One build session.**  Builds run the [`BuildSession`] steps the
//!   in-process CLI runs, so they print what an in-process build would;
//!   the open's corrupt-bin notes ride on the first report.
//! * **No-change short-circuit.**  When no delta has been applied since
//!   the last successful build, [`Resident::build`] returns the cached
//!   snapshot without running the analysis ladder at all — the
//!   sub-millisecond answer a 50k-unit no-op needs.
//!
//! [`SourceFile`]: crate::irm::SourceFile

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use smlsc_ids::Symbol;
use smlsc_store::Store;
use smlsc_trace::{self as trace, names, RebuildDecision};

use crate::build_session::BuildSession;
use crate::irm::{FailurePolicy, Project, Strategy};
use crate::CoreError;

/// One filesystem change to feed into the resident session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileEvent {
    /// A source file appeared or changed: replace its in-memory entry
    /// with a fresh lazy stat (the text is read only if a rebuild
    /// decision needs it).
    Upsert {
        /// Unit name (file stem).
        name: String,
        /// On-disk path.
        path: PathBuf,
        /// Modification time, nanoseconds since the epoch.
        mtime_ns: u64,
        /// Size in bytes.
        size: u64,
    },
    /// A source file vanished: drop its unit from the project.
    Remove {
        /// Unit name (file stem).
        name: String,
    },
}

/// An immutable report of one finished resident build, rendered for
/// transport: the daemon serves these verbatim over its socket, and the
/// CLI prints them exactly as an in-process build would have.
#[derive(Debug, Clone)]
pub struct BuildSnapshot {
    /// Build sequence number within this session (1-based).
    pub seq: u64,
    /// Units in the build order.
    pub units: usize,
    /// Units compiled fresh.
    pub recompiled: usize,
    /// Units reused untouched.
    pub reused: usize,
    /// The exit code class of the build (0 ok, 1 compile, 3 internal,
    /// 4 store/IO).
    pub exit_code: i32,
    /// The one-line summary (`built N unit(s) [...]: ...`).
    pub summary: String,
    /// Diagnostics for stderr: warnings, failures, skip explanations.
    pub notes: Vec<String>,
    /// Per-unit rebuild decisions, rendered for `--explain` only when a
    /// request asks ([`explain_lines`](crate::build_session::explain_lines)).
    pub decisions: Vec<(Symbol, RebuildDecision)>,
    /// The build's full telemetry (`Collector::stats_json`).
    pub stats_json: String,
    /// The delta generation this snapshot reflects (see
    /// [`Resident::build`]'s no-change short-circuit).
    gen: u64,
}

impl BuildSnapshot {
    /// The delta generation this snapshot reflects; current while it
    /// equals [`Resident::generation`].
    pub fn generation(&self) -> u64 {
        self.gen
    }
}

struct State {
    session: BuildSession,
    project: Project,
    dir: PathBuf,
    /// Bumped once per applied [`FileEvent`]; a build snapshot taken at
    /// generation G is current for as long as the generation stays G.
    gen: u64,
    seq: u64,
}

/// A long-lived build session over one project directory.  See the
/// module docs.
pub struct Resident {
    state: Mutex<State>,
    last: RwLock<Option<Arc<BuildSnapshot>>>,
    /// Builds currently executing inside the state lock (structurally
    /// ≤ 1; the high-water mark proves the single-writer invariant to
    /// the concurrency stress test).
    building: AtomicUsize,
    building_high_water: AtomicUsize,
}

impl Resident {
    /// Opens a resident session: `bin_dir` as a [`BuildSession`], and
    /// `dir` scanned (stat-only) into a lazy project.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] when the project directory cannot be scanned;
    /// an empty project is reported as [`CoreError::Io`] too, since a
    /// daemon over zero units can serve nothing.
    pub fn open(
        dir: &Path,
        bin_dir: &Path,
        strategy: Strategy,
        store: Option<Arc<Store>>,
    ) -> Result<Resident, CoreError> {
        let session = BuildSession::open(bin_dir, strategy, false, store);
        let project = Project::from_dir(dir)?;
        if project.files().is_empty() {
            return Err(CoreError::Io(format!("no .sml files in {}", dir.display())));
        }
        Ok(Resident {
            state: Mutex::new(State {
                session,
                project,
                dir: dir.to_path_buf(),
                gen: 0,
                seq: 0,
            }),
            last: RwLock::new(None),
            building: AtomicUsize::new(0),
            building_high_water: AtomicUsize::new(0),
        })
    }

    /// Stat-only sweep of the project directory, diffed against the
    /// in-memory project: the events that would bring the session up to
    /// date.  Never reads a source body.  The daemon's watcher calls
    /// this each poll; a sync build calls it before deciding.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] when the directory cannot be scanned.
    pub fn diff_from_disk(&self) -> Result<Vec<FileEvent>, CoreError> {
        let st = self.state.lock().expect("resident state lock");
        let fresh = Project::from_dir(&st.dir)?;
        Ok(diff_projects(&st.project, &fresh))
    }

    /// Applies file-event deltas to the in-memory project — targeted
    /// invalidation, no rescan.  Returns how many events were applied.
    /// Each applied event bumps the session generation, invalidating
    /// the no-change short-circuit.
    pub fn apply_events(&self, events: &[FileEvent]) -> usize {
        let mut st = self.state.lock().expect("resident state lock");
        apply_to(&mut st, events)
    }

    /// Builds the project with up to `jobs` workers under `policy`.
    ///
    /// With `sync`, the on-disk state is re-stat'ed first
    /// ([`Self::diff_from_disk`] + [`Self::apply_events`] in one lock),
    /// so an edit the watcher has not polled yet is still seen; without
    /// it, the in-memory project is trusted as-is (the watcher is the
    /// authority — the sub-millisecond path).
    ///
    /// When nothing changed since the last successful build, the cached
    /// snapshot is returned (`true` in the pair) without running the
    /// analysis ladder.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] of [`BuildSession::build`].
    pub fn build(
        &self,
        jobs: usize,
        policy: FailurePolicy,
        sync: bool,
    ) -> Result<(Arc<BuildSnapshot>, bool), CoreError> {
        let mut st = self.state.lock().expect("resident state lock");
        let st = &mut *st;
        if sync {
            let fresh = Project::from_dir(&st.dir)?;
            let events = diff_projects(&st.project, &fresh);
            apply_to(st, &events);
        }
        if let Some(last) = self.last.read().expect("snapshot lock").as_ref() {
            if last.gen == st.gen && last.exit_code == 0 {
                return Ok((Arc::clone(last), true));
            }
        }
        let started = std::time::Instant::now();
        let collector = trace::Collector::new();
        collector.install();
        let n = self.building.fetch_add(1, Ordering::SeqCst) + 1;
        self.building_high_water.fetch_max(n, Ordering::SeqCst);
        let result = st.session.build(&st.project, jobs, policy);
        self.building.fetch_sub(1, Ordering::SeqCst);
        let mut built = result.inspect_err(|_| trace::uninstall())?;
        let (_, warnings) = st.session.finish(&built, &collector, jobs, started, true);
        built.notes.extend(warnings);
        let stats_json = collector.stats_json();
        trace::uninstall();
        st.seq += 1;
        let report = built.report;
        let snapshot = Arc::new(BuildSnapshot {
            seq: st.seq,
            units: report.order.len(),
            recompiled: report.recompiled.len(),
            reused: report.reused.len(),
            exit_code: built.exit_code,
            summary: built.summary,
            notes: built.notes,
            decisions: report.decisions,
            stats_json,
            gen: st.gen,
        });
        *self.last.write().expect("snapshot lock") = Some(Arc::clone(&snapshot));
        Ok((snapshot, false))
    }

    /// The last completed build's snapshot, if any.
    pub fn last(&self) -> Option<Arc<BuildSnapshot>> {
        self.last.read().expect("snapshot lock").clone()
    }

    /// The session's current delta generation: bumped once per applied
    /// [`FileEvent`].  A last-build snapshot whose
    /// [`BuildSnapshot::generation`] equals this is up to date.
    pub fn generation(&self) -> u64 {
        self.state.lock().expect("resident state lock").gen
    }

    /// Units currently in the project.
    pub fn unit_count(&self) -> usize {
        self.state
            .lock()
            .expect("resident state lock")
            .project
            .files()
            .len()
    }

    /// Highest number of builds ever observed executing at once —
    /// structurally 1 while the single-writer lock holds.
    pub fn building_high_water(&self) -> usize {
        self.building_high_water.load(Ordering::SeqCst)
    }
}

/// The events that turn `old` into `fresh`: an upsert per added or
/// touched file (mtime or size moved), a removal per vanished unit.
fn diff_projects(old: &Project, fresh: &Project) -> Vec<FileEvent> {
    let mut events = Vec::new();
    for f in fresh.files() {
        let changed = match old.file(f.name.as_str()) {
            Some(o) => o.mtime != f.mtime || o.size() != f.size(),
            None => true,
        };
        if changed {
            if let Some(path) = f.path() {
                events.push(FileEvent::Upsert {
                    name: f.name.to_string(),
                    path: path.to_path_buf(),
                    mtime_ns: f.mtime,
                    size: f.size(),
                });
            }
        }
    }
    for o in old.files() {
        if fresh.file(o.name.as_str()).is_none() {
            events.push(FileEvent::Remove {
                name: o.name.to_string(),
            });
        }
    }
    events
}

fn apply_to(st: &mut State, events: &[FileEvent]) -> usize {
    let mut applied = 0;
    for event in events {
        match event {
            FileEvent::Upsert {
                name,
                path,
                mtime_ns,
                size,
            } => {
                st.project
                    .add_lazy(name.clone(), path.clone(), *mtime_ns, *size);
                applied += 1;
            }
            FileEvent::Remove { name } => {
                if st.project.remove(name).is_ok() {
                    applied += 1;
                }
            }
        }
    }
    if applied > 0 {
        st.gen += applied as u64;
        trace::counter(names::DAEMON_INVALIDATIONS, applied as u64);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smlsc-resident-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        dir
    }

    fn write(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join("src").join(format!("{name}.sml")), text).unwrap();
    }

    fn open(dir: &Path) -> Resident {
        Resident::open(&dir.join("src"), &dir.join("bins"), Strategy::Cutoff, None).unwrap()
    }

    #[test]
    fn noop_build_is_served_from_the_cached_snapshot() {
        let dir = temp("noop");
        write(&dir, "a", "structure A = struct fun f x = x + 1 end");
        write(&dir, "b", "structure B = struct val y = A.f 41 end");
        let r = open(&dir);
        let (first, cached) = r.build(2, FailurePolicy::FailFast, true).unwrap();
        assert!(!cached);
        assert_eq!(first.recompiled, 2);
        assert_eq!(first.exit_code, 0);
        let (second, cached) = r.build(2, FailurePolicy::FailFast, true).unwrap();
        assert!(cached, "unchanged project short-circuits to the snapshot");
        assert_eq!(second.seq, first.seq);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deltas_invalidate_exactly_the_touched_unit() {
        let dir = temp("delta");
        write(&dir, "a", "structure A = struct fun f x = x + 1 end");
        write(&dir, "b", "structure B = struct val y = A.f 41 end");
        let r = open(&dir);
        r.build(1, FailurePolicy::FailFast, false).unwrap();
        // Edit the leaf's body on disk; the diff must see exactly it.
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct fun f x = x + 2 end");
        let events = r.diff_from_disk().unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(matches!(&events[0], FileEvent::Upsert { name, .. } if name == "a"));
        assert_eq!(r.apply_events(&events), 1);
        let (snap, cached) = r.build(1, FailurePolicy::FailFast, false).unwrap();
        assert!(!cached);
        assert_eq!(snap.recompiled, 1, "body edit recompiles the one unit");
        assert_eq!(snap.reused, 1, "the dependent is cut off");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_build_sees_an_unwatched_edit() {
        let dir = temp("sync");
        write(&dir, "a", "structure A = struct val x = 1 end");
        let r = open(&dir);
        r.build(1, FailurePolicy::FailFast, false).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct val x = 2 end");
        // No apply_events: sync must find the edit itself.
        let (snap, cached) = r.build(1, FailurePolicy::FailFast, true).unwrap();
        assert!(!cached);
        assert_eq!(snap.recompiled, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn removal_events_drop_units() {
        let dir = temp("remove");
        write(&dir, "a", "structure A = struct val x = 1 end");
        write(&dir, "b", "structure B = struct val y = 2 end");
        let r = open(&dir);
        let (snap, _) = r.build(1, FailurePolicy::FailFast, false).unwrap();
        assert_eq!(snap.units, 2);
        std::fs::remove_file(dir.join("src").join("b.sml")).unwrap();
        let events = r.diff_from_disk().unwrap();
        assert_eq!(events, vec![FileEvent::Remove { name: "b".into() }]);
        r.apply_events(&events);
        let (snap, cached) = r.build(1, FailurePolicy::FailFast, false).unwrap();
        assert!(!cached);
        assert_eq!(snap.units, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_builds_are_not_short_circuited() {
        let dir = temp("fail");
        write(&dir, "a", "structure A = struct val x = 1 + \"s\" end");
        let r = open(&dir);
        let (snap, cached) = r.build(1, FailurePolicy::KeepGoing, false).unwrap();
        assert!(!cached);
        assert_eq!(snap.exit_code, 1);
        // Same generation, but a failed snapshot must re-run, not cache.
        let (snap, cached) = r.build(1, FailurePolicy::KeepGoing, false).unwrap();
        assert!(!cached);
        assert_eq!(snap.exit_code, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
