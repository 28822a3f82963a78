//! The resident build session behind `smlsc daemon` (DESIGN §6j).
//!
//! A cold `smlsc build` pays process startup, pack-index load, stamp
//! load, and a directory scan before the first rebuild decision.  A
//! [`Resident`] pays all of that once, at open, then keeps the analyzed
//! project — its analysis records, lazily indexed bins — in memory and
//! answers every later build from deltas:
//!
//! * **A change feed, drained under the build lock.**  Every
//!   [`Resident::build`] first drains the session's [`ChangeFeed`] (the
//!   daemon's inotify watch) and re-stats only the `*.sml` files it
//!   names, turning them into [`FileEvent`]s.  The kernel queues an
//!   event inside the `write(2)` that caused it, so an edit that
//!   finished before the request is always in the queue: the drain is
//!   a barrier, and since it runs under the state lock no concurrent
//!   request can consume another's events.  A file named by the feed is
//!   re-read on the next build whatever its stamp says, so a same-size
//!   rewrite within one mtime tick is never missed.
//! * **A counted rescan fallback.**  With no feed, or when the feed
//!   lost track (queue overflow, a read or watch error, the directory
//!   itself moved or deleted, an injected `daemon.watch` fault), the
//!   build stat-scans the directory instead ([`Resident::diff_from_disk`],
//!   which never reads a source body) and counts a
//!   [`names::DAEMON_WATCH_RESCANS`].  The rescan stays owed until one
//!   succeeds: a build whose scan fails returns the error, and the next
//!   build scans again instead of trusting a feed that has already
//!   dropped the events the scan stood in for.
//! * **File-event deltas, not rebuilds of the project.**
//!   [`Resident::apply_events`] replaces or removes individual
//!   in-memory [`SourceFile`] entries (via
//!   [`Project::add_lazy`]/[`Project::remove`]), so the next build's
//!   three-rung analysis ladder misses *only* the touched units.
//! * **Builds seeded from the drain.**  When the feed named only
//!   changed sources of units the project already held, the build is
//!   handed their names ([`Irm::build_changed`](crate::irm::Irm::build_changed)):
//!   it analyzes and decides just those units against the last build's
//!   graph and seeds the schedule from them, with no pass over the
//!   whole project.  An added, removed or renamed unit, a rescan, or
//!   anything the manager cannot vouch for (see `build_changed`) takes
//!   the full ladder instead; the report is the same either way.
//! * **Serialized build execution.**  Any number of threads may call
//!   [`Resident::build`] concurrently; a mutex serializes the runs — the
//!   bin cache and stamp cache are single-writer.
//! * **Snapshot-consistent reports.**  Every finished build publishes an
//!   immutable [`BuildSnapshot`]; readers ([`Resident::last`], overlapped
//!   stats requests) get a complete snapshot or none, never a report
//!   mid-mutation.
//! * **One build session.**  Builds run the [`BuildSession`] steps the
//!   in-process CLI runs, so they print what an in-process build would;
//!   the open's corrupt-bin notes ride on the first report.
//! * **No-change short-circuit.**  When the drain finds nothing and the
//!   last build succeeded, [`Resident::build`] answers from the cached
//!   snapshot without running the analysis ladder, rendered as the
//!   no-op a rerun would print ([`BuildSnapshot::as_noop`]).
//! * **Flat memory.**  After each save the session releases every
//!   decoded bin body ([`Irm::release_bodies`](crate::irm::Irm::release_bodies)):
//!   a long-lived daemon would otherwise keep every body it ever
//!   compiled or forced.  The released bodies are held until
//!   [`Resident::drop_released`] (the daemon calls it once idle) or the
//!   start of the next build that runs, so freeing them (≈1,300 decoded
//!   bins after a hub interface edit at 20k units) is not on the reply
//!   path, and a build never holds them beside its own.
//!
//! [`SourceFile`]: crate::irm::SourceFile

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use smlsc_ids::Symbol;
use smlsc_store::Store;
use smlsc_trace::{self as trace, names, RebuildDecision};

use crate::build_session::BuildSession;
use crate::irm::{mtime_ns, with_implied_reuses, FailurePolicy, Project, ReleasedBodies, Strategy};
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

/// What one [`ChangeFeed::drain`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drained {
    /// The names (relative to the project directory) of the files
    /// touched since the last drain, in any order, possibly repeated;
    /// names other than `*.sml` are ignored.
    Changed(Vec<PathBuf>),
    /// The feed lost events.  It has already re-armed itself (or will
    /// retry on the next drain), so a rescan made now misses nothing.
    Lost,
}

/// A queue of file-change notices for the project directory, drained by
/// every [`Resident::build`] under the state lock.  The daemon's inotify
/// watch implements it; a session without one rescans on every build.
pub trait ChangeFeed: Send {
    /// Takes everything queued since the last drain, without blocking.
    fn drain(&mut self) -> Drained;
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
    /// Units that kept their bins.
    pub reused: usize,
    /// The exit code class of the build (0 ok, 1 compile, 3 internal,
    /// 4 store/IO).
    pub exit_code: i32,
    /// The one-line summary (`built N unit(s) [...]: ...`).
    pub summary: String,
    /// Diagnostics for stderr: warnings, failures, skip explanations.
    pub notes: Vec<String>,
    /// The build order.
    pub order: Arc<[Symbol]>,
    /// The rebuild decisions of the units the build touched, in order;
    /// every other unit that did not fail was reused.  Rendered for
    /// `--explain` only when a request asks ([`Self::all_decisions`]).
    pub decisions: Vec<(Symbol, RebuildDecision)>,
    /// The units whose compile failed (keep-going).
    failed: Vec<Symbol>,
    /// The build's full telemetry (`Collector::stats_json`).
    pub stats_json: String,
    /// The delta generation this snapshot reflects (see
    /// [`Resident::build`]'s no-change short-circuit).
    gen: u64,
    /// The summary a rerun with nothing changed prints.
    noop_summary: String,
    /// [`Self::as_noop`], rendered on first use.
    noop: OnceLock<Arc<BuildSnapshot>>,
}

impl BuildSnapshot {
    /// Every unit in build order with its decision, implied reuses
    /// included, as [`BuildReport::all_decisions`](crate::irm::BuildReport::all_decisions)
    /// renders them.
    pub fn all_decisions(&self) -> impl Iterator<Item = (Symbol, &RebuildDecision)> + '_ {
        with_implied_reuses(&self.order, &self.decisions, |u| self.failed.contains(&u))
    }

    /// The delta generation this snapshot reflects; current while it
    /// equals [`Resident::generation`].
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// This build as a rerun with nothing changed prints it — every
    /// unit reused, no notes — under the same sequence number and
    /// telemetry: what a cached reply serves, so a no-op after an edit
    /// never repeats "1 recompiled".
    pub fn as_noop(&self) -> Arc<BuildSnapshot> {
        let noop = self.noop.get_or_init(|| {
            Arc::new(BuildSnapshot {
                seq: self.seq,
                units: self.units,
                recompiled: 0,
                reused: self.units,
                exit_code: self.exit_code,
                summary: self.noop_summary.clone(),
                notes: Vec::new(),
                order: Arc::clone(&self.order),
                decisions: Vec::new(),
                failed: Vec::new(),
                stats_json: self.stats_json.clone(),
                gen: self.gen,
                noop_summary: self.noop_summary.clone(),
                noop: OnceLock::new(),
            })
        });
        Arc::clone(noop)
    }
}

struct State {
    session: BuildSession,
    project: Project,
    dir: PathBuf,
    feed: Option<Box<dyn ChangeFeed>>,
    /// Set when the feed cannot say what changed (none attached, lost
    /// events, a failed re-stat); cleared only once a rescan's deltas
    /// are applied.
    rescan_owed: bool,
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
    /// What the last build released, until [`Self::drop_released`].
    released: Mutex<ReleasedBodies>,
    /// Builds currently executing inside the state lock (structurally
    /// ≤ 1; the high-water mark proves the single-writer invariant to
    /// the concurrency stress test).
    building: AtomicUsize,
    building_high_water: AtomicUsize,
    invalidations: AtomicU64,
    rescans: AtomicU64,
}

impl Resident {
    /// Opens a resident session: `bin_dir` as a [`BuildSession`], and
    /// `dir` scanned (stat-only) into a lazy project, overlapped
    /// ([`BuildSession::open_dir`]) on the host's workers.  Every build
    /// rescans until [`Self::set_feed`] attaches a change feed.
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
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (session, project) =
            BuildSession::open_dir(dir, bin_dir, strategy, false, store, jobs)?;
        if project.files().is_empty() {
            return Err(CoreError::Io(format!("no .sml files in {}", dir.display())));
        }
        Ok(Resident {
            state: Mutex::new(State {
                session,
                project,
                dir: dir.to_path_buf(),
                feed: None,
                rescan_owed: false,
                gen: 0,
                seq: 0,
            }),
            last: RwLock::new(None),
            released: Mutex::default(),
            building: AtomicUsize::new(0),
            building_high_water: AtomicUsize::new(0),
            invalidations: AtomicU64::new(0),
            rescans: AtomicU64::new(0),
        })
    }

    /// Attaches the change feed every later build drains.  Arm it before
    /// [`Self::open`] scans the directory, so no edit falls between the
    /// scan and the first event.
    pub fn set_feed(&self, feed: Box<dyn ChangeFeed>) {
        self.state.lock().expect("resident state lock").feed = Some(feed);
    }

    /// Frees the bin bodies the last build released, outside the state
    /// lock: a caller that answers builds calls this once it is idle.
    /// A build that starts meanwhile waits for the free (the lock is
    /// held through it), so the freed memory is there for it to reuse.
    pub fn drop_released(&self) {
        *self.released.lock().expect("released lock") = ReleasedBodies::default();
    }

    /// Stat-only sweep of the project directory, diffed against the
    /// in-memory project: the events that would bring the session up to
    /// date.  Never reads a source body.
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
        self.apply(&mut st, events)
    }

    /// Builds the project with up to `jobs` workers under `policy`,
    /// after draining the change feed (or rescanning without one).
    ///
    /// When nothing changed since the last successful build, its
    /// snapshot is returned as a no-op ([`BuildSnapshot::as_noop`],
    /// `true` in the pair) without running the analysis ladder.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] when a rescan cannot list the directory; any
    /// [`CoreError`] of [`BuildSession::build`].
    pub fn build(
        &self,
        jobs: usize,
        policy: FailurePolicy,
    ) -> Result<(Arc<BuildSnapshot>, bool), CoreError> {
        let mut st = self.state.lock().expect("resident state lock");
        let st = &mut *st;
        let collector = trace::Collector::new();
        collector.install();
        let changed = match self.refresh(st) {
            Ok(changed) => changed,
            Err(e) => {
                trace::uninstall();
                return Err(e);
            }
        };
        if let Some(last) = self.last.read().expect("snapshot lock").as_ref() {
            if last.gen == st.gen && last.exit_code == 0 {
                trace::uninstall();
                return Ok((last.as_noop(), true));
            }
        }
        self.drop_released();
        let started = std::time::Instant::now();
        let n = self.building.fetch_add(1, Ordering::SeqCst) + 1;
        self.building_high_water.fetch_max(n, Ordering::SeqCst);
        let result = st
            .session
            .build_changed(&st.project, jobs, policy, changed.as_deref());
        self.building.fetch_sub(1, Ordering::SeqCst);
        let mut built = result.inspect_err(|_| trace::uninstall())?;
        let (_, warnings) = st.session.finish(&built, &collector, jobs, started, true);
        // The span ends before `stats_json` renders, so the reply
        // reports it; the render and the drop of the replaced snapshot
        // come after it, both sized to the units the build touched.
        let span = trace::span(names::SPAN_RESIDENT_SNAPSHOT);
        *self.released.lock().expect("released lock") = st.session.irm.release_bodies();
        built.notes.extend(warnings);
        st.seq += 1;
        let report = built.report;
        let units = report.order.len();
        let mut snapshot = BuildSnapshot {
            seq: st.seq,
            units,
            recompiled: report.recompiled.len(),
            reused: report.reused,
            exit_code: built.exit_code,
            summary: built.summary,
            notes: built.notes,
            order: report.order.into(),
            decisions: report.decisions,
            failed: report.failed.into_iter().map(|(u, _)| u).collect(),
            stats_json: String::new(),
            gen: st.gen,
            noop_summary: st.session.noop_summary(units),
            noop: OnceLock::new(),
        };
        drop(span);
        snapshot.stats_json = collector.stats_json();
        trace::uninstall();
        let snapshot = Arc::new(snapshot);
        *self.last.write().expect("snapshot lock") = Some(Arc::clone(&snapshot));
        Ok((snapshot, false))
    }

    /// Brings the in-memory project up to date: the files the feed
    /// names, re-stat'ed and stripped of their recorded stats, then a
    /// counted rescan when there is no feed, it lost track, or an
    /// earlier build's rescan failed.
    ///
    /// Returns the units the feed named when they alone may seed the
    /// build: every event replaced a unit the project already held, and
    /// no rescan ran.
    fn refresh(&self, st: &mut State) -> Result<Option<Vec<Symbol>>, CoreError> {
        let _span = trace::span(names::SPAN_RESIDENT_REFRESH);
        let named = match st.feed.as_mut().map(|feed| feed.drain()) {
            Some(Drained::Changed(names)) => restat(&st.dir, names),
            _ => None,
        };
        let mut seed = None;
        match named {
            Some(events) => {
                let mut units = Vec::with_capacity(events.len());
                let mut replaces_only = true;
                for event in &events {
                    match event {
                        FileEvent::Upsert { name, .. } => {
                            let unit = Symbol::intern(name);
                            st.session.irm.forget_stamp(unit);
                            replaces_only &= st.project.get(unit).is_some();
                            units.push(unit);
                        }
                        FileEvent::Remove { .. } => replaces_only = false,
                    }
                }
                self.apply(st, &events);
                seed = replaces_only.then_some(units);
            }
            None => st.rescan_owed = true,
        }
        if st.rescan_owed {
            self.rescans.fetch_add(1, Ordering::SeqCst);
            trace::counter(names::DAEMON_WATCH_RESCANS, 1);
            let events = diff_projects(&st.project, &Project::from_dir(&st.dir)?);
            self.apply(st, &events);
            st.rescan_owed = false;
            seed = None;
        }
        Ok(seed)
    }

    fn apply(&self, st: &mut State, events: &[FileEvent]) -> usize {
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
            self.invalidations
                .fetch_add(applied as u64, Ordering::SeqCst);
            trace::counter(names::DAEMON_INVALIDATIONS, applied as u64);
        }
        applied
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

    /// File events applied over the session's lifetime
    /// ([`names::DAEMON_INVALIDATIONS`]).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::SeqCst)
    }

    /// Builds that rescanned the directory instead of draining a feed
    /// ([`names::DAEMON_WATCH_RESCANS`]).
    pub fn rescans(&self) -> u64 {
        self.rescans.load(Ordering::SeqCst)
    }
}

/// Re-stats the `*.sml` files among `names` (in `dir`): an upsert per
/// file present, a removal per file gone.  `None` when a stat fails for
/// any other reason, so the caller rescans.
fn restat(dir: &Path, mut names: Vec<PathBuf>) -> Option<Vec<FileEvent>> {
    names.sort();
    names.dedup();
    let mut events = Vec::new();
    for file in names {
        if file.extension().and_then(|e| e.to_str()) != Some("sml") {
            continue;
        }
        let name = file.file_stem()?.to_str()?.to_string();
        let path = dir.join(&file);
        match std::fs::metadata(&path) {
            Ok(meta) => events.push(FileEvent::Upsert {
                name,
                mtime_ns: mtime_ns(&meta),
                size: meta.len(),
                path,
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                events.push(FileEvent::Remove { name });
            }
            Err(_) => return None,
        }
    }
    Some(events)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irm::Irm;
    use smlsc_faults::{install_scoped, FaultPlan};

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

    /// A feed the test fills by hand: `Some(names)` queued, `None` lost.
    #[derive(Clone, Default)]
    struct Queue(Arc<Mutex<Option<Vec<PathBuf>>>>);

    impl Queue {
        fn push(&self, name: &str) {
            let mut q = self.0.lock().unwrap();
            q.get_or_insert_with(Vec::new).push(PathBuf::from(name));
        }

        fn lose(&self) {
            *self.0.lock().unwrap() = None;
        }
    }

    impl ChangeFeed for Queue {
        fn drain(&mut self) -> Drained {
            match self.0.lock().unwrap().replace(Vec::new()) {
                Some(names) => Drained::Changed(names),
                None => Drained::Lost,
            }
        }
    }

    fn fed(dir: &Path) -> (Resident, Queue) {
        let queue = Queue::default();
        queue.0.lock().unwrap().replace(Vec::new());
        let r = open(dir);
        r.set_feed(Box::new(queue.clone()));
        (r, queue)
    }

    fn build(r: &Resident) -> (Arc<BuildSnapshot>, bool) {
        r.build(1, FailurePolicy::FailFast).unwrap()
    }

    fn export_pids(irm: &Irm, units: &[&str]) -> Vec<String> {
        units
            .iter()
            .map(|u| irm.bin_meta(u).unwrap().export_pid.to_string())
            .collect()
    }

    /// The export pids a clean in-process build of `dir`'s sources gives.
    fn clean_pids(dir: &Path, units: &[&str]) -> Vec<String> {
        let mut irm = Irm::new(Strategy::Cutoff);
        irm.build(&Project::from_dir(&dir.join("src")).unwrap())
            .unwrap();
        export_pids(&irm, units)
    }

    #[test]
    fn noop_build_is_served_from_the_cached_snapshot_as_a_noop() {
        let dir = temp("noop");
        write(&dir, "a", "structure A = struct fun f x = x + 1 end");
        write(&dir, "b", "structure B = struct val y = A.f 41 end");
        let (r, _queue) = fed(&dir);
        let (first, cached) = r.build(2, FailurePolicy::FailFast).unwrap();
        assert!(!cached);
        assert_eq!(first.recompiled, 2);
        assert_eq!(first.exit_code, 0);
        let (second, cached) = r.build(2, FailurePolicy::FailFast).unwrap();
        assert!(cached, "unchanged project short-circuits to the snapshot");
        assert_eq!(second.seq, first.seq);
        // The cached reply prints what a rerun would, not the last build.
        assert_eq!(
            second.summary,
            "built 2 unit(s) [cutoff]: 0 recompiled, 2 reused"
        );
        assert_eq!((second.recompiled, second.reused), (0, 2));
        assert!(second
            .decisions
            .iter()
            .all(|(_, d)| *d == RebuildDecision::Reused));
        assert_eq!(r.last().unwrap().summary, first.summary);
        assert_eq!(r.rescans(), 0, "a drained feed never rescans");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deltas_invalidate_exactly_the_touched_unit() {
        let dir = temp("delta");
        write(&dir, "a", "structure A = struct fun f x = x + 1 end");
        write(&dir, "b", "structure B = struct val y = A.f 41 end");
        let r = open(&dir);
        build(&r);
        // Edit the leaf's body on disk; the diff must see exactly it.
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct fun f x = x + 2 end");
        let events = r.diff_from_disk().unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(matches!(&events[0], FileEvent::Upsert { name, .. } if name == "a"));
        assert_eq!(r.apply_events(&events), 1);
        let (snap, cached) = build(&r);
        assert!(!cached);
        assert_eq!(snap.recompiled, 1, "body edit recompiles the one unit");
        assert_eq!(snap.reused, 1, "the dependent is cut off");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_session_without_a_feed_rescans_every_build_and_counts_it() {
        let dir = temp("nofeed");
        write(&dir, "a", "structure A = struct val x = 1 end");
        let r = open(&dir);
        build(&r);
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct val x = 22 end");
        let (snap, cached) = build(&r);
        assert!(!cached);
        assert_eq!(snap.recompiled, 1);
        assert_eq!(r.rescans(), 2);
        assert!(snap.stats_json.contains(r#""daemon.watch_rescans":1"#));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fed_file_is_reread_even_when_its_stamp_still_matches() {
        let dir = temp("sametick");
        write(&dir, "a", "structure A = struct val x = 1 end");
        write(&dir, "b", "structure B = struct val y = A.x end");
        let (r, queue) = fed(&dir);
        build(&r);
        // A same-size rewrite that keeps the mtime: the stamp matches,
        // and only the event says the bytes moved.
        let path = dir.join("src/a.sml");
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        write(&dir, "a", "structure A = struct val x = 2 end");
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        let (_, cached) = build(&r);
        assert!(cached, "no event, no rebuild");
        queue.push("a.sml");
        queue.push("a.sml");
        queue.push("notes.txt");
        let (snap, cached) = build(&r);
        assert!(!cached);
        assert_eq!(snap.recompiled, 1, "{}", snap.summary);
        assert!(snap.stats_json.contains(r#""daemon.invalidations":1"#));
        assert_eq!(r.rescans(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lost_feed_falls_back_to_a_counted_rescan() {
        let dir = temp("lost");
        write(&dir, "a", "structure A = struct val x = 1 end");
        write(&dir, "b", "structure B = struct val y = A.x end");
        write(&dir, "d", "structure D = struct val w = 4 end");
        let (r, queue) = fed(&dir);
        build(&r);
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct val x = 17 end");
        write(&dir, "c", "structure C = struct val z = B.y end");
        std::fs::remove_file(dir.join("src/d.sml")).unwrap();
        queue.lose();
        let (snap, cached) = build(&r);
        assert!(!cached);
        assert_eq!((snap.units, snap.recompiled), (3, 2), "{}", snap.summary);
        assert_eq!(r.rescans(), 1);
        assert_eq!(r.unit_count(), 3, "the rescan dropped the removed unit");
        assert_eq!(
            {
                let st = r.state.lock().unwrap();
                export_pids(&st.session.irm, &["a", "b", "c"])
            },
            clean_pids(&dir, &["a", "b", "c"])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn a_failed_rescan_stays_owed_until_one_succeeds() {
        let dir = temp("owed");
        write(&dir, "a", "structure A = struct val x = 1 end");
        write(&dir, "b", "structure B = struct val y = A.x end");
        let (r, queue) = fed(&dir);
        build(&r);
        std::thread::sleep(std::time::Duration::from_millis(5));
        write(&dir, "a", "structure A = struct val x = 17 end");
        queue.lose();
        // A dangling `x.sml` link fails the fallback scan's stat.
        let link = dir.join("src/x.sml");
        std::os::unix::fs::symlink(dir.join("gone.sml"), &link).unwrap();
        assert!(r.build(1, FailurePolicy::FailFast).is_err());
        std::fs::remove_file(&link).unwrap();
        // The feed re-armed after the loss and now drains clean: only
        // the owed rescan can still see the edit.
        let (snap, cached) = build(&r);
        assert!(!cached, "the owed rescan runs: {}", snap.summary);
        assert_eq!(snap.recompiled, 1, "{}", snap.summary);
        assert_eq!(r.rescans(), 2);
        assert_eq!(
            {
                let st = r.state.lock().unwrap();
                export_pids(&st.session.irm, &["a", "b"])
            },
            clean_pids(&dir, &["a", "b"])
        );
        let (_, cached) = build(&r);
        assert!(cached, "a successful rescan is no longer owed");
        assert_eq!(r.rescans(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn removal_events_drop_units() {
        let dir = temp("remove");
        write(&dir, "a", "structure A = struct val x = 1 end");
        write(&dir, "b", "structure B = struct val y = 2 end");
        let r = open(&dir);
        let (snap, _) = build(&r);
        assert_eq!(snap.units, 2);
        std::fs::remove_file(dir.join("src").join("b.sml")).unwrap();
        let events = r.diff_from_disk().unwrap();
        assert_eq!(events, vec![FileEvent::Remove { name: "b".into() }]);
        r.apply_events(&events);
        let (snap, cached) = build(&r);
        assert!(!cached);
        assert_eq!(snap.units, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_fed_removal_drops_the_unit_without_a_rescan() {
        let dir = temp("fedremove");
        write(&dir, "a", "structure A = struct val x = 1 end");
        write(&dir, "b", "structure B = struct val y = 2 end");
        let (r, queue) = fed(&dir);
        let (snap, _) = build(&r);
        assert_eq!(snap.units, 2);
        std::fs::remove_file(dir.join("src").join("b.sml")).unwrap();
        queue.push("b.sml");
        let (snap, cached) = build(&r);
        assert!(!cached);
        assert_eq!(snap.units, 1);
        assert!(snap.stats_json.contains(r#""daemon.invalidations":1"#));
        assert_eq!(r.rescans(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fed build is seeded from the drain, and its stats name the
    /// daemon's own layers around the ledger's wall time.
    #[test]
    fn a_fed_build_is_seeded_and_names_its_daemon_layers() {
        let dir = temp("layers");
        write(&dir, "a", "structure A = struct fun f x = x + 1 end");
        write(&dir, "b", "structure B = struct val y = A.f 41 end");
        let (r, queue) = fed(&dir);
        let (first, _) = build(&r);
        assert!(!first.stats_json.contains(names::SCHED_EVENT_SEEDED));
        write(&dir, "a", "structure A = struct fun f x = x + 2 end");
        queue.push("a.sml");
        let (snap, _) = build(&r);
        assert_eq!((snap.recompiled, snap.reused), (1, 1), "{}", snap.summary);
        for name in [
            names::SPAN_RESIDENT_REFRESH,
            names::SPAN_RESIDENT_SNAPSHOT,
            names::SCHED_EVENT_SEEDED,
        ] {
            assert!(
                snap.stats_json.contains(&format!("\"{name}\"")),
                "{name}: {}",
                snap.stats_json
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_builds_are_not_short_circuited() {
        let dir = temp("fail");
        write(&dir, "a", "structure A = struct val x = 1 + \"s\" end");
        let (r, _queue) = fed(&dir);
        let (snap, cached) = r.build(1, FailurePolicy::KeepGoing).unwrap();
        assert!(!cached);
        assert_eq!(snap.exit_code, 1);
        // Same generation, but a failed snapshot must re-run, not cache.
        let (snap, cached) = r.build(1, FailurePolicy::KeepGoing).unwrap();
        assert!(!cached);
        assert_eq!(snap.exit_code, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    const CHAIN: [&str; 3] = ["a", "b", "c"];

    fn write_chain(dir: &Path, b_body: &str) {
        write(dir, "a", "structure A = struct fun f x = x + 1 end");
        write(
            dir,
            "b",
            &format!("structure B = struct fun g x = A.f ({b_body}) end"),
        );
        write(dir, "c", "structure C = struct val z = B.g 40 end");
    }

    #[test]
    fn saved_bodies_are_released_and_rebuild_to_identical_pids() {
        let dir = temp("release");
        write_chain(&dir, "x");
        let (r, queue) = fed(&dir);
        let (snap, _) = build(&r);
        assert_eq!(snap.recompiled, 3);
        assert_eq!(r.state.lock().unwrap().session.irm.bodies_in_memory(), 0);
        // The three sealed bodies wait for the caller to free them.
        assert_eq!(r.released.lock().unwrap().len(), 3);
        r.drop_released();
        assert!(r.released.lock().unwrap().is_empty());
        // A body edit in the middle: `b` recompiles against `a`'s
        // released body, forced back from the pack; `c` is cut off.
        write_chain(&dir, "x * 2");
        queue.push("b.sml");
        let (snap, _) = build(&r);
        assert_eq!((snap.recompiled, snap.reused), (1, 2), "{}", snap.summary);
        let st = r.state.lock().unwrap();
        assert_eq!(st.session.irm.bodies_in_memory(), 0);
        assert_eq!(
            export_pids(&st.session.irm, &CHAIN),
            clean_pids(&dir, &CHAIN)
        );
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_released_body_torn_on_disk_is_quarantined_and_recompiled() {
        let dir = temp("torn");
        write_chain(&dir, "x");
        let (r, queue) = fed(&dir);
        {
            // `a`'s body goes to the pack torn, under its true digest.
            let _faults = install_scoped(FaultPlan::parse("bin.save=torn(a)").unwrap());
            build(&r);
        }
        write_chain(&dir, "x * 2");
        queue.push("b.sml");
        let (snap, _) = build(&r);
        assert_eq!(snap.exit_code, 0, "{:?}", snap.notes);
        // Only the released body could be torn: `a` was compiled in
        // this session, so without the release it would still be held
        // decoded and never re-read.
        let quarantined = format!("\"{}\":1", names::BIN_BODY_QUARANTINED);
        assert!(
            snap.stats_json.contains(&quarantined),
            "{}",
            snap.stats_json
        );
        let st = r.state.lock().unwrap();
        assert_eq!(
            export_pids(&st.session.irm, &CHAIN),
            clean_pids(&dir, &CHAIN)
        );
        drop(st);
        std::fs::remove_dir_all(&dir).ok();
    }
}
