//! The Incremental Recompilation Manager (§6, §8).
//!
//! The IRM replaces `make`: it analyzes inter-unit dependencies
//! automatically (free module names, §8), topologically orders the
//! project, and recompiles only what a strategy deems out of date:
//!
//! * [`Strategy::Cutoff`] — the paper's contribution.  A unit recompiles
//!   iff its own source digest changed or any *import pid* changed; and
//!   because the export pid is an intrinsic hash of the interface, a
//!   recompilation that leaves the interface unchanged produces the same
//!   export pid and the rebuild cascade is cut off right there.
//! * [`Strategy::Timestamp`] — Unix `make`: rebuild when any
//!   prerequisite (source or imported bin) is newer than the bin.
//!   Cascades unconditionally.
//! * [`Strategy::Classical`] — classical separate compilation: rebuild
//!   when the source changed or any dependency was rebuilt.  (Same
//!   cascade as `make`, without clock-skew artifacts.)
//!
//! Bin files are kept in an in-memory store (persistable via
//! [`Irm::save_bins`]/[`Irm::load_bins`]); rehydrated environments are
//! cached per build so each unit's statenv is read back at most once.
//!
//! # The shared artifact store
//!
//! When a [`Store`] is attached ([`Irm::set_store`]), every *recompile*
//! verdict first probes it: a unit's compilation result is fully
//! determined by its source pid plus the export pids of its imports
//! (the paper's intrinsic-pid insight read as a cache key), so a
//! digest-verified object found under that key **is** the compile
//! result and is rehydrated instead of compiled — including on a cold
//! session with no local bins at all.  Every fresh compile publishes
//! its bin back under the same key, so projects, sessions, and
//! concurrent builds (threads and processes) share one cache.  A store
//! probe that fails verification is quarantined by the store and the
//! unit compiles transparently; a fetched bin that does not match the
//! requesting unit (same key, different file stem) is rejected the
//! same way.
//!
//! # The wavefront scheduler
//!
//! Every build runs one scheduler: a unit's decide/compile task is
//! dispatched the moment every import's export environment has
//! settled.  It is a thin layer — in-degree counters over the
//! topological order and per-unit once-cells holding settled export
//! environments.  At `jobs == 1` the calling thread runs each ready
//! task itself, lowest topological index first (so the cone is visited
//! in plain topological order), with no threads and no channels; at
//! `jobs >= 2` a worker pool drains a task channel, so independent
//! subtrees of the analysis DAG compile concurrently.  Results are
//! **bit-identical at every width**: the same export pids, the same
//! [`RebuildDecision`] per unit, and a [`BuildReport`] in topological
//! order regardless of completion order.
//!
//! # Fault tolerance
//!
//! Builds survive bad units and bad infrastructure:
//!
//! * **Keep-going scheduling** ([`FailurePolicy::KeepGoing`], `smlsc
//!   build -k`): a failing unit fails, its transitive dependents are
//!   marked [`UnitOutcome::Skipped`] with the imports that blocked
//!   them, and every independent unit still builds, with the same
//!   failed and skipped sets at every width (the skip closure is a pure
//!   function of the failed set over the import DAG).
//! * **Panic isolation**: each unit's fallible work runs under a
//!   [`std::panic::catch_unwind`] guard.  A compiler panic becomes
//!   [`CoreError::Internal`] for that one unit (payload captured into
//!   an `irm.unit_panic` trace event); the build — and in parallel
//!   builds, the worker pool — keeps running.
//! * **Fault points**: `compile.unit`, `bin.save` and `bin.load` are
//!   named `smlsc_faults` injection points, so chaos suites can
//!   deterministically fail, tear, stall or crash any unit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use smlsc_faults::{self as faults, points, FaultKind};
use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::{rehydrate, RehydrateContext};
use smlsc_statics::env::Bindings;
use smlsc_store::Store;
use smlsc_trace::{self as trace, names, RebuildDecision};

use crate::compile::{analyze_source, compile_unit, source_pid, CompileTimings, ImportSource};
use crate::depgraph::DepGraph;
use crate::link::{link_and_execute, DynEnv};
use crate::pack::{self, PackReader, PackTail, PackWriter, PACK_FILE};
use crate::stamps::{stamp_key, StampCache, StampEntry};
use crate::unit::{BinFile, BinMeta, BIN_FORMAT_VERSION};
use crate::CoreError;

/// A source file's text: either in memory, or a path read (and cached)
/// on first use.  Warm builds whose decisions all come from the stamp
/// cache never force lazy texts at all — that is the whole point: a
/// no-op build does *zero* source-file reads (the `source.reads`
/// counter proves it).
#[derive(Debug, Clone)]
pub enum SourceText {
    /// Text supplied directly (tests, workloads, the REPL).
    Inline(String),
    /// Text on disk, read lazily and at most once.
    Lazy {
        /// The file to read.
        path: PathBuf,
        /// Its size in bytes at stat time (a stamp-cache key component).
        size: u64,
        /// The cached read result, shared across project clones.
        cell: Arc<OnceLock<Result<String, String>>>,
    },
}

impl SourceText {
    /// The text, reading it from disk on first use.  Each real read
    /// bumps the `source.reads` counter; read failures are cached (a
    /// vanished file fails the same way every time).
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] when a lazy read fails.
    pub fn force(&self) -> Result<&str, CoreError> {
        match self {
            SourceText::Inline(s) => Ok(s),
            SourceText::Lazy { path, cell, .. } => {
                let res = cell.get_or_init(|| {
                    trace::counter(names::SOURCE_READS, 1);
                    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
                });
                match res {
                    Ok(s) => Ok(s.as_str()),
                    Err(e) => Err(CoreError::Io(e.clone())),
                }
            }
        }
    }

    /// The text if it is already in memory (inline, or a lazy read that
    /// has happened) — never triggers a read.
    pub fn loaded(&self) -> Option<&str> {
        match self {
            SourceText::Inline(s) => Some(s),
            SourceText::Lazy { cell, .. } => cell.get().and_then(|r| r.as_deref().ok()),
        }
    }
}

/// One source file of a project.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Unit name (file stem).
    pub name: Symbol,
    /// Source text (possibly not yet read from disk).
    pub text: SourceText,
    /// Virtual modification time.
    pub mtime: u64,
}

impl SourceFile {
    /// The source text, reading it from disk on first use.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] when a lazy read fails.
    pub fn read_text(&self) -> Result<&str, CoreError> {
        self.text.force()
    }

    /// The file's size in bytes: the stat-time size for lazy files, the
    /// in-memory length for inline ones.
    pub fn size(&self) -> u64 {
        match &self.text {
            SourceText::Inline(s) => s.len() as u64,
            SourceText::Lazy { size, .. } => *size,
        }
    }

    /// The on-disk path backing a lazy file (`None` for inline text).
    /// Only path-backed files participate in the stamp cache.
    pub fn path(&self) -> Option<&Path> {
        match &self.text {
            SourceText::Inline(_) => None,
            SourceText::Lazy { path, .. } => Some(path),
        }
    }
}

static CLOCK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn wall_nanos() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The process-wide virtual clock backing every mtime (file edits and
/// bin writes), so `make`-style comparisons behave like a real
/// filesystem: anything written later has a strictly larger mtime.
///
/// Stamps are `max(previous + 1, wall clock in ns since the epoch)`:
/// strictly increasing (so virtual `tick()` ordering is a reliable
/// tie-break) yet comparable with real file mtimes threaded in via
/// [`observe`]/[`Project::add_with_mtime`], which is what lets
/// [`Strategy::Timestamp`] work against sources loaded from disk.
pub fn tick() -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let now = wall_nanos();
    let prev = CLOCK
        .fetch_update(Relaxed, Relaxed, |p| Some(p.saturating_add(1).max(now)))
        .expect("clock update closure never returns None");
    prev.saturating_add(1).max(now)
}

/// Advances the virtual clock to at least `mtime`, so stamps issued
/// after observing an external mtime (a real file) compare as later.
pub fn observe(mtime: u64) {
    CLOCK.fetch_max(mtime, std::sync::atomic::Ordering::Relaxed);
}

/// A project: named source files with virtual mtimes.
///
/// Lookups and replacements go through a name→slot index, so building a
/// project of N files (and re-stating it, as the daemon's watcher does)
/// is O(N), not O(N²) — at monorepo scale the linear scan per `add` was
/// the single largest term in the warm no-op wall time.
#[derive(Debug, Clone, Default)]
pub struct Project {
    files: Vec<SourceFile>,
    index: HashMap<Symbol, usize>,
}

impl Project {
    /// An empty project.
    pub fn new() -> Project {
        Project::default()
    }

    /// Inserts `f`, replacing any existing file of the same name.
    fn upsert(&mut self, f: SourceFile) {
        match self.index.entry(f.name) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.files[*slot.get()] = f;
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.files.len());
                self.files.push(f);
            }
        }
    }

    /// Adds a file (or replaces one of the same name), stamping it with a
    /// fresh mtime.
    pub fn add(&mut self, name: impl Into<String>, text: impl Into<String>) {
        let name = Symbol::intern(&name.into());
        self.upsert(SourceFile {
            name,
            text: SourceText::Inline(text.into()),
            mtime: tick(),
        });
    }

    /// Adds a file stamped with an externally observed mtime (nanoseconds
    /// since the epoch, e.g. a real file's modification time).  The
    /// virtual clock is advanced past `mtime` so later stamps (bin
    /// writes, edits) still compare as newer.
    pub fn add_with_mtime(&mut self, name: impl Into<String>, text: impl Into<String>, mtime: u64) {
        observe(mtime);
        let name = Symbol::intern(&name.into());
        self.upsert(SourceFile {
            name,
            text: SourceText::Inline(text.into()),
            mtime,
        });
    }

    /// Adds a lazily read on-disk file (or replaces one of the same
    /// name).  Only its metadata (`mtime`, `size`) is touched now; the
    /// text is read on first use.  See [`Project::from_dir`].
    pub fn add_lazy(
        &mut self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
        mtime_ns: u64,
        size: u64,
    ) {
        observe(mtime_ns);
        let name = Symbol::intern(&name.into());
        self.upsert(SourceFile {
            name,
            text: SourceText::Lazy {
                path: path.into(),
                size,
                cell: Arc::new(OnceLock::new()),
            },
            mtime: mtime_ns,
        });
    }

    /// Scans `dir` for `*.sml` files and builds a project of *lazy*
    /// sources: each file is stat'ed (mtime, size) but not read.  A
    /// warm build against a stamp cache then decides everything from
    /// stats alone and never opens a source file.  Files are sorted by
    /// unit name for deterministic ordering.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`] when the directory cannot be listed or a file
    /// cannot be stat'ed.
    pub fn from_dir(dir: &Path) -> Result<Project, CoreError> {
        let _span = trace::span(names::SPAN_SCAN);
        let rd =
            std::fs::read_dir(dir).map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        let mut files: Vec<(String, PathBuf, u64, u64)> = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("sml") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let meta = std::fs::metadata(&path)
                .map_err(|e| CoreError::Io(format!("{}: {e}", path.display())))?;
            let mtime_ns = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            files.push((stem.to_string(), path, mtime_ns, meta.len()));
        }
        files.sort_by(|a, b| a.0.cmp(&b.0));
        let mut p = Project::new();
        for (stem, path, mtime_ns, size) in files {
            p.add_lazy(stem, path, mtime_ns, size);
        }
        Ok(p)
    }

    /// Removes a file from the project.  Any bins referencing it become
    /// stale; the next build re-resolves imports and errors if something
    /// still imports its exports.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUnit`] when no such file exists.
    pub fn remove(&mut self, name: &str) -> Result<(), CoreError> {
        let name = Symbol::intern(name);
        let Some(slot) = self.index.remove(&name) else {
            return Err(CoreError::UnknownUnit(name));
        };
        self.files.remove(slot);
        // Removal shifts every later slot down one; repair the index.
        for f in &self.files[slot..] {
            if let Some(ix) = self.index.get_mut(&f.name) {
                *ix -= 1;
            }
        }
        Ok(())
    }

    /// Replaces a file's text, bumping its mtime.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUnit`] when no such file exists.
    pub fn edit(&mut self, name: &str, text: impl Into<String>) -> Result<(), CoreError> {
        let name = Symbol::intern(name);
        let clock = tick();
        let slot = *self.index.get(&name).ok_or(CoreError::UnknownUnit(name))?;
        let f = &mut self.files[slot];
        f.text = SourceText::Inline(text.into());
        f.mtime = clock;
        Ok(())
    }

    /// Bumps a file's mtime without changing it (`touch`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUnit`] when no such file exists.
    pub fn touch(&mut self, name: &str) -> Result<(), CoreError> {
        let name = Symbol::intern(name);
        let clock = tick();
        let slot = *self.index.get(&name).ok_or(CoreError::UnknownUnit(name))?;
        self.files[slot].mtime = clock;
        Ok(())
    }

    /// The project's files.
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// Looks up a file.
    pub fn file(&self, name: &str) -> Option<&SourceFile> {
        let name = Symbol::intern(name);
        self.index.get(&name).map(|&slot| &self.files[slot])
    }

    /// Total source lines across the project (forces lazy reads).
    pub fn total_lines(&self) -> usize {
        self.files
            .iter()
            .map(|f| f.read_text().map(|t| t.lines().count()).unwrap_or(0))
            .sum()
    }
}

/// The recompilation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Cutoff recompilation over intrinsic pids (the paper).
    #[default]
    Cutoff,
    /// `make`-style timestamps.
    Timestamp,
    /// Classical cascade (source changed or any dependency rebuilt).
    Classical,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::Cutoff => "cutoff",
            Strategy::Timestamp => "timestamp",
            Strategy::Classical => "classical",
        })
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    /// Parses the same names [`Display`](std::fmt::Display) emits.
    fn from_str(s: &str) -> Result<Strategy, String> {
        match s {
            "cutoff" => Ok(Strategy::Cutoff),
            "timestamp" => Ok(Strategy::Timestamp),
            "classical" => Ok(Strategy::Classical),
            other => Err(format!(
                "unknown strategy `{other}` (expected cutoff, timestamp, or classical)"
            )),
        }
    }
}

/// How a build responds to a failing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop at the first failure in topological order (the default):
    /// the build returns the error and the bin store holds exactly the
    /// units topologically before the failing one.
    #[default]
    FailFast,
    /// `make -k`: a failing unit fails, its transitive dependents are
    /// skipped, and every independent unit still builds.  The build
    /// returns `Ok` with failures and skips recorded in the report.
    KeepGoing,
}

/// What happened to one unit in a build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitOutcome {
    /// Compiled fresh.
    Compiled,
    /// Reused as-is (no recompile needed).
    Reused,
    /// Recompile verdict satisfied by the shared artifact store.
    StoreHit,
    /// The unit's compile failed.
    Failed {
        /// The rendered [`CoreError`] (the error itself is in
        /// [`BuildReport::failed`]).
        error: String,
    },
    /// Not attempted: a direct import failed or was itself skipped.
    Skipped {
        /// The direct imports that blocked it, in import order.
        blocked_on: Vec<Symbol>,
    },
}

/// What one [`Irm::build`] did.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// The strategy that made the decisions.
    pub strategy: Strategy,
    /// Units in build (topological) order.
    pub order: Vec<Symbol>,
    /// Units that were recompiled.
    pub recompiled: Vec<Symbol>,
    /// Units whose bins were reused.
    pub reused: Vec<Symbol>,
    /// Units whose recompile verdict was satisfied by the shared
    /// artifact store (rehydrated, not compiled).
    pub store_hits: Vec<Symbol>,
    /// Why each unit was recompiled or reused, in build order — the
    /// causal chain behind `smlsc build --explain`.
    pub decisions: Vec<(Symbol, RebuildDecision)>,
    /// Aggregate compile-phase timings.
    pub timings: CompileTimings,
    /// Time spent rehydrating cached statenvs.
    pub rehydrate: Duration,
    /// Elaboration warnings, per unit.
    pub warnings: Vec<(Symbol, String)>,
    /// Per-unit outcome in build order — including, under
    /// [`FailurePolicy::KeepGoing`], failed and skipped units.
    pub outcomes: Vec<(Symbol, UnitOutcome)>,
    /// Units whose compile failed, with the error.  Populated only by
    /// keep-going builds; fail-fast builds return the error instead.
    pub failed: Vec<(Symbol, CoreError)>,
    /// Units never attempted because a transitive import failed
    /// (keep-going builds).
    pub skipped: Vec<Symbol>,
}

impl BuildReport {
    /// Convenience: did `name` get recompiled?
    pub fn was_recompiled(&self, name: &str) -> bool {
        self.recompiled.contains(&Symbol::intern(name))
    }

    /// Convenience: was `name` served from the shared artifact store?
    pub fn was_store_hit(&self, name: &str) -> bool {
        self.store_hits.contains(&Symbol::intern(name))
    }

    /// The decision recorded for `name`, if it was in the build.
    pub fn decision_for(&self, name: &str) -> Option<&RebuildDecision> {
        let name = Symbol::intern(name);
        self.decisions
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d)
    }

    /// The decision kinds in build order (`name`, `kind`) — handy for
    /// asserting exact causal sequences in tests.
    pub fn decision_kinds(&self) -> Vec<(String, &'static str)> {
        self.decisions
            .iter()
            .map(|(n, d)| (n.as_str().to_string(), d.kind()))
            .collect()
    }

    /// Did every unit build?  `false` iff a keep-going build recorded
    /// any failure or skip.
    pub fn succeeded(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty()
    }

    /// The outcome recorded for `name`, if it was in the build.
    pub fn outcome_for(&self, name: &str) -> Option<&UnitOutcome> {
        let name = Symbol::intern(name);
        self.outcomes
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| o)
    }

    /// True when any recorded failure is an internal (compiler-bug)
    /// error — the CLI maps these to a distinct exit code.
    pub fn any_internal_failure(&self) -> bool {
        self.failed.iter().any(|(_, e)| e.is_internal())
    }
}

/// What [`Irm::load_bins`] found on disk.
#[derive(Debug, Default)]
pub struct BinLoadOutcome {
    /// Bins loaded successfully.
    pub loaded: usize,
    /// Per-file failures (corrupt or unreadable), skipped so the rest
    /// of the cache still loads; the affected units recompile.
    pub corrupt: Vec<(PathBuf, CoreError)>,
}

/// A cached bin: decision metadata always resident, the body either in
/// memory or a lazily forced, digest-verified slice of `bins.pack`.
/// Rebuild decisions need only [`BinMeta`], so a warm build touches no
/// bodies at all.
#[derive(Debug)]
struct BinEntry {
    meta: BinMeta,
    body: BinBody,
}

#[derive(Debug)]
enum BinBody {
    /// The full bin is in memory (fresh compile, store hit, injected
    /// by a test).
    Resident(BinFile),
    /// The body lives in `bins.pack`; forced (read + digest-verified +
    /// parsed) at most once, on first real use.
    Lazy {
        src: LazyBody,
        cell: OnceLock<Result<BinFile, CoreError>>,
    },
}

#[derive(Debug, Clone)]
struct LazyBody {
    pack: Arc<PackReader>,
    offset: u64,
    len: u64,
    digest: Pid,
}

impl BinEntry {
    fn resident(bin: BinFile) -> BinEntry {
        BinEntry {
            meta: bin.meta(),
            body: BinBody::Resident(bin),
        }
    }

    /// The full bin, forcing a lazy body.  The result (success or
    /// corruption) is cached: a torn body fails identically every time
    /// until the unit is quarantined.
    fn force(&self) -> Result<&BinFile, CoreError> {
        match &self.body {
            BinBody::Resident(bin) => Ok(bin),
            BinBody::Lazy { src, cell } => {
                let unit = self.meta.name;
                cell.get_or_init(|| {
                    trace::counter(names::BIN_LAZY_BODIES, 1);
                    let bytes = src
                        .pack
                        .read_body(src.offset, src.len, src.digest)
                        .map_err(|detail| CoreError::BinBodyCorrupt { unit, detail })?;
                    BinFile::from_bytes(&bytes).map_err(|e| CoreError::BinBodyCorrupt {
                        unit,
                        detail: e.to_string(),
                    })
                })
                .as_ref()
                .map_err(|e| e.clone())
            }
        }
    }

    /// The full bin if it is already in memory — never forces.
    fn forced(&self) -> Option<&BinFile> {
        match &self.body {
            BinBody::Resident(bin) => Some(bin),
            BinBody::Lazy { cell, .. } => cell.get().and_then(|r| r.as_ref().ok()),
        }
    }
}

/// The manager.
#[derive(Debug, Default)]
pub struct Irm {
    strategy: Option<Strategy>,
    bins: HashMap<Symbol, BinEntry>,
    /// Dependency-analysis cache keyed by unit, valid while the source
    /// digest (or failing that, the token digest) matches.  `Arc` so a
    /// cache hit shares the analysis instead of cloning its vectors.
    deps_cache: HashMap<Symbol, Arc<CachedAnalysis>>,
    /// The persistent `(path, mtime_ns, size) → analysis` stamp cache,
    /// loaded from and saved to the pack's stamp sections.
    stamps: StampCache,
    /// When set, every stamp- and token-level shortcut is bypassed:
    /// all sources are read and fully re-digested.
    paranoid: bool,
    /// The shared artifact store, if attached.
    store: Option<Arc<Store>>,
    /// Units whose in-memory bin differs (or may differ) from what
    /// `save_bins` last persisted; everything else skips its write.
    dirty: HashSet<Symbol>,
    /// The pack the current `bins` map was loaded from or last saved
    /// to, and where in it the next append may go.
    pack: Option<(PathBuf, PackTail)>,
    /// True while that pack holds exactly the bins outside `dirty`, so
    /// a save need only append the dirty ones — or, with none, skip.
    pack_synced: bool,
    /// The resolved import DAG from the previous build or the pack's
    /// graph section.  Never trusted blindly: every build revalidates
    /// it against the analyses (per-unit `names_pid`) before reuse, so
    /// a stale graph costs a re-derivation, never a wrong schedule.
    graph: Option<Arc<DepGraph>>,
    /// True while the pack holds `graph`, so a save need not write a
    /// graph section.
    graph_synced: bool,
}

/// The per-file analysis record — digests plus import/export lists.
/// This is [`crate::stamps::Analysis`] so a stamp hit shares the stamp
/// cache's `Arc` directly instead of cloning the vectors per build.
type CachedAnalysis = crate::stamps::Analysis;

/// How one file's analysis was obtained (drives which counters bump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnalysisHit {
    /// Stamp cache: the file was never even opened.
    Stamp,
    /// Deps cache via the source digest (file read + digested, same
    /// bytes as last time).
    SourcePid,
    /// Deps cache via the token digest (comment/whitespace-only edit).
    TokenPid,
    /// Fully analyzed (parsed) this build.
    Fresh,
}

/// One file's analysis plus how it was obtained; produced (possibly on
/// a worker thread) by [`analyze_one`], merged deterministically by
/// [`Irm::analyze_all`].
#[derive(Debug)]
struct FileAnalysis {
    analysis: Arc<CachedAnalysis>,
    hit: AnalysisHit,
}

/// The per-file analysis ladder.  Shares `deps_cache` and `stamps`
/// immutably so it can run on worker threads; all mutation happens in
/// the caller's merge loop.
fn analyze_one(
    f: &SourceFile,
    deps_cache: &HashMap<Symbol, Arc<CachedAnalysis>>,
    stamps: &StampCache,
    paranoid: bool,
) -> Result<FileAnalysis, CoreError> {
    // Rung 1: the stamp cache.  Path-backed files whose (unit, mtime,
    // size) stamp matches reuse the recorded analysis without a read.
    if !paranoid {
        if let Some(path) = f.path() {
            if let Some(e) = stamps.lookup(&stamp_key(path), f.name, f.mtime, f.size()) {
                // The stamp cache shares its analysis by Arc: a hit is
                // a refcount bump, never a clone of the vectors.
                return Ok(FileAnalysis {
                    analysis: Arc::clone(&e.analysis),
                    hit: AnalysisHit::Stamp,
                });
            }
        }
    }
    let text = f.read_text()?;
    let sp = source_pid(text);
    // Rung 2: the deps cache, by source digest.
    if let Some(c) = deps_cache.get(&f.name) {
        if c.source_pid == sp {
            return Ok(FileAnalysis {
                analysis: Arc::clone(c),
                hit: AnalysisHit::SourcePid,
            });
        }
        // Rung 3: by token digest — a comment or whitespace edit keeps
        // the token stream (hence imports/exports) identical.
        if !paranoid {
            if let Some(dp) = smlsc_syntax::deps::token_pid(text) {
                if c.deps_pid == dp {
                    return Ok(FileAnalysis {
                        analysis: Arc::new(CachedAnalysis {
                            source_pid: sp,
                            ..CachedAnalysis::clone(c)
                        }),
                        hit: AnalysisHit::TokenPid,
                    });
                }
            }
        }
    }
    // Rung 4: a real parse, and the one place the names pid (the
    // import graph's key) is computed.
    let _span = trace::span(names::SPAN_ANALYZE).field("unit", f.name.as_str());
    let a = analyze_source(f.name, text)?;
    let dp = smlsc_syntax::deps::token_pid(text).unwrap_or(sp);
    Ok(FileAnalysis {
        analysis: Arc::new(CachedAnalysis::new(sp, dp, a.imports, a.exports)),
        hit: AnalysisHit::Fresh,
    })
}

impl Irm {
    /// A manager with the given strategy.
    pub fn new(strategy: Strategy) -> Irm {
        Irm {
            strategy: Some(strategy),
            ..Irm::default()
        }
    }

    /// A manager with the given strategy and a shared artifact store.
    pub fn with_store(strategy: Strategy, store: Arc<Store>) -> Irm {
        Irm {
            strategy: Some(strategy),
            store: Some(store),
            ..Irm::default()
        }
    }

    /// Attaches a shared artifact store; subsequent builds probe it on
    /// every recompile verdict and publish every fresh compile back.
    pub fn set_store(&mut self, store: Arc<Store>) {
        self.store = Some(store);
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The active strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy.unwrap_or(Strategy::Cutoff)
    }

    /// The cached bin for a unit, if any — forces a lazily archived
    /// body.  A corrupt body reads as "no bin" here; builds surface the
    /// corruption properly and quarantine the unit.
    pub fn bin(&self, name: &str) -> Option<&BinFile> {
        self.bins
            .get(&Symbol::intern(name))
            .and_then(|e| e.force().ok())
    }

    /// The cached bin *metadata* for a unit, if any — never touches a
    /// pickle body.
    pub fn bin_meta(&self, name: &str) -> Option<&BinMeta> {
        self.bins.get(&Symbol::intern(name)).map(|e| &e.meta)
    }

    /// Number of cached bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Overwrites a cached bin — used by tests and the linkage experiment
    /// to simulate stale or corrupted bin stores.
    pub fn inject_bin(&mut self, bin: BinFile) {
        self.dirty.insert(bin.unit.name);
        self.bins.insert(bin.unit.name, BinEntry::resident(bin));
    }

    /// Enables or disables paranoid mode: when on, the stamp cache and
    /// token-level analysis reuse are bypassed and every source is read
    /// and fully re-digested.  Decisions must come out identical either
    /// way — a property test holds the manager to that.
    pub fn set_paranoid(&mut self, paranoid: bool) {
        self.paranoid = paranoid;
    }

    /// True when paranoid mode is on.
    pub fn paranoid(&self) -> bool {
        self.paranoid
    }

    /// Does nothing: the stamp cache loads with the pack
    /// ([`Irm::load_bins`]).  Kept as an entry point for the benchmark
    /// harness, which times it as a layer of its own.
    pub fn load_stamps(&mut self, _path: &Path) {}

    /// Does nothing and never writes `path`: the stamp cache saves with
    /// the pack ([`Irm::save_bins`]).  Kept as an entry point for the
    /// benchmark harness, which times it as a layer of its own.
    ///
    /// # Errors
    ///
    /// Never.
    pub fn save_stamps(&mut self, _path: &Path) -> Result<(), CoreError> {
        Ok(())
    }

    /// Drops a unit whose archived body turned out to be corrupt, so
    /// the next build recompiles it (alone).  Returns true if the unit
    /// was cached.
    pub fn quarantine_bin(&mut self, name: Symbol) -> bool {
        let had = self.bins.remove(&name).is_some();
        if had {
            trace::counter(names::BIN_BODY_QUARANTINED, 1);
            trace::event("irm.bin_body_quarantined").field("unit", name.as_str());
            self.dirty.remove(&name);
            self.pack_synced = false;
        }
        had
    }

    /// Persists the build state under `dir` in the indexed archive,
    /// `bins.pack`: every bin, the stamp cache and the import graph.
    ///
    /// When only new or changed bins, stamps or graph need saving, the
    /// pack is the one this manager loaded or last wrote, and they fit
    /// the pack's growth bound, they are appended as one segment: the
    /// save writes just their bodies, the stamp records recorded since
    /// the last save and, if it was re-derived, the graph.  Otherwise
    /// (cold build, a removed unit, another writer's pack, a large
    /// change) the archive is rewritten in full, staged to a temp file
    /// and `rename(2)`d into place; bodies that are still lazy (never
    /// forced this session) are copied byte-for-byte from the old
    /// archive, verified but not parsed.  Either way one lock and one
    /// atomic write cover bins, stamps and graph, a crash mid-save never
    /// tears the archive, and when nothing changed since the pack was
    /// loaded the save is a no-op.
    ///
    /// # Errors
    ///
    /// [`CoreError::Io`]/[`CoreError::BinIo`] on filesystem failures.
    pub fn save_bins(&mut self, dir: &Path) -> Result<(), CoreError> {
        let _span = trace::span("irm.save_bins").field("bins", self.bins.len());
        let pack_path = dir.join(PACK_FILE);
        let mut tail = match &self.pack {
            Some((path, tail)) if self.pack_synced && *path == pack_path => Some(tail),
            _ => None,
        };
        if self.stamps.is_saved() {
            trace::counter(names::STAMP_SAVES_SKIPPED, 1);
        }
        let changed_graph = match &self.graph {
            Some(g) if !self.graph_synced => Some(g.encode()),
            _ => None,
        };
        if self.dirty.is_empty()
            && self.stamps.is_saved()
            && changed_graph.is_none()
            && tail.is_some()
            && pack_path.is_file()
        {
            return Ok(());
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        // Serialize the dirty bins while they, the changed stamps and
        // the changed graph still fit one appended segment; past the
        // bound the save is a full rewrite.
        let mut fresh: Vec<(&BinMeta, Vec<u8>)> = Vec::new();
        if let Some(t) = tail {
            let mut dirty: Vec<Symbol> = self.dirty.iter().copied().collect();
            dirty.sort_by_key(|n| n.as_str());
            let stamps = self.stamps.encode_section(false, 0);
            let mut need: u64 = [&stamps, &changed_graph]
                .into_iter()
                .flatten()
                .map(|b| pack::section_len(b.len()))
                .sum();
            if !t.fits(need) {
                tail = None;
            }
            for name in dirty.into_iter().take_while(|_| tail.is_some()) {
                let Some(entry) = self.bins.get(&name) else {
                    continue;
                };
                let Some(bin) = entry.forced() else {
                    tail = None;
                    break;
                };
                let bytes = bin.to_bytes();
                need += pack::entry_len_bound(&entry.meta, bytes.len());
                if !t.fits(need) {
                    tail = None;
                    break;
                }
                fresh.push((&entry.meta, bytes));
            }
        }
        let mut writer = PackWriter::open(&pack_path, tail)?;
        let appends = writer.appends();
        // An append carries what changed; a rewrite carries everything.
        let stamps = self.stamps.encode_section(!appends, writer.saved_at());
        let graph = match changed_graph {
            None if !appends => self.graph.as_ref().map(|g| g.encode()),
            changed => changed,
        };
        let mut quarantined: Vec<Symbol> = Vec::new();
        if appends {
            for (meta, bytes) in &fresh {
                put_body(&mut writer, meta, bytes, Pid::of_bytes(bytes), &pack_path)?;
            }
        } else {
            let mut names_sorted: Vec<Symbol> = self.bins.keys().copied().collect();
            names_sorted.sort_by_cached_key(|n| n.as_str());
            for name in &names_sorted {
                let entry = &self.bins[name];
                // Materialize the body bytes: resident/forced bins
                // serialize; still-lazy bodies copy raw from the old
                // pack under the digest `read_body` just verified.
                let (bytes, digest) = match (&entry.body, entry.forced()) {
                    (_, Some(bin)) => {
                        let bytes = bin.to_bytes();
                        let digest = Pid::of_bytes(&bytes);
                        (bytes, digest)
                    }
                    (BinBody::Lazy { src, .. }, None) => {
                        match src.pack.read_body(src.offset, src.len, src.digest) {
                            Ok(b) => (b, src.digest),
                            Err(detail) => {
                                // The old archive's body is bad (torn,
                                // digest mismatch, or a forced failure):
                                // quarantine this unit, keep the rest.
                                trace::event("irm.bin_body_quarantined")
                                    .field("unit", name.as_str())
                                    .field("error", detail);
                                quarantined.push(*name);
                                continue;
                            }
                        }
                    }
                    (BinBody::Resident(_), None) => {
                        unreachable!("resident bodies are always forced")
                    }
                };
                put_body(&mut writer, &entry.meta, &bytes, digest, &pack_path)?;
            }
        }
        let tail = writer.finish_with(stamps.as_deref(), graph.as_deref())?;
        for unit in quarantined {
            self.bins.remove(&unit);
            trace::counter(names::BIN_BODY_QUARANTINED, 1);
        }
        self.dirty.clear();
        self.stamps.mark_saved();
        self.graph_synced = self.graph.is_some();
        self.pack = Some((pack_path, tail));
        self.pack_synced = true;
        Ok(())
    }

    /// Loads the bin cache under `dir`: the indexed `bins.pack` archive
    /// if present, reading *only* its footer index and sections — bodies
    /// stay on disk until first use.  The stamp cache and the import
    /// graph are replaced by the pack's sections; a missing or wholly
    /// corrupt pack leaves them as they were (empty in a new manager).
    ///
    /// A corrupt individual entry — or a corrupt archive, including one
    /// in a format this build does not write — does not poison the
    /// load: it is reported in [`BinLoadOutcome::corrupt`], skipped,
    /// and the affected units simply recompile (the next save
    /// overwrites the archive).  In paranoid mode every archived body
    /// is read and digest-verified eagerly.
    ///
    /// # Errors
    ///
    /// Never: every failure is per-archive or per-unit and is reported
    /// in [`BinLoadOutcome::corrupt`].
    pub fn load_bins(&mut self, dir: &Path) -> Result<BinLoadOutcome, CoreError> {
        let _span = trace::span(names::SPAN_LOAD_BINS);
        let mut out = BinLoadOutcome::default();
        let pack_path = dir.join(PACK_FILE);
        let mut tail = None;
        let mut pack_entries = 0usize;
        if pack_path.is_file() {
            match PackReader::open(&pack_path) {
                Ok(Some(mut reader)) => {
                    if reader.torn_tail() > 0 {
                        // An interrupted append: its valid prefix loads,
                        // and the next append cuts the tail off.
                        trace::event("irm.pack_torn_tail")
                            .field("path", pack_path.display())
                            .field("bytes", reader.torn_tail());
                    }
                    tail = Some(reader.tail().clone());
                    let (stamps, graph) = reader.take_state();
                    self.stamps = stamps;
                    self.graph_synced = graph.is_some();
                    self.graph = graph.map(Arc::new);
                    let reader = Arc::new(reader);
                    pack_entries = reader.entries().len();
                    for pe in reader.entries() {
                        let unit = pe.name;
                        let fault = if faults::active() {
                            faults::check(points::BIN_LOAD, unit.as_str())
                        } else {
                            None
                        };
                        if let Some(FaultKind::Io | FaultKind::Torn) = fault {
                            let e = bin_io(
                                unit,
                                &pack_path,
                                faults::io_error(points::BIN_LOAD, unit.as_str()),
                            );
                            trace::counter(names::BIN_CORRUPT, 1);
                            trace::event("irm.bin_corrupt")
                                .field("path", pack_path.display())
                                .field("error", &e);
                            out.corrupt.push((pack_path.clone(), e));
                            continue;
                        }
                        let src = LazyBody {
                            pack: Arc::clone(&reader),
                            offset: pe.offset,
                            len: pe.len,
                            digest: pe.digest,
                        };
                        if self.paranoid {
                            // Paranoid mode trusts nothing it has not
                            // verified: read every body now.
                            if let Err(detail) = reader.read_body(src.offset, src.len, src.digest) {
                                let e = CoreError::BinBodyCorrupt { unit, detail };
                                trace::counter(names::BIN_CORRUPT, 1);
                                trace::event("irm.bin_corrupt")
                                    .field("path", pack_path.display())
                                    .field("error", &e);
                                out.corrupt.push((pack_path.clone(), e));
                                continue;
                            }
                        } else {
                            trace::counter(names::BIN_INDEX_ONLY, 1);
                        }
                        self.dirty.remove(&unit);
                        self.bins.insert(
                            unit,
                            BinEntry {
                                meta: pe.meta(),
                                body: BinBody::Lazy {
                                    src,
                                    cell: OnceLock::new(),
                                },
                            },
                        );
                        out.loaded += 1;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    // Whole-archive corruption (bad magic or footer, torn
                    // index): every archived unit recompiles.
                    trace::counter(names::BIN_CORRUPT, 1);
                    trace::event("irm.bin_corrupt")
                        .field("path", pack_path.display())
                        .field("error", &e);
                    out.corrupt.push((pack_path.clone(), e));
                }
            }
        }
        self.pack_synced =
            tail.is_some() && out.corrupt.is_empty() && self.bins.len() == pack_entries;
        self.pack = tail.map(|t| (pack_path, t));
        Ok(out)
    }

    /// Analyzes dependencies and returns the topological build order.
    ///
    /// # Errors
    ///
    /// Parse errors, unresolved or duplicate exports, or an import cycle.
    pub fn plan(&mut self, project: &Project) -> Result<Vec<Symbol>, CoreError> {
        let analyses = self.analyze_all(project, 1)?;
        let graph = self.dep_graph(project, &analyses)?;
        Ok(graph.order().to_vec())
    }

    /// The resolved import DAG in topological order: for every unit,
    /// the deduplicated units it imports — exactly the edges the
    /// wavefront scheduler dispatches over, so a critical path computed
    /// from this graph matches the `irm.critical_path` counter.  Served
    /// from the same caches as [`Irm::plan`], so calling it after a
    /// build re-reads no sources.
    ///
    /// # Errors
    ///
    /// Parse errors, unresolved or duplicate exports, or an import cycle.
    pub fn import_graph(
        &mut self,
        project: &Project,
    ) -> Result<Vec<(Symbol, Vec<Symbol>)>, CoreError> {
        let analyses = self.analyze_all(project, 1)?;
        let graph = self.dep_graph(project, &analyses)?;
        Ok((0..graph.len())
            .map(|i| (graph.order()[i], graph.import_units(i).to_vec()))
            .collect())
    }

    /// The resolved import DAG for this build.  Reused from the
    /// previous build or the pack's graph section whenever the unit set
    /// is the same and every unit's `names_pid` still matches its
    /// analysis — the graph reads nothing but the import and export
    /// names, so equal digests imply the identical graph *and* the
    /// identical topological order.  A body edit therefore hits;
    /// anything else (first build, a changed import or export name, an
    /// added, removed or renamed unit, no graph section) re-derives from
    /// the analyses.
    fn dep_graph(
        &mut self,
        project: &Project,
        analyses: &HashMap<Symbol, Arc<CachedAnalysis>>,
    ) -> Result<Arc<DepGraph>, CoreError> {
        let _span = trace::span(names::SPAN_GRAPH).field("units", analyses.len());
        if let Some(g) = &self.graph {
            if graph_is_current(g, analyses) {
                trace::counter(names::DEPS_PACK_HITS, 1);
                return Ok(Arc::clone(g));
            }
        }
        trace::counter(names::DEPS_PACK_MISSES, 1);
        let exporters = exporters(analyses)?;
        let order = topo_order(project, analyses, &exporters)?;
        let index_of: HashMap<Symbol, usize> =
            order.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        let mut names_pids = Vec::with_capacity(order.len());
        let mut import_idx = Vec::with_capacity(order.len());
        for name in &order {
            let a = &analyses[name];
            names_pids.push(a.names_pid);
            let units: Vec<Symbol> = a
                .imports
                .iter()
                .map(|n| exporters[n])
                .collect::<Vec<_>>()
                .dedup_stable();
            import_idx.push(units.iter().map(|u| index_of[u]).collect());
        }
        let g = Arc::new(DepGraph::new(order, names_pids, import_idx));
        self.graph = Some(Arc::clone(&g));
        self.graph_synced = false;
        Ok(g)
    }

    /// The dirty cone: which topological slots this build must actually
    /// schedule.  One cheap pre-pass decides every unit against its
    /// *old* bins (no import treated as rebuilt); units that require a
    /// recompile on that evidence **seed** the cone, and the cone is
    /// the seed plus its transitive dependents.  A unit outside the
    /// cone has an unchanged source, identical import pids, and no
    /// rebuilt import, so its final decision is exactly
    /// [`RebuildDecision::Reused`] — the build synthesizes it without
    /// dispatching, making scheduler work proportional to the edit's
    /// cone rather than the project size.
    fn dirty_cone(
        &self,
        graph: &DepGraph,
        analyses: &HashMap<Symbol, Arc<CachedAnalysis>>,
        file_index: &HashMap<Symbol, &SourceFile>,
    ) -> Vec<bool> {
        let _span = trace::span(names::SPAN_DIRTY).field("units", graph.len());
        let strategy = self.strategy();
        let order = graph.order();
        let mut in_cone = vec![false; order.len()];
        let mut seed = 0u64;
        for (i, name) in order.iter().enumerate() {
            // A dirty import puts the unit in the cone regardless of
            // its own state; its real decision happens at dispatch.
            if graph.import_idx(i).iter().any(|&j| in_cone[j]) {
                in_cone[i] = true;
                continue;
            }
            let decision = decide_unit(
                strategy,
                file_index[name],
                analyses[name].source_pid,
                graph.import_units(i),
                self.bins.get(name).map(|e| &e.meta),
                &|u| {
                    self.bins.get(&u).map(|e| ImportFacts {
                        export_pid: e.meta.export_pid,
                        mtime: e.meta.mtime,
                        rebuilt: false,
                    })
                },
            );
            if decision.requires_recompile() {
                in_cone[i] = true;
                seed += 1;
            }
        }
        let cone = in_cone.iter().filter(|b| **b).count() as u64;
        if seed > 0 {
            trace::counter(names::SCHED_DIRTY_SEED, seed);
        }
        if cone > 0 {
            trace::counter(names::SCHED_DIRTY_CONE, cone);
        }
        in_cone
    }

    /// Analyzes every file, cheapest evidence first — stamp cache (no
    /// read at all), then source digest, then token digest (comment and
    /// whitespace edits keep the cached analysis), then a real parse.
    /// With `jobs > 1` the per-file work fans out over a worker pool;
    /// counters, stamp updates and the returned map merge in file order
    /// either way, so results and telemetry are deterministic.
    fn analyze_all(
        &mut self,
        project: &Project,
        jobs: usize,
    ) -> Result<HashMap<Symbol, Arc<CachedAnalysis>>, CoreError> {
        let _span = trace::span(names::SPAN_ANALYZE_ALL)
            .field("files", project.files().len())
            .field("jobs", jobs);
        let files = project.files();
        let results: Vec<Result<FileAnalysis, CoreError>> = {
            let deps_cache = &self.deps_cache;
            let stamps = &self.stamps;
            let paranoid = self.paranoid;
            if jobs <= 1 || files.len() < 2 {
                files
                    .iter()
                    .map(|f| analyze_one(f, deps_cache, stamps, paranoid))
                    .collect()
            } else {
                let next = AtomicUsize::new(0);
                let slots: Vec<OnceLock<Result<FileAnalysis, CoreError>>> =
                    files.iter().map(|_| OnceLock::new()).collect();
                std::thread::scope(|scope| {
                    for _ in 0..jobs.min(files.len()) {
                        let sink = trace::fork_current();
                        let plan = faults::fork_current();
                        let next = &next;
                        let slots = &slots;
                        scope.spawn(move || {
                            if let Some(sink) = sink {
                                trace::install(sink);
                            }
                            let _faults = plan.map(faults::install_forked);
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= files.len() {
                                    break;
                                }
                                let r = analyze_one(&files[i], deps_cache, stamps, paranoid);
                                let _ = slots[i].set(r);
                            }
                            trace::uninstall();
                        });
                    }
                });
                slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("every analysis slot is filled"))
                    .collect()
            }
        };
        // Deterministic merge in file order: counters, stamp records,
        // deps-cache updates, and the first error (if any) all follow
        // project order regardless of worker scheduling.  Capacity
        // hints up front: growing two 100k-entry maps through repeated
        // rehashes is real, cache-hostile work at monorepo scale.
        let mut out = HashMap::with_capacity(files.len());
        self.deps_cache
            .reserve(files.len().saturating_sub(self.deps_cache.len()));
        for (f, r) in files.iter().zip(results) {
            let fa = r?;
            let stamped = !self.paranoid && f.path().is_some();
            match fa.hit {
                AnalysisHit::Stamp => trace::counter(names::STAMP_HITS, 1),
                AnalysisHit::SourcePid | AnalysisHit::TokenPid => {
                    if stamped {
                        trace::counter(names::STAMP_MISSES, 1);
                    }
                    trace::counter(names::DEPS_CACHE_HITS, 1);
                }
                AnalysisHit::Fresh => {
                    if stamped {
                        trace::counter(names::STAMP_MISSES, 1);
                    }
                    trace::counter(names::DEPS_CACHE_MISSES, 1);
                }
            }
            // A stamp hit *is* the recorded entry (same unit, mtime,
            // size, and the analysis it produced); re-recording it would
            // only clone the import/export vectors per file per build.
            if fa.hit != AnalysisHit::Stamp {
                if let Some(path) = f.path() {
                    self.stamps.record(
                        stamp_key(path).into_owned(),
                        StampEntry {
                            unit: f.name,
                            mtime_ns: f.mtime,
                            size: f.size(),
                            analysis: Arc::clone(&fa.analysis),
                        },
                    );
                }
            }
            self.deps_cache.insert(f.name, Arc::clone(&fa.analysis));
            out.insert(f.name, fa.analysis);
        }
        Ok(out)
    }

    /// Builds the project: recompiles what the strategy requires, reuses
    /// the rest.  Single-threaded and fail-fast — exactly
    /// [`Irm::build_with`]`(project, 1, FailurePolicy::FailFast)`.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] from analysis or compilation.
    pub fn build(&mut self, project: &Project) -> Result<BuildReport, CoreError> {
        self.build_with(project, 1, FailurePolicy::FailFast)
    }

    /// Builds the project on up to `jobs` worker threads, dispatching a
    /// unit the moment all of its imports have settled (a *wavefront*
    /// over the analysis DAG).
    ///
    /// Decisions, export pids and the report are identical for any
    /// `jobs`: a unit's verdict depends only on its own old bin and the
    /// final state of its imports, both of which are fixed before the
    /// unit is dispatched.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] from analysis or compilation.  On error the bin
    /// store holds every unit topologically before the first
    /// (lowest-index) failing unit, and nothing at or after it.
    pub fn build_with_jobs(
        &mut self,
        project: &Project,
        jobs: usize,
    ) -> Result<BuildReport, CoreError> {
        self.build_with(project, jobs, FailurePolicy::FailFast)
    }

    /// The general build entry point: up to `jobs` workers under
    /// `policy`.  For any `jobs`, the report (decisions, outcomes,
    /// failed and skipped sets, export pids) is the same; `jobs <= 1`
    /// runs every task inline on the calling thread.
    ///
    /// # Errors
    ///
    /// Analysis errors (parse, unresolved import, cycle) always fail the
    /// build — there is no per-unit scope to confine them to.  Compile
    /// failures fail the build only under [`FailurePolicy::FailFast`];
    /// under [`FailurePolicy::KeepGoing`] they are recorded in
    /// [`BuildReport::failed`] and the build returns `Ok`.
    pub fn build_with(
        &mut self,
        project: &Project,
        jobs: usize,
        policy: FailurePolicy,
    ) -> Result<BuildReport, CoreError> {
        // Quarantine-and-retry: a lazily archived body that turns out
        // to be corrupt (torn write, bit rot) surfaces as
        // `BinBodyCorrupt` mid-build.  Drop just that unit's cache
        // entry and rebuild — it recompiles alone, and since its source
        // is unchanged its export pid comes out identical, so
        // dependents cut off.  Each retry removes at least one cached
        // entry, so the loop is bounded by the cache size.
        loop {
            match self.build_wavefront(project, jobs.max(1), policy) {
                Err(CoreError::BinBodyCorrupt { unit, .. }) => {
                    if !self.quarantine_bin(unit) {
                        return Err(CoreError::BinBodyCorrupt {
                            unit,
                            detail: "corrupt body persisted after quarantine".into(),
                        });
                    }
                }
                Ok(report)
                    if report
                        .failed
                        .iter()
                        .any(|(_, e)| matches!(e, CoreError::BinBodyCorrupt { .. })) =>
                {
                    // Keep-going: the corrupt bodies are per-unit
                    // failures in the report.  Quarantine them all and
                    // retry; bail out if nothing was actually cached.
                    let mut any = false;
                    for (u, e) in &report.failed {
                        if matches!(e, CoreError::BinBodyCorrupt { .. }) {
                            any |= self.quarantine_bin(*u);
                        }
                    }
                    if !any {
                        return Ok(report);
                    }
                }
                other => return other,
            }
        }
    }

    fn build_wavefront(
        &mut self,
        project: &Project,
        jobs: usize,
        policy: FailurePolicy,
    ) -> Result<BuildReport, CoreError> {
        let strategy = self.strategy();
        let analyses = self.analyze_all(project, jobs)?;
        let graph = self.dep_graph(project, &analyses)?;
        let order = graph.order();
        let n = order.len();
        let workers = jobs.min(n.max(1));
        let _build_span = trace::span(names::SPAN_BUILD)
            .field("strategy", strategy)
            .field("units", n)
            .field("jobs", workers);

        let file_index: HashMap<Symbol, &SourceFile> =
            project.files().iter().map(|f| (f.name, f)).collect();
        let in_cone = self.dirty_cone(&graph, &analyses, &file_index);

        if !in_cone.contains(&true) {
            // Nothing to schedule: the whole report is synthesized
            // reuses.  No workers, no channels, no per-unit slots.
            let mut report = BuildReport {
                strategy,
                order: order.to_vec(),
                ..BuildReport::default()
            };
            for name in order {
                synthesize_reused(&mut report, *name);
            }
            return Ok(report);
        }

        // The longest *scheduled* import chain bounds wall-clock time no
        // matter how many workers run; units outside the cone are
        // settled before the wavefront starts, so only cone edges count.
        let mut chain = vec![0usize; n];
        let mut critical_path = 0usize;
        let mut scheduled = 0usize;
        for i in 0..n {
            if !in_cone[i] {
                continue;
            }
            scheduled += 1;
            chain[i] = 1;
            for &d in graph.import_idx(i) {
                if in_cone[d] {
                    chain[i] = chain[i].max(chain[d] + 1);
                }
            }
            critical_path = critical_path.max(chain[i]);
        }
        trace::counter(names::CRITICAL_PATH, critical_path as u64);
        trace::event(names::BUILD_PARALLELISM)
            .field("critical_path", critical_path)
            .field("units", scheduled)
            .field("jobs", workers);

        let outcomes: Vec<OnceLock<Result<TaskOutcome, CoreError>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        {
            // Env slots exist for *every* unit, not just the cone: a
            // cone unit may rehydrate an out-of-cone import's exports.
            let envs: Vec<EnvSlot> = (0..n).map(|_| OnceLock::new()).collect();
            let shared = ParallelShared {
                strategy,
                graph: &graph,
                file_index: &file_index,
                analyses: &analyses,
                old_bins: &self.bins,
                store: self.store.as_deref(),
                envs: &envs,
                outcomes: &outcomes,
            };
            let mut wave = Wavefront::new(&graph, &in_cone, policy);
            let mut released: Vec<usize> = wave.roots().collect();

            if workers == 1 {
                // Inline: the calling thread runs every task itself,
                // lowest ready topological index first — the cone in
                // plain topological order.  A fail-fast error stops
                // dispatch on the spot: every remaining ready unit sits
                // after the failure, so none of them would merge.
                let mut ready: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
                loop {
                    ready.extend(released.drain(..).map(Reverse));
                    let Some(Reverse(i)) = ready.pop() else { break };
                    wave.complete(i, shared.run(i), &mut released);
                    if wave.min_err.is_some() {
                        break;
                    }
                }
            } else {
                let (task_tx, task_rx) = mpsc::channel::<usize>();
                let task_rx = Arc::new(Mutex::new(task_rx));
                let (done_tx, done_rx) = mpsc::channel::<(usize, bool)>();

                std::thread::scope(|scope| {
                    for w in 0..workers {
                        let task_rx = Arc::clone(&task_rx);
                        let done_tx = done_tx.clone();
                        let sink = trace::fork_current();
                        let plan = faults::fork_current();
                        let shared = &shared;
                        scope.spawn(move || {
                            if let Some(sink) = sink {
                                trace::install(sink);
                            }
                            let _faults = plan.map(faults::install_forked);
                            {
                                let _worker_span =
                                    trace::span(names::SPAN_WORKER).field("worker", w);
                                loop {
                                    let msg = {
                                        let rx = task_rx.lock().unwrap_or_else(|e| e.into_inner());
                                        rx.recv()
                                    };
                                    let Ok(i) = msg else { break };
                                    if done_tx.send((i, shared.run(i))).is_err() {
                                        break;
                                    }
                                }
                            }
                            trace::uninstall();
                        });
                    }
                    drop(done_tx);

                    // Coordinator: dispatch whatever the wavefront
                    // releases, as completions arrive.
                    let mut inflight = 0usize;
                    loop {
                        for d in released.drain(..) {
                            if task_tx.send(d).is_ok() {
                                inflight += 1;
                            }
                        }
                        if inflight == 0 {
                            break;
                        }
                        let Ok((i, ok)) = done_rx.recv() else {
                            break; // a worker died; scope propagates its panic
                        };
                        inflight -= 1;
                        wave.complete(i, ok, &mut released);
                    }
                    drop(task_tx); // hang up; workers drain and exit
                });
            }
        }

        // Merge in topological order — the report is deterministic no
        // matter which worker finished when.
        let mut report = BuildReport {
            strategy,
            order: order.to_vec(),
            ..BuildReport::default()
        };
        match policy {
            FailurePolicy::FailFast => {
                let mut failure: Option<CoreError> = None;
                // The lowest failing topo index: everything before it
                // merges, it reports, nothing after it counts.
                let limit = outcomes
                    .iter()
                    .position(|slot| matches!(slot.get(), Some(Err(_))))
                    .unwrap_or(n);
                for (i, slot) in outcomes.into_iter().enumerate() {
                    if !in_cone[i] {
                        if i < limit {
                            synthesize_reused(&mut report, order[i]);
                        }
                        continue;
                    }
                    let Some(res) = slot.into_inner() else {
                        continue; // gated off by an earlier failure
                    };
                    match res {
                        Ok(out) => {
                            if i >= limit {
                                continue; // completed past the error point
                            }
                            self.merge_outcome(order[i], out, &mut report);
                        }
                        Err(e) => {
                            if i == limit && failure.is_none() {
                                failure = Some(e);
                            }
                        }
                    }
                }
                match failure {
                    Some(e) => Err(e),
                    None => Ok(report),
                }
            }
            FailurePolicy::KeepGoing => {
                // Failed units have `Err` slots; poisoned units were
                // never dispatched and have *empty* slots.  Walking in
                // topological order, a skipped unit's blockers (direct
                // imports in the failed-or-skipped set) have always
                // been classified already.
                let mut failed_or_skipped: HashSet<Symbol> = HashSet::new();
                for (i, slot) in outcomes.into_iter().enumerate() {
                    let name = order[i];
                    if !in_cone[i] {
                        // Never dispatched *and* never poisoned: the
                        // cone is dependent-closed, so a failure can
                        // only block units inside it.
                        synthesize_reused(&mut report, name);
                        continue;
                    }
                    match slot.into_inner() {
                        Some(Ok(out)) => self.merge_outcome(name, out, &mut report),
                        Some(Err(e)) => {
                            record_failure(&mut report, name, e);
                            failed_or_skipped.insert(name);
                        }
                        None => {
                            let blocked_on: Vec<Symbol> = graph
                                .import_units(i)
                                .iter()
                                .copied()
                                .filter(|u| failed_or_skipped.contains(u))
                                .collect();
                            record_skip(&mut report, name, blocked_on);
                            failed_or_skipped.insert(name);
                        }
                    }
                }
                Ok(report)
            }
        }
    }

    /// Merges one completed wavefront task into the bin store and the
    /// report; always called in topological order.
    fn merge_outcome(&mut self, name: Symbol, out: TaskOutcome, report: &mut BuildReport) {
        let TaskOutcome {
            decision,
            new_bin,
            from_store,
            timings,
            warnings,
            rehydrate,
        } = out;
        report.decisions.push((name, decision));
        match new_bin {
            Some(bin) => {
                self.bins.insert(name, BinEntry::resident(bin));
                self.dirty.insert(name);
                if from_store {
                    report.store_hits.push(name);
                    report.outcomes.push((name, UnitOutcome::StoreHit));
                } else {
                    report.recompiled.push(name);
                    report.outcomes.push((name, UnitOutcome::Compiled));
                }
            }
            None => {
                report.reused.push(name);
                report.outcomes.push((name, UnitOutcome::Reused));
            }
        }
        report.timings.accumulate(&timings);
        report
            .warnings
            .extend(warnings.into_iter().map(|w| (name, w)));
        report.rehydrate += rehydrate;
    }

    /// Builds and then links & executes the whole project in topological
    /// order, returning the populated dynamic environment.
    ///
    /// # Errors
    ///
    /// Build errors, or a [`LinkError`](crate::link::LinkError) wrapped in
    /// [`CoreError::Link`].
    pub fn execute(&mut self, project: &Project) -> Result<(BuildReport, DynEnv), CoreError> {
        self.execute_with_jobs(project, 1)
    }

    /// [`Irm::execute`] with the build phase on `jobs` workers (linking
    /// and execution stay sequential — they are effectful and ordered).
    ///
    /// # Errors
    ///
    /// Same as [`Irm::execute`].
    pub fn execute_with_jobs(
        &mut self,
        project: &Project,
        jobs: usize,
    ) -> Result<(BuildReport, DynEnv), CoreError> {
        // Linking forces every body.  A corrupt archived body found
        // here quarantines the unit and rebuilds (it recompiles alone,
        // pids unchanged), then linking restarts.  Bounded: each retry
        // removes one cached entry.
        loop {
            let report = self.build_with_jobs(project, jobs)?;
            let mut env = DynEnv::new();
            let mut bad_unit = None;
            for name in &report.order {
                let entry = self.bins.get(name).ok_or(CoreError::UnknownUnit(*name))?;
                match entry.force() {
                    Ok(bin) => {
                        link_and_execute(&bin.unit, &mut env).map_err(CoreError::Link)?;
                    }
                    Err(CoreError::BinBodyCorrupt { unit, detail }) => {
                        bad_unit = Some((unit, detail));
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            let Some((unit, detail)) = bad_unit else {
                return Ok((report, env));
            };
            if !self.quarantine_bin(unit) {
                return Err(CoreError::BinBodyCorrupt { unit, detail });
            }
        }
    }
}

/// What a strategy may consult about one import: the import's *current*
/// bin state as of the dependent's decision point.  Imports settle
/// before their dependents are dispatched, so these facts are final —
/// which is exactly why cutoff decisions are order-independent and
/// builds are deterministic at every width.
#[derive(Debug, Clone, Copy)]
struct ImportFacts {
    export_pid: Pid,
    mtime: u64,
    rebuilt: bool,
}

/// Applies `strategy` to one unit and returns the causal verdict.
///
/// Checks are ordered most-direct-cause-first, so the recorded decision
/// names the *proximate* reason: own source before imports, import
/// identity before import pids, pid change before cutoff.
///
/// The only inputs are the unit's old bin and the per-import facts
/// closure, so any dispatch order decides identically by construction.
fn decide_unit(
    strategy: Strategy,
    file: &SourceFile,
    sp: Pid,
    import_units: &[Symbol],
    own_bin: Option<&BinMeta>,
    facts: &dyn Fn(Symbol) -> Option<ImportFacts>,
) -> RebuildDecision {
    let Some(bin) = own_bin else {
        return RebuildDecision::NewUnit;
    };
    let rebuilt = |u: &Symbol| facts(*u).is_some_and(|f| f.rebuilt);
    match strategy {
        Strategy::Cutoff => {
            if bin.source_pid != sp {
                return RebuildDecision::SourceChanged {
                    old: bin.source_pid.to_string(),
                    new: sp.to_string(),
                };
            }
            // Import identity drift: an export moved to a different
            // unit without this source changing.  The slot's pid
            // necessarily refers to something else now.  (Checked
            // without allocating — this runs once per unit per build.)
            if bin.imports.len() != import_units.len()
                || bin
                    .imports
                    .iter()
                    .zip(import_units)
                    .any(|(e, u)| e.unit != *u)
            {
                let n = bin.imports.len().max(import_units.len());
                for i in 0..n {
                    let old = bin.imports.get(i).map(|e| e.unit);
                    let new = import_units.get(i).copied();
                    if old != new {
                        let import = new.or(old).expect("one side exists");
                        return RebuildDecision::ImportPidChanged {
                            import: import.as_str().to_string(),
                            old: bin
                                .imports
                                .get(i)
                                .map_or_else(|| "none".to_string(), |e| e.pid.to_string()),
                            new: new
                                .and_then(facts)
                                .map_or_else(|| "none".to_string(), |f| f.export_pid.to_string()),
                        };
                    }
                }
            }
            for (e, u) in bin.imports.iter().zip(import_units) {
                let current = facts(*u).map(|f| f.export_pid);
                if Some(e.pid) != current {
                    return RebuildDecision::ImportPidChanged {
                        import: u.as_str().to_string(),
                        old: e.pid.to_string(),
                        new: current.map_or_else(|| "none".to_string(), |p| p.to_string()),
                    };
                }
            }
            // All pids line up.  If an import *was* recompiled this
            // build, that is precisely the paper's cutoff.
            if let Some(u) = import_units.iter().find(|u| rebuilt(u)) {
                return RebuildDecision::CutOff {
                    import: u.as_str().to_string(),
                    export_pid: facts(*u)
                        .map_or_else(|| "none".to_string(), |f| f.export_pid.to_string()),
                };
            }
            RebuildDecision::Reused
        }
        Strategy::Timestamp => {
            // `make` semantics: compare stamps only.  Old/new in the
            // decision are mtimes, not pids.
            if bin.mtime < file.mtime {
                return RebuildDecision::SourceChanged {
                    old: bin.mtime.to_string(),
                    new: file.mtime.to_string(),
                };
            }
            if let Some(u) = import_units
                .iter()
                .find(|u| facts(**u).is_none_or(|f| bin.mtime < f.mtime))
            {
                return RebuildDecision::DependencyRebuilt {
                    import: u.as_str().to_string(),
                };
            }
            RebuildDecision::Reused
        }
        Strategy::Classical => {
            if bin.source_pid != sp {
                return RebuildDecision::SourceChanged {
                    old: bin.source_pid.to_string(),
                    new: sp.to_string(),
                };
            }
            if let Some(u) = import_units.iter().find(|u| rebuilt(u)) {
                return RebuildDecision::DependencyRebuilt {
                    import: u.as_str().to_string(),
                };
            }
            RebuildDecision::Reused
        }
    }
}

/// Semantic validation of a fetched store object: the digest already
/// matched (the store checked it), but the cache key does not encode
/// the unit *name*, so identical source under a different file stem
/// hits the same slot.  The object is only usable if it is literally
/// the unit we are about to compile — same name, same source pid, and
/// the same import edges slot for slot.
fn store_bin_matches(
    bin: &BinFile,
    name: Symbol,
    sp: Pid,
    import_units: &[Symbol],
    export_pid_of: &dyn Fn(Symbol) -> Option<Pid>,
) -> bool {
    bin.unit.name == name
        && bin.unit.source_pid == sp
        && bin.unit.imports.len() == import_units.len()
        && bin
            .unit
            .imports
            .iter()
            .zip(import_units)
            .all(|(edge, &u)| edge.unit == u && export_pid_of(u) == Some(edge.pid))
}

/// The scheduling state of one build: in-degrees over the dirty cone,
/// released as tasks complete.  The coordinator drives it the same way
/// at every width — inline at `jobs == 1`, from worker completions
/// otherwise.
///
/// An out-of-cone unit is never released (its slot stays empty and
/// the merge phase synthesizes its reuse).  The cone is
/// dependent-closed, so a non-cone unit never has a cone import and
/// needs no in-degree.
struct Wavefront {
    policy: FailurePolicy,
    indegree: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    /// Keep-going: units downstream of a failure.
    blocked: Vec<bool>,
    /// Fail-fast: the lowest failing topological index so far.
    min_err: Option<usize>,
}

impl Wavefront {
    fn new(graph: &DepGraph, in_cone: &[bool], policy: FailurePolicy) -> Self {
        let n = in_cone.len();
        let mut indegree = vec![usize::MAX; n]; // never reaches zero
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in (0..n).filter(|&i| in_cone[i]) {
            indegree[i] = 0;
            for &d in graph.import_idx(i).iter().filter(|&&d| in_cone[d]) {
                indegree[i] += 1;
                dependents[d].push(i);
            }
        }
        Wavefront {
            policy,
            indegree,
            dependents,
            blocked: vec![false; n],
            min_err: None,
        }
    }

    /// The units ready before anything has run.
    fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.indegree.len()).filter(|&i| self.indegree[i] == 0)
    }

    /// Records task `i` as finished (`ok` = it produced an outcome) and
    /// pushes the units it makes ready onto `released`.
    ///
    /// Fail-fast: after the first error, only units topologically
    /// *before* the lowest failing index are still released — the only
    /// ones whose outcomes can merge.
    ///
    /// Keep-going: a failure *poisons* its dependents.  Poisoned units
    /// are never released; they complete synthetically right here
    /// (poisoning their own dependents in turn) so in-degrees keep
    /// draining and every independent unit still runs.  Their outcome
    /// slots stay empty — the merge phase reads an empty slot as
    /// "skipped".
    fn complete(&mut self, i: usize, ok: bool, released: &mut Vec<usize>) {
        match self.policy {
            FailurePolicy::FailFast => {
                if !ok {
                    self.min_err = Some(self.min_err.map_or(i, |k| k.min(i)));
                    return;
                }
                for &d in &self.dependents[i] {
                    self.indegree[d] -= 1;
                    if self.indegree[d] == 0 && self.min_err.is_none_or(|k| d < k) {
                        released.push(d);
                    }
                }
            }
            FailurePolicy::KeepGoing => {
                let mut worklist: Vec<(usize, bool)> = vec![(i, !ok)];
                while let Some((u, poison)) = worklist.pop() {
                    for &d in &self.dependents[u] {
                        if poison {
                            self.blocked[d] = true;
                        }
                        self.indegree[d] -= 1;
                        if self.indegree[d] == 0 {
                            if self.blocked[d] {
                                worklist.push((d, true));
                            } else {
                                released.push(d);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Runs one unit's fallible work under a panic guard: a panicking
/// compiler fails *that unit* with [`CoreError::Internal`] — payload
/// captured into an `irm.unit_panic` trace event — instead of tearing
/// down the build or, in parallel builds, the worker pool.
pub(crate) fn isolate_unit<T>(
    name: Symbol,
    f: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            trace::event(names::UNIT_PANIC_EVENT)
                .field("unit", name.as_str())
                .field("payload", &message);
            Err(CoreError::Internal {
                unit: name,
                message,
            })
        }
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`compile_unit`] behind the `compile.unit` fault point.  An injected
/// `panic` unwinds out of the check itself (and is caught by the unit's
/// panic guard); `io`/`torn` become a plain per-unit failure.
fn compile_unit_injected(
    name: Symbol,
    source: &str,
    sources: &[ImportSource],
) -> Result<crate::compile::CompileOutput, CoreError> {
    if faults::active() && faults::check(points::COMPILE_UNIT, name.as_str()).is_some() {
        return Err(CoreError::Injected {
            unit: name,
            point: points::COMPILE_UNIT,
        });
    }
    compile_unit(name, source, sources)
}

/// Records a unit the dirty-cone pre-pass proved reusable, without
/// dispatching it: same decision, counters and report entries the full
/// decide path would have produced (the pre-pass guarantees the final
/// decision is exactly `Reused` — never `CutOff`, which needs a rebuilt
/// import, impossible outside the cone).
fn synthesize_reused(report: &mut BuildReport, name: Symbol) {
    trace::event("irm.decision")
        .field("unit", name.as_str())
        .field("kind", RebuildDecision::Reused.kind());
    trace::counter(names::UNITS_REUSED, 1);
    report.decisions.push((name, RebuildDecision::Reused));
    report.reused.push(name);
    report.outcomes.push((name, UnitOutcome::Reused));
}

/// True when `g` still describes exactly this set of analyses: same
/// unit set, and every unit's import/export name digest unchanged.  The
/// graph is a function of those names alone, so equal `names_pid`s imply
/// the same export map, the same resolved imports, and (the derivation
/// being deterministic) the same topological order.  A body edit keeps
/// its names, so it keeps the graph.  The digests are stored, never
/// recomputed here: this is one `u128` compare per unit.
fn graph_is_current(g: &DepGraph, analyses: &HashMap<Symbol, Arc<CachedAnalysis>>) -> bool {
    g.len() == analyses.len()
        && g.order().iter().enumerate().all(|(i, u)| {
            analyses
                .get(u)
                .is_some_and(|a| a.names_pid == g.names_pid(i))
        })
}

/// Records one failed unit (keep-going): counter, event, report entry.
fn record_failure(report: &mut BuildReport, name: Symbol, error: CoreError) {
    trace::counter(names::UNITS_FAILED, 1);
    trace::event("irm.unit_failed")
        .field("unit", name.as_str())
        .field("error", &error);
    report.outcomes.push((
        name,
        UnitOutcome::Failed {
            error: error.to_string(),
        },
    ));
    report.failed.push((name, error));
}

/// Records one skipped unit (keep-going): a synthesized
/// [`RebuildDecision::Skipped`] naming the direct imports that blocked
/// it, so `--explain` shows the causal chain of a failure too.
fn record_skip(report: &mut BuildReport, name: Symbol, blocked_on: Vec<Symbol>) {
    trace::counter(names::UNITS_SKIPPED, 1);
    let decision = RebuildDecision::Skipped {
        blocked_on: blocked_on.iter().map(|u| u.as_str().to_string()).collect(),
    };
    trace::event("irm.decision")
        .field("unit", name.as_str())
        .field("kind", decision.kind());
    report.decisions.push((name, decision));
    report
        .outcomes
        .push((name, UnitOutcome::Skipped { blocked_on }));
    report.skipped.push(name);
}

/// A typed bin-file IO error naming both the unit and the path.
fn bin_io(unit: Symbol, path: &Path, e: impl std::fmt::Display) -> CoreError {
    CoreError::BinIo {
        unit,
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

/// Adds one unit's body to the pack being saved, under the `bin.save`
/// fault point.
fn put_body(
    writer: &mut PackWriter,
    meta: &BinMeta,
    bytes: &[u8],
    digest: Pid,
    pack_path: &Path,
) -> Result<(), CoreError> {
    if faults::active() {
        match faults::check(points::BIN_SAVE, meta.name.as_str()) {
            Some(FaultKind::Io) => {
                return Err(bin_io(
                    meta.name,
                    pack_path,
                    faults::io_error(points::BIN_SAVE, meta.name.as_str()),
                ));
            }
            Some(FaultKind::Torn) => {
                // A torn body write: the archive keeps a prefix of the
                // real bytes (zero-padded to length) under the *true*
                // digest, so only lazy verification of this one unit
                // can catch it.
                let mut torn = bytes.to_vec();
                let keep = torn.len() / 2;
                torn[keep..].fill(0);
                return writer.add(meta, &torn, digest);
            }
            _ => {}
        }
    }
    trace::counter(names::BIN_BYTES_WRITTEN, bytes.len() as u64);
    writer.add(meta, bytes, digest)
}

/// Publishes a freshly compiled bin to the artifact store in canonical
/// form (`mtime == 0`, so identical compiles are bit-identical).
/// Best-effort: a full or unwritable store must never fail the build.
fn publish_to_store(store: &Store, key: Pid, bin: &BinFile) {
    debug_assert_eq!(bin.mtime, 0, "store objects are published canonical");
    if let Err(e) = store.put(key, &bin.to_bytes()) {
        trace::event("store.put_failed")
            .field("unit", bin.unit.name.as_str())
            .field("error", e.to_string());
    }
}

/// A settled export environment (or the error that settling produced),
/// published at most once per unit per parallel build.
type EnvSlot = OnceLock<Result<Arc<Bindings>, CoreError>>;

/// What one wavefront task resolved to; merged into the bin store and
/// the report in topological order by the coordinator.
#[derive(Debug)]
struct TaskOutcome {
    decision: RebuildDecision,
    /// `Some` iff the unit recompiled or was rehydrated from the store.
    new_bin: Option<BinFile>,
    /// The new bin came from the artifact store, not a compile.
    from_store: bool,
    timings: CompileTimings,
    warnings: Vec<String>,
    rehydrate: Duration,
}

/// Read-only build state shared by every wavefront worker.
struct ParallelShared<'a> {
    strategy: Strategy,
    /// Topological order and resolved imports, by slot and by name.
    graph: &'a DepGraph,
    file_index: &'a HashMap<Symbol, &'a SourceFile>,
    analyses: &'a HashMap<Symbol, Arc<CachedAnalysis>>,
    /// The bin store as of the start of the build.  New bins live in
    /// `outcomes` until the coordinator merges them, so old state stays
    /// readable (a unit's *own* decision reads its pre-build bin).
    old_bins: &'a HashMap<Symbol, BinEntry>,
    /// The shared artifact store, probed before compiling and published
    /// to after.
    store: Option<&'a Store>,
    envs: &'a [EnvSlot],
    outcomes: &'a [OnceLock<Result<TaskOutcome, CoreError>>],
}

impl ParallelShared<'_> {
    /// Current facts about a unit: its fresh bin if it recompiled this
    /// build, else its old bin.  Only called for *completed* units (the
    /// scheduler dispatches a unit after all its imports finish), so the
    /// outcome slot read is never racy.
    fn facts(&self, u: Symbol) -> Option<ImportFacts> {
        if let Some(j) = self.graph.index_of(u) {
            if let Some(Ok(out)) = self.outcomes[j].get() {
                if let Some(b) = &out.new_bin {
                    return Some(ImportFacts {
                        export_pid: b.unit.export_pid,
                        mtime: b.mtime,
                        rebuilt: true,
                    });
                }
            }
        }
        self.old_bins.get(&u).map(|e| ImportFacts {
            export_pid: e.meta.export_pid,
            mtime: e.meta.mtime,
            rebuilt: false,
        })
    }

    /// Runs task `i` under the per-unit panic guard and fills its
    /// outcome slot; true when the task produced an outcome.  A
    /// panicking compiler fails this unit, never the worker (the pool
    /// survives and drains) nor, inline, the build.
    fn run(&self, i: usize) -> bool {
        let res = isolate_unit(self.graph.order()[i], || self.run_task(i));
        let ok = res.is_ok();
        let _ = self.outcomes[i].set(res);
        ok
    }

    /// Decide-then-maybe-compile for one unit.
    fn run_task(&self, i: usize) -> Result<TaskOutcome, CoreError> {
        let name = self.graph.order()[i];
        let file = self.file_index[&name];
        let sp = self.analyses[&name].source_pid;
        let units = self.graph.import_units(i);
        let _task = trace::span(names::SPAN_TASK).field("unit", name.as_str());

        let decision = decide_unit(
            self.strategy,
            file,
            sp,
            units,
            self.old_bins.get(&name).map(|e| &e.meta),
            &|u| self.facts(u),
        );
        if !decision.requires_recompile() {
            trace::event("irm.decision")
                .field("unit", name.as_str())
                .field("kind", decision.kind());
            trace::counter(names::UNITS_REUSED, 1);
            if matches!(decision, RebuildDecision::CutOff { .. }) {
                trace::counter(names::CUTOFF_HITS, 1);
            }
            return Ok(TaskOutcome {
                decision,
                new_bin: None,
                from_store: false,
                timings: CompileTimings::default(),
                warnings: Vec::new(),
                rehydrate: Duration::ZERO,
            });
        }

        // Recompile verdict: probe the shared artifact store first.
        // Imports have all settled (the scheduler guarantees it), so
        // the cache key is computable from their current export pids.
        let store_key = self.store.and_then(|_| {
            let mut pids = Vec::with_capacity(units.len());
            for &u in units {
                pids.push(self.facts(u)?.export_pid);
            }
            Some(smlsc_store::cache_key(sp, &pids, BIN_FORMAT_VERSION))
        });
        if let (Some(store), Some(key)) = (self.store, store_key) {
            if let Some(bytes) = store.get(key) {
                match BinFile::from_bytes(&bytes) {
                    Ok(mut bin)
                        if store_bin_matches(&bin, name, sp, units, &|u| {
                            self.facts(u).map(|f| f.export_pid)
                        }) =>
                    {
                        bin.mtime = tick();
                        let decision = RebuildDecision::StoreHit {
                            key: key.to_string(),
                            cause: Box::new(decision),
                        };
                        trace::event("irm.decision")
                            .field("unit", name.as_str())
                            .field("kind", decision.kind());
                        // No eager env publication: dependents that need
                        // the exports rehydrate them from this bin via
                        // `rehydrate_env`, exactly like a reused unit.
                        return Ok(TaskOutcome {
                            decision,
                            new_bin: Some(bin),
                            from_store: true,
                            timings: CompileTimings::default(),
                            warnings: Vec::new(),
                            rehydrate: Duration::ZERO,
                        });
                    }
                    _ => {
                        trace::event(names::STORE_REJECT_EVENT).field("unit", name.as_str());
                    }
                }
            }
        }

        trace::event("irm.decision")
            .field("unit", name.as_str())
            .field("kind", decision.kind());
        let mut rehydrate = Duration::ZERO;
        let sources: Vec<ImportSource> = self
            .graph
            .import_idx(i)
            .iter()
            .zip(units)
            .map(|(&j, &u)| {
                let exports = self.force_env(j, &mut rehydrate)?;
                // Imports settle before dependents dispatch; a missing
                // bin here is a scheduler bug, reported as such rather
                // than panicking the worker.
                let pid =
                    self.facts(u)
                        .map(|f| f.export_pid)
                        .ok_or_else(|| CoreError::Internal {
                            unit: name,
                            message: format!("import `{u}` has no settled bin at dispatch"),
                        })?;
                Ok(ImportSource {
                    unit: u,
                    pid,
                    exports,
                })
            })
            .collect::<Result<_, CoreError>>()?;
        let out = compile_unit_injected(name, file.read_text()?, &sources)?;
        trace::counter(names::UNITS_COMPILED, 1);
        // Publish the export environment *before* the completion signal,
        // so a dependent never rehydrates a freshly compiled unit.
        let _ = self.envs[i].set(Ok(out.exports.clone()));
        let bin = BinFile {
            unit: out.unit,
            mtime: 0,
        };
        if let (Some(store), Some(key)) = (self.store, store_key) {
            publish_to_store(store, key, &bin);
        }
        Ok(TaskOutcome {
            decision,
            new_bin: Some(BinFile {
                mtime: tick(),
                ..bin
            }),
            from_store: false,
            timings: out.timings,
            warnings: out.warnings.iter().map(|w| w.to_string()).collect(),
            rehydrate,
        })
    }

    /// Materializes a unit's export environment: the live compile result
    /// if it recompiled this build, else rehydrated from its (old ==
    /// current) bin.  Settled at most once per build; racing readers
    /// block on the cell, and the wait-for graph follows import edges of
    /// an acyclic DAG, so no deadlock.
    fn force_env(
        &self,
        j: usize,
        rehydrate_acc: &mut Duration,
    ) -> Result<Arc<Bindings>, CoreError> {
        if let Some(r) = self.envs[j].get() {
            trace::counter(names::ENV_CACHE_HITS, 1);
            return r.clone();
        }
        trace::counter(names::ENV_CACHE_MISSES, 1);
        self.envs[j]
            .get_or_init(|| self.rehydrate_env(j, rehydrate_acc))
            .clone()
    }

    /// Rehydrates a *reused or store-hit* unit's pickled exports against
    /// its imports' settled environments.  Compiled units never reach
    /// here: their slots are published eagerly at compile time, before
    /// any dependent is dispatched.  Store hits, like reuses, rehydrate
    /// lazily — but from the freshly fetched bin in the unit's outcome
    /// slot (on a cold session there is no old bin at all), which is
    /// safe to read because dependents only dispatch after it settles.
    fn rehydrate_env(&self, j: usize, acc: &mut Duration) -> Result<Arc<Bindings>, CoreError> {
        let unit = self.graph.order()[j];
        let mut ctx_envs = Vec::new();
        for &d in self.graph.import_idx(j) {
            ctx_envs.push(self.force_env(d, acc)?);
        }
        let new_bin = match self.outcomes[j].get() {
            Some(Ok(out)) => out.new_bin.as_ref(),
            _ => None,
        };
        let bin = match new_bin {
            Some(b) => b,
            None => match self.old_bins.get(&unit) {
                // Forcing may find a corrupt archived body; the error
                // propagates up as this unit's failure and the caller's
                // quarantine-and-retry loop recompiles it.
                Some(e) => e.force()?,
                None => return Err(CoreError::UnknownUnit(unit)),
            },
        };
        let t0 = Instant::now();
        let _span = trace::span(names::SPAN_REHYDRATE).field("unit", unit.as_str());
        let ctx = RehydrateContext::with_pervasives(ctx_envs.iter().map(|e| e.as_ref()));
        let (env, stats) = rehydrate(&bin.unit.env_pickle, &ctx)
            .map_err(|e| CoreError::Pickle { unit, error: e })?;
        trace::counter(names::REHYDRATE_NODES, stats.nodes as u64);
        trace::counter(names::REHYDRATE_STUBS, stats.stubs as u64);
        *acc += t0.elapsed();
        Ok(env)
    }
}

/// Maps each exported top-level name to the unit exporting it.
fn exporters(
    analyses: &HashMap<Symbol, Arc<CachedAnalysis>>,
) -> Result<HashMap<Symbol, Symbol>, CoreError> {
    let mut map: HashMap<Symbol, Symbol> = HashMap::new();
    let mut units: Vec<&Symbol> = analyses.keys().collect();
    units.sort_by_key(|s| s.as_str());
    for unit in units {
        for name in &analyses[unit].exports {
            if let Some(prev) = map.insert(*name, *unit) {
                if prev != *unit {
                    return Err(CoreError::DuplicateExport {
                        name: *name,
                        units: vec![prev, *unit],
                    });
                }
            }
        }
    }
    Ok(map)
}

/// Topological order over the import graph; imports that resolve to no
/// project unit are errors, cycles are errors.
fn topo_order(
    project: &Project,
    analyses: &HashMap<Symbol, Arc<CachedAnalysis>>,
    exporters: &HashMap<Symbol, Symbol>,
) -> Result<Vec<Symbol>, CoreError> {
    // Validate imports first for a precise error.
    for f in project.files() {
        for import in &analyses[&f.name].imports {
            if !exporters.contains_key(import) {
                return Err(CoreError::UnresolvedImport {
                    unit: f.name,
                    name: *import,
                });
            }
        }
    }
    let mut order = Vec::new();
    let mut state: HashMap<Symbol, u8> = HashMap::new(); // 1 = visiting, 2 = done
    fn visit(
        unit: Symbol,
        analyses: &HashMap<Symbol, Arc<CachedAnalysis>>,
        exporters: &HashMap<Symbol, Symbol>,
        state: &mut HashMap<Symbol, u8>,
        order: &mut Vec<Symbol>,
        stack: &mut Vec<Symbol>,
    ) -> Result<(), CoreError> {
        match state.get(&unit) {
            Some(2) => return Ok(()),
            Some(1) => {
                let mut cycle: Vec<Symbol> = stack.clone();
                cycle.push(unit);
                return Err(CoreError::ImportCycle(cycle));
            }
            _ => {}
        }
        state.insert(unit, 1);
        stack.push(unit);
        let mut deps: Vec<Symbol> = analyses[&unit]
            .imports
            .iter()
            .map(|n| exporters[n])
            .collect();
        deps.sort_by_key(|s| s.as_str());
        deps.dedup();
        for d in deps {
            if d != unit {
                visit(d, analyses, exporters, state, order, stack)?;
            }
        }
        stack.pop();
        state.insert(unit, 2);
        order.push(unit);
        Ok(())
    }
    let mut units: Vec<Symbol> = project.files().iter().map(|f| f.name).collect();
    units.sort_by_key(|s| s.as_str());
    let mut stack = Vec::new();
    for u in units {
        visit(u, analyses, exporters, &mut state, &mut order, &mut stack)?;
    }
    Ok(order)
}

/// Order-preserving deduplication for small vectors.
trait DedupStable {
    fn dedup_stable(self) -> Self;
}

impl DedupStable for Vec<Symbol> {
    fn dedup_stable(self) -> Vec<Symbol> {
        let mut seen = Vec::new();
        for s in self {
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
        seen
    }
}
