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
//! environments.  Workers share one lock over that state and always
//! take the ready unit with the lowest topological index; the calling
//! thread is worker 0, so at `jobs == 1` it visits the cone in plain
//! topological order with no other thread, and at `jobs >= 2`
//! independent subtrees of the analysis DAG compile concurrently.
//! Results are **bit-identical at every width**: the same export pids,
//! the same [`RebuildDecision`] per unit, and a [`BuildReport`] in
//! topological order regardless of completion order.
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
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
use crate::pack::{self, PackBodies, PackEntry, PackReader, PackTail, PackWriter, PACK_FILE};
use crate::stamps::{Analysis, StampCache, StampEntry};
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

/// A file's modification time in nanoseconds since the epoch (0 when
/// the platform has none).
pub(crate) fn mtime_ns(meta: &std::fs::Metadata) -> u64 {
    meta.modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
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
        self.upsert_lazy(Symbol::intern(&name.into()), path.into(), mtime_ns, size);
    }

    fn upsert_lazy(&mut self, name: Symbol, path: PathBuf, mtime_ns: u64, size: u64) {
        self.upsert(SourceFile {
            name,
            text: SourceText::Lazy {
                path,
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
    /// Each entry is stat'ed relative to the open directory
    /// ([`std::fs::DirEntry::metadata`], no walk of the full path).  That
    /// stat does not follow a symlink, so a link, known as one from the
    /// directory read itself, is stat'ed by path: the project sees its
    /// target.
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
            let meta = match entry.file_type() {
                Ok(t) if t.is_symlink() => std::fs::metadata(&path),
                _ => entry.metadata(),
            }
            .map_err(|e| CoreError::Io(format!("{}: {e}", path.display())))?;
            files.push((stem.to_string(), path, mtime_ns(&meta), meta.len()));
        }
        files.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(latest) = files.iter().map(|f| f.2).max() {
            observe(latest);
        }
        let mut p = Project {
            files: Vec::with_capacity(files.len()),
            index: HashMap::with_capacity(files.len()),
        };
        // Interned in one burst after the stats: interning between them
        // contends with the overlapped pack load for the symbol table's
        // lock (a 20k-unit open took 110–119 ms that way, 43–62 ms so).
        for (stem, path, mtime_ns, size) in files {
            p.upsert_lazy(Symbol::intern(&stem), path, mtime_ns, size);
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
        self.get(Symbol::intern(name))
    }

    /// Looks up a file by unit name.
    pub(crate) fn get(&self, name: Symbol) -> Option<&SourceFile> {
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
/// It lists only the units the build touched; every other unit of
/// `order` was reused, which [`Self::all_decisions`],
/// [`Self::decision_for`] and [`Self::outcome_for`] render on demand.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// The strategy that made the decisions.
    pub strategy: Strategy,
    /// Units in build (topological) order.
    pub order: Vec<Symbol>,
    /// Units that were recompiled.
    pub recompiled: Vec<Symbol>,
    /// How many units kept their bins, touched or not.
    pub reused: usize,
    /// Units whose recompile verdict was satisfied by the shared
    /// artifact store (rehydrated, not compiled).
    pub store_hits: Vec<Symbol>,
    /// Why each touched unit was recompiled or reused, in build order —
    /// the causal chain behind `smlsc build --explain`.
    pub decisions: Vec<(Symbol, RebuildDecision)>,
    /// Aggregate compile-phase timings.
    pub timings: CompileTimings,
    /// Time spent rehydrating cached statenvs.
    pub rehydrate: Duration,
    /// Elaboration warnings, per unit.
    pub warnings: Vec<(Symbol, String)>,
    /// Per-unit outcome of each touched unit in build order — including,
    /// under [`FailurePolicy::KeepGoing`], failed and skipped units.
    pub outcomes: Vec<(Symbol, UnitOutcome)>,
    /// Units whose compile failed, with the error.  Populated only by
    /// keep-going builds; fail-fast builds return the error instead.
    pub failed: Vec<(Symbol, CoreError)>,
    /// Units never attempted because a transitive import failed
    /// (keep-going builds).
    pub skipped: Vec<Symbol>,
}

/// The decision of a unit the build never touched.
static IMPLIED_REUSE: RebuildDecision = RebuildDecision::Reused;
/// The outcome of a unit the build never touched.
static IMPLIED_OUTCOME: UnitOutcome = UnitOutcome::Reused;

/// Every unit of `order` with a decision: the recorded one for a
/// touched unit, [`RebuildDecision::Reused`] for an untouched one, and
/// none for a `failed` one.  `decisions` must follow `order`, as a
/// report's do.
pub fn with_implied_reuses<'a>(
    order: &'a [Symbol],
    decisions: &'a [(Symbol, RebuildDecision)],
    failed: impl Fn(Symbol) -> bool + 'a,
) -> impl Iterator<Item = (Symbol, &'a RebuildDecision)> + 'a {
    let mut touched = decisions.iter().peekable();
    order
        .iter()
        .filter_map(move |&unit| match touched.next_if(|(u, _)| *u == unit) {
            Some((_, d)) => Some((unit, d)),
            None if failed(unit) => None,
            None => Some((unit, &IMPLIED_REUSE)),
        })
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

    /// Every unit in build order with its decision, implied reuses
    /// included: what `--explain` and `--report-json` print.
    pub fn all_decisions(&self) -> impl Iterator<Item = (Symbol, &RebuildDecision)> + '_ {
        with_implied_reuses(&self.order, &self.decisions, |u| self.failed_unit(u))
    }

    fn failed_unit(&self, unit: Symbol) -> bool {
        self.failed.iter().any(|(u, _)| *u == unit)
    }

    /// The decision recorded for `name`, if it was in the build and did
    /// not fail.
    pub fn decision_for(&self, name: &str) -> Option<&RebuildDecision> {
        let name = Symbol::intern(name);
        match self.decisions.iter().find(|(n, _)| *n == name) {
            Some((_, d)) => Some(d),
            None if self.failed_unit(name) => None,
            None => self.order.contains(&name).then_some(&IMPLIED_REUSE),
        }
    }

    /// The decision kinds in build order (`name`, `kind`) — handy for
    /// asserting exact causal sequences in tests.
    pub fn decision_kinds(&self) -> Vec<(String, &'static str)> {
        self.all_decisions()
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
        match self.outcomes.iter().find(|(n, _)| *n == name) {
            Some((_, o)) => Some(o),
            None => self.order.contains(&name).then_some(&IMPLIED_OUTCOME),
        }
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

/// A cached bin: decision metadata always resident, the body sealed
/// bytes — in memory, or a digest-verified slice of `bins.pack` — that
/// are decoded at most once, on first real use.  Rebuild decisions need
/// only [`BinMeta`], so a warm build touches no bodies at all.
#[derive(Debug)]
struct BinEntry {
    meta: BinMeta,
    body: BinBody,
    /// The decoded bin once forced, or why it would not decode.
    cell: OnceLock<Result<BinFile, CoreError>>,
}

#[derive(Debug)]
enum BinBody {
    /// Sealed in memory by the worker that compiled or fetched the unit
    /// (or by [`Irm::inject_bin`]): exactly the bytes a save writes,
    /// under their pack digest.
    Sealed { bytes: Vec<u8>, digest: Pid },
    /// The body lives in `bins.pack`.
    Packed(LazyBody),
}

#[derive(Debug, Clone)]
struct LazyBody {
    pack: Arc<PackBodies>,
    offset: u64,
    len: u64,
    digest: Pid,
}

impl BinEntry {
    /// An entry for `bin`, sealed here under its pack digest.
    fn sealed(bin: &BinFile) -> BinEntry {
        let (bytes, digest) = bin.seal();
        BinEntry {
            meta: bin.meta(),
            body: BinBody::Sealed { bytes, digest },
            cell: OnceLock::new(),
        }
    }

    fn packed(meta: BinMeta, src: LazyBody) -> BinEntry {
        BinEntry {
            meta,
            body: BinBody::Packed(src),
            cell: OnceLock::new(),
        }
    }

    /// The full bin, decoding the body on first use; the decode is
    /// logged in `forced`, so [`Irm::release_bodies`] knows which cells
    /// to empty.  The result (success or corruption) is cached: a torn
    /// body fails identically every time until the unit is quarantined.
    fn force(&self, forced: &Mutex<Vec<Symbol>>) -> Result<&BinFile, CoreError> {
        let unit = self.meta.name;
        self.cell
            .get_or_init(|| {
                forced
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(unit);
                let decoded = match &self.body {
                    BinBody::Sealed { bytes, .. } => BinFile::from_verified_bytes(bytes),
                    BinBody::Packed(src) => {
                        trace::counter(names::BIN_LAZY_BODIES, 1);
                        let bytes = src
                            .pack
                            .read_body(src.offset, src.len, src.digest)
                            .map_err(|detail| CoreError::BinBodyCorrupt { unit, detail })?;
                        // The index digest just checked covers every
                        // byte, so the body's own need not be.
                        BinFile::from_verified_bytes(&bytes)
                    }
                };
                decoded.map_err(|e| CoreError::BinBodyCorrupt {
                    unit,
                    detail: e.to_string(),
                })
            })
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// The body's bytes and pack digest: sealed bytes as they are, a
    /// packed body read back and verified.
    fn body_bytes(&self) -> Result<(std::borrow::Cow<'_, [u8]>, Pid), String> {
        match &self.body {
            BinBody::Sealed { bytes, digest } => Ok((bytes.into(), *digest)),
            BinBody::Packed(src) => {
                let bytes = src.pack.read_body(src.offset, src.len, src.digest)?;
                Ok((bytes.into(), src.digest))
            }
        }
    }
}

/// Bin bodies and decoded bins displaced by [`Irm::release_bodies`];
/// dropping this frees them.
#[derive(Debug, Default)]
pub struct ReleasedBodies {
    bodies: Vec<BinBody>,
    bins: Vec<Result<BinFile, CoreError>>,
}

impl ReleasedBodies {
    /// How many bodies and decoded bins are held.
    pub fn len(&self) -> usize {
        self.bodies.len() + self.bins.len()
    }

    /// True when nothing was released.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The manager.
#[derive(Debug, Default)]
pub struct Irm {
    strategy: Option<Strategy>,
    bins: HashMap<Symbol, BinEntry>,
    /// The unit-keyed analysis cache, loaded from and saved to the
    /// pack's stamp sections.
    stamps: StampCache,
    /// When set, no file is trusted by its metadata: every source is
    /// read and re-digested.
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
    /// graph section.  Never trusted blindly: a build revalidates it
    /// against the analyses (per-unit `names_pid`) before reuse — a
    /// seeded build those of the changed units, `seedable` vouching
    /// for the rest — so a stale graph costs a re-derivation, never a
    /// wrong schedule.
    graph: Option<Arc<DepGraph>>,
    /// True while the pack holds `graph`, so a save need not write a
    /// graph section.
    graph_synced: bool,
    /// The segment the last save wrote and a read handle on its file:
    /// what [`Irm::release_bodies`] points the saved bodies at.
    saved: Option<(Arc<PackBodies>, Vec<PackEntry>)>,
    /// Units whose lazy bodies were forced since the last release.
    forced: Mutex<Vec<Symbol>>,
    /// True after a successful fail-fast build until anything else
    /// touches the bins, stamps or graph.  The event seed
    /// ([`Irm::build_changed`]) rests on it: every unit's analysis is
    /// recorded, `graph` is current, and every bin matched its source
    /// and its imports' export pids when that build ended.
    seedable: bool,
}

/// One file's analysis from a read, and whether it took a parse.
#[derive(Debug)]
struct FileAnalysis {
    analysis: Arc<Analysis>,
    parsed: bool,
}

/// The rungs of the analysis ladder that read the file (see
/// [`crate::stamps`]); rung 1, the stat match, is the caller's.  Shares
/// `stamps` immutably so it can run on worker threads; all mutation
/// happens in the caller's merge loop.
fn read_and_analyze(f: &SourceFile, stamps: &StampCache) -> Result<FileAnalysis, CoreError> {
    // Rung 2: the same bytes as the record's analysis.
    let text = f.read_text()?;
    let sp = source_pid(text);
    if let Some(e) = stamps.get(f.name).filter(|e| e.analysis.source_pid == sp) {
        return Ok(FileAnalysis {
            analysis: Arc::clone(&e.analysis),
            parsed: false,
        });
    }
    // Rung 3: a real parse, and the one place the names pid (the
    // import graph's key) is computed.
    let _span = trace::span(names::SPAN_ANALYZE).field("unit", f.name.as_str());
    let a = analyze_source(f.name, text)?;
    Ok(FileAnalysis {
        analysis: Arc::new(Analysis::new(sp, a.imports, a.exports)),
        parsed: true,
    })
}

/// The recorded analysis of `unit`.  Every project unit has one once
/// the build's analysis ladder ran (or, for a seeded build, since the
/// last build's did).
fn analysis_of(stamps: &StampCache, unit: Symbol) -> Result<&Analysis, CoreError> {
    stamps
        .get(unit)
        .map(|e| &*e.analysis)
        .ok_or(CoreError::UnknownUnit(unit))
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

    /// The analysis cache: loaded from the pack, updated by builds.
    pub fn stamps(&self) -> &StampCache {
        &self.stamps
    }

    /// The cached bin for a unit, if any — decodes its body on first
    /// use.  A corrupt body reads as "no bin" here; builds surface the
    /// corruption properly and quarantine the unit.
    pub fn bin(&self, name: &str) -> Option<&BinFile> {
        self.bins
            .get(&Symbol::intern(name))
            .and_then(|e| e.force(&self.forced).ok())
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
        self.seedable = false;
        self.dirty.insert(bin.unit.name);
        self.bins.insert(bin.unit.name, BinEntry::sealed(&bin));
    }

    /// Enables or disables paranoid mode: when on, no file is trusted
    /// by its metadata, so every source is read and re-digested (an
    /// unchanged one still reuses its recorded analysis).  Decisions
    /// must come out identical either way — a property test holds the
    /// manager to that.
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

    /// Drops the stat recorded for `unit`: the next build reads and
    /// digests its file (rung 2 or lower of the analysis ladder) even
    /// when its mtime and size match the record, as after a same-size
    /// rewrite within one mtime tick.
    pub(crate) fn forget_stamp(&mut self, unit: Symbol) {
        self.stamps.forget(unit);
    }

    /// Drops a unit whose archived body turned out to be corrupt, so
    /// the next build recompiles it (alone).  Returns true if the unit
    /// was cached.
    pub fn quarantine_bin(&mut self, name: Symbol) -> bool {
        self.seedable = false;
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
        self.drop_removed_units();
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
            && self.stamps.only_heals()
            && changed_graph.is_none()
            && tail.is_some()
            && pack_path.is_file()
        {
            return Ok(());
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Io(format!("{}: {e}", dir.display())))?;
        // Take the dirty bins while they, the changed stamps and the
        // changed graph still fit one appended segment; past the bound
        // the save is a full rewrite.
        let mut fresh: Vec<(&BinMeta, &[u8], Pid)> = Vec::new();
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
                let BinBody::Sealed { bytes, digest } = &entry.body else {
                    tail = None;
                    break;
                };
                need += pack::entry_len_bound(&entry.meta, bytes.len());
                if !t.fits(need) {
                    tail = None;
                    break;
                }
                fresh.push((&entry.meta, bytes, *digest));
            }
        }
        let mut writer = PackWriter::open(&pack_path, tail)?;
        let appends = writer.appends();
        let mut quarantined: Vec<Symbol> = Vec::new();
        if appends {
            for &(meta, bytes, digest) in &fresh {
                put_body(&mut writer, meta, bytes, digest, &pack_path)?;
            }
        } else {
            let mut names_sorted: Vec<Symbol> = self.bins.keys().copied().collect();
            names_sorted.sort_by_cached_key(|n| n.as_str());
            for name in &names_sorted {
                let entry = &self.bins[name];
                // Sealed bodies go out as they are; packed ones copy
                // raw from the old pack under the digest `read_body`
                // just verified.
                match entry.body_bytes() {
                    Ok((bytes, digest)) => {
                        put_body(&mut writer, &entry.meta, &bytes, digest, &pack_path)?;
                    }
                    Err(detail) => {
                        // The old archive's body is bad (torn, digest
                        // mismatch): quarantine this unit, keep the rest.
                        trace::event("irm.bin_body_quarantined")
                            .field("unit", name.as_str())
                            .field("error", detail);
                        quarantined.push(*name);
                    }
                }
            }
        }
        // An append carries what changed; a rewrite carries everything
        // but the records of units it holds no bin for (a quarantined
        // unit's record, say, would otherwise persist forever).
        if !appends {
            let bins = &self.bins;
            self.stamps
                .retain(|u| bins.contains_key(&u) && !quarantined.contains(&u));
        }
        let stamps = self.stamps.encode_section(!appends, writer.saved_at());
        let graph = match changed_graph {
            None if !appends => self.graph.as_ref().map(|g| g.encode()),
            changed => changed,
        };
        let sealed = writer.finish_with(stamps.as_deref(), graph.as_deref())?;
        for unit in quarantined {
            self.bins.remove(&unit);
            self.seedable = false;
            trace::counter(names::BIN_BODY_QUARANTINED, 1);
        }
        self.dirty.clear();
        self.stamps.mark_saved();
        self.graph_synced = self.graph.is_some();
        self.pack = Some((pack_path, sealed.tail));
        self.pack_synced = true;
        self.saved = Some((sealed.bodies, sealed.entries));
        Ok(())
    }

    /// Drops the bins and stamp records of units that the last build's
    /// project no longer holds (a deleted source, a daemon `Remove`
    /// event), so a removed unit leaves the pack at this save.  A
    /// segment cannot delete an entry, so a drop forces a rewrite.  The
    /// unit set changes only with a re-derived graph, so a save whose
    /// graph the pack already holds (a no-op, a body edit) checks
    /// nothing.
    fn drop_removed_units(&mut self) {
        let Some(graph) = self.graph.as_ref().filter(|_| !self.graph_synced) else {
            return;
        };
        let (bins, records) = (self.bins.len(), self.stamps.len());
        self.bins.retain(|u, _| graph.index_of(*u).is_some());
        self.stamps.retain(|u| graph.index_of(u).is_some());
        if (bins, records) != (self.bins.len(), self.stamps.len()) {
            self.pack_synced = false;
        }
    }

    /// Releases every bin body held in memory: each body the last save
    /// wrote is pointed at its bytes in the pack (read, digest-verified
    /// and decoded again on next use), and every body decoded since the
    /// last release is emptied.  Costs the bodies that save wrote plus
    /// the bodies decoded; the index is not reopened.  A long-lived
    /// session calls this after each save so its heap stays flat however
    /// many builds it serves; a one-shot build has no reason to.
    ///
    /// The displaced bodies and decoded bins come back, so the caller
    /// chooses when to pay for freeing them (a daemon: after its reply).
    pub fn release_bodies(&mut self) -> ReleasedBodies {
        let mut released = ReleasedBodies::default();
        if let Some((bodies, entries)) = self.saved.take() {
            for e in entries {
                // A bin rebuilt since that save is not what it wrote.
                if self.dirty.contains(&e.name) {
                    continue;
                }
                if let Some(entry) = self.bins.get_mut(&e.name) {
                    let src = LazyBody {
                        pack: Arc::clone(&bodies),
                        offset: e.offset,
                        len: e.len,
                        digest: e.digest,
                    };
                    released
                        .bodies
                        .push(std::mem::replace(&mut entry.body, BinBody::Packed(src)));
                    released.bins.extend(entry.cell.take());
                }
            }
        }
        let forced = std::mem::take(
            self.forced
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for unit in forced {
            if let Some(entry) = self.bins.get_mut(&unit) {
                released.bins.extend(entry.cell.take());
            }
        }
        released
    }

    /// Bin bodies held in memory: sealed, or decoded.
    #[cfg(test)]
    pub(crate) fn bodies_in_memory(&self) -> usize {
        self.bins
            .values()
            .filter(|e| matches!(e.body, BinBody::Sealed { .. }) || e.cell.get().is_some())
            .count()
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
        self.saved = None;
        self.seedable = false;
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
                    let (entries, stamps, graph) = reader.take_state();
                    self.stamps = stamps;
                    self.graph_synced = graph.is_some();
                    self.graph = graph.map(Arc::new);
                    pack_entries = entries.len();
                    self.bins.reserve(pack_entries);
                    for pe in entries {
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
                            pack: Arc::clone(reader.bodies()),
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
                        }
                        self.dirty.remove(&unit);
                        self.bins
                            .insert(unit, BinEntry::packed(pe.into_meta(), src));
                        out.loaded += 1;
                    }
                    if !self.paranoid && out.loaded > 0 {
                        trace::counter(names::BIN_INDEX_ONLY, out.loaded as u64);
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
        self.analyze_all(project, 1)?;
        Ok(self.dep_graph(project)?.order().to_vec())
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
        self.analyze_all(project, 1)?;
        let graph = self.dep_graph(project)?;
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
    fn dep_graph(&mut self, project: &Project) -> Result<Arc<DepGraph>, CoreError> {
        self.seedable = false;
        let _span = trace::span(names::SPAN_GRAPH).field("units", project.files().len());
        if let Some(g) = &self.graph {
            if graph_is_current(g, project, &self.stamps) {
                trace::counter(names::DEPS_PACK_HITS, 1);
                return Ok(Arc::clone(g));
            }
        }
        trace::counter(names::DEPS_PACK_MISSES, 1);
        let exporters = exporters(project, &self.stamps)?;
        let order = topo_order(project, &self.stamps, &exporters)?;
        let index_of: HashMap<Symbol, usize> =
            order.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        let mut names_pids = Vec::with_capacity(order.len());
        let mut import_idx = Vec::with_capacity(order.len());
        for name in &order {
            let a = analysis_of(&self.stamps, *name)?;
            names_pids.push(a.names_pid);
            let units: Vec<Symbol> = a
                .imports()
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

    /// The seeds of this build's schedule: the units among `candidates`
    /// (topological slots, ascending) whose own evidence — their source
    /// and their old bin, with no import counted as rebuilt — already
    /// demands a recompile.  Everything else can only recompile because
    /// an import did, which the scheduler finds out as imports settle.
    fn dirty_seeds(
        &self,
        project: &Project,
        graph: &DepGraph,
        candidates: Vec<usize>,
    ) -> Vec<usize> {
        let strategy = self.strategy();
        candidates
            .into_iter()
            .filter(|&i| {
                let name = graph.order()[i];
                let (Some(file), Ok(a)) = (project.get(name), analysis_of(&self.stamps, name))
                else {
                    return true; // dispatched, where the task reports it
                };
                decide_unit(
                    strategy,
                    file,
                    a.source_pid,
                    graph.import_units(i),
                    self.bins.get(&name).map(|e| &e.meta),
                    &|u| {
                        self.bins.get(&u).map(|e| ImportFacts {
                            export_pid: e.meta.export_pid,
                            mtime: e.meta.mtime,
                            rebuilt: false,
                        })
                    },
                )
                .requires_recompile()
            })
            .collect()
    }

    /// Analyzes every file, cheapest evidence first — a matching stat
    /// (no read at all), then the source digest, then a real parse —
    /// and records each analysis in the stamp cache, where the graph
    /// and the scheduler read it.  Stat matches run on the calling
    /// thread; only the files that need a read fan out over `jobs`
    /// workers, and none are spawned when no file does.  Counters and
    /// records merge in file order, so results and telemetry are
    /// deterministic.
    fn analyze_all(&mut self, project: &Project, jobs: usize) -> Result<(), CoreError> {
        let files = project.files();
        let _span = trace::span(names::SPAN_ANALYZE_ALL)
            .field("files", files.len())
            .field("jobs", jobs);
        // Rung 1: a path-backed file whose stat matches its record
        // reuses the recorded analysis without a read.
        let reads: Vec<usize> = (0..files.len())
            .filter(|&i| {
                let f = &files[i];
                self.paranoid
                    || f.path().is_none()
                    || self.stamps.lookup(f.name, f.mtime, f.size()).is_none()
            })
            .collect();
        let hits = files.len() - reads.len();
        if hits > 0 {
            trace::counter(names::STAMP_HITS, hits as u64);
        }
        let results: Vec<Result<FileAnalysis, CoreError>> = {
            let stamps = &self.stamps;
            let next = AtomicUsize::new(0);
            let slots: Vec<OnceLock<Result<FileAnalysis, CoreError>>> =
                reads.iter().map(|_| OnceLock::new()).collect();
            let analyze = |_| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = reads.get(k) else { break };
                let _ = slots[k].set(read_and_analyze(&files[i], stamps));
            };
            on_workers(jobs.min(reads.len()), analyze, || analyze(0));
            slots
                .into_iter()
                .map(|s| s.into_inner().expect("every analysis slot is filled"))
                .collect()
        };
        for (&i, r) in reads.iter().zip(results) {
            self.record_analysis(&files[i], r?);
        }
        Ok(())
    }

    /// Records one file's analysis from a read and bumps its counters.
    /// Only a file's own metadata may vouch for it, so an in-memory
    /// source records no stat.
    fn record_analysis(&mut self, f: &SourceFile, fa: FileAnalysis) {
        if !self.paranoid && f.path().is_some() {
            trace::counter(names::STAMP_MISSES, 1);
        }
        let hit = if fa.parsed {
            names::DEPS_CACHE_MISSES
        } else {
            names::DEPS_CACHE_HITS
        };
        trace::counter(hit, 1);
        self.stamps.record(
            f.name,
            StampEntry {
                stat: f.path().map(|_| (f.mtime, f.size())),
                analysis: fa.analysis,
            },
        );
    }

    /// The analysis ladder of a seeded build: only the `changed` units
    /// are read and analyzed, and the last build's graph is reused
    /// unwalked (the feed vouches for every other record, counted as a
    /// stamp hit).  Returns the graph and the changed slots, ascending;
    /// `None`, recording nothing, when the graph does not cover them,
    /// a `names_pid` moved or a file fails to read or parse — the full
    /// ladder then runs and reports any error itself.
    fn reanalyze(
        &mut self,
        project: &Project,
        changed: &[Symbol],
    ) -> Option<(Arc<DepGraph>, Vec<usize>)> {
        let span = trace::span(names::SPAN_ANALYZE_ALL)
            .field("files", changed.len())
            .field("jobs", 1);
        let graph = Arc::clone(self.graph.as_ref()?);
        if graph.len() != project.files().len() {
            return None;
        }
        let mut slots = changed
            .iter()
            .map(|&u| graph.index_of(u))
            .collect::<Option<Vec<usize>>>()?;
        slots.sort_unstable();
        slots.dedup();
        let mut fresh = Vec::with_capacity(slots.len());
        for &i in &slots {
            let f = project.get(graph.order()[i])?;
            let fa = read_and_analyze(f, &self.stamps).ok()?;
            if fa.analysis.names_pid != graph.names_pid(i) {
                return None;
            }
            fresh.push((f, fa));
        }
        let vouched = graph.len() - slots.len();
        if vouched > 0 {
            trace::counter(names::STAMP_HITS, vouched as u64);
        }
        for (f, fa) in fresh {
            self.record_analysis(f, fa);
        }
        drop(span);
        let _span = trace::span(names::SPAN_GRAPH).field("units", graph.len());
        trace::counter(names::DEPS_PACK_HITS, 1);
        Some((graph, slots))
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
    /// `policy`, the calling thread among them.  For any `jobs`, the
    /// report (decisions, outcomes, failed and skipped sets, export
    /// pids) is the same.
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
        self.build_from(project, jobs, policy, None)
    }

    /// [`Irm::build_with`] for a `project` that differs from the last
    /// one built only in the sources of the `changed` units (no unit
    /// added, removed or renamed), as a change feed reports them.  When
    /// the seed holds (see `seedable`), only those units are analyzed
    /// and decided and the schedule is seeded from them; otherwise this
    /// is exactly [`Irm::build_with`].  The report is the same.
    ///
    /// # Errors
    ///
    /// As [`Irm::build_with`].
    pub fn build_changed(
        &mut self,
        project: &Project,
        jobs: usize,
        policy: FailurePolicy,
        changed: &[Symbol],
    ) -> Result<BuildReport, CoreError> {
        self.build_from(project, jobs, policy, Some(changed))
    }

    fn build_from(
        &mut self,
        project: &Project,
        jobs: usize,
        policy: FailurePolicy,
        changed: Option<&[Symbol]>,
    ) -> Result<BuildReport, CoreError> {
        // Quarantine-and-retry: a lazily archived body that turns out
        // to be corrupt (torn write, bit rot) surfaces as
        // `BinBodyCorrupt` mid-build.  Drop just that unit's cache
        // entry and rebuild — it recompiles alone, and since its source
        // is unchanged its export pid comes out identical, so
        // dependents cut off.  Each retry removes at least one cached
        // entry, so the loop is bounded by the cache size.  A quarantine
        // also voids the event seed, so a retry takes the full ladder.
        loop {
            match self.build_wavefront(project, jobs.max(1), policy, changed) {
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
        changed: Option<&[Symbol]>,
    ) -> Result<BuildReport, CoreError> {
        let strategy = self.strategy();
        let trusted = std::mem::take(&mut self.seedable)
            && policy == FailurePolicy::FailFast
            && !self.paranoid;
        let seeded = changed
            .filter(|_| trusted)
            .and_then(|units| self.reanalyze(project, units));
        let (graph, candidates) = match seeded {
            Some(seeded) => {
                trace::counter(names::SCHED_EVENT_SEEDED, 1);
                seeded
            }
            None => {
                self.analyze_all(project, jobs)?;
                let graph = self.dep_graph(project)?;
                let all = (0..graph.len()).collect();
                (graph, all)
            }
        };
        let order = graph.order();
        let n = order.len();
        let workers = jobs.min(n.max(1));
        let _build_span = trace::span(names::SPAN_BUILD)
            .field("strategy", strategy)
            .field("units", n)
            .field("jobs", workers);

        let seeds = {
            let _span = trace::span(names::SPAN_DIRTY).field("units", candidates.len());
            self.dirty_seeds(project, &graph, candidates)
        };
        let cone = Cone::walk(&graph, &seeds);
        let mut report = BuildReport {
            strategy,
            order: order.to_vec(),
            ..BuildReport::default()
        };
        if !cone.slots.is_empty() {
            // The longest import chain inside the cone bounds wall-clock
            // time no matter how many workers run.
            let mut chain = vec![0usize; cone.slots.len()];
            for (p, &i) in cone.slots.iter().enumerate() {
                let deepest = graph
                    .import_idx(i)
                    .iter()
                    .filter_map(|&j| cone.pos(j))
                    .map(|q| chain[q])
                    .max();
                chain[p] = 1 + deepest.unwrap_or(0);
            }
            let critical_path = chain.iter().copied().max().unwrap_or(0);
            trace::counter(names::CRITICAL_PATH, critical_path as u64);
            trace::event(names::BUILD_PARALLELISM)
                .field("critical_path", critical_path)
                .field("units", cone.slots.len())
                .field("jobs", workers);

            let outcomes: Vec<OnceLock<Result<TaskOutcome, CoreError>>> =
                cone.slots.iter().map(|_| OnceLock::new()).collect();
            let wave = {
                let shared = ParallelShared {
                    strategy,
                    graph: &graph,
                    project,
                    stamps: &self.stamps,
                    cone: &cone,
                    old_bins: &self.bins,
                    forced: &self.forced,
                    store: self.store.as_deref(),
                    envs: cone.slots.iter().map(|_| OnceLock::new()).collect(),
                    imported_envs: Mutex::default(),
                    outcomes: &outcomes,
                };
                let wave = Wavefront::new(&graph, &cone, &seeds, policy);
                let ready = wave.roots().map(Reverse).collect();
                let sched = (
                    Mutex::new(Sched {
                        wave,
                        ready,
                        in_flight: 0,
                    }),
                    Condvar::new(),
                );
                let drain = |w| {
                    let _worker_span = trace::span(names::SPAN_WORKER).field("worker", w);
                    drain_wavefront(&sched, &shared);
                };
                on_workers(workers, drain, || drain(0));
                let (lock, _) = sched;
                lock.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .wave
            };

            // Merge in topological order — the report is deterministic no
            // matter which worker finished when.  Fail-fast: everything
            // before the lowest failing unit merges, it reports, nothing
            // after it counts.  Keep-going: a failed unit has an `Err`
            // slot; a unit downstream of a failure was never dispatched,
            // is marked blocked and has an *empty* slot, and its blockers
            // (direct imports in the failed-or-skipped set) have always
            // been classified by the time the walk reaches it.
            let mut failed_or_skipped: HashSet<Symbol> = HashSet::new();
            for (p, slot) in outcomes.into_iter().enumerate() {
                let i = cone.slots[p];
                let name = order[i];
                match slot.into_inner() {
                    Some(Ok(out)) => self.merge_outcome(name, out, &mut report),
                    Some(Err(e)) if policy == FailurePolicy::FailFast => return Err(e),
                    Some(Err(e)) => {
                        record_failure(&mut report, name, e);
                        failed_or_skipped.insert(name);
                    }
                    None if wave.units[p].blocked => {
                        let blocked_on: Vec<Symbol> = graph
                            .import_units(i)
                            .iter()
                            .copied()
                            .filter(|u| failed_or_skipped.contains(u))
                            .collect();
                        record_skip(&mut report, name, blocked_on);
                        failed_or_skipped.insert(name);
                    }
                    // Settled without a trace, or (fail-fast) gated off.
                    None => {}
                }
            }
        }
        // Every unit the build never touched kept its bin: one count,
        // not one event per unit.
        let implied = n - report.outcomes.len();
        report.reused += implied;
        if implied > 0 {
            trace::counter(names::UNITS_REUSED, implied as u64);
        }
        self.seedable = policy == FailurePolicy::FailFast;
        Ok(report)
    }

    /// Merges one settled unit into the bin store and the report; always
    /// called in topological order.
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
            Some(entry) => {
                self.bins.insert(name, entry);
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
                report.reused += 1;
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

    /// [`Irm::execute`] with the build on `jobs` workers, then
    /// [`Irm::link_with_jobs`] over its report.
    ///
    /// # Errors
    ///
    /// Same as [`Irm::execute`].
    pub fn execute_with_jobs(
        &mut self,
        project: &Project,
        jobs: usize,
    ) -> Result<(BuildReport, DynEnv), CoreError> {
        let mut report = self.build_with_jobs(project, jobs)?;
        let env = self.link_with_jobs(project, &mut report, jobs)?;
        Ok((report, env))
    }

    /// Links and executes the units of `report`, the successful build
    /// that just ran, in its order, returning the populated dynamic
    /// environment; `report` ends as the report the final link ran
    /// against.
    ///
    /// Linking forces every body.  A corrupt archived body found here
    /// quarantines the unit and builds again (it recompiles alone, pids
    /// unchanged), then linking restarts from the first unit.  Bounded:
    /// each retry removes one cached entry.
    ///
    /// # Errors
    ///
    /// Build errors of a rebuild, or a
    /// [`LinkError`](crate::link::LinkError) wrapped in
    /// [`CoreError::Link`].
    pub fn link_with_jobs(
        &mut self,
        project: &Project,
        report: &mut BuildReport,
        jobs: usize,
    ) -> Result<DynEnv, CoreError> {
        loop {
            let (unit, detail) = match self.link_pass(&report.order, jobs)? {
                Ok(env) => return Ok(env),
                Err(corrupt) => corrupt,
            };
            if !self.quarantine_bin(unit) {
                return Err(CoreError::BinBodyCorrupt { unit, detail });
            }
            *report = self.build_with_jobs(project, jobs)?;
        }
    }

    /// One link pass over `order`.  The calling thread is the linker:
    /// it links and executes each unit in order, and the dynamic
    /// environment (`Rc`-based values) never leaves it.  Workers
    /// `1..jobs` take bodies in link order from a shared cursor and
    /// decode them into their cells ahead of it; when the linker's next
    /// body is not taken yet, the linker takes and decodes it itself
    /// rather than wait.  Returns the environment, or the first unit in
    /// order whose body would not decode; the decoders stop as soon as
    /// the linker does.  The cells, not the cursor, publish the decoded
    /// bins, so the atomics need no ordering.
    fn link_pass(
        &self,
        order: &[Symbol],
        jobs: usize,
    ) -> Result<Result<DynEnv, (Symbol, String)>, CoreError> {
        let _span = trace::span(names::SPAN_LINK)
            .field("units", order.len())
            .field("jobs", jobs);
        let entries = order
            .iter()
            .map(|name| self.bins.get(name).ok_or(CoreError::UnknownUnit(*name)))
            .collect::<Result<Vec<_>, _>>()?;
        // The first body in link order nobody has taken.
        let next = AtomicUsize::new(0);
        let stopped = AtomicBool::new(false);
        // Decodes a taken body into its cell, unless the build already
        // did.  A failure stays in the cell for the linker.  The span is
        // here, not in `force`, so builds that force bodies record none.
        let decode = |entry: &BinEntry| {
            if entry.cell.get().is_none() {
                let _span =
                    trace::span(names::SPAN_BIN_DECODE).field("unit", entry.meta.name.as_str());
                let _ = entry.force(&self.forced);
            }
        };
        // Takes the next untaken body and decodes it; false when none
        // is left.
        let decode_next = || match entries.get(next.fetch_add(1, Ordering::Relaxed)) {
            Some(entry) => {
                decode(entry);
                true
            }
            None => false,
        };
        let decode_ahead = |_| {
            while !stopped.load(Ordering::Relaxed) {
                if !decode_next() {
                    break;
                }
            }
        };
        let link_in_order = || {
            let mut env = DynEnv::new();
            for (i, entry) in entries.iter().enumerate() {
                // An untaken body is the linker's own; while a decoder
                // holds this one, decode the next untaken one instead of
                // waiting.
                while entry.cell.get().is_none() {
                    if next.fetch_max(i + 1, Ordering::Relaxed) <= i {
                        decode(entry);
                        break;
                    }
                    if !decode_next() {
                        break;
                    }
                }
                match entry.force(&self.forced) {
                    Ok(bin) => {
                        link_and_execute(&bin.unit, &mut env).map_err(CoreError::Link)?;
                    }
                    Err(CoreError::BinBodyCorrupt { unit, detail }) => {
                        return Ok(Err((unit, detail)));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(Ok(env))
        };
        on_workers(jobs.min(entries.len()), decode_ahead, || {
            let linked = link_in_order();
            stopped.store(true, Ordering::Relaxed);
            linked
        })
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

/// The cone of one build: the seeds and their transitive dependents,
/// walked over the reverse edges.  A unit outside it has an unchanged
/// source, its old import pids and no rebuilt import, so it is never
/// visited; per-build state is indexed by position in the cone.
struct Cone {
    /// Topological slots, ascending.
    slots: Vec<usize>,
    /// Topological slot → position in `slots`.
    pos: HashMap<usize, usize>,
}

impl Cone {
    fn walk(graph: &DepGraph, seeds: &[usize]) -> Cone {
        let mut pos: HashMap<usize, usize> = seeds.iter().map(|&s| (s, 0)).collect();
        let mut stack = seeds.to_vec();
        while let Some(i) = stack.pop() {
            for &d in graph.dependents(i) {
                if let std::collections::hash_map::Entry::Vacant(v) = pos.entry(d) {
                    v.insert(0);
                    stack.push(d);
                }
            }
        }
        let mut slots: Vec<usize> = pos.keys().copied().collect();
        slots.sort_unstable();
        for (p, &i) in slots.iter().enumerate() {
            pos.insert(i, p);
        }
        if !seeds.is_empty() {
            trace::counter(names::SCHED_DIRTY_SEED, seeds.len() as u64);
            trace::counter(names::SCHED_DIRTY_CONE, slots.len() as u64);
        }
        Cone { slots, pos }
    }

    /// The position of topological slot `i`, if it is in the cone.
    fn pos(&self, i: usize) -> Option<usize> {
        self.pos.get(&i).copied()
    }
}

/// One cone unit's scheduling state.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    /// Cone imports not yet settled.
    indegree: usize,
    /// Its own evidence demands a recompile.
    seed: bool,
    /// Some import was rebuilt.
    rebuilt_import: bool,
    /// Keep-going: downstream of a failure.
    blocked: bool,
}

/// The scheduling state of one build: in-degrees over the [`Cone`],
/// released as units settle under the [`Sched`] lock.
///
/// Only a unit that may recompile is dispatched: a seed, or a unit
/// whose decision against a rebuilt import says so.  The rest settles
/// here, under the lock, from bin metadata: behind a rebuilt import
/// whose pid held it is the paper's cutoff, recorded; behind none it
/// keeps its bin and leaves no trace.
struct Wavefront<'a> {
    graph: &'a DepGraph,
    cone: &'a Cone,
    policy: FailurePolicy,
    /// By cone position.
    units: Vec<Pending>,
    /// Fail-fast: the lowest failing cone position so far.
    min_err: Option<usize>,
}

impl<'a> Wavefront<'a> {
    fn new(graph: &'a DepGraph, cone: &'a Cone, seeds: &[usize], policy: FailurePolicy) -> Self {
        let mut units = vec![Pending::default(); cone.slots.len()];
        for &s in seeds {
            units[cone.pos[&s]].seed = true;
        }
        for &i in &cone.slots {
            for d in graph.dependents(i) {
                units[cone.pos[d]].indegree += 1;
            }
        }
        Wavefront {
            graph,
            cone,
            policy,
            units,
            min_err: None,
        }
    }

    /// The units ready before anything has run: the seeds with no seed
    /// upstream (every other cone unit has a cone import).
    fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.units.len()).filter(|&p| self.units[p].indegree == 0)
    }

    /// Records position `p` as settled (`Some(rebuilt)`) or failed
    /// (`None`): units it makes ready to dispatch go onto `released`,
    /// the rest settle in place and propagate in turn.
    ///
    /// Fail-fast: a failure releases nothing, and after it only units
    /// *before* the lowest failing position still settle — the only
    /// ones whose outcomes can merge.  Keep-going: a failure *poisons*
    /// its dependents, which complete here unreleased (poisoning theirs
    /// in turn), with empty slots and `blocked` set for the merge.
    fn complete(
        &mut self,
        p: usize,
        settled: Option<bool>,
        shared: &ParallelShared<'_>,
        released: &mut Vec<usize>,
    ) {
        if settled.is_none() && self.policy == FailurePolicy::FailFast {
            self.min_err = Some(self.min_err.map_or(p, |k| k.min(p)));
            return;
        }
        let mut worklist = vec![(p, settled)];
        while let Some((u, settled)) = worklist.pop() {
            for d in self.graph.dependents(self.cone.slots[u]) {
                let q = self.cone.pos[d];
                let unit = &mut self.units[q];
                match settled {
                    None => unit.blocked = true,
                    Some(rebuilt) => unit.rebuilt_import |= rebuilt,
                }
                unit.indegree -= 1;
                if unit.indegree > 0 || self.min_err.is_some_and(|k| q >= k) {
                    continue;
                }
                if unit.blocked {
                    worklist.push((q, None));
                } else if unit.seed || (unit.rebuilt_import && !shared.settle(q)) {
                    released.push(q);
                } else {
                    worklist.push((q, Some(false)));
                }
            }
        }
    }
}

/// Runs `a` and `b` on [`on_workers`] and returns both results: on two
/// workers when `jobs >= 2`, else one after the other on the calling
/// thread.
pub(crate) fn join<A: Send, B: Send>(
    jobs: usize,
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    fn run<T>(task: &Mutex<Option<impl FnOnce() -> T>>, out: &Mutex<Option<T>>) {
        let task = task.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(task) = task {
            let result = task();
            *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        }
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    let next = AtomicUsize::new(0);
    let take = |_| loop {
        match next.fetch_add(1, Ordering::Relaxed) {
            0 => run(&a, &ra),
            1 => run(&b, &rb),
            _ => break,
        }
    };
    on_workers(jobs.clamp(1, 2), take, || take(0));
    fn took<T>(out: Mutex<Option<T>>) -> T {
        out.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("on_workers returns once every task ran")
    }
    (took(ra), took(rb))
}

/// Runs `lead()` as worker 0 on the calling thread and `work(w)` for
/// each other worker `w` in `1..jobs` on scoped threads that report to
/// the caller's trace sink and see its fault plan; returns `lead`'s
/// result once all have returned.  `lead` never leaves the calling
/// thread, so it need be neither `Send` nor `Sync`.
fn on_workers<R>(jobs: usize, work: impl Fn(usize) + Sync, lead: impl FnOnce() -> R) -> R {
    std::thread::scope(|scope| {
        for w in 1..jobs {
            let sink = trace::fork_current();
            let plan = faults::fork_current();
            let work = &work;
            scope.spawn(move || {
                if let Some(sink) = sink {
                    trace::install(sink);
                }
                let _faults = plan.map(faults::install_forked);
                work(w);
                trace::uninstall();
            });
        }
        lead()
    })
}

/// What the wavefront's workers share under one lock.
struct Sched<'a> {
    wave: Wavefront<'a>,
    /// Released units, lowest topological index on top.
    ready: BinaryHeap<Reverse<usize>>,
    /// Units taken off `ready` and not yet completed.
    in_flight: usize,
}

/// One worker's share of a build: take the lowest ready unit, run it
/// without the lock, then complete it and release its dependents under
/// the lock.  Returns once nothing is ready or running, or when the
/// lock is poisoned.
///
/// [`ParallelShared::run`] catches unit panics, so a worker unwinds only
/// from under the lock: the lock is then poisoned, and the unwinding
/// worker wakes the others so each finds that out and returns.
fn drain_wavefront(sched: &(Mutex<Sched<'_>>, Condvar), shared: &ParallelShared<'_>) {
    struct WakeOnUnwind<'a>(&'a Condvar);
    impl Drop for WakeOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.notify_all();
            }
        }
    }
    let (lock, cvar) = sched;
    let _wake = WakeOnUnwind(cvar);
    let mut released = Vec::new();
    let Ok(mut s) = lock.lock() else { return };
    loop {
        let next = s.ready.pop().map(|Reverse(i)| i);
        // Fail-fast: a unit at or after the lowest failure can never
        // merge, and every unit still ready is one.
        let next = next.filter(|&i| s.wave.min_err.is_none_or(|k| i < k));
        let Some(i) = next else {
            s.ready.clear();
            if s.in_flight == 0 {
                return;
            }
            s = match cvar.wait(s) {
                Ok(s) => s,
                Err(_) => return,
            };
            continue;
        };
        s.in_flight += 1;
        drop(s);
        let settled = shared.run(i);
        s = match lock.lock() {
            Ok(s) => s,
            Err(_) => return,
        };
        s.in_flight -= 1;
        s.wave.complete(i, settled, shared, &mut released);
        s.ready.extend(released.drain(..).map(Reverse));
        cvar.notify_all();
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

/// True when `g` still describes exactly `project`'s analyses: same
/// unit set, and every unit's import/export name digest unchanged.  The
/// graph is a function of those names alone, so equal `names_pid`s imply
/// the same export map, the same resolved imports, and (the derivation
/// being deterministic) the same topological order.  A body edit keeps
/// its names, so it keeps the graph.  The digests are stored, never
/// recomputed here: this is one `u128` compare per unit.
fn graph_is_current(g: &DepGraph, project: &Project, stamps: &StampCache) -> bool {
    g.len() == project.files().len()
        && g.order().iter().enumerate().all(|(i, &u)| {
            project.get(u).is_some()
                && stamps
                    .get(u)
                    .is_some_and(|e| e.analysis.names_pid == g.names_pid(i))
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
/// published at most once per unit per build.
type EnvSlot = OnceLock<Result<Arc<Bindings>, CoreError>>;

/// What one cone unit resolved to; merged into the bin store and the
/// report in topological order once every worker returns.
#[derive(Debug)]
struct TaskOutcome {
    decision: RebuildDecision,
    /// `Some` iff the unit recompiled or was fetched from the store:
    /// its bin, sealed by the worker that made it.
    new_bin: Option<BinEntry>,
    /// The new bin came from the artifact store, not a compile.
    from_store: bool,
    timings: CompileTimings,
    warnings: Vec<String>,
    rehydrate: Duration,
}

impl TaskOutcome {
    /// `decision` with no new bin, and the trace event it leaves.
    fn decided(name: Symbol, decision: RebuildDecision) -> TaskOutcome {
        trace::event("irm.decision")
            .field("unit", name.as_str())
            .field("kind", decision.kind());
        TaskOutcome {
            decision,
            new_bin: None,
            from_store: false,
            timings: CompileTimings::default(),
            warnings: Vec::new(),
            rehydrate: Duration::ZERO,
        }
    }

    /// A unit that keeps its bin.
    fn reuse(name: Symbol, decision: RebuildDecision) -> TaskOutcome {
        trace::counter(names::UNITS_REUSED, 1);
        if matches!(decision, RebuildDecision::CutOff { .. }) {
            trace::counter(names::CUTOFF_HITS, 1);
        }
        TaskOutcome::decided(name, decision)
    }
}

/// Build state shared by every wavefront worker.
struct ParallelShared<'a> {
    strategy: Strategy,
    /// Topological order and resolved imports, by slot and by name.
    graph: &'a DepGraph,
    project: &'a Project,
    /// Every project unit's analysis.
    stamps: &'a StampCache,
    cone: &'a Cone,
    /// The bin store as of the start of the build.  New bins live in
    /// `outcomes` until the build merges them, so old state stays
    /// readable (a unit's *own* decision reads its pre-build bin).
    old_bins: &'a HashMap<Symbol, BinEntry>,
    /// Where forcing a lazy body logs it.
    forced: &'a Mutex<Vec<Symbol>>,
    /// The shared artifact store, probed before compiling and published
    /// to after.
    store: Option<&'a Store>,
    /// Export environments by cone position.
    envs: Vec<EnvSlot>,
    /// Export environments of imports outside the cone, by topological
    /// slot, each created on first use.
    imported_envs: Mutex<HashMap<usize, Arc<EnvSlot>>>,
    /// By cone position.
    outcomes: &'a [OnceLock<Result<TaskOutcome, CoreError>>],
}

impl ParallelShared<'_> {
    /// The outcome of topological slot `j`, if it is in the cone and
    /// has settled.
    fn outcome(&self, j: usize) -> Option<&TaskOutcome> {
        match self.outcomes[self.cone.pos(j)?].get() {
            Some(Ok(out)) => Some(out),
            _ => None,
        }
    }

    /// Current facts about a unit: its fresh bin if it recompiled this
    /// build, else its old bin.  Only called for *settled* units (a unit
    /// is decided after all its imports settle), so the outcome slot
    /// read is never racy.
    fn facts(&self, u: Symbol) -> Option<ImportFacts> {
        let new_bin = self
            .graph
            .index_of(u)
            .and_then(|j| self.outcome(j))
            .and_then(|out| out.new_bin.as_ref());
        if let Some(b) = new_bin {
            return Some(ImportFacts {
                export_pid: b.meta.export_pid,
                mtime: b.meta.mtime,
                rebuilt: true,
            });
        }
        self.old_bins.get(&u).map(|e| ImportFacts {
            export_pid: e.meta.export_pid,
            mtime: e.meta.mtime,
            rebuilt: false,
        })
    }

    /// The decision for topological slot `i`, against its imports'
    /// current facts.
    fn decide(&self, i: usize) -> Result<RebuildDecision, CoreError> {
        let name = self.graph.order()[i];
        let file = self.project.get(name).ok_or(CoreError::UnknownUnit(name))?;
        Ok(decide_unit(
            self.strategy,
            file,
            analysis_of(self.stamps, name)?.source_pid,
            self.graph.import_units(i),
            self.old_bins.get(&name).map(|e| &e.meta),
            &|u| self.facts(u),
        ))
    }

    /// Settles cone position `p` in place, without dispatching it, when
    /// its decision keeps its bin; false when it must be dispatched.
    /// Called under the scheduler lock once every import has settled.
    fn settle(&self, p: usize) -> bool {
        let i = self.cone.slots[p];
        match self.decide(i) {
            Ok(decision) if !decision.requires_recompile() => {
                let out = TaskOutcome::reuse(self.graph.order()[i], decision);
                let _ = self.outcomes[p].set(Ok(out));
                true
            }
            _ => false,
        }
    }

    /// Runs cone position `p` under the per-unit panic guard and fills
    /// its outcome slot: `Some(rebuilt)` once it settled, `None` when it
    /// failed.  A panicking compiler fails this unit, never the worker
    /// or the build.
    fn run(&self, p: usize) -> Option<bool> {
        let i = self.cone.slots[p];
        let res = isolate_unit(self.graph.order()[i], || self.run_task(p, i));
        let settled = res.as_ref().ok().map(|out| out.new_bin.is_some());
        let _ = self.outcomes[p].set(res);
        settled
    }

    /// Decide-then-maybe-compile for cone position `p`, topological
    /// slot `i`.
    fn run_task(&self, p: usize, i: usize) -> Result<TaskOutcome, CoreError> {
        let name = self.graph.order()[i];
        let units = self.graph.import_units(i);
        let _task = trace::span(names::SPAN_TASK).field("unit", name.as_str());

        let decision = self.decide(i)?;
        if !decision.requires_recompile() {
            return Ok(TaskOutcome::reuse(name, decision));
        }
        let file = self.project.get(name).ok_or(CoreError::UnknownUnit(name))?;
        let sp = analysis_of(self.stamps, name)?.source_pid;

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
                        // No eager env publication: dependents that need
                        // the exports decode and rehydrate this bin via
                        // `rehydrate_env`, exactly like a reused unit.
                        let entry = BinEntry::sealed(&bin);
                        let decision = RebuildDecision::StoreHit {
                            key: key.to_string(),
                            cause: Box::new(decision),
                        };
                        return Ok(TaskOutcome {
                            new_bin: Some(entry),
                            from_store: true,
                            ..TaskOutcome::decided(name, decision)
                        });
                    }
                    _ => {
                        trace::event(names::STORE_REJECT_EVENT).field("unit", name.as_str());
                    }
                }
            }
        }

        let decided = TaskOutcome::decided(name, decision);
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
        let _ = self.envs[p].set(Ok(out.exports.clone()));
        let mut bin = BinFile {
            unit: out.unit,
            mtime: 0,
        };
        if let (Some(store), Some(key)) = (self.store, store_key) {
            publish_to_store(store, key, &bin);
        }
        // Seal the bin here, on this worker: its container bytes and
        // pack digest are what the save writes.
        bin.mtime = tick();
        Ok(TaskOutcome {
            new_bin: Some(BinEntry::sealed(&bin)),
            timings: out.timings,
            warnings: out.warnings.iter().map(|w| w.to_string()).collect(),
            rehydrate,
            ..decided
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
        let imported;
        let slot = match self.cone.pos(j) {
            Some(p) => &self.envs[p],
            None => {
                let mut envs = self
                    .imported_envs
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                imported = Arc::clone(envs.entry(j).or_default());
                &imported
            }
        };
        if let Some(r) = slot.get() {
            trace::counter(names::ENV_CACHE_HITS, 1);
            return r.clone();
        }
        trace::counter(names::ENV_CACHE_MISSES, 1);
        slot.get_or_init(|| self.rehydrate_env(j, rehydrate_acc))
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
        // Forcing may find a corrupt archived body; the error
        // propagates up as this unit's failure and the caller's
        // quarantine-and-retry loop recompiles it.
        let bin = self
            .outcome(j)
            .and_then(|out| out.new_bin.as_ref())
            .or_else(|| self.old_bins.get(&unit))
            .ok_or(CoreError::UnknownUnit(unit))?
            .force(self.forced)?;
        let t0 = Instant::now();
        let _span = trace::span(names::SPAN_REHYDRATE).field("unit", unit.as_str());
        let ctx = RehydrateContext::with_pervasives(ctx_envs.iter().map(|e| e.as_ref()));
        let (env, stats) = rehydrate(
            &bin.unit.env_pickle,
            &ctx,
            bin.unit.name,
            bin.unit.export_pid,
        )
        .map_err(|e| CoreError::Pickle { unit, error: e })?;
        trace::counter(names::REHYDRATE_NODES, stats.nodes as u64);
        trace::counter(names::REHYDRATE_STUBS, stats.stubs as u64);
        *acc += t0.elapsed();
        Ok(env)
    }
}

/// Maps each exported top-level name to the unit exporting it.
fn exporters(project: &Project, stamps: &StampCache) -> Result<HashMap<Symbol, Symbol>, CoreError> {
    let mut map: HashMap<Symbol, Symbol> = HashMap::new();
    let mut units: Vec<Symbol> = project.files().iter().map(|f| f.name).collect();
    units.sort_by_key(|s| s.as_str());
    for unit in units {
        for name in analysis_of(stamps, unit)?.exports() {
            if let Some(prev) = map.insert(*name, unit) {
                if prev != unit {
                    return Err(CoreError::DuplicateExport {
                        name: *name,
                        units: vec![prev, unit],
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
    stamps: &StampCache,
    exporters: &HashMap<Symbol, Symbol>,
) -> Result<Vec<Symbol>, CoreError> {
    // Validate imports first for a precise error.
    for f in project.files() {
        for import in analysis_of(stamps, f.name)?.imports() {
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
        stamps: &StampCache,
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
        let mut deps: Vec<Symbol> = analysis_of(stamps, unit)?
            .imports()
            .iter()
            .map(|n| exporters[n])
            .collect();
        deps.sort_by_key(|s| s.as_str());
        deps.dedup();
        for d in deps {
            if d != unit {
                visit(d, stamps, exporters, state, order, stack)?;
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
        visit(u, stamps, exporters, &mut state, &mut order, &mut stack)?;
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
