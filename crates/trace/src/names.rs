//! Canonical counter and span names used across the pipeline.
//!
//! Keeping them in one module prevents drift between the code that
//! increments a counter and the code (tests, exporters, bench tables)
//! that reads it back by name.

/// Units compiled (recompiled or first-compiled) during a build.
pub const UNITS_COMPILED: &str = "irm.units_compiled";
/// Units reused untouched (bin valid, no import pid changed).
pub const UNITS_REUSED: &str = "irm.units_reused";
/// Cutoff hits: a dependency recompiled but its export pid was unchanged,
/// so the dependent was *not* recompiled.
pub const CUTOFF_HITS: &str = "irm.cutoff_hits";

/// Analyses reused after a read: the file was read and digested to the
/// source pid of its recorded analysis.
pub const DEPS_CACHE_HITS: &str = "irm.deps_cache_hits";
/// Analyses parsed: a new or changed source.
pub const DEPS_CACHE_MISSES: &str = "irm.deps_cache_misses";

/// Rehydration environment-cache hits (same export pid already forced).
pub const ENV_CACHE_HITS: &str = "irm.env_cache_hits";
/// Rehydration environment-cache misses.
pub const ENV_CACHE_MISSES: &str = "irm.env_cache_misses";

/// Bytes written by `save_bins`.
pub const BIN_BYTES_WRITTEN: &str = "irm.bin_bytes_written";
/// Bytes read by `load_bins`.
pub const BIN_BYTES_READ: &str = "irm.bin_bytes_read";

/// Artifact-store hits: a recompile verdict satisfied by a verified
/// store object instead of a compile.
pub const STORE_HITS: &str = "store.hit";
/// Artifact-store misses (no object, unreadable, or failed verification).
pub const STORE_MISSES: &str = "store.miss";
/// Objects evicted by store garbage collection.
pub const STORE_EVICTIONS: &str = "store.evict";
/// Payload bytes served by verified store reads.
pub const STORE_BYTES_READ: &str = "store.bytes_read";
/// Payload bytes published into the store.
pub const STORE_BYTES_WRITTEN: &str = "store.bytes_written";
/// Objects that failed digest verification and were quarantined.
pub const STORE_QUARANTINED: &str = "store.quarantined";
/// Event: one per quarantined object, with its `key`.
pub const STORE_QUARANTINE_EVENT: &str = "store.quarantine";
/// Event: a store object matched the key but failed semantic validation
/// against the requesting unit (e.g. a different unit name); treated as
/// a miss without quarantining.
pub const STORE_REJECT_EVENT: &str = "store.reject";

/// Units whose compile (or rehydration) failed this build.
pub const UNITS_FAILED: &str = "irm.units_failed";
/// Units skipped because a transitive import failed (keep-going mode).
pub const UNITS_SKIPPED: &str = "irm.units_skipped";
/// Event: one per unit whose compile panicked; fields `unit`, `payload`.
/// The panic is caught per unit and surfaced as an internal error —
/// it fails the unit (and its dependents), never the worker pool.
pub const UNIT_PANIC_EVENT: &str = "irm.unit_panic";
/// Corrupt or unreadable bin files skipped by `load_bins` (the unit
/// recompiles instead of poisoning the whole cache load).
pub const BIN_CORRUPT: &str = "irm.bin_corrupt";

/// The store flipped into degraded (no-store) mode after repeated IO or
/// lock failures; builds continue correctly without it.
pub const STORE_DEGRADED: &str = "store.degraded";
/// Transient store IO/lock failures that were retried.
pub const STORE_RETRIES: &str = "store.retry";
/// Stale lock files (crashed store writer, dead daemon) broken by a
/// later acquirer.
pub const LOCK_BROKEN: &str = "lock.broken";

/// Nodes visited while dehydrating (pickling) export environments.
pub const PICKLE_NODES: &str = "pickle.nodes";
/// Import stubs emitted while dehydrating.
pub const PICKLE_STUBS: &str = "pickle.stubs";
/// Back-references emitted while dehydrating (structure sharing).
pub const PICKLE_BACKREFS: &str = "pickle.backrefs";
/// Nodes rebuilt while rehydrating (unpickling).
pub const REHYDRATE_NODES: &str = "pickle.rehydrate_nodes";
/// Import stubs resolved while rehydrating.
pub const REHYDRATE_STUBS: &str = "pickle.rehydrate_stubs";
/// Owned heap allocations made for string or byte payloads while
/// rehydrating. The zero-copy reader interns symbols straight from the
/// pickle buffer, so a healthy warm build keeps this at zero; any
/// nonzero value means a copy crept back onto the hot path.
pub const REHYDRATE_ALLOCS: &str = "rehydrate.allocs";
/// Pickle bytes decoded by rehydration (borrowed, not copied).
pub const PICKLE_BYTES: &str = "pickle.bytes";

/// Stamp-cache hits: a unit's `(mtime_ns, size)` matched its record, so
/// the source was neither read nor re-digested (timestamps are a hint;
/// the recorded digest is the truth and `--paranoid` re-verifies it).
pub const STAMP_HITS: &str = "stamp.hits";
/// Pack saves that wrote no stamp section because no entry changed
/// since the last save: a fully warm build writes no stamps, no matter
/// how many entries the cache holds.
pub const STAMP_SAVES_SKIPPED: &str = "stamp.saves_skipped";
/// Stamp-cache misses: a new, touched, or resized file that had to be
/// read and digested (not counted under `--paranoid`, which reads every
/// file).
pub const STAMP_MISSES: &str = "stamp.misses";
/// Source files actually read from disk (forced lazy texts). A warm
/// no-op build keeps this at zero.
pub const SOURCE_READS: &str = "source.reads";

/// Units whose bin metadata was served from the `bins.pack` footer index
/// alone — no pickle body was read or parsed for the rebuild decision.
pub const BIN_INDEX_ONLY: &str = "bin.index_only";
/// Pack bodies lazily sliced, digest-verified, and parsed on first use.
pub const BIN_LAZY_BODIES: &str = "bin.lazy_bodies";
/// Pack bodies that failed digest verification when first forced; the
/// unit is quarantined (dropped from the cache) and rebuilt alone.
pub const BIN_BODY_QUARANTINED: &str = "bin.body_quarantined";

/// Critical-path length of the analysis DAG (longest import chain, in
/// units) — with `build.parallelism`, the ceiling on wavefront speedup.
pub const CRITICAL_PATH: &str = "irm.critical_path";

/// Units seeding the dirty set: stamp-missed, changed, or bin-less units
/// whose rebuild decision (ignoring cascades) already says "recompile".
/// A no-op build keeps this at zero.
pub const SCHED_DIRTY_SEED: &str = "sched.dirty_seed";
/// Units in the cone: the dirty seed plus its transitive dependents,
/// the units whose in-degrees the scheduler counts.  Only a seed or a
/// unit whose import was rebuilt is decided, and only one that may
/// recompile is dispatched; the rest of the cone settles under the
/// scheduler lock, and everything outside it is never touched.
pub const SCHED_DIRTY_CONE: &str = "sched.dirty_cone";
/// Builds seeded from the units a change feed named: only those were
/// analyzed and decided, with no stat check, graph check or dirty
/// pre-pass over the whole project.  A build the seed cannot vouch for
/// takes the full ladder and leaves this at zero.
pub const SCHED_EVENT_SEEDED: &str = "sched.event_seeded";

/// Import DAGs reused from the previous build or the pack's graph
/// section, because no unit's import or export names changed (no
/// per-unit import re-resolution, no full topological re-sort).
pub const DEPS_PACK_HITS: &str = "deps.pack_hits";
/// Import DAGs re-derived from per-unit analyses because no graph was
/// saved or a unit's names, or the unit set, changed (the safe
/// fallback, never an error).
pub const DEPS_PACK_MISSES: &str = "deps.pack_misses";

/// Requests served by the resident build daemon (handshake excluded):
/// build, stats, status, stop.
pub const DAEMON_REQUESTS: &str = "daemon.requests";
/// Kernel file events the daemon's watch drained for `*.sml` files.
pub const DAEMON_WATCH_EVENTS: &str = "daemon.watch_events";
/// Project deltas applied to the resident session (units whose
/// in-memory stat was replaced or removed).
pub const DAEMON_INVALIDATIONS: &str = "daemon.invalidations";
/// Resident builds that stat-rescanned the project directory because
/// no change feed could vouch for it: none attached, a queue overflow,
/// a watch error, the directory moved, or an injected fault.
pub const DAEMON_WATCH_RESCANS: &str = "daemon.watch_rescans";

/// Build records appended to the persistent ledger (`builds.jsonl`).
pub const LEDGER_APPENDS: &str = "ledger.appends";
/// Ledger rotations (compactions to the newest records).
pub const LEDGER_ROTATIONS: &str = "ledger.rotations";

/// Event: one per parallel build, with `critical_path`, `units` and
/// `jobs` fields — total units over critical-path length is the maximum
/// parallel speedup the DAG admits.
pub const BUILD_PARALLELISM: &str = "build.parallelism";

/// Span: a resident build bringing its project up to date: the change
/// feed's drain, the re-stat of the files it names (or the fallback
/// rescan) and the application of the resulting events.
pub const SPAN_RESIDENT_REFRESH: &str = "resident.refresh";
/// Span: a resident build publishing its result after the ledger
/// append: releasing decoded bodies, assembling the snapshot and
/// replacing (dropping) the previous one.
pub const SPAN_RESIDENT_SNAPSHOT: &str = "resident.snapshot";

/// Span: one whole `Irm::build` call.
pub const SPAN_BUILD: &str = "irm.build";
/// Span: opening a build session over a source directory
/// (`BuildSession::open_dir`): the scan and the pack load, overlapped
/// on two workers when the build has them.
pub const SPAN_SESSION_OPEN: &str = "session.open";
/// Span: loading the pack archive's index (`Irm::load_bins`).
pub const SPAN_LOAD_BINS: &str = "irm.load_bins";
/// Span: scanning a source directory (`Project::from_dir`).
pub const SPAN_SCAN: &str = "irm.scan";
/// Span: the analyze-everything phase (stamp ladder over all files).
pub const SPAN_ANALYZE_ALL: &str = "irm.analyze_all";
/// Span: dependency-graph construction (reuse of the saved graph, or a
/// re-derive: export map, import resolution, topological order).
pub const SPAN_GRAPH: &str = "irm.graph";
/// Span: dirty-set computation (per-unit rebuild decisions + cone).
pub const SPAN_DIRTY: &str = "irm.dirty";
/// Span: one wavefront worker's lifetime within a parallel build.
pub const SPAN_WORKER: &str = "irm.worker";
/// Span: one unit's decide/compile task on a wavefront worker.
pub const SPAN_TASK: &str = "irm.task";
/// Span: dependency analysis of one unit.
pub const SPAN_ANALYZE: &str = "irm.analyze";
/// Span: rehydrating one unit's exports.
pub const SPAN_REHYDRATE: &str = "irm.rehydrate";
/// Span: parse phase of one unit's compile.
pub const SPAN_PARSE: &str = "compile.parse";
/// Span: elaborate phase of one unit's compile.
pub const SPAN_ELABORATE: &str = "compile.elaborate";
/// Span: interface-hash phase of one unit's compile: the digest of the
/// pickle's bytes and the entity pids derived from it.
pub const SPAN_HASH: &str = "compile.hash";
/// Span: dehydrate phase of one unit's compile, its context set
/// included.
pub const SPAN_DEHYDRATE: &str = "compile.dehydrate";
/// Span: one whole link pass (`Irm::link_with_jobs`): the caller links
/// and executes every unit in build order while the other workers
/// decode bodies ahead of it.
pub const SPAN_LINK: &str = "irm.link";
/// Span: decoding one cached bin body on first use — the pack read and
/// digest check, then the container decode.
pub const SPAN_BIN_DECODE: &str = "bin.decode";
/// Span: linking and executing one unit (type-safe linkage, §5).
pub const SPAN_LINK_EXECUTE: &str = "link.execute";
/// Span: one artifact-store probe (read + verify).
pub const SPAN_STORE_GET: &str = "store.get";
/// Span: one artifact-store publication (stage + fsync + rename).
pub const SPAN_STORE_PUT: &str = "store.put";
/// Span: one store garbage-collection sweep.
pub const SPAN_STORE_GC: &str = "store.gc";
