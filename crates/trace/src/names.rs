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

/// Dependency-analysis cache hits (source pid unchanged).
pub const DEPS_CACHE_HITS: &str = "irm.deps_cache_hits";
/// Dependency-analysis cache misses (new or changed source).
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

/// Stamp-cache hits: `(path, mtime_ns, size)` matched, so the source was
/// neither read nor re-digested (timestamps are a hint; the recorded
/// digest is the truth and `--paranoid` re-verifies it).
pub const STAMP_HITS: &str = "stamp.hits";
/// Pack saves that wrote no stamp section because no entry changed
/// since the last save: a fully warm build writes no stamps, no matter
/// how many entries the cache holds.
pub const STAMP_SAVES_SKIPPED: &str = "stamp.saves_skipped";
/// Stamp-cache misses: a new, touched, or resized file that had to be
/// read and digested (also counted when running `--paranoid`).
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
/// Units in the scheduled cone: the dirty seed plus its transitive
/// dependents.  Everything outside the cone is reused without being
/// dispatched, so scheduler work is O(cone), not O(project).
pub const SCHED_DIRTY_CONE: &str = "sched.dirty_cone";

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
/// Filesystem change events observed by the daemon's watcher (one per
/// added/modified/removed source file, post-debounce).
pub const DAEMON_WATCH_EVENTS: &str = "daemon.watch_events";
/// Project deltas the watcher fed into the resident session (units whose
/// in-memory stat was replaced or removed without a directory rescan).
pub const DAEMON_INVALIDATIONS: &str = "daemon.invalidations";

/// Build records appended to the persistent ledger (`builds.jsonl`).
pub const LEDGER_APPENDS: &str = "ledger.appends";
/// Ledger rotations (compactions to the newest records).
pub const LEDGER_ROTATIONS: &str = "ledger.rotations";

/// Event: one per parallel build, with `critical_path`, `units` and
/// `jobs` fields — total units over critical-path length is the maximum
/// parallel speedup the DAG admits.
pub const BUILD_PARALLELISM: &str = "build.parallelism";

/// Span: one whole `Irm::build` call.
pub const SPAN_BUILD: &str = "irm.build";
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
/// Span: interface-hash phase of one unit's compile.
pub const SPAN_HASH: &str = "compile.hash";
/// Span: dehydrate phase of one unit's compile.
pub const SPAN_DEHYDRATE: &str = "compile.dehydrate";
/// Span: one artifact-store probe (read + verify).
pub const SPAN_STORE_GET: &str = "store.get";
/// Span: one artifact-store publication (stage + fsync + rename).
pub const SPAN_STORE_PUT: &str = "store.put";
/// Span: one store garbage-collection sweep.
pub const SPAN_STORE_GC: &str = "store.gc";
