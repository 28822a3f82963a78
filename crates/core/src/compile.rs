//! The compile pipeline: parse → dependency analysis → elaborate →
//! dehydrate → hash (§3's `compile`, with §4's pickling and §5's
//! intrinsic pids).
//!
//! The pickle is the only walk over an exported environment.  The export
//! pid is the digest of the pickle's bytes, so it has §5's properties
//! because the pickle holds exactly the interface:
//!
//! * editing comments, whitespace or a function body without changing an
//!   exported type leaves the bytes, hence the pid, unchanged — this is
//!   what makes **cutoff recompilation** possible;
//! * any observable interface change (new export, changed type, changed
//!   datatype shape, a functor's parameter name) changes the bytes;
//! * entities the unit creates are numbered in the order the pickle
//!   writes them, never by session stamp (the paper's alpha-conversion of
//!   provisional pids), and entity `n` then receives the pid
//!   `digest(unit, export pid, n)`;
//! * previously compiled entities (imports, pervasives, re-exports) are
//!   stubs carrying their existing pids, so the interface reflects the
//!   precise identities of the types it re-exports.
//!
//! Unlike the paper we also mix the *unit name* into derived entity pids:
//! two units with structurally identical interfaces then export equal
//! interface pids but distinct generative entities (sound linkage).

use std::sync::Arc;
use std::time::{Duration, Instant};

use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::{collect_external_pids, dehydrate, ContextPids, Pickle, PickleOptions};
use smlsc_statics::elab::{elaborate_unit, ImportEnv, ImportedUnit};
use smlsc_statics::env::Bindings;
use smlsc_syntax::{deps::free_module_names, parse_unit};
use smlsc_trace::{self as trace, names};

use crate::unit::{CompiledUnit, ImportEdge};
use crate::CoreError;

/// One resolved import available to a compilation.
#[derive(Debug, Clone)]
pub struct ImportSource {
    /// The imported unit's name.
    pub unit: Symbol,
    /// Its current export pid.
    pub pid: Pid,
    /// Its (rehydrated or freshly compiled) export environment.
    pub exports: Arc<Bindings>,
}

/// Wall-clock cost of each phase of one compilation — the measurements
/// behind experiment E1 (§6's "how much does the manager add to a
/// compile").
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileTimings {
    /// Lexing + parsing.
    pub parse: Duration,
    /// Elaboration (type checking + translation).
    pub elaborate: Duration,
    /// The export pid: the digest of the pickle, and the entity pids
    /// derived from it.
    pub hash: Duration,
    /// Dehydration of the export environment, its context set included.
    pub dehydrate: Duration,
}

impl CompileTimings {
    /// Adds another compile's timings into this accumulator.
    pub fn accumulate(&mut self, other: &CompileTimings) {
        self.parse += other.parse;
        self.elaborate += other.elaborate;
        self.hash += other.hash;
        self.dehydrate += other.dehydrate;
    }

    /// Total time across phases.
    pub fn total(&self) -> Duration {
        self.parse + self.elaborate + self.hash + self.dehydrate
    }
}

/// The result of compiling one unit.
#[derive(Debug)]
pub struct CompileOutput {
    /// The compiled unit (ready to write to a bin file).
    pub unit: CompiledUnit,
    /// The export environment, live, for same-session dependents.
    pub exports: Arc<Bindings>,
    /// Phase timings.
    pub timings: CompileTimings,
    /// Elaboration warnings (inexhaustive/redundant matches).
    pub warnings: Vec<smlsc_statics::ElabWarning>,
}

/// A unit's pickled interface and the pid that names it.
#[derive(Debug)]
pub struct Interface {
    /// The digest of the pickle's bytes.
    pub export_pid: Pid,
    /// The pickle: bytes, statistics and the unit's new entities.
    pub pickle: Pickle,
    /// The `dehydrate` and `hash` phases (the others are zero).
    pub timings: CompileTimings,
}

/// Pickles `exports`, the exports of unit `unit`, against the entities
/// reachable from `imports` and the pervasives; names the interface by
/// the digest of the bytes; and gives each entity the pickle wrote as
/// new its pid.
///
/// An entity that already carries a pid but is outside the context is
/// written as new and gets a pid again.  For a unit's own rehydrated
/// entities that is the pid they had; an elaboration never reaches
/// another unit's entity except through `imports`.
///
/// # Errors
///
/// [`CoreError::Pickle`] when an exported type is unsolved.
pub fn pickle_interface<'a>(
    unit: Symbol,
    exports: &Bindings,
    imports: impl IntoIterator<Item = &'a Bindings>,
) -> Result<Interface, CoreError> {
    let t0 = Instant::now();
    let pickle = {
        let _span = trace::span(names::SPAN_DEHYDRATE).field("unit", unit.as_str());
        let context = ContextPids::indexed(collect_external_pids(imports));
        dehydrate(exports, &context, &PickleOptions::default())
            .map_err(|error| CoreError::Pickle { unit, error })?
    };
    trace::counter(names::PICKLE_NODES, pickle.stats.nodes as u64);
    trace::counter(names::PICKLE_STUBS, pickle.stats.stubs as u64);
    trace::counter(names::PICKLE_BACKREFS, pickle.stats.backrefs as u64);
    let dehydrate = t0.elapsed();

    let t0 = Instant::now();
    let export_pid = {
        let _span = trace::span(names::SPAN_HASH).field("unit", unit.as_str());
        let export_pid = smlsc_pickle::export_pid(&pickle.bytes);
        for (n, e) in pickle.entities.iter().enumerate() {
            e.set_pid(smlsc_pickle::entity_pid(unit, export_pid, n));
        }
        export_pid
    };
    Ok(Interface {
        export_pid,
        pickle,
        timings: CompileTimings {
            hash: t0.elapsed(),
            dehydrate,
            ..CompileTimings::default()
        },
    })
}

/// Digest of a source text (used for cutoff's "did the source change").
pub fn source_pid(text: &str) -> Pid {
    Pid::of_bytes(text.as_bytes())
}

/// Compiles one unit against its resolved imports (in slot order).
///
/// # Errors
///
/// Parse, elaboration or pickling failures, wrapped in [`CoreError`].
pub fn compile_unit(
    name: Symbol,
    source: &str,
    imports: &[ImportSource],
) -> Result<CompileOutput, CoreError> {
    let t0 = Instant::now();
    let ast = {
        let _span = trace::span(names::SPAN_PARSE).field("unit", name.as_str());
        parse_unit(source).map_err(|e| CoreError::Parse {
            unit: name,
            error: e,
        })?
    };
    let parse = t0.elapsed();

    let t0 = Instant::now();
    let elab_span = trace::span(names::SPAN_ELABORATE).field("unit", name.as_str());
    let import_env = ImportEnv {
        units: imports
            .iter()
            .map(|i| ImportedUnit {
                name: i.unit,
                exports: i.exports.clone(),
            })
            .collect(),
        ..ImportEnv::default()
    };
    let elab = elaborate_unit(&ast, &import_env).map_err(|e| CoreError::Elab {
        unit: name,
        error: e,
    })?;
    drop(elab_span);
    let elaborate = t0.elapsed();

    let iface = pickle_interface(
        name,
        &elab.exports,
        imports.iter().map(|i| i.exports.as_ref()),
    )?;

    Ok(CompileOutput {
        unit: CompiledUnit {
            name,
            source_pid: source_pid(source),
            imports: imports
                .iter()
                .map(|i| ImportEdge {
                    unit: i.unit,
                    pid: i.pid,
                })
                .collect(),
            export_pid: iface.export_pid,
            env_pickle: iface.pickle.bytes,
            code: elab.code,
        },
        exports: elab.exports,
        timings: CompileTimings {
            parse,
            elaborate,
            ..iface.timings
        },
        warnings: elab.warnings,
    })
}

/// The result of the IRM's automatic dependency analysis (§8) on one
/// source file.
#[derive(Debug, Clone)]
pub struct SourceAnalysis {
    /// Free module names — the unit's imports, sorted.
    pub imports: Vec<Symbol>,
    /// Top-level names the unit binds — its exports, in source order.
    pub exports: Vec<Symbol>,
}

/// Parses a source and returns its imports and exports.
///
/// # Errors
///
/// [`CoreError::Parse`] when the source does not parse.
pub fn analyze_source(name: Symbol, source: &str) -> Result<SourceAnalysis, CoreError> {
    let ast = parse_unit(source).map_err(|e| CoreError::Parse {
        unit: name,
        error: e,
    })?;
    Ok(SourceAnalysis {
        imports: free_module_names(&ast),
        exports: ast.bound_names(),
    })
}
