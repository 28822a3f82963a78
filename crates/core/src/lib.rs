//! `smlsc-core`: the paper's primary contribution.
//!
//! Appel & MacQueen, *Separate Compilation for Standard ML* (PLDI 1994),
//! reproduced in Rust:
//!
//! * [`hash`] — intrinsic pids: 128-bit interface digests with
//!   provisional-pid alpha conversion (§5);
//! * [`mod@unit`] — compiled units and bin files
//!   (`Unit = statenv × code × imports × exports`, §3);
//! * [`compile`] — the compile pipeline gluing the frontend
//!   (`smlsc-syntax`, `smlsc-statics`), the hasher and the pickler
//!   (`smlsc-pickle`) into §3's `compile`;
//! * [`link`] — type-safe linkage: import/export pid verification before
//!   execution (§5);
//! * [`irm`] — the Incremental Recompilation Manager with **cutoff**
//!   recompilation, plus `make`-timestamp and classical baselines
//!   (§1, §6, §8);
//! * [`build_session`] — the one build session every client runs: open
//!   the bin dir, build, render, persist, exit code and ledger record;
//! * [`session`] — the Visible Compiler's interactive
//!   compile-and-execute loop as a client of the same primitives (§7);
//! * [`resident`] — the long-lived build session behind the `smlsc`
//!   daemon: project state held hot in memory, file-event deltas
//!   instead of rescans, serialized builds, snapshot-consistent
//!   reports.
//!
//! # Examples
//!
//! The headline behaviour — a body edit recompiles one unit, and the
//! rebuild cascade is cut off because the interface hash is unchanged:
//!
//! ```
//! use smlsc_core::irm::{Irm, Project, Strategy};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = Project::new();
//! p.add("a", "structure A = struct fun f x = x + 1 end");
//! p.add("b", "structure B = struct val y = A.f 1 end");
//! let mut irm = Irm::new(Strategy::Cutoff);
//! irm.build(&p)?;
//!
//! // Change A's body without changing its interface:
//! p.edit("a", "structure A = struct fun f x = x + 2 end")?;
//! let report = irm.build(&p)?;
//! assert!(report.was_recompiled("a"));
//! assert!(!report.was_recompiled("b")); // cutoff!
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build_session;
pub mod compile;
pub mod depgraph;
pub mod doctor;
pub mod groups;
pub mod hash;
pub mod ircodec;
pub mod irm;
pub mod ledger;
pub mod link;
pub mod pack;
pub mod profile;
pub mod resident;
pub mod session;
pub mod stamps;
pub mod stdlib;
pub mod unit;

use std::fmt;

use smlsc_ids::Symbol;

pub use build_session::BuildSession;
pub use compile::{compile_unit, CompileOutput, CompileTimings, ImportSource};
pub use depgraph::DepGraph;
pub use doctor::{DoctorReport, DoctorVerdict};
pub use groups::{Group, GroupedProject};
pub use hash::{hash_exports, HashError, HashResult};
pub use irm::{BuildReport, FailurePolicy, Irm, Project, Strategy, UnitOutcome};
pub use ledger::{build_report_json, Ledger, LedgerAudit, LedgerRecord, LEDGER_VERSION};
pub use link::{link_and_execute, DynEnv, LinkError};
pub use profile::BuildProfile;
pub use resident::{BuildSnapshot, FileEvent, Resident};
pub use session::Session;
pub use smlsc_store as store;
pub use smlsc_trace as trace;
pub use smlsc_trace::RebuildDecision;
pub use stamps::StampCache;
pub use stdlib::{add_stdlib, stdlib_units};
pub use unit::{BinFile, BinMeta, CompiledUnit, ImportEdge, BIN_FORMAT_VERSION};

/// Any error from the compilation manager.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// A source file failed to parse.
    Parse {
        /// The unit.
        unit: Symbol,
        /// The parser's error.
        error: smlsc_syntax::ParseError,
    },
    /// Elaboration (type checking) failed.
    Elab {
        /// The unit.
        unit: Symbol,
        /// The elaborator's error.
        error: smlsc_statics::ElabError,
    },
    /// Interface hashing failed.
    Hash {
        /// The unit.
        unit: Symbol,
        /// The hasher's error.
        error: HashError,
    },
    /// Pickling or unpickling failed.
    Pickle {
        /// The unit.
        unit: Symbol,
        /// The pickler's error.
        error: smlsc_pickle::PickleError,
    },
    /// A bin file is malformed.
    CorruptBin(String),
    /// A lazily loaded pack body failed digest verification or parsing
    /// when first forced.  The archive index was fine — only this one
    /// unit's body is bad — so the manager quarantines the unit (drops
    /// it from the cache) and recompiles it alone.
    BinBodyCorrupt {
        /// The unit whose body is bad.
        unit: Symbol,
        /// What the verification found.
        detail: String,
    },
    /// A unit imports a name no project unit exports.
    UnresolvedImport {
        /// The importing unit.
        unit: Symbol,
        /// The unresolved module name.
        name: Symbol,
    },
    /// Two units export the same top-level name.
    DuplicateExport {
        /// The clashing name.
        name: Symbol,
        /// The exporting units.
        units: Vec<Symbol>,
    },
    /// The import graph is cyclic.
    ImportCycle(Vec<Symbol>),
    /// No such unit.
    UnknownUnit(Symbol),
    /// A unit references a name its group cannot see (§9 libraries).
    GroupVisibility {
        /// The offending unit.
        unit: Symbol,
        /// The referenced name.
        name: Symbol,
        /// The group defining the name.
        group: Symbol,
        /// Why it is invisible.
        reason: String,
    },
    /// Linking or execution failed.
    Link(LinkError),
    /// Filesystem failure while persisting bins.
    Io(String),
    /// Filesystem failure on one unit's bin file, naming both the unit
    /// and the path so keep-going reports can pinpoint it.
    BinIo {
        /// The unit whose bin was being read or written.
        unit: Symbol,
        /// The bin file involved.
        path: std::path::PathBuf,
        /// The underlying error message.
        error: String,
    },
    /// The compiler itself failed on this unit — a caught panic or a
    /// broken invariant.  A bug in smlsc, never in the user's source;
    /// the unit (and its dependents) fail, the build machinery survives.
    Internal {
        /// The unit being compiled when the panic fired.
        unit: Symbol,
        /// The panic payload (or invariant description).
        message: String,
    },
    /// A deterministically injected fault (chaos testing only).
    Injected {
        /// The unit at which the fault fired.
        unit: Symbol,
        /// The fault point name (e.g. `compile.unit`).
        point: &'static str,
    },
}

impl CoreError {
    /// True for internal-error-class failures (caught compiler panics,
    /// broken invariants): bugs in smlsc, not in the user's source.
    /// The CLI maps these to their own exit code.
    pub fn is_internal(&self) -> bool {
        matches!(self, CoreError::Internal { .. })
    }

    /// True for store/filesystem IO-class failures; the CLI maps these
    /// to their own exit code, distinct from source errors.
    pub fn is_io(&self) -> bool {
        matches!(self, CoreError::Io(_) | CoreError::BinIo { .. })
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Parse { unit, error } => write!(f, "unit `{unit}`: {error}"),
            CoreError::Elab { unit, error } => write!(f, "unit `{unit}`: {error}"),
            CoreError::Hash { unit, error } => write!(f, "unit `{unit}`: {error}"),
            CoreError::Pickle { unit, error } => write!(f, "unit `{unit}`: {error}"),
            CoreError::CorruptBin(m) => write!(f, "corrupt bin file: {m}"),
            CoreError::BinBodyCorrupt { unit, detail } => {
                write!(f, "unit `{unit}`: corrupt archived bin body: {detail}")
            }
            CoreError::UnresolvedImport { unit, name } => {
                write!(f, "unit `{unit}` imports `{name}`, which no unit exports")
            }
            CoreError::DuplicateExport { name, units } => {
                let list: Vec<String> = units.iter().map(|u| format!("`{u}`")).collect();
                write!(f, "`{name}` is exported by {}", list.join(" and "))
            }
            CoreError::ImportCycle(units) => {
                let list: Vec<String> = units.iter().map(|u| u.to_string()).collect();
                write!(f, "import cycle: {}", list.join(" -> "))
            }
            CoreError::UnknownUnit(u) => write!(f, "unknown unit `{u}`"),
            CoreError::GroupVisibility {
                unit,
                name,
                group,
                reason,
            } => write!(
                f,
                "unit `{unit}` cannot use `{name}` from group `{group}`: {reason}"
            ),
            CoreError::Link(e) => write!(f, "{e}"),
            CoreError::Io(m) => write!(f, "io error: {m}"),
            CoreError::BinIo { unit, path, error } => {
                write!(f, "unit `{unit}`: bin file {}: {error}", path.display())
            }
            CoreError::Internal { unit, message } => {
                write!(f, "unit `{unit}`: internal compiler error: {message}")
            }
            CoreError::Injected { unit, point } => {
                write!(f, "unit `{unit}`: injected fault at `{point}`")
            }
        }
    }
}

impl std::error::Error for CoreError {}
