//! Dehydration and rehydration of static environments (§4 of the paper).
//!
//! A compiled unit's exported static environment must be written to its
//! bin file.  The paper's two problems and our answers:
//!
//! 1. *"How can the dehydrater tell which structures are shared with other
//!    things in core?"* — every **entity** (tycon, structure, signature,
//!    functor) reachable from a unit's imports already carries a
//!    persistent pid (derived when *its* unit was pickled).  Dehydration
//!    consults a context set of external pids: an entity in the context
//!    becomes a **stub** carrying just its pid; everything else is written
//!    as an internal node, deduplicated by stamp so DAG sharing is
//!    preserved (without it, pickles blow up exponentially — experiment
//!    E4).  Internal nodes carry no pid: the `n`th one written is the
//!    unit's `n`th new entity, whose pid is [`entity_pid`] of the
//!    unit's [`export_pid`] — the digest of these very bytes (§5).
//! 2. *"Given a stub, how can the rehydrater find the real in-core
//!    pointer?"* — rehydration resolves stubs against an **indexed
//!    context environment** mapping pid → entity, built from the
//!    session's already-rehydrated imports plus the pervasives (the
//!    paper's stamp-indexed environments of §5; our index keys are pids
//!    because stamps are session-local).  A stub that resolves to nothing
//!    is a linkage error — the static half of type-safe linkage.
//!
//! Cycles (recursive datatypes) are handled exactly like the paper's
//! two-phase hydration: the rehydrater allocates a tycon shell before
//! reading its definition, mirroring the dehydrater, which assigns the
//! node index before descending.
//!
//! # Examples
//!
//! ```
//! use smlsc_pickle::{dehydrate, rehydrate, ContextPids, RehydrateContext, PickleOptions};
//! use smlsc_statics::elab::{elaborate_unit, ImportEnv};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ast = smlsc_syntax::parse_unit("structure A = struct val x = 1 end")?;
//! let unit = elaborate_unit(&ast, &ImportEnv::empty())?;
//! let p = dehydrate(&unit.exports, &ContextPids::indexed([]), &PickleOptions::default())?;
//! let pid = smlsc_pickle::export_pid(&p.bytes);
//! let name = smlsc_ids::Symbol::intern("a");
//! let (back, _) = rehydrate(&p.bytes, &RehydrateContext::with_pervasives([]), name, pid)?;
//! assert_eq!(back.strs.len(), 1);
//! // The structure is the unit's entity 0.
//! assert_eq!(back.strs[0].1.entity_pid.get(), Some(smlsc_pickle::entity_pid(name, pid, 0)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod dehydrate;
pub mod rehydrate;
pub mod wire;

use std::fmt;

use smlsc_ids::{Digest128, Pid, Symbol};

pub use context::{
    collect_external_pids, reachable_entities, ContextPids, Entity, RehydrateContext,
};
pub use dehydrate::{dehydrate, DehydrateStats, Pickle, PickleOptions};
pub use rehydrate::{rehydrate, RehydrateStats};

/// An error while pickling or unpickling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PickleError {
    /// An exported type still contains an unsolved unification variable.
    UnsolvedType,
    /// A primitive type constructor is missing from the dehydration
    /// context, so the pickle could not name it.
    PrimitiveOutsideContext(Symbol),
    /// A stub's pid resolved to nothing in the rehydration context — the
    /// bin file does not match the environment it is being loaded into.
    UnknownStub(smlsc_ids::Pid),
    /// A stub's pid resolved to an entity of the wrong kind.
    WrongKind(&'static str),
    /// The byte stream is malformed.
    Corrupt(String),
}

impl fmt::Display for PickleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PickleError::UnsolvedType => {
                write!(f, "cannot pickle an unsolved unification variable")
            }
            PickleError::PrimitiveOutsideContext(name) => {
                write!(
                    f,
                    "primitive type `{name}` is not in the dehydration context"
                )
            }
            PickleError::UnknownStub(pid) => {
                write!(f, "stub {pid} is not in the rehydration context")
            }
            PickleError::WrongKind(kind) => {
                write!(f, "stub resolved to the wrong entity kind (wanted {kind})")
            }
            PickleError::Corrupt(m) => write!(f, "corrupt pickle: {m}"),
        }
    }
}

impl std::error::Error for PickleError {}

/// The export pid of a pickled interface: the digest of its bytes
/// (§5's intrinsic pid).  The pickle holds exactly the interface —
/// names, types, constructor shapes, stub pids of imported entities —
/// and no session state, so equal interfaces get equal pids.
pub fn export_pid(pickle: &[u8]) -> Pid {
    let mut d = Digest128::new();
    d.write_str("smlsc:export-env");
    d.write_bytes(pickle);
    d.finish_pid()
}

/// The pid of unit `unit`'s `n`th new entity, counted across all kinds
/// in the order the pickle writes them.  The unit name keeps two units
/// with equal interfaces from sharing generative entities.
pub fn entity_pid(unit: Symbol, export_pid: Pid, n: usize) -> Pid {
    let mut d = Digest128::new();
    d.write_str("smlsc:entity");
    d.write_str(unit.as_str());
    d.write_pid(export_pid);
    d.write_u64(n as u64);
    d.finish_pid()
}
