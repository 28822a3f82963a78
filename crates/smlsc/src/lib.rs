//! # smlsc — Separate Compilation for Standard ML, in Rust
//!
//! A full reproduction of Andrew W. Appel and David B. MacQueen,
//! *Separate Compilation for Standard ML* (PLDI 1994): the separate
//! compilation architecture that became SML/NJ's Compilation Manager.
//!
//! This umbrella crate re-exports the whole system:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`ids`] | Symbols, generative stamps, 128-bit pids |
//! | [`syntax`] | Mini-SML lexer, parser, AST, import analysis |
//! | [`statics`] | Types, static environments, signature matching, functors, elaboration |
//! | [`dynamics`] | Runtime IR, values, the `execute` interpreter |
//! | [`pickle`] | Dehydration/rehydration of static environments |
//! | [`core`] | Intrinsic pids, units, type-safe linkage, the IRM, sessions |
//! | [`trace`] | Structured spans, build telemetry, rebuild-decision records |
//! | [`faults`] | Deterministic fault injection for chaos testing |
//! | [`daemon`] | Resident build server: filesystem watch, socket protocol |
//! | [`workload`] | Synthetic module-graph generation for experiments |
//!
//! # Quickstart
//!
//! ```
//! use smlsc::core::irm::{Irm, Project, Strategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut project = Project::new();
//! project.add("math", "structure Math = struct fun square x = x * x end");
//! project.add("main", "structure Main = struct val answer = Math.square 6 + 6 end");
//!
//! let mut irm = Irm::new(Strategy::Cutoff);
//! let (report, env) = irm.execute(&project)?;
//! assert_eq!(report.recompiled.len(), 2);
//! assert_eq!(env.len(), 2);
//!
//! // A body edit to `math` recompiles one unit; `main` is cut off.
//! project.edit("math", "structure Math = struct fun square x = x * x * 1 end")?;
//! let report = irm.build(&project)?;
//! assert_eq!(report.recompiled.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smlsc_core as core;
pub use smlsc_daemon as daemon;
pub use smlsc_dynamics as dynamics;
pub use smlsc_faults as faults;
pub use smlsc_ids as ids;
pub use smlsc_pickle as pickle;
pub use smlsc_statics as statics;
pub use smlsc_syntax as syntax;
pub use smlsc_trace as trace;
pub use smlsc_workload as workload;
