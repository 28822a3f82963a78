//! Type-safe linkage and execution (§3, §5).
//!
//! The dynamic environment maps unit names to their export records, each
//! tagged with the export pid of the statenv it was produced under.
//! Linking a unit verifies that every recorded import pid matches the
//! corresponding unit's *current* export pid — the check that makes
//! "makefile bugs" (§5: a stale interface silently linked against a new
//! implementation) impossible by construction.

use std::collections::HashMap;

use smlsc_dynamics::eval::execute;
use smlsc_dynamics::value::Value;
use smlsc_ids::{Pid, Symbol};
use smlsc_trace::{self as trace, names};

use crate::unit::CompiledUnit;

/// Why linking failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// An imported unit has not been executed into the environment.
    MissingImport {
        /// The unit being linked.
        unit: Symbol,
        /// The absent import.
        import: Symbol,
    },
    /// The import pid recorded at compile time does not match the export
    /// pid in the environment — a stale bin file.
    PidMismatch {
        /// The unit being linked.
        unit: Symbol,
        /// The offending import.
        import: Symbol,
        /// What the unit was compiled against.
        want: Pid,
        /// What the environment currently holds.
        have: Pid,
    },
    /// Execution of the unit's code failed.
    Execution(String),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::MissingImport { unit, import } => {
                write!(f, "linking `{unit}`: import `{import}` is not loaded")
            }
            LinkError::PidMismatch {
                unit,
                import,
                want,
                have,
            } => write!(
                f,
                "linking `{unit}`: import `{import}` has pid {have}, but the unit was \
                 compiled against {want} (stale bin file)"
            ),
            LinkError::Execution(m) => write!(f, "execution failed: {m}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// One unit's dynamic exports.
#[derive(Debug, Clone)]
pub struct LinkedUnit {
    /// The export pid of the statenv these values were produced under.
    pub export_pid: Pid,
    /// The export record.
    pub values: Value,
}

/// The dynamic environment (§3's `dynenv`): unit name → export record.
#[derive(Debug, Clone, Default)]
pub struct DynEnv {
    units: HashMap<Symbol, LinkedUnit>,
}

impl DynEnv {
    /// An empty environment.
    pub fn new() -> DynEnv {
        DynEnv::default()
    }

    /// Looks up a unit's exports.
    pub fn get(&self, unit: Symbol) -> Option<&LinkedUnit> {
        self.units.get(&unit)
    }

    /// Installs (or replaces) a unit's exports.
    pub fn insert(&mut self, unit: Symbol, linked: LinkedUnit) {
        self.units.insert(unit, linked);
    }

    /// Number of linked units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when no unit is linked.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// Verifies a unit's imports against `env` without executing.
///
/// # Errors
///
/// [`LinkError::MissingImport`] or [`LinkError::PidMismatch`].
pub fn verify_imports(unit: &CompiledUnit, env: &DynEnv) -> Result<(), LinkError> {
    for edge in &unit.imports {
        let linked = env.get(edge.unit).ok_or(LinkError::MissingImport {
            unit: unit.name,
            import: edge.unit,
        })?;
        if linked.export_pid != edge.pid {
            return Err(LinkError::PidMismatch {
                unit: unit.name,
                import: edge.unit,
                want: edge.pid,
                have: linked.export_pid,
            });
        }
    }
    Ok(())
}

/// Links and executes a unit: verifies import pids, gathers the import
/// records in slot order, runs the code, and installs the exports.
///
/// Returns the unit's export record.
///
/// # Errors
///
/// Any [`LinkError`]; on error the environment is unchanged.
pub fn link_and_execute(unit: &CompiledUnit, env: &mut DynEnv) -> Result<Value, LinkError> {
    let _span = trace::span(names::SPAN_LINK_EXECUTE).field("unit", unit.name.as_str());
    verify_imports(unit, env)?;
    let imports: Vec<Value> = unit
        .imports
        .iter()
        .map(|e| env.get(e.unit).expect("verified above").values.clone())
        .collect();
    let value = execute(&unit.code, &imports).map_err(|e| LinkError::Execution(e.to_string()))?;
    env.insert(
        unit.name,
        LinkedUnit {
            export_pid: unit.export_pid,
            values: value.clone(),
        },
    );
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::ImportEdge;
    use smlsc_dynamics::ir::Ir;

    fn unit(name: &str, imports: Vec<ImportEdge>, code: Ir) -> CompiledUnit {
        CompiledUnit {
            name: Symbol::intern(name),
            source_pid: Pid::of_bytes(name.as_bytes()),
            imports,
            export_pid: Pid::of_bytes(format!("{name}-exports").as_bytes()),
            env_pickle: Vec::new(),
            code,
        }
    }

    #[test]
    fn linking_a_leaf_unit() {
        let mut env = DynEnv::new();
        let u = unit("a", vec![], Ir::Record(vec![Ir::Int(1)]));
        let v = link_and_execute(&u, &mut env).unwrap();
        assert!(matches!(v, Value::Record(_)));
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn missing_import_is_rejected() {
        let mut env = DynEnv::new();
        let u = unit(
            "b",
            vec![ImportEdge {
                unit: Symbol::intern("a"),
                pid: Pid::of_bytes(b"x"),
            }],
            Ir::Import(0),
        );
        let err = link_and_execute(&u, &mut env).unwrap_err();
        assert!(matches!(err, LinkError::MissingImport { .. }));
    }

    #[test]
    fn stale_pid_is_rejected() {
        let mut env = DynEnv::new();
        let a = unit("a", vec![], Ir::Record(vec![]));
        link_and_execute(&a, &mut env).unwrap();
        let b = unit(
            "b",
            vec![ImportEdge {
                unit: Symbol::intern("a"),
                pid: Pid::of_bytes(b"an-older-interface"),
            }],
            Ir::Import(0),
        );
        let err = link_and_execute(&b, &mut env).unwrap_err();
        assert!(matches!(err, LinkError::PidMismatch { .. }), "{err}");
    }

    #[test]
    fn matching_pid_links() {
        let mut env = DynEnv::new();
        let a = unit("a", vec![], Ir::Record(vec![Ir::Int(9)]));
        let a_pid = a.export_pid;
        link_and_execute(&a, &mut env).unwrap();
        let b = unit(
            "b",
            vec![ImportEdge {
                unit: Symbol::intern("a"),
                pid: a_pid,
            }],
            Ir::Select(Box::new(Ir::Import(0)), 0),
        );
        // b's "export record" here is just the selected int, fine for the test.
        let v = link_and_execute(&b, &mut env).unwrap();
        assert_eq!(v, Value::Int(9));
    }
}
