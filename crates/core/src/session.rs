//! The Visible Compiler: an interactive compile-and-execute session (§7).
//!
//! The paper's point is that the interactive read-eval-print loop is just
//! another *client* of the same separate-compilation primitives: each
//! input is compiled as an anonymous unit against the layered static
//! environments of everything evaluated so far, executed against the
//! layered dynamic environment, and its exports pushed as a new layer
//! (later layers shadow earlier ones).  Nothing in the loop bypasses
//! `compile`/`pickle`/`execute`.

use std::sync::Arc;

use smlsc_dynamics::value::Value;
use smlsc_ids::{Pid, Symbol};
use smlsc_statics::elab::{elaborate_unit, ImportEnv, ImportedUnit};
use smlsc_statics::env::{Bindings, ValKind};
use smlsc_statics::types::format_scheme;
use smlsc_syntax::parse_unit;

use crate::compile::pickle_interface;
use crate::irm::{Irm, Project};
use crate::link::verify_imports;
use crate::CoreError;

/// One evaluated layer of the session.
#[derive(Debug, Clone)]
struct Layer {
    name: Symbol,
    exports: Arc<Bindings>,
    values: Value,
}

/// What one [`Session::eval`] bound.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The synthetic unit name (`it0`, `it1`, …).
    pub unit: Symbol,
    /// The export pid of the input's interface.
    pub export_pid: Pid,
    /// Human-readable descriptions of the new bindings, e.g.
    /// `structure A : {x : int}`.
    pub bindings: Vec<String>,
    /// Elaboration warnings for this input.
    pub warnings: Vec<String>,
}

/// An interactive compile-and-execute session.
///
/// # Examples
///
/// ```
/// use smlsc_core::session::Session;
/// let mut s = Session::new();
/// s.eval("structure A = struct val x = 20 end").unwrap();
/// let out = s.eval("structure B = struct val y = A.x + 22 end").unwrap();
/// assert_eq!(out.bindings.len(), 1);
/// assert_eq!(s.show_value("B", "y").unwrap(), "42");
/// ```
#[derive(Debug, Default)]
pub struct Session {
    layers: Vec<Layer>,
    counter: u32,
    step_limit: Option<u64>,
}

impl Session {
    /// A fresh session with only the pervasives in scope.
    pub fn new() -> Session {
        Session::default()
    }

    /// Bounds each input's evaluation to `max_steps` interpreter steps
    /// (useful for interactive front ends; unbounded by default).
    pub fn set_step_limit(&mut self, max_steps: u64) {
        self.step_limit = Some(max_steps);
    }

    /// Number of evaluated layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when nothing has been evaluated.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Compiles and executes one input, layering its exports.
    ///
    /// # Errors
    ///
    /// Parse, elaboration, pickling or execution failures; the session state
    /// is unchanged on error.
    pub fn eval(&mut self, source: &str) -> Result<EvalOutcome, CoreError> {
        let name = Symbol::intern(&format!("it{}", self.counter));
        let _span = smlsc_trace::span("session.eval").field("unit", name.as_str());
        // The whole compile-and-execute pipeline runs under the same
        // per-unit panic guard as IRM builds: a compiler bug fails this
        // one input with `CoreError::Internal` and the session — its
        // state untouched — keeps accepting input.
        let (elab, export_pid, values) = crate::irm::isolate_unit(name, || {
            let ast = parse_unit(source).map_err(|e| CoreError::Parse {
                unit: name,
                error: e,
            })?;
            let imports = ImportEnv {
                units: self
                    .layers
                    .iter()
                    .map(|l| ImportedUnit {
                        name: l.name,
                        exports: l.exports.clone(),
                    })
                    .collect(),
                shadowing: true,
            };
            let elab = elaborate_unit(&ast, &imports).map_err(|e| CoreError::Elab {
                unit: name,
                error: e,
            })?;
            let iface = pickle_interface(
                name,
                &elab.exports,
                self.layers.iter().map(|l| l.exports.as_ref()),
            )?;
            let import_values: Vec<Value> = self.layers.iter().map(|l| l.values.clone()).collect();
            let limit = self.step_limit.unwrap_or(u64::MAX);
            let values = smlsc_dynamics::eval::execute_limited(&elab.code, &import_values, limit)
                .map_err(|e| {
                CoreError::Link(crate::link::LinkError::Execution(e.to_string()))
            })?;
            Ok((elab, iface.export_pid, values))
        })?;
        let bindings = describe_bindings(&elab.exports);
        let warnings = elab.warnings.iter().map(ToString::to_string).collect();
        self.counter += 1;
        self.layers.push(Layer {
            name,
            exports: elab.exports,
            values,
        });
        Ok(EvalOutcome {
            unit: name,
            export_pid,
            bindings,
            warnings,
        })
    }

    /// Loads a compiled project into the session through the IRM — the
    /// integration §6 of the paper describes but had "not yet
    /// implemented": the interactive loop consuming binary compiled
    /// units instead of re-elaborating source.
    ///
    /// The project is (incrementally) built, then each unit is linked in
    /// topological order: its statenv rehydrated against the already
    /// loaded units, its import pids verified, its code executed, and its
    /// exports pushed as a session layer.  Returns the build order.
    ///
    /// # Errors
    ///
    /// Build, rehydration, linkage, or execution failures; layers loaded
    /// before the failure remain.
    pub fn load_compiled(
        &mut self,
        irm: &mut Irm,
        project: &Project,
    ) -> Result<Vec<Symbol>, CoreError> {
        use std::collections::HashMap;
        let report = irm.build(project)?;
        let mut envs: HashMap<Symbol, Arc<Bindings>> = HashMap::new();
        let mut vals: HashMap<Symbol, Value> = HashMap::new();
        let mut dyn_env = crate::link::DynEnv::new();
        for name in &report.order {
            let bin = irm.bin(name.as_str()).expect("built units have bins");
            let ctx_envs: Vec<Arc<Bindings>> = bin
                .unit
                .imports
                .iter()
                .map(|e| {
                    envs.get(&e.unit)
                        .cloned()
                        .ok_or(CoreError::UnknownUnit(e.unit))
                })
                .collect::<Result<_, _>>()?;
            let ctx = smlsc_pickle::RehydrateContext::with_pervasives(
                ctx_envs.iter().map(|e| e.as_ref()),
            );
            let (exports, _) = smlsc_pickle::rehydrate(
                &bin.unit.env_pickle,
                &ctx,
                bin.unit.name,
                bin.unit.export_pid,
            )
            .map_err(|e| CoreError::Pickle {
                unit: *name,
                error: e,
            })?;
            // Type-safe linkage before execution.
            verify_imports(&bin.unit, &dyn_env).map_err(CoreError::Link)?;
            let import_vals: Vec<Value> = bin
                .unit
                .imports
                .iter()
                .map(|e| vals[&e.unit].clone())
                .collect();
            let value = smlsc_dynamics::eval::execute(&bin.unit.code, &import_vals)
                .map_err(|e| CoreError::Link(crate::link::LinkError::Execution(e.to_string())))?;
            dyn_env.insert(
                *name,
                crate::link::LinkedUnit {
                    export_pid: bin.unit.export_pid,
                    values: value.clone(),
                },
            );
            envs.insert(*name, exports.clone());
            vals.insert(*name, value.clone());
            self.layers.push(Layer {
                name: *name,
                exports,
                values: value,
            });
        }
        Ok(report.order)
    }

    /// Renders the value of `Structure.member` from the latest layer
    /// exporting `Structure`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownUnit`] when no layer exports the structure or
    /// it has no such runtime member.
    pub fn show_value(&self, structure: &str, member: &str) -> Result<String, CoreError> {
        let sname = Symbol::intern(structure);
        let mname = Symbol::intern(member);
        for layer in self.layers.iter().rev() {
            let Some(str_env) = layer.exports.str(sname) else {
                continue;
            };
            let Some(str_slot) = smlsc_statics::env::str_slot(&layer.exports, sname) else {
                continue;
            };
            let Value::Record(units) = &layer.values else {
                continue;
            };
            let Value::Record(fields) = &units[str_slot as usize] else {
                continue;
            };
            let Some(vslot) = smlsc_statics::env::val_slot(&str_env.bindings, mname) else {
                continue;
            };
            return Ok(fields[vslot as usize].to_string());
        }
        Err(CoreError::UnknownUnit(sname))
    }

    /// Human-readable descriptions of everything currently in scope, most
    /// recent layer last.
    pub fn describe(&self) -> Vec<String> {
        self.layers
            .iter()
            .flat_map(|l| describe_bindings(&l.exports))
            .collect()
    }
}

/// Renders unit-level bindings as `structure A : {x : int, f : int -> int}`.
fn describe_bindings(b: &Bindings) -> Vec<String> {
    let mut out = Vec::new();
    for (name, s) in &b.strs {
        let mut parts = Vec::new();
        for (vn, vb) in &s.bindings.vals {
            let kind = match vb.kind {
                ValKind::Plain => "",
                ValKind::Con { .. } => "con ",
                ValKind::Exn => "exn ",
                ValKind::Prim(_) => "prim ",
            };
            parts.push(format!("{kind}{vn} : {}", format_scheme(&vb.scheme)));
        }
        for (tn, tc) in &s.bindings.tycons {
            parts.push(format!("type {tn}/{}", tc.arity));
        }
        for (sn, _) in &s.bindings.strs {
            parts.push(format!("structure {sn}"));
        }
        out.push(format!("structure {name} : {{{}}}", parts.join(", ")));
    }
    for (name, _) in &b.sigs {
        out.push(format!("signature {name}"));
    }
    for (name, f) in &b.fcts {
        out.push(format!("functor {name}({})", f.param_name));
    }
    out
}
