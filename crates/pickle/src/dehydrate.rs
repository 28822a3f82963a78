//! Dehydration: static environment → bytes.
//!
//! References to entities are written in one of three forms:
//!
//! * `STUB pid` — the entity is external (its pid is in the dehydration
//!   context): imports and pervasives;
//! * `BACKREF i` — the entity was already written as node `i` of its kind
//!   (sharing preservation, and cycle breaking for recursive datatypes);
//! * `NEW body` — first occurrence of an internal entity.
//!
//! Node indices are assigned in depth-first discovery order on both
//! sides, so the rehydrater reconstructs the same numbering without a
//! table in the stream.  A `NEW` node carries no pid: the `n`th `NEW`
//! of any kind is the unit's entity `n`, whose pid both sides derive
//! from the digest of the bytes ([`crate::entity_pid`]).  An entity
//! outside the context is `NEW` even when it carries a pid already —
//! a unit's own rehydrated entities re-pickle to the same bytes, and
//! get the same pids back.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use smlsc_dynamics::ir::ConTag;
use smlsc_ids::{Pid, Stamp};
use smlsc_statics::env::{Bindings, FunctorEnv, SignatureEnv, StructureEnv, ValBind, ValKind};
use smlsc_statics::types::{Scheme, Tycon, TyconDef, Type};

use crate::context::{ContextPids, Entity};
use crate::wire::Writer;
use crate::PickleError;

/// Magic number at the head of every pickle.
pub(crate) const MAGIC: u32 = 0x534d_4c50; // "SMLP"
/// Format version.
pub(crate) const VERSION: u32 = 2;

pub(crate) const REF_STUB: u8 = 0;
pub(crate) const REF_BACK: u8 = 1;
pub(crate) const REF_NEW: u8 = 2;

pub(crate) const TY_PARAM: u8 = 0;
pub(crate) const TY_CON: u8 = 1;
pub(crate) const TY_TUPLE: u8 = 2;
pub(crate) const TY_ARROW: u8 = 3;

pub(crate) const DEF_ABSTRACT: u8 = 0;
pub(crate) const DEF_DATATYPE: u8 = 1;
pub(crate) const DEF_ALIAS: u8 = 2;

pub(crate) const KIND_PLAIN: u8 = 0;
pub(crate) const KIND_CON: u8 = 1;
pub(crate) const KIND_EXN: u8 = 2;
pub(crate) const KIND_PRIM: u8 = 3;

/// Options controlling dehydration.
#[derive(Debug, Clone)]
pub struct PickleOptions {
    /// Preserve DAG sharing (the paper's behaviour).  Disabling it (the
    /// E4 ablation) re-serializes shared subtrees at every occurrence —
    /// sizes blow up exponentially; such pickles are for measurement
    /// only and must not be rehydrated (duplicated generative entities
    /// would split into distinct types).
    pub preserve_sharing: bool,
}

impl Default for PickleOptions {
    fn default() -> Self {
        PickleOptions {
            preserve_sharing: true,
        }
    }
}

/// Size and structure statistics from a dehydration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DehydrateStats {
    /// Internal nodes written (tycons + structures + signatures +
    /// functors).
    pub nodes: usize,
    /// External stubs written.
    pub stubs: usize,
    /// Back references written (sharing hits).
    pub backrefs: usize,
}

/// A dehydrated environment.
#[derive(Debug, Clone)]
pub struct Pickle {
    /// The serialized bytes.
    pub bytes: Vec<u8>,
    /// What was written.
    pub stats: DehydrateStats,
    /// The entity of each `NEW` node, in the order written: entity `n`
    /// of the unit.
    pub entities: Vec<Entity>,
}

/// Dehydrates `exports` against the given context.
///
/// # Errors
///
/// [`PickleError::UnsolvedType`] if an exported type is not fully
/// solved, or [`PickleError::PrimitiveOutsideContext`] if a primitive
/// type is missing from `context`.
pub fn dehydrate(
    exports: &Bindings,
    context: &ContextPids,
    opts: &PickleOptions,
) -> Result<Pickle, PickleError> {
    let span = smlsc_trace::span("pickle.dehydrate");
    let mut d = Dehydrator {
        w: Writer::new(),
        context,
        opts,
        tycon_ix: HashMap::new(),
        str_ix: HashMap::new(),
        sig_ix: HashMap::new(),
        fct_ix: HashMap::new(),
        in_progress: HashSet::new(),
        next: [0; 4],
        stats: DehydrateStats::default(),
        entities: Vec::new(),
    };
    d.w.u32(MAGIC);
    d.w.u32(VERSION);
    d.bindings(exports)?;
    drop(
        span.field("nodes", d.stats.nodes)
            .field("stubs", d.stats.stubs)
            .field("backrefs", d.stats.backrefs),
    );
    Ok(Pickle {
        stats: d.stats,
        bytes: d.w.into_bytes(),
        entities: d.entities,
    })
}

const K_TYCON: usize = 0;
const K_STR: usize = 1;
const K_SIG: usize = 2;
const K_FCT: usize = 3;

struct Dehydrator<'a> {
    w: Writer,
    context: &'a ContextPids,
    opts: &'a PickleOptions,
    tycon_ix: HashMap<Stamp, u32>,
    str_ix: HashMap<Stamp, u32>,
    sig_ix: HashMap<Stamp, u32>,
    fct_ix: HashMap<Stamp, u32>,
    /// Tycons currently being written (cycle breaking when sharing is off).
    in_progress: HashSet<Stamp>,
    next: [u32; 4],
    stats: DehydrateStats,
    entities: Vec<Entity>,
}

impl<'a> Dehydrator<'a> {
    /// Emits the ref header for an entity; returns `true` when the body
    /// must follow (NEW).
    fn start_ref(
        &mut self,
        kind: usize,
        stamp: Stamp,
        pid: Option<Pid>,
        entity: impl FnOnce() -> Entity,
    ) -> bool {
        if let Some(p) = pid.filter(|&p| self.context.contains(p)) {
            self.w.u8(REF_STUB);
            self.w.u128(p.as_raw());
            self.stats.stubs += 1;
            return false;
        }
        let memo = match kind {
            K_TYCON => &self.tycon_ix,
            K_STR => &self.str_ix,
            K_SIG => &self.sig_ix,
            _ => &self.fct_ix,
        };
        if let Some(&ix) = memo.get(&stamp) {
            let share = self.opts.preserve_sharing
                || (kind == K_TYCON && self.in_progress.contains(&stamp));
            if share {
                self.w.u8(REF_BACK);
                self.w.u32(ix);
                self.stats.backrefs += 1;
                return false;
            }
        }
        let ix = self.next[kind];
        self.next[kind] += 1;
        match kind {
            K_TYCON => self.tycon_ix.insert(stamp, ix),
            K_STR => self.str_ix.insert(stamp, ix),
            K_SIG => self.sig_ix.insert(stamp, ix),
            _ => self.fct_ix.insert(stamp, ix),
        };
        self.w.u8(REF_NEW);
        self.entities.push(entity());
        self.stats.nodes += 1;
        true
    }

    fn tycon(&mut self, tc: &Arc<Tycon>) -> Result<(), PickleError> {
        if !self.start_ref(K_TYCON, tc.stamp, tc.entity_pid.get(), || {
            Entity::Tycon(tc.clone())
        }) {
            return Ok(());
        }
        self.in_progress.insert(tc.stamp);
        self.w.str(tc.name.as_str());
        self.w.u32(tc.arity as u32);
        let def = tc.def.read().clone();
        match def {
            // Only the context can name a primitive.
            TyconDef::Prim => return Err(PickleError::PrimitiveOutsideContext(tc.name)),
            TyconDef::Abstract => self.w.u8(DEF_ABSTRACT),
            TyconDef::Datatype(info) => {
                self.w.u8(DEF_DATATYPE);
                self.w.u32(info.cons.len() as u32);
                for c in &info.cons {
                    self.w.str(c.name.as_str());
                    match &c.arg {
                        None => self.w.u8(0),
                        Some(t) => {
                            self.w.u8(1);
                            self.ty(t)?;
                        }
                    }
                }
            }
            TyconDef::Alias(t) => {
                self.w.u8(DEF_ALIAS);
                self.ty(&t)?;
            }
        }
        self.in_progress.remove(&tc.stamp);
        Ok(())
    }

    fn structure(&mut self, s: &Arc<StructureEnv>) -> Result<(), PickleError> {
        if !self.start_ref(K_STR, s.stamp, s.entity_pid.get(), || {
            Entity::Str(s.clone())
        }) {
            return Ok(());
        }
        self.bindings(&s.bindings)
    }

    fn signature(&mut self, s: &Arc<SignatureEnv>) -> Result<(), PickleError> {
        if !self.start_ref(K_SIG, s.stamp, s.entity_pid.get(), || {
            Entity::Sig(s.clone())
        }) {
            return Ok(());
        }
        self.structure(&s.body)?;
        // Bound stamps are written as tycon node indices; every bound
        // tycon is reachable from the body, hence already numbered.
        let refs: Vec<u32> = s
            .bound
            .iter()
            .filter_map(|st| self.tycon_ix.get(st).copied())
            .collect();
        self.w.u32(refs.len() as u32);
        for r in refs {
            self.w.u32(r);
        }
        Ok(())
    }

    fn functor(&mut self, f: &Arc<FunctorEnv>) -> Result<(), PickleError> {
        if !self.start_ref(K_FCT, f.stamp, f.entity_pid.get(), || {
            Entity::Fct(f.clone())
        }) {
            return Ok(());
        }
        self.w.str(f.param_name.as_str());
        self.signature(&f.param_sig)?;
        self.structure(&f.param_inst)?;
        let refs: Vec<u32> = f
            .skolems
            .iter()
            .filter_map(|st| self.tycon_ix.get(st).copied())
            .collect();
        self.w.u32(refs.len() as u32);
        for r in refs {
            self.w.u32(r);
        }
        self.structure(&f.body)
    }

    fn bindings(&mut self, b: &Bindings) -> Result<(), PickleError> {
        self.w.u32(b.vals.len() as u32);
        for (n, vb) in &b.vals {
            self.w.str(n.as_str());
            self.valbind(vb)?;
        }
        self.w.u32(b.tycons.len() as u32);
        for (n, tc) in &b.tycons {
            self.w.str(n.as_str());
            self.tycon(tc)?;
        }
        self.w.u32(b.strs.len() as u32);
        for (n, s) in &b.strs {
            self.w.str(n.as_str());
            self.structure(s)?;
        }
        self.w.u32(b.sigs.len() as u32);
        for (n, s) in &b.sigs {
            self.w.str(n.as_str());
            self.signature(s)?;
        }
        self.w.u32(b.fcts.len() as u32);
        for (n, f) in &b.fcts {
            self.w.str(n.as_str());
            self.functor(f)?;
        }
        Ok(())
    }

    fn valbind(&mut self, vb: &ValBind) -> Result<(), PickleError> {
        self.scheme(&vb.scheme)?;
        match &vb.kind {
            ValKind::Plain => self.w.u8(KIND_PLAIN),
            ValKind::Exn => self.w.u8(KIND_EXN),
            ValKind::Prim(op) => {
                self.w.u8(KIND_PRIM);
                self.w.str(op.name());
            }
            ValKind::Con { tycon, tag } => {
                self.w.u8(KIND_CON);
                self.tycon(tycon)?;
                self.contag(tag);
            }
        }
        Ok(())
    }

    fn contag(&mut self, t: &ConTag) {
        self.w.u32(t.tag);
        self.w.u32(t.span);
        self.w.u8(u8::from(t.has_arg));
        self.w.str(t.name.as_str());
    }

    fn scheme(&mut self, s: &Scheme) -> Result<(), PickleError> {
        self.w.u32(s.arity);
        self.ty(&s.body)
    }

    fn ty(&mut self, t: &Type) -> Result<(), PickleError> {
        match t {
            Type::UVar(uv) => {
                let link = uv.link.read().clone();
                match link {
                    Some(t2) => self.ty(&t2),
                    None => Err(PickleError::UnsolvedType),
                }
            }
            Type::Param(i) => {
                self.w.u8(TY_PARAM);
                self.w.u32(*i);
                Ok(())
            }
            Type::Con(tc, args) => {
                self.w.u8(TY_CON);
                self.tycon(tc)?;
                self.w.u32(args.len() as u32);
                for a in args {
                    self.ty(a)?;
                }
                Ok(())
            }
            Type::Tuple(ts) => {
                self.w.u8(TY_TUPLE);
                self.w.u32(ts.len() as u32);
                for x in ts {
                    self.ty(x)?;
                }
                Ok(())
            }
            Type::Arrow(a, b) => {
                self.w.u8(TY_ARROW);
                self.ty(a)?;
                self.ty(b)
            }
        }
    }
}
