//! Rehydration: bytes → static environment, resolving stubs through the
//! indexed context.
//!
//! Node indices are reconstructed by reading in the same depth-first
//! order the dehydrater wrote; internal entities get fresh session stamps
//! and the persistent pids their unit's compiler gave them, derived
//! again from the unit's name, its export pid and their `NEW` order
//! ([`crate::entity_pid`]).  Signature and
//! functor generative ranges are recomputed around the rebuild of their
//! templates, so instantiation and application behave identically to the
//! session that produced the pickle.

use smlsc_ids::PidCell;
use std::sync::Arc;

use smlsc_dynamics::ir::ConTag;
use smlsc_ids::{Pid, StampGenerator, Symbol};
use smlsc_statics::env::{Bindings, FunctorEnv, SignatureEnv, StructureEnv, ValBind, ValKind};
use smlsc_statics::types::{ConDef, DatatypeInfo, Scheme, Tycon, TyconDef, Type};

use crate::context::{Entity, RehydrateContext};
use crate::dehydrate::{
    DEF_ABSTRACT, DEF_ALIAS, DEF_DATATYPE, KIND_CON, KIND_EXN, KIND_PLAIN, KIND_PRIM, MAGIC,
    REF_BACK, REF_NEW, REF_STUB, TY_ARROW, TY_CON, TY_PARAM, TY_TUPLE, VERSION,
};
use crate::entity_pid;
use crate::wire::Reader;
use crate::PickleError;

/// Statistics from a rehydration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RehydrateStats {
    /// Internal nodes rebuilt.
    pub nodes: usize,
    /// Stubs resolved through the context.
    pub stubs: usize,
    /// Owned heap allocations made for string/byte payloads. The reader
    /// borrows every string straight from the pickle buffer and interns
    /// symbols from the borrowed slice, so this stays zero on the warm
    /// path; the `rehydrate.allocs` counter mirrors it.
    pub allocs: usize,
    /// Pickle bytes decoded (the input length; mirrored by the
    /// `pickle.bytes` counter).
    pub bytes: usize,
}

/// Rehydrates a pickled environment: the exports of unit `unit`, whose
/// export pid is `export_pid`.
///
/// # Errors
///
/// [`PickleError::UnknownStub`] when a stub's pid is not in `context`
/// (stale or mismatched bin file), [`PickleError::Corrupt`] on malformed
/// bytes.
pub fn rehydrate(
    bytes: &[u8],
    context: &RehydrateContext,
    unit: Symbol,
    export_pid: Pid,
) -> Result<(Arc<Bindings>, RehydrateStats), PickleError> {
    let span = smlsc_trace::span("pickle.rehydrate").field("bytes", bytes.len());
    let mut r = Rehydrator {
        r: Reader::new(bytes),
        context,
        unit,
        export_pid,
        tycons: Vec::new(),
        strs: Vec::new(),
        sigs: Vec::new(),
        fcts: Vec::new(),
        stamper: StampGenerator::new(),
        stats: RehydrateStats::default(),
    };
    if r.r.u32()? != MAGIC {
        return Err(PickleError::Corrupt("bad magic".into()));
    }
    if r.r.u32()? != VERSION {
        return Err(PickleError::Corrupt("unsupported version".into()));
    }
    let b = r.bindings()?;
    r.stats.bytes = bytes.len();
    smlsc_trace::counter(smlsc_trace::names::PICKLE_BYTES, bytes.len() as u64);
    if r.stats.allocs > 0 {
        smlsc_trace::counter(smlsc_trace::names::REHYDRATE_ALLOCS, r.stats.allocs as u64);
    }
    drop(
        span.field("nodes", r.stats.nodes)
            .field("stubs", r.stats.stubs)
            .field("allocs", r.stats.allocs),
    );
    Ok((Arc::new(b), r.stats))
}

struct Rehydrator<'a, 'b> {
    r: Reader<'b>,
    context: &'a RehydrateContext,
    unit: Symbol,
    export_pid: Pid,
    tycons: Vec<Arc<Tycon>>,
    strs: Vec<Arc<StructureEnv>>,
    sigs: Vec<Arc<SignatureEnv>>,
    fcts: Vec<Arc<FunctorEnv>>,
    stamper: StampGenerator,
    stats: RehydrateStats,
}

enum RefHead {
    Stub(Pid),
    Back(u32),
    New(Pid),
}

impl<'a, 'b> Rehydrator<'a, 'b> {
    fn head(&mut self) -> Result<RefHead, PickleError> {
        match self.r.u8()? {
            REF_STUB => Ok(RefHead::Stub(Pid::from_raw(self.r.u128()?))),
            REF_BACK => Ok(RefHead::Back(self.r.u32()?)),
            REF_NEW => {
                let pid = entity_pid(self.unit, self.export_pid, self.stats.nodes);
                self.stats.nodes += 1;
                Ok(RefHead::New(pid))
            }
            t => Err(PickleError::Corrupt(format!("bad ref tag {t}"))),
        }
    }

    fn sym(&mut self) -> Result<Symbol, PickleError> {
        // Interns straight from the borrowed pickle slice — no String.
        Ok(Symbol::intern(self.r.str_ref()?))
    }

    fn tycon(&mut self) -> Result<Arc<Tycon>, PickleError> {
        match self.head()? {
            RefHead::Stub(pid) => {
                self.stats.stubs += 1;
                match self.context.get(pid) {
                    Some(Entity::Tycon(tc)) => Ok(tc.clone()),
                    Some(_) => Err(PickleError::WrongKind("type constructor")),
                    None => Err(PickleError::UnknownStub(pid)),
                }
            }
            RefHead::Back(ix) => self
                .tycons
                .get(ix as usize)
                .cloned()
                .ok_or_else(|| PickleError::Corrupt(format!("tycon backref {ix}"))),
            RefHead::New(pid) => {
                let name = self.sym()?;
                let arity = self.r.u32()? as usize;
                // Allocate the shell before reading the definition so that
                // recursive datatypes can refer back to it (two-phase
                // hydration).
                let tc = Tycon::new(self.stamper.fresh(), name, arity, TyconDef::Abstract);
                tc.entity_pid.set(Some(pid));
                self.tycons.push(tc.clone());
                let def = match self.r.u8()? {
                    DEF_ABSTRACT => TyconDef::Abstract,
                    DEF_DATATYPE => {
                        // A constructor is a name and an argument tag.
                        let n = self.r.count(4 + 1)?;
                        let mut cons = Vec::with_capacity(n);
                        for _ in 0..n {
                            let cname = self.sym()?;
                            let arg = match self.r.u8()? {
                                0 => None,
                                1 => Some(self.ty()?),
                                t => {
                                    return Err(PickleError::Corrupt(format!(
                                        "bad con-arg tag {t}"
                                    )))
                                }
                            };
                            cons.push(ConDef { name: cname, arg });
                        }
                        TyconDef::Datatype(DatatypeInfo { cons })
                    }
                    DEF_ALIAS => TyconDef::Alias(self.ty()?),
                    t => return Err(PickleError::Corrupt(format!("bad def tag {t}"))),
                };
                *tc.def.write() = def;
                Ok(tc)
            }
        }
    }

    fn structure(&mut self) -> Result<Arc<StructureEnv>, PickleError> {
        match self.head()? {
            RefHead::Stub(pid) => {
                self.stats.stubs += 1;
                match self.context.get(pid) {
                    Some(Entity::Str(s)) => Ok(s.clone()),
                    Some(_) => Err(PickleError::WrongKind("structure")),
                    None => Err(PickleError::UnknownStub(pid)),
                }
            }
            RefHead::Back(ix) => self
                .strs
                .get(ix as usize)
                .cloned()
                .ok_or_else(|| PickleError::Corrupt(format!("structure backref {ix}"))),
            RefHead::New(pid) => {
                // Reserve the index before descending: substructure order
                // must match the dehydrater's numbering.
                let ix = self.strs.len();
                self.strs
                    .push(StructureEnv::new(self.stamper.fresh(), Bindings::new()));
                let bindings = self.bindings()?;
                let s = StructureEnv::new(self.strs[ix].stamp, bindings);
                s.entity_pid.set(Some(pid));
                self.strs[ix] = s.clone();
                Ok(s)
            }
        }
    }

    fn signature(&mut self) -> Result<Arc<SignatureEnv>, PickleError> {
        match self.head()? {
            RefHead::Stub(pid) => {
                self.stats.stubs += 1;
                match self.context.get(pid) {
                    Some(Entity::Sig(s)) => Ok(s.clone()),
                    Some(_) => Err(PickleError::WrongKind("signature")),
                    None => Err(PickleError::UnknownStub(pid)),
                }
            }
            RefHead::Back(ix) => self
                .sigs
                .get(ix as usize)
                .cloned()
                .ok_or_else(|| PickleError::Corrupt(format!("signature backref {ix}"))),
            RefHead::New(pid) => {
                let ix = self.sigs.len();
                // Placeholder; replaced after the body is read.
                self.sigs.push(Arc::new(SignatureEnv {
                    stamp: self.stamper.fresh(),
                    entity_pid: PidCell::new(None),
                    bound: Vec::new(),
                    body: StructureEnv::new(self.stamper.fresh(), Bindings::new()),
                    lo: 0,
                    hi: 0,
                }));
                let lo = StampGenerator::peek_raw();
                let body = self.structure()?;
                let n = self.r.count(4)?;
                let mut bound = Vec::with_capacity(n);
                for _ in 0..n {
                    let tix = self.r.u32()? as usize;
                    let tc = self
                        .tycons
                        .get(tix)
                        .ok_or_else(|| PickleError::Corrupt(format!("bound tycon ref {tix}")))?;
                    bound.push(tc.stamp);
                }
                let hi = StampGenerator::peek_raw();
                let s = Arc::new(SignatureEnv {
                    stamp: self.sigs[ix].stamp,
                    entity_pid: PidCell::new(Some(pid)),
                    bound,
                    body,
                    lo,
                    hi,
                });
                self.sigs[ix] = s.clone();
                Ok(s)
            }
        }
    }

    fn functor(&mut self) -> Result<Arc<FunctorEnv>, PickleError> {
        match self.head()? {
            RefHead::Stub(pid) => {
                self.stats.stubs += 1;
                match self.context.get(pid) {
                    Some(Entity::Fct(f)) => Ok(f.clone()),
                    Some(_) => Err(PickleError::WrongKind("functor")),
                    None => Err(PickleError::UnknownStub(pid)),
                }
            }
            RefHead::Back(ix) => self
                .fcts
                .get(ix as usize)
                .cloned()
                .ok_or_else(|| PickleError::Corrupt(format!("functor backref {ix}"))),
            RefHead::New(pid) => {
                let ix = self.fcts.len();
                let stamp = self.stamper.fresh();
                // Placeholder for numbering; replaced below.
                self.fcts.push(Arc::new(FunctorEnv {
                    stamp,
                    entity_pid: PidCell::new(None),
                    param_name: Symbol::intern("?"),
                    param_sig: Arc::new(SignatureEnv {
                        stamp,
                        entity_pid: PidCell::new(None),
                        bound: Vec::new(),
                        body: StructureEnv::new(stamp, Bindings::new()),
                        lo: 0,
                        hi: 0,
                    }),
                    param_inst: StructureEnv::new(stamp, Bindings::new()),
                    skolems: Vec::new(),
                    body: StructureEnv::new(stamp, Bindings::new()),
                    gen_lo: 0,
                    gen_hi: 0,
                }));
                let param_name = self.sym()?;
                let gen_lo = StampGenerator::peek_raw();
                let param_sig = self.signature()?;
                let param_inst = self.structure()?;
                let n = self.r.count(4)?;
                let mut skolems = Vec::with_capacity(n);
                for _ in 0..n {
                    let tix = self.r.u32()? as usize;
                    let tc = self
                        .tycons
                        .get(tix)
                        .ok_or_else(|| PickleError::Corrupt(format!("skolem ref {tix}")))?;
                    skolems.push(tc.stamp);
                }
                let body = self.structure()?;
                let gen_hi = StampGenerator::peek_raw();
                let f = Arc::new(FunctorEnv {
                    stamp,
                    entity_pid: PidCell::new(Some(pid)),
                    param_name,
                    param_sig,
                    param_inst,
                    skolems,
                    body,
                    gen_lo,
                    gen_hi,
                });
                self.fcts[ix] = f.clone();
                Ok(f)
            }
        }
    }

    fn bindings(&mut self) -> Result<Bindings, PickleError> {
        let mut b = Bindings::new();
        let nvals = self.r.u32()?;
        for _ in 0..nvals {
            let n = self.sym()?;
            let vb = self.valbind()?;
            b.vals.push((n, vb));
        }
        let ntycons = self.r.u32()?;
        for _ in 0..ntycons {
            let n = self.sym()?;
            let tc = self.tycon()?;
            b.tycons.push((n, tc));
        }
        let nstrs = self.r.u32()?;
        for _ in 0..nstrs {
            let n = self.sym()?;
            let s = self.structure()?;
            b.strs.push((n, s));
        }
        let nsigs = self.r.u32()?;
        for _ in 0..nsigs {
            let n = self.sym()?;
            let s = self.signature()?;
            b.sigs.push((n, s));
        }
        let nfcts = self.r.u32()?;
        for _ in 0..nfcts {
            let n = self.sym()?;
            let f = self.functor()?;
            b.fcts.push((n, f));
        }
        Ok(b)
    }

    fn valbind(&mut self) -> Result<ValBind, PickleError> {
        let scheme = self.scheme()?;
        let kind = match self.r.u8()? {
            KIND_PLAIN => ValKind::Plain,
            KIND_EXN => ValKind::Exn,
            KIND_PRIM => {
                let name = self.r.str_ref()?;
                let op = smlsc_syntax::ast::PrimOp::from_name(name)
                    .ok_or_else(|| PickleError::Corrupt(format!("unknown primitive `{name}`")))?;
                ValKind::Prim(op)
            }
            KIND_CON => {
                let tycon = self.tycon()?;
                let tag = self.contag()?;
                ValKind::Con { tycon, tag }
            }
            t => return Err(PickleError::Corrupt(format!("bad val kind {t}"))),
        };
        Ok(ValBind { scheme, kind })
    }

    fn contag(&mut self) -> Result<ConTag, PickleError> {
        let tag = self.r.u32()?;
        let span = self.r.u32()?;
        let has_arg = self.r.u8()? != 0;
        let name = self.sym()?;
        Ok(ConTag {
            tag,
            span,
            has_arg,
            name,
        })
    }

    fn scheme(&mut self) -> Result<Scheme, PickleError> {
        let arity = self.r.u32()?;
        let body = self.ty()?;
        Ok(Scheme { arity, body })
    }

    fn ty(&mut self) -> Result<Type, PickleError> {
        match self.r.u8()? {
            TY_PARAM => Ok(Type::Param(self.r.u32()?)),
            TY_CON => {
                let tc = self.tycon()?;
                let n = self.r.count(1)?;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.ty()?);
                }
                Ok(Type::Con(tc, args))
            }
            TY_TUPLE => {
                let n = self.r.count(1)?;
                let mut ts = Vec::with_capacity(n);
                for _ in 0..n {
                    ts.push(self.ty()?);
                }
                Ok(Type::Tuple(ts))
            }
            TY_ARROW => {
                let a = self.ty()?;
                let b = self.ty()?;
                Ok(Type::Arrow(Box::new(a), Box::new(b)))
            }
            t => Err(PickleError::Corrupt(format!("bad type tag {t}"))),
        }
    }
}
