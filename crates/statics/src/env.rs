//! Static environments: the bindings of modules, signatures and functors.
//!
//! A [`Bindings`] is the paper's "environment mapping names to types and
//! values" (§3), split by namespace and kept in insertion order — order
//! matters both for deterministic intrinsic pids (§5: the export pid
//! digests the pickle, a prefix-order traversal) and because a module's *runtime record layout*
//! is derived positionally from its bindings (see [`runtime_slots`]).

use smlsc_ids::PidCell;
use std::sync::Arc;

use smlsc_dynamics::ir::ConTag;
use smlsc_ids::{Stamp, Symbol};
use smlsc_syntax::ast::PrimOp;

use crate::types::{Scheme, Tycon};

/// How a value binding behaves.
#[derive(Debug, Clone)]
pub enum ValKind {
    /// An ordinary value; occupies a runtime record slot.
    Plain,
    /// A datatype constructor; purely static (no slot), applied or matched
    /// via its tag.
    Con {
        /// The datatype it belongs to.
        tycon: Arc<Tycon>,
        /// Runtime tag information.
        tag: ConTag,
    },
    /// An exception constructor; generative at runtime, occupies a slot.
    Exn,
    /// A compiler-primitive value (`itos`, `size`); purely static (no
    /// slot), applied directly or eta-expanded when used first-class.
    Prim(PrimOp),
}

/// A value binding: scheme plus kind.
#[derive(Debug, Clone)]
pub struct ValBind {
    /// The (possibly polymorphic) type.
    pub scheme: Scheme,
    /// Value, constructor, or exception.
    pub kind: ValKind,
}

/// The bindings of one structure (or one environment layer).
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    /// Value bindings in insertion order.
    pub vals: Vec<(Symbol, ValBind)>,
    /// Type constructors.
    pub tycons: Vec<(Symbol, Arc<Tycon>)>,
    /// Substructures.
    pub strs: Vec<(Symbol, Arc<StructureEnv>)>,
    /// Signatures (unit-level only; structures cannot contain them).
    pub sigs: Vec<(Symbol, Arc<SignatureEnv>)>,
    /// Functors.
    pub fcts: Vec<(Symbol, Arc<FunctorEnv>)>,
}

impl Bindings {
    /// An empty record of bindings.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Looks up a value (last binding wins).
    pub fn val(&self, name: Symbol) -> Option<&ValBind> {
        self.vals
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a type constructor.
    pub fn tycon(&self, name: Symbol) -> Option<&Arc<Tycon>> {
        self.tycons
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a substructure.
    pub fn str(&self, name: Symbol) -> Option<&Arc<StructureEnv>> {
        self.strs
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a signature.
    pub fn sig(&self, name: Symbol) -> Option<&Arc<SignatureEnv>> {
        self.sigs
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// Looks up a functor.
    pub fn fct(&self, name: Symbol) -> Option<&Arc<FunctorEnv>> {
        self.fcts
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
            && self.tycons.is_empty()
            && self.strs.is_empty()
            && self.sigs.is_empty()
            && self.fcts.is_empty()
    }

    /// Total number of bindings across namespaces.
    pub fn len(&self) -> usize {
        self.vals.len() + self.tycons.len() + self.strs.len() + self.sigs.len() + self.fcts.len()
    }
}

/// An elaborated structure: generative stamp plus bindings.
#[derive(Debug)]
pub struct StructureEnv {
    /// Generative identity.
    pub stamp: Stamp,
    /// Persistent identity, filled at first export.
    pub entity_pid: PidCell,
    /// The members.
    pub bindings: Bindings,
}

impl StructureEnv {
    /// Allocates a structure environment.
    pub fn new(stamp: Stamp, bindings: Bindings) -> Arc<StructureEnv> {
        Arc::new(StructureEnv {
            stamp,
            entity_pid: PidCell::new(None),
            bindings,
        })
    }
}

/// An elaborated signature: a structure *template* whose `bound` stamps
/// are flexible — instantiated afresh per use, realized to actual tycons
/// by signature matching.
#[derive(Debug)]
pub struct SignatureEnv {
    /// Generative identity of the signature itself.
    pub stamp: Stamp,
    /// Persistent identity, filled at first export.
    pub entity_pid: PidCell,
    /// Stamps of the flexible components (abstract types and datatype
    /// specs), in template traversal order.
    pub bound: Vec<Stamp>,
    /// The template.
    pub body: Arc<StructureEnv>,
    /// Raw-stamp range `[lo, hi)` of the template's own entities; realizing
    /// the template regenerates exactly this range (external references
    /// stay shared).
    pub lo: u64,
    /// See `lo`.
    pub hi: u64,
}

/// An elaborated functor.
///
/// The body was elaborated once against a skolemized instance of the
/// parameter signature; application realizes `skolems` to the argument's
/// actual tycons and refreshes every stamp in the generative range
/// (`gen_lo..gen_hi`) — so each application yields fresh datatypes,
/// exactly SML's generativity.
#[derive(Debug)]
pub struct FunctorEnv {
    /// Generative identity.
    pub stamp: Stamp,
    /// Persistent identity, filled at first export.
    pub entity_pid: PidCell,
    /// The formal parameter name (for error messages).
    pub param_name: Symbol,
    /// The parameter signature.
    pub param_sig: Arc<SignatureEnv>,
    /// The skolemized parameter instance the body saw.
    pub param_inst: Arc<StructureEnv>,
    /// Skolem stamps, parallel to `param_sig.bound`.
    pub skolems: Vec<Stamp>,
    /// The body template (references skolems and generative stamps).
    pub body: Arc<StructureEnv>,
    /// Raw-stamp range `[gen_lo, gen_hi)` of entities generated while
    /// elaborating the body; these are refreshed per application.
    pub gen_lo: u64,
    /// See `gen_lo`.
    pub gen_hi: u64,
}

/// What occupies one runtime record slot of a structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A value (kind `Plain` or `Exn`).
    Val(Symbol),
    /// A substructure record.
    Str(Symbol),
    /// A functor closure.
    Fct(Symbol),
}

/// The runtime record layout of a structure with these bindings.
///
/// Layout rule (shared by the elaborator, coercion generator and linker):
/// every `Plain`/`Exn` value in order, then every substructure, then every
/// functor.  Constructors and signatures have no runtime representation.
/// When a name is bound more than once, only the *last* binding gets a
/// slot (earlier ones are shadowed and unreachable).
pub fn runtime_slots(b: &Bindings) -> Vec<Slot> {
    let mut out = Vec::new();
    for (i, (name, vb)) in b.vals.iter().enumerate() {
        let last = b
            .vals
            .iter()
            .rposition(|(n, _)| n == name)
            .expect("name present");
        if last != i {
            continue; // shadowed
        }
        match vb.kind {
            ValKind::Plain | ValKind::Exn => out.push(Slot::Val(*name)),
            ValKind::Con { .. } | ValKind::Prim(_) => {}
        }
    }
    for (i, (name, _)) in b.strs.iter().enumerate() {
        let last = b
            .strs
            .iter()
            .rposition(|(n, _)| n == name)
            .expect("name present");
        if last == i {
            out.push(Slot::Str(*name));
        }
    }
    for (i, (name, _)) in b.fcts.iter().enumerate() {
        let last = b
            .fcts
            .iter()
            .rposition(|(n, _)| n == name)
            .expect("name present");
        if last == i {
            out.push(Slot::Fct(*name));
        }
    }
    out
}

/// The slot index of value `name` in the layout of `b`, if it has one.
pub fn val_slot(b: &Bindings, name: Symbol) -> Option<u32> {
    runtime_slots(b)
        .iter()
        .position(|s| *s == Slot::Val(name))
        .map(|i| i as u32)
}

/// The slot index of substructure `name`.
pub fn str_slot(b: &Bindings, name: Symbol) -> Option<u32> {
    runtime_slots(b)
        .iter()
        .position(|s| *s == Slot::Str(name))
        .map(|i| i as u32)
}

/// The slot index of functor `name`.
pub fn fct_slot(b: &Bindings, name: Symbol) -> Option<u32> {
    runtime_slots(b)
        .iter()
        .position(|s| *s == Slot::Fct(name))
        .map(|i| i as u32)
}

// `Bindings` crosses build-worker threads in the IRM's parallel
// scheduler; this fails to compile if any component regresses to a
// single-threaded cell.
#[allow(dead_code)]
fn assert_bindings_shareable() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Bindings>();
    assert_send_sync::<StructureEnv>();
    assert_send_sync::<SignatureEnv>();
    assert_send_sync::<FunctorEnv>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{TyconDef, Type};
    use smlsc_ids::StampGenerator;

    fn plain_val() -> ValBind {
        ValBind {
            scheme: Scheme::mono(Type::fresh(0)),
            kind: ValKind::Plain,
        }
    }

    fn con_val(tycon: Arc<Tycon>) -> ValBind {
        ValBind {
            scheme: Scheme::mono(Type::fresh(0)),
            kind: ValKind::Con {
                tycon,
                tag: ConTag {
                    tag: 0,
                    span: 1,
                    has_arg: false,
                    name: Symbol::intern("C"),
                },
            },
        }
    }

    #[test]
    fn layout_skips_constructors() {
        let mut g = StampGenerator::new();
        let tc = Tycon::new(g.fresh(), Symbol::intern("t"), 0, TyconDef::Abstract);
        let mut b = Bindings::new();
        b.vals.push((Symbol::intern("x"), plain_val()));
        b.vals.push((Symbol::intern("C"), con_val(tc)));
        b.vals.push((Symbol::intern("y"), plain_val()));
        let slots = runtime_slots(&b);
        assert_eq!(
            slots,
            vec![
                Slot::Val(Symbol::intern("x")),
                Slot::Val(Symbol::intern("y"))
            ]
        );
        assert_eq!(val_slot(&b, Symbol::intern("y")), Some(1));
        assert_eq!(val_slot(&b, Symbol::intern("C")), None);
    }

    #[test]
    fn layout_orders_vals_then_strs_then_fcts() {
        let mut g = StampGenerator::new();
        let mut b = Bindings::new();
        b.strs.push((
            Symbol::intern("S"),
            StructureEnv::new(g.fresh(), Bindings::new()),
        ));
        b.vals.push((Symbol::intern("x"), plain_val()));
        let slots = runtime_slots(&b);
        assert_eq!(
            slots,
            vec![
                Slot::Val(Symbol::intern("x")),
                Slot::Str(Symbol::intern("S"))
            ]
        );
        assert_eq!(str_slot(&b, Symbol::intern("S")), Some(1));
    }

    #[test]
    fn shadowed_bindings_lose_their_slot() {
        let mut b = Bindings::new();
        b.vals.push((Symbol::intern("x"), plain_val()));
        b.vals.push((Symbol::intern("x"), plain_val()));
        assert_eq!(runtime_slots(&b).len(), 1);
    }

    #[test]
    fn lookup_finds_last_binding() {
        let mut b = Bindings::new();
        let v1 = ValBind {
            scheme: Scheme::mono(Type::Param(0)),
            kind: ValKind::Plain,
        };
        let v2 = ValBind {
            scheme: Scheme::mono(Type::Param(1)),
            kind: ValKind::Plain,
        };
        b.vals.push((Symbol::intern("x"), v1));
        b.vals.push((Symbol::intern("x"), v2));
        let got = b.val(Symbol::intern("x")).unwrap();
        assert!(matches!(got.scheme.body, Type::Param(1)));
    }
}
