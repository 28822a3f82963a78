//! Types, type constructors, schemes, and unification.
//!
//! Every type constructor carries a generative [`Stamp`] — two tycons are
//! the same type iff their stamps are equal — and an `entity_pid` cell
//! that the compilation manager fills when the tycon is first exported
//! (§5: pids derived from the export pid, the digest of the unit's
//! pickled interface).  Inference is standard Hindley–Milner with level-based
//! generalization and the SML value restriction.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use smlsc_ids::{PidCell, Stamp, Symbol};

/// How a type constructor is defined.
#[derive(Debug, Clone)]
pub enum TyconDef {
    /// A primitive (pervasive) type: `int`, `string`, `unit`, `exn`.
    Prim,
    /// An abstract type (signature spec or opaque ascription).
    Abstract,
    /// A generative datatype with its constructors.
    Datatype(DatatypeInfo),
    /// A transparent abbreviation; `body` uses [`Type::Param`] indices
    /// below the tycon's arity.
    Alias(Type),
}

/// The constructors of a datatype.
#[derive(Debug, Clone)]
pub struct DatatypeInfo {
    /// Constructors in declaration order; the index is the runtime tag.
    pub cons: Vec<ConDef>,
}

/// One datatype constructor.
#[derive(Debug, Clone)]
pub struct ConDef {
    /// Constructor name.
    pub name: Symbol,
    /// Argument type (with [`Type::Param`] for the datatype's type
    /// variables), if the constructor takes one.
    pub arg: Option<Type>,
}

/// A stamped type constructor.
///
/// The definition lives in a lock because recursive datatypes are built
/// in two phases (allocate the tycon, then fill its constructors, which
/// mention it) — and the pickler rebuilds cyclic structure the same way.
/// It is an `RwLock` (not a `RefCell`) so environments can be shared
/// across build-worker threads.
pub struct Tycon {
    /// Generative identity.
    pub stamp: Stamp,
    /// Name for printing (last path component at its definition).
    pub name: Symbol,
    /// Number of type parameters.
    pub arity: usize,
    /// The definition.
    pub def: RwLock<TyconDef>,
    /// Persistent identity, assigned when the tycon is first exported
    /// (pre-set for pervasives so they hash identically everywhere).
    pub entity_pid: PidCell,
}

impl fmt::Debug for Tycon {
    /// Shallow: recursive datatypes make the definition graph cyclic, so
    /// `Debug` prints only the identity and the definition's kind.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &*self.def.read() {
            TyconDef::Prim => "prim",
            TyconDef::Abstract => "abstract",
            TyconDef::Datatype(_) => "datatype",
            TyconDef::Alias(_) => "alias",
        };
        write!(
            f,
            "Tycon({}/{} {} {})",
            self.name, self.arity, self.stamp, kind
        )
    }
}

impl Tycon {
    /// Allocates a tycon.
    pub fn new(stamp: Stamp, name: Symbol, arity: usize, def: TyconDef) -> Arc<Tycon> {
        Arc::new(Tycon {
            stamp,
            name,
            arity,
            def: RwLock::new(def),
            entity_pid: PidCell::new(None),
        })
    }

    /// True if this tycon is a datatype.
    pub fn is_datatype(&self) -> bool {
        matches!(&*self.def.read(), TyconDef::Datatype(_))
    }

    /// The datatype info, if this is a datatype.
    pub fn datatype_info(&self) -> Option<DatatypeInfo> {
        match &*self.def.read() {
            TyconDef::Datatype(d) => Some(d.clone()),
            _ => None,
        }
    }
}

/// A unification variable.
#[derive(Debug)]
pub struct UVar {
    /// Binding level for generalization.
    pub level: AtomicU32,
    /// The solution, once unified.
    pub link: RwLock<Option<Type>>,
}

impl UVar {
    /// The current binding level.
    pub fn level(&self) -> u32 {
        self.level.load(Ordering::Relaxed)
    }

    /// Lowers (or raises) the binding level.
    pub fn set_level(&self, level: u32) {
        self.level.store(level, Ordering::Relaxed);
    }
}

/// A semantic type.
#[derive(Debug, Clone)]
pub enum Type {
    /// A unification variable.
    UVar(Arc<UVar>),
    /// A bound variable: index into the enclosing [`Scheme`], alias body,
    /// or constructor definition.
    Param(u32),
    /// Constructor application (primitives and nullary constructors
    /// included).
    Con(Arc<Tycon>, Vec<Type>),
    /// Tuple type (the empty tuple is not used; `unit` is a prim tycon).
    Tuple(Vec<Type>),
    /// Function type.
    Arrow(Box<Type>, Box<Type>),
}

impl Type {
    /// A fresh unification variable at `level`.
    pub fn fresh(level: u32) -> Type {
        Type::UVar(Arc::new(UVar {
            level: AtomicU32::new(level),
            link: RwLock::new(None),
        }))
    }

    /// Follows links and expands top-level aliases until the head is
    /// structural.
    pub fn head_normalize(&self) -> Type {
        match self {
            Type::UVar(uv) => {
                let link = uv.link.read().clone();
                match link {
                    Some(t) => t.head_normalize(),
                    None => self.clone(),
                }
            }
            Type::Con(tc, args) => {
                let expanded = match &*tc.def.read() {
                    TyconDef::Alias(body) => Some(subst_params(body, args)),
                    _ => None,
                };
                match expanded {
                    Some(t) => t.head_normalize(),
                    None => self.clone(),
                }
            }
            other => other.clone(),
        }
    }

    /// Resolves all links (not aliases), producing a link-free type.
    /// Unsolved variables remain as `UVar`.
    pub fn zonk(&self) -> Type {
        match self {
            Type::UVar(uv) => {
                let link = uv.link.read().clone();
                match link {
                    Some(t) => t.zonk(),
                    None => self.clone(),
                }
            }
            Type::Param(i) => Type::Param(*i),
            Type::Con(tc, args) => Type::Con(tc.clone(), args.iter().map(Type::zonk).collect()),
            Type::Tuple(ts) => Type::Tuple(ts.iter().map(Type::zonk).collect()),
            Type::Arrow(a, b) => Type::Arrow(Box::new(a.zonk()), Box::new(b.zonk())),
        }
    }

    /// Collects unsolved unification variables (after zonking callers
    /// usually want this to be empty for exports).
    pub fn free_uvars(&self, out: &mut Vec<Arc<UVar>>) {
        match self {
            Type::UVar(uv) => {
                let link = uv.link.read().clone();
                match link {
                    Some(t) => t.free_uvars(out),
                    None => {
                        if !out.iter().any(|v| Arc::ptr_eq(v, uv)) {
                            out.push(uv.clone());
                        }
                    }
                }
            }
            Type::Param(_) => {}
            Type::Con(_, args) => {
                for a in args {
                    a.free_uvars(out);
                }
            }
            Type::Tuple(ts) => {
                for t in ts {
                    t.free_uvars(out);
                }
            }
            Type::Arrow(a, b) => {
                a.free_uvars(out);
                b.free_uvars(out);
            }
        }
    }
}

/// Substitutes `args` for `Param(i)` in `body`.
pub fn subst_params(body: &Type, args: &[Type]) -> Type {
    match body {
        Type::Param(i) => args
            .get(*i as usize)
            .cloned()
            .unwrap_or_else(|| body.clone()),
        Type::UVar(_) => body.clone(),
        Type::Con(tc, ts) => Type::Con(
            tc.clone(),
            ts.iter().map(|t| subst_params(t, args)).collect(),
        ),
        Type::Tuple(ts) => Type::Tuple(ts.iter().map(|t| subst_params(t, args)).collect()),
        Type::Arrow(a, b) => Type::Arrow(
            Box::new(subst_params(a, args)),
            Box::new(subst_params(b, args)),
        ),
    }
}

/// A type scheme: `∀ Param(0..arity). body`.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Number of quantified variables.
    pub arity: u32,
    /// The body, with `Param` indices below `arity`.
    pub body: Type,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: Type) -> Scheme {
        Scheme { arity: 0, body: ty }
    }

    /// Instantiates with fresh unification variables at `level`.
    pub fn instantiate(&self, level: u32) -> Type {
        if self.arity == 0 {
            return self.body.clone();
        }
        let args: Vec<Type> = (0..self.arity).map(|_| Type::fresh(level)).collect();
        subst_params(&self.body, &args)
    }

    /// Instantiates with the given types (used by signature matching).
    pub fn instantiate_with(&self, args: &[Type]) -> Type {
        subst_params(&self.body, args)
    }
}

/// A unification failure, rendered by the elaborator into an error.
#[derive(Debug, Clone)]
pub struct UnifyError {
    /// The two irreconcilable types, pretty-printed.
    pub left: String,
    /// See `left`.
    pub right: String,
    /// Extra context ("occurs check", "arity"), if any.
    pub detail: Option<String>,
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot unify `{}` with `{}`", self.left, self.right)?;
        if let Some(d) = &self.detail {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

fn mismatch(a: &Type, b: &Type, detail: Option<&str>) -> UnifyError {
    // Both sides share one numbering, so `'u1` names one variable.
    let mut uvars = Vec::new();
    UnifyError {
        left: format_type_with(a, &mut uvars),
        right: format_type_with(b, &mut uvars),
        detail: detail.map(str::to_owned),
    }
}

/// Unifies two types in place.
///
/// # Errors
///
/// Returns a [`UnifyError`] on constructor clash, arity mismatch, or
/// occurs-check failure.
pub fn unify(a: &Type, b: &Type) -> Result<(), UnifyError> {
    let a = a.head_normalize();
    let b = b.head_normalize();
    match (&a, &b) {
        (Type::UVar(ua), Type::UVar(ub)) if Arc::ptr_eq(ua, ub) => Ok(()),
        (Type::UVar(uv), other) | (other, Type::UVar(uv)) => {
            if occurs(uv, other) {
                return Err(mismatch(&a, &b, Some("occurs check")));
            }
            lower_levels(uv.level(), other);
            *uv.link.write() = Some(other.clone());
            Ok(())
        }
        (Type::Param(i), Type::Param(j)) if i == j => Ok(()),
        (Type::Con(tc1, args1), Type::Con(tc2, args2)) => {
            if tc1.stamp != tc2.stamp {
                return Err(mismatch(&a, &b, None));
            }
            if args1.len() != args2.len() {
                return Err(mismatch(&a, &b, Some("arity")));
            }
            for (x, y) in args1.iter().zip(args2) {
                unify(x, y)?;
            }
            Ok(())
        }
        (Type::Tuple(ts1), Type::Tuple(ts2)) => {
            if ts1.len() != ts2.len() {
                return Err(mismatch(&a, &b, Some("tuple width")));
            }
            for (x, y) in ts1.iter().zip(ts2) {
                unify(x, y)?;
            }
            Ok(())
        }
        (Type::Arrow(a1, r1), Type::Arrow(a2, r2)) => {
            unify(a1, a2)?;
            unify(r1, r2)
        }
        _ => Err(mismatch(&a, &b, None)),
    }
}

fn occurs(uv: &Arc<UVar>, t: &Type) -> bool {
    match t {
        Type::UVar(other) => {
            if Arc::ptr_eq(uv, other) {
                return true;
            }
            let link = other.link.read().clone();
            match link {
                Some(t2) => occurs(uv, &t2),
                None => false,
            }
        }
        Type::Param(_) => false,
        Type::Con(_, args) => args.iter().any(|t| occurs(uv, t)),
        Type::Tuple(ts) => ts.iter().any(|t| occurs(uv, t)),
        Type::Arrow(a, b) => occurs(uv, a) || occurs(uv, b),
    }
}

/// Lowers the level of every variable in `t` to at most `level`, so a
/// variable bound outside a `let` cannot be generalized by it.
fn lower_levels(level: u32, t: &Type) {
    match t {
        Type::UVar(uv) => {
            let link = uv.link.read().clone();
            match link {
                Some(t2) => lower_levels(level, &t2),
                None => {
                    if uv.level() > level {
                        uv.set_level(level);
                    }
                }
            }
        }
        Type::Param(_) => {}
        Type::Con(_, args) => {
            for a in args {
                lower_levels(level, a);
            }
        }
        Type::Tuple(ts) => {
            for t in ts {
                lower_levels(level, t);
            }
        }
        Type::Arrow(a, b) => {
            lower_levels(level, a);
            lower_levels(level, b);
        }
    }
}

/// Generalizes `t` over every unsolved variable at a level deeper than
/// `level`, producing a scheme.
pub fn generalize(level: u32, t: &Type) -> Scheme {
    let mut vars: Vec<Arc<UVar>> = Vec::new();
    collect_generalizable(level, t, &mut vars);
    for (i, uv) in vars.iter().enumerate() {
        *uv.link.write() = Some(Type::Param(i as u32));
    }
    Scheme {
        arity: vars.len() as u32,
        body: t.zonk(),
    }
}

fn collect_generalizable(level: u32, t: &Type, out: &mut Vec<Arc<UVar>>) {
    match t {
        Type::UVar(uv) => {
            let link = uv.link.read().clone();
            match link {
                Some(t2) => collect_generalizable(level, &t2, out),
                None => {
                    if uv.level() > level && !out.iter().any(|v| Arc::ptr_eq(v, uv)) {
                        out.push(uv.clone());
                    }
                }
            }
        }
        Type::Param(_) => {}
        Type::Con(_, args) => {
            for a in args {
                collect_generalizable(level, a, out);
            }
        }
        Type::Tuple(ts) => {
            for t in ts {
                collect_generalizable(level, t, out);
            }
        }
        Type::Arrow(a, b) => {
            collect_generalizable(level, a, out);
            collect_generalizable(level, b, out);
        }
    }
}

/// Pretty-prints a type for error messages and the session REPL.
/// Unsolved variables print as `'u1`, `'u2`, … in order of first
/// appearance, so the text depends on the type alone — never on how
/// many variables the process made before.
pub fn format_type(t: &Type) -> String {
    format_type_with(t, &mut Vec::new())
}

/// [`format_type`], numbering unsolved variables after those already in
/// `uvars` (and adding the new ones), so several types printed into one
/// message agree on each variable's name.
fn format_type_with(t: &Type, uvars: &mut Vec<Arc<UVar>>) -> String {
    fn go(t: &Type, prec: u8, uvars: &mut Vec<Arc<UVar>>, out: &mut String) {
        match &t.head_normalize() {
            Type::UVar(uv) => {
                let n = match uvars.iter().position(|v| Arc::ptr_eq(v, uv)) {
                    Some(i) => i + 1,
                    None => {
                        uvars.push(Arc::clone(uv));
                        uvars.len()
                    }
                };
                out.push_str(&format!("'u{n}"));
            }
            Type::Param(i) => {
                out.push('\'');
                let i = *i;
                if i < 26 {
                    out.push((b'a' + i as u8) as char);
                } else {
                    out.push_str(&format!("v{i}"));
                }
            }
            Type::Con(tc, args) => {
                match args.len() {
                    0 => {}
                    1 => {
                        go(&args[0], 2, uvars, out);
                        out.push(' ');
                    }
                    _ => {
                        out.push('(');
                        for (i, a) in args.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            go(a, 0, uvars, out);
                        }
                        out.push_str(") ");
                    }
                }
                out.push_str(tc.name.as_str());
            }
            Type::Tuple(ts) => {
                if prec > 1 {
                    out.push('(');
                }
                for (i, x) in ts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" * ");
                    }
                    go(x, 2, uvars, out);
                }
                if prec > 1 {
                    out.push(')');
                }
            }
            Type::Arrow(a, b) => {
                if prec > 0 {
                    out.push('(');
                }
                go(a, 1, uvars, out);
                out.push_str(" -> ");
                go(b, 0, uvars, out);
                if prec > 0 {
                    out.push(')');
                }
            }
        }
    }
    let mut s = String::new();
    go(t, 0, uvars, &mut s);
    s
}

/// Pretty-prints a scheme.
pub fn format_scheme(s: &Scheme) -> String {
    format_type(&s.body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlsc_ids::StampGenerator;

    fn prim(name: &str) -> Arc<Tycon> {
        Tycon::new(
            StampGenerator::global_fresh(),
            Symbol::intern(name),
            0,
            TyconDef::Prim,
        )
    }

    #[test]
    fn unify_identical_prims() {
        let int = prim("int");
        let a = Type::Con(int.clone(), vec![]);
        let b = Type::Con(int, vec![]);
        assert!(unify(&a, &b).is_ok());
    }

    #[test]
    fn unify_distinct_stamps_fails() {
        let a = Type::Con(prim("int"), vec![]);
        let b = Type::Con(prim("int"), vec![]); // same name, fresh stamp
        assert!(unify(&a, &b).is_err());
    }

    #[test]
    fn uvar_links_and_zonks() {
        let int = prim("int");
        let v = Type::fresh(0);
        unify(&v, &Type::Con(int.clone(), vec![])).unwrap();
        let z = v.zonk();
        assert!(matches!(z, Type::Con(tc, _) if tc.stamp == int.stamp));
    }

    #[test]
    fn occurs_check_fires() {
        let v = Type::fresh(0);
        let arrow = Type::Arrow(Box::new(v.clone()), Box::new(v.clone()));
        let e = unify(&v, &arrow).unwrap_err();
        assert_eq!(e.detail.as_deref(), Some("occurs check"));
    }

    #[test]
    fn alias_expansion_in_unify() {
        let int = prim("int");
        let g = StampGenerator::global_fresh();
        let alias = Tycon::new(
            g,
            Symbol::intern("t"),
            0,
            TyconDef::Alias(Type::Con(int.clone(), vec![])),
        );
        let a = Type::Con(alias, vec![]);
        let b = Type::Con(int, vec![]);
        assert!(unify(&a, &b).is_ok());
    }

    #[test]
    fn parametric_alias_expansion() {
        // type 'a pair = 'a * 'a ; pair int ~ int * int
        let int = prim("int");
        let pair = Tycon::new(
            StampGenerator::global_fresh(),
            Symbol::intern("pair"),
            1,
            TyconDef::Alias(Type::Tuple(vec![Type::Param(0), Type::Param(0)])),
        );
        let a = Type::Con(pair, vec![Type::Con(int.clone(), vec![])]);
        let b = Type::Tuple(vec![Type::Con(int.clone(), vec![]), Type::Con(int, vec![])]);
        assert!(unify(&a, &b).is_ok());
    }

    #[test]
    fn generalize_and_instantiate() {
        let v = Type::fresh(1);
        let t = Type::Arrow(Box::new(v.clone()), Box::new(v));
        let s = generalize(0, &t);
        assert_eq!(s.arity, 1);
        let i1 = s.instantiate(0);
        let i2 = s.instantiate(0);
        // The two instances are independent: unifying i1 with int must not
        // constrain i2.
        let int = prim("int");
        let Type::Arrow(a1, _) = &i1 else { panic!() };
        unify(a1, &Type::Con(int.clone(), vec![])).unwrap();
        let Type::Arrow(a2, _) = &i2 else { panic!() };
        let str_tc = prim("string");
        assert!(unify(a2, &Type::Con(str_tc, vec![])).is_ok());
    }

    #[test]
    fn levels_prevent_overgeneralization() {
        let outer = Type::fresh(1);
        // Unify inner var (level 2) with outer: level drops to 1, so
        // generalizing at level 1 captures nothing.
        let inner = Type::fresh(2);
        unify(&inner, &outer).unwrap();
        let s = generalize(1, &inner);
        assert_eq!(s.arity, 0);
    }

    #[test]
    fn format_types() {
        let int = prim("int");
        let t = Type::Arrow(
            Box::new(Type::Tuple(vec![
                Type::Con(int.clone(), vec![]),
                Type::Con(int.clone(), vec![]),
            ])),
            Box::new(Type::Con(int, vec![])),
        );
        assert_eq!(format_type(&t), "int * int -> int");
    }

    #[test]
    fn format_nested_arrow() {
        let int = prim("int");
        let i = || Type::Con(int.clone(), vec![]);
        let t = Type::Arrow(
            Box::new(Type::Arrow(Box::new(i()), Box::new(i()))),
            Box::new(i()),
        );
        assert_eq!(format_type(&t), "(int -> int) -> int");
    }
}
