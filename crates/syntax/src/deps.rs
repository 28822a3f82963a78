//! Import analysis: the free module-level names of a compilation unit.
//!
//! §8 of the paper: the IRM "analyzes dependencies among the source files
//! ... automatically" — no makefiles.  A unit's imports are exactly the
//! structure, signature and functor names it mentions but does not bind.
//! Core-level unqualified names never escape a unit (footnote 4: units
//! contain only module bindings), so free *module* names suffice.
//!
//! Shadowing is respected per namespace: a functor parameter `P` hides an
//! outer structure `P` inside the functor body, a `let`-bound structure
//! hides an import inside its scope, and so on.

use std::collections::HashSet;

use smlsc_ids::Symbol;

use crate::ast::*;

/// Returns the free module-level names of `unit`, sorted by name.
///
/// These are the names the unit imports: every structure, signature or
/// functor referenced but not bound by the unit itself.
///
/// # Examples
///
/// ```
/// let unit = smlsc_syntax::parse_unit(
///     "structure B : S = struct val y = A.x end",
/// ).unwrap();
/// let free = smlsc_syntax::deps::free_module_names(&unit);
/// let names: Vec<&str> = free.iter().map(|s| s.as_str()).collect();
/// assert_eq!(names, vec!["A", "S"]);
/// ```
pub fn free_module_names(unit: &UnitAst) -> Vec<Symbol> {
    let mut c = Collector::new();
    for dec in &unit.decs {
        c.topdec(dec);
    }
    let mut v: Vec<Symbol> = c.free.into_iter().collect();
    v.sort_by_key(|s| s.as_str());
    v
}

/// One lexical scope's worth of module bindings, split by namespace.
#[derive(Default)]
struct Scope {
    strs: HashSet<Symbol>,
    sigs: HashSet<Symbol>,
    fcts: HashSet<Symbol>,
}

struct Collector {
    scopes: Vec<Scope>,
    free: HashSet<Symbol>,
}

#[derive(Clone, Copy)]
enum Ns {
    Str,
    Sig,
    Fct,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            scopes: vec![Scope::default()],
            free: HashSet::new(),
        }
    }

    fn push(&mut self) {
        self.scopes.push(Scope::default());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn bind(&mut self, ns: Ns, name: Symbol) {
        let top = self.scopes.last_mut().expect("at least one scope");
        match ns {
            Ns::Str => top.strs.insert(name),
            Ns::Sig => top.sigs.insert(name),
            Ns::Fct => top.fcts.insert(name),
        };
    }

    fn is_bound(&self, ns: Ns, name: Symbol) -> bool {
        self.scopes.iter().rev().any(|s| match ns {
            Ns::Str => s.strs.contains(&name),
            Ns::Sig => s.sigs.contains(&name),
            Ns::Fct => s.fcts.contains(&name),
        })
    }

    fn reference(&mut self, ns: Ns, name: Symbol) {
        if !self.is_bound(ns, name) {
            self.free.insert(name);
        }
    }

    /// A qualified path's root is a structure reference; unqualified value
    /// or type names are core-level and never unit imports.
    fn path(&mut self, p: &Path) {
        if !p.is_simple() {
            self.reference(Ns::Str, p.root());
        }
    }

    /// A path in *structure position* is a structure reference even when
    /// unqualified.
    fn str_path(&mut self, p: &Path) {
        self.reference(Ns::Str, p.root());
    }

    fn topdec(&mut self, d: &TopDec) {
        match d {
            TopDec::Signature { name, def, .. } => {
                self.sigexp(def);
                self.bind(Ns::Sig, *name);
            }
            TopDec::Structure {
                name,
                constraint,
                def,
                ..
            } => {
                if let Some((sig, _)) = constraint {
                    self.sigexp(sig);
                }
                self.strexp(def);
                self.bind(Ns::Str, *name);
            }
            TopDec::Functor {
                name,
                param,
                param_sig,
                result,
                body,
                ..
            } => {
                self.sigexp(param_sig);
                self.push();
                self.bind(Ns::Str, *param);
                if let Some((sig, _)) = result {
                    self.sigexp(sig);
                }
                self.strexp(body);
                self.pop();
                self.bind(Ns::Fct, *name);
            }
        }
    }

    fn sigexp(&mut self, s: &SigExp) {
        match s {
            SigExp::Var(name) => self.reference(Ns::Sig, *name),
            SigExp::Sig(specs) => {
                self.push();
                for spec in specs {
                    self.spec(spec);
                }
                self.pop();
            }
            SigExp::WhereType {
                base, ty_path, def, ..
            } => {
                self.sigexp(base);
                // The constrained type lives *inside* the signature; only its
                // definition can mention imports.
                let _ = ty_path;
                self.ty(def);
            }
        }
    }

    fn spec(&mut self, s: &Spec) {
        match s {
            Spec::Val(_, ty) => self.ty(ty),
            Spec::Type { def, .. } => {
                if let Some(t) = def {
                    self.ty(t);
                }
            }
            Spec::Datatype(dbs) => {
                for db in dbs {
                    for (_, arg) in &db.cons {
                        if let Some(t) = arg {
                            self.ty(t);
                        }
                    }
                }
            }
            Spec::Exception(_, arg) => {
                if let Some(t) = arg {
                    self.ty(t);
                }
            }
            Spec::Structure(name, sig) => {
                self.sigexp(sig);
                self.bind(Ns::Str, *name);
            }
            Spec::Include(sig) => self.sigexp(sig),
        }
    }

    fn strexp(&mut self, s: &StrExp) {
        match s {
            StrExp::Var(p) => self.str_path(p),
            StrExp::Struct(decs) => {
                self.push();
                for d in decs {
                    self.strdec(d);
                }
                self.pop();
            }
            StrExp::Ascribe { str, sig, .. } => {
                self.strexp(str);
                self.sigexp(sig);
            }
            StrExp::App(f, arg) => {
                self.reference(Ns::Fct, *f);
                self.strexp(arg);
            }
            StrExp::Let(decs, body) => {
                self.push();
                for d in decs {
                    self.strdec(d);
                }
                self.strexp(body);
                self.pop();
            }
        }
    }

    fn strdec(&mut self, d: &StrDec) {
        match d {
            StrDec::Core(dec) => self.dec(dec),
            StrDec::Structure {
                name,
                constraint,
                def,
                ..
            } => {
                if let Some((sig, _)) = constraint {
                    self.sigexp(sig);
                }
                self.strexp(def);
                self.bind(Ns::Str, *name);
            }
        }
    }

    fn dec(&mut self, d: &Dec) {
        match d {
            Dec::Val { pat, exp, .. } => {
                self.pat(pat);
                self.exp(exp);
            }
            Dec::Fun(fbs) => {
                for fb in fbs {
                    for cl in &fb.clauses {
                        for p in &cl.params {
                            self.pat(p);
                        }
                        if let Some(t) = &cl.result_ty {
                            self.ty(t);
                        }
                        self.exp(&cl.body);
                    }
                }
            }
            Dec::Type { def, .. } => self.ty(def),
            Dec::Datatype(dbs) => {
                for db in dbs {
                    for (_, arg) in &db.cons {
                        if let Some(t) = arg {
                            self.ty(t);
                        }
                    }
                }
            }
            Dec::Exception { arg, .. } => {
                if let Some(t) = arg {
                    self.ty(t);
                }
            }
            Dec::Local(hidden, visible) => {
                for d in hidden {
                    self.dec(d);
                }
                for d in visible {
                    self.dec(d);
                }
            }
            Dec::Open(paths) => {
                for p in paths {
                    self.str_path(p);
                }
            }
        }
    }

    fn pat(&mut self, p: &Pat) {
        match p {
            Pat::Wild | Pat::Lit(_) => {}
            Pat::Var(path) => self.path(path),
            Pat::Tuple(ps) | Pat::List(ps) => {
                for p in ps {
                    self.pat(p);
                }
            }
            Pat::Con(path, arg) => {
                self.path(path);
                self.pat(arg);
            }
            Pat::Ascribe(p, ty) => {
                self.pat(p);
                self.ty(ty);
            }
            Pat::As(_, p) => self.pat(p),
        }
    }

    fn exp(&mut self, e: &Exp) {
        match e {
            Exp::Lit(_) => {}
            Exp::Var(p) => self.path(p),
            Exp::Tuple(es) | Exp::List(es) | Exp::Seq(es) | Exp::Prim(_, es) => {
                for e in es {
                    self.exp(e);
                }
            }
            Exp::App(f, a) => {
                self.exp(f);
                self.exp(a);
            }
            Exp::Andalso(a, b) | Exp::Orelse(a, b) => {
                self.exp(a);
                self.exp(b);
            }
            Exp::Fn(rules) => self.rules(rules),
            Exp::Let(decs, body) => {
                self.push();
                for d in decs {
                    self.dec(d);
                }
                self.exp(body);
                self.pop();
            }
            Exp::If(c, t, e2) => {
                self.exp(c);
                self.exp(t);
                self.exp(e2);
            }
            Exp::Case(scrut, rules) => {
                self.exp(scrut);
                self.rules(rules);
            }
            Exp::Raise(e) => self.exp(e),
            Exp::Handle(e, rules) => {
                self.exp(e);
                self.rules(rules);
            }
            Exp::Ascribe(e, ty) => {
                self.exp(e);
                self.ty(ty);
            }
        }
    }

    fn rules(&mut self, rules: &[Rule]) {
        for r in rules {
            self.pat(&r.pat);
            self.exp(&r.exp);
        }
    }

    fn ty(&mut self, t: &Ty) {
        match t {
            Ty::Var(_) => {}
            Ty::Con(p, args) => {
                self.path(p);
                for a in args {
                    self.ty(a);
                }
            }
            Ty::Tuple(ts) => {
                for t in ts {
                    self.ty(t);
                }
            }
            Ty::Arrow(a, b) => {
                self.ty(a);
                self.ty(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_unit;

    fn free(src: &str) -> Vec<&'static str> {
        free_module_names(&parse_unit(src).unwrap())
            .into_iter()
            .map(|s| s.as_str())
            .collect()
    }

    #[test]
    fn closed_unit_has_no_imports() {
        assert!(free("structure A = struct val x = 1 end").is_empty());
    }

    #[test]
    fn qualified_value_reference_is_an_import() {
        assert_eq!(free("structure B = struct val y = A.x end"), vec!["A"]);
    }

    #[test]
    fn signature_reference_is_an_import() {
        assert_eq!(free("structure B : S = struct val y = 1 end"), vec!["S"]);
    }

    #[test]
    fn functor_application_imports_functor_and_argument() {
        assert_eq!(free("structure C = F(A)"), vec!["A", "F"]);
    }

    #[test]
    fn locally_bound_names_are_not_imports() {
        assert!(free(
            "signature S = sig val x : int end
             structure A : S = struct val x = 1 end
             structure B = struct val y = A.x end"
        )
        .is_empty());
    }

    #[test]
    fn functor_parameter_shadows() {
        assert!(free("functor F (P : sig val x : int end) = struct val y = P.x end").is_empty());
    }

    #[test]
    fn functor_parameter_shadowing_is_scoped() {
        // P free in the second functor? No — each binds its own P; but the
        // reference to Q escapes.
        assert_eq!(
            free("functor F (P : sig val x : int end) = struct val y = P.x + Q.z end"),
            vec!["Q"]
        );
    }

    #[test]
    fn type_references_count() {
        assert_eq!(
            free("structure B = struct val f = fn (x : A.t) => x end"),
            vec!["A"]
        );
    }

    #[test]
    fn open_is_an_import() {
        assert_eq!(free("structure B = struct open A val y = x end"), vec!["A"]);
    }

    #[test]
    fn where_type_rhs_can_import() {
        assert_eq!(
            free(
                "signature T = sig type t end
                 structure B : T where type t = A.u = struct type t = A.u end"
            ),
            vec!["A"]
        );
    }

    #[test]
    fn let_bound_structures_do_not_leak() {
        assert!(free(
            "structure A = let structure H = struct val x = 1 end
                           in struct val y = H.x end end"
        )
        .is_empty());
    }

    #[test]
    fn nested_structure_binding_shadows() {
        assert!(free(
            "structure A = struct
               structure Inner = struct val x = 1 end
               val y = Inner.x
             end"
        )
        .is_empty());
    }

    #[test]
    fn deep_qualified_path_only_imports_root() {
        assert_eq!(free("structure B = struct val y = A.C.D.x end"), vec!["A"]);
    }

    #[test]
    fn figure_one_dependencies() {
        let src = "structure FSort : SORT = TopSort(Factors)";
        assert_eq!(free(src), vec!["Factors", "SORT", "TopSort"]);
    }
}
