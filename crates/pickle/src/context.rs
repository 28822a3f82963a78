//! Contexts for dehydration (which entities are external) and rehydration
//! (pid → entity resolution) — the paper's indexed environments (§5).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use smlsc_ids::{Pid, Stamp};
use smlsc_statics::env::{Bindings, FunctorEnv, SignatureEnv, StructureEnv, ValKind};
use smlsc_statics::pervasive::pervasives;
use smlsc_statics::types::{Tycon, TyconDef, Type};

/// Any pickle-visible entity.
#[derive(Debug, Clone)]
pub enum Entity {
    /// A type constructor.
    Tycon(Arc<Tycon>),
    /// A structure.
    Str(Arc<StructureEnv>),
    /// A signature.
    Sig(Arc<SignatureEnv>),
    /// A functor.
    Fct(Arc<FunctorEnv>),
}

impl Entity {
    /// The entity's persistent pid, if assigned.
    pub fn pid(&self) -> Option<Pid> {
        match self {
            Entity::Tycon(t) => t.entity_pid.get(),
            Entity::Str(s) => s.entity_pid.get(),
            Entity::Sig(s) => s.entity_pid.get(),
            Entity::Fct(f) => f.entity_pid.get(),
        }
    }

    /// Records the entity's persistent pid.
    pub fn set_pid(&self, pid: Pid) {
        match self {
            Entity::Tycon(t) => t.entity_pid.set(Some(pid)),
            Entity::Str(s) => s.entity_pid.set(Some(pid)),
            Entity::Sig(s) => s.entity_pid.set(Some(pid)),
            Entity::Fct(f) => f.entity_pid.set(Some(pid)),
        }
    }

    /// The entity's session stamp.
    pub fn stamp(&self) -> Stamp {
        match self {
            Entity::Tycon(t) => t.stamp,
            Entity::Str(s) => s.stamp,
            Entity::Sig(s) => s.stamp,
            Entity::Fct(f) => f.stamp,
        }
    }
}

/// Walks every entity reachable from `b` (through types, signatures and
/// functor templates), each reported once.
pub fn reachable_entities(b: &Bindings) -> Vec<Entity> {
    let mut w = Walker {
        seen: HashSet::new(),
        out: Vec::new(),
    };
    w.bindings(b);
    w.out
}

struct Walker {
    seen: HashSet<Stamp>,
    out: Vec<Entity>,
}

impl Walker {
    fn bindings(&mut self, b: &Bindings) {
        for (_, vb) in &b.vals {
            self.ty(&vb.scheme.body);
            if let ValKind::Con { tycon, .. } = &vb.kind {
                self.tycon(tycon);
            }
        }
        for (_, tc) in &b.tycons {
            self.tycon(tc);
        }
        for (_, s) in &b.strs {
            self.structure(s);
        }
        for (_, s) in &b.sigs {
            self.signature(s);
        }
        for (_, f) in &b.fcts {
            self.functor(f);
        }
    }

    fn tycon(&mut self, tc: &Arc<Tycon>) {
        if !self.seen.insert(tc.stamp) {
            return;
        }
        self.out.push(Entity::Tycon(tc.clone()));
        let def = tc.def.read().clone();
        match def {
            TyconDef::Prim | TyconDef::Abstract => {}
            TyconDef::Alias(t) => self.ty(&t),
            TyconDef::Datatype(info) => {
                for c in &info.cons {
                    if let Some(t) = &c.arg {
                        self.ty(t);
                    }
                }
            }
        }
    }

    fn structure(&mut self, s: &Arc<StructureEnv>) {
        if !self.seen.insert(s.stamp) {
            return;
        }
        self.out.push(Entity::Str(s.clone()));
        self.bindings(&s.bindings);
    }

    fn signature(&mut self, s: &Arc<SignatureEnv>) {
        if !self.seen.insert(s.stamp) {
            return;
        }
        self.out.push(Entity::Sig(s.clone()));
        self.structure(&s.body);
    }

    fn functor(&mut self, f: &Arc<FunctorEnv>) {
        if !self.seen.insert(f.stamp) {
            return;
        }
        self.out.push(Entity::Fct(f.clone()));
        self.signature(&f.param_sig);
        self.structure(&f.param_inst);
        self.structure(&f.body);
    }

    fn ty(&mut self, t: &Type) {
        match t {
            Type::UVar(uv) => {
                let link = uv.link.read().clone();
                if let Some(t2) = link {
                    self.ty(&t2);
                }
            }
            Type::Param(_) => {}
            Type::Con(tc, args) => {
                self.tycon(tc);
                for a in args {
                    self.ty(a);
                }
            }
            Type::Tuple(ts) => {
                for t in ts {
                    self.ty(t);
                }
            }
            Type::Arrow(a, b) => {
                self.ty(a);
                self.ty(b);
            }
        }
    }
}

/// The pids of every entity reachable from the given import environments
/// (the things a dependent unit's pickle may stub).
pub fn collect_external_pids<'a>(imports: impl IntoIterator<Item = &'a Bindings>) -> Vec<Pid> {
    let mut out = Vec::new();
    for b in imports {
        for e in reachable_entities(b) {
            if let Some(pid) = e.pid() {
                out.push(pid);
            }
        }
    }
    out
}

fn pervasive_pids() -> Vec<Pid> {
    let p = pervasives();
    [
        &p.int, &p.string, &p.unit, &p.exn, &p.bool, &p.list, &p.option,
    ]
    .into_iter()
    .filter_map(|tc| tc.entity_pid.get())
    .collect()
}

/// Membership structure for dehydration: is this pid external?
///
/// Two implementations exist so experiment E5 can compare the paper's
/// *indexed* environments against exhaustive linear search.
#[derive(Debug, Clone)]
pub enum ContextPids {
    /// Hash-indexed membership (the paper's choice).
    Indexed(HashSet<Pid>),
    /// Linear scan (the ablation).
    Linear(Vec<Pid>),
}

impl ContextPids {
    /// Builds the indexed variant; pervasive pids are always included.
    pub fn indexed(pids: impl IntoIterator<Item = Pid>) -> ContextPids {
        let mut set: HashSet<Pid> = pids.into_iter().collect();
        set.extend(pervasive_pids());
        ContextPids::Indexed(set)
    }

    /// Builds the linear variant; pervasive pids are always included.
    pub fn linear(pids: impl IntoIterator<Item = Pid>) -> ContextPids {
        let mut v: Vec<Pid> = pids.into_iter().collect();
        v.extend(pervasive_pids());
        ContextPids::Linear(v)
    }

    /// Membership test.
    pub fn contains(&self, pid: Pid) -> bool {
        match self {
            ContextPids::Indexed(s) => s.contains(&pid),
            ContextPids::Linear(v) => v.contains(&pid),
        }
    }

    /// Number of context pids.
    pub fn len(&self) -> usize {
        match self {
            ContextPids::Indexed(s) => s.len(),
            ContextPids::Linear(v) => v.len(),
        }
    }

    /// True when the context is empty (never: pervasives are present).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolution map for rehydration: pid → live entity.
#[derive(Debug, Default)]
pub struct RehydrateContext {
    map: HashMap<Pid, Entity>,
}

impl RehydrateContext {
    /// Builds a context from the reachable entities of the given import
    /// environments, plus the pervasives.
    pub fn with_pervasives<'a>(
        imports: impl IntoIterator<Item = &'a Bindings>,
    ) -> RehydrateContext {
        let mut ctx = RehydrateContext::default();
        let p = pervasives();
        for tc in [
            &p.int, &p.string, &p.unit, &p.exn, &p.bool, &p.list, &p.option,
        ] {
            if let Some(pid) = tc.entity_pid.get() {
                ctx.map.insert(pid, Entity::Tycon(tc.clone()));
            }
        }
        for b in imports {
            ctx.add_bindings(b);
        }
        ctx
    }

    /// Adds every pid-carrying entity reachable from `b`.
    pub fn add_bindings(&mut self, b: &Bindings) {
        for e in reachable_entities(b) {
            if let Some(pid) = e.pid() {
                self.map.entry(pid).or_insert(e);
            }
        }
    }

    /// Resolves a pid.
    pub fn get(&self, pid: Pid) -> Option<&Entity> {
        self.map.get(&pid)
    }

    /// Number of resolvable pids.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the context resolves nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlsc_statics::elab::{elaborate_unit, ImportEnv};

    fn exports(src: &str) -> Arc<Bindings> {
        let ast = smlsc_syntax::parse_unit(src).unwrap();
        elaborate_unit(&ast, &ImportEnv::empty()).unwrap().exports
    }

    #[test]
    fn reachable_visits_each_entity_once() {
        let b = exports(
            "structure A = struct
               datatype t = C of t option
               structure Inner = struct val x = 1 end
             end",
        );
        let es = reachable_entities(&b);
        let mut stamps: Vec<_> = es.iter().map(Entity::stamp).collect();
        let before = stamps.len();
        stamps.dedup();
        assert_eq!(before, stamps.len());
        // A, Inner, t, plus pervasive option/int reached through types.
        assert!(before >= 4, "found {before}");
    }

    #[test]
    fn context_contains_pervasives() {
        let ctx = ContextPids::indexed([]);
        let p = pervasives();
        assert!(ctx.contains(p.int.entity_pid.get().unwrap()));
        let ctx = ContextPids::linear([]);
        assert!(ctx.contains(p.list.entity_pid.get().unwrap()));
    }

    #[test]
    fn rehydrate_context_resolves_pervasives() {
        let ctx = RehydrateContext::with_pervasives([]);
        let p = pervasives();
        let pid = p.bool.entity_pid.get().unwrap();
        assert!(matches!(ctx.get(pid), Some(Entity::Tycon(tc)) if tc.stamp == p.bool.stamp));
    }

    #[test]
    fn functor_templates_are_reachable() {
        let b = exports(
            "signature S = sig type t end
             functor F (X : S) = struct type u = X.t end",
        );
        let es = reachable_entities(&b);
        assert!(es.iter().any(|e| matches!(e, Entity::Fct(_))));
        assert!(es.iter().any(|e| matches!(e, Entity::Sig(_))));
    }
}
