//! Pickle round-trip tests: dehydrate → rehydrate must preserve the
//! semantics of static environments, including sharing, recursion,
//! signatures, functors, and cross-unit stubs.

use std::sync::Arc;

use smlsc_dynamics::eval::execute;
use smlsc_ids::Symbol;
use smlsc_pickle::{
    dehydrate, entity_pid, export_pid, ContextPids, PickleError, PickleOptions, RehydrateContext,
    RehydrateStats,
};
use smlsc_statics::elab::{elaborate_unit, ElabUnit, ImportEnv, ImportedUnit};
use smlsc_statics::env::Bindings;

fn compile(src: &str, imports: &ImportEnv) -> ElabUnit {
    let ast = smlsc_syntax::parse_unit(src).unwrap();
    elaborate_unit(&ast, imports).unwrap_or_else(|e| panic!("{e}"))
}

/// Rehydrates `bytes` as the exports of a unit named `u`.
fn rehydrate(
    bytes: &[u8],
    ctx: &RehydrateContext,
) -> Result<(Arc<Bindings>, RehydrateStats), PickleError> {
    smlsc_pickle::rehydrate(bytes, ctx, Symbol::intern("u"), export_pid(bytes))
}

fn roundtrip(exports: &Bindings) -> Arc<Bindings> {
    let p = dehydrate(
        exports,
        &ContextPids::indexed([]),
        &PickleOptions::default(),
    )
    .expect("dehydrate");
    let (b, _) = rehydrate(&p.bytes, &RehydrateContext::with_pervasives([])).expect("rehydrate");
    b
}

#[test]
fn simple_structure_roundtrip() {
    let u = compile(
        "structure A = struct val x = 1 fun f y = y + x end",
        &ImportEnv::empty(),
    );
    let b = roundtrip(&u.exports);
    let a = b.str(Symbol::intern("A")).unwrap();
    assert!(a.bindings.val(Symbol::intern("x")).is_some());
    assert!(a.bindings.val(Symbol::intern("f")).is_some());
}

#[test]
fn recursive_datatype_roundtrip() {
    let u = compile(
        "structure T = struct datatype tree = Leaf | Node of tree * tree end",
        &ImportEnv::empty(),
    );
    let b = roundtrip(&u.exports);
    let t = b.str(Symbol::intern("T")).unwrap();
    let tc = t.bindings.tycon(Symbol::intern("tree")).unwrap();
    let info = tc.datatype_info().unwrap();
    // The recursive occurrence must point back at the same rebuilt tycon.
    let Some(smlsc_statics::types::Type::Tuple(ts)) = &info.cons[1].arg else {
        panic!()
    };
    let smlsc_statics::types::Type::Con(inner, _) = &ts[0] else {
        panic!()
    };
    assert_eq!(inner.stamp, tc.stamp);
}

#[test]
fn sharing_is_preserved() {
    // Two structures sharing one datatype: after rehydration they must
    // still share a single tycon (same stamp), or cross-structure uses
    // would stop type-checking.
    let u = compile(
        "structure A = struct datatype d = D of int end
         structure B = struct val f = fn (x : A.d) => x end",
        &ImportEnv::empty(),
    );
    let b = roundtrip(&u.exports);
    let a_tc = b
        .str(Symbol::intern("A"))
        .unwrap()
        .bindings
        .tycon(Symbol::intern("d"))
        .unwrap()
        .clone();
    let f = b
        .str(Symbol::intern("B"))
        .unwrap()
        .bindings
        .val(Symbol::intern("f"))
        .unwrap()
        .clone();
    let smlsc_statics::types::Type::Arrow(arg, _) = f.scheme.body.head_normalize() else {
        panic!()
    };
    let smlsc_statics::types::Type::Con(tc, _) = arg.head_normalize() else {
        panic!()
    };
    assert_eq!(tc.stamp, a_tc.stamp, "sharing lost in pickle");
}

#[test]
fn pervasives_become_stubs() {
    let u = compile("structure A = struct val x = 1 end", &ImportEnv::empty());
    let p = dehydrate(
        &u.exports,
        &ContextPids::indexed([]),
        &PickleOptions::default(),
    )
    .unwrap();
    assert!(p.stats.stubs >= 1, "int should be a stub: {:?}", p.stats);
}

#[test]
fn rehydrated_signature_still_matches() {
    // A signature pickled in one "session" must still support matching
    // and transparent functor application after rehydration.
    let lib = compile(
        "signature NUM = sig type t val mk : int -> t val get : t -> int end
         functor Twice (X : NUM) = struct val n = X.get (X.mk 21) * 2 end",
        &ImportEnv::empty(),
    );
    let rehydrated = roundtrip(&lib.exports);
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("lib"),
            exports: rehydrated,
        }],
        shadowing: false,
    };
    let client = compile(
        "structure Impl : NUM = struct type t = int fun mk x = x fun get x = x end
         structure R = Twice(Impl)
         structure Out = struct val answer = R.n end",
        &imports,
    );
    // Execute across the boundary too.
    let lib_val = execute(&lib.code, &[]).unwrap();
    let v = execute(&client.code, &[lib_val]).unwrap();
    let smlsc_dynamics::value::Value::Record(_) = v else {
        panic!()
    };
}

#[test]
fn cross_unit_stub_resolution() {
    // B's pickle must stub A's entities and resolve them against a
    // freshly rehydrated A.
    let a = compile(
        "structure A = struct datatype d = D of int val x = D 1 end",
        &ImportEnv::empty(),
    );
    let a_re = roundtrip(&a.exports);
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("a"),
            exports: a_re.clone(),
        }],
        shadowing: false,
    };
    let b = compile("structure B = struct val y = A.x end", &imports);
    let ctx_pids = smlsc_pickle::collect_external_pids([a_re.as_ref()]);
    let p = dehydrate(
        &b.exports,
        &ContextPids::indexed(ctx_pids),
        &PickleOptions::default(),
    )
    .unwrap();
    assert!(p.stats.stubs >= 1, "A.d should be stubbed");
    // Rehydrate B against a context containing A.
    let ctx = RehydrateContext::with_pervasives([a_re.as_ref()]);
    let (b_re, stats) = rehydrate(&p.bytes, &ctx).unwrap();
    assert!(stats.stubs >= 1);
    let y = b_re
        .str(Symbol::intern("B"))
        .unwrap()
        .bindings
        .val(Symbol::intern("y"))
        .unwrap()
        .clone();
    // y's type must be A's (rehydrated) tycon, shared by stamp.
    let a_tc = a_re
        .str(Symbol::intern("A"))
        .unwrap()
        .bindings
        .tycon(Symbol::intern("d"))
        .unwrap()
        .clone();
    let smlsc_statics::types::Type::Con(tc, _) = y.scheme.body.head_normalize() else {
        panic!()
    };
    assert_eq!(tc.stamp, a_tc.stamp);
}

#[test]
fn missing_stub_is_a_linkage_error() {
    let a = compile(
        "structure A = struct datatype d = D of int val x = D 1 end",
        &ImportEnv::empty(),
    );
    let a_re = roundtrip(&a.exports);
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("a"),
            exports: a_re.clone(),
        }],
        shadowing: false,
    };
    let b = compile("structure B = struct val y = A.x end", &imports);
    let ctx_pids = smlsc_pickle::collect_external_pids([a_re.as_ref()]);
    let p = dehydrate(
        &b.exports,
        &ContextPids::indexed(ctx_pids),
        &PickleOptions::default(),
    )
    .unwrap();
    // Rehydrating without A in context must fail with UnknownStub.
    let err = rehydrate(&p.bytes, &RehydrateContext::with_pervasives([])).unwrap_err();
    assert!(matches!(err, PickleError::UnknownStub(_)), "{err}");
}

#[test]
fn rehydrated_entities_get_the_pids_of_their_new_order() {
    // Dehydration needs no pids: the `n`th NEW node is entity `n`, and
    // the rehydrater derives its pid from the unit name, the export pid
    // and `n` — the pid the compiler gives the live entity.
    let u = compile(
        "structure A = struct datatype d = D of int structure In = struct end end
         signature S = sig type t end
         functor F (X : S) = struct type u = X.t end",
        &ImportEnv::empty(),
    );
    let p = dehydrate(
        &u.exports,
        &ContextPids::indexed([]),
        &PickleOptions::default(),
    )
    .unwrap();
    assert_eq!(p.entities.len(), p.stats.nodes);
    assert!(p.entities.iter().all(|e| e.pid().is_none()));
    let (unit, pid) = (Symbol::intern("u"), export_pid(&p.bytes));
    let (back, _) = rehydrate(&p.bytes, &RehydrateContext::with_pervasives([])).unwrap();
    let live = smlsc_pickle::reachable_entities(&u.exports);
    let rebuilt = smlsc_pickle::reachable_entities(&back);
    assert_eq!(live.len(), rebuilt.len());
    for (n, e) in p.entities.iter().enumerate() {
        e.set_pid(entity_pid(unit, pid, n));
    }
    for (l, r) in live.iter().zip(&rebuilt) {
        assert_eq!(l.pid(), r.pid(), "{:?}", l.stamp());
    }
}

#[test]
fn corrupt_bytes_are_rejected() {
    let err = rehydrate(&[1, 2, 3], &RehydrateContext::with_pervasives([])).unwrap_err();
    assert!(matches!(err, PickleError::Corrupt(_)));
    let u = compile("structure A = struct val x = 1 end", &ImportEnv::empty());
    let p = dehydrate(
        &u.exports,
        &ContextPids::indexed([]),
        &PickleOptions::default(),
    )
    .unwrap();
    let mut bytes = p.bytes.clone();
    bytes.truncate(bytes.len() / 2);
    assert!(rehydrate(&bytes, &RehydrateContext::with_pervasives([])).is_err());
}

#[test]
fn sharing_off_blows_up_size() {
    // E4's point: a deep DAG of shared substructures pickles linearly
    // with sharing, exponentially without.
    let mut src = String::from("structure S0 = struct val x = 1 end\n");
    for i in 1..=8 {
        src.push_str(&format!(
            "structure S{i} = struct structure L = S{} structure R = S{} end\n",
            i - 1,
            i - 1
        ));
    }
    let u = compile(&src, &ImportEnv::empty());
    let shared = dehydrate(
        &u.exports,
        &ContextPids::indexed([]),
        &PickleOptions::default(),
    )
    .unwrap();
    let unshared = dehydrate(
        &u.exports,
        &ContextPids::indexed([]),
        &PickleOptions {
            preserve_sharing: false,
        },
    )
    .unwrap();
    assert!(
        unshared.bytes.len() > 10 * shared.bytes.len(),
        "shared {} vs unshared {}",
        shared.bytes.len(),
        unshared.bytes.len()
    );
}

#[test]
fn linear_and_indexed_contexts_agree() {
    let a = compile("structure A = struct val x = 1 end", &ImportEnv::empty());
    let a_re = roundtrip(&a.exports);
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("a"),
            exports: a_re.clone(),
        }],
        shadowing: false,
    };
    let b = compile("structure B = struct val y = A.x end", &imports);
    let pids = smlsc_pickle::collect_external_pids([a_re.as_ref()]);
    let p1 = dehydrate(
        &b.exports,
        &ContextPids::indexed(pids.clone()),
        &PickleOptions::default(),
    )
    .unwrap();
    let p2 = dehydrate(
        &b.exports,
        &ContextPids::linear(pids),
        &PickleOptions::default(),
    )
    .unwrap();
    assert_eq!(p1.bytes, p2.bytes);
}

#[test]
fn opaque_types_survive_roundtrip() {
    let lib = compile(
        "structure A :> sig type t val mk : int -> t val get : t -> int end =
           struct type t = int fun mk x = x fun get x = x end",
        &ImportEnv::empty(),
    );
    let re = roundtrip(&lib.exports);
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("lib"),
            exports: re,
        }],
        shadowing: false,
    };
    // Abstract t still usable...
    let ast = smlsc_syntax::parse_unit("structure B = struct val v = A.get (A.mk 1) end").unwrap();
    assert!(elaborate_unit(&ast, &imports).is_ok());
    // ...and still abstract.
    let ast = smlsc_syntax::parse_unit("structure B = struct val v = A.mk 1 + 1 end").unwrap();
    assert!(elaborate_unit(&ast, &imports).is_err());
}

#[test]
fn polymorphic_schemes_roundtrip() {
    let u = compile(
        "structure L = struct fun id x = x fun const x y = x end",
        &ImportEnv::empty(),
    );
    let b = roundtrip(&u.exports);
    let l = b.str(Symbol::intern("L")).unwrap();
    assert_eq!(
        l.bindings.val(Symbol::intern("id")).unwrap().scheme.arity,
        1
    );
    assert_eq!(
        l.bindings
            .val(Symbol::intern("const"))
            .unwrap()
            .scheme
            .arity,
        2
    );
}

#[test]
fn repickling_is_canonical() {
    // dehydrate ∘ rehydrate is the identity on bytes: the rebuilt
    // environment, pickled against the same context, must serialize
    // identically.  This is what lets the manager trust cached bins.
    let u = compile(
        "signature S = sig type t val mk : int -> t end
         structure A :> S = struct type t = int fun mk x = x end
         structure B = struct
           datatype shade = Light | Dark of int
           fun pick Light = A.mk 0
             | pick (Dark n) = A.mk n
         end
         functor F (X : S) = struct val v = X.mk 1 end",
        &ImportEnv::empty(),
    );
    let ctx = ContextPids::indexed([]);
    let p1 = dehydrate(&u.exports, &ctx, &PickleOptions::default()).unwrap();
    let (back, _) = rehydrate(&p1.bytes, &RehydrateContext::with_pervasives([])).unwrap();
    let p2 = dehydrate(&back, &ctx, &PickleOptions::default()).unwrap();
    assert_eq!(p1.bytes, p2.bytes, "pickle is canonical");
    // And a second round, for good measure.
    let (back2, _) = rehydrate(&p2.bytes, &RehydrateContext::with_pervasives([])).unwrap();
    let p3 = dehydrate(&back2, &ctx, &PickleOptions::default()).unwrap();
    assert_eq!(p2.bytes, p3.bytes);
}

#[test]
fn dehydrate_stats_are_consistent() {
    let u = compile(
        "structure A = struct datatype d = D of int val x = D 1 end
         structure B = struct val y = A.x val z = A.D 2 end",
        &ImportEnv::empty(),
    );
    let p = dehydrate(
        &u.exports,
        &ContextPids::indexed([]),
        &PickleOptions::default(),
    )
    .unwrap();
    // A, B, d are internal nodes; d is shared (backref); int is a stub.
    assert!(p.stats.nodes >= 3, "{:?}", p.stats);
    assert!(p.stats.backrefs >= 1, "{:?}", p.stats);
    assert!(p.stats.stubs >= 1, "{:?}", p.stats);
}

#[test]
fn functor_chains_survive_rehydration() {
    // Two functors over one named signature, pickled, rehydrated, then
    // chained in a client unit.
    let lib = compile(
        "signature S = sig val v : int end
         functor Inc (X : S) = struct val v = X.v + 1 end
         functor Dbl (X : S) = struct val v = X.v * 2 end",
        &ImportEnv::empty(),
    );
    let re = roundtrip(&lib.exports);
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("lib"),
            exports: re,
        }],
        shadowing: false,
    };
    let client_ast = smlsc_syntax::parse_unit(
        "structure Z : S = struct val v = 5 end
         structure R = Dbl(Inc(Z))
         structure Out = struct val answer = R.v end",
    )
    .unwrap();
    let client = elaborate_unit(&client_ast, &imports).expect("chains elaborate");
    let lib_val = execute(&lib.code, &[]).unwrap();
    let v = execute(&client.code, &[lib_val]).unwrap();
    let smlsc_dynamics::value::Value::Record(units) = v else {
        panic!()
    };
    let smlsc_dynamics::value::Value::Record(out) = &units[2] else {
        panic!()
    };
    assert_eq!(out[0], smlsc_dynamics::value::Value::Int(12));
}

#[test]
fn rehydrated_datatype_constructors_pattern_match() {
    let lib = compile(
        "structure Shape = struct
           datatype t = Dot | Box of int * int
           fun area Dot = 0
             | area (Box (w, h)) = w * h
         end",
        &ImportEnv::empty(),
    );
    let re = roundtrip(&lib.exports);
    let imports = ImportEnv {
        units: vec![ImportedUnit {
            name: Symbol::intern("lib"),
            exports: re,
        }],
        shadowing: false,
    };
    let ast = smlsc_syntax::parse_unit(
        "structure U = struct
           fun describe s = case s of Shape.Dot => 0 | Shape.Box (w, _) => w
           val a = describe (Shape.Box (3, 4))
           val b = Shape.area (Shape.Box (3, 4))
         end",
    )
    .unwrap();
    let client = elaborate_unit(&ast, &imports).expect("elaborates");
    let lib_val = execute(&lib.code, &[]).unwrap();
    let v = execute(&client.code, &[lib_val]).unwrap();
    let smlsc_dynamics::value::Value::Record(units) = v else {
        panic!()
    };
    let smlsc_dynamics::value::Value::Record(u) = &units[0] else {
        panic!()
    };
    assert_eq!(u[1], smlsc_dynamics::value::Value::Int(3));
    assert_eq!(u[2], smlsc_dynamics::value::Value::Int(12));
}
