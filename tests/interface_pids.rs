//! Interface pids (§5): the export pid is the digest of the pickled
//! interface.  Determinism, alpha-conversion of new entities,
//! sensitivity to exactly the interface and nothing else, and the same
//! pids whether a dependent compiles against a live import or a
//! rehydrated one — in one process, across processes, and in a daemon.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::pack::{PackReader, PACK_FILE};
use smlsc_core::{pickle_interface, stdlib_units};
use smlsc_daemon::{client, Request, ServerConfig, ServerHandle};
use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::{
    collect_external_pids, dehydrate, reachable_entities, rehydrate, ContextPids, PickleOptions,
    RehydrateContext,
};
use smlsc_statics::elab::{elaborate_unit, ElabUnit, ImportEnv, ImportedUnit};
use smlsc_statics::env::Bindings;

fn elaborate(src: &str, imports: &[(&str, &Arc<Bindings>)]) -> ElabUnit {
    let ast = smlsc_syntax::parse_unit(src).unwrap();
    let env = ImportEnv {
        units: imports
            .iter()
            .map(|(name, exports)| ImportedUnit {
                name: Symbol::intern(name),
                exports: Arc::clone(exports),
            })
            .collect(),
        shadowing: false,
    };
    elaborate_unit(&ast, &env).unwrap_or_else(|e| panic!("{e}"))
}

fn export_pid(unit_name: &str, src: &str) -> Pid {
    let u = elaborate(src, &[]);
    pickle_interface(Symbol::intern(unit_name), &u.exports, [])
        .unwrap()
        .export_pid
}

fn tycon_pid(exports: &Bindings, path: &[&str], tycon: &str) -> Pid {
    let mut s = exports.str(Symbol::intern(path[0])).unwrap().clone();
    for name in &path[1..] {
        s = s.bindings.str(Symbol::intern(name)).unwrap().clone();
    }
    s.bindings
        .tycon(Symbol::intern(tycon))
        .unwrap()
        .entity_pid
        .get()
        .unwrap()
}

#[test]
fn recursive_datatypes_hash_deterministically() {
    let src = "structure T = struct
                 datatype t = Leaf | Node of t * t
                 and u = U of t
               end";
    assert_eq!(export_pid("a", src), export_pid("a", src));
}

#[test]
fn provisional_pids_alpha_convert_over_stamps() {
    // The same interface elaborated twice gets entirely different session
    // stamps; the pickle must not see them.
    let src = "structure A = struct
                 datatype d = D of int
                 type alias = d list
                 fun f (x : alias) = x
               end";
    let p1 = export_pid("u", src);
    // Burn some stamps in between to shift the counter.
    let _ = export_pid("other", "structure Z = struct datatype q = Q end");
    let p2 = export_pid("u", src);
    assert_eq!(p1, p2);
}

#[test]
fn binding_order_is_part_of_the_interface() {
    // Order determines the runtime record layout, so it must be hashed.
    let a = export_pid("u", "structure A = struct val x = 1 val y = 2 end");
    let b = export_pid("u", "structure A = struct val y = 2 val x = 1 end");
    assert_ne!(a, b);
}

#[test]
fn structure_names_are_part_of_the_interface() {
    let a = export_pid("u", "structure A = struct val x = 1 end");
    let b = export_pid("u", "structure B = struct val x = 1 end");
    assert_ne!(a, b);
}

#[test]
fn export_pid_is_independent_of_unit_name() {
    // The *export* pid is interface-only; the unit name enters only the
    // derived entity pids.
    let src = "structure A = struct val x = 1 end";
    assert_eq!(export_pid("u1", src), export_pid("u2", src));
}

#[test]
fn entity_pids_depend_on_unit_name() {
    let src = "structure A = struct datatype d = D end";
    let u1 = elaborate(src, &[]);
    let u2 = elaborate(src, &[]);
    pickle_interface(Symbol::intern("one"), &u1.exports, []).unwrap();
    pickle_interface(Symbol::intern("two"), &u2.exports, []).unwrap();
    assert_ne!(
        tycon_pid(&u1.exports, &["A"], "d"),
        tycon_pid(&u2.exports, &["A"], "d"),
        "identical interfaces, distinct generative entities"
    );
}

#[test]
fn hashing_is_idempotent_in_effect() {
    let src = "structure A = struct datatype d = D of int val v = D 3 end";
    let u = elaborate(src, &[]);
    let first = pickle_interface(Symbol::intern("u"), &u.exports, []).unwrap();
    assert!(first.pickle.entities.len() >= 2, "A and d at least");
    let pids: Vec<_> = first.pickle.entities.iter().map(|e| e.pid()).collect();
    // Second pass: every entity now carries a pid, but none is in the
    // context, so each is written as new again — same bytes, same
    // numbering, and the same pid assigned once more.
    let second = pickle_interface(Symbol::intern("u"), &u.exports, []).unwrap();
    assert_eq!(second.export_pid, first.export_pid);
    assert_eq!(second.pickle.bytes, first.pickle.bytes);
    let again: Vec<_> = second.pickle.entities.iter().map(|e| e.pid()).collect();
    assert_eq!(again, pids);
}

#[test]
fn reexported_entities_keep_their_pids() {
    // B re-exports A's datatype: the tycon keeps A's entity pid, so B's
    // pickle stubs it (and changing B's body never touches A's entity
    // identity).
    let a = elaborate("structure A = struct datatype d = D end", &[]);
    pickle_interface(Symbol::intern("a"), &a.exports, []).unwrap();
    let d_pid = tycon_pid(&a.exports, &["A"], "d");
    let b = elaborate(
        "structure B = struct structure Re = A end",
        &[("a", &a.exports)],
    );
    let iface = pickle_interface(Symbol::intern("b"), &b.exports, [a.exports.as_ref()]).unwrap();
    assert!(iface.pickle.stats.stubs >= 1);
    assert_eq!(
        d_pid,
        tycon_pid(&b.exports, &["B", "Re"], "d"),
        "re-export preserves entity identity"
    );
}

#[test]
fn signature_flexibility_is_hashed() {
    // `type t` (flexible) vs `type t = int` (manifest) are different
    // interfaces even though both expose a type named t.
    let a = export_pid(
        "u",
        "signature S = sig type t end
         structure D = struct end",
    );
    let b = export_pid(
        "u",
        "signature S = sig type t = int end
         structure D = struct end",
    );
    assert_ne!(a, b);
}

#[test]
fn functor_parameter_interfaces_are_hashed() {
    let a = export_pid(
        "u",
        "functor F (X : sig val n : int end) = struct val m = X.n end",
    );
    let b = export_pid(
        "u",
        "functor F (X : sig val n : string end) = struct val m = X.n end",
    );
    assert_ne!(a, b);
    // The pickle stores the parameter's name, so it is part of the pid.
    let c = export_pid(
        "u",
        "functor F (Y : sig val n : int end) = struct val m = Y.n end",
    );
    assert_ne!(a, c);
}

#[test]
fn opaque_and_transparent_ascription_hash_differently() {
    let t = export_pid(
        "u",
        "structure A : sig type t val mk : int -> t end =
           struct type t = int fun mk x = x end",
    );
    let o = export_pid(
        "u",
        "structure A :> sig type t val mk : int -> t end =
           struct type t = int fun mk x = x end",
    );
    assert_ne!(t, o, "t = int is visible only transparently");
}

const BASE: &str = "structure Base = struct datatype b = B of int end";

const LIB: &str = "
structure Lib = struct
  datatype d = D of int
  fun get (D n) = n
end
signature ORD = sig
  type t
  val le : t * t -> bool
end
functor Max (O : ORD) = struct
  type t = O.t
  val base = Base.B 0
  fun max (x, y) = if O.le (x, y) then y else x
end
";

const CLIENT: &str = "
structure Client = struct
  structure Re = Lib
  open Lib
  structure IntOrd = struct
    type t = int
    fun le (x, y) = x < y
  end
  structure M = Max (IntOrd)
  val d = D 3
  val n = get d
  datatype d = E
  val e = E
  val m = M.max (1, 2)
  val b = M.base
end
";

/// Pickling gives a pid to every entity it writes as new, even one that
/// already has a pid.  That is sound only because a compile never
/// reaches another unit's entity except through its imports, whose
/// entities are all in the context: re-exports, functor application and
/// `open` included, against a live import or a rehydrated one.  The
/// client does not import `base`: it meets `Base.b` only inside `Max`'s
/// body, by applying `Max`.
#[test]
fn a_compile_never_writes_another_units_entity_as_new() {
    let base = elaborate(BASE, &[]);
    pickle_interface(Symbol::intern("base"), &base.exports, []).unwrap();
    for rehydrated in [false, true] {
        let lib = elaborate(LIB, &[("base", &base.exports)]);
        let lib_iface =
            pickle_interface(Symbol::intern("lib"), &lib.exports, [base.exports.as_ref()]).unwrap();
        let lib_env = if rehydrated {
            rehydrate(
                &lib_iface.pickle.bytes,
                &RehydrateContext::with_pervasives([base.exports.as_ref()]),
                Symbol::intern("lib"),
                lib_iface.export_pid,
            )
            .unwrap()
            .0
        } else {
            lib.exports.clone()
        };
        let lib_pids = |env: &Bindings| -> Vec<_> {
            reachable_entities(env)
                .iter()
                .map(|e| (e.stamp(), e.pid()))
                .collect()
        };
        let before = lib_pids(&lib_env);
        assert!(before.iter().all(|(_, pid)| pid.is_some()));

        let client = elaborate(CLIENT, &[("lib", &lib_env)]);
        let context = ContextPids::indexed(collect_external_pids([lib_env.as_ref()]));
        let p = dehydrate(&client.exports, &context, &PickleOptions::default()).unwrap();
        assert!(p.stats.stubs >= 4, "{:?}", p.stats);
        for e in &p.entities {
            assert!(
                e.pid().is_none(),
                "rehydrated: {rehydrated}: entity {:?} came from another unit",
                e.stamp()
            );
        }
        let iface = pickle_interface(
            Symbol::intern("client"),
            &client.exports,
            [lib_env.as_ref()],
        )
        .unwrap();
        assert_eq!(iface.pickle.bytes, p.bytes);
        assert_eq!(
            lib_pids(&lib_env),
            before,
            "the client renamed a lib entity"
        );
        assert!(reachable_entities(&client.exports)
            .iter()
            .all(|e| e.pid().is_some()));
    }
}

/// Figure 1's `TopSort`, the standard library with a client, and a
/// datatype/functor/`open`-with-shadowing pair: `(unit, source, body
/// edit, interface edit)`, each edit a `(from, to)` replacement.
type Case = (
    &'static str,
    String,
    (&'static str, &'static str),
    (&'static str, &'static str),
);

fn corpus() -> Vec<Case> {
    let mut cases: Vec<Case> = vec![
        (
            "sorting",
            "signature PARTIAL_ORDER = sig
               type elem
               val less : elem * elem -> bool
             end
             signature SORT = sig
               type t
               val sort : t list -> t list
             end
             functor TopSort (P : PARTIAL_ORDER) : SORT = struct
               type t = P.elem
               fun insert (x, []) = [x]
                 | insert (x, y :: ys) =
                     if P.less (x, y) then x :: y :: ys else y :: insert (x, ys)
               fun sort [] = []
                 | sort (x :: xs) = insert (x, sort xs)
             end"
            .into(),
            (
                "if P.less (x, y) then x :: y :: ys else y :: insert (x, ys)",
                "if P.less (y, x) then y :: insert (x, ys) else x :: y :: ys",
            ),
            (
                "signature SORT",
                "signature SIZED = sig val size : int end signature SORT",
            ),
        ),
        (
            "factors",
            "structure Factors : PARTIAL_ORDER = struct
               type elem = int
               fun less (i, j) = (j mod i) = 0
             end"
            .into(),
            ("(j mod i) = 0", "(j mod i) = 0 andalso i < j + 1"),
            (
                "structure Factors",
                "structure One = struct end structure Factors",
            ),
        ),
        (
            "fsort",
            "structure FSort : SORT = TopSort(Factors)
             structure Demo = struct
               val input = [12, 3, 48, 6, 24]
               val sorted = FSort.sort input
             end"
            .into(),
            ("[12, 3, 48, 6, 24]", "[12, 3, 48, 6, 24, 2]"),
            ("val sorted", "val first = 1 val sorted"),
        ),
        (
            "std_client",
            "structure StdClient = struct
               val three = Fn.id 3
               val four = Option.getOpt (SOME 4, 0)
               val five = Fn.compose Fn.id Fn.id 5
             end"
            .into(),
            ("SOME 4, 0", "SOME 4, 1"),
            (
                "val three = Fn.id 3",
                "val three = Fn.id 3 val word = \"three\"",
            ),
        ),
        (
            "shapes",
            "structure Shapes = struct
               datatype shape = Dot | Box of int * int
               fun area Dot = 0
                 | area (Box (w, h)) = w * h
               val origin = Dot
             end
             signature COUNTER = sig
               type t
               val zero : t
               val next : t -> t
               val get : t -> int
             end
             functor Counter (S : sig val step : int end) :> COUNTER = struct
               type t = int
               val zero = 0
               fun next n = n + S.step
               fun get n = n
             end"
            .into(),
            ("area (Box (w, h)) = w * h", "area (Box (w, h)) = h * w"),
            (
                "Dot | Box of int * int",
                "Dot | Box of int * int | Line of int",
            ),
        ),
        (
            "use_shapes",
            "structure UseShapes = struct
               open Shapes
               val area = fn (s : shape) => area s + 1
               structure C = Counter (struct val step = 2 end)
               val two = C.get (C.next C.zero)
               datatype shape = Circle of int
               val c = Circle two
             end"
            .into(),
            ("area s + 1", "area s + 2"),
            (
                "datatype shape = Circle of int",
                "datatype shape = Circle of int | Square",
            ),
        ),
    ];
    for (unit, src) in stdlib_units() {
        let body = match unit {
            "std_fn" => ("fun id x = x", "fun id x = let val y = x in y end"),
            "std_option" => (
                "if isSome opt then false else true",
                "if isSome opt then 1 = 2 else true",
            ),
            "std_list" => (
                "fun append (xs, ys) = xs @ ys",
                "fun append (xs, ys) = foldr (fn (x, acc) => x :: acc) ys xs",
            ),
            "std_pair" => ("fun swap (x, y) = (y, x)", "fun swap p = (snd p, fst p)"),
            _ => ("if a > b then a else b", "if b < a then a else b"),
        };
        cases.push((
            unit,
            src.into(),
            body,
            ("= struct", "= struct val extra = 1"),
        ));
    }
    cases
}

fn project(edit: Option<(&str, String)>) -> Project {
    let mut p = Project::new();
    for (unit, src, _, _) in corpus() {
        match &edit {
            Some((u, edited)) if *u == unit => p.add(unit, edited),
            _ => p.add(unit, &src),
        }
    }
    p
}

fn pids_of(irm: &Irm) -> BTreeMap<String, Pid> {
    corpus()
        .iter()
        .map(|(u, ..)| (u.to_string(), irm.bin_meta(u).unwrap().export_pid))
        .collect()
}

fn replace_once(src: &str, (from, to): (&str, &str)) -> String {
    assert!(src.contains(from), "`{from}` is not in `{src}`");
    src.replacen(from, to, 1)
}

#[test]
fn comment_and_body_edits_keep_the_export_pid_and_interface_edits_move_it() {
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&project(None)).unwrap();
    let clean = pids_of(&irm);
    for (unit, src, body, iface) in corpus() {
        let edits = [
            (format!("(* a comment *)\n{src}\n(* and another *)"), true),
            (replace_once(&src, body), true),
            (replace_once(&src, iface), false),
        ];
        for (edited, keeps) in edits {
            let report = irm.build(&project(Some((unit, edited.clone())))).unwrap();
            assert!(report.was_recompiled(unit), "{unit}: {edited}");
            let pid = irm.bin_meta(unit).unwrap().export_pid;
            assert_eq!(pid == clean[unit], keeps, "{unit}: {edited}");
            irm.build(&project(None)).unwrap();
        }
    }
    assert_eq!(pids_of(&irm), clean);
}

fn temp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smlsc-ifpids-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The units that import another: each recompiles against imports that
/// do not, so a warm build rehydrates them.
fn dependents(irm: &Irm) -> Vec<&'static str> {
    corpus()
        .iter()
        .map(|(u, ..)| *u)
        .filter(|u| !irm.bin_meta(u).unwrap().imports.is_empty())
        .collect()
}

fn commented(unit: &str) -> String {
    let (_, src, ..) = corpus().into_iter().find(|c| c.0 == unit).unwrap();
    format!("(* edited *)\n{src}")
}

fn pack_pids(bin_dir: &Path) -> BTreeMap<String, Pid> {
    let reader = PackReader::open(&bin_dir.join(PACK_FILE)).unwrap().unwrap();
    reader
        .entries()
        .iter()
        .map(|e| (e.name.to_string(), e.export_pid))
        .collect()
}

#[test]
fn dependents_get_the_same_export_pid_against_live_and_rehydrated_imports() {
    let root = temp("live");
    // Cold: every import is the live environment its compile produced.
    let mut cold = Irm::new(Strategy::Cutoff);
    for jobs in [1, 2] {
        cold = Irm::new(Strategy::Cutoff);
        cold.build_with_jobs(&project(None), jobs).unwrap();
        cold.save_bins(&root.join(format!("bins{jobs}"))).unwrap();
    }
    let clean = pids_of(&cold);
    let deps = dependents(&cold);
    assert_eq!(deps, ["factors", "fsort", "std_client", "use_shapes"]);

    // Warm, in a fresh manager per edit: the edited dependent compiles
    // against imports rehydrated from the pack.
    for jobs in [1, 2] {
        for unit in &deps {
            let mut warm = Irm::new(Strategy::Cutoff);
            warm.load_bins(&root.join(format!("bins{jobs}"))).unwrap();
            let report = warm
                .build_with_jobs(&project(Some((unit, commented(unit)))), jobs)
                .unwrap();
            assert_eq!(report.recompiled, vec![Symbol::intern(unit)], "{unit}");
            assert_eq!(pids_of(&warm), clean, "jobs {jobs}, {unit} edited");
        }
    }

    // A daemon: one cold build, then each dependent edited on disk.
    let src = root.join("src");
    std::fs::create_dir_all(&src).unwrap();
    for (unit, text, ..) in corpus() {
        std::fs::write(src.join(format!("{unit}.sml")), text).unwrap();
    }
    let bin_dir = root.join("daemon-bins");
    let server = ServerHandle::spawn(ServerConfig::new(&src, &bin_dir)).unwrap();
    let build = || {
        let r = client::request(server.socket_path(), &Request::build(true)).unwrap();
        assert!(r.ok && r.exit_code == 0, "{} {}", r.error, r.summary);
        pack_pids(&bin_dir)
    };
    assert_eq!(build(), clean, "daemon cold build");
    for unit in &deps {
        std::fs::write(src.join(format!("{unit}.sml")), commented(unit)).unwrap();
        assert_eq!(build(), clean, "daemon, {unit} edited");
    }
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}
