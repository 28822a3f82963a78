//! Error-reporting coverage: every class of elaboration failure produces
//! a useful message naming the offending entity.

use smlsc_statics::elab::{elaborate_unit, ImportEnv};

fn err(src: &str) -> String {
    let ast = smlsc_syntax::parse_unit(src).unwrap_or_else(|e| panic!("parse: {e}"));
    match elaborate_unit(&ast, &ImportEnv::empty()) {
        Ok(_) => panic!("expected failure:\n{src}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn unbound_variable() {
    let m = err("structure A = struct val x = missing end");
    assert!(m.contains("unbound variable `missing`"), "{m}");
}

#[test]
fn unbound_type_constructor() {
    let m = err("structure A = struct val f = fn (x : widget) => x end");
    assert!(m.contains("unbound type constructor `widget`"), "{m}");
}

#[test]
fn unbound_structure() {
    let m = err("structure A = struct val x = Ghost.y end");
    assert!(m.contains("unbound structure `Ghost`"), "{m}");
}

#[test]
fn unbound_signature() {
    let m = err("structure A : MISSING_SIG = struct end");
    assert!(m.contains("unbound signature `MISSING_SIG`"), "{m}");
}

#[test]
fn unbound_functor() {
    let m = err("structure A = Ghost(struct end)");
    assert!(m.contains("unbound functor `Ghost`"), "{m}");
}

#[test]
fn tycon_arity_mismatch() {
    let m = err(
        "structure A = struct type t = int list list val x = fn (y : (int, string) list) => y end",
    );
    assert!(m.contains("expects 1 argument"), "{m}");
}

#[test]
fn unbound_tyvar_in_datatype() {
    let m = err("structure A = struct datatype t = C of 'a end");
    assert!(m.contains("unbound type variable `'a`"), "{m}");
}

#[test]
fn nullary_constructor_applied_in_pattern() {
    let m = err("structure A = struct
           datatype t = C
           fun f (C x) = x
         end");
    assert!(m.contains("takes no argument"), "{m}");
}

#[test]
fn unary_constructor_bare_in_pattern() {
    let m = err("structure A = struct
           datatype t = C of int
           fun f C = 1
         end");
    assert!(m.contains("expects an argument"), "{m}");
}

#[test]
fn duplicate_pattern_variable() {
    let m = err("structure A = struct fun f (x, x) = x end");
    assert!(m.contains("duplicate variable `x`"), "{m}");
}

#[test]
fn qualified_name_cannot_bind() {
    let m = err("structure A = struct val B.x = 1 end");
    assert!(
        m.contains("cannot bind") || m.contains("not a constructor"),
        "{m}"
    );
}

#[test]
fn if_branch_mismatch() {
    let m = err(r#"structure A = struct val x = if true then 1 else "s" end"#);
    assert!(m.contains("cannot unify"), "{m}");
}

#[test]
fn condition_must_be_bool() {
    let m = err("structure A = struct val x = if 1 then 2 else 3 end");
    assert!(m.contains("cannot unify"), "{m}");
}

#[test]
fn andalso_needs_bools() {
    let m = err("structure A = struct val x = 1 andalso true end");
    assert!(m.contains("cannot unify"), "{m}");
}

#[test]
fn comparison_needs_int_or_string() {
    let m = err("structure A = struct val x = (1, 2) < (3, 4) end");
    assert!(m.contains("comparison requires int or string"), "{m}");
}

#[test]
fn raise_requires_exn() {
    let m = err("structure A = struct val x : int = raise 5 end");
    assert!(m.contains("cannot unify"), "{m}");
}

#[test]
fn where_type_on_manifest_type_is_rejected() {
    let m = err("signature S = sig type t = int end
         structure A : S where type t = string = struct type t = int end");
    assert!(m.contains("not flexible"), "{m}");
}

#[test]
fn where_type_arity_mismatch() {
    let m = err("signature S = sig type 'a t end
         structure A : S where type t = int = struct type 'a t = int end");
    assert!(m.contains("arity mismatch"), "{m}");
}

#[test]
fn functor_argument_mismatch_names_the_functor() {
    let m = err("signature S = sig val n : int end
         functor F (X : S) = struct end
         structure Bad = F(struct val wrong = 1 end)");
    assert!(m.contains("functor `F`"), "{m}");
    assert!(m.contains("missing value `n`"), "{m}");
}

#[test]
fn signature_mismatch_names_nested_paths() {
    let m = err(
        "structure A : sig structure Inner : sig val deep : int end end =
           struct structure Inner = struct end end",
    );
    assert!(m.contains("Inner.deep"), "{m}");
}

#[test]
fn missing_type_in_signature_match() {
    let m = err("structure A : sig type t end = struct end");
    assert!(m.contains("missing type `t`"), "{m}");
}

#[test]
fn datatype_spec_requires_same_constructors() {
    let m = err("signature S = sig datatype d = X | Y end
         structure A : S = struct datatype d = X | Z end");
    assert!(m.contains("different constructors"), "{m}");
}

#[test]
fn datatype_spec_requires_a_datatype() {
    let m = err("signature S = sig datatype d = X end
         structure A : S = struct type d = int val X = 1 end");
    assert!(m.contains("must be a datatype"), "{m}");
}

#[test]
fn exception_spec_requires_exception() {
    let m = err("signature S = sig exception E end
         structure A : S = struct val E = 1 end");
    assert!(m.contains("must be an exception"), "{m}");
}

#[test]
fn constructor_spec_requires_constructor() {
    let m = err("signature S = sig datatype d = C end
         structure Impl = struct datatype d = C end
         structure A : S = struct type d = int val C = 1 end");
    assert!(
        m.contains("must be a datatype") || m.contains("constructor"),
        "{m}"
    );
}

#[test]
fn errors_carry_locations() {
    let ast = smlsc_syntax::parse_unit("structure A = struct\n  val x = 1\n  val y = missing\nend")
        .unwrap();
    let e = elaborate_unit(&ast, &ImportEnv::empty()).unwrap_err();
    assert!(e.loc.is_some(), "{e}");
}

#[test]
fn arity_of_applied_structure_member() {
    let m = err("structure A = struct type t = int end
         structure B = struct val f = fn (x : int A.t) => x end");
    assert!(m.contains("expects 0 argument"), "{m}");
}

/// Unsolved variables are numbered per message, both sides of a
/// `cannot unify` sharing one numbering, so an ill-typed unit reads the
/// same whether it is elaborated first or after other units whose
/// inference made variables of its own.
#[test]
fn unsolved_variables_are_numbered_per_message() {
    let bad = "structure A = struct fun f x = x x end";
    let first = err(bad);
    let ok = "structure B = struct fun id x = x val p = (id 1, id true) val g = fn y => y end";
    let ast = smlsc_syntax::parse_unit(ok).unwrap();
    for _ in 0..3 {
        elaborate_unit(&ast, &ImportEnv::empty()).unwrap();
    }
    let again = err(bad);
    assert_eq!(again, first);
    assert!(
        first.contains("cannot unify `'u1` with `'u1 -> 'u2`"),
        "{first}"
    );
}
