//! Wire codec for the runtime IR.
//!
//! Bin bodies are the `pickle::wire` little-endian format end to end;
//! this module encodes the code object ([`Ir`]) the same way the
//! environment pickle is encoded, so a warm build parses zero JSON.
//! Every variant carries a one-byte tag; primitives are written by their
//! stable source name (the same convention the environment pickle uses
//! for `ValKind::Prim`), so reordering the `PrimOp` enum cannot corrupt
//! old archives.
//!
//! Any layout change here must bump
//! [`BIN_FORMAT_VERSION`](crate::unit::BIN_FORMAT_VERSION).

use smlsc_dynamics::ir::{ConTag, Ir, IrDec, IrPat, IrRule};
use smlsc_ids::Symbol;
use smlsc_pickle::wire::{Reader, Writer};
use smlsc_pickle::PickleError;
use smlsc_syntax::ast::PrimOp;

// Ir variant tags.
const IR_INT: u8 = 0;
const IR_STR: u8 = 1;
const IR_UNIT: u8 = 2;
const IR_LOCAL: u8 = 3;
const IR_IMPORT: u8 = 4;
const IR_SELECT: u8 = 5;
const IR_RECORD: u8 = 6;
const IR_TUPLE: u8 = 7;
const IR_CON: u8 = 8;
const IR_CONFN: u8 = 9;
const IR_APP: u8 = 10;
const IR_PRIM: u8 = 11;
const IR_FN: u8 = 12;
const IR_CASE: u8 = 13;
const IR_IF: u8 = 14;
const IR_LET: u8 = 15;
const IR_SEQ: u8 = 16;
const IR_RAISE: u8 = 17;
const IR_HANDLE: u8 = 18;
const IR_FUNCTOR: u8 = 19;

// IrPat variant tags.
const PAT_WILD: u8 = 0;
const PAT_VAR: u8 = 1;
const PAT_INT: u8 = 2;
const PAT_STR: u8 = 3;
const PAT_UNIT: u8 = 4;
const PAT_TUPLE: u8 = 5;
const PAT_CON: u8 = 6;
const PAT_EXN: u8 = 7;
const PAT_AS: u8 = 8;

// IrDec variant tags.
const DEC_VAL: u8 = 0;
const DEC_FIX: u8 = 1;
const DEC_EXCEPTION: u8 = 2;

fn corrupt(what: &str, tag: u8) -> PickleError {
    PickleError::Corrupt(format!("bad {what} tag {tag}"))
}

fn write_opt<T>(w: &mut Writer, v: Option<&T>, f: impl FnOnce(&mut Writer, &T)) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            f(w, x);
        }
    }
}

fn read_opt<T>(
    r: &mut Reader<'_>,
    f: impl FnOnce(&mut Reader<'_>) -> Result<T, PickleError>,
) -> Result<Option<T>, PickleError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(f(r)?)),
        t => Err(corrupt("option", t)),
    }
}

fn write_contag(w: &mut Writer, c: &ConTag) {
    w.u32(c.tag);
    w.u32(c.span);
    w.u8(u8::from(c.has_arg));
    w.str(c.name.as_str());
}

fn read_contag(r: &mut Reader<'_>) -> Result<ConTag, PickleError> {
    Ok(ConTag {
        tag: r.u32()?,
        span: r.u32()?,
        has_arg: r.u8()? != 0,
        name: Symbol::intern(r.str_ref()?),
    })
}

fn write_prim(w: &mut Writer, op: PrimOp) {
    w.str(op.name());
}

fn read_prim(r: &mut Reader<'_>) -> Result<PrimOp, PickleError> {
    let name = r.str_ref()?;
    PrimOp::from_name(name)
        .ok_or_else(|| PickleError::Corrupt(format!("unknown primitive `{name}`")))
}

/// Writes one pattern.
pub fn write_pat(w: &mut Writer, p: &IrPat) {
    match p {
        IrPat::Wild => w.u8(PAT_WILD),
        IrPat::Var(v) => {
            w.u8(PAT_VAR);
            w.u32(*v);
        }
        IrPat::Int(i) => {
            w.u8(PAT_INT);
            w.i64(*i);
        }
        IrPat::Str(s) => {
            w.u8(PAT_STR);
            w.str(s);
        }
        IrPat::Unit => w.u8(PAT_UNIT),
        IrPat::Tuple(ps) => {
            w.u8(PAT_TUPLE);
            w.u32(ps.len() as u32);
            for p in ps {
                write_pat(w, p);
            }
        }
        IrPat::Con(c, arg) => {
            w.u8(PAT_CON);
            write_contag(w, c);
            write_opt(w, arg.as_deref(), write_pat);
        }
        IrPat::Exn(e, arg) => {
            w.u8(PAT_EXN);
            write_ir(w, e);
            write_opt(w, arg.as_deref(), write_pat);
        }
        IrPat::As(v, p) => {
            w.u8(PAT_AS);
            w.u32(*v);
            write_pat(w, p);
        }
    }
}

/// Reads one pattern.
///
/// # Errors
///
/// [`PickleError::Corrupt`] on malformed bytes.
pub fn read_pat(r: &mut Reader<'_>) -> Result<IrPat, PickleError> {
    Ok(match r.u8()? {
        PAT_WILD => IrPat::Wild,
        PAT_VAR => IrPat::Var(r.u32()?),
        PAT_INT => IrPat::Int(r.i64()?),
        PAT_STR => IrPat::Str(r.str()?),
        PAT_UNIT => IrPat::Unit,
        PAT_TUPLE => {
            let n = r.count(1)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(read_pat(r)?);
            }
            IrPat::Tuple(ps)
        }
        PAT_CON => {
            let c = read_contag(r)?;
            let arg = read_opt(r, read_pat)?;
            IrPat::Con(c, arg.map(Box::new))
        }
        PAT_EXN => {
            let e = read_ir(r)?;
            let arg = read_opt(r, read_pat)?;
            IrPat::Exn(Box::new(e), arg.map(Box::new))
        }
        PAT_AS => {
            let v = r.u32()?;
            let p = read_pat(r)?;
            IrPat::As(v, Box::new(p))
        }
        t => return Err(corrupt("pattern", t)),
    })
}

fn write_rules(w: &mut Writer, rs: &[IrRule]) {
    w.u32(rs.len() as u32);
    for rule in rs {
        write_pat(w, &rule.pat);
        write_ir(w, &rule.body);
    }
}

fn read_rules(r: &mut Reader<'_>) -> Result<Vec<IrRule>, PickleError> {
    // A rule is a pattern and a body, each at least a tag byte.
    let n = r.count(2)?;
    let mut rs = Vec::with_capacity(n);
    for _ in 0..n {
        let pat = read_pat(r)?;
        let body = read_ir(r)?;
        rs.push(IrRule { pat, body });
    }
    Ok(rs)
}

fn write_dec(w: &mut Writer, d: &IrDec) {
    match d {
        IrDec::Val(p, e) => {
            w.u8(DEC_VAL);
            write_pat(w, p);
            write_ir(w, e);
        }
        IrDec::Fix(fs) => {
            w.u8(DEC_FIX);
            w.u32(fs.len() as u32);
            for (v, rs) in fs {
                w.u32(*v);
                write_rules(w, rs);
            }
        }
        IrDec::Exception {
            lvar,
            name,
            has_arg,
        } => {
            w.u8(DEC_EXCEPTION);
            w.u32(*lvar);
            w.str(name.as_str());
            w.u8(u8::from(*has_arg));
        }
    }
}

fn read_dec(r: &mut Reader<'_>) -> Result<IrDec, PickleError> {
    Ok(match r.u8()? {
        DEC_VAL => {
            let p = read_pat(r)?;
            let e = read_ir(r)?;
            IrDec::Val(p, e)
        }
        DEC_FIX => {
            // A binding is its lvar and its rule count.
            let n = r.count(8)?;
            let mut fs = Vec::with_capacity(n);
            for _ in 0..n {
                let v = r.u32()?;
                let rs = read_rules(r)?;
                fs.push((v, rs));
            }
            IrDec::Fix(fs)
        }
        DEC_EXCEPTION => IrDec::Exception {
            lvar: r.u32()?,
            name: Symbol::intern(r.str_ref()?),
            has_arg: r.u8()? != 0,
        },
        t => return Err(corrupt("declaration", t)),
    })
}

/// Writes one expression.
pub fn write_ir(w: &mut Writer, ir: &Ir) {
    match ir {
        Ir::Int(i) => {
            w.u8(IR_INT);
            w.i64(*i);
        }
        Ir::Str(s) => {
            w.u8(IR_STR);
            w.str(s);
        }
        Ir::Unit => w.u8(IR_UNIT),
        Ir::Local(v) => {
            w.u8(IR_LOCAL);
            w.u32(*v);
        }
        Ir::Import(i) => {
            w.u8(IR_IMPORT);
            w.u32(*i);
        }
        Ir::Select(e, slot) => {
            w.u8(IR_SELECT);
            write_ir(w, e);
            w.u32(*slot);
        }
        Ir::Record(es) => {
            w.u8(IR_RECORD);
            write_many(w, es);
        }
        Ir::Tuple(es) => {
            w.u8(IR_TUPLE);
            write_many(w, es);
        }
        Ir::Con(c, arg) => {
            w.u8(IR_CON);
            write_contag(w, c);
            write_opt(w, arg.as_deref(), write_ir);
        }
        Ir::ConFn(c) => {
            w.u8(IR_CONFN);
            write_contag(w, c);
        }
        Ir::App(f, a) => {
            w.u8(IR_APP);
            write_ir(w, f);
            write_ir(w, a);
        }
        Ir::Prim(op, es) => {
            w.u8(IR_PRIM);
            write_prim(w, *op);
            write_many(w, es);
        }
        Ir::Fn(rs) => {
            w.u8(IR_FN);
            write_rules(w, rs);
        }
        Ir::Case(e, rs) => {
            w.u8(IR_CASE);
            write_ir(w, e);
            write_rules(w, rs);
        }
        Ir::If(a, b, c) => {
            w.u8(IR_IF);
            write_ir(w, a);
            write_ir(w, b);
            write_ir(w, c);
        }
        Ir::Let(ds, b) => {
            w.u8(IR_LET);
            w.u32(ds.len() as u32);
            for d in ds {
                write_dec(w, d);
            }
            write_ir(w, b);
        }
        Ir::Seq(es) => {
            w.u8(IR_SEQ);
            write_many(w, es);
        }
        Ir::Raise(e) => {
            w.u8(IR_RAISE);
            write_ir(w, e);
        }
        Ir::Handle(e, rs) => {
            w.u8(IR_HANDLE);
            write_ir(w, e);
            write_rules(w, rs);
        }
        Ir::Functor { param, body } => {
            w.u8(IR_FUNCTOR);
            w.u32(*param);
            write_ir(w, body);
        }
    }
}

fn write_many(w: &mut Writer, es: &[Ir]) {
    w.u32(es.len() as u32);
    for e in es {
        write_ir(w, e);
    }
}

fn read_many(r: &mut Reader<'_>) -> Result<Vec<Ir>, PickleError> {
    let n = r.count(1)?;
    let mut es = Vec::with_capacity(n);
    for _ in 0..n {
        es.push(read_ir(r)?);
    }
    Ok(es)
}

/// Reads one expression.
///
/// # Errors
///
/// [`PickleError::Corrupt`] on malformed bytes.
pub fn read_ir(r: &mut Reader<'_>) -> Result<Ir, PickleError> {
    Ok(match r.u8()? {
        IR_INT => Ir::Int(r.i64()?),
        IR_STR => Ir::Str(r.str()?),
        IR_UNIT => Ir::Unit,
        IR_LOCAL => Ir::Local(r.u32()?),
        IR_IMPORT => Ir::Import(r.u32()?),
        IR_SELECT => {
            let e = read_ir(r)?;
            let slot = r.u32()?;
            Ir::Select(Box::new(e), slot)
        }
        IR_RECORD => Ir::Record(read_many(r)?),
        IR_TUPLE => Ir::Tuple(read_many(r)?),
        IR_CON => {
            let c = read_contag(r)?;
            let arg = read_opt(r, read_ir)?;
            Ir::Con(c, arg.map(Box::new))
        }
        IR_CONFN => Ir::ConFn(read_contag(r)?),
        IR_APP => {
            let f = read_ir(r)?;
            let a = read_ir(r)?;
            Ir::App(Box::new(f), Box::new(a))
        }
        IR_PRIM => {
            let op = read_prim(r)?;
            let es = read_many(r)?;
            Ir::Prim(op, es)
        }
        IR_FN => Ir::Fn(read_rules(r)?),
        IR_CASE => {
            let e = read_ir(r)?;
            let rs = read_rules(r)?;
            Ir::Case(Box::new(e), rs)
        }
        IR_IF => {
            let a = read_ir(r)?;
            let b = read_ir(r)?;
            let c = read_ir(r)?;
            Ir::If(Box::new(a), Box::new(b), Box::new(c))
        }
        IR_LET => {
            let n = r.count(1)?;
            let mut ds = Vec::with_capacity(n);
            for _ in 0..n {
                ds.push(read_dec(r)?);
            }
            let b = read_ir(r)?;
            Ir::Let(ds, Box::new(b))
        }
        IR_SEQ => Ir::Seq(read_many(r)?),
        IR_RAISE => Ir::Raise(Box::new(read_ir(r)?)),
        IR_HANDLE => {
            let e = read_ir(r)?;
            let rs = read_rules(r)?;
            Ir::Handle(Box::new(e), rs)
        }
        IR_FUNCTOR => {
            let param = r.u32()?;
            let body = read_ir(r)?;
            Ir::Functor {
                param,
                body: Box::new(body),
            }
        }
        t => return Err(corrupt("expression", t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ir: &Ir) {
        let mut w = Writer::new();
        write_ir(&mut w, ir);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        let back = read_ir(&mut r).unwrap();
        assert!(r.at_end(), "trailing bytes after {ir:?}");
        assert_eq!(&back, ir);
    }

    fn tag(t: u32) -> ConTag {
        ConTag {
            tag: t,
            span: 2,
            has_arg: t == 0,
            name: Symbol::intern(if t == 0 { "Leaf" } else { "Node" }),
        }
    }

    #[test]
    fn every_expression_variant_round_trips() {
        let rules = vec![
            IrRule {
                pat: IrPat::Con(tag(0), Some(Box::new(IrPat::Var(1)))),
                body: Ir::Local(1),
            },
            IrRule {
                pat: IrPat::Wild,
                body: Ir::Int(0),
            },
        ];
        let cases = vec![
            Ir::Int(-7),
            Ir::Str("héllo\nworld".into()),
            Ir::Unit,
            Ir::Local(3),
            Ir::Import(2),
            Ir::Select(Box::new(Ir::Import(0)), 4),
            Ir::Record(vec![Ir::Int(1), Ir::Unit]),
            Ir::Tuple(vec![Ir::Str("x".into())]),
            Ir::Con(tag(0), Some(Box::new(Ir::Int(9)))),
            Ir::Con(tag(1), None),
            Ir::ConFn(tag(0)),
            Ir::App(Box::new(Ir::Local(0)), Box::new(Ir::Int(1))),
            Ir::Prim(PrimOp::Add, vec![Ir::Int(1), Ir::Int(2)]),
            Ir::Fn(rules.clone()),
            Ir::Case(Box::new(Ir::Local(2)), rules.clone()),
            Ir::If(
                Box::new(Ir::Int(1)),
                Box::new(Ir::Int(2)),
                Box::new(Ir::Int(3)),
            ),
            Ir::Let(
                vec![
                    IrDec::Val(IrPat::Var(0), Ir::Int(5)),
                    IrDec::Fix(vec![(1, rules.clone())]),
                    IrDec::Exception {
                        lvar: 2,
                        name: Symbol::intern("Oops"),
                        has_arg: true,
                    },
                ],
                Box::new(Ir::Local(0)),
            ),
            Ir::Seq(vec![Ir::Unit, Ir::Int(1)]),
            Ir::Raise(Box::new(Ir::Local(2))),
            Ir::Handle(Box::new(Ir::Int(1)), rules.clone()),
            Ir::Functor {
                param: 0,
                body: Box::new(Ir::Record(vec![Ir::Local(0)])),
            },
        ];
        for ir in &cases {
            round_trip(ir);
        }
        // And one deeply mixed expression covering every pattern variant.
        let all_pats = Ir::Case(
            Box::new(Ir::Local(0)),
            vec![
                IrRule {
                    pat: IrPat::Tuple(vec![
                        IrPat::Wild,
                        IrPat::Var(1),
                        IrPat::Int(-3),
                        IrPat::Str("s".into()),
                        IrPat::Unit,
                    ]),
                    body: Ir::Unit,
                },
                IrRule {
                    pat: IrPat::As(
                        2,
                        Box::new(IrPat::Exn(
                            Box::new(Ir::Local(3)),
                            Some(Box::new(IrPat::Var(4))),
                        )),
                    ),
                    body: Ir::Local(2),
                },
            ],
        );
        round_trip(&all_pats);
    }

    #[test]
    fn bad_tags_are_corrupt_not_panics() {
        for bytes in [[0xffu8].as_slice(), &[IR_PRIM, 3, 0, 0, 0, b'z', b'z']] {
            let mut r = Reader::new(bytes);
            assert!(read_ir(&mut r).is_err());
        }
    }
}
