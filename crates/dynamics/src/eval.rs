//! The interpreter: `execute : code × import values → export value`.
//!
//! Exceptions propagate as the `Err` side of an internal result so that
//! `handle` can intercept them; escaping exceptions and genuine runtime
//! errors (which type-checked code should never produce) surface as
//! [`EvalError`].

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use smlsc_ids::Symbol;
use smlsc_syntax::ast::PrimOp;

use crate::ir::{Ir, IrDec, IrPat, IrRule};
use crate::value::{bind, lookup, Closure, Env, ExnId, ExnPacket, FunctorClosure, Value};

/// Why execution stopped abnormally.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// An SML exception escaped to the top level.
    UncaughtException(String),
    /// The code was ill-formed (impossible for elaborator output): unbound
    /// lvar, missing import, applying a non-function, etc.
    Malformed(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UncaughtException(e) => write!(f, "uncaught exception: {e}"),
            EvalError::Malformed(m) => write!(f, "malformed code: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Abnormal control flow during evaluation.
enum Control {
    /// A raised SML exception, catchable by `handle`.
    Raise(Value),
    /// Ill-formed code; never catchable.
    Broken(String),
}

type EvalResult = Result<Value, Control>;

fn fresh_exn(name: Symbol, has_arg: bool) -> Rc<ExnId> {
    Rc::new(ExnId { name, has_arg })
}

fn builtin_exn(name: &str) -> Value {
    Value::Exn(Rc::new(ExnPacket {
        con: fresh_exn(Symbol::intern(name), false),
        arg: None,
    }))
}

/// Executes a code object with the given import records.
///
/// `imports[i]` is the export record of the unit filling import slot `i`
/// (the linker established which unit that is and verified its pid).
///
/// # Errors
///
/// Returns [`EvalError::UncaughtException`] if an SML exception escapes,
/// or [`EvalError::Malformed`] if the code is not valid elaborator output.
///
/// # Examples
///
/// ```
/// use smlsc_dynamics::{execute, ir::Ir};
/// use smlsc_dynamics::value::Value;
/// let v = execute(&Ir::Int(7), &[]).unwrap();
/// assert_eq!(v, Value::Int(7));
/// ```
pub fn execute(code: &Ir, imports: &[Value]) -> Result<Value, EvalError> {
    execute_limited(code, imports, u64::MAX)
}

/// Like [`execute`], but aborts with [`EvalError::Malformed`] after
/// `max_steps` evaluation steps, and also bounds evaluation *depth* (the
/// interpreter recurses on the host stack, so runaway non-tail recursion
/// would otherwise overflow before any step budget is spent) — a guard
/// for interactive use, where an accidental `fun loop x = loop x` should
/// not take down the session.
pub fn execute_limited(code: &Ir, imports: &[Value], max_steps: u64) -> Result<Value, EvalError> {
    let max_depth = if max_steps == u64::MAX {
        u64::MAX
    } else {
        4_000
    };
    let mut ev = Evaluator {
        imports,
        steps: 0,
        max_steps,
        depth: 0,
        max_depth,
    };
    match ev.eval(code, &None) {
        Ok(v) => Ok(v),
        Err(Control::Raise(exn)) => Err(EvalError::UncaughtException(exn.to_string())),
        Err(Control::Broken(m)) => Err(EvalError::Malformed(m)),
    }
}

struct Evaluator<'a> {
    imports: &'a [Value],
    steps: u64,
    max_steps: u64,
    depth: u64,
    max_depth: u64,
}

impl<'a> Evaluator<'a> {
    fn broken(&self, msg: impl Into<String>) -> Control {
        Control::Broken(msg.into())
    }

    fn eval(&mut self, ir: &Ir, env: &Env) -> EvalResult {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(self.broken(format!("step limit {} exceeded", self.max_steps)));
        }
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(self.broken(format!("depth limit {} exceeded", self.max_depth)));
        }
        let result = self.eval_inner(ir, env);
        self.depth -= 1;
        result
    }

    fn eval_inner(&mut self, ir: &Ir, env: &Env) -> EvalResult {
        match ir {
            Ir::Int(n) => Ok(Value::Int(*n)),
            Ir::Str(s) => Ok(Value::Str(Rc::from(s.as_str()))),
            Ir::Unit => Ok(Value::Unit),
            Ir::Local(v) => lookup(env, *v).ok_or_else(|| self.broken(format!("unbound lvar {v}"))),
            Ir::Import(i) => self
                .imports
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| self.broken(format!("missing import slot {i}"))),
            Ir::Select(e, slot) => match self.eval(e, env)? {
                Value::Record(fields) | Value::Tuple(fields) => fields
                    .get(*slot as usize)
                    .cloned()
                    .ok_or_else(|| self.broken(format!("select {slot} out of range"))),
                other => Err(self.broken(format!("select from non-record {other}"))),
            },
            Ir::Record(es) => {
                let mut vs = Vec::with_capacity(es.len());
                for e in es {
                    vs.push(self.eval(e, env)?);
                }
                Ok(Value::Record(Rc::new(vs)))
            }
            Ir::Tuple(es) => {
                let mut vs = Vec::with_capacity(es.len());
                for e in es {
                    vs.push(self.eval(e, env)?);
                }
                Ok(Value::Tuple(Rc::new(vs)))
            }
            Ir::Con(con, arg) => {
                let arg = match arg {
                    None => None,
                    Some(e) => Some(Rc::new(self.eval(e, env)?)),
                };
                Ok(Value::Data { con: *con, arg })
            }
            Ir::ConFn(con) => {
                // Represent the eta-expanded constructor as a closure whose
                // single rule binds lvar 0 in an empty environment; the tag
                // is baked into the body.
                Ok(Value::Closure(Rc::new(Closure {
                    rules: vec![IrRule {
                        pat: IrPat::Var(u32::MAX),
                        body: Ir::Con(*con, Some(Box::new(Ir::Local(u32::MAX)))),
                    }],
                    env: RefCell::new(None),
                })))
            }
            Ir::App(f, a) => {
                let fv = self.eval(f, env)?;
                let av = self.eval(a, env)?;
                self.apply(fv, av)
            }
            Ir::Prim(op, args) => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(self.eval(a, env)?);
                }
                self.prim(*op, vs)
            }
            Ir::Fn(rules) => Ok(Value::Closure(Rc::new(Closure {
                rules: rules.clone(),
                env: RefCell::new(env.clone()),
            }))),
            Ir::Case(scrut, rules) => {
                let v = self.eval(scrut, env)?;
                self.match_rules(&v, rules, env)?
                    .ok_or(Control::Raise(builtin_exn("Match")))
                    .and_then(|(body, env2)| self.eval(&body, &env2))
            }
            Ir::If(c, t, e) => match self.eval(c, env)?.as_bool() {
                Some(true) => self.eval(t, env),
                Some(false) => self.eval(e, env),
                None => Err(self.broken("if on non-bool")),
            },
            Ir::Let(decs, body) => {
                let mut env = env.clone();
                for d in decs {
                    env = self.eval_dec(d, &env)?;
                }
                self.eval(body, &env)
            }
            Ir::Seq(es) => {
                let mut last = Value::Unit;
                for e in es {
                    last = self.eval(e, env)?;
                }
                Ok(last)
            }
            Ir::Raise(e) => {
                let v = self.eval(e, env)?;
                match v {
                    Value::Exn(_) => Err(Control::Raise(v)),
                    other => Err(self.broken(format!("raise of non-exception {other}"))),
                }
            }
            Ir::Handle(e, rules) => match self.eval(e, env) {
                Err(Control::Raise(exn)) => {
                    match self.match_rules(&exn, rules, env)? {
                        Some((body, env2)) => self.eval(&body, &env2),
                        None => Err(Control::Raise(exn)), // re-raise
                    }
                }
                other => other,
            },
            Ir::Functor { param, body } => Ok(Value::Functor(Rc::new(FunctorClosure {
                param: *param,
                body: (**body).clone(),
                env: env.clone(),
            }))),
        }
    }

    fn apply(&mut self, f: Value, arg: Value) -> EvalResult {
        match f {
            Value::Closure(c) => {
                let env = c.env.borrow().clone();
                match self.match_rules(&arg, &c.rules, &env)? {
                    Some((body, env2)) => self.eval(&body, &env2),
                    None => Err(Control::Raise(builtin_exn("Match"))),
                }
            }
            Value::Functor(fc) => {
                let env = bind(&fc.env, fc.param, arg);
                self.eval(&fc.body.clone(), &env)
            }
            Value::ExnCon(id) => Ok(Value::Exn(Rc::new(ExnPacket {
                con: id,
                arg: Some(arg),
            }))),
            other => Err(self.broken(format!("apply of non-function {other}"))),
        }
    }

    fn eval_dec(&mut self, dec: &IrDec, env: &Env) -> Result<Env, Control> {
        match dec {
            IrDec::Val(pat, e) => {
                let v = self.eval(e, env)?;
                let mut env2 = env.clone();
                if self.match_pat(pat, &v, &mut env2, env)? {
                    Ok(env2)
                } else {
                    Err(Control::Raise(builtin_exn("Bind")))
                }
            }
            IrDec::Fix(funs) => {
                // Allocate every closure with a placeholder environment,
                // then patch each to see the whole group (knot-tying).
                let closures: Vec<Rc<Closure>> = funs
                    .iter()
                    .map(|(_, rules)| {
                        Rc::new(Closure {
                            rules: rules.clone(),
                            env: RefCell::new(None),
                        })
                    })
                    .collect();
                let mut env2 = env.clone();
                for ((lvar, _), c) in funs.iter().zip(&closures) {
                    env2 = bind(&env2, *lvar, Value::Closure(c.clone()));
                }
                for c in &closures {
                    *c.env.borrow_mut() = env2.clone();
                }
                Ok(env2)
            }
            IrDec::Exception {
                lvar,
                name,
                has_arg,
            } => {
                let id = fresh_exn(*name, *has_arg);
                let v = if *has_arg {
                    Value::ExnCon(id)
                } else {
                    Value::Exn(Rc::new(ExnPacket { con: id, arg: None }))
                };
                Ok(bind(env, *lvar, v))
            }
        }
    }

    /// Finds the first rule matching `v`; returns its body and extended
    /// environment.  Rule bodies are cloned (cheap: `Ir` is a tree of
    /// boxes) so the borrow on the rules ends before evaluation.
    fn match_rules(
        &mut self,
        v: &Value,
        rules: &[IrRule],
        env: &Env,
    ) -> Result<Option<(Ir, Env)>, Control> {
        for r in rules {
            let mut env2 = env.clone();
            if self.match_pat(&r.pat, v, &mut env2, env)? {
                return Ok(Some((r.body.clone(), env2)));
            }
        }
        Ok(None)
    }

    /// Matches `v` against `pat`, extending `binds`.  `scope` is the
    /// environment in which exception-constructor references inside the
    /// pattern are evaluated.
    fn match_pat(
        &mut self,
        pat: &IrPat,
        v: &Value,
        binds: &mut Env,
        scope: &Env,
    ) -> Result<bool, Control> {
        match pat {
            IrPat::Wild => Ok(true),
            IrPat::Var(lv) => {
                *binds = bind(binds, *lv, v.clone());
                Ok(true)
            }
            IrPat::Int(n) => Ok(matches!(v, Value::Int(m) if m == n)),
            IrPat::Str(s) => Ok(matches!(v, Value::Str(t) if t.as_ref() == s.as_str())),
            IrPat::Unit => Ok(matches!(v, Value::Unit)),
            IrPat::Tuple(ps) => match v {
                Value::Tuple(vs) if vs.len() == ps.len() => {
                    for (p, v) in ps.iter().zip(vs.iter()) {
                        if !self.match_pat(p, v, binds, scope)? {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                }
                _ => Ok(false),
            },
            IrPat::Con(con, argp) => match v {
                Value::Data { con: vc, arg } if vc.tag == con.tag => match (argp, arg) {
                    (None, None) => Ok(true),
                    (Some(p), Some(a)) => self.match_pat(p, a, binds, scope),
                    _ => Ok(false),
                },
                _ => Ok(false),
            },
            IrPat::As(lv, inner) => {
                *binds = bind(binds, *lv, v.clone());
                self.match_pat(inner, v, binds, scope)
            }
            IrPat::Exn(conref, argp) => {
                let cv = self.eval(conref, scope)?;
                match (cv, v) {
                    // Nullary exception constructor: its value IS a packet.
                    (Value::Exn(want), Value::Exn(got)) if argp.is_none() => {
                        Ok(Rc::ptr_eq(&want.con, &got.con))
                    }
                    (Value::ExnCon(want), Value::Exn(got)) => {
                        if !Rc::ptr_eq(&want, &got.con) {
                            return Ok(false);
                        }
                        match (argp, &got.arg) {
                            (Some(p), Some(a)) => self.match_pat(p, a, binds, scope),
                            (None, None) => Ok(true),
                            _ => Ok(false),
                        }
                    }
                    (_, Value::Exn(_)) => Ok(false),
                    _ => Ok(false),
                }
            }
        }
    }

    fn prim(&mut self, op: PrimOp, mut args: Vec<Value>) -> EvalResult {
        use PrimOp::*;
        let arity = match op {
            Neg | ItoS | Size => 1,
            _ => 2,
        };
        if args.len() != arity {
            return Err(self.broken(format!("primitive {} arity {}", op.name(), args.len())));
        }
        let b = if arity == 2 {
            Some(args.pop().expect("arity 2"))
        } else {
            None
        };
        let a = args.pop().expect("arity >= 1");
        match op {
            Neg => match a {
                Value::Int(n) => Ok(Value::Int(-n)),
                _ => Err(self.broken("~ on non-int")),
            },
            ItoS => match a {
                // SML renders negative integers with `~`.
                Value::Int(n) => Ok(Value::Str(Rc::from(
                    if n < 0 {
                        format!("~{}", n.unsigned_abs())
                    } else {
                        n.to_string()
                    }
                    .as_str(),
                ))),
                _ => Err(self.broken("itos on non-int")),
            },
            Size => match a {
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                _ => Err(self.broken("size on non-string")),
            },
            Add | Sub | Mul | Div | Mod => {
                let (Value::Int(x), Some(Value::Int(y))) = (&a, &b) else {
                    return Err(self.broken(format!("{} on non-ints", op.name())));
                };
                let (x, y) = (*x, *y);
                match op {
                    Add => Ok(Value::Int(x.wrapping_add(y))),
                    Sub => Ok(Value::Int(x.wrapping_sub(y))),
                    Mul => Ok(Value::Int(x.wrapping_mul(y))),
                    Div | Mod => {
                        if y == 0 {
                            Err(Control::Raise(builtin_exn("Div")))
                        } else if op == Div {
                            Ok(Value::Int(x.div_euclid(y)))
                        } else {
                            Ok(Value::Int(x.rem_euclid(y)))
                        }
                    }
                    _ => unreachable!(),
                }
            }
            Concat => match (&a, &b) {
                (Value::Str(x), Some(Value::Str(y))) => {
                    Ok(Value::Str(Rc::from(format!("{x}{y}").as_str())))
                }
                _ => Err(self.broken("^ on non-strings")),
            },
            Lt | Le | Gt | Ge => {
                let cmp = match (&a, &b) {
                    (Value::Int(x), Some(Value::Int(y))) => x.cmp(y),
                    (Value::Str(x), Some(Value::Str(y))) => x.cmp(y),
                    _ => return Err(self.broken("comparison on unsupported type")),
                };
                let r = match op {
                    Lt => cmp.is_lt(),
                    Le => cmp.is_le(),
                    Gt => cmp.is_gt(),
                    Ge => cmp.is_ge(),
                    _ => unreachable!(),
                };
                Ok(Value::bool(r))
            }
            Eq | Neq => {
                let b = b.expect("arity 2");
                match a.structural_eq(&b) {
                    Some(r) => Ok(Value::bool(if op == Eq { r } else { !r })),
                    None => Err(self.broken("equality on a non-equality type")),
                }
            }
            Append => {
                let (Some(mut xs), Some(ys)) = (a.as_list(), b.as_ref().and_then(Value::as_list))
                else {
                    return Err(self.broken("@ on non-lists"));
                };
                xs.extend(ys);
                Ok(Value::list(xs))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ConTag, Ir, IrDec, IrPat, IrRule};

    fn run(ir: Ir) -> Value {
        execute(&ir, &[]).unwrap()
    }

    fn int(n: i64) -> Ir {
        Ir::Int(n)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            run(Ir::Prim(PrimOp::Add, vec![int(2), int(3)])),
            Value::Int(5)
        );
        assert_eq!(
            run(Ir::Prim(PrimOp::Mul, vec![int(4), int(5)])),
            Value::Int(20)
        );
        assert_eq!(run(Ir::Prim(PrimOp::Neg, vec![int(7)])), Value::Int(-7));
        assert_eq!(
            run(Ir::Prim(PrimOp::Mod, vec![int(7), int(3)])),
            Value::Int(1)
        );
    }

    #[test]
    fn division_by_zero_raises_div() {
        let err = execute(&Ir::Prim(PrimOp::Div, vec![int(1), int(0)]), &[]).unwrap_err();
        assert!(matches!(err, EvalError::UncaughtException(ref m) if m.contains("Div")));
    }

    #[test]
    fn closures_and_application() {
        // (fn x => x + 1) 41
        let f = Ir::Fn(vec![IrRule {
            pat: IrPat::Var(0),
            body: Ir::Prim(PrimOp::Add, vec![Ir::Local(0), int(1)]),
        }]);
        assert_eq!(run(Ir::App(Box::new(f), Box::new(int(41)))), Value::Int(42));
    }

    #[test]
    fn let_and_select() {
        // let val t = (1, 2) in #2 t end
        let ir = Ir::Let(
            vec![IrDec::Val(IrPat::Var(0), Ir::Tuple(vec![int(1), int(2)]))],
            Box::new(Ir::Select(Box::new(Ir::Local(0)), 1)),
        );
        assert_eq!(run(ir), Value::Int(2));
    }

    #[test]
    fn recursion_via_fix() {
        // fun fact n = if n = 0 then 1 else n * fact (n - 1); fact 6
        let fact_body = IrRule {
            pat: IrPat::Var(1),
            body: Ir::If(
                Box::new(Ir::Prim(PrimOp::Eq, vec![Ir::Local(1), int(0)])),
                Box::new(int(1)),
                Box::new(Ir::Prim(
                    PrimOp::Mul,
                    vec![
                        Ir::Local(1),
                        Ir::App(
                            Box::new(Ir::Local(0)),
                            Box::new(Ir::Prim(PrimOp::Sub, vec![Ir::Local(1), int(1)])),
                        ),
                    ],
                )),
            ),
        };
        let ir = Ir::Let(
            vec![IrDec::Fix(vec![(0, vec![fact_body])])],
            Box::new(Ir::App(Box::new(Ir::Local(0)), Box::new(int(6)))),
        );
        assert_eq!(run(ir), Value::Int(720));
    }

    #[test]
    fn generative_exceptions_differ_per_execution() {
        // let exception E in E end — two executions yield packets with
        // different identities.
        let ir = Ir::Let(
            vec![IrDec::Exception {
                lvar: 0,
                name: Symbol::intern("E"),
                has_arg: false,
            }],
            Box::new(Ir::Local(0)),
        );
        let a = run(ir.clone());
        let b = run(ir);
        let (Value::Exn(pa), Value::Exn(pb)) = (a, b) else {
            panic!()
        };
        assert!(!Rc::ptr_eq(&pa.con, &pb.con));
    }

    #[test]
    fn handle_catches_matching_exception_only() {
        // let exception A; exception B in (raise A) handle B => 1 | A => 2 end
        let ir = Ir::Let(
            vec![
                IrDec::Exception {
                    lvar: 0,
                    name: Symbol::intern("A"),
                    has_arg: false,
                },
                IrDec::Exception {
                    lvar: 1,
                    name: Symbol::intern("B"),
                    has_arg: false,
                },
            ],
            Box::new(Ir::Handle(
                Box::new(Ir::Raise(Box::new(Ir::Local(0)))),
                vec![
                    IrRule {
                        pat: IrPat::Exn(Box::new(Ir::Local(1)), None),
                        body: int(1),
                    },
                    IrRule {
                        pat: IrPat::Exn(Box::new(Ir::Local(0)), None),
                        body: int(2),
                    },
                ],
            )),
        );
        assert_eq!(run(ir), Value::Int(2));
    }

    #[test]
    fn unhandled_exception_re_raises() {
        let ir = Ir::Let(
            vec![
                IrDec::Exception {
                    lvar: 0,
                    name: Symbol::intern("A"),
                    has_arg: false,
                },
                IrDec::Exception {
                    lvar: 1,
                    name: Symbol::intern("B"),
                    has_arg: false,
                },
            ],
            Box::new(Ir::Handle(
                Box::new(Ir::Raise(Box::new(Ir::Local(0)))),
                vec![IrRule {
                    pat: IrPat::Exn(Box::new(Ir::Local(1)), None),
                    body: int(1),
                }],
            )),
        );
        let err = execute(&ir, &[]).unwrap_err();
        assert!(matches!(err, EvalError::UncaughtException(ref m) if m.contains('A')));
    }

    #[test]
    fn exception_with_argument() {
        // let exception E of int in (raise E 7) handle E n => n end
        let ir = Ir::Let(
            vec![IrDec::Exception {
                lvar: 0,
                name: Symbol::intern("E"),
                has_arg: true,
            }],
            Box::new(Ir::Handle(
                Box::new(Ir::Raise(Box::new(Ir::App(
                    Box::new(Ir::Local(0)),
                    Box::new(int(7)),
                )))),
                vec![IrRule {
                    pat: IrPat::Exn(Box::new(Ir::Local(0)), Some(Box::new(IrPat::Var(1)))),
                    body: Ir::Local(1),
                }],
            )),
        );
        assert_eq!(run(ir), Value::Int(7));
    }

    #[test]
    fn case_match_failure_raises_match() {
        let ir = Ir::Case(
            Box::new(int(5)),
            vec![IrRule {
                pat: IrPat::Int(3),
                body: int(0),
            }],
        );
        let err = execute(&ir, &[]).unwrap_err();
        assert!(matches!(err, EvalError::UncaughtException(ref m) if m.contains("Match")));
    }

    #[test]
    fn val_bind_failure_raises_bind() {
        let ir = Ir::Let(vec![IrDec::Val(IrPat::Int(1), int(2))], Box::new(int(0)));
        let err = execute(&ir, &[]).unwrap_err();
        assert!(matches!(err, EvalError::UncaughtException(ref m) if m.contains("Bind")));
    }

    #[test]
    fn constructor_values_and_patterns() {
        let some = ConTag {
            tag: 1,
            span: 2,
            has_arg: true,
            name: Symbol::intern("SOME"),
        };
        let none = ConTag {
            tag: 0,
            span: 2,
            has_arg: false,
            name: Symbol::intern("NONE"),
        };
        // case SOME 3 of NONE => 0 | SOME x => x
        let ir = Ir::Case(
            Box::new(Ir::Con(some, Some(Box::new(int(3))))),
            vec![
                IrRule {
                    pat: IrPat::Con(none, None),
                    body: int(0),
                },
                IrRule {
                    pat: IrPat::Con(some, Some(Box::new(IrPat::Var(0)))),
                    body: Ir::Local(0),
                },
            ],
        );
        assert_eq!(run(ir), Value::Int(3));
    }

    #[test]
    fn confn_is_first_class() {
        let some = ConTag {
            tag: 1,
            span: 2,
            has_arg: true,
            name: Symbol::intern("SOME"),
        };
        let ir = Ir::App(Box::new(Ir::ConFn(some)), Box::new(int(9)));
        let Value::Data { arg: Some(a), .. } = run(ir) else {
            panic!()
        };
        assert_eq!(*a, Value::Int(9));
    }

    #[test]
    fn imports_are_visible() {
        let rec = Value::Record(Rc::new(vec![Value::Int(10), Value::Int(20)]));
        let ir = Ir::Select(Box::new(Ir::Import(0)), 1);
        assert_eq!(execute(&ir, &[rec]).unwrap(), Value::Int(20));
    }

    #[test]
    fn missing_import_is_malformed() {
        let err = execute(&Ir::Import(3), &[]).unwrap_err();
        assert!(matches!(err, EvalError::Malformed(_)));
    }

    #[test]
    fn functor_application_reexecutes_body() {
        // functor F(X) = struct exception E end — two applications give
        // distinct exceptions.
        let fct = Ir::Functor {
            param: 0,
            body: Box::new(Ir::Let(
                vec![IrDec::Exception {
                    lvar: 1,
                    name: Symbol::intern("E"),
                    has_arg: false,
                }],
                Box::new(Ir::Record(vec![Ir::Local(1)])),
            )),
        };
        let ir = Ir::Let(
            vec![IrDec::Val(IrPat::Var(2), fct)],
            Box::new(Ir::Tuple(vec![
                Ir::Select(
                    Box::new(Ir::App(
                        Box::new(Ir::Local(2)),
                        Box::new(Ir::Record(vec![])),
                    )),
                    0,
                ),
                Ir::Select(
                    Box::new(Ir::App(
                        Box::new(Ir::Local(2)),
                        Box::new(Ir::Record(vec![])),
                    )),
                    0,
                ),
            ])),
        );
        let Value::Tuple(pair) = run(ir) else {
            panic!()
        };
        let (Value::Exn(a), Value::Exn(b)) = (&pair[0], &pair[1]) else {
            panic!()
        };
        assert!(!Rc::ptr_eq(&a.con, &b.con));
    }

    #[test]
    fn andalso_equivalent_if_shortcircuits() {
        // if false then diverge else 0 — uses If directly.
        let diverge = Ir::Prim(PrimOp::Div, vec![int(1), int(0)]);
        let ir = Ir::If(
            Box::new(Ir::Prim(PrimOp::Lt, vec![int(2), int(1)])),
            Box::new(diverge),
            Box::new(int(0)),
        );
        assert_eq!(run(ir), Value::Int(0));
    }

    #[test]
    fn string_ops() {
        assert_eq!(
            run(Ir::Prim(
                PrimOp::Concat,
                vec![Ir::Str("ab".into()), Ir::Str("cd".into())]
            )),
            Value::Str("abcd".into())
        );
        assert_eq!(
            run(Ir::Prim(
                PrimOp::Lt,
                vec![Ir::Str("a".into()), Ir::Str("b".into())]
            )),
            Value::bool(true)
        );
    }

    #[test]
    fn append_lists() {
        let l1 = Ir::Prim(PrimOp::Append, vec![list_ir(&[1, 2]), list_ir(&[3])]);
        assert_eq!(
            run(l1),
            Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    fn list_ir(items: &[i64]) -> Ir {
        let nil = ConTag {
            tag: 0,
            span: 2,
            has_arg: false,
            name: Symbol::intern("nil"),
        };
        let cons = ConTag {
            tag: 1,
            span: 2,
            has_arg: true,
            name: Symbol::intern("::"),
        };
        items.iter().rev().fold(Ir::Con(nil, None), |acc, &n| {
            Ir::Con(cons, Some(Box::new(Ir::Tuple(vec![Ir::Int(n), acc]))))
        })
    }

    #[test]
    fn euclidean_div_mod() {
        // SML div/mod round toward negative infinity.
        assert_eq!(
            run(Ir::Prim(PrimOp::Div, vec![int(-7), int(2)])),
            Value::Int(-4)
        );
        assert_eq!(
            run(Ir::Prim(PrimOp::Mod, vec![int(-7), int(2)])),
            Value::Int(1)
        );
    }
}
