//! Runtime values.

use std::fmt;
use std::rc::Rc;

use smlsc_ids::Symbol;

use crate::ir::{ConTag, IrRule, LVar};

/// A runtime value.
///
/// Module-level entities have runtime representations too: a structure is
/// a [`Value::Record`] whose slot layout was fixed by the elaborator, and
/// a functor is a [`Value::Functor`] closure — the paper's point that in
/// ML "linking" is ordinary function application over export records.
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// String.
    Str(Rc<str>),
    /// The unit value.
    Unit,
    /// Tuple.
    Tuple(Rc<Vec<Value>>),
    /// Structure record (positional module representation).
    Record(Rc<Vec<Value>>),
    /// Datatype value: constructor tag plus optional argument.
    Data {
        /// The constructor.
        con: ConTag,
        /// Its argument, if the constructor takes one.
        arg: Option<Rc<Value>>,
    },
    /// A function closure.
    Closure(Rc<Closure>),
    /// A functor closure.
    Functor(Rc<FunctorClosure>),
    /// An exception constructor that takes an argument (applying it yields
    /// an [`Value::Exn`] packet).
    ExnCon(Rc<ExnId>),
    /// An exception packet (also the value of a nullary exception
    /// constructor).
    Exn(Rc<ExnPacket>),
}

/// A function closure: match rules plus captured environment.
///
/// The environment cell is a `RefCell` so that `Fix` groups can tie the
/// recursion knot after allocating every closure in the group.  `Debug`
/// elides the environment: recursive groups make it cyclic.
pub struct Closure {
    /// The function's match rules.
    pub rules: Vec<IrRule>,
    /// Captured environment (patched once for recursive groups).
    pub env: std::cell::RefCell<Env>,
}

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Closure({} rules)", self.rules.len())
    }
}

/// A functor closure.  `Debug` elides the captured environment.
pub struct FunctorClosure {
    /// lvar bound to the argument record.
    pub param: LVar,
    /// The functor body.
    pub body: crate::ir::Ir,
    /// Captured environment.
    pub env: Env,
}

impl fmt::Debug for FunctorClosure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FunctorClosure(param {})", self.param)
    }
}

/// The generative identity of an exception constructor.
///
/// A fresh `ExnId` is allocated every time an `exception` declaration
/// *executes* — so a functor body's exceptions are distinct per
/// application, and re-executing a unit re-generates its exceptions.
/// The identity is the allocation itself: constructors compare with
/// `Rc::ptr_eq`, so no counter is shared between threads.
#[derive(Debug)]
pub struct ExnId {
    /// Source name, for printing.
    pub name: Symbol,
    /// Whether the constructor carries an argument.
    pub has_arg: bool,
}

/// An exception packet: identity plus optional argument value.
#[derive(Debug)]
pub struct ExnPacket {
    /// The constructor's identity.
    pub con: Rc<ExnId>,
    /// The carried argument, if any.
    pub arg: Option<Value>,
}

/// The runtime environment: a persistent association list from lvars to
/// values.  Persistence is what lets closures capture it by reference.
pub type Env = Option<Rc<EnvNode>>;

/// One binding in the environment chain.
#[derive(Debug)]
pub struct EnvNode {
    /// The bound variable.
    pub lvar: LVar,
    /// Its value.
    pub value: Value,
    /// The rest of the environment.
    pub next: Env,
}

/// Extends `env` with a binding.
pub fn bind(env: &Env, lvar: LVar, value: Value) -> Env {
    Some(Rc::new(EnvNode {
        lvar,
        value,
        next: env.clone(),
    }))
}

/// Looks up an lvar.
pub fn lookup(env: &Env, lvar: LVar) -> Option<Value> {
    let mut cur = env;
    while let Some(node) = cur {
        if node.lvar == lvar {
            return Some(node.value.clone());
        }
        cur = &node.next;
    }
    None
}

impl Value {
    /// The runtime `true` value (bool is the pervasive two-constructor
    /// datatype with `false` = tag 0, `true` = tag 1).
    pub fn bool(b: bool) -> Value {
        Value::Data {
            con: ConTag {
                tag: u32::from(b),
                span: 2,
                has_arg: false,
                name: Symbol::intern(if b { "true" } else { "false" }),
            },
            arg: None,
        }
    }

    /// Interprets a runtime bool; `None` if the value is not a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Data { con, arg: None } if con.span == 2 => Some(con.tag == 1),
            _ => None,
        }
    }

    /// Builds an SML list value from values.
    pub fn list(items: Vec<Value>) -> Value {
        let nil = Value::Data {
            con: ConTag {
                tag: 0,
                span: 2,
                has_arg: false,
                name: Symbol::intern("nil"),
            },
            arg: None,
        };
        items.into_iter().rev().fold(nil, |acc, v| Value::Data {
            con: ConTag {
                tag: 1,
                span: 2,
                has_arg: true,
                name: Symbol::intern("::"),
            },
            arg: Some(Rc::new(Value::Tuple(Rc::new(vec![v, acc])))),
        })
    }

    /// Interprets a runtime list; `None` if the value is not a list.
    pub fn as_list(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Data { con, arg: None } if con.tag == 0 => return Some(out),
                Value::Data {
                    con,
                    arg: Some(cell),
                } if con.tag == 1 => match cell.as_ref() {
                    Value::Tuple(pair) if pair.len() == 2 => {
                        out.push(pair[0].clone());
                        cur = pair[1].clone();
                    }
                    _ => return None,
                },
                _ => return None,
            }
        }
    }

    /// Structural equality as implemented by the `=` primitive.
    ///
    /// Functions, functors and exception constructors are incomparable
    /// (returns `None`), mirroring SML's equality-type restriction
    /// dynamically.
    pub fn structural_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a == b),
            (Value::Str(a), Value::Str(b)) => Some(a == b),
            (Value::Unit, Value::Unit) => Some(true),
            (Value::Tuple(a), Value::Tuple(b)) | (Value::Record(a), Value::Record(b)) => {
                if a.len() != b.len() {
                    return Some(false);
                }
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.structural_eq(y) {
                        Some(true) => {}
                        other => return other,
                    }
                }
                Some(true)
            }
            (Value::Data { con: c1, arg: a1 }, Value::Data { con: c2, arg: a2 }) => {
                if c1.tag != c2.tag {
                    return Some(false);
                }
                match (a1, a2) {
                    (None, None) => Some(true),
                    (Some(x), Some(y)) => x.structural_eq(y),
                    _ => Some(false),
                }
            }
            (Value::Exn(a), Value::Exn(b)) => Some(Rc::ptr_eq(&a.con, &b.con)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    /// Structural equality where defined; closures compare unequal.
    fn eq(&self, other: &Value) -> bool {
        self.structural_eq(other).unwrap_or(false)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => {
                if *n < 0 {
                    write!(f, "~{}", -n)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Unit => write!(f, "()"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Record(vs) => write!(f, "<structure with {} slots>", vs.len()),
            Value::Data { con, arg } => {
                if let Some(items) = self.as_list() {
                    write!(f, "[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    return write!(f, "]");
                }
                match arg {
                    None => write!(f, "{}", con.name),
                    Some(a) => write!(f, "{} {}", con.name, a),
                }
            }
            Value::Closure(_) => write!(f, "fn"),
            Value::Functor(_) => write!(f, "functor"),
            Value::ExnCon(id) => write!(f, "exn {}", id.name),
            Value::Exn(p) => match &p.arg {
                None => write!(f, "exception {}", p.con.name),
                Some(a) => write!(f, "exception {} {}", p.con.name, a),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_round_trip() {
        assert_eq!(Value::bool(true).as_bool(), Some(true));
        assert_eq!(Value::bool(false).as_bool(), Some(false));
        assert_eq!(Value::Int(1).as_bool(), None);
    }

    #[test]
    fn list_round_trip() {
        let v = Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let back = v.as_list().unwrap();
        assert_eq!(back, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(v.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn structural_equality() {
        let a = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Str("x".into())]));
        let b = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Str("x".into())]));
        assert_eq!(a.structural_eq(&b), Some(true));
        let c = Value::Tuple(Rc::new(vec![Value::Int(2), Value::Str("x".into())]));
        assert_eq!(a.structural_eq(&c), Some(false));
    }

    #[test]
    fn env_lookup_finds_most_recent() {
        let env = bind(&None, 1, Value::Int(10));
        let env = bind(&env, 1, Value::Int(20));
        assert_eq!(lookup(&env, 1), Some(Value::Int(20)));
        assert_eq!(lookup(&env, 2), None);
    }

    #[test]
    fn negative_int_prints_sml_style() {
        assert_eq!(Value::Int(-5).to_string(), "~5");
    }
}
