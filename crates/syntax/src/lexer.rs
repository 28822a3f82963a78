//! Lexer for mini-SML.
//!
//! Handles nested `(* ... *)` comments, string escapes, `'a`-style type
//! variables, alphanumeric and symbolic identifiers, and the keyword set of
//! the supported subset.  Every token carries its source [`Loc`].

use std::fmt;

use smlsc_ids::Symbol;

use crate::Loc;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Alphanumeric identifier (may be a module or value name).
    Ident(Symbol),
    /// Type variable `'a`.
    TyVar(Symbol),
    /// Integer literal (already negated if written with `~`).
    Int(i64),
    /// String literal (escapes resolved).
    Str(String),
    // Keywords.
    /// `and`
    And,
    /// `as`
    As,
    /// `andalso`
    Andalso,
    /// `case`
    Case,
    /// `datatype`
    Datatype,
    /// `div`
    Div,
    /// `else`
    Else,
    /// `end`
    End,
    /// `exception`
    Exception,
    /// `fn`
    Fn,
    /// `fun`
    Fun,
    /// `functor`
    Functor,
    /// `handle`
    Handle,
    /// `if`
    If,
    /// `in`
    In,
    /// `include`
    Include,
    /// `let`
    Let,
    /// `local`
    Local,
    /// `mod`
    Mod,
    /// `of`
    Of,
    /// `open`
    Open,
    /// `orelse`
    Orelse,
    /// `raise`
    Raise,
    /// `sig`
    Sig,
    /// `signature`
    Signature,
    /// `struct`
    Struct,
    /// `structure`
    Structure,
    /// `then`
    Then,
    /// `type`
    Type,
    /// `val`
    Val,
    /// `where`
    Where,
    // Punctuation & symbolic operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `:>`
    ColonGt,
    /// `=`
    Eq,
    /// `=>`
    FatArrow,
    /// `->`
    Arrow,
    /// `|`
    Bar,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/` (unsupported in the subset but lexed for better errors)
    Slash,
    /// `^`
    Caret,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>`
    Neq,
    /// `::`
    Cons,
    /// `@`
    At,
    /// `~` (unary negation)
    Tilde,
    /// `_`
    Underscore,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::TyVar(s) => write!(f, "type variable `'{s}`"),
            Tok::Int(n) => write!(f, "integer `{n}`"),
            Tok::Str(_) => write!(f, "string literal"),
            Tok::Eof => write!(f, "end of input"),
            other => {
                let s = match other {
                    Tok::And => "and",
                    Tok::As => "as",
                    Tok::Andalso => "andalso",
                    Tok::Case => "case",
                    Tok::Datatype => "datatype",
                    Tok::Div => "div",
                    Tok::Else => "else",
                    Tok::End => "end",
                    Tok::Exception => "exception",
                    Tok::Fn => "fn",
                    Tok::Fun => "fun",
                    Tok::Functor => "functor",
                    Tok::Handle => "handle",
                    Tok::If => "if",
                    Tok::In => "in",
                    Tok::Include => "include",
                    Tok::Let => "let",
                    Tok::Local => "local",
                    Tok::Mod => "mod",
                    Tok::Of => "of",
                    Tok::Open => "open",
                    Tok::Orelse => "orelse",
                    Tok::Raise => "raise",
                    Tok::Sig => "sig",
                    Tok::Signature => "signature",
                    Tok::Struct => "struct",
                    Tok::Structure => "structure",
                    Tok::Then => "then",
                    Tok::Type => "type",
                    Tok::Val => "val",
                    Tok::Where => "where",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::Comma => ",",
                    Tok::Semi => ";",
                    Tok::Dot => ".",
                    Tok::Colon => ":",
                    Tok::ColonGt => ":>",
                    Tok::Eq => "=",
                    Tok::FatArrow => "=>",
                    Tok::Arrow => "->",
                    Tok::Bar => "|",
                    Tok::Star => "*",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::Slash => "/",
                    Tok::Caret => "^",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::Neq => "<>",
                    Tok::Cons => "::",
                    Tok::At => "@",
                    Tok::Tilde => "~",
                    Tok::Underscore => "_",
                    _ => unreachable!(),
                };
                write!(f, "`{s}`")
            }
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub loc: Loc,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub loc: Loc,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lexical error at {}: {}", self.loc, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, ending with a [`Tok::Eof`] token.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated comments or strings, malformed
/// escapes, integer overflow, or characters outside the subset.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, LexError> {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    chars: std::str::Chars<'s>,
    line: u32,
    col: u32,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Lexer<'s> {
        Lexer {
            chars: src.chars(),
            line: 1,
            col: 1,
        }
    }

    fn loc(&self) -> Loc {
        Loc {
            line: self.line,
            col: self.col,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.chars.clone().next()
    }

    /// Consumes the longest run of characters satisfying `keep` and
    /// returns it as a slice of the source.
    fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'s str {
        let rest = self.chars.as_str();
        while self.peek().is_some_and(&keep) {
            self.bump();
        }
        &rest[..rest.len() - self.chars.as_str().len()]
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            loc: self.loc(),
        }
    }

    fn run(mut self) -> Result<Vec<SpannedTok>, LexError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let loc = self.loc();
            let Some(c) = self.peek() else {
                out.push(SpannedTok { tok: Tok::Eof, loc });
                return Ok(out);
            };
            let tok = match c {
                'a'..='z' | 'A'..='Z' => self.ident(),
                '\'' => self.tyvar()?,
                '0'..='9' => self.int(false)?,
                '~' => {
                    self.bump();
                    if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        self.int(true)?
                    } else {
                        Tok::Tilde
                    }
                }
                '"' => self.string()?,
                '_' => {
                    self.bump();
                    Tok::Underscore
                }
                '(' => {
                    self.bump();
                    Tok::LParen
                }
                ')' => {
                    self.bump();
                    Tok::RParen
                }
                '[' => {
                    self.bump();
                    Tok::LBracket
                }
                ']' => {
                    self.bump();
                    Tok::RBracket
                }
                ',' => {
                    self.bump();
                    Tok::Comma
                }
                ';' => {
                    self.bump();
                    Tok::Semi
                }
                '.' => {
                    self.bump();
                    Tok::Dot
                }
                ':' => {
                    self.bump();
                    match self.peek() {
                        Some('>') => {
                            self.bump();
                            Tok::ColonGt
                        }
                        Some(':') => {
                            self.bump();
                            Tok::Cons
                        }
                        _ => Tok::Colon,
                    }
                }
                '=' => {
                    self.bump();
                    if self.peek() == Some('>') {
                        self.bump();
                        Tok::FatArrow
                    } else {
                        Tok::Eq
                    }
                }
                '-' => {
                    self.bump();
                    if self.peek() == Some('>') {
                        self.bump();
                        Tok::Arrow
                    } else {
                        Tok::Minus
                    }
                }
                '|' => {
                    self.bump();
                    Tok::Bar
                }
                '*' => {
                    self.bump();
                    Tok::Star
                }
                '+' => {
                    self.bump();
                    Tok::Plus
                }
                '/' => {
                    self.bump();
                    Tok::Slash
                }
                '^' => {
                    self.bump();
                    Tok::Caret
                }
                '@' => {
                    self.bump();
                    Tok::At
                }
                '<' => {
                    self.bump();
                    match self.peek() {
                        Some('=') => {
                            self.bump();
                            Tok::Le
                        }
                        Some('>') => {
                            self.bump();
                            Tok::Neq
                        }
                        _ => Tok::Lt,
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Tok::Ge
                    } else {
                        Tok::Gt
                    }
                }
                other => return Err(self.err(format!("unexpected character {other:?}"))),
            };
            out.push(SpannedTok { tok, loc });
        }
    }

    /// Skips whitespace and (nested) comments.
    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('(') if self.chars.as_str().starts_with("(*") => {
                    self.bump();
                    self.bump();
                    self.skip_comment()?;
                }
                _ => return Ok(()),
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), LexError> {
        let mut depth = 1u32;
        while depth > 0 {
            match self.bump() {
                None => return Err(self.err("unterminated comment")),
                Some('(') if self.peek() == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek() == Some(')') => {
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn ident(&mut self) -> Tok {
        let s = self.take_while(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'');
        match s {
            "and" => Tok::And,
            "as" => Tok::As,
            "andalso" => Tok::Andalso,
            "case" => Tok::Case,
            "datatype" => Tok::Datatype,
            "div" => Tok::Div,
            "else" => Tok::Else,
            "end" => Tok::End,
            "exception" => Tok::Exception,
            "fn" => Tok::Fn,
            "fun" => Tok::Fun,
            "functor" => Tok::Functor,
            "handle" => Tok::Handle,
            "if" => Tok::If,
            "in" => Tok::In,
            "include" => Tok::Include,
            "let" => Tok::Let,
            "local" => Tok::Local,
            "mod" => Tok::Mod,
            "of" => Tok::Of,
            "open" => Tok::Open,
            "orelse" => Tok::Orelse,
            "raise" => Tok::Raise,
            "sig" => Tok::Sig,
            "signature" => Tok::Signature,
            "struct" => Tok::Struct,
            "structure" => Tok::Structure,
            "then" => Tok::Then,
            "type" => Tok::Type,
            "val" => Tok::Val,
            "where" => Tok::Where,
            _ => Tok::Ident(Symbol::intern(s)),
        }
    }

    fn tyvar(&mut self) -> Result<Tok, LexError> {
        self.bump(); // '
        let s = self.take_while(|c| c.is_ascii_alphanumeric() || c == '_');
        if s.is_empty() {
            return Err(self.err("expected a type variable name after `'`"));
        }
        Ok(Tok::TyVar(Symbol::intern(s)))
    }

    fn int(&mut self, negate: bool) -> Result<Tok, LexError> {
        let mut v: i64 = 0;
        while let Some(c) = self.peek() {
            if let Some(d) = c.to_digit(10) {
                self.bump();
                v = v
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(i64::from(d)))
                    .ok_or_else(|| self.err("integer literal overflows 64 bits"))?;
            } else {
                break;
            }
        }
        Ok(Tok::Int(if negate { -v } else { v }))
    }

    fn string(&mut self) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some('"') => return Ok(Tok::Str(s)),
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('\\') => s.push('\\'),
                    Some('"') => s.push('"'),
                    other => return Err(self.err(format!("unsupported string escape {other:?}"))),
                },
                Some('\n') => return Err(self.err("newline in string literal")),
                Some(c) => s.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("val x = fn"),
            vec![
                Tok::Val,
                Tok::Ident(Symbol::intern("x")),
                Tok::Eq,
                Tok::Fn,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn symbolic_tokens() {
        assert_eq!(
            toks(":> :: : => = -> <> <= >="),
            vec![
                Tok::ColonGt,
                Tok::Cons,
                Tok::Colon,
                Tok::FatArrow,
                Tok::Eq,
                Tok::Arrow,
                Tok::Neq,
                Tok::Le,
                Tok::Ge,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn nested_comments() {
        assert_eq!(
            toks("a (* outer (* inner *) still *) b"),
            vec![
                Tok::Ident(Symbol::intern("a")),
                Tok::Ident(Symbol::intern("b")),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn negative_ints_and_tilde() {
        assert_eq!(toks("~3"), vec![Tok::Int(-3), Tok::Eof]);
        assert_eq!(
            toks("~x"),
            vec![Tok::Tilde, Tok::Ident(Symbol::intern("x")), Tok::Eof]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""a\nb\"c""#),
            vec![Tok::Str("a\nb\"c".into()), Tok::Eof]
        );
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn tyvars() {
        assert_eq!(
            toks("'a 'elem"),
            vec![
                Tok::TyVar(Symbol::intern("a")),
                Tok::TyVar(Symbol::intern("elem")),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn locations_are_tracked() {
        let ts = lex("val\n  x").unwrap();
        assert_eq!(ts[0].loc, Loc { line: 1, col: 1 });
        assert_eq!(ts[1].loc, Loc { line: 2, col: 3 });
    }

    #[test]
    fn primes_allowed_in_idents() {
        assert_eq!(
            toks("x' f'' y_1"),
            vec![
                Tok::Ident(Symbol::intern("x'")),
                Tok::Ident(Symbol::intern("f''")),
                Tok::Ident(Symbol::intern("y_1")),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn int_overflow_is_error() {
        assert!(lex("99999999999999999999999").is_err());
    }
}
