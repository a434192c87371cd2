//! A small text format for incomplete databases.
//!
//! ```text
//! # products bought from supplier 1 (intro example of the paper)
//! R1(c1, _p1).
//! R1(c2, _p1).
//! R1(c2, _p2).
//! R2(c1, _p2). R2(c2, _p1). R2(_c, _p1).
//! ```
//!
//! * `Name(arg, …, arg)` inserts a tuple into relation `Name`;
//! * arguments are constants (identifiers or integers), named nulls
//!   (`_name`, with the same name denoting the same null within one
//!   parse), or anonymous nulls (`_`);
//! * statements end with an optional `.`;
//! * `#` and `--` start comments running to the end of the line.

use crate::database::Database;
use crate::tuple::Tuple;
use crate::value::{Cst, NullId, Symbol, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Result of parsing: the database plus the named nulls it minted.
#[derive(Debug, Clone)]
pub struct ParsedDb {
    /// The parsed database.
    pub db: Database,
    /// Map from null names (without the leading `_`) to their ids.
    pub nulls: BTreeMap<String, NullId>,
}

/// One argument of a fact, or of an answer tuple. A constant is an
/// identifier or an integer, so it never reads like a null or a
/// reserved fresh constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Arg {
    /// An identifier or integer constant.
    Const(Cst),
    /// A null by its name without the `_`; `""` is the anonymous `_`.
    Null(String),
}

struct Scanner<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Scanner<'a> {
    fn new(src: &'a str) -> Scanner<'a> {
        Scanner { src: src.as_bytes(), pos: 0, line: 1, col: 1 }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, col: self.col, message: message.into() }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.bump();
                    }
                }
                Some(b'-') if self.src.get(self.pos + 1) == Some(&b'-') => {
                    while self.peek().is_some_and(|b| b != b'\n') {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                self.bump();
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                // Integer constant, possibly negative.
                self.bump();
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                if text == "-" {
                    return Err(self.error("expected digits after '-'"));
                }
                return Ok(text.to_string());
            }
            _ => return Err(self.error("expected an identifier or number")),
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'')
        {
            self.bump();
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos]).unwrap().to_string())
    }

    /// A parenthesized, possibly empty argument list.
    fn args(&mut self) -> Result<Vec<Arg>, ParseError> {
        self.expect(b'(')?;
        let mut args = Vec::new();
        self.skip_trivia();
        if self.peek() == Some(b')') {
            self.bump();
            return Ok(args);
        }
        loop {
            self.skip_trivia();
            let text = self.ident()?;
            args.push(match text.strip_prefix('_') {
                Some(name) => Arg::Null(name.to_string()),
                None => Arg::Const(Cst::try_new(&text).map_err(|e| self.error(e))?),
            });
            self.skip_trivia();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b')') => {
                    self.bump();
                    return Ok(args);
                }
                _ => return Err(self.error("expected ',' or ')'")),
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_trivia();
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", b as char)))
        }
    }
}

/// Parse the text format into a database.
pub fn parse_database(src: &str) -> Result<ParsedDb, ParseError> {
    parse_database_with(src, &BTreeMap::new())
}

/// [`parse_database`] continuing from `known` nulls: a null name in
/// `known` denotes its null there, and only other names mint a null.
/// [`ParsedDb::nulls`] lists the nulls the parse minted. Running out of
/// ids is a parse error, never a wrap.
pub fn parse_database_with(
    src: &str,
    known: &BTreeMap<String, NullId>,
) -> Result<ParsedDb, ParseError> {
    let mut s = Scanner::new(src);
    let mut db = Database::new();
    let mut nulls: BTreeMap<String, NullId> = BTreeMap::new();
    loop {
        s.skip_trivia();
        if s.peek().is_none() {
            break;
        }
        let rel = s.ident()?;
        if rel.starts_with('_') || rel.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return Err(s.error(format!("invalid relation name {rel:?}")));
        }
        let rel_sym = Symbol::try_intern(&rel).map_err(|e| s.error(e.to_string()))?;
        let mut values = Vec::new();
        for arg in s.args()? {
            let null = match arg {
                Arg::Const(c) => {
                    values.push(Value::Const(c));
                    continue;
                }
                Arg::Null(name) if name.is_empty() => NullId::try_fresh(),
                Arg::Null(name) => match known.get(&name).or_else(|| nulls.get(&name)) {
                    Some(&id) => Ok(id),
                    None => NullId::try_named(&name).inspect(|&id| {
                        nulls.insert(name, id);
                    }),
                },
            };
            values.push(Value::Null(null.map_err(|e| s.error(e.to_string()))?));
        }
        // Optional statement terminator.
        s.skip_trivia();
        if s.peek() == Some(b'.') {
            s.bump();
        }
        let arity = values.len();
        if let Some(existing) = db.relation_sym(rel_sym) {
            if existing.arity() != arity {
                return Err(s.error(format!(
                    "relation {rel} used with arity {arity}, previously {}",
                    existing.arity()
                )));
            }
        }
        db.insert(&rel, Tuple::new(values));
    }
    Ok(ParsedDb { db, nulls })
}

/// Parse an argument list `(arg, …, arg)` on its own, with exactly a
/// fact's argument grammar: an answer tuple like `(a, _x)`. Nulls stay
/// names; the caller resolves them.
pub fn parse_args(src: &str) -> Result<Vec<Arg>, ParseError> {
    let mut s = Scanner::new(src);
    s.skip_trivia();
    let args = s.args()?;
    s.skip_trivia();
    match s.peek() {
        None => Ok(args),
        Some(_) => Err(s.error("trailing input after ')'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::cst;

    #[test]
    fn parses_the_intro_example() {
        let p = parse_database(
            "# intro example
             R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
             R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
        )
        .unwrap();
        assert_eq!(p.db.relation("R1").unwrap().len(), 3);
        assert_eq!(p.db.relation("R2").unwrap().len(), 3);
        assert_eq!(p.nulls.len(), 3);
        assert_eq!(p.db.nulls().len(), 3);
        // _p1 is shared between R1 and R2.
        let p1 = p.nulls["p1"];
        assert!(p.db.relation("R1").unwrap().nulls().contains(&p1));
        assert!(p.db.relation("R2").unwrap().nulls().contains(&p1));
    }

    #[test]
    fn integers_and_empty_relations() {
        let p = parse_database("R(1, -2). U(3). Z()").unwrap();
        assert!(p.db.relation("R").unwrap().contains(&Tuple::new(vec![
            Value::Const(Cst::int(1)),
            Value::Const(Cst::int(-2)),
        ])));
        assert_eq!(p.db.relation("Z").unwrap().arity(), 0);
    }

    #[test]
    fn anonymous_nulls_are_distinct() {
        let p = parse_database("R(_, _)").unwrap();
        let t = p.db.relation("R").unwrap().iter().next().unwrap().clone();
        assert_ne!(t[0], t[1]);
    }

    #[test]
    fn named_nulls_are_shared() {
        let p = parse_database("R(_x, _x)").unwrap();
        let t = p.db.relation("R").unwrap().iter().next().unwrap().clone();
        assert_eq!(t[0], t[1]);
    }

    #[test]
    fn comments_both_styles() {
        let p = parse_database("-- line one\nR(a) # trailing\nS(b)").unwrap();
        assert_eq!(p.db.len(), 2);
        assert!(p.db.relation("S").unwrap().contains(&Tuple::new(vec![cst("b")])));
    }

    #[test]
    fn errors_have_positions() {
        let e = parse_database("R(a,,b)").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.col > 1);
        assert!(parse_database("R(a").is_err());
        assert!(parse_database("(a)").is_err());
        assert!(parse_database("R(a) R(a,b)").is_err(), "arity conflict");
    }

    #[test]
    fn answer_tuples_take_the_fact_argument_grammar() {
        let args = parse_args(" (a, _x, -2, _) ").unwrap();
        let want = [
            Arg::Const(Cst::new("a")),
            Arg::Null("x".into()),
            Arg::Const(Cst::int(-2)),
            Arg::Null(String::new()),
        ];
        assert_eq!(args, want);
        assert_eq!(parse_args("()").unwrap(), []);
        // Nothing but an identifier, an integer or a `_null` is a value:
        // a null's canonical name, a reserved fresh constant, an empty
        // component and trailing text are all refused.
        for bad in ["(?0)", "(~a)", "('a')", "(a,,b)", "(a,)", "(a) b", "a, b", "(1x)"] {
            assert!(parse_args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn separate_parses_get_distinct_nulls() {
        let p1 = parse_database("R(_x)").unwrap();
        let p2 = parse_database("R(_x)").unwrap();
        assert_ne!(p1.nulls["x"], p2.nulls["x"]);
    }
}
