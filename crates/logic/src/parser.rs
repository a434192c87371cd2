//! A text syntax for first-order queries.
//!
//! ```text
//! Q(x, y) := R1(x, y) & !R2(x, y)
//! D2(x)   := exists y. E('c', y) & E(y, x)
//! Sat     := forall x. U(x) -> (R(x) & !S(x))
//! ```
//!
//! * the head names the query and lists its free variables; a head
//!   without parentheses declares a Boolean query;
//! * connectives: `!` (not), `&` (and), `|` (or), `->` (implies,
//!   right-associative), `=` and `!=` on terms;
//! * `exists x, y. φ` and `forall x, y. φ` scope as far right as
//!   possible at their nesting level;
//! * an identifier in term position is a *variable* if it is bound (by
//!   the head or a quantifier) and a *constant* otherwise; quoted
//!   identifiers (`'c'`) and numbers are always constants.
//!
//! The parser also reads the syntax a [`Query`] renders to, so that
//! `parse_query(&q.to_string())` gives `q` back for every `q` it
//! returns:
//!
//! ```text
//! D2(x) := ∃y ((E('c', y) ∧ E(y, x)))
//! Sat() := ∀x ((¬(U(x)) ∨ (R(x) ∧ ¬(S(x)))))
//! ```
//!
//! `∧`, `∨` and `¬` are `&`, `|` and `!`; `∃x,y (φ)` and `∀x,y (φ)`
//! take the parenthesized formula after their variables as the whole
//! body, so they bind like an atom.

use crate::ast::{Atom, Formula, Query, Term};
use caz_idb::parser::ParseError;
use caz_idb::{Cst, Symbol};

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Quoted(String),
    Number(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Bang,
    Amp,
    Pipe,
    Arrow,
    Define,
    Eq,
    Neq,
    Exists,
    Forall,
    Eof,
}

struct Lexer {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
}

fn lex(src: &str) -> Result<Lexer, ParseError> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let (mut i, mut line, mut col) = (0usize, 1usize, 1usize);
    let err = |line, col, m: &str| ParseError { line, col, message: m.to_string() };
    while i < bytes.len() {
        let (l, c) = (line, col);
        let b = bytes[i];
        let adv = |i: &mut usize, line: &mut usize, col: &mut usize| {
            if bytes[*i] == b'\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        };
        match b {
            b if b.is_ascii_whitespace() => adv(&mut i, &mut line, &mut col),
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    adv(&mut i, &mut line, &mut col);
                }
            }
            b'(' => {
                toks.push((Tok::LParen, l, c));
                adv(&mut i, &mut line, &mut col);
            }
            b')' => {
                toks.push((Tok::RParen, l, c));
                adv(&mut i, &mut line, &mut col);
            }
            b',' => {
                toks.push((Tok::Comma, l, c));
                adv(&mut i, &mut line, &mut col);
            }
            b'.' => {
                toks.push((Tok::Dot, l, c));
                adv(&mut i, &mut line, &mut col);
            }
            b'&' => {
                toks.push((Tok::Amp, l, c));
                adv(&mut i, &mut line, &mut col);
            }
            b'|' => {
                toks.push((Tok::Pipe, l, c));
                adv(&mut i, &mut line, &mut col);
            }
            b'=' => {
                toks.push((Tok::Eq, l, c));
                adv(&mut i, &mut line, &mut col);
            }
            b'!' => {
                adv(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == b'=' {
                    adv(&mut i, &mut line, &mut col);
                    toks.push((Tok::Neq, l, c));
                } else {
                    toks.push((Tok::Bang, l, c));
                }
            }
            b'-' => {
                adv(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == b'>' {
                    adv(&mut i, &mut line, &mut col);
                    toks.push((Tok::Arrow, l, c));
                } else if i < bytes.len() && bytes[i].is_ascii_digit() {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        adv(&mut i, &mut line, &mut col);
                    }
                    toks.push((
                        Tok::Number(format!("-{}", &src[start..i])),
                        l,
                        c,
                    ));
                } else {
                    return Err(err(l, c, "expected '->' or a negative number"));
                }
            }
            b':' => {
                adv(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == b'=' {
                    adv(&mut i, &mut line, &mut col);
                    toks.push((Tok::Define, l, c));
                } else {
                    return Err(err(l, c, "expected ':='"));
                }
            }
            b'<' => {
                adv(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == b'-' {
                    adv(&mut i, &mut line, &mut col);
                    toks.push((Tok::Define, l, c));
                } else {
                    return Err(err(l, c, "expected '<-'"));
                }
            }
            b'\'' => {
                adv(&mut i, &mut line, &mut col);
                let start = i;
                while i < bytes.len() && bytes[i] != b'\'' {
                    adv(&mut i, &mut line, &mut col);
                }
                if i >= bytes.len() {
                    return Err(err(l, c, "unterminated quoted constant"));
                }
                let text = src[start..i].to_string();
                adv(&mut i, &mut line, &mut col);
                toks.push((Tok::Quoted(text), l, c));
            }
            b if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    adv(&mut i, &mut line, &mut col);
                }
                toks.push((Tok::Number(src[start..i].to_string()), l, c));
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    // Don't swallow a quote: idents use only alnum and _.
                    if bytes[i] == b'\'' {
                        break;
                    }
                    adv(&mut i, &mut line, &mut col);
                }
                let word = &src[start..i];
                let tok = match word {
                    "exists" => Tok::Exists,
                    "forall" => Tok::Forall,
                    _ => Tok::Ident(word.to_string()),
                };
                toks.push((tok, l, c));
            }
            _ => {
                // The rendered syntax's connectives and quantifiers.
                let ch = src[i..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
                let tok = match ch {
                    '∃' => Tok::Exists,
                    '∀' => Tok::Forall,
                    '∧' => Tok::Amp,
                    '∨' => Tok::Pipe,
                    '¬' => Tok::Bang,
                    _ => return Err(err(l, c, &format!("unexpected character {ch:?}"))),
                };
                toks.push((tok, l, c));
                i += ch.len_utf8();
                col += 1;
            }
        }
    }
    toks.push((Tok::Eof, line, col));
    Ok(Lexer { toks, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, m: impl Into<String>) -> ParseError {
        let (_, line, col) = &self.toks[self.pos];
        ParseError { line: *line, col: *col, message: m.into() }
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<(), ParseError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }
}

struct Parser {
    lx: Lexer,
    scope: Vec<Symbol>,
}

impl Parser {
    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.lx.peek().clone() {
            Tok::Ident(s) => {
                self.lx.bump();
                Ok(s)
            }
            _ => Err(self.lx.error(format!("expected {what}"))),
        }
    }

    /// Intern a name from the query text; running out of ids is a parse
    /// error.
    fn symbol(&self, name: &str) -> Result<Symbol, ParseError> {
        Symbol::try_intern(name).map_err(|e| self.lx.error(e.to_string()))
    }

    fn quantifier(&mut self) -> Result<Formula, ParseError> {
        let is_exists = matches!(self.lx.bump(), Tok::Exists);
        let mut vars = Vec::new();
        // `exists x. φ`, or the rendered `∃x (φ)`.
        let parenthesized = loop {
            let name = self.ident("a quantified variable")?;
            vars.push(self.symbol(&name)?);
            match self.lx.peek() {
                Tok::Comma => {
                    self.lx.bump();
                }
                Tok::Dot => {
                    self.lx.bump();
                    break false;
                }
                Tok::LParen => {
                    self.lx.bump();
                    break true;
                }
                _ => return Err(self.lx.error("expected ',', '.' or '(' after variable")),
            }
        };
        let vars = exact(vars);
        let mark = self.scope.len();
        self.scope.extend(vars.iter().copied());
        let body = self.formula()?;
        if parenthesized {
            self.lx.expect(Tok::RParen, "')'")?;
        }
        self.scope.truncate(mark);
        Ok(if is_exists {
            Formula::Exists(vars, Box::new(body))
        } else {
            Formula::Forall(vars, Box::new(body))
        })
    }

    /// A formula: implications of disjunctions of conjunctions. A
    /// quantifier is parsed where a unary formula may stand: the client
    /// form's body extends as far right as it can, so nothing follows
    /// it, and the rendered form's body is parenthesized, so it may be
    /// followed by `∧`, `∨` or `->` like an atom.
    fn formula(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.disjunction()?;
        if *self.lx.peek() == Tok::Arrow {
            self.lx.bump();
            let rhs = self.formula()?;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn disjunction(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.conjunction()?];
        while *self.lx.peek() == Tok::Pipe {
            self.lx.bump();
            parts.push(self.conjunction()?);
        }
        Ok(if parts.len() == 1 { parts.pop().unwrap() } else { Formula::Or(exact(parts)) })
    }

    fn conjunction(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.unary()?];
        while *self.lx.peek() == Tok::Amp {
            self.lx.bump();
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 { parts.pop().unwrap() } else { Formula::And(exact(parts)) })
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.lx.peek().clone() {
            Tok::Bang => {
                self.lx.bump();
                Ok(Formula::not(self.unary()?))
            }
            Tok::LParen => {
                self.lx.bump();
                let f = self.formula()?;
                self.lx.expect(Tok::RParen, "')'")?;
                Ok(f)
            }
            Tok::Exists | Tok::Forall => self.quantifier(),
            Tok::Ident(name) => {
                if *self.lx.peek2() == Tok::LParen {
                    self.lx.bump();
                    self.atom(&name)
                } else {
                    self.equality()
                }
            }
            Tok::Quoted(_) | Tok::Number(_) => self.equality(),
            _ => Err(self.lx.error("expected a formula")),
        }
    }

    fn atom(&mut self, rel: &str) -> Result<Formula, ParseError> {
        self.lx.expect(Tok::LParen, "'('")?;
        let mut args = Vec::new();
        if *self.lx.peek() == Tok::RParen {
            self.lx.bump();
        } else {
            loop {
                args.push(self.term()?);
                match self.lx.bump() {
                    Tok::Comma => {}
                    Tok::RParen => break,
                    _ => return Err(self.lx.error("expected ',' or ')'")),
                }
            }
        }
        Ok(Formula::Atom(Atom { rel: self.symbol(rel)?, args: exact(args) }))
    }

    fn equality(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.term()?;
        match self.lx.bump() {
            Tok::Eq => Ok(Formula::Eq(lhs, self.term()?)),
            Tok::Neq => Ok(Formula::not(Formula::Eq(lhs, self.term()?))),
            _ => Err(self.lx.error("expected '=' or '!=' after term")),
        }
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        let name = match self.lx.bump() {
            Tok::Ident(name) => {
                let sym = self.symbol(&name)?;
                if self.scope.contains(&sym) {
                    return Ok(Term::Var(sym));
                }
                name
            }
            Tok::Quoted(name) | Tok::Number(name) => name,
            _ => return Err(self.lx.error("expected a term")),
        };
        Cst::try_new(&name).map(Term::Const).map_err(|e| self.lx.error(e))
    }
}

/// Parse a query definition `Name(vars) := formula` (or `Name := formula`
/// for a Boolean query).
pub fn parse_query(src: &str) -> Result<Query, ParseError> {
    let lx = lex(src)?;
    let mut p = Parser { lx, scope: Vec::new() };
    let name = p.ident("a query name")?;
    let mut head = Vec::new();
    if *p.lx.peek() == Tok::LParen {
        p.lx.bump();
        if *p.lx.peek() == Tok::RParen {
            p.lx.bump();
        } else {
            loop {
                let v = p.ident("a head variable")?;
                head.push(p.symbol(&v)?);
                match p.lx.bump() {
                    Tok::Comma => {}
                    Tok::RParen => break,
                    _ => return Err(p.lx.error("expected ',' or ')'")),
                }
            }
        }
    }
    p.lx.expect(Tok::Define, "':='")?;
    p.scope.extend(head.iter().copied());
    let body = p.formula()?;
    if *p.lx.peek() != Tok::Eof {
        return Err(p.lx.error("trailing input after formula"));
    }
    Query::new(&name, exact(head), body).map_err(|m| ParseError { line: 1, col: 1, message: m })
}

/// `v` without spare capacity: a session keeps every parsed definition
/// for as long as it lives.
fn exact<T>(mut v: Vec<T>) -> Vec<T> {
    v.shrink_to_fit();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Formula;
    use crate::eval::{eval_bool, eval_query};
    use crate::fragments::{is_cq_shaped, is_ucq_shaped, Ucq};
    use caz_idb::{cst, parse_database, Tuple};

    #[test]
    fn parses_the_intro_query() {
        let q = parse_query("Q(x, y) := R1(x, y) & !R2(x, y)").unwrap();
        assert_eq!(q.arity(), 2);
        assert_eq!(q.name, "Q");
        let db = parse_database("R1(a, b). R2(a, b). R1(c, d).").unwrap().db;
        let ans = eval_query(&q, &db);
        assert_eq!(ans, [Tuple::new(vec![cst("c"), cst("d")])].into());
    }

    #[test]
    fn quantifiers_and_constants() {
        let q = parse_query("D2(x) := exists y. E('c', y) & E(y, x)").unwrap();
        assert_eq!(q.generic_consts(), [Cst::new("c")].into());
        let db = parse_database("E(c, m). E(m, t).").unwrap().db;
        assert_eq!(eval_query(&q, &db), [Tuple::new(vec![cst("t")])].into());
    }

    #[test]
    fn unbound_idents_are_constants() {
        // `c` is not bound, so it is a constant even without quotes.
        let q = parse_query("B := exists x. E(c, x)").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.generic_consts(), [Cst::new("c")].into());
    }

    #[test]
    fn implication_and_forall() {
        let q = parse_query("S := forall x. U(x) -> R(x) & !T(x)").unwrap();
        let db = parse_database("U(1). R(1).").unwrap().db;
        assert!(eval_bool(&q, &db));
        let db2 = parse_database("U(1). R(1). T(1).").unwrap().db;
        assert!(!eval_bool(&q, &db2));
    }

    #[test]
    fn equality_and_inequality() {
        let q = parse_query("P(x, y) := R(x, y) & x != y").unwrap();
        let db = parse_database("R(a, a). R(a, b).").unwrap().db;
        assert_eq!(eval_query(&q, &db), [Tuple::new(vec![cst("a"), cst("b")])].into());
        let q2 = parse_query("P(x) := x = 'a'").unwrap();
        assert_eq!(eval_query(&q2, &db), [Tuple::new(vec![cst("a")])].into());
    }

    #[test]
    fn precedence() {
        // & binds tighter than |, ! tighter than &.
        let q = parse_query("P(x) := A(x) | B(x) & !C(x)").unwrap();
        let db = parse_database("A(1). B(2). C(2). B(3).").unwrap().db;
        let ans = eval_query(&q, &db);
        assert_eq!(ans.len(), 2); // 1 (via A) and 3 (via B & !C)
    }

    #[test]
    fn fragments_detected_after_parse() {
        assert!(is_cq_shaped(
            &parse_query("C(x) := exists y. R(x, y) & S(y)").unwrap().body
        ));
        let u = parse_query("U(x) := R(x, x) | exists y. S(y) & R(y, x)").unwrap();
        assert!(is_ucq_shaped(&u.body));
        assert_eq!(Ucq::from_query(&u).unwrap().disjuncts.len(), 2);
        assert!(!is_ucq_shaped(
            &parse_query("N(x) := !R(x, x)").unwrap().body
        ));
    }

    #[test]
    fn boolean_queries() {
        let q = parse_query("Empty := !(exists x. U(x))").unwrap();
        assert!(q.is_boolean());
        let db = parse_database("V(1).").unwrap().db;
        assert!(eval_bool(&q, &db));
    }

    #[test]
    fn errors() {
        assert!(parse_query("P(x) :=").is_err());
        assert!(parse_query("P(x) := R(x").is_err());
        assert!(parse_query(":= R(a)").is_err());
        // An unbound identifier is a constant, not a free variable — so
        // this is legal and mentions the constant y.
        let q = parse_query("P(x) := R(x) & S(y)").unwrap();
        assert_eq!(q.generic_consts(), [Cst::new("y")].into());
        assert!(parse_query("P(x) := R(x) extra").is_err(), "trailing input");
        assert!(parse_query("P(x) := exists . R(x)").is_err());
    }

    #[test]
    fn reserved_constants_are_parse_errors() {
        // Fresh constants are machine-made: a query naming one is
        // refused instead of reaching `Cst::new`'s assert.
        for src in ["W := R('~a', b)", "W(x) := R(x, '~0')"] {
            let e = parse_query(src).unwrap_err();
            assert!(e.message.contains("reserved prefix"), "{src}: {e}");
        }
    }

    #[test]
    fn rendered_syntax_parses_back() {
        for src in [
            "Q(x, y) := R1(x, y) & !R2(x, y)",
            "D2(x) := exists y. E('c', y) & E(y, x)",
            "S := forall x. U(x) -> R(x) & !T(x)",
            "P(x) := R(x) & exists x. S(x) | x != 7",
            "E := !(exists x. U(x)) | (exists y, z. V(y, z)) & W(-1, 'two words')",
        ] {
            let q = parse_query(src).unwrap();
            assert_eq!(parse_query(&q.to_string()).unwrap(), q, "{src} renders {q}");
        }
        // A rendered quantifier binds like an atom; the client form
        // scopes to the right.
        let rendered = parse_query("B() := (∃x (U(x)) ∧ ¬(V('a')))").unwrap();
        assert!(matches!(&rendered.body, Formula::And(parts) if parts.len() == 2), "{rendered}");
        let client = parse_query("B := exists x. U(x) & !V('a')").unwrap();
        assert!(matches!(&client.body, Formula::Exists(..)), "{client}");
        assert!(parse_query("B := ∃x (U(x)").is_err(), "unclosed body");
        assert!(parse_query("B := ∃x U(x)").is_err(), "no body");
        assert!(parse_query("B := U(x) ⊕ V(x)").is_err(), "unknown connective");
    }

    #[test]
    fn nested_quantifier_scoping() {
        // Inner x shadows the head x inside the quantifier.
        let q = parse_query("P(x) := R(x) & exists x. S(x)").unwrap();
        let db = parse_database("R(a). S(b).").unwrap().db;
        assert_eq!(eval_query(&q, &db), [Tuple::new(vec![cst("a")])].into());
    }
}
