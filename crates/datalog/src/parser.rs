//! Text syntax for Datalog programs.
//!
//! ```text
//! path(x, y) :- edge(x, y).
//! path(x, z) :- path(x, y), edge(y, z).
//! output path
//! ```
//!
//! Identifiers in rules are *variables* (Datalog convention); constants
//! are quoted (`'src'`) or numeric; `!atom` negates a body literal
//! (stratification is checked at program construction). The `output`
//! directive names the answer predicate (defaults to the head of the
//! first rule).

use crate::ast::{Literal, Program, Rule};
use caz_idb::parser::ParseError;
use caz_idb::{Cst, Symbol};
use caz_logic::{Atom, Term};

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, col: 1, message: message.into() }
}

fn constant(name: &str, line: usize) -> Result<Term, ParseError> {
    Cst::try_new(name).map(Term::Const).map_err(|e| err(line, e))
}

fn parse_term(tok: &str, line: usize) -> Result<Term, ParseError> {
    let tok = tok.trim();
    if tok.is_empty() {
        return Err(err(line, "empty term"));
    }
    if let Some(inner) = tok.strip_prefix('\'') {
        let inner = inner
            .strip_suffix('\'')
            .ok_or_else(|| err(line, format!("unterminated quote in {tok:?}")))?;
        return constant(inner, line);
    }
    if tok.chars().next().unwrap().is_ascii_digit() || tok.starts_with('-') {
        return constant(tok, line);
    }
    if !tok.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(err(line, format!("bad term {tok:?}")));
    }
    symbol(tok, line).map(Term::Var)
}

/// Intern a name from the program text; running out of ids is a parse
/// error.
fn symbol(name: &str, line: usize) -> Result<Symbol, ParseError> {
    Symbol::try_intern(name).map_err(|e| err(line, e.to_string()))
}

fn parse_atom(src: &str, line: usize) -> Result<Atom, ParseError> {
    let src = src.trim();
    let open = src
        .find('(')
        .ok_or_else(|| err(line, format!("expected '(' in atom {src:?}")))?;
    let close = src
        .rfind(')')
        .ok_or_else(|| err(line, format!("expected ')' in atom {src:?}")))?;
    if close < open {
        return Err(err(line, "mismatched parentheses"));
    }
    let name = src[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(err(line, format!("bad predicate name {name:?}")));
    }
    let inner = &src[open + 1..close];
    let args = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner
            .split(',')
            .map(|t| parse_term(t, line))
            .collect::<Result<_, _>>()?
    };
    Ok(Atom { rel: symbol(name, line)?, args })
}

/// Split a rule body on top-level commas (commas inside parentheses
/// separate atom arguments, not atoms).
fn split_atoms(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in src.chars() {
        match ch {
            '(' => {
                depth += 1;
                cur.push(ch);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Parse a Datalog program.
///
/// ```
/// use caz_datalog::{output_facts, parse_program};
/// use caz_idb::parse_database;
///
/// let p = parse_program(
///     "path(x, y) :- edge(x, y).
///      path(x, z) :- path(x, y), edge(y, z).
///      output path",
/// ).unwrap();
/// let db = parse_database("edge(a, b). edge(b, c).").unwrap().db;
/// assert_eq!(output_facts(&p, &db).len(), 3); // ab, bc, ac
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut rules = Vec::new();
    let mut output: Option<String> = None;
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap().trim();
        let line = line.split("--").next().unwrap().trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        if let Some(rest) = line.strip_prefix("output") {
            let name = rest.trim().trim_end_matches('.');
            if name.is_empty() {
                return Err(err(n, "output directive needs a predicate name"));
            }
            output = Some(name.to_string());
            continue;
        }
        let stmt = line.strip_suffix('.').unwrap_or(line);
        let (head_src, body_src) = stmt
            .split_once(":-")
            .ok_or_else(|| err(n, "expected ':-' (facts belong in the database)"))?;
        let head = parse_atom(head_src, n)?;
        let body = split_atoms(body_src)
            .iter()
            .map(|a| {
                let a = a.trim();
                match a.strip_prefix('!') {
                    Some(inner) => Ok(Literal::neg(parse_atom(inner, n)?)),
                    None => Ok(Literal::pos(parse_atom(a, n)?)),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        rules.push(Rule { head, body });
    }
    let output = output.unwrap_or_else(|| {
        rules
            .first()
            .map(|r| r.head.rel.resolve())
            .unwrap_or_default()
    });
    // Interned here so that `Program::new` only re-finds the name.
    symbol(&output, 0)?;
    Program::new(rules, &output).map_err(|m| err(0, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_transitive_closure() {
        let p = parse_program(
            "# reachability
             path(x, y) :- edge(x, y).
             path(x, z) :- path(x, y), edge(y, z).
             output path",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.output.resolve(), "path");
        assert_eq!(p.rules[1].body.len(), 2);
    }

    #[test]
    fn default_output_is_first_head() {
        let p = parse_program("p(x) :- e(x).").unwrap();
        assert_eq!(p.output.resolve(), "p");
    }

    #[test]
    fn constants_are_quoted_or_numeric() {
        let p = parse_program("near(y) :- edge('hub', y), dist(y, 2).").unwrap();
        let consts = p.generic_consts();
        assert!(consts.contains(&Cst::new("hub")));
        assert!(consts.contains(&Cst::new("2")));
    }

    #[test]
    fn errors() {
        assert!(parse_program("p(x) :- ").is_err());
        assert!(parse_program("p(x).").is_err(), "facts belong in the database");
        assert!(parse_program("p(x) :- e(y).").is_err(), "range restriction");
        assert!(parse_program("output nothing").is_err());
        assert!(parse_program("p(x) :- e(x'broken).").is_err());
    }

    #[test]
    fn reserved_constants_are_parse_errors() {
        for src in ["p(x) :- e(x, '~a').", "p(x) :- e(x), f('~nv0', x)."] {
            let e = parse_program(src).unwrap_err();
            assert!(e.message.contains("reserved prefix"), "{src}: {e}");
        }
    }

    #[test]
    fn negated_literals() {
        let p = parse_program(
            "sep(x, y) :- node(x), node(y), !path(x, y).\n             path(x, y) :- edge(x, y).\n             output sep",
        )
        .unwrap();
        let sep_rule = &p.rules[0];
        assert_eq!(sep_rule.positive_atoms().count(), 2);
        assert_eq!(sep_rule.negative_atoms().count(), 1);
        assert!(parse_program("p(x) :- e(x), !p(x).").is_err(), "not stratified");
    }

    #[test]
    fn nullary_predicates() {
        let p = parse_program("hit() :- e(x, x).\noutput hit").unwrap();
        assert_eq!(p.output_arity, 0);
    }
}
