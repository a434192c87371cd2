//! Constraint sets: collections of dependencies viewed as one generic
//! Boolean query `Σ` (Section 4 of the paper).

use crate::fd::Fd;
use crate::ind::Ind;
use crate::keys::{UnaryFk, UnaryKey};
use caz_idb::parser::ParseError;
use caz_idb::{Database, Schema, Symbol};
use caz_logic::{Formula, Query};
use std::fmt;

/// A single integrity constraint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Constraint {
    /// Functional dependency.
    Fd(Fd),
    /// Inclusion dependency.
    Ind(Ind),
    /// Unary key.
    Key(UnaryKey),
    /// Unary foreign key (inclusion into a key column; the key itself is
    /// implied and enforced).
    Fk(UnaryFk),
}

impl Constraint {
    /// The constraint as a first-order sentence under the given schema:
    /// every relation it names must be in the schema, and every column
    /// must fit its relation's arity (the check of
    /// [`ConstraintSet::check_columns`]).
    pub fn to_formula(&self, schema: &Schema) -> Result<Formula, String> {
        let arity = |rel: caz_idb::Symbol| {
            schema
                .arity(rel)
                .ok_or_else(|| format!("constraint references unknown relation {rel}"))
        };
        match self {
            Constraint::Fd(fd) => {
                let a = arity(fd.rel)?;
                self.check_columns(schema)?;
                Ok(fd.to_formula(a))
            }
            Constraint::Ind(ind) => {
                let fa = arity(ind.from_rel)?;
                let ta = arity(ind.to_rel)?;
                self.check_columns(schema)?;
                Ok(ind.to_formula(fa, ta))
            }
            Constraint::Key(key) => {
                let a = arity(key.rel)?;
                self.check_columns(schema)?;
                Ok(key.to_formula(a))
            }
            Constraint::Fk(fk) => {
                let fa = arity(fk.rel)?;
                let ta = arity(fk.ref_rel)?;
                self.check_columns(schema)?;
                Ok(Formula::And(vec![
                    fk.to_formula(fa, ta),
                    fk.implied_key().to_formula(ta),
                ]))
            }
        }
    }

    /// This constraint's part of [`ConstraintSet::check_columns`].
    fn check_columns(&self, schema: &Schema) -> Result<(), String> {
        let arity = |rel| schema.arity(rel).unwrap_or(usize::MAX);
        match self {
            Constraint::Fd(fd) => fd.check_arity(arity(fd.rel)),
            Constraint::Ind(ind) => ind.check_arity(arity(ind.from_rel), arity(ind.to_rel)),
            Constraint::Key(key) if key.col >= arity(key.rel) => {
                Err(format!("key column {} exceeds arity {}", key.col, arity(key.rel)))
            }
            Constraint::Fk(fk) if fk.col >= arity(fk.rel) || fk.ref_col >= arity(fk.ref_rel) => {
                Err("foreign-key column out of range".to_string())
            }
            Constraint::Key(_) | Constraint::Fk(_) => Ok(()),
        }
    }

    /// Direct check on a complete database.
    pub fn holds_in(&self, db: &Database) -> bool {
        match self {
            Constraint::Fd(fd) => fd.holds_in(db),
            Constraint::Ind(ind) => ind.holds_in(db),
            Constraint::Key(key) => key.holds_in(db),
            Constraint::Fk(fk) => fk.holds_in(db) && fk.implied_key().holds_in(db),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Fd(x) => write!(f, "{x}"),
            Constraint::Ind(x) => write!(f, "{x}"),
            Constraint::Key(x) => write!(f, "{x}"),
            Constraint::Fk(x) => write!(f, "{x}"),
        }
    }
}

/// A set `Σ` of constraints.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ConstraintSet {
    items: Vec<Constraint>,
}

impl ConstraintSet {
    /// The empty set (always satisfied).
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Build from constraints.
    pub fn from_constraints(items: impl IntoIterator<Item = Constraint>) -> ConstraintSet {
        ConstraintSet { items: items.into_iter().collect() }
    }

    /// Add a constraint.
    pub fn push(&mut self, c: Constraint) {
        self.items.push(c);
    }

    /// The constraints.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.items.iter()
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True iff every constraint is a functional dependency (keys count:
    /// they are FD sets) — the case where the 0–1 law is recovered
    /// (Theorem 5 / Corollary 4).
    pub fn is_fd_only(&self) -> bool {
        self.items
            .iter()
            .all(|c| matches!(c, Constraint::Fd(_) | Constraint::Key(_)))
    }

    /// All constraints as functional dependencies, when [`Self::is_fd_only`];
    /// `None` otherwise. Needs the schema to expand keys.
    pub fn as_fds(&self, schema: &Schema) -> Option<Vec<Fd>> {
        let mut out = Vec::new();
        for c in &self.items {
            match c {
                Constraint::Fd(fd) => out.push(fd.clone()),
                Constraint::Key(key) => {
                    out.extend(key.as_fds(schema.arity(key.rel)?));
                }
                _ => return None,
            }
        }
        Some(out)
    }

    /// Check every column each constraint names against its relation's
    /// arity in `schema`, reporting the first failure in the error text
    /// [`Constraint::to_formula`] gives. A relation the schema lacks
    /// bounds no column: it has no tuples, so a constraint holds on it
    /// trivially.
    pub fn check_columns(&self, schema: &Schema) -> Result<(), String> {
        self.items.iter().try_for_each(|c| c.check_columns(schema))
    }

    /// The whole set as one sentence `Σ`.
    pub fn to_formula(&self, schema: &Schema) -> Result<Formula, String> {
        Ok(Formula::And(
            self.items
                .iter()
                .map(|c| c.to_formula(schema))
                .collect::<Result<_, _>>()?,
        ))
    }

    /// The set as a generic Boolean query.
    pub fn to_query(&self, schema: &Schema) -> Result<Query, String> {
        Query::boolean("sigma", self.to_formula(schema)?)
    }

    /// Direct satisfaction check on a complete database.
    pub fn holds_in(&self, db: &Database) -> bool {
        self.items.iter().all(|c| c.holds_in(db))
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.items {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Parse a constraint set from text, one constraint per line:
///
/// ```text
/// key R[1]
/// fd R: 1 2 -> 3
/// ind R[1,2] <= S[2,1]
/// fk Orders[2] -> Customers[1]
/// ```
///
/// Columns are 1-based in the text format (0-based in the API). `#` and
/// `--` start comments.
pub fn parse_constraints(src: &str) -> Result<ConstraintSet, ParseError> {
    let mut set = ConstraintSet::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap();
        let line = line.split("--").next().unwrap().trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| ParseError {
            line: lineno + 1,
            col: 1,
            message: format!("{msg} (in {line:?})"),
        };
        // The constructors intern relation names infallibly; interning
        // them here first turns running out of ids into a parse error.
        let intern = |rel: &str| Symbol::try_intern(rel.trim()).map_err(|e| err(&e.to_string()));
        let (kind, rest) = line.split_once(' ').ok_or_else(|| err("expected a constraint"))?;
        let rest = rest.trim();
        match kind {
            "key" => {
                let (rel, col) = parse_rel_cols(rest).map_err(|m| err(&m))?;
                if col.len() != 1 {
                    return Err(err("unary key needs exactly one column"));
                }
                intern(&rel)?;
                set.push(Constraint::Key(UnaryKey::new(&rel, col[0])));
            }
            "fd" => {
                let (rel, spec) = rest.split_once(':').ok_or_else(|| err("expected 'fd R: …'"))?;
                let (lhs, rhs) =
                    spec.split_once("->").ok_or_else(|| err("expected '->' in fd"))?;
                let lhs_cols = parse_col_list(lhs, char::is_whitespace).map_err(|m| err(&m))?;
                let rhs_cols = parse_col_list(rhs, char::is_whitespace).map_err(|m| err(&m))?;
                intern(rel)?;
                for &r in &rhs_cols {
                    set.push(Constraint::Fd(Fd::new(rel.trim(), lhs_cols.clone(), r)));
                }
                if rhs_cols.is_empty() {
                    return Err(err("fd needs at least one right-hand column"));
                }
            }
            "ind" => {
                let (from, to) =
                    rest.split_once("<=").ok_or_else(|| err("expected '<=' in ind"))?;
                let (fr, fc) = parse_rel_cols(from.trim()).map_err(|m| err(&m))?;
                let (tr, tc) = parse_rel_cols(to.trim()).map_err(|m| err(&m))?;
                if fc.len() != tc.len() {
                    return Err(err("ind column lists must have equal length"));
                }
                intern(&fr)?;
                intern(&tr)?;
                set.push(Constraint::Ind(Ind::new(&fr, fc, &tr, tc)));
            }
            "fk" => {
                let (from, to) =
                    rest.split_once("->").ok_or_else(|| err("expected '->' in fk"))?;
                let (fr, fc) = parse_rel_cols(from.trim()).map_err(|m| err(&m))?;
                let (tr, tc) = parse_rel_cols(to.trim()).map_err(|m| err(&m))?;
                if fc.len() != 1 || tc.len() != 1 {
                    return Err(err("fk must be unary"));
                }
                intern(&fr)?;
                intern(&tr)?;
                set.push(Constraint::Fk(UnaryFk::new(&fr, fc[0], &tr, tc[0])));
            }
            _ => return Err(err("unknown constraint kind (key/fd/ind/fk)")),
        }
    }
    Ok(set)
}

/// Parse `Rel[c1,c2,…]` with 1-based columns.
fn parse_rel_cols(s: &str) -> Result<(String, Vec<usize>), String> {
    let open = s.find('[').ok_or("expected '['")?;
    if !s.ends_with(']') {
        return Err("expected ']'".to_string());
    }
    let rel = s[..open].trim().to_string();
    if rel.is_empty() {
        return Err("missing relation name".to_string());
    }
    let cols = parse_col_list(&s[open + 1..s.len() - 1], |c| c == ',')?;
    Ok((rel, cols))
}

fn parse_col_list(s: &str, sep: impl Fn(char) -> bool) -> Result<Vec<usize>, String> {
    s.split(sep)
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            let n: usize = p.parse().map_err(|_| format!("bad column number {p:?}"))?;
            n.checked_sub(1).ok_or_else(|| "columns are 1-based".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_idb::parse_database;
    use caz_logic::eval_bool;

    #[test]
    fn parse_all_kinds() {
        let set = parse_constraints(
            "# constraints
             key R[1]
             fd S: 1 2 -> 3
             ind R[1] <= U[1]
             fk T[2] -> U[1]",
        )
        .unwrap();
        assert_eq!(set.len(), 4);
        assert_eq!(set.iter().next().unwrap().to_string(), "key R[1]");
    }

    #[test]
    fn fd_with_multiple_rhs_expands() {
        let set = parse_constraints("fd R: 1 -> 2 3").unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.is_fd_only());
    }

    #[test]
    fn formula_matches_direct_check() {
        let set = parse_constraints("key R[1]\nind R[2] <= U[1]").unwrap();
        let schema = Schema::from_pairs([("R", 2), ("U", 1)]);
        let q = set.to_query(&schema).unwrap();
        for src in [
            "R(1, a). U(a).",
            "R(1, a). R(1, b). U(a). U(b).",
            "R(1, a).",
            "R(1, a). R(2, a). U(a).",
        ] {
            let db = parse_database(src).unwrap().db;
            assert_eq!(eval_bool(&q, &db), set.holds_in(&db), "{src}");
        }
    }

    #[test]
    fn fd_only_classification() {
        let fds = parse_constraints("fd R: 1 -> 2\nkey S[1]").unwrap();
        assert!(fds.is_fd_only());
        let schema = Schema::from_pairs([("R", 2), ("S", 3)]);
        let expanded = fds.as_fds(&schema).unwrap();
        assert_eq!(expanded.len(), 1 + 2);
        let mixed = parse_constraints("fd R: 1 -> 2\nind R[1] <= U[1]").unwrap();
        assert!(!mixed.is_fd_only());
        assert!(mixed.as_fds(&schema).is_none());
    }

    #[test]
    fn unknown_relation_in_formula() {
        let set = parse_constraints("key Zzz[1]").unwrap();
        let schema = Schema::from_pairs([("R", 2)]);
        assert!(set.to_formula(&schema).is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_constraints("bogus R[1]").is_err());
        assert!(parse_constraints("key R[1,2]").is_err());
        assert!(parse_constraints("fd R: 1 ->").is_err());
        assert!(parse_constraints("ind R[1] <= U[1,2]").is_err());
        assert!(parse_constraints("key R[0]").is_err(), "columns are 1-based");
    }

    #[test]
    fn empty_set_always_holds() {
        let set = ConstraintSet::new();
        let db = parse_database("R(a, b).").unwrap().db;
        assert!(set.holds_in(&db));
        let q = set.to_query(&Schema::new()).unwrap();
        assert!(eval_bool(&q, &db));
    }
}
