//! Inclusion dependencies.

use caz_idb::{Database, Symbol, Value};
use caz_logic::{Formula, Term};
use std::collections::HashSet;
use std::fmt;

/// An inclusion dependency `R[from_cols] ⊆ S[to_cols]` (0-based column
/// positions; the two lists have equal length). Unary foreign keys are
/// the special case of a single column referencing a key column.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Ind {
    /// Source relation.
    pub from_rel: Symbol,
    /// Source columns.
    pub from_cols: Vec<usize>,
    /// Target relation.
    pub to_rel: Symbol,
    /// Target columns.
    pub to_cols: Vec<usize>,
}

impl Ind {
    /// Build `from_rel[from_cols] ⊆ to_rel[to_cols]`.
    pub fn new(from_rel: &str, from_cols: Vec<usize>, to_rel: &str, to_cols: Vec<usize>) -> Ind {
        assert_eq!(
            from_cols.len(),
            to_cols.len(),
            "inclusion dependency column lists must have equal length"
        );
        Ind {
            from_rel: Symbol::intern(from_rel),
            from_cols,
            to_rel: Symbol::intern(to_rel),
            to_cols,
        }
    }

    /// Validate against relation arities.
    pub fn check_arity(&self, from_arity: usize, to_arity: usize) -> Result<(), String> {
        if let Some(&bad) = self.from_cols.iter().find(|&&c| c >= from_arity) {
            return Err(format!("IND references column {bad} of {}/{from_arity}", self.from_rel));
        }
        if let Some(&bad) = self.to_cols.iter().find(|&&c| c >= to_arity) {
            return Err(format!("IND references column {bad} of {}/{to_arity}", self.to_rel));
        }
        Ok(())
    }

    /// The IND as a first-order sentence:
    /// `∀x̄ R(x̄) → ∃ȳ (S(ȳ) ∧ ⋀ᵢ x_{fᵢ} = y_{tᵢ})`. Its variables are
    /// permanent names, one family bounded by the widest relation.
    pub fn to_formula(&self, from_arity: usize, to_arity: usize) -> Formula {
        let xs: Vec<Symbol> =
            (0..from_arity).map(|i| Symbol::permanent(&format!("ix{i}"))).collect();
        let ys: Vec<Symbol> = (0..to_arity).map(|i| Symbol::permanent(&format!("iy{i}"))).collect();
        let mut target = vec![Formula::Atom(caz_logic::Atom {
            rel: self.to_rel,
            args: ys.iter().map(|&v| Term::Var(v)).collect(),
        })];
        for (&f, &t) in self.from_cols.iter().zip(&self.to_cols) {
            target.push(Formula::Eq(Term::Var(xs[f]), Term::Var(ys[t])));
        }
        Formula::Forall(
            xs.clone(),
            Box::new(Formula::implies(
                Formula::Atom(caz_logic::Atom {
                    rel: self.from_rel,
                    args: xs.iter().map(|&v| Term::Var(v)).collect(),
                }),
                Formula::Exists(ys, Box::new(Formula::And(target))),
            )),
        )
    }

    /// Direct check on a complete database.
    pub fn holds_in(&self, db: &Database) -> bool {
        debug_assert!(db.is_complete());
        let Some(from) = db.relation_sym(self.from_rel) else {
            return true;
        };
        if from.is_empty() {
            return true;
        }
        let targets: HashSet<Vec<Value>> = match db.relation_sym(self.to_rel) {
            Some(to) => to
                .iter()
                .map(|t| self.to_cols.iter().map(|&c| t[c]).collect())
                .collect(),
            None => HashSet::new(),
        };
        from.iter().all(|t| {
            let proj: Vec<Value> = self.from_cols.iter().map(|&c| t[c]).collect();
            targets.contains(&proj)
        })
    }
}

impl fmt::Display for Ind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = |cs: &[usize]| {
            cs.iter()
                .map(|c| (c + 1).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "ind {}[{}] <= {}[{}]",
            self.from_rel,
            cols(&self.from_cols),
            self.to_rel,
            cols(&self.to_cols)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_idb::parse_database;
    use caz_logic::{eval_bool, Query};

    #[test]
    fn direct_check() {
        // π₁(R) ⊆ U — the constraint from §4's worked example.
        let ind = Ind::new("R", vec![0], "U", vec![0]);
        let ok = parse_database("R(2, 1). U(1). U(2). U(3).").unwrap().db;
        assert!(ind.holds_in(&ok));
        let bad = parse_database("R(9, 1). U(1).").unwrap().db;
        assert!(!ind.holds_in(&bad));
    }

    #[test]
    fn formula_agrees_with_direct_check() {
        let ind = Ind::new("R", vec![0], "U", vec![0]);
        let q = Query::boolean("ind", ind.to_formula(2, 1)).unwrap();
        for src in [
            "R(2, 1). U(2).",
            "R(2, 1). U(1).",
            "R(1, 1). R(2, 2). U(1). U(2).",
            "U(5).",
        ] {
            let db = parse_database(src).unwrap().db;
            assert_eq!(eval_bool(&q, &db), ind.holds_in(&db), "{src}");
        }
    }

    #[test]
    fn multi_column() {
        let ind = Ind::new("R", vec![1, 0], "S", vec![0, 1]);
        let ok = parse_database("R(a, b). S(b, a).").unwrap().db;
        assert!(ind.holds_in(&ok));
        let bad = parse_database("R(a, b). S(a, b).").unwrap().db;
        assert!(!bad.is_empty() && !ind.holds_in(&bad));
    }

    #[test]
    fn missing_relations() {
        let ind = Ind::new("R", vec![0], "U", vec![0]);
        let no_source = parse_database("U(1).").unwrap().db;
        assert!(ind.holds_in(&no_source));
        let no_target = parse_database("R(1, 1).").unwrap().db;
        assert!(!ind.holds_in(&no_target));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_columns_rejected() {
        let _ = Ind::new("R", vec![0, 1], "S", vec![0]);
    }
}
