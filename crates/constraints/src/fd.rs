//! Functional dependencies.

use caz_idb::{Database, Symbol, Value};
use caz_logic::{Formula, Term};
use std::collections::HashMap;
use std::fmt;

/// A functional dependency `R : X → A` (attribute positions, 0-based).
/// Keys are the special case where `X` determines every attribute.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Fd {
    /// Relation the dependency constrains.
    pub rel: Symbol,
    /// Determining attribute positions.
    pub lhs: Vec<usize>,
    /// Determined attribute position.
    pub rhs: usize,
}

impl Fd {
    /// Build `rel : lhs → rhs`.
    pub fn new(rel: &str, lhs: Vec<usize>, rhs: usize) -> Fd {
        Fd { rel: Symbol::intern(rel), lhs, rhs }
    }

    /// Validate against an arity.
    pub fn check_arity(&self, arity: usize) -> Result<(), String> {
        for &c in self.lhs.iter().chain([&self.rhs]) {
            if c >= arity {
                return Err(format!(
                    "FD on {} references column {c} but the relation has arity {arity}",
                    self.rel
                ));
            }
        }
        Ok(())
    }

    /// The FD as a first-order sentence:
    /// `∀x̄ ∀ȳ (R(x̄) ∧ R(ȳ) ∧ ⋀_{i∈X} xᵢ=yᵢ) → x_A = y_A`. Its variables
    /// are permanent names, one family bounded by the widest relation.
    pub fn to_formula(&self, arity: usize) -> Formula {
        let xs: Vec<Symbol> = (0..arity).map(|i| Symbol::permanent(&format!("fx{i}"))).collect();
        let ys: Vec<Symbol> = (0..arity).map(|i| Symbol::permanent(&format!("fy{i}"))).collect();
        let mut premise = vec![
            Formula::Atom(caz_logic::Atom {
                rel: self.rel,
                args: xs.iter().map(|&v| Term::Var(v)).collect(),
            }),
            Formula::Atom(caz_logic::Atom {
                rel: self.rel,
                args: ys.iter().map(|&v| Term::Var(v)).collect(),
            }),
        ];
        for &i in &self.lhs {
            premise.push(Formula::Eq(Term::Var(xs[i]), Term::Var(ys[i])));
        }
        let conclusion = Formula::Eq(Term::Var(xs[self.rhs]), Term::Var(ys[self.rhs]));
        let vars: Vec<Symbol> = xs.into_iter().chain(ys).collect();
        Formula::Forall(
            vars,
            Box::new(Formula::implies(Formula::And(premise), conclusion)),
        )
    }

    /// Direct check on a complete database (faster than FO evaluation).
    pub fn holds_in(&self, db: &Database) -> bool {
        debug_assert!(db.is_complete());
        let Some(rel) = db.relation_sym(self.rel) else {
            return true;
        };
        let mut seen: HashMap<Vec<Value>, Value> = HashMap::new();
        for t in rel.iter() {
            let key: Vec<Value> = self.lhs.iter().map(|&i| t[i]).collect();
            let val = t[self.rhs];
            match seen.insert(key, val) {
                Some(prev) if prev != val => return false,
                _ => {}
            }
        }
        true
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd {}: ", self.rel)?;
        for (i, c) in self.lhs.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{}", c + 1)?;
        }
        write!(f, " -> {}", self.rhs + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_idb::parse_database;
    use caz_logic::{eval_bool, Query};

    #[test]
    fn direct_check() {
        let fd = Fd::new("R", vec![0], 1);
        let ok = parse_database("R(a, 1). R(b, 2). R(a, 1).").unwrap().db;
        assert!(fd.holds_in(&ok));
        let bad = parse_database("R(a, 1). R(a, 2).").unwrap().db;
        assert!(!fd.holds_in(&bad));
    }

    #[test]
    fn formula_agrees_with_direct_check() {
        let fd = Fd::new("R", vec![0], 1);
        let q = Query::boolean("fd", fd.to_formula(2)).unwrap();
        for src in ["R(a, 1). R(b, 2).", "R(a, 1). R(a, 2).", "R(a, 1). R(b, 1)."] {
            let db = parse_database(src).unwrap().db;
            assert_eq!(eval_bool(&q, &db), fd.holds_in(&db), "{src}");
        }
    }

    #[test]
    fn multi_column_lhs() {
        let fd = Fd::new("R", vec![0, 1], 2);
        let ok = parse_database("R(a, b, 1). R(a, c, 2).").unwrap().db;
        assert!(fd.holds_in(&ok));
        let bad = parse_database("R(a, b, 1). R(a, b, 2).").unwrap().db;
        assert!(!fd.holds_in(&bad));
    }

    #[test]
    fn empty_lhs_means_constant_column() {
        let fd = Fd::new("R", vec![], 0);
        let ok = parse_database("R(a). R(a).").unwrap().db;
        assert!(fd.holds_in(&ok));
        let bad = parse_database("R(a). R(b).").unwrap().db;
        assert!(!fd.holds_in(&bad));
    }

    #[test]
    fn missing_relation_trivially_holds() {
        let fd = Fd::new("Nope", vec![0], 1);
        let db = parse_database("R(a, b).").unwrap().db;
        assert!(fd.holds_in(&db));
    }

    #[test]
    fn arity_validation() {
        let fd = Fd::new("R", vec![0], 5);
        assert!(fd.check_arity(2).is_err());
        assert!(fd.check_arity(6).is_ok());
    }
}
