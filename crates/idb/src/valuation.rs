//! Valuations: assignments of constants to nulls.

use crate::database::Database;
use crate::tuple::Tuple;
use crate::value::{Cst, NullId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A (possibly partial) valuation `v : Null → Const`.
///
/// The paper's valuations are total on `Null(D)`. A partial valuation
/// leaves its unbound nulls in place: [`Valuation::apply_db`] then
/// yields an instance that may still hold nulls, and
/// [`Valuation::apply_tuple`] a tuple that may (an answer tuple naming a
/// null outside `D`, say).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Valuation {
    map: BTreeMap<NullId, Cst>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Valuation {
        Valuation::default()
    }

    /// Build from `(null, constant)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NullId, Cst)>) -> Valuation {
        Valuation { map: pairs.into_iter().collect() }
    }

    /// A `C`-bijective valuation on the given nulls: each null receives a
    /// distinct machine-generated constant from the named `family`, which
    /// is disjoint from all user constants (Definition 2 of the paper).
    pub fn bijective(nulls: impl IntoIterator<Item = NullId>, family: &str) -> Valuation {
        Valuation {
            map: nulls
                .into_iter()
                .enumerate()
                .map(|(i, n)| (n, Cst::fresh_in(family, i)))
                .collect(),
        }
    }

    /// The naïve valuation of `db`: a `C`-bijective valuation mapping
    /// `Null(D)` injectively onto the one fixed fresh family `~nv<i>`,
    /// skipping every member of `Const(D) ∪ avoid`. The skip keeps
    /// nested evaluations disjoint — an instance that already holds
    /// `~nv0` gets its nulls mapped past it — and the fixed family
    /// means repeated naïve evaluations intern no new symbols. By
    /// Proposition 1 the choice of bijective valuation never matters.
    pub fn naive(db: &Database, avoid: &BTreeSet<Cst>) -> Valuation {
        let taken = db.consts();
        let fresh = (0..)
            .map(|i| Cst::fresh_in("nv", i))
            .filter(|c| !taken.contains(c) && !avoid.contains(c));
        Valuation { map: db.nulls().into_iter().zip(fresh).collect() }
    }

    /// Bind a null to a constant (overwrites).
    pub fn bind(&mut self, n: NullId, c: Cst) {
        self.map.insert(n, c);
    }

    /// The constant assigned to `n`, if any.
    pub fn get(&self, n: NullId) -> Option<Cst> {
        self.map.get(&n).copied()
    }

    /// Number of bound nulls.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff no null is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over `(null, constant)` bindings in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (NullId, Cst)> + '_ {
        self.map.iter().map(|(&n, &c)| (n, c))
    }

    /// `range(v)`: the set of constants in the image.
    pub fn range(&self) -> BTreeSet<Cst> {
        self.map.values().copied().collect()
    }

    /// True iff the valuation is injective.
    pub fn is_injective(&self) -> bool {
        self.range().len() == self.map.len()
    }

    /// True iff this valuation is `C`-bijective for the given forbidden
    /// constants (`Const(D) ∪ C`): injective with range disjoint from them.
    pub fn is_bijective_avoiding(&self, forbidden: &BTreeSet<Cst>) -> bool {
        self.is_injective() && self.map.values().all(|c| !forbidden.contains(c))
    }

    /// True iff every null of `db` is bound.
    pub fn is_total_on(&self, db: &Database) -> bool {
        db.nulls().iter().all(|n| self.map.contains_key(n))
    }

    /// Apply to a single value; unbound nulls are left as nulls.
    pub fn apply_value(&self, v: Value) -> Value {
        match v {
            Value::Null(n) => match self.map.get(&n) {
                Some(&c) => Value::Const(c),
                None => v,
            },
            Value::Const(_) => v,
        }
    }

    /// `v(ā)`: apply component-wise to a tuple.
    pub fn apply_tuple(&self, t: &Tuple) -> Tuple {
        t.map(|v| self.apply_value(v))
    }

    /// `v(D)`: apply to every value of the database (merging tuples that
    /// become equal).
    pub fn apply_db(&self, db: &Database) -> Database {
        db.map(|v| self.apply_value(v))
    }

    /// The inverse substitution of an injective valuation: maps each range
    /// constant back to its null, leaving other values unchanged. Panics
    /// if the valuation is not injective. This is the `v⁻¹` of naïve
    /// evaluation (Definition 3).
    pub fn inverse_subst(&self) -> impl Fn(Value) -> Value {
        assert!(self.is_injective(), "inverse of a non-injective valuation");
        let inv: BTreeMap<Cst, NullId> = self.map.iter().map(|(&n, &c)| (c, n)).collect();
        move |v| match v {
            Value::Const(c) => match inv.get(&c) {
                Some(&n) => Value::Null(n),
                None => v,
            },
            Value::Null(_) => v,
        }
    }

    /// Restrict to the given nulls.
    pub fn restrict(&self, nulls: &BTreeSet<NullId>) -> Valuation {
        Valuation {
            map: self
                .map
                .iter()
                .filter(|(n, _)| nulls.contains(n))
                .map(|(&n, &c)| (n, c))
                .collect(),
        }
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (n, c)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{n} ↦ {c}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{cst, int};

    #[test]
    fn apply_total() {
        let n = NullId::fresh();
        let mut db = Database::new();
        db.insert("R", Tuple::new(vec![cst("a"), Value::Null(n)]));
        let v = Valuation::from_pairs([(n, Cst::int(7))]);
        assert!(v.is_total_on(&db));
        let out = v.apply_db(&db);
        assert!(out.is_complete());
        assert!(out.relation("R").unwrap().contains(&Tuple::new(vec![cst("a"), int(7)])));
    }

    #[test]
    fn apply_partial_keeps_nulls() {
        let (n1, n2) = (NullId::fresh(), NullId::fresh());
        let mut db = Database::new();
        db.insert("R", Tuple::new(vec![Value::Null(n1), Value::Null(n2)]));
        let v = Valuation::from_pairs([(n1, Cst::new("a"))]);
        assert!(!v.is_total_on(&db));
        let out = v.apply_db(&db);
        assert!(!out.is_complete());
        assert_eq!(out.nulls().len(), 1);
    }

    #[test]
    fn bijective_valuations() {
        let nulls = [NullId::fresh(), NullId::fresh(), NullId::fresh()];
        let v = Valuation::bijective(nulls, "t");
        assert!(v.is_injective());
        let forbidden: BTreeSet<Cst> = [Cst::new("a"), Cst::new("b")].into();
        assert!(v.is_bijective_avoiding(&forbidden));
        let w = Valuation::from_pairs([(nulls[0], Cst::new("a")), (nulls[1], Cst::new("b"))]);
        assert!(!w.is_bijective_avoiding(&forbidden));
    }

    #[test]
    fn naive_valuation_is_fixed_and_skips_taken_constants() {
        let (n1, n2) = (NullId::fresh(), NullId::fresh());
        let mut db = Database::new();
        db.insert("R", Tuple::new(vec![Value::Null(n1), Value::Null(n2)]));
        let v = Valuation::naive(&db, &BTreeSet::new());
        assert_eq!(v, Valuation::naive(&db, &BTreeSet::new()), "one fixed family");
        assert_eq!(v.range(), [Cst::fresh_in("nv", 0), Cst::fresh_in("nv", 1)].into());
        // Nested: the naïve instance already holds ~nv0 and ~nv1, and
        // the caller avoids ~nv2, so a fresh null lands on ~nv3.
        let n3 = NullId::fresh();
        let mut nested = v.apply_db(&db);
        nested.insert("S", Tuple::new(vec![Value::Null(n3)]));
        let w = Valuation::naive(&nested, &[Cst::fresh_in("nv", 2)].into());
        assert_eq!(w.get(n3), Some(Cst::fresh_in("nv", 3)));
        assert!(w.is_bijective_avoiding(&nested.consts()));
    }

    #[test]
    fn inverse_of_bijective_roundtrips() {
        let n = NullId::fresh();
        let mut db = Database::new();
        db.insert("R", Tuple::new(vec![cst("a"), Value::Null(n)]));
        let v = Valuation::bijective(db.nulls(), "t");
        let complete = v.apply_db(&db);
        let back = complete.map(v.inverse_subst());
        assert_eq!(back, db);
    }

    #[test]
    fn non_injective_detected() {
        let (n1, n2) = (NullId::fresh(), NullId::fresh());
        let v = Valuation::from_pairs([(n1, Cst::new("a")), (n2, Cst::new("a"))]);
        assert!(!v.is_injective());
    }

    #[test]
    fn restrict() {
        let (n1, n2) = (NullId::fresh(), NullId::fresh());
        let v = Valuation::from_pairs([(n1, Cst::new("a")), (n2, Cst::new("b"))]);
        let r = v.restrict(&[n1].into());
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(n1), Some(Cst::new("a")));
        assert_eq!(r.get(n2), None);
    }
}
