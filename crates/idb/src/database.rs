//! Incomplete relational databases.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{Cst, NullId, Symbol, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An incomplete database: a finite set of relations whose tuples range
/// over `Const ∪ Null`. A database with no nulls is *complete*.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Database {
    relations: BTreeMap<Symbol, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// An empty database with all relations of `schema` present (empty).
    pub fn with_schema(schema: &Schema) -> Database {
        let mut db = Database::new();
        for (sym, arity) in schema.iter() {
            db.relations.insert(sym, Relation::with_symbol(sym, arity));
        }
        db
    }

    /// Ensure a relation exists (empty if absent) and return it mutably.
    /// Panics if it exists with a different arity.
    pub fn relation_mut(&mut self, name: &str, arity: usize) -> &mut Relation {
        let sym = Symbol::intern(name);
        let rel = self
            .relations
            .entry(sym)
            .or_insert_with(|| Relation::with_symbol(sym, arity));
        assert_eq!(rel.arity(), arity, "relation {name} has arity {}", rel.arity());
        rel
    }

    /// Insert a tuple into a relation, creating the relation if needed.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> bool {
        let arity = tuple.arity();
        self.relation_mut(name, arity).insert(tuple)
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(&Symbol::lookup(name)?)
    }

    /// Look up a relation by symbol.
    pub fn relation_sym(&self, sym: Symbol) -> Option<&Relation> {
        self.relations.get(&sym)
    }

    /// Iterate over the relations in deterministic order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// The schema induced by the present relations.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for r in self.relations.values() {
            s.declare_symbol(r.name(), r.arity());
        }
        s
    }

    /// Total number of tuples across relations.
    pub fn len(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// True iff no relation holds a tuple.
    pub fn is_empty(&self) -> bool {
        self.relations.values().all(Relation::is_empty)
    }

    /// `Null(D)`: the set of nulls occurring in the database.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.relations.values().flat_map(Relation::nulls).collect()
    }

    /// `Const(D)`: the set of constants occurring in the database.
    pub fn consts(&self) -> BTreeSet<Cst> {
        self.relations.values().flat_map(Relation::consts).collect()
    }

    /// `adom(D) = Const(D) ∪ Null(D)`.
    pub fn adom(&self) -> BTreeSet<Value> {
        let mut out: BTreeSet<Value> = self.consts().into_iter().map(Value::Const).collect();
        out.extend(self.nulls().into_iter().map(Value::Null));
        out
    }

    /// True iff the database contains no nulls.
    pub fn is_complete(&self) -> bool {
        self.relations.values().all(Relation::is_complete)
    }

    /// Value-wise image under a substitution (e.g. a valuation, or a
    /// null-renaming). Tuples that become equal are merged, as in `v(D)`.
    pub fn map(&self, mut f: impl FnMut(Value) -> Value) -> Database {
        let mut out = Database::new();
        for r in self.relations.values() {
            out.relations.insert(r.name(), r.map(&mut f));
        }
        out
    }

    /// Union of two databases over compatible schemas (used by the
    /// open-world semantics `v(D) ∪ D′`). Panics on arity conflicts.
    pub fn union(&self, other: &Database) -> Database {
        let mut out = self.clone();
        for r in other.relations.values() {
            let target = out
                .relations
                .entry(r.name())
                .or_insert_with(|| Relation::with_symbol(r.name(), r.arity()));
            assert_eq!(target.arity(), r.arity(), "arity conflict in union");
            for t in r.iter() {
                target.insert(t.clone());
            }
        }
        out
    }

    /// True iff every tuple of `self` is in `other` (same-name relations).
    pub fn is_subset_of(&self, other: &Database) -> bool {
        self.relations.values().all(|r| {
            r.is_empty()
                || other
                    .relation_sym(r.name())
                    .is_some_and(|o| r.iter().all(|t| o.contains(t)))
        })
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rels: Vec<_> = self.relations.values().collect();
        rels.sort_by_key(|r| r.name().resolve());
        for r in rels {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{cst, int};

    fn sample() -> (Database, NullId) {
        let n = NullId::fresh();
        let mut db = Database::new();
        db.insert("R", Tuple::new(vec![cst("a"), Value::Null(n)]));
        db.insert("R", Tuple::new(vec![cst("b"), int(1)]));
        db.insert("S", Tuple::new(vec![Value::Null(n)]));
        (db, n)
    }

    #[test]
    fn schema_and_counts() {
        let (db, _) = sample();
        assert_eq!(db.len(), 3);
        assert_eq!(db.schema().arity_of("R"), Some(2));
        assert_eq!(db.schema().arity_of("S"), Some(1));
        assert!(!db.is_complete());
    }

    #[test]
    fn adom_splits() {
        let (db, n) = sample();
        assert_eq!(db.nulls().len(), 1);
        assert!(db.nulls().contains(&n));
        assert_eq!(db.consts().len(), 3);
        assert_eq!(db.adom().len(), 4);
    }

    #[test]
    fn map_merges() {
        let (db, n) = sample();
        let complete = db.map(|v| if v == Value::Null(n) { int(1) } else { v });
        assert!(complete.is_complete());
        // R(b,1) was already there; R(a,1) is new; S(1).
        assert_eq!(complete.len(), 3);
    }

    #[test]
    fn union_and_subset() {
        let (db, _) = sample();
        let mut extra = Database::new();
        extra.insert("R", Tuple::new(vec![cst("c"), int(9)]));
        let u = db.union(&extra);
        assert_eq!(u.len(), 4);
        assert!(db.is_subset_of(&u));
        assert!(extra.is_subset_of(&u));
        assert!(!u.is_subset_of(&db));
    }

    #[test]
    fn empty_relation_subset() {
        let mut a = Database::new();
        a.relation_mut("U", 1);
        let b = Database::new();
        assert!(a.is_subset_of(&b), "empty relations impose nothing");
    }

    #[test]
    fn with_schema_creates_empty_relations() {
        let s = Schema::from_pairs([("U", 1)]);
        let db = Database::with_schema(&s);
        assert!(db.relation("U").unwrap().is_empty());
        assert!(db.is_empty());
    }
}
