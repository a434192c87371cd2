//! Relations: named, fixed-arity sets of tuples.

use crate::tuple::Tuple;
use crate::value::{Cst, NullId, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// A relation instance: a finite set of tuples of a fixed arity over
/// `Const ∪ Null`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Relation {
    name: Symbol,
    arity: usize,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// An empty relation with the given name and arity.
    pub fn new(name: &str, arity: usize) -> Relation {
        Relation { name: Symbol::intern(name), arity, tuples: BTreeSet::new() }
    }

    /// An empty relation from an interned symbol.
    pub fn with_symbol(name: Symbol, arity: usize) -> Relation {
        Relation { name, arity, tuples: BTreeSet::new() }
    }

    /// The relation's name symbol.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple. Panics on arity mismatch. Returns true if new.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.arity,
            "arity mismatch inserting into {}: expected {}, got {}",
            self.name,
            self.arity,
            t.arity()
        );
        self.tuples.insert(t)
    }

    /// Remove a tuple; returns true if it was present.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.tuples.remove(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Iterate over the tuples in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// All nulls occurring in this relation.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.tuples.iter().flat_map(Tuple::nulls).collect()
    }

    /// All constants occurring in this relation.
    pub fn consts(&self) -> BTreeSet<Cst> {
        self.tuples.iter().flat_map(|t| t.consts()).collect()
    }

    /// True iff no tuple contains a null.
    pub fn is_complete(&self) -> bool {
        self.tuples.iter().all(Tuple::is_complete)
    }

    /// Tuple-wise image under a value substitution.
    pub fn map(&self, mut f: impl FnMut(crate::value::Value) -> crate::value::Value) -> Relation {
        let mut out = Relation::with_symbol(self.name, self.arity);
        for t in &self.tuples {
            out.tuples.insert(t.map(&mut f));
        }
        out
    }
}

/// One `R(…).` line per tuple, in [`display_order`](crate::tuple::display_order).
impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name.resolve();
        for t in crate::tuple::display_order(&self.tuples) {
            writeln!(f, "{name}{t}.")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{cst, int, Value};

    #[test]
    fn insert_and_query() {
        let mut r = Relation::new("R", 2);
        assert!(r.insert(Tuple::new(vec![cst("a"), int(1)])));
        assert!(!r.insert(Tuple::new(vec![cst("a"), int(1)])));
        assert!(r.contains(&Tuple::new(vec![cst("a"), int(1)])));
        assert_eq!(r.len(), 1);
        assert!(r.is_complete());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new("R", 2);
        r.insert(Tuple::new(vec![cst("a")]));
    }

    #[test]
    fn nulls_and_consts() {
        let n = NullId::fresh();
        let mut r = Relation::new("R", 2);
        r.insert(Tuple::new(vec![cst("a"), Value::Null(n)]));
        assert_eq!(r.nulls().into_iter().collect::<Vec<_>>(), vec![n]);
        assert!(!r.is_complete());
        let mapped = r.map(|v| if v.is_null() { cst("b") } else { v });
        assert!(mapped.is_complete());
        assert_eq!(mapped.len(), 1);
    }

    #[test]
    fn map_can_merge_tuples() {
        let (n1, n2) = (NullId::fresh(), NullId::fresh());
        let mut r = Relation::new("R", 1);
        r.insert(Tuple::new(vec![Value::Null(n1)]));
        r.insert(Tuple::new(vec![Value::Null(n2)]));
        assert_eq!(r.len(), 2);
        let merged = r.map(|_| cst("same"));
        assert_eq!(merged.len(), 1);
    }
}
