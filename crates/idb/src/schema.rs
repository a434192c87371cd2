//! Relational schemas: relation names with arities.

use crate::value::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// A relational schema: a finite map from relation names to arities.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    rels: BTreeMap<Symbol, usize>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Build from `(name, arity)` pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> Schema {
        let mut s = Schema::new();
        for (name, arity) in pairs {
            s.declare(name, arity);
        }
        s
    }

    /// Declare a relation. Panics if redeclared with a different arity.
    pub fn declare(&mut self, name: &str, arity: usize) -> Symbol {
        let sym = Symbol::intern(name);
        self.declare_symbol(sym, arity);
        sym
    }

    /// Declare by symbol. Panics if redeclared with a different arity.
    pub fn declare_symbol(&mut self, sym: Symbol, arity: usize) {
        if let Some(&a) = self.rels.get(&sym) {
            assert_eq!(a, arity, "relation {sym} redeclared with arity {arity} (was {a})");
        } else {
            self.rels.insert(sym, arity);
        }
    }

    /// Arity of a relation, if declared.
    pub fn arity(&self, sym: Symbol) -> Option<usize> {
        self.rels.get(&sym).copied()
    }

    /// Arity of a relation by name, if declared.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.arity(Symbol::lookup(name)?)
    }

    /// Iterate over `(name, arity)` in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.rels.iter().map(|(&s, &a)| (s, a))
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True iff no relation is declared.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// True iff this schema declares every relation of `other` with
    /// matching arities.
    pub fn includes(&self, other: &Schema) -> bool {
        other.iter().all(|(s, a)| self.arity(s) == Some(a))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<_> = self.rels.iter().map(|(s, a)| (s.resolve(), *a)).collect();
        names.sort();
        for (i, (name, arity)) in names.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name}/{arity}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let s = Schema::from_pairs([("R", 2), ("S", 1)]);
        assert_eq!(s.arity_of("R"), Some(2));
        assert_eq!(s.arity_of("S"), Some(1));
        assert_eq!(s.arity_of("T"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "redeclared")]
    fn arity_conflict_panics() {
        let mut s = Schema::new();
        s.declare("R", 2);
        s.declare("R", 3);
    }

    #[test]
    fn redeclare_same_arity_ok() {
        let mut s = Schema::new();
        s.declare("R", 2);
        s.declare("R", 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn inclusion() {
        let big = Schema::from_pairs([("R", 2), ("S", 1)]);
        let small = Schema::from_pairs([("R", 2)]);
        assert!(big.includes(&small));
        assert!(!small.includes(&big));
        let wrong = Schema::from_pairs([("R", 3)]);
        assert!(!big.includes(&wrong));
    }
}
