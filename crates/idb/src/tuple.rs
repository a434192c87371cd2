//! Tuples of database values.

use crate::value::{Cst, NullId, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Index;

/// A tuple over `Const ∪ Null`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tuple(Vec<Value>);

impl Tuple {
    /// The empty (arity-0) tuple `()`. As in the paper, Boolean queries
    /// return either `∅` (false) or `{()}` (true).
    pub fn empty() -> Tuple {
        Tuple(Vec::new())
    }

    /// Build from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple(values)
    }

    /// Arity of this tuple.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Values in order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Iterate over the values.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// True iff no component is a null.
    pub fn is_complete(&self) -> bool {
        self.0.iter().all(|v| !v.is_null())
    }

    /// The set of nulls occurring in this tuple.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.0.iter().filter_map(Value::as_null).collect()
    }

    /// The set of constants occurring in this tuple.
    pub fn consts(&self) -> BTreeSet<Cst> {
        self.0.iter().filter_map(Value::as_const).collect()
    }

    /// Apply a value substitution component-wise.
    pub fn map(&self, mut f: impl FnMut(Value) -> Value) -> Tuple {
        Tuple(self.0.iter().map(|&v| f(v)).collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        Tuple(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple(iter.into_iter().collect())
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// The tuples in the order reports list them: component by component,
/// constants by name, then nulls by id. `Tuple`'s own `Ord` compares
/// constants by interning id — the order in which the process first saw
/// them — so listing a set in that order would depend on what else the
/// process had parsed before. Null ids are allocated in first-mention
/// order, so their order is the input's own.
pub(crate) fn display_order<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Vec<&'a Tuple> {
    /// One component's place in the order.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Key {
        Const(String),
        Null(u32),
    }
    let mut sorted: Vec<&Tuple> = tuples.into_iter().collect();
    sorted.sort_by_cached_key(|t| {
        let key = |v: &Value| match v {
            Value::Const(c) => Key::Const(c.name()),
            Value::Null(n) => Key::Null(n.raw()),
        };
        t.iter().map(key).collect::<Vec<_>>()
    });
    sorted
}

/// Render a collection of tuples as `{(a, b), (c, d)}` for reports, in
/// [`display_order`].
pub fn format_tuples<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> String {
    let mut out = String::from("{");
    for (i, t) in display_order(tuples).into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&t.to_string());
    }
    out.push('}');
    out
}

/// Convenience constructor: a tuple from anything convertible to values.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{cst, int};

    #[test]
    fn basics() {
        let n = NullId::fresh();
        let t = Tuple::new(vec![cst("a"), Value::Null(n), int(3)]);
        assert_eq!(t.arity(), 3);
        assert!(!t.is_complete());
        assert_eq!(t.nulls().len(), 1);
        assert_eq!(t.consts().len(), 2);
        assert_eq!(t[0], cst("a"));
    }

    #[test]
    fn tuples_render_by_name_whatever_the_interning_order() {
        // Interned `b` first, so by symbol id `b` sorts before `a`; and
        // `_y` is mentioned before `_x`, so it has the smaller null id.
        let b = cst("render_order_b");
        let a = cst("render_order_a");
        let (y, x) = (NullId::named("y"), NullId::named("x"));
        let mut rel = crate::Relation::new("R", 2);
        for t in [[b, a], [a, Value::Null(x)], [a, b], [Value::Null(y), a], [Value::Null(x), b]] {
            rel.insert(Tuple::new(t.to_vec()));
        }
        let tuples: Vec<&Tuple> = rel.iter().collect();
        assert_eq!(
            format_tuples(tuples),
            "{(render_order_a, render_order_b), (render_order_a, ⊥x), \
             (render_order_b, render_order_a), (⊥y, render_order_a), (⊥x, render_order_b)}"
        );
        assert_eq!(
            rel.to_string(),
            "R(render_order_a, render_order_b).\nR(render_order_a, ⊥x).\n\
             R(render_order_b, render_order_a).\nR(⊥y, render_order_a).\nR(⊥x, render_order_b).\n"
        );
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        assert!(t.is_complete());
        assert_eq!(t.to_string(), "()");
    }

    #[test]
    fn map_substitutes() {
        let n = NullId::fresh();
        let t = Tuple::new(vec![Value::Null(n), cst("a")]);
        let s = t.map(|v| if v == Value::Null(n) { cst("b") } else { v });
        assert_eq!(s, Tuple::new(vec![cst("b"), cst("a")]));
    }

    #[test]
    fn macro_builds_tuples() {
        let t = tuple![Cst::new("a"), Cst::int(1)];
        assert_eq!(t.arity(), 2);
        assert!(t.is_complete());
    }
}
