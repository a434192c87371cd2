//! The separation predicate `Sep(Q, D, ā, b̄)`:
//! `Supp(Q, D, ā) − Supp(Q, D, b̄) ≠ ∅`.
//!
//! Knowing `Sep` in both directions decides both comparison orders
//! (Theorem 6): `ā ⊴ b̄` iff `¬Sep(ā, b̄)`, and `ā ⊲ b̄` iff additionally
//! `Sep(b̄, ā)`.
//!
//! Exactness: both supports are unions of Theorem 3's classes over
//! `A = Const(D) ∪ C ∪ consts(ā, b̄)` (genericity, as in the
//! range-reduction argument of Theorem 8's proof), so a separating
//! valuation exists iff some class representative separates. The search
//! walks `census_classes(m, |A|)` classes, the exponential the
//! coNP/DP-hardness results say cannot be avoided in general; Theorem
//! 8's PTIME algorithm for UCQs lives in [`crate::ucq`].

use caz_core::{exists_class, named_pool, SuppEvent, TupleAnswerEvent};
use caz_idb::{Database, Tuple};
use caz_logic::Query;

/// `∃v: ea(v) ∧ ¬eb(v)`, searched over the classes of
/// [`caz_core::walk_classes`]; stops at the first separating class.
pub fn sep_events(ea: &dyn SuppEvent, eb: &dyn SuppEvent, db: &Database) -> bool {
    let named = named_pool(db, ea.constants().into_iter().chain(eb.constants()));
    exists_class(db, &named, |v, vdb| ea.holds(v, vdb) && !eb.holds(v, vdb))
}

/// `Sep(Q, D, ā, b̄)`: some valuation supports `ā` but not `b̄`.
pub fn sep(q: &Query, db: &Database, a: &Tuple, b: &Tuple) -> bool {
    let ea = TupleAnswerEvent::new(q.clone(), a.clone());
    let eb = TupleAnswerEvent::new(q.clone(), b.clone());
    sep_events(&ea, &eb, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_idb::{cst, parse_database, Value};
    use caz_logic::parse_query;

    #[test]
    fn section_5_running_example() {
        // D: R = {(1,⊥1),(2,⊥2)}, S = {(1,⊥2),(⊥3,⊥1)};
        // Q = R − S. Then Sep(ā, b̄) is false and Sep(b̄, ā) is true
        // for ā = (1,⊥1), b̄ = (2,⊥2).
        let p = parse_database("R(1, _n1). R(2, _n2). S(1, _n2). S(_n3, _n1).").unwrap();
        let q = parse_query("Q(x, y) := R(x, y) & !S(x, y)").unwrap();
        let a = Tuple::new(vec![cst("1"), Value::Null(p.nulls["n1"])]);
        let b = Tuple::new(vec![cst("2"), Value::Null(p.nulls["n2"])]);
        assert!(!sep(&q, &p.db, &a, &b), "Supp(ā) ⊆ Supp(b̄)");
        assert!(sep(&q, &p.db, &b, &a), "Supp(b̄) ⊄ Supp(ā)");
    }

    #[test]
    fn naive_evaluation_cannot_decide_domination() {
        // §5.1: D with R = {(1,⊥),(⊥,2)}, Q returning R, ā = (1,2),
        // b̄ = (1,1): naïve evaluation of Q(ā)→Q(b̄) is true, yet ā ⊴ b̄
        // fails: Supp(ā) = {⊥↦1, ⊥↦2}, Supp(b̄) = {⊥↦1}.
        let p = parse_database("R(1, _x). R(_x, 2).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let a = Tuple::new(vec![cst("1"), cst("2")]);
        let b = Tuple::new(vec![cst("1"), cst("1")]);
        assert!(sep(&q, &p.db, &a, &b), "⊥ ↦ 2 supports ā but not b̄");
    }

    #[test]
    fn sep_of_tuple_with_itself_is_false() {
        let p = parse_database("R(1, _x).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let a = Tuple::new(vec![cst("1"), Value::Null(p.nulls["x"])]);
        assert!(!sep(&q, &p.db, &a, &a));
    }

    #[test]
    fn fresh_values_matter() {
        // Supp(ā) \ Supp(b̄) witnessed only by a fresh (non-named) value.
        let p = parse_database("R(_x).").unwrap();
        // Q(u) := R(u) & u != 'a'
        let q = parse_query("Q(u) := R(u) & u != 'a'").unwrap();
        let a = Tuple::new(vec![Value::Null(p.nulls["x"])]);
        let b = Tuple::new(vec![cst("a")]);
        // Supp(a) = {v(⊥) ≠ a}; Supp(b): v(b)=a, a ∈ Q(v(D)) requires a∈R
        // and a≠a: never. So Sep(a,b) needs any v(⊥) ≠ a: fresh witness.
        assert!(sep(&q, &p.db, &a, &b));
        assert!(!sep(&q, &p.db, &b, &a));
    }
}
