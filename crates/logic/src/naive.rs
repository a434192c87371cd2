//! Naïve evaluation of generic queries over incomplete databases
//! (Definitions 2–3 of the paper).
//!
//! Naïve evaluation treats nulls as pairwise distinct fresh constants:
//! pick any `C`-bijective valuation `v`, evaluate `Q(v(D))`, and map the
//! fresh constants back to their nulls. By Proposition 1 the result is
//! independent of the chosen bijective valuation, and by Theorem 1 it is
//! exactly the set of *almost certainly true* answers.

use crate::ast::Query;
use crate::eval::Evaluator;
use caz_idb::{Database, Tuple, Valuation};
use std::collections::BTreeSet;

/// `Q^naïve(D) = v⁻¹(Q(v(D)))` for a `C`-bijective valuation `v`.
///
/// The result is a set of tuples over `adom(D)` that may contain nulls —
/// e.g. on the graph `E(c,c′), E(c′,⊥)` the distance-2 query returns
/// `{⊥}` (the worked example of §3.1):
///
/// ```
/// use caz_idb::{parse_database, Tuple, Value};
/// use caz_logic::{naive_eval, parse_query};
///
/// let p = parse_database("E(c, c2). E(c2, _b).").unwrap();
/// let phi = parse_query("Phi(x) := exists y. E('c', y) & E(y, x)").unwrap();
/// let ans = naive_eval(&phi, &p.db);
/// assert_eq!(ans, [Tuple::new(vec![Value::Null(p.nulls["b"])])].into());
/// ```
pub fn naive_eval(q: &Query, db: &Database) -> BTreeSet<Tuple> {
    let v = Valuation::naive(db, &q.generic_consts());
    let vd = v.apply_db(db);
    let back = v.inverse_subst();
    Evaluator::new(&vd, q).answers().into_iter().map(|t| t.map(&back)).collect()
}

/// Naïve evaluation of a Boolean query.
pub fn naive_eval_bool(q: &Query, db: &Database) -> bool {
    assert!(q.is_boolean(), "{} is not Boolean", q.name);
    let vd = Valuation::naive(db, &q.generic_consts()).apply_db(db);
    Evaluator::new(&vd, q).eval_bool()
}

/// Is `t` (a tuple over `adom(D)`, possibly with nulls) in `Q^naïve(D)`?
pub fn naive_contains(q: &Query, db: &Database, t: &Tuple) -> bool {
    // The tuple's constants are avoided too, so no null of D can
    // valuate onto one of them.
    let mut avoid = q.generic_consts();
    avoid.extend(t.consts());
    let v = Valuation::naive(db, &avoid);
    let vd = v.apply_db(db);
    let vt = v.apply_tuple(t);
    if !vt.is_complete() {
        // The tuple mentions a null not occurring in the database; it can
        // never be an answer over adom(D).
        return false;
    }
    Evaluator::new(&vd, q).satisfies(&vt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{con, var, Formula};
    use caz_idb::{parse_database, NullId, Symbol, Value};

    fn q(name: &str, head: &[&str], body: Formula) -> Query {
        Query::new(name, head.iter().map(|v| Symbol::intern(v)).collect(), body).unwrap()
    }

    #[test]
    fn distance_two_example() {
        // §3.1: G has edges (c, c′), (c′, ⊥); φ(x) = ∃y E(c, y) ∧ E(y, x)
        // evaluates naïvely to {⊥}.
        let parsed = parse_database("E(c, c2). E(c2, _b).").unwrap();
        let phi = q(
            "phi",
            &["x"],
            Formula::exists(
                ["y"],
                Formula::and([
                    Formula::atom("E", vec![con("c"), var("y")]),
                    Formula::atom("E", vec![var("y"), var("x")]),
                ]),
            ),
        );
        let ans = naive_eval(&phi, &parsed.db);
        let bottom = parsed.nulls["b"];
        assert_eq!(ans, [Tuple::new(vec![Value::Null(bottom)])].into());
    }

    #[test]
    fn intro_example_naive_answers() {
        // §1: Q(x,y) = R1(x,y) ∧ ¬R2(x,y) naïvely yields (c1,⊥1), (c2,⊥2).
        let p = parse_database(
            "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
             R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
        )
        .unwrap();
        let query = q(
            "Q",
            &["x", "y"],
            Formula::and([
                Formula::atom("R1", vec![var("x"), var("y")]),
                Formula::not(Formula::atom("R2", vec![var("x"), var("y")])),
            ]),
        );
        let ans = naive_eval(&query, &p.db);
        let (p1, p2) = (p.nulls["p1"], p.nulls["p2"]);
        assert_eq!(
            ans,
            [
                Tuple::new(vec![caz_idb::cst("c1"), Value::Null(p1)]),
                Tuple::new(vec![caz_idb::cst("c2"), Value::Null(p2)]),
            ]
            .into()
        );
    }

    #[test]
    fn proposition_1_independence() {
        // Two runs (hence two different bijective valuations) agree.
        let db = parse_database("R(_x, _y). R(_y, a).").unwrap().db;
        let query = q(
            "Q",
            &["u", "v"],
            Formula::atom("R", vec![var("u"), var("v")]),
        );
        assert_eq!(naive_eval(&query, &db), naive_eval(&query, &db));
        // A query returning R returns R itself, nulls included.
        assert_eq!(naive_eval(&query, &db).len(), 2);
    }

    #[test]
    fn nulls_treated_as_distinct() {
        let p = parse_database("R(_x). S(_y).").unwrap();
        // ∃u R(u) ∧ S(u): false naïvely since ⊥x and ⊥y are distinct.
        let query = q(
            "s",
            &[],
            Formula::exists(
                ["u"],
                Formula::and([
                    Formula::atom("R", vec![var("u")]),
                    Formula::atom("S", vec![var("u")]),
                ]),
            ),
        );
        assert!(!naive_eval_bool(&query, &p.db));
        // But a shared null makes it true.
        let p2 = parse_database("R(_x). S(_x).").unwrap();
        assert!(naive_eval_bool(&query, &p2.db));
    }

    #[test]
    fn naive_contains_matches_naive_eval() {
        let p = parse_database("R(a, _x). R(_x, b).").unwrap().db;
        let query = q("Q", &["u", "v"], Formula::atom("R", vec![var("u"), var("v")]));
        let ans = naive_eval(&query, &p);
        for t in &ans {
            assert!(naive_contains(&query, &p, t));
        }
        let foreign = NullId::fresh();
        assert!(!naive_contains(
            &query,
            &p,
            &Tuple::new(vec![Value::Null(foreign), caz_idb::cst("b")])
        ));
    }

    #[test]
    fn boolean_negation_flips() {
        let db = parse_database("U(_x).").unwrap().db;
        let query = q("s", &[], Formula::exists(["u"], Formula::atom("U", vec![var("u")])));
        assert!(naive_eval_bool(&query, &db));
        assert!(!naive_eval_bool(&query.negated(), &db));
    }
}
