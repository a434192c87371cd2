//! Datalog over incomplete databases: naïve evaluation, measures, and
//! certain answers — Theorem 1 beyond first-order logic.
//!
//! The paper stresses that its 0–1 law needs only genericity, "much
//! larger classes of queries" than FO. Datalog programs are generic
//! (they are least-fixed-point definable), so every notion plugs in
//! unchanged: naïve evaluation via bijective valuations computes the
//! almost certainly true answers, the support-polynomial engine computes
//! exact measures, and its class walk decides certain answers.

use crate::ast::Program;
use crate::eval::{output_contains, output_facts};
use caz_core::support::support_is_full;
use caz_core::SuppEvent;
use caz_idb::{Cst, Database, Tuple, Valuation};
use std::collections::BTreeSet;

/// `P^naïve(D)`: run the program with nulls as fresh distinct constants
/// and map them back. By Theorem 1 (which needs only genericity) these
/// are exactly the answers with `μ = 1`.
pub fn naive_eval_datalog(p: &Program, db: &Database) -> BTreeSet<Tuple> {
    let v = Valuation::naive(db, &p.generic_consts());
    let vdb = v.apply_db(db);
    let back = v.inverse_subst();
    output_facts(p, &vdb).into_iter().map(|t| t.map(&back)).collect()
}

/// Is `t` in `P^naïve(D)`?
pub fn naive_contains_datalog(p: &Program, db: &Database, t: &Tuple) -> bool {
    let mut avoid = p.generic_consts();
    avoid.extend(t.consts());
    let v = Valuation::naive(db, &avoid);
    let vdb = v.apply_db(db);
    let vt = v.apply_tuple(t);
    vt.is_complete() && output_contains(p, &vdb, &vt)
}

/// The generic event "`v(ā)` is an output fact of the program on
/// `v(D)`" — pluggable into every measure engine of `caz-core`.
pub struct DatalogEvent {
    program: Program,
    tuple: Tuple,
}

impl DatalogEvent {
    /// Event for a candidate answer tuple.
    pub fn new(program: Program, tuple: Tuple) -> DatalogEvent {
        assert_eq!(program.output_arity, tuple.arity(), "tuple arity mismatch");
        DatalogEvent { program, tuple }
    }

    /// Boolean event (arity-0 output predicate).
    pub fn boolean(program: Program) -> DatalogEvent {
        DatalogEvent::new(program, Tuple::empty())
    }
}

impl SuppEvent for DatalogEvent {
    fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
        let vt = v.apply_tuple(&self.tuple);
        vt.is_complete() && output_contains(&self.program, vdb, &vt)
    }

    fn constants(&self) -> BTreeSet<Cst> {
        let mut c = self.program.generic_consts();
        c.extend(self.tuple.consts());
        c
    }

    fn label(&self) -> String {
        format!("{}{}", self.program.output, self.tuple)
    }
}

/// Is `t` a certain answer of the Datalog program (true under every
/// valuation)? Exact via the class walk, which only needs genericity.
pub fn is_certain_datalog_answer(p: &Program, db: &Database, t: &Tuple) -> bool {
    support_is_full(&DatalogEvent::new(p.clone(), t.clone()), db)
}

/// All certain answers among the naïve ones (certain ⊆ naïve by
/// Corollary 1, which again needs only genericity).
pub fn certain_datalog_answers(p: &Program, db: &Database) -> BTreeSet<Tuple> {
    naive_eval_datalog(p, db)
        .into_iter()
        .filter(|t| is_certain_datalog_answer(p, db, t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use caz_arith::Ratio;
    use caz_core::{mu_exact, mu_k};
    use caz_idb::{cst, parse_database, Value};

    fn tc() -> Program {
        parse_program(
            "path(x, y) :- edge(x, y).
             path(x, z) :- path(x, y), edge(y, z).
             output path",
        )
        .unwrap()
    }

    #[test]
    fn naive_eval_reaches_through_nulls() {
        // a → ⊥ → c: naïvely, a reaches c through the unknown midpoint.
        let p = parse_database("edge(a, _m). edge(_m, c).").unwrap();
        let ans = naive_eval_datalog(&tc(), &p.db);
        assert!(ans.contains(&Tuple::new(vec![cst("a"), cst("c")])));
        assert!(ans.contains(&Tuple::new(vec![cst("a"), Value::Null(p.nulls["m"])])));
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn zero_one_law_beyond_fo() {
        // Theorem 1 for a non-FO query: transitive closure.
        let p = parse_database("edge(a, _m). edge(_m, c). edge(c, _w).").unwrap();
        let prog = tc();
        for (t, expected) in [
            (Tuple::new(vec![cst("a"), cst("c")]), Ratio::one()),
            (Tuple::new(vec![cst("a"), Value::Null(p.nulls["w"])]), Ratio::one()),
            (Tuple::new(vec![cst("c"), cst("a")]), Ratio::zero()),
        ] {
            let ev = DatalogEvent::new(prog.clone(), t.clone());
            let exact = mu_exact(&ev, &p.db).unwrap();
            assert_eq!(exact, expected, "μ for {t}");
            assert_eq!(
                exact.is_one(),
                naive_contains_datalog(&prog, &p.db, &t),
                "Theorem 1 for Datalog on {t}"
            );
        }
    }

    #[test]
    fn finite_measures_converge() {
        // reach(c, a) needs v(⊥m) to close the cycle: μᵏ = 1/k-ish.
        let p = parse_database("edge(a, _m). edge(_m, c).").unwrap();
        let t = Tuple::new(vec![cst("c"), cst("c")]);
        // c reaches c iff the cycle closes: v(⊥) = c… actually
        // edge(c, v(⊥))? No — only if v(⊥m) = c? Then edge(a,c),edge(c,c):
        // c → c. So Supp = {v(⊥)=c}: μᵏ = 1/k.
        let ev = DatalogEvent::new(tc(), t);
        for k in 2..=6usize {
            assert_eq!(mu_k(&ev, &p.db, k), Ratio::from_frac(1, k as i64), "k={k}");
        }
        assert!(mu_exact(&ev, &p.db).unwrap().is_zero());
    }

    #[test]
    fn certain_datalog_answers_work() {
        // a → b is certain; a → ⊥ is certain (it is a fact with a null);
        // a → c via ⊥ is not certain (⊥ need not be c's predecessor)…
        // here it IS: edge(a,⊥), edge(⊥,c): a reaches c under EVERY
        // valuation (the path exists whatever ⊥ is).
        let p = parse_database("edge(a, _m). edge(_m, c).").unwrap();
        let prog = tc();
        let ac = Tuple::new(vec![cst("a"), cst("c")]);
        assert!(is_certain_datalog_answer(&prog, &p.db, &ac));
        let certain = certain_datalog_answers(&prog, &p.db);
        assert_eq!(certain.len(), 3, "{certain:?}");
        // A tuple relying on a collision is not certain.
        let p2 = parse_database("edge(a, _m). edge(b, c).").unwrap();
        let ac2 = Tuple::new(vec![cst("a"), cst("c")]);
        assert!(!is_certain_datalog_answer(&tc(), &p2.db, &ac2));
        assert!(caz_core::mu_exact(&DatalogEvent::new(tc(), ac2), &p2.db).unwrap().is_zero());
    }

    #[test]
    fn stratified_negation_under_the_measure() {
        // sep(x,y): no path from x to y — a recursive query WITH
        // negation, still generic, still 0–1.
        let prog = parse_program(
            "path(x, y) :- edge(x, y).
             path(x, z) :- path(x, y), edge(y, z).
             sep(x, y) :- node(x), node(y), !path(x, y).
             output sep",
        )
        .unwrap();
        let p = parse_database(
            "node(a). node(b). node(c). edge(a, _m). edge(_m, b).",
        )
        .unwrap();
        // a reaches b through ⊥ under every valuation ⇒ sep(a,b) is
        // almost certainly (indeed certainly) false.
        let ab = Tuple::new(vec![cst("a"), cst("b")]);
        let ev_ab = DatalogEvent::new(prog.clone(), ab.clone());
        assert!(mu_exact(&ev_ab, &p.db).unwrap().is_zero());
        assert!(!naive_contains_datalog(&prog, &p.db, &ab));
        // c is isolated: sep(a,c) is almost certainly true (only the
        // collision v(⊥)=c could connect them)… and not certain.
        let ac = Tuple::new(vec![cst("a"), cst("c")]);
        let ev_ac = DatalogEvent::new(prog.clone(), ac.clone());
        assert!(mu_exact(&ev_ac, &p.db).unwrap().is_one());
        assert!(naive_contains_datalog(&prog, &p.db, &ac));
        assert!(!is_certain_datalog_answer(&prog, &p.db, &ac));
        for k in 3..=6usize {
            // Supp(¬sep(a,c)) = {v(⊥) = c}: μᵏ(sep(a,c)) = 1 − 1/k.
            assert_eq!(
                mu_k(&ev_ac, &p.db, k),
                Ratio::from_frac(k as i64 - 1, k as i64)
            );
        }
    }

    #[test]
    fn boolean_datalog_events() {
        let prog = parse_program(
            "cyclic() :- path(x, x).
             path(x, y) :- edge(x, y).
             path(x, z) :- path(x, y), edge(y, z).
             output cyclic",
        )
        .unwrap();
        let complete = parse_database("edge(a, b). edge(b, a).").unwrap().db;
        assert!(output_contains(&prog, &complete, &Tuple::empty()));
        // With a null end: cyclic iff v(⊥) closes the loop — possible,
        // not almost certain.
        let p = parse_database("edge(a, _m).").unwrap();
        let ev = DatalogEvent::boolean(prog.clone());
        assert!(mu_exact(&ev, &p.db).unwrap().is_zero());
        assert!(caz_core::support::support_is_nonempty(&ev, &p.db));
    }
}
