//! Polynomial-time comparisons for unions of conjunctive queries
//! (Theorem 8).
//!
//! Naïve evaluation does not help with `⊴` even for UCQs (the §5.1
//! example). Instead, Theorem 8 gives a small-certificate criterion:
//! `Sep(Q, D, ā, b̄)` holds iff there are
//!
//! * a sub-instance `D′ ⊆ D` with at most `p + k` tuples whose active
//!   domain contains every *null* of `ā` (`p` = max atoms per
//!   disjunct, `k` = arity) — nulls need witness facts so the
//!   valuation is defined on them, while constants of `ā` are already
//!   in the witness pool and need none (a null of `D′` may valuate to
//!   a constant of `ā` that appears nowhere in `D`), and
//! * a valuation `v′` on the nulls of `D′` with range in
//!   `A = Const(D) ∪ C ∪ A_m`,
//!
//! such that `v′(ā) ∈ Q(v′(D′))` and `v′(b̄) ∉ Q^naïve(v′(D))` — note
//! `v′(D)` may still contain nulls, whence the naïve evaluation. For a
//! fixed query this is polynomial in the size of `D`.
//!
//! Two things keep the search cheap. The naïve test needs no valuation
//! of its own: one bijection of `Null(D)` onto constants outside `A`,
//! overridden by `v′`, is a total valuation `w` with
//! `w(b̄) ∉ Q(w(D))` iff `v′(b̄) ∉ Q^naïve(v′(D))`. And the fresh tail
//! `A_m` is enumerated in first-use order, since any permutation of
//! `A_m` that fixes the named constants maps certificates to
//! certificates.

use caz_idb::{Cst, Database, NullId, Tuple, Valuation, Value};
use caz_logic::{tuple_in_answer, Query, Ucq};
use std::collections::BTreeSet;

/// A UCQ packaged for PTIME comparisons.
pub struct UcqComparator {
    query: Query,
    /// `p + k`: the certificate size bound.
    bound: usize,
}

impl UcqComparator {
    /// Normalize a query; `None` if it is not a union of conjunctive
    /// queries.
    pub fn new(q: &Query) -> Option<UcqComparator> {
        let ucq = Ucq::from_query(q)?;
        Some(UcqComparator {
            query: q.clone(),
            bound: ucq.max_atoms() + q.arity(),
        })
    }

    /// The certificate size bound `p + k`.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// `Sep(Q, D, ā, b̄)` via the small-certificate criterion.
    pub fn sep(&self, db: &Database, a: &Tuple, b: &Tuple) -> bool {
        // The named part of the witness pool A = Const(D) ∪ C ∪ A_m,
        // with the tuples' constants added.
        let mut named: BTreeSet<Cst> = db.consts();
        named.extend(self.query.generic_consts());
        for t in [a, b] {
            named.extend(t.consts());
        }
        // A_m: one fresh constant per null of D, outside the named part.
        let tail = Valuation::naive(db, &named).range();
        // One bijection of Null(D) onto constants outside the whole
        // pool. Overridden by a candidate v′ it is a total valuation w,
        // and w(D) is v′(D) under a C-bijective valuation, so
        // w(b̄) ∉ Q(w(D)) iff v′(b̄) ∉ Q^naïve(v′(D)) (Proposition 1).
        let naive = Valuation::naive(db, &named.union(&tail).copied().collect());

        // All tuples of D as (relation, tuple) facts.
        let facts: Vec<(String, Tuple)> = db
            .relations()
            .flat_map(|r| {
                let name = r.name().resolve();
                r.iter().map(move |t| (name.clone(), t.clone()))
            })
            .collect();

        // Only the nulls of ā need covering facts: v′ is defined on
        // nulls(D′), so every null of ā must be one of them. Requiring
        // coverage of ā's *constants* too would wrongly reject
        // witnesses where a null of D′ valuates to a constant of ā
        // that never appears in D.
        let needed: BTreeSet<Value> = a
            .values()
            .iter()
            .copied()
            .filter(|v| matches!(v, Value::Null(_)))
            .collect();
        let search = Search {
            query: &self.query,
            bound: self.bound,
            db,
            a,
            b,
            facts,
            needed,
            named: named.into_iter().collect(),
            tail: tail.into_iter().collect(),
            naive,
        };
        search.subsets(0, &mut Vec::new())
    }

    /// `ā ⊴ b̄` in polynomial time.
    pub fn dominated(&self, db: &Database, a: &Tuple, b: &Tuple) -> bool {
        !self.sep(db, a, b)
    }

    /// `ā ⊲ b̄` in polynomial time.
    pub fn strictly_better(&self, db: &Database, a: &Tuple, b: &Tuple) -> bool {
        !self.sep(db, a, b) && self.sep(db, b, a)
    }

    /// `Best(Q, D)` over `adom` candidates using pairwise PTIME
    /// comparisons.
    pub fn best_answers(&self, db: &Database) -> BTreeSet<Tuple> {
        let candidates = crate::bitmap::adom_candidates(db, self.query.arity());
        let mut best = BTreeSet::new();
        for a in &candidates {
            let beaten = candidates
                .iter()
                .any(|b| b != a && self.strictly_better(db, a, b));
            if !beaten {
                best.insert(a.clone());
            }
        }
        best
    }
}

/// One `Sep(Q, D, ā, b̄)` search: the inputs and what every candidate
/// certificate shares.
struct Search<'a> {
    query: &'a Query,
    bound: usize,
    db: &'a Database,
    a: &'a Tuple,
    b: &'a Tuple,
    facts: Vec<(String, Tuple)>,
    /// The nulls of ā, which `D′` must cover.
    needed: BTreeSet<Value>,
    /// `Const(D) ∪ C` and the tuples' constants.
    named: Vec<Cst>,
    /// `A_m`, tried in first-use order.
    tail: Vec<Cst>,
    /// A bijection of `Null(D)` onto constants outside the pool.
    naive: Valuation,
}

impl Search<'_> {
    /// Enumerate sub-instances of at most `bound` facts (with pruning on
    /// the ā-coverage requirement) and test the certificate.
    fn subsets(&self, start: usize, chosen: &mut Vec<usize>) -> bool {
        // Test the current sub-instance (including the empty one when ā
        // needs no coverage, e.g. Boolean queries).
        if self.certificate(chosen) {
            return true;
        }
        if chosen.len() == self.bound {
            return false;
        }
        for i in start..self.facts.len() {
            chosen.push(i);
            if self.subsets(i + 1, chosen) {
                chosen.pop();
                return true;
            }
            chosen.pop();
        }
        false
    }

    fn certificate(&self, chosen: &[usize]) -> bool {
        // D′ must cover the components of ā.
        let mut sub = Database::new();
        // Keep the schema so evaluation sees the right relations.
        for r in self.db.relations() {
            sub.relation_mut(&r.name().resolve(), r.arity());
        }
        let mut adom: BTreeSet<Value> = BTreeSet::new();
        for &i in chosen {
            let (name, t) = &self.facts[i];
            adom.extend(t.values().iter().copied());
            sub.insert(name, t.clone());
        }
        if !self.needed.iter().all(|v| adom.contains(v)) {
            return false;
        }
        // Valuations v′ on the nulls of D′ with range in the pool.
        let nulls: Vec<NullId> = sub.nulls().into_iter().collect();
        self.valuations(&sub, &nulls, 0, &mut Valuation::new())
    }

    /// Extend `v` to `nulls` in every way over `Const(D) ∪ C ∪ A_m`,
    /// the fresh tail in first-use order: `A_m[j]` is tried only once
    /// `A_m[j−1]` is used (`used` counts the tail's prefix in use).
    /// Certificates are closed under permutations of `A_m` that fix
    /// every named constant, so this loses none.
    fn valuations(&self, sub: &Database, nulls: &[NullId], used: usize, v: &mut Valuation) -> bool {
        let Some((&n, rest)) = nulls.split_first() else {
            return self.separates(sub, v);
        };
        for &c in &self.named {
            v.bind(n, c);
            if self.valuations(sub, rest, used, v) {
                return true;
            }
        }
        for (j, &c) in self.tail.iter().enumerate().take(used + 1) {
            v.bind(n, c);
            if self.valuations(sub, rest, used.max(j + 1), v) {
                return true;
            }
        }
        false
    }

    /// Is `v′` a certificate: `v′(ā) ∈ Q(v′(D′))` and
    /// `v′(b̄) ∉ Q^naïve(v′(D))`?
    fn separates(&self, sub: &Database, v: &Valuation) -> bool {
        let va = v.apply_tuple(self.a);
        if !va.is_complete() {
            return false; // ā has nulls outside D′ — not covered
        }
        if !tuple_in_answer(self.query, &v.apply_db(sub), &va) {
            return false;
        }
        let mut w = self.naive.clone();
        for (n, c) in v.iter() {
            w.bind(n, c);
        }
        // A null of b̄ outside D stays a null and is never an answer.
        let wb = w.apply_tuple(self.b);
        !wb.is_complete() || !tuple_in_answer(self.query, &w.apply_db(self.db), &wb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sep::sep as brute_sep;
    use caz_idb::{cst, parse_database, Value};
    use caz_logic::parse_query;

    #[test]
    fn rejects_non_ucq() {
        let q = parse_query("Q(x) := !R(x, x)").unwrap();
        assert!(UcqComparator::new(&q).is_none());
    }

    #[test]
    fn section_5_1_example() {
        // R = {(1,⊥),(⊥,2)}, Q returns R, ā = (1,2), b̄ = (1,1):
        // Sep(ā, b̄) holds (⊥ ↦ 2) although naïve implication says true.
        let p = parse_database("R(1, _x). R(_x, 2).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let cmp = UcqComparator::new(&q).unwrap();
        let a = Tuple::new(vec![cst("1"), cst("2")]);
        let b = Tuple::new(vec![cst("1"), cst("1")]);
        assert!(cmp.sep(&p.db, &a, &b));
        assert!(!cmp.dominated(&p.db, &a, &b));
        // And Sep(b̄, ā) is false: every valuation supporting b̄ (⊥↦1)
        // also supports ā? v(⊥)=1: R = {(1,1),(1,2)}: ā=(1,2) ∈ R ✓.
        assert!(!cmp.sep(&p.db, &b, &a));
        assert!(cmp.strictly_better(&p.db, &b, &a));
    }

    #[test]
    fn agrees_with_brute_force_on_examples() {
        let cases = [
            ("R(1, _x). R(_x, 2).", "Q(u, v) := R(u, v)"),
            ("R(a, _x). S(_x, b). S(a, a).", "Q(u) := exists y. R(u, y) & S(y, u)"),
            (
                "R(a, _x). S(_y).",
                "Q(u) := R(u, u) | (exists w. R(u, w) & S(w))",
            ),
        ];
        for (dbsrc, qsrc) in cases {
            let p = parse_database(dbsrc).unwrap();
            let q = parse_query(qsrc).unwrap();
            let cmp = UcqComparator::new(&q).unwrap();
            let candidates = crate::bitmap::adom_candidates(&p.db, q.arity());
            for a in &candidates {
                for b in &candidates {
                    assert_eq!(
                        cmp.sep(&p.db, a, b),
                        brute_sep(&q, &p.db, a, b),
                        "Sep({a}, {b}) for {qsrc} on {dbsrc}"
                    );
                }
            }
        }
    }

    #[test]
    fn separation_with_out_of_domain_constants() {
        // Caught by the planner differential suite: ā = (d, ⊥w) where
        // the constant d appears nowhere in D. Sep((d,⊥w), (a,⊥z))
        // holds via ⊥y↦d, ⊥w↦c, ⊥z↦b — the witness needs a null of D′
        // to valuate *to* d — but the old coverage check demanded d in
        // adom(D′), rejected every sub-instance, and wrongly reported
        // domination.
        let p = parse_database("R(_y, c). R(_w, _z). R(a, a). S(b). S(_y).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let cmp = UcqComparator::new(&q).unwrap();
        let a = Tuple::new(vec![cst("a"), Value::Null(p.nulls["z"])]);
        let b = Tuple::new(vec![cst("d"), Value::Null(p.nulls["w"])]);
        for (x, y) in [(&a, &b), (&b, &a)] {
            assert_eq!(
                cmp.sep(&p.db, x, y),
                brute_sep(&q, &p.db, x, y),
                "Sep({x}, {y})"
            );
        }
        assert!(cmp.sep(&p.db, &b, &a), "⊥y↦d puts (d, c) into v(D′)");
        assert!(!cmp.dominated(&p.db, &b, &a), "the tuples are incomparable");
    }

    #[test]
    fn certificate_needing_two_fresh_constants() {
        // No named constant at all: Sep((⊥x, ⊥y), (⊥y, ⊥x)) needs
        // ⊥x ≠ ⊥y, so the only certificates take A_m[0] and A_m[1].
        let p = parse_database("R(_x, _y).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let cmp = UcqComparator::new(&q).unwrap();
        let (x, y) = (Value::Null(p.nulls["x"]), Value::Null(p.nulls["y"]));
        let a = Tuple::new(vec![x, y]);
        let b = Tuple::new(vec![y, x]);
        assert!(cmp.sep(&p.db, &a, &b));
        assert_eq!(cmp.sep(&p.db, &a, &b), brute_sep(&q, &p.db, &a, &b));
        assert!(!cmp.sep(&p.db, &a, &a));
    }

    #[test]
    fn boolean_ucq_comparisons() {
        let p = parse_database("R(_x). S(a).").unwrap();
        let q = parse_query("Q := exists u. R(u) & S(u)").unwrap();
        let cmp = UcqComparator::new(&q).unwrap();
        let unit = Tuple::empty();
        // Supp(()) vs itself: no separation.
        assert!(!cmp.sep(&p.db, &unit, &unit));
        assert!(cmp.dominated(&p.db, &unit, &unit));
    }

    #[test]
    fn best_answers_ucq_matches_bitmap_engine() {
        let p = parse_database("R(1, _n1). R(2, _n2). R(2, 5).").unwrap();
        let q = parse_query("Q(x, y) := R(x, y)").unwrap();
        let cmp = UcqComparator::new(&q).unwrap();
        let fast = cmp.best_answers(&p.db);
        let slow = crate::best::best_answers(&q, &p.db);
        assert_eq!(fast, slow);
        // Certain answers (all of R) are exactly the best answers here.
        let b = Tuple::new(vec![cst("2"), Value::Null(p.nulls["n2"])]);
        assert!(fast.contains(&b));
    }
}
