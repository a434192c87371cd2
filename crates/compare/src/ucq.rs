//! Polynomial-time comparisons for unions of conjunctive queries
//! (Theorem 8).
//!
//! Naïve evaluation does not help with `⊴` even for UCQs (the §5.1
//! example). But `Sep(Q, D, ā, b̄)` — some valuation `v` with
//! `v(ā) ∈ Q(v(D))` and `v(b̄) ∉ Q(v(D))` — has small certificates: a
//! match of one disjunct into `D` pins a separating valuation down to
//! the one its most general unifier determines.
//!
//! **The search.** For each disjunct `φ` of the normal form
//! ([`Ucq::from_query`]), assign each atom of `φ` to a fact of `D` with
//! the same relation, and unify in one union-find over `φ`'s variables
//! and `Null(D)`: each atom argument with its fact's value, each head
//! variable with the matching component of `ā`, and `φ`'s equalities.
//! A class carries at most one constant; a clash discards the
//! assignment. Answers are drawn from the active domain (§2), so a
//! constant `c` of `ā` outside `Const(D)` must be some null's value:
//! unless a null's class already holds `c`, the search branches over
//! binding one null of `D` to it (anchoring). The unifier then
//! determines one total valuation `w`: a null takes its class's
//! constant, and each class without one takes its own fresh constant
//! from [`Valuation::naive`]'s family, outside
//! `Const(D) ∪ C ∪ consts(ā, b̄)`. The match is a certificate iff
//! `w(ā) ∈ Q(w(D))` and `w(b̄) ∉ Q(w(D))`, both decided on the original
//! query. The matched facts plus one fact per anchored null are at most
//! `p + k` facts (`p` = max atoms per disjunct, `k` = arity): Theorem
//! 8's certificate bound.
//!
//! **Why this is exact.** Soundness: `w` is a total valuation. For
//! completeness, let `v` separate, and take a witness of
//! `v(ā) ∈ Q(v(D))`: a disjunct, an assignment `h` of its variables,
//! for each atom a fact `f` with `v(f) = h(atom)`, and for each
//! constant of `ā` outside `Const(D)` a null that `v` maps to it. `h`
//! and `v` satisfy every equation the search puts in for that
//! assignment and its anchors, so nothing clashes and every class has
//! one value under them. Hence `v = g ∘ w` on `Null(D)` for the map `g`
//! that fixes every named constant and sends each class's fresh
//! constant to that value. The same match, with the anchors, puts
//! `w(ā)` into `Q(w(D))`. UCQs are preserved under maps that fix `C`,
//! so `w(b̄) ∈ Q(w(D))` would give `v(b̄) ∈ Q(v(D))`: `w` separates.
//!
//! **Cost.** For a fixed query, `Σ_φ |D|^|φ| · |Null(D)|^(anchored
//! positions)` unifications, each followed by one `apply_db` and at
//! most two evaluations; no valuation is enumerated.

use caz_idb::{Cst, Database, NullId, Tuple, Valuation, Value};
use caz_logic::{CqDisjunct, Evaluator, Query, Term, Ucq};
use std::collections::BTreeSet;

/// A UCQ packaged for PTIME comparisons.
pub struct UcqComparator {
    query: Query,
    /// `C`: the query's constants.
    consts: BTreeSet<Cst>,
    /// The normal form's disjuncts.
    disjuncts: Vec<CqDisjunct>,
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
            consts: q.generic_consts(),
            bound: ucq.max_atoms() + q.arity(),
            disjuncts: ucq.disjuncts,
        })
    }

    /// The certificate size bound `p + k`.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// `Sep(Q, D, ā, b̄)`, searched over each disjunct's matches into
    /// `D` (see the module documentation).
    pub fn sep(&self, db: &Database, a: &Tuple, b: &Tuple) -> bool {
        let mut named = db.consts();
        // The constants of ā that only a null can put into adom.
        let anchors: Vec<Cst> = a.consts().into_iter().filter(|c| !named.contains(c)).collect();
        named.extend(&self.consts);
        named.extend(a.consts());
        named.extend(b.consts());
        // One fresh constant per null of D, outside every named one.
        let (nulls, fresh): (Vec<NullId>, Vec<Cst>) = Valuation::naive(db, &named).iter().unzip();
        let search = Unification { cmp: self, db, a, b, nulls, fresh, anchors };
        // A null of ā outside D is never valued: ā is in no support.
        let Some(head) = a.values().iter().map(|&v| search.side(v)).collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        let m = search.nulls.len();
        self.disjuncts.iter().any(|d| {
            let mut u = Unifier::new(m + self.query.arity() + d.exist_vars.len());
            let head = (m..).map(Side::Node).zip(head.iter().copied());
            let eqs = d.eqs.iter().map(|&(x, y)| (search.term(d, x), search.term(d, y)));
            head.chain(eqs).all(|(x, y)| u.unify(x, y)) && search.atoms(d, 0, &u)
        })
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

/// A node of the union-find or a constant.
#[derive(Clone, Copy)]
enum Side {
    Node(usize),
    Const(Cst),
}

/// A union-find whose classes carry at most one constant each.
#[derive(Clone)]
struct Unifier {
    parent: Vec<usize>,
    /// Each class's constant, kept at its root.
    value: Vec<Option<Cst>>,
}

impl Unifier {
    fn new(nodes: usize) -> Unifier {
        Unifier { parent: (0..nodes).collect(), value: vec![None; nodes] }
    }

    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    /// Equate two sides; `false` on a constant clash.
    fn unify(&mut self, x: Side, y: Side) -> bool {
        match (x, y) {
            (Side::Const(c), Side::Const(d)) => c == d,
            (Side::Node(i), Side::Const(c)) | (Side::Const(c), Side::Node(i)) => {
                let r = self.find(i);
                *self.value[r].get_or_insert(c) == c
            }
            (Side::Node(i), Side::Node(j)) => {
                let (r, s) = (self.find(i), self.find(j));
                match (self.value[r], self.value[s]) {
                    _ if r == s => true,
                    (Some(c), Some(d)) if c != d => false,
                    (c, d) => {
                        self.parent[r] = s;
                        self.value[s] = d.or(c);
                        true
                    }
                }
            }
        }
    }
}

/// One `Sep(Q, D, ā, b̄)` decision. The union-find's nodes are the
/// nulls of `D`, then the head variables in head order, then the
/// current disjunct's existential variables.
struct Unification<'a> {
    cmp: &'a UcqComparator,
    db: &'a Database,
    a: &'a Tuple,
    b: &'a Tuple,
    /// `Null(D)`, sorted.
    nulls: Vec<NullId>,
    /// One fresh constant per null: a class without a constant takes
    /// the one of its first null.
    fresh: Vec<Cst>,
    /// The constants of ā outside `Const(D)`.
    anchors: Vec<Cst>,
}

impl Unification<'_> {
    /// A database value as a side; `None` for a null outside `D`.
    fn side(&self, v: Value) -> Option<Side> {
        match v {
            Value::Const(c) => Some(Side::Const(c)),
            Value::Null(n) => self.nulls.binary_search(&n).ok().map(Side::Node),
        }
    }

    fn term(&self, d: &CqDisjunct, t: Term) -> Side {
        match t {
            Term::Const(c) => Side::Const(c),
            Term::Var(v) => {
                let mut vars = self.cmp.query.head.iter().chain(&d.exist_vars);
                let i = vars.position(|&u| u == v).expect("the normal form binds every variable");
                Side::Node(self.nulls.len() + i)
            }
        }
    }

    /// Assign atoms `i..` of `d` to facts of `D`, unifying as they go.
    fn atoms(&self, d: &CqDisjunct, i: usize, u: &Unifier) -> bool {
        let Some(atom) = d.atoms.get(i) else {
            return self.anchor(0, u);
        };
        let Some(facts) = self.db.relation_sym(atom.rel) else {
            return false;
        };
        for t in facts.iter() {
            let mut next = u.clone();
            let matched = atom.args.iter().zip(t.values()).all(|(&x, &v)| {
                let y = self.side(v).expect("a value of D");
                next.unify(self.term(d, x), y)
            });
            if matched && self.atoms(d, i + 1, &next) {
                return true;
            }
        }
        false
    }

    /// Put the anchors `j..` into the active domain: each one some
    /// null's class already holds, or else bound to one null of `D`.
    fn anchor(&self, j: usize, u: &Unifier) -> bool {
        let Some(&c) = self.anchors.get(j) else {
            return self.separates(u);
        };
        if (0..self.nulls.len()).any(|n| u.value[u.find(n)] == Some(c)) {
            return self.anchor(j + 1, u);
        }
        (0..self.nulls.len()).any(|n| {
            let mut next = u.clone();
            next.unify(Side::Node(n), Side::Const(c)) && self.anchor(j + 1, &next)
        })
    }

    /// Is the unifier's valuation `w` a certificate: `w(ā) ∈ Q(w(D))`
    /// and `w(b̄) ∉ Q(w(D))`?
    fn separates(&self, u: &Unifier) -> bool {
        let mut class_fresh = vec![None; u.parent.len()];
        let values: Vec<Cst> = (0..self.nulls.len())
            .map(|n| {
                let r = u.find(n);
                u.value[r].unwrap_or_else(|| *class_fresh[r].get_or_insert(self.fresh[n]))
            })
            .collect();
        let w = Valuation::from_pairs(self.nulls.iter().copied().zip(values));
        let wd = w.apply_db(self.db);
        let eval = Evaluator::new(&wd, &self.cmp.query);
        // A null of b̄ outside D stays a null and is never an answer.
        let wb = w.apply_tuple(self.b);
        (!wb.is_complete() || !eval.satisfies(&wb)) && eval.satisfies(&w.apply_tuple(self.a))
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
        // Caught by the planner differential suite: Sep((d, ⊥w), (a, ⊥z))
        // with a constant d that appears nowhere in D. Matching R(u, v)
        // to R(⊥y, c) binds ⊥y ↦ d and ⊥w ↦ c, which puts (d, c) into
        // the answer and leaves (a, w(⊥z)) out — a null of D must
        // valuate *to* d. An earlier search demanded d in the
        // certificate's active domain and wrongly reported domination.
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
        assert!(cmp.sep(&p.db, &b, &a), "⊥y↦d puts (d, c) into w(D)");
        assert!(!cmp.dominated(&p.db, &b, &a), "the tuples are incomparable");
    }

    #[test]
    fn answers_outside_the_domain_need_an_anchored_null() {
        // Q(u) := ∃v R(v) answers every constant of v(D), and nothing
        // else: ⊥x ↦ d puts d, and not e, into the answer. No match
        // mentions d, so only binding ⊥x to it finds the certificate;
        // without that step the two tuples look support-equivalent.
        let p = parse_database("R(_x).").unwrap();
        let q = parse_query("Q(u) := exists v. R(v)").unwrap();
        let cmp = UcqComparator::new(&q).unwrap();
        let (d, e) = (Tuple::new(vec![cst("d")]), Tuple::new(vec![cst("e")]));
        for (x, y) in [(&d, &e), (&e, &d)] {
            assert!(cmp.sep(&p.db, x, y), "Sep({x}, {y})");
            assert!(brute_sep(&q, &p.db, x, y), "Sep({x}, {y})");
        }
        assert!(!cmp.dominated(&p.db, &d, &e) && !cmp.dominated(&p.db, &e, &d));
    }

    #[test]
    fn certificate_needing_two_fresh_constants() {
        // No named constant at all: Sep((⊥x, ⊥y), (⊥y, ⊥x)) needs
        // ⊥x ≠ ⊥y, so the certificate's valuation gives each null's
        // class its own fresh constant.
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
