//! Supports of query answers: `Supp(Q, D, ā) = {v | v(ā) ∈ Q(v(D))}`.
//!
//! The central abstraction is [`SuppEvent`]: anything whose truth under a
//! valuation is *generic* — a Boolean query, the event "`v(ā)` is an
//! answer", a constraint set, or a Boolean combination thereof. The
//! measures (`μᵏ` by enumeration, `μ` by support polynomials) are defined
//! over events, so every theorem of the paper is exercised through one
//! engine. Certain and possible answers ask whether a support is full or
//! nonempty; one representative per class of the census's walk decides
//! both.

use crate::poly_engine::{exists_class, named_pool};
use caz_idb::{ConstEnum, Cst, Database, Tuple, Valuation};
use caz_logic::{eval_bool, naive_contains, tuple_in_answer, Query};
use std::collections::BTreeSet;

/// A generic event over valuations: truth depends only on `v(D)` (and
/// `v(ā)` for answer events), and is invariant under permutations of
/// `Const` fixing [`SuppEvent::constants`]. Events are `Send + Sync` so
/// support enumeration can be split across threads (all implementations
/// are pure data plus the immutable query/constraint structures).
pub trait SuppEvent: Send + Sync {
    /// Does the event hold under valuation `v`? `vdb` must be `v(D)` —
    /// precomputed by the caller so several events can share it.
    fn holds(&self, v: &Valuation, vdb: &Database) -> bool;

    /// The genericity set `C` of the event.
    fn constants(&self) -> BTreeSet<Cst>;

    /// Human-readable label for reports.
    fn label(&self) -> String;
}

/// The event "the Boolean query `Q` is true in `v(D)`".
pub struct BoolQueryEvent {
    query: Query,
}

impl BoolQueryEvent {
    /// Wrap a Boolean query.
    pub fn new(query: Query) -> BoolQueryEvent {
        assert!(query.is_boolean(), "{} is not Boolean", query.name);
        BoolQueryEvent { query }
    }

    /// The wrapped query.
    pub fn query(&self) -> &Query {
        &self.query
    }
}

impl SuppEvent for BoolQueryEvent {
    fn holds(&self, _v: &Valuation, vdb: &Database) -> bool {
        eval_bool(&self.query, vdb)
    }

    fn constants(&self) -> BTreeSet<Cst> {
        self.query.generic_consts()
    }

    fn label(&self) -> String {
        self.query.name.clone()
    }
}

/// The event "`v(ā) ∈ Q(v(D))`" for a fixed tuple `ā` over `adom(D)`.
pub struct TupleAnswerEvent {
    query: Query,
    tuple: Tuple,
}

impl TupleAnswerEvent {
    /// Wrap a query and a candidate answer tuple.
    pub fn new(query: Query, tuple: Tuple) -> TupleAnswerEvent {
        assert_eq!(query.arity(), tuple.arity(), "tuple arity mismatch");
        TupleAnswerEvent { query, tuple }
    }
}

impl SuppEvent for TupleAnswerEvent {
    fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
        let vt = v.apply_tuple(&self.tuple);
        if !vt.is_complete() {
            return false; // mentions a null outside Null(D)
        }
        tuple_in_answer(&self.query, vdb, &vt)
    }

    fn constants(&self) -> BTreeSet<Cst> {
        let mut c = self.query.generic_consts();
        c.extend(self.tuple.consts());
        c
    }

    fn label(&self) -> String {
        format!("{}{}", self.query.name, self.tuple)
    }
}

/// The event "the constraint set `Σ` holds in `v(D)`" (checked directly,
/// not through first-order evaluation — much faster).
pub struct ConstraintEvent {
    set: caz_constraints::ConstraintSet,
}

impl ConstraintEvent {
    /// Wrap a constraint set.
    pub fn new(set: caz_constraints::ConstraintSet) -> ConstraintEvent {
        ConstraintEvent { set }
    }
}

impl SuppEvent for ConstraintEvent {
    fn holds(&self, _v: &Valuation, vdb: &Database) -> bool {
        self.set.holds_in(vdb)
    }

    fn constants(&self) -> BTreeSet<Cst> {
        BTreeSet::new() // dependencies are constant-free
    }

    fn label(&self) -> String {
        "Σ".to_string()
    }
}

/// Conjunction of events (e.g. `Σ ∧ Q` for conditional measures).
pub struct AndEvent {
    parts: Vec<Box<dyn SuppEvent>>,
}

impl AndEvent {
    /// Conjunction of the given events.
    pub fn new(parts: Vec<Box<dyn SuppEvent>>) -> AndEvent {
        AndEvent { parts }
    }
}

impl SuppEvent for AndEvent {
    fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
        self.parts.iter().all(|p| p.holds(v, vdb))
    }

    fn constants(&self) -> BTreeSet<Cst> {
        self.parts.iter().flat_map(|p| p.constants()).collect()
    }

    fn label(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

/// Negation of an event.
pub struct NotEvent {
    inner: Box<dyn SuppEvent>,
}

impl NotEvent {
    /// Negate an event.
    pub fn new(inner: Box<dyn SuppEvent>) -> NotEvent {
        NotEvent { inner }
    }
}

impl SuppEvent for NotEvent {
    fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
        !self.inner.holds(v, vdb)
    }

    fn constants(&self) -> BTreeSet<Cst> {
        self.inner.constants()
    }

    fn label(&self) -> String {
        format!("¬({})", self.inner.label())
    }
}

/// Implication `a → b` of events (Proposition 3's `Σ → Q`).
pub struct ImpliesEvent {
    lhs: Box<dyn SuppEvent>,
    rhs: Box<dyn SuppEvent>,
}

impl ImpliesEvent {
    /// `lhs → rhs`.
    pub fn new(lhs: Box<dyn SuppEvent>, rhs: Box<dyn SuppEvent>) -> ImpliesEvent {
        ImpliesEvent { lhs, rhs }
    }
}

impl SuppEvent for ImpliesEvent {
    fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
        !self.lhs.holds(v, vdb) || self.rhs.holds(v, vdb)
    }

    fn constants(&self) -> BTreeSet<Cst> {
        let mut c = self.lhs.constants();
        c.extend(self.rhs.constants());
        c
    }

    fn label(&self) -> String {
        format!("{} → {}", self.lhs.label(), self.rhs.label())
    }
}

/// The canonical enumeration for an event over a database:
/// `Const(D) ∪ C` first, then fresh constants.
pub fn enumeration_for(event: &dyn SuppEvent, db: &Database) -> ConstEnum {
    let mut named = db.consts();
    named.extend(event.constants());
    ConstEnum::new(named)
}

/// `|Suppᵏ(event, D)|`: the number of valuations in `Vᵏ(D)` under which
/// the event holds (exhaustive enumeration — exponential in the number
/// of nulls, exact).
pub fn supp_k_count(event: &dyn SuppEvent, db: &Database, k: usize) -> u128 {
    let en = enumeration_for(event, db);
    let nulls = db.nulls();
    en.valuations(&nulls, k)
        .filter(|v| event.holds(v, &v.apply_db(db)))
        .count() as u128
}

/// Hits of the event on the flat index range `[start, end)` of `Vᵏ(D)`
/// (same enumeration order as [`supp_k_count`]; summing disjoint covering
/// slices reproduces the full count). Checks `cancel` every ~1024
/// valuations and returns `None` if it is set, so a caller counting a
/// row slice by slice can stop promptly when the client goes away.
pub fn supp_k_count_slice(
    event: &dyn SuppEvent,
    db: &Database,
    k: usize,
    start: u128,
    end: u128,
    cancel: &std::sync::atomic::AtomicBool,
) -> Option<u64> {
    use std::sync::atomic::Ordering;
    let en = enumeration_for(event, db);
    let nulls = db.nulls();
    let mut hits = 0u64;
    for (i, v) in en.valuations_slice(&nulls, k, start, end).enumerate() {
        if i % 1024 == 0 && cancel.load(Ordering::Relaxed) {
            return None;
        }
        if event.holds(&v, &v.apply_db(db)) {
            hits += 1;
        }
    }
    Some(hits)
}

/// Is the support of the event *full* (`Supp = V(D)`)? Exact: by
/// genericity the event is constant on each class of
/// [`walk_classes`](crate::poly_engine::walk_classes) over
/// `Const(D) ∪ C`, so one representative per class decides it (the
/// range-reduction argument in the proof of Theorem 8). Stops at the
/// first class where the event fails.
pub fn support_is_full(event: &dyn SuppEvent, db: &Database) -> bool {
    let named = named_pool(db, event.constants());
    !exists_class(db, &named, |v, vdb| !event.holds(v, vdb))
}

/// Is the support nonempty (the event is *possible*)? Stops at the
/// first class where the event holds.
pub fn support_is_nonempty(event: &dyn SuppEvent, db: &Database) -> bool {
    let named = named_pool(db, event.constants());
    exists_class(db, &named, |v, vdb| event.holds(v, vdb))
}

/// Is `ā` a certain answer: `v(ā) ∈ Q(v(D))` for *every* valuation?
/// (Exact via the class walk.)
pub fn is_certain_answer(q: &Query, db: &Database, t: &Tuple) -> bool {
    support_is_full(&TupleAnswerEvent::new(q.clone(), t.clone()), db)
}

/// Is `ā` a possible answer: `v(ā) ∈ Q(v(D))` for *some* valuation?
pub fn is_possible_answer(q: &Query, db: &Database, t: &Tuple) -> bool {
    support_is_nonempty(&TupleAnswerEvent::new(q.clone(), t.clone()), db)
}

/// `□(Q, D)`: all certain answers among tuples over `adom(D)` (the
/// certain-answers-with-nulls of the paper, [Lipski 1984]).
///
/// ```
/// use caz_core::certain_answers;
/// use caz_idb::parse_database;
/// use caz_logic::parse_query;
///
/// // A query returning R certainly returns R — nulls included.
/// let p = parse_database("R(a, _x).").unwrap();
/// let q = parse_query("Q(u, v) := R(u, v)").unwrap();
/// let certain = certain_answers(&q, &p.db);
/// assert_eq!(certain.len(), 1);
/// ```
pub fn certain_answers(q: &Query, db: &Database) -> BTreeSet<Tuple> {
    // Corollary 1: certain ⊆ naïve, so it suffices to filter the naïve
    // answers instead of scanning all adom-tuples.
    caz_logic::naive_eval(q, db)
        .into_iter()
        .filter(|t| is_certain_answer(q, db, t))
        .collect()
}

/// Is the Boolean query certainly true?
pub fn certainly_true(q: &Query, db: &Database) -> bool {
    assert!(q.is_boolean());
    // Certain ⟹ naïvely true (Corollary 1): cheap refutation first.
    if !caz_logic::naive_eval_bool(q, db) {
        return false;
    }
    support_is_full(&BoolQueryEvent::new(q.clone()), db)
}

/// Quick membership re-export used by callers mixing naïve and certain
/// answers.
pub fn naive_answer_contains(q: &Query, db: &Database, t: &Tuple) -> bool {
    naive_contains(q, db, t)
}

/// Check `t ∈ Q(db)` on a complete database.
pub fn complete_answer_contains(q: &Query, db: &Database, t: &Tuple) -> bool {
    tuple_in_answer(q, db, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_idb::{cst, parse_database, Value};
    use caz_logic::parse_query;

    #[test]
    fn intro_example_supports() {
        let p = parse_database(
            "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
             R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
        )
        .unwrap();
        let q = parse_query("Q(x, y) := R1(x, y) & !R2(x, y)").unwrap();
        // Certain answers are empty (the paper's first observation).
        assert!(certain_answers(&q, &p.db).is_empty());
        // But (c1,⊥1) and (c2,⊥2) are possible answers.
        let a = Tuple::new(vec![cst("c1"), Value::Null(p.nulls["p1"])]);
        let b = Tuple::new(vec![cst("c2"), Value::Null(p.nulls["p2"])]);
        assert!(is_possible_answer(&q, &p.db, &a));
        assert!(is_possible_answer(&q, &p.db, &b));
        assert!(!is_certain_answer(&q, &p.db, &a));
        assert!(!is_certain_answer(&q, &p.db, &b));
    }

    #[test]
    fn query_returning_relation_certainly_returns_it() {
        // □(Q, D) = R1 for Q returning R1 — the paper's argument for
        // certain answers with nulls.
        let p = parse_database("R1(c1, _p1). R1(c2, _p2).").unwrap();
        let q = parse_query("Q(x, y) := R1(x, y)").unwrap();
        let certain = certain_answers(&q, &p.db);
        assert_eq!(certain.len(), 2);
        for t in p.db.relation("R1").unwrap().iter() {
            assert!(certain.contains(t));
        }
    }

    #[test]
    fn supp_k_counts() {
        // D: U = {⊥}; event: ∃x U(x) ∧ x = 'a'. Holds iff v(⊥) = a.
        let db = parse_database("U(_x).").unwrap().db;
        let q = parse_query("Q := exists x. U(x) & x = 'a'").unwrap();
        let ev = BoolQueryEvent::new(q);
        // Enumeration: named constant a first, then fresh.
        assert_eq!(supp_k_count(&ev, &db, 1), 1);
        assert_eq!(supp_k_count(&ev, &db, 4), 1);
        let not_ev = NotEvent::new(Box::new(BoolQueryEvent::new(
            parse_query("Q := exists x. U(x) & x = 'a'").unwrap(),
        )));
        assert_eq!(supp_k_count(&not_ev, &db, 4), 3);
    }

    #[test]
    fn sliced_counts_sum_to_the_full_count_and_cancel_promptly() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let db = parse_database("U(_x). U(_y). V(a). V(b).").unwrap().db;
        let ev = BoolQueryEvent::new(parse_query("Q := exists x. U(x) & V(x)").unwrap());
        let k = 5;
        let total = ConstEnum::count_valuations(k, 2).unwrap();
        let full = supp_k_count(&ev, &db, k);
        let live = AtomicBool::new(false);
        for bounds in [vec![0, total], vec![0, 7, 13, total], vec![0, 1, 2, total]] {
            let sum: u64 = bounds
                .windows(2)
                .map(|w| supp_k_count_slice(&ev, &db, k, w[0], w[1], &live).unwrap())
                .sum();
            assert_eq!(sum as u128, full, "split {bounds:?}");
        }
        let cancelled = AtomicBool::new(true);
        cancelled.store(true, Ordering::Relaxed);
        assert_eq!(supp_k_count_slice(&ev, &db, k, 0, total, &cancelled), None);
    }

    #[test]
    fn certainly_true_boolean() {
        let db = parse_database("U(_x).").unwrap().db;
        let nonempty = parse_query("Q := exists x. U(x)").unwrap();
        assert!(certainly_true(&nonempty, &db));
        let is_a = parse_query("Q := exists x. U(x) & x = 'a'").unwrap();
        assert!(!certainly_true(&is_a, &db));
    }

    #[test]
    fn event_combinators() {
        let db = parse_database("U(_x). V(a).").unwrap().db;
        let u_is_a = BoolQueryEvent::new(parse_query("Q := exists x. U(x) & V(x)").unwrap());
        let neg = NotEvent::new(Box::new(BoolQueryEvent::new(
            parse_query("Q := exists x. U(x) & V(x)").unwrap(),
        )));
        let both = AndEvent::new(vec![
            Box::new(BoolQueryEvent::new(parse_query("Q := exists x. U(x) & V(x)").unwrap())),
            Box::new(BoolQueryEvent::new(parse_query("P := exists y. V(y)").unwrap())),
        ]);
        // k = 1: only constant a; v(⊥) = a makes U∩V nonempty.
        assert_eq!(supp_k_count(&u_is_a, &db, 1), 1);
        assert_eq!(supp_k_count(&neg, &db, 1), 0);
        assert_eq!(supp_k_count(&both, &db, 3), 1);
        assert_eq!(supp_k_count(&neg, &db, 3), 2);
        let imp = ImpliesEvent::new(
            Box::new(BoolQueryEvent::new(parse_query("Q := exists x. U(x) & V(x)").unwrap())),
            Box::new(BoolQueryEvent::new(parse_query("P := exists z. Z(z)").unwrap())),
        );
        // Q → false-ish: holds exactly when Q fails: 2 of 3 valuations.
        assert_eq!(supp_k_count(&imp, &db, 3), 2);
    }

    #[test]
    fn certain_implies_possible() {
        let p = parse_database("R(a, _x).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let t = Tuple::new(vec![cst("a"), Value::Null(p.nulls["x"])]);
        assert!(is_certain_answer(&q, &p.db, &t));
        assert!(is_possible_answer(&q, &p.db, &t));
        let not_there = Tuple::new(vec![cst("a"), cst("zz")]);
        assert!(!is_certain_answer(&q, &p.db, &not_there));
        // (a, zz) is possible: v(⊥) = zz... but zz ∉ adom ∪ C: the event's
        // constants include the tuple's constants, so the walk names it.
        assert!(is_possible_answer(&q, &p.db, &not_there));
    }
}
