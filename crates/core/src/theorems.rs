//! High-level APIs named after the paper's results, each backed by the
//! fast path the corresponding theorem licenses (and cross-validated
//! against the polynomial engine in the test suites).

use crate::poly_engine::{mu_conditional_exact, mu_exact, CensusTooLarge};
use crate::support::{BoolQueryEvent, ConstraintEvent, ImpliesEvent, SuppEvent, TupleAnswerEvent};
use caz_arith::Ratio;
use caz_constraints::{chase, ConstraintSet, Fd};
use caz_idb::{Database, Tuple};
use caz_logic::{naive_contains, naive_eval_bool, Query};
use std::fmt;

fn event_for(q: &Query, tuple: Option<&Tuple>) -> Box<dyn SuppEvent> {
    match tuple {
        None => Box::new(BoolQueryEvent::new(q.clone())),
        Some(t) => Box::new(TupleAnswerEvent::new(q.clone(), t.clone())),
    }
}

/// **Theorem 1.** `μ(Q, D, ā) ∈ {0, 1}`, and it is 1 iff
/// `ā ∈ Q^naïve(D)`. This computes the measure via naïve evaluation —
/// the same data complexity as evaluating `Q` (Corollary 2).
///
/// ```
/// use caz_core::mu;
/// use caz_idb::parse_database;
/// use caz_logic::parse_query;
///
/// // Do two customers share a product? The nulls are distinct, so the
/// // collision is possible but almost certainly false.
/// let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
/// let q = parse_query("Collide := exists p. R(c1, p) & R(c2, p)").unwrap();
/// assert!(mu(&q, &db, None).is_zero());
/// assert!(mu(&q.negated(), &db, None).is_one());
/// ```
pub fn mu(q: &Query, db: &Database, tuple: Option<&Tuple>) -> Ratio {
    let almost_true = match tuple {
        None => naive_eval_bool(q, db),
        Some(t) => naive_contains(q, db, t),
    };
    if almost_true {
        Ratio::one()
    } else {
        Ratio::zero()
    }
}

/// Is `ā` an almost certainly true answer (`μ = 1`, Definition 4)?
pub fn almost_certainly_true(q: &Query, db: &Database, tuple: Option<&Tuple>) -> bool {
    mu(q, db, tuple).is_one()
}

/// Is `ā` an almost certainly false answer (`μ = 0`)?
pub fn almost_certainly_false(q: &Query, db: &Database, tuple: Option<&Tuple>) -> bool {
    mu(q, db, tuple).is_zero()
}

/// `μ(Q, D, ā)` through the support-polynomial engine (no use of
/// Theorem 1) — the slow, first-principles path used to validate the
/// fast one. Panics past the engine's caps ([`CensusTooLarge`]).
pub fn mu_via_polynomials(q: &Query, db: &Database, tuple: Option<&Tuple>) -> Ratio {
    within_caps(mu_exact(event_for(q, tuple).as_ref(), db))
}

/// The measure of a convenience wrapper whose caller vouches for the
/// instance's size.
fn within_caps(measure: Result<Ratio, CensusTooLarge>) -> Ratio {
    measure.unwrap_or_else(|too_large| panic!("{too_large}"))
}

/// **Theorem 3.** The conditional measure `μ(Q | Σ, D, ā)`: always
/// exists, is a rational in [0, 1], and is computed exactly as a ratio
/// of leading coefficients of support polynomials. Panics past the
/// engine's caps ([`CensusTooLarge`]); the fallible form is
/// [`mu_conditional_exact`].
///
/// ```
/// use caz_arith::Ratio;
/// use caz_constraints::parse_constraints;
/// use caz_core::mu_conditional;
/// use caz_idb::parse_database;
/// use caz_logic::parse_query;
///
/// // §4 of the paper: the constraint pins ⊥ to three values, one of
/// // which makes the query true.
/// let db = parse_database("R(2, 1). R(_b, _b). U(1). U(2). U(3).").unwrap().db;
/// let sigma = parse_constraints("ind R[1] <= U[1]").unwrap();
/// let q = parse_query("Qa := R(1, 1)").unwrap();
/// assert_eq!(mu_conditional(&q, &sigma, &db, None), Ratio::from_frac(1, 3));
/// ```
pub fn mu_conditional(
    q: &Query,
    sigma: &ConstraintSet,
    db: &Database,
    tuple: Option<&Tuple>,
) -> Ratio {
    let q_ev = event_for(q, tuple);
    let s_ev = ConstraintEvent::new(sigma.clone());
    within_caps(mu_conditional_exact(q_ev.as_ref(), &s_ev, db))
}

/// **Proposition 3.** The implication measure `μ(Σ → Q, D)`: 1 when
/// `μ(Σ, D) = 0`, otherwise equal to `μ(Q, D)`. Computed directly from
/// the engine (the proposition is verified against this in the tests).
/// Panics past the engine's caps ([`CensusTooLarge`]).
pub fn mu_implication(sigma: &ConstraintSet, q: &Query, db: &Database) -> Ratio {
    let ev = ImpliesEvent::new(
        Box::new(ConstraintEvent::new(sigma.clone())),
        event_for(q, None),
    );
    within_caps(mu_exact(&ev, db))
}

/// Why Theorem 5's chase-then-measure fast path does not apply to a
/// request. Historically this was a bare `String`, which callers (and
/// the query planner) could only display, never inspect; each variant
/// now carries the offending piece of the request so "why not" is
/// machine-checkable. The [`fmt::Display`] rendering is what user-facing
/// layers (the planner's `explain`, error replies) surface verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Theorem5Refusal {
    /// The answer tuple mentions nulls. The chase renames (merges)
    /// nulls, so the theorem is stated for tuples of constants only.
    TupleHasNulls {
        /// The offending answer tuple.
        tuple: Tuple,
    },
}

impl fmt::Display for Theorem5Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Theorem5Refusal::TupleHasNulls { tuple } => write!(
                f,
                "Theorem 5 applies to constant tuples (the chase renames nulls); got {tuple}"
            ),
        }
    }
}

impl std::error::Error for Theorem5Refusal {}

/// Check the side conditions of Theorem 5 / Corollary 4 for an answer
/// tuple, returning the structured refusal when they fail. Exposed so
/// a planner can test applicability *before* committing to the route
/// (and surface the exact refusal in `explain` output).
pub fn theorem5_applicability(tuple: Option<&Tuple>) -> Result<(), Theorem5Refusal> {
    match tuple {
        Some(t) if !t.is_complete() => {
            Err(Theorem5Refusal::TupleHasNulls { tuple: t.clone() })
        }
        _ => Ok(()),
    }
}

/// **Theorem 5 / Corollary 4.** For FDs, `μ(Q | Σ, D, ā)` (with `ā` a
/// tuple of constants) equals `μ(Q, chase_Σ(D), ā)`: chase, then naïve
/// evaluation — polynomial time, and the 0–1 law is recovered. Returns
/// 0 when the chase fails (Σ unsatisfiable in `D`), and a structured
/// [`Theorem5Refusal`] when the theorem's side conditions do not hold.
pub fn mu_conditional_fd(
    q: &Query,
    fds: &[Fd],
    db: &Database,
    tuple: Option<&Tuple>,
) -> Result<Ratio, Theorem5Refusal> {
    theorem5_applicability(tuple)?;
    match chase(db, fds) {
        Err(_) => Ok(Ratio::zero()),
        Ok(result) => Ok(mu(q, &result.db, tuple)),
    }
}

/// **Theorem 4.** If `Σ^naïve(D)` is true (the constraints are almost
/// certainly true), constraints do not affect the measure:
/// `μ(Q | Σ, D, ā) = μ(Q, D, ā)`. This predicate tests the hypothesis
/// on the support-polynomial engine, and panics past its caps
/// ([`CensusTooLarge`]).
pub fn sigma_almost_certainly_true(
    sigma: &ConstraintSet,
    db: &Database,
) -> bool {
    within_caps(mu_exact(&ConstraintEvent::new(sigma.clone()), db)).is_one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_constraints::parse_constraints;
    use caz_idb::{cst, parse_database, Value};
    use caz_logic::parse_query;

    #[test]
    fn theorem_1_fast_path_equals_engine() {
        let p = parse_database(
            "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
             R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
        )
        .unwrap();
        let q = parse_query("Q(x, y) := R1(x, y) & !R2(x, y)").unwrap();
        for t in [
            Tuple::new(vec![cst("c1"), Value::Null(p.nulls["p1"])]),
            Tuple::new(vec![cst("c2"), Value::Null(p.nulls["p2"])]),
            Tuple::new(vec![cst("c1"), Value::Null(p.nulls["p2"])]),
            Tuple::new(vec![cst("c1"), cst("c2")]),
        ] {
            assert_eq!(
                mu(&q, &p.db, Some(&t)),
                mu_via_polynomials(&q, &p.db, Some(&t)),
                "tuple {t}"
            );
        }
    }

    #[test]
    fn proposition_3_cases() {
        // Case μ(Σ, D) = 1: Σ → Q behaves like Q.
        let db = parse_database("R(a, _x). R(b, _y).").unwrap().db;
        let sigma = parse_constraints("fd R: 1 -> 2").unwrap(); // holds naïvely
        assert!(sigma_almost_certainly_true(&sigma, &db));
        let q_true = parse_query("T := exists u, v. R(u, v)").unwrap();
        let q_false = parse_query("F := exists u. R(u, u)").unwrap();
        assert_eq!(mu_implication(&sigma, &q_true, &db), Ratio::one());
        assert_eq!(
            mu_implication(&sigma, &q_false, &db),
            mu(&q_false, &db, None)
        );
        // Case μ(Σ, D) = 0: implication is almost certainly true.
        let db2 = parse_database("R(a, _x). R(a, _y).").unwrap().db;
        // FD a→rhs forces ⊥x=⊥y: almost certainly violated.
        assert!(!sigma_almost_certainly_true(&sigma, &db2));
        assert_eq!(mu_implication(&sigma, &q_false, &db2), Ratio::one());
    }

    #[test]
    fn theorem_5_chase_path() {
        // §1 finale: under "customer → product", the likely answers die.
        let p = parse_database(
            "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
             R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
        )
        .unwrap();
        let q = parse_query("NonEmpty := exists x, y. R1(x, y) & !R2(x, y)").unwrap();
        let fds = [Fd::new("R1", vec![0], 1)];
        // Without the FD, the Boolean query is almost certainly true…
        assert_eq!(mu(&q, &p.db, None), Ratio::one());
        // …but under it, almost certainly false.
        assert_eq!(
            mu_conditional_fd(&q, &fds, &p.db, None).unwrap(),
            Ratio::zero()
        );
        // The engine agrees (Theorem 5 validated end-to-end).
        let sigma = parse_constraints("fd R1: 1 -> 2").unwrap();
        assert_eq!(mu_conditional(&q, &sigma, &p.db, None), Ratio::zero());
    }

    #[test]
    fn theorem_5_failure_convention() {
        let db = parse_database("R(a, b). R(a, c).").unwrap().db;
        let fds = [Fd::new("R", vec![0], 1)];
        let q = parse_query("T := exists x, y. R(x, y)").unwrap();
        assert_eq!(mu_conditional_fd(&q, &fds, &db, None).unwrap(), Ratio::zero());
    }

    #[test]
    fn theorem_5_rejects_null_tuples_with_structured_refusal() {
        let p = parse_database("R(a, _x).").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let t = Tuple::new(vec![cst("a"), Value::Null(p.nulls["x"])]);
        let err = mu_conditional_fd(&q, &[], &p.db, Some(&t)).unwrap_err();
        // The refusal is inspectable, not just printable…
        assert_eq!(err, Theorem5Refusal::TupleHasNulls { tuple: t.clone() });
        assert_eq!(theorem5_applicability(Some(&t)), Err(err.clone()));
        // …and its rendering names both the rule and the offender.
        let msg = err.to_string();
        assert!(msg.contains("constant tuples"), "{msg}");
        assert!(msg.contains(&t.to_string()), "{msg}");
        // Constant tuples (and Boolean queries) pass the check.
        assert_eq!(theorem5_applicability(None), Ok(()));
        let ground = Tuple::new(vec![cst("a"), cst("b")]);
        assert_eq!(theorem5_applicability(Some(&ground)), Ok(()));
    }

    #[test]
    fn theorem_4_constraints_vanish_when_naively_true() {
        let db = parse_database("R(_x, 1). U(1). U(2).").unwrap().db;
        // Σ: π₂(R) ⊆ U — second column is the constant 1 ∈ U: naïvely true.
        let sigma = parse_constraints("ind R[2] <= U[1]").unwrap();
        assert!(sigma_almost_certainly_true(&sigma, &db));
        for src in ["Q1 := R(1, 1)", "Q2 := exists x. R(x, 1)", "Q3 := U(9)"] {
            let q = parse_query(src).unwrap();
            assert_eq!(
                mu_conditional(&q, &sigma, &db, None),
                mu(&q, &db, None),
                "{src}"
            );
        }
    }

    #[test]
    fn section_4_3_example_naive_breaks_under_constraints() {
        // D: R = {⊥}, S = {⊥′}, U = {⊥}, V = {1};
        // Σ: R ⊆ V and S ⊆ V; Q = ∀x U(x) → (R(x) ∧ ¬S(x)).
        // Both Q and Σ→Q hold naïvely, yet μ(Q|Σ, D) = 0.
        let db = parse_database("R(_x). S(_y). U(_x). V(1).").unwrap().db;
        let sigma = parse_constraints("ind R[1] <= V[1]\nind S[1] <= V[1]").unwrap();
        let q = parse_query("Q := forall x. U(x) -> R(x) & !S(x)").unwrap();
        assert!(naive_eval_bool(&q, &db));
        assert_eq!(mu_conditional(&q, &sigma, &db, None), Ratio::zero());
    }
}
