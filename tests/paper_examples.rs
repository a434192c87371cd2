//! Every worked example in the paper, end to end through the text
//! parsers and the public API. Section references follow the PODS 2018
//! paper.

use certain_answers::prelude::*;

use caz_core::almost_certainly_false;
use caz_core::{mu_k, BoolQueryEvent, TupleAnswerEvent};

/// §1 — the suppliers example, every claim in order.
#[test]
fn section_1_intro_example() {
    let p = parse_database(
        "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
         R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
    )
    .unwrap();
    let q = parse_query("Q(x, y) := R1(x, y) & !R2(x, y)").unwrap();
    let a = Tuple::new(vec![cst("c1"), Value::Null(p.nulls["p1"])]);
    let b = Tuple::new(vec![cst("c2"), Value::Null(p.nulls["p2"])]);

    // "Then □(Q, D) = ∅."
    assert!(certain_answers(&q, &p.db).is_empty());

    // "Evaluating Q naïvely on D produces two tuples (c1,⊥1) and (c2,⊥2)
    //  which are not certain answers."
    let naive = naive_eval(&q, &p.db);
    assert_eq!(naive, [a.clone(), b.clone()].into());
    assert!(!is_certain_answer(&q, &p.db, &a));
    assert!(!is_certain_answer(&q, &p.db, &b));

    // "…they are likely, but not certain, answers": μ = 1 for both.
    assert!(almost_certainly_true(&q, &p.db, Some(&a)));
    assert!(almost_certainly_true(&q, &p.db, Some(&b)));

    // "there are strictly more valuations supporting (c2,⊥2)…"
    assert!(strictly_better(&q, &p.db, &a, &b));
    // "…in fact no other tuple has more valuations supporting it."
    assert_eq!(best_answers(&q, &p.db), [b.clone()].into());

    // "assume the customer field determines the product field. Then …
    //  every Q(v(D)) is empty."
    let sigma = parse_constraints("fd R1: 1 -> 2").unwrap();
    let boolean = parse_query("Any := exists x, y. R1(x, y) & !R2(x, y)").unwrap();
    assert!(mu_conditional(&boolean, &sigma, &p.db, None).is_zero());
    for t in [&a, &b] {
        let qa = mu_conditional(&q, &sigma, &p.db, Some(t));
        assert!(qa.is_zero(), "likely answer {t} dies under the FD");
    }
}

/// §2 — "if a query Q returns relation R1, then □(Q, D) = R1".
#[test]
fn section_2_certain_answers_with_nulls() {
    let p = parse_database("R1(c1, _p1). R1(c2, _p2).").unwrap();
    let q = parse_query("Q(x, y) := R1(x, y)").unwrap();
    let certain = certain_answers(&q, &p.db);
    let r1: std::collections::BTreeSet<Tuple> =
        p.db.relation("R1").unwrap().iter().cloned().collect();
    assert_eq!(certain, r1);
}

/// §3.1 — the distance-2 naïve-evaluation example.
#[test]
fn section_3_1_naive_evaluation() {
    let p = parse_database("E(c, c2). E(c2, _b).").unwrap();
    let q = parse_query("Phi(x) := exists y. E('c', y) & E(y, x)").unwrap();
    let ans = naive_eval(&q, &p.db);
    assert_eq!(ans, [Tuple::new(vec![Value::Null(p.nulls["b"])])].into());
}

/// §3.3 — v₁(D) = v₂(D) for swapped valuations: the m-measure counts
/// fewer objects than the μ-measure at finite k, yet both converge.
#[test]
fn section_3_3_alternative_measure() {
    let p = parse_database("R(1, _a). R(1, _b).").unwrap();
    let (na, nb) = (p.nulls["a"], p.nulls["b"]);
    let v1 = Valuation::from_pairs([(na, Cst::int(7)), (nb, Cst::int(9))]);
    let v2 = Valuation::from_pairs([(na, Cst::int(9)), (nb, Cst::int(7))]);
    assert_ne!(v1, v2);
    assert_eq!(v1.apply_db(&p.db), v2.apply_db(&p.db));

    let q = parse_query("Collide := exists x. R(1, x) & !(exists y. R(1, y) & y != x)").unwrap();
    let ev = BoolQueryEvent::new(q);
    // μᵏ = 1/k, mᵏ = 2/(k+1); limits both 0.
    for k in 2..=8usize {
        assert_eq!(mu_k(&ev, &p.db, k), Ratio::from_frac(1, k as i64));
        assert_eq!(caz_core::m_k(&ev, &p.db, k), Ratio::from_frac(2, k as i64 + 1));
    }
    assert!(caz_core::mu_exact(&ev, &p.db).unwrap().is_zero());
}

/// §3.4 / Proposition 2 — the OWA counterexamples.
#[test]
fn section_3_4_owa() {
    let mut db = Database::new();
    db.relation_mut("U", 1);
    let q1 = parse_query("Q1 := !(exists x. U(x))").unwrap();
    let q2 = parse_query("Q2 := exists x. U(x)").unwrap();
    assert!(naive_eval_bool(&q1, &db));
    assert!(!naive_eval_bool(&q2, &db));
    for k in 1..=7usize {
        let c1 = owa_m_k(&q1, &db, k).unwrap();
        assert_eq!(c1.value, Ratio::from_frac(1i64, 1i64 << k), "owa-mᵏ(Q1) = 2^-k");
        let c2 = owa_m_k(&q2, &db, k).unwrap();
        assert_eq!(c2.value, Ratio::from_frac((1i64 << k) - 1, 1i64 << k));
    }
}

/// §4 — the R/U inclusion-constraint example: conditional measures 1/3
/// and 2/3 for the two candidate answers.
#[test]
fn section_4_conditional_example() {
    let p = parse_database("R(2, 1). R(_b, _b). U(1). U(2). U(3).").unwrap();
    let sigma = parse_constraints("ind R[1] <= U[1]").unwrap();
    let q = parse_query("Q(x, y) := R(x, y)").unwrap();
    let bot = p.nulls["b"];
    let a = Tuple::new(vec![int(1), Value::Null(bot)]);
    let b = Tuple::new(vec![int(2), Value::Null(bot)]);
    assert_eq!(mu_conditional(&q, &sigma, &p.db, Some(&a)), Ratio::from_frac(1, 3));
    assert_eq!(mu_conditional(&q, &sigma, &p.db, Some(&b)), Ratio::from_frac(2, 3));
}

/// §4.3 — naïve evaluation no longer computes the measure under
/// constraints.
#[test]
fn section_4_3_naive_fails_under_constraints() {
    let p = parse_database("R(_x). S(_y). U(_x). V(1).").unwrap();
    let sigma = parse_constraints("ind R[1] <= V[1]\nind S[1] <= V[1]").unwrap();
    let q = parse_query("Q := forall x. U(x) -> R(x) & !S(x)").unwrap();
    assert!(naive_eval_bool(&q, &p.db), "Q^naïve(D) = true");
    // (Σ → Q) also evaluates naïvely to true…
    let schema = Schema::from_pairs([("R", 1), ("S", 1), ("U", 1), ("V", 1)]);
    let sigma_formula = sigma.to_formula(&schema).unwrap();
    let imp = caz_logic::Query::boolean(
        "imp",
        Formula::implies(sigma_formula, q.body.clone()),
    )
    .unwrap();
    assert!(naive_eval_bool(&imp, &p.db), "(Σ→Q)^naïve(D) = true");
    // …yet the conditional measure is 0.
    assert!(mu_conditional(&q, &sigma, &p.db, None).is_zero());
}

/// §4 / Proposition 4 — arbitrary rationals as conditional measures.
#[test]
fn proposition_4_arbitrary_rationals() {
    for (p, r) in [(1u32, 1u32), (1, 2), (2, 5), (4, 9), (7, 11)] {
        let mut src = String::new();
        for i in 1..p {
            src.push_str(&format!("R({i}, {i}). "));
        }
        src.push_str(&format!("R(_b, {p}). S(_b, _b). "));
        for i in 1..=r {
            src.push_str(&format!("U({i}). "));
        }
        let db = parse_database(&src).unwrap().db;
        let sigma = parse_constraints("ind R[1] <= U[1]").unwrap();
        let q = parse_query("Q := exists x, y. R(x, y) & S(x, y)").unwrap();
        assert!(caz_logic::is_cq_shaped(&q.body), "Prop 4 uses a Boolean CQ");
        assert_eq!(
            mu_conditional(&q, &sigma, &db, None),
            Ratio::from_frac(p as i64, r as i64),
            "target {p}/{r}"
        );
    }
}

/// §5 — the best-answers example: R − S with a unique best answer.
#[test]
fn section_5_best_answers_example() {
    let p = parse_database("R(1, _n1). R(2, _n2). S(1, _n2). S(_n3, _n1).").unwrap();
    let q = parse_query("Q(x, y) := R(x, y) & !S(x, y)").unwrap();
    let a = Tuple::new(vec![int(1), Value::Null(p.nulls["n1"])]);
    let b = Tuple::new(vec![int(2), Value::Null(p.nulls["n2"])]);
    assert!(certain_answers(&q, &p.db).is_empty());
    // "v(ā) ∈ Q(v(D)) iff v(⊥1) ≠ v(⊥2) and v(⊥3) ≠ 1, while
    //  v(b̄) ∈ Q(v(D)) iff v(⊥1) ≠ v(⊥2) or v(⊥3) ≠ 2."
    let (n1, n2, n3) = (p.nulls["n1"], p.nulls["n2"], p.nulls["n3"]);
    let va = Valuation::from_pairs([(n1, Cst::int(5)), (n2, Cst::int(6)), (n3, Cst::int(9))]);
    let vdb = va.apply_db(&p.db);
    assert!(caz_logic::tuple_in_answer(&q, &vdb, &va.apply_tuple(&a)));
    assert!(caz_logic::tuple_in_answer(&q, &vdb, &va.apply_tuple(&b)));
    let vbad = Valuation::from_pairs([(n1, Cst::int(5)), (n2, Cst::int(6)), (n3, Cst::int(1))]);
    let vdb2 = vbad.apply_db(&p.db);
    assert!(!caz_logic::tuple_in_answer(&q, &vdb2, &vbad.apply_tuple(&a)));
    assert!(caz_logic::tuple_in_answer(&q, &vdb2, &vbad.apply_tuple(&b)));
    // "Thus ā ⊲ b̄ and Best(Q, D) = {b̄}."
    assert!(strictly_better(&q, &p.db, &a, &b));
    assert_eq!(best_answers(&q, &p.db), [b].into());
}

/// §5.1 — naïve evaluation is useless for ⊴ even on queries returning a
/// relation.
#[test]
fn section_5_1_naive_useless_for_domination() {
    let p = parse_database("R(1, _x). R(_x, 2).").unwrap();
    let q = parse_query("Q(u, v) := R(u, v)").unwrap();
    let a = Tuple::new(vec![int(1), int(2)]);
    let b = Tuple::new(vec![int(1), int(1)]);
    // Naïve evaluation puts neither tuple in R…
    assert!(!caz_logic::naive_contains(&q, &p.db, &a));
    assert!(!caz_logic::naive_contains(&q, &p.db, &b));
    // …but the supports differ: Supp(ā) = {⊥↦1, ⊥↦2} ⊋ Supp(b̄) = {⊥↦1}.
    assert!(!dominated(&q, &p.db, &a, &b));
    assert!(dominated(&q, &p.db, &b, &a));
    assert!(strictly_better(&q, &p.db, &b, &a));
    // The UCQ fast path agrees (Theorem 8).
    let cmp = UcqComparator::new(&q).unwrap();
    assert!(!cmp.dominated(&p.db, &a, &b));
    assert!(cmp.dominated(&p.db, &b, &a));
}

/// §5.2 / Proposition 7 — all four best×μ combinations.
#[test]
fn proposition_7_all_quadrants() {
    let p = parse_database("A(a). B(b). R(_x, _y).").unwrap();
    let q = parse_query(
        "Q(z) := (B(z) & (exists y. R(y, y))) | (A(z) & !(exists y. R(y, y)))",
    )
    .unwrap();
    let ta = Tuple::new(vec![cst("a")]);
    let tb = Tuple::new(vec![cst("b")]);
    // μᵏ(Q, D, a) = 1 − 1/k and μᵏ(Q, D, b) = 1/k, as computed in the
    // proof.
    let ev_a = TupleAnswerEvent::new(q.clone(), ta.clone());
    let ev_b = TupleAnswerEvent::new(q.clone(), tb.clone());
    for k in 3..=7usize {
        assert_eq!(mu_k(&ev_a, &p.db, k), Ratio::from_frac(k as i64 - 1, k as i64));
        assert_eq!(mu_k(&ev_b, &p.db, k), Ratio::from_frac(1, k as i64));
    }
    let best = best_answers(&q, &p.db);
    assert!(best.contains(&ta) && best.contains(&tb));
    assert!(almost_certainly_true(&q, &p.db, Some(&ta)));
    assert!(almost_certainly_false(&q, &p.db, Some(&tb)));
    // Best_μ = Best ∩ {μ = 1} = {a}.
    assert_eq!(best_mu_answers(&q, &p.db), [ta].into());
}


/// §6 "SQL nulls" — Codd-ification (forgetting null sharing) changes
/// the semantics: certain answers and measures differ between the
/// marked database and its Codd table.
#[test]
fn codd_conversion_loses_certainty_information() {
    // "We know that c1 and c2 buy the same product ⊥1": that knowledge
    // lives in the sharing.
    let p = parse_database("R1(c1, _p1). R1(c2, _p1).").unwrap();
    let q = parse_query(
        "SameBuy := exists y. R1('c1', y) & R1('c2', y)",
    )
    .unwrap();
    // Marked: certainly true.
    assert!(certainly_true(&q, &p.db));
    // Codd table: the sharing is gone, and with it the certainty — the
    // query is now only possible, in fact almost certainly false.
    let codd = caz_idb::to_codd(&p.db);
    assert!(caz_idb::is_codd(&codd.db));
    assert!(!certainly_true(&q, &codd.db));
    assert!(caz_core::mu(&q, &codd.db, None).is_zero());
    // The conversion is idempotent and null-count-growing.
    assert!(codd.db.nulls().len() > p.db.nulls().len());
    assert_eq!(caz_idb::to_codd(&codd.db).db, codd.db);
}
