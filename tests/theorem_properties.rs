//! Theorem-level invariants exercised on randomized workloads — each
//! test is one statement of the paper, quantified over sampled inputs.

use certain_answers::prelude::*;
use caz_core::{mu_implication, sigma_almost_certainly_true, BoolQueryEvent};
use caz_logic::{random_query, QueryGenConfig};
use caz_testutil::rngs::StdRng;
use caz_testutil::SeedableRng;

fn db_cfg(nulls: usize) -> DbGenConfig {
    DbGenConfig {
        relations: vec![("R".into(), 2), ("S".into(), 1)],
        tuples_per_relation: 3,
        num_constants: 3,
        num_nulls: nulls,
        null_prob: 0.5,
    }
}

fn q_cfg(arity: usize) -> QueryGenConfig {
    QueryGenConfig {
        schema: Schema::from_pairs([("R", 2), ("S", 1)]),
        arity,
        max_depth: 2,
        allow_negation: true,
        allow_forall: true,
        constants: vec![Cst::new("d0")],
    }
}

/// Theorem 1 as a universally-quantified statement: for every sampled
/// generic query and database, μ ∈ {0, 1} and μ = 1 ⇔ naïve.
#[test]
fn theorem_1_zero_one_law_randomized() {
    let mut rng = StdRng::seed_from_u64(10);
    for _ in 0..25 {
        let db = random_database(&mut rng, &db_cfg(3));
        let q = random_query(&mut rng, &q_cfg(0));
        let exact = caz_core::mu_exact(&BoolQueryEvent::new(q.clone()), &db).unwrap();
        assert!(exact.is_zero() || exact.is_one(), "0–1 law: {q} on\n{db}");
        assert_eq!(exact.is_one(), naive_eval_bool(&q, &db), "{q} on\n{db}");
    }
}

/// Theorem 1 for non-Boolean queries and adom tuples.
#[test]
fn theorem_1_tuple_version_randomized() {
    let mut rng = StdRng::seed_from_u64(20);
    for _ in 0..10 {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &q_cfg(1));
        let naive = naive_eval(&q, &db);
        for t in adom_candidates(&db, 1).into_iter().take(4) {
            let m = caz_core::mu_via_polynomials(&q, &db, Some(&t));
            assert!(m.is_zero() || m.is_one());
            assert_eq!(m.is_one(), naive.contains(&t), "tuple {t} of {q}");
        }
    }
}

/// Corollary 2's spirit: the Theorem-1 route (naïve evaluation) and the
/// first-principles route agree — checked across arities.
#[test]
fn corollary_2_fast_path_agrees() {
    let mut rng = StdRng::seed_from_u64(30);
    for _ in 0..10 {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &q_cfg(0));
        assert_eq!(
            caz_core::mu(&q, &db, None),
            caz_core::mu_via_polynomials(&q, &db, None)
        );
    }
}

/// Proposition 1: naïve evaluation is independent of the chosen
/// bijective valuation (every call draws a fresh one).
#[test]
fn proposition_1_bijective_independence() {
    let mut rng = StdRng::seed_from_u64(40);
    for _ in 0..10 {
        let db = random_database(&mut rng, &db_cfg(3));
        let q = random_query(&mut rng, &q_cfg(1));
        let first = naive_eval(&q, &db);
        for _ in 0..3 {
            assert_eq!(first, naive_eval(&q, &db));
        }
    }
}

/// Proposition 3 in full: μ(Σ→Q) = 1 when μ(Σ) = 0, else μ(Q).
#[test]
fn proposition_3_randomized() {
    let mut rng = StdRng::seed_from_u64(50);
    let sigma = parse_constraints("fd R: 1 -> 2").unwrap();
    for _ in 0..15 {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &q_cfg(0));
        let imp = mu_implication(&sigma, &q, &db);
        if sigma_almost_certainly_true(&sigma, &db) {
            assert_eq!(imp, caz_core::mu(&q, &db, None), "{q} on\n{db}");
        } else {
            assert!(imp.is_one(), "{q} on\n{db}");
        }
    }
}

/// Theorem 3: conditional measures always exist and are rationals in
/// [0, 1] — for inclusion constraints too, where non-0/1 values occur.
#[test]
fn theorem_3_convergence_randomized() {
    let mut rng = StdRng::seed_from_u64(60);
    let sigma = parse_constraints("ind R[1] <= S[1]").unwrap();
    let mut non_trivial = 0;
    for _ in 0..60 {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &q_cfg(0));
        let v = mu_conditional(&q, &sigma, &db, None);
        assert!(v.in_unit_interval(), "μ(Q|Σ) = {v} out of [0,1]");
        if !v.is_zero() && !v.is_one() {
            non_trivial += 1;
        }
    }
    assert!(non_trivial > 0, "the sweep should hit non-0/1 conditionals");
}

/// Theorem 4 randomized: whenever Σ^naïve(D) holds, conditioning is a
/// no-op.
#[test]
fn theorem_4_randomized() {
    let mut rng = StdRng::seed_from_u64(70);
    let sigma = parse_constraints("ind R[2] <= S[1]").unwrap();
    let mut hit = 0;
    for _ in 0..40 {
        let db = random_database(&mut rng, &db_cfg(2));
        if !sigma_almost_certainly_true(&sigma, &db) {
            continue;
        }
        hit += 1;
        let q = random_query(&mut rng, &q_cfg(0));
        assert_eq!(
            mu_conditional(&q, &sigma, &db, None),
            caz_core::mu(&q, &db, None),
            "{q} on\n{db}"
        );
    }
    assert!(hit > 0, "some sampled databases satisfy Σ naïvely");
}

/// Best answers: nonempty on nonempty domains; equal to certain answers
/// when those are nonempty (§5).
#[test]
fn best_answer_laws_randomized() {
    let mut rng = StdRng::seed_from_u64(80);
    for _ in 0..8 {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &q_cfg(1));
        if db.adom().is_empty() {
            continue;
        }
        let best = best_answers(&q, &db);
        assert!(!best.is_empty(), "Best(Q, D) ≠ ∅ on {q}\n{db}");
        let certain = certain_answers(&q, &db);
        if !certain.is_empty() {
            assert_eq!(best, certain, "Best = certain when certain ≠ ∅: {q}\n{db}");
        }
    }
}

/// The orders are consistent: ⊲ is irreflexive and asymmetric, ⊴ is
/// reflexive, and ⊲ implies ⊴.
#[test]
fn order_axioms_randomized() {
    let mut rng = StdRng::seed_from_u64(90);
    for _ in 0..6 {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &q_cfg(1));
        let cands = adom_candidates(&db, 1);
        for a in cands.iter().take(3) {
            assert!(dominated(&q, &db, a, a));
            assert!(!strictly_better(&q, &db, a, a));
            for b in cands.iter().take(3) {
                if strictly_better(&q, &db, a, b) {
                    assert!(dominated(&q, &db, a, b));
                    assert!(!strictly_better(&q, &db, b, a));
                }
            }
        }
    }
}

/// Genericity (Definition 1) of the whole pipeline: permuting constants
/// (fixing the query's constants) commutes with evaluation, naïve
/// evaluation, and the measure.
#[test]
fn genericity_of_the_pipeline() {
    let mut rng = StdRng::seed_from_u64(100);
    for _ in 0..8 {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &q_cfg(0));
        // A permutation swapping two fresh constants not in C.
        let (x, y) = (Cst::new("swap_x"), Cst::new("swap_y"));
        let pi = move |v: Value| match v {
            Value::Const(c) if c == Cst::new("d1") => Value::Const(x),
            Value::Const(c) if c == x => Value::Const(Cst::new("d1")),
            other => other,
        };
        let _ = y;
        let permuted = db.map(pi);
        assert_eq!(naive_eval_bool(&q, &db), naive_eval_bool(&q, &permuted), "{q}");
        assert_eq!(
            caz_core::mu(&q, &db, None),
            caz_core::mu(&q, &permuted, None)
        );
    }
}
