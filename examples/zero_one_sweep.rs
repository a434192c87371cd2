//! The 0–1 law on random workloads (Theorem 1, Theorem 2).
//!
//! Samples random incomplete databases and random first-order queries,
//! and shows three independent routes to the measure agreeing:
//!
//! 1. the finite sequences `μᵏ` (exhaustive) and `mᵏ` (counting
//!    completed databases) marching towards 0 or 1,
//! 2. the exact limit from the support-polynomial engine,
//! 3. Theorem 1's prediction via naïve evaluation,
//!
//! plus a Monte-Carlo estimate of `μᵏ` for large `k`.
//!
//! Run with `cargo run --example zero_one_sweep`.

use certain_answers::prelude::*;
use caz_logic::{random_query, QueryGenConfig};
use caz_testutil::rngs::StdRng;
use caz_testutil::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2018);
    let db_cfg = DbGenConfig {
        relations: vec![("R".into(), 2), ("S".into(), 1)],
        tuples_per_relation: 3,
        num_constants: 3,
        num_nulls: 3,
        null_prob: 0.5,
    };
    let q_cfg = QueryGenConfig {
        schema: Schema::from_pairs([("R", 2), ("S", 1)]),
        arity: 0,
        max_depth: 2,
        allow_negation: true,
        allow_forall: true,
        constants: vec![Cst::new("d0")],
    };

    let mut zeros = 0;
    let mut ones = 0;
    for trial in 0..10 {
        let db = random_database(&mut rng, &db_cfg);
        let q = random_query(&mut rng, &q_cfg);
        let ev = BoolQueryEvent::new(q.clone());

        let exact = caz_core::mu_exact(&ev, &db).unwrap();
        let naive = naive_eval_bool(&q, &db);
        assert_eq!(exact.is_one(), naive, "Theorem 1");
        assert!(exact.is_zero() || exact.is_one(), "0–1 law");
        if exact.is_one() {
            ones += 1;
        } else {
            zeros += 1;
        }

        let mu_series = mu_k_series(&ev, &db, 7);
        let m_series = m_k_series(&ev, &db, 7);
        let est = estimate_mu_k(&mut rng, &ev, &db, 50, 2000).expect("valid sampling parameters");

        println!(
            "trial {trial:>2}: μ = {exact}  (naïve: {naive})   μ⁷ = {}   m⁷ = {}   μ̂⁵⁰ ≈ {:.3} ± {:.3}",
            mu_series.values.last().unwrap(),
            m_series.values.last().unwrap(),
            est.value,
            est.std_error,
        );
        println!("          query: {q}");
    }
    println!("\n{ones} almost certainly true, {zeros} almost certainly false — never in between.");

    // Corollary 3: for Pos∀G queries, certain = almost certainly true.
    let parsed = parse_database("Course(_c). Enrolled(alice, _c).").unwrap();
    let q = parse_query(
        "Q := forall c. Course(c) -> exists s. Enrolled(s, c)",
    )
    .unwrap();
    assert!(caz_logic::is_pos_forall_guarded(&q.body));
    let acert = almost_certainly_true(&q, &parsed.db, None);
    let cert = certainly_true(&q, &parsed.db);
    println!("\nPos∀G query: almost certainly true = {acert}, certainly true = {cert} (Corollary 3: equal)");
    assert_eq!(acert, cert);
}
