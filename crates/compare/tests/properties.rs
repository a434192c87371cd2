//! Property tests for the comparison engines: the bitmap table, the
//! early-exit Sep search, and the UCQ certificate algorithm must agree;
//! best answers must satisfy their defining laws. The table and Sep both
//! run on the class walk, so the walk's own oracle is brute force over
//! the witness pool, which enumerates valuations without it.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed and case): each property draws its own stream of databases over
//! `R/2`, `S/1` and random queries. The UCQ oracle also draws databases
//! with 3–4 nulls and few or no constants, with binary UCQs, so
//! certificates need several fresh constants, and answer tuples outside
//! the active domain, so certificates need anchored nulls.
//! Reproduce with `CAZ_TEST_SEED=<seed> cargo test -p caz-compare --test properties`.

use caz_compare::{
    adom_candidates, best_among, dominated, sep, strictly_better, support_table, Graph,
    UcqComparator,
};
use caz_core::{is_certain_answer, is_possible_answer};
use caz_idb::{
    random_database, ConstEnum, Cst, Database, DbGenConfig, NullId, Schema, Tuple, Valuation, Value,
};
use caz_logic::{random_query, random_ucq, tuple_in_answer, Query, QueryGenConfig};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};

const CASES: usize = 16;

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(3707)
}

/// The stream for one property: the suite seed mixed with a salt, so
/// properties draw independent cases.
fn stream(salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn gen_db(rng: &mut StdRng, nulls: usize, constants: usize) -> Database {
    let cfg = DbGenConfig {
        relations: vec![("R".into(), 2), ("S".into(), 1)],
        tuples_per_relation: 3,
        num_constants: constants,
        num_nulls: nulls,
        null_prob: 0.5,
    };
    random_database(rng, &cfg)
}

fn gen_q(rng: &mut StdRng, negation: bool, arity: usize) -> Query {
    let cfg = QueryGenConfig {
        schema: Schema::from_pairs([("R", 2), ("S", 1)]),
        arity,
        max_depth: 2,
        allow_negation: negation,
        allow_forall: false,
        constants: vec![],
    };
    if negation {
        random_query(rng, &cfg)
    } else {
        random_ucq(rng, &cfg)
    }
}

/// The bitmap table and pairwise Sep agree on every pair.
#[test]
fn bitmap_table_equals_pairwise_sep() {
    let (seed, mut rng) = (seed(), stream(1));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 2, 2);
        let q = gen_q(&mut rng, true, 1);
        let candidates: Vec<_> = adom_candidates(&db, 1).into_iter().take(4).collect();
        let table = support_table(&q, &db, &candidates);
        for (i, a) in candidates.iter().enumerate() {
            for (j, b) in candidates.iter().enumerate() {
                assert_eq!(
                    table.dominated(i, j),
                    !sep(&q, &db, a, b),
                    "CAZ_TEST_SEED={seed} case {case}: pair ({a}, {b}) of {q} over {db}"
                );
            }
        }
    }
}

/// The witness pool over `Const(D) ∪ extra`: `Vᶜ⁺ᵐ(D)`, every valuation
/// into the `c` named constants and `m` fresh ones, enumerated without
/// the class walk.
fn witness_pool(db: &Database, extra: impl IntoIterator<Item = Cst>) -> Vec<Valuation> {
    let en = ConstEnum::new(db.consts().into_iter().chain(extra));
    let nulls = db.nulls();
    en.valuations(&nulls, en.named_count() + nulls.len()).collect()
}

/// Does `v` support `t`: `v(t) ∈ Q(v(D))`?
fn supports(q: &Query, db: &Database, v: &Valuation, t: &Tuple) -> bool {
    let vt = v.apply_tuple(t);
    vt.is_complete() && tuple_in_answer(q, &v.apply_db(db), &vt)
}

/// The class walk decides what brute force over the witness pool
/// decides: certain and possible answers over `Const(D) ∪ C ∪ consts(ā)`,
/// and Sep over `Const(D) ∪ C ∪ consts(ā, b̄)`. First-order queries with
/// negation and a query constant, 0–3 nulls, and candidates that
/// include a constant outside `adom(D)`.
#[test]
fn class_walk_equals_brute_force_over_the_witness_pool() {
    let (seed, mut rng) = (seed(), stream(7));
    let outside = Tuple::new(vec![Value::Const(Cst::new("k0"))]);
    for case in 0..4 * CASES {
        let nulls = rng.random_range(0..=3usize);
        let db = gen_db(&mut rng, nulls, 2);
        let cfg = QueryGenConfig {
            schema: Schema::from_pairs([("R", 2), ("S", 1)]),
            arity: 1,
            max_depth: 2,
            allow_negation: true,
            allow_forall: true,
            constants: vec![Cst::new("d0")],
        };
        let q = random_query(&mut rng, &cfg);
        let mut candidates: Vec<_> = adom_candidates(&db, 1).into_iter().take(3).collect();
        candidates.push(outside.clone());
        for a in &candidates {
            let at = format!("CAZ_TEST_SEED={seed} case {case}: {a} of {q} over {db}");
            let pool = witness_pool(&db, q.generic_consts().into_iter().chain(a.consts()));
            let hits = pool.iter().filter(|v| supports(&q, &db, v, a)).count();
            assert_eq!(is_certain_answer(&q, &db, a), hits == pool.len(), "certain: {at}");
            assert_eq!(is_possible_answer(&q, &db, a), hits > 0, "possible: {at}");
            for b in &candidates {
                let named = q.generic_consts().into_iter().chain(a.consts()).chain(b.consts());
                let brute = witness_pool(&db, named)
                    .iter()
                    .any(|v| supports(&q, &db, v, a) && !supports(&q, &db, v, b));
                assert_eq!(sep(&q, &db, a, b), brute, "Sep against {b}: {at}");
            }
        }
    }
}

/// The UCQ certificate algorithm agrees with brute force on random
/// UCQs, on every Sep pair and on best-answer sets.
#[test]
fn ucq_engine_agrees() {
    let (seed, mut rng) = (seed(), stream(2));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 2, 2);
        let q = gen_q(&mut rng, false, 1);
        let cmp = UcqComparator::new(&q).expect("UCQ generator");
        let candidates: Vec<_> = adom_candidates(&db, 1).into_iter().take(3).collect();
        for a in &candidates {
            for b in &candidates {
                assert_eq!(
                    cmp.sep(&db, a, b),
                    sep(&q, &db, a, b),
                    "CAZ_TEST_SEED={seed} case {case}: Sep({a}, {b}) of {q} over {db}"
                );
            }
        }
        let fast = cmp.best_answers(&db);
        let slow = caz_compare::best_answers(&q, &db);
        assert_eq!(fast, slow, "CAZ_TEST_SEED={seed} case {case}: best answers of {q} over {db}");
    }
}

/// The same oracle on null-heavy draws: 3–4 nulls, few or no
/// constants and binary UCQs, compared on random candidate pairs.
/// Separating tuples such as `(⊥x, ⊥y)` from `(⊥y, ⊥x)` needs nulls
/// valued apart, and with no named constant to spare, the certificate's
/// valuation gives several classes fresh constants of their own.
#[test]
fn ucq_engine_agrees_with_many_nulls() {
    let (seed, mut rng) = (seed(), stream(5));
    for case in 0..2 * CASES {
        let cfg = DbGenConfig {
            relations: vec![("R".into(), 2), ("S".into(), 1)],
            tuples_per_relation: 3,
            num_constants: 1,
            num_nulls: rng.random_range(3..=4usize),
            null_prob: 0.9,
        };
        let db = random_database(&mut rng, &cfg);
        let q = gen_q(&mut rng, false, 2);
        let cmp = UcqComparator::new(&q).expect("UCQ generator");
        let all = adom_candidates(&db, 2);
        let pick = |rng: &mut StdRng| all[rng.random_range(0..all.len())].clone();
        for _ in 0..4 {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            for (x, y) in [(&a, &b), (&b, &a)] {
                assert_eq!(
                    cmp.sep(&db, x, y),
                    sep(&q, &db, x, y),
                    "CAZ_TEST_SEED={seed} case {case}: Sep({x}, {y}) of {q} over {db}"
                );
            }
        }
    }
}

/// The oracle where answers leave the active domain: Boolean, unary
/// and binary UCQs with query constants (one of them outside every
/// database) and equalities, over 1–3 nulls, compared on tuples that
/// may hold a query constant, a constant outside `Const(D)` or a null
/// outside `D`. A constant of ā outside `Const(D)` is an answer only
/// under a valuation that sends some null to it, so the certificate
/// search must anchor a null there. 128 cases of 8 pairs, each in both
/// directions: 2,048 ordered pairs per seed.
#[test]
fn ucq_engine_agrees_outside_the_active_domain() {
    let (seed, mut rng) = (seed(), stream(6));
    let (outside, stranger) = (Cst::new("k0"), NullId::fresh());
    for case in 0..128 {
        let cfg = DbGenConfig {
            relations: vec![("R".into(), 2), ("S".into(), 1)],
            tuples_per_relation: rng.random_range(1..=3usize),
            num_constants: rng.random_range(1..=2usize),
            num_nulls: rng.random_range(1..=3usize),
            null_prob: 0.5,
        };
        let db = random_database(&mut rng, &cfg);
        let qcfg = QueryGenConfig {
            schema: Schema::from_pairs([("R", 2), ("S", 1)]),
            arity: rng.random_range(0..=2usize),
            max_depth: 2,
            allow_negation: false,
            allow_forall: false,
            constants: vec![Cst::new("d0"), outside],
        };
        let q = random_ucq(&mut rng, &qcfg);
        let cmp = UcqComparator::new(&q).expect("UCQ generator");
        let pool: Vec<Value> = db.adom().into_iter().collect();
        let extra = [Value::Const(outside), Value::Const(Cst::new("e0")), Value::Null(stranger)];
        let draw = |rng: &mut StdRng| {
            Tuple::new(
                (0..q.arity())
                    .map(|_| {
                        if rng.random_bool(0.3) {
                            extra[rng.random_range(0..extra.len())]
                        } else {
                            pool[rng.random_range(0..pool.len())]
                        }
                    })
                    .collect(),
            )
        };
        for _ in 0..8 {
            let (a, b) = (draw(&mut rng), draw(&mut rng));
            for (x, y) in [(&a, &b), (&b, &a)] {
                assert_eq!(
                    cmp.sep(&db, x, y),
                    sep(&q, &db, x, y),
                    "CAZ_TEST_SEED={seed} case {case}: Sep({x}, {y}) of {q} over {db}"
                );
            }
        }
    }
}

/// Best answers are exactly the ⊲-maximal candidates.
#[test]
fn best_is_maximal() {
    let (seed, mut rng) = (seed(), stream(3));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 2, 2);
        let q = gen_q(&mut rng, true, 1);
        let candidates = adom_candidates(&db, 1);
        let best = best_among(&q, &db, &candidates);
        for c in &candidates {
            let beaten = candidates.iter().any(|d| strictly_better(&q, &db, c, d));
            assert_eq!(
                !beaten,
                best.contains(c),
                "CAZ_TEST_SEED={seed} case {case}: candidate {c} of {q} over {db}"
            );
        }
    }
}

/// Support-equivalence partitions candidates consistently with ⊴ in
/// both directions.
#[test]
fn domination_antisymmetry_is_equivalence() {
    let (seed, mut rng) = (seed(), stream(4));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 2, 2);
        let q = gen_q(&mut rng, true, 1);
        let candidates: Vec<_> = adom_candidates(&db, 1).into_iter().take(3).collect();
        for a in &candidates {
            for b in &candidates {
                let ab = dominated(&q, &db, a, b);
                let ba = dominated(&q, &db, b, a);
                assert_eq!(
                    ab && ba,
                    caz_compare::equivalent(&q, &db, a, b),
                    "CAZ_TEST_SEED={seed} case {case}: ({a}, {b}) of {q} over {db}"
                );
            }
        }
    }
}

/// The coloring reduction is faithful on every graph with ≤ 3 vertices
/// (exhaustive: the space is tiny).
#[test]
fn coloring_reduction_exhaustive_small() {
    for n in 1..=3usize {
        let all_edges: Vec<(usize, usize)> =
            (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))).collect();
        for mask in 0..(1u32 << all_edges.len()) {
            let edges: Vec<_> = all_edges
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &e)| e)
                .collect();
            let g = Graph { n, edges };
            let inst = caz_compare::coloring_comparison_instance(&g);
            assert_eq!(sep(&inst.query, &inst.db, &inst.a, &inst.b), g.is_3_colorable(), "{g:?}");
        }
    }
}
