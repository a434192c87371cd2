//! Theorem 4's side condition ≡ its first-order rendering.
//!
//! `Route::Theorem4Unconditional` decides `Σ^naïve(D)` with the
//! constraint engine (`ConstraintSet::holds_in` on the naïve instance)
//! and renders `Σ` as a sentence only to validate it. The oracle here
//! is the definition: render `Σ` as a Boolean query and evaluate it
//! naïvely. The verdicts must agree, and every rejection must read
//! byte for byte as the oracle's, the unknown-relation and
//! column-range errors included.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed and case): random FD, key, IND and FK sets over `R/2`, `S/1`,
//! `T/3` and an undeclared `Z/2`, with occasional out-of-range columns,
//! against random databases with repeated nulls. Reproduce with
//! `CAZ_TEST_SEED=<seed> cargo test -p caz-planner --test theorem4_differential`.

use caz_constraints::{Constraint, ConstraintSet, Fd, Ind, UnaryFk, UnaryKey};
use caz_idb::{Cst, Database, NullId, Tuple, Value};
use caz_logic::{naive_eval_bool, parse_query};
use caz_planner::{Job, PlanKind, QueryRef, Route};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};

const CASES: usize = 400;

/// Relations the constraints may mention, with arities. `Z` never
/// occurs in a database.
const RELATIONS: [(&str, usize); 4] = [("R", 2), ("S", 1), ("T", 3), ("Z", 2)];

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(3707)
}

/// A column of a relation of arity `arity`; one draw in 25 is out of
/// range.
fn col(rng: &mut StdRng, arity: usize) -> usize {
    if rng.random_bool(0.04) {
        arity + rng.random_range(0..2usize)
    } else {
        rng.random_range(0..arity)
    }
}

fn rel(rng: &mut StdRng) -> (&'static str, usize) {
    // The undeclared relation is drawn rarely.
    let i = if rng.random_bool(0.03) { 3 } else { rng.random_range(0..3usize) };
    RELATIONS[i]
}

fn constraint(rng: &mut StdRng) -> Constraint {
    match rng.random_range(0..4u32) {
        0 => {
            let (r, a) = rel(rng);
            let lhs = (0..rng.random_range(0..=2usize)).map(|_| col(rng, a)).collect();
            Constraint::Fd(Fd::new(r, lhs, col(rng, a)))
        }
        1 => {
            let (r, a) = rel(rng);
            Constraint::Key(UnaryKey::new(r, col(rng, a)))
        }
        2 => {
            let ((fr, fa), (tr, ta)) = (rel(rng), rel(rng));
            let width = rng.random_range(1..=2usize);
            let from = (0..width).map(|_| col(rng, fa)).collect();
            let to = (0..width).map(|_| col(rng, ta)).collect();
            Constraint::Ind(Ind::new(fr, from, tr, to))
        }
        _ => {
            let ((fr, fa), (tr, ta)) = (rel(rng), rel(rng));
            Constraint::Fk(UnaryFk::new(fr, col(rng, fa), tr, col(rng, ta)))
        }
    }
}

/// A small database over `R`, `S`, `T` with constants `a`–`c` and up to
/// three nulls, each relation present (possibly empty) or absent.
fn database(rng: &mut StdRng) -> Database {
    let consts: Vec<Cst> = ["a", "b", "c"].iter().map(|c| Cst::new(c)).collect();
    let nulls: Vec<NullId> = (0..rng.random_range(0..=3usize)).map(|_| NullId::fresh()).collect();
    let mut db = Database::new();
    for &(name, arity) in &RELATIONS[..3] {
        match rng.random_range(0..10u32) {
            0 => continue, // absent: not in D's schema
            1 => {
                db.relation_mut(name, arity); // declared but empty
            }
            _ => {
                for _ in 0..rng.random_range(1..=3usize) {
                    let values = (0..arity)
                        .map(|_| {
                            if !nulls.is_empty() && rng.random_bool(0.5) {
                                Value::Null(nulls[rng.random_range(0..nulls.len())])
                            } else {
                                Value::Const(consts[rng.random_range(0..consts.len())])
                            }
                        })
                        .collect();
                    db.insert(name, Tuple::new(values));
                }
            }
        }
    }
    db
}

/// Theorem 4's verdict as the definition states it.
fn oracle(sigma: &ConstraintSet, db: &Database) -> Result<(), String> {
    let sq = sigma
        .to_query(&db.schema())
        .map_err(|e| format!("Σ cannot be rendered as a query: {e}"))?;
    if naive_eval_bool(&sq, db) {
        Ok(())
    } else {
        Err("Σ^naïve(D) is false; Theorem 4 needs the constraints to hold naïvely in D".into())
    }
}

#[test]
fn precondition_equals_naive_evaluation_of_sigma() {
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let q = parse_query("Q := exists u, v. R(u, v)").unwrap();
    let (mut held, mut failed, mut unknown, mut out_of_range) = (0, 0, 0, 0);
    for case in 0..CASES {
        let db = database(&mut rng);
        let size = rng.random_range(1..=3usize);
        let sigma = ConstraintSet::from_constraints((0..size).map(|_| constraint(&mut rng)));
        let job = Job {
            kind: PlanKind::Cond,
            query: QueryRef::Fo(&q),
            sigma: &sigma,
            db: &db,
            tuple: None,
            tuple2: None,
        };
        let want = oracle(&sigma, &db);
        let got = Route::Theorem4Unconditional.precondition(&job);
        assert_eq!(got, want, "CAZ_TEST_SEED={seed} case {case}: Σ = {sigma:?} over D = {db}");
        match want {
            Ok(()) => held += 1,
            Err(e) if e.contains("unknown relation") => unknown += 1,
            Err(e) if e.starts_with("Σ cannot") => out_of_range += 1,
            Err(_) => failed += 1,
        }
    }
    // The draw must reach every verdict, or the comparison is vacuous.
    for (verdict, n) in [
        ("holds naïvely", held),
        ("fails naïvely", failed),
        ("names an unknown relation", unknown),
        ("has a column out of range", out_of_range),
    ] {
        assert!(n >= CASES / 40, "CAZ_TEST_SEED={seed}: only {n} cases where Σ {verdict}");
    }
}
