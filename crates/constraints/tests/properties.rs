//! Property tests for the constraint substrate: chase soundness,
//! confluence and idempotence, FD satisfiability decided three ways, and
//! constraint formulas against the direct checks.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed and case): each property draws its own stream of random
//! databases and random constraint sets `Σ` — kinds, relations and
//! columns — over `R/3`, `T/2` and `U/1`. Theorem 5's chase-then-measure
//! route rests on the chase properties, and Theorem 4's naïve check on
//! the formulas.
//! Reproduce with `CAZ_TEST_SEED=<seed> cargo test -p caz-constraints --test properties`.

use caz_constraints::{
    chase, fds_satisfiable, satisfiable, satisfiable_generic, Constraint, ConstraintSet, Fd, Ind,
    UnaryFk, UnaryKey,
};
use caz_idb::{
    is_isomorphic, random_complete_database, random_database, Database, DbGenConfig, Schema,
    Valuation, Value,
};
use caz_logic::eval_bool;
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};

const CASES: usize = 64;

const RELATIONS: [(&str, usize); 3] = [("R", 3), ("T", 2), ("U", 1)];

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(3707)
}

/// The stream for one property: the suite seed mixed with a salt, so
/// properties draw independent cases.
fn stream(salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn schema() -> Schema {
    Schema::from_pairs(RELATIONS)
}

fn db_cfg(nulls: usize) -> DbGenConfig {
    DbGenConfig {
        relations: RELATIONS.iter().map(|&(r, a)| (r.to_string(), a)).collect(),
        tuples_per_relation: 3,
        num_constants: 3,
        num_nulls: nulls,
        null_prob: if nulls == 0 { 0.0 } else { 0.5 },
    }
}

/// A random relation of the schema with at least `min_arity` columns.
fn relation(rng: &mut StdRng, min_arity: usize) -> (&'static str, usize) {
    let fits: Vec<_> = RELATIONS.iter().filter(|(_, a)| *a >= min_arity).collect();
    *fits[rng.random_range(0..fits.len())]
}

/// `n` distinct columns below `arity`, in random order.
fn columns(rng: &mut StdRng, arity: usize, n: usize) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..arity).collect();
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.random_range(0..=i));
    }
    cols.truncate(n);
    cols
}

/// A random FD `rel: lhs -> rhs` with a non-empty left-hand side and a
/// right-hand column outside it.
fn random_fd(rng: &mut StdRng) -> Fd {
    let (rel, arity) = relation(rng, 2);
    let lhs_len = rng.random_range(1..arity);
    let mut cols = columns(rng, arity, lhs_len + 1);
    let rhs = cols.pop().unwrap();
    Fd::new(rel, cols, rhs)
}

/// One to three random FDs.
fn random_fds(rng: &mut StdRng) -> Vec<Fd> {
    (0..rng.random_range(1..=3)).map(|_| random_fd(rng)).collect()
}

/// A random constraint of any kind: FD, IND, unary key or unary FK.
fn random_constraint(rng: &mut StdRng) -> Constraint {
    match rng.random_range(0..4) {
        0 => Constraint::Fd(random_fd(rng)),
        1 => {
            let (from, fa) = relation(rng, 1);
            let (to, ta) = relation(rng, 1);
            let width = rng.random_range(1..=fa.min(ta));
            let (fc, tc) = (columns(rng, fa, width), columns(rng, ta, width));
            Constraint::Ind(Ind::new(from, fc, to, tc))
        }
        2 => {
            let (rel, arity) = relation(rng, 1);
            Constraint::Key(UnaryKey::new(rel, rng.random_range(0..arity)))
        }
        _ => {
            let (rel, arity) = relation(rng, 1);
            let (to, ta) = relation(rng, 1);
            let (col, ref_col) = (rng.random_range(0..arity), rng.random_range(0..ta));
            Constraint::Fk(UnaryFk::new(rel, col, to, ref_col))
        }
    }
}

fn fd_set(fds: &[Fd]) -> ConstraintSet {
    ConstraintSet::from_constraints(fds.iter().cloned().map(Constraint::Fd))
}

/// Soundness: a successful chase output satisfies the FDs naïvely
/// (under a bijective valuation, nulls distinct), and the null mapping
/// sends D onto exactly the chased database.
#[test]
fn chase_output_satisfies_fds_and_is_the_image_of_d() {
    let (seed, mut rng) = (seed(), stream(1));
    for case in 0..CASES {
        let db = random_database(&mut rng, &db_cfg(3));
        let fds = random_fds(&mut rng);
        let Ok(out) = chase(&db, &fds) else { continue };
        let complete = Valuation::bijective(out.db.nulls(), "pc").apply_db(&out.db);
        for fd in &fds {
            assert!(
                fd.holds_in(&complete),
                "CAZ_TEST_SEED={seed} case {case}: chase output violates {fd}:\n{}",
                out.db
            );
        }
        let image = db.map(|val| match val {
            Value::Null(n) => out.mapping[&n],
            c => c,
        });
        assert_eq!(image, out.db, "CAZ_TEST_SEED={seed} case {case}: mapping image of\n{db}");
    }
}

/// Confluence: chasing with the FDs in any order gives isomorphic
/// results, or fails both ways.
#[test]
fn chase_is_confluent_under_fd_order() {
    let (seed, mut rng) = (seed(), stream(2));
    for case in 0..CASES {
        let db = random_database(&mut rng, &db_cfg(3));
        let fds = random_fds(&mut rng);
        let order = columns(&mut rng, fds.len(), fds.len());
        let permuted: Vec<Fd> = order.iter().map(|&i| fds[i].clone()).collect();
        let what = || format!("CAZ_TEST_SEED={seed} case {case}: Σ = {} on\n{db}", fd_set(&fds));
        match (chase(&db, &fds), chase(&db, &permuted)) {
            (Ok(a), Ok(b)) => assert!(is_isomorphic(&a.db, &b.db), "{}", what()),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{}: chase outcomes {} vs {}", what(), a.is_ok(), b.is_ok()),
        }
    }
}

/// FD satisfiability: chase success = the dispatching `satisfiable` =
/// brute-force search over valuations of Σ's sentence.
#[test]
fn fd_satisfiability_agrees_three_ways() {
    let (seed, mut rng, schema) = (seed(), stream(3), schema());
    for case in 0..CASES {
        let db = random_database(&mut rng, &db_cfg(3));
        let fds = random_fds(&mut rng);
        let set = fd_set(&fds);
        let by_chase = fds_satisfiable(&db, &fds);
        let by_dispatch = satisfiable(&set, &db, &schema).unwrap();
        let by_brute = satisfiable_generic(&set.to_query(&schema).unwrap(), &db);
        assert_eq!(
            (by_chase, by_dispatch),
            (by_brute, by_brute),
            "CAZ_TEST_SEED={seed} case {case}: Σ = {set} on\n{db}"
        );
    }
}

/// On complete databases, Σ's first-order sentence and the direct
/// checks agree, for random mixes of FDs, INDs, keys and foreign keys.
#[test]
fn formulas_agree_with_direct_checks_on_complete_databases() {
    let (seed, mut rng, schema) = (seed(), stream(4), schema());
    for case in 0..CASES {
        let db = random_complete_database(&mut rng, &db_cfg(0));
        let set = ConstraintSet::from_constraints(
            (0..rng.random_range(1..=3)).map(|_| random_constraint(&mut rng)),
        );
        assert_eq!(
            set.holds_in(&db),
            eval_bool(&set.to_query(&schema).unwrap(), &db),
            "CAZ_TEST_SEED={seed} case {case}: Σ = {set} on\n{db}"
        );
    }
}

/// Chasing a chased database changes nothing.
#[test]
fn chase_is_idempotent() {
    let (seed, mut rng) = (seed(), stream(5));
    for case in 0..CASES {
        let db: Database = random_database(&mut rng, &db_cfg(3));
        let fds = random_fds(&mut rng);
        let Ok(out) = chase(&db, &fds) else { continue };
        let again = chase(&out.db, &fds).unwrap_or_else(|e| {
            panic!("CAZ_TEST_SEED={seed} case {case}: re-chasing failed: {e}")
        });
        assert_eq!(again.merged_nulls(), 0, "CAZ_TEST_SEED={seed} case {case}");
        assert_eq!(again.db, out.db, "CAZ_TEST_SEED={seed} case {case}");
    }
}
