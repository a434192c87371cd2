//! Property tests for the incomplete-database substrate: the text
//! format, valuations and their spaces, canonical forms and union.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed and case): each property draws its own stream of random
//! databases over `R/2` and `S/1`. The renaming property is what every
//! cache key rests on: the canonical form of `D` must not depend on
//! which null ids `D` happens to use.
//! Reproduce with `CAZ_TEST_SEED=<seed> cargo test -p caz-idb --test properties`.

use caz_idb::{
    is_isomorphic, iso_canonical, parse_database, random_database, ConstEnum, Cst, Database,
    DbGenConfig, NullId, Valuation, Value,
};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};
use std::collections::{BTreeMap, HashSet};

const CASES: usize = 32;

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

/// The stream for one property: the suite seed mixed with a salt, so
/// properties draw independent cases.
fn stream(salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn gen_db(rng: &mut StdRng, nulls: usize) -> Database {
    let cfg = DbGenConfig {
        relations: vec![("R".into(), 2), ("S".into(), 1)],
        tuples_per_relation: 4,
        num_constants: 3,
        num_nulls: nulls,
        null_prob: 0.5,
    };
    random_database(rng, &cfg)
}

/// Serialize a database into the parser's text format, naming nulls
/// `_n0, _n1, …` in first-encounter order.
fn to_text(db: &Database) -> String {
    let mut names: BTreeMap<NullId, String> = BTreeMap::new();
    let mut out = String::new();
    for rel in db.relations() {
        for t in rel.iter() {
            let args: Vec<String> = t
                .iter()
                .map(|v| match v {
                    Value::Const(c) => c.name(),
                    Value::Null(n) => {
                        let next = format!("_n{}", names.len());
                        names.entry(*n).or_insert(next).clone()
                    }
                })
                .collect();
            out.push_str(&format!("{}({}).\n", rel.name().resolve(), args.join(", ")));
        }
    }
    out
}

/// Serializing and reparsing yields an isomorphic database (equal up to
/// null renaming).
#[test]
fn text_roundtrip_isomorphic() {
    let (seed, mut rng) = (seed(), stream(1));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 3);
        let text = to_text(&db);
        let reparsed = parse_database(&text).unwrap().db;
        assert!(
            is_isomorphic(&db, &reparsed),
            "CAZ_TEST_SEED={seed} case {case}: roundtrip broke:\n{text}"
        );
    }
}

/// Bijective valuations invert exactly.
#[test]
fn bijective_valuation_inverts() {
    let (seed, mut rng) = (seed(), stream(2));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 3);
        let v = Valuation::bijective(db.nulls(), "pt");
        let complete = v.apply_db(&db);
        assert!(
            complete.is_complete(),
            "CAZ_TEST_SEED={seed} case {case}: {db}"
        );
        let back = complete.map(v.inverse_subst());
        assert_eq!(back, db, "CAZ_TEST_SEED={seed} case {case}");
    }
}

/// |Vᵏ(D)| = kᵐ, all valuations distinct, all total.
#[test]
fn valuation_space_cardinality() {
    let (seed, mut rng) = (seed(), stream(3));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 2);
        let k = rng.random_range(1..5usize);
        let nulls = db.nulls();
        let all: Vec<Valuation> = ConstEnum::new(db.consts()).valuations(&nulls, k).collect();
        let at = format!("CAZ_TEST_SEED={seed} case {case}, k = {k}: {db}");
        assert_eq!(
            Some(all.len() as u128),
            ConstEnum::count_valuations(k, nulls.len()),
            "{at}"
        );
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len(), "{at}");
        assert!(all.iter().all(|v| v.is_total_on(&db)), "{at}");
    }
}

/// Applying a valuation never increases the tuple count and removes
/// exactly the bound nulls.
#[test]
fn apply_db_monotone() {
    let (seed, mut rng) = (seed(), stream(4));
    for case in 0..CASES {
        let db = gen_db(&mut rng, 3);
        let v = Valuation::from_pairs(db.nulls().into_iter().map(|n| (n, Cst::new("pin"))));
        let out = v.apply_db(&db);
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {db}");
        assert!(out.len() <= db.len(), "{at}");
        assert!(out.is_complete(), "{at}");
        assert_eq!(out.schema(), db.schema(), "{at}");
    }
}

/// The canonical form is invariant under a random renaming of nulls,
/// including one that reorders their ids.
#[test]
fn canonical_form_invariant_under_renaming() {
    let (seed, mut rng) = (seed(), stream(5));
    for case in 0..CASES {
        let m = rng.random_range(0..=5usize);
        let db = gen_db(&mut rng, m);
        let nulls: Vec<NullId> = db.nulls().into_iter().collect();
        let mut fresh: Vec<NullId> = nulls.iter().map(|_| NullId::fresh()).collect();
        for i in (1..fresh.len()).rev() {
            fresh.swap(i, rng.random_range(0..=i));
        }
        let rename: BTreeMap<NullId, NullId> = nulls.into_iter().zip(fresh).collect();
        let renamed = db.map(|v| match v {
            Value::Null(n) => Value::Null(rename[&n]),
            c => c,
        });
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {db}");
        assert_eq!(iso_canonical(&db), iso_canonical(&renamed), "{at}");
        assert!(is_isomorphic(&db, &renamed), "{at}");
    }
}

/// Union is commutative, idempotent and contains both sides.
#[test]
fn union_laws() {
    let (seed, mut rng) = (seed(), stream(6));
    for case in 0..CASES {
        let (a, b) = (gen_db(&mut rng, 2), gen_db(&mut rng, 2));
        let u = a.union(&b);
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {a} ∪ {b}");
        assert!(a.is_subset_of(&u) && b.is_subset_of(&u), "{at}");
        assert_eq!(u, b.union(&a), "{at}");
        assert_eq!(a.union(&a), a, "{at}");
    }
}
