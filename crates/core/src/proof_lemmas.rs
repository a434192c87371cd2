//! Executable versions of the lemmas inside the proofs of Theorems 1
//! and 2 — the "combinatorial arguments" the paper describes informally.
//!
//! The proofs pivot on `C`-bijective valuations: those assigning
//! pairwise-distinct constants outside `A = Const(D) ∪ C`. Three facts
//! carry the 0–1 law:
//!
//! 1. there are exactly `(k−c)(k−c−1)⋯(k−c−m+1)` bijective valuations
//!    in `Vᵏ(D)` — a falling factorial;
//! 2. the non-bijective ones number at most `(m² + mc)·k^{m−1}`
//!    (the union bound over "two nulls collide" and "some null hits a
//!    named constant"), so their fraction vanishes;
//! 3. consequently `μ(Q, D) = limₖ μᵏ_bij(Q, D)` — the measure can be
//!    computed on bijective valuations alone, where genericity makes the
//!    query's truth constant (Proposition 1).
//!
//! Each fact is an executable function here, tested exactly against
//! enumeration; the experiments use them to show the proof "runs".

use crate::support::{enumeration_for, SuppEvent};
use caz_arith::{BigInt, Poly, Ratio};
use caz_idb::{ConstEnum, Cst, Database};
use std::collections::BTreeSet;

/// Parameters of the bijective-valuation counting: `m` nulls, `c` named
/// constants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BijectiveCounts {
    /// Number of nulls.
    pub m: usize,
    /// Number of named constants (`|Const(D) ∪ C|`).
    pub c: usize,
}

impl BijectiveCounts {
    /// For an event over a database.
    pub fn of(event: &dyn SuppEvent, db: &Database) -> BijectiveCounts {
        let mut named = db.consts();
        named.extend(event.constants());
        BijectiveCounts { m: db.nulls().len(), c: named.len() }
    }

    /// `|Vᵏ_bij(D)|` as a polynomial in `k`: the falling factorial
    /// `(k−c)…(k−c−m+1)`.
    pub fn bijective_poly(&self) -> Poly {
        Poly::falling_factorial(self.c as i64, self.m)
    }

    /// Exact number of `C`-bijective valuations at a concrete `k`.
    pub fn bijective_at(&self, k: usize) -> Ratio {
        self.bijective_poly().eval_int(&BigInt::from(k))
    }

    /// The proof's upper bound on non-bijective valuations:
    /// `(m² + m·c) · k^{m−1}` (zero when `m = 0`).
    pub fn non_bijective_bound(&self, k: usize) -> Ratio {
        if self.m == 0 {
            return Ratio::zero();
        }
        let coeff = BigInt::from((self.m * self.m + self.m * self.c) as u64);
        let pow = BigInt::from(k).pow((self.m - 1) as u32);
        Ratio::from_int(&coeff * &pow)
    }

    /// The fraction of bijective valuations at `k` (tends to 1).
    pub fn bijective_fraction(&self, k: usize) -> Ratio {
        let total = Ratio::from_int(BigInt::from(k).pow(self.m as u32));
        if total.is_zero() {
            return Ratio::zero();
        }
        &self.bijective_at(k) / &total
    }
}

/// `μᵏ_bij(event, D)`: the fraction of `C`-bijective valuations in
/// `Vᵏ(D)` under which the event holds — the quantity the proof of
/// Theorem 1 actually analyzes. By Proposition 1 it is 0 or 1 for every
/// `k` with at least one bijective valuation.
pub fn mu_k_bijective(event: &dyn SuppEvent, db: &Database, k: usize) -> Option<Ratio> {
    let en = enumeration_for(event, db);
    let mut named: BTreeSet<Cst> = db.consts();
    named.extend(event.constants());
    let nulls = db.nulls();
    let (mut bij, mut hits) = (0u64, 0u64);
    for v in en.valuations(&nulls, k) {
        if v.is_bijective_avoiding(&named) {
            bij += 1;
            if event.holds(&v, &v.apply_db(db)) {
                hits += 1;
            }
        }
    }
    if bij == 0 {
        None
    } else {
        Some(Ratio::from_frac(hits as i64, bij as i64))
    }
}

/// Exact count of non-bijective valuations at `k` (for checking the
/// proof's bound).
pub fn non_bijective_exact(event: &dyn SuppEvent, db: &Database, k: usize) -> u64 {
    let en = enumeration_for(event, db);
    let mut named: BTreeSet<Cst> = db.consts();
    named.extend(event.constants());
    let nulls = db.nulls();
    en.valuations(&nulls, k)
        .filter(|v| !v.is_bijective_avoiding(&named))
        .count() as u64
}

/// Theorem 2's counting lemma, executable: over `C`-bijective
/// valuations, `v₁(D) = v₂(D)` iff the valuations differ by a null
/// automorphism of `D`, so the number of *distinct databases* they
/// produce is `|Vᵏ_bij| / |Aut(D)|`. Returns
/// `(distinct images, bijective count, |Aut|)` at the given `k`, with
/// the identity checked by the caller (and the tests).
pub fn bijective_image_census(
    event: &dyn SuppEvent,
    db: &Database,
    k: usize,
) -> (u64, u64, u64) {
    let en = enumeration_for(event, db);
    let mut named: BTreeSet<Cst> = db.consts();
    named.extend(event.constants());
    let nulls = db.nulls();
    let mut images: std::collections::HashSet<Database> = std::collections::HashSet::new();
    let mut bij = 0u64;
    for v in en.valuations(&nulls, k) {
        if v.is_bijective_avoiding(&named) {
            bij += 1;
            images.insert(v.apply_db(db));
        }
    }
    (images.len() as u64, bij, caz_idb::null_automorphism_count(db))
}

/// The count identity `kᵐ = |bijective| + |non-bijective|`, verified
/// exactly (returns the three numbers).
pub fn partition_of_valuations(
    event: &dyn SuppEvent,
    db: &Database,
    k: usize,
) -> (u128, Ratio, u64) {
    let total = ConstEnum::count_valuations(k, db.nulls().len()).expect("space fits");
    let counts = BijectiveCounts::of(event, db);
    (total, counts.bijective_at(k), non_bijective_exact(event, db, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::mu_k;
    use crate::poly_engine::mu_exact;
    use crate::support::BoolQueryEvent;
    use caz_idb::parse_database;
    use caz_logic::parse_query;

    fn setup() -> (Database, BoolQueryEvent) {
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let q = parse_query("Col := exists p. R(c1, p) & R(c2, p)").unwrap();
        (db, BoolQueryEvent::new(q))
    }

    #[test]
    fn falling_factorial_counts_bijective_valuations() {
        let (db, ev) = setup();
        let counts = BijectiveCounts::of(&ev, &db);
        assert_eq!(counts, BijectiveCounts { m: 2, c: 2 });
        for k in 2..=8usize {
            let (total, bij, nonbij) = partition_of_valuations(&ev, &db, k);
            assert_eq!(
                bij.clone() + Ratio::from_int(nonbij as i64),
                Ratio::from_int(total as i64),
                "partition identity at k={k}"
            );
            assert_eq!(bij, counts.bijective_at(k));
        }
    }

    #[test]
    fn proof_bound_dominates_exact_count() {
        let (db, ev) = setup();
        let counts = BijectiveCounts::of(&ev, &db);
        for k in 1..=10usize {
            let exact = non_bijective_exact(&ev, &db, k);
            let bound = counts.non_bijective_bound(k);
            assert!(
                Ratio::from_int(exact as i64) <= bound,
                "k={k}: exact {exact} exceeds the proof bound {bound}"
            );
        }
    }

    #[test]
    fn bijective_fraction_tends_to_one() {
        let (db, ev) = setup();
        let counts = BijectiveCounts::of(&ev, &db);
        let mut prev = Ratio::zero();
        for k in 4..=20usize {
            let f = counts.bijective_fraction(k);
            assert!(f >= prev, "fraction must be nondecreasing past c+m");
            prev = f;
        }
        // ff(18, 2)/20² = 306/400.
        assert_eq!(prev, Ratio::from_frac(306, 400));
        assert!(prev > Ratio::from_frac(3, 4), "already ≥ 3/4 at k = 20");
    }

    #[test]
    fn mu_bijective_is_zero_or_one_and_matches_limit() {
        let (db, ev) = setup();
        let limit = mu_exact(&ev, &db).unwrap();
        for k in 5..=9usize {
            let b = mu_k_bijective(&ev, &db, k).expect("bijective valuations exist");
            assert!(b.is_zero() || b.is_one(), "Proposition 1 forces 0/1, got {b}");
            assert_eq!(b, limit, "μᵏ_bij already equals the limit at k={k}");
        }
        // The plain μᵏ does NOT equal the limit at finite k…
        assert_ne!(mu_k(&ev, &db, 6), limit);
    }

    #[test]
    fn theorem_2_automorphism_identity() {
        // R(1,⊥a), R(1,⊥b): swapping ⊥a and ⊥b fixes D, so |Aut| = 2 and
        // bijective valuations produce bij/2 distinct databases.
        let db = parse_database("R(1, _a). R(1, _b).").unwrap().db;
        let q = parse_query("T := exists x, y. R(x, y)").unwrap();
        let ev = BoolQueryEvent::new(q);
        for k in 3..=7usize {
            let (distinct, bij, aut) = bijective_image_census(&ev, &db, k);
            assert_eq!(aut, 2);
            assert_eq!(distinct * aut, bij, "k={k}");
        }
        // An asymmetric database has a trivial automorphism group.
        let db2 = parse_database("R(1, _a). R(2, _b).").unwrap().db;
        let q2 = parse_query("T := exists x, y. R(x, y)").unwrap();
        let ev2 = BoolQueryEvent::new(q2);
        let (distinct, bij, aut) = bijective_image_census(&ev2, &db2, 5);
        assert_eq!(aut, 1);
        assert_eq!(distinct, bij);
    }

    #[test]
    fn no_bijective_valuations_when_k_too_small() {
        let (db, ev) = setup();
        // c = 2, m = 2: need k ≥ 4 for a bijective valuation.
        assert_eq!(mu_k_bijective(&ev, &db, 3), None);
        assert!(mu_k_bijective(&ev, &db, 4).is_some());
    }

    #[test]
    fn null_free_database_is_all_bijective() {
        let db = parse_database("R(a, b).").unwrap().db;
        let q = parse_query("T := exists x, y. R(x, y)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let counts = BijectiveCounts::of(&ev, &db);
        assert_eq!(counts.m, 0);
        assert_eq!(counts.bijective_at(5), Ratio::one());
        assert_eq!(counts.non_bijective_bound(5), Ratio::zero());
        assert_eq!(mu_k_bijective(&ev, &db, 5), Some(Ratio::one()));
    }
}
