//! Preference-weighted measures — the extension proposed in §6 of the
//! paper ("Preferences" and "Other distributions").
//!
//! The plain measure `μ` draws each null's value uniformly from the
//! first `k` constants. Here each null may instead carry a *preference*:
//! a finite sub-distribution over named constants (e.g. "the missing
//! diagnosis is flu with probability 1/2"), with the remaining mass
//! spread uniformly over the rest of the enumeration prefix. Formally,
//! for a null `⊥` with named support `S(⊥)` and weights `p_c`:
//!
//! ```text
//! P_k(v(⊥) = c) = p_c                         for c ∈ S(⊥)
//! P_k(v(⊥) = c) = (1 − Σp) / (k − |S(⊥)|)     for other prefix constants
//! ```
//!
//! As `k → ∞` the "generic" mass almost surely lands outside every
//! named constant and never collides across nulls, so the limit measure
//! has a clean closed form: each null independently is either one of
//! its named values (with its weight) or a *fresh, pairwise-distinct*
//! value (with the leftover mass). Two consequences, both exercised in
//! the tests and experiments:
//!
//! * **convergence still holds** (the weighted analogue of Theorem 3's
//!   spirit): `μ_w = limₖ μ_wᵏ` exists and is rational;
//! * **the 0–1 law fails**: with a coin-flip preference the limit is
//!   1/2 — preferences genuinely refine the uniform framework, which is
//!   recovered exactly when no null has named mass.

use crate::support::SuppEvent;
use caz_arith::Ratio;
use caz_idb::{ConstEnum, Cst, Database, NullId, Valuation};
use std::collections::BTreeMap;

/// A preference: per-null sub-distributions over named constants.
/// Nulls without an entry are fully generic (uniform, as in the plain
/// measure).
#[derive(Clone, Debug, Default)]
pub struct Preference {
    map: BTreeMap<NullId, Vec<(Cst, Ratio)>>,
}

impl Preference {
    /// The empty preference (every null generic): `μ_w = μ`.
    pub fn uniform() -> Preference {
        Preference::default()
    }

    /// Set the named distribution of one null. Weights must be
    /// nonnegative, over distinct constants, and sum to at most 1.
    pub fn set(
        &mut self,
        null: NullId,
        weights: impl IntoIterator<Item = (Cst, Ratio)>,
    ) -> Result<(), String> {
        let weights: Vec<(Cst, Ratio)> = weights.into_iter().collect();
        let mut total = Ratio::zero();
        let mut seen = std::collections::BTreeSet::new();
        for (c, w) in &weights {
            if w.is_negative() {
                return Err(format!("negative weight {w} for {c}"));
            }
            if !seen.insert(*c) {
                return Err(format!("duplicate constant {c} in preference"));
            }
            total = &total + w;
        }
        if total > Ratio::one() {
            return Err(format!("preference mass {total} exceeds 1"));
        }
        self.map.insert(null, weights);
        Ok(())
    }

    /// The named support of a null.
    pub fn named(&self, null: NullId) -> &[(Cst, Ratio)] {
        self.map.get(&null).map_or(&[], Vec::as_slice)
    }

    /// Leftover "generic" mass of a null (1 − named mass).
    pub fn generic_mass(&self, null: NullId) -> Ratio {
        let mut total = Ratio::zero();
        for (_, w) in self.named(null) {
            total = &total + w;
        }
        &Ratio::one() - &total
    }

    /// Every constant mentioned by the preference (they join the named
    /// pool `A`, enlarging the genericity set).
    pub fn constants(&self) -> impl Iterator<Item = Cst> + '_ {
        self.map.values().flatten().map(|&(c, _)| c)
    }
}

/// The exact limit `μ_w(event, D)`: sum over all assignments of
/// named-vs-fresh choices, weighted by the preference.
pub fn mu_weighted(event: &dyn SuppEvent, db: &Database, pref: &Preference) -> Ratio {
    let nulls: Vec<NullId> = db.nulls().into_iter().collect();
    let mut acc = Ratio::zero();
    let mut v = Valuation::new();
    weighted_rec(event, db, pref, &nulls, 0, Ratio::one(), &mut v, &mut acc);
    acc
}

#[allow(clippy::too_many_arguments)]
fn weighted_rec(
    event: &dyn SuppEvent,
    db: &Database,
    pref: &Preference,
    nulls: &[NullId],
    i: usize,
    weight: Ratio,
    v: &mut Valuation,
    acc: &mut Ratio,
) {
    if weight.is_zero() {
        return;
    }
    if i == nulls.len() {
        if event.holds(v, &v.apply_db(db)) {
            *acc = &*acc + &weight;
        }
        return;
    }
    let null = nulls[i];
    // Named choices.
    for (c, w) in pref.named(null) {
        v.bind(null, *c);
        weighted_rec(event, db, pref, nulls, i + 1, &weight * w, v, acc);
    }
    // The generic choice: a fresh constant distinct from everything else
    // (one reserved constant per null position suffices — fresh values
    // almost surely never collide in the limit).
    let g = pref.generic_mass(null);
    if !g.is_zero() {
        v.bind(null, Cst::fresh_in("wm", i));
        weighted_rec(event, db, pref, nulls, i + 1, &weight * &g, v, acc);
    }
}

/// The exact finite-`k` weighted measure `μ_wᵏ(event, D)`: requires `k`
/// large enough that the prefix covers every named constant and leaves
/// room for the generic mass of every null.
pub fn mu_weighted_k(
    event: &dyn SuppEvent,
    db: &Database,
    pref: &Preference,
    k: usize,
) -> Ratio {
    let mut named = db.consts();
    named.extend(event.constants());
    named.extend(pref.constants());
    let en = ConstEnum::new(named);
    assert!(
        k >= en.named_count(),
        "k = {k} must cover the {} named constants",
        en.named_count()
    );
    let prefix: Vec<Cst> = en.prefix(k);
    let nulls = db.nulls();
    let mut acc = Ratio::zero();
    for v in en.valuations(&nulls, k) {
        // Weight of this valuation under the preference.
        let mut w = Ratio::one();
        for (null, c) in v.iter() {
            let named_here = pref.named(null);
            if let Some((_, p)) = named_here.iter().find(|(nc, _)| *nc == c) {
                w = &w * p;
            } else {
                let others = prefix
                    .iter()
                    .filter(|pc| !named_here.iter().any(|(nc, _)| nc == *pc))
                    .count();
                if others == 0 {
                    w = Ratio::zero();
                    break;
                }
                let g = pref.generic_mass(null);
                w = &w * &(&g / &Ratio::from_int(others as i64));
            }
        }
        if w.is_zero() {
            continue;
        }
        if event.holds(&v, &v.apply_db(db)) {
            acc = &acc + &w;
        }
    }
    acc
}

/// The conditional weighted measure `μ_w(q | σ, D)`, defined whenever
/// the conditioning event has positive limit mass (`None` otherwise —
/// the degenerate case needs the finer degree analysis that the uniform
/// engine performs and is out of scope for the weighted extension).
pub fn mu_weighted_conditional(
    q_event: &dyn SuppEvent,
    sigma_event: &dyn SuppEvent,
    db: &Database,
    pref: &Preference,
) -> Option<Ratio> {
    struct Both<'a>(&'a dyn SuppEvent, &'a dyn SuppEvent);
    impl SuppEvent for Both<'_> {
        fn holds(&self, v: &Valuation, vdb: &Database) -> bool {
            self.0.holds(v, vdb) && self.1.holds(v, vdb)
        }
        fn constants(&self) -> std::collections::BTreeSet<Cst> {
            let mut c = self.0.constants();
            c.extend(self.1.constants());
            c
        }
        fn label(&self) -> String {
            format!("{} ∧ {}", self.0.label(), self.1.label())
        }
    }
    let den = mu_weighted(sigma_event, db, pref);
    if den.is_zero() {
        return None;
    }
    let num = mu_weighted(&Both(sigma_event, q_event), db, pref);
    Some(&num / &den)
}

/// Sanity identity: the total mass over all named/fresh assignments is
/// 1 (used by the property tests).
pub fn total_mass(db: &Database, pref: &Preference) -> Ratio {
    struct Always;
    impl SuppEvent for Always {
        fn holds(&self, _: &Valuation, _: &Database) -> bool {
            true
        }
        fn constants(&self) -> std::collections::BTreeSet<Cst> {
            Default::default()
        }
        fn label(&self) -> String {
            "⊤".into()
        }
    }
    mu_weighted(&Always, db, pref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly_engine::mu_exact;
    use crate::support::BoolQueryEvent;
    use caz_idb::parse_database;
    use caz_logic::parse_query;

    #[test]
    fn uniform_preference_recovers_mu() {
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let q = parse_query("Col := exists p. R(c1, p) & R(c2, p)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let pref = Preference::uniform();
        assert_eq!(mu_weighted(&ev, &db, &pref), mu_exact(&ev, &db).unwrap());
        assert_eq!(total_mass(&db, &pref), Ratio::one());
    }

    #[test]
    fn coin_flip_breaks_the_zero_one_law() {
        // U = {⊥}; P(⊥ = 'flu') = 1/2. Event: U contains flu.
        let p = parse_database("U(_d).").unwrap();
        let q = parse_query("Flu := U('flu')").unwrap();
        let ev = BoolQueryEvent::new(q);
        let mut pref = Preference::uniform();
        pref.set(p.nulls["d"], [(Cst::new("flu"), Ratio::from_frac(1, 2))])
            .unwrap();
        let m = mu_weighted(&ev, &p.db, &pref);
        assert_eq!(m, Ratio::from_frac(1, 2), "neither 0 nor 1");
        // The uniform measure says almost certainly false.
        assert!(mu_exact(&ev, &p.db).unwrap().is_zero());
    }

    #[test]
    fn finite_k_converges_to_the_limit() {
        let p = parse_database("R(_x, _y). S(a).").unwrap();
        let q = parse_query("Hit := exists u. R(u, u) | S('a') & R('a', 'b')").unwrap();
        let ev = BoolQueryEvent::new(q);
        let mut pref = Preference::uniform();
        pref.set(
            p.nulls["x"],
            [
                (Cst::new("a"), Ratio::from_frac(1, 3)),
                (Cst::new("b"), Ratio::from_frac(1, 3)),
            ],
        )
        .unwrap();
        let limit = mu_weighted(&ev, &p.db, &pref);
        let mut prev_gap: Option<Ratio> = None;
        for k in [6usize, 12, 24] {
            let fin = mu_weighted_k(&ev, &p.db, &pref, k);
            let gap = if fin >= limit { &fin - &limit } else { &limit - &fin };
            if let Some(pg) = &prev_gap {
                assert!(gap <= pg.clone(), "gap must shrink: {gap} vs {pg} at k={k}");
            }
            prev_gap = Some(gap);
        }
        let last_gap = prev_gap.unwrap();
        assert!(last_gap < Ratio::from_frac(1, 8), "close at k = 24: {last_gap}");
    }

    #[test]
    fn named_collisions_have_positive_mass() {
        // Two nulls both preferring 'a': the collision event has limit
        // mass (1/2)² = 1/4 — impossible under the uniform measure.
        let p = parse_database("R(_x). S(_y).").unwrap();
        let q = parse_query("Meet := exists u. R(u) & S(u)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let mut pref = Preference::uniform();
        let half = [(Cst::new("a"), Ratio::from_frac(1, 2))];
        pref.set(p.nulls["x"], half.clone()).unwrap();
        pref.set(p.nulls["y"], half).unwrap();
        assert_eq!(mu_weighted(&ev, &p.db, &pref), Ratio::from_frac(1, 4));
        assert!(mu_exact(&ev, &p.db).unwrap().is_zero());
    }

    #[test]
    fn conditional_weighted() {
        // P(⊥ = a) = 1/2, P(⊥ = b) = 1/4, generic 1/4.
        // Σ: ⊥ ∈ {a, b} (as an event). Q: ⊥ = a.
        let p = parse_database("U(_x). A(a). B(b).").unwrap();
        let sigma = BoolQueryEvent::new(
            parse_query("S := exists u. U(u) & (A(u) | B(u))").unwrap(),
        );
        let q = BoolQueryEvent::new(parse_query("Q := exists u. U(u) & A(u)").unwrap());
        let mut pref = Preference::uniform();
        pref.set(
            p.nulls["x"],
            [
                (Cst::new("a"), Ratio::from_frac(1, 2)),
                (Cst::new("b"), Ratio::from_frac(1, 4)),
            ],
        )
        .unwrap();
        assert_eq!(
            mu_weighted_conditional(&q, &sigma, &p.db, &pref),
            Some(Ratio::from_frac(2, 3))
        );
        // Conditioning on a zero-mass event is undefined.
        let impossible = BoolQueryEvent::new(
            parse_query("Z := (exists u. U(u) & A(u)) & !(exists u. U(u))").unwrap(),
        );
        assert_eq!(mu_weighted_conditional(&q, &impossible, &p.db, &pref), None);
    }

    #[test]
    fn preference_validation() {
        let n = NullId::fresh();
        let mut pref = Preference::uniform();
        assert!(pref
            .set(n, [(Cst::new("a"), Ratio::from_frac(3, 2))])
            .is_err());
        assert!(pref
            .set(
                n,
                [
                    (Cst::new("a"), Ratio::from_frac(1, 2)),
                    (Cst::new("a"), Ratio::from_frac(1, 4)),
                ],
            )
            .is_err());
        assert!(pref
            .set(n, [(Cst::new("a"), Ratio::from_frac(-1, 2))])
            .is_err());
        assert!(pref.set(n, [(Cst::new("a"), Ratio::one())]).is_ok());
        assert!(pref.generic_mass(n).is_zero());
    }

    #[test]
    fn total_mass_is_one_with_preferences() {
        let p = parse_database("R(_x, _y).").unwrap();
        let mut pref = Preference::uniform();
        pref.set(
            p.nulls["x"],
            [
                (Cst::new("a"), Ratio::from_frac(1, 5)),
                (Cst::new("b"), Ratio::from_frac(2, 5)),
            ],
        )
        .unwrap();
        assert_eq!(total_mass(&p.db, &pref), Ratio::one());
    }
}
