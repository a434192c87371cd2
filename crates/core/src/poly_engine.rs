//! The support-polynomial engine: exact closed forms for the measures.
//!
//! Following the proof of Theorem 3, `|Suppᵏ(event, D)|` is — for every
//! `k ≥ |A|` under the canonical enumeration, where `A = Const(D) ∪ C` —
//! a polynomial in `k`:
//!
//! Classify each valuation `v ∈ Vᵏ(D)` by (i) its *kernel* — the
//! partition `ρ` of `Null(D)` with `v(⊥ᵢ) = v(⊥ⱼ)` iff same block — and
//! (ii) the partial injection `f` mapping some blocks to named constants
//! in `A` (the remaining blocks take pairwise-distinct *fresh* values
//! outside `A`). By genericity the event's truth depends only on
//! `(ρ, f)`, and the class `(ρ, f)` contains exactly
//! `(k − c)(k − c − 1)⋯(k − c − j + 1)` valuations (`c = |A|`, `j` =
//! number of fresh blocks). Summing the falling factorials of the classes
//! where the event holds gives the polynomial; limits of measure
//! sequences are then ratios of leading coefficients.
//!
//! The 0–1 law (Theorem 1) is visible directly: the only degree-`m`
//! class is (all singletons, all fresh) — precisely the `C`-bijective
//! valuations of naïve evaluation — so `μ(Q, D) ∈ {0, 1}` with value 1
//! iff naïve evaluation succeeds.
//!
//! The same classes also give the *finite* counts exactly, for every
//! `k` at once ([`SeriesCensus`]): the named constants are the first `c`
//! of the canonical enumeration (name-sorted, as in
//! [`caz_idb::ConstEnum`]), so for `k < c` the valuations of `Vᵏ(D)` are
//! exactly the classes with no fresh block whose highest named index is
//! below `k` — one valuation each. One class walk thus answers the whole
//! series `μ¹..μᴷ`, whose enumeration visits `Σₖ kᵐ` valuations.
//!
//! The walk itself ([`walk_classes`]) serves every exact engine: the
//! census, the conditional measure, and — since every support is a
//! union of classes — the certain/possible-answer searches and the
//! support comparisons of `caz-compare`.

use crate::support::SuppEvent;
use caz_arith::{Poly, Ratio};
use caz_idb::{ConstEnum, Cst, Database, NullId, Valuation};
use std::ops::ControlFlow;

/// The most nulls the census accepts: its class count grows like
/// `Bell(m)`.
pub const MAX_NULLS: usize = 10;

/// The most named constants the census accepts. It bounds the class
/// count [`census_classes`], not the walk: [`walk_classes`] takes any
/// pool, and the searches behind `certain`, `compare` and `best` walk
/// past this cap.
pub const MAX_NAMED: usize = 64;

/// An instance past the census's caps ([`MAX_NULLS`] nulls,
/// [`MAX_NAMED`] named constants). Its `Display` is the stable text a
/// server answers such a job with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CensusTooLarge {
    /// `m`: number of nulls of the database.
    pub nulls: usize,
    /// `c = |A|`: number of named constants (`Const(D) ∪ C`).
    pub named_count: usize,
}

impl CensusTooLarge {
    /// `Err` unless the class walk accepts `m` nulls and `c` named
    /// constants.
    fn check(nulls: usize, named_count: usize) -> Result<(), CensusTooLarge> {
        if nulls <= MAX_NULLS && named_count <= MAX_NAMED {
            Ok(())
        } else {
            Err(CensusTooLarge { nulls, named_count })
        }
    }
}

impl std::fmt::Display for CensusTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "support-polynomial engine caps at {MAX_NULLS} nulls and {MAX_NAMED} named constants \
             (got {} nulls, {} named constants)",
            self.nulls, self.named_count
        )
    }
}

impl std::error::Error for CensusTooLarge {}

/// The census of one event over one database: how many classes `(ρ, f)`
/// hold the event, bucketed by what decides their valuation count at
/// each `k`. [`support_poly`] folds it into the polynomial;
/// [`SeriesCensus::count`] evaluates it at any finite `k`, including
/// `k < c` where the polynomial does not apply.
#[derive(Clone, Debug)]
pub struct SeriesCensus {
    /// `m`: number of nulls of the database.
    pub nulls: usize,
    /// `c = |A|`: number of named constants (`Const(D) ∪ C`).
    pub named_count: usize,
    /// `by_fresh[j]`: true classes with `j` fresh blocks, each worth
    /// `(k − c)ⱼ` valuations once `k ≥ c`.
    by_fresh: Vec<u64>,
    /// `by_reach[r]`: true classes with no fresh block whose named
    /// blocks use the first `r` named constants at most (highest named
    /// index `r − 1`; `r = 0` only for the empty database of nulls).
    /// Such a class is one valuation of `Vᵏ(D)` exactly when `r ≤ k`.
    by_reach: Vec<u64>,
    /// Number of classes where the event holds.
    pub true_classes: u64,
    /// Total number of classes inspected.
    pub total_classes: u64,
}

impl SeriesCensus {
    /// Walk every class `(ρ, f)` once, recording the true ones.
    /// Refuses instances past [`MAX_NULLS`] nulls or [`MAX_NAMED`] named
    /// constants before walking anything.
    pub fn new(event: &dyn SuppEvent, db: &Database) -> Result<SeriesCensus, CensusTooLarge> {
        let named = named_pool(db, event.constants());
        let mut census = SeriesCensus::empty(db, named.len())?;
        walk_classes(db, &named, |v, vdb, fresh, reach| {
            census.record(event.holds(v, vdb), fresh, reach);
            ControlFlow::Continue(())
        });
        Ok(census)
    }

    /// A census of `db`'s nulls over `named_count` named constants with
    /// no class recorded yet; refuses instances past the caps.
    fn empty(db: &Database, named_count: usize) -> Result<SeriesCensus, CensusTooLarge> {
        let nulls = db.nulls().len();
        CensusTooLarge::check(nulls, named_count)?;
        Ok(SeriesCensus {
            nulls,
            named_count,
            by_fresh: vec![0; nulls + 1],
            by_reach: vec![0; named_count + 1],
            true_classes: 0,
            total_classes: 0,
        })
    }

    /// Count one class with `fresh` fresh blocks and the given reach.
    fn record(&mut self, holds: bool, fresh: usize, reach: usize) {
        self.total_classes += 1;
        if holds {
            self.true_classes += 1;
            self.by_fresh[fresh] += 1;
            if fresh == 0 {
                self.by_reach[reach] += 1;
            }
        }
    }

    /// `|Suppᵏ(event, D)|` for any `k`, exactly as enumerating `Vᵏ(D)`
    /// under the canonical enumeration would count it (saturating past
    /// `u128`, far beyond any enumerable `kᵐ`).
    pub fn count(&self, k: usize) -> u128 {
        let c = self.named_count;
        if k < c {
            return self.by_reach[..=k].iter().map(|&n| u128::from(n)).sum();
        }
        let mut total = 0u128;
        let mut falling = 1u128; // (k − c)ⱼ, built up one factor per j
        for (j, &n) in self.by_fresh.iter().enumerate() {
            if j > 0 {
                falling = falling.saturating_mul((k - c).saturating_sub(j - 1) as u128);
            }
            total = total.saturating_add(falling.saturating_mul(u128::from(n)));
        }
        total
    }

    /// `μᵏ(event, D) = |Suppᵏ| / kᵐ`, equal to [`crate::mu_k`] (which
    /// enumerates) for every `k ≥ 1` with `kᵐ` in `u128`.
    pub fn mu_k(&self, k: usize) -> Ratio {
        match ConstEnum::count_valuations(k, self.nulls) {
            Some(0) | None => Ratio::zero(),
            Some(total) => Ratio::from_frac(self.count(k), total),
        }
    }

    /// The support polynomial: `Σⱼ by_fresh[j] · (k − c)ⱼ`, exact for
    /// `k ≥ c`.
    pub fn poly(&self) -> Poly {
        let c = self.named_count as i64;
        let mut poly = Poly::zero();
        for (j, &n) in self.by_fresh.iter().enumerate().filter(|(_, &n)| n > 0) {
            poly += &(&Poly::constant(Ratio::from_int(n)) * &Poly::falling_factorial(c, j));
        }
        poly
    }
}

/// `A = Const(D) ∪ extra`, name-sorted: the named prefix of the
/// canonical enumeration, so named index `t` is the constant `cₜ₊₁`.
pub fn named_pool(db: &Database, extra: impl IntoIterator<Item = Cst>) -> Vec<Cst> {
    let mut named: Vec<Cst> = db.consts().into_iter().chain(extra).collect();
    named.sort_by_key(|c| c.name());
    named.dedup();
    named
}

/// Walk Theorem 3's classes `(ρ, f)` of `Null(D)` over the named pool
/// `named` (`A`, as [`named_pool`] builds it): `visit(v, v(D), j,
/// reach)` runs once per class, with a representative valuation `v`,
/// its number `j` of fresh blocks and its reach (highest named index
/// used, plus one; 0 when no block is named), until it breaks. Returns
/// whether `visit` stopped the walk.
///
/// Null `i` takes a named constant, joining the block that holds it or
/// opening one, or joins a fresh block an earlier null opened, or opens
/// a fresh block. Fresh blocks take pairwise-distinct constants outside
/// `A`, so every valuation into `A` plus `m` fresh constants lies in
/// exactly one class, and [`census_classes`] classes are visited, in the
/// order in which enumerating those valuations (`A` in name order, then
/// the fresh constants) first meets them. A generic event over `A` is
/// constant on each class, so the representatives decide every
/// statement about its support: fullness, emptiness, inclusion and
/// counts. Any `|A|` is accepted; the caps are the census's.
pub fn walk_classes(
    db: &Database,
    named: &[Cst],
    visit: impl FnMut(&Valuation, &Database, usize, usize) -> ControlFlow<()>,
) -> bool {
    let nulls: Vec<NullId> = db.nulls().into_iter().collect();
    // Reserved constants, interned once per walk, not once per class.
    let fresh = (0..).map(|i| Cst::fresh_in("pe", i)).filter(|f| !named.contains(f));
    let mut walk = Walk {
        db,
        fresh: fresh.take(nulls.len()).collect(),
        nulls,
        named,
        used: vec![false; named.len()],
        v: Valuation::new(),
        visit,
    };
    walk.place(0, 0, 0).is_break()
}

/// Does some class of [`walk_classes`] satisfy `pred`? Stops at the
/// first that does.
pub fn exists_class(
    db: &Database,
    named: &[Cst],
    mut pred: impl FnMut(&Valuation, &Database) -> bool,
) -> bool {
    walk_classes(db, named, |v, vdb, _, _| {
        if pred(v, vdb) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
}

/// The state of one [`walk_classes`]: which named constants a block
/// holds, and the representative valuation, bound in place. The open
/// fresh blocks are the first `j` fresh constants.
struct Walk<'a, F> {
    db: &'a Database,
    nulls: Vec<NullId>,
    named: &'a [Cst],
    fresh: Vec<Cst>,
    /// `used[t]`: a block holds named constant `t`.
    used: Vec<bool>,
    v: Valuation,
    visit: F,
}

impl<F: FnMut(&Valuation, &Database, usize, usize) -> ControlFlow<()>> Walk<'_, F> {
    /// Place null `i` and every null after it, with `fresh` fresh
    /// blocks open and the named ones reaching `reach`.
    fn place(&mut self, i: usize, fresh: usize, reach: usize) -> ControlFlow<()> {
        let Some(&null) = self.nulls.get(i) else {
            let vdb = self.v.apply_db(self.db);
            return (self.visit)(&self.v, &vdb, fresh, reach);
        };
        for t in 0..self.named.len() {
            self.v.bind(null, self.named[t]);
            if self.used[t] {
                self.place(i + 1, fresh, reach)?;
            } else {
                self.used[t] = true;
                let flow = self.place(i + 1, fresh, reach.max(t + 1));
                self.used[t] = false;
                flow?;
            }
        }
        // Join fresh block `f < fresh`, or open fresh block `fresh`.
        for f in 0..=fresh {
            self.v.bind(null, self.fresh[f]);
            self.place(i + 1, fresh.max(f + 1), reach)?;
        }
        ControlFlow::Continue(())
    }
}

/// Which exact engine answers a finite series `μ¹..μᴷ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesEngine {
    /// One [`SeriesCensus`] class walk, whatever `K` is.
    Census,
    /// Enumerate `Vᵏ(D)` for each `k` in turn.
    Enumeration,
}

impl SeriesEngine {
    /// Stable lower-case name used in wire output.
    pub fn name(self) -> &'static str {
        match self {
            SeriesEngine::Census => "census",
            SeriesEngine::Enumeration => "enumeration",
        }
    }
}

/// The closed-form cost of both exact engines for one series job, in
/// event evaluations. Both are saturating `u128`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesCost {
    /// `m`: number of nulls.
    pub nulls: usize,
    /// `c`: number of named constants.
    pub named_count: usize,
    /// Classes the census inspects:
    /// `Σ_b S(m, b) · Σ_i C(b, i) · c! / (c − i)!`.
    pub classes: u128,
    /// Valuations enumeration visits: `Σ_{k ≤ K} kᵐ`.
    pub valuations: u128,
}

impl SeriesCost {
    /// The cost of `series` to depth `k_max` for `event` over `db`.
    pub fn of(event: &dyn SuppEvent, db: &Database, k_max: usize) -> SeriesCost {
        let nulls = db.nulls().len();
        let named_count = named_pool(db, event.constants()).len();
        let valuations = (1..=k_max).fold(0u128, |acc, k| {
            acc.saturating_add(ConstEnum::count_valuations(k, nulls).unwrap_or(u128::MAX))
        });
        SeriesCost { nulls, named_count, classes: census_classes(nulls, named_count), valuations }
    }

    /// Whether [`SeriesCensus::new`] accepts the instance at all.
    pub fn census_eligible(&self) -> bool {
        CensusTooLarge::check(self.nulls, self.named_count).is_ok()
    }

    /// The cheaper engine: the census when it is eligible and inspects
    /// fewer classes than enumeration visits valuations.
    pub fn engine(&self) -> SeriesEngine {
        if self.census_eligible() && self.classes < self.valuations {
            SeriesEngine::Census
        } else {
            SeriesEngine::Enumeration
        }
    }
}

/// Number of classes `(ρ, f)` for `m` nulls and `c` named constants:
/// `Σ_b S(m, b) · Σ_i C(b, i) · c! / (c − i)!` (saturating).
pub fn census_classes(m: usize, c: usize) -> u128 {
    // Bell(m) ≤ the class count, and Bell(m) > u128::MAX past this many
    // nulls: skip the quadratic Stirling row for absurd inputs.
    const BELL_EXCEEDS_U128: usize = 45;
    if m >= BELL_EXCEEDS_U128 {
        return u128::MAX;
    }
    // Stirling row S(m, ·) by the usual recurrence.
    let mut stirling = vec![0u128; m + 1];
    stirling[0] = 1;
    for n in 1..=m {
        for b in (1..=n).rev() {
            stirling[b] = (b as u128).saturating_mul(stirling[b]).saturating_add(stirling[b - 1]);
        }
        stirling[0] = 0;
    }
    let injections = |b: usize| {
        // Σ_i C(b, i) · (c)ᵢ, with C(b, i) built incrementally.
        let (mut binom, mut falling, mut sum) = (1u128, 1u128, 1u128);
        for i in 1..=b.min(c) {
            binom = binom.saturating_mul((b - i + 1) as u128) / i as u128;
            falling = falling.saturating_mul((c - i + 1) as u128);
            sum = sum.saturating_add(binom.saturating_mul(falling));
        }
        sum
    };
    (0..=m).fold(0u128, |acc, b| acc.saturating_add(stirling[b].saturating_mul(injections(b))))
}

/// The exact support polynomial of an event over a database, together
/// with the class census (for diagnostics and the FP^{#P} experiment).
#[derive(Clone, Debug)]
pub struct SupportPoly {
    /// `|Suppᵏ(event, D)|` as a polynomial in `k`, valid for all
    /// `k ≥ named_count` under the canonical enumeration.
    pub poly: Poly,
    /// `m`: number of nulls of the database.
    pub nulls: usize,
    /// `c = |A|`: number of named constants (`Const(D) ∪ C`).
    pub named_count: usize,
    /// Number of (partition, injection) classes where the event holds.
    pub true_classes: u64,
    /// Total number of classes inspected.
    pub total_classes: u64,
}

impl SupportPoly {
    /// The exact limit `μ(event, D) = limₖ |Suppᵏ|/kᵐ`. By the 0–1 law
    /// this is 0 or 1 for every generic event.
    pub fn mu_limit(&self) -> Ratio {
        Poly::limit_ratio(&self.poly, &Poly::x_pow(self.nulls))
            .expect("support degree cannot exceed m")
    }

    /// Evaluate the polynomial at a concrete `k` (exact `|Suppᵏ|` for
    /// `k ≥ named_count`).
    pub fn count_at(&self, k: usize) -> Ratio {
        self.poly.eval_int(&caz_arith::BigInt::from(k))
    }
}

/// Compute the support polynomial of `event` over `db`.
///
/// ```
/// use caz_core::{support_poly, BoolQueryEvent};
/// use caz_idb::parse_database;
/// use caz_logic::parse_query;
///
/// let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
/// let q = parse_query("Collide := exists p. R(c1, p) & R(c2, p)").unwrap();
/// let sp = support_poly(&BoolQueryEvent::new(q), &db).unwrap();
/// // Exactly k of the k² valuations collide the two nulls:
/// assert_eq!(sp.poly.to_string(), "k");
/// assert!(sp.mu_limit().is_zero()); // degree 1 < m = 2
/// ```
pub fn support_poly(event: &dyn SuppEvent, db: &Database) -> Result<SupportPoly, CensusTooLarge> {
    SeriesCensus::new(event, db).map(SupportPoly::from)
}

impl From<SeriesCensus> for SupportPoly {
    fn from(census: SeriesCensus) -> SupportPoly {
        SupportPoly {
            poly: census.poly(),
            nulls: census.nulls,
            named_count: census.named_count,
            true_classes: census.true_classes,
            total_classes: census.total_classes,
        }
    }
}

/// The exact limit measure `μ(event, D)` (Theorem 1: always 0 or 1).
pub fn mu_exact(event: &dyn SuppEvent, db: &Database) -> Result<Ratio, CensusTooLarge> {
    Ok(support_poly(event, db)?.mu_limit())
}

/// The exact conditional measure
/// `μ(q | σ, D) = limₖ |Suppᵏ(σ ∧ q)| / |Suppᵏ(σ)|` (Theorem 3: always
/// exists, rational in [0, 1]; 0 by convention when `σ` is unsatisfiable
/// in `D`).
pub fn mu_conditional_exact(
    q_event: &dyn SuppEvent,
    sigma_event: &dyn SuppEvent,
    db: &Database,
) -> Result<Ratio, CensusTooLarge> {
    let (num, den) = conditional_polys(q_event, sigma_event, db)?;
    Ok(Poly::limit_ratio(&num.poly, &den.poly)
        .expect("Supp(σ∧q) ⊆ Supp(σ): the ratio cannot diverge"))
}

/// The two polynomials behind the conditional measure (numerator
/// `Σ ∧ Q`, denominator `Σ`), counted in one walk over one named pool
/// `A = Const(D) ∪ C_Q ∪ C_Σ`, so the falling factorials line up. `Q`
/// is asked only of the classes where `Σ` holds.
pub fn conditional_polys(
    q_event: &dyn SuppEvent,
    sigma_event: &dyn SuppEvent,
    db: &Database,
) -> Result<(SupportPoly, SupportPoly), CensusTooLarge> {
    let named = named_pool(db, q_event.constants().into_iter().chain(sigma_event.constants()));
    let mut num = SeriesCensus::empty(db, named.len())?;
    let mut den = num.clone();
    walk_classes(db, &named, |v, vdb, fresh, reach| {
        let sigma = sigma_event.holds(v, vdb);
        den.record(sigma, fresh, reach);
        num.record(sigma && q_event.holds(v, vdb), fresh, reach);
        ControlFlow::Continue(())
    });
    Ok((num.into(), den.into()))
}

/// Consistency check on the engine itself: summing the class counts over
/// *all* classes must give exactly `kᵐ`. Returns the total polynomial.
pub fn census_poly(
    db: &Database,
    extra_consts: &std::collections::BTreeSet<Cst>,
) -> Result<Poly, CensusTooLarge> {
    let named = named_pool(db, extra_consts.iter().copied());
    let mut census = SeriesCensus::empty(db, named.len())?;
    walk_classes(db, &named, |_, _, fresh, reach| {
        census.record(true, fresh, reach);
        ControlFlow::Continue(())
    });
    Ok(census.poly())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{BoolQueryEvent, ConstraintEvent, NotEvent, TupleAnswerEvent};
    use caz_idb::{parse_database, Tuple, Value};
    use caz_logic::{naive_eval_bool, parse_query};

    #[test]
    fn census_is_k_to_the_m() {
        for src in ["R(c1, _x). R(c2, _y).", "R(_a, _b). S(_b, _c).", "U(a)."] {
            let db = parse_database(src).unwrap().db;
            let m = db.nulls().len();
            assert_eq!(
                census_poly(&db, &Default::default()).unwrap(),
                Poly::x_pow(m),
                "census for {src}"
            );
        }
    }

    #[test]
    fn census_counts_match_enumeration_below_and_above_c() {
        // c = 3 named constants (a, b, c1), m = 2: rows k = 1, 2 sit
        // below c, where the polynomial does not apply.
        let db = parse_database("R(a, _x). R(b, _y). S(c1).").unwrap().db;
        for src in ["Q := exists p. R(a, p) & R(b, p)", "Q := exists p. R(p, a) | S(p)"] {
            let ev = BoolQueryEvent::new(parse_query(src).unwrap());
            let census = SeriesCensus::new(&ev, &db).unwrap();
            assert_eq!(census.named_count, 3);
            for k in 1..=6 {
                let exact = crate::support::supp_k_count(&ev, &db, k);
                assert_eq!(census.count(k), exact, "{src} at k={k}");
                assert_eq!(census.mu_k(k), crate::mu_k(&ev, &db, k), "{src} at k={k}");
            }
        }
    }

    #[test]
    fn census_classes_is_the_walked_class_count() {
        for (m, c) in [(0, 0), (0, 3), (1, 0), (2, 2), (3, 5), (4, 1), (5, 5)] {
            let db = parse_database(
                &(0..m).map(|i| format!("N(_n{i}).")).chain((0..c).map(|i| format!("K(k{i}).")))
                    .collect::<Vec<_>>()
                    .join(" "),
            )
            .unwrap()
            .db;
            let ev = NotEvent::new(Box::new(BoolQueryEvent::new(
                parse_query("Never := exists u. N(u) & !N(u)").unwrap(),
            )));
            let census = SeriesCensus::new(&ev, &db).unwrap();
            assert_eq!((census.nulls, census.named_count), (m, c));
            assert_eq!(census.true_classes, census.total_classes);
            assert_eq!(u128::from(census.total_classes), census_classes(m, c), "m={m} c={c}");
        }
        // The series-cliff instance: five nulls, five named constants.
        assert_eq!(census_classes(5, 5), 10_427);
        // With no named constant the count is Bell(m): 52 partitions of
        // five nulls. Saturating arithmetic is exact below u128::MAX, so
        // a saturated Bell(43) shows that Bell(m) alone overflows u128
        // before the early-return threshold.
        assert_eq!(census_classes(5, 0), 52);
        assert!(census_classes(42, 0) < u128::MAX);
        assert_eq!(census_classes(43, 0), u128::MAX);
        assert_eq!(census_classes(45, 0), u128::MAX);
    }

    #[test]
    fn the_walk_meets_classes_in_enumeration_order() {
        // Enumerating valuations into A (name order), then m fresh
        // constants, null 0 outermost, meets each class first at the
        // point the walk visits it, so an early-exit search never
        // passes more classes than that enumeration passes valuations.
        let db = parse_database("R(_x, b). R(_y, a). S(_z).").unwrap().db;
        let named = named_pool(&db, []);
        let nulls: Vec<NullId> = db.nulls().into_iter().collect();
        // A class as each null's named index, or the order in which its
        // fresh value first turns up.
        let class_of = |v: &Valuation| -> Vec<Result<usize, usize>> {
            let mut fresh = Vec::new();
            let mut key = |c: Cst| match named.iter().position(|&t| t == c) {
                Some(t) => Ok(t),
                None => Err(fresh.iter().position(|&f| f == c).unwrap_or_else(|| {
                    fresh.push(c);
                    fresh.len() - 1
                })),
            };
            nulls.iter().map(|&n| key(v.get(n).unwrap())).collect()
        };
        let mut walked = Vec::new();
        walk_classes(&db, &named, |v, _, _, _| {
            walked.push(class_of(v));
            ControlFlow::Continue(())
        });
        let pool: Vec<Cst> =
            named.iter().copied().chain((0..nulls.len()).map(|i| Cst::fresh_in("ord", i))).collect();
        let (base, m) = (pool.len(), nulls.len() as u32);
        let mut first_met = Vec::new();
        for code in 0..base.pow(m) {
            let v = Valuation::from_pairs(nulls.iter().zip(0..m).map(|(&n, i)| {
                (n, pool[code / base.pow(m - 1 - i) % base])
            }));
            let class = class_of(&v);
            if !first_met.contains(&class) {
                first_met.push(class);
            }
        }
        assert_eq!(walked.len() as u128, census_classes(3, 2));
        assert_eq!(walked, first_met);
    }

    #[test]
    fn series_cost_picks_the_cheaper_eligible_engine() {
        let cost = |nulls, named_count, k_max: usize| SeriesCost {
            nulls,
            named_count,
            classes: census_classes(nulls, named_count),
            valuations: (1..=k_max as u128).map(|k| k.pow(nulls as u32)).sum(),
        };
        assert_eq!(cost(5, 5, 8).engine(), SeriesEngine::Census);
        assert_eq!(cost(5, 5, 2).engine(), SeriesEngine::Enumeration);
        // Ineligible instances never take the census, however cheap.
        let big = SeriesCost { nulls: MAX_NULLS + 1, named_count: 0, classes: 1, valuations: 2 };
        assert_eq!(big.engine(), SeriesEngine::Enumeration);
        let wide = SeriesCost { nulls: 1, named_count: MAX_NAMED + 1, classes: 1, valuations: 2 };
        assert_eq!(wide.engine(), SeriesEngine::Enumeration);
    }

    #[test]
    fn zero_one_law_matches_naive_eval() {
        // The collision query: almost certainly false; its negation
        // almost certainly true.
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let col = parse_query("Col := exists p. R(c1, p) & R(c2, p)").unwrap();
        let ev = BoolQueryEvent::new(col.clone());
        let sp = support_poly(&ev, &db).unwrap();
        // |Suppᵏ| = k (the diagonal): degree 1 < m = 2 ⇒ μ = 0.
        assert_eq!(sp.mu_limit(), Ratio::zero());
        assert!(!naive_eval_bool(&col, &db));
        let neg = NotEvent::new(Box::new(BoolQueryEvent::new(col.clone())));
        assert_eq!(mu_exact(&neg, &db).unwrap(), Ratio::one());
        assert!(naive_eval_bool(&col.negated(), &db));
    }

    #[test]
    fn support_poly_counts_match_enumeration() {
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let q = parse_query("Col := exists p. R(c1, p) & R(c2, p)").unwrap();
        let ev = BoolQueryEvent::new(q);
        let sp = support_poly(&ev, &db).unwrap();
        for k in sp.named_count..8 {
            let exact = crate::support::supp_k_count(&ev, &db, k);
            assert_eq!(
                sp.count_at(k),
                Ratio::from_int(exact as i64),
                "polynomial vs enumeration at k={k}"
            );
        }
    }

    #[test]
    fn tuple_events_obey_the_law() {
        // Intro example: (c1,⊥1) is an almost certainly true answer to
        // R1(x,y) ∧ ¬R2(x,y) though not certain.
        let p = parse_database(
            "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
             R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
        )
        .unwrap();
        let q = parse_query("Q(x, y) := R1(x, y) & !R2(x, y)").unwrap();
        let a = Tuple::new(vec![caz_idb::cst("c1"), Value::Null(p.nulls["p1"])]);
        let ev = TupleAnswerEvent::new(q.clone(), a);
        assert_eq!(mu_exact(&ev, &p.db).unwrap(), Ratio::one());
        // A tuple that is not even possible is almost certainly false.
        let bad = Tuple::new(vec![caz_idb::cst("zz"), caz_idb::cst("zz")]);
        let ev_bad = TupleAnswerEvent::new(q, bad);
        assert_eq!(mu_exact(&ev_bad, &p.db).unwrap(), Ratio::zero());
    }

    #[test]
    fn conditional_reproduces_the_paper_example() {
        // §4: R = {(2,1),(⊥,⊥)}, U = {1,2,3}, Σ: π₁(R) ⊆ U.
        // μ(R(1,1)|Σ) = 1/3 and μ(R(2,2)-ish|Σ) = 2/3.
        let db = parse_database("R(2, 1). R(_b, _b). U(1). U(2). U(3).").unwrap().db;
        let sigma = ConstraintEvent::new(
            caz_constraints::parse_constraints("ind R[1] <= U[1]").unwrap(),
        );
        let qa = BoolQueryEvent::new(parse_query("Qa := R(1, 1)").unwrap());
        assert_eq!(mu_conditional_exact(&qa, &sigma, &db).unwrap(), Ratio::from_frac(1, 3));
        // ā = (1,⊥) and b̄ = (2,⊥) as tuple events: supports of size 1
        // and 2 among the three Σ-valuations (v(⊥) ∈ {1,2,3}).
        let p = parse_database("R(2, 1). R(_b, _b). U(1). U(2). U(3).").unwrap();
        let q_rel = parse_query("Q(x, y) := R(x, y)").unwrap();
        let b_tuple = Tuple::new(vec![caz_idb::cst("2"), Value::Null(p.nulls["b"])]);
        let sigma2 = ConstraintEvent::new(
            caz_constraints::parse_constraints("ind R[1] <= U[1]").unwrap(),
        );
        let ev_b = TupleAnswerEvent::new(q_rel.clone(), b_tuple);
        assert_eq!(
            mu_conditional_exact(&ev_b, &sigma2, &p.db).unwrap(),
            Ratio::from_frac(2, 3)
        );
        let a_tuple = Tuple::new(vec![caz_idb::cst("1"), Value::Null(p.nulls["b"])]);
        let ev_a = TupleAnswerEvent::new(q_rel, a_tuple);
        assert_eq!(
            mu_conditional_exact(&ev_a, &sigma2, &p.db).unwrap(),
            Ratio::from_frac(1, 3)
        );
    }

    #[test]
    fn unsatisfiable_sigma_gives_zero() {
        let db = parse_database("R(a, b). R(a, c). ").unwrap().db;
        let sigma = ConstraintEvent::new(
            caz_constraints::parse_constraints("fd R: 1 -> 2").unwrap(),
        );
        let q = BoolQueryEvent::new(parse_query("T := exists x, y. R(x, y)").unwrap());
        assert_eq!(mu_conditional_exact(&q, &sigma, &db).unwrap(), Ratio::zero());
    }

    #[test]
    fn conditional_polys_share_pool() {
        let db = parse_database("R(_x, 1). U(1). U(2).").unwrap().db;
        let sigma = ConstraintEvent::new(
            caz_constraints::parse_constraints("ind R[1] <= U[1]").unwrap(),
        );
        let q = BoolQueryEvent::new(parse_query("Q1 := R(1, 1)").unwrap());
        let (num, den) = conditional_polys(&q, &sigma, &db).unwrap();
        assert_eq!(num.named_count, den.named_count);
        // Σ: v(⊥) ∈ {1,2} → |Suppᵏ(Σ)| = 2 (constant), |Suppᵏ(Σ∧Q)| = 1.
        assert_eq!(den.count_at(5), Ratio::from_int(2));
        assert_eq!(num.count_at(5), Ratio::from_int(1));
        assert_eq!(
            mu_conditional_exact(&q, &sigma, &db).unwrap(),
            Ratio::from_frac(1, 2)
        );
    }
}
