//! Routes and their machine-checkable soundness preconditions.
//!
//! A [`Route`] names the theorem that licenses a fast path; its
//! [`Route::precondition`] verifies, on the concrete job, the exact
//! hypotheses that theorem needs. The planner tries the candidates for
//! each job kind in a fixed cheapest-first order ([`candidates`]) and
//! takes the first route whose precondition holds. Nothing downstream
//! ever trusts a label alone: [`crate::execute`] re-checks the
//! precondition before running, so a route can never silently compute
//! under hypotheses that do not hold.

use crate::{Job, PlanKind, QueryRef};
use caz_core::theorem5_applicability;
use caz_idb::Valuation;
use std::collections::BTreeSet;
use std::fmt;

/// A theorem-licensed evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Route {
    /// Theorem 1: one naïve evaluation decides `μ ∈ {0, 1}` for any
    /// generic query without constraints (FO and Datalog alike).
    Theorem1Direct,
    /// Theorem 4: when `Σ^naïve(D)` holds, `μ(Q | Σ) = μ(Q)` — drop the
    /// constraints and run Theorem 1.
    Theorem4Unconditional,
    /// Theorem 5 / Corollary 4: for FDs and constant answer tuples,
    /// chase `D` with `Σ` once, then measure unconditionally.
    Theorem5ChaseThenMeasure,
    /// Theorem 8: PTIME `best`/`compare` for unions of conjunctive
    /// queries via small certificates.
    Theorem8Ucq,
    /// No theorem applies: run the general engines, which compute every
    /// measure by counting support over valuations (exponential in the
    /// number of nulls). Always sound; forcing it disables planning.
    EnumerationFallback,
}

/// Every route, in display order.
pub const ROUTES: [Route; 5] = [
    Route::Theorem1Direct,
    Route::Theorem4Unconditional,
    Route::Theorem5ChaseThenMeasure,
    Route::Theorem8Ucq,
    Route::EnumerationFallback,
];

impl Route {
    /// Stable kebab-case name used in wire output and metrics keys.
    pub fn name(self) -> &'static str {
        match self {
            Route::Theorem1Direct => "theorem1-direct",
            Route::Theorem4Unconditional => "theorem4-unconditional",
            Route::Theorem5ChaseThenMeasure => "theorem5-chase-then-measure",
            Route::Theorem8Ucq => "theorem8-ucq",
            Route::EnumerationFallback => "enumeration-fallback",
        }
    }

    /// Check the soundness hypotheses of this route against a concrete
    /// job. `Ok(())` means the theorem's conclusion is available;
    /// `Err(reason)` explains precisely which hypothesis failed (the
    /// string surfaces verbatim in `explain` output).
    pub fn precondition(self, job: &Job) -> Result<(), String> {
        match self {
            Route::Theorem1Direct => {
                match job.kind {
                    PlanKind::Mu => Ok(()),
                    PlanKind::Cond if job.sigma.is_empty() => Ok(()),
                    PlanKind::Cond => Err(
                        "Σ is non-empty; Theorem 1 holds only without constraints".into(),
                    ),
                    _ => Err("Theorem 1 computes measures (mu/cond jobs only)".into()),
                }
            }
            Route::Theorem4Unconditional => {
                if job.kind != PlanKind::Cond {
                    return Err("Theorem 4 reduces conditional measures (cond jobs only)".into());
                }
                // Rendering Σ as a sentence only validates it against
                // D's schema (unknown relations, column ranges). Whether
                // Σ^naïve(D) holds is decided by the constraint engine on
                // the naïve instance: FD, key, IND and FK checks agree
                // with their sentences (an FK's implied key included) on
                // every complete database.
                let schema = job.db.schema();
                job.sigma
                    .to_query(&schema)
                    .map_err(|e| format!("Σ cannot be rendered as a query: {e}"))?;
                let naive = Valuation::naive(job.db, &BTreeSet::new()).apply_db(job.db);
                if job.sigma.holds_in(&naive) {
                    Ok(())
                } else {
                    Err("Σ^naïve(D) is false; Theorem 4 needs the constraints to hold \
                         naïvely in D"
                        .into())
                }
            }
            Route::Theorem5ChaseThenMeasure => {
                if job.kind != PlanKind::Cond {
                    return Err("Theorem 5 reduces conditional measures (cond jobs only)".into());
                }
                let QueryRef::Fo(_) = job.query else {
                    return Err("Theorem 5 is stated for first-order queries; \
                                Datalog jobs are not chased"
                        .into());
                };
                if job.sigma.as_fds(&job.db.schema()).is_none() {
                    return Err("Σ is not expressible as functional dependencies \
                                (Theorem 5 covers FDs and unary keys)"
                        .into());
                }
                theorem5_applicability(job.tuple.as_ref()).map_err(|r| r.to_string())
            }
            Route::Theorem8Ucq => {
                if !matches!(job.kind, PlanKind::Best | PlanKind::Compare) {
                    return Err("Theorem 8 decides the support order (best/compare jobs \
                                only)"
                        .into());
                }
                let QueryRef::Fo(q) = job.query else {
                    return Err("Datalog programs are not unions of conjunctive queries".into());
                };
                if caz_compare::UcqComparator::new(q).is_none() {
                    return Err("query is not a union of conjunctive queries (Theorem 8 \
                                needs the UCQ fragment)"
                        .into());
                }
                if job.kind == PlanKind::Compare {
                    for t in [&job.tuple, &job.tuple2].into_iter().flatten() {
                        if t.arity() != q.arity() {
                            return Err(format!(
                                "tuple arity {} does not match query arity {}",
                                t.arity(),
                                q.arity()
                            ));
                        }
                    }
                }
                Ok(())
            }
            // The fallback is always sound: it is the definition itself.
            Route::EnumerationFallback => Ok(()),
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The candidate routes for each job kind, cheapest first. Kinds with
/// no entry always fall back: `naive` is already the fast path,
/// `certain` needs the full support machinery in general, and `series`
/// asks for the finite prefix `μ¹..μᵏ`, which no limit theorem decides
/// (see [`PlanKind::Series`] for its exact engines).
pub fn candidates(kind: PlanKind) -> &'static [Route] {
    match kind {
        PlanKind::Mu => &[Route::Theorem1Direct],
        PlanKind::Cond => &[
            Route::Theorem1Direct,
            Route::Theorem4Unconditional,
            Route::Theorem5ChaseThenMeasure,
        ],
        PlanKind::Best | PlanKind::Compare => &[Route::Theorem8Ucq],
        PlanKind::Naive | PlanKind::Certain | PlanKind::Series => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_names_are_stable_and_distinct() {
        let names: std::collections::BTreeSet<&str> =
            ROUTES.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), ROUTES.len());
        for r in ROUTES {
            assert!(!r.name().contains(' '), "metrics keys must be space-free");
            assert_eq!(r.to_string(), r.name());
        }
    }

    #[test]
    fn candidates_never_include_the_fallback() {
        for kind in PlanKind::ALL {
            assert!(!candidates(kind).contains(&Route::EnumerationFallback));
        }
    }
}
