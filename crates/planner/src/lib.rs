//! # caz-planner
//!
//! A complexity-aware query planner for the certain-answers engine.
//!
//! Every measure the paper defines is computable by the general
//! support-polynomial enumeration in `caz-core` — and that enumeration
//! is exponential in the number of nulls, #P-hard already for a single
//! unary foreign key (Propositions 5/6). But the paper also hands us a
//! ladder of *sound shortcuts*:
//!
//! * **Theorem 1** — for generic `Q` without constraints, `μ(Q, D, ā)`
//!   is 0 or 1 and is decided by one naïve evaluation;
//! * **Theorem 4** — when `Σ^naïve(D)` holds, the conditional measure
//!   collapses to the unconditional one: `μ(Q | Σ, D, ā) = μ(Q, D, ā)`;
//! * **Theorem 5 / Corollary 4** — for FDs and constant answer tuples,
//!   `μ(Q | Σ, D, ā) = μ(Q, chase_Σ(D), ā)`: one polynomial chase, then
//!   Theorem 1 again;
//! * **Theorem 8** — for unions of conjunctive queries, the support
//!   order `⊴` (hence `best` and `compare`) is decidable in PTIME via
//!   small certificates.
//!
//! This crate classifies one evaluation [`Job`] — the fragment of the
//! query, the shape of `Σ`, the null structure of `D` — into a
//! [`Route`], each route carrying a machine-checkable soundness
//! [`Route::precondition`]. [`plan`] picks the cheapest sound route and
//! records every rejected candidate with its reason (so a server's
//! `explain` command can show exactly why a job fell into the slow
//! lane); [`execute`] runs the chosen route by delegating into the
//! existing engines. The planner never invents semantics: a route whose
//! precondition fails is *rejected*, and [`Route::EnumerationFallback`]
//! runs the general engines — the paper's definitions, counted over
//! valuations — which answer every job. Forcing that route (a server's
//! `--no-planner`) is the same [`execute`] call with no planning.
//!
//! The crate is deliberately engine-shaped, not protocol-shaped: it
//! knows nothing about sessions, caches, or wire framing. `caz-service`
//! builds jobs out of parsed requests and formats outcomes; this crate
//! only answers "which theorem applies, why, and what does it compute".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod features;
pub mod route;

pub use features::{Features, Fragment, NullStructure, SigmaShape, TupleShape};
pub use route::{Route, ROUTES};

use caz_arith::Ratio;
use caz_constraints::ConstraintSet;
use caz_core::{
    certain_answers, mu_conditional_exact, mu_conditional_fd, mu_exact, BoolQueryEvent,
    ConstraintEvent, SuppEvent, TupleAnswerEvent,
};
use caz_datalog::{
    certain_datalog_answers, naive_contains_datalog, naive_eval_datalog, DatalogEvent, Program,
};
use caz_idb::{Database, Tuple};
use caz_logic::{is_pos_forall_guarded, Query};
use std::collections::BTreeSet;

/// Which evaluation the job asks for: the evaluation commands of the
/// service's command language, each named by its command word
/// ([`PlanKind::name`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanKind {
    /// Naïve evaluation (already the fast path by definition).
    Naive,
    /// Certain answers.
    Certain,
    /// `⊴`-maximal answers.
    Best,
    /// The exact measure `μ(Q, D[, ā])`.
    Mu,
    /// The conditional measure `μ(Q | Σ, D[, ā])`.
    Cond,
    /// The finite sequence `μ¹..μᵏ` (streamed). No theorem route
    /// applies, and the job carries no `k`: the caller runs its rows on
    /// the class census or by enumeration, whichever
    /// `caz_core::SeriesCost` says is cheaper, over [`event`].
    Series,
    /// The support order between two answers.
    Compare,
}

impl PlanKind {
    /// Every kind, in the order `help` lists the commands.
    pub const ALL: [PlanKind; 7] = [
        PlanKind::Naive,
        PlanKind::Certain,
        PlanKind::Best,
        PlanKind::Mu,
        PlanKind::Cond,
        PlanKind::Series,
        PlanKind::Compare,
    ];

    /// The command word that asks for this kind.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Naive => "naive",
            PlanKind::Certain => "certain",
            PlanKind::Best => "best",
            PlanKind::Mu => "mu",
            PlanKind::Cond => "cond",
            PlanKind::Series => "series",
            PlanKind::Compare => "compare",
        }
    }
}

/// The query under evaluation: first-order or a Datalog program.
#[derive(Clone, Copy, Debug)]
pub enum QueryRef<'a> {
    /// A first-order query.
    Fo(&'a Query),
    /// A Datalog program (generic by least-fixed-point definability, so
    /// Theorem 1 still applies — see `caz_datalog::incomplete`).
    Datalog(&'a Program),
}

/// One fully resolved evaluation job: everything the planner needs to
/// classify, route and execute. Tuples are owned (they are tiny); the
/// query, constraint set, and database are borrowed from the caller's
/// session. A job must be well-formed — a `compare` job carries both
/// tuples, and a measure job's tuple (absent only for a Boolean query)
/// matches the query's arity — which the caller checks while resolving
/// it.
#[derive(Clone, Debug)]
pub struct Job<'a> {
    /// Which evaluation is being asked for.
    pub kind: PlanKind,
    /// The resolved query or program.
    pub query: QueryRef<'a>,
    /// The session's constraint set `Σ` (ignored by unconditional kinds).
    pub sigma: &'a ConstraintSet,
    /// The incomplete database `D`.
    pub db: &'a Database,
    /// The answer tuple `ā`, when the command supplies one.
    pub tuple: Option<Tuple>,
    /// The second tuple of a `compare` job.
    pub tuple2: Option<Tuple>,
}

/// A candidate route the planner considered and rejected, with the
/// reason its precondition failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// The rejected route.
    pub route: Route,
    /// Why its soundness precondition does not hold for this job.
    pub reason: String,
}

/// The planner's decision for one job.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The classification features the decision was made from.
    pub features: Features,
    /// The chosen route (the first candidate whose precondition holds;
    /// [`Route::EnumerationFallback`] when none does).
    pub route: Route,
    /// Candidates tried before `route`, in order, with reasons.
    pub rejected: Vec<Rejection>,
}

/// Classify a job and pick the cheapest sound route. Candidates are
/// tried in fixed cheapest-first order (see [`route::candidates`]); the
/// first one whose [`Route::precondition`] holds wins, and every
/// candidate rejected on the way is recorded verbatim.
pub fn plan(job: &Job) -> Plan {
    let features = features::classify(job);
    let mut rejected = Vec::new();
    for &candidate in route::candidates(job.kind) {
        match candidate.precondition(job) {
            Ok(()) => {
                return Plan { features, route: candidate, rejected };
            }
            Err(reason) => rejected.push(Rejection { route: candidate, reason }),
        }
    }
    Plan { features, route: Route::EnumerationFallback, rejected }
}

/// What executing a route produced. The caller (who owns request
/// formatting) renders these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecOutcome {
    /// A measure value (`mu` / `cond` jobs).
    Measure(Ratio),
    /// An answer set (`naive` / `certain` / `best` jobs).
    Tuples(BTreeSet<Tuple>),
    /// Both directions of the support order `⊴` (`compare` jobs):
    /// `d12` is `t1 ⊴ t2`, `d21` is `t2 ⊴ t1`.
    Comparison {
        /// Whether the first tuple is dominated by the second.
        d12: bool,
        /// Whether the second tuple is dominated by the first.
        d21: bool,
    },
}

/// Execute a job on `route`: one [`plan`] picked for the same job, or
/// [`Route::EnumerationFallback`], whose general engines answer every
/// kind except `series` (its rows are the caller's, over [`event`]).
/// Executing a route whose precondition does not hold is a logic error
/// and yields `Err` rather than a wrong answer.
pub fn execute(job: &Job, route: Route) -> Result<ExecOutcome, String> {
    route.precondition(job).map_err(|reason| {
        format!("route {} does not apply: {reason}", route.name())
    })?;
    match route {
        // Theorem 4 *reduces* μ(Q | Σ) to μ(Q); the reduced measure is
        // then computed exactly like Theorem 1's.
        Route::Theorem1Direct | Route::Theorem4Unconditional => {
            Ok(ExecOutcome::Measure(naive_measure(job)))
        }
        Route::Theorem5ChaseThenMeasure => {
            let QueryRef::Fo(q) = job.query else {
                return Err("Theorem 5 route is first-order only".into());
            };
            let schema = job.db.schema();
            let fds = job
                .sigma
                .as_fds(&schema)
                .ok_or("Σ is not expressible as functional dependencies")?;
            mu_conditional_fd(q, &fds, job.db, job.tuple.as_ref())
                .map(ExecOutcome::Measure)
                .map_err(|refusal| refusal.to_string())
        }
        Route::Theorem8Ucq => {
            let QueryRef::Fo(q) = job.query else {
                return Err("Theorem 8 route is first-order only".into());
            };
            let cmp = caz_compare::UcqComparator::new(q)
                .ok_or("query is not a union of conjunctive queries")?;
            match job.kind {
                PlanKind::Best => Ok(ExecOutcome::Tuples(cmp.best_answers(job.db))),
                PlanKind::Compare => {
                    let (Some(t1), Some(t2)) = (&job.tuple, &job.tuple2) else {
                        return Err("compare needs two tuples".into());
                    };
                    Ok(ExecOutcome::Comparison {
                        d12: cmp.dominated(job.db, t1, t2),
                        d21: cmp.dominated(job.db, t2, t1),
                    })
                }
                _ => Err("Theorem 8 routes only best/compare jobs".into()),
            }
        }
        Route::EnumerationFallback => enumerate(job),
    }
}

/// The name `explain` and `stats` give the engine [`corollary3`]
/// licenses for a `certain` job.
pub const COROLLARY3_NAIVE: &str = "corollary3-naive";

/// Corollary 3 for a `certain` job: its query is preserved under the
/// maps valuations induce (`D → v(D)`, onto and the identity on
/// constants), so each naïve answer ā is certain (`v(ā) ∈ Q(v(D))` for
/// every valuation `v`), and Corollary 1 (certain ⊆ naïve) gives the
/// converse: the certain answers are the naïve ones. Two cases qualify:
/// a first-order query in Pos∀G ([`caz_logic::is_pos_forall_guarded`],
/// which contains the UCQs), and a program without negation
/// ([`Program::is_positive`]), whose least fixed point every
/// homomorphism preserves. `Err` names the hypothesis that fails,
/// verbatim for `explain`.
///
/// This is an engine of the enumeration route, like the class census
/// for `series`: [`plan`] routes a `certain` job to
/// [`Route::EnumerationFallback`], whose general engine (each naïve
/// answer tested against Theorem 3's classes) stays the reference a
/// planned reply must match.
pub fn corollary3(job: &Job) -> Result<(), String> {
    if job.kind != PlanKind::Certain {
        return Err("Corollary 3 decides certain answers (certain jobs only)".into());
    }
    match job.query {
        QueryRef::Fo(q) if is_pos_forall_guarded(&q.body) => Ok(()),
        QueryRef::Fo(_) => Err("query is not in Pos∀G (it negates, or guards a ∀ by an atom \
                                that is not over distinct variables of its own block), so \
                                valuations need not preserve it"
            .into()),
        QueryRef::Datalog(p) if p.is_positive() => Ok(()),
        QueryRef::Datalog(_) => Err("program negates a body atom; Corollary 3 needs a \
                                     negation-free program"
            .into()),
    }
}

/// A `certain` job's answers by Corollary 3: its naïve answers, from one
/// naïve evaluation. An error, not a wrong answer, when [`corollary3`]
/// does not hold.
pub fn certain_by_corollary3(job: &Job) -> Result<ExecOutcome, String> {
    corollary3(job)?;
    enumerate(&Job { kind: PlanKind::Naive, ..job.clone() })
}

/// The general engines: the paper's definitions evaluated directly —
/// support counting over valuations for the measures, exponential in
/// the number of nulls.
fn enumerate(job: &Job) -> Result<ExecOutcome, String> {
    let db = job.db;
    Ok(match (job.kind, job.query) {
        (PlanKind::Naive, QueryRef::Fo(q)) => ExecOutcome::Tuples(caz_logic::naive_eval(q, db)),
        (PlanKind::Naive, QueryRef::Datalog(p)) => ExecOutcome::Tuples(naive_eval_datalog(p, db)),
        (PlanKind::Certain, QueryRef::Fo(q)) => ExecOutcome::Tuples(certain_answers(q, db)),
        (PlanKind::Certain, QueryRef::Datalog(p)) => {
            ExecOutcome::Tuples(certain_datalog_answers(p, db))
        }
        (PlanKind::Best, QueryRef::Fo(q)) => ExecOutcome::Tuples(caz_compare::best_answers(q, db)),
        (PlanKind::Mu, _) => {
            ExecOutcome::Measure(mu_exact(&*event(job), db).map_err(|e| e.to_string())?)
        }
        (PlanKind::Cond, _) => {
            let sigma = ConstraintEvent::new(job.sigma.clone());
            let measure = mu_conditional_exact(&*event(job), &sigma, db);
            ExecOutcome::Measure(measure.map_err(|e| e.to_string())?)
        }
        (PlanKind::Compare, QueryRef::Fo(q)) => {
            let (Some(t1), Some(t2)) = (&job.tuple, &job.tuple2) else {
                return Err("compare needs two tuples".into());
            };
            ExecOutcome::Comparison {
                d12: caz_compare::dominated(q, db, t1, t2),
                d21: caz_compare::dominated(q, db, t2, t1),
            }
        }
        (PlanKind::Series, _) => {
            return Err("series rows run on the caller's series engines".into());
        }
        (PlanKind::Best | PlanKind::Compare, QueryRef::Datalog(_)) => {
            return Err("the support order is defined for first-order queries only".into());
        }
    })
}

/// The support event of a measure job (`mu`, `cond`, `series`): the
/// query holds at the answer tuple, or, with no tuple, the Boolean
/// query holds. The one builder for every engine that counts support.
pub fn event(job: &Job) -> Box<dyn SuppEvent> {
    match (job.query, &job.tuple) {
        (QueryRef::Datalog(p), t) => {
            Box::new(DatalogEvent::new(p.clone(), t.clone().unwrap_or_else(Tuple::empty)))
        }
        (QueryRef::Fo(q), None) => Box::new(BoolQueryEvent::new(q.clone())),
        (QueryRef::Fo(q), Some(t)) => Box::new(TupleAnswerEvent::new(q.clone(), t.clone())),
    }
}

/// The Theorem-1 measure: one naïve evaluation decides `μ ∈ {0, 1}`.
/// For Datalog the same theorem applies (genericity is all it needs);
/// `naive_contains_datalog` maps the answer tuple's nulls through the
/// same bijective valuation as the database's, so null-mentioning
/// answers are decided consistently.
fn naive_measure(job: &Job) -> Ratio {
    let almost_true = match job.query {
        QueryRef::Fo(q) => match &job.tuple {
            None => caz_logic::naive_eval_bool(q, job.db),
            Some(t) => caz_logic::naive_contains(q, job.db, t),
        },
        QueryRef::Datalog(p) => {
            let t = job.tuple.clone().unwrap_or_else(Tuple::empty);
            naive_contains_datalog(p, job.db, &t)
        }
    };
    if almost_true {
        Ratio::one()
    } else {
        Ratio::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caz_constraints::parse_constraints;
    use caz_idb::{cst, parse_database, Value};
    use caz_logic::parse_query;

    fn job<'a>(
        kind: PlanKind,
        q: &'a Query,
        sigma: &'a ConstraintSet,
        db: &'a Database,
        tuple: Option<Tuple>,
    ) -> Job<'a> {
        Job { kind, query: QueryRef::Fo(q), sigma, db, tuple, tuple2: None }
    }

    #[test]
    fn mu_always_routes_to_theorem_1() {
        let db = parse_database("R(c1, _x). R(c2, _y).").unwrap().db;
        let sigma = ConstraintSet::new();
        // Even a full-FO query with negation and ∀ routes: Theorem 1
        // needs only genericity, not a fragment.
        let q = parse_query("Q := forall p. R(c1, p) -> !R(c2, p)").unwrap();
        let j = job(PlanKind::Mu, &q, &sigma, &db, None);
        let p = plan(&j);
        assert_eq!(p.route, Route::Theorem1Direct);
        assert!(p.rejected.is_empty());
        assert_eq!(
            execute(&j, p.route).unwrap(),
            ExecOutcome::Measure(Ratio::one())
        );
    }

    #[test]
    fn cond_with_empty_sigma_is_theorem_1() {
        let db = parse_database("R(a, _x).").unwrap().db;
        let sigma = ConstraintSet::new();
        let q = parse_query("Q := exists u, v. R(u, v)").unwrap();
        let j = job(PlanKind::Cond, &q, &sigma, &db, None);
        let p = plan(&j);
        assert_eq!(p.route, Route::Theorem1Direct);
    }

    #[test]
    fn cond_with_naively_true_sigma_is_theorem_4() {
        // Σ: π₂(R) ⊆ U, naïvely true (second column is the constant 1).
        let db = parse_database("R(_x, 1). U(1). U(2).").unwrap().db;
        let sigma = parse_constraints("ind R[2] <= U[1]").unwrap();
        let q = parse_query("Q := exists x. R(x, 1)").unwrap();
        let j = job(PlanKind::Cond, &q, &sigma, &db, None);
        let p = plan(&j);
        assert_eq!(p.route, Route::Theorem4Unconditional);
        // Theorem 1 was tried first and rejected for the non-empty Σ.
        assert_eq!(p.rejected[0].route, Route::Theorem1Direct);
        assert!(p.rejected[0].reason.contains("Σ"), "{}", p.rejected[0].reason);
        assert_eq!(
            execute(&j, p.route).unwrap(),
            ExecOutcome::Measure(Ratio::one())
        );
    }

    #[test]
    fn cond_with_naively_false_fds_is_theorem_5() {
        // The FD fails naïvely (⊥x ≠ ⊥y syntactically ⇒ two rows with
        // the same key), so Theorem 4 is out; Theorem 5 chases.
        let db = parse_database("R(a, _x). R(a, _y).").unwrap().db;
        let sigma = parse_constraints("fd R: 1 -> 2").unwrap();
        let q = parse_query("Q := exists u. R(u, u)").unwrap();
        let j = job(PlanKind::Cond, &q, &sigma, &db, None);
        let p = plan(&j);
        assert_eq!(p.route, Route::Theorem5ChaseThenMeasure);
        let reasons: Vec<&Route> = p.rejected.iter().map(|r| &r.route).collect();
        assert_eq!(
            reasons,
            [&Route::Theorem1Direct, &Route::Theorem4Unconditional]
        );
        assert!(
            p.rejected[1].reason.contains("naïve"),
            "{}",
            p.rejected[1].reason
        );
    }

    #[test]
    fn theorem_5_counterexample_null_tuple_falls_back() {
        // Hand-built counterexample: FDs only (failing naïvely, so
        // Theorem 4 is out too), but the answer tuple mentions a null —
        // Theorem 5's side condition fails and the structured refusal
        // from caz-core is surfaced verbatim.
        let parsed = parse_database("R(a, _x). R(a, _y).").unwrap();
        let sigma = parse_constraints("fd R: 1 -> 2").unwrap();
        let q = parse_query("Q(u, v) := R(u, v)").unwrap();
        let t = Tuple::new(vec![cst("a"), Value::Null(parsed.nulls["x"])]);
        let j = job(PlanKind::Cond, &q, &sigma, &parsed.db, Some(t.clone()));
        let p = plan(&j);
        assert_eq!(p.route, Route::EnumerationFallback);
        let t5 = p
            .rejected
            .iter()
            .find(|r| r.route == Route::Theorem5ChaseThenMeasure)
            .expect("theorem 5 must have been tried");
        let refusal = caz_core::theorem5_applicability(Some(&t)).unwrap_err();
        assert_eq!(t5.reason, refusal.to_string(), "refusal surfaced verbatim");
    }

    #[test]
    fn theorem_5_counterexample_ind_falls_back() {
        // INDs are not FDs: neither Theorem 4 (Σ naïvely false — ⊥ is
        // not syntactically in V) nor Theorem 5 applies.
        let db = parse_database("R(_x). V(1).").unwrap().db;
        let sigma = parse_constraints("ind R[1] <= V[1]").unwrap();
        let q = parse_query("Q := R(1)").unwrap();
        let j = job(PlanKind::Cond, &q, &sigma, &db, None);
        let p = plan(&j);
        assert_eq!(p.route, Route::EnumerationFallback);
        let t5 = p
            .rejected
            .iter()
            .find(|r| r.route == Route::Theorem5ChaseThenMeasure)
            .unwrap();
        assert!(t5.reason.contains("functional dependencies"), "{}", t5.reason);
    }

    #[test]
    fn best_routes_through_theorem_8_for_ucqs_only() {
        let db = parse_database("R(c1, _x). R(c2, _x).").unwrap().db;
        let sigma = ConstraintSet::new();
        let ucq = parse_query("Q(u) := exists v. R(u, v) | R(v, u)").unwrap();
        let j = job(PlanKind::Best, &ucq, &sigma, &db, None);
        let p = plan(&j);
        assert_eq!(p.route, Route::Theorem8Ucq);
        let ExecOutcome::Tuples(ts) = execute(&j, p.route).unwrap() else {
            panic!("best must produce tuples")
        };
        assert!(!ts.is_empty());

        // Counterexample: negation leaves the UCQ fragment.
        let neg = parse_query("N(u) := exists v. R(u, v) & !R(v, u)").unwrap();
        let j = job(PlanKind::Best, &neg, &sigma, &db, None);
        let p = plan(&j);
        assert_eq!(p.route, Route::EnumerationFallback);
        assert!(
            p.rejected[0].reason.contains("conjunctive"),
            "{}",
            p.rejected[0].reason
        );
    }

    #[test]
    fn compare_arity_mismatch_falls_back() {
        let db = parse_database("R(c1, _x).").unwrap().db;
        let sigma = ConstraintSet::new();
        let q = parse_query("Q(u) := exists v. R(u, v)").unwrap();
        let mut j = job(PlanKind::Compare, &q, &sigma, &db, Some(Tuple::new(vec![cst("c1")])));
        j.tuple2 = Some(Tuple::new(vec![cst("c1"), cst("c2")]));
        let p = plan(&j);
        assert_eq!(p.route, Route::EnumerationFallback, "{:?}", p.rejected);
        assert!(p.rejected[0].reason.contains("arity"), "{}", p.rejected[0].reason);
    }

    #[test]
    fn unrouted_kinds_fall_back_without_candidates() {
        let db = parse_database("R(a).").unwrap().db;
        let sigma = ConstraintSet::new();
        let q = parse_query("Q := exists x. R(x)").unwrap();
        for kind in [PlanKind::Naive, PlanKind::Certain, PlanKind::Series] {
            let j = job(kind, &q, &sigma, &db, None);
            let p = plan(&j);
            assert_eq!(p.route, Route::EnumerationFallback);
            assert!(p.rejected.is_empty());
        }
        // The fallback runs the general engines itself; only series
        // rows are left to the caller.
        let j = job(PlanKind::Certain, &q, &sigma, &db, None);
        let answers = BTreeSet::from([Tuple::empty()]);
        assert_eq!(execute(&j, Route::EnumerationFallback), Ok(ExecOutcome::Tuples(answers)));
        let j = job(PlanKind::Series, &q, &sigma, &db, None);
        assert!(execute(&j, Route::EnumerationFallback).is_err());
    }

    #[test]
    fn corollary_3_answers_certain_by_naive_evaluation() {
        // Item 1's probe at n = 3: the naïve answers are all certain.
        let db = parse_database("R(a1, _x1). R(a2, _x2). R(a3, _x3).").unwrap().db;
        let sigma = ConstraintSet::new();
        let q = parse_query("Q(u) := exists v. R(u, v)").unwrap();
        let j = job(PlanKind::Certain, &q, &sigma, &db, None);
        assert_eq!(corollary3(&j), Ok(()));
        let walked = execute(&j, Route::EnumerationFallback).unwrap();
        assert_eq!(certain_by_corollary3(&j).unwrap(), walked);
        let ExecOutcome::Tuples(answers) = walked else { panic!("certain yields tuples") };
        assert_eq!(answers.len(), 3);

        // Negation: a naïve answer that is not certain.
        let neg = parse_query("N(u) := exists v. R(u, v) & !R(v, u)").unwrap();
        let j = job(PlanKind::Certain, &neg, &sigma, &db, None);
        let reason = corollary3(&j).unwrap_err();
        assert!(reason.contains("Pos∀G"), "{reason}");
        assert!(certain_by_corollary3(&j).is_err());
        // A guard over a variable bound outside its block: ⊥ is naïve,
        // not certain.
        let db = parse_database("T(_n). R(a).").unwrap().db;
        let outer = parse_query("O(y) := T(y) & forall x. R(y) -> S(x, y)").unwrap();
        let j = job(PlanKind::Certain, &outer, &sigma, &db, None);
        assert!(corollary3(&j).is_err());
        assert_eq!(execute(&j, Route::EnumerationFallback), Ok(ExecOutcome::Tuples(BTreeSet::new())));
        let naive = Job { kind: PlanKind::Naive, ..j.clone() };
        let ExecOutcome::Tuples(naive) = execute(&naive, Route::EnumerationFallback).unwrap() else {
            panic!("naive yields tuples")
        };
        assert_eq!(naive.len(), 1);
        // Only certain jobs.
        let j = job(PlanKind::Mu, &q, &sigma, &db, None);
        assert!(corollary3(&j).is_err());
    }

    #[test]
    fn executing_an_inapplicable_route_is_an_error_not_a_wrong_answer() {
        let db = parse_database("R(a, _x). R(a, _y).").unwrap().db;
        let sigma = parse_constraints("ind R[1] <= R[2]").unwrap();
        let q = parse_query("Q := exists u. R(u, u)").unwrap();
        let j = job(PlanKind::Cond, &q, &sigma, &db, None);
        let err = execute(&j, Route::Theorem5ChaseThenMeasure).unwrap_err();
        assert!(err.contains("does not apply"), "{err}");
    }

    #[test]
    fn theorem_4_agrees_with_the_enumeration_engine() {
        // Σ naïvely true ⇒ the routed value equals both μ(Q, D) and the
        // engine's μ(Q | Σ, D) (Theorem 4 end-to-end).
        let db = parse_database("R(_x, 1). U(1). U(2).").unwrap().db;
        let sigma = parse_constraints("ind R[2] <= U[1]").unwrap();
        for src in ["Q1 := R(1, 1)", "Q2 := exists x. R(x, 1)", "Q3 := U(9)"] {
            let q = parse_query(src).unwrap();
            let j = job(PlanKind::Cond, &q, &sigma, &db, None);
            let p = plan(&j);
            assert_eq!(p.route, Route::Theorem4Unconditional, "{src}");
            let ExecOutcome::Measure(routed) = execute(&j, p.route).unwrap() else {
                panic!("measure expected")
            };
            assert_eq!(routed, caz_core::mu_conditional(&q, &sigma, &db, None), "{src}");
        }
    }
}
