//! Differential correctness for the query planner: for every
//! evaluation request, the planner-routed reply must be **byte-
//! identical** to the forced-enumeration reply — same text on success,
//! same message on error. The theorems guarantee equal *values*; the
//! shared formatting helpers in the session guarantee equal *bytes*;
//! this suite checks both ends against randomized sessions.
//!
//! Two layers:
//!
//! * a seeded random sweep (`CAZ_TEST_SEED` selects the seed; the
//!   default is fixed, so CI is reproducible) generating 1,000+
//!   command-text cases across every evaluation kind, query fragment,
//!   constraint shape, and null structure. Command *text* is generated
//!   from templates in the client syntax, the text a client sends;
//! * deterministic pinning cases, one per route, asserting both that
//!   the expected route fires and that the replies agree;
//! * `certain` jobs whose query Corollary 3 covers (Pos∀G queries with
//!   guarded `∀`, positive programs), answered by their naïve answers,
//!   against the class walk, and ones it does not cover (negation,
//!   stratified programs, a guard over an outer variable).

use caz_service::{EvalRequest, Request, Session};
use caz_testutil::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeSet;

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

/// Run one command against a session, panicking on failure (setup
/// commands in these tests are well-formed by construction).
fn run(session: &mut Session, line: &str) {
    if let Err(e) = session.execute(line) {
        panic!("setup command failed: {line:?}: {e}");
    }
}

/// Extract the [`EvalRequest`] from an evaluation command line.
fn eval_request(line: &str) -> EvalRequest {
    match Request::parse(line) {
        Ok(Some(Request::Eval(ev))) => ev,
        other => panic!("not an eval command: {line:?} -> {other:?}"),
    }
}

/// The heart of the suite: evaluate one request through both paths and
/// assert byte identity. Returns the routes the planner reported.
fn assert_identical(session: &Session, line: &str, seen_routes: &mut BTreeSet<&'static str>) {
    let ev = eval_request(line);
    let enumerated = session.eval(&ev);
    let routed = session.eval_planned(&ev, &mut |route| {
        seen_routes.insert(route.name());
    });
    assert_eq!(
        routed, enumerated,
        "planner-routed reply diverges from enumeration for {line:?} (seed {})",
        seed()
    );
}

const CONSTS: [&str; 4] = ["a", "b", "c", "d"];
const NULLS: [&str; 4] = ["_x", "_y", "_z", "_w"];

fn term(rng: &mut StdRng) -> &'static str {
    if rng.random_bool(0.4) {
        NULLS[rng.random_range(0..NULLS.len())]
    } else {
        CONSTS[rng.random_range(0..CONSTS.len())]
    }
}

/// A random `fact` command over the fixed schema `R/2`, `S/1`.
fn facts_cmd(rng: &mut StdRng) -> String {
    let mut parts = Vec::new();
    for _ in 0..rng.random_range(1..5) {
        parts.push(format!("R({}, {}).", term(rng), term(rng)));
    }
    for _ in 0..rng.random_range(0..4) {
        parts.push(format!("S({}).", term(rng)));
    }
    format!("fact {}", parts.join(" "))
}

/// Zero or more `constraint` commands covering every Σ shape the
/// planner distinguishes (empty, FDs, keys, INDs, mixed).
fn constraint_cmds(rng: &mut StdRng) -> Vec<&'static str> {
    match rng.random_range(0..6) {
        0 | 1 => vec![],
        2 => vec!["constraint fd R: 1 -> 2"],
        3 => vec!["constraint key S[1]"],
        4 => vec!["constraint ind R[2] <= S[1]"],
        _ => vec!["constraint fd R: 1 -> 2", "constraint ind R[2] <= S[1]"],
    }
}

/// One query/program definition plus the shape information needed to
/// build compatible evaluation commands.
struct Scenario {
    def: &'static str,
    datalog: bool,
    arity: usize,
}

const SCENARIOS: &[Scenario] = &[
    // CQ, Boolean.
    Scenario { def: "query Q := exists u, v. R(u, v)", datalog: false, arity: 0 },
    // CQ, unary head.
    Scenario { def: "query Q(u) := exists v. R(u, v)", datalog: false, arity: 1 },
    // UCQ (Theorem 8 territory).
    Scenario { def: "query Q(u) := exists v. R(u, v) | R(v, u)", datalog: false, arity: 1 },
    // Binary head, atoms only.
    Scenario { def: "query Q(u, v) := R(u, v)", datalog: false, arity: 2 },
    // Full FO: negation.
    Scenario { def: "query Q := exists u. S(u) & !R(u, u)", datalog: false, arity: 0 },
    // Pos∀G: guarded implication.
    Scenario { def: "query Q := forall u. S(u) -> exists v. R(u, v)", datalog: false, arity: 0 },
    // Constant-mentioning.
    Scenario { def: "query Q := exists v. R(a, v)", datalog: false, arity: 0 },
    // Datalog (transitive closure), generic by fixed-point definability.
    Scenario {
        def: "datalog Q(x, y) :- R(x, y); Q(x, z) :- Q(x, y), R(y, z)",
        datalog: true,
        arity: 2,
    },
    // Pos∀G, a guarded ∀ under a head variable: Corollary 3's case.
    Scenario {
        def: "query Q(u) := S(u) & forall v. S(v) -> exists w. R(v, w) | R(w, u)",
        datalog: false,
        arity: 1,
    },
    // A guard over a variable the ∀ does not bind: not Pos∀G, so
    // `certain` walks the classes.
    Scenario {
        def: "query Q(u) := S(u) & forall v. R(u, v) -> S(v)",
        datalog: false,
        arity: 1,
    },
    // A UCQ whose answers carry nulls.
    Scenario { def: "query Q(u) := exists v. R(v, u) | S(u)", datalog: false, arity: 1 },
    // Positive recursive Datalog: Corollary 3's other case.
    Scenario { def: "datalog Q(x) :- S(x); Q(x) :- R(x, y), Q(y)", datalog: true, arity: 1 },
    // Stratified Datalog with negation: the class walk.
    Scenario { def: "datalog Q(x) :- R(x, y), !S(y)", datalog: true, arity: 1 },
];

/// A random tuple literal of the given arity (nulls may or may not be
/// bound in the session — an unknown null must error identically on
/// both paths, so those cases stay in the pool).
fn tuple_src(rng: &mut StdRng, arity: usize) -> String {
    let vals: Vec<&str> = (0..arity).map(|_| term(rng)).collect();
    format!("({})", vals.join(", "))
}

/// The evaluation commands compatible with a scenario.
fn eval_cmds(rng: &mut StdRng, s: &Scenario) -> Vec<String> {
    let mut cmds = vec!["naive Q".to_string(), "certain Q".to_string()];
    if s.arity == 0 {
        cmds.push("mu Q".to_string());
        cmds.push("cond Q".to_string());
        cmds.push("series Q 3".to_string());
    } else {
        let t = tuple_src(rng, s.arity);
        cmds.push(format!("mu Q {t}"));
        cmds.push(format!("cond Q {t}"));
        cmds.push(format!("series Q {t} 3"));
    }
    if !s.datalog {
        cmds.push("best Q".to_string());
        if s.arity > 0 {
            cmds.push(format!(
                "compare Q {} {}",
                tuple_src(rng, s.arity),
                tuple_src(rng, s.arity)
            ));
        }
    }
    cmds
}

#[test]
fn routed_replies_are_byte_identical_to_enumeration() {
    let mut rng = StdRng::seed_from_u64(seed());
    let mut seen_routes = BTreeSet::new();
    let mut cases = 0usize;
    // `certain` jobs by engine: Corollary 3, then the class walk.
    let mut certain_engines = [0usize; 2];
    for round in 0..200 {
        let mut session = Session::new();
        let mut setup = vec![facts_cmd(&mut rng)];
        setup.extend(constraint_cmds(&mut rng).iter().map(|s| s.to_string()));
        let scenario = &SCENARIOS[round % SCENARIOS.len()];
        setup.push(scenario.def.to_string());
        for line in &setup {
            run(&mut session, line);
        }
        match session.plan_for("certain Q").map(|report| report.certain) {
            Ok(Some(Ok(()))) => certain_engines[0] += 1,
            Ok(Some(Err(_))) => certain_engines[1] += 1,
            other => panic!("certain Q after {setup:?} plans as {other:?}"),
        }
        for cmd in eval_cmds(&mut rng, scenario) {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assert_identical(&session, &cmd, &mut seen_routes);
            }));
            if result.is_err() {
                panic!("divergence in round {round}; session setup: {setup:#?}");
            }
            cases += 1;
        }
    }
    assert!(cases >= 1000, "sweep must cover 1000+ cases, got {cases}");
    assert!(
        certain_engines.iter().all(|&n| n > 0),
        "certain jobs by engine (Corollary 3, class walk): {certain_engines:?} (seed {})",
        seed()
    );
    // The sweep must actually exercise the fast paths, not just agree
    // on fallbacks. (Theorem 5 needs a naïvely-violated FD *and* an
    // FD-only Σ — rare but expected in 200 rounds; if a future seed
    // change starves a route, widen the templates, don't delete this.)
    for route in [
        "theorem1-direct",
        "theorem4-unconditional",
        "theorem5-chase-then-measure",
        "theorem8-ucq",
        "enumeration-fallback",
    ] {
        assert!(
            seen_routes.contains(route),
            "sweep never exercised {route}; saw {seen_routes:?} (seed {})",
            seed()
        );
    }
}

/// Deterministic per-route pinning: each theorem route fires on its
/// canonical precondition and agrees with enumeration; each hand-built
/// counterexample falls back.
#[test]
fn each_route_fires_and_agrees_on_its_canonical_case() {
    let check = |setup: &[&str], cmd: &str, want_route: &str| {
        let mut session = Session::new();
        for line in setup {
            run(&mut session, line);
        }
        let mut seen = BTreeSet::new();
        assert_identical(&session, cmd, &mut seen);
        assert_eq!(
            seen.iter().copied().collect::<Vec<_>>(),
            vec![want_route],
            "{cmd:?} after {setup:?}"
        );
    };

    // Theorem 1: unconditional measure, one naïve evaluation.
    check(
        &["fact R(a, _x).", "query Q := exists u, v. R(u, v)"],
        "mu Q",
        "theorem1-direct",
    );
    // Theorem 1 for Datalog: genericity is all it needs.
    check(
        &[
            "fact R(a, _m). R(_m, c).",
            "datalog P(x, y) :- R(x, y); P(x, z) :- P(x, y), R(y, z)",
        ],
        "mu P (a, c)",
        "theorem1-direct",
    );
    // Theorem 4: Σ^naïve(D) holds, conditional collapses.
    check(
        &[
            "fact R(_x, b). S(b).",
            "constraint ind R[2] <= S[1]",
            "query Q := exists u. R(u, b)",
        ],
        "cond Q",
        "theorem4-unconditional",
    );
    // Theorem 5: FDs violated naïvely, chase then measure.
    check(
        &[
            "fact R(a, _x). R(a, _y).",
            "constraint fd R: 1 -> 2",
            "query Q := exists u, v. R(u, v)",
        ],
        "cond Q",
        "theorem5-chase-then-measure",
    );
    // Theorem 8: UCQ best answers in PTIME.
    check(
        &["fact R(a, _x). R(b, _x).", "query Q(u) := exists v. R(u, v) | R(v, u)"],
        "best Q",
        "theorem8-ucq",
    );
    // Counterexample: a null answer tuple defeats Theorem 5 (the chase
    // renames nulls) — with the FD naïvely violated nothing else
    // applies, so the job must fall back, not silently misroute.
    check(
        &[
            "fact R(a, _x). R(a, _y).",
            "constraint fd R: 1 -> 2",
            "query Q(u, v) := R(u, v)",
        ],
        "cond Q (a, _x)",
        "enumeration-fallback",
    );
    // Counterexample: negation leaves the UCQ fragment.
    check(
        &["fact R(a, _x). S(a).", "query N(u) := S(u) & !R(u, u)"],
        "best N",
        "enumeration-fallback",
    );
}

/// The engine `plan_for` reports for `certain Q` after `setup`: `Ok`
/// when Corollary 3 answers it.
fn certain_engine(setup: &[&str]) -> (Session, Result<(), String>) {
    let mut session = Session::new();
    for line in setup {
        run(&mut session, line);
    }
    let report = session.plan_for("certain Q").expect("certain Q plans");
    let engine = report.certain.expect("a certain job reports its engine");
    (session, engine)
}

/// Corollary 3: a `certain` job whose query valuations preserve is
/// answered by its naïve answers, byte-identical to the class walk, and
/// a job outside its hypotheses is not. Every case's answers carry
/// nulls.
#[test]
fn corollary_3_answers_certain_like_the_class_walk() {
    let facts = "fact R(a, _x). R(_x, _y). R(b, _y). S(_x). S(a). S(_y).";
    let covered = [
        "query Q(u, v) := R(u, v)",
        "query Q(u) := exists v. R(u, v) | R(v, u)",
        "query Q(u) := S(u) & forall v. S(v) -> exists w. R(v, w) | R(w, v)",
        "query Q := forall u, v. R(u, v) -> S(u) | S(v)",
        "query Q(u) := exists v. R(u, v) & u = a",
        "datalog Q(x, y) :- R(x, y); Q(x, z) :- Q(x, y), R(y, z)",
        "datalog Q(x) :- S(x); Q(x) :- R(x, y), Q(y)",
    ];
    let uncovered = [
        ("query Q(u) := S(u) & !R(u, u)", "Pos∀G"),
        ("query Q(u) := S(u) & forall v. R(u, v) -> S(v)", "Pos∀G"),
        ("query Q(u) := exists v. R(u, v) & u != v", "Pos∀G"),
        ("datalog Q(x) :- R(x, y), !S(y)", "negat"),
    ];
    let mut seen = BTreeSet::new();
    for def in covered {
        let (session, engine) = certain_engine(&[facts, def]);
        assert_eq!(engine, Ok(()), "{def}");
        assert_identical(&session, "certain Q", &mut seen);
        let naive = session.eval_planned(&eval_request("naive Q"), &mut |_| {});
        assert_eq!(session.eval(&eval_request("certain Q")), naive, "{def}: certain = naive");
    }
    for (def, why) in uncovered {
        let (session, engine) = certain_engine(&[facts, def]);
        let reason = engine.expect_err(def);
        assert!(reason.contains(why), "{def}: {reason}");
        assert_identical(&session, "certain Q", &mut seen);
    }
    // Planning picks no theorem route for `certain`: the engine runs on
    // the enumeration route.
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), ["enumeration-fallback"]);
}

/// Errors must also be byte-identical: an unroutable request falls back
/// to the enumeration path, which owns the canonical error text.
#[test]
fn error_replies_are_byte_identical_too() {
    let mut session = Session::new();
    run(&mut session, "fact R(a, _x).");
    run(&mut session, "query Q(u) := exists v. R(u, v)");
    let mut seen = BTreeSet::new();
    for cmd in [
        "mu Nope",            // unknown name
        "mu Q",               // missing tuple for a non-Boolean query
        "mu Q (a, b)",        // arity mismatch
        "mu Q (_zz)",         // unknown null
        "series Q (a) 99",    // k out of range
        "compare Q (a)",      // missing second tuple
    ] {
        assert_identical(&session, cmd, &mut seen);
    }
    assert_eq!(
        seen.iter().copied().collect::<Vec<_>>(),
        vec!["enumeration-fallback"],
        "unroutable requests must all fall back"
    );
}
