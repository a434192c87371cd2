//! A session's rendered state rebuilds it.
//!
//! A session keeps no log of the lines that built it: `replay_lines()`
//! renders its state (facts under the session's null names, each member
//! of Σ, each program, each definition as its rendered text), and a
//! replica proxying a miss to its leader replays exactly those lines.
//! Seeded random scripts interleave `fact` (named nulls), every
//! constraint kind, first-order definitions (negation, `∀`, `->`,
//! `!=`, quoted and numeric constants), positive and stratified
//! programs, redefinitions and `clear`. After every line, a fresh
//! session that runs the rendered lines must answer every request with
//! the same bytes as the session itself, with the planner on
//! (`eval_planned`) and off (`eval`), give every request the same cache
//! key, and render the same lines again.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed, script and line). Reproduce with
//! `CAZ_TEST_SEED=<seed> cargo test -p caz-service --test replay_differential`.

use caz_service::{EvalRequest, Reply, Request, Session};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};

const SCRIPTS: usize = 16;
const LINES: usize = 14;

const CONSTS: [&str; 4] = ["a", "b", "7", "-2"];
const NULLS: [&str; 3] = ["_x", "_y", "_z"];

/// Definitions of `Q` (Boolean), `T` (unary) and `P` (binary), some of
/// them programs, in the client syntax.
const DEFINITIONS: [&[&str]; 3] = [
    &[
        "query Q := exists u, v. R(u, v)",
        "query Q := forall u. S(u) -> exists v. R(u, v)",
        "query Q := exists u. S(u) & !R(u, u)",
        "query Q := exists u. R(u, 'a') | R(u, 7)",
        "datalog Q() :- R(x, y), S(y)",
    ],
    &[
        "query T(u) := exists v. R(u, v)",
        "query T(u) := S(u) & forall v. R(u, v) -> S(v)",
        "query T(u) := S(u) & u != 'b'",
        "datalog T(x) :- S(x); T(x) :- R(x, y), T(y)",
        "datalog T(x) :- R(x, y), !S(x)",
    ],
    &[
        "query P(u, v) := R(u, v)",
        "query P(u, v) := R(u, v) & !R(v, u)",
        "query P(u, v) := R(u, v) | (S(u) & u = v)",
        "datalog P(x, y) :- R(x, y); P(x, z) :- P(x, y), R(y, z)",
    ],
];

/// One of each constraint kind; `fd` with one and two left-hand columns.
const CONSTRAINTS: [&str; 5] = [
    "constraint fd R: 1 -> 2",
    "constraint fd R: 1 2 -> 1",
    "constraint key S[1]",
    "constraint ind S[1] <= R[1]",
    "constraint fk R[2] -> S[1]",
];

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.random_range(0..from.len())]
}

fn value(rng: &mut StdRng) -> &'static str {
    if rng.random_bool(0.5) {
        pick(rng, &CONSTS)
    } else {
        pick(rng, &NULLS)
    }
}

/// One state-changing line. Facts name their nulls in every order, so
/// that a relation listed first may hold the younger null.
fn mutation(rng: &mut StdRng) -> String {
    match rng.random_range(0..10) {
        0..=3 => {
            let facts: Vec<String> = (0..rng.random_range(1..=3usize))
                .map(|_| match rng.random_bool(0.6) {
                    true => format!("R({}, {})", value(rng), value(rng)),
                    false => format!("S({})", value(rng)),
                })
                .collect();
            format!("fact {}.", facts.join(". "))
        }
        4 | 5 => pick(rng, &CONSTRAINTS).to_string(),
        6..=8 => {
            let alternatives = DEFINITIONS[rng.random_range(0..DEFINITIONS.len())];
            pick(rng, alternatives).to_string()
        }
        _ => "clear".to_string(),
    }
}

/// Every request the scripts compare: each kind, Boolean and with
/// tuples of constants and nulls, plus `db` and `sigma`.
fn requests(rng: &mut StdRng) -> Vec<String> {
    let mut lines = vec!["db".to_string(), "sigma".to_string()];
    for word in ["naive", "certain"] {
        for name in ["Q", "T", "P"] {
            lines.push(format!("{word} {name}"));
        }
    }
    lines.push("best T".into());
    lines.push("best P".into());
    let t = format!("({})", value(rng));
    let p = format!("({}, {})", value(rng), value(rng));
    for word in ["mu", "cond"] {
        lines.push(format!("{word} Q"));
        lines.push(format!("{word} T {t}"));
        lines.push(format!("{word} P {p}"));
    }
    lines.push(format!("series T {t} 2"));
    lines.push(format!("compare P {p} ({}, {})", value(rng), value(rng)));
    lines
}

fn replay(lines: &[String]) -> Session {
    let mut fresh = Session::new();
    for line in lines {
        fresh
            .execute(line)
            .unwrap_or_else(|e| panic!("replaying {line:?}: {e}"));
    }
    fresh
}

/// The reply to `line`: text, or the error, as the shell prints it.
fn reply(session: &mut Session, line: &str) -> Result<String, String> {
    session.execute(line).map(|r| match r {
        Reply::Text(text) => text,
        Reply::Quit => "quit".into(),
    })
}

fn eval_request(line: &str) -> Option<EvalRequest> {
    match Request::parse(line) {
        Ok(Some(Request::Eval(ev))) => Some(ev),
        _ => None,
    }
}

#[test]
fn a_replayed_session_answers_like_the_session() {
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut compared, mut keyed) = (0usize, 0usize);
    for script in 0..SCRIPTS {
        let mut session = Session::new();
        let mut lines: Vec<String> = DEFINITIONS
            .iter()
            .map(|alternatives| alternatives[0].to_string())
            .collect();
        lines.extend((0..LINES).map(|_| mutation(&mut rng)));
        for (n, line) in lines.iter().enumerate() {
            // A constraint naming a relation `D` lacks still applies;
            // only `cond` checks it against `D`.
            reply(&mut session, line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            let rendered = session.replay_lines();
            let mut fresh = replay(&rendered);
            let at = format!(
                "CAZ_TEST_SEED={seed} script {script} line {n} ({line:?}); script so far:\n{}\n\
                 rendered:\n{}",
                lines[..=n].join("\n"),
                rendered.join("\n")
            );
            assert_eq!(fresh.replay_lines(), rendered, "rendering again: {at}");
            for req in requests(&mut rng) {
                let Some(ev) = eval_request(&req) else {
                    assert_eq!(
                        reply(&mut fresh, &req),
                        reply(&mut session, &req),
                        "{req}: {at}"
                    );
                    continue;
                };
                let planned = session.eval_planned(&ev, &mut |_| {});
                assert_eq!(
                    fresh.eval_planned(&ev, &mut |_| {}),
                    planned,
                    "{req}, planned: {at}"
                );
                assert_eq!(
                    fresh.eval(&ev),
                    session.eval(&ev),
                    "{req}, enumerated: {at}"
                );
                let key = session.cache_key(&ev);
                assert_eq!(fresh.cache_key(&ev), key, "{req}, cache key: {at}");
                compared += 1;
                keyed += usize::from(key.is_some());
            }
        }
    }
    // Most requests must resolve, or the comparison is vacuous.
    assert!(
        compared > SCRIPTS * LINES * 10,
        "CAZ_TEST_SEED={seed}: {compared} compared"
    );
    assert!(
        keyed > SCRIPTS * LINES * 2,
        "CAZ_TEST_SEED={seed}: only {keyed} keyed requests"
    );
}
