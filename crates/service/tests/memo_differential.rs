//! The canonical-form memo never serves a stale form.
//!
//! A session memoizes the canonical form of `D ∪ {__caz_answer(ā)}` for
//! the answer tuple ā of its latest keyed request, and a `fact` or
//! `clear` starts a fresh memo. Seeded random scripts interleave `fact`,
//! `constraint`, `query`, `datalog` and `clear` with cacheable requests:
//! `mu`, `cond` and `series`, Boolean and with tuples mixing constants
//! and nulls, several per database state. After every line, each
//! request's `cache_key` on the long-lived session must equal its key on
//! a fresh session that replays `replay_lines()`, the state rendered,
//! and so canonicalizes from scratch. The memo-only key a server answers hits inline from
//! (`memoized_cache_key`) must be absent or equal that key too: present
//! when the previous line's last request was keyed and the line was
//! neither `fact` nor `clear`, absent right after either. A few lines
//! are client text no key may hold: a
//! definition naming a reserved fresh constant must be refused, and a
//! tuple naming one, or a null's canonical name `?0`, must get no key.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed, script and line). Reproduce with
//! `CAZ_TEST_SEED=<seed> cargo test -p caz-service --test memo_differential`.

use caz_service::{EvalRequest, Request, Session};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};

const SCRIPTS: usize = 40;
const LINES: usize = 30;

/// Constants and null names the scripts draw from. Facts use the first
/// three nulls only, so a tuple naming `_w` does not resolve.
const CONSTS: [&str; 4] = ["a", "b", "c", "7"];
const NULLS: [&str; 4] = ["_x", "_y", "_z", "_w"];

/// Definitions of the names the requests use: Boolean `Q`, unary `T`
/// and `L` (a program), binary `P`. Each name has alternatives, so a
/// redefinition changes keys without changing `D`.
const DEFINITIONS: [&[&str]; 4] = [
    &[
        "query Q := exists u, v. R(u, v)",
        "query Q := exists u. R(u, u) & S(u)",
    ],
    &[
        "query T(u) := exists v. R(u, v)",
        "query T(u) := S(u) | R(u, u)",
    ],
    &[
        "query P(u, v) := R(u, v)",
        "query P(u, v) := R(u, v) & !R(v, u)",
    ],
    &[
        "datalog L(x) :- R(x, y)",
        "datalog L(x) :- S(x); L(x) :- R(y, x), L(y)",
    ],
];

/// Tuple components outside `fact`'s grammar.
const REFUSED_VALUES: [&str; 3] = ["?0", "~a", "'a'"];

/// Definitions naming a reserved fresh constant.
const REFUSED_DEFINITIONS: [&str; 2] = [
    "query W := exists u. R('~a', u)",
    "datalog W(x) :- R(x, '~nv0')",
];

const CONSTRAINTS: [&str; 4] = [
    "constraint fd R: 1 -> 2",
    "constraint key S[1]",
    "constraint ind S[1] <= R[1]",
    "constraint fd R: 2 -> 1",
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

/// A constant or one of `nulls`, half and half.
fn value(rng: &mut StdRng, nulls: &[&'static str]) -> &'static str {
    if rng.random_bool(0.5) {
        pick(rng, &CONSTS)
    } else {
        pick(rng, nulls)
    }
}

/// A value a fact may hold.
fn fact_value(rng: &mut StdRng) -> &'static str {
    value(rng, &NULLS[..3])
}

/// A tuple component: now and then one no key may hold.
fn tuple_value(rng: &mut StdRng) -> &'static str {
    match rng.random_bool(0.05) {
        true => pick(rng, &REFUSED_VALUES),
        false => value(rng, &NULLS),
    }
}

/// One state-changing line (or, rarely, a refused definition). Facts
/// dominate: they are what must reset the memo.
fn mutation(rng: &mut StdRng) -> String {
    if rng.random_bool(0.03) {
        return pick(rng, &REFUSED_DEFINITIONS).to_string();
    }
    match rng.random_range(0..10) {
        0..=4 => {
            let facts: Vec<String> = (0..rng.random_range(1..=3usize))
                .map(|_| match rng.random_bool(0.7) {
                    true => format!("R({}, {})", fact_value(rng), fact_value(rng)),
                    false => format!("S({})", fact_value(rng)),
                })
                .collect();
            format!("fact {}.", facts.join(". "))
        }
        5 => pick(rng, &CONSTRAINTS).to_string(),
        6 | 7 => {
            let alternatives = DEFINITIONS[rng.random_range(0..DEFINITIONS.len())];
            pick(rng, alternatives).to_string()
        }
        8 => "clear".to_string(),
        _ => format!("fact R({}, {}).", fact_value(rng), fact_value(rng)),
    }
}

/// A cacheable request: Boolean, or with a tuple of constants and nulls.
fn request(rng: &mut StdRng) -> String {
    let word = pick(rng, &["mu", "cond", "series"]);
    let (name, tuple) = match rng.random_range(0..4) {
        0 => ("Q", String::new()),
        1 => ("T", format!(" ({})", tuple_value(rng))),
        2 => ("L", format!(" ({})", tuple_value(rng))),
        _ => (
            "P",
            format!(" ({}, {})", tuple_value(rng), tuple_value(rng)),
        ),
    };
    match word {
        "series" => format!("series {name}{tuple} {}", rng.random_range(1..=3)),
        _ => format!("{word} {name}{tuple}"),
    }
}

fn eval_request(line: &str) -> EvalRequest {
    match Request::parse(line) {
        Ok(Some(Request::Eval(ev))) => ev,
        other => panic!("{line:?} is not an evaluation: {other:?}"),
    }
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

#[test]
fn memoized_keys_equal_keys_from_scratch() {
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut keyed, mut inline) = (0usize, 0usize);
    for script in 0..SCRIPTS {
        let mut session = Session::new();
        let mut lines: Vec<String> = DEFINITIONS.iter().map(|alts| alts[0].to_string()).collect();
        lines.extend((0..LINES).map(|_| mutation(&mut rng)));
        // The previous burst's last request, and whether it was keyed.
        let mut previous: Option<(String, bool)> = None;
        for (n, line) in lines.iter().enumerate() {
            let applied = session.execute(line);
            let refused = REFUSED_DEFINITIONS.contains(&line.as_str());
            assert_eq!(applied.is_err(), refused, "CAZ_TEST_SEED={seed}: {line:?}");
            if line == "clear" {
                for alternatives in DEFINITIONS {
                    session.execute(alternatives[0]).unwrap();
                }
            }
            let reset = line == "clear" || line.starts_with("fact ");
            let fresh = replay(&session.replay_lines());
            // The previous line's last request first, so a memo the line
            // should have reset is read before anything replaces it.
            let burst: Vec<String> = previous
                .iter()
                .map(|(req, _)| req.clone())
                .chain((0..rng.random_range(2..=6)).map(|_| request(&mut rng)))
                .collect();
            let mut last_keyed = false;
            for (i, req) in burst.iter().enumerate() {
                let ev = eval_request(req);
                // The memo-only key first: keying fills the memo.
                let memo_only = session.memoized_cache_key(&ev, usize::MAX);
                let (memoized, scratch) = (session.cache_key(&ev), fresh.cache_key(&ev));
                let at = format!(
                    "CAZ_TEST_SEED={seed} script {script} line {n} ({line:?}), request {req:?}; \
                     script so far:\n{}",
                    lines[..=n].join("\n")
                );
                assert_eq!(memoized, scratch, "{at}");
                if REFUSED_VALUES.iter().any(|v| req.contains(v)) {
                    assert_eq!(memoized, None, "{at}");
                }
                assert!(
                    memo_only.is_none() || memo_only == scratch,
                    "memo-only key: {at}"
                );
                let reopened = i == 0 && previous.as_ref().is_some_and(|(_, keyed)| *keyed);
                if i == 0 && reset {
                    assert_eq!(memo_only, None, "memo-only key after a reset: {at}");
                } else if reopened {
                    assert!(
                        memo_only.is_some(),
                        "memo-only key of a memoized request: {at}"
                    );
                }
                keyed += usize::from(memoized.is_some());
                inline += usize::from(memo_only.is_some());
                last_keyed = memoized.is_some();
            }
            previous = burst.last().map(|req| (req.clone(), last_keyed));
        }
    }
    // The scripts must mostly resolve, or the differential is vacuous.
    assert!(
        keyed > SCRIPTS * LINES,
        "CAZ_TEST_SEED={seed}: only {keyed} keyed requests"
    );
    assert!(
        inline > SCRIPTS * LINES / 2,
        "CAZ_TEST_SEED={seed}: only {inline} memo-only keys"
    );
}
