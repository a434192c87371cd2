//! Seeded mutation fuzzing of the command language a server runs on its
//! reactor thread, where a panic ends the process rather than one job.
//!
//! A corpus of valid `fact`/`query`/`datalog`/`constraint` lines and
//! evaluation lines is mutated by deleting characters or short spans,
//! truncating, and inserting punctuation the grammars give meaning to,
//! TABs, digits, a 25-digit integer and non-ASCII text. Each mutated
//! state line is applied with `Session::execute` to a session that
//! already holds facts, definitions and constraints. Each mutated
//! evaluation line goes through `Request::parse`, the memo-only key a
//! server answers hits inline from (`Session::memoized_cache_key`),
//! `Session::cache_key`, and the memo-only key again, now that keying
//! has filled the memo; nothing is evaluated. No step may panic.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; a failure names the seed and
//! the line). Reproduce with
//! `CAZ_TEST_SEED=<seed> cargo test -p caz-service --release --test command_fuzz`.

use caz_service::{Request, Session};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated lines per run, of each kind.
const LINES: usize = 100_000;

/// State lines applied to one session before it starts over from the
/// base state, so `D` stays small and keying stays cheap.
const RESET_EVERY: usize = 40;

/// The base state every session starts from: `R/2`, `S/1` and `T/3`,
/// each with nulls, and names of every shape the evaluation lines use.
const BASE: [&str; 7] = [
    "fact R(a, _x). R(_x, b). S(_y). T(a, _x, 7).",
    "query Q := exists u, v. R(u, v)",
    "query U(u) := exists v. R(u, v) & !S(v)",
    "query P(u, v) := R(u, v) | (S(u) & u = v)",
    "datalog L(x) :- R(x, y); L(x) :- L(y), R(y, x)",
    "constraint fd R: 1 -> 2",
    "constraint key S[1]",
];

const STATE: [&str; 12] = [
    "fact R(a, _x). R(_x, b). S(_y).",
    "fact R(1, 2). T(a, b, _z).",
    "fact S(c). R(c, _w).",
    "query Q := exists u, v. R(u, v)",
    "query U(u) := exists v. R(u, v) & !S(v)",
    "query P(u, v) := R(u, v) | (S(u) & u = v)",
    "query W := forall x. S(x) -> exists y. R(x, y) & x != 'b'",
    "datalog L(x) :- R(x, y); L(x) :- L(y), R(y, x)",
    "constraint fd R: 1 -> 2",
    "constraint key S[1]",
    "constraint ind S[1] <= R[2]",
    "constraint fk T[2] -> S[1]",
];

const EVAL: [&str; 14] = [
    "mu Q",
    "cond Q",
    "mucond Q",
    "series Q 3",
    "mu U (a)",
    "mu U (_x)",
    "cond P (a, _x)",
    "series U (_y) 2",
    "mu L (b)",
    "naive P",
    "certain U",
    "best U",
    "compare U (a) (_x)",
    "cond U (7)",
];

/// What an insertion puts into a line.
const INSERTS: [&str; 27] = [
    "(",
    ")",
    ",",
    ".",
    ";",
    ":",
    "=",
    "[",
    "]",
    "->",
    "<=",
    "_",
    "?",
    "~",
    "'",
    "\"",
    "\t",
    "0",
    "1",
    "9",
    "42",
    "1234567890123456789012345",
    "é",
    "⊥",
    "μ",
    "∃x",
    "日本",
];

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

/// One to three mutations of a corpus line, on character boundaries.
fn mutate(rng: &mut StdRng, corpus: &[&str]) -> String {
    let mut chars: Vec<char> = corpus[rng.random_range(0..corpus.len())].chars().collect();
    for _ in 0..rng.random_range(1..=3usize) {
        let at = rng.random_range(0..=chars.len());
        match rng.random_range(0..8) {
            // Deleting a short span turns `R(a, _x)` into `R(a)`.
            0..=2 if at < chars.len() => {
                let end = (at + rng.random_range(1..=4usize)).min(chars.len());
                chars.drain(at..end);
            }
            3 => chars.truncate(at),
            _ => {
                let insert = INSERTS[rng.random_range(0..INSERTS.len())];
                chars.splice(at..at, insert.chars());
            }
        }
    }
    chars.into_iter().collect()
}

fn base() -> Session {
    let mut session = Session::new();
    for line in BASE {
        session
            .execute(line)
            .unwrap_or_else(|e| panic!("base line {line:?}: {e}"));
    }
    session
}

/// Run `step` on `line`; a panic fails the suite with the seed and line.
fn survive<T>(seed: u64, what: &str, line: &str, step: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(step))
        .unwrap_or_else(|_| panic!("CAZ_TEST_SEED={seed}: {what} panicked on {line:?}"))
}

#[test]
fn mutated_state_lines_never_panic() {
    let (seed, base) = (seed(), base());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = base.clone();
    let mut applied = 0usize;
    for n in 0..LINES {
        if n % RESET_EVERY == 0 {
            session = base.clone();
        }
        let line = mutate(&mut rng, &STATE);
        let reply = survive(seed, "Session::execute", &line, || session.execute(&line));
        applied += usize::from(reply.is_ok());
    }
    // Mutations must leave some lines valid, or nothing past the
    // parsers is exercised.
    assert!(
        applied > LINES / 20,
        "CAZ_TEST_SEED={seed}: only {applied} lines applied"
    );
}

#[test]
fn mutated_evaluation_lines_key_without_panicking() {
    let (seed, base) = (seed(), base());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut inline = 0usize;
    for _ in 0..LINES {
        let line = mutate(&mut rng, &EVAL);
        let request = survive(seed, "Request::parse", &line, || Request::parse(&line));
        let Ok(Some(Request::Eval(ev))) = request else {
            continue;
        };
        let (before, key, after) = survive(seed, "keying", &line, || {
            let before = base.memoized_cache_key(&ev, usize::MAX);
            let key = base.cache_key(&ev);
            (before, key, base.memoized_cache_key(&ev, usize::MAX))
        });
        let at = format!("CAZ_TEST_SEED={seed}: {line:?}");
        assert!(
            before.is_none() || before == key,
            "stale memo-only key: {at}"
        );
        assert_eq!(after, key, "memo-only key after keying: {at}");
        inline += usize::from(after.is_some());
    }
    assert!(
        inline > LINES / 200,
        "CAZ_TEST_SEED={seed}: only {inline} memo-only keys"
    );
}
