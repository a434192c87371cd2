//! Bounded interning: repeating the same work on one session interns no
//! new symbols. Naïve evaluation (FO and Datalog) values nulls in the
//! one fixed `~nv<i>` family, Theorem 4's check and Theorem 8's
//! certificate search reuse it, and UCQ normalization numbers binders
//! per query. Machine-made names are permanent, so a per-evaluation one
//! would grow the interner, and the server's memory, without limit.
//!
//! This file holds a single test: the interner is process-global, and
//! a concurrently running test would intern names of its own.

use caz_idb::Symbol;
use caz_service::{Reply, Session};

const ROUNDS: usize = 200;

fn run(s: &mut Session, line: &str) -> String {
    match s.execute(line) {
        Ok(Reply::Text(text)) => text,
        Ok(Reply::Quit) => panic!("{line:?} quit the session"),
        Err(e) => panic!("{line:?} failed: {e}"),
    }
}

#[test]
fn repeated_evaluations_intern_nothing_after_the_first_round() {
    let mut s = Session::new();
    for line in [
        "fact R(a, _x). R(b, _y). R(_z, c). R(d, _w). E(a, _m). E(_m, c).",
        "constraint fd R: 1 -> 2",
        "query Q := exists v. R(a, v) & R(b, v)",
        "query N(u, v) := R(u, v) & !R(v, u)",
        "query Du(u) := exists v. R(u, v) | R(v, u)",
        "datalog path(x, y) :- E(x, y); path(x, z) :- path(x, y), E(y, z)",
    ] {
        run(&mut s, line);
    }
    // The planned routes are the ones this test means to exercise.
    assert!(run(&mut s, "plan cond Q").contains("theorem4-unconditional"));
    assert!(run(&mut s, "plan compare Du (a) (c)").contains("theorem8-ucq"));

    let jobs = ["naive N", "naive path", "cond Q", "compare Du (a) (c)"];
    let mut after_first = 0;
    for round in 1..=ROUNDS {
        let replies: Vec<String> = jobs.iter().map(|job| run(&mut s, job)).collect();
        assert!(replies.iter().all(|r| !r.is_empty()), "round {round}: {replies:?}");
        let count = Symbol::interned_count();
        if round == 1 {
            after_first = count;
        }
        assert_eq!(
            count,
            after_first,
            "round {round}: the interner grew by {} symbols since round 1",
            count - after_first
        );
    }
}
