//! Property tests for the query substrate: genericity, the UCQ normal
//! form, naïve evaluation, three-valued evaluation, the join fast path,
//! and the parser reading back what a query renders to.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed and case): each property draws its own stream of random
//! databases over `R/2` and `S/1` and random queries. Theorem 8's
//! certificate search in caz-compare rests on two of them: it unifies
//! against the disjuncts of [`Ucq::from_query`], and it decides each
//! candidate with the join evaluator.
//! Reproduce with `CAZ_TEST_SEED=<seed> cargo test -p caz-logic --test properties`.

use caz_idb::{
    random_complete_database, random_database, Cst, DbGenConfig, NullId, Schema, Symbol, Tuple,
    Value,
};
use caz_logic::three_valued::{eval3_bool, NullMode, Truth};
use caz_logic::{
    con, eval_bool, eval_query, naive_eval, naive_eval_bool, parse_query, random_query,
    random_ucq, var, Atom, Evaluator, Formula, Query, QueryGenConfig, Term, Ucq,
};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const CASES: usize = 32;

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(3707)
}

/// The stream for one property: the suite seed mixed with a salt, so
/// properties draw independent cases.
fn stream(salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn db_cfg(nulls: usize) -> DbGenConfig {
    DbGenConfig {
        relations: vec![("R".into(), 2), ("S".into(), 1)],
        tuples_per_relation: 4,
        num_constants: 3,
        num_nulls: nulls,
        null_prob: 0.4,
    }
}

fn q_cfg(arity: usize) -> QueryGenConfig {
    QueryGenConfig {
        schema: Schema::from_pairs([("R", 2), ("S", 1)]),
        arity,
        max_depth: 2,
        allow_negation: true,
        allow_forall: true,
        constants: vec![Cst::new("d0")],
    }
}

/// Definition 1 (genericity): evaluation commutes with permutations of
/// `Const` fixing the query constants.
#[test]
fn evaluation_is_generic() {
    let (seed, mut rng) = (seed(), stream(1));
    // Swap d1 ↔ d2; the query may only mention d0.
    let (d1, d2) = (Cst::new("d1"), Cst::new("d2"));
    let pi = |v: Value| match v {
        Value::Const(c) if c == d1 => Value::Const(d2),
        Value::Const(c) if c == d2 => Value::Const(d1),
        other => other,
    };
    for case in 0..CASES {
        let db = random_complete_database(&mut rng, &db_cfg(0));
        let q = random_query(&mut rng, &q_cfg(1));
        let lhs = eval_query(&q, &db.map(pi));
        let rhs: BTreeSet<_> = eval_query(&q, &db).into_iter().map(|t| t.map(pi)).collect();
        assert_eq!(lhs, rhs, "CAZ_TEST_SEED={seed} case {case}: {q} over {db}");
    }
}

/// UCQ normalization preserves semantics on complete databases, for
/// Boolean, unary and binary queries.
#[test]
fn ucq_normal_form_preserves_semantics() {
    let (seed, mut rng) = (seed(), stream(2));
    for case in 0..CASES {
        let db = random_complete_database(&mut rng, &db_cfg(0));
        let arity = rng.random_range(0..=2usize);
        let q = random_ucq(&mut rng, &q_cfg(arity));
        let round = Ucq::from_query(&q).expect("generator yields UCQs").to_query();
        assert_eq!(
            eval_query(&q, &db),
            eval_query(&round, &db),
            "CAZ_TEST_SEED={seed} case {case}: {q} vs its normal form {round} over {db}"
        );
    }
}

/// Naïve evaluation is deterministic across calls and commutes with
/// renaming the nulls.
#[test]
fn naive_eval_stable_under_null_renaming() {
    let (seed, mut rng) = (seed(), stream(3));
    for case in 0..CASES {
        let db = random_database(&mut rng, &db_cfg(3));
        let q = random_query(&mut rng, &q_cfg(0));
        let fresh: BTreeMap<_, _> = db.nulls().into_iter().map(|n| (n, NullId::fresh())).collect();
        let renamed = db.map(|v| match v {
            Value::Null(n) => Value::Null(fresh[&n]),
            c => c,
        });
        assert_eq!(
            naive_eval_bool(&q, &db),
            naive_eval_bool(&q, &renamed),
            "CAZ_TEST_SEED={seed} case {case}: {q} over {db}"
        );
    }
}

/// On complete databases, naïve evaluation is evaluation, and
/// three-valued evaluation is two-valued and classical.
#[test]
fn complete_db_collapses_all_semantics() {
    let (seed, mut rng) = (seed(), stream(4));
    for case in 0..CASES {
        let db = random_complete_database(&mut rng, &db_cfg(0));
        let q = random_query(&mut rng, &q_cfg(0));
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {q} over {db}");
        let classical = eval_bool(&q, &db);
        assert_eq!(naive_eval_bool(&q, &db), classical, "{at}");
        for mode in [NullMode::Sql, NullMode::Marked] {
            let tv = eval3_bool(&q, &db, mode);
            assert_ne!(tv, Truth::Unknown, "{at}: {mode:?} gave unknown");
            assert_eq!(tv == Truth::True, classical, "{at}: {mode:?}");
        }
        let unary = random_query(&mut rng, &q_cfg(1));
        assert_eq!(
            naive_eval(&unary, &db),
            eval_query(&unary, &db),
            "CAZ_TEST_SEED={seed} case {case}: {unary} over {db}"
        );
    }
}

/// Marked mode knows strictly more equalities than SQL mode, so on
/// negation-free queries it can only raise the three-valued truth.
#[test]
fn marked_mode_refines_sql_mode() {
    let (seed, mut rng) = (seed(), stream(5));
    let cfg = QueryGenConfig { allow_negation: false, allow_forall: false, ..q_cfg(0) };
    for case in 0..CASES {
        let db = random_database(&mut rng, &db_cfg(2));
        let q = random_query(&mut rng, &cfg);
        let sql = eval3_bool(&q, &db, NullMode::Sql);
        let marked = eval3_bool(&q, &db, NullMode::Marked);
        assert!(
            marked >= sql,
            "CAZ_TEST_SEED={seed} case {case}: {q} over {db}: marked {marked:?} < sql {sql:?}"
        );
    }
}

/// The constant `p` of Theorem 8's certificate bound `p + k` bounds
/// every disjunct's atoms.
#[test]
fn ucq_atom_bound() {
    let (seed, mut rng) = (seed(), stream(6));
    for case in 0..CASES {
        let q = random_ucq(&mut rng, &q_cfg(1));
        let ucq = Ucq::from_query(&q).expect("generator yields UCQs");
        let p = ucq.max_atoms();
        assert!(
            ucq.disjuncts.iter().all(|d| d.atoms.len() <= p),
            "CAZ_TEST_SEED={seed} case {case}: {q}"
        );
    }
}

/// The join fast path and plain domain iteration agree on arbitrary
/// queries and databases (the fast path only engages on conjunctive
/// existential subformulas, so mixed formulas exercise both).
#[test]
fn join_fast_path_is_semantics_preserving() {
    let (seed, mut rng) = (seed(), stream(7));
    for case in 0..48 {
        let db = random_complete_database(&mut rng, &db_cfg(0));
        let q = random_query(&mut rng, &q_cfg(1));
        let fast = Evaluator::new(&db, &q);
        let slow = Evaluator::new(&db, &q).without_joins();
        assert_eq!(
            fast.answers(),
            slow.answers(),
            "CAZ_TEST_SEED={seed} case {case}: {q} over {db}"
        );
    }
}

/// An existential conjunction in the join path's shape:
/// `Q(h0) := ∃ y, z. A₁ ∧ A₂ ∧ z = t` (Boolean without the head), whose
/// atoms draw terms from the head, `y` and the constants `d0` (often in
/// `Const(D)`) and `e0` (never), and whose `z` occurs only in the
/// equality, so the join must range it over `Const(D) ∪ C`.
fn join_query(rng: &mut StdRng, arity: usize) -> Query {
    let head: Vec<Symbol> = (0..arity).map(|i| Symbol::intern(&format!("h{i}"))).collect();
    let mut terms: Vec<Term> = vec![var("y"), con("d0"), con("e0")];
    terms.extend(head.iter().map(|&h| Term::Var(h)));
    let pick = |rng: &mut StdRng| terms[rng.random_range(0..terms.len())];
    let mut conjuncts: Vec<Formula> = (0..2)
        .map(|_| {
            if rng.random_bool(0.5) {
                Formula::Atom(Atom::new("R", vec![pick(rng), pick(rng)]))
            } else {
                Formula::Atom(Atom::new("S", vec![pick(rng)]))
            }
        })
        .collect();
    conjuncts.push(Formula::Eq(var("z"), pick(rng)));
    let body = Formula::exists(["y", "z"], Formula::and(conjuncts));
    Query::new("J", head, body).expect("every free variable is a head variable")
}

/// The evaluator builds its domains only when a path reads them, so
/// the paths that read none must agree with the ones that read both:
/// `tuple_in_answer` (one question, which checks `ā ⊆ adom(D)` by
/// scanning `D`) and one evaluator asked about every candidate in turn
/// (which builds `adom(D)` at its second question) with membership in
/// the full answer set, for tuples over `adom(D)`, the query's
/// constants and a fresh constant; and `eval_bool` (join bindings,
/// leftover variables ranged over `Const(D) ∪ C`) with plain domain
/// iteration. Half the draws are join-shaped queries with an
/// equality-only variable and a constant outside `Const(D)`.
#[test]
fn lazily_built_domains_answer_like_full_evaluation() {
    let (seed, mut rng) = (seed(), stream(8));
    let cfg = QueryGenConfig { constants: vec![Cst::new("d0"), Cst::new("e0")], ..q_cfg(1) };
    let bool_cfg = QueryGenConfig { arity: 0, ..cfg.clone() };
    let fresh = Value::Const(Cst::new("f0"));
    for case in 0..64 {
        let db = random_complete_database(&mut rng, &db_cfg(0));
        let (q, b) = if case % 2 == 0 {
            (random_query(&mut rng, &cfg), random_query(&mut rng, &bool_cfg))
        } else {
            (join_query(&mut rng, 1), join_query(&mut rng, 0))
        };
        let at = format!("CAZ_TEST_SEED={seed} case {case}");
        let answers = eval_query(&q, &db);
        let mut candidates: BTreeSet<Value> = db.consts().into_iter().map(Value::Const).collect();
        candidates.extend(q.generic_consts().into_iter().map(Value::Const));
        candidates.insert(fresh);
        let shared = Evaluator::new(&db, &q);
        for &v in &candidates {
            let t = Tuple::new(vec![v]);
            assert_eq!(
                caz_logic::tuple_in_answer(&q, &db, &t),
                answers.contains(&t),
                "{at}: {t} in {q} over {db}"
            );
            let shared_says = shared.satisfies(&t);
            assert_eq!(shared_says, answers.contains(&t), "{at}: {t} in {q} over {db}, shared");
        }
        assert_eq!(
            eval_bool(&b, &db),
            Evaluator::new(&db, &b).without_joins().eval_bool(),
            "{at}: {b} over {db}"
        );
    }
}

/// Client-syntax text for a random formula over `R/2` and `S/1`: atoms,
/// `=` and `!=`, `!`, `&`, `|`, `->`, `exists` and `forall` blocks and
/// parentheses. Terms are the variables in `scope`, which may be
/// shadowed, and identifier, quoted and numeric constants.
fn client_formula(rng: &mut StdRng, scope: &mut Vec<String>, depth: usize) -> String {
    const CONSTANTS: [&str; 6] = ["d0", "'d1'", "'two words'", "7", "-3", "'0'"];
    let term = |rng: &mut StdRng, scope: &[String]| match rng.random_range(0..3u8) {
        0 | 1 if !scope.is_empty() => scope[rng.random_range(0..scope.len())].clone(),
        _ => CONSTANTS[rng.random_range(0..CONSTANTS.len())].to_string(),
    };
    let leaf = depth == 0 || rng.random_bool(0.25);
    match if leaf { rng.random_range(0..4u8) } else { rng.random_range(4..11u8) } {
        0 | 1 => format!("R({}, {})", term(rng, scope), term(rng, scope)),
        2 => format!("S({})", term(rng, scope)),
        3 => {
            let op = if rng.random_bool(0.5) { "=" } else { "!=" };
            format!("{} {op} {}", term(rng, scope), term(rng, scope))
        }
        4 => format!("!{}", client_formula(rng, scope, depth - 1)),
        5 => format!("({})", client_formula(rng, scope, depth - 1)),
        6 | 7 => {
            let op = ["&", "|", "->"][rng.random_range(0..3usize)];
            let lhs = client_formula(rng, scope, depth - 1);
            format!("{lhs} {op} {}", client_formula(rng, scope, depth - 1))
        }
        _ => {
            let word = if rng.random_bool(0.5) { "exists" } else { "forall" };
            let vars: Vec<String> =
                (0..rng.random_range(1..3u8)).map(|_| format!("v{}", rng.random_range(0..3u8))).collect();
            let mark = scope.len();
            scope.extend(vars.iter().cloned());
            let body = client_formula(rng, scope, depth - 1);
            scope.truncate(mark);
            format!("{word} {}. {body}", vars.join(", "))
        }
    }
}

/// Every query `parse_query` returns on client text parses back from
/// its rendering, to an equal query with the same rendering: a session
/// keeps only that text, and each cache key embeds it.
#[test]
fn rendered_queries_parse_back_to_themselves() {
    let (seed, mut rng) = (seed(), stream(9));
    let mut parsed = 0;
    for case in 0..400 {
        let head: Vec<String> = (0..rng.random_range(0..3)).map(|i| format!("h{i}")).collect();
        let mut scope = head.clone();
        let body = client_formula(&mut rng, &mut scope, 3);
        let src = match head.is_empty() && rng.random_bool(0.5) {
            true => format!("B := {body}"),
            false => format!("Q({}) := {body}", head.join(", ")),
        };
        // Text with a free non-head variable, or an unknown arity mix,
        // is refused; what parses must round-trip.
        let Ok(q) = parse_query(&src) else { continue };
        parsed += 1;
        let text = q.to_string();
        let again = parse_query(&text)
            .unwrap_or_else(|e| panic!("CAZ_TEST_SEED={seed} case {case}: {src:?} renders {text:?}: {e}"));
        assert_eq!(again, q, "CAZ_TEST_SEED={seed} case {case}: {src:?} renders {text:?}");
        assert_eq!(again.to_string(), text, "CAZ_TEST_SEED={seed} case {case}: {src:?}");
    }
    assert!(parsed >= 200, "CAZ_TEST_SEED={seed}: only {parsed} of 400 texts parsed");
}
