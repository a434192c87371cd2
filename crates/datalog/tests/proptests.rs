//! Property tests for the Datalog engine: transitive closure against a
//! BFS reference, naïve evaluation laws, the 0–1 law, and agreement with
//! random unions of conjunctive queries written as nonrecursive
//! programs.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed and case): each property draws its own stream of graphs,
//! databases over `edge/2` or `R/2, S/1`, and random UCQs.
//! Reproduce with `CAZ_TEST_SEED=<seed> cargo test -p caz-datalog --test proptests`.

use caz_core::{mu_exact, TupleAnswerEvent};
use caz_datalog::{naive_eval_datalog, output_facts, parse_program, DatalogEvent, Program, Rule};
use caz_idb::{
    random_complete_database, random_database, Cst, Database, DbGenConfig, NullId, Schema, Symbol,
    Tuple, Value,
};
use caz_logic::{naive_eval, random_ucq, Atom, Query, QueryGenConfig, Term, Ucq};
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

fn tc_program() -> Program {
    parse_program(
        "path(x, y) :- edge(x, y).
         path(x, z) :- path(x, y), edge(y, z).
         output path",
    )
    .unwrap()
}

fn edge_db(rng: &mut StdRng, tuples: usize, constants: usize, nulls: usize) -> Database {
    let cfg = DbGenConfig {
        relations: vec![("edge".into(), 2)],
        tuples_per_relation: tuples,
        num_constants: constants,
        num_nulls: nulls,
        null_prob: 0.5,
    };
    random_database(rng, &cfg)
}

/// Build an edge database over `n` named vertices from an edge list.
fn graph_db(n: usize, edges: &[(usize, usize)]) -> Database {
    let mut db = Database::new();
    db.relation_mut("edge", 2);
    for &(u, v) in edges {
        db.insert(
            "edge",
            Tuple::new(vec![
                Value::Const(Cst::new(&format!("v{}", u % n))),
                Value::Const(Cst::new(&format!("v{}", v % n))),
            ]),
        );
    }
    db
}

/// Reference transitive closure by BFS.
fn bfs_closure(n: usize, edges: &[(usize, usize)]) -> BTreeSet<(usize, usize)> {
    let mut adj: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(u, v) in edges {
        adj.entry(u % n).or_default().push(v % n);
    }
    let mut out = BTreeSet::new();
    for start in 0..n {
        let mut queue: Vec<usize> = adj.get(&start).cloned().unwrap_or_default();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        while let Some(x) = queue.pop() {
            if seen.insert(x) {
                out.insert((start, x));
                queue.extend(adj.get(&x).cloned().unwrap_or_default());
            }
        }
    }
    out
}

/// Datalog transitive closure equals BFS reachability.
#[test]
fn transitive_closure_matches_bfs() {
    let (seed, mut rng) = (seed(), stream(1));
    for case in 0..CASES {
        let n = rng.random_range(2..6);
        let len = rng.random_range(0..10);
        let edges: Vec<(usize, usize)> =
            (0..len).map(|_| (rng.random_range(0..6), rng.random_range(0..6))).collect();
        let datalog: BTreeSet<(String, String)> = output_facts(&tc_program(), &graph_db(n, &edges))
            .into_iter()
            .map(|t| {
                let name = |i: usize| t.values()[i].as_const().unwrap().name();
                (name(0), name(1))
            })
            .collect();
        let reference: BTreeSet<(String, String)> = bfs_closure(n, &edges)
            .into_iter()
            .map(|(u, v)| (format!("v{u}"), format!("v{v}")))
            .collect();
        assert_eq!(datalog, reference, "CAZ_TEST_SEED={seed} case {case}: n = {n}, {edges:?}");
    }
}

/// Naïve evaluation is stable across calls and under null renaming
/// (Proposition 1, for the Datalog query class).
#[test]
fn datalog_naive_eval_stable() {
    let (seed, mut rng) = (seed(), stream(2));
    let prog = tc_program();
    for case in 0..CASES {
        let db = edge_db(&mut rng, 4, 3, 2);
        let a = naive_eval_datalog(&prog, &db);
        assert_eq!(a, naive_eval_datalog(&prog, &db), "CAZ_TEST_SEED={seed} case {case}: {db}");
        // Renaming nulls renames the answers accordingly.
        let fresh: BTreeMap<NullId, NullId> =
            db.nulls().into_iter().map(|n| (n, NullId::fresh())).collect();
        let back: BTreeMap<NullId, NullId> = fresh.iter().map(|(&o, &n)| (n, o)).collect();
        let rename = |map: &BTreeMap<NullId, NullId>, v: Value| match v {
            Value::Null(n) => Value::Null(*map.get(&n).unwrap_or(&n)),
            c => c,
        };
        let renamed = db.map(|v| rename(&fresh, v));
        let b: BTreeSet<Tuple> = naive_eval_datalog(&prog, &renamed)
            .into_iter()
            .map(|t| t.map(|v| rename(&back, v)))
            .collect();
        assert_eq!(a, b, "CAZ_TEST_SEED={seed} case {case}: renaming {db}");
    }
}

/// Theorem 1 for Datalog on random incomplete graphs: μ ∈ {0, 1} and
/// equals naïve membership — via the polynomial engine.
#[test]
fn zero_one_law_for_datalog_randomized() {
    let (seed, mut rng) = (seed(), stream(3));
    let prog = tc_program();
    for case in 0..CASES {
        let db = edge_db(&mut rng, 3, 2, 2);
        let naive = naive_eval_datalog(&prog, &db);
        let mut candidates: Vec<Tuple> = naive.iter().take(2).cloned().collect();
        // One adom candidate that may or may not be an answer.
        if let Some(v) = db.adom().into_iter().next() {
            candidates.push(Tuple::new(vec![v, v]));
        }
        for t in candidates {
            let m = mu_exact(&DatalogEvent::new(prog.clone(), t.clone()), &db).unwrap();
            let at = format!("CAZ_TEST_SEED={seed} case {case}: {t} over {db}");
            assert!(m.is_zero() || m.is_one(), "0–1 law: {at}");
            assert_eq!(m.is_one(), naive.contains(&t), "Theorem 1: {at}");
        }
    }
}

/// `q` as a nonrecursive program: one rule `Ans(head) :- atoms` per
/// disjunct, its equalities substituted away. `None` when some disjunct
/// leaves a head variable outside its atoms, which no safe rule can say.
fn ucq_program(q: &Query) -> Option<Program> {
    let ucq = Ucq::from_query(q)?;
    let ans = Symbol::intern("Ans");
    let mut rules = Vec::new();
    'disjuncts: for d in &ucq.disjuncts {
        let mut subst: BTreeMap<Symbol, Term> = BTreeMap::new();
        let resolve = |subst: &BTreeMap<Symbol, Term>, t: &Term| {
            let mut t = *t;
            while let Some(next) = t.as_var().and_then(|v| subst.get(&v)) {
                t = *next;
            }
            t
        };
        for (l, r) in &d.eqs {
            match (resolve(&subst, l), resolve(&subst, r)) {
                (Term::Const(a), Term::Const(b)) if a != b => continue 'disjuncts,
                (Term::Var(v), t) | (t, Term::Var(v)) if t != Term::Var(v) => {
                    subst.insert(v, t);
                }
                _ => {}
            }
        }
        let atom = |rel: Symbol, args: &[Term]| Atom {
            rel,
            args: args.iter().map(|t| resolve(&subst, t)).collect(),
        };
        let head: Vec<Term> = ucq.head.iter().map(|&v| Term::Var(v)).collect();
        let body = d.atoms.iter().map(|a| atom(a.rel, &a.args)).collect();
        rules.push(Rule::positive(atom(ans, &head), body));
    }
    Program::new(rules, "Ans").ok()
}

/// Random UCQs agree with themselves written as nonrecursive programs:
/// the same naïve answers, and the same exact measure μ for each naïve
/// answer and one more candidate (the 0–1 law, through both engines).
#[test]
fn random_ucqs_agree_with_their_programs() {
    let (seed, mut rng) = (seed(), stream(4));
    let qcfg = QueryGenConfig {
        schema: Schema::from_pairs([("R", 2), ("S", 1)]),
        arity: 1,
        max_depth: 2,
        allow_negation: false,
        allow_forall: false,
        constants: vec![Cst::new("d0")],
    };
    let dbcfg = DbGenConfig {
        relations: vec![("R".into(), 2), ("S".into(), 1)],
        tuples_per_relation: 3,
        num_constants: 2,
        num_nulls: 2,
        null_prob: 0.5,
    };
    let mut checked = 0;
    for case in 0..CASES {
        let q = random_ucq(&mut rng, &qcfg);
        let db = random_database(&mut rng, &dbcfg);
        let Some(prog) = ucq_program(&q) else {
            continue;
        };
        checked += 1;
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {q} as {prog} over {db}");
        let naive = naive_eval(&q, &db);
        assert_eq!(naive, naive_eval_datalog(&prog, &db), "naïve answers: {at}");
        let extra = db.adom().into_iter().next_back().map(|v| Tuple::new(vec![v]));
        for t in naive.iter().take(2).cloned().chain(extra) {
            let fo = mu_exact(&TupleAnswerEvent::new(q.clone(), t.clone()), &db).unwrap();
            let dl = mu_exact(&DatalogEvent::new(prog.clone(), t.clone()), &db).unwrap();
            assert_eq!(fo, dl, "μ at {t}: {at}");
        }
    }
    assert!(checked >= CASES / 2, "CAZ_TEST_SEED={seed}: only {checked} UCQs were safe rules");
}

/// Single-step programs agree with their FO translations on random
/// complete graphs (the overlap of the two query languages).
#[test]
fn single_step_program_equals_fo_join() {
    let (seed, mut rng) = (seed(), stream(5));
    let prog = parse_program("two(x, z) :- edge(x, y), edge(y, z).\noutput two").unwrap();
    let q = caz_logic::parse_query("Two(x, z) := exists y. edge(x, y) & edge(y, z)").unwrap();
    let cfg = DbGenConfig {
        relations: vec![("edge".into(), 2)],
        tuples_per_relation: 5,
        num_constants: 4,
        num_nulls: 0,
        null_prob: 0.0,
    };
    for case in 0..CASES {
        let db = random_complete_database(&mut rng, &cfg);
        assert_eq!(
            output_facts(&prog, &db),
            caz_logic::eval_query(&q, &db),
            "CAZ_TEST_SEED={seed} case {case}: {db}"
        );
    }
}
