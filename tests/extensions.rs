//! Integration tests for the §6 extensions through the facade crate:
//! three-valued SQL evaluation, preference-weighted measures, Codd
//! tables, and Datalog — all interoperating with the exact measures.

use certain_answers::datalog::DatalogEvent;
use certain_answers::prelude::*;

/// The §6 pipeline on one database: a marked table queried via SQL-style
/// 3VL, measured exactly, and weighted by preferences.
#[test]
fn extensions_interoperate() {
    let p = parse_database(
        "Emp(ann, _d1). Emp(bob, _d1). Emp(cal, _d2).",
    )
    .unwrap();
    let q = parse_query(
        "Together(w) := exists d. Emp('ann', d) & Emp(w, d) & w != 'ann'",
    )
    .unwrap();

    // Exact ground truth: bob certainly shares Ann's department.
    let bob = Tuple::new(vec![cst("bob")]);
    assert!(is_certain_answer(&q, &p.db, &bob));

    // 3VL: marked mode finds it, SQL mode only suspects it.
    let marked = three_valued_quality(&q, &p.db, NullMode::Marked);
    let sql = three_valued_quality(&q, &p.db, NullMode::Sql);
    assert!(marked.claimed_true.contains(&bob));
    assert!(!sql.claimed_true.contains(&bob));
    assert!(sql.claimed_unknown.contains(&bob));
    assert!(marked.is_sound() && sql.is_sound());

    // Codd-ification destroys exactly that certainty.
    let codd = caz_idb::to_codd(&p.db);
    assert!(!is_certain_answer(&q, &codd.db, &bob));
    assert!(caz_core::mu(&q, &codd.db, Some(&bob)).is_zero());

    // Weighted: if both unknown departments are probably "sales", cal
    // becomes a likely colleague too.
    let cal = Tuple::new(vec![cst("cal")]);
    assert!(caz_core::mu(&q, &p.db, Some(&cal)).is_zero());
    let mut pref = Preference::uniform();
    let sales = [(Cst::new("sales"), Ratio::from_frac(1, 2))];
    pref.set(p.nulls["d1"], sales.clone()).unwrap();
    pref.set(p.nulls["d2"], sales).unwrap();
    let ev = caz_core::TupleAnswerEvent::new(q.clone(), cal);
    assert_eq!(
        caz_core::mu_weighted(&ev, &p.db, &pref),
        Ratio::from_frac(1, 4),
        "both nulls hit 'sales' with probability 1/2 × 1/2"
    );
}

/// Datalog and FO agree where they overlap: non-recursive programs are
/// expressible both ways and the measures coincide.
#[test]
fn datalog_fo_agreement_on_nonrecursive_queries() {
    let p = parse_database("R(a, _x). S(_x, b). S(c, d).").unwrap();
    let prog = parse_program(
        "j(x, z) :- R(x, y), S(y, z).
         output j",
    )
    .unwrap();
    let q = parse_query("J(x, z) := exists y. R(x, y) & S(y, z)").unwrap();
    assert_eq!(naive_eval_datalog(&prog, &p.db), naive_eval(&q, &p.db));
    for t in adom_candidates(&p.db, 2).into_iter().take(6) {
        let dl = caz_core::mu_exact(&DatalogEvent::new(prog.clone(), t.clone()), &p.db).unwrap();
        let fo = caz_core::mu_via_polynomials(&q, &p.db, Some(&t));
        assert_eq!(dl, fo, "Datalog vs FO measure on {t}");
    }
    assert_eq!(
        certain_datalog_answers(&prog, &p.db),
        certain_answers(&q, &p.db)
    );
}

/// Stratified negation composes with the conditional measure: the
/// conditional probability of separation under a constraint.
#[test]
fn stratified_datalog_under_constraints() {
    let prog = parse_program(
        "path(x, y) :- edge(x, y).
         path(x, z) :- path(x, y), edge(y, z).
         cut() :- node(x), node(y), !path(x, y), !path(y, x), !same(x, y).
         same(x, x) :- node(x).
         output cut",
    )
    .unwrap();
    // Two components unless ⊥ bridges them.
    let p = parse_database(
        "node(a). node(b). edge(a, _m).",
    )
    .unwrap();
    let ev = DatalogEvent::boolean(prog.clone());
    // cut() holds iff some pair is mutually unreachable: a→⊥; if
    // v(⊥) = b the graph is connected a→b (but b cannot reach a: still
    // cut). Actually b never reaches a, so cut() is certain.
    assert!(caz_core::mu_exact(&ev, &p.db).unwrap().is_one());

    // Under Σ: edge targets are nodes, i.e. v(⊥) ∈ {a, b}. With
    // v(⊥) = a the pair (a, b) stays mutually unreachable (cut); with
    // v(⊥) = b the bridge a → b kills the cut. So conditioning turns an
    // almost certain fact into a coin flip — a recursive query with
    // negation hitting Theorem 3's rational regime.
    let sigma = parse_constraints("ind edge[2] <= node[1]").unwrap();
    let sev = caz_core::ConstraintEvent::new(sigma);
    let cond = caz_core::mu_conditional_exact(&ev, &sev, &p.db).unwrap();
    assert_eq!(cond, Ratio::from_frac(1, 2), "μ(cut | Σ, D)");
}

/// The weighted measure interacts with Datalog events too — the
/// engines are fully orthogonal to the query language.
#[test]
fn weighted_datalog() {
    let prog = parse_program(
        "reach(y) :- edge('src', y).
         reach(z) :- reach(y), edge(y, z).
         output reach",
    )
    .unwrap();
    let p = parse_database("edge(src, _hop). edge(mid, target).").unwrap();
    let t = Tuple::new(vec![cst("target")]);
    let ev = DatalogEvent::new(prog, t);
    // Uniformly: reaching target needs v(⊥hop) = mid — measure 0.
    assert!(caz_core::mu_exact(&ev, &p.db).unwrap().is_zero());
    // With P(⊥hop = mid) = 2/3: measure 2/3.
    let mut pref = Preference::uniform();
    pref.set(p.nulls["hop"], [(Cst::new("mid"), Ratio::from_frac(2, 3))])
        .unwrap();
    assert_eq!(
        caz_core::mu_weighted(&ev, &p.db, &pref),
        Ratio::from_frac(2, 3)
    );
}

/// The REPL façade drives the same engines.
#[test]
fn repl_session_end_to_end() {
    use certain_answers::repl::{Reply, Session};
    let mut s = Session::new();
    let mut run = |line: &str| match s.execute(line).unwrap() {
        Reply::Text(t) => t,
        Reply::Quit => panic!("unexpected quit"),
    };
    run("fact edge(a, _m). edge(_m, c).");
    run("datalog path(x, y) :- edge(x, y); path(x, z) :- path(x, y), edge(y, z)");
    assert!(run("certain path").contains("(a, c)"));
    assert_eq!(run("mu path (a, c)"), "μ(Q, D) = 1");
}
