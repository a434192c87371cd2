//! Census ≡ enumeration: the support-polynomial class census
//! (`caz_core::SeriesCensus`) must count `|Suppᵏ|` exactly as
//! enumerating `Vᵏ(D)` does, at every `k` from 1 through past the named
//! pool — below `c`, where only the name-sorted named prefix is in
//! range, at `k = c`, and above it, where the polynomial takes over.
//!
//! Seeded (`CAZ_TEST_SEED`, fixed default): each case draws a database
//! with 0–6 nulls and 0–8 named constants (database constants plus the
//! event's own), then checks Boolean, negated, tuple (constant and
//! null-bearing) and Datalog events. Cases are sized so the enumeration
//! oracle stays fast in debug builds: the larger `m`, the smaller the
//! pool drawn for it.

use caz_core::{
    census_classes, supp_k_count, BoolQueryEvent, NotEvent, SeriesCensus, SuppEvent,
    TupleAnswerEvent,
};
use caz_datalog::{parse_program, DatalogEvent};
use caz_idb::{parse_database, Cst, NullId, Schema, Tuple, Value};
use caz_logic::{random_query, QueryGenConfig};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};

const CASES: usize = 24;

/// Most valuations the oracle enumerates per event (`Σ_{k ≤ K} kᵐ`).
const VALUATION_BUDGET: u128 = 5_000;

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

fn enumeration_cost(m: usize, k_max: usize) -> u128 {
    (1..=k_max as u128).map(|k| k.pow(m as u32)).sum()
}

/// The largest named pool (≤ 8) whose series through `c + 1` fits the
/// budget for `m` nulls.
fn max_pool(m: usize) -> usize {
    (0..=8)
        .rev()
        .find(|&c| enumeration_cost(m, c + 1) <= VALUATION_BUDGET)
        .unwrap_or(0)
}

/// One drawn instance: the database source, its null ids, and the
/// constants the events may mention.
struct Case {
    src: String,
    nulls: Vec<NullId>,
    query_consts: Vec<Cst>,
    db_consts: Vec<String>,
}

fn draw_case(rng: &mut StdRng) -> Case {
    let m = rng.random_range(0..=6usize);
    let pool = rng.random_range(0..=max_pool(m));
    // Split the pool between database constants and constants only the
    // events mention (which still join `A = Const(D) ∪ C`).
    let in_db = rng.random_range(0..=pool);
    let db_consts: Vec<String> = (0..in_db).map(|i| format!("d{i}")).collect();
    let query_consts: Vec<Cst> = (in_db..pool).map(|i| Cst::new(&format!("q{i}"))).collect();
    let nulls: Vec<String> = (0..m).map(|i| format!("_n{i}")).collect();
    let mut terms: Vec<&str> = nulls.iter().chain(&db_consts).map(String::as_str).collect();
    if terms.is_empty() {
        terms.push("d0");
    }
    let mut facts = Vec::new();
    let pick = |rng: &mut StdRng| terms[rng.random_range(0..terms.len())].to_string();
    // Every null and database constant occurs at least once, so `m`
    // and the pool are what was drawn.
    for t in nulls.iter().chain(&db_consts) {
        let fact = match rng.random_range(0..3) {
            0 => format!("R({t}, {}).", pick(rng)),
            1 => format!("R({}, {t}).", pick(rng)),
            _ => format!("S({t})."),
        };
        facts.push(fact);
    }
    for _ in 0..rng.random_range(0..3) {
        facts.push(if rng.random_bool(0.5) {
            format!("R({}, {}).", pick(rng), pick(rng))
        } else {
            format!("S({}).", pick(rng))
        });
    }
    let parsed = parse_database(&facts.join(" ")).expect("generated facts parse");
    let nulls = (0..m).map(|i| parsed.nulls[&format!("n{i}")]).collect();
    Case {
        src: facts.join(" "),
        nulls,
        query_consts,
        db_consts,
    }
}

/// A value for an answer tuple: a database null, a named constant, or
/// a constant outside the pool (which enlarges `C` for the event).
fn tuple_value(rng: &mut StdRng, case: &Case) -> Value {
    match rng.random_range(0..3) {
        0 if !case.nulls.is_empty() => {
            Value::Null(case.nulls[rng.random_range(0..case.nulls.len())])
        }
        1 if !case.db_consts.is_empty() => Value::Const(Cst::new(
            &case.db_consts[rng.random_range(0..case.db_consts.len())],
        )),
        _ => Value::Const(Cst::new("t0")),
    }
}

fn events(rng: &mut StdRng, case: &Case) -> Vec<(String, Box<dyn SuppEvent>)> {
    let query = |rng: &mut StdRng, arity| {
        let cfg = QueryGenConfig {
            schema: Schema::from_pairs([("R", 2), ("S", 1)]),
            arity,
            max_depth: 2,
            allow_negation: true,
            allow_forall: true,
            constants: case.query_consts.clone(),
        };
        random_query(rng, &cfg)
    };
    let boolean = query(rng, 0);
    let negated = query(rng, 0);
    let unary = query(rng, 1);
    let binary = query(rng, 2);
    let unary_tuple = Tuple::new(vec![tuple_value(rng, case)]);
    let binary_tuple = Tuple::new(vec![tuple_value(rng, case), tuple_value(rng, case)]);
    let program = parse_program(
        "path(x, y) :- R(x, y).
         path(x, z) :- path(x, y), R(y, z).
         output path",
    )
    .expect("program parses");
    let path_tuple = Tuple::new(vec![tuple_value(rng, case), tuple_value(rng, case)]);
    vec![
        (
            format!("bool {boolean}"),
            Box::new(BoolQueryEvent::new(boolean)),
        ),
        (
            format!("not {negated}"),
            Box::new(NotEvent::new(Box::new(BoolQueryEvent::new(negated)))),
        ),
        (
            format!("{unary} at {unary_tuple}"),
            Box::new(TupleAnswerEvent::new(unary, unary_tuple)),
        ),
        (
            format!("{binary} at {binary_tuple}"),
            Box::new(TupleAnswerEvent::new(binary, binary_tuple)),
        ),
        (
            format!("path at {path_tuple}"),
            Box::new(DatalogEvent::new(program, path_tuple)),
        ),
    ]
}

#[test]
fn census_counts_equal_enumeration_at_every_k() {
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCE_5005);
    let (mut below_c, mut at_c, mut widest, mut deepest) = (0, 0, 0, 0);
    for case_no in 0..CASES {
        let case = draw_case(&mut rng);
        let db = parse_database(&case.src).expect("generated facts parse").db;
        for (label, event) in events(&mut rng, &case) {
            let census = SeriesCensus::new(event.as_ref(), &db).unwrap();
            let (m, c) = (census.nulls, census.named_count);
            assert_eq!(u128::from(census.total_classes), census_classes(m, c));
            // Through c + 1 always; one row further when that is cheap.
            let k_max = if enumeration_cost(m, c + 2) <= VALUATION_BUDGET {
                c + 2
            } else {
                c + 1
            };
            for k in 1..=k_max {
                let exact = supp_k_count(event.as_ref(), &db, k);
                assert_eq!(
                    census.count(k),
                    exact,
                    "CAZ_TEST_SEED={seed} case {case_no}: {label} over {:?} \
                     (m = {m}, c = {c}) at k = {k}",
                    case.src
                );
                below_c += usize::from(k < c);
                at_c += usize::from(k == c);
            }
            widest = widest.max(c);
            deepest = deepest.max(m);
        }
    }
    // The draw really spans the regimes it claims to cover.
    assert!(below_c > 0 && at_c > 0, "no k < c or k = c rows checked");
    assert!(
        widest >= 6 && deepest >= 5,
        "draw too narrow: c ≤ {widest}, m ≤ {deepest}"
    );
}
