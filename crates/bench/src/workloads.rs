//! Shared workload builders for the experiment harness, so every
//! number in EXPERIMENTS.md comes from the same inputs.

use caz_constraints::{parse_constraints, ConstraintSet, Fd};
use caz_idb::{cst, parse_database, Database, NullId, Tuple, Value};
use caz_logic::{parse_query, Query};

/// The paper's introductory suppliers example (§1).
pub struct IntroExample {
    /// The database with relations `R1`, `R2`.
    pub db: Database,
    /// `Q(x, y) = R1(x, y) ∧ ¬R2(x, y)`.
    pub query: Query,
    /// The Boolean version `∃x, y Q(x, y)`.
    pub bool_query: Query,
    /// `(c1, ⊥1)`.
    pub a: Tuple,
    /// `(c2, ⊥2)`.
    pub b: Tuple,
    /// The FD "customer determines product" on `R1`.
    pub fd: Fd,
    /// The same FD as a constraint set.
    pub sigma: ConstraintSet,
}

/// Build a fresh instance of the introductory example.
pub fn intro_example() -> IntroExample {
    let parsed = parse_database(
        "R1(c1, _p1). R1(c2, _p1). R1(c2, _p2).
         R2(c1, _p2). R2(c2, _p1). R2(_c3, _p1).",
    )
    .unwrap();
    let (p1, p2) = (parsed.nulls["p1"], parsed.nulls["p2"]);
    IntroExample {
        db: parsed.db,
        query: parse_query("Q(x, y) := R1(x, y) & !R2(x, y)").unwrap(),
        bool_query: parse_query("NonEmpty := exists x, y. R1(x, y) & !R2(x, y)").unwrap(),
        a: Tuple::new(vec![cst("c1"), Value::Null(p1)]),
        b: Tuple::new(vec![cst("c2"), Value::Null(p2)]),
        fd: Fd::new("R1", vec![0], 1),
        sigma: parse_constraints("fd R1: 1 -> 2").unwrap(),
    }
}

/// The §5 running example: `R − S` with empty certain answers and a
/// unique best answer.
pub struct BestExample {
    /// The database.
    pub db: Database,
    /// `Q = R − S`.
    pub query: Query,
    /// `(1, ⊥1)`.
    pub a: Tuple,
    /// `(2, ⊥2)` — the best answer.
    pub b: Tuple,
}

/// Build the §5 example.
pub fn best_example() -> BestExample {
    let parsed = parse_database("R(1, _n1). R(2, _n2). S(1, _n2). S(_n3, _n1).").unwrap();
    BestExample {
        a: Tuple::new(vec![cst("1"), Value::Null(parsed.nulls["n1"])]),
        b: Tuple::new(vec![cst("2"), Value::Null(parsed.nulls["n2"])]),
        db: parsed.db,
        query: parse_query("Q(x, y) := R(x, y) & !S(x, y)").unwrap(),
    }
}

/// Proposition 4's construction realizing `μ(Q|Σ, D) = p/r`.
pub fn prop4_instance(p: u32, r: u32) -> (Database, ConstraintSet, Query) {
    assert!(0 < p && p <= r);
    let mut src = String::new();
    for i in 1..p {
        src.push_str(&format!("R({i}, {i}). "));
    }
    src.push_str(&format!("R(_b, {p}). S(_b, _b). "));
    for i in 1..=r {
        src.push_str(&format!("U({i}). "));
    }
    (
        parse_database(&src).unwrap().db,
        parse_constraints("ind R[1] <= U[1]").unwrap(),
        parse_query("Q := exists x, y. R(x, y) & S(x, y)").unwrap(),
    )
}

/// A chain database `R(a₀,⊥₀). R(a₀,⊥₁). … ` where FDs force a cascade
/// of null merges — a chase workload with `n` forced unifications.
pub fn chase_chain(n: usize) -> (Database, Vec<Fd>) {
    let mut db = Database::new();
    let nulls: Vec<NullId> = (0..=n).map(|_| NullId::fresh()).collect();
    // R(key_i, ⊥_i) and R(key_i, ⊥_{i+1}) force ⊥_i = ⊥_{i+1}.
    for i in 0..n {
        db.insert("R", Tuple::new(vec![cst(&format!("k{i}")), Value::Null(nulls[i])]));
        db.insert(
            "R",
            Tuple::new(vec![cst(&format!("k{i}")), Value::Null(nulls[i + 1])]),
        );
    }
    (db, vec![Fd::new("R", vec![0], 1)])
}

/// A keys/foreign-keys satisfiability workload: `n` orders referencing a
/// customer table with `n/2` null key slots.
pub fn keyfk_workload(n: usize) -> (Database, caz_idb::Schema) {
    let mut db = Database::new();
    for i in 0..n {
        db.insert(
            "Orders",
            Tuple::new(vec![cst(&format!("o{i}")), cst(&format!("c{}", i / 2))]),
        );
    }
    for _ in 0..n.div_ceil(2) {
        db.insert(
            "Cust",
            Tuple::new(vec![Value::Null(NullId::fresh()), cst("x")]),
        );
    }
    let schema = caz_idb::Schema::from_pairs([("Orders", 2), ("Cust", 2)]);
    (db, schema)
}

/// A UCQ comparison workload scaled by the number of orders: marked
/// nulls shared between `Orders` and `Featured`.
pub fn ucq_workload(n: usize) -> (Database, Query, Tuple, Tuple) {
    let mut src = String::new();
    for i in 0..n {
        let who = if i % 2 == 0 { "alice" } else { "bob" };
        if i % 3 == 0 {
            src.push_str(&format!("Orders(o{i}, {who}, _i{i}). "));
        } else {
            src.push_str(&format!("Orders(o{i}, {who}, w{i}). "));
        }
    }
    src.push_str("Featured(_i0). Featured(w1).");
    let db = parse_database(&src).unwrap().db;
    let q = parse_query("Hot(who) := exists o, it. Orders(o, who, it) & Featured(it)").unwrap();
    (
        db,
        q,
        Tuple::new(vec![cst("alice")]),
        Tuple::new(vec![cst("bob")]),
    )
}

/// [`ucq_workload`]'s query and tuples over a family where neither
/// tuple is a certain answer: one featured item `k` and `n` unknown
/// items, each ordered once by alice and once by bob. alice is hot under
/// exactly the valuations that make bob hot, so `Sep` is false in both
/// directions and the certificate search tries every match.
pub fn ucq_uncertain_workload(n: usize) -> (Database, Query, Tuple, Tuple) {
    let mut src = String::from("Featured(k).");
    for i in 0..n {
        src.push_str(&format!(" Orders(o{i}, alice, _i{i}). Orders(p{i}, bob, _i{i})."));
    }
    let db = parse_database(&src).unwrap().db;
    let q = parse_query("Hot(who) := exists o, it. Orders(o, who, it) & Featured(it)").unwrap();
    (db, q, Tuple::new(vec![cst("alice")]), Tuple::new(vec![cst("bob")]))
}

/// A family of databases with `m` nulls for measuring the polynomial
/// engine's cost in the number of nulls (the #P wall of Prop 5/6).
pub fn null_scaling_db(m: usize) -> Database {
    let mut src = String::new();
    for i in 0..m {
        src.push_str(&format!("R(c{i}, _x{i}). "));
    }
    src.push_str("U(c0).");
    parse_database(&src).unwrap().db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intro_example_shape() {
        let ex = intro_example();
        assert_eq!(ex.db.nulls().len(), 3);
        assert_eq!(ex.db.len(), 6);
        assert_eq!(ex.a.arity(), 2);
    }

    #[test]
    fn prop4_shapes() {
        let (db, sigma, q) = prop4_instance(3, 7);
        assert_eq!(db.relation("U").unwrap().len(), 7);
        assert_eq!(db.relation("R").unwrap().len(), 3);
        assert_eq!(sigma.len(), 1);
        assert!(q.is_boolean());
    }

    #[test]
    fn chase_chain_shape() {
        let (db, fds) = chase_chain(5);
        assert_eq!(db.nulls().len(), 6);
        assert_eq!(fds.len(), 1);
        let out = caz_constraints::chase(&db, &fds).unwrap();
        assert_eq!(out.db.nulls().len(), 1, "cascade merges to one null");
    }

    #[test]
    fn ucq_workload_shape() {
        let (db, q, a, b) = ucq_workload(6);
        assert!(caz_logic::is_ucq_shaped(&q.body));
        assert!(db.len() > 6);
        assert_eq!(a.arity(), 1);
        assert_eq!(b.arity(), 1);
        let (db, ..) = ucq_uncertain_workload(4);
        assert_eq!((db.len(), db.nulls().len()), (9, 4));
    }

    #[test]
    fn null_scaling_counts() {
        for m in 0..5 {
            assert_eq!(null_scaling_db(m).nulls().len(), m);
        }
    }
}
