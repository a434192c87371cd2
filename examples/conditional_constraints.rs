//! Conditional measures under integrity constraints (Section 4).
//!
//! * the worked example where `μ(Q|Σ, D)` is 1/3 and 2/3;
//! * Proposition 4: every rational `p/r ∈ [0,1]` is realized;
//! * the support polynomials behind the closed forms;
//! * Theorem 5: functional dependencies recover the 0–1 law via the
//!   chase.
//!
//! Run with `cargo run --example conditional_constraints`.

use certain_answers::prelude::*;

/// Proposition 4's construction for a target rational `p/r`:
/// `R = {(1,1),…,(p−1,p−1),(⊥,p)}`, `S = {(⊥,⊥)}`, `U = {1,…,r}`,
/// `Σ : π₁(R) ⊆ U`, `Q = ∃x,y R(x,y) ∧ S(x,y)`.
fn proposition_4_instance(p: u32, r: u32) -> (Database, ConstraintSet, Query) {
    let mut src = String::new();
    for i in 1..p {
        src.push_str(&format!("R({i}, {i}). "));
    }
    src.push_str(&format!("R(_b, {p}). S(_b, _b). "));
    for i in 1..=r {
        src.push_str(&format!("U({i}). "));
    }
    let db = parse_database(&src).unwrap().db;
    let sigma = parse_constraints("ind R[1] <= U[1]").unwrap();
    let q = parse_query("Q := exists x, y. R(x, y) & S(x, y)").unwrap();
    (db, sigma, q)
}

fn main() {
    // ── The §4 example ────────────────────────────────────────────────
    let parsed = parse_database("R(2, 1). R(_b, _b). U(1). U(2). U(3).").unwrap();
    let sigma = parse_constraints("ind R[1] <= U[1]").unwrap();
    let q_rel = parse_query("Q(x, y) := R(x, y)").unwrap();
    let b = parsed.nulls["b"];
    let a_tuple = Tuple::new(vec![cst("1"), Value::Null(b)]);
    let b_tuple = Tuple::new(vec![cst("2"), Value::Null(b)]);
    println!("D:\n{}", parsed.db);
    println!("Σ: π₁(R) ⊆ U\n");
    for (name, t) in [("ā = (1,⊥)", &a_tuple), ("b̄ = (2,⊥)", &b_tuple)] {
        println!(
            "μ(Q | Σ, D, {name}) = {}",
            mu_conditional(&q_rel, &sigma, &parsed.db, Some(t))
        );
    }

    // The support polynomials behind the 2/3 (they are constants here —
    // the constraint pins ⊥ to three named values).
    let ev = TupleAnswerEvent::new(q_rel.clone(), b_tuple.clone());
    let sig_ev = ConstraintEvent::new(sigma.clone());
    let (num, den) = caz_core::conditional_polys(&ev, &sig_ev, &parsed.db).unwrap();
    println!("\n|Suppᵏ(Σ ∧ Q(b̄))| = {}", num.poly);
    println!("|Suppᵏ(Σ)|        = {}", den.poly);

    // ── Proposition 4: a sweep of target rationals ────────────────────
    println!("\nProposition 4: realizing arbitrary rationals as μ(Q|Σ, D)");
    for (p, r) in [(1u32, 2u32), (2, 3), (3, 7), (5, 8), (1, 10), (9, 10)] {
        let (db, sigma, q) = proposition_4_instance(p, r);
        let got = mu_conditional(&q, &sigma, &db, None);
        println!("  target {p}/{r}  →  measured {got}");
        assert_eq!(got, Ratio::from_frac(p as i64, r as i64));
    }

    // ── Theorem 5: FDs recover the 0–1 law ────────────────────────────
    println!("\nTheorem 5: under FDs the conditional measure is 0 or 1 (chase)");
    let parsed = parse_database("Emp(e1, _d1). Emp(e1, _d2). Dept(_d1, lab).").unwrap();
    let fds = [Fd::new("Emp", vec![0], 1)]; // employee → department
    let q = parse_query("InLab := exists e, d. Emp(e, d) & Dept(d, 'lab')").unwrap();
    // The chase identifies ⊥d1 and ⊥d2; naïve evaluation then decides.
    let out = chase(&parsed.db, &fds).unwrap();
    println!("chase(D):\n{}", out.db);
    println!(
        "μ(InLab | Σ, D) = {}",
        mu_conditional_fd(&q, &fds, &parsed.db, None).unwrap()
    );

    // A failing chase: the constraint is unsatisfiable, measure 0 by
    // convention.
    let bad = parse_database("Emp(e1, sales). Emp(e1, lab).").unwrap().db;
    println!(
        "unsatisfiable Σ in D: satisfiable = {}, μ(Q|Σ,D) = {}",
        caz_constraints::fds_satisfiable(&bad, &fds),
        mu_conditional_fd(&q, &fds, &bad, None).unwrap()
    );
}
