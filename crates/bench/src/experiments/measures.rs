//! Experiments E1–E5 and E16: the measures without constraints.

use crate::workloads::intro_example;
use caz_core::{
    certain_answers, certainly_true, estimate_mu_k, m_k_series, mu_k_series, mu_via_polynomials,
    owa_m_k, support_poly, BoolQueryEvent, TupleAnswerEvent,
};
use caz_idb::{format_tuples, parse_database, random_database, Database, DbGenConfig};
use caz_logic::{
    is_pos_forall_guarded, naive_contains, naive_eval, naive_eval_bool, parse_query,
    random_query, QueryGenConfig,
};
use caz_testutil::rngs::StdRng;
use caz_testutil::SeedableRng;
use std::fmt::Write;

/// E1 — the introductory example (§1): likely answers, their measures,
/// their comparison, and the effect of the FD.
pub fn e01_intro() -> String {
    let ex = intro_example();
    let mut out = String::new();
    writeln!(out, "E1  §1 suppliers example").unwrap();
    writeln!(out, "database:\n{}", ex.db).unwrap();
    writeln!(
        out,
        "certain answers to Q = R1 − R2: {}",
        format_tuples(&certain_answers(&ex.query, &ex.db))
    )
    .unwrap();
    writeln!(
        out,
        "naïve answers:                 {}",
        format_tuples(&naive_eval(&ex.query, &ex.db))
    )
    .unwrap();
    for (name, t) in [("(c1,⊥1)", &ex.a), ("(c2,⊥2)", &ex.b)] {
        writeln!(
            out,
            "μ(Q, D, {name}) = {}   certain: {}",
            mu_via_polynomials(&ex.query, &ex.db, Some(t)),
            caz_core::is_certain_answer(&ex.query, &ex.db, t),
        )
        .unwrap();
    }
    writeln!(
        out,
        "(c1,⊥1) ⊲ (c2,⊥2): {}",
        caz_compare::strictly_better(&ex.query, &ex.db, &ex.a, &ex.b)
    )
    .unwrap();
    writeln!(
        out,
        "Best(Q, D) = {}",
        format_tuples(&caz_compare::best_answers(&ex.query, &ex.db))
    )
    .unwrap();
    writeln!(
        out,
        "with FD customer→product: μ(∃Q | Σ, D) = {}",
        caz_core::mu_conditional(&ex.bool_query, &ex.sigma, &ex.db, None)
    )
    .unwrap();
    out
}

/// Configuration shared by the random sweeps.
fn sweep_configs() -> (DbGenConfig, QueryGenConfig) {
    (
        DbGenConfig {
            relations: vec![("R".into(), 2), ("S".into(), 1)],
            tuples_per_relation: 3,
            num_constants: 3,
            num_nulls: 3,
            null_prob: 0.5,
        },
        QueryGenConfig {
            schema: caz_idb::Schema::from_pairs([("R", 2), ("S", 1)]),
            arity: 0,
            max_depth: 2,
            allow_negation: true,
            allow_forall: true,
            constants: vec![caz_idb::Cst::new("d0")],
        },
    )
}

/// E2 — Theorem 1 (the 0–1 law) on a random sweep: the exact limit is
/// always 0 or 1 and always equals the naïve-evaluation prediction; the
/// finite sequences march towards it.
pub fn e02_zero_one(trials: usize) -> String {
    let mut rng = StdRng::seed_from_u64(2018);
    let (db_cfg, q_cfg) = sweep_configs();
    let mut out = String::new();
    writeln!(out, "E2  Theorem 1: 0–1 law on {trials} random (D, Q) pairs").unwrap();
    writeln!(out, "{:>5} {:>7} {:>7} {:>9} {:>9} {:>9}", "trial", "μ", "naïve", "μ^4", "μ^8", "μ̂^50").unwrap();
    let (mut ones, mut zeros) = (0, 0);
    for trial in 0..trials {
        let db = random_database(&mut rng, &db_cfg);
        let q = random_query(&mut rng, &q_cfg);
        let ev = BoolQueryEvent::new(q.clone());
        let exact = caz_core::mu_exact(&ev, &db).unwrap();
        let naive = naive_eval_bool(&q, &db);
        assert!(exact.is_zero() || exact.is_one(), "0–1 law violated!");
        assert_eq!(exact.is_one(), naive, "Theorem 1 violated!");
        if exact.is_one() {
            ones += 1
        } else {
            zeros += 1
        }
        let series = mu_k_series(&ev, &db, 8);
        let est = estimate_mu_k(&mut rng, &ev, &db, 50, 1000).expect("valid sampling parameters");
        writeln!(
            out,
            "{trial:>5} {:>7} {naive:>7} {:>9.4} {:>9.4} {:>9.3}",
            exact,
            series.values[3].to_f64(),
            series.values[7].to_f64(),
            est.value,
        )
        .unwrap();
    }
    writeln!(out, "result: {ones} almost certainly true, {zeros} almost certainly false, 0 in between").unwrap();
    out
}

/// E3 — Theorem 2: the valuation-counting measure `μᵏ` and the
/// database-counting measure `mᵏ` differ at finite `k` but share limits.
pub fn e03_m_measure() -> String {
    let mut out = String::new();
    writeln!(out, "E3  Theorem 2: μᵏ vs mᵏ").unwrap();
    // The §3.3 example where the two measures visibly differ.
    let db = parse_database("R(1, _a). R(1, _b).").unwrap().db;
    let q = parse_query("Same := exists x. R(1, x) & !(exists y. R(1, y) & y != x)").unwrap();
    let ev = BoolQueryEvent::new(q);
    let mu = mu_k_series(&ev, &db, 10);
    let m = m_k_series(&ev, &db, 10);
    writeln!(out, "{:>3} {:>10} {:>10}", "k", "μᵏ", "mᵏ").unwrap();
    for i in 0..mu.ks.len() {
        writeln!(
            out,
            "{:>3} {:>10} {:>10}",
            mu.ks[i],
            mu.values[i].to_string(),
            m.values[i].to_string()
        )
        .unwrap();
    }
    writeln!(out, "both sequences tend to 0 (μᵏ = 1/k, mᵏ = 2/(k+1)) — same limit.").unwrap();

    // Random agreement check at moderate k.
    let mut rng = StdRng::seed_from_u64(7);
    let (db_cfg, q_cfg) = sweep_configs();
    let mut agreements = 0;
    let trials = 6;
    for _ in 0..trials {
        let db = random_database(
            &mut rng,
            &DbGenConfig { num_nulls: 2, ..db_cfg.clone() },
        );
        let q = random_query(&mut rng, &q_cfg);
        let ev = BoolQueryEvent::new(q);
        let exact = caz_core::mu_exact(&ev, &db).unwrap().to_f64();
        let m12 = caz_core::m_k(&ev, &db, 14).to_f64();
        if (m12 - exact).abs() < 0.35 {
            agreements += 1;
        }
    }
    writeln!(out, "random check: {agreements}/{trials} mᵏ values already near their 0/1 limit at k = 14").unwrap();
    out
}

/// E4 — Proposition 2: open-world semantics breaks the naïve-evaluation
/// connection in both directions.
pub fn e04_owa() -> String {
    let mut out = String::new();
    writeln!(out, "E4  Proposition 2: open-world measure vs naïve evaluation").unwrap();
    let mut db = Database::new();
    db.relation_mut("U", 1);
    let q1 = parse_query("Q1 := !(exists x. U(x))").unwrap();
    let q2 = parse_query("Q2 := exists x. U(x)").unwrap();
    writeln!(
        out,
        "D: U = ∅.  Q1 = ¬∃x U(x) (naïve: {}), Q2 = ∃x U(x) (naïve: {})",
        naive_eval_bool(&q1, &db),
        naive_eval_bool(&q2, &db)
    )
    .unwrap();
    writeln!(out, "{:>3} {:>14} {:>14}", "k", "owa-mᵏ(Q1)", "owa-mᵏ(Q2)").unwrap();
    for k in 1..=8 {
        let c1 = owa_m_k(&q1, &db, k).unwrap();
        let c2 = owa_m_k(&q2, &db, k).unwrap();
        writeln!(out, "{k:>3} {:>14} {:>14}", c1.value.to_string(), c2.value.to_string()).unwrap();
        assert_eq!(c1.value, caz_arith::Ratio::from_frac(1i64, 1i64 << k));
    }
    writeln!(out, "owa-m(Q1) → 0 though naïvely true; owa-m(Q2) → 1 though naïvely false.").unwrap();
    out
}

/// E5 — Proposition 3: the implication measure gives nothing new.
pub fn e05_implication() -> String {
    let mut out = String::new();
    writeln!(out, "E5  Proposition 3: μ(Σ→Q, D)").unwrap();
    let q_false = parse_query("F := exists u. R(u, u)").unwrap();
    let q_true = parse_query("T := exists u, v. R(u, v)").unwrap();
    let sigma = caz_constraints::parse_constraints("fd R: 1 -> 2").unwrap();
    for (label, src) in [
        ("μ(Σ,D)=1 (FD holds naïvely)", "R(a, _x). R(b, _y)."),
        ("μ(Σ,D)=0 (FD a.c. violated)", "R(a, _x). R(a, _y)."),
    ] {
        let db = parse_database(src).unwrap().db;
        let mu_sigma = if caz_core::sigma_almost_certainly_true(&sigma, &db) { 1 } else { 0 };
        writeln!(out, "case {label}:").unwrap();
        for q in [&q_true, &q_false] {
            let imp = caz_core::mu_implication(&sigma, q, &db);
            let plain = caz_core::mu(q, &db, None);
            writeln!(
                out,
                "  μ(Σ→{}) = {imp}   μ({}) = {plain}   expected: {}",
                q.name,
                q.name,
                if mu_sigma == 0 { "1".to_string() } else { plain.to_string() }
            )
            .unwrap();
            if mu_sigma == 0 {
                assert!(imp.is_one());
            } else {
                assert_eq!(imp, plain);
            }
        }
    }
    out
}

/// E16 — Corollary 3: for Pos∀G queries certain answers and almost
/// certainly true answers coincide.
pub fn e16_pos_forall_g() -> String {
    let mut out = String::new();
    writeln!(out, "E16 Corollary 3: Pos∀G queries — certain = almost certainly true").unwrap();
    let cases = [
        ("Course(_c). Enrolled(alice, _c).", "Q := forall c. Course(c) -> exists s. Enrolled(s, c)"),
        ("Course(math). Enrolled(alice, _c).", "Q := forall c. Course(c) -> exists s. Enrolled(s, c)"),
        ("R(_x, _y). S(_x).", "Q := exists u. S(u) & (exists w. R(u, w))"),
        ("R(a, b). S(c).", "Q := exists u, w. R(u, w) | S(u)"),
    ];
    writeln!(out, "{:<55} {:>8} {:>8}", "query on database", "certain", "μ=1").unwrap();
    for (dbsrc, qsrc) in cases {
        let db = parse_database(dbsrc).unwrap().db;
        let q = parse_query(qsrc).unwrap();
        assert!(is_pos_forall_guarded(&q.body), "{qsrc} must be Pos∀G");
        let cert = certainly_true(&q, &db);
        let ac = caz_core::almost_certainly_true(&q, &db, None);
        assert_eq!(cert, ac, "Corollary 3 violated on {dbsrc}");
        writeln!(out, "{:<55} {cert:>8} {ac:>8}", format!("{qsrc} on {dbsrc}")).unwrap();
    }
    writeln!(out, "all agree — and for a non-Pos∀G query they can differ:").unwrap();
    // Contrast: negation splits the notions (the intro example's Q).
    let ex = intro_example();
    let cert = caz_core::is_certain_answer(&ex.query, &ex.db, &ex.a);
    let ac = naive_contains(&ex.query, &ex.db, &ex.a);
    writeln!(out, "  R1−R2, (c1,⊥1): certain = {cert}, μ=1: {ac}").unwrap();
    out
}

/// E2 support: the support polynomial of the intro example for the
/// record (used in EXPERIMENTS.md).
pub fn intro_support_poly() -> String {
    let ex = intro_example();
    let ev = TupleAnswerEvent::new(ex.query.clone(), ex.a.clone());
    let sp = support_poly(&ev, &ex.db).unwrap();
    format!(
        "|Suppᵏ(Q, D, (c1,⊥1))| = {}   (m = {}, named = {}, classes: {} true / {} total)\nμ = {}",
        sp.poly,
        sp.nulls,
        sp.named_count,
        sp.true_classes,
        sp.total_classes,
        sp.mu_limit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_run_and_validate() {
        assert!(e01_intro().contains("μ(Q, D, (c1,⊥1)) = 1"));
        assert!(e03_m_measure().contains("same limit"));
        assert!(e04_owa().contains("1/256"));
        assert!(e05_implication().contains("case"));
        assert!(e16_pos_forall_g().contains("all agree"));
        assert!(intro_support_poly().contains("μ = 1"));
    }

    #[test]
    fn zero_one_sweep_small() {
        let report = e02_zero_one(4);
        assert!(report.contains("0 in between"));
    }
}
