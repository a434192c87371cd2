//! Experiments E11–E15: comparing answers (Section 5).

use crate::workloads::{best_example, ucq_uncertain_workload, ucq_workload};
use caz_compare::{
    adom_candidates, best_answers, best_mu_answers, coloring_comparison_instance, dominated,
    sep, strictly_better, Graph, UcqComparator,
};
use caz_core::{almost_certainly_false, almost_certainly_true, certain_answers};
use caz_idb::{cst, format_tuples, parse_database, Database, Tuple};
use caz_logic::{parse_query, Query};
use std::fmt::Write;
use std::time::{Duration, Instant};

/// E11 — Theorem 6: the brute-force comparison engine on the
/// graph-coloring hardness family — exponential growth, faithful
/// answers.
pub fn e11_compare_fo(max_n: usize) -> String {
    let mut out = String::new();
    writeln!(out, "E11 Theorem 6 family: ⊴ decides non-3-colorability").unwrap();
    writeln!(out, "{:>3} {:>7} {:>10} {:>10} {:>14}", "n", "edges", "⊴(ā,b̄)", "3-col?", "time").unwrap();
    let mut graphs: Vec<Graph> = vec![
        Graph::complete(3),
        Graph::cycle(4),
        Graph::complete(4),
        Graph::cycle(5),
    ];
    graphs.retain(|g| g.n <= max_n);
    for g in graphs {
        let inst = coloring_comparison_instance(&g);
        let t0 = Instant::now();
        let dom = dominated(&inst.query, &inst.db, &inst.a, &inst.b);
        let dt = t0.elapsed();
        let col = g.is_3_colorable();
        assert_eq!(dom, !col, "reduction must be faithful");
        writeln!(out, "{:>3} {:>7} {:>10} {:>10} {:>14?}", g.n, g.edges.len(), dom, col, dt).unwrap();
    }
    writeln!(out, "cost grows with the class count of (nulls, constants) — the coNP wall of Theorem 6.")
        .unwrap();

    // The DP family for ⊲: pairs (G₁ colorable?, G₂ colorable?) — the
    // strict order holds exactly on (yes, no).
    writeln!(out, "\nDP family for ⊲ (ā ⊲ b̄ ⇔ G₁ 3-col ∧ G₂ not):").unwrap();
    let yes = caz_compare::Graph { n: 1, edges: vec![] };
    let no = caz_compare::Graph { n: 1, edges: vec![(0, 0)] };
    for (g1, c1) in [(&yes, true), (&no, false)] {
        for (g2, c2) in [(&yes, true), (&no, false)] {
            let inst = caz_compare::dp_comparison_instance(g1, g2);
            let got = strictly_better(&inst.query, &inst.db, &inst.a, &inst.b);
            assert_eq!(got, c1 && !c2);
            writeln!(out, "  G₁ 3col={c1:<5} G₂ 3col={c2:<5} → ā ⊲ b̄ = {got}").unwrap();
        }
    }
    out
}

/// E12 — Theorem 8: the UCQ fast path scales polynomially where the
/// bitmap engine blows up.
pub fn e12_compare_ucq() -> String {
    e12_compare_ucq_with(&[3, 6, 9, 12], 5)
}

/// Parameterized body of E12: `sizes` are order counts, and the generic
/// engine only runs when the database has at most `generic_cutoff`
/// nulls (its cost is exponential in that number). Each size runs two
/// families: [`ucq_workload`], whose compared tuples are both certain
/// answers (`certain yes`), and [`ucq_uncertain_workload`], whose are
/// not (`certain no`); in both, `Sep(ā, b̄)` is false, so the search
/// tries every match.
pub fn e12_compare_ucq_with(sizes: &[usize], generic_cutoff: usize) -> String {
    let mut out = String::new();
    writeln!(out, "E12 Theorem 8: UCQ comparisons, fast path vs generic engine").unwrap();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    writeln!(out, "cores {cores}").unwrap();
    writeln!(
        out,
        "{:>8} {:>7} {:>7} {:>14} {:>14} {:>8}",
        "certain", "orders", "nulls", "UCQ path", "generic", "agree"
    )
    .unwrap();
    type Workload = fn(usize) -> (Database, Query, Tuple, Tuple);
    let families: [(&str, Workload); 2] =
        [("yes", ucq_workload), ("no", ucq_uncertain_workload)];
    for (certain, workload) in families {
        for &n in sizes {
            let (db, q, a, b) = workload(n);
            let cmp = UcqComparator::new(&q).expect("workload is a UCQ");
            let t0 = Instant::now();
            let fast = cmp.sep(&db, &a, &b);
            let t_fast = t0.elapsed();
            // The generic engine is exponential in nulls; skip it when it
            // would dominate the report.
            let (slow, t_slow) = if db.nulls().len() <= generic_cutoff {
                let t1 = Instant::now();
                let s = sep(&q, &db, &a, &b);
                (Some(s), t1.elapsed())
            } else {
                (None, Duration::ZERO)
            };
            let agree = slow.map_or("-".to_string(), |s| (s == fast).to_string());
            if let Some(s) = slow {
                assert_eq!(s, fast, "Theorem 8 certificate disagrees at n={n}");
            }
            writeln!(
                out,
                "{certain:>8} {n:>7} {:>7} {:>14?} {:>14} {agree:>8}",
                db.nulls().len(),
                t_fast,
                slow.map_or("skipped".to_string(), |_| format!("{t_slow:?}")),
            )
            .unwrap();
        }
    }
    writeln!(out, "who wins: the certificate algorithm — polynomial in |D| for fixed Q.").unwrap();
    out
}

/// E13 — Proposition 7: best vs almost-certainly-true are orthogonal
/// (all four combinations realized).
pub fn e13_orthogonality() -> String {
    let mut out = String::new();
    writeln!(out, "E13 Proposition 7: best × μ classification (the proof's construction)").unwrap();
    let p = parse_database("A(a). B(b). R(_x, _y).").unwrap();
    let q = parse_query(
        "Q(z) := (B(z) & (exists y. R(y, y))) | (A(z) & !(exists y. R(y, y)))",
    )
    .unwrap();
    let p2 = parse_database("A(a). B(b). G(g). R(_x, _y).").unwrap();
    let q2 = parse_query(
        "Q(z) := G(z) | (B(z) & (exists y. R(y, y))) | (A(z) & !(exists y. R(y, y)))",
    )
    .unwrap();
    let ta = Tuple::new(vec![cst("a")]);
    let tb = Tuple::new(vec![cst("b")]);
    let best1 = best_answers(&q, &p.db);
    let best2 = best_answers(&q2, &p2.db);
    let mut quadrants = Vec::new();
    for (name, t, db, qq, best) in [
        ("a in D ", &ta, &p.db, &q, &best1),
        ("b in D ", &tb, &p.db, &q, &best1),
        ("a in D'", &ta, &p2.db, &q2, &best2),
        ("b in D'", &tb, &p2.db, &q2, &best2),
    ] {
        let is_best = best.contains(t);
        let mu1 = almost_certainly_true(qq, db, Some(t));
        let mu0 = almost_certainly_false(qq, db, Some(t));
        assert!(mu1 ^ mu0);
        quadrants.push((is_best, mu1));
        writeln!(out, "  {name}: best = {is_best:<5}  μ = {}", if mu1 { 1 } else { 0 }).unwrap();
    }
    quadrants.sort();
    quadrants.dedup();
    assert_eq!(quadrants.len(), 4, "all four quadrants realized");
    writeln!(out, "all four (best, μ) combinations occur — the notions are orthogonal.").unwrap();
    out
}

/// E14 — the §5 best-answer example plus `Best_μ`.
pub fn e14_best() -> String {
    let mut out = String::new();
    writeln!(out, "E14 §5 example: best answers where certain answers are empty").unwrap();
    let ex = best_example();
    writeln!(out, "certain: {}", format_tuples(&certain_answers(&ex.query, &ex.db))).unwrap();
    let best = best_answers(&ex.query, &ex.db);
    writeln!(out, "Best(Q, D) = {}", format_tuples(&best)).unwrap();
    assert_eq!(best, [ex.b.clone()].into());
    assert!(strictly_better(&ex.query, &ex.db, &ex.a, &ex.b));
    let bm = best_mu_answers(&ex.query, &ex.db);
    writeln!(out, "Best_μ(Q, D) = {}", format_tuples(&bm)).unwrap();
    writeln!(out, "(b̄ = (2,⊥2) is both best and almost certainly true)").unwrap();
    assert_eq!(bm, best);
    out
}

/// E15 — Theorem 7 / Proposition 8: BestAnswer cost profile — pairwise
/// Sep calls over the candidate space, with `Best_μ` costing the same
/// plus one naïve evaluation per survivor.
pub fn e15_best_scaling() -> String {
    let mut out = String::new();
    writeln!(out, "E15 Theorem 7 / Proposition 8: Best and Best_μ cost profiles").unwrap();
    writeln!(out, "{:>7} {:>11} {:>14} {:>14}", "tuples", "candidates", "Best", "Best_μ").unwrap();
    for n in [2usize, 3, 4] {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("R({i}, _n{i}). "));
        }
        src.push_str("S(0, _n0).");
        let db = parse_database(&src).unwrap().db;
        let q = parse_query("Q(x, y) := R(x, y) & !S(x, y)").unwrap();
        let cands = adom_candidates(&db, 2).len();
        let t0 = Instant::now();
        let best = best_answers(&q, &db);
        let t_best = t0.elapsed();
        let t1 = Instant::now();
        let bm = best_mu_answers(&q, &db);
        let t_bm = t1.elapsed();
        assert!(bm.len() <= best.len());
        writeln!(out, "{:>7} {cands:>11} {t_best:>14?} {t_bm:>14?}", db.len()).unwrap();
    }
    writeln!(out, "Best_μ adds only naïve-evaluation filtering on top of Best (Prop 8).").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_experiments_validate() {
        assert!(e13_orthogonality().contains("orthogonal"));
        assert!(e14_best().contains("Best_μ"));
    }

    #[test]
    fn fo_family_small() {
        assert!(e11_compare_fo(3).contains("coNP wall"));
    }

    #[test]
    fn ucq_experiment_agrees() {
        assert!(e12_compare_ucq_with(&[3, 6], 3).contains("who wins"));
    }

    #[test]
    fn best_scaling_runs() {
        assert!(e15_best_scaling().contains("Prop 8"));
    }
}
