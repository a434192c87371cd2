//! Preference-weighted measures (§6 "Preferences" / "Other
//! distributions").
//!
//! The paper's measure treats every constant as an equally likely value
//! for a null. When side information exists — "the missing diagnosis is
//! flu with probability 1/2" — the weighted extension attaches a
//! sub-distribution to each null; the leftover mass stays generic. The
//! limit measure still exists (convergence survives), but it is no
//! longer confined to {0, 1}: the 0–1 law is specific to the uniform
//! model.
//!
//! Run with `cargo run --example weighted_preferences`.

use certain_answers::prelude::*;
use caz_core::{mu_weighted_conditional, total_mass};

fn main() {
    // A clinical database: pat1's diagnosis is unknown; flu is chronic…
    // wait, no: Chronic lists long-running conditions.
    let p = parse_database(
        "Diag(pat1, _d). Diag(pat2, asthma).
         Chronic(asthma). Chronic(diabetes).",
    )
    .unwrap();
    let q = parse_query("HasChronic := exists d. Diag('pat1', d) & Chronic(d)").unwrap();
    println!("D:\n{}", p.db);
    println!("Q: {q}\n");

    let ev = BoolQueryEvent::new(q.clone());

    // Under the uniform measure the answer is almost certainly false —
    // a random disease name is none of the two chronic ones.
    println!("uniform μ(Q, D) = {}", caz_core::mu_exact(&ev, &p.db).unwrap());

    // With clinical priors the picture changes quantitatively.
    let mut pref = Preference::uniform();
    pref.set(
        p.nulls["d"],
        [
            (Cst::new("asthma"), Ratio::from_frac(1, 4)),
            (Cst::new("flu"), Ratio::from_frac(1, 2)),
        ],
    )
    .unwrap();
    let w = mu_weighted(&ev, &p.db, &pref);
    println!("weighted μ_w(Q, D) = {w}   (P(asthma) = 1/4, P(flu) = 1/2, generic 1/4)");
    assert_eq!(w, Ratio::from_frac(1, 4));
    assert_eq!(total_mass(&p.db, &pref), Ratio::one());

    // Finite-k weighted measures converge to the closed form.
    println!("\nμ_wᵏ convergence:");
    for k in [5usize, 10, 20, 40] {
        let fin = mu_weighted_k(&ev, &p.db, &pref, k);
        println!("  k = {k:>3}: {fin}  (≈{:.4})", fin.to_f64());
    }
    println!("  limit:   {w}");

    // Conditional weighted measures: given that the diagnosis is one of
    // the named candidates, how likely is a chronic condition?
    let named = BoolQueryEvent::new(
        parse_query("Named := exists d. Diag('pat1', d) & (Chronic(d) | d = 'flu')").unwrap(),
    );
    let cond = mu_weighted_conditional(&ev, &named, &p.db, &pref).unwrap();
    println!("\nμ_w(Q | diagnosis ∈ {{asthma, diabetes, flu}}) = {cond}");

    // And the degenerate check: with no preferences, the weighted
    // measure is the plain one (0–1 law restored).
    assert_eq!(
        mu_weighted(&ev, &p.db, &Preference::uniform()),
        caz_core::mu_exact(&ev, &p.db).unwrap()
    );
    println!("\nuniform preference ⇒ μ_w = μ (the 0–1 law is the uniform special case)");
}
