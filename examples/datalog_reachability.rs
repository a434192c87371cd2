//! Recursive queries over incomplete data: the 0–1 law beyond
//! first-order logic.
//!
//! Theorem 1 needs only *genericity*, so it covers fixed-point queries
//! the usual logical 0–1 laws do not reach. This example runs Datalog
//! transitive closure over a network with unknown links and applies the
//! whole framework: naïve evaluation, exact measures, certain answers.
//!
//! Run with `cargo run --example datalog_reachability`.

use certain_answers::prelude::*;
use certain_answers::datalog::DatalogEvent;

fn main() {
    // A network where some hops are unknown (marked nulls): gateway
    // g connects through an unknown relay to server s; s forwards to
    // an unknown destination.
    let p = parse_database(
        "link(g, _relay). link(_relay, s). link(s, _dst). link(q, g).",
    )
    .unwrap();
    println!("network:\n{}", p.db);

    let reach = parse_program(
        "reach(x, y) :- link(x, y).
         reach(x, z) :- reach(x, y), link(y, z).
         output reach",
    )
    .unwrap();
    println!("program:\n{reach}");

    // Naïve evaluation = the almost certainly true reachability facts.
    let likely = naive_eval_datalog(&reach, &p.db);
    println!("almost certainly reachable (μ = 1): {}", format_tuples(&likely));

    // Certain facts: true no matter what the unknown hops are. Note
    // that g → s is certain even though the relay is unknown — the path
    // exists whatever it is.
    let certain = certain_datalog_answers(&reach, &p.db);
    println!("certainly reachable:                {}", format_tuples(&certain));
    let gs = Tuple::new(vec![cst("g"), cst("s")]);
    assert!(certain.contains(&gs));

    // An uncertain fact: does s reach g? Only if ⊥dst loops back —
    // possible, but almost certainly false.
    let sg = Tuple::new(vec![cst("s"), cst("g")]);
    let ev = DatalogEvent::new(reach.clone(), sg.clone());
    println!("\nμ(reach(s, g)):");
    let series = mu_k_series(&ev, &p.db, 8);
    print!("{series}");
    let exact = caz_core::mu_exact(&ev, &p.db).unwrap();
    println!("exact limit: {exact}");
    assert!(exact.is_zero());

    // And the 0–1 law, checked across all candidate pairs.
    let mut zeros = 0;
    let mut ones = 0;
    for t in adom_candidates(&p.db, 2) {
        let m = caz_core::mu_exact(&DatalogEvent::new(reach.clone(), t.clone()), &p.db).unwrap();
        assert!(m.is_zero() || m.is_one(), "0–1 law violated on {t}");
        if m.is_one() {
            ones += 1;
        } else {
            zeros += 1;
        }
    }
    println!("\n0–1 law over all {} candidate pairs: {ones} with μ=1, {zeros} with μ=0, none in between.", ones + zeros);
}
